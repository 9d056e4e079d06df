"""Running the full relation sweep at both levels.

Every relation word is folded once into its value at a = 1, a signed
permutation kept as one int per column.  The group level compares the two
sides' values, L = R; the algebra level compares the automorphisms they
induce, which agree exactly when L = +-R.  Every section's lifts are a
torus conjugate of those at a = 1, so neither verdict depends on the
section.  The CLI writes the verdict rows as one JSON report.
"""

import sys
import time

from titslift import verify_theorem1
from titslift.cli import main

for n in (1, 2, 3, 8):
    t0 = time.perf_counter()
    rows = verify_theorem1(n)
    dt = time.perf_counter() - t0
    print(f"algebra level, rank {n}: {len(rows)} checks, "
          f"all pass: {all(r[3] for r in rows)}, {dt * 1000:.1f} ms")

print()
print("the group-level report for rank 2 at the section a = (7/2, -3):")
sys.exit(main(["verify", "--n", "2", "--level", "group",
               "--params", "7/2,-3"]))
