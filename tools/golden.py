"""Write the golden corpus of CLI calls, tests/golden.json.

    python tools/golden.py

Each call runs through ``titslift.cli.main`` in this process, inside an
empty directory that holds only the call's input files.  Its entry keeps
the argv, the input files inline, the exit code, and the SHA-256 of
stdout, of stderr and of the ``--json`` report file (``report.json``,
null when the call writes none); the text itself is kept as well when it
is at most SHORT characters.  tests/test_golden.py replays every entry
against the code in ``src``.  A change that alters the CLI's output on
purpose regenerates the corpus with this script and says so.

The calls: ``verify`` at each level for n = 1..12, bare and with a p/q
``--params``, and with ``--json`` at n <= 3; every call of each workload
in bench/run.py for seed 1; and the eval-word, normalizer-check and
usage cases of tests/test_cli.py.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
SHORT = 2000
REPORT = "report.json"
SEED = 1


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(argv: list[str], files: dict[str, str], workdir: Path) -> dict:
    """The corpus entry of one call, run in workdir with files written
    there first."""
    from titslift.cli import main

    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    report = workdir / REPORT
    entry = {"argv": list(argv), "files": files, "code": code}
    outputs = [("stdout", out.getvalue()), ("stderr", err.getvalue()),
               ("json", report.read_text(encoding="utf-8")
                if report.exists() else None)]
    for name, text in outputs:
        entry[f"{name}_sha256"] = None if text is None else _sha(text)
        if text is not None and len(text) <= SHORT:
            entry[name] = text
    return entry


def _params(n: int) -> str:
    """A p/q section for rank n: (-1)^k (k+1)/(k+2), k = 1..n."""
    return "--params=" + ",".join(f"{(-1) ** k * (k + 1)}/{k + 2}"
                                  for k in range(1, n + 1))


def verify_calls() -> list[tuple[list[str], dict]]:
    calls = []
    for n in range(1, 13):
        for level in ("group", "adjoint", "all"):
            argv = ["verify", "--n", str(n), "--level", level]
            calls += [(argv, {}), (argv + [_params(n)], {})]
            if n <= 3:
                calls += [(argv + ["--json", REPORT], {}),
                          (argv + [_params(n), "--json", REPORT], {})]
    return calls


def workload_calls() -> list[tuple[list[str], dict]]:
    """Every call of each benchmark workload at SEED, input files inline
    under their own names."""
    sys.path.insert(0, str(ROOT / "bench"))
    import run

    calls = []
    for name, make in run.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            for call in make(random.Random(f"{name}:{SEED}"), Path(tmp)):
                argv, files = [], {}
                for arg in call.argv:
                    path = Path(arg)
                    if path.parent == Path(tmp):
                        files[path.name] = path.read_text(encoding="utf-8")
                        arg = path.name
                    argv.append(arg)
                calls.append((argv, files))
    return calls


def _matrix(entries) -> str:
    return json.dumps({"dim": len(entries), "entries": entries})


MATRIX = "m.json"
NORMALIZER_INPUTS = [
    _matrix([["0", "-1"], ["1", "0"]]),
    _matrix([["0", "0", "1/2"], ["-1", "0", "0"], ["0", "-2", "0"]]),
    _matrix([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    _matrix([["1", "1"], ["0", "1"]]),
    _matrix([["2", "0"], ["0", "1"]]),
    _matrix([["1/0", "0"], ["0", "1"]]),
    _matrix([[0.5, 0], [0, 2]]),
    _matrix([[True, 0], [0, 1]]),
    _matrix([]),
    json.dumps({"dim": True, "entries": [[1]]}),
    json.dumps({"entries": [[1]]}),
    "{not json",
]

OTHER_CALLS = [
    ["normalizer-check", "--matrix", "missing.json"],
    ["eval-word", "--n", "2", "--word", "1 -1 2 -2"],
    ["eval-word", "--n", "2", "--word", "1 2 1", "--params", "2/3,-5"],
    ["eval-word", "--n", "1", "--word", "1 1 1 1"],
    ["eval-word", "--n", "3", "--word", " 1 2 -3 1 ", "--params=2,-1/3,5"],
    ["eval-word", "--n", "2", "--word", ""],
    ["eval-word", "--n", "2", "--word", "5"],
    ["eval-word", "--n", "0", "--word", "1"],
    ["eval-word", "--n", "2", "--word", "+1 2"],
    ["eval-word", "--n", "2", "--word", "١ 2"],
    ["eval-word", "--n", "10", "--max-rank", "10", "--word", "1_0"],
    ["eval-word", "--n", "33", "--word", "1 33"],
    ["eval-word", "--n", "33", "--word", "1 33", "--max-rank", "33"],
    ["eval-word", "--n", "2", "--word", "1 2 1 2",
     "--params=" + "7" * 3000 + "," + "7" * 3000],
    ["eval-word", "--n", "2", "--word", "1", "--params", "1/0,2"],
    ["verify", "--n", "0"],
    ["verify", "--n", "3", "--max-rank", "2"],
    ["verify", "--n", "3", "--max-rank", "3", "--level", "group"],
    ["verify", "--n", "2", "--params", "1"],
    ["verify", "--n", "2", "--params", "1,0"],
    ["verify", "--n", "2", "--params", "1,x"],
    ["verify", "--n", "2", "--params", "1.5,2"],
    ["verify", "--n", "2", "--params", "1,,2"],
    ["verify", "--n", "2", "--params", "1,2,"],
    ["verify", "--n", "3", "--params", "1,,2"],
    ["verify", "--n", "2", "--params", "1/0,2"],
    ["verify", "--n", "2", "--params", "-2,3"],
    ["verify", "--n", "1", "--json", "no-such-dir/r.json"],
    ["verify", "--n", str(2 ** 62), "--max-rank", str(2 ** 62)],
    ["verify", "--n", str(10 ** 20), "--max-rank", str(10 ** 20)],
    ["eval-word", "--word", "1", "--n", str(2 ** 62),
     "--max-rank", str(2 ** 62)],
    # usage errors
    [], ["no-such-command"], ["--n", "2"],
    ["verify"], ["verify", "--level", "group"],
    ["eval-word", "--n", "2"], ["eval-word", "--word", "1"],
    ["normalizer-check"],
    ["verify", "--n", "2", "--bogus", "1"], ["verify", "--n", "2", "extra"],
    ["eval-word", "--n", "2", "--word", "1", "--json", "r.json"],
    ["normalizer-check", "--matrix", "m.json", "--n", "2"],
    ["verify", "--n"], ["verify", "--n", "2", "--params"],
    ["eval-word", "--n", "2", "--word"], ["normalizer-check", "--matrix"],
    ["verify", "--n", "two"], ["verify", "--n", "2.0"], ["verify", "--n="],
    ["verify", "--n", "2", "--max-rank", "x"],
    ["eval-word", "--n", "2", "--word", "1", "--max-rank=1.5"],
    ["verify", "--n", "2", "--level", "both"],
    ["verify", "--n", "2", "--level=Group"],
    ["verify", "--n", "2", "--n", "3"], ["verify", "--n=2", "--n=2"],
    ["eval-word", "--n", "2", "--word", "1", "--word", "2"],
    ["--help"], ["-h"], ["verify", "--help"], ["eval-word", "-h"],
    ["normalizer-check", "--matrix", "m.json", "--help"],
]


def corpus_calls() -> list[tuple[list[str], dict]]:
    return (verify_calls() + workload_calls()
            + [(["normalizer-check", "--matrix", MATRIX], {MATRIX: text})
               for text in NORMALIZER_INPUTS]
            + [(argv, {}) for argv in OTHER_CALLS])


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        calls = [record(argv, files, Path(tmp) / str(k))
                 for k, (argv, files) in enumerate(corpus_calls())]
    GOLDEN.write_text(json.dumps({"calls": calls}, indent=1,
                                 ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(calls)} calls to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
