"""Benchmark for the titslift command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is used from ``src``
without installing it.  Every call is a fresh ``python -m titslift.cli``
process, one at a time, as a user would run it.  The seed makes the
inputs; the CLI only ever sees the generated arguments and files.

A run repeats whole rounds of the workload's calls until S seconds have
passed, checks every output against oracle.py, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
top_call_s, peak_rss_mib); with --trace 1 each call runs under
traced_cli.py instead, and the metrics are the per-layer totals.  See
README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import oracle
import traced_cli

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
TRACED_CLI = BENCH / "traced_cli.py"
CALL_TIMEOUT_S = 60
SETUP_SAMPLES = 12
# About the median time of reference_work() between calls on the host in
# README.md; call times are reported in these units (see calibrate()).
REFERENCE_S = 0.008
CAL_SAMPLES = 5


@dataclass
class Call:
    kind: str        # verify, eval-word, normalizer-check(-non-monomial)
    argv: list[str]
    check: Callable[[int, str], list[str]]  # (exit code, stdout) -> problems
    top: bool = False  # the workload's heaviest call


def random_rational(rng: random.Random) -> Fraction:
    """p/q in lowest terms with 2 <= |p|, q <= 97, so neither is +-1."""
    while True:
        p, q = rng.randint(2, 97), rng.randint(2, 97)
        if math.gcd(p, q) == 1:
            return Fraction(rng.choice((-1, 1)) * p, q)


def params_arg(params: list[Fraction]) -> str:
    # the "=" form keeps a leading minus sign from reading as an option
    return "--params=" + ",".join(oracle.frac_str(a) for a in params)


def adjoint_sweep(rng: random.Random, tmp: Path) -> list[Call]:
    """verify --level adjoint for ranks 1..6; the seed changes nothing."""
    return [Call("verify", ["verify", "--level", "adjoint", "--n", str(k)],
                 partial(oracle.check_verify, n=k, level="adjoint"),
                 top=k == 6)
            for k in range(1, 7)]


GROUP_RANKS = range(2, 13)


def group_sweep(rng: random.Random, tmp: Path) -> list[Call]:
    """verify --level group at ranks 2..12, one random section each."""
    calls = []
    for k in GROUP_RANKS:
        params = [random_rational(rng) for _ in range(k)]
        if k == GROUP_RANKS[-1]:
            bad = oracle.failing_relations(params, oracle.relation_table(k))
            if bad:
                raise SystemExit(f"relations fail in the monomial "
                                 f"arithmetic at rank {k}: {bad[:3]}")
        argv = ["verify", "--level", "group", "--n", str(k),
                params_arg(params)]
        if k > 8:
            argv += ["--max-rank", str(k)]
        calls.append(Call("verify", argv,
                          partial(oracle.check_verify, n=k, level="group"),
                          top=k == GROUP_RANKS[-1]))
    return calls


# word length by rank; ranks stay within the default cap of 8
WORD_LENGTHS = {2: 200, 3: 300, 4: 450, 5: 600, 6: 800, 7: 1000, 8: 1200}


def word_eval(rng: random.Random, tmp: Path) -> list[Call]:
    """Long eval-word calls interleaved with normalizer-check calls."""
    calls = []
    for k, length in WORD_LENGTHS.items():
        params = [random_rational(rng) for _ in range(k)]
        word = [rng.choice((-1, 1)) * rng.randint(1, k) for _ in range(length)]
        calls.append(Call(
            "eval-word",
            ["eval-word", "--n", str(k), params_arg(params),
             "--word=" + " ".join(str(v) for v in word)],
            partial(oracle.check_eval_word, params=params, word=word),
            top=length == max(WORD_LENGTHS.values())))
        for monomial in (True, False):
            calls.append(normalizer_call(rng, tmp, k + 1, monomial,
                                         len(calls)))
    calls.append(normalizer_call(rng, tmp, 2, True, len(calls)))
    calls.append(normalizer_call(rng, tmp, 2, False, len(calls)))
    return calls


def normalizer_call(rng: random.Random, tmp: Path, dim: int, monomial: bool,
                    index: int) -> Call:
    """A determinant-one matrix: monomial, or monomial times elementary.

    M = sum_j s_j E_{perm(j), j} with sign(perm) * prod(s) = 1.  For the
    non-monomial case M * (1 + c E_{kl}) adds c times column k of M to
    column l, so column l gets a second nonzero and the determinant
    stays one.
    """
    perm = list(range(1, dim + 1))
    rng.shuffle(perm)
    scales = [random_rational(rng) for _ in range(dim - 1)]
    last = Fraction(oracle.sign(perm))
    for x in scales:
        last /= x
    scales.append(last)
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for col, (row, x) in enumerate(zip(perm, scales)):
        rows[row - 1][col] = x
    if not monomial:
        k, l = rng.sample(range(dim), 2)
        c = random_rational(rng)
        for r in range(dim):
            rows[r][l] += c * rows[r][k]
    path = tmp / f"matrix{index}.json"
    path.write_text(json.dumps({
        "dim": dim,
        "entries": [[oracle.frac_str(x) for x in row] for row in rows]}))
    if monomial:
        return Call("normalizer-check",
                    ["normalizer-check", "--matrix", str(path)],
                    partial(oracle.check_normalizer, perm=perm,
                            scales=scales))
    return Call("normalizer-check-non-monomial",
                ["normalizer-check", "--matrix", str(path)],
                partial(oracle.check_normalizer, perm=None, scales=None))


WORKLOADS = {"adjoint_sweep": adjoint_sweep, "group_sweep": group_sweep,
             "word_eval": word_eval}

# per-layer metric -> (span or cache name, field of its summary)
LAYER_METRICS = {
    "linalg.matmul_calls": ("linalg.matmul", "calls"),
    "linalg.matmul_s": ("linalg.matmul", "s"),
    "linalg.matmul_mults": ("linalg.matmul", "work"),
    "linalg.det_calls": ("linalg.det", "calls"),
    "linalg.det_s": ("linalg.det", "s"),
    "linalg.inv_calls": ("linalg.inv", "calls"),
    "linalg.inv_s": ("linalg.inv", "s"),
    "linalg.exp_nilpotent_s": ("linalg.exp_nilpotent", "s"),
    "liealg.ad_matrix_calls": ("liealg.ad_matrix", "calls"),
    "liealg.ad_matrix_s": ("liealg.ad_matrix", "s"),
    "autos.tau_generator_calls": ("autos.tau_generator", "calls"),
    "autos.tau_generator_s": ("autos.tau_generator", "s"),
    "autos.verify_theorem1_s": ("autos.verify_theorem1", "s"),
    "autos.verify_theorem1_self_s": ("autos.verify_theorem1", "self_s"),
    "linalg.matrix_eq_s": ("linalg.matrix_eq", "s"),
    "autos.tau_power_cache_hits": ("autos.tau_power", "hits"),
    "autos.tau_power_cache_misses": ("autos.tau_power", "misses"),
    "tits.sigma_generator_cache_hits": ("tits.sigma_generator", "hits"),
    "tits.sigma_generator_cache_misses": ("tits.sigma_generator", "misses"),
    "autos.verify_group_relations_s": ("autos.verify_group_relations", "s"),
    "tits.evaluate_word_calls": ("tits.evaluate_word", "calls"),
    "tits.evaluate_word_s": ("tits.evaluate_word", "s"),
    "tits.letters": ("tits.evaluate_word", "work"),
    "tits.normalizer_decompose_s": ("tits.normalizer_decompose", "s"),
    "roots.permutation_ops": ("roots.permutation", "calls"),
    "roots.permutation_s": ("roots.permutation", "s"),
    "braid.relation_instances_s": ("braid.relation_instances", "s"),
    "braid.natural_projection_s": ("braid.natural_projection", "s"),
    "linalg.matrix_json_s": ("linalg.matrix_json", "s"),
    "cli.main_s": ("cli.main", "s"),
}


def reference_work() -> None:
    """A fixed piece of Fraction arithmetic, the kind the CLI spends its
    time on: 8 products of 6x6 rational matrices, entries kept small."""
    a = [[Fraction(3 * r + c + 2, 2 * c + r + 5) for c in range(6)]
         for r in range(6)]
    m = a
    for _ in range(8):
        m = [[sum((m[r][k] * a[k][c] for k in range(6)), Fraction(0))
              for c in range(6)] for r in range(6)]
        m = [[Fraction(x.numerator % 997 + 1, x.denominator % 991 + 1)
              for x in row] for row in m]


def calibrate() -> float:
    """Wall time of reference_work() in this process, right now: the
    median of CAL_SAMPLES timings, so that one interrupted timing does
    not count.

    The host runs the same code at speeds up to 1.7x apart, in phases of
    seconds to minutes (README.md).  Each call's wall time is divided by
    the mean of the calibrations taken just before and just after it, and
    multiplied by REFERENCE_S.  The quotient moves with the program, not
    with the phase the host happens to be in.
    """
    times = []
    for _ in range(CAL_SAMPLES):
        t0 = perf_counter()
        reference_work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


def time_import(env: dict) -> float:
    """Wall time of a fresh interpreter importing titslift."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import titslift"], cwd=ROOT,
                   env=env, check=True, timeout=CALL_TIMEOUT_S)
    return perf_counter() - t0


def run_call(call: Call, env: dict, spans_path: Path | None):
    """(wall seconds, exit code, stdout) of one fresh CLI process."""
    if spans_path is None:
        cmd = [sys.executable, "-m", "titslift.cli", *call.argv]
    else:
        cmd = [sys.executable, str(TRACED_CLI), str(spans_path), *call.argv]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{call.kind}: killed after {CALL_TIMEOUT_S} s", file=sys.stderr)
        return perf_counter() - t0, None, ""
    wall = perf_counter() - t0
    if proc.stderr.strip():
        print(f"{call.kind}: {proc.stderr.strip()[-400:]}", file=sys.stderr)
    return wall, proc.returncode, proc.stdout


def add_summary(total: dict, summary: dict) -> None:
    for name, fields in summary.items():
        agg = total.setdefault(name, dict.fromkeys(fields, 0))
        for field, value in fields.items():
            agg[field] += value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "titslift" / "cli.py").is_file():
        print(f"error: no titslift package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so that subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        return measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, tmp: Path) -> int:
    rng = random.Random(f"{args.workload}:{args.seed}")
    calls = WORKLOADS[args.workload](rng, tmp)
    traced = bool(args.trace)
    env = child_env()
    time_import(env)  # the first import writes the bytecode cache

    setup: list[float] = []
    walls: list[list[float]] = []   # per round, per call
    cals: list[list[float]] = []    # per round, before each call and at end
    scaled: list[list[float]] = []  # the same, in REFERENCE_S units
    layers: list[dict] = []         # per round, per span name
    samples: list[tuple] = []       # first-round outputs for the self-test
    failed = 0
    start = perf_counter()
    # start another round only if it should end less than half a round late
    while not walls or \
            (perf_counter() - start) * (1 + 0.5 / len(walls)) < args.seconds:
        round_walls, round_cals, round_layers = [], [], {}
        for k, call in enumerate(calls):
            # import timings are spread over the run, not taken in one burst
            due = len(setup) * args.seconds / SETUP_SAMPLES
            if perf_counter() - start >= due:
                setup.append(time_import(env))
            round_cals.append(calibrate())
            spans_path = tmp / f"spans{k}.json" if traced else None
            dt, code, stdout = run_call(call, env, spans_path)
            round_walls.append(dt)
            problems = call.check(code, stdout)
            if problems:
                failed += 1
                print(f"FAILED {call.kind} {' '.join(call.argv)[:120]}: "
                      f"{'; '.join(problems)}", file=sys.stderr)
            elif not walls:
                samples.append((call.kind, call.check, code, stdout))
            if traced and spans_path.exists():
                add_summary(round_layers, traced_cli.summarize(spans_path))
                spans_path.unlink()
        round_cals.append(calibrate())
        walls.append(round_walls)
        cals.append(round_cals)
        scaled.append([REFERENCE_S * w / ((before + after) / 2) for w, before,
                       after in zip(round_walls, round_cals, round_cals[1:])])
        layers.append(round_layers)

    escaped = oracle.self_test([random_rational(rng) for _ in range(4)],
                               samples)
    for line in escaped:
        print(f"SELF-TEST: {line}", file=sys.stderr)

    # each call at its median over the rounds, in REFERENCE_S units
    wall_s = sum(statistics.median(column) for column in zip(*scaled))
    top = next(k for k, c in enumerate(calls) if c.top)
    top_call_s = statistics.median(r[top] for r in scaled)
    raw_wall_s = sum(statistics.median(column) for column in zip(*walls))
    raw_top_s = statistics.median(r[top] for r in walls)
    print(f"{args.workload}: {len(walls)} rounds of {len(calls)} calls, "
          f"round walls {[round(sum(r), 3) for r in walls]} s; median wall "
          f"{raw_wall_s:.3f} s unscaled, {wall_s:.3f} s scaled; top call "
          f"{raw_top_s:.3f} s unscaled, {top_call_s:.3f} s scaled",
          file=sys.stderr)
    if traced:
        metrics = {}
        for metric, (name, field) in LAYER_METRICS.items():
            value = statistics.median(r.get(name, {}).get(field, 0)
                                      for r in layers)
            unit = "s" if metric.endswith("_s") else "count"
            metrics[metric] = {"value": value, "unit": unit}
        trace = {"workload": args.workload, "seed": args.seed,
                 "wall_s": wall_s, "top_call_s": top_call_s,
                 "unscaled_wall_s": raw_wall_s,
                 "unscaled_top_call_s": raw_top_s, "rounds": layers}
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(trace, indent=1) + "\n")
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "setup_s": {"value": min(setup), "unit": "s"},  # README.md
            "wall_s": {"value": wall_s, "unit": "s"},
            "top_call_s": {"value": top_call_s, "unit": "s"},
            "peak_rss_mib": {"value": peak_kib / 1024, "unit": "MiB"},
        }
    result = {"correct": failed == 0 and not escaped,
              "attempted": len(calls) * len(walls), "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(dict(result, unscaled_wall_s=raw_wall_s,
                                  unscaled_top_call_s=raw_top_s,
                                  round_walls=walls, round_cals=cals),
                             indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
