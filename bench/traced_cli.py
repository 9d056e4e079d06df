"""One titslift CLI call with spans around the package's public functions.

    python traced_cli.py SPANS.json <titslift cli arguments>

Runs ``titslift.cli.main`` in this fresh process, exactly as
``python -m titslift.cli`` would, after wrapping the functions and
methods listed in SPANS below.  Every wrapped call records a span
(name, parent span, start, end, work) in memory; the spans and the
package's cache statistics are written to SPANS.json when the call ends.
The package itself is not modified.

summarize() turns one such file into per-layer totals and self times.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (span name, module, owner attribute or None, attribute, work per call).
# Work is the unit the layer's count is made of; None counts calls only.
SPANS = [
    ("linalg.matmul", "linalg", "Matrix", "__mul__", lambda a, b: a.dim ** 3),
    ("linalg.det", "linalg", "Matrix", "det", None),
    ("linalg.inv", "linalg", "Matrix", "inv", None),
    ("linalg.matrix_eq", "linalg", "Matrix", "__eq__", None),
    ("linalg.exp_nilpotent", "linalg", None, "exp_nilpotent", None),
    ("linalg.matrix_json", "linalg", None, "matrix_from_json", None),
    ("linalg.matrix_json", "linalg", None, "matrix_to_json", None),
    ("liealg.ad_matrix", "liealg", None, "ad_matrix", None),
    ("autos.tau_generator", "autos", None, "tau_generator", None),
    ("autos.verify_theorem1", "autos", None, "verify_theorem1", None),
    ("autos.verify_group_relations", "autos", None,
     "verify_group_relations", None),
    ("tits.evaluate_word", "tits", None, "evaluate_word",
     lambda s, w: len(w.letters)),
    ("tits.normalizer_decompose", "tits", None, "normalizer_decompose", None),
    ("roots.permutation", "roots", "Permutation", "__mul__", None),
    ("roots.permutation", "roots", "Permutation", "inverse", None),
    ("roots.permutation", "roots", "Permutation", "sign", None),
    ("roots.permutation", "roots", "Permutation", "is_identity", None),
    ("roots.permutation", "roots", "Permutation", "identity", None),
    ("roots.permutation", "roots", "Permutation", "transposition", None),
    ("braid.relation_instances", "braid", None, "relation_instances", None),
    ("braid.natural_projection", "braid", None, "natural_projection", None),
]

# lru_cache-wrapped functions whose cache_info() is read at exit
CACHES = [("autos.tau_power", "autos", "_tau_power"),
          ("tits.sigma_generator", "tits", "sigma_generator")]


class Recorder:
    """Spans of one process, kept in memory until the call ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, work]
        self.stack: list[int] = []

    def wrap(self, name, fn, work):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   work(*args) if work else 1]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
        return traced


def install(recorder: Recorder, package) -> None:
    """Wrap every SPANS entry, wherever the package holds a reference."""
    modules = [getattr(package, m) for m in
               ("linalg", "liealg", "roots", "braid", "tits", "autos", "cli")]
    for name, mod, owner, attr, work in SPANS:
        module = getattr(package, mod)
        if owner is not None:
            cls = getattr(module, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(
                    recorder.wrap(name, raw.__func__, work)))
            else:
                setattr(cls, attr, recorder.wrap(name, raw, work))
            continue
        original = getattr(module, attr)
        traced = recorder.wrap(name, original, work)
        # modules that did "from .x import f" hold their own reference
        for m in modules + [package]:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)


def summarize(path) -> dict:
    """Per span name: calls, work, total seconds and self seconds.

    A span nested in another span of the same name is not added to the
    total a second time.  Self time is a span's duration minus the
    durations of its direct children.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    spans = data["spans"]
    child_time = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, dict] = {}
    for k, (name, parent, t0, t1, work) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "work": 0, "s": 0.0,
                                    "self_s": 0.0})
        agg["calls"] += 1
        agg["work"] += work
        agg["self_s"] += (t1 - t0) - child_time[k]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            agg["s"] += t1 - t0
    for name, (hits, misses) in data["caches"].items():
        out[name] = {"hits": hits, "misses": misses}
    return out


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import titslift
    from titslift import cli

    recorder = Recorder()
    install(recorder, titslift)
    run = recorder.wrap("cli.main", cli.main, None)
    try:
        return run(cli_args)
    finally:
        caches = {}
        for name, mod, attr in CACHES:
            info = getattr(getattr(titslift, mod), attr).cache_info()
            caches[name] = [info.hits, info.misses]
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "caches": caches}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
