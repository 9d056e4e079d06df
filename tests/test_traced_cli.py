"""The benchmark's span tracer still runs against the package.

bench/traced_cli.py wraps package functions by name; a rename in the
package would otherwise only show when the benchmark runs with tracing.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACED_CLI = ROOT / "bench" / "traced_cli.py"


def _load_traced_cli():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MATRICES = {"monomial": [["0", "-1"], ["1", "0"]],
            "unipotent": [["1", "1"], ["0", "1"]]}


@pytest.mark.parametrize("argv,code", [
    (["verify", "--n", "2"], 0),
    (["eval-word", "--n", "3", "--word", "1 2 -3 1"], 0),
    (["normalizer-check", "--matrix", "monomial.json"], 0),
    (["normalizer-check", "--matrix", "unipotent.json"], 1),
], ids=["verify", "eval-word", "normalizer-check", "not-in-normalizer"])
def test_traced_cli_runs_and_summarizes(tmp_path, argv, code):
    for name, entries in MATRICES.items():
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"dim": 2, "entries": entries}))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(TRACED_CLI), "spans.json"] + argv, cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    summary = _load_traced_cli().summarize(tmp_path / "spans.json")
    assert summary["cli.main"]["calls"] == 1
    for cache in ("autos.tau_power", "tits.sigma_generator"):
        assert set(summary[cache]) == {"hits", "misses"}
