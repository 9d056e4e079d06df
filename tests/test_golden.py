"""The CLI against its golden corpus, tests/golden.json.

tools/golden.py wrote the corpus; each entry is replayed here through
``cli.main`` with the same record function, so stdout, stderr, the exit
code and the --json report file must match byte for byte.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "golden", ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_output_matches_the_golden_corpus(tmp_path):
    golden = _load_tool()
    calls = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))["calls"]
    for k, expected in enumerate(calls):
        got = golden.record(expected["argv"], expected["files"],
                            tmp_path / str(k))
        assert got == expected, expected["argv"]
