"""What a fresh process loads, and the lazy package namespace.

Every CLI call is a new interpreter, so the modules a subcommand imports
are paid for on every call.  These tests pin which modules each entry
point loads, without timing anything.
"""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import titslift

ROOT = pathlib.Path(__file__).resolve().parents[1]

# runs argv through cli.main (or only imports the package when argv is
# None) and reports the exit code and the modules the run added
PROBE = """
import sys
argv = {argv!r}
before = set(sys.modules)
if argv is None:
    import titslift
    code = None
else:
    from titslift.cli import main
    code = main(argv)
sys.stderr.write("\\n" + repr((code, sorted(set(sys.modules) - before))))
"""


def _loaded(tmp_path, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", PROBE.format(argv=argv)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = ast.literal_eval(proc.stderr.splitlines()[-1])
    return code, set(modules)


def test_import_loads_no_submodule(tmp_path):
    _, modules = _loaded(tmp_path, None)
    assert "titslift" in modules
    assert not {m for m in modules if m.startswith("titslift.")}
    assert "dataclasses" not in modules


# argparse and what it imports: cli reads its options from its own table
ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv,package", [
    (["eval-word", "--n", "3", "--word", "1 2 -3 1", "--params=2,-1/3,5"],
     {"titslift", "titslift.cli", "titslift.records", "titslift.relations"}),
    (["normalizer-check", "--matrix", "m.json"],
     {"titslift", "titslift.cli", "titslift.records", "titslift.rows"}),
], ids=["eval-word", "normalizer-check"])
def test_light_subcommands_skip_the_algebra_layer(tmp_path, argv, package):
    # both run on plain data: eval-word folds letters into ints as verify
    # does, and normalizer-check scans plain rows, so neither compiles a
    # braid word, a section lift, a dense matrix or a root
    (tmp_path / "m.json").write_text(json.dumps(
        {"dim": 2, "entries": [["0", "-1"], ["1", "0"]]}))
    code, modules = _loaded(tmp_path, argv)
    assert code == 0
    assert {m for m in modules if m.startswith("titslift")} == package
    assert not modules & (ARGPARSE | {"dataclasses"})


def test_verify_loads_the_algebra_layer(tmp_path):
    # both levels read their verdicts off ints in relations: no braid
    # word, no section lift, no root and no operator code is compiled
    for level in ("group", "adjoint", "all"):
        code, modules = _loaded(tmp_path, ["verify", "--n", "3", "--level",
                                           level, "--params=2,-1/3,5"])
        assert code == 0
        assert {m for m in modules if m.startswith("titslift")} == {
            "titslift", "titslift.cli", "titslift.records",
            "titslift.relations"}, level
        assert not modules & (ARGPARSE | {"json", "dataclasses"})


def _top_level_imports(module):
    tree = ast.parse((ROOT / "src" / "titslift" / f"{module}.py").read_text())
    package = [(node.level, node.module) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level]
    plain = [node for node in tree.body if isinstance(node, ast.Import)]
    return package, plain


def test_relations_imports_only_records_at_module_level():
    # the int path stays a leaf: any other package import at the top of
    # relations would be compiled by every verify and eval-word call
    assert _top_level_imports("relations") == ([(1, "records")], [])


def test_rows_imports_only_records_at_module_level():
    # normalizer-check's plain rows stay a small leaf of their own, out of
    # verify's and eval-word's module sets
    assert _top_level_imports("rows") == ([(1, "records")], [])
    assert len((ROOT / "src" / "titslift" / "rows.py").read_text()
               .splitlines()) <= 80


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "3"],
    ["verify", "--n", "2", "--level", "group", "--params=2,-1/3",
     "--json", "r.json"],
], ids=["stdout", "json-file"])
def test_verify_writes_its_report_without_json(tmp_path, argv):
    # the report text is written directly; json's indented encoder is
    # pure Python and would be paid for on every call
    code, modules = _loaded(tmp_path, argv)
    assert code == 0
    assert "json" not in modules


def test_public_names_resolve_to_their_home_modules():
    assert titslift.__all__ == sorted(titslift.__all__)
    for name in titslift.__all__:
        home = f"titslift.{titslift._HOME[name]}"
        obj = getattr(titslift, name)
        assert obj is getattr(importlib.import_module(home), name)
        # the table names the module that defines the object
        assert getattr(obj, "__module__", home) == home, name


# the only function-level package import outside cli: it keeps tits out
# of verify's module set (see the tests above)
LAZY_IMPORTS = {
    ("relations", "verify", "tits"),  # verify compiles no tits
}


def test_package_imports_sit_at_module_level():
    lazy, getattrs = set(), []
    for path in sorted((ROOT / "src" / "titslift").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem != "__init__":
            getattrs += [(path.stem, node.name) for node in tree.body
                         if isinstance(node, ast.FunctionDef)
                         and node.name == "__getattr__"]
        if path.stem == "cli":  # imports per subcommand
            continue
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                lazy |= {(path.stem, func.name, node.module)
                         for node in ast.walk(func)
                         if isinstance(node, ast.ImportFrom) and node.level}
    assert lazy == LAZY_IMPORTS
    assert getattrs == []


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from titslift import *", namespace)
    assert set(titslift.__all__) <= set(namespace)
    assert set(titslift.__all__) <= set(dir(titslift))


def test_submodules_resolve_as_attributes():
    for name in ("autos", "braid", "cli", "liealg", "linalg", "records",
                 "relations", "roots", "rows", "tits"):
        assert getattr(titslift, name) is importlib.import_module(
            f"titslift.{name}")


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        titslift.no_such_name
    with pytest.raises(ImportError):
        exec("from titslift import no_such_name", {})
