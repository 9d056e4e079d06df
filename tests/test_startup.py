"""What a fresh process loads, and the lazy package namespace.

Every CLI call is a new interpreter, so the modules a subcommand imports
are paid for on every call.  These tests pin which modules each entry
point loads, without timing anything.  Each probe runs without ``site``
(``python -S``), so what a run adds is measured against a bare
interpreter and not against whatever the host's start-up hooks import.
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

# runs a statement, which may set code, and reports code and the modules
# the statement added
PROBE = """
import sys
before = set(sys.modules)
code = None
{statement}
sys.stderr.write("\\n" + repr((code, sorted(set(sys.modules) - before))))
"""


def _added(tmp_path, statement):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE.format(statement=statement)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = ast.literal_eval(proc.stderr.splitlines()[-1])
    return code, set(modules)


def _loaded(tmp_path, argv):
    """Run argv through cli.main, or only import the package when argv is
    None: the exit code and the modules the run added."""
    if argv is None:
        return _added(tmp_path, "import titslift")
    return _added(tmp_path,
                  f"from titslift.cli import main\ncode = main({argv!r})")


def _package(modules):
    return {m for m in modules if m.startswith("titslift")}


def test_import_loads_no_submodule(tmp_path):
    _, modules = _loaded(tmp_path, None)
    assert "titslift" in modules
    assert not {m for m in modules if m.startswith("titslift.")}
    assert "dataclasses" not in modules


# argparse and what it imports: cli reads its options from its own table
ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv,package", [
    (["eval-word", "--n", "3", "--word", "1 2 -3 1", "--params=2,-1/3,5"],
     {"titslift", "titslift.cli", "titslift.records", "titslift.relations",
      "titslift.sweep"}),
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
    assert _package(modules) == package
    assert not modules & (ARGPARSE | {"dataclasses"})


# what a verify call loads: the int sweep, and no module outside titslift
VERIFY = {"titslift", "titslift.cli", "titslift.sweep"}


def test_verify_loads_only_the_sweep(tmp_path):
    # every verdict is read at a = 1 on signed ints, so without --params
    # no record, no fractions, decimal or numbers, and no __future__,
    # typing or re is loaded
    for level in ("group", "adjoint", "all"):
        code, modules = _loaded(tmp_path, ["verify", "--n", "3", "--level",
                                           level])
        assert code == 0
        assert modules == VERIFY, level


def test_verify_with_params_adds_only_records_and_fractions(tmp_path):
    # --params is checked by records, which reads scalars with fractions
    _, fractions = _added(tmp_path, "import fractions")
    for level in ("group", "adjoint", "all"):
        code, modules = _loaded(tmp_path, ["verify", "--n", "3", "--level",
                                           level, "--params=2,-1/3,5"])
        assert code == 0
        assert _package(modules) == VERIFY | {"titslift.records"}, level
        assert modules - _package(modules) <= fractions, level


def _lines(modules):
    src = ROOT / "src"
    return sum(len((src / (m.replace(".", "/") + (
        "/__init__.py" if m == "titslift" else ".py"))).read_text()
        .splitlines()) for m in modules)


@pytest.mark.parametrize("argv,budget", [
    (["verify", "--n", "3", "--level", "all"], 333),
    (["eval-word", "--n", "3", "--word", "1 2 -3 1", "--params=2,-1/3,5"],
     553),
    (["normalizer-check", "--matrix", "m.json"], 460),
], ids=["verify", "eval-word", "normalizer-check"])
def test_subcommands_compile_at_most_their_line_budget(tmp_path, argv,
                                                       budget):
    # where no bytecode is cached, a call compiles every line of every
    # package module it loads; each budget is the count the call compiles
    # today, so that no line is added to a call unnoticed
    (tmp_path / "m.json").write_text(json.dumps(
        {"dim": 2, "entries": [["0", "-1"], ["1", "0"]]}))
    code, modules = _loaded(tmp_path, argv)
    assert code == 0
    assert _lines(_package(modules)) <= budget


def _top_level_imports(module):
    tree = ast.parse((ROOT / "src" / "titslift" / f"{module}.py").read_text())
    package = [(node.level, node.module) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level]
    plain = [node for node in tree.body if isinstance(node, ast.Import)]
    return package, plain


def test_relations_imports_only_records_and_sweep_at_module_level():
    # the record layer over the sweep, and UsageError from the package
    # itself, which every call has loaded: any other package import at the
    # top of relations would be compiled by every eval-word call
    assert _top_level_imports("relations") == (
        [(1, None), (1, "records"), (1, "sweep")], [])


def test_tits_imports_neither_sweep_nor_relations():
    # tits is the slow path the tests hold the fast one against: word
    # values as dense products of the written-out lifts, built on neither
    # the fold nor scales_at, at module level or anywhere else
    tree = ast.parse((ROOT / "src" / "titslift" / "tits.py").read_text())
    names = {node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)}
    names |= {a.name.removeprefix("titslift.") for node in ast.walk(tree)
              if isinstance(node, ast.Import) for a in node.names}
    assert {"linalg", "records", "rows"} <= names
    assert not names & {"sweep", "relations", "titslift.sweep",
                        "titslift.relations"}


def test_sweep_imports_nothing():
    # the leaf verify runs: not even the standard library, nor anything
    # inside a function
    tree = ast.parse((ROOT / "src" / "titslift" / "sweep.py").read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_no_module_imports_cli():
    # under python -m titslift.cli the running module is __main__, so a
    # package module importing titslift.cli would compile and run cli a
    # second time
    for path in sorted((ROOT / "src" / "titslift").glob("*.py")):
        if path.stem == "cli":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{a.name}" if node.module else a.name
                    for a in node.names]
                names = [n if node.level else n.removeprefix("titslift.")
                         for n in names]
            elif isinstance(node, ast.Import):
                names = [a.name.removeprefix("titslift.")
                         for a in node.names]
            else:
                continue
            assert "cli" not in names, (path.stem, ast.dump(node))


def test_library_code_has_no_assert():
    # python -O strips assert statements, and every invariant of the
    # package must still raise under it
    for path in sorted((ROOT / "src" / "titslift").glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert lines == [], (path.name, lines)


def test_rows_imports_only_records_at_module_level():
    # the whole check of a matrix file stays a small leaf of its own, out
    # of verify's and eval-word's module sets: of the package it imports
    # records and UsageError, which every call has loaded, and else json
    package, plain = _top_level_imports("rows")
    assert package == [(1, None), (1, "records")]
    assert [[a.name for a in node.names] for node in plain] == [["json"]]
    assert len((ROOT / "src" / "titslift" / "rows.py").read_text()
               .splitlines()) <= 105


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


# no function-level package import outside cli, whose subcommands each
# import the code they run (see the tests above)
LAZY_IMPORTS = set()


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


def test_submodules_resolve_as_attributes():
    for name in ("autos", "braid", "cli", "liealg", "linalg", "records",
                 "relations", "roots", "rows", "sweep", "tits"):
        assert getattr(titslift, name) is importlib.import_module(
            f"titslift.{name}")


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        titslift.no_such_name
    with pytest.raises(ImportError):
        exec("from titslift import no_such_name", {})
