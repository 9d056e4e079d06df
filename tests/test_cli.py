"""Command-line behavior: exit codes, JSON payloads, file handling."""

import importlib
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import titslift.autos as autos
import titslift.sweep as sweep
from titslift.braid import BraidWord
from titslift.cli import main
from titslift.linalg import Matrix, matrix_from_json, matrix_to_json
from titslift.records import TitsSection, parse_scalar, scalar_to_str
from titslift.rows import NotInNormalizer
from titslift.sweep import relation_words
from titslift.tits import GroupElement, evaluate_word, normalizer_decompose

from conftest import flip_last_exponent, mutant_id, square_is_trivial


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_rank_two_all_levels(capsys):
    code, out, _ = run(capsys, ["verify", "--n", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 2
    assert payload["all_pass"] is True
    tags = {r["tag"] for r in payload["relations"]}
    assert tags == {"0.2", "0.4", "0.5", "0.6",
                    "2.9", "2.10", "2.11", "2.12"}
    keys = [(r["tag"], r["i"], r["j"]) for r in payload["relations"]]
    assert keys == sorted(keys)


def test_verify_rank_one_adjoint(capsys):
    code, out, _ = run(capsys, ["verify", "--n", "1", "--level", "adjoint"])
    assert code == 0
    payload = json.loads(out)
    assert [r["tag"] for r in payload["relations"]] == ["0.5"]


def test_verify_group_level_with_params(capsys):
    code, out, _ = run(capsys, ["verify", "--n", "2", "--level", "group",
                                "--params", "2/3,-5"])
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_verify_rejects_bad_rank(capsys):
    code, _, err = run(capsys, ["verify", "--n", "0"])
    assert code == 2
    assert "rank" in err


def test_verify_respects_rank_cap(capsys):
    code, _, err = run(capsys, ["verify", "--n", "3", "--max-rank", "2"])
    assert code == 2
    assert "cap" in err
    code, out, _ = run(capsys, ["verify", "--n", "3", "--max-rank", "3",
                                "--level", "group"])
    assert code == 0


def test_verify_rejects_bad_params(capsys):
    code, _, err = run(capsys, ["verify", "--n", "2", "--params", "1"])
    assert code == 2
    code, _, err = run(capsys, ["verify", "--n", "2", "--params", "1,0"])
    assert code == 2
    code, _, err = run(capsys, ["verify", "--n", "2", "--params", "1,x"])
    assert code == 2


def test_verify_rejects_decimal_params(capsys):
    code, out, err = run(capsys, ["verify", "--n", "2", "--level", "group",
                                  "--params", "1.5,2"])
    _assert_input_error(code, err)
    assert "'1.5'" in err
    assert out == ""


def test_verify_rejects_empty_params_fields(capsys):
    # an empty field is a field: it is neither skipped nor counted away
    for text in ("1,,2", "1,2,"):
        code, out, err = run(capsys, ["verify", "--n", "2", "--level",
                                      "group", "--params", text])
        _assert_input_error(code, err)
        assert err.startswith("error: bad --params: ")
        assert out == ""
    code, _, err = run(capsys, ["verify", "--n", "3", "--level", "group",
                                "--params", "1,,2"])
    _assert_input_error(code, err)
    assert "got ''" in err


def test_params_zero_denominator_is_named(capsys):
    for cmd in (["verify", "--n", "2"],
                ["eval-word", "--n", "2", "--word", "1"]):
        code, out, err = run(capsys, cmd + ["--params", "1/0,2"])
        _assert_input_error(code, err)
        assert "zero denominator in '1/0'" in err
        assert out == ""


def test_verify_writes_report_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["verify", "--n", "1", "--json", str(path)])
    assert code == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["all_pass"] is True


@pytest.mark.parametrize("mutate", [None, square_is_trivial,
                                    flip_last_exponent], ids=mutant_id)
@pytest.mark.parametrize("level", ["adjoint", "group", "all"])
def test_verify_report_text_is_the_indented_json(tmp_path, capsys,
                                                 monkeypatch, level, mutate):
    # verify writes its report without json; the text must stay what
    # json.dumps(..., indent=2) gives for the report built here from the
    # verdict rows of both levels, sorted by (tag, i, j), failures included
    params = ["2/3", "-5", "7", "1/4"]
    for n in (1, 2, 3, 4):
        if mutate is not None:
            rows = list(map(mutate, relation_words(n)))
            monkeypatch.setattr(sweep, "relation_words", lambda k: rows)
        checks = []
        if level != "group":
            checks += autos.verify_theorem1(n)
        if level != "adjoint":
            checks += autos.verify_group_relations(
                TitsSection(n, tuple(Fraction(a) for a in params[:n])))
        checks.sort(key=lambda r: r[:3])
        all_pass = all(r[3] for r in checks)
        expected = json.dumps({
            "n": n,
            "relations": [{"tag": tag, "i": i, "j": j, "pass": passed}
                          for tag, i, j, passed, *_ in checks],
            "all_pass": all_pass,
        }, indent=2)
        assert all_pass or mutate is not None
        assert not all_pass or mutate is None or n < 2
        argv = ["verify", "--n", str(n), "--level", level,
                "--params=" + ",".join(params[:n])]
        code, out, _ = run(capsys, argv)
        assert (code, out) == (0 if all_pass else 1, expected + "\n")
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, argv + ["--json", str(path)])
        assert (code, out) == (0 if all_pass else 1, "")
        assert path.read_text() == expected + "\n"
        monkeypatch.undo()


def test_eval_word_pure_cancellation(capsys):
    code, out, _ = run(capsys, ["eval-word", "--n", "2", "--word", "1 -1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pure"] is True
    assert payload["permutation"] == [1, 2, 3]
    assert payload["projection"] == [1, 2, 3]
    entries = payload["matrix"]["entries"]
    assert entries == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_eval_word_braid_agreement(capsys):
    _, out1, _ = run(capsys, ["eval-word", "--n", "2", "--word", "1 2 1"])
    _, out2, _ = run(capsys, ["eval-word", "--n", "2", "--word", "2 1 2"])
    assert json.loads(out1)["matrix"] == json.loads(out2)["matrix"]


def test_eval_word_fourth_power(capsys):
    code, out, _ = run(capsys, ["eval-word", "--n", "1",
                                "--word", "1 1 1 1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pure"] is True
    assert payload["matrix"]["entries"] == [["1", "0"], ["0", "1"]]


def test_eval_word_projection_matches_decomposition(capsys):
    code, out, _ = run(capsys, ["eval-word", "--n", "3",
                                "--word", "1 3 2", "--params", "2,1/2,-3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["permutation"] == payload["projection"]
    assert payload["pure"] is False


def test_eval_word_rejects_bad_word(capsys):
    code, _, err = run(capsys, ["eval-word", "--n", "2", "--word", "5"])
    assert code == 2
    code, _, err = run(capsys, ["eval-word", "--n", "0", "--word", "1"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["eval-word", "--n", "2", "--word", "+1 2"],
    ["eval-word", "--n", "2", "--word", "\u0661 2"],
    ["eval-word", "--n", "10", "--max-rank", "10", "--word", "1_0"],
], ids=["plus-sign", "arabic-indic-digit", "underscore"])
def test_eval_word_reads_only_ascii_integer_tokens(capsys, argv):
    # int() reads all three, as S_1 S_2 and as S_10; a word token is
    # -?[0-9]+ in ASCII, like the "p" of a scalar
    code, out, err = run(capsys, argv)
    _assert_input_error(code, err)
    assert err == f"error: cannot parse word {argv[-1]!r}\n"
    assert out == ""


@pytest.mark.parametrize("option,value", [
    ("--n", "\u0663"), ("--n", "1_0"), ("--n", "+2"), ("--n", " 2 "),
    ("--max-rank", "\u0661\u0662"), ("--max-rank", "+12"),
], ids=["arabic-indic-digit", "underscore", "plus-sign", "spaces",
        "max-rank-arabic-indic", "max-rank-plus-sign"])
def test_integer_options_read_only_ascii_integers(capsys, option, value):
    # int() reads all of these; --n and --max-rank take -?[0-9]+ in
    # ASCII, as word tokens do
    argv = ["verify", "--n", "3", "--level", "group", "--max-rank", "12"]
    argv[argv.index(option) + 1] = value
    code, out, err = run(capsys, argv)
    _assert_input_error(code, err)
    assert err == f"error: invalid {option} value {value!r}\n"
    assert out == ""


@pytest.mark.parametrize("argv,module,name", [
    (["verify", "--n", "2"], "titslift.sweep", "verdict_rows"),
    (["eval-word", "--n", "2", "--word", "1 2"], "titslift.relations",
     "letters_fold"),
    (["normalizer-check", "--matrix", "m.json"], "titslift.rows",
     "monomial_columns"),
], ids=["verify", "eval-word", "normalizer-check"])
def test_a_fault_is_not_reported_as_an_input_error(tmp_path, monkeypatch,
                                                   argv, module, name):
    # only UsageError is input the CLI refuses; a ValueError from inside a
    # subcommand's own code is a fault and keeps its traceback
    def broken(*args):
        raise ValueError("fault")

    monkeypatch.setattr(importlib.import_module(module), name, broken)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.json").write_text(json.dumps(
        {"dim": 2, "entries": [["0", "-1"], ["1", "0"]]}))
    with pytest.raises(ValueError, match="fault"):
        main(argv)


def test_normalizer_check_accepts_monomial(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json(
        Matrix([[0, -1], [1, 0]]))))
    code, out, _ = run(capsys, ["normalizer-check", "--matrix", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["in_normalizer"] is True
    assert payload["permutation"] == [2, 1]
    assert payload["scales"] == ["1", "-1"]
    assert payload["coset"] == [2, 1]


def test_normalizer_check_decomposes_once(tmp_path, capsys, monkeypatch):
    import titslift.rows
    calls = []
    original = titslift.rows.monomial_columns

    def counted(rows):
        calls.append(rows)
        return original(rows)

    # the subcommand reads the column scan from its module at call time
    monkeypatch.setattr(titslift.rows, "monomial_columns", counted)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": 3, "entries": [["0", "0", "1/2"],
                                                      ["-1", "0", "0"],
                                                      ["0", "-2", "0"]]}))
    code, out, _ = run(capsys, ["normalizer-check", "--matrix", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["coset"] == payload["permutation"] == [2, 3, 1]
    assert len(calls) == 1


def test_normalizer_check_identity(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(json.dumps(matrix_to_json(Matrix.identity(3))))
    code, out, _ = run(capsys, ["normalizer-check", "--matrix", str(path)])
    assert code == 0
    assert json.loads(out)["permutation"] == [1, 2, 3]


def test_normalizer_check_rejects_non_monomial(tmp_path, capsys):
    path = tmp_path / "u.json"
    path.write_text(json.dumps(matrix_to_json(Matrix([[1, 1], [0, 1]]))))
    code, out, _ = run(capsys, ["normalizer-check", "--matrix", str(path)])
    assert code == 1
    assert json.loads(out)["in_normalizer"] is False


def test_normalizer_check_input_errors(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["normalizer-check", "--matrix", str(path)])
    assert code == 2

    path2 = tmp_path / "det2.json"
    path2.write_text(json.dumps(matrix_to_json(Matrix([[2, 0], [0, 1]]))))
    code, _, err = run(capsys, ["normalizer-check", "--matrix", str(path2)])
    assert code == 2
    assert "determinant" in err

    code, _, _ = run(capsys, ["normalizer-check", "--matrix",
                              str(tmp_path / "missing.json")])
    assert code == 2


@pytest.mark.parametrize("argv", [
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
], ids=lambda argv: " ".join(argv) or "no-subcommand")
def test_usage_errors_take_one_line(capsys, argv):
    # one "error: " line on stderr, exit 2, nothing on stdout
    code, out, err = run(capsys, argv)
    _assert_input_error(code, err)
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["verify", "--help"], ["eval-word", "-h"],
    ["normalizer-check", "--matrix", "m.json", "--help"],
])
def test_help_prints_the_usage_and_exits_zero(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: titslift verify --n N")
    for command in ("verify", "eval-word", "normalizer-check"):
        assert f"titslift {command} " in out


def test_params_may_start_with_a_minus(capsys):
    # a known option takes the next argument as its value, whatever it
    # starts with, so "--params -2,3" is "--params=-2,3"
    for command in (["verify", "--level", "group"],
                    ["eval-word", "--word", "1 -2 1"]):
        spaced = run(capsys, command + ["--n", "2", "--params", "-2,3"])
        attached = run(capsys, command + ["--n", "2", "--params=-2,3"])
        assert spaced == attached
        assert spaced[0] == 0 and spaced[2] == ""
    code, out, _ = run(capsys, ["eval-word", "--n", "1", "--word", "-1",
                                "--params", "-2/3"])
    assert code == 0
    # S_1^-1 at a_1 = -2/3 is ((0, -a_1), (1/a_1, 0))
    assert json.loads(out)["scales"] == ["-3/2", "2/3"]


def _eval_word_by_dense_product(n, text, params):
    """eval-word's stdout, built from the dense product of the written-out
    lifts: column j's one nonzero entry is scales[j-1], in row
    permutation[j-1]."""
    s = TitsSection(n, tuple(parse_scalar(a) for a in params))
    m = evaluate_word(s, BraidWord.from_ints(
        n, [int(k) for k in text.split()])).m
    images, scales = [], []
    for col in range(n + 1):
        (row, x), = [(r, entries[col]) for r, entries in
                     enumerate(m.rows, start=1) if entries[col] != 0]
        images.append(row)
        scales.append(x)
    return json.dumps({
        "n": n, "word": text.strip(), "matrix": matrix_to_json(m),
        "permutation": images,
        "scales": [scalar_to_str(x) for x in scales],
        "projection": images, "pure": images == list(range(1, n + 2)),
    }, indent=2) + "\n"


def _leibniz_det(rows):
    """The determinant as the signed sum over all permutations."""
    total = 0
    for p in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(p, 2))
        total += (-1) ** inversions * math.prod(
            rows[r][c] for c, r in enumerate(p))
    return total


def _normalizer_check_by_objects(obj):
    """normalizer-check's exit code and stdout from the dense matrix and
    normalizer_decompose; None for a determinant other than 1, which is
    taken by the Leibniz sum, and the decomposition is checked by
    rebuilding the matrix from it."""
    m = matrix_from_json(obj)
    if _leibniz_det(m.rows) != 1:
        return None
    g = GroupElement(m)
    try:
        dec = normalizer_decompose(g)
    except NotInNormalizer as exc:
        return 1, json.dumps({"in_normalizer": False, "reason": str(exc)}) \
            + "\n"
    assert dec.reconstruct().m == m
    images = list(dec.sigma.images)
    return 0, json.dumps({
        "in_normalizer": True, "permutation": images,
        "scales": [scalar_to_str(x) for x in dec.scales], "coset": images,
    }, indent=2) + "\n"


def _random_scalar(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def test_eval_word_prints_what_the_object_layer_computes(capsys):
    # the plain path against the dense product of the written-out lifts
    rng = random.Random(211)
    for _ in range(60):
        n = rng.randint(1, 5)
        text = " ".join(str(rng.choice((-1, 1)) * rng.randint(1, n))
                        for _ in range(rng.randint(0, 30)))
        params = [scalar_to_str(_random_scalar(rng)) for _ in range(n)]
        argv = ["eval-word", "--n", str(n), "--word", f" {text} ",
                "--params=" + ",".join(params)]
        assert run(capsys, argv) == (
            0, _eval_word_by_dense_product(n, f" {text} ", params), "")


def test_normalizer_check_prints_what_the_object_layer_computes(tmp_path,
                                                                 capsys):
    # monomial matrices of determinant 1, the same times 1 + c E_kl (not
    # monomial, determinant 1), and sparse random ones (determinant
    # mostly not 1)
    rng = random.Random(223)
    seen = set()
    for trial in range(90):
        dim = rng.randint(1, 6)
        perm = list(range(dim))
        rng.shuffle(perm)
        scales = [_random_scalar(rng) for _ in range(dim)]
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for col, row in enumerate(perm):
            rows[row][col] = scales[col]
        rows[perm[0]][0] /= Matrix(rows).det()
        if trial % 3 == 1 and dim > 1:
            k, l = rng.sample(range(dim), 2)
            c = _random_scalar(rng)
            for r in range(dim):
                rows[r][l] += c * rows[r][k]
        elif trial % 3 == 2:
            rows = [[_random_scalar(rng) if rng.random() < 0.4 else 0
                     for _ in range(dim)] for _ in range(dim)]
        obj = {"dim": dim,
               "entries": [[scalar_to_str(x) for x in row] for row in rows]}
        path = _write_matrix(tmp_path, obj["entries"])
        code, out, err = run(capsys, ["normalizer-check", "--matrix", path])
        expected = _normalizer_check_by_objects(obj)
        if expected is None:
            _assert_input_error(code, err)
            assert out == ""
            seen.add(2)
        else:
            assert (code, out, err) == (*expected, "")
            seen.add(code)
    assert seen == {0, 1, 2}


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main([]) == 2
    capsys.readouterr()


def _write_matrix(tmp_path, entries):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": len(entries), "entries": entries}))
    return str(path)


def _assert_input_error(code, err):
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_normalizer_check_rejects_zero_denominator(tmp_path, capsys):
    path = _write_matrix(tmp_path, [["1/0", "0"], ["0", "1"]])
    code, out, err = run(capsys, ["normalizer-check", "--matrix", path])
    _assert_input_error(code, err)
    assert out == ""


def test_normalizer_check_rejects_float_entry(tmp_path, capsys):
    path = _write_matrix(tmp_path, [[0.5, 0], [0, 2]])
    code, out, err = run(capsys, ["normalizer-check", "--matrix", path])
    _assert_input_error(code, err)
    assert out == ""


def test_normalizer_check_rejects_boolean_entry(tmp_path, capsys):
    path = _write_matrix(tmp_path, [[True, 0], [0, 1]])
    code, out, err = run(capsys, ["normalizer-check", "--matrix", path])
    _assert_input_error(code, err)
    assert out == ""


def test_normalizer_check_rejects_empty_matrix(tmp_path, capsys):
    # the empty product is 1, so an empty matrix would pass the
    # determinant check and split into an empty permutation
    code, out, err = run(capsys, ["normalizer-check", "--matrix",
                                  _write_matrix(tmp_path, [])])
    _assert_input_error(code, err)
    assert "nonempty" in err
    assert out == ""


def test_normalizer_check_rejects_boolean_dim(tmp_path, capsys):
    # True == 1, so a boolean dim used to pass the size check
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": True, "entries": [[1]]}))
    code, out, err = run(capsys, ["normalizer-check", "--matrix", str(path)])
    _assert_input_error(code, err)
    assert "dim" in err
    assert out == ""


def test_eval_word_respects_rank_cap(capsys):
    code, out, err = run(capsys, ["eval-word", "--n", "33", "--word", "1 33"])
    _assert_input_error(code, err)
    assert err == "error: rank 33 exceeds cap 32; raise it with --max-rank\n"
    assert out == ""
    code, out, _ = run(capsys, ["eval-word", "--n", "33", "--word", "1 33",
                                "--max-rank", "33"])
    assert code == 0
    assert json.loads(out)["matrix"]["dim"] == 34


@pytest.mark.parametrize("command", [["verify"],
                                     ["eval-word", "--word", "1"]],
                         ids=["verify", "eval-word"])
@pytest.mark.parametrize("n", [2 ** 62, 10 ** 20])
def test_rank_too_large_to_allocate_is_an_input_error(capsys, command, n):
    # past a raised cap, a rank no list can hold exits 2, not 1 ("relation
    # failed"); at these sizes CPython refuses the length before it
    # allocates anything (MemoryError at 2**62, OverflowError past 2**63)
    code, out, err = run(capsys, command + ["--n", str(n),
                                            "--max-rank", str(n)])
    _assert_input_error(code, err)
    assert err == "error: rank too large to allocate\n"
    assert out == ""


def test_eval_word_result_too_large_to_print_is_an_input_error(capsys):
    # each parameter is within the int-to-str limit, but a scale of the
    # value, a product of two of them, is not
    big = "7" * 3000
    code, out, err = run(capsys, ["eval-word", "--n", "2", "--word",
                                  "1 2 1 2", f"--params={big},{big}"])
    _assert_input_error(code, err)
    assert err.startswith("error: result too large to print: ")
    assert out == ""


def test_normalizer_check_deeply_nested_json_is_an_input_error(tmp_path,
                                                               capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run(capsys, ["normalizer-check", "--matrix", str(path)])
    _assert_input_error(code, err)
    assert err.startswith("error: cannot read matrix: ")
    assert out == ""


def _assert_exit(code, err, allowed):
    assert code in allowed
    if code == 2:
        _assert_input_error(code, err)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12)
SCALAR_JUNK = (st.integers(-3, 3) | st.sampled_from(["1/2", "-2", "1/0", "x"])
               | JSON_VALUES)
MATRIX_JSON = st.fixed_dictionaries({
    "dim": st.integers(-1, 3) | JSON_VALUES,
    "entries": st.lists(st.lists(SCALAR_JUNK, max_size=3), max_size=3)
    | JSON_VALUES})
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(JSON_VALUES | MATRIX_JSON)
def test_fuzz_normalizer_check_exit_codes(tmp_path, capsys, obj):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, ["normalizer-check", "--matrix", str(path)])
    _assert_exit(code, err, {0, 1, 2})


@FUZZ
@given(st.text() | st.from_regex(r"-?\d{1,2}(/-?\d{1,2})?(,-?\d{1,2})*",
                                  fullmatch=True))
def test_fuzz_verify_params_exit_codes(capsys, text):
    code, _, err = run(capsys, ["verify", "--n", "2", f"--params={text}"])
    _assert_exit(code, err, {0, 2})


@FUZZ
@given(st.text() | st.lists(st.integers(-3, 3)).map(
    lambda xs: " ".join(map(str, xs))))
def test_fuzz_eval_word_exit_codes(capsys, text):
    code, _, err = run(capsys, ["eval-word", "--n", "2", f"--word={text}"])
    _assert_exit(code, err, {0, 2})


def test_verify_unwritable_report_path(tmp_path, capsys):
    # an empty path names no file: it is not a request for stdout
    for path in (str(tmp_path / "no-such-dir" / "r.json"), ""):
        code, out, err = run(capsys, ["verify", "--n", "1", f"--json={path}"])
        _assert_input_error(code, err)
        assert err.startswith("error: cannot write report: ")
        assert out == ""


class ClosedStream(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_an_io_error_not_a_verdict(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", ClosedStream())
    code = main(["eval-word", "--n", "2", "--word", "1 2"])
    err = capsys.readouterr().err
    _assert_input_error(code, err)


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _env():
    """The environment of a child process, with this checkout's package
    on its path and stdout block-buffered to a pipe or file, as a shell
    gives it, so that output left unflushed at exit would be lost."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"),
                                         env.get("PYTHONPATH", "")])
    return env


def _cli(argv, **kwargs):
    """python -m titslift.cli argv in a child process."""
    return subprocess.Popen([sys.executable, "-m", "titslift.cli", *argv],
                            env=_env(), stderr=subprocess.PIPE, **kwargs)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


# golden.json entries of each kind of output the process path must carry
PROCESS_CALLS = [
    ["verify", "--n", "12", "--level", "all"],  # the largest report
    ["verify", "--n", "3", "--level", "all", "--json", "report.json"],
    ["eval-word", "--n", "3", "--word", " 1 2 -3 1 ", "--params=2,-1/3,5"],
    ["normalizer-check", "--matrix", "matrix19.json"],  # monomial
    ["normalizer-check", "--matrix", "matrix20.json"],  # not monomial: 1
    ["verify", "--n", "two"],  # usage error: 2
    ["--help"],
]


def test_the_process_path_loses_no_output(tmp_path):
    # a child ends in os._exit, which flushes nothing at exit: what main
    # wrote must already be out, byte for byte as the corpus holds it
    corpus = json.loads((ROOT / "tests" / "golden.json").read_text(
        encoding="utf-8"))["calls"]
    entries = {json.dumps(c["argv"]): c for c in corpus}
    for k, argv in enumerate(PROCESS_CALLS):
        expected = entries[json.dumps(argv)]
        workdir = tmp_path / str(k)
        workdir.mkdir()
        for name, text in expected["files"].items():
            (workdir / name).write_text(text, encoding="utf-8")
        proc = _cli(argv, stdout=subprocess.PIPE, cwd=workdir)
        out, err = proc.communicate(timeout=120)
        report = workdir / "report.json"
        got = {"code": proc.returncode,
               "stdout_sha256": _sha(out), "stderr_sha256": _sha(err),
               "json_sha256": _sha(report.read_bytes())
               if report.exists() else None}
        assert got == {key: expected[key] for key in got}, argv


def test_a_fault_in_the_process_path_keeps_its_traceback():
    # an exception that escapes main never reaches os._exit, so the
    # interpreter prints it and exits 1 as for any uncaught exception
    fault = """
import sys
import titslift.sweep as sweep
from titslift import cli
def verdict_rows(n, level):
    raise RuntimeError("a fault")
sweep.verdict_rows = verdict_rows
sys.argv = ["titslift", "verify", "--n", "2"]
cli.run()
"""
    proc = subprocess.run([sys.executable, "-c", fault], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" in proc.stderr
    assert "RuntimeError: a fault" in proc.stderr


def test_stdout_closed_by_its_reader_is_an_io_error_not_a_verdict():
    # the rank-32 report is far larger than a pipe buffer, so the child is
    # still writing when the reader goes away; the exit must stay quiet,
    # with one error line and none for the unwritten rest, which
    # os._exit drops
    proc = _cli(["verify", "--n", "32"], stdout=subprocess.PIPE)
    try:
        assert proc.stdout.read(16) == b'{\n  "n": 32,\n  "'
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 2
    assert err == b"error: standard output was closed\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [
    ["verify", "--n", "3"],
    ["eval-word", "--n", "3", "--word", "1 2 -3"],
    ["normalizer-check", "--matrix", "m.json"],
], ids=["verify", "eval-word", "normalizer-check"])
def test_a_full_stdout_is_an_io_error_not_a_verdict(tmp_path, argv):
    (tmp_path / "m.json").write_text(json.dumps(
        {"dim": 2, "entries": [["0", "-1"], ["1", "0"]]}))
    with open("/dev/full", "w") as full:
        proc = _cli(argv, stdout=full, cwd=tmp_path)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.startswith(b"error: standard output failed: ")
    assert err.count(b"\n") == 1 and err.endswith(b"\n")


def test_verify_under_python_optimize_flag():
    # library invariants must not rest on assert, which -O strips
    env = dict(os.environ)
    tests = pathlib.Path(__file__).resolve().parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "titslift.cli", "verify", "--n", "4",
         "--level", "all"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["all_pass"] is True
    # and a failing relation is still reported: S_i^2 = 1 for S_i^4 = 1
    mutated = """
import sys
import titslift.sweep as sweep
from titslift.cli import main
from conftest import square_is_trivial
rows = [square_is_trivial(row) for row in sweep.relation_words(2)]
sweep.relation_words = lambda k: rows
sys.exit(main(["verify", "--n", "2", "--level", "all"]))
"""
    proc = subprocess.run([sys.executable, "-O", "-c", mutated], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert '"all_pass": false' in proc.stdout


def test_verify_at_every_level_reads_the_relation_table_once(monkeypatch,
                                                             capsys):
    calls = []

    def counted(n):
        calls.append(n)
        return relation_words(n)
    monkeypatch.setattr(sweep, "relation_words", counted)
    code, out, _ = run(capsys, ["verify", "--n", "5"])
    assert code == 0 and json.loads(out)["all_pass"] is True
    assert calls == [5]
