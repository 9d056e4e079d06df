"""Command-line front end.

Three subcommands: ``verify`` runs the relation sweep for one rank and
emits a JSON report, ``eval-word`` evaluates a braid word as a monomial
matrix and shows its decomposition, ``normalizer-check`` tests whether a
matrix read from JSON normalizes the diagonal torus.  The last two run
on plain ints and scalars: they load no braid word and no matrix class.

Exit codes: 0 when everything passed, 1 when a relation failed or the
matrix was not in the normalizer, 2 on usage or input errors.
"""

from __future__ import annotations

import os
import sys

from .records import TitsSection, parse_scalar, scalar_to_str

USAGE_ERROR = 2
RELATION_ERROR = 1
MAX_RANK = 32
USAGE = f"""\
usage: titslift verify --n N [--level group|adjoint|all] [--params A]
                       [--json PATH] [--max-rank K]
       titslift eval-word --n N --word "i j -k" [--params A] [--max-rank K]
       titslift normalizer-check --matrix PATH
verify checks every relation of rank N and writes a JSON report; eval-word
evaluates a braid word as a monomial matrix; normalizer-check tests whether
the matrix in a JSON file normalizes the diagonal torus.  A is the section
a1,...,aN, integers or p/q (default all 1); ranks above K (default
{MAX_RANK}) are refused.  An option takes its value as the next argument
or after "=".
"""


def _parse_params(n: int, text: str | None) -> TitsSection:
    if text is None:
        return TitsSection.ones(n)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} parameters, got {len(parts)}")
    return TitsSection(n, tuple(parse_scalar(p) for p in parts))


def _over_cap(n: int, max_rank: int) -> bool:
    if n <= max_rank:
        return False
    print(f"error: rank {n} exceeds cap {max_rank}; "
          "raise it with --max-rank", file=sys.stderr)
    return True


# one relation check as json.dumps(..., indent=2) writes it
_CHECK = ('    {{\n      "tag": "{}",\n      "i": {},\n      "j": {},\n'
          '      "pass": {}\n    }}')
_BOOL = ("false", "true")


def cmd_verify(n: int, level: str, params: str | None,
               report_path: str | None, max_rank: int) -> int:
    # the int path is loaded here, so the other subcommands skip it
    from .relations import verify

    if n < 1:
        print(f"error: rank must be at least 1, got {n}", file=sys.stderr)
        return USAGE_ERROR
    if _over_cap(n, max_rank):
        return USAGE_ERROR
    try:
        section = _parse_params(n, params)
    except ValueError as exc:
        print(f"error: bad --params: {exc}", file=sys.stderr)
        return USAGE_ERROR

    report = verify(section, level)

    # json.dumps(report_to_json(report), indent=2) written directly, as
    # json's indented encoder is pure Python: verify never loads json
    body = ",\n".join(_CHECK.format(r.tag, r.i, r.j, _BOOL[r.passed])
                       for r in report.relations)
    text = (f'{{\n  "n": {n},\n  "relations": [\n{body}\n  ],\n'
            f'  "all_pass": {_BOOL[report.all_pass]}\n}}')
    if report_path:
        try:
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return USAGE_ERROR
    else:
        print(text)
    return 0 if report.all_pass else RELATION_ERROR


def cmd_eval_word(n: int, word: str, params: str | None,
                  max_rank: int) -> int:
    import json

    from .relations import letters_fold, parse_letters, scales_at

    if _over_cap(n, max_rank):
        return USAGE_ERROR
    try:
        section = _parse_params(n, params)
        letters = parse_letters(n, word)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    # the value at a = 1 moved to the section: column j holds scales[j]
    # in row images[j], and the images are the word's projection
    value = letters_fold(n)(letters)
    images = [abs(x) for x in value]
    try:
        scales = [scalar_to_str(x) for x in scales_at(section, value)]
    except ValueError as exc:
        # a scale longer than Python's int-to-str limit (4300 digits)
        print(f"error: result too large to print: {exc}", file=sys.stderr)
        return USAGE_ERROR
    entries = [["0"] * (n + 1) for _ in images]
    for col, (row, x) in enumerate(zip(images, scales)):
        entries[row - 1][col] = x
    print(json.dumps({
        "n": n,
        "word": word.strip(),
        "matrix": {"dim": n + 1, "entries": entries},
        "permutation": images,
        "scales": scales,
        "projection": images,
        "pure": images == sorted(images),
    }, indent=2))
    return 0


def cmd_normalizer_check(matrix_path: str) -> int:
    import json

    from .rows import (NotInNormalizer, determinant, monomial_columns,
                       rows_from_json)

    try:
        with open(matrix_path, encoding="utf-8") as fh:
            rows = rows_from_json(json.load(fh))
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read matrix: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if determinant(rows) != 1:
        print("error: matrix does not have determinant 1", file=sys.stderr)
        return USAGE_ERROR
    try:
        # one nonzero per column and determinant one: a permutation
        images, scales = monomial_columns(rows)
    except NotInNormalizer as exc:
        print(json.dumps({"in_normalizer": False, "reason": str(exc)}))
        return RELATION_ERROR
    print(json.dumps({
        "in_normalizer": True,
        "permutation": images,
        "scales": [scalar_to_str(x) for x in scales],
        "coset": images,
    }, indent=2))
    return 0


def _help() -> int:
    print(USAGE, end="")
    return 0


def _level(text: str) -> str:
    if text not in ("group", "adjoint", "all"):
        raise ValueError(text)
    return text


REQUIRED = object()  # the default of an option that must be given
_N = ("n", int, REQUIRED)
_PARAMS = ("params", str, None)
_MAX_RANK = ("max_rank", int, MAX_RANK)
# subcommand -> (function, option -> (keyword, converter, default))
COMMANDS = {
    "verify": (cmd_verify, {
        "--n": _N, "--level": ("level", _level, "all"), "--params": _PARAMS,
        "--json": ("report_path", str, None), "--max-rank": _MAX_RANK}),
    "eval-word": (cmd_eval_word, {
        "--n": _N, "--word": ("word", str, REQUIRED), "--params": _PARAMS,
        "--max-rank": _MAX_RANK}),
    "normalizer-check": (cmd_normalizer_check, {
        "--matrix": ("matrix_path", str, REQUIRED)}),
}


def parse_args(argv: list[str]):
    """(function, keyword arguments) for a command line, read by COMMANDS:
    --opt value or --opt=value, each option at most once, and a known
    option takes the next argument as its value even if it starts with
    "-".  Anything else raises ValueError with a one-line message."""
    if not argv:
        raise ValueError(f"missing subcommand: {', '.join(COMMANDS)}")
    command, tokens = argv[0], iter(argv[1:])
    if command in ("-h", "--help"):
        return _help, {}
    if command not in COMMANDS:
        raise ValueError(f"unknown subcommand {command!r}")
    func, options = COMMANDS[command]
    kwargs = {}
    for token in tokens:
        if token in ("-h", "--help"):
            return _help, {}
        name, eq, value = token.partition("=")
        if name not in options:
            raise ValueError(f"{command}: unrecognized argument {token!r}")
        key, convert, _ = options[name]
        if key in kwargs:
            raise ValueError(f"{name} given twice")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"{name} needs a value")
        try:
            kwargs[key] = convert(value)
        except ValueError:
            raise ValueError(f"invalid {name} value {value!r}") from None
    for name, (key, _, default) in options.items():
        if key not in kwargs and default is REQUIRED:
            raise ValueError(f"{command} needs {name}")
        kwargs.setdefault(key, default)
    return func, kwargs


def main(argv: list[str] | None = None) -> int:
    try:
        func, kwargs = parse_args(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        code = func(**kwargs)
        sys.stdout.flush()
    except (MemoryError, OverflowError):
        # a rank past a raised --max-rank, too long for any list: an input
        # error, not a failed relation
        print("error: rank too large to allocate", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader closed stdout early: report that, not a verdict, and
        # send the unflushed rest to the null device so exit stays quiet
        _discard_stdout()
        print("error: standard output was closed", file=sys.stderr)
        return USAGE_ERROR
    return code


def _discard_stdout() -> None:
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
