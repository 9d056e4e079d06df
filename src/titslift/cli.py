"""Command-line front end.

Three subcommands: ``verify`` runs the relation sweep for one rank and
emits a JSON report, ``eval-word`` evaluates a braid word as a monomial
matrix and shows its decomposition, ``normalizer-check`` tests whether a
matrix read from JSON normalizes the diagonal torus.  Each imports the
code it runs, so ``verify`` compiles only ``sweep`` besides this module.
Bad arguments or input raise UsageError, which ``main`` prints as one
line; any other exception is a fault and keeps its traceback.

Exit codes: 0 when everything passed, 1 when a relation failed or the
matrix was not in the normalizer, 2 on usage, input or output errors.
"""

import sys

from . import UsageError

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


def _check_cap(n: int, max_rank: int) -> None:
    if n > max_rank:
        raise UsageError(f"rank {n} exceeds cap {max_rank}; "
                         "raise it with --max-rank")


# one relation check as json.dumps(..., indent=2) writes it
_CHECK = ('    {{\n      "tag": "{}",\n      "i": {},\n      "j": {},\n'
          '      "pass": {}\n    }}')
_BOOL = ("false", "true")


def cmd_verify(n: int, level: str, params: str | None,
               report_path: str | None, max_rank: int) -> int:
    if n < 1:
        raise UsageError(f"rank must be at least 1, got {n}")
    _check_cap(n, max_rank)
    if params is not None:
        # checked but not used: every verdict is read at a = 1 (Tits),
        # so only a given --params loads records
        from .records import parse_section
        try:
            parse_section(n, params)
        except ValueError as exc:
            raise UsageError(f"bad --params: {exc}") from None
    from .sweep import verdict_rows
    rows = verdict_rows(n, level)

    # the report as json.dumps(..., indent=2) writes it, written directly
    # as json's indented encoder is pure Python: verify never loads json
    body = ",\n".join(_CHECK.format(r[0], r[1], r[2], _BOOL[r[3]])
                       for r in rows)
    all_pass = all(r[3] for r in rows)
    text = (f'{{\n  "n": {n},\n  "relations": [\n{body}\n  ],\n'
            f'  "all_pass": {_BOOL[all_pass]}\n}}')
    if report_path is not None:
        try:
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write report: {exc}") from None
    else:
        print(text)
    return 0 if all_pass else RELATION_ERROR


def cmd_eval_word(n: int, word: str, params: str | None,
                  max_rank: int) -> int:
    _check_cap(n, max_rank)
    from .relations import eval_word
    return eval_word(n, word, params)


def cmd_normalizer_check(matrix_path: str) -> int:
    from .rows import normalizer_check
    return normalizer_check(matrix_path)


def _help() -> int:
    print(USAGE, end="")
    return 0


def _int(text: str) -> int:
    """-?[0-9]+ in ASCII, as records.INT_TEXT: no "+2", "1_0" or " 2"."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError(text)
    return int(text)


def _level(text: str) -> str:
    if text not in ("group", "adjoint", "all"):
        raise ValueError(text)
    return text


REQUIRED = object()  # the default of an option that must be given
_N = ("n", _int, REQUIRED)
_PARAMS = ("params", str, None)
_MAX_RANK = ("max_rank", _int, MAX_RANK)
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
    "-".  Anything else raises UsageError with a one-line message."""
    if not argv:
        raise UsageError(f"missing subcommand: {', '.join(COMMANDS)}")
    command, tokens = argv[0], iter(argv[1:])
    if command in ("-h", "--help"):
        return _help, {}
    if command not in COMMANDS:
        raise UsageError(f"unknown subcommand {command!r}")
    func, options = COMMANDS[command]
    kwargs = {}
    for token in tokens:
        if token in ("-h", "--help"):
            return _help, {}
        name, eq, value = token.partition("=")
        if name not in options:
            raise UsageError(f"{command}: unrecognized argument {token!r}")
        key, convert, _ = options[name]
        if key in kwargs:
            raise UsageError(f"{name} given twice")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"{name} needs a value")
        try:
            kwargs[key] = convert(value)
        except ValueError:
            raise UsageError(f"invalid {name} value {value!r}") from None
    for name, (key, _, default) in options.items():
        if key not in kwargs and default is REQUIRED:
            raise UsageError(f"{command} needs {name}")
        kwargs.setdefault(key, default)
    return func, kwargs


def main(argv: list[str] | None = None) -> int:
    try:
        func, kwargs = parse_args(sys.argv[1:] if argv is None else argv)
        code = func(**kwargs)
        sys.stdout.flush()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (MemoryError, OverflowError):
        # a rank past a raised --max-rank, too long for any list: an input
        # error, not a failed relation
        print("error: rank too large to allocate", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:  # stdout closed early or full: not a verdict
        _discard_stdout()  # drop the unflushed rest, so exit stays quiet
        print("error: standard output", "was closed" if isinstance(
            exc, BrokenPipeError) else f"failed: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return code


def _discard_stdout() -> None:
    import os

    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
