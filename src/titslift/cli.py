"""Command-line front end.

Three subcommands: ``verify`` runs the relation sweep for one rank and
emits a JSON report, ``eval-word`` evaluates a braid word as a monomial
matrix and shows its decomposition, ``normalizer-check`` tests whether a
matrix read from JSON normalizes the diagonal torus.

Exit codes: 0 when everything passed, 1 when a relation failed or the
matrix was not in the normalizer, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .records import TitsSection, parse_scalar, scalar_to_str

USAGE_ERROR = 2
RELATION_ERROR = 1
MAX_RANK = 32
MAX_RANK_HELP = f"refuse ranks above this (default {MAX_RANK})"
PARAMS_HELP = ("section parameters, integers or p/q, default all 1; "
               "attach a negative first one with =, as in --params=-2,3")


def _parse_params(n: int, text: str | None) -> TitsSection:
    if text is None:
        return TitsSection.ones(n)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} parameters, got {len(parts)}")
    return TitsSection(n, tuple(parse_scalar(p) for p in parts))


def _over_cap(args: argparse.Namespace) -> bool:
    if args.n <= args.max_rank:
        return False
    print(f"error: rank {args.n} exceeds cap {args.max_rank}; "
          "raise it with --max-rank", file=sys.stderr)
    return True


# one relation check as json.dumps(..., indent=2) writes it
_CHECK = ('    {{\n      "tag": "{}",\n      "i": {},\n      "j": {},\n'
          '      "pass": {}\n    }}')
_BOOL = ("false", "true")


def cmd_verify(args: argparse.Namespace) -> int:
    # the int path is loaded here, so the other subcommands skip it
    from .relations import verify

    if args.n < 1:
        print(f"error: rank must be at least 1, got {args.n}",
              file=sys.stderr)
        return USAGE_ERROR
    if _over_cap(args):
        return USAGE_ERROR
    try:
        section = _parse_params(args.n, args.params)
    except ValueError as exc:
        print(f"error: bad --params: {exc}", file=sys.stderr)
        return USAGE_ERROR

    report = verify(section, args.level)

    # json.dumps(report_to_json(report), indent=2) written directly, as
    # json's indented encoder is pure Python: verify never loads json
    body = ",\n".join(_CHECK.format(r.tag, r.i, r.j, _BOOL[r.passed])
                       for r in report.relations)
    text = (f'{{\n  "n": {args.n},\n  "relations": [\n{body}\n  ],\n'
            f'  "all_pass": {_BOOL[report.all_pass]}\n}}')
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return USAGE_ERROR
    else:
        print(text)
    return 0 if report.all_pass else RELATION_ERROR


def cmd_eval_word(args: argparse.Namespace) -> int:
    import json

    from .braid import parse_word
    from .linalg import matrix_to_json
    from .tits import monomial_word

    if _over_cap(args):
        return USAGE_ERROR
    try:
        section = _parse_params(args.n, args.params)
        word = parse_word(args.n, args.word)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    value = monomial_word(section, word)
    # the word's permutation is its projection to the symmetric group
    sigma = value.sigma
    try:
        payload = {
            "n": args.n,
            "word": args.word.strip(),
            "matrix": matrix_to_json(value.reconstruct().m),
            "permutation": list(sigma.images),
            "scales": [scalar_to_str(x) for x in value.scales],
            "projection": list(sigma.images),
            "pure": sigma.is_identity(),
        }
    except ValueError as exc:
        # a scale longer than Python's int-to-str limit (4300 digits)
        print(f"error: result too large to print: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(json.dumps(payload, indent=2))
    return 0


def cmd_normalizer_check(args: argparse.Namespace) -> int:
    import json

    from .linalg import matrix_from_json
    from .tits import GroupElement, NotInNormalizer, normalizer_decompose

    try:
        with open(args.matrix, encoding="utf-8") as fh:
            obj = json.load(fh)
        m = matrix_from_json(obj)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read matrix: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        g = GroupElement(m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        dec = normalizer_decompose(g)
    except NotInNormalizer as exc:
        print(json.dumps({"in_normalizer": False, "reason": str(exc)}))
        return RELATION_ERROR
    payload = {
        "in_normalizer": True,
        "permutation": list(dec.sigma.images),
        "scales": [scalar_to_str(x) for x in dec.scales],
        "coset": list(dec.sigma.images),
    }
    print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="titslift",
        description="verify braid-lift relations and decompose monomial "
                    "matrices, all in exact rational arithmetic")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run the relation sweep for one rank")
    p_verify.add_argument("--n", type=int, required=True, help="rank")
    p_verify.add_argument("--level", choices=("group", "adjoint", "all"),
                          default="all",
                          help="which family of relations to check")
    p_verify.add_argument("--params", default=None, metavar="a1,a2,...",
                          help=PARAMS_HELP)
    p_verify.add_argument("--json", default=None, metavar="PATH",
                          help="write the report here instead of stdout")
    p_verify.add_argument("--max-rank", type=int, default=MAX_RANK,
                          help=MAX_RANK_HELP)
    p_verify.set_defaults(func=cmd_verify)

    p_eval = sub.add_parser(
        "eval-word", help="evaluate a braid word as a monomial matrix")
    p_eval.add_argument("--n", type=int, required=True, help="rank")
    p_eval.add_argument("--word", required=True, metavar='"i j -k"',
                        help="signed generator indices")
    p_eval.add_argument("--params", default=None, metavar="a1,a2,...",
                        help=PARAMS_HELP)
    p_eval.add_argument("--max-rank", type=int, default=MAX_RANK,
                        help=MAX_RANK_HELP)
    p_eval.set_defaults(func=cmd_eval_word)

    p_norm = sub.add_parser(
        "normalizer-check",
        help="test whether a matrix normalizes the diagonal torus")
    p_norm.add_argument("--matrix", required=True, metavar="PATH",
                        help="matrix JSON file")
    p_norm.set_defaults(func=cmd_normalizer_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize anything else
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        code = args.func(args)
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
