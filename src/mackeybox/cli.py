"""Command-line interface.

Commands read functor documents (see :mod:`.document`) from files or stdin
(``-``) and write results to stdout, so they compose in pipelines::

    mackeybox make twisted --p 5 --twist 2 | mackeybox invert - | mackeybox classify -

Exit codes: 0 success, 1 domain failure (axiom violation, not invertible,
no isomorphism found), 2 input error (unreadable, malformed, non-prime p,
ill-defined maps, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import sys

from .document import DocumentError, parse_functor, render_lewis
from .mackey import GSet, box_product, burnside, check_axioms, constant_z
from .mackey import permutation_functor, twisted_burnside
from .separation import (
    FOUND,
    NOT_ISOMORPHIC,
    _NotAMackeyFunctor,
    classify_invertible,
    gamma_functor,
    invert,
    phi_functor,
    try_find_isomorphism,
)

_MAX_GENERATORS = 512  # n = fixed + p * free of `make permutation`: bounds the document it prints


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_mackey(*paths: str):
    """The functors in paths, every one parsed (so an input error comes
    first) before any is checked against the axioms.  ``classify`` and
    ``invert`` parse their document directly: the classification checks it."""
    functors = [parse_functor(_read(path)) for path in paths]
    problems = tuple(msg for m in functors for msg in check_axioms(m))
    if problems:
        raise _NotAMackeyFunctor(problems)
    return functors


def _fail(message: str, code: int) -> int:
    print(f"mackeybox: {message}", file=sys.stderr)
    return code


def _emit(functor, fmt: str) -> int:
    sys.stdout.write(render_lewis(functor, fmt))
    return 0


def _cmd_check(args) -> int:
    problems = check_axioms(parse_functor(_read(args.file)))
    if args.format == "machine":
        print("status: pass" if not problems else "status: fail")
        for msg in problems:
            print(f"violation: {msg}")
    elif problems:
        for msg in problems:
            print(f"axiom violated: {msg}")
    else:
        print("all axioms hold")
    return 1 if problems else 0


def _cmd_box(args) -> int:
    return _emit(box_product(*_load_mackey(args.left, args.right)), args.format)


def _cmd_classify(args) -> int:
    m = parse_functor(_read(args.file))
    result = classify_invertible(m)
    if args.format == "machine":
        if result.invertible:
            print("verdict: twisted-burnside")
            print(f"d_class: {result.d_class}")
            print(f"sign_ambiguous: {'true' if result.sign_ambiguous else 'false'}")
        else:
            print("verdict: not-invertible")
            print(f"reason: {result.reason}")
            if result.twist_found is not None:
                print(f"twist_found: {result.twist_found}")
    else:
        print(str(result))
    return 0 if result.invertible else 1


def _cmd_invert(args) -> int:
    m = parse_functor(_read(args.file))
    outcome = invert(m)
    if outcome is None:
        reason = classify_invertible(m).reason
        return _fail(f"not invertible: {reason}", 1)
    inverse, _certificate = outcome
    return _emit(inverse, args.format)


def _part(split):
    """The command that emits the first part of ``split`` of a functor."""
    return lambda args: _emit(split(*_load_mackey(args.file))[0], args.format)


def _cmd_iso(args) -> int:
    m, n = _load_mackey(args.left, args.right)
    result = try_find_isomorphism(m, n, args.bound)
    machine = args.format == "machine"
    if machine:
        print(f"status: {result.status}")
    elif result.status == FOUND:
        print("isomorphic")
    elif result.status == NOT_ISOMORPHIC:
        print(f"not isomorphic: {result.detail}")
    else:
        print(f"unknown: {result.detail}")
    if result.witness is not None:
        print(f"phi_top: {json.dumps(result.witness.phi_top.matrix.to_rows())}")
        print(f"phi_bottom: {json.dumps(result.witness.phi_bottom.matrix.to_rows())}")
    elif machine and result.detail:
        print(f"detail: {result.detail}")
    return 0 if result.status == FOUND else 1


def _cmd_make(args) -> int:
    if args.kind == "burnside":
        m = burnside(args.p)
    elif args.kind == "constant":
        m = constant_z(args.p)
    elif args.kind == "twisted":
        if args.twist is None:
            return _fail("make twisted requires --twist", 2)
        m = twisted_burnside(args.p, args.twist)
    else:  # permutation
        n = args.fixed + args.p * args.free
        if n > _MAX_GENERATORS:
            return _fail(f"make permutation: {n} generators exceed the bound {_MAX_GENERATORS}", 2)
        m = permutation_functor(args.p, GSet(args.fixed, args.free))
    return _emit(m, args.format)


# (name, help, handler, documents read): every document but the last is
# required, and the last defaults to stdin
_DOCUMENT_COMMANDS = (
    ("check", "verify the axioms of a functor document", _cmd_check, ("file",)),
    ("box", "box product of two functor documents", _cmd_box, ("left", "right")),
    ("classify", "decide invertibility", _cmd_classify, ("file",)),
    ("invert", "emit the box inverse, if one exists", _cmd_invert, ("file",)),
    ("gamma", "transfer-image subfunctor", _part(gamma_functor), ("file",)),
    ("phi", "transfer-cokernel quotient functor", _part(phi_functor), ("file",)),
    ("iso", "bounded isomorphism search", _cmd_iso, ("left", "right")),
)


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("text", "machine"),
        default="machine",
        help="output format (default: machine, which pipelines can parse)",
    )
    parser = argparse.ArgumentParser(
        prog="mackeybox",
        description="Box products and invertibility of prime-order Mackey functors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, documents in _DOCUMENT_COMMANDS:
        p = sub.add_parser(name, parents=[fmt], help=help_text)
        for doc in documents[:-1]:
            p.add_argument(doc)
        p.add_argument(documents[-1], nargs="?", default="-")
        p.set_defaults(handler=handler)
    sub.choices["iso"].add_argument(
        "--bound", type=int, default=3, help="entry bound for the search (default 3)"
    )

    p = sub.add_parser("make", parents=[fmt], help="emit a standard functor")
    p.add_argument("kind", choices=("burnside", "constant", "permutation", "twisted"))
    p.add_argument("--p", type=int, required=True, help="the prime")
    p.add_argument("--twist", type=int, default=None, help="twist for 'twisted'")
    p.add_argument("--fixed", type=int, default=0, help="fixed points for 'permutation'")
    p.add_argument("--free", type=int, default=0, help="free orbits for 'permutation'")
    p.set_defaults(handler=_cmd_make)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _NotAMackeyFunctor as exc:
        for msg in exc.violations:
            print(f"mackeybox: axiom violated: {msg}", file=sys.stderr)
        return 1
    except DocumentError as exc:
        return _fail(f"{exc.code} error: {exc}", 2)
    except OSError as exc:
        return _fail(str(exc), 2)
    except ValueError as exc:
        return _fail(str(exc), 2)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
