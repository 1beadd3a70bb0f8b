"""The line-oriented text format for Mackey functor presentations.

A document is ``key: value`` lines; ``#`` starts a comment and blank lines
are ignored.  Matrices are bracketed row lists (JSON syntax), relation lists
hold one relation per row, and a matrix entry ``[i][j]`` is the coefficient
of target generator i in the image of source generator j::

    p: 2
    top.generators: 2
    top.relations: []
    bottom.generators: 1
    bottom.relations: []
    action: [[1]]
    res: [[1, 2]]
    tr: [[0], [1]]

Parsing goes straight to a ``MackeyFunctor`` and rendering straight from one;
they round-trip exactly, every matrix reproduced entry for entry.
"""

from __future__ import annotations

import json
import re
import reprlib
import sys

from .intlin import IntMatrix
from .abgroup import AbHom, FpAbGroup, describe_group
from .mackey import MackeyFunctor, is_prime


class DocumentError(ValueError):
    """Base of all input-document failures; ``code`` names the class."""

    code = "document"


class DocumentSyntaxError(DocumentError):
    code = "syntax"

    def __init__(self, message, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DimensionMismatchError(DocumentError):
    code = "dimension"


class NonPrimeError(DocumentError):
    code = "non-prime"


class IllDefinedMapError(DocumentError):
    code = "ill-defined"


_FIELDS = (
    "p",
    "top.generators",
    "top.relations",
    "bottom.generators",
    "bottom.relations",
    "action",
    "res",
    "tr",
)

_COUNTS = ("p", "top.generators", "bottom.generators")

_INTEGER = re.compile(r"-?[0-9]+")

_HEADER = (
    "# Mackey functor presentation for a cyclic group of prime order.",
    "# Matrix entry [i][j] is the coefficient of target generator i in the",
    "# image of source generator j; relation lists hold one relation per row,",
    "# one integer per generator.",
)


def _int_rows(value, field: str, line: int) -> list[list[int]]:
    if not isinstance(value, list):
        raise DocumentSyntaxError(f"field '{field}' must be a bracketed list", line)
    for row in value:
        if not isinstance(row, list):
            raise DocumentSyntaxError(f"field '{field}' must be a list of rows", line)
        for e in row:
            if not isinstance(e, int) or isinstance(e, bool):
                raise DocumentSyntaxError(
                    f"field '{field}' has a non-integer entry {_quote(e)}", line
                )
    return value


def _quote(value) -> str:
    """A short repr of an offending value: nesting and length are cut
    (reprlib), then the text is cut to 40 characters.

    >>> _quote([[[[[[[[]]]]]]]])
    '[[[[[[[...]]]]]]]'
    >>> _quote([[1, 2, 3]] * 10)
    '[[1, 2, 3], [1, 2, 3], [1, 2, 3], [1, 2…'
    """
    text = reprlib.repr(value)
    return text if len(text) <= 40 else text[:39] + "…"


def _shape_check(rows, nrows: int, ncols: int, field: str):
    if len(rows) != nrows:
        raise DimensionMismatchError(f"field '{field}' has {len(rows)} rows, expected {nrows}")
    for row in rows:
        if len(row) != ncols:
            raise DimensionMismatchError(
                f"field '{field}' has a row of length {len(row)}, expected {ncols}"
            )


def _value(key: str, value: str, line: int):
    """The value of one field: an integer, or a list of integer rows."""
    if key in _COUNTS and not _INTEGER.fullmatch(value):
        # int() would also take "1_1", "+5" and non-ASCII digits
        raise DocumentSyntaxError(f"field '{key}' must be an integer", line)
    try:
        parsed = int(value) if key in _COUNTS else json.loads(value)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(
            f"field '{key}' is not a bracketed integer matrix: {exc.msg}", line
        ) from None
    except RecursionError:
        raise DocumentSyntaxError(f"field '{key}' is nested too deeply", line) from None
    except ValueError:  # int() and json.loads refuse integers past the conversion limit
        message = f"field '{key}' has an integer of more than {sys.get_int_max_str_digits()} digits"
        raise DocumentSyntaxError(message, line) from None
    return parsed if key in _COUNTS else _int_rows(parsed, key, line)


def parse_functor(text: str) -> MackeyFunctor:
    """Parse the machine format into a functor; raises DocumentError subclasses.

    The checks run in one fixed order, and the first fault found is the one
    reported: syntax, line by line, then missing fields; dimensions
    (generator counts, relation lengths, then ``action``, ``res``, ``tr``);
    primality; well-definedness of ``action``, ``res``, ``tr``.

    >>> from mackeybox.mackey import burnside
    >>> parse_functor(render_machine(burnside(2))) == burnside(2)
    True
    """
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise DocumentSyntaxError(f"expected 'key: value', got {raw!r}", lineno)
        key = key.strip()
        if key not in _FIELDS:
            raise DocumentSyntaxError(f"unknown field '{key}'", lineno)
        if key in seen:
            raise DocumentSyntaxError(f"duplicate field '{key}'", lineno)
        seen[key] = _value(key, value.strip(), lineno)
    missing = [f for f in _FIELDS if f not in seen]
    if missing:
        raise DocumentSyntaxError(f"missing field '{missing[0]}'")

    p, nt, nb = (seen[f] for f in _COUNTS)
    if nt < 0 or nb < 0:
        raise DimensionMismatchError("generator counts must be nonnegative")
    for tier, n in (("top", nt), ("bottom", nb)):
        for row in seen[f"{tier}.relations"]:
            if len(row) != n:
                raise DimensionMismatchError(f"{tier} relation of length {len(row)}, expected {n}")
    for field, nrows, ncols in (("action", nb, nb), ("res", nb, nt), ("tr", nt, nb)):
        _shape_check(seen[field], nrows, ncols, field)
    try:
        prime = is_prime(p)
    except ValueError as exc:  # primality is decided only below PRIME_LIMIT
        raise NonPrimeError(str(exc)) from None
    if not prime:
        raise NonPrimeError(f"p must be prime, got {p}")

    top = FpAbGroup(nt, IntMatrix.from_columns(seen["top.relations"], rows=nt))
    bottom = FpAbGroup(nb, IntMatrix.from_columns(seen["bottom.relations"], rows=nb))
    gamma = AbHom(bottom, bottom, IntMatrix.from_rows(seen["action"], cols=nb))
    res = AbHom(top, bottom, IntMatrix.from_rows(seen["res"], cols=nt))
    tr = AbHom(bottom, top, IntMatrix.from_rows(seen["tr"], cols=nb))
    for field, hom in (("action", gamma), ("res", res), ("tr", tr)):
        if not hom.is_well_defined():
            raise IllDefinedMapError(
                f"'{field}' does not respect the relations (not a well-defined map)"
            )
    return MackeyFunctor(p, top, bottom, gamma, res, tr)


def _json_rows(mat: IntMatrix) -> str:
    return json.dumps(mat.to_rows())


def render_machine(m: MackeyFunctor) -> str:
    """The machine format (relations one per row), headed by a comment."""
    lines = [
        *_HEADER,
        f"p: {m.p}",
        f"top.generators: {m.top.ngens}",
        f"top.relations: {_json_rows(m.top.relations.transpose())}",
        f"bottom.generators: {m.bottom.ngens}",
        f"bottom.relations: {_json_rows(m.bottom.relations.transpose())}",
        f"action: {_json_rows(m.gamma.matrix)}",
        f"res: {_json_rows(m.res.matrix)}",
        f"tr: {_json_rows(m.tr.matrix)}",
    ]
    return "\n".join(lines) + "\n"


def render_text(m: MackeyFunctor) -> str:
    """A two-tier diagram with invariant-factor group names.

    >>> from mackeybox.mackey import burnside
    >>> print(render_text(burnside(2)), end="")
    Z^2
     |  ^
    res tr
     v  |
    Z
    <BLANKLINE>
    p: 2
    res: [[1, 2]]
    tr: [[0], [1]]
    action: [[1]]
    """
    lines = [
        describe_group(m.top),
        " |  ^",
        "res tr",
        " v  |",
        describe_group(m.bottom),
        "",
        f"p: {m.p}",
        f"res: {_json_rows(m.res.matrix)}",
        f"tr: {_json_rows(m.tr.matrix)}",
        f"action: {_json_rows(m.gamma.matrix)}",
    ]
    return "\n".join(lines) + "\n"


def render_lewis(m: MackeyFunctor, format: str = "machine") -> str:
    """Serialize in the chosen format: ``machine`` (parseable) or ``text``."""
    if format == "machine":
        return render_machine(m)
    if format == "text":
        return render_text(m)
    raise ValueError(f"unknown format {format!r}")


__all__ = [
    "DocumentError",
    "DocumentSyntaxError",
    "DimensionMismatchError",
    "NonPrimeError",
    "IllDefinedMapError",
    "parse_functor",
    "render_machine",
    "render_text",
    "render_lewis",
]
