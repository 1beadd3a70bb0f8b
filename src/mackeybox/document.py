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

Parsing and rendering round-trip exactly: every matrix of the functor is
reproduced entry for entry.
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import dataclass

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

_INTEGER = re.compile(r"-?[0-9]+")

_HEADER = (
    "# Mackey functor presentation for a cyclic group of prime order.",
    "# Matrix entry [i][j] is the coefficient of target generator i in the",
    "# image of source generator j; relation lists hold one relation per row,",
    "# one integer per generator.",
)


def _int_rows(value, field: str, line: int) -> tuple[tuple[int, ...], ...]:
    if not isinstance(value, list):
        raise DocumentSyntaxError(f"field '{field}' must be a bracketed list", line)
    rows = []
    for row in value:
        if not isinstance(row, list):
            raise DocumentSyntaxError(f"field '{field}' must be a list of rows", line)
        for e in row:
            if not isinstance(e, int) or isinstance(e, bool):
                raise DocumentSyntaxError(
                    f"field '{field}' has a non-integer entry {_quote(e)}", line
                )
        rows.append(tuple(row))
    return tuple(rows)


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


@dataclass(frozen=True)
class MackeyDocument:
    """A parsed document; all matrices row-major, relations one per row."""

    p: int
    top_generators: int
    top_relations: tuple[tuple[int, ...], ...]
    bottom_generators: int
    bottom_relations: tuple[tuple[int, ...], ...]
    action: tuple[tuple[int, ...], ...]
    res: tuple[tuple[int, ...], ...]
    tr: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.top_generators < 0 or self.bottom_generators < 0:
            raise DimensionMismatchError("generator counts must be nonnegative")
        nt, nb = self.top_generators, self.bottom_generators
        for row in self.top_relations:
            if len(row) != nt:
                raise DimensionMismatchError(
                    f"top relation of length {len(row)}, expected {nt}"
                )
        for row in self.bottom_relations:
            if len(row) != nb:
                raise DimensionMismatchError(
                    f"bottom relation of length {len(row)}, expected {nb}"
                )
        _shape_check(self.action, nb, nb, "action")
        _shape_check(self.res, nb, nt, "res")
        _shape_check(self.tr, nt, nb, "tr")

    def to_functor(self) -> MackeyFunctor:
        """Build the functor, checking primality and well-definedness."""
        if not is_prime(self.p):
            raise NonPrimeError(f"p must be prime, got {self.p}")
        nt, nb = self.top_generators, self.bottom_generators
        top = FpAbGroup(nt, IntMatrix.from_columns(self.top_relations, rows=nt))
        bottom = FpAbGroup(nb, IntMatrix.from_columns(self.bottom_relations, rows=nb))
        gamma = AbHom(bottom, bottom, IntMatrix.from_rows(self.action, cols=nb))
        res = AbHom(top, bottom, IntMatrix.from_rows(self.res, cols=nt))
        tr = AbHom(bottom, top, IntMatrix.from_rows(self.tr, cols=nb))
        for name, hom in (("action", gamma), ("res", res), ("tr", tr)):
            if not hom.is_well_defined():
                raise IllDefinedMapError(
                    f"'{name}' does not respect the relations (not a well-defined map)"
                )
        return MackeyFunctor(self.p, top, bottom, gamma, res, tr)

    @classmethod
    def from_functor(cls, m: MackeyFunctor) -> "MackeyDocument":
        def mat_rows(mat: IntMatrix):
            return tuple(tuple(mat.row(i)) for i in range(mat.rows))

        def rel_rows(mat: IntMatrix):
            return tuple(tuple(mat.column(j)) for j in range(mat.cols))

        return cls(
            p=m.p,
            top_generators=m.top.ngens,
            top_relations=rel_rows(m.top.relations),
            bottom_generators=m.bottom.ngens,
            bottom_relations=rel_rows(m.bottom.relations),
            action=mat_rows(m.gamma.matrix),
            res=mat_rows(m.res.matrix),
            tr=mat_rows(m.tr.matrix),
        )

    def render(self) -> str:
        def fmt(rows):
            return json.dumps([list(r) for r in rows])

        lines = list(_HEADER)
        lines.append(f"p: {self.p}")
        lines.append(f"top.generators: {self.top_generators}")
        lines.append(f"top.relations: {fmt(self.top_relations)}")
        lines.append(f"bottom.generators: {self.bottom_generators}")
        lines.append(f"bottom.relations: {fmt(self.bottom_relations)}")
        lines.append(f"action: {fmt(self.action)}")
        lines.append(f"res: {fmt(self.res)}")
        lines.append(f"tr: {fmt(self.tr)}")
        return "\n".join(lines) + "\n"


def parse_document(text: str) -> MackeyDocument:
    """Parse the machine format; raises DocumentError subclasses.

    >>> from mackeybox.mackey import burnside
    >>> parse_document(render_machine(burnside(2))).to_functor() == burnside(2)
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
        value = value.strip()
        if key not in _FIELDS:
            raise DocumentSyntaxError(f"unknown field '{key}'", lineno)
        if key in seen:
            raise DocumentSyntaxError(f"duplicate field '{key}'", lineno)
        if key in ("p", "top.generators", "bottom.generators"):
            # int() would also take "1_1", "+5" and non-ASCII digits
            if not _INTEGER.fullmatch(value):
                raise DocumentSyntaxError(f"field '{key}' must be an integer", lineno)
            seen[key] = int(value)
        else:
            try:
                parsed = json.loads(value)
            except json.JSONDecodeError as exc:
                raise DocumentSyntaxError(
                    f"field '{key}' is not a bracketed integer matrix: {exc.msg}", lineno
                ) from None
            except RecursionError:
                raise DocumentSyntaxError(f"field '{key}' is nested too deeply", lineno) from None
            seen[key] = _int_rows(parsed, key, lineno)
    missing = [f for f in _FIELDS if f not in seen]
    if missing:
        raise DocumentSyntaxError(f"missing field '{missing[0]}'")
    return MackeyDocument(
        p=seen["p"],
        top_generators=seen["top.generators"],
        top_relations=seen["top.relations"],
        bottom_generators=seen["bottom.generators"],
        bottom_relations=seen["bottom.relations"],
        action=seen["action"],
        res=seen["res"],
        tr=seen["tr"],
    )


def parse_functor(text: str) -> MackeyFunctor:
    return parse_document(text).to_functor()


def render_machine(m: MackeyFunctor) -> str:
    return MackeyDocument.from_functor(m).render()


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
    def fmt(mat: IntMatrix):
        return json.dumps(mat.to_rows())

    lines = [
        describe_group(m.top),
        " |  ^",
        "res tr",
        " v  |",
        describe_group(m.bottom),
        "",
        f"p: {m.p}",
        f"res: {fmt(m.res.matrix)}",
        f"tr: {fmt(m.tr.matrix)}",
        f"action: {fmt(m.gamma.matrix)}",
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
    "MackeyDocument",
    "parse_document",
    "parse_functor",
    "render_machine",
    "render_text",
    "render_lewis",
]
