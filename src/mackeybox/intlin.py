"""Exact linear algebra over the integers.

Matrices are immutable, store the nonzero entries of each row (see
``IntMatrix``), and hold arbitrary-precision Python ints, so nothing here can
overflow.  Throughout the package a matrix acts on column
vectors: ``A @ B`` means "apply B, then A", and the *column lattice* of a
matrix is the set of integer combinations of its columns.

Entries are checked once, where they come in: the public constructors
(``IntMatrix(...)``, ``from_rows``, ``from_columns``, ``column_vector``) and
the vectors handed to ``apply`` and ``solve_linear`` accept only Python ints,
not bools.  A matrix this module computes from checked matrices (products,
sums, stacks, transposes, row and column selections, identities and the
outputs of the eliminations) is built by ``_trusted``, which skips the
per-entry check, and the document parser, which checks every entry and
shape itself, builds through ``_from_row_lists`` and ``_from_column_lists``.
The eliminations run on dense rows, their replays on sparse ones.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, compress, repeat
from operator import add, attrgetter, mul, neg, sub


class _Frozen:
    """Shared cold half of a frozen record ``class R(_Frozen, fields=(...))``.
    R's ``__init__`` sets each field once by ``object.__setattr__``, which
    keeps it out of a ``__dict__`` (144 bytes more per record on CPython 3.11).
    Assignment raises.  Every record takes ``==`` (a class check, identity,
    then the fields), ``hash`` and the repr from here, and none of them reads
    a memo.  A record that keeps no memo can declare ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls, fields: tuple[str, ...]):
        cls._fields, cls._field_values = fields, attrgetter(*fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _set_fields(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._field_values(self) == other._field_values(other)

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class _memoised:
    """``functools.cached_property`` without the lock that CPython 3.11 takes
    on each first read: the first read keeps the value in the record's
    ``__dict__``, where later reads find it.  Memo values are pure, so a race
    can only compute one twice."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = record.__dict__[self.name] = self.func(record)
        return value


class IntMatrix(_Frozen, fields=("rows", "cols", "offsets", "indices", "values")):
    """An immutable ``rows x cols`` integer matrix, stored row-compressed:
    row i holds the nonzeros ``values[offsets[i]:offsets[i + 1]]`` in the
    columns ``indices[offsets[i]:offsets[i + 1]]``, ascending.  No zero is
    stored, so equal matrices have equal fields, and the kernels below cost
    the nonzeros they read.  ``entries`` is the dense row-major view, built
    on each read.

    >>> a = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> a @ a
    IntMatrix([[7, 10], [15, 22]])
    >>> a.apply((1, 0))
    (1, 3)
    >>> b = IntMatrix.from_rows([[0, 5], [0, 0], [-1, 2]])
    >>> b.offsets, b.indices, b.values
    ((0, 1, 1, 3), (1, 0, 1), (5, -1, 2))
    """

    __slots__ = ("rows", "cols", "offsets", "indices", "values")

    def __new__(cls, rows: int, cols: int, entries: tuple[int, ...]):
        _check_size(rows)
        _check_size(cols)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        return _from_row_lists([entries[i * cols : (i + 1) * cols] for i in range(rows)], cols, check=True)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        rows, width = _uniform(rows, cols, "rows")
        return _from_row_lists(rows, width, check=True)

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> "IntMatrix":
        columns, height = _uniform(columns, rows, "columns")
        return _from_row_lists(list(zip(*columns)) if columns else [()] * height, len(columns), True)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        _check_size(n)
        return _eye(n, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        _check_size(rows)
        _check_size(cols)
        return _trusted(rows, cols, _offsets(rows, False), (), ())

    @classmethod
    def column_vector(cls, vec) -> "IntMatrix":
        return _from_row_lists([(x,) for x in vec], 1, check=True)

    # -- access ------------------------------------------------------------

    @property
    def entries(self) -> tuple[int, ...]:
        """The dense row-major entries, built afresh on each read."""
        vals = self.values
        if len(vals) == self.rows * self.cols:  # no zero: the values are the entries
            return vals
        c, o, idx = self.cols, self.offsets, self.indices
        flat = [0] * (self.rows * c)
        i = 0  # the row of the k-th nonzero
        for k in range(len(vals)):
            while o[i + 1] <= k:
                i += 1
            flat[i * c + idx[k]] = vals[k]
        return tuple(flat)

    def to_rows(self) -> list[list[int]]:
        o, idx, vals = self.offsets, self.indices, self.values
        rows = [[0] * self.cols for _ in range(self.rows)]
        for row, a, b in zip(rows, o, o[1:]):
            for k in range(a, b):
                row[idx[k]] = vals[k]
        return rows

    def take_rows(self, indices) -> "IntMatrix":
        if indices == range(self.rows):  # all of them, in order
            return self
        o, idx, vals = self.offsets, self.indices, self.values
        offsets, picked, values = [0], [], []
        for i in indices:
            if not 0 <= i < self.rows:
                raise IndexError(f"row {i} outside [0, {self.rows})")
            picked += idx[o[i] : o[i + 1]]
            values += vals[o[i] : o[i + 1]]
            offsets.append(len(values))
        return _trusted(len(offsets) - 1, self.cols, tuple(offsets), tuple(picked), tuple(values))

    def take_columns(self, indices) -> "IntMatrix":
        """All columns in order give the matrix itself; any other selection
        is ``take_rows`` of the transpose."""
        indices = list(indices)
        for j in indices:
            if not 0 <= j < self.cols:
                raise IndexError(f"column {j} outside [0, {self.cols})")
        if indices == [*range(self.cols)]:  # all of them, in order
            return self
        return self.transpose().take_rows(indices).transpose()

    def is_zero(self) -> bool:
        return not self.values

    def __repr__(self):
        return f"IntMatrix({self.to_rows()})"

    def __reduce__(self):  # pickle and copy rebuild from the fields, not by assignment
        return _trusted, self._field_values(self)

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Row-wise sparse product (Gustavson): row i of the result sums
        ``a * (row k of other)`` over the nonzeros ``a`` at (i, k), reading other's
        nonzeros in place, and a sum that cancels is not compressed.  A row with
        one nonzero copies a row of other; the shared identity gives the other factor."""
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        for one, m in ((self, other), (other, self)):  # integers first; ``_eye`` only for a square
            if one.rows == one.cols == len(one.values) and one is _eye(one.rows, one.rows):
                return m
        ao, ai, av = self.offsets, self.indices, self.values
        bo, bi, bv = other.offsets, other.indices, other.values
        span = range(other.cols)
        offsets, indices, values = [0], [], []
        for i in range(self.rows):
            lo, hi = ao[i], ao[i + 1]
            if hi - lo == 1:
                a, k = av[lo], ai[lo]
                indices += bi[bo[k] : bo[k + 1]]
                values += bv[bo[k] : bo[k + 1]] if a == 1 else [a * b for b in bv[bo[k] : bo[k + 1]]]
            elif hi > lo:
                out = [0] * other.cols
                for k, a in zip(ai[lo:hi], av[lo:hi]):
                    for t in range(bo[k], bo[k + 1]):
                        out[bi[t]] += a * bv[t]
                if any(out):
                    indices += compress(span, out)
                    values += compress(out, out)
            offsets.append(len(values))
        return _trusted(self.rows, other.cols, tuple(offsets), tuple(indices), tuple(values))

    def apply(self, vec) -> tuple[int, ...]:
        """The image of a column vector, as a tuple, summed over the nonzeros."""
        vec = _int_vector(vec)
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} for {self.rows}x{self.cols} matrix")
        o, idx, vals, at = self.offsets, self.indices, self.values, vec.__getitem__
        return tuple(sum(map(mul, vals[a:b], map(at, idx[a:b]))) for a, b in zip(o, o[1:]))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(sub, other)

    def _entrywise(self, op, other: "IntMatrix") -> "IntMatrix":
        """Each pair of rows merged in one pass down their two ascending runs
        of indices, so a row costs its nonzeros; zeros are dropped."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        offsets, indices, values = [0], [], []
        for (ai, av), (bi, bv) in zip(_sparse_rows(self), _sparse_rows(other)):
            i = k = 0
            na, nb = len(ai), len(bi)
            while i < na and k < nb:
                x, y = ai[i], bi[k]
                if x < y:
                    indices.append(x)
                    values.append(av[i])
                    i += 1
                elif y < x:
                    indices.append(y)
                    values.append(op(0, bv[k]))
                    k += 1
                else:
                    v = op(av[i], bv[k])
                    if v:
                        indices.append(x)
                        values.append(v)
                    i += 1
                    k += 1
            indices += ai[i:] + bi[k:]  # one of the two runs is used up
            values += av[i:]
            values += map(op, repeat(0), bv[k:])
            offsets.append(len(values))
        return _trusted(self.rows, self.cols, tuple(offsets), tuple(indices), tuple(values))

    def __neg__(self) -> "IntMatrix":
        return _trusted(self.rows, self.cols, self.offsets, self.indices, tuple(map(neg, self.values)))

    def scaled(self, k: int) -> "IntMatrix":
        _check_ints((k,), "scale factors")
        if k == 0:
            return IntMatrix.zeros(self.rows, self.cols)
        return _trusted(self.rows, self.cols, self.offsets, self.indices, tuple(k * a for a in self.values))

    def transpose(self) -> "IntMatrix":
        """One pass over the nonzeros, row by row, into per-column slots, so
        each column of self becomes a row with ascending indices."""
        o, idx, vals = self.offsets, self.indices, self.values
        counts = [0] * self.cols
        for j in idx:
            counts[j] += 1
        slot = [0, *accumulate(counts)]
        offsets, indices, values = tuple(slot), [0] * len(vals), [0] * len(vals)
        i = 0  # the row of the k-th nonzero
        for k, j in enumerate(idx):
            while o[i + 1] <= k:
                i += 1
            indices[slot[j]], values[slot[j]] = i, vals[k]
            slot[j] += 1
        return _trusted(self.cols, self.rows, offsets, tuple(indices), tuple(values))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        ao, ai, av, bo, bv = self.offsets, self.indices, self.values, other.offsets, other.values
        shifted, width = tuple(map(add, other.indices, repeat(self.cols))), self.cols + other.cols
        if not (av and bv):  # as for the zero blocks of ``block_diagonal``
            return _trusted(self.rows, width, *((ao, ai, av) if av else (bo, shifted, bv)))
        indices, values = [], []
        for a0, a1, b0, b1 in zip(ao, ao[1:], bo, bo[1:]):
            indices += ai[a0:a1] + shifted[b0:b1]
            values += av[a0:a1] + bv[b0:b1]
        return _trusted(self.rows, width, tuple(map(add, ao, bo)), tuple(indices), tuple(values))

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        offsets = self.offsets + tuple(map(add, other.offsets[1:], repeat(len(self.values))))
        rows, indices = self.rows + other.rows, self.indices + other.indices
        return _trusted(rows, self.cols, offsets, indices, self.values + other.values)

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product: entry at ((i, k), (j, l)) is self[i,j] * other[k,l].
        A row of self with one nonzero gives a shifted, scaled copy of other;
        a zero factor (an empty relation matrix, say) gives the zero matrix."""
        rows, cols = self.rows * other.rows, self.cols * other.cols
        if not (self.values and other.values):
            return _trusted(rows, cols, _offsets(rows, False), (), ())
        for one, m in ((self, other), (other, self)):
            if one.rows == one.cols == 1 and one.values == (1,):
                return m
        c, bo, bi, bv = other.cols, other.offsets, other.indices, other.values
        brows = None
        offsets, indices, values = [0], [], []
        for ai, av in _sparse_rows(self):
            if len(ai) == 1:
                (j,), (a,), base = ai, av, len(values)
                offsets += map(add, bo[1:], repeat(base))
                indices += map(add, bi, repeat(j * c))
                values += bv if a == 1 else [a * b for b in bv]
                continue
            for bi_k, bv_k in brows or (brows := _sparse_rows(other)):
                for j, a in zip(ai, av):
                    indices += map(add, bi_k, repeat(j * c))
                    values += bv_k if a == 1 else [a * b for b in bv_k]
                offsets.append(len(values))
        return _trusted(rows, cols, tuple(offsets), tuple(indices), tuple(values))


_new = object.__new__
_set_rows, _set_cols, _set_offsets, _set_indices, _set_values = (
    getattr(IntMatrix, f).__set__ for f in IntMatrix._fields
)


def _trusted(rows, cols, offsets, indices, values) -> IntMatrix:
    """An IntMatrix built from canonical fields this module computed,
    without the checks of the public constructors.  Each field is set
    through its slot, so the matrix has no ``__dict__``."""
    m = _new(IntMatrix)
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_offsets(m, offsets)
    _set_indices(m, indices)
    _set_values(m, values)
    return m


@lru_cache(maxsize=256)
def _eye(rows: int, cols: int) -> IntMatrix:
    """The ``rows x cols`` matrix ``[I | 0]``, for ``rows <= cols``; one
    object per shape, which is safe since matrices are immutable."""
    return _trusted(rows, cols, _offsets(rows, True), tuple(range(rows)), (1,) * rows)


def _leads_with_identity(a: IntMatrix) -> bool:
    """Whether the first ``a.rows`` columns of a are the identity: row i
    starts with a 1 in column i, and its next nonzero, if any, lies past
    those columns."""
    m, o, idx, vals = a.rows, a.offsets, a.indices, a.values
    return m <= a.cols and all(
        o[i] < o[i + 1]
        and idx[o[i]] == i
        and vals[o[i]] == 1
        and (o[i] + 1 == o[i + 1] or idx[o[i] + 1] >= m)
        for i in range(m)
    )


@lru_cache(maxsize=None)
def _offsets(rows: int, one_per_row: bool) -> tuple[int, ...]:
    """The offsets of a matrix with no nonzero, or with one in each row:
    one tuple per row count, shared by all such matrices."""
    return tuple(range(rows + 1)) if one_per_row else (0,) * (rows + 1)


def _shared(offsets: list, indices: list, values: list) -> tuple[tuple, tuple, tuple]:
    """The fields as tuples, with the offsets shared where ``_offsets`` applies."""
    r, offsets = len(offsets) - 1, tuple(offsets)
    if not values or (len(values) == r and offsets == _offsets(r, True)):
        offsets = _offsets(r, bool(values))
    return offsets, tuple(indices), tuple(values)


def _sparse_rows(m: IntMatrix) -> list[tuple[tuple, tuple]]:
    """``(indices, values)`` of each row of m."""
    o, idx, vals = m.offsets, m.indices, m.values
    return [(idx[a:b], vals[a:b]) for a, b in zip(o, o[1:])]


def _from_row_lists(rows, ncols: int, check=False) -> IntMatrix:
    """The matrix of the dense rows; with ``check``, as at the public
    boundary, each entry is checked (in row-major order) as it is read."""
    offsets, indices, values = [0], [], []
    for row in rows:
        for j, x in enumerate(row):
            if check and type(x) is not int:
                _check_ints((x,), "matrix entries")
            if x:
                indices.append(j)
                values.append(x)
        offsets.append(len(values))
    return _trusted(len(rows), ncols, *_shared(offsets, indices, values))


def _uniform(lists, length: int | None, kind: str) -> tuple[list[list], int]:
    """The rows or columns as lists, and their common length (``length``,
    or 0, when there are none)."""
    lists = [list(x) for x in lists]
    size = len(lists[0]) if lists else (0 if length is None else length)
    if any(len(x) != size for x in lists):
        raise ValueError(f"ragged {kind}")
    if length is not None and lists and size != length:
        raise ValueError(f"{kind} have length {size}, expected {length}")
    _check_size(size)
    return lists, size


def _from_column_lists(cols: list[list[int]], nrows: int) -> IntMatrix:
    return _from_row_lists(list(zip(*cols)) if cols else [()] * nrows, len(cols))


def _check_ints(values, what: str) -> None:
    for t in dict.fromkeys(map(type, values)):  # each type once, first seen first
        if t is not int and (not issubclass(t, int) or issubclass(t, bool)):
            raise TypeError(f"{what} must be Python ints, got {t.__name__}")


def _check_types(values, cls, what: str) -> None:
    """``_check_ints`` for values that must be cls, asked once a record constructor's field read fails."""
    for value in values:
        if not isinstance(value, cls):
            raise TypeError(f"{what} must be of type {cls.__name__}, got {type(value).__name__}")


def _check_height(m: IntMatrix, rows: int) -> None:
    if m.rows != rows:
        raise ValueError(f"columns of length {m.rows} for a lattice in Z^{rows}")


def _check_size(n) -> None:
    if type(n) is not int:
        _check_ints((n,), "matrix dimensions")
    if n < 0:
        raise ValueError("matrix dimensions must be nonnegative")


def _int_vector(vec) -> tuple[int, ...]:
    """vec as a tuple, checked like matrix entries."""
    vec = tuple(vec)
    _check_ints(vec, "vector entries")
    return vec


def block_diagonal(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    top = a.hstack(IntMatrix.zeros(a.rows, b.cols))
    bot = IntMatrix.zeros(b.rows, a.cols).hstack(b)
    return top.vstack(bot)


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b) >= 0``.

    >>> extended_gcd(12, -8)
    (4, -1, -2)
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# -- Smith normal form ------------------------------------------------------


class SmithDecomposition(_Frozen, fields=("s", "row_ops", "col_ops")):
    """Unimodular U, V and diagonal S with ``U @ A @ V == S``.

    The diagonal is nonnegative, each entry divides the next, and zeros come
    last.  The elimination keeps S and the operations that reached it: the
    row operations (``row_ops``, which make U) and the column operations
    (``col_ops``, which make V, replayed as row operations on its
    transpose).  U, U⁻¹ and V are replayed on sparse rows the first time
    they are read and then kept, so a question that reads neither
    (``diagonal``, ``rank``) builds neither, and ``kernel`` and ``solve``
    take their columns from the replayed columns of V without building V.
    ``solve`` and ``contains_all`` answer for a matrix of columns from one
    product with U.
    """

    def __init__(self, s: IntMatrix, row_ops: tuple, col_ops: tuple):
        self._set_fields(s, row_ops, col_ops)

    @_memoised
    def u(self) -> IntMatrix:
        return _identity_after(self.s.rows, self.row_ops)

    @_memoised
    def u_inverse(self) -> IntMatrix:
        """U⁻¹: the row operations undone, last first, on the identity.  A
        swap and a negation undo themselves; adding q times a row is undone
        by adding -q times it."""
        undo = [(*op[:3], -op[3]) if op[0] is _add_row else op for op in reversed(self.row_ops)]
        return _identity_after(self.s.rows, undo)

    @_memoised
    def v(self) -> IntMatrix:
        return _from_dict_columns(self._v_columns, self.s.cols)

    @_memoised
    def _v_columns(self) -> list[dict[int, int]]:
        return _replay(self.s.cols, self.col_ops)

    def diagonal(self) -> tuple[int, ...]:
        """S's nonzeros are its nonzero diagonal entries, in order, and its
        zeros come last."""
        s = self.s
        return s.values + (0,) * (min(s.rows, s.cols) - len(s.values))

    def rank(self) -> int:
        return len(self.s.values)

    def kernel(self) -> IntMatrix:
        """A basis of the integer kernel ``{x : A x = 0}``: the columns of V
        past the rank, from the replayed columns without V.  For ``[I | R]``
        they are ``[-R; I]``."""
        return _from_dict_columns(self._v_columns[self.rank() :], self.s.cols)

    def contains_all(self, m: IntMatrix) -> bool:
        """Whether every column of m lies in the column lattice of A.

        Rows with invariant factor 1, which come first, need no check
        (``_divisible``), so only the rows of U past them are read.
        """
        _check_height(m, self.s.rows)
        return self._divisible(self.past_units()[0] @ m, self.s.values.count(1))

    def past_units(self) -> tuple[IntMatrix, tuple[int, ...]]:
        """The rows of U past the unit invariant factors, and the factors past
        them: the rows and divisors of the test ``contains_all`` makes."""
        ones = self.s.values.count(1)
        return self.u.take_rows(range(ones, self.s.rows)), self.s.values[ones:]

    def solve(self, b: IntMatrix) -> IntMatrix | None:
        """X with ``A @ X == b``, or None when some column of b is not in the
        column lattice of A.  With Y = ``U @ b`` divided by S's diagonal,
        ``S @ Y == U @ b`` and X = ``V @ Y``; Y is zero past the rank, so X
        reads only V's first ``rank`` replayed columns."""
        _check_height(b, self.s.rows)
        ub = self.u @ b
        if not self._divisible(ub, 0):
            return None
        r, o = self.rank(), ub.offsets
        quotients = (v // d for d, (_, vals) in zip(self.s.values, _sparse_rows(ub)) for v in vals)
        y = _trusted(r, b.cols, o[: r + 1], ub.indices[: o[r]], tuple(quotients))
        return _from_dict_columns(self._v_columns[:r], self.s.cols) @ y

    def _divisible(self, ub: IntMatrix, first: int) -> bool:
        """Whether ub, the rows of ``U @ b`` from ``first`` on, is divisible
        row by row by S's diagonal (past the rank, zero): the one test of
        whether the columns of b lie in the column lattice."""
        r, diag = self.rank(), self.s.values  # S's nonzeros are its diagonal
        rows = enumerate(_sparse_rows(ub), first)
        return not any(vals and (i >= r or any(v % diag[i] for v in vals)) for i, (_, vals) in rows)


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _add_dense(m, dst, src, q):
    """Row dst += q * row src, in place, over the nonzero entries of row src."""
    if q:
        row = m[dst]
        for k, b in enumerate(m[src]):
            if b:
                row[k] += q * b


def _add_row(m, dst, src, q):
    """``_add_dense`` on sparse rows (dicts); an entry that cancels is dropped."""
    if q:
        row = m[dst]
        for k, b in m[src].items():
            x = row.get(k, 0) + q * b
            if x:
                row[k] = x
            else:
                del row[k]


def _negate_row(m, i):
    m[i] = {k: -x for k, x in m[i].items()}


def _replay(n, ops) -> list[dict[int, int]]:
    """The sparse rows of the n x n identity after the operations ``(op, *args)``."""
    rows = [{i: 1} for i in range(n)]
    for op in ops:
        op[0](rows, *op[1:])
    return rows


def _identity_after(n, row_ops) -> IntMatrix:
    """The n x n identity after the row operations, built from the sparse
    rows of their replay; with none, the shared identity."""
    if not row_ops:
        return _eye(n, n)
    rows = [sorted(row.items()) for row in _replay(n, row_ops)]
    pairs, offsets = [*chain(*rows)], [0, *accumulate(map(len, rows))]
    return _trusted(n, n, *_shared(offsets, [j for j, _ in pairs], [x for _, x in pairs]))


def _from_dict_columns(columns: list[dict[int, int]], nrows: int) -> IntMatrix:
    """The matrix with the columns ``columns``, in one pass over them in order."""
    indices, values = [[] for _ in range(nrows)], [[] for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col.items():
            indices[i].append(j)
            values[i].append(x)
    offsets = [0, *accumulate(map(len, values))]
    return _trusted(nrows, len(columns), *_shared(offsets, [*chain(*indices)], [*chain(*values)]))


def _least_entry(s, t):
    """Position of the first entry of least nonzero absolute value in the
    block ``s[t:][t:]``, scanned row by row; None if the block is zero.  An
    entry of absolute value 1 ends the scan, since only a strictly smaller
    one could replace it."""
    best, at = 0, None
    for i in range(t, len(s)):
        row = s[i]
        for j in range(t, len(row)):
            e = row[j]
            if e and (best == 0 or abs(e) < best):
                best, at = abs(e), (i, j)
                if best == 1:
                    return at
    return at


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form, computed afresh on each call; U and V are built
    when first read (see ``SmithDecomposition``).

    The elimination runs row operations on a list of rows, recorded for U,
    and column operations, recorded for V as row operations on its
    transpose.  Adding a multiple of column t touches only the rows
    (``live``) with a nonzero in column t: row t alone after the row pass,
    until a column swap moves nonzeros under the pivot, which collects the
    list again.  S is written from its diagonal.  On ``[I | R]`` every pivot
    is the 1 already on the diagonal and clears its row by column operations
    alone, so U = I, S = [I | 0] and V = [[I, -R], [0, I]].  A presented
    group keeps the decomposition of its relations memoised
    (``FpAbGroup.smith``), and a homomorphism that of
    ``[matrix | target relations]`` (``AbHom.smith``).

    >>> smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).diagonal()
    (2, 4)
    """
    m, n = a.rows, a.cols
    s = a.to_rows()
    row_ops, col_ops = [], []

    for t in range(min(m, n)):
        at = _least_entry(s, t)
        if at is None:
            break
        pi, pj = at
        if pi != t:
            _swap_rows(s, t, pi)
            row_ops.append((_swap_rows, t, pi))
        if pj != t:
            for row in s[t:]:
                row[t], row[pj] = row[pj], row[t]
            col_ops.append((_swap_rows, t, pj))
        while True:
            dirty = True
            while dirty:
                dirty = False
                for i in range(t + 1, m):
                    if s[i][t]:
                        q = s[i][t] // s[t][t]
                        _add_dense(s, i, t, -q)
                        row_ops.append((_add_row, i, t, -q))
                        if s[i][t]:  # nonzero remainder becomes the smaller pivot
                            _swap_rows(s, t, i)
                            row_ops.append((_swap_rows, t, i))
                            dirty = True
            top = s[t]
            live = [top]
            dirty = True
            while dirty:
                dirty = False
                for j in range(t + 1, n):
                    if top[j]:
                        q = top[j] // top[t]
                        for row in live:
                            row[j] -= q * row[t]
                        col_ops.append((_add_row, j, t, -q))
                        if top[j]:
                            for row in s[t:]:
                                row[t], row[j] = row[j], row[t]
                            live = [row for row in s[t:] if row[t]]
                            col_ops.append((_swap_rows, t, j))
                            dirty = True
            if len(live) > 1:
                continue  # a column swap disturbed the cleared column
            # make the pivot divide everything that remains, so the final
            # diagonal automatically forms a divisibility chain
            piv = top[t]
            if piv in (1, -1):  # a unit divides everything
                break
            viol = next((i for i in range(t + 1, m) if any(s[i][j] % piv for j in range(t + 1, n))), None)
            if viol is None:
                break
            _add_dense(s, t, viol, 1)
            row_ops.append((_add_row, t, viol, 1))
        if s[t][t] < 0:  # the pivot is all that is left of row t
            s[t][t] = -s[t][t]
            row_ops.append((_negate_row, t))

    diag = [x for t in range(min(m, n)) if (x := s[t][t])]
    r = len(diag)
    offsets = [*range(r + 1), *repeat(r, m - r)]
    return SmithDecomposition(_trusted(m, n, *_shared(offsets, range(r), diag)), tuple(row_ops), tuple(col_ops))


# -- Hermite normal form -----------------------------------------------------


def hermite_normal_form(a: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form H of A: ``A @ U == H`` for some
    unimodular U, which is not built.

    H is the canonical lower column echelon form (positive pivots, entries
    left of a pivot reduced into [0, pivot), zero columns last), so two
    matrices span the same column lattice iff their H agree.  Computed
    afresh on each call.

    The column reduction runs on the transpose of H, so that each column
    operation is a row operation on a list.

    >>> hermite_normal_form(IntMatrix.from_rows([[2, 3]]))
    IntMatrix([[1, 0]])
    """
    m, n = a.rows, a.cols
    h = a.transpose().to_rows()  # h[j] is column j of H
    pc = 0  # next pivot column
    for r in range(m):
        if pc == n:
            break
        while True:
            nz = [j for j in range(pc, n) if h[j][r]]
            if not nz:
                break
            jmin = min(nz, key=lambda j: (abs(h[j][r]), j))
            if jmin != pc:
                _swap_rows(h, pc, jmin)
            done = True
            for j in range(pc + 1, n):
                if h[j][r]:
                    q = h[j][r] // h[pc][r]
                    _add_dense(h, j, pc, -q)
                    if h[j][r]:
                        done = False
            if done:
                break
        if h[pc][r] == 0:
            continue  # no pivot in this row
        if h[pc][r] < 0:
            h[pc] = [-x for x in h[pc]]
        piv = h[pc][r]
        for l in range(pc):  # reduce earlier columns: 0 <= h[r][l] < pivot
            q = h[l][r] // piv
            _add_dense(h, l, pc, -q)
        pc += 1
    return _from_column_lists(h, m)


def lattice_basis(a: IntMatrix) -> IntMatrix:
    """Canonical basis of the column lattice (nonzero Hermite columns)."""
    h = hermite_normal_form(a)
    return h.take_columns(sorted(set(h.indices)))


def _reduce_columns(a: IntMatrix, basis: IntMatrix) -> IntMatrix:
    """Each column of a reduced modulo the column lattice of ``basis``.

    ``basis`` is a Hermite basis (``lattice_basis``): the first nonzero
    entry of column j is positive and sits in row r_j, with r_0 < r_1 < ....
    Subtracting multiples of the basis columns in that order brings row r_j
    of every column into [0, pivot) without disturbing the rows already
    reduced, so columns congruent modulo the lattice reduce to the same one.

    >>> _reduce_columns(IntMatrix.from_rows([[7, -1], [9, 4]]),
    ...                 IntMatrix.from_columns([(2, 1), (0, 3)], rows=2))
    IntMatrix([[1, 1], [0, 2]])
    """
    cols = a.transpose().to_rows()
    for idx, vals in _sparse_rows(basis.transpose()):
        r, piv = idx[0], vals[0]
        for col in cols:
            q = col[r] // piv
            if q:
                for i, b in zip(idx, vals):
                    col[i] -= q * b
    return _from_column_lists(cols, a.rows)


def _cycle_orbit(m: IntMatrix, k: int) -> tuple[IntMatrix, IntMatrix] | None:
    """``(m^k, 1 + m + ... + m^(k-1))`` of a signed permutation m (one ±1 in each row
    and column) from its cycles, or None.  Row i of m^t ends t steps of the walk
    i → ``indices[i]``, times their signs; on a cycle of length L (a fixed point has
    L = 1) and sign product σ, offset r recurs ⌈(k − r)/L⌉ times below k: that count
    if σ = 1, else its parity.  A row visits only the offsets it holds: O(n + nnz of
    the norm), times log L where it holds only some of its cycle (k < L, or σ = −1)."""
    n, idx, vals = m.rows, m.indices, m.values
    if k and m == (eye := _eye(n, n)):  # all fixed points, all signs 1: itself, and k times itself
        return eye, _trusted(n, n, eye.offsets, idx, (k,) * n)
    if m.offsets != _offsets(n, True) or not (m.cols == n == len(vals) == len({*idx}) and {*vals} <= {1, -1}):
        return None
    power_j, power_v, norm_j, norm_v = [0] * n, [0] * n, [None] * n, [None] * n
    for start in range(n):
        if norm_j[start] is not None:
            continue
        cycle = [start]
        while idx[cycle[-1]] != start:
            cycle.append(idx[cycle[-1]])
        size, cycle = len(cycle), cycle * 2
        signs = [*accumulate(map(vals.__getitem__, cycle), mul, initial=1)]  # of t steps from cycle[0]
        turns, phase = divmod(k, size)  # ⌈(k − r)/L⌉ = turns + (r < phase); parity if σ = −1
        counts = [(turns + (r < phase)) & (1 if signs[size] < 0 else -1) for r in range(size)]
        live = [r for r in range(size) if counts[r]]  # the offsets each row of the norm holds
        order = sorted(range(size), key=cycle.__getitem__) if len(live) == size else None
        for s, i in enumerate(cycle[:size]):
            power_j[i], power_v[i] = cycle[s + phase], signs[s] * signs[s + phase] * signs[size] ** (turns & 1)
            # row i's offsets by column: all of them from the cycle's positions by column, else sorted here
            steps = [(q - s) % size for q in order] if order else sorted(live, key=lambda r: cycle[s + r])
            norm_j[i] = [cycle[s + r] for r in steps]
            norm_v[i] = [signs[s] * signs[s + r] * counts[r] for r in steps]
    norm = _shared([0, *accumulate(map(len, norm_j))], [*chain(*norm_j)], [*chain(*norm_v)])
    return _trusted(n, n, _offsets(n, True), tuple(power_j), tuple(power_v)), _trusted(n, n, *norm)


def solve_linear(a: IntMatrix, b) -> tuple[int, ...] | None:
    """An integer solution x of ``A x = b``, or None: the vector form of
    ``SmithDecomposition.solve``, from a fresh Smith form of a.

    >>> solve_linear(IntMatrix.from_rows([[2, 4], [6, 8]]), (2, 10))
    (3, -1)
    >>> solve_linear(IntMatrix.from_rows([[2]]), (3,)) is None
    True
    """
    x = smith_normal_form(a).solve(IntMatrix.column_vector(_int_vector(b)))
    return None if x is None else x.entries


def lattice_contains(a: IntMatrix, vec) -> bool:
    """Whether vec lies in the column lattice of a, read from a fresh Smith
    form of a (``SmithDecomposition.contains_all``)."""
    return smith_normal_form(a).contains_all(IntMatrix.column_vector(vec))


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns forming a basis of the integer kernel ``{x : A x = 0}``.

    >>> kernel_basis(IntMatrix.from_rows([[1, 2, 3]])).cols
    2
    """
    return smith_normal_form(a).kernel()
