"""Exact linear algebra over the integers.

Matrices are immutable, row-major, and hold arbitrary-precision Python ints,
so nothing here can overflow.  Throughout the package a matrix acts on column
vectors: ``A @ B`` means "apply B, then A", and the *column lattice* of a
matrix is the set of integer combinations of its columns.

Entries are checked once, where they come in: the public constructors
(``IntMatrix(...)``, ``from_rows``, ``from_columns``, ``column_vector``) and
the vectors handed to ``apply`` and ``solve_linear`` accept only Python ints,
not bools.  A matrix this module computes from checked matrices (products,
sums, stacks, transposes, row and column selections, identities and the
outputs of the eliminations) is built by ``_trusted``, which skips the
per-entry check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from math import gcd
from operator import add, mul, neg, sub


@dataclass(frozen=True)
class IntMatrix:
    """An immutable ``rows x cols`` integer matrix, stored row-major.

    >>> a = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> a @ a
    IntMatrix([[7, 10], [15, 22]])
    >>> a.apply((1, 0))
    (1, 3)
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        _check_size(self.rows)
        _check_size(self.cols)
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        _check_ints(self.entries, "matrix entries")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows, cols: int | None = None) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        else:
            width = 0 if cols is None else cols
        if cols is not None and rows and width != cols:
            raise ValueError(f"rows have length {width}, expected {cols}")
        return cls(len(rows), width, tuple(chain.from_iterable(rows)))

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> "IntMatrix":
        columns = [list(c) for c in columns]
        if columns:
            height = len(columns[0])
            if any(len(c) != height for c in columns):
                raise ValueError("ragged columns")
        else:
            height = 0 if rows is None else rows
        if rows is not None and columns and height != rows:
            raise ValueError(f"columns have length {height}, expected {rows}")
        return cls(height, len(columns), tuple(chain.from_iterable(zip(*columns))))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        _check_size(n)
        return _trusted(n, n, _eye_entries(n, n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        _check_size(rows)
        _check_size(cols)
        return _trusted(rows, cols, (0,) * (rows * cols))

    @classmethod
    def column_vector(cls, vec) -> "IntMatrix":
        vec = tuple(vec)
        return cls(len(vec), 1, vec)

    # -- access ------------------------------------------------------------

    def at(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside [0, {self.rows})")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside [0, {self.cols})")
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def take_rows(self, indices) -> "IntMatrix":
        return _from_row_lists([self.row(i) for i in indices], self.cols)

    def take_columns(self, indices) -> "IntMatrix":
        return _from_column_lists([self.column(j) for j in indices], self.rows)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __repr__(self):
        return f"IntMatrix({self.to_rows()})"

    # -- arithmetic ---------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Product that skips zeros: each nonzero ``a[i][k]`` adds
        ``a[i][k]`` times the nonzero entries of row k of ``other``."""
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        brows = [[(j, b) for j, b in enumerate(other.row(k)) if b] for k in range(other.rows)]
        flat = []
        for i in range(self.rows):
            out = [0] * other.cols
            for k, a in enumerate(self.row(i)):
                if a:
                    for j, b in brows[k]:
                        out[j] += a * b
            flat.extend(out)
        return _trusted(self.rows, other.cols, tuple(flat))

    def apply(self, vec) -> tuple[int, ...]:
        """The image of a column vector, as a tuple; zero entries are skipped."""
        vec = _int_vector(vec)
        if len(vec) != self.cols:
            raise ValueError(f"vector of length {len(vec)} for {self.rows}x{self.cols} matrix")
        return tuple(_dot(self.row(i), vec) for i in range(self.rows))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(add, other)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(sub, other)

    def _entrywise(self, op, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return _trusted(self.rows, self.cols, tuple(map(op, self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return _trusted(self.rows, self.cols, tuple(map(neg, self.entries)))

    def scaled(self, k: int) -> "IntMatrix":
        _check_ints((k,), "scale factors")
        return _trusted(self.rows, self.cols, tuple(k * a for a in self.entries))

    def transpose(self) -> "IntMatrix":
        return _trusted(
            self.cols, self.rows, tuple(chain.from_iterable(map(self.column, range(self.cols))))
        )

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        flat = []
        for i in range(self.rows):
            flat.extend(self.row(i))
            flat.extend(other.row(i))
        return _trusted(self.rows, self.cols + other.cols, tuple(flat))

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch in vstack")
        return _trusted(self.rows + other.rows, self.cols, self.entries + other.entries)

    def kron(self, other: "IntMatrix") -> "IntMatrix":
        """Kronecker product: entry at ((i, k), (j, l)) is self[i,j] * other[k,l]."""
        r, c = self.rows * other.rows, self.cols * other.cols
        flat = [0] * (r * c)
        for i in range(self.rows):
            for j in range(self.cols):
                a = self.entries[i * self.cols + j]
                if a == 0:
                    continue
                for k in range(other.rows):
                    base = (i * other.rows + k) * c + j * other.cols
                    orow = other.row(k)
                    for l in range(other.cols):
                        flat[base + l] = a * orow[l]
        return _trusted(r, c, tuple(flat))


def _trusted(rows: int, cols: int, entries: tuple[int, ...]) -> IntMatrix:
    """An IntMatrix built without ``__post_init__``: only for entries this
    module computed as Python ints, in a tuple of length ``rows * cols``."""
    m = object.__new__(IntMatrix)
    m.__dict__.update(rows=rows, cols=cols, entries=entries)
    return m


def _eye_entries(rows: int, cols: int) -> tuple[int, ...]:
    """The row-major entries of the ``rows x cols`` matrix with ones at
    (i, i): a one followed by ``cols`` zeros, repeated, puts the ones
    ``cols + 1`` apart."""
    return (((1,) + (0,) * cols) * rows)[: rows * cols]


def _from_row_lists(rows: list[list[int]], ncols: int) -> IntMatrix:
    return _trusted(len(rows), ncols, tuple(chain.from_iterable(rows)))


def _from_column_lists(cols: list[list[int]], nrows: int) -> IntMatrix:
    return _trusted(nrows, len(cols), tuple(chain.from_iterable(zip(*cols))))


def _check_ints(values, what: str) -> None:
    for e in values:
        if type(e) is not int and (not isinstance(e, int) or isinstance(e, bool)):
            raise TypeError(f"{what} must be Python ints, got {type(e).__name__}")


def _check_size(n) -> None:
    _check_ints((n,), "matrix dimensions")
    if n < 0:
        raise ValueError("matrix dimensions must be nonnegative")


def _int_vector(vec) -> tuple[int, ...]:
    """vec as a tuple, checked like matrix entries."""
    vec = tuple(vec)
    _check_ints(vec, "vector entries")
    return vec


def _dot(row, vec) -> int:
    """The sum of ``row[k] * vec[k]`` over the nonzero entries of row."""
    return sum(map(mul, compress(row, row), compress(vec, row)))


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


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular U, V and diagonal S with ``U @ A @ V == S``.

    The diagonal is nonnegative, each entry divides the next, and zeros come
    last.  The elimination keeps S and the operations that reached it: the
    row operations (``row_ops``, which make U) and the column operations
    (``col_ops``, which make V, replayed as row operations on its
    transpose).  U, U⁻¹ and V are built from them the first time they are
    read and then kept, so a question that reads neither (``diagonal``,
    ``rank``) builds neither, and ``kernel`` takes its columns from the
    replayed columns of V without building V itself.
    """

    s: IntMatrix
    row_ops: tuple
    col_ops: tuple

    @cached_property
    def u(self) -> IntMatrix:
        return _from_row_lists(_replay(self.s.rows, self.row_ops), self.s.rows)

    @cached_property
    def u_inverse(self) -> IntMatrix:
        """U⁻¹: the row operations undone, last first, on the identity.  A
        swap and a negation undo themselves; adding q times a row is undone
        by adding -q times it."""
        undo = [(*op[:3], -op[3]) if op[0] is _add_row else op for op in reversed(self.row_ops)]
        return _from_row_lists(_replay(self.s.rows, undo), self.s.rows)

    @cached_property
    def v(self) -> IntMatrix:
        return _from_column_lists(self._v_columns, self.s.cols)

    @cached_property
    def _v_columns(self) -> list[list[int]]:
        return _replay(self.s.cols, self.col_ops)

    def diagonal(self) -> tuple[int, ...]:
        n = min(self.s.rows, self.s.cols)
        return self.s.entries[:: self.s.cols + 1][:n]

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)

    def kernel(self) -> IntMatrix:
        """A basis of the integer kernel ``{x : A x = 0}``: the columns of V
        past the rank, taken from the replayed columns without building V."""
        return _from_column_lists(self._v_columns[self.rank() :], self.s.cols)

    def contains_all(self, m: IntMatrix) -> bool:
        """Whether every column of m lies in the column lattice of A.

        A column b is in the lattice exactly when each entry of ``U @ b`` is
        divisible by the matching diagonal entry of S (zero past the
        diagonal), so one decomposition answers for all columns.  Rows with
        invariant factor 1 need no check, so U is read only when some
        invariant factor is not 1; with no relations (or no columns to test)
        only zero columns are members.
        """
        if self.s.cols == 0 or m.cols == 0:
            return m.is_zero()
        diag = self.diagonal()
        columns = [m.column(j) for j in range(m.cols)]
        for i in range(self.s.rows):
            d = diag[i] if i < len(diag) else 0
            if d == 1:
                continue
            urow = self.u.row(i)
            for col in columns:
                x = _dot(urow, col)
                if x % d if d else x:  # past the rank (d == 0) the entry must vanish
                    return False
        return True

    def solve(self, b) -> tuple[int, ...] | None:
        """An integer solution x of ``A x = b``, or None (reads U and V)."""
        c = self.u.apply(b)
        diag = self.diagonal()
        y = [0] * self.v.rows
        for i, ci in enumerate(c):
            d = diag[i] if i < len(diag) else 0
            if d:
                if ci % d:
                    return None
                y[i] = ci // d
            elif ci:
                return None
        return self.v.apply(y)


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _add_row(m, dst, src, q):
    """Row dst += q * row src, in place, over the nonzero entries of row src."""
    if q:
        row = m[dst]
        for k, b in enumerate(m[src]):
            if b:
                row[k] += q * b


def _add_multiples(m, src, multiples):
    """Row dst += q * row src for each ``(dst, q)``, finding row src's nonzeros once."""
    srow = m[src]
    support = [(k, srow[k]) for k in compress(range(len(srow)), srow)]
    for dst, q in multiples:
        row = m[dst]
        for k, b in support:
            row[k] += q * b


def _negate_row(m, i):
    m[i] = [-x for x in m[i]]


def _replay(n, ops):
    """The rows of the n x n identity after the operations ``(op, *args)``."""
    rows = _identity_rows(n)
    for op in ops:
        op[0](rows, *op[1:])
    return rows


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


def _identity_rows(n):
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _eliminate(a: IntMatrix) -> SmithDecomposition:
    """The Smith elimination itself.

    Every step is a row operation on a list of rows.  A row operation on S
    is recorded for U.  A column operation on S touches only rows ``t`` and
    below, since the rows above the pivot are already zero in the columns
    that remain, and is recorded for V as a row operation on its transpose.
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
                        _add_row(s, i, t, -q)
                        row_ops.append((_add_row, i, t, -q))
                        if s[i][t]:  # nonzero remainder becomes the smaller pivot
                            _swap_rows(s, t, i)
                            row_ops.append((_swap_rows, t, i))
                            dirty = True
            dirty = True
            while dirty:
                dirty = False
                for j in range(t + 1, n):
                    if s[t][j]:
                        q = s[t][j] // s[t][t]
                        for row in s[t:]:
                            if row[t]:
                                row[j] -= q * row[t]
                        col_ops.append((_add_row, j, t, -q))
                        if s[t][j]:
                            for row in s[t:]:
                                row[t], row[j] = row[j], row[t]
                            col_ops.append((_swap_rows, t, j))
                            dirty = True
            if any(s[i][t] for i in range(t + 1, m)):
                continue  # a column swap disturbed the cleared column
            # make the pivot divide everything that remains, so the final
            # diagonal automatically forms a divisibility chain
            piv = s[t][t]
            if piv in (1, -1):  # a unit divides everything
                break
            viol = None
            for i in range(t + 1, m):
                if any(s[i][j] % piv for j in range(t + 1, n)):
                    viol = i
                    break
            if viol is None:
                break
            _add_row(s, t, viol, 1)
            row_ops.append((_add_row, t, viol, 1))
        if s[t][t] < 0:
            _negate_row(s, t)
            row_ops.append((_negate_row, t))

    return SmithDecomposition(_from_row_lists(s, n), tuple(row_ops), tuple(col_ops))


def _leads_with_identity(a: IntMatrix) -> bool:
    """Whether the first ``a.rows`` columns of a are the identity."""
    m, n, e = a.rows, a.cols, a.entries
    return m <= n and all(
        e[i * n + i] == 1 and not any(e[i * n : i * n + i]) and not any(e[i * n + i + 1 : i * n + m])
        for i in range(m)
    )


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Smith normal form, computed afresh on each call; U and V are built
    when first read (see ``SmithDecomposition``).

    S comes from one fixed sequence of row and column operations
    (``_eliminate``).  A matrix ``[I | R]`` whose first ``rows`` columns are
    the identity gets the result of that sequence without running it: every
    pivot is the 1 already on the diagonal and clears its row by column
    operations alone (recorded as one operation per pivot, which subtracts
    multiples of its column from those of R), so U = I, S = [I | 0] and
    V = [[I, -R], [0, I]].  A presented group keeps the decomposition of its
    relations memoised (``FpAbGroup.smith``), and a homomorphism that of
    ``[matrix | target relations]`` (``AbHom.smith``).

    >>> smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).diagonal()
    (2, 4)
    """
    if not _leads_with_identity(a):
        return _eliminate(a)
    m, n, e = a.rows, a.cols, a.entries
    rows = (e[i * n + m : (i + 1) * n] for i in range(m))  # row i of R
    col_ops = tuple(
        (_add_multiples, i, tuple(zip(compress(range(m, n), r), map(neg, compress(r, r)))))
        for i, r in enumerate(rows)
    )
    return SmithDecomposition(_trusted(m, n, _eye_entries(m, n)), (), col_ops)


# -- Hermite normal form -----------------------------------------------------


def hermite_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form ``(H, U)`` with ``A @ U == H``.

    U is unimodular; H is the canonical lower column echelon form (positive
    pivots, entries left of a pivot reduced into [0, pivot), zero columns
    last), so two matrices span the same column lattice iff their H agree.
    Computed afresh on each call; a presented group keeps the basis of its
    relation lattice memoised (``FpAbGroup.hermite_basis``).

    The column reduction runs on the transposes of H and U, so that each
    column operation is a row operation on a list.

    >>> hermite_normal_form(IntMatrix.from_rows([[2, 3]]))[0]
    IntMatrix([[1, 0]])
    """
    m, n = a.rows, a.cols
    h = [list(a.column(j)) for j in range(n)]  # h[j] is column j of H
    u = _identity_rows(n)  # u[j] is column j of U
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
                _swap_rows(u, pc, jmin)
            done = True
            for j in range(pc + 1, n):
                if h[j][r]:
                    q = h[j][r] // h[pc][r]
                    _add_row(h, j, pc, -q)
                    _add_row(u, j, pc, -q)
                    if h[j][r]:
                        done = False
            if done:
                break
        if h[pc][r] == 0:
            continue  # no pivot in this row
        if h[pc][r] < 0:
            h[pc] = [-x for x in h[pc]]
            u[pc] = [-x for x in u[pc]]
        piv = h[pc][r]
        for l in range(pc):  # reduce earlier columns: 0 <= h[r][l] < pivot
            q = h[l][r] // piv
            _add_row(h, l, pc, -q)
            _add_row(u, l, pc, -q)
        pc += 1
    return _from_column_lists(h, m), _from_column_lists(u, n)


def lattice_basis(a: IntMatrix) -> IntMatrix:
    """Canonical basis of the column lattice (nonzero Hermite columns)."""
    h, _ = hermite_normal_form(a)
    keep = [j for j in range(h.cols) if any(h.column(j))]
    return h.take_columns(keep)


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
    cols = [list(a.column(j)) for j in range(a.cols)]
    for j in range(basis.cols):
        b = basis.column(j)
        r = next(i for i, x in enumerate(b) if x)
        piv = b[r]
        for col in cols:
            q = col[r] // piv
            if q:
                for i in range(r, len(b)):
                    if b[i]:
                        col[i] -= q * b[i]
    return _from_column_lists(cols, a.rows)


def solve_linear(a: IntMatrix, b) -> tuple[int, ...] | None:
    """An integer solution x of ``A x = b``, or None.

    >>> solve_linear(IntMatrix.from_rows([[2, 4], [6, 8]]), (2, 10))
    (3, -1)
    >>> solve_linear(IntMatrix.from_rows([[2]]), (3,)) is None
    True
    """
    b = _int_vector(b)
    if len(b) != a.rows:
        raise ValueError(f"right-hand side of length {len(b)} for {a.rows} rows")
    return smith_normal_form(a).solve(b)


def lattice_contains(a: IntMatrix, vec) -> bool:
    """Whether vec lies in the column lattice of a, read from a fresh Smith
    form of a (``SmithDecomposition.contains_all``)."""
    col = IntMatrix.column_vector(vec)
    if col.rows != a.rows:
        raise ValueError(f"columns of length {col.rows} for a lattice in Z^{a.rows}")
    return smith_normal_form(a).contains_all(col)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Columns forming a basis of the integer kernel ``{x : A x = 0}``.

    >>> kernel_basis(IntMatrix.from_rows([[1, 2, 3]])).cols
    2
    """
    return smith_normal_form(a).kernel()
