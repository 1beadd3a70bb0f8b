"""Every ``IntMatrix`` kernel against a dense reference on lists of rows.

A matrix stores its nonzeros row-compressed (``offsets``, ``indices``,
``values``).  Each kernel below is run on random sparse matrices, 0-row and
0-column shapes included, and its result must equal the dense reference
entry for entry and be canonical: no stored zero, ascending indices, so
equal matrices have equal fields and hashes.
"""

import copy
import pickle
import tracemalloc

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mackeybox import intlin
from mackeybox.intlin import IntMatrix, block_diagonal, smith_normal_form

from helpers import canonical, dense_kron, dense_product, dense_transpose

VALUE = st.sampled_from((0,) * 12 + (1, -1, 2, -3, 5, 10**20))


def dense_rows(r, c):
    return st.lists(st.lists(VALUE, min_size=c, max_size=c), min_size=r, max_size=r)


@st.composite
def shaped(draw, r=None, c=None):
    r = draw(st.integers(0, 5)) if r is None else r
    c = draw(st.integers(0, 5)) if c is None else c
    return draw(dense_rows(r, c)), r, c


def built(rows, c):
    """The matrix of the rows, checked to be canonical and to read back."""
    m = IntMatrix.from_rows(rows, cols=c)
    assert canonical(m, rows) and m.to_rows() == rows
    return m


def same(m: IntMatrix, rows, c):
    """m equals the dense rows, field by field and entry by entry."""
    assert (m.rows, m.cols) == (len(rows), c)
    assert canonical(m, rows)
    twin = IntMatrix(len(rows), c, tuple(x for r in rows for x in r))
    assert m == twin and hash(m) == hash(twin)
    assert m.to_rows() == rows and list(m.entries) == [x for r in rows for x in r]


@settings(max_examples=200, deadline=None)
@given(shaped(), st.data())
def test_access_reads_the_dense_entries(a, data):
    rows, r, c = a
    m = built(rows, c)
    for i in range(r):
        assert m.to_rows()[i] == rows[i]
        for j in range(c):
            assert m.at(i, j) == rows[i][j]
    for j in range(c):
        assert list(m.column(j)) == [row[j] for row in rows]
    assert m.is_zero() == (not any(map(any, rows)))
    same(IntMatrix.from_columns(dense_transpose(rows, c), rows=r), rows, c)
    vec = data.draw(st.lists(VALUE, min_size=c, max_size=c))
    assert list(m.apply(vec)) == [sum(x * y for x, y in zip(row, vec)) for row in rows]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_products_and_kronecker_products(r, n, c, data):
    a = data.draw(dense_rows(r, n))
    b = data.draw(dense_rows(n, c))
    same(built(a, n) @ built(b, c), dense_product(a, b, n) if n else [[0] * c for _ in a], c)
    same(built(a, n).kron(built(b, c)), dense_kron(a, b), n * c)


@settings(max_examples=200, deadline=None)
@given(shaped(), st.data())
def test_entrywise_kernels(a, data):
    rows, r, c = a
    other = data.draw(dense_rows(r, c))
    k = data.draw(VALUE)
    m, o = built(rows, c), built(other, c)
    same(m + o, [[x + y for x, y in zip(p, q)] for p, q in zip(rows, other)], c)
    same(m - o, [[x - y for x, y in zip(p, q)] for p, q in zip(rows, other)], c)
    same(m - m, [[0] * c for _ in rows], c)
    same(-m, [[-x for x in p] for p in rows], c)
    same(m.scaled(k), [[k * x for x in p] for p in rows], c)


def wide_rows(r, width=200):
    """r rows of the given width, each with at most two nonzeros, in columns
    drawn from a few so that two rows are often disjoint, overlap or cancel."""
    columns = st.sampled_from((0, 1, 2, width // 2, width - 1))
    pairs = st.dictionaries(columns, st.sampled_from((1, -1, 2, -2)), max_size=2)
    return st.lists(pairs.map(lambda row: [row.get(j, 0) for j in range(width)]), min_size=r, max_size=r)


def row(**nonzeros):
    """A row of width 200 with the given nonzeros, ``c7=5`` for 5 in column 7."""
    return [nonzeros.get(f"c{j}", 0) for j in range(200)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda r: st.tuples(wide_rows(r), wide_rows(r))))
@example(([row(c3=1, c150=2)], [row(c7=5, c199=-1)]))  # disjoint
@example(([row(c3=1, c150=2)], [row(c3=4, c160=-1)]))  # overlapping in column 3
@example(([row(c3=1, c150=2)], [row(c3=-1, c160=2)]))  # one entry cancels under +
@example(([row(c0=2, c199=1)], [row(c0=2, c5=3)]))  # one entry cancels under -
@example(([row(c3=1, c9=2)], [row(c3=-1, c9=-2)]))  # everything cancels under +
@example(([row()], [row(c5=1, c9=2)]))
@example(([row(c5=1, c9=2)], [row()]))
@example(([row(c3=1, c9=2)], [row(c3=4, c9=-5)]))  # the same pattern, nothing cancels
@example(([row(), row(c0=1, c199=2)], [row(), row()]))  # a zero operand on the right
@example(([row(), row()], [row(c0=1), row(c199=-2)]))  # and on the left
def test_sums_of_rows_with_different_patterns(pair):
    """``+`` and ``-`` merge two rows in one pass down both, whatever their
    patterns: rows up to 3 x 200 with two nonzeros each that are disjoint,
    overlap, share a pattern or cancel to zero, and zero operands, against
    the dense entrywise result."""
    rows, other = pair
    m, o = built(rows, 200), built(other, 200)
    same(m + o, [[x + y for x, y in zip(p, q)] for p, q in zip(rows, other)], 200)
    same(m - o, [[x - y for x, y in zip(p, q)] for p, q in zip(rows, other)], 200)


@settings(max_examples=100, deadline=None)
@given(shaped())
def test_a_product_with_the_shared_identity_is_the_other_factor(a):
    """``IntMatrix.identity`` is one shared object per size, and a product
    with it returns the other factor itself; an identity built by
    ``from_rows`` is an ordinary matrix and gives an equal product."""
    rows, r, c = a
    m = built(rows, c)
    assert m @ IntMatrix.identity(c) is m
    assert IntMatrix.identity(r) @ m is m
    eye_c = IntMatrix.from_rows([[int(i == j) for j in range(c)] for i in range(c)], cols=c)
    eye_r = IntMatrix.from_rows([[int(i == j) for j in range(r)] for i in range(r)], cols=r)
    same(m @ eye_c, rows, c)
    same(eye_r @ m, rows, c)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_a_rectangular_identity_block_is_not_the_identity(n, extra, data):
    """``[I | 0]`` (``intlin._eye(n, n + extra)``) and its transpose have one
    stored value per row, yet a product with them is a real product; the
    test for the shared identity asks ``_eye`` only for square shapes."""
    asked, original = [], intlin._eye

    def eye(rows, cols):
        asked.append((rows, cols))
        return original(rows, cols)

    wide = intlin._eye(n, n + extra)
    tall = wide.transpose()
    left = data.draw(dense_rows(data.draw(st.integers(0, 4)), n))
    right = data.draw(dense_rows(n + extra, data.draw(st.integers(0, 4))))
    width = len(right[0]) if right else 0
    intlin._eye = eye
    try:
        same(built(left, n) @ wide, dense_product(left, wide.to_rows(), n), n + extra)
        same(tall @ built(left, n).transpose(), dense_product(tall.to_rows(), dense_transpose(left, n), n), len(left))
        same(wide @ built(right, width), dense_product(wide.to_rows(), right, n + extra), width)
    finally:
        intlin._eye = original
    assert all(rows == cols for rows, cols in asked)


@settings(max_examples=200, deadline=None)
@given(shaped(), st.data())
def test_stacks_transposes_and_selections(a, data):
    rows, r, c = a
    m = built(rows, c)
    right = data.draw(dense_rows(r, data.draw(st.integers(0, 4))))
    width = len(right[0]) if right else 0
    same(m.hstack(built(right, width)), [p + q for p, q in zip(rows, right)], c + width)
    below = data.draw(dense_rows(data.draw(st.integers(0, 4)), c))
    same(m.vstack(built(below, c)), rows + below, c)
    same(m.transpose(), dense_transpose(rows, c), r)
    picked = data.draw(st.lists(st.integers(0, r - 1), max_size=6)) if r else []
    same(m.take_rows(picked), [rows[i] for i in picked], c)
    picked = data.draw(st.lists(st.integers(0, c - 1), max_size=6)) if c else []
    same(m.take_columns(picked), [[p[j] for j in picked] for p in rows], len(picked))
    assert m.take_rows(range(r)) is m and m.take_columns(range(c)) is m  # all of them, in order
    same(m.take_rows(range(r // 2, r)), rows[r // 2 :], c)
    same(block_diagonal(m, built(below, c)),
         [p + [0] * c for p in rows] + [[0] * c + q for q in below], 2 * c)


@given(st.integers(0, 6), st.integers(0, 6))
@example(3, 4)  # the entries of an all-zero matrix, read from no nonzero
def test_identities_and_zeros(n, c):
    same(IntMatrix.identity(n), [[int(i == j) for j in range(n)] for i in range(n)], n)
    same(IntMatrix.zeros(n, c), [[0] * c for _ in range(n)], c)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_the_closed_form_kernel_is_the_replayed_one(m, extra, data):
    """The kernel of ``[I | R]`` that the elimination reaches by replaying
    V's columns is the closed form ``[-R; I]``."""
    r = data.draw(dense_rows(m, extra))
    a = built([[int(i == j) for j in range(m)] + r[i] for i in range(m)], m + extra)
    assert intlin._leads_with_identity(a)
    closed = built([[-x for x in row] for row in r] + [[int(i == j) for j in range(extra)] for i in range(extra)], extra)
    assert smith_normal_form(a).kernel() == closed


@given(shaped())
def test_pickle_and_copy_rebuild_an_equal_matrix(a):
    rows, _, c = a
    m = built(rows, c)
    for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        same(twin, rows, c)


def test_computed_matrices_keep_no_dict_and_no_more_memory():
    """A product is built without a ``__dict__``, and a thousand of them take
    no more memory than a thousand equal matrices from ``from_rows``.  The
    matrix is large enough (over 20 rows and nonzeros) that its tuples are
    allocated afresh, not taken from CPython's free lists, which tracemalloc
    would not see."""
    n = 24
    a = IntMatrix.from_rows(
        [[(j == (i + 1) % n) + 2 * (j == (i + 5) % n and i % 2) for j in range(n)] for i in range(n)]
    )
    rows = (a @ a).to_rows()
    assert not hasattr(a @ a, "__dict__")

    def traced(build):
        tracemalloc.start()
        try:
            kept = [build() for _ in range(1000)]
            assert len(kept) == 1000
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    assert traced(lambda: a @ a) <= traced(lambda: IntMatrix.from_rows(rows))
