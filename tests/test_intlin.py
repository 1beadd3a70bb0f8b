"""Exact integer linear algebra, cross-checked against independent oracles.

The Smith form invariants are compared with the classical gcd-of-k-minors
formula, which also decides lattice membership, negative answers included;
kernels are compared with a Fraction-based Gaussian elimination; Hermite
lattice membership is decided by an independent triangular solver.
"""

import itertools
import math
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mackeybox.abgroup import FpAbGroup
from mackeybox.intlin import (
    IntMatrix,
    extended_gcd,
    hermite_normal_form,
    kernel_basis,
    lattice_basis,
    lattice_contains,
    smith_normal_form,
    solve_linear,
)

from helpers import canonical, column_hermite, dense_kron, det, same_lattice


def random_matrix(rng, max_dim=6, entry=9):
    m = rng.randint(0, max_dim)
    n = rng.randint(0, max_dim)
    return IntMatrix(m, n, tuple(rng.randint(-entry, entry) for _ in range(m * n)))


# -- oracles ------------------------------------------------------------------


def minor_gcd_invariants(a: IntMatrix) -> list[int]:
    """Nonzero invariant factors via d_1 ... d_k = gcd of all k x k minors."""
    out = []
    prev = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for rows in itertools.combinations(range(a.rows), k):
            for cols in itertools.combinations(range(a.cols), k):
                g = gcd(g, det(a.take_rows(rows).take_columns(cols)))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def fraction_nullspace(a: IntMatrix) -> list[tuple[int, ...]]:
    """Primitive integer spanning vectors of the rational kernel."""
    m, n = a.rows, a.cols
    rows = [[Fraction(a.at(i, j)) for j in range(n)] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for c in free:
        v = [Fraction(0)] * n
        v[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][c]
        denom = 1
        for x in v:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        basis.append(tuple(int(x * denom) for x in v))
    return basis


def hermite_member(h: IntMatrix, vec) -> bool:
    """Membership in the column lattice of a Hermite form, solved triangularly."""
    v = list(vec)
    for j in range(h.cols):
        col = h.column(j)
        lead = next((i for i in range(h.rows) if col[i]), None)
        if lead is None:
            continue
        if v[lead] % col[lead]:
            return False
        q = v[lead] // col[lead]
        for i in range(h.rows):
            v[i] -= q * col[i]
    return all(x == 0 for x in v)


# -- IntMatrix basics ---------------------------------------------------------


def test_matmul_and_apply():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]
    assert a.apply((1, 1)) == (3, 7)


def test_shape_errors():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1]]) @ IntMatrix.from_rows([[1, 2], [3, 4]])
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(IndexError, match=r"\(2, 0\) outside 2x2"):
        a.at(2, 0)
    with pytest.raises(TypeError):
        a @ 3
    with pytest.raises(ValueError, match="vector of length 3 for 2x2 matrix"):
        a.apply((1, 2, 3))
    with pytest.raises(ValueError, match="row count mismatch in hstack"):
        a.hstack(IntMatrix.zeros(3, 1))
    with pytest.raises(ValueError, match="column count mismatch in vstack"):
        a.vstack(IntMatrix.zeros(1, 3))
    with pytest.raises(ValueError, match="rows have length 2, expected 3"):
        IntMatrix.from_rows([[1, 2], [3, 4]], cols=3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntMatrix(1, 1, (1.5,)),
        lambda: IntMatrix.from_rows([[1.5, True]]),
        lambda: IntMatrix.from_rows([[1, True]]),
        lambda: IntMatrix.from_columns([["7"]]),
        lambda: IntMatrix.column_vector([2.0]),
    ],
)
def test_entries_must_be_ints(build):
    # every constructor leaves the check to __post_init__, so none of them
    # rounds a float, reads a string or turns a bool into 1
    with pytest.raises(TypeError):
        build()


def test_kron_indexing():
    a = IntMatrix.from_rows([[2, 3]])
    b = IntMatrix.from_rows([[1], [5]])
    k = a.kron(b)
    assert k.rows == 2 and k.cols == 2
    for i, kk in itertools.product(range(1), range(2)):
        for j, ll in itertools.product(range(2), range(1)):
            assert k.at(i * 2 + kk, j * 1 + ll) == a.at(i, j) * b.at(kk, ll)


def test_det_matches_permutation_expansion():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(0, 4)
        a = IntMatrix(n, n, tuple(rng.randint(-6, 6) for _ in range(n * n)))
        expected = 0
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = sign
            for i in range(n):
                term *= a.at(i, perm[i])
            expected += term
        if n == 0:
            expected = 1
        assert det(a) == expected


def test_extended_gcd():
    rng = random.Random(11)
    for _ in range(200):
        a, b = rng.randint(-99, 99), rng.randint(-99, 99)
        g, x, y = extended_gcd(a, b)
        assert g == gcd(a, b) >= 0
        assert a * x + b * y == g


# -- Smith normal form --------------------------------------------------------


def check_smith(a: IntMatrix):
    dec = smith_normal_form(a)
    assert dec.u @ a @ dec.v == dec.s
    assert abs(det(dec.u)) == 1
    assert abs(det(dec.v)) == 1
    diag = dec.diagonal()
    for i in range(dec.s.rows):
        for j in range(dec.s.cols):
            if i != j:
                assert dec.s.at(i, j) == 0
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert list(diag) == nonzero + [0] * (len(diag) - len(nonzero))
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0
    return dec


def test_smith_known_example():
    dec = check_smith(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert dec.diagonal() == (2, 4)


def test_smith_empty_and_degenerate():
    for a in (IntMatrix.zeros(0, 0), IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0), IntMatrix.zeros(2, 2)):
        check_smith(a)


def test_smith_random_sweep():
    rng = random.Random(2024)
    for _ in range(300):
        check_smith(random_matrix(rng))


def test_smith_invariants_match_minor_gcd_oracle():
    rng = random.Random(5)
    for _ in range(200):
        a = random_matrix(rng, max_dim=4, entry=9)
        dec = smith_normal_form(a)
        nonzero = [d for d in dec.diagonal() if d]
        assert nonzero == minor_gcd_invariants(a)


def in_lattice_by_minors(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether the column b lies in the column lattice of A, from minors
    alone.  L(A) lies in L([A | b]); the two have the same rank r exactly
    when b is in the rational span, and then the index between them is
    d_r(A) / d_r([A | b]), the quotients of the gcds of the r x r minors
    (the products of the nonzero invariant factors)."""
    inside, wider = minor_gcd_invariants(a), minor_gcd_invariants(a.hstack(b))
    return len(inside) == len(wider) and math.prod(inside) == math.prod(wider)


@st.composite
def lattice_and_column(draw):
    """A (up to 4 x 4, entries in [-6, 6]) and a column b of its height: a
    combination of A's columns or an arbitrary column, so both answers occur."""
    n, k = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = st.integers(-6, 6)
    a = IntMatrix(n, k, tuple(draw(st.lists(entries, min_size=n * k, max_size=n * k))))
    if k and draw(st.booleans()):
        b = a.apply(draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k)))
    else:
        b = draw(st.lists(entries, min_size=n, max_size=n))
    return a, IntMatrix.column_vector(b)


@settings(max_examples=300, deadline=None)
@given(lattice_and_column())
@example((IntMatrix.from_rows([[2, 0], [0, 3]]), IntMatrix.column_vector((1, 3))))
@example((IntMatrix.from_rows([[2, 4], [1, 2]]), IntMatrix.column_vector((1, 0))))
def test_membership_answers_agree_with_the_minors_oracle(case):
    """Every membership question, the negative answers too, against
    ``in_lattice_by_minors``, which shares no code with the library's
    eliminations: ``same_lattice(A, [A | b])``, ``FpAbGroup.contains_all``
    (which settles some columns by inspection), and the Smith
    decomposition's ``contains_all`` and ``solve``.  The last three share
    ``SmithDecomposition._divisible``, so this is the check of a column they
    all reject.  The examples are a non-member of full rank and one outside
    the rational span."""
    a, b = case
    member = in_lattice_by_minors(a, b)
    dec = smith_normal_form(a)
    x = dec.solve(b)
    assert same_lattice(a, a.hstack(b)) == member
    assert FpAbGroup(a.rows, a).contains_all(b) == member
    assert dec.contains_all(b) == member
    assert (x is not None) == member
    if member:
        assert a @ x == b


def bump(column, i, negate):
    """The column with entry i negated, or raised by 1."""
    return tuple((-x if negate else x + 1) if j == i else x for j, x in enumerate(column))


@st.composite
def relations_and_query(draw):
    """A group's relations A (up to 4 x 4, entries in [-4, 4]) and a query of
    its height that ``FpAbGroup.contains_all`` may settle without the Smith
    form: A itself, the very object, or columns each of which is a relation
    (negated or not, in any order), zero, a sum of relations, a relation
    with one entry bumped by 1 or negated, or arbitrary."""
    n, k = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    a = IntMatrix(n, k, tuple(draw(st.lists(st.integers(-4, 4), min_size=n * k, max_size=n * k))))
    if draw(st.booleans()):
        return a, a
    relation = st.integers(0, k - 1).map(a.column) if k else st.just((0,) * n)
    signed = st.tuples(relation, st.sampled_from((1, -1))).map(lambda rs: tuple(rs[1] * x for x in rs[0]))
    summed = st.tuples(relation, relation).map(lambda rr: tuple(map(sum, zip(*rr))))
    bumped = st.builds(bump, relation, st.integers(0, max(n - 1, 0)), st.booleans())
    arbitrary = st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(tuple)
    column = st.one_of(signed, st.just((0,) * n), summed, bumped, arbitrary)
    return a, IntMatrix.from_columns(draw(st.lists(column, max_size=5)), rows=n)


@settings(max_examples=300, deadline=None)
@given(relations_and_query())
@example((IntMatrix.from_rows([[2, 0], [0, 3]]),) * 2)
@example((IntMatrix.from_rows([[2, 0], [0, 3]]), IntMatrix.from_rows([[0, -2, 2], [-3, 0, 1]])))
@example((IntMatrix.from_rows([[2], [-3]]), IntMatrix.from_rows([[2], [3]])))
def test_group_membership_shortcuts_agree_with_the_minors_oracle(case):
    """``FpAbGroup.contains_all`` answers the relations object itself by
    identity and signed relations and zero columns by inspection, reading
    columns as the rows of the query's transpose; every answer must be that of
    ``in_lattice_by_minors``, column by column.  The query that is the
    relations is also asked as an equal copy, which goes the long way."""
    a, query = case
    member = all(in_lattice_by_minors(a, query.take_columns([j])) for j in range(query.cols))
    group = FpAbGroup(a.rows, a)
    assert group.contains_all(query) == member
    if query is a:
        assert member and group.contains_all(IntMatrix.from_rows(a.to_rows(), cols=a.cols))


def zero_or_not(shape):
    """A matrix of the shape, zero (stored or built by ``zeros``) or not."""
    r, c = shape
    entries = st.lists(st.integers(-3, 3), min_size=r * c, max_size=r * c).map(tuple)
    return st.one_of(st.just(IntMatrix.zeros(r, c)), entries.map(lambda e: IntMatrix(r, c, e)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_zero_operands_agree_with_the_dense_helpers(data):
    """``+``, ``-`` and ``kron`` with a zero or empty operand on either side
    (``kron`` returns the zero matrix; the sums go through the row merge)
    against entrywise sums and ``dense_kron``."""
    shape = data.draw(st.tuples(st.integers(0, 4), st.integers(0, 4)))
    a, b = data.draw(zero_or_not(shape)), data.draw(zero_or_not(shape))
    ra, rb = a.to_rows(), b.to_rows()
    for got, op in ((a + b, int.__add__), (a - b, int.__sub__), (b - a, lambda x, y: y - x)):
        assert got.cols == shape[1] and canonical(got, [list(map(op, x, y)) for x, y in zip(ra, rb)])
    c = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(zero_or_not))
    for left, right in ((a, c), (c, a), (IntMatrix.identity(1), a), (a, IntMatrix.identity(1))):
        got = left.kron(right)
        assert (got.rows, got.cols) == (left.rows * right.rows, left.cols * right.cols)
        assert canonical(got, dense_kron(left.to_rows(), right.to_rows()))


def test_smith_huge_entries_stay_exact():
    a = IntMatrix.from_rows([[10**30, 1], [1, 10**30]])
    dec = check_smith(a)
    assert dec.diagonal() == (1, 10**60 - 1)


# -- solve / kernel -----------------------------------------------------------


def test_solve_linear_constructed_and_verified():
    rng = random.Random(13)
    solved = 0
    for _ in range(300):
        a = random_matrix(rng, max_dim=5, entry=6)
        x = tuple(rng.randint(-5, 5) for _ in range(a.cols))
        b = a.apply(x)
        got = solve_linear(a, b)
        assert got is not None, "a constructed-solvable system came back unsolvable"
        assert a.apply(got) == b
        solved += 1
        c = tuple(rng.randint(-9, 9) for _ in range(a.rows))
        maybe = solve_linear(a, c)
        if maybe is not None:
            assert a.apply(maybe) == c
    assert solved == 300


def test_solve_linear_rejects():
    assert solve_linear(IntMatrix.from_rows([[2]]), (3,)) is None
    assert solve_linear(IntMatrix.zeros(2, 2), (0, 1)) is None
    assert solve_linear(IntMatrix.zeros(2, 0), (0, 0)) == ()


def test_kernel_basis_spans_and_saturates():
    rng = random.Random(17)
    for _ in range(200):
        a = random_matrix(rng, max_dim=5, entry=7)
        k = kernel_basis(a)
        assert (a @ k).is_zero()
        oracle = fraction_nullspace(a)
        assert k.cols == len(oracle)
        for v in oracle:
            assert solve_linear(k, v) is not None, "kernel basis misses an integer kernel vector"


# -- Hermite normal form ------------------------------------------------------


def check_hermite(a: IntMatrix):
    """H equals the column-operation reference, whose own U is unimodular
    and carries A to H, and H is in canonical echelon form."""
    h = hermite_normal_form(a)
    h_ref, u = column_hermite(a)
    assert h == h_ref
    assert a @ u == h
    assert abs(det(u)) == 1
    pivots = []
    for j in range(h.cols):
        col = h.column(j)
        lead = next((i for i in range(h.rows) if col[i]), None)
        if lead is None:
            assert all(not any(h.column(jj)) for jj in range(j, h.cols)), "zero column before a pivot"
            break
        pivots.append((lead, j))
    rows_seen = [r for r, _ in pivots]
    assert rows_seen == sorted(rows_seen) and len(set(rows_seen)) == len(rows_seen)
    for r, j in pivots:
        piv = h.at(r, j)
        assert piv > 0
        for jj in range(j + 1, h.cols):
            assert h.at(r, jj) == 0
        for jj in range(j):
            assert 0 <= h.at(r, jj) < piv


def test_hermite_canonical_examples():
    assert hermite_normal_form(IntMatrix.from_rows([[2, 3]])).to_rows() == [[1, 0]]
    h1 = hermite_normal_form(IntMatrix.from_rows([[2], [0]]))
    h2 = hermite_normal_form(IntMatrix.from_rows([[-2], [0]]))
    assert h1 == h2


def test_hermite_random_sweep():
    rng = random.Random(23)
    for _ in range(200):
        check_hermite(random_matrix(rng, max_dim=5, entry=8))


def test_hermite_is_lattice_invariant():
    """The same column lattice under unimodular recombination gives the same H."""
    rng = random.Random(29)
    for _ in range(100):
        a = random_matrix(rng, max_dim=4, entry=5)
        cols = a.to_rows()
        b = a
        for _ in range(6):  # random elementary column operations
            if b.cols < 2:
                break
            i, j = rng.sample(range(b.cols), 2)
            q = rng.randint(-3, 3)
            new_cols = [list(b.column(c)) for c in range(b.cols)]
            new_cols[i] = [x + q * y for x, y in zip(new_cols[i], new_cols[j])]
            b = IntMatrix.from_columns(new_cols, rows=b.rows)
        ha = hermite_normal_form(a)
        hb = hermite_normal_form(b)
        assert ha == hb
        for j in range(a.cols):
            assert hermite_member(ha, a.column(j))


def test_lattice_helpers():
    a = IntMatrix.from_columns([(2, 0), (0, 3), (2, 3)], rows=2)
    basis = lattice_basis(a)
    assert basis.cols == 2
    assert lattice_contains(a, (2, 3))
    assert not lattice_contains(a, (1, 0))
    with pytest.raises(ValueError, match="length 3 for a lattice in Z\\^2"):
        lattice_contains(a, (1, 0, 0))
