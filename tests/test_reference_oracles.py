"""The fast linear-algebra kernel against naive reference implementations.

Powers and norms are compared with the p-step loops (on torsion modules, as
maps, since the orbit is reduced modulo the relations), also for the
signed permutations whose orbit is written from their cycles, sparse
products (rows that cancel among them) with a dense triple loop, and
batched lattice membership with one ``solve_linear`` per column.  The
operation-count test pins the logarithmic cost in p.  The Smith transforms
replayed from the recorded operations are compared with an elimination that
updates them at each step, the row-operation Hermite form
with the column-operation version in the test helpers, and the Smith diagonal
of dense matrices with the Bareiss determinant.  The Kronecker-built Frobenius relations are compared with the
hand-indexed loop, and the isomorphism search with a brute force over both
tiers that decides every morphism condition and bijectivity by equalities
of lattices in the test helpers, not by the library's membership test or
its criterion.  The certificate of ``invert``,
written from the input's own witness by box functoriality, is compared
with the isomorphism that the search finds from the box product onto
burnside(p).  The library's one bijectivity test (``abgroup._bijective``),
which asks a well-defined onto map only for equal invariant factors, is
compared with injectivity read from a fresh kernel lattice
(``helpers.preimage_gens``); since the search gates its bottom maps on that
test alone, every bottom map its gate sees is shown well defined and
equivariant by equalities of lattices.
"""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mackeybox.intlin import (
    IntMatrix,
    _reduce_columns,
    hermite_normal_form,
    lattice_basis,
    smith_normal_form,
    solve_linear,
)
from mackeybox.abgroup import (
    AbHom,
    FpAbGroup,
    _bijective,
    _check_action,
    coinvariants,
    direct_sum,
    invariant_factors,
    tensor_product,
)
from mackeybox.mackey import (
    GSet,
    MackeyFunctor,
    MackeyMorphism,
    action_norm,
    box_product,
    burnside,
    check_axioms,
    is_mackey_isomorphism,
    orbit_functor,
    permutation_functor,
    twisted_burnside,
    unit_isomorphism,
)
from mackeybox.separation import (
    FOUND,
    NOT_ISOMORPHIC,
    UNKNOWN,
    _bounded_points,
    _morphism_lattice,
    invert,
    phi_functor,
    try_find_isomorphism,
)

from helpers import (
    PRIMES,
    column_hermite,
    det,
    pad_functor,
    pad_group,
    preimage_gens,
    random_functor,
    random_presentation,
    same_lattice,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


# -- naive oracles --------------------------------------------------------------


def dense_matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    flat = []
    for i in range(a.rows):
        for j in range(b.cols):
            total = 0
            for k in range(a.cols):
                total += a.entries[i * a.cols + k] * b.entries[k * b.cols + j]
            flat.append(total)
    return IntMatrix(a.rows, b.cols, tuple(flat))


def dense_apply(a: IntMatrix, vec) -> tuple[int, ...]:
    return tuple(sum(a.entries[i * a.cols + k] * vec[k] for k in range(a.cols)) for i in range(a.rows))


def loop_power(m: IntMatrix, k: int) -> IntMatrix:
    out = IntMatrix.identity(m.rows)
    for _ in range(k):
        out = dense_matmul(m, out)
    return out


def loop_norm(m: IntMatrix, p: int) -> IntMatrix:
    total = IntMatrix.zeros(m.rows, m.rows)
    power = IntMatrix.identity(m.rows)
    for _ in range(p):
        total = total + power
        power = dense_matmul(m, power)
    return total


# -- strategies -------------------------------------------------------------------


def sparse_entries(size, zeros=3, entry=9):
    """Integer tuples of the given size; an entry is zero with odds above
    ``zeros`` to one."""
    values = tuple(range(-entry, entry + 1))
    value = st.sampled_from((0,) * (zeros * len(values)) + values)
    return st.lists(value, min_size=size, max_size=size).map(tuple)


@st.composite
def matrices(draw, rows=None, cols=None, max_dim=6, entry=9):
    r = draw(st.integers(0, max_dim)) if rows is None else rows
    c = draw(st.integers(0, max_dim)) if cols is None else cols
    return IntMatrix(r, c, draw(sparse_entries(r * c, entry=entry)))


@st.composite
def square_pairs(draw):
    """A small square matrix and a small prime."""
    n = draw(st.integers(0, 3))
    m = IntMatrix(n, n, draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n).map(tuple)))
    return m, draw(st.sampled_from(SMALL_PRIMES))


@st.composite
def torsion_modules(draw):
    """(Z/d)^n modulo the cyclic submodule of a random v under a random
    matrix gamma, with a small prime.  By Cayley-Hamilton v, gamma·v, ...,
    gamma^(n-1)·v span a gamma-stable lattice, so gamma is well defined."""
    n = draw(st.integers(1, 3))
    d = draw(st.integers(2, 12))
    gamma = IntMatrix(n, n, draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n).map(tuple)))
    cols = [[d if i == j else 0 for i in range(n)] for j in range(n)]
    v = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    for _ in range(n):
        cols.append(v)
        v = list(gamma.apply(v))
    group = FpAbGroup(n, IntMatrix.from_columns(cols, rows=n))
    return AbHom(group, group, gamma), draw(st.sampled_from(SMALL_PRIMES))


# -- powers and norms ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(square_pairs(), torsion_modules())
def test_power_and_norm_equal_the_loops(case, torsion_case):
    """Matrix for matrix on a free module; as maps on a torsion module, whose
    orbit is reduced modulo the relations."""
    m, p = case
    g = FpAbGroup.free(m.rows)
    gamma = AbHom(g, g, m)
    assert gamma.power(p).matrix == loop_power(m, p)
    assert gamma.power(p - 1).matrix == loop_power(m, p - 1)
    assert action_norm(gamma, p).matrix == loop_norm(m, p)
    gamma, p = torsion_case
    g, m = gamma.source, gamma.matrix
    for k in (p, p - 1):
        assert gamma.power(k).equals(AbHom(g, g, loop_power(m, k)))
    assert action_norm(gamma, p).equals(AbHom(g, g, loop_norm(m, p)))


def test_power_and_norm_small_exponents():
    g = FpAbGroup.free(2)
    gamma = AbHom(g, g, IntMatrix.from_rows([[1, 1], [0, 1]]))
    for k in range(0, 40):
        assert gamma.power(k).matrix == loop_power(gamma.matrix, k)
        assert action_norm(gamma, k).matrix == loop_norm(gamma.matrix, k)


def test_the_order_check_agrees_with_the_loop_power():
    """``_check_action`` accepts exactly the p with gamma^p = 1 by the loop,
    for actions of order 1, 2, 3, 4, 5 (the companion matrix of the 5th
    cyclotomic polynomial, which needs n = 4 = p - 1), 6 and infinite order
    on free modules, at every p from 1 to 13 and at composite p up to 120.
    It forms gamma^d for d = gcd(p, lcm{e : φ(e) ≤ n}) instead of gamma^p."""
    actions = [
        [[1]], [[-1]], [[2]], [[0, 1], [1, 0]], [[0, -1], [1, 0]], [[0, -1], [1, -1]],
        [[1, -1], [1, 0]], [[1, 1], [0, 1]], [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
        [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]],
    ]
    for rows in actions:
        m = IntMatrix.from_rows(rows)
        g = FpAbGroup.free(m.rows)
        for p in (*range(1, 14), 14, 15, 16, 18, 20, 24, 30, 36, 45, 60, 72, 120):
            try:
                _check_action(g, AbHom(g, g, m), p)
            except ValueError as exc:
                assert str(exc) == f"the action does not have order dividing {p}"
                assert loop_power(m, p) != IntMatrix.identity(m.rows), (rows, p)
            else:
                assert loop_power(m, p) == IntMatrix.identity(m.rows), (rows, p)


@st.composite
def signed_permutation_modules(draw):
    """A random signed permutation gamma of size <= 8 on Z^n, either free or
    modulo the gamma-orbits of a few random vectors (so gamma is well
    defined), and an exponent k <= 40."""
    n = draw(st.integers(0, 8))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, 1, -1)), min_size=n, max_size=n))
    m = IntMatrix.from_rows([[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)], cols=n)
    cols = []
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        v = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
        for _ in range(2 * math.lcm(*range(1, n + 1))):  # gamma^(2 lcm) = 1 closes the orbit
            if v in cols:
                break
            cols.append(v)
            v = list(m.apply(v))
    g = FpAbGroup(n, IntMatrix.from_columns(cols, rows=n))
    return AbHom(g, g, m), draw(st.integers(0, 40))


def free_signed_permutation(rows, k):
    """The signed permutation with the given rows on a free module, and k."""
    g = FpAbGroup.free(len(rows))
    return AbHom(g, g, IntMatrix.from_rows(rows, cols=len(rows))), k


FIXED_POINTS_ALONE = [[1, 0], [0, -1]]
FIXED_POINTS_BESIDE_A_CYCLE = [[1, 0, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, -1], [0, 0, 1, 0, 0]]


@settings(max_examples=120, deadline=None)
@given(signed_permutation_modules())
@example(free_signed_permutation(FIXED_POINTS_ALONE, 0))  # fixed points of sign 1 and -1
@example(free_signed_permutation(FIXED_POINTS_ALONE, 1))
@example(free_signed_permutation(FIXED_POINTS_ALONE, 2))
@example(free_signed_permutation(FIXED_POINTS_ALONE, 3))
@example(free_signed_permutation([[-1]], 2))
@example(free_signed_permutation(FIXED_POINTS_BESIDE_A_CYCLE, 0))  # the same beside a 3-cycle
@example(free_signed_permutation(FIXED_POINTS_BESIDE_A_CYCLE, 1))
@example(free_signed_permutation(FIXED_POINTS_BESIDE_A_CYCLE, 2))
@example(free_signed_permutation(FIXED_POINTS_BESIDE_A_CYCLE, 3))
def test_the_cycle_walk_equals_the_loops(case):
    """The orbit of a signed permutation, written from its cycles, against
    the k-fold multiply-and-add: equal as matrices on a free module, and
    after reduction modulo the Hermite basis of the relations otherwise.
    The examples put fixed points of both signs, which the walk takes as
    cycles of length 1, alone and beside a longer cycle, at k = 0 to 3."""
    gamma, k = case
    m, rel = gamma.matrix, gamma.source.relations
    power, norm = gamma.orbit(k)
    if not rel.cols:
        assert (power.matrix, norm.matrix) == (loop_power(m, k), loop_norm(m, k))
    else:
        basis = lattice_basis(rel)
        assert _reduce_columns(power.matrix, basis) == _reduce_columns(loop_power(m, k), basis)
        assert _reduce_columns(norm.matrix, basis) == _reduce_columns(loop_norm(m, k), basis)


@pytest.mark.parametrize("k", (101, 10**12 + 39))
def test_the_cycle_walk_telescopes_at_large_k(k):
    """(gamma - 1) N = gamma^k - 1, by dense products, for signed
    permutations with cycles of both sign products."""
    rng = random.Random(k)
    for n in range(1, 9):
        perm = rng.sample(range(n), n)
        m = IntMatrix.from_rows([[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)])
        g = FpAbGroup.free(n)
        power, norm = AbHom(g, g, m).orbit(k)
        eye = IntMatrix.identity(n)
        assert dense_matmul(m - eye, norm.matrix) == power.matrix - eye


# -- sparse products -------------------------------------------------------------------


@st.composite
def product_pairs(draw):
    r, k, c = (draw(st.integers(0, 7)) for _ in range(3))
    return draw(matrices(rows=r, cols=k)), draw(matrices(rows=k, cols=c))


@st.composite
def cancelling_pairs(draw):
    """a @ b where b repeats some of its rows, possibly negated, and a gives
    the copies coefficients that cancel, among them many 1s and -1s."""
    k, c = draw(st.integers(1, 5)), draw(st.integers(0, 8))
    b_rows = [list(draw(sparse_entries(c, zeros=1))) for _ in range(k)]
    copies = [draw(st.integers(0, k - 1)) for _ in range(draw(st.integers(0, 4)))]
    flips = [draw(st.sampled_from((1, -1))) for _ in copies]
    b_rows += [[f * x for x in b_rows[i]] for i, f in zip(copies, flips)]
    a_rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = list(draw(sparse_entries(len(b_rows), zeros=1, entry=1)))
        if copies and draw(st.booleans()):  # cancel a copy against its original
            j = draw(st.integers(0, len(copies) - 1))
            coef = draw(st.sampled_from((1, -1, 3)))
            row = [0] * len(b_rows)
            row[copies[j]], row[k + j] = coef, -coef * flips[j]
        a_rows.append(row)
    return IntMatrix.from_rows(a_rows, cols=len(b_rows)), IntMatrix.from_rows(b_rows, cols=c)


@settings(max_examples=300, deadline=None)
@given(st.one_of(product_pairs(), cancelling_pairs()))
def test_sparse_matmul_equals_dense(pair):
    a, b = pair
    assert a @ b == dense_matmul(a, b)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sparse_apply_equals_dense(data):
    a = data.draw(matrices())
    vec = data.draw(sparse_entries(a.cols, zeros=1))
    assert a.apply(vec) == dense_apply(a, vec)


# -- batched membership -------------------------------------------------------------------


@st.composite
def membership_cases(draw):
    n = draw(st.integers(0, 4))
    rel = draw(matrices(rows=n, max_dim=4, entry=6))
    # columns in the lattice (combinations of the relations) mixed with
    # arbitrary ones, so both answers occur
    cols = []
    for _ in range(draw(st.integers(0, 3))):
        if rel.cols and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=rel.cols, max_size=rel.cols))
            cols.append(rel.apply(coeffs))
        else:
            cols.append(draw(sparse_entries(n, zeros=1, entry=6)))
    return rel, IntMatrix.from_columns(cols, rows=n)


@settings(max_examples=200, deadline=None)
@given(membership_cases())
@example((IntMatrix.zeros(3, 0), IntMatrix.zeros(3, 2)))  # no relations: zero columns are members
@example((IntMatrix.zeros(3, 0), IntMatrix.from_columns([(0, 0, 0), (0, 2, 0)], rows=3)))  # others are not
@example((IntMatrix.from_rows([[2, 0], [0, 3]]), IntMatrix.zeros(2, 0)))  # no query columns
def test_lattice_contains_all_equals_solve_per_column(case):
    rel, m = case
    expected = all(solve_linear(rel, m.column(j)) is not None for j in range(m.cols))
    assert smith_normal_form(rel).contains_all(m) == expected


@st.composite
def solve_cases(draw):
    """A (up to 5x5, entries in [-5, 5]), X0 with a few columns, and one more
    arbitrary column c of A's height."""
    m, n, k = (draw(st.integers(0, 5)) for _ in range(3))
    entries = st.integers(-5, 5)
    a = IntMatrix(m, n, tuple(draw(st.lists(entries, min_size=m * n, max_size=m * n))))
    x0 = IntMatrix(n, k, tuple(draw(st.lists(entries, min_size=n * k, max_size=n * k))))
    c = IntMatrix.column_vector(draw(st.lists(entries, min_size=m, max_size=m)))
    return a, x0, c


@settings(max_examples=200, deadline=None)
@given(solve_cases())
def test_matrix_solve_answers_every_column_at_once(case):
    """``solve(A @ X0)`` is some X with ``A @ X == A @ X0``; one more column
    that ``contains_all`` rejects makes the answer None; and each column of
    an answer is the one ``solve_linear`` gives for that column alone."""
    a, x0, c = case
    dec = smith_normal_form(a)
    b = a @ x0
    x = dec.solve(b)
    assert (x.rows, x.cols) == (a.cols, b.cols) and a @ x == b
    for j in range(b.cols):
        assert solve_linear(a, b.column(j)) == x.column(j)
    wider = dec.solve(b.hstack(c))
    if dec.contains_all(c):
        assert a @ wider == b.hstack(c)
    else:
        assert wider is None and solve_linear(a, c.column(0)) is None


# -- Smith transforms built when first read -------------------------------------------------


def eager_smith(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """``(U, S, V)`` by the elimination with both transforms updated at each
    step, as ``intlin`` built them before it recorded the operations."""
    m, n = a.rows, a.cols
    s = a.to_rows()
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    vt = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # row j is column j of V

    def swap(rows, i, j):
        rows[i], rows[j] = rows[j], rows[i]

    def add(rows, dst, src, q):
        rows[dst] = [x + q * y for x, y in zip(rows[dst], rows[src])]

    for t in range(min(m, n)):
        block = [(abs(s[i][j]), i, j) for i in range(t, m) for j in range(t, n) if s[i][j]]
        if not block:
            break
        _, pi, pj = min(block)
        if pi != t:
            swap(s, t, pi)
            swap(u, t, pi)
        if pj != t:
            for row in s[t:]:
                row[t], row[pj] = row[pj], row[t]
            swap(vt, t, pj)
        while True:
            dirty = True
            while dirty:
                dirty = False
                for i in range(t + 1, m):
                    if s[i][t]:
                        q = s[i][t] // s[t][t]
                        add(s, i, t, -q)
                        add(u, i, t, -q)
                        if s[i][t]:
                            swap(s, t, i)
                            swap(u, t, i)
                            dirty = True
            dirty = True
            while dirty:
                dirty = False
                for j in range(t + 1, n):
                    if s[t][j]:
                        q = s[t][j] // s[t][t]
                        for row in s[t:]:
                            row[j] -= q * row[t]
                        add(vt, j, t, -q)
                        if s[t][j]:
                            for row in s[t:]:
                                row[t], row[j] = row[j], row[t]
                            swap(vt, t, j)
                            dirty = True
            if any(s[i][t] for i in range(t + 1, m)):
                continue
            piv = s[t][t]
            if piv in (1, -1):
                break
            viol = next((i for i in range(t + 1, m) if any(s[i][j] % piv for j in range(t + 1, n))), None)
            if viol is None:
                break
            add(s, t, viol, 1)
            add(u, t, viol, 1)
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
    return (
        IntMatrix(m, m, tuple(itertools.chain(*u))),
        IntMatrix(m, n, tuple(itertools.chain(*s))),
        IntMatrix(n, n, tuple(itertools.chain(*vt))).transpose(),
    )


@st.composite
def box_shaped(draw, values=(1, -1)):
    """Sparse matrices shaped like ``[tr | top relations]`` of a box product:
    up to 12 x 30, each entry one of ``values`` with odds of 5, 10 or 20 %,
    and half of them led by an identity block (whose pivots are the 1s on
    its diagonal and clear their rows by column operations alone).  Their replays meet
    entries that cancel to zero, negated rows and rows with one nonzero;
    with entries in ±{1, 2, 3} the pivots need not be units, so column
    passes leave remainders and swap columns."""
    rng = draw(st.randoms(use_true_random=False))
    rows, cols, fill = draw(st.integers(1, 12)), draw(st.integers(1, 30)), draw(st.sampled_from((0.05, 0.1, 0.2)))
    a = IntMatrix(rows, cols, tuple(rng.choice(values) if rng.random() < fill else 0 for _ in range(rows * cols)))
    return IntMatrix.identity(rows).hstack(a) if draw(st.booleans()) else a


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(max_dim=7), box_shaped(), box_shaped(values=(1, -1, 2, -2, 3, -3))))
@example(IntMatrix.from_rows([[2, 0], [0, 3]]))
def test_replayed_transforms_equal_the_eager_elimination(a):
    """The example reaches a column pass that swaps columns while a row
    below the pivot is nonzero in the new column t: 3 is not a multiple of
    2, so row 1 is added to row 0, the remainder 1 of [2, 3] is swapped into
    column 0, and the 3 of row 1 comes with it, so the next column operation
    must update row 1 as well as the pivot row."""
    dec = smith_normal_form(a)
    assert (dec.u, dec.s, dec.v) == eager_smith(a)
    assert dec.u @ a @ dec.v == dec.s
    assert dec.u_inverse @ dec.u == IntMatrix.identity(a.rows)


def test_each_question_builds_only_the_transforms_it_reads():
    """The diagonal and the rank build no transform, the kernel only the
    columns of V (not U, nor V as a matrix), membership only U, and a
    solution U and the columns of V."""

    def built(dec):
        return {t for t in ("u", "v", "_v_columns") if t in dec.__dict__}

    torsion = IntMatrix.from_columns([(2, 0, 0), (0, 4, 0)], rows=3)  # Z/2 + Z/4 + Z
    unimodular = IntMatrix.from_rows([[2, 3], [1, 2]])
    for a in (torsion, unimodular, torsion.transpose()):
        dec = smith_normal_form(a)
        dec.diagonal(), dec.rank()
        assert built(dec) == set()
        assert dec.kernel() == dec.v.take_columns(range(dec.rank(), a.cols))
        dec = smith_normal_form(a)
        dec.kernel()
        assert built(dec) == {"_v_columns"}
    dec = smith_normal_form(torsion)
    assert dec.contains_all(IntMatrix.from_columns([(2, 4, 0)], rows=3))
    assert not dec.contains_all(IntMatrix.from_columns([(2, 2, 0)], rows=3))
    assert built(dec) == {"u"}
    dec = smith_normal_form(unimodular)  # invariant factors 1, 1: every column is a member
    assert dec.contains_all(IntMatrix.from_columns([(5, -7)], rows=2))
    assert built(dec) == {"u"}
    dec = smith_normal_form(torsion)
    assert dec.solve(IntMatrix.column_vector((2, 8, 0))) == IntMatrix.column_vector((1, 2))
    assert built(dec) == {"u", "_v_columns"}


@settings(max_examples=150, deadline=None)
@given(matrices(max_dim=7))
def test_row_operation_hermite_equals_the_column_version(a):
    h, u = column_hermite(a)
    assert hermite_normal_form(a) == h
    assert a @ u == h


def test_dense_smith_diagonal_is_the_determinant():
    """Uniform dense n x n matrices, n <= 12, entries in [-9, 9]: the product
    of the Smith diagonal, read without building U or V, is |det| (Bareiss), and a rank-deficient
    matrix has a zero on its diagonal.  No timing bound: the coefficients of
    this elimination grow fast on dense input."""
    for n in range(1, 13):
        rng = random.Random(n)
        a = IntMatrix(n, n, tuple(rng.randint(-9, 9) for _ in range(n * n)))
        diag = smith_normal_form(a).diagonal()
        assert math.prod(diag) == abs(det(a))
        if n < 2:
            continue
        rows = a.to_rows()
        rows[-1] = [3 * x - 2 * y for x, y in zip(rows[0], rows[-2])]
        deficient = IntMatrix.from_rows(rows)
        diag = smith_normal_form(deficient).diagonal()
        assert det(deficient) == 0 and diag[-1] == 0


# -- cost in p ------------------------------------------------------------------------------


def test_check_axioms_uses_logarithmically_many_products(monkeypatch):
    """``check_axioms(burnside(p))`` makes at most 5 * bit_length(p) matrix
    products; the p-step loops made more than 2p.  Burnside's action is the
    identity, whose orbit needs no product, so the action [[6]] on Z/5 pins
    the doubling pass, with its products reduced modulo the relations."""
    calls = []
    original = IntMatrix.__matmul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(IntMatrix, "__matmul__", counting)
    for p in (5, 1000000007):
        calls.clear()
        assert check_axioms(burnside(p)) == ()
        assert 0 < len(calls) <= 5 * p.bit_length()
    z5 = FpAbGroup.cyclic(5)
    six = IntMatrix.from_rows([[6]])
    for p in (5, 1000000007):
        built = orbit_functor(p, z5, AbHom(z5, z5, six))
        # a fresh action, so the orbit memoised while building is not read
        m = MackeyFunctor(p, built.top, z5, AbHom(z5, z5, six), built.res, built.tr)
        calls.clear()
        assert check_axioms(m) == ()
        assert 2 * (p.bit_length() - 1) <= len(calls) <= 5 * p.bit_length()
        assert all(0 <= e < 5 for e in m.res.matrix.entries)


# -- orbits reduced modulo the relations ---------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(torsion_modules())
def test_reduced_orbit_equals_the_exact_one(case):
    """On a torsion module the orbit is reduced modulo the relations: it
    equals the exact p-step power and norm as maps, and its entries lie in
    [0, d) because the relations contain d times every generator."""
    gamma, p = case
    g = gamma.source
    assert gamma.is_well_defined()
    power, norm = gamma.orbit(p)
    assert power.equals(AbHom(g, g, loop_power(gamma.matrix, p)))
    assert norm.equals(AbHom(g, g, loop_norm(gamma.matrix, p)))
    d = g.relations.at(0, 0)
    if gamma.matrix != IntMatrix.identity(g.ngens):
        assert all(0 <= e < d for m in (power, norm) for e in m.matrix.entries)


# -- Frobenius relations of the box product ---------------------------------------------------


def loop_box_top(m: MackeyFunctor, n: MackeyFunctor) -> FpAbGroup:
    """The top tier of box(m, n) with one hand-indexed vector per Frobenius
    relation: a ⊗ tr(y) - t(res(a) ⊗ y), then tr(x) ⊗ b - t(x ⊗ res(b))."""
    bt = tensor_product(m.bottom, n.bottom)
    gamma = AbHom(bt, bt, m.gamma.matrix.kron(n.gamma.matrix))
    coinv, _ = coinvariants(bt, gamma, m.p)
    tt = tensor_product(m.top, n.top)
    nt, nb = tt.ngens, bt.ngens
    frobenius = []
    for i in range(m.top.ngens):
        for l in range(n.bottom.ngens):
            v = [0] * (nt + nb)
            for j in range(n.top.ngens):
                v[i * n.top.ngens + j] += n.tr.matrix.at(j, l)
            for k in range(m.bottom.ngens):
                v[nt + k * n.bottom.ngens + l] -= m.res.matrix.at(k, i)
            frobenius.append(v)
    for k in range(m.bottom.ngens):
        for j in range(n.top.ngens):
            v = [0] * (nt + nb)
            for i in range(m.top.ngens):
                v[i * n.top.ngens + j] += m.tr.matrix.at(i, k)
            for l in range(n.bottom.ngens):
                v[nt + k * n.bottom.ngens + l] -= n.res.matrix.at(l, j)
            frobenius.append(v)
    base = direct_sum(tt, coinv)
    return FpAbGroup(base.ngens, base.relations.hstack(IntMatrix.from_columns(frobenius, rows=nt + nb)))


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(PRIMES))
def test_frobenius_block_equals_the_loop(rng, p):
    m, n = random_functor(rng, p), random_functor(rng, p)
    assert box_product(m, n).top == loop_box_top(m, n)


# -- the isomorphism search ----------------------------------------------------------------------


def bijective_by_lattices(f: AbHom) -> bool:
    """Whether a well-defined f is bijective, decided from ``helpers`` alone
    and not by the library's criterion (``abgroup._bijective``): onto when
    ``[matrix | target relations]`` spans Z^target.ngens, injective when the
    preimage of the target relations lies in the source relations, each an
    equality of lattices (``same_lattice``)."""
    source, target = f.source.relations, f.target.relations
    if not same_lattice(f.matrix.hstack(target), IntMatrix.identity(f.target.ngens)):
        return False
    return same_lattice(source, source.hstack(preimage_gens(f.matrix, target)))


def in_lattice(relations: IntMatrix, defect: IntMatrix) -> bool:
    """Whether every column of defect lies in the column lattice of
    relations: ``[relations | defect]`` spans the same lattice as relations
    (``same_lattice``), so the library's membership test is not read."""
    return same_lattice(relations, relations.hstack(defect))


def bottom_is_a_morphism(m: MackeyFunctor, n: MackeyFunctor, b: IntMatrix) -> bool:
    """Whether the bottom matrix b is well defined and equivariant, each
    decided by ``in_lattice`` on its defect matrix."""
    bottom = n.bottom.relations
    return in_lattice(bottom, b @ m.bottom.relations) and in_lattice(bottom, b @ m.gamma.matrix - n.gamma.matrix @ b)


def brute_force_iso(m: MackeyFunctor, n: MackeyFunctor, bound: int):
    """The first isomorphism M → N with entries in [-bound, bound]: bottoms
    and then tops in lexicographic order, every condition checked directly.
    A candidate's tier maps are well defined, the bottom is equivariant and
    both squares commute, each decided by ``in_lattice`` on its defect
    matrix, and both tier maps are bijective by ``bijective_by_lattices``."""
    values = range(-bound, bound + 1)
    rb, cb, rt, ct = n.bottom.ngens, m.bottom.ngens, n.top.ngens, m.top.ngens
    bottom, top = n.bottom.relations, n.top.relations
    for flat_b in itertools.product(values, repeat=rb * cb):
        b = IntMatrix(rb, cb, flat_b)
        if not bottom_is_a_morphism(m, n, b):
            continue
        phi_b = AbHom(m.bottom, n.bottom, b)
        if not bijective_by_lattices(phi_b):
            continue
        for flat_t in itertools.product(values, repeat=rt * ct):
            t = IntMatrix(rt, ct, flat_t)
            phi_t = AbHom(m.top, n.top, t)
            if (in_lattice(top, t @ m.top.relations)
                    and in_lattice(bottom, n.res.matrix @ t - b @ m.res.matrix)
                    and in_lattice(top, n.tr.matrix @ b - t @ m.tr.matrix)
                    and bijective_by_lattices(phi_t)):
                return MackeyMorphism(m, n, phi_t, phi_b)
    return None


def shear(rng, size: int) -> tuple[IntMatrix, IntMatrix]:
    """A random elementary unimodular matrix and its inverse."""
    eye = IntMatrix.identity(size)
    if size < 2:
        return eye, eye
    i, j = rng.sample(range(size), 2)
    c = rng.choice((-1, 1))
    e = IntMatrix(size, size, tuple(c if (r, k) == (i, j) else 0 for r in range(size) for k in range(size)))
    return eye + e, eye - e


def base_change(m: MackeyFunctor, rng) -> MackeyFunctor:
    """An isomorphic functor: both tiers in a sheared basis."""
    ut, ut_inv = shear(rng, m.top.ngens)
    ub, ub_inv = shear(rng, m.bottom.ngens)
    top = FpAbGroup(m.top.ngens, ut @ m.top.relations)
    bottom = FpAbGroup(m.bottom.ngens, ub @ m.bottom.relations)
    return MackeyFunctor(
        m.p,
        top,
        bottom,
        AbHom(bottom, bottom, ub @ m.gamma.matrix @ ub_inv),
        AbHom(top, bottom, ub @ m.res.matrix @ ut_inv),
        AbHom(bottom, top, ut @ m.tr.matrix @ ub_inv),
    )


def search_pair(rng, p: int, related: bool) -> tuple[MackeyFunctor, MackeyFunctor]:
    """A random functor and, when related, an isomorphic one in a sheared
    basis, else another random functor; both tiers within 2 generators."""
    m = random_functor(rng, p, max_gens=2)
    return m, base_change(m, rng) if related else random_functor(rng, p, max_gens=2)


def search_bound(m: MackeyFunctor, n: MackeyFunctor) -> int:
    """2 for at most 4 unknown entries, else 1: at most 625 (bottom, top)
    pairs for the brute force."""
    return 2 if m.bottom.ngens * n.bottom.ngens + m.top.ngens * n.top.ngens <= 4 else 1


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from((2, 3)), st.booleans())
def test_iso_search_equals_brute_force(rng, p, related):
    m, n = search_pair(rng, p, related)
    bound = search_bound(m, n)
    result = try_find_isomorphism(m, n, bound)
    if result.status == NOT_ISOMORPHIC:
        assert invariant_factors(m.top) != invariant_factors(n.top) or (
            invariant_factors(m.bottom) != invariant_factors(n.bottom)
        )
        return
    expected = brute_force_iso(m, n, bound)
    assert result.status == (UNKNOWN if expected is None else FOUND)
    assert result.witness == expected


_Z3 = FpAbGroup.cyclic(3)
M1, M2 = (  # Z/3 on both tiers at p = 3 with γ = 1: res = 1 and tr = 0, or res = 0 and tr = 1
    MackeyFunctor(3, _Z3, _Z3, AbHom.identity(_Z3), AbHom(_Z3, _Z3, IntMatrix.from_rows([[r]])),
                  AbHom(_Z3, _Z3, IntMatrix.from_rows([[1 - r]])))
    for r in (1, 0)
)
_Z3_2 = FpAbGroup(2, IntMatrix.from_rows([[3, 0], [0, 3]]))
UNIPOTENT = MackeyFunctor(  # (Z/3)² at p = 3 under [[1, 1], [0, 1]], top 0: only equivariance cuts its bottom maps
    3, FpAbGroup.trivial(), _Z3_2, AbHom(_Z3_2, _Z3_2, IntMatrix.from_rows([[1, 1], [0, 1]])),
    AbHom.zero(FpAbGroup.trivial(), _Z3_2), AbHom.zero(_Z3_2, FpAbGroup.trivial()),
)


@settings(max_examples=150, deadline=None)
@given(st.builds(search_pair, st.randoms(use_true_random=False), st.sampled_from((2, 3)), st.booleans()))
@example((M1, M1))
@example((M1, M2))
@example((UNIPOTENT, UNIPOTENT))
def test_every_bottom_map_the_search_gates_is_a_morphism(pair):
    """The search's gate asks a bottom map only whether it is bijective
    (``abgroup._bijective``), which presumes it well defined: every head of
    a point of the morphism lattice the gate sees is well defined and
    equivariant by ``bottom_is_a_morphism``, not by the library's membership
    test.  The gate sees each head once whatever it answers, so it answers
    no and the walk yields nothing."""
    m, n = pair
    head, seen = n.bottom.ngens * m.bottom.ngens, []

    def gate(flat):
        seen.append(IntMatrix(n.bottom.ngens, m.bottom.ngens, flat))
        return False

    assert list(_bounded_points(_morphism_lattice(m, n), search_bound(m, n), head, gate)) == []
    assert all(bottom_is_a_morphism(m, n, b) for b in seen)


@settings(max_examples=100, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.sampled_from((2, 3, 5, 7)),
    st.integers(-30, 30),
    st.sampled_from(("canonical", "sheared", "padded")),
)
def test_invert_certificate_is_the_searched_isomorphism(rng, p, d, how):
    """An isomorphism onto burnside(p) is fixed by its bottom map up to an
    automorphism of burnside(p); for odd p those are ±1, so the certificate
    is ± the one isomorphism the search finds within its largest entry.  At
    p = 2 there are four, so there the certificate need only be one."""
    if d % p == 0:
        d += 1
    m = twisted_burnside(p, d)
    m = base_change(m, rng) if how == "sheared" else pad_functor(m, rng) if how == "padded" else m
    inverse, certificate = invert(m)
    product = box_product(m, inverse)
    assert certificate.source == product and certificate.target == burnside(p)
    assert is_mackey_isomorphism(certificate)
    if p == 2:
        return
    maps = (certificate.phi_top.matrix, certificate.phi_bottom.matrix)
    bound = max(abs(x) for a in maps for x in a.entries)
    result = try_find_isomorphism(product, burnside(p), bound)
    assert result.status == FOUND
    found = (result.witness.phi_top.matrix, result.witness.phi_bottom.matrix)
    assert maps in (found, tuple(a.scaled(-1) for a in found))


def test_invert_certificates_of_a_canonical_and_a_padded_functor():
    """The certificates, entry for entry, that inverting wrote when it
    classified the box product itself."""
    inverse, certificate = invert(twisted_burnside(5, 2))
    assert inverse == twisted_burnside(5, 3)
    assert certificate.phi_top.matrix.to_rows() == [[1, 0, 0, 0, 0], [1, 2, 3, 5, 1]]
    assert certificate.phi_bottom.matrix.to_rows() == [[1]]
    inverse, certificate = invert(pad_functor(twisted_burnside(7, 3), random.Random(4)))
    assert inverse == twisted_burnside(7, 5)
    assert certificate.phi_top.matrix.to_rows() == [[1, 0, 0, 0, -2, 0, 0, 0], [2, 3, 5, 7, -9, -13, 1, -3]]
    assert certificate.phi_bottom.matrix.to_rows() == [[1, -3]]


def test_equivariant_bottom_maps_are_the_circulants():
    """The morphisms of permutation_functor(3, GSet(0, 1)) to itself: a
    circulant bottom map f, and on the top Z (the orbit sum) the sum of f's
    entries; within bound 2, in lexicographic order."""
    m = permutation_functor(3, GSet(0, 1))
    found = list(_bounded_points(_morphism_lattice(m, m), 2))
    expected = [
        (*(f[(i - j) % 3] for i in range(3) for j in range(3)), sum(f))
        for f in itertools.product(range(-2, 3), repeat=3)
        if abs(sum(f)) <= 2
    ]
    assert len(found) == 85
    assert found == sorted(expected)
    result = try_find_isomorphism(m, m, 2)
    assert result.status == FOUND
    assert is_mackey_isomorphism(result.witness)


# -- bijectivity by invariant factors ---------------------------------------------------------


def small_matrix(rng, rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, tuple(rng.randint(-2, 2) for _ in range(rows * cols)))


@st.composite
def well_defined_maps(draw):
    """A map between ``helpers.random_presentation`` groups, made well
    defined in one of three ways: the source's relations cut to a random
    sublattice of the preimage of the target's (injective or not), the
    target's enlarged by the images of the source's (onto or not), or a
    shear onto the sheared presentation of the source, plus target
    relations (an isomorphism)."""
    rng = draw(st.randoms(use_true_random=False))
    a, b = random_presentation(rng), random_presentation(rng)
    m = small_matrix(rng, b.ngens, a.ngens)
    how = draw(st.sampled_from(("sublattice", "quotient", "shear")))
    if how == "sublattice":
        pre = preimage_gens(m, b.relations)
        return AbHom(FpAbGroup(a.ngens, pre @ small_matrix(rng, pre.cols, rng.randint(0, 3))), b, m)
    if how == "quotient":
        return AbHom(a, FpAbGroup(b.ngens, b.relations.hstack(m @ a.relations)), m)
    u = shear(rng, a.ngens)[0] @ shear(rng, a.ngens)[0]
    sheared = FpAbGroup(a.ngens, u @ a.relations)
    return AbHom(a, sheared, u + sheared.relations @ small_matrix(rng, sheared.relations.cols, a.ngens))


@st.composite
def endomorphisms(draw):
    """A random matrix on a ``helpers.random_presentation`` group, well
    defined or not: onto and well defined, it is an isomorphism (a finitely
    generated abelian group is Hopfian)."""
    rng = draw(st.randoms(use_true_random=False))
    g = random_presentation(rng)
    return AbHom(g, g, small_matrix(rng, g.ngens, g.ngens))


Z, Z2 = FpAbGroup.free(1), FpAbGroup.cyclic(2)
PADDED, ONTO_ITS_GROUP, _ = pad_group(FpAbGroup(2, IntMatrix.from_rows([[2, 0], [0, 4]])), (1, -3))


@settings(max_examples=300, deadline=None)
@given(st.one_of(well_defined_maps(), endomorphisms()))
@example(AbHom(Z, Z, IntMatrix.from_rows([[2]])))  # equal invariant factors, not onto
@example(AbHom(Z, Z2, IntMatrix.from_rows([[1]])))  # onto, not injective
@example(AbHom(direct_sum(Z, Z2), Z, IntMatrix.from_rows([[1, 0]])))  # onto by construction, not injective
@example(ONTO_ITS_GROUP)  # onto by construction, an isomorphism
def test_an_onto_map_between_groups_with_equal_invariant_factors_is_an_isomorphism(f):
    injective = f.source.contains_all(preimage_gens(f.matrix, f.target.relations))
    assert (f.is_well_defined() and _bijective(f)) == (f.is_well_defined() and f.is_surjective() and injective)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_a_projection_onto_both_tiers_is_not_a_mackey_isomorphism_and_a_padded_unit_is(p):
    """The projection onto Phi(burnside(p)) is onto on both tiers but kills
    the transfer's image; the unit of a padded functor, whose top map leads
    with the identity, is an isomorphism."""
    projection = phi_functor(burnside(p))[1]
    assert projection.phi_top.is_surjective() and projection.phi_bottom.is_surjective()
    assert not is_mackey_isomorphism(projection)
    padded = pad_functor(pad_functor(twisted_burnside(p, 1), random.Random(p)), random.Random(p + 1))
    assert is_mackey_isomorphism(unit_isomorphism(padded))
