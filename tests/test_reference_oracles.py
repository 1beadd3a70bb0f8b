"""The fast linear-algebra kernel against naive reference implementations.

Powers and norms are compared with the p-step loops, sparse products with a
dense triple loop, and batched lattice membership with one ``solve_linear``
per column.  The operation-count test pins the logarithmic cost in p.  The
Kronecker-built Frobenius relations are compared with the hand-indexed loop,
and the isomorphism search with a brute force over both tiers.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from mackeybox.intlin import IntMatrix, lattice_contains_all, solve_linear
from mackeybox.abgroup import (
    AbHom,
    FpAbGroup,
    coinvariants,
    direct_sum,
    invariant_factors,
    is_isomorphism,
    quotient_by,
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
    permutation_functor,
)
from mackeybox.separation import (
    FOUND,
    NOT_ISOMORPHIC,
    UNKNOWN,
    _matrix_candidates,
    try_find_isomorphism,
)

from helpers import PRIMES, random_functor

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


# -- powers and norms ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(square_pairs())
def test_power_and_norm_equal_the_loops(case):
    m, p = case
    g = FpAbGroup.free(m.rows)
    gamma = AbHom(g, g, m)
    assert gamma.power(p).matrix == loop_power(m, p)
    assert gamma.power(p - 1).matrix == loop_power(m, p - 1)
    assert action_norm(gamma, p).matrix == loop_norm(m, p)


def test_power_and_norm_small_exponents():
    g = FpAbGroup.free(2)
    gamma = AbHom(g, g, IntMatrix.from_rows([[1, 1], [0, 1]]))
    for k in range(0, 40):
        assert gamma.power(k).matrix == loop_power(gamma.matrix, k)
        assert action_norm(gamma, k).matrix == loop_norm(gamma.matrix, k)


# -- sparse products -------------------------------------------------------------------


@st.composite
def product_pairs(draw):
    r, k, c = (draw(st.integers(0, 7)) for _ in range(3))
    return draw(matrices(rows=r, cols=k)), draw(matrices(rows=k, cols=c))


@settings(max_examples=150, deadline=None)
@given(product_pairs())
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
def test_lattice_contains_all_equals_solve_per_column(case):
    rel, m = case
    expected = all(solve_linear(rel, m.column(j)) is not None for j in range(m.cols))
    assert lattice_contains_all(rel, m) == expected


# -- cost in p ------------------------------------------------------------------------------


def test_check_axioms_uses_logarithmically_many_products(monkeypatch):
    """``check_axioms(burnside(p))`` makes at most 5 * bit_length(p) matrix
    products; the p-step loops made more than 2p."""
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


# -- Frobenius relations of the box product ---------------------------------------------------


def loop_box_top(m: MackeyFunctor, n: MackeyFunctor) -> FpAbGroup:
    """The top tier of box(m, n) with one hand-indexed vector per Frobenius
    relation: a ⊗ tr(y) - t(res(a) ⊗ y), then tr(x) ⊗ b - t(x ⊗ res(b))."""
    bt = tensor_product(m.bottom, n.bottom)
    gamma = AbHom(bt.group, bt.group, m.gamma.matrix.kron(n.gamma.matrix))
    coinv, _ = coinvariants(bt.group, gamma, m.p)
    tt = tensor_product(m.top, n.top)
    nt, nb = tt.group.ngens, bt.group.ngens
    frobenius = []
    for i in range(m.top.ngens):
        for l in range(n.bottom.ngens):
            v = [0] * (nt + nb)
            for j in range(n.top.ngens):
                v[tt.index(i, j)] += n.tr.matrix.at(j, l)
            for k in range(m.bottom.ngens):
                v[nt + bt.index(k, l)] -= m.res.matrix.at(k, i)
            frobenius.append(v)
    for k in range(m.bottom.ngens):
        for j in range(n.top.ngens):
            v = [0] * (nt + nb)
            for i in range(m.top.ngens):
                v[tt.index(i, j)] += m.tr.matrix.at(i, k)
            for l in range(n.bottom.ngens):
                v[nt + bt.index(k, l)] -= n.res.matrix.at(l, j)
            frobenius.append(v)
    return quotient_by(direct_sum(tt.group, coinv), frobenius)[0]


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(PRIMES))
def test_frobenius_block_equals_the_loop(rng, p):
    m, n = random_functor(rng, p), random_functor(rng, p)
    assert box_product(m, n).top == loop_box_top(m, n)


# -- the isomorphism search ----------------------------------------------------------------------


def brute_force_iso(m: MackeyFunctor, n: MackeyFunctor, bound: int):
    """The first isomorphism M → N with entries in [-bound, bound]: bottoms
    and then tops in lexicographic order, every condition checked directly."""
    values = range(-bound, bound + 1)
    rb, cb, rt, ct = n.bottom.ngens, m.bottom.ngens, n.top.ngens, m.top.ngens
    for flat_b in itertools.product(values, repeat=rb * cb):
        phi_b = AbHom(m.bottom, n.bottom, IntMatrix(rb, cb, flat_b))
        if not phi_b.is_well_defined():
            continue
        if not (phi_b @ m.gamma).equals(n.gamma @ phi_b):
            continue
        if not is_isomorphism(phi_b):
            continue
        for flat_t in itertools.product(values, repeat=rt * ct):
            candidate = MackeyMorphism(m, n, AbHom(m.top, n.top, IntMatrix(rt, ct, flat_t)), phi_b)
            if is_mackey_isomorphism(candidate):
                return candidate
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


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from((2, 3)), st.booleans())
def test_iso_search_equals_brute_force(rng, p, related):
    m = random_functor(rng, p, max_gens=2)
    n = base_change(m, rng) if related else random_functor(rng, p, max_gens=2)
    unknowns = m.bottom.ngens * n.bottom.ngens + m.top.ngens * n.top.ngens
    # at most 625 (bottom, top) pairs for the brute force
    bound = 2 if unknowns <= 4 else 1
    result = try_find_isomorphism(m, n, bound)
    if result.status == NOT_ISOMORPHIC:
        assert invariant_factors(m.top) != invariant_factors(n.top) or (
            invariant_factors(m.bottom) != invariant_factors(n.bottom)
        )
        return
    expected = brute_force_iso(m, n, bound)
    assert result.status == (UNKNOWN if expected is None else FOUND)
    assert result.witness == expected


def test_equivariant_bottom_maps_are_the_circulants():
    m = permutation_functor(3, GSet(0, 1))
    found = [x.to_rows() for x in _matrix_candidates(m, m, 2)]
    circulants = [
        [[f[(i - j) % 3] for j in range(3)] for i in range(3)]
        for f in itertools.product(range(-2, 3), repeat=3)
    ]
    assert len(found) == 125
    assert found == sorted(circulants, key=lambda x: sum(x, []))
    result = try_find_isomorphism(m, m, 2)
    assert result.status == FOUND
    assert is_mackey_isomorphism(result.witness)
