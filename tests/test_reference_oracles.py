"""The fast linear-algebra kernel against naive reference implementations.

Powers and norms are compared with the p-step loops, sparse products with a
dense triple loop, and batched lattice membership with one ``solve_linear``
per column.  The operation-count test pins the logarithmic cost in p.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from mackeybox.intlin import IntMatrix, lattice_contains_all, solve_linear
from mackeybox.abgroup import AbHom, FpAbGroup
from mackeybox.mackey import action_norm, burnside, check_axioms

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
