"""Integer checks at the public boundary, and none inside ``intlin``.

Every public way to make a matrix or hand in a vector accepts only Python
ints (not bools) and raises ``TypeError`` otherwise, instead of truncating or
passing the value on.  Matrices that ``intlin`` computes itself skip the
per-entry check (``_trusted``); each one must still pass it.  The library's
own integer arguments (primes, generator and orbit counts, exponents, action
orders, search bounds) are checked the same way where they come in.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mackeybox.abgroup import AbHom, FpAbGroup, coinvariants
from mackeybox.mackey import GSet, MackeyFunctor, burnside, fixed_point_functor, is_prime, orbit_functor
from mackeybox.separation import try_find_isomorphism, twisted_iso_criterion
from mackeybox.intlin import (
    IntMatrix,
    _reduce_columns,
    hermite_normal_form,
    lattice_basis,
    smith_normal_form,
    solve_linear,
)

# -- non-integer vectors are rejected, not truncated ------------------------------------

NON_INTS = [1.9, 2.5, True, False, "2"]


@pytest.mark.parametrize("bad", NON_INTS)
def test_solve_linear_rejects_a_non_int_right_hand_side(bad):
    with pytest.raises(TypeError):
        solve_linear(IntMatrix.from_rows([[2]]), (bad,))


@pytest.mark.parametrize("bad", NON_INTS)
def test_hom_call_rejects_non_int_coordinates(bad):
    with pytest.raises(TypeError):
        AbHom.identity(FpAbGroup.free(1)).matrix.apply([bad])


@pytest.mark.parametrize("bad", NON_INTS)
def test_apply_rejects_a_non_int_vector(bad):
    with pytest.raises(TypeError):
        IntMatrix.from_rows([[1]]).apply((bad,))


# -- the public constructors keep their checks --------------------------------------------


@pytest.mark.parametrize("bad", NON_INTS)
def test_constructors_reject_non_int_entries(bad):
    for build in (
        lambda: IntMatrix(1, 1, (bad,)),
        lambda: IntMatrix.from_rows([[1, bad]]),
        lambda: IntMatrix.from_columns([[bad], [1]]),
        lambda: IntMatrix.column_vector([bad]),
        lambda: IntMatrix.identity(2).scaled(bad),
    ):
        with pytest.raises(TypeError):
            build()


@pytest.mark.parametrize("bad", NON_INTS)
def test_sizes_must_be_ints(bad):
    for build in (
        lambda: IntMatrix.identity(bad),
        lambda: IntMatrix.zeros(bad, 1),
        lambda: IntMatrix.zeros(1, bad),
        lambda: IntMatrix(bad, 1, (0,)),
        lambda: IntMatrix(1, bad, (0,)),
    ):
        with pytest.raises(TypeError):
            build()


def test_negative_sizes_are_rejected():
    for build in (
        lambda: IntMatrix.identity(-1),
        lambda: IntMatrix.zeros(-1, 2),
        lambda: IntMatrix.zeros(2, -1),
        lambda: IntMatrix(-1, 0, ()),
        lambda: IntMatrix(0, -2, ()),
    ):
        with pytest.raises(ValueError):
            build()


def test_scaled_empty_matrix_still_checks_the_factor():
    with pytest.raises(TypeError):
        IntMatrix.zeros(0, 3).scaled(1.5)


# -- the library's own integer arguments ----------------------------------------------------


def _memoised_orbit_then(k):
    """``orbit(k)`` after ``orbit(5)`` is memoised: 5.0 hashes like 5."""
    h = AbHom.identity(FpAbGroup.free(2))
    h.orbit(5)
    return h.orbit(k)


_B5 = burnside(5)
_Z = FpAbGroup.free(1)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: MackeyFunctor(5.0, _B5.top, _B5.bottom, _B5.gamma, _B5.res, _B5.tr), TypeError, "primes must be Python ints, got float"),
        (lambda: MackeyFunctor(True, _B5.top, _B5.bottom, _B5.gamma, _B5.res, _B5.tr), TypeError, "primes must be Python ints, got bool"),
        (lambda: is_prime(5.0), TypeError, "primes must be Python ints, got float"),
        (lambda: AbHom.identity(FpAbGroup.free(2)).orbit(1.5), TypeError, "exponents must be Python ints, got float"),
        (lambda: _memoised_orbit_then(5.0), TypeError, "exponents must be Python ints, got float"),
        (lambda: coinvariants(_Z, AbHom.identity(_Z), 2.0), TypeError, "action orders must be Python ints, got float"),
        (lambda: FpAbGroup(True, IntMatrix.zeros(1, 0)), TypeError, "generator counts must be Python ints, got bool"),
        (lambda: FpAbGroup(1.0, IntMatrix.zeros(1, 0)), TypeError, "generator counts must be Python ints, got float"),
        (lambda: GSet(1.5, 0), TypeError, "orbit counts must be Python ints, got float"),
        (lambda: GSet(0, True), TypeError, "orbit counts must be Python ints, got bool"),
        (lambda: twisted_iso_criterion(0, 1, 1), ValueError, "p must be prime, got 0"),
        (lambda: twisted_iso_criterion(4, 1, 3), ValueError, "p must be prime, got 4"),
        (lambda: twisted_iso_criterion(5, True, 1), TypeError, "twists must be Python ints, got bool"),
        (lambda: twisted_iso_criterion(5, 1, 6.0), TypeError, "twists must be Python ints, got float"),
        (lambda: try_find_isomorphism(_B5, _B5, True), TypeError, "search bounds must be Python ints, got bool"),
        (lambda: try_find_isomorphism(_B5, _B5, 1.0), TypeError, "search bounds must be Python ints, got float"),
        (lambda: fixed_point_functor(4, _Z, AbHom.identity(_Z)), ValueError, "p must be prime, got 4"),
        (lambda: orbit_functor(4, _Z, AbHom.identity(_Z)), ValueError, "p must be prime, got 4"),
        (lambda: GSet(-1, 0), ValueError, "orbit counts must be nonnegative"),
        (lambda: GSet(-1.0, 0), TypeError, "orbit counts must be Python ints, got float"),
        (lambda: GSet("a", 0), TypeError, "orbit counts must be Python ints, got str"),
        (lambda: FpAbGroup(-1.5, IntMatrix.zeros(0, 0)), TypeError, "generator counts must be Python ints, got float"),
        (lambda: FpAbGroup("2", IntMatrix.zeros(2, 0)), TypeError, "generator counts must be Python ints, got str"),
    ],
    ids=[
        "functor-float-p", "functor-bool-p", "is-prime-float", "orbit-float-k", "orbit-float-k-after-memo",
        "coinvariants-float-p", "group-bool-ngens", "group-float-ngens", "gset-float-fixed", "gset-bool-free",
        "criterion-p-0", "criterion-p-4", "criterion-bool-twist", "criterion-float-twist",
        "iso-bool-bound", "iso-float-bound", "fixed-point-p-4", "orbit-functor-p-4", "gset-negative-fixed",
        "gset-negative-float-fixed", "gset-str-fixed", "group-negative-float-ngens", "group-str-ngens",
    ],
)
def test_library_arguments_must_be_ints(call, error, message):
    """A float, a bool or a str where the library takes an integer raises
    ``TypeError`` with the library's message, also when it is negative (the
    type is checked before the sign), instead of reaching a matrix built
    unchecked; a p that is not prime raises as in ``twisted_isomorphism``,
    and so does a negative orbit count."""
    with pytest.raises(error, match=message):
        call()


# -- matrices built inside intlin pass the public check ----------------------------------------


def rechecked(m: IntMatrix) -> IntMatrix:
    """m, rebuilt through the checked constructor."""
    assert type(m.rows) is int and type(m.cols) is int
    assert all(type(e) is int for e in m.entries)
    return IntMatrix(m.rows, m.cols, m.entries)


@st.composite
def matrices(draw, rows=None, cols=None, max_dim=4):
    r = draw(st.integers(0, max_dim)) if rows is None else rows
    c = draw(st.integers(0, max_dim)) if cols is None else cols
    return IntMatrix(r, c, tuple(draw(st.lists(st.integers(-5, 5), min_size=r * c, max_size=r * c))))


@st.composite
def operands(draw):
    """a, a matrix b of its shape, matrices c, d and e with as many rows as a
    has columns, as many columns as a, and as many rows as a, and a scale."""
    a = draw(matrices())
    return (
        a,
        draw(matrices(a.rows, a.cols)),
        draw(matrices(rows=a.cols)),
        draw(matrices(cols=a.cols)),
        draw(matrices(rows=a.rows)),
        draw(st.integers(-4, 4)),
    )


@settings(max_examples=200, deadline=None)
@given(operands())
def test_every_operation_gives_a_checked_matrix(ops):
    a, b, c, d, e, k = ops
    results = [
        a @ c,
        a + b,
        a - b,
        -a,
        a.hstack(e),
        a.vstack(d),
        a.kron(b),
        a.transpose(),
        a.scaled(k),
        IntMatrix.identity(a.rows),
        IntMatrix.zeros(a.rows, a.cols),
        hermite_normal_form(a),
        _reduce_columns(e, lattice_basis(a)),
    ]
    dec = smith_normal_form(a)
    results += [dec.u, dec.s, dec.v]
    for m in results:
        assert rechecked(m) == m


# -- indices are checked, as ``at`` checks them ---------------------------------------------


@settings(max_examples=200, deadline=None)
@given(matrices(), st.lists(st.integers(-6, 6), max_size=5))
@example(IntMatrix.from_rows([[1, 2], [3, 4]]), [2])  # column 2 once read an entry of row 1
@example(IntMatrix.from_rows([[1, 2], [3, 4]]), [0, -1])  # -1 once wrapped around
@example(IntMatrix.zeros(2, 0), [0])
@example(IntMatrix.from_rows([[1, 0, 2], [0, 3, 4]]), [0, 2])  # an ascending proper subset of the columns
def test_rows_and_columns_check_their_indices(a, picks):
    """``column``, ``take_rows`` and ``take_columns`` raise ``IndexError``
    outside [0, n), negative indices included, and in range build what the
    checked constructors build; a single row is ``take_rows((i,))``."""
    for take, n, access, build in (
        (a.take_rows, a.rows, lambda i: a.take_rows((i,)), lambda ps: IntMatrix.from_rows([a.to_rows()[i] for i in ps], cols=a.cols)),
        (a.take_columns, a.cols, a.column, lambda ps: IntMatrix.from_columns([a.column(j) for j in ps], rows=a.rows)),
    ):
        if all(0 <= i < n for i in picks):
            assert rechecked(take(picks)) == build(picks)
        else:
            with pytest.raises(IndexError):
                take(picks)
            with pytest.raises(IndexError):
                access(next(i for i in picks if not 0 <= i < n))


# -- entrywise arithmetic agrees with dense loops --------------------------------------------


def dense(m: IntMatrix) -> list[list[int]]:
    return [[m.entries[i * m.cols + j] for j in range(m.cols)] for i in range(m.rows)]


@settings(max_examples=200, deadline=None)
@given(operands())
def test_entrywise_arithmetic_matches_dense_loops(ops):
    """``+``, ``-``, unary ``-``, ``identity`` and ``is_zero`` equal the
    textbook loops over (i, j), as checked matrices of the right shape."""
    a, b, _, _, _, _ = ops
    rows, cols = range(a.rows), range(a.cols)
    ra, rb = dense(a), dense(b)
    eye = IntMatrix.identity(a.rows)
    for got, want in (
        (a + b, [[ra[i][j] + rb[i][j] for j in cols] for i in rows]),
        (a - b, [[ra[i][j] - rb[i][j] for j in cols] for i in rows]),
        (-a, [[-ra[i][j] for j in cols] for i in rows]),
        (eye, [[1 if i == j else 0 for j in rows] for i in rows]),
    ):
        assert rechecked(got) == got and got.rows == a.rows and dense(got) == want
    assert a.is_zero() == all(ra[i][j] == 0 for i in rows for j in cols)
    assert (a - a).is_zero()
    for op in (IntMatrix.__add__, IntMatrix.__sub__):
        with pytest.raises(ValueError):
            op(a, IntMatrix.zeros(a.rows + 1, a.cols))
