"""Isotropy separation, the invertibility classification, and inversion."""

import itertools
import random

import pytest

from mackeybox.abgroup import AbHom, FpAbGroup, invariant_factors
from mackeybox.intlin import IntMatrix, extended_gcd
from mackeybox.mackey import (
    GSet,
    MackeyFunctor,
    box_product,
    burnside,
    check_axioms,
    constant_z,
    fixed_point_functor,
    is_mackey_isomorphism,
    permutation_functor,
    twisted_burnside,
    verify_morphism,
    zero_functor,
)
from mackeybox.separation import (
    BOTTOM_NOT_Z,
    FOUND,
    NOT_ISOMORPHIC,
    RESTRICTION_NOT_ONTO,
    TOP_NOT_RANK_2,
    TRANSFER_NOT_SPLIT,
    TWIST_NOT_COPRIME,
    UNKNOWN,
    _bounded_points,
    _quotient_iso,
    classify_invertible,
    gamma_functor,
    invert,
    isotropy_sequence,
    phi_functor,
    try_find_isomorphism,
    twisted_iso_criterion,
    twisted_isomorphism,
)

from helpers import PRIMES, direct_sum_functors, is_trivial, pad_functor, random_functor


def top_only(p: int) -> MackeyFunctor:
    """Top Z, trivial bottom: the transfer cokernel shape."""
    top = FpAbGroup.free(1)
    bottom = FpAbGroup.trivial()
    return MackeyFunctor(
        p,
        top,
        bottom,
        AbHom.identity(bottom),
        AbHom.zero(top, bottom),
        AbHom.zero(bottom, top),
    )


def sign_functor() -> MackeyFunctor:
    """Bottom Z with the flip action at p = 2; the top is forced trivial."""
    g = FpAbGroup.free(1)
    flip = AbHom(g, g, IntMatrix.from_rows([[-1]]))
    return fixed_point_functor(2, g, flip)


# -- the transfer subfunctor and its quotient ----------------------------------


def test_gamma_of_burnside():
    for p in PRIMES:
        part, inc = gamma_functor(burnside(p))
        assert invariant_factors(part.top) == (1, ())
        assert part.res.matrix.to_rows() == [[p]]
        assert part.tr.matrix.to_rows() == [[1]]
        assert inc.phi_top.matrix.to_rows() == [[0], [1]]
        assert verify_morphism(inc) == ()
        assert check_axioms(part) == ()


def test_gamma_of_constant():
    part, inc = gamma_functor(constant_z(3))
    assert invariant_factors(part.top) == (1, ())
    assert inc.phi_top.matrix.to_rows() == [[3]]
    assert verify_morphism(inc) == ()


def test_phi_of_burnside():
    for p in PRIMES:
        part, proj = phi_functor(burnside(p))
        assert invariant_factors(part.top) == (1, ())
        assert is_trivial(part.bottom)
        assert verify_morphism(proj) == ()
        assert check_axioms(part) == ()


def test_phi_kills_transfers():
    m = burnside(5)
    _, proj = phi_functor(m)
    t = m.tr.matrix @ IntMatrix.column_vector((1,))
    assert proj.phi_top.target.contains_all(proj.phi_top.matrix @ t)


def test_composite_gamma_then_phi_vanishes():
    for p in (2, 3):
        m = burnside(p)
        _, inc = gamma_functor(m)
        _, proj = phi_functor(m)
        comp = inc.then(proj)
        zero_top = AbHom.zero(comp.source.top, comp.target.top)
        assert comp.phi_top.equals(zero_top)


def test_isotropy_sequence_worked_examples():
    for m in (burnside(3), constant_z(2), twisted_burnside(5, 2), zero_functor(7), sign_functor(), top_only(3)):
        seq = isotropy_sequence(m)
        assert seq.exact, seq.report
        assert seq.report == ()
        assert seq.original is m


def test_isotropy_sequence_random():
    rng = random.Random(314)
    for _ in range(60):
        p = rng.choice(PRIMES)
        m = random_functor(rng, p)
        seq = isotropy_sequence(m)
        assert seq.exact, (p, seq.report)


# -- the twisted-functor isomorphism criterion ----------------------------------


def test_twisted_criterion_table():
    assert twisted_iso_criterion(5, 2, 3)
    assert twisted_iso_criterion(5, 2, 7)
    assert not twisted_iso_criterion(5, 2, 4)
    assert twisted_iso_criterion(2, 1, 1)
    assert twisted_iso_criterion(3, 0, 3)
    assert not twisted_iso_criterion(7, 1, 2)


def test_twisted_isomorphism_witnesses():
    rng = random.Random(161)
    for _ in range(40):
        p = rng.choice(PRIMES)
        c, d = rng.randint(-10, 10), rng.randint(-10, 10)
        f = twisted_isomorphism(p, c, d)
        if twisted_iso_criterion(p, c, d):
            assert f is not None
            assert f.source == twisted_burnside(p, c)
            assert f.target == twisted_burnside(p, d)
            assert is_mackey_isomorphism(f)
        else:
            assert f is None


# -- classification --------------------------------------------------------------


def test_classify_twisted_all_residues():
    for p in PRIMES + (11,):
        for d in range(p):
            result = classify_invertible(twisted_burnside(p, d))
            if d == 0:
                assert not result.invertible
                assert result.reason == TWIST_NOT_COPRIME
                assert result.twist_found == 0
                assert result.d_class == 0
            else:
                assert result.invertible
                assert result.d_class == min(d, p - d)
                assert result.sign_ambiguous == ((2 * d) % p != 0)


def test_classify_reasons():
    assert classify_invertible(zero_functor(3)).reason == BOTTOM_NOT_Z
    mod = FpAbGroup.cyclic(9)
    torsion_bottom = fixed_point_functor(3, mod, AbHom.identity(mod))
    assert classify_invertible(torsion_bottom).reason == BOTTOM_NOT_Z
    assert classify_invertible(permutation_functor(3, GSet(2, 0))).reason == BOTTOM_NOT_Z
    assert classify_invertible(sign_functor()).reason == RESTRICTION_NOT_ONTO
    assert classify_invertible(constant_z(5)).reason == TOP_NOT_RANK_2
    assert classify_invertible(permutation_functor(2, GSet(1, 0))).reason == TOP_NOT_RANK_2

    unsplit = direct_sum_functors(constant_z(3), top_only(3))
    assert invariant_factors(unsplit.top) == (2, ())
    result = classify_invertible(unsplit)
    assert not result.invertible
    assert result.reason == TRANSFER_NOT_SPLIT

    multiple = classify_invertible(twisted_burnside(3, 6))
    assert multiple.reason == TWIST_NOT_COPRIME
    assert multiple.twist_found == 6
    assert multiple.d_class == 0


def test_quotient_iso_is_an_isomorphism_onto_the_free_group():
    """On Z^n modulo the first k columns of a random unimodular matrix (plus
    redundant combinations), the projection is onto Z^(n-k) with
    ``pi @ sec == I``, kills exactly the relations, and so with the section
    gives mutually inverse isomorphisms."""
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 5)
        k = rng.randint(0, n - 1)
        rows = IntMatrix.identity(n).to_rows()
        for _ in range(3 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        cols = IntMatrix.from_rows(rows).transpose().to_rows()[:k]
        if k:
            cols += [[c * x for x in cols[0]] for c in rng.choices(range(-2, 3), k=rng.randint(0, 2))]
        group = FpAbGroup(n, IntMatrix.from_columns(cols, rows=n))
        pi, sec = _quotient_iso(group, n - k)
        assert (pi.rows, pi.cols, sec.rows, sec.cols) == (n - k, n, n, n - k)
        assert pi @ sec == IntMatrix.identity(n - k)
        assert (pi @ group.relations).is_zero()
        assert group.contains_all(IntMatrix.identity(n) - sec @ pi)
    assert _quotient_iso(FpAbGroup.cyclic(2), 1) is None


def test_classify_str():
    good = classify_invertible(twisted_burnside(5, 3))
    assert str(good) == "TwistedBurnside(d_class=2, sign_ambiguous=True)"
    bad = classify_invertible(twisted_burnside(5, 0))
    assert str(bad).startswith("NotInvertible(twist-not-coprime")


def test_classify_rejects_axiom_violations():
    z = FpAbGroup.free(1)
    one = AbHom.identity(z)
    broken = MackeyFunctor(2, z, z, one, one, one)
    with pytest.raises(ValueError):
        classify_invertible(broken)


def test_classify_padded_presentations():
    """The verdict only depends on the isomorphism class, not the presentation."""
    rng = random.Random(271)
    for p in PRIMES:
        for d in range(p):
            m = twisted_burnside(p, d)
            for _ in range(3):
                padded = pad_functor(m, rng)
                assert check_axioms(padded) == ()
                got = classify_invertible(padded)
                want = classify_invertible(m)
                assert got.invertible == want.invertible
                assert got.d_class == want.d_class
                assert got.sign_ambiguous == want.sign_ambiguous
    padded_constant = pad_functor(constant_z(3), rng)
    assert classify_invertible(padded_constant).reason == TOP_NOT_RANK_2
    padded_sign = sign_functor()
    for _ in range(3):  # the flip read on Z through ever longer presentations
        padded_sign = pad_functor(padded_sign, rng)
        assert classify_invertible(padded_sign).reason == RESTRICTION_NOT_ONTO
    z, z2 = FpAbGroup.free(1), FpAbGroup.free(2)
    for p in PRIMES:
        x, y = rng.choice([(1, 0), (2, 3), (-5, 7), (4, -1)])
        _, r1, r2 = extended_gcd(x, y)
        # tr(g) = p·(x, y) and res·(x, y) = 1: coker tr is Z + Z/p
        unsplit = MackeyFunctor(
            p,
            z2,
            z,
            AbHom.identity(z),
            AbHom(z2, z, IntMatrix.from_rows([[r1, r2]])),
            AbHom(z, z2, IntMatrix.from_rows([[p * x], [p * y]])),
        )
        for m in (direct_sum_functors(constant_z(p), top_only(p)), unsplit):
            assert classify_invertible(pad_functor(m, rng)).reason == TRANSFER_NOT_SPLIT
    mod = FpAbGroup.cyclic(9)
    torsion_bottom = fixed_point_functor(3, mod, AbHom.identity(mod))
    assert classify_invertible(pad_functor(torsion_bottom, rng)).reason == BOTTOM_NOT_Z


def test_classification_agrees_with_search_on_twisted():
    """d_class is a complete invariant for the invertible functors."""
    for p in (2, 3, 5):
        for c in range(1, p):
            for d in range(1, p):
                rc = classify_invertible(twisted_burnside(p, c))
                rd = classify_invertible(twisted_burnside(p, d))
                same_class = rc.d_class == rd.d_class
                assert same_class == twisted_iso_criterion(p, c, d)
                if same_class:
                    search = try_find_isomorphism(
                        twisted_burnside(p, c), twisted_burnside(p, d), bound=max(2, p)
                    )
                    assert search.status == FOUND
                    assert is_mackey_isomorphism(search.witness)


# -- inversion --------------------------------------------------------------------


def test_invert_twisted():
    for p in PRIMES + (11,):
        for d in range(1, p):
            inverse, certificate = invert(twisted_burnside(p, d))
            inv_result = classify_invertible(inverse)
            assert inv_result.invertible
            assert (inv_result.d_class * min(d, p - d)) % p in (1 % p, (p - 1) % p)
            assert certificate.source == box_product(twisted_burnside(p, d), inverse)
            assert certificate.target == burnside(p)
            assert is_mackey_isomorphism(certificate)


def test_invert_non_invertible():
    assert invert(constant_z(3)) is None
    assert invert(zero_functor(2)) is None
    assert invert(twisted_burnside(5, 10)) is None


def test_invert_padded_input():
    rng = random.Random(99)
    m = pad_functor(twisted_burnside(5, 3), rng)
    inverse, certificate = invert(m)
    assert is_mackey_isomorphism(certificate)
    assert certificate.target == burnside(5)


def test_burnside_is_self_inverse():
    inverse, certificate = invert(burnside(7))
    assert inverse == twisted_burnside(7, 1)
    assert is_mackey_isomorphism(certificate)


# -- bounded isomorphism search ----------------------------------------------------


def test_bounded_points_rectangle():
    basis = IntMatrix.from_columns([(2, 0), (0, 3)], rows=2)
    pts = list(_bounded_points(basis, 6))
    assert pts == [(2 * i, 3 * j) for i in range(-3, 4) for j in range(-2, 3)]


def test_bounded_points_no_basis():
    assert list(_bounded_points(IntMatrix.zeros(2, 0), 1)) == [(0, 0)]
    assert list(_bounded_points(IntMatrix.zeros(0, 0), 0)) == [()]


def test_bounded_points_skew_basis():
    basis = IntMatrix.from_columns([(1, 1)], rows=2)
    assert list(_bounded_points(basis, 3)) == [(k, k) for k in range(-3, 4)]


def test_bounded_points_are_lexicographic_and_complete():
    """Every lattice point within the bound, in lexicographic order, on an
    echelon basis whose columns reach into the pivot rows of later ones."""
    basis = IntMatrix.from_columns([(1, 2, 1), (0, 3, 2), (0, 0, 5)], rows=3)
    bound = 4
    pts = list(_bounded_points(basis, bound))
    points = (basis.apply(k) for k in itertools.product(range(-10, 11), repeat=3))
    expected = sorted(v for v in points if all(abs(x) <= bound for x in v))
    assert pts == expected


def test_bounded_points_gate_cuts_a_branch():
    """The gate sees each head once its rows are fixed, within the bound, and
    a head it refuses yields no point."""
    basis = IntMatrix.from_columns([(1, 1, 0), (0, 1, 1), (0, 0, 2)], rows=3)
    seen = []

    def gate(head):
        seen.append(head)
        return head[0] != 0

    pts = list(_bounded_points(basis, 2, head=2, gate=gate))
    assert seen == list(itertools.product(range(-2, 3), repeat=2))
    ungated = list(_bounded_points(basis, 2))
    assert pts == [v for v in ungated if v[0] != 0]
    assert len(pts) < len(ungated)


def test_search_finds_twisted_isomorphism():
    res = try_find_isomorphism(twisted_burnside(3, 1), twisted_burnside(3, 4), bound=2)
    assert res.status == FOUND
    assert is_mackey_isomorphism(res.witness)
    assert res.witness.source == twisted_burnside(3, 1)


def test_search_refutes_by_invariants():
    res = try_find_isomorphism(constant_z(2), burnside(2), bound=3)
    assert res.status == NOT_ISOMORPHIC
    assert "invariant factors" in res.detail
    res2 = try_find_isomorphism(burnside(2), burnside(3), bound=3)
    assert res2.status == NOT_ISOMORPHIC


def test_search_unknown_when_no_small_witness():
    res = try_find_isomorphism(twisted_burnside(5, 1), twisted_burnside(5, 2), bound=2)
    assert res.status == UNKNOWN
    assert "within 2" in res.detail


def test_search_rejects_a_negative_bound():
    for m, n in ((burnside(2), burnside(2)), (burnside(2), burnside(3))):
        with pytest.raises(ValueError, match="nonnegative"):
            try_find_isomorphism(m, n, bound=-1)
    # bound 0 stays valid: only the zero map is in bound
    assert try_find_isomorphism(zero_functor(3), zero_functor(3), bound=0).status == FOUND
    res = try_find_isomorphism(burnside(3), burnside(3), bound=0)
    assert res.status == UNKNOWN and "within 0" in res.detail


def test_search_identity_case():
    for m in (burnside(2), constant_z(3), twisted_burnside(5, 2)):
        res = try_find_isomorphism(m, m, bound=1)
        assert res.status == FOUND
        assert is_mackey_isomorphism(res.witness)


def test_search_handles_padded_presentations():
    rng = random.Random(12)
    m = twisted_burnside(3, 1)
    n = pad_functor(twisted_burnside(3, 2), rng)
    res = try_find_isomorphism(m, n, bound=3)
    assert res.status == FOUND
    assert is_mackey_isomorphism(res.witness)
