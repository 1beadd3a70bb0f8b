"""Mackey functors, axioms, morphisms, and the box product.

The box-product tests verify hand-built explicit isomorphisms (not just
invariant equality) for the flagship identities: Z-box-Z, twisted-box-twisted,
the free-orbit permutation square at p = 2, and the unit law.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mackeybox
from mackeybox.abgroup import AbHom, FpAbGroup, coinvariants, invariant_factors
from mackeybox.intlin import IntMatrix
from mackeybox.mackey import (
    GSet,
    MackeyFunctor,
    MackeyMorphism,
    action_norm,
    box_product,
    burnside,
    check_axioms,
    constant_z,
    fixed_point_functor,
    is_mackey_isomorphism,
    PRIME_LIMIT,
    is_prime,
    orbit_functor,
    permutation_functor,
    twisted_burnside,
    unit_isomorphism,
    verify_morphism,
    zero_functor,
)

from helpers import (
    PRIMES,
    c2_orbit_box_morphism,
    constant_box_morphism,
    direct_sum_functors,
    gset_product,
    random_functor,
    same_lattice,
    twisted_box_morphism,
)


# -- primality and the norm ---------------------------------------------------


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-3)


def test_is_prime_large_and_pseudoprimes():
    assert is_prime(1000000007)
    assert is_prime(10**18 + 3)
    assert not is_prime(10**18 + 1)
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(2047)  # strong pseudoprime to base 2
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(41 * 43)
    assert is_prime(PRIME_LIMIT - 1) is False  # 3317044064679887385961980 is even
    with pytest.raises(ValueError, match=str(PRIME_LIMIT)):
        is_prime(PRIME_LIMIT)


def test_is_prime_runs_once_per_prime_in_a_box_product(monkeypatch):
    from mackeybox import mackey

    bodies = []

    def counting_pow(base, exp, mod):
        if base == 2:  # the first Miller-Rabin witness: one per run of the body
            bodies.append(mod)
        return pow(base, exp, mod)

    monkeypatch.setattr(mackey, "pow", counting_pow, raising=False)
    is_prime.cache_clear()
    box_product(burnside(10007), twisted_burnside(10007, 3))
    assert bodies == [10007]
    assert is_prime.cache_info().hits >= 2


def test_is_prime_does_not_cache_a_refusal():
    is_prime.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError):
            is_prime(PRIME_LIMIT)
    assert is_prime.cache_info().currsize == 0


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(5000) if is_prime(n)] == [n for n in range(5000) if trial(n)]


def test_action_norm_of_cycle():
    g = FpAbGroup.free(3)
    cycle = AbHom(g, g, IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    norm = action_norm(cycle, 3)
    assert norm.matrix == IntMatrix.from_rows([[1, 1, 1]] * 3)


# -- constructors satisfy the axioms ------------------------------------------


def constructor_zoo(p):
    yield zero_functor(p)
    yield constant_z(p)
    yield burnside(p)
    for d in (0, 1, 2, -3, p, p + 1):
        yield twisted_burnside(p, d)
    for fixed in range(3):
        for free in range(3):
            yield permutation_functor(p, GSet(fixed, free))
    mod = FpAbGroup.cyclic(p * p)
    yield fixed_point_functor(p, mod, AbHom.identity(mod))
    yield orbit_functor(p, mod, AbHom.identity(mod))
    yield direct_sum_functors(burnside(p), constant_z(p))


def test_constructors_pass_axioms():
    for p in PRIMES:
        for m in constructor_zoo(p):
            assert check_axioms(m) == (), (p, m)


def test_random_functors_pass_axioms():
    rng = random.Random(99)
    for _ in range(120):
        p = rng.choice(PRIMES)
        m = random_functor(rng, p)
        assert check_axioms(m) == ()


def test_constructor_shapes():
    b = burnside(3)
    assert invariant_factors(b.top) == (2, ())
    assert invariant_factors(b.bottom) == (1, ())
    assert b.res.matrix.to_rows() == [[1, 3]]
    assert b.tr.matrix.to_rows() == [[0], [1]]

    t = twisted_burnside(5, 2)
    assert t.res.matrix.to_rows() == [[2, 5]]
    assert t.tr.matrix.to_rows() == [[0], [1]]

    c = constant_z(7)
    assert c.res.matrix.to_rows() == [[1]]
    assert c.tr.matrix.to_rows() == [[7]]

    # one free orbit: top Z (the orbit sum), bottom Z^p, res the diagonal,
    # tr the coordinate sum
    f = permutation_functor(2, GSet(0, 1))
    assert invariant_factors(f.top) == (1, ())
    assert invariant_factors(f.bottom) == (2, ())
    assert f.res.matrix.to_rows() == [[1], [1]]
    assert f.tr.matrix.to_rows() == [[1, 1]]


@pytest.mark.parametrize("p", (2, 3, 101))
def test_constant_and_zero_functors_read_field_by_field(p):
    """The permutation functors of one fixed point and of the empty set."""
    c, z = constant_z(p), zero_functor(p)
    assert (c.p, c.top, c.bottom) == (p, FpAbGroup.free(1), FpAbGroup.free(1))
    assert (c.gamma.matrix, c.res.matrix, c.tr.matrix) == (
        IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[p]])
    )
    assert (z.p, z.top, z.bottom) == (p, FpAbGroup.free(0), FpAbGroup.free(0))
    assert {f.matrix for f in (z.gamma, z.res, z.tr)} == {IntMatrix.zeros(0, 0)}


def test_permutation_functor_special_cases():
    assert permutation_functor(3, GSet(1, 1)) == direct_sum_functors(
        constant_z(3), permutation_functor(3, GSet(0, 1))
    )
    # the free orbit's fixed-point functor is the "induced" shape whose
    # transfer is onto the top
    fr = permutation_functor(3, GSet(0, 1))
    assert same_lattice(fr.tr.matrix, IntMatrix.identity(fr.top.ngens))


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_permutation_functor_is_the_fixed_point_functor_of_its_module(p):
    """The functor written down from the orbits equals the fixed-point
    functor of Z[s] under the cyclic action, built here entry by entry, for
    every G-set with at most two orbits of each kind."""
    for fixed in range(3):
        for free in range(3):
            n = fixed + p * free
            action = [[0] * n for _ in range(n)]
            for i in range(fixed):
                action[i][i] = 1
            for b in range(free):
                for i in range(p):
                    action[fixed + b * p + (i + 1) % p][fixed + b * p + i] = 1
            module = FpAbGroup.free(n)
            gamma = AbHom(module, module, IntMatrix.from_rows(action, cols=n))
            assert permutation_functor(p, GSet(fixed, free)) == fixed_point_functor(p, module, gamma)


def test_twisted_burnside_rejects_nothing_but_nonprimes():
    with pytest.raises(ValueError):
        twisted_burnside(4, 1)
    with pytest.raises(ValueError):
        constant_z(1)
    with pytest.raises(ValueError):
        zero_functor(6)


def test_fixed_point_functor_torsion_module():
    p = 3
    mod = FpAbGroup.cyclic(9)
    m = fixed_point_functor(p, mod, AbHom.identity(mod))
    assert check_axioms(m) == ()
    assert invariant_factors(m.top) == (0, (9,))
    assert m.res.matrix.to_rows() == [[1]]
    assert m.tr.matrix.to_rows() == [[3]]


def test_orbit_functor_sign_action():
    g = FpAbGroup.free(1)
    sign = AbHom(g, g, IntMatrix.from_rows([[-1]]))
    m = orbit_functor(2, g, sign)
    assert check_axioms(m) == ()
    assert invariant_factors(m.top) == (0, (2,))
    # norm is 1 + (-1) = 0
    assert m.res.matrix.is_zero()


# -- axiom diagnostics ---------------------------------------------------------


def broken(p=2):
    """Constant-Z diagram with tr = 1, which violates only the double-coset rule."""
    z = FpAbGroup.free(1)
    one = AbHom.identity(z)
    return MackeyFunctor(p, z, z, one, one, one)


def test_axiom_violation_is_named():
    problems = check_axioms(broken())
    assert problems == ("res of a transfer differs from the action norm",)


def test_each_axiom_failure_detected():
    z2 = FpAbGroup.free(2)
    z1 = FpAbGroup.free(1)
    swap = AbHom(z2, z2, IntMatrix.from_rows([[0, 1], [1, 0]]))
    res = AbHom(z1, z2, IntMatrix.from_rows([[1], [1]]))
    tr = AbHom(z2, z1, IntMatrix.from_rows([[1, 1]]))
    good = MackeyFunctor(2, z1, z2, swap, res, tr)
    assert check_axioms(good) == ()

    bad_power = MackeyFunctor(2, z1, z2, AbHom(z2, z2, IntMatrix.from_rows([[1, 1], [0, 1]])), res, tr)
    # the action's fault comes last, in the words of every other action check
    assert check_axioms(bad_power) == (
        "restrictions are not fixed by the action",
        "transfers are not invariant under the action",
        "the action does not have order dividing 2",
    )

    bad_res = MackeyFunctor(2, z1, z2, swap, AbHom(z1, z2, IntMatrix.from_rows([[1], [0]])), tr)
    assert "restrictions are not fixed by the action" in check_axioms(bad_res)

    bad_tr = MackeyFunctor(2, z1, z2, swap, res, AbHom(z2, z1, IntMatrix.from_rows([[1, 2]])))
    assert "transfers are not invariant under the action" in check_axioms(bad_tr)

    z4 = FpAbGroup.cyclic(4)
    bad_gamma = MackeyFunctor(
        2, z4, z4, AbHom(z4, z4, IntMatrix.from_rows([[3]])), AbHom.identity(z4), AbHom(z4, z4, IntMatrix.from_rows([[0]]))
    )
    # gamma = 3 is fine on Z/4 (it squares to 9 = 1); sabotage well-definedness
    # instead with a map Z/4 -> Z/4 sending the generator to a non-multiple
    wild = MackeyFunctor(
        2,
        z4,
        FpAbGroup.cyclic(2),
        AbHom.identity(FpAbGroup.cyclic(2)),
        AbHom(z4, FpAbGroup.cyclic(2), IntMatrix.from_rows([[1]])),
        AbHom(FpAbGroup.cyclic(2), z4, IntMatrix.from_rows([[1]])),
    )
    assert "transfer is not well-defined" in check_axioms(wild)
    del bad_gamma

    # res sends the generator of Z/2 to 1, whose double is not 0 in Z
    c2 = FpAbGroup.cyclic(2)
    ill_res = MackeyFunctor(2, c2, z1, AbHom.identity(z1), AbHom(c2, z1, IntMatrix.from_rows([[1]])), AbHom.zero(z1, c2))
    assert check_axioms(ill_res)[0] == "restriction is not well-defined"


def test_every_construction_rejects_a_bad_action_with_the_same_message():
    """``coinvariants``, ``fixed_point_functor`` and ``orbit_functor`` share
    one action check, so each fault reads the same whichever one is called:
    a map that is not an endomorphism, one that is not well defined, and one
    whose p-th power is not the identity."""
    z = FpAbGroup.free(1)
    z2_z = FpAbGroup(2, IntMatrix.from_columns([(2, 0)], rows=2))
    cases = (
        (z, AbHom(z, FpAbGroup.cyclic(2), IntMatrix.from_rows([[1]])), "endomorphism"),
        (z2_z, AbHom(z2_z, z2_z, IntMatrix.from_rows([[1, 0], [1, 1]])), "not well-defined"),
        (z, AbHom(z, z, IntMatrix.from_rows([[2]])), "order dividing 2"),
    )
    for module, gamma, fault in cases:
        messages = set()
        for build in (
            lambda: coinvariants(module, gamma, 2),
            lambda: fixed_point_functor(2, module, gamma),
            lambda: orbit_functor(2, module, gamma),
        ):
            with pytest.raises(ValueError, match=fault) as raised:
                build()
            messages.add(str(raised.value))
        assert len(messages) == 1, (fault, messages)


def test_a_wrong_order_action_is_refused_before_the_box_forms_its_norm():
    """The action 2 on Z has no order dividing p = 1000000007.  The box and
    the unit map refuse it through the coinvariants' action check before
    ``action_norm`` forms a norm of about 10^9 bits.  A child process runs
    both under a deadline, so a lost check fails here instead of hanging."""
    probe = """
from mackeybox.abgroup import AbHom, FpAbGroup
from mackeybox.intlin import IntMatrix
from mackeybox.mackey import MackeyFunctor, box_product, burnside, unit_isomorphism
p, z = 1000000007, FpAbGroup.free(1)
bad = MackeyFunctor(p, z, z, AbHom(z, z, IntMatrix.from_rows([[2]])), AbHom.zero(z, z), AbHom.zero(z, z))
for build in (lambda: box_product(bad, burnside(p)), lambda: unit_isomorphism(bad)):
    try:
        build()
    except ValueError as exc:
        print(exc)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(mackeybox.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "the action does not have order dividing 1000000007\n" * 2


def test_structural_validation_raises():
    z = FpAbGroup.free(1)
    one = AbHom.identity(z)
    with pytest.raises(ValueError):
        MackeyFunctor(4, z, z, one, one, one)
    other = FpAbGroup.free(2)
    with pytest.raises(ValueError):
        MackeyFunctor(2, z, other, one, one, one)
    with pytest.raises(ValueError, match="res must map the top tier to the bottom tier"):
        MackeyFunctor(2, z, z, one, AbHom.zero(other, z), one)
    with pytest.raises(ValueError, match="tr must map the bottom tier to the top tier"):
        MackeyFunctor(2, z, z, one, one, AbHom.zero(z, other))


# -- morphisms -----------------------------------------------------------------


def test_identity_and_composition():
    m = burnside(3)
    ident = MackeyMorphism(m, m, AbHom.identity(m.top), AbHom.identity(m.bottom))
    assert verify_morphism(ident) == ()
    assert is_mackey_isomorphism(ident)
    assert verify_morphism(ident.then(ident)) == ()
    n = constant_z(3)
    with pytest.raises(ValueError, match="phi_top must map source top to target top"):
        MackeyMorphism(m, n, AbHom.identity(m.top), AbHom.identity(m.bottom))
    with pytest.raises(ValueError, match="phi_bottom must map source bottom to target bottom"):
        MackeyMorphism(m, n, AbHom.zero(m.top, n.top), AbHom.zero(m.top, n.bottom))
    to_n = MackeyMorphism(m, n, AbHom.zero(m.top, n.top), AbHom.zero(m.bottom, n.bottom))
    with pytest.raises(ValueError, match="morphisms do not compose"):
        to_n.then(to_n)


def test_verify_morphism_diagnostics():
    m, n = constant_z(2), burnside(2)
    # top map Z -> Z^2 hitting the transfer generator, bottom identity:
    # the restriction square fails (res tr = 2, not 1)
    f = MackeyMorphism(
        m,
        n,
        AbHom(m.top, n.top, IntMatrix.from_columns([(0, 1)], rows=2)),
        AbHom.identity(m.bottom),
    )
    assert "restriction square does not commute" in verify_morphism(f)
    assert not is_mackey_isomorphism(f)
    # and a non-equivariant bottom map, against a sign-action target
    g = FpAbGroup.free(1)
    sign = AbHom(g, g, IntMatrix.from_rows([[-1]]))
    sgn = fixed_point_functor(2, g, sign)
    h = MackeyMorphism(
        m,
        sgn,
        AbHom.zero(m.top, sgn.top),
        AbHom(m.bottom, sgn.bottom, IntMatrix.from_rows([[1]])),
    )
    assert "bottom map is not equivariant" in verify_morphism(h)
    # equal tiers over other primes, and tier maps that are not well defined
    across = MackeyMorphism(burnside(2), burnside(3), AbHom.identity(FpAbGroup.free(2)), AbHom.identity(g))
    assert verify_morphism(across) == ("source and target live over different primes",)
    c2 = FpAbGroup.cyclic(2)
    torsion = MackeyFunctor(2, c2, c2, AbHom.identity(c2), AbHom.identity(c2), AbHom.zero(c2, c2))
    plain = MackeyFunctor(2, g, g, AbHom.identity(g), AbHom.identity(g), AbHom.zero(g, g))
    one = IntMatrix.from_rows([[1]])
    ill = MackeyMorphism(torsion, plain, AbHom(c2, g, one), AbHom(c2, g, one))
    problems = verify_morphism(ill)
    assert problems[:2] == ("top map is not well-defined", "bottom map is not well-defined")


def test_isomorphism_rejects_non_invertible():
    m = constant_z(3)
    doubling = MackeyMorphism(
        m, m, AbHom(m.top, m.top, IntMatrix.from_rows([[2]])), AbHom(m.bottom, m.bottom, IntMatrix.from_rows([[2]]))
    )
    assert verify_morphism(doubling) == ()
    assert not is_mackey_isomorphism(doubling)


# -- box product: explicit worked isomorphisms ---------------------------------


def test_box_of_constants_is_constant():
    for p in PRIMES:
        f = constant_box_morphism(p)
        assert f.source.p == p
        assert invariant_factors(f.source.top) == (1, ())
        assert is_mackey_isomorphism(f)


def test_box_of_twisted_multiplies_twists():
    cases = [(2, 1, 1), (3, 1, 2), (3, 2, 2), (5, 2, 3), (5, 1, 4), (7, 3, 5), (5, 0, 2), (3, 4, 5)]
    for p, c, d in cases:
        f = twisted_box_morphism(p, c, d)
        assert f.target == twisted_burnside(p, c * d)
        assert is_mackey_isomorphism(f)


def test_box_of_free_orbits_p2():
    f = c2_orbit_box_morphism()
    assert is_mackey_isomorphism(f)
    # and the underlying orbit count matches the set-level product
    s = GSet(0, 1)
    assert gset_product(s, s, 2) == GSet(0, 2)


def test_box_permutation_matches_gset_product():
    rng = random.Random(7)
    for p in (2, 3):
        for _ in range(6):
            s = GSet(rng.randint(0, 2), rng.randint(0, 1))
            t = GSet(rng.randint(0, 2), rng.randint(0, 1))
            lhs = box_product(permutation_functor(p, s), permutation_functor(p, t))
            rhs = permutation_functor(p, gset_product(s, t, p))
            assert check_axioms(lhs) == ()
            assert invariant_factors(lhs.top) == invariant_factors(rhs.top)
            assert invariant_factors(lhs.bottom) == invariant_factors(rhs.bottom)


def test_unit_law_explicitly():
    for p in PRIMES:
        for m in constructor_zoo(p):
            u = unit_isomorphism(m)
            assert u.source.p == p
            assert u.target is m
            assert verify_morphism(u) == (), (p, m)
            assert is_mackey_isomorphism(u), (p, m)


def test_unit_law_random():
    rng = random.Random(5151)
    for _ in range(60):
        p = rng.choice(PRIMES)
        m = random_functor(rng, p)
        assert is_mackey_isomorphism(unit_isomorphism(m))


def test_box_axioms_random():
    rng = random.Random(77)
    for _ in range(40):
        p = rng.choice((2, 3))
        m = random_functor(rng, p, max_gens=2)
        n = random_functor(rng, p, max_gens=2)
        mn = box_product(m, n)
        assert check_axioms(mn) == ()


def test_box_commutative_invariants():
    rng = random.Random(88)
    for _ in range(30):
        p = rng.choice((2, 3))
        m = random_functor(rng, p, max_gens=2)
        n = random_functor(rng, p, max_gens=2)
        mn, nm = box_product(m, n), box_product(n, m)
        assert invariant_factors(mn.top) == invariant_factors(nm.top)
        assert invariant_factors(mn.bottom) == invariant_factors(nm.bottom)


def test_box_associative_invariants():
    rng = random.Random(89)
    for _ in range(10):
        p = 2
        a = random_functor(rng, p, max_gens=2)
        b = random_functor(rng, p, max_gens=2)
        c = random_functor(rng, p, max_gens=2)
        lhs = box_product(box_product(a, b), c)
        rhs = box_product(a, box_product(b, c))
        assert invariant_factors(lhs.top) == invariant_factors(rhs.top)
        assert invariant_factors(lhs.bottom) == invariant_factors(rhs.bottom)


def test_box_with_zero_is_zero():
    for p in (2, 5):
        z = box_product(zero_functor(p), burnside(p))
        assert invariant_factors(z.top) == (0, ())
        assert invariant_factors(z.bottom) == (0, ())


def test_box_quotient_only_divides_out_frobenius():
    """The relation lattice of the box top is exactly (base relations + Frobenius)."""
    p = 3
    m, n = burnside(p), twisted_burnside(p, 2)
    mn = box_product(m, n)
    # rebuild the expected lattice directly
    from mackeybox.abgroup import coinvariants as co, direct_sum as ds, tensor_product as tp
    from mackeybox.intlin import IntMatrix as IM

    bt = tp(m.bottom, n.bottom)
    gamma = AbHom(bt, bt, m.gamma.matrix.kron(n.gamma.matrix))
    coinv, _ = co(bt, gamma, p)
    base = ds(tp(m.top, n.top), coinv).relations
    cols = [base.column(j) for j in range(base.cols)]
    nt = m.top.ngens * n.top.ngens
    nb = bt.ngens
    for i in range(m.top.ngens):
        for l in range(n.bottom.ngens):
            v = [0] * (nt + nb)
            for j in range(n.top.ngens):
                v[i * n.top.ngens + j] += n.tr.matrix.at(j, l)
            for k in range(m.bottom.ngens):
                v[nt + k * n.bottom.ngens + l] -= m.res.matrix.at(k, i)
            cols.append(tuple(v))
    for k in range(m.bottom.ngens):
        for j in range(n.top.ngens):
            v = [0] * (nt + nb)
            for i in range(m.top.ngens):
                v[i * n.top.ngens + j] += m.tr.matrix.at(i, k)
            for l in range(n.bottom.ngens):
                v[nt + k * n.bottom.ngens + l] -= n.res.matrix.at(l, j)
            cols.append(tuple(v))
    expected = IM.from_columns(cols, rows=nt + nb)
    assert same_lattice(mn.top.relations, expected)


def test_box_rejects_mismatched_primes():
    with pytest.raises(ValueError, match="^mismatched primes 2 and 3$"):
        box_product(burnside(2), burnside(3))
