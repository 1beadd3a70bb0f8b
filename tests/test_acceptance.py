"""Acceptance suite: one test per published capability, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
ACCEPTANCE report lines).  Every expected value here is either a hand-checked
small case or is validated against an independent oracle computed by different
means than the library uses.
"""

import itertools
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

from mackeybox.abgroup import invariant_factors
from mackeybox.document import parse_functor, render_machine
from mackeybox.intlin import IntMatrix, smith_normal_form, solve_linear
from mackeybox.mackey import (
    GSet,
    box_product,
    burnside,
    check_axioms,
    constant_z,
    gset_product,
    is_mackey_isomorphism,
    permutation_functor,
    twisted_burnside,
    unit_isomorphism,
    verify_morphism,
    zero_functor,
)
from mackeybox.separation import (
    FOUND,
    classify_invertible,
    gamma_functor,
    invert,
    isotropy_sequence,
    phi_functor,
    try_find_isomorphism,
    twisted_iso_criterion,
)

from helpers import (
    PRIMES,
    c2_orbit_box_morphism,
    constant_box_morphism,
    det,
    random_functor,
    twisted_box_morphism,
)


def report(n: int, detail: str):
    print(f"\nACCEPTANCE {n}: PASS — {detail}")


# -- 1: the worked box-product identities ---------------------------------------


def test_criterion_1_box_product_identities():
    checked = []

    # Z-box-Z is Z, by the explicit map (a⊗b ↦ ab, t(1⊗1) ↦ p)
    for p in PRIMES:
        f = constant_box_morphism(p)
        assert verify_morphism(f) == ()
        assert is_mackey_isomorphism(f)
    checked.append("constant□constant ≅ constant (explicit morphism, p in {2,3,5,7})")

    # twist c box twist d is twist c·d, by the explicit five-generator map
    for p, c, d in [(2, 1, 1), (3, 1, 2), (3, 2, 2), (5, 2, 3), (5, 1, 4), (7, 3, 6), (5, 0, 3), (3, -2, 4)]:
        f = twisted_box_morphism(p, c, d)
        assert f.target == twisted_burnside(p, c * d)
        assert is_mackey_isomorphism(f)
    checked.append("twisted(c)□twisted(d) ≅ twisted(cd) (8 explicit cases)")

    # free-orbit permutation functors multiply like the underlying sets (p = 2)
    f = c2_orbit_box_morphism()
    assert is_mackey_isomorphism(f)
    assert gset_product(GSet(0, 1), GSet(0, 1), 2) == GSet(0, 2)
    checked.append("free□free ≅ two-free-orbits at p=2 (explicit morphism)")

    # permutation functors: box matches the product of the underlying sets at
    # the level of tier invariants
    rng = random.Random(3141)
    for _ in range(8):
        p = rng.choice((2, 3))
        s = GSet(rng.randint(0, 2), rng.randint(0, 1))
        t = GSet(rng.randint(0, 2), rng.randint(0, 1))
        lhs = box_product(permutation_functor(p, s), permutation_functor(p, t))
        rhs = permutation_functor(p, gset_product(s, t, p))
        assert invariant_factors(lhs.top) == invariant_factors(rhs.top)
        assert invariant_factors(lhs.bottom) == invariant_factors(rhs.bottom)
    checked.append("permutation box matches set products (8 random pairs)")

    # the unit law box(A, M) ≅ M, with the explicit unit morphism, on the
    # standard constructors and a random sweep
    zoo = [
        zero_functor(3),
        constant_z(2),
        burnside(5),
        twisted_burnside(7, 3),
        permutation_functor(2, GSet(1, 1)),
        permutation_functor(3, GSet(0, 2)),
    ]
    for m in zoo:
        assert is_mackey_isomorphism(unit_isomorphism(m))
    count = 0
    for _ in range(50):
        p = rng.choice(PRIMES)
        m = random_functor(rng, p)
        assert is_mackey_isomorphism(unit_isomorphism(m)), (p, m)
        count += 1
    checked.append(f"unit law burnside□M ≅ M (constructors + {count} random functors)")

    report(1, "; ".join(checked))


# -- 2: the isomorphism criterion for twisted functors ---------------------------


def test_criterion_2_twisted_isomorphism_criterion():
    start = time.monotonic()
    pairs = agreements = 0
    for p in (2, 3, 5, 7):
        for c in range(-10, 11):
            for d in range(-10, 11):
                expected = (c - d) % p == 0 or (c + d) % p == 0
                assert twisted_iso_criterion(p, c, d) == expected
                search = try_find_isomorphism(
                    twisted_burnside(p, c),
                    twisted_burnside(p, d),
                    bound=abs(c) + abs(d) + 1,
                )
                found = search.status == FOUND
                assert found == expected, (p, c, d, search.status)
                if found:
                    assert is_mackey_isomorphism(search.witness)
                pairs += 1
                agreements += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion sweep took {elapsed:.1f}s"
    report(
        2,
        f"criterion ≡ bounded search on {pairs} (p,c,d) triples, "
        f"p in {{2,3,5,7}}, c,d in [-10,10], in {elapsed:.1f}s",
    )


# -- 3: invertibility classification and inversion -------------------------------


def test_criterion_3_classification_and_inverses():
    classified = inverted = 0
    for p in (2, 3, 5, 7, 11):
        for d in range(p):
            m = twisted_burnside(p, d)
            result = classify_invertible(m)
            assert result.invertible == (gcd(d, p) == 1), (p, d)
            classified += 1
            if not result.invertible:
                assert result.reason == "twist-not-coprime"
                assert invert(m) is None
                continue
            assert result.d_class == min(d % p, (-d) % p)
            inverse, certificate = invert(m)
            inv_class = classify_invertible(inverse)
            assert inv_class.invertible
            # the twists multiply to ±1 mod p, i.e. the product is a unit
            assert (result.d_class * inv_class.d_class) % p in (1 % p, (p - 1) % p)
            assert certificate.source == box_product(m, inverse)
            assert certificate.target == burnside(p)
            assert verify_morphism(certificate) == ()
            assert is_mackey_isomorphism(certificate)
            inverted += 1
    # non-invertible shapes are refused with reasons
    assert classify_invertible(zero_functor(3)).reason == "bottom-not-Z"
    assert classify_invertible(constant_z(5)).reason == "top-not-rank-2"
    report(
        3,
        f"{classified} twists classified over p in {{2,3,5,7,11}}, "
        f"{inverted} inverses produced with verified box(M,M⁻¹) ≅ burnside certificates",
    )


# -- 4: isotropy separation is monoidal on the geometric part ---------------------


def test_criterion_4_phi_is_monoidal():
    rng = random.Random(2718)
    pairs = 0
    while pairs < 200:
        p = rng.choice((2, 3))
        m = random_functor(rng, p, max_gens=2)
        n = random_functor(rng, p, max_gens=2)
        lhs, _ = phi_functor(box_product(m, n))
        rhs = box_product(phi_functor(m)[0], phi_functor(n)[0])
        assert invariant_factors(lhs.top) == invariant_factors(rhs.top), (p, m, n)
        pairs += 1
    report(4, f"invariants of Φ(M□N) match Φ(M)□Φ(N) on {pairs} random pairs (p in {{2,3}})")


# -- 5: axiom checking and exact isotropy sequences --------------------------------


def test_criterion_5_axioms_and_isotropy():
    rng = random.Random(577)
    passed = 0
    for _ in range(60):
        p = rng.choice(PRIMES)
        m = random_functor(rng, p)
        assert check_axioms(m) == ()
        passed += 1

    # the classic wrong diagram: constant Z with tr = 1 at p = 2
    from mackeybox.abgroup import AbHom, FpAbGroup
    from mackeybox.mackey import MackeyFunctor

    z = FpAbGroup.free(1)
    one = AbHom.identity(z)
    broken = MackeyFunctor(2, z, z, one, one, one)
    assert check_axioms(broken) == ("res of a transfer differs from the action norm",)

    # exactness of 0 → Γ(M) → M → Φ(M) → 0, honestly verified per tier
    exact = 0
    for _ in range(60):
        p = rng.choice(PRIMES)
        m = random_functor(rng, p)
        seq = isotropy_sequence(m)
        assert seq.exact, seq.report
        exact += 1
    for p in PRIMES:
        part, inc = gamma_functor(burnside(p))
        assert part.res.matrix.to_rows() == [[p]]
        assert inc.phi_top.matrix.to_rows() == [[0], [1]]
        assert isotropy_sequence(burnside(p)).exact
    report(
        5,
        f"{passed} random functors pass all axioms; the tr=1 diagram fails with the "
        f"named violation; {exact} random isotropy sequences verified exact",
    )


# -- 6: exact integer linear algebra ------------------------------------------------


def minor_gcd_invariants(a: IntMatrix) -> list[int]:
    out, prev = [], 1
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


def test_criterion_6_smith_normal_form():
    rng = random.Random(424242)
    checked = oracle_checked = solves = 0
    for i in range(1000):
        m = rng.randint(0, 6)
        n = rng.randint(0, 6)
        a = IntMatrix(m, n, tuple(rng.randint(-9, 9) for _ in range(m * n)))
        dec = smith_normal_form(a)
        assert dec.u @ a @ dec.v == dec.s
        assert abs(det(dec.u)) == 1 and abs(det(dec.v)) == 1
        diag = dec.diagonal()
        assert all(dec.s.at(i2, j2) == 0 for i2 in range(m) for j2 in range(n) if i2 != j2)
        assert all(x >= 0 for x in diag)
        nonzero = [x for x in diag if x]
        assert list(diag) == nonzero + [0] * (len(diag) - len(nonzero))
        assert all(b % a2 == 0 for a2, b in zip(nonzero, nonzero[1:]))
        checked += 1
        if m <= 4 and n <= 4:
            assert nonzero == minor_gcd_invariants(a)
            oracle_checked += 1
        if i % 3 == 0 and n:
            x = tuple(rng.randint(-4, 4) for _ in range(n))
            b = a.apply(x)
            got = solve_linear(a, b)
            assert got is not None and a.apply(got) == b
            solves += 1
    report(
        6,
        f"{checked} random Smith decompositions verified (transforms unimodular, "
        f"divisibility chain); {oracle_checked} matched the gcd-of-minors oracle; "
        f"{solves} linear solves substituted back",
    )


# -- 7: the command-line pipeline ----------------------------------------------------


def test_criterion_7_cli_pipeline():
    py = sys.executable

    def run_cli(args, stdin=None):
        return subprocess.run(
            [py, "-m", "mackeybox", *args], input=stdin, capture_output=True, text=True
        )

    # round-trip: make → check, exit 0
    made = run_cli(["make", "burnside", "--p", "3"])
    assert made.returncode == 0
    assert parse_functor(made.stdout) == burnside(3)
    checked = run_cli(["check"], stdin=made.stdout)
    assert checked.returncode == 0 and "status: pass" in checked.stdout

    # axiom violation → exit 1 with the named axiom; bad input → exit 2
    broken = render_machine(burnside(2)).replace("tr: [[0], [1]]", "tr: [[0], [2]]")
    failed = run_cli(["check"], stdin=broken)
    assert failed.returncode == 1
    assert "res of a transfer differs from the action norm" in failed.stdout
    garbled = run_cli(["check"], stdin="p = 2\n")
    assert garbled.returncode == 2
    nonprime = run_cli(["make", "burnside", "--p", "6"])
    assert nonprime.returncode == 2

    # the full pipeline: make twisted --p 5 --twist 2 | invert - | classify -
    pipeline = " | ".join(
        [
            f"'{py}' -m mackeybox make twisted --p 5 --twist 2",
            f"'{py}' -m mackeybox invert -",
            f"'{py}' -m mackeybox classify -",
        ]
    )
    proc = subprocess.run(["sh", "-c", pipeline], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "verdict: twisted-burnside" in proc.stdout
    line = next(l for l in proc.stdout.splitlines() if l.startswith("d_class:"))
    rep = int(line.split(":")[1])
    # the reported class must be (an associate of) the inverse of 2 mod 5
    assert (2 * rep) % 5 in (1, 4)
    report(
        7,
        "make/check round-trip (exit 0), named axiom failure (exit 1), malformed "
        f"input (exit 2), and make twisted --p 5 --twist 2 | invert | classify → {line}",
    )
