"""Finitely presented abelian groups and their homomorphisms.

The isomorphism decision is cross-checked by a brute-force search for a
mutually inverse pair of well-defined homomorphisms with small entries,
which is an independent (and sound in both directions on small inputs)
oracle for the Smith-form comparison used by the library.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mackeybox.abgroup import (
    AbHom,
    FpAbGroup,
    _bijective,
    _check_action,
    _image,
    cokernel,
    coinvariants,
    describe_group,
    direct_sum,
    invariant_factors,
    kernel,
    tensor_product,
)
from mackeybox.intlin import IntMatrix, smith_normal_form

from helpers import preimage_gens, random_presentation, same_lattice


# -- presentations and invariants ---------------------------------------------


def test_invariant_factors_examples():
    g = FpAbGroup(2, IntMatrix.from_columns([(2, 0), (0, 6)], rows=2))
    assert invariant_factors(g) == (0, (2, 6))
    assert invariant_factors(FpAbGroup.free(3)) == (3, ())
    assert invariant_factors(FpAbGroup.cyclic(1)) == (0, ())
    assert invariant_factors(FpAbGroup.trivial()) == (0, ())
    # Z/2 + Z/3 is cyclic of order 6 in disguise.
    assert invariant_factors(direct_sum(FpAbGroup.cyclic(2), FpAbGroup.cyclic(3))) == invariant_factors(
        FpAbGroup.cyclic(6)
    )


def test_describe_group():
    assert describe_group(FpAbGroup.trivial()) == "0"
    assert describe_group(FpAbGroup.free(1)) == "Z"
    assert describe_group(FpAbGroup.free(2)) == "Z^2"
    g = direct_sum(FpAbGroup.free(1), FpAbGroup.cyclic(4))
    assert describe_group(g) == "Z + Z/4"


def test_element_equality_is_semantic():
    """Two coordinate columns are one element when their difference lies in
    the relation lattice."""
    g = FpAbGroup.cyclic(5)
    assert g.contains_all(IntMatrix.column_vector((7 - 2,)))
    assert g.contains_all(IntMatrix.column_vector((5,)))
    assert not g.contains_all(IntMatrix.column_vector((1 - 2,)))
    # a structurally identical group gives the same answers
    assert FpAbGroup.cyclic(5).contains_all(IntMatrix.column_vector((1 - 6,)))


# -- homomorphisms -------------------------------------------------------------


def test_well_definedness():
    z2 = FpAbGroup.cyclic(2)
    z4 = FpAbGroup.cyclic(4)
    doubling = AbHom(z2, z4, IntMatrix.from_rows([[2]]))
    injection_attempt = AbHom(z2, z4, IntMatrix.from_rows([[1]]))
    assert doubling.is_well_defined()
    assert not injection_attempt.is_well_defined()
    # reduction the other way is fine
    assert AbHom(z4, z2, IntMatrix.from_rows([[1]])).is_well_defined()


def test_hom_composition_and_equality():
    z = FpAbGroup.free(1)
    z3 = FpAbGroup.cyclic(3)
    proj = AbHom(z, z3, IntMatrix.from_rows([[1]]))
    tripled = AbHom(z, z, IntMatrix.from_rows([[3]]))
    assert (proj @ tripled).equals(AbHom.zero(z, z3))
    assert not proj.equals(AbHom.zero(z, z3))
    assert (proj + proj + proj).equals(AbHom.zero(z, z3))
    assert proj.scaled(4).equals(proj)
    # maps with other ends: composition and sums refuse them, equality is False
    with pytest.raises(TypeError):
        proj @ IntMatrix.from_rows([[1]])
    with pytest.raises(ValueError, match="homomorphisms do not compose"):
        tripled @ proj
    for combine in (AbHom.__add__, AbHom.__sub__):
        with pytest.raises(ValueError, match="homomorphisms with different ends"):
            combine(proj, tripled)
    assert not proj.equals(tripled)


def test_power():
    g = FpAbGroup.free(2)
    swap = AbHom(g, g, IntMatrix.from_rows([[0, 1], [1, 0]]))
    assert swap.power(2).equals(AbHom.identity(g))
    assert swap.power(0).equals(AbHom.identity(g))
    with pytest.raises(ValueError, match="orbits need an endomorphism"):
        AbHom.zero(g, FpAbGroup.free(1)).orbit(2)
    with pytest.raises(ValueError, match="orbits need k >= 0, got k = -1"):
        swap.orbit(-1)


def test_presentations_and_maps_refuse_the_wrong_shape():
    with pytest.raises(ValueError, match="generator count must be nonnegative"):
        FpAbGroup(-1, IntMatrix.zeros(0, 0))
    with pytest.raises(ValueError, match="relation columns have length 2, expected 3"):
        FpAbGroup(3, IntMatrix.zeros(2, 1))
    with pytest.raises(ValueError, match="matrix is 1x2, expected 2x1"):
        AbHom(FpAbGroup.free(1), FpAbGroup.free(2), IntMatrix.from_rows([[1, 0]]))


def test_shear_is_isomorphism():
    g = FpAbGroup.free(2)
    shear = AbHom(g, g, IntMatrix.from_rows([[1, 5], [0, 1]]))
    double = AbHom(g, g, IntMatrix.from_rows([[2, 0], [0, 1]]))
    assert shear.is_well_defined() and _bijective(shear)
    assert not (double.is_well_defined() and _bijective(double))


# -- constructions -------------------------------------------------------------


def test_tensor_product_cyclic():
    t = tensor_product(FpAbGroup.cyclic(4), FpAbGroup.cyclic(6))
    assert invariant_factors(t) == (0, (2,))
    t2 = tensor_product(FpAbGroup.free(2), FpAbGroup.cyclic(3))
    assert invariant_factors(t2) == (0, (3, 3))


def test_tensor_is_symmetric_up_to_iso():
    rng = random.Random(41)
    for _ in range(30):
        g = random_presentation(rng)
        h = random_presentation(rng)
        ab = tensor_product(g, h)
        ba = tensor_product(h, g)
        assert invariant_factors(ab) == invariant_factors(ba)


def test_quotient_projection():
    """Z^2 modulo (2, 0), as the cokernel of the map Z → Z^2 hitting it."""
    g = FpAbGroup.free(2)
    q, proj = cokernel(AbHom(FpAbGroup.free(1), g, IntMatrix.column_vector((2, 0))))
    assert invariant_factors(q) == (1, (2,))
    assert proj.is_well_defined()
    assert q.contains_all(proj.matrix @ IntMatrix.column_vector((2, 0)))
    assert not q.contains_all(proj.matrix @ IntMatrix.column_vector((1, 0)))


def test_coinvariants_sign_action():
    g = FpAbGroup.free(1)
    sign = AbHom(g, g, IntMatrix.from_rows([[-1]]))
    c, proj = coinvariants(g, sign, 2)
    assert invariant_factors(c) == (0, (2,))
    assert proj.is_well_defined()
    with pytest.raises(ValueError):
        coinvariants(g, AbHom(g, g, IntMatrix.from_rows([[2]])), 2)


def test_coinvariants_take_any_order_and_refuse_a_wrong_one():
    """rot90 has order 4, so it acts with order dividing 4 but not 5; at
    p = 5 the checked exponent is gcd(5, lcm{e : φ(e) ≤ 2}) = gcd(5, 12) = 1,
    so only rot90 = 1 could pass.  An order below 1 is refused whatever the
    action."""
    z2 = FpAbGroup.free(2)
    rot90 = AbHom(z2, z2, IntMatrix.from_rows([[0, -1], [1, 0]]))
    c, _ = coinvariants(z2, rot90, 4)
    assert invariant_factors(c) == (0, (2,))
    with pytest.raises(ValueError, match="the action does not have order dividing 5"):
        coinvariants(z2, rot90, 5)
    for p in (0, -3):
        with pytest.raises(ValueError, match="p >= 1"):
            _check_action(z2, AbHom.identity(z2), p)


@pytest.mark.parametrize("entry, p, ok", [(2, 10**8, False), (-1, 2 * 10**7, True)])
def test_a_composite_order_is_checked_without_the_pth_power(monkeypatch, entry, p, ok):
    """On Z the checked exponent is gcd(p, lcm{e : φ(e) ≤ 1}) = gcd(p, 2) =
    2 for even p: 2 is refused and -1 accepted from their squares, and
    gamma^p, a number of p bits for 2, is never formed."""
    formed = []
    original = AbHom._orbit
    monkeypatch.setattr(AbHom, "_orbit", lambda f, k: formed.append(k) or original(f, k))
    z = FpAbGroup.free(1)
    gamma = AbHom(z, z, IntMatrix.from_rows([[entry]]))
    if ok:
        assert invariant_factors(coinvariants(z, gamma, p)[0]) == (0, (2,))
    else:
        with pytest.raises(ValueError, match=f"the action does not have order dividing {p}"):
            coinvariants(z, gamma, p)
    assert formed == [2]


def test_kernel_and_cokernel():
    g = FpAbGroup.free(2)
    f = AbHom(g, g, IntMatrix.from_rows([[1, 0], [0, 0]]))
    k, inc = kernel(f)
    assert invariant_factors(k) == (1, ())
    assert (f @ inc).equals(AbHom.zero(k, g))
    c, proj = cokernel(f)
    assert invariant_factors(c) == (1, ())
    assert (proj @ f).equals(AbHom.zero(g, c))


def test_kernel_catches_torsion_kernels():
    # multiplication by 2 on Z/4 has kernel Z/2
    z4 = FpAbGroup.cyclic(4)
    f = AbHom(z4, z4, IntMatrix.from_rows([[2]]))
    k, inc = kernel(f)
    assert invariant_factors(k) == (0, (2,))
    assert (f @ inc).equals(AbHom.zero(k, z4))


def test_an_image_inclusion_carries_the_proof_that_it_is_well_defined():
    """``_image`` proves its inclusion well defined from the kernel of
    ``[matrix | target relations]``; a copy without the proof reaches the
    same verdict by the membership test, which a map still runs when its
    memo holds no proof."""
    rng = random.Random(18)
    for _ in range(100):
        g, h = random_presentation(rng), random_presentation(rng)
        f = AbHom(g, h, IntMatrix(h.ngens, g.ngens, tuple(rng.randint(-4, 4) for _ in range(h.ngens * g.ngens))))
        im, inclusion = _image(f)
        assert inclusion.__dict__["_well_defined"] is True
        assert AbHom(im, h, f.matrix).is_well_defined()
    unproved = AbHom(FpAbGroup.cyclic(2), FpAbGroup.cyclic(4), IntMatrix.from_rows([[1]]))
    unproved.__dict__["_well_defined"] = False
    assert not unproved.is_well_defined()


def test_torsion_free_and_lattice():
    a = IntMatrix.from_columns([(2, 0), (0, 3)], rows=2)
    b = IntMatrix.from_columns([(2, 3), (0, 3), (-2, 0)], rows=2)
    assert same_lattice(a, b)
    assert not same_lattice(a, IntMatrix.from_columns([(1, 0), (0, 3)], rows=2))


# -- isomorphism decision vs. brute-force oracle --------------------------------


def _all_homs(src: FpAbGroup, tgt: FpAbGroup, bound: int):
    entries = range(-bound, bound + 1)
    for flat in itertools.product(entries, repeat=src.ngens * tgt.ngens):
        f = AbHom(src, tgt, IntMatrix(tgt.ngens, src.ngens, flat))
        if f.is_well_defined():
            yield f


def brute_force_isomorphic(g: FpAbGroup, h: FpAbGroup, bound: int) -> bool:
    """Search for hom pairs composing to the identity both ways."""
    for f in _all_homs(g, h, bound):
        for b in _all_homs(h, g, bound):
            if (b @ f).equals(AbHom.identity(g)) and (f @ b).equals(AbHom.identity(h)):
                return True
    return False


def test_isomorphism_matches_brute_force():
    rng = random.Random(43)
    checked_same = 0
    for _ in range(40):
        g = random_presentation(rng, max_gens=2, max_rels=2, entry=3)
        h = random_presentation(rng, max_gens=2, max_rels=2, entry=3)
        lib = invariant_factors(g) == invariant_factors(h)
        oracle = brute_force_isomorphic(g, h, 2)
        if oracle:
            # oracle found an explicit isomorphism: the library must agree
            assert lib
        if lib:
            checked_same += 1
            # small presentations always admit a small isomorphism witness
            assert brute_force_isomorphic(g, h, 3)
    assert checked_same >= 3


def test_same_group_different_presentation():
    # Z/6 presented two ways: directly, and as a quotient of Z^2
    a = FpAbGroup.cyclic(6)
    b = FpAbGroup(2, IntMatrix.from_columns([(1, 1), (2, -4)], rows=2))
    assert invariant_factors(b) == (0, (6,))
    assert brute_force_isomorphic(a, b, 3)


# -- the one group-membership primitive -----------------------------------------


@st.composite
def group_and_columns(draw):
    """A presented group and columns mixing zero columns, relations, negated
    relations, random vectors, and relations with one entry changed by one
    or negated (near misses of the inspection)."""
    n = draw(st.integers(0, 4))
    k = draw(st.integers(0, n + 1))  # few relations leave room for near misses
    entry = st.integers(-6, 6)
    rel_cols = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    group = FpAbGroup(n, IntMatrix.from_columns(rel_cols, rows=n))
    kinds = ["zero", "random"] + (["relation", "negated", "shifted", "flipped"] if k and n else [])
    columns = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=5)):
        if kind == "zero":
            columns.append([0] * n)
        elif kind == "random":
            columns.append(draw(st.lists(entry, min_size=n, max_size=n)))
        else:
            col = list(rel_cols[draw(st.integers(0, k - 1))])
            i = draw(st.integers(0, n - 1))
            if kind == "negated":
                col = [-x for x in col]
            elif kind == "shifted":
                col[i] += draw(st.sampled_from((-1, 1)))
            elif kind == "flipped":
                col[i] = -col[i]
            columns.append(col)
    return group, IntMatrix.from_columns(columns, rows=n)


@settings(max_examples=300, deadline=None)
@given(group_and_columns())
@example((FpAbGroup(2, IntMatrix.from_columns([(2, 4)], rows=2)), IntMatrix.from_columns([(-2, 4)], rows=2)))
@example((FpAbGroup(2, IntMatrix.from_columns([(2, 4)], rows=2)), IntMatrix.from_columns([(3, 4)], rows=2)))
@example((FpAbGroup(2, IntMatrix.from_columns([(2, 0)], rows=2)), IntMatrix.from_columns([(-2, 0), (0, 0)], rows=2)))
def test_group_contains_all_agrees_with_the_smith_decomposition(case):
    group, columns = case
    assert group.contains_all(columns) == group.smith.contains_all(columns)
    for j in range(columns.cols):
        column = columns.take_columns([j])
        assert group.contains_all(column) == group.smith.contains_all(column)


@pytest.mark.parametrize(
    "ask, columns, height",
    [
        (FpAbGroup.cyclic(4).contains_all, IntMatrix.from_rows([[4], [0]]), 1),
        (FpAbGroup.free(1).contains_all, IntMatrix.zeros(3, 2), 1),
        (smith_normal_form(IntMatrix.zeros(2, 0)).contains_all, IntMatrix.zeros(5, 1), 2),
        (FpAbGroup.cyclic(4).contains_all, IntMatrix.from_rows([[3], [0]]), 1),
        (smith_normal_form(IntMatrix.zeros(2, 0)).solve, IntMatrix.zeros(5, 1), 2),
    ],
    ids=["matched-by-inspection", "relation-free-group", "no-relations", "multiplied-into-U", "solve"],
)
def test_membership_and_solve_reject_columns_of_the_wrong_length(ask, columns, height):
    """A wrong-length column is refused with both sizes named, not matched
    against the relations by inspection nor multiplied into U."""
    with pytest.raises(ValueError, match=f"length {columns.rows} for a lattice in Z\\^{height}$"):
        ask(columns)


def test_membership_by_inspection_needs_no_elimination():
    """Zero columns and plus or minus a relation are members without the
    group's Smith form; a relation-free group never builds its U."""
    g = FpAbGroup(2, IntMatrix.from_columns([(2, 4), (0, 3)], rows=2))
    assert g.contains_all(IntMatrix.from_columns([(0, 0), (-2, -4), (0, 3)], rows=2))
    assert "smith" not in g.__dict__
    assert not g.contains_all(IntMatrix.from_columns([(0, 0), (1, 0)], rows=2))
    assert "smith" in g.__dict__
    free = FpAbGroup.free(3)
    assert free.contains_all(IntMatrix.zeros(3, 2))
    assert not free.contains_all(IntMatrix.from_columns([(0, 0, 1)], rows=3))
    assert invariant_factors(free) == (3, ())
    assert "smith" not in free.__dict__


def diagonal_onto(f: AbHom) -> bool:
    """Surjectivity by the general path: a fresh Smith form of
    ``[matrix | target relations]`` whose diagonal is ``target.ngens`` ones."""
    diag = smith_normal_form(f.matrix.hstack(f.target.relations)).diagonal()
    return len(diag) == f.target.ngens and all(d == 1 for d in diag)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_answers_read_from_construction_agree_with_the_general_path(rng):
    """The identity (built afresh, so it is compared by value), a map into
    ``FpAbGroup.trivial()`` and one into a 0-generator group with relation
    columns are onto without a Smith form, and all their kernel lattices
    byte-equal ``helpers.preimage_gens``.  Both blocks a cokernel stacks are
    members (``same_lattice`` confirms it without the library), and
    ``equals`` with a zero side agrees with ``contains_all(m - n)``."""
    g, h = random_presentation(rng), random_presentation(rng)
    n = g.ngens
    other = FpAbGroup(n, IntMatrix.from_columns(
        [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 3))], rows=n))
    eye = IntMatrix(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))
    empty = FpAbGroup(0, IntMatrix.zeros(0, rng.randint(1, 3)))
    closed = [AbHom(g, g, eye), AbHom(other, g, eye), AbHom.zero(g, FpAbGroup.trivial()), AbHom.zero(g, empty)]
    for f in closed:
        assert f.is_surjective() and "smith" not in f.__dict__ and diagonal_onto(f)
        assert f.kernel_lattice == preimage_gens(f.matrix, f.target.relations)
    f = AbHom(h, g, IntMatrix(n, h.ngens, tuple(rng.randint(-3, 3) for _ in range(n * h.ngens))))
    c = cokernel(f)[0]
    for block in (g.relations, f.matrix):
        assert c.contains_all(block)
        assert same_lattice(c.relations, c.relations.hstack(block))
    for target, m in ((g, f.matrix), (c, f.matrix), (c, g.relations)):
        source = FpAbGroup.free(m.cols)
        nonzero, zero = AbHom(source, target, m), AbHom.zero(source, target)
        for a, b in ((zero, nonzero), (nonzero, zero)):
            assert a.equals(b) == target.contains_all(a.matrix - b.matrix)
