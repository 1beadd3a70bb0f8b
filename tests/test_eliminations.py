"""Each linear system is eliminated once.

A caller that needs a particular solution and the kernel of one system (the
fixed points, the isomorphism search) reads both from one Smith
decomposition, and the classification reads each tier's projection and
section from the rows of that tier's U and the columns of its U⁻¹, both
replayed from the tier's one decomposition.  Every elimination goes
through ``intlin.smith_normal_form``; the counts below are pinned by
wrapping it, so a change that eliminates a system twice fails here.  A map
whose matrix leads with the identity (``[I | X]``: the identity, a map into
a group with no generators, the unit's top map) is onto by construction,
the identity writes its kernel lattice in closed form, and a map that is
onto is an isomorphism when its groups have the same invariant factors, so
no kernel lattice is read for that.  The orbit of a permutation action is pinned the same way, at no matrix product,
and its cost by the lines of ``intlin`` it runs; so are the functors and
morphisms that classifying and inverting build.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mackeybox import abgroup, intlin, mackey, separation
from mackeybox.abgroup import AbHom, FpAbGroup
from mackeybox.intlin import IntMatrix
from mackeybox.mackey import (
    GSet,
    MackeyFunctor,
    MackeyMorphism,
    box_product,
    check_axioms,
    fixed_point_functor,
    permutation_functor,
    twisted_burnside,
)

from helpers import pad_functor


@pytest.fixture
def eliminated(monkeypatch):
    """The matrices handed to ``smith_normal_form`` (``abgroup`` and
    ``separation`` import it by name)."""
    inputs = []
    original = intlin.smith_normal_form

    def recording(a):
        inputs.append(a)
        return original(a)

    for module in (intlin, abgroup, separation):
        monkeypatch.setattr(module, "smith_normal_form", recording)
    return inputs


def test_a_fixed_point_functor_takes_two_eliminations(eliminated):
    """The fixed-point functor of a permutation module: the kernel lattice of
    gamma - 1, then one Smith form of [basis | relations] for both the top's
    relations and the transfer (three before the kernel and the transfer
    shared one).  ``permutation_functor`` writes the same functor down from
    the orbits and eliminates nothing."""
    built = [permutation_functor(p, s) for p in (2, 3, 5) for s in (GSet(1, 0), GSet(0, 1), GSet(1, 1))]
    assert not eliminated
    for m in built:
        fixed_point_functor(m.p, m.bottom, m.gamma)
    assert len(eliminated) == 18


def test_isomorphism_search_eliminates_each_system_once(eliminated):
    """One Smith form of the morphism system gives the lattice of pairs
    (φ_bottom, φ_top) that the whole search walks, plus one per tier map
    tested for bijectivity but the identity, which is onto with kernel
    lattice ``-relations`` by construction.  Only bottom maps that extend to
    a morphism are tested.  (56 while the bottom maps were walked alone and
    each bottom isomorphism started a top system of its own, 60 while the
    four identity bottom candidates took the closed form, since removed, of
    ``[I | relations]``, 80 before the walks solved and took the kernel
    separately.)"""
    for p in (3, 5, 7):
        for c, d in ((2, 3), (1, 2), (2, 2 + p)):
            separation.try_find_isomorphism(twisted_burnside(p, c), twisted_burnside(p, d), 2)
    assert len(eliminated) == 40


def test_morphism_system_reads_the_conditions_modulo_the_torsion_of_n(monkeypatch):
    """A p = 3 pair with redundant relations (one per row, as in a document).
    Read against every relation of M and of N, its joint system is 40 x 148,
    a size at which the Smith elimination once ran for 34 s.  Read on a
    basis of M's relations and modulo N's torsion factors, it has one
    auxiliary unknown per factor above 1 and column of a condition (10),
    and the witness is the one the search of bottom maps, then top maps,
    found."""
    systems = []
    original = separation.smith_normal_form
    monkeypatch.setattr(separation, "smith_normal_form", lambda a: systems.append(a) or original(a))

    def functor(top_rels, bottom_rels, res, tr):
        top = FpAbGroup(2, IntMatrix.from_columns(top_rels, rows=2))
        bottom = FpAbGroup(2, IntMatrix.from_columns(bottom_rels, rows=2))
        hom = lambda s, t, rows: AbHom(s, t, IntMatrix.from_rows(rows))
        return MackeyFunctor(3, top, bottom, AbHom.identity(bottom), hom(top, bottom, res), hom(bottom, top, tr))

    a = functor([[3, -3]] * 3 + [[2, -4]] * 3 + [[0, 0]] * 2, [[3, -3]] * 3 + [[2, -4]] * 3, [[3, 0], [0, 3]], [[1, 0], [0, 1]])
    b = functor([[0, -3]] * 3 + [[-2, -4]] * 3 + [[0, 0]] * 2, [[3, -6]] * 3 + [[2, -6]] * 3, [[3, -3], [-3, 6]], [[2, 1], [1, 1]])
    result = separation.try_find_isomorphism(a, b, 1)
    assert result.status == separation.FOUND
    assert result.witness.phi_top.matrix.to_rows() == [[-1, -1], [-1, 0]]
    assert result.witness.phi_bottom.matrix.to_rows() == [[-1, -1], [-1, 1]]
    (system,) = systems
    assert system.cols - 8 < 20  # 8 unknowns: the entries of φ_top and φ_bottom


@pytest.mark.parametrize("p, d", [(3, 2), (5, 2), (7, 3), (3, 6)])
def test_classification_never_eliminates_a_tier_transform(eliminated, p, d):
    """Sections are the columns of each tier's U⁻¹ past the rank, replayed
    from the tier's decomposition: no square matrix of a tier's size is
    eliminated, and neither tier's U.  Nor is ``[tr | top relations]``: the
    transfer is read through the cokernel of tr alone."""
    m = pad_functor(pad_functor(twisted_burnside(p, d), random.Random(3)), random.Random(4))
    result = separation.classify_invertible(m)
    assert result.invertible == (d % p != 0)
    assert "smith" not in m.tr.__dict__
    tier_us = (m.top.smith.u, m.bottom.smith.u)
    sizes = {(m.top.ngens, m.top.ngens), (m.bottom.ngens, m.bottom.ngens)}
    assert m.top.relations.cols and m.bottom.relations.cols
    assert not any((a.rows, a.cols) in sizes for a in eliminated)
    assert not any(a == u for a in eliminated for u in tier_us)


def test_kernel_is_the_columns_of_v_past_the_rank():
    rng = random.Random(9)
    for _ in range(100):
        rows, cols = rng.randint(0, 4), rng.randint(0, 5)
        a = IntMatrix(rows, cols, tuple(rng.randint(-3, 3) for _ in range(rows * cols)))
        dec = intlin.smith_normal_form(a)
        k = dec.kernel()
        assert k.cols == cols - dec.rank()
        assert (a @ k).is_zero()
        assert k == intlin.kernel_basis(a)


def leads_with_identity(a: IntMatrix) -> bool:
    """Whether the first ``a.rows`` columns of a are the identity (so a
    matrix with no rows is)."""
    return a.rows <= a.cols and all(
        a.at(i, j) == (1 if i == j else 0) for i in range(a.rows) for j in range(a.rows)
    )


@st.composite
def identity_led(draw):
    rows = draw(st.integers(0, 5))
    extra = draw(st.integers(0, 5))
    entries = []
    for i in range(rows):
        entries += [1 if i == j else 0 for j in range(rows)]
        entries += draw(st.lists(st.integers(-9, 9), min_size=extra, max_size=extra))
    return IntMatrix(rows, rows + extra, tuple(entries))


@settings(max_examples=300, deadline=None)
@given(identity_led())
def test_the_closed_form_of_an_identity_led_matrix_is_what_the_elimination_reaches(a):
    """On ``[I | R]`` the elimination reaches U = I, S = [I | 0],
    V = [[I, -R], [0, I]] and the kernel [-R; I], which is the map's
    ``AbHom.kernel_lattice``; the map is onto without the elimination."""
    assert intlin._leads_with_identity(a)
    n, extra = a.rows, a.cols - a.rows
    minus_r = -a.take_columns(range(n, a.cols))
    below = IntMatrix.zeros(extra, n).hstack(IntMatrix.identity(extra))
    dec = intlin.smith_normal_form(a)
    assert (dec.u, dec.s) == (IntMatrix.identity(n), IntMatrix.identity(n).hstack(IntMatrix.zeros(n, extra)))
    assert dec.v == IntMatrix.identity(n).hstack(minus_r).vstack(below)
    assert dec.kernel() == minus_r.vstack(IntMatrix.identity(extra))
    f = AbHom(FpAbGroup.free(a.cols), FpAbGroup.free(n), a)
    assert f.is_surjective() and "smith" not in f.__dict__
    assert f.kernel_lattice == dec.kernel()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 5), st.lists(st.integers(-1, 1), min_size=20, max_size=20))
def test_leads_with_identity_reads_the_first_rows_columns(rows, cols, pool):
    a = IntMatrix(rows, cols, tuple(pool[: rows * cols]))
    assert intlin._leads_with_identity(a) == leads_with_identity(a)


@st.composite
def small_matrices(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = draw(st.lists(st.integers(-9, 9), min_size=rows * cols, max_size=rows * cols))
    return IntMatrix(rows, cols, tuple(entries))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        small_matrices().map(intlin.smith_normal_form),
        identity_led().map(intlin.smith_normal_form),  # no row operations
        st.integers(0, 5).map(lambda n: abgroup.FpAbGroup.free(n).smith),
    )
)
def test_u_inverse_undoes_u(dec):
    eye = IntMatrix.identity(dec.s.rows)
    assert dec.u_inverse @ dec.u == dec.u @ dec.u_inverse == eye


def test_isotropy_sequence_eliminates_only_the_transfer_and_the_top(eliminated):
    """After the axiom check, the sequence of the p = 5 (0,1)x(1,1) product
    eliminates only ``[tr | top relations]``: the inclusion's top map reads
    the transfer's decomposition, whose kernel also proves that map well
    defined, so the top's relations are not eliminated.  The inclusion's
    bottom map is the identity, onto by construction, so ker proj lies in
    its image plus the relations with no Smith form (2 matrices before,
    when its ``[I | relations]`` was handed over for that).  The
    projection's tier maps, the identity onto Phi's top and the map into
    its zero bottom, are onto by construction and write their kernel
    lattices without a Smith form, and Phi's cokernel group answers the two
    blocks it stacked by identity.  Before the inclusion carried its proof,
    the top's relations were eliminated too."""
    x = box_product(permutation_functor(5, GSet(0, 1)), permutation_functor(5, GSet(1, 1)))
    assert check_axioms(x) == ()
    del eliminated[:]
    assert separation.isotropy_sequence(x).exact
    assert eliminated == [x.tr.matrix.hstack(x.top.relations)]
    assert "smith" in x.tr.__dict__


def test_isotropy_sequence_stacks_the_transfer_once_and_transposes_nothing(monkeypatch):
    """After the axiom check, the sequence of the p = 3 (0,1)x(1,1) product
    stacks ``[tr | top relations]`` once (``AbHom.spanning``), for the
    transfer's Smith form, the kernel proof of ``abgroup._image`` and
    ``separation._exact_in_middle`` alike (three times before), and builds
    no transpose: membership reads the columns of the query and of the
    relations in one pass each (six transposes before, all of them for
    membership)."""
    x = box_product(permutation_functor(3, GSet(0, 1)), permutation_functor(3, GSet(1, 1)))
    assert check_axioms(x) == ()
    stacked, transposed = [], []
    hstack, transpose = IntMatrix.hstack, IntMatrix.transpose
    monkeypatch.setattr(IntMatrix, "hstack", lambda a, b: stacked.append((a, b)) or hstack(a, b))
    monkeypatch.setattr(IntMatrix, "transpose", lambda a: transposed.append(a) or transpose(a))
    assert separation.isotropy_sequence(x).exact
    transfer_block = (x.tr.matrix, x.top.relations)
    assert [pair for pair in stacked if pair == transfer_block] == [transfer_block]
    assert transposed == []


def test_classify_and_invert_of_a_twisted_functor(eliminated):
    """Classifying and inverting twisted_burnside(10007, 2) hands 2 matrices
    to ``smith_normal_form``: when the certificate is verified, its top map
    (for surjectivity) and the product's top relations (for their invariant
    factors, which settle injectivity).  The transfer's cokernel is no
    longer eliminated (3 matrices before): whether the transfer splits is
    read on the tiers' free quotients, as gcd(t1, t2) = 1.
    Earlier, the product's top relations were not eliminated either:
    injectivity replayed the top map's V for its kernel lattice, which lay
    in the product's relations by inspection.  The certificate's bottom map
    is the identity, onto by construction, between groups without
    relations.  The certificate is built from M's own witness by box
    functoriality, so the product is not classified (5 before that, when
    its top and transfer were eliminated too).  Each tier's section is read
    from its U⁻¹, so no projection is eliminated."""
    m = twisted_burnside(10007, 2)
    assert separation.classify_invertible(m).invertible
    certificate = separation.invert(m)[1]
    assert len(eliminated) == 2
    assert certificate.source.top.relations in eliminated
    assert certificate.phi_top.spanning in eliminated
    assert not any(map(leads_with_identity, eliminated))


def test_the_unit_isomorphism_eliminates_only_the_source_top_relations(eliminated):
    """Both tier maps of the unit B ⊠ M → M lead with the identity
    (``[I | tr·res | tr]`` and ``I``), so they are onto with no Smith form,
    and equal invariant factors make them bijective.  M's tiers have no
    relations, so the one matrix eliminated is the relations of the
    product's top, for their diagonal alone: no transform is replayed.
    (Before, the top map's ``[I | tr·res | tr | 0]`` was handed over for
    surjectivity and its V replayed for injectivity.)"""
    f = mackey.unit_isomorphism(permutation_functor(5, GSet(1, 1)))
    del eliminated[:]
    assert mackey.is_mackey_isomorphism(f)
    assert eliminated == [f.source.top.relations]
    memos = f.source.top.smith.__dict__
    assert not {"u", "u_inverse", "v", "_v_columns"} & memos.keys()


@pytest.fixture
def built(monkeypatch):
    """The twists of the functors built by ``mackey.twisted_burnside``
    (``separation`` imports it by name) and the number of ``MackeyMorphism``s."""
    counts = {"twists": [], "morphisms": 0}
    twisted, init = mackey.twisted_burnside, MackeyMorphism.__init__

    def counting_twisted(p, d):
        counts["twists"].append(d)
        return twisted(p, d)

    def counting_init(self, *args):
        counts["morphisms"] += 1
        init(self, *args)

    for module in (mackey, separation):
        monkeypatch.setattr(module, "twisted_burnside", counting_twisted)
    monkeypatch.setattr(MackeyMorphism, "__init__", counting_init)
    return counts


def test_classifying_builds_no_witness_and_inverting_three_twisted_functors(built):
    """``classify_invertible`` keeps the verdict and a builder of the witness
    but never calls it, so it builds neither the witness nor its target (1
    twisted functor and 1 morphism before).  ``invert`` builds the inverse
    and burnside(p), and its one morphism is the certificate, written from
    M's witness matrices in closed form (before, it also built the target of
    the product's witness, and its morphisms were that witness, the bridge
    to burnside(p) and their composite)."""
    m = twisted_burnside(10007, 3)
    assert separation.classify_invertible(m).invertible
    assert built == {"twists": [], "morphisms": 0}
    inverse, certificate = separation.invert(m)
    assert built == {"twists": [3336, 1], "morphisms": 1}  # 3 · 3336 = 10008
    assert inverse == twisted_burnside(10007, 3336) and certificate.target == twisted_burnside(10007, 1)


def test_the_orbit_of_a_permutation_action_takes_no_product(monkeypatch):
    """The action of a permutation functor is a permutation matrix, so its
    orbit is written down from its cycles: at k = 10^12 + 39 no
    ``IntMatrix.__matmul__`` runs (a doubling pass would take about 80), and
    the norm sums each free orbit ⌈(k − r)/7⌉ times at offset r."""
    gamma = permutation_functor(7, GSet(1, 2)).gamma
    products = []
    original = IntMatrix.__matmul__
    monkeypatch.setattr(IntMatrix, "__matmul__", lambda a, b: products.append(1) or original(a, b))
    k = 10**12 + 39
    power, norm = gamma.orbit(k)
    assert products == []
    assert power.matrix == gamma.power(k % 7).matrix
    assert sorted(norm.matrix.values) == sorted([k] + [-(-(k - r) // 7) for r in range(7)] * 14)


@pytest.mark.parametrize("sign, k", [(1, 2), (-1, 3), (-1, 4000)])
def test_the_orbit_of_a_long_cycle_costs_its_norm(sign, k):
    """A 2000-cycle at k = 2 or 3 has a norm of 2000·k nonzeros, and at
    k = 4000 with sign product −1 an empty one; the orbit runs a number of
    ``intlin`` lines proportional to n and that norm (about 20 per row at
    k = 2), not to the 4,000,000 entries of a full cycle."""
    n = 2000
    m = IntMatrix.from_rows([[0] * (n - 1) + [sign]]).vstack(  # i -> i - 1, and 0 -> n - 1 with the sign
        IntMatrix.identity(n - 1).hstack(IntMatrix.zeros(n - 1, 1)))
    g = FpAbGroup.free(n)
    lines = []

    def count(frame, event, arg):
        lines.append(event == "line")
        return count

    sys.settrace(lambda frame, event, arg: count if frame.f_code.co_filename == intlin.__file__ else None)
    try:
        power, norm = AbHom(g, g, m).orbit(k)
    finally:
        sys.settrace(None)
    assert sum(lines) < 30 * n
    assert len(norm.matrix.values) == (0 if k > n else k * n)
    assert power.matrix.indices == tuple((i - k) % n for i in range(n))
