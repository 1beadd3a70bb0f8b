"""Yes/no questions about maps, answered from one memoised Smith form each.

``is_surjective`` is compared with the trivial cokernel presentation it
replaces, the triviality of ``kernel(f)`` with two fresh preimage
eliminations, and ``isotropy_sequence``, which checks only the inclusion's
restriction square, with a copy of its former version, kept below as the
reference: it checks every morphism condition, and injectivity,
surjectivity and exactness in the middle afresh (the last as an equality
of lattices read from the Hermite form of each side,
``helpers.same_lattice``), and those checks must add no line, on the
reference's maps or on the sequence's own.  Maps are drawn between groups
with and without torsion, and include maps that are not well defined,
pairs that are not exact and diagrams that break the axioms.  Every
group, map, functor and morphism that the library combines from such parts
must rebuild, field by field, through its public constructor.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mackeybox.abgroup import (
    AbHom,
    FpAbGroup,
    _bijective,
    _image,
    cokernel,
    direct_sum,
    kernel,
    tensor_product,
)
from mackeybox.intlin import IntMatrix
from mackeybox.mackey import (
    MackeyFunctor,
    MackeyMorphism,
    action_norm,
    box_product,
    twisted_burnside,
    unit_isomorphism,
    verify_morphism,
)
from mackeybox.separation import (
    gamma_functor,
    invert,
    isotropy_sequence,
    phi_functor,
)

from helpers import is_trivial, pad_functor, preimage_gens, random_functor, same_lattice

ENTRY = st.sampled_from((0, 0, 0, 0, -3, -2, -1, 1, 2, 3, 4))


@st.composite
def matrices(draw, rows, cols):
    return IntMatrix(rows, cols, tuple(draw(st.lists(ENTRY, min_size=rows * cols, max_size=rows * cols))))


@st.composite
def groups(draw, max_gens=3):
    """Free groups, groups with torsion and groups with redundant relations."""
    n = draw(st.integers(0, max_gens))
    return FpAbGroup(n, draw(matrices(n, draw(st.integers(0, 3)))))


@st.composite
def maps(draw, source=None, target=None):
    """A map between presented groups; often not well defined."""
    a = draw(groups()) if source is None else source
    b = draw(groups()) if target is None else target
    return AbHom(a, b, draw(matrices(b.ngens, a.ngens)))


@st.composite
def composable_pairs(draw):
    """(f, g) with g ∘ f defined: exact by construction, a complex that is
    not exact, or two arbitrary maps."""
    b = draw(groups())
    kind = draw(st.sampled_from(("kernel", "cokernel", "scaled kernel", "arbitrary")))
    if kind == "cokernel":
        f = draw(maps(target=b))
        return f, cokernel(f)[1]
    g = draw(maps(source=b))
    if kind == "arbitrary":
        return draw(maps(target=b)), g
    inc = kernel(g)[1]
    return (inc if kind == "kernel" else inc.scaled(draw(st.integers(0, 3)))), g


# -- injective, surjective, isomorphism ------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(maps())
def test_is_injective_is_a_trivial_kernel(f):
    assert is_trivial(kernel(f)[0]) == former_kernel_is_trivial(f)


@settings(max_examples=300, deadline=None)
@given(maps())
def test_is_surjective_is_a_trivial_cokernel(f):
    assert f.is_surjective() == is_trivial(cokernel(f)[0])


@settings(max_examples=300, deadline=None)
@given(maps())
def test_is_isomorphism_matches_kernel_and_cokernel(f):
    expected = f.is_well_defined() and is_trivial(kernel(f)[0]) and is_trivial(cokernel(f)[0])
    assert (f.is_well_defined() and _bijective(f)) == expected


@settings(max_examples=200, deadline=None)
@given(maps())
@example(unit_isomorphism(twisted_burnside(5, 2)).phi_top)  # [I | tr·res | tr], which leads with the identity
@example(unit_isomorphism(pad_functor(twisted_burnside(7, 3), random.Random(4))).phi_top)  # and into relations
def test_kernel_lattice_is_the_preimage_of_the_relations(f):
    assert f.kernel_lattice == preimage_gens(f.matrix, f.target.relations)
    dec = f.smith
    assert dec.u @ f.matrix.hstack(f.target.relations) @ dec.v == dec.s


@settings(max_examples=300, deadline=None)
@given(maps())
def test_kernel_and_image_are_presented_exactly(f):
    """kernel(f)'s inclusion is well defined and injective, f kills it, and
    its image plus the source relations holds every x with f(x) in the
    target relations (a fresh elimination's preimage).  _image(f)'s
    inclusion is well defined and injective and reads f's decomposition."""
    _, inc = kernel(f)
    assert inc.is_well_defined() and former_kernel_is_trivial(inc)
    assert f.target.contains_all(f.matrix @ inc.matrix)
    assert inc.smith.contains_all(preimage_gens(f.matrix, f.target.relations))
    _, inc = _image(f)
    assert inc.smith is f.smith
    assert inc.is_well_defined() and former_kernel_is_trivial(inc)


# -- middle exactness ------------------------------------------------------------------------


def same_lattice_exact(f: AbHom, g: AbHom) -> bool:
    """The former test: ker g and im f + relations span the same lattice."""
    ker_lattice = preimage_gens(g.matrix, g.target.relations)
    return same_lattice(ker_lattice, f.matrix.hstack(f.target.relations))


Z = FpAbGroup.free(1)
Z2 = FpAbGroup.cyclic(2)


def hom(source, target, entry):
    return AbHom(source, target, IntMatrix.from_rows([[entry]]))


@pytest.mark.parametrize(
    "f, g, exact",
    [
        (hom(Z, Z, 2), hom(Z, Z2, 1), True),  # 0 → Z → Z → Z/2 → 0
        (hom(Z, Z, 4), hom(Z, Z2, 1), False),  # ker g = 2Z is not in 4Z
        (hom(Z, Z, 1), hom(Z, Z, 1), False),  # im f = Z is not in ker g = 0
    ],
)
def test_middle_exactness_examples(f, g, exact):
    # each failing case breaks exactly one of the two inclusions
    assert same_lattice_exact(f, g) is exact


# -- isotropy sequences ------------------------------------------------------------------


def former_kernel_is_trivial(f: AbHom) -> bool:
    """Whether ``kernel(f)`` is trivial, the former way: two fresh preimage
    eliminations, then the invariant factors."""
    gens = preimage_gens(f.matrix, f.target.relations)
    return is_trivial(FpAbGroup(gens.cols, preimage_gens(gens, f.source.relations)))


def reference_isotropy_report(m: MackeyFunctor) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The former ``isotropy_sequence`` report, with Γ(M) built from a fresh
    preimage elimination, and the lines of it that its exactness checks
    (kernel and cokernel presentations and an equality of lattices) add."""
    nb = m.bottom.ngens
    top = FpAbGroup(nb, preimage_gens(m.tr.matrix, m.top.relations))
    part = MackeyFunctor(
        m.p,
        top,
        m.bottom,
        m.gamma,
        AbHom(top, m.bottom, action_norm(m.gamma, m.p).matrix),
        AbHom(m.bottom, top, IntMatrix.identity(nb)),
    )
    inclusion = MackeyMorphism(part, m, AbHom(top, m.top, m.tr.matrix), AbHom.identity(m.bottom))
    _, projection = phi_functor(m)
    report = [f"inclusion: {msg}" for msg in verify_morphism(inclusion)]
    report.extend(f"projection: {msg}" for msg in verify_morphism(projection))
    exactness = fresh_exactness(inclusion, projection)
    return tuple(report) + exactness, exactness


def fresh_exactness(inclusion: MackeyMorphism, projection: MackeyMorphism) -> tuple[str, ...]:
    """The lines the reference's fresh checks of injectivity, surjectivity
    and middle exactness add for the given maps, tier by tier."""
    exactness = []
    for name, inc, proj in (("top", inclusion.phi_top, projection.phi_top),
                            ("bottom", inclusion.phi_bottom, projection.phi_bottom)):
        if not former_kernel_is_trivial(inc):
            exactness.append(f"inclusion is not injective on the {name} tier")
        if not is_trivial(cokernel(proj)[0]):
            exactness.append(f"projection is not surjective on the {name} tier")
        if not same_lattice_exact(inc, proj):
            exactness.append(f"sequence is not exact at the middle {name} tier")
    return tuple(exactness)


@st.composite
def diagrams(draw):
    """Arbitrary two-tier diagrams: most break some axiom, and their maps
    need not be well defined."""
    top, bottom = draw(groups()), draw(groups())
    return MackeyFunctor(
        draw(st.sampled_from((2, 3, 5))),
        top,
        bottom,
        draw(maps(bottom, bottom)),
        draw(maps(top, bottom)),
        draw(maps(bottom, top)),
    )


def diagram(p, top, bottom, gamma, res, tr):
    """A diagram of 1×1 maps with the given entries."""
    return MackeyFunctor(
        p, top, bottom, hom(bottom, bottom, gamma), hom(top, bottom, res), hom(bottom, top, tr)
    )


@settings(max_examples=200, deadline=None)
@given(diagrams())
@example(diagram(2, Z, Z2, 1, 1, 1))  # tr: Z/2 → Z is not well defined
@example(diagram(3, FpAbGroup.cyclic(4), Z2, 1, 1, 2))  # res∘tr = 2 ≠ 1 + γ + γ² = 3 on Z/2
@example(diagram(3, Z, Z, -1, 1, 1))  # γ = −1 has order 2, not 3; res∘tr = 1 = 1 − 1 + 1
@example(diagram(3, Z2, Z2, 1, 1, 1))  # res∘tr = 1 equals N = 3 only modulo the bottom's relation 2
def test_isotropy_report_matches_the_reference(m):
    """The report is the morphism conditions that fail, both on the
    reference's maps and on the sequence's own: its projection fails none,
    and its inclusion fails at most the restriction square, the one
    condition the sequence checks.  The fresh checks of injectivity,
    surjectivity and middle exactness add no line on either pair of maps:
    the sequence is exact by construction on every diagram."""
    seq = isotropy_sequence(m)
    report, exactness = reference_isotropy_report(m)
    assert exactness == ()
    assert seq.report == report
    assert verify_morphism(seq.projection) == ()
    assert seq.report == tuple(f"inclusion: {msg}" for msg in verify_morphism(seq.inclusion))
    assert fresh_exactness(seq.inclusion, seq.projection) == ()
    assert seq.exact == (seq.report == ())


# -- records combined from valid parts ------------------------------------------------


def rebuilt(x):
    """x rebuilt from its fields through the public constructors, down to the
    entries of its matrices, so that every check of every constructor runs."""
    if isinstance(x, IntMatrix):
        return IntMatrix(x.rows, x.cols, x.entries)
    if isinstance(x, (FpAbGroup, AbHom, MackeyFunctor, MackeyMorphism)):
        return type(x)(*map(rebuilt, x._field_values(x)))
    return x


def assert_rebuilt(*records):
    for x in records:
        again = rebuilt(x)
        assert type(again) is type(x) and again == x


@settings(max_examples=200, deadline=None)
@given(composable_pairs(), st.integers(-3, 3))
def test_combined_groups_and_maps_rebuild_through_their_constructors(pair, k):
    f, g = pair
    a, b = f.source, f.target
    assert_rebuilt(g @ f, f + f.scaled(k), f - f.scaled(k), -f, AbHom.identity(a), AbHom.zero(a, g.target))
    assert_rebuilt(*kernel(f), *cokernel(f), *_image(f), *kernel(g @ f))
    assert_rebuilt(tensor_product(a, b), direct_sum(a, b))


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from((2, 3, 5)), st.integers(0, 12), diagrams())
def test_combined_functors_and_morphisms_rebuild_through_their_constructors(rng, p, d, diagram):
    m, n = random_functor(rng, p), random_functor(rng, p)
    assert_rebuilt(box_product(m, n), unit_isomorphism(m), *gamma_functor(m), *phi_functor(m))
    assert_rebuilt(*gamma_functor(diagram), *phi_functor(diagram))
    inverted = invert(pad_functor(twisted_burnside(p, d), rng))
    assert (inverted is None) == (d % p == 0)
    assert_rebuilt(*inverted or ())
