"""Isotropy separation and the classification of box-invertible functors.

Every functor M sits in a short exact sequence

    0 → gamma_functor(M) → M → phi_functor(M) → 0

where the left piece replaces the top by the image of the transfer and the
right piece is the cokernel of the transfer with a trivial bottom.  The
classification theorem implemented by :func:`classify_invertible` says M is
invertible for the box product exactly when it is a twisted Burnside functor
whose twist is prime to p; :func:`invert` then produces the inverse together
with a verified isomorphism box(M, inverse) → burnside(p).
"""

from __future__ import annotations

from math import gcd

from .intlin import (
    IntMatrix,
    _check_ints,
    _Frozen,
    _sparse_rows,
    block_diagonal,
    extended_gcd,
    lattice_basis,
)
from .abgroup import AbHom, FpAbGroup, _bijective, _image, cokernel, invariant_factors
from .mackey import (
    MackeyFunctor,
    MackeyMorphism,
    action_norm,
    box_product,
    burnside,
    check_axioms,
    is_mackey_isomorphism,
    is_prime,
    twisted_burnside,
)

# Reasons a functor can fail to be invertible.
BOTTOM_NOT_Z = "bottom-not-Z"
TOP_NOT_RANK_2 = "top-not-rank-2"
TRANSFER_NOT_SPLIT = "transfer-not-split"
TWIST_NOT_COPRIME = "twist-not-coprime"
RESTRICTION_NOT_ONTO = "restriction-not-surjective-onto-Z"


class _NotAMackeyFunctor(ValueError):
    """The axioms a diagram violates (``violations``, from ``check_axioms``)."""

    def __init__(self, violations: tuple[str, ...]):
        super().__init__("not a Mackey functor: " + "; ".join(violations))
        self.violations = violations


class ClassificationResult(
    _Frozen, fields=("invertible", "d_class", "sign_ambiguous", "reason", "twist_found")
):
    """Verdict of :func:`classify_invertible`.

    For an invertible functor, ``d_class`` is the twist canonicalized to
    ``min(d mod p, -d mod p)``; ``sign_ambiguous`` records that the
    complementary representative ``p - d_class`` presents an isomorphic
    functor.
    """

    def __init__(self, invertible: bool, d_class: int | None = None, sign_ambiguous: bool = False,
                 reason: str | None = None, twist_found: int | None = None):
        self._set_fields(invertible, d_class, sign_ambiguous, reason, twist_found)

    def __str__(self):
        if self.invertible:
            return f"TwistedBurnside(d_class={self.d_class}, sign_ambiguous={self.sign_ambiguous})"
        extra = f", twist={self.twist_found}" if self.twist_found is not None else ""
        return f"NotInvertible({self.reason}{extra})"


# -- the two halves of the isotropy sequence ----------------------------------


def gamma_functor(m: MackeyFunctor) -> tuple[MackeyFunctor, MackeyMorphism]:
    """The subfunctor generated by transfers, with its inclusion into M.

    Its top is the image of M's transfer (``abgroup._image``), presented on
    the bottom's generators (v represents tr(v)), so its transfer is the
    identity matrix and its restriction is the action norm.  The inclusion's
    top map has M's transfer matrix and reads the transfer's memoised
    decomposition.
    """
    top, inclusion_top = _image(m.tr)
    res = AbHom(top, m.bottom, action_norm(m.gamma, m.p).matrix)
    tr = AbHom(m.bottom, top, IntMatrix.identity(m.bottom.ngens))
    part = MackeyFunctor(m.p, top, m.bottom, m.gamma, res, tr)
    return part, MackeyMorphism(part, m, inclusion_top, AbHom.identity(m.bottom))


def phi_functor(m: MackeyFunctor) -> tuple[MackeyFunctor, MackeyMorphism]:
    """The transfer-cokernel quotient (trivial bottom), with the projection.

    >>> from mackeybox.abgroup import invariant_factors
    >>> part, _ = phi_functor(burnside(5))
    >>> invariant_factors(part.top)
    (1, ())
    """
    coker, proj = cokernel(m.tr)
    trivial = FpAbGroup.trivial()
    part = MackeyFunctor(
        m.p,
        coker,
        trivial,
        AbHom.identity(trivial),
        AbHom.zero(coker, trivial),
        AbHom.zero(trivial, coker),
    )
    return part, MackeyMorphism(m, part, proj, AbHom.zero(m.bottom, trivial))


class IsotropySequence(
    _Frozen,
    fields=("gamma_part", "inclusion", "original", "projection", "phi_part", "exact", "report"),
):
    """0 → gamma_part → original → phi_part → 0; ``report`` lists the
    morphism conditions of the inclusion and the projection that fail (at
    most the inclusion's restriction square), and ``exact`` is whether none
    does."""

    def __init__(self, gamma_part, inclusion, original, projection, phi_part, exact, report):
        self._set_fields(gamma_part, inclusion, original, projection, phi_part, exact, report)


def isotropy_sequence(m: MackeyFunctor) -> IsotropySequence:
    """Assemble the sequence and report the one morphism condition that
    depends on M: the inclusion's restriction square, res∘tr = N.

    Both tiers are exact by construction: Gamma's top is the bottom's
    generators modulo the transfer's kernel lattice, so the inclusion (tr on
    the top, the identity on the bottom) is injective with image im tr, and
    the projection (the identity onto coker tr, zero onto Phi's zero
    bottom) is onto with kernel im tr plus the relations.  The other nine
    conditions hold on every diagram, valid or not: the inclusion's top map
    is well defined by that kernel lattice, its bottom map is the identity,
    and both sides of its transfer square are tr; the projection's top map
    is well defined and its transfer square commutes because the top
    relations and tr's columns are relations of coker tr, and its bottom
    conditions compare zero with zero.
    """
    gamma_part, inclusion = gamma_functor(m)
    phi_part, projection = phi_functor(m)
    square = (m.res @ inclusion.phi_top).equals(gamma_part.res)
    report = () if square else ("inclusion: restriction square does not commute",)
    return IsotropySequence(gamma_part, inclusion, m, projection, phi_part, not report, report)


# -- twisted Burnside functors -------------------------------------------------


def twisted_iso_criterion(p: int, c: int, d: int) -> bool:
    """Whether the twist-c and twist-d functors are isomorphic: c ≡ ±d (mod p).

    >>> twisted_iso_criterion(5, 2, 3), twisted_iso_criterion(5, 2, 4)
    (True, False)
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    _check_ints((c, d), "twists")
    return (c - d) % p == 0 or (c + d) % p == 0


def twisted_isomorphism(p: int, c: int, d: int) -> MackeyMorphism | None:
    """An explicit isomorphism twisted(p, c) → twisted(p, d), when one exists
    (``twisted_iso_criterion``); when none does, no functor is built.

    With c = y·d + p·x (y = ±1), the top map sends u ↦ y·u + x·t and fixes t;
    the bottom map is the identity.
    """
    if not twisted_iso_criterion(p, c, d):
        return None
    y = 1 if (c - d) % p == 0 else -1
    src, tgt = twisted_burnside(p, c), twisted_burnside(p, d)
    phi_top = AbHom(src.top, tgt.top, IntMatrix.from_rows([[y, 0], [(c - y * d) // p, 1]]))
    return MackeyMorphism(src, tgt, phi_top, AbHom.identity(src.bottom))


def _quotient_iso(group: FpAbGroup, rank: int) -> tuple[IntMatrix, IntMatrix] | None:
    """For a group free of the given rank: the rows of its U past the unit
    invariant factors (``SmithDecomposition.past_units``), which induce an
    isomorphism onto Z^rank, and the section, the columns of U⁻¹ past the
    rank, so projection @ section = identity.  None for a group of any other
    shape, told from the diagonal alone, so U is not built for it."""
    if invariant_factors(group) != (rank, ()):
        return None
    past = range(group.ngens - rank, group.ngens)
    return group.smith.past_units()[0], group.smith.u_inverse.take_columns(past)


def _classify(m: MackeyFunctor) -> tuple[ClassificationResult, tuple[int, ...] | None]:
    """The verdict and, for an invertible m, ``(d, t1, t2, a, b)``: the twist,
    tr(g) in the top's free quotient, and a·t1 + b·t2 = 1, from which
    :func:`invert` writes the witness M → twisted(p, d).  Past the axioms,
    each verdict is read on the tiers' free quotients (``_quotient_iso``):
    an order-p action on Z is ±1, and −1 (only at p = 2) forces res = 0;
    coker tr is Z² / (t1, t2), which is Z exactly when gcd(t1, t2) = 1; and
    w = (b, −a) completes (t1, t2) to a basis, with d = res(w)."""
    violations = check_axioms(m)
    if violations:
        raise _NotAMackeyFunctor(violations)
    p = m.p

    bottom = _quotient_iso(m.bottom, 1)
    if bottom is None:
        return ClassificationResult(False, reason=BOTTOM_NOT_Z), None
    pi_b, sec_b = bottom
    if (pi_b @ m.gamma.matrix @ sec_b).entries != (1,):
        return ClassificationResult(False, reason=RESTRICTION_NOT_ONTO), None
    top = _quotient_iso(m.top, 2)
    if top is None:
        return ClassificationResult(False, reason=TOP_NOT_RANK_2), None
    pi_t, sec_t = top
    t1, t2 = (pi_t @ m.tr.matrix @ sec_b).entries
    g, a, b = extended_gcd(t1, t2)
    if g != 1:
        return ClassificationResult(False, reason=TRANSFER_NOT_SPLIT), None
    r1, r2 = (pi_b @ m.res.matrix @ sec_t).entries
    if r1 * t1 + r2 * t2 != p:  # unreachable for valid functors: res(tr(g)) = p·g
        raise AssertionError("restriction of the transfer generator is not p")
    d_raw = r1 * b - r2 * a

    d_class = min(d_raw % p, (-d_raw) % p)
    if gcd(d_raw, p) != 1:
        return ClassificationResult(
            False, reason=TWIST_NOT_COPRIME, d_class=d_class, twist_found=d_raw
        ), None
    result = ClassificationResult(True, d_class=d_class, sign_ambiguous=(2 * d_class) % p != 0)
    return result, (d_raw, t1, t2, a, b)


def classify_invertible(m: MackeyFunctor) -> ClassificationResult:
    """Decide invertibility for the box product.

    The verdict and, for an invertible m, the five integers its witness is
    written from are memoised on m, so :func:`invert` after it, or a second
    call, does not classify m again.  Classifying never builds the witness:
    only :func:`invert` does.  A diagram that violates the axioms raises a
    ``ValueError`` that carries the violations, which the CLI prints.

    >>> classify_invertible(twisted_burnside(5, 7)).d_class
    2
    >>> classify_invertible(twisted_burnside(3, 6)).reason
    'twist-not-coprime'
    """
    found = m._memo.get("classification")
    if found is None:
        found = m._memo["classification"] = _classify(m)
    return found[0]


def invert(m: MackeyFunctor) -> tuple[MackeyFunctor, MackeyMorphism] | None:
    """The box inverse and a verified isomorphism box(M, inverse) → burnside(p).

    Returns None when M is not invertible.  For M's witness M → twisted(p, c),
    the inverse is twisted(p, x) with c·x ≡ y = ±1 (mod p).  The witness
    sends the top basis (lift of w, tr g) to (u, t), through the projections
    ``_quotient_iso`` read, taken again from the tiers' memoised Smith forms
    (``SmithDecomposition.past_units``) without their sections.  The
    certificate is box(witness, 1) followed by twisted(c) ⊠ twisted(x) →
    burnside(p) in closed form: u⊗u, u⊗t, t⊗u, t⊗t and t(1⊗1) go to
    y·u + (c·x − y)/p·t, c·t, x·t, p·t and t.  The product ``box_product(M,
    inverse)`` keeps a factor's bottom and memoised norm, and is not
    classified: the verified isomorphism carries burnside(p)'s axioms over."""
    if not classify_invertible(m).invertible:
        return None
    result, (c, t1, t2, a, b) = m._memo["classification"]
    p = m.p
    x = extended_gcd(result.d_class, p)[1] % p
    inverse, target = twisted_burnside(p, x), burnside(p)
    product = box_product(m, inverse)
    w_bottom = m.bottom.smith.past_units()[0]
    w_top = IntMatrix.from_rows([[t2, -t1], [a, b]]) @ m.top.smith.past_units()[0]  # [w | t]⁻¹ @ pi_t
    y = 1 if (c * x - 1) % p == 0 else -1
    onto = IntMatrix.from_columns([(y, (c * x - y) // p), (0, c), (0, x), (0, p), (0, 1)], rows=2)
    top = onto @ block_diagonal(w_top.kron(IntMatrix.identity(2)), w_bottom)
    certificate = MackeyMorphism(
        product, target, AbHom(product.top, target.top, top), AbHom(product.bottom, target.bottom, w_bottom)
    )
    if not is_mackey_isomorphism(certificate):
        raise AssertionError("inverse certificate failed verification")
    return inverse, certificate


# -- bounded isomorphism search ------------------------------------------------

FOUND = "found"
NOT_ISOMORPHIC = "not-isomorphic"
UNKNOWN = "unknown"


class IsoSearchResult(_Frozen, fields=("status", "witness", "detail")):
    """Outcome of :func:`try_find_isomorphism`: a status and its ``witness`` or ``detail``."""

    def __init__(self, status: str, witness: MackeyMorphism | None = None, detail: str = ""):
        self._set_fields(status, witness, detail)


def _bounded_points(basis: IntMatrix, bound: int, head: int = 0, gate=None):
    """The points of the column lattice of a Hermite basis (``lattice_basis``)
    with every entry in [-bound, bound], in lexicographic order.  Column j
    has its positive pivot in row r_j, with r_0 < r_1 < ..., so the rows
    before r_j are fixed by the coefficients before j, and coefficient j
    walks upward through the window that keeps row r_j within the bound.  A
    branch ends once a fixed row leaves the bound or, when the first
    ``head`` rows are fixed, unless ``gate`` accepts them."""
    columns = _sparse_rows(basis.transpose())
    pivots = [idx[0] for idx, _ in columns]
    fixed = [slice(a, b) for a, b in zip([0, *pivots], [*pivots, basis.rows])]  # rows rec(j) fixes
    cut = sum(r < head for r in pivots)  # the columns whose pivots lie in the head

    def rec(j, current):
        if max(map(abs, current[fixed[j]]), default=0) > bound:
            return
        if j == cut and gate is not None and not gate(tuple(current[:head])):
            return
        if j == len(columns):
            yield tuple(current)
            return
        idx, vals = columns[j]
        r, piv = idx[0], vals[0]
        for k in range(-((bound + current[r]) // piv), (bound - current[r]) // piv + 1):
            point = current.copy()
            for i, v in zip(idx, vals):
                point[i] += k * v
            yield from rec(j + 1, point)

    yield from rec(0, [0] * basis.rows)


def _morphism_lattice(m: MackeyFunctor, n: MackeyFunctor) -> IntMatrix:
    """The Hermite basis of the morphisms M → N as vectors (vec φ_b, vec φ_t)
    of row-major entries: well defined on the lattices of M's bottom and top
    relations, equivariant (φ_b·γ_M = γ_N·φ_b), and commuting with res
    (res_N·φ_t = φ_b·res_M) and tr (φ_t·tr_M = tr_N·φ_b), each modulo one
    tier of N.  With vec(L·X·R) = (L ⊗ Rᵀ)·vec(X), a condition reads
    rows·Σ L·X·R (``SmithDecomposition.past_units``) in the lattice of the
    torsion factors on a diagonal, whose block mod ⊗ I adds unknowns only
    for N's torsion.  The Hermite basis of [maps | modulus] over [I | 0]
    holds the lattice: below the system, the columns past its pivots."""
    eye = IntMatrix.identity
    mb, nb = m.bottom.ngens, n.bottom.ngens
    mt, nt = m.top.ngens, n.top.ngens
    bottom = eye(nb * mb).hstack(IntMatrix.zeros(nb * mb, nt * mt))  # picks vec φ_b out of (vec φ_b, vec φ_t)
    top = IntMatrix.zeros(nt * mt, nb * mb).hstack(eye(nt * mt))
    conditions = (  # the tier of N, then Σ L·φ·R as (L, R, the tier φ maps)
        (n.bottom, (eye(nb), lattice_basis(m.bottom.relations), bottom)),
        (n.top, (eye(nt), lattice_basis(m.top.relations), top)),
        (n.bottom, (eye(nb), m.gamma.matrix, bottom), (-n.gamma.matrix, eye(mb), bottom)),
        (n.bottom, (-eye(nb), m.res.matrix, bottom), (n.res.matrix, eye(mt), top)),
        (n.top, (-n.tr.matrix, eye(mb), bottom), (eye(nt), m.tr.matrix, top)),
    )
    maps = IntMatrix.zeros(0, nb * mb + nt * mt)
    modulus = IntMatrix.zeros(0, 0)
    for tier, *terms in conditions:
        rows, torsion = tier.smith.past_units()
        diagonal = [[d if i == j else 0 for i in range(rows.rows)] for j, d in enumerate(torsion)]
        mod = IntMatrix.from_columns(diagonal, rows.rows)
        blocks = [(rows @ left).kron(right.transpose()) @ pick for left, right, pick in terms]
        maps = maps.vstack(sum(blocks[1:], blocks[0]))
        modulus = block_diagonal(modulus, mod.kron(eye(terms[0][1].cols)))  # one per column of L·φ·R
    k, u = maps.rows, maps.cols  # [I | 0] below the system has a row per unknown
    basis = lattice_basis(maps.hstack(modulus).vstack(eye(u).hstack(IntMatrix.zeros(u, modulus.cols))))
    return basis.take_rows(range(k, k + u)).take_columns(range(len({*basis.take_rows(range(k)).indices}), basis.cols))


def _matrix_candidates(m: MackeyFunctor, n: MackeyFunctor, bound: int):
    """The morphisms M → N (``_morphism_lattice``) with entries in
    [-bound, bound] whose bottom map is bijective, in lexicographic order of
    (vec φ_bottom, vec φ_top): one walk, whose gate ends a branch once its
    bottom map, well defined as a lattice point's head, is not bijective."""
    head = n.bottom.ngens * m.bottom.ngens
    phi_b = None

    def gate(flat):  # the bottom map of every point the branch yields
        nonlocal phi_b
        phi_b = AbHom(m.bottom, n.bottom, IntMatrix(n.bottom.ngens, m.bottom.ngens, flat))
        return _bijective(phi_b)

    for flat in _bounded_points(_morphism_lattice(m, n), bound, head, gate):
        phi_t = AbHom(m.top, n.top, IntMatrix(n.top.ngens, m.top.ngens, flat[head:]))
        yield MackeyMorphism(m, n, phi_t, phi_b)


def try_find_isomorphism(m: MackeyFunctor, n: MackeyFunctor, bound: int) -> IsoSearchResult:
    """Bounded, deterministic search for an isomorphism M → N.

    Tier invariant factors rule out quickly.  Otherwise the witness is the
    first of the ``_matrix_candidates`` (lexicographic in the entries, each
    within [-bound, bound]) whose top map is bijective: a candidate is a
    point of the morphism lattice, whose equations are the five morphism
    conditions, and its bottom map passed the gate.
    Exhaustion yields UNKNOWN (the bound may simply be too small).  A
    negative bound raises ValueError.
    """
    _check_ints((bound,), "search bounds")
    if bound < 0:
        raise ValueError(f"the search bound must be nonnegative, got {bound}")
    if m.p != n.p:
        return IsoSearchResult(NOT_ISOMORPHIC, detail="different primes")
    for name, gm, gn in (("top", m.top, n.top), ("bottom", m.bottom, n.bottom)):
        if invariant_factors(gm) != invariant_factors(gn):
            return IsoSearchResult(
                NOT_ISOMORPHIC,
                detail=f"{name} tiers have different invariant factors "
                f"{invariant_factors(gm)} vs {invariant_factors(gn)}",
            )
    for candidate in _matrix_candidates(m, n, bound):
        if _bijective(candidate.phi_top):
            return IsoSearchResult(FOUND, witness=candidate)
    return IsoSearchResult(UNKNOWN, detail=f"no isomorphism with entries within {bound}")


__all__ = [
    "BOTTOM_NOT_Z",
    "TOP_NOT_RANK_2",
    "TRANSFER_NOT_SPLIT",
    "TWIST_NOT_COPRIME",
    "RESTRICTION_NOT_ONTO",
    "ClassificationResult",
    "IsotropySequence",
    "IsoSearchResult",
    "FOUND",
    "NOT_ISOMORPHIC",
    "UNKNOWN",
    "gamma_functor",
    "phi_functor",
    "isotropy_sequence",
    "twisted_iso_criterion",
    "twisted_isomorphism",
    "classify_invertible",
    "invert",
    "try_find_isomorphism",
]
