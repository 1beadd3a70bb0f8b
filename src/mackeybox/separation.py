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

from collections.abc import Callable
from math import gcd

from .intlin import (
    IntMatrix,
    _eye,
    _Frozen,
    _reduce_columns,
    block_diagonal,
    extended_gcd,
    lattice_basis,
    smith_normal_form,
)
from .abgroup import AbHom, FpAbGroup, _image, cokernel, invariant_factors, is_isomorphism
from .mackey import (
    MackeyFunctor,
    MackeyMorphism,
    action_norm,
    box_product,
    burnside,
    check_axioms,
    is_mackey_isomorphism,
    twisted_burnside,
    verify_morphism,
)

# Reasons a functor can fail to be invertible.
BOTTOM_NOT_Z = "bottom-not-Z"
BOTTOM_ACTION_NONTRIVIAL = "bottom-action-nontrivial"
TOP_NOT_RANK_2 = "top-not-rank-2"
TRANSFER_NOT_SPLIT = "transfer-not-split"
TWIST_NOT_COPRIME = "twist-not-coprime"
RESTRICTION_NOT_ONTO = "restriction-not-surjective-onto-Z"


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
    tr = AbHom(m.bottom, top, _eye(m.bottom.ngens, m.bottom.ngens))
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
    """0 → gamma_part → original → phi_part → 0, with an exactness verdict."""

    def __init__(self, gamma_part, inclusion, original, projection, phi_part, exact, report):
        self._set_fields(gamma_part, inclusion, original, projection, phi_part, exact, report)


def _tier_maps(f: MackeyMorphism):
    return (("top", f.phi_top), ("bottom", f.phi_bottom))


def _exact_in_middle(inc: AbHom, proj: AbHom) -> bool:
    """Whether ker proj equals im inc plus the relations of the middle group,
    as two lattice inclusions: ker proj ⊆ im inc + relations (read from inc's
    memoised Smith decomposition) and proj·[inc | relations] ⊆ the relations
    of proj's target (read from the target's)."""
    return inc.smith.contains_all(proj.kernel_lattice) and proj.target.contains_all(
        proj.matrix @ inc.matrix.hstack(inc.target.relations)
    )


def isotropy_sequence(m: MackeyFunctor) -> IsotropySequence:
    """Assemble the sequence and verify exactness honestly (no shortcuts).

    On each tier: both maps are morphisms (``verify_morphism``), the
    inclusion is injective (its kernel lattice lies in the relations of its
    source), the projection is surjective (its image plus the target
    relations span everything), and ker proj = im inc + relations, checked
    as the two lattice inclusions of ``_exact_in_middle``.  What each reads:

    * the morphism conditions: membership in the target group (which
      settles zero and plus or minus relations by inspection, all of Phi's,
      else reads ``FpAbGroup.smith``), or the proof from ``m.tr.smith``
      that ``abgroup._image`` keeps on the inclusion's top map;
    * injectivity: the inclusion's ``kernel_lattice`` and membership in its
      source; on the top both come from ``m.tr.smith``, whose kernel lattice
      is Gamma's relations, so Gamma's top needs no elimination;
    * surjectivity: the projection's ``AbHom.smith``, on the top of
      ``[I | relations | tr]``, which ``smith_normal_form`` writes down in
      closed form;
    * exactness in the middle: the inclusion's ``AbHom.smith`` and
      membership in the projection's target.
    """
    gamma_part, inclusion = gamma_functor(m)
    phi_part, projection = phi_functor(m)
    report = []
    report.extend(f"inclusion: {msg}" for msg in verify_morphism(inclusion))
    report.extend(f"projection: {msg}" for msg in verify_morphism(projection))
    for name, f in _tier_maps(inclusion):
        if not f.is_injective():
            report.append(f"inclusion is not injective on the {name} tier")
    for name, f in _tier_maps(projection):
        if not f.is_surjective():
            report.append(f"projection is not surjective on the {name} tier")
    for (name, inc), (_, proj) in zip(_tier_maps(inclusion), _tier_maps(projection)):
        if not _exact_in_middle(inc, proj):
            report.append(f"sequence is not exact at the middle {name} tier")
    return IsotropySequence(gamma_part, inclusion, m, projection, phi_part, not report, tuple(report))


# -- twisted Burnside functors -------------------------------------------------


def twisted_iso_criterion(p: int, c: int, d: int) -> bool:
    """Whether the twist-c and twist-d functors are isomorphic: c ≡ ±d (mod p).

    >>> twisted_iso_criterion(5, 2, 3), twisted_iso_criterion(5, 2, 4)
    (True, False)
    """
    return (c - d) % p == 0 or (c + d) % p == 0


def twisted_isomorphism(p: int, c: int, d: int) -> MackeyMorphism | None:
    """An explicit isomorphism twisted(p, c) → twisted(p, d), when one exists
    (``twisted_iso_criterion``); when none does, no functor is built.

    With c = y·d + p·x (y = ±1), the top map sends u ↦ y·u + x·t and fixes t;
    the bottom map is the identity (``_retwist``).
    """
    return _retwist(twisted_burnside(p, c), d) if twisted_iso_criterion(p, c, d) else None


def _retwist(src: MackeyFunctor, d: int) -> MackeyMorphism:
    """``twisted_isomorphism`` from src, an already built twisted(p, c) with
    c ≡ ±d (mod p), so that a composite ending in src meets it by identity."""
    p, c = src.p, src.res.matrix.at(0, 0)
    y = 1 if (c - d) % p == 0 else -1
    tgt = twisted_burnside(p, d)
    phi_top = AbHom(src.top, tgt.top, IntMatrix.from_rows([[y, 0], [(c - y * d) // p, 1]]))
    return MackeyMorphism(src, tgt, phi_top, AbHom.identity(src.bottom))


def _quotient_iso(group: FpAbGroup, rank: int) -> tuple[IntMatrix, IntMatrix]:
    """For a group known free of the given rank: (projection, section) matrices.

    The projection is a ``rank x ngens`` matrix inducing an isomorphism onto
    Z^rank: the rows of the group's U past the rank.  The section is the
    columns of U⁻¹ past the rank, so projection @ section = identity.
    """
    dec = group.smith
    r = dec.rank()
    if group.ngens - r != rank:
        raise ValueError("group does not have the expected free rank")
    past = range(r, group.ngens)
    return dec.u.take_rows(past), dec.u_inverse.take_columns(past)


def _classify(m: MackeyFunctor) -> tuple[ClassificationResult, Callable[[], MackeyMorphism] | None]:
    """The verdict and, for an invertible m, a builder of its witness isomorphism."""
    violations = check_axioms(m)
    if violations:
        raise ValueError("not a Mackey functor: " + "; ".join(violations))
    p = m.p

    if invariant_factors(m.bottom) != (1, ()):
        return ClassificationResult(False, reason=BOTTOM_NOT_Z), None
    ident = AbHom.identity(m.bottom)
    if not m.gamma.equals(ident):
        if m.gamma.equals(ident.scaled(-1)):
            # bottom is Z with the sign action (only possible at p = 2); the
            # axioms force res = 0 there, so res can never hit a generator
            return ClassificationResult(False, reason=RESTRICTION_NOT_ONTO), None
        return ClassificationResult(False, reason=BOTTOM_ACTION_NONTRIVIAL), None
    if invariant_factors(m.top) != (2, ()):
        return ClassificationResult(False, reason=TOP_NOT_RANK_2), None

    if invariant_factors(cokernel(m.tr)[0]) != (1, ()):
        return ClassificationResult(False, reason=TRANSFER_NOT_SPLIT), None

    pi_b, sec_b = _quotient_iso(m.bottom, 1)
    pi_t, sec_t = _quotient_iso(m.top, 2)
    g = sec_b.column(0)  # a generator of the bottom
    # coker tr = Z, so tr(g) is primitive in the top Z^2: gcd(t1, t2) = 1
    t1, t2 = pi_t._apply(m.tr.matrix._apply(g))
    _, a, b = extended_gcd(t1, t2)
    w = (b, -a)  # completes tr(g) to a basis: det [w | t] = a·t1 + b·t2 = 1
    lift_w = sec_t._apply(w)
    (d_raw,) = pi_b._apply(m.res.matrix._apply(lift_w))
    (p_check,) = pi_b._apply(m.res.matrix._apply(sec_t._apply((t1, t2))))
    if p_check != p:  # unreachable for valid functors: res(tr(g)) = p·g
        raise AssertionError("restriction of the transfer generator is not p")

    d_class = min(d_raw % p, (-d_raw) % p)
    if gcd(d_raw, p) != 1:
        return ClassificationResult(
            False, reason=TWIST_NOT_COPRIME, d_class=d_class, twist_found=d_raw
        ), None

    def witness() -> MackeyMorphism:
        """M → twisted_burnside(p, d_raw), sending the basis (lift of w, tr g)
        of the top to (u, t)."""
        b_inv = IntMatrix.from_rows([[t2, -t1], [a, b]])  # inverse of [w | t]
        target = twisted_burnside(p, d_raw)
        phi_top = AbHom(m.top, target.top, b_inv @ pi_t)
        return MackeyMorphism(m, target, phi_top, AbHom(m.bottom, target.bottom, pi_b))

    result = ClassificationResult(True, d_class=d_class, sign_ambiguous=(2 * d_class) % p != 0)
    return result, witness


def classify_invertible(m: MackeyFunctor) -> ClassificationResult:
    """Decide invertibility for the box product.

    The verdict is memoised on m, so :func:`invert` after it, or a second
    call, does not classify m again.  No witness isomorphism is built: only
    :func:`invert` builds one, that of a fresh product.

    >>> classify_invertible(twisted_burnside(5, 7)).d_class
    2
    >>> classify_invertible(twisted_burnside(3, 6)).reason
    'twist-not-coprime'
    """
    found = m._memo.get("classification")
    if found is None:
        found = m._memo["classification"] = _classify(m)[0]
    return found


def invert(m: MackeyFunctor) -> tuple[MackeyFunctor, MackeyMorphism] | None:
    """The box inverse and a verified isomorphism box(M, inverse) → burnside(p).

    Returns None when M is not invertible.  The certificate is the product's
    witness onto twisted(p, c), c ≡ ±1 (mod p), then ``twisted_isomorphism(p,
    c, 1)`` built on that same target: three twisted functors in all.
    """
    result = classify_invertible(m)
    if not result.invertible:
        return None
    p = m.p
    _, x, _ = extended_gcd(result.d_class, p)
    inverse = twisted_burnside(p, x % p)
    product = box_product(m, inverse)
    _, build_witness = _classify(product)
    if build_witness is None:  # unreachable: the product of twists is a unit mod p
        raise AssertionError("box against the inverse failed to classify")
    witness = build_witness()
    twist = witness.target.res.matrix.at(0, 0)
    if not twisted_iso_criterion(p, twist, 1):  # unreachable: twist ≡ ±1 (mod p) by construction
        raise AssertionError("product twist is not ±1 modulo p")
    certificate = witness.then(_retwist(witness.target, 1))
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


def _bounded_points(offset, basis: IntMatrix, bound: int):
    """All vectors offset + basis·k with every entry in [-bound, bound].

    The basis columns come from a Hermite form, so pivot rows are triangular
    and each coefficient is pinned to a finite window in turn, starting from
    the offset size-reduced modulo the basis (pivot entries near zero).  The
    columns and their pivot rows are read once per walk.
    """
    columns = basis.transpose().to_rows()
    pivots = [next(i for i, x in enumerate(col) if x) for col in columns]

    def rec(j, current):
        if j == len(columns):
            if all(-bound <= x <= bound for x in current):
                yield tuple(current)
            return
        r, col = pivots[j], columns[j]
        lo = -((bound + current[r]) // col[r])  # ceil((-bound - current[r]) / pivot)
        hi = (bound - current[r]) // col[r]
        for k in range(lo, hi + 1):
            yield from rec(j + 1, [x + k * c for x, c in zip(current, col)])

    yield from rec(0, list(_reduce_columns(IntMatrix.column_vector(offset), basis).entries))


def _bounded_maps(shape: tuple[int, int], constraints, bound: int):
    """All matrices X of the given shape with entries in [-bound, bound] that
    satisfy every constraint, lexicographically in the row-major entries.

    A constraint ``(terms, const, modulus)`` asks that every column of
    ``Σ L·X·R - const`` over the ``(L, R)`` pairs in ``terms`` lie in the
    column lattice of ``modulus`` (``const`` None means zero).  With X
    flattened row-major, vec(L·X·R) = (L ⊗ Rᵀ)·vec(X), and the lattice part
    modulus·Y adds the block modulus ⊗ I on auxiliary unknowns Y, so the
    solutions form a lattice coset whose in-bound points are walked exactly.
    One Smith form of ``[maps | modulus]`` gives both a point of the coset
    and the lattice.
    """
    rows, cols = shape
    maps = IntMatrix.zeros(0, rows * cols)
    modulus = IntMatrix.zeros(0, 0)
    rhs = []
    for terms, const, mod in constraints:
        (left, right), *more = terms
        block = left.kron(right.transpose())
        for l, r in more:
            block = block + l.kron(r.transpose())
        maps = maps.vstack(block)
        # Y has one column per column of L·X·R
        modulus = block_diagonal(modulus, mod.kron(IntMatrix.identity(right.cols)))
        rhs.extend(const.entries if const is not None else (0,) * block.rows)
    span = smith_normal_form(maps.hstack(modulus))
    particular = span.solve(IntMatrix.column_vector(rhs))
    if particular is None:
        return
    free_part = lattice_basis(span.kernel().take_rows(range(rows * cols)))
    for flat in _bounded_points(particular.entries[: rows * cols], free_part, bound):
        yield IntMatrix(rows, cols, flat)


def _matrix_candidates(m: MackeyFunctor, n: MackeyFunctor, bound: int):
    """Bottom maps within the bound that are well defined and equivariant:
    X·rel_m ≡ 0 and X·γ_m - γ_n·X ≡ 0 modulo the relations of N's bottom."""
    eye_m = IntMatrix.identity(m.bottom.ngens)
    eye_n = IntMatrix.identity(n.bottom.ngens)
    rel_n = n.bottom.relations
    return _bounded_maps(
        (n.bottom.ngens, m.bottom.ngens),
        (
            (((eye_n, m.bottom.relations),), None, rel_n),
            (((eye_n, m.gamma.matrix), (-n.gamma.matrix, eye_m)), None, rel_n),
        ),
        bound,
    )


def try_find_isomorphism(m: MackeyFunctor, n: MackeyFunctor, bound: int) -> IsoSearchResult:
    """Bounded, deterministic search for an isomorphism M → N.

    Tier invariant factors rule out quickly.  Otherwise both tiers come from
    the same lattice-coset walk over maps with entries in [-bound, bound],
    in lexicographic order.  Bottom maps are pinned by well-definedness on
    the bottom relations and equivariance (φ_b·γ_M = γ_N·φ_b); for each
    bottom isomorphism, top maps are pinned by the restriction square
    (res_N·φ_t = φ_b·res_M), the transfer square (φ_t·tr_M = tr_N·φ_b) and
    well-definedness on the top relations, each modulo the target's
    relations.  Exhaustion without a witness yields UNKNOWN (the bound may
    simply be too small).  A negative bound raises ValueError.
    """
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
    eye_m = IntMatrix.identity(m.top.ngens)
    eye_n = IntMatrix.identity(n.top.ngens)
    rel_n = n.top.relations
    for phi_b_mat in _matrix_candidates(m, n, bound):
        phi_b = AbHom(m.bottom, n.bottom, phi_b_mat)
        if not is_isomorphism(phi_b):
            continue
        squares = (
            (((n.res.matrix, eye_m),), phi_b_mat @ m.res.matrix, n.bottom.relations),
            (((eye_n, m.tr.matrix),), n.tr.matrix @ phi_b_mat, rel_n),
            (((eye_n, m.top.relations),), None, rel_n),
        )
        for phi_t_mat in _bounded_maps((n.top.ngens, m.top.ngens), squares, bound):
            candidate = MackeyMorphism(m, n, AbHom(m.top, n.top, phi_t_mat), phi_b)
            if is_mackey_isomorphism(candidate):
                return IsoSearchResult(FOUND, witness=candidate)
    return IsoSearchResult(UNKNOWN, detail=f"no isomorphism with entries within {bound}")


__all__ = [
    "BOTTOM_NOT_Z",
    "BOTTOM_ACTION_NONTRIVIAL",
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
