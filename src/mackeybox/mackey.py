"""Mackey functors for the cyclic group of prime order p.

A functor is a two-tier Lewis diagram: an abelian group at the fixed level
(``top``), one at the free level (``bottom``) carrying an order-p action
``gamma``, a restriction ``res`` going down and a transfer ``tr`` going up,
subject to

* ``gamma ∘ res = res`` (restrictions land in the fixed part),
* ``tr ∘ gamma = tr``   (transfers ignore the action),
* ``res ∘ tr = 1 + gamma + ... + gamma^(p-1)`` (the action norm).

The box product is the Day-convolution symmetric monoidal product: bottoms
tensor with the diagonal action, tops combine the tensor of tops with the
coinvariants of the bottom tensor, glued by Frobenius reciprocity.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import neg

from .intlin import IntMatrix, _check_ints, _check_types, _Frozen, _memoised, _sparse_rows, _trusted, block_diagonal
from .abgroup import AbHom, FpAbGroup, _bijective, _check_action, coinvariants, kernel, tensor_product


# Miller-Rabin with the first 13 primes as bases is deterministic below this
# bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86 (2017)).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


@lru_cache(maxsize=64, typed=True)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError from PRIME_LIMIT on.

    Memoised: every functor built re-checks its prime, and a box product or
    a classification builds many functors at one p.

    >>> is_prime(1000000007), is_prime(561)
    (True, False)
    """
    _check_ints((n,), "primes")
    if n < 2:
        return False
    if n >= PRIME_LIMIT:
        raise ValueError(f"p = {n} is too large: primality is decided only below {PRIME_LIMIT}")
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:  # a composite this small has a prime factor of at most 41
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def action_norm(gamma: AbHom, p: int) -> AbHom:
    """The norm 1 + gamma + ... + gamma^(p-1) of an order-p action.

    It is the second half of the action's memoised orbit (:meth:`AbHom.orbit`),
    once per action and p: no product for a signed permutation, else O(log p).
    """
    return gamma.orbit(p)[1]


class MackeyFunctor(_Frozen, fields=("p", "top", "bottom", "gamma", "res", "tr")):
    """A two-tier diagram (top, bottom, gamma, res, tr) over C_p.

    Construction validates shapes and primality only; semantic axioms are
    checked by :func:`check_axioms`, so axiom-violating diagrams can be built
    and diagnosed.  The classification is memoised on the functor (``_memo``,
    not a field, so ``==`` and ``hash`` ignore it).
    """

    def __init__(
        self, p: int, top: FpAbGroup, bottom: FpAbGroup, gamma: AbHom, res: AbHom, tr: AbHom
    ):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        try:
            if (gamma.source, gamma.target) != (bottom, bottom):
                raise ValueError("gamma must be an endomorphism of the bottom tier")
            if (res.source, res.target) != (top, bottom):
                raise ValueError("res must map the top tier to the bottom tier")
            if (tr.source, tr.target) != (bottom, top):
                raise ValueError("tr must map the bottom tier to the top tier")
        except (AttributeError, ValueError):
            _check_types((top, bottom), FpAbGroup, "groups")
            _check_types((gamma, res, tr), AbHom, "maps")
            raise
        self._set_fields(p, top, bottom, gamma, res, tr)

    @_memoised
    def _memo(self) -> dict:
        return {}


def check_axioms(m: MackeyFunctor) -> tuple[str, ...]:
    """All violated axioms, as human-readable strings; empty means valid.

    The faults of res and tr come first, then the action's fault (worded as
    in every other action check) or else the norm rule, which presumes an
    order-p action.  Each call checks m afresh.

    >>> check_axioms(burnside(3))
    ()
    """
    problems = []
    if not m.res.is_well_defined():
        problems.append("restriction is not well-defined")
    if not m.tr.is_well_defined():
        problems.append("transfer is not well-defined")
    if not (m.gamma @ m.res).equals(m.res):
        problems.append("restrictions are not fixed by the action")
    if not (m.tr @ m.gamma).equals(m.tr):
        problems.append("transfers are not invariant under the action")
    try:
        _check_action(m.bottom, m.gamma, m.p)
    except ValueError as exc:
        problems.append(str(exc))
    else:
        if not (m.res @ m.tr).equals(action_norm(m.gamma, m.p)):
            problems.append("res of a transfer differs from the action norm")
    return tuple(problems)


# -- constructors ------------------------------------------------------------


def zero_functor(p: int) -> MackeyFunctor:
    """The zero functor: the permutation functor of the empty C_p-set."""
    return permutation_functor(p, GSet(0, 0))


def constant_z(p: int) -> MackeyFunctor:
    """The constant functor Z, the permutation functor of one fixed point:
    both tiers Z, trivial action, res = 1, tr = p."""
    return permutation_functor(p, GSet(1, 0))


def twisted_burnside(p: int, d: int) -> MackeyFunctor:
    """Top Z{u, t}, bottom Z, res(u) = d, res(t) = p, tr(1) = t.

    ``twisted_burnside(p, 1)`` is the Burnside functor itself.
    """
    top = FpAbGroup.free(2)
    bottom = FpAbGroup.free(1)
    return MackeyFunctor(
        p,
        top,
        bottom,
        AbHom.identity(bottom),
        AbHom(top, bottom, IntMatrix.from_rows([[d, p]])),
        AbHom(bottom, top, IntMatrix.from_rows([[0], [1]])),
    )


def burnside(p: int) -> MackeyFunctor:
    return twisted_burnside(p, 1)


def fixed_point_functor(p: int, module: FpAbGroup, gamma: AbHom) -> MackeyFunctor:
    """Top = fixed points of the action, res = inclusion, tr = the norm.

    The fixed points are ``kernel(gamma - 1)``, and the inclusion is the
    restriction.  The transfer is the norm solved, all columns at once, from
    the inclusion's Smith decomposition (the one that gave the top its
    relations), so no further system is eliminated.

    >>> z = FpAbGroup.free(1)
    >>> fixed_point_functor(3, z, AbHom.identity(z)) == constant_z(3)
    True
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    _check_action(module, gamma, p)
    top, res = kernel(gamma - AbHom.identity(module))
    x = res.smith.solve(action_norm(gamma, p).matrix)
    tr = AbHom(module, top, x.take_rows(range(top.ngens)))
    return MackeyFunctor(p, top, module, gamma, res, tr)


def orbit_functor(p: int, module: FpAbGroup, gamma: AbHom) -> MackeyFunctor:
    """Top = coinvariants of the action, tr = projection, res = the norm."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    quot, proj = coinvariants(module, gamma, p)
    res = AbHom(quot, module, action_norm(gamma, p).matrix)
    return MackeyFunctor(p, quot, module, gamma, res, proj)


class GSet(_Frozen, fields=("fixed", "free")):
    """A finite C_p-set: ``fixed`` one-point orbits and ``free`` free orbits."""

    def __init__(self, fixed: int, free: int):
        _check_ints((fixed, free), "orbit counts")
        if fixed < 0 or free < 0:
            raise ValueError("orbit counts must be nonnegative")
        self._set_fields(fixed, free)


def permutation_functor(p: int, s: GSet) -> MackeyFunctor:
    """The fixed-point functor of the permutation module Z[s], written down
    from the orbits.

    The bottom is free on the points, fixed ones first, and the action moves
    the i-th point of each free orbit to the next.  The top is free on the
    orbits, with the Hermite basis of the fixed points as restriction: a
    fixed point goes to itself and a free orbit to the sum of its points.
    The transfer is p on a fixed point and sends each point of a free orbit
    to that orbit.  This is ``fixed_point_functor`` of the module, built
    without solving for the transfer.

    >>> point = permutation_functor(5, GSet(1, 0))
    >>> point.gamma.matrix, point.res.matrix, point.tr.matrix
    (IntMatrix([[1]]), IntMatrix([[1]]), IntMatrix([[5]]))
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    eye, f, r = IntMatrix.identity, s.fixed, s.free
    orbit_of_point = eye(r).take_rows([b for b in range(r) for _ in range(p)])
    next_point = eye(r * p).take_columns([b * p + (i + 1) % p for b in range(r) for i in range(p)])
    top, module = FpAbGroup.free(f + r), FpAbGroup.free(f + r * p)
    return MackeyFunctor(
        p,
        top,
        module,
        AbHom(module, module, block_diagonal(eye(f), next_point)),
        AbHom(top, module, block_diagonal(eye(f), orbit_of_point)),
        AbHom(module, top, block_diagonal(eye(f).scaled(p), orbit_of_point.transpose())),
    )


# -- the box product ---------------------------------------------------------


def box_product(m: MackeyFunctor, n: MackeyFunctor) -> MackeyFunctor:
    """The symmetric monoidal (box) product of two functors.

    Bottom: tensor of bottoms with the diagonal action.  Top: tensor of tops,
    plus the coinvariants of the bottom tensor (classes written ``t(x ⊗ y)``),
    modulo Frobenius reciprocity::

        a ⊗ tr(y) = t(res(a) ⊗ y)      tr(x) ⊗ b = t(x ⊗ res(b))

    The new transfer sends a bottom class to its ``t(...)`` generator; the
    new restriction is (res ⊗ res) on tensor generators and the action norm
    on ``t(...)`` generators.  When m's bottom, or else n's, is Z with no
    relations and the trivial action, the other's bottom, action and memoised
    norm are the bottom tensor's by value, and are kept.  The top's relations
    are written in one pass from the factors' sparse rows: rows (a, b) of tops,
    as in ``tensor_product``, then of bottoms; columns R_t ⊗ 1, 1 ⊗ R_t,
    [R_b | γ − 1], a ⊗ tr(y) − t(res(a) ⊗ y), then tr(x) ⊗ b − t(x ⊗ res(b)).

    >>> from mackeybox.abgroup import invariant_factors
    >>> bb = box_product(burnside(2), burnside(2))
    >>> invariant_factors(bb.top), invariant_factors(bb.bottom)
    ((2, ()), (1, ()))
    """
    if m.p != n.p:
        raise ValueError(f"mismatched primes {m.p} and {n.p}")
    p, eye = m.p, IntMatrix.identity
    for one, other in ((m, n), (n, m)):
        if one.bottom.ngens == 1 and not one.bottom.relations.cols and one.gamma.matrix.values == (1,):
            bottom, gamma = other.bottom, other.gamma
            break
    else:
        bottom = tensor_product(m.bottom, n.bottom)
        gamma = AbHom(bottom, bottom, m.gamma.matrix.kron(n.gamma.matrix))
    _check_action(bottom, gamma, p)
    mt, mb, nt, nb, kn = m.top.ngens, m.bottom.ngens, n.top.ngens, n.bottom.ngens, n.top.relations.cols
    pairs, size, kb = mt * nt, mb * nb, bottom.relations.cols
    # the first columns of 1 ⊗ R_t, [R_b | γ − 1], the (a, y) and the (x, b) blocks, and the width
    c2, c3, c4, c5, width = accumulate((m.top.relations.cols * nt, mt * kn, kb + size, mt * nb, mb * nt))
    offsets, indices, values = [0], [], []
    right = list(zip(_sparse_rows(n.top.relations), _sparse_rows(n.tr.matrix)))
    for a, ((ri, rv), (xi, xv)) in enumerate(zip(_sparse_rows(m.top.relations), _sparse_rows(m.tr.matrix))):
        for b, ((si, sv), (yi, yv)) in enumerate(right):  # row (a, b)
            indices += [r * nt + b for r in ri]
            indices += [c2 + a * kn + s for s in si]
            indices += [c4 + a * nb + y for y in yi]
            indices += [c5 + x * nt + b for x in xi]
            values += (*rv, *sv, *yv, *xv)
            offsets.append(len(values))
    res_m, res_n = _sparse_rows(m.res.matrix), _sparse_rows(n.res.matrix)
    for k, (ri, rv) in enumerate(_sparse_rows(bottom.relations.hstack(gamma.matrix - eye(size)))):
        x, y = divmod(k, nb)  # row (x, y) of [R_b | γ − 1]
        (ai, av), (bi, bv) = res_m[x], res_n[y]
        indices += [c3 + r for r in ri]
        indices += [c4 + a * nb + y for a in ai]
        indices += [c5 + x * nt + b for b in bi]
        values += (*rv, *map(neg, av), *map(neg, bv))
        offsets.append(len(values))
    top = FpAbGroup(pairs + size, _trusted(pairs + size, width, tuple(offsets), tuple(indices), tuple(values)))
    tr = AbHom(bottom, top, IntMatrix.zeros(pairs, size).vstack(eye(size)))
    res = AbHom(top, bottom, m.res.matrix.kron(n.res.matrix).hstack(action_norm(gamma, p).matrix))
    return MackeyFunctor(p, top, bottom, gamma, res, tr)


# -- morphisms ----------------------------------------------------------------


class MackeyMorphism(_Frozen, fields=("source", "target", "phi_top", "phi_bottom")):
    """A pair of tier maps; see :func:`verify_morphism` for the conditions."""

    def __init__(self, source, target, phi_top, phi_bottom):
        try:
            if (phi_top.source, phi_top.target) != (source.top, target.top):
                raise ValueError("phi_top must map source top to target top")
            if (phi_bottom.source, phi_bottom.target) != (source.bottom, target.bottom):
                raise ValueError("phi_bottom must map source bottom to target bottom")
        except (AttributeError, ValueError):
            _check_types((source, target), MackeyFunctor, "functors")
            _check_types((phi_top, phi_bottom), AbHom, "maps")
            raise
        self._set_fields(source, target, phi_top, phi_bottom)

    def then(self, other: "MackeyMorphism") -> "MackeyMorphism":
        """Composite: first self, then other."""
        if self.target is not other.source and self.target != other.source:
            raise ValueError("morphisms do not compose")
        return MackeyMorphism(
            self.source,
            other.target,
            other.phi_top @ self.phi_top,
            other.phi_bottom @ self.phi_bottom,
        )


def verify_morphism(f: MackeyMorphism) -> tuple[str, ...]:
    """All violated morphism conditions; empty means a genuine morphism."""
    if f.source.p != f.target.p:
        return ("source and target live over different primes",)
    problems = []
    if not f.phi_top.is_well_defined():
        problems.append("top map is not well-defined")
    if not f.phi_bottom.is_well_defined():
        problems.append("bottom map is not well-defined")
    if not (f.phi_bottom @ f.source.gamma).equals(f.target.gamma @ f.phi_bottom):
        problems.append("bottom map is not equivariant")
    if not (f.target.res @ f.phi_top).equals(f.phi_bottom @ f.source.res):
        problems.append("restriction square does not commute")
    if not (f.target.tr @ f.phi_bottom).equals(f.phi_top @ f.source.tr):
        problems.append("transfer square does not commute")
    return tuple(problems)


def is_mackey_isomorphism(f: MackeyMorphism) -> bool:
    """A genuine morphism that is a bijection on both tiers (``verify_morphism``
    has checked that both tier maps are well-defined).  Each tier map is
    bijective when it is onto and its groups have the same invariant factors
    (``abgroup._bijective``), so no kernel lattice is read.  The bottom map of
    ``unit_isomorphism`` is the shared identity, onto by ``is``, and its top
    map leads with the identity, so only the tiers' relations are eliminated,
    for their invariant factors."""
    if verify_morphism(f):
        return False
    return _bijective(f.phi_top) and _bijective(f.phi_bottom)


def unit_isomorphism(m: MackeyFunctor) -> MackeyMorphism:
    """The canonical map box(burnside(p), M) → M.

    Tensor generators u ⊗ a go to a, t ⊗ a to tr(res(a)), and transfer
    classes t(1 ⊗ x) to tr(x); on bottoms 1 ⊗ x goes to x.  For every valid
    M this is a Mackey isomorphism (the Burnside functor is the box unit).
    The source is ``box_product(burnside(p), M)``, which keeps M's bottom."""
    src = box_product(burnside(m.p), m)
    top = IntMatrix.identity(m.top.ngens).hstack((m.tr @ m.res).matrix).hstack(m.tr.matrix)
    return MackeyMorphism(src, m, AbHom(src.top, m.top, top), AbHom.identity(m.bottom))


__all__ = [
    "MackeyFunctor",
    "MackeyMorphism",
    "GSet",
    "is_prime",
    "PRIME_LIMIT",
    "action_norm",
    "check_axioms",
    "zero_functor",
    "constant_z",
    "burnside",
    "twisted_burnside",
    "fixed_point_functor",
    "orbit_functor",
    "permutation_functor",
    "box_product",
    "verify_morphism",
    "is_mackey_isomorphism",
    "unit_isomorphism",
]
