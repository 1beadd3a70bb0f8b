"""Finitely presented abelian groups and their homomorphisms.

A group is presented by a generator count and a relation matrix whose
*columns* are the relations; the group is Z^ngens modulo the column lattice.
A homomorphism is a ``target.ngens x source.ngens`` integer matrix acting on
coordinate columns, the one representation of a group element.  Every
question (membership of the relation lattice, well-definedness, kernels,
cokernels) reduces to integer linear algebra from :mod:`.intlin`.

Groups and homomorphisms are frozen, so a fact derived from one is computed
at most once and kept on it (``intlin._memoised``, a lock-free
``functools.cached_property``; the memo is not a field, so ``==`` and
``hash`` ignore it): a group's Smith decomposition and the columns it
recognises as relations, a homomorphism's Smith decomposition of
``[matrix | target.relations]`` and kernel lattice, and an endomorphism's
orbits.  A map whose matrix leads with the identity (the identity, a map
into no generators) is onto by construction.  A well-defined map is an
isomorphism when it is onto and its groups have the same invariant
factors (``_bijective``, the library's one bijectivity test).
"""

from __future__ import annotations

from operator import neg

from .intlin import (
    IntMatrix,
    SmithDecomposition,
    _Frozen,
    _check_height,
    _check_ints,
    _check_types,
    _cycle_orbit,
    _leads_with_identity,
    _memoised,
    _reduce_columns,
    _sparse_rows,
    block_diagonal,
    lattice_basis,
    smith_normal_form,
)


class FpAbGroup(_Frozen, fields=("ngens", "relations")):
    """Z^ngens modulo the column lattice of ``relations``.

    >>> invariant_factors(FpAbGroup.cyclic(6))
    (0, (6,))
    """

    def __init__(self, ngens: int, relations: IntMatrix):
        if type(ngens) is not int:
            _check_ints((ngens,), "generator counts")
        if ngens < 0:
            raise ValueError("generator count must be nonnegative")
        try:
            if relations.rows != ngens:
                raise ValueError(f"relation columns have length {relations.rows}, expected {ngens}")
        except AttributeError:
            _check_types((relations,), IntMatrix, "relations")
            raise
        object.__setattr__(self, "ngens", ngens)
        object.__setattr__(self, "relations", relations)

    @classmethod
    def free(cls, n: int) -> "FpAbGroup":
        return cls(n, IntMatrix.zeros(n, 0))

    @classmethod
    def cyclic(cls, m: int) -> "FpAbGroup":
        return cls(1, IntMatrix.from_rows([[m]]))

    @classmethod
    def trivial(cls) -> "FpAbGroup":
        return cls.free(0)

    @_memoised
    def smith(self) -> SmithDecomposition:
        """``U @ relations @ V == S``, memoised.

        The invariant factors of a group with relations, and every
        membership question ``contains_all`` cannot settle by inspection,
        read this one decomposition.  A group with no relations needs no
        elimination: S has no columns and no operation made it.
        """
        if self.relations.cols == 0:
            return SmithDecomposition(self.relations, (), ())
        return smith_normal_form(self.relations)

    def contains_all(self, m: IntMatrix) -> bool:
        """Whether every column of m lies in the relation lattice, i.e. is
        zero in the group: the one membership test behind
        ``is_well_defined`` and ``equals``.

        A column that is zero or plus or minus a relation is a member by
        inspection (the rows of the query's transpose); with no relations
        only zero columns are.  Otherwise the group's memoised Smith
        decomposition (``smith``) answers.

        >>> FpAbGroup.cyclic(4).contains_all(IntMatrix.from_rows([[0, -4, 8]]))
        True
        """
        _check_height(m, self.ngens)
        if self.relations.cols == 0 or m.is_zero():
            return m.is_zero()
        known, columns = self._members_by_inspection, _sparse_rows(m.transpose())
        return all(not col[0] or col in known for col in columns) or self.smith.contains_all(m)

    @_memoised
    def _members_by_inspection(self) -> frozenset:
        """Each relation and its negative, as the ``(indices, values)`` of
        its nonzeros (a row of the relations' transpose), memoised."""
        columns = _sparse_rows(self.relations.transpose())
        return frozenset(columns + [(idx, tuple(map(neg, vals))) for idx, vals in columns])


def invariant_factors(g: FpAbGroup) -> tuple[int, tuple[int, ...]]:
    """``(free_rank, torsion)`` with torsion a divisibility chain, 1s dropped.

    >>> invariant_factors(FpAbGroup(2, IntMatrix.from_columns([(2, 0), (0, 6)])))
    (0, (2, 6))
    """
    if g.relations.cols == 0:
        return g.ngens, ()
    diag = g.smith.diagonal()
    nonzero = [d for d in diag if d != 0]
    torsion = tuple(d for d in nonzero if d > 1)
    return g.ngens - len(nonzero), torsion


def describe_group(g: FpAbGroup) -> str:
    """A human name built from the invariant factors, e.g. ``Z^2 + Z/4``."""
    free, torsion = invariant_factors(g)
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{d}" for d in torsion)
    return " + ".join(parts) if parts else "0"


class AbHom(_Frozen, fields=("source", "target", "matrix")):
    """A homomorphism of presented groups, as a matrix on coordinates."""

    def __init__(self, source: FpAbGroup, target: FpAbGroup, matrix: IntMatrix):
        try:
            if matrix.rows != target.ngens or matrix.cols != source.ngens:
                raise ValueError(
                    f"matrix is {matrix.rows}x{matrix.cols}, expected {target.ngens}x{source.ngens}"
                )
        except AttributeError:
            _check_types((source, target), FpAbGroup, "groups")
            _check_types((matrix,), IntMatrix, "matrices")
            raise
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def identity(cls, g: FpAbGroup) -> "AbHom":
        return cls(g, g, IntMatrix.identity(g.ngens))

    @classmethod
    def zero(cls, source: FpAbGroup, target: FpAbGroup) -> "AbHom":
        return cls(source, target, IntMatrix.zeros(target.ngens, source.ngens))

    def __matmul__(self, other: "AbHom") -> "AbHom":
        """Composite self ∘ other."""
        if not isinstance(other, AbHom):
            return NotImplemented
        if other.target is not self.source and other.target != self.source:
            raise ValueError("homomorphisms do not compose")
        return AbHom(other.source, self.target, self.matrix @ other.matrix)

    def __add__(self, other: "AbHom") -> "AbHom":
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("homomorphisms with different ends")
        return AbHom(self.source, self.target, self.matrix + other.matrix)

    def __neg__(self) -> "AbHom":
        return AbHom(self.source, self.target, -self.matrix)

    def __sub__(self, other: "AbHom") -> "AbHom":
        if (self.source, self.target) != (other.source, other.target):
            raise ValueError("homomorphisms with different ends")
        return AbHom(self.source, self.target, self.matrix - other.matrix)

    def scaled(self, k: int) -> "AbHom":
        return AbHom(self.source, self.target, self.matrix.scaled(k))

    def power(self, k: int) -> "AbHom":
        """The k-th iterate, the first half of ``orbit(k)``: on a group with
        relations, the orbit's reduced representative of ``matrix^k``.

        >>> swap = AbHom(FpAbGroup.free(2), FpAbGroup.free(2),
        ...              IntMatrix.from_rows([[0, 1], [1, 0]]))
        >>> swap.power(5).matrix
        IntMatrix([[0, 1], [1, 0]])
        """
        return self.orbit(k)[0]

    def is_well_defined(self) -> bool:
        """Whether every source relation maps into the target relation lattice.

        >>> z2 = FpAbGroup.cyclic(2); z4 = FpAbGroup.cyclic(4)
        >>> AbHom(z2, z4, IntMatrix.from_rows([[2]])).is_well_defined()
        True
        >>> AbHom(z2, z4, IntMatrix.from_rows([[1]])).is_well_defined()
        False
        """
        rel = self.source.relations
        return not rel.cols or self.target.contains_all(self.matrix @ rel)

    def equals(self, other: "AbHom") -> bool:
        """Equality as maps on the presented groups (not of matrices): equal
        matrices answer at once, and otherwise the difference must lie in the
        target's relation lattice (``contains_all``)."""
        if (self.source, self.target) != (other.source, other.target):
            return False
        m, n = self.matrix, other.matrix
        return m is n or m == n or self.target.contains_all(m - n)

    @_memoised
    def smith(self) -> SmithDecomposition:
        """``U @ [matrix | target.relations] @ V == S``, memoised.

        Its column lattice is the image plus the target relations, so the
        diagonal says whether f is onto, V gives the kernel lattice and U
        answers membership in the image (``contains_all``).
        """
        return smith_normal_form(self.matrix.hstack(self.target.relations))

    @_memoised
    def kernel_lattice(self) -> IntMatrix:
        """Generators of ``{x : matrix·x ∈ target relations}``: the top
        ``source.ngens`` rows of the kernel of ``[matrix | target.relations]``
        (``smith``), memoised."""
        return self.smith.kernel().take_rows(range(self.source.ngens))

    def is_surjective(self) -> bool:
        """Whether the image and the target relations span Z^target.ngens,
        i.e. whether the Smith diagonal is ``target.ngens`` ones.  A matrix
        that leads with the identity (``intlin._leads_with_identity``: the
        identity, a map into no generators, the unit's ``[I | tr·res | tr]``)
        is onto by construction, so this question stacks and eliminates
        nothing; its kernel lattice, if asked, still reads ``smith``."""
        if _leads_with_identity(self.matrix):
            return True
        diag = self.smith.diagonal()
        return len(diag) == self.target.ngens and all(d == 1 for d in diag)

    @_memoised
    def _orbits(self) -> dict:
        return {}

    def orbit(self, k: int) -> tuple["AbHom", "AbHom"]:
        """``(f^k, 1 + f + ... + f^(k-1))`` for k >= 0, memoised per k.

        A signed permutation f (the identity among them) has both written
        from its cycles (``intlin._cycle_orbit``) with no product at any k;
        any other f takes a doubling pass of O(log k) products, with
        ``N_2j = N_j + f^j N_j`` and ``N_(2j+1) = N_2j + f^(2j)``.  On a group
        with relations, for f well defined and not 1 and k >= 2, both are
        reduced (by the pass, after each step) to canonical representatives
        modulo the relations' Hermite basis, so entries stay small at any k;
        otherwise they are exact.

        >>> z5 = FpAbGroup.cyclic(5)
        >>> power, norm = AbHom(z5, z5, IntMatrix.from_rows([[6]])).orbit(1000000007)
        >>> power.matrix, norm.matrix
        (IntMatrix([[1]]), IntMatrix([[2]]))
        """
        found = self._orbits.get(k) if type(k) is int else _check_ints((k,), "exponents")  # 5.0 would hit 5's memo
        if found is None:
            found = self._orbits[k] = self._orbit(k)
        return found

    def _orbit(self, k: int) -> tuple["AbHom", "AbHom"]:
        if self.source is not self.target and self.source != self.target:
            raise ValueError("orbits need an endomorphism")
        if k < 0:
            raise ValueError(f"orbits need k >= 0, got k = {k}")
        g, gamma, eye = self.source, self.matrix, IntMatrix.identity(self.source.ngens)
        reduced = g.relations.cols and k > 1 and gamma is not eye and gamma != eye and self.is_well_defined()
        basis = lattice_basis(g.relations) if reduced else None
        if walked := _cycle_orbit(gamma, k):
            power, total = walked if basis is None else (_reduce_columns(m, basis) for m in walked)
        else:
            total, power = (eye, gamma) if k else (eye.scaled(0), eye)  # N_1 and f^1, or N_0 and f^0
            for bit in bin(k)[3:]:
                total = total + power @ total
                power = power @ power
                if bit == "1":
                    total = total + power
                    power = gamma @ power
                if basis is not None:
                    total, power = _reduce_columns(total, basis), _reduce_columns(power, basis)
        return AbHom(g, g, power), AbHom(g, g, total)


def tensor_product(g: FpAbGroup, h: FpAbGroup) -> FpAbGroup:
    """G ⊗ H on generator pairs, relations r ⊗ e and e ⊗ r; the pair (i, j)
    is generator ``i * h.ngens + j``.

    >>> invariant_factors(tensor_product(FpAbGroup.cyclic(4), FpAbGroup.cyclic(6)))
    (0, (2,))
    """
    eye = IntMatrix.identity
    relations = g.relations.kron(eye(h.ngens)).hstack(eye(g.ngens).kron(h.relations))
    return FpAbGroup(g.ngens * h.ngens, relations)


def direct_sum(g: FpAbGroup, h: FpAbGroup) -> FpAbGroup:
    """G ⊕ H with G's generators first."""
    return FpAbGroup(g.ngens + h.ngens, block_diagonal(g.relations, h.relations))


def coinvariants(g: FpAbGroup, gamma: AbHom, p: int) -> tuple[FpAbGroup, AbHom]:
    """Largest quotient on which the order-p action gamma becomes trivial:
    the cokernel of gamma - 1.

    >>> sign = AbHom(FpAbGroup.free(1), FpAbGroup.free(1), IntMatrix.from_rows([[-1]]))
    >>> invariant_factors(coinvariants(FpAbGroup.free(1), sign, 2)[0])
    (0, (2,))
    """
    _check_action(g, gamma, p)
    return cokernel(gamma - AbHom.identity(g))


def _check_action(g: FpAbGroup, gamma: AbHom, p: int) -> None:
    """Raise ValueError unless gamma is a well-defined endomorphism of g
    whose p-th power is the identity, for p >= 1.  On a relation-free Z^n
    gamma^p = 1 makes the minimal polynomial a product of cyclotomic Φ_e,
    e | p, φ(e) ≤ n, so gamma^d is formed for d = gcd(p, lcm{e : φ(e) ≤ n}),
    of each prime q ≤ n + 1 the largest q^j | p with q^(j−1)(q − 1) ≤ n (gamma
    itself at d = 1); with relations, gamma^p reduced modulo them."""
    if (gamma.source, gamma.target) != (g, g):
        raise ValueError("the action must be an endomorphism of the group")
    if not gamma.is_well_defined():
        raise ValueError("the action is not well-defined")
    if type(p) is not int:
        _check_ints((p,), "action orders")
    if p < 1:
        raise ValueError(f"the action's order must divide p >= 1, got p = {p}")
    d, rest = (p, 1) if g.relations.cols else (1, p)  # with relations, no loop: d = p
    for q in range(2, min(g.ngens + 1, rest) + 1):  # only a prime q divides rest: smaller ones are out
        step = 1  # q^(j−1) for the next factor q^j, whose φ is step·(q − 1)
        while rest % q == 0:
            rest, d, step = rest // q, d * q if step * (q - 1) <= g.ngens else d, step * q
    if not (gamma if d == 1 else gamma.orbit(d)[0]).equals(AbHom.identity(g)):
        raise ValueError(f"the action does not have order dividing {p}")


def _image(f: AbHom) -> tuple[FpAbGroup, AbHom]:
    """im f, presented on f's source generators modulo ``f.kernel_lattice``,
    and its inclusion into the target.  The inclusion has f's matrix and
    target, so it keeps f's memoised ``smith`` instead of eliminating
    ``[matrix | target.relations]`` again.  It is well defined by the
    definition of its source's relations."""
    inclusion = AbHom(FpAbGroup(f.source.ngens, f.kernel_lattice), f.target, f.matrix)
    inclusion.__dict__["smith"] = f.smith
    return inclusion.source, inclusion


def kernel(f: AbHom) -> tuple[FpAbGroup, AbHom]:
    """A presentation of ker f and its inclusion into the source: the image
    (``_image``) of the Hermite basis of f's kernel lattice
    ``{x : f(x) ∈ target relations}``, so the inclusion's ``smith`` is that
    of ``[basis | source relations]``."""
    basis = lattice_basis(f.kernel_lattice)
    return _image(AbHom(FpAbGroup.free(basis.cols), f.source, basis))


def cokernel(f: AbHom) -> tuple[FpAbGroup, AbHom]:
    """coker f = target / image, with the projection from the target.  Its
    relations stack ``[target relations | matrix]``."""
    c = FpAbGroup(f.target.ngens, f.target.relations.hstack(f.matrix))
    return c, AbHom(f.target, c, IntMatrix.identity(f.target.ngens))


def _bijective(f: AbHom) -> bool:
    """Whether a well-defined f (the caller's check) is an isomorphism: onto
    between groups with the same invariant factors, the library's one
    bijectivity test.  A finitely generated abelian group is Hopfian: an
    onto map between two isomorphic such groups is an isomorphism
    (Vasconcelos, Trans. AMS 138, 1969), so injectivity reads only the
    diagonals of the two groups' memoised ``smith``, and no kernel lattice."""
    return f.is_surjective() and invariant_factors(f.source) == invariant_factors(f.target)


__all__ = [
    "FpAbGroup",
    "AbHom",
    "invariant_factors",
    "describe_group",
    "tensor_product",
    "direct_sum",
    "coinvariants",
    "kernel",
    "cokernel",
]
