"""Shared test utilities: reference oracles, constructions only tests use,
random generators and hand-built isomorphisms."""

from __future__ import annotations

import itertools

from mackeybox.intlin import IntMatrix, block_diagonal, kernel_basis, solve_linear
from mackeybox.abgroup import AbHom, FpAbGroup, direct_sum, invariant_factors
from mackeybox.mackey import (
    GSet,
    MackeyFunctor,
    MackeyMorphism,
    box_product,
    burnside,
    constant_z,
    fixed_point_functor,
    orbit_functor,
    permutation_functor,
    twisted_burnside,
    zero_functor,
)

PRIMES = (2, 3, 5, 7)


def preimage_gens(matrix: IntMatrix, modulo: IntMatrix) -> IntMatrix:
    """Generators of ``{x : matrix·x ∈ column lattice of modulo}`` by a
    fresh elimination of its own: the top rows of ``kernel_basis([matrix |
    modulo])``.  An oracle for the kernel lattices the library memoises."""
    return kernel_basis(matrix.hstack(modulo)).take_rows(range(matrix.cols))


def det(a: IntMatrix) -> int:
    """The determinant by the Bareiss fraction-free elimination: an oracle
    that shares no code with the library's Smith and Hermite forms.

    >>> det(IntMatrix.from_rows([[2, 0], [1, 3]]))
    6
    """
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def column_hermite(a: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """The Hermite form by column operations on row-major lists, with its
    transform: ``(H, U)`` with ``a @ U == H``, U unimodular.  The reference
    for ``intlin.hermite_normal_form``, which reduces the transpose and
    builds no U."""

    def swap_cols(m, i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def add_col(m, dst, src, q):
        if q:
            for row in m:
                row[dst] += q * row[src]

    m, n = a.rows, a.cols
    h = a.to_rows()
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    pc = 0
    for r in range(m):
        if pc == n:
            break
        while True:
            nz = [j for j in range(pc, n) if h[r][j]]
            if not nz:
                break
            jmin = min(nz, key=lambda j: (abs(h[r][j]), j))
            if jmin != pc:
                swap_cols(h, pc, jmin)
                swap_cols(u, pc, jmin)
            done = True
            for j in range(pc + 1, n):
                if h[r][j]:
                    q = h[r][j] // h[r][pc]
                    add_col(h, j, pc, -q)
                    add_col(u, j, pc, -q)
                    if h[r][j]:
                        done = False
            if done:
                break
        if h[r][pc] == 0:
            continue
        if h[r][pc] < 0:
            for row in h:
                row[pc] = -row[pc]
            for row in u:
                row[pc] = -row[pc]
        piv = h[r][pc]
        for l in range(pc):
            q = h[r][l] // piv
            add_col(h, l, pc, -q)
            add_col(u, l, pc, -q)
        pc += 1
    return IntMatrix(m, n, tuple(itertools.chain(*h))), IntMatrix(n, n, tuple(itertools.chain(*u)))


def same_lattice(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether two generating sets span the same column lattice: their
    Hermite forms (``column_hermite``, which shares no code with the
    library's eliminations) agree once their zero columns are dropped, since
    that form is unique for the lattice."""
    if a.rows != b.rows:
        raise ValueError("lattices in different ambient spaces")

    def basis(m):
        return [col for col in column_hermite(m)[0].transpose().to_rows() if any(col)]

    return basis(a) == basis(b)


def is_trivial(g: FpAbGroup) -> bool:
    return invariant_factors(g) == (0, ())


# -- a dense reference for the sparse kernels -----------------------------------
#
# Each takes and returns matrices as lists of rows; ``canonical`` checks the
# stored fields of an IntMatrix against those rows.


def dense_product(a, b, inner):
    return [[sum(r[k] * b[k][j] for k in range(inner)) for j in range(len(b[0]) if b else 0)] for r in a]


def dense_transpose(a, cols):
    return [[r[j] for r in a] for j in range(cols)]


def dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def canonical(m: IntMatrix, rows) -> bool:
    """Whether m stores exactly the nonzeros of the dense rows, in row-compressed
    form: ``offsets`` from 0, ascending indices within a row, no zero value."""
    want = [[(j, x) for j, x in enumerate(r) if x] for r in rows]
    o = m.offsets
    return (
        (m.rows, len(o), o[0]) == (len(rows), len(rows) + 1, 0)
        and all(a <= b for a, b in zip(o, o[1:]))
        and [list(zip(m.indices[a:b], m.values[a:b])) for a, b in zip(o, o[1:])] == want
        and len(m.indices) == len(m.values) == o[-1]
    )


# -- constructions only tests use ----------------------------------------------


def gset_product(s: GSet, t: GSet, p: int) -> GSet:
    """The product C_p-set: free orbits absorb everything they touch."""
    return GSet(s.fixed * t.fixed, s.fixed * t.free + s.free * t.fixed + p * s.free * t.free)


def direct_sum_functors(m: MackeyFunctor, n: MackeyFunctor) -> MackeyFunctor:
    if m.p != n.p:
        raise ValueError("mismatched primes")
    top = direct_sum(m.top, n.top)
    bottom = direct_sum(m.bottom, n.bottom)
    return MackeyFunctor(
        m.p,
        top,
        bottom,
        AbHom(bottom, bottom, block_diagonal(m.gamma.matrix, n.gamma.matrix)),
        AbHom(top, bottom, block_diagonal(m.res.matrix, n.res.matrix)),
        AbHom(bottom, top, block_diagonal(m.tr.matrix, n.tr.matrix)),
    )


# -- random generators ---------------------------------------------------------


def random_presentation(rng, max_gens=3, max_rels=3, entry=4) -> FpAbGroup:
    n = rng.randint(0, max_gens)
    k = rng.randint(0, max_rels)
    cols = [[rng.randint(-entry, entry) for _ in range(n)] for _ in range(k)]
    return FpAbGroup(n, IntMatrix.from_columns(cols, rows=n))


def random_module(rng, p, max_gens=3, entry=4) -> tuple[FpAbGroup, AbHom]:
    """A presented group with a valid order-p action (relations action-closed)."""
    n = rng.randint(0, max_gens)
    kinds = ["identity"]
    if p == 2 and n >= 1:
        kinds.append("sign")
    if n >= p:
        kinds.append("cycle")
    kind = rng.choice(kinds)
    if kind == "identity":
        mat = IntMatrix.identity(n)
    elif kind == "sign":
        flips = [rng.choice((1, -1)) for _ in range(n)]
        mat = IntMatrix.from_rows(
            [[flips[i] if i == j else 0 for j in range(n)] for i in range(n)], cols=n
        )
    else:
        rows = [[0] * n for _ in range(n)]
        for i in range(p):
            rows[(i + 1) % p][i] = 1
        for i in range(p, n):
            rows[i][i] = 1
        mat = IntMatrix.from_rows(rows, cols=n)
    cols = []
    for _ in range(rng.randint(0, max_gens)):
        v = [rng.randint(-entry, entry) for _ in range(n)]
        for _ in range(p):  # close the relation set under the action
            cols.append(v)
            v = list(mat.apply(v))
    group = FpAbGroup(n, IntMatrix.from_columns(cols, rows=n))
    gamma = AbHom(group, group, mat)
    return group, gamma


def random_functor(rng, p, max_gens=3) -> MackeyFunctor:
    """A random valid functor with both tiers within the generator budget."""
    while True:
        kind = rng.choice(
            ["zero", "constant", "burnside", "twisted", "perm", "fixed", "orbit", "sum"]
        )
        if kind == "zero":
            m = zero_functor(p)
        elif kind == "constant":
            m = constant_z(p)
        elif kind == "burnside":
            m = burnside(p)
        elif kind == "twisted":
            m = twisted_burnside(p, rng.randint(-6, 6))
        elif kind == "perm":
            s = GSet(rng.randint(0, 2), rng.randint(0, 1))
            if s.fixed + p * s.free > max_gens:
                continue
            m = permutation_functor(p, s)
        elif kind in ("fixed", "orbit"):
            module, gamma = random_module(rng, p, max_gens=max_gens)
            build = fixed_point_functor if kind == "fixed" else orbit_functor
            m = build(p, module, gamma)
        else:
            a = random_functor(rng, p, max_gens=max(1, max_gens // 2))
            b = random_functor(rng, p, max_gens=max(1, max_gens // 2))
            m = direct_sum_functors(a, b)
        if m.top.ngens <= max_gens and m.bottom.ngens <= max_gens:
            return m


def pad_group(g: FpAbGroup, combo) -> tuple[FpAbGroup, AbHom, AbHom]:
    """Adjoin a redundant generator equal to ``combo`` of the old ones.

    Returns ``(g2, fwd, back)`` with fwd: g2 → g and back: g → g2 mutually
    inverse isomorphisms.
    """
    n = g.ngens
    combo = list(combo)
    padded = g.relations.vstack(IntMatrix.zeros(1, g.relations.cols))
    new_col = combo + [-1]
    g2 = FpAbGroup(n + 1, padded.hstack(IntMatrix.from_columns([new_col], rows=n + 1)))
    fwd = AbHom(g2, g, IntMatrix.identity(n).hstack(IntMatrix.from_columns([combo], rows=n)))
    back = AbHom(g, g2, IntMatrix.identity(n).vstack(IntMatrix.zeros(1, n)))
    return g2, fwd, back


def pad_functor(m: MackeyFunctor, rng) -> MackeyFunctor:
    """An isomorphic functor whose tiers carry a redundant extra generator."""
    t2, t_fwd, t_back = pad_group(m.top, [rng.randint(-3, 3) for _ in range(m.top.ngens)])
    b2, b_fwd, b_back = pad_group(m.bottom, [rng.randint(-3, 3) for _ in range(m.bottom.ngens)])
    return MackeyFunctor(
        m.p,
        t2,
        b2,
        b_back @ m.gamma @ b_fwd,
        b_back @ m.res @ t_fwd,
        t_back @ m.tr @ b_fwd,
    )


# -- hand-built isomorphisms for the worked box products ---------------------


def constant_box_morphism(p: int) -> MackeyMorphism:
    """box(constant, constant) → constant: a ⊗ b ↦ 1, t(1 ⊗ 1) ↦ p."""
    src = box_product(constant_z(p), constant_z(p))
    tgt = constant_z(p)
    phi_top = AbHom(src.top, tgt.top, IntMatrix.from_rows([[1, p]]))
    phi_bottom = AbHom(src.bottom, tgt.bottom, IntMatrix.identity(1))
    return MackeyMorphism(src, tgt, phi_top, phi_bottom)


def twisted_box_morphism(p: int, c: int, d: int) -> MackeyMorphism:
    """box(twist c, twist d) → twist c·d on (u⊗u, u⊗t, t⊗u, t⊗t, t(1⊗1))."""
    src = box_product(twisted_burnside(p, c), twisted_burnside(p, d))
    tgt = twisted_burnside(p, c * d)
    cols = [(1, 0), (0, c), (0, d), (0, p), (0, 1)]
    phi_top = AbHom(src.top, tgt.top, IntMatrix.from_columns(cols, rows=2))
    phi_bottom = AbHom(src.bottom, tgt.bottom, IntMatrix.identity(1))
    return MackeyMorphism(src, tgt, phi_top, phi_bottom)


def c2_orbit_box_morphism() -> MackeyMorphism:
    """box(free-orbit functor, free-orbit functor) → two-free-orbit functor, p = 2.

    The bottom map relabels basis pairs by diagonal orbits; the transfer
    square forces the images of the t(...) generators and the (injective)
    restriction forces the image of the tensor generator.
    """
    m = permutation_functor(2, GSet(0, 1))
    src = box_product(m, m)
    tgt = permutation_functor(2, gset_product(GSet(0, 1), GSet(0, 1), 2))
    orbit_index = {(0, 0): 0, (1, 1): 1, (0, 1): 2, (1, 0): 3}
    cols = []
    for k in range(2):
        for l in range(2):
            v = [0] * 4
            v[orbit_index[(k, l)]] = 1
            cols.append(v)
    phi_b = IntMatrix.from_columns(cols, rows=4)
    top_cols = [solve_linear(tgt.res.matrix, phi_b.apply(src.res.matrix.column(0)))]
    for k in range(2):
        for l in range(2):
            top_cols.append(tgt.tr.matrix.apply(phi_b.column(2 * k + l)))
    phi_top = IntMatrix.from_columns(top_cols, rows=tgt.top.ngens)
    return MackeyMorphism(
        src,
        tgt,
        AbHom(src.top, tgt.top, phi_top),
        AbHom(src.bottom, tgt.bottom, phi_b),
    )
