"""Output oracles that share no code with the timed path.

Matrices here are plain lists of rows of Python ints.  A presented group is
Z^n modulo the column lattice of an ``n x r`` relation matrix, as in the
program, but every invariant is recomputed by the elimination below rather
than by the program's Smith form.
"""

from __future__ import annotations

from math import gcd


def _divisibility_chain(values: list[int]) -> list[int]:
    """Turn any diagonal into invariant factors by pairwise (gcd, lcm) steps."""
    vals = sorted(values)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            a, b = vals[i], vals[j]
            g = gcd(a, b)
            vals[i], vals[j] = g, a // g * b
    return vals


def smith_diagonal(rows: list[list[int]]) -> list[int]:
    """The nonzero Smith diagonal of a matrix, as a divisibility chain.

    Elimination carries no transforms, so entry growth stays within the
    working block.

    >>> smith_diagonal([[2, 4], [6, 8]])
    [2, 4]
    """
    a = [list(r) for r in rows if any(r)]
    diag = []
    while a:
        ncols = len(a[0])
        # least nonzero entry as the pivot
        best = None
        for i, r in enumerate(a):
            for j, e in enumerate(r):
                if e and (best is None or abs(e) < best[0]):
                    best = (abs(e), i, j)
        if best is None:
            break
        _, pi, pj = best
        a[0], a[pi] = a[pi], a[0]
        while True:
            piv = a[0][pj]
            changed = False
            for r in a[1:]:
                if r[pj]:
                    q = r[pj] // piv
                    for j in range(ncols):
                        r[j] -= q * a[0][j]
                    if r[pj]:
                        changed = True
            for j in range(ncols):
                if j != pj and a[0][j]:
                    q = a[0][j] // piv
                    for r in a:
                        r[j] -= q * r[pj]
                    if a[0][j]:
                        changed = True
            if not changed:
                break
            # a remainder is smaller than the pivot: move it into place
            cands = [(abs(r[pj]), i, pj) for i, r in enumerate(a) if i and r[pj]]
            cands += [(abs(e), 0, j) for j, e in enumerate(a[0]) if j != pj and e]
            _, ni, nj = min(cands)
            if ni:
                a[0], a[ni] = a[ni], a[0]
            pj = nj
        diag.append(abs(a[0][pj]))
        a = [r[:pj] + r[pj + 1:] for r in a[1:]]
        a = [r for r in a if any(r)]
    return _divisibility_chain(diag)


def group_invariants(ngens: int, relations: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """``(free_rank, torsion)`` of Z^ngens modulo the relation columns."""
    diag = smith_diagonal(relations) if ngens else []
    return ngens - len(diag), tuple(d for d in diag if d > 1)


def rational_rank(rows: list[list[int]]) -> int:
    """Rank over Q by fraction-free (Bareiss) row echelon elimination.

    >>> rational_rank([[1, 2], [2, 4], [0, 1]])
    2
    """
    a = [list(r) for r in rows if any(r)]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    rank, prev = 0, 1
    for c in range(n):
        piv = next((i for i in range(rank, m) if a[i][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        for i in range(rank + 1, m):
            r = a[i]
            f = r[c]
            for j in range(c + 1, n):
                q, rem = divmod(r[j] * top[c] - f * top[j], prev)
                if rem:
                    raise ArithmeticError("inexact Bareiss division")
                r[j] = q
            r[c] = 0
        prev = top[c]
        rank += 1
        if rank == m:
            break
    return rank


def group_name(invariants: tuple[int, tuple[int, ...]]) -> str:
    """The README's group notation, e.g. ``Z^2 + Z/4``, written independently."""
    free, torsion = invariants
    parts = [] if free == 0 else ["Z" if free == 1 else f"Z^{free}"]
    parts += [f"Z/{d}" for d in torsion]
    return " + ".join(parts) or "0"


def twist_class(d: int, p: int) -> int:
    return min(d % p, -d % p)


def is_inverse_twist(d: int, x: int, p: int) -> bool:
    """Whether twist x inverts twist d: d·x ≡ ±1 (mod p)."""
    return (d * x) % p in (1, p - 1)


def fields(text: str) -> dict[str, str]:
    """``key: value`` lines of a command's output (comments skipped)."""
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or ":" not in line:
            continue
        key, _, value = line.partition(":")
        out.setdefault(key.strip(), value.strip())
    return out
