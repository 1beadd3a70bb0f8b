"""Seeded inputs, timed operations and their checks for the three workloads.

Every workload is a list of *decks*.  A deck holds one op of every kind in
the workload's stated mix, so a run that stops at a deck boundary always
measures the same mix whatever the seed.  The seed only chooses the
presentations (relabellings, shears, twists), never the mix.
"""

from __future__ import annotations

import random
import subprocess
from dataclasses import dataclass
from pathlib import Path

import oracles

GSETS = ((1, 0), (0, 1), (1, 1))
# box_perm deck: every ordered pair of small G-sets at p <= 5; at p = 7 the
# pairs with a fixed-point side (twice each) and the pair of free orbits.  The
# three larger p = 7 pairs (4 to 9 s each) would leave fewer than 100 ops in
# a run.  Sorted by latency, the two p = 5 pairs of a free orbit with (1, 1),
# taken twice each, fill the tenth of the deck around its 90th percentile, so
# that percentile is a median of one kind of op.  Likewise p = 5 (1, 1)x(1, 0),
# taken three times, and p = 7 (1, 0)x(0, 1), taken twice, both about 20 ms at
# the seed, fill ranks 20 to 24 of the 42, around the median; with one copy
# of the former the median sat on the edge of a step, between ops that take
# 15 and 20 ms, and moved by 10 % from seed to seed.
_FIXED_P7 = [(7, s, t) for s in GSETS for t in GSETS if (1, 0) in (s, t)]
BOX_PAIRS = tuple(
    [(p, s, t) for p in (2, 3, 5) for s in GSETS for t in GSETS]
    + _FIXED_P7 + _FIXED_P7
    + [(7, (0, 1), (0, 1)), (5, (0, 1), (1, 1)), (5, (1, 1), (0, 1))]
    + [(5, (1, 1), (1, 0))] * 2
)
# invert_large_p deck: 20 ops over two decades of primes.  Seed cost is
# linear in p (about 0.07 ms * p per invertible op), so sorted latencies form
# steps; four invertible ops at p = 631 fill the middle fifth and four at
# p = 10007 the top fifth, so the median and the 90th percentile each fall in
# the middle of one step instead of on the edge between two.
INVERT_DECK = (
    (101, "unit"), (101, "multiple"), (163, "unit"), (163, "constant"),
    (257, "unit"), (257, "multiple"), (401, "unit"), (401, "constant"),
    (631, "unit"), (631, "unit"), (631, "unit"), (631, "unit"),
    (1597, "unit"), (2521, "unit"), (4001, "unit"), (4001, "constant"),
    (10007, "unit"), (10007, "unit"), (10007, "unit"), (10007, "unit"),
)
# the README's prime range for documents a user writes by hand
CLI_TWIST_PRIMES = (3, 5, 7)
CLI_PERM_PRIMES = (2, 3)
SHEAR_COEFFS = (-2, -1, 1, 2)


@dataclass
class Op:
    """One closed-loop request: what is timed, and what its answer must be."""

    kind: str
    label: str
    args: tuple
    expect: dict
    size_in: tuple  # (generators, relations, largest coefficient in bits)


# -- presentations -------------------------------------------------------------


def _matmul(a, b, ncols: int):
    """Product of matrices given as row lists; ncols is b's column count."""
    return [[sum(x * b[k][j] for k, x in enumerate(row) if x) for j in range(ncols)] for row in a]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def signed_permutation(n: int, rng: random.Random):
    """A random signed permutation matrix and its inverse (the transpose)."""
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        m[i][j] = rng.choice((1, -1))
    return m, [list(c) for c in zip(*m)]


def shear(n: int, steps: int, rng: random.Random):
    """A product of ``steps`` elementary row operations with small coefficients."""
    m, inv = _identity(n), _identity(n)
    if n < 2:
        sign = rng.choice((1, -1))
        return [[sign]] * n, [[sign]] * n
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(SHEAR_COEFFS)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        for row in inv:  # (E m)^-1 = m^-1 E^-1
            row[j] -= c * row[i]
    return m, inv


def _rows(mat):
    return [list(mat.entries[i * mat.cols:(i + 1) * mat.cols]) for i in range(mat.rows)]


def rebase(mb, m, top, bottom):
    """The functor m in new generators: top = (P, P^-1) and bottom = (Q, Q^-1)
    change the bases of the top and bottom tiers."""
    (p_, pi), (q, qi) = top, bottom
    nt, nb = m.top.ngens, m.bottom.ngens
    rt, rb = m.top.relations.cols, m.bottom.relations.cols

    def mat(rows, ncols):
        return mb.IntMatrix.from_rows(rows, cols=ncols)

    tg = mb.FpAbGroup(nt, mat(_matmul(p_, _rows(m.top.relations), rt), rt))
    bg = mb.FpAbGroup(nb, mat(_matmul(q, _rows(m.bottom.relations), rb), rb))
    gamma = _matmul(_matmul(q, _rows(m.gamma.matrix), nb), qi, nb)
    res = _matmul(_matmul(q, _rows(m.res.matrix), nt), pi, nt)
    tr = _matmul(_matmul(p_, _rows(m.tr.matrix), nb), qi, nb)
    return mb.MackeyFunctor(
        m.p, tg, bg,
        mb.AbHom(bg, bg, mat(gamma, nb)),
        mb.AbHom(tg, bg, mat(res, nt)),
        mb.AbHom(bg, tg, mat(tr, nb)),
    )


def functor_size(m) -> tuple[int, int, int]:
    """(generators, relations, largest coefficient in bits) over both tiers."""
    mats = (m.top.relations, m.bottom.relations, m.gamma.matrix, m.res.matrix, m.tr.matrix)
    big = max((abs(e) for x in mats for e in x.entries), default=0)
    return (m.top.ngens + m.bottom.ngens, m.top.relations.cols + m.bottom.relations.cols, big.bit_length())


def _sum_sizes(*sizes):
    return (sum(s[0] for s in sizes), sum(s[1] for s in sizes), max(s[2] for s in sizes))


def tier_invariants(m):
    """Independent invariants of both tiers of a functor."""
    return (
        oracles.group_invariants(m.top.ngens, _rows(m.top.relations)),
        oracles.group_invariants(m.bottom.ngens, _rows(m.bottom.relations)),
    )


# -- box_perm ------------------------------------------------------------------


def box_perm_decks(mb, seed: int, ndecks: int) -> list[list[Op]]:
    rng = random.Random(f"box_perm:{seed}")
    canon = {}
    decks = []
    for _ in range(ndecks):
        deck = []
        for p, s, t in BOX_PAIRS:
            pair = []
            for g in (s, t):
                if (p, g) not in canon:
                    canon[p, g] = mb.permutation_functor(p, mb.GSet(*g))
                c = canon[p, g]
                pair.append(rebase(mb, c, signed_permutation(c.top.ngens, rng),
                                   signed_permutation(c.bottom.ngens, rng)))
            label = f"p={p} {s}x{t}"
            deck.append(Op("box", label, tuple(pair), {"shape": (p, s, t)},
                           _sum_sizes(*map(functor_size, pair))))
        rng.shuffle(deck)
        decks.append(deck)
    return decks


def box_perm_expect(mb) -> dict:
    """Tier invariants of each canonical product, by the independent oracle."""
    out = {}
    for p, s, t in set(BOX_PAIRS):
        x = mb.box_product(mb.permutation_functor(p, mb.GSet(*s)), mb.permutation_functor(p, mb.GSet(*t)))
        out[p, s, t] = tier_invariants(x)
    return out


def run_box(mb, op: Op):
    a, b = op.args
    x = mb.box_product(a, b)
    axioms = mb.check_axioms(x)
    exact = mb.isotropy_sequence(x).exact
    unit_ok = mb.is_mackey_isomorphism(mb.unit_isomorphism(a))
    return x, axioms, exact, unit_ok


def check_box(op: Op, out, expect) -> tuple[list[str], tuple]:
    x, axioms, exact, unit_ok = out
    p, s, t = op.expect["shape"]
    problems = []
    top, bottom = tier_invariants(x)
    if (top, bottom) != expect[p, s, t]:
        problems.append(f"tier invariants {top}, {bottom} differ from the canonical product's {expect[p, s, t]}")
    n = (s[0] + p * s[1]) * (t[0] + p * t[1])
    if bottom != (n, ()):
        problems.append(f"bottom is {bottom}, not free of rank |S||T| = {n}")
    if top[0] != x.top.ngens - oracles.rational_rank(_rows(x.top.relations)):
        problems.append("top free rank disagrees with rational elimination")
    if axioms != ():
        problems.append(f"check_axioms reported {axioms}")
    if not exact:
        problems.append("isotropy sequence not exact")
    if not unit_ok:
        problems.append("unit isomorphism failed verification")
    return problems, functor_size(x)


# -- invert_large_p ------------------------------------------------------------


def _unit_twist(rng: random.Random, p: int, hi: int) -> int:
    """A twist in [1, hi) that is prime to p."""
    while True:
        d = rng.randrange(1, hi)
        if d % p:
            return d


def invert_decks(mb, seed: int, ndecks: int) -> list[list[Op]]:
    """INVERT_DECK with seeded twists: "unit" is prime to p, "multiple" is a
    multiple of p, "constant" is constant_z; each in a seeded presentation."""
    rng = random.Random(f"invert_large_p:{seed}")
    decks = []
    for _ in range(ndecks):
        deck = []
        for p, kind in INVERT_DECK:
            if kind == "constant":
                d, base = None, mb.constant_z(p)
            else:
                d = _unit_twist(rng, p, 3 * p) if kind == "unit" else p * rng.randint(0, 2)
                base = mb.twisted_burnside(p, d)
            m = rebase(mb, base, shear(base.top.ngens, 2, rng), shear(1, 0, rng))
            label = f"p={p} " + ("constant_z" if d is None else f"d={d}")
            deck.append(Op("invert", label, (m,), {"p": p, "d": d}, functor_size(m)))
        rng.shuffle(deck)
        decks.append(deck)
    return decks


def run_invert(mb, op: Op):
    (m,) = op.args
    return mb.classify_invertible(m), mb.invert(m)


def check_invert(op: Op, out, _expect) -> tuple[list[str], tuple]:
    result, inv = out
    p, d = op.expect["p"], op.expect["d"]
    invertible = d is not None and d % p != 0
    problems = []
    if result.invertible != invertible or (inv is not None) != invertible:
        problems.append(f"invertible={result.invertible}, inverse={inv is not None}; expected {invertible}")
    size = (0, 0, 0)
    if invertible and not problems:
        if result.d_class != oracles.twist_class(d, p):
            problems.append(f"d_class {result.d_class} != {oracles.twist_class(d, p)}")
        inverse, _cert = inv
        x = inverse.res.matrix.entries[0]
        if not oracles.is_inverse_twist(d, x, p):
            problems.append(f"inverse twist {x} does not invert {d} mod {p}")
        size = functor_size(inverse)
    return problems, size


# -- cli_docs ------------------------------------------------------------------


def cli_docs_decks(mb, seed: int, ndecks: int, workdir: Path) -> list[list[Op]]:
    """Documents and commands; half the documents are canonical, half sheared.

    A sheared document re-presents each tier by as many elementary shears
    (coefficients +-1, +-2) as the tier has generators, as a hand-written
    presentation would.  A deck is 27 single commands and 6 three-stage
    pipelines, so the pipelines fill the top fifth of the sorted latencies
    and the 90th percentile falls in their middle.
    """
    rng = random.Random(f"cli_docs:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    counter = [0]

    def doc(m, sheared: bool):
        if sheared:
            m = rebase(mb, m, shear(m.top.ngens, m.top.ngens, rng), shear(m.bottom.ngens, m.bottom.ngens, rng))
        counter[0] += 1
        path = workdir / f"d{counter[0]:05d}.mk"
        path.write_text(mb.render_lewis(m), encoding="utf-8")
        return {"path": str(path), "size": functor_size(m)}

    def op(kind, label, stages, docs, **expect):
        size = _sum_sizes(*(d["size"] for d in docs)) if docs else (0, 0, 0)
        return Op(kind, label, tuple(stages), expect, size)

    def how(sheared):
        return "sheared" if sheared else "canonical"

    decks = []
    for _ in range(ndecks):
        deck = []
        for p in CLI_TWIST_PRIMES:
            d = _unit_twist(rng, p, 2 * p)
            deck.append(op("make|invert|classify", f"p={p} d={d}",
                           [["make", "twisted", "--p", str(p), "--twist", str(d)], ["invert", "-"], ["classify", "-"]],
                           [], codes=[0, 0, 0], p=p, inverse_of=d))
            d = _unit_twist(rng, p, 2 * p)
            a = doc(mb.twisted_burnside(p, d), True)
            deck.append(op("invert|invert|classify", f"sheared p={p} d={d}",
                           [["invert", a["path"]], ["invert", "-"], ["classify", "-"]], [a],
                           codes=[0, 0, 0], d_class=oracles.twist_class(d, p)))
            d = _unit_twist(rng, p, 2 * p)
            a = doc(mb.twisted_burnside(p, d), p != 5)
            deck.append(op("classify", f"{how(p != 5)} p={p} d={d}", [["classify", a["path"]]], [a],
                           codes=[0], d_class=oracles.twist_class(d, p)))
            d = _unit_twist(rng, p, 2 * p)
            a, b = doc(mb.twisted_burnside(p, d), False), doc(mb.twisted_burnside(p, d + p), False)
            deck.append(op("iso", f"p={p} twists {d}, {d + p}", [["iso", a["path"], b["path"], "--bound", "2"]],
                           [a, b], codes=[0], status="found"))
        a = doc(mb.twisted_burnside(5, 10), True)
        deck.append(op("classify", "sheared p=5 d=10", [["classify", a["path"]]], [a],
                       codes=[1], verdict="not-invertible"))
        for p in CLI_PERM_PRIMES:
            for g in GSETS:
                m = mb.permutation_functor(p, mb.GSet(*g))
                sheared = g != (1, 0) if p == 2 else g == (1, 0)
                a = doc(m, sheared)
                deck.append(op("check", f"{how(sheared)} perm p={p} {g}", [["check", a["path"]]], [a],
                               codes=[0], status="pass"))
                a = doc(m, not sheared)
                deck.append(op("classify", f"{how(not sheared)} perm p={p} {g}", [["classify", a["path"]]], [a],
                               codes=[1], verdict="not-invertible"))
        m = mb.permutation_functor(3, mb.GSet(1, 1))
        for cmd, sheared in (("gamma", True), ("phi", False), ("gamma", False), ("phi", True)):
            a = doc(m, sheared)
            deck.append(op(cmd, f"{how(sheared)} perm p=3 (1, 1)", [[cmd, a["path"]]], [a],
                           codes=[0], parts=(cmd, 3, (1, 1))))
        m = mb.permutation_functor(3, mb.GSet(0, 1))
        for sheared in (False, True):
            a, b = doc(m, sheared), doc(m, True)
            deck.append(op("box", f"perm p=3 (0, 1) {how(sheared)} x sheared", [["box", a["path"], b["path"]]],
                           [a, b], codes=[0], parts=("box", 3, (0, 1), (0, 1))))
            a, b = doc(m, True), doc(m, sheared)
            deck.append(op("box --format text", f"perm p=3 (0, 1) sheared x {how(sheared)}",
                           [["box", a["path"], b["path"], "--format", "text"]], [a, b],
                           codes=[0], names=("box", 3, (0, 1), (0, 1))))
        rng.shuffle(deck)
        decks.append(deck)
    return decks


def cli_docs_expect(mb) -> dict:
    """Tier invariants of the canonical gamma/phi parts and boxes."""
    out = {}
    m = mb.permutation_functor(3, mb.GSet(1, 1))
    out["gamma", 3, (1, 1)] = tier_invariants(mb.gamma_functor(m)[0])
    out["phi", 3, (1, 1)] = tier_invariants(mb.phi_functor(m)[0])
    a = mb.permutation_functor(3, mb.GSet(0, 1))
    out["box", 3, (0, 1), (0, 1)] = tier_invariants(mb.box_product(a, a))
    return out


@dataclass
class StageResult:
    code: int | None  # None: killed at the deadline
    stdout: str
    stderr: str
    seconds: float


def run_pipeline(argv_prefix, stages, env: dict, deadline: float, clock) -> list[StageResult]:
    """Run stages one after another, each fed the previous stage's stdout.

    At most one child runs at a time; the whole pipeline shares one deadline.
    """
    results = []
    data = ""
    start = clock()
    for i, args in enumerate(stages):
        left = deadline - (clock() - start)
        t0 = clock()
        try:
            proc = subprocess.run(argv_prefix(i) + list(args), input=data, capture_output=True,
                                  text=True, env=env, timeout=max(left, 0.001))
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            results.append(StageResult(None, "", "", clock() - t0))
            break
        results.append(StageResult(proc.returncode, proc.stdout, proc.stderr, clock() - t0))
        data = proc.stdout
    return results


def check_cli(mb, op: Op, out: list[StageResult], expect) -> tuple[list[str], tuple]:
    e = op.expect
    if any(r.code is None for r in out):
        return ["missed the deadline"], (0, 0, 0)
    codes = [r.code for r in out]
    if codes != e["codes"]:
        tail = out[-1].stderr.strip().splitlines()[-1:] if out else []
        return [f"exit codes {codes}, expected {e['codes']} {tail}"], (0, 0, 0)
    text = out[-1].stdout
    f = oracles.fields(text)
    problems = []
    size = (0, 0, 0)
    if "inverse_of" in e:
        d_class = f.get("d_class", "")
        if f.get("verdict") != "twisted-burnside" or not d_class.isdigit():
            problems.append(f"classify said {f}, expected an invertible verdict")
        elif not oracles.is_inverse_twist(e["inverse_of"], int(d_class), e["p"]):
            problems.append(f"d_class {d_class} does not invert {e['inverse_of']} mod {e['p']}")
    if "d_class" in e and (f.get("verdict") != "twisted-burnside" or f.get("d_class") != str(e["d_class"])):
        problems.append(f"classify said {f}, expected d_class {e['d_class']}")
    if "verdict" in e and f.get("verdict") != e["verdict"]:
        problems.append(f"verdict {f.get('verdict')}, expected {e['verdict']}")
    if "status" in e and f.get("status") != e["status"]:
        problems.append(f"status {f.get('status')}, expected {e['status']}")
    if "parts" in e:
        try:
            m = mb.parse_functor(text)
        except ValueError as exc:
            return [f"output does not re-parse: {exc}"], size
        size = functor_size(m)
        if tier_invariants(m) != expect[e["parts"]]:
            problems.append(f"tier invariants {tier_invariants(m)} != {expect[e['parts']]}")
    if "names" in e:
        lines = text.splitlines()
        top, bottom = (oracles.group_name(x) for x in expect[e["names"]])
        if len(lines) < 5 or (lines[0], lines[4]) != (top, bottom):
            problems.append(f"diagram names {lines[:5]}, expected {top} / {bottom}")
    return problems, size
