"""Facts memoised on the frozen objects they describe.

A group keeps its Smith decomposition and Hermite basis, an action its
order-p orbit, a functor its classification (its axioms are checked afresh
on every call), and the top map of Gamma's inclusion the decomposition of
the transfer it shares a matrix and a target with.  Each memo must equal a
fresh recomputation on an equal copy built from scratch, must leave ``==``
and ``hash`` alone, and must spare the second reader the work.
"""

import gc
import random
import tracemalloc

import pytest

from mackeybox import abgroup, cli, mackey, separation
from mackeybox.cli import run
from mackeybox.document import render_machine
from mackeybox.intlin import IntMatrix, smith_normal_form
from mackeybox.abgroup import AbHom, FpAbGroup
from mackeybox.mackey import MackeyFunctor, check_axioms, constant_z, twisted_burnside
from mackeybox.separation import classify_invertible, gamma_functor, invert

from helpers import PRIMES, pad_functor, preimage_gens, random_functor


def fresh_copy(m: MackeyFunctor) -> MackeyFunctor:
    """An equal functor that shares no group, map or memo with m."""
    top = FpAbGroup(m.top.ngens, m.top.relations)
    bottom = FpAbGroup(m.bottom.ngens, m.bottom.relations)
    return MackeyFunctor(
        m.p,
        top,
        bottom,
        AbHom(bottom, bottom, m.gamma.matrix),
        AbHom(top, bottom, m.res.matrix),
        AbHom(bottom, top, m.tr.matrix),
    )


def fill_memos(m: MackeyFunctor) -> None:
    if not check_axioms(m):
        classify_invertible(m)
    m.top.smith, m.bottom.smith
    m.gamma.orbit(m.p)


def test_memos_equal_a_fresh_recomputation():
    rng = random.Random(20)
    for _ in range(120):
        p = rng.choice(PRIMES)
        m = random_functor(rng, p)
        fill_memos(m)
        fill_memos(m)  # the second pass reads the memos
        copy = fresh_copy(m)
        assert copy == m and copy is not m
        assert check_axioms(m) == check_axioms(copy)
        if not check_axioms(m):
            assert m._memo["classification"] == separation._classify(copy)
        for g, fresh in ((m.top, copy.top), (m.bottom, copy.bottom)):
            assert g.smith == smith_normal_form(fresh.relations)
        power, norm = m.gamma.orbit(p)
        fresh_power, fresh_norm = copy.gamma._orbit(p)
        assert power.matrix == fresh_power.matrix and norm.matrix == fresh_norm.matrix


def test_a_filled_memo_leaves_equality_and_hash_unchanged():
    rng = random.Random(21)
    for _ in range(60):
        m = random_functor(rng, rng.choice(PRIMES))
        before = (hash(m), hash(m.top), hash(m.bottom), hash(m.gamma), repr(m))
        fill_memos(m)
        assert (hash(m), hash(m.top), hash(m.bottom), hash(m.gamma), repr(m)) == before
        copy = fresh_copy(m)
        assert m == copy and copy == m and hash(copy) == before[0]
        assert m.top == copy.top and m.gamma == copy.gamma


def count_calls(monkeypatch, name, *modules):
    """Replace name, in each module that imports it by name, by one wrapper
    counting calls per first argument."""
    counts = {}
    original = getattr(modules[0], name)

    def counting(x, *args):
        counts[id(x)] = counts.get(id(x), 0) + 1
        return original(x, *args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return counts


@pytest.mark.parametrize("p, d", [(5, 2), (101, 7), (10007, 3)])
def test_classify_then_invert_checks_each_functor_once(monkeypatch, p, d):
    """The input is checked once and classified once; the product with its
    inverse is neither, since the verified certificate onto burnside(p)
    carries the axioms over to it (each was checked and classified once
    before)."""
    axioms = count_calls(monkeypatch, "check_axioms", mackey, separation, cli)
    classified = count_calls(monkeypatch, "_classify", separation)
    m = twisted_burnside(p, d)
    assert classify_invertible(m).invertible
    assert invert(m) is not None
    assert classify_invertible(m).invertible
    assert axioms == {id(m): 1}
    assert classified == {id(m): 1}


def test_the_classification_memo_keeps_five_integers_per_functor():
    """An invertible functor's classification memo holds the verdict and
    ``(d, t1, t2, a, b)``, not a builder closed over the tiers' projections:
    ``invert`` reads those again from the tiers' memoised Smith forms.  Read
    by tracemalloc over these 300 classified functors on CPython 3.11, each
    retains 4,950 bytes, 280 of them in the memo, against 5,910 and 1,250
    with the builder; both bounds sit between the two."""
    rng = random.Random(24)
    functors = [pad_functor(twisted_burnside(p, d), rng) for p in (101, 1009, 10007) for d in range(1, 101)]
    gc.collect()
    tracemalloc.start()
    try:
        for m in functors:
            assert classify_invertible(m).invertible
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
        for m in functors:
            del m._memo["classification"]
        gc.collect()
        in_memo = retained - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert in_memo / len(functors) < 600 and in_memo < retained / 10


def test_cli_invert_of_a_non_invertible_functor_classifies_once(monkeypatch, tmp_path, capsys):
    """``invert`` checks the axioms as it loads the document, tries to invert,
    then reads the reason: two axiom checks (the load's and the
    classification's, since the verdict is not memoised) and one
    classification."""
    axioms = count_calls(monkeypatch, "check_axioms", mackey, separation, cli)
    classified = count_calls(monkeypatch, "_classify", separation)
    path = tmp_path / "c.mk"
    path.write_text(render_machine(constant_z(3)))
    assert run(["invert", str(path)]) == 1
    assert "not invertible: top-not-rank-2" in capsys.readouterr().err
    assert list(axioms.values()) == [2]
    assert list(classified.values()) == [1]


def test_orbit_of_the_identity_needs_no_product(monkeypatch):
    calls = []
    original = IntMatrix.__matmul__
    monkeypatch.setattr(IntMatrix, "__matmul__", lambda a, b: calls.append(1) or original(a, b))
    g = FpAbGroup(2, IntMatrix.from_columns([(4, 0)], rows=2))
    power, norm = AbHom.identity(g).orbit(1000000007)
    assert calls == []
    assert power.matrix == IntMatrix.identity(2)
    assert norm.matrix == IntMatrix.identity(2).scaled(1000000007)



def test_a_group_without_relations_needs_no_elimination(monkeypatch):
    monkeypatch.setattr(abgroup, "smith_normal_form", None)  # any elimination would fail
    g = FpAbGroup.free(3)
    assert abgroup.invariant_factors(g) == (3, ())
    assert g.contains_all(IntMatrix.column_vector((0, 0, 0)))
    assert not g.contains_all(IntMatrix.column_vector((0, 1, 0)))
    assert AbHom.identity(g).equals(AbHom(g, g, IntMatrix.identity(3)))


def test_hom_memos_equal_a_fresh_recomputation_and_leave_hash_alone():
    rng = random.Random(22)
    for _ in range(80):
        m = random_functor(rng, rng.choice(PRIMES))
        f = m.tr
        before = (hash(f), repr(f))
        f.is_surjective(), f.kernel_lattice
        assert (hash(f), repr(f)) == before
        copy = fresh_copy(m).tr
        assert f == copy and hash(f) == hash(copy)
        assert f.smith == smith_normal_form(copy.matrix.hstack(copy.target.relations))
        assert f.kernel_lattice == preimage_gens(copy.matrix, copy.target.relations)


def test_a_map_answers_its_questions_from_one_elimination(monkeypatch):
    """Surjectivity, the kernel lattice, image membership and bijectivity
    (``abgroup._bijective``) all read the map's one decomposition (a free
    source needs none of its own)."""
    calls = []
    original = abgroup.smith_normal_form
    monkeypatch.setattr(abgroup, "smith_normal_form", lambda *a, **k: calls.append(a[0]) or original(*a, **k))
    z4 = FpAbGroup.cyclic(4)
    f = AbHom(FpAbGroup.free(2), z4, IntMatrix.from_rows([[2, 6]]))
    for _ in range(2):
        assert not f.is_surjective()
        assert f.kernel_lattice == preimage_gens(f.matrix, z4.relations)
        assert f.smith.contains_all(IntMatrix.from_rows([[2]]))
        assert not (f.is_well_defined() and abgroup._bijective(f))
    assert calls == [f.matrix.hstack(z4.relations)]


def test_the_inclusion_of_gamma_reads_the_transfers_decomposition():
    rng = random.Random(23)
    for _ in range(80):
        m = random_functor(rng, rng.choice(PRIMES))
        part, inclusion = gamma_functor(m)
        f = inclusion.phi_top
        assert (f.source, f.target, f.matrix) == (part.top, m.top, m.tr.matrix)
        assert f.smith is m.tr.smith
        fresh = AbHom(FpAbGroup(part.top.ngens, part.top.relations), fresh_copy(m).top, f.matrix)
        assert f == fresh and hash(f) == hash(fresh)
        assert f.smith == smith_normal_form(fresh.matrix.hstack(fresh.target.relations))
        assert f.kernel_lattice == preimage_gens(fresh.matrix, fresh.target.relations)
        assert fresh.source.contains_all(f.kernel_lattice)  # injective


def test_a_relation_free_top_is_checked_without_its_smith_form(tmp_path, capsys):
    """5,000 free top generators over a zero bottom: no membership question
    builds the top's 5,000 x 5,000 identity U."""
    top, bottom = FpAbGroup.free(5000), FpAbGroup.free(0)
    m = MackeyFunctor(2, top, bottom, AbHom.identity(bottom), AbHom.zero(top, bottom), AbHom.zero(bottom, top))
    assert check_axioms(m) == ()
    assert "smith" not in top.__dict__
    assert classify_invertible(m).reason == "bottom-not-Z"
    assert "smith" not in top.__dict__
    path = tmp_path / "free.mk"
    path.write_text(render_machine(m))
    assert run(["check", str(path)]) == 0
    assert capsys.readouterr().out == "status: pass\n"


def test_gamma_of_a_relation_free_top_builds_no_u(tmp_path, capsys):
    """5,000 free top generators, over a zero bottom and over Z with a
    one-column transfer: Gamma reads the transfer's kernel, so the 5,000 x
    5,000 U of ``[tr | relations]`` is never built."""
    top = FpAbGroup.free(5000)
    zero, z = FpAbGroup.free(0), FpAbGroup.free(1)
    res = IntMatrix(1, 5000, (2,) + (0,) * 4999)
    tr = IntMatrix(5000, 1, (1,) + (0,) * 4999)
    functors = (
        MackeyFunctor(2, top, zero, AbHom.identity(zero), AbHom.zero(top, zero), AbHom.zero(zero, top)),
        MackeyFunctor(2, top, z, AbHom.identity(z), AbHom(top, z, res), AbHom(z, top, tr)),
    )
    for i, m in enumerate(functors):
        assert check_axioms(m) == ()
        part, _ = gamma_functor(m)
        assert part.top.ngens == m.bottom.ngens
        assert "u" not in m.tr.smith.__dict__
        path = tmp_path / f"free{i}.mk"
        path.write_text(render_machine(m))
        assert run(["gamma", str(path)]) == 0
        assert capsys.readouterr().out == render_machine(part)
