"""Each linear system is eliminated once.

A caller that needs a particular solution and the kernel of one system (the
fixed points, the isomorphism search) reads both from one Smith
decomposition, and the classification takes its sections from a Smith form
of each projection, not by inverting a tier's U.  Every elimination goes
through ``intlin._smith``; the counts below are pinned by wrapping it, so a
change that eliminates a system twice fails here.
"""

import random

import pytest

from mackeybox import abgroup, intlin, separation
from mackeybox.intlin import IntMatrix
from mackeybox.mackey import GSet, permutation_functor, twisted_burnside

from helpers import pad_functor


@pytest.fixture
def eliminated(monkeypatch):
    """The matrices handed to ``_smith`` (``abgroup`` imports it by name)."""
    inputs = []
    original = intlin._smith

    def recording(a, want_u=True, want_v=True):
        inputs.append(a)
        return original(a, want_u, want_v)

    for module in (intlin, abgroup):
        monkeypatch.setattr(module, "_smith", recording)
    return inputs


def test_a_permutation_functor_takes_two_eliminations(eliminated):
    """The kernel lattice of gamma - 1, then one Smith form of [basis |
    relations] for both the top's relations and the transfer (three before
    the kernel and the transfer shared one)."""
    for p in (2, 3, 5):
        for s in (GSet(1, 0), GSet(0, 1), GSet(1, 1)):
            permutation_functor(p, s)
    assert len(eliminated) == 18


def test_isomorphism_search_eliminates_each_system_once(eliminated):
    """One Smith form per lattice-coset walk gives its point and its
    lattice, plus one per candidate tier map tested for bijectivity (80
    before the walks solved and took the kernel separately)."""
    for p in (3, 5, 7):
        for c, d in ((2, 3), (1, 2), (2, 2 + p)):
            separation.try_find_isomorphism(twisted_burnside(p, c), twisted_burnside(p, d), 2)
    assert len(eliminated) == 60


@pytest.mark.parametrize("p, d", [(3, 2), (5, 2), (7, 3), (3, 6)])
def test_classification_never_eliminates_a_tier_transform(eliminated, p, d):
    """Sections come from a Smith form of each ``rank x ngens`` projection:
    no square matrix of a tier's size is eliminated, and neither tier's U."""
    m = pad_functor(pad_functor(twisted_burnside(p, d), random.Random(3)), random.Random(4))
    result, _ = separation._classify(m)
    assert result.invertible == (d % p != 0)
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
