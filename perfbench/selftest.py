"""Self-tests for the benchmark: ``python3 perfbench/selftest.py``.

They check the benchmark's own machinery (input generation, self time,
oracles, tracer install/restore), not the program's speed.
"""

from __future__ import annotations

import random
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mackeybox as mb  # noqa: E402

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def _fingerprint(decks) -> list:
    """Everything the program would receive, as comparable text."""
    return [(op.kind, op.label, repr(op.args)) for deck in decks for op in deck]


def _cli_inputs(seed: int) -> list:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        decks = wl.cli_docs_decks(mb, seed, 2, root)
        docs = sorted((p.name, p.read_bytes()) for p in root.iterdir())
        stages = [[a.replace(tmp, "") for a in stage] for deck in decks for op in deck for stage in op.args]
    return [docs, stages]


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for gen in (wl.box_perm_decks, wl.invert_decks):
            a, b, c = (_fingerprint(gen(mb, s, 2)) for s in (5, 5, 6))
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)
        a, b, c = (_cli_inputs(s) for s in (5, 5, 6))
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_rebased_functors_satisfy_the_axioms(self):
        for deck in wl.invert_decks(mb, 1, 1)[:1]:
            for op in deck[:8]:
                self.assertEqual(mb.check_axioms(op.args[0]), ())
        for op in wl.box_perm_decks(mb, 1, 1)[0][:10]:
            for m in op.args:
                self.assertEqual(mb.check_axioms(m), ())


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 10] with children [1, 4] (tail 0.5) and [5, 9];
        # the second child has a grandchild [6, 8]
        spans = [
            [0, 0.0, 10.0, -1, 0.0],
            [1, 1.0, 4.0, 0, 0.5],
            [2, 5.0, 9.0, 0, 0.0],
            [3, 6.0, 8.0, 2, 0.0],
        ]
        self.assertEqual(tracer.self_times(spans), [10 - 3.5 - 4, 3.0, 2.0, 2.0])

    def test_merge_sums_counts_and_takes_max_of_sizes(self):
        total = {"intlin.snf.calls": 2, "intlin.snf.max_dim": 7}
        tracer.merge(total, {"intlin.snf.calls": 3, "intlin.snf.max_dim": 4})
        self.assertEqual(total, {"intlin.snf.calls": 5, "intlin.snf.max_dim": 7})


class Oracles(unittest.TestCase):
    def test_smith_diagonal_and_rank_against_brute_force(self):
        rng = random.Random(3)
        for _ in range(60):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
            fractions = [[Fraction(x) for x in r] for r in rows]
            rank = 0
            for c in range(n):  # Gaussian elimination over Q
                piv = next((i for i in range(rank, m) if fractions[i][c]), None)
                if piv is None:
                    continue
                fractions[rank], fractions[piv] = fractions[piv], fractions[rank]
                for i in range(m):
                    if i != rank and fractions[i][c]:
                        f = fractions[i][c] / fractions[rank][c]
                        fractions[i] = [a - f * b for a, b in zip(fractions[i], fractions[rank])]
                rank += 1
            self.assertEqual(oracles.rational_rank(rows), rank)
            mat = mb.IntMatrix.from_rows(rows, cols=n)
            expected = [d for d in mb.smith_normal_form(mat).diagonal() if d]
            self.assertEqual(oracles.smith_diagonal(rows), expected)

    def test_box_oracle_rejects_a_wrong_invariant(self):
        op = wl.box_perm_decks(mb, 2, 1)[0][0]
        expect = wl.box_perm_expect(mb)
        out = wl.run_box(mb, op)
        self.assertEqual(wl.check_box(op, out, expect)[0], [])
        p, s, t = op.expect["shape"]
        (free, torsion), bottom = expect[p, s, t]
        wrong = dict(expect)
        wrong[p, s, t] = ((free, torsion + (2,)), bottom)
        self.assertTrue(wl.check_box(op, out, wrong)[0])
        self.assertTrue(wl.check_box(op, (out[0], ("axiom",), True, True), expect)[0])

    def test_invert_oracle_rejects_an_off_by_one_class(self):
        op = next(op for op in wl.invert_decks(mb, 2, 1)[0]
                  if op.expect["d"] is not None and op.expect["d"] % op.expect["p"] and op.expect["p"] < 500)
        result, inverse = wl.run_invert(mb, op)
        self.assertEqual(wl.check_invert(op, (result, inverse), {})[0], [])
        shifted = mb.ClassificationResult(True, d_class=result.d_class + 1, sign_ambiguous=True)
        self.assertTrue(wl.check_invert(op, (shifted, inverse), {})[0])
        self.assertTrue(wl.check_invert(op, (result, None), {})[0])

    def test_cli_oracle_rejects_a_wrong_exit_code(self):
        with tempfile.TemporaryDirectory() as tmp:
            deck = wl.cli_docs_decks(mb, 2, 1, Path(tmp))[0]
        op = next(op for op in deck if op.kind == "classify" and op.expect["codes"] == [0])
        good = wl.StageResult(0, f"verdict: twisted-burnside\nd_class: {op.expect['d_class']}\n", "", 0.1)
        self.assertEqual(wl.check_cli(mb, op, [good], {})[0], [])
        self.assertTrue(wl.check_cli(mb, op, [wl.StageResult(1, good.stdout, "", 0.1)], {})[0])
        self.assertTrue(wl.check_cli(mb, op, [wl.StageResult(None, "", "", 20.0)], {})[0])


class Tracing(unittest.TestCase):
    def _holders(self):
        """(owner, attribute, object) for every target, wherever it is held."""
        out = []
        for mod in [m for n, m in sys.modules.items() if n == "mackeybox" or n.startswith("mackeybox.")]:
            for name, value in vars(mod).items():
                out.append((mod, name, value))
        for cls in (mb.IntMatrix, mb.AbHom):
            for name, value in vars(cls).items():
                out.append((cls, name, value))
        return out

    def test_install_counts_and_restore_puts_everything_back(self):
        before = self._holders()
        original = mb.box_product
        tr = tracer.Tracer()
        tr.install()
        try:
            self.assertIsNot(mb.box_product, original)
            self.assertIsNot(mb.separation.box_product, original)
            m = mb.twisted_burnside(5, 2)
            mb.invert(m)
            mb.try_find_isomorphism(m, mb.twisted_burnside(5, 7), 2)
            tr.end_op()
        finally:
            tr.restore()
        after = self._holders()
        self.assertEqual(len(before), len(after))
        for (o1, n1, v1), (o2, n2, v2) in zip(before, after):
            self.assertIs(v1, v2, f"{o1}.{n1} not restored")
        t = tracer.layer_metrics(tr.totals)
        self.assertGreater(t["separation.invert.calls"], 0)
        self.assertGreater(t["intlin.snf.calls"], 0)
        self.assertGreater(t["separation.iso.candidates"], 0)
        self.assertLessEqual(t["intlin.snf.distinct"], t["intlin.snf.calls"])

    def test_traced_counts_repeat_exactly(self):
        def counts():
            tr = tracer.Tracer()
            tr.install()
            try:
                mb.check_axioms(mb.box_product(mb.burnside(3), mb.constant_z(3)))
                tr.end_op()
            finally:
                tr.restore()
            return {k: v for k, v in tr.totals.items() if not k.endswith("_s")}

        self.assertEqual(counts(), counts())


if __name__ == "__main__":
    unittest.main()
