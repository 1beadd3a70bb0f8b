"""Command-line interface: exit codes, formats, pipelines, error paths."""

import io
import shutil
import subprocess
import sys

import pytest

from mackeybox import cli as cli_module
from mackeybox.cli import run
from mackeybox.document import parse_functor, render_machine
from mackeybox.abgroup import AbHom, FpAbGroup
from mackeybox.intlin import IntMatrix
from mackeybox.mackey import (
    GSet,
    burnside,
    constant_z,
    orbit_functor,
    permutation_functor,
    twisted_burnside,
)


BROKEN = """\
p: 2
top.generators: 1
top.relations: []
bottom.generators: 1
bottom.relations: []
action: [[1]]
res: [[1]]
tr: [[1]]
"""

ILL_DEFINED = """\
p: 2
top.generators: 1
top.relations: [[4]]
bottom.generators: 1
bottom.relations: [[2]]
action: [[1]]
res: [[1]]
tr: [[1]]
"""

# an action of order 2 at p = 5, with the twisted Burnside res and tr
ORDER_TWO_AT_FIVE = """\
p: 5
top.generators: 2
top.relations: []
bottom.generators: 1
bottom.relations: []
action: [[2]]
res: [[1, 5]]
tr: [[0], [1]]
"""


def cli(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = run(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- make -----------------------------------------------------------------------


def test_make_standard_functors(capsys):
    code, out, _ = cli(["make", "burnside", "--p", "2"], capsys)
    assert code == 0
    assert parse_functor(out) == burnside(2)

    code, out, _ = cli(["make", "constant", "--p", "3"], capsys)
    assert code == 0
    assert parse_functor(out) == constant_z(3)

    code, out, _ = cli(["make", "twisted", "--p", "5", "--twist", "-3"], capsys)
    assert code == 0
    assert parse_functor(out) == twisted_burnside(5, -3)

    code, out, _ = cli(["make", "permutation", "--p", "2", "--fixed", "1", "--free", "2"], capsys)
    assert code == 0
    assert parse_functor(out) == permutation_functor(2, GSet(1, 2))


def test_make_twisted_requires_twist(capsys):
    code, _, err = cli(["make", "twisted", "--p", "5"], capsys)
    assert code == 2
    assert "--twist" in err


def test_make_rejects_non_prime(capsys):
    code, _, err = cli(["make", "burnside", "--p", "4"], capsys)
    assert code == 2
    assert "prime" in err


def test_make_permutation_refuses_a_size_above_the_bound_at_once(capsys):
    """n = fixed + p * free generators above the bound is an input error,
    decided before anything is built: a huge --free returns at once."""
    bound = cli_module._MAX_GENERATORS
    for fixed, free in ((1, bound // 2), (0, 10**30)):
        code, out, err = cli(
            ["make", "permutation", "--p", "2", "--fixed", str(fixed), "--free", str(free)], capsys
        )
        assert (code, out) == (2, "")
        n = fixed + 2 * free
        assert err == f"mackeybox: make permutation: {n} generators exceed the bound {bound}\n"


def test_make_permutation_builds_a_size_at_the_bound(capsys, monkeypatch):
    bound = cli_module._MAX_GENERATORS
    built = []

    def record(p, s):  # stands in for the build, which takes seconds at the bound
        built.append((p, s))
        return constant_z(p)

    monkeypatch.setattr(cli_module, "permutation_functor", record)
    code, out, _ = cli(["make", "permutation", "--p", "2", "--free", str(bound // 2)], capsys)
    assert (code, built) == (0, [(2, GSet(0, bound // 2))])
    assert parse_functor(out) == constant_z(2)


def test_large_primes(capsys, monkeypatch):
    code, doc, _ = cli(["make", "burnside", "--p", "1000000007"], capsys)
    assert code == 0
    code, out, _ = cli(["invert"], capsys, monkeypatch, stdin_text=doc)
    assert code == 0
    assert parse_functor(out) == burnside(1000000007)
    code, _, _ = cli(["make", "burnside", "--p", "1000000000000000003"], capsys)
    assert code == 0
    code, _, err = cli(["make", "burnside", "--p", "3317044064679887385961981"], capsys)
    assert code == 2
    assert "decided only below 3317044064679887385961981" in err
    code, _, err = cli(["check"], capsys, monkeypatch,
                       stdin_text=doc.replace("p: 1000000007", "p: 10000000000000000000000000"))
    assert code == 2
    assert "decided only below" in err


def test_make_text_format(capsys):
    code, out, _ = cli(["make", "burnside", "--p", "2", "--format", "text"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "Z^2"
    assert "res: [[1, 2]]" in out


# -- check ----------------------------------------------------------------------


def test_check_pass(capsys, monkeypatch):
    doc = render_machine(burnside(3))
    code, out, _ = cli(["check"], capsys, monkeypatch, stdin_text=doc)
    assert code == 0
    assert "status: pass" in out


def test_check_fail_names_the_axiom(capsys, monkeypatch):
    code, out, _ = cli(["check", "-"], capsys, monkeypatch, stdin_text=BROKEN)
    assert code == 1
    assert "status: fail" in out
    assert "violation: res of a transfer differs from the action norm" in out


def test_check_text_format(capsys, monkeypatch):
    code, out, _ = cli(["check", "--format", "text"], capsys, monkeypatch, stdin_text=BROKEN)
    assert code == 1
    assert "axiom violated: res of a transfer differs from the action norm" in out


def test_check_ill_defined_is_input_error(capsys, monkeypatch):
    code, _, err = cli(["check"], capsys, monkeypatch, stdin_text=ILL_DEFINED)
    assert code == 2
    assert "ill-defined error" in err


def test_check_torsion_action_at_a_large_prime(capsys, monkeypatch):
    """Z/5 with the action [[6]] has order p only modulo the relations; its
    orbit is reduced modulo them, so the check stays small at p near 10^9."""
    z5 = FpAbGroup.cyclic(5)
    m = orbit_functor(1000000007, z5, AbHom(z5, z5, IntMatrix.from_rows([[6]])))
    code, out, _ = cli(["check"], capsys, monkeypatch, stdin_text=render_machine(m))
    assert code == 0
    assert "status: pass" in out
    assert "res: [[2]]" in render_machine(m)  # the norm is 1000000007 ≡ 2 (mod 5)


def test_check_syntax_error(capsys, monkeypatch):
    code, _, err = cli(["check"], capsys, monkeypatch, stdin_text="p = 2\n")
    assert code == 2
    assert "syntax error" in err


def test_check_deeply_nested_matrix_is_syntax_error(capsys, monkeypatch):
    deep = BROKEN.replace("res: [[1]]", "res: " + "[" * 200000)
    code, _, err = cli(["check"], capsys, monkeypatch, stdin_text=deep)
    assert code == 2
    assert "syntax error" in err and "nested too deeply" in err


def test_check_nested_entry_error_is_short_and_located(capsys, monkeypatch):
    nested = "[" * 500 + "]" * 500
    doc = BROKEN.replace("action: [[1]]", "action: " + nested)
    code, _, err = cli(["check"], capsys, monkeypatch, stdin_text=doc)
    assert code == 2
    message = err.removeprefix("mackeybox: ")
    assert message.startswith("syntax error: line 6: field 'action' has a non-integer entry ")
    assert len(message) < 200


def test_check_non_prime(capsys, monkeypatch):
    doc = render_machine(burnside(2)).replace("p: 2", "p: 9")
    code, _, err = cli(["check"], capsys, monkeypatch, stdin_text=doc)
    assert code == 2
    assert "non-prime error" in err


def test_missing_file(capsys):
    code, _, err = cli(["check", "/nonexistent/functor.mk"], capsys)
    assert code == 2
    assert "No such file" in err


def test_file_argument(tmp_path, capsys):
    path = tmp_path / "b.mk"
    path.write_text(render_machine(burnside(5)))
    code, out, _ = cli(["check", str(path)], capsys)
    assert code == 0
    assert "status: pass" in out


# -- box ------------------------------------------------------------------------


def test_box_of_files(tmp_path, capsys):
    left = tmp_path / "l.mk"
    right = tmp_path / "r.mk"
    left.write_text(render_machine(twisted_burnside(5, 2)))
    right.write_text(render_machine(twisted_burnside(5, 3)))
    code, out, _ = cli(["box", str(left), str(right)], capsys)
    assert code == 0
    product = parse_functor(out)
    assert product.p == 5


def test_box_mismatched_primes(tmp_path, capsys):
    left = tmp_path / "l.mk"
    right = tmp_path / "r.mk"
    left.write_text(render_machine(burnside(2)))
    right.write_text(render_machine(burnside(3)))
    code, _, err = cli(["box", str(left), str(right)], capsys)
    assert code == 2
    assert "mismatched primes" in err


@pytest.mark.parametrize("doc", [BROKEN, ORDER_TWO_AT_FIVE], ids=["double-coset", "order-2"])
@pytest.mark.parametrize("command", ["box", "classify", "invert", "gamma", "phi", "iso"])
def test_every_command_rejects_a_document_that_violates_the_axioms(tmp_path, capsys, command, doc):
    """Exit 1 with the violated axioms on stderr and nothing on stdout, on
    either side of a two-document command."""
    bad, good = tmp_path / "bad.mk", tmp_path / "good.mk"
    bad.write_text(doc)
    good.write_text(render_machine(burnside(parse_functor(doc).p)))
    for files in ([bad, good], [good, bad]) if command in ("box", "iso") else ([bad],):
        code, out, err = cli([command, *map(str, files)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("mackeybox: axiom violated: ")


def test_an_input_error_wins_over_a_violated_axiom(tmp_path, capsys):
    """Every document is parsed before any is checked."""
    bad, ill = tmp_path / "bad.mk", tmp_path / "ill.mk"
    bad.write_text(BROKEN)
    ill.write_text(ILL_DEFINED)
    for command in ("box", "iso"):
        code, out, err = cli([command, str(bad), str(ill)], capsys)
        assert (code, out) == (2, "")
        assert "ill-defined error" in err


# -- classify / invert ------------------------------------------------------------


def test_classify_invertible_output(capsys, monkeypatch):
    doc = render_machine(twisted_burnside(5, 3))
    code, out, _ = cli(["classify"], capsys, monkeypatch, stdin_text=doc)
    assert code == 0
    assert "verdict: twisted-burnside" in out
    assert "d_class: 2" in out
    assert "sign_ambiguous: true" in out


def test_classify_not_invertible(capsys, monkeypatch):
    doc = render_machine(constant_z(3))
    code, out, _ = cli(["classify"], capsys, monkeypatch, stdin_text=doc)
    assert code == 1
    assert "verdict: not-invertible" in out
    assert "reason: top-not-rank-2" in out


def test_classify_reports_twist_found(capsys, monkeypatch):
    doc = render_machine(twisted_burnside(3, 6))
    code, out, _ = cli(["classify"], capsys, monkeypatch, stdin_text=doc)
    assert code == 1
    assert "reason: twist-not-coprime" in out
    assert "twist_found: 6" in out


def test_classify_text_format(capsys, monkeypatch):
    doc = render_machine(twisted_burnside(5, 3))
    code, out, _ = cli(["classify", "--format", "text"], capsys, monkeypatch, stdin_text=doc)
    assert code == 0
    assert out.strip() == "TwistedBurnside(d_class=2, sign_ambiguous=True)"


def test_classify_axiom_violation(capsys, monkeypatch):
    code, _, err = cli(["classify"], capsys, monkeypatch, stdin_text=BROKEN)
    assert code == 1
    assert "axiom violated" in err


def test_invert_emits_parseable_inverse(capsys, monkeypatch):
    doc = render_machine(twisted_burnside(5, 2))
    code, out, _ = cli(["invert"], capsys, monkeypatch, stdin_text=doc)
    assert code == 0
    assert parse_functor(out) == twisted_burnside(5, 3)


def test_invert_failure_goes_to_stderr(capsys, monkeypatch):
    doc = render_machine(constant_z(3))
    code, out, err = cli(["invert"], capsys, monkeypatch, stdin_text=doc)
    assert code == 1
    assert out == ""
    assert "not invertible: top-not-rank-2" in err


# -- gamma / phi -------------------------------------------------------------------


def test_gamma_output(capsys, monkeypatch):
    doc = render_machine(burnside(3))
    code, out, _ = cli(["gamma"], capsys, monkeypatch, stdin_text=doc)
    assert code == 0
    part = parse_functor(out)
    assert part.res.matrix.to_rows() == [[3]]
    assert part.tr.matrix.to_rows() == [[1]]


def test_phi_output(capsys, monkeypatch):
    doc = render_machine(burnside(3))
    code, out, _ = cli(["phi"], capsys, monkeypatch, stdin_text=doc)
    assert code == 0
    part = parse_functor(out)
    assert part.bottom.ngens == 0
    assert part.top.ngens >= 1


# -- iso ---------------------------------------------------------------------------


def test_iso_found(tmp_path, capsys):
    a = tmp_path / "a.mk"
    b = tmp_path / "b.mk"
    a.write_text(render_machine(twisted_burnside(3, 1)))
    b.write_text(render_machine(twisted_burnside(3, 4)))
    code, out, _ = cli(["iso", str(a), str(b), "--bound", "2"], capsys)
    assert code == 0
    assert "status: found" in out
    assert "phi_top:" in out
    assert "phi_bottom: [[" in out


def test_iso_not_isomorphic(tmp_path, capsys):
    a = tmp_path / "a.mk"
    b = tmp_path / "b.mk"
    a.write_text(render_machine(constant_z(2)))
    b.write_text(render_machine(burnside(2)))
    code, out, _ = cli(["iso", str(a), str(b)], capsys)
    assert code == 1
    assert "status: not-isomorphic" in out
    assert "invariant factors" in out


def test_iso_unknown(tmp_path, capsys):
    a = tmp_path / "a.mk"
    b = tmp_path / "b.mk"
    a.write_text(render_machine(twisted_burnside(5, 1)))
    b.write_text(render_machine(twisted_burnside(5, 2)))
    code, out, _ = cli(["iso", str(a), str(b), "--bound", "1"], capsys)
    assert code == 1
    assert "status: unknown" in out


def test_iso_text_format(tmp_path, capsys):
    a = tmp_path / "a.mk"
    a.write_text(render_machine(burnside(2)))
    code, out, _ = cli(["iso", str(a), str(a), "--format", "text"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "isomorphic"


def test_iso_negative_bound_is_input_error(tmp_path, capsys):
    a = tmp_path / "a.mk"
    a.write_text(render_machine(burnside(2)))
    code, out, err = cli(["iso", str(a), str(a), "--bound", "-1"], capsys)
    assert code == 2
    assert out == ""
    assert "nonnegative" in err
    code, _, _ = cli(["iso", str(a), str(a), "--bound", "0"], capsys)
    assert code == 1  # bound 0 is valid: only the zero map is searched


# -- outputs that depend on a chosen basis, byte for byte ----------------------------------

HEADER = """\
# Mackey functor presentation for a cyclic group of prime order.
# Matrix entry [i][j] is the coefficient of target generator i in the
# image of source generator j; relation lists hold one relation per row,
# one integer per generator.
"""

PERMUTATION_3_1_1 = HEADER + """\
p: 3
top.generators: 2
top.relations: []
bottom.generators: 4
bottom.relations: []
action: [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
res: [[1, 0], [0, 1], [0, 1], [0, 1]]
tr: [[3, 0, 0, 0], [0, 1, 1, 1]]
"""

# twisted_burnside(3, 6) with an extra top generator and an extra bottom
# generator, each tied down by one relation, in sheared coordinates
SHEARED_TWIST_3_6 = HEADER + """\
p: 3
top.generators: 3
top.relations: [[3, 2, 1]]
bottom.generators: 2
bottom.relations: [[2, 3]]
action: [[1, 0], [0, 1]]
res: [[-18, 21, 12], [-18, 21, 12]]
tr: [[3, -2], [3, -2], [0, 0]]
"""


def test_make_permutation_output_is_byte_identical(capsys):
    code, out, _ = cli(["make", "permutation", "--p", "3", "--fixed", "1", "--free", "1"], capsys)
    assert (code, out) == (0, PERMUTATION_3_1_1)


def test_gamma_output_with_relations_is_byte_identical(capsys, monkeypatch):
    """The top of Γ(M) is presented by the kernel lattice of the transfer."""
    code, out, _ = cli(["gamma", "-"], capsys, monkeypatch, stdin_text=PERMUTATION_3_1_1)
    assert (code, out) == (0, HEADER + """\
p: 3
top.generators: 4
top.relations: [[0, -1, 1, 0], [0, -1, 0, 1]]
bottom.generators: 4
bottom.relations: []
action: [[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
res: [[3, 0, 0, 0], [0, 1, 1, 1], [0, 1, 1, 1], [0, 1, 1, 1]]
tr: [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
""")


def test_iso_witnesses_are_byte_identical(tmp_path, capsys):
    """The first witness in the walk's order, from the lattice found by one
    elimination per tier, on canonical and on sheared presentations."""
    a, b, c = tmp_path / "a.mk", tmp_path / "b.mk", tmp_path / "c.mk"
    a.write_text(render_machine(twisted_burnside(5, 2)))
    b.write_text(render_machine(twisted_burnside(5, 7)))
    c.write_text(SHEARED_TWIST_3_6)
    code, out, _ = cli(["iso", str(a), str(b), "--bound", "2"], capsys)
    assert (code, out) == (0, "status: found\nphi_top: [[-1, 0], [1, -1]]\nphi_bottom: [[-1]]\n")
    code, out, _ = cli(["iso", str(c), str(c), "--bound", "1", "--format", "text"], capsys)
    assert (code, out) == (
        0,
        "isomorphic\nphi_top: [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]\nphi_bottom: [[-1, 0], [0, -1]]\n",
    )


def test_classify_sheared_twist_is_byte_identical(capsys, monkeypatch):
    """The twist read through the projection and section of each tier."""
    code, out, _ = cli(["classify", "-"], capsys, monkeypatch, stdin_text=SHEARED_TWIST_3_6)
    assert (code, out) == (1, "verdict: not-invertible\nreason: twist-not-coprime\ntwist_found: 21\n")
    code, out, _ = cli(["classify", "-", "--format", "text"], capsys, monkeypatch, stdin_text=SHEARED_TWIST_3_6)
    assert (code, out) == (1, "NotInvertible(twist-not-coprime, twist=21)\n")


# -- argparse plumbing ----------------------------------------------------------------


def test_usage_errors(capsys):
    code, _, err = cli([], capsys)
    assert code == 2
    code, _, err = cli(["frobnicate"], capsys)
    assert code == 2
    code, _, err = cli(["make", "mystery", "--p", "2"], capsys)
    assert code == 2
    del err


def test_help_exits_zero(capsys):
    code, out, _ = cli(["--help"], capsys)
    assert code == 0
    assert "box product" in out.lower() or "mackeybox" in out


# -- end-to-end subprocess runs --------------------------------------------------------


def module_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "mackeybox", *args]


def test_subprocess_roundtrip():
    make = subprocess.run(
        module_cmd("make", "burnside", "--p", "2"), capture_output=True, text=True
    )
    assert make.returncode == 0
    check = subprocess.run(
        module_cmd("check"), input=make.stdout, capture_output=True, text=True
    )
    assert check.returncode == 0
    assert "status: pass" in check.stdout


def test_subprocess_pipeline_invert_classify():
    quoted = " ".join(
        [
            f"'{sys.executable}' -m mackeybox make twisted --p 5 --twist 2",
            f"| '{sys.executable}' -m mackeybox invert -",
            f"| '{sys.executable}' -m mackeybox classify -",
        ]
    )
    proc = subprocess.run(["sh", "-c", quoted], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verdict: twisted-burnside" in proc.stdout
    assert "d_class: 2" in proc.stdout


@pytest.mark.skipif(shutil.which("mackeybox") is None, reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(
        ["mackeybox", "make", "constant", "--p", "3", "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "Z"
