"""The presentation document format: round-trips, diagnostics, rendering."""

import random
import sys

import pytest

from mackeybox.cli import run
from mackeybox.document import (
    DimensionMismatchError,
    DocumentError,
    DocumentSyntaxError,
    IllDefinedMapError,
    NonPrimeError,
    parse_functor,
    render_lewis,
    render_machine,
    render_text,
)
from mackeybox.mackey import (
    PRIME_LIMIT,
    GSet,
    burnside,
    check_axioms,
    constant_z,
    permutation_functor,
    twisted_burnside,
    zero_functor,
)

from helpers import PRIMES, random_functor


GOOD = """\
p: 2
top.generators: 2
top.relations: []
bottom.generators: 1
bottom.relations: []
action: [[1]]
res: [[1, 2]]
tr: [[0], [1]]
"""


def test_parse_reference_document():
    m = parse_functor(GOOD)
    assert m == burnside(2)


def test_round_trip_constructors():
    zoo = [burnside(2), constant_z(3), twisted_burnside(5, 2), zero_functor(7), permutation_functor(2, GSet(1, 1))]
    for m in zoo:
        assert parse_functor(render_machine(m)) == m


def test_round_trip_random():
    rng = random.Random(202)
    for _ in range(60):
        p = rng.choice(PRIMES)
        m = random_functor(rng, p)
        again = parse_functor(render_machine(m))
        assert again == m
        assert check_axioms(again) == ()


def test_comments_blank_lines_and_order_are_free():
    scrambled = """

# leading commentary
tr: [[0], [1]]
res: [[1, 2]]
action: [[1]]

bottom.relations: []
bottom.generators: 1
top.relations: []
top.generators: 2
# interleaved note
p: 2
"""
    assert parse_functor(scrambled) == burnside(2)


def test_syntax_errors():
    with pytest.raises(DocumentSyntaxError) as exc:
        parse_functor("p 2\n")
    assert exc.value.code == "syntax"
    with pytest.raises(DocumentSyntaxError):
        parse_functor(GOOD + "mystery: [[1]]\n")
    with pytest.raises(DocumentSyntaxError):
        parse_functor(GOOD + "p: 3\n")  # duplicate
    with pytest.raises(DocumentSyntaxError):
        parse_functor(GOOD.replace("p: 2", "p: two"))
    with pytest.raises(DocumentSyntaxError):
        parse_functor(GOOD.replace("res: [[1, 2]]", "res: [[1, 2]"))
    with pytest.raises(DocumentSyntaxError):
        parse_functor(GOOD.replace("res: [[1, 2]]", "res: [[1, 2.5]]"))
    with pytest.raises(DocumentSyntaxError):
        parse_functor(GOOD.replace("res: [[1, 2]]", "res: [1, 2]"))
    with pytest.raises(DocumentSyntaxError, match="field 'res' must be a bracketed list"):
        parse_functor(GOOD.replace("res: [[1, 2]]", "res: 5"))
    with pytest.raises(DocumentSyntaxError):  # json.loads raises RecursionError
        parse_functor(GOOD.replace("res: [[1, 2]]", "res: " + "[" * 200000))
    missing = GOOD.replace("action: [[1]]\n", "")
    with pytest.raises(DocumentSyntaxError) as exc2:
        parse_functor(missing)
    assert "missing field 'action'" in str(exc2.value)


@pytest.mark.parametrize("field", ["p", "top.generators", "bottom.generators"])
@pytest.mark.parametrize("value", ["1_1", "\u0661\u0661", "+2", "0x2", "2.0", " ", "1 1"])
def test_integer_fields_are_ascii_digits_only(field, value):
    # int() accepts underscores, a sign, and non-ASCII digits such as "١١"
    line = {"p": "p: 2", "top.generators": "top.generators: 2",
            "bottom.generators": "bottom.generators: 1"}[field]
    with pytest.raises(DocumentSyntaxError) as exc:
        parse_functor(GOOD.replace(line, f"{field}: {value}"))
    assert f"field '{field}' must be an integer" in str(exc.value)


def test_integer_fields_accept_negative_and_leading_zeros():
    assert parse_functor(GOOD.replace("p: 2", "p: 02")).p == 2
    with pytest.raises(DimensionMismatchError):
        parse_functor(GOOD.replace("top.generators: 2", "top.generators: -2"))


@pytest.mark.parametrize(
    "line, value",
    [("p: 2", "p: {}"), ("top.generators: 2", "top.generators: {}"), ("res: [[1, 2]]", "res: [[1, -{}]]")],
)
def test_integers_past_the_conversion_limit_are_syntax_errors(line, value):
    # int() and json.loads raise a bare ValueError for them
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(DocumentSyntaxError) as exc:
        parse_functor(GOOD.replace(line, value.format(digits)))
    field = value.partition(":")[0]
    assert f"field '{field}' has an integer of more than" in str(exc.value)
    assert exc.value.line == GOOD.splitlines().index(line) + 1


def test_faults_are_reported_in_a_fixed_order():
    """Syntax, dimensions, primality, then well-definedness: with several
    faults, the earliest kind is the one raised."""
    composite = GOOD.replace("p: 2", "p: 4")
    with pytest.raises(DimensionMismatchError):
        parse_functor(composite.replace("res: [[1, 2]]", "res: [[1]]"))
    # Z/2 on the bottom: tr sends its relation 2 to (0, 2), which is not zero
    ill_defined_tr = GOOD.replace("bottom.relations: []", "bottom.relations: [[2]]")
    with pytest.raises(IllDefinedMapError, match="'tr'"):
        parse_functor(ill_defined_tr)
    with pytest.raises(NonPrimeError):
        parse_functor(ill_defined_tr.replace("p: 2", "p: 4"))
    negative = GOOD.replace("bottom.generators: 1", "bottom.generators: -1")
    with pytest.raises(DimensionMismatchError) as exc:
        parse_functor(negative.replace("res: [[1, 2]]", "res: [[1]]"))
    assert str(exc.value) == "generator counts must be nonnegative"
    with pytest.raises(DocumentSyntaxError):
        parse_functor(composite.replace("res: [[1, 2]]", "res: [[1]]") + "mystery: 1\n")


def test_syntax_error_reports_line():
    bad = "p: 2\nnonsense line\n"
    with pytest.raises(DocumentSyntaxError) as exc:
        parse_functor(bad)
    assert exc.value.line == 2


def test_dimension_errors():
    with pytest.raises(DimensionMismatchError) as exc:
        parse_functor(GOOD.replace("res: [[1, 2]]", "res: [[1]]"))
    assert exc.value.code == "dimension"
    with pytest.raises(DimensionMismatchError):
        parse_functor(GOOD.replace("tr: [[0], [1]]", "tr: [[0]]"))
    with pytest.raises(DimensionMismatchError):
        parse_functor(GOOD.replace("top.relations: []", "top.relations: [[1]]"))


def test_non_prime_error():
    with pytest.raises(NonPrimeError) as exc:
        parse_functor(GOOD.replace("p: 2", "p: 6"))
    assert exc.value.code == "non-prime"


def test_a_prime_past_the_proven_bound_is_a_non_prime_error(tmp_path, capsys):
    """Primality is decided only below PRIME_LIMIT; past it the document is
    refused with the non-prime kind, at the primality stage."""
    too_large = GOOD.replace("p: 2", f"p: {PRIME_LIMIT}")
    with pytest.raises(DocumentError) as exc:
        parse_functor(too_large)
    assert exc.value.code == "non-prime"
    path = tmp_path / "large.mk"
    path.write_text(too_large)
    assert run(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"mackeybox: non-prime error: p = {PRIME_LIMIT} is too large: ")
    with pytest.raises(DimensionMismatchError):
        parse_functor(too_large.replace("res: [[1, 2]]", "res: [[1]]"))


def test_ill_defined_error():
    text = """\
p: 2
top.generators: 1
top.relations: [[4]]
bottom.generators: 1
bottom.relations: [[2]]
action: [[1]]
res: [[1]]
tr: [[1]]
"""
    # tr sends the order-2 generator to an order-4 one: not a map
    with pytest.raises(IllDefinedMapError) as exc:
        parse_functor(text)
    assert exc.value.code == "ill-defined"
    assert "'tr'" in str(exc.value)


def test_torsion_round_trip():
    text = """\
p: 2
top.generators: 1
top.relations: [[2]]
bottom.generators: 1
bottom.relations: [[4]]
action: [[1]]
res: [[2]]
tr: [[1]]
"""
    m = parse_functor(text)
    assert check_axioms(m) == ()
    assert parse_functor(render_machine(m)) == m


def test_render_machine_is_commented_and_parseable():
    out = render_machine(burnside(3))
    assert out.startswith("#")
    assert "entry [i][j]" in out
    assert parse_functor(out) == burnside(3)


def test_render_text():
    out = render_text(burnside(2))
    lines = out.splitlines()
    assert lines[0] == "Z^2"
    assert lines[4] == "Z"
    assert "res tr" in lines
    assert "p: 2" in lines
    assert "res: [[1, 2]]" in lines
    torsion = render_text(permutation_functor(2, GSet(0, 1)))
    assert torsion.splitlines()[0] == "Z"
    assert torsion.splitlines()[4] == "Z^2"


def test_render_text_group_names():
    from mackeybox.abgroup import AbHom, FpAbGroup
    from mackeybox.mackey import fixed_point_functor

    mod = FpAbGroup.cyclic(4)
    m = fixed_point_functor(2, mod, AbHom.identity(mod))
    assert render_text(m).splitlines()[0] == "Z/4"


def test_render_lewis_dispatch():
    m = constant_z(5)
    assert render_lewis(m) == render_machine(m)
    assert render_lewis(m, "text") == render_text(m)
    with pytest.raises(ValueError):
        render_lewis(m, "json")
