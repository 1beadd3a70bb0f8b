"""The ten frozen records keep the semantics of frozen dataclasses.

``IntMatrix``, ``SmithDecomposition``, ``FpAbGroup``, ``AbHom``,
``MackeyFunctor``, ``GSet``, ``MackeyMorphism``, ``ClassificationResult``,
``IsotropySequence`` and ``IsoSearchResult`` are plain classes: assigning or
deleting an attribute raises ``AttributeError``, ``==`` and ``hash`` read the
fields alone (a memo filled on one of two equal records changes neither),
pickle and deep copy keep the fields and the memos, and the repr is
``Name(field=value, ...)``, as a frozen dataclass prints it.
``IntMatrix`` is the one record whose repr and constructor speak of other
names than its fields: it stores its nonzeros row-compressed, and prints and
takes the dense ``rows``, ``cols`` and ``entries``.
"""

import copy
import doctest
import pickle

import pytest

from mackeybox.intlin import IntMatrix, SmithDecomposition, smith_normal_form
from mackeybox.abgroup import AbHom, FpAbGroup
from mackeybox.mackey import (
    GSet,
    MackeyFunctor,
    MackeyMorphism,
    check_axioms,
    twisted_burnside,
    unit_isomorphism,
)
from mackeybox.separation import (
    ClassificationResult,
    IsoSearchResult,
    IsotropySequence,
    classify_invertible,
    isotropy_sequence,
    try_find_isomorphism,
)


# the constructor's keywords, where they are not the fields
ARGUMENTS = {IntMatrix: ("rows", "cols", "entries")}

FIELDS = {
    IntMatrix: ("rows", "cols", "offsets", "indices", "values"),
    SmithDecomposition: ("s", "row_ops", "col_ops"),
    FpAbGroup: ("ngens", "relations"),
    AbHom: ("source", "target", "matrix"),
    MackeyFunctor: ("p", "top", "bottom", "gamma", "res", "tr"),
    GSet: ("fixed", "free"),
    MackeyMorphism: ("source", "target", "phi_top", "phi_bottom"),
    ClassificationResult: ("invertible", "d_class", "sign_ambiguous", "reason", "twist_found"),
    IsotropySequence: (
        "gamma_part", "inclusion", "original", "projection", "phi_part", "exact", "report"
    ),
    IsoSearchResult: ("status", "witness", "detail"),
}


def build(cls):
    """A record of class cls, built from scratch: two calls give equal
    records that share no object and no memo."""
    m = twisted_burnside(5, 2)
    z4 = FpAbGroup(1, IntMatrix.from_rows([[4]]))
    return {
        IntMatrix: lambda: IntMatrix.from_rows([[1, 2], [3, 4]]),
        SmithDecomposition: lambda: smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])),
        FpAbGroup: lambda: z4,
        AbHom: lambda: AbHom(z4, z4, IntMatrix.from_rows([[3]])),
        MackeyFunctor: lambda: m,
        GSet: lambda: GSet(1, 2),
        MackeyMorphism: lambda: unit_isomorphism(m),
        ClassificationResult: lambda: classify_invertible(m),
        IsotropySequence: lambda: isotropy_sequence(m),
        IsoSearchResult: lambda: try_find_isomorphism(m, twisted_burnside(5, 7), 1),
    }[cls]()


def fill_memos(record) -> None:
    """Read every memo the record keeps (the classes not named keep none)."""
    if isinstance(record, SmithDecomposition):
        record.u, record.u_inverse, record.v
    elif isinstance(record, FpAbGroup):
        record.smith, record._members_by_inspection
    elif isinstance(record, AbHom):
        record.smith, record.kernel_lattice, record.orbit(5)
    elif isinstance(record, MackeyFunctor):
        check_axioms(record)
        classify_invertible(record)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    record = build(cls)
    for name in FIELDS[cls]:
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_equality_and_hash_read_the_fields_alone(cls):
    record, twin = build(cls), build(cls)
    assert record is not twin
    before = (hash(record), repr(record))
    fill_memos(record)
    assert (hash(record), repr(record)) == before
    assert record == twin and twin == record and not record != twin
    assert hash(twin) == hash(record) == hash(tuple(getattr(record, f) for f in FIELDS[cls]))
    assert record != object() and record != repr(record)
    keywords = {name: getattr(record, name) for name in ARGUMENTS.get(cls, FIELDS[cls])}
    assert cls(**keywords) == record


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_a_record_with_filled_memos_survives_pickle_and_copy(cls):
    """Pickling or deep-copying a record keeps its fields and its memos."""
    record = build(cls)
    fill_memos(record)
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert twin == record and hash(twin) == hash(record)
        assert set(getattr(twin, "__dict__", ())) == set(getattr(record, "__dict__", ()))


def test_memos_are_kept_outside_the_fields():
    for cls in (SmithDecomposition, FpAbGroup, AbHom, MackeyFunctor):
        record, twin = build(cls), build(cls)
        fill_memos(record)
        assert set(vars(record)) > set(vars(twin)) == set(FIELDS[cls])
        assert record == twin and hash(record) == hash(twin)


def test_a_changed_field_breaks_equality():
    a = IntMatrix.from_rows([[1, 2]])
    assert a != IntMatrix.from_rows([[1, 3]]) and a != IntMatrix.from_rows([[1], [2]])
    assert IntMatrix.zeros(0, 2) != IntMatrix.zeros(0, 3)
    assert FpAbGroup.cyclic(4) != FpAbGroup.cyclic(6) and FpAbGroup.free(1) != FpAbGroup.free(2)
    z = FpAbGroup.free(1)
    assert AbHom(z, z, IntMatrix.from_rows([[1]])) != AbHom(z, z, IntMatrix.from_rows([[2]]))
    assert twisted_burnside(5, 2) != twisted_burnside(5, 3) != twisted_burnside(7, 3)
    assert GSet(1, 2) != GSet(2, 1)
    assert ClassificationResult(False) != ClassificationResult(True)


def test_keyword_construction_and_defaults():
    result = ClassificationResult(invertible=True, d_class=2, sign_ambiguous=True)
    assert (result.reason, result.twist_found) == (None, None)
    assert ClassificationResult(False) == ClassificationResult(
        invertible=False, d_class=None, sign_ambiguous=False, reason=None, twist_found=None
    )
    search = IsoSearchResult(status="found")
    assert (search.witness, search.detail) == (None, "")
    assert IsoSearchResult("unknown", detail="x") == IsoSearchResult("unknown", None, "x")
    assert GSet(fixed=1, free=2) == GSet(1, 2)
    assert IntMatrix(rows=1, cols=1, entries=(4,)) == IntMatrix.from_rows([[4]])
    with pytest.raises(TypeError):
        ClassificationResult()
    with pytest.raises(TypeError):
        IsoSearchResult("found", None, "", "extra")


def test_reprs_are_those_of_the_frozen_dataclasses():
    assert repr(GSet(1, 2)) == "GSet(fixed=1, free=2)"
    assert repr(FpAbGroup.cyclic(4)) == "FpAbGroup(ngens=1, relations=IntMatrix([[4]]))"
    assert repr(ClassificationResult(False, reason="bottom-not-Z")) == (
        "ClassificationResult(invertible=False, d_class=None, sign_ambiguous=False, "
        "reason='bottom-not-Z', twist_found=None)"
    )
    assert repr(IsoSearchResult("unknown", detail="x")) == (
        "IsoSearchResult(status='unknown', witness=None, detail='x')"
    )
    z = FpAbGroup.free(1)
    assert repr(AbHom(z, z, IntMatrix.from_rows([[2]]))) == (
        "AbHom(source=FpAbGroup(ngens=1, relations=IntMatrix([[]])), "
        "target=FpAbGroup(ngens=1, relations=IntMatrix([[]])), matrix=IntMatrix([[2]]))"
    )


def test_the_class_docstrings_keep_their_examples():
    """A docstring must stay the first statement of its class body, or its
    doctest is silently dropped."""
    for cls in (IntMatrix, FpAbGroup):
        assert doctest.DocTestParser().get_examples(cls.__doc__)
