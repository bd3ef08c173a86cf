"""Value semantics of the package's immutable value types: equality and
hashing by class and fields, a repr that names them, no assignment after
construction, cached properties, and the constructors' signatures."""

import pytest

from thicklat import (
    DatumReport,
    FinSpace,
    LatticeReport,
    LawWitness,
    MorphismReport,
    Presentation,
    Spectrum,
    SupportDatum,
    SupportMorphism,
    SupportSpace,
    TensorTable,
    ThickLattice,
    Triangle,
    TriangleViolation,
    builtin,
    enumerate_thick,
)
from thicklat._value import Value

A2 = builtin("a2")
LATTICE = ThickLattice(A2, (0, 1, 2, 4, 7))
SPACE = FinSpace(("x", "y"), (1,))
WITNESS = LawWitness(1, 2, 4, 1, 0)
VIOLATION = TriangleViolation(0, 1, 3)

SUPPORT_SPACE_FIELDS = {
    "space": (SPACE, FinSpace(("x",), ())),
    "sigma": ((1, 2), (1, 3)),
    "origin_map": (None, (0, 1)),
    "lattice": (LATTICE, ThickLattice(A2, (0, 7))),
}

# per class, each field in order, with its value and another value
FIELDS = {
    Triangle: {"a": ((0,), (1,)), "b": ((1,), ()), "c": ((2,), (0, 0))},
    TensorTable: {"unit": (1, 0), "table": (((1,),), ((0,),))},
    Presentation: {
        "names": (("P1", "P2", "S2"), ("a", "b", "c")),
        "triangles": ((Triangle((0,), (1,), (2,)),), ()),
        "tensor": (None, TensorTable(1, ((1,),))),
    },
    ThickLattice: {"presentation": (A2, builtin("point")), "elements": ((0, 7), (0, 1, 7))},
    LawWitness: {"x": (1, 11), "y": (2, 12), "z": (4, 14), "lhs": (1, 11), "rhs": (0, 10)},
    LatticeReport: {
        "size": (5, 4),
        "height": (2, 3),
        "atoms": ((1, 2, 4), ()),
        "is_distributive": (False, True),
        "distributive_witness": (WITNESS, None),
        "is_modular": (True, False),
        "modular_witness": (None, WITNESS),
        "covers": (((0, 1),), ()),
    },
    FinSpace: {"points": (("x", "y"), ("x",)), "generators": ((1,), (2,))},
    SupportDatum: {key: SUPPORT_SPACE_FIELDS[key] for key in ("space", "sigma", "origin_map")},
    SupportSpace: SUPPORT_SPACE_FIELDS,
    Spectrum: SUPPORT_SPACE_FIELDS,
    TriangleViolation: {"triangle": (0, 1), "rotation": (1, 2), "excess": (3, 4)},
    DatumReport: {"triangle_violations": ((VIOLATION,), ()), "unclosed": ((), (1,))},
    SupportMorphism: {"mapping": ((0, 1), (1, 0))},
    MorphismReport: {"ok": (True, False), "pullback_failure": (None, "P1"),
                     "continuity_failure": (None, "preimage of sup(P1)")},
}
# fields that a class's constructor does not take; FIELDS holds the value it sets
UNSET = {(SupportSpace, "origin_map"), (Spectrum, "origin_map")}
CLASSES = list(FIELDS)
CLASS_FIELDS = [(cls, name) for cls in CLASSES for name in FIELDS[cls]]


def fields(cls) -> dict:
    return {name: value for name, (value, _) in FIELDS[cls].items()}


def values(cls) -> dict:
    """The constructor's arguments."""
    return {name: value for name, value in fields(cls).items() if (cls, name) not in UNSET}


def test_every_value_type_is_listed():
    found, todo = set(), [Value]
    while todo:
        subclasses = todo.pop().__subclasses__()
        found.update(subclasses)
        todo += subclasses
    assert found == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES)
def test_equal_fields_make_equal_values_with_equal_hashes(cls):
    one, two = cls(**values(cls)), cls(**values(cls))
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two)
    assert len({one, two}) == 1


@pytest.mark.parametrize("cls, name", [f for f in CLASS_FIELDS if f not in UNSET])
def test_one_differing_field_makes_unequal_values(cls, name):
    other = cls(**{**values(cls), name: FIELDS[cls][name][1]})
    assert cls(**values(cls)) != other
    assert not cls(**values(cls)) == other


@pytest.mark.parametrize("cls", CLASSES)
def test_a_value_never_equals_another_type(cls):
    value = cls(**values(cls))
    assert value.__eq__(object()) is NotImplemented
    assert value != tuple(values(cls).values())


def test_a_support_space_never_equals_a_spectrum_with_its_fields():
    fields = values(SupportSpace)
    space, spectrum = SupportSpace(**fields), Spectrum(**fields)
    assert space != spectrum and spectrum != space
    assert not space == spectrum and not spectrum == space


@pytest.mark.parametrize("cls", CLASSES)
def test_repr_names_the_class_and_every_field(cls):
    shown = ", ".join(f"{name}={value!r}" for name, value in fields(cls).items())
    assert repr(cls(**values(cls))) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, name", CLASS_FIELDS)
def test_fields_cannot_be_assigned_or_deleted(cls, name):
    value = cls(**values(cls))
    kept = getattr(value, name)
    assert kept == fields(cls)[name]
    with pytest.raises(AttributeError):
        setattr(value, name, FIELDS[cls][name][1])
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert getattr(value, name) is kept


@pytest.mark.parametrize("cls", CLASSES)
def test_no_attribute_can_be_added(cls):
    value = cls(**values(cls))
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "extra")


@pytest.mark.parametrize("value, name", [
    (builtin("an", 3), "rules"),
    (builtin("point"), "ideal_rules"),
    (builtin("an", 3), "blocks"),
    (builtin("an", 3), "forced"),
    (enumerate_thick(builtin("an", 3)), "position"),
    (FinSpace(("x", "y"), (1,)), "_point_closures"),
    (SupportDatum(SPACE, (1, 2)), "images"),
    (builtin("an", 3), "vertex_slots"),
])
def test_cached_properties_are_cached(value, name):
    assert name not in vars(value)
    first = getattr(value, name)
    assert vars(value)[name] is first
    assert getattr(value, name) is first


def test_origin_map_is_keyword_only():
    with pytest.raises(TypeError):
        SupportDatum(SPACE, (1, 2), (0, 1))
    assert SupportDatum(SPACE, (1, 2), origin_map=(0, 1)).origin_map == (0, 1)
    # a support space is no drawn datum: its constructor takes no origin map
    for cls in (SupportSpace, Spectrum):
        with pytest.raises(TypeError):
            cls(SPACE, (1, 2), LATTICE, (0, 1))
        with pytest.raises(TypeError):
            cls(SPACE, (1, 2), LATTICE, origin_map=(0, 1))


def test_documented_defaults():
    assert Presentation(("k",), ()).tensor is None
    assert SupportDatum(SPACE, (1, 2)).origin_map is None
    assert SupportSpace(SPACE, (1, 2), LATTICE).origin_map is None
    report = MorphismReport(True)
    assert report.pullback_failure is None and report.continuity_failure is None
    assert MorphismReport(False, "P1") == MorphismReport(False, pullback_failure="P1")
