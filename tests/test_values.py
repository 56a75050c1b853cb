"""The immutable value classes: repr, equality, hash, the frozen guard and
how their constructors bind arguments to fields.

Each class is pinned by one small value.  The repr strings are the ones the
classes printed when they were frozen dataclasses, and the hash is that of
the tuple of field values, so no set or dict order depends on how the
classes are built.
"""

from dataclasses import FrozenInstanceError

import pytest

from torelli.criteria import AnalysisReport, DiagonalMap, analyze
from torelli.exactlin import IntMatrix, IntVector
from torelli.mapping_class import LOCUS_Q, DifferenceMap, TwistFactor, TwistWord
from torelli.oracle import TrialPlan
from torelli.realization import Realization, realize_delta
from torelli.reference import SNFResult, smith_normal_form
from torelli.surface_model import ComplementComponent, HomologyModel, SubsurfaceConfig, build_model


def _model():
    return build_model(SubsurfaceConfig(0, [ComplementComponent(0, 2)]))  # one circle and its dual


def _word():
    return TwistWord([TwistFactor(IntVector([1, 0]), 2, LOCUS_Q)])


def _delta():
    return DifferenceMap(IntMatrix([[2]]), ((0, 1),))


_CONFIG = "SubsurfaceConfig(q_genus=0, components=(ComplementComponent(genus=0, boundary_count=2),))"
_FACTOR = "TwistFactor(curve_class=IntVector(entries=(1, 0)), exponent=2, locus='Q')"
_DELTA = "DifferenceMap(matrix=IntMatrix(entries=((2,),), rows=1, cols=1), block_ranges=((0, 1),))"
_ONE = "IntMatrix(entries=((1,),), rows=1, cols=1)"

VALUES = {  # class: (a factory of one value, its field names, its repr)
    IntVector: (lambda: IntVector([1, -2]), ("entries",), "IntVector(entries=(1, -2))"),
    IntMatrix: (
        lambda: IntMatrix([[1, 2]]), ("entries", "rows", "cols"), "IntMatrix(entries=((1, 2),), rows=1, cols=2)",
    ),
    SNFResult: (
        lambda: smith_normal_form(IntMatrix([[-2]])), ("U", "D", "V"),
        "SNFResult(U=IntMatrix(entries=((-1,),), rows=1, cols=1), "
        f"D=IntMatrix(entries=((2,),), rows=1, cols=1), V={_ONE})",
    ),
    ComplementComponent: (
        lambda: ComplementComponent(1, 3), ("genus", "boundary_count"),
        "ComplementComponent(genus=1, boundary_count=3)",
    ),
    SubsurfaceConfig: (
        lambda: SubsurfaceConfig(0, [ComplementComponent(0, 2)]), ("q_genus", "components"), _CONFIG,
    ),
    HomologyModel: (
        _model, ("config", "pairing_sign"), f"HomologyModel(config={_CONFIG}, pairing_sign=1)",
    ),
    TwistFactor: (lambda: _word().factors[0], ("rank", "edges", "exponent", "locus"), _FACTOR),
    TwistWord: (_word, ("factors",), f"TwistWord(factors=({_FACTOR},))"),
    DifferenceMap: (_delta, ("matrix", "block_ranges"), _DELTA),
    DiagonalMap: (lambda: DiagonalMap([1, -1]), ("exponents",), "DiagonalMap(exponents=(1, -1))"),
    AnalysisReport: (lambda: analyze(_model(), _word()), ("delta",), f"AnalysisReport(delta={_DELTA})"),
    Realization: (
        lambda: realize_delta(_model(), _delta()), ("word", "components"),
        f"Realization(word=TwistWord(factors=({_FACTOR},)), components=(0,))",
    ),
    TrialPlan: (
        lambda: TrialPlan(seed=7, trials=2),
        ("seed", "trials", "max_q_genus", "max_component_genus", "max_boundary_count", "max_components",
         "max_exponent"),
        "TrialPlan(seed=7, trials=2, max_q_genus=2, max_component_genus=2, max_boundary_count=4, "
        "max_components=3, max_exponent=3)",
    ),
}


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    make, fields, text = VALUES[cls]
    value, same = make(), make()
    assert type(value) is cls and value is not same
    assert repr(value) == text

    values = tuple(getattr(value, name) for name in fields)
    assert hash(value) == hash(same) == hash(values)

    assert value == same and not value != same
    # A class with the same fields and field values is another class: never equal.
    twin = object.__new__(type(cls.__name__, (cls,), {"__annotations__": dict(cls.__annotations__)}))
    twin.__dict__.update(zip(fields, values))
    assert value != twin and twin != value and not value == twin

    with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{fields[-1]}'"):
        setattr(value, fields[-1], None)
    with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{fields[0]}'"):
        delattr(value, fields[0])
    assert tuple(getattr(value, name) for name in fields) == values


@pytest.mark.parametrize(
    "cls",
    [SNFResult, ComplementComponent, SubsurfaceConfig, HomologyModel, DifferenceMap, AnalysisReport, Realization,
     TrialPlan],
    ids=lambda cls: cls.__name__,
)
def test_constructor_binds_fields(cls):
    make, fields, _ = VALUES[cls]
    value = make()
    values = [getattr(value, name) for name in fields]
    assert cls(*values) == cls(**dict(zip(fields, values))) == value

    bad = [
        (values[:-1], {"unknown": values[-1]}),  # an unknown keyword in place of the last field
        (values, {fields[0]: values[0]}),  # the first field given twice
        (values + [None], {}),  # one positional argument too many
    ]
    if cls is not TrialPlan:  # every plan field has a default
        bad.append((values[:-1], {}))  # the last field missing
    for args, kwargs in bad:
        with pytest.raises(TypeError, match=cls.__name__):
            cls(*args, **kwargs)
