"""A record that checks its fields checks them on every way of building one.

`ArgumentFamily`, `LatticeSpec`, `RationalMatrix` and `PrecisionContext` are
NamedTuples whose constructor checks or normalises their fields.  `_make` and
`_replace` build through that constructor, copies and pickles come back
equal, and no field can be set."""

import copy
import pickle
from fractions import Fraction

import pytest

from gammalattice import (
    ArgumentFamily,
    FamilyKind,
    InvalidKappaError,
    LatticeSpec,
    NonIncreasingIndicesError,
    PrecisionContext,
    RationalMatrix,
)

PLUS_THIRD = ArgumentFamily(FamilyKind.PLUS_SHIFT, Fraction(1, 3))

# Each checking record, a field change that its constructor refuses, and the
# constructor's own error.
CASES = {
    "ArgumentFamily": (
        PLUS_THIRD, {"kappa": Fraction(5)}, InvalidKappaError, r"shift 5 outside \(0, 1\)"
    ),
    "LatticeSpec": (
        LatticeSpec(PLUS_THIRD, (0, 2, 5)), {"indices": (2, 2)},
        NonIncreasingIndicesError, "not strictly increasing",
    ),
    "RationalMatrix": (
        RationalMatrix.from_rows([[1, 2], [3, 4]]), {"entries": (Fraction(1),) * 3},
        ValueError, "3 entries for a 2x2 matrix",
    ),
    "PrecisionContext": (
        PrecisionContext(40, "1e-30"), {"decimal_digits": 29},
        ValueError, "decimal_digits must be >= 30",
    ),
}
PARAMS = pytest.mark.parametrize(
    "record, change, error, message", CASES.values(), ids=list(CASES)
)


@PARAMS
def test_replace_runs_the_check(record, change, error, message):
    with pytest.raises(error, match=message):
        record._replace(**change)


@PARAMS
def test_make_runs_the_check(record, change, error, message):
    with pytest.raises(error, match=message):
        type(record)._make({**record._asdict(), **change}.values())


@PARAMS
def test_valid_rebuilds_keep_the_type(record, change, error, message):
    for rebuilt in (record._replace(), type(record)._make(record)):
        assert rebuilt == record
        assert type(rebuilt) is type(record)


def test_replace_normalises_as_the_constructor_does():
    spec = LatticeSpec(PLUS_THIRD, (0, 2, 5))._replace(indices=[0, 1])
    assert spec.indices == (0, 1)
    assert type(spec.indices) is tuple
    with pytest.raises(NonIncreasingIndicesError, match="not all integers"):
        spec._replace(indices=[0, 1.5])
    context = PrecisionContext(40)._replace(tolerance="1e-12")
    assert context.tolerance == PrecisionContext(40, "1e-12").tolerance
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        context._replace(tolerance="-1")


@PARAMS
def test_copies_and_pickles_are_equal(record, change, error, message):
    clones = [
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ]
    for clone in clones:
        assert clone == record
        assert type(clone) is type(record)


@PARAMS
def test_fields_cannot_be_set(record, change, error, message):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
