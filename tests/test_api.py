"""The package names a lattice one way: every public entry point takes an
`ArgumentFamily`, never a loose family kind plus shift.  Its exports are a
pinned list, so a new one is a deliberate edit."""

import dataclasses
import inspect
from typing import NamedTuple

import pytest

import gammalattice
from gammalattice import (
    ArgumentFamily,
    FamilyKind,
    LatticeSpec,
    PrecisionContext,
    SpecMismatchError,
    coefficient_table,
    verify_grid,
    verify_recovery,
)


EXPORTS = [
    "ArgumentFamily", "BoundVariant", "CauchyBinetCertificate", "CoeffSystem",
    "DensityBound", "DimensionMismatchError", "FamilyKind", "GammaLatticeError",
    "GridRow", "GuardExceededError", "InvalidKappaError",
    "KNOWN_TRANSCENDENTAL_SHIFTS", "LatticeSpec", "MissingKappaError",
    "NonIncreasingIndicesError", "NotSquareError", "PoleArgumentError", "PolyKind",
    "PrecisionContext", "PrefixCertificate", "PrefixTable", "RationalMatrix",
    "Residual", "SingularMatrixError", "SpecMismatchError",
    "build_system", "cauchy_binet", "certify_prefix_matrix", "coefficient_table",
    "density_grid", "det_exact", "difference_factorization",
    "elementary_prefix",
    "gamma_derivatives", "homogeneous_prefix", "inverse_exact", "prefix_matrix",
    "verify_grid", "verify_recovery",
]


def test_exports_are_pinned():
    public = [
        name
        for name in dir(gammalattice)
        if not name.startswith("_") and not inspect.ismodule(getattr(gammalattice, name))
    ]
    assert EXPORTS == sorted(EXPORTS)
    assert sorted(public) == EXPORTS


def _is_record(obj) -> bool:
    """A dataclass or a NamedTuple class: a record with typed fields."""
    named_tuple = isinstance(obj, type) and issubclass(obj, tuple)
    return dataclasses.is_dataclass(obj) or (named_tuple and hasattr(obj, "_fields"))


def _exported():
    for name in sorted(dir(gammalattice)):
        obj = getattr(gammalattice, name)
        if name.startswith("_") or obj is ArgumentFamily:
            continue
        if inspect.isfunction(obj) or _is_record(obj):
            yield name, obj


def _loose_family(name, annotation) -> bool:
    return name == "kappa" or "FamilyKind" in str(annotation)


def _record_fields(obj) -> dict:
    """A record's field names and annotations.  A NamedTuple's annotations are
    merged over its MRO: a record that checks its fields subclasses a
    NamedTuple of them, and its own `__annotations__` is empty."""
    if dataclasses.is_dataclass(obj):
        return {f.name: f.type for f in dataclasses.fields(obj)}
    return {
        field: annotation
        for cls in reversed(obj.__mro__)
        for field, annotation in vars(cls).get("__annotations__", {}).items()
    }


def _violations(name, obj):
    found = []
    if _is_record(obj):
        fields = _record_fields(obj)
        found += [
            f"{name}.{field}"
            for field, annotation in fields.items()
            if _loose_family(field, annotation)
        ]
        callables = [
            (f"{name}.{attr}", fn)
            for attr, fn in inspect.getmembers(obj, inspect.isfunction)
            if not attr.startswith("_")
        ]
    else:
        callables = [(name, obj)]
    for label, fn in callables:
        for param in inspect.signature(fn).parameters.values():
            if _loose_family(param.name, param.annotation):
                found.append(f"{label}({param.name})")
    return found


EXPORTED = list(_exported())


def test_walk_sees_the_entry_points():
    names = {name for name, _ in EXPORTED}
    entry_points = {"LatticeSpec", "coefficient_table", "verify_grid", "Residual"}
    assert entry_points <= names


@pytest.mark.parametrize("name,obj", EXPORTED, ids=[name for name, _ in EXPORTED])
def test_no_loose_family_argument(name, obj):
    assert _violations(name, obj) == []


RECORDS = [
    (name, getattr(gammalattice, name))
    for name in EXPORTS
    if _is_record(getattr(gammalattice, name))
]


def test_records_are_named_tuples():
    names = {name for name, _ in RECORDS}
    assert {"ArgumentFamily", "LatticeSpec", "RationalMatrix", "PrecisionContext"} <= names
    for name, obj in RECORDS:
        assert issubclass(obj, tuple) and not dataclasses.is_dataclass(obj), name


@pytest.mark.parametrize("name,obj", RECORDS, ids=[name for name, _ in RECORDS])
def test_guard_sees_every_record_field(name, obj):
    # a record whose fields the guard cannot read would pass it unchecked
    assert tuple(_record_fields(obj)) == obj._fields


def test_guard_catches_a_loose_pair():
    def coefficient(family: "FamilyKind", n: int, kappa=None):
        pass

    @dataclasses.dataclass
    class Report:
        family: "FamilyKind"
        kappa: object = None

    class Row(NamedTuple):
        family: "FamilyKind"
        kappa: object = None

    class CheckedRow(Row):
        __slots__ = ()

    assert _violations("coefficient", coefficient) == [
        "coefficient(family)", "coefficient(kappa)"
    ]
    assert _violations("Report", Report) == ["Report.family", "Report.kappa"]
    assert _violations("Row", Row) == ["Row.family", "Row.kappa"]
    assert _violations("CheckedRow", CheckedRow) == [
        "CheckedRow.family", "CheckedRow.kappa"
    ]


@pytest.mark.parametrize(
    "call",
    [
        lambda: LatticeSpec(FamilyKind.PLAIN, (1, 2)),
        lambda: coefficient_table(FamilyKind.PLAIN, 1, [2]),
        lambda: next(verify_grid(FamilyKind.PLAIN, 1, (2,), PrecisionContext())),
        lambda: verify_recovery(LatticeSpec(FamilyKind.PLAIN, (1, 2)), 2),
    ],
    ids=["LatticeSpec", "coefficient_table", "verify_grid", "verify_recovery"],
)
def test_bare_family_kind_is_a_spec_mismatch(call):
    with pytest.raises(SpecMismatchError, match="must be an ArgumentFamily") as info:
        call()
    assert "\n" not in str(info.value)
