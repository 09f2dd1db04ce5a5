"""The contract of the package's 17 records, whatever each is written as.

A record is built from its fields, by position or by keyword, with the
defaults its signature names.  Its repr is `Name(field=value, ...)`, it
equals and hashes as the tuple of its fields (and has no hash when that
tuple has none), a record that validates
rejects a bad field with its own message, no field can be assigned or
deleted, and a pickled or copied record equals the original.
"""

import copy
import pickle
from fractions import Fraction
from inspect import Parameter, signature

import pytest

from projchar.cli import CommandOutput
from projchar.projclass import ChernRing, ReductionData
from projchar.qpoly import LinearSolveResult, RationalPoly, Variable
from projchar.selftest import SuiteResult
from projchar.surfalg import (
    CanonicalityReport,
    HomologyClass,
    ParamElement,
    ParameterAlgebra,
    SurfaceRing,
)
from projchar.univdet import (
    ConditionReport,
    ConditionWitness,
    LineBundleWord,
    LineFactor,
    ModuliParams,
    ParabolicDatum,
    ParabolicPoint,
)

NO_DEFAULT = Parameter.empty


def x_squared(weight=1):
    x = Variable("x", weight)
    return RationalPoly((x,), {(2,): 1})


def half_point(label="x"):
    return ParabolicPoint(label, (1, 1), (Fraction(0), Fraction(1, 2)))


def algebra(max_degree=4):
    return ParameterAlgebra([("v", 1), ("u", 2)], max_degree)


def shift(coefficient=3):
    return ParamElement(algebra(), {(0, 1): coefficient})


# (record, make, make another, repr of make(), signature as (name, default),
#  rejections as (build, message))
RECORDS = [
    (
        Variable,
        lambda: Variable("x"),
        lambda: Variable("x", 2),
        "Variable(name='x', weight=1)",
        [("name", NO_DEFAULT), ("weight", 1)],
        [
            (lambda: Variable("1x"), "bad variable name '1x'"),
            (lambda: Variable("x", 0), "variable weight must be positive, got 0"),
        ],
    ),
    (
        LinearSolveResult,
        lambda: LinearSolveResult("unique", (Fraction(1, 2),)),
        lambda: LinearSolveResult("unique", (Fraction(1, 3),)),
        "LinearSolveResult(status='unique', solution=(Fraction(1, 2),))",
        [("status", NO_DEFAULT), ("solution", None)],
        [],
    ),
    (
        ChernRing,
        lambda: ChernRing(3),
        lambda: ChernRing(4),
        "ChernRing(rank=3)",
        [("rank", NO_DEFAULT)],
        [(lambda: ChernRing(0), "rank must be positive, got 0")],
    ),
    (
        ReductionData,
        lambda: ReductionData(2, 2, 1, x_squared()),
        lambda: ReductionData(2, 2, 1, x_squared(2)),
        "ReductionData(n=2, k=2, lam=1, P=RationalPoly(1*x^2))",
        [("n", NO_DEFAULT), ("k", NO_DEFAULT), ("lam", NO_DEFAULT), ("P", NO_DEFAULT)],
        [],
    ),
    (
        CommandOutput,
        lambda: CommandOutput({"a": 1}, ["l"], "t"),
        lambda: CommandOutput({"a": 1}, ["l"], "t", 1),
        "CommandOutput(result={'a': 1}, audit=['l'], text='t', status=0)",
        [("result", NO_DEFAULT), ("audit", NO_DEFAULT), ("text", NO_DEFAULT), ("status", 0)],
        [],
    ),
    (
        ParabolicPoint,
        half_point,
        lambda: half_point("y"),
        "ParabolicPoint(label='x', multiplicities=(1, 1),"
        " weights=(Fraction(0, 1), Fraction(1, 2)))",
        [("label", NO_DEFAULT), ("multiplicities", NO_DEFAULT), ("weights", NO_DEFAULT)],
        [],
    ),
    (
        ParabolicDatum,
        lambda: ParabolicDatum(),
        lambda: ParabolicDatum((half_point(),)),
        "ParabolicDatum(points=())",
        [("points", ())],
        [],
    ),
    (
        ModuliParams,
        lambda: ModuliParams(2, 1, 0),
        lambda: ModuliParams(2, 1, 0, ParabolicDatum((half_point(),))),
        "ModuliParams(n=2, d=1, g=0, datum=ParabolicDatum(points=()))",
        [("n", NO_DEFAULT), ("d", NO_DEFAULT), ("g", NO_DEFAULT), ("datum", ParabolicDatum())],
        [
            (lambda: ModuliParams(0, 1, 0), "rank must be positive, got 0"),
            (lambda: ModuliParams(2, 1, -1), "genus must be non-negative, got -1"),
            (
                lambda: ModuliParams(3, 1, 0, ParabolicDatum((half_point(),))),
                "'x': multiplicities sum to 2, expected 3",
            ),
        ],
    ),
    (
        LineFactor,
        lambda: LineFactor("det_u"),
        lambda: LineFactor("det_u", 1),
        "LineFactor(kind='det_u', twist=0, point='', flag_index=0)",
        [("kind", NO_DEFAULT), ("twist", 0), ("point", ""), ("flag_index", 0)],
        [],
    ),
    (
        LineBundleWord,
        lambda: LineBundleWord(((LineFactor("det_u", 1), 2),)),
        lambda: LineBundleWord(((LineFactor("det_u", 1), 3),)),
        "LineBundleWord(factors=((LineFactor(kind='det_u', twist=1, point='',"
        " flag_index=0), 2),))",
        [("factors", NO_DEFAULT)],
        [],
    ),
    (
        ConditionWitness,
        lambda: ConditionWitness("C1"),
        lambda: ConditionWitness("C2", "x", 1, 1),
        "ConditionWitness(condition='C1', point=None, flag_index=None, tail_rank=None)",
        [("condition", NO_DEFAULT), ("point", None), ("flag_index", None), ("tail_rank", None)],
        [],
    ),
    (
        ConditionReport,
        lambda: ConditionReport((ConditionWitness("C1"),)),
        lambda: ConditionReport(()),
        "ConditionReport(witnesses=(ConditionWitness(condition='C1', point=None,"
        " flag_index=None, tail_rank=None),))",
        [("witnesses", NO_DEFAULT)],
        [],
    ),
    (
        SurfaceRing,
        lambda: SurfaceRing(1),
        lambda: SurfaceRing(2),
        "SurfaceRing(genus=1)",
        [("genus", NO_DEFAULT)],
        [(lambda: SurfaceRing(-1), "genus must be non-negative, got -1")],
    ),
    (
        HomologyClass,
        lambda: HomologyClass(SurfaceRing(1), (1, 0, 1)),
        lambda: HomologyClass(SurfaceRing(1), (1, 1, 1)),
        "HomologyClass(ring=SurfaceRing(genus=1), key=(1, 0, 1))",
        [("ring", NO_DEFAULT), ("key", NO_DEFAULT)],
        [
            (
                lambda: HomologyClass(SurfaceRing(1), (1, 0, 2)),
                "(1, 0, 2) is not a basis key for genus 1",
            )
        ],
    ),
    (
        ParameterAlgebra,
        algebra,
        lambda: algebra(5),
        "ParameterAlgebra(generators=(('v', 1), ('u', 2)), max_degree=4)",
        [("generators", NO_DEFAULT), ("max_degree", NO_DEFAULT)],
        [
            (
                lambda: ParameterAlgebra([("v", 1), ("v", 2)], 2),
                "duplicate generator names: ['v', 'v']",
            ),
            (
                lambda: ParameterAlgebra([("v", 0)], 2),
                "generator degrees must be positive",
            ),
            (
                lambda: ParameterAlgebra([("v", 1)], -1),
                "max_degree must be non-negative, got -1",
            ),
        ],
    ),
    (
        CanonicalityReport,
        lambda: CanonicalityReport(True, None, 2, 1, shift()),
        lambda: CanonicalityReport(True, None, 2, 1, shift(4)),
        "CanonicalityReport(passed=True, first_failure=None, h1_checks=2, a_checks=1,"
        " h0_shift=ParamElement(3*u))",
        [
            ("passed", NO_DEFAULT),
            ("first_failure", NO_DEFAULT),
            ("h1_checks", NO_DEFAULT),
            ("a_checks", NO_DEFAULT),
            ("h0_shift", NO_DEFAULT),
        ],
        [],
    ),
    (
        SuiteResult,
        lambda: SuiteResult("qpoly", 3, 0, ()),
        lambda: SuiteResult("qpoly", 2, 1, ("check",)),
        "SuiteResult(name='qpoly', passed=3, failed=0, failures=())",
        [("name", NO_DEFAULT), ("passed", NO_DEFAULT), ("failed", NO_DEFAULT), ("failures", NO_DEFAULT)],
        [],
    ),
]

# CommandOutput is the one record that was built mutable; no caller assigns
# to it
FROZEN = [case for case in RECORDS if case[0] is not CommandOutput]


def over(records):
    return pytest.mark.parametrize(
        "record, make, make_other, text, params, rejections",
        records,
        ids=[case[0].__name__ for case in records],
    )


cases = over(RECORDS)


def test_every_record_is_covered():
    assert len(RECORDS) == 17
    assert len({case[0] for case in RECORDS}) == 17


@cases
def test_repr_names_every_field(record, make, make_other, text, params, rejections):
    assert repr(make()) == text


@cases
def test_signature_and_defaults(record, make, make_other, text, params, rejections):
    found = signature(record).parameters.values()
    assert [(p.name, p.default) for p in found] == params
    assert {p.kind for p in found} == {Parameter.POSITIONAL_OR_KEYWORD}
    value = make()
    fields = {name: getattr(value, name) for name, _ in params}
    assert record(**fields) == value
    assert record(*fields.values()) == value


@cases
def test_equality_and_hash_by_fields(record, make, make_other, text, params, rejections):
    a, b, other = make(), make(), make_other()
    assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object()
    fields = tuple(getattr(a, name) for name, _ in params)
    try:
        expected = hash(fields)
    except TypeError:  # a list, or a kernel element: no hash for the record either
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


@over([case for case in RECORDS if case[5]])
def test_validation_messages(record, make, make_other, text, params, rejections):
    for build, message in rejections:
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


@over(FROZEN)
def test_fields_cannot_be_assigned(record, make, make_other, text, params, rejections):
    value = make()
    for name, _ in params:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == make()


@cases
def test_pickle_and_copy_give_an_equal_record(
    record, make, make_other, text, params, rejections
):
    value = make()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is record and twin == value and repr(twin) == text
