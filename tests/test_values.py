"""Value semantics of the package's objects: equality, hashing, read-only
fields and repr, as callers rely on them."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from vsparse import (
    CutCertificate,
    DemandSet,
    ExtensionOperator,
    Metric,
    MetricCertificate,
    QualityReport,
    Sparsifier,
    WeightedGraph,
    best_zero_extension,
    cut_metric,
    find_optimal_operator,
    min_extension,
    zero_extension_operator,
)
from vsparse import lp
from vsparse.core import Record
from vsparse.extension import terminal_pair_lp
from vsparse.operators import MembershipViolation
from helpers import path3

F = Fraction


def equal_pairs():
    """(a, b, c): a and b are equal values built differently, c differs."""
    return [
        (Metric([[0, "1/2"], ["1/2", 0]]), Metric.from_integers([[0, 2], [2, 0]], 4),
         Metric([[0, 1], [1, 0]])),
        (WeightedGraph(3, (0, 1), {(0, 2): 1, (1, 2): 2}),
         WeightedGraph(3, [0, 1], [(2, 1, 2), (2, 0, "1")]),
         WeightedGraph(3, (1, 0), {(0, 2): 1, (1, 2): 2})),
        (DemandSet([(0, 1, 1), (1, 2, F(1, 2))]), DemandSet([(0, 1, "1"), (1, 2, "1/2")]),
         DemandSet([(1, 2, F(1, 2)), (0, 1, 1)])),
        (CutCertificate(path3(), [(1, 1)], [(1, 1)]),
         CutCertificate(path3(), [(1, F(1, 2)), (1, F(1, 2))], [(1, "1")]),
         CutCertificate(path3(), [(1, 1)], [(2, 1)])),
        (MetricCertificate(path3(), [cut_metric([0], 2)]),
         MetricCertificate(path3(), (d for d in [cut_metric([1], 2)])),
         MetricCertificate(path3(), [cut_metric([0], 2).scale(2)])),
    ]


@pytest.mark.parametrize("a, b, c", equal_pairs(), ids=lambda v: type(v).__name__)
def test_equal_values_compare_and_hash_equal(a, b, c):
    assert a == b and hash(a) == hash(b)
    assert a != c and b != c
    assert {a, b, c} == {a, c}


def test_value_compares_unequal_to_other_types():
    d = Metric([[0, 1], [1, 0]])
    assert d != d.integers and d != "Metric"
    assert DemandSet([]) != ()


@pytest.mark.parametrize("value", [
    Sparsifier(2, {(0, 1): 1}),
    min_extension(path3(), cut_metric([0], 2)),
], ids=lambda v: type(v).__name__)
def test_values_holding_mutable_fields_are_unhashable(value):
    with pytest.raises(TypeError):
        hash(value)


def test_sparsifiers_still_compare():
    assert Sparsifier(2, {(0, 1): 1}) == Sparsifier(2, {(1, 0): "1"})
    assert Sparsifier(2, {(0, 1): 1}) != Sparsifier(2, {(0, 1): 2})


def read_only():
    """(object, one of its fields) for every read-only class of the package."""
    g, d = path3(), cut_metric([0], 2)
    return [
        (d, "integers"),
        (g, "weights"),
        (Sparsifier(2, {(0, 1): 1}), "beta"),
        (DemandSet([(0, 1, 1)]), "demands"),
        (zero_extension_operator(3, 2, [0, 1, 0]), "distortion"),
        (CutCertificate(g, [(1, 1)], [(1, 1)]), "mu1"),
        (MetricCertificate(g, [d]), "metrics"),
        (min_extension(g, d), "value"),
        (terminal_pair_lp(g, {(0, 1): F(1)}), "witness"),
        (best_zero_extension(g, d), "cost"),
        (MembershipViolation((0, 1, 2), cut_metric([0], 3), F(1)), "excess"),
        (QualityReport("flow", F(1), True, None, "exact"), "q_value"),
    ]


@pytest.mark.parametrize("obj, name", read_only(), ids=lambda v: type(v).__name__)
def test_fields_of_read_only_classes_refuse_assignment(obj, name):
    before = getattr(obj, name)
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    with pytest.raises(AttributeError):
        delattr(obj, name)
    assert getattr(obj, name) is before


@pytest.mark.parametrize("obj, name", read_only(), ids=lambda v: type(v).__name__)
def test_read_only_values_pickle_and_copy(obj, name):
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is type(obj) and twin == obj
        assert getattr(twin, name) == getattr(obj, name)


def built_by_the_base_constructor():
    """One object of each class whose fields the base constructor sets. A
    Metric is built there too, but its constructor takes a table, not the
    integers it stores, so its ``replace`` is tested on its own."""
    program = lp.LinearProgram(1, {0: 1})
    return [*[obj for obj, _ in read_only() if not isinstance(obj, Metric)],
            find_optimal_operator(path3()), lp.cutting_plane(program, lambda out: None)]


@pytest.mark.parametrize("obj", built_by_the_base_constructor(), ids=lambda v: type(v).__name__)
def test_fields_are_given_positionally_or_by_name(obj):
    cls, values = type(obj), obj._values()
    named = dict(zip(cls._fields, values))
    assert cls(*values) == obj == cls(**named)
    assert obj.replace() == obj
    first = cls._fields[0]
    for call in (lambda: cls(**{name: v for name, v in named.items() if name != first}),
                 lambda: cls(*values, None),
                 lambda: cls(*values, nonfield=None),
                 lambda: cls(*values, **{first: values[0]})):
        with pytest.raises(TypeError):
            call()


def test_base_constructor_names_what_is_wrong():
    class Pair(Record):
        __slots__ = _fields = ("left", "right")

    assert Pair(1, right=2) == Pair(left=1, right=2) == Pair(1, 2)
    for args, named, message in [((1,), {}, "Pair is missing field(s) right"),
                                 ((1, 2, 3), {}, "Pair takes 2 fields, got 3 positional"),
                                 ((1, 2), {"middle": 3}, "Pair has no field 'middle'"),
                                 ((1,), {"left": 2}, "Pair got field 'left' twice")]:
        with pytest.raises(TypeError, match=re.escape(message)):
            Pair(*args, **named)


def test_lp_outcome_equality_ignores_tableau_and_duals():
    program = lp.LinearProgram(2, {0: -1, 1: -2})
    program.add_constraint({0: 1, 1: 1}, lp.LE, 3)
    out = lp.solve(program)
    assert out.tableau is not None and out.dual_source is not None
    plain = lp.LpOutcome(out.status, out.value, out.point, out.direction)
    assert out == plain and plain == out
    assert out != lp.LpOutcome(out.status, out.value + 1, out.point, out.direction)
    with pytest.raises(TypeError):
        hash(out)
    out.tableau = None  # results of the solver stay writable
    assert out == plain


def test_extension_operator_equality_compares_distortion_but_hash_ignores_it():
    phi = zero_extension_operator(3, 2, [0, 1, 0])
    same = ExtensionOperator(phi.n, phi.k, dict(phi.coeffs))
    rated = ExtensionOperator(phi.n, phi.k, phi.coeffs, distortion=1)
    assert phi == same and hash(phi) == hash(same)
    assert phi != rated and hash(phi) == hash(rated)
    assert rated == ExtensionOperator(phi.n, phi.k, phi.coeffs, distortion="1")


def test_reprs_name_the_compared_fields():
    report = QualityReport("flow", F(1), True, None, "exact")
    assert repr(report) == ("QualityReport(semantics='flow', q_value=Fraction(1, 1), "
                            "lower_ok=True, witness=None, completeness='exact')")
    assert repr(lp.LpOutcome(lp.OPTIMAL, F(1), ([1], 1))) == \
        "LpOutcome(status='optimal', value=Fraction(1, 1), point=([1], 1), direction=None)"
    assert repr(DemandSet([(0, 1, 1)])) == "DemandSet(demands=((0, 1, Fraction(1, 1)),))"


def test_replace_copies_through_the_constructor():
    report = QualityReport("flow", F(1), True, None, "exact")
    assert report.replace(q_value=F(2)) == QualityReport("flow", F(2), True, None, "exact")
    assert report.q_value == 1
    with pytest.raises(TypeError):
        report.replace(witnes=None)
    with pytest.raises(ValueError, match="negative"):  # the constructor validates again
        DemandSet([(0, 1, 1)]).replace(demands=[(0, 1, -1)])


def test_metric_replace_builds_through_from_integers():
    d = cut_metric([0], 3)
    assert d.replace() == d and d.replace(integers=d.integers) == d
    assert d.replace(integers=(((0, 2, 2), (2, 0, 0), (2, 0, 0)), 4)) == d.scale(F(1, 2))
    with pytest.raises(ValueError, match="triangle"):  # validated as a new metric is
        d.replace(integers=(((0, 3, 1), (3, 0, 1), (1, 1, 0)), 1))
    with pytest.raises(TypeError, match="unexpected keyword argument 'table'"):
        d.replace(table=[[0]])
