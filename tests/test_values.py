"""Value semantics of the package's objects: equality, hashing, read-only
fields and repr, as callers rely on them."""

import copy
import pickle
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
    min_extension,
    zero_extension_operator,
)
from vsparse import lp
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
        (terminal_pair_lp(g, "max", {(0, 1): F(1)}), "witness"),
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


def test_lp_outcome_equality_ignores_tableau_and_duals():
    program = lp.LinearProgram(2, "max", {0: 1, 1: 2})
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
