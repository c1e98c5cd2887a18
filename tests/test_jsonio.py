"""Wire formats: canonical dumps and exact round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vsparse import (UNBOUNDED, CutCertificate, DemandSet, ExtensionOperator, Metric,
                     MetricCertificate, QualityReport, Sparsifier, WeightedGraph, all_pairs,
                     certificate_from_json, certificate_to_json, cut_metric,
                     operator_from_json, operator_to_json, report_from_json, report_to_json,
                     sparsifier_from_json, sparsifier_to_json)
from vsparse.jsonio import (
    JsonFormatError,
    demands_from_json,
    demands_to_json,
    dump_canonical,
    format_fraction,
    graph_from_json,
    graph_to_json,
    loads,
    metric_from_json,
    metric_to_json,
    parse_fraction,
)
from vsparse.sampling import random_graph, random_metric
from helpers import metric_sum

F = Fraction


@pytest.mark.parametrize("value,text", [
    (F(1, 2), "1/2"),
    (F(3), "3/1"),
    (F(0), "0/1"),
    (F(-7, 3), "-7/3"),
])
def test_fractions_always_carry_a_denominator(value, text):
    assert format_fraction(value) == text
    assert parse_fraction(text) == value


def test_parse_fraction_accepts_bare_integers():
    assert parse_fraction("5") == 5


@pytest.mark.parametrize("text,value", [("-0/3", F(0)), ("007/010", F(7, 10))])
def test_parse_fraction_accepts_signed_zero_and_leading_zeros(text, value):
    assert parse_fraction(text) == value


@pytest.mark.parametrize("bad", ["1/0", "a/b", "", "1/2/3", 3, None, True,
                                 "1.5", "1e3", " 1/2 ", "1_000", "\uff11/\uff12",
                                 "1e999999999", "1/2\n", "+1/2"])
def test_parse_fraction_rejects_garbage(bad):
    with pytest.raises(JsonFormatError):
        parse_fraction(bad)


def test_dump_canonical_is_sorted_indented_newline_terminated():
    text = dump_canonical({"b": 1, "a": [1, 2]})
    assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'


def test_loads_reports_position():
    with pytest.raises(JsonFormatError) as err:
        loads("{bad json")
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("text", [
    '{"n": 3, "edges": [], "edges": [[0, 1, "1/1"]]}',
    '[{"terminals": [0], "n": 1, "terminals": [0]}]',
], ids=["top-level", "nested"])
def test_loads_rejects_a_repeated_key(text):
    with pytest.raises(JsonFormatError, match="repeated object key '(edges|terminals)'"):
        loads(text)


# --- graphs ------------------------------------------------------------

def test_graph_round_trip_simple():
    g = WeightedGraph(4, [0, 2], {(0, 1): F(1, 2), (2, 3): 3})
    back = graph_from_json(graph_to_json(g))
    assert back == g


@pytest.mark.parametrize("seed", range(20))
def test_graph_round_trip_random(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 8), rng.randint(1, 4))
    data = graph_to_json(g)
    back = graph_from_json(data)
    assert back == g
    # byte-level stability of the canonical dump
    assert dump_canonical(data) == dump_canonical(graph_to_json(back))


@pytest.mark.parametrize("data,fragment", [
    ({"terminals": [0], "edges": []}, "missing required key 'n'"),
    ({"n": 2, "terminals": 0, "edges": []}, "terminals"),
    ({"n": 2, "terminals": [0], "edges": [[0, 1]]}, "expected [i, j, weight]"),
    ({"n": 2, "terminals": [0], "edges": [[0, 1, 0.5]]}, "rational"),
    ({"n": 2, "terminals": [0], "edges": [[0, 2, "1/1"]]}, "outside"),
    ({"n": "2", "terminals": [0], "edges": []}, "expected an integer"),
    ({"n": True, "terminals": [0], "edges": []}, "expected an integer"),
    ([], "expected an object"),
])
def test_graph_parse_errors_carry_paths(data, fragment):
    with pytest.raises(JsonFormatError) as err:
        graph_from_json(data)
    assert fragment in str(err.value)


def test_graph_json_shape_matches_wire_format():
    g = WeightedGraph(3, [2, 0], {(1, 2): F(5, 4)})
    assert graph_to_json(g) == {
        "n": 3,
        "terminals": [2, 0],
        "edges": [[1, 2, "5/4"]],
    }


# --- demands -----------------------------------------------------------

def test_demands_round_trip():
    ds = DemandSet([(0, 1, F(2, 3)), (1, 2, 1)])
    back = demands_from_json(demands_to_json(ds))
    assert back == ds
    assert demands_to_json(ds) == {"demands": [[0, 1, "2/3"], [1, 2, "1/1"]]}


@pytest.mark.parametrize("data,fragment", [
    ({}, "missing required key 'demands'"),
    ({"demands": [[0, 0, "1/1"]]}, "endpoints must differ"),
    ({"demands": [[0, 1, "-1/2"]]}, "negative"),
    ({"demands": [[0, 1]]}, "expected [s, t, demand]"),
])
def test_demands_parse_errors(data, fragment):
    with pytest.raises(JsonFormatError) as err:
        demands_from_json(data)
    assert fragment in str(err.value)


# --- metrics -----------------------------------------------------------

def test_metric_round_trip_cut_metric():
    d = cut_metric([0], 3)
    back = metric_from_json(metric_to_json(d))
    assert back.rows == d.rows


@pytest.mark.parametrize("seed", range(10))
def test_metric_round_trip_random(seed):
    rng = random.Random(50 + seed)
    d = random_metric(rng, rng.randint(1, 6))
    assert metric_from_json(metric_to_json(d)).rows == d.rows


@pytest.mark.parametrize("seed", range(10))
def test_metric_to_json_of_a_parsed_metric_reproduces_its_input(seed):
    rng = random.Random(70 + seed)
    m = rng.randint(0, 6)
    scale = rng.randint(1, 12)
    d = random_metric(rng, m).scale(F(rng.randint(0, 3), scale))
    text = dump_canonical([[format_fraction(v) for v in row] for row in d.rows])
    assert dump_canonical(metric_to_json(metric_from_json(loads(text)))) == text


def test_metric_parse_rejects_invalid_tables():
    with pytest.raises(JsonFormatError) as err:
        metric_from_json([["0/1", "1/1"], ["2/1", "0/1"]])
    assert "symmetry" in str(err.value)


def test_metric_parse_rejects_non_list():
    with pytest.raises(JsonFormatError):
        metric_from_json({"0": "0/1"})


# --- the row formats: integers, then one rational ---------------------------

ROW_FORMATS = [
    # parser, a document whose rows are at ``key``, their path, shape, a good row
    (graph_from_json, {"n": 3, "terminals": [0, 1]}, "edges", "graph.edges",
     "[i, j, weight]", [0, 2, "1/2"]),
    (demands_from_json, {}, "demands", "demands.demands", "[s, t, demand]", [0, 1, "1/2"]),
    (sparsifier_from_json, {"k": 2}, "beta", "sparsifier.beta", "[p, q, value]", [0, 1, "1/2"]),
    (operator_from_json, {"n": 3, "k": 2, "Q": "1/1"}, "coeffs", "operator.coeffs",
     "[i, j, p, q, value]", [0, 2, 0, 1, "1/2"]),
    (certificate_from_json,
     {"type": "cut", "graph": {"n": 2, "terminals": [0, 1], "edges": []}, "mu2": [[1, "1/1"]]},
     "mu1", "certificate.mu1", "[mask, probability]", [1, "1/1"]),
]


@pytest.mark.parametrize("parse,doc,key,where,shape,row", ROW_FORMATS,
                         ids=["graph", "demands", "sparsifier", "operator", "certificate"])
def test_every_row_format_reports_a_bad_row_at_its_path(parse, doc, key, where, shape, row):
    def fault(bad_row: list) -> JsonFormatError:
        with pytest.raises(JsonFormatError) as err:
            parse({**doc, key: [bad_row]})
        return err.value

    parse({**doc, key: [row]})
    path = f"{where}[0]"
    for bad_row in (row[:-1], row + [0]):
        err = fault(bad_row)
        assert (err.path, str(err)) == (
            path, f"{path}: expected {shape}, got {len(bad_row)} items")
    last = len(row) - 1
    for t in range(last):
        for bad in ("0", True, 0.0):
            err = fault(row[:t] + [bad] + row[t + 1:])
            assert (err.path, str(err)) == (
                f"{path}[{t}]", f"{path}[{t}]: expected an integer, got {bad!r}")
    err = fault(row[:last] + ["1/0"])
    assert err.path == f"{path}[{last}]" and "bad rational '1/0'" in str(err)


# --- round trips of every artifact type ------------------------------------------

ratios = st.builds(F, st.integers(0, 40), st.integers(1, 12))


@st.composite
def graphs(draw, k=None):
    n = draw(st.integers(1, 6) if k is None else st.integers(k, k + 3))
    order = draw(st.permutations(range(n)))
    terminals = order[:draw(st.integers(1, n)) if k is None else k]
    pairs = all_pairs(n)
    weights = draw(st.dictionaries(st.sampled_from(pairs), ratios)) if pairs else {}
    return WeightedGraph(n, terminals, weights)


@st.composite
def metrics(draw, m):
    """A nonnegative combination of cut metrics on m points."""
    draws = draw(st.lists(st.tuples(st.integers(0, (1 << m) - 1), ratios), max_size=4))
    return metric_sum(m, [cut_metric([p for p in range(m) if mask >> p & 1], m).scale(w)
                          for mask, w in draws])


@st.composite
def demand_sets(draw):
    rows = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), ratios), max_size=5))
    return DemandSet([(s, t, dem) for s, t, dem in rows if s != t])


@st.composite
def sparsifiers(draw):
    k = draw(st.integers(1, 5))
    pairs = all_pairs(k)
    return Sparsifier(k, draw(st.dictionaries(st.sampled_from(pairs), ratios)) if pairs else {})


@st.composite
def operators(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, k + 2))
    entries = [(xp, yp) for xp in all_pairs(n) if xp[1] >= k for yp in all_pairs(k)]
    coeffs = draw(st.dictionaries(st.sampled_from(entries), ratios)) if entries else {}
    return ExtensionOperator(n, k, coeffs, distortion=draw(ratios))


@st.composite
def reports(draw):
    semantics = draw(st.sampled_from(["cut", "metric", "flow"]))
    k = draw(st.integers(1, 4))
    witness = {"cut": st.integers(0, (1 << k) - 1), "metric": metrics(k),
               "flow": demand_sets()}[semantics]
    return QualityReport(semantics, draw(st.one_of(st.none(), st.just(UNBOUNDED), ratios)),
                         draw(st.one_of(st.none(), st.booleans())),
                         draw(st.one_of(st.none(), witness)),
                         draw(st.sampled_from(["exact", "sampled"])))


@st.composite
def distributions(draw, k):
    masks = draw(st.lists(st.tuples(st.integers(0, (1 << k) - 1), st.integers(1, 9)),
                          min_size=1, max_size=4))
    total = sum(w for _, w in masks)
    return [(mask, F(w, total)) for mask, w in masks]


@st.composite
def certificates(draw):
    k = draw(st.integers(1, 4))
    g = draw(graphs(k))
    if draw(st.booleans()):
        return CutCertificate(g, draw(distributions(k)), draw(distributions(k)))
    return MetricCertificate(g, draw(st.lists(metrics(k), min_size=1, max_size=3)))


@pytest.mark.parametrize("artifacts,to_json,from_json", [
    (graphs(), graph_to_json, graph_from_json),
    (demand_sets(), demands_to_json, demands_from_json),
    (st.integers(1, 5).flatmap(metrics), metric_to_json, metric_from_json),
    (sparsifiers(), sparsifier_to_json, sparsifier_from_json),
    (operators(), operator_to_json, operator_from_json),
    (reports(), report_to_json, report_from_json),
    (certificates(), certificate_to_json, certificate_from_json),
], ids=["graph", "demands", "metric", "sparsifier", "operator", "report", "certificate"])
def test_every_artifact_round_trips_byte_for_byte(artifacts, to_json, from_json):
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(artifacts)
    def round_trip(x):
        text = dump_canonical(to_json(x))
        back = from_json(loads(text))
        assert back == x
        assert dump_canonical(to_json(back)) == text

    round_trip()
