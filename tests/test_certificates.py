"""Cut and metric certificates: verification, soundness, and wire format."""

import random
from fractions import Fraction

import pytest

from vsparse import certificates
from vsparse.core import bipartitions
from vsparse import (
    CutCertificate,
    MetricCertificate,
    Metric,
    Sparsifier,
    WeightedGraph,
    canonicalize,
    certificate_from_json,
    certificate_to_json,
    certify_cut,
    certify_metric,
    cut_metric,
    cut_quality,
    find_optimal_operator,
    harvest_certificate,
    metric_quality_upper,
    min_extension,
    operator_to_sparsifier,
)
from vsparse.jsonio import JsonFormatError, dump_canonical
from vsparse.sampling import random_fraction, random_graph, random_metric
from helpers import metric_sum, path3, triangle_y, unit_star

F = Fraction


def singleton_distribution(k):
    return [(1 << p, F(1, k)) for p in range(k)]


def random_distribution(rng: random.Random, k: int, size: int):
    masks = [rng.randrange(1 << k) for _ in range(size)]
    weights = [random_fraction(rng, min_num=1) for _ in masks]
    total = sum(weights)
    return [(m, w / total) for m, w in zip(masks, weights)]


def solved_sparsifier(g: WeightedGraph):
    report = find_optimal_operator(g)
    assert report.converged
    return report, operator_to_sparsifier(report.operator, g)


# --- cut certificates ----------------------------------------------------

def test_identical_distributions_certify_one():
    cert = CutCertificate(unit_star(3), singleton_distribution(3), singleton_distribution(3))
    assert certify_cut(cert) == 1


def test_point_masses_certify_one():
    cert = CutCertificate(path3(), [(1, 1)], [(1, 1)])
    assert certify_cut(cert) == 1


def test_star4_pairs_versus_singletons():
    # mu1: the three 2-2 splits, each min cut 2, so E1 = 2; mu2: the four
    # singletons, E2 = 1. Pair (0,1) is split by {0,2} and {0,3} under mu1
    # (2/3) and by {0} under mu2 (1/4), the worst ratio: c = 8/3. The
    # certificate is E1 / (c * E2) = 3/4.
    g = unit_star(4)
    mu1 = [(0b0011, F(1, 3)), (0b0101, F(1, 3)), (0b1001, F(1, 3))]
    mu2 = singleton_distribution(4)
    assert certify_cut(CutCertificate(g, mu1, mu2)) == F(3, 4)


def test_unmatchable_separation_certifies_nothing():
    # mu1 separates (1, 0) but no mu2 subset contains 1 without 0
    g = unit_star(4)
    mu1 = singleton_distribution(4)
    mu2 = [(0b0011, F(1, 3)), (0b0101, F(1, 3)), (0b1001, F(1, 3))]
    assert certify_cut(CutCertificate(g, mu1, mu2)) is None


def test_empty_and_full_subsets_certify_nothing():
    g = unit_star(3)
    trivial = [(0, F(1, 2)), ((1 << 3) - 1, F(1, 2))]
    assert certify_cut(CutCertificate(g, trivial, singleton_distribution(3))) is None


def test_cut_certificate_scale_invariance():
    mu1 = [(0b0011, F(1, 3)), (0b0101, F(1, 3)), (0b1001, F(1, 3))]
    mu2 = singleton_distribution(4)
    scaled = WeightedGraph(5, range(4), {(t, 4): 5 for t in range(4)})
    assert certify_cut(CutCertificate(scaled, mu1, mu2)) == F(3, 4)


def test_cut_certificate_complement_invariance():
    g = unit_star(4)
    full = (1 << 4) - 1
    mu1 = [(full ^ 0b0011, F(1, 3)), (full ^ 0b0101, F(1, 3)), (full ^ 0b1001, F(1, 3))]
    mu2 = [(full ^ (1 << p), F(1, 4)) for p in range(4)]
    assert certify_cut(CutCertificate(g, mu1, mu2)) == F(3, 4)


def test_cut_certificate_runs_one_flow_per_bipartition(monkeypatch):
    # mu2 holds each side of mu1 and its complement, so the two share masks
    # and complements: three bipartitions in all, each cut once, keyed by
    # the side holding terminal 0
    g, _ = canonicalize(random_graph(random.Random(7), 7, 4))
    mu1 = [(0b0011, F(1, 2)), (0b0100, F(1, 4)), (0b1101, F(1, 4))]
    mu2 = [(mask, F(1, 6)) for mask in (0b0011, 0b1100, 0b0100, 0b1011, 0b1101, 0b0010)]
    real, sides = certificates.min_cut_via_flow, []

    def counted(g, side):
        sides.append(side)
        return real(g, side)

    monkeypatch.setattr(certificates, "min_cut_via_flow", counted)
    got = certify_cut(CutCertificate(g, mu1, mu2))
    assert sides == [[0, 1], [0, 1, 3], [0, 2, 3]]
    # the bound with every mask's own side cut by its own flow
    def side_of(mask):
        return [p for p in range(g.k) if mask >> p & 1]

    def separating(mu, p, q):
        return sum(prob for mask, prob in mu if mask >> p & 1 and not mask >> q & 1)

    e1, e2 = (sum(prob * real(g, side_of(mask)) for mask, prob in mu) for mu in (mu1, mu2))
    c = max(separating(mu1, p, q) / separating(mu2, p, q)
            for p in range(g.k) for q in range(g.k) if p != q)
    assert got is not None and got == e1 / (c * e2)


def test_duplicate_masks_merge():
    cert = CutCertificate(path3(), [(1, F(1, 2)), (1, F(1, 2))], [(1, 1)])
    assert cert.mu1 == ((1, F(1)),)


@pytest.mark.parametrize("mu,fragment", [
    ([(4, 1)], "outside"),
    ([(1, F(-1, 2)), (2, F(3, 2))], "negative"),
    ([(1, F(1, 2))], "sum to"),
    ([], "empty"),
])
def test_cut_certificate_validation(mu, fragment):
    with pytest.raises(ValueError, match=fragment):
        CutCertificate(path3(), mu, [(1, 1)])


@pytest.mark.parametrize("seed", range(8))
def test_random_cut_certificates_are_sound(seed):
    # any certified bound is beaten by no sparsifier that dominates the
    # min cuts; a collapsed optimal operator is such a sparsifier
    rng = random.Random(seed)
    g, _ = canonicalize(random_graph(rng, rng.randint(3, 5), rng.randint(2, 3)))
    _, beta = solved_sparsifier(g)
    achieved = cut_quality(g, beta).q_value
    checked = 0
    for _ in range(6):
        mu1 = random_distribution(rng, g.k, rng.randint(1, 4))
        mu2 = random_distribution(rng, g.k, rng.randint(1, 4))
        bound = certify_cut(CutCertificate(g, mu1, mu2))
        if bound is not None:
            checked += 1
            assert bound <= achieved
    assert checked or seed  # seed 0 must exercise the bound at least once


# --- metric certificates -------------------------------------------------

def test_single_metric_certifies_one():
    cert = MetricCertificate(unit_star(3), [cut_metric([0], 3)])
    assert certify_metric(cert) == 1


def test_repeated_metric_certifies_one():
    d = cut_metric([0, 1], 3)
    assert certify_metric(MetricCertificate(unit_star(3), [d, d])) == 1


def test_zero_extension_family_certifies_nothing():
    g = WeightedGraph(4, [0, 1], {(0, 2): 1, (1, 3): 1})
    cert = MetricCertificate(g, [cut_metric([0], 2)])
    assert certify_metric(cert) is None


def test_metric_certificate_scaling_invariance():
    g = unit_star(3)
    family = [cut_metric([0], 3), cut_metric([0, 1], 3)]
    base = certify_metric(MetricCertificate(g, family))
    for c in (F(2), F(1, 3)):
        scaled = [Metric([[c * d.dist(p, q) for q in range(3)] for p in range(3)])
                  for d in family]
        assert certify_metric(MetricCertificate(g, scaled)) == base


@pytest.fixture
def lp_extensions(monkeypatch):
    """The metrics certificates hands to the min_extension LP, in order."""
    real, calls = certificates.min_extension, []

    def counted(g, d):
        calls.append(d)
        return real(g, d)

    monkeypatch.setattr(certificates, "min_extension", counted)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_scaled_cut_metrics_take_the_min_cut_closed_form(seed, lp_extensions):
    rng = random.Random(seed)
    g, _ = canonicalize(random_graph(rng, rng.randint(4, 6), rng.randint(2, 4)))
    for mask in range(1, (1 << g.k) - 1):
        side = [p for p in range(g.k) if mask >> p & 1]
        for c in (F(1), F(rng.randint(1, 9), rng.randint(1, 4))):
            d = cut_metric(side, g.k).scale(c)
            scale, read = certificates._cut_scale(d)
            assert scale == c and cut_metric(read, g.k) == cut_metric(side, g.k)
            assert certificates._min_extension_value(g, d) == min_extension(g, d).value
    assert not lp_extensions


def test_other_metrics_go_to_the_lp(lp_extensions):
    g = unit_star(3)
    others = [Metric([[0] * 3] * 3), Metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]]),
              Metric([[0, 1, 1], [1, 0, 1], [1, 1, 0]]), metric_sum(3, [cut_metric([0], 3), cut_metric([1], 3)])]
    for d in others:
        assert certificates._cut_scale(d) is None
        assert certificates._min_extension_value(g, d) == min_extension(g, d).value
    assert lp_extensions == others


@pytest.mark.parametrize("seed", range(20))
def test_cut_scale_reads_exactly_the_scaled_cut_metrics(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 4)
    d = random_metric(rng, k, max_num=2, max_den=1)
    cuts = [(d.dist(p, q), side) for _, side in bipartitions(k)
            for p in side for q in range(k) if q not in side]
    expected = any(c > 0 and d == cut_metric(side, k).scale(c) for c, side in cuts)
    assert (certificates._cut_scale(d) is not None) == expected


def test_certify_metric_solves_lps_only_off_the_cut_metrics(lp_extensions):
    g = unit_star(3)
    cut, path = cut_metric([0], 3).scale(2), Metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    bound = certify_metric(MetricCertificate(g, [cut, path]))
    total = metric_sum(3, [cut, path])
    assert lp_extensions == [path, total]
    values = [min_extension(g, d).value for d in (cut, path, total)]
    assert bound == (values[0] + values[1]) / values[2]
    lp_extensions.clear()
    assert certify_metric(MetricCertificate(g, [cut, cut_metric([0], 3)])) == 1
    assert not lp_extensions


def test_metric_certificate_validation():
    with pytest.raises(ValueError, match="at least one"):
        MetricCertificate(unit_star(3), [])
    with pytest.raises(ValueError, match="points"):
        MetricCertificate(unit_star(3), [cut_metric([0], 4)])


@pytest.mark.parametrize("seed", range(8))
def test_random_metric_certificates_are_sound(seed):
    rng = random.Random(seed)
    g, _ = canonicalize(random_graph(rng, rng.randint(3, 5), rng.randint(2, 3)))
    report, beta = solved_sparsifier(g)
    assert metric_quality_upper(g, beta).q_value == report.q
    for _ in range(4):
        family = [random_metric(rng, g.k) for _ in range(rng.randint(1, 3))]
        bound = certify_metric(MetricCertificate(g, family))
        if bound is not None:
            assert 1 <= bound <= report.q


# --- harvesting ----------------------------------------------------------

def test_harvest_identity_instance():
    report = find_optimal_operator(triangle_y())
    cert = harvest_certificate(report)
    assert cert.graph == report.graph
    assert certify_metric(cert) == 1


def test_harvest_path_instance():
    assert certify_metric(harvest_certificate(find_optimal_operator(path3()))) == 1


def test_harvest_star_instance():
    # the three binding cut metrics sum to the uniform metric, whose
    # extension costs exactly the sum of the three min cuts
    report = find_optimal_operator(unit_star(3))
    cert = harvest_certificate(report)
    assert len(cert.metrics) == 3
    assert certify_metric(cert) == 1


def test_harvest_requires_convergence_and_material():
    report = find_optimal_operator(unit_star(3))
    with pytest.raises(ValueError, match="converged"):
        harvest_certificate(report.replace(converged=False))
    with pytest.raises(ValueError, match="worst metrics"):
        harvest_certificate(report.replace(worst_metrics=()))


@pytest.mark.parametrize("seed", range(6))
def test_harvested_bound_between_one_and_q(seed):
    rng = random.Random(seed)
    g, _ = canonicalize(random_graph(rng, rng.randint(3, 6), rng.randint(2, 3)))
    report = find_optimal_operator(g)
    bound = certify_metric(harvest_certificate(report))
    assert bound is not None
    assert 1 <= bound <= report.q


# --- wire format ----------------------------------------------------------

def test_cut_certificate_json_shape():
    cert = CutCertificate(path3(), [(1, 1)], [(1, F(1, 2)), (2, F(1, 2))])
    assert certificate_to_json(cert) == {
        "type": "cut",
        "graph": {
            "n": 3,
            "terminals": [0, 1],
            "edges": [[0, 2, "1/1"], [1, 2, "1/1"]],
        },
        "mu1": [[1, "1/1"]],
        "mu2": [[1, "1/2"], [2, "1/2"]],
    }


def test_cut_certificate_round_trip():
    cert = CutCertificate(unit_star(4),
                          [(0b0011, F(1, 3)), (0b0101, F(1, 3)), (0b1001, F(1, 3))],
                          singleton_distribution(4))
    again = certificate_from_json(certificate_to_json(cert))
    assert again == cert
    assert dump_canonical(certificate_to_json(again)) == dump_canonical(certificate_to_json(cert))


def test_metric_certificate_round_trip():
    cert = harvest_certificate(find_optimal_operator(unit_star(3)))
    again = certificate_from_json(certificate_to_json(cert))
    assert again == cert
    assert certify_metric(again) == certify_metric(cert)


@pytest.mark.parametrize("mangle,fragment", [
    (lambda d: d.pop("graph"), "missing"),
    (lambda d: d.update(type="flow"), "unknown certificate type"),
    (lambda d: d.pop("mu2"), "missing required key 'mu2'"),
    (lambda d: d.update(mu1=[[1]]), "expected [mask, probability]"),
    (lambda d: d.update(mu1=[["1", "1/1"]]), "expected an integer"),
    (lambda d: d.update(mu1=[[1, "1/0"]]), "bad rational"),
    (lambda d: d.update(mu1=[[9, "1/1"]]), "outside"),
    (lambda d: d.update(mu1=[[1, "1/3"]]), "sum to"),
])
def test_cut_certificate_json_errors(mangle, fragment):
    data = certificate_to_json(CutCertificate(path3(), [(1, 1)], [(1, 1)]))
    mangle(data)
    with pytest.raises(JsonFormatError) as err:
        certificate_from_json(data)
    assert fragment in str(err.value)


def test_metric_certificate_json_errors():
    data = certificate_to_json(MetricCertificate(path3(), [cut_metric([0], 2)]))
    del data["metrics"]
    with pytest.raises(JsonFormatError, match="missing required key 'metrics'"):
        certificate_from_json(data)
    data = certificate_to_json(MetricCertificate(path3(), [cut_metric([0], 2)]))
    data["metrics"] = []
    with pytest.raises(JsonFormatError, match="at least one"):
        certificate_from_json(data)
    data = certificate_to_json(MetricCertificate(path3(), [cut_metric([0], 2)]))
    data["metrics"][0][0][1] = "2/1"
    with pytest.raises(JsonFormatError, match="triangle|symmetry|metric"):
        certificate_from_json(data)
