"""The acceptance gate: ten exact criteria, one test and one verdict line each.

Every comparison is exact rational arithmetic; nothing is checked within a
tolerance. Run with -s to see the verdict lines as they print.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from vsparse import (
    CutCertificate,
    MetricCertificate,
    Sparsifier,
    alpha_cost,
    canonicalize,
    certify_cut,
    certify_metric,
    cut_metric,
    cut_quality,
    evaluate_operator_distortion,
    find_optimal_operator,
    harvest_certificate,
    lp,
    max_concurrent_flow,
    metric_quality_upper,
    min_cut_by_enumeration,
    min_cut_via_flow,
    min_extension,
    operator_to_sparsifier,
    report_from_json,
    sparsifier_to_json,
    zero_extension_operator,
)
from vsparse.cli import main
from vsparse.core import Metric
from vsparse.jsonio import dump_canonical, graph_to_json, loads
from vsparse.operators import operator_to_json
from vsparse.sampling import random_demands, random_fraction, random_graph, random_metric
from helpers import apply, path3, triangle_y, unit_star

F = Fraction


def _grade(num: int, name: str, failures: list) -> None:
    verdict = "FAIL" if failures else "PASS"
    print(f"criterion {num:02d} {verdict} {name}")
    assert not failures, f"criterion {num:02d} {name}: {failures[:3]}"


def _bipartitions(k: int):
    for mask in range((1 << (k - 1)) - 1):
        side_mask = (mask << 1) | 1
        yield side_mask, [p for p in range(k) if side_mask >> p & 1]


@pytest.fixture(scope="module")
def solved():
    """A shared pool of solved instances: named graphs plus seeded random ones."""
    rng = random.Random(12345)
    graphs = [path3(), unit_star(3), triangle_y(),
              random_graph(rng, 5, 3), random_graph(rng, 6, 3)]
    pool = []
    for g_raw in graphs:
        g, _ = canonicalize(g_raw)
        report = find_optimal_operator(g)
        assert report.converged
        pool.append((g, report, operator_to_sparsifier(report.operator, g)))
    return pool


def test_criterion_01_identity_instances():
    failures = []
    rng = random.Random(101)
    start = time.monotonic()
    for trial in range(50):
        n = rng.randint(3, 8)
        g, _ = canonicalize(random_graph(rng, n, n))
        report = find_optimal_operator(g)
        beta = operator_to_sparsifier(report.operator, g)
        if report.q != 1 or beta.beta != dict(g.weights):
            failures.append((trial, n, report.q))
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    _grade(1, "identity-instances-q1-beta-alpha", failures)


def test_criterion_02_two_terminal_instances():
    failures = []
    rng = random.Random(202)
    for trial in range(100):
        n = rng.randint(3, 8)
        g, _ = canonicalize(random_graph(rng, n, 2))
        report = find_optimal_operator(g)
        beta = operator_to_sparsifier(report.operator, g)
        mincut = min_cut_via_flow(g, [0])
        if report.q != 1 or beta.beta.get((0, 1), F(0)) != mincut:
            failures.append((trial, n, report.q, beta.beta))
    _grade(2, "two-terminals-q1-beta-is-mincut", failures)


def test_criterion_03_mincut_lp_integrality():
    failures = []
    rng = random.Random(303)
    for trial in range(100):
        k = rng.randint(2, 5)
        n = rng.randint(k, 8)
        g = random_graph(rng, n, k, connected=False)
        for side_mask, side in _bipartitions(k):
            lp_val = min_extension(g, cut_metric(side, k)).value
            cut_val = min_cut_via_flow(g, side)
            if lp_val != cut_val:
                failures.append((trial, side_mask, lp_val, cut_val))
    _grade(3, "mincut-lp-integral-on-every-bipartition", failures)


def test_criterion_04_star_optimal_cut_sparsifier(tmp_path):
    failures = []
    g = unit_star(3)
    pairs = [(0, 1), (0, 2), (1, 2)]
    # brute force: minimize q subject to cut(S) <= beta(delta_S) <= q * cut(S)
    # over all bipartitions, with the cuts from the enumeration route
    prog = lp.LinearProgram(4, {3: F(1)})
    for _, side in _bipartitions(3):
        cut = min_cut_by_enumeration(g, side)
        inside = set(side)
        crossing = {a: F(1) for a, (p, q) in enumerate(pairs)
                    if (p in inside) != (q in inside)}
        prog.add_constraint(crossing, lp.GE, cut)
        upper = dict(crossing)
        upper[3] = -cut
        prog.add_constraint(upper, lp.LE, 0)
    out = lp.solve(prog)
    lp.audit(prog, out)
    if out.value != 1:
        failures.append(("lp-value", out.value))
    best = Sparsifier(3, {pairs[a]: out.x[a] for a in range(3)})
    if best.beta != {(0, 1): F(1, 2), (0, 2): F(1, 2), (1, 2): F(1, 2)}:
        failures.append(("beta", best.beta))

    report = cut_quality(g, best)
    if report.q_value != 1 or report.lower_ok is not True:
        failures.append(("library-report", report))
    graph_file = tmp_path / "star.json"
    graph_file.write_text(dump_canonical(graph_to_json(g)), encoding="utf-8")
    beta_file = tmp_path / "beta.json"
    beta_file.write_text(dump_canonical(sparsifier_to_json(best)), encoding="utf-8")
    out_file = tmp_path / "report.json"
    code = main(["quality", str(graph_file), str(beta_file),
                 "--semantics", "cut", "--out", str(out_file)])
    cli_report = report_from_json(loads(out_file.read_text()))
    if code != 0 or cli_report.q_value != 1:
        failures.append(("cli-report", code, cli_report))
    _grade(4, "star-optimal-cut-sparsifier-is-half-triangle", failures)


def test_criterion_05_sandwich_property(solved):
    failures = []
    for g, report, _ in solved:
        rng = random.Random(505)
        for trial in range(1000):
            d_y = random_metric(rng, g.k)
            low = min_extension(g, d_y).value
            mid = alpha_cost(g, apply(report.operator, d_y))
            if not low <= mid <= report.q * low:
                failures.append((g.n, g.k, trial, low, mid, report.q))
    _grade(5, "minext-image-sandwich-holds-exactly", failures)


def test_criterion_06_zero_extension_dominance():
    failures = []
    rng = random.Random(606)
    for trial in range(30):
        if trial < 26:
            k = rng.randint(2, 3)
            n = k + rng.randint(1, 3)
        else:
            k, n = 3, 7
        g, _ = canonicalize(random_graph(rng, n, k))
        report = find_optimal_operator(g)
        best_collapse = min(
            evaluate_operator_distortion(
                zero_extension_operator(n, k, tuple(range(k)) + f), g)
            for f in itertools.product(range(k), repeat=n - k))
        if report.q > best_collapse:
            failures.append((trial, n, k, report.q, best_collapse))
    _grade(6, "solver-never-beaten-by-vertex-collapse", failures)


def test_criterion_07_flow_metric_sandwich(solved):
    failures = []
    rng = random.Random(707)
    instances = list(solved)
    while len(instances) < 20:
        g, _ = canonicalize(random_graph(rng, rng.randint(4, 6), rng.randint(2, 3)))
        report = find_optimal_operator(g)
        instances.append((g, report, operator_to_sparsifier(report.operator, g)))
    for a, (g, report, beta) in enumerate(instances):
        q_cap = metric_quality_upper(g, beta).q_value
        ds_rng = random.Random(7000 + a)
        for _ in range(10):
            demands = random_demands(ds_rng, g.k, g.k)
            lam_g = max_concurrent_flow(g, demands)
            lam_h = max_concurrent_flow(beta, demands)
            if not lam_g <= lam_h <= q_cap * lam_g:
                failures.append((a, demands.demands, lam_g, lam_h, q_cap))
    _grade(7, "concurrent-flow-sandwich-on-sampled-demands", failures)


def test_criterion_08_minext_convex_and_monotone():
    failures = []
    rng = random.Random(808)
    for trial in range(1000):
        k = rng.randint(2, 4)
        g = random_graph(rng, rng.randint(k, k + 2), k)
        d1 = random_metric(rng, k)
        d2 = random_metric(rng, k)
        lam = F(rng.randint(0, 4), 4)
        mix = Metric([[lam * d1.dist(p, q) + (1 - lam) * d2.dist(p, q)
                       for q in range(k)] for p in range(k)])
        value = min_extension(g, mix).value
        split = lam * min_extension(g, d1).value + (1 - lam) * min_extension(g, d2).value
        if value > split:
            failures.append(("convexity", trial, value, split))
    rng = random.Random(809)
    for trial in range(1000):
        k = rng.randint(2, 4)
        g = random_graph(rng, rng.randint(k, k + 2), k)
        d2 = random_metric(rng, k)
        cap = random_fraction(rng, min_num=1)
        d1 = Metric([[min(d2.dist(p, q), cap) for q in range(k)] for p in range(k)])
        if min_extension(g, d1).value > min_extension(g, d2).value:
            failures.append(("monotonicity", trial))
    _grade(8, "minext-convexity-and-monotonicity", failures)


def test_criterion_09_certificate_soundness(solved):
    failures = []
    star4, _ = canonicalize(unit_star(4))
    star4_report = find_optimal_operator(star4)
    instances = list(solved)
    instances.append((star4, star4_report,
                      operator_to_sparsifier(star4_report.operator, star4)))
    for a, (g, report, beta) in enumerate(instances):
        q_upper = metric_quality_upper(g, beta).q_value
        bounds = [("harvested", certify_metric(harvest_certificate(report)))]
        family = [cut_metric(side, g.k) for _, side in _bipartitions(g.k)]
        if family:
            bounds.append(("cut-family", certify_metric(MetricCertificate(g, family))))
        mu = [(1 << p, F(1, g.k)) for p in range(g.k)]
        bounds.append(("singletons", certify_cut(CutCertificate(g, mu, mu))))
        for label, value in bounds:
            if value is not None and value > q_upper:
                failures.append((a, label, value, q_upper))
    # the strongest hand-built example: pair splits against singletons
    mu1 = [(0b0011, F(1, 3)), (0b0101, F(1, 3)), (0b1001, F(1, 3))]
    mu2 = [(1 << p, F(1, 4)) for p in range(4)]
    value = certify_cut(CutCertificate(star4, mu1, mu2))
    beta4 = operator_to_sparsifier(star4_report.operator, star4)
    if value != F(3, 4) or value > metric_quality_upper(star4, beta4).q_value:
        failures.append(("star4-pairs", value))
    _grade(9, "certificates-never-exceed-solver-quality", failures)


def test_criterion_10_deterministic_artifacts(tmp_path):
    failures = []
    rng = random.Random(1010)
    graphs = {"star.json": unit_star(3),
              "mixed.json": random_graph(rng, 5, 3)}
    for fname, g in graphs.items():
        graph_file = tmp_path / fname
        graph_file.write_text(dump_canonical(graph_to_json(g)), encoding="utf-8")
        runs = []
        for sub in ("first", "second"):
            out_dir = tmp_path / fname.removesuffix(".json") / sub
            code = main(["sparsify", str(graph_file), "--out", str(out_dir),
                         "--seed", "11"])
            if code != 0:
                failures.append((fname, sub, code))
            runs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        if runs[0] != runs[1] or len(runs[0]) != 5:
            failures.append((fname, "artifact-mismatch", sorted(runs[0])))
    # the solver itself is deterministic, not only the serialized artifacts
    g, _ = canonicalize(random_graph(random.Random(4242), 5, 3))
    blobs = {dump_canonical(operator_to_json(find_optimal_operator(g).operator))
             for _ in range(2)}
    if len(blobs) != 1:
        failures.append(("resolve", "operator-bytes-differ"))
    _grade(10, "byte-identical-reruns", failures)
