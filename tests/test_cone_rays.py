"""Cone optima read off the extreme rays, against the LP they replace.

``cone_rays(m)`` lists the extreme rays of the metric cone on m <= 6
points: the cut metrics, the 10 K_{2,3} metrics on five points and the 265
non-cut rays on six. They are checked against a double description of the
cone built here. ``MetricConeLp.optimize`` reads a maximum under one "<="
row on such a cone off them (its optimal vertex, the apex or an improving
ray) and sends every other program to the LP, the membership probe settles
"max <= 0" from them, and on six vertices the metric upper quality, and
with it the concurrent flow, its reciprocal, are read off them instead of
solved over edge lengths. The reads are compared with the LP they replace,
taken with the ray path switched off, in status and value; on a tie the
two may return different optimal vertices, so the read's own answer is
checked to be a vertex or ray of the program instead.
The membership scan runs on integer numerators; the Fraction scan it
replaced is kept here as its reference.
"""

import functools
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from vsparse import (DemandSet, ExtensionOperator, Metric, WeightedGraph, all_pairs,
                     cut_metric, extension, find_optimal_operator, lp, operators, pair,
                     quality, zero_extension_operator, zero_metric)
from vsparse.extension import MetricConeLp, cone_rays
from vsparse.sampling import random_graph
from helpers import held_rows, unit_star

F = Fraction


def ray_values(m, objective):
    """A pair-keyed objective on every ray of ``cone_rays(m)``, as the ray
    test computes it: integer numerators over one positive denominator."""
    return extension._on_rays(m, extension._pair_numerators(m, objective)[0])


def _table(m, vector):
    rows = [[0] * m for _ in range(m)]
    for (p, q), v in zip(all_pairs(m), vector):
        rows[p][q] = rows[q][p] = v
    return rows


def _rank(rows):
    rows = [list(map(F, row)) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _tight_rows(m, vector):
    """Coefficient rows of the cone's defining inequalities tight at ``vector``."""
    index = {pq: j for j, pq in enumerate(all_pairs(m))}
    d = _table(m, vector)
    tight = []
    for j, (p, q) in enumerate(all_pairs(m)):
        if d[p][q] == 0:
            tight.append([int(t == j) for t in range(len(index))])
    for i, j, l in itertools.permutations(range(m), 3):
        if i < j and d[i][j] == d[i][l] + d[l][j]:
            row = [0] * len(index)
            row[index[(i, j)]] += 1
            row[index[tuple(sorted((i, l)))]] -= 1
            row[index[tuple(sorted((l, j)))]] -= 1
            tight.append(row)
    return tight


# --- the ray table ------------------------------------------------------------

@pytest.mark.parametrize("m,count", [(2, 1), (3, 3), (4, 7), (5, 25), (6, 296)])
def test_cone_rays_are_distinct_valid_metrics(m, count):
    rays = cone_rays(m)
    assert len(rays) == len(set(rays)) == count
    for ray in rays:
        assert len(ray) == len(all_pairs(m))
        assert all(type(v) is int for v in ray) and any(ray)
        Metric(_table(m, ray))  # raises unless a valid semimetric


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_cone_rays_are_extreme(m):
    # a cone point is on an extreme ray iff its tight rows have rank P - 1
    for ray in cone_rays(m):
        assert _rank(_tight_rows(m, ray)) == len(all_pairs(m)) - 1


@functools.cache
def _known_extreme_rays(m):
    """The extreme rays of the metric cone on m points by double description
    (Motzkin, Raiffa, Thompson & Thrall 1953; Fukuda & Prodon 1996), built
    without cone_rays: start from the unit rays of the nonnegative orthant,
    then add the triangle rows one by one, keeping the rays that satisfy
    the row and joining, on its hyperplane, each pair of a satisfying and a
    violating ray that is adjacent (no other ray is tight on every row both
    are tight on)."""
    size = len(all_pairs(m))
    index = {pq: j for j, pq in enumerate(all_pairs(m))}
    rows = [[int(t == j) for t in range(size)] for j in range(size)]  # d >= 0
    rays = [tuple(row) for row in rows]
    for (i, j), l in itertools.product(all_pairs(m), range(m)):
        if l in (i, j):
            continue
        row = [0] * size  # d(i,l) + d(l,j) - d(i,j) >= 0
        row[index[pair(i, l)]] += 1
        row[index[pair(l, j)]] += 1
        row[index[(i, j)]] -= 1
        value = {r: sum(a * b for a, b in zip(row, r)) for r in rays}
        tight = {r: frozenset(c for c, a in enumerate(rows)
                              if not sum(x * y for x, y in zip(a, r))) for r in rays}
        joined = []
        for r, s in itertools.product(rays, rays):
            if value[r] > 0 > value[s]:
                both = tight[r] & tight[s]
                if len(both) >= size - 2 and not any(
                        both <= tight[t] for t in rays if t not in (r, s)):
                    ray = [value[r] * b - value[s] * a for a, b in zip(r, s)]
                    joined.append(tuple(v // gcd(*ray) for v in ray))
        rays = [r for r in rays if value[r] >= 0] + joined
        rows.append(row)
    return set(rays)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_cone_rays_are_the_known_extreme_rays(m):
    assert set(cone_rays(m)) == _known_extreme_rays(m)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_cone_rays_list_the_cut_metrics_first(m):
    cuts = {tuple(cut_metric(side, m).dist(p, q) for p, q in all_pairs(m))
            for size in range(1, m) for side in itertools.combinations(range(m), size)}
    rays = cone_rays(m)
    assert set(rays[:len(cuts)]) == cuts and not cuts & set(rays[len(cuts):])
    if m == 6:  # the 265 others in sorted order, the fixed tie-break order of a read
        assert list(rays[len(cuts):]) == sorted(rays[len(cuts):]) and len(rays) - len(cuts) == 265


def test_five_point_rays_are_the_k23_metrics():
    # shortest paths in K_{2,3}: distance 1 across the two sides, 2 within one
    k23 = {tuple(1 if (p in two) != (q in two) else 2 for p, q in all_pairs(5))
           for two in itertools.combinations(range(5), 2)}
    assert set(cone_rays(5)[15:]) == k23


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_each_extreme_ray_is_the_optimum_of_its_own_objective(m, monkeypatch):
    # sum d less the slack of every cone row tight at the ray r is at most
    # sum d on the cone, with equality exactly along r (its tight rows have
    # rank P - 1), so over sum d <= 1 it peaks only at r: a missing ray shows
    ones = {pq: F(1) for pq in all_pairs(m)}
    for ray in sorted(_known_extreme_rays(m)):
        # sum(row) is 1 on a row d >= 0 and -1 on a triangle row: its slack's sign
        tight = _tight_rows(m, ray)
        slack = [sum(sum(row) * row[j] for row in tight) for j in range(len(ones))]
        objective = {pq: 1 - F(c) for pq, c in zip(all_pairs(m), slack)}
        got = MetricConeLp(m).optimize(objective, [(ones, lp.LE, F(1))])
        with monkeypatch.context() as patch:
            patch.setattr(extension, "_ray_optimum", lambda *args: None)
            want = MetricConeLp(m).optimize(objective, [(ones, lp.LE, F(1))])
        assert (got.status, got.value, got.witness) == (want.status, want.value, want.witness)
        assert got.rounds == 0 and got.value == 1
        assert [got.witness.dist(p, q) for p, q in all_pairs(m)] == [F(v, sum(ray)) for v in ray]


def test_cone_rays_refuse_unlisted_sizes():
    for m in (0, 1, 7):
        with pytest.raises(ValueError):
            cone_rays(m)


def test_ray_values_scale_every_ray_by_one_positive_factor():
    rng = random.Random(7)
    for m in (2, 3, 4, 5, 6):
        objective = {pq: F(rng.choice([-5, -3, -1, 2, 4]), rng.randint(1, 6))
                     for pq in all_pairs(m)}
        exact = [sum((objective[pq] * v for pq, v in zip(all_pairs(m), ray)), F(0))
                 for ray in cone_rays(m)]
        scaled = ray_values(m, objective)
        factors = {F(s) / e for s, e in zip(scaled, exact) if e}
        assert len(factors) == 1 and min(factors) > 0
        assert all(s == 0 for s, e in zip(scaled, exact) if not e)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_ray_values_are_the_dot_products_at_every_coefficient_size(m):
    # the column passes stay exact on integers of any size, zeros included
    rays, size = cone_rays(m), len(all_pairs(m))
    rng = random.Random(m)
    cases = [[1 << 63] * size, [-(1 << 63)] * size, [0] * size]
    cases += [[rng.randint(-bound, bound) for _ in range(size)]
              for bound in (3, 1 << 40, 1 << 64, 1 << 200) for _ in range(20)]
    for nums in cases:
        assert extension._on_rays(m, nums) == [sum(c * v for c, v in zip(nums, ray))
                                               for ray in rays]


# --- optimize against the LP --------------------------------------------------

def _program(rng, family, m):
    """One seeded maximum of a family as (objective, row); ``eq-max`` and
    ``eq-min-weighted`` keep the names their tests are known by, over a "<="
    row. The ``-min`` families are minima posed as the maxima of their
    negated objectives."""
    pairs = all_pairs(m)
    ones = {pq: F(1) for pq in pairs}
    small = rng.random() < 0.5  # small integers: ties come up often

    def signed(low, high):
        if small:
            return {pq: F(rng.randint(low, high)) for pq in pairs}
        return {pq: F(rng.randint(4 * low, 4 * high), rng.randint(1, 5)) for pq in pairs}

    def nonnegative_row(keep):
        return {pq: F(rng.randint(1, 4), rng.randint(1, 3)) for pq in pairs
                if rng.random() < keep}

    if family == "eq-max":
        return signed(-2, 2), (ones, lp.LE, F(1))
    if family == "ge-min":
        weights = {pq: -c for pq, c in signed(0, 3).items() if rng.random() < 0.8}
        return weights, (nonnegative_row(0.5), lp.GE, F(rng.randint(1, 4), 3))
    if family == "le-max":
        return signed(-1, 3), (nonnegative_row(0.8), lp.LE, F(rng.randint(1, 4), 2))
    if family == "eq-min-weighted":
        negated = {pq: -c for pq, c in signed(-2, 2).items()}
        return negated, (nonnegative_row(0.9), lp.LE, F(rng.randint(1, 5), 2))
    raise ValueError(family)


def _value(coeffs, d):
    return sum((c * d.dist(*pq) for pq, c in coeffs.items()), F(0))


def _is_ray(m, d, scaled):
    """Whether d is a ray of ``cone_rays(m)``, or with ``scaled`` a positive
    multiple of one."""
    vector = [d.dist(p, q) for p, q in all_pairs(m)]
    for ray in cone_rays(m):
        j = next(j for j, v in enumerate(ray) if v)
        factor = vector[j] / ray[j] if scaled else 1
        if factor > 0 and vector == [factor * v for v in ray]:
            return True
    return False


def _check_ray_read(m, objective, row, monkeypatch):
    """A one-row maximum against the LP, equal in status and value. Under a
    "<=" row it is read off the rays, in no LP round, and its answer is a
    vertex or an improving ray of the program; under a ">=" row it runs the
    LP."""
    got = MetricConeLp(m).optimize(objective, [row])
    with monkeypatch.context() as patch:
        patch.setattr(extension, "_ray_optimum", lambda *args: None)
        want = MetricConeLp(m).optimize(objective, [row])
    assert (got.status, got.value) == (want.status, want.value), (objective, row)
    coeffs, rel, rhs = row
    read = rel == lp.LE
    assert (got.rounds == 0) == read and want.rounds > 0
    if not read:
        return
    if got.status == lp.OPTIMAL:
        assert _value(coeffs, got.witness) <= rhs
        assert _value(objective, got.witness) == got.value
        assert got.witness == zero_metric(m) or _is_ray(m, got.witness, scaled=True)
    elif got.status == lp.UNBOUNDED:
        assert _value(objective, got.witness) > 0
        assert _is_ray(m, got.witness, scaled=False)
        assert _value(coeffs, got.witness) == 0


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("family", ["eq-max", "ge-min", "le-max", "eq-min-weighted"])
def test_optimize_equals_lp_reference(m, family, monkeypatch):
    rng = random.Random(1000 * m + len(family))
    for _ in range(60):
        _check_ray_read(m, *_program(rng, family, m), monkeypatch)


fractions = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
weights = st.builds(F, st.integers(0, 3), st.integers(1, 3))


@st.composite
def one_row_cone_programs(draw):
    """A one-row maximum the ray path reads under a "<=" row: nonnegative
    row coefficients (an empty row included) and a positive right-hand
    side; the objective's coefficients take either sign."""
    m = draw(st.integers(2, 6))
    pairs = st.sampled_from(all_pairs(m))
    objective = draw(st.dictionaries(pairs, fractions))
    row = (draw(st.dictionaries(pairs, weights)), draw(st.sampled_from([lp.LE, lp.GE])),
           draw(st.builds(F, st.integers(1, 4), st.integers(1, 3))))
    return m, objective, row


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(one_row_cone_programs())
@example((2, {(0, 1): F(1)}, ({}, lp.GE, F(3, 2))))  # infeasible before unbounded
@example((4, {(0, 1): F(-1)}, ({}, lp.GE, F(1))))  # infeasible
@example((4, {(0, 1): F(1)}, ({(2, 3): F(1)}, lp.LE, F(1))))  # unbounded
@example((4, {(0, 1): F(-1)}, ({(0, 1): F(1)}, lp.LE, F(1))))  # the apex
@example((5, {pq: F(1) for pq in all_pairs(5)},
          ({pq: F(1) for pq in all_pairs(5)}, lp.LE, F(1))))  # every ray ties
def test_ray_read_agrees_with_the_lp(monkeypatch, case):
    _check_ray_read(*case, monkeypatch)


def test_ray_path_needs_one_row_on_at_most_six_points(monkeypatch):
    def refuse(*args):
        raise AssertionError("ray path taken")

    monkeypatch.setattr(extension, "_ray_optimum", refuse)
    objective = {(0, 1): F(1), (1, 2): F(-1)}
    norm = ({pq: F(1) for pq in all_pairs(3)}, lp.LE, F(1))
    MetricConeLp(3).optimize(objective, [norm, ({(0, 1): F(1)}, lp.LE, F(1))])
    MetricConeLp(7).optimize(objective, [({pq: F(1) for pq in all_pairs(7)}, lp.LE, F(1))])


def test_ray_path_reads_ties_unbounded_apex_and_infeasible_programs():
    m = 4
    ones = {pq: F(1) for pq in all_pairs(m)}
    cut_of_0 = cut_metric([0], m)  # the first ray of cone_rays(4)
    tied = extension._ray_optimum(m, ones, ones, F(1))
    assert (tied.status, tied.value, tied.witness) == (lp.OPTIMAL, F(1), cut_of_0.scale(F(1, 3)))
    unbounded = extension._ray_optimum(m, {(0, 1): F(1)}, {(2, 3): F(1)}, F(1))
    assert (unbounded.status, unbounded.witness) == (lp.UNBOUNDED, cut_of_0)
    apex = extension._ray_optimum(m, {(0, 1): F(-1)}, ones, F(1))
    assert (apex.status, apex.value, apex.witness) == (lp.OPTIMAL, F(0), zero_metric(m))
    assert all(r.rounds == 0 for r in (tied, unbounded, apex))
    # a ">=" row is not read off the rays: the LP finds 0 >= 1 infeasible
    infeasible = MetricConeLp(m).optimize(ones, [({}, lp.GE, F(1))])
    assert (infeasible.status, infeasible.value, infeasible.witness) == (lp.INFEASIBLE, None, None)
    unique = extension._ray_optimum(m, {(0, 1): F(3), (0, 2): F(2), (0, 3): F(2)}, ones, F(2))
    assert unique.status == lp.OPTIMAL and unique.rounds == 0
    assert unique.value == F(14, 3)  # the cut of point 0, scaled to total 2
    assert unique.witness.rows[0] == (0, F(2, 3), F(2, 3), F(2, 3))


def test_ray_path_leaves_negative_rows_and_nonpositive_bounds_to_the_lp():
    m = 4
    ones = {pq: F(1) for pq in all_pairs(m)}
    assert extension._ray_optimum(m, ones, {(0, 1): F(-1)}, F(1)) is None
    assert extension._ray_optimum(m, ones, ones, F(0)) is None
    assert extension._ray_optimum(m, ones, ones, F(-1)) is None


@pytest.mark.parametrize("m,held", [(4, {}), (7, {}), (2, {(0, 1): F(1)})],
                         ids=["rays", "lp", "constant"])
def test_every_cone_path_refuses_an_equation_row(m, held):
    ones = {pq: F(1) for pq in all_pairs(m)}
    with pytest.raises(lp.LpError):
        MetricConeLp(m).optimize(ones, [*held_rows(held), (ones, "=", F(1))])


# --- membership probes --------------------------------------------------------

def _random_phi(rng, n, k, draw=lambda rng: F(rng.randint(1, 4), rng.randint(1, 3))):
    values = {}
    for xp in all_pairs(n):
        for yp in all_pairs(k):
            if xp[1] >= k and rng.random() < 0.45:
                values[(xp, yp)] = draw(rng)

    def phi_of(xp, yp):
        if xp[1] < k:
            return F(int(xp == yp))
        return values.get((xp, yp), F(0))
    return phi_of


def _coefficients(phi):
    """phi's coefficient of an (X-pair, Y-pair), 0 where it has none."""
    return lambda xp, yp: phi.coeffs.get((xp, yp), F(0))


def _phis():
    rng = random.Random(11)
    cases = []
    for n, k in ((4, 2), (4, 3), (5, 3), (5, 4), (6, 4), (6, 5), (7, 5)):
        for _ in range(3):
            cases.append((n, k, _random_phi(rng, n, k)))
        assignment = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
        cases.append((n, k, _coefficients(zero_extension_operator(n, k, assignment))))
    return cases


def _coprime_phis():
    """Operators whose coefficients have coprime denominators 3, 7 and 11."""
    rng = random.Random(13)
    return [(n, k, _random_phi(rng, n, k, lambda rng: F(rng.choice((1, 2, 5)),
                                                        rng.choice((3, 7, 11)))))
            for n, k in ((4, 3), (5, 3), (5, 4), (6, 4), (6, 5)) for _ in range(3)]


def _operator(n, k, phi_of):
    return ExtensionOperator(n, k, {(xp, yp): phi_of(xp, yp) for xp in all_pairs(n)
                                    if xp[1] >= k for yp in all_pairs(k)})


def _hits(n, k, phi_of):
    return [(h.where, h.witness, h.excess) for h in operators._membership_scan(
        n, k, *operators._operator_table(_operator(n, k, phi_of)))]


def _scans_agree(n, k, phi_of):
    """The hits of the integer scan, checked to equal the Fraction
    reference's; ``membership_oracle`` returns the first of them."""
    hits = _hits(n, k, phi_of)
    assert hits == _fraction_scan(n, k, phi_of)
    first = operators.membership_oracle(_operator(n, k, phi_of))
    assert (None if first is None else (first.where, first.witness, first.excess)) == (
        hits[0] if hits else None)
    return hits


def _fraction_scan(n, k, phi_of):
    """The membership scan as it ran on Fractions before the integer table:
    the reference every hit, witness, excess and their order must match."""
    if k < 2:
        return []
    ypairs = all_pairs(k)
    norm_row = ({yp: F(1) for yp in ypairs}, lp.LE, F(1))
    found = []
    for i, j in all_pairs(n):
        for l in range(n):
            if l == i or l == j or (j < k and l < k):
                continue
            coeffs = {}
            for key, sgn in ((pair(i, j), 1), (pair(i, l), -1), (pair(l, j), -1)):
                for yp in ypairs:
                    c = phi_of(key, yp)
                    if c:
                        coeffs[yp] = coeffs.get(yp, F(0)) + sgn * c
            if all(v <= 0 for v in coeffs.values()):
                continue
            if k <= extension.RAY_POINTS and max(ray_values(k, coeffs)) <= 0:
                continue
            result = MetricConeLp(k).optimize(coeffs, [norm_row])
            if result.value > 0:
                found.append(((i, j, l), result.witness, result.value))
    return found


@pytest.mark.parametrize("n,k", [(3, 2), (5, 3), (6, 5), (7, 7), (5, 0)])
def test_triangle_rows_leave_out_only_rows_between_terminals(n, k):
    pairs = all_pairs(n)
    want = [((i, j, l), pairs.index((i, j)), pairs.index(pair(i, l)), pairs.index(pair(l, j)))
            for i, j in pairs for l in range(n) if l not in (i, j) and max(j, l) >= k]
    assert list(extension._triangle_rows(n, k)) == want


@pytest.mark.parametrize("cases", [_phis, _coprime_phis])
def test_integer_scan_matches_the_fraction_reference(cases):
    hits = sum(len(_scans_agree(n, k, phi)) for n, k, phi in cases())
    assert hits > 10


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_integer_scan_matches_the_fraction_reference_on_master_iterates(seed, k, monkeypatch):
    points, scans, loops = [], [], []
    scan, cutting_plane = operators._membership_scan, lp.cutting_plane

    def recorded_scan(*args, **kwargs):
        hits = scan(*args, **kwargs)
        scans.append([(h.where, h.witness, h.excess) for h in hits])
        return hits

    def recorded_loop(program, oracle, **kwargs):
        if not loops:  # the operator master; the loops its oracle starts come later
            loops.append(program)
            return cutting_plane(program, lambda out: points.append(out.x) or oracle(out),
                                 **kwargs)
        return cutting_plane(program, oracle, **kwargs)

    monkeypatch.setattr(operators, "_membership_scan", recorded_scan)
    monkeypatch.setattr(lp, "cutting_plane", recorded_loop)
    report = find_optimal_operator(random_graph(random.Random(seed), 5, k))
    monkeypatch.undo()
    assert report.converged and len(points) == len(scans) == report.iterations
    n = report.graph.n
    ypairs = all_pairs(k)
    entries = [(xp, yp) for xp in all_pairs(n) if xp[1] >= k for yp in ypairs]
    for x, in_solve in zip(points, scans):
        values = {entry: x[1 + e] for e, entry in enumerate(entries)}

        def phi_of(xp, yp):
            return F(int(xp == yp)) if xp[1] < k else values[(xp, yp)]
        assert in_solve == _scans_agree(n, k, phi_of)
    assert sum(map(len, scans)) == report.membership_cuts > 0


def test_membership_hits_equal_with_and_without_the_ray_precheck(monkeypatch):
    with_precheck = [_scans_agree(n, k, phi) for n, k, phi in _phis()]
    monkeypatch.setattr(operators, "RAY_POINTS", 1)  # no k >= 2 takes the pre-check
    without = [_scans_agree(n, k, phi) for n, k, phi in _phis()]
    assert with_precheck == without
    assert sum(map(len, with_precheck)) > 20  # violated rows do come up
    assert any(not hits for hits in with_precheck)  # and so do members


def test_every_membership_lp_left_is_a_hit(monkeypatch):
    calls = []
    optimize = MetricConeLp.optimize

    def counted(self, *args, **kwargs):
        calls.append(self.m)
        return optimize(self, *args, **kwargs)

    monkeypatch.setattr(MetricConeLp, "optimize", counted)
    for n, k, phi in _phis():
        calls.clear()
        hits = _hits(n, k, phi)
        assert len(calls) == len(hits)


@st.composite
def scan_tensors(draw):
    """(n, k, phi_of): an all-zero tensor, a random one with small
    coefficients, or a member (a convex combination of two 0-extensions)."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(max(k, 2), 7))
    kind = draw(st.sampled_from(["zero", "random", "member"]))
    entries = [(xp, yp) for xp in all_pairs(n) if xp[1] >= k for yp in all_pairs(k)]
    if kind == "zero":
        values = {}
    elif kind == "random":
        coeffs = st.sampled_from([F(0), F(0), F(1), F(2), F(1, 2), F(2, 3), F(3, 7)])
        values = dict(zip(entries, draw(st.lists(coeffs, min_size=len(entries),
                                                  max_size=len(entries)))))
    else:
        assign = st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k)
        weight = draw(st.sampled_from([F(1), F(1, 2), F(1, 3)]))
        values = {}
        for w, free in ((weight, draw(assign)), (1 - weight, draw(assign))):
            phi = zero_extension_operator(n, k, list(range(k)) + free)
            for entry in entries:
                values[entry] = values.get(entry, F(0)) + w * phi.coeffs.get(entry, 0)

    def phi_of(xp, yp):
        if xp[1] < k:
            return F(int(xp == yp))
        return values.get((xp, yp), F(0))
    return n, k, phi_of


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(scan_tensors())
def test_the_integer_scan_equals_the_fraction_reference_on_any_tensor(case):
    n, k, phi_of = case
    _scans_agree(n, k, phi_of)


@pytest.mark.parametrize("m", range(2, extension.RAY_POINTS + 1))
def test_cached_normalized_rays_are_the_rays_over_their_pair_mass(m):
    for r, ray in enumerate(cone_rays(m)):
        want = Metric(_table(m, [F(v, sum(ray)) for v in ray]))
        assert extension._normalized_ray(m, r) == want


@pytest.mark.parametrize("m", range(2, extension.RAY_POINTS + 1))
def test_the_normalization_row_reads_the_cached_pair_masses(m, monkeypatch):
    # sum d <= 1 and the same slice written as sum 2d <= 2 give one answer,
    # the first from the cached masses and the second from the row's values
    ones = {pq: F(1) for pq in all_pairs(m)}
    twos = {pq: F(2) for pq in all_pairs(m)}
    assert extension._ray_masses(m) == tuple(extension._on_rays(m, [1] * len(ones)))
    rng = random.Random(m)
    for _ in range(20):
        objective = {pq: F(rng.randint(-5, 5), rng.randint(1, 3)) for pq in all_pairs(m)}
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(extension, "_on_rays", _counted(extension._on_rays, calls))
            got = MetricConeLp(m).optimize(objective, [(ones, lp.LE, F(1))])
        assert len(calls) == 1  # the objective's values alone
        want = MetricConeLp(m).optimize(objective, [(twos, lp.LE, F(2))])
        assert (got.status, got.value, got.witness) == (want.status, want.value, want.witness)


def _counted(fn, calls):
    def counted(*args):
        calls.append(args)
        return fn(*args)
    return counted


# --- six vertices: the pair programs and the solve on the rays ------------------

def _six_vertex_graphs():
    """Seeded 6-vertex graphs, the last with its first terminal cut off."""
    graphs = [random_graph(random.Random(seed), 6, k)
              for seed, k in ((1, 3), (2, 2), (3, 4), (4, 5), (5, 3), (6, 6))]
    g = graphs[0]
    cut_off = g.terminals[0]
    graphs.append(WeightedGraph(6, g.terminals,
                                {pq: w for pq, w in g.weights.items() if cut_off not in pq}))
    return graphs


@pytest.mark.parametrize("sense", ["max", "min"])
def test_six_vertex_pair_programs_read_the_rays_as_the_edge_length_lp_solves(sense,
                                                                             monkeypatch):
    # max: the metric upper quality; min: min alpha(d) subject to c(d) >= 1,
    # read as the concurrent flow, 1 over the max or 0
    def refuse(*args):
        raise AssertionError("edge-length LP run on six vertices")

    rng = random.Random(61)
    for g in _six_vertex_graphs():
        coeffs = {pq: F(rng.randint(0, 4), rng.randint(1, 3)) for pq in all_pairs(g.k)}
        coeffs[(0, 1)] = F(rng.randint(1, 4))  # the cut-off terminal 0 has a demand
        demands = DemandSet([(p, q, c) for (p, q), c in coeffs.items()])
        want = extension._edge_length_lp(g, coeffs)
        with monkeypatch.context() as patch:
            patch.setattr(extension, "_edge_length_lp", refuse)
            if sense == "max":
                got = extension.terminal_pair_lp(g, coeffs)
            else:
                flow = quality.max_concurrent_flow(g, demands)
        if sense == "max":
            assert (got.status, got.value) == (want.status, want.value)
            c = _value(coeffs, got.witness)
            if got.status == lp.UNBOUNDED:
                assert c > 0  # an improving direction
            else:
                assert c == got.value
        else:
            assert flow == (0 if want.status == lp.UNBOUNDED else 1 / want.value)
    # the last graph, with a terminal cut off: unbounded upper quality, no flow
    if sense == "max":
        assert (got.status, got.value) == (lp.UNBOUNDED, None)
    else:
        assert (want.status, flow) == (lp.UNBOUNDED, 0)


@pytest.mark.parametrize("graph,pins", [
    (unit_star(6), (F(5, 3), 4, 64)),
    (random_graph(random.Random(1), 7, 6), (F(1), 4, 50)),
], ids=["unit-star-6", "random-7-6"])
def test_six_terminal_solves_probe_membership_on_the_rays(graph, pins, monkeypatch):
    rounds = []
    optimize = MetricConeLp.optimize

    def recorded(self, *args, **kwargs):
        result = optimize(self, *args, **kwargs)
        rounds.append((self.m, result.rounds))
        return result

    monkeypatch.setattr(MetricConeLp, "optimize", recorded)
    report = find_optimal_operator(graph)
    assert (report.q, report.iterations, report.membership_cuts) == pins
    assert len(rounds) == report.membership_cuts and set(rounds) == {(6, 0)}


def test_importing_the_cli_builds_no_rays():
    # the six-point rays are built on first use, never at import
    import vsparse
    src = str(Path(vsparse.__file__).resolve().parent.parent)
    code = ("import vsparse.cli\nfrom vsparse.extension import cone_rays\n"
            "print(cone_rays.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "0\n"
