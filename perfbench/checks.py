"""Output checks, run after the timed passes.

Each check recomputes what the program printed or wrote along a route
independent of the one the CLI took, or tests an inequality the theory
guarantees. A check returns the problems it found and the exact values it
read, which run.py compares with pins.json for the default seed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

from vsparse import certificates, jsonio, operators, quality
from vsparse.core import is_unbounded

from workloads import Instance

Q_LINE = re.compile(r"Q = (\d+/\d+) ")


def _load(path: Path) -> object:
    return jsonio.loads(path.read_text(encoding="utf-8"))


def _report(path: Path) -> quality.QualityReport:
    return quality.report_from_json(_load(path))


def check_sparsify(inst: Instance, stdout: str,
                   report: operators.OperatorSolveReport | None) -> tuple[list[str], dict]:
    """Q agrees with a single-LP evaluation, the operator is a member of the
    cone, Q beats a zero-extension operator, the harvested certificate stays
    below Q, and every quality report passed its lower check."""
    found = Q_LINE.match(stdout)
    if found is None:
        return [f"no Q line in output {stdout!r}"], {}
    q = Fraction(found.group(1))
    out = inst.ops[0].out
    phi = operators.operator_from_json(_load(out / "operator.json"))
    problems = []
    if phi.distortion != q:
        problems.append(f"operator.json records Q = {phi.distortion}, printed {q}")
    if report is None or report.q != q:
        problems.append("the solve report does not match the printed Q")
    evaluated = quality.evaluate_operator_distortion(phi, inst.graph)
    if evaluated != q:
        problems.append(f"independent evaluation gives {evaluated}, printed {q}")
    if operators.membership_oracle(phi) is not None:
        problems.append("operator is not a member of the operator cone")
    n, k = inst.graph.n, inst.graph.k
    zero_ext = operators.zero_extension_operator(n, k, inst.assignment)
    q_zero = quality.evaluate_operator_distortion(zero_ext, inst.graph)
    if not is_unbounded(q_zero) and q > q_zero:
        problems.append(f"Q = {q} exceeds the zero-extension operator's {q_zero}")
    certified = None
    if report is not None:
        certified = certificates.certify_metric(certificates.harvest_certificate(report))
        if certified is None or certified > q:
            problems.append(f"harvested certificate gives {certified}, above Q = {q}")
    for semantics in (quality.CUT, quality.METRIC, quality.FLOW):
        if _report(out / f"quality_{semantics}.json").lower_ok is not True:
            problems.append(f"{semantics} report failed its lower check")
    return problems, {"Q": str(q), "certified": str(certified)}


def check_grade(inst: Instance, stdout: dict[str, str]) -> tuple[list[str], dict]:
    """Cut quality stays below metric quality, every lower check passed, and
    both certified bounds stay below the metric quality."""
    outs = {op.role: op.out for op in inst.ops}
    cut, metric, flow = (_report(outs[role]) for role in ("cut", "metric", "flow"))
    problems = [f"{r.semantics} report failed its lower check"
                for r in (cut, metric, flow) if r.lower_ok is not True]
    if is_unbounded(metric.q_value):
        problems.append("metric quality is unbounded")
        return problems, {}
    if is_unbounded(cut.q_value) or cut.q_value > metric.q_value:
        problems.append(f"cut quality {cut.q_value} exceeds metric quality {metric.q_value}")
    values = {"cut_q": str(cut.q_value), "metric_q": str(metric.q_value)}
    for role in ("certify-cut", "certify-metric"):
        printed = stdout[role].strip()
        if printed == "invalid":
            problems.append(f"{role}: certificate proves nothing")
            continue
        bound = Fraction(printed)
        if bound > metric.q_value:
            problems.append(f"{role}: certified {bound} exceeds metric quality "
                            f"{metric.q_value}")
        values[role] = printed
    return problems, values
