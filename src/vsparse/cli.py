"""Command-line front end.

Four subcommands: ``sparsify`` runs the full pipeline (optimal operator,
sparsifier, quality reports for all three semantics), ``quality`` grades a
given sparsifier under one semantics, ``certify`` verifies a certificate
file, and ``oracle`` cross-checks the LP machinery against brute-force
computations. All artifacts are canonical JSON written atomically, and a
fixed ``--seed`` makes every byte of output reproducible.

Every call starts a fresh interpreter, so the module loads only the
standard library, ``core`` and ``jsonio``, and each subcommand imports the
modules it runs: ``certify`` never loads the operator solver or the grading
code, nor on a cut certificate the LP, and ``quality`` loads the LP only
under metric and flow semantics. A call looks each function up in its
module, so a patch of that module's attribute reaches it.

Exit codes: 0 success, 2 parse or validation error, 3 solver hit the
iteration cap, 4 unbounded quality, 5 oracle mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path
from typing import Callable

from . import jsonio
from .core import CUT, FLOW, METRIC, WeightedGraph, bipartitions, cut_metric, is_unbounded

OK, PARSE_ERROR, NO_CONVERGENCE, UNBOUNDED_EXIT, ORACLE_MISMATCH = 0, 2, 3, 4, 5


def _load(path: Path) -> object:
    return jsonio.loads(path.read_text(encoding="utf-8"))


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # the write may have failed before creating it
            tmp.unlink()
        raise


def cmd_sparsify(args: argparse.Namespace) -> int:
    from . import lp, operators, quality

    graph = jsonio.graph_from_json(_load(args.graph))
    out_dir = args.out
    report = operators.find_optimal_operator(graph, max_iters=args.max_iters)
    beta = report.sparsifier
    graded = ("quality_cut.json", "quality_metric.json", "quality_flow.json")
    out_dir.mkdir(parents=True, exist_ok=True)  # only once there is an artifact to write
    _write_atomic(out_dir / "operator.json",
                  jsonio.dump_canonical(operators.operator_to_json(report.operator)))
    _write_atomic(out_dir / "sparsifier.json",
                  jsonio.dump_canonical(quality.sparsifier_to_json(beta)))
    if not report.converged:
        for name in graded:  # a reused --out may hold an earlier run's reports
            (out_dir / name).unlink(missing_ok=True)
        print(f"error: no convergence within {args.max_iters} rounds; "
              "operator.json and sparsifier.json hold the best iterate",
              file=sys.stderr)
        return NO_CONVERGENCE

    g_c = report.graph
    # phi(d) is a metric extending d, so beta(d) = alpha(phi(d)) >= minext(d) for every d
    lp.check(operators.membership_oracle(report.operator) is None,
             "the solved operator is not a member of the operator cone")
    cut_report = quality.cut_quality(g_c, beta)
    # the final distortion probe graded the collapse, beta(d) = alpha(phi(d)), and re-derives Q
    metric_report = report.metric_upper.replace(lower_ok=True)
    lp.check(metric_report.q_value == report.q, f"metric upper Q {metric_report.q_value} "
             f"of the collapse is not the operator's Q {report.q}")
    flow_report = quality.flow_quality(g_c, beta, metric_report.q_value)
    for name, rep in zip(graded, (cut_report, metric_report, flow_report)):
        _write_atomic(out_dir / name, jsonio.dump_canonical(quality.report_to_json(rep)))
    print(f"Q = {jsonio.format_fraction(report.q)} "
          f"({report.iterations} rounds, {report.membership_cuts} membership cuts, "
          f"{report.distortion_cuts} distortion cuts)")
    return OK


def cmd_quality(args: argparse.Namespace) -> int:
    from . import quality

    if args.semantics == FLOW and args.demands is None:
        print("error: flow semantics requires --demands", file=sys.stderr)
        return PARSE_ERROR
    if args.semantics != FLOW and args.demands is not None:
        print(f"error: {args.semantics} semantics takes no --demands", file=sys.stderr)
        return PARSE_ERROR
    sampling = {name: value for name, value in vars(args).items() if name in ("seed", "samples")}
    if args.semantics != METRIC and sampling:
        print(f"error: {args.semantics} semantics takes no --seed or --samples", file=sys.stderr)
        return PARSE_ERROR
    graph = jsonio.graph_from_json(_load(args.graph))
    beta = quality.sparsifier_from_json(_load(args.sparsifier))
    if args.semantics == CUT:
        report = quality.cut_quality(graph, beta)
    elif args.semantics == METRIC:
        report = quality.metric_quality(graph, beta, **sampling)
    else:
        demands = jsonio.demands_from_json(_load(args.demands))
        report = quality.flow_quality_probe(graph, beta, demands)
    blob = jsonio.dump_canonical(quality.report_to_json(report))
    if args.out is None:
        sys.stdout.write(blob)
    else:
        _write_atomic(args.out, blob)
    if is_unbounded(report.q_value):
        return UNBOUNDED_EXIT
    return OK


def cmd_certify(args: argparse.Namespace) -> int:
    from . import certificates

    cert = certificates.certificate_from_json(_load(args.certificate))
    if isinstance(cert, certificates.CutCertificate):
        value = certificates.certify_cut(cert)
    else:
        value = certificates.certify_metric(cert)
    print("invalid" if value is None else jsonio.format_fraction(value))
    return OK


def _oracle_rows_mincut(graph: WeightedGraph, budget: int) -> list[tuple]:
    from . import extension, mincut

    rows = []
    for mask, side in bipartitions(graph.k):
        label = f"mincut S={mask:#0{graph.k + 2}b}"
        lp_val = extension.min_cut_via_lp(graph, side)
        flow_val = mincut.min_cut_via_flow(graph, side)
        enum_val = mincut.min_cut_by_enumeration(graph, side, budget=budget)
        rows.append((f"{label} flow", lp_val, flow_val, "=", lp_val == flow_val))
        rows.append((f"{label} enum", lp_val, enum_val, "=", lp_val == enum_val))
    return rows


def _oracle_rows_zeroext(graph: WeightedGraph, budget: int, seed: int,
                         samples: int) -> list[tuple]:
    import random

    from . import extension, sampling

    rows = []
    # cut metrics first: the cheapest 0-extension must hit the min cut exactly
    for mask, side in bipartitions(graph.k):
        delta = cut_metric(side, graph.k)
        lp_val = extension.min_extension(graph, delta).value
        ze_val = extension.best_zero_extension(graph, delta, budget=budget).cost
        rows.append((f"zeroext S={mask:#0{graph.k + 2}b}", lp_val, ze_val, "=",
                     lp_val == ze_val))
    rng = random.Random(seed)
    for a in range(samples):
        d_y = sampling.random_metric(rng, graph.k)
        lp_val = extension.min_extension(graph, d_y).value
        ze_val = extension.best_zero_extension(graph, d_y, budget=budget).cost
        rows.append((f"zeroext sample {a}", lp_val, ze_val, "<=", lp_val <= ze_val))
    return rows


def cmd_oracle(args: argparse.Namespace) -> int:
    graph = jsonio.graph_from_json(_load(args.graph))
    rows: list[tuple] = []
    if args.mode in ("mincut", "all") and graph.k >= 2:
        rows.extend(_oracle_rows_mincut(graph, args.budget))
    if args.mode in ("zeroext", "all") and graph.k >= 2:
        rows.extend(_oracle_rows_zeroext(graph, args.budget, args.seed, args.samples))
    width = max((len(r[0]) for r in rows), default=8)
    mismatch = False
    for name, lhs, rhs, rel, ok in rows:
        mismatch = mismatch or not ok
        print(f"{name:<{width}}  lp={jsonio.format_fraction(lhs)}  "
              f"oracle={jsonio.format_fraction(rhs)}  {rel}  "
              f"{'ok' if ok else 'MISMATCH'}")
    if not rows:
        print("nothing to check: fewer than two terminals")
    return ORACLE_MISMATCH if mismatch else OK


def _at_least(least: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``least``."""
    def at_least(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return at_least


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsparse",
        description="Exact vertex sparsifiers via optimal metric extension operators.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed: object = 0, samples: object = 100) -> None:
        p.add_argument("--seed", type=int, default=seed,
                       help="seed for sampled metrics, default 0 (quality takes it only "
                            "under metric semantics, sparsify ignores it)")
        p.add_argument("--samples", type=_at_least(0), default=samples,
                       help="random metrics for sampled lower checks, default 100, 5 for "
                            "oracle (quality takes it only under metric semantics, sparsify "
                            "ignores it)")

    p_sparsify = sub.add_parser("sparsify", help="solve for the optimal operator "
                                "and write all artifacts")
    p_sparsify.add_argument("graph", type=Path, help="graph JSON file")
    p_sparsify.add_argument("--out", type=Path, required=True, help="output directory")
    p_sparsify.add_argument("--max-iters", type=_at_least(1), default=10_000, dest="max_iters",
                            help="cutting-plane round cap")
    common(p_sparsify)

    p_quality = sub.add_parser("quality", help="grade a sparsifier under one semantics")
    p_quality.add_argument("graph", type=Path, help="graph JSON file")
    p_quality.add_argument("sparsifier", type=Path, help="sparsifier JSON file")
    p_quality.add_argument("--semantics", required=True,
                           choices=[CUT, METRIC, FLOW])
    p_quality.add_argument("--demands", type=Path, default=None,
                           help="demand-set JSON file (flow semantics)")
    p_quality.add_argument("--out", type=Path, default=None, help="report file (default stdout)")
    # left out of the namespace unless given: only metric semantics samples
    common(p_quality, argparse.SUPPRESS, argparse.SUPPRESS)

    p_certify = sub.add_parser("certify", help="verify a certificate file")
    p_certify.add_argument("certificate", type=Path, help="certificate JSON file")

    p_oracle = sub.add_parser("oracle", help="cross-check LP values against brute force")
    p_oracle.add_argument("graph", type=Path, help="graph JSON file")
    p_oracle.add_argument("--mode", choices=["mincut", "zeroext", "all"], default="all")
    p_oracle.add_argument("--budget", type=_at_least(1), default=1_000_000,
                          help="enumeration budget for brute-force oracles")
    common(p_oracle, samples=5)
    return parser


_COMMANDS = {
    "sparsify": cmd_sparsify,
    "quality": cmd_quality,
    "certify": cmd_certify,
    "oracle": cmd_oracle,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parsing does not change a parser
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:  # a jsonio.JsonFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
