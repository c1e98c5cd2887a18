"""In-memory span tracing of vsparse, installed from outside the package.

The benchmark never edits the program: it replaces public functions with
wrappers that record a span (name, start, end, parent, op id, attributes)
and restores them afterwards. Every module of the package that imported a
traced function by name holds its own reference, so each target is patched
in every module where it is found. :func:`real_targets` records the
functions as the package defined them, before anything else replaced them;
:func:`Tracer.install` refuses to run if any module of the package still
holds one of those, or an unwrapped version of what it was about to wrap.

Per-layer metrics are derived from the spans after the traced pass:
``busy_s`` sums span durations (nested spans of the same kind counted once),
and self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# (span name, module defining the target, attribute path, layer for self time)
TARGETS = [
    ("cli.main", "vsparse.cli", "main", "cli"),
    ("lp.solve", "vsparse.lp", "solve", "lp"),
    ("extension.cone_optimize", "vsparse.extension", "MetricConeLp.optimize", "extension"),
    ("extension.min_extension", "vsparse.extension", "min_extension", "extension"),
    ("extension.min_cut_via_flow", "vsparse.extension", "min_cut_via_flow", "extension"),
    ("operators.solve", "vsparse.operators", "find_optimal_operator", "operators"),
    ("operators.collapse", "vsparse.operators", "operator_to_sparsifier", "operators"),
    ("quality.cut", "vsparse.quality", "cut_quality", "quality"),
    ("quality.metric", "vsparse.quality", "metric_quality", "quality"),
    ("quality.metric_upper", "vsparse.quality", "metric_quality_upper", "quality"),
    ("quality.metric_lower", "vsparse.quality", "metric_lower_check", "quality"),
    ("quality.flow", "vsparse.quality", "flow_quality_probe", "quality"),
    ("certificates.certify", "vsparse.certificates", "certify_cut", "certificates"),
    ("certificates.certify", "vsparse.certificates", "certify_metric", "certificates"),
    ("jsonio.parse", "vsparse.jsonio", "loads", "jsonio"),
    ("jsonio.parse", "vsparse.jsonio", "graph_from_json", "jsonio"),
    ("jsonio.parse", "vsparse.jsonio", "demands_from_json", "jsonio"),
    ("jsonio.parse", "vsparse.quality", "sparsifier_from_json", "jsonio"),
    ("jsonio.parse", "vsparse.certificates", "certificate_from_json", "jsonio"),
    ("jsonio.dump", "vsparse.jsonio", "dump_canonical", "jsonio"),
    ("jsonio.dump", "vsparse.operators", "operator_to_json", "jsonio"),
    ("jsonio.dump", "vsparse.quality", "sparsifier_to_json", "jsonio"),
    ("jsonio.dump", "vsparse.quality", "report_to_json", "jsonio"),
]

LAYERS = ("lp", "extension", "operators", "quality", "certificates", "jsonio", "cli")
LAYER_OF = {name: layer for name, _, _, layer in TARGETS}


def unit(metric: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_out"):
        return "B"
    if metric.startswith("share.") or metric.endswith(("_ratio", "_frac")):
        return "frac"
    return "count"


def _attrs(name: str, args: tuple, kwargs: dict, result: Any) -> dict:
    """Counters read at the layer boundary, from arguments and results."""
    if name == "lp.solve":
        program = args[0]
        return {"rows": len(program.constraints), "cols": program.n_vars}
    if name == "extension.cone_optimize":
        return {"m": args[0].m, "rounds": result.rounds,
                "positive": result.value is not None and result.value > 0}
    if name == "operators.solve":
        return {"rounds": result.iterations, "membership_cuts": result.membership_cuts,
                "distortion_cuts": result.distortion_cuts, "n": result.graph.n,
                "k": result.graph.k}
    if name == "quality.metric_lower":
        samples = args[2] if len(args) > 2 else kwargs.get("samples", 100)
        return {"lower_ok": result.lower_ok, "samples": samples}
    if name == "jsonio.dump" and isinstance(result, str):
        return {"bytes": len(result.encode("utf-8"))}
    return {}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)


def package_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if name == "vsparse" or name.startswith("vsparse.")]


def _owner(module_name: str, attr: str) -> tuple[object, str]:
    """The object holding a target and the attribute name it sits under."""
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def real_targets() -> list[Callable]:
    """Every traced function as it is now; call before anything patches them."""
    return [getattr(*_owner(module_name, attr)) for _, module_name, attr, _ in TARGETS]


def replace_everywhere(original: object, replacement: object) -> list[tuple[object, str, object]]:
    """Point every module attribute of the package that holds ``original`` at
    ``replacement``; returns (owner, key, old value) for undoing it."""
    undo = []
    for module in package_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                undo.append((module, key, value))
                setattr(module, key, replacement)
    return undo


class Tracer:
    """Owns the span list and the patches; one tracer per traced pass."""

    def __init__(self, real: list[Callable]) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._real = real
        self.op = -1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, time.perf_counter(), 0.0,
                              stack[-1] if stack else None, self.op))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end = time.perf_counter()
            spans[index].attrs = _attrs(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded module of the package."""
        unwrapped = list(self._real)
        for name, module_name, attr, _ in TARGETS:
            owner, key = _owner(module_name, attr)
            current = getattr(owner, key)
            unwrapped.append(current)
            wrapped = self._wrap(name, current)
            if isinstance(owner, type):
                self._patches.append((owner, key, current))
                setattr(owner, key, wrapped)
            else:
                self._patches += replace_everywhere(current, wrapped)
        self._check_coverage(unwrapped)

    def _check_coverage(self, unwrapped: list[Callable]) -> None:
        """A module attribute still holding a real or an unwrapped target
        would run untraced: a call through it would be missing from the spans."""
        ids = {id(fn) for fn in unwrapped}
        for module in package_modules():
            for key, value in vars(module).items():
                if id(value) in ids:
                    self.uninstall()
                    raise RuntimeError(f"{module.__name__}.{key} escaped the tracer")

    def uninstall(self) -> None:
        for owner, key, old in reversed(self._patches):
            setattr(owner, key, old)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op, s.attrs]) + "\n")


# ---------------------------------------------------------------------------
# derived metrics


def _duration(s: Span) -> float:
    return s.end - s.start


def _self_times(spans: list[Span]) -> list[float]:
    own = [_duration(s) for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= _duration(s)
    return own


def _has_ancestor(spans: list[Span], s: Span, name: str) -> bool:
    parent = s.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def _busy(spans: list[Span], name: str) -> float:
    return sum(_duration(s) for s in spans
               if s.name == name and not _has_ancestor(spans, s, name))


def _parent_name(spans: list[Span], s: Span) -> str | None:
    return None if s.parent is None else spans[s.parent].name


def classify(spans: list[Span]) -> dict[str, list[int]]:
    """Group span indices by the role they play in the pipeline.

    A ``lp.solve`` is *cone* under ``MetricConeLp.optimize`` and *master*
    directly under ``find_optimal_operator``. A cone LP directly under the
    solve is a membership probe when it runs on the k terminals and a
    distortion witness when it runs on all n vertices; a ``min_extension``
    directly under the solve is warm start before the op's first master
    solve and distortion separation after it.
    """
    groups: dict[str, list[int]] = {key: [] for key in (
        "master", "cone", "membership", "distortion", "warm_start")}
    first_master: dict[int, float] = {}
    for i, s in enumerate(spans):
        parent = _parent_name(spans, s)
        if s.name == "lp.solve":
            if parent == "extension.cone_optimize":
                groups["cone"].append(i)
            elif parent == "operators.solve":
                groups["master"].append(i)
                first_master.setdefault(s.op, s.start)
    for i, s in enumerate(spans):
        if _parent_name(spans, s) != "operators.solve":
            continue
        solve = spans[s.parent]
        if s.name == "extension.cone_optimize":
            m = s.attrs["m"]
            if m == solve.attrs["k"]:
                groups["membership"].append(i)
            elif m == solve.attrs["n"]:
                groups["distortion"].append(i)
        elif s.name == "extension.min_extension":
            if s.start < first_master.get(s.op, float("inf")):
                groups["warm_start"].append(i)
            else:
                groups["distortion"].append(i)
    return groups


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], list[str]]:
    """The per-layer metrics of one traced pass, and the trace self-check failures."""
    g = classify(spans)
    own = _self_times(spans)

    def total(indices: list[int]) -> float:
        return sum(_duration(spans[i]) for i in indices)

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    solves = named("operators.solve")
    cone_calls = named("extension.cone_optimize")
    probes = len(g["membership"])
    cuts = sum(s.attrs["membership_cuts"] for s in solves)
    lower = [(i, s) for i, s in enumerate(spans) if s.name == "quality.metric_lower"]
    lower_ids = {i for i, _ in lower}
    m: dict[str, float] = {
        "lp.master.solves": len(g["master"]),
        "lp.master.busy_s": total(g["master"]),
        "lp.master.rows_max": max((spans[i].attrs["rows"] for i in g["master"]), default=0),
        "lp.master.cols_max": max((spans[i].attrs["cols"] for i in g["master"]), default=0),
        "lp.cone.solves": len(g["cone"]),
        "lp.cone.busy_s": total(g["cone"]),
        "lp.cone.rounds": sum(s.attrs["rounds"] for s in cone_calls),
        "operators.solve.busy_s": _busy(spans, "operators.solve"),
        "operators.solve.self_s": sum(own[i] for i, s in enumerate(spans)
                                      if s.name == "operators.solve"),
        "operators.rounds": sum(s.attrs["rounds"] for s in solves),
        "operators.membership_cuts": cuts,
        "operators.distortion_cuts": sum(s.attrs["distortion_cuts"] for s in solves),
        "operators.membership_probes": probes,
        "operators.membership_hit_ratio": cuts / probes if probes else 0.0,
        "operators.membership_sep.busy_s": total(g["membership"]),
        "operators.distortion_sep.busy_s": total(g["distortion"]),
        "operators.warm_start.busy_s": total(g["warm_start"]),
    }
    for short in ("min_extension", "cone_optimize", "min_cut_via_flow"):
        name = f"extension.{short}"
        m[f"{name}.calls"] = len(named(name))
        m[f"{name}.busy_s"] = _busy(spans, name)
    for short in ("cut", "metric_upper", "metric_lower", "flow"):
        m[f"quality.{short}.busy_s"] = _busy(spans, f"quality.{short}")
    m["quality.metric_lower.min_extension_calls"] = sum(
        1 for s in spans if s.name == "extension.min_extension" and s.parent in lower_ids)
    m["quality.flow.lp_calls"] = sum(
        1 for s in cone_calls if _has_ancestor(spans, s, "quality.flow"))
    m["certificates.certify.calls"] = len(named("certificates.certify"))
    m["certificates.certify.busy_s"] = _busy(spans, "certificates.certify")
    m["jsonio.parse.busy_s"] = _busy(spans, "jsonio.parse")
    m["jsonio.dump.busy_s"] = _busy(spans, "jsonio.dump")
    m["jsonio.bytes_out"] = sum(s.attrs.get("bytes", 0) for s in spans
                                if s.name == "jsonio.dump")
    m["cli.self_s"] = sum(own[i] for i, s in enumerate(spans) if s.name == "cli.main")

    op_total = _busy(spans, "cli.main")
    m["ops.busy_s"] = op_total
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        layer_self[LAYER_OF[s.name]] += own[i]
    for layer in LAYERS:
        m[f"share.{layer}"] = layer_self[layer] / op_total if op_total else 0.0
    return m, _self_check(spans, g, lower)


def _self_check(spans: list[Span], g: dict[str, list[int]],
                lower: list[tuple[int, Span]]) -> list[str]:
    """Cross-check the trace against what the program itself reports."""
    problems = []
    for op in sorted({s.op for s in spans if s.name == "operators.solve"}):
        solve = next(s for s in spans if s.name == "operators.solve" and s.op == op)
        master = sum(1 for i in g["master"] if spans[i].op == op)
        if master != solve.attrs["rounds"]:
            problems.append(f"op {op}: {master} traced master solves, "
                            f"{solve.attrs['rounds']} rounds reported")
        hits = sum(1 for i in g["membership"] if spans[i].op == op
                   and spans[i].attrs["positive"])
        if hits != solve.attrs["membership_cuts"]:
            problems.append(f"op {op}: {hits} traced membership cuts, "
                            f"{solve.attrs['membership_cuts']} reported")
    for index, s in lower:
        if not s.attrs["lower_ok"]:
            continue
        calls = sum(1 for t in spans if t.name == "extension.min_extension"
                    and t.parent == index)
        if calls != s.attrs["samples"]:
            problems.append(f"op {s.op}: lower check ran {calls} minimum extensions "
                            f"for {s.attrs['samples']} samples")
    return problems
