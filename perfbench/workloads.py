"""Seeded inputs of the benchmark workloads.

Every input file is written here, from the workload seed alone, before any
timing starts: graphs from :func:`vsparse.sampling.random_graph`, and for
grading the collapse of a seeded zero-extension operator, a demand set and
seeded cut and metric certificates. The program under test only ever sees
these JSON files, through its command line.

Solve and extension times of random graphs vary widely: a (6,3) operator
solve varies by a factor of about two around its mean from graph to graph,
and across seeds a (6,5) one took 0.4 s to 15 s and a (7,4) one 10 s to
50 s. A run therefore goes through many small instances rather than a few
large ones, so that its totals measure the program and not the draw. The
pool holds about five times what a 15-second window gets through, in cycles
of a fixed mix of shapes, so every prefix has the same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from vsparse import certificates, jsonio, operators, quality
from vsparse.core import WeightedGraph, canonicalize, cut_metric
from vsparse.sampling import random_demands, random_fraction, random_graph, random_metric


@dataclass(frozen=True)
class Spec:
    """A workload: what each instance runs, on which (n, k) shapes, in what mix."""

    kind: str                                 # "sparsify" or "grade"
    shapes: tuple[tuple[int, int, int], ...]  # (n, k, graphs per cycle)
    cycles: int                               # cycles in the pool
    samples: int | None                       # CLI --samples; None keeps its default
    density: float = 1.0                      # random_graph edge density


WORKLOADS = {
    "sparsify-master": Spec("sparsify", ((6, 3, 1), (5, 4, 1)), 90, 0),
    "sparsify-small": Spec("sparsify", ((5, 3, 3), (5, 4, 3), (6, 3, 1)), 28, None),
    "grade-large": Spec("grade", ((8, 4, 1), (8, 5, 1)), 110, 3, density=0.5),
}

# Tiny versions of the same three workloads, for the benchmark's own test.
SMOKE = {
    "sparsify-master": Spec("sparsify", ((4, 2, 1), (5, 3, 1)), 1, 0),
    "sparsify-small": Spec("sparsify", ((4, 2, 1), (4, 3, 1)), 1, 5),
    "grade-large": Spec("grade", ((5, 3, 1),), 1, 2),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``role`` tells the checks what it produced."""

    label: str
    role: str
    argv: list[str]
    out: Path | None  # the file or directory it writes; None when it only prints


@dataclass
class Instance:
    label: str
    graph: WeightedGraph
    assignment: tuple[int, ...]  # canonical vertex -> terminal-local index
    ops: list[Op] = field(default_factory=list)


def _write(path: Path, data: object) -> str:
    path.write_text(jsonio.dump_canonical(data), encoding="utf-8")
    return str(path)


def _distribution(rng: random.Random, masks: list[int]) -> list[tuple[int, Fraction]]:
    weights = [random_fraction(rng, 6, 4, min_num=1) for _ in masks]
    total = sum(weights, Fraction(0))
    return [(mask, w / total) for mask, w in zip(masks, weights)]


def _grade_ops(inst: Instance, rng: random.Random, where: Path, graph_file: str,
               samples: int) -> None:
    g = inst.graph
    n, k = g.n, g.k
    g_c, _ = canonicalize(g)
    zero_ext = operators.zero_extension_operator(n, k, inst.assignment)
    beta = operators.operator_to_sparsifier(zero_ext, g_c)
    sparsifier = _write(where / "sparsifier.json", quality.sparsifier_to_json(beta))
    demands = _write(where / "demands.json",
                     jsonio.demands_to_json(random_demands(rng, k, k)))
    proper = list(range(1, (1 << k) - 1))
    cut_cert = certificates.CutCertificate(
        g, _distribution(rng, rng.sample(proper, 3)), _distribution(rng, proper))
    sides = [[p for p in range(k) if mask >> p & 1] for mask in rng.sample(proper, 2)]
    metric_cert = certificates.MetricCertificate(
        g, [cut_metric(side, k) for side in sides] + [random_metric(rng, k)])
    common = [graph_file, sparsifier]
    seed = str(rng.randrange(1 << 31))
    for role, extra in (
            ("cut", ["--semantics", "cut"]),
            ("metric", ["--semantics", "metric", "--samples", str(samples), "--seed", seed]),
            ("flow", ["--semantics", "flow", "--demands", demands])):
        out = where / f"quality_{role}.json"
        inst.ops.append(Op(f"{inst.label}/{role}", role,
                           ["quality", *common, *extra, "--out", str(out)], out))
    for role, cert in (("certify-cut", cut_cert), ("certify-metric", metric_cert)):
        path = _write(where / f"{role}.json", certificates.certificate_to_json(cert))
        inst.ops.append(Op(f"{inst.label}/{role}", role, ["certify", path], None))


def build(name: str, seed: int, work: Path, smoke: bool) -> list[Instance]:
    """Write the inputs of one workload's pool under ``work``; returns its
    instances in run order.

    Each cycle interleaves its shapes round-robin, so that every part of a
    window holds the same mix of shapes.
    """
    spec = (SMOKE if smoke else WORKLOADS)[name]
    rng = random.Random(f"{name}/{seed}")
    cycle = [(n, k) for i in range(max(c for _, _, c in spec.shapes))
             for n, k, c in spec.shapes if i < c]
    instances = []
    for index, (n, k) in enumerate(cycle * spec.cycles):
        graph = random_graph(random.Random(rng.randrange(1 << 63)), n, k, density=spec.density)
        assignment = tuple(range(k)) + tuple(rng.randrange(k) for _ in range(n - k))
        inst = Instance(f"{index:03d}-n{n}k{k}", graph, assignment)
        where = work / inst.label
        where.mkdir(parents=True)
        graph_file = _write(where / "graph.json", jsonio.graph_to_json(graph))
        if spec.kind == "grade":
            _grade_ops(inst, rng, where, graph_file, spec.samples)
        else:
            out = where / "out"
            argv = ["sparsify", graph_file, "--out", str(out),
                    "--seed", str(rng.randrange(1 << 31))]
            if spec.samples is not None:
                argv += ["--samples", str(spec.samples)]
            inst.ops.append(Op(f"{inst.label}/sparsify", "sparsify", argv, out))
        instances.append(inst)
    return instances
