"""Benchmark of the vsparse command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sparsify-master --seed 1 --seconds 15 --trace 0

Each workload is a closed loop with one client: an op is one in-process
call of ``vsparse.cli.main``, and the next op starts when it returns. A pool
of instances is generated from ``--seed`` before any timing; the timed
window runs their ops in pool order until ``--seconds`` of calibrated op
time are spent, finishing the instance in progress. Every timing is
calibrated against a reference kernel timed between the ops (``clock.py``),
so that the speed swings of a shared machine cancel; raw timings are printed
beside them. Outputs are checked after the window. ``--trace 1`` runs the
same instances once more, traced, and reports per-layer metrics instead of
end-to-end ones; ``--smoke`` swaps in tiny instances. The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_SAMPLES = 16  # set-up samples per run, spread over the timed window
RAW_CAP = 2.0  # a window also ends after this many times --seconds of raw time

# The end-to-end metrics of BENCHMARK.json, reported in the result line.
END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}
# Printed with them but not in the result line: on grade-large the median op
# falls between op kinds whose times differ tenfold, and the slowest op is a
# single instance, so both spread too much over seeds to bound; error_rate is
# 0 whenever the program is correct; raw timings follow the machine's speed
# swings (see BASELINE.md).
PRINTED_ONLY = {"op_s_p50": "s", "op_s_max": "s", "error_rate": "frac",
                "raw.ops_per_s": "1/s", "raw.op_s_p50": "s", "raw.setup_s": "s",
                "clock.slowdown": "frac"}


def _import_program():
    """Import vsparse from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "vsparse" / "cli.py").is_file():
        raise SystemExit(f"error: no vsparse sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vsparse
    if Path(vsparse.__file__).resolve().parent != SRC / "vsparse":
        raise SystemExit(f"error: vsparse imported from {vsparse.__file__}, not {SRC}")


class SetupProbe:
    """Times a fresh interpreter importing ``vsparse.cli`` and running one
    trivial ``certify``, the start-up cost every CLI user pays on every call.

    Samples are taken between the ops of the timed window, so that their
    median spans the whole run instead of the few seconds one batch would
    take, and are calibrated like the ops.
    """

    def __init__(self, work: Path) -> None:
        from vsparse import certificates, jsonio
        from vsparse.core import WeightedGraph

        g = WeightedGraph(2, (0, 1), {(0, 1): 1})
        cert = certificates.CutCertificate(g, [(1, 1)], [(1, 1)])
        path = work / "setup-certificate.json"
        path.write_text(jsonio.dump_canonical(certificates.certificate_to_json(cert)),
                        encoding="utf-8")
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cmd = [sys.executable, "-m", "vsparse.cli", "certify", str(path)]
        self.raw: list[float] = []
        self.calibrated: list[float] = []
        self.attempted = self.failed = 0
        self.sample()  # fills the bytecode cache; not timed
        self.raw.clear()

    def sample(self) -> float:
        start = time.perf_counter()
        try:
            proc = subprocess.run(self.cmd, env=self.env, capture_output=True, text=True,
                                  timeout=120)
            ok = proc.returncode == 0 and proc.stdout.strip() == "1/1"
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            ok = False
        self.raw.append(time.perf_counter() - start)
        self.attempted += 1
        self.failed += not ok
        return self.raw[-1]


class Runner:
    """Runs the ops of a pool of instances and keeps what the checks need."""

    def __init__(self, pool) -> None:
        from vsparse import cli, operators

        self.cli = cli
        self.pool = pool
        self.done: list = []  # the instances the timed window got through
        self.first_stdout: dict[str, str] = {}
        self.reports: dict[str, object] = {}
        self.failed: set[str] = set()  # labels of ops that failed a call or a check
        self.calls = 0
        self.failed_calls = 0  # failed calls, one per op and run of it
        self.failed_checks = 0  # ops of instances whose output check failed
        self.slowdown: list[float] = []  # reference kernel time over its nominal time
        self.problems: list[str] = []
        self._current = ""
        solve = operators.find_optimal_operator

        def keep_report(*args, **kwargs):
            report = solve(*args, **kwargs)
            self.reports.setdefault(self._current, report)
            return report

        # The checks need the solve report, which the CLI does not write out.
        tracing.replace_everywhere(solve, keep_report)

    @property
    def ops(self) -> list:
        return [op for inst in self.done for op in inst.ops]

    def _call(self, argv: list[str]) -> tuple[object, str, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # counted as a failed op
            rc = f"{type(exc).__name__}: {exc}"
        return rc, out.getvalue(), err.getvalue()

    def warm_up(self, instances) -> None:
        """Run tiny ops once, untimed, so lazy imports and caches of the
        interpreter do not land on the first timed op."""
        for inst in instances:
            for op in inst.ops:
                self._call(op.argv)

    def run(self, seconds: float | None = None, tracer=None,
            probe: SetupProbe | None = None) -> tuple[list[float], list[float]]:
        """Run instances of the pool in order, each op once, with a reference
        kernel sample before each op and after the last.

        With ``seconds``, stop after the instance during which the calibrated
        op time reached ``seconds`` (or the raw time RAW_CAP times that), and
        remember the instances done; without, run those instances again.
        Returns the raw and the calibrated time of each op.
        """
        times, refs, probed = [], [clock.sample()], []
        instances = self.pool if seconds is not None else self.done
        spent, raw_spent, done = 0.0, 0.0, 0
        for inst in instances:
            for op in inst.ops:
                self._current = op.label
                if tracer is not None:
                    tracer.op = len(times)
                start = time.perf_counter()
                rc, out, err = self._call(op.argv)
                times.append(time.perf_counter() - start)
                refs.append(clock.sample())
                spent += times[-1] * clock.NOMINAL_S / statistics.median(refs[-clock.WINDOW:])
                raw_spent += times[-1]
                # Share of the window gone, by whichever limit ends it first.
                progress = seconds and max(spent / seconds, raw_spent / (RAW_CAP * seconds))
                if probe is not None and progress >= len(probed) / SETUP_SAMPLES:
                    probed.append((len(times), probe.sample()))
                self.calls += 1
                stdout = self.first_stdout.setdefault(op.label, out)
                if rc != 0 or stdout != out:
                    self.failed.add(op.label)
                    self.failed_calls += 1
                    self.problems.append(f"{op.label}: exit {rc}, stdout {out!r}, "
                                         f"stderr {err.strip()!r}")
            done += 1
            if seconds is not None and progress >= 1:
                break
        if seconds is not None:
            self.done = instances[:done]
        if probe is not None:
            probe.calibrated += [raw * clock.scale(refs, i) for i, raw in probed]
        self.slowdown += [ref / clock.NOMINAL_S for ref in refs]
        return times, [t * clock.scale(refs, i) for i, t in enumerate(times)]

    def check(self, kind: str) -> dict[str, dict]:
        """Check each instance done whose ops all ran; a failed check fails all its ops."""
        import checks

        values = {}
        for inst in self.done:
            labels = [op.label for op in inst.ops]
            if self.failed.intersection(labels):
                continue
            stdout = {op.role: self.first_stdout[op.label] for op in inst.ops}
            try:
                if kind == "sparsify":
                    problems, got = checks.check_sparsify(
                        inst, stdout["sparsify"], self.reports.get(labels[0]))
                else:
                    problems, got = checks.check_grade(inst, stdout)
            except Exception as exc:  # output the check cannot even read
                problems, got = [f"{type(exc).__name__}: {exc}"], {}
            values[inst.label] = got
            if problems:
                self.failed.update(labels)
                self.failed_checks += len(labels)
                self.problems.extend(f"{inst.label}: {p}" for p in problems)
        return values


def check_pins(workload: str, smoke: bool, done: list, values: dict[str, dict]) -> list[str]:
    """Compare the values of the instances done with those pinned for the
    default seed; pins cover a prefix of the pool, in pool order."""
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    key = f"{workload}{'/smoke' if smoke else ''}"
    if key not in pins:
        return [f"no pinned values for {key}"]
    return [f"{inst.label}: got {values.get(inst.label)}, pinned {want}"
            for inst, (label, want) in zip(done, pins[key].items())
            if inst.label != label or values.get(inst.label) != want]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sparsify-master", "sparsify-small", "grade-large"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, for the benchmark's own test")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    work = ROOT / ".perfbench" / (f"{args.workload}-{args.seed}-{args.trace}"
                                  + ("-smoke" if args.smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    pool = workloads.build(args.workload, args.seed, work / "inputs", args.smoke)
    kind = workloads.WORKLOADS[args.workload].kind

    probe = SetupProbe(work)
    real = tracing.real_targets()  # before the runner replaces the solve
    runner = Runner(pool)
    runner.warm_up(workloads.build(args.workload, args.seed, work / "warm-up", smoke=True))
    prepared = time.perf_counter()
    raw, cal = runner.run(seconds=args.seconds, probe=probe)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    labels = [op.label for op in runner.ops]
    (work / "op_times.json").write_text(json.dumps(
        {label: {"raw": raw[i], "calibrated": cal[i]} for i, label in enumerate(labels)},
        indent=1) + "\n", encoding="utf-8")

    layer, trace_problems = {}, []
    if args.trace:
        tracer = tracing.Tracer(real)
        tracer.install()
        try:
            _, traced = runner.run(tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(work / "spans.jsonl")
        layer, trace_problems = tracing.layer_metrics(tracer.spans)
        layer["trace.overhead_frac"] = sum(traced) / sum(cal) - 1
        layer["untraced.ops_per_s"] = len(cal) / sum(cal)
    timed = time.perf_counter()

    values = runner.check(kind)
    (work / "values.json").write_text(json.dumps(values, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    problems = runner.problems + [f"trace: {p}" for p in trace_problems]
    if probe.failed:
        problems.append(f"setup probe: {probe.failed} of {probe.attempted} runs failed")
    if args.seed == DEFAULT_SEED:
        problems += [f"pin: {p}"
                     for p in check_pins(args.workload, args.smoke, runner.done, values)]
    # Ops of the workload only; a failed set-up probe makes the run incorrect.
    attempted = runner.calls
    failed = runner.failed_calls + runner.failed_checks

    e2e = {
        "ops_per_s": len(cal) / sum(cal),
        "op_s_p50": statistics.median(cal),
        "setup_s": statistics.median(probe.calibrated),
        "peak_rss_mib": peak_rss_mib,
        "op_s_max": max(cal),
        "error_rate": failed / attempted,
        "raw.ops_per_s": len(raw) / sum(raw),
        "raw.op_s_p50": statistics.median(raw),
        "raw.setup_s": statistics.median(probe.raw),
        "clock.slowdown": statistics.median(runner.slowdown),
    }
    for p in problems:
        print(f"problem: {p}")
    print(f"workload {args.workload} seed {args.seed}: {len(runner.done)} of "
          f"{len(pool)} instances, {len(cal)} ops, {len(probe.calibrated)} set-up samples; "
          f"inputs {prepared - started:.1f} s, timed {timed - prepared:.1f} s, "
          f"checks {time.perf_counter() - timed:.1f} s")
    for name, unit in {**END_TO_END, **PRINTED_ONLY}.items():
        print(f"  {name:<44} {e2e[name]:.6g} {unit}")
    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.unit(name)}
                   for name, value in layer.items()}
        for name, metric in metrics.items():
            print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
