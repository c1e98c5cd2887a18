"""End-to-end CLI runs through main(): exit codes, artifacts, determinism."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from vsparse import (
    CutCertificate,
    DemandSet,
    MetricCertificate,
    QualityReport,
    Sparsifier,
    WeightedGraph,
    canonicalize,
    certificate_to_json,
    cut_metric,
    find_optimal_operator,
    harvest_certificate,
    metric_quality_upper,
    operator_from_json,
    operator_to_sparsifier,
    report_from_json,
    report_to_json,
    sparsifier_from_json,
    sparsifier_to_json,
)
import vsparse
from vsparse import cli, extension, lp, mincut, operators, quality
from vsparse.cli import main
from vsparse.jsonio import demands_to_json, dump_canonical, graph_to_json, loads
from vsparse.sampling import random_graph
from helpers import path3, unit_star

F = Fraction

ARTIFACTS = ["operator.json", "sparsifier.json", "quality_cut.json",
             "quality_metric.json", "quality_flow.json"]


def write_json(path, data) -> str:
    path.write_text(dump_canonical(data), encoding="utf-8")
    return str(path)


def star_file(tmp_path, name="graph.json"):
    return write_json(tmp_path / name, graph_to_json(unit_star(3)))


def half_triangle_file(tmp_path, name="beta.json"):
    beta = Sparsifier(3, {(p, q): F(1, 2) for p in range(3) for q in range(p + 1, 3)})
    return write_json(tmp_path / name, sparsifier_to_json(beta))


def split_graph_file(tmp_path, name="split.json"):
    g = WeightedGraph(4, [0, 1], {(0, 2): 1, (1, 3): 1})
    return write_json(tmp_path / name, graph_to_json(g))


# --- sparsify --------------------------------------------------------------

def test_sparsify_star(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sparsify", star_file(tmp_path), "--out", str(out)])
    assert code == 0
    line = capsys.readouterr().out
    assert line == "Q = 4/3 (4 rounds, 7 membership cuts, 0 distortion cuts)\n"
    for name in ARTIFACTS:
        assert (out / name).is_file()
    assert not list(out.glob("*.tmp"))

    beta = sparsifier_from_json(loads((out / "sparsifier.json").read_text()))
    assert beta == Sparsifier(3, {(p, q): F(2, 3) for p in range(3) for q in range(p + 1, 3)})
    phi = operator_from_json(loads((out / "operator.json").read_text()))
    assert phi == find_optimal_operator(unit_star(3)).operator

    cut = report_from_json(loads((out / "quality_cut.json").read_text()))
    assert cut.q_value == F(4, 3) and cut.lower_ok is True
    metric = report_from_json(loads((out / "quality_metric.json").read_text()))
    assert metric.q_value == F(4, 3) and metric.lower_ok is True
    assert metric.completeness == "exact"
    flow = report_from_json(loads((out / "quality_flow.json").read_text()))
    assert flow.q_value == F(4, 3) and flow.lower_ok is True
    assert flow.witness == DemandSet([(p, q, w) for (p, q), w in sorted(beta.beta.items())])
    assert flow.completeness == "exact"


def test_sparsify_is_deterministic(tmp_path):
    graph = star_file(tmp_path)
    for sub in ("a", "b"):
        assert main(["sparsify", graph, "--out", str(tmp_path / sub), "--seed", "7"]) == 0
    for name in ARTIFACTS:
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes()
        assert first.endswith(b"\n")


def test_sparsify_computes_metric_upper_bound_once(tmp_path, monkeypatch):
    from vsparse import quality
    calls = []
    upper = quality.metric_quality_upper
    monkeypatch.setattr(quality, "metric_quality_upper",
                        lambda *args: calls.append(args) or upper(*args))
    assert main(["sparsify", star_file(tmp_path), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_sparsify_solves_two_concurrent_flows(tmp_path, monkeypatch):
    from vsparse import quality
    calls = []
    flow = quality.max_concurrent_flow
    monkeypatch.setattr(quality, "max_concurrent_flow",
                        lambda *args: calls.append(args) or flow(*args))
    assert main(["sparsify", star_file(tmp_path), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 2


def test_sparsify_cross_checks_metric_upper_bound(tmp_path, monkeypatch):
    # a value below Q passes the solve's distortion probe; one above it
    # would be a distortion hit instead
    from vsparse import lp, quality
    upper = quality.metric_quality_upper
    monkeypatch.setattr(quality, "metric_quality_upper",
                        lambda *args: upper(*args).replace(q_value=F(6, 5)))
    with pytest.raises(lp.LpAuditError, match="6/5 of the collapse is not the operator's Q 4/3"):
        main(["sparsify", star_file(tmp_path), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("n, k", [(6, 3), (5, 4)])
def test_sparsify_writes_the_solves_metric_upper_report(tmp_path, n, k):
    # the report of the final distortion probe, as a fresh grading of the
    # collapse writes it
    g = random_graph(random.Random(10 * n + k), n, k)
    graph = write_json(tmp_path / "graph.json", graph_to_json(g))
    assert main(["sparsify", graph, "--out", str(tmp_path / "out")]) == 0
    g_c, _ = canonicalize(g)
    phi = operator_from_json(loads((tmp_path / "out" / "operator.json").read_text()))
    fresh = metric_quality_upper(g_c, operator_to_sparsifier(phi, g_c)).replace(lower_ok=True)
    assert (tmp_path / "out" / "quality_metric.json").read_text() == \
        dump_canonical(report_to_json(fresh))


def test_sparsify_proves_metric_lower_bound_from_membership(tmp_path, monkeypatch):
    from vsparse import quality

    def refuse(*args, **kwargs):
        raise AssertionError("sparsify must not sample a lower check")

    monkeypatch.setattr(quality, "metric_lower_check", refuse)
    assert main(["sparsify", star_file(tmp_path), "--out", str(tmp_path / "out")]) == 0


def test_sparsify_checks_operator_membership(tmp_path, monkeypatch):
    from vsparse import lp, operators
    violation = operators.MembershipViolation((0, 1, 3), cut_metric([0], 3), F(1))
    monkeypatch.setattr(operators, "membership_oracle", lambda phi: violation)
    with pytest.raises(lp.LpAuditError, match="not a member of the operator cone"):
        main(["sparsify", star_file(tmp_path), "--out", str(tmp_path / "out")])


def test_sparsify_artifacts_ignore_seed_and_samples(tmp_path):
    graph = star_file(tmp_path)
    for seed, samples in (("1", "0"), ("2", "100")):
        assert main(["sparsify", graph, "--out", str(tmp_path / seed),
                     "--seed", seed, "--samples", samples]) == 0
    for name in ARTIFACTS:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_sparsify_single_terminal_writes_vacuous_flow(tmp_path):
    g = WeightedGraph(2, [0], {(0, 1): 3})
    graph = write_json(tmp_path / "g.json", graph_to_json(g))
    assert main(["sparsify", graph, "--out", str(tmp_path / "out")]) == 0
    flow = report_from_json(loads((tmp_path / "out" / "quality_flow.json").read_text()))
    assert flow.q_value == 0 and flow.witness is None
    assert flow.completeness == "exact"


def test_sparsify_split_graph_writes_vacuous_flow(tmp_path, capsys):
    # no path joins the terminals: Q = 0, the sparsifier is empty, every flow is 0
    assert main(["sparsify", split_graph_file(tmp_path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("Q = 0/1 ")
    flow = report_from_json(loads((tmp_path / "out" / "quality_flow.json").read_text()))
    assert flow == QualityReport("flow", F(0), True, None, "exact")


@pytest.mark.parametrize("seed", range(40))
def test_sparsify_reports_carry_the_printed_q_on_small_draws(tmp_path, capsys, seed):
    # about half of these draws have one terminal or terminals with no path
    # between them, where Q = 0: nothing to grade reads 0 under every semantics
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    k = rng.randint(1, min(n, 4))
    g = random_graph(rng, n, k, connected=rng.random() < 0.5)
    graph = write_json(tmp_path / "g.json", graph_to_json(g))
    assert main(["sparsify", graph, "--out", str(tmp_path / "out")]) == 0
    printed = capsys.readouterr().out.split()[2]
    q_of = {semantics: loads((tmp_path / "out" / f"quality_{semantics}.json").read_text())
            ["q_value"] for semantics in ("cut", "metric", "flow")}
    assert q_of["metric"] == q_of["flow"] == printed
    assert F(q_of["cut"]) <= F(printed)


def test_sparsify_iteration_cap(tmp_path, capsys):
    graph = star_file(tmp_path)
    for reused in (False, True):
        out = tmp_path / f"out-{reused}"
        if reused:  # a converged run's reports are in --out already
            assert main(["sparsify", graph, "--out", str(out)]) == 0
        code = main(["sparsify", graph, "--out", str(out), "--max-iters", "1"])
        assert code == 3
        assert "no convergence within 1 rounds" in capsys.readouterr().err
        # the best iterate is still written, no quality report is left
        assert (out / "operator.json").is_file()
        assert (out / "sparsifier.json").is_file()
        assert not list(out.glob("quality_*.json"))


def test_sparsify_parse_error(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"terminals": [0], "edges": []})
    code = main(["sparsify", bad, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "missing" in capsys.readouterr().err


def test_sparsify_missing_file(tmp_path, capsys):
    code = main(["sparsify", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["sparsify", "--out", "OUT"],
    ["oracle"],
    ["quality", "BETA", "--semantics", "cut"],
    ["quality", "BETA", "--semantics", "metric"],
], ids=["sparsify", "oracle", "quality-cut", "quality-metric"])
def test_more_terminals_than_the_cut_cap_are_refused_before_any_work(tmp_path, capsys,
                                                                     monkeypatch, command):
    # 21 terminals have 2^20 - 1 bipartitions: no max-flow, LP or artifact
    # may come before the refusal
    def never(*args, **kwargs):
        raise AssertionError("work started before the terminal count was checked")

    for module in (extension, mincut, operators, quality):
        monkeypatch.setattr(module, "min_cut_via_flow", never)
    monkeypatch.setattr(lp, "solve", never)
    graph = write_json(tmp_path / "star.json", graph_to_json(unit_star(21)))
    beta = write_json(tmp_path / "beta.json", sparsifier_to_json(Sparsifier(21, {})))
    out = tmp_path / "out"
    names = {"OUT": str(out), "BETA": beta}
    assert main([command[0], graph, *[names.get(arg, arg) for arg in command[1:]]]) == 2
    assert "k = 21 terminals exceeds cap 20" in capsys.readouterr().err
    assert not (out / "operator.json").exists()


@pytest.mark.parametrize("code", [2, 4], ids=["too-many-terminals", "no-finite-distortion"])
def test_sparsify_refusals_create_no_out_directory(tmp_path, monkeypatch, code):
    # neither refusal writes an artifact, so neither may leave --out behind
    if code == 2:  # 21 terminals, over the cut cap
        graph = write_json(tmp_path / "star21.json", graph_to_json(unit_star(21)))
    else:
        def no_operator(*args, **kwargs):
            raise operators.NoFiniteDistortionError("no operator of finite distortion")

        monkeypatch.setattr(operators, "find_optimal_operator", no_operator)
        graph = star_file(tmp_path)
    assert main(["sparsify", graph, "--out", str(tmp_path / "out")]) == code
    assert not (tmp_path / "out").exists()


# --- quality ---------------------------------------------------------------

def test_quality_cut_to_stdout(tmp_path, capsys):
    code = main(["quality", star_file(tmp_path), half_triangle_file(tmp_path),
                 "--semantics", "cut"])
    assert code == 0
    blob = capsys.readouterr().out
    assert blob.endswith("\n")
    report = report_from_json(loads(blob))
    assert report.q_value == 1 and report.lower_ok is True


def test_quality_metric_to_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(["quality", star_file(tmp_path), half_triangle_file(tmp_path),
                 "--semantics", "metric", "--out", str(out), "--samples", "20"])
    assert code == 0
    report = report_from_json(loads(out.read_text()))
    assert report.q_value == 1
    assert report.completeness == "sampled"


def test_quality_flow_needs_demands(tmp_path, capsys):
    code = main(["quality", star_file(tmp_path), half_triangle_file(tmp_path),
                 "--semantics", "flow"])
    assert code == 2
    assert "requires --demands" in capsys.readouterr().err


@pytest.mark.parametrize("semantics", ["cut", "metric"])
def test_quality_refuses_demands_outside_flow(tmp_path, capsys, semantics):
    # only flow grades a demand set; cut and metric would drop the file unread
    demands = write_json(tmp_path / "d.json", demands_to_json(DemandSet([(0, 1, 1)])))
    out = tmp_path / "report.json"
    code = main(["quality", star_file(tmp_path), half_triangle_file(tmp_path),
                 "--semantics", semantics, "--demands", demands, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {semantics} semantics takes no --demands\n")
    assert not out.exists()


@pytest.mark.parametrize("semantics", ["cut", "flow"])
@pytest.mark.parametrize("flag", ["--seed", "--samples"])
def test_quality_refuses_sampling_flags_outside_metric(tmp_path, capsys, semantics, flag):
    # only metric semantics samples; the refusal comes before any file is read
    missing = str(tmp_path / "absent.json")
    demands = ["--demands", missing] if semantics == "flow" else []
    out = tmp_path / "report.json"
    code = main(["quality", missing, missing, "--semantics", semantics, *demands,
                 flag, "7", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr() == (
        "", f"error: {semantics} semantics takes no --seed or --samples\n")
    assert not out.exists()


def test_quality_metric_samples_seed_0_and_100_metrics_by_default(tmp_path, monkeypatch):
    seen = []
    real = quality.metric_lower_check

    def spy(g, beta, samples, seed):
        seen.append((samples, seed))
        return real(g, beta, samples=samples, seed=seed)

    monkeypatch.setattr(quality, "metric_lower_check", spy)
    graph, beta = star_file(tmp_path), half_triangle_file(tmp_path)
    assert main(["quality", graph, beta, "--semantics", "metric", "--out",
                 str(tmp_path / "a.json")]) == 0
    assert main(["quality", graph, beta, "--semantics", "metric", "--seed", "3",
                 "--samples", "5", "--out", str(tmp_path / "b.json")]) == 0
    assert seen == [(100, 0), (5, 3)]


def test_quality_flow_with_demands(tmp_path, capsys):
    demands = write_json(tmp_path / "d.json",
                         demands_to_json(DemandSet([(0, 1, 1), (1, 2, F(1, 2))])))
    code = main(["quality", star_file(tmp_path), half_triangle_file(tmp_path),
                 "--semantics", "flow", "--demands", demands])
    assert code == 0
    report = report_from_json(loads(capsys.readouterr().out))
    assert report.semantics == "flow"
    assert report.q_value >= 1


def test_quality_flow_underweight_reports_lower_failure(tmp_path, capsys):
    graph = write_json(tmp_path / "g.json", graph_to_json(path3()))
    beta = write_json(tmp_path / "b.json", sparsifier_to_json(Sparsifier(2, {(0, 1): F(1, 4)})))
    demands = write_json(tmp_path / "d.json", demands_to_json(DemandSet([(0, 1, 1)])))
    code = main(["quality", graph, beta, "--semantics", "flow", "--demands", demands])
    assert code == 0
    report = report_from_json(loads(capsys.readouterr().out))
    assert report.q_value == F(1, 4) and report.lower_ok is False
    assert report.witness == DemandSet([(0, 1, 1)]) and report.completeness == "sampled"


def test_quality_terminal_count_mismatch(tmp_path, capsys):
    # quality's own check, which main turns into exit 2, under every semantics
    path = write_json(tmp_path / "p.json", graph_to_json(path3()))
    beta = half_triangle_file(tmp_path)
    demands = write_json(tmp_path / "d.json", demands_to_json(DemandSet([(0, 1, 1)])))
    for semantics in ["cut", "metric", "flow"]:
        flow_only = ["--demands", demands] if semantics == "flow" else []
        code = main(["quality", path, beta, "--semantics", semantics, *flow_only])
        assert code == 2
        assert capsys.readouterr().err == "error: sparsifier has 3 terminals, graph has 2\n"


def test_quality_unbounded_exit(tmp_path, capsys):
    beta = write_json(tmp_path / "b.json",
                      sparsifier_to_json(Sparsifier(2, {(0, 1): F(1)})))
    code = main(["quality", split_graph_file(tmp_path), beta, "--semantics", "cut"])
    assert code == 4
    data = loads(capsys.readouterr().out)
    assert data["q_value"] == "unbounded"


@pytest.mark.parametrize("semantics", ["metric", "flow"])
def test_quality_unbounded_like_cut(tmp_path, capsys, semantics):
    # G does not join the terminals, the sparsifier does: unbounded, as under cut
    beta = write_json(tmp_path / "b.json", sparsifier_to_json(Sparsifier(2, {(0, 1): F(1)})))
    demands = write_json(tmp_path / "d.json", demands_to_json(DemandSet([(0, 1, 1)])))
    flow_only = ["--demands", demands] if semantics == "flow" else []
    code = main(["quality", split_graph_file(tmp_path), beta, "--semantics", semantics,
                 *flow_only])
    assert code == 4
    assert loads(capsys.readouterr().out)["q_value"] == "unbounded"


def test_quality_out_to_a_directory_leaves_no_temp_file(tmp_path, capsys):
    # the report goes to D.tmp, and replacing the directory D with it fails
    out = tmp_path / "D"
    out.mkdir()
    code = main(["quality", star_file(tmp_path), half_triangle_file(tmp_path),
                 "--semantics", "cut", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{out}.tmp' -> '{out}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["D", "beta.json", "graph.json"]
    assert not any(out.iterdir())


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def disk_full(self, text, encoding):
        with open(self, "w", encoding=encoding) as f:
            f.write(text[:1])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.Path, "write_text", disk_full)
    with pytest.raises(OSError, match="No space left on device"):
        cli._write_atomic(tmp_path / "report.json", "{}\n")
    assert not any(tmp_path.iterdir())


# --- certify -----------------------------------------------------------------

def test_certify_cut_certificate(tmp_path, capsys):
    cert = CutCertificate(path3(), [(1, 1)], [(1, 1)])
    path = write_json(tmp_path / "c.json", certificate_to_json(cert))
    assert main(["certify", path]) == 0
    assert capsys.readouterr().out == "1/1\n"


def test_certify_degenerate_prints_invalid(tmp_path, capsys):
    cert = CutCertificate(unit_star(3), [(0, F(1, 2)), (7, F(1, 2))],
                          [(1, F(1, 3)), (2, F(1, 3)), (4, F(1, 3))])
    path = write_json(tmp_path / "c.json", certificate_to_json(cert))
    assert main(["certify", path]) == 0
    assert capsys.readouterr().out == "invalid\n"


def test_certify_harvested_metric_certificate(tmp_path, capsys):
    cert = harvest_certificate(find_optimal_operator(unit_star(3)))
    path = write_json(tmp_path / "c.json", certificate_to_json(cert))
    assert main(["certify", path]) == 0
    assert capsys.readouterr().out == "1/1\n"


def test_certify_rejects_unknown_type(tmp_path, capsys):
    cert = certificate_to_json(CutCertificate(path3(), [(1, 1)], [(1, 1)]))
    cert["type"] = "flow"
    path = write_json(tmp_path / "c.json", cert)
    assert main(["certify", path]) == 2
    assert "unknown certificate type" in capsys.readouterr().err


# --- oracle -------------------------------------------------------------------

def test_oracle_all_modes_agree(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", graph_to_json(path3()))
    code = main(["oracle", path, "--mode", "all", "--samples", "2"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    # 2 mincut rows for the single bipartition, 1 cut metric + 2 samples
    assert len(lines) == 5
    assert all(line.endswith("ok") for line in lines)
    assert sum("mincut" in line for line in lines) == 2
    assert sum("zeroext" in line for line in lines) == 3


def test_oracle_mincut_mode_only(tmp_path, capsys):
    code = main(["oracle", star_file(tmp_path), "--mode", "mincut"])
    assert code == 0
    out = capsys.readouterr().out
    assert "zeroext" not in out
    # 3 bipartitions, each checked against flow and enumeration
    assert len(out.splitlines()) == 6
    assert "MISMATCH" not in out


def test_oracle_single_terminal_is_vacuous(tmp_path, capsys):
    g = WeightedGraph(2, [0], {(0, 1): 1})
    path = write_json(tmp_path / "g.json", graph_to_json(g))
    assert main(["oracle", path]) == 0
    assert "fewer than two terminals" in capsys.readouterr().out


def test_oracle_seed_changes_samples_not_verdict(tmp_path, capsys):
    path = write_json(tmp_path / "p.json", graph_to_json(path3()))
    outputs = []
    for seed in ("0", "1"):
        assert main(["oracle", path, "--mode", "zeroext", "--samples", "3",
                     "--seed", seed]) == 0
        outputs.append(capsys.readouterr().out)
    assert all("MISMATCH" not in text for text in outputs)


@pytest.mark.parametrize("n,weight", [
    (2, "1." + "0" * 20_000),  # not a rational string
    (2, "1" * 5_000 + "/1"),   # past the interpreter's int-string digit limit
    ("9" * 20_000, "1/1"),     # not an integer
], ids=["decimal", "long-numerator", "string-n"])
def test_oracle_error_quotes_are_bounded(tmp_path, capsys, n, weight):
    path = write_json(tmp_path / "g.json", {"n": n, "terminals": [0, 1],
                                            "edges": [[0, 1, weight]]})
    assert main(["oracle", path]) == 2
    err = capsys.readouterr().err
    assert len(err.encode("utf-8")) < 1024
    assert " characters)" in err


def test_a_repeated_key_is_a_parse_error_not_the_last_value(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "terminals": [0, 1], "edges": [[0, 2, "1/1"]], '
                    '"edges": [[0, 1, "5/1"], [1, 2, "1/1"]]}', encoding="utf-8")
    assert main(["oracle", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "repeated object key 'edges'" in captured.err


@pytest.mark.parametrize("command", [
    ["oracle", "{deep}"],
    ["sparsify", "{deep}", "--out", "{out}"],
    ["quality", "{deep}", "{deep}", "--semantics", "cut"],
    ["certify", "{deep}"],
], ids=lambda argv: argv[0])
def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys, command):
    # deeper than the parser's recursion limit: an error message, not a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000, encoding="utf-8")
    argv = [arg.format(deep=deep, out=tmp_path / "out") for arg in command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.encode("utf-8")) < 1024


# --- argument handling ----------------------------------------------------------

def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize("command,flag,value", [
    (["quality", "{graph}", "{beta}", "--semantics", "metric"], "--samples", "-3"),
    (["oracle", "{graph}"], "--samples", "-2"),
    (["sparsify", "{graph}", "--out", "{out}"], "--max-iters", "0"),
    (["sparsify", "{graph}", "--out", "{out}"], "--max-iters", "-1"),
    (["oracle", "{graph}"], "--budget", "-5"),
    (["oracle", "{graph}"], "--budget", "0"),
])
def test_out_of_range_counts_are_parse_errors(tmp_path, capsys, command, flag, value):
    names = {"graph": star_file(tmp_path), "beta": half_triangle_file(tmp_path),
             "out": str(tmp_path / "out")}
    with pytest.raises(SystemExit) as exc:
        main([part.format(**names) for part in command] + [flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be at least" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # rejected before any work


@pytest.mark.parametrize("flag", ["--samples", "--max-iters"])
def test_count_flags_reject_non_integers(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["sparsify", star_file(tmp_path), "--out", str(tmp_path / "o"), flag, "2.5"])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int value: '2.5'" in capsys.readouterr().err


def test_zero_samples_are_legal(tmp_path, capsys):
    graph, beta = star_file(tmp_path), half_triangle_file(tmp_path)
    assert main(["quality", graph, beta, "--semantics", "metric", "--samples", "0"]) == 0
    assert report_from_json(loads(capsys.readouterr().out)).semantics == "metric"
    assert main(["oracle", graph, "--samples", "0"]) == 0
    assert "zeroext sample" not in capsys.readouterr().out
    assert main(["sparsify", graph, "--out", str(tmp_path / "out"), "--samples", "0"]) == 0


def test_stdout_report_is_canonical_json(tmp_path, capsys):
    main(["quality", star_file(tmp_path), half_triangle_file(tmp_path),
          "--semantics", "cut"])
    blob = capsys.readouterr().out
    assert blob == dump_canonical(json.loads(blob))


def _run_mixed_calls(tmp_path, capsys, out_dir):
    """Several subcommands through one process's main(): (exit, stdout,
    stderr) of each call and every byte written under ``out_dir``."""
    graph, beta = star_file(tmp_path), half_triangle_file(tmp_path)
    demands = write_json(tmp_path / "d.json", demands_to_json(DemandSet([(0, 1, 1)])))
    cert = write_json(tmp_path / "c.json",
                      certificate_to_json(CutCertificate(path3(), [(1, 1)], [(1, 1)])))
    calls = [
        ["sparsify", graph, "--out", str(out_dir / "run"), "--seed", "3", "--samples", "5"],
        ["quality", graph, beta, "--semantics", "metric", "--samples", "5"],
        ["quality", graph, beta, "--semantics", "cut", "--out", str(out_dir / "cut.json")],
        ["quality", graph, beta, "--semantics", "flow"],
        ["quality", graph, beta, "--semantics", "flow", "--demands", demands],
        ["certify", cert],
        ["oracle", graph, "--mode", "zeroext", "--samples", "2"],
        ["sparsify", graph, "--out", str(out_dir / "capped"), "--max-iters", "1"],
        ["quality", graph],
        ["sparsify", graph, "--out", str(out_dir / "again")],
    ]
    results = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        results.append((code, *capsys.readouterr()))
    files = {str(path.relative_to(out_dir)): path.read_bytes()
             for path in sorted(out_dir.rglob("*")) if path.is_file()}
    return results, files


def test_repeated_main_calls_match_fresh_parsers(tmp_path, capsys, monkeypatch):
    reused = _run_mixed_calls(tmp_path, capsys, tmp_path / "reused")
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
    fresh = _run_mixed_calls(tmp_path, capsys, tmp_path / "fresh")
    assert reused == fresh
    codes = [code for code, _, _ in reused[0]]
    assert codes == [0, 0, 0, 2, 0, 0, 0, 3, ("exit", 2), 0]


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        _run_mixed_calls(tmp_path, capsys, tmp_path / "out")
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def _fresh_interpreter(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's vsparse."""
    src = str(Path(vsparse.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cli_import_adds_no_dataclasses_or_inspect():
    # every CLI call starts a fresh interpreter, and dataclasses alone pulls
    # in inspect, ast, dis and tokenize; modules the interpreter held before
    # the import, say from a site hook, do not count. Every module of the
    # package is imported, since a CLI call loads only those it runs
    probe = ("import importlib, os, sys; before = set(sys.modules); import vsparse; "
             "files = os.listdir(os.path.dirname(vsparse.__file__)); "
             "names = sorted(f[:-3] for f in files if f.endswith('.py') and f != '__init__.py'); "
             "[importlib.import_module('vsparse.' + name) for name in names]; "
             "print(names == sorted(m[8:] for m in sys.modules if m.startswith('vsparse.')), "
             "sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))")
    assert _fresh_interpreter(probe).stdout.strip() == "True []"


def _fresh_main(argv: list[str]) -> tuple[list[str], list[str]]:
    """The lines ``main(argv)`` prints in a fresh interpreter, as the
    installed console script runs it, and the package's modules it then holds."""
    probe = ("import sys; from vsparse.cli import main; code = main(sys.argv[1:]); "
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'vsparse')); "
             "sys.exit(code)")
    *printed, modules = _fresh_interpreter(probe, *argv).stdout.splitlines()
    return printed, modules.split()


def _modules_loaded_by(argv: list[str]) -> list[str]:
    return _fresh_main(argv)[1]


def test_certify_loads_no_solver_grading_or_sampling(tmp_path):
    # a cut certificate needs only terminal min cuts: no LP is compiled
    cert = write_json(tmp_path / "c.json",
                      certificate_to_json(CutCertificate(path3(), [(1, 1)], [(1, 1)])))
    assert _modules_loaded_by(["certify", cert]) == [
        "vsparse", "vsparse.certificates", "vsparse.cli", "vsparse.core",
        "vsparse.jsonio", "vsparse.mincut"]


def test_metric_certify_loads_the_lp_only_for_a_sum_that_is_no_cut(tmp_path):
    # the three pair cuts of the four-terminal unit star each extend at cost
    # 2 by max-flow; their sum, 2 on every pair, is no scaled cut metric and
    # extends at cost 4 by the LP, which proves Q >= 6/4
    g = unit_star(4)
    family = [cut_metric(side, 4) for side in ([0, 1], [0, 2], [0, 3])]
    cert = write_json(tmp_path / "c.json", certificate_to_json(MetricCertificate(g, family)))
    assert _fresh_main(["certify", cert]) == (["3/2"], [
        "vsparse", "vsparse.certificates", "vsparse.cli", "vsparse.core",
        "vsparse.extension", "vsparse.jsonio", "vsparse.lp", "vsparse.mincut"])


def test_extension_holds_the_max_flow_of_mincut():
    # perfbench's tracer looks the max-flow up as
    # vsparse.extension.min_cut_via_flow, so that name must stay the one
    # function every caller runs
    assert extension.min_cut_via_flow is mincut.min_cut_via_flow


def test_cut_quality_loads_no_solver_or_certificates(tmp_path):
    argv = ["quality", star_file(tmp_path), half_triangle_file(tmp_path), "--semantics", "cut"]
    assert _modules_loaded_by(argv) == [
        "vsparse", "vsparse.cli", "vsparse.core", "vsparse.extension", "vsparse.jsonio",
        "vsparse.lp", "vsparse.mincut", "vsparse.quality", "vsparse.sampling"]


def test_package_import_loads_no_module():
    probe = "import sys, vsparse; print(sorted(m for m in sys.modules if m.startswith('vsparse')))"
    assert _fresh_interpreter(probe).stdout.strip() == "['vsparse']"
