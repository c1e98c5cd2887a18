"""End-to-end CLI runs through main(): exit codes, artifacts, determinism."""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from vsparse import (
    CutCertificate,
    DemandSet,
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
from vsparse import cli
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
                        lambda *args: replace(upper(*args), q_value=F(6, 5)))
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
    fresh = replace(metric_quality_upper(g_c, operator_to_sparsifier(phi, g_c)), lower_ok=True)
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
    assert flow.q_value == 1 and flow.witness is None
    assert flow.completeness == "exact"


def test_sparsify_split_graph_writes_vacuous_flow(tmp_path, capsys):
    # no path joins the terminals: Q = 0, the sparsifier is empty, every flow is 0
    assert main(["sparsify", split_graph_file(tmp_path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.startswith("Q = 0/1 ")
    flow = report_from_json(loads((tmp_path / "out" / "quality_flow.json").read_text()))
    assert flow == QualityReport("flow", F(1), True, None, "exact")


def test_sparsify_iteration_cap(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["sparsify", star_file(tmp_path), "--out", str(out), "--max-iters", "1"])
    assert code == 3
    assert "no convergence within 1 rounds" in capsys.readouterr().err
    # the best iterate is still written, the quality reports are not
    assert (out / "operator.json").is_file()
    assert (out / "sparsifier.json").is_file()
    assert not (out / "quality_cut.json").exists()


def test_sparsify_parse_error(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"terminals": [0], "edges": []})
    code = main(["sparsify", bad, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "missing" in capsys.readouterr().err


def test_sparsify_missing_file(tmp_path, capsys):
    code = main(["sparsify", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


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
        code = main(["quality", path, beta, "--semantics", semantics, "--demands", demands])
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
    code = main(["quality", split_graph_file(tmp_path), beta, "--semantics", semantics,
                 "--demands", demands])
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
