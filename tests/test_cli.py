import argparse
import copy
import csv
import dataclasses
import errno
import io
import json
import logging
import os
import random
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

from coaodv_sim import cli, model, protocol, sim
from coaodv_sim.cli import REPORT_HEADER, main
from coaodv_sim.model import DistanceMetric, MobilityMetric, Protocol, load_scenario

from .conftest import (
    PAPER_SCENARIO,
    STREAM_ERRORS,
    FailingStream,
    dev_process,
    make_node,
    make_scenario,
    package_process,
    run_document,
    scenario_to_json,
    seeded_scenario,
)
from .test_model import REJECTED_DOCUMENTS, _document

GOLDEN_RUN_CSV = (
    "scenario,protocol,seed,flow_src,flow_dst,hop_count,packets_sent,"
    "packets_delivered,pdr,route_discoveries\n"
    "paper_table123,aodv,1,0,9,4,100,0,0.0,1\n"
)

GOLDEN_COAODV_CSV = (
    "scenario,protocol,seed,flow_src,flow_dst,hop_count,packets_sent,"
    "packets_delivered,pdr,route_discoveries\n"
    "paper_table123,coaodv,1,0,9,,0,0,,1\n"
)


def test_validate_bad_json(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 1
    assert "JSON" in capsys.readouterr().err


def test_run_golden_csv(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(
        [
            "run",
            str(PAPER_SCENARIO),
            "--protocol",
            "aodv",
            "--flows",
            "0:9:100",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text() == GOLDEN_RUN_CSV
    summary = capsys.readouterr().out
    assert "flow 0->9 [aodv]: hops=4 sent=100 delivered=0 pdr=0.0" in summary


def test_run_coaodv_reports_missing_route_as_success(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(
        [
            "run",
            str(PAPER_SCENARIO),
            "--protocol",
            "coaodv",
            "--flows",
            "0:9:100",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text() == GOLDEN_COAODV_CSV
    assert "no cooperative route" in capsys.readouterr().out


def test_run_unknown_flow_endpoint(capsys):
    assert main(["run", str(PAPER_SCENARIO), "--protocol", "aodv", "--flows", "0:77:1"]) == 1
    assert capsys.readouterr() == ("", "error: unknown node id 77\n")


def test_usage_error_exit_code(capsys):
    assert main(["run", str(PAPER_SCENARIO)]) == 1  # missing required flags
    assert capsys.readouterr() == (
        "", "error: the following arguments are required: --protocol, --flows\n"
    )


def test_classify_ambiguous_profile(capsys):
    assert main(["classify", "--weights", "0.4,0.4,0.2"]) == 1
    assert capsys.readouterr() == (
        "",
        "error: no strictly dominant weight in (0.4, 0.4, 0.2); "
        "network type is undefined for ties\n",
    )


def test_classify_malformed(capsys):
    assert main(["classify", "--weights", "0.5,0.25"]) == 1
    assert capsys.readouterr() == ("", "error: --weights must be three finite numbers W1,W2,W3\n")


def test_run_drop_prob_override(tmp_path):
    out = tmp_path / "report.csv"
    main(
        [
            "run",
            str(PAPER_SCENARIO),
            "--protocol",
            "aodv",
            "--flows",
            "0:9:100",
            "--seed",
            "1",
            "--drop-prob",
            "0",
            "--out",
            str(out),
        ]
    )
    assert "paper_table123,aodv,1,0,9,4,100,100,1.0,1" in out.read_text()


def test_run_range_override_changes_topology(capsys):
    # with a 40-unit range the endpoints sit two hops apart
    code = main(
        [
            "run",
            str(PAPER_SCENARIO),
            "--protocol",
            "aodv",
            "--flows",
            "0:9:1",
            "--range",
            "40",
            "--drop-prob",
            "0",
        ]
    )
    assert code == 0
    assert "hops=2" in capsys.readouterr().out


def test_override_can_repair_the_file(tmp_path, capsys):
    # the overrides replace their fields before the scenario is validated
    doc = json.loads(PAPER_SCENARIO.read_text())
    doc["transmission_range"] = 0
    assert run_document(tmp_path, doc, "validate") == 2
    argv = ["--protocol", "aodv", "--flows", "4:9:1", "--range", "20"]
    assert run_document(tmp_path, doc, "run", *argv) == 0
    assert "flow 4->9 [aodv]: hops=2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, override",  # validate takes no override
    [("validate", []), ("run", []), ("run", ["--range", "40"]), ("compare", []),
     ("compare", ["--range", "40"])],
)
def test_a_command_checks_its_scenario_once(monkeypatch, capsys, command, override):
    checked = []
    check = model.validate_scenario
    monkeypatch.setattr(model, "validate_scenario", lambda c: checked.append(c) or check(c))
    assert main(_argv(command, PAPER_SCENARIO) + override) == 0
    assert len(checked) == 1
    assert checked[0].transmission_range == (40 if override else 20)  # the file holds 20


def test_compare_csv_structure(tmp_path):
    out = tmp_path / "cmp.csv"
    code = main(
        [
            "compare",
            str(PAPER_SCENARIO),
            "--flows",
            "0:9:10",
            "4:9:10",
            "--seeds",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_HEADER)
    assert len(lines) == 1 + 3 * 2 * 2  # seeds x protocols x flows
    assert lines[1].startswith("paper_table123,aodv,1,0,9,")
    assert lines[3].startswith("paper_table123,coaodv,1,0,9,")


def test_compare_is_byte_deterministic(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        main(
            [
                "compare",
                str(PAPER_SCENARIO),
                "--flows",
                "0:9:50",
                "4:9:50",
                "--seeds",
                "4",
                "--drop-prob",
                "0.5",
                "--out",
                str(out),
            ]
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_run_rows_equal_the_compare_rows_of_their_protocol_and_seed(tmp_path):
    options = ["--flows", "0:9:50", "4:9:30", "--drop-prob", "0.5"]
    compared = tmp_path / "compare.csv"
    argv = ["compare", str(PAPER_SCENARIO), *options, "--seeds", "2", "--out", str(compared)]
    assert main(argv) == 0
    header, *rows = compared.read_text().splitlines()
    seeds = sorted({row.split(",")[2] for row in rows})
    assert len(seeds) == 2
    aodv_rows = []
    for protocol in ("aodv", "coaodv"):
        for seed in seeds:
            out = tmp_path / f"{protocol}-{seed}.csv"
            argv = ["run", str(PAPER_SCENARIO), "--protocol", protocol, "--seed", seed]
            assert main([*argv, *options, "--out", str(out)]) == 0
            run_header, *run_rows = out.read_text().splitlines()
            assert run_header == header
            assert len(run_rows) == 2
            assert run_rows == [r for r in rows if r.split(",")[1:3] == [protocol, seed]]
            if protocol == "aodv":
                aodv_rows.append(run_rows)
    assert aodv_rows[0] != aodv_rows[1]  # the seed matters: aodv drops at random


def test_compare_summary_side_by_side(capsys):
    assert main(["compare", str(PAPER_SCENARIO), "--flows", "4:9:10", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "protocol" in out and "mean_hops" in out
    assert "aodv" in out and "coaodv" in out


def _summary_lines(results) -> str:
    """compare's summary, built from sim.compare's pairs, a folded `sim.Summary`
    for the mean hops and `sim.mean_pdr`."""
    lines = [f"{'protocol':<8} {'routed_flows':>12} {'mean_hops':>10} {'mean_pdr':>9}"]
    for label, group in (("aodv", [p[0] for p in results]), ("coaodv", [p[1] for p in results])):
        flows = [f for m in group for f in m.per_flow]
        routed = sum(f.hop_count is not None for f in flows)
        summary = sim.Summary()
        for metrics in group:
            summary.add(metrics)
        hops, pdr = summary.mean_hops, sim.mean_pdr(group)
        lines.append(
            f"{label:<8} {f'{routed}/{len(flows)}':>12} "
            f"{'-' if hops is None else f'{hops:.4f}':>10} "
            f"{'-' if pdr is None else f'{pdr:.4f}':>9}"
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "case",
    ["seeded-50", "seeded-300", "paper-refused", "isolated"],
)
def test_compare_summary_equals_the_means_of_its_pairs(tmp_path, capsys, case):
    rng = random.Random(f"summary-{case}")
    if case.startswith("seeded"):
        config = seeded_scenario(int(case.split("-")[1]), 4)
        ids = [node.id for node in config.nodes]
        flows = [(*rng.sample(ids, 2), rng.randint(1, 30)) for _ in range(5)]
    elif case == "paper-refused":  # every coaodv flow refused: '-' for coaodv
        config, flows = load_scenario(PAPER_SCENARIO), [(0, 9, 20)]
    else:  # two nodes out of each other's range, no flow routed: '-' for both
        config = make_scenario([make_node(0, 0, 0), make_node(1, 99, 99)])
        flows = [(0, 1, 5), (1, 0, 5)]
    config = dataclasses.replace(
        config, non_coop_drop_prob=rng.random(), rng_seed=rng.randrange(10**6)
    )
    path = tmp_path / "scenario.json"
    path.write_text(scenario_to_json(config), encoding="utf-8")
    seeds = rng.randint(1, 25)
    specs = [":".join(map(str, flow)) for flow in flows]
    assert main(["compare", str(path), "--flows", *specs, "--seeds", str(seeds)]) == 0
    results = sim.compare(
        load_scenario(path),
        tuple(sim.Flow(*flow) for flow in flows),
        list(range(config.rng_seed, config.rng_seed + seeds)),
    )
    out = capsys.readouterr().out
    assert out == _summary_lines(results)
    if not case.startswith("seeded"):
        assert out.splitlines()[-1].split()[2:] == ["-", "-"]


def test_compare_builds_report_rows_only_for_a_report(tmp_path, capsys, monkeypatch):
    args = ["compare", str(PAPER_SCENARIO), "--flows", "0:9:30", "4:9:30", "--seeds", "3",
            "--drop-prob", "0.5"]
    seeds, rows = [], cli._metric_rows

    def counted(name, seed, *rest):
        seeds.append(seed)
        return rows(name, seed, *rest)

    monkeypatch.setattr(cli, "_metric_rows", counted)
    assert main(args) == 0
    quiet = capsys.readouterr()
    assert seeds == []
    assert main([*args, "--out", str(tmp_path / "R")]) == 0
    first = load_scenario(PAPER_SCENARIO).rng_seed
    assert seeds == [first, first, first + 1, first + 1, first + 2, first + 2]  # once per run
    assert capsys.readouterr() == quiet
    assert quiet.err == "" and "aodv" in quiet.out


def _csv_report(name: str, runs) -> bytes:
    """The report that `csv.writer` writes for `runs`, (seed, SimMetrics)
    pairs in order: REPORT_HEADER, then one tuple of raw values per flow."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    for seed, metrics in runs:
        for f in metrics.per_flow:
            writer.writerow((name, metrics.protocol.value, seed, f.source, f.destination,
                             f.hop_count, f.packets_sent, f.packets_delivered,
                             f.packet_delivery_ratio, 1))
    return text.getvalue().encode()


def _report_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# 4:9 drops at node 5 alone; a no-route flow (0:9 under coaodv), a self-flow,
# and 1 of 6 packets delivered on some seed, a PDR whose repr needs 17 digits
REPORT_FLOWS = ("4:9:6", "0:9:5", "3:3:10")


@pytest.mark.parametrize("stem", ["plain", "a,b", 'say "hi"', "x\ny", "r\rz", "a\r\nb"])
def test_report_lines_equal_a_csv_writer_rendering(tmp_path, capsys, stem):
    scenario = tmp_path / f"{stem}.json"
    scenario.write_bytes(PAPER_SCENARIO.read_bytes())
    config = load_scenario(PAPER_SCENARIO, non_coop_drop_prob=0.5)
    flows = cli._parse_flows(list(REPORT_FLOWS))
    seeds = range(config.rng_seed, config.rng_seed + 20)
    common = ["--flows", *REPORT_FLOWS, "--drop-prob", "0.5", "--out", str(tmp_path / "R")]

    assert main(["compare", str(scenario), "--seeds", "20", *common]) == 0
    runs = [(seed, m) for seed, pair in zip(seeds, sim.pairs(config, flows, seeds)) for m in pair]
    assert (tmp_path / "R").read_bytes() == _csv_report(stem, runs)

    assert main(["run", str(scenario), "--protocol", "aodv", "--seed", "3", *common]) == 0
    one = sim.run(config, Protocol.AODV, flows, 3)
    assert (tmp_path / "R").read_bytes() == _csv_report(stem, [(3, one)])
    capsys.readouterr()


def test_report_fields_for_a_missing_route_a_self_flow_and_a_long_pdr(tmp_path, capsys):
    out = tmp_path / "R"
    argv = ["compare", str(PAPER_SCENARIO), "--flows", *REPORT_FLOWS, "--seeds", "20",
            "--drop-prob", "0.5", "--out", str(out)]
    assert main(argv) == 0
    rows = _report_rows(out)
    refused = [r for r in rows if r["protocol"] == "coaodv" and r["flow_src"] == "0"]
    assert len(refused) == 20
    assert all(r["hop_count"] == r["pdr"] == "" and r["packets_sent"] == "0" for r in refused)
    selves = [r for r in rows if r["flow_src"] == r["flow_dst"] == "3"]
    assert len(selves) == 40
    assert all(r["hop_count"] == "0" and r["pdr"] == "1.0" for r in selves)
    sixth = [r for r in rows if r["packets_sent"] == "6" and r["packets_delivered"] == "1"]
    assert sixth and all(r["pdr"] == "0.16666666666666666" for r in sixth)
    capsys.readouterr()


def test_one_flow_outcome_under_two_seeds_differs_only_in_the_seed(tmp_path, capsys):
    out = tmp_path / "R"
    argv = ["compare", str(PAPER_SCENARIO), "--flows", "4:9:6", "--seeds", "2",
            "--drop-prob", "0", "--out", str(out)]
    assert main(argv) == 0
    first = load_scenario(PAPER_SCENARIO).rng_seed
    lines = out.read_text(encoding="utf-8").splitlines()[1:]
    assert lines == [
        f"paper_table123,{protocol},{seed},4,9,2,6,6,1.0,1"
        for seed in (first, first + 1)
        for protocol in ("aodv", "coaodv")
    ]
    capsys.readouterr()


def test_report_is_the_same_on_a_second_call_and_cli_keeps_no_cache(tmp_path, capsys):
    def state():
        return {
            k: copy.deepcopy(v)
            for k, v in vars(cli).items()
            if not k.startswith("__") and isinstance(v, (dict, list, set, bytearray))
        }

    # outcomes no other test makes, so that a cache that outlived a command would grow
    argv = ["compare", str(PAPER_SCENARIO), "--flows", "4:9:97", "0:9:89", "--seeds", "5",
            "--drop-prob", "0.37", "--out"]
    before = state()
    assert main([*argv, str(tmp_path / "A")]) == 0
    assert state() == before
    assert main([*argv, str(tmp_path / "B")]) == 0
    assert (tmp_path / "A").read_bytes() == (tmp_path / "B").read_bytes()
    for value in vars(cli).values():
        assert not hasattr(value, "cache_info")  # no functools cache
        defaults = getattr(value, "__defaults__", None) or ()
        assert not any(isinstance(d, (dict, list, set)) for d in defaults), value
    capsys.readouterr()


def test_compare_summary_counts_a_self_flow_as_routed(capsys):
    argv = ["compare", str(PAPER_SCENARIO), "--flows", "3:3:10", "--seeds", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "aodv              2/2     0.0000    1.0000",
        "coaodv            2/2     0.0000    1.0000",
    ]


def test_compare_summary_counts_a_flow_that_delivers_nothing(capsys):
    # the scenario's own drop probability is 1.0: each aodv flow delivers
    # nothing, and its PDR of 0.0 is in the mean as a 0, not left out
    argv = ["compare", str(PAPER_SCENARIO), "--flows", "0:9:10", "4:9:10", "--seeds", "2"]
    assert main(argv) == 0
    assert capsys.readouterr() == (
        "protocol routed_flows  mean_hops  mean_pdr\n"
        "aodv              4/4     3.0000    0.0000\n"
        "coaodv            2/4     2.0000    1.0000\n",
        "",
    )


@pytest.mark.parametrize(
    "protocol, extra, line",
    [
        ("coaodv", [], "flow 0->9 [coaodv]: no cooperative route\n"),
        ("aodv", ["--range", "0.001"], "flow 0->9 [aodv]: no route\n"),
        ("coaodv", ["--range", "0.001"], "flow 0->9 [coaodv]: no route\n"),
    ],
)
def test_run_prints_a_failure_in_the_log_vocabulary(capsys, protocol, extra, line):
    argv = ["run", str(PAPER_SCENARIO), "--protocol", protocol, "--flows", "0:9:5", *extra]
    assert main(argv) == 0
    assert capsys.readouterr() == (line, "")
    assert set(sim.FAILURE_TEXT) == set(sim._FAILURES.values())


@pytest.mark.parametrize("existing", [None, b"an earlier report\n"])
def test_compare_unknown_node_leaves_the_report_as_it_was(tmp_path, capsys, existing):
    out = tmp_path / "R"
    if existing is not None:
        out.write_bytes(existing)
    argv = ["compare", str(PAPER_SCENARIO), "--flows", "4:9:1", "0:77:1", "--out", str(out)]
    assert main(argv) == 1
    assert "error: unknown node id 77" in capsys.readouterr().err
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == existing


def test_compare_memory_does_not_grow_with_seeds(tmp_path, capsys):
    def traced_peak(seeds: int) -> int:
        flows = ["--flows", "0:9:20", "4:9:20", "--drop-prob", "0.5"]
        out = ["--out", str(tmp_path / "report.csv")]
        argv = ["compare", str(PAPER_SCENARIO), *flows, "--seeds", str(seeds), *out]
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - before

    traced_peak(4)  # warm: imports and the scenario path's first use are not per seed
    tracemalloc.start()
    try:
        few, many = traced_peak(4), traced_peak(400)
    finally:
        tracemalloc.stop()
    assert many - few < 100_000, (few, many)


def test_an_interrupted_compare_leaves_the_rows_of_every_finished_seed(
    tmp_path, monkeypatch, capsys
):
    def compare(out):
        flows = ["--flows", "0:9:20", "4:9:20", "--drop-prob", "0.5"]
        return main(["compare", str(PAPER_SCENARIO), *flows, "--seeds", "5", "--out", str(out)])

    whole = tmp_path / "whole.csv"
    assert compare(whole) == 0
    capsys.readouterr()
    run, calls = sim.run, []

    def interrupted(*args, **kwargs):
        calls.append(args)
        if len(calls) == 5:  # the third seed's aodv run
            raise KeyboardInterrupt
        return run(*args, **kwargs)

    monkeypatch.setattr(sim, "run", interrupted)
    cut = tmp_path / "cut.csv"
    with pytest.raises(KeyboardInterrupt):
        compare(cut)
    assert capsys.readouterr().out == ""
    # the header, then seeds 1 and 2: 2 protocols x 2 flows each
    head = whole.read_bytes().splitlines(keepends=True)[:9]
    assert cut.read_bytes() == b"".join(head)


def test_log_env_accepts_trace(monkeypatch, capsys):
    monkeypatch.setenv("COAODV_SIM_LOG", "trace")
    assert main(["run", str(PAPER_SCENARIO), "--protocol", "aodv", "--flows", "4:9:1"]) == 0


@pytest.mark.parametrize("command", ["run", "compare"])
def test_info_log_leaves_stdout_and_report_bytes_alone(tmp_path, monkeypatch, capsys, command):
    args = [command, str(PAPER_SCENARIO), "--flows", "0:9:20", "4:9:20"]
    args += ["--protocol", "aodv"] if command == "run" else ["--seeds", "3"]
    outputs = {}
    for mode in (None, "info"):
        if mode is None:
            monkeypatch.delenv("COAODV_SIM_LOG", raising=False)
        else:
            monkeypatch.setenv("COAODV_SIM_LOG", mode)
        report = tmp_path / f"{mode}.csv"
        assert main([*args, "--out", str(report)]) == 0
        out, err = capsys.readouterr()
        outputs[mode] = (out, report.read_bytes(), err.count("INFO coaodv_sim.protocol: HELLO"))
    assert outputs[None][:2] == outputs["info"][:2]
    assert (outputs[None][2], outputs["info"][2]) == (0, 1)  # one line per HELLO round


@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_report_path_with_a_newline_is_logged_on_one_line(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("COAODV_SIM_LOG", "info")
    report = str(tmp_path / "new\nline.csv")
    args = [command, str(PAPER_SCENARIO), "--flows", "0:9:20", "4:9:20", "--out", report]
    args += ["--protocol", "aodv"] if command == "run" else []
    assert main(args) == 0
    lines = capsys.readouterr().err.splitlines()
    # one record per line: each line starts with its record's level and logger
    assert len(lines) > 1 and all(re.match(r"INFO coaodv_sim\.\w+: ", line) for line in lines)
    assert lines[-1] == f"INFO coaodv_sim.cli: report written to {cli._one_line(report)}"
    assert "\\n" in lines[-1]


def _compare_sim_log(tmp_path, monkeypatch, capsys, *options):
    """The coaodv_sim.sim lines of a traced 3-seed compare on the bundled
    scenario, after checking that stdout and the report match a quiet run's."""
    args = ["compare", str(PAPER_SCENARIO), "--flows", "0:9:20", "4:9:20", "--seeds", "3",
            *options]
    outputs = {}
    for mode in ("quiet", "trace"):
        monkeypatch.setenv("COAODV_SIM_LOG", mode)
        report = tmp_path / f"{mode}.csv"
        assert main([*args, "--out", str(report)]) == 0
        out, err = capsys.readouterr()
        outputs[mode] = (out, report.read_bytes(), err)
    assert outputs["quiet"][:2] == outputs["trace"][:2]
    assert outputs["quiet"][2] == ""
    return [line for line in outputs["trace"][2].splitlines() if " coaodv_sim.sim: " in line]


COAODV_TRACE = [
    "INFO coaodv_sim.sim: flow 0->9: no cooperative route",
    "DEBUG coaodv_sim.sim: flow 4->9: path=(4, 8, 9) delivered=20/20",
]


def test_trace_log_writes_a_memoized_run_once(tmp_path, monkeypatch, capsys):
    sim_lines = _compare_sim_log(tmp_path, monkeypatch, capsys)
    # at the scenario's drop probability of 1.0 no run draws, so each
    # protocol's later seeds reuse its first run and log nothing
    aodv = [
        "DEBUG coaodv_sim.sim: flow 0->9: path=(0, 2, 1, 5, 9) delivered=0/20",
        "DEBUG coaodv_sim.sim: flow 4->9: path=(4, 5, 9) delivered=0/20",
    ]
    assert sim_lines == aodv + COAODV_TRACE


def test_trace_log_writes_a_drawing_run_once_per_seed(tmp_path, monkeypatch, capsys):
    sim_lines = _compare_sim_log(tmp_path, monkeypatch, capsys, "--drop-prob", "0.5")
    # each aodv run draws, so its lines come once per seed; the coaodv run
    # draws nothing, so the seeds after the first reuse it and log nothing
    aodv = [
        [
            f"DEBUG coaodv_sim.sim: flow 0->9: path=(0, 2, 1, 5, 9) delivered={far}/20",
            f"DEBUG coaodv_sim.sim: flow 4->9: path=(4, 5, 9) delivered={near}/20",
        ]
        for far, near in ((4, 8), (6, 13), (6, 12))
    ]
    assert sim_lines == aodv[0] + COAODV_TRACE + aodv[1] + aodv[2]


@pytest.mark.parametrize("mode, calls", [(None, 0), ("trace", 41)])
def test_run_asks_for_a_flow_trace_line_only_at_trace_level(monkeypatch, capsys, mode, calls):
    if mode is None:
        monkeypatch.delenv("COAODV_SIM_LOG", raising=False)
    else:
        monkeypatch.setenv("COAODV_SIM_LOG", mode)
    debug = []
    monkeypatch.setattr(sim.log, "debug", lambda *args: debug.append(args))
    argv = ["compare", str(PAPER_SCENARIO), "--flows", "0:9:100", "4:9:100", "--seeds", "20",
            "--drop-prob", "0.5"]
    assert main(argv) == 0
    # at trace: 2 per aodv run, and 1 for the one coaodv run not read from the run memo
    assert len(debug) == calls
    capsys.readouterr()


@pytest.mark.parametrize("mode", ["info", "loud"])
def test_log_level_does_not_outlive_main(monkeypatch, capsys, mode):
    logger = logging.getLogger("coaodv_sim")
    before = logger.level, list(logger.handlers)
    monkeypatch.setenv("COAODV_SIM_LOG", mode)
    assert main(["validate", str(PAPER_SCENARIO)]) == 0
    assert (logger.level, logger.handlers) == before
    monkeypatch.delenv("COAODV_SIM_LOG")
    capsys.readouterr()
    protocol.exchange_hello(load_scenario(PAPER_SCENARIO))
    assert capsys.readouterr().err == ""


def test_log_env_rejects_unknown_gracefully(monkeypatch, capsys):
    monkeypatch.setenv("COAODV_SIM_LOG", "loud")
    assert main(["validate", str(PAPER_SCENARIO)]) == 0
    assert "COAODV_SIM_LOG" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["file", "override"])
def test_tiny_positive_range_isolates_every_node(tmp_path, capsys, where):
    doc = json.loads(PAPER_SCENARIO.read_text())
    argv = ["--flows", "0:9:5", "4:9:5"]
    if where == "file":
        doc["transmission_range"] = 1e-310
    else:
        argv += ["--range", "1e-310"]
    assert run_document(tmp_path, doc, "compare", *argv) == 0
    summary = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert summary == [["aodv", "0/2", "-", "-"], ["coaodv", "0/2", "-", "-"]]


# (text to find, its replacement, the repeated key): where the last value would
# win, a range of 20 and node 3's energy of 300 would pass validation
REPEATED_KEYS = {
    "top-level": (
        '{\n  "nodes"', '{\n  "transmission_range": 999,\n  "nodes"', "transmission_range"
    ),
    "node": ('{"id": 3, ', '{"id": 3, "energy": 900, ', "energy"),
}


@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_repeated_key_is_invalid(tmp_path, capsys, case):
    find, replacement, key = REPEATED_KEYS[case]
    text = PAPER_SCENARIO.read_text()
    assert text.count(find) == 1
    path = _scenario_file(tmp_path, text.replace(find, replacement).encode())
    assert main(["validate", path]) == 2
    assert f"error: invalid scenario: repeated key {key!r}" in capsys.readouterr().err


def test_negative_seed_is_invalid(tmp_path, capsys):
    doc = json.loads(PAPER_SCENARIO.read_text())
    doc["seed"] = -2
    assert run_document(tmp_path, doc, "validate") == 2
    assert run_document(tmp_path, doc, "compare", "--flows", "4:9:1", "--seeds", "5") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: invalid scenario: seed must be >= 0, got -2\n" * 2


# Rows of REJECTED_DOCUMENTS that the run command rejects with the same line as
# validate and compare: {name here: name in REJECTED_DOCUMENTS}
NON_FINITE = {
    "infinite-energy": "energy-inf",
    "infinite-range": "range-inf",
    "nan-drop-probability": "drop-prob-nan",
}
WRONG_TYPE = {"string-drop-probability": "string-drop-probability"}


def _run_rejects(tmp_path, capsys, row):
    argv = ["--protocol", "aodv", "--flows", "4:9:1"]
    assert run_document(tmp_path, _document(row), "run", *argv) == 2
    message = REJECTED_DOCUMENTS[row][1]
    assert capsys.readouterr() == ("", f"error: invalid scenario: {message}\n")


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_scenario_values_are_invalid(tmp_path, capsys, case):
    _run_rejects(tmp_path, capsys, NON_FINITE[case])


@pytest.mark.parametrize("case", sorted(WRONG_TYPE))
def test_scalars_of_the_wrong_type_are_invalid(tmp_path, capsys, case):
    _run_rejects(tmp_path, capsys, WRONG_TYPE[case])


def _argv(command, path):
    flows = ["--flows", "4:9:1"]
    return {
        "validate": ["validate", str(path)],
        "run": ["run", str(path), "--protocol", "aodv", *flows],
        "compare": ["compare", str(path), *flows],
    }[command]


@pytest.mark.parametrize("command", ["validate", "run", "compare"])
def test_directory_path_is_a_read_error(tmp_path, capsys, command):
    assert main(_argv(command, tmp_path)) == 1
    assert f"error: cannot read {tmp_path}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run", "compare"])
def test_permission_denied_is_a_read_error(monkeypatch, capsys, command):
    # chmod cannot deny a root user, so raise what an unreadable file raises
    def denied(file, *args, **kwargs):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))

    monkeypatch.setattr(model, "open", denied, raising=False)  # the open load_scenario reaches
    assert main(_argv(command, PAPER_SCENARIO)) == 1
    err = capsys.readouterr().err
    assert f"error: cannot read {PAPER_SCENARIO}: {os.strerror(errno.EACCES)}" in err


# Paths at the edge of the load path: each reads exactly the file it names, or fails.
LOAD_PATH_EDGES = {
    "trailing-slash": (lambda tmp_path: f"{PAPER_SCENARIO}/",
                       f"error: cannot read {PAPER_SCENARIO}/: {os.strerror(errno.ENOTDIR)}\n"),
    "empty": (lambda tmp_path: "", "error: file not found: \n"),
    "utf8-bom": (
        lambda tmp_path: _scenario_file(tmp_path, b"\xef\xbb\xbf" + PAPER_SCENARIO.read_bytes()),
        "error: not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
        "line 1 column 1 (char 0)\n",
    ),
}


@pytest.mark.parametrize("command", ["validate", "run", "compare"])
@pytest.mark.parametrize("case", sorted(LOAD_PATH_EDGES))
def test_a_path_at_the_edge_reads_what_it_names(tmp_path, capsys, case, command):
    path, err = LOAD_PATH_EDGES[case]
    assert main(_argv(command, path(tmp_path))) == 1
    assert capsys.readouterr() == ("", err)


# The report's scenario column: Path(path).stem on CPython 3.10-3.13, pinned
# as literals so that no later pathlib rule moves the CSV's bytes. The empty
# stem is a lone empty field, which csv writes quoted.
REPORT_NAMES = {
    "x.": "x.", "..json": ".", "a/..json": ".", "a/.": "a", "x.json": "x",
    ".hidden": ".hidden", "a..b": "a.", "...": "...", "/": '""',
}


@pytest.mark.parametrize("path", REPORT_NAMES)
def test_report_name_is_the_stem_of_the_path(path):
    args = argparse.Namespace(path=path, out=None)
    assert cli._report_name(args) == REPORT_NAMES[path]


def test_report_to_a_directory_is_a_write_error(tmp_path, capsys):
    argv = ["compare", str(PAPER_SCENARIO), "--flows", "4:9:1", "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {tmp_path}: {os.strerror(errno.EISDIR)}" in err
    assert "cannot read" not in err


def test_run_report_to_a_directory_prints_no_results(tmp_path, capsys):
    assert main(_argv("run", PAPER_SCENARIO) + ["--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: cannot write {tmp_path}: {os.strerror(errno.EISDIR)}" in err


def test_report_in_a_missing_directory_is_a_write_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.csv"
    argv = ["compare", str(PAPER_SCENARIO), "--flows", "4:9:1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {out}: {os.strerror(errno.ENOENT)}" in err
    assert "file not found" not in err


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("spelling", ["dot", "symlink"])
def test_report_cannot_overwrite_the_scenario(tmp_path, capsys, monkeypatch, command, spelling):
    scenario = tmp_path / "s.json"
    scenario.write_bytes(PAPER_SCENARIO.read_bytes())
    if spelling == "dot":
        out = f"{tmp_path}/./s.json"
    else:
        out = str(tmp_path / "link.json")
        os.symlink(scenario, out)
    monkeypatch.setattr(sim, "run", None)  # no run may start
    argv = _argv(command, scenario) + ["--out", out]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: cannot write {out}: it is the scenario file\n")
    assert scenario.read_bytes() == PAPER_SCENARIO.read_bytes()


def test_runtime_needs_no_networkx():
    script = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['networkx'] = None  # any import of networkx now fails\n"
        "import coaodv_sim\n"
        "for info in pkgutil.iter_modules(coaodv_sim.__path__):\n"
        "    importlib.import_module(f'coaodv_sim.{info.name}')\n"
        "from coaodv_sim.cli import main\n"
        f"sys.exit(main(['compare', {str(PAPER_SCENARIO)!r}, '--flows', '0:9:10', '4:9:10']))\n"
    )
    out = package_process(["-c", script], timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("protocol")


def _scenario_file(tmp_path, data: bytes):
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    return str(path)


# Each hostile scenario file: its bytes, and what validate's error line must name.
# A hostile command line that needs no file of its own is an ARGV row.
HOSTILE = {
    "non-utf8-scenario": (b'{"area": "\xff"}', "cannot read"),
    "5000-digit-integer": (b'{"seed": ' + b"7" * 5000 + b"}", "not valid JSON"),
    "nested-100000-deep": (b"[" * 100_000, "not valid JSON"),
}


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_is_a_named_usage_error(tmp_path, capsys, case):
    data, fragment = HOSTILE[case]
    assert main(["validate", _scenario_file(tmp_path, data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_internal_value_error_is_not_a_usage_error(monkeypatch, command):
    def broken(*args, **kwargs):  # compare passes its generator as rng=
        raise ValueError("internal fault")

    monkeypatch.setattr(sim, "run", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(_argv(command, PAPER_SCENARIO))


@pytest.mark.parametrize(  # abbreviated, each is an ARGV row that is rejected
    "command, option, value",
    [("compare", "--seeds", "7"), ("run", "--threshold", "100"), ("run", "--drop-prob", "0")],
)
def test_an_option_spelt_in_full_is_accepted(capsys, command, option, value):
    assert main(_argv(command, PAPER_SCENARIO) + [option, value]) == 0
    capsys.readouterr()


def test_overrides_replace_their_scenario_fields():
    overrides = (
        "--threshold 7 --range 30 --distance-metric euclidean"
        " --mobility-metric manhattan_rate --no-strict --drop-prob 0.25"
    )
    argv = _argv("run", PAPER_SCENARIO) + overrides.split()
    config = cli._load_effective_scenario(cli.build_parser(argv).parse_args(argv))
    assert config.distance_metric is DistanceMetric.EUCLIDEAN
    assert config.mobility_metric is MobilityMetric.MANHATTAN_RATE
    assert (config.energy_threshold, config.transmission_range) == (7.0, 30.0)
    assert (config.threshold_strict, config.non_coop_drop_prob) == (False, 0.25)


@pytest.fixture
def non_utf8_scenario(tmp_path):
    path = tmp_path / os.fsdecode(b"paper\xff.json")  # argv carries the byte as a surrogate
    path.write_text(PAPER_SCENARIO.read_text())
    return path


@pytest.mark.parametrize("existing", [None, "keep me\n"])
def test_non_utf8_scenario_name_cannot_go_in_a_report(
    tmp_path, capsys, non_utf8_scenario, existing
):
    out = tmp_path / "report.csv"
    if existing is not None:
        out.write_text(existing)
    argv = ["compare", str(non_utf8_scenario), "--flows", "4:9:1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write {out}: scenario name paper\\xff is not UTF-8" in err
    assert (out.read_text() if out.exists() else None) == existing


def test_non_utf8_scenario_name_runs_and_validates(capsys, non_utf8_scenario):
    assert main(_argv("run", non_utf8_scenario)) == 0
    assert main(_argv("validate", non_utf8_scenario)) == 0
    out = capsys.readouterr().out
    assert "flow 4->9 [aodv]: hops=2" in out and "paper\\xff.json: OK" in out


# Each numeric CLI input: the argv with `value` in its place, and a valid value.
_RUN = ["run", str(PAPER_SCENARIO), "--protocol", "aodv"]
NUMERIC_INPUTS = {
    "flow-source": (lambda value: _RUN + ["--flows", f"{value}:9:5"], "4"),
    "flow-destination": (lambda value: _RUN + ["--flows", f"4:{value}:5"], "9"),
    "flow-count": (lambda value: _RUN + ["--flows", f"4:9:{value}"], "10"),
    "seed": (lambda value: _RUN + ["--flows", "4:9:5", "--seed", value], "3"),
    "seeds": (lambda value: _argv("compare", PAPER_SCENARIO) + ["--seeds", value], "2"),
    "threshold": (lambda value: _RUN + ["--flows", "4:9:5", "--threshold", value], "400.5"),
    "range": (lambda value: _RUN + ["--flows", "4:9:5", "--range", value], "20"),
    "drop-prob": (lambda value: _RUN + ["--flows", "4:9:5", "--drop-prob", value], "2.5e-1"),
    "weights": (lambda value: ["classify", "--weights", f"0.5,0.25,{value}"], "0.25"),
}
# Forms Python's int() and float() read as the valid value, and no option means.
DISGUISES = {
    "underscore": lambda value: "0_" + value,
    "non-ascii-digit": lambda value: value[:-1] + chr(0x660 + int(value[-1])),  # Arabic-Indic
    "surrounding-space": lambda value: f" {value} ",
}


@pytest.mark.parametrize("form", sorted(DISGUISES))
@pytest.mark.parametrize("case", sorted(NUMERIC_INPUTS))
def test_numbers_must_be_ascii_json_numerals(capsys, case, form):
    argv, valid = NUMERIC_INPUTS[case]
    disguised = DISGUISES[form](valid)
    assert float(disguised) == float(valid)  # what int() or float() alone would accept
    assert main(argv(valid)) == 0
    capsys.readouterr()
    assert main(argv(disguised)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_json_numerals_keep_their_meaning(capsys):
    argv = _RUN + ["--flows", "4:9:20", "--threshold", "-0", "--range", "1E+2"]
    assert main(argv + ["--drop-prob", "0", "--seed", "-7"]) == 2
    assert "seed must be >= 0, got -7" in capsys.readouterr().err
    assert main(argv + ["--drop-prob", "0", "--seed", "7"]) == 0
    assert "flow 4->9 [aodv]: hops=1 sent=20 delivered=20" in capsys.readouterr().out
    for text in ("+1", "01", "1.", ".5", "0x10", "1e", "infinity", "-nan", "١٠"):
        assert main(_RUN + ["--flows", "4:9:5", "--range", text]) == 1
        assert main(_RUN + ["--flows", "4:9:5", "--seed", text]) == 1
    assert f"argument --seed: '{text}' is not an integer" in capsys.readouterr().err


STREAM_ARGVS = {
    "validate": ["validate", str(PAPER_SCENARIO)],
    "run": _argv("run", PAPER_SCENARIO),
    "compare": _argv("compare", PAPER_SCENARIO),
    "classify": ["classify", "--weights", "0.2,0.3,0.5"],
    "help": ["compare", "--help"],
}


@pytest.mark.parametrize("where", ["write", "flush"])
@pytest.mark.parametrize("error", sorted(STREAM_ERRORS))
@pytest.mark.parametrize("command", sorted(STREAM_ARGVS))
def test_a_failing_stdout_exits_1(monkeypatch, command, where, error):
    monkeypatch.setattr(sys, "stdout", FailingStream(where, STREAM_ERRORS[error]))
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert main(STREAM_ARGVS[command]) == 1
    # a closed pipe is told by the exit code alone: its reader has gone
    full = f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    assert sys.stderr.getvalue() == ("" if error == "closed-pipe" else full)


@pytest.mark.parametrize("error", sorted(STREAM_ERRORS))
def test_a_report_is_complete_when_stdout_fails(tmp_path, monkeypatch, capsys, error):
    argv = ["compare", str(PAPER_SCENARIO), "--flows", "0:9:20", "4:9:20", "--seeds", "5",
            "--drop-prob", "0.5", "--out"]
    assert main([*argv, str(tmp_path / "working.csv")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", FailingStream("write", STREAM_ERRORS[error]))
    assert main([*argv, str(tmp_path / "failing.csv")]) == 1
    assert (tmp_path / "failing.csv").read_bytes() == (tmp_path / "working.csv").read_bytes()


@pytest.mark.parametrize("where", ["write", "flush"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["validate", "missing.json"], 1),
        (_argv("run", PAPER_SCENARIO) + ["--range", "-5"], 2),
        (STREAM_ARGVS["compare"], 0),  # its info lines are lost
    ],
    ids=["usage-error", "invalid-scenario", "success"],
)
def test_a_failing_stderr_keeps_the_exit_code(monkeypatch, capsys, where, argv, code):
    monkeypatch.setenv("COAODV_SIM_LOG", "info")
    monkeypatch.setattr(sys, "stderr", FailingStream(where, STREAM_ERRORS["full"]))
    assert main(argv) == code
    assert capsys.readouterr().out.startswith("protocol") == (code == 0)


def test_a_closed_pipe_on_stdout_exits_1_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        done = dev_process(["-m", "coaodv_sim.cli", *STREAM_ARGVS["compare"]], write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_a_full_stdout_exits_1_without_a_traceback():
    with open("/dev/full", "w") as full:
        done = dev_process(["-m", "coaodv_sim.cli", *STREAM_ARGVS["validate"]], full)
    assert (done.returncode, done.stderr) == (
        1, f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n")
