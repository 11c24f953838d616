"""Tests of the benchmark's own parts: generator, reference, tracer, metric names.

    python -m pytest bench/test_bench.py -q
"""

import dataclasses
import json

import pytest

import reference
import run
import workloads
from tracer import Tracer

cli, model = run._import_program()
from coaodv_sim import protocol, sim  # noqa: E402  (importable once run has set the path)


def _small(name: str, seeds: int, **changes) -> workloads.Workload:
    w = workloads.build(name, workloads.DEFAULT_SEED, run.ROOT)
    return dataclasses.replace(w, seeds=seeds, **changes)


def test_generator_same_seed_same_bytes():
    a = workloads.build("sparse-300", 7, run.ROOT)
    b = workloads.build("sparse-300", 7, run.ROOT)
    assert a.scenario_text() == b.scenario_text()
    assert a.flows == b.flows
    assert a.scenario_text() != workloads.build("sparse-300", 8, run.ROOT).scenario_text()


@pytest.mark.parametrize("seed", range(25))
def test_generated_scenarios_validate(seed):
    text = json.dumps(workloads.sparse_doc(seed))
    model.validate_scenario(model.scenario_from_json(text))


def test_sparse_flows_mix_routable_and_refused():
    w = workloads.build("sparse-300", workloads.DEFAULT_SEED, run.ROOT)
    expect = reference.expectations(w.doc, w.flows)
    coop = [expect[(s, d)].coaodv_hops is not None for s, d, _ in w.flows]
    assert coop.count(True) == coop.count(False) == workloads.SPARSE_FLOWS_EACH
    assert all(expect[(s, d)].aodv_hops >= workloads.SPARSE_MIN_HOPS for s, d, _ in w.flows)
    assert w.stats["nodes"] == workloads.SPARSE_NODES
    assert 8 <= w.stats["mean_degree"] <= 10


def test_reference_reproduces_paper_answers():
    doc = workloads.build("paper-seeds", 1, run.ROOT).doc
    expect = reference.expectations(doc, [(0, 9, 1), (4, 9, 1)])
    assert (expect[(0, 9)].aodv_hops, expect[(0, 9)].coaodv_hops) == (4, None)
    assert (expect[(4, 9)].aodv_hops, expect[(4, 9)].coaodv_hops) == (2, 2)
    assert reference.aodv_path(reference.range_graph(doc), 4, 9) == (4, 5, 9)


def test_check_report_counts_bad_rows(tmp_path):
    bench = run.Bench(_small("paper-seeds", 3), 0, tmp_path, cli)
    bench.run_pass()
    text = bench.out.read_text()
    w = bench.w

    def check(report):
        return reference.check_report(report, w.name, w.flows, w.seed_list(), bench.expect)

    assert check(text) == (12, 0)
    lines = text.splitlines(keepends=True)
    wrong_hops = "".join([lines[0], lines[1].replace(",4,100,", ",5,100,"), *lines[2:]])
    assert wrong_hops != text
    assert check(wrong_hops) == (12, 1)
    assert check("".join(lines[:-1])) == (12, 1)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_default_seed_matches_recorded_digests(tmp_path, name):
    w = workloads.build(name, workloads.DEFAULT_SEED, run.ROOT)
    bench = run.Bench(w, workloads.DEFAULT_SEED, tmp_path, cli)
    assert bench.recorded is not None
    bench.run_pass()
    assert bench.problems == [] and bench.failed == 0


def test_tracer_keeps_output_and_sees_every_layer(tmp_path):
    def wired():
        return cli.main, sim.run, sim._DISCOVER[sim.Protocol.AODV], protocol.is_cooperative

    originals = wired()
    bench = run.Bench(_small("paper-seeds", 20), 0, tmp_path, cli)
    bench.run_pass()
    tracer = Tracer()
    with tracer:
        bench.run_pass(tracer)
    assert bench.problems == [] and bench.failed == 0 and bench.attempted == 160
    assert tracer.absent == [] and tracer.uncalled() == [] and not tracer.unobserved
    assert tracer.rng_draws > 0
    assert wired() == originals
    layers = run.layer_metrics(tracer, bench)
    assert layers["sim.run_calls"][0] == 40
    assert layers["protocol.discover_calls.aodv"][0] == 40
    assert layers["cli.rows"][0] == 80


def test_tracer_records_a_missing_function_as_absent(monkeypatch):
    monkeypatch.delattr(protocol, "_adjacency")
    with Tracer() as tracer:
        pass
    assert tracer.absent == ["protocol._adjacency"]


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    w = _small("paper-longflow", 1, flows=((0, 9, 1000), (4, 9, 1000)))
    bench = run.Bench(w, 0, tmp_path, cli)
    end_to_end = run.measure_end_to_end(bench, model, 0)
    layers = run.measure_layers(bench, 0)
    for declared, measured in ((spec["end_to_end"], end_to_end), (spec["per_layer"], layers)):
        units = {k: v["unit"] for k, v in measured.items()}
        assert {m["name"]: m["unit"] for m in declared} == units
    assert all(v["value"] != 0 for v in end_to_end.values())
    assert bench.failed == 0
