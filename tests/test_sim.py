import dataclasses
import random
import sys
from functools import reduce
from operator import add

import pytest

from coaodv_sim import protocol as protocol_module
from coaodv_sim import sim as sim_module
from coaodv_sim.errors import UnknownNode
from coaodv_sim.model import Protocol
from coaodv_sim.sim import (
    Flow,
    Summary,
    compare,
    mean_pdr,
    pairs,
    run,
)

from .conftest import make_node, make_scenario, random_scenario, seeded_scenario


def test_paper_aodv_flow_delivers_nothing_at_full_drop(paper_scenario):
    metrics = run(paper_scenario, Protocol.AODV, (Flow(0, 9, 100),), seed=1)
    flow = metrics.per_flow[0]
    assert flow.hop_count == 4
    assert flow.packets_sent == 100
    # the discovered path relays through non-cooperative nodes, which always
    # refuse at drop probability 1.0
    assert flow.packets_delivered == 0
    assert flow.packet_delivery_ratio == 0.0
    assert len(metrics.per_flow) == 1


def test_paper_coaodv_flow_has_no_route(paper_scenario):
    metrics = run(paper_scenario, Protocol.COAODV, (Flow(0, 9, 100),), seed=1)
    flow = metrics.per_flow[0]
    assert flow.failure == "no_cooperative_route"
    assert flow.packets_sent == 0
    assert flow.packet_delivery_ratio is None
    assert flow.hop_count is None
    assert len(metrics.per_flow) == 1


def test_coaodv_route_survives_any_drop_probability(paper_scenario):
    harsh = dataclasses.replace(paper_scenario, non_coop_drop_prob=1.0)
    metrics = run(harsh, Protocol.COAODV, (Flow(4, 9, 50),), seed=3)
    assert metrics.per_flow[0].packet_delivery_ratio == 1.0


def test_zero_drop_probability_delivers_everything(paper_scenario):
    gentle = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.0)
    for protocol in (Protocol.AODV, Protocol.COAODV):
        metrics = run(gentle, protocol, (Flow(4, 9, 25),), seed=9)
        assert metrics.per_flow[0].packet_delivery_ratio == 1.0


def test_self_flow_is_a_zero_hop_delivery(paper_scenario):
    metrics = run(paper_scenario, Protocol.AODV, (Flow(0, 0, 1),), seed=1)
    flow = metrics.per_flow[0]
    assert flow.hop_count == 0
    assert flow.packet_delivery_ratio == 1.0


def test_unroutable_flow_is_recorded_not_raised():
    config = make_scenario([make_node(0, 0, 0), make_node(1, 99, 99)])
    metrics = run(config, Protocol.AODV, (Flow(0, 1, 10),), seed=0)
    assert metrics.per_flow[0].failure == "no_route"
    assert metrics.packets_sent == 0
    assert metrics.per_flow[0].packet_delivery_ratio is None


def test_flow_validation():
    config = make_scenario([make_node(0, 0, 0)])
    with pytest.raises(UnknownNode):
        run(config, Protocol.AODV, (Flow(0, 7, 1),), seed=0)
    with pytest.raises(ValueError):
        run(config, Protocol.AODV, (Flow(0, 0, 0),), seed=0)


@pytest.mark.parametrize("packets", [0, -1, sys.maxsize + 1])
def test_flow_packet_count_is_checked_at_construction(packets):
    with pytest.raises(ValueError, match="packets must be from 1"):
        Flow(0, 9, packets)
    assert Flow(0, 9, sys.maxsize).packets == sys.maxsize


def test_unknown_node_in_a_later_flow_is_rejected(paper_scenario):
    flows = (Flow(4, 9, 5), Flow(0, 9, 5), Flow(9, 42, 5))
    for protocol in (Protocol.AODV, Protocol.COAODV):
        with pytest.raises(UnknownNode, match="42"):
            run(paper_scenario, protocol, flows, seed=1)


def test_endpoints_are_checked_once_per_discovery(monkeypatch, paper_scenario):
    calls = []
    check = protocol_module._check_endpoints

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(protocol_module, "_check_endpoints", counted)
    compare(paper_scenario, (Flow(0, 9, 10), Flow(4, 9, 10)), seeds=list(range(1, 21)))
    assert len(calls) == 20 * 2 * 2  # seeds x protocols x flows, one per discovery


def test_replay_determinism(paper_scenario):
    half = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.5)
    flows = (Flow(0, 9, 200), Flow(4, 9, 50))
    assert run(half, Protocol.AODV, flows, seed=77) == run(half, Protocol.AODV, flows, seed=77)


def test_different_seed_changes_partial_drops(paper_scenario):
    half = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.5)
    flows = (Flow(0, 9, 500),)
    a = run(half, Protocol.AODV, flows, seed=1)
    b = run(half, Protocol.AODV, flows, seed=2)
    assert a.per_flow[0].packets_delivered != b.per_flow[0].packets_delivered


def test_conservation_and_bounds_on_random_runs():
    rng = random.Random(99)
    for _ in range(30):
        config = dataclasses.replace(random_scenario(rng), non_coop_drop_prob=rng.random())
        ids = [n.id for n in config.nodes]
        src, dst = rng.sample(ids, 2)
        protocol = rng.choice([Protocol.AODV, Protocol.COAODV])
        metrics = run(config, protocol, (Flow(src, dst, 40),), seed=rng.randrange(2**32))
        (flow,) = metrics.per_flow
        assert flow.packets_delivered <= flow.packets_sent
        pdr = flow.packet_delivery_ratio
        if pdr is not None:
            assert 0.0 <= pdr <= 1.0


def test_compare_pairs_protocols_per_seed(paper_scenario):
    results = compare(paper_scenario, (Flow(0, 9, 10),), seeds=[5, 6])
    assert len(results) == 2
    for aodv_metrics, coaodv_metrics in results:
        assert aodv_metrics.protocol is Protocol.AODV
        assert coaodv_metrics.protocol is Protocol.COAODV


def test_compare_hop_monotonicity_when_both_route(paper_scenario):
    (aodv_metrics, coaodv_metrics), = compare(paper_scenario, (Flow(4, 9, 10),), seeds=[1])
    assert coaodv_metrics.per_flow[0].hop_count >= aodv_metrics.per_flow[0].hop_count


def test_compare_zero_flows_yields_empty_metrics(paper_scenario):
    (aodv_metrics, coaodv_metrics), = compare(paper_scenario, (), seeds=[1])
    assert aodv_metrics.per_flow == ()
    assert aodv_metrics.packets_sent == 0
    assert coaodv_metrics.per_flow == ()


def test_compare_requires_a_seed(paper_scenario):
    with pytest.raises(ValueError):
        compare(paper_scenario, (Flow(0, 9, 1),), seeds=[])


def _fold(metrics) -> Summary:
    summary = Summary()
    for m in metrics:
        summary.add(m)
    return summary


def test_mean_helpers(paper_scenario):
    results = compare(paper_scenario, (Flow(0, 9, 10), Flow(4, 9, 10)), seeds=[1, 2])
    aodv_all = [pair[0] for pair in results]
    coaodv_all = [pair[1] for pair in results]
    assert _fold(aodv_all).mean_hops == 3.0  # flows of 4 and 2 hops
    assert _fold(coaodv_all).mean_hops == 2.0  # only the routed flow counts
    assert mean_pdr(coaodv_all) == 1.0
    assert mean_pdr([]) is None


def test_summary_folds_in_run_order(paper_scenario):
    half = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.5)
    results = compare(half, (Flow(0, 9, 7), Flow(4, 9, 3), Flow(0, 9, 11)), seeds=[1, 2, 3])
    aodv_all = [pair[0] for pair in results]
    summary = Summary()
    for metrics in aodv_all:
        summary.add(metrics)
    pdrs = [f.packet_delivery_ratio for m in aodv_all for f in m.per_flow]
    assert (summary.routed, summary.flows, summary.hop_sum) == (9, 9, 30)
    assert summary.mean_pdr == reduce(add, pdrs, 0) / len(pdrs)  # the same additions, in order
    assert mean_pdr(iter(aodv_all)) == summary.mean_pdr  # mean_pdr folds a stream too
    assert summary.mean_hops == 30 / 9


def test_summary_of_no_routed_flow_has_no_means(paper_scenario):
    for flows in ((), (Flow(0, 9, 5),)):
        (_, coaodv_metrics), = compare(paper_scenario, flows, seeds=[1])
        summary = _fold([coaodv_metrics])
        assert (summary.routed, summary.flows) == (0, len(flows))
        assert summary.mean_hops is None and summary.mean_pdr is None


def test_pairs_runs_each_seed_when_it_is_asked_for(monkeypatch, paper_scenario):
    seeds = []
    monkeypatch.setattr(sim_module, "run", lambda scenario, proto, flows, seed: seeds.append(seed))
    loop = pairs(paper_scenario, (Flow(4, 9, 1),), iter([5, 6, 7]))
    assert seeds == []
    next(loop)
    assert seeds == [5, 5]
    assert len(list(loop)) == 2 and seeds == [5, 5, 6, 6, 7, 7]


@pytest.mark.parametrize("n, scenario_seed", [(50, 1), (50, 2), (300, 3)])
def test_compare_equals_its_runs(n, scenario_seed):
    rng = random.Random(f"compare-{n}-{scenario_seed}")
    config = dataclasses.replace(
        seeded_scenario(n, scenario_seed), non_coop_drop_prob=rng.random()
    )
    ids = [node.id for node in config.nodes]
    flows = tuple(Flow(*rng.sample(ids, 2), rng.randint(1, 50)) for _ in range(6))
    seeds = rng.choices(range(10**6), k=rng.randint(2, 7))
    results = compare(config, flows, seeds)
    # each run on a fresh copy of the config, so no route is resolved yet
    runs = [
        tuple(
            run(dataclasses.replace(config), proto, flows, seed)
            for proto in (Protocol.AODV, Protocol.COAODV)
        )
        for seed in seeds
    ]
    assert results == runs
    assert list(pairs(config, flows, seeds)) == results
    half = len(seeds) // 2
    assert results == compare(config, flows, seeds[:half]) + compare(config, flows, seeds[half:])
    # guard the inputs: some aodv flows lose packets, some coaodv flows are refused
    outcomes = {
        f.failure or f.packets_delivered < f.packets_sent for m in results[0] for f in m.per_flow
    }
    assert {True, "no_cooperative_route"} <= outcomes
