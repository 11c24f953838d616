import dataclasses
import logging
import random
import re
import sys
from functools import reduce
from operator import add

import pytest

from coaodv_sim import protocol as protocol_module
from coaodv_sim import sim as sim_module
from coaodv_sim.errors import UnknownNode
from coaodv_sim.model import FlowMetrics, Protocol, SimMetrics
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


def test_run_logs_each_flow_once(caplog, paper_scenario):
    half = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.5)
    apart = make_scenario([make_node(0, 0, 0), make_node(1, 99, 99)])
    caplog.set_level(logging.DEBUG, logger="coaodv_sim.sim")
    flows = (Flow(0, 9, 40), Flow(4, 9, 40))
    run(half, Protocol.COAODV, flows, seed=1)
    run(half, Protocol.AODV, flows, seed=1)
    run(apart, Protocol.AODV, (Flow(0, 1, 5),), seed=1)
    lines = [
        f"{r.levelname} {r.name}: {r.getMessage()}"
        for r in caplog.records
        if r.name == "coaodv_sim.sim"
    ]
    assert lines == [
        "INFO coaodv_sim.sim: flow 0->9: no cooperative route",
        "DEBUG coaodv_sim.sim: flow 4->9: path=(4, 8, 9) delivered=40/40",
        "DEBUG coaodv_sim.sim: flow 0->9: path=(0, 2, 1, 5, 9) delivered=10/40",
        "DEBUG coaodv_sim.sim: flow 4->9: path=(4, 5, 9) delivered=24/40",
        "INFO coaodv_sim.sim: flow 0->1: no route",
    ]


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


@pytest.mark.parametrize("field", ["source", "destination", "packets"])
@pytest.mark.parametrize("value", [1.5, 4.0, True, False, "4", None])
def test_flow_fields_must_be_integers(field, value):
    fields = {"source": 4, "destination": 9, "packets": 5, field: value}
    message = f"{field} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Flow(**fields)


# Each would run as another seed's stream, or as none: random.Random draws
# the stream of 1 for -1, True and 1.0, hashes a string and seeds None from
# the OS.
BAD_SEEDS = [-1, -(2**64), True, False, 1.0, 0.0, "x", None, b"\x01"]


@pytest.mark.parametrize("seed", BAD_SEEDS)
@pytest.mark.parametrize("flows", [(), (Flow(0, 9, 5), Flow(4, 9, 5))])
@pytest.mark.parametrize("proto", list(Protocol))
def test_run_rejects_a_seed_that_is_not_a_non_negative_int(paper_scenario, proto, flows, seed):
    half = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.5)
    memoized = run(half, proto, flows, 1)  # a coaodv run is memoized: checked before the lookup
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(half, proto, flows, seed)
    assert run(half, proto, flows, 1) == memoized


# Each would fail deep in the run, or get back the memoized run of the input
# it equals: "coaodv" == Protocol.COAODV, and (4.0, 9, 5) == Flow(4, 9, 5).
BAD_RUN_INPUTS = {
    "protocol-name": ("coaodv", (Flow(4, 9, 5),), "proto must be a Protocol, got 'coaodv'"),
    "unknown-protocol": ("xyz", (Flow(4, 9, 5),), "proto must be a Protocol, got 'xyz'"),
    "no-protocol-no-flows": (None, (), "proto must be a Protocol, got None"),
    "float-flow": (Protocol.COAODV, ((4.0, 9, 5),), "each flow must be a Flow, got (4.0, 9, 5)"),
    "plain-tuple-flow": (Protocol.COAODV, ((4, 9, 5),), "each flow must be a Flow, got (4, 9, 5)"),
    "second-flow": (
        Protocol.AODV, (Flow(4, 9, 5), [0, 9, 5]), "each flow must be a Flow, got [0, 9, 5]"
    ),
    "list-of-flows": (
        Protocol.COAODV, [Flow(4, 9, 5)],
        "flows must be a tuple, got [Flow(source=4, destination=9, pa...",
    ),
    "empty-list": (Protocol.AODV, [], "flows must be a tuple, got []"),
}


@pytest.mark.parametrize("memoized", [False, True], ids=["fresh", "after-a-memoized-run"])
@pytest.mark.parametrize("case", BAD_RUN_INPUTS)
def test_run_rejects_a_protocol_or_flows_of_another_type(paper_scenario, case, memoized):
    config = dataclasses.replace(paper_scenario)  # a fresh object, nothing memoized
    if memoized:
        run(config, Protocol.COAODV, (Flow(4, 9, 5),), 0)
    proto, flows, message = BAD_RUN_INPUTS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(config, proto, flows, 0)


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_compare_rejects_a_seed_that_is_not_a_non_negative_int(paper_scenario, seed):
    half = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.5)
    message = f"seed must be a non-negative integer, got {seed!r}"
    for seeds in ([seed], [2, seed]):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compare(half, (Flow(0, 9, 5), Flow(4, 9, 5)), seeds)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Flow._make((0, 9, 1.5)), "packets must be an integer, got 1.5"),
        (
            lambda: Flow(0, 9, 5)._replace(packets=0),
            f"packets must be from 1 to {sys.maxsize}, got 0",
        ),
    ],
)
def test_flow_is_checked_on_every_constructor_path(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_flow_is_a_tuple_that_hashes_and_compares_in_c():
    # run's memo key (proto, flows) then hashes with no Python-level call
    assert Flow.__hash__ is tuple.__hash__ and Flow.__eq__ is tuple.__eq__
    flow = Flow(0, 9, 5)
    assert repr(flow) == "Flow(source=0, destination=9, packets=5)"
    assert flow == Flow(**flow._asdict()) == Flow._make(flow)
    assert type(flow._replace(packets=7)) is Flow and flow._replace(packets=7).packets == 7
    with pytest.raises(AttributeError):
        flow.extra = 1  # no instance dict: __slots__ = ()


def test_unknown_node_in_a_later_flow_is_rejected(paper_scenario):
    flows = (Flow(4, 9, 5), Flow(0, 9, 5), Flow(9, 42, 5))
    for protocol in (Protocol.AODV, Protocol.COAODV):
        with pytest.raises(UnknownNode, match="42"):
            run(paper_scenario, protocol, flows, seed=1)


def test_endpoints_are_checked_once_per_resolved_route(monkeypatch, paper_scenario):
    calls = []
    check = protocol_module._check_endpoints

    def counted(*args):
        calls.append(args[:2])
        return check(*args)

    monkeypatch.setattr(protocol_module, "_check_endpoints", counted)
    config = dataclasses.replace(paper_scenario)  # a topology and memo of its own
    compare(config, (Flow(0, 9, 10), Flow(4, 9, 10)), seeds=list(range(1, 21)))
    # one per resolved (cooperative, source, destination): a memo hit, as in
    # every aodv discovery after the first seed's, checks nothing
    assert sorted(calls) == [(0, 9), (0, 9), (4, 9), (4, 9)]
    _, memo = protocol_module._topology(config)
    keys = set(memo)
    for discover in sim_module._DISCOVER.values():
        for source, dest in ((0, 42), (42, 9), (42, 42)):
            with pytest.raises(UnknownNode, match="42"):
                discover(source, dest, config)
    # a failed check stores nothing, so a hit never answers for an unchecked
    # pair, and an unknown node is checked on every call
    assert set(memo) == keys
    assert len(calls) == 4 + 6


def test_a_run_that_draws_nothing_is_computed_once(monkeypatch, caplog, paper_scenario):
    half = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.5)
    flows = (Flow(0, 9, 20), Flow(4, 9, 20))
    caplog.set_level(logging.DEBUG, logger="coaodv_sim.sim")

    def logged():
        return sum(r.name == "coaodv_sim.sim" for r in caplog.records)

    first = run(half, Protocol.COAODV, flows, seed=1)
    assert logged() == 2
    discoveries = []
    monkeypatch.setitem(
        sim_module._DISCOVER, Protocol.COAODV, lambda *args: discoveries.append(args)
    )
    # equal flows, not the same objects, find the memoized run too
    again = tuple(Flow(f.source, f.destination, f.packets) for f in flows)
    assert all(run(half, Protocol.COAODV, again, seed) is first for seed in range(1, 6))
    assert discoveries == [] and logged() == 2  # no discovery, no log line
    monkeypatch.undo()
    assert run(dataclasses.replace(half), Protocol.COAODV, flows, seed=1) == first
    # a run with another protocol or other flows is a key of its own
    assert run(half, Protocol.COAODV, flows[1:], seed=1).per_flow == first.per_flow[1:]
    one_hop = (Flow(4, 5, 20),)  # no intermediate: aodv draws nothing either
    aodv, coaodv = (run(half, proto, one_hop, seed=1) for proto in Protocol)
    assert (aodv.protocol, coaodv.protocol) == (Protocol.AODV, Protocol.COAODV)
    assert run(half, Protocol.AODV, one_hop, seed=2) is aodv
    # a run that fails stores nothing: the unknown node is raised every time
    for _ in range(2):
        with pytest.raises(UnknownNode, match="42"):
            run(half, Protocol.COAODV, (*flows, Flow(9, 42, 5)), seed=1)


def test_a_run_that_draws_is_computed_every_time(paper_scenario):
    half = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.5)
    flows = (Flow(0, 9, 200), Flow(4, 9, 200))
    a, b, again = (run(half, Protocol.AODV, flows, seed) for seed in (1, 2, 1))
    assert a != b
    assert again == a and again is not a


@pytest.mark.parametrize("proto", list(Protocol))
def test_a_run_without_flows_builds_no_topology(monkeypatch, paper_scenario, proto):
    config = dataclasses.replace(paper_scenario)  # a fresh object, not yet cached
    hellos = []
    monkeypatch.setattr(protocol_module, "exchange_hello", hellos.append)
    assert run(config, proto, (), 1) == (proto, ())
    assert hellos == []


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


@pytest.mark.parametrize(
    "seeds",
    [lambda: [], lambda: (), lambda: range(0), lambda: iter([]), lambda: (s for s in ())],
    ids=["list", "tuple", "range", "iterator", "generator"],
)
def test_compare_requires_a_seed(paper_scenario, seeds):
    with pytest.raises(ValueError, match="^compare requires at least one seed$"):
        compare(paper_scenario, (Flow(0, 9, 1),), seeds())


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
    monkeypatch.setattr(
        sim_module, "run", lambda scenario, proto, flows, seed, *, rng: seeds.append(seed)
    )
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


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 10**30])
def test_a_reseeded_generator_draws_a_fresh_generators_stream(paper_scenario, seed):
    half = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.5)
    flows = (Flow(0, 9, 300), Flow(4, 9, 300))
    rng = random.Random(7)
    run(half, Protocol.AODV, flows, 12345, rng=rng)  # leaves rng mid-stream
    assert run(half, Protocol.AODV, flows, seed, rng=rng) == run(half, Protocol.AODV, flows, seed)
    rng.random()
    rng.seed(seed)  # the call run makes on a given generator
    fresh = random.Random(seed)
    assert [rng.random() for _ in range(1000)] == [fresh.random() for _ in range(1000)]


def test_compare_over_repeated_seeds_equals_its_runs(paper_scenario):
    half = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.5)
    flows = (Flow(4, 5, 30), Flow(0, 9, 200), Flow(4, 9, 200))
    seeds = [5, 3, 5, 0]
    runs = [
        tuple(run(dataclasses.replace(half), proto, flows, seed) for proto in Protocol)
        for seed in seeds
    ]
    assert compare(half, flows, seeds) == runs
    assert runs[0] == runs[2] and runs[0] != runs[1]


def test_run_builds_exact_records(paper_scenario):
    half = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.5)
    apart = make_scenario([make_node(0, 0, 0), make_node(1, 99, 99)])
    # routed with and without drops, refused by coaodv, a self flow, no route
    runs = [
        run(half, proto, (Flow(0, 9, 20), Flow(4, 9, 20), Flow(3, 3, 5)), seed)
        for proto in Protocol
        for seed in (1, 2)
    ]
    runs += [run(apart, Protocol.AODV, (Flow(0, 1, 5),), 1), run(half, Protocol.AODV, (), 1)]
    flows = [f for m in runs for f in m.per_flow]
    assert {f.failure for f in flows} == {None, "no_route", "no_cooperative_route"}
    assert any(f.hop_count == 0 for f in flows)
    for m in runs:
        assert type(m) is SimMetrics
        assert m == SimMetrics(*m) and repr(m) == repr(SimMetrics(*m))
    for f in flows:
        assert type(f) is FlowMetrics
        assert f == FlowMetrics(*f) and repr(f) == repr(FlowMetrics(*f))
        assert (f.failure is None) is (f.hop_count is not None)
