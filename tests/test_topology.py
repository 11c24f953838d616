"""The range graph's cell-list build and the per-scenario topology cache."""

import dataclasses
import gc
import math
import random
import traceback
import weakref

import pytest

from coaodv_sim import coopmath, protocol, sim
from coaodv_sim.errors import NoCooperativeRoute, NoRoute, UnknownNode
from coaodv_sim.model import DistanceMetric, MobilityMetric, load_scenario

from .conftest import PAPER_SCENARIO, make_node, make_scenario, seeded_scenario
from .graph_reference import brute_force_adjacency

METRICS = list(DistanceMetric)


def _assert_same_edges(config):
    # dict equality ignores key order, so compare the item sequences
    assert list(protocol._adjacency(config).items()) == list(
        brute_force_adjacency(config).items()
    )


# -- cell-list range graph against the all-pairs scan ------------------------


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("n", [1, 2, 50, 300, 1000])
def test_cell_list_matches_all_pairs_on_seeded_scenarios(n, metric):
    config = seeded_scenario(n, seed=11, distance_metric=metric)
    _assert_same_edges(config)


def _axis_and_diagonal_pairs(r):
    # pairs exactly r apart along x, along y and (per metric) on a diagonal,
    # every coordinate a whole multiple of r, so nodes sit on cell boundaries
    points = [(i * r, j * r) for i in range(4) for j in range(4)]
    points += [(i * r + r / 2, j * r + r / 2) for i in range(3) for j in range(3)]
    return points


def _nudged_grid(r, rng):
    # coordinates one ulp either side of multiples of r, where rounding in
    # coordinate / cell width could push a pair two cells apart
    points = []
    for i in range(6):
        for j in range(6):
            x, y = i * r, j * r
            x = rng.choice([math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)])
            y = rng.choice([math.nextafter(y, -math.inf), y, math.nextafter(y, math.inf)])
            points.append((max(x, 0.0), max(y, 0.0)))
    return points


def _layout(points, r, metric, area=(100.0, 100.0)):
    nodes = [make_node(i, x, y) for i, (x, y) in enumerate(points)]
    return make_scenario(nodes, transmission_range=r, area=area, distance_metric=metric)


ADVERSARIAL = {
    "exact-range-grid": lambda m: _layout(_axis_and_diagonal_pairs(20.0), 20.0, m),
    "pythagorean-diagonals": lambda m: _layout(
        [(3.0 * i, 4.0 * j) for i in range(6) for j in range(6)], 5.0, m
    ),
    "range-0.1": lambda m: _layout(_axis_and_diagonal_pairs(0.1), 0.1, m),
    "range-one-third": lambda m: _layout(_axis_and_diagonal_pairs(1 / 3), 1 / 3, m),
    "nudged-0.1": lambda m: _layout(_nudged_grid(0.1, random.Random(1)), 0.1, m),
    "nudged-one-third": lambda m: _layout(_nudged_grid(1 / 3, random.Random(2)), 1 / 3, m),
    "nudged-far-from-origin": lambda m: _layout(
        [(x + 1e6, y + 1e6) for x, y in _nudged_grid(0.1, random.Random(3))],
        0.1,
        m,
        area=(2e6, 2e6),
    ),
    "range-larger-than-area": lambda m: _layout(
        [(random.Random(i).uniform(0, 100), random.Random(-i).uniform(0, 100)) for i in range(40)],
        1000.0,
        m,
    ),
    "all-in-one-cell": lambda m: _layout(
        [(random.Random(i).uniform(40, 49), random.Random(-i).uniform(40, 49)) for i in range(40)],
        20.0,
        m,
    ),
    "tiny-range": lambda m: _layout(
        [(1.0, 1.0), (1.0, 1.0), (0.0, 0.0), (0.0, 5e-324), (2.0, 2.0)], 1e-310, m
    ),
    # configs that skip validation: the build must still agree with the scan
    "zero-range-all-at-origin": lambda m: _layout([(0.0, 0.0)] * 4, 0.0, m),
    "non-finite-positions": lambda m: _layout(
        [(0.0, 0.0), (math.inf, 0.0), (math.nan, 5.0), (10.0, 0.0), (math.inf, math.inf)], 20.0, m
    ),
    "infinite-range": lambda m: _layout(
        [(0.0, 0.0), (math.inf, 0.0), (50.0, 50.0), (99.0, 1.0)], math.inf, m
    ),
}


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("layout", sorted(ADVERSARIAL))
def test_cell_list_matches_all_pairs_on_adversarial_layouts(layout, metric):
    _assert_same_edges(ADVERSARIAL[layout](metric))


def test_adversarial_layouts_contain_boundary_edges():
    # guard the layouts themselves: edges at exactly the range must exist
    adj = protocol._adjacency(ADVERSARIAL["exact-range-grid"](DistanceMetric.MANHATTAN))
    assert 1 in adj[0] and 4 in adj[0]  # (0, 0) to (r, 0) and to (0, r)
    tiny = protocol._adjacency(ADVERSARIAL["tiny-range"](DistanceMetric.EUCLIDEAN))
    assert tiny == {0: [1], 1: [0], 2: [3], 3: [2], 4: []}


# -- one topology per scenario object ----------------------------------------


def _counting(monkeypatch, name):
    calls = []
    original = getattr(protocol, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, name, counted)
    return calls


def test_compare_builds_range_graph_and_hello_tables_once(monkeypatch):
    config = load_scenario(PAPER_SCENARIO)  # a fresh object, not yet cached
    adjacency = _counting(monkeypatch, "_adjacency")
    hello = _counting(monkeypatch, "exchange_hello")
    flows = (sim.Flow(0, 9, 5), sim.Flow(4, 9, 5))
    results = sim.compare(config, flows, list(range(20)))
    assert len(results) == 20
    assert len(adjacency) == 1
    assert len(hello) == 1


def test_run_reads_cooperative_flags_off_the_route(monkeypatch):
    config = load_scenario(PAPER_SCENARIO)  # a fresh object: no route resolved yet
    requests = _counting(monkeypatch, "completed_request")
    flows = (sim.Flow(0, 9, 5), sim.Flow(4, 9, 5))
    sim.compare(config, flows, list(range(20)))
    # one per route resolved: aodv routes both flows, coaodv only 4->9
    assert len(requests) == 3


def test_compare_resolves_each_route_once(monkeypatch):
    config = load_scenario(PAPER_SCENARIO)
    searches = _counting(monkeypatch, "_hops_to")
    flows = (sim.Flow(0, 9, 5), sim.Flow(4, 9, 5))
    sim.compare(config, flows, list(range(20)))
    # aodv: one search per flow; coaodv 4->9: one cooperative search;
    # coaodv 0->9: a cooperative search, then a plain one to tell the failures apart
    assert len(searches) == 2 + 1 + 2


def test_replaced_config_gets_its_own_topology(paper_scenario):
    narrow = paper_scenario
    wide = dataclasses.replace(narrow, transmission_range=40.0)
    assert protocol.aodv_discover(0, 9, narrow).hop_count == 4
    assert protocol.aodv_discover(0, 9, wide).hop_count == 2
    # alternate A, B, A: each lookup answers for its own config
    for config, hops in ((narrow, 4), (wide, 2), (narrow, 4), (wide, 2)):
        assert protocol.aodv_discover(0, 9, config).hop_count == hops
    with pytest.raises(NoCooperativeRoute):
        protocol.coaodv_discover(0, 9, narrow)
    assert protocol.completed_request((0, 2, 1, 5, 9), narrow).route_stability == (
        True,
        False,
        False,
    )


@pytest.mark.parametrize("discover_first", [False, True])
def test_mutating_hello_tables_cannot_change_discovery(discover_first):
    config = load_scenario(PAPER_SCENARIO)
    if discover_first:
        assert protocol.coaodv_discover(4, 9, config).path == (4, 8, 9)
    tables = protocol.exchange_hello(config)
    tables[4].entries[8] = dataclasses.replace(tables[4].entries[8], coop_status=False)
    tables.clear()
    assert protocol.coaodv_discover(4, 9, config).path == (4, 8, 9)
    assert protocol.aodv_discover(4, 9, config).path == (4, 5, 9)


def test_cache_does_not_keep_config_alive():
    config = load_scenario(PAPER_SCENARIO)
    protocol.aodv_discover(0, 9, config)
    # memoized routes and a memoized failure hold nothing of the config either
    protocol.coaodv_discover(4, 9, config)
    with pytest.raises(NoCooperativeRoute):
        protocol.coaodv_discover(0, 9, config)
    ref = weakref.ref(config)
    del config
    gc.collect()
    assert ref() is None


# -- one resolved route per (protocol, source, destination) per config ------


@pytest.mark.parametrize("proto", list(sim.Protocol))
def test_repeated_discovery_returns_equal_routes(proto):
    config = load_scenario(PAPER_SCENARIO)
    discover = sim._DISCOVER[proto]
    for source in (4, 9):
        first = discover(source, 9, config)
        assert [discover(source, 9, config) for _ in range(3)] == [first] * 3
        # equal to the route resolved on a cold copy of the config
        assert discover(source, 9, dataclasses.replace(config)) == first


FAILURES = {
    "no-cooperative-route": (protocol.coaodv_discover, False, NoCooperativeRoute),
    "no-route-aodv": (protocol.aodv_discover, True, NoRoute),
    "no-route-coaodv": (protocol.coaodv_discover, True, NoRoute),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_memoized_failure_is_raised_fresh_on_every_call(monkeypatch, case):
    discover, isolated, error = FAILURES[case]
    config = load_scenario(PAPER_SCENARIO)
    if isolated:  # node 0 out of everyone's range
        config = make_scenario([make_node(0, 0.0, 0.0), make_node(9, 90.0, 90.0)])
    searches = _counting(monkeypatch, "_hops_to")
    raised = []
    for _ in range(4):
        with pytest.raises(error) as info:
            discover(0, 9, config)
        raised.append(info.value)
        if len(raised) == 1:
            first_searches = len(searches)
    assert len(searches) == first_searches  # later calls replay the failure
    assert len({id(exc) for exc in raised}) == len(raised)
    assert {(type(exc), exc.args, exc.source, exc.destination) for exc in raised} == {
        (error, raised[0].args, 0, 9)
    }
    # a stored instance raised again would carry a longer traceback each time
    depths = {len(traceback.extract_tb(exc.__traceback__)) for exc in raised}
    assert len(depths) == 1
    assert all(exc.__context__ is None for exc in raised)


@pytest.mark.parametrize("proto", list(sim.Protocol))
def test_unknown_node_is_raised_after_a_memoized_route(proto):
    config = load_scenario(PAPER_SCENARIO)
    discover = sim._DISCOVER[proto]
    discover(4, 9, config)
    discover(4, 9, config)
    for source, dest in ((4, 42), (42, 9), (42, 42)):
        with pytest.raises(UnknownNode, match="42"):
            discover(source, dest, config)
    assert discover(4, 9, config).path[0] == 4


def test_replaced_configs_keep_their_own_routes():
    narrow = load_scenario(PAPER_SCENARIO)
    wide = dataclasses.replace(narrow, transmission_range=200.0)
    # alternate A, B, A, B: each config answers the same keys with its own outcome
    for _ in range(2):
        with pytest.raises(NoCooperativeRoute):
            protocol.coaodv_discover(0, 9, narrow)
        assert protocol.aodv_discover(0, 9, narrow).path == (0, 2, 1, 5, 9)
        assert protocol.coaodv_discover(4, 9, narrow).path == (4, 8, 9)
        assert protocol.coaodv_discover(0, 9, wide).path == (0, 9)
        assert protocol.aodv_discover(0, 9, wide).path == (0, 9)
        assert protocol.coaodv_discover(4, 9, wide).path == (4, 9)


# -- HELLO: one mobility per node, verdicts of the full peer set -------------


@pytest.mark.parametrize("mobility_metric", list(MobilityMetric))
@pytest.mark.parametrize("n", [50, 300])
def test_hello_computes_each_mobility_once(monkeypatch, n, mobility_metric):
    config = dataclasses.replace(seeded_scenario(n, 1), mobility_metric=mobility_metric)
    by_id = config.node_map()
    adj = protocol._adjacency(config)
    all_rates = coopmath.mobility_rates(config.nodes, mobility_metric)
    full_peers = {
        (owner, v): coopmath.is_cooperative(
            by_id[v], by_id[owner], [by_id[u] for u in nbrs], config, all_rates
        ).cooperative
        for owner, nbrs in adj.items()
        for v in nbrs
    }
    assert 0 < sum(full_peers.values()) < len(full_peers)

    rates = []
    original = coopmath.mobility

    def counted(*args, **kwargs):
        rates.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(coopmath, "mobility", counted)
    checks = _counting(monkeypatch, "is_cooperative")
    tables = protocol.exchange_hello(config)
    assert len(rates) <= n
    assert len(checks) == len(full_peers)  # one check per directed edge
    hello = {(o, v): e.coop_status for o, t in tables.items() for v, e in t.entries.items()}
    assert hello == full_peers
