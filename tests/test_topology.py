"""The range graph's cell-list build and the per-scenario topology cache."""

import copy
import dataclasses
import gc
import logging
import math
import pickle
import random
import re
import sys
import traceback
import weakref

import pytest

from coaodv_sim import coopmath, protocol, sim
from coaodv_sim.errors import NoCooperativeRoute, NoRoute, ScenarioValidationError, UnknownNode
from coaodv_sim.model import DistanceMetric, MobilityMetric, load_scenario

from .conftest import PAPER_SCENARIO, make_node, make_scenario, seeded_scenario
from .graph_reference import brute_force_adjacency, coop_verdict

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


def _forward_pairs(metric):
    # one pair exactly 20 apart across each forward cell direction (1, 0),
    # (0, 1), (1, 1) and (1, -1), each pair 60 units right of the last; the
    # larger id sits in the cell whose forward scan reaches the other, so the
    # pair is measured larger id first
    a, b = (10.0, 10.0) if metric is DistanceMetric.MANHATTAN else (12.0, 16.0)
    pairs = [
        ((19.0, 10.0), (39.0, 10.0)),
        ((10.0, 19.0), (10.0, 39.0)),
        ((19.0, 19.0), (19.0 + a, 19.0 + b)),
        ((19.0, 21.0), (19.0 + a, 21.0 - b)),
    ]
    points = []
    for k, ((px, py), (qx, qy)) in enumerate(pairs):
        points += [(qx + 60.0 * k, qy), (px + 60.0 * k, py)]
    return points


MAX = sys.float_info.max

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
    # the largest range: the cell width overflows to inf and every node shares
    # cell (0, 0); some pairs are exactly the range apart, some overflow to inf
    "float-max-range": lambda m: _layout(
        [(0.0, 0.0), (MAX, 0.0), (MAX / 2, MAX / 2), (0.0, MAX), (MAX, MAX), (1.0, 1.0)],
        MAX,
        m,
        area=(MAX, MAX),
    ),
    "exact-range-forward": lambda m: _layout(_forward_pairs(m), 20.0, m, area=(300.0, 100.0)),
    # 2 - (1 - 2**-53) rounds to exactly 1.0, so the pair is in range, yet
    # with cells exactly one range wide the two nodes bin to cells 0 and 2
    "cell-edge-rounding": lambda m: _layout([(1 - 2**-53, 0.0), (2.0, 0.0)], 1.0, m),
}


# layouts that no config can hold, and the message that building one raises
UNCHECKED = {
    "zero-range-all-at-origin": (
        lambda m: _layout([(0.0, 0.0)] * 4, 0.0, m), "transmission_range must be > 0, got 0.0"
    ),
    "non-finite-positions": (
        lambda m: _layout(
            [(0.0, 0.0), (math.inf, 0.0), (math.nan, 5.0), (10.0, 0.0), (math.inf, math.inf)],
            20.0,
            m,
        ),
        "node 1 pos_t1 must be finite, got inf",
    ),
    "infinite-range": (
        lambda m: _layout([(0.0, 0.0), (math.inf, 0.0), (50.0, 50.0), (99.0, 1.0)], math.inf, m),
        "transmission_range must be finite, got inf",
    ),
}


LAYOUTS = sorted(ADVERSARIAL.keys() | UNCHECKED.keys())


def _built(layout, metric):
    """The layout's config, or None for an UNCHECKED layout, once building it
    has raised its message: such a layout never reaches the range graph or
    HELLO."""
    if layout in ADVERSARIAL:
        return ADVERSARIAL[layout](metric)
    build, message = UNCHECKED[layout]
    with pytest.raises(ScenarioValidationError, match=f"^{re.escape(message)}$"):
        build(metric)
    return None


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_cell_list_matches_all_pairs_on_adversarial_layouts(layout, metric):
    config = _built(layout, metric)
    if config is not None:
        _assert_same_edges(config)


def test_adversarial_layouts_contain_boundary_edges():
    # guard the layouts themselves: edges at exactly the range must exist
    adj = protocol._adjacency(ADVERSARIAL["exact-range-grid"](DistanceMetric.MANHATTAN))
    assert 1 in adj[0] and 4 in adj[0]  # (0, 0) to (r, 0) and to (0, r)
    tiny = protocol._adjacency(ADVERSARIAL["tiny-range"](DistanceMetric.EUCLIDEAN))
    assert tiny == {0: [1], 1: [0], 2: [3], 3: [2], 4: []}
    for metric in METRICS:  # an edge that only _CELL_MARGIN keeps
        assert protocol._adjacency(ADVERSARIAL["cell-edge-rounding"](metric)) == {0: [1], 1: [0]}
        widest = ADVERSARIAL["float-max-range"](metric)
        assert set(_cells(widest).values()) == {(0, 0)}  # the cell width is inf
        adj = protocol._adjacency(widest)
        assert adj[0] == [1, 2, 3, 5] and adj[4] == [1, 2, 3]


def _cells(config):
    """Each node's cell, binned as the build bins a finite layout."""
    width = config.transmission_range * protocol._CELL_MARGIN
    return {
        n.id: (math.floor(n.position.x / width), math.floor(n.position.y / width))
        for n in config.nodes
    }


def _measured_pairs(monkeypatch, config):
    """The (id, id) pairs the metric's distance function is called on from now
    on, in call order, by each position's identity."""
    ids = {id(n.position): n.id for n in config.nodes}
    measured = []
    original = coopmath.DISTANCES[config.distance_metric]

    def counted(a, b):
        measured.append((ids[id(a)], ids[id(b)]))
        return original(a, b)

    monkeypatch.setitem(coopmath.DISTANCES, config.distance_metric, counted)
    return measured


@pytest.mark.parametrize("metric", METRICS)
def test_forward_layout_measures_each_pair_larger_id_first(monkeypatch, metric):
    config = ADVERSARIAL["exact-range-forward"](metric)
    cell = _cells(config)
    by_id = config.node_map()
    directions = []
    for small in range(0, 8, 2):
        large = small + 1
        assert coopmath.DISTANCES[metric](
            by_id[large].position, by_id[small].position
        ) == config.transmission_range
        directions.append(tuple(q - p for p, q in zip(cell[large], cell[small])))
    assert directions == [(1, 0), (0, 1), (1, 1), (1, -1)]

    measured = _measured_pairs(monkeypatch, config)
    adj = protocol._adjacency(config)
    assert all(adj[small] == [small + 1] for small in range(0, 8, 2))
    assert measured == [(1, 0), (3, 2), (5, 4), (7, 6)]


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("n", [50, 300])
def test_adjacency_measures_each_nearby_pair_once(monkeypatch, n, metric):
    config = seeded_scenario(n, seed=3, distance_metric=metric)
    cell = _cells(config)
    ids = sorted(cell)
    nearby = sum(
        1
        for i, u in enumerate(ids)
        for v in ids[i + 1 :]
        if abs(cell[u][0] - cell[v][0]) <= 1 and abs(cell[u][1] - cell[v][1]) <= 1
    )
    measured = _measured_pairs(monkeypatch, config)
    protocol._adjacency(config)
    assert len(measured) == nearby  # one call per unordered pair of nearby nodes
    assert len({frozenset(pair) for pair in measured}) == nearby  # and none twice


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
    # coaodv 0->9: one cooperative search, then aodv's memoized 0->9 route
    # tells the failures apart
    assert len(searches) == 2 + 1 + 1


def test_replaced_config_gets_its_own_topology(monkeypatch):
    narrow = load_scenario(PAPER_SCENARIO)  # a fresh object, not the session's
    shown = repr(narrow)
    wide = dataclasses.replace(narrow, transmission_range=40.0)
    hello = _counting(monkeypatch, "exchange_hello")
    # alternate A, B, A, B: each lookup answers for its own config, and each
    # config object builds its topology once
    for config, hops in ((narrow, 4), (wide, 2), (narrow, 4), (wide, 2)):
        assert protocol.aodv_discover(0, 9, config).hop_count == hops
    assert len(hello) == 2 and hello[0][0] is narrow and hello[1][0] is wide
    # the topology is no field: equality, hashing and repr never see it
    assert narrow == dataclasses.replace(narrow)
    assert hash(narrow) == hash(dataclasses.replace(narrow))
    assert repr(narrow) == shown
    with pytest.raises(NoCooperativeRoute):
        protocol.coaodv_discover(0, 9, narrow)
    assert protocol.completed_request((0, 2, 1, 5, 9), narrow).route_stability == (
        True,
        False,
        False,
    )


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_copied_config_builds_its_own_topology(monkeypatch, duplicate):
    config = load_scenario(PAPER_SCENARIO)
    pickles = [pickle.dumps(config, p) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert protocol.aodv_discover(0, 9, config).hop_count == 4
    # a pickle holds the fields alone, before and after a discovery
    assert [pickle.dumps(config, p) for p in range(pickle.HIGHEST_PROTOCOL + 1)] == pickles
    twin = duplicate(config)
    assert twin == config and twin is not config
    hello = _counting(monkeypatch, "exchange_hello")
    assert protocol.aodv_discover(0, 9, twin).hop_count == 4
    assert len(hello) == 1 and hello[0][0] is twin
    assert protocol._topology(twin)[0] is not protocol._topology(config)[0]


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
    # and so does a memoized run
    flows = (sim.Flow(0, 9, 5), sim.Flow(4, 9, 5))
    memoized = sim.run(config, sim.Protocol.COAODV, flows, 1)
    assert sim.run(config, sim.Protocol.COAODV, flows, 2) is memoized
    ref = weakref.ref(config)
    table = weakref.ref(protocol._topology(config)[0][0])
    del config
    gc.collect()
    assert ref() is None
    assert table() is None  # the topology is freed with its config


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
@pytest.mark.parametrize("n", [50, 300, 1000])
def test_hello_computes_each_mobility_once(monkeypatch, n, mobility_metric):
    config = dataclasses.replace(seeded_scenario(n, 1), mobility_metric=mobility_metric)
    by_id = config.node_map()
    adj = protocol._adjacency(config)
    verdicts = {
        (owner, v): coop_verdict(by_id[v], by_id[owner], [by_id[u] for u in nbrs], config)
        for owner, nbrs in adj.items()
        for v in nbrs
    }
    full_peers = {edge: verdict.cooperative for edge, verdict in verdicts.items()}
    assert 0 < sum(full_peers.values()) < len(full_peers)
    edges_at_the_bar = [edge for edge, verdict in verdicts.items() if verdict.mobility_ok]
    at_the_bar = {v for _, v in edges_at_the_bar}
    assert len(at_the_bar) < len(edges_at_the_bar) < len(full_peers)

    rates = []
    original = coopmath.mobility

    def counted(*args, **kwargs):
        rates.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(coopmath, "mobility", counted)
    checks = _counting(monkeypatch, "is_cooperative")
    tables = protocol.exchange_hello(config)
    assert len(rates) <= n
    assert len(checks) == len(at_the_bar)  # one check per candidate that meets some bar
    assert {candidate.id for candidate, *_ in checks} == at_the_bar
    hello = {(o, v): e.coop_status for o, t in tables.items() for v, e in t.entries.items()}
    assert hello == full_peers


def _reference_verdicts(config):
    """Each directed edge's reference verdict, over the owner's full peer set."""
    by_id = config.node_map()
    adj = brute_force_adjacency(config)
    return {
        (owner, v): coop_verdict(by_id[v], by_id[owner], [by_id[u] for u in nbrs], config)
        for owner, nbrs in adj.items()
        for v in nbrs
    }


@pytest.mark.parametrize("metric", METRICS)
def test_hello_tests_range_only_after_energy_and_mobility(monkeypatch, metric):
    config = seeded_scenario(300, 1, distance_metric=metric)
    verdicts = _reference_verdicts(config)
    at_the_bar = {v for (_, v), r in verdicts.items() if r.mobility_ok}
    passing = {v for (_, v), r in verdicts.items() if r.energy_ok and r.mobility_ok}
    assert 0 < len(passing) <= len(at_the_bar) < len(verdicts)
    ranges = []
    original = coopmath.has_comm_capability

    def counted(*args, **kwargs):
        ranges.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(coopmath, "has_comm_capability", counted)
    checks = _counting(monkeypatch, "is_cooperative")
    protocol.exchange_hello(config)
    # one check per candidate that meets some owner's mobility bar
    assert len(checks) == len(at_the_bar)
    assert len(ranges) == len(passing)  # the range clause only where the cheap ones passed


HELLO_NEIGHBORHOODS = {
    # node 0's neighbors 1, 2 and 3 move at 2.0, tied at its bar (2 fails
    # energy); 4 moves faster; each of 1-4 has node 0 as its one neighbor
    "tied-at-the-bar": [
        make_node(0, 50.0, 50.0, 51.0, 50.0),
        make_node(1, 38.0, 50.0, 38.0, 52.0),
        make_node(2, 62.0, 50.0, 62.0, 48.0, energy=100.0),
        make_node(3, 50.0, 38.0, 52.0, 38.0),
        make_node(4, 50.0, 62.0, 50.0, 67.0),
    ],
    # every rate is 0.0, so every edge meets its bar; 2 fails energy
    "all-stationary": [
        make_node(0, 50.0, 50.0),
        make_node(1, 40.0, 50.0),
        make_node(2, 60.0, 50.0, energy=100.0),
        make_node(3, 50.0, 40.0),
    ],
    # node 0's least mobile neighbor, 1, fails energy: no flag of 0's is set
    "least-mobile-fails-energy": [
        make_node(0, 50.0, 50.0, 51.0, 50.0),
        make_node(1, 40.0, 50.0, energy=100.0),
        make_node(2, 60.0, 50.0, 63.0, 50.0),
        make_node(3, 50.0, 40.0, 50.0, 37.0),
    ],
    # one edge, each end the other's bar, and a node with no neighbor
    "one-neighbor": [
        make_node(0, 50.0, 50.0, 54.0, 50.0, energy=100.0),
        make_node(1, 60.0, 50.0, 62.0, 50.0),
        make_node(2, 0.0, 0.0),
    ],
}


@pytest.mark.parametrize("case", sorted(HELLO_NEIGHBORHOODS))
def test_hello_asks_the_predicate_only_at_the_bar(monkeypatch, case):
    config = make_scenario(HELLO_NEIGHBORHOODS[case])
    verdicts = _reference_verdicts(config)
    checks = _counting(monkeypatch, "is_cooperative")
    tables = protocol.exchange_hello(config)
    # the same flags, in the same key order, as the reference
    assert [(o, v, e.coop_status) for o, t in tables.items() for v, e in t.entries.items()] == [
        (o, v, verdict.cooperative) for (o, v), verdict in verdicts.items()
    ]
    # each candidate is asked once, at its first edge that meets a bar, in adjacency order
    first_at_a_bar = {}
    for (o, v), verdict in verdicts.items():
        if verdict.mobility_ok:
            first_at_a_bar.setdefault(v, (o, v))
    asked = [(prev.id, candidate.id) for candidate, prev, *_ in checks]
    assert asked == list(first_at_a_bar.values())
    assert 0 < len(asked) <= len(verdicts)


def test_hello_neighborhoods_hold_their_ties():
    # guard the hand-built cases: each shows the tie or failure it is named for
    def verdicts(case):
        return _reference_verdicts(make_scenario(HELLO_NEIGHBORHOODS[case]))

    tied = verdicts("tied-at-the-bar")
    assert [v for (o, v), r in tied.items() if o == 0 and r.mobility_ok] == [1, 2, 3]
    assert [r.cooperative for (o, _), r in tied.items() if o == 0] == [True, False, True, False]
    still = verdicts("all-stationary")
    assert all(r.mobility_ok for r in still.values()) and len(still) == 12
    weak = verdicts("least-mobile-fails-energy")
    assert [(v, r.mobility_ok, r.cooperative) for (o, v), r in weak.items() if o == 0] == [
        (1, True, False),
        (2, False, False),
        (3, False, False),
    ]
    single = verdicts("one-neighbor")
    assert {edge: r.cooperative for edge, r in single.items()} == {(0, 1): True, (1, 0): False}


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_hello_reuses_each_verdict_across_owners(monkeypatch, layout, metric):
    # the layouts are stationary, so every edge meets its owner's bar: each
    # candidate is asked at its first edge and its verdict reused by every
    # other owner, many of them exactly one range away; odd ids fail energy
    config = _built(layout, metric)
    if config is None:
        return
    nodes = [dataclasses.replace(n, energy=100.0) if n.id % 2 else n for n in config.nodes]
    config = dataclasses.replace(config, nodes=tuple(nodes))
    verdicts = _reference_verdicts(config)
    checks = _counting(monkeypatch, "is_cooperative")
    tables = protocol.exchange_hello(config)
    assert [(o, v, e.coop_status) for o, t in tables.items() for v, e in t.entries.items()] == [
        (o, v, verdict.cooperative) for (o, v), verdict in verdicts.items()
    ]
    assert len(checks) == len({v for (_, v), verdict in verdicts.items() if verdict.mobility_ok})


def _flags(tables):
    return {(o, v): e.coop_status for o, t in tables.items() for v, e in t.entries.items()}


def test_shared_hello_entries_are_not_shared_state():
    config = seeded_scenario(300, 1)
    cached, _ = protocol._topology(config)
    expected = _flags(cached)
    first, second = protocol.exchange_hello(config), protocol.exchange_hello(config)
    assert len({id(e) for t in first.values() for e in t.entries.values()}) == 2
    owner, v = next(iter(expected))
    entry = first[owner].entries[v]
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.coop_status = not entry.coop_status
    first[owner].entries[v] = protocol.NeighborEntry(not entry.coop_status)
    for table in second.values():
        table.entries.clear()
    second.clear()
    third = protocol.exchange_hello(config)
    assert _flags(third) == _flags(cached) == expected
    assert _flags(first) == {**expected, (owner, v): not expected[(owner, v)]}
    for tables in (first, third, cached):
        assert all(type(e.coop_status) is bool for t in tables.values() for e in t.entries.values())


@pytest.mark.parametrize("metric", METRICS)
def test_hello_log_line_counts_match_the_reference(caplog, metric):
    config = seeded_scenario(300, 1, distance_metric=metric)
    verdicts = _reference_verdicts(config)
    caplog.set_level(logging.INFO, logger="coaodv_sim.protocol")
    protocol.exchange_hello(config)
    lines = [r.getMessage() for r in caplog.records if r.name == "coaodv_sim.protocol"]
    coop = sum(v.cooperative for v in verdicts.values())
    assert lines == [
        f"HELLO round: 300 nodes, {len(verdicts)} directed edges, {coop} cooperative"
    ]
    assert 0 < coop < len(verdicts)
