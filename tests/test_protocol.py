import os
import random
import re
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

from coaodv_sim import protocol
from coaodv_sim.coopmath import DISTANCES
from coaodv_sim.errors import InternalError, NoCooperativeRoute, NoRoute, UnknownNode
from coaodv_sim.model import Route, load_scenario
from coaodv_sim.protocol import aodv_discover, coaodv_discover, completed_request, exchange_hello

from . import graph_reference
from .conftest import (
    PAPER_SCENARIO,
    dense_random_scenario,
    make_node,
    make_scenario,
    random_scenario,
    seeded_scenario,
)

# adjacency of the bundled 10-node scenario under Manhattan distance, r=20,
# positions taken at the first epoch; every edge checked by hand
PAPER_ADJACENCY = {
    0: {2, 3},
    1: {2, 4, 5, 6, 7},
    2: {0, 1, 3},
    3: {0, 2, 4},
    4: {1, 3, 5, 6, 7, 8},
    5: {1, 4, 6, 7, 8, 9},
    6: {1, 4, 5, 7, 8, 9},
    7: {1, 4, 5, 6, 8, 9},
    8: {4, 5, 6, 7, 9},
    9: {5, 6, 7, 8},
}


def test_hello_tables_match_hand_derived_adjacency(paper_scenario):
    tables = exchange_hello(paper_scenario)
    assert {owner: set(t.entries) for owner, t in tables.items()} == PAPER_ADJACENCY


def test_hello_entries_carry_neighbor_state(paper_scenario):
    tables = exchange_hello(paper_scenario)
    assert tables[0].entries[3].coop_status is False  # energy below the threshold
    assert tables[0].entries[2].coop_status is True


def test_hello_single_node_has_empty_table():
    tables = exchange_hello(make_scenario([make_node(0, 10, 10)]))
    assert tables[0].entries == {}


def test_aodv_paper_route(paper_scenario):
    route = aodv_discover(0, 9, paper_scenario)
    assert route.hop_count == 4
    assert route.path == (0, 2, 1, 5, 9)  # lexicographically smallest 4-hop path
    assert not route.fully_cooperative


def test_aodv_source_equals_dest(paper_scenario):
    route = aodv_discover(4, 4, paper_scenario)
    assert route.path == (4,)
    assert route.hop_count == 0


def test_aodv_no_route_for_isolated_pair():
    config = make_scenario([make_node(0, 0, 0), make_node(1, 99, 99)])
    with pytest.raises(NoRoute):
        aodv_discover(0, 1, config)


def test_unknown_node_rejected(paper_scenario):
    with pytest.raises(UnknownNode):
        aodv_discover(0, 42, paper_scenario)
    with pytest.raises(UnknownNode):
        coaodv_discover(42, 0, paper_scenario)
    with pytest.raises(UnknownNode):
        aodv_discover(42, 42, paper_scenario)


# values that equal, or name, a node id of the bundled scenario but are no int
NOT_INTS = [True, False, 4.0, 9.0, 9 + 0j, "4", None]


@pytest.mark.parametrize("discover", [aodv_discover, coaodv_discover])
@pytest.mark.parametrize("value", NOT_INTS, ids=repr)
def test_discovery_rejects_an_end_that_is_not_an_int(discover, value):
    config = load_scenario(PAPER_SCENARIO)  # a fresh memo
    _, memo = protocol._topology(config)
    for _ in range(2):  # before the int routes are memoized, and then on memo hits
        for args, name in (((value, 9), "source"), ((4, value), "destination")):
            message = f"^{name} must be an integer, got {re.escape(repr(value))}$"
            with pytest.raises(ValueError, match=message):
                discover(*args, config)
        assert all(type(s) is int and type(d) is int for _, s, d in memo)
        for source in (1, 4):
            path = aodv_discover(source, 9, config).path
            assert path[0] == source and {type(n) for n in path} == {int}
    assert coaodv_discover(4, 9, config).path == (4, 8, 9)


def test_coaodv_paper_flow_has_no_cooperative_route(paper_scenario):
    with pytest.raises(NoCooperativeRoute):
        coaodv_discover(0, 9, paper_scenario)


def test_coaodv_routes_around_non_cooperative_shortest_path(paper_scenario):
    route = coaodv_discover(4, 9, paper_scenario)
    assert route.path == (4, 8, 9)
    assert route.hop_count == 2
    assert route.fully_cooperative
    # baseline picks the lexicographically smaller 2-hop path through node 5
    assert aodv_discover(4, 9, paper_scenario).path == (4, 5, 9)


def test_coaodv_equals_aodv_when_everyone_cooperates():
    nodes = [make_node(i, 10 + 12 * i, 10, energy=2000) for i in range(6)]
    config = make_scenario(nodes)
    a = aodv_discover(0, 5, config)
    c = coaodv_discover(0, 5, config)
    assert a.hop_count == c.hop_count
    assert c.fully_cooperative


def test_adjacent_endpoints_ignore_cooperative_status():
    # middle node exists but source and destination are directly linked
    nodes = [
        make_node(0, 10, 10, energy=1000),
        make_node(1, 18, 10, 19, 15, energy=0),
        make_node(2, 25, 10, energy=0),  # destination, energy irrelevant
    ]
    route = coaodv_discover(0, 2, make_scenario(nodes))
    assert route.path == (0, 2)
    assert route.hop_count == 1


def test_coaodv_disconnected_graph_reports_no_route():
    config = make_scenario([make_node(0, 0, 0), make_node(1, 99, 99)])
    with pytest.raises(NoRoute):
        coaodv_discover(0, 1, config)


def test_completed_request_flags(paper_scenario):
    route = completed_request((0, 2, 1, 5, 9), paper_scenario)
    assert route == Route(path=(0, 2, 1, 5, 9), hop_count=4, route_stability=(True, False, False))


def test_completed_request_flags_an_out_of_range_hop_false(paper_scenario):
    # node 0's only neighbors are 2 and 3, so 0 -> 9 is no edge of the range graph
    assert sorted(exchange_hello(paper_scenario)[0].entries) == [2, 3]
    assert completed_request((0, 9, 5), paper_scenario) == Route((0, 9, 5), 2, (False,))


def test_discovery_is_deterministic(paper_scenario):
    assert aodv_discover(0, 9, paper_scenario) == aodv_discover(0, 9, paper_scenario)
    assert coaodv_discover(4, 9, paper_scenario) == coaodv_discover(4, 9, paper_scenario)


def _route_is_valid(route, config):
    by_id = config.node_map()
    for u, v in zip(route.path, route.path[1:]):
        d = DISTANCES[config.distance_metric](by_id[u].position, by_id[v].position)
        assert d <= config.transmission_range
    assert len(set(route.path)) == len(route.path)


def test_random_sweep_agrees_with_oracles():
    rng = random.Random(0xC0A0D5)
    checked_coop_routes = 0
    for i in range(120):
        config = random_scenario(rng) if i % 2 else dense_random_scenario(rng)
        ids = [n.id for n in config.nodes]
        source, dest = rng.sample(ids, 2)

        try:
            aodv_hops = aodv_discover(source, dest, config).hop_count
        except NoRoute:
            aodv_hops = None
        assert aodv_hops == graph_reference.bfs_shortest(source, dest, config)

        try:
            route = coaodv_discover(source, dest, config)
            coaodv_hops = route.hop_count
        except (NoRoute, NoCooperativeRoute):
            route, coaodv_hops = None, None
        assert coaodv_hops == graph_reference.cooperative_shortest(source, dest, config)

        if route is not None:
            checked_coop_routes += 1
            _route_is_valid(route, config)
            assert route.fully_cooperative
            if aodv_hops is not None:
                assert route.hop_count >= aodv_hops
            assert completed_request(route.path, config) == route
            # no intermediate may sit at or below the strict energy threshold
            by_id = config.node_map()
            for node_id in route.path[1:-1]:
                assert by_id[node_id].energy > config.energy_threshold
    assert checked_coop_routes > 0


def test_request_invariants_hold_on_random_discoveries():
    rng = random.Random(7)
    for _ in range(40):
        config = random_scenario(rng)
        ids = [n.id for n in config.nodes]
        source, dest = rng.sample(ids, 2)
        try:
            route = aodv_discover(source, dest, config)
        except NoRoute:
            continue
        assert completed_request(route.path, config) == route
        assert route.hop_count == len(route.path) - 1
        assert len(set(route.path)) == len(route.path)
        assert len(route.route_stability) == len(route.path[1:-1])


@pytest.mark.parametrize("n", [50, 300, 1000])
def test_routes_match_networkx_reference_at_scale(n):
    config = seeded_scenario(n, seed=5)
    graph = graph_reference.range_graph(config)
    coop = graph_reference.cooperative_edges(config, graph)
    rng = random.Random(n)
    outcomes = set()
    for _ in range(40):
        source, dest = rng.sample(range(n), 2)
        plain = graph_reference.lowest_id_shortest_path(graph, source, dest)
        try:
            route = aodv_discover(source, dest, config)
        except NoRoute:
            route = None
        assert (route and route.path) == plain
        if plain is not None:
            assert route.hop_count == len(plain) - 1

        expected = graph_reference.cooperative_route(graph, coop, source, dest)
        try:
            route = coaodv_discover(source, dest, config)
            outcomes.add("routed")
        except NoCooperativeRoute:
            route = None
            outcomes.add("refused")
            assert plain is not None
        except NoRoute:
            route = None
            assert plain is None
        assert (route and route.path) == expected
        if expected is not None:
            assert route.hop_count == len(expected) - 1
    assert outcomes == {"routed", "refused"}


@pytest.mark.parametrize("n", [50, 300])
def test_search_stops_at_the_source_and_keeps_every_route(n):
    config = seeded_scenario(n, seed=2)
    graph = graph_reference.range_graph(config)
    coop = graph_reference.cooperative_edges(config, graph)
    tables = exchange_hello(config)
    rng = random.Random(f"early-stop-{n}")
    seen = set()
    for _ in range(30):
        source, dest = rng.sample(range(n), 2)
        for cooperative, discover in ((False, aodv_discover), (True, coaodv_discover)):
            if cooperative:
                relays = graph_reference.relay_graph(graph, coop, dest)
                full = nx.single_source_shortest_path_length(relays.reverse(copy=False), dest)
                expected = graph_reference.cooperative_route(graph, coop, source, dest)
            else:
                full = nx.single_source_shortest_path_length(graph, dest)
                expected = graph_reference.lowest_id_shortest_path(graph, source, dest)
            hops = protocol._hops_to(source, dest, tables, cooperative)
            assert hops.items() <= full.items()
            if source in full:
                assert source in hops
                assert {v for v, h in full.items() if h < full[source]} <= hops.keys()
                seen.add("stopped early" if len(hops) < len(full) else "searched all")
            else:
                assert hops == full  # no route: the whole reachable part is searched
                seen.add("unreachable")
            try:
                path = discover(source, dest, config).path
            except (NoRoute, NoCooperativeRoute):
                path = None
            assert path == expected
    assert {"stopped early", "unreachable"} <= seen


@pytest.mark.parametrize("discover", [aodv_discover, coaodv_discover])
def test_discovery_on_a_line_searches_only_up_to_the_source(monkeypatch, discover):
    # 0-1-...-9, ten units apart at range 10: every node has at most two neighbors
    config = make_scenario(
        [make_node(i, 10 * i, 50, energy=900) for i in range(10)], transmission_range=10.0
    )
    searched = []
    search = protocol._hops_to
    monkeypatch.setattr(
        protocol, "_hops_to", lambda *args: searched.append(search(*args)) or searched[-1]
    )
    assert discover(3, 0, config).path == (3, 2, 1, 0)
    assert searched == [{0: 0, 1: 1, 2: 2, 3: 3}]
    searched.clear()  # an adjacent source stops the search at its first level
    assert discover(1, 0, config).path == (1, 0)
    assert searched == [{0: 0, 1: 1}]


def test_cooperative_self_check_raises_a_named_error(monkeypatch):
    def all_refused(path, config):
        return Route(path, len(path) - 1, (False,) * (len(path) - 2))

    config = load_scenario(PAPER_SCENARIO)  # a fresh object: no route memoized yet
    monkeypatch.setattr(protocol, "completed_request", all_refused)
    with pytest.raises(InternalError):
        coaodv_discover(4, 9, config)


def test_cooperative_self_check_survives_optimized_mode():
    script = (
        "from coaodv_sim import protocol\n"
        "from coaodv_sim.errors import InternalError\n"
        "from coaodv_sim.model import Route, load_scenario\n"
        f"config = load_scenario({str(PAPER_SCENARIO)!r})\n"
        "protocol.completed_request = lambda path, config: Route(\n"
        "    path, len(path) - 1, (False,) * (len(path) - 2))\n"
        "try:\n"
        "    protocol.coaodv_discover(4, 9, config)\n"
        "except InternalError:\n"
        "    print('raised')\n"
    )
    src = Path(protocol.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"
