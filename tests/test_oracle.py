from .conftest import make_node, make_scenario
from .graph_reference import bfs_shortest, cooperative_shortest


def line_scenario(bridge_energy=1000.0):
    # 0 - 1 - 2 chain, node 1 is the only bridge
    return make_scenario(
        [
            make_node(0, 10, 10, energy=1000),
            make_node(1, 25, 10, energy=bridge_energy),
            make_node(2, 40, 10, energy=1000),
        ]
    )


def test_bfs_on_line():
    config = line_scenario()
    assert bfs_shortest(0, 2, config) == 2
    assert bfs_shortest(0, 1, config) == 1
    assert bfs_shortest(0, 0, config) == 0


def test_bfs_unreachable_is_none():
    config = make_scenario([make_node(0, 0, 0), make_node(1, 90, 90)])
    assert bfs_shortest(0, 1, config) is None


def test_paper_scenario_shortest(paper_scenario):
    assert bfs_shortest(0, 9, paper_scenario) == 4


def test_paper_scenario_has_no_cooperative_route(paper_scenario):
    # every 0->9 path must relay through N1 or N3 right after N2, and both
    # fail the energy clause under the strict 500 threshold
    assert cooperative_shortest(0, 9, paper_scenario) is None


def test_paper_scenario_cooperative_route_exists_elsewhere(paper_scenario):
    assert cooperative_shortest(4, 9, paper_scenario) == 2


def test_fully_cooperative_scenario_matches_bfs():
    # all stationary, all energized: the cooperative filter removes nothing
    nodes = [make_node(i, 10 + 15 * i, 10, energy=2000) for i in range(5)]
    config = make_scenario(nodes)
    for dest in range(1, 5):
        assert cooperative_shortest(0, dest, config) == bfs_shortest(0, dest, config)


def test_non_cooperative_bridge_blocks_all_paths():
    config = line_scenario(bridge_energy=100.0)
    assert bfs_shortest(0, 2, config) == 2
    assert cooperative_shortest(0, 2, config) is None


def test_cooperative_source_equals_dest():
    config = line_scenario()
    assert cooperative_shortest(1, 1, config) == 0


def test_cooperative_longer_detour_wins_over_blocked_shortcut():
    # 0 -> 3: direct middle node 1 is low energy; detour 0-2-4-3 is cooperative
    nodes = [
        make_node(0, 10, 10, energy=1000),
        make_node(1, 25, 10, energy=100),   # blocked bridge on the short path
        make_node(2, 20, 20, energy=1000),
        make_node(3, 40, 10, energy=1000),
        make_node(4, 35, 20, energy=1000),
    ]
    config = make_scenario(nodes)
    assert bfs_shortest(0, 3, config) == 2
    assert cooperative_shortest(0, 3, config) == 3
