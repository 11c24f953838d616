"""Test-only references for the cooperative predicate, the range graph and
route discovery.

`coop_verdict` is the cooperative predicate clause by clause, computed here
from the distance and mobility primitives, so the runtime's boolean
`coopmath.is_cooperative` is checked against a separate implementation.
`brute_force_adjacency` is the all-pairs O(n^2) scan that the cell-list
build in `protocol._adjacency` must reproduce edge for edge, order included.
The route references are networkx searches over an explicit graph, so no
graph-walking code is shared with the protocol module. `bfs_shortest` and
the BFS route references scale to the benchmark's sizes; the exhaustive
simple-path oracle `cooperative_shortest` is meant for 12 nodes or fewer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import networkx as nx

from coaodv_sim.coopmath import distance, mobility
from coaodv_sim.model import NodeState, ScenarioConfig


@dataclass(frozen=True)
class CoopVerdict:
    """Outcome of the cooperative predicate, clause by clause."""

    energy_ok: bool
    range_ok: bool
    mobility_ok: bool

    @property
    def cooperative(self) -> bool:
        return self.energy_ok and self.range_ok and self.mobility_ok


def coop_verdict(
    candidate: NodeState, prev: NodeState, peers: Sequence[NodeState], config: ScenarioConfig
) -> CoopVerdict:
    """Each clause of "`candidate` is a cooperative next hop after `prev`":
    energy above the threshold (or at it, when the threshold is not strict),
    within range of `prev`, and moving no faster than any of `peers`."""
    if config.threshold_strict:
        energy_ok = candidate.energy > config.energy_threshold
    else:
        energy_ok = candidate.energy >= config.energy_threshold
    gap = distance(prev.position, candidate.position, config.distance_metric)
    rate = mobility(candidate.mobility_record, config.mobility_metric)
    return CoopVerdict(
        energy_ok=energy_ok,
        range_ok=gap <= config.transmission_range,
        mobility_ok=all(rate <= mobility(p.mobility_record, config.mobility_metric) for p in peers),
    )


def brute_force_adjacency(config: ScenarioConfig) -> dict[int, list[int]]:
    """In-range neighbor ids per node, from every pair of nodes."""
    ids = sorted(n.id for n in config.nodes)
    by_id = config.node_map()
    adj: dict[int, list[int]] = {i: [] for i in ids}
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            d = distance(by_id[u].position, by_id[v].position, config.distance_metric)
            if d <= config.transmission_range:
                adj[u].append(v)
                adj[v].append(u)
    return adj


def range_graph(config: ScenarioConfig) -> nx.Graph:
    graph = nx.Graph()
    for u, neighbors in brute_force_adjacency(config).items():
        graph.add_node(u)
        graph.add_edges_from((u, v) for v in neighbors)
    return graph


def bfs_shortest(source: int, dest: int, config: ScenarioConfig) -> int | None:
    """Exact minimum hop count on the range graph, or None if unreachable."""
    graph = range_graph(config)
    if source not in graph or dest not in graph:
        return None
    try:
        return nx.shortest_path_length(graph, source, dest)
    except nx.NetworkXNoPath:
        return None


def cooperative_shortest(source: int, dest: int, config: ScenarioConfig) -> int | None:
    """Minimum hop count over simple paths whose every intermediate is
    cooperative with respect to its predecessor, or None if no such path.

    Enumerates all simple paths (feasible for the test-scale node counts) and
    applies the cooperative predicate per path position, so peer-set-relative
    clauses are evaluated exactly as route discovery encounters them.
    """
    if source == dest:
        return 0 if any(n.id == source for n in config.nodes) else None
    graph = range_graph(config)
    if source not in graph or dest not in graph:
        return None
    by_id = config.node_map()
    best: int | None = None
    for path in nx.all_simple_paths(graph, source, dest):
        if best is not None and len(path) - 1 >= best:
            continue
        ok = True
        for i in range(1, len(path) - 1):
            prev = by_id[path[i - 1]]
            peers = [by_id[v] for v in graph.neighbors(path[i - 1])]
            if not coop_verdict(by_id[path[i]], prev, peers, config).cooperative:
                ok = False
                break
        if ok:
            best = len(path) - 1
    return best


def cooperative_edges(config: ScenarioConfig, graph: nx.Graph) -> nx.DiGraph:
    """u -> v for every range edge where v is cooperative with respect to u,
    its peers being all of u's range neighbors."""
    by_id = config.node_map()
    coop = nx.DiGraph()
    coop.add_nodes_from(graph)
    for u in graph:
        peers = [by_id[w] for w in graph[u]]
        for v in graph[u]:
            if coop_verdict(by_id[v], by_id[u], peers, config).cooperative:
                coop.add_edge(u, v)
    return coop


def lowest_id_shortest_path(graph, source: int, dest: int) -> tuple[int, ...] | None:
    """The lexicographically smallest minimum-hop path, or None if there is
    none: exact hop counts to `dest` from a networkx BFS, then the lowest
    successor id that is one hop closer at every step."""
    towards = graph.reverse(copy=False) if graph.is_directed() else graph
    hops = nx.single_source_shortest_path_length(towards, dest)
    if source not in hops:
        return None
    path = [source]
    while path[-1] != dest:
        cur = path[-1]
        successors = graph.successors(cur) if graph.is_directed() else graph.neighbors(cur)
        path.append(min(v for v in successors if hops.get(v) == hops[cur] - 1))
    return tuple(path)


def relay_graph(graph: nx.Graph, coop: nx.DiGraph, dest: int) -> nx.DiGraph:
    """u -> v for every hop a cooperative discovery toward `dest` may take:
    v is the destination, or v is cooperative with respect to u."""
    allowed = nx.DiGraph(coop)
    allowed.add_edges_from((u, dest) for u in graph[dest])
    return allowed


def cooperative_route(
    graph: nx.Graph, coop: nx.DiGraph, source: int, dest: int
) -> tuple[int, ...] | None:
    """Minimum-hop path over `relay_graph`; ties go to the lowest id."""
    return lowest_id_shortest_path(relay_graph(graph, coop, dest), source, dest)
