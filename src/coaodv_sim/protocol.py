"""Route discovery: baseline shortest-hop flooding and the cooperative variant.

Flooding is modeled as deterministic level expansion over the range graph
(timing-free, hop-count-equivalent to per-message queues). Tie-breaks are
lowest next-hop id, which yields the lexicographically smallest minimum-hop
path. The cooperative variant only traverses an intermediate when it passes
the cooperative predicate with respect to its predecessor; endpoints are
exempt. The destination picks the lowest-hop fully-cooperative path.
"""

from __future__ import annotations

import logging
import math
import sys
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

from .coopmath import DISTANCES, is_cooperative, mobility_rates
from .errors import InternalError, NoCooperativeRoute, NoRoute, UnknownNode, quoted
from .model import Route, ScenarioConfig

log = logging.getLogger("coaodv_sim.protocol")


@dataclass(frozen=True)
class NeighborEntry:
    coop_status: bool


# Every table shares these two frozen entries, one per flag value.
_ENTRY = {flag: NeighborEntry(flag) for flag in (False, True)}


@dataclass(frozen=True)
class NeighborTable:
    entries: Mapping[int, NeighborEntry]


# Cells are a hair wider than the range: a pair that passes the final
# `distance <= range` test is then at most one cell apart on each axis even
# after rounding in `coordinate / width`. Capping the cells per axis keeps
# that rounding (and the index itself) bounded when the range is tiny.
_CELL_MARGIN = 1 + 2**-20
_MAX_CELLS = 2**30
# Half of the eight neighbor cells: with a cell itself, each pair of nearby
# cells is visited once, from whichever of the two holds the other forward.
_FORWARD = ((1, -1), (1, 0), (1, 1), (0, 1))


def _adjacency(config: ScenarioConfig) -> dict[int, list[int]]:
    """In-range neighbor ids per node, sorted for deterministic iteration.

    Cell lists: nodes are binned into square cells at least one range wide,
    and each cell is scanned against itself and its four forward neighbor
    cells (the half-shell scan), so each unordered pair of nodes in the same
    or adjacent cells is tested exactly once and the build costs O(n * degree)
    instead of O(n^2). A pair may be measured larger id first; both distance
    functions are symmetric, so the edges match an all-pairs scan.
    """
    pos = {n.id: n.position for n in config.nodes}
    ids = sorted(pos)
    dist, reach = DISTANCES[config.distance_metric], config.transmission_range
    # coordinates lie in [0, side]; an inf width (a range near float max) is one cell
    width = max(reach, max(config.area) / _MAX_CELLS, sys.float_info.min) * _CELL_MARGIN
    cells: dict[tuple[int, int], list[int]] = {}
    for u in ids:
        cells.setdefault((math.floor(pos[u].x / width), math.floor(pos[u].y / width)), []).append(u)

    adj: dict[int, list[int]] = {u: [] for u in ids}
    for (cx, cy), members in cells.items():
        # the cell's own members, then those of its forward cells: member k is
        # tested against everything after it
        block = members + [v for dx, dy in _FORWARD for v in cells.get((cx + dx, cy + dy), ())]
        for k, u in enumerate(members, 1):
            pu, near = pos[u], adj[u]
            for v in block[k:]:
                if dist(pu, pos[v]) <= reach:
                    near.append(v)
                    adj[v].append(u)
    for neighbors in adj.values():
        neighbors.sort()
    return adj


def exchange_hello(config: ScenarioConfig) -> dict[int, NeighborTable]:
    """One beacon round: every node learns its in-range neighbors and whether
    each is cooperative with respect to it.

    Each node's mobility is computed once per round. Only an owner's least
    mobile neighbor sets the mobility bar, so it stands in for all the peers.
    Every flag starts False, and the predicate is asked only for a neighbor
    that meets the bar: for any other, its mobility clause fails by the same
    comparison, `rate <= bar`, so the flag stays False. A config is checked
    when it is built, so no rate is NaN. Each table lists its neighbors in
    adjacency order.

    At the bar a verdict depends on the candidate alone, so it is asked once
    per candidate per round, at its first edge that meets a bar, and reused
    for every later owner. This is exact: the range clause holds, because the
    candidate comes from `_adjacency` and both distance functions are exactly
    symmetric; the mobility clause passes, because it makes the comparison
    against the peer set `[bar]` that the code has just made; and the energy
    clause reads only the candidate.
    """
    adj = _adjacency(config)
    by_id = config.node_map()
    rates = mobility_rates((by_id[u] for u, nbrs in adj.items() if nbrs), config.mobility_metric)
    tables: dict[int, NeighborTable] = {}
    at_bar: dict[int, NeighborEntry] = {}  # this round's entry of each candidate at a bar
    for owner, neighbor_ids in adj.items():
        entries = dict.fromkeys(neighbor_ids, _ENTRY[False])
        if neighbor_ids:
            bar = min(neighbor_ids, key=rates.__getitem__)
            low, prev, peers = rates[bar], by_id[owner], [by_id[bar]]
            for v in neighbor_ids:
                if rates[v] <= low:
                    entry = at_bar.get(v)
                    if entry is None:
                        verdict = is_cooperative(by_id[v], prev, peers, config, rates)
                        entry = at_bar[v] = _ENTRY[verdict]
                    entries[v] = entry
        tables[owner] = NeighborTable(entries=entries)
    if log.isEnabledFor(logging.INFO):
        flags = [e.coop_status for t in tables.values() for e in t.entries.values()]
        counts = len(tables), len(flags), sum(flags)
        log.info("HELLO round: %d nodes, %d directed edges, %d cooperative", *counts)
    return tables


def _topology(config: ScenarioConfig) -> tuple[dict[int, NeighborTable], dict[tuple, object]]:
    """The scenario's HELLO tables, built once per config object, and the memo
    of the routes and seed-invariant runs resolved on them (see sim.run). The
    pair is set as a frozen dataclass's `__init__` sets a field, but is no field:
    equality, hashing, repr and `dataclasses.replace` never see it, and it is
    freed with the config. Touching `__dict__` slows CPython 3.11-3.12 reads."""
    try:
        return config._topology
    except AttributeError:
        pass
    topology = exchange_hello(config), {}
    object.__setattr__(config, "_topology", topology)
    return topology


def _check_endpoints(source: int, dest: int, tables: dict[int, NeighborTable]) -> None:
    if source not in tables:
        raise UnknownNode(source)
    if dest not in tables:
        raise UnknownNode(dest)


def _relays(tables: dict[int, NeighborTable], u: int, v: int, dest: int) -> bool:
    """Whether u may hand a cooperative discovery on to v. Directed: v must be
    cooperative with respect to u, except as the destination, which is exempt."""
    return v == dest or tables[u].entries[v].coop_status


def _hops_to(
    source: int, target: int, tables: dict[int, NeighborTable], cooperative: bool
) -> dict[int, int]:
    """Hop counts toward `target`, over cooperative relays only if `cooperative`.

    The search grows outward from `target` and stops once `source`, a node
    other than `target`, has its count, as a request flood ends where it meets
    the source: every node nearer `target` than `source` then has its final
    count, and farther ones may be missing."""
    dist = {target: 0}
    frontier = deque([target])
    while frontier:
        v = frontier.popleft()
        for u in tables[v].entries:
            if u not in dist and (not cooperative or _relays(tables, u, v, target)):
                dist[u] = dist[v] + 1
                if u == source:
                    return dist
                frontier.append(u)
    return dist


def _greedy_path(
    source: int, dest: int, tables: dict[int, NeighborTable], hops: dict[int, int], cooperative: bool
) -> tuple[int, ...]:
    """Walk from source choosing the lowest next-hop id that still lies on a
    minimum-hop path; yields the lexicographically smallest such path. Every
    step reads only nodes nearer dest than source, all of which `hops` holds."""
    path = [source]
    cur = source
    while cur != dest:
        cur = min(
            v
            for v in tables[cur].entries
            if hops.get(v, -1) == hops[cur] - 1
            and (not cooperative or _relays(tables, cur, v, dest))
        )
        path.append(cur)
    return tuple(path)


def completed_request(path: tuple[int, ...], config: ScenarioConfig) -> Route:
    """The route as the destination sees the discovery packet: full path plus
    the cooperative flag each relaying intermediate appended (False for a hop
    that is out of range)."""
    tables, _ = _topology(config)
    flags = []
    for prev, cur in zip(path, path[1:-1]):
        entry = tables[prev].entries.get(cur)
        flags.append(entry is not None and entry.coop_status)
    return Route(path=tuple(path), hop_count=len(path) - 1, route_stability=tuple(flags))


def _discover(source: int, dest: int, config: ScenarioConfig, cooperative: bool) -> Route:
    """The route from source to dest, resolved on the first call and memoized
    with the topology. A memoized failure is raised as a fresh exception of its
    class: re-raising one stored instance would grow its traceback on every raise.
    A refused cooperative discovery is a `NoCooperativeRoute` if the plain
    discovery of the same pair, memoized too, finds a route, else a `NoRoute`.
    The endpoints are checked only when a key is first resolved: an outcome is
    stored only after its check passed, so an unknown node never gets a key and
    is an `UnknownNode` on every call. An end that is not exactly an `int` is
    a `ValueError` on every call, memo hit or not: `True` or `4.0` would else
    be served, or stored as, the route of the int it equals."""
    if type(source) is not int or type(dest) is not int:
        name, value = ("source", source) if type(source) is not int else ("destination", dest)
        raise ValueError(f"{name} must be an integer, got {quoted(value)}")
    tables, memo = _topology(config)
    key = (cooperative, source, dest)
    outcome = memo.get(key)
    if outcome is None:
        _check_endpoints(source, dest, tables)
        if source == dest:
            outcome = Route(path=(source,), hop_count=0, route_stability=())
        elif source in (hops := _hops_to(source, dest, tables, cooperative)):
            path = _greedy_path(source, dest, tables, hops, cooperative)
            outcome = completed_request(path, config)
            if cooperative and not outcome.fully_cooperative:
                raise InternalError(f"cooperative discovery chose non-cooperative path {path}")
        elif cooperative:
            try:
                _discover(source, dest, config, False)
            except NoRoute:
                outcome = NoRoute
            else:
                outcome = NoCooperativeRoute
        else:
            outcome = NoRoute
        memo[key] = outcome
    if type(outcome) is Route:  # else NoRoute or NoCooperativeRoute
        return outcome
    raise outcome(source, dest)


def aodv_discover(source: int, dest: int, config: ScenarioConfig) -> Route:
    """Minimum-hop route over the range graph (first-arrival flood semantics)."""
    return _discover(source, dest, config, False)


def coaodv_discover(source: int, dest: int, config: ScenarioConfig) -> Route:
    """Minimum-hop route whose every intermediate is cooperative.

    Relaying intermediates append their cooperative flag; the destination
    drops candidate paths containing any CO=0 intermediate and answers the
    lowest-hop survivor. Source and destination themselves are never filtered.
    """
    return _discover(source, dest, config, True)
