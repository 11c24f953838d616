"""Route discovery: baseline shortest-hop flooding and the cooperative variant.

Flooding is modeled as deterministic level expansion over the range graph
(timing-free, hop-count-equivalent to per-message queues). Tie-breaks are
lowest next-hop id, which yields the lexicographically smallest minimum-hop
path. The cooperative variant only traverses an intermediate when it passes
the cooperative predicate with respect to its predecessor; endpoints are
exempt. The destination picks the lowest-hop fully-cooperative path.
"""

from __future__ import annotations

import math
import sys
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .coopmath import distance, is_cooperative, mobility_rates
from .errors import (
    EndpointMismatch,
    InternalError,
    NoCooperativeRoute,
    NoRoute,
    UnknownNode,
)
from .model import Route, RouteRequest, ScenarioConfig


@dataclass(frozen=True)
class NeighborEntry:
    coop_status: bool


@dataclass(frozen=True)
class NeighborTable:
    owner: int
    entries: Mapping[int, NeighborEntry]


@dataclass(frozen=True)
class RouteReply:
    """Destination's answer, carried back along the chosen path reversed."""

    route: Route
    reply_path: tuple[int, ...]


# Cells are a hair wider than the range: a pair that passes the final
# `distance <= range` test is then at most one cell apart on each axis even
# after rounding in `coordinate / width`. Capping the cells per axis keeps
# that rounding (and the index itself) bounded when the range is tiny.
_CELL_MARGIN = 1 + 2**-20
_MAX_CELLS = 2**30


def _adjacency(config: ScenarioConfig) -> dict[int, list[int]]:
    """In-range neighbor ids per node, sorted for deterministic iteration.

    Cell lists: nodes are binned into square cells at least one range wide,
    and each node is tested only against the 3x3 block of cells around it,
    so the build costs O(n * degree) instead of O(n^2).
    """
    pos = {n.id: n.position for n in config.nodes}
    ids = sorted(pos)
    metric, reach = config.distance_metric, config.transmission_range
    coords = [c for p in pos.values() for c in (p.x, p.y)]
    extent = max(map(abs, coords), default=0.0)
    width = max(reach, extent / _MAX_CELLS, sys.float_info.min) * _CELL_MARGIN
    if width < math.inf and all(map(math.isfinite, coords)):
        home = {u: (math.floor(pos[u].x / width), math.floor(pos[u].y / width)) for u in ids}
    else:  # a non-finite value: one cell for all nodes, i.e. the all-pairs scan
        home = dict.fromkeys(ids, (0, 0))
    cells: dict[tuple[int, int], list[int]] = {}
    for u in ids:
        cells.setdefault(home[u], []).append(u)

    adj: dict[int, list[int]] = {u: [] for u in ids}
    for u in ids:
        cx, cy = home[u]
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for v in cells.get((cx + dx, cy + dy), ()):
                    # each pair once, smaller id first, so edges match an all-pairs scan
                    if v > u and distance(pos[u], pos[v], metric) <= reach:
                        adj[u].append(v)
                        adj[v].append(u)
    for neighbors in adj.values():
        neighbors.sort()
    return adj


def exchange_hello(config: ScenarioConfig) -> dict[int, NeighborTable]:
    """One beacon round: every node learns its in-range neighbors and whether
    each is cooperative with respect to it.

    Each node's mobility is computed once per round. Only an owner's least
    mobile neighbor sets the mobility bar, so it stands in for all the peers.
    """
    adj = _adjacency(config)
    by_id = config.node_map()
    rates = mobility_rates((by_id[u] for u, nbrs in adj.items() if nbrs), config.mobility_metric)
    tables: dict[int, NeighborTable] = {}
    for owner, neighbor_ids in adj.items():
        bar = [by_id[min(neighbor_ids, key=rates.__getitem__)]] if neighbor_ids else []
        entries = {
            v: NeighborEntry(
                is_cooperative(by_id[v], by_id[owner], bar, config, rates).cooperative
            )
            for v in neighbor_ids
        }
        tables[owner] = NeighborTable(owner=owner, entries=entries)
    return tables


# One-slot cache of the last scenario's topology, keyed by the identity of its
# ScenarioConfig through a weak reference, so it never keeps a config alive.
# Discovery never changes the topology it holds; exchange_hello's callers get
# fresh tables. Beside the topology sit the routes resolved on it: discovery
# depends on the topology alone, so each (protocol, source, dest) is resolved once.
_topology_cache: (
    tuple[weakref.ref, dict[int, list[int]], dict[int, NeighborTable], dict[tuple, object]] | None
) = None


def _topology(
    config: ScenarioConfig,
) -> tuple[dict[int, list[int]], dict[int, NeighborTable], dict[tuple, object]]:
    """The scenario's adjacency and HELLO tables, built once per config
    object, and the memo of the routes discovered on them."""
    global _topology_cache
    cached = _topology_cache
    if cached is not None and cached[0]() is config:
        return cached[1:]
    tables = exchange_hello(config)
    # HELLO tables list each owner's neighbors in adjacency order
    adj = {owner: list(table.entries) for owner, table in tables.items()}
    routes: dict[tuple, object] = {}
    _topology_cache = (weakref.ref(config), adj, tables, routes)
    return adj, tables, routes


def _check_endpoints(source: int, dest: int, adj: dict[int, list[int]]) -> None:
    if source not in adj:
        raise UnknownNode(source)
    if dest not in adj:
        raise UnknownNode(dest)


def _hops_to(target: int, adj: dict[int, list[int]], allowed=None) -> dict[int, int]:
    """Hop counts toward `target`; edges may be filtered by allowed(u, v)."""
    dist = {target: 0}
    frontier = deque([target])
    while frontier:
        v = frontier.popleft()
        for u in adj[v]:
            if u not in dist and (allowed is None or allowed(u, v)):
                dist[u] = dist[v] + 1
                frontier.append(u)
    return dist


def _greedy_path(source: int, dest: int, adj, hops: dict[int, int], allowed=None) -> tuple[int, ...]:
    """Walk from source choosing the lowest next-hop id that still lies on a
    minimum-hop path; yields the lexicographically smallest such path."""
    path = [source]
    cur = source
    while cur != dest:
        cur = min(
            v
            for v in adj[cur]
            if hops.get(v, -1) == hops[cur] - 1 and (allowed is None or allowed(cur, v))
        )
        path.append(cur)
    return tuple(path)


def completed_request(path: tuple[int, ...], config: ScenarioConfig) -> RouteRequest:
    """The discovery packet as the destination sees it: full path plus the
    cooperative flag each relaying intermediate appended (False for a hop
    that is out of range)."""
    _, tables, _ = _topology(config)
    flags = []
    for prev, cur in zip(path, path[1:-1]):
        entry = tables[prev].entries.get(cur)
        flags.append(entry is not None and entry.coop_status)
    return RouteRequest(
        source=path[0],
        destination=path[-1],
        path=tuple(path),
        hop_count=len(path) - 1,
        route_stability=tuple(flags),
    )


def _route_from_path(path: tuple[int, ...], config: ScenarioConfig) -> Route:
    request = completed_request(path, config)
    return Route(request.path, request.hop_count, request.route_stability)


def _resolved(key: tuple[str, int, int], routes: dict, resolve) -> Route:
    """The route `resolve()` gives for key = (protocol, source, dest), resolved
    on the first call and memoized with the topology. A memoized failure is
    raised as a fresh exception of its class: re-raising one stored instance
    would grow its traceback on every raise."""
    outcome = routes.get(key)
    if outcome is None:
        try:
            outcome = resolve()
        except (NoRoute, NoCooperativeRoute) as exc:
            outcome = type(exc)
        routes[key] = outcome
    if isinstance(outcome, Route):
        return outcome
    raise outcome(key[1], key[2])


def aodv_discover(source: int, dest: int, config: ScenarioConfig) -> Route:
    """Minimum-hop route over the range graph (first-arrival flood semantics)."""
    adj, _, routes = _topology(config)
    _check_endpoints(source, dest, adj)

    def resolve() -> Route:
        if source == dest:
            return Route(path=(source,), hop_count=0, route_stability=())
        hops = _hops_to(dest, adj)
        if source not in hops:
            raise NoRoute(source, dest)
        return _route_from_path(_greedy_path(source, dest, adj, hops), config)

    return _resolved(("aodv", source, dest), routes, resolve)


def coaodv_discover(source: int, dest: int, config: ScenarioConfig) -> Route:
    """Minimum-hop route whose every intermediate is cooperative.

    Relaying intermediates append their cooperative flag; the destination
    drops candidate paths containing any CO=0 intermediate and answers the
    lowest-hop survivor. Source and destination themselves are never filtered.
    """
    adj, tables, routes = _topology(config)
    _check_endpoints(source, dest, adj)

    def allowed(u: int, v: int) -> bool:
        # Directed: u relays to v. Final hops into the destination are exempt.
        return v == dest or tables[u].entries[v].coop_status

    def resolve() -> Route:
        if source == dest:
            return Route(path=(source,), hop_count=0, route_stability=())
        coop_hops = _hops_to(dest, adj, allowed=allowed)
        if source not in coop_hops:
            if source not in _hops_to(dest, adj):
                raise NoRoute(source, dest)
            raise NoCooperativeRoute(source, dest)
        route = _route_from_path(
            _greedy_path(source, dest, adj, coop_hops, allowed=allowed), config
        )
        if not route.fully_cooperative:
            raise InternalError(f"cooperative discovery chose non-cooperative path {route.path}")
        return route

    return _resolved(("coaodv", source, dest), routes, resolve)


def build_route_reply(chosen: Route, original: RouteRequest) -> RouteReply:
    """Answer traveling the chosen path in reverse, destination back to source."""
    if (chosen.source, chosen.destination) != (original.source, original.destination):
        raise EndpointMismatch(
            (chosen.source, chosen.destination), (original.source, original.destination)
        )
    return RouteReply(route=chosen, reply_path=tuple(reversed(chosen.path)))
