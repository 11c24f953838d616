"""Independent reference for checking `compare` output.

Everything here is computed from the scenario document the benchmark wrote,
with networkx and plain arithmetic; nothing is imported from coaodv_sim. The
range graph and the cooperative predicate are recomputed with the same float
operations the README specifies (Manhattan distance at the first epoch,
straight-line displacement rate, strict energy threshold), so the graphs are
exact, not approximate.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import networkx as nx

REPORT_HEADER = [
    "scenario",
    "protocol",
    "seed",
    "flow_src",
    "flow_dst",
    "hop_count",
    "packets_sent",
    "packets_delivered",
    "pdr",
    "route_discoveries",
]

# A delivered count further than this many standard deviations from the
# binomial mean fails the row. At 7 sigma a correct simulator trips it with
# probability below 1e-11 per row.
PDR_SIGMAS = 7.0


def _require_supported(doc: dict) -> None:
    # The workloads use only these settings; refuse anything else rather than
    # check it against the wrong predicate.
    if doc.get("distance_metric", "manhattan") != "manhattan":
        raise ValueError("reference supports only the manhattan distance metric")
    if doc.get("mobility_metric", "euclidean_rate") != "euclidean_rate":
        raise ValueError("reference supports only the euclidean_rate mobility metric")
    if doc.get("threshold_strict", True) is not True:
        raise ValueError("reference supports only a strict energy threshold")


def range_graph(doc: dict) -> nx.Graph:
    """Undirected graph of node pairs within range at the first epoch."""
    _require_supported(doc)
    r = doc["transmission_range"]
    nodes = doc["nodes"]
    g = nx.Graph()
    g.add_nodes_from(n["id"] for n in nodes)
    for i, a in enumerate(nodes):
        ax, ay = a["pos_t1"]
        for b in nodes[i + 1 :]:
            bx, by = b["pos_t1"]
            if abs(ax - bx) + abs(ay - by) <= r:
                g.add_edge(a["id"], b["id"])
    return g


def coop_digraph(doc: dict, g: nx.Graph) -> nx.DiGraph:
    """Directed edge u->v iff v is a cooperative next hop after u.

    v must hold energy strictly above the threshold and move no faster than
    any in-range neighbour of u. The predicate depends only on (u, v), so a
    BFS over this graph finds exactly the cooperative minimum-hop routes.
    """
    threshold = doc["energy_threshold"]
    elapsed = doc.get("elapsed_time", 1)
    by_id = {n["id"]: n for n in doc["nodes"]}
    speed = {
        i: math.hypot(n["pos_t1"][0] - n["pos_t2"][0], n["pos_t1"][1] - n["pos_t2"][1]) / elapsed
        for i, n in by_id.items()
    }
    dg = nx.DiGraph()
    dg.add_nodes_from(g)
    for u in g:
        if not g[u]:
            continue
        slowest = min(speed[p] for p in g[u])
        for v in g[u]:
            if by_id[v]["energy"] > threshold and speed[v] <= slowest:
                dg.add_edge(u, v)
    return dg


def graphs(doc: dict) -> tuple[nx.Graph, nx.DiGraph]:
    """The range graph and the cooperative-edge graph of a scenario."""
    g = range_graph(doc)
    return g, coop_digraph(doc, g)


def coop_hops(g: nx.Graph, coop: nx.DiGraph, source: int, dest: int) -> int | None:
    """Cooperative hop count, None if there is no cooperative route.

    The final hop into the destination is exempt, so a route is a BFS path
    over cooperative edges to any in-range neighbour of dest, plus one hop.
    """
    dist = nx.single_source_shortest_path_length(coop, source)
    return min((dist[u] + 1 for u in g[dest] if u in dist), default=None)


def aodv_path(g: nx.Graph, source: int, dest: int) -> tuple[int, ...]:
    """Lexicographically smallest minimum-hop path, the README's tie-break."""
    dist = nx.single_source_shortest_path_length(g, dest)
    path = [source]
    while path[-1] != dest:
        here = path[-1]
        path.append(min(v for v in g[here] if dist.get(v) == dist[here] - 1))
    return tuple(path)


@dataclass(frozen=True)
class FlowExpectation:
    aodv_hops: int
    aodv_keep: float  # probability that a packet survives the aodv route
    coaodv_hops: int | None


def expectations(doc: dict, flows) -> dict[tuple[int, int], FlowExpectation]:
    """What each (src, dst) flow must report under both protocols."""
    g, coop = graphs(doc)
    keep_per_drop = 1.0 - doc.get("non_coop_drop_prob", 1.0)
    out = {}
    for src, dst, _count in flows:
        path = aodv_path(g, src, dst)
        # zip pairs each intermediate in path[1:-1] with its predecessor
        droppable = sum(not coop.has_edge(a, b) for a, b in zip(path, path[1:-1]))
        out[(src, dst)] = FlowExpectation(
            aodv_hops=len(path) - 1,
            aodv_keep=keep_per_drop**droppable,
            coaodv_hops=coop_hops(g, coop, src, dst),
        )
    return out


def _row_ok(row: list[str], count: int, protocol: str, exp: FlowExpectation) -> bool:
    hop, sent, delivered, pdr, discoveries = row[5], int(row[6]), int(row[7]), row[8], row[9]
    if discoveries != "1":
        return False
    if protocol == "coaodv":
        if exp.coaodv_hops is None:
            return hop == "" and pdr == "" and sent == 0 and delivered == 0
        return hop == str(exp.coaodv_hops) and sent == delivered == count and pdr == "1.0"
    if hop != str(exp.aodv_hops) or sent != count or pdr != repr(delivered / sent):
        return False
    q = exp.aodv_keep
    return abs(delivered - count * q) <= PDR_SIGMAS * math.sqrt(count * q * (1 - q))


def check_report(
    csv_text: str, name: str, flows, seeds: list[int], expect: dict
) -> tuple[int, int]:
    """Check every report row; return (rows attempted, rows failed).

    Rows must come in `compare` order (seed, then aodv before coaodv, then
    flow order). A missing, extra or out-of-order row counts as failed.
    """
    rows = list(csv.reader(csv_text.splitlines()))
    wanted = [(seed, proto, f) for seed in seeds for proto in ("aodv", "coaodv") for f in flows]
    if not rows or rows[0] != REPORT_HEADER:
        return len(wanted), len(wanted)
    body = rows[1:]
    ok = 0
    for (seed, proto, (src, dst, count)), row in zip(wanted, body):
        try:
            key_ok = row[:5] == [name, proto, str(seed), str(src), str(dst)]
            ok += key_ok and _row_ok(row, count, proto, expect[(src, dst)])
        except (IndexError, ValueError, ZeroDivisionError):
            pass
    failed = len(wanted) - ok + max(0, len(body) - len(wanted))
    return len(wanted), min(failed, len(wanted))
