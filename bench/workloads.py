"""Seeded inputs for the benchmark workloads.

A workload is a scenario document plus a flow list and a seed count, built
from the workload seed alone: the same seed gives byte-identical files. The
program under test only ever sees the files written from these.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import networkx as nx

import reference

PAPER_SCENARIO = Path("scenarios") / "paper_table123.json"
DEFAULT_SEED = 1

# sparse-300: Manhattan range 20 on a square whose side puts the mean degree
# near 9. A share of the nodes are stationary relays with energy above the
# threshold, so cooperative routes exist; everything else moves a little.
SPARSE_NODES = 300
SPARSE_RANGE = 20
SPARSE_SIDE = 150
SPARSE_THRESHOLD = 500
RELAY_SHARE = 0.4
MAX_STEP_MILLI = 3000
# Flows are drawn among aodv-routable pairs at least this many hops apart;
# half can be routed by coaodv and half are refused, so both the success path
# and the NoCooperativeRoute path (two BFS runs) are timed.
SPARSE_MIN_HOPS = 4
SPARSE_FLOWS_EACH = 2
SPARSE_PACKETS = 50
SHARE_SAMPLE = 200
# paper-seeds: enough seeds that what the pass holds per row is a visible part
# of its peak memory (21.2 MB at 2000 seeds against 17.3 MB for one seed, and
# 17.7 MB at 250), so a report or streaming change can move peak_mem_mb.
PAPER_SEEDS = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    doc: dict
    flows: tuple[tuple[int, int, int], ...]
    seeds: int
    stats: dict

    def scenario_text(self) -> str:
        return json.dumps(self.doc, indent=1) + "\n"

    def seed_list(self) -> list[int]:
        return [self.doc["seed"] + i for i in range(self.seeds)]

    def argv(self, scenario: Path, out: Path) -> list[str]:
        flows = [f"{s}:{d}:{c}" for s, d, c in self.flows]
        return ["compare", str(scenario), "--flows", *flows, "--seeds", str(self.seeds),
                "--out", str(out)]


def _stats(g, coop, pairs) -> dict:
    routable = [p for p in pairs if reference.coop_hops(g, coop, *p) is not None]
    return {
        "nodes": g.number_of_nodes(),
        "edges": g.number_of_edges(),
        "mean_degree": 2 * g.number_of_edges() / g.number_of_nodes(),
        "coop_directed_edges": coop.number_of_edges(),
        "coop_routable_share": len(routable) / len(pairs),
    }


def _paper(root: Path, name: str, seed: int, drop: float, flows, seeds: int) -> Workload:
    doc = json.loads((root / PAPER_SCENARIO).read_text(encoding="utf-8"))
    doc["seed"] = seed
    doc["non_coop_drop_prob"] = drop
    ids = [n["id"] for n in doc["nodes"]]
    pairs = [(s, d) for s in ids for d in ids if s != d]
    return Workload(name, doc, flows, seeds, _stats(*reference.graphs(doc), pairs))


def sparse_doc(seed: int) -> dict:
    """n=300 scenario; coordinates are whole thousandths inside the area, so
    no rounding can push a node outside it."""
    rng = random.Random(seed)
    top = SPARSE_SIDE * 1000
    nodes = []
    for i in range(SPARSE_NODES):
        x, y = rng.randint(0, top), rng.randint(0, top)
        if rng.random() < RELAY_SHARE:
            energy, x2, y2 = rng.randint(SPARSE_THRESHOLD + 1, 2000), x, y
        else:
            energy = rng.randint(100, 2000)
            x2 = min(max(x + rng.randint(-MAX_STEP_MILLI, MAX_STEP_MILLI), 0), top)
            y2 = min(max(y + rng.randint(-MAX_STEP_MILLI, MAX_STEP_MILLI), 0), top)
        nodes.append(
            {"id": i, "pos_t1": [x / 1000, y / 1000], "pos_t2": [x2 / 1000, y2 / 1000],
             "energy": energy}
        )
    return {
        "nodes": nodes,
        "area": [SPARSE_SIDE, SPARSE_SIDE],
        "transmission_range": SPARSE_RANGE,
        "energy_threshold": SPARSE_THRESHOLD,
        "distance_metric": "manhattan",
        "mobility_metric": "euclidean_rate",
        "threshold_strict": True,
        "non_coop_drop_prob": 0.5,
        "seed": seed,
        "elapsed_time": 1,
    }


def sparse_flows(g, coop, seed: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(chosen flows, sampled candidate pairs), both aodv-routable."""
    rng = random.Random(f"flows-{seed}")
    routable, refused, sample = [], [], []
    for _ in range(100_000):
        if len(sample) >= SHARE_SAMPLE and min(len(routable), len(refused)) >= SPARSE_FLOWS_EACH:
            break
        src, dst = rng.sample(range(SPARSE_NODES), 2)
        if nx.single_source_shortest_path_length(g, src).get(dst, 0) < SPARSE_MIN_HOPS:
            continue
        sample.append((src, dst))
        coop_ok = reference.coop_hops(g, coop, src, dst) is not None
        (routable if coop_ok else refused).append((src, dst))
    else:
        raise RuntimeError(f"seed {seed}: could not find routable and refused flows")
    picked = [p for pair in zip(routable, refused) for p in pair][: 2 * SPARSE_FLOWS_EACH]
    return picked, sample[:SHARE_SAMPLE]


def build(name: str, seed: int, root: Path) -> Workload:
    if name == "paper-seeds":
        return _paper(root, name, seed, 0.5, ((0, 9, 100), (4, 9, 100)), PAPER_SEEDS)
    if name == "paper-longflow":
        return _paper(root, name, seed, 0.1, ((0, 9, 1_000_000), (4, 9, 1_000_000)), 2)
    if name == "sparse-300":
        doc = sparse_doc(seed)
        g, coop = reference.graphs(doc)
        picked, sample = sparse_flows(g, coop, seed)
        flows = tuple((s, d, SPARSE_PACKETS) for s, d in picked)
        return Workload(name, doc, flows, 2, _stats(g, coop, sample))
    raise KeyError(name)


NAMES = ("paper-seeds", "sparse-300", "paper-longflow")
