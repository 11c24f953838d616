"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:
run `pytest tests/test_acceptance.py -v -s`.
"""

import dataclasses
import math
import random
import time
from contextlib import contextmanager

import pytest

from coaodv_sim import sim
from coaodv_sim.classifier import classify_network
from coaodv_sim.cli import main
from coaodv_sim.coopmath import (
    composite_score,
    has_comm_capability,
    manhattan_distance,
    mobility,
)
from coaodv_sim.errors import NoCooperativeRoute, NoRoute
from coaodv_sim.model import (
    MobilityMetric,
    MobilityRecord,
    NetworkType,
    Position,
    WeightProfile,
)
from coaodv_sim.protocol import aodv_discover, coaodv_discover, exchange_hello

from . import graph_reference
from .conftest import PAPER_SCENARIO, dense_random_scenario, random_scenario


@contextmanager
def report(number: int, name: str):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    else:
        print(f"[criterion {number}] {name}: PASS")


# -- 1: weight profiles map to their network types ---------------------------


def test_criterion_1_network_type_mapping():
    with report(1, "canonical weight profiles label all three network types"):
        cases = [
            ((0.5, 0.25, 0.25), NetworkType.DISTANCE_SENSITIVE),
            ((0.25, 0.5, 0.25), NetworkType.MOBILITY_SENSITIVE),
            ((0.25, 0.25, 0.5), NetworkType.ENERGY_SENSITIVE),
        ]
        for weights, expected in cases:
            assert classify_network(WeightProfile(*weights)).network_type is expected


# -- 2: bundled mobility records reproduce under both rate modes -------------

MOBILITY_TABLE = [
    # (pos_t1, pos_t2, manhattan_rate, euclidean_rate)
    ((10, 10), (10, 10), 0.0, 0.0),
    ((20, 30), (20, 31), 1.0, 1.0),
    ((20, 10), (20, 10), 0.0, 0.0),
    ((30, 10), (34, 10), 4.0, 4.0),
    ((30, 30), (33, 30), 3.0, 3.0),
    ((30, 40), (31, 40), 1.0, 1.0),
    ((35, 35), (38, 38), 6.0, math.sqrt(18)),  # the one diagonal mover
    ((40, 30), (44, 30), 4.0, 4.0),
    ((40, 40), (40, 40), 0.0, 0.0),
    ((45, 40), (46, 40), 1.0, 1.0),
]


def test_criterion_2_mobility_table_reproduction():
    with report(2, "all ten mobility records reproduce (10/10 axis rate, 9/10 + sqrt(18) displacement rate)"):
        euclidean_exact = 0
        for p1, p2, manhattan_expected, euclidean_expected in MOBILITY_TABLE:
            rec = MobilityRecord(Position(*p1), Position(*p2), elapsed=1.0)
            assert mobility(rec, MobilityMetric.MANHATTAN_RATE) == manhattan_expected
            value = mobility(rec, MobilityMetric.EUCLIDEAN_RATE)
            assert abs(value - euclidean_expected) <= 1e-9
            if value == manhattan_expected:
                euclidean_exact += 1
        assert euclidean_exact == 9  # the diagonal record disagrees between modes


# -- 3: neighbor graph of the bundled scenario -------------------------------

# hand-derived from pairwise first-epoch Manhattan distances against r=20
GOLDEN_ADJACENCY = {
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


def test_criterion_3_neighbor_graph(paper_scenario):
    with report(3, "HELLO exchange reproduces the hand-derived adjacency edge-for-edge"):
        tables = exchange_hello(paper_scenario)
        derived = {owner: set(table.entries) for owner, table in tables.items()}
        assert derived == GOLDEN_ADJACENCY
        assert derived[0] == {2, 3}


# -- 4 & 5: random sweep against the oracles ---------------------------------


def _sweep(rng, generator, count):
    results = []
    for _ in range(count):
        config = generator(rng)
        ids = [n.id for n in config.nodes]
        source, dest = rng.sample(ids, 2)

        try:
            aodv_hops = aodv_discover(source, dest, config).hop_count
        except NoRoute:
            aodv_hops = None

        coaodv_error = None
        try:
            coaodv_hops = coaodv_discover(source, dest, config).hop_count
        except NoRoute:
            coaodv_hops, coaodv_error = None, "no_route"
        except NoCooperativeRoute:
            coaodv_hops, coaodv_error = None, "no_cooperative_route"

        results.append(
            {
                "aodv": aodv_hops,
                "coaodv": coaodv_hops,
                "coaodv_error": coaodv_error,
                "bfs": graph_reference.bfs_shortest(source, dest, config),
                "coop": graph_reference.cooperative_shortest(source, dest, config),
            }
        )
    return results


@pytest.fixture(scope="module")
def random_sweep():
    rng = random.Random(20260810)
    started = time.monotonic()
    # the stated sweep shape, plus an equally sized clustered variant that
    # actually produces multi-hop routes and cooperative detours
    results = _sweep(rng, random_scenario, 500)
    dense = _sweep(rng, dense_random_scenario, 500)
    elapsed = time.monotonic() - started
    return results, dense, elapsed


def test_criterion_4_oracle_equivalence(random_sweep):
    results, dense, elapsed = random_sweep
    with report(4, f"2x500-scenario sweep agrees with both oracles ({elapsed:.1f}s)"):
        assert len(results) == 500 and len(dense) == 500
        for row in results + dense:
            assert row["aodv"] == row["bfs"]
            assert row["coaodv"] == row["coop"]
            if row["coaodv_error"] == "no_route":
                assert row["bfs"] is None
            if row["coaodv_error"] == "no_cooperative_route":
                assert row["bfs"] is not None and row["coop"] is None
        # the sweeps must exercise routable, filtered, and unroutable outcomes
        assert any(r["coaodv"] is not None for r in results)
        assert any(r["coaodv"] is None for r in results)
        assert any(r["coaodv_error"] == "no_cooperative_route" for r in dense)
        assert any(r["coaodv"] is not None and r["coaodv"] > 1 for r in dense)
        assert elapsed < 60.0


def test_criterion_5_filtering_monotonicity(random_sweep):
    results, dense, _ = random_sweep
    with report(5, "cooperative filtering never shortens a route (zero violations)"):
        both = [
            r
            for r in results + dense
            if r["aodv"] is not None and r["coaodv"] is not None
        ]
        assert both, "sweep produced no dual-routed scenarios"
        violations = [r for r in both if r["coaodv"] < r["aodv"]]
        assert violations == []
        # the clustered sweep includes genuine detours (strictly more hops)
        assert any(r["coaodv"] > r["aodv"] for r in both)


# -- 6: delivery-ratio dominance on the bundled scenario ---------------------


def test_criterion_6_pdr_dominance(paper_scenario):
    with report(6, "mean PDR of the cooperative protocol dominates over 100 seeds"):
        scenario = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.5)
        flows = (sim.Flow(0, 9, 100), sim.Flow(4, 9, 100))
        seeds = list(range(1, 101))
        results = sim.compare(scenario, flows, seeds)
        aodv_all = [pair[0] for pair in results]
        coaodv_all = [pair[1] for pair in results]

        mean_aodv = sim.mean_pdr(aodv_all)
        mean_coaodv = sim.mean_pdr(coaodv_all)
        assert mean_aodv is not None and mean_coaodv is not None
        assert mean_coaodv >= mean_aodv

        # cooperative routes carry no droppable intermediates: per-flow PDR 1.0
        routed = [
            f for m in coaodv_all for f in m.per_flow if f.hop_count is not None
        ]
        assert routed, "no cooperative route in the sweep; dominance would be vacuous"
        assert all(f.packet_delivery_ratio == 1.0 for f in routed)

        # the 0->9 flow legitimately has no cooperative route (oracle-verified),
        # so its runs report zero packets rather than contributing to the mean
        assert graph_reference.cooperative_shortest(0, 9, scenario) is None
        assert graph_reference.cooperative_shortest(4, 9, scenario) == 2
        for m in coaodv_all:
            f09 = next(f for f in m.per_flow if (f.source, f.destination) == (0, 9))
            assert f09.failure == "no_cooperative_route" and f09.packets_sent == 0


# -- 7: byte-identical comparison reports ------------------------------------


def test_criterion_7_compare_determinism(tmp_path):
    with report(7, "repeated compare invocations write byte-identical CSV"):
        payloads = []
        for name in ("first.csv", "second.csv"):
            out = tmp_path / name
            code = main(
                [
                    "compare",
                    str(PAPER_SCENARIO),
                    "--flows",
                    "0:9:100",
                    "4:9:100",
                    "--seeds",
                    "5",
                    "--drop-prob",
                    "0.5",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]


# -- 8: metric property sweeps ------------------------------------------------

N_CASES = 1000


def _grid_point(rng):
    return Position(float(rng.randint(-1000, 1000)), float(rng.randint(-1000, 1000)))


def test_criterion_8a_manhattan_metric_axioms():
    with report(8, f"distance metric axioms hold over {N_CASES} random cases"):
        rng = random.Random(81)
        for _ in range(N_CASES):
            a, b, c = (_grid_point(rng) for _ in range(3))
            ab, ba = manhattan_distance(a, b), manhattan_distance(b, a)
            assert ab >= 0
            assert ab == ba
            assert manhattan_distance(a, a) == 0
            assert (ab == 0) == (a == b)
            assert manhattan_distance(a, c) <= ab + manhattan_distance(b, c)


def test_criterion_8b_comm_capability_symmetry_and_boundary():
    with report(8, f"in-range predicate is symmetric and boundary-inclusive over {N_CASES} cases"):
        rng = random.Random(82)
        for _ in range(N_CASES):
            a = _grid_point(rng)
            b = _grid_point(rng)
            r = rng.uniform(0.1, 500.0)
            assert has_comm_capability(a, b, r) == has_comm_capability(b, a, r)
            # place a second point at exactly the range limit
            limit = rng.randint(1, 200)
            dx = rng.randint(0, limit)
            dy = limit - dx
            sx, sy = rng.choice([-1, 1]), rng.choice([-1, 1])
            edge_point = Position(a.x + sx * dx, a.y + sy * dy)
            assert manhattan_distance(a, edge_point) == limit
            assert has_comm_capability(a, edge_point, limit) == 1


def test_criterion_8c_mobility_scaling():
    with report(8, f"mobility scales inversely with elapsed time over {N_CASES} cases"):
        rng = random.Random(83)
        for _ in range(N_CASES):
            p1 = Position(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            p2 = Position(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
            elapsed = rng.uniform(1e-3, 1e3)
            fast = MobilityRecord(p1, p2, elapsed=elapsed)
            slow = MobilityRecord(p1, p2, elapsed=2 * elapsed)
            assert mobility(fast) == 2 * mobility(slow)


def test_criterion_8d_composite_score_bounds():
    with report(8, f"composite score stays in [0, 1] over {N_CASES} cases"):
        rng = random.Random(84)
        for _ in range(N_CASES):
            # dyadic weights k/64 sum to exactly 1.0, keeping the bound strict
            k1 = rng.randint(0, 64)
            k2 = rng.randint(0, 64 - k1)
            w = WeightProfile(k1 / 64, k2 / 64, (64 - k1 - k2) / 64)
            d, m, e = (rng.random() for _ in range(3))
            low = composite_score(0, 0, 0, w)
            high = composite_score(1, 1, 1, w)
            score = composite_score(d, m, e, w)
            assert low == 0.0 and high == 1.0
            assert 0.0 <= score <= 1.0
            # monotone in each input
            assert composite_score(min(d + 0.1, 1.0), m, e, w) >= score
