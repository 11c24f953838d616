import dataclasses
import math
import random
import re
import struct
import sys
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from coaodv_sim import coopmath
from coaodv_sim.coopmath import (
    composite_score,
    euclidean_distance,
    has_comm_capability,
    is_cooperative,
    manhattan_distance,
    mobility,
    mobility_rates,
)
from coaodv_sim.errors import ScenarioValidationError
from coaodv_sim.model import (
    DistanceMetric,
    MobilityMetric,
    MobilityRecord,
    Position,
    WeightProfile,
    validate_scenario,
)

from . import graph_reference
from .conftest import make_node, make_scenario, seeded_scenario
from .graph_reference import coop_verdict

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
points = st.builds(Position, coords, coords)
grid_points = st.builds(Position, st.integers(-1000, 1000).map(float), st.integers(-1000, 1000).map(float))


def test_manhattan_distance_examples():
    assert manhattan_distance(Position(10, 10), Position(20, 10)) == 10
    assert manhattan_distance(Position(30, 30), Position(30, 30)) == 0
    assert manhattan_distance(Position(10, 10), Position(30, 10)) == 20


def test_comm_capability_examples():
    assert has_comm_capability(Position(10, 10), Position(20, 10), 20) == 1
    assert has_comm_capability(Position(10, 10), Position(20, 30), 20) == 0
    assert has_comm_capability(Position(5, 5), Position(5, 5), 0.001) == 1


def test_comm_capability_boundary_inclusive():
    # the two points sit exactly at the range limit
    assert manhattan_distance(Position(20, 30), Position(20, 10)) == 20
    assert has_comm_capability(Position(20, 30), Position(20, 10), 20) == 1


@pytest.mark.parametrize(
    "p1, p2, expected",
    [
        ((10, 10), (10, 10), 0.0),
        ((20, 30), (20, 31), 1.0),
        ((20, 10), (20, 10), 0.0),
        ((30, 10), (34, 10), 4.0),
        ((30, 30), (33, 30), 3.0),
        ((30, 40), (31, 40), 1.0),
        ((35, 35), (38, 38), math.sqrt(18)),
        ((40, 30), (44, 30), 4.0),
        ((40, 40), (40, 40), 0.0),
        ((45, 40), (46, 40), 1.0),
    ],
)
def test_mobility_rates_for_bundled_records(p1, p2, expected):
    rec = MobilityRecord(Position(*p1), Position(*p2), elapsed=1.0)
    assert mobility(rec) == pytest.approx(expected, abs=1e-9)


def test_mobility_manhattan_mode_differs_on_diagonal_movement():
    rec = MobilityRecord(Position(35, 35), Position(38, 38), elapsed=1.0)
    assert mobility(rec, MobilityMetric.MANHATTAN_RATE) == 6.0
    assert mobility(rec, MobilityMetric.EUCLIDEAN_RATE) == pytest.approx(math.sqrt(18))


def test_mobility_of_int_legs_past_float_range_together_is_infinite():
    # a config holds ints as written: each leg fits a float, their sum does not
    top = int(sys.float_info.max)
    config = make_scenario(
        [make_node(0, 0, 0, top, top, elapsed=1)], area=(top, top), transmission_range=1
    )
    validate_scenario(config)
    (node,) = config.nodes
    assert mobility(node.mobility_record, MobilityMetric.MANHATTAN_RATE) == math.inf
    assert mobility(node.mobility_record, MobilityMetric.EUCLIDEAN_RATE) == math.inf


def rates(*nodes):
    return mobility_rates(nodes, MobilityMetric.EUCLIDEAN_RATE)


def test_mobility_zero_elapsed_raises():
    rec = MobilityRecord(Position(0, 0), Position(1, 1), elapsed=0.0)
    message = "^elapsed time between position records must be > 0$"
    with pytest.raises(ScenarioValidationError, match=message):
        mobility(rec)


# A metric that is not exactly a member of its enum, and how the message shows
# it: a member's value equals the member, and was read as the Euclidean rate
# or raised a bare KeyError.
@pytest.mark.parametrize(
    "metric, shown",
    [("manhattan_rate", "'manhattan_rate'"), ("bogus", "'bogus'"), (None, "None"),
     (DistanceMetric.MANHATTAN, "<DistanceMetric.MANHATTAN: 'manha...")],
    ids=["member-value", "bogus", "none", "other-enum"],
)
def test_mobility_takes_only_a_mobility_metric(metric, shown):
    rec = MobilityRecord(Position(0, 0), Position(3, 4), elapsed=1.0)
    assert mobility(rec, MobilityMetric.MANHATTAN_RATE) == 7.0
    message = f"mobility metric must be a MobilityMetric, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mobility(rec, metric)


@pytest.mark.parametrize(
    "metric, shown",
    [("manhattan", "'manhattan'"), ("bogus", "'bogus'"), (None, "None"),
     (MobilityMetric.EUCLIDEAN_RATE, "<MobilityMetric.EUCLIDEAN_RATE: '...")],
    ids=["member-value", "bogus", "none", "other-enum"],
)
def test_has_comm_capability_takes_only_a_distance_metric(metric, shown):
    message = f"distance metric must be a DistanceMetric, got {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        has_comm_capability(Position(0, 0), Position(3, 4), 20, metric)


def test_low_energy_candidate_is_never_cooperative():
    config = make_scenario([], energy_threshold=500.0)
    prev = make_node(0, 10, 10)
    candidate = make_node(3, 30, 10, 34, 10, energy=300)
    assert is_cooperative(candidate, prev, [candidate], config, rates(candidate)) is False
    verdict = coop_verdict(candidate, prev, [candidate], config)
    assert not verdict.energy_ok
    assert not verdict.cooperative


def test_least_mobile_energized_candidate_is_cooperative():
    config = make_scenario([], energy_threshold=500.0)
    prev = make_node(0, 30, 30)
    candidate = make_node(4, 30, 31, 33, 31, energy=700)  # moves 3 per unit time
    rivals = [candidate, make_node(5, 31, 30, 35, 30, energy=900), make_node(6, 29, 30, 34, 35, energy=800)]
    assert is_cooperative(candidate, prev, rivals, config, rates(*rivals)) is True
    verdict = coop_verdict(candidate, prev, rivals, config)
    assert verdict.energy_ok and verdict.range_ok and verdict.mobility_ok
    assert verdict.cooperative


def test_singleton_peer_set_passes_mobility():
    config = make_scenario([], energy_threshold=500.0)
    prev = make_node(0, 10, 10)
    candidate = make_node(1, 15, 10, energy=600)  # stationary
    assert is_cooperative(candidate, prev, [candidate], config, rates(candidate)) is True
    assert coop_verdict(candidate, prev, [candidate], config).mobility_ok


def test_threshold_boundary_depends_on_strictness():
    prev = make_node(0, 10, 10)
    candidate = make_node(1, 15, 10, energy=500)
    strict = make_scenario([], energy_threshold=500.0, threshold_strict=True)
    relaxed = make_scenario([], energy_threshold=500.0, threshold_strict=False)
    assert is_cooperative(candidate, prev, [candidate], strict, rates(candidate)) is False
    assert is_cooperative(candidate, prev, [candidate], relaxed, rates(candidate)) is True
    assert not coop_verdict(candidate, prev, [candidate], strict).energy_ok
    assert coop_verdict(candidate, prev, [candidate], relaxed).energy_ok


def test_mobility_ties_pass():
    config = make_scenario([])
    prev = make_node(0, 10, 10)
    a = make_node(1, 15, 10, 16, 10, energy=900)
    b = make_node(2, 12, 10, 13, 10, energy=900)  # same rate as a
    for candidate in (a, b):
        assert is_cooperative(candidate, prev, [a, b], config, rates(a, b)) is True
        assert coop_verdict(candidate, prev, [a, b], config).mobility_ok


def test_empty_peer_set_raises():
    config = make_scenario([], energy_threshold=500.0)
    for node in (make_node(0, 1, 1), make_node(1, 1, 1, energy=100)):  # the latter fails energy
        with pytest.raises(ValueError, match="^cooperative check requires a nonempty peer set$"):
            is_cooperative(node, node, [], config, rates(node))


# -- the runtime predicate against the clause-by-clause reference ------------


def test_reference_does_not_borrow_the_runtime_predicate():
    assert not hasattr(graph_reference, "is_cooperative")
    assert not hasattr(graph_reference, "mobility_rates")


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("metric", list(DistanceMetric))
@pytest.mark.parametrize("n", [50, 300, 1000])
def test_predicate_matches_reference_on_every_directed_edge(n, metric, strict):
    config = dataclasses.replace(
        seeded_scenario(n, 1, distance_metric=metric), threshold_strict=strict
    )
    by_id = config.node_map()
    rates_by_id = mobility_rates(config.nodes, config.mobility_metric)
    verdicts = []
    for owner, nbrs in graph_reference.brute_force_adjacency(config).items():
        prev, peers = by_id[owner], [by_id[v] for v in nbrs]
        for candidate in peers:
            runtime = is_cooperative(candidate, prev, peers, config, rates_by_id)
            assert type(runtime) is bool
            verdict = coop_verdict(candidate, prev, peers, config)
            assert runtime == verdict.cooperative, (owner, candidate.id)
            verdicts.append(verdict)
    # the energy and the mobility clause each fail on some edge
    assert not all(v.energy_ok for v in verdicts) and not all(v.mobility_ok for v in verdicts)
    assert 0 < sum(v.cooperative for v in verdicts) < len(verdicts)


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("metric", list(DistanceMetric))
def test_predicate_matches_reference_out_of_range_and_at_the_threshold(metric, strict):
    prev = make_node(0, 10, 10)
    cases = [
        make_node(1, 40, 40, energy=900),  # out of range under both metrics
        make_node(2, 25, 10, energy=500),  # exactly at the threshold
        make_node(3, 45, 10, energy=500),  # both at once
        make_node(4, 30, 10, energy=900),  # exactly at the range
    ]
    config = make_scenario([], threshold_strict=strict, distance_metric=metric)
    for candidate in cases:
        runtime = is_cooperative(candidate, prev, [candidate], config, rates(candidate))
        assert type(runtime) is bool
        assert runtime == coop_verdict(candidate, prev, [candidate], config).cooperative
    assert not coop_verdict(cases[0], prev, [cases[0]], config).range_ok
    assert coop_verdict(cases[1], prev, [cases[1]], config).energy_ok is not strict
    assert coop_verdict(cases[3], prev, [cases[3]], config).range_ok


# -- the predicate returns at the first clause that fails --------------------


def _clashing_nodes(rng, count, threshold):
    """Nodes whose rates often tie and are sometimes +inf (a move over a
    subnormal elapsed time), with energies just below, at and above the threshold."""
    nodes = []
    for i in range(count):
        x, y, step = rng.randint(0, 30), rng.randint(0, 30), rng.choice([0, 1, 1, 2])
        nodes.append(
            make_node(
                i, x, y, x + step, y,
                energy=threshold + rng.choice([-1, 0, 0, 1]),
                elapsed=rng.choice([1.0, 2.0, 5e-324]),
            )
        )
    return nodes


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("metric", list(DistanceMetric))
def test_predicate_matches_reference_on_random_peer_lists(metric, strict):
    rng = random.Random(f"peer-lists-{metric.value}-{strict}")
    config = make_scenario([], threshold_strict=strict, distance_metric=metric)
    seen = Counter()
    for _ in range(500):
        nodes = _clashing_nodes(rng, 8, config.energy_threshold)
        rates_by_id = mobility_rates(nodes, config.mobility_metric)
        prev, candidate = rng.choice(nodes), rng.choice(nodes)
        peers = rng.sample(nodes, rng.randint(1, 6))
        verdict = coop_verdict(candidate, prev, peers, config)
        assert is_cooperative(candidate, prev, peers, config, rates_by_id) is verdict.cooperative
        rate, peer_rates = rates_by_id[candidate.id], [rates_by_id[p.id] for p in peers]
        seen["at threshold"] += candidate.energy == config.energy_threshold
        seen["tie"] += any(r == rate for p, r in zip(peers, peer_rates) if p is not candidate)
        seen["inf"] += math.inf in (rate, *peer_rates)
        seen[(verdict.energy_ok, verdict.mobility_ok, verdict.range_ok)] += 1
    assert seen["at threshold"] and seen["tie"] and seen["inf"]
    # each clause is the first to fail somewhere, and some candidates pass all three
    assert seen[(False, True, True)] and seen[(True, False, True)]
    assert seen[(True, True, False)] and seen[(True, True, True)]


class _Lookups(dict):
    """A rates mapping that records the ids it is asked for."""

    def __init__(self, *args):
        super().__init__(*args)
        self.asked = []

    def __getitem__(self, key):
        self.asked.append(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("failing", ["energy", "mobility", "none"])
def test_range_is_measured_only_after_energy_and_mobility_pass(monkeypatch, failing):
    measured = []
    real = coopmath.has_comm_capability
    monkeypatch.setattr(
        coopmath, "has_comm_capability", lambda *args: measured.append(args) or real(*args)
    )
    config = make_scenario([], energy_threshold=500.0)
    prev = make_node(0, 10, 10)
    moved, energy = (1, 900) if failing == "mobility" else (0, 100 if failing == "energy" else 900)
    candidate = make_node(1, 15, 10, 15 + moved, 10, energy=energy)
    steady, drifting = make_node(2, 12, 10, energy=900), make_node(3, 12, 12, 20, 12, energy=900)
    peers = [drifting, steady, candidate, make_node(4, 11, 10, energy=900)]
    lookups = _Lookups(rates(*peers))
    assert is_cooperative(candidate, prev, peers, config, lookups) is (failing == "none")
    assert len(measured) == (failing == "none")
    # the peer walk ends at the first peer that moves slower than the candidate
    assert lookups.asked == {"energy": [], "mobility": [1, 3, 2], "none": [1, 3, 2, 1, 4]}[failing]


def test_composite_score_examples():
    w = WeightProfile(0.5, 0.25, 0.25)
    assert composite_score(1, 0, 0, w) == 0.5
    assert composite_score(0, 0, 0, w) == 0.0
    assert composite_score(1, 1, 1, w) == 1.0
    assert composite_score(1, 1, 1, WeightProfile(0.25, 0.5, 0.25)) == 1.0


def _normalized(raw):
    total = math.fsum(raw)
    return tuple(v / total for v in raw)


# three non-negative weights, not all zero, scaled to sum to 1 up to rounding
weight_tuples = st.tuples(*[st.floats(0, 1e6)] * 3).filter(any).map(_normalized)
unit = st.floats(0, 1)


@given(weight_tuples, unit, unit, unit)
@example((0.5, 0.5, 9.9e-10), 1.0, 1.0, 1.0)  # a sum just within the tolerance
@example((1.0, 0.0, 0.0), 1.0, 0.0, 0.0)
def test_composite_score_lies_in_its_documented_bound(weights, d_norm, m_norm, e_norm):
    # the bound that a profile with a negative weight, (1.5, -0.25, -0.25), once broke
    score = composite_score(d_norm, m_norm, e_norm, WeightProfile(*weights))
    assert 0.0 <= score <= 1.0 + 1e-9


# -- properties ------------------------------------------------------------


@given(points, points)
def test_manhattan_symmetry_and_nonnegativity(a, b):
    assert manhattan_distance(a, b) == manhattan_distance(b, a) >= 0


# any finite or infinite coordinate, with the extremes drawn often
edge_coords = st.floats(allow_nan=False) | st.sampled_from(
    [1e308, -1e308, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min, 0.0, -0.0]
)


@pytest.mark.parametrize("metric", list(DistanceMetric))
@given(edge_coords, edge_coords, edge_coords, edge_coords, st.booleans(), st.booleans())
@example(1e308, -1e308, -1e308, 1e308, False, False)
@example(5e-324, -5e-324, -5e-324, 5e-324, False, False)
@example(5e-324, 1e308, 0.0, 0.0, True, False)
def test_distances_are_bit_for_bit_symmetric(metric, ax, ay, bx, by, same_x, same_y):
    # the range graph measures a pair in either order, so the edge test
    # must not depend on it
    a = Position(ax, ay)
    b = Position(ax if same_x else bx, ay if same_y else by)
    dist = coopmath.DISTANCES[metric]
    assert struct.pack("<d", dist(a, b)) == struct.pack("<d", dist(b, a))


@given(points)
def test_manhattan_identity(a):
    assert manhattan_distance(a, a) == 0


@given(grid_points, grid_points, grid_points)
def test_manhattan_triangle_inequality_on_grid(a, b, c):
    assert manhattan_distance(a, c) <= manhattan_distance(a, b) + manhattan_distance(b, c)


@given(points, points, st.floats(min_value=1e-6, max_value=1e6))
def test_comm_capability_symmetric(a, b, r):
    assert has_comm_capability(a, b, r) == has_comm_capability(b, a, r)


@given(grid_points, grid_points)
def test_grid_distance_is_its_own_inclusive_boundary(a, b):
    d = manhattan_distance(a, b)
    if d > 0:
        assert has_comm_capability(a, b, d) == 1


@given(points, points, st.floats(min_value=1e-3, max_value=1e3))
@example(Position(0.0, 0.0), Position(0.0, 2.2250738585072014e-308), 0.75)
def test_mobility_halves_when_elapsed_doubles(a, b, elapsed):
    moved = math.hypot(a.x - b.x, a.y - b.y)
    slow = mobility(MobilityRecord(a, b, elapsed=2 * elapsed))
    fast = mobility(MobilityRecord(a, b, elapsed=elapsed))
    assert slow == moved / (2 * elapsed)
    assert fast == moved / elapsed
    # Halving is exact only while the slow rate is zero or normal: a subnormal
    # quotient keeps fewer significant bits, so it may round where fast / 2 did not.
    if slow == 0 or slow >= sys.float_info.min:
        assert fast == 2 * slow


def test_euclidean_never_exceeds_manhattan():
    for a, b in [(Position(0, 0), Position(3, 4)), (Position(1, 9), Position(-2, 5))]:
        assert euclidean_distance(a, b) <= manhattan_distance(a, b)
