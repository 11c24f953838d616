"""The data phase's draws: `sim._delivered` against the per-packet walk it
replaced, which draws at each non-cooperative intermediate in route order."""

import dataclasses
import math
import random
import types

import pytest

from coaodv_sim import sim
from coaodv_sim.errors import NoCooperativeRoute, NoRoute
from coaodv_sim.model import FlowMetrics, Protocol, SimMetrics

from .conftest import make_node, make_scenario, random_scenario


def walk_delivered(rng, packets, route_stability, drop_prob):
    """Reference: visit every intermediate of every packet; a
    non-cooperative one draws and drops the packet below drop_prob."""
    delivered = 0
    for _ in range(packets):
        lost = False
        for cooperative in route_stability:
            if not cooperative and rng.random() < drop_prob:
                lost = True
                break
        if not lost:
            delivered += 1
    return delivered


PACKETS = (1, 2, 3, 5, 17, 64, 255, 300)


@pytest.mark.parametrize("drop_prob", [0.0, 1.0, 0.5, "random"])
@pytest.mark.parametrize("drops", range(7))
def test_delivered_makes_the_walks_draws(drops, drop_prob):
    shape = random.Random(f"shape-{drops}-{drop_prob}")
    for packets in PACKETS:
        p = shape.random() if drop_prob == "random" else drop_prob
        # the droppable hops among a random number of cooperative ones
        flags = [False] * drops + [True] * shape.randrange(4)
        shape.shuffle(flags)
        seed = shape.randrange(2**32)
        ours, walk = random.Random(seed), random.Random(seed)
        delivered = sim._delivered(ours, packets, drops, p)
        assert delivered == walk_delivered(walk, packets, flags, p)
        assert ours.getstate() == walk.getstate()


@pytest.mark.parametrize("drops", [1, 2, 3, 4])
def test_delivered_makes_the_walks_draws_at_scale(drops):
    # long runs of packets lost at the first or second hop, or sent past them;
    # each drop count of sim._delivered's three loops, and four for a tail of two
    flags = [False] * drops + [True]
    ours, walk = random.Random(drops), random.Random(drops)
    delivered = sim._delivered(ours, 10**5, drops, 0.1)
    assert delivered == walk_delivered(walk, 10**5, flags, 0.1)
    assert ours.getstate() == walk.getstate()


class _Fixed:
    """A generator whose every draw is `value`; counts its draws."""

    def __init__(self, value):
        self.value, self.draws = value, 0

    def random(self):
        self.draws += 1
        return self.value


@pytest.mark.parametrize("drops", [1, 2, 3, 4])
def test_a_draw_equal_to_drop_prob_is_no_loss(drops):
    at = _Fixed(0.5)
    assert sim._delivered(at, 40, drops, 0.5) == 40
    assert at.draws == 40 * drops
    below = _Fixed(math.nextafter(0.5, 0))
    assert sim._delivered(below, 40, drops, 0.5) == 0
    assert below.draws == 40  # each packet is lost at its first draw


def test_delivered_without_droppable_hops_draws_nothing():
    rng = random.Random(5)
    before = rng.getstate()
    assert sim._delivered(rng, 10**6, 0, 1.0) == 10**6
    assert rng.getstate() == before


def _walk_run(scenario, proto, flows, seed):
    """sim.run's per-flow delivered counts, recomputed with the walk on one
    generator shared by all flows in order."""
    rng = random.Random(seed)
    discover = sim._DISCOVER[proto]
    counts = []
    for flow in flows:
        try:
            route = discover(flow.source, flow.destination, scenario)
        except (NoRoute, NoCooperativeRoute):
            counts.append(0)
            continue
        p = scenario.non_coop_drop_prob
        counts.append(walk_delivered(rng, flow.packets, route.route_stability, p))
    return counts


def test_later_flows_see_the_draws_of_earlier_flows(paper_scenario):
    half = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.5)
    flows = (sim.Flow(0, 9, 40), sim.Flow(4, 9, 7), sim.Flow(0, 9, 40), sim.Flow(2, 9, 13))
    for seed in range(20):
        args = (half, Protocol.AODV, flows, seed)
        delivered = [f.packets_delivered for f in sim.run(*args).per_flow]
        assert delivered == _walk_run(*args)


def test_multi_flow_runs_match_the_walk_on_random_scenarios():
    rng = random.Random(404)
    for _ in range(40):
        config = dataclasses.replace(random_scenario(rng), non_coop_drop_prob=rng.random())
        ids = [n.id for n in config.nodes]
        flows = tuple(sim.Flow(*rng.sample(ids, 2), rng.randint(1, 60)) for _ in range(4))
        for proto in Protocol:
            args = (config, proto, flows, rng.randrange(2**32))
            delivered = [f.packets_delivered for f in sim.run(*args).per_flow]
            assert delivered == _walk_run(*args)


def _counting_random(monkeypatch):
    """Make sim's `random.Random` count its draws; returns the counter."""
    draws = [0]

    class CountingRandom(random.Random):
        def random(self):
            draws[0] += 1
            return super().random()

    monkeypatch.setattr(sim, "random", types.SimpleNamespace(Random=CountingRandom))
    return draws


def test_fully_cooperative_route_draws_nothing(monkeypatch, paper_scenario):
    half = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.5)
    draws = _counting_random(monkeypatch)
    flows = (sim.Flow(4, 9, 1000), sim.Flow(0, 9, 1000))
    coaodv = sim.run(half, Protocol.COAODV, flows, seed=1)
    assert [f.packets_delivered for f in coaodv.per_flow] == [1000, 0]  # 0->9 refused
    assert draws[0] == 0
    sim.run(half, Protocol.AODV, flows, seed=1)
    assert draws[0] > 0  # the counter sees aodv's droppable hops


def _eager_run(scenario, proto, flows, seed):
    """sim.run with the run's generator built before the first flow, whether
    or not any flow draws, and the walk's draws on it."""
    rng = random.Random(seed)
    discover = sim._DISCOVER[proto]
    per_flow = []
    for flow in flows:
        try:
            route = discover(flow.source, flow.destination, scenario)
        except (NoRoute, NoCooperativeRoute) as exc:
            failure = "no_route" if isinstance(exc, NoRoute) else "no_cooperative_route"
            per_flow.append(FlowMetrics(flow.source, flow.destination, None, 0, 0, failure))
            continue
        p = scenario.non_coop_drop_prob
        delivered = walk_delivered(rng, flow.packets, route.route_stability, p)
        per_flow.append(
            FlowMetrics(flow.source, flow.destination, route.hop_count, flow.packets, delivered)
        )
    return SimMetrics(proto, tuple(per_flow))


def test_generator_is_built_only_for_a_run_that_draws(monkeypatch, paper_scenario):
    half = dataclasses.replace(paper_scenario, non_coop_drop_prob=0.5)
    # 4->5 is one hop and draws nothing; aodv relays 0->9 and 4->9 through
    # droppable nodes, coaodv routes 4->9 cooperatively and refuses 0->9
    flows = (sim.Flow(4, 5, 30), sim.Flow(0, 9, 30), sim.Flow(4, 9, 30))
    seeds = list(range(10))
    eager = {
        proto: [_eager_run(half, proto, flows, seed) for seed in seeds]
        for proto in Protocol
    }
    built, reseeded = [], []  # (generator, seed) per construction and per later seed call

    class RecordingRandom(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            built.append((self, seed))  # after: the seed call inside __init__ is no reseed

        def seed(self, a=None, version=2):
            if any(self is generator for generator, _ in built):
                reseeded.append((self, a))
            super().seed(a, version)

    monkeypatch.setattr(sim, "random", types.SimpleNamespace(Random=RecordingRandom))
    coaodv = [sim.run(half, Protocol.COAODV, flows, seed) for seed in seeds]
    assert built == [] and reseeded == []
    assert coaodv == eager[Protocol.COAODV]
    aodv = sim.run(half, Protocol.AODV, flows, seeds[3])
    assert [seed for _, seed in built] == [seeds[3]] and reseeded == []
    assert aodv == eager[Protocol.AODV][3]
    built.clear()
    results = sim.compare(half, flows, seeds)
    # one generator per compare, reseeded once per aodv run with that run's
    # seed; never by a coaodv run, and never a second time within a run
    ((generator, _),) = built
    assert reseeded == [(generator, seed) for seed in seeds]
    assert results == list(zip(eager[Protocol.AODV], eager[Protocol.COAODV]))


def _relay_line(drop_prob):
    """Six stationary nodes 10 apart on a line at range 10, every one below
    the energy threshold: aodv's route from 0 to k crosses k - 1 droppable
    hops."""
    nodes = [make_node(i, 10.0 * i, 0.0, energy=100.0) for i in range(6)]
    return make_scenario(nodes, transmission_range=10.0, non_coop_drop_prob=drop_prob)


@pytest.mark.parametrize("drop_prob", [0.0, -0.0, 1.0])
def test_a_certain_drop_probability_runs_as_the_walk_without_a_draw(monkeypatch, drop_prob):
    config = _relay_line(drop_prob)
    draws = _counting_random(monkeypatch)
    routes = [(sim.Flow(0, k, 25),) for k in range(2, 6)]  # 1 to 4 droppable hops
    for flows in [*routes, tuple(flow for (flow,) in routes)]:
        for seed in range(20):
            metrics = sim.run(config, Protocol.AODV, flows, seed)
            assert [f.hop_count for f in metrics.per_flow] == [f.destination for f in flows]
            delivered = [f.packets_delivered for f in metrics.per_flow]
            assert delivered == _walk_run(config, Protocol.AODV, flows, seed)
            assert set(delivered) == {0 if drop_prob else 25}
    assert draws[0] == 0
