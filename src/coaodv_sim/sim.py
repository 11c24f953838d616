"""Deterministic round-based simulation: discovery, then data transfer.

Each flow performs one route discovery with the selected protocol and then
sends its packets along the discovered route. Every non-cooperative
intermediate drops a traversing packet with the scenario's drop probability;
a dropped packet never reaches later hops. All randomness comes from one
`random.Random` (Mersenne Twister) seeded per run, so identical runs are
bit-for-bit reproducible. Under `pairs` every run that draws reseeds one
generator instead of building its own, which gives the same stream.
"""

from __future__ import annotations

import logging
import random
import sys
from collections.abc import Iterable, Iterator
from itertools import repeat
from typing import NamedTuple

from . import protocol
from .errors import NoCooperativeRoute, NoRoute, quoted
from .model import FlowMetrics, Protocol, ScenarioConfig, SimMetrics

log = logging.getLogger("coaodv_sim.sim")


class _FlowFields(NamedTuple):
    source: int
    destination: int
    packets: int


class Flow(_FlowFields):
    """One flow of a run: a tuple, so run's memo key hashes and compares in C.
    No two records of equal shape meet: the memo's run keys are
    (protocol, flows) pairs, its route keys (bool, int, int), and a Flow is
    never a key itself."""

    __slots__ = ()

    def __new__(cls, source: int, destination: int, packets: int):
        # Exactly int: a float or a bool would run (or fail deep in the data
        # phase), and 4.0 == 4 would let run's memo answer for another flow.
        for name, value in zip(cls._fields, (source, destination, packets)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {quoted(value)}")
        # sys.maxsize is the most packets the repeat() in _delivered can count
        if not 1 <= packets <= sys.maxsize:
            raise ValueError(f"packets must be from 1 to {sys.maxsize}, got {quoted(packets)}")
        return super().__new__(cls, source, destination, packets)

    @classmethod
    def _make(cls, iterable):
        # NamedTuple's own _make (and _replace, which calls it) builds through
        # tuple.__new__ and would skip the checks above
        return cls(*iterable)


_DISCOVER = {
    Protocol.AODV: protocol.aodv_discover,
    Protocol.COAODV: protocol.coaodv_discover,
}

# Each discovery failure's `FlowMetrics.failure` name, and the text that the
# log and `run`'s summary print for that name.
_FAILURES = {NoRoute: "no_route", NoCooperativeRoute: "no_cooperative_route"}
FAILURE_TEXT = {"no_route": "no route", "no_cooperative_route": "no cooperative route"}

# NamedTuple's own _make builds through this, in C; the generated __new__
# is a Python-level call
_new = tuple.__new__


def _delivered(rng: random.Random | None, packets: int, drops: int, drop_prob: float) -> int:
    """How many of `packets` cross a route with `drops` droppable hops.

    Each packet draws once per droppable hop, in route order, and is lost at
    the first draw below `drop_prob`; a route with no droppable hop draws
    nothing and needs no `rng`. Cooperative hops never draw, so only the
    droppable ones are counted. The loop is chosen once per call by `drops`:
    one or two hops are tested inline, and only a packet that crosses the
    first two of a longer route loops over the rest.
    """
    if not drops:
        return packets
    draw = rng.random
    lost = 0
    if drops == 1:
        for _ in repeat(None, packets):
            if draw() < drop_prob:
                lost += 1
    elif drops == 2:
        for _ in repeat(None, packets):
            if draw() < drop_prob or draw() < drop_prob:
                lost += 1
    else:
        more = (None,) * (drops - 2)  # the hops after the second
        for _ in repeat(None, packets):
            if draw() < drop_prob or draw() < drop_prob:
                lost += 1
            else:
                for _ in more:
                    if draw() < drop_prob:
                        lost += 1
                        break
    return packets - lost


def run(
    scenario: ScenarioConfig,
    proto: Protocol,
    flows: tuple[Flow, ...],
    seed: int,
    *,
    rng: random.Random | None = None,
) -> SimMetrics:
    """Execute one seeded run of `proto` over `flows`.

    `seed` must be exactly a non-negative `int`: `random.Random` would draw
    the stream of 1 for -1, True and 1.0, hash a string and seed None from
    the OS. A run draws from `rng` reseeded with `seed` when one is given,
    else from a new `random.Random(seed)`; both give the same stream. Either
    is seeded at the first droppable hop, so a run that never draws seeds
    nothing. At a drop probability of exactly 1.0, 0.0 or -0.0 every draw's
    outcome is known, so a droppable hop draws nothing: a flow across one
    delivers 0 packets at 1.0 and all of them at 0.0.

    A run that never draws (no flow reached a droppable hop, as in every
    `coaodv` run, or the drop probability is certain) is the same for every
    seed, so its result is memoized with
    the scenario's topology, keyed by (proto, flows). A later run of the same
    protocol and flows on the same config object returns that object without
    discovering or logging again; a run that draws is computed every time.
    """
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {quoted(seed)}")
    if not flows:  # nothing to discover: no topology is built
        return _new(SimMetrics, (proto, ()))
    _, memo = protocol._topology(scenario)
    key = (proto, flows)
    if (metrics := memo.get(key)) is not None:
        return metrics
    seeded = None  # the generator once seeded, at the first droppable hop
    discover = _DISCOVER[proto]
    drop_prob = scenario.non_coop_drop_prob
    # random() is in [0, 1): at 1.0 each packet is lost at its first draw, at
    # 0.0 (or -0.0) none is ever lost, so no draw is made; a NaN still draws
    certain = drop_prob == 1.0 or drop_prob == 0.0
    debug = log.isEnabledFor(logging.DEBUG)  # once per run, not once per flow

    per_flow: list[FlowMetrics] = []
    for flow in flows:
        try:
            route = discover(flow.source, flow.destination, scenario)
        except (NoRoute, NoCooperativeRoute) as exc:
            failure = _FAILURES[type(exc)]
            per_flow.append(
                _new(FlowMetrics, (flow.source, flow.destination, None, 0, 0, failure))
            )
            log.info("flow %s->%s: %s", flow.source, flow.destination, FAILURE_TEXT[failure])
            continue

        drops = route.route_stability.count(False)
        if drops and certain:
            delivered = 0 if drop_prob else flow.packets
        else:
            if drops and seeded is None:
                if rng is None:
                    seeded = random.Random(seed)
                else:
                    rng.seed(seed)  # the stream of random.Random(seed)
                    seeded = rng
            delivered = _delivered(seeded, flow.packets, drops, drop_prob)
        per_flow.append(
            _new(
                FlowMetrics,
                (flow.source, flow.destination, route.hop_count, flow.packets, delivered, None),
            )
        )
        if debug:
            log.debug(
                "flow %s->%s: path=%s delivered=%d/%d",
                flow.source,
                flow.destination,
                route.path,
                delivered,
                flow.packets,
            )
    metrics = _new(SimMetrics, (proto, tuple(per_flow)))
    if seeded is None:
        memo[key] = metrics
    return metrics


def pairs(
    scenario: ScenarioConfig, flows: tuple[Flow, ...], seeds: Iterable[int]
) -> Iterator[tuple[SimMetrics, SimMetrics]]:
    """Run both protocols on identical inputs for each seed, in seed order,
    yielding each seed's (aodv, coaodv) pair as soon as it is run. Every
    run that draws reseeds one generator, built here rather than at import,
    from `random.Random` as this module sees it when the loop starts."""
    rng = random.Random(0)  # never drawn from unseeded: run reseeds it first
    for seed in seeds:
        yield (
            run(scenario, Protocol.AODV, flows, seed, rng=rng),
            run(scenario, Protocol.COAODV, flows, seed, rng=rng),
        )


def compare(
    scenario: ScenarioConfig, flows: tuple[Flow, ...], seeds: list[int]
) -> list[tuple[SimMetrics, SimMetrics]]:
    """Every pair of `pairs`, as a list."""
    if not seeds:
        raise ValueError("compare requires at least one seed")
    return list(pairs(scenario, flows, seeds))


class Summary:
    """Running totals over one protocol's runs, folded one `SimMetrics` at a
    time. The sums add flow by flow in run order, so the means are the same
    whether the runs were kept in a list or streamed."""

    __slots__ = ("routed", "flows", "hop_sum", "pdr_sum", "pdr_count")

    def __init__(self) -> None:
        self.routed = self.flows = self.hop_sum = self.pdr_sum = self.pdr_count = 0

    def add(self, metrics: SimMetrics) -> None:
        per_flow = metrics.per_flow
        self.flows += len(per_flow)
        routed, hop_sum = self.routed, self.hop_sum
        pdr_sum, pdr_count = self.pdr_sum, self.pdr_count
        for f in per_flow:
            hops = f.hop_count
            if hops is not None:
                routed += 1
                hop_sum += hops
            # FlowMetrics.packet_delivery_ratio, read without the property call
            sent = f.packets_sent
            if sent > 0:
                pdr_sum += f.packets_delivered / sent
                pdr_count += 1
        self.routed, self.hop_sum = routed, hop_sum
        self.pdr_sum, self.pdr_count = pdr_sum, pdr_count

    @property
    def mean_hops(self) -> float | None:
        """Mean hop count over routed flows; None if no flow found a route."""
        return self.hop_sum / self.routed if self.routed else None

    @property
    def mean_pdr(self) -> float | None:
        """Mean packet delivery ratio over flows that sent packets; None if none did."""
        return self.pdr_sum / self.pdr_count if self.pdr_count else None


def mean_pdr(metrics: Iterable[SimMetrics]) -> float | None:
    summary = Summary()
    for m in metrics:
        summary.add(m)
    return summary.mean_pdr
