"""Deterministic round-based simulation: discovery, then data transfer.

Each flow performs one route discovery with the selected protocol and then
sends its packets along the discovered route. Every non-cooperative
intermediate drops a traversing packet with the scenario's drop probability;
a dropped packet never reaches later hops. All randomness comes from one
`random.Random` (Mersenne Twister) seeded per run, so identical runs are
bit-for-bit reproducible.
"""

from __future__ import annotations

import logging
import random
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import repeat

from . import protocol
from .errors import NoCooperativeRoute, NoRoute
from .model import FlowMetrics, Protocol, ScenarioConfig, SimMetrics

log = logging.getLogger("coaodv_sim.sim")


@dataclass(frozen=True)
class Flow:
    source: int
    destination: int
    packets: int

    def __post_init__(self):
        # sys.maxsize is the most packets the repeat() in _delivered can count
        if not 1 <= self.packets <= sys.maxsize:
            raise ValueError(f"packets must be from 1 to {sys.maxsize}, got {self.packets}")


_DISCOVER = {
    Protocol.AODV: protocol.aodv_discover,
    Protocol.COAODV: protocol.coaodv_discover,
}


def _delivered(rng: random.Random | None, packets: int, drops: int, drop_prob: float) -> int:
    """How many of `packets` cross a route with `drops` droppable hops.

    Each packet draws once per droppable hop, in route order, and is lost at
    the first draw below `drop_prob`; a route with no droppable hop draws
    nothing and needs no `rng`. Cooperative hops never draw, so only the
    droppable ones are counted.
    """
    if not drops:
        return packets
    draw = rng.random
    hops = (None,) * drops
    lost = 0
    for _ in repeat(None, packets):
        for _ in hops:
            if draw() < drop_prob:
                lost += 1
                break
    return packets - lost


def run(
    scenario: ScenarioConfig, proto: Protocol, flows: tuple[Flow, ...], seed: int
) -> SimMetrics:
    """Execute one seeded run of `proto` over `flows`."""
    rng = None  # built at the first droppable hop: a run that never draws builds none
    discover = _DISCOVER[proto]
    drop_prob = scenario.non_coop_drop_prob

    per_flow: list[FlowMetrics] = []
    for flow in flows:
        try:
            route = discover(flow.source, flow.destination, scenario)
        except (NoRoute, NoCooperativeRoute) as exc:
            failure = "no_route" if isinstance(exc, NoRoute) else "no_cooperative_route"
            per_flow.append(FlowMetrics(flow.source, flow.destination, None, 0, 0, failure))
            log.info("flow %s->%s: %s", flow.source, flow.destination, failure.replace("_", " "))
            continue

        drops = route.route_stability.count(False)
        if drops and rng is None:
            rng = random.Random(seed)
        delivered = _delivered(rng, flow.packets, drops, drop_prob)
        per_flow.append(
            FlowMetrics(flow.source, flow.destination, route.hop_count, flow.packets, delivered)
        )
        log.debug(
            "flow %s->%s: path=%s delivered=%d/%d",
            flow.source,
            flow.destination,
            route.path,
            delivered,
            flow.packets,
        )
    return SimMetrics(proto, tuple(per_flow))


def pairs(
    scenario: ScenarioConfig, flows: tuple[Flow, ...], seeds: Iterable[int]
) -> Iterator[tuple[SimMetrics, SimMetrics]]:
    """Run both protocols on identical inputs for each seed, in seed order,
    yielding each seed's (aodv, coaodv) pair as soon as it is run."""
    for seed in seeds:
        yield (
            run(scenario, Protocol.AODV, flows, seed),
            run(scenario, Protocol.COAODV, flows, seed),
        )


def compare(
    scenario: ScenarioConfig, flows: tuple[Flow, ...], seeds: list[int]
) -> list[tuple[SimMetrics, SimMetrics]]:
    """Every pair of `pairs`, as a list."""
    if not seeds:
        raise ValueError("compare requires at least one seed")
    return list(pairs(scenario, flows, seeds))


@dataclass
class Summary:
    """Running totals over one protocol's runs, folded one `SimMetrics` at a
    time. The sums add flow by flow in run order, so the means are the same
    whether the runs were kept in a list or streamed."""

    routed: int = 0
    flows: int = 0
    hop_sum: int = 0
    pdr_sum: float = 0
    pdr_count: int = 0

    def add(self, metrics: SimMetrics) -> None:
        for f in metrics.per_flow:
            self.flows += 1
            if f.hop_count is not None:
                self.routed += 1
                self.hop_sum += f.hop_count
            pdr = f.packet_delivery_ratio
            if pdr is not None:
                self.pdr_sum += pdr
                self.pdr_count += 1

    @property
    def mean_hops(self) -> float | None:
        """Mean hop count over routed flows; None if no flow found a route."""
        return self.hop_sum / self.routed if self.routed else None

    @property
    def mean_pdr(self) -> float | None:
        """Mean packet delivery ratio over flows that sent packets; None if none did."""
        return self.pdr_sum / self.pdr_count if self.pdr_count else None


def summarize(metrics: Iterable[SimMetrics]) -> Summary:
    summary = Summary()
    for m in metrics:
        summary.add(m)
    return summary


def mean_pdr(metrics: Iterable[SimMetrics]) -> float | None:
    return summarize(metrics).mean_pdr


def mean_hops(metrics: Iterable[SimMetrics]) -> float | None:
    return summarize(metrics).mean_hops
