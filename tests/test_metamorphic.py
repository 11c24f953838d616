"""Metamorphic properties of the topology and of discovery (Chen et al.,
*Metamorphic Testing*, ACM CSUR 2018): transformations of a scenario that
must leave every cooperative flag and every route as it was, or mapped.

Each property is exact in floating point. Translation moves integer
coordinates by an integer vector, so every coordinate difference, and with
it every distance and mobility rate, is the same float as before; a float
translation could round an edge that lies exactly at the range to the other
side. Scaling by a power of two only changes exponents, so no energy
comparison can flip.
"""

import dataclasses
import random

import pytest

from coaodv_sim.errors import NoCooperativeRoute, NoRoute
from coaodv_sim.model import DistanceMetric, Position, Route, validate_scenario
from coaodv_sim.protocol import aodv_discover, coaodv_discover, exchange_hello

from .conftest import seeded_scenario

SIZES = [(50, 1), (300, 2), (1000, 3)]


def _flows(config, rng, count=40) -> list[tuple[int, int]]:
    ids = [n.id for n in config.nodes]
    return [tuple(rng.sample(ids, 2)) for _ in range(count)]


def _outcomes(config, flows) -> list:
    """Each flow's aodv route, then its coaodv route; the failure's class
    where there is none."""
    found = []
    for source, dest in flows:
        for discover in (aodv_discover, coaodv_discover):
            try:
                found.append(discover(source, dest, config))
            except (NoRoute, NoCooperativeRoute) as exc:
                found.append(type(exc))
    return found


def _flags(config) -> dict[int, dict[int, bool]]:
    return {
        owner: {v: entry.coop_status for v, entry in table.entries.items()}
        for owner, table in exchange_hello(config).items()
    }


def _check_inputs(outcomes) -> None:
    """Guard the inputs: some flows relay through intermediates and some are refused."""
    assert any(isinstance(r, Route) and r.hop_count > 1 for r in outcomes)
    assert NoCooperativeRoute in outcomes


def _shift(position: Position, dx: int, dy: int) -> Position:
    return Position(position.x + dx, position.y + dy)


@pytest.mark.parametrize("metric", list(DistanceMetric))
@pytest.mark.parametrize("n, seed", SIZES)
def test_integer_translation_keeps_every_route(n, seed, metric):
    rng = random.Random(f"translate-{n}-{seed}-{metric.value}")
    config = seeded_scenario(n, seed, metric, per_unit=1)
    width, height = config.area
    # room on every side, so the translated nodes stay inside the area
    config = dataclasses.replace(config, area=(3 * width, 3 * height))
    dx, dy = rng.randint(0, int(2 * width)), rng.randint(0, int(2 * height))
    moved_nodes = tuple(
        dataclasses.replace(
            node,
            mobility_record=dataclasses.replace(
                node.mobility_record,
                pos_t1=_shift(node.mobility_record.pos_t1, dx, dy),
                pos_t2=_shift(node.mobility_record.pos_t2, dx, dy),
            ),
        )
        for node in config.nodes
    )
    moved = validate_scenario(dataclasses.replace(config, nodes=moved_nodes))
    assert all(c.is_integer() for n in moved.nodes for c in (n.position.x, n.position.y))
    flows = _flows(config, rng)
    before = _outcomes(config, flows)
    _check_inputs(before)
    assert _outcomes(moved, flows) == before
    assert _flags(moved) == _flags(config)


@pytest.mark.parametrize("n, seed", SIZES)
def test_order_preserving_relabel_maps_every_path(n, seed):
    rng = random.Random(f"relabel-{n}-{seed}")
    config = seeded_scenario(n, seed)
    old_ids = sorted(node.id for node in config.nodes)
    new_id = dict(zip(old_ids, sorted(rng.sample(range(20 * n), n))))
    relabelled = validate_scenario(
        dataclasses.replace(
            config,
            nodes=tuple(dataclasses.replace(node, id=new_id[node.id]) for node in config.nodes),
        )
    )
    flows = _flows(config, rng)
    before = _outcomes(config, flows)
    _check_inputs(before)
    mapped = [
        Route(tuple(new_id[v] for v in r.path), r.hop_count, r.route_stability)
        if isinstance(r, Route)
        else r
        for r in before
    ]
    assert _outcomes(relabelled, [(new_id[s], new_id[d]) for s, d in flows]) == mapped
    assert _flags(relabelled) == {
        new_id[owner]: {new_id[v]: flag for v, flag in flags.items()}
        for owner, flags in _flags(config).items()
    }


@pytest.mark.parametrize("factor, strict", [(2.0**-9, True), (2.0**12, False)])
@pytest.mark.parametrize("n, seed", SIZES)
def test_power_of_two_energy_scaling_keeps_every_flag_and_route(n, seed, factor, strict):
    rng = random.Random(f"scale-{n}-{seed}-{factor}")
    config = dataclasses.replace(seeded_scenario(n, seed), threshold_strict=strict)
    scaled = validate_scenario(
        dataclasses.replace(
            config,
            nodes=tuple(
                dataclasses.replace(node, energy=node.energy * factor) for node in config.nodes
            ),
            energy_threshold=config.energy_threshold * factor,
        )
    )
    flags = _flags(config)
    # guard the inputs: the energy clause decides some flags both ways
    assert {True, False} <= {flag for table in flags.values() for flag in table.values()}
    assert _flags(scaled) == flags
    flows = _flows(config, rng)
    before = _outcomes(config, flows)
    _check_inputs(before)
    assert _outcomes(scaled, flows) == before
