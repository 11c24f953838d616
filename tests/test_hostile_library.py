"""Hostile library calls as a property: the public entry points called from
Python with values of the wrong type or at the edge of a number.

(a) `sim.Flow`, `sim.run`, `sim.compare`, `aodv_discover` and
`coaodv_discover` get a bool, a float, a negative or huge int, a string of
up to a million characters or None in place of a node id, a seed or a packet
count. Each call either equals the call with the int that the value equals,
or raises `ValueError` or `UnknownNode`, and a discovery raises `UnknownNode`
exactly for an int that names no node. No message is the interpreter's
digit-limit error.

(b) `validate_scenario` gets the bundled scenario with one field, or one
node's energy, coordinate or elapsed time, replaced by a bool, a string,
None, NaN, an infinity, an int past float range or past the str() digit
limit, a long string, list or dict, or a number of the other type equal to
the bundled one. Each call either raises `ScenarioValidationError`, or
accepts a config whose values equal the bundled ones: a number as an int or
a float, anything else of its own type. A seed may be any non-negative int
and `threshold_strict` either bool, so there each valid value is accepted as
itself. An int past float range in a number's place is named by its key, and
none of its digits are printed.

(c) `validate_scenario` gets the bundled scenario with one node's id, the
area's sides and that node's coordinate drawn as ints of 40 digits, the
longest that a message shows as written, all at once.

No call raises any other exception, and no message is longer than 200 bytes;
under (c) neither is the `error:` line that the CLI would print.
"""

import dataclasses
import math
import sys

from hypothesis import example, given, settings, strategies as st

from coaodv_sim import sim
from coaodv_sim.errors import ScenarioValidationError, UnknownNode
from coaodv_sim.model import Protocol, load_scenario, validate_scenario
from coaodv_sim.protocol import aodv_discover, coaodv_discover

from .conftest import MESSAGE_BYTES, PAPER_SCENARIO

# one config for every call, at a drop probability at which aodv runs draw
CONFIG = dataclasses.replace(load_scenario(PAPER_SCENARIO), non_coop_drop_prob=0.5)

HUGE, UNPRINTABLE = 10**400, 10**5000  # past float range; past the str() digit limit

# in place of an int: one that equals it in another type, or no int at all
ARGUMENTS = (
    True, False, 0.0, 1.0, 4.0, 9.0, 1.5, -1, -(2**64), 2**64, HUGE, -HUGE, UNPRINTABLE,
    -UNPRINTABLE, math.nan, math.inf, "4", "", None, "x" * 10**6,
)

# each entry point as (name, call of the replaced argument)
FLOWS = (sim.Flow(0, 9, 5), sim.Flow(4, 9, 5))
CALLS = {
    "Flow source": lambda v: sim.Flow(v, 9, 5),
    "Flow destination": lambda v: sim.Flow(4, v, 5),
    "Flow packets": lambda v: sim.Flow(4, 9, v),
    "run seed aodv": lambda v: sim.run(CONFIG, Protocol.AODV, FLOWS, v),
    "run seed coaodv": lambda v: sim.run(CONFIG, Protocol.COAODV, FLOWS, v),
    "compare seed": lambda v: sim.compare(CONFIG, FLOWS, [v]),
    "compare later seed": lambda v: sim.compare(CONFIG, FLOWS, [1, v]),
    "aodv source": lambda v: aodv_discover(v, 9, CONFIG),
    "aodv destination": lambda v: aodv_discover(4, v, CONFIG),
    "coaodv source": lambda v: coaodv_discover(v, 9, CONFIG),
    "coaodv destination": lambda v: coaodv_discover(4, v, CONFIG),
}
DISCOVERIES = frozenset(name for name in CALLS if "aodv " in name)  # a node id the config holds
NODES = frozenset(CONFIG.node_map())


def _int_equal_to(value):
    """The int that `value` equals, or None if it equals none."""
    if type(value) in (bool, float) and math.isfinite(value) and value == int(value):
        return int(value)
    return None


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(sorted(CALLS)), st.sampled_from(ARGUMENTS))
@example("aodv source", UNPRINTABLE)  # each message that once quoted an unprintable int
@example("Flow packets", UNPRINTABLE)
@example("run seed aodv", -UNPRINTABLE)
@example("aodv source", "x" * 10**6)  # once quoted with every character
def test_library_calls_return_the_int_call_or_a_named_error(name, value):
    call = CALLS[name]
    unknown = name in DISCOVERIES and type(value) is int and value not in NODES
    try:
        result = call(value)
    except (ValueError, UnknownNode) as exc:
        assert "Exceeds the limit" not in str(exc)
        assert len(str(exc).encode()) <= MESSAGE_BYTES
        assert (type(exc) is UnknownNode) == unknown
        return
    assert not unknown
    exact = _int_equal_to(value)
    if exact is not None:
        assert result == call(exact)


BUNDLED = load_scenario(PAPER_SCENARIO)
NODE = 3  # the node whose own values are replaced

HOSTILE = (
    True, False, "20", "", "manhattan", None, math.nan, math.inf, -math.inf,
    HUGE, -HUGE, UNPRINTABLE, -UNPRINTABLE,
    "x" * 10_000, list(range(5_000)), {"id": "x" * 20_000},
)


def _replace_node(config, **changes):
    """`config` with node NODE's energy, elapsed time or a coordinate replaced."""
    def changed(node):
        rec = node.mobility_record
        if "energy" in changes:
            return dataclasses.replace(node, energy=changes["energy"])
        if "elapsed" in changes:
            return dataclasses.replace(node, mobility_record=dataclasses.replace(rec, **changes))
        pos_t1 = dataclasses.replace(rec.pos_t1, **changes)
        return dataclasses.replace(node, mobility_record=dataclasses.replace(rec, pos_t1=pos_t1))

    nodes = tuple(changed(n) if n.id == NODE else n for n in config.nodes)
    return dataclasses.replace(config, nodes=nodes)


def _with_area(index):
    def change(config, value):
        area = list(config.area)
        area[index] = value
        return dataclasses.replace(config, area=tuple(area))
    return change


# each place a value goes: (how to put it there, how to read it back)
PLACES = {
    **{
        f.name: (
            lambda config, value, name=f.name: dataclasses.replace(config, **{name: value}),
            lambda config, name=f.name: getattr(config, name),
        )
        for f in dataclasses.fields(BUNDLED)
    },
    "area width": (_with_area(0), lambda config: config.area[0]),
    "area height": (_with_area(1), lambda config: config.area[1]),
    **{
        key: (
            lambda config, value, key=key: _replace_node(config, **{key: value}),
            read,
        )
        for key, read in (
            ("energy", lambda c: c.node_map()[NODE].energy),
            ("elapsed", lambda c: c.node_map()[NODE].mobility_record.elapsed),
            ("x", lambda c: c.node_map()[NODE].mobility_record.pos_t1.x),
            ("y", lambda c: c.node_map()[NODE].mobility_record.pos_t1.y),
        )
    },
}

NUMBERS = (int, float)

# the places of a number that must fit a float, as a message names them
KEYS = {
    **{name: name for name in (
        "area width", "area height", "transmission_range", "energy_threshold",
        "non_coop_drop_prob",
    )},
    "energy": f"node {NODE} energy",
    "elapsed": f"node {NODE} elapsed time",
    "x": f"node {NODE} pos_t1",
    "y": f"node {NODE} pos_t1",
}

# the places whose valid values the replacements hold besides the bundled one
VALID = {
    "rng_seed": lambda value: type(value) is int and value >= 0,
    "threshold_strict": lambda value: type(value) is bool,
}


def _same(value, bundled) -> bool:
    """Whether `value` may stand for `bundled`: equal, and a number for a
    number or of the bundled value's own type."""
    if type(bundled) in NUMBERS:
        return type(value) in NUMBERS and value == bundled
    return type(value) is type(bundled) and value == bundled


@st.composite
def replacements(draw):
    place = draw(st.sampled_from(sorted(PLACES)))
    bundled = PLACES[place][1](BUNDLED)
    # a number of the other type equal to the bundled value, where there is one
    numeric = type(bundled) in (bool, *NUMBERS)
    equal = [v for v in (int(bundled), float(bundled)) if v == bundled] if numeric else []
    return place, draw(st.sampled_from([*equal, *HOSTILE]))


@settings(max_examples=300, deadline=None)
@given(replacements())
@example(("x", HUGE))  # each number that was once quoted with every digit
@example(("non_coop_drop_prob", -HUGE))
@example(("non_coop_drop_prob", UNPRINTABLE))
@example(("distance_metric", "x" * 10_000))  # each value once quoted in full
@example(("area width", list(range(5_000))))
def test_validation_accepts_only_the_values_it_was_given(replacement):
    place, value = replacement
    put, read = PLACES[place]
    config = put(BUNDLED, value)
    try:
        validate_scenario(config)
    except ScenarioValidationError as exc:
        assert len(str(exc).encode()) <= MESSAGE_BYTES
        if place in KEYS and type(value) is int and abs(value) > sys.float_info.max:
            assert str(exc) == f"{KEYS[place]} is an integer too large for a float"
        return
    if place in VALID:
        assert VALID[place](value)
    else:
        assert _same(read(config), read(BUNDLED))


FORTY_DIGITS = 10**39, 10**40 - 1  # the least and the greatest int of 40 digits
FORTY = st.integers(*FORTY_DIGITS)


@settings(max_examples=100, deadline=None)
@given(FORTY, FORTY, FORTY, st.sampled_from(["pos_t1", "pos_t2"]), st.sampled_from("xy"),
       FORTY | FORTY.map(int.__neg__))
@example(FORTY_DIGITS[1], FORTY_DIGITS[0], FORTY_DIGITS[0], "pos_t2", "y", -FORTY_DIGITS[1])
def test_forty_digit_ids_area_sides_and_coordinates_fit_a_line(
    node_id, width, height, epoch, axis, coordinate
):
    node = BUNDLED.node_map()[NODE]
    rec = node.mobility_record
    pos = dataclasses.replace(getattr(rec, epoch), **{axis: coordinate})
    moved = dataclasses.replace(
        node, id=node_id, mobility_record=dataclasses.replace(rec, **{epoch: pos})
    )
    nodes = tuple(moved if n.id == NODE else n for n in BUNDLED.nodes)
    config = dataclasses.replace(BUNDLED, area=(width, height), nodes=nodes)
    try:
        validate_scenario(config)
    except ScenarioValidationError as exc:
        assert len(f"error: invalid scenario: {exc}".encode()) <= MESSAGE_BYTES
        assert "outside area" in str(exc)
        return
    assert 0 <= coordinate <= (width if axis == "x" else height)
