import dataclasses
import json
import math
import re

import pytest

from coaodv_sim.cli import main
from coaodv_sim.errors import ScenarioValidationError, quoted
from coaodv_sim.model import (
    DistanceMetric,
    FlowMetrics,
    MobilityMetric,
    Protocol,
    Route,
    SimMetrics,
    WeightProfile,
    scenario_from_dict,
    scenario_from_json,
    validate_scenario,
)

from .conftest import PAPER_SCENARIO, make_node, make_scenario, scenario_to_json


def test_paper_scenario_validates(paper_scenario):
    assert len(paper_scenario.nodes) == 10
    assert paper_scenario.area == (100.0, 100.0)
    assert paper_scenario.transmission_range == 20.0
    assert paper_scenario.energy_threshold == 500.0
    assert paper_scenario.distance_metric is DistanceMetric.MANHATTAN
    assert paper_scenario.mobility_metric is MobilityMetric.EUCLIDEAN_RATE
    assert paper_scenario.threshold_strict


def test_empty_node_list_is_valid():
    config = make_scenario([])
    assert validate_scenario(config) is config


def _rejects(message):
    """pytest.raises for a ScenarioValidationError whose message is exactly `message`."""
    return pytest.raises(ScenarioValidationError, match=f"^{re.escape(message)}$")


def test_duplicate_id_names_the_offender():
    config = make_scenario([make_node(3, 10, 10), make_node(3, 20, 20)])
    with _rejects("duplicate node id 3"):
        validate_scenario(config)


def test_negative_id_rejected():
    with _rejects("node id must be a nonnegative integer, got -1"):
        validate_scenario(make_scenario([make_node(-1, 10, 10)]))


def test_node_outside_area_rejected():
    with _rejects("node 0 pos_t1 x 150 outside area [0, 100.0]"):
        validate_scenario(make_scenario([make_node(0, 150, 10)]))


def test_second_epoch_outside_area_rejected():
    with _rejects("node 0 pos_t2 y 101 outside area [0, 100.0]"):
        validate_scenario(make_scenario([make_node(0, 10, 10, 10, 101)]))


def test_nan_coordinate_rejected():
    with _rejects("node 0 pos_t1 must be finite, got nan"):
        validate_scenario(make_scenario([make_node(0, float("nan"), 10)]))


def test_nonpositive_range_rejected():
    with _rejects("transmission_range must be > 0, got 0"):
        validate_scenario(make_scenario([make_node(0, 1, 1)], transmission_range=0))


def test_negative_threshold_rejected():
    with _rejects("energy_threshold must be >= 0, got -1"):
        validate_scenario(make_scenario([make_node(0, 1, 1)], energy_threshold=-1))


def test_negative_energy_rejected():
    with _rejects("node 0 energy must be >= 0, got -5"):
        validate_scenario(make_scenario([make_node(0, 1, 1, energy=-5)]))


def test_bad_drop_probability_rejected():
    with _rejects("non_coop_drop_prob must be in [0, 1], got 1.5"):
        validate_scenario(make_scenario([make_node(0, 1, 1)], non_coop_drop_prob=1.5))


def test_zero_elapsed_rejected():
    with _rejects("elapsed time between position records must be > 0 (node 0)"):
        validate_scenario(make_scenario([make_node(0, 1, 1, elapsed=0.0)]))


INF, NAN = float("inf"), float("nan")


def _set_node(index, **fields):
    return lambda d: d["nodes"][index].update(fields)


# (change to the bundled scenario, the exact message of the invariant it breaks)
INVARIANTS = {
    "area-width-inf": (
        lambda d: d["area"].__setitem__(0, INF), "area width must be finite, got inf"
    ),
    "area-width-nan": (
        lambda d: d["area"].__setitem__(0, NAN), "area width must be finite, got nan"
    ),
    "area-height-inf": (
        lambda d: d["area"].__setitem__(1, INF), "area height must be finite, got inf"
    ),
    "area-height-nan": (
        lambda d: d["area"].__setitem__(1, NAN), "area height must be finite, got nan"
    ),
    "range-inf": (
        lambda d: d.update(transmission_range=INF), "transmission_range must be finite, got inf"
    ),
    "threshold-minus-inf": (
        lambda d: d.update(energy_threshold=-INF), "energy_threshold must be finite, got -inf"
    ),
    "negative-area": (
        lambda d: d.update(area=[-5, 10]), "area width and height must be >= 0, got -5x10"
    ),
    "range-zero": (
        lambda d: d.update(transmission_range=0), "transmission_range must be > 0, got 0"
    ),
    "negative-threshold": (
        lambda d: d.update(energy_threshold=-0.5), "energy_threshold must be >= 0, got -0.5"
    ),
    "drop-prob-above-one": (
        lambda d: d.update(non_coop_drop_prob=1.5),
        "non_coop_drop_prob must be in [0, 1], got 1.5",
    ),
    "drop-prob-nan": (
        lambda d: d.update(non_coop_drop_prob=NAN),
        "non_coop_drop_prob must be finite, got nan",
    ),
    "negative-seed": (lambda d: d.update(seed=-2), "seed must be >= 0, got -2"),
    "negative-id": (_set_node(0, id=-1), "node id must be a nonnegative integer, got -1"),
    "bool-id": (_set_node(0, id=True), "node id must be a nonnegative integer, got True"),
    "float-id": (_set_node(0, id=1.0), "node id must be a nonnegative integer, got 1.0"),
    "duplicate-id": (_set_node(1, id=0), "duplicate node id 0"),
    "outside-at-pos-t1": (
        _set_node(3, pos_t1=[150, 10]), "node 3 pos_t1 x 150 outside area [0, 100]"
    ),
    "outside-at-pos-t2": (
        _set_node(3, pos_t2=[10, 101]), "node 3 pos_t2 y 101 outside area [0, 100]"
    ),
    "energy-inf": (_set_node(3, energy=INF), "node 3 energy must be finite, got inf"),
    "negative-energy": (_set_node(3, energy=-3), "node 3 energy must be >= 0, got -3"),
    # the reader checks elapsed_time, which no field holds, under its own key
    "elapsed-nan": (lambda d: d.update(elapsed_time=NAN), "elapsed_time must be finite, got nan"),
    "elapsed-zero": (lambda d: d.update(elapsed_time=0), "elapsed_time must be > 0, got 0"),
}


@pytest.mark.parametrize("case", sorted(INVARIANTS))
def test_each_invariant_is_rejected_with_its_exact_message(tmp_path, capsys, case):
    doc = json.loads(PAPER_SCENARIO.read_text())
    change, message = INVARIANTS[case]
    change(doc)
    with pytest.raises(ScenarioValidationError) as excinfo:
        validate_scenario(scenario_from_dict(doc))
    assert str(excinfo.value) == message
    assert _validate(tmp_path, doc) == 2
    assert capsys.readouterr() == ("", f"error: invalid scenario: {message}\n")


def test_json_round_trip(paper_scenario):
    again = scenario_from_json(scenario_to_json(paper_scenario))
    assert again == paper_scenario


def test_round_trip_preserves_integer_inputs():
    text = PAPER_SCENARIO.read_text()
    config = scenario_from_json(text)
    n3 = config.node_map()[3]
    assert n3.mobility_record.pos_t2.x == 34.0
    assert n3.energy == 300.0


def test_optional_keys_take_defaults():
    doc = {
        "nodes": [],
        "area": [50, 50],
        "transmission_range": 10,
        "energy_threshold": 0,
    }
    config = scenario_from_dict(doc)
    assert config.distance_metric is DistanceMetric.MANHATTAN
    assert config.mobility_metric is MobilityMetric.EUCLIDEAN_RATE
    assert config.threshold_strict is True
    assert config.non_coop_drop_prob == 1.0
    assert config.rng_seed == 0


def test_missing_required_key_is_format_error():
    with _rejects("missing required keys: area, transmission_range, energy_threshold"):
        scenario_from_dict({"nodes": []})


def test_malformed_node_entry_is_format_error():
    doc = {
        "nodes": [{"id": 0, "pos_t1": [1], "pos_t2": [1, 2], "energy": 5}],
        "area": [10, 10],
        "transmission_range": 5,
        "energy_threshold": 0,
    }
    with _rejects("node 0: pos_t1 and pos_t2 must each be [x, y], got [1] and [1, 2]"):
        scenario_from_dict(doc)


# Each change to a small document that makes its message, from the reader or
# from validation, quote an int past the str() digit limit, which only a dict
# built in Python can hold, and the message: the int, or the container that
# holds it, is described and never printed.
HUGE = 10**5000
SMALL_DOC = {
    "nodes": [{"id": 0, "pos_t1": [1, 2], "pos_t2": [1, 2], "energy": 5}],
    "area": [10, 10],
    "transmission_range": 5,
    "energy_threshold": 0,
}
_POS = {"pos_t1": [1, 2], "pos_t2": [1, 2]}
LONG = "an integer of more than 40 digits"
UNPRINTABLE_INTS = {
    "node-id": (
        {"nodes": [{"id": HUGE, "pos_t1": [1], "pos_t2": [1, 2], "energy": 5}]},
        f"node {LONG}: pos_t1 and pos_t2 must each be [x, y], got [1] and [1, 2]",
    ),
    "node-id-missing-a-key": (
        {"nodes": [{"id": HUGE, **_POS}]}, f"node {LONG}: missing key 'energy'"
    ),
    "node-key": (
        {"nodes": [{"id": 0, **_POS, "energy": 5, HUGE: 0}]}, f"node 0: unknown keys {LONG}"
    ),
    "node-key-for-a-missing-one": (
        {"nodes": [{"id": 0, **_POS, HUGE: 5}]}, f"node 0: unknown keys {LONG}"
    ),
    "position": (
        {"nodes": [{"id": 0, "pos_t1": [HUGE, "x"], "pos_t2": [1, 2], "energy": 5}]},
        f"node 0: positions and energy must be numbers, got a tuple holding {LONG}",
    ),
    "area": ({"area": [HUGE]}, f"area must be [width, height], got a list holding {LONG}"),
    "metric": (
        {"distance_metric": HUGE},
        f"distance_metric must be one of 'manhattan', 'euclidean', got {LONG}",
    ),
    "scenario-key": ({HUGE: 0}, f"scenario: unknown keys {LONG}"),
}


@pytest.mark.parametrize("case", sorted(UNPRINTABLE_INTS))
def test_an_int_too_long_to_print_is_named(case):
    changes, message = UNPRINTABLE_INTS[case]
    with _rejects(message):
        validate_scenario(scenario_from_dict({**SMALL_DOC, **changes}))


# Configs built in Python whose invariant messages would quote an int past the
# str() digit limit, and the message that names it: a number that must fit a
# float is named by its key, an id or the seed is described.
UNPRINTABLE_CONFIGS = {
    "duplicate-id": (
        lambda: make_scenario([make_node(HUGE, 1, 1), make_node(HUGE, 2, 2)]),
        f"duplicate node id {LONG}",
    ),
    "negative-id": (
        lambda: make_scenario([make_node(-HUGE, 1, 1)]),
        f"node id must be a nonnegative integer, got {LONG}",
    ),
    "id-of-a-node-outside-the-area": (
        lambda: make_scenario([make_node(HUGE, 150, 1)]),
        f"node {LONG} pos_t1 x 150 outside area [0, 100.0]",
    ),
    "position": (
        lambda: make_scenario([make_node(0, HUGE, 1)]),
        "node 0 pos_t1 is an integer too large for a float",
    ),
    "drop-probability": (
        lambda: make_scenario([make_node(0, 1, 1)], non_coop_drop_prob=HUGE),
        "non_coop_drop_prob is an integer too large for a float",
    ),
    "seed": (
        lambda: make_scenario([make_node(0, 1, 1)], rng_seed=-HUGE),
        f"seed must be >= 0, got {LONG}",
    ),
}


@pytest.mark.parametrize("case", sorted(UNPRINTABLE_CONFIGS))
def test_validation_names_an_int_too_long_to_print(case):
    build, message = UNPRINTABLE_CONFIGS[case]
    with _rejects(message):
        validate_scenario(build())


def test_quoted_shows_an_int_of_up_to_40_digits_and_describes_a_longer_one():
    assert quoted(10**40 - 1) == "9" * 40
    assert quoted(-(10**40 - 1)) == "-" + "9" * 40
    assert quoted(10**40) == quoted(-(10**40)) == LONG
    assert quoted(HUGE) == quoted(-HUGE) == LONG
    assert quoted([HUGE]) == f"a list holding {LONG}"
    assert quoted((1, HUGE)) == f"a tuple holding {LONG}"


def test_quoted_cuts_a_long_repr_at_36_characters():
    assert quoted("x" * 1000) == "'" + "x" * 32 + "..."
    assert quoted([10**50]) == "[1" + "0" * 31 + "..."  # 32 of its 51 digits
    assert quoted("x" * 34) == repr("x" * 34)  # 36 characters, kept whole


@pytest.mark.parametrize(
    "value", [1.5, -0.0, 1e308, math.nan, math.inf, -math.inf, True, False, None,
              Protocol.AODV, Protocol.COAODV],
)
def test_quoted_is_the_repr_of_a_short_value(value):
    assert quoted(value) == repr(value)


def test_validation_names_an_area_that_is_no_pair():
    with _rejects("area must be [width, height], got (1.0, 2.0, 3.0)"):
        validate_scenario(make_scenario([], area=(1.0, 2.0, 3.0)))


# (ScenarioConfig field, value set from Python, the message that names it)
PYTHON_MISUSE = {
    "string-range": ("transmission_range", "20", "transmission_range must be a number, got '20'"),
    "none-drop-probability": (
        "non_coop_drop_prob", None, "non_coop_drop_prob must be a number, got None"
    ),
    "range-past-float-range": (
        "transmission_range", 10**400, "transmission_range is an integer too large for a float"
    ),
    "string-flag": ("threshold_strict", "no", "threshold_strict must be true or false, got 'no'"),
    "int-flag": ("threshold_strict", 1, "threshold_strict must be true or false, got 1"),
    "fractional-seed": ("rng_seed", 1.5, "seed must be an integer, got 1.5"),
    "bool-threshold": ("energy_threshold", True, "energy_threshold must be a number, got True"),
    "unknown-distance-metric": (
        "distance_metric",
        "chebyshev",
        "distance_metric must be one of 'manhattan', 'euclidean', got 'chebyshev'",
    ),
    # a metric is its enum member: a name would compare unequal to it where it is tested
    "distance-metric-name": (
        "distance_metric",
        "euclidean",
        "distance_metric must be one of 'manhattan', 'euclidean', got 'euclidean'",
    ),
    "unknown-mobility-metric": (
        "mobility_metric",
        "x",
        "mobility_metric must be one of 'euclidean_rate', 'manhattan_rate', got 'x'",
    ),
    "area-of-three": (
        "area", (100.0, 100.0, 5.0), "area must be [width, height], got (100.0, 100.0, 5.0)"
    ),
    "nodes-none": ("nodes", None, "nodes must be a tuple of NodeState, got None"),
}


@pytest.mark.parametrize("case", sorted(PYTHON_MISUSE))
def test_a_config_built_in_python_is_checked_as_a_file_is(paper_scenario, case):
    field, value, message = PYTHON_MISUSE[case]
    with _rejects(message):
        validate_scenario(dataclasses.replace(paper_scenario, **{field: value}))


def test_a_node_built_in_python_is_checked_as_a_file_is(paper_scenario):
    node = paper_scenario.nodes[3]
    for changed, message in (
        (dataclasses.replace(node, energy="300"),
         "node 3: positions and energy must be numbers, got (30, 10, 34, 10, '300')"),
        (dataclasses.replace(node, energy=-(10**400)),
         "node 3 energy is an integer too large for a float"),
        (dataclasses.replace(
            node, mobility_record=dataclasses.replace(node.mobility_record, elapsed=False)),
         "node 3 elapsed time must be a number, got False"),
    ):
        nodes = tuple(changed if n is node else n for n in paper_scenario.nodes)
        with _rejects(message):
            validate_scenario(dataclasses.replace(paper_scenario, nodes=nodes))


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(threshold_strict="no"), "threshold_strict must be true or false, got 'no'"),
        (dict(non_coop_drop_prob="0.5"), "non_coop_drop_prob must be a number, got '0.5'"),
        (dict(elapsed_time="x"), "elapsed_time must be a number, got 'x'"),
    ],
)
def test_a_type_message_reads_the_same_for_a_file(tmp_path, capsys, change, message):
    doc = {**json.loads(PAPER_SCENARIO.read_text()), **change}
    assert _validate(tmp_path, doc) == 2
    assert capsys.readouterr() == ("", f"error: invalid scenario: {message}\n")


# elapsed_time in a document with no nodes, which no field holds: (the value
# as JSON writes it, the message that names it)
NO_NODE_ELAPSED = {
    "nan": ("NaN", "elapsed_time must be finite, got nan"),
    "negative": ("-1", "elapsed_time must be > 0, got -1"),
    "zero": ("0", "elapsed_time must be > 0, got 0"),
    "past-float-range": ("1" + "0" * 400, "elapsed_time is an integer too large for a float"),
}


@pytest.mark.parametrize("case", sorted(NO_NODE_ELAPSED))
def test_elapsed_time_is_checked_without_nodes(tmp_path, capsys, case):
    value, message = NO_NODE_ELAPSED[case]
    text = (
        '{"nodes": [], "area": [1, 1], "transmission_range": 1, "energy_threshold": 0, '
        f'"elapsed_time": {value}}}'
    )
    with _rejects(message):
        scenario_from_json(text)
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: invalid scenario: {message}\n")


def test_a_file_keeps_its_numbers_as_written(paper_scenario):
    assert paper_scenario.transmission_range == 20
    assert type(paper_scenario.transmission_range) is int
    assert paper_scenario.non_coop_drop_prob == 1.0
    assert type(paper_scenario.non_coop_drop_prob) is float
    assert {type(n.energy) for n in paper_scenario.nodes} == {int}


def test_non_object_document_is_format_error():
    with _rejects("scenario document must be an object, got list"):
        scenario_from_json(json.dumps([1, 2, 3]))


BIG = int("1" + "0" * 400)  # a JSON integer that no float can hold

# (change to the bundled scenario, the message that names the key)
NAMED_KEYS = {
    "distance_metric": (
        lambda d: d.update(distance_metric="x"),
        "distance_metric must be one of 'manhattan', 'euclidean', got 'x'",
    ),
    "mobility_metric": (
        lambda d: d.update(mobility_metric="x"),
        "mobility_metric must be one of 'euclidean_rate', 'manhattan_rate', got 'x'",
    ),
    "transmission_range": (
        lambda d: d.update(transmission_range=BIG),
        "transmission_range is an integer too large for a float",
    ),
    "energy_threshold": (
        lambda d: d.update(energy_threshold=-BIG),
        "energy_threshold is an integer too large for a float",
    ),
    "area": (
        lambda d: d["area"].__setitem__(1, BIG), "area height is an integer too large for a float"
    ),
    "elapsed_time": (
        lambda d: d.update(elapsed_time=BIG), "elapsed_time is an integer too large for a float"
    ),
    "pos_t1": (
        lambda d: d["nodes"][3]["pos_t1"].__setitem__(1, BIG),
        "node 3 pos_t1 is an integer too large for a float",
    ),
    "pos_t2": (
        lambda d: d["nodes"][4]["pos_t2"].__setitem__(0, -BIG),
        "node 4 pos_t2 is an integer too large for a float",
    ),
    "non_coop_drop_prob": (
        lambda d: d.update(non_coop_drop_prob=BIG),
        "non_coop_drop_prob is an integer too large for a float",
    ),
    "energy": (
        lambda d: d["nodes"][3].update(energy=BIG),
        "node 3 energy is an integer too large for a float",
    ),
}


def _validate(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return main(["validate", str(path)])


@pytest.mark.parametrize("key", sorted(NAMED_KEYS))
def test_bad_metric_names_and_oversized_numbers_name_their_key(tmp_path, capsys, key):
    doc = json.loads(PAPER_SCENARIO.read_text())
    change, message = NAMED_KEYS[key]
    change(doc)
    assert _validate(tmp_path, doc) == 2
    assert capsys.readouterr().err == f"error: invalid scenario: {message}\n"


def test_route_invariants_enforced():
    for path, hops, stability, message in [
        ((), -1, (), "route path must be nonempty"),  # hop_count -1 passes the other checks
        ((0, 1), 2, (), "hop_count must equal len(path) - 1"),
        ((0, 1, 0), 2, (True,), "route path must not repeat nodes"),
        ((0, 1, 2), 2, (True, True),
         "route_stability needs one flag per intermediate of (0, 1, 2)"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Route(path=path, hop_count=hops, route_stability=stability)
    route = Route(path=(0, 1, 2), hop_count=2, route_stability=(False,))
    assert not route.fully_cooperative
    assert Route(path=(0, 1, 2), hop_count=2, route_stability=(True,)).fully_cooperative
    assert Route(path=(3,), hop_count=0, route_stability=()).fully_cooperative


def test_weight_profile_helpers():
    canonical = WeightProfile(0.5, 0.25, 0.25)
    assert canonical.is_normalized()
    assert not WeightProfile(0.5, 0.5, 0.25).is_normalized()


def test_metrics_pdr_definition():
    assert FlowMetrics(0, 1, 2, 10, 4).packet_delivery_ratio == 0.4
    assert FlowMetrics(0, 1, None, 0, 0).packet_delivery_ratio is None
    assert math.isclose(FlowMetrics(0, 1, 1, 3, 1).packet_delivery_ratio, 1 / 3)


def test_run_totals_are_read_off_the_flows():
    flows = (FlowMetrics(0, 9, 4, 40, 10), FlowMetrics(0, 9, None, 0, 0, "no_route"))
    assert SimMetrics(Protocol.AODV, flows).packets_sent == 40
    assert SimMetrics(Protocol.AODV, (*flows, FlowMetrics(4, 9, 2, 7, 7))).packets_sent == 47
    assert SimMetrics(Protocol.COAODV, ()).packets_sent == 0


def test_result_records_are_immutable():
    flow = FlowMetrics(0, 9, 4, 40, 10)
    metrics = SimMetrics(Protocol.AODV, (flow,))
    with pytest.raises(AttributeError):
        flow.packets_delivered = 40
    with pytest.raises(AttributeError):
        metrics.per_flow = ()
    assert flow.packets_delivered == 10 and metrics.per_flow == (flow,)


def test_result_record_reprs_name_every_field():
    refused = FlowMetrics(0, 9, None, 0, 0, "no_route")
    assert repr(refused) == (
        "FlowMetrics(source=0, destination=9, hop_count=None, packets_sent=0, "
        "packets_delivered=0, failure='no_route')"
    )
    assert repr(SimMetrics(Protocol.COAODV, (refused,))) == (
        f"SimMetrics(protocol=<Protocol.COAODV: 'coaodv'>, per_flow=({refused!r},))"
    )


def test_equal_result_records_hash_equal():
    flow, same = FlowMetrics(0, 9, 4, 40, 10), FlowMetrics(0, 9, 4, 40, 10)
    assert flow == same and hash(flow) == hash(same)
    assert flow != FlowMetrics(0, 9, 4, 40, 11)
    assert flow == (0, 9, 4, 40, 10, None)  # a NamedTuple equals the plain tuple of its values
    metrics, again = SimMetrics(Protocol.AODV, (flow,)), SimMetrics(Protocol.AODV, (same,))
    assert metrics == again and hash(metrics) == hash(again)
    assert len({metrics, again, SimMetrics(Protocol.COAODV, (flow,))}) == 2
