import copy
import dataclasses
import inspect
import json
import math
import pickle
import re

import pytest

from coaodv_sim import model
from coaodv_sim.cli import main
from coaodv_sim.errors import ScenarioValidationError, WeightsNotNormalized, quoted
from coaodv_sim.model import (
    DistanceMetric,
    FlowMetrics,
    MobilityMetric,
    MobilityRecord,
    NodeState,
    Position,
    Protocol,
    Route,
    ScenarioConfig,
    SimMetrics,
    WeightProfile,
    scenario_from_dict,
    scenario_from_json,
    validate_scenario,
)

from .conftest import PAPER_SCENARIO, make_node, make_scenario, run_document, scenario_to_json
from .test_argv import ARGV


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


# a config built in Python, not read from a document, is checked by the same rules
def test_duplicate_id_names_the_offender():
    with _rejects("duplicate node id 3"):
        make_scenario([make_node(3, 10, 10), make_node(3, 20, 20)])


def test_negative_id_rejected():
    with _rejects("node id must be a nonnegative integer, got -1"):
        validate_scenario(make_scenario([make_node(-1, 10, 10)]))


def test_node_outside_area_rejected():
    with _rejects("node 0 pos_t1 x 150 outside area [0, 100.0]"):
        validate_scenario(make_scenario([make_node(0, 150, 10)]))


def test_second_epoch_outside_area_rejected():
    with _rejects("node 0 pos_t2 y 101 outside area [0, 100.0]"):
        validate_scenario(make_scenario([make_node(0, 10, 10, 10, 101)]))


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
BIG = int("1" + "0" * 400)  # a JSON integer that no float can hold


def _set(**fields):
    return lambda d: d.update(fields)


def _set_node(index, **fields):
    return lambda d: d["nodes"][index].update(fields)


def _set_area(index, value):
    return lambda d: d["area"].__setitem__(index, value)


# Each rejected scenario document: a change to the bundled scenario, and the
# exact message of the rule it breaks. A new rejected document goes here.
REJECTED_DOCUMENTS = {
    # the document's shape and keys, which the reader checks
    "area-not-a-pair": (
        _set(area=[100, 100, 7]), "area must be [width, height], got [100, 100, 7]"
    ),
    "area-null": (_set(area=None), "area must be [width, height], got None"),
    "nodes-an-object": (
        _set(nodes={"a": 1}), "nodes must be an array of node objects, got {'a': 1}"
    ),
    "nodes-null": (_set(nodes=None), "nodes must be an array of node objects, got None"),
    # not read as an empty network
    "nodes-an-empty-object": (_set(nodes={}), "nodes must be an array of node objects, got {}"),
    "node-an-array": (
        lambda d: d["nodes"].__setitem__(2, [1, 2, 3, 4]),
        "nodes[2] must be an object, got [1, 2, 3, 4]",
    ),
    "pos_t1-not-a-pair": (
        lambda d: d["nodes"][0]["pos_t1"].append(3),
        "node 0: pos_t1 and pos_t2 must each be [x, y], got [10, 10, 3] and [10, 10]",
    ),
    "pos_t2-not-a-pair": (
        _set_node(4, pos_t2=[10]),
        "node 4: pos_t1 and pos_t2 must each be [x, y], got [30, 30] and [10]",
    ),
    "pos_t1-a-number": (
        _set_node(0, pos_t1=5), "node 0: pos_t1 and pos_t2 must each be [x, y], got 5 and [10, 10]"
    ),
    "misspelt-top-level-key": (
        _set(non_coop_drop_probability=0.5), "scenario: unknown keys 'non_coop_drop_probability'"
    ),
    "extra-node-key": (_set_node(2, battery=900), "node 2: unknown keys 'battery'"),
    # four keys, one misspelt: the node's key count alone does not pass it
    "misspelt-node-key": (
        lambda d: d["nodes"][2].update(enrgy=d["nodes"][2].pop("energy")),
        "node 2: unknown keys 'enrgy'",
    ),
    "node-without-id": (lambda d: d["nodes"][5].pop("id"), "nodes[5]: missing key 'id'"),
    "node-with-an-unknown-key-for-its-id": (
        lambda d: (d["nodes"][0].pop("id"), d["nodes"][0].update(zz=1)),
        "nodes[0]: unknown keys 'zz'",
    ),
    "node-without-energy": (lambda d: d["nodes"][5].pop("energy"), "node 5: missing key 'energy'"),
    # the reader checks elapsed_time, which no field holds, under its own key
    "elapsed-nan": (_set(elapsed_time=NAN), "elapsed_time must be finite, got nan"),
    "infinite-elapsed-time": (_set(elapsed_time=INF), "elapsed_time must be finite, got inf"),
    "elapsed-zero": (_set(elapsed_time=0), "elapsed_time must be > 0, got 0"),
    "elapsed-past-float-range": (
        _set(elapsed_time=BIG), "elapsed_time is an integer too large for a float"
    ),
    "string-elapsed-time": (_set(elapsed_time="x"), "elapsed_time must be a number, got 'x'"),
    # a value of the wrong type
    "strict-as-string": (
        _set(threshold_strict="false"), "threshold_strict must be true or false, got 'false'"
    ),
    "strict-as-a-word": (
        _set(threshold_strict="no"), "threshold_strict must be true or false, got 'no'"
    ),
    "fractional-seed": (_set(seed=1.9), "seed must be an integer, got 1.9"),
    "half-integer-seed": (_set(seed=1.5), "seed must be an integer, got 1.5"),
    "bool-seed": (_set(seed=True), "seed must be an integer, got True"),
    "infinite-seed": (_set(seed=INF), "seed must be an integer, got inf"),
    "string-drop-probability": (
        _set(non_coop_drop_prob="0.5"), "non_coop_drop_prob must be a number, got '0.5'"
    ),
    "string-range": (
        _set(transmission_range="20"), "transmission_range must be a number, got '20'"
    ),
    "bool-energy": (
        _set_node(3, energy=True),
        "node 3: positions and energy must be numbers, got (30, 10, 34, 10, True)",
    ),
    "string-energy": (
        _set_node(0, energy="1000"),
        "node 0: positions and energy must be numbers, got (10, 10, 10, 10, '1000')",
    ),
    "bool-id": (_set_node(0, id=True), "node id must be a nonnegative integer, got True"),
    "float-id": (_set_node(0, id=1.0), "node id must be a nonnegative integer, got 1.0"),
    "unknown-distance-metric": (
        _set(distance_metric="x"),
        "distance_metric must be one of 'manhattan', 'euclidean', got 'x'",
    ),
    "unknown-mobility-metric": (
        _set(mobility_metric="x"),
        "mobility_metric must be one of 'euclidean_rate', 'manhattan_rate', got 'x'",
    ),
    # a value too long to show whole, cut at 36 characters
    "long-area": (
        _set(area=[100] * 5000),
        "area must be [width, height], got [100, 100, 100, 100, 100, 100, 10...",
    ),
    "long-metric": (
        _set(distance_metric="x" * 20000),
        "distance_metric must be one of 'manhattan', 'euclidean', got '" + "x" * 32 + "...",
    ),
    # a number that is not finite
    "area-width-inf": (_set_area(0, INF), "area width must be finite, got inf"),
    "area-width-nan": (_set_area(0, NAN), "area width must be finite, got nan"),
    "area-height-inf": (_set_area(1, INF), "area height must be finite, got inf"),
    "area-height-nan": (_set_area(1, NAN), "area height must be finite, got nan"),
    "infinite-area-and-position": (
        lambda d: (d.update(area=[INF, INF]), d["nodes"][0].update(pos_t1=[INF, 0])),
        "area width must be finite, got inf",
    ),
    "infinite-position": (_set_node(0, pos_t1=[INF, 0]), "node 0 pos_t1 must be finite, got inf"),
    "nan-position": (_set_node(0, pos_t2=[10, NAN]), "node 0 pos_t2 must be finite, got nan"),
    "range-inf": (_set(transmission_range=INF), "transmission_range must be finite, got inf"),
    "nan-range": (_set(transmission_range=NAN), "transmission_range must be finite, got nan"),
    "infinite-threshold": (_set(energy_threshold=INF), "energy_threshold must be finite, got inf"),
    "threshold-minus-inf": (
        _set(energy_threshold=-INF), "energy_threshold must be finite, got -inf"
    ),
    "infinite-drop-probability": (
        _set(non_coop_drop_prob=INF), "non_coop_drop_prob must be finite, got inf"
    ),
    "drop-prob-nan": (_set(non_coop_drop_prob=NAN), "non_coop_drop_prob must be finite, got nan"),
    "energy-inf": (_set_node(3, energy=INF), "node 3 energy must be finite, got inf"),
    "nan-energy": (_set_node(3, energy=NAN), "node 3 energy must be finite, got nan"),
    # an integer past float range, named by its key
    "range-past-float-range": (
        _set(transmission_range=BIG), "transmission_range is an integer too large for a float"
    ),
    "threshold-past-float-range": (
        _set(energy_threshold=-BIG), "energy_threshold is an integer too large for a float"
    ),
    "area-past-float-range": (
        _set_area(1, BIG), "area height is an integer too large for a float"
    ),
    "pos_t1-past-float-range": (
        lambda d: d["nodes"][3]["pos_t1"].__setitem__(1, BIG),
        "node 3 pos_t1 is an integer too large for a float",
    ),
    "pos_t2-past-float-range": (
        lambda d: d["nodes"][4]["pos_t2"].__setitem__(0, -BIG),
        "node 4 pos_t2 is an integer too large for a float",
    ),
    "drop-prob-past-float-range": (
        _set(non_coop_drop_prob=BIG), "non_coop_drop_prob is an integer too large for a float"
    ),
    "energy-past-float-range": (
        _set_node(3, energy=BIG), "node 3 energy is an integer too large for a float"
    ),
    # an integer of more than 40 digits, described rather than shown
    "huge-seed": (_set(seed=-BIG), "seed must be >= 0, got an integer of more than 40 digits"),
    "huge-id": (
        _set_node(0, id=-BIG),
        "node id must be a nonnegative integer, got an integer of more than 40 digits",
    ),
    "huge-threshold": (
        _set(energy_threshold=-(10**300)),
        "energy_threshold must be >= 0, got an integer of more than 40 digits",
    ),
    # the longest integers a message shows as written, and a coordinate outside them
    "forty-digit-position": (
        lambda d: (
            d["nodes"][0].update(id=10**40 - 1),
            d.update(area=[10**40 - 2] * 2),
            d["nodes"][0]["pos_t1"].__setitem__(1, -(10**40 - 1)),
        ),
        f"node {10**40 - 1} pos_t1 y {-(10**40 - 1)} outside area [0, {10**40 - 2}]",
    ),
    # a value outside its bounds
    "negative-area": (_set(area=[-5, 10]), "area width and height must be >= 0, got -5x10"),
    "negative-width": (_set(area=[-1, 10]), "area width and height must be >= 0, got -1x10"),
    "negative-height": (_set(area=[10, -1]), "area width and height must be >= 0, got 10x-1"),
    "negative-width-and-height": (
        _set(area=[-5, -5]), "area width and height must be >= 0, got -5x-5"
    ),
    "range-zero": (_set(transmission_range=0), "transmission_range must be > 0, got 0"),
    "negative-threshold": (_set(energy_threshold=-0.5), "energy_threshold must be >= 0, got -0.5"),
    "drop-prob-above-one": (
        _set(non_coop_drop_prob=1.5), "non_coop_drop_prob must be in [0, 1], got 1.5"
    ),
    "negative-seed": (_set(seed=-2), "seed must be >= 0, got -2"),
    "negative-id": (_set_node(0, id=-1), "node id must be a nonnegative integer, got -1"),
    "duplicate-id": (_set_node(1, id=0), "duplicate node id 0"),
    "duplicate-of-a-later-id": (_set_node(1, id=3), "duplicate node id 3"),
    "outside-at-pos-t1": (
        _set_node(3, pos_t1=[150, 10]), "node 3 pos_t1 x 150 outside area [0, 100]"
    ),
    "outside-at-pos-t2": (
        _set_node(3, pos_t2=[10, 101]), "node 3 pos_t2 y 101 outside area [0, 100]"
    ),
    "negative-energy": (_set_node(3, energy=-3), "node 3 energy must be >= 0, got -3"),
}


def _document(case):
    """The bundled scenario with the change of REJECTED_DOCUMENTS[case] made."""
    doc = json.loads(PAPER_SCENARIO.read_text())
    REJECTED_DOCUMENTS[case][0](doc)
    return doc


# elapsed_time in a document with no nodes, which no field holds: (the value
# as JSON writes it, the message that names it)
NO_NODE_ELAPSED = {
    "nan": ("NaN", "elapsed_time must be finite, got nan"),
    "negative": ("-1", "elapsed_time must be > 0, got -1"),
    "zero": ("0", "elapsed_time must be > 0, got 0"),
    "past-float-range": ("1" + "0" * 400, "elapsed_time is an integer too large for a float"),
}


def _no_node_document(value):
    """The JSON text of a document with no nodes whose elapsed_time is `value`."""
    return (
        '{"nodes": [], "area": [1, 1], "transmission_range": 1, "energy_threshold": 0, '
        f'"elapsed_time": {value}}}'
    )


# Every rejected document of the two tables above, by test id: the text of a
# file that holds it, and its exact message. tests/test_dev_mode.py runs each.
REJECTED_TEXTS = {
    **{c: (json.dumps(_document(c)), row[1]) for c, row in REJECTED_DOCUMENTS.items()},
    **{
        f"no-node-elapsed-{c}": (_no_node_document(value), message)
        for c, (value, message) in NO_NODE_ELAPSED.items()
    },
}


@pytest.mark.parametrize("case", sorted(REJECTED_DOCUMENTS))
def test_each_invariant_is_rejected_with_its_exact_message(tmp_path, capsys, case):
    doc, message = _document(case), REJECTED_DOCUMENTS[case][1]
    with _rejects(message):
        scenario_from_dict(doc)
    for command in (["validate"], ["compare", "--flows", "0:9:5", "4:9:5"]):
        assert run_document(tmp_path, doc, *command) == 2
        assert capsys.readouterr() == ("", f"error: invalid scenario: {message}\n")


def _unchecked(doc):
    """The config that the reader builds from `doc` with validation skipped, or
    None if the reader rejects `doc` before any config is built."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "validate_scenario", lambda config: config)
        try:
            return scenario_from_dict(doc)
        except ScenarioValidationError:
            return None


PAST_THE_READER = [c for c in sorted(REJECTED_DOCUMENTS) if _unchecked(_document(c)) is not None]


@pytest.mark.parametrize("case", PAST_THE_READER)
def test_each_invariant_is_rejected_however_a_config_is_built(paper_scenario, case):
    unchecked, message = _unchecked(_document(case)), REJECTED_DOCUMENTS[case][1]
    values = {f.name: getattr(unchecked, f.name) for f in dataclasses.fields(unchecked)}
    for build in (
        lambda: ScenarioConfig(**values),
        lambda: dataclasses.replace(paper_scenario, **values),
        lambda: copy.copy(unchecked),
        lambda: copy.deepcopy(unchecked),
        lambda: pickle.loads(pickle.dumps(unchecked)),
    ):
        with _rejects(message):
            build()


def _repeated(inputs):
    """The groups of names in `inputs`, a dict of name to input, that share one input."""
    groups = {}
    for name, value in inputs.items():
        groups.setdefault(value, []).append(name)
    return [names for names in groups.values() if len(names) > 1]


def test_no_two_rows_of_a_rejected_input_table_are_one_input():
    # the rows of both document tables, each read back from its file's text
    documents = {c: json.loads(text) for c, (text, _) in REJECTED_TEXTS.items()}
    assert _repeated({c: json.dumps(d, sort_keys=True) for c, d in documents.items()}) == []
    assert _repeated({case: tuple(row[0]) for case, row in ARGV.items()}) == []


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
    "drop-prob-two": ("non_coop_drop_prob", 2.0, "non_coop_drop_prob must be in [0, 1], got 2.0"),
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
    "node-of-an-int": ("nodes", (1,), "nodes[0] must be a NodeState, got 1"),
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
        (dataclasses.replace(node, mobility_record=None),
         "node 3 mobility_record must be a MobilityRecord, got None"),
        (dataclasses.replace(node, mobility_record=MobilityRecord((1, 2), (1, 2))),
         "node 3 pos_t1 must be a Position, got (1, 2)"),
        (dataclasses.replace(node, mobility_record=MobilityRecord(Position(1, 2), [1, 2])),
         "node 3 pos_t2 must be a Position, got [1, 2]"),
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
    assert run_document(tmp_path, doc, "validate") == 2
    assert capsys.readouterr() == ("", f"error: invalid scenario: {message}\n")


@pytest.mark.parametrize("case", sorted(NO_NODE_ELAPSED))
def test_elapsed_time_is_checked_without_nodes(tmp_path, capsys, case):
    value, message = NO_NODE_ELAPSED[case]
    text = _no_node_document(value)
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
    assert WeightProfile(0.5, 0.25, 0.25).as_tuple() == (0.5, 0.25, 0.25)
    with pytest.raises(WeightsNotNormalized, match=r"got sum 1\.25$"):  # rejected when built
        WeightProfile(0.5, 0.5, 0.25)
    with pytest.raises(WeightsNotNormalized, match="^w_energy must be a finite number >= 0, got -1$"):
        dataclasses.replace(WeightProfile(0.5, 0.25, 0.25), w_energy=-1)
    # kept as written: an int stays an int, -0.0 passes as 0 does, a sum within the tolerance
    assert type(WeightProfile(1, 0, 0).w_distance) is int
    assert WeightProfile(-0.0, 1.0, 0).as_tuple() == (0, 1, 0)
    assert WeightProfile(0.5, 0.5, 5e-10).w_energy == 5e-10


# a profile built in Python, and its message
WEIGHT_CASES = [
    ((True, False, False), "w_distance must be a finite number >= 0, got True"),
    (("0.5", 0.25, 0.25), "w_distance must be a finite number >= 0, got '0.5'"),
    ((10**400, 0, 0),
     "w_distance must be a finite number >= 0, got an integer of more than 40 digits"),
    ((1e308, 1e308, 0), "weights must sum to 1 (within 1e-9), got sum inf"),
    ((1.5, -0.25, -0.25), "w_mobility must be a finite number >= 0, got -0.25"),
    ((0.5, 0.5, math.nan), "w_energy must be a finite number >= 0, got nan"),
    ((math.inf, 0, 0), "w_distance must be a finite number >= 0, got inf"),
    ((0.1, 0.2, 0.3), "weights must sum to 1 (within 1e-9), got sum 0.6"),
]


@pytest.mark.parametrize("weights, message", WEIGHT_CASES)
def test_a_weight_profile_is_checked_when_built(weights, message):
    with pytest.raises(WeightsNotNormalized, match=f"^{re.escape(message)}$"):
        WeightProfile(*weights)


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
    assert flow == (0, 9, 4, 40, 10, None)  # a namedtuple equals the plain tuple of its values
    metrics, again = SimMetrics(Protocol.AODV, (flow,)), SimMetrics(Protocol.AODV, (same,))
    assert metrics == again and hash(metrics) == hash(again)
    assert len({metrics, again, SimMetrics(Protocol.COAODV, (flow,))}) == 2
    for record in (flow, metrics):
        with pytest.raises(AttributeError):
            record.extra = 1  # no instance dict: __slots__ = ()


# each node record: its field values, its repr and its signature, as the
# generated dataclass methods give them
_RECORD = MobilityRecord(Position(1, 2), Position(3, 4.5), 2.0)
NODE_RECORDS = {
    "Position": (Position, (1.5, 2.5), "Position(x=1.5, y=2.5)", "(x: float, y: float) -> None"),
    "MobilityRecord": (
        MobilityRecord, (Position(1, 2), Position(3, 4.5), 2.0),
        "MobilityRecord(pos_t1=Position(x=1, y=2), pos_t2=Position(x=3, y=4.5), elapsed=2.0)",
        "(pos_t1: coaodv_sim.model.Position, pos_t2: coaodv_sim.model.Position, "
        "elapsed: float = 1.0) -> None",
    ),
    "NodeState": (
        NodeState, (7, _RECORD, 900.0), f"NodeState(id=7, mobility_record={_RECORD!r}, energy=900.0)",
        "(id: int, mobility_record: coaodv_sim.model.MobilityRecord, energy: float) -> None",
    ),
}


@pytest.mark.parametrize("name", list(NODE_RECORDS))
def test_the_node_records_keep_their_dataclass_contract(name):
    cls, values, text, signature = NODE_RECORDS[name]
    names = [f.name for f in dataclasses.fields(cls)]
    record, twin = cls(*values), cls(**dict(zip(names, values)))
    assert names == list(inspect.signature(cls).parameters)
    assert str(inspect.signature(cls, eval_str=True)) == signature
    assert repr(record) == text and [getattr(record, n) for n in names] == list(values)
    assert not hasattr(record, "__dict__")  # slotted: no instance dict
    for field, value in zip(names, values):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, field)
    assert twin == record and twin is not record and hash(twin) == hash(record)
    changed = dataclasses.replace(record, **{names[-1]: 3.0})
    assert changed != record and getattr(changed, names[-1]) == 3.0
    assert dataclasses.replace(changed, **{names[-1]: values[-1]}) == record
    copies = [pickle.loads(pickle.dumps(record, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in (*copies, copy.copy(record), copy.deepcopy(record)):
        assert type(other) is cls and other == record and repr(other) == text
    assert MobilityRecord(Position(0, 0), Position(0, 0)).elapsed == 1.0
