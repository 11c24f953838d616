import json
import math

import pytest

from coaodv_sim.errors import (
    DuplicateNodeId,
    InvalidNodeId,
    InvalidProbability,
    NegativeEnergy,
    NegativeThreshold,
    NodeOutsideArea,
    NonPositiveRange,
    ScenarioFormatError,
    ZeroElapsedTime,
)
from coaodv_sim.model import (
    DistanceMetric,
    MobilityMetric,
    Route,
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


def test_duplicate_id_names_the_offender():
    config = make_scenario([make_node(3, 10, 10), make_node(3, 20, 20)])
    with pytest.raises(DuplicateNodeId) as excinfo:
        validate_scenario(config)
    assert excinfo.value.node_id == 3
    assert "3" in str(excinfo.value)


def test_negative_id_rejected():
    with pytest.raises(InvalidNodeId):
        validate_scenario(make_scenario([make_node(-1, 10, 10)]))


def test_node_outside_area_rejected():
    with pytest.raises(NodeOutsideArea) as excinfo:
        validate_scenario(make_scenario([make_node(0, 150, 10)]))
    assert excinfo.value.node_id == 0


def test_second_epoch_outside_area_rejected():
    with pytest.raises(NodeOutsideArea):
        validate_scenario(make_scenario([make_node(0, 10, 10, 10, 101)]))


def test_nan_coordinate_rejected():
    with pytest.raises(NodeOutsideArea):
        validate_scenario(make_scenario([make_node(0, float("nan"), 10)]))


def test_nonpositive_range_rejected():
    with pytest.raises(NonPositiveRange):
        validate_scenario(make_scenario([make_node(0, 1, 1)], transmission_range=0))


def test_negative_threshold_rejected():
    with pytest.raises(NegativeThreshold):
        validate_scenario(make_scenario([make_node(0, 1, 1)], energy_threshold=-1))


def test_negative_energy_rejected():
    with pytest.raises(NegativeEnergy):
        validate_scenario(make_scenario([make_node(0, 1, 1, energy=-5)]))


def test_bad_drop_probability_rejected():
    with pytest.raises(InvalidProbability):
        validate_scenario(make_scenario([make_node(0, 1, 1)], non_coop_drop_prob=1.5))


def test_zero_elapsed_rejected():
    with pytest.raises(ZeroElapsedTime):
        validate_scenario(make_scenario([make_node(0, 1, 1, elapsed=0.0)]))


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
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict({"nodes": []})


def test_malformed_node_entry_is_format_error():
    doc = {
        "nodes": [{"id": 0, "pos_t1": [1], "pos_t2": [1, 2], "energy": 5}],
        "area": [10, 10],
        "transmission_range": 5,
        "energy_threshold": 0,
    }
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(doc)


def test_non_object_document_is_format_error():
    with pytest.raises(ScenarioFormatError):
        scenario_from_json(json.dumps([1, 2, 3]))


def test_route_invariants_enforced():
    with pytest.raises(ValueError):
        Route(path=(0, 1), hop_count=2, route_stability=())
    with pytest.raises(ValueError):
        Route(path=(0, 1, 0), hop_count=2, route_stability=(True,))
    with pytest.raises(ValueError):
        Route(path=(0, 1, 2), hop_count=2, route_stability=(True, True))
    route = Route(path=(0, 1, 2), hop_count=2, route_stability=(False,))
    assert not route.fully_cooperative
    assert Route(path=(0, 1, 2), hop_count=2, route_stability=(True,)).fully_cooperative
    assert Route(path=(3,), hop_count=0, route_stability=()).fully_cooperative


def test_weight_profile_helpers():
    canonical = WeightProfile(0.5, 0.25, 0.25)
    assert canonical.is_normalized()
    assert not WeightProfile(0.5, 0.5, 0.25).is_normalized()


def test_metrics_pdr_definition():
    from coaodv_sim.model import FlowMetrics

    assert FlowMetrics(0, 1, 2, 10, 4).packet_delivery_ratio == 0.4
    assert FlowMetrics(0, 1, None, 0, 0).packet_delivery_ratio is None
    assert math.isclose(FlowMetrics(0, 1, 1, 3, 1).packet_delivery_ratio, 1 / 3)
