import random

import pytest

from coaodv_sim.classifier import classify_network
from coaodv_sim.cli import main
from coaodv_sim.coopmath import composite_score
from coaodv_sim.errors import AmbiguousProfile, WeightsNotNormalized
from coaodv_sim.model import NetworkType, WeightProfile


@pytest.mark.parametrize(
    "weights, expected",
    [
        ((0.5, 0.25, 0.25), NetworkType.DISTANCE_SENSITIVE),
        ((0.25, 0.5, 0.25), NetworkType.MOBILITY_SENSITIVE),
        ((0.25, 0.25, 0.5), NetworkType.ENERGY_SENSITIVE),
    ],
)
def test_canonical_profiles_map_to_their_network_type(weights, expected):
    result = classify_network(WeightProfile(*weights))
    assert result.network_type is expected


def test_dominant_weight_names_the_criterion():
    result = classify_network(WeightProfile(0.25, 0.5, 0.25))
    assert result.dominant_weight == "mobility"


def test_non_canonical_profile_classified_by_argmax():
    result = classify_network(WeightProfile(0.4, 0.35, 0.25))
    assert result.network_type is NetworkType.DISTANCE_SENSITIVE
    assert result.dominant_weight == "distance"


def test_tied_maximum_is_ambiguous():
    with pytest.raises(AmbiguousProfile):
        classify_network(WeightProfile(0.4, 0.4, 0.2))


def test_unnormalized_weights_rejected():
    with pytest.raises(WeightsNotNormalized):
        classify_network(WeightProfile(0.6, 0.3, 0.2))


def test_unnormalized_weights_report_their_exact_sum(capsys):
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right, 0.6 exactly summed
    w = WeightProfile(0.1, 0.2, 0.3)
    messages = []
    for reject in (lambda: classify_network(w), lambda: composite_score(0.5, 0.5, 0.5, w)):
        with pytest.raises(WeightsNotNormalized) as info:
            reject()
        messages.append(str(info.value))
    assert main(["classify", "--weights", "0.1,0.2,0.3"]) == 1
    messages.append(capsys.readouterr().err.strip())
    assert all(m.endswith("got sum 0.6") for m in messages), messages


def test_classification_invariant_under_rescaling():
    rng = random.Random(11)
    for _ in range(200):
        raw = sorted(rng.uniform(0.01, 1.0) for _ in range(3))
        if raw[2] - raw[1] < 1e-6:
            continue  # keep a clear strict maximum
        rng.shuffle(raw)
        total = sum(raw)
        base = WeightProfile(*(v / total for v in raw))
        scaled_total = sum(v * 3.7 for v in raw)
        rescaled = WeightProfile(*((v * 3.7) / scaled_total for v in raw))
        assert classify_network(base).network_type is classify_network(rescaled).network_type


def test_permuting_weight_roles_permutes_the_type():
    w1, w2, w3 = 0.5, 0.3, 0.2
    assert classify_network(WeightProfile(w1, w2, w3)).network_type is NetworkType.DISTANCE_SENSITIVE
    assert classify_network(WeightProfile(w3, w1, w2)).network_type is NetworkType.MOBILITY_SENSITIVE
    assert classify_network(WeightProfile(w2, w3, w1)).network_type is NetworkType.ENERGY_SENSITIVE
