import numpy as np
import pytest

from smoothclap.errors import (
    MissingThresholds,
    NonFiniteValue,
    TooFewValues,
    UnknownLabel,
)
from smoothclap.fixtures import synth_tone
from smoothclap.paralinguistics import Waveform, acoustic_profile
from smoothclap.tagging import (
    Bin,
    BinThresholds,
    TemplateSet,
    assign_bin,
    fit_bins,
    profile_feature_values,
    render_tags,
)
from smoothclap.artifacts import load_thresholds, save_thresholds


# --- fit_bins ---

def test_fit_bins_1_to_10():
    t = fit_bins(list(range(1, 11)), "x")
    assert (t.low, t.high) == (3.0, 7.0)


def test_fit_bins_constant_values():
    t = fit_bins([5.0, 5.0, 5.0, 5.0], "x")
    assert t.low == t.high == 5.0


def test_fit_bins_sort_invariance():
    shuffled = fit_bins([10, 1, 7, 3, 9, 2, 8, 4, 6, 5], "x")
    ordered = fit_bins(list(range(1, 11)), "x")
    assert (shuffled.low, shuffled.high) == (ordered.low, ordered.high)


def test_fit_bins_errors():
    with pytest.raises(TooFewValues):
        fit_bins([1.0, 2.0], "x")
    with pytest.raises(NonFiniteValue):
        fit_bins([1.0, float("nan"), 3.0], "x")


# --- assign_bin ---

@pytest.mark.parametrize(
    "value,expected",
    [(3.0, Bin.LOW), (2.0, Bin.LOW), (5.0, Bin.MID), (7.0, Bin.MID), (7.1, Bin.HIGH)],
)
def test_assign_bin_boundaries(value, expected):
    t = BinThresholds("x", 3.0, 7.0)
    assert assign_bin(value, t) is expected


def test_assign_bin_degenerate_thresholds():
    t = BinThresholds("x", 5.0, 5.0)
    assert assign_bin(5.0, t) is Bin.LOW
    assert assign_bin(5.1, t) is Bin.HIGH
    assert assign_bin(4.9, t) is Bin.LOW


def test_assign_bin_rejects_nan():
    with pytest.raises(NonFiniteValue):
        assign_bin(float("nan"), BinThresholds("x", 0.0, 1.0))


def test_assign_bin_monotone():
    rng = np.random.default_rng(2)
    t = BinThresholds("x", -0.4, 0.8)
    values = np.sort(rng.uniform(-2, 2, 200))
    bins = [assign_bin(float(v), t) for v in values]
    assert all(a <= b for a, b in zip(bins, bins[1:]))


def test_bin_occupancy_30_40_30():
    rng = np.random.default_rng(3)
    values = rng.permutation(np.linspace(-5.0, 5.0, 100))
    t = fit_bins(values, "x")
    counts = {b: 0 for b in Bin}
    for v in values:
        counts[assign_bin(float(v), t)] += 1
    assert abs(counts[Bin.LOW] - 30) <= 1
    assert abs(counts[Bin.MID] - 40) <= 1
    assert abs(counts[Bin.HIGH] - 30) <= 1


# --- render_tags ---

THRESHOLDS = {
    "arousal": BinThresholds("arousal", 0.3, 0.7),
    "valence": BinThresholds("valence", 0.3, 0.7),
    "dominance": BinThresholds("dominance", 0.3, 0.7),
    "pitch": BinThresholds("pitch", 150.0, 250.0),
    "intensity": BinThresholds("intensity", -30.0, -10.0),
    "jitter": BinThresholds("jitter", 0.005, 0.02),
    "shimmer": BinThresholds("shimmer", 0.02, 0.08),
    "duration": BinThresholds("duration", 1.0, 3.0),
}


def test_render_tags_full_record():
    profile = acoustic_profile(Waveform(synth_tone(300.0, 2.0, 0.5), 16000))
    record = render_tags(
        "u1",
        {"emotion": "happy", "gender": "female"},
        {"arousal": 0.9},
        profile,
        THRESHOLDS,
    )
    assert record.tags[0] == "happy"
    assert record.tags[1] == "female"
    assert "high arousal" in record.tags
    assert "high pitch" in record.tags
    assert record.bins["arousal"] == "high"
    assert record.bins["pitch"] == "high"


def test_render_tags_duration_only():
    record = render_tags("u2", None, None, {"duration": 2.0}, THRESHOLDS)
    assert record.tags == ["medium duration"]
    assert record.bins == {"duration": "mid"}


def test_render_tags_deterministic():
    args = ("u3", {"emotion": "sad"}, {"valence": 0.1}, {"pitch": 100.0}, THRESHOLDS)
    assert render_tags(*args) == render_tags(*args)


def test_render_tags_fixed_order():
    record = render_tags(
        "u4",
        {"emotion": "angry", "gender": "male"},
        {"arousal": 0.5, "valence": 0.1, "dominance": 0.9},
        {"pitch": 100.0, "intensity": -40.0, "jitter": 0.001, "shimmer": 0.5,
         "duration": 5.0},
        THRESHOLDS,
    )
    assert record.tags == [
        "angry",
        "male",
        "mid arousal",
        "low valence",
        "high dominance",
        "low pitch",
        "low intensity",
        "low jitter",
        "high shimmer",
        "long duration",
    ]


def test_render_tags_missing_thresholds():
    with pytest.raises(MissingThresholds):
        render_tags("u5", None, {"arousal": 0.5}, None, {})


def test_render_tags_unknown_label():
    templates = TemplateSet(emotions=frozenset({"happy", "sad"}))
    with pytest.raises(UnknownLabel):
        render_tags("u6", {"emotion": "elated"}, None, None, THRESHOLDS, templates)


def test_tags_stay_inside_closed_vocabulary():
    templates = TemplateSet(
        emotions=frozenset({"happy", "sad", "angry"}),
        genders=frozenset({"male", "female"}),
    )
    rng = np.random.default_rng(4)
    for _ in range(50):
        record = render_tags(
            "u",
            {"emotion": "angry", "gender": "female"},
            {d: float(rng.uniform(0, 1)) for d in ("arousal", "valence", "dominance")},
            {
                "pitch": float(rng.uniform(50, 400)),
                "intensity": float(rng.uniform(-60, 0)),
                "jitter": float(rng.uniform(0, 0.05)),
                "shimmer": float(rng.uniform(0, 0.2)),
                "duration": float(rng.uniform(0.1, 6.0)),
            },
            THRESHOLDS,
            templates,
        )
        assert record.tags
        assert len(record.tags) == len(set(record.tags))
        for tag in record.tags:
            assert templates.contains_tag(tag), tag


def test_profile_feature_values_keys():
    profile = acoustic_profile(Waveform(synth_tone(220.0, 1.0, 0.5), 16000))
    values = profile_feature_values(profile)
    assert sorted(values) == ["duration", "intensity", "jitter", "pitch", "shimmer"]
    assert values["duration"] == 1.0


# --- thresholds sidecar ---

def test_thresholds_roundtrip(tmp_path):
    path = tmp_path / "thresholds.json"
    save_thresholds(
        path,
        {"pitch": BinThresholds("pitch", 150.0, 250.0)},
        labels={"emotion": ["sad", "happy"]},
        meta={"seed": 7},
    )
    loaded, templates = load_thresholds(path)
    assert loaded["pitch"].low == 150.0
    assert loaded["pitch"].high == 250.0
    assert templates.emotions == frozenset({"happy", "sad"})
    assert templates.genders is None
