import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FEATURE_TAGS, in_vocabulary, table_bins
from smoothclap.errors import (
    ConfigError,
    MissingThresholds,
    NonFiniteValue,
    SmoothClapError,
    TooFewValues,
    UnknownLabel,
)
from smoothclap.fixtures import synth_tone
from smoothclap.paralinguistics import Waveform, acoustic_profile
from smoothclap.tagging import (
    ACOUSTIC_FEATURES,
    BINNED_FEATURES,
    DIMENSION_FEATURES,
    LABEL_KINDS,
    OPEN_TEMPLATES,
    Bin,
    BinThresholds,
    FeatureTable,
    TemplateSet,
    fit_bins,
    fit_thresholds,
    render_tag_table,
    render_tags,
)
from smoothclap.artifacts import load_thresholds, save_thresholds, write_tags


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


# --- binning, through the table renderer ---

@pytest.mark.parametrize(
    "value,expected",
    [(3.0, Bin.LOW), (2.0, Bin.LOW), (5.0, Bin.MID), (7.0, Bin.MID), (7.1, Bin.HIGH)],
)
def test_bin_boundaries(value, expected):
    t = BinThresholds("x", 3.0, 7.0)
    assert table_bins([value], t) == [expected]


def test_bin_degenerate_thresholds():
    t = BinThresholds("x", 5.0, 5.0)
    assert table_bins([5.0, 5.1, 4.9], t) == [Bin.LOW, Bin.HIGH, Bin.LOW]


def test_inverted_thresholds_are_a_config_error():
    with pytest.raises(ConfigError, match="low threshold 2.0 exceeds high threshold 1.0"):
        BinThresholds("x", 2.0, 1.0)


def test_bin_rejects_nan():
    with pytest.raises(NonFiniteValue, match="cannot bin non-finite value nan"):
        table_bins([float("nan")], BinThresholds("x", 0.0, 1.0))


def test_bin_monotone():
    rng = np.random.default_rng(2)
    t = BinThresholds("x", -0.4, 0.8)
    values = np.sort(rng.uniform(-2, 2, 200))
    bins = table_bins(values, t)
    assert all(a <= b for a, b in zip(bins, bins[1:]))


def test_bin_occupancy_30_40_30():
    rng = np.random.default_rng(3)
    values = rng.permutation(np.linspace(-5.0, 5.0, 100))
    t = fit_bins(values, "x")
    counts = {b: 0 for b in Bin}
    for b in table_bins(values, t):
        counts[b] += 1
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
            assert in_vocabulary(tag, templates), tag


def test_the_table_renderer_emits_exactly_the_literal_feature_tags():
    # each binned feature at a value in each of its three bins
    values = (0.0, 0.5, 1.0)
    dims = [dict.fromkeys(DIMENSION_FEATURES, v) for v in values]
    acoustics = [dict.fromkeys(ACOUSTIC_FEATURES, v) for v in values]
    thresholds = {f: BinThresholds(f, 0.25, 0.75) for f in BINNED_FEATURES}
    table = FeatureTable.from_records(["a", "b", "c"], [{}] * 3, dims, acoustics)
    emitted = {tag for tags in render_tag_table(table, thresholds).tags for tag in tags}
    assert emitted == FEATURE_TAGS and len(FEATURE_TAGS) == 24
    templates = TemplateSet(emotions=frozenset({"happy"}), genders=frozenset({"female"}))
    for tag in sorted(FEATURE_TAGS) + ["happy", "female"]:
        assert in_vocabulary(tag, templates), tag
    for tag in (
        "mid pitch", "normal arousal", "high duration", "short pitch", "low  pitch",
        "Low pitch", " low pitch", "low pitch ", "pitch", "low", "", "sad", "male",
    ):
        assert not in_vocabulary(tag, templates), tag


def test_render_tags_bins_the_five_binned_fields_of_a_profile():
    profile = acoustic_profile(Waveform(synth_tone(220.0, 1.0, 0.5), 16000))
    # only a duration of exactly 1.0 s lies in the middle bin
    thresholds = {**THRESHOLDS, "duration": BinThresholds("duration", np.nextafter(1.0, 0.0), 1.0)}
    record = render_tags("u", None, None, profile, thresholds)
    assert sorted(record.bins) == ["duration", "intensity", "jitter", "pitch", "shimmer"]
    assert record.bins["duration"] == "mid" and "medium duration" in record.tags


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


# --- the table form against the per-record renderer --------------------------------

def oracle_assign_bin(value, thresholds):
    if not np.isfinite(value):
        raise NonFiniteValue(f"cannot bin non-finite value {value}")
    if value <= thresholds.low:
        return Bin.LOW
    if value > thresholds.high:
        return Bin.HIGH
    return Bin.MID


def oracle_render_tags(utterance_id, labels, dims, acoustics, thresholds,
                       templates=OPEN_TEMPLATES) -> dict:
    """The renderer of earlier versions, one record and one bin call per value
    at a time: the oracle of render_tag_table, as a tags-file record."""
    labels = labels or {}
    dims = dims or {}
    acoustics = acoustics or {}
    tags, bins = [], {}
    for kind in LABEL_KINDS:
        if kind in labels:
            tags.append(templates.check_label(kind, labels[kind]))
    for feature in DIMENSION_FEATURES:
        if feature not in dims:
            continue
        if feature not in thresholds:
            raise MissingThresholds(f"no thresholds fitted for {feature}")
        b = oracle_assign_bin(float(dims[feature]), thresholds[feature])
        bins[feature] = b.key
        tags.append(f"{('low', 'mid', 'high')[int(b)]} {feature}")
    for feature in ACOUSTIC_FEATURES:
        if feature not in acoustics:
            continue
        if feature not in thresholds:
            raise MissingThresholds(f"no thresholds fitted for {feature}")
        b = oracle_assign_bin(float(acoustics[feature]), thresholds[feature])
        bins[feature] = b.key
        if feature == "duration":
            tags.append(f"{('short', 'medium', 'long')[int(b)]} duration")
        else:
            tags.append(f"{('low', 'normal', 'high')[int(b)]} {feature}")
    seen = set()
    unique = [t for t in tags if not (t in seen or seen.add(t))]
    return {"id": utterance_id, "tags": unique, "bins": bins}


# labels that equal template tags exercise the dedupe
LABEL_POOL = ["sad", "happy", "f", "high pitch", "low arousal", "mid valence",
              "medium duration", "normal jitter", "sad"]
CUTS = [-1.0, 0.0, 0.5, 2.0]


@st.composite
def tag_corpora(draw, faults=False):
    """(rows, thresholds, templates); a row is (id, labels, dims, acoustics).
    Values fall on the cut points often, some cut pairs are equal, and rows
    lack features at random. With ``faults`` a feature may have no
    thresholds, a value may be NaN or infinite, and labels may be unknown."""
    thresholds = {}
    for feature in BINNED_FEATURES:
        if faults and draw(st.integers(0, 7)) == 0:
            continue
        low = draw(st.sampled_from(CUTS))
        thresholds[feature] = BinThresholds(feature, low, low + draw(st.sampled_from([0.0, 0.5, 1.5])))
    value = st.one_of(
        st.sampled_from(CUTS + [0.25, 1.0, 2.5, 3.5, -3.0]),
        st.floats(-5.0, 5.0, allow_nan=False),
        *([st.sampled_from([np.nan, np.inf, -np.inf])] if faults else []),
    )
    label = st.sampled_from(LABEL_POOL + ([""] if faults else []))

    def some(keys, values):
        return st.dictionaries(st.sampled_from(keys), values, max_size=len(keys))

    row = st.tuples(
        st.text(min_size=1, max_size=6),  # ids with quotes, backslashes, non-ASCII
        some(LABEL_KINDS, label),
        some(DIMENSION_FEATURES, value),
        some(ACOUSTIC_FEATURES, value),
    )
    rows = draw(st.lists(row, max_size=12))
    templates = OPEN_TEMPLATES
    if faults and draw(st.booleans()):
        templates = TemplateSet(emotions=frozenset({"sad", "high pitch"}),
                                genders=frozenset({"f"}))
    return rows, thresholds, templates


def outcome(fn):
    """The result of fn(), or the type and message of the error it raised."""
    try:
        return fn()
    except SmoothClapError as exc:
        return type(exc), str(exc)


def table_of(rows, thresholds, templates):
    ids, labels, dims, acoustics = (list(column) for column in zip(*rows)) if rows else ([],) * 4
    return render_tag_table(
        FeatureTable.from_records(ids, labels, dims, acoustics), thresholds, templates
    )


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(tag_corpora())
def test_table_form_and_writer_match_the_per_record_renderer(corpus):
    rows, thresholds, templates = corpus
    expected = [oracle_render_tags(*row, thresholds, templates) for row in rows]
    table = table_of(rows, thresholds, templates)
    assert [table.record(i).to_json_dict() for i in range(len(rows))] == expected
    assert [render_tags(*row, thresholds, templates).to_json_dict() for row in rows] == expected
    meta = {"seed": 3, "tool": "smoothclap-tags"}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tags.jsonl"
        write_tags(path, table, meta)
        written = path.read_bytes()
    lines = [json.dumps({"_meta": meta}, sort_keys=True)]
    lines += [json.dumps(record, sort_keys=True) for record in expected]
    assert written == "".join(line + "\n" for line in lines).encode()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(tag_corpora(faults=True))
def test_table_form_raises_the_error_the_per_record_renderer_meets_first(corpus):
    rows, thresholds, templates = corpus

    def oracle():
        return [oracle_render_tags(*row, thresholds, templates) for row in rows]

    def table():
        t = table_of(rows, thresholds, templates)
        return [t.record(i).to_json_dict() for i in range(len(rows))]

    assert outcome(table) == outcome(oracle)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(tag_corpora())
def test_fit_thresholds_fits_each_feature_on_all_its_values(corpus):
    rows, _, _ = corpus
    dims = [row[2] for row in rows]
    acoustics = [row[3] for row in rows]
    values = {}
    for records in (dims, acoustics):
        for record in records:
            for feature, value in record.items():
                values.setdefault(feature, []).append(value)

    def expected():
        return {f: fit_bins(values[f], f) for f in BINNED_FEATURES if f in values}

    ids = [row[0] for row in rows]
    table = FeatureTable.from_records(ids, [{}] * len(rows), dims, acoustics)
    assert outcome(lambda: fit_thresholds(table, table)) == outcome(expected)


def test_table_form_bins_at_the_cut_points_like_assign_bin():
    t = BinThresholds("pitch", 1.0, 1.0)
    values = [0.5, 1.0, np.nextafter(1.0, 2.0), 2.0]
    table = render_tag_table(
        FeatureTable.from_records(
            ["a", "b", "c", "d"], [{}] * 4, [{}] * 4, [{"pitch": v} for v in values]
        ),
        {"pitch": t},
    )
    expected = [int(oracle_assign_bin(v, t)) for v in values]
    assert table.codes["pitch"].tolist() == expected == [0, 0, 2, 2]
    assert table.tags == [["low pitch"], ["low pitch"], ["high pitch"], ["high pitch"]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("feature", ["valence", "shimmer"])
def test_table_form_rejects_a_present_non_finite_value(bad, feature):
    source = 2 if feature in DIMENSION_FEATURES else 3
    rows = []
    for i, value in enumerate([0.1, 0.2, bad, np.nan]):
        row = [f"u{i}", {}, {}, {}]
        if i != 1:  # a row without the feature between finite and non-finite ones
            row[source] = {feature: value}
        rows.append(tuple(row))
    thresholds = {feature: BinThresholds(feature, 0.0, 1.0)}
    with pytest.raises(NonFiniteValue, match=f"cannot bin non-finite value {bad}"):
        table_of(rows, thresholds, OPEN_TEMPLATES)
    assert outcome(lambda: table_of(rows, thresholds, OPEN_TEMPLATES)) == outcome(
        lambda: [oracle_render_tags(*row, thresholds) for row in rows]
    )
