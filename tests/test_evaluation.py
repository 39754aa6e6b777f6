import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smoothclap import artifacts, evaluation

from helpers import random_unit_rows, write_embeddings_csv, write_labels_csv
from smoothclap.artifacts import read_labels_csv
from smoothclap.errors import (
    DuplicateId,
    LabelOutOfRange,
    LengthMismatch,
    NonNumericCell,
    RaggedRows,
    ShapeMismatch,
)
from smoothclap.evaluation import (
    Prediction,
    confusion_and_uar,
    format_confusion,
    ingest_external_embeddings,
    save_report,
    zero_shot_classify,
)
from smoothclap.numeric import l2_normalize_rows


# --- zero_shot_classify ---

def test_exact_match_predicts_that_class():
    queries = np.eye(3)
    audio = queries[2:3]
    pred = zero_shot_classify(audio, queries, ["a", "b", "c"])
    assert pred.tolist() == [2]


def test_orthogonal_to_all_but_one():
    queries = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    audio = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    pred = zero_shot_classify(audio, queries, ["a", "b"])
    # second row is orthogonal to both queries: exact tie resolves to class 0
    assert pred.tolist() == [1, 0]


def test_exact_tie_breaks_to_lowest_index():
    queries = np.array([[1.0, 0.0], [0.0, 1.0]])
    audio = l2_normalize_rows([[1.0, 1.0]])
    assert zero_shot_classify(audio, queries, ["a", "b"]).tolist() == [0]


def test_zero_shot_shape_checks():
    with pytest.raises(ShapeMismatch):
        zero_shot_classify(np.eye(2), np.eye(3), ["a", "b", "c"])
    with pytest.raises(ShapeMismatch):
        zero_shot_classify(np.eye(2), np.eye(2), ["a"])
    with pytest.raises(ShapeMismatch):
        zero_shot_classify(np.eye(2)[:1], np.eye(2)[:1], ["a"])


def test_scaling_before_normalization_keeps_predictions():
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((20, 5))
    queries = random_unit_rows(rng, 4, 5)
    names = list("abcd")
    base = zero_shot_classify(l2_normalize_rows(raw), queries, names)
    scaled = zero_shot_classify(l2_normalize_rows(37.5 * raw), queries, names)
    assert base.tolist() == scaled.tolist()


# --- confusion_and_uar ---

def test_confusion_hand_example():
    y_true = [0] * 10 + [1] * 10
    y_pred = [0] * 8 + [1] * 2 + [0] * 4 + [1] * 6
    report = confusion_and_uar(y_true, y_pred, 2)
    assert report.confusion == [[8, 2], [4, 6]]
    assert report.per_class_recall == pytest.approx([0.8, 0.6])
    assert report.uar == pytest.approx(0.7)
    assert report.warnings == []


def test_perfect_predictions():
    for c in (2, 3, 5):
        y = list(range(c)) * 4
        report = confusion_and_uar(y, y, c)
        assert report.uar == 1.0


def test_absent_class_excluded_with_warning():
    report = confusion_and_uar([0, 0, 1, 1], [0, 0, 1, 1], 3)
    assert report.uar == 1.0
    assert report.warnings == ["class 2 unsupported"]
    assert report.per_class_recall[2] == 0.0


def test_confusion_errors():
    with pytest.raises(LengthMismatch):
        confusion_and_uar([0, 1], [0], 2)
    with pytest.raises(LengthMismatch):
        confusion_and_uar([], [], 2)
    with pytest.raises(LabelOutOfRange):
        confusion_and_uar([0, 5], [0, 1], 2)


def test_uar_invariant_under_relabeling():
    rng = np.random.default_rng(1)
    y_true = rng.integers(0, 4, 100)
    y_pred = rng.integers(0, 4, 100)
    base = confusion_and_uar(y_true.tolist(), y_pred.tolist(), 4)
    perm = rng.permutation(4)
    report = confusion_and_uar(
        [int(perm[t]) for t in y_true], [int(perm[p]) for p in y_pred], 4
    )
    assert report.uar == pytest.approx(base.uar, abs=1e-12)


def test_confusion_total_equals_sample_count():
    rng = np.random.default_rng(2)
    y_true = rng.integers(0, 3, 57).tolist()
    y_pred = rng.integers(0, 3, 57).tolist()
    report = confusion_and_uar(y_true, y_pred, 3)
    assert sum(sum(row) for row in report.confusion) == 57


# --- report serialization ---

def dumped_report(report, meta) -> str:
    """The report as json.dumps(indent=2, sort_keys=True) writes it."""
    doc = {
        "class_names": report.class_names,
        "confusion": report.confusion,
        "per_class_recall": report.per_class_recall,
        "uar": report.uar,
        "predictions": [
            {"id": p.utterance_id, "true": p.true_label, "predicted": p.predicted_label,
             "scores": p.scores}
            for p in report.predictions
        ],
        "warnings": report.warnings,
    }
    doc["_meta"] = meta
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def small_report(names, predictions):
    report = confusion_and_uar([0, 1], [0, 0], 3, names)  # class 2 unsupported: a warning
    report.predictions = predictions
    return report


REPORT_CASES = {
    "no predictions": ([], {"seed": 0}),
    "empty meta": ([Prediction("u", "a", "b", [0.5, -0.25, 1e-300])], {}),
    "escaped strings": (
        [Prediction('q"uo\\te', "ä中", "a\nb", [1.0, 2.0, 3.0]),
         Prediction("\u2028\x00\x7f", "\"predictions\": []", "é", [0.0, -0.0, 1.5e300])],
        {"seed": 1, "tool": "é \"x\""},
    ),
    "non-finite scores": ([Prediction("u", "a", "a", [float("nan"), float("inf"), float("-inf")])],
                          {"seed": 2}),
    "empty scores": ([Prediction("u", "a", "a", []), Prediction("v", "b", "a", [0.1])], {"seed": 3}),
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_report_bytes_are_those_of_json_dumps(tmp_path, case):
    predictions, meta = REPORT_CASES[case]
    report = small_report(["a", "b", "c"], predictions)
    assert report.warnings
    path = tmp_path / "report.json"
    save_report(path, report, meta=meta)
    assert path.read_text() == dumped_report(report, meta)


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    names=st.lists(st.text(max_size=4), min_size=3, max_size=3),
    predictions=st.lists(st.builds(
        Prediction, st.text(max_size=5), st.text(max_size=3), st.text(max_size=3),
        st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=4),
    ), max_size=5),
)
def test_fuzzed_report_bytes_are_those_of_json_dumps(tmp_path, names, predictions):
    report = small_report(names, predictions)
    path = tmp_path / "report.json"
    save_report(path, report, meta={"seed": 4})
    assert path.read_text() == dumped_report(report, {"seed": 4})


def test_evaluation_save_report_is_the_artifacts_writer():
    assert evaluation.save_report is artifacts.save_report


def test_report_roundtrip(tmp_path):
    report = confusion_and_uar([0, 1, 1], [0, 1, 0], 2, ["neg", "pos"])
    report.predictions = [
        Prediction("u0", "neg", "neg", [0.9, 0.1]),
        Prediction("u1", "pos", "pos", [0.2, 0.8]),
        Prediction("u2", "pos", "neg", [0.6, 0.4]),
    ]
    path = tmp_path / "report.json"
    save_report(path, report, meta={"seed": 0})
    doc = json.loads(path.read_text())
    assert doc.pop("_meta") == {"seed": 0}
    predictions = doc.pop("predictions")
    assert doc == {
        "class_names": report.class_names,
        "confusion": report.confusion,
        "per_class_recall": report.per_class_recall,
        "uar": report.uar,
        "warnings": report.warnings,
    }
    assert predictions == [
        {"id": p.utterance_id, "true": p.true_label, "predicted": p.predicted_label,
         "scores": p.scores}
        for p in report.predictions
    ]


def test_format_confusion_contains_counts_and_uar():
    report = confusion_and_uar([0] * 10 + [1] * 10, [0] * 8 + [1] * 2 + [0] * 4 + [1] * 6, 2, ["a", "b"])
    text = format_confusion(report)
    assert "8" in text and "UAR: 0.700" in text


# --- CSV ingestion ---

def test_ingest_wellformed(tmp_path):
    rng = np.random.default_rng(3)
    path = write_embeddings_csv(tmp_path / "e.csv", ["x", "y"], rng.standard_normal((2, 4)))
    matrix, ids = ingest_external_embeddings(path)
    assert ids == ["x", "y"]
    assert matrix.shape == (2, 4)
    np.testing.assert_allclose(np.linalg.norm(matrix, axis=1), 1.0, atol=1e-12)


def test_ingest_nonnumeric_cell_names_position(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,e0,e1\na,1.0,2.0\nb,oops,3.0\n")
    with pytest.raises(NonNumericCell) as err:
        ingest_external_embeddings(path)
    assert "row 3" in str(err.value)
    assert "e0" in str(err.value)


def test_ingest_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("id,e0,e1\na,1.0\n")
    with pytest.raises(RaggedRows):
        ingest_external_embeddings(path)


def test_ingest_duplicate_id(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,e0\na,1.0\na,2.0\n")
    with pytest.raises(DuplicateId):
        ingest_external_embeddings(path)


def test_labels_csv_roundtrip(tmp_path):
    path = tmp_path / "labels.csv"
    pairs = [("u0", "happy"), ("u1", "sad")]
    write_labels_csv(path, [i for i, _ in pairs], [label for _, label in pairs])
    assert read_labels_csv(path) == pairs
