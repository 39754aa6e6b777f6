"""Zero-shot classification and metric reporting.

Each audio embedding is assigned the class whose query embedding has the
highest cosine similarity (ties break to the lowest class index). Reports
carry the full confusion matrix, per-class recalls, and the unweighted
average recall over classes that actually appear in the ground truth.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateId,
    LabelOutOfRange,
    LengthMismatch,
    NonNumericCell,
    RaggedRows,
    ShapeMismatch,
)
from .numeric import as_matrix, l2_normalize_rows


def zero_shot_classify(audio_emb, query_emb, class_names) -> np.ndarray:
    """Argmax cosine similarity of each audio row against the query rows.

    Rows of both matrices are expected unit-norm. Exact ties resolve to the
    lowest class index.
    """
    a = as_matrix(audio_emb, "audio_emb")
    q = as_matrix(query_emb, "query_emb")
    if a.shape[1] != q.shape[1]:
        raise ShapeMismatch(
            f"embedding widths differ: audio {a.shape[1]}, queries {q.shape[1]}"
        )
    if len(class_names) != q.shape[0]:
        raise ShapeMismatch(
            f"{q.shape[0]} query rows but {len(class_names)} class names"
        )
    if q.shape[0] < 2:
        raise ShapeMismatch("need at least 2 classes")
    scores = a @ q.T
    return np.argmax(scores, axis=1)


@dataclass
class Prediction:
    utterance_id: str
    true_label: str
    predicted_label: str
    scores: list[float] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "id": self.utterance_id,
            "true": self.true_label,
            "predicted": self.predicted_label,
            "scores": list(self.scores),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Prediction":
        return cls(
            utterance_id=d["id"],
            true_label=d["true"],
            predicted_label=d["predicted"],
            scores=[float(s) for s in d.get("scores", [])],
        )


@dataclass
class EvalReport:
    """Confusion matrix, recalls, UAR, and per-sample predictions for one run."""

    class_names: list[str]
    confusion: list[list[int]]
    per_class_recall: list[float]
    uar: float
    predictions: list[Prediction] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "class_names": list(self.class_names),
            "confusion": [list(row) for row in self.confusion],
            "per_class_recall": list(self.per_class_recall),
            "uar": self.uar,
            "predictions": [p.to_json_dict() for p in self.predictions],
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "EvalReport":
        return cls(
            class_names=list(d["class_names"]),
            confusion=[[int(v) for v in row] for row in d["confusion"]],
            per_class_recall=[float(r) for r in d["per_class_recall"]],
            uar=float(d["uar"]),
            predictions=[Prediction.from_json_dict(p) for p in d.get("predictions", [])],
            warnings=list(d.get("warnings", [])),
        )


def confusion_and_uar(y_true, y_pred, num_classes: int, class_names=None) -> EvalReport:
    """Build an EvalReport from integer label lists.

    Recall of class c is confusion[c][c] / support(c); classes with zero
    support are excluded from the UAR mean and listed in the warnings.
    """
    y_true = list(y_true)
    y_pred = list(y_pred)
    if len(y_true) != len(y_pred):
        raise LengthMismatch(f"{len(y_true)} true labels vs {len(y_pred)} predictions")
    if len(y_true) == 0:
        raise LengthMismatch("need at least one labeled sample")
    if class_names is None:
        class_names = [str(i) for i in range(num_classes)]
    if len(class_names) != num_classes:
        raise LengthMismatch(f"{len(class_names)} names for {num_classes} classes")

    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        t = int(t)
        p = int(p)
        if not (0 <= t < num_classes and 0 <= p < num_classes):
            raise LabelOutOfRange(f"label pair ({t}, {p}) outside [0, {num_classes})")
        confusion[t, p] += 1

    support = confusion.sum(axis=1)
    recalls = np.zeros(num_classes)
    present = support > 0
    recalls[present] = np.diag(confusion)[present] / support[present]
    warnings = [f"class {c} unsupported" for c in range(num_classes) if not present[c]]
    uar = float(np.mean(recalls[present])) if np.any(present) else 0.0
    return EvalReport(
        class_names=list(class_names),
        confusion=confusion.tolist(),
        per_class_recall=recalls.tolist(),
        uar=uar,
        warnings=warnings,
    )


def format_confusion(report: EvalReport) -> str:
    """Plain-text confusion matrix, rows = true class, columns = predicted."""
    names = report.class_names
    width = max(len(n) for n in names + ["true\\pred"]) + 2
    cell = max(max(len(n) for n in names), 6) + 2
    lines = ["true\\pred".ljust(width) + "".join(n.rjust(cell) for n in names)]
    for name, row in zip(names, report.confusion):
        lines.append(name.ljust(width) + "".join(str(v).rjust(cell) for v in row))
    lines.append(f"UAR: {report.uar:.3f}")
    return "\n".join(lines)


# --- CSV ingestion -------------------------------------------------------------

def read_id_matrix_csv(path) -> tuple[list[str], np.ndarray]:
    """Read an 'id,c0..cN' CSV into (ids, float64 matrix), order preserved."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0] != "id":
        raise RaggedRows(f"{path}: expected a header starting with 'id'")
    width = len(rows[0])
    if width < 2:
        raise RaggedRows(f"{path}: header names no value columns")
    ids: list[str] = []
    seen: set[str] = set()
    data = np.empty((len(rows) - 1, width - 1))
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise RaggedRows(f"{path}: row {r} has {len(row)} cells, expected {width}")
        row_id = row[0]
        if row_id in seen:
            raise DuplicateId(f"{path}: id {row_id!r} appears more than once")
        seen.add(row_id)
        ids.append(row_id)
        for c, cell in enumerate(row[1:], start=1):
            try:
                data[r - 2, c - 1] = float(cell)
            except ValueError:
                raise NonNumericCell(
                    f"{path}: row {r}, column {rows[0][c]!r}: {cell!r} is not a number"
                ) from None
    if not ids:
        raise RaggedRows(f"{path}: no data rows")
    return ids, data


def ingest_external_embeddings(path) -> tuple[np.ndarray, list[str]]:
    """Load externally produced embeddings and L2-normalize their rows."""
    ids, data = read_id_matrix_csv(path)
    return l2_normalize_rows(data), ids


def read_labels_csv(path) -> list[tuple[str, str]]:
    """Read an 'id,label' CSV, order preserved."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:2] != ["id", "label"]:
        raise RaggedRows(f"{path}: expected header 'id,label'")
    out: list[tuple[str, str]] = []
    seen: set[str] = set()
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise RaggedRows(f"{path}: row {r} has {len(row)} cells, expected 2")
        if row[0] in seen:
            raise DuplicateId(f"{path}: id {row[0]!r} appears more than once")
        seen.add(row[0])
        out.append((row[0], row[1]))
    return out


def write_labels_csv(path, pairs) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        for row_id, label in pairs:
            writer.writerow([row_id, label])


def save_report(path, report: EvalReport, meta: dict | None = None) -> None:
    doc = report.to_json_dict()
    if meta is not None:
        doc["_meta"] = meta
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_report(path) -> EvalReport:
    return EvalReport.from_json_dict(json.loads(Path(path).read_text()))
