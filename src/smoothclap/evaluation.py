"""Zero-shot classification and metric reporting.

Each audio embedding is assigned the class whose query embedding has the
highest cosine similarity (ties break to the lowest class index). Reports
carry the full confusion matrix, per-class recalls, and the unweighted
average recall over classes that actually appear in the ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# ingest_external_embeddings reads its CSV through read_id_matrix_csv; the
# benchmark times CSV reads and report writes through these two names
from .artifacts import read_id_matrix_csv, save_report  # noqa: F401
from .errors import LabelOutOfRange, LengthMismatch, ShapeMismatch
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


@dataclass
class EvalReport:
    """Confusion matrix, recalls, UAR, and per-sample predictions for one run."""

    class_names: list[str]
    confusion: list[list[int]]
    per_class_recall: list[float]
    uar: float
    predictions: list[Prediction] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


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


# --- external embeddings -------------------------------------------------------

def ingest_external_embeddings(path) -> tuple[np.ndarray, list[str]]:
    """Load externally produced embeddings and L2-normalize their rows. A zero
    row is named by file and CSV row, the header being row 1."""
    ids, data = read_id_matrix_csv(path)
    return l2_normalize_rows(data, f"{path}:", first_row=2), ids
