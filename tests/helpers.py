"""Shared helpers for the test suite: fixture file writers, a CLI runner,
the per-entry finite-difference oracle and a corrupted analytic gradient."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

import smoothclap.gradcheck
from smoothclap.cli import main
from smoothclap.fixtures import ClusterFixture
from smoothclap.gradcheck import STEP
from smoothclap.objective import (
    EmbeddingBatch,
    SmoothingConfig,
    build_targets,
    loss_with_fixed_targets,
)


def run_cli(*argv: str) -> int:
    return main(list(argv))


def corrupt_gradcheck_gradient(monkeypatch) -> None:
    """Make the analytic gradient that gradcheck checks 1e-3 off in
    ``grad_audio[0, 0]``, so that the suite must fail."""
    real_loss_and_grad = smoothclap.gradcheck.loss_and_grad

    def corrupted(batch, cfg):
        out = real_loss_and_grad(batch, cfg)
        out.grad_audio[0, 0] += 1e-3
        return out

    monkeypatch.setattr(smoothclap.gradcheck, "loss_and_grad", corrupted)


def write_features_csv(path, ids, matrix) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"f{i}" for i in range(matrix.shape[1])])
        for row_id, row in zip(ids, matrix):
            writer.writerow([row_id] + [repr(float(v)) for v in row])
    return path


def write_tags_jsonl(path, ids, tag_lists) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        for utt_id, tags in zip(ids, tag_lists):
            fh.write(json.dumps({"id": utt_id, "tags": list(tags), "bins": {}}) + "\n")
    return path


def write_labels_csv(path, ids, labels) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        for utt_id, label in zip(ids, labels):
            writer.writerow([utt_id, label])
    return path


def write_cluster_fixture_files(directory, fixture: ClusterFixture) -> dict[str, Path]:
    directory = Path(directory)
    return {
        "features": write_features_csv(
            directory / "features.csv", fixture.ids, fixture.features
        ),
        "tags": write_tags_jsonl(directory / "tags.jsonl", fixture.ids, fixture.tag_lists),
        "labels": write_labels_csv(directory / "labels.csv", fixture.ids, fixture.labels),
    }


def write_embeddings_csv(path, ids, matrix) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"e{i}" for i in range(matrix.shape[1])])
        for row_id, row in zip(ids, matrix):
            writer.writerow([row_id] + [repr(float(v)) for v in row])
    return path


def random_unit_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    m = rng.standard_normal((rows, cols))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def loop_finite_difference_grads(audio, text, local_audio, cfg: SmoothingConfig):
    """The oracle of ``gradcheck.finite_difference_grads``: the same central
    differences, one ``loss_with_fixed_targets`` call per perturbed point."""
    batch = EmbeddingBatch(audio, text, local_audio)
    targets = build_targets(batch, cfg) if cfg.clap_mix_lambda < 1.0 else None

    def f(audio: np.ndarray, text: np.ndarray, config: SmoothingConfig = cfg) -> float:
        perturbed = EmbeddingBatch(audio, text, batch.local_audio)
        return loss_with_fixed_targets(perturbed, targets, config)

    def nudged(m: np.ndarray, index: tuple[int, ...], step: float) -> np.ndarray:
        out = m.copy()
        out[index] += step
        return out

    def central(args_at, step: float) -> float:
        # args_at(h): the arguments of f with one coordinate moved by h
        return (f(*args_at(step)) - f(*args_at(-step))) / (2.0 * step)

    num_audio = np.zeros_like(audio)
    for index in np.ndindex(num_audio.shape):
        step = STEP * batch.audio_norms[index[0]]
        num_audio[index] = central(lambda h: (nudged(audio, index, h), text), step)
    num_text = np.zeros_like(text)
    for index in np.ndindex(num_text.shape):
        step = STEP * batch.text_norms[index[0]]
        num_text[index] = central(lambda h: (audio, nudged(text, index, h)), step)
    log_tau = math.log(cfg.tau_pred)
    num_log_tau = central(
        lambda h: (audio, text, replace(cfg, tau_pred=math.exp(log_tau + h))), STEP
    )
    return num_audio, num_text, num_log_tau
