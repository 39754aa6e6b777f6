"""Shared helpers for the test suite: fixture file writers, a CLI runner,
the per-entry finite-difference oracle, a corrupted analytic gradient, the
row-stochastic check, the binning and tag vocabulary of the table renderer,
and the per-record JSONL readers that the column readers are checked against."""
from __future__ import annotations

import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

import smoothclap.gradcheck
from smoothclap.artifacts import _field, save_thresholds, write_tags
from smoothclap.cli import main
from smoothclap.errors import ConfigError, DuplicateId, TooFewValues
from smoothclap.fixtures import ClusterFixture
from smoothclap.gradcheck import STEP
from smoothclap.numeric import as_matrix
from smoothclap.objective import (
    EmbeddingBatch,
    SmoothingConfig,
    build_targets,
    loss_with_fixed_targets,
)
from smoothclap.tagging import (
    DIMENSION_FEATURES,
    LABEL_KINDS,
    PROFILE_FIELDS,
    Bin,
    BinThresholds,
    FeatureTable,
    TemplateSet,
    fit_thresholds,
    render_tag_table,
)

# every feature tag the renderer may emit, written out
FEATURE_TAGS = frozenset(
    f"{word} {feature}"
    for words, features in (
        (("low", "mid", "high"), ("arousal", "valence", "dominance")),
        (("low", "normal", "high"), ("pitch", "intensity", "jitter", "shimmer")),
        (("short", "medium", "long"), ("duration",)),
    )
    for word in words
    for feature in features
)


def run_cli(*argv: str) -> int:
    return main(list(argv))


def is_row_stochastic(m, tol: float = 1e-9) -> bool:
    """True if every entry is >= 0 and every row sums to 1 within ``tol``."""
    m = as_matrix(m)
    if np.any(m < 0.0):
        return False
    return bool(np.all(np.abs(m.sum(axis=1) - 1.0) <= tol))


def table_bins(values, thresholds: BinThresholds) -> list[Bin]:
    """The bin of each value as ``render_tag_table`` codes it: one row per
    value, each with the value as its arousal rating."""
    n = len(values)
    table = FeatureTable.from_records(
        [f"u{i}" for i in range(n)], [{}] * n, [{"arousal": float(v)} for v in values], [{}] * n
    )
    codes = render_tag_table(table, {"arousal": thresholds}).codes["arousal"]
    return [Bin(c) for c in codes.tolist()]


def in_vocabulary(tag: str, templates: TemplateSet) -> bool:
    """True iff the tag is a feature tag or a label that ``templates`` allows."""
    labels = (templates.emotions or frozenset()) | (templates.genders or frozenset())
    return tag in FEATURE_TAGS or tag in labels


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


# --- the per-record JSONL readers of earlier versions: the oracle of the column readers


def oracle_read_jsonl_by_id(path, parse) -> dict:
    """``parse(record, where)`` of each record keyed by its id, one
    ``json.loads`` per line and every check of a line before the next."""
    by_id = {}
    first_line: dict[str, int] = {}
    with open(path) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{where}: invalid JSON ({exc})") from None
                if not isinstance(record, dict):
                    raise ConfigError(f"{where}: expected a JSON object, got {type(record).__name__}")
                if "_meta" in record:
                    continue
                key = _field(record, "id", where)
                if isinstance(key, bool) or not isinstance(key, (str, int)):
                    raise ConfigError(f"{where}: field 'id' must be a string or an integer")
                key = str(key)
                if key in first_line:
                    raise DuplicateId(
                        f"{where}: duplicate id {key!r} (first on line {first_line[key]})"
                    )
                first_line[key] = lineno
                by_id[key] = parse(record, where)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return by_id


def oracle_finite_floats(record: dict, keys: dict[str, str], where: str) -> dict[str, float]:
    """float() of the field under each key the record has, by name; the
    first field float() rejects, else the first non-finite one, is an error."""
    values = {name: _field(record, key, where, float) for name, key in keys.items() if key in record}
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{where}: field {keys[name]!r} must be finite")
    return values


def oracle_read_profiles(path) -> dict[str, dict[str, float]]:
    return oracle_read_jsonl_by_id(
        path, lambda r, where: oracle_finite_floats(r, PROFILE_FIELDS, where)
    )


def oracle_read_labels(path) -> dict[str, tuple[dict[str, str], dict[str, float]]]:
    return oracle_read_jsonl_by_id(path, lambda r, where: (
        {k: _field(r, k, where, str) for k in LABEL_KINDS if k in r},
        oracle_finite_floats(r, {k: k for k in DIMENSION_FEATURES}, where),
    ))


def oracle_tags(profiles_path, labels_path, out, thresholds_out, meta: dict) -> None:
    """``tags`` in fit mode through the oracle readers: per-id dicts joined
    one id at a time, and one FeatureTable built from the joined records."""
    profiles = oracle_read_profiles(profiles_path)
    labels = oracle_read_labels(labels_path) if labels_path else {}
    try:
        thresholds = fit_thresholds(
            FeatureTable.from_records([], [], [dims for _, dims in labels.values()], []),
            FeatureTable.from_records([], [], [], list(profiles.values())),
        )
    except TooFewValues as exc:
        raise ConfigError(f"cannot fit thresholds: {exc}") from None
    observed = {}
    for kind in LABEL_KINDS:
        seen = {row_labels[kind] for row_labels, _ in labels.values() if kind in row_labels}
        if seen:
            observed[kind] = seen
    save_thresholds(thresholds_out, thresholds, observed, meta)
    ids = list(profiles)
    joined = [labels.get(utt_id, ({}, {})) for utt_id in ids]
    table = FeatureTable.from_records(
        ids, [row_labels for row_labels, _ in joined], [dims for _, dims in joined],
        list(profiles.values()),
    )
    write_tags(out, render_tag_table(table, thresholds, TemplateSet.closed_to(observed)), meta)
