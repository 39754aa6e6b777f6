"""Single entry point exposing the pipeline as subcommands.

Exit codes: 0 success, 1 computation failure, 2 usage or IO error. Every
artifact embeds the seed and the run options its command read, so runs can
be reproduced from the outputs alone. The SMOOTHCLAP_LOG environment variable
(error, warn, info, debug) controls log verbosity.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__, artifacts
from .errors import (
    ComputationFailure,
    ConfigError,
    NonFiniteValue,
    SmoothClapError,
    TooFewValues,
    ZeroRow,
)
from .evaluation import (
    EvalReport,
    Prediction,
    confusion_and_uar,
    format_confusion,
    ingest_external_embeddings,
    zero_shot_classify,
)
from .gradcheck import DEFAULT_SIZES, run_gradcheck_suite
from .paralinguistics import acoustic_profile, load_wav
from .tagging import LABEL_KINDS, TemplateSet, fit_thresholds, render_tag_table
from .trainer import (
    RUN_OPTIONS,
    RunOption,
    TrainConfig,
    check_seed,
    embed_audio,
    embed_query_labels,
    train,
)

logger = logging.getLogger(__name__)


# --- run configuration ----------------------------------------------------------
# Every flag and config key below derives from trainer.RUN_OPTIONS. A config
# file names an option by its field or by its path in the config echo of
# model.json ("gamma" or "smoothing.gamma"); nested objects flatten to dotted
# paths, so that echo is itself a valid config file.

_SEED = next(opt for opt in RUN_OPTIONS if opt.path == "seed")
_OPTIONS_BY_KEY = {key: opt for opt in RUN_OPTIONS for key in (opt.field, opt.path)}


def _flag_spec(opt: RunOption) -> tuple[str, dict]:
    if issubclass(opt.type, Enum):
        kind = {"choices": [m.value for m in opt.type]}
    else:
        kind = {"type": opt.type}
    return "--" + opt.field.replace("_", "-"), {"dest": opt.field, **kind}


_SEED_FLAG = _flag_spec(_SEED)
_TRAINING_FLAGS = tuple(_flag_spec(opt) for opt in RUN_OPTIONS)


def resolve_run_options(args: argparse.Namespace) -> dict[RunOption, object]:
    """Config-file values overridden by flags, coerced to each option's type.

    Options set by neither are absent and take their dataclass default.
    Unknown keys in the config file are errors, never warnings.
    """
    values = artifacts.read_config(args.config, _OPTIONS_BY_KEY) if args.config else {}
    for opt in RUN_OPTIONS:
        flag_value = getattr(args, opt.field, None)
        if flag_value is not None:
            values[opt] = opt.type(flag_value)
    return values


def resolve_train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig.from_options(resolve_run_options(args))


def resolve_seed(args: argparse.Namespace) -> int:
    """The seed of a non-training subcommand; the whole config file is still checked."""
    return check_seed(resolve_run_options(args).get(_SEED, _SEED.default))


# --- extract ----------------------------------------------------------------------

def _extract_inputs(args: argparse.Namespace) -> dict[str, Path]:
    if bool(args.manifest) == bool(args.in_dir):
        raise ConfigError("exactly one of --manifest or --in-dir is required")
    if args.in_dir:
        root = Path(args.in_dir)
        if not root.is_dir():
            raise ConfigError(f"{root} is not a directory")
        return {p.stem: p for p in sorted(root.glob("*.wav"))}
    return artifacts.read_manifest(args.manifest)


def cmd_extract(args: argparse.Namespace) -> int:
    meta = artifacts.meta_header("extract", {"seed": resolve_seed(args)})
    inputs = _extract_inputs(args)
    records: list[dict] = []
    failures = 0
    for utt_id, wav_path in inputs.items():
        try:
            profile = acoustic_profile(load_wav(wav_path))
        except (SmoothClapError, OSError) as exc:
            failures += 1
            logger.warning("skipping %s (%s): %s", utt_id, wav_path, exc)
            continue
        records.append({"id": utt_id, **asdict(profile)})
    artifacts.write_jsonl(args.out, records, meta)
    if failures:
        level = "error" if args.strict else "warning"
        print(f"{level}: {failures} of {len(inputs)} files failed", file=sys.stderr)
        if args.strict:
            return 1
    return 0


# --- tags --------------------------------------------------------------------------

def cmd_tags(args: argparse.Namespace) -> int:
    meta = artifacts.meta_header("tags", {"seed": resolve_seed(args)})
    profiles_by_id = artifacts.read_profiles(args.profiles)
    labels_by_id = artifacts.read_labels(args.labels) if args.labels else {}

    if args.thresholds_in is None:
        label_records = list(labels_by_id.values())
        try:
            thresholds = fit_thresholds(
                [dims for _, dims in label_records], list(profiles_by_id.values())
            )
        except TooFewValues as exc:
            raise ConfigError(f"cannot fit thresholds: {exc}") from None
        observed = {}
        for kind in LABEL_KINDS:
            seen = {labels[kind] for labels, _ in label_records if kind in labels}
            if seen:
                observed[kind] = seen
        templates = TemplateSet.closed_to(observed)
        thresholds_out = args.thresholds_out or f"{args.out}.thresholds.json"
        artifacts.save_thresholds(thresholds_out, thresholds, observed, meta)
    else:
        thresholds, templates = artifacts.load_thresholds(args.thresholds_in)

    ids = list(profiles_by_id)
    joined = [labels_by_id.get(utt_id, ({}, {})) for utt_id in ids]
    table = render_tag_table(
        ids,
        [labels for labels, _ in joined],
        [dims for _, dims in joined],
        list(profiles_by_id.values()),
        thresholds,
        templates,
    )
    artifacts.write_tags(args.out, table, meta)

    matched = len(profiles_by_id.keys() & labels_by_id.keys())
    unmatched_profiles = len(profiles_by_id) - matched
    unmatched_labels = len(labels_by_id) - matched
    if unmatched_profiles or unmatched_labels:
        print(
            f"warning: {unmatched_profiles} profile id(s) without labels, "
            f"{unmatched_labels} label id(s) without profiles",
            file=sys.stderr,
        )
    return 0


# --- train -------------------------------------------------------------------------

def _load_training_data(features_path, tags_path, min_rows: int):
    feature_ids, features = artifacts.read_id_matrix_csv(features_path)
    tags_by_id = artifacts.read_tags(tags_path)
    keep = [i for i, fid in enumerate(feature_ids) if fid in tags_by_id]
    dropped_features = len(feature_ids) - len(keep)
    dropped_tags = len(tags_by_id) - len(keep)
    if dropped_features or dropped_tags:
        logger.warning(
            "id join dropped %d feature row(s) and %d tag record(s)",
            dropped_features,
            dropped_tags,
        )
    if len(keep) < min_rows:
        raise ConfigError(
            f"only {len(keep)} joined rows, need at least {min_rows}"
        )
    ids = [feature_ids[i] for i in keep]
    return ids, features[keep], [tags_by_id[i] for i in ids]


def cmd_train(args: argparse.Namespace) -> int:
    config = resolve_train_config(args)
    ids, features, tag_lists = _load_training_data(
        args.features, args.tags, config.batch_size
    )
    model = train(features, tag_lists, config)
    meta = artifacts.meta_header("train", config.to_json_dict())
    artifacts.save_model(args.out, model, extra_meta=meta)
    history_path = args.history or f"{args.out}.history.csv"
    rows = enumerate(map(repr, model.history), start=1)
    artifacts.write_table(history_path, ["epoch", "loss"], rows, meta)
    print(f"final epoch loss: {model.history[-1]:.9f}")
    return 0


# --- eval --------------------------------------------------------------------------

def _evaluate(
    audio_ids: list[str],
    audio_emb: np.ndarray,
    class_names: list[str],
    query_emb: np.ndarray,
    labels: dict[str, str],
) -> EvalReport:
    missing = [i for i in audio_ids if i not in labels]
    if missing:
        raise ConfigError(f"{len(missing)} audio id(s) have no label, e.g. {missing[0]!r}")
    name_to_index = {name: i for i, name in enumerate(class_names)}
    if len(name_to_index) < len(class_names):
        repeated = next(name for name in class_names if class_names.count(name) > 1)
        raise ConfigError(f"query class {repeated!r} is given more than once")
    unknown = sorted({labels[i] for i in audio_ids} - set(class_names))
    if unknown:
        raise ConfigError(
            "true labels missing from the query classes: " + ", ".join(unknown)
        )
    y_true = [name_to_index[labels[i]] for i in audio_ids]
    pred = zero_shot_classify(audio_emb, query_emb, class_names).tolist()
    scores = audio_emb @ query_emb.T
    report = confusion_and_uar(y_true, pred, len(class_names), class_names)
    report.predictions = [
        Prediction(
            utterance_id=utt_id,
            true_label=class_names[t],
            predicted_label=class_names[p],
            scores=row,
        )
        for utt_id, t, p, row in zip(audio_ids, y_true, pred, scores.tolist())
    ]
    return report


def cmd_eval(args: argparse.Namespace) -> int:
    meta = artifacts.meta_header("eval", {"seed": resolve_seed(args)})
    labels = dict(artifacts.read_labels_csv(args.labels))
    # read once, for the audio features and the label-string queries alike
    model = artifacts.load_model(args.model) if args.model else None

    if args.embeddings:
        audio_emb, audio_ids = ingest_external_embeddings(args.embeddings)
    elif model is not None and args.features:
        audio_ids, features = artifacts.read_id_matrix_csv(args.features)
        audio_emb = embed_audio(model, features)
    else:
        raise ConfigError("need --embeddings, or --model together with --features")

    if args.query_embeddings:
        query_emb, class_names = ingest_external_embeddings(args.query_embeddings)
    else:
        if model is None:
            raise ConfigError("label-string queries need --model")
        class_names = (
            [q.strip() for q in args.queries.split(",") if q.strip()]
            if args.queries
            else sorted(set(labels.values()))
        )
        query_emb = embed_query_labels(model, class_names)

    report = _evaluate(audio_ids, audio_emb, list(class_names), query_emb, labels)
    artifacts.save_report(args.out, report, meta=meta)
    if args.predictions_csv:
        artifacts.write_table(
            args.predictions_csv, ["id", "true", "predicted"],
            ([p.utterance_id, p.true_label, p.predicted_label] for p in report.predictions),
            meta,
        )
    print(format_confusion(report))
    return 0


# --- gradcheck ----------------------------------------------------------------------

def _parse_sizes(spec: str) -> tuple[tuple[int, int], ...]:
    sizes = []
    for part in spec.split(";"):
        entries = part.split(",")
        fields = dict(kv.partition("=")[::2] for kv in entries)
        try:
            b, d = int(fields["B"]), int(fields["d"])
        except (KeyError, ValueError):
            b = d = 0
        # the keys B and d once each, and at least the two rows the loss needs
        if len(entries) != 2 or b < 2 or d < 1:
            raise ConfigError(
                f"bad --sizes entry {part!r}, expected B=<int>,d=<int> with B >= 2 and d >= 1"
            )
        sizes.append((b, d))
    return tuple(sizes)


def cmd_gradcheck(args: argparse.Namespace) -> int:
    seed = resolve_seed(args)
    sizes = _parse_sizes(args.sizes) if args.sizes else DEFAULT_SIZES
    report = run_gradcheck_suite(
        seed=seed, sizes=sizes, corrupt_gradient=args.corrupt_gradient
    )
    print(
        f"gradcheck: max relative error {report.max_error:.3e} "
        f"over {report.n_cases} configurations"
    )
    if not report.passed:
        print("worst case: " + report.worst.describe(), file=sys.stderr)
        return 1
    return 0


# --- sweep --------------------------------------------------------------------------

def _parse_grid(spec: str, name: str) -> list[float]:
    try:
        grid = [float(v) for v in spec.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad {name} grid: {spec!r}") from None
    if not grid:
        raise ConfigError(f"{name} grid is empty")
    for v in grid:
        if not 0.0 < v < 1.0:
            raise ConfigError(f"{name} grid values must lie strictly inside (0, 1), got {v}")
    return grid


def cmd_sweep(args: argparse.Namespace) -> int:
    base_config = resolve_train_config(args)
    if base_config.smoothing.clap_mix_lambda == 1.0:
        raise ConfigError(
            "sweep needs a mix below 1: at clap_mix_lambda 1 no targets are built, "
            "so every gamma/beta cell trains the same model"
        )
    gamma_grid = _parse_grid(args.gamma_grid, "gamma")
    beta_grid = _parse_grid(args.beta_grid, "beta")
    ids, features, tag_lists = _load_training_data(
        args.features, args.tags, base_config.batch_size
    )
    labels = dict(artifacts.read_labels_csv(args.labels))
    class_names = sorted(set(labels.values()))

    rows: list[tuple[float, float, float, float]] = []
    failed = 0
    for gamma in gamma_grid:
        for beta in beta_grid:
            config = replace(
                base_config,
                smoothing=replace(base_config.smoothing, gamma=gamma, beta=beta),
            )
            try:
                model = train(features, tag_lists, config)
                try:
                    audio_emb = embed_audio(model, features)
                    query_emb = embed_query_labels(model, class_names)
                except (ZeroRow, NonFiniteValue) as exc:
                    # train has validated the inputs, so the trained weights
                    # gave the degenerate row
                    raise ComputationFailure(f"embedding with the trained model: {exc}") from exc
                report = _evaluate(ids, audio_emb, class_names, query_emb, labels)
                rows.append((gamma, beta, report.uar, model.history[-1]))
            except ComputationFailure as exc:
                failed += 1
                logger.warning("sweep cell gamma=%s beta=%s failed: %s", gamma, beta, exc)
                rows.append((gamma, beta, float("nan"), float("nan")))
    artifacts.write_table(
        args.out, ["gamma", "beta", "uar", "final_loss"], (map(repr, row) for row in rows),
        artifacts.meta_header("sweep", base_config.to_json_dict()),
    )
    if failed:
        print(f"error: {failed} of {len(rows)} sweep cells failed", file=sys.stderr)
        return 1
    return 0


# --- parser -------------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser, training: bool = False) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    for flag, kwargs in _TRAINING_FLAGS if training else (_SEED_FLAG,):
        p.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothclap",
        description="soft-target contrastive audio-text pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="acoustic profiles from WAV files")
    p.add_argument("--manifest", help="JSONL with id and wav fields")
    p.add_argument("--in-dir", dest="in_dir", help="directory of .wav files")
    p.add_argument("--out", required=True, help="output profiles JSONL")
    p.add_argument("--strict", action="store_true", help="fail if any file fails")
    _add_config_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("tags", help="render tags from profiles and labels")
    p.add_argument("--profiles", required=True, help="profiles JSONL from extract")
    p.add_argument("--labels", help="labels JSONL (id, emotion, gender, dims)")
    thresholds = p.add_mutually_exclusive_group()
    thresholds.add_argument("--thresholds-in", dest="thresholds_in", help="reuse fitted thresholds")
    thresholds.add_argument("--thresholds-out", dest="thresholds_out", help="where to write fitted thresholds")
    p.add_argument("--out", required=True, help="output tag records JSONL")
    _add_config_flags(p)
    p.set_defaults(func=cmd_tags)

    p = sub.add_parser("train", help="fit projections and temperature")
    p.add_argument("--features", required=True, help="CSV id,f0..fN")
    p.add_argument("--tags", required=True, help="tag records JSONL")
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--history", help="loss history CSV (default: <out>.history.csv)")
    _add_config_flags(p, training=True)
    # read by nothing: perfbench's chain still passes it; delete with that flag there
    p.add_argument("--objective", choices=["smooth"], help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="zero-shot classification report")
    p.add_argument("--model", help="trained model JSON")
    p.add_argument("--features", help="CSV id,f0..fN (with --model)")
    p.add_argument("--embeddings", help="precomputed audio embeddings CSV")
    p.add_argument("--queries", help="comma-separated class labels")
    p.add_argument("--query-embeddings", dest="query_embeddings", help="precomputed query embeddings CSV (ids are class names)")
    p.add_argument("--labels", required=True, help="CSV id,label with ground truth")
    p.add_argument("--out", required=True, help="output report JSON")
    p.add_argument("--predictions-csv", dest="predictions_csv", help="optional per-sample predictions CSV")
    _add_config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--sizes", help="e.g. B=2,d=3 or B=2,d=3;B=8,d=16")
    p.add_argument("--corrupt-gradient", dest="corrupt_gradient", action="store_true", help=argparse.SUPPRESS)
    _add_config_flags(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("sweep", help="train and evaluate over a gamma/beta grid")
    p.add_argument("--features", required=True, help="CSV id,f0..fN")
    p.add_argument("--tags", required=True, help="tag records JSONL")
    p.add_argument("--labels", required=True, help="CSV id,label with ground truth")
    p.add_argument("--gamma-grid", dest="gamma_grid", default="0.5", help="comma-separated gamma values")
    p.add_argument("--beta-grid", dest="beta_grid", default="0.1,0.3,0.5,0.7,0.9", help="comma-separated beta values")
    p.add_argument("--out", required=True, help="output CSV gamma,beta,uar,final_loss")
    _add_config_flags(p, training=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def _setup_logging() -> None:
    name = os.environ.get("SMOOTHCLAP_LOG", "warn").lower()
    levels = {
        "error": logging.ERROR,
        "warn": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
    level = levels.get(name)
    if level is None:
        level = logging.WARNING
        print(f"warning: unknown SMOOTHCLAP_LOG level {name!r}", file=sys.stderr)
    logging.basicConfig(
        level=level, format="%(levelname)s %(name)s: %(message)s", force=True
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    _setup_logging()
    try:
        return int(args.func(args))
    except ComputationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SmoothClapError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Console-script entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    run()
