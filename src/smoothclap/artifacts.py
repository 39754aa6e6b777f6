"""Every on-disk format: one validated reader and one writer per file kind.

JSON documents (model, thresholds sidecar, eval report, run config) are
indented with sorted keys and carry the ``_meta`` header as a key. JSONL files
keyed by ``id`` (manifest, profiles, labels, tags) start with a
``{"_meta": ...}`` line. The CSV tables the CLI writes start with a
``# {meta}`` line and write floats with ``repr``; the id-keyed CSV inputs are
features or embeddings (``id,c0..cN``) and truth (``id,label``).

Readers check and coerce each field they use once, where they read it, and
ignore unknown keys. A malformed file raises one SmoothClapError whose
one-line message names the file, the line or row, and the field. Numbers are
coerced with ``float()``; only values it rejects are errors, and in a
features or embeddings CSV also NaN and ±Inf.
"""
from __future__ import annotations

import base64
import csv
import itertools
import json
import math
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    DuplicateId,
    NonFiniteValue,
    NonNumericCell,
    RaggedRows,
    SmoothClapError,
)
from .tagging import (
    DIMENSION_FEATURES,
    LABEL_KINDS,
    PROFILE_FIELDS,
    Bin,
    BinThresholds,
    TagTable,
    TemplateSet,
)

MODEL_KIND = "smoothclap-model"
MODEL_FORMAT_VERSION = 1
_PROJECTIONS = ("audio_projection", "text_projection")
_JSON_TYPE_NAMES = {dict: "an object", list: "a list", str: "a string"}
_DIMENSION_KEYS = {k: k for k in DIMENSION_FEATURES}  # a rating's name is its key


def meta_header(command: str, config: dict) -> dict:
    """Artifact header: the tool, its version and the run options the command read."""
    return {
        "tool": f"smoothclap-{command}",
        "version": __version__,
        "seed": config["seed"],
        "config": config,
    }


# --- fields: ``where`` is "file" or "file:line", the name is the dotted path -------

def _field(record: dict, key: str, where: str, kind: type | None = None, prefix: str = ""):
    """``record[key]``; a ``float`` kind coerces with float(), another kind is
    checked with isinstance."""
    name = prefix + key
    if key not in record:
        raise ConfigError(f"{where}: missing field {name!r}")
    value = record[key]
    if kind is float:
        try:
            return float(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"{where}: field {name!r} must be a number, got {value!r:.40}"
            ) from None
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(
            f"{where}: field {name!r} must be {_JSON_TYPE_NAMES[kind]}, "
            f"got {type(value).__name__}"
        )
    return value


def _finite_floats(record: dict, keys: dict[str, str], where: str) -> dict[str, float]:
    """float() of the field under each key that the record has, by name
    (``keys`` maps name -> key); NaN and ±Inf are errors."""
    try:
        values = {name: float(record[key]) for name, key in keys.items() if key in record}
    except (TypeError, ValueError):
        # the same coercion again through _field, which names the rejected field
        values = {name: _field(record, key, where, float) for name, key in keys.items() if key in record}
    if not all(map(math.isfinite, values.values())):
        name = next(name for name, value in values.items() if not math.isfinite(value))
        raise ConfigError(f"{where}: field {keys[name]!r} must be finite")
    return values


def _strings(value, where: str, name: str) -> list[str]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ConfigError(f"{where}: field {name!r} must be a list of strings")
    return value


# --- JSON documents ------------------------------------------------------------------

def _json_text(doc: dict, meta: dict | None) -> str:
    if meta is not None:
        doc["_meta"] = meta
    return json.dumps(doc, indent=2, sort_keys=True)


def _write_json(path, doc: dict, meta: dict | None) -> None:
    Path(path).write_text(_json_text(doc, meta) + "\n")


def _read_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def _run_options(
    doc: dict, by_key: dict, where: str, strict: bool, within: str = "", prefix: str = ""
) -> dict:
    """Run option values of a config object, coerced to each option's type.
    Nested objects address their keys dotted; with ``strict`` an unknown key is
    an error, otherwise it is skipped. Messages name a key as ``within`` plus
    its dotted key."""
    values = {}
    for key, value in doc.items():
        name = prefix + key
        if isinstance(value, dict):
            values.update(_run_options(value, by_key, where, strict, within, name + "."))
        elif name in by_key:
            opt = by_key[name]
            try:
                values[opt] = opt.type(value)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{where}: bad value for {within + name!r}: {value!r:.40}"
                ) from None
        elif strict:
            raise ConfigError(f"{where}: unknown config key {within + name!r}")
    return values


def read_config(path, options_by_key: dict) -> dict:
    """Run option values of a JSON config file; every key must be known."""
    return _run_options(_read_json(path), options_by_key, str(path), strict=True)


# json writes a non-finite float as these literals
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _prediction_json(p) -> str:
    """One prediction object as ``json.dumps(indent=2, sort_keys=True)`` writes
    it inside the report's ``predictions`` list."""
    scores = [_JSON_NONFINITE.get(v, v) for v in map(float.__repr__, p.scores)]
    scores_json = "[\n        " + ",\n        ".join(scores) + "\n      ]" if scores else "[]"
    return (
        f'    {{\n      "id": {_json_str(p.utterance_id)},'
        f'\n      "predicted": {_json_str(p.predicted_label)},'
        f'\n      "scores": {scores_json},'
        f'\n      "true": {_json_str(p.true_label)}\n    }}'
    )


def save_report(path, report, meta: dict | None = None) -> None:
    """An EvalReport, with one {id, true, predicted, scores} object per prediction.

    The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True)``. That
    call takes json's pure-Python encoder, so the prediction objects, nearly
    all of a report, are formatted here and spliced into the dump of the rest.
    """
    doc = {
        "class_names": report.class_names,
        "confusion": report.confusion,
        "per_class_recall": report.per_class_recall,
        "uar": report.uar,
        "predictions": [],
        "warnings": report.warnings,
    }
    text = _json_text(doc, meta)
    if report.predictions:
        # the one top-level key at two spaces; a newline in a string is escaped
        head, _, tail = text.partition('\n  "predictions": []')
        items = ",\n".join(map(_prediction_json, report.predictions))
        text = f'{head}\n  "predictions": [\n{items}\n  ]{tail}'
    Path(path).write_text(text + "\n")


def save_thresholds(path, thresholds: dict[str, BinThresholds], labels=None, meta=None) -> None:
    """The sidecar: feature -> {low, high}, observed label sets under ``_labels``."""
    doc: dict = {name: {"low": t.low, "high": t.high} for name, t in thresholds.items()}
    if labels:
        doc["_labels"] = {kind: sorted(values) for kind, values in labels.items()}
    _write_json(path, doc, meta)


def load_thresholds(path) -> tuple[dict[str, BinThresholds], TemplateSet]:
    doc, where = _read_json(path), str(path)
    thresholds = {}
    for name in doc:
        if name.startswith("_"):
            continue
        entry = _field(doc, name, where, dict)
        low, high = (_field(entry, k, where, float, f"{name}.") for k in ("low", "high"))
        try:
            thresholds[name] = BinThresholds(name, low, high)
        except SmoothClapError as exc:
            raise ConfigError(f"{where}: field {name!r}: {exc}") from None
    label_sets = _field(doc, "_labels", where, dict) if "_labels" in doc else {}
    return thresholds, TemplateSet.closed_to({
        kind: _strings(label_sets[kind], where, f"_labels.{kind}")
        for kind in LABEL_KINDS if kind in label_sets
    })


# model: base64 row-major float64 tensors, vocabulary, log-temperature, config echo

def _encode_tensor(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {
        "shape": list(a.shape),
        "dtype": "float64",
        "data_b64": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _decode_tensor(projection: dict, key: str, where: str, side: str, ndim: int) -> np.ndarray:
    name = f"{side}.{key}"
    entry = _field(projection, key, where, dict, f"{side}.")
    shape = _field(entry, "shape", where, list, name + ".")
    data = _field(entry, "data_b64", where, str, name + ".")
    try:
        if len(shape) != ndim or -1 in shape or entry.get("dtype") != "float64":
            raise ValueError(f"shape {shape!r:.40}, dtype {entry.get('dtype')!r:.20}")
        raw = base64.b64decode(data, validate=True)
        return np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"{where}: field {name!r} is not a {ndim}-d float64 tensor ({exc})"
        ) from None


def save_model(path, model, extra_meta: dict | None = None) -> None:
    doc = {
        "kind": MODEL_KIND,
        "format_version": MODEL_FORMAT_VERSION,
        "config": model.config.to_json_dict(),
        "vocabulary": list(model.vocabulary),
        "log_tau_pred": model.log_tau_pred,
    }
    for side in _PROJECTIONS:
        p = getattr(model, side)
        doc[side] = {"weights": _encode_tensor(p.weights), "bias": _encode_tensor(p.bias)}
    _write_json(path, doc, extra_meta)


def load_model(path):
    """TrainedModel of a model file. Besides each field's type it checks the
    format version, one output width for both projections' weights and biases,
    and a text input width equal to the vocabulary size."""
    # trainer imports this module for save_model and load_model
    from .trainer import RUN_OPTIONS, ProjectionParams, TrainConfig, TrainedModel

    doc, where = _read_json(path), str(path)
    if doc.get("kind") != MODEL_KIND:
        raise ConfigError(f"{where}: not a smoothclap model document")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ConfigError(f"{where}: format_version {version!r:.40} is not {MODEL_FORMAT_VERSION}")
    tensors = {}
    for side in _PROJECTIONS:
        projection = _field(doc, side, where, dict)
        for part, ndim in (("weights", 2), ("bias", 1)):
            tensors[f"{side}.{part}"] = _decode_tensor(projection, part, where, side, ndim)
    widths = {name: t.shape[-1] for name, t in tensors.items()}
    if len(set(widths.values())) != 1:
        raise ConfigError(f"{where}: projection output widths differ: {widths}")
    audio, text = (
        ProjectionParams(tensors[f"{side}.weights"], tensors[f"{side}.bias"])
        for side in _PROJECTIONS
    )
    vocabulary = _strings(_field(doc, "vocabulary", where), where, "vocabulary")
    if text.in_dim != len(vocabulary):
        raise ConfigError(
            f"{where}: text input width {text.in_dim} is not the vocabulary size "
            f"{len(vocabulary)}"
        )
    # the echo holds each option at its path; older versions echo lr as
    # lr_projection and the mix at the top level, and their other retired
    # keys are skipped
    by_path = {opt.path: opt for opt in RUN_OPTIONS}
    mix = by_path["smoothing.clap_mix_lambda"]
    echo_keys = {"lr_projection": by_path["lr"], "clap_mix_lambda": mix, **by_path}
    echo = _field(doc, "config", where, dict)
    values = _run_options(echo, echo_keys, where, False, "config.")
    if echo.get("objective") == "clap":
        # older versions trained objective clap at 1 whatever clap_mix_lambda they echo
        values[mix] = 1.0
    try:
        config = TrainConfig.from_options(values)
    except SmoothClapError as exc:
        raise ConfigError(f"{where}: field 'config': {exc}") from None
    return TrainedModel(
        audio_projection=audio,
        text_projection=text,
        log_tau_pred=_field(doc, "log_tau_pred", where, float),
        vocabulary=vocabulary,
        config=config,
    )


# --- JSONL records keyed by id -------------------------------------------------------

def write_jsonl(path, records, meta: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"_meta": meta}, sort_keys=True) + "\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_tags(path, table: TagTable, meta: dict) -> None:
    """The tags file: one ``json.dumps(record, sort_keys=True)`` line per row,
    with the keys ``bins``, ``id`` and ``tags``, built from JSON fragments made
    once per distinct tag and once per feature and bin."""
    tag_json = {t: _json_str(t) for t in set(itertools.chain.from_iterable(table.tags))}
    # '"feature": "bin", ' by code, and '' for code -1 (no value); the column
    # of ''s keeps a row for each id when no feature has a value
    bin_columns = [[""] * len(table.ids)]
    for feature in sorted(table.codes):
        fragments = tuple(f"{_json_str(feature)}: {_json_str(b.key)}, " for b in Bin) + ("",)
        bin_columns.append([fragments[c] for c in table.codes[feature].tolist()])
    bins = ["".join(row)[:-2] for row in zip(*bin_columns)]
    with open(path, "w") as fh:
        fh.write(json.dumps({"_meta": meta}, sort_keys=True) + "\n")
        fh.writelines(
            f'{{"bins": {{{b}}}, "id": {_json_str(i)}, '
            f'"tags": [{", ".join([tag_json[t] for t in tags])}]}}\n'
            for i, b, tags in zip(table.ids, bins, table.tags)
        )


def _read_jsonl_by_id(path, parse) -> dict:
    """``parse(record, where)`` of each record, keyed by its ``id`` in file
    order. Blank lines and the ``_meta`` header are skipped; a line that is not
    a JSON object, or an id seen before, is an error."""
    with open(path) as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    by_id = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
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
    return by_id


def read_manifest(path) -> dict[str, Path]:
    """WAV path by id; relative paths start at the manifest's directory."""
    base = Path(path).parent
    return _read_jsonl_by_id(path, lambda r, where: base / _field(r, "wav", where, str))


def read_profiles(path) -> dict[str, dict[str, float]]:
    """The binnable features of each profile record keyed by tag feature name
    (tagging.PROFILE_FIELDS), each finite; a record that lacks a field skips
    that feature."""
    return _read_jsonl_by_id(path, lambda r, where: _finite_floats(r, PROFILE_FIELDS, where))


def read_labels(path) -> dict[str, tuple[dict[str, str], dict[str, float]]]:
    """(categorical label by kind, finite rating by dimension) of each labels
    record; a manifest can double as a labels file."""
    return _read_jsonl_by_id(path, lambda r, where: (
        {k: _field(r, k, where, str) for k in LABEL_KINDS if k in r},
        _finite_floats(r, _DIMENSION_KEYS, where),
    ))


def read_tags(path) -> dict[str, list[str]]:
    """The tag list of each record; an empty list is an error, since a text
    row with no tag has no direction to normalize."""
    def parse(record: dict, where: str) -> list[str]:
        tags = _strings(_field(record, "tags", where), where, "tags")
        if not tags:
            raise ConfigError(f"{where}: field 'tags' must list at least one tag")
        return tags

    return _read_jsonl_by_id(path, parse)


# --- CSV ------------------------------------------------------------------------------

def _read_id_csv(path, columns: list[str]) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of an id-keyed CSV whose header starts with
    ``columns`` and names a value column. There is at least one row, and every
    row has the header's width and a new id."""
    with open(path, newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise RaggedRows(f"{path}: {exc}") from None
    header = rows[0] if rows else []
    if len(header) < 2 or header[: len(columns)] != columns:
        raise RaggedRows(
            f"{path}: expected a header starting with {','.join(columns)!r} and a value column"
        )
    first_row: dict[str, int] = {}
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise RaggedRows(f"{path}: row {r} has {len(row)} cells, expected {len(header)}")
        if row[0] in first_row:
            raise DuplicateId(
                f"{path}: row {r}: duplicate id {row[0]!r} (first on row {first_row[row[0]]})"
            )
        first_row[row[0]] = r
    if not first_row:
        raise RaggedRows(f"{path}: no data rows")
    return header, rows[1:]


# A plain id-matrix CSV has no quote character, one kind of line end (\n or
# \r\n) and none of the ASCII separators 0x1c-0x1f, which numpy's number parser
# skips as whitespace and float() does not.
_NOT_PLAIN = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


def _read_plain_id_matrix(path) -> tuple[list[str], np.ndarray] | None:
    """(ids, matrix) of a plain file that passes every check of the row-wise
    parse, its numbers parsed by numpy's C reader; None for any other file.

    ``loadtxt`` takes a subset of the cells that float() takes, with equal
    values; a cell it rejects raises ValueError. The text is read once and
    split into lines; no other copy of it is made."""
    with open(path, newline="") as fh:
        text = fh.read()
    if any(c in text for c in _NOT_PLAIN):
        return None
    end = "\r\n" if "\r" in text else "\n"
    if end == "\r\n" and not text.count("\r") == text.count("\r\n") == text.count("\n"):
        return None
    lines = text.split(end)
    del text
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    header, body = lines[0].split(","), lines[1:]
    commas = len(header) - 1
    if header[0] != "id" or commas < 1 or any(line.count(",") != commas for line in body):
        return None
    ids = [line.partition(",")[0] for line in body]
    if len(set(ids)) < len(ids):
        return None
    data = np.loadtxt(
        body, delimiter=",", usecols=range(1, len(header)), comments=None,
        quotechar=None, dtype=np.float64, ndmin=2,
    )
    return (ids, data) if np.isfinite(data).all() else None


def _read_id_matrix_rows(path) -> tuple[list[str], np.ndarray]:
    """The row-wise parse through the csv module: every file, every message."""
    header, rows = _read_id_csv(path, ["id"])
    data = np.empty((len(rows), len(header) - 1))
    for r, row in enumerate(rows):
        try:
            # numpy parses each string cell exactly as float() does
            data[r] = row[1:]
        except ValueError:
            for c, cell in enumerate(row[1:], start=1):
                try:
                    float(cell)
                except ValueError:
                    raise NonNumericCell(
                        f"{path}: row {r + 2}, column {header[c]!r}: {cell!r} is not a number"
                    ) from None
            raise
    nonfinite = np.flatnonzero(~np.isfinite(data))
    if nonfinite.size:
        r, c = divmod(int(nonfinite[0]), data.shape[1])
        raise NonFiniteValue(
            f"{path}: row {r + 2}, column {header[c + 1]!r}: "
            f"{rows[r][c + 1]!r} is not a finite number"
        )
    return [row[0] for row in rows], data


def read_id_matrix_csv(path) -> tuple[list[str], np.ndarray]:
    """Read an 'id,c0..cN' CSV into (ids, float64 matrix), order preserved.
    Every cell must be a finite number. A plain file takes one C-level parse;
    any other file, or a plain one that fails a check, takes the row-wise
    parse, which raises the error."""
    try:
        parsed = _read_plain_id_matrix(path)
    except ValueError:  # a cell loadtxt rejects, or a UnicodeDecodeError
        parsed = None
    return parsed if parsed is not None else _read_id_matrix_rows(path)


def read_labels_csv(path) -> list[tuple[str, str]]:
    """Read an 'id,label' truth CSV into (id, label) pairs, order preserved."""
    _, rows = _read_id_csv(path, ["id", "label"])
    return [(row[0], row[1]) for row in rows]


def write_table(path, header: list[str], rows, meta: dict) -> None:
    """A CSV table (history, predictions, sweep) under a ``# {meta}`` line."""
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
