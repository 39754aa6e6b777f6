"""Every on-disk format: one validated reader and one writer per file kind.

JSON documents (model, thresholds sidecar, eval report, run config) are
indented with sorted keys and carry the ``_meta`` header as a key. JSONL files
keyed by ``id`` (manifest, profiles, labels, tags) start with a
``{"_meta": ...}`` line. The CSV tables the CLI writes start with a
``# {meta}`` line and write floats with ``repr``; the id-keyed CSV inputs are
features or embeddings (``id,c0..cN``) and truth (``id,label``).

Readers check and coerce each field they use once and ignore unknown keys.
A malformed file raises one SmoothClapError whose one-line message names the
file, the line or row, and the field. Numbers are coerced with ``float()``;
only values it rejects are errors, and in a features or embeddings CSV also
NaN and ±Inf. An int beyond float's range coerces to ±Inf.

A JSONL file is streamed line by line, each line decoded by one
``raw_decode`` call of the default JSON decoder; only a line it refuses goes
through ``json.loads``, for its message. Each line's JSON, type and id are
checked as it is read. The profiles and labels readers then take the fields
they use straight into a column table (tagging.FeatureTable), one block of
records at a time, coercing and checking each field as a column. So a fault
of a line's JSON, type or id is reported before any field fault, and among
field faults the earliest line's, as a record-by-record read would.
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
    FeatureTable,
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
        except OverflowError:  # an int beyond float's range
            return math.inf if value > 0 else -math.inf
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


def _strings(value, where: str, name: str) -> list[str]:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ConfigError(f"{where}: field {name!r} must be a list of strings")
    return value


# --- JSON documents ------------------------------------------------------------------

def _json_text(doc: dict, meta: dict) -> str:
    doc["_meta"] = meta
    return json.dumps(doc, indent=2, sort_keys=True)


def _write_json(path, doc: dict, meta: dict) -> None:
    Path(path).write_text(_json_text(doc, meta) + "\n")


def _loads(text: str, where) -> object:
    """json.loads(text); what it raises, an int over the digit limit or
    nesting too deep included, is one ConfigError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"{where}: invalid JSON ({exc})") from None


def _read_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    doc = _loads(text, path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return doc


def _run_options(doc: dict, by_key: dict, where: str, prefix: str = "") -> dict:
    """Run option values of a config object, coerced to each option's type.
    Nested objects address their keys dotted, and an unknown key is an error.
    A string is coerced as a flag's is. A JSON bool is refused for every
    option, and a JSON float for an int option, which int() would truncate;
    argparse's ``int`` likewise refuses ``"2.7"``."""
    values = {}
    for key, value in doc.items():
        name = prefix + key
        if isinstance(value, dict):
            values.update(_run_options(value, by_key, where, name + "."))
            continue
        if name not in by_key:
            raise ConfigError(f"{where}: unknown config key {name!r}")
        opt = by_key[name]
        try:
            if isinstance(value, bool) or (opt.type is int and isinstance(value, float)):
                raise TypeError
            values[opt] = opt.type(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{where}: bad value for {name!r}: {value!r:.40}") from None
    return values


def read_config(path, options_by_key: dict) -> dict:
    """Run option values of a JSON config file; every key must be known."""
    return _run_options(_read_json(path), options_by_key, str(path))


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


def save_report(path, report, meta: dict) -> None:
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


def save_thresholds(path, thresholds: dict[str, BinThresholds], labels: dict, meta: dict) -> None:
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


# model: base64 row-major float64 tensors, vocabulary and log-temperature; the
# run's config is the ``config`` of its ``_meta`` header

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
        tensor = np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"{where}: field {name!r} is not a {ndim}-d float64 tensor ({exc})"
        ) from None
    if not np.isfinite(tensor).all():
        raise ConfigError(f"{where}: field {name!r} must be finite")
    return tensor


def save_model(path, model, meta: dict) -> None:
    doc = {
        "kind": MODEL_KIND,
        "format_version": MODEL_FORMAT_VERSION,
        "vocabulary": list(model.vocabulary),
        "log_tau_pred": model.log_tau_pred,
    }
    for side in _PROJECTIONS:
        p = getattr(model, side)
        doc[side] = {"weights": _encode_tensor(p.weights), "bias": _encode_tensor(p.bias)}
    _write_json(path, doc, meta)


def load_model(path):
    """TrainedModel of a model file: the projections, vocabulary and
    log-temperature that embedding reads; other keys, such as the ``config``
    that older versions also wrote, are ignored. Besides each field's type it
    checks the format version, finite tensors and log-temperature, one output
    width for both projections' weights and biases, and a text input width
    equal to the vocabulary size."""
    # trainer imports this module for save_model when it loads, so its
    # classes are imported here, at call time
    from .trainer import ProjectionParams, TrainedModel

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
    log_tau_pred = _field(doc, "log_tau_pred", where, float)
    if not math.isfinite(log_tau_pred):
        raise ConfigError(f"{where}: field 'log_tau_pred' must be finite")
    return TrainedModel(
        audio_projection=audio,
        text_projection=text,
        log_tau_pred=log_tau_pred,
        vocabulary=vocabulary,
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


_decode = json.JSONDecoder().raw_decode  # what json.loads calls, on the same default decoder


class _Absent:
    """The value of a field that a record lacks, as a column holds it."""


_ABSENT = _Absent()


def _jsonl_records(fh, path):
    """(line number, id, record) of each record of an open JSONL file, in
    file order, each line decoded as it is read. Blank lines and the
    ``_meta`` header are skipped; a line that is not one JSON object, a
    missing or bad id, or an id seen before is an error."""
    first_line: dict[str, int] = {}
    # only reading the file raises UnicodeDecodeError; the decoder takes str
    try:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _decode(line)
            except (ValueError, RecursionError):
                end = None
            if end != len(line):  # json.loads names the fault, or "Extra data"
                record = _loads(line, f"{path}:{lineno}")
            if not isinstance(record, dict):
                raise ConfigError(
                    f"{path}:{lineno}: expected a JSON object, got {type(record).__name__}"
                )
            if "_meta" in record:
                continue
            key = record.get("id", _ABSENT)
            if type(key) is not str:
                key = _record_id(key, f"{path}:{lineno}")
            if key in first_line:
                raise DuplicateId(
                    f"{path}:{lineno}: duplicate id {key!r} (first on line {first_line[key]})"
                )
            first_line[key] = lineno
            yield lineno, key, record
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _record_id(key, where: str) -> str:
    if key is _ABSENT:
        raise ConfigError(f"{where}: missing field 'id'")
    if type(key) is not int:  # a bool is not an id
        raise ConfigError(f"{where}: field 'id' must be a string or an integer")
    return str(key)


def _read_jsonl_by_id(path, parse) -> dict:
    """``parse(record, where)`` of each record, keyed by its ``id`` in file order."""
    with open(path) as fh:
        return {
            key: parse(record, f"{path}:{lineno}")
            for lineno, key, record in _jsonl_records(fh, path)
        }


def read_manifest(path) -> dict[str, Path]:
    """WAV path by id; relative paths start at the manifest's directory."""
    base = Path(path).parent

    def parse(record: dict, where: str) -> Path:
        wav = _field(record, "wav", where, str)
        if "\0" in wav:
            raise ConfigError(f"{where}: field 'wav' holds a NUL character")
        return base / wav

    return _read_jsonl_by_id(path, parse)


def read_tags(path) -> dict[str, list[str]]:
    """The tag list of each record; an empty list is an error, since a text
    row with no tag has no direction to normalize."""
    # one string per distinct tag: the records repeat a few tags thousands of
    # times, and the decoder makes a new string for each
    seen: dict[str, str] = {}

    def parse(record: dict, where: str) -> list[str]:
        tags = _strings(_field(record, "tags", where), where, "tags")
        if not tags:
            raise ConfigError(f"{where}: field 'tags' must list at least one tag")
        return [seen.setdefault(t, t) for t in tags]

    return _read_jsonl_by_id(path, parse)


# --- JSONL records read into columns --------------------------------------------------

# The records of a column read are taken in blocks of this many: each block's
# raw values become float64 columns before the next is decoded, so the
# decoder's float objects do not outlive their block.
_BLOCK = 1024


def _floats(values: list, plain: bool) -> tuple[np.ndarray, int | None]:
    """float() of each value as a float64 array, up to the first value that
    float() rejects, and that value's index (None if there is none). An int
    beyond float's range is ±inf. ``plain`` says that every value is a float
    or an int, which takes one conversion."""
    if plain:
        try:
            return np.array(values, dtype=np.float64), None
        except OverflowError:
            pass
    out = np.empty(len(values))
    for i, value in enumerate(values):
        try:
            out[i] = float(value)
        except OverflowError:
            out[i] = math.inf if value > 0 else -math.inf
        except (TypeError, ValueError):
            return out[:i], i
    return out, None


def _float_column(column: list, key: str, order: int, start: int, where) -> tuple:
    """((values, present), faults) of one numeric field over a block of
    records from row ``start``: its float64 values, NaN where a record lacks
    the field, and the mask of the records that have it. A fault is (row,
    stage, order, error), for the first value that float() rejects (stage 1)
    and the first non-finite value before it (stage 2)."""
    kinds = set(map(type, column))
    if _Absent in kinds:
        present = np.array([v is not _ABSENT for v in column], dtype=bool)
        taken = list(itertools.compress(column, present))
    else:
        present = np.ones(len(column), dtype=bool)
        taken = column
    numbers, bad = _floats(taken, kinds <= {float, int, _Absent})
    rows = np.flatnonzero(present)
    faults = []
    if bad is not None:
        row = start + int(rows[bad])
        faults.append((row, 1, order, ConfigError(
            f"{where(row)}: field {key!r} must be a number, got {taken[bad]!r:.40}"
        )))
        rows = rows[:bad]
    nonfinite = np.flatnonzero(~np.isfinite(numbers))
    if nonfinite.size:
        row = start + int(rows[nonfinite[0]])
        faults.append((row, 2, order, ConfigError(f"{where(row)}: field {key!r} must be finite")))
    values = np.full(len(column), np.nan)
    values[rows] = numbers
    return (values, present), faults


def _label_column(column: list, key: str, order: int, start: int, where) -> tuple:
    """(labels, faults) of one label field over a block of records from row
    ``start``: each record's label, None where it has none, and a fault
    (stage 0) for the first value that is not a string."""
    kinds = set(map(type, column))
    if not kinds <= {str, _Absent}:
        row = next(r for r, v in enumerate(column) if v is not _ABSENT and type(v) is not str)
        error = ConfigError(
            f"{where(start + row)}: field {key!r} must be a string, got {type(column[row]).__name__}"
        )
        return [], [(start + row, 0, order, error)]
    if _Absent in kinds:
        column = [None if v is _ABSENT else v for v in column]
    return column, []


def _read_feature_table(path, numeric: dict[str, str], label_kinds=()) -> FeatureTable:
    """The labels of each kind in ``label_kinds`` and the finite numbers
    under each key of ``numeric`` (feature name -> key) as a FeatureTable.
    Of the field faults, the one raised is the one a record-by-record read
    meets first: the earliest line, and within it a label, then a value
    float() rejects, then a non-finite value, each in key order. A fault of
    a line's JSON, type or id is raised as it is read, before any field
    fault."""
    keys = (*label_kinds, *numeric.values())
    ids: list[str] = []
    lines: list[int] = []
    blocks: list[list] = [[] for _ in keys]  # per key: its converted blocks
    faults: list[tuple] = []

    def where(row: int) -> str:
        return f"{path}:{lines[row]}"

    with open(path) as fh:
        records = _jsonl_records(fh, path)
        while True:
            start = len(ids)
            raw: list[list] = [[] for _ in keys]
            appends = tuple(zip([c.append for c in raw], keys))
            for lineno, key, record in itertools.islice(records, _BLOCK):
                ids.append(key)
                lines.append(lineno)
                get = record.get
                for append, k in appends:
                    append(get(k, _ABSENT))
            for order, (key, column) in enumerate(zip(keys, raw)):
                convert = _label_column if order < len(label_kinds) else _float_column
                converted, found = convert(column, key, order, start, where)
                blocks[order].append(converted)
                faults += found
            if len(ids) - start < _BLOCK:
                break
    if faults:
        raise min(faults, key=lambda fault: fault[:3])[3]
    labels = {}
    for kind, parts in zip(label_kinds, blocks):
        column = list(itertools.chain.from_iterable(parts))
        if column.count(None) < len(column):
            labels[kind] = column
    columns = {}
    for feature, parts in zip(numeric, blocks[len(label_kinds):]):
        present = np.concatenate([p for _, p in parts])
        if present.any():
            columns[feature] = (np.concatenate([v for v, _ in parts]), present)
    return FeatureTable(ids, columns, labels)


def read_profiles(path) -> FeatureTable:
    """The binnable features of the profile records (tagging.PROFILE_FIELDS),
    each finite; a record that lacks a field has no value for that feature."""
    return _read_feature_table(path, PROFILE_FIELDS)


def read_labels(path) -> FeatureTable:
    """The categorical labels and finite ratings of the labels records; a
    manifest can double as a labels file."""
    return _read_feature_table(path, _DIMENSION_KEYS, LABEL_KINDS)


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
# skips as whitespace and float() does not. A row that still holds a \r or \n
# once its line end is cut had another kind of line end.
_NOT_PLAIN = ('"', "\x1c", "\x1d", "\x1e", "\x1f", "\r", "\n")


def _plain_rows(lines, end: str, commas: int, ids: list[str]):
    """Each line of ``lines`` without its line end, checked as it is read;
    its id is appended to ``ids``. A line the plain parse does not take
    raises ValueError."""
    limit = csv.field_size_limit()
    for line in lines:
        row = line.removesuffix(end)
        if any(c in row for c in _NOT_PLAIN) or len(row) > limit or row.count(",") != commas:
            raise ValueError("not a plain id-matrix row")
        ids.append(row.partition(",")[0])
        yield row


def _read_plain_id_matrix(path) -> tuple[list[str], np.ndarray] | None:
    """(ids, matrix) of a plain file that passes every check of the row-wise
    parse, its numbers parsed by numpy's C reader; None for any other file.

    ``loadtxt`` takes a subset of the cells that float() takes, with equal
    values; a cell it rejects raises ValueError. The file is read one line at
    a time as loadtxt parses it, so no copy of its whole text is made."""
    with open(path, newline="") as fh:
        # newline="": lines split at \n, \r\n and a lone \r, their ends kept
        header = next(fh, "")
        end = "\r\n" if header.endswith("\r\n") else "\n"
        header = header.removesuffix(end)
        first = next(fh, None)
        if first is None or any(c in header for c in _NOT_PLAIN) or len(header) > csv.field_size_limit():
            return None
        names = header.split(",")
        if names[0] != "id" or len(names) < 2:
            return None
        ids: list[str] = []
        data = np.loadtxt(
            _plain_rows(itertools.chain([first], fh), end, len(names) - 1, ids),
            delimiter=",", usecols=range(1, len(names)), comments=None,
            quotechar=None, dtype=np.float64, ndmin=2,
        )
    if len(set(ids)) < len(ids):
        return None
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
    except ValueError:  # a cell loadtxt rejects, a row _plain_rows refuses, or a UnicodeDecodeError
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
