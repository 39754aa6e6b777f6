"""Readers and writers of every artifact format, through the library and cli.main."""
import base64
import csv
import io
import json
import math
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from helpers import run_cli, write_cluster_fixture_files, write_features_csv
from smoothclap import artifacts
from smoothclap.artifacts import (
    load_model,
    load_thresholds,
    read_id_matrix_csv,
    read_labels,
    read_labels_csv,
    read_profiles,
    read_tags,
    save_model,
    write_jsonl,
)
from smoothclap.cli import main
from smoothclap.errors import ConfigError, NonFiniteValue, NonNumericCell, RaggedRows
from smoothclap.fixtures import make_cluster_fixture, synth_tone, write_wav
from smoothclap.paralinguistics import Waveform, acoustic_profile


def run_main(*argv) -> tuple[int, list[str]]:
    """Exit code and stderr lines of one in-process CLI run."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue().splitlines()


def write_records(path, records) -> Path:
    path = Path(path)
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


PROFILE = {
    "pitch_mean_hz": 100.0, "pitch_std_hz": 1.0, "intensity_mean_db": -30.0,
    "intensity_std_db": 1.0, "jitter": 0.01, "shimmer": 0.1, "duration_s": 1.0,
    "voiced_fraction": 1.0, "flags": [],
}


def profile_records(n=6):
    return [
        {**PROFILE, "id": f"u{i}", "pitch_mean_hz": 100.0 + 10 * i, "jitter": 0.01 * (i + 1)}
        for i in range(n)
    ]


def label_records(n=6):
    return [
        {"id": f"u{i}", "emotion": "happy" if i % 2 else "sad", "gender": "male",
         "arousal": i / n}
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One valid file of every kind, and a model trained on the cluster files."""
    root = tmp_path_factory.mktemp("corpus")
    files = write_cluster_fixture_files(root, make_cluster_fixture(3, n_per_class=8))
    files["profiles"] = write_records(root / "profiles.jsonl", profile_records())
    files["labels_jsonl"] = write_records(root / "labels.jsonl", label_records())
    for name in ("a", "b"):
        write_wav(root / f"{name}.wav", synth_tone(180.0, 0.25))
    files["manifest"] = write_records(
        root / "manifest.jsonl", [{"id": "a", "wav": "a.wav"}, {"id": "b", "wav": "b.wav"}]
    )
    files["thresholds"] = root / "thresholds.json"
    assert run_cli(
        "tags", "--profiles", str(files["profiles"]), "--labels", str(files["labels_jsonl"]),
        "--thresholds-out", str(files["thresholds"]), "--out", str(root / "tags_out.jsonl"),
    ) == 0
    files["model"] = root / "model.json"
    assert run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--batch-size", "8", "--epochs", "1", "--embed-dim", "4", "--out", str(files["model"]),
    ) == 0
    files["config"] = root / "config.json"
    files["config"].write_text(
        json.dumps({"seed": 3, "smoothing": {"gamma": 0.4}, "epochs": 2, "lr": 0.01})
    )
    files["root"] = root
    return files


# --- malformed records: exit 2 with one line naming the file and the field ---------

def mutate_line(path, lineno, change):
    lines = Path(path).read_text().splitlines()
    record = json.loads(lines[lineno - 1])
    change(record)
    lines[lineno - 1] = json.dumps(record)
    out = Path(path).with_name("mutated-" + Path(path).name)
    out.write_text("\n".join(lines) + "\n")
    return out


def tags_argv(corpus, profiles=None, labels=None, thresholds=None):
    argv = ["tags", "--profiles", profiles or corpus["profiles"],
            "--out", corpus["root"] / "t.jsonl"]
    if labels:
        argv += ["--labels", labels]
    if thresholds:
        argv += ["--thresholds-in", thresholds]
    return argv


def train_argv(corpus, tags, features=None, out=None):
    return ["train", "--features", features or corpus["features"], "--tags", tags,
            "--batch-size", "8", "--epochs", "1", "--out", out or corpus["root"] / "m.json"]


def eval_argv(corpus, model=None, features=None, labels=None, out=None):
    return ["eval", "--model", model or corpus["model"],
            "--features", features or corpus["features"],
            "--labels", labels or corpus["labels"], "--out", out or corpus["root"] / "r.json"]


def write_doc(corpus, name, doc):
    path = corpus["root"] / name
    path.write_text(json.dumps(doc))
    return path


def model_doc(corpus):
    return json.loads(corpus["model"].read_text())


MALFORMED = {
    "thresholds feature not an object": (
        lambda c: tags_argv(c, thresholds=write_doc(c, "th.json", {"pitch": 5})),
        "th.json", "field 'pitch' must be an object",
    ),
    "thresholds not an object": (
        lambda c: tags_argv(c, thresholds=write_doc(c, "th.json", [1, 2])),
        "th.json", "top level must be an object",
    ),
    "thresholds missing high": (
        lambda c: tags_argv(c, thresholds=write_doc(c, "th.json", {"pitch": {"low": 1.0}})),
        "th.json", "missing field 'pitch.high'",
    ),
    "thresholds label set not strings": (
        lambda c: tags_argv(c, thresholds=write_doc(
            c, "th.json", {**json.loads(c["thresholds"].read_text()), "_labels": {"emotion": [1]}}
        )),
        "th.json", "field '_labels.emotion' must be a list of strings",
    ),
    "model not an object": (
        lambda c: eval_argv(c, model=write_doc(c, "bad.json", [])),
        "bad.json", "top level must be an object",
    ),
    "model config not an object": (
        lambda c: eval_argv(c, model=write_doc(c, "bad.json", {**model_doc(c), "config": "x"})),
        "bad.json", "field 'config' must be an object",
    ),
    "model config value": (
        lambda c: eval_argv(c, model=write_doc(
            c, "bad.json", {**model_doc(c), "config": {"smoothing": {"gamma": "high"}}}
        )),
        "bad.json", "'config.smoothing.gamma'",
    ),
    "manifest wav not a string": (
        lambda c: ["extract", "--out", c["root"] / "o.jsonl",
                   "--manifest", mutate_line(c["manifest"], 1, lambda r: r.update(wav=5))],
        "mutated-manifest.jsonl:1:", "field 'wav' must be a string",
    ),
    "profile field null": (
        lambda c: tags_argv(c, profiles=mutate_line(
            c["profiles"], 3, lambda r: r.update(pitch_mean_hz=None)
        )),
        "mutated-profiles.jsonl:3:", "field 'pitch_mean_hz' must be a number",
    ),
    "labels dimension null": (
        lambda c: tags_argv(c, labels=mutate_line(
            c["labels_jsonl"], 2, lambda r: r.update(arousal=None)
        )),
        "mutated-labels.jsonl:2:", "field 'arousal' must be a number",
    ),
    "labels emotion a list": (
        lambda c: tags_argv(c, labels=mutate_line(
            c["labels_jsonl"], 2, lambda r: r.update(emotion=["x"])
        )),
        "mutated-labels.jsonl:2:", "field 'emotion' must be a string",
    ),
    # a bare string is iterable: it must not train on the vocabulary ['a','h','p','y']
    "tags a string": (
        lambda c: train_argv(c, mutate_line(c["tags"], 4, lambda r: r.update(tags="happy"))),
        "mutated-tags.jsonl:4:", "field 'tags' must be a list of strings",
    ),
    "tags missing": (
        lambda c: train_argv(c, mutate_line(c["tags"], 4, lambda r: r.pop("tags"))),
        "mutated-tags.jsonl:4:", "missing field 'tags'",
    ),
    # no tag leaves a zero text row, which train cannot normalize
    "tags empty": (
        lambda c: train_argv(c, mutate_line(c["tags"], 4, lambda r: r.update(tags=[]))),
        "mutated-tags.jsonl:4:", "field 'tags' must list at least one tag",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_record_exits_2_naming_file_and_field(corpus, case):
    argv, where, what = MALFORMED[case]
    code, err = run_main(*argv(corpus))
    assert code == 2
    assert len(err) == 1, err
    assert err[0].startswith("error: ") and where in err[0] and what in err[0], err[0]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), "nan", "-inf"])
@pytest.mark.parametrize("source,key", [("profiles", "pitch_mean_hz"), ("labels_jsonl", "arousal")])
@pytest.mark.parametrize("mode", ["fit", "thresholds-in"])
def test_non_finite_binned_value_exits_2_naming_file_line_and_field(corpus, value, source, key, mode):
    bad = mutate_line(corpus[source], 3, lambda r: r.update({key: value}))
    files = {"profiles": corpus["profiles"], "labels_jsonl": corpus["labels_jsonl"], source: bad}
    code, err = run_main(*tags_argv(
        corpus, files["profiles"], files["labels_jsonl"],
        corpus["thresholds"] if mode == "thresholds-in" else None,
    ))
    assert code == 2
    assert err == [f"error: {bad}:3: field {key!r} must be finite"]


@pytest.mark.parametrize("bad_id", [None, [1], {"a": 1}, True, 1.5])
def test_record_id_must_be_a_string_or_an_integer(tmp_path, bad_id):
    path = write_records(tmp_path / "t.jsonl", [{"id": bad_id, "tags": ["a"]}])
    with pytest.raises(ConfigError, match=r"t.jsonl:1: field 'id' must be a string or an int"):
        read_tags(path)


# --- model reader checks ------------------------------------------------------------

def tensor_entry(a):
    return {"shape": list(a.shape), "dtype": "float64",
            "data_b64": base64.b64encode(np.asarray(a, float).tobytes()).decode()}


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d.update(format_version=99), "format_version 99 is not 1"),
        (lambda d: d.update(kind="other"), "not a smoothclap model"),
        (lambda d: d["audio_projection"].update(bias=tensor_entry(np.zeros(3))),
         "output widths differ: {'audio_projection.weights': 4, 'audio_projection.bias': 3,"),
        (lambda d: d["text_projection"].update(
            weights=tensor_entry(np.zeros((len(d["vocabulary"]), 5))),
            bias=tensor_entry(np.zeros(5))),
         "'text_projection.weights': 5, 'text_projection.bias': 5}"),
        (lambda d: d.update(vocabulary=d["vocabulary"][:-1]),
         "is not the vocabulary size"),
        (lambda d: d["audio_projection"]["weights"].update(shape=[2, 2]),
         "'audio_projection.weights' is not a 2-d float64 tensor (cannot reshape"),
        (lambda d: d["audio_projection"]["weights"].update(dtype="float32"),
         "'audio_projection.weights' is not a 2-d float64 tensor"),
        (lambda d: d["text_projection"]["bias"].update(data_b64="@@"),
         "'text_projection.bias' is not a 1-d float64 tensor"),
        (lambda d: d["audio_projection"]["bias"].update(shape=[4, 1]),
         "'audio_projection.bias' is not a 1-d float64 tensor"),
        (lambda d: d["audio_projection"]["bias"].update(shape=[-1]),
         "'audio_projection.bias' is not a 1-d float64 tensor"),
        (lambda d: d.update(log_tau_pred=[0.0]), "field 'log_tau_pred' must be a number"),
    ],
)
def test_model_reader_rejects_inconsistent_documents(corpus, change, message):
    doc = model_doc(corpus)
    change(doc)
    path = write_doc(corpus, "bad.json", doc)
    with pytest.raises(ConfigError) as err:
        load_model(path)
    assert str(path) in str(err.value) and message in str(err.value)
    code, lines = run_main(*eval_argv(corpus, model=path))
    assert code == 2 and len(lines) == 1


def test_model_reader_skips_config_keys_of_older_versions(corpus):
    doc = model_doc(corpus)
    doc["config"]["lr_text"] = 1e-5
    loaded = load_model(write_doc(corpus, "old.json", doc))
    assert loaded.config == load_model(corpus["model"]).config


def test_model_reader_takes_lr_projection_of_older_versions_as_lr(corpus):
    doc = model_doc(corpus)
    del doc["config"]["lr"]
    doc["config"]["lr_projection"] = 0.05
    assert load_model(write_doc(corpus, "old_lr.json", doc)).config.lr == 0.05


def older_echo(corpus, **top_level):
    """The model document with the config echo of older versions: the mix at
    the top level, not under smoothing."""
    doc = model_doc(corpus)
    del doc["config"]["smoothing"]["clap_mix_lambda"]
    doc["config"].update(top_level)
    return doc


def with_mix(config, lam):
    return replace(config, smoothing=replace(config.smoothing, clap_mix_lambda=lam))


def test_model_reader_takes_the_top_level_mix_of_older_versions(corpus):
    nested = model_doc(corpus)
    nested["config"]["smoothing"]["clap_mix_lambda"] = 0.4
    config = load_model(write_doc(corpus, "new_mix.json", nested)).config
    old = load_model(write_doc(corpus, "old_mix.json", older_echo(corpus, clap_mix_lambda=0.4)))
    assert old.config == config == with_mix(load_model(corpus["model"]).config, 0.4)


def test_model_reader_takes_clap_with_a_partial_mix_of_older_versions_as_clap(corpus):
    # older versions trained objective clap at lambda 1 whatever clap_mix_lambda
    # said, and echoed both
    doc = older_echo(corpus, objective="clap", clap_mix_lambda=0.5)
    path = write_doc(corpus, "old_clap.json", doc)
    config = load_model(path).config
    assert config.smoothing.clap_mix_lambda == 1.0
    assert config == with_mix(load_model(corpus["model"]).config, 1.0)
    code, lines = run_main(*eval_argv(corpus, model=path))
    assert code == 0


def test_model_reader_takes_smooth_of_older_versions_at_its_echoed_mix(corpus):
    doc = older_echo(corpus, objective="smooth", clap_mix_lambda=0.3)
    config = load_model(write_doc(corpus, "old_smooth.json", doc)).config
    assert config == with_mix(load_model(corpus["model"]).config, 0.3)


def test_model_reader_skips_the_kl_floor_of_older_versions(corpus):
    # older versions echo the KL floor as smoothing.floor; it is now a constant
    doc = model_doc(corpus)
    doc["config"]["smoothing"]["floor"] = 1e-9
    loaded = load_model(write_doc(corpus, "old_floor.json", doc))
    assert loaded.config == load_model(corpus["model"]).config


def test_model_roundtrip_is_byte_identical(corpus, tmp_path):
    path = tmp_path / "again.json"
    save_model(path, load_model(corpus["model"]), extra_meta=model_doc(corpus)["_meta"])
    assert path.read_bytes() == corpus["model"].read_bytes()


def test_eval_rejects_features_of_another_width(corpus):
    rows = corpus["features"].read_text().splitlines()
    wide = corpus["root"] / "wide.csv"
    wide.write_text("\n".join([rows[0] + ",extra"] + [r + ",1.0" for r in rows[1:]]) + "\n")
    code, err = run_main(*eval_argv(corpus, features=wide))
    assert code == 2
    assert err == ["error: features have 13 columns, the model's audio input width is 12"]


def with_cell(path, row, column, cell, out, extra_row=None):
    """A copy of an id-matrix CSV with one cell of a data row replaced; rows
    count from the header as row 1. ``extra_row`` appends one more row."""
    rows = list(csv.reader(io.StringIO(Path(path).read_text())))
    rows += [extra_row] if extra_row else []
    rows[row - 1][rows[0].index(column)] = cell
    return write_csv_rows(out, rows)


def sweep_argv(corpus, features, out):
    return ["sweep", "--features", features, "--tags", corpus["tags"], "--labels", corpus["labels"],
            "--batch-size", "8", "--epochs", "1", "--gamma-grid", "0.5", "--beta-grid", "0.5",
            "--out", out]


def embeddings_argv(corpus, embeddings, out):
    classes = sorted({label for _, label in read_labels_csv(corpus["labels"])})
    queries = write_features_csv(
        corpus["root"] / "queries.csv", classes, np.eye(len(classes), 12)
    )
    return ["eval", "--embeddings", embeddings, "--query-embeddings", queries,
            "--labels", corpus["labels"], "--out", out]


# command -> (cell, argv given the features file and the output path)
NON_FINITE_RUNS = {
    "train": ("nan", lambda c, p, out: train_argv(c, c["tags"], features=p, out=out)),
    "sweep": ("inf", sweep_argv),
    "eval-features": ("1e400", lambda c, p, out: eval_argv(c, features=p, out=out)),
    "eval-embeddings": ("-Infinity", embeddings_argv),
}


@pytest.mark.parametrize("command", sorted(NON_FINITE_RUNS))
def test_non_finite_cell_exits_2_naming_its_row_and_column(corpus, tmp_path, command):
    cell, argv = NON_FINITE_RUNS[command]
    path = with_cell(corpus["features"], 4, "f2", cell, tmp_path / "f.csv")
    out = tmp_path / "out"
    code, err = run_main(*argv(corpus, path, out))
    assert code == 2
    assert err == [f"error: {path}: row 4, column 'f2': {cell!r} is not a finite number"]
    assert not out.exists()


def test_train_rejects_a_non_finite_cell_in_a_row_the_id_join_drops(corpus, tmp_path):
    orphan = ["orphan"] + ["0.5"] * 12
    path = with_cell(corpus["features"], 34, "f0", "nan", tmp_path / "f.csv", orphan)
    out = tmp_path / "m.json"
    code, err = run_main(*train_argv(corpus, corpus["tags"], features=path, out=out))
    assert code == 2
    assert err == [f"error: {path}: row 34, column 'f0': 'nan' is not a finite number"]
    assert not out.exists()


# --- typed records -----------------------------------------------------------------

# cells that float() accepts, some of them only just, and cells it rejects
FLOAT_CELLS = ["1_0", " 2.5 ", "\t3\n", "\uff11\uff12", "inf", "-Infinity", "nan", "1e400",
               "1e-400", "-0", "0.30000000000000004", "9007199254740993", "+.5", "5."]
NON_FLOAT_CELLS = ["", " ", "0x10", "1,5", "1__0", "_1", "nan(1)", "1.5j", "True", "abc"]


def write_csv_rows(path, rows) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    return path


FINITE_CELLS = [c for c in FLOAT_CELLS if math.isfinite(float(c))]
NON_FINITE_CELLS = [c for c in FLOAT_CELLS if not math.isfinite(float(c))]


def test_features_csv_cells_parse_as_float_does(tmp_path):
    header = ["id"] + [f"c{i}" for i in range(len(FINITE_CELLS))]
    path = write_csv_rows(tmp_path / "f.csv", [header, ["u0"] + FINITE_CELLS])
    ids, matrix = read_id_matrix_csv(path)
    assert ids == ["u0"]
    expected = np.array([[float(cell) for cell in FINITE_CELLS]])
    np.testing.assert_array_equal(matrix.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("cell", NON_FLOAT_CELLS)
def test_features_csv_names_the_first_non_numeric_cell(tmp_path, cell):
    rows = [["id", "c0", "c1", "c2"], ["u0", "1", "2", "3"], ["u1", "4", cell, "x"]]
    path = write_csv_rows(tmp_path / "f.csv", rows)
    with pytest.raises(NonNumericCell) as err:
        read_id_matrix_csv(path)
    assert str(err.value) == f"{path}: row 3, column 'c1': {cell!r} is not a number"


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("cell", NON_FINITE_CELLS)
def test_features_csv_names_the_first_non_finite_cell(tmp_path, cell, quoted):
    rows = [["id", "c0", "c1", "c2"], ["u0", "1", "2", "3"], ["u1", "4", cell, "nan"]]
    if quoted:
        rows[1][0] = '"u0"'
    path = write_csv_rows(tmp_path / "f.csv", rows)
    with pytest.raises(NonFiniteValue) as err:
        read_id_matrix_csv(path)
    assert str(err.value) == f"{path}: row 3, column 'c1': {cell!r} is not a finite number"


# --- the plain-file parse against the row-wise parse ----------------------------------

def read_outcome(read, path):
    """(ids, shape, bytes) of a read, or the class and message of its error."""
    try:
        ids, matrix = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return ids, matrix.shape, matrix.tobytes()


CORPUS_CELLS = st.sampled_from(FLOAT_CELLS + NON_FLOAT_CELLS + ["#1", "1#", "# 2", "\x1c1", "1\x1f"])
ID_TEXT = st.text(st.sampled_from(["u", "v", '"', ",", "#", " ", "\u00e9", "\x00", "\r", "\x0c",
                                   "\x1c", "\x85", "\u2028"]), max_size=3)
LINE_ENDS = {"lf": ["\n"], "crlf": ["\r\n"], "cr": ["\r"], "mixed": ["\n", "\r\n", "\r"]}


@st.composite
def id_matrix_csv_texts(draw):
    """Text of an id-matrix CSV: valid ids and floats with up to two defects
    (a cell of the float-semantics corpus, an odd id, a ragged row, a blank
    line, a duplicate id, another header), written by csv.writer or joined
    with commas under one line end or several, with or without a final
    newline."""
    width = draw(st.integers(1, 3))
    header = ["id"] + [draw(st.sampled_from(["c", "c#", "d"])) + str(i) for i in range(width)]
    floats = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    rows = [
        [f"u{k}"] + draw(st.lists(floats, min_size=width, max_size=width))
        for k in range(draw(st.integers(1, 4)))
    ]
    # applied in this order, so that no defect edits a blank row
    defects = ["cell", "id", "ragged", "duplicate", "header", "blank"]
    for defect in sorted(draw(st.lists(st.sampled_from(defects), max_size=2)), key=defects.index):
        r = draw(st.integers(0, len(rows) - 1))
        if defect == "cell":
            rows[r][draw(st.integers(1, width))] = draw(CORPUS_CELLS)
        elif defect == "id":
            rows[r][0] = draw(ID_TEXT)
        elif defect == "ragged":
            del rows[r][-1]
        elif defect == "blank":
            rows.insert(r, [])
        elif defect == "duplicate":
            rows.append(list(rows[r]))
        else:
            header[0] = draw(st.sampled_from(["ID", "x", '# {"seed": 0}', ""]))
    rows.insert(0, header)
    ends = draw(st.sampled_from(["lf", "lf", "crlf", "crlf", "cr", "mixed"]))
    if draw(st.booleans()):
        out = io.StringIO()
        csv.writer(out, lineterminator=LINE_ENDS[ends][0]).writerows(rows)
        text = out.getvalue()
    else:
        text = "".join(",".join(row) + draw(st.sampled_from(LINE_ENDS[ends])) for row in rows)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=400, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=id_matrix_csv_texts())
@example(text="id,c0\nu0,1\x1c\n")  # whitespace to loadtxt, not to float()
@example(text="id,c0\r\nu0,1\n\r\n")  # a \n end, then a blank line, in a \r\n file
def test_plain_parse_agrees_with_the_row_wise_parse(tmp_path, text):
    path = tmp_path / "f.csv"
    path.write_text(text, encoding="utf-8", newline="")
    oracle = read_outcome(artifacts._read_id_matrix_rows, path)
    try:
        plain = artifacts._read_plain_id_matrix(path)
    except ValueError:
        plain = None
    event("plain" if plain is not None else "row-wise")
    if plain is not None:
        ids, matrix = plain
        assert (ids, matrix.shape, matrix.tobytes()) == oracle
    assert read_outcome(read_id_matrix_csv, path) == oracle


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_plain_features_csv_takes_the_c_parse(tmp_path, end):
    fixture = make_cluster_fixture(2, n_per_class=3, feature_dim=5)
    path = write_features_csv(tmp_path / "f.csv", fixture.ids, fixture.features)
    path.write_bytes(path.read_bytes().replace(b"\r\n", end.encode()))
    ids, matrix = artifacts._read_plain_id_matrix(path)
    assert ids == fixture.ids
    np.testing.assert_array_equal(matrix.view(np.int64), fixture.features.view(np.int64))


def test_features_csv_cell_over_the_csv_field_limit_is_an_error(tmp_path):
    # a plain file would pass loadtxt; the csv module refuses the cell
    path = tmp_path / "f.csv"
    path.write_text("id,c0\n" + "u" * (csv.field_size_limit() + 1) + ",1\n")
    with pytest.raises(RaggedRows, match="field larger than field limit"):
        read_id_matrix_csv(path)


def test_plain_features_csv_read_peaks_below_three_times_the_file_size(tmp_path):
    rng = np.random.default_rng(0)
    ids = [f"utt{i:05d}" for i in range(2048)]
    path = write_features_csv(tmp_path / "f.csv", ids, rng.standard_normal((2048, 64)))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        read_id_matrix_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * path.stat().st_size


def test_profile_record_roundtrip(tmp_path):
    profile = acoustic_profile(Waveform(synth_tone(220.0, 0.5), 16000))
    path = tmp_path / "p.jsonl"
    write_jsonl(path, [{"id": "x", **asdict(profile)}], {"seed": 0})
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"_meta": {"seed": 0}}
    assert json.loads(lines[1]) == {"id": "x", **asdict(profile)}
    features = read_profiles(path)["x"]
    assert features["pitch"] == profile.pitch_mean_hz
    assert features["duration"] == profile.duration_s


def test_labels_reader_types_and_ignores_unknown_keys(tmp_path):
    path = write_records(tmp_path / "l.jsonl", [
        {"id": 7, "wav": "x.wav", "emotion": "sad", "arousal": "0.25", "valence": 1},
    ])
    assert read_labels(path) == {"7": ({"emotion": "sad"}, {"arousal": 0.25, "valence": 1.0})}


def test_thresholds_reader_wraps_invalid_cut_points(corpus):
    path = write_doc(corpus, "th.json", {"pitch": {"low": 2.0, "high": 1.0}})
    with pytest.raises(ConfigError, match="th.json: field 'pitch': low threshold"):
        load_thresholds(path)


# --- fuzzing every reader through cli.main -------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 100) | st.floats(-1e6, 1e6) | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=4,
)


@st.composite
def jsonl_mutations(draw, text):
    """(mutated text, whether an intact record was duplicated)."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["set", "delete", "truncate", "duplicate"]))
    if op == "duplicate":
        return "\n".join(lines + [lines[i]]) + "\n", True
    if op == "truncate":
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i]) - 1))]
    else:
        record = json.loads(lines[i])
        key = draw(st.sampled_from(sorted(record) + ["id", "tags", "wav", "emotion"]))
        if op == "set":
            record[key] = draw(JSON_VALUES)
        else:
            record.pop(key, None)
        lines[i] = json.dumps(record)
    return "\n".join(lines) + "\n", False


@st.composite
def document_mutations(draw, text):
    """A JSON document with one nested field replaced or deleted, or truncated."""
    op = draw(st.sampled_from(["set", "delete", "truncate"]))
    if op == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))], False
    doc = json.loads(text)
    node = doc
    while True:
        key = draw(st.sampled_from(sorted(node)))
        if isinstance(node[key], dict) and node[key] and draw(st.booleans()):
            node = node[key]
            continue
        if op == "set":
            node[key] = draw(JSON_VALUES)
        else:
            del node[key]
        return json.dumps(doc), False


@st.composite
def csv_mutations(draw, text):
    rows = list(csv.reader(io.StringIO(text)))
    i = draw(st.integers(0, len(rows) - 1))
    op = draw(st.sampled_from(["set", "drop", "truncate", "duplicate"]))
    if op == "duplicate" and i > 0:
        rows.append(rows[i])
    elif op == "truncate":
        lines = text.splitlines()
        lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        return "\n".join(lines) + "\n", False
    else:
        j = draw(st.integers(0, len(rows[i]) - 1))
        if op == "drop":
            del rows[i][j]
        else:
            rows[i][j] = draw(st.text(max_size=6))
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return out.getvalue(), op == "duplicate" and i > 0


# reader -> (input file key, mutation strategy, argv given the mutated path)
FUZZED_READERS = {
    "manifest": ("manifest", jsonl_mutations,
                 lambda c, p: ["extract", "--manifest", p, "--out", c["root"] / "o.jsonl"]),
    "profiles": ("profiles", jsonl_mutations,
                 lambda c, p: tags_argv(c, profiles=p, labels=c["labels_jsonl"])),
    "labels": ("labels_jsonl", jsonl_mutations, lambda c, p: tags_argv(c, labels=p)),
    "tags": ("tags", jsonl_mutations,
             lambda c, p: train_argv(c, p) + ["--embed-dim", "4"]),
    "features": ("features", csv_mutations, lambda c, p: eval_argv(c, features=p)),
    "truth": ("labels", csv_mutations, lambda c, p: eval_argv(c, labels=p)),
    "model": ("model", document_mutations, lambda c, p: eval_argv(c, model=p)),
    "thresholds": ("thresholds", document_mutations,
                   lambda c, p: tags_argv(c, labels=c["labels_jsonl"], thresholds=p)),
    "config": ("config", document_mutations,
               lambda c, p: tags_argv(c) + ["--config", p]),
}


@pytest.mark.parametrize("reader", sorted(FUZZED_READERS))
def test_unmutated_fuzz_inputs_are_accepted(corpus, reader):
    # otherwise every fuzzed example could stop at the same error
    key, _, argv = FUZZED_READERS[reader]
    code, err = run_main(*argv(corpus, corpus[key]))
    assert code == 0 and not any(line.startswith("error:") for line in err), err


@pytest.mark.parametrize("reader", sorted(FUZZED_READERS))
@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_input_exits_cleanly(corpus, reader, data):
    key, mutations, argv = FUZZED_READERS[reader]
    source = Path(corpus[key])
    text, duplicated = data.draw(mutations(source.read_text()))
    path = source.with_name("fuzzed-" + source.name)
    path.write_text(text)
    code, err = run_main(*argv(corpus, path))
    assert code in (0, 1, 2)
    assert not any("Traceback" in line for line in err)
    errors = [line for line in err if line.startswith("error:")]
    assert len(errors) == (code != 0), err
    if duplicated:
        assert code == 2 and "duplicate id" in errors[0]
