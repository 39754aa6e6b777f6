import json
import math
import os
import re
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    random_unit_rows,
    run_cli,
    write_cluster_fixture_files,
    write_embeddings_csv,
    write_labels_csv,
)
from smoothclap.fixtures import make_cluster_fixture, synth_tone, write_wav
from smoothclap.objective import KLMode, SmoothingConfig
from smoothclap.trainer import (
    RUN_OPTIONS,
    RunOption,
    TrainConfig,
    embed_audio,
    embed_query_labels,
    load_model,
    train,
)
from smoothclap.cli import _OPTIONS_BY_KEY, build_parser, resolve_train_config


def read_jsonl_records(path):
    records = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        if "_meta" not in obj:
            records.append(obj)
    return records


def read_meta(path):
    first = json.loads(path.read_text().splitlines()[0])
    return first["_meta"]


# --- extract ---

def make_wavs(directory, n=3):
    entries = []
    for i in range(n):
        name = f"t{i}.wav"
        write_wav(directory / name, synth_tone(180.0 + 40 * i, 0.5, 0.5))
        entries.append({"id": f"t{i}", "wav": name})
    return entries


def write_manifest(path, entries):
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return path


def test_extract_three_wavs(tmp_path, capsys):
    entries = make_wavs(tmp_path)
    manifest = write_manifest(tmp_path / "manifest.jsonl", entries)
    out = tmp_path / "profiles.jsonl"
    assert run_cli("extract", "--manifest", str(manifest), "--out", str(out)) == 0
    records = read_jsonl_records(out)
    assert [r["id"] for r in records] == ["t0", "t1", "t2"]
    assert all("pitch_mean_hz" in r for r in records)
    meta = read_meta(out)
    assert meta["seed"] == 0 and "config" in meta


def test_extract_in_dir(tmp_path):
    make_wavs(tmp_path)
    out = tmp_path / "profiles.jsonl"
    assert run_cli("extract", "--in-dir", str(tmp_path), "--out", str(out)) == 0
    assert len(read_jsonl_records(out)) == 3


def test_extract_corrupt_file_policy(tmp_path, capsys):
    entries = make_wavs(tmp_path)
    (tmp_path / "t1.wav").write_bytes(b"garbage not audio")
    manifest = write_manifest(tmp_path / "manifest.jsonl", entries)
    out = tmp_path / "profiles.jsonl"

    assert run_cli("extract", "--manifest", str(manifest), "--out", str(out)) == 0
    assert len(read_jsonl_records(out)) == 2
    assert "warning: 1 of 3 files failed" in capsys.readouterr().err.splitlines()

    assert (
        run_cli("extract", "--manifest", str(manifest), "--out", str(out), "--strict")
        == 1
    )
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == ["error: 1 of 3 files failed"]


def test_extract_skips_a_wav_with_an_out_of_range_sample_rate(tmp_path, monkeypatch, capsys):
    import smoothclap.paralinguistics as para

    def refuse(*args, **kwargs):
        raise AssertionError("resample_poly must not be called")

    monkeypatch.setattr(para, "resample_poly", refuse)  # the corpus is at 16 kHz
    entries = make_wavs(tmp_path)
    wav = tmp_path / "t1.wav"
    header = bytearray(wav.read_bytes())
    header[24:28] = struct.pack("<I", 4294967291)  # the fmt chunk's sample rate
    wav.write_bytes(bytes(header))
    manifest = write_manifest(tmp_path / "manifest.jsonl", entries)
    out = tmp_path / "profiles.jsonl"

    assert run_cli("extract", "--manifest", str(manifest), "--out", str(out)) == 0
    assert [r["id"] for r in read_jsonl_records(out)] == ["t0", "t2"]
    err = capsys.readouterr().err
    assert "skipping t1" in err and "sample rate 4294967291 Hz" in err
    assert "1 of 3 files failed" in err

    args = ("extract", "--manifest", str(manifest), "--out", str(out), "--strict")
    assert run_cli(*args) == 1


def test_extract_unreadable_manifest(tmp_path):
    out = tmp_path / "profiles.jsonl"
    code = run_cli("extract", "--manifest", str(tmp_path / "missing.jsonl"), "--out", str(out))
    assert code == 2


def test_extract_rejects_duplicate_manifest_ids(tmp_path, capsys):
    entries = make_wavs(tmp_path)
    entries.append({"id": "t0", "wav": entries[1]["wav"]})
    manifest = write_manifest(tmp_path / "manifest.jsonl", entries)
    out = tmp_path / "profiles.jsonl"
    assert run_cli("extract", "--manifest", str(manifest), "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{manifest}:4:" in err and "'t0'" in err and "line 1" in err


# --- tags ---

def write_profiles(path, n=10):
    # distinct values per feature so occupancy is exactly 3/4/3
    lines = []
    for i in range(n):
        lines.append(
            json.dumps(
                {
                    "id": f"u{i}",
                    "pitch_mean_hz": 100.0 + 20 * i,
                    "pitch_std_hz": 1.0,
                    "intensity_mean_db": -40.0 + 3 * i,
                    "intensity_std_db": 1.0,
                    "jitter": 0.001 * (i + 1),
                    "shimmer": 0.01 * (i + 1),
                    "duration_s": 0.5 + 0.25 * i,
                    "voiced_fraction": 1.0,
                    "flags": [],
                }
            )
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def write_label_entries(path, n=10):
    lines = []
    for i in range(n):
        lines.append(
            json.dumps(
                {
                    "id": f"u{i}",
                    "emotion": "happy" if i % 2 else "sad",
                    "gender": "female" if i % 3 else "male",
                    "arousal": i / 10.0,
                }
            )
        )
    path.write_text("\n".join(lines) + "\n")
    return path


def test_tags_fit_mode_occupancy(tmp_path):
    profiles = write_profiles(tmp_path / "profiles.jsonl")
    labels = write_label_entries(tmp_path / "labels.jsonl")
    out = tmp_path / "tags.jsonl"
    thresholds_path = tmp_path / "thresholds.json"
    code = run_cli(
        "tags", "--profiles", str(profiles), "--labels", str(labels),
        "--thresholds-out", str(thresholds_path), "--out", str(out),
    )
    assert code == 0
    records = read_jsonl_records(out)
    assert len(records) == 10
    doc = json.loads(thresholds_path.read_text())
    for feature in ("pitch", "intensity", "jitter", "shimmer", "duration", "arousal"):
        assert feature in doc
        counts = {"low": 0, "mid": 0, "high": 0}
        for r in records:
            counts[r["bins"][feature]] += 1
        assert counts == {"low": 3, "mid": 4, "high": 3}
    # labels render verbatim and first
    assert records[0]["tags"][0] == "sad"


def test_tags_apply_mode_reuses_thresholds(tmp_path):
    profiles = write_profiles(tmp_path / "profiles.jsonl")
    labels = write_label_entries(tmp_path / "labels.jsonl")
    out1 = tmp_path / "tags1.jsonl"
    out2 = tmp_path / "tags2.jsonl"
    thresholds_path = tmp_path / "thresholds.json"
    run_cli("tags", "--profiles", str(profiles), "--labels", str(labels),
            "--thresholds-out", str(thresholds_path), "--out", str(out1))
    code = run_cli("tags", "--profiles", str(profiles), "--labels", str(labels),
                   "--thresholds-in", str(thresholds_path), "--out", str(out2))
    assert code == 0
    assert read_jsonl_records(out1) == read_jsonl_records(out2)


def test_tags_without_labels_is_acoustic_only(tmp_path):
    profiles = write_profiles(tmp_path / "profiles.jsonl")
    out = tmp_path / "tags.jsonl"
    assert run_cli("tags", "--profiles", str(profiles), "--out", str(out)) == 0
    records = read_jsonl_records(out)
    assert all(
        all(t.split()[-1] in ("pitch", "intensity", "jitter", "shimmer", "duration")
            for t in r["tags"])
        for r in records
    )


def test_tags_profile_missing_field_skips_only_that_tag(tmp_path):
    profiles = write_profiles(tmp_path / "profiles.jsonl")
    lines = profiles.read_text().splitlines()
    first = json.loads(lines[0])
    del first["jitter"]
    lines[0] = json.dumps(first)
    profiles.write_text("\n".join(lines) + "\n")
    out = tmp_path / "tags.jsonl"
    assert run_cli("tags", "--profiles", str(profiles), "--out", str(out)) == 0
    records = read_jsonl_records(out)
    assert len(records) == 10
    assert "jitter" not in records[0]["bins"]
    assert sorted(records[0]["bins"]) == ["duration", "intensity", "pitch", "shimmer"]
    assert all("jitter" in r["bins"] for r in records[1:])


@pytest.mark.parametrize("mode", ["fit", "thresholds-in"])
def test_tags_bins_columns_not_records(tmp_path, monkeypatch, mode):
    import smoothclap.cli as cli_module
    import smoothclap.tagging as tagging_module

    profiles = write_profiles(tmp_path / "profiles.jsonl")
    labels = write_label_entries(tmp_path / "labels.jsonl")
    thresholds = tmp_path / "thresholds.json"
    argv = ["tags", "--profiles", str(profiles), "--labels", str(labels),
            "--out", str(tmp_path / "tags.jsonl")]
    assert run_cli(*argv, "--thresholds-out", str(thresholds)) == 0
    calls = {}
    for module, name in ((tagging_module, "assign_bin"), (tagging_module, "render_tags"),
                         (tagging_module, "fit_bins"), (cli_module, "render_tag_table")):
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    extra = ["--thresholds-out", str(thresholds)] if mode == "fit" else ["--thresholds-in", str(thresholds)]
    assert run_cli(*argv, *extra) == 0
    # one table call for all 10 records, and in fit mode one fit per feature:
    # the five acoustic features and arousal
    assert calls == {"render_tag_table": 1, **({"fit_bins": 6} if mode == "fit" else {})}


@pytest.mark.parametrize("flag", ["--refit", "--thresholds-out"])
def test_tags_rejects_refit_and_both_threshold_flags(tmp_path, capsys, flag):
    # --refit is gone, and --thresholds-out would be ignored with --thresholds-in
    profiles = write_profiles(tmp_path / "profiles.jsonl")
    labels = write_label_entries(tmp_path / "labels.jsonl")
    thresholds = tmp_path / "th.json"
    out = tmp_path / "tags.jsonl"
    argv = ["tags", "--profiles", str(profiles), "--labels", str(labels), "--out", str(out)]
    assert run_cli(*argv, "--thresholds-out", str(thresholds)) == 0
    out.unlink()
    capsys.readouterr()
    extra = [flag] if flag == "--refit" else [flag, str(tmp_path / "o.json")]
    assert run_cli(*argv, "--thresholds-in", str(thresholds), *extra) == 2
    assert not out.exists() and not (tmp_path / "o.json").exists()
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if "error:" in line]) == 1


@pytest.mark.parametrize("line", ["5", '"a string that mentions _meta"', "[1, 2]", "{not json"])
def test_tags_rejects_jsonl_line_that_is_not_an_object(tmp_path, capsys, line):
    profiles = write_profiles(tmp_path / "profiles.jsonl")
    profiles.write_text(profiles.read_text() + line + "\n")
    code = run_cli("tags", "--profiles", str(profiles), "--out", str(tmp_path / "t.jsonl"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: ") and "profiles.jsonl:11:" in err


def _append_duplicate_line(path, line_number):
    """Append a copy of the record on ``line_number`` (1-based); returns its id."""
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[line_number - 1]]) + "\n")
    return json.loads(lines[line_number - 1])["id"], len(lines) + 1


@pytest.mark.parametrize("which", ["profiles", "labels"])
def test_tags_rejects_duplicate_ids(tmp_path, capsys, which):
    profiles = write_profiles(tmp_path / "profiles.jsonl")
    labels = write_label_entries(tmp_path / "labels.jsonl")
    target = profiles if which == "profiles" else labels
    dup_id, dup_line = _append_duplicate_line(target, 3)
    out = tmp_path / "t.jsonl"
    code = run_cli(
        "tags", "--profiles", str(profiles), "--labels", str(labels), "--out", str(out)
    )
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{target}:{dup_line}:" in err and repr(dup_id) in err and "line 3" in err


# --- train ---

def cluster_files(tmp_path, seed=6, n_per_class=16):
    return write_cluster_fixture_files(tmp_path, make_cluster_fixture(seed, n_per_class))


def test_train_byte_identical_across_runs(tmp_path):
    files = cluster_files(tmp_path)
    args = [
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--seed", "7", "--epochs", "3", "--batch-size", "16", "--embed-dim", "8",
    ]
    m1 = tmp_path / "m1.json"
    m2 = tmp_path / "m2.json"
    assert run_cli(*args, "--out", str(m1)) == 0
    assert run_cli(*args, "--out", str(m2)) == 0
    assert m1.read_bytes() == m2.read_bytes()
    h1 = (tmp_path / "m1.json.history.csv").read_bytes()
    h2 = (tmp_path / "m2.json.history.csv").read_bytes()
    assert h1 == h2


def test_train_prints_final_loss(tmp_path, capsys):
    files = cluster_files(tmp_path)
    model_path = tmp_path / "model.json"
    code = run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--seed", "1", "--epochs", "2", "--batch-size", "16", "--out", str(model_path),
    )
    assert code == 0
    assert "final epoch loss:" in capsys.readouterr().out


def test_train_clap_equals_smooth_beta0_forward(tmp_path):
    files = cluster_files(tmp_path)
    common = [
        "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--seed", "2", "--epochs", "3", "--batch-size", "16",
    ]
    m_clap = tmp_path / "clap.json"
    m_soft = tmp_path / "soft.json"
    assert run_cli("train", *common, "--clap-mix-lambda", "1", "--out", str(m_clap)) == 0
    assert run_cli(
        "train", *common, "--beta", "0", "--kl-mode", "forward", "--out", str(m_soft),
    ) == 0

    def history(path):
        lines = path.read_text().splitlines()
        return [float(line.split(",")[1]) for line in lines[2:]]

    h_clap = history(tmp_path / "clap.json.history.csv")
    h_soft = history(tmp_path / "soft.json.history.csv")
    assert len(h_clap) == len(h_soft) == 3
    for a, b in zip(h_clap, h_soft):
        assert a == pytest.approx(b, abs=1e-9)


def test_train_rejects_beta0_symmetric(tmp_path):
    files = cluster_files(tmp_path)
    model_path = tmp_path / "model.json"
    code = run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--beta", "0", "--kl-mode", "symmetric", "--out", str(model_path),
    )
    assert code == 2
    assert not model_path.exists()


def test_train_rejects_duplicate_tag_ids(tmp_path, capsys):
    files = cluster_files(tmp_path)
    dup_id, dup_line = _append_duplicate_line(files["tags"], 5)
    model_path = tmp_path / "model.json"
    code = run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--batch-size", "16", "--out", str(model_path),
    )
    assert code == 2
    assert not model_path.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{files['tags']}:{dup_line}:" in err and repr(dup_id) in err


def test_zero_mass_target_in_training_loop_exits_1(tmp_path, capsys):
    # beta = 1e-12 passes config validation, but every off-diagonal target
    # falls below the KL floor, which the first training step detects
    files = cluster_files(tmp_path)
    model_path = tmp_path / "model.json"
    code = run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--kl-mode", "symmetric", "--beta", "1e-12", "--batch-size", "16",
        "--out", str(model_path),
    )
    assert code == 1
    assert not model_path.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "epoch 0, batch start 0" in err and "floor" in err


def test_zero_mass_target_while_building_config_exits_2(tmp_path, capsys):
    files = cluster_files(tmp_path)
    code = run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--kl-mode", "symmetric", "--beta", "0", "--out", str(tmp_path / "m.json"),
    )
    assert code == 2
    assert "symmetric KL requires beta > 0" in capsys.readouterr().err


def test_zero_row_in_training_loop_exits_1(tmp_path, monkeypatch, capsys):
    import smoothclap.trainer as trainer_module
    from smoothclap.errors import ZeroRow

    def degenerate(*args, **kwargs):
        raise ZeroRow("row 3 has norm 0.000e+00, cannot normalize")

    monkeypatch.setattr(trainer_module, "loss_and_grad", degenerate)
    files = cluster_files(tmp_path)
    code = run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--batch-size", "16", "--out", str(tmp_path / "m.json"),
    )
    assert code == 1
    assert "row 3 has norm" in capsys.readouterr().err


def test_nonfinite_loss_in_training_loop_names_the_step(tmp_path, monkeypatch, capsys):
    import smoothclap.trainer as trainer_module
    from smoothclap.errors import NonFiniteLoss

    def diverged(*args, **kwargs):
        raise NonFiniteLoss("forward loss is nan")

    monkeypatch.setattr(trainer_module, "loss_and_grad", diverged)
    files = cluster_files(tmp_path)
    code = run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--batch-size", "16", "--out", str(tmp_path / "m.json"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "epoch 0, batch start 0: forward loss is nan" in err


def test_nonfinite_projection_in_training_loop_exits_1(tmp_path, monkeypatch, capsys):
    import smoothclap.trainer as trainer_module

    real_init = trainer_module.init_projection

    def diverged_init(*args, **kwargs):
        params = real_init(*args, **kwargs)
        params.weights[0, 0] = np.nan
        return params

    monkeypatch.setattr(trainer_module, "init_projection", diverged_init)
    files = cluster_files(tmp_path)
    code = run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--batch-size", "16", "--out", str(tmp_path / "m.json"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "epoch 0, batch start 0" in err and "NaN or Inf" in err


@pytest.mark.parametrize(
    "seed, failure",
    [(0, "tau_pred = exp(1e+200) overflows"), (5, "tau_pred must be > 0, got 0.0")],
)
def test_learned_temperature_out_of_range_exits_1(tmp_path, capsys, seed, failure):
    # lr 1e200 sends log(tau_pred) to +-1e200 after the first step
    files = write_cluster_fixture_files(tmp_path, make_cluster_fixture(16, n_per_class=6))
    model_path = tmp_path / "m.json"
    code = run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--batch-size", "8", "--lr", "1e200", "--seed", str(seed), "--out", str(model_path),
    )
    assert code == 1
    assert not model_path.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"epoch 0, batch start 8: {failure}" in err


def test_zero_feature_row_before_training_exits_2(tmp_path, capsys):
    fixture = make_cluster_fixture(6, 16)
    fixture.features[4] = 0.0
    files = write_cluster_fixture_files(tmp_path, fixture)
    code = run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--batch-size", "16", "--out", str(tmp_path / "m.json"),
    )
    assert code == 2
    assert "row 4 has norm" in capsys.readouterr().err


def test_train_is_byte_identical_across_blas_thread_counts(tmp_path):
    # a batch large enough that the BLAS products split across threads
    fixture = make_cluster_fixture(9, n_per_class=128, feature_dim=96)
    files = write_cluster_fixture_files(tmp_path, fixture)
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "OMP_NUM_THREADS": threads,
            "MKL_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
        }
        model = tmp_path / f"model-{threads}.json"
        history = tmp_path / f"history-{threads}.csv"
        result = subprocess.run(
            [
                sys.executable, "-m", "smoothclap.cli", "train",
                "--features", str(files["features"]), "--tags", str(files["tags"]),
                "--batch-size", "256", "--embed-dim", "64", "--epochs", "2",
                "--clap-mix-lambda", "0.5", "--seed", "4",
                "--out", str(model), "--history", str(history),
            ],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append((model.read_bytes(), history.read_bytes()))
    assert outputs[0] == outputs[1]


# --- eval ---

def test_eval_perfect_fixture(tmp_path, capsys):
    queries = np.eye(2)
    audio = np.vstack([np.tile(queries[0], (4, 1)), np.tile(queries[1], (4, 1))])
    ids = [f"s{i}" for i in range(8)]
    emb_path = write_embeddings_csv(tmp_path / "emb.csv", ids, audio)
    q_path = write_embeddings_csv(tmp_path / "q.csv", ["a", "b"], queries)
    labels_path = write_labels_csv(tmp_path / "labels.csv", ids, ["a"] * 4 + ["b"] * 4)
    report_path = tmp_path / "report.json"
    code = run_cli(
        "eval", "--embeddings", str(emb_path), "--query-embeddings", str(q_path),
        "--labels", str(labels_path), "--out", str(report_path),
    )
    assert code == 0
    assert "UAR: 1.000" in capsys.readouterr().out
    assert json.loads(report_path.read_text())["uar"] == 1.0


def test_eval_confusion_8246_fixture(tmp_path, capsys):
    queries = np.eye(2)
    rows = []
    rows += [queries[0]] * 8 + [queries[1]] * 2  # true a
    rows += [queries[0]] * 4 + [queries[1]] * 6  # true b
    ids = [f"s{i}" for i in range(20)]
    emb_path = write_embeddings_csv(tmp_path / "emb.csv", ids, np.array(rows))
    q_path = write_embeddings_csv(tmp_path / "q.csv", ["a", "b"], queries)
    labels_path = write_labels_csv(tmp_path / "labels.csv", ids, ["a"] * 10 + ["b"] * 10)
    report_path = tmp_path / "report.json"
    predictions_path = tmp_path / "predictions.csv"
    code = run_cli(
        "eval", "--embeddings", str(emb_path), "--query-embeddings", str(q_path),
        "--labels", str(labels_path), "--out", str(report_path),
        "--predictions-csv", str(predictions_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["confusion"] == [[8, 2], [4, 6]]
    assert report["uar"] == pytest.approx(0.7)
    assert "UAR: 0.700" in capsys.readouterr().out
    assert predictions_path.read_text().count("\n") == 22  # meta + header + 20 rows


def test_eval_model_and_external_paths_agree(tmp_path):
    fixture = make_cluster_fixture(seed=4, n_per_class=16)
    files = write_cluster_fixture_files(tmp_path, fixture)
    model_path = tmp_path / "model.json"
    assert run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--seed", "4", "--epochs", "4", "--batch-size", "16", "--out", str(model_path),
    ) == 0

    report_a = tmp_path / "a.json"
    assert run_cli(
        "eval", "--model", str(model_path), "--features", str(files["features"]),
        "--labels", str(files["labels"]), "--out", str(report_a),
    ) == 0

    model = load_model(model_path)
    emb = embed_audio(model, fixture.features)
    q = embed_query_labels(model, sorted(set(fixture.labels)))
    emb_path = write_embeddings_csv(tmp_path / "emb.csv", fixture.ids, emb)
    q_path = write_embeddings_csv(tmp_path / "q.csv", sorted(set(fixture.labels)), q)
    report_b = tmp_path / "b.json"
    assert run_cli(
        "eval", "--embeddings", str(emb_path), "--query-embeddings", str(q_path),
        "--labels", str(files["labels"]), "--out", str(report_b),
    ) == 0

    ra = json.loads(report_a.read_text())
    rb = json.loads(report_b.read_text())
    assert ra["confusion"] == rb["confusion"]
    assert ra["uar"] == rb["uar"]
    assert [p["predicted"] for p in ra["predictions"]] == [
        p["predicted"] for p in rb["predictions"]
    ]


def test_eval_reads_the_model_once(tmp_path, monkeypatch):
    import smoothclap.artifacts as artifacts

    files = cluster_files(tmp_path)
    model_path = tmp_path / "model.json"
    assert run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--epochs", "1", "--batch-size", "16", "--out", str(model_path),
    ) == 0
    calls = []

    def counting_load(path):
        calls.append(path)
        return load_model(path)

    monkeypatch.setattr(artifacts, "load_model", counting_load)
    assert run_cli(
        "eval", "--model", str(model_path), "--features", str(files["features"]),
        "--labels", str(files["labels"]), "--out", str(tmp_path / "r.json"),
    ) == 0
    assert calls == [str(model_path)]


def test_eval_unknown_query_label(tmp_path):
    fixture = make_cluster_fixture(seed=4, n_per_class=16)
    files = write_cluster_fixture_files(tmp_path, fixture)
    model_path = tmp_path / "model.json"
    run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--seed", "4", "--epochs", "2", "--batch-size", "16", "--out", str(model_path),
    )
    code = run_cli(
        "eval", "--model", str(model_path), "--features", str(files["features"]),
        "--labels", str(files["labels"]), "--queries", "angry,bogus",
        "--out", str(tmp_path / "r.json"),
    )
    assert code == 2


def test_eval_rejects_a_repeated_query_label(tmp_path, capsys):
    # argmax ties go to the first copy of a class, so a repeat would be mis-scored
    files = cluster_files(tmp_path, seed=4)
    model_path = tmp_path / "model.json"
    assert run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--seed", "4", "--epochs", "2", "--batch-size", "16", "--out", str(model_path),
    ) == 0
    out = tmp_path / "r.json"
    capsys.readouterr()
    code = run_cli(
        "eval", "--model", str(model_path), "--features", str(files["features"]),
        "--labels", str(files["labels"]), "--queries", "angry,angry,frustrated,happy,excited",
        "--out", str(out),
    )
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'angry'" in err[0]


# --- gradcheck ---

def test_gradcheck_small_sizes(capsys):
    assert run_cli("gradcheck", "--sizes", "B=2,d=3") == 0
    assert "max relative error" in capsys.readouterr().out


def test_gradcheck_corrupted_gradient_fails():
    assert run_cli("gradcheck", "--sizes", "B=2,d=3", "--corrupt-gradient") == 1


def test_gradcheck_bad_sizes():
    assert run_cli("gradcheck", "--sizes", "nope") == 2


@pytest.mark.parametrize(
    "sizes, entry",
    [
        ("B=2,d=3,x", "B=2,d=3,x"),
        ("B=2,d=3;", ""),
        ("B=-1,d=3", "B=-1,d=3"),
        ("B=1", "B=1"),
        ("B=1,d=3", "B=1,d=3"),
        ("B=2,d=0", "B=2,d=0"),
        ("B=2,B=3,d=3", "B=2,B=3,d=3"),
        ("B=2,d=3;B=4,d=x", "B=4,d=x"),
    ],
)
def test_gradcheck_rejects_a_malformed_sizes_entry_with_one_line(capsys, sizes, entry):
    assert run_cli("gradcheck", "--sizes", sizes) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad --sizes entry {entry!r}, expected B=<int>,d=<int>")
    assert captured.err.count("\n") == 1


def test_gradcheck_takes_sizes_in_either_order_down_to_two_rows_and_one_column(capsys):
    assert run_cli("gradcheck", "--sizes", "d=1,B=2;B=2,d=3") == 0
    assert "over 38 configurations" in capsys.readouterr().out


# --- the seed of every subcommand ---

def seed_argv(tmp_path, command):
    """Valid arguments of one non-training subcommand, without a seed."""
    out = str(tmp_path / "out")
    if command == "extract":
        make_wavs(tmp_path)
        return ["extract", "--in-dir", str(tmp_path), "--out", out]
    if command == "tags":
        return ["tags", "--profiles", str(write_profiles(tmp_path / "p.jsonl")), "--out", out]
    if command == "eval":
        fx = make_cluster_fixture(6, n_per_class=4)
        rng = np.random.default_rng(0)
        audio = write_embeddings_csv(tmp_path / "a.csv", fx.ids, random_unit_rows(rng, len(fx.ids), 4))
        queries = write_embeddings_csv(tmp_path / "q.csv", fx.class_names, random_unit_rows(rng, 4, 4))
        return [
            "eval", "--embeddings", str(audio), "--query-embeddings", str(queries),
            "--labels", str(write_labels_csv(tmp_path / "l.csv", fx.ids, fx.labels)), "--out", out,
        ]
    return ["gradcheck", "--sizes", "B=2,d=3"]


NON_TRAINING_COMMANDS = ["extract", "tags", "eval", "gradcheck"]


@pytest.mark.parametrize("command", NON_TRAINING_COMMANDS)
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("seed", [-1, 2**64], ids=["neg", "2**64"])
def test_out_of_range_seed_exits_2_for_every_subcommand(tmp_path, capsys, command, source, seed):
    # train and sweep take the same bound, see test_out_of_range_run_option_exits_2_with_one_line
    argv = seed_argv(tmp_path, command)
    if source == "flag":
        argv += ["--seed", str(seed)]
    else:
        argv += ["--config", str(write_config(tmp_path, {"seed": seed}))]
    before = set(tmp_path.iterdir())
    assert run_cli(*argv) == 2
    assert set(tmp_path.iterdir()) == before
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: seed must lie in [0, 2**64 - 1], got {seed}\n"


@pytest.mark.parametrize("command", NON_TRAINING_COMMANDS)
def test_largest_seed_is_taken_by_every_subcommand(tmp_path, command):
    argv = seed_argv(tmp_path, command)
    assert run_cli(*argv, "--seed", str(2**64 - 1)) == 0
    out = tmp_path / "out"
    if command == "eval":
        assert json.loads(out.read_text())["_meta"]["seed"] == 2**64 - 1
    elif command != "gradcheck":
        assert read_meta(out)["seed"] == 2**64 - 1


# --- sweep ---

def test_sweep_grid_shape_and_determinism(tmp_path):
    files = cluster_files(tmp_path)
    args = [
        "sweep", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--labels", str(files["labels"]), "--gamma-grid", "0.2,0.5,0.8",
        "--beta-grid", "0.1,0.5,0.9", "--seed", "3", "--epochs", "2",
        "--batch-size", "16",
    ]
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    lines = out1.read_text().splitlines()
    assert lines[1] == "gamma,beta,uar,final_loss"
    assert len(lines) == 2 + 9
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("source", ["lambda", "config"])
def test_sweep_rejects_a_mix_of_one(tmp_path, capsys, source):
    # no targets are built at lambda 1, so every gamma/beta cell would train
    # the same model
    files = cluster_files(tmp_path)
    if source == "lambda":
        argv = ["--clap-mix-lambda", "1"]
    else:
        argv = ["--config", str(write_config(tmp_path, {"clap_mix_lambda": 1}))]
    out = tmp_path / "s.csv"
    code = run_cli(
        "sweep", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--labels", str(files["labels"]), "--batch-size", "16", "--out", str(out), *argv,
    )
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: sweep needs a mix below 1")


def test_sweep_rejects_grid_outside_open_interval(tmp_path):
    files = cluster_files(tmp_path)
    code = run_cli(
        "sweep", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--labels", str(files["labels"]), "--beta-grid", "0.0,0.5",
        "--out", str(tmp_path / "s.csv"),
    )
    assert code == 2


def test_sweep_cell_failing_in_training_exits_1_after_writing_every_row(tmp_path, capsys):
    files = cluster_files(tmp_path)
    out = tmp_path / "s.csv"
    code = run_cli(
        "sweep", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--labels", str(files["labels"]), "--gamma-grid", "0.5",
        "--beta-grid", "1e-12,0.5", "--kl-mode", "symmetric", "--epochs", "1",
        "--batch-size", "16", "--out", str(out),
    )
    assert code == 1
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [r[1] for r in rows] == ["1e-12", "0.5"]
    assert rows[0][2:] == ["nan", "nan"]
    assert all(np.isfinite(float(v)) for v in rows[1][2:])
    assert "1 of 2 sweep cells failed" in capsys.readouterr().err


def test_sweep_cell_failing_to_embed_exits_1_after_writing_every_row(
    tmp_path, monkeypatch, capsys
):
    import smoothclap.cli as cli_mod
    from smoothclap.errors import ZeroRow

    real_embed = cli_mod.embed_audio

    def embed(model, features):
        if model.config.smoothing.beta == 0.5:
            raise ZeroRow("row 2 has norm 0.000e+00, cannot normalize")
        return real_embed(model, features)

    monkeypatch.setattr(cli_mod, "embed_audio", embed)
    files = cluster_files(tmp_path)
    out = tmp_path / "s.csv"
    code = run_cli(
        "sweep", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--labels", str(files["labels"]), "--gamma-grid", "0.5",
        "--beta-grid", "0.5,0.9", "--epochs", "1", "--batch-size", "16",
        "--out", str(out),
    )
    assert code == 1
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [r[1] for r in rows] == ["0.5", "0.9"]
    assert rows[0][2:] == ["nan", "nan"]
    assert all(np.isfinite(float(v)) for v in rows[1][2:])
    assert "1 of 2 sweep cells failed" in capsys.readouterr().err


def test_sweep_zero_mass_target_while_building_config_exits_2(tmp_path):
    files = cluster_files(tmp_path)
    out = tmp_path / "s.csv"
    code = run_cli(
        "sweep", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--labels", str(files["labels"]), "--kl-mode", "symmetric", "--beta", "0",
        "--out", str(out),
    )
    assert code == 2
    assert not out.exists()


# --- flags and config files ---

def test_unknown_flag_exits_2(tmp_path, capsys):
    assert run_cli("train", "--does-not-exist", "x") == 2


def test_missing_subcommand_exits_2():
    assert run_cli() == 2


def test_unknown_config_key_is_an_error(tmp_path):
    files = cluster_files(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gamma": 0.4, "mystery_knob": 1}))
    code = run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--config", str(config), "--out", str(tmp_path / "m.json"),
    )
    assert code == 2


def test_log_level_env_var(tmp_path, monkeypatch, capsys):
    import logging

    monkeypatch.setenv("SMOOTHCLAP_LOG", "debug")
    run_cli("gradcheck", "--sizes", "B=2,d=3")
    assert logging.getLogger().level == logging.DEBUG
    monkeypatch.setenv("SMOOTHCLAP_LOG", "bogus")
    run_cli("gradcheck", "--sizes", "B=2,d=3")
    assert "unknown SMOOTHCLAP_LOG" in capsys.readouterr().err
    assert logging.getLogger().level == logging.WARNING


def test_nonfinite_loss_maps_to_exit_1(tmp_path, monkeypatch):
    from smoothclap.errors import NonFiniteLoss
    import smoothclap.cli as cli_mod

    files = cluster_files(tmp_path)

    def explode(*args, **kwargs):
        raise NonFiniteLoss("boom")

    monkeypatch.setattr(cli_mod, "train", explode)
    code = run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--batch-size", "16", "--out", str(tmp_path / "m.json"),
    )
    assert code == 1


@pytest.mark.parametrize("command", ["train", "sweep"])
# config files name the option by its path, or by its field name ("flat")
@pytest.mark.parametrize("source", ["flag", "config", "flat"])
@pytest.mark.parametrize(
    "path, value, message",
    [
        ("seed", 2**64, "seed must lie in [0, 2**64 - 1], got 18446744073709551616"),
        ("seed", -1, "seed must lie in [0, 2**64 - 1], got -1"),
        ("lr", math.nan, "lr must be finite and >= 0, got nan"),
        ("lr", math.inf, "lr must be finite and >= 0, got inf"),
        ("lr", -1e-3, "lr must be finite and >= 0, got -0.001"),
        ("smoothing.tau_pred", math.inf, "tau_pred must be finite, got inf"),
        ("smoothing.tau_a2a", math.inf, "tau_a2a must be finite, got inf"),
        ("smoothing.tau_t2t", math.nan, "tau_t2t must be > 0, got nan"),
        ("smoothing.clap_mix_lambda", 1.5, "clap_mix_lambda must lie in [0, 1], got 1.5"),
    ],
    ids=[
        "seed-2**64", "seed-neg", "lr-nan", "lr-inf", "lr-neg",
        "tau_pred-inf", "tau_a2a-inf", "tau_t2t-nan", "clap_mix_lambda-1.5",
    ],
)
def test_out_of_range_run_option_exits_2_with_one_line(
    tmp_path, capsys, command, source, path, value, message
):
    flag = RUN_OPTION_CASES[path][0]
    if source == "flag":
        argv = [flag, str(value)]
    else:
        key = path.rpartition(".")[2] if source == "flat" else path
        argv = ["--config", str(write_config(tmp_path, {key: value}))]
    files = cluster_files(tmp_path)
    out = tmp_path / "out"
    inputs = ["--features", str(files["features"]), "--tags", str(files["tags"])]
    if command == "sweep":
        inputs += ["--labels", str(files["labels"])]
    code = run_cli(command, *inputs, "--batch-size", "16", "--out", str(out), *argv)
    assert code == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


def test_largest_seed_trains(tmp_path):
    files = cluster_files(tmp_path)
    out = tmp_path / "m.json"
    code = run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--batch-size", "16", "--epochs", "1", "--seed", str(2**64 - 1), "--out", str(out),
    )
    assert code == 0
    assert load_model(out).config.seed == 2**64 - 1


def test_flags_override_config_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"smoothing": {"gamma": 0.4}, "epochs": 9}))
    args = build_parser().parse_args([
        "train", "--features", "f.csv", "--tags", "t.jsonl", "--out", "m.json",
        "--config", str(config), "--gamma", "0.9",
    ])
    config_obj = resolve_train_config(args)
    assert config_obj.smoothing.gamma == 0.9  # flag wins
    assert config_obj.epochs == 9  # file survives where no flag given


# --- run options: every config field by flag, field name, path and nested path ---

# path in the config echo -> (flag, value, parsed)
RUN_OPTION_CASES = {
    "batch_size": ("--batch-size", 16, 16),
    "epochs": ("--epochs", 2, 2),
    "lr": ("--lr", 0.01, 0.01),
    "seed": ("--seed", 3, 3),
    "embed_dim": ("--embed-dim", 8, 8),
    "smoothing.gamma": ("--gamma", 0.3, 0.3),
    "smoothing.beta": ("--beta", 0.2, 0.2),
    "smoothing.tau_a2a": ("--tau-a2a", 0.5, 0.5),
    "smoothing.tau_t2t": ("--tau-t2t", 0.6, 0.6),
    "smoothing.tau_pred": ("--tau-pred", 0.7, 0.7),
    "smoothing.kl_mode": ("--kl-mode", "forward", KLMode.FORWARD),
    "smoothing.clap_mix_lambda": ("--clap-mix-lambda", 0.25, 0.25),
}


class _TrainCalled(Exception):
    """Raised by the stand-in for train once it has recorded its config."""


def config_received_by_train(tmp_path, monkeypatch, *argv):
    import smoothclap.cli as cli_mod

    files = cluster_files(tmp_path)
    received = []

    def record(features, tag_lists, config):
        received.append(config)
        raise _TrainCalled

    monkeypatch.setattr(cli_mod, "train", record)
    with pytest.raises(_TrainCalled):
        run_cli(
            "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
            "--out", str(tmp_path / "m.json"), *argv,
        )
    return received[0]


def field_value(config, path):
    for name in path.split("."):
        config = getattr(config, name)
    return config


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_run_option_cases_cover_every_config_field():
    names = {f.name for f in fields(TrainConfig) if f.name != "smoothing"}
    names |= {f"smoothing.{f.name}" for f in fields(SmoothingConfig)}
    assert names == set(RUN_OPTION_CASES)


@pytest.mark.parametrize("source", ["flag", "flat", "dotted", "nested"])
@pytest.mark.parametrize("path", sorted(RUN_OPTION_CASES))
def test_run_option_reaches_train(tmp_path, monkeypatch, path, source):
    # flat is the field name, dotted the path; they differ for smoothing fields
    flag, value, parsed = RUN_OPTION_CASES[path]
    assert field_value(TrainConfig(), path) != parsed
    if source == "flag":
        argv = [flag, str(value)]
    else:
        doc = {path.rpartition(".")[2] if source == "flat" else path: value}
        if source == "nested":
            for part in reversed(path.split(".")):
                value = {part: value}
            doc = value
        argv = ["--config", str(write_config(tmp_path, doc))]
    config = config_received_by_train(tmp_path, monkeypatch, *argv)
    assert field_value(config, path) == parsed


def test_flag_beats_config_file_through_main(tmp_path, monkeypatch):
    config_path = write_config(tmp_path, {"epochs": 5, "smoothing": {"beta": 0.3}})
    config = config_received_by_train(
        tmp_path, monkeypatch, "--config", str(config_path), "--epochs", "2"
    )
    assert config.epochs == 2
    assert config.smoothing.beta == 0.3


@pytest.mark.parametrize(
    "doc",
    [
        {"lr_text": 1e-5},
        {"train.lr_text": 1e-5},
        {"train": {"lr_text": 1e-5}},
        {"lr_projection": 0.01},
        {"train.lr": 0.01},
        {"train": {"epochs": 5}},
        {"train": {"seed": 1}},
        {"smoothing": {"lr": 0.01}},
        {"objective": "clap"},
        {"objective": "smooth"},
        {"floor": 1e-9},
        {"smoothing.floor": 1e-9},
        {"smoothing": {"floor": 1e-9}},
    ],
)
def test_unknown_run_option_keys_exit_2(tmp_path, doc, capsys):
    files = cluster_files(tmp_path)
    code = run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "m.json"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "unknown config key" in err


def test_model_config_echo_is_a_valid_config_file(tmp_path, monkeypatch):
    files = cluster_files(tmp_path)
    model_path = tmp_path / "model.json"
    assert run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--seed", "4", "--epochs", "2", "--batch-size", "16", "--lr", "0.02",
        "--embed-dim", "8", "--clap-mix-lambda", "0.25", "--gamma", "0.3", "--beta", "0.2",
        "--tau-a2a", "0.5", "--kl-mode", "forward", "--out", str(model_path),
    ) == 0
    trained = load_model(model_path).config
    echo = json.loads(model_path.read_text())["config"]
    config = config_received_by_train(
        tmp_path, monkeypatch, "--config", str(write_config(tmp_path, echo))
    )
    assert config == trained
    assert config.lr == 0.02 and config.smoothing.kl_mode is KLMode.FORWARD


def test_run_options_have_one_name_each():
    # the path is the echo key and a config key; its last part is the field
    # name, the flag and the other config key
    assert not any(f.metadata for cls in (TrainConfig, SmoothingConfig) for f in fields(cls))
    assert [f.name for f in fields(RunOption)] == ["path", "type", "default"]

    def paths(doc, prefix=""):
        for key, value in doc.items():
            yield from paths(value, f"{prefix}{key}.") if isinstance(value, dict) else [prefix + key]

    assert [opt.path for opt in RUN_OPTIONS] == list(paths(TrainConfig().to_json_dict()))
    assert set(_OPTIONS_BY_KEY) == {k for o in RUN_OPTIONS for k in (o.path, o.field)}


def test_train_help_lists_the_flags(capsys):
    assert run_cli("train", "--help") == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", capsys.readouterr().out))
    # the help-suppressed --objective is not among them
    assert flags == {
        "--help", "--features", "--tags", "--out", "--history", "--config",
        *(flag for flag, _, _ in RUN_OPTION_CASES.values()),
    }


def test_lr_text_flag_is_gone(tmp_path):
    files = cluster_files(tmp_path)
    code = run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--lr-text", "1e-5", "--out", str(tmp_path / "m.json"),
    )
    assert code == 2


def test_train_objective_smooth_changes_nothing(tmp_path):
    # the one spelling of the retired objective option that train still parses
    files = cluster_files(tmp_path)
    common = [
        "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--seed", "2", "--epochs", "2", "--batch-size", "16",
    ]
    plain, shim = tmp_path / "plain.json", tmp_path / "shim.json"
    assert run_cli("train", *common, "--out", str(plain)) == 0
    assert run_cli("train", *common, "--objective", "smooth", "--out", str(shim)) == 0
    assert shim.read_bytes() == plain.read_bytes()
    history = tmp_path / "plain.json.history.csv"
    assert (tmp_path / "shim.json.history.csv").read_bytes() == history.read_bytes()


@pytest.mark.parametrize(
    "command, argv",
    [
        ("train", ["--objective", "clap"]),
        ("train", ["--floor", "1e-9"]),
        ("sweep", ["--objective", "smooth"]),
        ("sweep", ["--objective", "clap"]),
        ("sweep", ["--floor", "1e-9"]),
    ],
)
def test_retired_option_flags_exit_2(tmp_path, command, argv):
    files = cluster_files(tmp_path)
    inputs = ["--features", str(files["features"]), "--tags", str(files["tags"])]
    if command == "sweep":
        inputs += ["--labels", str(files["labels"])]
    out = tmp_path / "out"
    assert run_cli(command, *inputs, "--batch-size", "16", "--out", str(out), *argv) == 2
    assert not out.exists()


def test_meta_headers_hold_what_each_command_reads(tmp_path):
    files = cluster_files(tmp_path)
    model_path = tmp_path / "model.json"
    assert run_cli(
        "train", "--features", str(files["features"]), "--tags", str(files["tags"]),
        "--seed", "4", "--epochs", "1", "--batch-size", "16", "--out", str(model_path),
    ) == 0
    doc = json.loads(model_path.read_text())
    assert doc["_meta"]["config"] == doc["config"]
    assert doc["_meta"]["seed"] == 4

    profiles = write_profiles(tmp_path / "profiles.jsonl")
    out = tmp_path / "tags.jsonl"
    assert run_cli("tags", "--profiles", str(profiles), "--seed", "5", "--out", str(out)) == 0
    meta = read_meta(out)
    assert meta["tool"] == "smoothclap-tags"
    assert meta["seed"] == 5
    assert meta["config"] == {"seed": 5}
