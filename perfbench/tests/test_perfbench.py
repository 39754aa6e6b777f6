"""Tests of the benchmark itself: span arithmetic, metric names, smoke runs."""
import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import chains
import measure
import spans
from smoothclap import numeric, objective, trainer

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")

END_TO_END = [
    "setup_s", "pipeline_s", "extract_files_per_s", "tags_records_per_s",
    "train_samples_per_s", "eval_rows_per_s", "gradcheck_s", "uar",
    "success_rate", "peak_rss_mb",
]
PER_LAYER = [
    *(f"paralinguistics.{f}.ms" for f in ("load_wav", "resample_poly", "estimate_f0", "shimmer_local")),
    "paralinguistics.acoustic_profile.self_ms", "paralinguistics.estimate_f0.frames",
    "paralinguistics.rejected",
    *(f"tagging.{f}.{k}" for f in ("fit_bins", "render_tags") for k in ("ms", "calls")),
    "evaluation.read_id_matrix_csv.ms", "evaluation.read_id_matrix_csv.cells",
    *(f"evaluation.{f}.ms" for f in ("zero_shot_classify", "confusion_and_uar", "save_report")),
    *(f"objective.loss_and_grad.{k}" for k in ("calls", "ms", "ms_p50", "ms_p99")),
    *(f"objective.{f}.ms" for f in ("build_targets", "soft_loss", "clap_infonce")),
    "numeric.kl_sum.calls", "numeric.kl_sum.ms",
    *(f"numeric.{f}.calls" for f in ("row_softmax", "gram", "l2_normalize_rows")),
    "numeric.as_matrix.calls", "numeric.as_matrix.per_step",
    *(f"trainer.{f}.{k}" for f in ("featurize_text", "adam_step") for k in ("calls", "ms")),
    "trainer.train.self_ms",
    "objective.loss_with_fixed_targets.calls", "objective.loss_with_fixed_targets.ms",
    "gradcheck.finite_difference_grads.ms",
    *(f"cli.{c}.self_ms" for c in ("extract", "tags", "train", "eval")),
    "trainer.save_model.ms", "trace.overhead_ratio",
]


def _span(name, start, end, parent=spans.ROOT):
    return spans.Span(name, float(start), float(end), parent)


def test_self_times_of_a_hand_built_tree():
    tree = [
        _span("train", 0, 10),
        _span("cli.train", 1, 9, 0),
        _span("read", 2, 3, 1),
        _span("fit", 4, 8, 1),
        _span("step", 5, 6, 3),
        _span("step", 6, 7.5, 3),
    ]
    assert spans.self_times(tree) == pytest.approx([2, 3, 1, 1.5, 1, 1.5])
    assert spans.tree_self_totals(tree) == [pytest.approx(10.0)]
    agg = spans.aggregate(tree)
    assert agg[("train", "step")].calls == 2
    assert agg[("train", "step")].total == pytest.approx(2.5)
    assert agg[("train", "fit")].self_total == pytest.approx(1.5)


def test_overlapping_children_are_covered_once():
    # a parent interval covered by [1, 5] and [4, 8] loses 7, not 8; a child
    # that runs past its parent only counts inside the parent
    tree = [_span("a", 0, 10), _span("b", 1, 5, 0), _span("c", 4, 8, 0), _span("d", 9, 12, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(2.0)
    assert spans.tree_self_totals(tree) != [pytest.approx(10.0)]


def test_format_tree_nests_children_under_their_parent():
    # x first appears under the second "a", which opens after "b"
    tree = [_span("r", 0, 4), _span("a", 0, 1, 0), _span("b", 1, 2, 0), _span("a", 2, 4, 0), _span("x", 3, 4, 3)]
    lines = [line.split()[0] for line in spans.format_tree(tree)]
    assert lines == ["r", "a", "x", "b"]


def test_instrument_rebinds_every_copy_and_restores_it():
    original = numeric.as_matrix
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        assert numeric.as_matrix is not original
        assert objective.as_matrix is numeric.as_matrix
        assert trainer.as_matrix is numeric.as_matrix
        with tracer.root("train"):
            numeric.l2_normalize_rows([[3.0, 4.0]])
    assert numeric.as_matrix is original and objective.as_matrix is original
    assert tracer.counts[("train", "numeric.as_matrix")] == 1
    assert tracer.counts[("train", "numeric.l2_normalize_rows")] == 1


def test_benchmark_json_names_every_metric():
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in SPEC[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [m["name"] for m in SPEC["end_to_end"]] == END_TO_END
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(PER_LAYER)
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(chains.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def _tiny(name):
    wl = chains.WORKLOADS[name]
    if wl.source == "wav":
        return dataclasses.replace(wl, wav_clean=48, wav_durations=(0.3,), malformed_per_kind=1, batch_size=8, epochs=3)
    return dataclasses.replace(
        wl, wav_clean=12, wav_durations=(0.3,), cluster_rows=512, batch_size=min(wl.batch_size, 128)
    )


@pytest.mark.parametrize("name", sorted(chains.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_scale_smoke_run(name, trace, tmp_path):
    outcome = measure.measure(_tiny(name), seed=5, seconds=0, trace=trace, work=tmp_path / "work",
                              setups=2, min_rounds=2 if not trace else 1)
    assert outcome.correct, outcome.problems
    result = measure.result_line(outcome)
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    assert result["attempted"] > 0 and result["failed"] == 0
    if trace:
        assert outcome.tree and outcome.tree[0].startswith("extract")
        assert result["metrics"]["paralinguistics.rejected"]["value"] == 3
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (tmp_path / "work").exists()


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "wav_pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""


def test_self_time_check_compares_with_the_measured_wall_time():
    p = chains.Pass(tracer=spans.Tracer())
    p.tracer.spans = [_span("tags", 0, 2), _span("cli.tags", 0.5, 1.5, 0), _span("eval", 3, 4)]
    p.walls = [2.0 + measure.SELF_TIME_TOLERANCE_S / 2, 4.0]
    assert measure.self_time_problems(p)[0] == 2
    assert measure.self_time_problems(p)[1] == [
        "eval: self times sum to 1.000000 s, its wall time is 4.000000 s"
    ]
    p.walls = [2.0]
    assert measure.self_time_problems(p) == (1, ["2 subcommand spans for 1 calls"])
