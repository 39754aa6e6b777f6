"""Measurement of one workload: set-up, passes, medians and per-layer totals."""
from __future__ import annotations

import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy
import scipy

from smoothclap.cli import main as cli_main

import chains
import spans

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SETUPS = 5
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# A subcommand's wall time, taken around the call by the benchmark, may exceed
# the self times of its span tree by the tracer's own entry and exit work.
SELF_TIME_TOLERANCE_S = 1e-3

# metric -> (span name, field, subcommand whose spans count, or None for all)
LAYER_FIELDS = {
    "paralinguistics.load_wav.ms": ("paralinguistics.load_wav", "ms", "extract"),
    "paralinguistics.resample_poly.ms": ("paralinguistics.resample_poly", "ms", "extract"),
    "paralinguistics.estimate_f0.ms": ("paralinguistics.estimate_f0", "ms", "extract"),
    "paralinguistics.shimmer_local.ms": ("paralinguistics.shimmer_local", "ms", "extract"),
    "paralinguistics.acoustic_profile.self_ms": ("paralinguistics.acoustic_profile", "self_ms", "extract"),
    "paralinguistics.estimate_f0.frames": ("paralinguistics.estimate_f0", "work", "extract"),
    "tagging.fit_bins.ms": ("tagging.fit_bins", "ms", "tags"),
    "tagging.fit_bins.calls": ("tagging.fit_bins", "calls", "tags"),
    "tagging.render_tags.ms": ("tagging.render_tags", "ms", "tags"),
    "tagging.render_tags.calls": ("tagging.render_tags", "calls", "tags"),
    "evaluation.read_id_matrix_csv.ms": ("evaluation.read_id_matrix_csv", "ms", None),
    "evaluation.read_id_matrix_csv.cells": ("evaluation.read_id_matrix_csv", "work", None),
    "evaluation.zero_shot_classify.ms": ("evaluation.zero_shot_classify", "ms", "eval"),
    "evaluation.confusion_and_uar.ms": ("evaluation.confusion_and_uar", "ms", "eval"),
    "evaluation.save_report.ms": ("evaluation.save_report", "ms", "eval"),
    "objective.loss_and_grad.calls": ("objective.loss_and_grad", "calls", "train"),
    "objective.loss_and_grad.ms": ("objective.loss_and_grad", "ms", "train"),
    "objective.build_targets.ms": ("objective.build_targets", "ms", "train"),
    "objective.soft_loss.ms": ("objective.soft_loss", "ms", "train"),
    "objective.clap_infonce.ms": ("objective.clap_infonce", "ms", "train"),
    "numeric.kl_sum.calls": ("numeric.kl_sum", "calls", "train"),
    "numeric.kl_sum.ms": ("numeric.kl_sum", "ms", "train"),
    "numeric.row_softmax.calls": ("numeric.row_softmax", "counted", "train"),
    "numeric.gram.calls": ("numeric.gram", "counted", "train"),
    "numeric.l2_normalize_rows.calls": ("numeric.l2_normalize_rows", "counted", "train"),
    "numeric.as_matrix.calls": ("numeric.as_matrix", "counted", "train"),
    "trainer.featurize_text.calls": ("trainer.featurize_text", "calls", "train"),
    "trainer.featurize_text.ms": ("trainer.featurize_text", "ms", "train"),
    "trainer.adam_step.calls": ("trainer.adam_step", "calls", "train"),
    "trainer.adam_step.ms": ("trainer.adam_step", "ms", "train"),
    "trainer.train.self_ms": ("trainer.train", "self_ms", "train"),
    "trainer.save_model.ms": ("trainer.save_model", "ms", "train"),
    "objective.loss_with_fixed_targets.calls": ("objective.loss_with_fixed_targets", "calls", "gradcheck"),
    "objective.loss_with_fixed_targets.ms": ("objective.loss_with_fixed_targets", "ms", "gradcheck"),
    "gradcheck.finite_difference_grads.ms": ("gradcheck.finite_difference_grads", "ms", "gradcheck"),
    "cli.extract.self_ms": ("cli.extract", "self_ms", "extract"),
    "cli.tags.self_ms": ("cli.tags", "self_ms", "tags"),
    "cli.train.self_ms": ("cli.train", "self_ms", "train"),
    "cli.eval.self_ms": ("cli.eval", "self_ms", "eval"),
}


@dataclass
class Outcome:
    section: str  # "end_to_end" or "per_layer"
    values: dict[str, float]
    samples: dict[str, int]  # how many values each median or percentile rests on
    attempted: int
    failed: int
    problems: list[str]
    setups: int
    passes: int
    tree: list[str] = field(default_factory=list)  # traced runs: span tree of the last pass

    @property
    def correct(self) -> bool:
        return self.failed == 0


def blas_info(threads_set: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads_set": threads_set}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads_reported"] = int(getter())
                return info
    return info


def machine_info(threads_set: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas_info(threads_set),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def set_up(wl: chains.Workload, seed: int, work: Path, times: int):
    """Build the corpus ``times`` times from scratch, each followed by a warm-up
    call; keeps the last corpus. Returns it with the set-up durations."""
    durations, corpus = [], None
    for k in range(times):
        if corpus is not None:
            shutil.rmtree(corpus.root, ignore_errors=True)
        start = time.perf_counter()
        corpus = chains.build_corpus(wl, seed, work / f"setup{k}")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli_main(["gradcheck", "--sizes", chains.GRADCHECK_SIZES, "--seed", str(seed)])
        durations.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"warm-up gradcheck exited {code}")
    return corpus, durations


def run_passes(wl, corpus, seed, seconds, work, traced_pattern, min_rounds) -> list[chains.Pass]:
    """Run rounds of passes, one per entry of ``traced_pattern``, until one more
    round would overrun ``seconds``; at least ``min_rounds`` rounds."""
    passes = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in traced_pattern:
            out = work / f"pass{len(passes):03d}"
            passes.append(chains.run_chain(wl, corpus, seed, out, traced))
            shutil.rmtree(out, ignore_errors=True)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return passes


def repeat_problems(passes: list[chains.Pass]) -> tuple[int, list[str]]:
    """Model, history and UAR of every pass must equal those of the first pass.

    Returns the number of comparisons and the ones that failed.
    """
    first = passes[0]
    compared = 0
    problems = []
    for k, p in enumerate(passes[1:], start=1):
        for name, blob in first.artifacts.items():
            compared += 1
            if p.artifacts.get(name) != blob:
                problems.append(f"pass {k}: {name} differs from pass 0")
        compared += 1
        if p.uar != first.uar:
            problems.append(f"pass {k}: UAR {p.uar!r} differs from pass 0 ({first.uar!r})")
    return compared, problems


def self_time_problems(p: chains.Pass) -> tuple[int, list[str]]:
    """The self times in each subcommand's span tree must add up to the wall
    time the benchmark measured around that call.

    Returns the number of calls compared and the ones that failed.
    """
    names = [s.name for s in p.tracer.spans if s.parent == spans.ROOT]
    totals = spans.tree_self_totals(p.tracer.spans)
    if len(totals) != len(p.walls):
        return 1, [f"{len(totals)} subcommand spans for {len(p.walls)} calls"]
    problems = [
        f"{name}: self times sum to {total:.6f} s, its wall time is {wall:.6f} s"
        for name, total, wall in zip(names, totals, p.walls)
        if not 0.0 <= wall - total <= SELF_TIME_TOLERANCE_S
    ]
    return len(totals), problems


def end_to_end(wl, corpus, passes, setups, attempted, failed) -> tuple[dict[str, float], dict[str, int]]:
    rates = [chains.stage_rates(wl, corpus, p) for p in passes]
    values = {name: statistics.median([r[name] for r in rates]) for name in rates[0]}
    samples = {name: len(passes) for name in values}
    values["setup_s"] = statistics.median(setups)
    samples["setup_s"] = len(setups)
    values["uar"] = passes[0].uar
    values["success_rate"] = (attempted - failed) / attempted
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples["uar"] = samples["success_rate"] = samples["peak_rss_mb"] = 1
    return values, samples


def _pass_layers(wl, corpus, p: chains.Pass) -> dict[str, float]:
    """Per-layer totals of one pass, per call of each subcommand."""
    agg = spans.aggregate(p.tracer.spans)
    counted = p.tracer.counts

    def total(name, what, scope):
        if what == "counted":
            return sum(n / p.calls[root] for (root, fn), n in counted.items() if fn == name and scope in (None, root))
        parts = [(a, p.calls[root]) for (root, fn), a in agg.items() if fn == name and scope in (None, root)]
        if what == "ms":
            return 1e3 * sum(a.total / n for a, n in parts)
        if what == "self_ms":
            return 1e3 * sum(a.self_total / n for a, n in parts)
        return sum(getattr(a, what) / n for a, n in parts)

    row = {metric: total(*where) for metric, where in LAYER_FIELDS.items()}
    row["paralinguistics.rejected"] = sum(
        total(name, "failed", "extract")
        for name in ("paralinguistics.load_wav", "paralinguistics.acoustic_profile")
    )
    steps = chains.samples_consumed(wl, corpus) // wl.batch_size
    row["numeric.as_matrix.per_step"] = row["numeric.as_matrix.calls"] / steps
    return row


def layer_values(wl, corpus, traced, untraced) -> tuple[dict[str, float], dict[str, int]]:
    """Medians over traced passes of per-pass totals, plus per-call percentiles
    of the training ``loss_and_grad`` calls pooled over those passes."""
    rows = [_pass_layers(wl, corpus, p) for p in traced]
    values = {name: statistics.median([row[name] for row in rows]) for name in rows[0]}
    samples = {name: len(rows) for name in values}
    durations = []
    for p in traced:
        tree = p.tracer.spans
        durations += [
            1e3 * s.duration
            for s, r in zip(tree, spans.root_of(tree))
            if s.name == "objective.loss_and_grad" and tree[r].name == "train"
        ]
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    values["objective.loss_and_grad.ms_p50"] = cuts[49]
    values["objective.loss_and_grad.ms_p99"] = cuts[98]
    samples["objective.loss_and_grad.ms_p50"] = samples["objective.loss_and_grad.ms_p99"] = len(durations)
    values["trace.overhead_ratio"] = statistics.median([p.pipeline_s for p in traced]) / statistics.median(
        [p.pipeline_s for p in untraced]
    )
    samples["trace.overhead_ratio"] = min(len(traced), len(untraced))
    return values, samples


def measure(
    wl: chains.Workload,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    setups: int = SETUPS,
    min_rounds: int | None = None,
) -> Outcome:
    """Set up, run passes for ``seconds`` and reduce them to metrics.

    Untraced runs set up ``setups`` times and report the end-to-end metrics.
    Traced runs set up once and alternate untraced and traced passes, so the
    tracing overhead is measured in the same run as the per-layer metrics.
    """
    if min_rounds is None:
        min_rounds = MIN_TRACED_PAIRS if trace else MIN_PASSES
    try:
        corpus, setup_times = set_up(wl, seed, work, 1 if trace else setups)
        pattern = (False, True) if trace else (False,)
        passes = run_passes(wl, corpus, seed, seconds, work, pattern, min_rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    problems = [q for p in passes for q in p.problems]
    compared, repeat = repeat_problems(passes)
    attempted += compared
    problems += repeat
    tree = []
    if trace:
        traced = [p for p in passes if p.tracer is not None]
        for p in traced:
            checked, missed = self_time_problems(p)
            attempted += checked
            problems += missed
        untraced = [p for p in passes if p.tracer is None]
        values, samples = layer_values(wl, corpus, traced, untraced)
        tree = spans.format_tree(traced[-1].tracer.spans)
        section = "per_layer"
    else:
        values, samples = end_to_end(wl, corpus, passes, setup_times, attempted, len(problems))
        section = "end_to_end"
    return Outcome(
        section=section,
        values=values,
        samples=samples,
        attempted=attempted,
        failed=len(problems),
        problems=problems,
        setups=len(setup_times),
        passes=len(passes),
        tree=tree,
    )


def result_line(outcome: Outcome) -> dict:
    """The JSON result: every metric of the outcome's section, with its unit."""
    metrics = {
        entry["name"]: {"value": float(outcome.values[entry["name"]]), "unit": entry["unit"]}
        for entry in SPEC[outcome.section]
    }
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
