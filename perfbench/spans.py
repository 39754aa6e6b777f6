"""In-memory span tracer that instruments smoothclap from outside the package.

Instrumenting rebinds module attributes. ``from .numeric import as_matrix``
copies the name into the importing module, so every ``smoothclap`` module
that holds the same function object is rebound, not only the defining one,
and the originals are put back when the ``instrument`` block exits.

Spans record name, start, end, parent and whether the call raised. A span's
self time is its duration minus the part of it that its child spans cover.
Hot helpers that are only counted get a cheaper wrapper without a span.
"""
from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

ROOT = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, ROOT for a subcommand
    failed: bool = False
    work: int = 0  # units the call reported: frames, cells

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and call counts for one chain pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # (subcommand, function) -> calls, for count-only wrappers
        self.counts: Counter[tuple[str, str]] = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else ROOT
        span = Span(name, 0.0, 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """Span around one subcommand, opened by the benchmark itself."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def span_wrapper(self, name: str, fn: Callable, work: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                self._close(span)
            if work is not None:
                span.work = int(work(out))
            return out

        traced.__wrapped__ = fn
        return traced

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts, stack, spans = self.counts, self._stack, self.spans

        def counted(*args, **kwargs):
            counts[(spans[stack[0]].name if stack else "", name)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


# --- instrumentation table ----------------------------------------------------
# (module, attribute, span name, work extractor); metric names use the span name.

def _frames(track) -> int:
    return track.frames_hz.size


def _cells(result) -> int:
    return result[1].size


SPANNED = (
    ("cli", "cmd_extract", "cli.extract", None),
    ("cli", "cmd_tags", "cli.tags", None),
    ("cli", "cmd_train", "cli.train", None),
    ("cli", "cmd_eval", "cli.eval", None),
    ("cli", "cmd_gradcheck", "cli.gradcheck", None),
    ("paralinguistics", "load_wav", "paralinguistics.load_wav", None),
    ("paralinguistics", "resample_poly", "paralinguistics.resample_poly", None),
    ("paralinguistics", "acoustic_profile", "paralinguistics.acoustic_profile", None),
    ("paralinguistics", "estimate_f0", "paralinguistics.estimate_f0", _frames),
    ("paralinguistics", "shimmer_local", "paralinguistics.shimmer_local", None),
    ("tagging", "fit_bins", "tagging.fit_bins", None),
    ("tagging", "render_tags", "tagging.render_tags", None),
    ("evaluation", "read_id_matrix_csv", "evaluation.read_id_matrix_csv", _cells),
    ("evaluation", "zero_shot_classify", "evaluation.zero_shot_classify", None),
    ("evaluation", "confusion_and_uar", "evaluation.confusion_and_uar", None),
    ("evaluation", "save_report", "evaluation.save_report", None),
    ("objective", "loss_and_grad", "objective.loss_and_grad", None),
    ("objective", "build_targets", "objective.build_targets", None),
    ("objective", "soft_loss", "objective.soft_loss", None),
    ("objective", "clap_infonce", "objective.clap_infonce", None),
    ("objective", "loss_with_fixed_targets", "objective.loss_with_fixed_targets", None),
    ("numeric", "kl_sum", "numeric.kl_sum", None),
    ("trainer", "train", "trainer.train", None),
    ("trainer", "featurize_text", "trainer.featurize_text", None),
    ("trainer", "adam_step", "trainer.adam_step", None),
    ("trainer", "save_model", "trainer.save_model", None),
    ("gradcheck", "finite_difference_grads", "gradcheck.finite_difference_grads", None),
)

COUNTED = (
    ("numeric", "as_matrix", "numeric.as_matrix"),
    ("numeric", "row_softmax", "numeric.row_softmax"),
    ("numeric", "gram", "numeric.gram"),
    ("numeric", "l2_normalize_rows", "numeric.l2_normalize_rows"),
)


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "smoothclap" or name.startswith("smoothclap."))
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Rebind every smoothclap binding of the tabled functions to wrappers."""
    modules = _package_modules()
    wrappers = []
    for module, attr, name, work in SPANNED:
        fn = getattr(sys.modules[f"smoothclap.{module}"], attr)
        wrappers.append((fn, tracer.span_wrapper(name, fn, work)))
    for module, attr, name in COUNTED:
        fn = getattr(sys.modules[f"smoothclap.{module}"], attr)
        wrappers.append((fn, tracer.count_wrapper(name, fn)))
    restore = []
    for fn, wrapped in wrappers:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    restore.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)
    try:
        yield tracer
    finally:
        for mod, attr, fn in restore:
            setattr(mod, attr, fn)


# --- analysis -------------------------------------------------------------------

def children_of(spans: list[Span]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        kids.setdefault(span.parent, []).append(i)
    return kids


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the union of the child intervals clipped to the span."""
    kids = children_of(spans)
    out = []
    for i, span in enumerate(spans):
        intervals = sorted(
            (max(spans[k].start, span.start), min(spans[k].end, span.end))
            for k in kids.get(i, ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(span.duration - covered)
    return out


def root_of(spans: list[Span]) -> list[int]:
    """Index of the subcommand span each span belongs to."""
    roots = []
    for i, span in enumerate(spans):
        roots.append(i if span.parent == ROOT else roots[span.parent])
    return roots


def tree_self_totals(spans: list[Span]) -> list[float]:
    """Sum of the self times in each subcommand's tree, in call order."""
    roots = root_of(spans)
    totals = {i: 0.0 for i, span in enumerate(spans) if span.parent == ROOT}
    for i, s in enumerate(self_times(spans)):
        totals[roots[i]] += s
    return list(totals.values())


@dataclass
class Aggregate:
    calls: int = 0
    total: float = 0.0
    self_total: float = 0.0
    work: int = 0
    failed: int = 0


def aggregate(spans: list[Span]) -> dict[tuple[str, str], Aggregate]:
    """Totals keyed by (subcommand, span name)."""
    selfs = self_times(spans)
    roots = root_of(spans)
    out: dict[tuple[str, str], Aggregate] = {}
    for i, span in enumerate(spans):
        agg = out.setdefault((spans[roots[i]].name, span.name), Aggregate())
        agg.calls += 1
        agg.total += span.duration
        agg.self_total += selfs[i]
        agg.work += span.work
        agg.failed += span.failed
    return out


def format_tree(spans: list[Span]) -> list[str]:
    """Span tree merged by call path: calls, total ms and self ms per node."""
    selfs = self_times(spans)
    paths: list[tuple[str, ...]] = []
    merged: dict[tuple[str, ...], list[float]] = {}
    for i, span in enumerate(spans):
        path = (span.name,) if span.parent == ROOT else paths[span.parent] + (span.name,)
        paths.append(path)
        node = merged.setdefault(path, [0, 0.0, 0.0])
        node[0] += 1
        node[1] += span.duration
        node[2] += selfs[i]
    kids: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for path in merged:
        kids.setdefault(path[:-1], []).append(path)
    lines: list[str] = []

    def emit(path: tuple[str, ...]) -> None:
        calls, total, own = merged[path]
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(
            f"{label:<52} {calls:>7d} calls {total * 1e3:>11.3f} ms  self {own * 1e3:>11.3f} ms"
        )
        for child in kids.get(path, ()):
            emit(child)

    for top in kids.get((), ()):
        emit(top)
    return lines
