"""Workloads: what each one generates, the CLI chain it runs, and the checks.

Every workload runs the same five subcommands through ``smoothclap.cli.main``,
in process and in order (one closed-loop caller): extract, tags, train, eval,
gradcheck. The sizes decide which layer dominates. Where a workload is not
about a stage, that stage still runs on a small fixed input, so every
end-to-end metric is measured on every workload.

A subcommand that takes only milliseconds on a workload is called several
times in a row within a pass. Its per-call time is then the mean over at least
a few hundred milliseconds, which keeps it from following the machine's
moment-to-moment speed; a single short call varies far more than the bounds.
"""
from __future__ import annotations

import io
import json
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from smoothclap import fixtures
from smoothclap.cli import main as cli_main

import corpora
from spans import Tracer, instrument

PITCH_TOLERANCE_HZ = 2.0  # acceptance criterion 5
# Training always uses this seed, so UAR moves from seed to seed only with the
# generated data, not with the initialisation and shuffle order as well.
TRAIN_SEED = 0
# gradcheck runs at these sizes in every pass and in the set-up warm-up
GRADCHECK_SIZES = "B=2,d=3"


@dataclass(frozen=True)
class Workload:
    name: str  # BENCHMARK.json says why each workload exists
    # "wav": tags and training consume the extracted profiles;
    # "cluster": they consume synthetic profiles and cluster-fixture features
    source: str
    wav_clean: int
    wav_durations: tuple[float, ...]
    malformed_per_kind: int
    batch_size: int
    epochs: int
    lr: float
    cluster_rows: int = 0
    feature_dim: int = 0
    clap_mix_lambda: float = 0.0
    repeats: tuple[tuple[str, int], ...] = ()  # (subcommand, calls per pass); default 1

    def calls(self, command: str) -> int:
        return dict(self.repeats).get(command, 1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wav_pipeline",
            source="wav",
            wav_clean=144,
            wav_durations=(0.5, 1.0, 1.5),
            malformed_per_kind=2,
            batch_size=16,
            epochs=20,
            lr=0.01,
            clap_mix_lambda=0.5,
            repeats=(("tags", 40), ("train", 2), ("eval", 60), ("gradcheck", 4)),
        ),
        Workload(
            name="large_batch_train",
            source="cluster",
            wav_clean=12,
            wav_durations=(0.5,),
            malformed_per_kind=1,
            cluster_rows=8192,
            feature_dim=64,
            batch_size=1024,
            epochs=1,
            lr=0.2,
            repeats=(("extract", 8), ("eval", 3), ("gradcheck", 4)),
        ),
    )
}


@dataclass
class Corpus:
    root: Path
    wavs: list[corpora.WavItem]
    # cluster workloads: fixed inputs; wav workloads derive features per pass
    profiles: Path | None = None
    labels: Path | None = None
    features: Path | None = None
    truth: Path | None = None
    rows: int = 0
    classes: int = len(corpora.CLASSES)

    @property
    def manifest(self) -> Path:
        return self.root / "wavs" / "manifest.jsonl"


def build_corpus(wl: Workload, seed: int, root: Path) -> Corpus:
    wavs = corpora.write_wav_corpus(
        root / "wavs", seed, wl.wav_clean, wl.wav_durations, wl.malformed_per_kind
    )
    corpus = Corpus(root=root, wavs=wavs)
    if wl.source == "cluster":
        corpus.classes = corpora.write_cluster_corpus(root, seed, wl.cluster_rows, wl.feature_dim)
        corpus.profiles = root / "profiles.jsonl"
        corpus.labels = root / "labels.jsonl"
        corpus.features = root / "features.csv"
        corpus.truth = root / "truth.csv"
        corpus.rows = wl.cluster_rows
    else:
        corpus.rows = sum(w.malformed is None for w in wavs)
    return corpus


@dataclass
class Pass:
    """One run of the chain: stage wall times, outcome counts and artifacts."""

    seconds: dict[str, float] = field(default_factory=dict)  # all calls of the subcommand
    calls: dict[str, int] = field(default_factory=dict)
    walls: list[float] = field(default_factory=list)  # each call, in call order
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    uar: float = float("nan")
    artifacts: dict[str, bytes] = field(default_factory=dict)
    tracer: Tracer | None = None

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.problems.append(what)
        return ok

    def per_call(self, command: str) -> float:
        return self.seconds[command] / self.calls[command]

    @property
    def pipeline_s(self) -> float:
        """Wall time of one call of each subcommand."""
        return sum(map(self.per_call, self.seconds))


def _read_records(path: Path) -> list[dict]:
    records = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        if "_meta" not in obj:
            records.append(obj)
    return records


def run_chain(wl: Workload, corpus: Corpus, seed: int, out: Path, traced: bool) -> Pass:
    """Run extract, tags, train, eval and gradcheck and check each output."""
    out.mkdir(parents=True)
    result = Pass(tracer=Tracer() if traced else None)
    tracer = result.tracer

    def call(command: str, *args: str) -> bool:
        ok = True
        calls = wl.calls(command)
        start = time.perf_counter()
        for _ in range(calls):
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(buf):
                began = time.perf_counter()
                try:
                    with tracer.root(command) if tracer else nullcontext():
                        code = cli_main([command, *args])
                except Exception:  # a crash is a failed operation, not a dead benchmark
                    code = -1
                    buf.write(traceback.format_exc())
                result.walls.append(time.perf_counter() - began)
            ok &= result.check(code == 0, f"{command} exited {code}: {buf.getvalue()[-400:]}")
        result.seconds[command] = time.perf_counter() - start
        result.calls[command] = calls
        return ok

    with instrument(tracer) if tracer else nullcontext():
        profiles = out / "profiles.jsonl"
        if call("extract", "--manifest", str(corpus.manifest), "--seed", str(seed), "--out", str(profiles)):
            _check_extract(result, corpus, _read_records(profiles))

        if wl.source == "wav":
            records = _read_records(profiles) if profiles.exists() else []
            ids = [r["id"] for r in records]
            label_of = {w.id: w.label for w in corpus.wavs}
            features, truth = out / "features.csv", out / "truth.csv"
            if records:
                corpora.write_id_matrix(features, ids, fixtures.profiles_to_features(records))
            corpora.write_truth(truth, ids, [label_of[i] for i in ids])
            tag_inputs = ["--profiles", str(profiles), "--labels", str(corpus.manifest)]
        else:
            features, truth = corpus.features, corpus.truth
            tag_inputs = ["--profiles", str(corpus.profiles), "--labels", str(corpus.labels)]

        tags = out / "tags.jsonl"
        if call("tags", *tag_inputs, "--thresholds-out", str(out / "thresholds.json"),
                "--seed", str(seed), "--out", str(tags)):
            records = _read_records(tags)
            result.check(len(records) == corpus.rows, f"tags wrote {len(records)} records, expected {corpus.rows}")
            result.check(all(r["tags"] for r in records), "a tag record has no tags")

        model, history = out / "model.json", out / "model.json.history.csv"
        train_args = [
            "--features", str(features), "--tags", str(tags), "--out", str(model),
            "--objective", "smooth", "--kl-mode", "symmetric",
            "--batch-size", str(wl.batch_size), "--epochs", str(wl.epochs),
            "--lr", repr(wl.lr), "--seed", str(TRAIN_SEED),
        ]
        if wl.clap_mix_lambda:
            train_args += ["--clap-mix-lambda", repr(wl.clap_mix_lambda)]
        if call("train", *train_args):
            result.artifacts = {"model.json": model.read_bytes(), "history.csv": history.read_bytes()}
            losses = history.read_text().splitlines()[2:]
            result.check(len(losses) == wl.epochs, f"history has {len(losses)} epochs, expected {wl.epochs}")

        report = out / "report.json"
        if call("eval", "--model", str(model), "--features", str(features), "--labels", str(truth),
                "--seed", str(seed), "--out", str(report)):
            doc = json.loads(report.read_text())
            result.uar = float(doc["uar"])
            total = sum(map(sum, doc["confusion"]))
            result.check(total == corpus.rows, f"eval scored {total} rows, expected {corpus.rows}")
            result.check(
                result.uar > 1.0 / corpus.classes,
                f"UAR {result.uar:.3f} is not above chance ({1.0 / corpus.classes:.3f})",
            )

        call("gradcheck", "--sizes", GRADCHECK_SIZES, "--seed", str(seed))
    return result


def _check_extract(result: Pass, corpus: Corpus, records: list[dict]) -> None:
    """Malformed files are rejected, clean ones accepted, tones hit their pitch."""
    by_id = {r["id"]: r for r in records}
    for item in corpus.wavs:
        accepted = item.id in by_id
        if item.malformed:
            result.check(not accepted, f"{item.id} ({item.malformed}) was not rejected")
            continue
        if not result.check(accepted, f"{item.id} ({item.kind} at {item.rate} Hz) was rejected"):
            continue
        if item.kind == "tone":
            pitch = float(by_id[item.id]["pitch_mean_hz"])
            result.check(
                abs(pitch - item.f0_hz) <= PITCH_TOLERANCE_HZ,
                f"{item.id}: pitch {pitch:.2f} Hz for a {item.f0_hz:.2f} Hz tone at {item.rate} Hz",
            )


def samples_consumed(wl: Workload, corpus: Corpus) -> int:
    return wl.epochs * (corpus.rows // wl.batch_size) * wl.batch_size


def stage_rates(wl: Workload, corpus: Corpus, p: Pass) -> dict[str, float]:
    """End-to-end metrics of one pass, before the medians are taken."""
    return {
        "pipeline_s": p.pipeline_s,
        "extract_files_per_s": len(corpus.wavs) / p.per_call("extract"),
        "tags_records_per_s": corpus.rows / p.per_call("tags"),
        "train_samples_per_s": samples_consumed(wl, corpus) / p.per_call("train"),
        "eval_rows_per_s": corpus.rows / p.per_call("eval"),
        "gradcheck_s": p.per_call("gradcheck"),
    }
