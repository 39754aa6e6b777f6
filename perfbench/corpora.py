"""Seeded benchmark inputs, built only from ``smoothclap.fixtures`` and a Philox RNG.

The seed changes the content (frequencies, phases, noise, labels) but never
the sizes: every seed gives the same file count, durations, sample rates and
row counts, so throughput stays comparable from seed to seed.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from smoothclap import fixtures

CLASSES = tuple(sorted(fixtures.TONE_CLASS_SPECS))
KINDS = ("tone", "chirp", "pulse", "alternating")
RATES = (16000, 22050, 44100)
MALFORMED_KINDS = ("garbage", "truncated", "too_short")
GENDERS = ("female", "male")
# per cluster-fixture class (angry, frustrated, happy, excited)
CLASS_PITCH_HZ = (230.0, 150.0, 210.0, 290.0)
CLASS_INTENSITY_DB = (-10.0, -22.0, -16.0, -8.0)
CLASS_DIMENSIONS = ((4.2, 1.8, 3.8), (2.6, 2.2, 2.0), (3.0, 4.2, 3.0), (4.4, 4.0, 3.4))  # arousal, valence, dominance

# Philox streams of the benchmark's own RNG, kept apart from the fixtures' keys
_WAV_STREAM = 1
_CLUSTER_STREAM = 2


def _rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class WavItem:
    id: str
    wav: str
    label: str
    kind: str
    rate: int
    duration_s: float
    f0_hz: float  # synthesized pitch for tones, 0 where it is not pinned
    malformed: str | None = None


def _synthesize(kind: str, label: str, rate: int, duration: float, rng) -> tuple[np.ndarray, float]:
    f_lo, f_hi, amp = fixtures.TONE_CLASS_SPECS[label]
    if kind == "tone":
        freq = float(rng.uniform(f_lo, f_hi))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        return fixtures.synth_tone(freq, duration, amplitude=amp, rate=rate, phase=phase), freq
    if kind == "chirp":
        start, end = rng.uniform(f_lo, f_hi, size=2)
        return fixtures.synth_chirp(float(start), float(end), duration, amplitude=amp, rate=rate), 0.0
    if kind == "pulse":
        freq = float(rng.uniform(f_lo, f_hi))
        return fixtures.synth_pulse_train(freq, duration, amplitude=amp, rate=rate), 0.0
    # alternating-amplitude tones need a whole number of samples per period
    period = int(rng.integers(math.ceil(rate / f_hi), math.floor(rate / f_lo) + 1))
    freq = rate / period
    samples = fixtures.synth_alternating_amplitude_tone(freq, duration, amp, 0.7 * amp, rate=rate)
    return samples, 0.0


def write_wav_corpus(
    directory: Path, seed: int, clean: int, durations: tuple[float, ...], malformed_per_kind: int
) -> list[WavItem]:
    """Write clean files plus malformed ones, and a manifest that lists them all.

    File k is synthesizer KINDS[k % 4] at RATES[k % 3] (4 and 3 are coprime,
    so any 12 consecutive files cover every pair), class CLASSES[k // 12 % 4]
    and duration durations[k // 48 % len(durations)].
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, _WAV_STREAM)
    items: list[WavItem] = []
    for k in range(clean):
        kind = KINDS[k % len(KINDS)]
        rate = RATES[k % len(RATES)]
        label = CLASSES[(k // 12) % len(CLASSES)]
        duration = durations[(k // 48) % len(durations)]
        samples, f0 = _synthesize(kind, label, rate, duration, rng)
        name = f"c{k:04d}.wav"
        fixtures.write_wav(directory / name, samples, rate=rate)
        items.append(WavItem(f"c{k:04d}", name, label, kind, rate, duration, f0))
    for k in range(malformed_per_kind * len(MALFORMED_KINDS)):
        bad = MALFORMED_KINDS[k % len(MALFORMED_KINDS)]
        name = f"m{k:04d}.wav"
        path = directory / name
        if bad == "garbage":
            path.write_bytes(rng.bytes(4096))
        elif bad == "truncated":
            fixtures.write_wav(path, fixtures.synth_tone(200.0, 0.5), rate=16000)
            path.write_bytes(path.read_bytes()[:1024])  # data chunk ends early
        else:
            fixtures.write_wav(path, fixtures.synth_tone(200.0, 0.030), rate=16000)
        items.append(WavItem(f"m{k:04d}", name, CLASSES[0], bad, 16000, 0.0, 0.0, bad))
    with open(directory / "manifest.jsonl", "w") as fh:
        for item in items:
            amp = fixtures.TONE_CLASS_SPECS[item.label][2]
            entry = {
                "id": item.id,
                "wav": item.wav,
                "emotion": item.label,
                "arousal": round(amp + float(rng.uniform(-0.05, 0.05)), 6),
            }
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return items


def write_id_matrix(path: Path, ids: list[str], matrix: np.ndarray) -> None:
    """Features CSV ``id,f0..fN`` with every float written in full."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["id"] + [f"f{i}" for i in range(matrix.shape[1])]) + "\n")
        for row_id, row in zip(ids, matrix.tolist()):
            fh.write(row_id + "," + ",".join(map(repr, row)) + "\n")


def write_truth(path: Path, ids: list[str], labels: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"])
        writer.writerows(zip(ids, labels))


def write_cluster_corpus(directory: Path, seed: int, rows: int, feature_dim: int) -> int:
    """Features CSV and truth CSV from the cluster fixture, plus synthetic
    profile and label JSONL whose labels carry emotion, gender and the three
    dimensions. Returns the number of classes."""
    directory.mkdir(parents=True, exist_ok=True)
    fx = fixtures.make_cluster_fixture(seed, n_per_class=rows // len(fixtures.CLASS_NAMES), feature_dim=feature_dim)
    write_id_matrix(directory / "features.csv", fx.ids, fx.features)
    write_truth(directory / "truth.csv", fx.ids, fx.labels)
    rng = _rng(seed, _CLUSTER_STREAM)
    n = len(fx.ids)
    # pitch, intensity and the dimensions follow the class, as they would in
    # speech, so the rendered tags carry class information for training to find
    cls = np.array([fx.class_names.index(label) for label in fx.labels])
    pitch = np.array(CLASS_PITCH_HZ)[cls] + rng.normal(0.0, 25.0, n)
    intensity = np.array(CLASS_INTENSITY_DB)[cls] + rng.normal(0.0, 4.0, n)
    dims = np.array(CLASS_DIMENSIONS)[cls] + rng.normal(0.0, 0.6, (n, 3))
    jitter = rng.uniform(0.0, 0.03, n)
    shimmer = rng.uniform(0.0, 0.15, n)
    duration = rng.uniform(0.5, 6.0, n)
    gender = rng.integers(0, len(GENDERS), n)
    with open(directory / "profiles.jsonl", "w") as fp, open(directory / "labels.jsonl", "w") as fl:
        for i, utt in enumerate(fx.ids):
            profile = {
                "id": utt,
                "pitch_mean_hz": float(pitch[i]),
                "pitch_std_hz": 0.05 * float(pitch[i]),
                "intensity_mean_db": float(intensity[i]),
                "intensity_std_db": 3.0,
                "jitter": float(jitter[i]),
                "shimmer": float(shimmer[i]),
                "duration_s": float(duration[i]),
                "voiced_fraction": 0.8,
                "flags": [],
            }
            label = {
                "id": utt,
                "emotion": fx.labels[i],
                "gender": GENDERS[gender[i]],
                "arousal": float(dims[i, 0]),
                "valence": float(dims[i, 1]),
                "dominance": float(dims[i, 2]),
            }
            fp.write(json.dumps(profile, sort_keys=True) + "\n")
            fl.write(json.dumps(label, sort_keys=True) + "\n")
    return len(fx.class_names)
