"""Deterministic synthetic fixtures for desk-scale verification.

Two families live here: a four-class feature-cluster fixture with graded
inter-class proximity (two tightly overlapping pairs), used to probe whether
training preserves class-similarity structure, and audio synthesis helpers
(tones, chirps, pulse trains) for exercising the feature extractor against
known ground truth.
"""
from __future__ import annotations

import math
import wave
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import FractionalPeriod
from .paralinguistics import AcousticProfile

# class centers sit on a circle at these angles (degrees); the two tight
# pairs are (0,1) and (2,3), and all six pairwise cosines are distinct
CLASS_ANGLES_DEG = (0.0, 24.0, 70.0, 99.0)
CLASS_NAMES = ("angry", "frustrated", "happy", "excited")
PAIR_TAGS = ("low valence", "low valence", "high valence", "high valence")


@dataclass
class ClusterFixture:
    ids: list[str]
    features: np.ndarray
    tag_lists: list[list[str]]
    labels: list[str]
    class_names: list[str]
    center_cosines: np.ndarray  # (C, C) ground-truth class proximity


def make_cluster_fixture(
    seed: int,
    n_per_class: int = 40,
    feature_dim: int = 12,
    noise: float = 0.30,
) -> ClusterFixture:
    """Four noisy clusters whose centers have graded pairwise similarity."""
    angles = np.deg2rad(CLASS_ANGLES_DEG)
    centers = np.zeros((len(angles), feature_dim))
    centers[:, 0] = np.cos(angles)
    centers[:, 1] = np.sin(angles)
    cosines = centers @ centers.T

    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    ids: list[str] = []
    rows: list[np.ndarray] = []
    tag_lists: list[list[str]] = []
    labels: list[str] = []
    k = 0
    for c, name in enumerate(CLASS_NAMES):
        for _ in range(n_per_class):
            rows.append(centers[c] + noise * rng.standard_normal(feature_dim))
            ids.append(f"u{k:04d}")
            tag_lists.append([name, PAIR_TAGS[c]])
            labels.append(name)
            k += 1
    return ClusterFixture(
        ids=ids,
        features=np.stack(rows),
        tag_lists=tag_lists,
        labels=labels,
        class_names=list(CLASS_NAMES),
        center_cosines=cosines,
    )


def pair_indices(num_classes: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(num_classes) for j in range(i + 1, num_classes)]


def class_centroid_similarities(embeddings, labels, class_names) -> np.ndarray:
    """Cosine similarity between class centroids, one value per (i < j) pair."""
    emb = np.asarray(embeddings, dtype=np.float64)
    centroids = []
    for name in class_names:
        mask = np.array([lab == name for lab in labels])
        mean = emb[mask].mean(axis=0)
        centroids.append(mean / np.linalg.norm(mean))
    centroids = np.stack(centroids)
    sims = centroids @ centroids.T
    return np.array([sims[i, j] for i, j in pair_indices(len(class_names))])


def ground_truth_proximities(fixture: ClusterFixture) -> np.ndarray:
    c = fixture.center_cosines
    return np.array([c[i, j] for i, j in pair_indices(len(fixture.class_names))])


# --- audio synthesis ----------------------------------------------------------

def synth_tone(
    freq_hz: float,
    duration_s: float,
    amplitude: float = 0.5,
    rate: int = 16000,
    phase: float = 0.0,
) -> np.ndarray:
    n = int(round(duration_s * rate))
    t = np.arange(n) / rate
    return amplitude * np.sin(2.0 * math.pi * freq_hz * t + phase)


def synth_chirp(
    f_start_hz: float,
    f_end_hz: float,
    duration_s: float,
    amplitude: float = 0.5,
    rate: int = 16000,
) -> np.ndarray:
    n = int(round(duration_s * rate))
    t = np.arange(n) / rate
    # instantaneous frequency ramps linearly from f_start to f_end
    phase = 2.0 * math.pi * (f_start_hz * t + (f_end_hz - f_start_hz) * t * t / (2.0 * duration_s))
    return amplitude * np.sin(phase)


def synth_pulse_train(
    freq_hz: float, duration_s: float, amplitude: float = 0.8, rate: int = 16000
) -> np.ndarray:
    """Unit impulses at integer multiples of the (rounded) period."""
    n = int(round(duration_s * rate))
    period = int(round(rate / freq_hz))
    x = np.zeros(n)
    x[::period] = amplitude
    return x


def synth_alternating_amplitude_tone(
    freq_hz: float,
    duration_s: float,
    amp_a: float,
    amp_b: float,
    rate: int = 16000,
) -> np.ndarray:
    """Sine whose amplitude switches between amp_a and amp_b every period.

    ``rate / freq_hz`` must be an integer so period boundaries fall exactly
    on samples.
    """
    period = rate / freq_hz
    if abs(period - round(period)) > 1e-9:
        raise FractionalPeriod("freq_hz must divide the sample rate")
    period = int(round(period))
    cycle = np.sin(2.0 * math.pi * np.arange(period) / period)
    return np.resize(np.concatenate((amp_a * cycle, amp_b * cycle)), int(round(duration_s * rate)))


def write_wav(path, samples, rate: int = 16000) -> None:
    """Write mono PCM-16; samples are clipped to [-1, 1]."""
    s = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = np.round(s * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())


# --- WAV corpus for end-to-end runs --------------------------------------------

TONE_CLASS_SPECS = {
    # label -> (pitch band low, pitch band high, amplitude)
    "low_quiet": (140.0, 180.0, 0.2),
    "low_loud": (140.0, 180.0, 0.8),
    "high_quiet": (300.0, 380.0, 0.2),
    "high_loud": (300.0, 380.0, 0.8),
}


def make_tone_corpus(
    directory, seed: int, n_per_class: int = 6, duration_s: float = 0.6
) -> list[dict]:
    """Write a small labeled corpus of pure tones; returns manifest entries.

    Each entry is {"id", "wav", "emotion", "arousal"} with the wav path
    relative to ``directory``; arousal is a noisy copy of the amplitude so
    dimensional binning has something to chew on.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    entries: list[dict] = []
    k = 0
    for label, (f_lo, f_hi, amp) in sorted(TONE_CLASS_SPECS.items()):
        for _ in range(n_per_class):
            freq = float(rng.uniform(f_lo, f_hi))
            name = f"s{k:03d}.wav"
            write_wav(directory / name, synth_tone(freq, duration_s, amplitude=amp))
            entries.append(
                {
                    "id": f"s{k:03d}",
                    "wav": name,
                    "emotion": label,
                    "arousal": round(amp + float(rng.uniform(-0.05, 0.05)), 6),
                }
            )
            k += 1
    return entries


def profiles_to_features(profiles: list[dict]) -> np.ndarray:
    """Toy audio featurizer: z-scored columns of the numeric profile fields.

    Lets extractor output feed the trainer directly in end-to-end runs.
    """
    cols = [f.name for f in fields(AcousticProfile) if f.name != "flags"]
    x = np.array([[float(p[c]) for c in cols] for p in profiles])
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    return (x - mean) / np.maximum(std, 1e-9)
