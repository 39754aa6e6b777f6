"""Interpretable acoustic features from raw waveforms.

Covers the small feature set used for tag generation: pitch statistics,
frame intensity, jitter, shimmer, and utterance duration. Pitch is tracked
per frame with a normalized autocorrelation (cross-correlation of the frame
against its own shifted copy, so the estimate is unbiased by the shrinking
overlap) plus parabolic peak interpolation. The correlation comes from an
FFT of the smallest 5-smooth length at or above the frame length plus the
longest lag (720 points at 16 kHz); no lag wraps around onto another, so it
is exact up to rounding. Jitter and shimmer use the "local" convention: mean
absolute consecutive difference divided by the mean, pooled over maximal
voiced runs.

The front end has one configuration and no options: 16 kHz audio, 25 ms
frames every 10 ms, a 50-600 Hz pitch band, a voicing threshold of 0.3 and a
peak ratio of 0.85 (the constants below). Only the sample rate of a Waveform
comes from the input. ``scipy.signal`` is imported on the first resample,
not with this module, so a process that never resamples never loads it.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import (
    AmplitudeOutOfRange,
    CorruptHeader,
    EmptyAudio,
    EmptyInput,
    InconsistentF0Track,
    NonFiniteValue,
    SignalTooShort,
    TooShort,
    UnsupportedFormat,
)

TARGET_RATE = 16000
MIN_SAMPLE_RATE = 8000
MAX_SAMPLE_RATE = 192000
FRAME_MS = 25.0
HOP_MS = 10.0
FMIN_HZ = 50.0
FMAX_HZ = 600.0
VOICING_THRESHOLD = 0.3
# a candidate lag only competes with the global peak if it comes this close;
# picking the smallest such lag suppresses octave-down errors on clean tones
PEAK_RELATIVE_THRESHOLD = 0.85
INTENSITY_FLOOR = 1e-10
MIN_PROFILE_SECONDS = 0.050

FLAG_ALL_UNVOICED = "all_unvoiced"
FLAG_JITTER_DEGRADED = "jitter_degraded"
FLAG_SHIMMER_DEGRADED = "shimmer_degraded"


@dataclass
class Waveform:
    """Mono audio samples in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=np.float64)
        if s.ndim != 1 or s.size == 0:
            raise EmptyAudio("waveform must hold at least one mono sample")
        if not np.all(np.isfinite(s)):
            raise NonFiniteValue("waveform contains NaN or Inf")
        if float(np.max(np.abs(s))) > 1.0 + 1e-9:
            raise AmplitudeOutOfRange("samples must lie in [-1, 1]")
        if not self.sample_rate > 0:
            raise UnsupportedFormat(f"sample rate must be positive, got {self.sample_rate}")
        self.samples = np.clip(s, -1.0, 1.0)

    @property
    def duration_seconds(self) -> float:
        return self.samples.size / self.sample_rate


@dataclass
class F0Track:
    """Per-frame fundamental frequency estimates.

    ``frames_hz[i] == 0`` exactly when ``voiced[i]`` is False; voiced values
    stay inside ``FMIN_HZ``-``FMAX_HZ``. Frame ``i`` starts ``i`` hops into
    the signal.
    """

    frames_hz: np.ndarray
    voiced: np.ndarray

    def __post_init__(self) -> None:
        hz = np.asarray(self.frames_hz, dtype=np.float64)
        v = np.asarray(self.voiced, dtype=bool)
        if hz.shape != v.shape or hz.ndim != 1:
            raise InconsistentF0Track("frames_hz and voiced must be equal-length 1-D arrays")
        if np.any((hz == 0.0) != ~v):
            raise InconsistentF0Track("frames_hz must be 0 exactly on unvoiced frames")
        if np.any(hz[v] <= 0.0):
            raise InconsistentF0Track("voiced F0 values must be positive")
        self.frames_hz = hz
        self.voiced = v

    def voiced_runs(self) -> list[tuple[int, int]]:
        """Maximal runs of consecutive voiced frames as (start, end) index pairs, end exclusive."""
        padded = np.concatenate(([False], self.voiced, [False]))
        # padded[i] != padded[i + 1] where a run starts at frame i or ends before it
        edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
        return list(zip(edges[0::2], edges[1::2]))


@dataclass
class AcousticProfile:
    """Per-utterance paralinguistic summary."""

    pitch_mean_hz: float
    pitch_std_hz: float
    intensity_mean_db: float
    intensity_std_db: float
    jitter: float
    shimmer: float
    duration_s: float
    voiced_fraction: float
    flags: list[str] = field(default_factory=list)


# --- WAV decoding -----------------------------------------------------------

_WAVE_PCM = 1
_WAVE_FLOAT = 3


def _parse_riff_chunks(data: bytes) -> dict[bytes, bytes]:
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptHeader("not a RIFF/WAVE file")
    chunks: dict[bytes, bytes] = {}
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise CorruptHeader(f"chunk {cid!r} truncated")
        if cid not in chunks:  # first occurrence wins
            chunks[cid] = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    return chunks


def resample_poly(x: np.ndarray, up: int, down: int, window) -> np.ndarray:
    """``scipy.signal.resample_poly``, imported on the first call: scipy.signal
    roughly quadruples the import time and memory of a process, and only
    input at a rate other than ``TARGET_RATE`` needs it."""
    from scipy.signal import resample_poly

    return resample_poly(x, up, down, window=window)


@lru_cache(maxsize=4)
def _resample_filter(max_rate: int) -> np.ndarray:
    """The low-pass FIR filter ``resample_poly`` designs for ``max(up, down)``
    with its default Kaiser window; passed back as ``window=``, it gives the
    same output bits without the design. A few entries bound the cache: near
    ``MAX_SAMPLE_RATE`` one filter has millions of taps."""
    from scipy.signal import firwin

    h = firwin(20 * max_rate + 1, 1.0 / max_rate, window=("kaiser", 5.0))
    h.flags.writeable = False
    return h


def load_wav(path) -> Waveform:
    """Decode a PCM-16 or IEEE-float32 WAV file to mono at ``TARGET_RATE``.

    Channels are averaged, samples normalized to [-1, 1], and rate conversion
    uses polyphase windowed-sinc interpolation. Header rates outside
    ``MIN_SAMPLE_RATE``-``MAX_SAMPLE_RATE`` are UnsupportedFormat.
    """
    data = Path(path).read_bytes()
    chunks = _parse_riff_chunks(data)
    if b"fmt " not in chunks or b"data" not in chunks:
        raise CorruptHeader("missing fmt or data chunk")
    fmt = chunks[b"fmt "]
    if len(fmt) < 16:
        raise CorruptHeader("fmt chunk too small")
    audio_format, n_channels, sample_rate, _, _, bits = struct.unpack_from(
        "<HHIIHH", fmt, 0
    )
    if n_channels < 1:
        raise CorruptHeader(f"bad channel count ({n_channels})")
    # resample_poly's filter has 20 * max(up, down) + 1 taps, so a header
    # rate far from the target would ask for gigabytes
    if not MIN_SAMPLE_RATE <= sample_rate <= MAX_SAMPLE_RATE:
        raise UnsupportedFormat(
            f"sample rate {sample_rate} Hz is outside {MIN_SAMPLE_RATE}-{MAX_SAMPLE_RATE} Hz"
        )
    raw = chunks[b"data"]
    if audio_format == _WAVE_PCM and bits == 16:
        width = 2
        usable = len(raw) - len(raw) % (width * n_channels)
        samples = np.frombuffer(raw[:usable], dtype="<i2").astype(np.float64) / 32768.0
    elif audio_format == _WAVE_FLOAT and bits == 32:
        width = 4
        usable = len(raw) - len(raw) % (width * n_channels)
        samples = np.frombuffer(raw[:usable], dtype="<f4").astype(np.float64)
    else:
        raise UnsupportedFormat(
            f"only PCM-16 and float32 are supported, got format={audio_format} bits={bits}"
        )
    if samples.size == 0:
        raise EmptyAudio(f"{path} decodes to zero samples")
    if n_channels > 1:
        samples = samples.reshape(-1, n_channels).mean(axis=1)
    if sample_rate != TARGET_RATE:
        g = math.gcd(sample_rate, TARGET_RATE)
        up, down = TARGET_RATE // g, sample_rate // g
        samples = resample_poly(samples, up, down, window=_resample_filter(max(up, down)))
        if samples.size == 0:
            raise EmptyAudio(f"{path} is too short to resample")
    samples = np.clip(samples, -1.0, 1.0)
    return Waveform(samples=samples, sample_rate=TARGET_RATE)


# --- framing and frame-level features ---------------------------------------

def _frame_geometry(sample_rate: int) -> tuple[int, int]:
    """Frame and hop lengths in samples at ``sample_rate``."""
    return tuple(int(round(ms * sample_rate / 1000.0)) for ms in (FRAME_MS, HOP_MS))


def frame_signal(w: Waveform) -> np.ndarray:
    """Split into overlapping frames, zero-padding the final partial frame.

    Returns an (n_frames, frame_len) array; frame count is
    ceil((n - frame + hop) / hop).
    """
    frame, hop = _frame_geometry(w.sample_rate)
    n = w.samples.size
    if n < frame:
        raise SignalTooShort(f"signal has {n} samples, frame needs {frame}")
    count = -(-(n - frame + hop) // hop)
    padded = np.zeros((count - 1) * hop + frame)
    padded[:n] = w.samples
    idx = np.arange(count)[:, None] * hop + np.arange(frame)[None, :]
    return padded[idx]


def rms_intensity(frames) -> np.ndarray:
    """Per-frame intensity in dB: 20*log10(max(rms, floor))."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.size == 0:
        raise EmptyInput("frames must be a non-empty 2-D array")
    rms = np.sqrt(np.mean(frames * frames, axis=1))
    return 20.0 * np.log10(np.maximum(rms, INTENSITY_FLOOR))


def _fft_length(min_length: int) -> int:
    """The smallest 5-smooth integer (its only prime factors are 2, 3 and 5)
    at or above ``min_length``, a length pocketfft transforms quickly."""
    length = min_length
    while True:
        rest = length
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return length
        length += 1


def _normalized_autocorr(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalized cross-correlation of each frame with itself for lags 0..max_lag.

    The FFT length is at least ``n + max_lag``, so no lag up to ``max_lag``
    wraps around onto another and the correlation is exact up to rounding.
    """
    count, n = frames.shape
    nfft = _fft_length(n + max_lag)
    spec = np.fft.rfft(frames, nfft, axis=1)
    # the power spectrum in place: the squared real and imaginary parts summed
    # into the real part, the imaginary part zeroed
    re, im = spec.real, spec.imag
    np.square(re, out=re)
    np.square(im, out=im)
    re += im
    im[...] = 0.0
    raw = np.fft.irfft(spec, nfft, axis=1)[:, : max_lag + 1]
    # cum[:, k] is the energy of x[:k]; it never decreases, so neither energy
    # below is negative
    cum = np.zeros((count, n + 1))
    np.cumsum(frames * frames, axis=1, out=cum[:, 1:])
    # energy of the leading segment x[:n-lag], read backwards, times that of
    # the trailing segment x[lag:]
    denom = cum[:, n - max_lag :][:, ::-1] * (cum[:, n:] - cum[:, : max_lag + 1])
    np.sqrt(denom, out=denom)
    return np.divide(raw, denom, out=np.zeros_like(raw), where=denom > 0.0)


def estimate_f0(frames, sample_rate: int = TARGET_RATE) -> F0Track:
    """Per-frame F0 from the normalized autocorrelation peak in [FMIN_HZ, FMAX_HZ].

    Among local maxima within ``PEAK_RELATIVE_THRESHOLD`` of the strongest
    one, the smallest lag is chosen (harmonically related peaks tie on clean
    periodic signals, and the smallest lag is the true period). The chosen
    peak is refined by parabolic interpolation; a frame is voiced iff the
    peak value reaches ``VOICING_THRESHOLD``. Silence yields all-unvoiced.
    Frames with no lag inside the band raise SignalTooShort.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.size == 0:
        raise EmptyInput("frames must be a non-empty 2-D array")
    n = frames.shape[1]
    lag_min = int(math.ceil(sample_rate / FMAX_HZ))
    lag_max = min(int(math.floor(sample_rate / FMIN_HZ)), n - 1)
    if lag_min >= lag_max:
        raise SignalTooShort(
            f"frame too short for the pitch band: {n} samples at {sample_rate} Hz"
        )
    ncc = _normalized_autocorr(frames, lag_max)

    # all frames at once; columns of ``window`` are the lags lag_min..lag_max
    window = ncc[:, lag_min:]
    peak = window.max(axis=1)
    voiced = ~(peak < VOICING_THRESHOLD)
    floor = np.maximum(PEAK_RELATIVE_THRESHOLD * peak, VOICING_THRESHOLD)
    # a candidate reaches the floor and both neighbours; lag_max has no right one
    candidate = ~(window < floor[:, None])
    candidate &= window >= ncc[:, lag_min - 1 : lag_max]
    candidate[:, :-1] &= window[:, :-1] >= window[:, 1:]
    # the first maximum past lag_min is always a candidate, so a row without
    # one peaks at lag_min, where argmax of an all-False row points too
    lag = lag_min + candidate.argmax(axis=1)

    rows = np.arange(ncc.shape[0])
    lo = ncc[rows, lag - 1]
    mid = ncc[rows, lag]
    hi = ncc[rows, np.minimum(lag + 1, lag_max)]
    denom = lo - 2.0 * mid + hi
    bend = (lag < lag_max) & (denom < 0.0)
    delta = 0.5 * (lo - hi) / np.where(bend, denom, -1.0)
    refined = np.where(bend, lag + np.clip(delta, -0.5, 0.5), lag)
    refined = np.clip(refined, sample_rate / FMAX_HZ, sample_rate / FMIN_HZ)
    hz = np.where(voiced, sample_rate / refined, 0.0)
    return F0Track(frames_hz=hz, voiced=voiced)


# --- voice-quality ratios ----------------------------------------------------

def _pooled_ratio(runs: list[np.ndarray]) -> tuple[float, bool]:
    """(ratio, degraded) of per-run value sequences of two or more entries:
    mean |v[i+1] - v[i]| over the consecutive pairs of every run, divided by
    the mean of all values. (0, True) with no run or a mean that is not
    positive."""
    if not runs:
        return 0.0, True
    mean_diff = float(np.mean(np.concatenate([np.abs(np.diff(v)) for v in runs])))
    mean = float(np.mean(np.concatenate(runs)))
    if mean <= 0.0:
        return 0.0, True
    return mean_diff / mean, False


def jitter_local(track: F0Track) -> tuple[float, bool]:
    """Cycle-to-cycle period variation, pooled over voiced runs.

    Returns (ratio, degraded). The ratio is mean |T[i+1] - T[i]| over all
    consecutive voiced pairs, divided by the mean period; runs shorter than
    two frames contribute nothing. With no usable pair the ratio is 0 and
    the degraded flag is set.
    """
    periods = [
        1.0 / track.frames_hz[start:end]
        for start, end in track.voiced_runs()
        if end - start >= 2
    ]
    return _pooled_ratio(periods)


def shimmer_local(w: Waveform, track: F0Track) -> tuple[float, bool]:
    """Cycle-to-cycle peak-amplitude variation, pooled over voiced runs.

    Period boundaries are walked through each voiced run using the F0 of the
    frames :func:`frame_signal` cuts from ``w``; each period contributes its
    peak absolute amplitude. Returns (ratio, degraded) with the same
    conventions as jitter_local.
    """
    x = np.abs(w.samples)
    frame_len, hop = _frame_geometry(w.sample_rate)
    frames_hz = track.frames_hz.tolist()
    amps: list[np.ndarray] = []
    for start, end in track.voiced_runs():
        run_start = start * hop
        run_end = min(x.size, (end - 1) * hop + frame_len)
        # each period ends where the next one starts: x[bounds[k]:bounds[k + 1]]
        bounds = [run_start]
        t = float(run_start)
        while True:
            fi = min(end - 1, max(start, int(t // hop)))
            period = w.sample_rate / frames_hz[fi]
            hi = int(round(t + period))
            if hi > run_end or hi <= bounds[-1]:
                break
            bounds.append(hi)
            t += period
        if len(bounds) >= 3:
            amps.append(np.maximum.reduceat(x[: bounds[-1]], bounds[:-1]))
    return _pooled_ratio(amps)


# --- profile -----------------------------------------------------------------

def acoustic_profile(w: Waveform) -> AcousticProfile:
    """Full per-utterance summary; composes framing, F0, intensity, and ratios.

    Duration is computed from the raw sample count before any padding. Pitch
    statistics cover voiced frames only and are zero (flagged) when nothing
    is voiced.
    """
    duration = w.duration_seconds
    if duration < MIN_PROFILE_SECONDS:
        raise TooShort(
            f"utterance lasts {duration:.3f}s, need at least {MIN_PROFILE_SECONDS}s"
        )
    frames = frame_signal(w)
    track = estimate_f0(frames, sample_rate=w.sample_rate)
    intensity = rms_intensity(frames)

    flags: list[str] = []
    voiced_hz = track.frames_hz[track.voiced]
    if voiced_hz.size == 0:
        pitch_mean = 0.0
        pitch_std = 0.0
        flags.append(FLAG_ALL_UNVOICED)
    else:
        pitch_mean = float(np.mean(voiced_hz))
        pitch_std = float(np.std(voiced_hz))

    jitter, jitter_degraded = jitter_local(track)
    shimmer, shimmer_degraded = shimmer_local(w, track)
    if jitter_degraded:
        flags.append(FLAG_JITTER_DEGRADED)
    if shimmer_degraded:
        flags.append(FLAG_SHIMMER_DEGRADED)

    return AcousticProfile(
        pitch_mean_hz=pitch_mean,
        pitch_std_hz=pitch_std,
        intensity_mean_db=float(np.mean(intensity)),
        intensity_std_db=float(np.std(intensity)),
        jitter=jitter,
        shimmer=shimmer,
        duration_s=duration,
        voiced_fraction=float(np.mean(track.voiced)),
        flags=flags,
    )
