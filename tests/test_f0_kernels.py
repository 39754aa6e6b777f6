"""The array-at-once F0 peak picking, shimmer walk and voiced runs against the
per-frame and per-period loops they replaced, and the FFT autocorrelation
against a direct time-domain correlation.

The loops below are the earlier implementations. The arithmetic is the same
expressions in the same order, so agreement is bit for bit: ``frames_hz`` is
compared through an int64 view and the shimmer ratio with ``==``. The FFT
rounds differently from the direct sums, so the autocorrelation is held to a
bound in units of the frame's energy, and the F0 decisions it drives to the
same voicing and a pitch within 1e-9 Hz. The front end has one
configuration, so the signals and sample rates, not a moved pitch band,
reach the band edges.
"""
import math
import sys

import numpy as np
import pytest

import smoothclap.paralinguistics as para
from smoothclap.errors import SignalTooShort
from smoothclap.fixtures import (
    synth_alternating_amplitude_tone,
    synth_chirp,
    synth_pulse_train,
    synth_tone,
)
from smoothclap.paralinguistics import (
    FMAX_HZ,
    FMIN_HZ,
    FRAME_MS,
    HOP_MS,
    PEAK_RELATIVE_THRESHOLD,
    VOICING_THRESHOLD,
    F0Track,
    Waveform,
    _normalized_autocorr,
    estimate_f0,
    frame_signal,
    shimmer_local,
)


def reference_f0(frames, sample_rate):
    """(frames_hz, voiced, branch per frame): branch is the picked lag's kind,
    "min", "max", "inner" or "fallback", or None when unvoiced."""
    fmin, fmax, voicing_threshold = FMIN_HZ, FMAX_HZ, VOICING_THRESHOLD
    n = frames.shape[1]
    lag_min = int(math.ceil(sample_rate / fmax))
    lag_max = min(int(math.floor(sample_rate / fmin)), n - 1)
    if lag_min >= lag_max:
        raise ValueError("frame too short for the requested pitch range")
    ncc = _normalized_autocorr(frames, lag_max)
    hz = np.zeros(frames.shape[0])
    voiced = np.zeros(frames.shape[0], dtype=bool)
    branches = []
    for fi in range(frames.shape[0]):
        r = ncc[fi]
        window = r[lag_min : lag_max + 1]
        peak_val = float(np.max(window))
        if peak_val < voicing_threshold:
            branches.append(None)
            continue
        floor = max(voicing_threshold, PEAK_RELATIVE_THRESHOLD * peak_val)
        lag = None
        for k in range(lag_min, lag_max + 1):
            if r[k] < floor:
                continue
            left = r[k - 1] if k > 0 else -np.inf
            right = r[k + 1] if k < lag_max else -np.inf
            if r[k] >= left and r[k] >= right:
                lag = k
                break
        if lag is None:
            lag = lag_min + int(np.argmax(window))
            branches.append("fallback")
        else:
            branches.append({lag_min: "min", lag_max: "max"}.get(lag, "inner"))
        refined = float(lag)
        if 0 < lag < lag_max:
            denom = r[lag - 1] - 2.0 * r[lag] + r[lag + 1]
            if denom < 0.0:
                delta = 0.5 * (r[lag - 1] - r[lag + 1]) / denom
                refined = lag + float(np.clip(delta, -0.5, 0.5))
        refined = float(np.clip(refined, sample_rate / fmax, sample_rate / fmin))
        hz[fi] = sample_rate / refined
        voiced[fi] = True
    return hz, voiced, branches


def direct_autocorr_terms(frames, max_lag):
    """(corr, e_head, e_tail), each (frames, max_lag + 1): the correlation
    x[:n-lag] . x[lag:] and the energies of those two segments, every one a
    dot product over the segments in the time domain."""
    n = frames.shape[1]
    terms = np.empty((3, frames.shape[0], max_lag + 1))
    for lag in range(max_lag + 1):
        head, tail = frames[:, : n - lag], frames[:, lag:]
        terms[:, :, lag] = np.vecdot(head, tail), np.vecdot(head, head), np.vecdot(tail, tail)
    return terms


def direct_normalized_autocorr(frames, max_lag):
    corr, e_head, e_tail = direct_autocorr_terms(frames, max_lag)
    denom = np.sqrt(e_head * e_tail)
    return np.divide(corr, denom, out=np.zeros_like(corr), where=denom > 0.0)


def reference_voiced_runs(voiced):
    runs = []
    start = None
    for i, flag in enumerate(voiced):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(voiced)))
    return runs


def reference_shimmer(w, track):
    x = np.abs(w.samples)
    hop = int(round(HOP_MS / 1000.0 * w.sample_rate))
    frame_len = int(round(FRAME_MS / 1000.0 * w.sample_rate))
    diffs, amps_all = [], []
    for start, end in reference_voiced_runs(track.voiced):
        run_start = start * hop
        run_end = min(x.size, (end - 1) * hop + frame_len)
        amps = []
        t = float(run_start)
        while True:
            fi = min(end - 1, max(start, int(t // hop)))
            period = w.sample_rate / track.frames_hz[fi]
            lo = int(round(t))
            hi = int(round(t + period))
            if hi > run_end or hi <= lo:
                break
            amps.append(float(np.max(x[lo:hi])))
            t += period
        if len(amps) >= 2:
            a = np.asarray(amps)
            diffs.append(np.abs(np.diff(a)))
            amps_all.append(a)
    if not diffs:
        return 0.0, True
    mean_diff = float(np.mean(np.concatenate(diffs)))
    mean_amp = float(np.mean(np.concatenate(amps_all)))
    if mean_amp <= 0.0:
        return 0.0, True
    return mean_diff / mean_amp, False


def assert_same_track(frames, rate):
    """estimate_f0 equals the reference bit for bit; returns the reference's branches."""
    hz, voiced, branches = reference_f0(frames, rate)
    track = estimate_f0(frames, sample_rate=rate)
    np.testing.assert_array_equal(track.frames_hz.view(np.int64), hz.view(np.int64))
    np.testing.assert_array_equal(track.voiced, voiced)
    assert track.voiced_runs() == reference_voiced_runs(voiced)
    return branches


def assert_same_shimmer(w, track):
    value, degraded = shimmer_local(w, track)
    expected, expected_degraded = reference_shimmer(w, track)
    assert value == expected and degraded == expected_degraded
    return degraded


RATES = (16000, 22050, 44100)


def fixture_signals(rate):
    rng = np.random.default_rng(rate)
    alt_hz = {16000: 200.0, 22050: 225.0, 44100: 210.0}[rate]
    tone = synth_tone(180.0, 0.3, rate=rate)
    return {
        "chirp": synth_chirp(90.0, 450.0, 0.4, rate=rate),
        "pulse": synth_pulse_train(130.0, 0.3, rate=rate),
        "alternating": synth_alternating_amplitude_tone(alt_hz, 0.3, 0.3, 0.7, rate=rate),
        "noise": np.clip(0.3 * rng.standard_normal(int(0.3 * rate)), -1.0, 1.0),
        # a 20 Hz hum falls over the whole band: no lag is a local maximum
        "hum": synth_tone(20.0, 0.3, rate=rate),
        "silence": np.zeros(int(0.2 * rate)),
        # coarse quantization leaves plateaus, so neighbouring lags tie
        "quantized": np.round(tone * 3.0) / 3.0,
        "square": 0.5 * np.sign(tone),
        "gapped tone": tone * (np.arange(tone.size) % (rate // 10) < rate // 20),
    }


@pytest.mark.parametrize("rate", RATES)
def test_fixture_signals_match_the_loops(rate):
    branches = []
    for samples in fixture_signals(rate).values():
        w = Waveform(samples, rate)
        frames = frame_signal(w)
        branches += assert_same_track(frames, rate)
        assert_same_shimmer(w, estimate_f0(frames, sample_rate=rate))
    assert {"inner", "fallback", None} <= set(branches)


TONES_HZ = (40.0, 55.0, 97.3, 150.0, 220.0, 333.3, 440.0, 599.0, 650.0, 700.0)


def test_tones_from_40_to_700_hz_match_the_loops():
    for hz in TONES_HZ:
        w = Waveform(synth_tone(hz, 0.25), 16000)
        frames = frame_signal(w)
        assert_same_track(frames, 16000)
        assert_same_shimmer(w, estimate_f0(frames))


def test_constant_frames_tie_everywhere_and_pick_lag_min():
    frames = np.full((3, 400), 0.25)
    assert set(assert_same_track(frames, 16000)) == {"min"}


@pytest.mark.parametrize(
    "hz, rate, branch",
    [
        # a 50 Hz period is the longest lag of the band, rate / FMIN_HZ samples
        (FMIN_HZ, 8000, "max"),
        (FMIN_HZ, 16000, "max"),
        (FMIN_HZ, 44100, "max"),
        # a 600 Hz period, rate / FMAX_HZ samples, is the shortest; lag_min,
        # its ceiling, peaks where it is the nearer lag (at 8 kHz the period,
        # 13.3 samples, is nearer lag 13, outside the band)
        (FMAX_HZ, 16000, "min"),
        (FMAX_HZ, 44100, "min"),
    ],
)
def test_first_peak_at_the_band_edges(hz, rate, branch):
    frames = frame_signal(Waveform(synth_tone(hz, 0.2, rate=rate), rate))
    assert branch in assert_same_track(frames, rate)


def test_lag_max_clipped_to_the_frame():
    # 200-sample frames cannot reach the 320-sample lag of 50 Hz
    x = synth_chirp(70.0, 300.0, 0.3)
    frames = np.stack([x[i : i + 200] for i in range(0, x.size - 200, 160)])
    assert_same_track(frames, 16000)


def test_a_peak_at_the_voicing_threshold_voices_its_frame(monkeypatch):
    # no signal was found whose correlation peak is exactly the threshold, so
    # both sides are given the correlations: peaks at it and just below it
    ncc = np.zeros((2, 400))
    ncc[:, 0] = 1.0
    ncc[:, 100] = [VOICING_THRESHOLD, np.nextafter(VOICING_THRESHOLD, 0.0)]
    def given(frames, max_lag):
        return ncc[:, : max_lag + 1]
    monkeypatch.setattr(para, "_normalized_autocorr", given)
    monkeypatch.setattr(sys.modules[__name__], "_normalized_autocorr", given)
    assert assert_same_track(np.zeros((2, 400)), 16000) == ["inner", None]


def test_frame_too_short_raises_like_the_loop():
    frames = np.ones((2, 20))
    with pytest.raises(ValueError, match="frame too short"):
        reference_f0(frames, 16000)
    with pytest.raises(SignalTooShort, match="frame too short"):
        estimate_f0(frames, sample_rate=16000)


def test_random_frames_match_the_loops():
    rng = np.random.default_rng(5)
    branches = set()
    rates = set()
    for _ in range(150):
        rate = int(rng.choice([8000, 16000, 22050, 44100]))
        n = int(rng.integers(int(rate / FMAX_HZ), int(rate / FMIN_HZ) + 40))
        period = rate / rng.uniform(FMIN_HZ * 0.7, FMAX_HZ * 1.3)
        t = np.arange(3 * n)
        x = np.sin(2.0 * np.pi * t / period) + rng.uniform(0.0, 1.5) * rng.standard_normal(t.size)
        if rng.random() < 0.3:
            x = np.round(x * rng.integers(1, 4))
        frames = np.stack([x[i : i + n] for i in range(0, 2 * n, max(1, n // 3))])
        try:
            reference_f0(frames, rate)
        except ValueError:
            with pytest.raises(SignalTooShort, match="frame too short"):
                estimate_f0(frames, rate)
            continue
        branches.update(assert_same_track(frames, rate))
        rates.add(rate)
    assert branches == {"min", "max", "inner", "fallback", None}
    assert rates == {8000, 16000, 22050, 44100}


def test_random_tracks_match_the_shimmer_loop():
    rng = np.random.default_rng(11)
    degraded = set()
    for _ in range(100):
        # the hop, 10 ms, is 80 to 441 samples
        rate = int(rng.choice([8000, 16000, 22050, 44100]))
        n_frames = int(rng.integers(1, 30))
        samples = rng.uniform(-1.0, 1.0, int(n_frames * HOP_MS / 1000.0 * rate) + 400)
        voiced = rng.random(n_frames) < rng.uniform(0.2, 1.0)
        # up to 3 * rate Hz, so some periods round to no samples at all
        hz = np.where(voiced, np.exp(rng.uniform(math.log(40.0), math.log(3.0 * rate), n_frames)), 0.0)
        track = F0Track(hz, voiced)
        assert track.voiced_runs() == reference_voiced_runs(voiced)
        degraded.add(assert_same_shimmer(Waveform(samples, rate), track))
    assert degraded == {True, False}


@pytest.mark.parametrize(
    "voiced",
    [[], [False], [True], [True, True, False, True], [False, True, True], [True] * 5],
)
def test_voiced_runs_match_the_loop(voiced):
    voiced = np.array(voiced, dtype=bool)
    track = F0Track(np.where(voiced, 100.0, 0.0), voiced)
    runs = track.voiced_runs()
    assert runs == reference_voiced_runs(voiced)
    assert all(type(i) is int for run in runs for i in run)


def cumulative_energies(frames, max_lag):
    """(e_head, e_tail) from running sums of squares, as the kernel takes
    them. A tail's energy taken as a difference of running sums is off by up
    to about n * eps * sum(x**2), much against a one-sample tail, so the
    kernel's output is scaled back with these, not the direct energies."""
    n = frames.shape[1]
    cum = np.cumsum(frames * frames, axis=1)
    total = cum[:, -1:]
    lags = np.arange(max_lag + 1)
    e_head = cum[:, n - 1 - lags]
    e_tail = np.where(lags == 0, total, total - cum[:, np.maximum(lags - 1, 0)])
    return e_head, e_tail


# in units of eps * sum(x**2) of the frame; the 2n-point FFT reached 6.4 on
# these cases
AUTOCORR_TOLERANCE = 64


def assert_same_autocorr(frames, max_lag):
    """The kernel's correlation, scaled back by the segment energies, is the
    direct correlation within the tolerance, and exactly 0 where a segment
    has no energy."""
    got = _normalized_autocorr(frames, max_lag)
    corr, e_head, e_tail = direct_autocorr_terms(frames, max_lag)
    energy = np.sum(frames * frames, axis=1, keepdims=True)
    error = np.abs(got * np.sqrt(np.multiply(*cumulative_energies(frames, max_lag))) - corr)
    assert np.all(error <= AUTOCORR_TOLERANCE * np.finfo(np.float64).eps * energy)
    assert np.all(got[e_head * e_tail == 0.0] == 0.0)


def test_random_frames_match_the_autocorr_energies():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(2, 500))
        frames = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 8)), n))
        frames *= rng.choice([1e-6, 1.0, 1e3], size=(frames.shape[0], 1))
        frames[rng.random(frames.shape[0]) < 0.2] = 0.0
        assert_same_autocorr(frames, int(rng.integers(0, n)))


@pytest.mark.parametrize("rate", RATES)
def test_fixture_signals_match_the_autocorr_energies(rate):
    for samples in fixture_signals(rate).values():
        frames = frame_signal(Waveform(samples, rate))
        assert_same_autocorr(frames, frames.shape[1] - 1)


def assert_tracks_match_the_direct_correlation(monkeypatch, all_frames, rate):
    tracks = [estimate_f0(frames, sample_rate=rate) for frames in all_frames]
    monkeypatch.setattr(para, "_normalized_autocorr", direct_normalized_autocorr)
    for frames, track in zip(all_frames, tracks):
        direct = estimate_f0(frames, sample_rate=rate)
        np.testing.assert_array_equal(track.voiced, direct.voiced)
        np.testing.assert_allclose(track.frames_hz, direct.frames_hz, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("rate", RATES)
def test_fixture_signal_tracks_match_the_direct_correlation(monkeypatch, rate):
    all_frames = [frame_signal(Waveform(x, rate)) for x in fixture_signals(rate).values()]
    assert_tracks_match_the_direct_correlation(monkeypatch, all_frames, rate)


def test_tone_tracks_from_40_to_700_hz_match_the_direct_correlation(monkeypatch):
    all_frames = [frame_signal(Waveform(synth_tone(hz, 0.25), 16000)) for hz in TONES_HZ]
    assert_tracks_match_the_direct_correlation(monkeypatch, all_frames, 16000)
