import inspect
import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from smoothclap.errors import (
    AmplitudeOutOfRange,
    ComputationFailure,
    CorruptHeader,
    EmptyAudio,
    FractionalPeriod,
    InconsistentF0Track,
    SignalTooShort,
    TooShort,
    UnsupportedFormat,
)
from smoothclap.fixtures import (
    synth_alternating_amplitude_tone,
    synth_chirp,
    synth_pulse_train,
    synth_tone,
    write_wav,
)
from smoothclap.paralinguistics import (
    F0Track,
    Waveform,
    acoustic_profile,
    estimate_f0,
    frame_signal,
    jitter_local,
    load_wav,
    rms_intensity,
    shimmer_local,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_values.json").read_text())


def tone(freq=220.0, dur=2.0, amp=0.5, rate=16000):
    return Waveform(synth_tone(freq, dur, amp, rate=rate), rate)


# --- load_wav ---

def test_load_silence(tmp_path):
    path = tmp_path / "s.wav"
    write_wav(path, np.zeros(16000))
    w = load_wav(path)
    assert w.sample_rate == 16000
    assert w.samples.size == 16000
    assert np.all(w.samples == 0.0)


def test_load_stereo_opposite_channels_cancels(tmp_path):
    x = synth_tone(300.0, 0.5, 0.5).astype("<f4")
    inter = np.empty(2 * x.size, dtype="<f4")
    inter[0::2] = x
    inter[1::2] = -x
    raw = inter.tobytes()
    blob = b"RIFF" + struct.pack("<I", 36 + len(raw)) + b"WAVE"
    blob += b"fmt " + struct.pack("<IHHIIHH", 16, 3, 2, 16000, 16000 * 8, 8, 32)
    blob += b"data" + struct.pack("<I", len(raw)) + raw
    path = tmp_path / "st.wav"
    path.write_bytes(blob)
    w = load_wav(path)
    assert np.max(np.abs(w.samples)) == 0.0


def test_load_resamples_8k_sine_to_16k(tmp_path):
    path = tmp_path / "r.wav"
    write_wav(path, synth_tone(440.0, 1.0, 0.5, rate=8000), rate=8000)
    w = load_wav(path)
    assert w.sample_rate == 16000
    spec = np.abs(np.fft.rfft(w.samples))
    freqs = np.fft.rfftfreq(w.samples.size, 1.0 / 16000)
    dominant = freqs[int(np.argmax(spec))]
    assert abs(dominant - 440.0) <= 1.0


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"this is not audio")
    with pytest.raises(CorruptHeader):
        load_wav(path)


def test_load_rejects_unsupported_encoding(tmp_path):
    raw = bytes(16)
    blob = b"RIFF" + struct.pack("<I", 36 + len(raw)) + b"WAVE"
    blob += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 16000, 1, 8)  # PCM-8
    blob += b"data" + struct.pack("<I", len(raw)) + raw
    path = tmp_path / "u8.wav"
    path.write_bytes(blob)
    with pytest.raises(UnsupportedFormat):
        load_wav(path)


def wav_with_header_rate(path, rate):
    """A quarter second of PCM-16 tone whose fmt chunk claims ``rate`` Hz."""
    raw = np.round(synth_tone(200.0, 0.25, 0.5) * 32767.0).astype("<i2").tobytes()
    blob = b"RIFF" + struct.pack("<I", 36 + len(raw)) + b"WAVE"
    blob += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, (2 * rate) % 2**32, 2, 16)
    blob += b"data" + struct.pack("<I", len(raw)) + raw
    path.write_bytes(blob)
    return path


def refuse_resampling(*args, **kwargs):
    raise AssertionError("resample_poly must not be called")


@pytest.mark.parametrize("rate", [1, 7999, 192001, 4294967291])
def test_load_rejects_sample_rate_out_of_range_before_resampling(tmp_path, monkeypatch, rate):
    # at 4294967291 Hz resample_poly would design a filter of about 8.6e10 taps
    import smoothclap.paralinguistics as para

    monkeypatch.setattr(para, "resample_poly", refuse_resampling)
    path = wav_with_header_rate(tmp_path / "r.wav", rate)
    with pytest.raises(UnsupportedFormat, match=f"sample rate {rate} Hz"):
        load_wav(path)


@pytest.mark.parametrize("rate", [8000, 192000])
def test_load_accepts_the_sample_rate_bounds(tmp_path, rate):
    w = load_wav(wav_with_header_rate(tmp_path / "r.wav", rate))
    assert w.sample_rate == 16000
    assert w.samples.size == math.ceil(4000 * 16000 / rate)


@pytest.mark.parametrize("rate", [8000, 22050, 44100, 48000])
def test_load_resamples_bitwise_as_plain_resample_poly(tmp_path, monkeypatch, rate):
    import smoothclap.paralinguistics as para
    from scipy.signal import resample_poly

    samples = synth_chirp(100.0, 900.0, 0.4, 0.5, rate=rate)
    write_wav(tmp_path / "r.wav", samples, rate=rate)
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0) / 32768.0
    g = math.gcd(rate, 16000)
    expected = np.clip(resample_poly(pcm, 16000 // g, rate // g), -1.0, 1.0)
    calls = []

    def recording(*args, **kwargs):  # load_wav resamples through the module global
        calls.append(kwargs)
        return resample_poly(*args, **kwargs)

    monkeypatch.setattr(para, "resample_poly", recording)
    for _ in range(2):  # the second load takes the cached filter
        got = load_wav(tmp_path / "r.wav").samples
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
    assert len(calls) == 2 and all("window" in kwargs for kwargs in calls)


def test_resample_filter_cache_is_bounded():
    from smoothclap.paralinguistics import _resample_filter

    assert 0 < _resample_filter.cache_info().maxsize <= 8


def test_load_rejects_empty_data(tmp_path):
    blob = b"RIFF" + struct.pack("<I", 36) + b"WAVE"
    blob += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
    blob += b"data" + struct.pack("<I", 0)
    path = tmp_path / "empty.wav"
    path.write_bytes(blob)
    with pytest.raises(EmptyAudio):
        load_wav(path)


# --- framing ---

@pytest.mark.parametrize("n,expected", [(400, 1), (560, 2), (1600, 9)])
def test_frame_counts(n, expected):
    w = Waveform(np.ones(n) * 0.1, 16000)
    assert frame_signal(w).shape == (expected, 400)


def test_frame_too_short():
    with pytest.raises(SignalTooShort):
        frame_signal(Waveform(np.ones(399) * 0.1, 16000))


def test_frame_zero_pads_tail():
    # 600 samples give 3 frames; the last frame spans 320..720 and is padded
    w = Waveform(np.ones(600) * 0.5, 16000)
    frames = frame_signal(w)
    assert frames.shape == (3, 400)
    assert np.all(frames[2, -120:] == 0.0)
    assert np.all(frames[2, :-120] == 0.5)


# --- intensity ---

def test_intensity_full_scale_square_wave():
    frame = np.ones((1, 400))
    assert rms_intensity(frame)[0] == pytest.approx(0.0, abs=1e-12)


def test_intensity_silence_floor():
    assert rms_intensity(np.zeros((1, 400)))[0] == -200.0


def test_intensity_half_amplitude_sine():
    # 200 Hz puts exactly 5 cycles in a 400-sample frame, making rms exact
    frame = synth_tone(200.0, 0.025, 0.5)[None, :]
    assert rms_intensity(frame)[0] == pytest.approx(
        GOLDEN["intensity_half_sine_db"], abs=1e-9
    )


# --- F0 ---

def test_f0_pure_sine():
    track = estimate_f0(frame_signal(tone(220.0)))
    interior = track.frames_hz[1:-2]
    assert np.all(track.voiced[1:-2])
    assert np.all(np.abs(interior - 220.0) <= 2.0)


def test_f0_silence_all_unvoiced():
    track = estimate_f0(frame_signal(Waveform(np.zeros(16000), 16000)))
    assert not np.any(track.voiced)
    assert np.all(track.frames_hz == 0.0)


def test_f0_pulse_train():
    track = estimate_f0(frame_signal(Waveform(synth_pulse_train(100.0, 2.0), 16000)))
    voiced = track.frames_hz[track.voiced]
    assert voiced.size > 0
    assert np.all(np.abs(voiced - 100.0) <= 2.0)


# parameters of the front end's one configuration, its module constants
FRONT_END_SETTINGS = {
    "frame_ms", "hop_ms", "hop_seconds", "frame_seconds", "fmin", "fmax", "voicing_threshold",
}


def test_front_end_takes_no_frame_hop_band_or_voicing_parameter():
    import smoothclap.paralinguistics as para

    # the functions and the dataclasses, whose fields are their parameters
    public = [
        obj for name, obj in inspect.getmembers(para, callable)
        if not name.startswith("_") and obj.__module__ == para.__name__
    ]
    assert {"frame_signal", "estimate_f0", "shimmer_local", "F0Track"} <= {
        obj.__name__ for obj in public
    }
    for obj in public:
        loose = FRONT_END_SETTINGS & set(inspect.signature(obj).parameters)
        assert not loose, f"{obj.__name__} takes {sorted(loose)}"


def test_f0_track_validation():
    with pytest.raises(InconsistentF0Track, match="0 exactly on unvoiced"):
        F0Track(np.array([100.0, 0.0]), np.array([True, True]))
    with pytest.raises(InconsistentF0Track, match="equal-length"):
        F0Track(np.array([100.0]), np.array([True, True]))
    with pytest.raises(InconsistentF0Track, match="must be positive"):
        F0Track(np.array([-100.0]), np.array([True]))
    # a track only estimate_f0 builds: a broken one is a computation failure
    assert issubclass(InconsistentF0Track, ComputationFailure)


def test_waveform_validation():
    with pytest.raises(AmplitudeOutOfRange):
        Waveform(np.array([0.5, -1.5]), 16000)
    with pytest.raises(UnsupportedFormat, match="sample rate must be positive"):
        Waveform(np.array([0.5]), 0)
    for error in (AmplitudeOutOfRange, UnsupportedFormat):
        assert not issubclass(error, ComputationFailure)


# --- jitter / shimmer ---

def test_jitter_constant_f0_is_zero():
    track = F0Track(np.full(20, 200.0), np.ones(20, bool))
    value, degraded = jitter_local(track)
    assert value == 0.0 and not degraded


def test_jitter_alternating_periods():
    hz = np.where(np.arange(40) % 2 == 0, 1.0 / 0.0045, 1.0 / 0.0055)
    track = F0Track(hz, np.ones(40, bool))
    value, degraded = jitter_local(track)
    assert not degraded
    assert value == pytest.approx(0.20, abs=1e-6)


def test_jitter_pure_sine_is_tiny():
    value, degraded = jitter_local(estimate_f0(frame_signal(tone(220.0))))
    assert not degraded
    assert value < 0.005


def test_jitter_insufficient_voicing():
    track = F0Track(np.array([200.0, 0.0, 210.0]), np.array([True, False, True]))
    value, degraded = jitter_local(track)
    assert value == 0.0 and degraded


def test_shimmer_constant_sine_is_tiny():
    w = tone(220.0)
    value, degraded = shimmer_local(w, estimate_f0(frame_signal(w)))
    assert not degraded
    assert value < 0.01


def test_shimmer_alternating_amplitude():
    w = Waveform(synth_alternating_amplitude_tone(200.0, 2.0, 0.4, 0.6), 16000)
    n_frames = frame_signal(w).shape[0]
    track = F0Track(np.full(n_frames, 200.0), np.ones(n_frames, bool))
    value, degraded = shimmer_local(w, track)
    assert not degraded
    assert value == pytest.approx(0.40, abs=1e-6)


def reference_alternating_amplitude_tone(freq_hz, duration_s, amp_a, amp_b, rate):
    """The per-sample formula that tiling one period pair replaced."""
    period = int(round(rate / freq_hz))
    idx = np.arange(int(round(duration_s * rate)))
    amps = np.where((idx // period) % 2 == 0, amp_a, amp_b)
    return amps * np.sin(2.0 * math.pi * (idx % period) / period)


@pytest.mark.parametrize("rate", [16000, 22050, 44100])
def test_alternating_amplitude_tone_matches_the_per_sample_formula(rate):
    for period in (2, 37, 80, 441):
        for duration in (0.0, 0.004, 0.3, 1.0):
            args = (rate / period, duration, 0.3, 0.7)
            got = synth_alternating_amplitude_tone(*args, rate=rate)
            assert got.tobytes() == reference_alternating_amplitude_tone(*args, rate).tobytes()


def test_alternating_amplitude_tone_needs_a_whole_period():
    with pytest.raises(FractionalPeriod, match="divide the sample rate"):
        synth_alternating_amplitude_tone(300.0, 0.1, 0.3, 0.7)
    assert not issubclass(FractionalPeriod, ComputationFailure)


def test_shimmer_silence_degraded():
    w = Waveform(np.zeros(16000), 16000)
    value, degraded = shimmer_local(w, estimate_f0(frame_signal(w)))
    assert value == 0.0 and degraded


# --- acoustic_profile ---

def test_profile_pure_tone():
    p = acoustic_profile(tone(220.0, 2.0, 0.5))
    assert abs(p.pitch_mean_hz - 220.0) <= 2.0
    assert p.pitch_std_hz < 2.0
    assert p.jitter < 0.005
    assert p.shimmer < 0.01
    assert p.duration_s == 2.0
    assert p.flags == []


def test_profile_silence():
    p = acoustic_profile(Waveform(np.zeros(32000), 16000))
    assert p.pitch_mean_hz == 0.0 and p.pitch_std_hz == 0.0
    assert p.voiced_fraction == 0.0
    assert "all_unvoiced" in p.flags
    assert p.duration_s == 2.0


def test_profile_chirp():
    p = acoustic_profile(Waveform(synth_chirp(150.0, 300.0, 2.0), 16000))
    assert abs(p.pitch_mean_hz - 225.0) <= 10.0
    assert p.pitch_std_hz > 20.0


def test_profile_too_short():
    with pytest.raises(TooShort):
        acoustic_profile(Waveform(np.ones(400) * 0.1, 16000))


def test_profile_duration_is_exact():
    for n in (801, 1234, 16000):
        w = Waveform(np.full(n, 0.1), 16000)
        assert acoustic_profile(w).duration_s == n / 16000


def test_profile_json_field_names():
    p = acoustic_profile(tone())
    d = asdict(p)
    assert sorted(d) == sorted(
        [
            "pitch_mean_hz",
            "pitch_std_hz",
            "intensity_mean_db",
            "intensity_std_db",
            "jitter",
            "shimmer",
            "duration_s",
            "voiced_fraction",
            "flags",
        ]
    )


# --- invariance properties ---

@pytest.mark.parametrize("c", [0.1, 0.5, 1.9])
def test_amplitude_scaling_invariance(c):
    base = synth_tone(220.0, 1.0, 0.5)
    w1 = Waveform(base, 16000)
    w2 = Waveform(np.clip(c * base, -1.0, 1.0), 16000)
    p1 = acoustic_profile(w1)
    p2 = acoustic_profile(w2)
    assert abs(p1.pitch_mean_hz - p2.pitch_mean_hz) < 1e-6
    assert abs(p1.jitter - p2.jitter) < 1e-6
    assert abs(p1.shimmer - p2.shimmer) < 1e-6
    i1 = rms_intensity(frame_signal(w1))
    i2 = rms_intensity(frame_signal(w2))
    np.testing.assert_allclose(i2 - i1, 20.0 * np.log10(c), atol=1e-6)


def test_time_reversal_keeps_pitch():
    w = tone(220.0)
    p_fwd = acoustic_profile(w)
    p_rev = acoustic_profile(Waveform(w.samples[::-1].copy(), 16000))
    assert abs(p_fwd.pitch_mean_hz - p_rev.pitch_mean_hz) <= 2.0


def test_profile_fields_finite_for_odd_inputs():
    rng = np.random.default_rng(21)
    inputs = [
        rng.uniform(-1, 1, 4000),
        np.zeros(4000),
        synth_tone(90.0, 0.25, 0.9),
        np.clip(synth_tone(500.0, 0.25, 0.3) + 0.4 * rng.standard_normal(4000), -1, 1),
    ]
    for samples in inputs:
        p = acoustic_profile(Waveform(samples, 16000))
        for value in (
            p.pitch_mean_hz,
            p.pitch_std_hz,
            p.intensity_mean_db,
            p.intensity_std_db,
            p.jitter,
            p.shimmer,
            p.duration_s,
            p.voiced_fraction,
        ):
            assert np.isfinite(value)
