"""Mutated WAV files through ``cli.main extract``, next to a clean companion.

Sample rates come from a fixed set: an in-range rate drawn at random could
ask ``resample_poly`` for a filter of millions of taps.
"""
import io
import json
import struct
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smoothclap.cli import main
from smoothclap.fixtures import synth_tone

IN_RANGE_RATES = (8000, 16000, 22050, 44100, 48000, 192000)
OUT_OF_RANGE_RATES = (0, 1, 7999, 192001, 2**32 - 1)
# (audio format, bits per sample): the two supported pairs, then others
FORMAT_BITS = ((1, 16), (3, 32), (1, 8), (1, 24), (1, 32), (3, 16), (3, 64), (2, 16), (0xFFFE, 16))
# offsets of the little-endian fields in a canonical 44-byte header
RIFF_SIZE, FMT_SIZE, FORMAT, CHANNELS, RATE, BITS, DATA_SIZE = 4, 16, 20, 22, 24, 34, 40


def wav_bytes(audio_format: int, bits: int, payload: bytes, rate: int = 16000) -> bytes:
    header = b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, 1, rate, rate * bits // 8, bits // 8, bits)
    body = b"WAVE" + header + b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


TONE = synth_tone(180.0, 0.15, 0.5)
SOURCES = {
    "pcm16": wav_bytes(1, 16, np.round(TONE * 32767.0).astype("<i2").tobytes()),
    "float32": wav_bytes(3, 32, TONE.astype("<f4").tobytes()),
}


MUTATIONS = ("rate", "channels", "format", "nonfinite", "size", "truncate")


@st.composite
def wav_mutations(draw, source: str) -> bytes:
    """The source file with up to two mutations applied."""
    data = bytearray(SOURCES[source])

    def put(fmt: str, offset: int, value: int) -> None:
        struct.pack_into(fmt, data, offset, value)

    kinds = draw(st.sets(st.sampled_from(MUTATIONS), max_size=2))
    if "rate" in kinds:
        put("<I", RATE, draw(st.sampled_from(IN_RANGE_RATES + OUT_OF_RANGE_RATES)))
    if "channels" in kinds:
        put("<H", CHANNELS, draw(st.sampled_from((0, 2, 3, 65535))))
    if "format" in kinds:
        audio_format, bits = draw(st.sampled_from(FORMAT_BITS))
        put("<H", FORMAT, audio_format)
        put("<H", BITS, bits)
    if "nonfinite" in kinds and source == "float32":
        samples = np.frombuffer(bytes(data[44:]), dtype="<f4").copy()
        at = draw(st.lists(st.integers(0, samples.size - 1), min_size=1, max_size=4))
        samples[at] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
        data[44:] = samples.tobytes()
    if "size" in kinds:
        # odd sizes, sizes past the end, and the extremes
        put("<I", draw(st.sampled_from((RIFF_SIZE, FMT_SIZE, DATA_SIZE))), draw(st.one_of(
            st.integers(0, len(data)).map(lambda n: n | 1),
            st.integers(len(data), len(data) + 64),
            st.sampled_from((0, 2**32 - 1)),
        )))
    if "truncate" in kinds:
        del data[draw(st.integers(0, len(data) - 1)):]
    return bytes(data)


def run_extract(manifest, out, *extra) -> tuple[int, list[str]]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["extract", "--manifest", str(manifest), "--out", str(out), *extra])
    return code, err.getvalue().splitlines()


def profiled_ids(out) -> set[str]:
    return {r["id"] for r in map(json.loads, out.read_text().splitlines()) if "_meta" not in r}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("wav_fuzz")
    (root / "clean.wav").write_bytes(SOURCES["pcm16"])
    manifest = root / "manifest.jsonl"
    manifest.write_text(
        json.dumps({"id": "clean", "wav": "clean.wav"}) + "\n"
        + json.dumps({"id": "mutated", "wav": "mutated.wav"}) + "\n"
    )
    return root, manifest


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_unmutated_wavs_are_profiled(corpus, source):
    root, manifest = corpus
    (root / "mutated.wav").write_bytes(SOURCES[source])
    assert run_extract(manifest, root / "o.jsonl", "--strict") == (0, [])
    assert profiled_ids(root / "o.jsonl") == {"clean", "mutated"}


@pytest.mark.parametrize("source", sorted(SOURCES))
@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_wav_is_profiled_or_skipped(corpus, source, data):
    root, manifest = corpus
    (root / "mutated.wav").write_bytes(data.draw(wav_mutations(source)))
    out = root / "o.jsonl"

    code, err = run_extract(manifest, out)
    assert code == 0, err
    assert not any("Traceback" in line for line in err)
    assert not any(line.startswith("error:") for line in err), err
    ids = profiled_ids(out)
    assert "clean" in ids
    skipped = "mutated" not in ids

    code, err = run_extract(manifest, out, "--strict")
    assert not any("Traceback" in line for line in err)
    errors = [line for line in err if line.startswith("error:")]
    assert code == int(skipped), err
    assert errors == (["error: 1 of 2 files failed"] if skipped else []), err
    assert "clean" in profiled_ids(out)
