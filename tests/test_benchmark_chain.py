"""The benchmark's two chains, traced, at a tiny size.

``perfbench/chains.py`` drives every subcommand through ``cli.main`` with the
flags it passes, and ``perfbench/spans.py`` wraps package functions by name.
A renamed spanned function or a changed flag then fails here as well as in
the benchmark run. The benchmark's files are imported, never written.
"""
import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SUBCOMMANDS = ["extract", "tags", "train", "eval", "gradcheck"]


@pytest.fixture(scope="module")
def chains():
    # chains imports corpora and spans as top-level modules
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("chains")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))


def training_kernel_spans(spans) -> int:
    """The ``objective.loss_and_grad`` spans under ``train``; the benchmark's
    ``objective.loss_and_grad.ms_p50`` is taken over them."""
    roots = importlib.import_module("spans").root_of(spans)
    return sum(
        s.name == "objective.loss_and_grad" and spans[r].name == "train"
        for s, r in zip(spans, roots)
    )


def test_traced_wav_pipeline_chain_reports_no_problems(chains, tmp_path):
    # the sizes of the benchmark's own smoke test, each subcommand called once
    wl = dataclasses.replace(
        chains.WORKLOADS["wav_pipeline"], wav_clean=48, wav_durations=(0.3,),
        malformed_per_kind=1, batch_size=8, epochs=3, repeats=(),
    )
    corpus = chains.build_corpus(wl, seed=5, root=tmp_path / "corpus")
    result = chains.run_chain(wl, corpus, seed=5, out=tmp_path / "out", traced=True)
    assert result.problems == []
    assert result.calls == dict.fromkeys(SUBCOMMANDS, 1)
    spans = result.tracer.spans
    assert [s.name for s in spans if s.parent == -1] == SUBCOMMANDS
    assert {f"cli.{c}" for c in SUBCOMMANDS} <= {s.name for s in spans}
    assert training_kernel_spans(spans) == wl.epochs * (corpus.rows // wl.batch_size)


def test_traced_large_batch_train_chain_reports_no_problems(chains, tmp_path):
    # the cluster source: a plain features CSV with \n line ends, each subcommand
    # once; 4 steps of B = 128, so every step crosses a seam of the loss kernel's
    # row blocks
    wl = dataclasses.replace(
        chains.WORKLOADS["large_batch_train"], cluster_rows=512, batch_size=128, repeats=(),
    )
    corpus = chains.build_corpus(wl, seed=5, root=tmp_path / "corpus")
    result = chains.run_chain(wl, corpus, seed=5, out=tmp_path / "out", traced=True)
    assert result.problems == []
    assert result.calls == dict.fromkeys(SUBCOMMANDS, 1)
    spans = result.tracer.spans
    assert [s.name for s in spans if s.parent == -1] == SUBCOMMANDS
    reads = [s for s in spans if s.name == "evaluation.read_id_matrix_csv"]
    assert reads and all(s.work == 512 * wl.feature_dim for s in reads)
    assert training_kernel_spans(spans) == 4
