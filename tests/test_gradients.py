
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import corrupt_gradcheck_gradient, loop_finite_difference_grads
from smoothclap.errors import ZeroMassTarget
from smoothclap.gradcheck import (
    _CHUNK_DOUBLES,
    _case_configs,
    finite_difference_grads,
    max_relative_error,
    run_gradcheck_suite,
)
from smoothclap.objective import (
    EmbeddingBatch,
    KLMode,
    SmoothingConfig,
    loss_and_grad,
    loss_with_fixed_targets,
    build_targets,
    soft_loss,
)
from smoothclap.numeric import gram, row_softmax


def make_rows(rng, b, d):
    """(audio, text, local_audio): the rows a batch is built from."""
    return (
        rng.standard_normal((b, d)),
        rng.standard_normal((b, d)),
        rng.standard_normal((b, d + 1)),
    )


def test_single_config_matches_finite_differences():
    rng = np.random.default_rng(42)
    rows = make_rows(rng, 8, 16)
    cfg = SmoothingConfig(gamma=0.5, beta=0.1, tau_pred=1.0)
    out = loss_and_grad(EmbeddingBatch(*rows), cfg)
    num_a, num_t, num_lt = finite_difference_grads(*rows, cfg)
    assert max_relative_error(out.grad_audio, num_a) < 1e-5
    assert max_relative_error(out.grad_text, num_t) < 1e-5
    assert max_relative_error(out.grad_log_tau_pred, num_lt) < 1e-5


def test_forward_mode_with_hard_targets():
    rng = np.random.default_rng(43)
    rows = make_rows(rng, 4, 6)
    cfg = SmoothingConfig(beta=0.0, kl_mode=KLMode.FORWARD, tau_pred=0.8)
    out = loss_and_grad(EmbeddingBatch(*rows), cfg)
    num_a, num_t, num_lt = finite_difference_grads(*rows, cfg)
    assert max_relative_error(out.grad_audio, num_a) < 1e-5
    assert max_relative_error(out.grad_text, num_t) < 1e-5
    assert max_relative_error(out.grad_log_tau_pred, num_lt) < 1e-5


def test_suite_small_slice_passes():
    report = run_gradcheck_suite(seed=1, sizes=((2, 3), (4, 16)))
    assert report.passed
    assert report.n_cases >= 20
    assert report.max_error < 1e-5


def test_suite_catches_corrupted_gradient(monkeypatch):
    corrupt_gradcheck_gradient(monkeypatch)
    report = run_gradcheck_suite(seed=1, sizes=((2, 3),))
    assert report.passed is False


def test_aligned_batch_has_smaller_gradient_than_shuffled():
    # audio == text with strongly diagonal scores sits near an optimum of the
    # hard objective, so its gradient norm is below a mismatched batch's
    rng = np.random.default_rng(44)
    rows = rng.standard_normal((6, 10))
    aligned = (rows, rows.copy(), rows.copy())
    perm = np.roll(np.arange(6), 1)
    shuffled = (rows, rows[perm], rows.copy())
    cfg = SmoothingConfig(beta=0.0, kl_mode=KLMode.FORWARD, tau_pred=0.1, clap_mix_lambda=1.0)
    g_aligned = loss_and_grad(EmbeddingBatch(*aligned), cfg)
    g_shuffled = loss_and_grad(EmbeddingBatch(*shuffled), cfg)

    def norm(out):
        return np.sqrt(
            np.sum(out.grad_audio**2)
            + np.sum(out.grad_text**2)
            + out.grad_log_tau_pred**2
        )

    assert norm(g_aligned) < norm(g_shuffled)
    # and the finite-difference oracle agrees on both
    for inputs, out in ((aligned, g_aligned), (shuffled, g_shuffled)):
        num_a, num_t, num_lt = finite_difference_grads(*inputs, cfg)
        assert max_relative_error(out.grad_audio, num_a) < 1e-5
        assert max_relative_error(out.grad_text, num_t) < 1e-5
        assert max_relative_error(out.grad_log_tau_pred, num_lt) < 1e-5


def test_target_branch_is_stop_gradient():
    # changing the intra-modal temperatures changes the loss value (the
    # targets move) but the analytic gradients never differentiate through
    # the target branch: they match finite differences with frozen targets
    rng = np.random.default_rng(45)
    rows = make_rows(rng, 5, 7)
    batch = EmbeddingBatch(*rows)
    cfg_a = SmoothingConfig(tau_a2a=0.5, tau_t2t=1.5)
    cfg_b = SmoothingConfig(tau_a2a=1.5, tau_t2t=0.5)
    out_a = loss_and_grad(batch, cfg_a)
    out_b = loss_and_grad(batch, cfg_b)
    assert out_a.value != out_b.value
    for cfg, out in ((cfg_a, out_a), (cfg_b, out_b)):
        num_a, num_t, num_lt = finite_difference_grads(*rows, cfg)
        assert max_relative_error(out.grad_audio, num_a) < 1e-5
        assert max_relative_error(out.grad_text, num_t) < 1e-5


def test_fixed_target_forward_ignores_target_branch_inputs():
    # with frozen targets, perturbing text inputs changes only the
    # prediction path; the target matrix passed in stays authoritative
    rng = np.random.default_rng(46)
    audio, text, local = make_rows(rng, 4, 5)
    cfg = SmoothingConfig()
    y = build_targets(EmbeddingBatch(audio, text, local), cfg)
    value = loss_with_fixed_targets(EmbeddingBatch(audio, text, local), y, cfg)
    other_local = EmbeddingBatch(audio, text, rng.standard_normal(local.shape))
    assert loss_with_fixed_targets(other_local, y, cfg) == value

    perturbed = EmbeddingBatch(audio, text + 0.3 * rng.standard_normal(text.shape), local)
    # the perturbed rows would build other targets
    assert not np.array_equal(build_targets(perturbed, cfg), y)
    # B = 4 is one row block: the kernel forms these two products
    p_a2t = row_softmax(gram(perturbed.audio, perturbed.text), cfg.tau_pred)
    p_t2a = row_softmax(gram(perturbed.text, perturbed.audio), cfg.tau_pred)
    assert loss_with_fixed_targets(perturbed, y, cfg) == soft_loss(y, p_a2t, p_t2a, cfg)


def test_relative_error_metric():
    assert max_relative_error([1.0], [1.0]) == 0.0
    assert max_relative_error([2.0], [1.0]) == pytest.approx(0.5)
    # tiny components are compared absolutely against the unit scale
    assert max_relative_error([1e-12], [0.0]) == pytest.approx(1e-12)


@pytest.mark.parametrize("kl_mode", list(KLMode))
def test_clap_mix_matches_finite_differences(kl_mode):
    rng = np.random.default_rng(47)
    rows = make_rows(rng, 6, 5)
    cfg = SmoothingConfig(gamma=0.4, beta=0.3, tau_pred=0.7, kl_mode=kl_mode, clap_mix_lambda=0.5)
    out = loss_and_grad(EmbeddingBatch(*rows), cfg)
    num_a, num_t, num_lt = finite_difference_grads(*rows, cfg)
    assert max_relative_error(out.grad_audio, num_a) < 1e-5
    assert max_relative_error(out.grad_text, num_t) < 1e-5
    assert max_relative_error(out.grad_log_tau_pred, num_lt) < 1e-5


def test_gradients_match_finite_differences_at_rows_of_norm_1e_3_to_1e3():
    # each gradient row carries 1 / ||row||; the step in proportion to the
    # row's norm keeps the central differences as accurate at norm 1e-3 as
    # at 1e3, where a fixed step of 1e-5 would move a 1e-3 row by 1%
    rng = np.random.default_rng(49)
    b, d = 6, 5
    norms = np.logspace(-3.0, 3.0, b)
    audio, text, local = make_rows(rng, b, d)
    audio *= (norms / np.linalg.norm(audio, axis=1))[:, None]
    text *= (norms[::-1] / np.linalg.norm(text, axis=1))[:, None]
    batch = EmbeddingBatch(audio, text, local)
    for lam in (0.0, 0.5, 1.0):
        cfg = SmoothingConfig(gamma=0.4, beta=0.3, tau_pred=0.7, clap_mix_lambda=lam)
        out = loss_and_grad(batch, cfg)
        num_a, num_t, _ = finite_difference_grads(audio, text, local, cfg)
        assert max_relative_error(out.grad_audio, num_a) < 1e-5
        assert max_relative_error(out.grad_text, num_t) < 1e-5


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_scaling_an_input_row_divides_its_gradient_row(data):
    # power-of-two scales leave the unit rows, and so the loss and the
    # log(tau_pred) gradient, bit for bit as they were; the gradient of a row
    # scaled by s is the unscaled one divided by s, also bit for bit
    b = data.draw(st.sampled_from([2, 16, 65, 130]), label="b")
    lam = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="lam")
    kl_mode = data.draw(st.sampled_from(list(KLMode)), label="kl_mode")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    exponents = st.lists(st.integers(-20, 20), min_size=b, max_size=b)
    scales = [np.ldexp(1.0, data.draw(exponents, label=name)) for name in ("audio", "text", "local")]
    rows = make_rows(np.random.default_rng(seed), b, 8)
    cfg = SmoothingConfig(gamma=0.3, beta=0.4, tau_pred=0.7, kl_mode=kl_mode, clap_mix_lambda=lam)
    base = loss_and_grad(EmbeddingBatch(*rows), cfg)
    out = loss_and_grad(EmbeddingBatch(*(m * s[:, None] for m, s in zip(rows, scales))), cfg)
    assert out.value == base.value
    assert out.grad_log_tau_pred == base.grad_log_tau_pred
    assert out.grad_audio.tobytes() == (base.grad_audio / scales[0][:, None]).tobytes()
    assert out.grad_text.tobytes() == (base.grad_text / scales[1][:, None]).tobytes()


# --- the stacked differences against the per-entry loop ------------------------

@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_stacked_differences_match_the_per_entry_loop(data):
    # a row of norm r moves by STEP * r, so its differences carry the loss's
    # rounding divided by STEP * r: at r = 1e-3 one ulp of the loss is 1e-8 of
    # the gradient, for the loop and the stack alike. Rows below unit norm are
    # therefore compared as if scaled to it, that is, times min(r, 1). A mix
    # other than 0.5 tells its two weights apart, and tau_pred 0.05 puts
    # predictions below KL_FLOOR
    b = data.draw(st.integers(2, 9), label="b")
    d = data.draw(st.integers(1, 6), label="d")
    cfg = data.draw(st.sampled_from(_case_configs()), label="cfg")
    cfg = replace(
        cfg,
        clap_mix_lambda=data.draw(st.sampled_from([cfg.clap_mix_lambda, 0.25]), label="lam"),
        tau_pred=data.draw(st.sampled_from([cfg.tau_pred, 0.05]), label="tau_pred"),
    )
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    exponents = st.lists(st.floats(-3.0, 3.0), min_size=b, max_size=b)
    audio, text, local = make_rows(np.random.default_rng(seed), b, d)
    scales = []
    for m, name in ((audio, "audio"), (text, "text")):
        norms = 10.0 ** np.array(data.draw(exponents, label=name))
        m *= (norms / np.linalg.norm(m, axis=1))[:, None]
        scales.append(np.minimum(norms, 1.0)[:, None])
    stacked = finite_difference_grads(audio, text, local, cfg)
    loop = loop_finite_difference_grads(audio, text, local, cfg)
    assert max_relative_error(stacked[0] * scales[0], loop[0] * scales[0]) < 1e-8
    assert max_relative_error(stacked[1] * scales[1], loop[1] * scales[1]) < 1e-8
    assert max_relative_error(stacked[2], loop[2]) < 1e-8


@pytest.mark.parametrize("differences", [finite_difference_grads, loop_finite_difference_grads])
def test_symmetric_kl_against_targets_below_the_floor_raises(differences):
    # at tau 0.01 the off-diagonal intra-modal weights underflow, so
    # (1 - beta) I + beta q has entries below KL_FLOOR
    rows = make_rows(np.random.default_rng(50), 4, 3)
    cfg = SmoothingConfig(beta=0.1, tau_a2a=0.01, tau_t2t=0.01, clap_mix_lambda=0.5)
    with pytest.raises(ZeroMassTarget, match="below the floor"):
        differences(*rows, cfg)


def test_stacked_differences_are_chunked():
    # at B = 65 the 4 B d + 2 = 522 perturbed batches' grams alone take 17.6
    # MB; in chunks of at most _CHUNK_DOUBLES doubles per stack the peak stays
    # under six chunk-sized arrays
    b, d = 65, 2
    rows = make_rows(np.random.default_rng(51), b, d)
    cfg = SmoothingConfig(clap_mix_lambda=0.5)
    bound = 6 * _CHUNK_DOUBLES * 8
    assert (4 * b * d + 2) * b * b * 8 > bound
    finite_difference_grads(*rows, cfg)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        finite_difference_grads(*rows, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("kl_mode", list(KLMode))
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_gradients_match_finite_differences_one_row_past_a_block(lam, kl_mode):
    # the kernel forms its B x B terms in blocks of 32 rows; at 33 the second
    # block holds one row, and the gradient is checked across the seam
    rows = make_rows(np.random.default_rng(52), 33, 2)
    cfg = SmoothingConfig(
        gamma=0.5, beta=0.3, tau_a2a=0.7, tau_t2t=1.3, tau_pred=0.7,
        kl_mode=kl_mode, clap_mix_lambda=lam,
    )
    out = loss_and_grad(EmbeddingBatch(*rows), cfg)
    num_a, num_t, num_lt = finite_difference_grads(*rows, cfg)
    assert max_relative_error(out.grad_audio, num_a) < 1e-5
    assert max_relative_error(out.grad_text, num_t) < 1e-5
    assert max_relative_error(out.grad_log_tau_pred, num_lt) < 1e-5
