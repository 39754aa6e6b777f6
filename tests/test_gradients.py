import numpy as np
import pytest

from smoothclap.gradcheck import (
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
    with_tau_pred,
)


def make_batch(rng, b, d):
    return EmbeddingBatch(
        audio=rng.standard_normal((b, d)),
        text=rng.standard_normal((b, d)),
        local_audio=rng.standard_normal((b, d + 1)),
    )


def test_single_config_matches_finite_differences():
    rng = np.random.default_rng(42)
    batch = make_batch(rng, 8, 16)
    cfg = SmoothingConfig(gamma=0.5, beta=0.1, tau_pred=1.0)
    out = loss_and_grad(batch, cfg)
    num_a, num_t, num_lt = finite_difference_grads(batch, cfg)
    assert max_relative_error(out.grad_audio, num_a) < 1e-5
    assert max_relative_error(out.grad_text, num_t) < 1e-5
    assert max_relative_error(out.grad_log_tau_pred, num_lt) < 1e-5


def test_forward_mode_with_hard_targets():
    rng = np.random.default_rng(43)
    batch = make_batch(rng, 4, 6)
    cfg = SmoothingConfig(beta=0.0, kl_mode=KLMode.FORWARD, tau_pred=0.8)
    out = loss_and_grad(batch, cfg)
    num_a, num_t, num_lt = finite_difference_grads(batch, cfg)
    assert max_relative_error(out.grad_audio, num_a) < 1e-5
    assert max_relative_error(out.grad_text, num_t) < 1e-5
    assert max_relative_error(out.grad_log_tau_pred, num_lt) < 1e-5


def test_suite_small_slice_passes():
    report = run_gradcheck_suite(seed=1, sizes=((2, 3), (4, 16)))
    assert report.passed
    assert report.n_cases >= 20
    assert report.max_error < 1e-5


def test_suite_catches_corrupted_gradient():
    report = run_gradcheck_suite(seed=1, sizes=((2, 3),), corrupt_gradient=True)
    assert not report.passed


def test_aligned_batch_has_smaller_gradient_than_shuffled():
    # audio == text with strongly diagonal scores sits near an optimum of the
    # hard objective, so its gradient norm is below a mismatched batch's
    rng = np.random.default_rng(44)
    rows = rng.standard_normal((6, 10))
    aligned = EmbeddingBatch(rows, rows.copy(), rows.copy())
    perm = np.roll(np.arange(6), 1)
    shuffled = EmbeddingBatch(rows, rows[perm], rows.copy())
    cfg = SmoothingConfig(beta=0.0, kl_mode=KLMode.FORWARD, tau_pred=0.1, clap_mix_lambda=1.0)
    g_aligned = loss_and_grad(aligned, cfg)
    g_shuffled = loss_and_grad(shuffled, cfg)

    def norm(out):
        return np.sqrt(
            np.sum(out.grad_audio**2)
            + np.sum(out.grad_text**2)
            + out.grad_log_tau_pred**2
        )

    assert norm(g_aligned) < norm(g_shuffled)
    # and the finite-difference oracle agrees on both
    for batch, out in ((aligned, g_aligned), (shuffled, g_shuffled)):
        num_a, num_t, num_lt = finite_difference_grads(batch, cfg)
        assert max_relative_error(out.grad_audio, num_a) < 1e-5
        assert max_relative_error(out.grad_text, num_t) < 1e-5
        assert max_relative_error(out.grad_log_tau_pred, num_lt) < 1e-5


def test_target_branch_is_stop_gradient():
    # changing the intra-modal temperatures changes the loss value (the
    # targets move) but the analytic gradients never differentiate through
    # the target branch: they match finite differences with frozen targets
    rng = np.random.default_rng(45)
    batch = make_batch(rng, 5, 7)
    cfg_a = SmoothingConfig(tau_a2a=0.5, tau_t2t=1.5)
    cfg_b = SmoothingConfig(tau_a2a=1.5, tau_t2t=0.5)
    out_a = loss_and_grad(batch, cfg_a)
    out_b = loss_and_grad(batch, cfg_b)
    assert out_a.value != out_b.value
    for cfg, out in ((cfg_a, out_a), (cfg_b, out_b)):
        num_a, num_t, num_lt = finite_difference_grads(batch, cfg)
        assert max_relative_error(out.grad_audio, num_a) < 1e-5
        assert max_relative_error(out.grad_text, num_t) < 1e-5


def test_fixed_target_forward_ignores_target_branch_inputs():
    # with frozen targets, perturbing text inputs changes only the
    # prediction path; the target matrix passed in stays authoritative
    rng = np.random.default_rng(46)
    batch = make_batch(rng, 4, 5)
    cfg = SmoothingConfig()
    y = build_targets(batch, cfg)
    v1 = loss_with_fixed_targets(batch.audio, batch.text, y, cfg)
    v2 = loss_with_fixed_targets(batch.audio, batch.text, y, with_tau_pred(cfg, cfg.tau_pred))
    assert v1 == v2


def test_relative_error_metric():
    assert max_relative_error([1.0], [1.0]) == 0.0
    assert max_relative_error([2.0], [1.0]) == pytest.approx(0.5)
    # tiny components are compared absolutely against the unit scale
    assert max_relative_error([1e-12], [0.0]) == pytest.approx(1e-12)


@pytest.mark.parametrize("kl_mode", list(KLMode))
def test_clap_mix_matches_finite_differences(kl_mode):
    rng = np.random.default_rng(47)
    batch = make_batch(rng, 6, 5)
    cfg = SmoothingConfig(gamma=0.4, beta=0.3, tau_pred=0.7, kl_mode=kl_mode, clap_mix_lambda=0.5)
    out = loss_and_grad(batch, cfg)
    num_a, num_t, num_lt = finite_difference_grads(batch, cfg)
    assert max_relative_error(out.grad_audio, num_a) < 1e-5
    assert max_relative_error(out.grad_text, num_t) < 1e-5
    assert max_relative_error(out.grad_log_tau_pred, num_lt) < 1e-5
