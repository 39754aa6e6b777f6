"""The single-pass loss/gradient kernel against the composition it replaced.

The reference below is the earlier implementation of ``loss_and_grad``: the
public forward pieces, the per-direction logit gradient ``_kl_grad_wrt_logits``
and, for the CLAP mix, two separate calls combined with weights lambda and
1 - lambda. The kernel reorders the arithmetic, so agreement is to 1e-12
relative, not bit for bit.
"""
import numpy as np
import pytest

from smoothclap.errors import ZeroMassTarget
from smoothclap.numeric import gram, kl_sum, l2_normalize_rows, row_softmax
from smoothclap.objective import (
    EmbeddingBatch,
    KLMode,
    SmoothingConfig,
    intra_modal_targets,
    loss_and_grad,
    mix_targets,
    smooth_targets,
)

REL_TOL = 1e-12


def _kl_grad_wrt_logits(p, y, cfg, symmetric):
    g = p - y
    if symmetric:
        u = np.log(np.maximum(p, cfg.floor)) - np.log(np.maximum(y, cfg.floor))
        g = g + p * (u - np.sum(p * u, axis=1, keepdims=True))
    return g


def reference_loss_and_grad(batch, cfg, lam):
    """(value, grad_audio, grad_text, grad_log_tau_pred) the old way."""
    e_a = l2_normalize_rows(batch.audio)
    e_t = l2_normalize_rows(batch.text)
    b = batch.size
    g = gram(e_a, e_t)
    z = g / cfg.tau_pred
    p_a2t = row_softmax(g, cfg.tau_pred)
    p_t2a = row_softmax(g.T, cfg.tau_pred)

    def with_grads(value, y, symmetric):
        g_z = _kl_grad_wrt_logits(p_a2t, y, cfg, symmetric)
        g_zt = _kl_grad_wrt_logits(p_t2a, y, cfg, symmetric)
        scale = 1.0 / (2.0 * b)
        grad_gram = (scale / cfg.tau_pred) * (g_z + g_zt.T)
        grad_ea = grad_gram @ e_t
        grad_et = grad_gram.T @ e_a
        grad_audio = grad_ea - np.sum(grad_ea * e_a, axis=1, keepdims=True) * e_a
        grad_text = grad_et - np.sum(grad_et * e_t, axis=1, keepdims=True) * e_t
        grad_log_tau = -scale * (float(np.sum(g_z * z)) + float(np.sum(g_zt * z.T)))
        return value, grad_audio, grad_text, grad_log_tau

    tiny = np.finfo(np.float64).tiny
    infonce = 0.5 * (
        float(np.mean(-np.log(np.maximum(np.diag(p_a2t), tiny))))
        + float(np.mean(-np.log(np.maximum(np.diag(p_t2a), tiny))))
    )
    hard = with_grads(infonce, np.eye(b), False)
    if lam == 1.0:
        return hard
    y = smooth_targets(
        mix_targets(
            intra_modal_targets(batch.local_audio, cfg.tau_a2a),
            intra_modal_targets(batch.text, cfg.tau_t2t),
            cfg.gamma,
        ),
        cfg.beta,
    )
    symmetric = cfg.kl_mode is KLMode.SYMMETRIC
    total = kl_sum(y, p_a2t, cfg.floor) + kl_sum(y, p_t2a, cfg.floor)
    if symmetric:
        total += kl_sum(p_a2t, y, cfg.floor) + kl_sum(p_t2a, y, cfg.floor)
    soft = with_grads(total / (2.0 * b), y, symmetric)
    if lam == 0.0:
        return soft
    return tuple(lam * h + (1.0 - lam) * s for h, s in zip(hard, soft))


def make_batch(b, seed):
    rng = np.random.default_rng(seed)
    return EmbeddingBatch(
        audio=rng.standard_normal((b, 16)),
        text=rng.standard_normal((b, 16)),
        local_audio=rng.standard_normal((b, 24)),
    )


def assert_close(actual, expected):
    """Within REL_TOL of the largest reference component."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    scale = float(np.max(np.abs(expected)))
    assert float(np.max(np.abs(actual - expected))) <= REL_TOL * scale


# tau_pred 0.05 at B=16 puts predicted entries below the floor
@pytest.mark.parametrize("b,tau_pred", [(2, 0.7), (16, 0.05), (256, 0.5)])
@pytest.mark.parametrize("kl_mode", list(KLMode))
# "smooth" in the ids keeps the case names from when the kernel also took an
# objective
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0], ids=["0.0-smooth", "0.5-smooth", "1.0-smooth"])
def test_kernel_matches_reference(b, tau_pred, kl_mode, lam):
    batch = make_batch(b, seed=b)
    cfg = SmoothingConfig(
        gamma=0.3, beta=0.4, tau_a2a=0.8, tau_t2t=1.2, tau_pred=tau_pred, kl_mode=kl_mode
    )
    out = loss_and_grad(batch, cfg, lam)
    value, grad_audio, grad_text, grad_log_tau = reference_loss_and_grad(batch, cfg, lam)
    assert_close(out.value, value)
    assert_close(out.grad_audio, grad_audio)
    assert_close(out.grad_text, grad_text)
    assert_close(out.grad_log_tau_pred, grad_log_tau)


def test_floor_is_hit_in_the_reference_cases():
    batch = make_batch(16, seed=16)
    e_a = l2_normalize_rows(batch.audio)
    e_t = l2_normalize_rows(batch.text)
    p = row_softmax(gram(e_a, e_t), 0.05)
    assert float(np.min(p)) < SmoothingConfig().floor


def test_kernel_rejects_targets_below_the_floor_at_any_mix():
    batch = make_batch(4, seed=5)
    cfg = SmoothingConfig(beta=1e-12, kl_mode=KLMode.SYMMETRIC)
    for lam in (0.0, 0.5):
        with pytest.raises(ZeroMassTarget):
            loss_and_grad(batch, cfg, lam)


@pytest.mark.parametrize("lam", [-0.1, 1.5])
def test_kernel_rejects_mix_weight_outside_unit_interval(lam):
    with pytest.raises(ValueError):
        loss_and_grad(make_batch(4, seed=6), SmoothingConfig(), lam)
