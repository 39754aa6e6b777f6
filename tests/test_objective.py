import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import random_unit_rows
from smoothclap.errors import (
    BetaOutOfRange,
    GammaOutOfRange,
    NonFiniteValue,
    NonPositiveTemperature,
    NotSquare,
    ShapeMismatch,
    ZeroMassTarget,
)
from smoothclap.numeric import gram, is_row_stochastic, l2_normalize_rows
from smoothclap.objective import (
    EmbeddingBatch,
    KLMode,
    SmoothingConfig,
    build_targets,
    clap_infonce,
    cross_modal_scores,
    intra_modal_targets,
    loss_and_grad,
    loss_with_fixed_targets,
    mix_targets,
    predicted_distributions,
    smooth_targets,
    soft_loss,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_values.json").read_text())


def make_batch(rng, b=4, d=8):
    return EmbeddingBatch(
        audio=rng.standard_normal((b, d)),
        text=rng.standard_normal((b, d)),
        local_audio=rng.standard_normal((b, d + 2)),
    )


# --- configuration and batch validation ---

def test_config_validation():
    with pytest.raises(GammaOutOfRange):
        SmoothingConfig(gamma=1.5)
    with pytest.raises(BetaOutOfRange):
        SmoothingConfig(beta=-0.1)
    with pytest.raises(NonPositiveTemperature):
        SmoothingConfig(tau_pred=0.0)
    with pytest.raises(NonPositiveTemperature, match="tau_a2a must be > 0, got nan"):
        SmoothingConfig(tau_a2a=np.nan)
    with pytest.raises(NonFiniteValue, match="tau_t2t must be finite, got inf"):
        SmoothingConfig(tau_t2t=np.inf)


def test_symmetric_mode_requires_positive_beta():
    with pytest.raises(ZeroMassTarget):
        SmoothingConfig(beta=0.0, kl_mode=KLMode.SYMMETRIC)
    # forward mode is fine with hard targets
    SmoothingConfig(beta=0.0, kl_mode=KLMode.FORWARD)


def test_batch_normalizes_on_construction():
    batch = make_batch(np.random.default_rng(0))
    for m in (batch.audio, batch.text, batch.local_audio):
        np.testing.assert_allclose(np.linalg.norm(m, axis=1), 1.0, atol=1e-9)


def test_batch_shape_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(ShapeMismatch):
        EmbeddingBatch(rng.standard_normal((3, 4)), rng.standard_normal((3, 5)),
                       rng.standard_normal((3, 4)))
    with pytest.raises(ShapeMismatch):
        EmbeddingBatch(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)),
                       rng.standard_normal((2, 4)))
    with pytest.raises(ShapeMismatch):
        EmbeddingBatch(rng.standard_normal((1, 4)), rng.standard_normal((1, 4)),
                       rng.standard_normal((1, 4)))


# --- cross_modal_scores ---

def test_scores_identity_basis():
    eye = np.eye(3)
    batch = EmbeddingBatch(eye, eye, eye)
    np.testing.assert_allclose(cross_modal_scores(batch, 1.0), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(cross_modal_scores(batch, 0.5), 2 * np.eye(3), atol=1e-12)


def test_scores_hand_example():
    audio = np.array([[0.6, 0.8], [0.8, -0.6]])
    text = np.array([[0.8, 0.6], [0.6, -0.8]])
    batch = EmbeddingBatch(audio, text, audio)
    s = cross_modal_scores(batch, 1.0)
    assert s[0, 0] == pytest.approx(GOLDEN["score_cross"], abs=1e-12)


# --- intra_modal_targets ---

def test_intra_two_orthogonal_rows():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    q = intra_modal_targets(rows, 1.0)
    np.testing.assert_allclose(q[0], GOLDEN["intra_two_orthogonal"], atol=1e-9)
    np.testing.assert_allclose(q[1], GOLDEN["intra_two_orthogonal"][::-1], atol=1e-9)


def test_intra_high_temperature_is_uniform():
    rows = random_unit_rows(np.random.default_rng(2), 5, 6)
    q = intra_modal_targets(rows, 1e6)
    np.testing.assert_allclose(q, np.full((5, 5), 0.2), atol=1e-5)


def test_intra_low_temperature_is_one_hot_on_diagonal():
    rows = l2_normalize_rows(np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.3], [0.5, 0.0, 1.0]]))
    q = intra_modal_targets(rows, 0.01)
    np.testing.assert_allclose(q, np.eye(3), atol=1e-4)


def test_intra_diagonal_argmax_for_distinct_unit_rows():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rows = random_unit_rows(rng, 6, 4)
        q = intra_modal_targets(rows, 0.7)
        assert np.array_equal(np.argmax(q, axis=1), np.arange(6))


# --- mix / smooth targets ---

def test_mix_endpoints_and_example():
    qa = np.array([[0.6, 0.4]])
    qt = np.array([[0.2, 0.8]])
    np.testing.assert_array_equal(mix_targets(qa, qt, 0.0), qa)
    np.testing.assert_array_equal(mix_targets(qa, qt, 1.0), qt)
    np.testing.assert_allclose(mix_targets(qa, qt, 0.5), [GOLDEN["mix_half"]], atol=1e-12)
    with pytest.raises(GammaOutOfRange):
        mix_targets(qa, qt, 1.2)
    with pytest.raises(ShapeMismatch):
        mix_targets(qa, np.array([[0.2, 0.3, 0.5]]), 0.5)


def test_smooth_endpoints_and_example():
    q = np.array([[0.6, 0.4], [0.4, 0.6]])
    np.testing.assert_array_equal(smooth_targets(q, 0.0), np.eye(2))
    np.testing.assert_array_equal(smooth_targets(q, 1.0), q)
    np.testing.assert_allclose(smooth_targets(q, 0.5), GOLDEN["smooth_half"], atol=1e-12)
    with pytest.raises(NotSquare):
        smooth_targets(np.array([[0.5, 0.25, 0.25]]), 0.5)
    with pytest.raises(BetaOutOfRange):
        smooth_targets(q, 2.0)


# --- predicted_distributions ---

def test_predicted_zero_scores_uniform():
    p_a2t, p_t2a = predicted_distributions(np.zeros((2, 2)), 1.0)
    np.testing.assert_allclose(p_a2t, np.full((2, 2), 0.5), atol=1e-15)
    np.testing.assert_allclose(p_t2a, np.full((2, 2), 0.5), atol=1e-15)


def test_predicted_symmetric_scores_match():
    rng = np.random.default_rng(6)
    s = rng.standard_normal((4, 4))
    s = s + s.T
    p_a2t, p_t2a = predicted_distributions(s, 0.8)
    np.testing.assert_allclose(p_a2t, p_t2a, atol=1e-12)


def test_predicted_diagonal_example():
    p_a2t, _ = predicted_distributions(np.array([[2.0, 0.0], [0.0, 2.0]]), 1.0)
    np.testing.assert_allclose(p_a2t[0], GOLDEN["predicted_diag2"], atol=1e-9)


def test_predicted_requires_square():
    with pytest.raises(NotSquare):
        predicted_distributions(np.zeros((2, 3)), 1.0)


# --- soft_loss ---

def test_soft_loss_zero_when_predictions_match_targets():
    y = np.array([[0.7, 0.3], [0.3, 0.7]])
    cfg = SmoothingConfig(beta=0.5)
    assert soft_loss(y, y, y, cfg) == 0.0


def test_soft_loss_golden_example():
    y = np.array([[0.9, 0.1], [0.1, 0.9]])
    uniform = np.full((2, 2), 0.5)
    cfg = SmoothingConfig(beta=0.5, kl_mode=KLMode.SYMMETRIC)
    assert soft_loss(y, uniform, uniform, cfg) == pytest.approx(
        GOLDEN["soft_loss_example"], abs=1e-9
    )


def test_soft_loss_rejects_zero_mass_targets_in_symmetric_mode():
    cfg = SmoothingConfig(beta=0.5, kl_mode=KLMode.SYMMETRIC)
    with pytest.raises(ZeroMassTarget):
        soft_loss(np.eye(2), np.full((2, 2), 0.5), np.full((2, 2), 0.5), cfg)


def test_soft_loss_forward_near_hard_targets_approaches_infonce():
    rng = np.random.default_rng(8)
    batch = make_batch(rng, b=6, d=10)
    g = gram(batch.audio, batch.text)
    cfg = SmoothingConfig(beta=1e-6, kl_mode=KLMode.FORWARD, tau_pred=1.0)
    y = build_targets(batch, cfg)
    p_a2t, p_t2a = predicted_distributions(g, cfg.tau_pred)
    soft = soft_loss(y, p_a2t, p_t2a, cfg)
    hard = clap_infonce(g, cfg.tau_pred)
    assert abs(soft - hard) < 1e-4


def test_soft_loss_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(100):
        b = int(rng.integers(2, 7))
        batch = make_batch(rng, b=b, d=5)
        cfg = SmoothingConfig(
            gamma=float(rng.uniform(0, 1)),
            beta=float(rng.uniform(0.05, 1.0)),
            kl_mode=KLMode.SYMMETRIC if rng.integers(2) else KLMode.FORWARD,
        )
        g = gram(batch.audio, batch.text)
        y = build_targets(batch, cfg)
        p_a2t, p_t2a = predicted_distributions(g, cfg.tau_pred)
        assert soft_loss(y, p_a2t, p_t2a, cfg) >= 0.0


# --- clap_infonce ---

def test_infonce_zero_scores():
    assert clap_infonce(np.zeros((2, 2)), 1.0) == pytest.approx(
        GOLDEN["infonce_zero_b2"], abs=1e-9
    )


def test_infonce_identity_example():
    assert clap_infonce(np.eye(2), 1.0) == pytest.approx(
        GOLDEN["infonce_identity_b2"], abs=1e-9
    )


def test_infonce_decreases_with_alignment_strength():
    losses = [clap_infonce(c * np.eye(3), 1.0) for c in (1.0, 2.0, 5.0, 20.0, 80.0)]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-9


def test_infonce_requires_square():
    with pytest.raises(NotSquare):
        clap_infonce(np.zeros((2, 3)), 1.0)


# --- target distribution invariants ---

def test_targets_row_stochastic_and_positive():
    rng = np.random.default_rng(10)
    for _ in range(100):
        batch = make_batch(rng, b=int(rng.integers(2, 8)), d=6)
        gamma = float(rng.uniform(0, 1))
        beta = float(rng.uniform(0.01, 1.0))
        cfg = SmoothingConfig(gamma=gamma, beta=beta)
        y = build_targets(batch, cfg)
        assert is_row_stochastic(y, tol=1e-9)
        assert np.all(y > 0.0)


def test_hard_target_recovery_matches_infonce():
    rng = np.random.default_rng(12)
    cfg = SmoothingConfig(beta=0.0, kl_mode=KLMode.FORWARD, tau_pred=0.7)
    for _ in range(25):
        batch = make_batch(rng, b=5, d=9)
        g = gram(batch.audio, batch.text)
        y = smooth_targets(intra_modal_targets(batch.local_audio, 1.0), 0.0)
        p_a2t, p_t2a = predicted_distributions(g, cfg.tau_pred)
        assert soft_loss(y, p_a2t, p_t2a, cfg) == pytest.approx(
            clap_infonce(g, cfg.tau_pred), abs=1e-9
        )


def test_loss_value_matches_manual_composition_bitwise():
    rng = np.random.default_rng(13)
    batch = make_batch(rng, b=5, d=7)
    cfg = SmoothingConfig(gamma=0.3, beta=0.4, tau_pred=0.9)
    e_a = l2_normalize_rows(batch.audio)
    e_t = l2_normalize_rows(batch.text)
    g = gram(e_a, e_t)
    p_a2t, p_t2a = predicted_distributions(g, cfg.tau_pred)
    y = build_targets(batch, cfg)
    assert loss_and_grad(batch, cfg).value == soft_loss(y, p_a2t, p_t2a, cfg)
    clap = replace(cfg, clap_mix_lambda=1.0)
    assert loss_and_grad(batch, clap).value == clap_infonce(g, cfg.tau_pred)
    # the fixed-target forward evaluates the kernel's mix from the same terms;
    # 0.3 tells the weight of InfoNCE from that of the soft loss
    for lam in (0.0, 0.3, 0.5, 1.0):
        mixed = replace(cfg, clap_mix_lambda=lam)
        fixed = loss_with_fixed_targets(batch.audio, batch.text, y, mixed)
        assert fixed == loss_and_grad(batch, mixed).value


def test_permutation_equivariance():
    rng = np.random.default_rng(14)
    batch = make_batch(rng, b=6, d=8)
    cfg = SmoothingConfig()
    out = loss_and_grad(batch, cfg)
    perm = rng.permutation(6)
    permuted = EmbeddingBatch(
        batch.audio[perm], batch.text[perm], batch.local_audio[perm]
    )
    out_p = loss_and_grad(permuted, cfg)
    assert out_p.value == pytest.approx(out.value, abs=1e-12)
    np.testing.assert_allclose(out_p.grad_audio, out.grad_audio[perm], atol=1e-12)
    np.testing.assert_allclose(out_p.grad_text, out.grad_text[perm], atol=1e-12)
    assert out_p.grad_log_tau_pred == pytest.approx(out.grad_log_tau_pred, abs=1e-12)
