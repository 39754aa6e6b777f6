import inspect
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import smoothclap.gradcheck
import smoothclap.objective
from helpers import is_row_stochastic, random_unit_rows
from smoothclap.errors import (
    BetaOutOfRange,
    GammaOutOfRange,
    NonFiniteValue,
    NonPositiveTemperature,
    NotSquare,
    ShapeMismatch,
    ZeroMassTarget,
)
from smoothclap.numeric import gram, l2_normalize_rows, row_softmax
from smoothclap.objective import (
    EmbeddingBatch,
    KLMode,
    SmoothingConfig,
    build_targets,
    clap_infonce,
    loss_and_grad,
    loss_with_fixed_targets,
    soft_loss,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_values.json").read_text())


def make_batch(rng, b=4, d=8):
    return EmbeddingBatch(
        audio=rng.standard_normal((b, d)),
        text=rng.standard_normal((b, d)),
        local_audio=rng.standard_normal((b, d + 2)),
    )


def audio_targets(local, tau_a2a):
    """build_targets at gamma 0 and beta 1: the row softmax of the
    similarities of the local rows, q_a2a."""
    batch = EmbeddingBatch(np.eye(len(local)), np.eye(len(local)), local)
    return build_targets(batch, SmoothingConfig(gamma=0.0, beta=1.0, tau_a2a=tau_a2a))


def predictions(g, cfg):
    """Both prediction distributions of the unscaled scores g."""
    return row_softmax(g, cfg.tau_pred), row_softmax(g.T, cfg.tau_pred)


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
    with pytest.raises(NonFiniteValue, match="tau_a2a must be finite, got inf"):
        SmoothingConfig(tau_a2a=np.inf)
    with pytest.raises(NonPositiveTemperature, match="tau_pred must be > 0, got -inf"):
        SmoothingConfig(tau_pred=-np.inf)


@pytest.mark.parametrize("module", [smoothclap.objective, smoothclap.gradcheck])
def test_weights_enter_public_functions_only_through_the_config(module):
    # each weight is declared and checked once, in SmoothingConfig
    names = {f.name for f in fields(SmoothingConfig)}
    assert names == {
        "gamma", "beta", "tau_a2a", "tau_t2t", "tau_pred", "kl_mode", "clap_mix_lambda"
    }
    public = [
        fn for name, fn in inspect.getmembers(module, inspect.isfunction)
        if not name.startswith("_") and fn.__module__ == module.__name__
    ]
    assert public
    for fn in public:
        loose = names & set(inspect.signature(fn).parameters)
        assert not loose, f"{fn.__name__} takes {sorted(loose)}"


def test_symmetric_mode_requires_positive_beta():
    for lam in (0.0, 0.5, 0.999):
        with pytest.raises(ZeroMassTarget, match="symmetric KL requires beta > 0"):
            SmoothingConfig(beta=0.0, kl_mode=KLMode.SYMMETRIC, clap_mix_lambda=lam)
    # forward mode is fine with hard targets
    SmoothingConfig(beta=0.0, kl_mode=KLMode.FORWARD)
    # plain CLAP builds no target, so beta is unused there, even at 0
    clap = SmoothingConfig(beta=0.0, kl_mode=KLMode.SYMMETRIC, clap_mix_lambda=1.0)
    batch = make_batch(np.random.default_rng(4), b=6)
    out = loss_and_grad(batch, clap)
    ref = loss_and_grad(batch, replace(clap, beta=0.1))
    assert out.value == ref.value
    assert out.grad_audio.tobytes() == ref.grad_audio.tobytes()
    assert out.grad_text.tobytes() == ref.grad_text.tobytes()
    assert out.grad_log_tau_pred == ref.grad_log_tau_pred


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


# --- targets and predictions ---

def test_scores_identity_basis():
    eye = np.eye(3)
    np.testing.assert_allclose(gram(eye, eye), eye, atol=1e-12)
    # the kernel's logits are the scores over tau_pred: at tau_pred 0.5 its
    # InfoNCE on the identity basis is that of the scores 2 I at tau 1
    batch = EmbeddingBatch(eye, eye, eye)
    half = SmoothingConfig(tau_pred=0.5, clap_mix_lambda=1.0)
    assert loss_and_grad(batch, half).value == pytest.approx(
        clap_infonce(2 * eye, SmoothingConfig(tau_pred=1.0)), rel=1e-12
    )


def test_scores_hand_example():
    audio = np.array([[0.6, 0.8], [0.8, -0.6]])
    text = np.array([[0.8, 0.6], [0.6, -0.8]])
    assert gram(audio, text)[0, 0] == pytest.approx(GOLDEN["score_cross"], abs=1e-12)


def test_intra_two_orthogonal_rows():
    q = audio_targets(np.eye(2), 1.0)
    np.testing.assert_allclose(q[0], GOLDEN["intra_two_orthogonal"], atol=1e-9)
    np.testing.assert_allclose(q[1], GOLDEN["intra_two_orthogonal"][::-1], atol=1e-9)


def test_intra_rejects_a_temperature_the_config_rejects():
    # the intra-modal temperatures reach build_targets only through the
    # config, and the row softmax they scale refuses the same values
    for name in ("tau_a2a", "tau_t2t"):
        with pytest.raises(NonFiniteValue, match=f"{name} must be finite, got inf"):
            SmoothingConfig(**{name: np.inf})
        with pytest.raises(NonPositiveTemperature, match=f"{name} must be > 0, got 0.0"):
            SmoothingConfig(**{name: 0.0})
    with pytest.raises(NonFiniteValue, match="temperature must be finite, got inf"):
        row_softmax(np.eye(2), np.inf)
    with pytest.raises(NonPositiveTemperature, match="temperature must be > 0, got 0.0"):
        row_softmax(np.eye(2), 0.0)


def test_intra_high_temperature_is_uniform():
    rows = random_unit_rows(np.random.default_rng(2), 5, 6)
    q = audio_targets(rows, 1e6)
    np.testing.assert_allclose(q, np.full((5, 5), 0.2), atol=1e-5)


def test_intra_low_temperature_is_one_hot_on_diagonal():
    rows = l2_normalize_rows(np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.3], [0.5, 0.0, 1.0]]))
    q = audio_targets(rows, 0.01)
    np.testing.assert_allclose(q, np.eye(3), atol=1e-4)


def test_intra_diagonal_argmax_for_distinct_unit_rows():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rows = random_unit_rows(rng, 6, 4)
        q = audio_targets(rows, 0.7)
        assert np.array_equal(np.argmax(q, axis=1), np.arange(6))


def test_mix_endpoints_and_example():
    rng = np.random.default_rng(3)
    audio, text, text2 = (rng.standard_normal((5, 4)) for _ in range(3))
    local, local2 = rng.standard_normal((5, 6)), rng.standard_normal((5, 6))
    batch = EmbeddingBatch(audio, text, local)
    other_text = EmbeddingBatch(audio, text2, local)
    other_local = EmbeddingBatch(audio, text, local2)
    # gamma 0 reads only the local rows, gamma 1 only the text rows
    audio_side = SmoothingConfig(gamma=0.0, beta=1.0)
    text_side = SmoothingConfig(gamma=1.0, beta=1.0)
    np.testing.assert_array_equal(
        build_targets(batch, audio_side), build_targets(other_text, audio_side)
    )
    np.testing.assert_array_equal(
        build_targets(batch, text_side), build_targets(other_local, text_side)
    )
    # row 1 mixes [0.35, 0.65] and [0.45, 0.55] half and half
    eye = np.eye(2)
    half = SmoothingConfig(
        gamma=0.5, beta=1.0, tau_a2a=1.0 / np.log(13.0 / 7.0), tau_t2t=1.0 / np.log(11.0 / 9.0)
    )
    y = build_targets(EmbeddingBatch(eye, eye, eye), half)
    np.testing.assert_allclose(y[1], GOLDEN["mix_half"], atol=1e-12)


def test_smooth_endpoints_and_example():
    batch = make_batch(np.random.default_rng(7), b=3)
    hard = SmoothingConfig(beta=0.0, kl_mode=KLMode.FORWARD)
    np.testing.assert_array_equal(build_targets(batch, hard), np.eye(3))
    # beta 1 leaves the identity out: at gamma 0 the targets are q_a2a
    soft = SmoothingConfig(gamma=0.0, beta=1.0)
    np.testing.assert_allclose(
        build_targets(batch, soft),
        row_softmax(gram(batch.local_audio, batch.local_audio), 1.0),
        rtol=1e-12,
    )
    # the rows [0.6, 0.4] and [0.4, 0.6] fused with the identity half and half
    eye = np.eye(2)
    half = SmoothingConfig(gamma=0.0, beta=0.5, tau_a2a=1.0 / np.log(1.5))
    y = build_targets(EmbeddingBatch(eye, eye, eye), half)
    np.testing.assert_allclose(y, GOLDEN["smooth_half"], atol=1e-12)


def test_predicted_zero_scores_uniform():
    p_a2t, p_t2a = predictions(np.zeros((2, 2)), SmoothingConfig(tau_pred=1.0))
    np.testing.assert_allclose(p_a2t, np.full((2, 2), 0.5), atol=1e-15)
    np.testing.assert_allclose(p_t2a, np.full((2, 2), 0.5), atol=1e-15)


def test_predicted_symmetric_scores_match():
    rng = np.random.default_rng(6)
    s = rng.standard_normal((4, 4))
    s = s + s.T
    p_a2t, p_t2a = predictions(s, SmoothingConfig(tau_pred=0.8))
    np.testing.assert_allclose(p_a2t, p_t2a, atol=1e-12)


def test_predicted_diagonal_example():
    p_a2t = row_softmax(np.array([[2.0, 0.0], [0.0, 2.0]]), 1.0)
    np.testing.assert_allclose(p_a2t[0], GOLDEN["predicted_diag2"], atol=1e-9)


def test_predicted_requires_square():
    # soft_loss takes the predicted distributions, one row per batch item
    rect = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(NotSquare):
        soft_loss(rect, rect, rect, SmoothingConfig())


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
    p_a2t, p_t2a = predictions(g, cfg)
    soft = soft_loss(y, p_a2t, p_t2a, cfg)
    hard = clap_infonce(g, cfg)
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
        p_a2t, p_t2a = predictions(g, cfg)
        assert soft_loss(y, p_a2t, p_t2a, cfg) >= 0.0


# --- clap_infonce ---

def test_infonce_zero_scores():
    assert clap_infonce(np.zeros((2, 2)), SmoothingConfig(tau_pred=1.0)) == pytest.approx(
        GOLDEN["infonce_zero_b2"], abs=1e-9
    )


def test_infonce_identity_example():
    assert clap_infonce(np.eye(2), SmoothingConfig(tau_pred=1.0)) == pytest.approx(
        GOLDEN["infonce_identity_b2"], abs=1e-9
    )


def test_infonce_decreases_with_alignment_strength():
    cfg = SmoothingConfig(tau_pred=1.0)
    losses = [clap_infonce(c * np.eye(3), cfg) for c in (1.0, 2.0, 5.0, 20.0, 80.0)]
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-9


def test_infonce_requires_square():
    with pytest.raises(NotSquare):
        clap_infonce(np.zeros((2, 3)), SmoothingConfig())
    # a batch of one is refused before any softmax, which would overwrite
    # a 1 x 1 input through its transpose view
    one = np.array([[5.0]])
    with pytest.raises(ShapeMismatch, match="InfoNCE needs a batch of at least 2"):
        clap_infonce(one, SmoothingConfig())
    assert one[0, 0] == 5.0


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
        y = build_targets(batch, cfg)
        p_a2t, p_t2a = predictions(g, cfg)
        assert soft_loss(y, p_a2t, p_t2a, cfg) == pytest.approx(
            clap_infonce(g, cfg), abs=1e-9
        )


def test_loss_value_matches_manual_composition():
    # B = 130 is four full 32-row blocks of the kernel and a block of two rows
    for b in (5, 130):
        rng = np.random.default_rng(13)
        audio, text = rng.standard_normal((b, 7)), rng.standard_normal((b, 7))
        batch = EmbeddingBatch(audio, text, rng.standard_normal((b, 9)))
        cfg = SmoothingConfig(gamma=0.3, beta=0.4, tau_pred=0.9)
        # the kernel takes the batch's unit rows as they are; its row blocks
        # of the products need not match the whole products' rows bit for bit
        g = gram(batch.audio, batch.text)
        p_a2t, p_t2a = predictions(g, cfg)
        y = build_targets(batch, cfg)
        soft = soft_loss(y, p_a2t, p_t2a, cfg)
        assert loss_and_grad(batch, cfg).value == pytest.approx(soft, rel=1e-12)
        clap = replace(cfg, clap_mix_lambda=1.0)
        assert loss_and_grad(batch, clap).value == pytest.approx(clap_infonce(g, cfg), rel=1e-12)
        # the fixed-target forward evaluates the kernel's mix from the same
        # block code, bit for bit; 0.3 tells the weight of InfoNCE from that
        # of the soft loss
        for lam in (0.0, 0.3, 0.5, 1.0):
            mixed = replace(cfg, clap_mix_lambda=lam)
            fixed = loss_with_fixed_targets(batch, y, mixed)
            assert fixed == loss_and_grad(batch, mixed).value


def test_permutation_equivariance():
    rng = np.random.default_rng(14)
    audio, text, local = (rng.standard_normal((6, d)) for d in (8, 8, 10))
    cfg = SmoothingConfig()
    out = loss_and_grad(EmbeddingBatch(audio, text, local), cfg)
    perm = rng.permutation(6)
    permuted = EmbeddingBatch(audio[perm], text[perm], local[perm])
    out_p = loss_and_grad(permuted, cfg)
    assert out_p.value == pytest.approx(out.value, abs=1e-12)
    np.testing.assert_allclose(out_p.grad_audio, out.grad_audio[perm], atol=1e-12)
    np.testing.assert_allclose(out_p.grad_text, out.grad_text[perm], atol=1e-12)
    assert out_p.grad_log_tau_pred == pytest.approx(out.grad_log_tau_pred, abs=1e-12)
