"""Contrastive objectives: hard symmetric InfoNCE and the soft-target KL loss.

The soft objective replaces one-hot contrastive targets with row-stochastic
distributions built from intra-modal similarities: audio-to-audio on pooled
local features and text-to-text on the projected text embeddings. The two
are mixed by ``gamma``, fused with the identity by ``beta``, and the result
supervises the cross-modal prediction distributions through a (symmetric)
KL divergence. Targets are constants during backpropagation: no gradient
flows through the target branch.

Gradients returned by :func:`loss_and_grad` are taken with respect to the
pre-normalization embedding matrices (the chain rule runs through the row
L2-normalization) and with respect to ``log(tau_pred)``.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (
    BetaOutOfRange,
    GammaOutOfRange,
    NonFiniteLoss,
    NonPositiveTemperature,
    NotSquare,
    ShapeMismatch,
    ZeroMassTarget,
)
from .numeric import (
    DEFAULT_KL_FLOOR,
    as_matrix,
    check_floor,
    gram,
    kl_sum,
    l2_normalize_rows,
    row_softmax,
)


class KLMode(str, Enum):
    SYMMETRIC = "symmetric"
    FORWARD = "forward"


class ObjectiveKind(str, Enum):
    CLAP = "clap"
    SMOOTH = "smooth"


@dataclass(frozen=True)
class SmoothingConfig:
    """All hyperparameters of the soft-target objective.

    gamma weights text-side against audio-side intra-modal similarity,
    beta blends the soft distribution with the identity (hard) target,
    and the three temperatures scale the respective similarity softmaxes.
    Only ``tau_pred`` is learnable downstream; the intra-modal temperatures
    are fixed hyperparameters.
    """

    gamma: float = 0.5
    beta: float = 0.1
    tau_a2a: float = 1.0
    tau_t2t: float = 1.0
    tau_pred: float = 1.0
    kl_mode: KLMode = KLMode.SYMMETRIC
    floor: float = DEFAULT_KL_FLOOR

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise GammaOutOfRange(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.beta <= 1.0:
            raise BetaOutOfRange(f"beta must be in [0, 1], got {self.beta}")
        for name in ("tau_a2a", "tau_t2t", "tau_pred"):
            if not getattr(self, name) > 0.0:
                raise NonPositiveTemperature(
                    f"{name} must be > 0, got {getattr(self, name)}"
                )
        check_floor(self.floor)
        if self.kl_mode is KLMode.SYMMETRIC and not self.beta > 0.0:
            raise ZeroMassTarget(
                "symmetric KL requires beta > 0: hard targets put zero mass "
                "off the diagonal and the reverse KL term is undefined"
            )


@dataclass
class EmbeddingBatch:
    """Paired audio/text embeddings plus pooled local audio features.

    Rows are L2-normalized on construction. ``audio`` and ``text`` must share
    the same (B, d) shape; ``local_audio`` may have a different width.
    """

    audio: np.ndarray
    text: np.ndarray
    local_audio: np.ndarray

    def __post_init__(self) -> None:
        audio = l2_normalize_rows(as_matrix(self.audio, "audio"))
        text = l2_normalize_rows(as_matrix(self.text, "text"))
        local = l2_normalize_rows(as_matrix(self.local_audio, "local_audio"))
        if audio.shape != text.shape:
            raise ShapeMismatch(
                f"audio {audio.shape} and text {text.shape} must match"
            )
        if local.shape[0] != audio.shape[0]:
            raise ShapeMismatch(
                f"local_audio has {local.shape[0]} rows, expected {audio.shape[0]}"
            )
        if audio.shape[0] < 2:
            raise ShapeMismatch("batch size must be at least 2")
        self.audio = audio
        self.text = text
        self.local_audio = local

    @property
    def size(self) -> int:
        return self.audio.shape[0]


@dataclass
class LossOutput:
    """Scalar loss plus gradients for both embedding matrices and log(tau_pred)."""

    value: float
    grad_audio: np.ndarray
    grad_text: np.ndarray
    grad_log_tau_pred: float


def cross_modal_scores(batch: EmbeddingBatch, tau_pred: float) -> np.ndarray:
    """Temperature-scaled audio-text similarity: dot(e_a[i], e_t[j]) / tau_pred."""
    if not tau_pred > 0.0:
        raise NonPositiveTemperature(f"tau_pred must be > 0, got {tau_pred}")
    return gram(batch.audio, batch.text) / tau_pred


def intra_modal_targets(features, tau: float) -> np.ndarray:
    """Row-softmax of the self-similarity matrix of unit-norm feature rows."""
    features = as_matrix(features, "features")
    if not tau > 0.0:
        raise NonPositiveTemperature(f"tau must be > 0, got {tau}")
    return row_softmax(gram(features, features), tau)


def mix_targets(q_a2a, q_t2t, gamma: float) -> np.ndarray:
    """Convex combination (1 - gamma) * q_a2a + gamma * q_t2t."""
    q_a2a = as_matrix(q_a2a, "q_a2a")
    q_t2t = as_matrix(q_t2t, "q_t2t")
    if q_a2a.shape != q_t2t.shape:
        raise ShapeMismatch(f"shapes differ: {q_a2a.shape} vs {q_t2t.shape}")
    if not 0.0 <= gamma <= 1.0:
        raise GammaOutOfRange(f"gamma must be in [0, 1], got {gamma}")
    return (1.0 - gamma) * q_a2a + gamma * q_t2t


def smooth_targets(q, beta: float) -> np.ndarray:
    """Fuse the identity (hard) target with a soft distribution: (1-b)*I + b*q."""
    q = as_matrix(q, "q")
    if q.shape[0] != q.shape[1]:
        raise NotSquare(f"q must be square, got {q.shape}")
    if not 0.0 <= beta <= 1.0:
        raise BetaOutOfRange(f"beta must be in [0, 1], got {beta}")
    return (1.0 - beta) * np.eye(q.shape[0]) + beta * q


def predicted_distributions(scores, tau_pred: float) -> tuple[np.ndarray, np.ndarray]:
    """Audio-to-text and text-to-audio prediction distributions.

    ``scores`` is the raw (unscaled) similarity matrix; tau_pred is applied
    here exactly once. The second output is the row-softmax of the transpose.
    """
    s = as_matrix(scores, "scores")
    if s.shape[0] != s.shape[1]:
        raise NotSquare(f"scores must be square, got {s.shape}")
    return row_softmax(s, tau_pred), row_softmax(s.T, tau_pred)


def build_targets(batch: EmbeddingBatch, cfg: SmoothingConfig) -> np.ndarray:
    """Softened target distribution for one batch (constant under backprop)."""
    q_a2a = intra_modal_targets(batch.local_audio, cfg.tau_a2a)
    q_t2t = intra_modal_targets(batch.text, cfg.tau_t2t)
    return smooth_targets(mix_targets(q_a2a, q_t2t, cfg.gamma), cfg.beta)


def soft_loss(y, p_a2t, p_t2a, cfg: SmoothingConfig) -> float:
    """KL divergence between softened targets and predicted distributions.

    Symmetric mode sums forward and reverse KL in both retrieval directions;
    forward mode keeps only KL(y || p). Either way the total is divided by
    2 * batch size.
    """
    y = as_matrix(y, "y")
    p_a2t = as_matrix(p_a2t, "p_a2t")
    p_t2a = as_matrix(p_t2a, "p_t2a")
    if not (y.shape == p_a2t.shape == p_t2a.shape):
        raise ShapeMismatch(
            f"shapes differ: y {y.shape}, p_a2t {p_a2t.shape}, p_t2a {p_t2a.shape}"
        )
    if y.shape[0] != y.shape[1]:
        raise NotSquare(f"distributions must be square, got {y.shape}")
    if cfg.kl_mode is KLMode.SYMMETRIC and float(np.min(y)) < cfg.floor:
        raise ZeroMassTarget(
            "symmetric KL against targets with entries below the floor "
            f"({cfg.floor}); increase beta or use forward mode"
        )
    b = y.shape[0]
    total = kl_sum(y, p_a2t, cfg.floor) + kl_sum(y, p_t2a, cfg.floor)
    if cfg.kl_mode is KLMode.SYMMETRIC:
        total += kl_sum(p_a2t, y, cfg.floor) + kl_sum(p_t2a, y, cfg.floor)
    return total / (2.0 * b)


def clap_infonce(scores, tau_pred: float) -> float:
    """Symmetric InfoNCE: mean negative log-likelihood of the diagonal pairs."""
    s = as_matrix(scores, "scores")
    if s.shape[0] != s.shape[1]:
        raise NotSquare(f"scores must be square, got {s.shape}")
    if s.shape[0] < 2:
        raise ShapeMismatch("InfoNCE needs a batch of at least 2")
    p_a2t = row_softmax(s, tau_pred)
    p_t2a = row_softmax(s.T, tau_pred)
    tiny = np.finfo(np.float64).tiny
    nll_a = -np.log(np.maximum(np.diag(p_a2t), tiny))
    nll_t = -np.log(np.maximum(np.diag(p_t2a), tiny))
    return 0.5 * (float(np.mean(nll_a)) + float(np.mean(nll_t)))


def loss_with_fixed_targets(
    audio,
    text,
    targets,
    cfg: SmoothingConfig,
    objective: ObjectiveKind = ObjectiveKind.SMOOTH,
) -> float:
    """Forward loss with the target distribution held constant.

    This is the stop-gradient view of the objective: perturbing ``audio`` or
    ``text`` re-normalizes rows and recomputes predictions, but ``targets``
    stays fixed. Finite-difference checks of :func:`loss_and_grad` must use
    this function, since the analytic gradients deliberately do not
    differentiate through the target branch.
    """
    e_a = l2_normalize_rows(as_matrix(audio, "audio"))
    e_t = l2_normalize_rows(as_matrix(text, "text"))
    g = gram(e_a, e_t)
    if objective is ObjectiveKind.CLAP:
        return clap_infonce(g, cfg.tau_pred)
    p_a2t, p_t2a = predicted_distributions(g, cfg.tau_pred)
    return soft_loss(targets, p_a2t, p_t2a, cfg)


def _kl_grad_wrt_logits(p, y, cfg: SmoothingConfig, symmetric: bool) -> np.ndarray:
    # d/dz of sum_i [ KL(y_i || p_i) (+ KL(p_i || y_i)) ] where p = softmax(z)
    # and y is constant. Forward term: p - y. Reverse term uses the floored
    # logs so that, away from the floor, it is the exact derivative of the
    # value computed by soft_loss.
    g = p - y
    if symmetric:
        u = np.log(np.maximum(p, cfg.floor)) - np.log(np.maximum(y, cfg.floor))
        g = g + p * (u - np.sum(p * u, axis=1, keepdims=True))
    return g


def loss_and_grad(
    batch: EmbeddingBatch,
    cfg: SmoothingConfig,
    objective: ObjectiveKind = ObjectiveKind.SMOOTH,
) -> LossOutput:
    """Forward loss and exact analytic gradients for one batch.

    Gradients are with respect to the pre-normalization audio/text matrices
    (evaluated at the stored unit-norm rows) and with respect to
    ``log(tau_pred)``. Target distributions are constants. The returned value
    is computed by the same public forward functions, so it matches a manual
    composition bit for bit.
    """
    e_a = l2_normalize_rows(batch.audio)
    e_t = l2_normalize_rows(batch.text)
    b = batch.size
    g = gram(e_a, e_t)
    z = g / cfg.tau_pred
    p_a2t, p_t2a = predicted_distributions(g, cfg.tau_pred)

    if objective is ObjectiveKind.CLAP:
        value = clap_infonce(g, cfg.tau_pred)
        y = np.eye(b)
        symmetric = False
    else:
        y = build_targets(batch, cfg)
        value = soft_loss(y, p_a2t, p_t2a, cfg)
        symmetric = cfg.kl_mode is KLMode.SYMMETRIC

    if not np.isfinite(value):
        raise NonFiniteLoss(f"forward loss is {value}")

    g_z = _kl_grad_wrt_logits(p_a2t, y, cfg, symmetric)
    g_zt = _kl_grad_wrt_logits(p_t2a, y, cfg, symmetric)

    scale = 1.0 / (2.0 * b)
    grad_gram = (scale / cfg.tau_pred) * (g_z + g_zt.T)
    grad_ea = grad_gram @ e_t
    grad_et = grad_gram.T @ e_a
    # chain rule through row normalization: project out the radial component
    grad_audio = grad_ea - np.sum(grad_ea * e_a, axis=1, keepdims=True) * e_a
    grad_text = grad_et - np.sum(grad_et * e_t, axis=1, keepdims=True) * e_t
    grad_log_tau = -scale * (float(np.sum(g_z * z)) + float(np.sum(g_zt * z.T)))

    return LossOutput(
        value=value,
        grad_audio=grad_audio,
        grad_text=grad_text,
        grad_log_tau_pred=grad_log_tau,
    )


def with_tau_pred(cfg: SmoothingConfig, tau_pred: float) -> SmoothingConfig:
    """Copy of ``cfg`` with a different prediction temperature."""
    return replace(cfg, tau_pred=tau_pred)
