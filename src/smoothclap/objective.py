"""Contrastive objectives: hard symmetric InfoNCE and the soft-target KL loss.

The soft objective replaces one-hot contrastive targets with row-stochastic
distributions built from intra-modal similarities: audio-to-audio on pooled
local features and text-to-text on the projected text embeddings. The two
are mixed by ``gamma``, fused with the identity by ``beta``, and the result
supervises the cross-modal prediction distributions through a (symmetric)
KL divergence. ``clap_mix_lambda`` mixes in conventional contrastive
supervision: the loss is ``lam * InfoNCE + (1 - lam) * soft``. Every one of
these weights is a field of :class:`SmoothingConfig`. Targets are constants
during backpropagation: no gradient flows through the target branch.

Gradients returned by :func:`loss_and_grad` are taken with respect to the
pre-normalization embedding matrices (the chain rule runs through the row
L2-normalization) and with respect to ``log(tau_pred)``.

The public forward functions validate their arguments and then run the same
private term code as :func:`loss_and_grad`, whose arrays come from a
validated :class:`EmbeddingBatch` and are trusted. So a manual composition of
the public pieces reproduces the kernel's loss bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (
    BetaOutOfRange,
    ConfigError,
    GammaOutOfRange,
    NonFiniteLoss,
    NonFiniteValue,
    NonPositiveTemperature,
    NotSquare,
    ShapeMismatch,
    ZeroMassTarget,
)
from .numeric import (
    KL_FLOOR,
    as_matrix,
    check_temperature,
    gram,
    l2_normalize_rows,
    row_softmax_inplace,
    unit_rows,
)


class KLMode(str, Enum):
    SYMMETRIC = "symmetric"
    FORWARD = "forward"


@dataclass(frozen=True)
class SmoothingConfig:
    """All hyperparameters of the soft-target objective.

    gamma weights text-side against audio-side intra-modal similarity,
    beta blends the soft distribution with the identity (hard) target,
    and the three temperatures scale the respective similarity softmaxes.
    ``clap_mix_lambda`` weights InfoNCE against the soft loss: 0 is the soft
    loss alone, 1 plain CLAP, where no targets are built. Only ``tau_pred``
    is learnable downstream; the intra-modal temperatures are fixed
    hyperparameters.
    """

    gamma: float = 0.5
    beta: float = 0.1
    tau_a2a: float = 1.0
    tau_t2t: float = 1.0
    tau_pred: float = 1.0
    kl_mode: KLMode = KLMode.SYMMETRIC
    clap_mix_lambda: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise GammaOutOfRange(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.beta <= 1.0:
            raise BetaOutOfRange(f"beta must be in [0, 1], got {self.beta}")
        if not 0.0 <= self.clap_mix_lambda <= 1.0:
            raise ConfigError(
                f"clap_mix_lambda must lie in [0, 1], got {self.clap_mix_lambda}"
            )
        for name in ("tau_a2a", "tau_t2t", "tau_pred"):
            tau = getattr(self, name)
            if not tau > 0.0:
                raise NonPositiveTemperature(f"{name} must be > 0, got {tau}")
            if tau == np.inf:
                raise NonFiniteValue(f"{name} must be finite, got {tau}")
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
        audio = unit_rows(as_matrix(self.audio, "audio"))
        text = unit_rows(as_matrix(self.text, "text"))
        local = unit_rows(as_matrix(self.local_audio, "local_audio"))
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
    check_temperature(tau_pred)
    return gram(batch.audio, batch.text) / tau_pred


def intra_modal_targets(features, tau: float) -> np.ndarray:
    """Row-softmax of the self-similarity matrix of unit-norm feature rows."""
    features = as_matrix(features, "features")
    check_temperature(tau)
    return _intra_modal(features, tau)


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
    Both are C-contiguous.
    """
    s = as_matrix(scores, "scores")
    if s.shape[0] != s.shape[1]:
        raise NotSquare(f"scores must be square, got {s.shape}")
    check_temperature(tau_pred)
    return _predictions(s.copy(), tau_pred)


def build_targets(batch: EmbeddingBatch, cfg: SmoothingConfig) -> np.ndarray:
    """Softened target distribution for one batch (constant under backprop).

    Equal, bit for bit, to ``smooth_targets(mix_targets(q_a2a, q_t2t, gamma),
    beta)`` of the two ``intra_modal_targets``.
    """
    return _targets(batch, cfg)


def soft_loss(y, p_a2t, p_t2a, cfg: SmoothingConfig) -> float:
    """KL divergence between softened targets and predicted distributions.

    Symmetric mode sums forward and reverse KL in both retrieval directions;
    forward mode keeps only KL(y || p). Either way the total is divided by
    2 * batch size. ``KL_FLOOR`` bounds both logs from below.
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
    kl = _KLTerms(y, cfg)
    kl.add(p_a2t)
    kl.add(p_t2a)
    return kl.value()


def clap_infonce(scores, tau_pred: float) -> float:
    """Symmetric InfoNCE: mean negative log-likelihood of the diagonal pairs."""
    p_a2t, p_t2a = predicted_distributions(scores, tau_pred)
    if p_a2t.shape[0] < 2:
        raise ShapeMismatch("InfoNCE needs a batch of at least 2")
    return _infonce(p_a2t, p_t2a)


def loss_with_fixed_targets(audio, text, targets, cfg: SmoothingConfig) -> float:
    """Forward loss with the target distribution held constant.

    This is the stop-gradient view of the objective: perturbing ``audio`` or
    ``text`` re-normalizes rows and recomputes predictions, but ``targets``
    stays fixed. Finite-difference checks of :func:`loss_and_grad` must use
    this function, since the analytic gradients deliberately do not
    differentiate through the target branch.

    The mix is the kernel's: InfoNCE alone at ``cfg.clap_mix_lambda = 1``
    (then ``targets`` is unused), the soft loss alone at 0, and ``lam *
    InfoNCE + (1 - lam) * soft_loss`` in between, from one pair of predictions.
    """
    lam = cfg.clap_mix_lambda
    e_a = l2_normalize_rows(as_matrix(audio, "audio"))
    e_t = l2_normalize_rows(as_matrix(text, "text"))
    g = gram(e_a, e_t)
    if lam == 1.0:
        return clap_infonce(g, cfg.tau_pred)
    p_a2t, p_t2a = predicted_distributions(g, cfg.tau_pred)
    soft = soft_loss(targets, p_a2t, p_t2a, cfg)
    if lam == 0.0:
        return soft
    return lam * _infonce(p_a2t, p_t2a) + (1.0 - lam) * soft


# --- private term code: trusted float64 arrays, no validation -------------------

def _add_to_diagonal(m: np.ndarray, value: float) -> None:
    m.flat[:: m.shape[0] + 1] += value


def _predictions(s: np.ndarray, tau_pred: float) -> tuple[np.ndarray, np.ndarray]:
    # the t2a softmax runs on a C-contiguous copy of the transpose, so both
    # directions reduce along contiguous rows; s itself becomes p_a2t
    p_t2a = row_softmax_inplace(np.ascontiguousarray(s.T), tau_pred)
    return row_softmax_inplace(s, tau_pred), p_t2a


def _intra_modal(features: np.ndarray, tau: float) -> np.ndarray:
    return row_softmax_inplace(features @ features.T, tau)


def _targets(batch: EmbeddingBatch, cfg: SmoothingConfig) -> np.ndarray:
    # in place, the arithmetic of smooth_targets(mix_targets(...))
    y = _intra_modal(batch.local_audio, cfg.tau_a2a)
    y *= 1.0 - cfg.gamma
    q_t2t = _intra_modal(batch.text, cfg.tau_t2t)
    q_t2t *= cfg.gamma
    y += q_t2t
    y *= cfg.beta
    _add_to_diagonal(y, 1.0 - cfg.beta)
    return y


def _infonce(p_a2t: np.ndarray, p_t2a: np.ndarray) -> float:
    tiny = np.finfo(np.float64).tiny
    nll_a = -np.log(np.maximum(np.diag(p_a2t), tiny))
    nll_t = -np.log(np.maximum(np.diag(p_t2a), tiny))
    return 0.5 * (float(np.mean(nll_a)) + float(np.mean(nll_t)))


class _KLTerms:
    """KL sums of one target matrix against predictions, one direction at a time.

    For a prediction p, ``u = log max(p, KL_FLOOR) - log max(y, KL_FLOOR)``
    is taken once. It gives the forward term KL(y || p) = -sum(y * u), the
    reverse term KL(p || y) = sum(p * u), and the reverse term's logit gradient
    ``p * (u - rowsum(p * u))``. An entry with y == 0 or p == 0 contributes
    exactly 0, because u is finite. Two scratch matrices are reused across
    directions.
    """

    def __init__(self, y: np.ndarray, cfg: SmoothingConfig) -> None:
        self.symmetric = cfg.kl_mode is KLMode.SYMMETRIC
        if self.symmetric and float(np.min(y)) < KL_FLOOR:
            raise ZeroMassTarget(
                "symmetric KL against targets with entries below the floor "
                f"({KL_FLOOR}); increase beta or use forward mode"
            )
        self.y = y
        self.log_y = np.log(np.maximum(y, KL_FLOOR))
        self.u = np.empty(y.shape)
        self.prod = np.empty(y.shape)
        self.forward: list[float] = []
        self.reverse: list[float] = []

    def add(self, p: np.ndarray) -> None:
        """Add the terms of one prediction. Leaves in self.u its reverse-term
        gradient when symmetric, else u itself."""
        u, prod = self.u, self.prod
        np.maximum(p, KL_FLOOR, out=u)
        np.log(u, out=u)
        u -= self.log_y
        np.multiply(self.y, u, out=prod)
        self.forward.append(-float(np.sum(prod)))
        if self.symmetric:
            np.multiply(p, u, out=prod)
            rows = np.sum(prod, axis=1, keepdims=True)
            self.reverse.append(float(np.sum(rows)))
            u -= rows
            u *= p

    def value(self) -> float:
        total = self.forward[0] + self.forward[1]
        if self.symmetric:
            total += self.reverse[0] + self.reverse[1]
        return total / (2.0 * self.y.shape[0])

    def logit_grad(self, p: np.ndarray, lam: float) -> np.ndarray:
        """Overwrite p, the prediction last added, with the logit gradient of
        lam * InfoNCE + (1 - lam) * KL terms for that direction."""
        if lam == 0.0:
            p -= self.y
            if self.symmetric:
                p += self.u
            return p
        np.multiply(self.y, 1.0 - lam, out=self.prod)
        p -= self.prod
        _add_to_diagonal(p, -lam)
        if self.symmetric:
            self.u *= 1.0 - lam
            p += self.u
        return p


def loss_and_grad(batch: EmbeddingBatch, cfg: SmoothingConfig) -> LossOutput:
    """Forward loss and exact analytic gradients for one batch.

    With ``lam = cfg.clap_mix_lambda`` the loss is ``lam * clap_infonce +
    (1 - lam) * soft_loss``: plain CLAP at 1, where no targets are built, and
    the soft objective alone at 0. InfoNCE is KL(I || p), so the mix needs
    one pass: its logit gradient is ``p - (lam*I + (1-lam)*y)`` plus
    ``(1-lam)`` times the reverse-KL term.

    Gradients are with respect to the pre-normalization audio/text matrices
    (evaluated at the stored unit-norm rows) and with respect to
    ``log(tau_pred)``. Target distributions are constants. The returned value
    is computed by the same term code as the public forward functions, so it
    matches a manual composition bit for bit.
    """
    lam = cfg.clap_mix_lambda
    e_a = unit_rows(batch.audio)
    e_t = unit_rows(batch.text)
    b = batch.size
    p_a2t, p_t2a = _predictions(e_a @ e_t.T, cfg.tau_pred)

    hard = _infonce(p_a2t, p_t2a) if lam > 0.0 else 0.0
    if lam == 1.0:
        value = hard
        _add_to_diagonal(p_a2t, -1.0)
        _add_to_diagonal(p_t2a, -1.0)
        g_a2t, g_t2a = p_a2t, p_t2a
    else:
        kl = _KLTerms(_targets(batch, cfg), cfg)
        kl.add(p_a2t)
        g_a2t = kl.logit_grad(p_a2t, lam)
        kl.add(p_t2a)
        g_t2a = kl.logit_grad(p_t2a, lam)
        soft = kl.value()
        value = soft if lam == 0.0 else lam * hard + (1.0 - lam) * soft

    if not np.isfinite(value):
        raise NonFiniteLoss(f"forward loss is {value}")

    # d loss / d gram = (g_a2t + g_t2a.T) / (2 b tau); the t2a half enters
    # the matrix products transposed, so no B x B sum or transpose is formed
    c = 1.0 / (2.0 * b * cfg.tau_pred)
    grad_ea = c * (g_a2t @ e_t + g_t2a.T @ e_t)
    grad_et = c * (g_a2t.T @ e_a + g_t2a @ e_a)
    # chain rule through row normalization: project out the radial component
    radial_a = np.sum(grad_ea * e_a, axis=1, keepdims=True)
    grad_audio = grad_ea - radial_a * e_a
    grad_text = grad_et - np.sum(grad_et * e_t, axis=1, keepdims=True) * e_t
    # the logits are gram / tau, so d/dlog(tau) = -sum(dL/dgram * gram), and
    # sum_ij (dL/dgram)_ij e_a[i].e_t[j] is the sum of the radial components
    grad_log_tau = -float(np.sum(radial_a))

    return LossOutput(
        value=value,
        grad_audio=grad_audio,
        grad_text=grad_text,
        grad_log_tau_pred=grad_log_tau,
    )


def with_tau_pred(cfg: SmoothingConfig, tau_pred: float) -> SmoothingConfig:
    """Copy of ``cfg`` with a different prediction temperature."""
    return replace(cfg, tau_pred=tau_pred)
