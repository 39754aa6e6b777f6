"""Contrastive objectives: hard symmetric InfoNCE and the soft-target KL loss.

The soft objective replaces one-hot contrastive targets with row-stochastic
distributions built from intra-modal similarities: audio-to-audio on pooled
local features and text-to-text on the projected text embeddings. The two
are mixed by ``gamma``, fused with the identity by ``beta``, and the result
supervises the cross-modal prediction distributions through a (symmetric)
KL divergence. ``clap_mix_lambda`` mixes in conventional contrastive
supervision: the loss is ``lam * InfoNCE + (1 - lam) * soft``. Every one of
these weights is a field of :class:`SmoothingConfig`, which checks them
once, and every public function that uses a weight takes the config.
Targets are constants during backpropagation: no gradient flows through the
target branch.

Gradients returned by :func:`loss_and_grad` are taken with respect to the
rows an :class:`EmbeddingBatch` was built from (the chain rule runs through
the row L2-normalization) and with respect to ``log(tau_pred)``.

Every B x B quantity (the targets, both prediction distributions, their KL
terms and logit gradients) is formed one block of ``_BLOCK_ROWS`` rows at a
time, and its sums are added up in block order, so no B x B array exists.
Rows come from a validated :class:`EmbeddingBatch` and are trusted.
:func:`build_targets` and :func:`loss_with_fixed_targets` run the kernel's
own block code, so the fixed-target forward at the targets of
:func:`build_targets` gives the loss of :func:`loss_and_grad` bit for bit.
:func:`soft_loss`, summed in the kernel's block order, and
:func:`clap_infonce` score given whole-matrix distributions and scores.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    BetaOutOfRange,
    ConfigError,
    GammaOutOfRange,
    NonFiniteLoss,
    NotSquare,
    ShapeMismatch,
    ZeroMassTarget,
)
from .numeric import (
    KL_FLOOR,
    as_matrix,
    check_temperature,
    l2_normalize_rows,
    row_norms,
    row_softmax_inplace,
)


class KLMode(str, Enum):
    SYMMETRIC = "symmetric"
    FORWARD = "forward"


@dataclass(frozen=True)
class SmoothingConfig:
    """All hyperparameters of the soft-target objective.

    The target is ``(1 - beta) I + beta ((1 - gamma) q_a2a + gamma q_t2t)``:
    gamma weights text-side against audio-side intra-modal similarity, beta
    blends the soft distribution with the identity (hard) target, and
    ``tau_a2a``, ``tau_t2t`` and ``tau_pred`` scale the softmaxes of the
    audio-audio, text-text and audio-text similarities.
    ``clap_mix_lambda`` weights InfoNCE against the soft loss: 0 is the soft
    loss alone, 1 plain CLAP, where no targets are built, so that symmetric
    KL needs ``beta > 0`` only below 1. Only ``tau_pred`` is learnable
    downstream; the intra-modal temperatures are fixed hyperparameters.
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
            check_temperature(getattr(self, name), name)
        # at clap_mix_lambda = 1 no target and no KL term is built
        if (
            self.kl_mode is KLMode.SYMMETRIC
            and not self.beta > 0.0
            and self.clap_mix_lambda < 1.0
        ):
            raise ZeroMassTarget(
                "symmetric KL requires beta > 0: hard targets put zero mass "
                "off the diagonal and the reverse KL term is undefined"
            )


@dataclass
class EmbeddingBatch:
    """Paired audio/text embeddings plus pooled local audio features.

    Rows are L2-normalized on construction. ``audio`` and ``text`` must share
    the same (B, d) shape; ``local_audio`` may have a different width.
    ``audio_norms`` and ``text_norms`` keep the norms of the rows the batch
    was built from, which :func:`loss_and_grad` divides its gradients by.
    """

    audio: np.ndarray
    text: np.ndarray
    local_audio: np.ndarray
    audio_norms: np.ndarray = field(init=False, repr=False)
    text_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        audio = as_matrix(self.audio, "audio")
        text = as_matrix(self.text, "text")
        self.audio_norms = row_norms(audio, "audio")
        self.text_norms = row_norms(text, "text")
        local = l2_normalize_rows(self.local_audio, "local_audio")
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
        self.audio = audio / self.audio_norms[:, None]
        self.text = text / self.text_norms[:, None]
        self.local_audio = local

    @property
    def size(self) -> int:
        return self.audio.shape[0]


@dataclass
class LossOutput:
    """Scalar loss plus gradients for the batch's input rows and log(tau_pred)."""

    value: float
    grad_audio: np.ndarray
    grad_text: np.ndarray
    grad_log_tau_pred: float


def build_targets(batch: EmbeddingBatch, cfg: SmoothingConfig) -> np.ndarray:
    """Softened target distribution for one batch (constant under backprop).

    ``(1 - beta) I + beta ((1 - gamma) q_a2a + gamma q_t2t)``, where q_a2a
    and q_t2t are the row softmaxes of the similarities of the batch's unit
    local-audio rows at ``cfg.tau_a2a`` and of its unit text rows at
    ``cfg.tau_t2t``. Built row block by row block, each block as
    :func:`loss_and_grad` builds it.
    """
    b = batch.size
    y = np.empty((b, b))
    for rows in _row_blocks(b):
        y[rows] = _target_rows(batch.local_audio, batch.text, rows, cfg)
    return y


def soft_loss(y, p_a2t, p_t2a, cfg: SmoothingConfig) -> float:
    """KL divergence between softened targets and predicted distributions.

    Symmetric mode sums forward and reverse KL in both retrieval directions;
    forward mode keeps only KL(y || p). Either way the total is divided by
    2 * batch size. ``KL_FLOOR`` bounds both logs from below. The sums run
    over the kernel's row blocks in its order.
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
    kl = _KLTerms(cfg)
    for rows in _row_blocks(y.shape[0]):
        kl.set_targets(y[rows])
        kl.add(_A2T, p_a2t[rows])
        kl.add(_T2A, p_t2a[rows])
    return kl.value(y.shape[0])


def clap_infonce(scores, cfg: SmoothingConfig) -> float:
    """Symmetric InfoNCE at ``cfg.tau_pred`` of raw (unscaled) scores: mean
    negative log-likelihood of the diagonal pairs, over the row softmaxes of
    the scores and of their transpose."""
    s = as_matrix(scores, "scores")
    if s.shape[0] != s.shape[1]:
        raise NotSquare(f"scores must be square, got {s.shape}")
    if s.shape[0] < 2:
        raise ShapeMismatch("InfoNCE needs a batch of at least 2")
    p_a2t = row_softmax_inplace(s.copy(), cfg.tau_pred)
    p_t2a = row_softmax_inplace(np.ascontiguousarray(s.T), cfg.tau_pred)
    return _infonce(np.diag(p_a2t), np.diag(p_t2a))


def loss_with_fixed_targets(batch: EmbeddingBatch, targets, cfg: SmoothingConfig) -> float:
    """Forward loss of the batch's rows with the target distribution held constant.

    This is the stop-gradient view of the objective: a batch built from
    perturbed audio or text rows changes the predictions, but ``targets``
    stays fixed and ``batch.local_audio`` is unused. Finite-difference checks
    of :func:`loss_and_grad` must hold the targets fixed like this, since the
    analytic gradients deliberately do not differentiate through the target
    branch.

    The mix is the kernel's, from the kernel's own row-block pass: InfoNCE
    alone at ``cfg.clap_mix_lambda = 1`` (then ``targets`` is unused), the
    soft loss alone at 0, and ``lam * InfoNCE + (1 - lam) * soft_loss`` in
    between.
    """
    b = batch.size
    if cfg.clap_mix_lambda < 1.0:
        targets = as_matrix(targets, "targets")
        if targets.shape != (b, b):
            raise ShapeMismatch(f"targets {targets.shape} must be {(b, b)}")
    value, _ = _blocked_pass(
        batch.audio, batch.text, lambda rows: targets[rows], cfg, with_grads=False
    )
    return value


# --- private term code: trusted float64 arrays, no validation -------------------

# Every B x B quantity is made and used one block of rows at a time, so a
# step holds a few (_BLOCK_ROWS, B) arrays instead of B x B ones.
_BLOCK_ROWS = 64
_A2T, _T2A = 0, 1  # the two retrieval directions, as indices of the KL sums


def _row_blocks(b: int) -> list[slice]:
    """The row blocks of a batch of b rows, in the one order every sum follows."""
    return [slice(lo, min(lo + _BLOCK_ROWS, b)) for lo in range(0, b, _BLOCK_ROWS)]


def _diagonal(block: np.ndarray, start: int) -> np.ndarray:
    """View of the batch diagonal of a C-contiguous block of rows that starts
    at batch row ``start``: its entries (i, start + i)."""
    return block.reshape(-1)[start :: block.shape[1] + 1]


def _softmax_rows(src: np.ndarray, dst: np.ndarray, tau: float) -> np.ndarray:
    """Row softmax of the similarities of the rows of src to every row of dst."""
    return row_softmax_inplace(src @ dst.T, tau)


def _target_rows(
    local: np.ndarray, text: np.ndarray, rows: slice, cfg: SmoothingConfig
) -> np.ndarray:
    # in place: (1 - beta) I + beta ((1 - gamma) q_a2a + gamma q_t2t) on the rows
    y = _softmax_rows(local[rows], local, cfg.tau_a2a)
    y *= 1.0 - cfg.gamma
    q_t2t = _softmax_rows(text[rows], text, cfg.tau_t2t)
    q_t2t *= cfg.gamma
    y += q_t2t
    y *= cfg.beta
    diagonal = _diagonal(y, rows.start)
    diagonal += 1.0 - cfg.beta
    return y


def _infonce(diag_a2t: np.ndarray, diag_t2a: np.ndarray) -> float:
    tiny = np.finfo(np.float64).tiny
    nll_a = -np.log(np.maximum(diag_a2t, tiny))
    nll_t = -np.log(np.maximum(diag_t2a, tiny))
    return 0.5 * (float(np.mean(nll_a)) + float(np.mean(nll_t)))


class _KLTerms:
    """KL sums of target rows against prediction rows, per direction.

    For the prediction rows p of one block and its target rows y, ``u = log
    max(p, KL_FLOOR) - log max(y, KL_FLOOR)`` is taken once. It gives the
    forward term KL(y || p) = -sum(y * u), the reverse term KL(p || y) =
    sum(p * u), and the reverse term's logit gradient ``p * (u - rowsum(p *
    u))``. An entry with y == 0 or p == 0 contributes exactly 0, because u is
    finite. ``forward`` and ``reverse`` hold the sums of each direction
    (``_A2T``, ``_T2A``), added up block by block in block order. The two
    directions of a block share its target rows and two scratch arrays.
    """

    def __init__(self, cfg: SmoothingConfig) -> None:
        self.symmetric = cfg.kl_mode is KLMode.SYMMETRIC
        self.forward = [0.0, 0.0]
        self.reverse = [0.0, 0.0]

    def set_targets(self, y: np.ndarray) -> None:
        """Start a block: the target rows that its two directions share."""
        if self.symmetric and float(np.min(y)) < KL_FLOOR:
            raise ZeroMassTarget(
                "symmetric KL against targets with entries below the floor "
                f"({KL_FLOOR}); increase beta or use forward mode"
            )
        self.y = y
        self.log_y = np.log(np.maximum(y, KL_FLOOR))
        self.u = np.empty(y.shape)
        self.prod = np.empty(y.shape)

    def add(self, direction: int, p: np.ndarray) -> None:
        """Add the terms of the block's prediction rows in one direction.
        Leaves in self.u its reverse-term gradient when symmetric, else u."""
        u, prod = self.u, self.prod
        np.maximum(p, KL_FLOOR, out=u)
        np.log(u, out=u)
        u -= self.log_y
        np.multiply(self.y, u, out=prod)
        self.forward[direction] -= float(np.sum(prod))
        if self.symmetric:
            np.multiply(p, u, out=prod)
            rows = np.sum(prod, axis=1, keepdims=True)
            self.reverse[direction] += float(np.sum(rows))
            u -= rows
            u *= p

    def value(self, b: int) -> float:
        total = self.forward[_A2T] + self.forward[_T2A]
        if self.symmetric:
            total += self.reverse[_A2T] + self.reverse[_T2A]
        return total / (2.0 * b)

    def logit_grad(self, p: np.ndarray, start: int, lam: float) -> np.ndarray:
        """Overwrite p, the prediction rows last added, starting at batch row
        ``start``, with the logit gradient of lam * InfoNCE + (1 - lam) * KL
        terms for that direction."""
        if lam == 0.0:
            p -= self.y
            if self.symmetric:
                p += self.u
            return p
        np.multiply(self.y, 1.0 - lam, out=self.prod)
        p -= self.prod
        diagonal = _diagonal(p, start)
        diagonal -= lam
        if self.symmetric:
            self.u *= 1.0 - lam
            p += self.u
        return p


def _blocked_pass(e_a, e_t, target_rows, cfg: SmoothingConfig, with_grads: bool):
    """The loss of unit rows e_a and e_t, one block of rows at a time.

    ``target_rows(rows)`` gives the target rows of a block; it is not called
    at ``cfg.clap_mix_lambda = 1``. Returns the loss and a pair of (B, d)
    arrays: when ``with_grads``, ``2 B tau_pred`` times the gradients with
    respect to e_a and e_t taken as free rows (the row normalization not yet
    undone), else zeros. Blocks are summed in block order, so the value does
    not depend on whether the gradients are taken.
    """
    lam = cfg.clap_mix_lambda
    b = e_a.shape[0]
    kl = _KLTerms(cfg) if lam < 1.0 else None
    diags = (np.empty(b), np.empty(b))
    grads = (np.zeros(e_a.shape), np.zeros(e_t.shape))
    # per direction: query rows, key rows and their gradients
    directions = ((_A2T, e_a, e_t, grads[0], grads[1]), (_T2A, e_t, e_a, grads[1], grads[0]))
    for rows in _row_blocks(b):
        if kl is not None:
            kl.set_targets(target_rows(rows))
        for direction, src, dst, grad_src, grad_dst in directions:
            p = _softmax_rows(src[rows], dst, cfg.tau_pred)
            diags[direction][rows] = _diagonal(p, rows.start)
            if kl is not None:
                kl.add(direction, p)
            if not with_grads:
                continue
            if kl is not None:
                g = kl.logit_grad(p, rows.start, lam)
            else:
                g = p
                diagonal = _diagonal(g, rows.start)
                diagonal -= 1.0
            # g is 2 B dL/dlogits of these rows, and the logits are src[rows] . dst / tau
            grad_src[rows] += g @ dst
            grad_dst += g.T @ src[rows]
    if lam == 1.0:
        value = _infonce(*diags)
    else:
        soft = kl.value(b)
        value = soft if lam == 0.0 else lam * _infonce(*diags) + (1.0 - lam) * soft
    return value, grads


def loss_and_grad(batch: EmbeddingBatch, cfg: SmoothingConfig) -> LossOutput:
    """Forward loss and exact analytic gradients for one batch.

    With ``lam = cfg.clap_mix_lambda`` the loss is ``lam * clap_infonce +
    (1 - lam) * soft_loss``: plain CLAP at 1, where no targets are built, and
    the soft objective alone at 0. InfoNCE is KL(I || p), so the mix needs
    one pass: its logit gradient is ``p - (lam*I + (1-lam)*y)`` plus
    ``(1-lam)`` times the reverse-KL term.

    The pass runs over blocks of ``_BLOCK_ROWS`` rows. Each block builds its
    target rows and its rows of both prediction directions, adds their KL
    and InfoNCE terms, and adds its logit gradients into the embedding
    gradients, so no B x B array is formed and the memory of a call grows
    with B times the block size. The batch rows are used as
    :class:`EmbeddingBatch` made them: unit rows.

    Gradients are with respect to the audio/text rows the batch was built
    from (the last step divides by their norms, so scaling a row by s divides
    its gradient by s) and with respect to ``log(tau_pred)``. Target
    distributions are constants. The value is the one
    :func:`loss_with_fixed_targets` gives at the targets of
    :func:`build_targets`, bit for bit.
    """
    e_a, e_t = batch.audio, batch.text
    value, (grad_ea, grad_et) = _blocked_pass(
        e_a,
        e_t,
        lambda rows: _target_rows(batch.local_audio, e_t, rows, cfg),
        cfg,
        with_grads=True,
    )
    if not np.isfinite(value):
        raise NonFiniteLoss(f"forward loss is {value}")

    # d loss / d gram = (g_a2t + g_t2a.T) / (2 b tau)
    c = 1.0 / (2.0 * batch.size * cfg.tau_pred)
    grad_ea *= c
    grad_et *= c
    # chain rule through row normalization z / ||z||: project out the radial
    # component, then divide by the norm of the input row
    radial_a = np.sum(grad_ea * e_a, axis=1, keepdims=True)
    grad_audio = (grad_ea - radial_a * e_a) / batch.audio_norms[:, None]
    radial_t = np.sum(grad_et * e_t, axis=1, keepdims=True)
    grad_text = (grad_et - radial_t * e_t) / batch.text_norms[:, None]
    # the logits are gram / tau, so d/dlog(tau) = -sum(dL/dgram * gram), and
    # sum_ij (dL/dgram)_ij e_a[i].e_t[j] is the sum of the radial components
    grad_log_tau = -float(np.sum(radial_a))

    return LossOutput(
        value=value,
        grad_audio=grad_audio,
        grad_text=grad_text,
        grad_log_tau_pred=grad_log_tau,
    )
