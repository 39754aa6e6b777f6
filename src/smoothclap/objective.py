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
terms and logit gradients) is formed one block of ``_BLOCK_ROWS`` (32) rows
at a time, and its sums are added up in block order, so no B x B array
exists. The two retrieval directions of a block share one (2, rows, B)
array, a2t (audio queries, text keys) first, so each elementwise step and
reduction runs once for both; the two intra-modal softmaxes of the targets
are stacked the same way. The products stay one 2-D matmul per direction,
and the per-element arithmetic is that of a lone direction.
Rows come from an :class:`EmbeddingBatch` and are trusted.
:func:`build_targets` and :func:`loss_with_fixed_targets` run the kernel's
own block code, so the fixed-target forward at the targets of
:func:`build_targets` gives the loss of :func:`loss_and_grad` bit for bit.
:func:`soft_loss`, summed through the kernel's KL code in its block order,
and :func:`clap_infonce` score given whole-matrix distributions and scores.
"""
from __future__ import annotations

import math
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
        audio_norms = row_norms(audio, "audio")
        text_norms = row_norms(text, "text")
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
        self._set_unit_rows(
            audio / audio_norms[:, None], text / text_norms[:, None], local, audio_norms, text_norms
        )

    @classmethod
    def _of_unit_rows(cls, audio, text, local_audio, audio_norms, text_norms) -> "EmbeddingBatch":
        """A batch of unit rows, trusted as they are: ``audio`` and ``text``
        are the rows the public constructor would make of rows with norms
        ``audio_norms`` and ``text_norms``, and ``local_audio`` is unit too.
        Nothing is checked or copied."""
        batch = cls.__new__(cls)
        batch._set_unit_rows(audio, text, local_audio, audio_norms, text_norms)
        return batch

    def _set_unit_rows(self, audio, text, local_audio, audio_norms, text_norms) -> None:
        self.audio, self.text, self.local_audio = audio, text, local_audio
        self.audio_norms, self.text_norms = audio_norms, text_norms

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
    scratch = np.empty(2 * min(b, _BLOCK_ROWS) * b)
    for rows in _row_blocks(b):
        y[rows] = _target_rows(batch.local_audio, batch.text, rows, cfg, _block(scratch, rows, b))
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
    b = y.shape[0]
    sums = _kl_sums(cfg)
    for rows in _row_blocks(b):
        p = np.stack((p_a2t[rows], p_t2a[rows]))
        u, prod = np.empty(p.shape), np.empty(p.shape)
        log_y = _log_targets(y[rows], np.empty(p.shape[1:]), cfg.kl_mode is KLMode.SYMMETRIC)
        _add_kl_terms(sums, y[rows], log_y, p, u, prod)
    return _soft_value(sums, b)


def clap_infonce(scores, cfg: SmoothingConfig) -> float:
    """Symmetric InfoNCE at ``cfg.tau_pred`` of raw (unscaled) scores: mean
    negative log-likelihood of the diagonal pairs, over the row softmaxes of
    the scores and of their transpose."""
    s = as_matrix(scores, "scores")
    if s.shape[0] != s.shape[1]:
        raise NotSquare(f"scores must be square, got {s.shape}")
    if s.shape[0] < 2:
        raise ShapeMismatch("InfoNCE needs a batch of at least 2")
    p = row_softmax_inplace(np.stack((s, s.T)), cfg.tau_pred)
    return _infonce(_diagonal(p, 0))


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
    value, _ = _blocked_pass(batch, cfg, targets)
    return value


# --- private term code: trusted float64 arrays, no validation -------------------

# Every B x B quantity is made and used one block of rows at a time, and the
# two retrieval directions of a block share one (2, _BLOCK_ROWS, B) array, so
# a step holds a few such arrays instead of B x B ones.
_BLOCK_ROWS = 32
_TINY = np.finfo(np.float64).tiny  # floors the InfoNCE logs


def _row_blocks(b: int) -> list[slice]:
    """The row blocks of a batch of b rows, in the one order every sum follows."""
    return [slice(lo, min(lo + _BLOCK_ROWS, b)) for lo in range(0, b, _BLOCK_ROWS)]


def _block(buf: np.ndarray, rows: slice, b: int) -> np.ndarray:
    """A C-contiguous (2, rows, b) view of the front of a flat scratch array."""
    shape = (2, rows.stop - rows.start, b)
    return buf[: shape[0] * shape[1] * b].reshape(shape)


def _diagonal(block: np.ndarray, start: int) -> np.ndarray:
    """View of the batch diagonal of a C-contiguous (..., r, B) block of rows
    that starts at batch row ``start``: its entries (..., i, start + i)."""
    b = block.shape[-1]
    return block.reshape(block.shape[:-2] + (-1,))[..., start :: b + 1]


def _similarities(out: np.ndarray, rows: slice, first, second) -> np.ndarray:
    """The similarities of the block's query rows of the k-th (queries, keys)
    pair to every key row, written into ``out[k]``. Each product is its own
    2-D matmul, as a lone direction would form it."""
    for k, (queries, keys) in enumerate((first, second)):
        np.matmul(queries[rows], keys.T, out=out[k])
    return out


def _target_rows(
    local: np.ndarray, text: np.ndarray, rows: slice, cfg: SmoothingConfig, out: np.ndarray
) -> np.ndarray:
    """The target rows of a block, in ``out[0]``; ``out[1]`` is left as scratch.

    In place: (1 - beta) I + beta ((1 - gamma) q_a2a + gamma q_t2t) on the
    rows, with q_a2a and q_t2t softmaxed as one stacked array."""
    q = _similarities(out, rows, (local, local), (text, text))
    row_softmax_inplace(q, np.array([cfg.tau_a2a, cfg.tau_t2t]).reshape(2, 1, 1))
    q *= np.array([1.0 - cfg.gamma, cfg.gamma]).reshape(2, 1, 1)
    y = q[0]
    y += q[1]
    y *= cfg.beta
    diagonal = _diagonal(y, rows.start)
    diagonal += 1.0 - cfg.beta
    return y


def _log_targets(y: np.ndarray, out: np.ndarray, symmetric: bool) -> np.ndarray:
    """``log max(y, KL_FLOOR)`` of a block's target rows, into ``out``."""
    if symmetric and np.minimum.reduce(y, axis=None) < KL_FLOOR:
        raise ZeroMassTarget(
            "symmetric KL against targets with entries below the floor "
            f"({KL_FLOOR}); increase beta or use forward mode"
        )
    np.maximum(y, KL_FLOOR, out=out)
    return np.log(out, out=out)


def _infonce(diags: np.ndarray) -> float:
    """Symmetric InfoNCE of the (2, B) diagonals of both prediction directions."""
    nll = -np.log(np.maximum(diags, _TINY))
    mean_a2t, mean_t2a = (np.add.reduce(nll, axis=1) / diags.shape[1]).tolist()
    return 0.5 * (mean_a2t + mean_t2a)


def _add_kl_terms(sums: np.ndarray, y, log_y, p, u, prod) -> None:
    """Add the KL terms of one block of prediction rows p, both directions
    stacked as (2, r, B), against its target rows y to ``sums``.

    ``u = log max(p, KL_FLOOR) - log max(y, KL_FLOOR)`` is taken once. It
    gives the forward term KL(y || p) = -sum(y * u), the reverse term
    KL(p || y) = sum(p * u), and the reverse term's logit gradient
    ``p * (u - rowsum(p * u))``. An entry with y == 0 or p == 0 contributes
    exactly 0, because u is finite. ``sums[0]`` holds the forward sums of the
    two directions and ``sums[1]``, if ``sums`` has that row (symmetric
    mode), the reverse sums, added up block by block in block order. Leaves
    in u the reverse term's logit gradient in symmetric mode, else u itself;
    prod is scratch.
    """
    np.maximum(p, KL_FLOOR, out=u)
    np.log(u, out=u)
    u -= log_y
    np.multiply(y, u, out=prod)
    sums[0] -= np.add.reduce(prod.reshape(2, -1), axis=1)
    if len(sums) == 2:
        np.multiply(p, u, out=prod)
        rows = np.add.reduce(prod, axis=2, keepdims=True)
        sums[1] += np.add.reduce(rows.reshape(2, -1), axis=1)
        u -= rows
        u *= p


def _kl_sums(cfg: SmoothingConfig) -> np.ndarray:
    """Zeroed KL sums: forward, and in symmetric mode reverse, per direction."""
    return np.zeros((2 if cfg.kl_mode is KLMode.SYMMETRIC else 1, 2))


def _soft_value(sums: np.ndarray, b: int) -> float:
    """The soft loss of finished KL sums over a batch of b rows."""
    forward, *reverse = sums.tolist()
    total = forward[0] + forward[1]
    if reverse:
        total += reverse[0][0] + reverse[0][1]
    return total / (2.0 * b)


def _blocked_pass(batch: EmbeddingBatch, cfg: SmoothingConfig, targets):
    """The loss of the batch's unit rows e_a and e_t, one block of rows at a time.

    The target rows of a block are built from the batch when ``targets`` is
    None, else taken from it; neither is needed at ``cfg.clap_mix_lambda =
    1``. Each block holds its a2t rows (queries e_a, keys e_t) and t2a rows
    (queries e_t, keys e_a) in one (2, r, B) array. Returns the loss and the
    pair of (B, d) arrays ``2 B tau_pred`` times the gradients with respect
    to e_a and e_t taken as free rows (the row normalization not yet
    undone). Blocks add their sums in block order, and a block's loss terms
    are summed before its gradient is formed.
    """
    e_a, e_t = batch.audio, batch.text
    lam = cfg.clap_mix_lambda
    b = e_a.shape[0]
    size = 2 * min(b, _BLOCK_ROWS) * b
    p_buf = np.empty(size)
    symmetric = lam < 1.0 and cfg.kl_mode is KLMode.SYMMETRIC
    if lam < 1.0:
        sums = _kl_sums(cfg)
        y_buf, u_buf, prod_buf = np.empty(size), np.empty(size), np.empty(size)
    diags = np.empty((2, b))
    grad_a, grad_t = np.zeros(e_a.shape), np.zeros(e_t.shape)
    for rows in _row_blocks(b):
        p = _similarities(_block(p_buf, rows, b), rows, (e_a, e_t), (e_t, e_a))
        row_softmax_inplace(p, cfg.tau_pred)
        diagonal = _diagonal(p, rows.start)
        diags[:, rows] = diagonal
        if lam < 1.0:
            scratch = _block(y_buf, rows, b)
            if targets is None:
                y = _target_rows(batch.local_audio, e_t, rows, cfg, scratch)
            else:
                y = targets[rows]
            log_y = _log_targets(y, scratch[1], symmetric)
            u = _block(u_buf, rows, b)
            _add_kl_terms(sums, y, log_y, p, u, _block(prod_buf, rows, b))
        # p becomes 2 B dL/dlogits of the block, per direction: p - (lam I +
        # (1 - lam) y) plus (1 - lam) times the reverse term's gradient
        if lam == 1.0:
            diagonal -= 1.0
        elif lam == 0.0:
            p -= y
            if symmetric:
                p += u
        else:
            y_part = np.multiply(y, 1.0 - lam, out=scratch[1])
            p -= y_part
            diagonal -= lam
            if symmetric:
                u *= 1.0 - lam
                p += u
        # the logits are queries[rows] . keys / tau
        g_a2t, g_t2a = p
        grad_a[rows] += g_a2t @ e_t
        grad_t += g_a2t.T @ e_a[rows]
        grad_t[rows] += g_t2a @ e_a
        grad_a += g_t2a.T @ e_t[rows]
    if lam == 1.0:
        value = _infonce(diags)
    else:
        soft = _soft_value(sums, b)
        value = soft if lam == 0.0 else lam * _infonce(diags) + (1.0 - lam) * soft
    return value, (grad_a, grad_t)


def loss_and_grad(batch: EmbeddingBatch, cfg: SmoothingConfig) -> LossOutput:
    """Forward loss and exact analytic gradients for one batch.

    With ``lam = cfg.clap_mix_lambda`` the loss is ``lam * clap_infonce +
    (1 - lam) * soft_loss``: plain CLAP at 1, where no targets are built, and
    the soft objective alone at 0. InfoNCE is KL(I || p), so the mix needs
    one pass: its logit gradient is ``p - (lam*I + (1-lam)*y)`` plus
    ``(1-lam)`` times the reverse-KL term.

    The pass runs over blocks of ``_BLOCK_ROWS`` rows. Each block builds its
    target rows and its rows of both prediction directions as one stacked
    array, adds their KL and InfoNCE terms, and adds its logit gradients
    into the embedding gradients, so no B x B array is formed and the memory
    of a call grows with B times the block size. The batch rows are used as
    :class:`EmbeddingBatch` made them: unit rows.

    Gradients are with respect to the audio/text rows the batch was built
    from (the last step divides by their norms, so scaling a row by s divides
    its gradient by s) and with respect to ``log(tau_pred)``. Target
    distributions are constants. The value is the one
    :func:`loss_with_fixed_targets` gives at the targets of
    :func:`build_targets`, bit for bit.
    """
    e_a, e_t = batch.audio, batch.text
    value, (grad_ea, grad_et) = _blocked_pass(batch, cfg, None)
    if not math.isfinite(value):
        raise NonFiniteLoss(f"forward loss is {value}")

    # d loss / d gram = (g_a2t + g_t2a.T) / (2 b tau)
    c = 1.0 / (2.0 * batch.size * cfg.tau_pred)
    # chain rule through row normalization z / ||z||: project out the radial
    # component, then divide by the norm of the input row
    radial = []
    for grad, e, norms in ((grad_ea, e_a, batch.audio_norms), (grad_et, e_t, batch.text_norms)):
        grad *= c
        along = np.multiply(grad, e)
        radial.append(np.add.reduce(along, axis=1, keepdims=True))
        grad -= np.multiply(radial[-1], e, out=along)
        grad /= norms[:, None]
    # the logits are gram / tau, so d/dlog(tau) = -sum(dL/dgram * gram), and
    # sum_ij (dL/dgram)_ij e_a[i].e_t[j] is the sum of the radial components
    grad_log_tau = -float(np.add.reduce(radial[0], axis=None))

    return LossOutput(
        value=value,
        grad_audio=grad_ea,
        grad_text=grad_et,
        grad_log_tau_pred=grad_log_tau,
    )
