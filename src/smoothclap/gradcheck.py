"""Central finite-difference verification of the analytic gradients.

The numeric side perturbs the rows a batch is built from, not its unit rows,
and re-evaluates the forward loss of the perturbed rows with the target
distribution held fixed, matching the stop-gradient contract of the analytic
path, whose chain rule runs through the row normalization. Each entry moves
by ``STEP`` times the norm of its row, so rows far from unit norm are checked
as closely as unit rows, and log(tau_pred) moves by ``STEP``.

Every perturbed point of one case (2 B d for the audio rows, 2 B d for the
text rows and two for log(tau_pred)) is one slice of a ``(K, B, d)`` audio
stack and a ``(K, B, d)`` text stack, with a ``(K,)`` vector of tau_pred, and
one batched forward evaluates the whole stack. That forward is written here
from the definition of the loss: it row-normalizes the stacks, divides a
batched gram by tau_pred, takes a max-shifted softmax in both retrieval
directions, and mixes the InfoNCE diagonals with the ``KL_FLOOR``-clamped KL
sums as the kernel defines them. It shares no code with the kernel in
:mod:`smoothclap.objective`, from which it takes only the batch validation
and row norms of :class:`EmbeddingBatch` and the fixed targets of
:func:`build_targets`. The perturbations are split into chunks, so that no
stack of a chunk, row stack or gram, holds more than ``_CHUNK_DOUBLES``
doubles unless a single batch's B x max(B, d) does (B above 512). The work
of a case still grows as B^3 d.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroMassTarget
from .numeric import KL_FLOOR
from .objective import (
    EmbeddingBatch,
    KLMode,
    SmoothingConfig,
    build_targets,
    loss_and_grad,
)

DEFAULT_SIZES = ((2, 3), (2, 16), (4, 3), (4, 16), (8, 3), (8, 16), (16, 16))
GAMMA_GRID = (0.0, 0.5, 1.0)
BETA_GRID = (0.1, 0.5, 1.0)
TAU_PRED_CYCLE = (0.5, 1.0, 2.0)
STEP = 1e-5  # central-difference step, relative to the row norm for row entries
_CHUNK_DOUBLES = 1 << 18  # the most doubles of a chunk's (k, B, max(B, d)) stacks


def finite_difference_grads(
    audio: np.ndarray, text: np.ndarray, local_audio: np.ndarray, cfg: SmoothingConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """Central differences of ``loss_and_grad``'s loss on ``EmbeddingBatch(audio,
    text, local_audio)`` in the float64 rows ``audio`` and ``text`` and in
    log(tau_pred). An entry of row i moves by ``STEP`` times the norm of row
    i, log(tau_pred) by ``STEP``. The targets are built once, and only when
    ``cfg.clap_mix_lambda < 1``; symmetric KL against targets below
    ``KL_FLOOR`` raises ZeroMassTarget."""
    batch = EmbeddingBatch(audio, text, local_audio)
    audio = np.asarray(audio, dtype=np.float64)
    text = np.asarray(text, dtype=np.float64)
    targets = build_targets(batch, cfg) if cfg.clap_mix_lambda < 1.0 else None
    if (
        targets is not None
        and cfg.kl_mode is KLMode.SYMMETRIC
        and float(np.min(targets)) < KL_FLOOR
    ):
        raise ZeroMassTarget(
            "symmetric KL against targets with entries below the floor "
            f"({KL_FLOOR}); increase beta or use forward mode"
        )
    b, d = audio.shape
    n = b * d
    # the K = 4 n + 2 perturbed points: every audio entry moved up, then every
    # one moved down, the text entries likewise, then log(tau_pred) up and
    # down. Point k adds audio_move[k] to the flat entry entry[k] of the
    # audio rows and text_move[k] to that of the text rows, at tau[k]
    audio_steps = STEP * np.repeat(batch.audio_norms, d)
    text_steps = STEP * np.repeat(batch.text_norms, d)
    audio_move = np.concatenate([audio_steps, -audio_steps, np.zeros(2 * n + 2)])
    text_move = np.concatenate([np.zeros(2 * n), text_steps, -text_steps, [0.0, 0.0]])
    entry = np.concatenate([np.tile(np.arange(n), 4), [0, 0]])
    tau = np.full(entry.size, cfg.tau_pred)
    tau[4 * n :] = np.exp(math.log(cfg.tau_pred) + np.array([STEP, -STEP]))
    losses = np.empty(entry.size)
    chunk = max(1, _CHUNK_DOUBLES // (b * max(b, d)))
    for lo in range(0, entry.size, chunk):
        k = slice(lo, lo + chunk)
        size = entry[k].size
        stacks = []
        for rows, move in ((audio, audio_move), (text, text_move)):
            stack = np.repeat(rows.reshape(1, n), size, axis=0)
            stack[np.arange(size), entry[k]] += move[k]
            stacks.append(stack.reshape(size, b, d))
        losses[k] = _stacked_losses(*stacks, tau[k], targets, cfg)

    def central(first: int, steps: np.ndarray) -> np.ndarray:
        up = losses[first : first + steps.size]
        down = losses[first + steps.size : first + 2 * steps.size]
        return (up - down) / (2.0 * steps)

    num_audio = central(0, audio_steps).reshape(b, d)
    num_text = central(2 * n, text_steps).reshape(b, d)
    return num_audio, num_text, float(central(4 * n, np.array([STEP]))[0])


def _softmax(logits: np.ndarray, axis: int) -> np.ndarray:
    """Max-shifted softmax along ``axis``."""
    p = logits - np.max(logits, axis=axis, keepdims=True)
    np.exp(p, out=p)
    p /= np.sum(p, axis=axis, keepdims=True)
    return p


def _kl_sums(p: np.ndarray, y: np.ndarray, symmetric: bool) -> np.ndarray:
    """Per slice of the (k, B, B) stack p: the sum of KL(y_i || p_i) over its
    rows, plus the sum of KL(p_i || y_i) when ``symmetric``, with both logs
    clamped at ``KL_FLOOR``."""
    u = np.maximum(p, KL_FLOOR)
    np.log(u, out=u)
    u -= np.log(np.maximum(y, KL_FLOOR))
    sums = -np.einsum("kij,ij->k", u, y)
    if symmetric:
        sums += np.einsum("kij,kij->k", u, p)
    return sums


def _stacked_losses(
    audio: np.ndarray, text: np.ndarray, tau: np.ndarray, targets, cfg: SmoothingConfig
) -> np.ndarray:
    """The loss of each slice of the (k, B, d) stacks of rows ``audio`` and
    ``text`` at the slice's temperature ``tau[k]``, with fixed ``targets``."""
    e_a = audio / np.sqrt(np.sum(audio * audio, axis=2, keepdims=True))
    e_t = text / np.sqrt(np.sum(text * text, axis=2, keepdims=True))
    logits = np.matmul(e_a, e_t.transpose(0, 2, 1))
    logits /= tau[:, None, None]
    # p_a2t[k, i] is audio i's distribution over the texts; p_t2a[k, :, i] is
    # text i's distribution over the audio rows, so it is scored against y.T
    p_a2t = _softmax(logits, axis=2)
    p_t2a = _softmax(logits, axis=1)
    tiny = np.finfo(np.float64).tiny
    nll_a = -np.log(np.maximum(np.diagonal(p_a2t, axis1=1, axis2=2), tiny))
    nll_t = -np.log(np.maximum(np.diagonal(p_t2a, axis1=1, axis2=2), tiny))
    infonce = 0.5 * (np.mean(nll_a, axis=1) + np.mean(nll_t, axis=1))
    lam = cfg.clap_mix_lambda
    if lam == 1.0:
        return infonce
    symmetric = cfg.kl_mode is KLMode.SYMMETRIC
    soft = _kl_sums(p_a2t, targets, symmetric) + _kl_sums(p_t2a, targets.T, symmetric)
    soft /= 2.0 * audio.shape[1]
    return soft if lam == 0.0 else lam * infonce + (1.0 - lam) * soft


def max_relative_error(analytic, numeric) -> float:
    """Componentwise |a - n| / max(1, |a|, |n|), reduced by max.

    The unit floor in the denominator turns the comparison into an absolute
    one for components much smaller than the loss scale, where central
    differences are dominated by roundoff.
    """
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
    return float(np.max(np.abs(a - n) / denom))


@dataclass
class GradCheckCase:
    batch_size: int
    dim: int
    config: SmoothingConfig
    error: float

    def describe(self) -> str:
        c = self.config
        return (
            f"B={self.batch_size} d={self.dim} clap_mix_lambda={c.clap_mix_lambda} "
            f"gamma={c.gamma} beta={c.beta} kl_mode={c.kl_mode.value} "
            f"tau_pred={c.tau_pred} -> rel_err={self.error:.3e}"
        )


@dataclass
class GradCheckReport:
    max_error: float
    n_cases: int
    worst: GradCheckCase

    @property
    def passed(self) -> bool:
        return self.max_error < 1e-5


def _case_configs() -> list[SmoothingConfig]:
    """The soft loss over the grids, an even mix of it with CLAP, then CLAP."""
    grid = itertools.product(GAMMA_GRID, BETA_GRID, (KLMode.SYMMETRIC, KLMode.FORWARD))
    soft = [
        SmoothingConfig(
            gamma=gamma, beta=beta, tau_a2a=0.7, tau_t2t=1.3,
            tau_pred=TAU_PRED_CYCLE[k % len(TAU_PRED_CYCLE)], kl_mode=mode,
        )
        for k, (gamma, beta, mode) in enumerate(grid)
    ]
    mixed = SmoothingConfig(
        gamma=0.5, beta=0.5, tau_a2a=0.7, tau_t2t=1.3, tau_pred=0.7, clap_mix_lambda=0.5
    )
    # at 1 no targets are built, so only tau_pred of the config counts
    clap = SmoothingConfig(kl_mode=KLMode.FORWARD, beta=0.0, clap_mix_lambda=1.0)
    return soft + [mixed, clap]


def run_gradcheck_suite(
    seed: int = 0,
    sizes: tuple[tuple[int, int], ...] = DEFAULT_SIZES,
) -> GradCheckReport:
    """Sweep batch sizes, dimensions, and mix and smoothing configurations."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    cases: list[GradCheckCase] = []
    for b, d in sizes:
        for cfg in _case_configs():
            audio = rng.standard_normal((b, d))
            text = rng.standard_normal((b, d))
            local_audio = rng.standard_normal((b, d + 1))
            out = loss_and_grad(EmbeddingBatch(audio, text, local_audio), cfg)
            num_a, num_t, num_lt = finite_difference_grads(audio, text, local_audio, cfg)
            err = max(
                max_relative_error(out.grad_audio, num_a),
                max_relative_error(out.grad_text, num_t),
                max_relative_error(out.grad_log_tau_pred, num_lt),
            )
            cases.append(GradCheckCase(b, d, cfg, err))
    worst = max(cases, key=lambda case: case.error)  # the first of equal errors
    return GradCheckReport(max_error=worst.error, n_cases=len(cases), worst=worst)
