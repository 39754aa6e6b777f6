"""Central finite-difference verification of the analytic gradients.

The numeric side perturbs the rows a batch is built from, not its unit rows,
entry by entry, and re-evaluates the forward loss of a batch built from the
perturbed rows with the target distribution held fixed, matching the
stop-gradient contract of the analytic path, whose chain rule runs through
the row normalization. Each entry moves by ``STEP`` times the norm of its
row, so rows far from unit norm are checked as closely as unit rows, and
log(tau_pred) moves by ``STEP``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .objective import (
    EmbeddingBatch,
    KLMode,
    SmoothingConfig,
    build_targets,
    loss_and_grad,
    loss_with_fixed_targets,
)

DEFAULT_SIZES = ((2, 3), (2, 16), (4, 3), (4, 16), (8, 3), (8, 16))
GAMMA_GRID = (0.0, 0.5, 1.0)
BETA_GRID = (0.1, 0.5, 1.0)
TAU_PRED_CYCLE = (0.5, 1.0, 2.0)
STEP = 1e-5  # central-difference step, relative to the row norm for row entries


def finite_difference_grads(
    audio: np.ndarray, text: np.ndarray, local_audio: np.ndarray, cfg: SmoothingConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """Central differences of ``loss_and_grad``'s loss on ``EmbeddingBatch(audio,
    text, local_audio)`` in the float64 rows ``audio`` and ``text`` and in
    log(tau_pred). An entry of row i moves by ``STEP`` times the norm of row
    i, log(tau_pred) by ``STEP``. The targets are built once, and only when
    ``cfg.clap_mix_lambda < 1``."""
    batch = EmbeddingBatch(audio, text, local_audio)
    targets = build_targets(batch, cfg) if cfg.clap_mix_lambda < 1.0 else None

    def f(audio: np.ndarray, text: np.ndarray, config: SmoothingConfig = cfg) -> float:
        perturbed = EmbeddingBatch(audio, text, batch.local_audio)
        return loss_with_fixed_targets(perturbed, targets, config)

    def nudged(m: np.ndarray, index: tuple[int, ...], step: float) -> np.ndarray:
        out = m.copy()
        out[index] += step
        return out

    def central(args_at, step: float) -> float:
        # args_at(h): the arguments of f with one coordinate moved by h
        return (f(*args_at(step)) - f(*args_at(-step))) / (2.0 * step)

    num_audio = np.zeros_like(audio)
    for index in np.ndindex(num_audio.shape):
        step = STEP * batch.audio_norms[index[0]]
        num_audio[index] = central(lambda h: (nudged(audio, index, h), text), step)
    num_text = np.zeros_like(text)
    for index in np.ndindex(num_text.shape):
        step = STEP * batch.text_norms[index[0]]
        num_text[index] = central(lambda h: (audio, nudged(text, index, h)), step)
    log_tau = math.log(cfg.tau_pred)
    num_log_tau = central(
        lambda h: (audio, text, replace(cfg, tau_pred=math.exp(log_tau + h))), STEP
    )
    return num_audio, num_text, num_log_tau


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
    """The soft loss over the grids, then CLAP."""
    grid = itertools.product(GAMMA_GRID, BETA_GRID, (KLMode.SYMMETRIC, KLMode.FORWARD))
    soft = [
        SmoothingConfig(
            gamma=gamma, beta=beta, tau_a2a=0.7, tau_t2t=1.3,
            tau_pred=TAU_PRED_CYCLE[k % len(TAU_PRED_CYCLE)], kl_mode=mode,
        )
        for k, (gamma, beta, mode) in enumerate(grid)
    ]
    # at 1 no targets are built, so only tau_pred of the config counts
    return soft + [SmoothingConfig(kl_mode=KLMode.FORWARD, beta=0.0, clap_mix_lambda=1.0)]


def run_gradcheck_suite(
    seed: int = 0,
    sizes: tuple[tuple[int, int], ...] = DEFAULT_SIZES,
    corrupt_gradient: bool = False,
) -> GradCheckReport:
    """Sweep batch sizes, dimensions, and mix and smoothing configurations.

    ``corrupt_gradient`` injects a deliberate error into one analytic
    component; it exists so the harness can prove it would catch a bad
    gradient.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    cases: list[GradCheckCase] = []
    for b, d in sizes:
        for cfg in _case_configs():
            audio = rng.standard_normal((b, d))
            text = rng.standard_normal((b, d))
            local_audio = rng.standard_normal((b, d + 1))
            out = loss_and_grad(EmbeddingBatch(audio, text, local_audio), cfg)
            if corrupt_gradient:
                out.grad_audio[0, 0] += 1e-3
            num_a, num_t, num_lt = finite_difference_grads(audio, text, local_audio, cfg)
            err = max(
                max_relative_error(out.grad_audio, num_a),
                max_relative_error(out.grad_text, num_t),
                max_relative_error(out.grad_log_tau_pred, num_lt),
            )
            cases.append(GradCheckCase(b, d, cfg, err))
    worst = max(cases, key=lambda case: case.error)  # the first of equal errors
    return GradCheckReport(max_error=worst.error, n_cases=len(cases), worst=worst)
