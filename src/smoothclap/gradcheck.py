"""Central finite-difference verification of the analytic gradients.

The numeric side perturbs the stored embedding matrices entry by entry and
re-evaluates the forward loss with the target distribution held fixed,
matching the stop-gradient contract of the analytic path.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .objective import (
    EmbeddingBatch,
    KLMode,
    SmoothingConfig,
    build_targets,
    loss_and_grad,
    loss_with_fixed_targets,
    with_tau_pred,
)

DEFAULT_SIZES = ((2, 3), (2, 16), (4, 3), (4, 16), (8, 3), (8, 16))
GAMMA_GRID = (0.0, 0.5, 1.0)
BETA_GRID = (0.1, 0.5, 1.0)
TAU_PRED_CYCLE = (0.5, 1.0, 2.0)
STEP = 1e-5  # central-difference step


def finite_difference_grads(
    batch: EmbeddingBatch, cfg: SmoothingConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """Central differences for both embedding matrices and log(tau_pred), of
    ``loss_and_grad``'s loss. The targets are built once, and only when
    ``cfg.clap_mix_lambda < 1``."""
    targets = build_targets(batch, cfg) if cfg.clap_mix_lambda < 1.0 else None

    def f(audio: np.ndarray, text: np.ndarray, tau: float = cfg.tau_pred) -> float:
        return loss_with_fixed_targets(audio, text, targets, with_tau_pred(cfg, tau))

    def nudged(m: np.ndarray, index: tuple[int, ...], step: float) -> np.ndarray:
        out = m.copy()
        out[index] += step
        return out

    def central(args_at) -> float:
        # args_at(step): the arguments of f with one coordinate moved by step
        return (f(*args_at(STEP)) - f(*args_at(-STEP))) / (2.0 * STEP)

    num_audio = np.zeros_like(batch.audio)
    for index in np.ndindex(num_audio.shape):
        num_audio[index] = central(lambda step: (nudged(batch.audio, index, step), batch.text))
    num_text = np.zeros_like(batch.text)
    for index in np.ndindex(num_text.shape):
        num_text[index] = central(lambda step: (batch.audio, nudged(batch.text, index, step)))
    log_tau = math.log(cfg.tau_pred)
    num_log_tau = central(lambda step: (batch.audio, batch.text, math.exp(log_tau + step)))
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
            batch = EmbeddingBatch(
                audio=rng.standard_normal((b, d)),
                text=rng.standard_normal((b, d)),
                local_audio=rng.standard_normal((b, d + 1)),
            )
            out = loss_and_grad(batch, cfg)
            if corrupt_gradient:
                out.grad_audio[0, 0] += 1e-3
            num_a, num_t, num_lt = finite_difference_grads(batch, cfg)
            err = max(
                max_relative_error(out.grad_audio, num_a),
                max_relative_error(out.grad_text, num_t),
                max_relative_error(out.grad_log_tau_pred, num_lt),
            )
            cases.append(GradCheckCase(b, d, cfg, err))
    worst = max(cases, key=lambda case: case.error)  # the first of equal errors
    return GradCheckReport(max_error=worst.error, n_cases=len(cases), worst=worst)
