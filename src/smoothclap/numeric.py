"""Dense-matrix kernels, probability-simplex operations, and percentile utilities.

Everything here works on plain 2-D float64 numpy arrays validated at the
boundary by :func:`as_matrix`. "Row-stochastic" means nonnegative entries
with each row summing to 1 within ``ROW_SUM_TOL``. All functions are pure
and safe to call concurrently.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (
    EmptyInput,
    NonFiniteValue,
    NonPositiveTemperature,
    ShapeMismatch,
    ZeroRow,
)

ROW_SUM_TOL = 1e-9
ZERO_ROW_TOL = 1e-12
KL_FLOOR = 1e-8  # bounds both logs of every KL term from below


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array with at least one row and column."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(
            f"{name} must be 2-D with at least one row and column, got shape {m.shape}"
        )
    if not np.all(np.isfinite(m)):
        raise NonFiniteValue(f"{name} contains NaN or Inf")
    return m


def is_row_stochastic(m, tol: float = ROW_SUM_TOL) -> bool:
    """True if every entry is >= 0 and every row sums to 1 within ``tol``."""
    m = as_matrix(m)
    if np.any(m < 0.0):
        return False
    return bool(np.all(np.abs(m.sum(axis=1) - 1.0) <= tol))


def l2_normalize_rows(m) -> np.ndarray:
    """Scale each row to unit Euclidean norm.

    Raises ZeroRow if any row norm falls below ``ZERO_ROW_TOL``.
    """
    return unit_rows(as_matrix(m))


def unit_rows(m: np.ndarray) -> np.ndarray:
    """:func:`l2_normalize_rows` of a trusted 2-D float64 array: no coercion
    or finiteness pass, the same arithmetic."""
    norms = np.sqrt(np.sum(m * m, axis=1))
    if np.any(norms < ZERO_ROW_TOL):
        bad = int(np.argmin(norms))
        raise ZeroRow(f"row {bad} has norm {norms[bad]:.3e}, cannot normalize")
    return m / norms[:, None]


def row_softmax(m, temperature: float) -> np.ndarray:
    """Temperature-scaled softmax applied independently to each row.

    The row maximum is subtracted before exponentiation so arbitrarily large
    scores stay finite.
    """
    m = as_matrix(m)
    check_temperature(temperature)
    return row_softmax_inplace(m.copy(), temperature)


def row_softmax_inplace(z: np.ndarray, temperature: float) -> np.ndarray:
    """Overwrite a trusted C-contiguous float64 matrix with its row softmax.

    :func:`row_softmax` is this function on a copy of its validated input.
    Returns ``z``.
    """
    z -= np.max(z, axis=1, keepdims=True)
    z /= temperature
    np.exp(z, out=z)
    z /= np.sum(z, axis=1, keepdims=True)
    return z


def check_temperature(temperature: float) -> None:
    """Softmax temperatures must be strictly positive."""
    if not temperature > 0.0:
        raise NonPositiveTemperature(f"temperature must be > 0, got {temperature}")


def kl_sum(p, q) -> float:
    """Sum over rows of KL(p_i || q_i), with ``KL_FLOOR`` applied inside the logs.

    Entries with p == 0 contribute exactly 0 regardless of q.
    """
    p = as_matrix(p, "p")
    q = as_matrix(q, "q")
    if p.shape != q.shape:
        raise ShapeMismatch(f"p has shape {p.shape}, q has shape {q.shape}")
    log_ratio = np.log(np.maximum(p, KL_FLOOR)) - np.log(np.maximum(q, KL_FLOOR))
    return float(np.sum(np.where(p > 0.0, p * log_ratio, 0.0)))


def kl_rows(p, q) -> float:
    """Row-averaged KL divergence between two row-stochastic matrices."""
    return kl_sum(p, q) / len(p)


def gram(a, b) -> np.ndarray:
    """Pairwise dot products: out[i, j] = a[i] . b[j], shape (a.rows, b.rows)."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[1]:
        raise ShapeMismatch(f"column counts differ: {a.shape[1]} vs {b.shape[1]}")
    return a @ b.T


def percentile_nearest_rank(values, p: float) -> float:
    """Nearest-rank percentile: the element at rank ceil(p/100 * n), 1-indexed.

    Values are sorted internally; ``p`` must lie in (0, 100].
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1 or vals.size == 0:
        raise EmptyInput("values must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue("values contain NaN or Inf")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = np.sort(vals)
    # p * n first keeps exact integer ranks exact (e.g. 30 * 10 / 100 == 3.0)
    rank = math.ceil(p * ordered.size / 100.0)
    rank = min(max(rank, 1), ordered.size)
    return float(ordered[rank - 1])
