"""Dense-matrix kernels, probability-simplex operations, and percentile utilities.

Everything here works on plain 2-D float64 numpy arrays validated at the
boundary by :func:`as_matrix`. All functions are pure and safe to call
concurrently.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (
    EmptyInput,
    NonFiniteValue,
    NonPositiveTemperature,
    PercentileOutOfRange,
    ShapeMismatch,
    ZeroRow,
)

ZERO_ROW_TOL = 1e-12
KL_FLOOR = 1e-8  # bounds both logs of every KL term from below


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array with at least one row and column."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(
            f"{name} must be 2-D with at least one row and column, got shape {m.shape}"
        )
    if not np.isfinite(m).all():
        raise NonFiniteValue(f"{name} contains NaN or Inf")
    return m


def l2_normalize_rows(m, name: str = "matrix", first_row: int = 0) -> np.ndarray:
    """Scale each row to unit Euclidean norm.

    Raises ZeroRow as :func:`row_norms` does if any row norm falls below
    ``ZERO_ROW_TOL``.
    """
    m = as_matrix(m, name)
    return m / row_norms(m, name, first_row)[:, None]


def row_norms(m: np.ndarray, name: str = "matrix", first_row: int = 0) -> np.ndarray:
    """Euclidean norm of each row of a trusted 2-D float64 array.

    Raises ZeroRow, naming the matrix and the row, if any norm falls below
    ``ZERO_ROW_TOL``, and NonFiniteValue if a norm is not finite, as when a
    row's squares sum past the float64 range. The message numbers the rows
    from ``first_row``.
    """
    with np.errstate(over="ignore"):  # an overflow is the error below, not a warning
        norms = np.sqrt(np.add.reduce(m * m, axis=1))
    if np.minimum.reduce(norms) >= ZERO_ROW_TOL and np.maximum.reduce(norms) < math.inf:
        return norms
    if np.any(norms < ZERO_ROW_TOL):
        bad = int(np.argmin(norms))
        raise ZeroRow(f"{name} row {bad + first_row} has norm {norms[bad]:.3e}, cannot normalize")
    finite = np.isfinite(norms)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NonFiniteValue(f"{name} row {bad + first_row} has norm {norms[bad]:.3e}, cannot normalize")
    return norms


def row_softmax(m, temperature: float) -> np.ndarray:
    """Temperature-scaled softmax applied independently to each row.

    The row maximum is subtracted before exponentiation so arbitrarily large
    scores stay finite.
    """
    m = as_matrix(m)
    check_temperature(temperature, "temperature")
    return row_softmax_inplace(m.copy(), temperature)


def row_softmax_inplace(z: np.ndarray, temperature) -> np.ndarray:
    """Overwrite a trusted float64 array with the softmax of each row along its
    last axis.

    A stack of matrices may take one temperature per matrix, shaped to
    broadcast, such as ``(2, 1, 1)``. :func:`row_softmax` is this function on
    a copy of its validated input. Returns ``z``.
    """
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    z /= temperature
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def check_temperature(value: float, name: str) -> None:
    """Softmax temperatures must be finite and strictly positive, and so must
    their reciprocal, by which the softmaxes scale their scores."""
    if not value > 0.0:
        raise NonPositiveTemperature(f"{name} must be > 0, got {value}")
    if value == math.inf:
        raise NonFiniteValue(f"{name} must be finite, got {value}")
    if 1.0 / float(value) == math.inf:
        raise NonFiniteValue(f"{name} = {value} is too small: its reciprocal overflows")


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
        raise PercentileOutOfRange(f"percentile must be in (0, 100], got {p}")
    ordered = np.sort(vals)
    # p * n first keeps exact integer ranks exact (e.g. 30 * 10 / 100 == 3.0)
    rank = math.ceil(p * ordered.size / 100.0)
    rank = min(max(rank, 1), ordered.size)
    return float(ordered[rank - 1])
