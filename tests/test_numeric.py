import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import is_row_stochastic
from smoothclap.errors import (
    EmptyInput,
    NonFiniteValue,
    NonPositiveTemperature,
    PercentileOutOfRange,
    ShapeMismatch,
    ZeroRow,
)
from smoothclap.numeric import (
    as_matrix,
    gram,
    kl_sum,
    l2_normalize_rows,
    percentile_nearest_rank,
    row_softmax,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_values.json").read_text())


# --- l2_normalize_rows ---

def test_normalize_three_four():
    np.testing.assert_allclose(
        l2_normalize_rows([[3.0, 4.0]]), [GOLDEN["l2_normalize_3_4"]], atol=1e-12
    )


def test_normalize_unit_rows_unchanged():
    m = np.eye(2)
    np.testing.assert_array_equal(l2_normalize_rows(m), m)


def test_normalize_axis_aligned():
    out = l2_normalize_rows([[2.0, 0.0], [0.0, -7.0]])
    np.testing.assert_allclose(out, [[1.0, 0.0], [0.0, -1.0]], atol=1e-12)


def test_normalize_zero_row_rejected():
    with pytest.raises(ZeroRow):
        l2_normalize_rows([[0.0, 0.0], [1.0, 0.0]])


def test_normalize_idempotent():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 7))
    once = l2_normalize_rows(m)
    twice = l2_normalize_rows(once)
    np.testing.assert_allclose(twice, once, atol=1e-12)


# --- row_softmax ---

def test_softmax_uniform_on_constant_row():
    np.testing.assert_allclose(
        row_softmax([[0.0, 0.0, 0.0]], 1.0), [[1 / 3] * 3], atol=1e-15
    )


def test_softmax_ln2():
    np.testing.assert_allclose(
        row_softmax([[np.log(2.0), 0.0]], 1.0), [GOLDEN["softmax_ln2_0"]], atol=1e-9
    )


def test_softmax_large_scores_stable():
    out = row_softmax([[1000.0, 999.0]], 1.0)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [GOLDEN["softmax_1000_999"]], atol=1e-9)


def test_softmax_rejects_bad_temperature():
    with pytest.raises(NonPositiveTemperature):
        row_softmax([[1.0, 2.0]], 0.0)
    with pytest.raises(NonPositiveTemperature):
        row_softmax([[1.0, 2.0]], -1.0)
    with pytest.raises(NonPositiveTemperature, match="temperature must be > 0, got nan"):
        row_softmax(np.eye(2), np.nan)
    with pytest.raises(NonFiniteValue, match="temperature must be finite, got inf"):
        row_softmax(np.eye(2), np.inf)


def test_softmax_takes_temperatures_down_to_the_first_whose_reciprocal_overflows():
    # 1 / tiny is finite; below about 1 / float max the reciprocal overflows
    tiny = np.finfo(np.float64).tiny
    assert row_softmax([[1.0, 0.0]], tiny).tolist() == [[1.0, 0.0]]
    for value in (np.nextafter(1.0 / np.finfo(np.float64).max, 0.0), 5e-324):
        with pytest.raises(NonFiniteValue, match="temperature = .* its reciprocal overflows"):
            row_softmax(np.eye(2), value)


@settings(deadline=None, max_examples=60)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**31),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    tau=st.sampled_from([0.1, 1.0, 10.0]),
)
def test_softmax_rows_sum_to_one(rows, cols, seed, scale, tau):
    m = np.random.default_rng(seed).standard_normal((rows, cols)) * scale
    out = row_softmax(m, tau)
    assert is_row_stochastic(out, tol=1e-9)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 5))
    shifted = m + rng.standard_normal((4, 1)) * 50.0
    np.testing.assert_allclose(
        row_softmax(m, 0.7), row_softmax(shifted, 0.7), atol=1e-9
    )


# --- kl_sum ---

def test_kl_identical_is_zero():
    p = row_softmax(np.random.default_rng(1).standard_normal((3, 4)), 1.0)
    assert kl_sum(p, p) == 0.0


def test_kl_onehot_vs_uniform():
    got = kl_sum([[1.0, 0.0]], [[0.5, 0.5]])
    assert got == pytest.approx(GOLDEN["kl_onehot_uniform"], abs=1e-9)


def test_kl_asymmetric_example():
    got = kl_sum([[0.9, 0.1]], [[0.1, 0.9]])
    assert got == pytest.approx(GOLDEN["kl_09_01_vs_01_09"], abs=1e-9)


def test_kl_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        kl_sum([[1.0, 0.0]], [[1.0, 0.0, 0.0]])


def test_kl_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(7)
    for _ in range(200):
        b = int(rng.integers(2, 6))
        p = row_softmax(rng.standard_normal((b, b)), 1.0)
        q = row_softmax(rng.standard_normal((b, b)), 1.0)
        # KL_FLOOR lies below any softmax entry at this scale
        assert kl_sum(p, q) >= 0.0
        assert kl_sum(p, p) == 0.0


# --- gram ---

def test_gram_identity():
    np.testing.assert_array_equal(gram(np.eye(2), np.eye(2)), np.eye(2))


def test_gram_hand_example():
    assert gram([[1.0, 2.0]], [[3.0, 4.0]])[0, 0] == GOLDEN["gram_12_34"]


def test_gram_orthonormal_rows():
    q = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(gram(q, q), np.eye(2), atol=1e-15)


def test_gram_transpose_symmetry():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 6))
    b = rng.standard_normal((3, 6))
    np.testing.assert_allclose(gram(a, b).T, gram(b, a), atol=1e-12)


def test_gram_column_mismatch():
    with pytest.raises(ShapeMismatch):
        gram([[1.0, 2.0]], [[1.0, 2.0, 3.0]])


# --- percentile_nearest_rank ---

@pytest.mark.parametrize(
    "p,expected", [(30, 3.0), (70, 7.0), (100, 10.0), (1, 1.0), (10, 1.0), (11, 2.0)]
)
def test_percentile_on_1_to_10(p, expected):
    assert percentile_nearest_rank(list(range(1, 11)), p) == expected


def test_percentile_singleton():
    for p in (1, 30, 50, 100):
        assert percentile_nearest_rank([5.0], p) == 5.0


def test_percentile_unsorted_input_is_sorted_internally():
    assert percentile_nearest_rank([10, 1, 7, 3, 9, 2, 8, 4, 6, 5], 30) == 3.0


def test_percentile_errors():
    with pytest.raises(EmptyInput):
        percentile_nearest_rank([], 50)
    with pytest.raises(PercentileOutOfRange, match=r"percentile must be in \(0, 100\], got 0"):
        percentile_nearest_rank([1.0], 0)
    with pytest.raises(PercentileOutOfRange, match=r"got 101"):
        percentile_nearest_rank([1.0], 101)


# --- as_matrix validation ---

def test_as_matrix_rejects_nan_and_bad_shapes():
    with pytest.raises(NonFiniteValue):
        as_matrix([[np.nan]])
    with pytest.raises(NonFiniteValue):
        as_matrix([[np.inf, 1.0]])
    with pytest.raises(ShapeMismatch):
        as_matrix([1.0, 2.0])
