"""The row-blocked loss/gradient kernel against two whole-matrix oracles.

``reference_loss_and_grad`` is the earliest implementation of
``loss_and_grad``: whole-matrix targets and predictions, the per-direction
logit gradient ``_kl_grad_wrt_logits`` and, for the CLAP mix, two separate
calls combined with weights lambda and 1 - lambda. ``whole_matrix_loss_and_grad``
is the single-pass kernel that the row-blocked one replaced, kept as it was:
it forms every B x B array at once. The blocked kernel reorders the
arithmetic, so agreement is to 1e-12 relative, not bit for bit. Both oracles
differentiate at the batch's unit rows; the tests carry their gradient rows
back to the input rows by dividing by input norms of their own.
"""
import tracemalloc

import numpy as np
import pytest

from smoothclap.errors import ConfigError, NonFiniteLoss, ZeroMassTarget
from smoothclap.numeric import (
    KL_FLOOR,
    gram,
    kl_sum,
    l2_normalize_rows,
    row_softmax,
    row_softmax_inplace,
)
from smoothclap.objective import (
    _BLOCK_ROWS,
    EmbeddingBatch,
    KLMode,
    LossOutput,
    SmoothingConfig,
    loss_and_grad,
)

REL_TOL = 1e-12


def _kl_grad_wrt_logits(p, y, symmetric):
    g = p - y
    if symmetric:
        u = np.log(np.maximum(p, KL_FLOOR)) - np.log(np.maximum(y, KL_FLOOR))
        g = g + p * (u - np.sum(p * u, axis=1, keepdims=True))
    return g


def reference_loss_and_grad(batch, cfg):
    """(value, grad_audio, grad_text, grad_log_tau_pred) the old way."""
    lam = cfg.clap_mix_lambda
    e_a = l2_normalize_rows(batch.audio)
    e_t = l2_normalize_rows(batch.text)
    b = batch.size
    g = gram(e_a, e_t)
    z = g / cfg.tau_pred
    p_a2t = row_softmax(g, cfg.tau_pred)
    p_t2a = row_softmax(g.T, cfg.tau_pred)

    def with_grads(value, y, symmetric):
        g_z = _kl_grad_wrt_logits(p_a2t, y, symmetric)
        g_zt = _kl_grad_wrt_logits(p_t2a, y, symmetric)
        scale = 1.0 / (2.0 * b)
        grad_gram = (scale / cfg.tau_pred) * (g_z + g_zt.T)
        grad_ea = grad_gram @ e_t
        grad_et = grad_gram.T @ e_a
        grad_audio = grad_ea - np.sum(grad_ea * e_a, axis=1, keepdims=True) * e_a
        grad_text = grad_et - np.sum(grad_et * e_t, axis=1, keepdims=True) * e_t
        grad_log_tau = -scale * (float(np.sum(g_z * z)) + float(np.sum(g_zt * z.T)))
        return value, grad_audio, grad_text, grad_log_tau

    tiny = np.finfo(np.float64).tiny
    infonce = 0.5 * (
        float(np.mean(-np.log(np.maximum(np.diag(p_a2t), tiny))))
        + float(np.mean(-np.log(np.maximum(np.diag(p_t2a), tiny))))
    )
    hard = with_grads(infonce, np.eye(b), False)
    if lam == 1.0:
        return hard
    y = _targets(batch, cfg)
    symmetric = cfg.kl_mode is KLMode.SYMMETRIC
    total = kl_sum(y, p_a2t) + kl_sum(y, p_t2a)
    if symmetric:
        total += kl_sum(p_a2t, y) + kl_sum(p_t2a, y)
    soft = with_grads(total / (2.0 * b), y, symmetric)
    if lam == 0.0:
        return soft
    return tuple(lam * h + (1.0 - lam) * s for h, s in zip(hard, soft))


# --- the whole-matrix kernel, as it was before the row blocks -------------------

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
    # in place: (1 - beta) I + beta ((1 - gamma) q_a2a + gamma q_t2t)
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


def whole_matrix_loss_and_grad(batch: EmbeddingBatch, cfg: SmoothingConfig) -> LossOutput:
    """The loss and gradients of ``loss_and_grad`` at the batch's unit rows,
    over whole B x B arrays."""
    lam = cfg.clap_mix_lambda
    e_a = l2_normalize_rows(batch.audio)
    e_t = l2_normalize_rows(batch.text)
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


# ---------------------------------------------------------------------------------

def make_rows(b, seed):
    """(audio, text, local_audio): the rows a batch is built from."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, 16)), rng.standard_normal((b, 16)), rng.standard_normal((b, 24))


def make_batch(b, seed):
    return EmbeddingBatch(*make_rows(b, seed))


def at_input_rows(grad, rows):
    """A gradient at the unit rows of ``rows``, carried back to ``rows``."""
    return grad / np.linalg.norm(rows, axis=1)[:, None]


def assert_close(actual, expected):
    """Within REL_TOL of the largest reference component."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    scale = float(np.max(np.abs(expected)))
    assert float(np.max(np.abs(actual - expected))) <= REL_TOL * scale


# tau_pred 0.05 at B=16 puts predicted entries below the floor
@pytest.mark.parametrize("b,tau_pred", [(2, 0.7), (16, 0.05), (256, 0.5)])
@pytest.mark.parametrize("kl_mode", list(KLMode))
# "smooth" in the ids keeps the case names from when the kernel also took an
# objective
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0], ids=["0.0-smooth", "0.5-smooth", "1.0-smooth"])
def test_kernel_matches_reference(b, tau_pred, kl_mode, lam):
    audio, text, local = make_rows(b, seed=b)
    batch = EmbeddingBatch(audio, text, local)
    cfg = SmoothingConfig(
        gamma=0.3, beta=0.4, tau_a2a=0.8, tau_t2t=1.2, tau_pred=tau_pred, kl_mode=kl_mode,
        clap_mix_lambda=lam,
    )
    out = loss_and_grad(batch, cfg)
    value, grad_audio, grad_text, grad_log_tau = reference_loss_and_grad(batch, cfg)
    assert_close(out.value, value)
    assert_close(out.grad_audio, at_input_rows(grad_audio, audio))
    assert_close(out.grad_text, at_input_rows(grad_text, text))
    assert_close(out.grad_log_tau_pred, grad_log_tau)


# B = 31, 32 and 33 sit at the seam of the 32-row blocks, and 63, 64 and 65 at
# the seam of the second and third; at B = 33 and 65 and tau_pred 0.05 the
# floor binds in every block of the batch
@pytest.mark.parametrize(
    "b,tau_pred",
    [
        (2, 0.5), (16, 0.5), (31, 0.5), (32, 0.5), (33, 0.5), (33, 0.05),
        (63, 0.5), (64, 0.5), (65, 0.5), (65, 0.05), (256, 0.5), (1024, 0.5),
    ],
)
@pytest.mark.parametrize("kl_mode", list(KLMode))
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_kernel_matches_the_whole_matrix_kernel(b, tau_pred, kl_mode, lam):
    audio, text, local = make_rows(b, seed=b)
    batch = EmbeddingBatch(audio, text, local)
    cfg = SmoothingConfig(
        gamma=0.3, beta=0.4, tau_a2a=0.8, tau_t2t=1.2, tau_pred=tau_pred, kl_mode=kl_mode,
        clap_mix_lambda=lam,
    )
    out = loss_and_grad(batch, cfg)
    expected = whole_matrix_loss_and_grad(batch, cfg)
    assert_close(out.value, expected.value)
    assert_close(out.grad_audio, at_input_rows(expected.grad_audio, audio))
    assert_close(out.grad_text, at_input_rows(expected.grad_text, text))
    assert_close(out.grad_log_tau_pred, expected.grad_log_tau_pred)


def test_floor_binds_in_both_blocks_of_the_seam_case():
    # B = 33 is a full 32-row block and a block of one row
    batch = make_batch(33, seed=33)
    p = row_softmax(gram(batch.audio, batch.text), 0.05)
    assert _BLOCK_ROWS == 32
    assert float(np.min(p[:32])) < KL_FLOOR
    assert float(np.min(p[32:])) < KL_FLOOR


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_kernel_peak_memory_stays_below_one_batch_square_matrix(lam):
    # the whole-matrix kernel peaked at about 49 MB here, one B x B matrix is
    # 8 MiB; the row blocks keep a few (2, 32, B) arrays at a time. The bound
    # is counted in (64, B) float64 arrays: 8 of them with targets, 3 without
    b = 1024
    batch = make_batch(b, seed=3)
    cfg = SmoothingConfig(clap_mix_lambda=lam)
    tracemalloc.start()
    try:
        loss_and_grad(batch, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = 8 if lam < 1.0 else 3
    assert peak < blocks * 64 * b * np.dtype(np.float64).itemsize


def test_floor_is_hit_in_the_reference_cases():
    batch = make_batch(16, seed=16)
    e_a = l2_normalize_rows(batch.audio)
    e_t = l2_normalize_rows(batch.text)
    p = row_softmax(gram(e_a, e_t), 0.05)
    assert float(np.min(p)) < KL_FLOOR


def test_kernel_rejects_targets_below_the_floor_at_any_mix():
    batch = make_batch(4, seed=5)
    for lam in (0.0, 0.5):
        cfg = SmoothingConfig(beta=1e-12, kl_mode=KLMode.SYMMETRIC, clap_mix_lambda=lam)
        with pytest.raises(ZeroMassTarget):
            loss_and_grad(batch, cfg)


@pytest.mark.parametrize("lam", [-0.1, 1.5, float("nan")])
def test_kernel_rejects_mix_weight_outside_unit_interval(lam):
    # the mix is a field of the kernel's config, checked where it is built
    with pytest.raises(ConfigError, match=f"clap_mix_lambda must lie in \\[0, 1\\], got {lam}"):
        SmoothingConfig(clap_mix_lambda=lam)
