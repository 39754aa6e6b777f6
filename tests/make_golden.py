"""Independent high-precision oracle for the golden values in golden_values.json.

Every number asserted against the library's numeric examples is computed
here from first principles with 50-digit mpmath arithmetic, never by
calling the library. Regenerate the frozen file with:

    python tests/make_golden.py

The test suite compares implementation output against the frozen JSON at
1e-9 and separately verifies the frozen file still matches this script.
"""
from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50

GOLDEN_PATH = Path(__file__).parent / "golden_values.json"

# Inputs of the loss_and_grad goldens: a batch of B rows takes the first B
# rows of each matrix. Every entry and weight is exact in binary.
KERNEL_AUDIO = [[1, 2, 0], [0, -1, 2], [2, 1, 1]]
KERNEL_TEXT = [[2, 0, 1], [1, 1, -1], [0, 2, 1]]
KERNEL_LOCAL = [[1, 0], [1, 1], [0, 2]]
KERNEL_WEIGHTS = {"gamma": 0.25, "beta": 0.5, "tau_a2a": 0.5, "tau_t2t": 2.0, "tau_pred": 0.75}
KERNEL_CASES = [
    (b, kl_mode, lam)
    for b in (2, 3)
    for kl_mode in ("symmetric", "forward")
    for lam in (0.0, 0.5, 1.0)
]
KL_FLOOR = 1e-8  # the floor under both logs of every KL term of the kernel


def kernel_key(b: int, kl_mode: str, lam: float) -> str:
    return f"loss_and_grad_b{b}_{kl_mode}_lam{lam:g}"


def _softmax_row(values, temperature):
    exps = [mp.e ** (mp.mpf(v) / mp.mpf(temperature)) for v in values]
    total = mp.fsum(exps)
    return [x / total for x in exps]


def _kl_row(p, q, floor):
    total = mp.mpf(0)
    for pi, qi in zip(p, q):
        pi = mp.mpf(pi)
        qi = mp.mpf(qi)
        if pi > 0:
            total += pi * mp.log(max(pi, mp.mpf(floor)) / max(qi, mp.mpf(floor)))
    return total


def _unit_rows(rows):
    unit = []
    for row in rows:
        norm = mp.sqrt(mp.fsum(mp.mpf(x) ** 2 for x in row))
        unit.append([mp.mpf(x) / norm for x in row])
    return unit


def _dot(u, v):
    return mp.fsum(x * y for x, y in zip(u, v))


def _similarity_softmax(src, dst, temperature):
    """Row i: the softmax of the similarities of unit row src[i] to every dst row."""
    return [_softmax_row([_dot(s, d) for d in dst], temperature) for s in src]


def _kernel_targets(text, local, w):
    """(1 - beta) I + beta ((1 - gamma) q_a2a + gamma q_t2t), from the unit rows."""
    l_unit, t_unit = _unit_rows(local), _unit_rows(text)
    q_a2a = _similarity_softmax(l_unit, l_unit, w["tau_a2a"])
    q_t2t = _similarity_softmax(t_unit, t_unit, w["tau_t2t"])
    gamma, beta = mp.mpf(w["gamma"]), mp.mpf(w["beta"])
    return [
        [
            (1 - beta) * (i == j) + beta * ((1 - gamma) * q_a2a[i][j] + gamma * q_t2t[i][j])
            for j in range(len(local))
        ]
        for i in range(len(local))
    ]


def _kernel_loss(audio, text, log_tau, y, symmetric, lam):
    """lam * InfoNCE + (1 - lam) * soft loss of the rows at tau_pred = exp(log_tau),
    against the fixed targets y."""
    a_unit, t_unit = _unit_rows(audio), _unit_rows(text)
    b = len(audio)
    tau = mp.exp(log_tau)
    # row i of p_a2t is audio i's distribution over the texts, row i of
    # p_t2a text i's over the audio rows; both are scored against y[i]
    p_a2t = _similarity_softmax(a_unit, t_unit, tau)
    p_t2a = _similarity_softmax(t_unit, a_unit, tau)
    infonce = -mp.fsum(mp.log(p_a2t[i][i]) + mp.log(p_t2a[i][i]) for i in range(b)) / (2 * b)
    if lam == 1:
        return infonce
    soft = mp.mpf(0)
    for i in range(b):
        for p in (p_a2t[i], p_t2a[i]):
            soft += _kl_row(y[i], p, KL_FLOOR)
            if symmetric:
                soft += _kl_row(p, y[i], KL_FLOOR)
    soft /= 2 * b
    return lam * infonce + (1 - lam) * soft


def kernel_golden(b: int, kl_mode: str, lam: float) -> dict:
    """Value of loss_and_grad on the first b rows of the KERNEL_* inputs, and its
    gradients in the raw audio and text rows and in log(tau_pred), with the
    targets held constant."""
    audio = [[mp.mpf(x) for x in row] for row in KERNEL_AUDIO[:b]]
    text = [[mp.mpf(x) for x in row] for row in KERNEL_TEXT[:b]]
    y = _kernel_targets(text, KERNEL_LOCAL[:b], KERNEL_WEIGHTS)
    symmetric = kl_mode == "symmetric"
    lam = mp.mpf(lam)
    log_tau = mp.log(mp.mpf(KERNEL_WEIGHTS["tau_pred"]))

    def loss(audio, text, log_tau):
        return _kernel_loss(audio, text, log_tau, y, symmetric, lam)

    def grad_rows(rows, at):
        grads = []
        for i, row in enumerate(rows):
            grads.append([])
            for k, x in enumerate(row):

                def moved(v, i=i, k=k):
                    changed = [list(r) for r in rows]
                    changed[i][k] = v
                    return at(changed)

                grads[-1].append(float(mp.diff(moved, x)))
        return grads

    return {
        "value": float(loss(audio, text, log_tau)),
        "grad_audio": grad_rows(audio, lambda a: loss(a, text, log_tau)),
        "grad_text": grad_rows(text, lambda t: loss(audio, t, log_tau)),
        "grad_log_tau_pred": float(mp.diff(lambda v: loss(audio, text, v), log_tau)),
    }


def compute_golden() -> dict:
    values: dict[str, object] = {}

    # row normalization: [3, 4] has norm 5
    norm = mp.sqrt(mp.mpf(3) ** 2 + mp.mpf(4) ** 2)
    values["l2_normalize_3_4"] = [float(mp.mpf(3) / norm), float(mp.mpf(4) / norm)]

    # softmax of [ln 2, 0] at temperature 1 is [2/3, 1/3]
    values["softmax_ln2_0"] = [float(x) for x in _softmax_row([mp.log(2), 0], 1)]

    # softmax of [1000, 999]: depends only on the difference of 1
    values["softmax_1000_999"] = [float(x) for x in _softmax_row([1000, 999], 1)]

    # KL of [1, 0] against [0.5, 0.5]
    values["kl_onehot_uniform"] = float(_kl_row([1, 0], [0.5, 0.5], 1e-12))

    # KL of [0.9, 0.1] against [0.1, 0.9]
    values["kl_09_01_vs_01_09"] = float(_kl_row([0.9, 0.1], [0.1, 0.9], 1e-12))

    # dot product of [1, 2] and [3, 4]
    values["gram_12_34"] = float(mp.mpf(1) * 3 + mp.mpf(2) * 4)

    # nearest-rank percentiles of 1..10
    ranked = list(range(1, 11))
    values["percentile_1to10_p30"] = float(ranked[int(mp.ceil(mp.mpf(30) * 10 / 100)) - 1])
    values["percentile_1to10_p70"] = float(ranked[int(mp.ceil(mp.mpf(70) * 10 / 100)) - 1])

    # targets at gamma 0, beta 1 and tau_a2a 1 on two orthogonal unit rows:
    # row 0 is the softmax of their similarities [1, 0]
    values["intra_two_orthogonal"] = [float(x) for x in _softmax_row([1, 0], 1)]

    # prediction rows for scores [[2, 0], [0, 2]]: softmax of [2, 0]
    values["predicted_diag2"] = [float(x) for x in _softmax_row([2, 0], 1)]

    # row 1 of the targets at gamma 0.5 and beta 1 on orthogonal local rows at
    # tau_a2a = 1 / ln(13/7) and orthogonal text rows at tau_t2t = 1 / ln(11/9):
    # 0.5 * [0.35, 0.65] + 0.5 * [0.45, 0.55]
    g = mp.mpf("0.5")
    q_a2a = _softmax_row([0, 1], 1 / mp.log(mp.mpf(13) / 7))
    q_t2t = _softmax_row([0, 1], 1 / mp.log(mp.mpf(11) / 9))
    values["mix_half"] = [float((1 - g) * qa + g * qt) for qa, qt in zip(q_a2a, q_t2t)]

    # targets at gamma 0 and beta 0.5 on orthogonal local rows at
    # tau_a2a = 1 / ln 1.5: 0.5 * I + 0.5 * [[0.6, 0.4], [0.4, 0.6]]
    b = mp.mpf("0.5")
    q = _softmax_row([1, 0], 1 / mp.log(mp.mpf("1.5")))
    values["smooth_half"] = [
        [float((1 - b) + b * q[0]), float(b * q[1])],
        [float(b * q[1]), float((1 - b) + b * q[0])],
    ]

    # similarity of the rows [0.6, 0.8] and [0.8, 0.6]
    values["score_cross"] = float(
        mp.mpf("0.6") * mp.mpf("0.8") + mp.mpf("0.8") * mp.mpf("0.6")
    )

    # symmetric InfoNCE at zero scores, batch 2: -ln(1/2)
    values["infonce_zero_b2"] = float(mp.log(2))

    # symmetric InfoNCE at identity scores, temperature 1:
    # each diagonal softmax entry is e/(e+1), so the loss is ln(1 + 1/e)
    values["infonce_identity_b2"] = float(mp.log(1 + mp.e**-1))

    # symmetric-KL soft loss with y = [[.9,.1],[.1,.9]] and uniform predictions
    y = [[mp.mpf("0.9"), mp.mpf("0.1")], [mp.mpf("0.1"), mp.mpf("0.9")]]
    p = [[mp.mpf("0.5"), mp.mpf("0.5")], [mp.mpf("0.5"), mp.mpf("0.5")]]
    floor = 1e-8
    total = mp.mpf(0)
    for i in range(2):
        total += _kl_row(y[i], p[i], floor) + _kl_row(p[i], y[i], floor)
        total += _kl_row(y[i], p[i], floor) + _kl_row(p[i], y[i], floor)
    values["soft_loss_example"] = float(total / 4)

    # first Adam step with gradient 1 and lr 1e-3: bias correction makes
    # m_hat = v_hat = 1, so the update is -lr / (1 + eps)
    lr = mp.mpf("0.001")
    eps = mp.mpf("1e-8")
    values["adam_first_step_delta"] = float(-lr / (1 + eps))

    # confusion [[8, 2], [4, 6]]: recalls 8/10 and 6/10, UAR their mean
    r0 = mp.mpf(8) / 10
    r1 = mp.mpf(6) / 10
    values["uar_8246"] = {
        "recalls": [float(r0), float(r1)],
        "uar": float((r0 + r1) / 2),
    }

    # two active tags in a multi-hot vector normalize to 1/sqrt(2) each
    values["two_tag_component"] = float(1 / mp.sqrt(2))

    # intensity of a 0.5-amplitude sine frame: 20 log10(0.5 / sqrt(2))
    values["intensity_half_sine_db"] = float(
        20 * mp.log(mp.mpf("0.5") / mp.sqrt(2), 10)
    )

    for case in KERNEL_CASES:
        values[kernel_key(*case)] = kernel_golden(*case)

    return values


def main() -> None:
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
