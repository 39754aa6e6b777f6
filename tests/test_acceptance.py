"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
verdicts on the terminal.
"""
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

import make_golden
from helpers import (
    in_vocabulary,
    is_row_stochastic,
    run_cli,
    table_bins,
    write_cluster_fixture_files,
    write_features_csv,
    write_labels_csv,
)
from smoothclap.evaluation import confusion_and_uar, zero_shot_classify
from smoothclap.fixtures import (
    class_centroid_similarities,
    ground_truth_proximities,
    make_cluster_fixture,
    make_tone_corpus,
    profiles_to_features,
    synth_tone,
)
from smoothclap.gradcheck import run_gradcheck_suite
from smoothclap.numeric import (
    gram,
    kl_sum,
    l2_normalize_rows,
    percentile_nearest_rank,
    row_softmax,
)
from smoothclap.objective import (
    EmbeddingBatch,
    KLMode,
    SmoothingConfig,
    build_targets,
    clap_infonce,
    loss_and_grad,
    soft_loss,
)
from smoothclap.paralinguistics import (
    F0Track,
    Waveform,
    acoustic_profile,
    frame_signal,
    jitter_local,
    rms_intensity,
)
from smoothclap.tagging import Bin, TemplateSet, fit_bins, render_tags
from smoothclap.trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    embed_audio,
    embed_query_labels,
    featurize_text,
    train,
)

GOLDEN_PATH = Path(__file__).parent / "golden_values.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


# -------------------------------------------------------------------------
# 1. gradient fidelity

def test_criterion_1_gradient_fidelity(capsys):
    start = time.time()
    suite = run_gradcheck_suite(seed=0)
    elapsed = time.time() - start
    cli_ok = run_cli("gradcheck", "--seed", "0") == 0
    with capsys.disabled():
        report(
            1,
            "gradient fidelity",
            suite.n_cases >= 20
            and suite.max_error < 1e-5
            and cli_ok
            and elapsed < 30.0,
        )


# -------------------------------------------------------------------------
# 2. distribution invariants

def test_criterion_2_distribution_invariants(capsys):
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(1000):
        b = int(rng.integers(2, 9))
        d = int(rng.integers(2, 11))
        batch = EmbeddingBatch(
            rng.standard_normal((b, d)),
            rng.standard_normal((b, d)),
            rng.standard_normal((b, d + 1)),
        )
        beta = float(rng.uniform(0.01, 1.0))
        cfg = SmoothingConfig(
            gamma=float(rng.uniform(0.0, 1.0)),
            beta=beta,
            tau_a2a=float(rng.uniform(0.3, 3.0)),
            tau_t2t=float(rng.uniform(0.3, 3.0)),
            tau_pred=float(rng.uniform(0.3, 3.0)),
        )
        # beta 1 leaves the identity out; gamma 0 and 1 keep one side each
        q_a2a = build_targets(batch, replace(cfg, gamma=0.0, beta=1.0))
        q_t2t = build_targets(batch, replace(cfg, gamma=1.0, beta=1.0))
        q = build_targets(batch, replace(cfg, beta=1.0))
        y = build_targets(batch, cfg)
        scores = gram(batch.audio, batch.text)
        p_a2t = row_softmax(scores, cfg.tau_pred)
        p_t2a = row_softmax(scores.T, cfg.tau_pred)
        for m in (q_a2a, q_t2t, q, y, p_a2t, p_t2a):
            ok = ok and is_row_stochastic(m, tol=1e-9)
        ok = ok and bool(np.all(y > 0.0))
        ok = ok and bool(np.array_equal(np.argmax(q_a2a, axis=1), np.arange(b)))
        if not ok:
            break
    with capsys.disabled():
        report(2, "distribution invariants", ok)


# -------------------------------------------------------------------------
# 3. hard-target recovery

def test_criterion_3_hard_target_recovery(capsys):
    # the kernel's soft loss at beta 0 with forward KL against its plain CLAP
    # loss: the value and every gradient entry
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        b = int(rng.integers(2, 9))
        d = int(rng.integers(3, 12))
        batch = EmbeddingBatch(
            rng.standard_normal((b, d)),
            rng.standard_normal((b, d)),
            rng.standard_normal((b, d)),
        )
        tau = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
        cfg = SmoothingConfig(beta=0.0, kl_mode=KLMode.FORWARD, tau_pred=tau)
        soft = loss_and_grad(batch, cfg)
        clap = loss_and_grad(batch, replace(cfg, clap_mix_lambda=1.0))
        gap = max(
            abs(soft.value - clap.value),
            float(np.max(np.abs(soft.grad_audio - clap.grad_audio))),
            float(np.max(np.abs(soft.grad_text - clap.grad_text))),
            abs(soft.grad_log_tau_pred - clap.grad_log_tau_pred),
        )
        worst = max(worst, gap)
    with capsys.disabled():
        report(3, f"hard-target recovery (worst gap {worst:.2e})", worst < 1e-9)


# -------------------------------------------------------------------------
# 4. oracle golden values

class _ReadKeys(dict):
    """The golden values, recording each key read."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_criterion_4_oracle_golden_values(capsys):
    ok = True
    golden = _ReadKeys(GOLDEN)

    def close(a, b):
        return np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) < 1e-9)

    # the frozen file must itself match a fresh run of the oracle script
    ok &= make_golden.compute_golden() == GOLDEN

    ok &= close(l2_normalize_rows([[3.0, 4.0]])[0], golden["l2_normalize_3_4"])
    ok &= close(row_softmax([[np.log(2.0), 0.0]], 1.0)[0], golden["softmax_ln2_0"])
    ok &= close(row_softmax([[1000.0, 999.0]], 1.0)[0], golden["softmax_1000_999"])
    # one row each, so the sum over rows is the row-averaged KL
    ok &= close(kl_sum([[1.0, 0.0]], [[0.5, 0.5]]), golden["kl_onehot_uniform"])
    ok &= close(kl_sum([[0.9, 0.1]], [[0.1, 0.9]]), golden["kl_09_01_vs_01_09"])
    ok &= close(gram([[1.0, 2.0]], [[3.0, 4.0]])[0, 0], golden["gram_12_34"])
    ok &= close(
        percentile_nearest_rank(range(1, 11), 30), golden["percentile_1to10_p30"]
    )
    ok &= close(
        percentile_nearest_rank(range(1, 11), 70), golden["percentile_1to10_p70"]
    )
    eye = EmbeddingBatch(np.eye(2), np.eye(2), np.eye(2))
    ok &= close(
        build_targets(eye, SmoothingConfig(gamma=0.0, beta=1.0, tau_a2a=1.0))[0],
        golden["intra_two_orthogonal"],
    )
    ok &= close(row_softmax(np.diag([2.0, 2.0]), 1.0)[0], golden["predicted_diag2"])
    mix = SmoothingConfig(
        gamma=0.5, beta=1.0, tau_a2a=1.0 / np.log(13.0 / 7.0), tau_t2t=1.0 / np.log(11.0 / 9.0)
    )
    ok &= close(build_targets(eye, mix)[1], golden["mix_half"])
    smooth = SmoothingConfig(gamma=0.0, beta=0.5, tau_a2a=1.0 / np.log(1.5))
    ok &= close(build_targets(eye, smooth), golden["smooth_half"])
    audio = np.array([[0.6, 0.8], [0.8, -0.6]])
    text = np.array([[0.8, 0.6], [0.6, -0.8]])
    ok &= close(gram(audio, text)[0, 0], golden["score_cross"])
    unit_tau = SmoothingConfig(tau_pred=1.0)
    ok &= close(clap_infonce(np.zeros((2, 2)), unit_tau), golden["infonce_zero_b2"])
    ok &= close(clap_infonce(np.eye(2), unit_tau), golden["infonce_identity_b2"])
    y = np.array([[0.9, 0.1], [0.1, 0.9]])
    uniform = np.full((2, 2), 0.5)
    ok &= close(
        soft_loss(y, uniform, uniform, SmoothingConfig(beta=0.5)),
        golden["soft_loss_example"],
    )
    theta, _ = adam_step(np.zeros(()), np.ones(()), AdamState.zeros_like(np.zeros(())), 1e-3)
    ok &= close(float(theta), golden["adam_first_step_delta"])
    rep = confusion_and_uar([0] * 10 + [1] * 10, [0] * 8 + [1] * 2 + [0] * 4 + [1] * 6, 2)
    ok &= close(rep.per_class_recall, golden["uar_8246"]["recalls"])
    ok &= close(rep.uar, golden["uar_8246"]["uar"])
    t = fit_bins(list(range(1, 11)), "x")
    ok &= (t.low, t.high) == (3.0, 7.0)
    vec = featurize_text(["happy", "calm"], ["calm", "happy"])
    ok &= close(vec, [golden["two_tag_component"]] * 2)
    frame = synth_tone(200.0, 0.025, 0.5)[None, :]
    ok &= close(rms_intensity(frame)[0], golden["intensity_half_sine_db"])

    # loss_and_grad: the value and every gradient
    kernel_keys = set()
    for b, kl_mode, lam in make_golden.KERNEL_CASES:
        batch = EmbeddingBatch(
            np.array(make_golden.KERNEL_AUDIO[:b], float),
            np.array(make_golden.KERNEL_TEXT[:b], float),
            np.array(make_golden.KERNEL_LOCAL[:b], float),
        )
        cfg = SmoothingConfig(
            **make_golden.KERNEL_WEIGHTS, kl_mode=KLMode(kl_mode), clap_mix_lambda=lam
        )
        out = loss_and_grad(batch, cfg)
        key = make_golden.kernel_key(b, kl_mode, lam)
        kernel_keys.add(key)
        expected = golden[key]
        ok &= close(out.value, expected["value"])
        ok &= close(out.grad_audio, expected["grad_audio"])
        ok &= close(out.grad_text, expected["grad_text"])
        ok &= close(out.grad_log_tau_pred, expected["grad_log_tau_pred"])
    ok &= len(kernel_keys) == 12

    # every golden value is checked against the library
    ok &= golden.read == set(GOLDEN)

    with capsys.disabled():
        report(4, "oracle golden values", bool(ok))


# -------------------------------------------------------------------------
# 5. DSP ground truth

def test_criterion_5_dsp_ground_truth(capsys):
    start = time.time()
    ok = True

    profile = acoustic_profile(Waveform(synth_tone(220.0, 2.0, 0.5), 16000))
    ok &= abs(profile.pitch_mean_hz - 220.0) <= 2.0
    ok &= profile.jitter < 0.005
    ok &= profile.shimmer < 0.01

    hz = np.where(np.arange(40) % 2 == 0, 1.0 / 0.0045, 1.0 / 0.0055)
    track = F0Track(hz, np.ones(40, bool))
    jitter, degraded = jitter_local(track)
    ok &= not degraded and abs(jitter - 0.20) <= 1e-6

    base = synth_tone(220.0, 1.0, 0.5)
    for c in (0.1, 0.5, 1.9):
        i_base = rms_intensity(frame_signal(Waveform(base, 16000)))
        i_scaled = rms_intensity(frame_signal(Waveform(np.clip(c * base, -1, 1), 16000)))
        ok &= bool(np.all(np.abs((i_scaled - i_base) - 20.0 * np.log10(c)) < 1e-6))

    elapsed = time.time() - start
    ok &= elapsed < 10.0
    with capsys.disabled():
        report(5, f"DSP ground truth ({elapsed:.1f}s)", bool(ok))


# -------------------------------------------------------------------------
# 6. tagging determinism and occupancy

def test_criterion_6_tagging(capsys):
    rng = np.random.default_rng(606)
    values = rng.permutation(np.linspace(0.0, 10.0, 100))
    thresholds = {"arousal": fit_bins(values, "arousal")}
    counts = {b: 0 for b in Bin}
    for b in table_bins(values, thresholds["arousal"]):
        counts[b] += 1
    ok = (
        abs(counts[Bin.LOW] - 30) <= 1
        and abs(counts[Bin.MID] - 40) <= 1
        and abs(counts[Bin.HIGH] - 30) <= 1
    )

    templates = TemplateSet(
        emotions=frozenset({"happy", "sad"}), genders=frozenset({"male", "female"})
    )
    records = [
        render_tags(
            "u0",
            {"emotion": "happy", "gender": "male"},
            {"arousal": float(v)},
            {"duration": 2.0},
            {**thresholds, "duration": fit_bins([1.0, 2.0, 3.0], "duration")},
            templates,
        )
        for v in values[:20]
    ]
    repeat = [
        render_tags(
            "u0",
            {"emotion": "happy", "gender": "male"},
            {"arousal": float(v)},
            {"duration": 2.0},
            {**thresholds, "duration": fit_bins([1.0, 2.0, 3.0], "duration")},
            templates,
        )
        for v in values[:20]
    ]
    ok &= [json.dumps(r.to_json_dict(), sort_keys=True) for r in records] == [
        json.dumps(r.to_json_dict(), sort_keys=True) for r in repeat
    ]
    ok &= all(in_vocabulary(t, templates) for r in records for t in r.tags)
    with capsys.disabled():
        report(6, "tagging determinism and occupancy", bool(ok))


# -------------------------------------------------------------------------
# 7. smoothing benefit (directional)

SMOOTH_BENEFIT_SEEDS = list(range(100, 110))


def _train_and_score(fixture, seed, clap_mix_lambda):
    config = TrainConfig(
        batch_size=32,
        epochs=40,
        lr=3e-2,
        seed=seed,
        embed_dim=16,
        smoothing=SmoothingConfig(
            gamma=0.5, beta=0.1, kl_mode=KLMode.SYMMETRIC, clap_mix_lambda=clap_mix_lambda
        ),
    )
    model = train(fixture.features, fixture.tag_lists, config)
    emb = embed_audio(model, fixture.features)
    queries = embed_query_labels(model, fixture.class_names)
    pred = zero_shot_classify(emb, queries, fixture.class_names)
    y_true = [fixture.class_names.index(lab) for lab in fixture.labels]
    uar = confusion_and_uar(y_true, pred.tolist(), 4, fixture.class_names).uar
    sims = class_centroid_similarities(emb, fixture.labels, fixture.class_names)
    rho = float(spearmanr(sims, ground_truth_proximities(fixture)).statistic)
    return uar, rho


def test_criterion_7_smoothing_benefit(capsys):
    start = time.time()
    wins = 0
    min_uar = 1.0
    for seed in SMOOTH_BENEFIT_SEEDS:
        fixture = make_cluster_fixture(seed=seed)
        uar_smooth, rho_smooth = _train_and_score(fixture, seed, 0.0)
        uar_clap, rho_clap = _train_and_score(fixture, seed, 1.0)
        wins += rho_smooth >= rho_clap
        min_uar = min(min_uar, uar_smooth, uar_clap)
    elapsed = time.time() - start
    ok = wins >= 8 and min_uar >= 0.25 + 0.15 and elapsed < 120.0
    with capsys.disabled():
        report(
            7,
            f"smoothing benefit ({wins}/10 wins, min UAR {min_uar:.3f}, {elapsed:.0f}s)",
            ok,
        )


# -------------------------------------------------------------------------
# 8. sweep shape

def test_criterion_8_sweep_shape(tmp_path, capsys):
    fixture = make_cluster_fixture(seed=7)
    files = write_cluster_fixture_files(tmp_path, fixture)
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep",
        "--features", str(files["features"]),
        "--tags", str(files["tags"]),
        "--labels", str(files["labels"]),
        "--gamma-grid", "0.8",
        "--beta-grid", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9",
        "--tau-t2t", "0.5",
        "--lr", "0.03",
        "--epochs", "200",
        "--batch-size", "32",
        "--embed-dim", "16",
        "--seed", "7",
        "--out", str(out),
    )
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    uar_by_beta = {float(r[1]): float(r[2]) for r in rows}
    ok = code == 0 and len(rows) == 9 and uar_by_beta[0.9] <= uar_by_beta[0.1]
    with capsys.disabled():
        report(
            8,
            f"sweep shape (UAR {uar_by_beta[0.1]:.3f} at b=0.1, "
            f"{uar_by_beta[0.9]:.3f} at b=0.9)",
            ok,
        )


# -------------------------------------------------------------------------
# 9. end-to-end determinism

def _run_pipeline(root: Path) -> dict[str, bytes]:
    root.mkdir(parents=True, exist_ok=True)
    wav_dir = root / "wavs"
    entries = make_tone_corpus(wav_dir, seed=7)
    manifest = wav_dir / "manifest.jsonl"
    manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))

    profiles = root / "profiles.jsonl"
    assert run_cli("extract", "--manifest", str(manifest), "--seed", "7",
                   "--out", str(profiles)) == 0

    tags = root / "tags.jsonl"
    thresholds = root / "thresholds.json"
    assert run_cli("tags", "--profiles", str(profiles), "--labels", str(manifest),
                   "--thresholds-out", str(thresholds), "--seed", "7",
                   "--out", str(tags)) == 0

    profile_records = [
        json.loads(line)
        for line in profiles.read_text().splitlines()
        if "_meta" not in json.loads(line)
    ]
    ids = [r["id"] for r in profile_records]
    features = root / "features.csv"
    write_features_csv(features, ids, profiles_to_features(profile_records))
    labels_csv = root / "labels.csv"
    write_labels_csv(labels_csv, [e["id"] for e in entries], [e["emotion"] for e in entries])

    model = root / "model.json"
    assert run_cli("train", "--features", str(features), "--tags", str(tags),
                   "--seed", "7", "--epochs", "5", "--batch-size", "8",
                   "--embed-dim", "8", "--out", str(model)) == 0

    report_path = root / "report.json"
    assert run_cli("eval", "--model", str(model), "--features", str(features),
                   "--labels", str(labels_csv), "--seed", "7",
                   "--out", str(report_path)) == 0

    sweep = root / "sweep.csv"
    assert run_cli("sweep", "--features", str(features), "--tags", str(tags),
                   "--labels", str(labels_csv), "--gamma-grid", "0.3,0.7",
                   "--beta-grid", "0.2,0.8", "--seed", "7", "--epochs", "2",
                   "--batch-size", "8", "--embed-dim", "8", "--out", str(sweep)) == 0

    return {
        name: (root / name).read_bytes()
        for name in ("profiles.jsonl", "tags.jsonl", "thresholds.json",
                     "model.json", "report.json", "sweep.csv")
    }


def test_criterion_9_end_to_end_determinism(tmp_path, capsys):
    first = _run_pipeline(tmp_path / "run1")
    second = _run_pipeline(tmp_path / "run2")
    ok = set(first) == set(second) and all(first[k] == second[k] for k in first)
    with capsys.disabled():
        report(9, "end-to-end determinism", ok)
