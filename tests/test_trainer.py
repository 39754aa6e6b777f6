import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from smoothclap.errors import (
    EmptyVocabulary,
    InsufficientData,
    ShapeMismatch,
    ZeroRow,
)
from smoothclap.fixtures import make_cluster_fixture
from smoothclap.gradcheck import STEP, max_relative_error
from smoothclap.numeric import l2_normalize_rows
from smoothclap.objective import (
    EmbeddingBatch,
    KLMode,
    SmoothingConfig,
    build_targets,
    loss_and_grad,
    loss_with_fixed_targets,
    with_tau_pred,
)
from smoothclap.trainer import (
    AdamState,
    ProjectionParams,
    TrainConfig,
    adam_step,
    embed_audio,
    embed_query_labels,
    featurize_tag_lists,
    featurize_text,
    init_projection,
    load_model,
    save_model,
    train,
    train_step,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_values.json").read_text())


# --- featurize_text ---

def test_featurize_single_tag():
    vec = featurize_text(["happy"], ["angry", "happy", "sad"])
    np.testing.assert_array_equal(vec, [0.0, 1.0, 0.0])


def test_featurize_two_tags_normalized():
    vec = featurize_text(["happy", "high arousal"], ["angry", "happy", "high arousal"])
    expected = GOLDEN["two_tag_component"]
    np.testing.assert_allclose(vec, [0.0, expected, expected], atol=1e-12)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_featurize_tag_lists_equals_one_row_form(caplog):
    vocabulary = ["angry", "happy", "high arousal", "sad"]
    tag_lists = [["happy"], ["sad", "high arousal", "x"], ["angry", "y", "z", "happy"]]
    with caplog.at_level("WARNING", logger="smoothclap.trainer"):
        rows = featurize_tag_lists(tag_lists, vocabulary)
    assert [r.getMessage() for r in caplog.records] == [
        "ignored 3 tag(s) outside the vocabulary"
    ]
    for row, tags in zip(rows, tag_lists):
        assert row.tobytes() == featurize_text(tags, vocabulary).tobytes()


def test_featurize_empty_tags_rejected():
    with pytest.raises(ZeroRow):
        featurize_text([], ["a", "b"])
    with pytest.raises(ZeroRow):
        featurize_text(["unknown"], ["a", "b"])  # all tags outside vocabulary


def test_featurize_empty_vocabulary():
    with pytest.raises(EmptyVocabulary):
        featurize_text(["a"], [])


# --- adam_step ---

def test_adam_first_step_scalar():
    state = AdamState.zeros_like(np.zeros(()))
    theta, state = adam_step(np.zeros(()), np.ones(()), state, 1e-3)
    assert float(theta) == pytest.approx(GOLDEN["adam_first_step_delta"], abs=1e-12)
    assert state.step == 1


def test_adam_zero_gradients_keep_parameters():
    params = np.array([1.0, -2.0, 3.0])
    state = AdamState.zeros_like(params)
    for _ in range(5):
        params, state = adam_step(params, np.zeros(3), state, 1e-2)
    np.testing.assert_array_equal(params, [1.0, -2.0, 3.0])


def test_adam_is_elementwise():
    rng = np.random.default_rng(0)
    params = rng.standard_normal(4)
    grads = rng.standard_normal(4)
    joint, _ = adam_step(params, grads, AdamState.zeros_like(params), 1e-3)
    for i in range(4):
        single, _ = adam_step(
            params[i : i + 1], grads[i : i + 1], AdamState.zeros_like(params[:1]), 1e-3
        )
        assert single[0] == joint[i]


def test_adam_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        adam_step(np.zeros(3), np.zeros(4), AdamState.zeros_like(np.zeros(3)), 1e-3)


# --- training ---

def small_config(**kw):
    base = dict(batch_size=16, epochs=4, embed_dim=8, seed=3, lr=1e-2)
    base.update(kw)
    return TrainConfig(**base)


def test_train_loss_decreases_on_clusters():
    fx = make_cluster_fixture(seed=5, n_per_class=20)
    model = train(fx.features, fx.tag_lists, small_config(epochs=10))
    assert model.history[-1] < model.history[0]


def test_train_same_seed_is_bit_identical(tmp_path):
    fx = make_cluster_fixture(seed=6, n_per_class=16)
    m1 = train(fx.features, fx.tag_lists, small_config())
    m2 = train(fx.features, fx.tag_lists, small_config())
    assert m1.history == m2.history
    p1 = tmp_path / "m1.json"
    p2 = tmp_path / "m2.json"
    save_model(p1, m1)
    save_model(p2, m2)
    assert p1.read_bytes() == p2.read_bytes()


def test_train_different_seed_differs():
    fx = make_cluster_fixture(seed=6, n_per_class=16)
    m1 = train(fx.features, fx.tag_lists, small_config(seed=1))
    m2 = train(fx.features, fx.tag_lists, small_config(seed=2))
    assert m1.history != m2.history


def test_train_insufficient_data():
    fx = make_cluster_fixture(seed=6, n_per_class=2)
    with pytest.raises(InsufficientData):
        train(fx.features, fx.tag_lists, TrainConfig(batch_size=32))


def test_train_zero_learning_rate_freezes_parameters():
    fx = make_cluster_fixture(seed=6, n_per_class=16)
    frozen = train(fx.features, fx.tag_lists, small_config(lr=0.0))
    rng = np.random.Generator(np.random.Philox(key=np.array([3, 0], dtype=np.uint64)))
    init_a = init_projection(fx.features.shape[1], 8, rng)
    np.testing.assert_array_equal(frozen.audio_projection.weights, init_a.weights)
    np.testing.assert_array_equal(frozen.audio_projection.bias, init_a.bias)
    assert frozen.log_tau_pred == 0.0  # log(1.0) untouched


def test_clap_and_smooth_beta0_forward_trajectories_match():
    fx = make_cluster_fixture(seed=8, n_per_class=16)
    smoothing = SmoothingConfig(beta=0.0, kl_mode=KLMode.FORWARD)
    m_soft = train(fx.features, fx.tag_lists, small_config(smoothing=smoothing))
    m_hard = train(
        fx.features,
        fx.tag_lists,
        small_config(smoothing=replace(smoothing, clap_mix_lambda=1.0)),
    )
    assert len(m_soft.history) == len(m_hard.history)
    for a, b in zip(m_soft.history, m_hard.history):
        assert a == pytest.approx(b, abs=1e-9)


def test_clap_mix_takes_one_kernel_call_per_step(monkeypatch):
    import smoothclap.trainer as trainer_module

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return loss_and_grad(*args, **kwargs)

    monkeypatch.setattr(trainer_module, "loss_and_grad", counting)
    fx = make_cluster_fixture(seed=8, n_per_class=16)
    config = small_config(smoothing=SmoothingConfig(clap_mix_lambda=0.5))
    train(fx.features, fx.tag_lists, config)
    steps_per_epoch = len(fx.tag_lists) // config.batch_size
    assert len(calls) == config.epochs * steps_per_epoch
    assert all(args[1].clap_mix_lambda == 0.5 for args in calls)


def test_descent_on_frozen_batch():
    # repeated Adam steps on one fixed batch must monotonically lower the
    # loss for a small learning rate
    rng = np.random.default_rng(15)
    x = rng.standard_normal((8, 10))
    x_local = l2_normalize_rows(x)
    text = np.abs(rng.standard_normal((8, 5))) + 0.1
    proj_a = init_projection(10, 6, rng)
    proj_t = init_projection(5, 6, rng)
    flat = flatten(proj_a, proj_t, 0.0)
    state = AdamState.zeros_like(flat)
    losses = []
    for _ in range(50):
        proj_a, proj_t, log_tau = unflatten(flat, 10, 5, 6)
        out, grad = train_step(proj_a, proj_t, log_tau, x, text, x_local, SmoothingConfig())
        losses.append(out.value)
        flat, state = adam_step(flat, grad, state, 1e-4)
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-9)
    assert losses[-1] < losses[0]


def flatten(proj_a, proj_t, log_tau):
    """One vector of the trained parameters, in train_step's grad order."""
    return np.concatenate(
        [proj_a.weights.ravel(), proj_a.bias, proj_t.weights.ravel(), proj_t.bias, [log_tau]]
    )


def unflatten(flat, in_audio, in_text, dim):
    """Projections and log_tau of a vector in train_step's grad order."""
    sizes = np.cumsum([in_audio * dim, dim, in_text * dim, dim])
    w_a, b_a, w_t, b_t, log_tau = np.split(flat, sizes)
    return (
        ProjectionParams(w_a.reshape(in_audio, dim), b_a),
        ProjectionParams(w_t.reshape(in_text, dim), b_t),
        float(log_tau[0]),
    )


@pytest.mark.parametrize("kl_mode", [KLMode.SYMMETRIC, KLMode.FORWARD])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_train_step_matches_finite_differences_of_every_parameter(lam, kl_mode):
    # central differences of the loss in W_a, b_a, W_t, b_t and log_tau, with
    # the targets of the unperturbed batch held fixed (stop-gradient)
    rng = np.random.default_rng(21)
    b, in_audio, in_text, dim = 8, 10, 5, 6
    x = rng.standard_normal((b, in_audio))
    text = np.abs(rng.standard_normal((b, in_text))) + 0.1
    local = l2_normalize_rows(x)
    proj_a = init_projection(in_audio, dim, rng)
    proj_t = init_projection(in_text, dim, rng)
    smoothing = SmoothingConfig(kl_mode=kl_mode, tau_a2a=0.7, tau_t2t=1.3, clap_mix_lambda=lam)
    log_tau = math.log(0.8)
    out, grad = train_step(proj_a, proj_t, log_tau, x, text, local, smoothing)
    flat = flatten(proj_a, proj_t, log_tau)
    assert grad.dtype == np.float64 and grad.shape == flat.shape == (103,)

    batch = EmbeddingBatch(proj_a.project(x), proj_t.project(text), local)
    targets = build_targets(batch, with_tau_pred(smoothing, 0.8))

    def loss(params):
        pa, pt, lt = unflatten(params, in_audio, in_text, dim)
        cfg = with_tau_pred(smoothing, math.exp(lt))
        return loss_with_fixed_targets(pa.project(x), pt.project(text), targets, cfg)

    assert loss(flat) == out.value
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        up, down = flat.copy(), flat.copy()
        up[i] += STEP
        down[i] -= STEP
        numeric[i] = (loss(up) - loss(down)) / (2.0 * STEP)
    assert max_relative_error(grad, numeric) < 1e-5


def test_flat_adam_equals_one_update_per_tensor():
    # Adam is elementwise: one step on the concatenation is bitwise the five
    # separate steps, over many steps and gradients of very different scales
    rng = np.random.default_rng(4)
    shapes = [(64, 16), (16,), (40, 16), (16,), ()]
    tensors = [rng.standard_normal(shape) for shape in shapes]
    states = [AdamState.zeros_like(t) for t in tensors]
    flat = np.concatenate([t.ravel() for t in tensors])
    flat_state = AdamState.zeros_like(flat)
    for _ in range(200):
        grads = [
            rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 3, size=shape) for shape in shapes
        ]
        for k, (t, g, st) in enumerate(zip(tensors, grads, states)):
            tensors[k], states[k] = adam_step(t, g, st, 1e-3)
        flat_grad = np.concatenate([g.ravel() for g in grads])
        flat, flat_state = adam_step(flat, flat_grad, flat_state, 1e-3)
        assert flat.tobytes() == b"".join(t.tobytes() for t in tensors)
    assert flat_state.m.tobytes() == b"".join(st.m.tobytes() for st in states)
    assert flat_state.v.tobytes() == b"".join(st.v.tobytes() for st in states)
    assert flat_state.step == 200


def test_train_takes_one_adam_step_and_one_kernel_call_per_step(monkeypatch):
    import smoothclap.trainer as trainer_module

    calls = {"adam_step": 0, "loss_and_grad": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(trainer_module, "adam_step", counted(adam_step))
    monkeypatch.setattr(trainer_module, "loss_and_grad", counted(loss_and_grad))
    fx = make_cluster_fixture(seed=8, n_per_class=16)
    config = small_config()
    model = train(fx.features, fx.tag_lists, config)
    steps = config.epochs * (len(fx.tag_lists) // config.batch_size)
    assert calls == {"adam_step": steps, "loss_and_grad": steps}
    # the trained tensors are views of the one vector that Adam updates
    flat = model.audio_projection.weights.base
    assert flat is not None and flat.ndim == 1
    assert model.audio_projection.bias.base is flat and model.text_projection.weights.base is flat


# --- model serialization and embedding ---

def test_model_json_roundtrip(tmp_path):
    fx = make_cluster_fixture(seed=9, n_per_class=16)
    model = train(fx.features, fx.tag_lists, small_config())
    save_model(tmp_path / "model.json", model)
    restored = load_model(tmp_path / "model.json")
    np.testing.assert_array_equal(
        restored.audio_projection.weights, model.audio_projection.weights
    )
    np.testing.assert_array_equal(
        restored.text_projection.bias, model.text_projection.bias
    )
    assert restored.log_tau_pred == model.log_tau_pred
    assert restored.vocabulary == model.vocabulary
    assert restored.config == model.config


def test_save_load_model(tmp_path):
    fx = make_cluster_fixture(seed=9, n_per_class=16)
    model = train(fx.features, fx.tag_lists, small_config())
    path = tmp_path / "model.json"
    save_model(path, model, extra_meta={"seed": 3})
    loaded = load_model(path)
    emb1 = embed_audio(model, fx.features)
    emb2 = embed_audio(loaded, fx.features)
    np.testing.assert_array_equal(emb1, emb2)


def test_embed_query_labels_unknown():
    from smoothclap.errors import UnknownQueryLabel

    fx = make_cluster_fixture(seed=9, n_per_class=16)
    model = train(fx.features, fx.tag_lists, small_config())
    with pytest.raises(UnknownQueryLabel) as err:
        embed_query_labels(model, ["angry", "bogus", "nonsense"])
    assert "bogus" in str(err.value)
    assert "nonsense" in str(err.value)
