import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from smoothclap.artifacts import load_model, save_model
from smoothclap.errors import (
    EmptyVocabulary,
    InsufficientData,
    NonFiniteValue,
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
)
from smoothclap.trainer import (
    AdamState,
    ProjectionParams,
    TrainConfig,
    _param_shapes,
    _tensor_views,
    _trusted_step,
    adam_step,
    embed_audio,
    embed_query_labels,
    featurize_tag_lists,
    featurize_text,
    init_projection,
    train,
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


def test_adam_leaves_params_and_grads_and_updates_its_moments_in_place():
    params, grads = np.array([1.0, -2.0]), np.array([0.5, 3.0])
    state = AdamState.zeros_like(params)
    m, v = state.m, state.v
    updated, returned = adam_step(params, grads, state, 1e-2)
    np.testing.assert_array_equal(params, [1.0, -2.0])
    np.testing.assert_array_equal(grads, [0.5, 3.0])
    assert returned is state and state.m is m and state.v is v and state.step == 1
    assert updated is not params and not np.array_equal(updated, params)


def test_adam_refuses_gradients_whose_squares_overflow():
    params = np.zeros(3)
    state = AdamState.zeros_like(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = "overflows the Adam second moment: largest gradient 3.000e+300"
        with pytest.raises(NonFiniteValue, match=re.escape(message)):
            adam_step(params, np.array([1.0, -3e300, 1e200]), state, 1e-3)
        # 1e150 squares to 1e300, within range
        grads = np.array([1.0, -1e150, 0.0])
        updated, _ = adam_step(params, grads, AdamState.zeros_like(params), 1e-3)
    assert np.isfinite(updated).all()


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
    save_model(p1, m1, {"seed": 0})
    save_model(p2, m2, {"seed": 0})
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


def test_each_projected_matrix_has_its_row_norms_taken_once_per_step(monkeypatch):
    # count the numeric.row_norms calls, under every name the package binds it
    # to, whose argument is a matrix a projection made
    import smoothclap.numeric as numeric_module
    import smoothclap.objective as objective_module
    import smoothclap.trainer as trainer_module

    projected = []
    real_project = ProjectionParams.project

    def recording_project(self, x):
        z = real_project(self, x)
        projected.append(z)
        return z

    passes = []
    real_row_norms = numeric_module.row_norms

    def counting_row_norms(m, *args, **kwargs):
        if any(m is z for z in projected):
            passes.append(np.shape(m))
        return real_row_norms(m, *args, **kwargs)

    monkeypatch.setattr(ProjectionParams, "project", recording_project)
    for module in (numeric_module, objective_module, trainer_module):
        monkeypatch.setattr(module, "row_norms", counting_row_norms)
    fx = make_cluster_fixture(seed=3, n_per_class=16)
    config = small_config(epochs=1, embed_dim=16)
    train(fx.features, fx.tag_lists, config)
    steps = len(fx.tag_lists) // config.batch_size
    assert steps == 4
    assert len(projected) == 2 * steps
    assert passes == [(16, 16)] * (2 * steps)


@pytest.mark.parametrize("b", [2, 16, 31, 32, 33, 65])
@pytest.mark.parametrize("kl_mode", [KLMode.SYMMETRIC, KLMode.FORWARD])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_trusted_step_is_the_checked_kernel_and_the_concatenated_gradients(b, kl_mode, lam):
    # the step train takes on rows it checked once, against the batch the
    # public constructor checks and the gradients concatenated tensor by tensor
    rng = np.random.default_rng(b)
    in_audio, in_text, dim = 10, 5, 6
    x = rng.standard_normal((b, in_audio))
    text = np.abs(rng.standard_normal((b, in_text))) + 0.1
    proj_a = init_projection(in_audio, dim, rng)
    proj_t = init_projection(in_text, dim, rng)
    cfg = SmoothingConfig(
        kl_mode=kl_mode, tau_a2a=0.7, tau_t2t=1.3, tau_pred=0.8, clap_mix_lambda=lam
    )

    za, zt = proj_a.project(x), proj_t.project(text)
    expected = loss_and_grad(EmbeddingBatch(za, zt, x), cfg)
    dza, dzt = expected.grad_audio, expected.grad_text
    parts = (x.T @ dza, dza.sum(axis=0), text.T @ dzt, dzt.sum(axis=0), expected.grad_log_tau_pred)
    expected_grad = np.concatenate([np.ravel(g) for g in parts])

    grad = np.full(expected_grad.shape, np.nan)
    out = _trusted_step(
        proj_a, proj_t, cfg, x, text, l2_normalize_rows(x),
        _tensor_views(grad, _param_shapes(proj_a, proj_t)),
    )
    assert out.value == expected.value
    assert out.grad_audio.tobytes() == dza.tobytes()
    assert out.grad_text.tobytes() == dzt.tobytes()
    assert grad.tobytes() == expected_grad.tobytes()


@pytest.mark.parametrize(
    "scale, message",
    [(np.nan, "audio contains NaN or Inf"), (0.0, "audio row 0 has norm 0.000e+00"),
     (1e200, "audio row 0 has norm inf")],
)
def test_trusted_step_names_a_bad_projected_row_as_the_checked_batch_does(scale, message):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 3))
    proj_a = init_projection(3, 2, rng)
    proj_t = init_projection(2, 2, rng)
    proj_a.weights[:] *= scale
    proj_a.bias[:] *= scale
    grads = _tensor_views(np.empty(15), _param_shapes(proj_a, proj_t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ZeroRow, NonFiniteValue)) as checked:
            EmbeddingBatch(proj_a.project(x), proj_t.project(x[:, :2]), x)
        with pytest.raises(type(checked.value), match=re.escape(message)) as trusted:
            _trusted_step(
                proj_a, proj_t, SmoothingConfig(), x, x[:, :2], l2_normalize_rows(x), grads
            )
    assert str(trusted.value) == str(checked.value)


def test_train_checks_its_inputs_a_fixed_number_of_times_whatever_the_step_count(monkeypatch):
    import smoothclap.numeric as numeric_module
    import smoothclap.objective as objective_module
    import smoothclap.trainer as trainer_module

    calls = {"as_matrix": 0, "l2_normalize_rows": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapper = counted(getattr(numeric_module, name))
        for module in (numeric_module, objective_module, trainer_module):
            monkeypatch.setattr(module, name, wrapper)
    fx = make_cluster_fixture(seed=8, n_per_class=16)
    per_run = []
    for epochs in (1, 5):
        calls.update(dict.fromkeys(calls, 0))
        train(fx.features, fx.tag_lists, small_config(epochs=epochs))
        per_run.append(dict(calls))
    # the feature rows, and the text features through l2_normalize_rows
    assert per_run == [{"as_matrix": 2, "l2_normalize_rows": 1}] * 2


def test_descent_on_frozen_batch():
    # repeated Adam steps on one fixed batch must monotonically lower the
    # loss for a small learning rate
    rng = np.random.default_rng(15)
    x = rng.standard_normal((8, 10))
    text = np.abs(rng.standard_normal((8, 5))) + 0.1
    proj_a = init_projection(10, 6, rng)
    proj_t = init_projection(5, 6, rng)
    shapes = _param_shapes(proj_a, proj_t)
    flat = flatten(proj_a, proj_t, 0.0)
    state = AdamState.zeros_like(flat)
    losses = []
    for _ in range(50):
        out, grad = flat_step(flat, shapes, x, text, SmoothingConfig())
        losses.append(out.value)
        flat, state = adam_step(flat, grad, state, 1e-4)
    diffs = np.diff(losses)
    assert np.all(diffs <= 1e-9)
    assert losses[-1] < losses[0]


def flat_step(flat, shapes, x, text, smoothing):
    """``_trusted_step`` of the batch at the parameters of a vector in
    ``_param_shapes`` order: its loss output and one vector of its gradients
    in the same order."""
    w_a, b_a, w_t, b_t, log_tau = _tensor_views(flat, shapes)
    cfg = replace(smoothing, tau_pred=math.exp(float(log_tau)))
    grad = np.empty_like(flat)
    out = _trusted_step(
        ProjectionParams(w_a, b_a), ProjectionParams(w_t, b_t), cfg, x, text,
        l2_normalize_rows(x), _tensor_views(grad, shapes),
    )
    return out, grad


def flatten(proj_a, proj_t, log_tau):
    """One vector of the trained parameters, in ``_param_shapes`` order."""
    return np.concatenate(
        [proj_a.weights.ravel(), proj_a.bias, proj_t.weights.ravel(), proj_t.bias, [log_tau]]
    )


def unflatten(flat, in_audio, in_text, dim):
    """Projections and log_tau of a vector in ``_param_shapes`` order."""
    sizes = np.cumsum([in_audio * dim, dim, in_text * dim, dim])
    w_a, b_a, w_t, b_t, log_tau = np.split(flat, sizes)
    return (
        ProjectionParams(w_a.reshape(in_audio, dim), b_a),
        ProjectionParams(w_t.reshape(in_text, dim), b_t),
        float(log_tau[0]),
    )


@pytest.mark.parametrize("kl_mode", [KLMode.SYMMETRIC, KLMode.FORWARD])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_trusted_step_matches_finite_differences_of_every_parameter(lam, kl_mode):
    # central differences of the loss in W_a, b_a, W_t, b_t and log_tau, with
    # the targets of the unperturbed batch held fixed (stop-gradient)
    rng = np.random.default_rng(21)
    b, in_audio, in_text, dim = 8, 10, 5, 6
    x = rng.standard_normal((b, in_audio))
    text = np.abs(rng.standard_normal((b, in_text))) + 0.1
    proj_a = init_projection(in_audio, dim, rng)
    proj_t = init_projection(in_text, dim, rng)
    smoothing = SmoothingConfig(kl_mode=kl_mode, tau_a2a=0.7, tau_t2t=1.3, clap_mix_lambda=lam)
    flat = flatten(proj_a, proj_t, math.log(0.8))
    out, grad = flat_step(flat, _param_shapes(proj_a, proj_t), x, text, smoothing)
    assert grad.dtype == np.float64 and grad.shape == flat.shape == (103,)

    # the feature rows are also the local audio features
    batch = EmbeddingBatch(proj_a.project(x), proj_t.project(text), x)
    targets = build_targets(batch, replace(smoothing, tau_pred=0.8))

    def loss(params):
        pa, pt, lt = unflatten(params, in_audio, in_text, dim)
        cfg = replace(smoothing, tau_pred=math.exp(lt))
        projected = EmbeddingBatch(pa.project(x), pt.project(text), x)
        return loss_with_fixed_targets(projected, targets, cfg)

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
    save_model(tmp_path / "model.json", model, {"seed": 0})
    restored = load_model(tmp_path / "model.json")
    np.testing.assert_array_equal(
        restored.audio_projection.weights, model.audio_projection.weights
    )
    np.testing.assert_array_equal(
        restored.text_projection.bias, model.text_projection.bias
    )
    assert restored.log_tau_pred == model.log_tau_pred
    assert restored.vocabulary == model.vocabulary


def test_save_load_model(tmp_path):
    fx = make_cluster_fixture(seed=9, n_per_class=16)
    model = train(fx.features, fx.tag_lists, small_config())
    path = tmp_path / "model.json"
    save_model(path, model, {"seed": 3})
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
