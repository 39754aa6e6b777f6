"""Desk-scale training of audio/text projections and the prediction temperature.

The frozen encoders of the full-scale system are stood in for by identity
over precomputed audio feature rows (which double as the pooled local
features) and by a multi-hot tag featurizer on the text side. Everything in
the loss path is preserved: projections, row normalization, soft targets,
and the learnable log-temperature. Training is bit-deterministic for a
given (data, config, seed) triple.

:func:`train` checks its inputs once per run: the feature rows are finite
and none is zero, and their norms, by which each step makes the unit local
audio features of its rows, are taken once. Each step then checks only
what a step can fail on: the
norms of its projected rows (a zero, non-finite or overflowing row),
the learned temperature, the loss, and a gradient whose square overflows
Adam's second moment. Any of these is a :class:`TrainingStepFailed`
naming the epoch and the batch.
"""
from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from typing import get_type_hints

import numpy as np

# the benchmark times model writes through the name trainer.save_model
from .artifacts import save_model  # noqa: F401
from .errors import (
    ConfigError,
    EmptyVocabulary,
    InsufficientData,
    LengthMismatch,
    NonFiniteLoss,
    NonFiniteValue,
    NonPositiveTemperature,
    ShapeMismatch,
    TrainingStepFailed,
    UnknownQueryLabel,
    ZeroMassTarget,
    ZeroRow,
)
from .numeric import as_matrix, l2_normalize_rows, row_norms
from .objective import EmbeddingBatch, LossOutput, SmoothingConfig, loss_and_grad

logger = logging.getLogger(__name__)

# Philox streams: 0 = parameter init, 1 + epoch = per-epoch shuffles
_INIT_STREAM = 0
_EPOCH_STREAM_BASE = 1

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def featurize_text(tags, vocabulary) -> np.ndarray:
    """Unit-norm multi-hot vector over a fixed, sorted tag vocabulary.

    Unknown tags are ignored (counted and logged); a tag list with no known
    tags yields the zero vector, which the normalization rejects.
    """
    return featurize_tag_lists([tags], vocabulary)[0]


def featurize_tag_lists(tag_lists, vocabulary) -> np.ndarray:
    """:func:`featurize_text` of every tag list, as the rows of one matrix.

    The vocabulary index is built once and the rows are normalized in one
    call; each row equals the one-list form bit for bit. One warning gives
    the total count of unknown tags.
    """
    if len(vocabulary) == 0:
        raise EmptyVocabulary("tag vocabulary is empty")
    index = {tag: i for i, tag in enumerate(vocabulary)}
    feats = np.zeros((len(tag_lists), len(vocabulary)))
    unknown = 0
    for row, tags in enumerate(tag_lists):
        for tag in tags:
            pos = index.get(tag)
            if pos is None:
                unknown += 1
            else:
                feats[row, pos] = 1.0
    if unknown:
        logger.warning("ignored %d tag(s) outside the vocabulary", unknown)
    return l2_normalize_rows(feats)


@dataclass
class ProjectionParams:
    """Affine map into the shared embedding space."""

    weights: np.ndarray
    bias: np.ndarray

    def project(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weights + self.bias

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]


def init_projection(in_dim: int, out_dim: int, rng: np.random.Generator) -> ProjectionParams:
    bound = 1.0 / math.sqrt(in_dim)
    return ProjectionParams(
        weights=rng.uniform(-bound, bound, size=(in_dim, out_dim)),
        bias=rng.uniform(-bound, bound, size=out_dim),
    )


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter tensor."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros_like(cls, param: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(param), v=np.zeros_like(param))


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new params and the state.

    The moments are updated in place in ``state``, which is returned with
    its step advanced; ``params`` is left as it is. Raises NonFiniteValue,
    leaving the moments to be discarded, if a gradient's square overflows
    the second moment.
    """
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeMismatch(
            f"params {params.shape}, grads {grads.shape}, state {state.m.shape}"
        )
    state.step += 1
    m, v = state.m, state.v
    # out= arrays keep the arithmetic in place, for 0-d params too
    scratch, update = np.empty_like(params), np.empty_like(params)
    np.multiply(grads, 1.0 - _ADAM_BETA1, out=scratch)
    m *= _ADAM_BETA1
    m += scratch
    with np.errstate(over="ignore"):  # an overflow is the error below, not a warning
        np.multiply(grads, 1.0 - _ADAM_BETA2, out=scratch)
        scratch *= grads
    v *= _ADAM_BETA2
    v += scratch
    if not np.maximum.reduce(v, axis=None) < math.inf:
        raise NonFiniteValue(
            "a gradient's square overflows the Adam second moment: largest gradient "
            f"{float(np.maximum.reduce(np.abs(grads), axis=None)):.3e}"
        )
    v_hat = np.divide(v, 1.0 - _ADAM_BETA2**state.step, out=scratch)
    np.sqrt(v_hat, out=v_hat)
    v_hat += _ADAM_EPS
    np.divide(m, 1.0 - _ADAM_BETA1**state.step, out=update)
    update *= lr
    update /= v_hat
    return np.subtract(params, update, out=update), state


def check_seed(seed: int) -> int:
    """The seed of every subcommand: one Philox key word, in [0, 2**64 - 1]."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64 - 1], got {seed}")
    return seed


@dataclass(frozen=True)
class TrainConfig:
    """Everything the training loop needs besides the data.

    Its scalar fields, and those of its SmoothingConfig, are the run options:
    the CLI flags, config-file keys and JSON echo all derive from them.
    """

    batch_size: int = 32
    epochs: int = 10
    lr: float = 1e-3
    seed: int = 0
    embed_dim: int = 16
    smoothing: SmoothingConfig = field(default_factory=SmoothingConfig)

    def __post_init__(self) -> None:
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        # zero is allowed so a frozen run can serve as a no-learning baseline
        if not 0.0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if self.embed_dim < 2:
            raise ConfigError(f"embed_dim must be >= 2, got {self.embed_dim}")
        check_seed(self.seed)

    @classmethod
    def from_options(cls, values: dict[RunOption, object]) -> "TrainConfig":
        """Build from coerced option values; absent options take their defaults."""
        kwargs: dict[str, object] = {}
        sections: dict[str, dict[str, object]] = {}
        for opt, value in values.items():
            section, _, name = opt.path.rpartition(".")
            target = sections.setdefault(section, {}) if section else kwargs
            target[name] = value
        for section, section_kwargs in sections.items():
            kwargs[section] = _SECTION_TYPES[section](**section_kwargs)
        return cls(**kwargs)

    def to_json_dict(self) -> dict:
        return asdict(self, dict_factory=_with_enum_values)


@dataclass(frozen=True)
class RunOption:
    """One run option: a scalar field of TrainConfig or of its SmoothingConfig.

    ``path`` is the option's dotted key in ``TrainConfig.to_json_dict()``,
    such as ``"epochs"`` or ``"smoothing.gamma"``; its last part is the field
    name. ``type`` (int, float or an Enum) coerces flag, file and JSON values.
    """

    path: str
    type: type
    default: object

    @property
    def field(self) -> str:
        return self.path.rpartition(".")[2]


def _with_enum_values(items: list[tuple[str, object]]) -> dict:
    return {k: v.value if isinstance(v, Enum) else v for k, v in items}


def _run_options() -> tuple[tuple[RunOption, ...], dict[str, type]]:
    options: list[RunOption] = []
    sections: dict[str, type] = {}

    def collect(cls: type, prefix: str) -> None:
        hints = get_type_hints(cls)
        for f in fields(cls):
            if is_dataclass(hints[f.name]):
                sections[f.name] = hints[f.name]
                collect(hints[f.name], f.name + ".")
            else:
                options.append(RunOption(prefix + f.name, hints[f.name], f.default))

    collect(TrainConfig, "")
    return tuple(options), sections


RUN_OPTIONS, _SECTION_TYPES = _run_options()


@dataclass
class TrainedModel:
    """Trained projections, temperature, vocabulary, and training history."""

    audio_projection: ProjectionParams
    text_projection: ProjectionParams
    log_tau_pred: float
    vocabulary: list[str]
    history: list[float] = field(default_factory=list)


def embed_audio(model: TrainedModel, features) -> np.ndarray:
    """Project raw audio feature rows and normalize to unit length."""
    x = as_matrix(features, "features")
    if x.shape[1] != model.audio_projection.in_dim:
        raise ShapeMismatch(
            f"features have {x.shape[1]} columns, the model's audio input width "
            f"is {model.audio_projection.in_dim}"
        )
    return l2_normalize_rows(model.audio_projection.project(x))


def embed_tag_lists(model: TrainedModel, tag_lists) -> np.ndarray:
    """Featurize and project a list of tag lists."""
    feats = featurize_tag_lists(tag_lists, model.vocabulary)
    return l2_normalize_rows(model.text_projection.project(feats))


def embed_query_labels(model: TrainedModel, labels) -> np.ndarray:
    """Embed bare label strings as single-tag queries.

    Raises UnknownQueryLabel naming every label missing from the model
    vocabulary.
    """
    known = set(model.vocabulary)
    missing = [lab for lab in labels if lab not in known]
    if missing:
        raise UnknownQueryLabel(
            "labels not in the model vocabulary: " + ", ".join(sorted(missing))
        )
    return embed_tag_lists(model, [[lab] for lab in labels])


def _tau_pred(log_tau: float) -> float:
    """exp(log_tau); an overflow is a NonFiniteValue. The SmoothingConfig
    built with it refuses an underflow to 0 (NonPositiveTemperature) and a
    value whose reciprocal overflows (NonFiniteValue)."""
    try:
        return math.exp(log_tau)
    except OverflowError:
        raise NonFiniteValue(f"tau_pred = exp({log_tau:.6g}) overflows") from None


def _tensor_views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive runs of a flat vector, one per shape, in order."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


def _param_shapes(proj_a: ProjectionParams, proj_t: ProjectionParams) -> list[tuple[int, ...]]:
    return [proj_a.weights.shape, proj_a.bias.shape, proj_t.weights.shape, proj_t.bias.shape, ()]


def _trusted_step(proj_a, proj_t, cfg, audio, text, local, grads) -> LossOutput:
    """Loss of one batch of float64 feature rows that :func:`train` has
    checked, and ``local``, their unit rows. Only what a step can fail on is
    checked: the norms of the projected rows, named as :class:`EmbeddingBatch`
    names them. The gradients of W_a, b_a, W_t, b_t and log_tau go into the
    views ``grads``, in that order."""
    za = proj_a.project(audio)
    zt = proj_t.project(text)
    try:
        norms_a, norms_t = row_norms(za, "audio"), row_norms(zt, "text")
    except (ZeroRow, NonFiniteValue):
        # the checked constructor names the first fault as a step always has
        EmbeddingBatch(za, zt, local)
        raise
    batch = EmbeddingBatch._of_unit_rows(
        za / norms_a[:, None], zt / norms_t[:, None], local, norms_a, norms_t
    )
    out = loss_and_grad(batch, cfg)
    # the gradients are with respect to the projected rows za and zt
    g_wa, g_ba, g_wt, g_bt, g_log_tau = grads
    dza, dzt = out.grad_audio, out.grad_text
    np.matmul(audio.T, dza, out=g_wa)
    np.add.reduce(dza, axis=0, out=g_ba)
    np.matmul(text.T, dzt, out=g_wt)
    np.add.reduce(dzt, axis=0, out=g_bt)
    g_log_tau[...] = out.grad_log_tau_pred
    return out


def train(audio_features, tag_lists, config: TrainConfig) -> TrainedModel:
    """Fit the two projections and log(tau_pred) on one in-memory dataset.

    The audio feature rows stand in for both the frozen encoder output and
    the pooled local features (the latter enter only the target branch).
    The final incomplete batch of each epoch is dropped; shuffling uses a
    counter-based generator keyed by (seed, epoch), so results are
    reproducible bit for bit.
    """
    x = as_matrix(audio_features, "audio_features")
    n = x.shape[0]
    if len(tag_lists) != n:
        raise LengthMismatch(f"{n} feature rows but {len(tag_lists)} tag lists")
    if n < config.batch_size:
        raise InsufficientData(
            f"{n} samples cannot fill one batch of {config.batch_size}"
        )
    vocabulary = sorted({tag for tags in tag_lists for tag in tags})
    if not vocabulary:
        raise EmptyVocabulary("no tags present in the training data")
    text_feats = featurize_tag_lists(tag_lists, vocabulary)
    # the feature rows are also the local audio features: their norms are
    # taken once, and a zero row fails here, before any step. A step divides
    # its own rows; unit rows of the whole matrix would stay live all run
    norms = row_norms(x, "audio_features")

    init_rng = _stream_rng(config.seed, _INIT_STREAM)
    proj_a = init_projection(x.shape[1], config.embed_dim, init_rng)
    proj_t = init_projection(len(vocabulary), config.embed_dim, init_rng)
    log_tau = math.log(config.smoothing.tau_pred)
    # the trained tensors become views of one vector in _param_shapes order,
    # and each step's gradients are written into views of another
    tensors = (proj_a.weights, proj_a.bias, proj_t.weights, proj_t.bias, log_tau)
    shapes = _param_shapes(proj_a, proj_t)
    flat = np.concatenate([np.ravel(t) for t in tensors])
    w_a, b_a, w_t, b_t, log_tau = _tensor_views(flat, shapes)
    proj_a, proj_t = ProjectionParams(w_a, b_a), ProjectionParams(w_t, b_t)
    state = AdamState.zeros_like(flat)
    grad = np.empty_like(flat)
    grads = _tensor_views(grad, shapes)

    b = config.batch_size
    history: list[float] = []
    for epoch in range(config.epochs):
        rng = _stream_rng(config.seed, _EPOCH_STREAM_BASE + epoch)
        perm = rng.permutation(n)
        losses: list[float] = []
        for start in range(0, n - b + 1, b):
            idx = perm[start : start + b]
            try:
                cfg = replace(config.smoothing, tau_pred=_tau_pred(float(log_tau)))
                audio = x[idx]
                out = _trusted_step(
                    proj_a, proj_t, cfg, audio, text_feats[idx], audio / norms[idx, None], grads
                )
                flat[:], state = adam_step(flat, grad, state, config.lr)
            except (
                ZeroRow, NonFiniteValue, NonPositiveTemperature, ZeroMassTarget, NonFiniteLoss
            ) as exc:
                raise TrainingStepFailed(
                    f"epoch {epoch}, batch start {start}: {exc}"
                ) from exc
            losses.append(out.value)
        history.append(float(np.mean(losses)))
    return TrainedModel(
        audio_projection=proj_a,
        text_projection=proj_t,
        log_tau_pred=float(log_tau),
        vocabulary=vocabulary,
        history=history,
    )
