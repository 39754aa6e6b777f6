"""Soft-target contrastive audio-text objective with paralinguistic tagging.

The package covers the full desk-scale pipeline: numeric kernels, the
hard/soft contrastive objectives with analytic gradients, acoustic feature
extraction, percentile-binned tag generation, deterministic training, and
zero-shot evaluation, all exposed through the ``smoothclap`` CLI.
"""

__version__ = "0.1.0"  # before the imports: artifacts writes it into every header

from .errors import SmoothClapError
from .evaluation import EvalReport, confusion_and_uar, zero_shot_classify
from .numeric import (
    gram,
    kl_rows,
    l2_normalize_rows,
    percentile_nearest_rank,
    row_softmax,
)
from .objective import (
    EmbeddingBatch,
    KLMode,
    LossOutput,
    SmoothingConfig,
    clap_infonce,
    loss_and_grad,
    soft_loss,
)
from .paralinguistics import AcousticProfile, Waveform, acoustic_profile, load_wav
from .tagging import BinThresholds, TagRecord, assign_bin, fit_bins, render_tags
from .trainer import TrainConfig, TrainedModel, adam_step, featurize_text, train

__all__ = [
    "AcousticProfile",
    "BinThresholds",
    "EmbeddingBatch",
    "EvalReport",
    "KLMode",
    "LossOutput",
    "SmoothClapError",
    "SmoothingConfig",
    "TagRecord",
    "TrainConfig",
    "TrainedModel",
    "Waveform",
    "acoustic_profile",
    "adam_step",
    "assign_bin",
    "clap_infonce",
    "confusion_and_uar",
    "featurize_text",
    "fit_bins",
    "gram",
    "kl_rows",
    "l2_normalize_rows",
    "load_wav",
    "loss_and_grad",
    "percentile_nearest_rank",
    "render_tags",
    "row_softmax",
    "soft_loss",
    "train",
    "zero_shot_classify",
]
