"""Soft-target contrastive audio-text objective with paralinguistic tagging.

The package covers the full desk-scale pipeline: numeric kernels, the
hard/soft contrastive objectives with analytic gradients, acoustic feature
extraction, percentile-binned tag generation, deterministic training, and
zero-shot evaluation, all exposed through the ``smoothclap`` CLI.
"""

__version__ = "0.1.0"  # before the imports: artifacts writes it into every header

from .errors import SmoothClapError
from .evaluation import EvalReport, confusion_and_uar, zero_shot_classify
from .numeric import l2_normalize_rows, percentile_nearest_rank
from .objective import EmbeddingBatch, KLMode, LossOutput, SmoothingConfig, loss_and_grad
from .paralinguistics import AcousticProfile, Waveform, acoustic_profile, load_wav
from .tagging import BinThresholds, fit_bins
from .trainer import TrainConfig, TrainedModel, adam_step, train

__all__ = [
    "AcousticProfile",
    "BinThresholds",
    "EmbeddingBatch",
    "EvalReport",
    "KLMode",
    "LossOutput",
    "SmoothClapError",
    "SmoothingConfig",
    "TrainConfig",
    "TrainedModel",
    "Waveform",
    "acoustic_profile",
    "adam_step",
    "confusion_and_uar",
    "fit_bins",
    "l2_normalize_rows",
    "load_wav",
    "loss_and_grad",
    "percentile_nearest_rank",
    "train",
    "zero_shot_classify",
]
