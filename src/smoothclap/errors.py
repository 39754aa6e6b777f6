"""Exception hierarchy shared by all modules."""


class SmoothClapError(Exception):
    """Base class for every error raised by this package."""


# --- shape / value validation ---

class ShapeMismatch(SmoothClapError):
    """Operands have incompatible shapes."""


class NotSquare(SmoothClapError):
    """A square matrix was required."""


class NonFiniteValue(SmoothClapError):
    """Input contains NaN or Inf."""


class ZeroRow(SmoothClapError):
    """A row with (near-)zero norm cannot be normalized."""


class EmptyInput(SmoothClapError):
    """An empty sequence was passed where values are required."""


class NonPositiveTemperature(SmoothClapError):
    """Softmax temperatures must be strictly positive."""


class PercentileOutOfRange(SmoothClapError):
    """A percentile rank must lie in (0, 100]."""


# --- objective configuration ---

class GammaOutOfRange(SmoothClapError):
    """Mix weight gamma must lie in [0, 1]."""


class BetaOutOfRange(SmoothClapError):
    """Fusion factor beta must lie in [0, 1]."""


class ZeroMassTarget(SmoothClapError):
    """Symmetric KL needs strictly positive target distributions."""


# --- audio decoding and feature extraction ---

class UnsupportedFormat(SmoothClapError):
    """WAV encoding other than PCM-16 or IEEE float32, or a sample rate out of range."""


class CorruptHeader(SmoothClapError):
    """File is not a well-formed RIFF/WAVE container."""


class EmptyAudio(SmoothClapError):
    """Decoded audio contains no samples."""


class SignalTooShort(SmoothClapError):
    """Signal shorter than one analysis frame."""


class TooShort(SmoothClapError):
    """Utterance below the minimum analyzable duration."""


class AmplitudeOutOfRange(SmoothClapError):
    """Waveform samples outside [-1, 1]."""


class FractionalPeriod(SmoothClapError):
    """A synthesized tone's period is not a whole number of samples."""


# --- tagging ---

class TooFewValues(SmoothClapError):
    """Not enough corpus values to fit bin thresholds."""


class MissingThresholds(SmoothClapError):
    """A referenced feature has no fitted thresholds."""


class UnknownLabel(SmoothClapError):
    """Categorical label outside the closed template vocabulary."""


# --- training ---

class EmptyVocabulary(SmoothClapError):
    """Text featurizer needs a non-empty tag vocabulary."""


class InsufficientData(SmoothClapError):
    """Fewer samples than one training batch."""


class ComputationFailure(SmoothClapError):
    """Valid inputs and configuration, but the computation broke down (CLI exit 1)."""


class NonFiniteLoss(ComputationFailure):
    """Training produced NaN or Inf loss."""


class TrainingStepFailed(ComputationFailure):
    """A training step broke down: a zero-norm or non-finite projection row, a
    temperature out of range, targets below the KL floor, or a non-finite loss.
    The message names the epoch and batch start; the error is the ``__cause__``."""


class InconsistentF0Track(ComputationFailure):
    """An F0 track breaks its invariants: ``frames_hz`` and ``voiced`` differ
    in shape, or a frame's F0 is 0 but voiced, nonzero but unvoiced, or
    negative."""


# --- evaluation ---

class LabelOutOfRange(SmoothClapError):
    """Class label outside [0, num_classes)."""


class LengthMismatch(SmoothClapError):
    """Paired sequences differ in length."""


class RaggedRows(SmoothClapError):
    """CSV rows have inconsistent width."""


class NonNumericCell(SmoothClapError):
    """CSV cell could not be parsed as a number."""


class DuplicateId(SmoothClapError):
    """The same id appears more than once."""


class UnknownQueryLabel(SmoothClapError):
    """Query label missing from the model vocabulary."""


# --- CLI / configuration files ---

class ConfigError(SmoothClapError):
    """Bad run configuration (unknown key, wrong type, bad value)."""
