"""Textual tags from dataset labels and acoustic profiles.

Continuous sources (dimensional ratings and acoustic features) are cut into
three bins at the empirical 30th and 70th percentiles and rendered with a
closed template vocabulary. Categorical labels pass through verbatim after
validation. Tag order is fixed (labels, then dimensions, then acoustics) so
outputs are byte-reproducible.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import (
    MissingThresholds,
    NonFiniteValue,
    TooFewValues,
    UnknownLabel,
)
from .numeric import percentile_nearest_rank
from .paralinguistics import AcousticProfile

LOW_PERCENTILE = 30.0
HIGH_PERCENTILE = 70.0

LABEL_KINDS = ("emotion", "gender")
DIMENSION_FEATURES = ("arousal", "valence", "dominance")
# tag feature name -> AcousticProfile field (also its profile-record key)
PROFILE_FIELDS = {
    "pitch": "pitch_mean_hz",
    "intensity": "intensity_mean_db",
    "jitter": "jitter",
    "shimmer": "shimmer",
    "duration": "duration_s",
}
ACOUSTIC_FEATURES = tuple(PROFILE_FIELDS)


class Bin(IntEnum):
    LOW = 0
    MID = 1
    HIGH = 2

    @property
    def key(self) -> str:
        return ("low", "mid", "high")[int(self)]


_DIM_WORDS = ("low", "mid", "high")
_ACOUSTIC_WORDS = ("low", "normal", "high")
_DURATION_WORDS = ("short", "medium", "long")

TEMPLATE_TAG_PATTERN = re.compile(
    r"^(?:(low|mid|high) (arousal|valence|dominance)"
    r"|(low|normal|high) (pitch|intensity|jitter|shimmer)"
    r"|(short|medium|long) duration)$"
)


@dataclass(frozen=True)
class BinThresholds:
    """30th/70th percentile cut points for one feature."""

    feature_name: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.low) and np.isfinite(self.high)):
            raise NonFiniteValue(f"thresholds for {self.feature_name} are not finite")
        if self.low > self.high:
            raise ValueError(
                f"low threshold {self.low} exceeds high threshold {self.high}"
            )


def fit_bins(values, feature_name: str) -> BinThresholds:
    """Fit nearest-rank 30th/70th percentile thresholds from corpus values."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1 or vals.size < 3:
        raise TooFewValues(
            f"need at least 3 values to fit bins for {feature_name}, got {vals.size}"
        )
    if not np.all(np.isfinite(vals)):
        raise NonFiniteValue(f"values for {feature_name} contain NaN or Inf")
    return BinThresholds(
        feature_name=feature_name,
        low=percentile_nearest_rank(vals, LOW_PERCENTILE),
        high=percentile_nearest_rank(vals, HIGH_PERCENTILE),
    )


def assign_bin(value: float, thresholds: BinThresholds) -> Bin:
    """Low if value <= low, High if value > high, Mid otherwise.

    Boundaries are inclusive on the low side, so with degenerate thresholds
    (low == high) only exact-threshold values map Low and larger ones High.
    """
    if not np.isfinite(value):
        raise NonFiniteValue(f"cannot bin non-finite value {value}")
    if value <= thresholds.low:
        return Bin.LOW
    if value > thresholds.high:
        return Bin.HIGH
    return Bin.MID


@dataclass(frozen=True)
class TemplateSet:
    """Closed vocabulary for rendered tags.

    ``emotions`` and ``genders`` restrict the categorical labels; ``None``
    accepts any non-empty string (used while fitting, before the observed
    label sets are frozen into the thresholds sidecar).
    """

    emotions: frozenset[str] | None = None
    genders: frozenset[str] | None = None

    @classmethod
    def closed_to(cls, label_sets: dict[str, set[str] | list[str]]) -> "TemplateSet":
        """Closed to the given labels of each kind; a kind not given stays open."""
        closed = {kind: frozenset(labels) for kind, labels in label_sets.items()}
        return cls(emotions=closed.get("emotion"), genders=closed.get("gender"))

    def check_label(self, kind: str, value: str) -> str:
        if not value:
            raise UnknownLabel(f"empty {kind} label")
        allowed = self.emotions if kind == "emotion" else self.genders
        if allowed is not None and value not in allowed:
            raise UnknownLabel(f"unknown {kind} label: {value!r}")
        return value

    def contains_tag(self, tag: str) -> bool:
        """True iff the tag belongs to the closed vocabulary of this set."""
        if TEMPLATE_TAG_PATTERN.match(tag):
            return True
        return tag in (self.emotions or ()) or tag in (self.genders or ())


OPEN_TEMPLATES = TemplateSet()


@dataclass
class TagRecord:
    """Rendered tags for one utterance and the bin of each binned feature."""

    utterance_id: str
    tags: list[str]
    bins: dict[str, str] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"id": self.utterance_id, "tags": list(self.tags), "bins": dict(self.bins)}


def _dim_tag(feature: str, b: Bin) -> str:
    return f"{_DIM_WORDS[int(b)]} {feature}"


def _acoustic_tag(feature: str, b: Bin) -> str:
    if feature == "duration":
        return f"{_DURATION_WORDS[int(b)]} duration"
    return f"{_ACOUSTIC_WORDS[int(b)]} {feature}"


def profile_feature_values(profile: AcousticProfile) -> dict[str, float]:
    """The binnable scalar features of a profile, keyed by tag feature name."""
    return {name: float(getattr(profile, key)) for name, key in PROFILE_FIELDS.items()}


def render_tags(
    utterance_id: str,
    labels: dict[str, str] | None,
    dims: dict[str, float] | None,
    acoustics: AcousticProfile | dict[str, float] | None,
    thresholds: dict[str, BinThresholds],
    templates: TemplateSet = OPEN_TEMPLATES,
) -> TagRecord:
    """Render the fixed-order tag list for one utterance.

    Every referenced continuous feature must have fitted thresholds;
    categorical labels must belong to the template set. Sources that are
    absent are simply skipped, so a record with only a duration value yields
    a single duration tag. ``acoustics`` may be a whole profile or a mapping
    with a subset of the acoustic feature names.
    """
    labels = labels or {}
    dims = dims or {}
    if isinstance(acoustics, AcousticProfile):
        acoustics = profile_feature_values(acoustics)
    acoustics = acoustics or {}
    tags: list[str] = []
    bins: dict[str, str] = {}

    for kind in LABEL_KINDS:
        if kind in labels:
            tags.append(templates.check_label(kind, labels[kind]))

    for feature in DIMENSION_FEATURES:
        if feature not in dims:
            continue
        if feature not in thresholds:
            raise MissingThresholds(f"no thresholds fitted for {feature}")
        b = assign_bin(float(dims[feature]), thresholds[feature])
        bins[feature] = b.key
        tags.append(_dim_tag(feature, b))

    for feature in ACOUSTIC_FEATURES:
        if feature not in acoustics:
            continue
        if feature not in thresholds:
            raise MissingThresholds(f"no thresholds fitted for {feature}")
        b = assign_bin(float(acoustics[feature]), thresholds[feature])
        bins[feature] = b.key
        tags.append(_acoustic_tag(feature, b))

    seen: set[str] = set()
    unique_tags = [t for t in tags if not (t in seen or seen.add(t))]
    return TagRecord(utterance_id=utterance_id, tags=unique_tags, bins=bins)
