"""Textual tags from dataset labels and acoustic profiles.

Continuous sources (dimensional ratings and acoustic features) are cut into
three bins at the empirical 30th and 70th percentiles and rendered with a
closed template vocabulary. Categorical labels pass through verbatim after
validation. Tag order is fixed (labels, then dimensions, then acoustics) so
outputs are byte-reproducible.
"""
from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import (
    ConfigError,
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
# every binned feature, in tag order
BINNED_FEATURES = DIMENSION_FEATURES + ACOUSTIC_FEATURES


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
            raise ConfigError(
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


def _bin_codes(values, thresholds: BinThresholds):
    """Bin value of each element, one comparison per threshold: ``low <= high``
    makes ``(v > low) + (v > high)`` the rule of ``assign_bin``."""
    return (values > thresholds.low).astype(np.int8) + (values > thresholds.high)


def assign_bin(value: float, thresholds: BinThresholds) -> Bin:
    """Low if value <= low, High if value > high, Mid otherwise.

    Boundaries are inclusive on the low side, so with degenerate thresholds
    (low == high) only exact-threshold values map Low and larger ones High.
    """
    if not np.isfinite(value):
        raise NonFiniteValue(f"cannot bin non-finite value {value}")
    return Bin(int(_bin_codes(np.float64(value), thresholds)))


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


@dataclass(frozen=True)
class TagTable:
    """Rendered tags of many utterances, one row each.

    ``codes`` holds, for each binned feature that some row has, the Bin value
    of every row as an int8 column, with -1 where the row has no value.
    """

    ids: list[str]
    tags: list[list[str]]
    codes: dict[str, np.ndarray]

    def record(self, row: int) -> TagRecord:
        bins = {f: Bin(int(c[row])).key for f, c in self.codes.items() if c[row] >= 0}
        return TagRecord(utterance_id=self.ids[row], tags=self.tags[row], bins=bins)


def _feature_tag(feature: str, b: Bin) -> str:
    if feature in DIMENSION_FEATURES:
        words = _DIM_WORDS
    elif feature == "duration":
        words = _DURATION_WORDS
    else:
        words = _ACOUSTIC_WORDS
    return f"{words[int(b)]} {feature}"


# the tag of each feature by bin code; code -1 (no value) indexes the None
_TAGS_BY_CODE = {f: tuple(_feature_tag(f, b) for b in Bin) + (None,) for f in BINNED_FEATURES}


def profile_feature_values(profile: AcousticProfile) -> dict[str, float]:
    """The binnable scalar features of a profile, keyed by tag feature name."""
    return {name: float(getattr(profile, key)) for name, key in PROFILE_FIELDS.items()}


def _columns(dims: Sequence[Mapping], acoustics: Sequence[Mapping]):
    """(feature, values, present) for each binned feature in tag order that
    some record has: its values as a float column, NaN where a record lacks
    it, and the mask of the records that have it."""
    for features, records in ((DIMENSION_FEATURES, dims), (ACOUSTIC_FEATURES, acoustics)):
        for feature in features:
            values = np.array([r.get(feature, np.nan) for r in records], dtype=np.float64)
            present = ~np.isnan(values)
            if not present.all():  # a record lacks the feature, or has NaN
                present = np.array([feature in r for r in records], dtype=bool)
            if present.any():
                yield feature, values, present


def fit_thresholds(
    dims: Sequence[Mapping[str, float]], acoustics: Sequence[Mapping[str, float]]
) -> dict[str, BinThresholds]:
    """Thresholds of each binned feature that some record has, from one
    ``fit_bins`` call on all its values: ratings from the ``dims`` records,
    acoustic features from the ``acoustics`` records."""
    return {
        feature: fit_bins(values[present], feature)
        for feature, values, present in _columns(dims, acoustics)
    }


def render_tag_table(
    ids: Sequence[str],
    labels: Sequence[Mapping[str, str]],
    dims: Sequence[Mapping[str, float]],
    acoustics: Sequence[Mapping[str, float]],
    thresholds: dict[str, BinThresholds],
    templates: TemplateSet = OPEN_TEMPLATES,
) -> TagTable:
    """Render the tags of many utterances at once; row i is what
    ``render_tags(ids[i], labels[i], dims[i], acoustics[i], ...)`` gives.

    Each categorical label is checked once per distinct value, and each binned
    feature is binned as one column. Tags take the fixed order of
    ``render_tags`` and each row keeps the first of equal tags. Of the faults,
    the one raised is the one ``render_tags`` meets first: the earliest row,
    and within it the first in tag order.
    """
    faults = []  # (row, error), in tag order within a row
    columns = []  # one per tag slot: the tag of every row, None where it has none
    for kind in LABEL_KINDS:
        column = [r.get(kind) for r in labels]
        for value in set(column) - {None}:
            try:
                templates.check_label(kind, value)
            except UnknownLabel as exc:
                faults.append((column.index(value), exc))
        columns.append(column)
    codes = {}
    for feature, values, present in _columns(dims, acoustics):
        if feature not in thresholds:
            error = MissingThresholds(f"no thresholds fitted for {feature}")
            faults.append((int(present.argmax()), error))
            continue
        bad = present & ~np.isfinite(values)
        if bad.any():
            row = int(bad.argmax())
            faults.append((row, NonFiniteValue(f"cannot bin non-finite value {values[row]}")))
        code = _bin_codes(values, thresholds[feature])
        code[~present] = -1
        codes[feature] = code
        columns.append([_TAGS_BY_CODE[feature][c] for c in code.tolist()])
    if faults:
        # min keeps the first of equal rows, so the first in tag order
        raise min(faults, key=lambda fault: fault[0])[1]
    tags = []
    for row in zip(*columns):
        unique = dict.fromkeys(row)
        unique.pop(None, None)
        tags.append(list(unique))
    return TagTable(ids=list(ids), tags=tags, codes=codes)


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
    if isinstance(acoustics, AcousticProfile):
        acoustics = profile_feature_values(acoustics)
    table = render_tag_table(
        [utterance_id], [labels or {}], [dims or {}], [acoustics or {}], thresholds, templates
    )
    return table.record(0)
