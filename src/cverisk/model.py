"""Weighted severity scoring: exploitability aggregation, CIA impact, and the
rounded composite score with its severity classification."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, fields, replace
from enum import IntEnum
from functools import cached_property

import numpy as np

from .encoding import ETA, FACTOR_NAMES, AttributeMaps, encode_factors
from .records import CveRecord, RecordColumns
from .vector import CvssVector, VectorError, parse_vector, vector_codes, vector_of

#: Absolute slack absorbed when deciding whether a value already sits on the
#: rounding grid.
GRID_TOLERANCE = 1e-9

SIMPLEX_TOLERANCE = 1e-12


class Severity(IntEnum):
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    CRITICAL = 4

    @property
    def label(self) -> str:
        return self.name.capitalize()


@dataclass(frozen=True)
class ModelWeights:
    """Exploitability weights (a point on the unit simplex), CIA weights,
    scale factor, and score granularity."""

    alpha: float
    beta: float
    gamma: float
    lambda_c: float = 1.0
    lambda_i: float = 1.0
    lambda_a: float = 1.0
    kappa: float = 1.0
    delta: float = 0.1

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if min(self.alpha, self.beta, self.gamma) < 0.0:
            raise ValueError("alpha, beta, gamma must be non-negative")
        if abs(self.alpha + self.beta + self.gamma - 1.0) > SIMPLEX_TOLERANCE:
            raise ValueError("alpha + beta + gamma must equal 1")
        for name in ("lambda_c", "lambda_i", "lambda_a"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")


@dataclass(frozen=True)
class SeverityThresholds:
    """Severity class boundaries on the 0-10 score scale."""

    tau1: float = 4.0
    tau2: float = 7.0
    tau3: float = 9.0

    def __post_init__(self) -> None:
        if not 0.0 < self.tau1 < self.tau2 < self.tau3 <= 10.0:
            raise ValueError("thresholds must satisfy 0 < tau1 < tau2 < tau3 <= 10")


@dataclass(frozen=True)
class ModelConfig:
    """All scoring constants: attribute maps, weights, and thresholds."""

    maps: AttributeMaps = field(default_factory=AttributeMaps)
    weights: ModelWeights = field(default_factory=lambda: ModelWeights(1 / 3, 1 / 3, 1 / 3))
    thresholds: SeverityThresholds = field(default_factory=SeverityThresholds)


@dataclass(frozen=True)
class ScoredRecord:
    record: CveRecord
    vector: CvssVector
    factors: tuple[float, ...]
    base_risk: float
    impact: float
    composite: float
    severity: Severity


@dataclass(frozen=True, eq=False)
class ScoredBatch(Sequence):
    """Scored records (as ``RecordColumns``): one ``_score_vector`` tuple
    per distinct vector code in ``table``, each record's row of it in
    ``rows``, and columns gathered from the table on first use. ``batch[k]``
    is a ``ScoredRecord``; a slice, or a boolean mask or positions as an
    array or a list, gives a sub-batch over the same table and thresholds."""

    records: RecordColumns
    table: Sequence[tuple]
    rows: np.ndarray
    thresholds: SeverityThresholds

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return ScoredRecord(self.records[key], *self.table[self.rows[key]])
        return replace(self, records=self.records[key], rows=self.rows[key])

    def _column(self, k: int, dtype=float) -> np.ndarray:
        return np.array([entry[k] for entry in self.table], dtype=dtype)[self.rows]

    @cached_property
    def codes(self) -> np.ndarray:
        return np.array([v.code for v, *_ in self.table], dtype=np.intp)[self.rows]

    @cached_property
    def factors(self) -> np.ndarray:
        """(n, 8) encoded factors, columns ordered like ``FACTOR_NAMES``."""
        return self._column(1).reshape(-1, len(FACTOR_NAMES))

    @cached_property
    def base_risk(self) -> np.ndarray:
        return self._column(2)

    @cached_property
    def impact(self) -> np.ndarray:
        return self._column(3)

    @cached_property
    def composite(self) -> np.ndarray:
        return self._column(4)

    @cached_property
    def severity(self) -> np.ndarray:
        """``Severity`` values, 1 (Low) to 4 (Critical)."""
        return self._column(5, np.intp)

    @cached_property
    def officials(self) -> np.ndarray:
        """Official scores; a record without one is an error."""
        officials = self.records.officials
        if None in officials:
            raise ValueError(f"{self.records.ids[officials.index(None)]} has no official score")
        return np.array(officials, dtype=float)


def round_up(x: float, delta: float) -> float:
    """Smallest multiple of ``delta`` at or above ``x``, absorbing float dust."""
    return math.ceil(x / delta - GRID_TOLERANCE) * delta


def base_risk(v: CvssVector, maps: AttributeMaps, w: ModelWeights) -> float:
    """Weighted sum of the three exploitability encodings."""
    return w.alpha * maps.phi[v.av] + w.beta * maps.psi[v.ac] + w.gamma * maps.omega[v.pr]


def impact_score(v: CvssVector, w: ModelWeights) -> float:
    """Complement-product aggregation of the weighted C/I/A impact values."""
    return 1.0 - (
        (1.0 - w.lambda_c * ETA[v.c])
        * (1.0 - w.lambda_i * ETA[v.i])
        * (1.0 - w.lambda_a * ETA[v.a])
    )


def composite_score(rb: float, impact: float, w: ModelWeights) -> float:
    """Scale the exploitability/impact product to 0-10, round up to the
    ``delta`` grid, and cap at exactly 10."""
    return min(10.0, round_up(10.0 * rb * impact * w.kappa, w.delta))


def classify(sv: float, t: SeverityThresholds = SeverityThresholds()) -> Severity:
    """Map a composite score to a severity level; lower bounds are inclusive."""
    if not 0.0 <= sv <= 10.0:
        raise ValueError(f"score {sv} outside [0, 10]")
    if sv < t.tau1:
        return Severity.LOW
    if sv < t.tau2:
        return Severity.MEDIUM
    if sv < t.tau3:
        return Severity.HIGH
    return Severity.CRITICAL


_NO_VECTOR = "no CVSS v3.1 vector string"


def _score_vector(vector: CvssVector, config: ModelConfig) -> tuple:
    """Every ``ScoredRecord`` field after ``record``, for one vector."""
    rb = base_risk(vector, config.maps, config.weights)
    impact = impact_score(vector, config.weights)
    composite = composite_score(rb, impact, config.weights)
    factors = encode_factors(vector, config.maps)
    return vector, factors, rb, impact, composite, classify(composite, config.thresholds)


def score_records(
    records: Iterable[CveRecord], config: ModelConfig | None = None, *, lenient: bool = False
) -> tuple[ScoredBatch, list[tuple[str, str]]]:
    """Score a batch; unscoreable records come back as (cve_id, reason) pairs.

    Recognizes the distinct vector strings in bulk (``vector_codes``) and
    scores each distinct vector code once, into one row of the batch's
    table, in code order; ``parse_vector`` runs only on the strings that
    do not parse, for their error text. A record scores the same alone as
    in any batch. No ``CveRecord`` is built: the batch selects the kept
    records' columns.
    """
    config = config or ModelConfig()
    records = RecordColumns.of(records)
    index: dict[str | None, int] = {}  # each distinct string's position in ``texts``
    which = np.fromiter(
        (index.setdefault(text, len(index)) for text in records.vectors), np.intp, len(records)
    )
    texts = list(index)
    del index
    codes = vector_codes([text or "" for text in texts], lenient)
    reasons: dict[int, str] = {}  # why each string without a code is skipped
    for k in np.flatnonzero(codes < 0).tolist():
        if not texts[k]:
            reasons[k] = _NO_VECTOR
            continue
        try:
            parse_vector(texts[k], lenient=lenient)
        except VectorError as exc:
            reasons[k] = str(exc)
    record_codes = codes[which]
    kept = record_codes >= 0
    order, rows = np.unique(record_codes[kept], return_inverse=True)
    table = [_score_vector(vector_of(code), config) for code in order.tolist()]
    skipped = [(records.ids[k], reasons[which[k]]) for k in np.flatnonzero(~kept).tolist()]
    batch = ScoredBatch(records[kept], table, rows, config.thresholds)
    return batch, skipped
