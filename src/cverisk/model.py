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
from .records import CveRecord
from .vector import CvssVector, VectorError, parse_vector

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


class ScoringError(ValueError):
    """A record could not be scored; carries the CVE id for diagnostics."""

    def __init__(self, cve_id: str, reason: str) -> None:
        super().__init__(f"{cve_id}: {reason}")
        self.cve_id = cve_id
        self.reason = reason


@dataclass(frozen=True)
class ScoredRecord:
    record: CveRecord
    vector: CvssVector
    factors: tuple[float, ...]
    base_risk: float
    impact: float
    composite: float
    severity: Severity


def official_scores(records: Sequence[CveRecord]) -> np.ndarray:
    """The records' official scores; a record without one is an error."""
    scores = [r.official_score for r in records]
    if None in scores:
        raise ValueError(f"{records[scores.index(None)].cve_id} has no official score")
    return np.array(scores, dtype=float)


@dataclass(frozen=True, eq=False)
class ScoredBatch(Sequence):
    """Scored records: one ``_score_vector`` tuple per distinct vector code
    in ``table``, each record's row of it in ``rows``, and columns gathered
    from the table on first use. ``batch[k]`` is a ``ScoredRecord``; a
    slice, boolean mask or index array (or list) gives a sub-batch over the
    same table and thresholds."""

    records: Sequence[CveRecord]
    table: Sequence[tuple]
    rows: np.ndarray
    thresholds: SeverityThresholds

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return ScoredRecord(self.records[key], *self.table[self.rows[key]])
        index = np.arange(len(self))[key].tolist()
        return replace(self, records=[self.records[k] for k in index], rows=self.rows[index])

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
        return official_scores(self.records)


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


def score_record(
    record: CveRecord, config: ModelConfig | None = None, *, lenient: bool = False
) -> ScoredRecord:
    """Parse, encode, and score one record.

    Raises ``ScoringError`` tagged with the CVE id when the record has no
    vector string or the string fails to parse.
    """
    if not record.vector_string:
        raise ScoringError(record.cve_id, _NO_VECTOR)
    try:
        vector = parse_vector(record.vector_string, lenient=lenient)
    except VectorError as exc:
        raise ScoringError(record.cve_id, str(exc)) from exc
    return ScoredRecord(record, *_score_vector(vector, config or ModelConfig()))


def score_records(
    records: Iterable[CveRecord], config: ModelConfig | None = None, *, lenient: bool = False
) -> tuple[ScoredBatch, list[tuple[CveRecord, str]]]:
    """Score a batch; unscoreable records come back as (record, reason) pairs.

    Gives the same results as ``score_record`` per record, but parses each
    distinct vector string and scores each distinct vector code once, into
    one row of the batch's table.
    """
    config = config or ModelConfig()
    by_string: dict[str, int | str] = {}  # table row, or why parsing failed
    by_code: dict[int, int] = {}
    table: list[tuple] = []
    kept: list[CveRecord] = []
    rows: list[int] = []
    skipped: list[tuple[CveRecord, str]] = []
    for record in records:
        text = record.vector_string
        row = by_string.get(text) if text else _NO_VECTOR
        if row is None:
            try:
                vector = parse_vector(text, lenient=lenient)
            except VectorError as exc:
                row = str(exc)
            else:
                row = by_code.setdefault(vector.code, len(table))
                if row == len(table):
                    table.append(_score_vector(vector, config))
            by_string[text] = row
        if isinstance(row, str):
            skipped.append((record, row))
        else:
            kept.append(record)
            rows.append(row)
    return ScoredBatch(kept, table, np.array(rows, dtype=np.intp), config.thresholds), skipped
