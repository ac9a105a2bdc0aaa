"""Correlation, conditional, distribution, and benchmark statistics over
scored vulnerability records, read as columns of a ``ScoredBatch``.

Official-severity categories use the thresholds the batch was scored with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .encoding import FACTOR_NAMES
from .model import ScoredBatch, Severity
from .vector import METRIC_NAMES, metric_labels, metric_level


class TooFewRowsError(ValueError):
    """The statistic needs more rows (records, scores or pairs) than were supplied."""


class UnknownFactorError(ValueError):
    """A categorical factor name is not registered."""


class DimensionMismatchError(ValueError):
    """Vector/matrix shapes do not line up, or paired inputs differ in length."""


# --------------------------------------------------------------------------
# categorical factors
# --------------------------------------------------------------------------


_SEVERITY_DOMAIN = tuple(s.label for s in Severity)

#: Categorical factor name -> its category labels, in index order.
CATEGORICAL_FACTORS: dict[str, tuple[str, ...]] = {
    **{name: metric_labels(name) for name in METRIC_NAMES},
    "combined_cia": metric_labels("C"),
    "severity": _SEVERITY_DOMAIN,
    "official_severity": _SEVERITY_DOMAIN,
}


def category_index(scored: ScoredBatch, name: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The category labels of factor ``name`` and each record's index into them.

    Vector metrics come from the vector codes; ``combined_cia`` is the worst
    of the C/I/A levels; ``official_severity`` classifies the official score
    under the batch's thresholds, ``severity`` is the model's classification.
    """
    try:
        domain = CATEGORICAL_FACTORS[name]
    except KeyError:
        raise UnknownFactorError(f"unknown categorical factor {name!r}") from None
    if name == "severity":
        index = scored.severity - 1
    elif name == "official_severity":
        t = scored.thresholds
        index = np.searchsorted((t.tau1, t.tau2, t.tau3), scored.officials, side="right")
    else:
        codes = scored.codes
        if name == "combined_cia":
            index = np.maximum.reduce([metric_level(codes, m) for m in "CIA"])
        else:
            index = metric_level(codes, name)
    return domain, index


def _cell_sums(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int], weights=None):
    """Per-cell counts (or, with ``weights``, sums accumulated in record
    order) over a ``shape`` grid of (row, col) category pairs."""
    cells = rows * shape[1] + cols
    return np.bincount(cells, weights, minlength=shape[0] * shape[1]).reshape(shape)


# --------------------------------------------------------------------------
# factor matrix and correlations
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorMatrix:
    """Rows of numeric risk factors, columns ordered like ``factor_names``."""

    factor_names: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[1] != len(self.factor_names):
            raise DimensionMismatchError("rows must be n x len(factor_names)")
        if len(self.factor_names) < 2:
            raise ValueError("need at least two factors")
        if len(set(self.factor_names)) != len(self.factor_names):
            raise ValueError("factor names must be unique")

    @classmethod
    def from_scored(cls, scored: ScoredBatch) -> FactorMatrix:
        """Eight encoded factors per record, plus the official CVSS column."""
        return cls(FACTOR_NAMES + ("CVSS",), np.column_stack([scored.factors, scored.officials]))


@dataclass(frozen=True)
class CorrelationMatrix:
    labels: tuple[str, ...]
    values: np.ndarray
    constant_labels: tuple[str, ...] = ()

    def undefined_pairs(self) -> list[tuple[str, str]]:
        """Off-diagonal pairs whose correlation is undefined (NaN)."""
        out = []
        m = len(self.labels)
        for i in range(m):
            for j in range(i + 1, m):
                if math.isnan(self.values[i, j]):
                    out.append((self.labels[i], self.labels[j]))
        return out


def correlation_matrix(fm: FactorMatrix) -> CorrelationMatrix:
    """Pearson correlation for every factor pair.

    Columns with no variation produce NaN entries and are reported in
    ``constant_labels`` instead of being silently zeroed. Needs at least
    two rows.
    """
    if len(fm.rows) < 2:
        raise TooFewRowsError(f"need at least 2 rows, got {len(fm.rows)}")
    columns = fm.rows.T.copy()
    constant = np.array([bool(np.all(col == col[0])) for col in columns])
    columns -= columns.mean(axis=1, keepdims=True)
    # One sum per pair, in numpy's fixed order: a BLAS product's summation
    # order, and so its last bits, depend on the kernel picked for the CPU.
    cov = np.empty((len(columns),) * 2)
    for i, j in zip(*np.triu_indices(len(columns))):
        cov[i, j] = cov[j, i] = (columns[i] * columns[j]).sum()
    scale = np.sqrt(np.diag(cov))
    scale[constant] = np.nan
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = cov / np.outer(scale, scale)
    corr = np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)  # constant columns' entries go NaN below
    corr[constant, :] = math.nan
    corr[:, constant] = math.nan
    labels = fm.factor_names
    flagged = tuple(label for label, const in zip(labels, constant) if const)
    return CorrelationMatrix(labels, corr, flagged)


# --------------------------------------------------------------------------
# conditional matrices
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionalMatrix:
    """P[row][col] = P(Y=col | X=row), with each cell's count and mean official score."""

    row_domain: tuple[str, ...]
    col_domain: tuple[str, ...]
    probs: np.ndarray
    counts: np.ndarray
    means: np.ndarray
    empty_rows: tuple[str, ...] = ()


def conditional_matrix(scored: ScoredBatch, x: str, y: str) -> ConditionalMatrix:
    """The x/y contingency table: counts, the conditional distribution of
    factor ``y`` given factor ``x``, and the mean official score per cell.

    Rows over categories of ``x`` that never occur are all-zero and flagged
    in ``empty_rows`` rather than renormalized; empty cells have a NaN mean.
    Every record needs an official score.
    """
    row_domain, rows = category_index(scored, x)
    col_domain, cols = category_index(scored, y)
    shape = (len(row_domain), len(col_domain))
    counts = _cell_sums(rows, cols, shape)
    sums = _cell_sums(rows, cols, shape, scored.officials)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), math.nan)
    row_totals = counts.sum(axis=1)
    probs = np.zeros(shape, dtype=float)
    filled = row_totals > 0
    probs[filled] = counts[filled] / row_totals[filled, None]
    empty = tuple(label for label, total in zip(row_domain, row_totals) if total == 0)
    return ConditionalMatrix(row_domain, col_domain, probs, counts, means, empty)


# --------------------------------------------------------------------------
# joint risk index
# --------------------------------------------------------------------------


def joint_risk_index(fm: FactorMatrix, corr: CorrelationMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Sum of |r| * r over the factor pairs where both factors reach their
    column medians; pairs with an undefined correlation add nothing.

    A row's index depends only on which factors are active, so the sum is
    taken once per distinct activation pattern. Returns the index of each
    pattern and each row's pattern number: ``per_pattern[pattern]`` is the
    per-row index. Takes at most 64 factors, one bit each of a pattern code.
    """
    if corr.labels != fm.factor_names:
        raise DimensionMismatchError("correlation labels do not match the factor names")
    if len(fm.factor_names) > 64:
        raise DimensionMismatchError("the joint risk index takes at most 64 factors")
    r = np.nan_to_num(corr.values, nan=0.0)
    terms = np.abs(r) * r
    active = fm.rows >= np.median(fm.rows, axis=0)
    codes = active @ (1 << np.arange(active.shape[1], dtype=np.uint64))
    _, first, pattern = np.unique(codes, return_index=True, return_inverse=True)
    per_pattern = np.array([np.sum(terms[np.triu(np.outer(a, a), k=1)]) for a in active[first]])
    return per_pattern, pattern


# --------------------------------------------------------------------------
# distributions
# --------------------------------------------------------------------------


def _floats(values: Iterable[float]) -> np.ndarray:
    """``values`` as a float array. An ndarray is converted as it is; any
    other iterable is listed first."""
    return np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)


@dataclass(frozen=True)
class Ecdf:
    """Right-continuous empirical CDF: F(r) is the share of scores <= r."""

    sorted_scores: np.ndarray

    def __post_init__(self) -> None:
        scores = np.sort(np.asarray(self.sorted_scores, dtype=float))
        if scores.size == 0:
            raise TooFewRowsError("ecdf requires at least one score")
        # NaN sorts last and, as in min/max, exempts the scores from the range check
        if not np.isnan(scores[-1]) and (scores[0] < 0.0 or scores[-1] > 10.0):
            raise ValueError("scores must lie in [0, 10]")
        object.__setattr__(self, "sorted_scores", scores)

    def __call__(self, r):
        out = np.searchsorted(self.sorted_scores, r, side="right") / self.sorted_scores.size
        return float(out) if np.ndim(out) == 0 else out

    def curve(self) -> tuple[np.ndarray, np.ndarray]:
        """The jump points: (unique scores, F evaluated at each)."""
        values = np.unique(self.sorted_scores)
        return values, self(values)


def ecdf(scores: Iterable[float]) -> Ecdf:
    return Ecdf(_floats(scores))


@dataclass(frozen=True)
class GroupStats:
    category: str
    count: int
    mean: float
    std: float
    median: float
    q1: float
    q3: float


def group_statistics(scored: ScoredBatch, group_by: str) -> list[GroupStats]:
    """Count/mean/std/median/quartiles of the official score per category,
    in the factor's domain order.

    ``std`` is the sample standard deviation; quartiles use linear
    interpolation. Statistics undefined for a category (empty, or the std of
    a singleton) come back as NaN.
    """
    if not scored:
        raise TooFewRowsError("no records to group")
    domain, index = category_index(scored, group_by)
    values = scored.officials
    out = []
    for k, label in enumerate(domain):
        vals = values[index == k]
        if vals.size == 0:
            nan = math.nan
            out.append(GroupStats(label, 0, nan, nan, nan, nan, nan))
            continue
        std = float(vals.std(ddof=1)) if vals.size > 1 else math.nan
        out.append(
            GroupStats(
                label,
                int(vals.size),
                float(vals.mean()),
                std,
                float(np.median(vals)),
                float(np.percentile(vals, 25.0)),
                float(np.percentile(vals, 75.0)),
            )
        )
    return out


@dataclass(frozen=True)
class HighRiskShare:
    category: str
    count: int
    high_risk: int
    share: float


def high_risk_share(
    scored: ScoredBatch, group_by: str, threshold: float = 7.0
) -> list[HighRiskShare]:
    """Per-category share of records whose official score is >= threshold."""
    if not scored:
        raise TooFewRowsError("no records to group")
    domain, index = category_index(scored, group_by)
    is_high = scored.officials >= threshold
    totals = np.bincount(index, minlength=len(domain)).tolist()
    high = np.bincount(index[is_high], minlength=len(domain)).tolist()
    return [
        HighRiskShare(label, total, hi, hi / total if total else math.nan)
        for label, total, hi in zip(domain, totals, high)
    ]


# --------------------------------------------------------------------------
# density estimation and agreement measures
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityEstimate:
    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


def silverman_bandwidth(scores: np.ndarray) -> float:
    """0.9 * min(sample std, IQR/1.34) * n^(-1/5), with degenerate fallbacks.

    n^(-1/5) is ``n ** -0.2`` correctly rounded: the platform's ``pow``
    rounds some n (240, 982, ...) differently with and without FMA.
    ``Decimal(-0.2)`` is the exact double that ``n ** -0.2`` raises to.
    """
    n = scores.size
    std = float(scores.std(ddof=1))
    iqr = float(np.percentile(scores, 75.0) - np.percentile(scores, 25.0))
    spread = min(std, iqr / 1.34)
    if spread <= 0.0:
        spread = std if std > 0.0 else 1e-3
    # Imported here, so the commands that draw no density do not load it.
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 60
        shrink = float(Decimal(n) ** Decimal(-0.2))
    return 0.9 * spread * shrink


def kernel_density(scores: Iterable[float], grid: np.ndarray | None = None) -> DensityEstimate:
    """Gaussian-kernel density estimate with the Silverman bandwidth rule.

    The default evaluation grid is 512 points spanning [0, 10] widened by
    three bandwidths on each side. The kernel sum has one term per distinct
    score, weighted by how often it occurs; scores on the 0.1 grid take at
    most 101 values however many there are. Grid rows are summed in blocks
    of about 2**20 terms, so the temporaries stay near 8 MiB each; each row
    is still summed whole, as in one ``(grid, distinct)`` expression.
    """
    arr = _floats(scores)
    if arr.size < 2:
        raise TooFewRowsError(f"need at least 2 scores, got {arr.size}")
    h = silverman_bandwidth(arr)
    if grid is None:
        grid = np.linspace(0.0 - 3.0 * h, 10.0 + 3.0 * h, 512)
    else:
        grid = np.asarray(grid, dtype=float)
    values, counts = np.unique(arr, return_counts=True)
    rows = max(1, 2**20 // values.size)
    sums = np.empty(grid.shape)
    for start in range(0, grid.size, rows):
        z = (grid[start : start + rows, None] - values[None, :]) / h
        # A row sum, unlike a BLAS matrix-vector product, keeps its bits
        # whatever the block size.
        sums[start : start + rows] = (np.exp(-0.5 * z * z) * counts).sum(axis=1)
    density = sums / (arr.size * h * math.sqrt(2.0 * math.pi))
    return DensityEstimate(grid, density, h)


def mae(pred: Iterable[float], truth: Iterable[float]) -> float:
    """Mean absolute error between paired score sequences."""
    p = _floats(pred)
    t = _floats(truth)
    if p.shape != t.shape:
        raise DimensionMismatchError(f"length mismatch: {p.size} vs {t.size}")
    if p.size == 0:
        raise TooFewRowsError("mae of empty input")
    return float(np.abs(p - t).mean())


def midranks(values: Iterable[float]) -> np.ndarray:
    """Ranks 1..n where tied values share the average of their positions."""
    v = _floats(values)
    order = np.argsort(v, kind="stable")
    sorted_v = v[order]
    # NaN != NaN, so each NaN is a group of its own, after every number.
    starts = np.flatnonzero(np.r_[True, sorted_v[1:] != sorted_v[:-1]])
    stops = np.r_[starts[1:], v.size]
    ranks = np.empty(v.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (starts + stops + 1), stops - starts)
    return ranks


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float((xc * xc).sum()) * float((yc * yc).sum()))
    if denom == 0.0:
        return math.nan
    r = float((xc * yc).sum()) / denom
    return max(-1.0, min(1.0, r))


def spearman_rho(pred: Iterable[float], truth: Iterable[float]) -> float:
    """Spearman rank correlation with average ranks on ties.

    Returns NaN when either side has no rank variation.
    """
    p = _floats(pred)
    t = _floats(truth)
    if p.shape != t.shape:
        raise DimensionMismatchError(f"length mismatch: {p.size} vs {t.size}")
    if p.size < 2:
        raise TooFewRowsError(f"need at least 2 pairs, got {p.size}")
    return _pearson(midranks(p), midranks(t))
