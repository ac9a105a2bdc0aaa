"""Grid-search calibration of the scale and weight constants against official
NVD base scores."""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .encoding import encode_factors
from .model import GRID_TOLERANCE, ModelWeights, ScoredRecord, official_scores

DEFAULT_KAPPA_RANGE = (0.5, 2.0, 0.05)
DEFAULT_LAMBDA_GRID = (0.25, 0.5, 0.75, 1.0)
#: How far ``official * 10`` may sit from a whole number and still count as
#: on the 0.1 grid (parsed decimals carry float dust).
_OFF_GRID_SLACK = 1e-6
#: Rows per block when ``fit_kappa`` sums squared errors, which bounds its
#: temporaries at a few ``(_KAPPA_BLOCK, kappas)`` arrays.
_KAPPA_BLOCK = 4096


class EmptyCalibrationSetError(ValueError):
    """Calibration needs at least one scored record with an official score."""


class BadGridStepError(ValueError):
    """The simplex grid step must divide 1 evenly."""


class OffGridError(ValueError):
    """The exact weight search cannot put a value on its integer grid: an
    official score off the 0.1 grid, or a sample too large for exact sums."""


def uniform_weights(kappa: float = 1.0, delta: float = 0.1) -> ModelWeights:
    """Equal-weight preset: 1/3 on each exploitability and each CIA weight."""
    third = 1.0 / 3.0
    return ModelWeights(third, third, third, third, third, third, kappa, delta)


def _official_scores(cal: Sequence[ScoredRecord]) -> np.ndarray:
    if not cal:
        raise EmptyCalibrationSetError("calibration set is empty")
    return official_scores([sr.record for sr in cal])


def _kappa_grid(lo: float, hi: float, step: float) -> np.ndarray:
    if step <= 0.0 or lo >= hi:
        raise ValueError("kappa grid requires lo < hi and step > 0")
    return lo + step * np.arange(round((hi - lo) / step) + 1)


def _mean_squared_errors(
    products: np.ndarray, officials: np.ndarray, grid: np.ndarray, delta: float
) -> np.ndarray:
    """Per-kappa MSE of the composites of ``products`` against ``officials``.

    Rows are summed in blocks, but each block is stacked under the running
    total and reduced along axis 0, which adds the rows one by one in record
    order as a one-shot ``mean(axis=0)`` does, so the bits are the same.
    """
    total = np.zeros(len(grid))
    for start in range(0, len(products), _KAPPA_BLOCK):
        raw = products[start : start + _KAPPA_BLOCK, None] * grid[None, :]
        scores = np.minimum(10.0, np.ceil(raw / delta - GRID_TOLERANCE) * delta)
        errors = (scores - officials[start : start + _KAPPA_BLOCK, None]) ** 2
        total = np.add.reduce(np.vstack([total, errors]), axis=0)
    return total / len(products)


def fit_kappa(
    products: np.ndarray, officials: np.ndarray, lo: float, hi: float, step: float, delta: float
) -> float:
    """The grid kappa whose composites of ``products`` (``10 * base_risk *
    impact`` per record) have the least MSE against ``officials``.

    Candidate scores go through the full composite pipeline (scale to 0-10,
    round up to the ``delta`` grid, cap at 10). Ties break toward the
    smaller kappa.
    """
    grid = _kappa_grid(lo, hi, step)
    mse = _mean_squared_errors(products, officials, grid, delta)
    # np.argmin returns the first minimum, which is the smallest kappa.
    return float(grid[int(np.argmin(mse))])


def calibrate_kappa(
    cal: Sequence[ScoredRecord],
    lo: float = 0.5,
    hi: float = 2.0,
    step: float = 0.05,
    *,
    delta: float = 0.1,
) -> float:
    """``fit_kappa`` on a calibration set's own products and official scores."""
    products = np.array([10.0 * sr.base_risk * sr.impact for sr in cal])
    return fit_kappa(products, _official_scores(cal), lo, hi, step, delta)


@dataclass(frozen=True)
class _Groups:
    """A calibration sample grouped by its (AV, AC, PR, C, I, A) levels."""

    exploit: np.ndarray  # (G, 3): phi, psi, omega encodings
    eta: np.ndarray  # (G, 3): C, I, A impact values
    count: np.ndarray  # (G,): records per group
    official_tenths: np.ndarray  # (G,): sum of official scores in 0.1 units
    member: np.ndarray  # (n,): each record's group


def _group_sample(cal: Sequence[ScoredRecord]) -> _Groups:
    """Group by the only levels the composite reads; at most 648 groups,
    encoded with the default attribute maps that ``calibrate`` writes out.
    The default encodings are distinct per level, so equal encodings mean
    equal levels.

    Official scores must sit on the 0.1 grid, as NVD base scores do, so
    that squared errors are whole numbers of 0.01.
    """
    officials = _official_scores(cal)
    tenths = np.rint(officials * 10.0)
    off_grid = np.flatnonzero(np.abs(officials * 10.0 - tenths) > _OFF_GRID_SLACK)
    if off_grid.size:
        record = cal[int(off_grid[0])].record
        raise OffGridError(
            f"{record.cve_id}: official score {record.official_score!r} is not on the 0.1 grid"
        )
    encoded = np.array([encode_factors(sr.vector) for sr in cal])[:, [0, 1, 2, 5, 6, 7]]
    levels, member = np.unique(encoded, axis=0, return_inverse=True)
    member = member.reshape(-1)  # numpy 2.0.0 returns it 2-D
    return _Groups(
        exploit=levels[:, :3],
        eta=levels[:, 3:],
        count=np.bincount(member, minlength=len(levels)).astype(float),
        official_tenths=np.bincount(member, weights=tenths, minlength=len(levels)),
        member=member,
    )


def _products(
    groups: _Groups, simplex: np.ndarray, lambdas: tuple[float, float, float]
) -> np.ndarray:
    """``10 * base_risk * impact`` for every group x simplex point, (G, S).

    Takes the float steps of ``model.base_risk`` and ``impact_score`` in the
    same order, element-wise; a matmul may sum in another order and move
    the last bit.
    """
    exploit, eta = groups.exploit, groups.eta
    base = (
        simplex[:, 0] * exploit[:, :1]
        + simplex[:, 1] * exploit[:, 1:2]
        + simplex[:, 2] * exploit[:, 2:]
    )
    lam_c, lam_i, lam_a = lambdas
    impact = 1.0 - (1.0 - lam_c * eta[:, 0]) * (1.0 - lam_i * eta[:, 1]) * (1.0 - lam_a * eta[:, 2])
    return 10.0 * base * impact[:, None]


def _score_units(products: np.ndarray, kappa: float, out: np.ndarray) -> np.ndarray:
    """Composite scores at ``kappa`` in 0.1 units, written into ``out``.

    The float steps are ``model.composite_score``'s at ``delta = 0.1``, so
    each count of 0.1 steps is the scalar path's; the count is then capped
    at 100 (10 points) exactly.
    """
    np.multiply(products, kappa, out=out)
    out /= 0.1
    out -= GRID_TOLERANCE
    np.ceil(out, out=out)
    return np.minimum(out, 100.0, out=out)


def calibrate_weights(
    cal: Sequence[ScoredRecord],
    grid_step: float = 0.05,
    *,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    kappa_range: tuple[float, float, float] = DEFAULT_KAPPA_RANGE,
) -> ModelWeights:
    """Coarse grid search over the exploitability simplex and CIA weights.

    Every (alpha, beta, gamma, lambda_c, lambda_i, lambda_a) cell refits
    kappa on its own grid, the smallest kappa winning ties. Scores round up
    to the 0.1 grid official scores sit on (the default ``delta``), and
    cells compare by their exact sum of squared errors in 0.1 units; the
    lowest wins, and equal sums go to the lexicographically smallest full
    weight tuple, across all lambda triples. Records are grouped by their
    (AV, AC, PR, C, I, A) levels first, so the cost is bounded by the at
    most 648 distinct keys, not by the sample size.

    Raises ``OffGridError`` for an official score off the 0.1 grid.
    """
    groups = _group_sample(cal)
    if not 0.0 < grid_step <= 1.0 or abs(round(1.0 / grid_step) * grid_step - 1.0) > 1e-9:
        raise BadGridStepError(f"grid step {grid_step} does not divide 1 evenly")
    n_div = round(1.0 / grid_step)
    if 2.0 * len(cal) * 100.0**2 >= 2.0**53:
        raise OffGridError(f"{len(cal)} records overflow the exact error sums")

    # ascending lexicographic order, as are the lambda triples below
    simplex = np.array(
        [
            (i / n_div, j / n_div, (n_div - i - j) / n_div)
            for i in range(n_div + 1)
            for j in range(n_div - i + 1)
        ]
    )
    kappas = _kappa_grid(*kappa_range)
    triples = list(itertools.product(sorted(lambda_grid), repeat=3))
    cell_sse = np.empty((len(simplex), len(triples)))
    cell_kappa = np.empty((len(simplex), len(triples)), dtype=np.intp)
    units = np.empty((len(groups.count), len(simplex)))
    sse = np.empty((len(simplex), len(kappas)))
    for t, lambdas in enumerate(triples):
        products = _products(groups, simplex, lambdas)
        for k, kappa in enumerate(kappas):
            _score_units(products, kappa, out=units)
            # SSE minus the constant sum of squared officials. Every term is
            # an integer below 2**53, so these float sums are exact in any order.
            cross = groups.official_tenths @ units
            sse[:, k] = groups.count @ np.square(units, out=units) - 2.0 * cross
        cell_kappa[:, t] = np.argmin(sse, axis=1)  # first minimum = smallest kappa
        cell_sse[:, t] = sse[np.arange(len(simplex)), cell_kappa[:, t]]
    # The first minimum in row-major order has the smallest full tuple.
    s, t = np.unravel_index(np.argmin(cell_sse), cell_sse.shape)
    alpha, beta, gamma = (float(x) for x in simplex[s])
    return ModelWeights(alpha, beta, gamma, *triples[t], float(kappas[cell_kappa[s, t]]))
