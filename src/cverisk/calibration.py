"""Grid-search calibration of the scale and weight constants against official
NVD base scores."""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .encoding import encode_factors
from .model import GRID_TOLERANCE, ModelWeights, ScoredBatch

DEFAULT_KAPPA_RANGE = (0.5, 2.0, 0.05)
DEFAULT_LAMBDA_GRID = (0.25, 0.5, 0.75, 1.0)
#: How far ``official * 10`` may sit from a whole number and still count as
#: on the 0.1 grid (parsed decimals carry float dust).
_OFF_GRID_SLACK = 1e-6
#: Rows per block when ``fit_kappa`` sums squared errors, which bounds its
#: temporaries at a few ``(_KAPPA_BLOCK, kappas)`` arrays.
_KAPPA_BLOCK = 4096
#: The weight search's bound counts a group only while its scaled product
#: stays this far under the 100-unit cap, so its composite is not capped.
_UNCAPPED = 100.0 - 1e-3
#: How far a composite's units can sit from its scaled product plus 1/2.
_UNIT_SLACK = 0.5 + 1e-6


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


def _official_scores(cal: ScoredBatch) -> np.ndarray:
    if not cal:
        raise EmptyCalibrationSetError("calibration set is empty")
    return cal.officials


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
    cal: ScoredBatch,
    lo: float = 0.5,
    hi: float = 2.0,
    step: float = 0.05,
    *,
    delta: float = 0.1,
) -> float:
    """``fit_kappa`` on a calibration batch's own products and official scores."""
    return fit_kappa(10.0 * cal.base_risk * cal.impact, _official_scores(cal), lo, hi, step, delta)


@dataclass(frozen=True)
class _Groups:
    """A calibration sample grouped by its (AV, AC, PR, C, I, A) levels."""

    exploit: np.ndarray  # (G, 3): phi, psi, omega encodings
    eta: np.ndarray  # (G, 3): C, I, A impact values
    count: np.ndarray  # (G,): records per group
    official_tenths: np.ndarray  # (G,): sum of official scores in 0.1 units
    member: np.ndarray  # (n,): each record's group

    @property
    def shifted(self) -> np.ndarray:
        """o - c/2: summed official tenths less half a unit per record."""
        return self.official_tenths - 0.5 * self.count


def _group_sample(cal: ScoredBatch) -> _Groups:
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
        k = int(off_grid[0])
        raise OffGridError(
            f"{cal.records.ids[k]}: official score {cal.records.officials[k]!r} "
            "is not on the 0.1 grid"
        )
    # One encoding per table row the sample uses, with the default maps:
    # ``cal.factors`` carries the maps of the config the batch was scored with.
    used, row = np.unique(cal.rows, return_inverse=True)
    encoded = np.array([encode_factors(cal.table[r][0]) for r in used])[:, [0, 1, 2, 5, 6, 7]]
    levels, group = np.unique(encoded, axis=0, return_inverse=True)
    member = group.reshape(-1)[row.reshape(-1)]  # numpy 2.0.0 returns them 2-D
    return _Groups(
        exploit=levels[:, :3],
        eta=levels[:, 3:],
        count=np.bincount(member, minlength=len(levels)).astype(float),
        official_tenths=np.bincount(member, weights=tenths, minlength=len(levels)),
        member=member,
    )


def _scaled_base(groups: _Groups, simplex: np.ndarray) -> np.ndarray:
    """``10 * base_risk`` for every group x simplex point, (G, S).

    Takes the float steps of ``model.base_risk`` in the same order,
    element-wise; a matmul may sum in another order and move the last bit.
    Times a triple's ``_impact`` it gives ``10 * base_risk * impact``, whose
    products evaluate left to right.
    """
    exploit = groups.exploit
    base = (
        simplex[:, 0] * exploit[:, :1]
        + simplex[:, 1] * exploit[:, 1:2]
        + simplex[:, 2] * exploit[:, 2:]
    )
    return 10.0 * base


def _impact(groups: _Groups, lambdas: tuple[float, float, float]) -> np.ndarray:
    """``model.impact_score`` of every group at one lambda triple, (G,)."""
    eta = groups.eta
    lam_c, lam_i, lam_a = lambdas
    return 1.0 - (1.0 - lam_c * eta[:, 0]) * (1.0 - lam_i * eta[:, 1]) * (1.0 - lam_a * eta[:, 2])


def _units(products: np.ndarray, kappa: float | np.ndarray) -> np.ndarray:
    """Composite scores in 0.1 units at ``kappa``, one value or one per column.

    The float steps are ``model.composite_score``'s at ``delta = 0.1``, so
    each count of 0.1 steps is the scalar path's; the count is then capped
    at 100 (10 points) exactly.
    """
    units = products * kappa
    units /= 0.1
    units -= GRID_TOLERANCE
    np.ceil(units, out=units)
    return np.minimum(units, 100.0, out=units)


def _sse(groups: _Groups, units: np.ndarray) -> np.ndarray:
    """Each column's sum of squared errors in 0.1 units, minus the constant
    sum of squared officials. Every term is an integer below 2**53, so these
    float sums are exact in any order. Overwrites ``units``."""
    cross = groups.official_tenths @ units
    return groups.count @ np.square(units, out=units) - 2.0 * cross


def _lower_bound(
    groups: _Groups,
    base: np.ndarray,
    impact: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    kappas: np.ndarray,
) -> np.ndarray:
    """A lower bound on ``_sse`` for every simplex point x kappa, (S, K), at
    one lambda triple, whose products are p = ``base * impact[:, None]``.

    ``a`` and ``b`` are sum c p^2 and sum w p over every group, with c a
    group's record count, o its summed official tenths and w = o - c/2
    (``_Groups.shifted``).

    At x = 10 kappa p, a composite not capped at 100 has units u in
    [x - 2e-9, x + 1), so |u - (x + 1/2)| <= ``_UNIT_SLACK``. The error is
    sum c (u - m)^2 - sum o^2 / c with m = o / c. A product that may reach
    the cap at some grid kappa leaves the sums from the first such kappa on
    (its term is >= 0). Over the groups left, the weighted triangle
    inequality gives sqrt(sum c (u - m)^2) >= sqrt(Q) - _UNIT_SLACK *
    sqrt(N), where Q = 100 kappa^2 A - 20 kappa B + C, with A = sum c p^2,
    B = sum w p, C = sum w^2 / c and N = sum c. The margin covers the float
    error of every sum here, in any order, so the bound never exceeds the
    exact integer error.
    """
    n_s, n_k = base.shape[1], len(kappas)
    count, shifted = groups.count, groups.shifted
    spread = shifted**2 / count
    offset = float(np.sum(groups.official_tenths**2 / count))
    # base >= 0 and 10 kappa p is linear in kappa, so a product can reach
    # the cap only if it does so at an end of the grid.
    reach = 10.0 * np.maximum(kappas[0] * impact, kappas[-1] * impact)
    flat = np.flatnonzero(base * reach[:, None] > _UNCAPPED)
    g, s = np.divmod(flat, n_s)
    p = np.take(base, flat) * impact[g]  # the bits of base * impact[:, None]
    # A negative product (from a lambda far above 1) is left out at every kappa.
    first = np.where(p > 0.0, np.searchsorted(kappas, _UNCAPPED / (10.0 * p), side="right"), 0)
    at = s * (n_k + 1) + first
    c = count[g]
    dropped = np.stack([
        np.bincount(at, weights=weights, minlength=n_s * (n_k + 1))
        for weights in (c * p * p, shifted[g] * p, spread[g], c)
    ]).reshape(4, n_s, n_k + 1)[:, :, :n_k]
    d_a, d_b, d_c, d_n = np.cumsum(dropped, axis=2)
    scale = 100.0 * kappas**2
    quad = scale * (a[:, None] - d_a) - 20.0 * kappas * (b[:, None] - d_b) + (spread.sum() - d_c)
    records = np.maximum(count.sum() - d_n, 0.0)
    root = np.sqrt(np.maximum(quad, 0.0)) - _UNIT_SLACK * np.sqrt(records)
    margin = 1e-9 * (scale * a[:, None] + spread.sum() + offset) + 1.0
    return np.square(np.maximum(root, 0.0)) - offset - margin


def calibrate_weights(
    cal: ScoredBatch,
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
    (AV, AC, PR, C, I, A) levels first, at most 648 distinct keys.

    The search scores few cells exactly. Per lambda triple it scores the
    cell that minimises the error as if nothing were capped, and then only
    the (simplex, kappa) cells whose lower bound (``_lower_bound``) does
    not exceed the least exact error found. A cell that could win or tie is
    never pruned, so the result is the exhaustive search's.

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
    base = _scaled_base(groups, simplex)
    impacts = np.array([_impact(groups, lambdas) for lambdas in triples])  # (T, G)
    # Sums for the bound only, so BLAS may pick any order: (T, S) each. One
    # mat-vec per triple, as one matrix product would start BLAS threads.
    base_sq = base**2
    a = np.array([(groups.count * impact**2) @ base_sq for impact in impacts])
    b = np.array([(groups.shifted * impact) @ base for impact in impacts])

    # One incumbent per triple, the (s, k) of the least uncapped quadratic;
    # the best of their exact errors bounds the winner's.
    incumbents = [
        np.argmin(100.0 * kappas**2 * a[t][:, None] - 20.0 * kappas * b[t][:, None])
        for t in range(len(triples))
    ]
    s, k = np.divmod(np.array(incumbents), len(kappas))
    upper = float(np.min(_sse(groups, _units(base[:, s] * impacts.T, kappas[k]))))

    best = None  # (sse, s, t, k), compared lexicographically
    for t, impact in enumerate(impacts):
        s_live, k_live = np.nonzero(_lower_bound(groups, base, impact, a[t], b[t], kappas) <= upper)
        for start in range(0, len(s_live), len(simplex)):
            s, k = s_live[start : start + len(simplex)], k_live[start : start + len(simplex)]
            sse = _sse(groups, _units(base[:, s] * impact[:, None], kappas[k]))
            j = int(np.argmin(sse))  # cells run in (s, k) order: first = smallest
            cell = (float(sse[j]), int(s[j]), t, int(k[j]))
            if best is None or cell < best:
                best = cell
                upper = min(upper, cell[0])
    _, s, t, k = best
    alpha, beta, gamma = (float(x) for x in simplex[s])
    return ModelWeights(alpha, beta, gamma, *triples[t], float(kappas[k]))
