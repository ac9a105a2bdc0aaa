"""Grid-search calibration of the scale and weight constants against official
NVD base scores."""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from .encoding import ETA, DEFAULT_MAPS, AttributeMaps
from .model import GRID_TOLERANCE, ModelWeights, ScoredRecord, official_scores

DEFAULT_KAPPA_RANGE = (0.5, 2.0, 0.05)
DEFAULT_LAMBDA_GRID = (0.25, 0.5, 0.75, 1.0)


class EmptyCalibrationSetError(ValueError):
    """Calibration needs at least one scored record with an official score."""


class BadGridStepError(ValueError):
    """The simplex grid step must divide 1 evenly."""


def uniform_weights(kappa: float = 1.0, delta: float = 0.1) -> ModelWeights:
    """Equal-weight preset: 1/3 on each exploitability and each CIA weight."""
    third = 1.0 / 3.0
    return ModelWeights(third, third, third, third, third, third, kappa, delta)


def _official_scores(cal: Sequence[ScoredRecord]) -> np.ndarray:
    if not cal:
        raise EmptyCalibrationSetError("calibration set is empty")
    return official_scores(cal)


def _kappa_grid(lo: float, hi: float, step: float) -> np.ndarray:
    if step <= 0.0 or lo >= hi:
        raise ValueError("kappa grid requires lo < hi and step > 0")
    return lo + step * np.arange(round((hi - lo) / step) + 1)


def _rounded_scores(products: np.ndarray, kappas: np.ndarray, delta: float) -> np.ndarray:
    """Composite scores (rounded and capped) for every record x kappa pair."""
    raw = products[:, None] * kappas[None, :]
    return np.minimum(10.0, np.ceil(raw / delta - GRID_TOLERANCE) * delta)


def calibrate_kappa(
    cal: Sequence[ScoredRecord],
    lo: float = 0.5,
    hi: float = 2.0,
    step: float = 0.05,
    *,
    delta: float = 0.1,
) -> float:
    """Return the grid kappa that minimizes MSE against the official scores.

    Candidate scores go through the full composite pipeline (scale to 0-10,
    round up to the ``delta`` grid, cap at 10). Ties break toward the
    smaller kappa.
    """
    officials = _official_scores(cal)
    products = np.array([10.0 * sr.base_risk * sr.impact for sr in cal])
    grid = _kappa_grid(lo, hi, step)
    scores = _rounded_scores(products, grid, delta)
    mse = ((scores - officials[:, None]) ** 2).mean(axis=0)
    # np.argmin returns the first minimum, which is the smallest kappa.
    return float(grid[int(np.argmin(mse))])


def calibrate_weights(
    cal: Sequence[ScoredRecord],
    grid_step: float = 0.05,
    *,
    maps: AttributeMaps = DEFAULT_MAPS,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    kappa_range: tuple[float, float, float] = DEFAULT_KAPPA_RANGE,
    delta: float = 0.1,
) -> ModelWeights:
    """Coarse grid search over the exploitability simplex and CIA weights.

    Every (alpha, beta, gamma, lambda_c, lambda_i, lambda_a) cell refits
    kappa on its own grid before the cell's MSE is measured. The overall
    argmin wins; exact ties break by lexicographic order of the weight tuple.
    """
    officials = _official_scores(cal)
    if grid_step <= 0.0 or abs(round(1.0 / grid_step) * grid_step - 1.0) > 1e-9:
        raise BadGridStepError(f"grid step {grid_step} does not divide 1 evenly")
    n_div = round(1.0 / grid_step)

    exploit = np.array(
        [[maps.phi[sr.vector.av], maps.psi[sr.vector.ac], maps.omega[sr.vector.pr]] for sr in cal]
    )
    eta_cia = np.array([[ETA[sr.vector.c], ETA[sr.vector.i], ETA[sr.vector.a]] for sr in cal])

    simplex = [
        (i * grid_step, j * grid_step, (n_div - i - j) * grid_step)
        for i in range(n_div + 1)
        for j in range(n_div - i + 1)
    ]
    base = exploit @ np.array(simplex).T  # (n, S), simplex in ascending lex order
    kappas = _kappa_grid(*kappa_range)

    best_mse = np.inf
    best: tuple[tuple[float, ...], float] | None = None
    for lambdas in itertools.product(sorted(lambda_grid), repeat=3):
        impact = 1.0 - np.prod(1.0 - np.asarray(lambdas) * eta_cia, axis=1)
        products = 10.0 * base * impact[:, None]
        scores = np.minimum(
            10.0, np.ceil(products[:, :, None] * kappas / delta - GRID_TOLERANCE) * delta
        )
        mse = ((scores - officials[:, None, None]) ** 2).mean(axis=0)  # (S, K)
        kappa_idx = np.argmin(mse, axis=1)  # first minimum = smallest kappa
        cell_mse = mse[np.arange(len(simplex)), kappa_idx]
        for s, point in enumerate(simplex):
            candidate = (*point, *lambdas)
            m = float(cell_mse[s])
            if best is None or m < best_mse or (m == best_mse and candidate < best[0]):
                best_mse = m
                best = (candidate, float(kappas[kappa_idx[s]]))
    assert best is not None
    (alpha, beta, gamma, lam_c, lam_i, lam_a), kappa = best
    return ModelWeights(alpha, beta, gamma, lam_c, lam_i, lam_a, kappa, delta)
