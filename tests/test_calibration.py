"""Grid-search calibration: planted-value recovery, tie-breaking, and the
brute-force grid oracles."""

import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

from cverisk.calibration import (
    DEFAULT_KAPPA_RANGE,
    DEFAULT_LAMBDA_GRID,
    BadGridStepError,
    EmptyCalibrationSetError,
    OffGridError,
    _group_sample,
    _impact,
    _kappa_grid,
    _lower_bound,
    _mean_squared_errors,
    _scaled_base,
    _units,
    calibrate_kappa,
    calibrate_weights,
    fit_kappa,
    uniform_weights,
)
from cverisk.model import GRID_TOLERANCE, ModelConfig, ModelWeights

import oracles
from conftest import as_batch, make_record, score_one

TEMPLATE = score_one(make_record())


def fake_scored(product, official, k=0):
    """A scored record with a controlled 10*rb*impact product."""
    rec = make_record(cve_id=f"CVE-2024-{30000 + k}", official=official)
    return replace(TEMPLATE, record=rec, base_risk=product / 10.0, impact=1.0)


def planted_kappa_set(kappa0, vectors, delta=0.1):
    """Records whose official score is exactly the model output at kappa0."""
    w = ModelWeights(1 / 3, 1 / 3, 1 / 3, kappa=kappa0, delta=delta)
    cfg = ModelConfig(weights=w)
    out = []
    for k, vs in enumerate(vectors):
        probe = score_one(make_record(cve_id=f"CVE-2024-{40000 + k}", vector=vs, official=None), cfg)
        rec = make_record(cve_id=f"CVE-2024-{40000 + k}", vector=vs, official=probe.composite)
        out.append(score_one(rec))
    return out


def diverse_vectors(all_scored, lo=1.5, hi=7.0, limit=50):
    """Vector strings whose default 10*rb*impact product lies in [lo, hi]."""
    picked = []
    for sr in all_scored:
        product = 10.0 * sr.base_risk * sr.impact
        if lo <= product <= hi:
            picked.append(sr.record.vector_string)
    return picked[:: max(1, len(picked) // limit)][:limit]


def test_uniform_weights_preset():
    w = uniform_weights()
    assert w.alpha == w.beta == w.gamma == 1 / 3
    assert w.lambda_c == w.lambda_i == w.lambda_a == 1 / 3
    assert abs(w.alpha + w.beta + w.gamma - 1.0) < 1e-12
    assert (w.kappa, w.delta) == (1.0, 0.1)
    assert uniform_weights(kappa=1.4, delta=0.05).kappa == 1.4


def test_calibrate_kappa_rejects_empty_and_unscored():
    with pytest.raises(EmptyCalibrationSetError):
        calibrate_kappa(as_batch([]))
    with pytest.raises(ValueError, match="official"):
        calibrate_kappa(as_batch([replace(TEMPLATE, record=make_record(official=None))]))


def test_calibrate_kappa_recovers_planted_scale_exactly(all_scored):
    cal = planted_kappa_set(1.3, diverse_vectors(all_scored))
    assert len(cal) >= 40
    assert calibrate_kappa(as_batch(cal)) == 1.3


def test_calibrate_kappa_matches_bruteforce_oracle(all_scored):
    cal = planted_kappa_set(1.15, diverse_vectors(all_scored, limit=30))
    products = [10.0 * sr.base_risk * sr.impact for sr in cal]
    officials = [sr.record.official_score for sr in cal]
    assert calibrate_kappa(as_batch(cal)) == oracles.best_kappa(products, officials)


def test_calibrate_kappa_oracle_agreement_on_noisy_data():
    import random

    rng = random.Random(99)
    cal = []
    for k in range(60):
        product = rng.uniform(1.0, 8.0)
        official = round(min(10.0, max(0.0, product * 1.2 + rng.gauss(0, 0.4))), 1)
        cal.append(fake_scored(product, official, k))
    products = [10.0 * sr.base_risk * sr.impact for sr in cal]
    officials = [sr.record.official_score for sr in cal]
    assert calibrate_kappa(as_batch(cal)) == oracles.best_kappa(products, officials)


def test_calibrate_kappa_tie_breaks_toward_smaller_value():
    # zero products make every kappa score 0.0, a perfect tie across the grid
    cal = [fake_scored(0.0, 0.0, k) for k in range(5)]
    assert calibrate_kappa(as_batch(cal)) == 0.5


def test_calibrate_kappa_custom_grid():
    cal = [fake_scored(5.0, 5.5, k) for k in range(3)]
    got = calibrate_kappa(as_batch(cal), lo=1.0, hi=1.2, step=0.1)
    assert got in (1.0, 1.1, 1.2)
    assert got == 1.1  # 5.0 * 1.1 = 5.5 exactly on the grid
    with pytest.raises(ValueError):
        calibrate_kappa(as_batch(cal), lo=1.0, hi=1.0, step=0.1)
    with pytest.raises(ValueError):
        calibrate_kappa(as_batch(cal), step=0.0)


def test_calibrate_kappa_is_scale_free_below_the_cap():
    """Co-scaling products, targets, and granularity leaves the argmin alone."""
    base = [(2.0, 2.7), (3.0, 3.8), (1.5, 2.0), (4.0, 5.1)]
    plain = [fake_scored(p, o, k) for k, (p, o) in enumerate(base)]
    shrunk = [fake_scored(p * 0.5, o * 0.5, k) for k, (p, o) in enumerate(base)]
    assert calibrate_kappa(as_batch(plain), delta=0.1) == calibrate_kappa(as_batch(shrunk), delta=0.05)


def test_calibrate_weights_rejects_bad_grid_steps():
    cal = [fake_scored(5.0, 5.0)]
    for bad in (0.3, 0.07, 0.0, -0.25):
        with pytest.raises((BadGridStepError, ValueError)):
            calibrate_weights(as_batch(cal), grid_step=bad)


def test_calibrate_weights_recovers_planted_config(all_scored):
    planted = ModelWeights(0.5, 0.25, 0.25, 1.0, 1.0, 0.5, kappa=1.2)
    cfg = ModelConfig(weights=planted)
    cal = []
    for k, vs in enumerate(diverse_vectors(all_scored, lo=1.0, hi=8.0, limit=60)):
        probe = score_one(make_record(cve_id=f"CVE-2024-{50000 + k}", vector=vs, official=None), cfg)
        rec = make_record(cve_id=f"CVE-2024-{50000 + k}", vector=vs, official=probe.composite)
        cal.append(score_one(rec))
    got = calibrate_weights(
        as_batch(cal), grid_step=0.25, lambda_grid=(0.5, 1.0), kappa_range=(1.0, 1.6, 0.1)
    )
    assert (got.alpha, got.beta, got.gamma) == (0.5, 0.25, 0.25)
    assert (got.lambda_c, got.lambda_i, got.lambda_a) == (1.0, 1.0, 0.5)
    assert got.kappa == 1.2


def test_calibrate_weights_tie_breaks_lexicographically():
    # zero-impact vectors give identical (zero) scores for every candidate
    cal = []
    for k in range(4):
        rec = make_record(
            cve_id=f"CVE-2024-{60000 + k}",
            vector="CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N",
            official=0.0,
        )
        cal.append(score_one(rec))
    got = calibrate_weights(as_batch(cal), grid_step=0.5)
    assert (got.alpha, got.beta, got.gamma) == (0.0, 0.0, 1.0)
    assert (got.lambda_c, got.lambda_i, got.lambda_a) == (0.25, 0.25, 0.25)
    assert got.kappa == 0.5


def test_calibrate_weights_returns_valid_simplex(sample_scored):
    got = calibrate_weights(sample_scored[:50], grid_step=0.25)
    assert abs(got.alpha + got.beta + got.gamma - 1.0) < 1e-12
    assert all(0.0 <= v <= 1.0 for v in (got.lambda_c, got.lambda_i, got.lambda_a))
    assert 0.5 <= got.kappa <= 2.0
    assert got.delta == 0.1


def test_calibrate_weights_is_argmin_over_its_grid(sample_scored):
    """No candidate cell of the search grid, refit the same way, may score a
    lower in-sample MSE than the returned configuration."""
    cal = sample_scored[:80]
    officials = [sr.record.official_score for sr in cal]

    def in_sample_mse(weights):
        cfg = ModelConfig(weights=weights)
        scores = [score_one(sr.record, cfg).composite for sr in cal]
        return sum((s - o) ** 2 for s, o in zip(scores, officials)) / len(cal)

    def mse_with_kappa_refit(alpha, beta, gamma, lambdas):
        probe = ModelConfig(weights=ModelWeights(alpha, beta, gamma, *lambdas))
        rescored = [score_one(sr.record, probe) for sr in cal]
        kappa = calibrate_kappa(as_batch(rescored))
        return in_sample_mse(ModelWeights(alpha, beta, gamma, *lambdas, kappa))

    fitted = calibrate_weights(cal, grid_step=0.25)
    fitted_mse = in_sample_mse(fitted)
    candidates = [
        (0.25, 0.25, 0.5, (1.0, 1.0, 1.0)),
        (0.5, 0.5, 0.0, (0.5, 0.5, 0.5)),
        (0.0, 0.0, 1.0, (0.25, 1.0, 0.75)),
        (1.0, 0.0, 0.0, (0.75, 0.25, 1.0)),
    ]
    for alpha, beta, gamma, lambdas in candidates:
        assert fitted_mse <= mse_with_kappa_refit(alpha, beta, gamma, lambdas) + 1e-9


def weight_tuple(w):
    return (w.alpha, w.beta, w.gamma, w.lambda_c, w.lambda_i, w.lambda_a, w.kappa)


def seeded_set(all_scored, seed, n=30):
    """``n`` records over a dozen distinct vectors, so groups hold several
    records, with noisy official scores on the 0.1 grid."""
    rng = random.Random(seed)
    picks = rng.sample(all_scored, 12)
    cal = []
    for k in range(n):
        sr = rng.choice(picks)
        noisy = sr.composite * rng.uniform(0.8, 1.6) + rng.gauss(0.0, 0.3)
        official = round(min(10.0, max(0.0, noisy)), 1)
        rec = make_record(
            cve_id=f"CVE-2024-{70000 + k}", vector=sr.record.vector_string, official=official
        )
        cal.append(score_one(rec))
    return cal


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_calibrate_weights_matches_bruteforce_oracle(all_scored, seed):
    cal = seeded_set(all_scored, seed)
    encodings = [tuple(sr.factors[k] for k in (0, 1, 2, 5, 6, 7)) for sr in cal]
    officials = [sr.record.official_score for sr in cal]
    got = calibrate_weights(as_batch(cal), grid_step=0.25, lambda_grid=(0.5, 1.0))
    assert weight_tuple(got) == oracles.best_weights(encodings, officials, 4, (0.5, 1.0))


def test_calibrate_weights_breaks_the_fixture_tie_lexicographically(sample_scored):
    """(0.25, 0.35, 0.4) and (0.3, 0.3, 0.4), both with lambdas 1 and kappa
    1.15, have exactly the same squared error on this sample; the
    lexicographically smaller tuple must win."""
    pool = sorted(sample_scored, key=lambda sr: sr.record.cve_id)
    got = calibrate_weights(as_batch(random.Random(0).sample(pool, 100)))
    assert weight_tuple(got)[:6] == (0.25, 0.35, 0.4, 1.0, 1.0, 1.0)
    assert got.kappa == 1.15


def test_calibrate_weights_ignores_repeating_every_record(sample_scored):
    cal = sample_scored[:60]
    tripled = [sr for sr in cal for _ in range(3)]
    assert calibrate_weights(as_batch(tripled)) == calibrate_weights(cal)


def test_search_score_units_equal_scalar_composites(sample_scored):
    """The units the search compares at its returned cell are the returned
    config's own composites, so the kappa it picks is best for that config."""
    cal = sample_scored[:80]
    w = calibrate_weights(cal)
    assert w.delta == 0.1
    groups = _group_sample(cal)
    simplex = np.array([[w.alpha, w.beta, w.gamma]])
    impact = _impact(groups, (w.lambda_c, w.lambda_i, w.lambda_a))
    products = _scaled_base(groups, simplex) * impact[:, None]
    units = _units(products, w.kappa)
    cfg = ModelConfig(weights=w)
    for sr, group in zip(cal, groups.member):
        assert units[group, 0] == round(score_one(sr.record, cfg).composite * 10)


def test_calibrate_weights_rejects_off_grid_officials():
    with pytest.raises(OffGridError, match="CVE-2024-30001"):
        calibrate_weights(as_batch([fake_scored(5.0, 5.0, 0), fake_scored(5.0, 7.25, 1)]))


def _simplex(grid_step):
    n_div = round(1.0 / grid_step)
    return np.array(
        [
            (i / n_div, j / n_div, (n_div - i - j) / n_div)
            for i in range(n_div + 1)
            for j in range(n_div - i + 1)
        ]
    )


def dense_search(cal, grid_step, lambda_grid, kappa_range):
    """The exhaustive weight search: every (simplex, lambda triple, kappa)
    cell scored exactly, and the weights of the first least error, which has
    the smallest (simplex, triple, kappa) index."""
    groups = _group_sample(cal)
    simplex, kappas = _simplex(grid_step), _kappa_grid(*kappa_range)
    triples = list(itertools.product(sorted(lambda_grid), repeat=3))
    exploit, eta = groups.exploit, groups.eta
    base = simplex[:, 0] * exploit[:, :1] + simplex[:, 1] * exploit[:, 1:2] + simplex[:, 2] * exploit[:, 2:]
    sse = np.empty((len(simplex), len(triples), len(kappas)))
    for t, (lam_c, lam_i, lam_a) in enumerate(triples):
        impact = 1.0 - (1.0 - lam_c * eta[:, 0]) * (1.0 - lam_i * eta[:, 1]) * (1.0 - lam_a * eta[:, 2])
        products = 10.0 * base * impact[:, None]
        for k, kappa in enumerate(kappas):
            units = np.minimum(np.ceil(products * kappa / 0.1 - GRID_TOLERANCE), 100.0)
            sse[:, t, k] = groups.count @ units**2 - 2.0 * (groups.official_tenths @ units)
    s, t, k = np.unravel_index(np.argmin(sse), sse.shape)
    alpha, beta, gamma = (float(x) for x in simplex[s])
    return ModelWeights(alpha, beta, gamma, *triples[t], float(kappas[k])), sse


def _records(vectors, officials, start):
    return as_batch(
        score_one(make_record(cve_id=f"CVE-2024-{start + k}", vector=vs, official=off))
        for k, (vs, off) in enumerate(zip(vectors, officials))
    )


def capped_set(n=40, seed=0):
    """Severe network vectors with officials 9.0-10.0: at most kappas many
    composites reach the 10-point cap."""
    rng = random.Random(seed)
    vectors = [
        f"CVSS:3.1/AV:N/AC:L/PR:{rng.choice('NLH')}/UI:{rng.choice('NR')}/S:{rng.choice('UC')}"
        f"/C:H/I:H/A:{rng.choice('NLH')}"
        for _ in range(n)
    ]
    return _records(vectors, [rng.randrange(90, 101) / 10 for _ in range(n)], 80000)


def equal_officials_set(all_scored, n=30):
    """Many vectors, one official score: errors tie across many cells."""
    vectors = [sr.record.vector_string for sr in random.Random(5).sample(list(all_scored), n)]
    return _records(vectors, [5.0] * n, 81000)


SEARCH_SAMPLES = {
    "capped": lambda all_scored: capped_set(),
    "one record": lambda all_scored: _records(
        ["CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"], [9.8], 82000
    ),
    "one group": lambda all_scored: _records(
        ["CVSS:3.1/AV:L/AC:H/PR:L/UI:R/S:U/C:L/I:H/A:N"] * 8,
        [4.0, 4.4, 5.0, 5.1, 3.9, 4.7, 6.2, 4.4],
        83000,
    ),
    "equal officials": equal_officials_set,
    "noisy": lambda all_scored: as_batch(seeded_set(all_scored, 7, n=60)),
}
SEARCH_GRIDS = [
    (0.05, DEFAULT_LAMBDA_GRID, DEFAULT_KAPPA_RANGE),
    (0.1, (1.0,), (0.5, 3.0, 0.05)),
    (0.25, (0.5, 1.0), (1.0, 4.0, 0.25)),
    (0.05, (0.5, 1.0), (1.0, 4.0, 0.25)),
    (0.1, DEFAULT_LAMBDA_GRID, (0.5, 3.0, 0.05)),
]


@pytest.mark.parametrize(
    "grid", SEARCH_GRIDS, ids=lambda g: f"step{g[0]}-lambdas{len(g[1])}-kappa{g[2][1]}"
)
@pytest.mark.parametrize("sample", SEARCH_SAMPLES)
def test_pruned_search_returns_the_exhaustive_searchs_cell(all_scored, sample, grid):
    cal = SEARCH_SAMPLES[sample](all_scored)
    grid_step, lambda_grid, kappa_range = grid
    want, _ = dense_search(cal, grid_step, lambda_grid, kappa_range)
    got = calibrate_weights(cal, grid_step, lambda_grid=lambda_grid, kappa_range=kappa_range)
    assert weight_tuple(got) == weight_tuple(want)


@pytest.mark.parametrize(
    "lambda_grid, kappa_range",
    [
        (DEFAULT_LAMBDA_GRID, (0.5, 3.0, 0.05)),
        # lambda 5 makes some impacts negative, and a kappa <= 0 makes a
        # negative product positive: cells no ModelWeights holds, but cells
        # of the grid all the same
        ((0.5, 1.0, 5.0), (-1.0, 1.5, 0.25)),
    ],
    ids=["default lambdas", "negative products"],
)
@pytest.mark.parametrize("sample", ["capped", "equal officials", "noisy"])
def test_lower_bound_never_exceeds_the_exact_error(all_scored, sample, lambda_grid, kappa_range):
    """At every cell of the grid, whatever order the bound's sums take; and
    it rules out most cells, or the search would score them all."""
    cal = SEARCH_SAMPLES[sample](all_scored)
    grid_step = 0.1
    _, sse = dense_search(cal, grid_step, lambda_grid, kappa_range)
    groups = _group_sample(cal)
    base, kappas = _scaled_base(groups, _simplex(grid_step)), _kappa_grid(*kappa_range)
    ruled_out = 0
    for t, lambdas in enumerate(itertools.product(lambda_grid, repeat=3)):
        impact = _impact(groups, lambdas)
        products = base * impact[:, None]
        a, b = groups.count @ products**2, groups.shifted @ products
        bound = _lower_bound(groups, base, impact, a, b, kappas)
        assert (bound <= sse[:, t, :]).all()
        ruled_out += int((bound > sse.min()).sum())
    assert ruled_out > sse.size / 2


def _one_shot_mse(products, officials, grid, delta):
    raw = products[:, None] * grid[None, :]
    scores = np.minimum(10.0, np.ceil(raw / delta - GRID_TOLERANCE) * delta)
    return ((scores - officials[:, None]) ** 2).mean(axis=0)


@pytest.mark.parametrize("n", [1, 4096, 4097, 50_000])
@pytest.mark.parametrize("tied", [False, True])
def test_fit_kappa_blocks_keep_the_one_shot_bits(n, tied):
    """Summing the errors block by block gives the one-shot MSE bit for bit,
    so the kappa, ties included, is the one-shot expression's."""
    rng = np.random.default_rng(n)
    if tied:
        # 0.81 * kappa rounds up to 0.9 for kappa 1.0, 1.05 and 1.1, so
        # those three score every record alike and tie for the least MSE.
        products = np.full(n, 0.81)
        officials = np.round(rng.uniform(0.6, 1.2, n), 1)
    else:
        products = rng.uniform(0.0, 10.0, n)
        officials = np.round(rng.uniform(0.0, 10.0, n), 1)
    lo, hi, step = 0.5, 2.0, 0.05
    grid = _kappa_grid(lo, hi, step)
    for delta in (0.1, 0.05):
        got = _mean_squared_errors(products, officials, grid, delta)
        want = _one_shot_mse(products, officials, grid, delta)
        assert got.tobytes() == want.tobytes()
        kappa = fit_kappa(products, officials, lo, hi, step, delta)
        assert kappa == float(grid[int(np.argmin(want))])
    if tied:
        assert fit_kappa(products, officials, lo, hi, step, 0.1) == 1.0
