"""Release gate: one test per shipping criterion, each printing a single
pass line with its measured numbers (visible under ``pytest -s``).

The criteria pin parser exhaustiveness, the scoring arithmetic, calibration
recovery under noise, oracle agreement for every statistic, distribution
properties over random fixtures, end-to-end determinism, the live NVD
reproduction (network-gated), and the model-vs-baseline accuracy ordering.
"""

import math
import os
import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from cverisk.analytics import (
    FactorMatrix,
    conditional_matrix,
    correlation_matrix,
    ecdf,
    group_statistics,
    kernel_density,
    mae,
    spearman_rho,
)
from cverisk.calibration import calibrate_kappa, calibrate_weights, uniform_weights
from cverisk.cli import main as cli_main
from cverisk.model import (
    ModelConfig,
    ModelWeights,
    Severity,
    classify,
    composite_score,
    impact_score,
    score_records,
)
from cverisk.vector import VectorError, parse_vector, serialize_vector

import oracles
from conftest import SAMPLE_CACHE, all_vector_strings, as_batch, make_record
from test_calibration import fake_scored

AV_LABELS = {"N": "Network", "A": "Adjacent", "L": "Local", "P": "Physical"}


def _severity_label(score):
    if score < 4.0:
        return "Low"
    if score < 7.0:
        return "Medium"
    if score < 9.0:
        return "High"
    return "Critical"


@pytest.fixture(scope="module")
def fixture_scored(sample_scored):
    """The first 100 fully usable records of the shipped cache, id-sorted."""
    return sample_scored[np.argsort([r.cve_id for r in sample_scored.records])[:100]]


def test_criterion_1_parser_exhaustive_roundtrip_and_fuzz():
    started = time.perf_counter()
    seen = set()
    pool = []
    for vs in all_vector_strings():
        v = parse_vector(vs)
        assert serialize_vector(v) == vs
        seen.add(v)
        pool.append(vs)
    assert len(seen) == 2592

    rng = random.Random(20240115)
    rejected = 0
    for _ in range(1000):
        base = rng.choice(pool)
        mode = rng.randrange(6)
        if mode == 0:
            mutant = rng.choice(["CVSS:3.2", "cvss:3.1", "CVSS31", ""]) + base[8:]
        elif mode == 1:
            parts = base.split("/")
            del parts[rng.randrange(1, len(parts))]
            mutant = "/".join(parts)
        elif mode == 2:
            parts = base.split("/")
            parts.append(parts[rng.randrange(1, len(parts))])
            mutant = "/".join(parts)
        elif mode == 3:
            parts = base.split("/")
            k = rng.randrange(1, len(parts))
            name = parts[k].split(":")[0]
            parts[k] = f"{name}:{rng.choice('XYZQ9x')}"
            mutant = "/".join(parts)
        elif mode == 4:
            mutant = base + rng.choice(["/E:H", "/XX", "//", "/AV", "/ "])
        else:
            k = rng.randrange(len(base))
            mutant = base[:k] + rng.choice(";,| ") + base[k + 1 :]
        with pytest.raises(VectorError):
            parse_vector(mutant)
        rejected += 1
    elapsed = time.perf_counter() - started
    assert rejected == 1000
    assert elapsed < 1.0, f"parser sweep took {elapsed:.3f}s"
    print(f"criterion 1 PASS: 2592 round trips + 1000 typed rejections in {elapsed:.3f}s")


def test_criterion_2_scoring_arithmetic():
    # Impact for C=I=A High at full CIA weight is 1 - 0.44^3. (A circulated
    # decimal for this case, 0.914784, mis-evaluates that expression; exact
    # rational arithmetic gives 0.914816, so that is what we pin.)
    full_cia = ModelWeights(1 / 3, 1 / 3, 1 / 3, lambda_c=1.0, lambda_i=1.0, lambda_a=1.0)
    hhh = parse_vector("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
    expected_impact = 1 - (1 - Fraction(56, 100)) ** 3
    assert expected_impact == Fraction(914816, 1_000_000)
    assert impact_score(hhh, full_cia) == pytest.approx(float(expected_impact), abs=1e-12)

    # Composite boundary examples, checked to 1e-12 before rounding. The
    # rounded value sits on the 0.1 grid, itself inexact in binary floats.
    raw_low = 10.0 * 1.0 * 0.914784 * 1.0
    assert raw_low == pytest.approx(9.14784, abs=1e-12)
    low = composite_score(1.0, 0.914784, ModelWeights(1 / 3, 1 / 3, 1 / 3, kappa=1.0))
    assert low == pytest.approx(9.2, abs=1e-12)
    raw_high = 10.0 * 1.0 * 0.914784 * 1.32
    assert raw_high == pytest.approx(12.0751488, abs=1e-12)
    assert composite_score(1.0, 0.914784, ModelWeights(1 / 3, 1 / 3, 1 / 3, kappa=1.32)) == 10.0

    # Classification boundaries are lower-inclusive.
    assert classify(4.0) is Severity.MEDIUM
    assert classify(7.0) is Severity.HIGH
    assert classify(9.0) is Severity.CRITICAL
    assert classify(3.9) is Severity.LOW
    assert classify(6.9) is Severity.MEDIUM
    assert classify(8.9) is Severity.HIGH
    print("criterion 2 PASS: impact/composite/classification reference arithmetic")


def test_criterion_3_calibration_recovery_under_noise():
    started = time.perf_counter()
    kappa0 = 1.3

    # Noise-free: official scores are exactly the model output at kappa0.
    exact = []
    for k in range(40):
        product = 2.0 + 5.0 * k / 39.0
        official = min(10.0, oracles.round_up(product * kappa0, 0.1))
        exact.append(fake_scored(product, official, k))
    assert calibrate_kappa(as_batch(exact)) == kappa0

    hits = 0
    trials = 100
    for trial in range(trials):
        rng = random.Random(5000 + trial)
        cal = []
        for k in range(50):
            product = rng.uniform(2.0, 7.0)
            official = min(10.0, max(0.0, product * kappa0 + rng.gauss(0.0, 0.1)))
            cal.append(fake_scored(product, official, k))
        if abs(calibrate_kappa(as_batch(cal)) - kappa0) <= 0.05 + 1e-12:
            hits += 1
    elapsed = time.perf_counter() - started
    assert hits >= 95, f"only {hits}/100 noisy trials recovered kappa within one grid step"
    assert elapsed < 10.0, f"calibration sweep took {elapsed:.2f}s"
    print(f"criterion 3 PASS: exact recovery + {hits}/100 noisy trials in {elapsed:.2f}s")


def test_criterion_4_statistics_match_bruteforce_oracles(fixture_scored):
    assert len(fixture_scored) == 100
    officials = [sr.record.official_score for sr in fixture_scored]
    composites = [sr.composite for sr in fixture_scored]

    fm = FactorMatrix.from_scored(fixture_scored)
    cm = correlation_matrix(fm)
    columns = [list(fm.rows[:, j]) for j in range(len(fm.factor_names))]
    for i in range(len(columns)):
        for j in range(len(columns)):
            want = 1.0 if i == j else oracles.pearson(columns[i], columns[j])
            if math.isnan(want):
                assert math.isnan(cm.values[i, j])
            else:
                assert cm.values[i, j] == pytest.approx(want, abs=1e-12)

    cond = conditional_matrix(fixture_scored, "AV", "official_severity")
    pairs = [
        (AV_LABELS[sr.record.vector_string.split("AV:")[1][0]],
         _severity_label(sr.record.official_score))
        for sr in fixture_scored
    ]
    nested = oracles.conditional_counts(pairs, cond.row_domain, cond.col_domain)
    want_counts = [[nested[r][c] for c in cond.col_domain] for r in cond.row_domain]
    assert cond.counts.tolist() == want_counts
    for r, row in enumerate(want_counts):
        total = sum(row)
        for c, count in enumerate(row):
            want = count / total if total else 0.0
            assert cond.probs[r, c] == pytest.approx(want, abs=1e-12)

    by_av = {}
    for (label, _), sr in zip(pairs, fixture_scored):
        by_av.setdefault(label, []).append(sr.record.official_score)
    for g in group_statistics(fixture_scored, "AV"):
        vals = by_av.get(g.category, [])
        assert g.count == len(vals)
        if len(vals) >= 2:
            assert g.mean == pytest.approx(oracles.mean(vals), abs=1e-12)
            assert g.std == pytest.approx(oracles.std(vals), abs=1e-12)
            assert g.median == pytest.approx(oracles.median(vals), abs=1e-12)
            assert g.q1 == pytest.approx(oracles.quantile(vals, 0.25), abs=1e-12)
            assert g.q3 == pytest.approx(oracles.quantile(vals, 0.75), abs=1e-12)

    f = ecdf(officials)
    probe = [0.0, 4.0, 7.0, 9.0, 10.0] + officials
    for r in probe:
        assert f(r) == pytest.approx(oracles.ecdf_at(officials, r), abs=1e-12)

    est = kernel_density(officials)
    for x, density in zip(est.grid, est.density):
        assert density == pytest.approx(oracles.kde_at(officials, est.bandwidth, x), abs=1e-9)

    assert mae(composites, officials) == pytest.approx(
        oracles.mae(composites, officials), abs=1e-12
    )
    got_rho = spearman_rho(composites, officials)
    assert got_rho == pytest.approx(oracles.spearman(composites, officials), abs=1e-12)
    print("criterion 4 PASS: correlation/conditional/groups/ECDF/KDE/MAE/Spearman vs oracles")


def test_criterion_5_distribution_properties_over_random_fixtures():
    pool = list(all_vector_strings())
    rng = random.Random(808)
    for fixture_no in range(1000):
        n = rng.randint(2, 12)
        records = [
            make_record(
                cve_id=f"CVE-2024-{20000 + k}",
                vector=rng.choice(pool),
                official=round(rng.uniform(0.0, 10.0), 1),
            )
            for k in range(n)
        ]
        scored, skipped = score_records(records)
        assert not skipped
        officials = [sr.record.official_score for sr in scored]

        f = ecdf(officials)
        values, cumulative = f.curve()
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
        assert f(max(officials)) == 1.0
        assert cumulative[-1] == 1.0

        cond = conditional_matrix(scored, "AV", "severity")
        for r, label in enumerate(cond.row_domain):
            row_sum = float(cond.probs[r].sum())
            if label in cond.empty_rows:
                assert row_sum == 0.0
            else:
                assert row_sum == pytest.approx(1.0, abs=1e-12)

        cm = correlation_matrix(FactorMatrix.from_scored(scored))
        assert np.array_equal(cm.values, cm.values.T, equal_nan=True)
        for k, label in enumerate(cm.labels):
            if label in cm.constant_labels:
                assert math.isnan(cm.values[k, k])
            else:
                assert cm.values[k, k] == 1.0
        finite = cm.values[~np.isnan(cm.values)]
        assert np.all(np.abs(finite) <= 1.0)
    print("criterion 5 PASS: ECDF/conditional/correlation properties over 1000 fixtures")


def test_criterion_6_analyze_is_deterministic(tmp_path):
    runner = CliRunner()
    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        result = runner.invoke(
            cli_main,
            ["analyze", "--cache", str(SAMPLE_CACHE), "--out", str(out_dir), "--seed", "11"],
        )
        assert result.exit_code == 0, result.output
        outputs.append(
            {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        )
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs between runs"
    print(f"criterion 6 PASS: two analyze runs byte-identical across {len(outputs[0])} files")


@pytest.mark.live
@pytest.mark.skipif(
    os.environ.get("CVERISK_LIVE") != "1",
    reason="network-gated: set CVERISK_LIVE=1 (and ideally NVD_API_KEY) to run",
)
def test_criterion_7_live_nvd_reproduction(live_records):
    """Headline numbers for the Jan 1-15 2024 NVD window; the detailed
    breakdown lives in test_live_nvd.py. Tolerances absorb NVD backfills."""
    count = len(live_records)
    assert abs(count - 1314) <= 0.05 * 1314, f"record count {count}"
    scored, _ = score_records(live_records)
    usable = [sr for sr in scored if sr.record.official_score is not None]
    network = [sr for sr in usable if "AV:N" in sr.record.vector_string]
    share = len(network) / len(usable)
    assert abs(share - 0.679) <= 0.03, f"network share {share:.3f}"
    print(f"criterion 7 PASS: {count} records, network share {share:.1%}")


def test_criterion_8_calibrated_model_beats_uniform_baseline(sample_scored):
    """The published head-to-head accuracy table cannot be rebuilt offline
    (it used an undisclosed split and an external model), so the gate pins
    the ordering it implies: a calibrated weight set must not lose to the
    uniform preset on held-out MAE, for several seeded splits."""
    pool = sorted(sample_scored, key=lambda sr: sr.record.cve_id)
    results = []
    for seed in (0, 1, 2):
        sample = random.Random(seed).sample(pool, 100)
        chosen = {sr.record.cve_id for sr in sample}
        holdout = [sr.record for sr in pool if sr.record.cve_id not in chosen]

        fitted = calibrate_weights(as_batch(sample))
        fitted_scored, _ = score_records(holdout, ModelConfig(weights=fitted))
        officials = [sr.record.official_score for sr in fitted_scored]
        fitted_mae = mae([sr.composite for sr in fitted_scored], officials)

        preset_scored, _ = score_records(holdout, ModelConfig(weights=uniform_weights()))
        preset_cal, _ = score_records([sr.record for sr in sample], ModelConfig(weights=uniform_weights()))
        preset_kappa = calibrate_kappa(preset_cal)
        refit = uniform_weights(kappa=preset_kappa)
        preset_mae = mae(
            [composite_score(sr.base_risk, sr.impact, refit) for sr in preset_scored],
            officials,
        )
        assert fitted_mae <= preset_mae + 1e-12, (
            f"seed {seed}: calibrated MAE {fitted_mae:.4f} vs uniform {preset_mae:.4f}"
        )
        results.append((seed, fitted_mae, preset_mae))
    summary = ", ".join(f"seed {s}: {a:.3f} <= {b:.3f}" for s, a, b in results)
    print(f"criterion 8 PASS: {summary}")
