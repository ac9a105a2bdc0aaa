"""Live reproduction against the real NVD API (opt-in, never in CI).

Run with::

    CVERISK_LIVE=1 NVD_API_KEY=... python3 -m pytest -m live tests/test_live_nvd.py

Expected values reflect the public NVD data for the January 1-15 2024
publication window as measured shortly after it closed. NVD rescans and
backfills older records, so every assertion carries an explicit tolerance;
a small drift outside one band means the snapshot moved, not that the code
broke.
"""

import os
import random

import pytest

from cverisk.analytics import ecdf, mae
from cverisk.calibration import calibrate_kappa, calibrate_weights, uniform_weights
from cverisk.model import ModelConfig, composite_score, score_records

import oracles
from conftest import as_batch

pytestmark = [
    pytest.mark.live,
    pytest.mark.skipif(
        os.environ.get("CVERISK_LIVE") != "1",
        reason="network-gated: set CVERISK_LIVE=1 (and ideally NVD_API_KEY) to run",
    ),
]

ORDINAL = {"N": 0.0, "L": 1.0, "H": 2.0}


def metric_code(vector_string, name):
    for token in vector_string.split("/")[1:]:
        key, _, code = token.partition(":")
        if key == name:
            return code
    raise AssertionError(f"{name} missing from {vector_string}")


@pytest.fixture(scope="module")
def usable(live_records):
    scored, _ = score_records(live_records, lenient=True)
    out = [sr for sr in scored if sr.record.official_score is not None]
    assert len(out) > 1000
    return out


def test_record_count(live_records):
    count = len(live_records)
    assert abs(count - 1314) <= 0.05 * 1314, f"got {count} records"


def test_network_vector_share(usable):
    network = sum(1 for sr in usable if metric_code(sr.record.vector_string, "AV") == "N")
    share = network / len(usable)
    assert abs(share - 0.679) <= 0.03, f"network share {share:.3f}"


def test_pr_none_mean_official_score(usable):
    scores = [
        sr.record.official_score
        for sr in usable
        if metric_code(sr.record.vector_string, "PR") == "N"
    ]
    mean = oracles.mean(scores)
    assert abs(mean - 7.24) <= 0.15, f"PR:None mean {mean:.3f} over {len(scores)} records"


def test_official_score_ecdf_at_thresholds(usable):
    f = ecdf([sr.record.official_score for sr in usable])
    for threshold, expected in ((4.0, 0.059), (7.0, 0.518), (9.0, 0.871)):
        got = float(f(threshold))
        assert abs(got - expected) <= 0.03, f"F({threshold}) = {got:.3f}, expected ~{expected}"


def test_cia_correlations_with_official_score(usable):
    officials = [sr.record.official_score for sr in usable]
    for name, expected in (("C", 0.66), ("I", 0.61), ("A", 0.66)):
        axis = [ORDINAL[metric_code(sr.record.vector_string, name)] for sr in usable]
        r = oracles.pearson(axis, officials)
        assert abs(r - expected) <= 0.05, f"r(CVSS, {name}) = {r:.3f}, expected ~{expected}"


def test_privilege_correlation_with_official_score(usable):
    # On the ordinal None < Low < High axis more required privilege tracks
    # lower scores, hence the negative coefficient.
    officials = [sr.record.official_score for sr in usable]
    axis = [ORDINAL[metric_code(sr.record.vector_string, "PR")] for sr in usable]
    r = oracles.pearson(axis, officials)
    assert abs(r - (-0.31)) <= 0.05, f"r(CVSS, PR) = {r:.3f}, expected ~-0.31"


def test_calibrated_model_beats_uniform_baseline_on_live_split(usable):
    pool = sorted(usable, key=lambda sr: sr.record.cve_id)
    sample = random.Random(0).sample(pool, 200)
    chosen = {sr.record.cve_id for sr in sample}
    holdout = [sr.record for sr in pool if sr.record.cve_id not in chosen]

    fitted = calibrate_weights(as_batch(sample))
    fitted_scored, _ = score_records(holdout, ModelConfig(weights=fitted))
    officials = [sr.record.official_score for sr in fitted_scored]
    fitted_mae = mae([sr.composite for sr in fitted_scored], officials)

    preset_cal, _ = score_records(
        [sr.record for sr in sample], ModelConfig(weights=uniform_weights())
    )
    refit = uniform_weights(kappa=calibrate_kappa(preset_cal))
    preset_scored, _ = score_records(holdout, ModelConfig(weights=uniform_weights()))
    preset_mae = mae(
        [composite_score(sr.base_risk, sr.impact, refit) for sr in preset_scored],
        officials,
    )
    assert fitted_mae <= preset_mae + 1e-12, f"{fitted_mae:.4f} vs {preset_mae:.4f}"
