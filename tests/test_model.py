"""Scoring arithmetic: weighted exploitability, CIA impact aggregation,
rounded composite, and severity classification."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cverisk.cache import read_cache
from cverisk.encoding import DEFAULT_MAPS, AttributeMaps
from cverisk.model import (
    ModelConfig,
    ModelWeights,
    Severity,
    SeverityThresholds,
    base_risk,
    classify,
    composite_score,
    grid_steps,
    impact_score,
    score_records,
)
from cverisk.vector import (
    AttackComplexity,
    AttackVector,
    MissingMetricError,
    PrivilegesRequired,
    VectorError,
    parse_vector,
)

import oracles
from conftest import SAMPLE_CACHE, make_record, score_one

UNIFORM = ModelWeights(1 / 3, 1 / 3, 1 / 3)


def vec(s):
    return parse_vector("CVSS:3.1/" + s)


# --- weight and threshold invariants ---------------------------------------


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="must equal 1"):
        ModelWeights(0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="must equal 1"):
        ModelWeights(0.3, 0.3, 0.3)
    # a sum within 1e-12 of 1 is accepted
    ModelWeights(1 / 3, 1 / 3, 1 - 2 / 3)


def test_weights_must_be_non_negative():
    with pytest.raises(ValueError, match="non-negative"):
        ModelWeights(-0.1, 0.6, 0.5)


def test_lambda_range_and_scale_checks():
    with pytest.raises(ValueError, match="lambda_i"):
        ModelWeights(1 / 3, 1 / 3, 1 / 3, lambda_i=1.5)
    with pytest.raises(ValueError, match="kappa"):
        ModelWeights(1 / 3, 1 / 3, 1 / 3, kappa=0.0)
    with pytest.raises(ValueError, match="delta"):
        ModelWeights(1 / 3, 1 / 3, 1 / 3, delta=-0.1)


def test_a_zero_rounding_grid_is_rejected():
    with pytest.raises(ValueError, match="delta must be positive"):
        ModelWeights(1 / 3, 1 / 3, 1 / 3, delta=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", ["alpha", "beta", "gamma", "lambda_c", "lambda_i", "lambda_a", "kappa", "delta"]
)
def test_weights_must_be_finite(name, value):
    fields = {"alpha": 1 / 3, "beta": 1 / 3, "gamma": 1 / 3, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ModelWeights(**fields)


def test_threshold_ordering_enforced():
    SeverityThresholds(1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        SeverityThresholds(7.0, 4.0, 9.0)
    with pytest.raises(ValueError):
        SeverityThresholds(0.0, 7.0, 9.0)
    with pytest.raises(ValueError):
        SeverityThresholds(4.0, 7.0, 10.5)


# --- base risk --------------------------------------------------------------


def test_base_risk_is_one_at_the_most_exposed_vector():
    v = vec("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
    assert base_risk(v, DEFAULT_MAPS, UNIFORM) == pytest.approx(1.0, abs=1e-12)


def test_base_risk_hand_arithmetic():
    # phi(P) = .2/.85, psi(H) = .44/.77, omega(H) = .27/.85, uniform weights
    expected = (Fraction(20, 85) + Fraction(44, 77) + Fraction(27, 85)) / 3
    v = vec("AV:P/AC:H/PR:H/UI:N/S:U/C:H/I:H/A:H")
    got = base_risk(v, DEFAULT_MAPS, UNIFORM)
    assert got == pytest.approx(float(expected), abs=1e-12)
    assert round(got, 4) == 0.3748


def test_base_risk_degenerate_weights_select_one_map():
    w = ModelWeights(1.0, 0.0, 0.0)
    for code, expected in (("N", 1.0), ("A", 0.62 / 0.85), ("L", 0.55 / 0.85), ("P", 0.2 / 0.85)):
        v = vec(f"AV:{code}/AC:H/PR:H/UI:N/S:U/C:N/I:N/A:N")
        assert base_risk(v, DEFAULT_MAPS, w) == expected


@given(
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
)
def test_base_risk_stays_in_unit_interval(a, b):
    if a + b > 1.0:
        a, b = a * 0.5, b * 0.5
    w = ModelWeights(a, b, max(0.0, 1.0 - a - b))
    for codes in ("AV:N/AC:L/PR:N", "AV:P/AC:H/PR:H", "AV:L/AC:H/PR:L"):
        v = vec(codes + "/UI:N/S:U/C:N/I:N/A:N")
        assert -1e-12 <= base_risk(v, DEFAULT_MAPS, w) <= 1.0 + 1e-12


# --- impact -----------------------------------------------------------------


def test_impact_zero_when_no_impact():
    v = vec("AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N")
    assert impact_score(v, UNIFORM) == 0.0


def test_impact_all_high_full_lambda():
    # 1 - (1 - 0.56)^3, evaluated in exact rational arithmetic
    expected = 1 - (1 - Fraction(56, 100)) ** 3
    assert expected == Fraction(914816, 1000000)
    v = vec("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
    assert impact_score(v, UNIFORM) == pytest.approx(float(expected), abs=1e-12)


def test_impact_single_high_component():
    v = vec("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N")
    assert impact_score(v, UNIFORM) == pytest.approx(0.56, abs=1e-12)


def test_impact_lambda_scales_components():
    w = ModelWeights(1 / 3, 1 / 3, 1 / 3, lambda_c=0.5, lambda_i=0.0, lambda_a=0.0)
    v = vec("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
    assert impact_score(v, w) == pytest.approx(0.5 * 0.56, abs=1e-12)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_impact_stays_below_one(lc, li, la):
    w = ModelWeights(1 / 3, 1 / 3, 1 / 3, lambda_c=lc, lambda_i=li, lambda_a=la)
    v = vec("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
    assert 0.0 <= impact_score(v, w) < 1.0


# --- rounding and composite -------------------------------------------------


def test_round_up_basics():
    assert grid_steps(9.14784, 0.1) * 0.1 == pytest.approx(9.2, abs=1e-12)
    assert grid_steps(4.0, 0.1) * 0.1 == pytest.approx(4.0, abs=1e-12)
    assert grid_steps(0.01, 0.1) * 0.1 == pytest.approx(0.1, abs=1e-12)
    assert grid_steps(0.0, 0.1) * 0.1 == 0.0


def test_round_up_absorbs_float_dust():
    # 0.1 * 3 = 0.30000000000000004 must not climb to 0.4
    assert grid_steps(0.1 + 0.1 + 0.1, 0.1) * 0.1 == pytest.approx(0.3, abs=1e-12)
    assert grid_steps(7.0 + 1e-12, 0.1) * 0.1 == pytest.approx(7.0, abs=1e-12)
    assert grid_steps(7.000001, 0.1) * 0.1 == pytest.approx(7.1, abs=1e-12)


def test_composite_zero_exploitability():
    assert composite_score(0.0, 0.9, UNIFORM) == 0.0


def test_composite_reference_value_rounds_to_nine_point_two():
    raw = 10.0 * 1.0 * 0.914784 * UNIFORM.kappa
    assert raw == pytest.approx(9.14784, abs=1e-12)
    assert composite_score(1.0, 0.914784, UNIFORM) == pytest.approx(9.2, abs=1e-12)


def test_composite_caps_at_ten():
    w = ModelWeights(1 / 3, 1 / 3, 1 / 3, kappa=1.32)
    raw = 10.0 * 1.0 * 0.914784 * 1.32
    assert raw == pytest.approx(12.0751488, abs=1e-12)
    assert composite_score(1.0, 0.914784, w) == 10.0


def test_composite_matches_scalar_oracle_across_kappas():
    for kappa in (0.5, 0.77, 1.0, 1.32, 2.0):
        w = ModelWeights(1 / 3, 1 / 3, 1 / 3, kappa=kappa)
        for rb, imp in ((0.2, 0.1), (0.5, 0.56), (0.9, 0.914816), (1.0, 0.99)):
            assert composite_score(rb, imp, w) == oracles.composite(rb, imp, kappa, 0.1)


def test_composite_respects_granularity():
    w = ModelWeights(1 / 3, 1 / 3, 1 / 3, delta=0.5)
    assert composite_score(0.5, 0.56, w) == pytest.approx(3.0, abs=1e-12)  # 2.8 -> 3.0


# --- classification ---------------------------------------------------------


def test_classification_boundaries():
    assert classify(0.0) is Severity.LOW
    assert classify(3.9) is Severity.LOW
    assert classify(4.0) is Severity.MEDIUM
    assert classify(6.9) is Severity.MEDIUM
    assert classify(7.0) is Severity.HIGH
    assert classify(8.9) is Severity.HIGH
    assert classify(9.0) is Severity.CRITICAL
    assert classify(10.0) is Severity.CRITICAL


def test_classification_rejects_out_of_range():
    with pytest.raises(ValueError):
        classify(-0.1)
    with pytest.raises(ValueError):
        classify(10.1)


def test_severity_levels_and_labels():
    assert [s.value for s in Severity] == [1, 2, 3, 4]
    assert [s.label for s in Severity] == ["Low", "Medium", "High", "Critical"]
    assert Severity.CRITICAL > Severity.LOW


def test_custom_thresholds():
    t = SeverityThresholds(2.0, 5.0, 8.0)
    assert classify(4.9, t) is Severity.MEDIUM
    assert classify(8.0, t) is Severity.CRITICAL


# --- record scoring ---------------------------------------------------------


def test_score_record_reference_pipeline():
    sr = score_one(make_record())
    assert sr.base_risk == pytest.approx(1.0, abs=1e-12)
    assert sr.composite == pytest.approx(9.2, abs=1e-12)
    assert sr.severity is Severity.CRITICAL
    assert len(sr.factors) == 8


def test_score_record_zero_impact_is_low():
    sr = score_one(make_record(vector="CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N"))
    assert sr.composite == 0.0
    assert sr.severity is Severity.LOW


def test_score_record_without_vector():
    scored, skipped = score_records([make_record(vector=None)])
    assert not scored
    [(cve_id, reason)] = skipped
    assert cve_id == "CVE-2024-12345"
    assert "vector" in reason


def test_score_record_bad_vector_chains_parser_error():
    with pytest.raises(MissingMetricError) as info:
        parse_vector("CVSS:3.1/AV:N")
    _, skipped = score_records([make_record(vector="CVSS:3.1/AV:N")])
    assert skipped == [("CVE-2024-12345", str(info.value))]


def test_score_record_lenient_prefix():
    old = make_record(vector="CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H")
    _, skipped = score_records([old])
    assert [cve_id for cve_id, _ in skipped] == [old.cve_id]
    assert score_one(old, lenient=True).composite == pytest.approx(9.2, abs=1e-12)


def test_score_record_is_deterministic():
    record = make_record()
    assert score_one(record) == score_one(record)


def test_score_records_splits_good_and_bad():
    records = [
        make_record(cve_id="CVE-2024-10000"),
        make_record(cve_id="CVE-2024-10001", vector=None),
        make_record(cve_id="CVE-2024-10002", vector="CVSS:3.1/broken"),
    ]
    scored, skipped = score_records(records)
    assert [sr.record.cve_id for sr in scored] == ["CVE-2024-10000"]
    assert [cve_id for cve_id, _ in skipped] == ["CVE-2024-10001", "CVE-2024-10002"]
    assert all(isinstance(reason, str) and reason for _, reason in skipped)


def test_score_records_reports_every_repeat_of_an_invalid_string():
    bad = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:X"
    records = [
        make_record(cve_id="CVE-2024-10000", vector=bad),
        make_record(cve_id="CVE-2024-10001"),
        make_record(cve_id="CVE-2024-10002", vector=bad),
        make_record(cve_id="CVE-2024-10003", vector=bad),
    ]
    scored, skipped = score_records(records)
    assert [sr.record.cve_id for sr in scored] == ["CVE-2024-10001"]
    with pytest.raises(VectorError) as info:
        parse_vector(bad)
    assert skipped == [(records[k].cve_id, str(info.value)) for k in (0, 2, 3)]


CUSTOM_CONFIG = ModelConfig(
    maps=AttributeMaps(
        phi={AttackVector.NETWORK: 0.9, AttackVector.ADJACENT: 0.7,
             AttackVector.LOCAL: 0.5, AttackVector.PHYSICAL: 0.1},
        psi={AttackComplexity.LOW: 0.95, AttackComplexity.HIGH: 0.4},
        omega={PrivilegesRequired.NONE: 1.0, PrivilegesRequired.LOW: 0.6,
               PrivilegesRequired.HIGH: 0.2},
    ),
    weights=ModelWeights(0.2, 0.3, 0.5, 0.75, 0.5, 1.0, kappa=1.35, delta=0.05),
    thresholds=SeverityThresholds(3.5, 6.5, 8.5),
)


@pytest.mark.parametrize(
    "config, lenient",
    [(None, False), (CUSTOM_CONFIG, False), (None, True), (CUSTOM_CONFIG, True)],
    ids=["default", "custom", "default-lenient", "custom-lenient"],
)
def test_score_records_equals_score_record_per_record(config, lenient):
    """The per-string and per-code sharing in score_records gives exactly the
    records that scoring each one alone with score_records gives, including
    skip reasons."""
    extra = [
        "CVSS:3.0/AV:L/AC:H/PR:L/UI:R/S:C/C:L/I:N/A:H",
        "CVSS:3.1/S:C/AV:L/AC:H/PR:L/UI:R/C:L/I:N/A:H",
        "CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H",
    ]
    records = list(read_cache(SAMPLE_CACHE)) + [
        make_record(cve_id=f"CVE-2025-{20000 + k}", vector=vs) for k, vs in enumerate(extra * 2)
    ]
    expected, expected_skipped = [], []
    for record in records:
        one = score_one(record, config, lenient=lenient)
        if isinstance(one, str):
            expected_skipped.append((record.cve_id, one))
        else:
            expected.append(one)
    scored, skipped = score_records(records, config, lenient=lenient)
    assert list(scored) == expected
    assert skipped == expected_skipped
    by_code = {}
    for sr in scored:
        first = by_code.setdefault(sr.vector.code, sr)
        assert sr.vector is first.vector and sr.factors is first.factors
    assert len(scored.table) == len(by_code)
    assert scored.thresholds == (config or ModelConfig()).thresholds
    assert scored.codes.tolist() == [sr.vector.code for sr in expected]
    assert scored.factors.tolist() == [list(sr.factors) for sr in expected]
    for column in ("base_risk", "impact", "composite", "severity"):
        assert getattr(scored, column).tolist() == [getattr(sr, column) for sr in expected]
    with_official = [sr.record.official_score is not None for sr in expected]
    assert scored[np.array(with_official)].officials.tolist() == [
        sr.record.official_score for sr in expected if sr.record.official_score is not None
    ]
    with pytest.raises(ValueError, match="no official score"):
        scored.officials


def test_sub_batches_keep_record_order_table_and_thresholds():
    batch, _ = score_records(read_cache(SAMPLE_CACHE), CUSTOM_CONFIG)
    n = len(batch)
    mask = np.arange(n) % 3 == 1
    for key, picked in [
        (slice(10, 40, 3), list(range(10, 40, 3))),
        (mask, np.flatnonzero(mask).tolist()),
        (np.array([n - 1, 0, 5, 5]), [n - 1, 0, 5, 5]),
    ]:
        sub = batch[key]
        assert sub.records == [batch.records[k] for k in picked]
        assert sub.rows.tolist() == [batch.rows[k] for k in picked]
        assert sub.table is batch.table and sub.thresholds is batch.thresholds
        assert list(sub) == [batch[k] for k in picked]
        assert sub.composite.tolist() == [batch.composite[k] for k in picked]
    assert batch[-1] == batch[n - 1]
    assert len(batch[np.zeros(n, dtype=bool)]) == 0
    with pytest.raises(IndexError):
        batch[n]


def test_a_list_of_bools_is_a_mask_for_records_and_batches():
    records = read_cache(SAMPLE_CACHE)
    batch, _ = score_records(records)
    for container in (records, batch):
        n = len(container)
        mask = [k % 3 == 1 for k in range(n)]
        assert list(container[mask]) == [container[k] for k in range(1, n, 3)]
        with pytest.raises(IndexError):
            container[[True, False, True]]


def test_exhaustive_scoring_matches_bruteforce_classification(all_scored):
    assert len(all_scored) == 2592
    counts = Counter(sr.severity for sr in all_scored)
    config = ModelConfig()
    w = config.weights
    expected = Counter()
    for sr in all_scored:
        v = sr.vector
        rb = (
            w.alpha * DEFAULT_MAPS.phi[v.av]
            + w.beta * DEFAULT_MAPS.psi[v.ac]
            + w.gamma * DEFAULT_MAPS.omega[v.pr]
        )
        eta = {"NONE": 0.0, "LOW": 0.22, "HIGH": 0.56}
        imp = 1.0 - (1 - eta[v.c.name]) * (1 - eta[v.i.name]) * (1 - eta[v.a.name])
        sv = oracles.composite(rb, imp, w.kappa, w.delta)
        if sv < 4.0:
            expected[Severity.LOW] += 1
        elif sv < 7.0:
            expected[Severity.MEDIUM] += 1
        elif sv < 9.0:
            expected[Severity.HIGH] += 1
        else:
            expected[Severity.CRITICAL] += 1
    assert counts == expected
    assert sum(counts.values()) == 2592


def test_scored_record_composite_always_on_grid(all_scored):
    for sr in all_scored:
        assert 0.0 <= sr.composite <= 10.0
        steps = sr.composite / 0.1
        assert abs(steps - round(steps)) < 1e-6
