"""Statistics against brute-force oracles: correlations, conditionals, the
joint risk index, distributions, and agreement measures."""

import math
import random

import numpy as np
import pytest

from cverisk.analytics import (
    ConditionalMatrix,
    CorrelationMatrix,
    DimensionMismatchError,
    Ecdf,
    FactorMatrix,
    TooFewRowsError,
    UnknownFactorError,
    conditional_matrix,
    correlation_matrix,
    ecdf,
    group_statistics,
    high_risk_share,
    joint_risk_index,
    kernel_density,
    mae,
    midranks,
    silverman_bandwidth,
    spearman_rho,
)
from cverisk.model import score_records

import oracles
from conftest import make_record
from test_model import CUSTOM_CONFIG


def scored(vector_suffix, official, cve_id="CVE-2024-12345"):
    """A batch of one scored record."""
    return scored_batch([(vector_suffix, official)], cve_ids=[cve_id])


def scored_batch(spec, cve_ids=None):
    """spec: list of (vector_suffix, official_score) pairs."""
    cve_ids = cve_ids or [f"CVE-2024-{70000 + k}" for k in range(len(spec))]
    records = [
        make_record(cve_id=cve_id, vector="CVSS:3.1/" + suffix, official=official)
        for cve_id, (suffix, official) in zip(cve_ids, spec)
    ]
    batch, skipped = score_records(records)
    assert not skipped
    return batch


# --- correlation matrix -----------------------------------------------------


def test_identical_columns_correlate_perfectly():
    col = [1.0, 2.0, 5.0, 3.0]
    fm = FactorMatrix(("x", "y"), np.array([col, col]).T)
    cm = correlation_matrix(fm)
    assert cm.values[0, 1] == 1.0
    assert cm.values[1, 0] == 1.0


def test_negated_column_correlates_negatively():
    col = np.array([1.0, 2.0, 5.0, 3.0])
    fm = FactorMatrix(("x", "y"), np.array([col, -col]).T)
    assert correlation_matrix(fm).values[0, 1] == -1.0


def test_correlation_matches_two_pass_oracle():
    rng = random.Random(424242)
    rows = [[rng.uniform(0, 10) for _ in range(5)] for _ in range(50)]
    fm = FactorMatrix(("a", "b", "c", "d", "e"), np.array(rows))
    cm = correlation_matrix(fm)
    for i in range(5):
        for j in range(5):
            xs = [row[i] for row in rows]
            ys = [row[j] for row in rows]
            want = 1.0 if i == j else oracles.pearson(xs, ys)
            assert cm.values[i, j] == pytest.approx(want, abs=1e-12)


def test_correlation_is_exactly_symmetric_with_unit_diagonal():
    rng = np.random.default_rng(7)
    fm = FactorMatrix(tuple("abcdef"), rng.uniform(0, 1, size=(40, 6)))
    cm = correlation_matrix(fm)
    assert np.array_equal(cm.values, cm.values.T)
    assert np.all(np.diag(cm.values) == 1.0)
    assert np.all(np.abs(cm.values) <= 1.0)


def test_constant_columns_are_flagged_not_zeroed():
    fm = FactorMatrix(
        ("varies", "flat", "also_varies"),
        np.array([[1.0, 4.0, 2.0], [2.0, 4.0, 1.0], [3.0, 4.0, 5.0]]),
    )
    cm = correlation_matrix(fm)
    assert cm.constant_labels == ("flat",)
    assert math.isnan(cm.values[0, 1])
    assert math.isnan(cm.values[1, 1])
    assert cm.values[0, 2] == pytest.approx(
        oracles.pearson([1, 2, 3], [2, 1, 5]), abs=1e-12
    )
    assert set(cm.undefined_pairs()) == {("varies", "flat"), ("flat", "also_varies")}


def test_correlation_needs_two_rows():
    fm = FactorMatrix(("x", "y"), np.array([[1.0, 2.0]]))
    with pytest.raises(TooFewRowsError):
        correlation_matrix(fm)


def test_factor_matrix_validation():
    with pytest.raises(DimensionMismatchError):
        FactorMatrix(("x", "y"), np.zeros((3, 4)))
    with pytest.raises(ValueError):
        FactorMatrix(("x",), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        FactorMatrix(("x", "x"), np.zeros((3, 2)))


def test_factor_matrix_from_scored_appends_official_column():
    batch = scored_batch(
        [("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", 9.8), ("AV:L/AC:H/PR:L/UI:R/S:U/C:L/I:N/A:N", 3.3)]
    )
    fm = FactorMatrix.from_scored(batch)
    assert fm.factor_names == ("AV", "AC", "PR", "UI", "S", "C", "I", "A", "CVSS")
    assert fm.rows.shape == (2, 9)
    assert list(fm.rows[:, 8]) == [9.8, 3.3]
    assert tuple(fm.rows[0, :8]) == batch[0].factors


def test_factor_matrix_from_scored_requires_officials():
    sr = scored("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", None)
    with pytest.raises(ValueError, match="official"):
        FactorMatrix.from_scored(sr)


# --- conditional matrices ---------------------------------------------------

HAND_FIXTURE = [
    # (vector suffix, official) -> AV x official severity, counted by hand
    ("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", 9.8),  # Network Critical
    ("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:N", 9.1),  # Network Critical
    ("AV:N/AC:L/PR:L/UI:N/S:U/C:H/I:N/A:N", 6.5),  # Network Medium
    ("AV:N/AC:H/PR:N/UI:R/S:U/C:L/I:L/A:N", 4.2),  # Network Medium
    ("AV:N/AC:L/PR:N/UI:R/S:U/C:N/I:L/A:N", 4.3),  # Network Medium
    ("AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:L", 5.3),  # Network Medium
    ("AV:N/AC:L/PR:N/UI:N/S:C/C:L/I:L/A:N", 7.2),  # Network High
    ("AV:N/AC:H/PR:N/UI:N/S:U/C:H/I:H/A:H", 8.1),  # Network High
    ("AV:A/AC:L/PR:N/UI:N/S:U/C:H/I:L/A:L", 7.1),  # Adjacent High
    ("AV:A/AC:H/PR:L/UI:N/S:U/C:L/I:L/A:L", 4.9),  # Adjacent Medium
    ("AV:A/AC:L/PR:H/UI:N/S:U/C:N/I:N/A:L", 2.6),  # Adjacent Low
    ("AV:L/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:H", 7.8),  # Local High
    ("AV:L/AC:H/PR:N/UI:R/S:U/C:L/I:N/A:N", 3.0),  # Local Low
    ("AV:L/AC:L/PR:H/UI:N/S:U/C:H/I:N/A:N", 4.4),  # Local Medium
    ("AV:L/AC:L/PR:N/UI:R/S:C/C:H/I:H/A:H", 9.6),  # Local Critical
    ("AV:L/AC:H/PR:L/UI:R/S:U/C:L/I:L/A:L", 4.6),  # Local Medium
    ("AV:P/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N", 4.6),  # Physical Medium
    ("AV:P/AC:H/PR:H/UI:R/S:U/C:L/I:N/A:N", 2.0),  # Physical Low
    ("AV:P/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:N", 6.1),  # Physical Medium
    ("AV:P/AC:L/PR:N/UI:R/S:C/C:H/I:H/A:H", 9.0),  # Physical Critical
]

# rows Network/Adjacent/Local/Physical, columns Low/Medium/High/Critical
HAND_COUNTS = [
    [0, 4, 2, 2],
    [1, 1, 1, 0],
    [1, 2, 1, 1],
    [1, 2, 0, 1],
]


def test_conditional_matrix_matches_hand_count():
    batch = scored_batch(HAND_FIXTURE)
    cm = conditional_matrix(batch, "AV", "official_severity")
    assert cm.row_domain == ("Network", "Adjacent", "Local", "Physical")
    assert cm.col_domain == ("Low", "Medium", "High", "Critical")
    assert cm.counts.tolist() == HAND_COUNTS
    for r, row in enumerate(HAND_COUNTS):
        total = sum(row)
        for c, count in enumerate(row):
            assert cm.probs[r, c] == pytest.approx(count / total, abs=1e-12)


def test_conditional_rows_sum_to_one_or_are_flagged():
    batch = scored_batch([(s, o) for s, o in HAND_FIXTURE if s.startswith("AV:N")])
    cm = conditional_matrix(batch, "AV", "official_severity")
    assert cm.empty_rows == ("Adjacent", "Local", "Physical")
    assert cm.probs[0].sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(cm.probs[1:] == 0.0)
    assert np.all(cm.counts[1:] == 0)


def test_conditional_single_category_row_is_marginal():
    batch = scored_batch([(s, o) for s, o in HAND_FIXTURE if s.startswith("AV:A")])
    cm = conditional_matrix(batch, "AV", "C")
    row = cm.probs[cm.row_domain.index("Adjacent")]
    assert row.sum() == pytest.approx(1.0, abs=1e-12)


def test_conditional_unknown_factor():
    batch = scored_batch(HAND_FIXTURE[:2])
    with pytest.raises(UnknownFactorError):
        conditional_matrix(batch, "AV", "bogus")
    with pytest.raises(UnknownFactorError):
        conditional_matrix(batch, "nope", "AV")


def test_combined_cia_factor_takes_the_worst_level():
    batch = scored_batch(
        [
            ("AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:L/A:N", 4.0),  # worst level Low
            ("AV:A/AC:L/PR:N/UI:N/S:U/C:N/I:L/A:H", 7.0),  # worst level High
            ("AV:L/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N", 0.0),  # worst level None
        ]
    )
    cm = conditional_matrix(batch, "AV", "combined_cia")
    assert cm.col_domain == ("None", "Low", "High")
    assert cm.counts.tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0], [0, 0, 0]]


def test_model_severity_factor_uses_model_classification():
    batch = scored_batch(HAND_FIXTURE)
    cm = conditional_matrix(batch, "AC", "severity")
    assert cm.counts.sum() == len(batch)


def test_official_severity_uses_the_thresholds_the_batch_was_scored_with():
    spec = [(3.4, "Low"), (3.7, "Medium"), (6.8, "High"), (8.7, "Critical"), (9.2, "Critical")]
    records = [
        make_record(cve_id=f"CVE-2024-{70000 + k}", official=official)
        for k, (official, _) in enumerate(spec)
    ]
    batch, _ = score_records(records, CUSTOM_CONFIG)  # tau 3.5 / 6.5 / 8.5
    cm = conditional_matrix(batch, "AV", "official_severity")
    want = [sum(label == col for _, label in spec) for col in cm.col_domain]
    assert cm.counts[cm.row_domain.index("Network")].tolist() == want == [1, 1, 1, 2]


def test_official_severity_requires_official_score():
    sr = scored("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", None)
    with pytest.raises(ValueError, match="official"):
        conditional_matrix(sr, "AV", "official_severity")


# --- joint risk -------------------------------------------------------------


def _row_index(fm, corr):
    per_pattern, pattern = joint_risk_index(fm, corr)
    return per_pattern[pattern]


def test_joint_risk_zero_below_thresholds():
    rows = np.random.default_rng(3).uniform(0, 1, (10, 4))
    rows[0] = -1.0  # below every column median
    fm = FactorMatrix(tuple("wxyz"), rows)
    assert _row_index(fm, correlation_matrix(fm))[0] == 0.0


def test_joint_risk_single_active_pair():
    values = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, -0.25], [0.0, -0.25, 1.0]])
    corr = CorrelationMatrix(("a", "b", "c"), values)
    # column medians are all 0.5; the first row activates only b and c
    rows = np.array([[0.1, 0.9, 0.6], [0.9, 0.1, 0.1], [0.5, 0.5, 0.5]])
    fm = FactorMatrix(("a", "b", "c"), rows)
    assert _row_index(fm, corr)[0] == abs(-0.25) * -0.25


def test_joint_risk_matches_pair_sum_oracle():
    rng = np.random.default_rng(11)
    fm = FactorMatrix(tuple("wxyz"), rng.uniform(0, 1, (10, 4)))
    corr = correlation_matrix(fm)
    weights = np.abs(corr.values).tolist()
    thresholds = np.median(fm.rows, axis=0).tolist()
    got = _row_index(fm, corr)
    for row, value in zip(fm.rows, got):
        want = oracles.joint_risk(list(row), corr.values.tolist(), weights, thresholds)
        assert value == pytest.approx(want, abs=1e-12)


def test_joint_risk_ignores_undefined_correlations():
    rows = np.array([[1.0, 4.0, 0.1], [2.0, 4.0, 0.9], [3.0, 4.0, 0.5]])
    fm = FactorMatrix(("a", "flat", "b"), rows)
    corr = correlation_matrix(fm)
    r = corr.values[0, 2]
    # the second row reaches every median; only the defined pair (a, b) counts
    assert _row_index(fm, corr)[1] == pytest.approx(abs(r) * r, abs=1e-12)


def test_joint_risk_dimension_checks():
    rows = np.array([[0.1, 0.2], [0.3, 0.4], [0.2, 0.1]])
    fm = FactorMatrix(("a", "b"), rows)
    renamed = FactorMatrix(("a", "c"), rows)
    wider = FactorMatrix(("a", "b", "c"), np.c_[rows, rows[:, 0]])
    for other in (renamed, wider):
        with pytest.raises(DimensionMismatchError):
            joint_risk_index(fm, correlation_matrix(other))
    names = tuple(f"f{k}" for k in range(65))
    many = FactorMatrix(names, np.random.default_rng(5).uniform(size=(3, 65)))
    with pytest.raises(DimensionMismatchError, match="64"):
        joint_risk_index(many, correlation_matrix(many))


# --- ECDF -------------------------------------------------------------------


def test_ecdf_le_convention():
    f = ecdf([5.0, 5.0, 5.0])
    assert f(4.9) == 0.0
    assert f(5.0) == 1.0
    assert f(10.0) == 1.0


def test_ecdf_jumps_by_tie_multiplicity():
    f = ecdf([1.0, 2.0, 2.0, 3.0])
    assert f(0.9) == 0.0
    assert f(1.0) == 0.25
    assert f(2.0) == 0.75
    assert f(3.0) == 1.0


def test_ecdf_matches_counting_oracle():
    rng = random.Random(5)
    scores = [round(rng.uniform(0, 10), 1) for _ in range(100)]
    f = ecdf(scores)
    for r in [0.0, 1.7, 3.3, 5.0, 6.1, 9.9, 10.0]:
        assert f(r) == pytest.approx(oracles.ecdf_at(scores, r), abs=1e-12)


def test_ecdf_curve_is_monotone_and_ends_at_one():
    rng = random.Random(17)
    scores = [rng.uniform(0, 10) for _ in range(37)]
    values, cumulative = ecdf(scores).curve()
    assert list(values) == sorted(set(scores))
    assert all(a < b for a, b in zip(values, values[1:]))
    assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))
    assert cumulative[-1] == 1.0


def test_ecdf_accepts_arrays_and_rejects_bad_input():
    f = ecdf(np.array([1.0, 2.0]))
    out = f(np.array([0.5, 1.0, 3.0]))
    assert list(out) == [0.0, 0.5, 1.0]
    with pytest.raises(TooFewRowsError, match="ecdf requires at least one score"):
        ecdf([])
    with pytest.raises(ValueError):
        ecdf([-0.1])
    with pytest.raises(ValueError):
        ecdf([10.2])
    # the constructor checks too, and a NaN, which sorts last, skips the
    # range check as numpy's min and max do
    with pytest.raises(TooFewRowsError, match="ecdf requires at least one score"):
        Ecdf(np.array([]))
    with pytest.raises(ValueError, match=r"\[0, 10\]"):
        Ecdf(np.array([5.0, -0.1]))
    with pytest.raises(ValueError, match=r"\[0, 10\]"):
        Ecdf(np.array([10.2, 5.0]))
    assert Ecdf(np.array([10.0, 0.0])).sorted_scores.tolist() == [0.0, 10.0]
    for scores in ([float("nan")], [5.0, float("nan")], [-1.0, float("nan"), 11.0]):
        assert ecdf(scores).sorted_scores.size == len(scores)


def test_ecdf_against_uniform_reference_within_dkw_band():
    """With 100 seeded uniform scores, the worst deviation from the true CDF
    stays inside the 99%-confidence Dvoretzky-Kiefer-Wolfowitz band."""
    rng = random.Random(271828)
    n = 100
    scores = [rng.uniform(0.0, 10.0) for _ in range(n)]
    f = ecdf(scores)
    eps = math.sqrt(math.log(2 / 0.01) / (2 * n))
    grid = [k / 100 * 10.0 for k in range(101)]
    worst = max(abs(f(r) - r / 10.0) for r in grid + scores)
    assert worst <= eps


# --- grouped statistics -----------------------------------------------------


def test_group_statistics_single_group():
    batch = scored_batch(
        [("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", 6.0), ("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", 8.0)]
    )
    stats = group_statistics(batch, "AV")
    network = stats[0]
    assert network.category == "Network"
    assert network.count == 2
    assert network.mean == pytest.approx(7.0, abs=1e-12)
    assert network.median == pytest.approx(7.0, abs=1e-12)
    assert network.std == pytest.approx(oracles.std([6.0, 8.0]), abs=1e-12)


def test_group_statistics_keeps_domain_order_with_nan_gaps():
    batch = scored_batch([("AV:L/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", 7.5)])
    stats = group_statistics(batch, "AV")
    assert [g.category for g in stats] == ["Network", "Adjacent", "Local", "Physical"]
    assert stats[0].count == 0 and math.isnan(stats[0].mean)
    assert stats[2].count == 1
    assert math.isnan(stats[2].std)  # sample std undefined for a singleton


def test_group_statistics_matches_quartile_oracle():
    rng = random.Random(23)
    spec = []
    for _ in range(60):
        av = rng.choice("NALP")
        spec.append((f"AV:{av}/AC:L/PR:N/UI:N/S:U/C:H/I:L/A:N", round(rng.uniform(1, 10), 1)))
    batch = scored_batch(spec)
    by_label = {"Network": [], "Adjacent": [], "Local": [], "Physical": []}
    code_to_label = {"N": "Network", "A": "Adjacent", "L": "Local", "P": "Physical"}
    for (suffix, official) in spec:
        by_label[code_to_label[suffix[3]]].append(official)
    for g in group_statistics(batch, "AV"):
        vals = by_label[g.category]
        assert g.count == len(vals)
        if len(vals) >= 2:
            assert g.mean == pytest.approx(oracles.mean(vals), abs=1e-12)
            assert g.std == pytest.approx(oracles.std(vals), abs=1e-12)
            assert g.median == pytest.approx(oracles.median(vals), abs=1e-12)
            assert g.q1 == pytest.approx(oracles.quantile(vals, 0.25), abs=1e-12)
            assert g.q3 == pytest.approx(oracles.quantile(vals, 0.75), abs=1e-12)


def test_group_statistics_empty_input():
    with pytest.raises(TooFewRowsError, match="no records to group"):
        group_statistics([], "AV")


# --- high-risk share and cell means -----------------------------------------


def test_high_risk_share_of_an_empty_batch():
    empty, _ = score_records([])
    with pytest.raises(TooFewRowsError, match="no records to group"):
        high_risk_share(empty, "AV")


def test_high_risk_share_zero_when_all_below():
    batch = scored_batch([("AV:N/AC:L/PR:N/UI:N/S:U/C:L/I:N/A:N", 3.1)] * 3)
    shares = high_risk_share(batch, "AV")
    assert shares[0].share == 0.0
    assert shares[0].count == 3 and shares[0].high_risk == 0


def test_high_risk_share_hand_count():
    batch = scored_batch(HAND_FIXTURE)
    shares = {h.category: h for h in high_risk_share(batch, "AV", 7.0)}
    assert (shares["Network"].count, shares["Network"].high_risk) == (8, 4)
    assert shares["Network"].share == pytest.approx(0.5, abs=1e-12)
    assert (shares["Adjacent"].count, shares["Adjacent"].high_risk) == (3, 1)
    assert math.isnan(high_risk_share(batch[:8], "AV")[1].share)  # no Adjacent rows


def test_high_risk_share_custom_threshold():
    batch = scored_batch(HAND_FIXTURE)
    shares = {h.category: h for h in high_risk_share(batch, "AV", 9.0)}
    assert shares["Network"].high_risk == 2


def test_cross_statistics_cell_means():
    batch = scored_batch(
        [
            ("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", 9.0),
            ("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:N", 8.0),
            ("AV:N/AC:H/PR:L/UI:N/S:U/C:H/I:N/A:N", 5.0),
        ]
    )
    table = conditional_matrix(batch, "AC", "PR")
    low_none = table.means[table.row_domain.index("Low"), table.col_domain.index("None")]
    assert low_none == pytest.approx(8.5, abs=1e-12)
    assert table.counts[table.row_domain.index("Low"), table.col_domain.index("None")] == 2
    high_low = table.means[table.row_domain.index("High"), table.col_domain.index("Low")]
    assert high_low == pytest.approx(5.0, abs=1e-12)
    empty = table.means[table.row_domain.index("High"), table.col_domain.index("High")]
    assert math.isnan(empty)


# --- kernel density ---------------------------------------------------------


def test_kde_two_point_symmetry():
    est = kernel_density([0.0, 10.0], grid=np.linspace(-5.0, 15.0, 801))
    left = est.density
    right = left[::-1]  # grid is symmetric around 5
    assert np.max(np.abs(left - right)) < 1e-9


def test_kde_identical_points_peak_at_value():
    # zero spread shrinks the fallback bandwidth below the default grid
    # spacing, so evaluate on a grid that actually straddles the value
    est = kernel_density([4.2] * 10, grid=np.linspace(4.0, 4.4, 401))
    peak = est.grid[int(np.argmax(est.density))]
    assert abs(peak - 4.2) < 1e-9
    assert np.all(est.density >= 0.0)


def test_kde_matches_kernel_sum_oracle():
    rng = random.Random(31)
    scores = [rng.uniform(0, 10) for _ in range(30)]
    grid = np.linspace(-1.0, 11.0, 25)
    est = kernel_density(scores, grid=grid)
    for x, density in zip(grid, est.density):
        assert density == pytest.approx(oracles.kde_at(scores, est.bandwidth, x), abs=1e-12)


def test_kde_integrates_to_one():
    rng = random.Random(37)
    scores = [rng.uniform(0, 10) for _ in range(200)]
    est = kernel_density(scores)
    integral = oracles.trapezoid(list(est.density), list(est.grid))
    assert abs(integral - 1.0) < 0.01


def test_kde_blocks_match_one_shot_sum():
    # 5,000 distinct unrounded scores put 209 grid rows in a block, so three
    # blocks cover 512 rows; repeats give the distinct values counts 1 to 3.
    rng = random.Random(41)
    distinct = [rng.uniform(0, 10) for _ in range(5000)]
    scores = np.array(distinct + distinct[:2000] + distinct[:500])
    est = kernel_density(scores)
    h = est.bandwidth
    norm = scores.size * h * math.sqrt(2.0 * math.pi)
    z = (est.grid[:, None] - scores[None, :]) / h
    per_score = np.exp(-0.5 * z * z).sum(axis=1) / norm
    np.testing.assert_allclose(est.density, per_score, rtol=1e-12, atol=0.0)
    values, counts = np.unique(scores, return_counts=True)
    assert set(counts.tolist()) == {1, 2, 3}
    z = (est.grid[:, None] - values[None, :]) / h
    weighted = (np.exp(-0.5 * z * z) * counts).sum(axis=1) / norm
    assert np.array_equal(est.density, weighted)


def test_kde_needs_two_points():
    with pytest.raises(TooFewRowsError, match="need at least 2 scores, got 1"):
        kernel_density([5.0])
    with pytest.raises(TooFewRowsError, match="need at least 2 scores, got 0"):
        kernel_density([])


def test_silverman_bandwidth_rule_and_fallbacks():
    scores = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    sd = oracles.std(list(scores))
    iqr = oracles.quantile(list(scores), 0.75) - oracles.quantile(list(scores), 0.25)
    want = 0.9 * min(sd, iqr / 1.34) * len(scores) ** -0.2
    assert silverman_bandwidth(scores) == pytest.approx(want, abs=1e-12)
    # zero IQR but positive spread falls back to the standard deviation
    clustered = np.array([5.0] * 9 + [9.0])
    assert silverman_bandwidth(clustered) == pytest.approx(
        0.9 * oracles.std(list(clustered)) * 10 ** -0.2, abs=1e-12
    )
    # no spread at all falls back to a nominal positive width
    assert silverman_bandwidth(np.array([3.0, 3.0, 3.0])) > 0.0


# --- MAE and Spearman -------------------------------------------------------


def test_mae_basics():
    assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae([1.0, 3.0], [2.0, 1.0]) == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(DimensionMismatchError, match="length mismatch: 1 vs 2"):
        mae([1.0], [1.0, 2.0])
    with pytest.raises(TooFewRowsError, match="mae of empty input"):
        mae([], [])


def test_mae_matches_oracle():
    rng = random.Random(41)
    pred = [rng.uniform(0, 10) for _ in range(50)]
    truth = [rng.uniform(0, 10) for _ in range(50)]
    assert mae(pred, truth) == pytest.approx(oracles.mae(pred, truth), abs=1e-12)


def test_midranks_average_ties():
    assert list(midranks([10.0, 20.0, 20.0, 30.0])) == [1.0, 2.5, 2.5, 4.0]
    assert list(midranks([5.0, 5.0, 5.0])) == [2.0, 2.0, 2.0]
    rng = random.Random(43)
    values = [rng.choice([1.0, 2.0, 2.5, 7.0]) for _ in range(30)]
    assert list(midranks(values)) == oracles.midranks(values)


def test_midranks_put_each_nan_last_in_input_order():
    nan = math.nan
    assert list(midranks([nan, 1.0, nan])) == [2.0, 1.0, 3.0]
    assert list(midranks([2.0, nan, 2.0, 1.0, nan])) == [2.5, 4.0, 2.5, 1.0, 5.0]
    assert list(midranks([nan])) == [1.0]
    assert midranks([]).size == 0


def test_spearman_identity_and_reversal():
    xs = [1.0, 2.0, 3.0, 4.0]
    assert spearman_rho(xs, xs) == pytest.approx(1.0, abs=1e-12)
    assert spearman_rho(xs, xs[::-1]) == pytest.approx(-1.0, abs=1e-12)


def test_spearman_with_ties_matches_oracle():
    rng = random.Random(47)
    pred = [rng.choice([1.0, 2.0, 2.0, 3.5, 8.0]) for _ in range(30)]
    truth = [rng.choice([0.5, 2.0, 4.0, 4.0, 9.0]) for _ in range(30)]
    assert spearman_rho(pred, truth) == pytest.approx(oracles.spearman(pred, truth), abs=1e-12)


def test_spearman_degenerate_inputs():
    assert math.isnan(spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
    with pytest.raises(TooFewRowsError):
        spearman_rho([1.0], [2.0])
    with pytest.raises(DimensionMismatchError, match="length mismatch: 2 vs 1"):
        spearman_rho([1.0, 2.0], [1.0])
