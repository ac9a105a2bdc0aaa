"""Report bundle assembly, serialization determinism, and rendering."""

import json
import math
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

from cverisk.analytics import (
    FactorMatrix,
    JointRiskConfig,
    correlation_matrix,
    joint_risk_index,
    mae,
    spearman_rho,
)
from cverisk.calibration import calibrate_kappa, uniform_weights
from cverisk.model import ModelConfig, ModelWeights, composite_score, score_records
from cverisk.report import (
    SUMMARY_SCHEMA_PATH,
    EmptyDatasetError,
    UnscoreableAllError,
    build_bundle,
    render_executive_summary,
    write_bundle,
    write_csv,
)

from conftest import make_record


@pytest.fixture(scope="module")
def bundle(sample_records):
    return build_bundle(sample_records, seed=7)


def test_dataset_accounting(bundle):
    ds = bundle.summary["dataset"]
    assert ds["records_in_cache"] == 200
    assert ds["records_excluded"] == 0
    assert ds["records_scored"] == 193
    assert ds["records_analyzed"] == 190
    assert ds["records_skipped"] == 10
    assert sum(ds["skip_reasons"].values()) == 10


def test_skip_report_lists_every_dropped_record(bundle, sample_records):
    assert len(bundle.skip_report) == 10
    ids = [row[0] for row in bundle.skip_report]
    assert ids == sorted(ids)
    reasons = {row[1] for row in bundle.skip_report}
    assert reasons == {"no CVSS v3.1 vector string", "no official score"}
    by_id = {r.cve_id: r for r in sample_records}
    for cve_id, reason in bundle.skip_report:
        record = by_id[cve_id]
        if reason == "no official score":
            assert record.official_score is None
        else:
            assert record.vector_string is None


def test_expected_tables_present(bundle):
    expected = {
        "severity_histogram",
        "severity_mix",
        "attack_vector_counts",
        "attack_vector_score_stats",
        "attack_vector_high_risk",
        "privilege_score_stats",
        "complexity_severity_probs",
        "complexity_severity_counts",
        "av_severity_probs",
        "ui_confidentiality_probs",
        "av_combined_impact_probs",
        "complexity_privilege_mean_score",
        "integrity_availability_mean_score",
        "high_risk_complexity_privilege",
        "cia_impact_levels",
        "cia_by_score_bin",
        "correlation_matrix",
        "ecdf",
        "kde_network",
        "kde_adjacent",
        "kde_local",
        "kde_physical",
        "joint_risk",
        "model_scores",
        "method_comparison",
    }
    assert expected <= set(bundle.tables)
    assert set(bundle.summary["tables"]) == set(bundle.tables)
    for name, (header, rows) in bundle.tables.items():
        assert header, name
        for row in rows:
            assert len(row) == len(header), name


def test_conditional_prob_tables_row_sums(bundle):
    for name in ("complexity_severity_probs", "av_severity_probs", "ui_confidentiality_probs"):
        header, rows = bundle.tables[name]
        for row in rows:
            values = [v for v in row[1:] if v != ""]
            total = sum(values)
            if total:  # empty categories serialize as all-zero rows
                assert total == pytest.approx(1.0, abs=1e-12), name


def test_model_scores_table_is_sorted_and_complete(bundle):
    header, rows = bundle.tables["model_scores"]
    assert header == (
        "cve_id",
        "official_score",
        "base_risk",
        "impact_score",
        "composite_score",
        "severity",
    )
    ids = [row[0] for row in rows]
    assert ids == sorted(ids)
    assert len(rows) == 190


def test_joint_risk_table_and_top_ten(bundle):
    _, rows = bundle.tables["joint_risk"]
    assert len(rows) == 190
    indexed = {row[0]: row[1] for row in rows}
    top = bundle.summary["joint_risk"]["top"]
    assert len(top) == 10
    values = [entry["index"] for entry in top]
    assert values == sorted(values, reverse=True)
    assert values[0] == max(indexed.values())
    for entry in top:
        assert indexed[entry["cve_id"]] == entry["index"]


def test_joint_risk_column_equals_the_per_row_index(bundle, sample_records):
    """Computing the index once per activation pattern changes no bit."""
    batch, _ = score_records(sample_records)
    scored = batch[np.array([r.official_score is not None for r in batch.records])]
    fm = FactorMatrix.from_scored(scored)
    corr = correlation_matrix(fm)
    cfg = JointRiskConfig.from_data(corr, fm)
    expected = [
        (sr.record.cve_id, joint_risk_index(row, corr, cfg)) for sr, row in zip(scored, fm.rows)
    ]
    assert bundle.tables["joint_risk"][1] == expected


def test_exclusions_are_honored(sample_records):
    drop = {sample_records[0].cve_id, sample_records[1].cve_id}
    b = build_bundle(sample_records, exclude_ids=frozenset(drop))
    assert b.summary["dataset"]["records_excluded"] == 2
    assert b.summary["dataset"]["records_in_cache"] == 200
    _, rows = b.tables["model_scores"]
    assert drop.isdisjoint({row[0] for row in rows})
    assert drop.isdisjoint({row[0] for row in b.skip_report})


def test_custom_config_flows_into_provenance(sample_records):
    config = ModelConfig(weights=uniform_weights(kappa=1.2))
    b = build_bundle(sample_records, config)
    assert b.summary["provenance"]["config"]["kappa"] == 1.2
    assert b.summary["provenance"]["seed"] is None
    assert b.summary["thresholds"] == {"tau1": 4.0, "tau2": 7.0, "tau3": 9.0, "high_risk": 7.0}


def test_cache_info_lands_in_provenance(sample_records):
    info = {
        "cache_schema": "cve-cache/1",
        "cache_retrieved_at": "2024-01-20T12:00:00+00:00",
        "dataset_sha256": "ab" * 32,
    }
    b = build_bundle(sample_records, cache_info=info)
    assert b.summary["provenance"]["dataset_sha256"] == "ab" * 32
    assert b.summary["provenance"]["cache_retrieved_at"] == "2024-01-20T12:00:00+00:00"


def test_empty_and_unscoreable_inputs_raise():
    with pytest.raises(EmptyDatasetError):
        build_bundle([])
    bare = [make_record(cve_id=f"CVE-2024-{60000 + k}", vector=None) for k in range(3)]
    with pytest.raises(UnscoreableAllError):
        build_bundle(bare)


def test_single_record_bundle_degrades_gracefully():
    b = build_bundle([make_record()])
    assert b.summary["correlations"]["defined"] is False
    assert b.summary["joint_risk"]["defined"] is False
    # every attack vector has under 2 points, so no densities are estimated
    assert b.summary["kde"]["bandwidths"] == {}
    assert b.summary["kde"]["skipped"] == ["Network", "Adjacent", "Local", "Physical"]
    assert b.summary["dataset"]["records_analyzed"] == 1
    render_executive_summary(b.summary)  # renders without raising


def test_summary_is_json_clean(bundle):
    text = json.dumps(bundle.summary, allow_nan=False)  # raises on NaN/inf
    assert "NaN" not in text


def test_nan_statistics_become_null(sample_records):
    # a single Physical record makes its per-group std undefined
    one = [r for r in sample_records if r.vector_string and "AV:P" in r.vector_string][:1]
    keep = [r for r in sample_records if r.vector_string and "AV:N" in r.vector_string][:20]
    b = build_bundle(one + keep)
    stats = {s["category"]: s for s in b.summary["attack_vector"]["score_stats"]}
    assert stats["Physical"]["std"] is None
    assert stats["Adjacent"]["mean"] is None  # empty group
    _, rows = b.tables["attack_vector_score_stats"]
    assert ("Adjacent", 0, "", "", "", "", "") in rows
    counts = b.summary["attack_vector"]["counts"]
    severe = b.summary["cross"]["av_severe_cia_share"]
    assert {label for label, c in counts.items() if c == 0} == {"Adjacent", "Local"}
    assert all(severe[label] is None for label, c in counts.items() if c == 0)
    assert all(severe[label] is not None for label, c in counts.items() if c > 0)


def test_summary_validates_against_shipped_schema(bundle):
    schema = json.loads(SUMMARY_SCHEMA_PATH.read_text(encoding="utf-8"))
    jsonschema.validate(bundle.summary, schema)


def test_rebuild_is_byte_identical(sample_records, tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    paths_a = write_bundle(build_bundle(sample_records, seed=3), a_dir)
    paths_b = write_bundle(build_bundle(sample_records, seed=3), b_dir)
    assert [p.name for p in paths_a] == [p.name for p in paths_b]
    for pa, pb in zip(paths_a, paths_b):
        assert pa.read_bytes() == pb.read_bytes(), pa.name


def test_render_from_reloaded_json_matches(bundle, tmp_path):
    live = render_executive_summary(bundle.summary)
    write_bundle(bundle, tmp_path)
    reloaded = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert render_executive_summary(reloaded) == live
    assert (tmp_path / "executive_summary.txt").read_text(encoding="utf-8") == live


def test_render_mentions_headline_numbers(bundle):
    text = render_executive_summary(bundle.summary)
    assert "190" in text
    mean = bundle.summary["official_score"]["mean"]
    assert f"{mean:.2f}" in text


def test_format_selector(bundle, tmp_path):
    json_only = write_bundle(bundle, tmp_path / "j", fmt="json")
    assert [p.name for p in json_only] == ["summary.json"]
    csv_only = write_bundle(bundle, tmp_path / "c", fmt="csv")
    assert all(p.suffix == ".csv" for p in csv_only)
    assert "skip_report.csv" in {p.name for p in csv_only}
    text_only = write_bundle(bundle, tmp_path / "t", fmt="text")
    assert [p.name for p in text_only] == ["executive_summary.txt"]
    everything = write_bundle(bundle, tmp_path / "all", fmt="all")
    assert len(everything) == len(bundle.tables) + 3  # summary, skips, text
    with pytest.raises(ValueError):
        write_bundle(bundle, tmp_path / "x", fmt="yaml")


def test_write_csv_trailing_newline_and_quoting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("id", "note"), [("a", "plain"), ("b", "has,comma")])
    raw = path.read_bytes()
    assert raw == b'id,note\na,plain\nb,"has,comma"\n'


def test_summary_json_bytes_are_canonical(bundle, tmp_path):
    write_bundle(bundle, tmp_path, fmt="json")
    raw = (tmp_path / "summary.json").read_text(encoding="utf-8")
    assert raw.endswith("\n")
    assert raw == json.dumps(json.loads(raw), indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _two_pass_uniform_row(records, config, lenient):
    """The uniform baseline as computed by rescoring every record: the
    preset scored through ``score_records``, kappa refit with
    ``calibrate_kappa``, then one ``composite_score`` per record."""
    scored, _ = score_records(records, config, lenient=lenient)
    scored = [sr for sr in scored if sr.record.official_score is not None]
    officials = [sr.record.official_score for sr in scored]
    delta = config.weights.delta
    preset_cfg = ModelConfig(config.maps, uniform_weights(delta=delta), config.thresholds)
    preset_scored, _ = score_records([sr.record for sr in scored], preset_cfg, lenient=lenient)
    kappa = calibrate_kappa(preset_scored, delta=delta)
    refit = uniform_weights(kappa, delta=delta)
    preset_scores = [composite_score(sr.base_risk, sr.impact, refit) for sr in preset_scored]
    return {
        "method": "uniform_baseline",
        "mae": mae(preset_scores, officials),
        "spearman_rho": spearman_rho(preset_scores, officials),
        "kappa": kappa,
    }


@pytest.mark.parametrize(
    "weights",
    [
        ModelWeights(1 / 3, 1 / 3, 1 / 3),
        ModelWeights(0.3, 0.3, 0.4, 1.0, 0.75, 0.75, kappa=1.15),
        ModelWeights(0.2, 0.5, 0.3, 0.5, 1.0, 0.25, kappa=0.9, delta=0.05),
    ],
)
def test_uniform_baseline_matches_the_two_pass_computation(sample_records, weights):
    # Every third vector under the CVSS:3.0 prefix, which only lenient mode reads.
    records = [
        replace(r, vector_string=r.vector_string.replace("CVSS:3.1", "CVSS:3.0"))
        if r.vector_string and k % 3 == 0
        else r
        for k, r in enumerate(sample_records)
    ]
    config = ModelConfig(weights=weights)
    bundle = build_bundle(records, config, lenient=True)
    baseline = bundle.summary["method_comparison"][1]
    assert baseline == _two_pass_uniform_row(records, config, lenient=True)
    assert bundle.summary["dataset"]["records_analyzed"] == 190
