"""Report bundle assembly, serialization determinism, and rendering."""

import csv
import io
import json
import math
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

from cverisk.analytics import FactorMatrix, correlation_matrix, mae, spearman_rho
from cverisk.calibration import calibrate_kappa, uniform_weights
from cverisk.model import ModelConfig, ModelWeights, composite_score, score_records
from cverisk.report import (
    SUMMARY_SCHEMA_PATH,
    CsvLines,
    EmptyDatasetError,
    ReportBundle,
    UnscoreableAllError,
    build_bundle,
    render_executive_summary,
    score_rows,
    write_bundle,
    write_csv,
)

from conftest import make_record
from test_model import CUSTOM_CONFIG


@pytest.fixture(scope="module")
def bundle(sample_records):
    return build_bundle(sample_records, seed=7)


def _typed(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def table_rows(bundle, name: str) -> tuple[tuple, list[tuple]]:
    """One bundle table's header and rows. A per-record table holds rendered
    lines; they are read back with ``csv.reader``, a number cell as a float
    and any other cell (an id, a label, a blank) as its text."""
    header, rows = bundle.tables[name]
    if isinstance(rows, CsvLines):
        rows = [tuple(_typed(cell) for cell in row) for row in csv.reader(rows)]
    return header, rows


def _csv_writer_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


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
    for name in bundle.tables:
        header, rows = table_rows(bundle, name)
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
    header, rows = table_rows(bundle, "model_scores")
    assert header == (
        "cve_id",
        "official_score",
        "base_risk",
        "impact_score",
        "composite_score",
        "severity",
    )
    ids = [row[0] for row in rows]
    assert all(cve_id.startswith("CVE-") for cve_id in ids)
    assert ids == sorted(ids)
    assert len(rows) == 190


def test_joint_risk_table_and_top_ten(bundle):
    _, rows = table_rows(bundle, "joint_risk")
    assert len(rows) == 190
    indexed = {row[0]: row[1] for row in rows}
    top = bundle.summary["joint_risk"]["top"]
    assert len(top) == 10
    values = [entry["index"] for entry in top]
    assert values == sorted(values, reverse=True)
    assert values[0] == max(indexed.values())
    for entry in top:
        assert indexed[entry["cve_id"]] == entry["index"]


def _per_row_joint_risk(scored):
    """The joint risk index summed row by row, with no pattern grouping."""
    fm = FactorMatrix.from_scored(scored)
    r = np.nan_to_num(correlation_matrix(fm).values, nan=0.0)
    terms = np.abs(r) * r
    active = fm.rows >= np.median(fm.rows, axis=0)
    return [float(np.sum(terms[np.triu(np.outer(a, a), k=1)])) for a in active]


def test_joint_risk_column_equals_the_per_row_index(bundle, sample_records):
    """Computing the index once per activation pattern changes no bit."""
    batch, _ = score_records(sample_records)
    scored = batch[np.array([r.official_score is not None for r in batch.records])]
    expected = list(zip((r.cve_id for r in scored.records), _per_row_joint_risk(scored)))
    assert table_rows(bundle, "joint_risk")[1] == expected


def test_rendered_lines_match_csv_writer(sample_records):
    """Per-record tables rendered once per code or pattern keep the bytes
    ``csv.writer`` gives for the per-record tuples."""
    edge = [
        make_record(cve_id="CVE-2024-1234567", official=7),  # an int official renders 7.0
        make_record(cve_id="CVE-2024-70001", official=None),  # a blank official cell
    ]
    records = [*sample_records, *edge]
    batch, _ = score_records(records)

    def old_score_rows(scored):
        return [
            (r.cve_id, "" if r.official_score is None else r.official_score, rb, impact, sv, sev.label)
            for r, (_, _, rb, impact, sv, sev) in zip(scored.records, (scored.table[k] for k in scored.rows))
        ]

    lines = "".join(score_rows(batch))
    assert lines == _csv_writer_text(old_score_rows(batch))
    assert "\nCVE-2024-1234567,7.0," in lines and "\nCVE-2024-70001,," in lines

    b = build_bundle(records)
    scored = batch[np.argsort([r.cve_id for r in batch.records], kind="stable")]
    scored = scored[np.array([r.official_score is not None for r in scored.records])]
    assert "".join(b.tables["model_scores"][1]) == _csv_writer_text(old_score_rows(scored))
    old_joint = list(zip((r.cve_id for r in scored.records), _per_row_joint_risk(scored)))
    assert "".join(b.tables["joint_risk"][1]) == _csv_writer_text(old_joint)

    # One record has no correlations, so its index cell is blank.
    single = build_bundle([make_record()])
    assert single.summary["joint_risk"]["defined"] is False
    assert "".join(single.tables["joint_risk"][1]) == _csv_writer_text([("CVE-2024-12345", "")])
    assert "".join(single.tables["joint_risk"][1]) == "CVE-2024-12345,\n"


def test_exclusions_are_honored(sample_records):
    drop = {sample_records[0].cve_id, sample_records[1].cve_id}
    b = build_bundle(sample_records, exclude_ids=frozenset(drop))
    assert b.summary["dataset"]["records_excluded"] == 2
    assert b.summary["dataset"]["records_in_cache"] == 200
    _, rows = table_rows(b, "model_scores")
    assert len(rows) == 188
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
    assert ("Adjacent", 0, None, None, None, None, None) in rows
    counts = b.summary["attack_vector"]["counts"]
    severe = b.summary["cross"]["av_severe_cia_share"]
    assert {label for label, c in counts.items() if c == 0} == {"Adjacent", "Local"}
    assert all(severe[label] is None for label, c in counts.items() if c == 0)
    assert all(severe[label] is not None for label, c in counts.items() if c > 0)


def _typed_cells(row) -> list:
    return [(type(cell), cell) for cell in row]


@pytest.mark.parametrize("records", ["empty-group", "single"])
def test_table_cells_hold_the_summarys_values(sample_records, records):
    """Each statistic a table shares with the summary is the same plain
    value in both, ``None`` where it is undefined (an empty attack-vector
    group, or a Spearman rho of one pair)."""
    if records == "single":
        b = build_bundle([make_record()])
    else:
        one = [r for r in sample_records if r.vector_string and "AV:P" in r.vector_string][:1]
        keep = [r for r in sample_records if r.vector_string and "AV:N" in r.vector_string][:20]
        b = build_bundle(one + keep)
    av = b.summary["attack_vector"]
    expected = {
        "attack_vector_score_stats": [tuple(g.values()) for g in av["score_stats"]],
        "attack_vector_high_risk": [
            (label, h["count"], h["high_risk"], h["share"]) for label, h in av["high_risk_share"].items()
        ],
        "method_comparison": [
            (m["method"], m["mae"], m["spearman_rho"], m["kappa"]) for m in b.summary["method_comparison"]
        ],
    }
    for name, summary_rows in expected.items():
        _, rows = b.tables[name]
        assert [_typed_cells(row) for row in rows] == [_typed_cells(row) for row in summary_rows], name
    assert None in expected["attack_vector_score_stats"][1]  # the empty Adjacent group, or Adjacent alone
    assert (expected["method_comparison"][0][2] is None) == (records == "single")


def test_write_bundle_refuses_a_summary_that_is_not_json(tmp_path):
    """A NaN or an infinity that reached the summary would be written as a
    token ``report`` rejects; ``write_bundle`` raises instead."""
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_bundle(ReportBundle({"mean": value}, {}, []), tmp_path, fmt="json")
    assert not (tmp_path / "summary.json").exists()


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
    "config",
    [
        ModelConfig(weights=ModelWeights(1 / 3, 1 / 3, 1 / 3)),
        ModelConfig(weights=ModelWeights(0.3, 0.3, 0.4, 1.0, 0.75, 0.75, kappa=1.15)),
        ModelConfig(weights=ModelWeights(0.2, 0.5, 0.3, 0.5, 1.0, 0.25, kappa=0.9, delta=0.05)),
        CUSTOM_CONFIG,  # the preset must take these maps and thresholds, not the defaults
    ],
    ids=["weights0", "weights1", "weights2", "custom-maps"],
)
def test_uniform_baseline_matches_the_two_pass_computation(sample_records, config):
    # Every third vector under the CVSS:3.0 prefix, which only lenient mode reads.
    records = [
        replace(r, vector_string=r.vector_string.replace("CVSS:3.1", "CVSS:3.0"))
        if r.vector_string and k % 3 == 0
        else r
        for k, r in enumerate(sample_records)
    ]
    bundle = build_bundle(records, config, lenient=True)
    baseline = bundle.summary["method_comparison"][1]
    assert baseline == _two_pass_uniform_row(records, config, lenient=True)
    assert bundle.summary["dataset"]["records_analyzed"] == 190
