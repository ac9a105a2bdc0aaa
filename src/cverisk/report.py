"""Assembly of the full analysis bundle (summary JSON, CSV tables, skip
report, executive text) and deterministic file emission."""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    CATEGORICAL_FACTORS,
    ConditionalMatrix,
    FactorMatrix,
    JointRiskConfig,
    TooFewRowsError,
    category_index,
    conditional_matrix,
    correlation_matrix,
    cross_statistics,
    ecdf,
    group_statistics,
    high_risk_share,
    joint_risk_index,
    kernel_density,
    mae,
    spearman_rho,
)
from .calibration import DEFAULT_KAPPA_RANGE, fit_kappa, uniform_weights
from .config import config_to_dict
from .model import ModelConfig, ScoredBatch, _score_vector, composite_score, score_records
from .records import CveRecord

SCORE_BINS = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
BIN_LABELS = ("[0,2)", "[2,4)", "[4,6)", "[6,8)", "[8,10]")
HIGH_RISK_THRESHOLD = 7.0
SCORE_HEADER = ("cve_id", "official_score", "base_risk", "impact_score", "composite_score", "severity")
SUMMARY_SCHEMA_PATH = Path(__file__).parent / "schemas" / "summary.schema.json"

Table = tuple[tuple[str, ...], list[tuple]]


class EmptyDatasetError(ValueError):
    """No records remain to analyze."""


class UnscoreableAllError(ValueError):
    """No record has both a parseable vector and an official score."""


class BundleError(ValueError):
    """A written bundle is incomplete or disagrees with its summary."""


@dataclass
class ReportBundle:
    """Everything one analysis run computed: a JSON-able summary, named CSV
    tables, and the skip report."""

    summary: dict
    tables: dict[str, Table]
    skip_report: list[tuple[str, str]]


def _json_safe(value):
    """Recursively convert numpy scalars and replace NaN/inf with None."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return None if math.isnan(v) or math.isinf(v) else v
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _cell(value):
    """CSV cell normalization: blank for NaN/None, plain Python scalars."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return "" if math.isnan(v) else v
    if isinstance(value, np.integer):
        return int(value)
    return value


def _matrix_table(row_header: str, row_domain, col_domain, values) -> Table:
    header = (row_header, *col_domain)
    rows = [
        (label, *(_cell(v) for v in row)) for label, row in zip(row_domain, np.asarray(values))
    ]
    return header, rows


def _field_rows(items) -> list[tuple]:
    """One CSV row per dataclass instance: its fields in order."""
    return [tuple(_cell(v) for v in astuple(item)) for item in items]


def _stats_table(label: str, stats) -> Table:
    return (label, "count", "mean", "std", "median", "q1", "q3"), _field_rows(stats)


def _share_rows(labels, counts, n: int) -> list[tuple]:
    """One ``(label, count, share of n)`` row per category."""
    return [(label, int(c), int(c) / n) for label, c in zip(labels, counts)]


def _share_summary(rows) -> dict:
    """``_share_rows`` as ``{label: {"count", "share"}}``."""
    return {label: {"count": c, "share": share} for label, c, share in rows}


def _column_share(cm: ConditionalMatrix, col: str) -> dict:
    """P(``col`` | row) per row category; NaN for a row with no records."""
    k = cm.col_domain.index(col)
    return {
        label: math.nan if label in cm.empty_rows else float(p)
        for label, p in zip(cm.row_domain, cm.probs[:, k])
    }


def _safe_spearman(pred, truth):
    try:
        return spearman_rho(pred, truth)
    except TooFewRowsError:
        return math.nan


def score_rows(scored: ScoredBatch) -> list[tuple]:
    """One ``SCORE_HEADER`` row per scored record; a missing official score
    is a blank cell. Records with one vector code share its score cells."""
    cells = [(rb, impact, sv, severity.label) for _, _, rb, impact, sv, severity in scored.table]
    return [
        (r.cve_id, "" if r.official_score is None else r.official_score, *cells[row])
        for r, row in zip(scored.records, scored.rows.tolist())
    ]


def _method_comparison(scored: ScoredBatch, config: ModelConfig) -> list[tuple]:
    """Model-vs-official agreement for the active config and for the
    equal-weight preset with its scale refit on the same records; the
    preset scores each distinct vector code (table row) once."""
    officials = scored.officials
    delta = config.weights.delta
    preset_cfg = ModelConfig(config.maps, uniform_weights(delta=delta), config.thresholds)
    preset = [_score_vector(vector, preset_cfg)[2:4] for vector, *_ in scored.table]
    products = np.array([10.0 * rb * impact for rb, impact in preset])
    kappa = fit_kappa(products[scored.rows], officials, *DEFAULT_KAPPA_RANGE, delta)
    refit = uniform_weights(kappa, delta=delta)
    preset_scores = np.array([composite_score(rb, impact, refit) for rb, impact in preset])
    return [
        (method, mae(scores, officials), _safe_spearman(scores, officials), method_kappa)
        for method, scores, method_kappa in (
            ("weighted_model", scored.composite, config.weights.kappa),
            ("uniform_baseline", preset_scores[scored.rows], kappa),
        )
    ]


def build_bundle(
    records: list[CveRecord],
    config: ModelConfig | None = None,
    *,
    exclude_ids=frozenset(),
    lenient: bool = False,
    seed: int | None = None,
    cache_info: dict | None = None,
) -> ReportBundle:
    """Compute every report statistic for one cache of records.

    ``exclude_ids`` (typically the calibration sample) are dropped before
    anything is computed, so they can never leak into the output tables.
    The rest are taken in ``cve_id`` order, so the bundle does not depend
    on the order the cache lists them in.
    """
    config = config or ModelConfig()
    records = list(records)
    exclude = frozenset(exclude_ids)
    kept = sorted((r for r in records if r.cve_id not in exclude), key=lambda r: r.cve_id)
    if not kept:
        raise EmptyDatasetError("no records to analyze after exclusions")

    scored_all, skipped = score_records(kept, config, lenient=lenient)
    has_official = np.array([r.official_score is not None for r in scored_all.records], dtype=bool)
    skip_rows = sorted(
        [(rec.cve_id, reason) for rec, reason in skipped]
        + [(rec.cve_id, "no official score") for rec in scored_all[~has_official].records]
    )
    scored = scored_all[has_official]
    if not scored:
        raise UnscoreableAllError("no record has both a parseable vector and an official score")

    t = config.thresholds
    n = len(scored)
    officials = scored.officials
    ids = [rec.cve_id for rec in scored.records]
    tables: dict[str, Table] = {}
    summary: dict = {}

    # ---- score distribution -------------------------------------------------
    hist = _share_rows(BIN_LABELS, np.histogram(officials, bins=SCORE_BINS)[0], n)
    tables["severity_histogram"] = (("score_bin", "count", "share"), hist)
    summary["severity_histogram"] = [
        {"bin": label, "count": c, "share": share} for label, c, share in hist
    ]
    summary["official_score"] = {
        "mean": float(officials.mean()),
        "median": float(np.median(officials)),
        "std": float(officials.std(ddof=1)) if n > 1 else math.nan,
        "min": float(officials.min()),
        "max": float(officials.max()),
    }

    def category_rows(name: str) -> list[tuple]:
        domain, index = category_index(scored, name)
        return _share_rows(domain, np.bincount(index, minlength=len(domain)), n)

    sev_rows = category_rows("official_severity")
    tables["severity_mix"] = (("severity", "count", "share"), sev_rows)
    summary["severity_mix"] = _share_summary(sev_rows)

    # ---- attack vector ------------------------------------------------------
    av_rows = category_rows("AV")
    tables["attack_vector_counts"] = (("attack_vector", "count", "share"), av_rows)
    av_stats = group_statistics(scored, "AV")
    tables["attack_vector_score_stats"] = _stats_table("attack_vector", av_stats)
    av_high = high_risk_share(scored, "AV", HIGH_RISK_THRESHOLD)
    tables["attack_vector_high_risk"] = (
        ("attack_vector", "count", "high_risk_count", "share"),
        _field_rows(av_high),
    )
    av_shares = {label: share for label, _, share in av_rows}
    summary["attack_vector"] = {
        "counts": {label: c for label, c, _ in av_rows},
        "shares": av_shares,
        "network_share": av_shares["Network"],
        "score_stats": [asdict(g) for g in av_stats],
        "high_risk_share": {
            h.category: {"count": h.count, "high_risk": h.high_risk, "share": h.share}
            for h in av_high
        },
    }

    # ---- privileges and complexity ------------------------------------------
    pr_stats = group_statistics(scored, "PR")
    tables["privilege_score_stats"] = _stats_table("privileges_required", pr_stats)
    summary["privileges"] = {"score_stats": [asdict(g) for g in pr_stats]}

    def add_conditional(prefix: str, x: str, y: str, row_header: str):
        cm = conditional_matrix(scored, x, y)
        tables[f"{prefix}_counts"] = _matrix_table(row_header, cm.row_domain, cm.col_domain, cm.counts)
        tables[f"{prefix}_probs"] = _matrix_table(row_header, cm.row_domain, cm.col_domain, cm.probs)
        return cm

    ac_sev = add_conditional("complexity_severity", "AC", "official_severity", "attack_complexity")
    add_conditional("av_severity", "AV", "official_severity", "attack_vector")
    ui_c = add_conditional("ui_confidentiality", "UI", "C", "user_interaction")
    av_cia = add_conditional("av_combined_impact", "AV", "combined_cia", "attack_vector")
    summary["complexity"] = {
        "severity_counts": {
            row: dict(zip(ac_sev.col_domain, (int(v) for v in counts)))
            for row, counts in zip(ac_sev.row_domain, ac_sev.counts)
        }
    }

    def add_cross(prefix: str, x: str, y: str, row_header: str):
        ct = cross_statistics(scored, x, y)
        tables[f"{prefix}_mean_score"] = _matrix_table(row_header, ct.row_domain, ct.col_domain, ct.means)
        tables[f"{prefix}_counts"] = _matrix_table(row_header, ct.row_domain, ct.col_domain, ct.counts)
        return ct

    acpr = add_cross("complexity_privilege", "AC", "PR", "attack_complexity")
    ia = add_cross("integrity_availability", "I", "A", "integrity")

    hm = conditional_matrix(scored[officials >= HIGH_RISK_THRESHOLD], "AC", "PR")
    tables["high_risk_complexity_privilege"] = _matrix_table(
        "attack_complexity", hm.row_domain, hm.col_domain, hm.counts
    )

    summary["cross"] = {
        "low_complexity_no_privilege_mean": float(
            acpr.means[acpr.row_domain.index("Low"), acpr.col_domain.index("None")]
        ),
        "dual_high_impact_mean": float(
            ia.means[ia.row_domain.index("High"), ia.col_domain.index("High")]
        ),
        "ui_high_confidentiality_share": _column_share(ui_c, "High"),
        "av_severe_cia_share": _column_share(av_cia, "High"),
    }

    # ---- CIA impact levels --------------------------------------------------
    cia_rows = {comp: category_rows(comp) for comp in "CIA"}
    tables["cia_impact_levels"] = (
        ("component", "level", "count", "share"),
        [(comp, *row) for comp, rows in cia_rows.items() for row in rows],
    )
    summary["cia_impact_levels"] = {comp: _share_summary(rows) for comp, rows in cia_rows.items()}

    fm = FactorMatrix.from_scored(scored)
    eta_rows = fm.rows[:, [fm.factor_names.index(comp) for comp in "CIA"]]
    bin_index = np.digitize(officials, SCORE_BINS[1:-1])
    bin_rows = []
    for b, label in enumerate(BIN_LABELS):
        mask = bin_index == b
        means = eta_rows[mask].mean(axis=0).tolist() if mask.any() else ["", "", ""]
        bin_rows.append((label, int(mask.sum()), *means))
    tables["cia_by_score_bin"] = (
        ("score_bin", "count", "mean_confidentiality", "mean_integrity", "mean_availability"),
        bin_rows,
    )

    # ---- correlations -------------------------------------------------------
    corr = None
    corr_reason = None
    try:
        corr = correlation_matrix(fm)
    except TooFewRowsError as exc:
        corr_reason = str(exc)
    if corr is not None:
        matrix = corr.values
        cvss_idx = corr.labels.index("CVSS")
        summary["correlations"] = {
            "defined": True,
            "labels": list(corr.labels),
            "matrix": [list(row) for row in matrix],
            "cvss": {
                label: matrix[k, cvss_idx]
                for k, label in enumerate(corr.labels)
                if label != "CVSS"
            },
            "constant_factors": list(corr.constant_labels),
            "undefined_pairs": [list(pair) for pair in corr.undefined_pairs()],
        }
    else:
        matrix = np.full((len(fm.factor_names), len(fm.factor_names)), math.nan)
        summary["correlations"] = {
            "defined": False,
            "reason": corr_reason,
            "labels": list(fm.factor_names),
        }
    tables["correlation_matrix"] = _matrix_table("factor", fm.factor_names, fm.factor_names, matrix)

    # ---- ECDF and per-vector densities --------------------------------------
    cdf = ecdf(officials)
    values, cumulative = cdf.curve()
    tables["ecdf"] = (("score", "cumulative_share"), list(zip(values.tolist(), cumulative.tolist())))
    summary["ecdf"] = {
        "n": n,
        "at_tau1": float(cdf(t.tau1)),
        "at_tau2": float(cdf(t.tau2)),
        "at_tau3": float(cdf(t.tau3)),
    }

    bandwidths = {}
    kde_skipped = []
    av_domain, av_index = category_index(scored, "AV")
    for k, label in enumerate(av_domain):
        vals = officials[av_index == k]
        if vals.size < 2:
            kde_skipped.append(label)
            continue
        est = kernel_density(vals)
        bandwidths[label] = est.bandwidth
        tables[f"kde_{label.lower()}"] = (
            ("score", "density"),
            list(zip(est.grid.tolist(), est.density.tolist())),
        )
    summary["kde"] = {"bandwidths": bandwidths, "skipped": kde_skipped}

    # ---- joint risk ---------------------------------------------------------
    if corr is not None:
        jr_cfg = JointRiskConfig.from_data(corr, fm)
        # The index depends on a row only through which factors reach their
        # thresholds, so compute it once per distinct activation pattern.
        active = fm.rows >= jr_cfg.thresholds
        patterns = active @ (1 << np.arange(active.shape[1]))
        _, first, inverse = np.unique(patterns, return_index=True, return_inverse=True)
        per_pattern = np.array([joint_risk_index(fm.rows[k], corr, jr_cfg) for k in first])
        indices = per_pattern[inverse].tolist()
        order = sorted(zip(ids, indices), key=lambda kv: (-kv[1], kv[0]))
        summary["joint_risk"] = {
            "defined": True,
            "mean": float(np.mean(indices)),
            "max": float(np.max(indices)),
            "top": [{"cve_id": cid, "index": val} for cid, val in order[:10]],
        }
        jr_rows = list(zip(ids, indices))
    else:
        summary["joint_risk"] = {"defined": False, "mean": math.nan, "max": math.nan, "top": []}
        jr_rows = [(cid, "") for cid in ids]
    tables["joint_risk"] = (("cve_id", "joint_risk_index"), jr_rows)

    # ---- model scores and agreement -----------------------------------------
    tables["model_scores"] = (SCORE_HEADER, score_rows(scored))
    comparison = _method_comparison(scored, config)
    tables["method_comparison"] = (("method", "mae", "spearman_rho", "kappa"), [
        (method, m, _cell(rho), kappa) for method, m, rho, kappa in comparison
    ])
    summary["method_comparison"] = [
        {"method": method, "mae": m, "spearman_rho": rho, "kappa": kappa}
        for method, m, rho, kappa in comparison
    ]

    # ---- bookkeeping --------------------------------------------------------
    summary["dataset"] = {
        "records_in_cache": len(records),
        "records_excluded": len(records) - len(kept),
        "records_scored": len(scored_all),
        "records_analyzed": n,
        "records_skipped": len(skip_rows),
        "skip_reasons": dict(sorted(Counter(reason for _, reason in skip_rows).items())),
    }
    summary["thresholds"] = {
        "tau1": t.tau1,
        "tau2": t.tau2,
        "tau3": t.tau3,
        "high_risk": HIGH_RISK_THRESHOLD,
    }
    summary["provenance"] = {
        "tool": "cverisk",
        "version": __version__,
        "seed": seed,
        "config": config_to_dict(config),
        "cache_schema": None,
        "cache_retrieved_at": None,
        "dataset_sha256": None,
        **(cache_info or {}),
    }
    summary["tables"] = sorted(tables)
    return ReportBundle(summary=_json_safe(summary), tables=tables, skip_report=skip_rows)


# --------------------------------------------------------------------------
# rendering and file output
# --------------------------------------------------------------------------


def render_executive_summary(summary: dict) -> str:
    """Plain-text digest of one analysis run, findings ordered by share.

    Renders identically from a freshly built summary and from one reread
    out of summary.json.
    """
    ds = summary["dataset"]
    lines = [
        "Vulnerability risk report",
        "=========================",
        "",
        f"Records analyzed: {ds['records_analyzed']} of {ds['records_in_cache']} in cache "
        f"({ds['records_skipped']} skipped, {ds['records_excluded']} excluded)",
    ]
    score = summary["official_score"]
    lines.append(f"Official score: mean {score['mean']:.2f}, median {score['median']:.2f}")
    mix = summary["severity_mix"]
    high_share = sum(mix[label]["share"] for label in ("High", "Critical") if label in mix)
    lines.append(f"Share at or above the high band: {high_share:.1%}")
    lines.append("")
    lines.append("High-risk share by attack vector (descending):")
    ranked = sorted(
        (
            (label, cell)
            for label, cell in summary["attack_vector"]["high_risk_share"].items()
            if cell["count"] > 0 and cell["share"] is not None
        ),
        key=lambda kv: (-kv[1]["share"], kv[0]),
    )
    for pos, (label, cell) in enumerate(ranked, start=1):
        lines.append(
            f"  {pos}. {label:<9} {cell['share']:6.1%}  ({cell['high_risk']} of {cell['count']})"
        )
    lines.append("")
    mix_text = " | ".join(
        f"{label} {mix[label]['share']:.1%}"
        for label in CATEGORICAL_FACTORS["official_severity"]
        if label in mix
    )
    lines.append(f"Severity mix (official): {mix_text}")
    e = summary["ecdf"]
    th = summary["thresholds"]
    lines.append(
        f"Cumulative score shares: {e['at_tau1']:.1%} <= {th['tau1']:g}, "
        f"{e['at_tau2']:.1%} <= {th['tau2']:g}, {e['at_tau3']:.1%} <= {th['tau3']:g}"
    )
    corr = summary["correlations"]
    if corr.get("defined"):
        pairs = ", ".join(
            f"{label} {value:+.2f}"
            for label, value in sorted(
                corr["cvss"].items(), key=lambda kv: (-abs(kv[1] or 0.0), kv[0])
            )
            if value is not None
        )
        lines.append(f"Correlation with the official score: {pairs}")
    else:
        lines.append(f"Correlations undefined: {corr.get('reason') or 'insufficient data'}")
    for row in summary["method_comparison"]:
        rho = row["spearman_rho"]
        rho_text = f"{rho:.3f}" if rho is not None else "n/a"
        lines.append(
            f"{row['method']}: MAE {row['mae']:.3f}, Spearman {rho_text} "
            f"(kappa {row['kappa']:.2f})"
        )
    return "\n".join(lines) + "\n"


def write_csv(path: Path, header, rows) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def check_bundle(out_dir, summary: dict) -> None:
    """Raise ``BundleError`` unless every table the summary lists, and the
    skip report, is a CSV file that ends with a newline and whose rows are
    as wide as its header, with one row per analyzed (or skipped) record
    where the table has one and one per histogram bin of the summary."""
    out = Path(out_dir)
    names = [*summary["tables"], "skip_report"]
    missing = [name for name in names if not (out / f"{name}.csv").exists()]
    if missing:
        raise BundleError(f"bundle is missing tables: {', '.join(missing)}")
    dataset = summary["dataset"]
    row_counts = {
        "model_scores": dataset["records_analyzed"],
        "joint_risk": dataset["records_analyzed"],
        "skip_report": dataset["records_skipped"],
        "severity_histogram": len(summary["severity_histogram"]),
    }
    for name in names:
        data = (out / f"{name}.csv").read_bytes()
        if not data.endswith(b"\n"):
            raise BundleError(f"{name}.csv does not end with a newline")
        try:
            header, *rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise BundleError(f"{name}.csv is not a UTF-8 CSV file: {exc}") from None
        for line, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise BundleError(
                    f"{name}.csv row {line} has {len(row)} cells, its header {len(header)}"
                )
        if name in row_counts and len(rows) != row_counts[name]:
            raise BundleError(
                f"{name}.csv has {len(rows)} rows, the summary says {row_counts[name]}"
            )


def write_bundle(bundle: ReportBundle, out_dir, fmt: str = "all") -> list[Path]:
    """Write summary.json, every CSV table, the skip report, and the
    executive summary into ``out_dir``; returns the files written."""
    if fmt not in ("all", "json", "csv", "text"):
        raise ValueError(f"unknown output format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if fmt in ("all", "json"):
        path = out / "summary.json"
        path.write_text(
            json.dumps(bundle.summary, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
        written.append(path)
    if fmt in ("all", "csv"):
        for name in sorted(bundle.tables):
            header, rows = bundle.tables[name]
            path = out / f"{name}.csv"
            write_csv(path, header, rows)
            written.append(path)
        path = out / "skip_report.csv"
        write_csv(path, ("cve_id", "reason"), bundle.skip_report)
        written.append(path)
    if fmt in ("all", "text"):
        path = out / "executive_summary.txt"
        path.write_text(render_executive_summary(bundle.summary), encoding="utf-8")
        written.append(path)
    return written
