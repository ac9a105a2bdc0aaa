"""Assembly of the full analysis bundle (summary JSON, CSV tables, skip
report, executive text) and deterministic file emission."""

from __future__ import annotations

import csv
import heapq
import io
import json
import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, astuple, dataclass
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .analytics import (
    CATEGORICAL_FACTORS,
    ConditionalMatrix,
    FactorMatrix,
    TooFewRowsError,
    category_index,
    conditional_matrix,
    correlation_matrix,
    ecdf,
    group_statistics,
    high_risk_share,
    joint_risk_index,
    kernel_density,
    mae,
    spearman_rho,
)
from .calibration import DEFAULT_KAPPA_RANGE, fit_kappa, uniform_weights
from .config import config_to_dict, write_atomic
from .model import ModelConfig, ScoredBatch, base_risk, composite, impact_score, score_records
from .records import CveRecord, RecordColumns

SCORE_BINS = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
BIN_LABELS = ("[0,2)", "[2,4)", "[4,6)", "[6,8)", "[8,10]")
HIGH_RISK_THRESHOLD = 7.0
SCORE_HEADER = ("cve_id", "official_score", "base_risk", "impact_score", "composite_score", "severity")
SUMMARY_SCHEMA_PATH = Path(__file__).parent / "schemas" / "summary.schema.json"


@dataclass(frozen=True)
class CsvLines:
    """A per-record table already rendered as CSV lines, each ending in a
    newline. ``render()`` yields the lines afresh on every pass, so the
    table streams into each file it is written to; ``len()`` is its row
    count."""

    count: int
    render: Callable[[], Iterator[str]]

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[str]:
        return self.render()


Table = tuple[tuple[str, ...], list[tuple] | CsvLines]


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


def _plain(value):
    """``value`` with numpy scalars made Python scalars and NaN/inf made
    None, recursively; the one rule for every summary value and table cell
    (``csv.writer`` writes None as a blank cell)."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return None if math.isnan(v) or math.isinf(v) else v
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return value


def _matrix_table(row_header: str, row_domain, col_domain, values) -> Table:
    rows = zip(row_domain, np.asarray(values).tolist())
    return (row_header, *col_domain), [(label, *_plain(row)) for label, row in rows]


def _field_rows(items) -> list[tuple]:
    """One CSV row per dataclass instance: its fields in order."""
    return [tuple(_plain(astuple(item))) for item in items]


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


def score_rows(scored: ScoredBatch) -> CsvLines:
    """One ``SCORE_HEADER`` line per scored record, read from the batch's
    ``ids`` and ``officials`` record columns and its table; a missing
    official score is a blank cell. The score cells are rendered once per
    vector code, with ``repr()`` as ``csv.writer`` renders a float. No cell
    needs quoting: record ids match ``CVE-[0-9]{4}-[0-9]{4,}`` (checked
    when read) and severity labels are single words."""
    cells = [
        f"{rb!r},{impact!r},{sv!r},{severity.label}\n"
        for _, _, rb, impact, sv, severity in scored.table
    ]

    def render() -> Iterator[str]:
        columns = scored.records.ids, scored.records.officials, scored.rows.tolist()
        for cve_id, official, row in zip(*columns):
            yield f"{cve_id},{'' if official is None else repr(official)},{cells[row]}"

    return CsvLines(len(scored), render)


def _keyed_lines(ids: list[str], keys: list[int], cells: list[str]) -> CsvLines:
    """One ``id,cells[key]`` line per id, from cells rendered once per key."""
    return CsvLines(len(ids), lambda: (f"{cid},{cells[k]}" for cid, k in zip(ids, keys)))


def _method_comparison(scored: ScoredBatch, config: ModelConfig) -> list[tuple]:
    """Model-vs-official agreement for the active config and for the
    equal-weight preset with its scale refit on the same records; the
    preset's base risk and impact are taken once per distinct vector code
    (table row)."""
    officials = scored.officials
    delta = config.weights.delta
    uniform = uniform_weights()
    preset = [(base_risk(v, config.maps, uniform), impact_score(v, uniform)) for v, *_ in scored.table]
    products = np.array([10.0 * rb * impact for rb, impact in preset])
    kappa = fit_kappa(products[scored.rows], officials, *DEFAULT_KAPPA_RANGE, delta)
    preset_scores = composite(products, kappa, delta)
    return [
        (method, mae(scores, officials), _safe_spearman(scores, officials), method_kappa)
        for method, scores, method_kappa in (
            ("weighted_model", scored.composite, config.weights.kappa),
            ("uniform_baseline", preset_scores[scored.rows], kappa),
        )
    ]


def build_bundle(
    records: Iterable[CveRecord],
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
    records = RecordColumns.of(records)
    exclude = frozenset(exclude_ids)
    kept = [k for k, cve_id in enumerate(records.ids) if cve_id not in exclude]
    kept.sort(key=records.ids.__getitem__)
    if not kept:
        raise EmptyDatasetError("no records to analyze after exclusions")

    scored_all, skipped = score_records(records[kept], config, lenient=lenient)
    columns = scored_all.records
    no_official = [cid for cid, o in zip(columns.ids, columns.officials) if o is None]
    skip_rows = sorted(skipped + [(cid, "no official score") for cid in no_official])
    scored = scored_all[[o is not None for o in columns.officials]]
    if not scored:
        raise UnscoreableAllError("no record has both a parseable vector and an official score")

    t = config.thresholds
    n = len(scored)
    officials = scored.officials
    ids = scored.records.ids
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

    def add_conditional(prefix: str, x: str, y: str, row_header: str, matrices=("counts", "probs")):
        """Table ``{prefix}_{name}`` for each of the x/y table's ``matrices``."""
        cm = conditional_matrix(scored, x, y)
        for name in matrices:
            values = cm.means if name == "mean_score" else getattr(cm, name)
            tables[f"{prefix}_{name}"] = _matrix_table(row_header, cm.row_domain, cm.col_domain, values)
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

    with_means = ("counts", "mean_score")
    acpr = add_conditional("complexity_privilege", "AC", "PR", "attack_complexity", with_means)
    ia = add_conditional("integrity_availability", "I", "A", "integrity", with_means)

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
        means = eta_rows[mask].mean(axis=0).tolist() if mask.any() else [None] * 3
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
        per_pattern, pattern = joint_risk_index(fm, corr)
        indices = per_pattern[pattern]
        top = heapq.nsmallest(10, zip(ids, indices.tolist()), key=lambda kv: (-kv[1], kv[0]))
        summary["joint_risk"] = {
            "defined": True,
            "mean": float(indices.mean()),
            "max": float(indices.max()),
            "top": [{"cve_id": cid, "index": val} for cid, val in top],
        }
        cells = [f"{value!r}\n" for value in per_pattern.tolist()]
        keys = pattern.tolist()
    else:
        summary["joint_risk"] = {"defined": False, "mean": math.nan, "max": math.nan, "top": []}
        cells, keys = ["\n"], [0] * n  # a blank index cell for every record
    tables["joint_risk"] = (("cve_id", "joint_risk_index"), _keyed_lines(ids, keys, cells))

    # ---- model scores and agreement -----------------------------------------
    tables["model_scores"] = (SCORE_HEADER, score_rows(scored))
    comparison = [tuple(_plain(row)) for row in _method_comparison(scored, config)]
    header = ("method", "mae", "spearman_rho", "kappa")
    tables["method_comparison"] = header, comparison
    summary["method_comparison"] = [dict(zip(header, row)) for row in comparison]

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
    return ReportBundle(summary=_plain(summary), tables=tables, skip_report=skip_rows)


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
    """Write ``header`` and ``rows`` as CSV lines ending in a newline:
    ``CsvLines`` as rendered, any other rows through ``csv.writer``."""
    # ``writerow`` returns what its file's ``write`` returns: ``str`` hands the line back.
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow
    lines = rows if isinstance(rows, CsvLines) else map(line, rows)
    write_atomic(path, chain([line(header)], lines))


def check_bundle(out_dir, summary: dict) -> None:
    """Raise ``BundleError`` unless every table the summary lists, and the
    skip report, is a CSV file that ends with a newline and whose rows are
    as wide as its header, with one row per analyzed (or skipped) record
    where the table has one and one per histogram bin of the summary. The
    per-record tables must list their ids in strictly increasing order, and
    the histogram counts must sum to the records analyzed. The summary's
    dataset counts must be integers >= 0 that add up (``_check_counts``)."""
    out = Path(out_dir)
    names = [*summary["tables"], "skip_report"]
    missing = [name for name in names if not (out / f"{name}.csv").exists()]
    if missing:
        raise BundleError(f"bundle is missing tables: {', '.join(missing)}")
    dataset = summary["dataset"]
    _check_counts(dataset)
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
        if name in ("model_scores", "joint_risk"):
            ids = _csv_column(name, header, rows, "cve_id")
            for line, (before, cve_id) in enumerate(zip(ids, ids[1:]), start=3):
                if cve_id <= before:
                    raise BundleError(
                        f"{name}.csv row {line} id {cve_id!r} does not follow {before!r}: "
                        "ids are not strictly increasing"
                    )
        if name == "severity_histogram":
            try:
                total = sum(int(count) for count in _csv_column(name, header, rows, "count"))
            except ValueError as exc:
                raise BundleError(f"{name}.csv has a count that is not an integer: {exc}") from None
            if total != dataset["records_analyzed"]:
                raise BundleError(
                    f"{name}.csv counts sum to {total}, "
                    f"the summary says {dataset['records_analyzed']} records were analyzed"
                )


def _check_counts(dataset: dict) -> None:
    """Each count is an int >= 0; every record is excluded, analyzed or
    skipped, every skip has a reason, and a scored record is analyzed unless
    it has no official score."""
    reasons = dataset["skip_reasons"]
    for name, count in [*dataset.items(), *reasons.items()]:
        if name != "skip_reasons" and (type(count) is not int or count < 0):
            raise BundleError(f"summary count {name!r} is {count!r}, not an integer >= 0")
    analyzed = dataset["records_analyzed"]
    in_cache = dataset["records_excluded"] + analyzed + dataset["records_skipped"]
    for name, parts, total in (
        ("records_in_cache", "excluded + analyzed + skipped", in_cache),
        ("records_skipped", "the sum of skip_reasons", sum(reasons.values())),
        ("records_scored", "analyzed + no official score", analyzed + reasons.get("no official score", 0)),
    ):
        if dataset[name] != total:
            raise BundleError(f"summary {name} is {dataset[name]}, but {parts} is {total}")


def _csv_column(name: str, header: list[str], rows: list[list[str]], column: str) -> list[str]:
    if column not in header:
        raise BundleError(f"{name}.csv has no {column!r} column")
    k = header.index(column)
    return [row[k] for row in rows]


def write_bundle(bundle: ReportBundle, out_dir, fmt: str = "all") -> list[Path]:
    """Write summary.json, every CSV table, the skip report, and the
    executive summary into ``out_dir``, replacing each file whole, one
    after the other; returns the files written."""
    if fmt not in ("all", "json", "csv", "text"):
        raise ValueError(f"unknown output format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if fmt in ("all", "json"):
        path = out / "summary.json"
        text = json.dumps(bundle.summary, indent=2, sort_keys=True, ensure_ascii=False,
                          allow_nan=False)
        write_atomic(path, [text, "\n"])
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
        write_atomic(path, [render_executive_summary(bundle.summary)])
        written.append(path)
    return written
