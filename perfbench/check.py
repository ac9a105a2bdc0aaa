"""Output checks for the benchmark workloads.

Nothing here imports ``cverisk``. Integer results are compared with tallies
taken from the generator's ground truth, floats with an independent
recomputation (the brute-force helpers of ``tests/oracles.py`` plus the
model's documented formulas, re-derived here from the CVSS v3.1
coefficients) to 1e-9. No output is compared against a stored hash, so a
change that moves a float's last bit on purpose still passes.

Every check function returns a list of problems; an empty list means the
outputs are correct.
"""

from __future__ import annotations

import bisect
import csv
import hashlib
import json
import math
import random
from collections import Counter
from pathlib import Path

from gen import METRICS, Truth, load_module

TOL = 1e-9

# Encodings of the scoring model: CVSS v3.1 coefficients normalized by each
# metric's maximum; impact values fixed at 0 / 0.22 / 0.56.
PHI = {"N": 1.0, "A": 0.62 / 0.85, "L": 0.55 / 0.85, "P": 0.2 / 0.85}
PSI = {"L": 1.0, "H": 0.44 / 0.77}
OMEGA = {"N": 1.0, "L": 0.62 / 0.85, "H": 0.27 / 0.85}
UI_ENC = {"N": 1.0, "R": 0.62 / 0.85}
SCOPE_ENC = {"U": 0.0, "C": 1.0}
ETA = {"N": 0.0, "L": 0.22, "H": 0.56}

LABELS = {
    "AV": {"N": "Network", "A": "Adjacent", "L": "Local", "P": "Physical"},
    "AC": {"L": "Low", "H": "High"},
    "PR": {"N": "None", "L": "Low", "H": "High"},
    "IMPACT": {"N": "None", "L": "Low", "H": "High"},
}
TAUS = (4.0, 7.0, 9.0)
BINS = ("[0,2)", "[2,4)", "[4,6)", "[6,8)", "[8,10]")
NO_VECTOR = "no CVSS v3.1 vector string"
NO_SCORE = "no official score"
FACTOR_LABELS = METRICS + ("CVSS",)
DEFAULT_WEIGHTS = {
    "alpha": 1 / 3, "beta": 1 / 3, "gamma": 1 / 3,
    "lambda_c": 1.0, "lambda_i": 1.0, "lambda_a": 1.0, "kappa": 1.0, "delta": 0.1,
}
UNIFORM_WEIGHTS = {**{k: 1 / 3 for k in ("alpha", "beta", "gamma", "lambda_c", "lambda_i", "lambda_a")},
                   "kappa": 1.0, "delta": 0.1}
LAMBDA_GRID = (0.25, 0.5, 0.75, 1.0)


def load_oracles(repo: Path):
    return load_module(repo / "tests" / "oracles.py")


def tree_digest(root: Path) -> str:
    """One hash over every file's relative path and bytes, for the
    byte-identity check between runs of one workload."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def severity(score: float) -> str:
    if score < TAUS[0]:
        return "Low"
    if score < TAUS[1]:
        return "Medium"
    if score < TAUS[2]:
        return "High"
    return "Critical"


def model_scores(o, metrics: dict, w: dict) -> tuple[float, float, float]:
    """(base risk, impact, composite) of one vector under weights ``w``."""
    rb = w["alpha"] * PHI[metrics["AV"]] + w["beta"] * PSI[metrics["AC"]] + w["gamma"] * OMEGA[metrics["PR"]]
    impact = 1.0 - (
        (1.0 - w["lambda_c"] * ETA[metrics["C"]])
        * (1.0 - w["lambda_i"] * ETA[metrics["I"]])
        * (1.0 - w["lambda_a"] * ETA[metrics["A"]])
    )
    return rb, impact, o.composite(rb, impact, w["kappa"], w["delta"])


def factors(metrics: dict, official: float) -> tuple[float, ...]:
    return (
        PHI[metrics["AV"]], PSI[metrics["AC"]], OMEGA[metrics["PR"]], UI_ENC[metrics["UI"]],
        SCOPE_ENC[metrics["S"]], ETA[metrics["C"]], ETA[metrics["I"]], ETA[metrics["A"]], official,
    )


def midranks(xs: list[float]) -> list[float]:
    """Average ranks by sorting (the oracle's quadratic version is too slow
    for tens of thousands of rows); same definition."""
    order = sorted(range(len(xs)), key=xs.__getitem__)
    ranks = [0.0] * len(xs)
    start = 0
    while start < len(order):
        stop = start
        while stop < len(order) and xs[order[stop]] == xs[order[start]]:
            stop += 1
        for k in order[start:stop]:
            ranks[k] = 0.5 * (start + stop + 1)
        start = stop
    return ranks


class Problems(list):
    def close(self, what: str, got, want) -> None:
        want_missing = want is None or (isinstance(want, float) and math.isnan(want))
        if got is None or want_missing:
            if not (got is None and want_missing):
                self.append(f"{what}: got {got!r}, want {want!r}")
            return
        if not abs(float(got) - float(want)) <= TOL * max(1.0, abs(float(want))):
            self.append(f"{what}: got {got!r}, want {want!r}")

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.append(f"{what}: got {_short(got)}, want {_short(want)}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open("r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _num(cell: str):
    return None if cell == "" else float(cell)


def _check_score_rows(p: Problems, o, rows, expected: list[Truth], w: dict, what: str) -> list[float]:
    """Rows of (cve_id, official, base_risk, impact, composite, severity)."""
    p.equal(f"{what} ids", [r[0] for r in rows], [t.cve_id for t in expected])
    composites = []
    memo: dict[tuple, tuple] = {}
    for row, t in zip(rows, expected):
        key = tuple(t.metrics[m] for m in METRICS)
        if key not in memo:
            memo[key] = model_scores(o, t.metrics, w)
        rb, impact, comp = memo[key]
        p.equal(f"{what} {t.cve_id} official", _num(row[1]), t.official)
        p.close(f"{what} {t.cve_id} base_risk", _num(row[2]), rb)
        p.close(f"{what} {t.cve_id} impact", _num(row[3]), impact)
        p.close(f"{what} {t.cve_id} composite", _num(row[4]), comp)
        p.equal(f"{what} {t.cve_id} severity", row[5], severity(comp))
        composites.append(comp)
        if len(p) > 20:
            break
    return composites


# --------------------------------------------------------------------------
# score --lenient
# --------------------------------------------------------------------------


def check_score(repo: Path, out: Path, truth: list[Truth]) -> list[str]:
    o = load_oracles(repo)
    p = Problems()
    header, rows = read_csv(out / "scores.csv")
    p.equal("scores.csv header", header,
            ["cve_id", "official_score", "base_risk", "impact_score", "composite_score", "severity"])
    scored = [t for t in truth if t.in_cache and t.metrics is not None]
    p.equal("scores.csv rows", len(rows), len(scored))
    _check_score_rows(p, o, rows, scored, DEFAULT_WEIGHTS, "scores.csv")
    header, rows = read_csv(out / "skip_report.csv")
    p.equal("skip_report.csv header", header, ["cve_id", "reason"])
    skipped = sorted(t.cve_id for t in truth if t.in_cache and t.metrics is None)
    p.equal("skip_report.csv ids", [r[0] for r in rows], skipped)
    if any(not r[1] for r in rows):
        p.append("skip_report.csv has an empty reason")
    return p


# --------------------------------------------------------------------------
# calibrate
# --------------------------------------------------------------------------


def read_config(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            out[key.strip()] = float(value)
    return out


KAPPA_GRID = tuple(0.5 + 0.05 * k for k in range(31))  # the grid oracles.best_kappa searches


def _kappa_sse(o, products, officials) -> list[int]:
    """Squared error in whole 0.1 units for every grid kappa. Exact, since
    scores and officials both sit on the 0.1 grid; records with the same
    (product, official) pair are counted once."""
    pairs = Counter(zip(products, officials))
    return [
        sum(c * (round(min(10.0, o.round_up(pr * kappa, 0.1)) * 10) - round(off * 10)) ** 2
            for (pr, off), c in pairs.items())
        for kappa in KAPPA_GRID
    ]


def check_kappa(p: Problems, o, what: str, got, products, officials) -> bool:
    """``got`` must be a grid kappa with the least squared error. The first
    such kappa is the one oracles.best_kappa picks; a later one is accepted
    only on an exact tie."""
    sse = _kappa_sse(o, products, officials)
    index = [k for k, kappa in enumerate(KAPPA_GRID) if got is not None and abs(kappa - got) <= TOL]
    if not index:
        p.append(f"{what} {got!r} is not a grid kappa")
        return False
    if sse[index[0]] != min(sse):
        best = KAPPA_GRID[sse.index(min(sse))]
        p.append(f"{what} {got!r} is not the best kappa {best!r}")
        return False
    return True


def check_calibrate(repo: Path, out: Path, truth: list[Truth], n_cal: int, seed: int) -> list[str]:
    o = load_oracles(repo)
    p = Problems()
    by_id = {t.cve_id: t for t in truth}
    pool = sorted(t.cve_id for t in truth if t.metrics is not None and t.official is not None)
    want_ids = sorted(random.Random(seed).sample(pool, n_cal))
    ids = (out / "calibration_ids.txt").read_text(encoding="utf-8").splitlines()
    p.equal("calibration_ids.txt", ids, want_ids)
    cfg = read_config(out / "model_config.txt")
    p.close("alpha+beta+gamma", cfg["alpha"] + cfg["beta"] + cfg["gamma"], 1.0)
    for key in ("alpha", "beta", "gamma"):
        p.close(f"{key} on the 0.05 grid", cfg[key] * 20, round(cfg[key] * 20))
    for key in ("lambda_c", "lambda_i", "lambda_a"):
        if cfg[key] not in LAMBDA_GRID:
            p.append(f"{key} = {cfg[key]} is not on the lambda grid")
    p.equal("delta", cfg["delta"], 0.1)
    p.equal("thresholds", (cfg["tau1"], cfg["tau2"], cfg["tau3"]), TAUS)
    sample = [by_id[cid] for cid in want_ids if cid in by_id]
    officials = [t.official for t in sample]

    def products(w):
        return [10.0 * rb * impact for rb, impact, _ in (model_scores(o, t.metrics, w) for t in sample)]

    fitted_products = products(cfg)
    best = o.best_kappa(fitted_products, officials)
    if abs(cfg["kappa"] - best) > TOL:
        check_kappa(p, o, "fitted kappa", cfg["kappa"], fitted_products, officials)
    fitted_mse = o.mean([
        (min(10.0, o.round_up(pr * cfg["kappa"], 0.1)) - off) ** 2
        for pr, off in zip(fitted_products, officials)
    ])
    uniform_products = products(UNIFORM_WEIGHTS)
    uk = o.best_kappa(uniform_products, officials)
    uniform_mse = o.mean([
        (min(10.0, o.round_up(pr * uk, 0.1)) - off) ** 2
        for pr, off in zip(uniform_products, officials)
    ])
    if not fitted_mse <= uniform_mse:
        p.append(f"fitted MSE {fitted_mse} exceeds the uniform preset's {uniform_mse}")
    return p


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------


def _validate_schema(repo: Path, summary: dict) -> list[str]:
    import jsonschema

    schema = json.loads((repo / "src" / "cverisk" / "schemas" / "summary.schema.json").read_text())
    validator = jsonschema.Draft7Validator(schema)
    return [f"summary.json schema: {e.message}" for e in validator.iter_errors(summary)][:5]


def _pearson(o, xs, ys):
    r = o.pearson(xs, ys)
    return math.nan if math.isnan(r) else max(-1.0, min(1.0, r))


def correlation_matrix(rows: list[tuple]) -> list[list[float]]:
    """Pearson correlation of every column pair, NaN for a constant column.
    Rows repeat (a vector fixes every factor), so identical rows are
    weighted by their count instead of summed one by one."""
    groups = Counter(rows)
    n, m = len(rows), len(rows[0])
    means = [sum(c * r[j] for r, c in groups.items()) / n for j in range(m)]

    def cov(j, k):
        return sum(c * (r[j] - means[j]) * (r[k] - means[k]) for r, c in groups.items())

    var = [cov(j, j) for j in range(m)]
    corr = [[math.nan if var[j] == 0.0 else 1.0 if j == k else 0.0 for k in range(m)] for j in range(m)]
    for j in range(m):
        for k in range(j + 1, m):
            if var[j] == 0.0 or var[k] == 0.0:
                corr[j][k] = corr[k][j] = math.nan
            else:
                r = cov(j, k) / math.sqrt(var[j] * var[k])
                corr[j][k] = corr[k][j] = max(-1.0, min(1.0, r))
    return corr


def analyzed(truth: list[Truth], exclude: list[str]) -> tuple[list[Truth], list[Truth], list[Truth]]:
    """(kept after exclusions, with a parseable vector, also with an
    official score: the rows every analysis table covers)."""
    excluded = set(exclude)
    kept = [t for t in truth if t.cve_id not in excluded]
    scored = [t for t in kept if t.metrics is not None]
    return kept, scored, [t for t in scored if t.official is not None]


def check_analyze(repo: Path, out: Path, truth: list[Truth], exclude: list[str], w: dict) -> list[str]:
    o = load_oracles(repo)
    p = Problems()
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    p.extend(_validate_schema(repo, summary))

    kept, scored, rows = analyzed(truth, exclude)
    n = len(rows)
    skips = sorted(
        [(t.cve_id, NO_VECTOR) for t in kept if t.metrics is None]
        + [(t.cve_id, NO_SCORE) for t in scored if t.official is None]
    )
    reasons: dict[str, int] = {}
    for _, reason in skips:
        reasons[reason] = reasons.get(reason, 0) + 1
    p.equal("dataset", summary["dataset"], {
        "records_in_cache": len(truth),
        "records_excluded": len(truth) - len(kept),
        "records_scored": len(scored),
        "records_analyzed": n,
        "records_skipped": len(skips),
        "skip_reasons": dict(sorted(reasons.items())),
    })
    _, skip_rows = read_csv(out / "skip_report.csv")
    p.equal("skip_report.csv", [tuple(r) for r in skip_rows], skips)

    off = [t.official for t in rows]
    hist = [0] * 5
    for s in off:
        hist[min(int(s // 2.0), 4)] += 1
    p.equal("severity_histogram counts", [b["count"] for b in summary["severity_histogram"]], hist)
    p.equal("severity_histogram bins", [b["bin"] for b in summary["severity_histogram"]], list(BINS))
    mix = {label: 0 for label in ("Low", "Medium", "High", "Critical")}
    for s in off:
        mix[severity(s)] += 1
    p.equal("severity_mix", {k: v["count"] for k, v in summary["severity_mix"].items()}, mix)

    av = {label: 0 for label in LABELS["AV"].values()}
    for t in rows:
        av[LABELS["AV"][t.metrics["AV"]]] += 1
    p.equal("attack_vector counts", summary["attack_vector"]["counts"], av)
    for comp in ("C", "I", "A"):
        levels = {label: 0 for label in LABELS["IMPACT"].values()}
        for t in rows:
            levels[LABELS["IMPACT"][t.metrics[comp]]] += 1
        got = {k: v["count"] for k, v in summary["cia_impact_levels"][comp].items()}
        p.equal(f"cia_impact_levels {comp}", got, levels)
    ac_sev = {label: {s: 0 for s in mix} for label in LABELS["AC"].values()}
    for t in rows:
        ac_sev[LABELS["AC"][t.metrics["AC"]]][severity(t.official)] += 1
    p.equal("complexity severity_counts", summary["complexity"]["severity_counts"], ac_sev)

    stats = summary["official_score"]
    p.close("official mean", stats["mean"], o.mean(off))
    p.close("official median", stats["median"], o.median(off))
    p.close("official std", stats["std"], o.std(off))
    p.equal("official min/max", (stats["min"], stats["max"]), (min(off), max(off)))
    ordered = sorted(off)

    def ecdf_at(r):  # share of scores <= r
        return bisect.bisect_right(ordered, r) / n

    for k, tau in enumerate(TAUS, start=1):
        p.close(f"ecdf at tau{k}", summary["ecdf"][f"at_tau{k}"], ecdf_at(tau))
    _, ecdf_rows = read_csv(out / "ecdf.csv")
    values = sorted(set(off))
    p.equal("ecdf.csv points", [float(r[0]) for r in ecdf_rows], values)
    for r, v in zip(ecdf_rows, values):
        p.close(f"ecdf.csv at {v}", float(r[1]), ecdf_at(v))

    groups = {label: [] for label in LABELS["AV"].values()}
    for t in rows:
        groups[LABELS["AV"][t.metrics["AV"]]].append(t.official)
    for g in summary["attack_vector"]["score_stats"]:
        vals = groups[g["category"]]
        p.equal(f"AV {g['category']} count", g["count"], len(vals))
        if len(vals) >= 2:
            p.close(f"AV {g['category']} mean", g["mean"], o.mean(vals))
            p.close(f"AV {g['category']} std", g["std"], o.std(vals))
            for key, q in (("q1", 0.25), ("median", 0.5), ("q3", 0.75)):
                p.close(f"AV {g['category']} {key}", g[key], o.quantile(vals, q))
            iqr = o.quantile(vals, 0.75) - o.quantile(vals, 0.25)
            spread = min(o.std(vals), iqr / 1.34)
            if spread <= 0.0:
                spread = o.std(vals) if o.std(vals) > 0.0 else 1e-3
            p.close(f"kde bandwidth {g['category']}", summary["kde"]["bandwidths"].get(g["category"]),
                    0.9 * spread * len(vals) ** -0.2)

    cross = summary["cross"]
    p.close("low complexity / no privilege mean", cross["low_complexity_no_privilege_mean"],
            o.mean([t.official for t in rows if t.metrics["AC"] == "L" and t.metrics["PR"] == "N"]))
    p.close("dual high impact mean", cross["dual_high_impact_mean"],
            o.mean([t.official for t in rows if t.metrics["I"] == "H" and t.metrics["A"] == "H"]))

    # Correlations over the eight encoded factors plus the official score.
    fac = [factors(t.metrics, t.official) for t in rows]
    cols = list(zip(*fac))
    m = len(FACTOR_LABELS)
    corr = correlation_matrix(fac)
    p.equal("correlation labels", summary["correlations"]["labels"], list(FACTOR_LABELS))
    for j in range(m):
        for k in range(m):
            p.close(f"correlation {FACTOR_LABELS[j]}/{FACTOR_LABELS[k]}",
                    summary["correlations"]["matrix"][j][k], corr[j][k])

    # Joint risk index: |corr| pair weights, column medians as thresholds.
    weights = [[0.0 if math.isnan(c) else abs(c) for c in row] for row in corr]
    thresholds = [o.median(list(col)) for col in cols]
    _, jr_rows = read_csv(out / "joint_risk.csv")
    p.equal("joint_risk.csv ids", [r[0] for r in jr_rows], [t.cve_id for t in rows])
    memo: dict[tuple, float] = {}
    indices = []
    for r, f in zip(jr_rows, fac):
        if f not in memo:
            memo[f] = o.joint_risk(f, corr, weights, thresholds)
        p.close(f"joint risk {r[0]}", float(r[1]), memo[f])
        indices.append(float(r[1]))
        if len(p) > 20:
            break
    jr = summary["joint_risk"]
    p.close("joint risk mean", jr["mean"], o.mean([memo[f] for f in fac if f in memo]))
    p.close("joint risk max", jr["max"], max(memo.values()))
    top = sorted(zip([r[0] for r in jr_rows], indices), key=lambda kv: (-kv[1], kv[0]))[:10]
    p.equal("joint risk top ids", [e["cve_id"] for e in jr["top"]], [cid for cid, _ in top])

    # Model scores and model-vs-official agreement.
    _, ms_rows = read_csv(out / "model_scores.csv")
    p.equal("model_scores.csv rows", len(ms_rows), n)
    composites = _check_score_rows(p, o, ms_rows, rows, w, "model_scores.csv")
    methods = {e["method"]: e for e in summary["method_comparison"]}
    weighted = methods.get("weighted_model", {})
    p.close("weighted_model kappa", weighted.get("kappa"), w["kappa"])
    p.close("weighted_model mae", weighted.get("mae"), o.mae(composites, off))
    off_ranks = midranks(off)
    p.close("weighted_model spearman", weighted.get("spearman_rho"),
            _pearson(o, midranks(composites), off_ranks))
    uniform = [model_scores(o, t.metrics, UNIFORM_WEIGHTS) for t in rows]
    products = [10.0 * rb * impact for rb, impact, _ in uniform]
    base = methods.get("uniform_baseline", {})
    kappa = base.get("kappa")
    if check_kappa(p, o, "uniform_baseline kappa", kappa, products, off):
        refit = [o.composite(rb, impact, kappa, 0.1) for rb, impact, _ in uniform]
        p.close("uniform_baseline mae", base.get("mae"), o.mae(refit, off))
        p.close("uniform_baseline spearman", base.get("spearman_rho"),
                _pearson(o, midranks(refit), off_ranks))
    return p
