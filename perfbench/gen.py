"""Seeded synthetic inputs for the benchmark workloads (stdlib only).

The metric mix, the official-score formula and the record layout come from
``tests/data/make_sample_cache.py``, imported read-only, so the synthetic
caches look like the shipped NVD-like fixture at a larger size. Every
function returns the ground truth the output checks compare against, so the
checks never have to ask the package what it should have produced.
"""

from __future__ import annotations

import bisect
import importlib.util
import itertools
import json
import random
import sys
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

METRICS = ("AV", "AC", "PR", "UI", "S", "C", "I", "A")
# Defect classes of the dirty cache, one per VectorError subclass of the
# parser, plus the cache-level defect (a line cut short mid-object).
VECTOR_DEFECTS = ("bad_prefix", "missing_metric", "duplicate_metric", "unknown_value", "trailing_garbage")
TRUNCATED = "truncated_line"

# Fixed model config for analyze-nvd: a non-default point of the calibration
# grid, so scoring does not run on the built-in uniform weights.
ANALYZE_CONFIG = {
    "alpha": 0.3,
    "beta": 0.3,
    "gamma": 0.4,
    "lambda_c": 1.0,
    "lambda_i": 0.75,
    "lambda_a": 0.75,
    "kappa": 1.15,
    "delta": 0.1,
}
EXCLUDED_IN_CACHE = 1000
EXCLUDED_ABSENT = 25
BASE_DAY = datetime(2024, 1, 1, tzinfo=timezone.utc)


def load_module(path: Path):
    """Import a file of the repository's tests read-only: no bytecode is
    written next to it."""
    spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def load_fixture_module(repo: Path):
    return load_module(repo / "tests" / "data" / "make_sample_cache.py")


@dataclass(frozen=True)
class Truth:
    """What one cache line holds, as the generator wrote it.

    ``metrics`` is the metric -> code map of a parseable vector, ``None``
    when the record has no vector or a defective one (``defect`` names it).
    ``in_cache`` is false for a line that lenient reading must drop.
    """

    cve_id: str
    metrics: dict | None
    official: float | None
    defect: str | None = None
    has_vector: bool = True
    in_cache: bool = True


class _Tables:
    """The fixture's category weights as cumulative tables, so one draw is
    one ``random()`` and a bisection (what ``random.choices`` does, without
    rebuilding the tables on every call)."""

    def __init__(self, fx) -> None:
        by_metric = {"AV": fx.AV_W, "AC": fx.AC_W, "PR": fx.PR_W, "UI": fx.UI_W, "S": fx.S_W,
                     "C": fx.CIA_W, "I": fx.CIA_W, "A": fx.CIA_W}
        self.draws = [
            (m, list(table), list(itertools.accumulate(table.values())))
            for m, table in by_metric.items()
        ]
        self.fx = fx

    def metrics(self, rng: random.Random) -> dict:
        rand = rng.random
        out = {m: keys[bisect.bisect(cum, rand() * cum[-1])] for m, keys, cum in self.draws}
        if out["C"] == out["I"] == out["A"] == "N":
            out[rng.choice("CIA")] = "L"  # zero-impact CVEs are not published
        return out


def _record(tables: _Tables, rng: random.Random, k: int) -> tuple[dict, dict, float]:
    fx = tables.fx
    cve_id = f"CVE-2024-{10000 + k}"
    published = BASE_DAY + timedelta(minutes=rng.randrange(120 * 24 * 60))
    metrics = tables.metrics(rng)
    score = fx.cvss31_base(*(metrics[m] for m in METRICS))
    record = {
        "cve_id": cve_id,
        "description": f"{rng.choice(fx.WORDS)} ({cve_id.lower()})",
        "published": published.isoformat(),
        "official_score": score,
        "vector_string": None,
        "affected_os": rng.choice(fx.OS_POOL),
    }
    return record, metrics, score


def _vector(prefix: str, metrics: dict, order) -> str:
    return prefix + "/" + "/".join(f"{m}:{metrics[m]}" for m in order)


def _write(path: Path, fx, lines: list[str], count: int) -> None:
    header = json.dumps(
        {"schema": "cve-cache/1", "retrieved_at": fx.RETRIEVED_AT.isoformat(), "count": count},
        sort_keys=True,
    )
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


def nvd_cache(fx, path: Path, n: int, seed: int) -> list[Truth]:
    """The fixture's NVD-like mix: 15% shuffled metric order, about 5.5% of
    records missing a vector, a score or both."""
    rng = random.Random(f"nvd-{seed}")
    tables = _Tables(fx)
    lines, truth = [], []
    for k in range(n):
        record, metrics, score = _record(tables, rng, k)
        order = list(METRICS)
        if rng.random() < 0.15:
            rng.shuffle(order)
        record["vector_string"] = _vector("CVSS:3.1", metrics, order)
        gap = rng.random()
        has_vector = True
        if gap < 0.02:
            record["official_score"] = record["vector_string"] = None
            has_vector = False
        elif gap < 0.04:
            record["vector_string"] = None
            has_vector = False
        elif gap < 0.055:
            record["official_score"] = None
        truth.append(
            Truth(
                record["cve_id"],
                metrics if has_vector else None,
                record["official_score"],
                has_vector=has_vector,
            )
        )
        lines.append(json.dumps(record, sort_keys=True, ensure_ascii=False))
    _write(path, fx, lines, n)
    return truth


def _defective(rng: random.Random, kind: str, metrics: dict, order: list) -> str:
    if kind == "bad_prefix":
        return _vector(rng.choice(("CVSS:2.0", "CVSS:3.2", "cvss:3.1")), metrics, order)
    if kind == "missing_metric":
        dropped = rng.choice(METRICS)
        return _vector("CVSS:3.1", metrics, [m for m in order if m != dropped])
    if kind == "duplicate_metric":
        return _vector("CVSS:3.1", metrics, order + [rng.choice(METRICS)])
    if kind == "unknown_value":
        name = rng.choice(METRICS)
        return _vector("CVSS:3.1", {**metrics, name: rng.choice("XYZQ")}, order)
    return _vector("CVSS:3.1", metrics, order) + rng.choice(("/E:H", "/XX", "/RL:O"))


def dirty_cache(fx, path: Path, n: int, seed: int) -> list[Truth]:
    """Every vector in its own shuffled metric order (so nearly every string
    is distinct), about 10% with the ``CVSS:3.0`` prefix, about 2% defective
    across all five parser errors and about 1% of lines cut short."""
    rng = random.Random(f"dirty-{seed}")
    tables = _Tables(fx)
    seen: set[str] = set()
    lines, truth = [], []
    for k in range(n):
        record, metrics, score = _record(tables, rng, k)
        prefix = "CVSS:3.0" if rng.random() < 0.10 else "CVSS:3.1"
        order = list(METRICS)
        for _ in range(100):
            rng.shuffle(order)
            vector = _vector(prefix, metrics, order)
            if vector not in seen:
                break
        seen.add(vector)
        roll = rng.random()
        if roll < 0.02:
            defect = VECTOR_DEFECTS[k % len(VECTOR_DEFECTS)]
            record["vector_string"] = _defective(rng, defect, metrics, order)
            truth.append(Truth(record["cve_id"], None, score, defect=defect))
            lines.append(json.dumps(record, sort_keys=True, ensure_ascii=False))
            continue
        record["vector_string"] = vector
        line = json.dumps(record, sort_keys=True, ensure_ascii=False)
        if roll < 0.03:
            truth.append(Truth(record["cve_id"], None, score, defect=TRUNCATED, in_cache=False))
            lines.append(line[: len(line) // 2])
            continue
        truth.append(Truth(record["cve_id"], metrics, score))
        lines.append(line)
    _write(path, fx, lines, n)
    return truth


def write_config(path: Path) -> dict:
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in ANALYZE_CONFIG.items()), encoding="utf-8")
    return dict(ANALYZE_CONFIG)


def write_exclusions(path: Path, truth: list[Truth], seed: int) -> list[str]:
    """A held-out id list like the one ``calibrate`` writes, plus ids the
    cache does not hold (excluding those must change nothing)."""
    rng = random.Random(f"exclude-{seed}")
    ids = sorted(rng.sample([t.cve_id for t in truth], EXCLUDED_IN_CACHE))
    absent = [f"CVE-2023-{90000 + k}" for k in range(EXCLUDED_ABSENT)]
    path.write_text("".join(f"{cid}\n" for cid in ids + absent), encoding="utf-8")
    return ids + absent


def properties(truth: list[Truth], path: Path) -> dict:
    """Input properties reported next to the results."""
    defects: dict[str, int] = {}
    for t in truth:
        if t.defect:
            defects[t.defect] = defects.get(t.defect, 0) + 1
    vectors = []
    with path.open("r", encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            try:
                vs = json.loads(line).get("vector_string")
            except json.JSONDecodeError:
                continue
            if vs:
                vectors.append(vs)
    return {
        "cache_lines": len(truth),
        "records": sum(t.in_cache for t in truth),
        "with_vector": len(vectors),
        "distinct_vector_strings": len(set(vectors)),
        "no_vector": sum(t.in_cache and not t.has_vector for t in truth),
        "no_official_score": sum(t.in_cache and t.official is None for t in truth),
        "defects": dict(sorted(defects.items())),
        "bytes": path.stat().st_size,
    }
