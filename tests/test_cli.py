"""End-to-end CLI runs against the packaged sample cache, plus exit-code
contracts for the usual failure modes."""

import contextlib
import csv
import errno
import functools
import hashlib
import io
import itertools
import json
import math
import operator
import os
import platform
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import cverisk
import cverisk.cache as cache_module
import cverisk.cli as cli_module
from cverisk import __version__
from cverisk.cache import CacheFormatError, read_cache, read_header, write_cache
from cverisk.cli import main
from cverisk.config import config_to_dict, save_config
from cverisk.model import ModelConfig, score_records
from cverisk.nvd import NetworkError, NvdError, RateLimiter, extract_record, fetch_window
from cverisk.records import CveRecord
from cverisk.report import SUMMARY_SCHEMA_PATH, CsvLines, score_rows

import oracles
from conftest import REPO, SAMPLE_CACHE, make_record, score_one
from test_nvd import FakeResponse, FakeSession, api_item, page_payload


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def cache_copy(tmp_path):
    dest = tmp_path / "cache.jsonl"
    shutil.copy(SAMPLE_CACHE, dest)
    return dest


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert __version__ in result.output


def test_importing_the_cli_does_not_import_requests():
    # A fresh interpreter, because this one has imported requests already.
    code = "import sys, cverisk.cli; sys.exit('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cverisk.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_full_offline_flow(runner, cache_copy, tmp_path):
    cal_dir = tmp_path / "cal"
    result = runner.invoke(
        main,
        ["calibrate", "--cache", str(cache_copy), "--out", str(cal_dir), "--n-cal", "100",
         "--seed", "3", "--grid-step", "0.25"],
    )
    assert result.exit_code == 0, result.output
    assert "calibrated on 100 records" in result.output
    config_path = cal_dir / "model_config.txt"
    ids_path = cal_dir / "calibration_ids.txt"
    assert config_path.exists()
    ids = ids_path.read_text(encoding="utf-8").splitlines()
    assert len(ids) == 100
    assert ids == sorted(ids)

    out_dir = tmp_path / "bundle"
    result = runner.invoke(
        main,
        ["analyze", "--cache", str(cache_copy), "--config", str(config_path),
         "--out", str(out_dir), "--seed", "1", "--exclude-ids", str(ids_path)],
    )
    assert result.exit_code == 0, result.output
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "executive_summary.txt").exists()

    result = runner.invoke(main, ["report", "--bundle", str(out_dir)])
    assert result.exit_code == 0, result.output
    assert result.output == (out_dir / "executive_summary.txt").read_text(encoding="utf-8")


def test_analyze_runs_are_byte_identical(runner, cache_copy, tmp_path):
    outputs = []
    for name in ("one", "two"):
        out_dir = tmp_path / name
        result = runner.invoke(
            main, ["analyze", "--cache", str(cache_copy), "--out", str(out_dir), "--seed", "5"]
        )
        assert result.exit_code == 0, result.output
        outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert outputs[0] == outputs[1]


def _run_cli(args, env=None):
    """Run the CLI in a fresh interpreter, with ``env`` added to the environment."""
    env = {**os.environ, "PYTHONPATH": str(Path(cverisk.__file__).parents[1]), **(env or {})}
    subprocess.run([sys.executable, "-m", "cverisk.cli", *args], env=env, check=True, capture_output=True)


def _files_under(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_calibrate_reruns_in_separate_processes_are_byte_identical(tmp_path):
    """Separate interpreters get different hash seeds, so set or dict order
    leaking into the sample, the fit or any file of ``analyze`` and
    ``score`` run with the fitted config shows up as different bytes. A
    file opened without an explicit encoding would follow the locale, so
    it is an error here."""
    outputs = []
    for hash_seed in ("1", "2"):
        run_dir = tmp_path / f"hash-seed-{hash_seed}"
        config, ids = run_dir / "cal" / "model_config.txt", run_dir / "cal" / "calibration_ids.txt"
        for args in (
            ["calibrate", "--n-cal", "100", "--seed", "0", "--out", str(run_dir / "cal")],
            ["analyze", "--lenient", "--config", str(config), "--exclude-ids", str(ids),
             "--out", str(run_dir / "analyze")],
            ["score", "--config", str(config), "--out", str(run_dir / "score")],
        ):
            _run_cli([*args, "--cache", str(SAMPLE_CACHE)], {
                "PYTHONHASHSEED": hash_seed,
                "PYTHONWARNDEFAULTENCODING": "1",
                "PYTHONWARNINGS": "error::EncodingWarning",
            })
        outputs.append(_files_under(run_dir))
    assert sorted(name for name in outputs[0] if name.startswith("cal")) == [
        "cal/calibration_ids.txt", "cal/model_config.txt"
    ]
    assert {"analyze/summary.json", "score/scores.csv", "score/skip_report.csv"} <= outputs[0].keys()
    assert outputs[0] == outputs[1]
    # Every file is written through a temporary file that is renamed or removed.
    assert not list(tmp_path.rglob(".*.tmp"))


def _numpy_uses_openblas():
    config = io.StringIO()
    with contextlib.redirect_stdout(config):
        np.show_config()
    return "openblas" in config.getvalue().lower()


@pytest.mark.skipif(
    not _numpy_uses_openblas() or platform.machine().lower() not in ("x86_64", "amd64"),
    reason="numpy's BLAS is not OpenBLAS on x86-64, so OPENBLAS_CORETYPE picks no kernel",
)
def test_analyze_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    """OpenBLAS sums a matrix product in an order that depends on the CPU
    kernel it picks; no such product may reach an output file."""
    outputs = []
    for kernel in ("Prescott", "Haswell"):  # SSE3 and AVX2 kernels
        out_dir = tmp_path / kernel
        _run_cli(["analyze", "--cache", str(SAMPLE_CACHE), "--lenient", "--out", str(out_dir)],
                 {"OPENBLAS_CORETYPE": kernel})
        outputs.append(_files_under(out_dir))
    assert "correlation_matrix.csv" in outputs[0]
    assert outputs[0] == outputs[1]


def test_calibrate_passes_the_benchmark_output_checks(bench_gen, tmp_path):
    """``perfbench/check.py``'s ``check_calibrate`` on a small benchmark
    cache: the sample's ids, a grid config, the fitted kappa the best for
    the fitted weights, and an error no worse than the uniform preset's."""
    check = bench_gen.load_module(REPO / "perfbench" / "check.py")
    cache, out = tmp_path / "nvd.jsonl", tmp_path / "cal"
    truth = bench_gen.nvd_cache(bench_gen.load_fixture_module(REPO), cache, 2000, 4)
    result = CliRunner().invoke(
        main, ["calibrate", "--cache", str(cache), "--out", str(out), "--n-cal", "1000", "--seed", "4"]
    )
    assert result.exit_code == 0, result.output
    assert check.check_calibrate(REPO, out, truth, 1000, 4) == []


def test_score_passes_the_benchmark_output_checks(bench_gen, tmp_path):
    """``check_score`` on a small dirty benchmark cache scored with
    --lenient: every kept record's scores and class, and every skip with its
    reason (truncated and corrupt lines, bad vectors, CVSS:3.0 prefixes)."""
    check = bench_gen.load_module(REPO / "perfbench" / "check.py")
    cache, out = tmp_path / "dirty.jsonl", tmp_path / "score"
    truth = bench_gen.dirty_cache(bench_gen.load_fixture_module(REPO), cache, 4000, 5)
    result = CliRunner().invoke(main, ["score", "--lenient", "--cache", str(cache), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert check.check_score(REPO, out, truth) == []


def test_analyze_passes_the_benchmark_output_checks(bench_gen, tmp_path):
    """``check_analyze`` on a small NVD-like benchmark cache analyzed with
    the benchmark's config and exclusion list: the schema, the scores,
    correlations, tables and distributions against the generator's truth."""
    check = bench_gen.load_module(REPO / "perfbench" / "check.py")
    cache, out = tmp_path / "nvd.jsonl", tmp_path / "bundle"
    truth = bench_gen.nvd_cache(bench_gen.load_fixture_module(REPO), cache, 2000, 6)
    weights = bench_gen.write_config(tmp_path / "model_config.txt")
    exclude = bench_gen.write_exclusions(tmp_path / "exclude_ids.txt", truth, 6)
    result = CliRunner().invoke(main, [
        "analyze", "--cache", str(cache), "--config", str(tmp_path / "model_config.txt"),
        "--exclude-ids", str(tmp_path / "exclude_ids.txt"), "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert check.check_analyze(REPO, out, truth, exclude, weights) == []


# Category labels of the fixture's factors, by vector value, in the order
# of the report's rows and columns.
_LEVELS = {"N": "None", "L": "Low", "H": "High"}
_LABELS = {
    "AV": {"N": "Network", "A": "Adjacent", "L": "Local", "P": "Physical"},
    "AC": {"L": "Low", "H": "High"},
    "PR": _LEVELS,
    "UI": {"N": "None", "R": "Required"},
    "S": {"U": "Unchanged", "C": "Changed"},
    "C": _LEVELS,
    "I": _LEVELS,
    "A": _LEVELS,
}
_DOMAINS = {
    **{name: tuple(labels.values()) for name, labels in _LABELS.items()},
    "combined_cia": tuple(_LEVELS.values()),
    "official_severity": ("Low", "Medium", "High", "Critical"),
}
# Table prefix: (row factor, column factor, row header, matrices written).
_CONTINGENCY_TABLES = {
    "complexity_severity": ("AC", "official_severity", "attack_complexity", ("counts", "probs")),
    "av_severity": ("AV", "official_severity", "attack_vector", ("counts", "probs")),
    "ui_confidentiality": ("UI", "C", "user_interaction", ("counts", "probs")),
    "av_combined_impact": ("AV", "combined_cia", "attack_vector", ("counts", "probs")),
    "complexity_privilege": ("AC", "PR", "attack_complexity", ("counts", "mean_score")),
    "integrity_availability": ("I", "A", "integrity", ("counts", "mean_score")),
}


def _fixture_categories():
    """(categories, official score) of each record that ``analyze`` scores,
    read by hand from the fixture's raw lines: a record with an official
    score and a CVSS v3.1 vector. Severity uses the default thresholds."""
    out = []
    for line in SAMPLE_CACHE.read_text(encoding="utf-8").splitlines()[1:]:
        data = json.loads(line)
        official, vector = data.get("official_score"), data.get("vector_string")
        if official is None or vector is None:
            continue
        prefix, *tokens = vector.split("/")
        values = dict(token.split(":") for token in tokens)
        assert prefix == "CVSS:3.1" and len(tokens) == 8 and values.keys() == _LABELS.keys(), vector
        cats = {name: _LABELS[name][values[name]] for name in _LABELS}
        worst = max("NLH".index(values[m]) for m in "CIA")
        cats["combined_cia"] = _DOMAINS["combined_cia"][worst]
        cats["official_severity"] = _DOMAINS["official_severity"][
            (official >= 4.0) + (official >= 7.0) + (official >= 9.0)
        ]
        out.append((cats, official))
    return out


def _assert_cell(where, got: str, want):
    """A CSV cell against its oracle: an int exactly, a float to 1e-12
    relative, and NaN as a blank cell."""
    if isinstance(want, int):
        assert got == str(want), where
    elif math.isnan(want):
        assert got == "", where
    else:
        assert math.isclose(float(got), want, rel_tol=1e-12, abs_tol=0.0), (where, got, want)


def _assert_matrix(path, row_header, row_domain, col_domain, want):
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [row_header, *col_domain], path.name
    assert [row[0] for row in rows[1:]] == list(row_domain), path.name
    for row in rows[1:]:
        assert len(row) == 1 + len(col_domain), path.name
        for col, cell in zip(col_domain, row[1:]):
            _assert_cell((path.name, row[0], col), cell, want[row[0]][col])


def test_analyze_contingency_tables_and_high_risk_shares_match_the_oracles(runner, tmp_path):
    """Fixture ``analyze``: the per-vector high-risk shares (summary and
    CSV), every contingency table's counts, P(y | x) and cell means, and the
    high-risk AC x PR counts, recomputed from the raw cache lines with
    ``tests/oracles.py``."""
    out = tmp_path / "bundle"
    result = runner.invoke(main, ["analyze", "--cache", str(SAMPLE_CACHE), "--out", str(out)])
    assert result.exit_code == 0, result.output
    records = _fixture_categories()
    assert sum(official == 7.0 for _, official in records) > 0  # the threshold's own value occurs

    av = oracles.high_risk_share([(c["AV"], o) for c, o in records], _DOMAINS["AV"], 7.0)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    shares = summary["attack_vector"]["high_risk_share"]
    assert sorted(shares) == sorted(av)
    for label, (count, high, share) in av.items():
        assert (shares[label]["count"], shares[label]["high_risk"]) == (count, high), label
        assert math.isclose(shares[label]["share"], share, rel_tol=1e-12, abs_tol=0.0), label
    av_rows = {label: {"count": count, "high_risk_count": high, "share": share}
               for label, (count, high, share) in av.items()}
    _assert_matrix(out / "attack_vector_high_risk.csv", "attack_vector", _DOMAINS["AV"],
                   ("count", "high_risk_count", "share"), av_rows)

    for prefix, (x, y, row_header, matrices) in _CONTINGENCY_TABLES.items():
        rows, cols = _DOMAINS[x], _DOMAINS[y]
        pairs = [(c[x], c[y]) for c, _ in records]
        want = {
            "counts": oracles.conditional_counts(pairs, rows, cols),
            "probs": oracles.conditional_probs(pairs, rows, cols),
            "mean_score": oracles.cell_means([(c[x], c[y], o) for c, o in records], rows, cols),
        }
        for name in matrices:
            _assert_matrix(out / f"{prefix}_{name}.csv", row_header, rows, cols, want[name])

    high = [(c["AC"], c["PR"]) for c, o in records if o >= 7.0]
    _assert_matrix(out / "high_risk_complexity_privilege.csv", "attack_complexity",
                   _DOMAINS["AC"], _DOMAINS["PR"],
                   oracles.conditional_counts(high, _DOMAINS["AC"], _DOMAINS["PR"]))


# Each category's default encoding: the CVSS v3.1 coefficient over its
# metric's largest, the scope as 0 or 1 and the fixed impact levels.
_ENCODINGS = {
    "AV": {"Network": 1.0, "Adjacent": 0.62 / 0.85, "Local": 0.55 / 0.85, "Physical": 0.2 / 0.85},
    "AC": {"Low": 1.0, "High": 0.44 / 0.77},
    "PR": {"None": 1.0, "Low": 0.62 / 0.85, "High": 0.27 / 0.85},
    "UI": {"None": 1.0, "Required": 0.62 / 0.85},
    "S": {"Unchanged": 0.0, "Changed": 1.0},
    **{comp: {"None": 0.0, "Low": 0.22, "High": 0.56} for comp in "CIA"},
}


def test_analyze_correlations_and_cia_bins_match_the_oracles(runner, tmp_path):
    """Fixture ``analyze``: each factor's correlation with the official
    score in ``summary.json`` and in the executive summary, and every cell
    of ``cia_by_score_bin.csv``, recomputed from the raw cache lines with
    ``tests/oracles.py``. The oracle sums in another order than numpy, so
    a correlation agrees to 1e-9."""
    out = tmp_path / "bundle"
    result = runner.invoke(main, ["analyze", "--cache", str(SAMPLE_CACHE), "--out", str(out)])
    assert result.exit_code == 0, result.output
    records = _fixture_categories()
    officials = [official for _, official in records]

    want = {name: oracles.pearson([encoding[c[name]] for c, _ in records], officials)
            for name, encoding in _ENCODINGS.items()}
    assert not any(math.isnan(r) for r in want.values())  # every factor varies in the fixture
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    got = summary["correlations"]["cvss"]
    assert sorted(got) == sorted(want)
    for name, r in want.items():
        assert math.isclose(got[name], r, rel_tol=1e-9, abs_tol=0.0), (name, got[name], r)
    ranked = sorted(want.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
    line = "Correlation with the official score: " + ", ".join(f"{n} {r:+.2f}" for n, r in ranked)
    assert line in (out / "executive_summary.txt").read_text(encoding="utf-8").splitlines()

    edges = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0)
    labels = ("[0,2)", "[2,4)", "[4,6)", "[6,8)", "[8,10]")
    cia = [(o, [_ENCODINGS[comp][c[comp]] for comp in "CIA"]) for c, o in records]
    columns = ("count", "mean_confidentiality", "mean_integrity", "mean_availability")
    bins = {}
    for label, (count, means) in zip(labels, oracles.binned_means(cia, edges)):
        bins[label] = dict(zip(columns, (count, *(means or [math.nan] * 3))))
    _assert_matrix(out / "cia_by_score_bin.csv", "score_bin", labels, columns, bins)


def test_analyze_draws_a_density_and_ranks_at_exactly_two_records(runner, tmp_path):
    """Two scored records, both network-based: the group of two gets its
    density and Spearman's rho over the two pairs has a value, each
    checked against ``tests/oracles.py``."""
    cache = write_cache(
        [make_record(cve_id="CVE-2024-20001", official=9.8,
                     vector="CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"),
         make_record(cve_id="CVE-2024-20002", official=3.1,
                     vector="CVSS:3.1/AV:N/AC:H/PR:L/UI:R/S:U/C:L/I:N/A:N")],
        tmp_path / "two.jsonl",
    )
    out = tmp_path / "bundle"
    result = runner.invoke(main, ["analyze", "--cache", str(cache), "--out", str(out)])
    assert result.exit_code == 0, result.output
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))

    assert summary["kde"]["skipped"] == ["Adjacent", "Local", "Physical"]
    h = oracles.silverman_bandwidth([9.8, 3.1])
    assert math.isclose(summary["kde"]["bandwidths"]["Network"], h, rel_tol=1e-12)
    with (out / "kde_network.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["score", "density"] and len(rows) == 513
    assert math.isclose(float(rows[1][0]), -3.0 * h, rel_tol=1e-12)
    for x, density in rows[1:]:
        want = oracles.kde_at([9.8, 3.1], h, float(x))
        assert math.isclose(float(density), want, rel_tol=1e-9, abs_tol=1e-300), (x, density, want)

    with (out / "model_scores.csv").open(encoding="utf-8", newline="") as fh:
        scores = list(csv.DictReader(fh))
    composites = [float(row["composite_score"]) for row in scores]
    truth = [float(row["official_score"]) for row in scores]
    comparison = {row["method"]: row for row in summary["method_comparison"]}
    rho = comparison["weighted_model"]["spearman_rho"]
    assert rho is not None and math.isclose(rho, oracles.spearman(composites, truth), rel_tol=1e-12)


def _cpu_has_fma():
    if platform.machine().lower() not in ("x86_64", "amd64") or platform.libc_ver()[0] != "glibc":
        return False
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return False
    return re.search(r"^flags\s*:.*\bfma\b", cpuinfo, re.MULTILINE) is not None


@pytest.mark.skipif(
    not _cpu_has_fma(),
    reason="not glibc on an x86-64 CPU with FMA, so masking FMA picks no other pow",
)
def test_kde_bandwidths_do_not_depend_on_fma(bench_gen, tmp_path):
    """glibc picks its ``pow`` by CPU feature, and its FMA and plain builds
    round ``240 ** -0.2`` differently; a 240-record attack-vector group
    carries the bandwidth into ``summary.json``."""
    full = tmp_path / "full.jsonl"
    truth = bench_gen.nvd_cache(bench_gen.load_fixture_module(REPO), full, 4000, 1)
    header, *body = full.read_text(encoding="utf-8").splitlines()
    usable = [(t, line) for t, line in zip(truth, body) if t.metrics and t.official is not None]
    adjacent = [line for t, line in usable if t.metrics["AV"] == "A"][:240]
    others = [line for t, line in usable[:300] if t.metrics["AV"] != "A"]
    assert len(adjacent) == 240
    cache = tmp_path / "cache.jsonl"
    header = json.dumps({**json.loads(header), "count": len(adjacent) + len(others)}, sort_keys=True)
    cache.write_text("\n".join([header, *adjacent, *others]) + "\n", encoding="utf-8")
    summaries = []
    for name, env in (("plain", {}), ("no-fma", {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA,-FMA4"})):
        _run_cli(["analyze", "--cache", str(cache), "--out", str(tmp_path / name)], env)
        summaries.append((tmp_path / name / "summary.json").read_bytes())
    assert b'"Adjacent"' in summaries[0]
    assert summaries[0] == summaries[1]


def _outputs_without_dataset_hash(out_dir):
    return {
        p.name: [line for line in p.read_bytes().splitlines() if b"dataset_sha256" not in line]
        for p in out_dir.iterdir()
    }


def _shuffled_lines(seed):
    def rewrite(lines):
        lines = list(lines)
        random.Random(seed).shuffle(lines)
        return lines

    return rewrite


def _shuffled_tokens(lines):
    """Every fixture vector is valid, so its eight tokens in any order after
    the CVSS:3.0 prefix score the same in lenient mode."""
    rng = random.Random(11)
    rewritten = []
    for line in lines:
        record = json.loads(line)
        if record.get("vector_string"):
            tokens = record["vector_string"].split("/")[1:]
            rng.shuffle(tokens)
            record["vector_string"] = "/".join(["CVSS:3.0", *tokens])
        rewritten.append(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
    return rewritten


def _reversed_keys(lines):
    """The reader maps keys by name and ignores any it does not know."""
    return [
        json.dumps({**dict(reversed(json.loads(line).items())), "x_extra": 1}, ensure_ascii=False) + "\n"
        for line in lines
    ]


@pytest.mark.parametrize(
    ("rewrite", "commands"),
    [
        (_shuffled_lines(0), ["analyze"]),  # score writes its rows in cache order
        (_shuffled_lines(1), ["analyze"]),
        (_shuffled_lines(2), ["analyze"]),
        (_shuffled_tokens, ["score", "analyze"]),
        (_reversed_keys, ["score", "analyze"]),
    ],
    ids=["0", "1", "2", "tokens", "keys"],
)
def test_analyze_ignores_the_cache_line_order(runner, tmp_path, rewrite, commands):
    """Line order, metric order, the minor revision and key order of the
    cache leave the output as it was, except the bundle's
    provenance.dataset_sha256."""
    header, *lines = SAMPLE_CACHE.read_text(encoding="utf-8").splitlines(keepends=True)
    rewritten = tmp_path / "rewritten.jsonl"
    rewritten.write_text(header + "".join(rewrite(lines)), encoding="utf-8")
    for command in commands:
        outputs = []
        for cache in (SAMPLE_CACHE, rewritten):
            out_dir = tmp_path / command / cache.stem
            result = runner.invoke(
                main, [command, "--cache", str(cache), "--lenient", "--out", str(out_dir)]
            )
            assert result.exit_code == 0, result.output
            outputs.append(_outputs_without_dataset_hash(out_dir))
        assert outputs[0] == outputs[1]


def test_score_command_writes_scores_and_skips(runner, cache_copy, tmp_path):
    out_dir = tmp_path / "scores"
    result = runner.invoke(main, ["score", "--cache", str(cache_copy), "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    assert "scored 193 records (7 skipped)" in result.output
    scores = (out_dir / "scores.csv").read_text(encoding="utf-8").splitlines()
    assert scores[0] == "cve_id,official_score,base_risk,impact_score,composite_score,severity"
    assert len(scores) == 194
    skips = (out_dir / "skip_report.csv").read_text(encoding="utf-8").splitlines()
    assert len(skips) == 8


def test_score_with_uniform_baseline(runner, cache_copy, tmp_path):
    result = runner.invoke(
        main,
        ["score", "--cache", str(cache_copy), "--baseline", "uniform", "--out", str(tmp_path / "u")],
    )
    assert result.exit_code == 0, result.output


def test_config_and_baseline_are_mutually_exclusive(runner, cache_copy, tmp_path):
    result = runner.invoke(
        main,
        ["score", "--cache", str(cache_copy), "--config", "x.txt", "--baseline", "uniform",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 2
    assert "mutually exclusive" in result.output


def test_unknown_baseline_is_usage_error(runner, cache_copy, tmp_path):
    result = runner.invoke(
        main,
        ["score", "--cache", str(cache_copy), "--baseline", "zipf", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2


def test_missing_cache_is_io_error(runner, tmp_path):
    result = runner.invoke(
        main, ["score", "--cache", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)]
    )
    assert result.exit_code == 5
    assert "cache not found" in result.output


def test_corrupt_cache_is_data_error(runner, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"schema": "cve-cache/1", "count": 1}\n{broken\n', encoding="utf-8")
    result = runner.invoke(main, ["score", "--cache", str(bad), "--out", str(tmp_path / "o")])
    assert result.exit_code == 3
    assert "bad cache" in result.output


def test_truncated_cache_is_data_error(runner, tmp_path):
    lines = SAMPLE_CACHE.read_text(encoding="utf-8").splitlines(keepends=True)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines[:50]), encoding="utf-8")  # header says 200 records
    result = runner.invoke(main, ["score", "--cache", str(cut), "--out", str(tmp_path / "o")])
    assert result.exit_code == 3
    assert "header count" in result.output


def test_lenient_mode_rides_over_corrupt_lines(runner, cache_copy, tmp_path):
    with cache_copy.open("a", encoding="utf-8") as fh:
        fh.write("{broken json\n")
    strict = runner.invoke(main, ["score", "--cache", str(cache_copy), "--out", str(tmp_path / "s")])
    assert strict.exit_code == 3
    lenient = runner.invoke(
        main, ["score", "--cache", str(cache_copy), "--lenient", "--out", str(tmp_path / "l")]
    )
    assert lenient.exit_code == 0, lenient.output
    assert "scored 193 records" in lenient.output


def test_deeply_nested_json_in_an_input_file_is_a_data_error(runner, cache_copy, tmp_path):
    """A cache header or a ``summary.json`` nested deeper than any recursion
    limit (a record line is one case of the hostile-line property test)."""
    deep = "[" * 100_000
    lines = cache_copy.read_text(encoding="utf-8").splitlines(keepends=True)
    cache_copy.write_text("".join([deep + "\n", *lines[1:]]), encoding="utf-8")
    header = runner.invoke(
        main, ["score", "--cache", str(cache_copy), "--lenient", "--out", str(tmp_path / "header")]
    )
    assert header.exit_code == 3, header.output
    assert f"error: bad cache {cache_copy}: line 1: bad header: " in header.output

    bundle = tmp_path / "bundle"
    analyze = runner.invoke(main, ["analyze", "--cache", str(SAMPLE_CACHE), "--out", str(bundle)])
    assert analyze.exit_code == 0, analyze.output
    (bundle / "summary.json").write_text(deep, encoding="utf-8")
    report = runner.invoke(main, ["report", "--bundle", str(bundle)])
    assert report.exit_code == 3, report.output
    assert f"error: bad summary {bundle / 'summary.json'}: maximum recursion depth" in report.output


_EDITED_FIELDS = ("cve_id", "description", "published", "official_score", "vector_string", "affected_os")
_DEEP = "[" * 100_000 + "]" * 100_000  # deeper than any recursion limit
# (kind, parameter) of an edit to one field of a record line; see ``_edit_line``.
_HOSTILE_EDITS = st.one_of(
    st.tuples(st.just("value"), st.sampled_from(
        ["null", "true", "0", "1.5", '"x"', "[]", "{}", "NaN", "Infinity", "-Infinity", _DEEP]
    )),
    st.tuples(st.just("value"), st.sampled_from([20, 309, 400, 5000]).map(lambda n: "1" + "0" * n)),
    st.tuples(st.just("surrogate"), st.sampled_from(["\\ud800", "\\udfff"])),
    st.tuples(st.just("bytes"), st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])),
    st.tuples(st.just("bom"), st.none()),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0, exclude_max=True)),
)


def _edit_line(line: bytes, field, kind: str, param) -> bytes:
    """``line`` (no LF) with field ``field``'s value replaced by the JSON
    text ``param`` ("value") or prefixed with the escape of a lone surrogate
    ("surrogate"); or with the bytes ``param`` put in front of the field
    ("bytes"), a BOM in front of the line ("bom"), or cut to its first
    ``param`` share ("truncate"). A tuple ``field`` is a path of keys and
    list positions to a field of a nested object."""
    data = json.loads(line)
    *outer, field = field if isinstance(field, tuple) else (field,)
    node = functools.reduce(operator.getitem, outer, data)
    if kind == "value":
        node[field] = "\0"  # JSON writes it as one token, "\u0000"
        return json.dumps(data, sort_keys=True).replace('"\\u0000"', param, 1).encode()
    if kind == "surrogate":
        node[field] = "\0" + (node[field] if isinstance(node.get(field), str) else "x")
        return json.dumps(data, sort_keys=True).replace("\\u0000", param, 1).encode()
    if kind == "bytes":
        return line.replace(f'"{field}"'.encode(), param + f'"{field}"'.encode(), 1)
    if kind == "bom":
        return b"\xef\xbb\xbf" + line
    return line[: int(param * len(line))]


@settings(settings.get_profile("bounded-commands"))
@given(record=st.integers(0, 5), field=st.sampled_from(_EDITED_FIELDS), edit=_HOSTILE_EDITS)
@example(record=2, field="official_score", edit=("value", _DEEP))
@example(record=2, field="official_score", edit=("value", "1" + "0" * 5000))
@example(record=2, field="official_score", edit=("value", "NaN"))
@example(record=2, field="vector_string", edit=("surrogate", "\\ud800"))
@example(record=2, field="description", edit=("surrogate", "\\ud800"))
def test_a_hostile_cache_line_is_read_or_dropped_alone(tmp_path_factory, record, field, edit):
    """A record line of a six-record cache, edited: deep nesting, huge
    integers, NaN and Infinity, a wrong JSON type in any field, lone
    surrogates, bytes that are not UTF-8, a BOM, or a cut. Strict ``score``
    exits 0 or 3 (naming the line) with no traceback; ``--lenient`` scores
    what strict mode scores when it exits 0, and otherwise drops the edited
    record alone."""
    what = (record, field, edit[0], str(edit[1])[:20])
    tmp = tmp_path_factory.mktemp("edit")
    lines = SAMPLE_CACHE.read_bytes().splitlines(keepends=True)[1:7]
    header = json.dumps({"count": 6, "retrieved_at": "2024-01-20T12:00:00+00:00",
                         "schema": "cve-cache/1"}).encode() + b"\n"
    edited_id = json.loads(lines[record])["cve_id"]
    clean, cache = tmp / "clean.jsonl", tmp / "cache.jsonl"
    clean.write_bytes(header + b"".join(lines))
    lines[record] = _edit_line(lines[record].rstrip(b"\n"), field, *edit) + b"\n"
    cache.write_bytes(header + b"".join(lines))
    runner = CliRunner()

    def score(path, *flags):
        """The exit code, the output and, on success, the rows of both files."""
        out = tmp / f"{path.stem}{''.join(flags)}"
        result = runner.invoke(main, ["score", "--cache", str(path), *flags, "--out", str(out)])
        assert result.exit_code in (0, 3), (what, result.output, result.exception)
        assert "Traceback" not in result.output, what
        files = ("scores.csv", "skip_report.csv")
        rows = None if result.exit_code else [(out / f).read_text(encoding="utf-8").splitlines() for f in files]
        return result.exit_code, result.output, rows

    def others(tables):
        return [[row for row in rows if not row.startswith(f"{edited_id},")] for rows in tables]

    code, output, strict = score(cache)
    lenient_code, _, lenient = score(cache, "--lenient")
    assert lenient_code == 0, what
    clean_rows = score(clean)[2]
    if code == 0:  # the line was read: both modes score it alike
        assert lenient == strict, what
        assert others(lenient) == others(clean_rows), what
    else:
        assert f"line {record + 2}: " in output, (what, output)
        assert lenient == others(clean_rows), what


def _exits_cleanly(result, what) -> None:
    """Exit 0, 3 (bad data) or 5 (I/O) with at most one ``error:`` line and no traceback."""
    assert result.exit_code in (0, 3, 5), (what, result.output, result.exception)
    assert sum(line.startswith("error:") for line in result.output.splitlines()) <= 1, (what, result.output)
    assert "Traceback" not in result.output, what


def _edit_text(data: bytes, start: int, end: int, kind: str, param) -> bytes:
    """``data`` with the value ``data[start:end]`` of a text file edited as
    ``_edit_line`` edits a field; a text file holds no escapes, so a lone
    surrogate goes in front of the value as UTF-8 would spell it."""
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "truncate":
        return data[: int(param * len(data))]
    value = data[start:end]
    if kind == "value":
        value = param.encode()
    elif kind == "surrogate":
        value = param.encode().decode("unicode_escape").encode("utf-8", "surrogatepass") + value
    else:
        value = param + value
    return data[:start] + value + data[end:]


_SIX_HEADER = json.dumps(
    {"count": 6, "retrieved_at": "2024-01-20T12:00:00+00:00", "schema": "cve-cache/1"}
).encode()


def _six_record_cache(path: Path, header: bytes = _SIX_HEADER) -> Path:
    """The sample cache's first six records under ``header`` (no LF)."""
    path.write_bytes(header + b"\n" + b"".join(SAMPLE_CACHE.read_bytes().splitlines(keepends=True)[1:7]))
    return path


_SUMMARY_VALIDATOR = jsonschema.Draft7Validator(json.loads(SUMMARY_SCHEMA_PATH.read_text(encoding="utf-8")))
_DEEP_500 = "[" * 500 + "]" * 500  # parses, but is too deep for the summary writer's recursion


@settings(settings.get_profile("bounded-commands"))
@given(field=st.sampled_from(["schema", "count", "retrieved_at"]), edit=_HOSTILE_EDITS)
@example(field="retrieved_at", edit=("value", _DEEP_500))
@example(field="retrieved_at", edit=("surrogate", "\\ud800"))
def test_a_hostile_cache_header_field_is_used_or_rejected(tmp_path_factory, field, edit):
    """A field of a six-record cache's header, edited as a record line is
    above: ``analyze`` exits 0, 3 or 5 in both modes with at most one error
    line, and a summary that it writes meets the summary schema."""
    what = (field, edit[0], str(edit[1])[:20])
    tmp = tmp_path_factory.mktemp("header")
    cache = _six_record_cache(tmp / "cache.jsonl", _edit_line(_SIX_HEADER, field, *edit))
    for mode in ("--strict", "--lenient"):
        out = tmp / mode
        result = CliRunner().invoke(main, ["analyze", "--cache", str(cache), mode, "--out", str(out)])
        _exits_cleanly(result, what)
        if result.exit_code == 0:
            _SUMMARY_VALIDATOR.validate(json.loads((out / "summary.json").read_text(encoding="utf-8")))


@settings(settings.get_profile("bounded-commands"))
@given(key=st.sampled_from(sorted(config_to_dict(ModelConfig()))), edit=_HOSTILE_EDITS)
def test_a_hostile_config_value_is_used_or_rejected(tmp_path_factory, key, edit):
    """A value of a saved default config, edited: ``score`` exits 0, 3 or 5
    with at most one error line."""
    tmp = tmp_path_factory.mktemp("config")
    config = save_config(ModelConfig(), tmp / "model_config.txt")
    data = config.read_bytes()
    start = data.index(f"\n{key} = ".encode()) + len(key) + 4
    config.write_bytes(_edit_text(data, start, data.index(b"\n", start), *edit))
    result = CliRunner().invoke(main, [
        "score", "--cache", str(_six_record_cache(tmp / "cache.jsonl")), "--config", str(config),
        "--out", str(tmp / "out"),
    ])
    _exits_cleanly(result, (key, edit[0], str(edit[1])[:20]))


@settings(settings.get_profile("bounded-commands"))
@given(line=st.integers(0, 2), edit=_HOSTILE_EDITS)
def test_a_hostile_exclude_ids_line_is_used_or_rejected(tmp_path_factory, line, edit):
    """A line of a three-id ``--exclude-ids`` file, edited: ``analyze``
    exits 0, 3 or 5 with at most one error line."""
    tmp = tmp_path_factory.mktemp("ids")
    cache = _six_record_cache(tmp / "cache.jsonl")
    ids = [json.loads(record)["cve_id"].encode() for record in cache.read_bytes().splitlines()[1:4]]
    data = b"".join(cve_id + b"\n" for cve_id in ids)
    start = data.index(ids[line])
    exclude = tmp / "ids.txt"
    exclude.write_bytes(_edit_text(data, start, start + len(ids[line]), *edit))
    result = CliRunner().invoke(main, [
        "analyze", "--cache", str(cache), "--exclude-ids", str(exclude), "--out", str(tmp / "out"),
    ])
    _exits_cleanly(result, (line, edit[0], str(edit[1])[:20]))


@pytest.fixture(scope="module")
def fixture_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture") / "bundle"
    result = CliRunner().invoke(main, ["analyze", "--cache", str(SAMPLE_CACHE), "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


# Fields of summary.json that ``report`` reads, whole objects and lists included.
_SUMMARY_FIELDS = [
    ("dataset",), ("dataset", "records_analyzed"), ("dataset", "records_skipped"),
    ("dataset", "records_in_cache"), ("official_score", "mean"), ("severity_mix",),
    ("severity_mix", "High"), ("severity_mix", "Critical", "share"),
    ("attack_vector", "high_risk_share"), ("attack_vector", "high_risk_share", "Network"),
    ("attack_vector", "high_risk_share", "Network", "count"),
    ("attack_vector", "high_risk_share", "Local", "share"), ("ecdf", "at_tau2"),
    ("thresholds", "tau3"), ("correlations", "defined"), ("correlations", "cvss"),
    ("correlations", "cvss", "C"), ("method_comparison",), ("method_comparison", 0, "mae"),
    ("method_comparison", 1, "spearman_rho"), ("tables",), ("severity_histogram",),
]


@settings(settings.get_profile("bounded-commands"))
@given(field=st.sampled_from(_SUMMARY_FIELDS), edit=_HOSTILE_EDITS)
@example(field=("official_score", "mean"), edit=("value", "1" + "0" * 400))
def test_a_hostile_summary_field_is_rendered_or_rejected(fixture_bundle, tmp_path_factory, field, edit):
    """A field of a fixture bundle's summary.json, edited: ``report`` exits
    0, 3 or 5 with at most one error line, which names the bundle."""
    bundle = tmp_path_factory.mktemp("summary") / "bundle"
    shutil.copytree(fixture_bundle, bundle)
    summary = bundle / "summary.json"
    summary.write_bytes(_edit_line(summary.read_bytes(), field, *edit))
    result = CliRunner().invoke(main, ["report", "--bundle", str(bundle)])
    what = (field, edit[0], str(edit[1])[:20])
    _exits_cleanly(result, what)
    assert result.exit_code == 0 or str(bundle) in result.output, (what, result.output)


@pytest.mark.parametrize(
    "command", [["score"], ["analyze"], ["calibrate", "--n-cal", "100"]], ids=lambda c: c[0]
)
@pytest.mark.parametrize(
    "field, value",
    [
        ("vector_string", 5),
        ("vector_string", ["CVSS:3.1"]),
        ("official_score", "7.5"),
        ("official_score", 10**400),
        ("cve_id", "CVE-2024-10004\n"),
        ("cve_id", "CVE-2024-\u0661\u0660\u0660\u0660\u0664"),
        ("description", 5),
        ("affected_os", ["x"]),
        ("published", 20240101),
    ],
    ids=["number", "list", "score-string", "score-beyond-float", "id-newline", "id-non-ascii-digits",
         "description-number", "os-list", "published-number"],
)
def test_non_string_vector_is_a_corrupt_cache_line(
    runner, cache_copy, tmp_path, command, field, value
):
    lines = cache_copy.read_text(encoding="utf-8").splitlines(keepends=True)
    data = json.loads(lines[5])
    edited_id = data["cve_id"]
    data[field] = value
    lines[5] = json.dumps(data, sort_keys=True) + "\n"
    cache_copy.write_text("".join(lines), encoding="utf-8")
    args = [*command, "--cache", str(cache_copy)]
    strict = runner.invoke(main, [*args, "--out", str(tmp_path / "strict")])
    assert strict.exit_code == 3, strict.output
    assert "line 6" in strict.output
    lenient = runner.invoke(main, [*args, "--lenient", "--out", str(tmp_path / "lenient")])
    assert lenient.exit_code == 0, lenient.output
    if command == ["score"]:  # the commands share the reader: it drops the edited record only
        clean = runner.invoke(main, ["score", "--cache", str(SAMPLE_CACHE), "--out", str(tmp_path / "clean")])
        assert clean.exit_code == 0, clean.output
        for name in ("scores.csv", "skip_report.csv"):
            rows = (tmp_path / "clean" / name).read_text(encoding="utf-8").splitlines()
            kept = (tmp_path / "lenient" / name).read_text(encoding="utf-8").splitlines()
            assert kept == [row for row in rows if not row.startswith(f"{edited_id},")]


@pytest.mark.parametrize(
    "command", [["score"], ["analyze"], ["calibrate", "--n-cal", "100"]], ids=lambda c: c[0]
)
def test_commands_build_no_record(runner, tmp_path, monkeypatch, command):
    """The cache is read into columns and scored, sampled and calibrated as
    a batch; ``score_records`` reports a skipped record by its id, so no
    ``CveRecord`` is built, not even for the skipped ones."""
    _, skipped = score_records(read_cache(SAMPLE_CACHE, lenient=True), lenient=True)
    assert len(skipped) == 7
    built = []
    check = CveRecord.__post_init__

    def counting(record):
        built.append(record.cve_id)
        check(record)

    monkeypatch.setattr(CveRecord, "__post_init__", counting)
    out = tmp_path / "out"
    result = runner.invoke(main, [*command, "--cache", str(SAMPLE_CACHE), "--lenient", "--out", str(out)])
    assert result.exit_code == 0, result.output
    if command == ["score"]:
        reported = (out / "skip_report.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(reported) == len(skipped)
    assert built == []


def test_a_vector_that_does_not_parse_is_skipped_in_both_modes(runner, cache_copy, tmp_path):
    """Strict mode aborts on a malformed cache line, not on a bad vector;
    only --lenient also accepts the CVSS:3.0 prefix."""
    lines = cache_copy.read_text(encoding="utf-8").splitlines(keepends=True)
    vectors = {
        5: "CVSS:3.1/AV:X/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",  # CVE-2024-10004
        6: "CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",  # CVE-2024-10005
    }
    for index, vector in vectors.items():
        data = json.loads(lines[index])
        data["vector_string"] = vector
        lines[index] = json.dumps(data, sort_keys=True) + "\n"
    cache_copy.write_text("".join(lines), encoding="utf-8")

    def skips(out_dir):
        rows = (out_dir / "skip_report.csv").read_text(encoding="utf-8").splitlines()
        return {row.split(",", 1)[0]: row.split(",", 1)[1] for row in rows[1:]}

    args = ["--cache", str(cache_copy)]
    strict = runner.invoke(main, ["score", *args, "--out", str(tmp_path / "strict")])
    assert strict.exit_code == 0, strict.output
    assert "scored 191 records (9 skipped)" in strict.output
    reasons = skips(tmp_path / "strict")
    assert reasons["CVE-2024-10004"] == "metric AV has no value 'X'"
    assert "CVSS:3.0" in reasons["CVE-2024-10005"]
    lenient = runner.invoke(main, ["score", *args, "--lenient", "--out", str(tmp_path / "lenient")])
    assert lenient.exit_code == 0, lenient.output
    assert "scored 192 records (8 skipped)" in lenient.output
    reasons = skips(tmp_path / "lenient")
    assert "CVE-2024-10004" in reasons and "CVE-2024-10005" not in reasons
    analyze = runner.invoke(main, ["analyze", *args, "--out", str(tmp_path / "bundle")])
    assert analyze.exit_code == 0, analyze.output
    assert set(skips(tmp_path / "bundle")) >= {"CVE-2024-10004", "CVE-2024-10005"}


def _append_bad_byte(path, line_index):
    """Append a byte that is not UTF-8 to line ``line_index`` (0-based)."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line_index] = lines[line_index].rstrip(b"\n") + b"\xff\n"
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize(
    "command", [["score"], ["analyze"], ["calibrate", "--n-cal", "100"]], ids=lambda c: c[0]
)
def test_non_utf8_cache_line_is_a_corrupt_cache_line(runner, cache_copy, tmp_path, command):
    _append_bad_byte(cache_copy, 5)
    args = [*command, "--cache", str(cache_copy)]
    strict = runner.invoke(main, [*args, "--strict", "--out", str(tmp_path / "strict")])
    assert strict.exit_code == 3, strict.output
    assert "line 6" in strict.output
    lenient = runner.invoke(main, [*args, "--lenient", "--out", str(tmp_path / "lenient")])
    assert lenient.exit_code == 0, lenient.output


def test_lone_surrogate_in_a_cache_line_is_a_corrupt_cache_line(runner, cache_copy, tmp_path):
    lines = cache_copy.read_bytes().splitlines(keepends=True)
    lines[5] = lines[5].replace(b'"description": "', b'"description": "\\ud800', 1)
    cache_copy.write_bytes(b"".join(lines))
    cve_id = json.loads(lines[5])["cve_id"]
    args = ["score", "--cache", str(cache_copy)]
    strict = runner.invoke(main, [*args, "--out", str(tmp_path / "strict")])
    assert strict.exit_code == 3, strict.output
    assert f"line 6: {cve_id}: description holds '\\ud800', which UTF-8 cannot encode" in strict.output
    lenient = runner.invoke(main, [*args, "--lenient", "--out", str(tmp_path / "lenient")])
    assert lenient.exit_code == 0, lenient.output
    clean = runner.invoke(main, ["score", "--cache", str(SAMPLE_CACHE), "--out", str(tmp_path / "clean")])
    assert clean.exit_code == 0, clean.output
    rows = (tmp_path / "clean" / "scores.csv").read_text(encoding="utf-8").splitlines()
    assert any(row.startswith(f"{cve_id},") for row in rows)
    kept = [row for row in rows if not row.startswith(f"{cve_id},")]
    assert (tmp_path / "lenient" / "scores.csv").read_text(encoding="utf-8").splitlines() == kept


def test_non_utf8_cache_header_is_data_error(runner, cache_copy, tmp_path):
    _append_bad_byte(cache_copy, 0)
    for mode in ("--strict", "--lenient"):
        result = runner.invoke(
            main, ["score", "--cache", str(cache_copy), mode, "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 3, result.output
        assert "line 1" in result.output


@pytest.mark.parametrize(
    "stamp", ["5", '{"a": [1, 2]}', "1" + "0" * 50, _DEEP_500, '"\\ud800"'],
    ids=["number", "object", "huge-number", "deep-list", "lone-surrogate"],
)
def test_a_cache_header_retrieved_at_that_is_not_text_is_a_data_error(runner, tmp_path, stamp):
    """``analyze`` copies the retrieval time into the summary's provenance,
    where it used to break the summary schema or fail with a traceback."""
    header = _edit_line(_SIX_HEADER, "retrieved_at", "value", stamp)
    cache = _six_record_cache(tmp_path / "cache.jsonl", header)
    for mode in ("--strict", "--lenient"):
        result = runner.invoke(main, ["analyze", "--cache", str(cache), mode, "--out", str(tmp_path / "o")])
        assert result.exit_code == 3, result.output
        assert result.output.count("error:") == 1 and "Traceback" not in result.output
        assert f"error: bad cache {cache}: line 1: header retrieved_at is neither null nor " in result.output
    with pytest.raises(CacheFormatError, match="^line 1: header retrieved_at"):
        read_header(cache)


@pytest.mark.parametrize("header", [{"retrieved_at": None}, {}], ids=["null", "missing"])
def test_a_cache_header_without_a_retrieval_time_is_read(runner, tmp_path, header):
    header = json.dumps({"count": 6, "schema": "cve-cache/1", **header}).encode()
    cache = _six_record_cache(tmp_path / "cache.jsonl", header)
    result = runner.invoke(main, ["analyze", "--cache", str(cache), "--out", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "o" / "summary.json").read_text(encoding="utf-8"))
    assert summary["provenance"]["cache_retrieved_at"] is None


def test_non_utf8_config_is_data_error(runner, cache_copy, tmp_path):
    cfg = tmp_path / "weights.txt"
    cfg.write_bytes(b"alpha = 0.5 # caf\xe9\n")
    result = runner.invoke(
        main,
        ["score", "--cache", str(cache_copy), "--config", str(cfg), "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 3, result.output
    assert "bad config" in result.output


def test_non_utf8_exclude_file_is_data_error(runner, cache_copy, tmp_path):
    ids = tmp_path / "ids.txt"
    ids.write_bytes(b"CVE-2024-0001\nCVE-2024-\xff\n")
    result = runner.invoke(
        main,
        ["analyze", "--cache", str(cache_copy), "--exclude-ids", str(ids),
         "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 3, result.output
    assert "not UTF-8" in result.output


def test_non_utf8_summary_is_data_error(runner, cache_copy, tmp_path):
    bundle = _analyzed_bundle(runner, cache_copy, tmp_path / "bundle")
    summary = bundle / "summary.json"
    summary.write_bytes(summary.read_bytes().replace(b'"dataset"', b'"data\xffset"', 1))
    result = runner.invoke(main, ["report", "--bundle", str(bundle)])
    assert result.exit_code == 3, result.output
    assert result.output.count("error:") == 1
    assert f"error: summary {summary} is not UTF-8: " in result.output


# Per input: the option that names it (None for report's summary.json), bytes
# that it cannot hold, and the message prefix when it is missing, unreadable
# or malformed.
INPUTS = {
    "cache": ("--cache", b'{"schema": "cve-cache/1", "count": 1}\n{broken\n',
              ("cache not found: {path}", "cannot read cache {path}: ", "bad cache {path}: ")),
    "config": ("--config", b"alpha = banana\n",
               ("config not found: {path}", "cannot read config {path}: ", "bad config {path}: ")),
    "exclude-ids": ("--exclude-ids", b"CVE-2024-10000\n\xff\n",
                    ("id file not found: {path}", "cannot read id file {path}: ",
                     "id file {path} is not UTF-8: ")),
    "summary.json": (None, b"{broken",
                     ("summary not found: {path}", "cannot read summary {path}: ",
                      "bad summary {path}: ")),
}


@pytest.mark.parametrize(("failure", "code"), [("missing", 5), ("unreadable", 5), ("malformed", 3)])
@pytest.mark.parametrize("name", list(INPUTS))
def test_an_input_that_cannot_be_used_exits_with_one_error_line(
    runner, cache_copy, tmp_path, monkeypatch, name, failure, code
):
    option, malformed, prefixes = INPUTS[name]
    bundle = tmp_path / "bundle"
    if option is None:
        analyze = runner.invoke(main, ["analyze", "--cache", str(cache_copy), "--out", str(bundle)])
        assert analyze.exit_code == 0, analyze.output
        path, args = bundle / "summary.json", ["report", "--bundle", str(bundle)]
    else:
        path = cache_copy if option == "--cache" else tmp_path / name
        args = ["analyze", "--cache", str(cache_copy), option, str(path), "--out", str(bundle)]
    if failure == "missing":
        path.unlink(missing_ok=True)
    else:
        path.write_bytes(malformed)
    if failure == "unreadable":
        real_open = Path.open

        def eio(self, *rest, **kwargs):
            if self == path:
                raise OSError(errno.EIO, "Input/output error")
            return real_open(self, *rest, **kwargs)

        monkeypatch.setattr(Path, "open", eio)
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    errors = [line for line in result.output.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, result.output
    prefix = prefixes[["missing", "unreadable", "malformed"].index(failure)]
    assert errors[0].startswith(f"error: {prefix.format(path=path, bundle=bundle)}"), errors


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("lenient", [False, True])
def test_calibration_sample_draws_from_the_id_sorted_pool(seed, lenient):
    records = read_cache(SAMPLE_CACHE)
    pool = []
    for record in sorted(records, key=lambda r: r.cve_id):
        sr = score_one(record, lenient=lenient)
        if not isinstance(sr, str) and record.official_score is not None:
            pool.append(sr)
    expected = random.Random(seed).sample(pool, 60)
    assert list(cli_module._calibration_sample(records, 60, seed, lenient)) == expected


def test_calibrate_insufficient_records(runner, cache_copy, tmp_path):
    result = runner.invoke(
        main,
        ["calibrate", "--cache", str(cache_copy), "--out", str(tmp_path), "--n-cal", "500"],
    )
    assert result.exit_code == 3
    assert "need 500" in result.output


@pytest.mark.parametrize(("n_cal", "code"), [("-1", 2), ("0", 3)])
def test_calibrate_sample_size_bounds(runner, cache_copy, tmp_path, n_cal, code):
    result = runner.invoke(
        main, ["calibrate", "--cache", str(cache_copy), "--out", str(tmp_path), "--n-cal", n_cal]
    )
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_calibrate_bad_grid_step(runner, cache_copy, tmp_path):
    result = runner.invoke(
        main,
        ["calibrate", "--cache", str(cache_copy), "--out", str(tmp_path),
         "--n-cal", "50", "--grid-step", "0.3"],
    )
    assert result.exit_code == 3


CALIBRATED_SEED_0 = """\
# model constants; see cverisk.config for the key schema
alpha = 0.25
beta = 0.35
gamma = 0.4
lambda_c = 1.0
lambda_i = 1.0
lambda_a = 1.0
kappa = 1.15
delta = 0.1
tau1 = 4.0
tau2 = 7.0
tau3 = 9.0
phi.N = 1.0
phi.A = 0.7294117647058823
phi.L = 0.6470588235294118
phi.P = 0.23529411764705885
psi.L = 1.0
psi.H = 0.5714285714285714
omega.N = 1.0
omega.L = 0.7294117647058823
omega.H = 0.31764705882352945
eta.N = 0.0
eta.L = 0.22
eta.H = 0.56
"""


def test_calibrate_writes_grid_weights_at_their_shortest_repr(runner, cache_copy, tmp_path):
    out = tmp_path / "cal"
    result = runner.invoke(
        main,
        ["calibrate", "--cache", str(cache_copy), "--out", str(out), "--n-cal", "100",
         "--seed", "0"],
    )
    assert result.exit_code == 0, result.output
    assert (out / "model_config.txt").read_text(encoding="utf-8") == CALIBRATED_SEED_0


def test_calibrate_off_grid_official_is_data_error(runner, tmp_path):
    cache = tmp_path / "cache.jsonl"
    write_cache(
        [make_record(cve_id="CVE-2024-00001", official=9.8),
         make_record(cve_id="CVE-2024-00002", official=7.25)],
        cache,
    )
    result = runner.invoke(
        main, ["calibrate", "--cache", str(cache), "--out", str(tmp_path / "o"), "--n-cal", "2"]
    )
    assert result.exit_code == 3
    assert "CVE-2024-00002: official score 7.25 is not on the 0.1 grid" in result.output


# Per command: the arguments of a first run that fills the output directory,
# and those of the run whose write fails.
WRITE_RUNS = {
    "calibrate": (
        ["calibrate", "--n-cal", "50", "--grid-step", "0.25", "--seed", "1"],
        ["calibrate", "--n-cal", "50", "--grid-step", "0.25", "--seed", "2"],
    ),
    "score": (["score"], ["score", "--baseline", "uniform"]),
    "analyze": (["analyze", "--seed", "1"], ["analyze", "--seed", "2"]),
    "report": (["analyze"], ["report"]),
    "ingest": (["ingest"], ["ingest"]),
}


def _invoke_into(runner, words, cache, out):
    """Run a command on ``cache`` with its output in the directory ``out``."""
    name, *rest = words
    if name == "ingest":
        where = ["--window", "2024-01-01..2024-01-15", "--out-cache", str(out / "c.jsonl")]
    elif name == "report":
        where = ["--bundle", str(out)]
    else:
        where = ["--cache", str(cache), "--out", str(out)]
    return runner.invoke(main, [name, *where, *rest])


@pytest.mark.parametrize("command", list(WRITE_RUNS))
def test_write_failure_leaves_no_partial_file(runner, cache_copy, tmp_path, monkeypatch, command):
    page = page_payload([api_item("CVE-2024-0001")], 1)
    monkeypatch.setattr(
        cli_module,
        "fetch_window",
        lambda w: fetch_window(
            w, session=FakeSession([FakeResponse(payload=page)]), rate_limiter=RateLimiter(100, 30.0)
        ),
    )
    first, second = WRITE_RUNS[command]
    kept, fresh = tmp_path / "kept", tmp_path / "fresh"
    kept.mkdir()
    fresh.mkdir()
    assert _invoke_into(runner, first, cache_copy, kept).exit_code == 0
    if command == "report":  # the rewrite would otherwise give the same bytes
        (kept / "executive_summary.txt").write_text("old summary\n", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in kept.iterdir()}

    def no_space(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("os.fsync", no_space)  # fails after the temp file has its text
    # ``report`` re-renders a bundle, so it has no run into an empty directory.
    cases = [(kept, before)] if command == "report" else [(fresh, {}), (kept, before)]
    for out, files in cases:
        result = _invoke_into(runner, second, cache_copy, out)
        assert result.exit_code == 5, result.output
        assert "No space left on device" in result.output
        assert {p.name: p.read_bytes() for p in out.iterdir()} == files  # no temp file either


def test_score_failure_midway_through_the_rows_keeps_the_old_scores(
    runner, cache_copy, tmp_path, monkeypatch
):
    args = ["score", "--cache", str(cache_copy), "--out", str(tmp_path)]
    assert runner.invoke(main, args).exit_code == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def three_rows_then_failure(scored):
        lines = score_rows(scored)

        def render():
            yield from itertools.islice(lines, 3)
            raise OSError(errno.EIO, "Input/output error")

        return CsvLines(len(lines), render)

    monkeypatch.setattr(cli_module, "score_rows", three_rows_then_failure)
    result = runner.invoke(main, [*args, "--baseline", "uniform"])
    assert result.exit_code == 5, result.output
    assert "Input/output error" in result.output
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_calibrate_non_finite_grid_step(runner, cache_copy, tmp_path, step):
    result = runner.invoke(
        main,
        ["calibrate", "--cache", str(cache_copy), "--out", str(tmp_path),
         "--n-cal", "50", "--grid-step", step],
    )
    assert result.exit_code == 3, result.output
    assert "does not divide 1 evenly" in result.output


def test_score_non_finite_config_value(runner, cache_copy, tmp_path):
    cfg = tmp_path / "weights.txt"
    cfg.write_text("kappa = inf\n", encoding="utf-8")
    result = runner.invoke(
        main,
        ["score", "--cache", str(cache_copy), "--config", str(cfg), "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 3, result.output
    assert "kappa must be finite" in result.output


def test_analyze_bad_config_file(runner, cache_copy, tmp_path):
    bad = tmp_path / "weights.txt"
    bad.write_text("alpha = banana\n", encoding="utf-8")
    result = runner.invoke(
        main,
        ["analyze", "--cache", str(cache_copy), "--config", str(bad), "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 3
    assert "bad config" in result.output


def test_analyze_missing_exclude_file(runner, cache_copy, tmp_path):
    result = runner.invoke(
        main,
        ["analyze", "--cache", str(cache_copy), "--exclude-ids", str(tmp_path / "none.txt"),
         "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 5


def test_exclude_file_with_a_byte_order_mark_excludes_its_first_id(runner, cache_copy, tmp_path):
    ids = tmp_path / "ids.txt"
    ids.write_text("\ufeffCVE-2024-10000\nCVE-2024-10001\n", encoding="utf-8")
    out = tmp_path / "o"
    result = runner.invoke(
        main, ["analyze", "--cache", str(cache_copy), "--exclude-ids", str(ids), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert json.loads((out / "summary.json").read_text(encoding="utf-8"))["dataset"][
        "records_excluded"
    ] == 2
    scores = (out / "model_scores.csv").read_text(encoding="utf-8")
    assert "CVE-2024-10000," not in scores and "CVE-2024-10001," not in scores


def test_exclude_file_line_that_is_not_an_id_is_data_error(runner, cache_copy, tmp_path):
    ids = tmp_path / "ids.txt"
    ids.write_text("CVE-2024-10000\n\n  CVE-2024-1000l  \n", encoding="utf-8")
    result = runner.invoke(
        main,
        ["analyze", "--cache", str(cache_copy), "--exclude-ids", str(ids),
         "--out", str(tmp_path / "o")],
    )
    assert result.exit_code == 3, result.output
    assert f"error: bad id file {ids}: line 3: 'CVE-2024-1000l' is not a CVE id" in result.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    ("args", "code", "message"),
    [
        (["analyze", "--config", "{tmp}/missing.txt"], 5, "config not found"),
        (["analyze", "--exclude-ids", "{tmp}/ids.txt"], 3, "is not a CVE id"),
        (["score", "--config", "x", "--baseline", "uniform"], 2, "mutually exclusive"),
    ],
    ids=["missing-config", "bad-id-file", "config-and-baseline"],
)
def test_option_files_are_checked_before_the_cache_is_read(
    runner, cache_copy, tmp_path, monkeypatch, args, code, message
):
    (tmp_path / "ids.txt").write_text("CVE-2024-10000\nnot an id\n", encoding="utf-8")

    def unread(*args, **kwargs):
        raise AssertionError("the cache was read")

    monkeypatch.setattr(cli_module, "load_cache", unread)
    args = [arg.format(tmp=tmp_path) for arg in args]
    result = runner.invoke(main, [*args, "--cache", str(cache_copy), "--out", str(tmp_path / "o")])
    assert result.exit_code == code, result.output
    assert message in result.output


_OPENED: list | None = None  # what the audit hook below records, while a test wants it
_HOOKED = False


def _record_opens(event, args):
    if event == "open" and _OPENED is not None:
        _OPENED.append(args[0])


@pytest.fixture()
def opened():
    """Every path the process opens while the test runs, however it is
    opened: the ``open`` audit event is raised by ``open``, ``Path.open``
    and ``os.open`` alike. An audit hook cannot be removed, so it is added
    once and records only while this fixture is active."""
    global _OPENED, _HOOKED
    if not _HOOKED:
        sys.addaudithook(_record_opens)
        _HOOKED = True
    _OPENED = []
    try:
        yield _OPENED
    finally:
        _OPENED = None


@pytest.mark.parametrize(
    "command", [["analyze"], ["score"], ["calibrate", "--n-cal", "100"]], ids=lambda c: c[0]
)
def test_each_command_opens_its_cache_once(runner, cache_copy, tmp_path, opened, command):
    result = runner.invoke(main, [*command, "--cache", str(cache_copy), "--out", str(tmp_path / "o")])
    assert result.exit_code == 0, result.output
    cache_opens = [p for p in opened if isinstance(p, (str, os.PathLike)) and Path(p) == cache_copy]
    assert len(cache_opens) == 1


def test_provenance_hashes_the_bytes_that_were_analyzed(runner, cache_copy, tmp_path, monkeypatch):
    """The cache is replaced, as ``ingest`` replaces it, while ``analyze``
    reads its last record line: ``dataset_sha256`` still names the body
    that was analyzed, not the file found at the path afterwards."""
    body = cache_copy.read_bytes().split(b"\n", 1)[1]
    replacement = write_cache(list(read_cache(cache_copy))[:-1], tmp_path / "new.jsonl")
    real, lines = cache_module.record_fields, body.count(b"\n")
    seen = []

    def replacing(data):
        seen.append(data)
        if len(seen) == lines:
            os.replace(replacement, cache_copy)
        return real(data)

    monkeypatch.setattr(cache_module, "record_fields", replacing)
    out = tmp_path / "bundle"
    result = runner.invoke(main, ["analyze", "--cache", str(cache_copy), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(seen) == lines and not replacement.exists()
    provenance = json.loads((out / "summary.json").read_text(encoding="utf-8"))["provenance"]
    assert provenance["dataset_sha256"] == hashlib.sha256(body).hexdigest()


def test_analyze_format_choice_is_validated(runner, cache_copy, tmp_path):
    result = runner.invoke(
        main,
        ["analyze", "--cache", str(cache_copy), "--out", str(tmp_path / "o"), "--format", "yaml"],
    )
    assert result.exit_code == 2


def test_report_on_missing_bundle(runner, tmp_path):
    result = runner.invoke(main, ["report", "--bundle", str(tmp_path / "ghost")])
    assert result.exit_code == 5
    assert f"error: summary not found: {tmp_path / 'ghost' / 'summary.json'}" in result.output


def test_report_detects_missing_tables(runner, cache_copy, tmp_path):
    out_dir = tmp_path / "bundle"
    assert runner.invoke(
        main, ["analyze", "--cache", str(cache_copy), "--out", str(out_dir)]
    ).exit_code == 0
    (out_dir / "ecdf.csv").unlink()
    result = runner.invoke(main, ["report", "--bundle", str(out_dir)])
    assert result.exit_code == 3
    assert "ecdf" in result.output


def _cut_mid_row(text):
    return text[: len(text) - 7]


def _drop_last_row(text):
    return text[: text.rstrip("\n").rfind("\n") + 1]


def _drop_a_cell(text):
    lines = text.splitlines(keepends=True)
    lines[1] = lines[1].split(",", 1)[1]
    return "".join(lines)


def _swap_two_rows(text):
    lines = text.splitlines(keepends=True)
    lines[1], lines[2] = lines[2], lines[1]
    return "".join(lines)


def _repeat_an_id(text):
    lines = text.splitlines(keepends=True)
    lines[2] = lines[1].split(",", 1)[0] + "," + lines[2].split(",", 1)[1]
    return "".join(lines)


def _add_one_to_a_count(text):
    lines = text.splitlines(keepends=True)
    label, count, share = lines[1].rsplit(",", 2)
    lines[1] = f"{label},{int(count) + 1},{share}"
    return "".join(lines)


@pytest.mark.parametrize(
    ("table", "cut", "message"),
    [
        ("model_scores", _cut_mid_row, "does not end with a newline"),
        ("model_scores", _drop_last_row, "the summary says"),
        ("joint_risk", _drop_last_row, "the summary says"),
        ("skip_report", _drop_last_row, "the summary says"),
        ("ecdf", _cut_mid_row, "does not end with a newline"),
        ("correlation_matrix", _drop_a_cell, "row 2 has 9 cells, its header 10"),
        ("severity_mix", lambda text: "", "does not end with a newline"),
        ("severity_histogram", _drop_last_row, "the summary says"),
        ("model_scores", _swap_two_rows, "ids are not strictly increasing"),
        ("joint_risk", _repeat_an_id, "ids are not strictly increasing"),
        ("severity_histogram", _add_one_to_a_count, "counts sum to 191"),
    ],
    ids=[
        "cut", "short", "joint-short", "skips-short", "ecdf-cut", "narrow-row", "empty",
        "histogram-short", "unsorted-ids", "repeated-id", "histogram-sum",
    ],
)
def test_report_rejects_a_truncated_csv(runner, cache_copy, tmp_path, table, cut, message):
    out_dir = tmp_path / "bundle"
    assert runner.invoke(
        main, ["analyze", "--cache", str(cache_copy), "--out", str(out_dir)]
    ).exit_code == 0
    assert runner.invoke(main, ["report", "--bundle", str(out_dir)]).exit_code == 0
    path = out_dir / f"{table}.csv"
    path.write_text(cut(path.read_text(encoding="utf-8")), encoding="utf-8")
    result = runner.invoke(main, ["report", "--bundle", str(out_dir)])
    assert result.exit_code == 3, result.output
    assert f"{table}.csv" in result.output and message in result.output


@pytest.mark.parametrize(
    "edit",
    [
        lambda summary: [],
        lambda summary: {"tables": 5},
        lambda summary: {**summary, "official_score": {**summary["official_score"], "mean": "x"}},
    ],
    ids=["list", "tables-not-a-list", "string-for-a-number"],
)
def test_report_rejects_a_summary_of_the_wrong_shape(runner, cache_copy, tmp_path, edit):
    out_dir = tmp_path / "bundle"
    assert runner.invoke(
        main, ["analyze", "--cache", str(cache_copy), "--out", str(out_dir)]
    ).exit_code == 0
    path = out_dir / "summary.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text(encoding="utf-8")))), encoding="utf-8")
    result = runner.invoke(main, ["report", "--bundle", str(out_dir)])
    assert result.exit_code == 3, result.output
    assert f"error: bad summary {path}: " in result.output


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_report_rejects_a_summary_number_that_is_not_json(runner, fixture_bundle, tmp_path, constant):
    """Python's JSON reader takes NaN and infinities; ``report`` does not,
    as ``write_bundle`` never writes them."""
    bundle = tmp_path / "bundle"
    shutil.copytree(fixture_bundle, bundle)
    path = bundle / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["official_score"]["mean"] = float(constant)  # json.dumps writes the token back
    path.write_text(json.dumps(summary), encoding="utf-8")
    result = runner.invoke(main, ["report", "--bundle", str(bundle)])
    assert result.exit_code == 3, result.output
    assert result.output == f"error: bad summary {path}: {constant} is not valid JSON\n"


def _set_count(summary, key, value):
    target = summary["dataset"]["skip_reasons"] if key == "no official score" else summary["dataset"]
    target[key] = value


@pytest.mark.parametrize(
    ("key", "value", "message"),
    [
        ("records_in_cache", -5, "summary count 'records_in_cache' is -5, not an integer >= 0"),
        ("records_excluded", 1.0, "summary count 'records_excluded' is 1.0, not an integer >= 0"),
        ("records_scored", True, "summary count 'records_scored' is True, not an integer >= 0"),
        ("no official score", "3", "summary count 'no official score' is '3', not an integer >= 0"),
        ("records_in_cache", 201,
         "summary records_in_cache is 201, but excluded + analyzed + skipped is 200"),
        ("records_excluded", 1,
         "summary records_in_cache is 200, but excluded + analyzed + skipped is 201"),
        ("no official score", 4, "summary records_skipped is 10, but the sum of skip_reasons is 11"),
        ("records_scored", 192, "summary records_scored is 192, but analyzed + no official score is 193"),
    ],
    ids=["negative", "float", "bool", "string-reason", "cache-over", "excluded-over", "reasons-over",
         "scored-under"],
)
def test_report_rejects_dataset_counts_that_do_not_add_up(runner, fixture_bundle, tmp_path, key, value,
                                                          message):
    bundle = tmp_path / "bundle"
    shutil.copytree(fixture_bundle, bundle)
    path = bundle / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    _set_count(summary, key, value)
    path.write_text(json.dumps(summary), encoding="utf-8")
    result = runner.invoke(main, ["report", "--bundle", str(bundle)])
    assert result.exit_code == 3, result.output
    assert result.output == f"error: bad bundle {bundle}: {message}\n"


def _analyzed_bundle(runner, cache, out_dir):
    assert runner.invoke(main, ["analyze", "--cache", str(cache), "--out", str(out_dir)]).exit_code == 0
    assert runner.invoke(main, ["report", "--bundle", str(out_dir)]).exit_code == 0
    return out_dir


def _non_utf8(data: bytes) -> bytes:
    return data + b"\xff\n"


def _count_not_an_integer(data: bytes) -> bytes:
    header, first, rest = data.split(b"\n", 2)
    label, _, share = first.rsplit(b",", 2)
    return b"\n".join([header, label + b",many," + share, rest])


def _rename_the_id_column(data: bytes) -> bytes:
    return data.replace(b"cve_id,", b"cve,", 1)


@pytest.mark.parametrize(
    ("table", "edit", "message"),
    [
        ("ecdf", _non_utf8, "ecdf.csv is not a UTF-8 CSV file"),
        ("severity_histogram", _count_not_an_integer,
         "severity_histogram.csv has a count that is not an integer"),
        ("model_scores", _rename_the_id_column, "model_scores.csv has no 'cve_id' column"),
        ("joint_risk", _rename_the_id_column, "joint_risk.csv has no 'cve_id' column"),
    ],
    ids=["not-utf8", "count-not-int", "scores-no-id", "joint-no-id"],
)
def test_report_rejects_a_table_it_cannot_check(runner, cache_copy, tmp_path, table, edit, message):
    out_dir = _analyzed_bundle(runner, cache_copy, tmp_path / "bundle")
    path = out_dir / f"{table}.csv"
    path.write_bytes(edit(path.read_bytes()))
    result = runner.invoke(main, ["report", "--bundle", str(out_dir)])
    assert result.exit_code == 3, result.output
    assert message in result.output


def test_report_on_an_unreadable_table_is_io_error(runner, cache_copy, tmp_path, monkeypatch):
    out_dir = _analyzed_bundle(runner, cache_copy, tmp_path / "bundle")
    real_read_bytes = Path.read_bytes

    def eio(self):
        if self == out_dir / "ecdf.csv":
            raise OSError(errno.EIO, "Input/output error")
        return real_read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", eio)
    result = runner.invoke(main, ["report", "--bundle", str(out_dir)])
    assert result.exit_code == 5, result.output
    assert f"error: cannot read bundle {out_dir}: " in result.output
    assert "Input/output error" in result.output


NO_IMPACT = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N"


@pytest.mark.parametrize(("command", "table"), [("score", "scores"), ("analyze", "model_scores")])
def test_a_no_impact_vector_has_a_composite_of_zero_not_minus_zero(runner, tmp_path, command, table):
    """Rounding a product of 0 up to the grid is ``ceil(-1e-9)``, which numpy
    gives as -0.0; the cell must read 0.0, as the scalar rounding gives."""
    cache = tmp_path / "cache.jsonl"
    write_cache(
        [make_record(cve_id="CVE-2024-00001", vector=NO_IMPACT, official=0.0),
         make_record(cve_id="CVE-2024-00002")],
        cache,
    )
    out_dir = tmp_path / "out"
    result = runner.invoke(main, [command, "--cache", str(cache), "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    with open(out_dir / f"{table}.csv", encoding="utf-8", newline="") as f:
        rows = {row["cve_id"]: row for row in csv.DictReader(f)}
    assert rows["CVE-2024-00001"]["impact_score"] == "0.0"
    assert rows["CVE-2024-00001"]["composite_score"] == "0.0"
    assert rows["CVE-2024-00001"]["severity"] == "Low"


@pytest.mark.parametrize(
    ("command", "records", "message"),
    [
        ("score", [make_record(vector=None), make_record(cve_id="CVE-2024-00002", vector="x")],
         "no record in the cache could be scored"),
        ("analyze --exclude-ids", [make_record()], "no records to analyze after exclusions"),
        ("analyze", [make_record(official=None), make_record(cve_id="CVE-2024-00002", vector=None)],
         "no record has both a parseable vector and an official score"),
    ],
    ids=["score-nothing-scoreable", "analyze-all-excluded", "analyze-nothing-usable"],
)
def test_a_cache_with_nothing_to_use_is_data_error(runner, tmp_path, command, records, message):
    cache = write_cache(records, tmp_path / "cache.jsonl")
    ids = tmp_path / "ids.txt"
    ids.write_text("".join(f"{r.cve_id}\n" for r in records), encoding="utf-8")
    args = [*command.split(), *([str(ids)] if "--exclude-ids" in command else [])]
    result = runner.invoke(main, [*args, "--cache", str(cache), "--out", str(tmp_path / "o")])
    assert result.exit_code == 3, result.output
    assert f"error: {message}" in result.output
    assert not (tmp_path / "o").exists()


# --- ingest (network layer monkeypatched) -----------------------------------


def test_ingest_writes_cache(runner, tmp_path, monkeypatch):
    captured = {}

    def fake_fetch(window, **kwargs):
        captured["window"] = window
        return [make_record(cve_id=f"CVE-2024-{40000 + k}") for k in range(3)]

    monkeypatch.setattr(cli_module, "fetch_window", fake_fetch)
    out = tmp_path / "jan.jsonl"
    result = runner.invoke(
        main, ["ingest", "--window", "2024-01-01..2024-01-15", "--out-cache", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert "wrote 3 records" in result.output
    assert out.exists()
    window = captured["window"]
    assert window.start.isoformat() == "2024-01-01T00:00:00+00:00"
    # END is a bare date, so the window runs through the end of that day
    assert window.end.isoformat() == "2024-01-15T23:59:59.999999+00:00"


def test_ingest_passes_api_key_from_environment(runner, tmp_path, monkeypatch):
    captured = {}
    monkeypatch.setattr(
        cli_module, "fetch_window", lambda w, **k: captured.setdefault("window", w) and []
    )
    monkeypatch.setenv("NVD_API_KEY", "sekrit")
    runner.invoke(
        main,
        ["ingest", "--window", "2024-01-01..2024-01-02", "--out-cache", str(tmp_path / "c.jsonl")],
    )
    assert captured["window"].api_key == "sekrit"


def test_ingest_network_failure_exit_code(runner, tmp_path, monkeypatch):
    def fake_fetch(window, **kwargs):
        raise NetworkError(0, 5, "HTTP 503")

    monkeypatch.setattr(cli_module, "fetch_window", fake_fetch)
    result = runner.invoke(
        main,
        ["ingest", "--window", "2024-01-01..2024-01-15", "--out-cache", str(tmp_path / "c.jsonl")],
    )
    assert result.exit_code == 4
    assert "HTTP 503" in result.output


@pytest.mark.parametrize(
    "field, value",
    [("id", "CVE-24-1"), ("id", "CVE-\uff12\uff10\uff12\uff14-0001"), ("published", "yesterday")],
    ids=["id", "id-non-ascii-digits", "published"],
)
def test_ingest_api_item_that_breaks_the_record_contract(runner, tmp_path, monkeypatch, field, value):
    item = api_item("CVE-2024-0001")
    item["cve"][field] = value
    session = FakeSession([FakeResponse(payload=page_payload([item], 1))])
    monkeypatch.setattr(
        cli_module,
        "fetch_window",
        lambda w: fetch_window(w, session=session, rate_limiter=RateLimiter(100, 30.0)),
    )
    out = tmp_path / "c.jsonl"
    result = runner.invoke(main, ["ingest", "--window", "2024-01-01..2024-01-15", "--out-cache", str(out)])
    assert result.exit_code == 4, result.output
    assert result.output.count("error:") == 1
    assert repr(item["cve"]["id"]) in result.output and value in result.output
    assert not out.exists()


def test_ingest_description_with_a_lone_surrogate_is_an_api_error(runner, tmp_path, monkeypatch):
    """UTF-8 cannot encode the text, so the record breaks its contract and
    no cache is written, where the write used to fail with a traceback."""
    item = api_item("CVE-2024-0001")
    item["cve"]["descriptions"] = [{"lang": "en", "value": "bad \ud800 text"}]
    session = FakeSession([FakeResponse(payload=page_payload([item], 1))])
    monkeypatch.setattr(
        cli_module,
        "fetch_window",
        lambda w: fetch_window(w, session=session, rate_limiter=RateLimiter(100, 30.0)),
    )
    out = tmp_path / "c.jsonl"
    result = runner.invoke(main, ["ingest", "--window", "2024-01-01..2024-01-15", "--out-cache", str(out)])
    assert result.exit_code == 4, result.output
    assert result.output.count("error:") == 1
    assert "'CVE-2024-0001': CVE-2024-0001: description holds '\\ud800'" in result.output
    assert "Traceback" not in result.output
    assert list(tmp_path.iterdir()) == []


def test_ingest_api_entry_that_is_not_an_object(runner, tmp_path, monkeypatch):
    item = api_item("CVE-2024-0001")
    item["cve"]["configurations"] = [{"nodes": ["x"]}]
    session = FakeSession([FakeResponse(payload=page_payload([api_item("CVE-2024-0002"), item], 2))])
    monkeypatch.setattr(
        cli_module,
        "fetch_window",
        lambda w: fetch_window(w, session=session, rate_limiter=RateLimiter(100, 30.0)),
    )
    out = tmp_path / "c.jsonl"
    result = runner.invoke(main, ["ingest", "--window", "2024-01-01..2024-01-15", "--out-cache", str(out)])
    assert result.exit_code == 4, result.output
    assert result.output.count("error:") == 1
    assert "'configurations[].nodes[]'" in result.output
    assert not out.exists()


def test_ingest_page_of_the_wrong_shape(runner, tmp_path, monkeypatch):
    session = FakeSession([FakeResponse(payload={"totalResults": "many"})])
    monkeypatch.setattr(
        cli_module,
        "fetch_window",
        lambda w: fetch_window(w, session=session, rate_limiter=RateLimiter(100, 30.0)),
    )
    out = tmp_path / "c.jsonl"
    result = runner.invoke(main, ["ingest", "--window", "2024-01-01..2024-01-15", "--out-cache", str(out)])
    assert result.exit_code == 4, result.output
    assert result.output.count("error:") == 1
    assert "non-integer at 'totalResults'" in result.output
    assert not out.exists()


class _BodyResponse(FakeResponse):
    """A 200 response that parses its body, bytes, on ``json()``."""

    def json(self):
        return json.loads(self._payload)


_ITEM = ("vulnerabilities", 1, "cve")
_METRIC = (*_ITEM, "metrics", "cvssMetricV31", 0)
# Fields of an API page: its own, and those of its second item that ``extract_record`` reads.
_PAGE_FIELDS = [
    ("totalResults",), ("vulnerabilities",), _ITEM,
    *((*_ITEM, key) for key in ("id", "published", "descriptions", "metrics", "configurations")),
    (*_ITEM, "descriptions", 0, "lang"), (*_ITEM, "descriptions", 0, "value"), (*_METRIC, "type"),
    (*_METRIC, "cvssData"), (*_METRIC, "cvssData", "baseScore"), (*_METRIC, "cvssData", "vectorString"),
]


@settings(settings.get_profile("bounded-commands"))
@given(field=st.sampled_from(_PAGE_FIELDS), edit=_HOSTILE_EDITS)
def test_a_hostile_api_field_yields_a_record_or_an_api_error(tmp_path_factory, field, edit):
    """A field of a two-item API page, edited as a cache line is above.
    ``extract_record`` returns a record or raises ``NvdError`` on each item
    of the page, and ``ingest`` exits 0 or 4 with at most one error line."""
    what = (field, edit[0], str(edit[1])[:20])
    page = json.dumps(page_payload([api_item("CVE-2024-0001"), api_item("CVE-2024-0002")], 2)).encode()
    body = _edit_line(page, field, *edit)
    try:
        items = json.loads(body).get("vulnerabilities")
    except (ValueError, RecursionError):  # not JSON: the client retries, then gives up
        items = None
    for item in items if isinstance(items, list) else []:
        with contextlib.suppress(NvdError):
            assert isinstance(extract_record(item), CveRecord), what
    # A page that claims more records than it holds is followed by an empty one.
    session = FakeSession([_BodyResponse(payload=body), FakeResponse(payload=page_payload([], 2))])
    out = tmp_path_factory.mktemp("ingest") / "c.jsonl"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli_module, "fetch_window", lambda w: fetch_window(
            w, session=session, rate_limiter=RateLimiter(100, 30.0), max_attempts=1))
        result = CliRunner().invoke(
            main, ["ingest", "--window", "2024-01-01..2024-01-15", "--out-cache", str(out)]
        )
    assert result.exit_code in (0, 4), (what, result.output, result.exception)
    assert result.output.count("error:") <= 1, (what, result.output)


def test_ingest_window_that_lists_one_id_twice(runner, tmp_path, monkeypatch):
    items = [api_item("CVE-2024-0001"), api_item("CVE-2024-0002"), api_item("CVE-2024-0001")]
    session = FakeSession([FakeResponse(payload=page_payload(items[:2], 3)),
                           FakeResponse(payload=page_payload(items[2:], 3))])
    monkeypatch.setattr(
        cli_module,
        "fetch_window",
        lambda w: fetch_window(w, session=session, rate_limiter=RateLimiter(100, 30.0)),
    )
    out = tmp_path / "c.jsonl"
    result = runner.invoke(main, ["ingest", "--window", "2024-01-01..2024-01-15", "--out-cache", str(out)])
    assert result.exit_code == 4, result.output
    assert result.output.count("error:") == 1
    assert "CVE-2024-0001 more than once" in result.output
    assert "Traceback" not in result.output
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_ingest_rejects_oversized_window(runner, tmp_path):
    for window, extra, message in (
        ("2024-01-01..2024-12-31", [], "120 days"),
        ("2024-02-01..2024-01-01", [], "window start must precede end"),
        ("2024-01-01..2024-01-15", ["--page-size", "0"], "page_size must lie in [1, 2000]"),
        ("2024-01-01..2024-01-15", ["--page-size", "2001"], "page_size must lie in [1, 2000]"),
    ):
        result = runner.invoke(
            main, ["ingest", "--window", window, "--out-cache", str(tmp_path / "c.jsonl"), *extra]
        )
        assert result.exit_code == 2, (window, extra)
        assert message in result.output


def test_ingest_rejects_malformed_window(runner, tmp_path):
    for bad in ("2024-01-01", "2024-01-01..not-a-date", "..2024-01-05"):
        result = runner.invoke(
            main, ["ingest", "--window", bad, "--out-cache", str(tmp_path / "c.jsonl")]
        )
        assert result.exit_code == 2, bad
