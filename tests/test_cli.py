"""End-to-end CLI runs against the packaged sample cache, plus exit-code
contracts for the usual failure modes."""

import errno
import json
import random
import shutil

import pytest
from click.testing import CliRunner

import cverisk.cli as cli_module
from cverisk import __version__
from cverisk.cache import read_cache, write_cache
from cverisk.cli import main
from cverisk.model import ScoringError, score_record
from cverisk.nvd import NetworkError

from conftest import SAMPLE_CACHE, make_record


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


def _bundle_without_dataset_hash(out_dir):
    return {
        p.name: [line for line in p.read_bytes().splitlines() if b"dataset_sha256" not in line]
        for p in out_dir.iterdir()
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_analyze_ignores_the_cache_line_order(runner, tmp_path, seed):
    header, *lines = SAMPLE_CACHE.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text(header + "".join(lines), encoding="utf-8")
    bundles = []
    for name, cache in (("plain", SAMPLE_CACHE), ("shuffled", shuffled)):
        out_dir = tmp_path / name
        result = runner.invoke(
            main, ["analyze", "--cache", str(cache), "--lenient", "--out", str(out_dir)]
        )
        assert result.exit_code == 0, result.output
        bundles.append(_bundle_without_dataset_hash(out_dir))
    assert bundles[0] == bundles[1]


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


@pytest.mark.parametrize(
    "command", [["score"], ["analyze"], ["calibrate", "--n-cal", "100"]], ids=lambda c: c[0]
)
@pytest.mark.parametrize("value", [5, ["CVSS:3.1"]], ids=["number", "list"])
def test_non_string_vector_is_a_corrupt_cache_line(runner, cache_copy, tmp_path, command, value):
    lines = cache_copy.read_text(encoding="utf-8").splitlines(keepends=True)
    data = json.loads(lines[5])
    data["vector_string"] = value
    lines[5] = json.dumps(data, sort_keys=True) + "\n"
    cache_copy.write_text("".join(lines), encoding="utf-8")
    args = [*command, "--cache", str(cache_copy)]
    strict = runner.invoke(main, [*args, "--out", str(tmp_path / "strict")])
    assert strict.exit_code == 3, strict.output
    assert "line 6" in strict.output
    lenient = runner.invoke(main, [*args, "--lenient", "--out", str(tmp_path / "lenient")])
    assert lenient.exit_code == 0, lenient.output


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


def test_non_utf8_cache_header_is_data_error(runner, cache_copy, tmp_path):
    _append_bad_byte(cache_copy, 0)
    for mode in ("--strict", "--lenient"):
        result = runner.invoke(
            main, ["score", "--cache", str(cache_copy), mode, "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 3, result.output
        assert "line 1" in result.output


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


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("lenient", [False, True])
def test_calibration_sample_draws_from_the_id_sorted_pool(seed, lenient):
    records = read_cache(SAMPLE_CACHE)
    pool = []
    for record in sorted(records, key=lambda r: r.cve_id):
        try:
            sr = score_record(record, lenient=lenient)
        except ScoringError:
            continue
        if record.official_score is not None:
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


def test_calibrate_write_failure_leaves_no_partial_file(runner, cache_copy, tmp_path, monkeypatch):
    args = ["calibrate", "--cache", str(cache_copy), "--n-cal", "50", "--grid-step", "0.25"]
    kept = tmp_path / "kept"
    assert runner.invoke(main, [*args, "--seed", "1", "--out", str(kept)]).exit_code == 0
    before = {p.name: p.read_bytes() for p in kept.iterdir()}

    def no_space(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("os.fsync", no_space)  # fails after the temp file has its text
    fresh = tmp_path / "fresh"
    for out, files in ((fresh, {}), (kept, before)):
        result = runner.invoke(main, [*args, "--seed", "2", "--out", str(out)])
        assert result.exit_code == 5
        assert "No space left on device" in result.output
        assert {p.name: p.read_bytes() for p in out.iterdir()} == files


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


def test_analyze_format_choice_is_validated(runner, cache_copy, tmp_path):
    result = runner.invoke(
        main,
        ["analyze", "--cache", str(cache_copy), "--out", str(tmp_path / "o"), "--format", "yaml"],
    )
    assert result.exit_code == 2


def test_report_on_missing_bundle(runner, tmp_path):
    result = runner.invoke(main, ["report", "--bundle", str(tmp_path / "ghost")])
    assert result.exit_code == 5
    assert "no summary.json" in result.output


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
    ],
    ids=[
        "cut", "short", "joint-short", "skips-short", "ecdf-cut", "narrow-row", "empty",
        "histogram-short",
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
    assert "summary.json is malformed" in result.output


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


def test_ingest_rejects_oversized_window(runner, tmp_path):
    result = runner.invoke(
        main,
        ["ingest", "--window", "2024-01-01..2024-12-31", "--out-cache", str(tmp_path / "c.jsonl")],
    )
    assert result.exit_code == 2
    assert "120 days" in result.output


def test_ingest_rejects_malformed_window(runner, tmp_path):
    for bad in ("2024-01-01", "2024-01-01..not-a-date", "..2024-01-05"):
        result = runner.invoke(
            main, ["ingest", "--window", bad, "--out-cache", str(tmp_path / "c.jsonl")]
        )
        assert result.exit_code == 2, bad
