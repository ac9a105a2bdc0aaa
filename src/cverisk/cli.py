"""Command line front end: ingest, calibrate, score, analyze, report."""

from __future__ import annotations

import contextlib
import json
import logging
import os
import random
import sys
from datetime import datetime, timedelta
from pathlib import Path

import click

from . import __version__
from .cache import Cache, CacheError, DuplicateIdError, load_cache, write_cache
from .calibration import (
    BadGridStepError,
    EmptyCalibrationSetError,
    OffGridError,
    calibrate_weights,
    uniform_weights,
)
from .config import ConfigError, load_config, save_config, write_atomic
from .model import ModelConfig, ScoredBatch, score_records
from .nvd import IngestWindow, NvdError, fetch_window
from .records import CVE_ID_PATTERN
from .report import (
    SCORE_HEADER,
    EmptyDatasetError,
    UnscoreableAllError,
    build_bundle,
    check_bundle,
    render_executive_summary,
    score_rows,
    write_bundle,
    write_csv,
)

EXIT_DATA = 3
EXIT_NETWORK = 4
EXIT_IO = 5


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _reading(what: str, path, bad):
    """Exit on a failure to read input ``path``, a file or a bundle: 5 if it
    is missing or unreadable, 3 if it is not UTF-8 or its content raises ``bad``."""
    try:
        yield
    except FileNotFoundError:
        _fail(EXIT_IO, f"{what} not found: {path}")
    except UnicodeDecodeError as exc:
        _fail(EXIT_DATA, f"{what} {path} is not UTF-8: {exc}")
    except bad as exc:
        _fail(EXIT_DATA, f"bad {what} {path}: {exc}")
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read {what} {path}: {exc}")


@contextlib.contextmanager
def _writing(target):
    """Exit 5 on a failure to write output to ``target``."""
    try:
        yield
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write to {target}: {exc}")


def _parse_window(text: str) -> tuple[datetime, datetime]:
    """Parse START..END (dates or ISO timestamps); a bare END date means
    the whole of that day. IngestWindow reads naive times as UTC."""
    try:
        start_text, _, end_text = text.partition("..")
        if not _:
            raise ValueError("expected START..END")
        start = datetime.fromisoformat(start_text.strip())
        end_text = end_text.strip()
        end = datetime.fromisoformat(end_text)
        if "T" not in end_text and " " not in end_text:
            end = end + timedelta(days=1) - timedelta(microseconds=1)
    except ValueError as exc:
        raise click.UsageError(f"bad --window {text!r}: {exc}") from exc
    return start, end


def _read_cache_or_fail(path: str, lenient: bool) -> Cache:
    with _reading("cache", path, CacheError):
        return load_cache(path, lenient=lenient)


def _load_model_config(config_path: str | None, baseline: str | None) -> ModelConfig:
    if config_path and baseline:
        raise click.UsageError("--config and --baseline are mutually exclusive")
    if baseline:
        if baseline != "uniform":
            raise click.UsageError(f"unknown baseline {baseline!r}")
        return ModelConfig(weights=uniform_weights())
    if config_path:
        with _reading("config", config_path, ConfigError):
            return load_config(config_path)
    return ModelConfig()


@click.group()
@click.version_option(__version__, prog_name="cverisk")
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool):
    """Risk scoring and reporting for CVE data."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@click.option("--window", required=True, help="Publication window, START..END (END inclusive).")
@click.option("--out-cache", required=True, type=click.Path(dir_okay=False), help="Cache file to write.")
@click.option("--api-key-env", default="NVD_API_KEY", show_default=True,
              help="Environment variable holding the API key.")
@click.option("--page-size", default=2000, show_default=True, help="Records per request page.")
def ingest(window: str, out_cache: str, api_key_env: str, page_size: int):
    """Fetch CVE records from the NVD API into a local cache."""
    start, end = _parse_window(window)
    api_key = os.environ.get(api_key_env) or None
    try:
        win = IngestWindow(start=start, end=end, api_key=api_key, page_size=page_size)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    try:
        records = fetch_window(win)
        with _writing(out_cache):
            write_cache(records, out_cache)
    except NvdError as exc:
        _fail(EXIT_NETWORK, str(exc))
    except DuplicateIdError as exc:
        _fail(EXIT_NETWORK, f"the NVD window lists {exc.cve_id} more than once; no cache written")
    click.echo(f"wrote {len(records)} records to {out_cache}")


def _calibration_sample(records, n_cal: int, seed: int, lenient: bool) -> ScoredBatch:
    scoreable, _ = score_records(records, lenient=lenient)
    columns = scoreable.records
    pool = [k for k, official in enumerate(columns.officials) if official is not None]
    pool.sort(key=columns.ids.__getitem__)  # positions of the usable records, in id order
    if len(pool) < n_cal:
        _fail(EXIT_DATA, f"need {n_cal} records with a vector and an official score, have {len(pool)}")
    return scoreable[random.Random(seed).sample(pool, n_cal)]


@main.command()
@click.option("--cache", "cache_path", required=True, type=click.Path(dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--n-cal", default=200, show_default=True, type=click.IntRange(min=0),
              help="Calibration sample size.")
@click.option("--seed", default=0, show_default=True, help="Sampling seed.")
@click.option("--grid-step", default=0.05, show_default=True, help="Weight grid resolution.")
@click.option("--strict/--lenient", "strict", default=True,
              help="Whether a malformed cache line aborts the run.")
def calibrate(cache_path: str, out_dir: str, n_cal: int, seed: int, grid_step: float, strict: bool):
    """Fit model weights against official scores on a seeded sample."""
    records = _read_cache_or_fail(cache_path, lenient=not strict).records
    sample = _calibration_sample(records, n_cal, seed, lenient=not strict)
    try:
        weights = calibrate_weights(sample, grid_step=grid_step)
    except (EmptyCalibrationSetError, BadGridStepError, OffGridError) as exc:
        _fail(EXIT_DATA, str(exc))
    out = Path(out_dir)
    with _writing(out_dir):
        out.mkdir(parents=True, exist_ok=True)
        save_config(ModelConfig(weights=weights), out / "model_config.txt")
        ids = "".join(f"{cve_id}\n" for cve_id in sorted(sample.records.ids))
        write_atomic(out / "calibration_ids.txt", [ids])
    click.echo(
        f"calibrated on {len(sample)} records: "
        f"alpha={weights.alpha:g} beta={weights.beta:g} gamma={weights.gamma:g} "
        f"lambda=({weights.lambda_c:g}, {weights.lambda_i:g}, {weights.lambda_a:g}) "
        f"kappa={weights.kappa:g}"
    )


@main.command()
@click.option("--cache", "cache_path", required=True, type=click.Path(dir_okay=False))
@click.option("--config", "config_path", type=click.Path(dir_okay=False),
              help="Model config file; defaults to built-in weights.")
@click.option("--baseline", type=str, default=None,
              help="Use a named preset instead of a config file (uniform).")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--strict/--lenient", "strict", default=True)
def score(cache_path: str, config_path: str | None, baseline: str | None, out_dir: str, strict: bool):
    """Score every record in a cache and write scores.csv."""
    config = _load_model_config(config_path, baseline)
    records = _read_cache_or_fail(cache_path, lenient=not strict).records
    scored, skipped = score_records(records, config, lenient=not strict)
    if not scored:
        _fail(EXIT_DATA, "no record in the cache could be scored")
    out = Path(out_dir)
    with _writing(out_dir):
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "scores.csv", SCORE_HEADER, score_rows(scored))
        write_csv(out / "skip_report.csv", ("cve_id", "reason"), sorted(skipped))
    click.echo(f"scored {len(scored)} records ({len(skipped)} skipped)")


def _read_id_file(path: str) -> frozenset:
    """The ids of a file with one CVE id per line; blank lines and a leading
    byte order mark are ignored, and any other line is an error."""
    with _reading("id file", path, ValueError):
        ids = [line.strip() for line in Path(path).read_text(encoding="utf-8-sig").splitlines()]
        for line_no, cve_id in enumerate(ids, start=1):
            if cve_id and not CVE_ID_PATTERN.fullmatch(cve_id):
                raise ValueError(f"line {line_no}: {cve_id!r} is not a CVE id")
    return frozenset(filter(None, ids))


@main.command()
@click.option("--cache", "cache_path", required=True, type=click.Path(dir_okay=False))
@click.option("--config", "config_path", type=click.Path(dir_okay=False))
@click.option("--baseline", type=str, default=None)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--seed", type=int, default=None, help="Recorded in provenance only.")
@click.option("--exclude-ids", "exclude_path", type=click.Path(dir_okay=False),
              help="File of CVE ids (one per line) to drop, e.g. the calibration sample.")
@click.option("--format", "fmt", type=click.Choice(["all", "json", "csv", "text"]),
              default="all", show_default=True)
@click.option("--strict/--lenient", "strict", default=True)
def analyze(cache_path, config_path, baseline, out_dir, seed, exclude_path, fmt, strict):
    """Run the full analysis over a cache and write the report bundle."""
    config = _load_model_config(config_path, baseline)
    exclude = _read_id_file(exclude_path) if exclude_path else frozenset()
    cache = _read_cache_or_fail(cache_path, lenient=not strict)
    cache_info = {
        "cache_schema": cache.header.get("schema"),
        "cache_retrieved_at": cache.header.get("retrieved_at"),
        "dataset_sha256": cache.body_sha256,
    }
    try:
        bundle = build_bundle(cache.records, config, exclude_ids=exclude, lenient=not strict,
                              seed=seed, cache_info=cache_info)
    except (EmptyDatasetError, UnscoreableAllError) as exc:
        _fail(EXIT_DATA, str(exc))
    with _writing(out_dir):
        written = write_bundle(bundle, out_dir, fmt)
    click.echo(f"wrote {len(written)} files to {out_dir}")


def _no_constant(name: str):
    """``json.loads``' hook for NaN and +/-Infinity, which JSON does not have."""
    raise ValueError(f"{name} is not valid JSON")


@main.command()
@click.option("--bundle", "bundle_dir", required=True, type=click.Path(file_okay=False))
def report(bundle_dir: str):
    """Check a written bundle and re-render its executive summary."""
    out = Path(bundle_dir)
    summary_path = out / "summary.json"
    # Not JSON, too deep, of the wrong shape, too large to render, or a table at odds with it.
    bad = (ValueError, RecursionError, AttributeError, KeyError, TypeError, OverflowError)
    with _reading("summary", summary_path, bad):
        summary = json.loads(summary_path.read_text(encoding="utf-8"), parse_constant=_no_constant)
        text = render_executive_summary(summary)
    with _reading("bundle", bundle_dir, bad):
        check_bundle(out, summary)
    with _writing(bundle_dir):
        write_atomic(out / "executive_summary.txt", [text])
    click.echo(text, nl=False)


if __name__ == "__main__":
    main()
