"""Command line front end: ingest, calibrate, score, analyze, report."""

from __future__ import annotations

import logging
import os
import random
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import click

from . import __version__
from .cache import CacheError, body_sha256, read_cache, read_header, write_cache
from .calibration import (
    BadGridStepError,
    EmptyCalibrationSetError,
    OffGridError,
    calibrate_weights,
    uniform_weights,
)
from .config import ConfigError, load_config, save_config, write_text_atomic
from .model import ModelConfig, ScoredBatch, score_records
from .nvd import IngestWindow, NvdError, WindowTooLargeError, fetch_window
from .report import (
    SCORE_HEADER,
    BundleError,
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


class InsufficientRecordsError(ValueError):
    """Fewer calibratable records than the requested sample size."""


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_window(text: str) -> tuple[datetime, datetime]:
    """Parse START..END (dates or ISO timestamps); a bare END date means
    the whole of that day."""
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
    if start.tzinfo is None:
        start = start.replace(tzinfo=timezone.utc)
    if end.tzinfo is None:
        end = end.replace(tzinfo=timezone.utc)
    return start, end


def _read_cache_or_fail(path: str, lenient: bool):
    try:
        header = read_header(path)
        records = read_cache(path, lenient=lenient)
    except FileNotFoundError:
        _fail(EXIT_IO, f"cache not found: {path}")
    except CacheError as exc:
        _fail(EXIT_DATA, f"bad cache {path}: {exc}")
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read cache {path}: {exc}")
    return header, records


def _load_model_config(config_path: str | None, baseline: str | None) -> ModelConfig:
    if config_path and baseline:
        raise click.UsageError("--config and --baseline are mutually exclusive")
    if baseline:
        if baseline != "uniform":
            raise click.UsageError(f"unknown baseline {baseline!r}")
        return ModelConfig(weights=uniform_weights())
    if config_path:
        try:
            return load_config(config_path)
        except FileNotFoundError:
            _fail(EXIT_IO, f"config not found: {config_path}")
        except ConfigError as exc:
            _fail(EXIT_DATA, f"bad config {config_path}: {exc}")
        except OSError as exc:
            _fail(EXIT_IO, f"cannot read config {config_path}: {exc}")
    return ModelConfig()


def _cache_info(path: str, header) -> dict:
    return {
        "cache_schema": header.get("schema"),
        "cache_retrieved_at": header.get("retrieved_at"),
        "dataset_sha256": body_sha256(path),
    }


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
    except WindowTooLargeError as exc:
        raise click.UsageError(str(exc)) from exc
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    try:
        records = fetch_window(win)
    except NvdError as exc:
        _fail(EXIT_NETWORK, str(exc))
    try:
        write_cache(records, out_cache)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write cache {out_cache}: {exc}")
    click.echo(f"wrote {len(records)} records to {out_cache}")


def _calibration_sample(records, n_cal: int, seed: int, lenient: bool) -> ScoredBatch:
    scoreable, _ = score_records(records, lenient=lenient)
    ids = {k: r.cve_id for k, r in enumerate(scoreable.records) if r.official_score is not None}
    pool = sorted(ids, key=ids.get)  # positions of the usable records, in id order
    if len(pool) < n_cal:
        raise InsufficientRecordsError(
            f"need {n_cal} records with a vector and an official score, have {len(pool)}"
        )
    return scoreable[random.Random(seed).sample(pool, n_cal)]


@main.command()
@click.option("--cache", "cache_path", required=True, type=click.Path(dir_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--n-cal", default=200, show_default=True, type=click.IntRange(min=0),
              help="Calibration sample size.")
@click.option("--seed", default=0, show_default=True, help="Sampling seed.")
@click.option("--grid-step", default=0.05, show_default=True, help="Weight grid resolution.")
@click.option("--strict/--lenient", "strict", default=True,
              help="Whether malformed cache lines and vectors abort the run.")
def calibrate(cache_path: str, out_dir: str, n_cal: int, seed: int, grid_step: float, strict: bool):
    """Fit model weights against official scores on a seeded sample."""
    _, records = _read_cache_or_fail(cache_path, lenient=not strict)
    try:
        sample = _calibration_sample(records, n_cal, seed, lenient=not strict)
        weights = calibrate_weights(sample, grid_step=grid_step)
    except (
        InsufficientRecordsError, EmptyCalibrationSetError, BadGridStepError, OffGridError
    ) as exc:
        _fail(EXIT_DATA, str(exc))
    config = ModelConfig(weights=weights)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        save_config(config, out / "model_config.txt")
        ids = "".join(f"{cve_id}\n" for cve_id in sorted(r.cve_id for r in sample.records))
        write_text_atomic(out / "calibration_ids.txt", ids)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write to {out_dir}: {exc}")
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
    _, records = _read_cache_or_fail(cache_path, lenient=not strict)
    config = _load_model_config(config_path, baseline)
    scored, skipped = score_records(records, config, lenient=not strict)
    if not scored:
        _fail(EXIT_DATA, "no record in the cache could be scored")
    out = Path(out_dir)
    rows = score_rows(scored)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "scores.csv", SCORE_HEADER, rows)
        write_csv(
            out / "skip_report.csv",
            ("cve_id", "reason"),
            sorted((rec.cve_id, reason) for rec, reason in skipped),
        )
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write to {out_dir}: {exc}")
    click.echo(f"scored {len(scored)} records ({len(skipped)} skipped)")


def _read_id_file(path: str) -> frozenset:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        _fail(EXIT_IO, f"id file not found: {path}")
    except UnicodeDecodeError as exc:
        _fail(EXIT_DATA, f"id file {path} is not UTF-8: {exc}")
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read id file {path}: {exc}")
    return frozenset(line.strip() for line in lines if line.strip())


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
    header, records = _read_cache_or_fail(cache_path, lenient=not strict)
    config = _load_model_config(config_path, baseline)
    exclude = _read_id_file(exclude_path) if exclude_path else frozenset()
    try:
        bundle = build_bundle(
            records,
            config,
            exclude_ids=exclude,
            lenient=not strict,
            seed=seed,
            cache_info=_cache_info(cache_path, header),
        )
    except (EmptyDatasetError, UnscoreableAllError) as exc:
        _fail(EXIT_DATA, str(exc))
    try:
        written = write_bundle(bundle, out_dir, fmt)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write to {out_dir}: {exc}")
    click.echo(f"wrote {len(written)} files to {out_dir}")


@main.command()
@click.option("--bundle", "bundle_dir", required=True, type=click.Path(file_okay=False))
def report(bundle_dir: str):
    """Check a written bundle and re-render its executive summary."""
    out = Path(bundle_dir)
    summary_path = out / "summary.json"
    try:
        import json

        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        _fail(EXIT_IO, f"no summary.json in {bundle_dir}")
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read {summary_path}: {exc}")
    except ValueError as exc:
        _fail(EXIT_DATA, f"summary.json is not valid JSON: {exc}")
    try:
        check_bundle(out, summary)
        text = render_executive_summary(summary)
    except BundleError as exc:
        _fail(EXIT_DATA, str(exc))
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read {bundle_dir}: {exc}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        _fail(EXIT_DATA, f"summary.json is malformed: {exc!r}")
    try:
        (out / "executive_summary.txt").write_text(text, encoding="utf-8")
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write executive summary: {exc}")
    click.echo(text, nl=False)


if __name__ == "__main__":
    main()
