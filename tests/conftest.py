"""Shared fixtures: record factories, exhaustive vector enumeration, the
packaged sample cache, the benchmark's cache generator, and the opt-in live
NVD snapshot."""

from __future__ import annotations

import importlib.util
import itertools
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cverisk.cache import read_cache
from cverisk.model import ScoredBatch, SeverityThresholds, score_records
from cverisk.records import CveRecord, RecordColumns

REPO = Path(__file__).resolve().parents[1]
DATA_DIR = Path(__file__).parent / "data"
SAMPLE_CACHE = DATA_DIR / "sample_cache.jsonl"

# For property tests whose examples each run whole commands: a fixed number
# of examples, drawn the same way on every run and every Python version, so
# a failure reproduces and the suite's run time stays bounded.
settings.register_profile("bounded-commands", derandomize=True, max_examples=40, deadline=None)

# Metric name -> admissible codes, in canonical serialization order.
METRIC_CODES = (
    ("AV", "NALP"),
    ("AC", "LH"),
    ("PR", "NLH"),
    ("UI", "NR"),
    ("S", "UC"),
    ("C", "NLH"),
    ("I", "NLH"),
    ("A", "NLH"),
)


def all_vector_strings():
    """Every valid base vector in canonical order: 4*2*3*2*2*3*3*3 = 2592."""
    names = [name for name, _ in METRIC_CODES]
    for combo in itertools.product(*(codes for _, codes in METRIC_CODES)):
        yield "CVSS:3.1/" + "/".join(f"{n}:{c}" for n, c in zip(names, combo))


def make_record(
    cve_id: str = "CVE-2024-12345",
    vector: str | None = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
    official: float | None = 9.8,
    **kwargs,
) -> CveRecord:
    return CveRecord(
        cve_id=cve_id,
        description=kwargs.pop("description", "synthetic test record"),
        published=kwargs.pop("published", datetime(2024, 1, 2, tzinfo=timezone.utc)),
        official_score=official,
        vector_string=vector,
        **kwargs,
    )


def score_one(record: CveRecord, config=None, *, lenient: bool = False):
    """``record`` scored alone: its ``ScoredRecord``, or its skip reason."""
    scored, skipped = score_records([record], config, lenient=lenient)
    return scored[0] if scored else skipped[0][1]


def as_batch(scored_records) -> ScoredBatch:
    """``ScoredRecord``s built one by one as a ``ScoredBatch``, one table
    row per record, under the default thresholds."""
    scored_records = list(scored_records)
    return ScoredBatch(
        RecordColumns.of(sr.record for sr in scored_records),
        [tuple(vars(sr).values())[1:] for sr in scored_records],  # every field after ``record``
        np.arange(len(scored_records), dtype=np.intp),
        SeverityThresholds(),
    )


@pytest.fixture(scope="session")
def sample_records():
    return read_cache(SAMPLE_CACHE)


@pytest.fixture(scope="session")
def sample_scored(sample_records):
    """Fixture records that carry both a parseable vector and an official score."""
    scored, _ = score_records(sample_records)
    return scored[np.array([r.official_score is not None for r in scored.records])]


@pytest.fixture(scope="session")
def all_scored():
    """One scored record per valid vector, under the default config."""
    records = [
        make_record(cve_id=f"CVE-2024-{10000 + k}", vector=vs, official=None)
        for k, vs in enumerate(all_vector_strings())
    ]
    scored, skipped = score_records(records)
    assert not skipped
    return scored


@pytest.fixture()
def bench_gen(monkeypatch):
    """``perfbench/gen.py``, imported read-only (no bytecode written next to
    it) as it imports the fixture generator, and importable as ``gen`` for
    the test's length, as ``perfbench/check.py`` imports it."""
    spec = importlib.util.spec_from_file_location("gen", REPO / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "gen", module)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="session")
def live_records():
    """CVE records published Jan 1-15 2024, fetched from the real NVD API.

    Only requested by tests gated on CVERISK_LIVE=1; one fetch serves the
    whole session. Set NVD_API_KEY to use the higher rate limit.
    """
    from cverisk.nvd import IngestWindow, fetch_window

    window = IngestWindow(
        start=datetime(2024, 1, 1, tzinfo=timezone.utc),
        end=datetime(2024, 1, 15, 23, 59, 59, 999999, tzinfo=timezone.utc),
        api_key=os.environ.get("NVD_API_KEY") or None,
    )
    return fetch_window(window)
