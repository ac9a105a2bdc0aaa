"""Shared fixtures: record factories, exhaustive vector enumeration, the
packaged sample cache, and the opt-in live NVD snapshot."""

from __future__ import annotations

import itertools
import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from cverisk.cache import read_cache
from cverisk.model import score_records
from cverisk.records import CveRecord

DATA_DIR = Path(__file__).parent / "data"
SAMPLE_CACHE = DATA_DIR / "sample_cache.jsonl"

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
