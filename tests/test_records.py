"""The record contract: exact field types in CveRecord, and one UTC rule
shared by the cache, the API client and the library."""

import json
import time
from datetime import datetime

import pytest

from cverisk.cache import CacheFormatError, read_cache, read_header, write_cache
from cverisk.nvd import NvdError, extract_record
from cverisk.records import CveRecord, RecordColumns

from conftest import make_record

STAMP_UTC = "2024-01-03T10:00:00+00:00"


@pytest.mark.parametrize(
    "stamp",
    ["2024-01-03T10:00:00Z", "2024-01-03T10:00:00", "2024-01-03T12:00:00+02:00"],
    ids=["z", "naive", "plus-two"],
)
def test_cache_and_api_read_a_timestamp_as_the_same_utc_time(stamp):
    from_cache = CveRecord.from_dict({**make_record().to_dict(), "published": stamp})
    from_api = extract_record({"id": "CVE-2024-12345", "published": stamp})
    assert from_cache.published.isoformat() == from_api.published.isoformat() == STAMP_UTC
    aware = datetime.fromisoformat(stamp.replace("Z", "+00:00"))
    assert make_record(published=aware).published.isoformat() == STAMP_UTC


def test_a_naive_time_means_utc_whatever_the_local_zone(tmp_path, monkeypatch):
    naive = datetime(2024, 1, 20, 12, 0)
    monkeypatch.setenv("TZ", "America/New_York")
    time.tzset()
    try:
        assert time.timezone != 0  # the zone took effect
        path = write_cache([make_record()], tmp_path / "c.jsonl", retrieved_at=naive)
        record = make_record(published=naive)
    finally:
        monkeypatch.undo()
        time.tzset()
    assert read_header(path)["retrieved_at"] == "2024-01-20T12:00:00+00:00"
    assert record.published.isoformat() == "2024-01-20T12:00:00+00:00"


def test_an_integer_official_score_is_stored_as_float():
    record = make_record(official=7)
    assert type(record.official_score) is float
    assert json.dumps(record.to_dict()["official_score"]) == "7.0"


def test_an_api_score_beyond_float_range_is_an_api_error():
    item = {"id": "CVE-2024-12345", "published": STAMP_UTC, "metrics": {"cvssMetricV31": [
        {"type": "Primary", "cvssData": {"baseScore": 10**400, "vectorString": "CVSS:3.1/AV:N"}}
    ]}}
    with pytest.raises(NvdError, match=r"official score 10{400} outside \[0, 10\]"):
        extract_record(item)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"cve_id": "CVE-2024-12345\n"}, "malformed CVE id"),
        ({"cve_id": 12345}, "malformed CVE id"),
        ({"cve_id": "CVE-\uff12\uff10\uff12\uff14-\u0661\u0662\u0663\u0664"}, "malformed CVE id"),
        ({"description": 5}, "description 5 is not a string"),
        ({"affected_os": ["x"]}, "affected os"),
        ({"official": "7.5"}, "official score '7.5' is not a number"),
        ({"official": 10.5}, r"outside \[0, 10\]"),
        ({"official": 10**400}, r"official score 10{400} outside \[0, 10\]"),  # float() overflows
        ({"official": -(10**400)}, r"official score -10{400} outside \[0, 10\]"),
        ({"published": "2024-01-03"}, "is not a datetime"),
    ],
    ids=["id-newline", "id-int", "id-non-ascii-digits", "description", "os", "score-string", "score-range",
         "score-beyond-float", "score-beyond-float-negative", "published-string"],
)
def test_record_checks_every_field_by_exact_type(kwargs, message):
    with pytest.raises(ValueError, match=message):
        make_record(**kwargs)


def test_a_string_that_utf8_cannot_encode_breaks_the_record_contract(tmp_path):
    """A surrogate code point (a lone ``\\ud800`` escape decodes to one)
    fails the record check wherever a record comes from: the library, an
    API item, or a cache line, which strict mode rejects by line number
    and lenient mode skips."""
    for kwargs, field in (({"description": "bad \ud800 text"}, "description"),
                          ({"vector": "CVSS:3.1/AV:N\udfff"}, "vector string"),
                          ({"affected_os": "os \ud83d\ude00"}, "affected os")):  # a pair, unjoined
        with pytest.raises(ValueError, match=rf"CVE-2024-12345: {field} holds '\\ud[8f]"):
            make_record(**kwargs)
    item = {"id": "CVE-2024-12345", "published": STAMP_UTC,
            "descriptions": [{"lang": "en", "value": "bad \ud800 text"}]}
    with pytest.raises(NvdError, match=r"description holds '\\ud800', which UTF-8 cannot encode"):
        extract_record(item)

    good = make_record(cve_id="CVE-2024-10000", description="café \U0001f600")
    path = write_cache([good, make_record(cve_id="CVE-2024-10001")], tmp_path / "c.jsonl")
    head, first, second = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(head + first + second.replace(b'"synthetic', b'"\\ud800synthetic'))
    with pytest.raises(CacheFormatError, match=r"line 3: CVE-2024-10001: description holds"):
        read_cache(path)
    assert read_cache(path, lenient=True) == [good]


def test_record_columns_equal_a_list_of_the_same_records_and_nothing_else():
    records = [make_record(cve_id=f"CVE-2024-{k:04d}") for k in range(1, 4)]
    columns = RecordColumns.of(records)
    assert columns == records and columns == RecordColumns.of(list(records))
    assert columns != records[:2]
    assert columns != tuple(records)  # a sequence, but not a list
