"""Cache round trips, corruption handling, and byte stability."""

import json
import logging
from datetime import datetime, timezone

import pytest

from cverisk.cache import (
    SCHEMA_VERSION,
    CacheFormatError,
    DuplicateIdError,
    SchemaVersionMismatchError,
    body_sha256,
    read_cache,
    read_header,
    write_cache,
)
from cverisk.records import CveRecord
from cverisk.vector import parse_vector, serialize_vector

from conftest import SAMPLE_CACHE, all_vector_strings, make_record

FIXED_TS = datetime(2024, 1, 20, 12, 0, 0, tzinfo=timezone.utc)

# Frozen digest of the shipped fixture body. If this changes, the fixture
# was regenerated and every test pinned to its contents needs review.
SAMPLE_CACHE_SHA256 = "b397e26f7c61708825700e6a42a6e1446a594c259147048f9cd58083bb4543d7"


def some_records(n=5):
    return [make_record(cve_id=f"CVE-2024-{10000 + k}") for k in range(n)]


def test_round_trip_preserves_records(tmp_path):
    records = [
        make_record(cve_id="CVE-2024-11111", official=None),
        make_record(cve_id="CVE-2024-22222", vector=None, description="café bug"),
        make_record(cve_id="CVE-2024-33333", affected_os="linux_kernel"),
    ]
    path = write_cache(records, tmp_path / "cache.jsonl", retrieved_at=FIXED_TS)
    assert read_cache(path) == records


def test_header_fields(tmp_path):
    path = write_cache(some_records(3), tmp_path / "c.jsonl", retrieved_at=FIXED_TS)
    header = read_header(path)
    assert header["schema"] == SCHEMA_VERSION
    assert header["count"] == 3
    assert header["retrieved_at"] == "2024-01-20T12:00:00+00:00"


def test_rewrite_is_byte_identical(tmp_path):
    records = some_records(10)
    a = write_cache(records, tmp_path / "a.jsonl", retrieved_at=FIXED_TS)
    b = write_cache(records, tmp_path / "b.jsonl", retrieved_at=FIXED_TS)
    assert a.read_bytes() == b.read_bytes()


def test_write_rejects_duplicate_ids(tmp_path):
    records = some_records(2) + [make_record(cve_id="CVE-2024-10001")]
    with pytest.raises(DuplicateIdError) as err:
        write_cache(records, tmp_path / "dup.jsonl")
    assert err.value.cve_id == "CVE-2024-10001"


def test_read_rejects_corrupt_line_with_line_number(tmp_path):
    path = write_cache(some_records(4), tmp_path / "c.jsonl", retrieved_at=FIXED_TS)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = "{not json\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(CacheFormatError) as err:
        read_cache(path)
    assert err.value.line_no == 3


def test_lenient_skips_corrupt_line_with_warning(tmp_path, caplog):
    path = write_cache(some_records(4), tmp_path / "c.jsonl", retrieved_at=FIXED_TS)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = "{not json\n"
    path.write_text("".join(lines), encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="cverisk.cache"):
        records = read_cache(path, lenient=True)
    assert len(records) == 3
    assert "line 3" in caplog.text


def _with_bad_byte(path, line_index):
    """Put a byte that is not UTF-8 into line ``line_index`` (0-based)."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line_index] = lines[line_index].replace(b'"description": "', b'"description": "\xff', 1)
    path.write_bytes(b"".join(lines))
    return path


def test_non_utf8_line_is_a_corrupt_line(tmp_path, caplog):
    path = write_cache(some_records(4), tmp_path / "c.jsonl", retrieved_at=FIXED_TS)
    _with_bad_byte(path, 2)
    with pytest.raises(CacheFormatError) as err:
        read_cache(path)
    assert err.value.line_no == 3
    assert "utf-8" in err.value.reason
    with caplog.at_level(logging.WARNING, logger="cverisk.cache"):
        records = read_cache(path, lenient=True)
    assert [r.cve_id for r in records] == ["CVE-2024-10000", "CVE-2024-10002", "CVE-2024-10003"]
    assert "line 3" in caplog.text


def test_non_utf8_header_is_a_bad_header(tmp_path):
    path = write_cache(some_records(1), tmp_path / "c.jsonl", retrieved_at=FIXED_TS)
    path.write_bytes(path.read_bytes().replace(b'{"count"', b'{"\xffcount"', 1))
    for read in (read_header, read_cache):
        with pytest.raises(CacheFormatError) as err:
            read(path)
        assert err.value.line_no == 1


def test_lines_split_on_lf_only(tmp_path):
    path = write_cache(some_records(3), tmp_path / "c.jsonl", retrieved_at=FIXED_TS)
    crlf = path.read_bytes().replace(b"\n", b"\r\n")
    path.write_bytes(crlf)
    assert read_cache(path) == some_records(3)
    # a lone CR does not end a line: two records on one line are corrupt
    lines = crlf.split(b"\r\n")
    path.write_bytes(b"\r\n".join([lines[0], lines[1] + b"\r" + lines[2], *lines[3:]]))
    with pytest.raises(CacheFormatError) as err:
        read_cache(path)
    assert err.value.line_no == 2


def test_read_rejects_duplicate_line(tmp_path):
    path = write_cache(some_records(3), tmp_path / "c.jsonl", retrieved_at=FIXED_TS)
    with path.open("a", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(some_records(1)[0].to_dict(), sort_keys=True) + "\n")
    with pytest.raises(DuplicateIdError) as err:
        read_cache(path)
    assert err.value.line_no == 5
    assert len(read_cache(path, lenient=True)) == 3


def truncated_fixture(tmp_path, records=49):
    """The shipped fixture cut cleanly after ``records`` records; its header
    still says ``count: 200``."""
    lines = SAMPLE_CACHE.read_text(encoding="utf-8").splitlines(keepends=True)
    path = tmp_path / "truncated.jsonl"
    path.write_text("".join(lines[: 1 + records]), encoding="utf-8")
    return path


def test_strict_read_rejects_header_count_mismatch(tmp_path):
    with pytest.raises(CacheFormatError) as err:
        read_cache(truncated_fixture(tmp_path))
    assert err.value.line_no == 1
    assert "200" in err.value.reason and "49" in err.value.reason


def test_lenient_read_warns_once_on_header_count_mismatch(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="cverisk.cache"):
        records = read_cache(truncated_fixture(tmp_path), lenient=True)
    assert len(records) == 49
    assert len(caplog.records) == 1
    assert "count" in caplog.text


def test_read_rejects_record_missing_id(tmp_path):
    path = write_cache(some_records(1), tmp_path / "c.jsonl", retrieved_at=FIXED_TS)
    with path.open("a", encoding="utf-8", newline="\n") as fh:
        fh.write('{"published": "2024-01-02T00:00:00+00:00"}\n')
    with pytest.raises(CacheFormatError):
        read_cache(path)


def test_schema_version_mismatch(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text('{"schema": "cve-cache/0", "count": 0}\n', encoding="utf-8")
    with pytest.raises(SchemaVersionMismatchError) as err:
        read_header(path)
    assert err.value.found == "cve-cache/0"
    with pytest.raises(SchemaVersionMismatchError):
        read_cache(path, lenient=True)  # lenient never forgives the header


def test_garbage_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("hello world\n", encoding="utf-8")
    with pytest.raises(CacheFormatError) as err:
        read_header(path)
    assert err.value.line_no == 1
    path.write_text('["not", "an", "object"]\n', encoding="utf-8")
    with pytest.raises(CacheFormatError):
        read_header(path)


def test_body_hash_ignores_retrieval_time(tmp_path):
    records = some_records(6)
    a = write_cache(records, tmp_path / "a.jsonl", retrieved_at=FIXED_TS)
    b = write_cache(
        records, tmp_path / "b.jsonl", retrieved_at=datetime(2025, 6, 1, tzinfo=timezone.utc)
    )
    assert a.read_bytes() != b.read_bytes()
    assert body_sha256(a) == body_sha256(b)


def test_full_grid_cache_is_byte_stable(tmp_path):
    records = [
        CveRecord(
            cve_id=f"CVE-2024-{10000 + k}",
            description="grid",
            published=datetime(2024, 1, 1, tzinfo=timezone.utc),
            vector_string=serialize_vector(parse_vector(v)),
        )
        for k, v in enumerate(all_vector_strings())
    ]
    path = write_cache(records, tmp_path / "grid.jsonl", retrieved_at=FIXED_TS)
    first = body_sha256(path)
    loaded = read_cache(path)
    assert len(loaded) == 2592
    write_cache(loaded, path, retrieved_at=FIXED_TS)
    assert body_sha256(path) == first


def test_shipped_fixture_hash_is_frozen():
    assert body_sha256(SAMPLE_CACHE) == SAMPLE_CACHE_SHA256


def test_shipped_fixture_contents():
    records = read_cache(SAMPLE_CACHE)
    header = read_header(SAMPLE_CACHE)
    assert header["count"] == len(records) == 200
    missing_vector = sum(1 for r in records if r.vector_string is None)
    missing_score = sum(1 for r in records if r.official_score is None)
    assert missing_vector == 7
    assert missing_score == 6
    assert len({r.cve_id for r in records}) == 200
    assert all(r.published.tzinfo is not None for r in records)


def cache_with_field(tmp_path, field, value):
    """A four-record cache whose third record (line 4) has ``field`` set to
    ``value`` in its JSON object."""
    path = write_cache(some_records(4), tmp_path / "c.jsonl", retrieved_at=FIXED_TS)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    data = json.loads(lines[3])
    data[field] = value
    lines[3] = json.dumps(data, sort_keys=True) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "field, value",
    [("vector_string", 5), ("vector_string", ["CVSS:3.1"]), ("vector_string", {"AV": "N"}),
     ("official_score", True), ("official_score", False)],
    ids=["vector-number", "vector-list", "vector-object", "score-true", "score-false"],
)
def test_wrongly_typed_field_is_a_corrupt_line(tmp_path, caplog, field, value):
    path = cache_with_field(tmp_path, field, value)
    with pytest.raises(CacheFormatError) as err:
        read_cache(path)
    assert err.value.line_no == 4
    with caplog.at_level(logging.WARNING, logger="cverisk.cache"):
        records = read_cache(path, lenient=True)
    assert [r.cve_id for r in records] == ["CVE-2024-10000", "CVE-2024-10001", "CVE-2024-10003"]
    assert "line 4" in caplog.text


def test_record_rejects_wrongly_typed_fields():
    with pytest.raises(ValueError, match="vector string"):
        make_record(vector=5)
    with pytest.raises(ValueError, match="official score"):
        make_record(official=True)
    assert make_record(official=7).official_score == 7
