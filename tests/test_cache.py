"""Cache round trips, corruption handling, and byte stability."""

import errno
import json
import logging
from datetime import datetime, timezone

import pytest

from cverisk.cache import (
    SCHEMA_VERSION,
    CacheFormatError,
    DuplicateIdError,
    SchemaVersionMismatchError,
    load_cache,
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


def test_failed_rewrite_keeps_the_old_cache(tmp_path, monkeypatch):
    path = write_cache(some_records(3), tmp_path / "c.jsonl", retrieved_at=FIXED_TS)
    before = path.read_bytes()

    def no_space(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("os.fsync", no_space)  # fails after the temp file has its lines
    with pytest.raises(OSError, match="No space left"):
        write_cache(some_records(5), path, retrieved_at=FIXED_TS)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]


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


# Deeper than any recursion limit: both JSON decoders raise RecursionError.
DEEP_JSON = "[" * 100_000


def test_deeply_nested_line_is_a_corrupt_line(tmp_path, caplog):
    path = write_cache(some_records(4), tmp_path / "c.jsonl", retrieved_at=FIXED_TS)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[2] = DEEP_JSON + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(CacheFormatError) as err:
        read_cache(path)
    assert err.value.line_no == 3
    assert "recursion" in err.value.reason
    with caplog.at_level(logging.WARNING, logger="cverisk.cache"):
        records = read_cache(path, lenient=True)
    assert [r.cve_id for r in records] == ["CVE-2024-10000", "CVE-2024-10002", "CVE-2024-10003"]
    assert "skipping corrupt cache line 3" in caplog.text


def test_deeply_nested_header_is_a_bad_header(tmp_path):
    path = write_cache(some_records(1), tmp_path / "c.jsonl", retrieved_at=FIXED_TS)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(DEEP_JSON + "\n" + lines[1], encoding="utf-8")
    for read in (read_header, read_cache):
        with pytest.raises(CacheFormatError, match="^line 1: bad header: ") as err:
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


def miscounted_caches(tmp_path):
    """``(path, count as the reason prints it, records that follow)``: the
    truncated fixture, and one record under a header count that equals 1
    but is not an ``int``."""
    yield truncated_fixture(tmp_path), "200", 49
    record = json.dumps(make_record().to_dict(), sort_keys=True)
    for count in (True, 1.0):
        header = json.dumps({"count": count, "schema": SCHEMA_VERSION})
        path = tmp_path / f"count-{count}.jsonl"
        path.write_text(f"{header}\n{record}\n", encoding="utf-8")
        yield path, repr(count), 1


def test_strict_read_rejects_header_count_mismatch(tmp_path):
    for path, count, follow in miscounted_caches(tmp_path):
        with pytest.raises(CacheFormatError) as err:
            read_cache(path)
        assert err.value.line_no == 1
        assert f"header count is {count} but {follow} record lines" in err.value.reason


def test_lenient_read_warns_once_on_header_count_mismatch(tmp_path, caplog):
    for path, count, follow in miscounted_caches(tmp_path):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cverisk.cache"):
            records = read_cache(path, lenient=True)
        assert len(records) == follow
        assert len(caplog.records) == 1
        assert f"header count is {count}" in caplog.text


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
    assert load_cache(a).body_sha256 == load_cache(b).body_sha256


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
    first = load_cache(path).body_sha256
    loaded = read_cache(path)
    assert len(loaded) == 2592
    write_cache(loaded, path, retrieved_at=FIXED_TS)
    assert load_cache(path).body_sha256 == first


def test_shipped_fixture_hash_is_frozen():
    assert load_cache(SAMPLE_CACHE).body_sha256 == SAMPLE_CACHE_SHA256


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
     ("official_score", True), ("official_score", False), ("official_score", "7.5"),
     ("cve_id", "CVE-2024-10002\n"), ("description", 5), ("affected_os", ["x"]),
     ("published", 20240101)],
    ids=["vector-number", "vector-list", "vector-object", "score-true", "score-false",
         "score-string", "id-newline", "description-number", "os-list", "published-number"],
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


def differential_corpus() -> list[bytes]:
    """Cache lines of every kind the reader must keep or reject, one each."""
    valid = {
        "cve_id": "CVE-2024-20000",
        "description": "heap overflow in the parser",
        "published": "2024-01-02T03:04:05Z",
        "official_score": 7,
        "vector_string": "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H",
        "affected_os": "linux linux_kernel",
    }

    def line(cve_id, drop=(), **changes):
        data = {**valid, "cve_id": cve_id, **changes}
        return json.dumps({k: v for k, v in data.items() if k not in drop}).encode() + b"\n"

    keep = [
        line("CVE-2024-20000"),
        json.dumps({**dict(reversed(list(valid.items()))), "cve_id": "CVE-2024-20001",
                    "x_extra": 1}).encode() + b"\n",
        line("CVE-2024-20002", published="2024-01-02T05:04:05+02:00", official_score=9.8),
        line("CVE-2024-20003", published="2024-01-02T03:04:05", official_score=None,
             vector_string=None, affected_os=None),
        line("CVE-2024-20004", drop=("official_score", "vector_string", "affected_os")),
    ]
    wrong_type = [
        line("CVE-2024-20010", official_score="7.5"),
        line("CVE-2024-20011\n"),
        line("CVE-2024-20012", description=5),
        line("CVE-2024-20013", affected_os=["x"]),
        line("CVE-2024-20014", published=20240101),
    ]
    bad_value = [
        line("CVE-2024-20020", official_score=10.5),
        line("CVE-2024-20021", official_score=-0.1),
        line("CVE-2024-20022", published="yesterday"),
        line("CVE-24-1"),
        line("CVE-\uff12\uff10\uff12\uff14-20023"),  # fullwidth digits
        line("CVE-2024-\u0662\u0660\u0660\u0662\u0664"),  # Arabic-Indic digits
    ]
    missing = [line("CVE-2024-20030", drop=(key,)) for key in ("cve_id", "description", "published")]
    not_an_object = [b"[1]\n", b'"x"\n', b"5\n", b"null\n"]
    broken = [
        line("CVE-2024-20040")[:40] + b"\n",
        line("CVE-2024-20041").replace(b"heap", b"h\xffeap"),
        b"\n",
        line("CVE-2024-20000"),  # a duplicate id
    ]
    return [*keep, *wrong_type, *bad_value, *missing, *not_an_object, *broken]


def reference_read(lines: list[bytes]):
    """What the reader did with ``CveRecord.from_dict(json.loads(line))``
    per line: the records kept and one ``(line, reason, warning)`` per line
    dropped (``reason`` is None for a duplicate id)."""
    kept, dropped, seen = [], [], set()
    for line_no, line in enumerate(lines, start=2):
        try:
            record = CveRecord.from_dict(json.loads(line.decode("utf-8")))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            dropped.append((line_no, str(exc), f"skipping corrupt cache line {line_no}: {exc}"))
            continue
        if record.cve_id in seen:
            warning = f"skipping duplicate id {record.cve_id} at line {line_no}"
            dropped.append((line_no, None, warning))
            continue
        seen.add(record.cve_id)
        kept.append(record)
    return kept, dropped


def field_values(record: CveRecord) -> list:
    """Every field with its exact type; ``published`` with its offset."""
    values = [(type(v), v) for v in vars(record).values()]
    return values + [record.published.isoformat()]


def write_lines(path, lines: list[bytes]):
    header = json.dumps({"count": len(lines), "schema": SCHEMA_VERSION}).encode()
    path.write_bytes(b"\n".join([header, b"".join(lines)]))
    return path


def test_reader_matches_from_dict_line_by_line(tmp_path, caplog):
    corpus = differential_corpus()
    kept, dropped = reference_read(corpus)
    assert len(kept) == 5 and len(dropped) == len(corpus) - 5
    path = write_lines(tmp_path / "corpus.jsonl", corpus)
    with caplog.at_level(logging.WARNING, logger="cverisk.cache"):
        records = read_cache(path, lenient=True)
    assert [field_values(r) for r in records] == [field_values(r) for r in kept]
    assert caplog.messages == [warning for _, _, warning in dropped]
    # strict mode aborts on each dropped line, after the kept ones, with the same reason
    for k, (line_no, reason, _) in enumerate(dropped):
        path = write_lines(tmp_path / f"strict-{k}.jsonl", [*corpus[:5], corpus[line_no - 2]])
        with pytest.raises(DuplicateIdError if reason is None else CacheFormatError) as err:
            read_cache(path)
        assert err.value.line_no == 7
        if reason is not None:
            assert err.value.reason == reason


def _record_line(cve_id: str, **changes) -> bytes:
    """One record as a JSON object, with no line ending."""
    return json.dumps({**make_record(cve_id=cve_id).to_dict(), **changes}).encode()


# Lines the reader must read as ``json.loads`` does; the first four are kept.
READER_LINES = {
    "crlf": _record_line("CVE-2024-30001") + b"\r\n",
    "leading-space": b" " + _record_line("CVE-2024-30002") + b"\n",
    "trailing-spaces": _record_line("CVE-2024-30003") + b"   \n",
    "no-final-lf": _record_line("CVE-2024-30004"),
    "bom": b"\xef\xbb\xbf" + _record_line("CVE-2024-30005") + b"\n",
    "two-objects": _record_line("CVE-2024-30006") + b" " + _record_line("CVE-2024-30007") + b"\n",
    "array": b"[" + _record_line("CVE-2024-30008") + b"]\n",
    "nan-score": _record_line("CVE-2024-30009", official_score=float("nan")) + b"\n",
    "empty": b"\n",
    "non-utf8": _record_line("CVE-2024-30010").replace(b"synthetic", b"synth\xffetic") + b"\n",
    "truncated": _record_line("CVE-2024-30011")[:40] + b"\n",
}


@pytest.mark.parametrize("name", READER_LINES)
def test_reader_reads_each_line_as_json_loads_does(tmp_path, caplog, name):
    """The line after a plain record: the record ``json.loads`` gives, or
    in strict mode the error ``json.loads`` or the record contract raises,
    and in lenient mode a skip with that warning."""
    lines = [_record_line("CVE-2024-30000") + b"\n", READER_LINES[name]]
    kept, dropped = reference_read(lines)
    assert len(kept) == (2 if name in list(READER_LINES)[:4] else 1)
    path = write_lines(tmp_path / "cache.jsonl", lines)
    with caplog.at_level(logging.WARNING, logger="cverisk.cache"):
        records = read_cache(path, lenient=True)
    assert [field_values(r) for r in records] == [field_values(r) for r in kept]
    assert caplog.messages == [warning for _, _, warning in dropped]
    if dropped:
        with pytest.raises(CacheFormatError) as err:
            read_cache(path)
        assert (err.value.line_no, err.value.reason) == dropped[0][:2]
    else:
        assert [field_values(r) for r in read_cache(path)] == [field_values(r) for r in kept]
