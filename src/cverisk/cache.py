"""JSON Lines cache for CVE records.

Layout: one header line ``{"count": N, "retrieved_at": ..., "schema":
"cve-cache/1"}`` followed by one JSON object per record. Files are UTF-8
with LF line endings and record ids must be unique within a file.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections.abc import Iterable
from datetime import datetime, timezone
from itertools import chain
from json.scanner import make_scanner
from pathlib import Path
from typing import NamedTuple

from .config import write_atomic
from .records import CveRecord, RecordColumns, as_utc, record_fields

logger = logging.getLogger(__name__)

SCHEMA_VERSION = "cve-cache/1"


class CacheError(ValueError):
    """The cache file violates the JSON Lines schema."""


class SchemaVersionMismatchError(CacheError):
    def __init__(self, found) -> None:
        super().__init__(f"unsupported cache schema {found!r}, expected {SCHEMA_VERSION!r}")
        self.found = found


class DuplicateIdError(CacheError):
    def __init__(self, cve_id: str, line_no: int) -> None:
        super().__init__(f"duplicate id {cve_id} at line {line_no}")
        self.cve_id = cve_id
        self.line_no = line_no


class CacheFormatError(CacheError):
    def __init__(self, line_no: int, reason: str) -> None:
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


def write_cache(
    records: Iterable[CveRecord], path, *, retrieved_at: datetime | None = None
) -> Path:
    """Write records as JSON Lines, rejecting duplicate ids.

    Output bytes depend only on the records and ``retrieved_at``; pass a
    fixed timestamp for byte-reproducible files.
    """
    records = list(records)
    seen: set[str] = set()
    for index, record in enumerate(records):
        if record.cve_id in seen:
            raise DuplicateIdError(record.cve_id, index + 2)
        seen.add(record.cve_id)
    if retrieved_at is None:
        retrieved_at = datetime.now(timezone.utc)
    header = {
        "schema": SCHEMA_VERSION,
        "retrieved_at": as_utc(retrieved_at).isoformat(),
        "count": len(records),
    }
    objects = chain([header], map(CveRecord.to_dict, records))
    lines = (json.dumps(o, sort_keys=True, ensure_ascii=False) + "\n" for o in objects)
    return write_atomic(path, lines)


def read_header(path) -> dict:
    """Parse and validate the cache header line."""
    with Path(path).open("rb") as fh:
        return _header(fh.readline())


def _header(first: bytes) -> dict:
    try:
        header = json.loads(first.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise CacheFormatError(1, f"bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise CacheFormatError(1, "header is not a JSON object")
    if header.get("schema") != SCHEMA_VERSION:
        raise SchemaVersionMismatchError(header.get("schema"))
    stamp = header.get("retrieved_at")  # copied into outputs: null, or text that UTF-8 can encode
    if stamp is not None and (type(stamp) is not str or any("\ud800" <= c <= "\udfff" for c in stamp)):
        raise CacheFormatError(1, "header retrieved_at is neither null nor text that UTF-8 can encode")
    return header


class Cache(NamedTuple):
    """One pass over a cache file: its header, its records as columns and
    the SHA-256 of the bytes after the header line, as they were read."""

    header: dict
    records: RecordColumns
    body_sha256: str


def read_cache(path, *, lenient: bool = False) -> RecordColumns:
    """Load all records from a cache file, as columns (see ``load_cache``)."""
    return load_cache(path, lenient=lenient).records


def load_cache(path, *, lenient: bool = False) -> Cache:
    """Read a cache file once: its header, records and body digest.

    A corrupt or duplicate line aborts with its line number; under
    ``lenient`` it is skipped with a warning instead. So does a header
    ``count`` that is not an ``int`` (``true`` and ``1.0`` are not) or
    differs from the number of lines after the header, as in a truncated
    file; per-line errors are reported first. The digest covers every byte
    after the header line, skipped lines included; the header, which holds
    the retrieval time, is left out.
    """
    path = Path(path)
    ids, descriptions, published, officials, vectors, systems = columns = [], [], [], [], [], []
    seen: set[str] = set()
    digest = hashlib.sha256()
    # The C scanner reads a line that holds one JSON value followed by its
    # LF; any other line goes to ``json.loads``, which reads it the same way
    # or raises the error the line is reported with.
    scan = make_scanner(json.JSONDecoder())
    # Binary lines split on LF only; each is decoded on its own, so a
    # non-UTF-8 line is one corrupt line.
    with path.open("rb") as fh:
        header = _header(fh.readline())
        expected = header.get("count")
        line_no = 1
        for line_no, line in enumerate(fh, start=2):
            digest.update(line)
            try:
                text = line.decode("utf-8")
                try:
                    data, end = scan(text, 0)
                except (StopIteration, json.JSONDecodeError):
                    end = -1
                if end != len(text) - 1 or text[end] != "\n":
                    data = json.loads(text)
                cve_id, description, when, official, vector, system = record_fields(data)
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                if lenient:
                    logger.warning("skipping corrupt cache line %d: %s", line_no, exc)
                    continue
                raise CacheFormatError(line_no, str(exc)) from exc
            if cve_id in seen:
                if lenient:
                    logger.warning("skipping duplicate id %s at line %d", cve_id, line_no)
                    continue
                raise DuplicateIdError(cve_id, line_no)
            seen.add(cve_id)
            ids.append(cve_id)
            descriptions.append(description)
            published.append(when)
            officials.append(official)
            vectors.append(vector)
            systems.append(system)
    if type(expected) is not int or line_no - 1 != expected:
        reason = f"header count is {expected!r} but {line_no - 1} record lines follow"
        if not lenient:
            raise CacheFormatError(1, reason)
        logger.warning("%s: %s", path, reason)
    return Cache(header, RecordColumns(*columns), digest.hexdigest())

