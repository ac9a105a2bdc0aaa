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
from pathlib import Path

from .records import CveRecord

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
    path = Path(path)
    header = {
        "schema": SCHEMA_VERSION,
        "retrieved_at": retrieved_at.astimezone(timezone.utc).isoformat(),
        "count": len(records),
    }
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header, sort_keys=True, ensure_ascii=False) + "\n")
        for record in records:
            fh.write(json.dumps(record.to_dict(), sort_keys=True, ensure_ascii=False) + "\n")
    return path


def read_header(path) -> dict:
    """Parse and validate the cache header line."""
    with Path(path).open("rb") as fh:
        first = fh.readline()
    try:
        header = json.loads(first.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise CacheFormatError(1, f"bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise CacheFormatError(1, "header is not a JSON object")
    if header.get("schema") != SCHEMA_VERSION:
        raise SchemaVersionMismatchError(header.get("schema"))
    return header


def read_cache(path, *, lenient: bool = False) -> list[CveRecord]:
    """Load all records from a cache file.

    A corrupt or duplicate line aborts with its line number; under
    ``lenient`` it is skipped with a warning instead. So does a header
    ``count`` that differs from the number of lines after the header, as
    in a truncated file; per-line errors are reported first.
    """
    path = Path(path)
    expected = read_header(path).get("count")
    records: list[CveRecord] = []
    seen: set[str] = set()
    # Binary lines split on LF only; each is decoded on its own, so a
    # non-UTF-8 line is one corrupt line.
    with path.open("rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no == 1:
                continue
            try:
                record = CveRecord.from_dict(json.loads(line.decode("utf-8")))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                if lenient:
                    logger.warning("skipping corrupt cache line %d: %s", line_no, exc)
                    continue
                raise CacheFormatError(line_no, str(exc)) from exc
            if record.cve_id in seen:
                if lenient:
                    logger.warning("skipping duplicate id %s at line %d", record.cve_id, line_no)
                    continue
                raise DuplicateIdError(record.cve_id, line_no)
            seen.add(record.cve_id)
            records.append(record)
    if line_no - 1 != expected:
        reason = f"header count is {expected!r} but {line_no - 1} record lines follow"
        if not lenient:
            raise CacheFormatError(1, reason)
        logger.warning("%s: %s", path, reason)
    return records


def body_sha256(path) -> str:
    """Hash of everything after the header line; stable across retrieval times."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        fh.readline()
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
