"""The normalized CVE record shared by ingestion, scoring, and analytics."""

from __future__ import annotations

import contextlib
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from datetime import datetime, timezone

import numpy as np

CVE_ID_PATTERN = re.compile(r"CVE-[0-9]{4}-[0-9]{4,}")


def as_utc(dt: datetime) -> datetime:
    """The one UTC rule, which CveRecord applies: convert an aware time, read a naive one as UTC."""
    return dt.replace(tzinfo=timezone.utc) if dt.tzinfo is None else dt.astimezone(timezone.utc)


def parse_timestamp(text: str) -> datetime:
    """An ISO 8601 string as a datetime; a ``Z`` suffix means UTC."""
    if type(text) is not str:
        raise ValueError(f"timestamp {text!r} is not a string")
    return datetime.fromisoformat(text.replace("Z", "+00:00"))


def check_fields(cve_id, description, published, official_score, vector_string, affected_os) -> tuple:
    """The record contract, which ``CveRecord`` and the cache reader share:
    the fields checked by exact type, each string encodable as UTF-8 (no
    surrogate code point), and returned in order, an ``int`` official
    score as ``float`` and ``published`` in UTC."""
    if type(cve_id) is not str or not CVE_ID_PATTERN.fullmatch(cve_id):
        raise ValueError(f"malformed CVE id: {cve_id!r}")
    if type(description) is not str:
        raise ValueError(f"{cve_id}: description {description!r} is not a string")
    if vector_string is not None and type(vector_string) is not str:
        raise ValueError(f"{cve_id}: vector string {vector_string!r} is not a string")
    if affected_os is not None and type(affected_os) is not str:
        raise ValueError(f"{cve_id}: affected os {affected_os!r} is not a string")
    if (score := official_score) is not None:
        if type(score) is int:
            with contextlib.suppress(OverflowError):  # too large for a float: outside [0, 10]
                score = float(score)
        elif type(score) is not float:
            raise ValueError(f"{cve_id}: official score {score!r} is not a number")
        if not 0.0 <= score <= 10.0:
            raise ValueError(f"{cve_id}: official score {score} outside [0, 10]")
    if type(published) is not datetime:
        raise ValueError(f"{cve_id}: published {published!r} is not a datetime")
    # Only a surrogate code point fails to encode, so ASCII text needs no check.
    if not description.isascii():
        _check_utf8(cve_id, "description", description)
    if vector_string and not vector_string.isascii():
        _check_utf8(cve_id, "vector string", vector_string)
    if affected_os and not affected_os.isascii():
        _check_utf8(cve_id, "affected os", affected_os)
    return cve_id, description, as_utc(published), score, vector_string, affected_os


def _check_utf8(cve_id: str, name: str, text: str) -> None:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(
            f"{cve_id}: {name} holds {exc.object[exc.start]!r}, which UTF-8 cannot encode"
        ) from None


def record_fields(data: dict) -> tuple:
    """A cache line's JSON object as checked ``CveRecord`` field values."""
    return check_fields(
        data["cve_id"], data["description"], parse_timestamp(data["published"]),
        data.get("official_score"), data.get("vector_string"), data.get("affected_os"),
    )


@dataclass(frozen=True)
class CveRecord:
    """One vulnerability as ingested from the NVD API (or a fixture).

    Each field is checked by exact type; an ``int`` official score is stored
    as ``float`` and ``published`` in UTC. ``official_score`` and
    ``vector_string`` are absent for records NVD has not scored under CVSS
    v3.1; such records are retained for raw counts but skipped by scoring
    and analytics.
    """

    cve_id: str
    description: str
    published: datetime
    official_score: float | None = None
    vector_string: str | None = None
    affected_os: str | None = None

    def __post_init__(self) -> None:
        _, _, published, score, _, _ = check_fields(*vars(self).values())  # fields in order
        object.__setattr__(self, "official_score", score)
        object.__setattr__(self, "published", published)

    def to_dict(self) -> dict:
        return {**vars(self), "published": self.published.isoformat()}

    @classmethod
    def from_dict(cls, data: dict) -> CveRecord:
        return cls(*record_fields(data))


@dataclass(frozen=True, eq=False)
class RecordColumns(Sequence):
    """``CveRecord``s stored as one list per field, in field order, and
    built on access: ``columns[k]`` is record k, and any key numpy reads
    as an index (a slice, a boolean mask, an array or list of positions)
    gives a sub-container. It equals a list of the same records."""

    ids: list[str]
    descriptions: list[str]
    published: list[datetime]
    officials: list[float | None]
    vectors: list[str | None]
    affected_os: list[str | None]

    @classmethod
    def of(cls, records: Iterable[CveRecord]) -> RecordColumns:
        """``records`` as columns; a ``RecordColumns`` is returned as is."""
        if isinstance(records, cls):
            return records
        records = list(records)
        return cls(*([getattr(r, f.name) for r in records] for f in fields(CveRecord)))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return CveRecord(*(column[key] for column in vars(self).values()))
        index = np.arange(len(self))[key].tolist()
        return RecordColumns(*([column[k] for k in index] for column in vars(self).values()))

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, RecordColumns)):
            return list(self) == list(other)
        return NotImplemented
