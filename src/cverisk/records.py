"""The normalized CVE record shared by ingestion, scoring, and analytics."""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timezone

CVE_ID_PATTERN = re.compile(r"CVE-\d{4}-\d{4,}")


def as_utc(dt: datetime) -> datetime:
    """The one UTC rule, which CveRecord applies: convert an aware time, read a naive one as UTC."""
    return dt.replace(tzinfo=timezone.utc) if dt.tzinfo is None else dt.astimezone(timezone.utc)


def parse_timestamp(text: str) -> datetime:
    """An ISO 8601 string as a datetime; a ``Z`` suffix means UTC."""
    if type(text) is not str:
        raise ValueError(f"timestamp {text!r} is not a string")
    return datetime.fromisoformat(text.replace("Z", "+00:00"))


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
        if type(cve_id := self.cve_id) is not str or not CVE_ID_PATTERN.fullmatch(cve_id):
            raise ValueError(f"malformed CVE id: {cve_id!r}")
        if type(self.description) is not str:
            raise ValueError(f"{cve_id}: description {self.description!r} is not a string")
        for name, value in ("vector string", self.vector_string), ("affected os", self.affected_os):
            if value is not None and type(value) is not str:
                raise ValueError(f"{cve_id}: {name} {value!r} is not a string")
        if (score := self.official_score) is not None:
            if type(score) is int:
                object.__setattr__(self, "official_score", float(score))
            elif type(score) is not float:
                raise ValueError(f"{cve_id}: official score {score!r} is not a number")
            if not 0.0 <= score <= 10.0:
                raise ValueError(f"{cve_id}: official score {score} outside [0, 10]")
        if type(self.published) is not datetime:
            raise ValueError(f"{cve_id}: published {self.published!r} is not a datetime")
        object.__setattr__(self, "published", as_utc(self.published))

    def to_dict(self) -> dict:
        return {
            "cve_id": self.cve_id,
            "description": self.description,
            "published": self.published.isoformat(),
            "official_score": self.official_score,
            "vector_string": self.vector_string,
            "affected_os": self.affected_os,
        }

    @classmethod
    def from_dict(cls, data: dict) -> CveRecord:
        return cls(
            cve_id=data["cve_id"],
            description=data["description"],
            published=parse_timestamp(data["published"]),
            official_score=data.get("official_score"),
            vector_string=data.get("vector_string"),
            affected_os=data.get("affected_os"),
        )
