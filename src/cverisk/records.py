"""The normalized CVE record shared by ingestion, scoring, and analytics."""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timezone

CVE_ID_PATTERN = re.compile(r"^CVE-\d{4}-\d{4,}$")


@dataclass(frozen=True)
class CveRecord:
    """One vulnerability as ingested from the NVD API (or a fixture).

    ``official_score`` and ``vector_string`` are absent for records NVD has
    not scored under CVSS v3.1; such records are retained for raw counts but
    skipped by scoring and analytics.
    """

    cve_id: str
    description: str
    published: datetime
    official_score: float | None = None
    vector_string: str | None = None
    affected_os: str | None = None

    def __post_init__(self) -> None:
        if not CVE_ID_PATTERN.match(self.cve_id):
            raise ValueError(f"malformed CVE id: {self.cve_id!r}")
        if self.vector_string is not None and not isinstance(self.vector_string, str):
            raise ValueError(f"{self.cve_id}: vector string {self.vector_string!r} is not a string")
        if isinstance(self.official_score, bool):
            raise ValueError(f"{self.cve_id}: official score {self.official_score} is not a number")
        if self.official_score is not None and not 0.0 <= self.official_score <= 10.0:
            raise ValueError(
                f"{self.cve_id}: official score {self.official_score} outside [0, 10]"
            )
        if self.published.tzinfo is None:
            object.__setattr__(self, "published", self.published.replace(tzinfo=timezone.utc))
        else:
            object.__setattr__(self, "published", self.published.astimezone(timezone.utc))

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
        published = datetime.fromisoformat(str(data["published"]).replace("Z", "+00:00"))
        score = data.get("official_score")
        return cls(
            cve_id=data["cve_id"],
            description=data["description"],
            published=published,
            # a bool passes through, for __post_init__ to reject
            official_score=score if score is None or isinstance(score, bool) else float(score),
            vector_string=data.get("vector_string"),
            affected_os=data.get("affected_os"),
        )
