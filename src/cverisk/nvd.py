"""NVD CVE API 2.0 client: windowed fetch with pagination, rate limiting,
and retry with exponential backoff."""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import TYPE_CHECKING

from .records import CveRecord, as_utc, parse_timestamp

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

DEFAULT_BASE_URL = "https://services.nvd.nist.gov/rest/json/cves/2.0"
MAX_WINDOW_DAYS = 120
MAX_PAGE_SIZE = 2000
# Published NVD limits per rolling 30 s window.
RATE_LIMIT_NO_KEY = 5
RATE_LIMIT_WITH_KEY = 50
RATE_WINDOW_SECONDS = 30.0


class NvdError(Exception):
    """Base class for ingestion failures."""


class WindowTooLargeError(NvdError, ValueError):
    """The API caps publication windows at 120 days."""


class NetworkError(NvdError):
    def __init__(self, page: int, attempts: int, detail: str) -> None:
        super().__init__(f"page {page} failed after {attempts} attempt(s): {detail}")
        self.page = page
        self.attempts = attempts


class ApiSchemaChangeError(NvdError):
    def __init__(self, fieldpath: str, problem: str = "missing expected field") -> None:
        super().__init__(f"response {problem} {fieldpath!r}")
        self.fieldpath = fieldpath


class MissingIdError(NvdError, ValueError):
    """An API item carries no cve.id."""


def _api_timestamp(dt: datetime) -> str:
    """RFC 3339 UTC with millisecond precision, as the API expects."""
    dt = as_utc(dt)
    return dt.strftime("%Y-%m-%dT%H:%M:%S.") + f"{dt.microsecond // 1000:03d}Z"


@dataclass(frozen=True)
class IngestWindow:
    """A publication-date query window, at most 120 days wide."""

    start: datetime
    end: datetime
    api_key: str | None = None
    page_size: int = MAX_PAGE_SIZE

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", as_utc(self.start))
        object.__setattr__(self, "end", as_utc(self.end))
        if self.start >= self.end:
            raise ValueError("window start must precede end")
        if self.end - self.start > timedelta(days=MAX_WINDOW_DAYS):
            raise WindowTooLargeError(
                f"window spans more than {MAX_WINDOW_DAYS} days; split the request"
            )
        if not 1 <= self.page_size <= MAX_PAGE_SIZE:
            raise ValueError(f"page_size must lie in [1, {MAX_PAGE_SIZE}]")


class RateLimiter:
    """Blocks callers so at most ``max_calls`` happen in any rolling window."""

    def __init__(self, max_calls: int, period: float, *, clock=time.monotonic, sleep=time.sleep):
        self.max_calls = max_calls
        self.period = period
        self._clock = clock
        self._sleep = sleep
        self._stamps: list[float] = []

    def acquire(self) -> None:
        now = self._clock()
        self._stamps = [t for t in self._stamps if now - t < self.period]
        if len(self._stamps) >= self.max_calls:
            wait = self.period - (now - self._stamps[0])
            if wait > 0:
                self._sleep(wait)
            now = self._clock()  # the next call drops the stamps that aged out meanwhile
        self._stamps.append(now)


class NvdClient:
    """Paginates the CVE endpoint, honoring rate limits and retrying
    transient failures (429, 5xx, timeouts) with exponential backoff."""

    def __init__(
        self,
        api_key: str | None = None,
        *,
        base_url: str = DEFAULT_BASE_URL,
        session: requests.Session | None = None,
        timeout: float = 30.0,
        max_attempts: int = 5,
        backoff_base: float = 1.0,
        rate_limiter: RateLimiter | None = None,
        sleep=time.sleep,
        rng: random.Random | None = None,
    ) -> None:
        self.api_key = api_key
        self.base_url = base_url
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        if session is None:
            import requests  # only ingest pays for the import

            session = requests.Session()
        self._session = session
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        if rate_limiter is None:
            limit = RATE_LIMIT_WITH_KEY if api_key else RATE_LIMIT_NO_KEY
            rate_limiter = RateLimiter(limit, RATE_WINDOW_SECONDS)
        self._limiter = rate_limiter

    def fetch_window(self, window: IngestWindow) -> list[CveRecord]:
        """All CVEs published inside the window, in API order."""
        records: list[CveRecord] = []
        start_index = 0
        page = 0
        while True:
            data = _object(self._fetch_page(window, start_index, page), "response body")
            if "totalResults" not in data:
                raise ApiSchemaChangeError("totalResults")
            total = data["totalResults"]
            if type(total) is not int:
                raise ApiSchemaChangeError("totalResults", "has a non-integer at")
            vulns = _objects(data.get("vulnerabilities"), "vulnerabilities[]")
            for item in vulns:
                records.append(extract_record(item))
            start_index += len(vulns)
            page += 1
            if start_index >= total:
                break
            if not vulns:
                raise ApiSchemaChangeError("vulnerabilities (empty page before totalResults reached)")
        logger.info("fetched %d record(s) over %d page(s)", len(records), page)
        return records

    def _fetch_page(self, window: IngestWindow, start_index: int, page: int) -> object:
        import requests

        params = {
            "pubStartDate": _api_timestamp(window.start),
            "pubEndDate": _api_timestamp(window.end),
            "resultsPerPage": window.page_size,
            "startIndex": start_index,
        }
        headers = {}
        key = window.api_key or self.api_key
        if key:
            headers["apiKey"] = key  # value is never logged
        last = "no attempt made"
        for attempt in range(1, self.max_attempts + 1):
            self._limiter.acquire()
            try:
                resp = self._session.get(
                    self.base_url, params=params, headers=headers, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last = f"{type(exc).__name__}: {exc}"
            else:
                if resp.status_code == 200:
                    try:
                        return resp.json()
                    except (ValueError, RecursionError) as exc:
                        last = f"malformed JSON body: {exc}"
                elif resp.status_code == 429 or resp.status_code >= 500:
                    last = f"HTTP {resp.status_code}"
                else:
                    raise NetworkError(page, attempt, f"HTTP {resp.status_code}")
            logger.debug("page %d attempt %d failed: %s", page, attempt, last)
            if attempt < self.max_attempts:
                backoff = self.backoff_base * 2 ** (attempt - 1)
                self._sleep(backoff + self._rng.uniform(0.0, self.backoff_base))
        raise NetworkError(page, self.max_attempts, last)


def fetch_window(window: IngestWindow, **client_kwargs) -> list[CveRecord]:
    """Convenience wrapper around ``NvdClient.fetch_window``."""
    return NvdClient(api_key=window.api_key, **client_kwargs).fetch_window(window)


def extract_record(item: dict) -> CveRecord:
    """Normalize one API item (a ``vulnerabilities[]`` entry or its ``cve``
    object) into a CveRecord.

    CVSS v3.1 metrics are chosen by source preference Primary > Secondary >
    first listed; records without any v3.1 metric keep score and vector
    absent. The English description is preferred, falling back to the first
    available language.
    """
    item = _object(item, "vulnerabilities[]")
    cve = item.get("cve", item) if isinstance(item.get("cve"), dict) else item
    cve_id = cve.get("id")
    if not cve_id:
        raise MissingIdError("API item has no cve.id")
    published = cve.get("published")
    if not published:
        raise ApiSchemaChangeError("cve.published")
    score, vector = _pick_v31_metric(_object(cve.get("metrics"), "cve.metrics"))
    descriptions = _objects(cve.get("descriptions"), "cve.descriptions[]")
    try:
        return CveRecord(
            cve_id=cve_id,
            description=_pick_description(cve_id, descriptions),
            published=parse_timestamp(published),
            official_score=score,
            vector_string=vector,
            affected_os=_affected_os(_objects(cve.get("configurations"), "cve.configurations[]")),
        )
    except ValueError as exc:
        raise NvdError(f"API item {cve_id!r}: {exc}") from exc


def _object(value, fieldpath: str) -> dict:
    """``value`` if it is a JSON object; absent or empty reads as ``{}``."""
    if not value:
        return {}
    if not isinstance(value, dict):
        raise ApiSchemaChangeError(fieldpath, "has a non-object at")
    return value


def _objects(value, fieldpath: str) -> list[dict]:
    """``value`` if it is a JSON array of objects; absent or empty reads as ``[]``."""
    if not value:
        return []
    if not isinstance(value, list) or not all(isinstance(entry, dict) for entry in value):
        raise ApiSchemaChangeError(fieldpath, "has a non-object at")
    return value


def _pick_description(cve_id: str, descriptions: list[dict]) -> str:
    for entry in descriptions:
        if entry.get("lang") == "en":
            return entry.get("value", "")
    if descriptions:
        first = descriptions[0]
        logger.info("%s: no English description, falling back to lang=%s", cve_id, first.get("lang"))
        return first.get("value", "")
    return ""


def _pick_v31_metric(metrics: dict) -> tuple[float | None, str | None]:
    entries = _objects(metrics.get("cvssMetricV31"), "cve.metrics.cvssMetricV31[]")
    for wanted in ("Primary", "Secondary", None):
        for entry in entries:
            if wanted is not None and entry.get("type") != wanted:
                continue
            data = _object(entry.get("cvssData"), "cvssMetricV31[].cvssData")
            score = data.get("baseScore")
            vector = data.get("vectorString")
            if score is not None and vector:
                return score, vector
    return None, None


def _affected_os(configurations: list[dict]) -> str | None:
    """Operating-system names from CPE criteria with part 'o', if any."""
    names: list[str] = []
    for config in configurations:
        for node in _objects(config.get("nodes"), "configurations[].nodes[]"):
            for match in _objects(node.get("cpeMatch"), "nodes[].cpeMatch[]"):
                parts = str(match.get("criteria", "")).split(":")
                if len(parts) > 4 and parts[2] == "o":
                    name = f"{parts[3]} {parts[4]}"
                    if name not in names:
                        names.append(name)
    return "; ".join(names) if names else None
