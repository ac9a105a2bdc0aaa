"""API client tests against a scripted fake session: pagination, retry and
backoff, rate limiting, and response normalization. No network involved."""

import json
import logging
import random
from datetime import datetime, timedelta, timezone

import pytest
import requests

from cverisk.nvd import (
    ApiSchemaChangeError,
    IngestWindow,
    MissingIdError,
    NetworkError,
    NvdError,
    NvdClient,
    RateLimiter,
    WindowTooLargeError,
    extract_record,
    fetch_window,
)

WINDOW = IngestWindow(
    start=datetime(2024, 1, 1, tzinfo=timezone.utc),
    end=datetime(2024, 1, 15, tzinfo=timezone.utc),
)


def api_item(cve_id, score=9.8, vector="CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"):
    metrics = {}
    if vector is not None:
        metrics = {
            "cvssMetricV31": [
                {"type": "Primary", "cvssData": {"baseScore": score, "vectorString": vector}}
            ]
        }
    return {
        "cve": {
            "id": cve_id,
            "published": "2024-01-03T10:00:00.000",
            "descriptions": [{"lang": "en", "value": f"issue in {cve_id}"}],
            "metrics": metrics,
        }
    }


def page_payload(items, total):
    return {
        "resultsPerPage": len(items),
        "startIndex": 0,
        "totalResults": total,
        "vulnerabilities": items,
    }


class FakeResponse:
    def __init__(self, status_code=200, payload=None, bad_json=False):
        self.status_code = status_code
        self._payload = payload
        self._bad_json = bad_json

    def json(self):
        if self._bad_json:
            raise ValueError("unterminated string")
        return self._payload


class FakeSession:
    """Returns queued responses in order; a queued exception is raised."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def get(self, url, *, params, headers, timeout):
        self.calls.append({"url": url, "params": dict(params), "headers": dict(headers)})
        if not self.outcomes:
            raise AssertionError("fake session exhausted")
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def make_client(session, **kwargs):
    kwargs.setdefault("rate_limiter", RateLimiter(10_000, 30.0))
    kwargs.setdefault("sleep", lambda s: None)
    kwargs.setdefault("rng", random.Random(0))
    return NvdClient(session=session, **kwargs)


# --- pagination -------------------------------------------------------------


def test_single_page_fetch():
    session = FakeSession([FakeResponse(payload=page_payload([api_item("CVE-2024-0001")], 1))])
    records = make_client(session).fetch_window(WINDOW)
    assert [r.cve_id for r in records] == ["CVE-2024-0001"]
    assert records[0].official_score == 9.8
    assert records[0].published == datetime(2024, 1, 3, 10, 0, tzinfo=timezone.utc)


def test_pagination_walks_start_index():
    total = 537
    pages = [
        [api_item(f"CVE-2024-{1000 + k}") for k in range(250)],
        [api_item(f"CVE-2024-{2000 + k}") for k in range(250)],
        [api_item(f"CVE-2024-{3000 + k}") for k in range(37)],
    ]
    session = FakeSession([FakeResponse(payload=page_payload(p, total)) for p in pages])
    window = IngestWindow(start=WINDOW.start, end=WINDOW.end, page_size=250)
    records = make_client(session).fetch_window(window)
    assert len(records) == total
    assert [c["params"]["startIndex"] for c in session.calls] == [0, 250, 500]
    assert all(c["params"]["resultsPerPage"] == 250 for c in session.calls)
    assert len({r.cve_id for r in records}) == total


def test_request_params_use_api_timestamp_format():
    session = FakeSession([FakeResponse(payload=page_payload([], 0))])
    make_client(session).fetch_window(WINDOW)
    params = session.calls[0]["params"]
    assert params["pubStartDate"] == "2024-01-01T00:00:00.000Z"
    assert params["pubEndDate"] == "2024-01-15T00:00:00.000Z"


def test_empty_window_returns_no_records():
    session = FakeSession([FakeResponse(payload={"totalResults": 0})])
    assert make_client(session).fetch_window(WINDOW) == []


def test_empty_page_before_total_reached_is_schema_error():
    session = FakeSession(
        [
            FakeResponse(payload=page_payload([api_item("CVE-2024-0001")], 10)),
            FakeResponse(payload=page_payload([], 10)),
        ]
    )
    with pytest.raises(ApiSchemaChangeError):
        make_client(session).fetch_window(WINDOW)


def test_missing_total_results_is_schema_error():
    session = FakeSession([FakeResponse(payload={"vulnerabilities": []})])
    with pytest.raises(ApiSchemaChangeError) as err:
        make_client(session).fetch_window(WINDOW)
    assert err.value.fieldpath == "totalResults"


@pytest.mark.parametrize(
    "body, fieldpath",
    [
        (["totalResults"], "response body"),
        (7, "response body"),
        ({"totalResults": "many"}, "totalResults"),
        ({"totalResults": True, "vulnerabilities": []}, "totalResults"),
        ({"totalResults": 1.0, "vulnerabilities": []}, "totalResults"),
        ({"totalResults": 1, "vulnerabilities": 5}, "vulnerabilities[]"),
    ],
    ids=["array", "number", "total-string", "total-bool", "total-float", "vulnerabilities-number"],
)
def test_page_of_the_wrong_shape_is_a_schema_error(body, fieldpath):
    session = FakeSession([FakeResponse(payload=body)])
    with pytest.raises(ApiSchemaChangeError) as err:
        make_client(session).fetch_window(WINDOW)
    assert err.value.fieldpath == fieldpath


# --- retry and backoff ------------------------------------------------------


def test_retries_429_then_succeeds_with_seeded_backoff():
    session = FakeSession(
        [
            FakeResponse(status_code=429),
            FakeResponse(status_code=503),
            FakeResponse(payload=page_payload([api_item("CVE-2024-0001")], 1)),
        ]
    )
    sleeps = []
    client = make_client(session, sleep=sleeps.append, backoff_base=1.0, rng=random.Random(0))
    records = client.fetch_window(WINDOW)
    assert len(records) == 1
    assert len(session.calls) == 3
    reference = random.Random(0)
    assert sleeps == [1.0 + reference.uniform(0.0, 1.0), 2.0 + reference.uniform(0.0, 1.0)]


def test_timeout_and_bad_json_are_retried():
    session = FakeSession(
        [
            requests.ConnectTimeout("connect timed out"),
            FakeResponse(bad_json=True),
            FakeResponse(payload=page_payload([api_item("CVE-2024-0001")], 1)),
        ]
    )
    records = make_client(session).fetch_window(WINDOW)
    assert len(records) == 1
    assert len(session.calls) == 3


class DeepJsonResponse(FakeResponse):
    """A 200 response whose body nests deeper than the JSON decoder can go."""

    def json(self):
        return json.loads("[" * 100_000)


def test_a_deeply_nested_body_is_a_malformed_body():
    session = FakeSession(
        [DeepJsonResponse(), FakeResponse(payload=page_payload([api_item("CVE-2024-0001")], 1))]
    )
    assert [r.cve_id for r in make_client(session).fetch_window(WINDOW)] == ["CVE-2024-0001"]
    session = FakeSession([DeepJsonResponse() for _ in range(3)])
    with pytest.raises(NetworkError) as err:
        make_client(session, max_attempts=3).fetch_window(WINDOW)
    assert err.value.attempts == 3
    assert "malformed JSON body: maximum recursion depth" in str(err.value)
    assert len(session.calls) == 3


def test_client_error_fails_fast():
    session = FakeSession([FakeResponse(status_code=404)])
    with pytest.raises(NetworkError) as err:
        make_client(session).fetch_window(WINDOW)
    assert err.value.attempts == 1
    assert "HTTP 404" in str(err.value)
    assert len(session.calls) == 1


def test_exhausted_retries_raise_network_error():
    session = FakeSession([FakeResponse(status_code=503)] * 5)
    with pytest.raises(NetworkError) as err:
        make_client(session, max_attempts=5).fetch_window(WINDOW)
    assert err.value.attempts == 5
    assert err.value.page == 0
    assert "HTTP 503" in str(err.value)
    assert len(session.calls) == 5


def test_http_500_is_retried_like_503():
    session = FakeSession(
        [FakeResponse(status_code=500), FakeResponse(payload=page_payload([api_item("CVE-2024-0001")], 1))]
    )
    assert [r.cve_id for r in make_client(session).fetch_window(WINDOW)] == ["CVE-2024-0001"]
    assert len(session.calls) == 2


def test_no_backoff_follows_the_last_attempt():
    session = FakeSession([FakeResponse(status_code=503)] * 3)
    sleeps = []
    with pytest.raises(NetworkError):
        make_client(session, max_attempts=3, sleep=sleeps.append).fetch_window(WINDOW)
    assert len(session.calls) == 3
    assert len(sleeps) == 2


def test_failure_on_later_page_reports_page_number():
    session = FakeSession(
        [
            FakeResponse(payload=page_payload([api_item("CVE-2024-0001")], 2)),
            FakeResponse(status_code=403),
        ]
    )
    window = IngestWindow(start=WINDOW.start, end=WINDOW.end, page_size=1)
    with pytest.raises(NetworkError) as err:
        make_client(session).fetch_window(window)
    assert err.value.page == 1


# --- rate limiting ----------------------------------------------------------


def test_rate_limiter_blocks_after_burst():
    now = [0.0]
    sleeps = []

    def clock():
        return now[0]

    def sleep(seconds):
        sleeps.append(seconds)
        now[0] += seconds

    limiter = RateLimiter(5, 30.0, clock=clock, sleep=sleep)
    for _ in range(5):
        limiter.acquire()
    assert sleeps == []
    limiter.acquire()
    assert sleeps == [30.0]
    limiter.acquire()  # the burst has aged out, no further wait
    assert sleeps == [30.0]


def test_rate_limiter_ignores_stale_stamps():
    now = [0.0]
    limiter = RateLimiter(2, 30.0, clock=lambda: now[0], sleep=lambda s: pytest.fail("slept"))
    limiter.acquire()
    now[0] = 40.0
    limiter.acquire()
    limiter.acquire()  # only one stamp inside the window


def test_rate_limiter_edge_is_exactly_one_period():
    """A call exactly one period after the oldest stamp waits for nothing,
    and the stamp it leaves is its own time. The clock moves by 1 s at each
    reading, as a real clock moves while the limiter works."""
    now = [0.0]

    def clock():
        now[0] += 1.0
        return now[0] - 1.0

    limiter = RateLimiter(1, 30.0, clock=clock, sleep=lambda s: pytest.fail(f"slept {s}"))
    limiter.acquire()  # stamped at 0
    for start in (30.0, 60.0, 90.0):
        now[0] = start
        limiter.acquire()  # exactly one period after the previous stamp


def test_default_rate_limit_depends_on_api_key():
    assert NvdClient()._limiter.max_calls == 5
    assert NvdClient(api_key="k")._limiter.max_calls == 50


# --- credentials ------------------------------------------------------------


def test_api_key_sent_as_header_and_never_logged(caplog):
    secret = "super-secret-key-12345"
    session = FakeSession(
        [FakeResponse(status_code=429), FakeResponse(payload=page_payload([], 0))]
    )
    client = make_client(session, api_key=secret)
    with caplog.at_level(logging.DEBUG, logger="cverisk.nvd"):
        client.fetch_window(WINDOW)
    assert session.calls[0]["headers"]["apiKey"] == secret
    assert secret not in caplog.text


def test_no_key_sends_no_auth_header():
    session = FakeSession([FakeResponse(payload=page_payload([], 0))])
    make_client(session).fetch_window(WINDOW)
    assert "apiKey" not in session.calls[0]["headers"]


def test_window_key_overrides_client_key():
    session = FakeSession([FakeResponse(payload=page_payload([], 0))])
    window = IngestWindow(start=WINDOW.start, end=WINDOW.end, api_key="window-key")
    make_client(session, api_key="client-key").fetch_window(window)
    assert session.calls[0]["headers"]["apiKey"] == "window-key"


# --- window validation ------------------------------------------------------


def test_window_rejects_inverted_range():
    with pytest.raises(ValueError):
        IngestWindow(start=WINDOW.end, end=WINDOW.start)


def test_window_rejects_an_empty_range():
    with pytest.raises(ValueError, match="window start must precede end"):
        IngestWindow(start=WINDOW.start, end=WINDOW.start)


def test_window_rejects_more_than_120_days():
    with pytest.raises(WindowTooLargeError):
        IngestWindow(start=WINDOW.start, end=WINDOW.start + timedelta(days=121))
    IngestWindow(start=WINDOW.start, end=WINDOW.start + timedelta(days=120))  # boundary ok


def test_window_page_size_bounds():
    with pytest.raises(ValueError):
        IngestWindow(start=WINDOW.start, end=WINDOW.end, page_size=0)
    with pytest.raises(ValueError):
        IngestWindow(start=WINDOW.start, end=WINDOW.end, page_size=2001)


def test_window_normalizes_naive_datetimes_to_utc():
    window = IngestWindow(start=datetime(2024, 1, 1), end=datetime(2024, 1, 2))
    assert window.start.tzinfo == timezone.utc


# --- record extraction ------------------------------------------------------


def test_extract_accepts_bare_cve_object():
    record = extract_record(api_item("CVE-2024-0042")["cve"])
    assert record.cve_id == "CVE-2024-0042"


def test_extract_prefers_primary_metric():
    item = api_item("CVE-2024-0001")
    item["cve"]["metrics"]["cvssMetricV31"] = [
        {
            "type": "Secondary",
            "cvssData": {"baseScore": 5.0, "vectorString": "CVSS:3.1/AV:L/AC:L/PR:L/UI:N/S:U/C:L/I:N/A:N"},
        },
        {
            "type": "Primary",
            "cvssData": {"baseScore": 9.8, "vectorString": "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"},
        },
    ]
    record = extract_record(item)
    assert record.official_score == 9.8


def test_extract_falls_through_incomplete_primary():
    item = api_item("CVE-2024-0001")
    item["cve"]["metrics"]["cvssMetricV31"] = [
        {"type": "Primary", "cvssData": {"vectorString": "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"}},
        {
            "type": "Secondary",
            "cvssData": {"baseScore": 4.3, "vectorString": "CVSS:3.1/AV:N/AC:L/PR:N/UI:R/S:U/C:N/I:L/A:N"},
        },
    ]
    record = extract_record(item)
    assert record.official_score == 4.3


def test_extract_takes_any_metric_when_types_are_unfamiliar():
    item = api_item("CVE-2024-0001")
    item["cve"]["metrics"]["cvssMetricV31"] = [
        {
            "type": "Vendor",
            "cvssData": {"baseScore": 6.1, "vectorString": "CVSS:3.1/AV:N/AC:L/PR:N/UI:R/S:C/C:L/I:L/A:N"},
        }
    ]
    assert extract_record(item).official_score == 6.1


def test_extract_without_v31_metrics_keeps_score_absent():
    record = extract_record(api_item("CVE-2024-0009", vector=None))
    assert record.official_score is None
    assert record.vector_string is None


def test_extract_description_language_fallback(caplog):
    item = api_item("CVE-2024-0001")
    item["cve"]["descriptions"] = [{"lang": "es", "value": "problema de seguridad"}]
    with caplog.at_level(logging.INFO, logger="cverisk.nvd"):
        record = extract_record(item)
    assert record.description == "problema de seguridad"
    assert "lang=es" in caplog.text
    item["cve"]["descriptions"] = []
    assert extract_record(item).description == ""


def test_extract_affected_os_from_cpe():
    item = api_item("CVE-2024-0001")
    item["cve"]["configurations"] = [
        {
            "nodes": [
                {
                    "cpeMatch": [
                        {"criteria": "cpe:2.3:o:linux:linux_kernel:5.4:*:*:*:*:*:*:*"},
                        {"criteria": "cpe:2.3:a:apache:httpd:2.4:*:*:*:*:*:*:*"},
                        {"criteria": "cpe:2.3:o:microsoft:windows_10:-:*:*:*:*:*:*:*"},
                        {"criteria": "cpe:2.3:o:linux:linux_kernel:5.10:*:*:*:*:*:*:*"},
                    ]
                }
            ]
        }
    ]
    record = extract_record(item)
    assert record.affected_os == "linux linux_kernel; microsoft windows_10"
    assert extract_record(api_item("CVE-2024-0002")).affected_os is None


def test_extract_missing_id_or_published():
    with pytest.raises(MissingIdError):
        extract_record({"cve": {"published": "2024-01-01T00:00:00.000"}})
    with pytest.raises(ApiSchemaChangeError):
        extract_record({"cve": {"id": "CVE-2024-0001"}})


@pytest.mark.parametrize(
    "field, value",
    [("id", "CVE-24-1"), ("id", "CVE-\uff12\uff10\uff12\uff14-0001"), ("published", "yesterday")],
    ids=["id", "id-non-ascii-digits", "published"],
)
def test_item_that_breaks_the_record_contract_is_an_nvd_error(field, value):
    item = api_item("CVE-2024-0001")
    item["cve"][field] = value
    session = FakeSession([FakeResponse(payload=page_payload([item], 1))])
    with pytest.raises(NvdError, match=f"API item '{item['cve']['id']}': .*{value}"):
        make_client(session).fetch_window(WINDOW)


def _with_cve(field, value):
    def edit(item):
        item["cve"][field] = value
        return item

    return edit


def _with_metrics(entry):
    def edit(item):
        item["cve"]["metrics"]["cvssMetricV31"] = [entry]
        return item

    return edit


@pytest.mark.parametrize(
    "fieldpath, edit",
    [
        ("vulnerabilities[]", lambda item: "CVE-2024-0001"),
        ("cve.descriptions[]", _with_cve("descriptions", ["issue"])),
        ("cve.metrics", _with_cve("metrics", [{"cvssMetricV31": []}])),
        ("cve.metrics.cvssMetricV31[]", _with_metrics("CVSS:3.1/AV:N")),
        ("cvssMetricV31[].cvssData", _with_metrics({"type": "Primary", "cvssData": [9.8]})),
        ("cve.configurations[]", _with_cve("configurations", [None, {"nodes": []}])),
        ("configurations[].nodes[]", _with_cve("configurations", [{"nodes": ["x"]}])),
        ("nodes[].cpeMatch[]", _with_cve("configurations", [{"nodes": [{"cpeMatch": [5]}]}])),
    ],
    ids=["item", "description", "metrics", "metric", "cvss-data", "configuration", "node", "cpe-match"],
)
def test_non_object_api_entry_is_a_schema_error(fieldpath, edit):
    item = edit(api_item("CVE-2024-0001"))
    session = FakeSession([FakeResponse(payload=page_payload([item], 1))])
    with pytest.raises(ApiSchemaChangeError, match="non-object") as err:
        make_client(session).fetch_window(WINDOW)
    assert err.value.fieldpath == fieldpath


# --- module-level convenience ----------------------------------------------


def test_fetch_window_function_builds_a_client():
    session = FakeSession([FakeResponse(payload=page_payload([api_item("CVE-2024-0001")], 1))])
    records = fetch_window(
        WINDOW, session=session, rate_limiter=RateLimiter(100, 30.0), sleep=lambda s: None
    )
    assert len(records) == 1
