"""Run one cverisk CLI command in this process, optionally traced.

    python3 perfbench/tracing.py --result FILE [--trace] -- <cverisk arguments>

The command runs through click's ``main(..., standalone_mode=False)``; the
wall time around that call goes to FILE as JSON. With ``--trace`` the
package's functions are first wrapped at the module attributes where
``cverisk.cli``, ``cverisk.report``, ``cverisk.model`` and ``cverisk.cache``
look them up, so nothing under ``src/`` changes. Each wrapper records a
span (name, start, end, parent) and adds its duration to its parent's child
time, which gives every layer's self time. Per-record functions, called
hundreds of thousands of times, are only counted and timed, not stored as
individual spans, so tracing stays affordable. The parent process starts
this script once per run, so no state carries over between runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import sys
import time
import types
from dataclasses import dataclass, field

# (module, attribute, span name, per-record)
TARGETS = (
    ("cverisk.cli", "read_cache", "cache.read", False),
    ("cverisk.cli", "body_sha256", "cache.sha256", False),
    ("cverisk.cli", "score_records", "model.score", False),
    ("cverisk.cli", "_calibration_sample", "cli.calibration_sample", False),
    ("cverisk.cli", "calibrate_weights", "calibration.weights", False),
    ("cverisk.cli", "build_bundle", "report.build", False),
    ("cverisk.cli", "write_bundle", "report.write", False),
    ("cverisk.cli", "write_csv", "cli.write_csv", False),
    ("cverisk.model", "parse_vector", "vector.parse", True),
    ("cverisk.model", "encode_factors", "encoding.encode", True),
    ("cverisk.model", "score_record", "model.score_record", True),
    ("cverisk.report", "score_records", "model.score", False),
    ("cverisk.report", "score_record", "model.score_record", True),
    ("cverisk.report", "calibrate_kappa", "calibration.kappa", False),
    ("cverisk.report", "conditional_matrix", "analytics.conditional", False),
    ("cverisk.report", "cross_statistics", "analytics.cross", False),
    ("cverisk.report", "group_statistics", "analytics.group", False),
    ("cverisk.report", "high_risk_share", "analytics.group", False),
    ("cverisk.report", "correlation_matrix", "analytics.correlation", False),
    ("cverisk.report", "joint_risk_index", "analytics.joint_risk", True),
    ("cverisk.report", "ecdf", "analytics.distribution", False),
    ("cverisk.report", "kernel_density", "analytics.distribution", False),
    ("cverisk.report", "mae", "analytics.agreement", False),
    ("cverisk.report", "spearman_rho", "analytics.agreement", False),
    ("cverisk.report", "_method_comparison", "report.method_comparison", False),
)
# Class constructors looked up as ``Class.method`` in a module.
CLASS_TARGETS = (
    ("cverisk.cache", "CveRecord", "from_dict", "records.from_dict", True),
    ("cverisk.report", "FactorMatrix", "from_scored", "analytics.correlation", False),
    ("cverisk.report", "JointRiskConfig", "from_data", "analytics.joint_risk_config", False),
)


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)
    _strings: set = field(default_factory=set)
    _scored_ids: set = field(default_factory=set)
    _vector_error: type = Exception
    _gc_start: float = 0.0
    _handler: logging.Handler | None = None

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, per_record: bool, after=None):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            parent = stack[-1][1] if stack else None
            span_id = len(spans)
            if not per_record:
                spans.append(None)  # reserve the id; filled in on exit
            # Per-record calls store no span, so their children hang off the
            # nearest stored ancestor.
            stack.append((frame, parent if per_record else span_id))
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if stack:
                    stack[-1][0][0] += elapsed
                if not per_record:
                    spans[span_id] = (span_id, name, start, end, parent)
                if after is not None:
                    after(args, result, error)

        return wrapper

    # ---- counters taken where the work happens -----------------------------

    def _after_read(self, args, result, exc):
        if result is not None:
            self.count("cache.records_read", len(result))

    def _after_parse(self, args, result, exc):
        self.count("vector.parse_calls")
        s = args[0]
        if s in self._strings:
            self.count("vector.parse_repeats")
        else:
            self._strings.add(s)
        if isinstance(exc, self._vector_error):
            self.count("vector.parse_errors")

    def _after_score_record(self, args, result, exc):
        self._scored_ids.add(args[0].cve_id)

    def _after_score(self, args, result, exc):
        if result is not None:
            scored, skipped = result
            self.count("model.records_scored", len(scored))
            self.count("model.records_skipped", len(skipped))

    def _after_weights(self, args, result, exc):
        sample = args[0]
        self.count("calibration.sample_n", len(sample))
        self.count("calibration.sample_distinct_vectors", len({sr.vector for sr in sample}))

    def _after_write_bundle(self, args, result, exc):
        if result is not None:
            self.count("report.files_written", len(result))
            self.count("report.bytes_written", sum(os.path.getsize(p) for p in result))

    def _after_cli_csv(self, args, result, exc):
        if exc is None:
            self.count("cli.rows_written", len(args[2]))
            self.count("cli.bytes_written", os.path.getsize(args[0]))

    AFTER = {
        "cache.read": "_after_read",
        "vector.parse": "_after_parse",
        "model.score_record": "_after_score_record",
        "model.score": "_after_score",
        "calibration.weights": "_after_weights",
        "report.write": "_after_write_bundle",
        "cli.write_csv": "_after_cli_csv",
    }

    def install(self) -> None:
        import importlib

        from cverisk.vector import VectorError

        self._vector_error = VectorError
        for module_name, attr, name, per_record in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            after = getattr(self, self.AFTER[name]) if name in self.AFTER else None
            setattr(module, attr, self.wrap(name, fn, per_record, after))
            self._restore.append((module, attr, fn))
        for module_name, cls_name, attr, name, per_record in CLASS_TARGETS:
            module = importlib.import_module(module_name)
            cls = getattr(module, cls_name, None)
            method = getattr(cls, attr, None)
            if method is None:
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            # The module sees a stand-in whose only attribute is the wrapped
            # constructor; the class itself is left untouched.
            setattr(module, cls_name, types.SimpleNamespace(**{attr: self.wrap(name, method, per_record)}))
            self._restore.append((module, cls_name, cls))

        self._handler = _CountHandler(self)
        logging.getLogger("cverisk.cache").addHandler(self._handler)
        gc.callbacks.append(self._gc)

    def _gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.count("runtime.gc_collections")
            self.counts["runtime.gc_s"] = self.counts.get("runtime.gc_s", 0.0) + (
                time.perf_counter() - self._gc_start
            )

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc)
        logging.getLogger("cverisk.cache").removeHandler(self._handler)
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self.counts["model.distinct_records_scored"] = len(self._scored_ids)
        self.counts["vector.distinct_strings"] = len(self._strings)


class _CountHandler(logging.Handler):
    """Counts the cache reader's skip warnings (lenient mode drops lines)."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        self.tracer.count("cache.lines_skipped")


def run(cli_args: list[str], traced: bool) -> dict:
    from cverisk.cli import main

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    exit_code = 0
    start = time.perf_counter()
    try:
        try:
            main.main(args=cli_args, prog_name="cverisk", standalone_mode=False)
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else 1
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    result = {"wall_s": wall, "exit_code": exit_code}
    if tracer is not None:
        result.update(
            spans=[dict(zip(("id", "name", "start", "end", "parent"), s)) for s in tracer.spans],
            stats={k: vars(v) for k, v in tracer.stats.items()},
            counts=tracer.counts,
            missing=tracer.missing,
        )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    ns = parser.parse_args()
    cli_args = ns.cli_args[1:] if ns.cli_args[:1] == ["--"] else ns.cli_args
    result = run(cli_args, ns.trace)
    with open(ns.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
