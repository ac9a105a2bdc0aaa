"""Offline benchmark of the cverisk CLI: analyze, calibrate and score.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each workload generates its inputs from
``--seed`` (see gen.py), runs one discarded warm-up command, then repeats
the command as a subprocess (``python -m cverisk.cli`` with ``src`` on
``PYTHONPATH``) for about ``--seconds`` seconds and reports medians. Every
output is checked (see check.py); a run that exits non-zero or fails a
check counts in ``error_rate``.

With ``--trace 1`` the workload instead runs in-process (see tracing.py):
untraced runs give the reference wall time, one traced run gives the
per-layer numbers and the tracing overhead. Traced numbers never enter the
end-to-end metrics.

Human-readable lines go to standard output first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORK = HERE / "_work"
REQUIRED = (
    REPO / "src" / "cverisk" / "cli.py",
    REPO / "tests" / "data" / "make_sample_cache.py",
    REPO / "tests" / "oracles.py",
    REPO / "src" / "cverisk" / "schemas" / "summary.schema.json",
)

NVD_RECORDS = 50_000
DIRTY_RECORDS = 100_000
N_CAL = 1000
# Repetitions follow --seconds (so a run's length stays bounded on a slow,
# busy machine) but never drop below MIN_REPS.
MIN_REPS = 2
SETUP_PER_ROUND = 2
STDERR_TAIL = 2000

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("records_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)
# name, unit; a layer a workload never reaches reports 0.
PER_LAYER = (
    ("cache.read_s", "s"),
    ("cache.records_read", "count"),
    ("cache.lines_skipped", "count"),
    ("cache.sha256_s", "s"),
    ("records.from_dict_s", "s"),
    ("vector.parse_s", "s"),
    ("vector.parse_calls", "count"),
    ("vector.parse_errors", "count"),
    ("vector.distinct_strings", "count"),
    ("vector.parse_redundancy", "ratio"),
    ("encoding.encode_s", "s"),
    ("model.score_s", "s"),
    ("model.score_self_s", "s"),
    ("model.score_record_calls", "count"),
    ("model.rescore_ratio", "ratio"),
    ("model.records_scored", "count"),
    ("model.records_skipped", "count"),
    ("calibration.weights_s", "s"),
    ("calibration.kappa_s", "s"),
    ("calibration.sample_n", "count"),
    ("calibration.sample_distinct_vectors", "count"),
    ("analytics.conditional_s", "s"),
    ("analytics.cross_s", "s"),
    ("analytics.group_s", "s"),
    ("analytics.correlation_s", "s"),
    ("analytics.joint_risk_s", "s"),
    ("analytics.joint_risk_calls", "count"),
    ("analytics.distribution_s", "s"),
    ("analytics.agreement_s", "s"),
    ("report.build_s", "s"),
    ("report.build_self_s", "s"),
    ("report.method_comparison_self_s", "s"),
    ("report.write_s", "s"),
    ("report.files_written", "count"),
    ("report.bytes_written", "bytes"),
    ("cli.write_csv_s", "s"),
    ("cli.rows_written", "count"),
    ("cli.bytes_written", "bytes"),
    ("cli.calibration_sample_self_s", "s"),
    ("runtime.gc_s", "s"),
    ("runtime.gc_collections", "count"),
    ("trace.overhead_s", "s"),
)


# --------------------------------------------------------------------------
# inputs and workloads
# --------------------------------------------------------------------------


@dataclass
class Inputs:
    nvd: tuple | None = None  # (path, truth, properties)
    dirty: tuple | None = None
    config: Path | None = None
    weights: dict | None = None
    exclude: Path | None = None
    exclude_ids: list = field(default_factory=list)


def prepare(names: list[str], seed: int, work: Path) -> Inputs:
    import gen

    work.mkdir(parents=True, exist_ok=True)
    fx = gen.load_fixture_module(REPO)
    inputs = Inputs()
    if {"analyze-nvd", "calibrate-grid"} & set(names):
        path = work / "nvd.jsonl"
        truth = gen.nvd_cache(fx, path, NVD_RECORDS, seed)
        inputs.nvd = (path, truth, gen.properties(truth, path))
    if "analyze-nvd" in names:
        inputs.config = work / "model_config.txt"
        inputs.weights = gen.write_config(inputs.config)
        inputs.exclude = work / "exclude_ids.txt"
        inputs.exclude_ids = gen.write_exclusions(inputs.exclude, inputs.nvd[1], seed)
    if "score-dirty" in names:
        path = work / "dirty.jsonl"
        truth = gen.dirty_cache(fx, path, DIRTY_RECORDS, seed)
        inputs.dirty = (path, truth, gen.properties(truth, path))
    return inputs


@dataclass(frozen=True)
class Workload:
    name: str
    cache: str  # "nvd" or "dirty"

    def args(self, inputs: Inputs, out: Path, seed: int) -> list[str]:
        cache = str(getattr(inputs, self.cache)[0])
        if self.name == "analyze-nvd":
            return ["analyze", "--cache", cache, "--config", str(inputs.config),
                    "--exclude-ids", str(inputs.exclude), "--out", str(out)]
        if self.name == "calibrate-grid":
            return ["calibrate", "--cache", cache, "--n-cal", str(N_CAL), "--seed", str(seed),
                    "--out", str(out)]
        return ["score", "--lenient", "--cache", cache, "--out", str(out)]

    def check(self, inputs: Inputs, out: Path, seed: int) -> list[str]:
        import check

        started = time.perf_counter()
        truth = getattr(inputs, self.cache)[1]
        try:
            if self.name == "analyze-nvd":
                problems = check.check_analyze(REPO, out, truth, inputs.exclude_ids, inputs.weights)
                code, tail = report_bundle(out)
                if code != 0:
                    problems.append(f"report --bundle exited {code}: {tail}")
            elif self.name == "calibrate-grid":
                problems = check.check_calibrate(REPO, out, truth, N_CAL, seed)
            else:
                problems = check.check_score(REPO, out, truth)
        except Exception:
            # Output the checks cannot even read (a missing file or key) is
            # wrong output, reported like any other failed check.
            problems = ["check raised: " + traceback.format_exc(limit=3)[-800:]]
        print(f"[{self.name}] outputs checked in {time.perf_counter() - started:.2f} s: "
              f"{len(problems)} problems")
        return problems

    def records(self, inputs: Inputs) -> int:
        return getattr(inputs, self.cache)[2]["cache_lines"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("analyze-nvd", "nvd"),
        Workload("calibrate-grid", "nvd"),
        Workload("score-dirty", "dirty"),
    )
}


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    # Cache the package's bytecode as an installed package would, so that
    # setup_s measures imports, not compiling src/ in every process.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Run:
    wall: float
    cpu: float
    rss_mib: float
    code: int
    tail: str


def run_child(argv: list[str]) -> Run:
    """Run one command; its stdout and stderr share one pipe that is
    drained (only the tail is kept) so a chatty child never blocks. The
    child's own CPU time and peak RSS come from wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=REPO, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    tail = b""
    try:
        with proc.stdout:
            for chunk in iter(lambda: proc.stdout.read(65536), b""):
                tail = (tail + chunk)[-STDERR_TAIL:]
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
               proc.returncode, tail.decode("utf-8", "replace"))


def cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "cverisk.cli", *args]


def report_bundle(out: Path) -> tuple[int, str]:
    run = run_child(cli(["report", "--bundle", str(out)]))
    return run.code, run.tail[-300:]


def fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


@dataclass
class Setup:
    """Wall times of a fresh ``cverisk --version``: interpreter start plus
    package imports. Samples are taken a few at a time between workload
    rounds, so short bursts of load on the machine cannot move them all."""

    walls: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    attempted: int = 0

    def sample(self, n: int = SETUP_PER_ROUND, keep: bool = True) -> None:
        for _ in range(n):
            self.attempted += 1
            run = run_child(cli(["--version"]))
            if run.code != 0 or "cverisk" not in run.tail:
                self.problems.append(f"--version exited {run.code}: {run.tail[-300:]}")
            elif keep:
                self.walls.append(run.wall)


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------


@dataclass
class Result:
    workload: Workload
    runs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""
    reps: int = MIN_REPS
    wrong_output: bool = False


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f" (q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)})"


def measure(names: list[str], seed: int, seconds: float, work: Path, inputs: Inputs,
            setup: Setup) -> dict:
    """Warm up each workload, then run rounds of one command per workload,
    alternating the workload order from round to round, with setup samples
    before the first round and after each."""
    from check import tree_digest

    results = {name: Result(WORKLOADS[name]) for name in names}
    for name, res in results.items():
        out = fresh(work / f"{name}-warmup")
        run = run_child(cli(res.workload.args(inputs, out, seed)))
        res.attempted += 1
        if run.code != 0:
            res.failed += 1
            res.problems.append(f"warm-up exited {run.code}: {run.tail[-500:]}")
            continue
        res.digest = tree_digest(out)
        problems = res.workload.check(inputs, out, seed)
        res.problems.extend(problems)
        res.wrong_output = bool(problems)
        # As many repetitions as fit in the time budget, at least MIN_REPS.
        res.reps = max(MIN_REPS, int(seconds // run.wall))
    rounds = max(res.reps for res in results.values())
    setup.sample()
    for r in range(rounds):
        order = names if r % 2 == 0 else names[::-1]
        for name in order:
            res = results[name]
            if r >= res.reps or not res.digest:
                continue
            out = fresh(work / f"{name}-run")
            run = run_child(cli(res.workload.args(inputs, out, seed)))
            res.attempted += 1
            if run.code != 0:
                res.failed += 1
                res.problems.append(f"run {r} exited {run.code}: {run.tail[-500:]}")
            elif tree_digest(out) != res.digest:
                res.failed += 1
                res.problems.append(f"run {r} output differs from the warm-up's")
            else:
                res.runs.append(run)
        setup.sample()
    for res in results.values():
        if res.wrong_output:
            res.failed = res.attempted  # every run wrote the same wrong bytes
    return results


def end_to_end(names: list[str], seed: int, seconds: float, work: Path) -> tuple[dict, int, int, bool]:
    started = time.perf_counter()
    inputs = prepare(names, seed, work)
    print(f"inputs generated in {time.perf_counter() - started:.2f} s")
    setup = Setup()
    setup.sample(1, keep=False)  # the first run also writes the bytecode cache
    results = measure(names, seed, seconds, work, inputs, setup)
    setup_walls = setup.walls
    setup_s = statistics.median(setup_walls) if setup_walls else 0.0
    metrics, attempted, failed = {}, setup.attempted, len(setup.problems)
    for name, res in results.items():
        attempted += res.attempted
        failed += res.failed
        w = res.workload
        props = getattr(inputs, w.cache)[2]
        print(f"[{name}] input: {json.dumps(props, sort_keys=True)}")
        for problem in res.problems[:20]:
            print(f"[{name}] FAILED: {problem}")
        walls = [r.wall for r in res.runs]
        values = {}
        if walls and setup_walls:
            wall = statistics.median(walls)
            values = {
                "wall_s": wall,
                "cpu_s": statistics.median(r.cpu for r in res.runs),
                "records_per_s": w.records(inputs) / wall,
                "peak_rss_mib": statistics.median(r.rss_mib for r in res.runs),
                "setup_s": setup_s,
            }
            print(f"[{name}] wall_s = {wall:.4f} s{_quartiles(walls)}")
            print(f"[{name}] cpu_s = {values['cpu_s']:.4f} s{_quartiles([r.cpu for r in res.runs])}")
            print(f"[{name}] records_per_s = {values['records_per_s']:.1f} 1/s "
                  f"({w.records(inputs)} cache records / median wall_s)")
            print(f"[{name}] peak_rss_mib = {values['peak_rss_mib']:.1f} MiB"
                  f"{_quartiles([r.rss_mib for r in res.runs])}")
            print(f"[{name}] setup_s = {setup_s:.4f} s{_quartiles(setup_walls)}")
        print(f"[{name}] error_rate = {res.failed / max(res.attempted, 1):.4f} "
              f"({res.failed} of {res.attempted} runs)")
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, unit in END_TO_END:
            if metric in values:
                metrics[prefix + metric] = {"value": values[metric], "unit": unit}
        _save(work, name, seed, {"inputs": props, "metrics": values, "problems": res.problems,
                                 "runs": [vars(r) for r in res.runs], "setup_walls": setup_walls})
    complete = len(metrics) == len(END_TO_END) * len(names)
    return metrics, attempted, failed, complete


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------


def _inproc(args: list[str], result: Path, traced: bool) -> tuple[Run, dict]:
    argv = [sys.executable, str(HERE / "tracing.py"), "--result", str(result)]
    run = run_child(argv + (["--trace"] if traced else []) + ["--", *args])
    data = json.loads(result.read_text()) if run.code == 0 and result.exists() else {}
    return run, data


def layer_metrics(data: dict, untraced_wall: float) -> dict:
    stats, counts = data["stats"], data["counts"]

    def total(*names):
        return sum(stats[n]["total"] for n in names if n in stats)

    def self_time(*names):
        return sum(stats[n]["self_time"] for n in names if n in stats)

    def calls(name):
        return stats[name]["calls"] if name in stats else 0

    parse_calls = counts.get("vector.parse_calls", 0)
    distinct_scored = counts.get("model.distinct_records_scored", 0)
    return {
        "cache.read_s": total("cache.read"),
        "cache.records_read": counts.get("cache.records_read", 0),
        "cache.lines_skipped": counts.get("cache.lines_skipped", 0),
        "cache.sha256_s": total("cache.sha256"),
        "records.from_dict_s": total("records.from_dict"),
        "vector.parse_s": total("vector.parse"),
        "vector.parse_calls": parse_calls,
        "vector.parse_errors": counts.get("vector.parse_errors", 0),
        "vector.distinct_strings": counts.get("vector.distinct_strings", 0),
        "vector.parse_redundancy": counts.get("vector.parse_repeats", 0) / parse_calls if parse_calls else 0.0,
        "encoding.encode_s": total("encoding.encode"),
        "model.score_s": total("model.score"),
        "model.score_self_s": self_time("model.score", "model.score_record"),
        "model.score_record_calls": calls("model.score_record"),
        "model.rescore_ratio": calls("model.score_record") / distinct_scored if distinct_scored else 0.0,
        "model.records_scored": counts.get("model.records_scored", 0),
        "model.records_skipped": counts.get("model.records_skipped", 0),
        "calibration.weights_s": total("calibration.weights"),
        "calibration.kappa_s": total("calibration.kappa"),
        "calibration.sample_n": counts.get("calibration.sample_n", 0),
        "calibration.sample_distinct_vectors": counts.get("calibration.sample_distinct_vectors", 0),
        "analytics.conditional_s": total("analytics.conditional"),
        "analytics.cross_s": total("analytics.cross"),
        "analytics.group_s": total("analytics.group"),
        "analytics.correlation_s": total("analytics.correlation"),
        "analytics.joint_risk_s": total("analytics.joint_risk", "analytics.joint_risk_config"),
        "analytics.joint_risk_calls": calls("analytics.joint_risk"),
        "analytics.distribution_s": total("analytics.distribution"),
        "analytics.agreement_s": total("analytics.agreement"),
        "report.build_s": total("report.build"),
        "report.build_self_s": self_time("report.build"),
        "report.method_comparison_self_s": self_time("report.method_comparison"),
        "report.write_s": total("report.write"),
        "report.files_written": counts.get("report.files_written", 0),
        "report.bytes_written": counts.get("report.bytes_written", 0),
        "cli.write_csv_s": total("cli.write_csv"),
        "cli.rows_written": counts.get("cli.rows_written", 0),
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
        "cli.calibration_sample_self_s": self_time("cli.calibration_sample"),
        "runtime.gc_s": counts.get("runtime.gc_s", 0.0),
        "runtime.gc_collections": counts.get("runtime.gc_collections", 0),
        "trace.overhead_s": data["wall_s"] - untraced_wall,
    }


def traced(names: list[str], seed: int, seconds: float, work: Path) -> tuple[dict, int, int, bool]:
    """Per workload: an untraced in-process warm-up (its outputs are
    checked), untraced repetitions for the reference wall time, then one
    traced run whose outputs must match the warm-up's byte for byte."""
    from check import tree_digest

    inputs = prepare(names, seed, work)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        w = WORKLOADS[name]
        out = work / f"{name}-inproc"
        result = work / f"{name}-inproc.json"
        problems, walls, runs = [], [], 0

        def once(is_traced: bool) -> dict:
            nonlocal runs
            runs += 1
            run, data = _inproc(w.args(inputs, fresh(out), seed), result, is_traced)
            if run.code != 0 or data.get("exit_code") != 0:
                problems.append(f"in-process run {runs} failed: {run.tail[-500:]}")
                return {}
            return data

        warm = once(False)
        if warm:
            digest = tree_digest(out)
            problems.extend(w.check(inputs, out, seed))
            for _ in range(max(MIN_REPS, int(seconds // warm["wall_s"]))):
                data = once(False)
                if data and tree_digest(out) != digest:
                    problems.append(f"in-process run {runs} output differs from the warm-up's")
                elif data:
                    walls.append(data["wall_s"])
            data = once(True)
            if data and tree_digest(out) != digest:
                problems.append("traced run output differs from the warm-up's")
            elif data and walls:
                untraced = statistics.median(walls)
                layers = layer_metrics(data, untraced)
                print(f"[{name}] traced wall {data['wall_s']:.4f} s, untraced median "
                      f"{untraced:.4f} s{_quartiles(walls)}")
                if data["missing"]:
                    print(f"[{name}] not found, so not traced: {', '.join(data['missing'])}")
                if name == "analyze-nvd":
                    import check

                    rows = check.analyzed(inputs.nvd[1], inputs.exclude_ids)[2]
                    print(f"[{name}] records analyzed (generator tally): {len(rows)}")
                prefix = "" if len(names) == 1 else f"{name}."
                for metric, unit in PER_LAYER:
                    metrics[prefix + metric] = {"value": layers[metric], "unit": unit}
                    print(f"[{name}] {metric} = {layers[metric]:.6g} {unit}")
                _save(work, name, seed, {"layers": layers, "spans": data["spans"],
                                         "stats": data["stats"], "counts": data["counts"]},
                      kind="trace")
        for problem in problems[:20]:
            print(f"[{name}] FAILED: {problem}")
        attempted += runs
        failed += runs if problems else 0
    complete = len(metrics) == len(PER_LAYER) * len(names)
    return metrics, attempted, failed, complete


# --------------------------------------------------------------------------


def _save(work: Path, name: str, seed: int, data: dict, kind: str = "result") -> None:
    """Results and traces outlive the run's scratch inputs."""
    out = work.parent / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{kind}-{name}-seed{seed}.json").write_text(json.dumps(data, indent=1, sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description="Offline cverisk benchmark.")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args()
    missing = [str(p.relative_to(REPO)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: run from a full checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    # A terminated run still stops and reaps its child (see run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = WORK / f"{ns.workload}-seed{ns.seed}-{os.getpid()}"
    try:
        mode = traced if ns.trace else end_to_end
        metrics, attempted, failed, complete = mode(names, ns.seed, ns.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
