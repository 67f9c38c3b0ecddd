"""Run one workload of the fuzzrel benchmark and print its result.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 10 --trace 0

Run from the root of a fuzzrel checkout; the package is imported from
its src/ directory. The run writes the workload's model files under
perfbench/.work/, measures set-up in fresh interpreters, then calls
fuzzrel.cli.main in-process, one operation after another (a closed loop
with one client), in whole passes over the workload's operations until
--seconds have elapsed. Every operation's output is checked.

With --trace 0 the result carries the end-to-end metrics. With --trace 1
the run makes one pass in which each operation runs both untraced and
traced, and reports the per-layer metrics of the traced calls, plus the
tracing overhead.

Human-readable lines come first: every named metric with its unit and
sample count, the environment, and any failed operation. The last line
is the JSON result. A full record is written to
perfbench/.work/records/. The run exits 2, printing no result, when it
cannot find or import fuzzrel.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPEATS = 5  # fresh-interpreter set-ups per timed run
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120
SHOWN_FAILURES = 10

# Name of each operation kind's median time in the printed report.
KIND_METRICS = {
    "mtbf_curve": "mtbf_curve_s",
    "availability_table": "availability_table_s",
    "reliability_curve": "reliability_curve_s",
    "calibrate": "calibrate_s",
    "sim_mttf": "sim_mttf_s",
    "sim_availability": "sim_availability_s",
    "crisp_report": "crisp_report_ms",
}

# The gated metrics, as BENCHMARK.json names them.
END_TO_END = ("setup_s", "pass_s", "op_s_geomean")

# The speed probe: a fixed loop timed every PROBE_INTERVAL_S on a thread
# of its own, and its median duration at the machine's usual speed.
PROBE_LOOPS = 5000
PROBE_INTERVAL_S = 0.1
PROBE_NOMINAL_S = 3.7e-4

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import fuzzrel.cli; "
    "fuzzrel.cli.load_model_config(sys.argv[2])"
)
IMPORT_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import {module}; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# -- environment -------------------------------------------------------------


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads_env: str | None) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = "unknown"
    with contextlib.suppress(Exception):
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name", "") + " " + deps[k].get("version", "")
                for k in ("blas", "lapack")}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                             if k in os.environ},
        "git_commit": git_commit(ROOT),
        "fuzzrel_threads_set": threads_env is not None,
        "fuzzrel_threads": threads_env,
    }


# -- fresh interpreters ------------------------------------------------------


def fresh_interpreter(code: str, *args: str) -> tuple[float, str]:
    """Wall time and stdout of `python -c code args` in a new process."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {done.stderr.strip()}")
    return wall, done.stdout


def setup_times(config: str, repeats: int) -> list[float]:
    """Fresh interpreter, `import fuzzrel` and loading the workload's config."""
    return [fresh_interpreter(SETUP_CODE, str(SRC), config)[0] for _ in range(repeats)]


def import_time(module: str) -> float:
    """Median in-process time to import one module, each in a fresh interpreter."""
    return statistics.median(
        float(fresh_interpreter(IMPORT_CODE.format(module=module), str(SRC))[1])
        for _ in range(IMPORT_REPEATS)
    )


# -- machine speed -----------------------------------------------------------


def probe_work() -> int:
    """Interpreter arithmetic that holds the interpreter lock throughout,
    so that the program under test cannot lengthen it by taking the lock."""
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return total


class SpeedProbe:
    """Times probe_work every PROBE_INTERVAL_S while a run measures.

    Shared CPUs drift in speed by tens of percent over minutes. Dividing a
    run's times by speed_factor(), the probe's median duration over its
    nominal one, states them at the machine's usual speed. The probe
    takes about 0.4% of one CPU.
    """

    def __init__(self):
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe")

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            start = time.perf_counter()
            probe_work()
            self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def speed_factor(self) -> float:
        return statistics.median(self.durations) / PROBE_NOMINAL_S


# -- operations --------------------------------------------------------------


def call(cli, op: workloads.Op) -> tuple[float, checks.Outcome]:
    """Time one CLI call in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception:  # an uncaught error is a verdict, not the end of the run
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return elapsed, checks.Outcome(code, out.getvalue(), err.getvalue())


class Tally:
    """Attempted and failed operations, and the times of those that ran.

    Outcomes are counted per distinct operation, not per call, so that
    `failed` does not grow with the number of passes: an operation
    failed if any of its calls failed. Per-call counts go to the record.
    """

    def __init__(self):
        self.operations: set[workloads.Op] = set()
        self.failed_operations: set[workloads.Op] = set()
        self.statuses = Counter()  # per call
        self.causes = Counter()  # per call
        self.failures: list[str] = []
        # per operation: times of the calls that ran, and of the others
        self.times: dict[workloads.Op, list[float]] = defaultdict(list)
        self.error_times: dict[workloads.Op, list[float]] = defaultdict(list)

    def record(self, op: workloads.Op, elapsed: float, verdict: checks.Verdict,
               timed: bool = True) -> None:
        self.operations.add(op)
        self.statuses[verdict.status] += 1
        if verdict.failed:
            self.failed_operations.add(op)
            self.causes[f"{op.kind} {verdict.status}: "
                        + re.sub(r"[-+]?\d[\d.e+-]*", "#", verdict.detail)[:120]] += 1
            if len(self.failures) < SHOWN_FAILURES:
                self.failures.append(f"{op.kind} {' '.join(op.argv)}: {verdict.status} "
                                     f"{verdict.detail[:300]}")
        if timed:
            ran = verdict.status in (checks.OK, checks.MISSED_CHECK)
            (self.times if ran else self.error_times)[op].append(elapsed)

    @property
    def attempted(self) -> int:
        return len(self.operations)

    @property
    def failed(self) -> int:
        return len(self.failed_operations)

    @property
    def calls(self) -> int:
        return sum(self.statuses.values())

    @property
    def correct(self) -> bool:
        return self.statuses[checks.WRONG] == 0

    def kind_times(self, kind: str) -> list[float]:
        """Times of the calls of one kind that ran; of all attempts if none did."""
        ran = [t for op, ts in self.times.items() if op.kind == kind for t in ts]
        return ran or [t for op, ts in self.error_times.items() if op.kind == kind for t in ts]


def run_op(cli, op, tally: Tally,
           timed: bool = True) -> tuple[float, checks.Outcome, checks.Verdict]:
    elapsed, outcome = call(cli, op)
    verdict = op.verdict(outcome)
    tally.record(op, elapsed, verdict, timed)
    return elapsed, outcome, verdict


# -- runs ---------------------------------------------------------------------


def run_passes(cli, wl: workloads.Workload, seconds: float, tally: Tally) -> int:
    """The probes once, then whole passes: one, and more while the next
    is expected to end within `seconds` of the start."""
    for probe in wl.probes:
        run_op(cli, probe, tally, timed=False)
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for op in wl.ops:
            run_op(cli, op, tally)
        passes += 1
        now = time.perf_counter()
        if now + (now - pass_start) - start > seconds:
            return passes


def timed_run(cli, wl: workloads.Workload, seconds: float, tally: Tally) -> dict:
    """Set-up samples and about `seconds` of whole passes; end-to-end metrics."""
    # set-ups before and after the passes, so that they sample the
    # machine's speed over the whole run
    before = SETUP_REPEATS // 2 + 1
    with SpeedProbe() as probe:
        setups = setup_times(wl.setup_config, before)
        passes = run_passes(cli, wl, seconds, tally)
        setups += setup_times(wl.setup_config, SETUP_REPEATS - before)
    named = {"wall.setup_s": (statistics.median(setups), "s", len(setups))}
    for kind in dict.fromkeys(op.kind for op in wl.ops):
        name = KIND_METRICS[kind]
        times = tally.kind_times(kind)
        if name.endswith("_ms"):
            ms = [t * 1e3 for t in times]
            named[name + "_p50"] = (statistics.median(ms), "ms", len(ms))
            if len(ms) >= 2:
                named[name + "_p99"] = (statistics.quantiles(ms, n=100)[98], "ms", len(ms))
        else:
            named[name] = (statistics.median(times), "s", len(times))
    named["failed_frac"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    # Each operation is one call on one input, timed by its median over
    # the passes, so inputs of unequal cost are never pooled in one median.
    every = [statistics.median(tally.times[op] + tally.error_times[op]) for op in wl.ops]
    ran = [statistics.median(tally.times[op]) for op in wl.ops if tally.times[op]]
    named["wall.pass_s"] = (sum(every), "s", passes)
    named["wall.op_s_geomean"] = (
        math.exp(statistics.fmean(math.log(m) for m in ran or every)), "s", passes
    )
    speed = probe.speed_factor()
    named["machine.speed_factor"] = (speed, "ratio", len(probe.durations))
    for name in END_TO_END:
        value, unit, n = named["wall." + name]
        named[name] = (value / speed, unit, n)
    return {"passes": passes, "named": named,
            "metrics": {k: named[k] for k in END_TO_END}}


def traced_run(cli, wl: workloads.Workload, tally: Tally) -> dict:
    """One pass in which each operation runs both untraced and traced;
    per-layer metrics of the traced calls. Pairing the calls keeps drift
    in the machine's speed out of the tracing overhead, and alternating
    which call of a pair goes first keeps out the gain of the second
    call from caches the first one warmed."""
    import tracing

    imports = {m: import_time(m) for m in ("fuzzrel", "scipy.optimize")}
    for probe in wl.probes:
        run_op(cli, probe, tally, timed=False)
    stats = layers.LayerStats()

    def traced_call(op) -> float:
        with tracing.Tracer() as tracer:
            elapsed, outcome, verdict = run_op(cli, op, tally)
        stats.add(op, tracer.take(), outcome, verdict, wl.sim_work.get(op.kind))
        return elapsed

    untraced = traced = 0.0
    for i, op in enumerate(wl.ops):
        if i % 2:
            traced += traced_call(op)
            untraced += run_op(cli, op, tally)[0]
        else:
            untraced += run_op(cli, op, tally)[0]
            traced += traced_call(op)
    metrics = stats.metrics()
    metrics["setup.import_fuzzrel_s"] = (imports["fuzzrel"], "s")
    metrics["setup.import_scipy_optimize_s"] = (imports["scipy.optimize"], "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "ratio")
    named = {k: (v, u, 1) for k, (v, u) in metrics.items()}
    named["trace.untraced_pass_s"] = (untraced, "s", 1)
    named["trace.traced_pass_s"] = (traced, "s", 1)
    named["bounds.evals_per_level.base_searches"] = (
        stats.calls["bounds.characteristic_bounds"], "count", 1)
    return {"passes": 2, "named": named,
            "metrics": {k: (v, u) for k, (v, u) in metrics.items()}}


def report(args, env, wl, tally: Tally, result: dict) -> dict:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']}  failed {tally.failed}/{tally.attempted} "
          f"operations  calls {tally.calls}  correct {tally.correct}")
    print(f"{'metric':44} {'value':>16} {'unit':>8} {'samples':>8}")
    for name, (value, unit, n) in result["named"].items():
        print(f"{name:44} {value:16.6g} {unit:>8} {n:8d}")
    for cause, n in tally.causes.most_common():
        print(f"failed x{n}: {cause}")
    for line in tally.failures:
        print(f"failure: {line}")
    print("environment " + json.dumps(env, sort_keys=True))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "passes": result["passes"],
        "attempted": tally.attempted, "failed": tally.failed, "correct": tally.correct,
        "calls": tally.calls, "call_statuses": dict(tally.statuses),
        "call_failure_causes": dict(tally.causes),
        "failures": tally.failures,
        "op_times": {op.kind: tally.kind_times(op.kind) for op in wl.ops},
        "named": {k: {"value": v, "unit": u, "samples": n}
                  for k, (v, u, n) in result["named"].items()},
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, *_) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fuzzrel" / "__init__.py").is_file():
        print(f"perfbench: no fuzzrel package under {SRC}", file=sys.stderr)
        return 2
    # the library's thread pool runs at its default, one worker per CPU
    threads_env = os.environ.pop("FUZZREL_THREADS", None)
    wl = workloads.build(args.workload, args.seed, WORK / args.workload)
    sys.path.insert(0, str(SRC))
    try:
        from fuzzrel import cli
    except ImportError as exc:
        print(f"perfbench: cannot import fuzzrel: {exc}", file=sys.stderr)
        return 2
    env = environment(threads_env)
    tally = Tally()
    if args.trace:
        result = traced_run(cli, wl, tally)
    else:
        result = timed_run(cli, wl, args.seconds, tally)
    print(json.dumps(report(args, env, wl, tally, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
