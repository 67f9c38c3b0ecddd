"""Per-layer metrics from the spans of one traced pass.

Layers are fuzzrel's modules. A layer's self time is the sum, over its
spans, of each span's duration minus the part its child spans cover
(tracing.self_times). Spans of the bounds thread pool overlap in time,
so self times add up to traced thread time, which can exceed wall time;
markov.share is therefore taken over traced thread time.
bounds.pool_speedup is the sum of the level searches' durations over
the wall time of the ladder. Durations include waits for the
interpreter lock, so it overstates the gain of the pool;
bounds.pool_cpu_speedup divides the levels' thread CPU time instead,
which is the speed-up over running the levels one after another.

Every metric is reported on every workload, as 0 where its layer does
not run. Counts are per pass and repeat exactly for a given seed.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

import checks
import tracing

KERNELS = ("markov.mttf", "markov.steady_availability", "markov.reliability_at")
TIMED = KERNELS + (
    "bounds.characteristic_bounds",
    "cli.load_model_config",
)
SIMULATORS = {
    "sim_mttf": ("simulate.simulate_mttf", "mttf"),
    "sim_availability": ("simulate.simulate_availability", "availability"),
}


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerStats:
    def __init__(self):
        self.calls = Counter()
        self.errors = Counter()
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.calibrate_searches = 0
        self.pool_wall_s = 0.0
        self.pool_levels_s = 0.0
        self.pool_levels_cpu_s = 0.0
        self.spans = 0
        self.sim_seconds = defaultdict(float)
        self.sim_work = defaultdict(float)
        self.sim_se2_x_s = defaultdict(list)

    def add(self, op, spans: list[tracing.Span], outcome: checks.Outcome,
            verdict: checks.Verdict, sim_work: float | None) -> None:
        """Fold in the spans of one operation. Simulator rates count only
        estimates that were read and checked."""
        selfs = tracing.self_times(spans)
        by_id = {s.id: s for s in spans}
        self.spans += len(spans)
        for s in spans:
            duration = s.end - s.start
            self.calls[s.name] += 1
            self.self_s[s.name] += selfs[s.id]
            if s.error is not None:
                self.errors[s.name] += 1
            if s.name in TIMED:
                self.durations[s.name].append(duration)
            if s.name == "bounds.characteristic_bounds":
                if tracing.has_ancestor(s, "decision.calibrate_coverage", by_id):
                    self.calibrate_searches += 1
                parent = by_id.get(s.parent)
                if parent is not None and parent.name == "bounds.bounds_at_levels":
                    self.pool_levels_s += duration
                    self.pool_levels_cpu_s += s.cpu
            if s.name == "bounds.bounds_at_levels":
                self.pool_wall_s += duration
        if op.kind in SIMULATORS and verdict.status in (checks.OK, checks.MISSED_CHECK):
            span_name, quantity = SIMULATORS[op.kind]
            seconds = sum(s.end - s.start for s in spans if s.name == span_name)
            _, se = checks.parse_estimate(outcome.stdout, quantity)
            self.sim_seconds[op.kind] += seconds
            self.sim_work[op.kind] += sim_work
            self.sim_se2_x_s[op.kind].append(se * se * seconds)

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def metrics(self) -> dict[str, tuple[float, str]]:
        kernel_calls = sum(self.calls[k] for k in KERNELS)
        searches = self.calls["bounds.characteristic_bounds"]
        markov_self = self.layer_self_s("markov")
        thread_time = sum(self.self_s.values())
        return {
            "markov.kernel_calls": (kernel_calls, "count"),
            "markov.mttf.us_p50": (_p50(self.durations["markov.mttf"]) * 1e6, "us"),
            "markov.steady_availability.us_p50": (
                _p50(self.durations["markov.steady_availability"]) * 1e6, "us"),
            "markov.reliability_at.us_p50": (
                _p50(self.durations["markov.reliability_at"]) * 1e6, "us"),
            "markov.build_generator.calls": (self.calls["markov.build_generator"], "count"),
            "markov.build_generator.self_s": (self.self_s["markov.build_generator"], "s"),
            "markov.self_s": (markov_self, "s"),
            "markov.share": (_ratio(markov_self, thread_time), "ratio"),
            "markov.errors": (
                _ratio(sum(self.errors[k] for k in KERNELS), kernel_calls), "1/call"),
            "bounds.characteristic_bounds.calls": (searches, "count"),
            "bounds.characteristic_bounds.s_p50": (
                _p50(self.durations["bounds.characteristic_bounds"]), "s"),
            "bounds.evals_per_level": (_ratio(kernel_calls, searches), "evals/level"),
            "bounds.minimize.calls": (self.calls["bounds.minimize"], "count"),
            "bounds.minimize.self_s": (self.self_s["bounds.minimize"], "s"),
            "bounds.bounds_at_levels.s": (self.pool_wall_s, "s"),
            "bounds.pool_speedup": (_ratio(self.pool_levels_s, self.pool_wall_s), "ratio"),
            "bounds.pool_cpu_speedup": (
                _ratio(self.pool_levels_cpu_s, self.pool_wall_s), "ratio"),
            "decision.calibrate_coverage.bound_searches": (self.calibrate_searches, "count"),
            "decision.build_table.self_s": (self.self_s["decision.build_table"], "s"),
            "fuzzy.alpha_cut.calls": (self.calls["fuzzy.FuzzyNumber.alpha_cut"], "count"),
            "fuzzy.alpha_cut.self_s": (self.self_s["fuzzy.FuzzyNumber.alpha_cut"], "s"),
            "fuzzy.membership_at.calls": (
                self.calls["fuzzy.MembershipCurve.membership_at"], "count"),
            "simulate.mttf.reps_per_s": (
                _ratio(self.sim_work["sim_mttf"], self.sim_seconds["sim_mttf"]), "1/s"),
            "simulate.availability.sim_time_per_s": (
                _ratio(self.sim_work["sim_availability"],
                       self.sim_seconds["sim_availability"]), "t/s"),
            "simulate.mttf.se2_x_s": (_p50(self.sim_se2_x_s["sim_mttf"]), "t2.s"),
            "simulate.availability.se2_x_s": (_p50(self.sim_se2_x_s["sim_availability"]), "s"),
            "cli.load_model_config.s_p50": (_p50(self.durations["cli.load_model_config"]), "s"),
            "cli.self_s": (self.layer_self_s("cli"), "s"),
            "trace.spans": (self.spans, "count"),
        }
