"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def span(id, name, start, end, parent=None):
    return Span(id, name, start, end, parent, None, 0.0)


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        span(0, "bounds.bounds_at_levels", 0.0, 10.0),
        # two pool workers overlapping each other, one running past the parent
        span(1, "bounds.characteristic_bounds", 1.0, 3.0, parent=0),
        span(2, "bounds.characteristic_bounds", 2.0, 5.0, parent=0),
        span(3, "bounds.characteristic_bounds", 8.0, 12.0, parent=0),
        span(4, "markov.mttf", 2.5, 2.75, parent=2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[2] == pytest.approx(3.0 - 0.25)
    assert selfs[4] == pytest.approx(0.25)
    assert tracing.covered((0.0, 1.0), []) == 0.0


def _public_callables():
    """Every attribute the tracer may patch, by (owner, name) -> object."""
    found = {}
    owners = [importlib.import_module("fuzzrel")]
    owners += [importlib.import_module(f"fuzzrel.{m}") for m in tracing.LAYERS]
    for module in list(owners):
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__.startswith("fuzzrel."):
                owners.append(obj)
    for owner in owners:
        for name, obj in list(vars(owner).items()):
            if callable(obj) and not name.startswith("__"):
                found[(id(owner), name)] = obj
    optimize = importlib.import_module("scipy.optimize")
    found[(id(optimize), "minimize")] = optimize.minimize
    return found, owners, optimize


def test_traced_run_restores_every_wrapped_function(tmp_path):
    from fuzzrel import cli

    before, owners, optimize = _public_callables()
    model = dict(workloads.REFERENCE_MODEL)
    config = tmp_path / "model.json"
    config.write_text(json.dumps(model))
    with tracing.Tracer() as tracer:
        assert cli.membership_curve is not before[(id(cli), "membership_curve")]
        assert optimize.minimize is not before[(id(optimize), "minimize")]
        code = cli.main(["curve", str(config), "--levels", "2",
                         "--out", str(tmp_path / "c.csv")])
        spans = tracer.take()
    assert code == 0
    after, _, _ = _public_callables()
    changed = [key for key, obj in before.items() if after[key] is not obj]
    assert changed == []

    by_id = {s.id: s for s in spans}
    names = {s.name for s in spans}
    assert {"cli.main", "bounds.bounds_at_levels", "bounds.minimize", "markov.mttf",
            "fuzzy.MembershipCurve.membership_at"} <= names
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    # level searches run on pool threads and still hang under the ladder
    levels = [s for s in spans if s.name == "bounds.characteristic_bounds"]
    assert len(levels) == 2
    assert all(by_id[s.parent].name == "bounds.bounds_at_levels" for s in levels)
    assert all(tracing.has_ancestor(s, "cli.main", by_id) for s in spans if s.parent)


def _write_curve(path: Path, rows):
    lines = ["alpha,lower,upper"] + [f"{a:.4f},{lo:.4f},{hi:.4f}" for a, (lo, hi) in rows]
    path.write_text("\n".join(lines) + "\n")
    member = ["z,membership"] + [f"{i / 200:.4f},{min(1.0, i / 100):.4f}" for i in range(201)]
    path.with_name(path.stem + "_membership.csv").write_text("\n".join(member) + "\n")


def test_coupled_check_rejects_the_corner_only_maximum(tmp_path):
    wl = workloads.coupled(0, tmp_path)
    curve = wl.ops[0]
    assert curve.kind == "mtbf_curve"
    expected = workloads._expected(workloads.COUPLED_MODEL, "mtbf")
    assert expected[0.0][1] == pytest.approx(11.2861, abs=1e-4)
    out = Path(curve.argv[-1])
    ok = checks.Outcome(0, "", "")

    _write_curve(out, expected.items())
    assert curve.verdict(ok).status == checks.OK

    corner_only = dict(expected)
    corner_only[0.0] = (expected[0.0][0], 6.3467)
    _write_curve(out, corner_only.items())
    verdict = curve.verdict(ok)
    assert verdict.status == checks.WRONG
    assert "alpha=0" in verdict.detail


class FakeCli:
    """Stands in for fuzzrel.cli: exit codes and errors by config name."""

    def main(self, argv):
        name = argv[1]
        if name == "crash":
            raise ZeroDivisionError("boom")
        if name == "typed":
            print("error: generator rows must sum to zero", file=sys.stderr)
            return 3
        if name == "garbled":
            print("quantity,mean\nmttf")
            return 0
        print("fine")
        return 0


def test_a_failing_operation_is_counted_and_does_not_abort_the_run():
    def fine(outcome):
        return checks.Verdict(checks.OK if outcome.stdout == "fine\n" else checks.WRONG)

    ops = (
        workloads.Op("crisp_report", ("metrics", "typed"), fine,
                     known_errors=(workloads.ROW_SUM_DEFECT,)),
        workloads.Op("crisp_report", ("metrics", "crash"), fine),
        workloads.Op("crisp_report", ("metrics", "good"), fine),
        workloads.Op("crisp_report", ("metrics", "typed"), fine),
    )
    wl = workloads.Workload("fake", ops, setup_config="unused")
    tally = run.Tally()
    passes = run.run_passes(FakeCli(), wl, 1e-9, tally)
    assert passes == 1
    assert tally.attempted == 4
    assert tally.failed == 3
    assert tally.statuses == {checks.TYPED_ERROR: 1, checks.WRONG: 2, checks.OK: 1}
    assert not tally.correct  # the crash, and exit 3 where no error is expected
    assert len(tally.kind_times("crisp_report")) == 1
    assert any("ZeroDivisionError" in line for line in tally.failures)

    # a simulate call that exits 0 with unreadable output is wrong, and the
    # traced run folds it in without reading an estimate from it
    sim = workloads.Op("sim_mttf", ("simulate", "garbled"),
                       lambda o: checks.check_estimate(o.stdout, "mttf", 1.0, 0.1))
    _, outcome, verdict = run.run_op(FakeCli(), sim, tally)
    assert verdict.status == checks.WRONG
    stats = layers.LayerStats()
    stats.add(sim, [span(0, "simulate.simulate_mttf", 0.0, 1.0)], outcome, verdict, 1e5)
    assert stats.metrics()["simulate.mttf.reps_per_s"] == (0.0, "1/s")


def test_failures_count_once_per_operation_however_many_passes():
    ops = (
        workloads.Op("crisp_report", ("metrics", "typed"), None,
                     known_errors=(workloads.ROW_SUM_DEFECT,)),
        workloads.Op("crisp_report", ("metrics", "good"),
                     lambda o: checks.Verdict(checks.OK)),
    )
    tally = run.Tally()
    for _ in range(3):
        for op in ops:
            run.run_op(FakeCli(), op, tally)
    assert (tally.attempted, tally.failed, tally.calls, tally.correct) == (2, 1, 6, True)


def test_only_the_known_defects_of_an_operation_pass_as_typed_errors(tmp_path):
    op = workloads.wide_rates(1, tmp_path).ops[0]

    def verdict(code, message):
        return op.verdict(checks.Outcome(code, "", f"error: {message}\n")).status

    assert verdict(3, "generator rows must sum to zero") == checks.TYPED_ERROR
    assert verdict(3, "probabilities sum to 0.99999, expected 1") == checks.TYPED_ERROR
    assert verdict(3, "probabilities must lie in [0, 1]") == checks.TYPED_ERROR
    assert verdict(3, "probabilities must lie in [0, 2]") == checks.WRONG
    assert verdict(4, "uniformization did not converge") == checks.WRONG
    assert verdict(2, "repair_rate must be finite, got inf") == checks.WRONG
    assert verdict(1, "generator rows must sum to zero") == checks.WRONG
    # the coupled probe may meet only the modal theta <= lambda check
    probe = workloads.coupled(0, tmp_path).probes[0]
    message = "error: standby_failure_rate 0.4 exceeds failure_rate 0.35\n"
    assert probe.verdict(checks.Outcome(3, "", message)).status == checks.TYPED_ERROR
    assert probe.verdict(checks.Outcome(3, "", "error: generator rows must sum to zero\n")
                         ).status == checks.WRONG

    tally = run.Tally()
    tally.record(op, 0.0, op.verdict(checks.Outcome(4, "", "error: new failure\n")))
    assert (tally.failed, tally.correct) == (1, False)


def test_oracle_reproduces_the_reference_table_and_closed_forms():
    for alpha, (lo, hi) in workloads.REFERENCE_MTBF.items():
        got = oracle.bounds(workloads.REFERENCE_MODEL, "mtbf", alpha)
        assert got == pytest.approx((lo, hi), abs=workloads.REFERENCE_TOL)
    assert oracle.mttf(1.0, 0.0, 2.0, 1.0) == pytest.approx(4.5, abs=1e-12)
    assert oracle.mttf(1.0, 0.0, 0.0, 1.0) == pytest.approx(2.0, abs=1e-12)
    assert oracle.mttf(0.7, 0.3, 5.0, 0.0) == pytest.approx(1.0 / 1.7, abs=1e-12)
    # the transient up-mass starts at 1, falls, and integrates to the MTTF
    step = 0.02
    rs = [oracle.reliability(0.6, 0.2, 4.0, 0.9, k * step) for k in range(5001)]
    assert rs[0] == pytest.approx(1.0) and all(b <= a for a, b in zip(rs, rs[1:]))
    integral = step * (sum(rs) - 0.5 * (rs[0] + rs[-1]))
    assert integral == pytest.approx(oracle.mttf(0.6, 0.2, 4.0, 0.9), rel=1e-3)
    # two independent stationary solves agree
    from fuzzrel import SystemParams, steady_availability

    want = steady_availability(SystemParams(0.6, 0.2, 4.0, 0.9, 2.0))
    assert oracle.availability(0.6, 0.2, 4.0, 0.9, 2.0) == pytest.approx(want, abs=1e-12)


def test_crisp_report_check_rejects_reliability_that_grows():
    report = ("MTTF          2.0\navailability  0.9\nreliability:\n"
              "  t=0  R=1\n  t=1  R=0.6\n  t=2  R=0.7\n  t=4  R=0.1\n  t=10  R=0.01\n")
    verdict = checks.check_crisp_report(report, 2.0, 1e-9)
    assert verdict.status == checks.WRONG and "increases" in verdict.detail
    assert checks.check_crisp_report(report.replace("0.7", "0.3"), 2.0, 1e-9).status == checks.OK


def test_estimate_check_separates_chance_misses_from_wrong_answers():
    out = "quantity,mean,std_error,replications\nmttf,{:.6f},0.010000,200000\n"
    assert checks.check_estimate(out.format(5.02), "mttf", 5.0, 0.05).status == checks.OK
    assert checks.check_estimate(out.format(5.04), "mttf", 5.0, 0.05).status == checks.MISSED_CHECK
    assert checks.check_estimate(out.format(5.06), "mttf", 5.0, 0.05).status == checks.WRONG
    assert checks.check_estimate(out.format(5.0), "mttf", 5.0, 0.005).status == checks.WRONG


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, where):
        wl = workloads.wide_rates(seed, where)
        return [Path(op.argv[1]).read_text() for op in wl.ops[:20]]

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert files(7, tmp_path / "a") == files(7, tmp_path / "b")
    assert files(7, tmp_path / "a") != files(8, tmp_path / "b")


def test_reported_metrics_are_the_ones_benchmark_json_declares():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert set(run.END_TO_END) == set(end_to_end)
    traced = {name: unit for name, (_, unit) in layers.LayerStats().metrics().items()}
    traced.update({"setup.import_fuzzrel_s": "s", "setup.import_scipy_optimize_s": "s",
                   "trace.overhead_s": "s", "trace.overhead_frac": "ratio"})
    assert traced == per_layer
    assert [w["name"] for w in declared["workloads"]] == list(workloads.NAMES)
