"""Probe coverage calibration: in-process calibrate_coverage time and
call counts per metric, then how often a fuzz of round trips fails.

    PYTHONPATH=src python tools/calibrate_probe.py

For the reference model (the demo trapezoids), the coupled model (theta
<= lambda cuts every box) and tools/ladder_probe.py's wide model, each
at its true coverage 0.9, takes the alpha = 1 bounds of MTBF, steady
availability and R(10) as the anchor and calibrates from coverage 0.5.
Prints the per-call time, the best of seven batches, the coverage found,
and how many bound searches (bounds._search), values-kernel calls
(markov._mttf_values, _availability_values, _reliability_values) and
R(t) sensitivity calls one calibration makes, counted by wrapping those
functions from outside.

Then draws FUZZ_MODELS models from numpy.random.default_rng(11)
(draw_model), takes each one's bounds at alpha = FUZZ_ALPHA for MTBF,
steady availability and R(t) at its mission time as the anchor,
calibrates from coverage 0.5, and prints per metric how many round trips
recovered the model's coverage to 1e-9, how many met the residual rule
at another coverage, and how many raised, with the first errors.
"""

from __future__ import annotations

import functools
import importlib.util
import time
from collections import Counter, defaultdict
from pathlib import Path
from unittest import mock

import numpy as np

from fuzzrel import (
    MTBF,
    STEADY_AVAILABILITY,
    FuzzyNumber,
    FuzzySystemParams,
    calibrate_coverage,
    characteristic_bounds,
    decision,
    markov,
    mttf,
    reliability_at_time,
)
from fuzzrel.errors import FuzzrelError

REPEATS = 7
CALLS = 20
TRUE_COVERAGE = 0.9
START_COVERAGE = 0.5
ANCHOR_ALPHA = 1.0
COUNTED = {
    (decision, "_search"): "searches",
    (markov, "_mttf_values"): "values",
    (markov, "_availability_values"): "values",
    (markov, "_reliability_values"): "values",
    (markov, "_reliability_sensitivities"): "sensitivities",
}
FUZZ_MODELS = 600
FUZZ_ALPHA = 0.5
# a round trip recovers the model's coverage when within this of it
RECOVERED = 1e-9


@functools.cache
def _ladder_probe():
    """tools/ladder_probe.py: its wide model and its trapezoid draw."""
    path = Path(__file__).with_name("ladder_probe.py")
    spec = importlib.util.spec_from_file_location("ladder_probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def draw_model(rng: np.random.Generator) -> tuple[FuzzySystemParams, float]:
    """One model of the calibration fuzz and its R(t) mission time.

    lambda lo is log-uniform on 1e-6..1e9, and every rate's nodes run up
    from its lo by a spread of 10^U(0, 3) (ladder_probe._nodes). theta's
    nodes are U(0, 1) times lambda's; mu lo and beta lo are lambda lo
    times 10^U(-6, 6). Coverage is 0, 1, U(0, 1) or 1 - 10^U(-12, -2),
    each with chance 1/4. The mission time is the modal MTTF times
    10^U(-1, 0.5).
    """
    nodes = _ladder_probe()._nodes
    lam = nodes(rng, 10 ** rng.uniform(-6.0, 9.0))
    theta = rng.uniform() * lam
    mu = nodes(rng, lam[0] * 10 ** rng.uniform(-6.0, 6.0))
    beta = nodes(rng, lam[0] * 10 ** rng.uniform(-6.0, 6.0))
    coverages = (0.0, 1.0, rng.uniform(), 1.0 - 10 ** rng.uniform(-12.0, -2.0))
    fp = FuzzySystemParams(
        *(FuzzyNumber.trapezoidal(*x) for x in (lam, theta, mu, beta)),
        coverage=coverages[rng.integers(4)],
    )
    return fp, mttf(fp.modal_params()) * 10 ** rng.uniform(-1.0, 0.5)


def models() -> dict[str, FuzzySystemParams]:
    trap = FuzzyNumber.trapezoidal
    reference = FuzzySystemParams(
        trap(0.5, 0.6, 0.7, 0.8),
        trap(0.1, 0.2, 0.3, 0.4),
        trap(3.0, 4.0, 5.0, 6.0),
        trap(1.5, 2.0, 2.5, 3.0),
        coverage=TRUE_COVERAGE,
    )
    coupled = FuzzySystemParams(
        trap(0.1, 0.3, 0.5, 0.6),
        trap(0.3, 0.35, 0.45, 0.5),
        reference.repair_rate,
        reference.reboot_rate,
        coverage=TRUE_COVERAGE,
    )
    wide = _ladder_probe().WIDE.with_coverage(TRUE_COVERAGE)
    return {"reference": reference, "coupled": coupled, "wide": wide}


def counts(run) -> Counter:
    """How many times one run calls each counted function, by kind."""
    seen = Counter()
    patches = []
    for (module, name), kind in COUNTED.items():
        def counted(*args, _wrapped=getattr(module, name), _kind=kind, **kwargs):
            seen[_kind] += 1
            return _wrapped(*args, **kwargs)

        patches.append(mock.patch.object(module, name, counted))
    for patch in patches:
        patch.start()
    try:
        run()
    finally:
        for patch in patches:
            patch.stop()
    return seen


def best_per_call(run) -> float:
    """The best of REPEATS batches of CALLS runs, per call, in seconds."""
    best = np.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(CALLS):
            run()
        best = min(best, time.perf_counter() - start)
    return best / CALLS


def main_probe() -> None:
    metrics = (("MTBF", MTBF), ("availability", STEADY_AVAILABILITY),
               ("R(10)", reliability_at_time(10.0)))
    for model, fp in models().items():
        start = fp.with_coverage(START_COVERAGE)
        for label, metric in metrics:
            anchor = characteristic_bounds(fp, metric, ANCHOR_ALPHA).bounds

            def run():
                return calibrate_coverage(start, metric, ANCHOR_ALPHA, anchor)

            coverage = run().coverage
            seen = counts(run)
            print(
                f"{model} {label}: {1e3 * best_per_call(run):.3f} ms per call, "
                f"coverage {coverage:.12f}, {seen['searches']} bound searches, "
                f"{seen['values']} values-kernel calls, "
                f"{seen['sensitivities']} sensitivity calls"
            )


def fuzz_probe() -> None:
    rng = np.random.default_rng(11)
    outcomes = defaultdict(Counter)
    errors = []
    for _ in range(FUZZ_MODELS):
        fp, t = draw_model(rng)
        for label, metric in (("MTBF", MTBF), ("availability", STEADY_AVAILABILITY),
                              ("R(t)", reliability_at_time(t))):
            anchor = characteristic_bounds(fp, metric, FUZZ_ALPHA).bounds
            try:
                found = calibrate_coverage(
                    fp.with_coverage(START_COVERAGE), metric, FUZZ_ALPHA, anchor
                ).coverage
            except FuzzrelError as exc:
                outcomes[label]["raised"] += 1
                errors.append(f"{label} at c = {fp.coverage!r}: {exc}")
                continue
            recovered = abs(found - fp.coverage) <= RECOVERED
            outcomes[label]["recovered" if recovered else "met the residual rule"] += 1
    for label, seen in outcomes.items():
        print(f"fuzz {label}: " + ", ".join(f"{n} {k}" for k, n in sorted(seen.items())))
    total = sum(seen["raised"] for seen in outcomes.values())
    print(f"fuzz: {total} of {3 * FUZZ_MODELS} round trips raised")
    for line in errors[:10]:
        print(f"  {line}")


if __name__ == "__main__":
    main_probe()
    fuzz_probe()
