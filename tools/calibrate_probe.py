"""Probe the cost of coverage calibration: in-process calibrate_coverage
time and call counts per metric.

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
"""

from __future__ import annotations

import importlib.util
import time
from collections import Counter
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
    reliability_at_time,
)

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


def _wide() -> FuzzySystemParams:
    path = Path(__file__).with_name("ladder_probe.py")
    spec = importlib.util.spec_from_file_location("ladder_probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WIDE


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
    wide = _wide().with_coverage(TRUE_COVERAGE)
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


if __name__ == "__main__":
    main_probe()
