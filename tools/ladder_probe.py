"""Probe the cost of the bounds' mu search: kernel calls and wall time
of random 11-level ladders of every metric and of a wide model's curves.

    PYTHONPATH=src python tools/ladder_probe.py

Draws 300 models from numpy.random.default_rng(7) (draw_ladder) and, for
R(t) at each model's mission time, MTBF and steady availability, prints
how many ladders put a maximum at the metric's turn inside its mu cut,
which takes the turn bisection, the median, p90 and maximum kernel calls
and wall times of those, and the median time and calls of the ladders
whose bounds all lie at the ends of their cuts. Then prints the time and
calls of the wide model's R(10), MTBF and availability curves at 11, 201
and 1001 levels. Calls are counted by wrapping the sensitivity kernel
(markov._reliability_sensitivities) and the values kernels
(markov._mttf_values, _availability_values, _reliability_values) from
outside; a time is the best of three runs, in process.
"""

from __future__ import annotations

import time

import numpy as np

from fuzzrel import (
    MTBF,
    STEADY_AVAILABILITY,
    FuzzyNumber,
    FuzzySystemParams,
    bounds,
    markov,
    membership_curve,
    mttf,
    reliability_at_time,
)

LADDERS = 300
ALPHAS = np.linspace(0.0, 1.0, 11)

# lambda = trap(0.01, 0.1, 0.2, 10), theta = trap(0.001, 0.005, 0.008,
# 0.01), mu = trap(0.1, 1, 2, 100), beta = trap(0.1, 1, 2, 30), c = 0.9
WIDE = FuzzySystemParams(
    FuzzyNumber.trapezoidal(0.01, 0.1, 0.2, 10.0),
    FuzzyNumber.trapezoidal(0.001, 0.005, 0.008, 0.01),
    FuzzyNumber.trapezoidal(0.1, 1.0, 2.0, 100.0),
    FuzzyNumber.trapezoidal(0.1, 1.0, 2.0, 30.0),
    coverage=0.9,
)


def _nodes(rng: np.random.Generator, lo: float) -> np.ndarray:
    """Trapezoid nodes from lo up to lo times a spread of 10^U(0, 3),
    the two inner ones uniform between."""
    hi = lo * 10 ** rng.uniform(0.0, 3.0)
    return np.array([lo, *np.sort(rng.uniform(lo, hi, 2)), hi])


def draw_ladder(rng: np.random.Generator) -> tuple[FuzzySystemParams, float]:
    """One random R(t) model and its mission time.

    lambda lo is log-uniform on 1e-3..1e3, theta's nodes are U(0, 1)
    times lambda's, and mu lo is lambda lo times 10^U(-3, 4). Coverage is
    0 or 1 with 5% chance each, U(0, 1) with 10%, otherwise U(0.5, 1).
    The mission time is the modal MTTF times 10^U(-1, 0.5).
    """
    lam = _nodes(rng, 10 ** rng.uniform(-3.0, 3.0))
    theta = rng.uniform() * lam
    mu = _nodes(rng, lam[0] * 10 ** rng.uniform(-3.0, 4.0))
    pick = rng.uniform()
    if pick < 0.05:
        coverage = 0.0
    elif pick < 0.1:
        coverage = 1.0
    elif pick < 0.2:
        coverage = rng.uniform()
    else:
        coverage = rng.uniform(0.5, 1.0)
    fp = FuzzySystemParams(
        FuzzyNumber.trapezoidal(*lam),
        FuzzyNumber.trapezoidal(*theta),
        FuzzyNumber.trapezoidal(*mu),
        FuzzyNumber.crisp(1.0),
        coverage=coverage,
    )
    return fp, mttf(fp.modal_params()) * 10 ** rng.uniform(-1.0, 0.5)


# the kernels whose calls are counted, by kind
KERNELS = {
    "sensitivity": ("_reliability_sensitivities",),
    "values": ("_mttf_values", "_availability_values", "_reliability_values"),
}


def _counted(run) -> tuple[int, int, float]:
    """Sensitivity and values-kernel calls of one run of run(), and its
    best time of three."""
    calls = dict.fromkeys(KERNELS, 0)
    kernels = {}
    for kind, names in KERNELS.items():
        for name in names:
            kernel = kernels[name] = getattr(markov, name)

            def counting(*args, kernel=kernel, kind=kind):
                calls[kind] += 1
                return kernel(*args)

            setattr(markov, name, counting)
    try:
        run()
    finally:
        for name, kernel in kernels.items():
            setattr(markov, name, kernel)
    best = np.inf
    for _ in range(3):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return calls["sensitivity"], calls["values"], best


def _spread(values: np.ndarray) -> str:
    p50, p90, top = np.percentile(values, [50, 90, 100])
    return f"median {p50:.4g}, p90 {p90:.4g}, max {top:.4g}"


def main() -> None:
    rng = np.random.default_rng(7)
    models = [draw_ladder(rng) for _ in range(LADDERS)]
    metrics = {
        "R(t)": reliability_at_time,
        "MTBF": lambda t: MTBF,
        "availability": lambda t: STEADY_AVAILABILITY,
    }
    for name, metric_at in metrics.items():
        turned, ends = [], []
        for fp, t in models:
            metric = metric_at(t)
            searched = bounds._ladder_bounds(fp, metric, ALPHAS).searched.any()
            result = _counted(lambda: bounds._ladder_bounds(fp, metric, ALPHAS))
            (turned if searched else ends).append(result)
        print(f"{name}: {len(turned)} of {LADDERS} ladders put a maximum at the turn")
        if turned:
            sensitivity, values, seconds = np.array(turned).T
            print(f"  sensitivity calls: {_spread(sensitivity)}")
            print(f"  values calls: {_spread(values)}")
            print(f"  time (ms): {_spread(seconds * 1e3)}")
        sensitivity, values, seconds = np.array(ends).T
        print(
            f"  at the ends: median time {1e3 * np.median(seconds):.4g} ms, "
            f"{np.median(sensitivity):g} sensitivity and {np.median(values):g} values calls"
        )
    for name, metric in (
        ("R(10)", reliability_at_time(10.0)),
        ("MTBF", MTBF),
        ("availability", STEADY_AVAILABILITY),
    ):
        for levels in (11, 201, 1001):
            alphas = np.linspace(0.0, 1.0, levels)
            sensitivity, values, seconds = _counted(
                lambda: membership_curve(WIDE, metric, alphas)
            )
            print(
                f"wide {name} curve, {levels} levels: {sensitivity} sensitivity and "
                f"{values} values calls, {1e3 * seconds:.4g} ms"
            )


if __name__ == "__main__":
    main()
