"""Probe the cost of R(t)'s mu search: sensitivity calls and wall time
of random 11-level R(t) ladders and of a wide model's curves.

    PYTHONPATH=src python tools/ladder_probe.py

Draws 300 ladders from numpy.random.default_rng(7) (draw_ladder) and
prints how many put a maximum at R's turn inside its mu cut, which takes
the turn bisection, the median, p90 and maximum sensitivity calls and
wall times of those, and the median time of the ladders whose bounds all
lie at the ends of their cuts. Then prints the time and call count of the wide model's
R(10) curve at 11, 201 and 1001 levels. Calls are counted by wrapping
markov._reliability_sensitivities from outside; a time is the best of
three runs, in process.
"""

from __future__ import annotations

import time

import numpy as np

from fuzzrel import (
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


def _counted(run) -> tuple[int, float]:
    """Sensitivity calls of one run of run(), and its best time of three."""
    sensitivities = markov._reliability_sensitivities
    calls = 0

    def counting(rates, t):
        nonlocal calls
        calls += 1
        return sensitivities(rates, t)

    markov._reliability_sensitivities = counting
    try:
        run()
    finally:
        markov._reliability_sensitivities = sensitivities
    best = np.inf
    for _ in range(3):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return calls, best


def main() -> None:
    rng = np.random.default_rng(7)
    turned, ends = [], []
    for _ in range(LADDERS):
        fp, t = draw_ladder(rng)
        metric = reliability_at_time(t)
        searched = bounds._ladder_bounds(fp, metric, ALPHAS).searched.any()
        result = _counted(lambda: bounds._ladder_bounds(fp, metric, ALPHAS))
        (turned if searched else ends).append(result)
    calls, seconds = np.array(turned).T
    print(f"{len(turned)} of {LADDERS} ladders put a maximum at the turn")
    for name, values, unit in (("calls", calls, ""), ("time", seconds * 1e3, " ms")):
        p50, p90, top = np.percentile(values, [50, 90, 100])
        print(f"  {name}: median {p50:.4g}{unit}, p90 {p90:.4g}{unit}, max {top:.4g}{unit}")
    ends_ms = 1e3 * np.median([s for _, s in ends])
    print(f"ladders at the ends: median time {ends_ms:.4g} ms")
    metric = reliability_at_time(10.0)
    for levels in (11, 201, 1001):
        alphas = np.linspace(0.0, 1.0, levels)
        calls, seconds = _counted(lambda: membership_curve(WIDE, metric, alphas))
        print(f"wide R(10) curve, {levels} levels: {calls} calls, {1e3 * seconds:.4g} ms")


if __name__ == "__main__":
    main()
