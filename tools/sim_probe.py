"""Probe the cost and the error bars of the two simulators on the three
systems of the `crosscheck` benchmark workload.

    PYTHONPATH=src python tools/sim_probe.py

The systems are the modal reference system (lambda 0.65, theta 0.25,
mu 4.5, c 0.9, beta 2.25) and the first two systems of acceptance
criterion 6 (drawn from numpy.random.default_rng(20260815)), each
simulated with 200,000 first passages and an availability horizon of
1e5, as in `crosscheck`. For each system and simulator it prints the
time of one in-process call at seed 0, the best of five; the median
standard error over the mean across seeds 0-7; and the largest |z| =
|estimate - analytic| / SE across those seeds, against `mttf` or
`steady_availability`.
"""

from __future__ import annotations

import time

import numpy as np

from fuzzrel import (
    SimConfig,
    SystemParams,
    mttf,
    simulate_availability,
    simulate_mttf,
    steady_availability,
)

REPEATS = 5
SEEDS = range(8)
REPLICATIONS = 200_000
HORIZON = 1e5
CRITERION_6_SEED = 20260815
SIMULATORS = [
    ("mttf", simulate_mttf, mttf),
    ("availability", simulate_availability, steady_availability),
]


def systems() -> list[SystemParams]:
    """The modal system, then criterion 6's first two in its draw order."""
    rng = np.random.default_rng(CRITERION_6_SEED)
    drawn = [SystemParams(0.65, 0.25, 4.5, 0.9, 2.25)]
    for _ in range(2):
        lam = rng.uniform(0.4, 1.5)
        theta = rng.uniform(0.0, 0.8 * lam)
        mu = rng.uniform(0.8, 5.0)
        c = rng.uniform(0.3, 0.95)
        beta = rng.uniform(0.5, 3.0)
        drawn.append(SystemParams(lam, theta, mu, c, beta))
    return drawn


def best_time(run) -> float:
    """The best of REPEATS calls of run, in seconds."""
    best = np.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def main_probe() -> None:
    for i, p in enumerate(systems()):
        for name, simulate, analytic in SIMULATORS:
            cfg = lambda seed: SimConfig(params=p, replications=REPLICATIONS,
                                         horizon=HORIZON, seed=seed)
            seconds = best_time(lambda: simulate(cfg(0)))
            want = analytic(p)
            estimates = [simulate(cfg(seed)) for seed in SEEDS]
            se = np.median([e.std_error / e.mean for e in estimates])
            z = max(abs(e.mean - want) / e.std_error for e in estimates)
            print(f"system {i} {name}: {1e3 * seconds:.1f} ms, "
                  f"median SE/mean {se:.3g}, max |z| {z:.2f}")


if __name__ == "__main__":
    main_probe()
