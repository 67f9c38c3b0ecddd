"""Probe the cost of crisp evaluations: one kernel call per metric on
the modal reference system, and whole `metrics` reports.

    PYTHONPATH=src python tools/crisp_probe.py

Prints the per-call time of mttf, steady_availability, reliability_at,
build_generator and one in-process `fuzzrel metrics` call on the
reference model's modal rates (lambda 0.65, theta 0.25, mu 4.5,
beta 2.25, c = 0.9), each the best of seven timed batches. Then writes 400 crisp models with rates log-uniform
over 1e-6..1e9, theta = U(0, 1) lambda and c = U(0, 1), drawn from
numpy.random.default_rng(5), to a temporary directory, and prints the
per-call time of an in-process `metrics --full-precision` pass over all
of them, the best of seven passes, with how many calls exited nonzero.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from fuzzrel import (
    SystemParams,
    build_generator,
    mttf,
    reliability_at,
    steady_availability,
)
from fuzzrel.cli import main

REPEATS = 7
MODELS = 400
DECADES = (-6.0, 9.0)
REFERENCE = {
    "lambda": [0.5, 0.6, 0.7, 0.8],
    "theta": [0.1, 0.2, 0.3, 0.4],
    "mu": [3.0, 4.0, 5.0, 6.0],
    "beta": [1.5, 2.0, 2.5, 3.0],
    "c": 0.9,
}
MODAL = SystemParams(0.65, 0.25, 4.5, 0.9, 2.25)


def best_per_call(run, calls: int) -> float:
    """The best of REPEATS batches of calls runs, per call, in seconds."""
    best = np.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            run()
        best = min(best, time.perf_counter() - start)
    return best / calls


def quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        return main(argv)


def wide_models(where: Path) -> list[str]:
    rng = np.random.default_rng(5)
    paths = []
    for i in range(MODELS):
        lam, mu, beta = 10.0 ** rng.uniform(*DECADES, size=3)
        model = {"lambda": lam, "theta": rng.uniform() * lam, "mu": mu,
                 "beta": beta, "c": rng.uniform()}
        path = where / f"model-{i}.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        paths.append(str(path))
    return paths


def main_probe() -> None:
    t = mttf(MODAL)
    with tempfile.TemporaryDirectory() as tmp:
        reference = Path(tmp) / "reference.json"
        reference.write_text(json.dumps(REFERENCE), encoding="utf-8")
        probes = [
            ("mttf", lambda: mttf(MODAL), 2000),
            ("steady_availability", lambda: steady_availability(MODAL), 2000),
            ("reliability_at", lambda: reliability_at(MODAL, t), 1000),
            ("build_generator", lambda: build_generator(MODAL), 1000),
            ("metrics call", lambda: quiet_main(["metrics", str(reference)]), 200),
        ]
        for name, run, calls in probes:
            print(f"{name}: {1e6 * best_per_call(run, calls):.1f} us")

        paths = wide_models(Path(tmp))
        codes = [quiet_main(["metrics", p, "--full-precision"]) for p in paths]
        best = np.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            for p in paths:
                quiet_main(["metrics", p, "--full-precision"])
            best = min(best, time.perf_counter() - start)
        failed = sum(code != 0 for code in codes)
        print(f"metrics pass over {MODELS} wide models: {1e6 * best / MODELS:.1f} us "
              f"per call, {failed} exited nonzero")


if __name__ == "__main__":
    main_probe()
