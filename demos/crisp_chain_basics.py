"""Walk through the crisp six-state chain behind every other computation.

Two active units in parallel, one warm standby, imperfect coverage and a
reboot path for uncovered faults. The script builds the generator, prints
the mean time to first failure, samples the reliability curve, and closes
with the steady-state availability of the repairable chain.
"""

import numpy as np

from fuzzrel import (
    ChainMode,
    SystemParams,
    build_generator,
    mttf,
    reliability_at,
    stationary_distribution,
    steady_availability,
)


def main():
    p = SystemParams(
        failure_rate=0.6,
        standby_failure_rate=0.2,
        repair_rate=4.0,
        coverage=0.9,
        reboot_rate=2.0,
    )

    print("generator (reliability mode, failures absorbing):")
    gen = build_generator(p, ChainMode.RELIABILITY)
    with np.printoptions(precision=3, suppress=True):
        print(gen.rates)

    value = mttf(p)
    print(f"\nmean time to failure from the full-up state: {value:.6f}")

    print("\nreliability curve:")
    for t in (0.0, 0.5 * value, value, 2.0 * value, 5.0 * value):
        print(f"  R({t:7.3f}) = {reliability_at(p, t):.6f}")

    pi = stationary_distribution(p)
    print("\nstationary distribution (availability mode):")
    with np.printoptions(precision=6, suppress=True):
        print(pi)
    print(f"steady-state availability = {steady_availability(p):.6f}")


if __name__ == "__main__":
    main()
