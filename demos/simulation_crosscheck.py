"""Cross-check the analytic chain answers against Monte Carlo sampling.

The first-passage sampler draws paths of the reliability-mode chain
from the full configuration until they fall into a failure state. The
availability sampler draws independent cycles of the repairable chain
from the full configuration back to it, until the cycles cover the
horizon, and divides their total up time by their total length. Each
path is drawn as its visit counts to the states, which have the same
law as replaying it jump by jump, and is held in each state for the
conditional mean of its time there, N visits over the exit rate
(discrete-time conversion, Fox & Glynn 1986). Its time keeps the
chain's mean but not its law, and varies less. Both should straddle the
analytic answers within a few standard errors.
"""

from fuzzrel import (
    SimConfig,
    SystemParams,
    mttf,
    simulate_availability,
    simulate_mttf,
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
    cfg = SimConfig(params=p, replications=200_000, horizon=200_000.0, seed=7)

    analytic = mttf(p)
    est = simulate_mttf(cfg)
    z = (est.mean - analytic) / est.std_error
    print(f"mean time to failure, analytic:  {analytic:.5f}")
    print(f"mean time to failure, sampled:   {est.mean:.5f}")
    print(f"standard error:                  {est.std_error:.5f}  (z = {z:+.2f})")

    print()

    analytic_a = steady_availability(p)
    est_a = simulate_availability(cfg)
    z_a = (est_a.mean - analytic_a) / est_a.std_error
    print(f"steady availability, analytic:   {analytic_a:.6f}")
    print(f"steady availability, sampled:    {est_a.mean:.6f}")
    print(f"standard error:                  {est_a.std_error:.6f}  (z = {z_a:+.2f})")

    # the three-sigma band is the acceptance yardstick used in the tests
    for name, e, a in (("lifetime", est, analytic), ("availability", est_a, analytic_a)):
        verdict = "inside" if abs(e.mean - a) <= e.margin() else "OUTSIDE"
        print(f"\n{name}: analytic value {verdict} the 3 sigma band")


if __name__ == "__main__":
    main()
