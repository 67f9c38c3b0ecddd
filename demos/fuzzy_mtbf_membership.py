"""Propagate trapezoidal rate uncertainty to a fuzzy mean time to failure.

Each rate is a trapezoidal fuzzy number. At every alpha level the inputs
collapse to intervals and a paired pair of box-constrained searches finds
the lowest and highest chain characteristic the intervals can produce.
Stacking the levels yields the membership function of the output.
"""

from fuzzrel import (
    MTBF,
    FuzzyNumber,
    FuzzySystemParams,
    build_table,
    characteristic_bounds,
    membership_curve,
)


def main():
    fp = FuzzySystemParams(
        failure_rate=FuzzyNumber.trapezoidal(0.5, 0.6, 0.7, 0.8),
        standby_failure_rate=FuzzyNumber.trapezoidal(0.1, 0.2, 0.3, 0.4),
        repair_rate=FuzzyNumber.trapezoidal(3.0, 4.0, 5.0, 6.0),
        reboot_rate=FuzzyNumber.trapezoidal(1.5, 2.0, 2.5, 3.0),
        coverage=0.9,
    )

    alphas = tuple(i / 10 for i in range(11))
    table = build_table(fp, MTBF, alphas)

    print("alpha  lambda cut        theta cut         mu cut            mtbf bounds")
    columns = (table.cuts[name].intervals for name in ("lambda", "theta", "mu"))
    for alpha, lam, theta, mu, b in zip(table.alphas, *columns, table.bounds.intervals):
        print(
            f"{alpha:4.1f}   [{lam.lo:.2f}, {lam.hi:.2f}]      "
            f"[{theta.lo:.2f}, {theta.hi:.2f}]      "
            f"[{mu.lo:.2f}, {mu.hi:.2f}]      "
            f"[{b.lo:.4f}, {b.hi:.4f}]"
        )

    # where the extremes live: always at corners of the parameter box,
    # because the mean falls in the failure rates and rises in repair
    res = characteristic_bounds(fp, MTBF, 0.5)
    print("\nat alpha = 0.5 the minimum sits at")
    for name, value in sorted(res.argmin.items()):
        print(f"  {name:6s} = {value:.4f}")
    print("and the maximum at")
    for name, value in sorted(res.argmax.items()):
        print(f"  {name:6s} = {value:.4f}")

    # the curve object answers membership queries between levels too
    curve = membership_curve(fp, MTBF, alphas)
    print("\nmembership grades of candidate mean lifetimes:")
    for z in (4.0, 4.5, 5.0, 5.5, 6.0, 7.0, 8.0, 9.0):
        print(f"  m({z:.1f}) = {curve.membership_at(z):.4f}")


if __name__ == "__main__":
    main()
