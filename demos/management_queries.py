"""Answer planning questions from the model instead of reading a table.

Three queries a reliability owner actually asks. First, how confident can
we be that the mean lifetime lands inside a contract window. Second, what
repair capacity does a confidence level demand. Third, which fault
coverage would explain an observed lifetime spread. The first two are
answered exactly, at any alpha, not read off the rows of a ladder.
"""

from fuzzrel import (
    MTBF,
    FuzzyNumber,
    FuzzySystemParams,
    Interval,
    calibrate_coverage,
    characteristic_bounds,
    invert_query,
    required_parameter_range,
)


def demo_params(coverage=0.9):
    return FuzzySystemParams(
        failure_rate=FuzzyNumber.trapezoidal(0.5, 0.6, 0.7, 0.8),
        standby_failure_rate=FuzzyNumber.trapezoidal(0.1, 0.2, 0.3, 0.4),
        repair_rate=FuzzyNumber.trapezoidal(3.0, 4.0, 5.0, 6.0),
        reboot_rate=FuzzyNumber.trapezoidal(1.5, 2.0, 2.5, 3.0),
        coverage=coverage,
    )


def main():
    fp = demo_params()

    # query 1: smallest confidence level whose bounds fit the window, and
    # the guaranteed range at that level
    for target in (Interval(4.9, 6.8), Interval(4.5, 7.3), Interval(3.5, 9.0)):
        alpha = invert_query(fp, MTBF, target)
        cut = characteristic_bounds(fp, MTBF, alpha).bounds
        print(
            f"mean lifetime within [{target.lo:.2f}, {target.hi:.2f}] "
            f"from alpha = {alpha:.4f} upward, where it lies in "
            f"[{cut.lo:.4f}, {cut.hi:.4f}]"
        )

    # query 2: the repair rate interval a confidence level presumes
    for level in (0.5, 0.9):
        rng = required_parameter_range(fp, level, "mu")
        print(
            f"\nalpha = {level:.1f} presumes a repair rate inside "
            f"[{rng.lo:.2f}, {rng.hi:.2f}]"
        )

    # query 3: recover the coverage that matches an observed modal spread.
    # start from a deliberately wrong guess and let the anchor correct it.
    observed = Interval(5.0669, 6.5424)
    result = calibrate_coverage(demo_params(coverage=0.5), MTBF, 1.0, observed)
    print(
        f"\nobserved modal spread [{observed.lo}, {observed.hi}] implies "
        f"coverage = {result.coverage:.6f}"
    )
    print(
        f"residuals after calibration: lower {result.lower_residual:+.2e}, "
        f"upper {result.upper_residual:+.2e}"
    )


if __name__ == "__main__":
    main()
