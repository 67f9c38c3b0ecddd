"""Decision layer: tables, inverse queries, coverage calibration."""

from unittest import mock

import numpy as np
import pytest

from fuzzrel import (
    CalibrationError,
    FuzzyNumber,
    FuzzySystemParams,
    Interval,
    MTBF,
    NoContainmentError,
    STEADY_AVAILABILITY,
    UnknownParameterError,
    ValidationError,
    build_table,
    calibrate_coverage,
    characteristic_bounds,
    invert_query,
    reliability_at_time,
    required_parameter_range,
)
from fuzzrel import MembershipCurve, bounds, decision
from fuzzrel.decision import _CONTAINMENT_TOL, CalibrationResult
from fuzzrel.fuzzy import _escapes

from test_bounds import (
    ALPHAS_11,
    REFERENCE_MTBF_BOUNDS,
    coupled_params,
    crisp_params,
    demo_params,
    tool,
)


def scaled_demo_params(k, coverage):
    """demo_params with every rate times k."""
    rates = dict(
        failure_rate=(0.5, 0.6, 0.7, 0.8),
        standby_failure_rate=(0.1, 0.2, 0.3, 0.4),
        repair_rate=(3.0, 4.0, 5.0, 6.0),
        reboot_rate=(1.5, 2.0, 2.5, 3.0),
    )
    return demo_params(
        coverage,
        **{
            name: FuzzyNumber.trapezoidal(*(k * x for x in nodes))
            for name, nodes in rates.items()
        },
    )


@pytest.fixture(scope="module")
def demo_table():
    return build_table(demo_params(), MTBF, ALPHAS_11)


@pytest.fixture(scope="module")
def demo_curve(demo_table):
    return demo_table.bounds


def nested_curve(rng):
    """A curve of 2 to 21 exactly nested rows on alphas from 0 to 1, whose
    branches stall on flat segments at about 3 steps in 10."""
    n = int(rng.integers(2, 22))
    steps = np.cumsum(rng.uniform(0.1, 1.0, n))
    alphas = (steps - steps[0]) / (steps[-1] - steps[0])
    rise, fall = rng.exponential(1.0, (2, n - 1)) * (rng.random((2, n - 1)) < 0.7)
    lower = rng.uniform(-10.0, 10.0) + np.concatenate([[0.0], np.cumsum(rise)])
    top = lower[-1] + rng.exponential(1.0) * (rng.random() < 0.8)
    upper = top + np.concatenate([np.cumsum(fall[::-1])[::-1], [0.0]])
    return MembershipCurve(alphas, lower, upper)


class TestBuildTable:
    @pytest.mark.parametrize(
        "metric", [MTBF, STEADY_AVAILABILITY, reliability_at_time(2.0)]
    )
    def test_cut_columns_equal_alpha_cut(self, metric):
        fp = demo_params()
        table = build_table(fp, metric, ALPHAS_11)
        for name in table.parameters:
            for a, cut in zip(table.cuts[name].alphas, table.cuts[name].intervals):
                assert cut == fp.fuzzy_by_name(name).alpha_cut(a)

    def test_parameter_columns_are_the_cuts(self, demo_table):
        cuts = demo_table.cuts
        for a, lam, theta, mu in zip(
            demo_table.alphas, *(cuts[name].intervals for name in ("lambda", "theta", "mu"))
        ):
            assert lam.lo == pytest.approx(0.5 + 0.1 * a, abs=1e-12)
            assert lam.hi == pytest.approx(0.8 - 0.1 * a, abs=1e-12)
            assert theta.lo == pytest.approx(0.1 + 0.1 * a, abs=1e-12)
            assert theta.hi == pytest.approx(0.4 - 0.1 * a, abs=1e-12)
            assert mu.lo == pytest.approx(3.0 + a, abs=1e-12)
            assert mu.hi == pytest.approx(6.0 - a, abs=1e-12)

    def test_bounds_column_matches_reference(self, demo_table):
        for a, b in zip(demo_table.bounds.alphas, demo_table.bounds.intervals):
            lo, hi = REFERENCE_MTBF_BOUNDS[round(a, 1)]
            assert b.lo == pytest.approx(lo, abs=5e-3)
            assert b.hi == pytest.approx(hi, abs=5e-3)

    def test_mtbf_table_has_three_parameters(self, demo_table):
        assert demo_table.parameters == ("lambda", "theta", "mu")

    def test_availability_table_adds_reboot_column(self):
        table = build_table(demo_params(), STEADY_AVAILABILITY, (0.0, 0.5, 1.0))
        assert table.parameters == ("lambda", "theta", "mu", "beta")
        assert table.cuts["beta"].support.lo == pytest.approx(1.5)

    def test_crisp_rows_identical(self):
        table = build_table(crisp_params(), MTBF, (0.0, 0.5, 1.0))
        for column in (table.bounds, *table.cuts.values()):
            first = column.intervals[0]
            for iv in column.intervals:
                assert iv == first

    def test_every_column_nested(self, demo_table):
        for column in (demo_table.bounds, *demo_table.cuts.values()):
            for prev, iv in zip(column.intervals, column.intervals[1:]):
                assert prev.encloses(iv)


class TestInvertQuery:
    def test_management_target(self, demo_curve):
        alpha = invert_query(demo_curve, Interval(4.939, 6.716))
        assert alpha == pytest.approx(0.90, abs=0.02)

    def test_support_target_needs_no_confidence_tradeoff(self, demo_curve):
        alpha = invert_query(demo_curve, demo_curve.support)
        assert alpha == 0.0

    def test_top_row_target(self, demo_curve):
        alpha = invert_query(demo_curve, demo_curve.intervals[-1])
        assert alpha == 1.0

    def test_stored_rows_round_trip(self, demo_curve):
        for a, iv in zip(demo_curve.alphas, demo_curve.intervals):
            assert invert_query(demo_curve, iv) == pytest.approx(a, abs=1e-9)

    def test_wide_target_costs_nothing(self, demo_curve):
        alpha = invert_query(demo_curve, Interval(0.0, 100.0))
        assert alpha == 0.0

    def test_unreachable_target(self, demo_curve):
        with pytest.raises(NoContainmentError):
            invert_query(demo_curve, Interval(5.2, 6.0))

    def test_containment_slack_scales_with_the_curve(self):
        # every rate times 1e10 puts the MTBF near 5e-10, where an absolute
        # slack of 1e-12 hid a 0.1% miss at each end
        fp = scaled_demo_params(1e10, 0.9)
        curve = build_table(fp, MTBF, (0.0, 0.5, 1.0)).bounds
        top = curve.intervals[-1]
        target = Interval(1.001 * top.lo, 0.999 * top.hi)
        with pytest.raises(NoContainmentError):
            invert_query(curve, target)

    def test_one_sided_threshold(self, demo_curve):
        # loose upper bound: the answer is set by the lower branch alone
        top = demo_curve.intervals[-1]
        target = Interval(demo_curve.interval_at(0.6).lo, 100.0)
        alpha = invert_query(demo_curve, target)
        assert alpha == pytest.approx(0.6, abs=1e-9)
        assert demo_curve.interval_at(alpha).lo >= target.lo - 1e-9
        assert top.hi <= target.hi

    def test_threshold_on_nested_curves_with_flat_segments(self):
        # each end of the target is a stored end, a point between the
        # support and the top row, or one float past the top row
        rng = np.random.default_rng(2027)
        for _ in range(1000):
            curve = nested_curve(rng)
            lows, highs = curve.lower, curve.upper
            los = (
                lows[rng.integers(len(lows))],
                rng.uniform(lows[0] - 1.0, lows[-1]),
                np.nextafter(lows[-1], np.inf),
            )
            his = (
                highs[rng.integers(len(highs))],
                rng.uniform(highs[-1], highs[0] + 1.0),
                np.nextafter(highs[-1], -np.inf),
            )
            for lo in los:
                for hi in his:
                    if lo > hi:
                        continue
                    target = Interval(lo, hi)
                    alpha = invert_query(curve, target)
                    for a, iv in zip(curve.alphas, curve.intervals):
                        assert a >= alpha or not target.encloses(iv), (curve, target, alpha)
                    iv = curve.interval_at(alpha)
                    assert not _escapes(
                        iv.lo, iv.hi, target.lo, target.hi, _CONTAINMENT_TOL
                    ), (curve, target, alpha)


class TestRequiredParameterRange:
    def test_repair_rate_at_high_confidence(self, demo_table):
        rng = required_parameter_range(demo_table, 0.9, "mu")
        assert rng.lo == pytest.approx(3.9, abs=1e-12)
        assert rng.hi == pytest.approx(5.1, abs=1e-12)

    def test_stored_rows_reproduced(self, demo_table):
        for name in demo_table.parameters:
            for a, cut in zip(demo_table.cuts[name].alphas, demo_table.cuts[name].intervals):
                rng = required_parameter_range(demo_table, a, name)
                assert rng.lo == pytest.approx(cut.lo, abs=1e-12)
                assert rng.hi == pytest.approx(cut.hi, abs=1e-12)

    def test_interpolates_between_rows(self, demo_table):
        rng = required_parameter_range(demo_table, 0.85, "lambda")
        assert rng.lo == pytest.approx(0.585, abs=1e-12)
        assert rng.hi == pytest.approx(0.715, abs=1e-12)

    def test_unknown_parameter(self, demo_table):
        with pytest.raises(UnknownParameterError):
            required_parameter_range(demo_table, 0.5, "gamma")
        with pytest.raises(UnknownParameterError):
            required_parameter_range(demo_table, 0.5, "beta")  # mtbf table

    def test_alpha_outside_table(self, demo_table):
        with pytest.raises(ValidationError):
            required_parameter_range(demo_table, 1.5, "mu")


class TestCalibrateCoverage:
    @pytest.mark.parametrize("coverage", [0.5, 0.8, 0.9, 0.95, 1.0])
    def test_round_trip(self, coverage):
        fp = demo_params()
        anchor = characteristic_bounds(
            fp.with_coverage(coverage), MTBF, 1.0
        ).bounds
        result = calibrate_coverage(fp, MTBF, 1.0, anchor)
        assert result.coverage == pytest.approx(coverage, abs=1e-6)
        assert abs(result.lower_residual) < 1e-6

    def test_upper_residual_reported(self):
        fp = demo_params()
        anchor = characteristic_bounds(fp.with_coverage(0.9), MTBF, 1.0).bounds
        widened = Interval(anchor.lo, anchor.hi + 0.05)
        result = calibrate_coverage(fp, MTBF, 1.0, widened)
        assert result.coverage == pytest.approx(0.9, abs=1e-6)
        assert result.upper_residual == pytest.approx(-0.05, abs=1e-6)

    def test_no_root_in_unit_interval(self):
        fp = demo_params()
        with pytest.raises(CalibrationError):
            calibrate_coverage(fp, MTBF, 1.0, Interval(100.0, 200.0))

    @pytest.mark.parametrize("k", [1e-10, 1e-9, 1e10, 1e11])
    def test_scaled_rates_calibrate_alike(self, k):
        # the MTBF scales as 1 / k and the true coverage stays 0.9; with
        # absolute tolerances k <= 1e-8 stalled, 1e10 returned 0, 1e11 1
        anchor = characteristic_bounds(scaled_demo_params(k, 0.9), MTBF, 1.0).bounds
        result = calibrate_coverage(scaled_demo_params(k, 0.5), MTBF, 1.0, anchor)
        assert result.coverage == pytest.approx(0.9, abs=1e-9)
        assert abs(result.lower_residual) <= 1e-12 * anchor.lo

    def test_availability_metric_calibrates_too(self):
        fp = demo_params()
        anchor = characteristic_bounds(
            fp.with_coverage(0.7), STEADY_AVAILABILITY, 1.0
        ).bounds
        result = calibrate_coverage(fp, STEADY_AVAILABILITY, 1.0, anchor)
        assert result.coverage == pytest.approx(0.7, abs=1e-6)

    @pytest.mark.parametrize(
        "fp, anchor",
        [
            (demo_params(0.5), Interval(5.0669, 6.5424)),
            (coupled_params().with_coverage(0.5), None),
        ],
        ids=["reference", "coupled"],
    )
    def test_one_bound_search_at_the_root(self, fp, anchor):
        # the roots come from the lower bound's two rows alone; the search
        # runs once, for both residuals
        if anchor is None:
            anchor = characteristic_bounds(fp.with_coverage(0.9), MTBF, 1.0).bounds
        searched = mock.Mock(wraps=decision._search)
        with mock.patch.object(decision, "_search", searched):
            result = calibrate_coverage(fp, MTBF, 1.0, anchor)
        assert [call.args[3] for call in searched.call_args_list] == [result.coverage]

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("true_coverage", [0.3, 0.9])
    @pytest.mark.parametrize("model", ["demo", "coupled", "wide"])
    @pytest.mark.parametrize("metric", [MTBF, STEADY_AVAILABILITY], ids=["mtbf", "availability"])
    def test_agrees_with_brentq_on_the_search(self, metric, model, true_coverage, alpha):
        fp = {
            "demo": demo_params,
            "coupled": coupled_params,
            "wide": lambda: tool("ladder_probe").WIDE,
        }[model]().with_coverage(0.5)
        anchor = characteristic_bounds(fp.with_coverage(true_coverage), metric, alpha).bounds
        result = calibrate_coverage(fp, metric, alpha, anchor)
        searched = searched_calibration(fp, metric, alpha, anchor)
        tol = decision._CALIBRATION_TOL * max(abs(anchor.lo), abs(anchor.hi))
        assert result.coverage == pytest.approx(searched.coverage, abs=1e-9)
        assert result.coverage == pytest.approx(true_coverage, abs=1e-9)
        assert abs(result.lower_residual - searched.lower_residual) <= tol
        assert abs(result.upper_residual - searched.upper_residual) <= tol

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("true_coverage", [0.3, 0.9])
    @pytest.mark.parametrize("t", [2.0, 10.0])
    @pytest.mark.parametrize("params", [demo_params, coupled_params], ids=["demo", "coupled"])
    def test_reliability_calibrates(self, params, t, true_coverage, alpha):
        fp, metric = params().with_coverage(0.5), reliability_at_time(t)
        anchor = characteristic_bounds(fp.with_coverage(true_coverage), metric, alpha).bounds
        result = calibrate_coverage(fp, metric, alpha, anchor)
        assert result.coverage == pytest.approx(true_coverage, abs=1e-9)
        assert abs(result.lower_residual) <= 1e-12 * anchor.hi


    def test_availability_anchor_between_two_roots(self):
        # the lower bound rises from c = 0 to a peak near c = 0.05, then
        # falls: 5.464e-4, 5.614e-4 and 5.605e-4 at c = 0, 0.05 and 1. The
        # anchor from c = 0.3 lies above both ends, with gaps -1.419e-05
        # and -1.124e-07, so it has a root on each side of the peak. The
        # box at alpha = 1 is a point, so both roots' residuals tie, and
        # the tie goes to the larger root
        fp = TWO_ROOT_AVAILABILITY_MODEL
        anchor = characteristic_bounds(
            fp.with_coverage(0.3), STEADY_AVAILABILITY, 1.0
        ).bounds
        result = calibrate_coverage(fp, STEADY_AVAILABILITY, 1.0, anchor)
        assert result.coverage == pytest.approx(0.3, abs=1e-9)

    def test_mtbf_anchor_near_full_coverage(self):
        # MTBF moves by about mu^2 / (2 lambda^2) relative per unit of c
        # near c = 1, so a root found only to 1e-12 absolute in c would
        # miss the 1e-7 residual rule by far
        fp = demo_params(
            coverage=0.5,
            failure_rate=FuzzyNumber.trapezoidal(0.9, 1.0, 1.1, 1.2),
            standby_failure_rate=FuzzyNumber.trapezoidal(0.4, 0.5, 0.6, 0.7),
            repair_rate=FuzzyNumber.trapezoidal(9e3, 1e4, 1.1e4, 1.2e4),
        )
        true_coverage = 1.0 - 1e-8
        anchor = characteristic_bounds(fp.with_coverage(true_coverage), MTBF, 1.0).bounds
        result = calibrate_coverage(fp, MTBF, 1.0, anchor)
        assert result.coverage == pytest.approx(true_coverage, abs=1e-12)
        assert abs(result.lower_residual) <= 1e-7 * anchor.hi

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_round_trips_near_full_coverage_are_exact(self, alpha):
        # at mu = 1e6 lambda and 1 - c below about 1e-9, one float step of
        # c moves MTBF by more than the 1e-7 rule, so only the model's own
        # coverage meets it: the roots keep 1 - c to full relative
        # precision, and return that coverage exactly
        for coverage in 1.0 - 10.0 ** np.linspace(-12.0, -6.0, 25):
            anchor = characteristic_bounds(
                FAST_REPAIR_MODEL.with_coverage(coverage), MTBF, alpha
            ).bounds
            result = calibrate_coverage(FAST_REPAIR_MODEL, MTBF, alpha, anchor)
            assert result.coverage == coverage

    def test_ill_conditioned_anchor_names_the_conditioning(self):
        # an anchor halfway between two adjacent coverages' lower bounds
        # meets no float coverage to 1e-7
        fp, coverage = FAST_REPAIR_MODEL, 1.0 - 1e-10
        below, above = (
            characteristic_bounds(fp.with_coverage(c), MTBF, 1.0).bounds
            for c in (coverage, np.nextafter(coverage, 1.0))
        )
        anchor = Interval(0.5 * (below.lo + above.lo), above.hi)
        with pytest.raises(CalibrationError, match="ill-conditioned"):
            calibrate_coverage(fp, MTBF, 1.0, anchor)


class TestCalibrationFuzz:
    # tools/calibrate_probe.py's fuzz: lambda lo on 1e-6..1e9, mu and beta
    # lo from 1e-6 to 1e6 times it, coverage 0, 1, U(0, 1) or within
    # 1e-12..1e-2 of 1, derandomized at seed 11
    MODELS = 200

    def test_round_trips_meet_the_residual_rule(self):
        draw_model = tool("calibrate_probe").draw_model
        rng = np.random.default_rng(11)
        for _ in range(self.MODELS):
            fp, t = draw_model(rng)
            start = fp.with_coverage(0.5)
            for metric in (MTBF, STEADY_AVAILABILITY, reliability_at_time(t)):
                for alpha in (0.0, 0.5, 1.0):
                    anchor = characteristic_bounds(fp, metric, alpha).bounds
                    result = calibrate_coverage(start, metric, alpha, anchor)
                    case = (fp, metric, alpha, result)
                    tol = decision._CALIBRATION_TOL * max(abs(anchor.lo), abs(anchor.hi))
                    assert abs(result.lower_residual) <= tol, case
                    if metric is MTBF:
                        # MTTF rises strictly in c, so its one root is the
                        # model's own coverage
                        assert result.coverage == pytest.approx(fp.coverage, abs=1e-9), case


def _near(x, lo, hi):
    """trap(lo x, x, x, hi x)."""
    return FuzzyNumber.trapezoidal(lo * x, x, x, hi * x)


TWO_ROOT_AVAILABILITY_MODEL = FuzzySystemParams(
    _near(93.688, 0.99, 1.01),
    _near(89.918, 0.99, 1.0),
    _near(0.052529, 0.99, 1.01),
    _near(0.15161, 0.99, 1.01),
    coverage=0.5,
)

FAST_REPAIR_MODEL = demo_params(
    coverage=0.5,
    failure_rate=FuzzyNumber.trapezoidal(0.9, 1.0, 1.1, 1.2),
    standby_failure_rate=FuzzyNumber.trapezoidal(0.4, 0.5, 0.6, 0.7),
    repair_rate=FuzzyNumber.trapezoidal(9e5, 1e6, 1.1e6, 1.2e6),
)


def searched_calibration(fp, metric, alpha, anchor):
    """A reference calibration that runs one full bound search per step:
    brentq on the search's minimum, which calibrate_coverage's closed
    forms must agree with to the residual rule."""
    import scipy.optimize

    cuts = bounds._boxes(fp, metric, np.array([float(alpha)]))

    def found(c):
        return bounds._search(fp, metric, cuts, c).bounds[:, 0]

    def lower_gap(c):
        return float(found(c)[0]) - anchor.lo

    scale = max(abs(anchor.lo), abs(anchor.hi))
    gap0, gap1 = lower_gap(0.0), lower_gap(1.0)
    if abs(gap1) <= decision._BOUNDARY_ROOT_TOL * scale:
        coverage = 1.0
    elif abs(gap0) <= decision._BOUNDARY_ROOT_TOL * scale:
        coverage = 0.0
    else:
        coverage = float(scipy.optimize.brentq(lower_gap, 0.0, 1.0, xtol=1e-12, maxiter=200))
    lower, upper = (found(coverage) - [anchor.lo, anchor.hi]).tolist()
    return CalibrationResult(coverage, lower, upper)
