"""Interval bounds over alpha-cut boxes: NLP pipeline vs grid scans."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzrel import (
    BoundsMethod,
    FuzzyNumber,
    FuzzySystemParams,
    Interval,
    KernelEvaluationError,
    MTBF,
    Metric,
    NestingError,
    STEADY_AVAILABILITY,
    SolverError,
    SystemParams,
    ValidationError,
    brute_force_bounds,
    characteristic_bounds,
    evaluate_metric,
    membership_curve,
    mttf,
    reliability_at_time,
)
from fuzzrel import bounds

from test_markov import STIFF_RELIABILITY

# Frozen regression targets for the standard demo parameter set
# (trapezoidal rates below with coverage 0.9), validated against an
# independent grid scan during development.
REFERENCE_MTBF_BOUNDS = {
    0.0: (3.8952, 8.6229),
    0.1: (4.0030, 8.3722),
    0.2: (4.1126, 8.1330),
    0.3: (4.2242, 7.9046),
    0.4: (4.3377, 7.6859),
    0.5: (4.4534, 7.4764),
    0.6: (4.5712, 7.2752),
    0.7: (4.6913, 7.0817),
    0.8: (4.8139, 6.8955),
    0.9: (4.9390, 6.7159),
    1.0: (5.0669, 6.5424),
}

# Steady-availability bounds of the same model at the levels where
# dA/dmu flips sign inside the box, as the randomized Nelder-Mead search
# found them; each maximum is the vertex at the top of the mu cut.
REFERENCE_AVAILABILITY_BOUNDS = {
    0.0: (0.8732116428219046, 0.9641572825040943),
    0.1: (0.8791039203502694, 0.9626069006377603),
    0.2: (0.8846276410488638, 0.9610053275938695),
}

ALPHAS_11 = tuple(i / 10 for i in range(11))


# mu spans nine decades; the first of test_markov's STIFF_RELIABILITY
# cases is its mu = 1e9 corner
STIFF_REPAIR_BOX = FuzzySystemParams(
    failure_rate=FuzzyNumber.crisp(1e-6),
    standby_failure_rate=FuzzyNumber.crisp(1e-7),
    repair_rate=FuzzyNumber.trapezoidal(1.0, 1.0, 1e9, 1e9),
    reboot_rate=FuzzyNumber.crisp(1.0),
    coverage=0.99,
)


# lambda's cut is 9e-16 wide
NARROW_LAMBDA_BOX = FuzzySystemParams(
    failure_rate=FuzzyNumber.trapezoidal(1e-9, 1e-9, 1.0000009e-9, 1.0000009e-9),
    standby_failure_rate=FuzzyNumber.crisp(0.0),
    repair_rate=FuzzyNumber.crisp(1e-3),
    reboot_rate=FuzzyNumber.crisp(1.0),
    coverage=0.5,
)

# MTTF at the two ends of NARROW_LAMBDA_BOX's lambda cut, computed once with
# mpmath at 50 digits by mpmath.lu_solve of the 3x3 first-step system
NARROW_LAMBDA_MTBF = (999999100.00081006369, 999999999.99999993772)


def demo_params(coverage=0.9, **overrides):
    kwargs = dict(
        failure_rate=FuzzyNumber.trapezoidal(0.5, 0.6, 0.7, 0.8),
        standby_failure_rate=FuzzyNumber.trapezoidal(0.1, 0.2, 0.3, 0.4),
        repair_rate=FuzzyNumber.trapezoidal(3.0, 4.0, 5.0, 6.0),
        reboot_rate=FuzzyNumber.trapezoidal(1.5, 2.0, 2.5, 3.0),
        coverage=coverage,
    )
    kwargs.update(overrides)
    return FuzzySystemParams(**kwargs)


def crisp_params(**overrides):
    kwargs = dict(
        failure_rate=FuzzyNumber.crisp(0.6),
        standby_failure_rate=FuzzyNumber.crisp(0.2),
        repair_rate=FuzzyNumber.crisp(4.0),
        reboot_rate=FuzzyNumber.crisp(2.0),
        coverage=0.9,
    )
    kwargs.update(overrides)
    return FuzzySystemParams(**kwargs)


def assert_polytope_bounds(fp, alpha):
    """Every metric's bounds at alpha enclose a grid of the box's points
    where theta <= lambda, and are taken at such points."""
    for metric in (MTBF, STEADY_AVAILABILITY, reliability_at_time(2.0)):
        res = characteristic_bounds(fp, metric, alpha)
        assert bounds._cut_by_standby(res.box)
        # availability's grid has four axes, the others' three
        per_axis = 13 if metric.uses_reboot_rate else 41
        grid = brute_force_bounds(fp, metric, alpha, per_axis)
        tol = 1e-12 * max(abs(grid.bounds.lo), abs(grid.bounds.hi))
        assert res.bounds.lo <= grid.bounds.lo + tol
        assert res.bounds.hi >= grid.bounds.hi - tol
        for point in (res.argmin, res.argmax):
            assert point["theta"] <= point["lambda"]


class TestMetric:
    def test_reliability_requires_time(self):
        with pytest.raises(ValidationError):
            Metric("reliability")
        with pytest.raises(ValidationError):
            Metric("reliability", -1.0)
        assert reliability_at_time(2.0).t == 2.0

    def test_point_metrics_take_no_time(self):
        with pytest.raises(ValidationError):
            Metric("mtbf", 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            Metric("median")

    def test_axis_selection(self):
        assert not MTBF.uses_reboot_rate
        assert STEADY_AVAILABILITY.uses_reboot_rate


class TestFuzzyParamsValidation:
    def test_requires_positive_supports(self):
        with pytest.raises(ValidationError):
            demo_params(failure_rate=FuzzyNumber.trapezoidal(0.0, 0.1, 0.2, 0.3))
        with pytest.raises(ValidationError):
            demo_params(repair_rate=FuzzyNumber.trapezoidal(-1.0, 1.0, 2.0, 3.0))

    def test_requires_coverage_in_unit_interval(self):
        with pytest.raises(ValidationError):
            demo_params(coverage=1.2)

    def test_standby_coupling_validates_cut_containment(self):
        with pytest.raises(ValidationError):
            demo_params(
                standby_failure_rate=FuzzyNumber.trapezoidal(0.5, 0.9, 1.0, 1.2),
            )
        # theta cuts below lambda's upper bounds: accepted
        demo_params()

    def test_standby_coupling_checked_between_sample_levels(self):
        # theta's upper end passes lambda's only for alpha in (0, 0.01),
        # peaking at alpha = 0.005: 0.5998 > 0.5995. theta <= lambda cuts
        # that box, and its bounds keep to the polytope
        fp = demo_params(
            failure_rate=FuzzyNumber.trapezoidal(0.1, 0.3, 0.5, 0.6),
            standby_failure_rate=FuzzyNumber.from_breakpoints(
                [(0.1, 0.0), (0.2, 1.0), (0.3, 1.0), (0.5, 0.01),
                 (0.5998, 0.005), (0.6, 0.0)]
            ),
        )
        assert_polytope_bounds(fp, 0.005)

    def test_standby_coupling_checked_just_above_a_plateau(self):
        # lambda's cut jumps from 0.6 down to 0.5 just above alpha = 0.4;
        # theta's upper end is 0.51 there, and theta <= lambda cuts the box
        lam = FuzzyNumber.from_breakpoints(
            [(0.1, 0.0), (0.2, 1.0), (0.3, 1.0), (0.5, 0.4), (0.6, 0.4), (0.7, 0.0)]
        )
        theta = FuzzyNumber.from_breakpoints(
            [(0.1, 0.0), (0.2, 1.0), (0.3, 1.0), (0.46, 0.5), (0.51, 0.4), (0.58, 0.0)]
        )
        assert theta.alpha_cut(0.41).hi > lam.alpha_cut(0.41).hi
        assert_polytope_bounds(
            demo_params(failure_rate=lam, standby_failure_rate=theta), 0.41
        )

    @pytest.mark.parametrize(
        "lam, theta", [(1e-13, 5e-13), (0.5, 0.5 + 5e-13)], ids=["tiny", "unit"]
    )
    def test_standby_excess_beyond_rounding_rejected(self, lam, theta):
        # an absolute slack of 1e-12 let both through, and every bound of
        # them then found no feasible point
        with pytest.raises(ValidationError, match="exceeds failure rate cut"):
            crisp_params(
                failure_rate=FuzzyNumber.crisp(lam),
                standby_failure_rate=FuzzyNumber.crisp(theta),
            )

    def test_modal_reduction(self):
        p = demo_params().modal_params()
        assert p.failure_rate == pytest.approx(0.65)
        assert p.standby_failure_rate == pytest.approx(0.25)
        assert p.repair_rate == pytest.approx(4.5)
        assert p.coverage == 0.9
        assert p.reboot_rate == pytest.approx(2.25)


class TestCharacteristicBounds:
    def test_reproduces_reference_intervals(self):
        fp = demo_params()
        for alpha in (0.0, 0.5, 1.0):
            res = characteristic_bounds(fp, MTBF, alpha)
            lo, hi = REFERENCE_MTBF_BOUNDS[alpha]
            assert res.bounds.lo == pytest.approx(lo, abs=5e-3)
            assert res.bounds.hi == pytest.approx(hi, abs=5e-3)

    def test_extremes_at_monotone_corners(self):
        # MTBF falls with both failure rates and grows with repair rate
        res = characteristic_bounds(demo_params(), MTBF, 0.5)
        assert res.argmin["lambda"] == pytest.approx(0.75)
        assert res.argmin["theta"] == pytest.approx(0.35)
        assert res.argmin["mu"] == pytest.approx(3.5)
        assert res.argmax["lambda"] == pytest.approx(0.55)
        assert res.argmax["theta"] == pytest.approx(0.15)
        assert res.argmax["mu"] == pytest.approx(5.5)

    def test_bounds_reproduced_by_kernel_at_argpoints(self):
        fp = demo_params()
        for metric in (MTBF, STEADY_AVAILABILITY, reliability_at_time(2.0)):
            res = characteristic_bounds(fp, metric, 0.3)
            beta_mid = fp.reboot_rate.modal_interval.midpoint
            at_min = SystemParams(
                res.argmin["lambda"],
                res.argmin["theta"],
                res.argmin["mu"],
                fp.coverage,
                res.argmin.get("beta", beta_mid),
            )
            at_max = SystemParams(
                res.argmax["lambda"],
                res.argmax["theta"],
                res.argmax["mu"],
                fp.coverage,
                res.argmax.get("beta", beta_mid),
            )
            assert evaluate_metric(at_min, metric) == pytest.approx(
                res.bounds.lo, abs=1e-10
            )
            assert evaluate_metric(at_max, metric) == pytest.approx(
                res.bounds.hi, abs=1e-10
            )

    def test_argpoints_inside_box(self):
        res = characteristic_bounds(demo_params(), STEADY_AVAILABILITY, 0.2)
        for point in (res.argmin, res.argmax):
            for name, iv in res.box.items():
                assert iv.contains(point[name], tol=1e-12)

    def test_crisp_box_collapses_to_point(self):
        fp = crisp_params()
        res = characteristic_bounds(fp, MTBF, 0.5)
        assert res.method is BoundsMethod.CLOSED_FORM
        assert res.bounds.is_point
        assert res.bounds.lo == pytest.approx(mttf(fp.modal_params()), abs=1e-12)

    def test_repeat_is_bit_identical(self):
        fp = demo_params(coverage=0.5)
        a = characteristic_bounds(fp, STEADY_AVAILABILITY, 0.0)
        b = characteristic_bounds(fp, STEADY_AVAILABILITY, 0.0)
        assert a.open_axes == ("mu",)
        assert a.bounds == b.bounds
        assert a.argmin == b.argmin
        assert a.argmax == b.argmax

    def test_availability_bounds_inside_unit_interval(self):
        res = characteristic_bounds(demo_params(), STEADY_AVAILABILITY, 0.0)
        assert 0.0 < res.bounds.lo < res.bounds.hi < 1.0
        assert set(res.box) == {"lambda", "theta", "mu", "beta"}

    def test_reliability_bounds_inside_unit_interval(self):
        res = characteristic_bounds(demo_params(), reliability_at_time(1.5), 0.0)
        assert 0.0 < res.bounds.lo < res.bounds.hi < 1.0

    def test_alpha_domain_checked(self):
        with pytest.raises(ValidationError):
            characteristic_bounds(demo_params(), MTBF, 1.5)

    def test_availability_rejects_a_box_without_repair(self):
        fp = demo_params(repair_rate=FuzzyNumber.trapezoidal(0.0, 1.0, 2.0, 3.0))
        assert characteristic_bounds(fp, MTBF, 0.0).bounds.lo > 0.0
        with pytest.raises(KernelEvaluationError, match="repair_rate > 0") as err:
            characteristic_bounds(fp, STEADY_AVAILABILITY, 0.0)
        assert err.value.point["mu"] == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_reliability_at_time_zero_is_exactly_one(self, alpha):
        res = characteristic_bounds(demo_params(), reliability_at_time(0.0), alpha)
        assert (res.bounds.lo, res.bounds.hi) == (1.0, 1.0)

    @pytest.mark.parametrize("t", [1e-9, 1.0, 200.0])
    def test_reliability_without_repair_stays_in_unit_interval(self, t):
        # mu = 0 rows take R(t) from expm of the up block (_up_block_expm)
        fp = demo_params(repair_rate=FuzzyNumber.trapezoidal(0.0, 1.0, 2.0, 3.0))
        res = characteristic_bounds(fp, reliability_at_time(t), 0.0)
        assert res.argmin["mu"] == 0.0
        assert 0.0 <= res.bounds.lo <= res.bounds.hi <= 1.0

    def test_stiff_corner_matches_50_digit_reference(self):
        # a 6x6 expm left the probability simplex at the mu = 1e9 corner
        rates, t, expected = STIFF_RELIABILITY[0]
        res = characteristic_bounds(STIFF_REPAIR_BOX, reliability_at_time(t), 0.0)
        # repair keeps more time in UP3, whose uncovered exits include theta
        assert res.argmin == {"lambda": 1e-6, "theta": 1e-7, "mu": 1e9}
        assert res.bounds.lo == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_narrow_axis_is_pinned_at_either_end(self):
        # more failures shorten the MTBF, so its minimum sits at the top of
        # the narrow lambda cut
        res = characteristic_bounds(NARROW_LAMBDA_BOX, MTBF, 0.0)
        assert res.argmin["lambda"] == 1.0000009e-9
        assert res.argmax["lambda"] == 1e-9
        ends = [SystemParams(lam, 0.0, 1e-3, 0.5, 1.0) for lam in (1.0000009e-9, 1e-9)]
        assert (res.bounds.lo, res.bounds.hi) == tuple(mttf(p) for p in ends)
        assert res.bounds.lo == pytest.approx(NARROW_LAMBDA_MTBF[0], rel=1e-14)
        assert res.bounds.hi == pytest.approx(NARROW_LAMBDA_MTBF[1], rel=1e-14)

    def test_standby_coupling_skips_infeasible_corners(self):
        fp = demo_params(
            failure_rate=FuzzyNumber.trapezoidal(0.5, 0.6, 0.7, 0.8),
            standby_failure_rate=FuzzyNumber.trapezoidal(0.3, 0.5, 0.6, 0.8),
        )
        res = characteristic_bounds(fp, MTBF, 0.0)
        assert res.argmin["theta"] <= res.argmin["lambda"] + 1e-12
        assert res.argmax["theta"] <= res.argmax["lambda"] + 1e-12
        assert res.bounds.lo < res.bounds.hi


class TestBruteForce:
    def test_validates_grid(self):
        with pytest.raises(ValidationError):
            brute_force_bounds(demo_params(), MTBF, 0.5, 1)

    def test_two_point_grid_is_corner_scan(self):
        fp = demo_params()
        grid = brute_force_bounds(fp, MTBF, 0.5, 2)
        nlp = characteristic_bounds(fp, MTBF, 0.5)
        assert grid.method is BoundsMethod.GRID_REFINE
        assert grid.bounds.lo == pytest.approx(nlp.bounds.lo, abs=1e-12)
        assert grid.bounds.hi == pytest.approx(nlp.bounds.hi, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_grid_agrees_with_nlp(self, alpha):
        fp = demo_params()
        grid = brute_force_bounds(fp, MTBF, alpha, 21)
        nlp = characteristic_bounds(fp, MTBF, alpha)
        assert grid.bounds.lo == pytest.approx(nlp.bounds.lo, rel=1e-4)
        assert grid.bounds.hi == pytest.approx(nlp.bounds.hi, rel=1e-4)
        # the grid samples a subset of the box, so it brackets from inside
        assert grid.bounds.lo >= nlp.bounds.lo - 1e-9
        assert grid.bounds.hi <= nlp.bounds.hi + 1e-9

    def test_availability_grid_agrees_with_nlp(self):
        fp = demo_params()
        grid = brute_force_bounds(fp, STEADY_AVAILABILITY, 0.5, 5)
        nlp = characteristic_bounds(fp, STEADY_AVAILABILITY, 0.5)
        assert grid.bounds.lo == pytest.approx(nlp.bounds.lo, rel=1e-4)
        assert grid.bounds.hi == pytest.approx(nlp.bounds.hi, rel=1e-4)


class TestMembershipCurveOp:
    def test_reproduces_reference_table(self):
        curve = membership_curve(demo_params(), MTBF, ALPHAS_11)
        for alpha, iv in curve.rows:
            lo, hi = REFERENCE_MTBF_BOUNDS[round(alpha, 1)]
            assert iv.lo == pytest.approx(lo, abs=5e-3)
            assert iv.hi == pytest.approx(hi, abs=5e-3)

    def test_rows_are_nested(self):
        curve = membership_curve(demo_params(), MTBF, ALPHAS_11)
        for (a0, iv0), (a1, iv1) in zip(curve.rows, curve.rows[1:]):
            assert iv0.encloses(iv1)

    def test_crisp_inputs_give_identical_point_rows(self):
        curve = membership_curve(crisp_params(), MTBF, (0.0, 0.5, 1.0))
        first = curve.intervals[0]
        assert first.is_point
        assert all(iv == first for iv in curve.intervals)

    def test_ladder_validation(self):
        fp = demo_params()
        with pytest.raises(ValidationError):
            membership_curve(fp, MTBF, (0.0, 0.5))  # missing 1
        with pytest.raises(ValidationError):
            membership_curve(fp, MTBF, (0.1, 1.0))  # missing 0
        with pytest.raises(ValidationError):
            membership_curve(fp, MTBF, (0.0, 0.5, 0.5, 1.0))

    def test_availability_curve_nested_and_bounded(self):
        curve = membership_curve(demo_params(), STEADY_AVAILABILITY, (0.0, 0.5, 1.0))
        assert 0.0 < curve.intervals[0].lo
        assert curve.intervals[0].hi < 1.0
        assert curve.intervals[0].encloses(curve.intervals[2])


class TestEnforceNesting:
    ALPHAS = (0.0, 0.5, 1.0)

    def test_noise_below_tolerance_is_clamped(self):
        # the top row pokes out of the middle one by 1e-12 of its magnitude
        top = Interval(5.0 - 5e-12, 7.0 + 5e-12)
        rows = [Interval(4.0, 9.0), Interval(5.0, 7.0), top]
        nested = bounds.enforce_nesting(self.ALPHAS, rows)
        assert nested == (Interval(4.0, 9.0), Interval(5.0, 7.0), Interval(5.0, 7.0))

    def test_escape_beyond_tolerance_names_both_levels(self):
        rows = [Interval(4.0, 9.0), Interval(5.0, 7.0), Interval(5.0, 7.0 + 1e-6)]
        with pytest.raises(NestingError, match=r"alpha=1 escape bounds at alpha=0\.5"):
            bounds.enforce_nesting(self.ALPHAS, rows)

    def test_collapse_below_zero_width_is_rejected(self):
        # within tolerance, but wholly above a point row
        top = Interval(5.0 + 1e-12, 5.0 + 1e-12)
        rows = [Interval(4.0, 9.0), Interval(5.0, 5.0), top]
        with pytest.raises(NestingError, match=r"alpha=1 collapse below width zero"):
            bounds.enforce_nesting(self.ALPHAS, rows)


def coupled_params():
    # theta <= lambda cuts every box: at alpha = 0 the MTBF maximum is the
    # polytope vertex lambda = theta = 0.3, not a box corner
    return demo_params(
        failure_rate=FuzzyNumber.trapezoidal(0.1, 0.3, 0.5, 0.6),
        standby_failure_rate=FuzzyNumber.trapezoidal(0.3, 0.35, 0.45, 0.5),
    )


def open_mu_on(top_width):
    """_mu_signs with mu forced open on cuts top_width wide only, which
    the halves of a cut never are."""
    mu_signs = bounds._mu_signs

    def signs(values, partials, width):
        forced = np.asarray(width) == top_width
        return np.where(forced, np.nan, mu_signs(values, partials, width))

    return signs


# The c = 0.5 availability box, whose maximum lies inside the mu cut.
OPEN_AVAILABILITY_BOX = """
fp = fuzzrel.FuzzySystemParams(
    fuzzrel.FuzzyNumber.trapezoidal(0.5, 0.6, 0.7, 0.8),
    fuzzrel.FuzzyNumber.trapezoidal(0.1, 0.2, 0.3, 0.4),
    fuzzrel.FuzzyNumber.trapezoidal(3.0, 4.0, 5.0, 6.0),
    fuzzrel.FuzzyNumber.trapezoidal(1.5, 2.0, 2.5, 3.0),
    coverage=0.5,
)
res = fuzzrel.characteristic_bounds(fp, fuzzrel.STEADY_AVAILABILITY, 0.0)
assert res.open_axes == ("mu",)
"""


def loaded_after(module, work="", package="fuzzrel"):
    """Whether module is loaded after a fresh interpreter imports fuzzrel
    and package and runs the code work."""
    import fuzzrel

    src = str(Path(fuzzrel.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    code = (
        f"import sys, fuzzrel, {package}\n{work}\nprint({module!r} in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return out.stdout.strip() == "True"


class TestCertificate:
    @pytest.mark.parametrize("metric", [MTBF, reliability_at_time(10.0)])
    def test_reference_levels_certified(self, metric):
        method = BoundsMethod.CORNER_SCAN if metric.t else BoundsMethod.CLOSED_FORM
        for res in bounds.bounds_at_levels(demo_params(), metric, ALPHAS_11):
            assert res.open_axes == ()
            assert res.method is method

    def test_interior_availability_maximum_left_to_search(self):
        # dA/dmu changes sign inside the box: the corners alone give
        # 0.8471728594507, the maximum sits at mu ~ 3.3227
        fp = demo_params(coverage=0.5)
        res = characteristic_bounds(fp, STEADY_AVAILABILITY, 0.0)
        assert res.open_axes == ("mu",)
        assert res.method is BoundsMethod.CLOSED_FORM
        assert res.bounds.hi == pytest.approx(0.847221810531241, abs=1e-9)
        assert res.argmax["mu"] == pytest.approx(3.3227, abs=1e-3)

    @pytest.mark.parametrize("alpha", sorted(REFERENCE_AVAILABILITY_BOUNDS))
    def test_reference_availability_bounds_pinned(self, alpha):
        res = characteristic_bounds(demo_params(), STEADY_AVAILABILITY, alpha)
        lo, hi = REFERENCE_AVAILABILITY_BOUNDS[alpha]
        # dA/dmu flips sign inside the box only at the minimum's point,
        # which an end of the mu cut takes; the maximum's point rises
        assert res.open_axes == ()
        assert res.bounds.lo == pytest.approx(lo, rel=1e-12)
        assert res.bounds.hi == pytest.approx(hi, rel=1e-12)

    # R(t) at three mission times; MTBF and availability take no certificate
    @pytest.mark.parametrize(
        "metric", [reliability_at_time(t) for t in (0.5, 2.0, 10.0)]
    )
    @pytest.mark.parametrize(
        "fp", [demo_params(), demo_params(coverage=0.5), coupled_params()],
        ids=["reference", "c=0.5", "coupled"],
    )
    def test_two_open_axes_subdivided(self, fp, metric):
        # lambda and theta are pinned by proof, so only mu can be open
        res = characteristic_bounds(fp, metric, 0.0)
        with mock.patch.object(bounds, "_mu_signs", open_mu_on(res.box["mu"].width)):
            forced = characteristic_bounds(fp, metric, 0.0)
        assert forced.open_axes == ("mu",)
        assert forced.method is BoundsMethod.SUBDIVISION
        assert forced.bounds.lo == pytest.approx(res.bounds.lo, rel=1e-12)
        assert forced.bounds.hi == pytest.approx(res.bounds.hi, rel=1e-12)
        grid = brute_force_bounds(fp, metric, 0.0, 5)
        tol = 1e-9 * max(abs(grid.bounds.lo), abs(grid.bounds.hi))
        assert forced.bounds.lo <= grid.bounds.lo + tol
        assert forced.bounds.hi >= grid.bounds.hi - tol

    @pytest.mark.parametrize(
        "failure",
        [
            dict(side_effect=np.linalg.LinAlgError("singular matrix")),
            dict(return_value=(np.full(6, np.nan), np.zeros(6))),
        ],
        ids=["singular", "not-finite"],
    )
    def test_failed_certificate_is_a_solver_error(self, failure):
        # raised by the first mu certificate, naming its box, before any
        # halving
        broken = mock.Mock(**failure)
        with mock.patch.object(bounds.markov, "_reliability_sensitivities", broken):
            with pytest.raises(SolverError, match=r"mu in \[3, 6\]"):
                characteristic_bounds(demo_params(), reliability_at_time(2.0), 0.0)
        assert broken.call_count == 1

    def test_one_sensitivity_call_per_level_and_no_values_call(self):
        # one call certifies mu at every level of the ladder, and supplies
        # the vertex values too; one corner check validates the ladder
        metric = reliability_at_time(10.0)
        counted = mock.Mock(wraps=bounds.markov._reliability_sensitivities)
        refuse = mock.Mock(side_effect=AssertionError("values kernel called"))
        built = mock.Mock(wraps=SystemParams)
        with (
            mock.patch.object(bounds.markov, "_reliability_sensitivities", counted),
            mock.patch.object(bounds, "_box_values", refuse),
            mock.patch.object(bounds, "SystemParams", built),
        ):
            results = bounds.bounds_at_levels(demo_params(), metric, ALPHAS_11)
        assert counted.call_count == 1
        assert built.call_count == 1
        for res in results:
            corners = brute_force_bounds(demo_params(), metric, res.alpha, 2)
            assert res.bounds.lo == pytest.approx(corners.bounds.lo, rel=1e-12)
            assert res.bounds.hi == pytest.approx(corners.bounds.hi, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize(
        "metric", [MTBF, STEADY_AVAILABILITY, reliability_at_time(2.0)]
    )
    def test_box_validated_at_one_corner(self, metric, alpha):
        # a subdivided mu cut builds none for its halves
        built = mock.Mock(wraps=SystemParams)
        with mock.patch.object(bounds, "SystemParams", built):
            characteristic_bounds(demo_params(), metric, alpha)
        assert built.call_count == 1

    def test_coupled_maximum_on_theta_equals_lambda(self):
        res = characteristic_bounds(coupled_params(), MTBF, 0.0)
        assert res.open_axes == ()
        assert res.bounds.hi == pytest.approx(11.2861, abs=1e-4)
        assert res.argmax["lambda"] == pytest.approx(0.3, abs=1e-12)
        assert res.argmax["theta"] == pytest.approx(0.3, abs=1e-12)

    def test_import_leaves_optimizer_unloaded(self):
        assert not loaded_after("scipy.optimize")
        # nor does the bounds search; only calibrate_coverage imports
        # scipy.optimize, for brentq
        assert not loaded_after("scipy.optimize", OPEN_AVAILABILITY_BOX)

    def test_import_leaves_linalg_unloaded(self):
        assert not loaded_after("scipy.linalg", package="fuzzrel.cli")
        assert not loaded_after("scipy.linalg", OPEN_AVAILABILITY_BOX)
        # R(t) values, sensitivities and a curve run on eigh alone; only the
        # availability transient and rows without repair use expm
        params = "fuzzrel.SystemParams(0.6, 0.2, 4.0, 0.9, 2.0)"
        reliability = f"""
from fuzzrel import markov
fuzzrel.reliability_at({params}, 1.0)
markov._reliability_sensitivities(markov._rates({params}), 1.0)
fuzzrel.membership_curve(
    fuzzrel.FuzzySystemParams(
        fuzzrel.FuzzyNumber.trapezoidal(0.5, 0.6, 0.7, 0.8),
        fuzzrel.FuzzyNumber.trapezoidal(0.1, 0.2, 0.3, 0.4),
        fuzzrel.FuzzyNumber.trapezoidal(3.0, 4.0, 5.0, 6.0),
        fuzzrel.FuzzyNumber.trapezoidal(1.5, 2.0, 2.5, 3.0),
        coverage=0.9,
    ),
    fuzzrel.reliability_at_time(10.0),
    (0.0, 0.5, 1.0),
)
"""
        assert not loaded_after("scipy.linalg", reliability)
        mode = "fuzzrel.ChainMode.AVAILABILITY"
        availability = f"fuzzrel.state_probabilities({params}, 1.0, {mode})"
        assert loaded_after("scipy.linalg", availability)


def _box(lo, spread):
    return FuzzyNumber.trapezoidal(lo, lo, lo * spread, lo * spread)


@st.composite
def boxed_models(draw):
    exponent = st.floats(-2.0, 2.0)
    spread = st.floats(1.0001, 30.0)
    lam_lo = 10 ** draw(exponent)
    lam_hi = lam_lo * draw(spread)
    coupled = draw(st.booleans())
    # coupled: theta reaches into lambda's range; otherwise theta <= lambda
    # holds on the whole box
    top = lam_hi if coupled else lam_lo
    s_lo = draw(st.floats(0.0, 0.99))
    s_hi = draw(st.floats(s_lo + 0.01, 1.0))
    fp = FuzzySystemParams(
        failure_rate=FuzzyNumber.trapezoidal(lam_lo, lam_lo, lam_hi, lam_hi),
        standby_failure_rate=FuzzyNumber.trapezoidal(
            s_lo * top, s_lo * top, s_hi * top, s_hi * top
        ),
        repair_rate=_box(10 ** draw(exponent), draw(spread)),
        reboot_rate=_box(10 ** draw(exponent), draw(spread)),
        coverage=draw(st.floats(0.0, 1.0)),
    )
    mission = draw(st.floats(0.05, 5.0)) / lam_hi
    metric = draw(
        st.sampled_from([MTBF, STEADY_AVAILABILITY, reliability_at_time(mission)])
    )
    return fp, metric


@settings(max_examples=30, deadline=None, derandomize=True)
@given(boxed_models())
def test_certified_bounds_never_worse_than_full_search(model):
    # the full search is an exhaustive 7-per-axis grid of the box
    fp, metric = model
    res = characteristic_bounds(fp, metric, 0.0)
    grid = brute_force_bounds(fp, metric, 0.0, 7)
    tol = 1e-9 * max(abs(grid.bounds.lo), abs(grid.bounds.hi))
    assert res.bounds.lo <= grid.bounds.lo + tol
    assert res.bounds.hi >= grid.bounds.hi - tol


def bernstein_sign(sp, expr, symbols, c):
    """+1 or -1 where expr, a polynomial in symbols with coefficients
    polynomial in c, has that sign or is zero for every symbol >= 0 and c
    in [0, 1], by the Bernstein coefficients on [0, 1] of each coefficient;
    0 for zero; None where the coefficients do not settle the sign."""
    signs = set()
    for coefficient in sp.Poly(sp.expand(expr), *symbols).coeffs():
        a = sp.Poly(coefficient, c).all_coeffs()[::-1]
        n = len(a) - 1
        weight = sp.binomial
        signs |= {
            sp.sign(sum(a[j] * weight(k, j) / weight(n, j) for j in range(k + 1)))
            for k in range(n + 1)
        }
    signs.discard(0)
    return signs.pop() if len(signs) == 1 else (None if signs else 0)


class TestProofs:
    """The facts the closed-form bounds rest on, proven with sympy from the
    values kernels themselves, run on arrays of symbols."""

    @pytest.fixture(scope="class")
    def symbolic(self):
        sp = pytest.importorskip("sympy")
        lam, theta, mu, beta, c = sp.symbols("lambda theta mu beta c", nonnegative=True)
        rates = np.array([[lam, theta, mu, c, beta]], dtype=object)

        def closed_form(kernel):
            value = sp.nsimplify(kernel(rates)[0], rational=True)
            return sp.fraction(sp.together(value))

        forms = {
            "mtbf": closed_form(bounds.markov._mttf_values),
            "availability": closed_form(bounds.markov._availability_values),
        }
        return sp, (lam, theta, mu, beta), c, rates, forms

    @staticmethod
    def numerator(sp, form, x):
        """The numerator of d(num/den)/dx, whose sign is the partial's."""
        num, den = form
        return sp.diff(num, x) * den - num * sp.diff(den, x)

    @pytest.mark.parametrize(
        "kind, signs",
        [("mtbf", (-1, -1, 0)), ("availability", (-1, -1, 1))],
    )
    def test_monotone_in_lambda_theta_and_beta(self, symbolic, kind, signs):
        sp, symbols, c, _, forms = symbolic
        lam, theta, _, beta = symbols
        num, den = forms[kind]
        assert bernstein_sign(sp, den, symbols, c) == 1
        for x, sign in zip((lam, theta, beta), signs):
            numerator = self.numerator(sp, forms[kind], x)
            assert bernstein_sign(sp, numerator, symbols, c) == sign

    @pytest.mark.parametrize(
        "kind, slope, factor",
        [
            ("mtbf", "_mttf_mu_slope", lambda lam, theta, beta: 2 * lam + theta),
            (
                "availability",
                "_availability_mu_slope",
                lambda lam, theta, beta: beta * (2 * lam + theta),
            ),
        ],
        ids=["mtbf", "availability"],
    )
    def test_mu_slope_has_one_sign_change(self, symbolic, kind, slope, factor):
        sp, symbols, c, rates, forms = symbolic
        lam, theta, mu, beta = symbols
        coefficients = [
            sp.nsimplify(sp.expand(k[0]), rational=True)
            for k in getattr(bounds.markov, slope)(rates)
        ]
        # the slope polynomial is the mu numerator up to a positive factor
        polynomial = sum(k * mu**p for p, k in enumerate(coefficients[::-1]))
        numerator = self.numerator(sp, forms[kind], mu)
        assert sp.cancel(numerator / polynomial - factor(lam, theta, beta)) == 0
        signs = [bernstein_sign(sp, k, symbols, c) for k in coefficients]
        if kind == "mtbf":
            # (-, any, +) or all <= 0: a positive middle coefficient forces
            # a positive constant one
            assert signs[0] == -1
            assert bernstein_sign(
                sp, 2 * coefficients[2] - 3 * lam * coefficients[1], symbols, c
            ) == 1
        else:
            assert signs[:2] == [-1, -1] and signs[3:] == [1, 1]


    def test_reliability_falls_in_lambda_and_theta(self, symbolic):
        # With r = expm(B t) 1, the survival probabilities (r3, r2, r1) from
        # UP3, UP2 and UP1, the gaps f = r3 - c r2 and g = r2 - c r1 solve a
        # cooperative system with nonnegative input from f(0) = g(0) = 1 - c,
        # so f, g >= 0. dR/dp is the integral of e_UP3^T expm(B (t - s))
        # (dB/dp) r(s) over [0, t], expm(B u) >= 0, and (dB/dp) r <= 0 for
        # p = lambda, theta: R(t) falls in both, at every t.
        sp, symbols, c, _, _ = symbolic
        lam, theta, mu, beta = symbols
        markov = bounds.markov
        features = {
            markov._LAM: lam,
            markov._THETA: theta,
            markov._MU: mu,
            markov._BETA: beta,
            markov._C_LAM: c * lam,
            markov._C_THETA: c * theta,
            markov._U_LAM: (1 - c) * lam,
            markov._U_THETA: (1 - c) * theta,
        }
        n_up = len(markov.UP_STATES)
        b = sp.zeros(n_up, n_up)
        for source, target, weights in markov._TRANSITIONS:
            rate = sum(sp.nsimplify(w) * features[k] for k, w in weights.items())
            b[source, source] -= rate
            if target in markov.UP_STATES:
                b[source, target] += rate
        r3, r2, r1 = sp.symbols("r3 r2 r1")
        r = sp.Matrix([r3, r2, r1])
        f, g = r3 - c * r2, r2 - c * r1
        r_dot = b * r
        f_dot, g_dot = r_dot[0] - c * r_dot[1], r_dot[1] - c * r_dot[2]
        a = 2 * lam + theta
        # f' and g' in f, g and the input terms, with these coefficients
        coupling = {"f": 2 * c * lam, "g": mu}
        inputs = {"f": c * (1 - c) * mu, "g": c * lam}
        f_rhs = -(a + c * mu) * f + coupling["f"] * g + inputs["f"] * r2
        g_rhs = coupling["g"] * f - (mu + 2 * lam) * g + inputs["g"] * r1
        assert sp.expand(f_dot - f_rhs) == 0
        assert sp.expand(g_dot - g_rhs) == 0
        ones = {r3: 1, r2: 1, r1: 1}
        assert sp.expand(f.subs(ones) - (1 - c)) == 0
        assert sp.expand(g.subs(ones) - (1 - c)) == 0
        zero = sp.zeros(n_up, 1)
        assert sp.expand(b.diff(lam) * r + sp.Matrix([2 * f, 2 * g, r1])) == zero
        assert sp.expand(b.diff(theta) * r + sp.Matrix([f, 0, 0])) == zero
        for coefficient in (*coupling.values(), *inputs.values()):
            assert bernstein_sign(sp, coefficient, symbols, c) == 1


def pinned_mu_scan(fp, metric, box, points=2001, rounds=12):
    """Lowest and highest metric values along the mu cut, the other axes
    at the ends proven for each bound, by a 2001-point scan of mu that
    zooms in on its best point until the bracket stops shrinking."""
    lam, theta, mu = box["lambda"], box["theta"], box["mu"]
    beta = box.get("beta", fp.reboot_rate.modal_interval)
    markov = bounds.markov

    def kernel(rows):
        if metric.kind == "reliability":
            return markov._reliability_values(rows, metric.t)
        if metric is MTBF:
            return markov._mttf_values(rows)
        return markov._availability_values(rows)

    def along(point, lo, hi):
        mus = np.linspace(lo, hi, points)
        rows = np.tile([*point[:2], 0.0, fp.coverage, point[2]], (points, 1))
        rows[:, 2] = mus
        return mus, kernel(rows)

    at_min = (lam.hi, min(theta.hi, lam.hi), beta.lo)
    at_max = (max(lam.lo, theta.lo), theta.lo, beta.hi)
    lowest = along(at_min, mu.lo, mu.hi)[1].min()
    lo, hi, highest = mu.lo, mu.hi, -np.inf
    for _ in range(rounds):
        mus, values = along(at_max, lo, hi)
        k = int(np.argmax(values))
        highest = max(highest, values[k])
        lo, hi = mus[max(k - 1, 0)], mus[min(k + 1, points - 1)]
        if hi - lo <= 1e-12 * hi:
            break
    return lowest, highest


@st.composite
def wide_params(draw, decades=(-6.0, 9.0), repair_from_zero=False):
    """Log-uniform rates over the decades, coverage 0, 1 or between, theta
    zero in some, coupled or not. The repair rate is drawn over the whole
    range, or within a decade or two of lambda, where turns in mu lie;
    with repair_from_zero its cut starts at 0 in some."""
    low, high = decades

    def nodes(exponent=st.floats(low, high)):
        lo, hi = sorted(10 ** draw(exponent) for _ in range(2))
        b = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
        return lo, b, b + draw(st.floats(0.0, 1.0)) * (hi - b), hi

    lam = nodes()
    near = np.log10(lam[0])
    mu = nodes(st.floats(low, high) | st.floats(max(near - 1, low), min(near + 2, high)))
    if repair_from_zero and draw(st.booleans()):
        mu = (0.0, *mu[1:])
    coupled = draw(st.booleans())
    s_lo = draw(st.just(0.0) | st.floats(0.0, 0.99))
    s_hi = draw(st.sampled_from([s_lo, 1.0]) | st.floats(s_lo, 1.0))
    # coupled: theta's cuts follow lambda's; otherwise theta stays below
    # lambda's support
    under = lam if coupled else (lam[0],) * 4
    return FuzzySystemParams(
        failure_rate=FuzzyNumber.trapezoidal(*lam),
        standby_failure_rate=FuzzyNumber.trapezoidal(
            *(s * x for s, x in zip((s_lo, s_lo, s_hi, s_hi), under))
        ),
        repair_rate=FuzzyNumber.trapezoidal(*mu),
        reboot_rate=FuzzyNumber.trapezoidal(*nodes()),
        coverage=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
    )


@st.composite
def wide_models(draw):
    return draw(wide_params()), draw(st.sampled_from([MTBF, STEADY_AVAILABILITY]))


@st.composite
def reliability_models(draw):
    """wide_params over 1e-3..1e3, repair from 0 in some, and a mission
    time between a tenth of the modal MTTF and ten times it."""
    fp = draw(wide_params((-3.0, 3.0), repair_from_zero=True))
    factor = draw(st.sampled_from([0.1, 1.0, 10.0]) | st.floats(0.1, 10.0))
    return fp, reliability_at_time(factor * mttf(fp.modal_params()))


class TestClosedForm:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(wide_models())
    def test_ladder_brackets_grid_and_equals_mu_scan(self, model):
        fp, metric = model
        for res in bounds.bounds_at_levels(fp, metric, (0.0, 0.5, 1.0)):
            grid = brute_force_bounds(fp, metric, res.alpha, 7)
            tol = 1e-9 * max(abs(grid.bounds.lo), abs(grid.bounds.hi))
            assert res.bounds.lo <= grid.bounds.lo + tol
            assert res.bounds.hi >= grid.bounds.hi - tol
            lowest, highest = pinned_mu_scan(fp, metric, res.box)
            assert res.bounds.lo == pytest.approx(lowest, rel=1e-12, abs=0.0)
            assert res.bounds.hi == pytest.approx(highest, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("metric", [MTBF, STEADY_AVAILABILITY])
    def test_one_values_call_and_one_corner_check_per_ladder(self, metric):
        kernel = "_mttf_values" if metric is MTBF else "_availability_values"
        counted = mock.Mock(wraps=getattr(bounds.markov, kernel))
        built = mock.Mock(wraps=SystemParams)
        refuse = mock.Mock(side_effect=AssertionError("sensitivities called"))
        with (
            mock.patch.object(bounds.markov, kernel, counted),
            mock.patch.object(bounds, "SystemParams", built),
            mock.patch.object(bounds.markov, "_reliability_sensitivities", refuse),
        ):
            results = bounds.bounds_at_levels(demo_params(), metric, ALPHAS_11)
        assert counted.call_count == 1
        assert built.call_count == 1
        assert [r.alpha for r in results] == list(ALPHAS_11)
        assert all(r.method is BoundsMethod.CLOSED_FORM for r in results)

    def test_non_finite_value_is_a_solver_error(self):
        nan = mock.Mock(side_effect=lambda rows: np.full(len(rows), np.nan))
        with mock.patch.object(bounds.markov, "_mttf_values", nan):
            message = r"MTBF is not finite on the box .*mu in \[3, 6\]"
            with pytest.raises(SolverError, match=message):
                bounds.bounds_at_levels(demo_params(), MTBF, ALPHAS_11)

    @pytest.mark.parametrize("metric", [MTBF, STEADY_AVAILABILITY])
    def test_zero_coverage_is_constant_in_mu(self, metric):
        # A = beta / (beta + a) and MTTF = 1 / a, with a = 2 lambda + theta
        res = characteristic_bounds(demo_params(coverage=0.0), metric, 0.0)
        a_lo, a_hi = 2 * 0.5 + 0.1, 2 * 0.8 + 0.4
        if metric is MTBF:
            expected = (1 / a_hi, 1 / a_lo)
        else:
            expected = (1.5 / (1.5 + a_hi), 3 / (3 + a_lo))
        assert (res.bounds.lo, res.bounds.hi) == pytest.approx(expected, rel=1e-15)
        assert res.open_axes == ()

    @pytest.mark.parametrize("metric", [MTBF, STEADY_AVAILABILITY])
    def test_full_coverage_rises_in_mu(self, metric):
        res = characteristic_bounds(demo_params(coverage=1.0), metric, 0.0)
        assert (res.argmin["mu"], res.argmax["mu"]) == (3.0, 6.0)
        assert res.open_axes == ()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(standby_failure_rate=FuzzyNumber.crisp(0.0), coverage=0.5),
            dict(repair_rate=FuzzyNumber.trapezoidal(0.0, 1.0, 2.0, 3.0), coverage=0.5),
            dict(repair_rate=FuzzyNumber.crisp(3.3227), coverage=0.5),
            # MTBF turns at mu ~ 7.6 where lambda = theta = 0.3
            dict(
                failure_rate=FuzzyNumber.crisp(0.3),
                standby_failure_rate=FuzzyNumber.crisp(0.3),
                repair_rate=FuzzyNumber.trapezoidal(3.0, 4.0, 9.0, 12.0),
            ),
        ],
        ids=["theta=0", "mu_lo=0", "crisp mu", "turn"],
    )
    @pytest.mark.parametrize("metric", [MTBF, STEADY_AVAILABILITY])
    def test_edge_boxes_match_mu_scan(self, overrides, metric):
        fp = demo_params(**overrides)
        if metric is STEADY_AVAILABILITY and fp.repair_rate.support.lo == 0.0:
            with pytest.raises(KernelEvaluationError, match="repair_rate > 0"):
                characteristic_bounds(fp, metric, 0.0)
            return
        for res in bounds.bounds_at_levels(fp, metric, (0.0, 0.5, 1.0)):
            lowest, highest = pinned_mu_scan(fp, metric, res.box)
            assert res.bounds.lo == pytest.approx(lowest, rel=1e-12, abs=0.0)
            assert res.bounds.hi == pytest.approx(highest, rel=1e-12, abs=0.0)
            if res.box["mu"].is_point:
                assert res.open_axes == ()
        if fp.failure_rate.is_crisp and metric is MTBF:
            assert res.open_axes == ("mu",)
            assert res.argmax["mu"] == pytest.approx(7.6, abs=0.05)

    @pytest.mark.parametrize("metric", [MTBF, STEADY_AVAILABILITY])
    def test_coupled_box_infeasible_at_the_top_level(self, metric):
        # theta's modal point one ulp above lambda's: the levels below
        # alpha = 1 would have feasible points, the top one none, so the
        # model is rejected as it is built
        lam = FuzzyNumber.trapezoidal(0.1, 0.3, 0.3, 0.6)
        above = np.nextafter(0.3, 1.0)
        with pytest.raises(ValidationError, match="exceeds failure rate cut"):
            demo_params(
                failure_rate=lam,
                standby_failure_rate=FuzzyNumber.trapezoidal(0.1, *[above] * 3),
            )
        # at 0.3 itself the top box keeps the one point lambda = theta
        fp = demo_params(
            failure_rate=lam,
            standby_failure_rate=FuzzyNumber.trapezoidal(0.1, *[0.3] * 3),
        )
        top = bounds.bounds_at_levels(fp, metric, (0.0, 0.5, 1.0))[-1]
        for point in (top.argmin, top.argmax):
            assert (point["lambda"], point["theta"]) == (0.3, 0.3)

    def test_invalid_ladder_fails_at_its_first_level(self):
        # only the alpha = 0 box reaches mu = 0, where availability fails
        fp = demo_params(repair_rate=FuzzyNumber.trapezoidal(0.0, 1.0, 2.0, 3.0))
        with pytest.raises(KernelEvaluationError) as single:
            characteristic_bounds(fp, STEADY_AVAILABILITY, 0.0)
        with pytest.raises(KernelEvaluationError) as ladder:
            bounds.bounds_at_levels(fp, STEADY_AVAILABILITY, ALPHAS_11)
        assert str(ladder.value) == str(single.value)
        assert ladder.value.point == single.value.point
        assert characteristic_bounds(fp, STEADY_AVAILABILITY, 0.1).bounds.lo > 0.0


# R(1) peaks inside the mu cut at every level, at mu ~ 53, where the draws
# of reliability_models rarely put a maximum
INTERIOR_RELIABILITY_MAXIMUM = (
    crisp_params(
        failure_rate=FuzzyNumber.crisp(1.0),
        standby_failure_rate=FuzzyNumber.crisp(0.5),
        repair_rate=FuzzyNumber.trapezoidal(1.0, 10.0, 100.0, 1000.0),
    ),
    reliability_at_time(1.0),
)


# c = 1 with repair up to 1.5e9 times the failure rate, at t = the modal
# MTTF: dR/dmu of the slow mode taken from eigh had the wrong sign at mu
# hi, and the mu certificate halved the cut for tens of thousands of
# calls. The maximum, at lambda lo and mu hi, is from a 150-digit
# mpmath.expm, to 50 digits; the minimum, 2.197e-235675366091, rounds to 0.
FULL_COVERAGE_FAST_REPAIR_BOX = FuzzySystemParams(
    failure_rate=FuzzyNumber.trapezoidal(
        1.252573406797911, 1.252573406797911, 11.419134206249014, 11.419134206249014
    ),
    standby_failure_rate=FuzzyNumber.crisp(0.5557640952454194),
    repair_rate=FuzzyNumber.trapezoidal(
        31351.74772803112, 31351.74772803112, 19282132082.614647, 19282132082.614647
    ),
    reboot_rate=FuzzyNumber.crisp(1.0),
    coverage=1.0,
)
FULL_COVERAGE_FAST_REPAIR_T = 8.752545884375384e16
FULL_COVERAGE_FAST_REPAIR_MAX = 0.99774149810930803339926881369685828063509216563014


class TestReliabilityLadder:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(reliability_models())
    @example(INTERIOR_RELIABILITY_MAXIMUM)
    def test_reliability_ladder_brackets_grid_and_mu_scan(self, model):
        # lambda and theta sit at proven ends; the mu certificate samples,
        # so a scan of mu at those ends checks that it misses no extreme
        fp, metric = model
        for res in bounds.bounds_at_levels(fp, metric, (0.0, 0.5, 1.0)):
            grid = brute_force_bounds(fp, metric, res.alpha, 7)
            tol = 1e-9 * max(abs(grid.bounds.lo), abs(grid.bounds.hi))
            assert res.bounds.lo <= grid.bounds.lo + tol
            assert res.bounds.hi >= grid.bounds.hi - tol
            # one round: zooming in on mu lo = 0 reaches mu << lambda, where
            # the eigenbasis loses relative accuracy
            lowest, highest = pinned_mu_scan(fp, metric, res.box, rounds=1)
            assert lowest >= res.bounds.lo - 1e-12 * abs(res.bounds.lo)
            assert highest <= res.bounds.hi + 1e-12 * abs(res.bounds.hi)

    def test_full_coverage_fast_repair_certificate_closes(self):
        sensitivities = bounds.markov._reliability_sensitivities
        calls = []

        def capped(rows, t):
            calls.append(len(rows))
            assert len(calls) <= 3, "the mu certificate did not close"
            return sensitivities(rows, t)

        metric = reliability_at_time(FULL_COVERAGE_FAST_REPAIR_T)
        with mock.patch.object(bounds.markov, "_reliability_sensitivities", capped):
            res = characteristic_bounds(FULL_COVERAGE_FAST_REPAIR_BOX, metric, 0.0)
        assert res.bounds.lo == 0.0
        assert res.bounds.hi == pytest.approx(
            FULL_COVERAGE_FAST_REPAIR_MAX, rel=1e-14, abs=0.0
        )
        assert res.argmax == {
            "lambda": 1.252573406797911,
            "theta": 0.5557640952454194,
            "mu": 19282132082.614647,
        }
