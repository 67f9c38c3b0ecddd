"""Interval bounds over alpha-cut boxes: NLP pipeline vs grid scans."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fuzzrel import (
    BoundsMethod,
    FuzzyNumber,
    FuzzySystemParams,
    KernelEvaluationError,
    MTBF,
    Metric,
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
                enforce_standby_slower=True,
            )
        # theta cuts below lambda's upper bounds: accepted
        demo_params(enforce_standby_slower=True)

    def test_standby_coupling_checked_between_sample_levels(self):
        # theta's upper end passes lambda's only for alpha in (0, 0.01),
        # peaking at alpha = 0.005: 0.5998 > 0.5995
        with pytest.raises(ValidationError):
            demo_params(
                failure_rate=FuzzyNumber.trapezoidal(0.1, 0.3, 0.5, 0.6),
                standby_failure_rate=FuzzyNumber.from_breakpoints(
                    [(0.1, 0.0), (0.2, 1.0), (0.3, 1.0), (0.5, 0.01),
                     (0.5998, 0.005), (0.6, 0.0)]
                ),
                enforce_standby_slower=True,
            )

    def test_standby_coupling_checked_just_above_a_plateau(self):
        # lambda's cut jumps from 0.6 down to 0.5 just above alpha = 0.4;
        # theta's upper end is 0.51 there and drops below lambda's by 0.5
        lam = FuzzyNumber.from_breakpoints(
            [(0.1, 0.0), (0.2, 1.0), (0.3, 1.0), (0.5, 0.4), (0.6, 0.4), (0.7, 0.0)]
        )
        theta = FuzzyNumber.from_breakpoints(
            [(0.1, 0.0), (0.2, 1.0), (0.3, 1.0), (0.46, 0.5), (0.51, 0.4), (0.58, 0.0)]
        )
        assert theta.alpha_cut(0.41).hi > lam.alpha_cut(0.41).hi
        with pytest.raises(ValidationError):
            demo_params(
                failure_rate=lam, standby_failure_rate=theta, enforce_standby_slower=True
            )
        # the same theta against its own upper ends is accepted
        demo_params(
            failure_rate=theta, standby_failure_rate=theta, enforce_standby_slower=True
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
                enforce_standby_slower=True,
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
        assert res.method is BoundsMethod.CORNER_SCAN
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

    def test_kernel_error_carries_offending_point(self):
        # theta support reaches above lambda's: some box corners invalid
        fp = demo_params(
            standby_failure_rate=FuzzyNumber.trapezoidal(0.5, 0.9, 1.0, 1.2)
        )
        with pytest.raises(KernelEvaluationError) as err:
            characteristic_bounds(fp, MTBF, 0.0)
        assert "theta" in err.value.point

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
            enforce_standby_slower=True,
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


def coupled_params():
    # theta <= lambda cuts every box: at alpha = 0 the MTBF maximum is the
    # polytope vertex lambda = theta = 0.3, not a box corner
    return demo_params(
        failure_rate=FuzzyNumber.trapezoidal(0.1, 0.3, 0.5, 0.6),
        standby_failure_rate=FuzzyNumber.trapezoidal(0.3, 0.35, 0.45, 0.5),
        enforce_standby_slower=True,
    )


def open_lambda_and_mu_on(top_box):
    """_certify with lambda and mu forced open on top_box only."""
    certify = bounds._certify

    def certificate(fp, metric, box, coupled):
        points, values, signs = certify(fp, metric, box, coupled)
        if box == top_box:
            signs.update(dict.fromkeys(("lambda", "mu")))
        return points, values, signs

    return certificate


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
        for res in bounds.bounds_at_levels(demo_params(), metric, ALPHAS_11):
            assert res.open_axes == ()
            assert res.method is BoundsMethod.CORNER_SCAN

    def test_interior_availability_maximum_left_to_search(self):
        # dA/dmu changes sign inside the box: the corners alone give
        # 0.8471728594507, the maximum sits at mu ~ 3.3227
        fp = demo_params(coverage=0.5)
        res = characteristic_bounds(fp, STEADY_AVAILABILITY, 0.0)
        assert res.open_axes == ("mu",)
        assert res.method is BoundsMethod.SUBDIVISION
        assert res.bounds.hi == pytest.approx(0.847221810531241, abs=1e-9)
        assert res.argmax["mu"] == pytest.approx(3.3227, abs=1e-3)

    @pytest.mark.parametrize("alpha", sorted(REFERENCE_AVAILABILITY_BOUNDS))
    def test_reference_availability_bounds_pinned(self, alpha):
        res = characteristic_bounds(demo_params(), STEADY_AVAILABILITY, alpha)
        lo, hi = REFERENCE_AVAILABILITY_BOUNDS[alpha]
        assert res.open_axes == ("mu",)
        assert res.bounds.lo == pytest.approx(lo, rel=1e-12)
        assert res.bounds.hi == pytest.approx(hi, rel=1e-12)

    @pytest.mark.parametrize(
        "metric", [MTBF, STEADY_AVAILABILITY, reliability_at_time(2.0)]
    )
    @pytest.mark.parametrize(
        "fp", [demo_params(), demo_params(coverage=0.5), coupled_params()],
        ids=["reference", "c=0.5", "coupled"],
    )
    def test_two_open_axes_subdivided(self, fp, metric):
        res = characteristic_bounds(fp, metric, 0.0)
        top_box = fp.cuts(0.0, tuple(res.box))
        with mock.patch.object(bounds, "_certify", open_lambda_and_mu_on(top_box)):
            forced = characteristic_bounds(fp, metric, 0.0)
        assert {"lambda", "mu"} <= set(forced.open_axes)
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
            dict(return_value=(np.full(81, np.nan), np.zeros((81, 4)))),
        ],
        ids=["singular", "not-finite"],
    )
    def test_failed_certificate_is_a_solver_error(self, failure):
        # raised by the first certificate, naming its box, before any halving
        broken = mock.Mock(**failure)
        with mock.patch.object(bounds.markov, "_availability_sensitivities", broken):
            with pytest.raises(SolverError, match=r"mu in \[3, 6\]"):
                characteristic_bounds(demo_params(), STEADY_AVAILABILITY, 0.0)
        assert broken.call_count == 1

    def test_one_sensitivity_call_per_level_and_no_values_call(self):
        # the certificate's call supplies the vertex values too
        counted = mock.Mock(wraps=bounds.markov._mttf_sensitivities)
        refuse = mock.Mock(side_effect=AssertionError("values kernel called"))
        with (
            mock.patch.object(bounds.markov, "_mttf_sensitivities", counted),
            mock.patch.object(bounds, "_box_values", refuse),
        ):
            results = bounds.bounds_at_levels(demo_params(), MTBF, ALPHAS_11)
        assert counted.call_count == len(ALPHAS_11)
        for res in results:
            lo, hi = REFERENCE_MTBF_BOUNDS[round(res.alpha, 1)]
            assert res.bounds.lo == pytest.approx(lo, abs=5e-3)
            assert res.bounds.hi == pytest.approx(hi, abs=5e-3)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize(
        "metric", [MTBF, STEADY_AVAILABILITY, reliability_at_time(2.0)]
    )
    def test_box_validated_at_one_corner(self, metric, alpha):
        # availability at alpha = 0 subdivides mu; its halves build none
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
        enforce_standby_slower=coupled,
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
