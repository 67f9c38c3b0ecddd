"""Interval bounds over alpha-cut boxes: NLP pipeline vs grid scans."""

import importlib.util
import os
import subprocess
import sys
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fuzzrel import (
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
    calibrate_coverage,
    characteristic_bounds,
    membership_curve,
    mttf,
    reliability_at,
    reliability_at_time,
    steady_availability,
)
from fuzzrel import bounds
from fuzzrel.fuzzy import NESTING_TOL

from grid_reference import _cut_by_standby, brute_force_bounds
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
        assert _cut_by_standby(res.box)
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

    def test_coverage_copy_shares_the_cut_table(self):
        fp = demo_params()
        table = fp._cut_table
        with mock.patch.object(bounds, "_cut_table", side_effect=AssertionError):
            copy = fp.with_coverage(0.5)
            assert copy._cut_table is table
            cuts = copy.cuts(ALPHAS_11)
        assert copy.coverage == 0.5 and copy == demo_params(coverage=0.5)
        assert np.array_equal(cuts, demo_params(coverage=0.5).cuts(ALPHAS_11))

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
        kernels = {
            "mtbf": mttf,
            "availability": steady_availability,
            "reliability": lambda params: reliability_at(params, 2.0),
        }
        for metric in (MTBF, STEADY_AVAILABILITY, reliability_at_time(2.0)):
            kernel = kernels[metric.kind]
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
            assert kernel(at_min) == pytest.approx(
                res.bounds.lo, abs=1e-10
            )
            assert kernel(at_max) == pytest.approx(
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
        assert res.open_axes == ()
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
        assert err.value.point == {"lambda": 0.8, "theta": 0.1, "mu": 0.0, "beta": 1.5}
        assert str(err.value) == (
            f"steady availability failed at {err.value.point}: availability analysis "
            "requires repair_rate > 0, the chain is not irreducible otherwise"
        )

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
        for alpha, iv in zip(curve.alphas, curve.intervals):
            lo, hi = REFERENCE_MTBF_BOUNDS[round(alpha, 1)]
            assert iv.lo == pytest.approx(lo, abs=5e-3)
            assert iv.hi == pytest.approx(hi, abs=5e-3)

    def test_rows_are_nested(self):
        curve = membership_curve(demo_params(), MTBF, ALPHAS_11)
        intervals = curve.intervals
        for iv0, iv1 in zip(intervals, intervals[1:]):
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


def sequential_nesting(alphas, intervals):
    """enforce_nesting as it clamped one level at a time before it took
    arrays, kept as the reference of the array path."""
    nested = []
    for a, iv in zip(alphas, intervals):
        if not nested:
            nested.append(iv)
            continue
        prev = nested[-1]
        slack = NESTING_TOL * max(abs(iv.lo), abs(iv.hi), abs(prev.lo), abs(prev.hi))
        if iv.lo < prev.lo - slack or iv.hi > prev.hi + slack:
            prev_a = alphas[len(nested) - 1]
            raise NestingError(
                f"bounds at alpha={a:g} escape bounds at alpha={prev_a:g}: "
                f"[{iv.lo}, {iv.hi}] vs [{prev.lo}, {prev.hi}]"
            )
        lo = max(iv.lo, prev.lo)
        hi = min(iv.hi, prev.hi)
        if lo > hi:
            raise NestingError(
                f"bounds at alpha={a:g} collapse below width zero after nesting"
            )
        nested.append(Interval(lo, hi))
    return tuple(nested)


# relative nudges: none, below NESTING_TOL, or beyond it, either way
_NUDGES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([1e-12, -1e-12, 9e-11, -9e-11]),
    st.sampled_from([2e-10, -2e-10, 1e-3, -1e-3]),
)


@st.composite
def noisy_ladders(draw):
    """Interval ladders nested up to nudges, at scales from 1e-9 to 1e9,
    some rows shared, some points."""
    n = draw(st.integers(1, 7))
    scale = draw(st.sampled_from([1e-9, 1.0, 1e9]))
    lows = sorted(draw(st.lists(st.sampled_from([0.0, 2.0, 3.0]), min_size=n, max_size=n)))
    highs = sorted(
        draw(st.lists(st.sampled_from([3.0, 5.0]), min_size=n, max_size=n)), reverse=True
    )
    lows = [scale * x * (1.0 + draw(_NUDGES)) for x in lows]
    highs = [scale * x * (1.0 + draw(_NUDGES)) for x in highs]
    assume(all(lo <= hi for lo, hi in zip(lows, highs)))
    return np.linspace(0.0, 1.0, n), np.array(lows), np.array(highs)


class TestEnforceNesting:
    ALPHAS = np.array([0.0, 0.5, 1.0])

    @settings(max_examples=300, deadline=None)
    @given(noisy_ladders())
    # the top row escapes the clamped middle row, though not the raw one
    @example((ALPHAS, np.array([3.0, 3.0 - 4e-10, 3.0 - 8e-10]), np.full(3, 5.0)))
    def test_equals_the_sequential_clamp(self, ladder):
        alphas, lower, upper = ladder
        rows = [Interval(lo, hi) for lo, hi in zip(lower.tolist(), upper.tolist())]
        try:
            expected = sequential_nesting(alphas.tolist(), rows)
        except NestingError as exc:
            with pytest.raises(NestingError) as err:
                bounds.enforce_nesting(alphas, lower, upper)
            assert str(err.value) == str(exc)
        else:
            nested = bounds.enforce_nesting(alphas, lower, upper)
            ends = np.array([[iv.lo for iv in expected], [iv.hi for iv in expected]])
            assert np.array(nested).tobytes() == ends.tobytes()

    def test_noise_below_tolerance_is_clamped(self):
        # the top row pokes out of the middle one by 1e-12 of its magnitude
        lower, upper = [4.0, 5.0, 5.0 - 5e-12], [9.0, 7.0, 7.0 + 5e-12]
        nested = bounds.enforce_nesting(self.ALPHAS, np.array(lower), np.array(upper))
        assert [x.tolist() for x in nested] == [[4.0, 5.0, 5.0], [9.0, 7.0, 7.0]]

    def test_escape_beyond_tolerance_names_both_levels(self):
        lower, upper = np.array([4.0, 5.0, 5.0]), np.array([9.0, 7.0, 7.0 + 1e-6])
        with pytest.raises(NestingError, match=r"alpha=1 escape bounds at alpha=0\.5"):
            bounds.enforce_nesting(self.ALPHAS, lower, upper)

    def test_collapse_below_zero_width_is_rejected(self):
        # within tolerance, but wholly above a point row
        lower, upper = np.array([4.0, 5.0, 5.0 + 1e-12]), np.array([9.0, 5.0, 5.0 + 1e-12])
        with pytest.raises(NestingError, match=r"alpha=1 collapse below width zero"):
            bounds.enforce_nesting(self.ALPHAS, lower, upper)


def coupled_params():
    # theta <= lambda cuts every box: at alpha = 0 the MTBF maximum is the
    # polytope vertex lambda = theta = 0.3, not a box corner
    return demo_params(
        failure_rate=FuzzyNumber.trapezoidal(0.1, 0.3, 0.5, 0.6),
        standby_failure_rate=FuzzyNumber.trapezoidal(0.3, 0.35, 0.45, 0.5),
    )


def tool(name):
    """The module tools/<name>.py: ladder_probe's draw_ladder draws seeded
    R(t) models, calibrate_probe's draw_model calibration fuzz models."""
    path = Path(__file__).parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


class TestLadderOrder:
    @pytest.mark.parametrize(
        "metric", [MTBF, STEADY_AVAILABILITY, reliability_at_time(2.0)]
    )
    @pytest.mark.parametrize(
        "fp", [demo_params(), demo_params(coverage=0.5), coupled_params()],
        ids=["reference", "c=0.5", "coupled"],
    )
    def test_shuffled_levels_keep_their_bounds(self, fp, metric):
        alphas = np.linspace(0.0, 1.0, 21)
        order = np.random.default_rng(16).permutation(len(alphas))
        ladder = bounds._ladder_bounds(fp, metric, alphas)
        shuffled = bounds._ladder_bounds(fp, metric, alphas[order])
        assert np.array_equal(shuffled.cuts, ladder.cuts[:, order])
        assert np.array_equal(shuffled.bounds, ladder.bounds[:, order])
        assert np.array_equal(shuffled.points, ladder.points[:, order])
        assert np.array_equal(shuffled.searched, ladder.searched[order])

    def test_corner_of_the_lowest_level_is_checked(self):
        # only the alpha = 0 box reaches mu = 0, where availability fails
        fp = demo_params(repair_rate=FuzzyNumber.trapezoidal(0.0, 1.0, 2.0, 3.0))
        with pytest.raises(KernelEvaluationError, match="repair_rate > 0") as err:
            bounds._ladder_bounds(fp, STEADY_AVAILABILITY, np.array([0.5, 0.0, 1.0]))
        assert err.value.point["mu"] == 0.0


class TestCertificate:
    @pytest.mark.parametrize("metric", [MTBF, reliability_at_time(10.0)])
    def test_reference_levels_certified(self, metric):
        for res in bounds.bounds_at_levels(demo_params(), metric, ALPHAS_11):
            assert res.open_axes == ()

    def test_interior_availability_maximum_left_to_search(self):
        # dA/dmu changes sign inside the box: the corners alone give
        # 0.8471728594507, the maximum sits at mu ~ 3.3227
        fp = demo_params(coverage=0.5)
        res = characteristic_bounds(fp, STEADY_AVAILABILITY, 0.0)
        assert res.open_axes == ("mu",)
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

    # R(t) at three mission times, whose bisection steps on dR/dmu
    @pytest.mark.parametrize(
        "metric", [reliability_at_time(t) for t in (0.5, 2.0, 10.0)]
    )
    @pytest.mark.parametrize(
        "fp", [demo_params(), demo_params(coverage=0.5), coupled_params()],
        ids=["reference", "c=0.5", "coupled"],
    )
    def test_two_open_axes_subdivided(self, fp, metric):
        # lambda and theta are pinned by proof, so only mu is searched. The
        # shared turn bisection on R's sign, forced over the maximum's whole
        # mu cut whatever the signs at its ends, finds no higher R than the
        # ladder's maximum, and comes within 1e-12 of it
        ladder = bounds._ladder_bounds(fp, metric, np.zeros(1))
        top = bounds._rate_vectors(fp, ladder.points[1])
        lo, hi = ladder.cuts[2, :, 0], ladder.cuts[2, :, 1]
        top[:, 2] = hi
        r_hi = bounds.markov._reliability_values(top, metric.t)
        moves = partial(bounds._reliability_moves, metric, top, r_hi)
        top[:, 2] = mu = bounds._bisect(moves, lo, hi)
        value = bounds.markov._reliability_values(top, metric.t)
        assert lo[0] <= mu[0] <= hi[0]
        assert value[0] <= ladder.bounds[1, 0]
        assert value[0] == pytest.approx(ladder.bounds[1, 0], rel=1e-12, abs=0.0)

    def test_one_sensitivity_call_per_level_and_no_values_call(self):
        # one call gives R and dR/dmu at both ends of every level's mu cut,
        # where every bound lies; one corner check validates the ladder
        metric = reliability_at_time(10.0)
        counted = mock.Mock(wraps=bounds.markov._reliability_sensitivities)
        refuse = mock.Mock(side_effect=AssertionError("values kernel called"))
        built = mock.Mock(wraps=SystemParams)
        with (
            mock.patch.object(bounds.markov, "_reliability_sensitivities", counted),
            mock.patch.object(bounds.markov, "_reliability_values", refuse),
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
        # the bisection for R(t)'s turn builds none for its midpoints
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
        # nor do the bounds search and calibration, for any metric
        calibrations = OPEN_AVAILABILITY_BOX + """
for metric in (fuzzrel.MTBF, fuzzrel.STEADY_AVAILABILITY, fuzzrel.reliability_at_time(10.0)):
    anchor = fuzzrel.characteristic_bounds(fp.with_coverage(0.9), metric, 1.0).bounds
    fuzzrel.calibrate_coverage(fp, metric, 1.0, anchor)
"""
        assert not loaded_after("scipy.optimize", calibrations)

    def test_import_leaves_linalg_unloaded(self):
        assert not loaded_after("scipy.linalg", package="fuzzrel.cli")
        assert not loaded_after("scipy.linalg", OPEN_AVAILABILITY_BOX)
        # R(t) values, sensitivities and a curve run on eigh alone; only
        # rows without repair use expm
        params = "fuzzrel.SystemParams(0.6, 0.2, 4.0, 0.9, 2.0)"
        reliability = f"""
from fuzzrel import markov
fuzzrel.reliability_at({params}, 1.0)
markov._reliability_sensitivities(markov._rates({params})[None], 1.0)
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
        no_repair = "fuzzrel.SystemParams(0.6, 0.2, 0.0, 0.9, 2.0)"
        without_repair = f"fuzzrel.reliability_at({no_repair}, 1.0)"
        assert loaded_after("scipy.linalg", without_repair)


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
    values kernels and the generator themselves, run on arrays of symbols."""

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
        sp, symbols, c, rates, _ = symbolic
        lam, theta, mu, _ = symbols
        markov = bounds.markov
        n_up = len(markov.UP_STATES)
        q = markov._generators(rates, markov.ChainMode.RELIABILITY)[0, :n_up, :n_up]
        b = sp.Matrix(q).applyfunc(lambda rate: sp.nsimplify(rate, rational=True))
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

    @pytest.mark.parametrize(
        "kind, form",
        [("mtbf", "_mttf_c_form"), ("availability", "_availability_c_form")],
    )
    def test_coverage_forms_are_the_kernels(self, symbolic, kind, form):
        # calibration solves these quadratics in c; every coefficient is a
        # sum of nonnegative terms, and their ratio is the kernel's value
        sp, symbols, c, rates, forms = symbolic
        coefficients = getattr(bounds.markov, form)(rates)
        for k in coefficients.flat:
            assert bernstein_sign(sp, k, symbols, c) == 1
        num, den = (
            sum(
                sp.nsimplify(sp.expand(k[0]), rational=True) * basis
                for k, basis in zip(quadratic, ((1 - c) ** 2, c * (1 - c), c**2))
            )
            for quadratic in coefficients
        )
        kernel_num, kernel_den = forms[kind]
        assert sp.cancel(num / den - kernel_num / kernel_den) == 0

    def test_mttf_rises_strictly_in_coverage(self, symbolic):
        # MTTF = num / den with num, den > 0, num' > 0 and den' <= 0 in c,
        # so MTTF rises in c: calibration's MTBF roots need no evidence
        sp, symbols, c, _, forms = symbolic
        lam = symbols[0]
        num, den = forms["mtbf"]
        assert bernstein_sign(sp, num, symbols, c) == 1
        assert bernstein_sign(sp, den, symbols, c) == 1
        assert bernstein_sign(sp, sp.diff(den, c), symbols, c) == -1
        # strictly: num' >= 2 lambda^2 > 0
        assert bernstein_sign(sp, sp.diff(num, c) - 2 * lam**2, symbols, c) == 1

    def test_availability_turns_at_most_once_in_coverage(self, symbolic):
        # The numerator g of dA/dc is a quadratic in c with g(0) >= 0. Where
        # beta <= 2 mu every coefficient is >= 0, so A rises on [0, 1];
        # where beta >= 2 mu the leading one is <= 0, so g is concave and
        # changes sign at most once, from + to -. Either way A turns at
        # most once in c, from rising to falling.
        sp, symbols, c, _, forms = symbolic
        lam, theta, mu, beta = symbols
        g = sp.Poly(sp.expand(self.numerator(sp, forms["availability"], c)), c)
        assert g.degree() == 2
        g2, _, g0 = g.all_coeffs()
        assert bernstein_sign(sp, g0, symbols, c) == 1
        w = sp.Symbol("w", nonnegative=True)
        assert bernstein_sign(
            sp, g.as_expr().subs(mu, (beta + w) / 2), (lam, theta, w, beta), c
        ) == 1
        assert bernstein_sign(sp, g2.subs(beta, 2 * mu + w), (lam, theta, mu, w), c) == -1


@st.composite
def turn_models(draw):
    """Rates and a mission time for R(t)'s shape in mu: lambda log-uniform
    on 1e-3..1e3, theta = u lambda or u^4 lambda, coverage anywhere in
    [0, 1] or close to 0 or 1, and t = 10^U(-3, 2.5) / lambda."""
    unit = st.floats(0.0, 1.0)
    lam = 10 ** draw(st.floats(-3.0, 3.0))
    theta = draw(unit) ** draw(st.sampled_from([1, 4])) * lam
    coverage = draw(
        unit
        | st.floats(0.9, 1.0)
        | st.just(1.0)
        | st.floats(-8.0, -2.0).map(lambda e: 1.0 - 10**e)
        | st.floats(-6.0, 0.0).map(lambda e: 10**e)
    )
    return lam, theta, coverage, 10 ** draw(st.floats(-3.0, 2.5)) / lam


class TestReliabilityTurn:
    """R(t) turns at most once in mu, from rising to falling, which the mu
    search (bounds._mu_search) trusts. No proof is known; until one lands,
    this property carries the claim. Two routes to a proof are open: the
    derivative in mu of the cooperative system for f and g that
    TestProofs.test_reliability_falls_in_lambda_and_theta checks, and sign
    regularity (Karlin, Total Positivity, 1968)."""

    MU_GRID = np.logspace(-8.0, 8.0, 2001)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(turn_models())
    def test_dR_dmu_changes_sign_at_most_once_from_rising_to_falling(self, model):
        # a sign counts where the slope moves R by more than 1e-9 of its
        # largest value across the grid step ahead
        lam, theta, coverage, t = model
        rows = np.tile([lam, theta, 0.0, coverage, 1.0], (len(self.MU_GRID), 1))
        rows[:, 2] = self.MU_GRID
        values, partials = bounds.markov._reliability_sensitivities(rows, t)
        steps = np.diff(self.MU_GRID, append=2 * self.MU_GRID[-1] - self.MU_GRID[-2])
        signs = np.sign(partials[np.abs(partials) * steps > 1e-9 * values.max()])
        assert not ((signs[:-1] < 0.0) & (signs[1:] > 0.0)).any()


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


def trapezoid_nodes(lo, hi, u, v):
    """Trapezoid nodes on [lo, hi], the plateau starting a fraction u of
    the way up and ending a fraction v of the rest; the interior nodes are
    held at hi, where b + v * (hi - b) can round above it."""
    b = min(lo + u * (hi - lo), hi)
    return lo, b, min(b + v * (hi - b), hi), hi


@st.composite
def wide_params(draw, decades=(-6.0, 9.0), repair_from_zero=False):
    """Log-uniform rates over the decades, coverage 0, 1 or between, theta
    zero in some, coupled or not. The repair rate is drawn over the whole
    range, or within a decade or two of lambda, where turns in mu lie;
    with repair_from_zero its cut starts at 0 in some."""
    low, high = decades

    def nodes(exponent=st.floats(low, high)):
        lo, hi = sorted(10 ** draw(exponent) for _ in range(2))
        return trapezoid_nodes(lo, hi, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))

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


class TestStrategies:
    def test_interior_nodes_never_pass_the_top(self):
        # b + (hi - b) rounds one ulp above hi here
        lo, b, hi = 0.9999998627552429, 1.1871852351884669, 5.48737771615088
        assert b + (hi - b) > hi
        assert trapezoid_nodes(lo, hi, (b - lo) / (hi - lo), 1.0) == (lo, b, hi, hi)

    # random seeds, unlike the derandomized property tests that draw them
    @settings(max_examples=200, deadline=None)
    @given(wide_models(), reliability_models())
    def test_models_draw_with_any_seed(self, wide, reliability):
        for fp, _ in (wide, reliability):
            assert fp.failure_rate.values[0] > 0.0


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

    def test_turned_ladder_adds_one_values_call_at_the_turns(self):
        # at c = 0.5 availability's maximum turns inside the mu cut at the
        # lowest levels: one call for the ends of every level, one for the
        # turns
        counted = mock.Mock(wraps=bounds.markov._availability_values)
        with mock.patch.object(bounds.markov, "_availability_values", counted):
            ladder = bounds._ladder_bounds(
                demo_params(coverage=0.5), STEADY_AVAILABILITY, np.array(ALPHAS_11)
            )
        rows = [len(call.args[0]) for call in counted.call_args_list]
        assert rows == [4 * len(ALPHAS_11), ladder.searched.sum()]
        assert ladder.searched.any()

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
# hi, and a search that halved the cut ran for tens of thousands of
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
        # lambda and theta sit at proven ends; the mu search trusts that R
        # turns at most once in mu, so a scan of mu at those ends checks
        # that it misses no extreme
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

    def test_full_coverage_fast_repair_takes_the_ends_in_one_call(self):
        counted = mock.Mock(wraps=bounds.markov._reliability_sensitivities)
        metric = reliability_at_time(FULL_COVERAGE_FAST_REPAIR_T)
        with mock.patch.object(bounds.markov, "_reliability_sensitivities", counted):
            res = characteristic_bounds(FULL_COVERAGE_FAST_REPAIR_BOX, metric, 0.0)
        # R rises at mu hi, so the maximum takes it and nothing is bisected
        assert counted.call_count == 1
        assert res.open_axes == ()
        assert res.bounds.lo == 0.0
        assert res.bounds.hi == pytest.approx(
            FULL_COVERAGE_FAST_REPAIR_MAX, rel=1e-14, abs=0.0
        )
        assert res.argmax == {
            "lambda": 1.252573406797911,
            "theta": 0.5557640952454194,
            "mu": 19282132082.614647,
        }


class TestMuRounds:
    """R(t)'s mu search: one sensitivity call for both ends of every mu cut,
    then one per round of the turn bisection, over only the levels whose
    maximum's point turns inside its cut."""

    @pytest.mark.parametrize(
        "alphas, turns", [(ALPHAS_11, 7), ((0.0,), 1)], ids=["11-levels", "alpha=0"]
    )
    def test_one_sensitivity_call_per_round(self, alphas, turns):
        # the wide model's R(10): 1 call for the ends and 17 bisection
        # rounds, whose rows are the levels with a turn and shrink as their
        # brackets close
        alphas = np.array(alphas)
        counted = mock.Mock(wraps=bounds.markov._reliability_sensitivities)
        with mock.patch.object(bounds.markov, "_reliability_sensitivities", counted):
            ladder = bounds._ladder_bounds(
                tool("ladder_probe").WIDE, reliability_at_time(10.0), alphas
            )
        rows = [len(call.args[0]) for call in counted.call_args_list]
        assert len(rows) == 1 + 17
        assert rows[0] == 4 * len(alphas)
        assert rows[1] == turns == ladder.searched.sum()
        assert rows[1:] == sorted(rows[1:], reverse=True)

    @pytest.mark.parametrize(
        "fp", [demo_params(), demo_params(coverage=0.5)], ids=["rising", "falling"]
    )
    def test_monotone_maximum_is_not_bisected(self, fp):
        # R(10)'s maximum rises across every mu cut at c = 0.9 and falls at
        # c = 0.5: it takes an end, and the one call for the ends is all
        counted = mock.Mock(wraps=bounds.markov._reliability_sensitivities)
        with mock.patch.object(bounds.markov, "_reliability_sensitivities", counted):
            ladder = bounds.bounds_at_levels(fp, reliability_at_time(10.0), ALPHAS_11)
        assert counted.call_count == 1
        assert all(res.open_axes == () for res in ladder)

    def test_flat_midpoint_below_mu_hi_steps_up(self):
        # R is 0 and flat up to mu ~ 4.9, as where it underflows, then
        # peaks at 0.5 at mu = 5.6 and falls to 0.34 at mu hi = 6. The
        # first midpoint, 4.5, is flat but below R at mu hi, so the
        # bisection steps up to the peak instead of closing there
        mus = []

        def underflowed(rows, t):
            mu = rows[:, 2]
            mus.append(mu.copy())
            values = np.maximum(0.5 - (mu - 5.6) ** 2, 0.0)
            return values, np.where(values > 0.0, -2.0 * (mu - 5.6), 0.0)

        metric = reliability_at_time(1.0)
        with (
            mock.patch.object(bounds.markov, "_reliability_sensitivities", underflowed),
            mock.patch.object(
                bounds.markov, "_reliability_values", lambda rows, t: underflowed(rows, t)[0]
            ),
        ):
            res = characteristic_bounds(demo_params(), metric, 0.0)
        assert mus[1].tolist() == [4.5]
        assert res.open_axes == ("mu",)
        assert res.bounds.hi == pytest.approx(0.5, rel=1e-12)
        assert res.argmax["mu"] == pytest.approx(5.6, rel=1e-6)
        assert (res.bounds.lo, res.argmin["mu"]) == (0.0, 3.0)

    def test_underflow_at_mu_lo_keeps_the_maximum_at_mu_hi(self):
        # ladder 176 of tools/ladder_probe.py at alpha = 0: lambda lo 14.104,
        # c = 1, t = 971.38 and mu in [47.49, 40218.6]. At mu lo R underflows
        # to exactly 0 and so does dR/dmu, though R rises to 0.99217 at mu hi
        rng = np.random.default_rng(7)
        draw_ladder = tool("ladder_probe").draw_ladder
        for _ in range(177):
            fp, t = draw_ladder(rng)
        res = characteristic_bounds(fp, reliability_at_time(t), 0.0)
        mu = res.box["mu"]
        assert (mu.lo, mu.hi) == pytest.approx((47.49, 40218.6), rel=1e-4)
        top = bounds._rate_vectors(fp, np.array([list(res.argmax.values())] * 2))
        top[:, 2] = mu.lo, mu.hi
        values, partials = bounds.markov._reliability_sensitivities(top, t)
        assert (values[0], partials[0]) == (0.0, 0.0)
        assert res.argmax["mu"] == mu.hi
        assert res.bounds.hi == values[1] == pytest.approx(0.99217, abs=1e-5)
        assert res.bounds.lo == 0.0


class TestBisect:
    """bounds._bisect, the one turn bisection of every metric's mu search:
    it moves each bracket up or down by the slope at its midpoint, closes
    a bracket at its midpoint where it moves both ways, and stops when no
    midpoint splits its bracket."""

    # wide, unit, tiny-to-huge, already adjacent, and negative brackets
    LO = np.array([0.0, 1.0, 1e-300, 3.0, -2.0])
    HI = np.array([1.0, 2.0, 1e300, 3.0 + 2.0**-51, 5.0])

    def test_one_way_moves_close_brackets_to_adjacent_floats(self):
        roots = np.array([0.3, 1.75, 1e-5, 3.0 + 2.0**-51, -1.0 / 3.0])
        splits = []

        def moves(mid, split, lo, hi):
            splits.append(split.copy())
            up = mid < roots
            return up, ~up

        lo = bounds._bisect(moves, self.LO, self.HI)
        # each root stays above lo and at most hi, so the bracket it ends
        # in is lo and the float after it
        assert (lo < roots).all()
        assert (np.nextafter(lo, np.inf) >= roots).all()
        # the adjacent bracket never splits
        assert not any(split[3] for split in splits)

    def test_both_way_move_closes_a_bracket_at_its_midpoint(self):
        splits = []

        def moves(mid, split, lo, hi):
            splits.append(split.copy())
            up = mid < 0.3
            return up | [True, False], ~up | [True, False]

        lo = bounds._bisect(moves, np.array([1.0, 0.0]), np.array([2.0, 1.0]))
        assert lo[0] == 1.5
        assert 0.0 < 0.3 - lo[1] <= np.spacing(lo[1])
        assert splits[0].all()
        assert len(splits) > 2 and not any(split[0] for split in splits[1:])

    @pytest.mark.parametrize("seed", range(5))
    def test_returned_points_lie_in_their_starting_brackets(self, seed):
        rng = np.random.default_rng(seed)
        lo, hi = np.sort(10.0 ** rng.uniform(-300, 300, (2, 64)), axis=0)
        lo[:8], hi[:8] = -hi[:8], -lo[:8]

        def moves(mid, split, lo, hi):
            # up, down or both, at random
            way = rng.choice(3, len(mid), p=[0.45, 0.45, 0.1])
            return way != 1, way != 0

        mu = bounds._bisect(moves, lo, hi)
        assert ((lo <= mu) & (mu <= hi)).all()


def _nan_value(found):
    (found[0] if isinstance(found, tuple) else found)[-1] = np.nan


def _nan_partial(found):
    found[1][-1] = np.nan


def _nan_numerator(form):
    form[0, 0] = np.nan


def _zero_denominator(form):
    form[1, 2] = 0.0


def _ladder(fp, alphas):
    return lambda metric: lambda: bounds._ladder_bounds(fp, metric, np.array(alphas))


def _calibration(metric):
    anchor = characteristic_bounds(demo_params(), metric, 1.0).bounds
    return lambda: calibrate_coverage(demo_params(coverage=0.5), metric, 1.0, anchor)


# every place a kernel value enters the search or calibration: (metric,
# kernel, the call that fails, how it fails at its last row, and the
# work, made before the kernel is patched)
KERNEL_FAILURES = {
    "ends": (MTBF, "_mttf_values", 1, _nan_value, _ladder(demo_params(), ALPHAS_11)),
    "R(t) ends": (
        reliability_at_time(2.0), "_reliability_sensitivities", 1, _nan_value,
        _ladder(demo_params(), [0.0]),
    ),
    # R(1) turns inside every level's mu cut, so the first bisection
    # round holds one row per level
    "later round": (
        INTERIOR_RELIABILITY_MAXIMUM[1], "_reliability_sensitivities", 2, _nan_partial,
        _ladder(INTERIOR_RELIABILITY_MAXIMUM[0], [0.0, 0.2, 0.5, 1.0]),
    ),
    # at c = 0.5 availability's maximum turns inside the mu cut
    "turns": (
        STEADY_AVAILABILITY, "_availability_values", 2, _nan_value,
        _ladder(demo_params(coverage=0.5), ALPHAS_11),
    ),
    "calibration ends": (
        reliability_at_time(10.0), "_reliability_values", 1, _nan_value, _calibration
    ),
    "calibration step": (
        reliability_at_time(10.0), "_reliability_values", 3, _nan_value, _calibration
    ),
    "MTBF form": (MTBF, "_mttf_c_form", 2, _nan_numerator, _calibration),
    "availability form": (
        STEADY_AVAILABILITY, "_availability_c_form", 1, _zero_denominator, _calibration
    ),
}


class TestKernelFailures:
    """A kernel value that is not finite, anywhere in the search or in
    calibration, raises KernelEvaluationError naming the rate point of
    the row that gave it; a kernel that raises LinAlgError names no row,
    and raises SolverError."""

    @pytest.mark.parametrize("case", KERNEL_FAILURES.values(), ids=KERNEL_FAILURES)
    def test_non_finite_value_names_its_point(self, case):
        metric, name, failing, fail, work = case
        run = work(metric)
        kernel = getattr(bounds.markov, name)
        calls = []

        def broken(rows, *args):
            calls.append(rows)
            found = kernel(rows, *args)
            if len(calls) == failing:
                fail(found)
            return found

        with mock.patch.object(bounds.markov, name, broken):
            with pytest.raises(KernelEvaluationError) as err:
                run()
        assert len(calls) == failing
        row = np.atleast_2d(calls[-1])[-1]
        axes = ("lambda", "theta", "mu", "beta")[: 4 if metric.uses_reboot_rate else 3]
        point = dict(zip(axes, row[[0, 1, 2, 4]].tolist()))
        assert err.value.point == point
        assert str(err.value).startswith(f"{metric.describe()} failed at {point}: ")

    @pytest.mark.parametrize(
        "metric, name",
        [(MTBF, "_mttf_values"), (reliability_at_time(2.0), "_reliability_sensitivities")],
        ids=["values", "sensitivities"],
    )
    def test_linear_algebra_failure_is_a_solver_error(self, metric, name):
        broken = mock.Mock(side_effect=np.linalg.LinAlgError("singular matrix"))
        with mock.patch.object(bounds.markov, name, broken):
            with pytest.raises(SolverError) as err:
                characteristic_bounds(demo_params(), metric, 0.0)
        assert not isinstance(err.value, KernelEvaluationError)
        assert str(err.value) == f"{metric.describe()} failed: singular matrix"
        assert broken.call_count == 1
