"""Fuzzy numbers: constructors, alpha-cuts, membership curves."""

import bisect

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fuzzrel import (
    FuzzyNumber,
    Interval,
    MembershipCurve,
    ValidationError,
)
from fuzzrel.fuzzy import _cut, _cut_table


class TestInterval:
    def test_orders_endpoints(self):
        with pytest.raises(ValidationError):
            Interval(2.0, 1.0)

    def test_width_midpoint_contains(self):
        iv = Interval(1.0, 3.0)
        assert iv.width == 2.0
        assert iv.midpoint == 2.0
        assert iv.contains(1.0) and iv.contains(3.0)
        assert not iv.contains(3.0001)

    def test_midpoint_cannot_overflow(self):
        assert Interval(1e308, 1.7e308).midpoint == pytest.approx(1.35e308, rel=1e-15)
        # halving each end is exact, so wherever the sum does not overflow
        # the midpoint is its half bit for bit
        rng = np.random.default_rng(5)
        ends = rng.choice([-1.0, 1.0], (2, 2000)) * 10.0 ** rng.uniform(-300, 300, (2, 2000))
        for lo, hi in np.sort(ends, axis=0).T.tolist():
            assert Interval(lo, hi).midpoint == 0.5 * (lo + hi)

    def test_encloses(self):
        assert Interval(0.0, 4.0).encloses(Interval(1.0, 3.0))
        assert not Interval(1.0, 3.0).encloses(Interval(0.0, 4.0))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            Interval(0.0, float("inf"))

    @pytest.mark.parametrize(
        "value, shown",
        [
            (float("nan"), "nan"),
            (float("inf"), "inf"),
            (float("-inf"), "-inf"),
            (np.float64("nan"), "nan"),
            (np.float32("-inf"), "-inf"),
        ],
    )
    def test_nonfinite_message_names_the_value(self, value, shown):
        curve = MembershipCurve((0.0,), (0.0,), (1.0,))
        endpoint = rf"^interval endpoint must be finite, got {shown}$"
        query = rf"^query point must be finite, got {shown}$"
        with pytest.raises(ValidationError, match=endpoint):
            Interval(value, 1.0)
        with pytest.raises(ValidationError, match=query):
            curve.membership_at(value)
        with pytest.raises(ValidationError, match=query):
            curve.membership_at(np.array([0.5, value]))
        for fz in (FuzzyNumber.trapezoidal(1.0, 2.0, 3.0, 4.0), FuzzyNumber.crisp(2.0)):
            with pytest.raises(ValidationError, match=query):
                fz.membership(value)


class TestConstructors:
    def test_trapezoid_cuts(self):
        fz = FuzzyNumber.trapezoidal(3.0, 4.0, 5.0, 6.0)
        assert fz.alpha_cut(0.0) == Interval(3.0, 6.0)
        assert fz.alpha_cut(0.5) == Interval(3.5, 5.5)
        assert fz.alpha_cut(1.0) == Interval(4.0, 5.0)

    def test_triangular_cuts(self):
        fz = FuzzyNumber.triangular(1.0, 2.0, 4.0)
        assert fz.alpha_cut(1.0) == Interval(2.0, 2.0)
        assert fz.alpha_cut(0.5) == Interval(1.5, 3.0)

    def test_crisp_cuts_are_the_point(self):
        fz = FuzzyNumber.crisp(2.5)
        assert fz.is_crisp
        for a in (0.0, 0.3, 1.0):
            assert fz.alpha_cut(a) == Interval(2.5, 2.5)

    def test_trapezoid_with_collapsed_edges(self):
        left = FuzzyNumber.trapezoidal(1.0, 1.0, 2.0, 3.0)
        assert left.alpha_cut(0.0) == Interval(1.0, 3.0)
        assert left.alpha_cut(1.0) == Interval(1.0, 2.0)
        right = FuzzyNumber.trapezoidal(1.0, 2.0, 3.0, 3.0)
        assert right.alpha_cut(1.0) == Interval(2.0, 3.0)

    def test_trapezoid_rejects_disorder(self):
        with pytest.raises(ValidationError, match=r"ordered a <= b <= c <= d, got \(3.0, 2.0"):
            FuzzyNumber.trapezoidal(3.0, 2.0, 4.0, 5.0)

    def test_breakpoints_with_vertical_edge(self):
        # support starts with membership already at 0.5
        fz = FuzzyNumber.from_breakpoints([(1.0, 0.5), (2.0, 1.0), (3.0, 0.0)])
        low_cut = fz.alpha_cut(0.3)
        assert low_cut.lo == 1.0
        assert low_cut.hi == pytest.approx(2.7)
        mid_cut = fz.alpha_cut(0.75)
        assert mid_cut.lo == pytest.approx(1.5)
        assert mid_cut.hi == pytest.approx(2.25)
        assert fz.membership(0.999) == 0.0

    def test_validation_rules(self):
        with pytest.raises(ValidationError, match="strictly increase, got 1.0 then 1.0"):
            FuzzyNumber((1.0, 1.0), (0.0, 1.0))  # duplicate values
        with pytest.raises(ValidationError, match="must reach 1 somewhere"):
            FuzzyNumber((1.0, 2.0), (0.0, 0.5))  # never reaches 1
        with pytest.raises(ValidationError, match=r"membership 1.5 outside \[0, 1\]"):
            FuzzyNumber((1.0, 2.0, 3.0), (0.0, 1.0, 1.5))  # membership > 1
        with pytest.raises(ValidationError, match="peak breakpoints must be contiguous"):
            # dips between two peaks: peak run not contiguous
            FuzzyNumber((0.0, 1.0, 2.0), (1.0, 0.5, 1.0))
        with pytest.raises(ValidationError, match="nonincreasing after the peak"):
            # rises again on the falling edge
            FuzzyNumber((0.0, 1.0, 2.0, 3.0), (1.0, 0.2, 0.4, 0.0))

    @pytest.mark.parametrize(
        "values, memberships, message",
        [
            ((), (), "needs at least one breakpoint"),
            ((1.0, 2.0), (1.0,), "2 values but 1 memberships"),
            ((1.0, float("inf")), (1.0, 0.0), "breakpoint value must be finite, got inf"),
            ((1.0, 2.0), (1.0, float("nan")), "membership must be finite, got nan"),
            ((1.0, 3.0, 2.0, 2.5), (0.0, 1.0, 0.5, 0.0), "got 3.0 then 2.0"),
            ((0.0, 1.0), (-0.5, 1.0), r"membership -0.5 outside \[0, 1\]"),
            ((0.0, 1.0, 2.0, 3.0), (0.4, 0.2, 1.0, 0.0), "nondecreasing before the peak"),
        ],
        ids=["empty", "lengths", "value", "membership", "order", "range", "rising"],
    )
    def test_rejections_name_their_cause(self, values, memberships, message):
        with pytest.raises(ValidationError, match=message):
            FuzzyNumber(values, memberships)

    def test_alpha_domain_checked(self):
        fz = FuzzyNumber.triangular(0.0, 1.0, 2.0)
        with pytest.raises(ValidationError, match=r"alpha must lie in \[0, 1\], got -0.1"):
            fz.alpha_cut(-0.1)
        with pytest.raises(ValidationError, match=r"alpha must lie in \[0, 1\], got 1.1"):
            fz.alpha_cut(1.1)


class TestMembership:
    def test_linear_interpolation(self):
        fz = FuzzyNumber.trapezoidal(0.0, 1.0, 2.0, 4.0)
        assert fz.membership(0.5) == pytest.approx(0.5)
        assert fz.membership(1.5) == 1.0
        assert fz.membership(3.0) == pytest.approx(0.5)
        assert fz.membership(-0.1) == 0.0
        assert fz.membership(4.1) == 0.0

    def test_crisp_membership(self):
        fz = FuzzyNumber.crisp(2.0)
        assert fz.membership(2.0) == 1.0
        assert fz.membership(2.0000001) == 0.0

    def test_cut_membership_round_trip(self):
        fz = FuzzyNumber.trapezoidal(1.0, 2.0, 3.0, 5.0)
        for a in (0.2, 0.5, 0.9):
            cut = fz.alpha_cut(a)
            assert fz.membership(cut.lo) == pytest.approx(a, abs=1e-12)
            assert fz.membership(cut.hi) == pytest.approx(a, abs=1e-12)


@st.composite
def trapezoids(draw):
    nodes = sorted(
        draw(
            st.lists(
                st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
                min_size=4,
                max_size=4,
            )
        )
    )
    return FuzzyNumber.trapezoidal(*nodes)


class TestNestingProperty:
    @settings(max_examples=100, deadline=None)
    @given(
        fz=trapezoids(),
        a1=st.floats(0.0, 1.0),
        a2=st.floats(0.0, 1.0),
    )
    def test_cuts_shrink_as_alpha_grows(self, fz, a1, a2):
        lo, hi = sorted((a1, a2))
        assert fz.alpha_cut(lo).encloses(fz.alpha_cut(hi), tol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(fz=trapezoids(), z=st.floats(-60.0, 60.0))
    def test_membership_consistent_with_cuts(self, fz, z):
        grade = fz.membership(z)
        if grade > 1e-9:
            assert fz.alpha_cut(grade).contains(z, tol=1e-9)


def scalar_alpha_cut(fz, alpha):
    """The cut alpha_cut made one level at a time, by bisection on the
    breakpoints, before alpha_cuts took arrays: the reference of its array
    path, as a (lo, hi) pair of floats."""
    vs, ms = fz.values, fz.memberships
    if alpha == 0.0 or len(vs) == 1:
        return vs[0], vs[-1]
    first = ms.index(1.0)
    last = len(ms) - 1 - ms[::-1].index(1.0)
    if alpha == 1.0:
        return vs[first], vs[last]

    def interp(x0, m0, x1, m1):
        return x0 + (alpha - m0) * (x1 - x0) / (m1 - m0)

    if ms[0] >= alpha:
        lo = vs[0]
    else:
        i = bisect.bisect_left(ms, alpha, 0, first + 1)
        lo = interp(vs[i - 1], ms[i - 1], vs[i], ms[i])
    if ms[-1] >= alpha:
        hi = vs[-1]
    else:
        i = len(ms) - 1 - bisect.bisect_left(ms[last:][::-1], alpha)
        hi = interp(vs[i], ms[i], vs[i + 1], ms[i + 1])
    return min(lo, vs[first]), max(hi, vs[last])


# memberships below the peak: plateaus, the ulp below 1, anything else
_BELOW_PEAK = st.sampled_from([0.0, 0.25, 0.5, float(np.nextafter(1.0, 0.0))]) | st.floats(
    0.0, 1.0, exclude_max=True
)


@st.composite
def polylines(draw):
    """Breakpoint fuzzy numbers: a rising branch whose memberships may
    repeat (flat segments), a plateau of one or more peaks, a falling
    branch, or a crisp number."""
    rising = sorted(draw(st.lists(_BELOW_PEAK, max_size=4)))
    falling = sorted(draw(st.lists(_BELOW_PEAK, max_size=4)), reverse=True)
    memberships = rising + [1.0] * draw(st.integers(1, 3)) + falling
    values = draw(
        st.lists(
            st.floats(-1e3, 1e3, allow_subnormal=False),
            min_size=len(memberships),
            max_size=len(memberships),
            unique=True,
        )
    )
    return FuzzyNumber(tuple(sorted(values)), tuple(memberships))


class TestAlphaCuts:
    @settings(max_examples=300, deadline=None)
    @given(fz=polylines(), levels=st.lists(st.floats(0.0, 1.0), max_size=8))
    @example(fz=FuzzyNumber.crisp(-0.0), levels=[0.5])
    @example(fz=FuzzyNumber((0.0, 0.1, 0.7, 3.0), (0.3, 1.0, 1.0, 0.3)), levels=[0.3])
    def test_equal_the_scalar_cuts_bit_for_bit(self, fz, levels):
        # every breakpoint's membership, both ends and random levels, in
        # no particular order
        alphas = [0.0, 1.0, *fz.memberships, *levels][::-1]
        cuts = fz.alpha_cuts(alphas)
        expected = np.array([scalar_alpha_cut(fz, a) for a in alphas])
        assert cuts.shape == (len(alphas), 2)
        assert cuts.tobytes() == expected.tobytes()
        for a, cut in zip(alphas, cuts.tolist()):
            assert fz.alpha_cut(a) == Interval(*cut)

    @settings(max_examples=200, deadline=None)
    @given(
        numbers=st.lists(polylines(), min_size=1, max_size=4),
        levels=st.lists(st.floats(0.0, 1.0), max_size=8),
    )
    def test_numbers_cut_together_equal_their_scalar_cuts(self, numbers, levels):
        # one search of the union of every branch's keys serves them all
        alphas = [0.0, 1.0, *levels]
        for fz in numbers:
            alphas += fz.memberships
        cuts = _cut(_cut_table(numbers), alphas[::-1])
        expected = [[scalar_alpha_cut(fz, a) for a in alphas[::-1]] for fz in numbers]
        assert cuts.tobytes() == np.array(expected).tobytes()

    def test_levels_outside_the_unit_interval_are_rejected(self):
        fz = FuzzyNumber.triangular(0.0, 1.0, 2.0)
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValidationError, match="alpha must lie in"):
                fz.alpha_cuts([0.5, bad])
        assert fz.alpha_cuts([]).shape == (0, 2)


def scalar_membership(curve, z):
    """The grade of one point by the branch search membership_at made
    before it took arrays, kept as the reference of its array path."""
    lows, highs, alphas = curve.lower, curve.upper, curve.alphas
    if z < lows[0] or z > highs[0]:
        return 0.0
    if lows[-1] <= z <= highs[-1]:
        return float(alphas[-1])
    if z < lows[-1]:
        k = int(np.searchsorted(lows, z, side="right")) - 1
        if lows[k] == z:
            return float(alphas[k])
        x0, x1 = lows[k], lows[k + 1]
        a0, a1 = alphas[k], alphas[k + 1]
        return float(a0 + (z - x0) * (a1 - a0) / (x1 - x0))
    k = int(np.searchsorted(-highs, -z, side="right")) - 1
    if highs[k] == z:
        return float(alphas[k])
    x0, x1 = highs[k], highs[k + 1]
    a0, a1 = alphas[k], alphas[k + 1]
    return float(a0 + (x0 - z) * (a1 - a0) / (x0 - x1))


class TestMembershipCurve:
    def build(self, fz, n=11):
        alphas = [i / (n - 1) for i in range(n)]
        cuts = fz.alpha_cuts(alphas)
        return MembershipCurve(alphas, cuts[:, 0], cuts[:, 1])

    def test_rejects_non_nested_rows(self):
        with pytest.raises(ValidationError):
            MembershipCurve((0.0, 1.0), (0.0, -0.5), (1.0, 0.5))

    def test_nesting_tolerance_scales_with_the_rows(self):
        # an absolute 1e-9 accepted an alpha = 1 row wholly outside the
        # alpha = 0 row when both sit near 1e-10
        with pytest.raises(ValidationError):
            MembershipCurve((0.0, 1.0), (1e-10, 5e-10), (2e-10, 6e-10))
        # while it rejected rounding noise of a few ulps at 1e9
        lower = (1e9, 1e9 - 4.0 * np.spacing(1e9))
        upper = (2e9, 2e9 + 4.0 * np.spacing(2e9))
        assert MembershipCurve((0.0, 1.0), lower, upper).membership_at(1.5e9) == 1.0

    def test_rejects_disordered_alphas(self):
        with pytest.raises(ValidationError):
            MembershipCurve((0.5, 0.2), (0.0, 0.2), (1.0, 0.8))

    def test_membership_zero_outside_support(self):
        curve = self.build(FuzzyNumber.trapezoidal(1.0, 2.0, 3.0, 4.0))
        assert curve.membership_at(0.9) == 0.0
        assert curve.membership_at(4.1) == 0.0

    def test_membership_one_on_modal_interval(self):
        curve = self.build(FuzzyNumber.trapezoidal(1.0, 2.0, 3.0, 4.0))
        assert curve.membership_at(2.0) == 1.0
        assert curve.membership_at(2.6) == 1.0
        assert curve.membership_at(3.0) == 1.0

    def test_round_trip_at_stored_rows(self):
        fz = FuzzyNumber.trapezoidal(1.0, 2.5, 3.0, 4.5)
        curve = self.build(fz, n=11)
        for a, iv in zip(curve.alphas, curve.intervals):
            if a == 0.0:
                continue
            assert curve.membership_at(iv.lo) == pytest.approx(a, abs=1e-9)
            assert curve.membership_at(iv.hi) == pytest.approx(a, abs=1e-9)

    def test_interpolates_between_rows(self):
        fz = FuzzyNumber.triangular(0.0, 1.0, 2.0)
        curve = self.build(fz, n=11)
        # halfway between the 0.4 and 0.5 rows on the lower branch
        assert curve.membership_at(0.45) == pytest.approx(0.45, abs=1e-12)

    def test_crisp_curve_is_a_spike(self):
        curve = self.build(FuzzyNumber.crisp(2.0))
        assert curve.membership_at(2.0) == 1.0
        assert curve.membership_at(2.001) == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        ends=st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.5]), min_size=1, max_size=6),
        tops=st.lists(st.sampled_from([5.0, 6.0, 7.5]), min_size=6, max_size=6),
        levels=st.sets(st.sampled_from([i / 20 for i in range(21)]), min_size=6),
        probes=st.lists(st.floats(-1.0, 9.0), max_size=20),
    )
    def test_array_grades_equal_scalar_grades(self, ends, tops, levels, probes):
        # plateaus where rows share an end; probes at every row end, outside
        # the support and in between
        lows = sorted(ends)
        highs = sorted(tops[: len(lows)], reverse=True)
        curve = MembershipCurve(sorted(levels)[: len(lows)], lows, highs[: len(lows)])
        zs = np.array(lows + highs + probes + [-1.0, 9.0])
        grades = curve.membership_at(zs)
        assert grades.shape == zs.shape
        for z, grade in zip(zs.tolist(), grades.tolist()):
            assert grade == scalar_membership(curve, z)
            assert curve.membership_at(z) == grade
            assert type(curve.membership_at(z)) is float

    @settings(max_examples=50, deadline=None)
    @given(fz=trapezoids())
    def test_rows_from_cuts_always_valid(self, fz):
        curve = self.build(fz, n=21)
        assert len(curve.intervals) == 21


class TestSupMinReconstruction:
    """Sampled sup-min propagation agrees with interval reconstruction.

    For a kernel monotone in each argument the exact image of the boxes
    is the interval between the kernel at the box corners, so the
    alpha-cut curve is the exact membership function of the image. The
    sup-min side scans a dense sample grid: for every sample point, the
    image value's reconstructed membership must be at least the min of
    the coordinate memberships, and the branch endpoints must agree.
    """

    @staticmethod
    def kernel(x, v, y):
        # increasing in x and v, decreasing in y
        return 2.0 * x + v - 0.5 * y

    def test_monotone_kernel(self):
        fx = FuzzyNumber.trapezoidal(0.5, 0.6, 0.7, 0.8)
        fv = FuzzyNumber.trapezoidal(0.1, 0.2, 0.3, 0.4)
        fy = FuzzyNumber.trapezoidal(3.0, 4.0, 5.0, 6.0)

        alphas = tuple(i / 10 for i in range(11))
        cx, cv, cy = (fz.alpha_cuts(alphas).T for fz in (fx, fv, fy))
        curve = MembershipCurve(
            alphas,
            self.kernel(cx[0], cv[0], cy[1]),
            self.kernel(cx[1], cv[1], cy[0]),
        )

        # quantile-aligned samples: cut endpoints at the tabulated levels
        def axis_samples(fz):
            pts = sorted(
                {fz.alpha_cut(a).lo for a in alphas}
                | {fz.alpha_cut(a).hi for a in alphas}
            )
            return np.array(pts)

        xs, vs, ys = axis_samples(fx), axis_samples(fv), axis_samples(fy)
        mx = np.array([fx.membership(x) for x in xs])
        mv = np.array([fv.membership(v) for v in vs])
        my = np.array([fy.membership(y) for y in ys])

        worst = 0.0
        for i, x in enumerate(xs):
            for j, v in enumerate(vs):
                grade_xv = min(mx[i], mv[j])
                for k, y in enumerate(ys):
                    grade = min(grade_xv, my[k])
                    z = self.kernel(x, v, y)
                    recon = curve.membership_at(z)
                    # sup-min over the grid can only undershoot
                    worst = max(worst, grade - recon)
        assert worst <= 0.02
