"""Decision-support views over fuzzy characteristic bounds.

Builds the alpha-cut table that pairs parameter cuts with characteristic
bounds, answers inverse queries (which confidence level delivers a
target interval, which parameter range is needed at a given level), and
calibrates the crisp coverage probability against anchor bounds. The
calibration fits the lower bound, the lower of the metric's values at
the minimum's point at the two ends of the mu cut: bit for bit the bound
search's minimum for MTBF and availability, and within
bounds._ZERO_CHANGE of R for R(t). For MTBF and availability each value
is a ratio of quadratics in c, so the coverages that meet an anchor come
in closed form, with 1 - c to full relative precision; where an anchor
has two, the one whose upper residual is smaller is returned. R(t) takes
the Illinois method on the two values. The search runs once, at the
root, or once at each of two. An anchor that no float coverage meets to
tolerance raises an error that names the conditioning, and a kernel
value that is not finite raises KernelEvaluationError naming the rate
point that gave it (bounds._checked).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import markov
from .bounds import (
    FuzzySystemParams,
    Metric,
    _boxes,
    _complete_ladder,
    _curve,
    _kernel_error,
    _ladder_bounds,
    _metric_axes,
    _pinned,
    _search,
    _values,
)
from .errors import (
    CalibrationError,
    NoContainmentError,
    UnknownParameterError,
    ValidationError,
)
from .fuzzy import Interval, MembershipCurve, _escapes


@dataclass(frozen=True)
class AlphaCutTable:
    """Alpha-indexed table of parameter cuts and characteristic bounds,
    held as columns: the bounds' curve and one curve of cuts per
    parameter, all on the same levels. Each column checks its own
    nesting."""

    metric: Metric
    bounds: MembershipCurve
    cuts: dict[str, MembershipCurve]

    def __post_init__(self):
        for name, column in self.cuts.items():
            if not np.array_equal(column.alphas, self.bounds.alphas):
                raise ValidationError(f"column {name} has other alpha levels than the bounds")

    @property
    def parameters(self) -> tuple[str, ...]:
        return tuple(self.cuts)

    @property
    def alphas(self) -> np.ndarray:
        return self.bounds.alphas

    def _column(self, parameter: str) -> MembershipCurve:
        if parameter not in self.cuts:
            raise UnknownParameterError(
                f"unknown parameter {parameter!r}, table has {self.parameters}"
            )
        return self.cuts[parameter]


def build_table(
    fp: FuzzySystemParams,
    metric: Metric,
    alphas: Sequence[float],
) -> AlphaCutTable:
    """Alpha-cut table for a metric across an alpha ladder; the cut
    columns are the boxes the bounds search took at each level."""
    ladder = _complete_ladder(alphas)
    found = _ladder_bounds(fp, metric, ladder)
    bounds = _curve(ladder, *found.bounds)
    cuts = {name: _curve(ladder, *c.T) for name, c in zip(_metric_axes(metric), found.cuts)}
    return AlphaCutTable(metric=metric, bounds=bounds, cuts=cuts)


# the top row may pass the target by this fraction of their magnitude
_CONTAINMENT_TOL = 1e-13


def invert_query(curve: MembershipCurve, target: Interval) -> float:
    """Smallest alpha whose characteristic interval fits the target.

    The bounds shrink as alpha grows, so containment is monotone: once an
    alpha level fits inside the target, every higher level does too. The
    returned level is the threshold, found by linear interpolation on
    each branch; it answers "how much confidence must I give up before
    the guaranteed range fits my target".
    """
    alphas, lows, highs = curve.alphas, curve.lower, curve.upper

    if _escapes(lows[-1], highs[-1], target.lo, target.hi, _CONTAINMENT_TOL):
        raise NoContainmentError(
            f"even the alpha={alphas[-1]:g} interval "
            f"[{lows[-1]:.6g}, {highs[-1]:.6g}] is not inside the target "
            f"[{target.lo:.6g}, {target.hi:.6g}]"
        )
    # the upper branch is the lower one negated, which is exact in floats:
    # highs nonincreasing to at most target.hi, as -highs rising to -target.hi
    return max(
        _first_level(alphas, lows, target.lo),
        _first_level(alphas, -highs, -target.hi),
    )


def _first_level(alphas: np.ndarray, ends: np.ndarray, bound: float) -> float:
    """First alpha at which the nondecreasing ends reach bound, linear in
    alpha between two levels."""
    if ends[0] >= bound:
        return float(alphas[0])
    j = int(np.searchsorted(ends, bound, side="left"))
    if j >= len(ends):
        # containment held only through the _CONTAINMENT_TOL slack
        return float(alphas[-1])
    if ends[j] == bound:
        return float(alphas[j])
    frac = (bound - ends[j - 1]) / (ends[j] - ends[j - 1])
    return float(alphas[j - 1] + frac * (alphas[j] - alphas[j - 1]))


def required_parameter_range(
    table: AlphaCutTable, alpha: float, parameter: str
) -> Interval:
    """Parameter interval that must hold to claim a given alpha level.

    Interpolates the stored cut column linearly in alpha, so querying a
    tabulated level returns that row's cut unchanged.
    """
    return table._column(parameter).interval_at(alpha)


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated coverage plus the residuals at the anchor interval."""

    coverage: float
    lower_residual: float
    upper_residual: float


# fractions of the anchor's magnitude, max(|lo|, |hi|), so that a model
# with every rate scaled calibrates alike; at anchors below 10, such as
# the reference model's, they are at most 1e-9 and 1e-6
_BOUNDARY_ROOT_TOL = 1e-10
_CALIBRATION_TOL = 1e-7
# R(t)'s root search stops once its bracket is within this of 1 - c
_ROOT_WIDTH = 4.0 * np.finfo(float).eps
_MAX_STEPS = 200


def calibrate_coverage(
    fp: FuzzySystemParams,
    metric: Metric,
    anchor_alpha: float,
    anchor_bounds: Interval,
) -> CalibrationResult:
    """Find the crisp coverage that reproduces anchor bounds.

    The coverage is fit to the anchor's lower endpoint z: a root in [0, 1]
    of the lower bound's gap to z. The upper-bound residual at the root is
    reported as a consistency diagnostic rather than being fit. The
    anchor box is cut and validated once.

    The lower bound is the metric at the minimum's point, whose lambda,
    theta and beta no coverage moves (bounds._pinned), at the lower of the
    two ends of the mu cut, where the minimum lies. That equals the bound
    search's minimum bit for bit for MTBF and availability, and to within
    bounds._ZERO_CHANGE of R for R(t), whose search takes mu hi only where
    R there is lower by more than that. The bound search runs once, at the
    root, for both residuals.

    MTBF and availability are solved in closed form (_quadratic_roots):
    at each of the two rows the metric is a ratio of quadratics in c, so
    each row meets z where a quadratic in c vanishes; for MTBF, with a =
    2 lambda + theta,

        2 a lambda c^2 + (a (mu + lambda) - 2 lambda mu
                          + z a mu (mu + 3 lambda)) c
        + (1 - z a) (mu + lambda) (mu + 2 lambda) = 0.

    MTTF rises strictly in c, and availability turns at most once in c,
    from rising to falling (both proven, test_bounds.TestProofs). So at
    each row the coverages that reach z form one interval, and so do
    those where both rows do, where the lower bound reaches z. Its ends
    that meet z are the roots: so an availability anchor above the lower
    bound at both c = 0 and c = 1 has two, one on each side of its peak.

    R(t) has no closed form. Its lower bound has only been seen rising in
    c (ROADMAP item 7), so its one root is bracketed by the gaps at c = 0
    and c = 1 and found by the Illinois method on the two rows
    (_illinois), one values-kernel call per step.

    An end of [0, 1] counts as a root where the lower bound there is
    within _BOUNDARY_ROOT_TOL of z. Where an anchor has two roots, the
    result is the one whose upper residual is smaller in magnitude; only
    then does a second search run. Residuals within _BOUNDARY_ROOT_TOL of
    each other tie, as they do exactly where the box is a point, and a tie
    goes to the larger coverage: the fit is then underdetermined, and a
    fault-tolerant design's coverage sits near 1.

    No root raises CalibrationError, and so does a root whose lower
    residual exceeds _CALIBRATION_TOL. The latter names the conditioning:
    near c = 1 MTTF's relative change per unit of c reaches about mu^2 /
    (2 lambda^2), so once mu exceeds about 4e4 lambda one float step of c
    moves the lower bound by more than the tolerance, and an anchor from
    outside may meet no float coverage. A round trip from a model's own
    coverage always meets it. A value or form in c that is not finite
    raises KernelEvaluationError naming the rate point of its row.
    """
    cuts = _boxes(fp, metric, np.array([float(anchor_alpha)]))
    # the minimum's point at mu lo and mu hi
    rows = np.repeat(_pinned(fp, metric, cuts, 0.0)[0], 2, axis=0)
    rows[:, 2] = cuts[2, 0]
    z = anchor_bounds.lo
    scale = max(abs(z), abs(anchor_bounds.hi))
    if metric.kind == "reliability":
        coverages = [_reliability_root(metric, rows, z, scale)]
    else:
        coverages = _quadratic_roots(metric, rows, z, scale)

    anchor = [z, anchor_bounds.hi]
    results = [
        (c, *(_search(fp, metric, cuts, c).bounds[:, 0] - anchor).tolist())
        for c in coverages
    ]
    # the smallest upper residual, and of those within the tolerance of it
    # the largest coverage
    best = min(abs(r[2]) for r in results) + _BOUNDARY_ROOT_TOL * scale
    coverage, lower_residual, upper_residual = max(r for r in results if abs(r[2]) <= best)
    if abs(lower_residual) > _CALIBRATION_TOL * scale:
        raise _ill_conditioned(metric, rows, coverage, lower_residual, scale)
    return CalibrationResult(
        coverage=coverage,
        lower_residual=lower_residual,
        upper_residual=upper_residual,
    )


def _no_root(z: float, gap0: float, gap1: float) -> CalibrationError:
    return CalibrationError(
        f"no coverage in [0, 1] reaches the anchor lower bound "
        f"{z:.6g} (gaps {gap0:.3e} at c=0, {gap1:.3e} at c=1)"
    )


def _quadratic_roots(
    metric: Metric, rows: np.ndarray, z: float, scale: float
) -> list[float]:
    """The coverages at which the lower bound of MTBF or availability, the
    lower value of rows (2, 5), meets z, in closed form.

    At each row the metric is N / D, quadratics in c with positive
    coefficients (markov._mttf_c_form, markov._availability_c_form), so
    it reaches z where F = N - z D >= 0: from 0, where the row is above z
    or within _BOUNDARY_ROOT_TOL of it, or else from F's first root in
    (0, 1), up to 1, or else to F's last root (_unit_roots). Both rows
    reach z on the intersection of those intervals, whose ends are the
    roots, an end at 0 or 1 only where the lower bound is within the
    tolerance of z there.
    """
    form = markov._availability_c_form if metric.uses_reboot_rate else markov._mttf_c_form
    tol = _BOUNDARY_ROOT_TOL * scale
    lo, hi, gaps = 0.0, 1.0, []
    for row in rows:
        num, den = form(row).tolist()
        if not (all(map(math.isfinite, num)) and all(0.0 < d < math.inf for d in den)):
            raise _kernel_error(
                metric, row, "its form in c is not finite, or its denominator not positive"
            )
        f0, f1, f2 = (n - z * d for n, d in zip(num, den))
        # the row's gap to z at c = 0 and at c = 1
        gap0, gap1 = f0 / den[0], f2 / den[2]
        roots = _unit_roots(f0, f1, f2)
        lo = max(lo, 0.0 if gap0 >= -tol else min(roots, default=1.0))
        hi = min(hi, 1.0 if gap1 >= -tol else max(roots, default=0.0))
        gaps.append((gap0, gap1))
    gap0, gap1 = map(min, zip(*gaps))
    roots = {c for c, meets in ((lo, lo > 0.0 or gap0 <= tol), (hi, hi < 1.0 or gap1 <= tol))
             if meets}
    if lo > hi or not roots:
        raise _no_root(z, gap0, gap1)
    return list(roots)


def _unit_roots(f0: float, f1: float, f2: float) -> list[float]:
    """The roots in (0, 1) of f0 (1 - c)^2 + f1 c (1 - c) + f2 c^2.

    With r = c / (1 - c) they solve f2 r^2 + f1 r + f0 = 0, whose roots
    are r = q / f2 and r = f0 / q with q = -(f1 + sign(f1) sqrt(f1^2 - 4
    f0 f2)) / 2, the form that subtracts nothing but at the discriminant.
    A root r = n / d, n and d of one sign, is c = n / (n + d) and 1 - c =
    d / (n + d), both to full relative precision; c is formed from the
    smaller, so that near c = 1 it is 1 - u for u = 1 - c.
    """
    disc = f1 * f1 - 4.0 * f0 * f2
    if disc < 0.0:
        return []
    q = -0.5 * (f1 + math.copysign(math.sqrt(disc), f1))
    roots = []
    for n, d in ((q, f2), (f0, q)):
        if d < 0.0:
            n, d = -n, -d
        if n > 0.0 and d > 0.0:
            c = n / (n + d) if n <= d else 1.0 - d / (n + d)
            if 0.0 < c < 1.0:
                roots.append(c)
    return roots


def _reliability_root(
    metric: Metric, rows: np.ndarray, z: float, scale: float
) -> float:
    """The coverage at which R(t)'s lower bound, the lower value of rows
    (2, 5), meets z: an end of [0, 1] where its gap is within
    _BOUNDARY_ROOT_TOL of z, c = 1 first, or else the root between ends
    whose gaps differ in sign, by the Illinois method."""

    def lower_gaps(rows: np.ndarray) -> np.ndarray:
        """The lower bound's gap to z at each pair of rows."""
        return _values(metric, rows).reshape(-1, 2).min(axis=1) - z

    ends = np.repeat(rows[None], 2, axis=0)
    ends[:, :, 3] = [[0.0], [1.0]]
    gap0, gap1 = lower_gaps(ends.reshape(4, 5)).tolist()
    tol = _BOUNDARY_ROOT_TOL * scale
    if abs(gap1) <= tol:
        return 1.0
    if abs(gap0) <= tol:
        return 0.0
    if (gap0 > 0.0) == (gap1 > 0.0):
        raise _no_root(z, gap0, gap1)
    pair = rows.copy()

    def lower_gap(c: float) -> float:
        pair[:, 3] = c
        return float(lower_gaps(pair)[0])

    return _illinois(lower_gap, 0.0, 1.0, gap0, gap1)


def _illinois(f, a: float, b: float, fa: float, fb: float) -> float:
    """A root of f in [a, b], where f(a) = fa and f(b) = fb differ in sign,
    by the Illinois method (Dowell & Jarratt, BIT 11, 1971): regula falsi
    that halves the weight of an end kept twice in a row, which keeps its
    convergence superlinear. A step that falls outside the bracket's
    interior is a bisection. It stops at adjacent floats, or once the
    bracket is within _ROOT_WIDTH of 1 - c, and returns the end where f
    is smaller in magnitude."""
    wa, wb, kept = fa, fb, 0
    for _ in range(_MAX_STEPS):
        if b - a <= _ROOT_WIDTH * (1.0 - a):
            break
        c = (a * wb - b * wa) / (wb - wa)
        if not a < c < b:
            c = a + 0.5 * (b - a)
            if not a < c < b:
                break
        fc = f(c)
        if fc == 0.0:
            return c
        if (fc > 0.0) == (fb > 0.0):
            b, fb, wb = c, fc, fc
            wa *= 0.5 if kept < 0 else 1.0
            kept = -1
        else:
            a, fa, wa = c, fc, fc
            wb *= 0.5 if kept > 0 else 1.0
            kept = 1
    return a if abs(fa) <= abs(fb) else b


def _ill_conditioned(
    metric: Metric, rows: np.ndarray, coverage: float, lower_residual: float, scale: float
) -> CalibrationError:
    """The error of a root whose lower residual misses _CALIBRATION_TOL:
    the lower bound's move over one float step of c either side, from
    the values kernel on the two rows, names the conditioning."""
    steps = np.repeat(rows[None], 3, axis=0)
    steps[:, :, 3] = [
        [np.nextafter(coverage, 0.0)], [coverage], [np.nextafter(coverage, 1.0)]
    ]
    lower = _values(metric, steps.reshape(6, 5))
    step = np.abs(np.diff(lower.reshape(3, 2).min(axis=1))).max()
    return CalibrationError(
        f"calibration is ill-conditioned: near c = {coverage!r} one float step of c "
        f"moves the lower bound by up to {step:.3e}, and the root misses the anchor "
        f"lower bound by {lower_residual:.3e}, beyond {_CALIBRATION_TOL * scale:.3g}"
    )
