"""Decision-support views over fuzzy characteristic bounds.

Builds the alpha-cut table that pairs parameter cuts with characteristic
bounds, answers inverse queries (which confidence level delivers a
target interval, which parameter range is needed at a given level), and
calibrates the crisp coverage probability against anchor bounds. The
calibration fits the lower bound, which is the values kernel at the
minimum's point at the two ends of the mu cut: bit for bit the bound
search's minimum for MTBF and availability, and within
bounds._ZERO_CHANGE of R for R(t). The search runs once, at the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import (
    FuzzySystemParams,
    Metric,
    _boxes,
    _complete_ladder,
    _curve,
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


def calibrate_coverage(
    fp: FuzzySystemParams,
    metric: Metric,
    anchor_alpha: float,
    anchor_bounds: Interval,
) -> CalibrationResult:
    """Find the crisp coverage that reproduces anchor bounds.

    The anchor's lower endpoint pins coverage down to a root-finding
    problem on [0, 1], bracketed by the lower bound's gaps at c = 0 and
    c = 1. The lower bound of MTBF and R(t) has only been seen rising in
    coverage; that of availability can rise and then fall, as on a model
    where it goes 5.464e-4, 5.614e-4 and 5.605e-4 at c = 0, 0.05 and 1.
    An anchor between two such roots leaves gaps of one sign at both ends
    and raises CalibrationError, though either root fits it. The
    upper-bound residual at the solution is reported as a consistency
    diagnostic rather than being fit. The anchor box is cut and
    validated once.

    The lower bound is taken at the minimum's point, whose lambda, theta
    and beta no coverage moves (bounds._pinned), at both ends of the mu
    cut, where the minimum lies: one values-kernel call on those two rows
    per root-finding step, with only their c column rewritten. That
    equals the bound search's minimum bit for bit for MTBF and
    availability, and to within bounds._ZERO_CHANGE of R for R(t), whose
    search takes mu hi only where R there is lower by more than that. The
    bound search runs once, at the root, for both residuals.
    """
    cuts = _boxes(fp, metric, np.array([float(anchor_alpha)]))
    # the minimum's point at mu lo and mu hi, at c = 0 and then c = 1
    rows = np.repeat(_pinned(fp, metric, cuts, 0.0)[0], 4, axis=0)
    rows[:, 2] = np.tile(cuts[2, 0], 2)
    rows[2:, 3] = 1.0
    levels = np.zeros(4, dtype=int)

    def lower_bounds(rows: np.ndarray) -> np.ndarray:
        """The lower bound at each pair of rows, the lower of its two ends."""
        return _values(metric, rows, cuts, levels).reshape(-1, 2).min(axis=1)

    scale = max(abs(anchor_bounds.lo), abs(anchor_bounds.hi))
    gap0, gap1 = (lower_bounds(rows) - anchor_bounds.lo).tolist()
    # brentq starts at the bracket's ends, whose gaps are known
    known = {0.0: gap0, 1.0: gap1}
    pair = rows[:2]

    def lower_gap(c: float) -> float:
        if c in known:
            return known[c]
        pair[:, 3] = c
        return float(lower_bounds(pair)[0]) - anchor_bounds.lo

    if abs(gap1) <= _BOUNDARY_ROOT_TOL * scale:
        coverage = 1.0
    elif abs(gap0) <= _BOUNDARY_ROOT_TOL * scale:
        coverage = 0.0
    elif np.sign(gap0) == np.sign(gap1):
        raise CalibrationError(
            f"no coverage in [0, 1] reaches the anchor lower bound "
            f"{anchor_bounds.lo:.6g} (gaps {gap0:.3e} at c=0, {gap1:.3e} at c=1)"
        )
    else:
        import scipy.optimize

        coverage = float(
            scipy.optimize.brentq(lower_gap, 0.0, 1.0, xtol=1e-12, maxiter=200)
        )

    anchor = [anchor_bounds.lo, anchor_bounds.hi]
    found = _search(fp, metric, cuts, coverage).bounds[:, 0]
    lower_residual, upper_residual = (found - anchor).tolist()
    if abs(lower_residual) > _CALIBRATION_TOL * scale:
        raise CalibrationError(
            f"calibration stalled, lower-bound residual {lower_residual:.3e} "
            f"exceeds {_CALIBRATION_TOL * scale:.3g}"
        )
    return CalibrationResult(
        coverage=coverage,
        lower_residual=lower_residual,
        upper_residual=upper_residual,
    )
