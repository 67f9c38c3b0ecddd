"""Decision-support views over fuzzy characteristic bounds.

Builds the alpha-cut table that pairs parameter cuts with characteristic
bounds, answers inverse queries (which confidence level delivers a
target interval, which parameter range is needed at a given level), and
calibrates the crisp coverage probability against anchor bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import (
    FuzzySystemParams,
    Metric,
    bounds_at_levels,
    characteristic_bounds,
    enforce_nesting,
    _metric_axes,
)
from .errors import (
    CalibrationError,
    NoContainmentError,
    UnknownParameterError,
    ValidationError,
)
from .fuzzy import Interval, MembershipCurve, _escapes


@dataclass(frozen=True)
class TableRow:
    """One alpha level: parameter cuts plus characteristic bounds."""

    alpha: float
    cuts: dict[str, Interval]
    bounds: Interval


@dataclass(frozen=True)
class AlphaCutTable:
    """Alpha-indexed table of parameter cuts and characteristic bounds."""

    metric: Metric
    parameters: tuple[str, ...]
    rows: tuple[TableRow, ...]

    def __post_init__(self):
        object.__setattr__(self, "parameters", tuple(self.parameters))
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValidationError("table needs at least one row")
        for row in self.rows:
            missing = [p for p in self.parameters if p not in row.cuts]
            if missing:
                raise ValidationError(
                    f"row alpha={row.alpha} lacks cuts for {missing}"
                )
        alphas = [row.alpha for row in self.rows]
        for a, b in zip(alphas, alphas[1:]):
            if not a < b:
                raise ValidationError(
                    f"row alphas must strictly increase, got {a} then {b}"
                )
        for prev, row in zip(self.rows, self.rows[1:]):
            columns = [(p, row.cuts[p], prev.cuts[p]) for p in self.parameters]
            columns.append(("bounds", row.bounds, prev.bounds))
            for name, hi_iv, lo_iv in columns:
                if _escapes(hi_iv, lo_iv):
                    raise ValidationError(
                        f"column {name} not nested between alpha={prev.alpha} "
                        f"and alpha={row.alpha}"
                    )

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(row.alpha for row in self.rows)

    def cut_series(self, parameter: str) -> tuple[Interval, ...]:
        if parameter not in self.parameters:
            raise UnknownParameterError(
                f"unknown parameter {parameter!r}, table has {self.parameters}"
            )
        return tuple(row.cuts[parameter] for row in self.rows)

    def to_curve(self) -> MembershipCurve:
        return MembershipCurve(
            self.alphas, tuple(row.bounds for row in self.rows)
        )


def build_table(
    fp: FuzzySystemParams,
    metric: Metric,
    alphas: Sequence[float],
) -> AlphaCutTable:
    """Alpha-cut table for a metric across an alpha ladder; the cut
    columns are the boxes the bounds search took at each level."""
    names = _metric_axes(metric)
    results = bounds_at_levels(fp, metric, alphas)
    ladder = [r.alpha for r in results]
    bound_ivs = enforce_nesting(ladder, [r.bounds for r in results])
    cut_columns = {
        name: enforce_nesting(ladder, [r.box[name] for r in results]) for name in names
    }

    rows = tuple(
        TableRow(
            alpha=a,
            cuts={name: cut_columns[name][i] for name in names},
            bounds=bound_ivs[i],
        )
        for i, a in enumerate(ladder)
    )
    return AlphaCutTable(metric=metric, parameters=names, rows=rows)


@dataclass(frozen=True)
class DecisionQuery:
    """Target interval a decision maker wants the characteristic inside."""

    metric: Metric
    target: Interval


# the top row may pass the target by this fraction of their magnitude
_CONTAINMENT_TOL = 1e-13


def invert_query(curve: MembershipCurve, query: DecisionQuery) -> float:
    """Smallest alpha whose characteristic interval fits the target.

    The bounds shrink as alpha grows, so containment is monotone: once an
    alpha level fits inside the target, every higher level does too. The
    returned level is the threshold, found by linear interpolation on
    each branch; it answers "how much confidence must I give up before
    the guaranteed range fits my target".
    """
    target = query.target
    alphas = np.asarray(curve.alphas)
    lows = np.asarray([iv.lo for iv in curve.intervals])
    highs = np.asarray([iv.hi for iv in curve.intervals])

    if _escapes(Interval(lows[-1], highs[-1]), target, _CONTAINMENT_TOL):
        raise NoContainmentError(
            f"even the alpha={alphas[-1]:g} interval "
            f"[{lows[-1]:.6g}, {highs[-1]:.6g}] is not inside the target "
            f"[{target.lo:.6g}, {target.hi:.6g}]"
        )

    # lower branch: lows nondecreasing, need lows[alpha] >= target.lo
    if lows[0] >= target.lo:
        alpha_lo = float(alphas[0])
    else:
        j = int(np.searchsorted(lows, target.lo, side="left"))
        if j >= len(lows):
            # containment held only through the _CONTAINMENT_TOL slack
            alpha_lo = float(alphas[-1])
        elif lows[j] == target.lo:
            alpha_lo = float(alphas[j])
        else:
            frac = (target.lo - lows[j - 1]) / (lows[j] - lows[j - 1])
            alpha_lo = float(alphas[j - 1] + frac * (alphas[j] - alphas[j - 1]))

    # upper branch: highs nonincreasing, need highs[alpha] <= target.hi
    if highs[0] <= target.hi:
        alpha_hi = float(alphas[0])
    else:
        j = int(np.searchsorted(-highs, -target.hi, side="left"))
        if j >= len(highs):
            alpha_hi = float(alphas[-1])
        elif highs[j] == target.hi:
            alpha_hi = float(alphas[j])
        else:
            frac = (highs[j - 1] - target.hi) / (highs[j - 1] - highs[j])
            alpha_hi = float(alphas[j - 1] + frac * (alphas[j] - alphas[j - 1]))

    return max(alpha_lo, alpha_hi)


def required_parameter_range(
    table: AlphaCutTable, alpha: float, parameter: str
) -> Interval:
    """Parameter interval that must hold to claim a given alpha level.

    Interpolates the stored cut column linearly in alpha, so querying a
    tabulated level returns that row's cut unchanged.
    """
    column = MembershipCurve(table.alphas, table.cut_series(parameter))
    return column.interval_at(alpha)


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

    The characteristic's lower bound grows with coverage for this model,
    so the anchor's lower endpoint pins coverage down to a root-finding
    problem on [0, 1]. The upper-bound residual at the solution is
    reported as a consistency diagnostic rather than being fit.
    """

    def lower_gap(c: float) -> float:
        result = characteristic_bounds(fp.with_coverage(c), metric, anchor_alpha)
        return result.bounds.lo - anchor_bounds.lo

    scale = max(abs(anchor_bounds.lo), abs(anchor_bounds.hi))
    gap0 = lower_gap(0.0)
    gap1 = lower_gap(1.0)
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

    final = characteristic_bounds(fp.with_coverage(coverage), metric, anchor_alpha)
    lower_residual = final.bounds.lo - anchor_bounds.lo
    upper_residual = final.bounds.hi - anchor_bounds.hi
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
