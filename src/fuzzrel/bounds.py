"""Interval bounds of system characteristics over fuzzy-rate boxes.

At each alpha level the fuzzy rates cut down to a box of crisp rate
vectors. The lower and upper bounds of a characteristic over that box
are a pair of small constrained programs; solving them across a ladder
of alpha levels traces out the membership curve of the characteristic.

The characteristics are monotone in each rate for this model, so box
corners are the natural candidates; a multi-start local search guards
the result against any non-monotone regime instead of assuming
monotonicity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
import scipy.optimize

from .errors import (
    KernelEvaluationError,
    NestingError,
    SolverError,
    ValidationError,
)
from .fuzzy import NESTING_TOL, FuzzyNumber, Interval, MembershipCurve
from . import markov
from .markov import SystemParams

# Config-file and table names of the rate parameters, in column order.
PARAM_LAMBDA = "lambda"
PARAM_THETA = "theta"
PARAM_MU = "mu"
PARAM_BETA = "beta"
PARAMETER_NAMES = (PARAM_LAMBDA, PARAM_THETA, PARAM_MU, PARAM_BETA)

_INTERIOR_STARTS = 8
_CORNER_PULL_IN = 1e-3
_LOCAL_SEARCH_OPTIONS = {
    "xatol": 1e-10,
    "fatol": 1e-10,
    "maxiter": 1000,
    "maxfev": 2000,
}
_INFEASIBLE_PENALTY = 1e30
_DEGENERATE_WIDTH = 1e-15


@dataclass(frozen=True)
class Metric:
    """System characteristic to bound: mtbf, availability, or
    reliability at a fixed mission time."""

    kind: str
    t: float | None = None

    KINDS = ("mtbf", "availability", "reliability")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValidationError(
                f"metric kind must be one of {self.KINDS}, got {self.kind!r}"
            )
        if self.kind == "reliability":
            if self.t is None:
                raise ValidationError("reliability metric needs a mission time t")
            t = float(self.t)
            if not np.isfinite(t) or t < 0.0:
                raise ValidationError(f"mission time must be >= 0, got {t}")
            object.__setattr__(self, "t", t)
        elif self.t is not None:
            raise ValidationError(f"metric {self.kind!r} takes no mission time")

    @property
    def uses_reboot_rate(self) -> bool:
        return self.kind == "availability"

    def describe(self) -> str:
        if self.kind == "reliability":
            return f"reliability at t={self.t:g}"
        return {"mtbf": "MTBF", "availability": "steady availability"}[self.kind]


MTBF = Metric("mtbf")
STEADY_AVAILABILITY = Metric("availability")


def reliability_at_time(t: float) -> Metric:
    return Metric("reliability", float(t))


def evaluate_metric(params: SystemParams, metric: Metric) -> float:
    """Crisp value of a characteristic at one rate vector."""
    if metric.kind == "mtbf":
        return markov.mttf(params)
    if metric.kind == "availability":
        return markov.steady_availability(params)
    return markov.reliability_at(params, metric.t)


@dataclass(frozen=True)
class FuzzySystemParams:
    """Fuzzy rates of the system; coverage stays crisp.

    enforce_standby_slower couples the standby and active failure rates:
    construction then requires every theta cut to stay below the matching
    lambda cut's upper bound, and the optimizers reject points where the
    standby would fail faster than an active unit. Left off, the box axes
    are treated independently and an infeasible point inside the box
    surfaces as a kernel evaluation error.
    """

    failure_rate: FuzzyNumber
    standby_failure_rate: FuzzyNumber
    repair_rate: FuzzyNumber
    reboot_rate: FuzzyNumber
    coverage: float
    enforce_standby_slower: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coverage", float(self.coverage))
        if not 0.0 <= self.coverage <= 1.0:
            raise ValidationError(f"coverage must lie in [0, 1], got {self.coverage}")
        if self.failure_rate.support.lo <= 0.0:
            raise ValidationError("failure_rate support must be strictly positive")
        if self.repair_rate.support.lo < 0.0:
            # zero is allowed for first-passage work; availability kernels
            # reject it at evaluation time
            raise ValidationError("repair_rate support must be >= 0")
        if self.reboot_rate.support.lo <= 0.0:
            raise ValidationError("reboot_rate support must be strictly positive")
        if self.standby_failure_rate.support.lo < 0.0:
            raise ValidationError("standby_failure_rate support must be >= 0")
        if self.enforce_standby_slower:
            self._check_standby_slower()

    def _check_standby_slower(self) -> None:
        """Every theta cut must end no later than the matching lambda cut.

        Between consecutive breakpoint levels of the two numbers both upper
        ends are affine in alpha, so their excess peaks at a level or just
        above one; an intermediate membership plateau makes a cut jump
        there, and that right-hand limit is extrapolated from the midpoint.
        """

        def excess(alpha: float) -> float:
            th = self.standby_failure_rate.alpha_cut(alpha).hi
            return th - self.failure_rate.alpha_cut(alpha).hi

        levels = sorted(
            {0.0, 1.0}
            | set(self.failure_rate.memberships)
            | set(self.standby_failure_rate.memberships)
        )
        for lo, hi in zip(levels, levels[1:]):
            at_hi = excess(hi)
            above_lo = 2.0 * excess(0.5 * (lo + hi)) - at_hi
            worst = max(excess(lo), above_lo, at_hi)
            if worst > 1e-12:
                raise ValidationError(
                    f"standby failure rate cut exceeds failure rate cut by "
                    f"{worst:.3g} for alpha in [{lo:g}, {hi:g}]"
                )

    _BY_NAME = {
        PARAM_LAMBDA: "failure_rate",
        PARAM_THETA: "standby_failure_rate",
        PARAM_MU: "repair_rate",
        PARAM_BETA: "reboot_rate",
    }

    def fuzzy_by_name(self, name: str) -> FuzzyNumber:
        try:
            return getattr(self, self._BY_NAME[name])
        except KeyError:
            raise ValidationError(f"unknown parameter name {name!r}") from None

    def cuts(self, alpha: float, names: Sequence[str]) -> dict[str, Interval]:
        return {name: self.fuzzy_by_name(name).alpha_cut(alpha) for name in names}

    def modal_params(self) -> SystemParams:
        """Crisp reduction: midpoint of each alpha = 1 cut."""
        return SystemParams(
            failure_rate=self.failure_rate.modal_interval.midpoint,
            standby_failure_rate=self.standby_failure_rate.modal_interval.midpoint,
            repair_rate=self.repair_rate.modal_interval.midpoint,
            coverage=self.coverage,
            reboot_rate=self.reboot_rate.modal_interval.midpoint,
        )

    def with_coverage(self, coverage: float) -> "FuzzySystemParams":
        return FuzzySystemParams(
            failure_rate=self.failure_rate,
            standby_failure_rate=self.standby_failure_rate,
            repair_rate=self.repair_rate,
            reboot_rate=self.reboot_rate,
            coverage=coverage,
            enforce_standby_slower=self.enforce_standby_slower,
        )


class BoundsMethod(Enum):
    CORNER_SCAN = "corner-scan"
    MULTI_START_LOCAL = "multi-start-local"
    GRID_REFINE = "grid-refine"


@dataclass(frozen=True)
class BoundsResult:
    """Bounds of one characteristic over one alpha-cut box."""

    alpha: float
    box: dict[str, Interval]
    bounds: Interval
    argmin: dict[str, float]
    argmax: dict[str, float]
    method: BoundsMethod


def _metric_axes(metric: Metric) -> tuple[str, ...]:
    names = (PARAM_LAMBDA, PARAM_THETA, PARAM_MU)
    if metric.uses_reboot_rate:
        names += (PARAM_BETA,)
    return names


def _make_kernel(
    fp: FuzzySystemParams, metric: Metric
) -> Callable[[dict[str, float]], float]:
    # beta does not enter first-passage metrics; any valid value works
    beta_fill = fp.reboot_rate.modal_interval.midpoint

    def kernel(point: dict[str, float]) -> float:
        try:
            params = SystemParams(
                failure_rate=point[PARAM_LAMBDA],
                standby_failure_rate=point[PARAM_THETA],
                repair_rate=point[PARAM_MU],
                coverage=fp.coverage,
                reboot_rate=point.get(PARAM_BETA, beta_fill),
            )
            return evaluate_metric(params, metric)
        except (ValidationError, SolverError) as exc:
            raise KernelEvaluationError(
                f"{metric.describe()} failed at {point}: {exc}", point=point
            ) from exc

    return kernel


def _feasible(fp: FuzzySystemParams, point: dict[str, float]) -> bool:
    if not fp.enforce_standby_slower:
        return True
    return point[PARAM_THETA] <= point[PARAM_LAMBDA]


def _corner_points(box: dict[str, Interval]) -> list[dict[str, float]]:
    axes = [
        (iv.lo, iv.hi) if iv.width > _DEGENERATE_WIDTH else (iv.lo,)
        for iv in box.values()
    ]
    names = list(box)
    return [dict(zip(names, combo)) for combo in itertools.product(*axes)]


def _point_from_vector(
    names: Sequence[str],
    free_idx: Sequence[int],
    fixed: dict[str, float],
    x: np.ndarray,
) -> dict[str, float]:
    point = dict(fixed)
    for k, i in enumerate(free_idx):
        point[names[i]] = float(x[k])
    return point


def characteristic_bounds(
    fp: FuzzySystemParams, metric: Metric, alpha: float, *, seed: int = 0
) -> BoundsResult:
    """Lower and upper bounds of a characteristic over one alpha-cut box.

    Scans every box corner, then polishes both directions with
    Nelder-Mead restarts from the corners and from seeded interior
    points. The same seed always reproduces the same result.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha}")
    names = _metric_axes(metric)
    box = fp.cuts(alpha, names)
    kernel = _make_kernel(fp, metric)

    corners = [p for p in _corner_points(box) if _feasible(fp, p)]
    if not corners:
        raise SolverError(
            f"no feasible point in the alpha={alpha} box under the standby "
            f"rate constraint"
        )
    evaluated = [(kernel(p), p) for p in corners]
    best_min = min(evaluated, key=lambda vp: vp[0])
    best_max = max(evaluated, key=lambda vp: vp[0])

    free_idx = [
        i for i, name in enumerate(names) if box[name].width > _DEGENERATE_WIDTH
    ]
    if not free_idx:
        value, point = evaluated[0]
        return BoundsResult(
            alpha=alpha,
            box=box,
            bounds=Interval(value, value),
            argmin=dict(point),
            argmax=dict(point),
            method=BoundsMethod.CORNER_SCAN,
        )

    fixed = {
        names[i]: box[names[i]].lo for i in range(len(names)) if i not in free_idx
    }
    lo_b = np.array([box[names[i]].lo for i in free_idx])
    hi_b = np.array([box[names[i]].hi for i in free_idx])
    widths = hi_b - lo_b

    corner_starts = []
    for _, point in evaluated:
        x = np.array([point[names[i]] for i in free_idx])
        # pull exact corners slightly inside so the initial simplex is
        # not flattened against the bounds
        x = np.clip(x, lo_b + _CORNER_PULL_IN * widths, hi_b - _CORNER_PULL_IN * widths)
        corner_starts.append(x)

    rng = np.random.default_rng(seed)

    def polish(sign: float, best: tuple[float, dict[str, float]]):
        def objective(x: np.ndarray) -> float:
            point = _point_from_vector(names, free_idx, fixed, x)
            if not _feasible(fp, point):
                return _INFEASIBLE_PENALTY
            return sign * kernel(point)

        starts = corner_starts + [
            rng.uniform(lo_b, hi_b) for _ in range(_INTERIOR_STARTS)
        ]
        best_val, best_point = best
        for x0 in starts:
            res = scipy.optimize.minimize(
                objective,
                x0,
                method="Nelder-Mead",
                bounds=scipy.optimize.Bounds(lo_b, hi_b),
                options=_LOCAL_SEARCH_OPTIONS,
            )
            if res.fun >= _INFEASIBLE_PENALTY:
                continue
            value = sign * res.fun
            point = _point_from_vector(
                names, free_idx, fixed, np.clip(res.x, lo_b, hi_b)
            )
            if sign * value < sign * best_val and _feasible(fp, point):
                best_val, best_point = value, point
        return best_val, best_point

    min_val, min_point = polish(1.0, best_min)
    max_val, max_point = polish(-1.0, best_max)

    return BoundsResult(
        alpha=alpha,
        box=box,
        bounds=Interval(min_val, max_val),
        argmin=min_point,
        argmax=max_point,
        method=BoundsMethod.MULTI_START_LOCAL,
    )


def brute_force_bounds(
    fp: FuzzySystemParams, metric: Metric, alpha: float, grid_per_axis: int
) -> BoundsResult:
    """Exhaustive grid scan of the alpha-cut box, for cross-validation.

    Independent of the corner and local-search machinery on purpose; the
    grid extremes bracket the true bounds from inside.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must lie in [0, 1], got {alpha}")
    grid_per_axis = int(grid_per_axis)
    if grid_per_axis < 2:
        raise ValidationError(f"grid_per_axis must be >= 2, got {grid_per_axis}")

    names = _metric_axes(metric)
    box = fp.cuts(alpha, names)
    kernel = _make_kernel(fp, metric)

    axes = [
        np.linspace(iv.lo, iv.hi, grid_per_axis)
        if iv.width > _DEGENERATE_WIDTH
        else np.array([iv.lo])
        for iv in box.values()
    ]
    min_val = np.inf
    max_val = -np.inf
    min_point: dict[str, float] = {}
    max_point: dict[str, float] = {}
    for combo in itertools.product(*axes):
        point = {name: float(v) for name, v in zip(names, combo)}
        if not _feasible(fp, point):
            continue
        value = kernel(point)
        if value < min_val:
            min_val, min_point = value, point
        if value > max_val:
            max_val, max_point = value, point
    if not np.isfinite(min_val):
        raise SolverError(
            f"no feasible grid point in the alpha={alpha} box under the "
            f"standby rate constraint"
        )
    return BoundsResult(
        alpha=alpha,
        box=box,
        bounds=Interval(min_val, max_val),
        argmin=min_point,
        argmax=max_point,
        method=BoundsMethod.GRID_REFINE,
    )


def _validate_alpha_ladder(alphas: Sequence[float]) -> tuple[float, ...]:
    ladder = tuple(float(a) for a in alphas)
    if len(ladder) < 2:
        raise ValidationError("need at least the alpha levels 0 and 1")
    for a in ladder:
        if not 0.0 <= a <= 1.0:
            raise ValidationError(f"alpha {a} outside [0, 1]")
    for a, b in zip(ladder, ladder[1:]):
        if not a < b:
            raise ValidationError(
                f"alpha levels must strictly increase, got {a} then {b}"
            )
    if ladder[0] != 0.0 or ladder[-1] != 1.0:
        raise ValidationError("alpha levels must start at 0 and end at 1")
    return ladder


def bounds_at_levels(
    fp: FuzzySystemParams,
    metric: Metric,
    alphas: Sequence[float],
    *,
    seed: int = 0,
) -> tuple[BoundsResult, ...]:
    """characteristic_bounds across an alpha ladder, each level with the
    same seed."""
    ladder = _validate_alpha_ladder(alphas)
    return tuple(characteristic_bounds(fp, metric, a, seed=seed) for a in ladder)


def enforce_nesting(
    alphas: Sequence[float], intervals: Sequence[Interval]
) -> tuple[Interval, ...]:
    """Clamp float noise out of an interval ladder, reject real escapes.

    Bounds at a higher alpha must sit inside every lower-alpha interval.
    Escapes beyond NESTING_TOL are solver failures; smaller ones are
    squeezed so downstream consumers see exact nesting.
    """
    nested: list[Interval] = []
    for a, iv in zip(alphas, intervals):
        if not nested:
            nested.append(iv)
            continue
        prev = nested[-1]
        if iv.lo < prev.lo - NESTING_TOL or iv.hi > prev.hi + NESTING_TOL:
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


def membership_curve(
    fp: FuzzySystemParams,
    metric: Metric,
    alphas: Sequence[float],
    *,
    seed: int = 0,
) -> MembershipCurve:
    """Membership curve of a characteristic across an alpha ladder."""
    ladder = _validate_alpha_ladder(alphas)
    results = bounds_at_levels(fp, metric, ladder, seed=seed)
    intervals = enforce_nesting(ladder, [r.bounds for r in results])
    return MembershipCurve(ladder, intervals)
