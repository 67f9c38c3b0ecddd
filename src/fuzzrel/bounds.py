"""Interval bounds of system characteristics over fuzzy-rate boxes.

At each alpha level the fuzzy rates cut down to a box of crisp rate
vectors. The lower and upper bounds of a characteristic over that box
are a pair of small constrained programs; solving them across a ladder
of alpha levels traces out the membership curve of the characteristic.
A box is validated once, at its one worst corner. Under the standby
constraint theta <= lambda the feasible set is a polytope.

Every metric's bounds are found for a whole ladder in one batched pass
(_ladder_bounds), with lambda, theta and beta at proven ends and only mu
searched. Write MTBF and steady availability as num / den, the closed
forms of markov._mttf_values and markov._availability_values, with num
and den polynomials in (lambda, theta, mu, beta) whose coefficients are
polynomials in c. A partial's sign is that of num' den - num den', den^2
being positive. Expanded in the Bernstein basis on c in [0, 1], every
coefficient of those numerators has one sign (test_bounds.TestProofs
checks this with sympy):

- MTTF falls in lambda and in theta;
- availability falls in lambda and in theta and rises in beta.

R(t) falls in lambda and in theta too, at every t. With r = expm(B t) 1
the survival probabilities from UP3, UP2 and UP1 and a = 2 lambda +
theta, the gaps f = r3 - c r2 and g = r2 - c r1 obey

    f' = -(a + c mu) f + 2 c lambda g + c (1 - c) mu r2
    g' = mu f - (mu + 2 lambda) g + c lambda r1

from f(0) = g(0) = 1 - c: a cooperative system with nonnegative input,
so f, g >= 0. dR/dp is the integral over [0, t] of e_UP3^T expm(B (t -
s)) (dB/dp) r(s), with expm(B u) >= 0, and (dB/dlambda) r = -(2f, 2g,
r1), (dB/dtheta) r = -(f, 0, 0) are never positive (TestProofs checks
the identities with sympy).

These hold for all rates >= 0 and every c in [0, 1]. So each bound pins
lambda, theta and beta at the ends these signs select, the vertex method
of Dong & Shah (Fuzzy Sets Syst. 24, 1987) made exact; under theta <=
lambda the maximum moves lambda up to theta lo and the minimum theta
down to lambda hi, the polytope's vertices on theta = lambda. What is
left is one variable, mu.

For MTBF and availability the numerator of the mu derivative is a
polynomial in mu (markov._mttf_mu_slope, markov._availability_mu_slope)
whose coefficients change sign at most once, from + at the low powers to
- at the high ones; by Descartes' rule of signs each metric turns at most
once in mu, from rising to falling. The minimum then lies at an end of
the mu cut, and the maximum at an end or at that turn, which a bisection
on the slope polynomial brackets to adjacent floats. No sampling is left
to trust, and the values kernel runs once per ladder.

R(t) has no such proof in mu, and may peak inside the cut. Its mu is
found by a sign certificate (Moore, Kearfott & Cloud, Introduction to
Interval Analysis, 2009, ch. 9): one batched call gives R(t) and dR/dmu
at mu lo, the midpoint and mu hi for both points of every level. A cut
whose samples share one sign takes the end that sign selects; an open
one is halved, and each half certified by its own call, depth first.
The search is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    KernelEvaluationError,
    NestingError,
    SolverError,
    ValidationError,
)
from .fuzzy import FuzzyNumber, Interval, MembershipCurve, _escapes
from . import markov
from .markov import SystemParams

# Config-file and table names of the rate parameters, in column order.
PARAM_LAMBDA = "lambda"
PARAM_THETA = "theta"
PARAM_MU = "mu"
PARAM_BETA = "beta"
PARAMETER_NAMES = (PARAM_LAMBDA, PARAM_THETA, PARAM_MU, PARAM_BETA)

# a dR/dmu sample counts as zero when it moves R across the mu cut by less
# than this fraction of R
_ZERO_CHANGE = 1e-12


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

    The standby fails no faster than an active unit, theta <= lambda, so
    theta's alpha = 1 cut must start no higher than lambda's ends. Cuts
    nest and each holds its modal interval, so then every level has points
    where theta <= lambda, and the bounds search keeps to them: under that
    constraint the feasible set of a box is a polytope.
    """

    failure_rate: FuzzyNumber
    standby_failure_rate: FuzzyNumber
    repair_rate: FuzzyNumber
    reboot_rate: FuzzyNumber
    coverage: float

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
        # modal ends are breakpoints, not interpolated, so no slack is due
        theta = self.standby_failure_rate.modal_interval
        lam = self.failure_rate.modal_interval
        if theta.lo > lam.hi:
            raise ValidationError(
                f"standby failure rate cut exceeds failure rate cut at alpha=1: "
                f"theta starts at {theta.lo!r}, above lambda's end {lam.hi!r}"
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
        return replace(self, coverage=coverage)


class BoundsMethod(Enum):
    CLOSED_FORM = "closed-form"
    CORNER_SCAN = "corner-scan"
    SUBDIVISION = "subdivision"
    GRID_REFINE = "grid-refine"


@dataclass(frozen=True)
class BoundsResult:
    """Bounds of one characteristic over one alpha-cut box.

    lambda, theta and beta are pinned by proof for every metric, so
    open_axes is () or ("mu",). For MTBF and availability it is ("mu",)
    where the maximum lies inside the mu cut, at the metric's one turn in
    mu, and method is CLOSED_FORM. For R(t) it is ("mu",) where the sign
    certificate left either bound's mu cut open, which subdivision then
    halved (method SUBDIVISION), and () where both closed at once
    (CORNER_SCAN).
    """

    alpha: float
    box: dict[str, Interval]
    bounds: Interval
    argmin: dict[str, float]
    argmax: dict[str, float]
    method: BoundsMethod
    open_axes: tuple[str, ...] = ()


def _metric_axes(metric: Metric) -> tuple[str, ...]:
    names = (PARAM_LAMBDA, PARAM_THETA, PARAM_MU)
    if metric.uses_reboot_rate:
        names += (PARAM_BETA,)
    return names


def _rate_vectors(fp: FuzzySystemParams, points: np.ndarray) -> np.ndarray:
    """Raw rate vectors (lambda, theta, mu, c, beta) of stacked box points.

    points has one column per metric axis, in _metric_axes order. beta
    does not enter first-passage metrics; any valid value fills it.
    """
    rates = np.empty((len(points), 5))
    rates[:, :3] = points[:, :3]
    rates[:, 3] = fp.coverage
    rates[:, 4] = (
        points[:, 3]
        if points.shape[1] > 3
        else fp.reboot_rate.modal_interval.midpoint
    )
    return rates


def _point(names: Sequence[str], row: np.ndarray) -> dict[str, float]:
    return {n: float(x) for n, x in zip(names, row)}


def _box_values(
    fp: FuzzySystemParams, metric: Metric, points: np.ndarray
) -> np.ndarray:
    """The metric at stacked points of a valid box, in one values-kernel
    call; only brute_force_bounds, the search's reference, uses it."""
    rates = _rate_vectors(fp, points)
    if metric.kind == "mtbf":
        return markov._mttf_values(rates)
    if metric.kind == "availability":
        return markov._availability_values(rates)
    return markov._reliability_values(rates, metric.t)


def _cut_by_standby(box: dict[str, Interval]) -> bool:
    """Whether theta <= lambda removes part of the box."""
    return box[PARAM_THETA].hi > box[PARAM_LAMBDA].lo


def _axis_values(box: dict[str, Interval], per_axis: int) -> list[np.ndarray]:
    return [
        np.linspace(iv.lo, iv.hi, per_axis) if iv.lo < iv.hi else np.array([iv.lo])
        for iv in box.values()
    ]


def _feasible_points(box: dict[str, Interval], per_axis: int) -> np.ndarray:
    """Lattice points of the box, per_axis values on each free axis, as rows.

    When the standby constraint cuts the box, the points with theta above
    lambda give way to the polytope's vertices on theta = lambda, combined
    with the lattice of the other axes.
    """
    axes = _axis_values(box, per_axis)
    points = np.array(list(itertools.product(*axes)))
    if not _cut_by_standby(box):
        return points
    points = points[points[:, 1] <= points[:, 0]]
    lam, theta = box[PARAM_LAMBDA], box[PARAM_THETA]
    lo, hi = max(lam.lo, theta.lo), min(lam.hi, theta.hi)
    diagonal = [
        (t, t, *rest)
        for t in ({lo, hi} if lo <= hi else ())
        for rest in itertools.product(*axes[2:])
    ]
    return np.unique(np.vstack([points, np.reshape(diagonal, (-1, len(box)))]), axis=0)


def _describe_box(box: dict[str, Interval]) -> str:
    return ", ".join(f"{n} in [{iv.lo:.17g}, {iv.hi:.17g}]" for n, iv in box.items())


def _boxes(
    fp: FuzzySystemParams, metric: Metric, alphas: Sequence[float]
) -> list[dict[str, Interval]]:
    """The alpha-cut boxes of the metric's axes at each level, validated.

    The cuts lie inside supports that FuzzySystemParams validated, and
    every box has its corner (lambda hi, theta lo) on the feasible side of
    theta <= lambda, so the only rule left is availability's repair
    (markov._rates). The cuts nest, so one corner of the first box decides
    every level: (lambda hi, theta lo, mu lo, beta lo). A failing corner
    raises KernelEvaluationError naming it, and every point inside the
    boxes is evaluated unchecked.
    """
    names = _metric_axes(metric)
    boxes = [fp.cuts(alpha, names) for alpha in alphas]
    corner = np.array([[iv.lo for iv in boxes[0].values()]])
    corner[0, 0] = boxes[0][PARAM_LAMBDA].hi
    mode = markov.ChainMode.RELIABILITY
    if metric.uses_reboot_rate:
        mode = markov.ChainMode.AVAILABILITY
    try:
        markov._rates(SystemParams(*_rate_vectors(fp, corner)[0]), mode)
    except ValidationError as exc:
        point = _point(names, corner[0])
        raise KernelEvaluationError(
            f"{metric.describe()} failed at {point}: {exc}", point=point
        ) from exc
    return boxes


def _polyval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Polynomials with coefficients coeffs (k, ...), highest power
    first, at x, by Horner's rule."""
    value = coeffs[0]
    for coefficient in coeffs[1:]:
        value = value * x + coefficient
    return value


def _turn(coeffs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Where each polynomial of coeffs (k, N), positive at lo and negative
    at hi, changes sign: one bisection over all N at once, run until every
    bracket closes to adjacent floats, returning its low end."""
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not ((lo < mid) & (mid < hi)).any():
            return lo
        rising = _polyval(coeffs, mid) > 0.0
        lo = np.where(rising, mid, lo)
        hi = np.where(rising, hi, mid)


def _not_finite(metric: Metric, box: dict[str, Interval]) -> SolverError:
    return SolverError(
        f"{metric.describe()} is not finite on the box {_describe_box(box)}"
    )


def _mu_by_slope(
    metric: Metric, at: np.ndarray, mu_ends: np.ndarray, boxes
) -> tuple[np.ndarray, np.ndarray]:
    """MTBF or availability at each point of at (2, N, 5), the minimum's
    then the maximum's at each level, with its mu column set where the
    metric is lowest, or highest, along the level's mu cut (mu_ends, lo
    then hi), and whether each maximum lies inside the cut.

    Each metric turns at most once in mu, from rising to falling
    (markov._mttf_mu_slope, markov._availability_mu_slope). So the minimum
    lies at an end of the mu cut, and the maximum at an end or, where the
    slope is positive at mu lo and negative at mu hi, at the turn, which
    _turn brackets. One values-kernel call evaluates every candidate; ties
    keep mu lo.
    """
    n = at.shape[1]
    if metric.uses_reboot_rate:
        values_of = markov._availability_values
        slope_of = markov._availability_mu_slope
    else:
        values_of, slope_of = markov._mttf_values, markov._mttf_mu_slope
    slope = slope_of(at[1])
    at_lo, at_hi = _polyval(slope[:, None], mu_ends)
    turns = np.flatnonzero((at_lo > 0.0) & (at_hi < 0.0))
    # candidates: each point at mu lo and mu hi, then the maximum's point
    # at each turn
    ends = np.repeat(at[:, None], 2, axis=1)
    ends[..., 2] = mu_ends[None]
    rows = np.concatenate([ends.reshape(4 * n, 5), at[1, turns]])
    if len(turns):
        rows[4 * n :, 2] = _turn(slope[:, turns], *mu_ends[:, turns])
    with np.errstate(all="ignore"):
        values = values_of(rows)
    finite = np.isfinite(values)
    if not finite.all():
        levels = np.concatenate([np.tile(np.arange(n), 4), turns])
        raise _not_finite(metric, boxes[levels[~finite][0]])

    # the better end of each cut, mu lo on a tie, then any better turn
    at_ends = values[: 4 * n].reshape(2, 2, n)
    signs = np.array([[-1.0], [1.0]])
    upper = signs * at_ends[:, 1] > signs * at_ends[:, 0]
    best = np.where(upper, at_ends[:, 1], at_ends[:, 0])
    at[..., 2] = np.where(upper, mu_ends[1], mu_ends[0])
    inside = np.zeros(n, dtype=bool)
    if len(turns):
        inside[turns] = values[4 * n :] > best[1, turns]
        best[1, inside] = values[4 * n :][inside[turns]]
        at[1, inside, 2] = rows[4 * n :, 2][inside[turns]]
    return best, inside


def _mu_lattice(at: np.ndarray, lo, hi) -> np.ndarray:
    """Rows (..., 3, 5) of the points at (..., 5) with mu at lo, the
    midpoint and hi."""
    rows = np.repeat(at[..., None, :], 3, axis=-2)
    rows[..., 2] = np.stack(np.broadcast_arrays(lo, 0.5 * (lo + hi), hi), axis=-1)
    return rows


def _mu_samples(
    metric: Metric, rows: np.ndarray, boxes: Sequence[dict[str, Interval]]
) -> tuple[np.ndarray, np.ndarray]:
    """R(t) and dR/dmu at rows (..., N, 3, 5), mu samples in the cuts of
    the N boxes, in one sensitivity call. A call that fails or gives a
    value that is not finite raises SolverError naming the box."""
    try:
        with np.errstate(all="ignore"):
            values, partials = markov._reliability_sensitivities(
                rows.reshape(-1, 5), metric.t
            )
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"{metric.describe()} sensitivities failed on the box "
            f"{_describe_box(boxes[0])}: {exc}"
        ) from exc
    shape = rows.shape[:-1]
    values, partials = values.reshape(shape), partials.reshape(shape)
    finite = np.isfinite(values) & np.isfinite(partials)
    if not finite.all():
        levels = np.broadcast_to(np.arange(len(boxes))[:, None], shape)
        raise _not_finite(metric, boxes[levels[~finite][0]])
    return values, partials


def _mu_signs(values: np.ndarray, partials: np.ndarray, width) -> np.ndarray:
    """The one sign of dR/dmu over each set of samples (last axis), 0 if
    all are zero, or NaN, open, if they differ. A sample is zero when its
    change across the mu cut, width wide, is below 1e-12 of R."""
    change = np.abs(partials) * np.expand_dims(width, -1)
    nonzero = change > _ZERO_CHANGE * np.abs(values)
    rising = (nonzero & (partials > 0.0)).any(axis=-1)
    falling = (nonzero & (partials < 0.0)).any(axis=-1)
    return np.where(rising & falling, np.nan, rising * 1.0 - falling)


def _mu_extreme(
    metric: Metric,
    rows: np.ndarray,
    values: np.ndarray,
    partials: np.ndarray,
    sign: float,
    box: dict[str, Interval],
) -> tuple[float, float]:
    """Largest sign * R(t) along a mu cut, and the mu that takes it, from
    R and dR/dmu sampled at rows (3, 5), a _mu_lattice of the cut.

    Where the partials share one sign R is monotone on the cut, and the
    end that sign selects is taken, mu lo where R is flat. Otherwise the
    best sample stands until a half of the cut, sampled and searched the
    same way, does better; the halves are searched depth first. Recursion
    stops where the certificate closes, which its relative zero test
    ensures near a smooth optimum, or where the midpoint no longer splits
    the cut (Moore, Kearfott & Cloud, Introduction to Interval Analysis,
    2009, ch. 9).
    """
    mus = rows[:, 2]
    lo, mid, hi = mus
    slope = _mu_signs(values, partials, hi - lo)
    if not np.isnan(slope):
        k = 2 if slope * sign > 0 else 0
        return float(values[k]), float(mus[k])
    k = int(np.argmax(sign * values))
    best = float(values[k]), float(mus[k])
    if not lo < mid < hi:
        return best
    for half in ((lo, mid), (mid, hi)):
        half_rows = _mu_lattice(rows[0], *half)
        (half_values,), (half_partials,) = _mu_samples(metric, half_rows[None], [box])
        found = _mu_extreme(metric, half_rows, half_values, half_partials, sign, box)
        if sign * found[0] > sign * best[0]:
            best = found
    return best


def _mu_by_certificate(
    metric: Metric, at: np.ndarray, mu_ends: np.ndarray, boxes
) -> tuple[np.ndarray, np.ndarray]:
    """R(t) at each point of at (2, N, 5), the minimum's then the
    maximum's at each level, with its mu column set where R is lowest, or
    highest, along the level's mu cut (mu_ends, lo then hi), and whether
    the certificate left either point's cut open.

    One batched sensitivity call gives R and dR/dmu at mu lo, the
    midpoint and mu hi for both points of every level; _mu_extreme takes
    each cut from there, with one more call per half of an open one.
    """
    rows = _mu_lattice(at, *mu_ends)
    values, partials = _mu_samples(metric, rows, boxes)
    best = np.empty(at.shape[:2])
    for k, i in np.ndindex(best.shape):
        samples = rows[k, i], values[k, i], partials[k, i]
        best[k, i], at[k, i, 2] = _mu_extreme(metric, *samples, 2 * k - 1, boxes[i])
    opened = np.isnan(_mu_signs(values, partials, mu_ends[1] - mu_ends[0]))
    return best, opened.any(axis=0)


def _ladder_bounds(
    fp: FuzzySystemParams, metric: Metric, alphas: Sequence[float]
) -> tuple[BoundsResult, ...]:
    """Bounds of a metric at every level of a ladder, in one pass.

    The boxes are validated at one corner (_boxes). Then, for every level
    at once, lambda and theta sit at proven ends, and beta too for
    availability (see the module docstring). The maximum takes lambda =
    max(lambda lo, theta lo), theta lo and beta hi; the minimum lambda hi,
    theta = min(theta hi, lambda hi) and beta lo. Where theta <= lambda
    does not cut the box these are box corners. Only mu is left: MTBF and
    availability find it in closed form (_mu_by_slope), R(t) by a sign
    certificate (_mu_by_certificate). A value that is not finite raises
    SolverError naming its box.
    """
    names = _metric_axes(metric)
    boxes = _boxes(fp, metric, alphas)
    # ends[end, axis, level], end 0 the cut's lower end
    ends = np.array([[(iv.lo, iv.hi) for iv in box.values()] for box in boxes]).T
    (lam_lo, theta_lo), (lam_hi, theta_hi) = ends[:, :2]
    # rows of the minimum's point, then of the maximum's; mu is searched
    at = np.empty((2, len(boxes), 5))
    at[0, :, 0], at[0, :, 1] = lam_hi, np.minimum(theta_hi, lam_hi)
    at[1, :, 0], at[1, :, 1] = np.maximum(lam_lo, theta_lo), theta_lo
    at[:, :, 3] = fp.coverage
    if metric.uses_reboot_rate:
        at[:, :, 4] = ends[:, 3]
    else:
        at[:, :, 4] = fp.reboot_rate.modal_interval.midpoint
    if metric.kind == "reliability":
        values, searched = _mu_by_certificate(metric, at, ends[:, 2], boxes)
        methods = (BoundsMethod.CORNER_SCAN, BoundsMethod.SUBDIVISION)
    else:
        values, searched = _mu_by_slope(metric, at, ends[:, 2], boxes)
        methods = (BoundsMethod.CLOSED_FORM, BoundsMethod.CLOSED_FORM)

    values, searched = values.tolist(), searched.tolist()
    points = at[..., [0, 1, 2, 4][: len(names)]].tolist()
    return tuple(
        BoundsResult(
            alpha=float(alpha),
            box=box,
            bounds=Interval(values[0][i], values[1][i]),
            argmin=dict(zip(names, points[0][i])),
            argmax=dict(zip(names, points[1][i])),
            method=methods[searched[i]],
            open_axes=(PARAM_MU,) if searched[i] else (),
        )
        for i, (alpha, box) in enumerate(zip(alphas, boxes))
    )


def characteristic_bounds(
    fp: FuzzySystemParams, metric: Metric, alpha: float
) -> BoundsResult:
    """Lower and upper bounds of a characteristic over one alpha-cut box:
    the one-level case of _ladder_bounds. The box is validated at its one
    worst corner (_boxes); lambda, theta and beta sit at proven ends, and mu
    is found in closed form for MTBF and availability and by a sign
    certificate for R(t). The result is deterministic.
    """
    return _ladder_bounds(fp, metric, (alpha,))[0]


def brute_force_bounds(
    fp: FuzzySystemParams, metric: Metric, alpha: float, grid_per_axis: int
) -> BoundsResult:
    """Exhaustive grid scan of the alpha-cut box, for cross-validation.

    Independent of the proven ends and the mu search on purpose; the grid
    extremes bracket the true bounds from inside.
    """
    grid_per_axis = int(grid_per_axis)
    if grid_per_axis < 2:
        raise ValidationError(f"grid_per_axis must be >= 2, got {grid_per_axis}")
    (box,) = _boxes(fp, metric, (alpha,))
    points = _feasible_points(box, grid_per_axis)
    values = _box_values(fp, metric, points)
    lo, hi = np.argmin(values), np.argmax(values)
    return BoundsResult(
        alpha=float(alpha),
        box=box,
        bounds=Interval(values[lo], values[hi]),
        argmin=_point(box, points[lo]),
        argmax=_point(box, points[hi]),
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
    fp: FuzzySystemParams, metric: Metric, alphas: Sequence[float]
) -> tuple[BoundsResult, ...]:
    """characteristic_bounds across an alpha ladder, every level in one
    pass (_ladder_bounds)."""
    return _ladder_bounds(fp, metric, _validate_alpha_ladder(alphas))


def enforce_nesting(
    alphas: Sequence[float], intervals: Sequence[Interval]
) -> tuple[Interval, ...]:
    """Clamp float noise out of an interval ladder, reject real escapes.

    Bounds at a higher alpha must sit inside every lower-alpha interval.
    Escapes beyond NESTING_TOL of the intervals' magnitude are solver
    failures; smaller ones are squeezed so downstream consumers see exact
    nesting.
    """
    nested: list[Interval] = []
    for a, iv in zip(alphas, intervals):
        if not nested:
            nested.append(iv)
            continue
        prev = nested[-1]
        if _escapes(iv, prev):
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
    fp: FuzzySystemParams, metric: Metric, alphas: Sequence[float]
) -> MembershipCurve:
    """Membership curve of a characteristic across an alpha ladder."""
    results = bounds_at_levels(fp, metric, alphas)
    ladder = [r.alpha for r in results]
    intervals = enforce_nesting(ladder, [r.bounds for r in results])
    return MembershipCurve(ladder, intervals)
