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
once in mu, from rising to falling.

R(t) is taken to turn at most once in mu too, from rising to falling,
but that is not proven: it is evidenced by a derandomized property over
wide rates, coverages and mission times
(test_bounds.TestReliabilityTurn), along which dR/dmu never changes sign
twice, nor from - to +. Two routes to a proof are open: the derivative
in mu of the cooperative system for f and g above, and sign regularity
(Karlin, Total Positivity, 1968).

So for every metric the minimum lies at an end of the mu cut, and the
maximum at an end or at the turn, and one search finds them
(_mu_search). One call gives the metric at both ends of every cut, and
the sign of the maximum's slope there: the values kernel and the slope
polynomial for MTBF and availability, a sensitivity call and dR/dmu for
R(t). Each bound takes the better end. Where the maximum's slope is not
negative at mu lo and negative at mu hi, one bisection (_bisect), moved
by the slope's sign at each midpoint, brackets the turn: to adjacent
floats for the polynomials and, for R(t), with one sensitivity call per
round until R is flat across a bracket. One values-kernel call evaluates
the turns. No sampling is left to trust,
and the search is deterministic.

Every kernel call of the search, and of calibration (decision), passes
one guard (_checked): the first row whose value is not finite raises
KernelEvaluationError naming that row's point, as the box's corner
check names its corner (_kernel_error).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    KernelEvaluationError,
    NestingError,
    SolverError,
    UnknownParameterError,
    ValidationError,
)
from .fuzzy import (
    FuzzyNumber,
    Interval,
    MembershipCurve,
    _cut,
    _cut_table,
    _CutTable,
    _escapes,
    _ladder,
    _midpoint,
)
from . import markov
from .markov import SystemParams

# Config-file and table names of the rate parameters, in column order.
PARAM_LAMBDA = "lambda"
PARAM_THETA = "theta"
PARAM_MU = "mu"
PARAM_BETA = "beta"
PARAMETER_NAMES = (PARAM_LAMBDA, PARAM_THETA, PARAM_MU, PARAM_BETA)

# a change of R counts as zero when it is at most this fraction of R: the
# change that a dR/dmu sample makes across the mu cut or the bisection's
# bracket, or the gain of R from mu lo to mu hi
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
        if self.failure_rate.values[0] <= 0.0:
            raise ValidationError("failure_rate support must be strictly positive")
        if self.repair_rate.values[0] < 0.0:
            # zero is allowed for first-passage work; availability kernels
            # reject it at evaluation time
            raise ValidationError("repair_rate support must be >= 0")
        if self.reboot_rate.values[0] <= 0.0:
            raise ValidationError("reboot_rate support must be strictly positive")
        if self.standby_failure_rate.values[0] < 0.0:
            raise ValidationError("standby_failure_rate support must be >= 0")
        # modal ends are breakpoints, not interpolated, so no slack is due
        theta_lo = self.standby_failure_rate._mode[0]
        lam_hi = self.failure_rate._mode[1]
        if theta_lo > lam_hi:
            raise ValidationError(
                f"standby failure rate cut exceeds failure rate cut at alpha=1: "
                f"theta starts at {theta_lo!r}, above lambda's end {lam_hi!r}"
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
            raise UnknownParameterError(
                f"unknown parameter name {name!r}, the model has {PARAMETER_NAMES}"
            ) from None

    @cached_property
    def _cut_table(self) -> _CutTable:
        return _cut_table([self.fuzzy_by_name(name) for name in PARAMETER_NAMES])

    def cuts(self, alphas) -> np.ndarray:
        """Cuts of the rates, in PARAMETER_NAMES order, at each level of
        alphas, in any order, as a (rate, level, 2) array of their lower
        and upper ends, every rate cut in one batched step."""
        return _cut(self._cut_table, alphas)

    def modal_params(self) -> SystemParams:
        """Crisp reduction: midpoint of each alpha = 1 cut."""
        return SystemParams(
            failure_rate=_modal_midpoint(self.failure_rate),
            standby_failure_rate=_modal_midpoint(self.standby_failure_rate),
            repair_rate=_modal_midpoint(self.repair_rate),
            coverage=self.coverage,
            reboot_rate=_modal_midpoint(self.reboot_rate),
        )

    def with_coverage(self, coverage: float) -> "FuzzySystemParams":
        """The same rates at another coverage. The cut table depends on
        the rates alone, so the copy shares it."""
        copy = replace(self, coverage=coverage)
        vars(copy)["_cut_table"] = self._cut_table
        return copy


@dataclass(frozen=True)
class BoundsResult:
    """Bounds of one characteristic over one alpha-cut box.

    lambda, theta and beta are pinned by proof for every metric, so
    open_axes is () or ("mu",): ("mu",) where the maximum lies inside the
    mu cut, at the metric's one turn in mu.
    """

    alpha: float
    box: dict[str, Interval]
    bounds: Interval
    argmin: dict[str, float]
    argmax: dict[str, float]
    open_axes: tuple[str, ...] = ()


class _Ladder(NamedTuple):
    """Bounds of a metric across a ladder of levels, as arrays."""

    cuts: np.ndarray  # (axis, level, 2), each axis's cut, lo then hi
    bounds: np.ndarray  # (2, level), the minimum then the maximum
    points: np.ndarray  # (2, level, axis), where each bound is taken
    searched: np.ndarray  # (level,), whether the maximum lies at mu's turn


def _modal_midpoint(fz: FuzzyNumber) -> float:
    return _midpoint(*fz._mode)


def _metric_axes(metric: Metric) -> tuple[str, ...]:
    return PARAMETER_NAMES[: 4 if metric.uses_reboot_rate else 3]


def _rate_vectors(fp: FuzzySystemParams, points: np.ndarray) -> np.ndarray:
    """Raw rate vectors (lambda, theta, mu, c, beta) of stacked box points.

    points has one column per metric axis, in _metric_axes order. beta
    does not enter first-passage metrics; any valid value fills it.
    """
    rates = np.empty((len(points), 5))
    rates[:, :3] = points[:, :3]
    rates[:, 3] = fp.coverage
    rates[:, 4] = points[:, 3] if points.shape[1] > 3 else _modal_midpoint(fp.reboot_rate)
    return rates


def _point(names: Sequence[str], row: np.ndarray) -> dict[str, float]:
    return {n: float(x) for n, x in zip(names, row)}


def _box(metric: Metric, cuts: np.ndarray) -> dict[str, Interval]:
    """The box of one level, from its cuts (axis, 2)."""
    return dict(zip(_metric_axes(metric), map(Interval, *cuts.T.tolist())))


def _kernel_error(metric: Metric, row: np.ndarray, cause) -> KernelEvaluationError:
    """The error of a metric that failed at a rate row (5,), naming the
    row's point on the metric's axes."""
    point = _point(_metric_axes(metric), row[[0, 1, 2, 4]])
    return KernelEvaluationError(f"{metric.describe()} failed at {point}: {cause}", point=point)


def _boxes(fp: FuzzySystemParams, metric: Metric, alphas: np.ndarray) -> np.ndarray:
    """The alpha-cut boxes of the metric's axes at each level, validated:
    their cuts (axis, level, 2), lo then hi.

    The cuts lie inside supports that FuzzySystemParams validated, and
    every box has its corner (lambda hi, theta lo) on the feasible side of
    theta <= lambda, so the only rule left is availability's repair
    (markov._rates). The cuts nest, so one corner of the lowest level's box
    decides every level: (lambda hi, theta lo, mu lo, beta lo). A failing
    corner raises KernelEvaluationError naming it, and every point inside
    the boxes is evaluated unchecked.
    """
    cuts = fp.cuts(alphas)[: len(_metric_axes(metric))]
    lowest = alphas.argmin()
    corner = cuts[None, :, lowest, 0].copy()
    corner[0, 0] = cuts[0, lowest, 1]
    row = _rate_vectors(fp, corner)[0]
    modes = markov.ChainMode
    mode = modes.AVAILABILITY if metric.uses_reboot_rate else modes.RELIABILITY
    try:
        markov._rates(SystemParams(*row), mode)
    except ValidationError as exc:
        raise _kernel_error(metric, row, exc) from exc
    return cuts


def _polyval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Polynomials with coefficients coeffs (k, ...), highest power
    first, at x, by Horner's rule."""
    value = coeffs[0]
    for coefficient in coeffs[1:]:
        value = value * x + coefficient
    return value


def _checked(metric: Metric, kernel, rows: np.ndarray, *args):
    """kernel(rows, *args), one kernel call at rows (m, 5) that gives the
    metric, or the metric and its partial, as arrays (m,). A LinAlgError,
    which names no row, raises SolverError; the first row where an array
    is not finite raises KernelEvaluationError naming its point
    (_kernel_error)."""
    try:
        with np.errstate(all="ignore"):
            found = kernel(rows, *args)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{metric.describe()} failed: {exc}") from exc
    finite = np.isfinite(np.atleast_2d(found)).all(axis=0)
    if not finite.all():
        raise _kernel_error(metric, rows[finite.argmin()], "a value is not finite")
    return found


def _values(metric: Metric, rows: np.ndarray) -> np.ndarray:
    """The metric at rows (m, 5) in one values-kernel call (_checked)."""
    if metric.kind == "reliability":
        return _checked(metric, markov._reliability_values, rows, metric.t)
    kernel = markov._availability_values if metric.uses_reboot_rate else markov._mttf_values
    return _checked(metric, kernel, rows)


def _sensitivities(metric: Metric, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R(t) and dR/dmu at rows (m, 5) in one sensitivity call (_checked)."""
    return _checked(metric, markov._reliability_sensitivities, rows, metric.t)


def _mu_sign(values, partials, width, r_hi) -> np.ndarray:
    """The sign of dR/dmu at each sample, 0 where R is flat: where the
    slope moves R across width by at most _ZERO_CHANGE of R. A flat sample
    that R climbs from by more than that to r_hi, R at mu hi, counts as
    rising: R has underflowed there, and rises further up the cut."""
    change = _ZERO_CHANGE * np.abs(values)
    moves = np.abs(partials) * width > change
    return np.where(moves, np.sign(partials), 1.0 * (r_hi - values > change))


def _slope_moves(coeffs: np.ndarray, mid: np.ndarray, *bracket) -> tuple:
    """Where the slope polynomials with coefficients coeffs (k, ...) rise
    at mid, and where they do not: a bisection moves up where they are
    positive and down elsewhere, at an exact 0 too."""
    rising = _polyval(coeffs, mid) > 0.0
    return rising, ~rising


def _reliability_moves(
    metric: Metric, at: np.ndarray, r_hi: np.ndarray,
    mid: np.ndarray, split: np.ndarray, lo: np.ndarray, hi: np.ndarray,
) -> tuple:
    """Where R(t) rises at mid, and where it falls, for the points at (m,
    5), which take R r_hi at mu hi: the sign of dR/dmu (_mu_sign) where
    mid splits its bracket [lo, hi], in one sensitivity call. Where R is
    flat, or mid does not split, both."""
    rows = at[split]
    rows[:, 2] = mid[split]
    values, partials = _sensitivities(metric, rows)
    slope = np.zeros(len(mid))
    slope[split] = _mu_sign(values, partials, (hi - lo)[split], r_hi[split])
    return slope >= 0.0, slope <= 0.0


def _bisect(moves, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Where each slope, rising at lo and falling at hi, turns: one
    bisection over every bracket at once, returning each one's low end.

    moves(mid, split, lo, hi) gives two masks: where the slope rises at
    each midpoint, so that its bracket moves up to [mid, hi], and where it
    falls, so that it moves down to [lo, mid]. They are needed only where
    split, where the midpoint splits its bracket. A bracket that moves
    both ways, where the slope is flat, closes at its midpoint. The loop
    ends when no midpoint splits its bracket, so a bracket that moves one
    way each round runs to adjacent floats. decision.invert_query runs it
    on alpha, moving up where the interval does not fit the target.
    """
    while True:
        mid = lo + 0.5 * (hi - lo)
        split = (lo < mid) & (mid < hi)
        if not split.any():
            return lo
        up, down = moves(mid, split, lo, hi)
        lo, hi = np.where(up, mid, lo), np.where(down, mid, hi)


def _mu_search(
    metric: Metric, at: np.ndarray, mu_ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The metric at each point of at (2, N, 5), the minimum's then the
    maximum's at each level, with its mu column set where the metric is
    lowest, or highest, along the level's mu cut (mu_ends, lo then hi),
    and whether each maximum lies at the turn.

    Every metric turns at most once in mu, from rising to falling (see the
    module docstring). So the minimum lies at an end of the mu cut, and
    the maximum at an end or, where its slope rises at mu lo and falls at
    mu hi, at the turn, which _bisect finds. The metric enters at one
    point, which gives the values at both ends of both points' cuts, where
    the maximum's slope rises there, the tolerance of a tie and the moves
    of the bisection:

    - MTBF and availability: one values-kernel call, and the slope
      polynomial (markov._mttf_mu_slope, markov._availability_mu_slope),
      rising where positive; its brackets run to adjacent floats;
    - R(t): one sensitivity call, and the sign of dR/dmu (_mu_sign),
      rising where not negative; one more call per round of the
      bisection, whose brackets close where R is flat.

    Each bound takes the better end, mu lo unless mu hi is better by more
    than the tolerance: 0, or for R(t) _ZERO_CHANGE of R, so that a flat R
    keeps mu lo whatever its rounding. One values-kernel call evaluates
    the turns, and a turn that beats its maximum's end replaces it.
    """
    n = at.shape[1]
    ends = np.repeat(at[None], 2, axis=0)
    ends[..., 2] = mu_ends[:, None]
    rows = ends.reshape(4 * n, 5)
    if metric.kind == "reliability":
        values, partials = _sensitivities(metric, rows)
        values, partials = values.reshape(2, 2, n), partials.reshape(2, 2, n)
        width, r_hi = mu_ends[1] - mu_ends[0], values[1, 1]
        rising = _mu_sign(values[:, 1], partials[:, 1], width, r_hi) >= 0.0
        tie = _ZERO_CHANGE * np.abs(values[0])

        def moves(turns):
            return partial(_reliability_moves, metric, at[1, turns], r_hi[turns])

    else:
        values = _values(metric, rows).reshape(2, 2, n)
        if metric.uses_reboot_rate:
            coeffs = markov._availability_mu_slope(at[1])
        else:
            coeffs = markov._mttf_mu_slope(at[1])
        rising = _polyval(coeffs[:, None], mu_ends) > 0.0
        tie = 0.0

        def moves(turns):
            return partial(_slope_moves, coeffs[:, turns])

    at_lo, at_hi = values
    upper = np.array([[-1.0], [1.0]]) * (at_hi - at_lo) > tie
    best = np.where(upper, at_hi, at_lo)
    at[..., 2] = np.where(upper, mu_ends[1], mu_ends[0])
    turns = np.flatnonzero(rising[0] & ~rising[1])
    inside = np.zeros(n, dtype=bool)
    if len(turns):
        top = at[1, turns]
        top[:, 2] = _bisect(moves(turns), *mu_ends[:, turns])
        value = _values(metric, top)
        inside[turns] = value > best[1, turns]
        best[1, inside] = value[inside[turns]]
        at[1, inside, 2] = top[inside[turns], 2]
    return best, inside


def _pinned(
    fp: FuzzySystemParams, metric: Metric, cuts: np.ndarray, coverage: float
) -> np.ndarray:
    """Rate rows (2, level, 5) of the minimum's point, then the maximum's,
    in the boxes with cuts (axis, level, 2), at a coverage, with mu at the
    lower end of its cut.

    lambda and theta sit at proven ends, and beta too for availability
    (see the module docstring). The maximum takes lambda = max(lambda lo,
    theta lo), theta lo and beta hi; the minimum lambda hi, theta =
    min(theta hi, lambda hi) and beta lo. Where theta <= lambda does not
    cut the box these are box corners. The coverage moves neither point.
    """
    # ends[end, axis, level], end 0 the cut's lower end
    ends = cuts.transpose(2, 0, 1)
    (lam_lo, theta_lo), (lam_hi, theta_hi) = ends[:, :2]
    at = np.empty((2, cuts.shape[1], 5))
    at[0, :, 0], at[0, :, 1] = lam_hi, np.minimum(theta_hi, lam_hi)
    at[1, :, 0], at[1, :, 1] = np.maximum(lam_lo, theta_lo), theta_lo
    at[:, :, 2] = ends[0, 2]
    at[:, :, 3] = coverage
    if metric.uses_reboot_rate:
        at[:, :, 4] = ends[:, 3]
    else:
        at[:, :, 4] = _modal_midpoint(fp.reboot_rate)
    return at


def _search(
    fp: FuzzySystemParams, metric: Metric, cuts: np.ndarray, coverage: float
) -> _Ladder:
    """Bounds of a metric in the validated boxes with cuts (axis, level,
    2), from _boxes, at a coverage, for every level at once.

    lambda, theta and beta are pinned (_pinned). Only mu is left, at an
    end of its cut or at the metric's one turn, which one search finds
    for every metric (_mu_search): the sign of the slope polynomial
    steers it for MTBF and availability, the sign of dR/dmu for R(t). A
    value that is not finite raises KernelEvaluationError naming its
    point (_checked).
    """
    at = _pinned(fp, metric, cuts, coverage)
    values, searched = _mu_search(metric, at, cuts[2].T)
    points = at[..., [0, 1, 2, 4][: len(cuts)]]
    return _Ladder(cuts, values, points, searched)


def _ladder_bounds(
    fp: FuzzySystemParams, metric: Metric, alphas: np.ndarray
) -> _Ladder:
    """Bounds of a metric at every level of alphas, in any order, in one
    pass: the boxes are validated at one corner (_boxes) and searched
    together (_search)."""
    return _search(fp, metric, _boxes(fp, metric, alphas), fp.coverage)


def _results(metric: Metric, alphas: np.ndarray, found: _Ladder) -> tuple[BoundsResult, ...]:
    """One BoundsResult per level of a ladder's bounds."""
    names = _metric_axes(metric)
    bounds, points = found.bounds.tolist(), found.points.tolist()
    return tuple(
        BoundsResult(
            alpha=alpha,
            box=_box(metric, found.cuts[:, i]),
            bounds=Interval(bounds[0][i], bounds[1][i]),
            argmin=dict(zip(names, points[0][i])),
            argmax=dict(zip(names, points[1][i])),
            open_axes=(PARAM_MU,) if searched else (),
        )
        for i, (alpha, searched) in enumerate(zip(alphas.tolist(), found.searched.tolist()))
    )


def characteristic_bounds(
    fp: FuzzySystemParams, metric: Metric, alpha: float
) -> BoundsResult:
    """Lower and upper bounds of a characteristic over one alpha-cut box:
    the one-level case of _ladder_bounds. The box is validated at its one
    worst corner (_boxes); lambda, theta and beta sit at proven ends, and mu
    at an end of its cut or at the metric's turn, found by a bisection on
    the sign of the metric's mu slope (_mu_search). The result is
    deterministic.
    """
    alphas = np.array([float(alpha)])
    return _results(metric, alphas, _ladder_bounds(fp, metric, alphas))[0]


def _complete_ladder(alphas: Sequence[float]) -> np.ndarray:
    """alphas checked as a ladder (fuzzy._ladder) that runs from 0 to 1."""
    ladder = _ladder(alphas)
    if len(ladder) < 2 or ladder[0] != 0.0 or ladder[-1] != 1.0:
        raise ValidationError("alpha levels must start at 0 and end at 1")
    return ladder


def bounds_at_levels(
    fp: FuzzySystemParams, metric: Metric, alphas: Sequence[float]
) -> tuple[BoundsResult, ...]:
    """characteristic_bounds across an alpha ladder, every level in one
    pass (_ladder_bounds)."""
    ladder = _complete_ladder(alphas)
    return _results(metric, ladder, _ladder_bounds(fp, metric, ladder))


def enforce_nesting(
    alphas: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Clamp float noise out of an interval ladder, reject real escapes.

    Bounds at a higher alpha must sit inside every lower-alpha interval.
    Escapes beyond NESTING_TOL of the intervals' magnitude are solver
    failures; smaller ones are squeezed so downstream consumers see exact
    nesting. Returns the clamped lower and upper ends: the running maximum
    of the lower ends and the running minimum of the upper ones.
    """
    lows = np.maximum.accumulate(lower)
    highs = np.minimum.accumulate(upper)
    # each row against the clamped row below it
    escaped = _escapes(lower[1:], upper[1:], lows[:-1], highs[:-1])
    collapsed = lows[1:] > highs[1:]
    bad = np.flatnonzero(escaped | collapsed)
    if len(bad):
        k = bad[0] + 1
        if escaped[k - 1]:
            raise NestingError(
                f"bounds at alpha={alphas[k]:g} escape bounds at alpha={alphas[k - 1]:g}: "
                f"[{lower[k]}, {upper[k]}] vs [{lows[k - 1]}, {highs[k - 1]}]"
            )
        raise NestingError(
            f"bounds at alpha={alphas[k]:g} collapse below width zero after nesting"
        )
    return lows, highs


def _curve(alphas: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> MembershipCurve:
    return MembershipCurve(alphas, *enforce_nesting(alphas, lower, upper))


def membership_curve(
    fp: FuzzySystemParams, metric: Metric, alphas: Sequence[float]
) -> MembershipCurve:
    """Membership curve of a characteristic across an alpha ladder."""
    ladder = _complete_ladder(alphas)
    return _curve(ladder, *_ladder_bounds(fp, metric, ladder).bounds)
