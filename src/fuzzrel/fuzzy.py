"""Piecewise-linear fuzzy numbers and alpha-cut machinery.

A fuzzy parameter here is a normal, quasi-concave piecewise-linear
membership function on a bounded support: it rises from 0 to a plateau at
1 and falls back to 0. Every alpha-cut of such a shape is a closed
interval, and the cuts shrink as alpha grows, which is exactly what the
interval optimizers downstream consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

# the peak's membership in the search keys of _cut_table
_BELOW_ONE = float(np.nextafter(1.0, 0.0))

# Consecutive membership-curve rows may escape nesting by at most this
# fraction of their magnitude before construction fails; anything smaller
# is float noise. On curves whose ends stay below 10, such as the reference
# model's, that is at most 1e-9.
NESTING_TOL = 1e-10


def _require_finite(name: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise ValidationError(f"{name} must be finite, got {bad!r}")


def _midpoint(lo: float, hi: float) -> float:
    """(lo + hi) / 2, which cannot overflow: halving each end is exact."""
    return 0.5 * lo + 0.5 * hi


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] on the real line."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        _require_finite("interval endpoint", self.lo, self.hi)
        if self.lo > self.hi:
            raise ValidationError(
                f"interval lower bound {self.lo} exceeds upper bound {self.hi}"
            )

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return _midpoint(self.lo, self.hi)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, z: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= z <= self.hi + tol

    def encloses(self, other: "Interval", tol: float = 0.0) -> bool:
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol


def _escapes(inner_lo, inner_hi, outer_lo, outer_hi, rtol: float = NESTING_TOL):
    """Where [inner_lo, inner_hi] reaches outside [outer_lo, outer_hi] by
    more than rtol times the largest endpoint magnitude of the two, so that
    one tolerance serves every scale of rates; elementwise over arrays."""
    slack = rtol * np.maximum(
        np.maximum(np.abs(inner_lo), np.abs(inner_hi)),
        np.maximum(np.abs(outer_lo), np.abs(outer_hi)),
    )
    return (inner_lo < outer_lo - slack) | (inner_hi > outer_hi + slack)


def _frozen(x) -> np.ndarray:
    array = np.array(x, dtype=float, ndmin=1)
    array.flags.writeable = False
    return array


def _ladder(alphas) -> np.ndarray:
    """alphas as a read-only float array, checked to lie in [0, 1] and to
    strictly increase."""
    ladder = _frozen(alphas)
    outside = ~((0.0 <= ladder) & (ladder <= 1.0))
    if outside.any():
        raise ValidationError(f"alpha {ladder[outside][0]} outside [0, 1]")
    stalled = np.flatnonzero(~(ladder[1:] > ladder[:-1]))
    if len(stalled):
        a, b = ladder[stalled[0] : stalled[0] + 2]
        raise ValidationError(f"alpha levels must strictly increase, got {a} then {b}")
    return ladder


@dataclass(frozen=True)
class FuzzyNumber:
    """Normal quasi-concave piecewise-linear membership function.

    Stored as breakpoints (values[i], memberships[i]) with strictly
    increasing values. Membership is linearly interpolated between
    breakpoints and 0 outside the support. At least one breakpoint must
    carry membership exactly 1, the peaks must be contiguous, and the
    profile must be nondecreasing before the peak and nonincreasing after
    it.
    """

    values: tuple[float, ...]
    memberships: tuple[float, ...]

    def __post_init__(self):
        values = tuple(map(float, self.values))
        memberships = tuple(map(float, self.memberships))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "memberships", memberships)

        if len(values) == 0:
            raise ValidationError("fuzzy number needs at least one breakpoint")
        if len(values) != len(memberships):
            raise ValidationError(
                f"{len(values)} values but {len(memberships)} memberships"
            )
        _require_finite("breakpoint value", *values)
        _require_finite("membership", *memberships)
        # finite values strictly increase exactly when they are their own
        # sorted set
        if sorted(set(values)) != list(values):
            a, b = next((a, b) for a, b in zip(values, values[1:]) if not a < b)
            raise ValidationError(
                f"breakpoint values must strictly increase, got {a} then {b}"
            )
        if min(memberships) < 0.0 or max(memberships) > 1.0:
            m = next(m for m in memberships if not 0.0 <= m <= 1.0)
            raise ValidationError(f"membership {m} outside [0, 1]")
        if 1.0 not in memberships:
            raise ValidationError("membership must reach 1 somewhere (normality)")

        first = memberships.index(1.0)
        last = len(memberships) - 1 - memberships[::-1].index(1.0)
        if memberships[first : last + 1].count(1.0) != last + 1 - first:
            raise ValidationError("peak breakpoints must be contiguous")
        rising = memberships[: first + 1]
        if list(rising) != sorted(rising):
            raise ValidationError("membership must be nondecreasing before the peak")
        falling = memberships[last:]
        if list(falling) != sorted(falling, reverse=True):
            raise ValidationError("membership must be nonincreasing after the peak")

        object.__setattr__(self, "_mode", (values[first], values[last]))

    @cached_property
    def _table(self) -> _CutTable:
        """This number's cut table; built on the first cut, as most numbers
        are never cut."""
        return _cut_table((self,))

    # -- constructors ----------------------------------------------------

    @classmethod
    def trapezoidal(cls, a: float, b: float, c: float, d: float) -> "FuzzyNumber":
        """Trapezoid with support [a, d] and plateau [b, c]."""
        a, b, c, d = float(a), float(b), float(c), float(d)
        _require_finite("trapezoid node", a, b, c, d)
        if not a <= b <= c <= d:
            raise ValidationError(
                f"trapezoid nodes must be ordered a <= b <= c <= d, got "
                f"({a}, {b}, {c}, {d})"
            )
        points = [(a, 0.0), (b, 1.0), (c, 1.0), (d, 0.0)]
        merged: list[tuple[float, float]] = []
        for x, m in points:
            if merged and merged[-1][0] == x:
                merged[-1] = (x, max(merged[-1][1], m))
            else:
                merged.append((x, m))
        return cls(tuple(x for x, _ in merged), tuple(m for _, m in merged))

    @classmethod
    def triangular(cls, a: float, b: float, c: float) -> "FuzzyNumber":
        """Triangle with support [a, c] and peak at b."""
        return cls.trapezoidal(a, b, b, c)

    @classmethod
    def crisp(cls, value: float) -> "FuzzyNumber":
        """Degenerate fuzzy number concentrated on a single value."""
        return cls((float(value),), (1.0,))

    @classmethod
    def from_breakpoints(cls, points: Iterable[tuple[float, float]]) -> "FuzzyNumber":
        pts = list(points)
        return cls(tuple(x for x, _ in pts), tuple(m for _, m in pts))

    # -- queries ----------------------------------------------------------

    @property
    def support(self) -> Interval:
        return Interval(self.values[0], self.values[-1])

    @property
    def modal_interval(self) -> Interval:
        return Interval(*self._mode)

    @property
    def is_crisp(self) -> bool:
        return len(self.values) == 1

    def membership(self, x: float) -> float:
        """Membership grade at a finite x, 0 outside the support."""
        x = float(x)
        _require_finite("query point", x)
        if self.is_crisp:
            return 1.0 if x == self.values[0] else 0.0
        if x < self.values[0] or x > self.values[-1]:
            return 0.0
        return float(np.interp(x, self.values, self.memberships))

    def alpha_cuts(self, alphas) -> np.ndarray:
        """Cuts at each of n levels, in any order, as an (n, 2) array of
        their lower and upper ends (see _cut).

        alpha = 0 gives the support, alpha = 1 the modal interval.
        """
        return _cut(self._table, alphas)[0]

    def alpha_cut(self, alpha: float) -> Interval:
        """Closed interval of points with membership >= alpha.

        alpha = 0 returns the support closure rather than the whole line.
        """
        return Interval(*self.alpha_cuts([alpha])[0])


class _CutTable(NamedTuple):
    """Segment tables of the branches of k fuzzy numbers, cut together
    by _cut."""

    levels: np.ndarray  # every branch's search keys, sorted and unique
    segments: np.ndarray  # (4, 2k, len(levels) + 1), see _cut_table
    caps: np.ndarray  # (2, 2k, 1), each branch's floor then ceiling


def _cut_table(numbers: Sequence[FuzzyNumber]) -> _CutTable:
    """The cut table of numbers, their rising then falling branch each.

    A branch's search key holds its memberships from its end towards the
    peak, the peak's 1 taken one ulp lower. A level alpha with i key
    entries below it crosses the segment in the branch's row i, (x0, m0,
    dx, dm) from the segment's left point; that is bisect_left's choice
    for every alpha below 1. Row 0 is padded to give the branch's end
    exactly (dx = -0.0 keeps even an end of -0.0), and the last row,
    which alpha = 1 alone reaches, the modal end. A flat segment, which no
    level crosses, divides by 1.

    levels is the union of the keys, so that one search of it serves
    every branch: an alpha with r levels below it has as many key entries
    below it as are at most levels[r - 1], and crosses the segment
    segments[:, b, r] of branch b.
    """
    keys, tables, caps = [], [], []
    for fz in numbers:
        vs, ms, (lo, hi) = fz.values, fz.memberships, fz._mode
        first, last = vs.index(lo), vs.index(hi)
        pairs = zip(vs, ms, vs[1:], ms[1:])
        segments = [(x0, m0, x1 - x0, (m1 - m0) or 1.0) for x0, m0, x1, m1 in pairs]
        for key, end, rows, mode in (
            (ms[:first], vs[0], segments[:first], lo),
            (ms[last + 1 :][::-1], vs[-1], segments[last:][::-1], hi),
        ):
            keys.append(np.array([*key, _BELOW_ONE]))
            tables.append(np.array([(end, 0.0, -0.0, 1.0), *rows, (mode, 0.0, -0.0, 1.0)]))
        caps += [(-np.inf, lo), (hi, np.inf)]
    levels = np.unique(np.concatenate(keys))
    below = np.concatenate([[-np.inf], levels])
    crossed = [table[key.searchsorted(below, side="right")] for key, table in zip(keys, tables)]
    return _CutTable(levels, np.stack(crossed).transpose(2, 0, 1), np.array(caps).T[..., None])


def _cut(table: _CutTable, alphas) -> np.ndarray:
    """Cuts of each number of table at each of n levels, in any order, as
    a (k, n, 2) array of their lower and upper ends.

    Each end is interpolated on the segment of its branch that the level
    crosses. Every cut contains the modal interval, and rounding in the
    interpolation is not allowed to break that.
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    inside = (0.0 <= alphas) & (alphas <= 1.0)
    if not inside.all():
        raise ValidationError(f"alpha must lie in [0, 1], got {alphas[~inside][0]}")
    x0, m0, dx, dm = table.segments[..., table.levels.searchsorted(alphas)]
    ends = x0 + (alphas - m0) * dx / dm
    # each lower end capped at its modal end from above, each upper one
    # from below; on a tie both keep end, as min(end, mode) and max(end,
    # mode) do
    floor, ceiling = table.caps
    ends = np.minimum(ceiling, np.maximum(floor, ends))
    return ends.reshape(len(ends) // 2, 2, len(alphas)).transpose(0, 2, 1)


@dataclass(frozen=True, eq=False)
class MembershipCurve:
    """Interval bounds of a derived quantity indexed by alpha level.

    Held as read-only arrays: strictly increasing alphas and the lower and
    upper ends of nested intervals at them. The curve is itself the
    sampled membership function of the derived quantity: linear
    interpolation between rows on each branch.
    """

    alphas: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        alphas, lower, upper = _ladder(self.alphas), _frozen(self.lower), _frozen(self.upper)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

        if len(alphas) == 0:
            raise ValidationError("membership curve needs at least one row")
        if not len(alphas) == len(lower) == len(upper):
            raise ValidationError(
                f"{len(alphas)} alphas but {len(lower)} lower and {len(upper)} upper ends"
            )
        faulty = np.flatnonzero(~(np.isfinite(lower) & np.isfinite(upper) & (lower <= upper)))
        if len(faulty):
            # Interval rejects the first faulty row, naming its fault
            Interval(lower[faulty[0]], upper[faulty[0]])
        escaped = np.flatnonzero(_escapes(lower[1:], upper[1:], lower[:-1], upper[:-1]))
        if len(escaped):
            k = escaped[0]
            raise ValidationError(
                f"interval at alpha={alphas[k + 1]} escapes interval at alpha={alphas[k]}: "
                f"[{lower[k + 1]}, {upper[k + 1]}] vs [{lower[k]}, {upper[k]}]"
            )

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(map(Interval, self.lower.tolist(), self.upper.tolist()))

    @property
    def support(self) -> Interval:
        return Interval(self.lower[0], self.upper[0])

    def membership_at(self, z):
        """Membership grade of z under the curve's piecewise-linear shape.

        Computed as the largest alpha whose interval contains z, which for
        nested rows equals linear interpolation on the branch z falls on.
        Points outside the lowest-alpha interval get 0, points inside the
        highest-alpha interval get that alpha (1 for a complete curve).
        z may be a float, which gives a float, or an array, which gives an
        array of the grades its elements would give one at a time.
        """
        shape = np.shape(z)
        zs = np.asarray(z, dtype=float).reshape(-1)
        if not np.isfinite(zs).all():
            _require_finite("query point", *zs.tolist())
        lows, highs, alphas = self.lower, self.upper, self.alphas
        last = len(alphas) - 1

        def branch(ends, k):
            # the grade where z meets ends between rows k and k + 1, both
            # ends on z's side, or row k's alpha where z is its end; rows
            # off the branch are clamped and their grades discarded below
            k = np.maximum(k, 0)
            k1 = np.minimum(k + 1, last)
            x0, a0 = ends[k], alphas[k]
            inner = a0 + np.abs(zs - x0) * (alphas[k1] - a0) / np.abs(ends[k1] - x0)
            return np.where(x0 == zs, a0, inner)

        with np.errstate(divide="ignore", invalid="ignore"):
            # lower branch: lows is nondecreasing; the last row whose lower
            # endpoint is still <= z is the highest alpha reached
            lower = branch(lows, np.searchsorted(lows, zs, side="right") - 1)
            # upper branch: highs is nonincreasing
            upper = branch(highs, np.searchsorted(-highs, -zs, side="right") - 1)
        grade = np.where(zs < lows[-1], lower, upper)
        grade = np.where((lows[-1] <= zs) & (zs <= highs[-1]), alphas[-1], grade)
        grade = np.where((zs < lows[0]) | (zs > highs[0]), 0.0, grade)
        return grade.reshape(shape) if shape else float(grade[0])
