"""Piecewise-linear fuzzy numbers and alpha-cut machinery.

A fuzzy parameter here is a normal, quasi-concave piecewise-linear
membership function on a bounded support: it rises from 0 to a plateau at
1 and falls back to 0. Every alpha-cut of such a shape is a closed
interval, and the cuts shrink as alpha grows, which is exactly what the
interval optimizers downstream consume.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError

# Consecutive membership-curve rows may escape nesting by at most this
# fraction of their magnitude before construction fails; anything smaller
# is float noise. On curves whose ends stay below 10, such as the reference
# model's, that is at most 1e-9.
NESTING_TOL = 1e-10


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValidationError(f"{name} must be finite, got {v!r}")


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
        return 0.5 * (self.lo + self.hi)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, z: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= z <= self.hi + tol

    def encloses(self, other: "Interval", tol: float = 0.0) -> bool:
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol


def _escapes(inner: Interval, outer: Interval, rtol: float = NESTING_TOL) -> bool:
    """Whether inner reaches outside outer by more than rtol times the
    largest endpoint magnitude of the two, so that one tolerance serves
    every scale of rates."""
    slack = rtol * max(abs(inner.lo), abs(inner.hi), abs(outer.lo), abs(outer.hi))
    return inner.lo < outer.lo - slack or inner.hi > outer.hi + slack


def _interp_level(x0: float, m0: float, x1: float, m1: float, alpha: float) -> float:
    # invariant from the callers: m0 != m1 on the crossing segment
    return x0 + (alpha - m0) * (x1 - x0) / (m1 - m0)


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
        values = tuple(float(v) for v in self.values)
        memberships = tuple(float(m) for m in self.memberships)
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
        for a, b in zip(values, values[1:]):
            if not a < b:
                raise ValidationError(
                    f"breakpoint values must strictly increase, got {a} then {b}"
                )
        for m in memberships:
            if not 0.0 <= m <= 1.0:
                raise ValidationError(f"membership {m} outside [0, 1]")
        if 1.0 not in memberships:
            raise ValidationError("membership must reach 1 somewhere (normality)")

        first = memberships.index(1.0)
        last = len(memberships) - 1 - memberships[::-1].index(1.0)
        if any(m != 1.0 for m in memberships[first : last + 1]):
            raise ValidationError("peak breakpoints must be contiguous")
        rising = memberships[: first + 1]
        if any(a > b for a, b in zip(rising, rising[1:])):
            raise ValidationError("membership must be nondecreasing before the peak")
        falling = memberships[last:]
        if any(a < b for a, b in zip(falling, falling[1:])):
            raise ValidationError("membership must be nonincreasing after the peak")

        object.__setattr__(self, "_peak_first", first)
        object.__setattr__(self, "_peak_last", last)

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
        return Interval(self.values[self._peak_first], self.values[self._peak_last])

    @property
    def is_crisp(self) -> bool:
        return len(self.values) == 1

    def membership(self, x: float) -> float:
        """Membership grade at x, 0 outside the support."""
        x = float(x)
        if self.is_crisp:
            return 1.0 if x == self.values[0] else 0.0
        if x < self.values[0] or x > self.values[-1]:
            return 0.0
        return float(np.interp(x, self.values, self.memberships))

    def alpha_cut(self, alpha: float) -> Interval:
        """Closed interval of points with membership >= alpha.

        alpha = 0 returns the support closure rather than the whole line.
        """
        alpha = float(alpha)
        if not 0.0 <= alpha <= 1.0:
            raise ValidationError(f"alpha must lie in [0, 1], got {alpha}")
        if alpha == 0.0 or self.is_crisp:
            return self.support
        if alpha == 1.0:
            return self.modal_interval

        vs = self.values
        ms = self.memberships
        first, last = self._peak_first, self._peak_last

        if ms[0] >= alpha:
            lo = vs[0]
        else:
            # first index of the rising branch whose membership is >= alpha
            i = bisect.bisect_left(ms, alpha, 0, first + 1)
            lo = _interp_level(vs[i - 1], ms[i - 1], vs[i], ms[i], alpha)

        if ms[-1] >= alpha:
            hi = vs[-1]
        else:
            # first index from the right whose membership is >= alpha
            j = bisect.bisect_left(ms[last:][::-1], alpha)
            i = len(ms) - 1 - j
            hi = _interp_level(vs[i], ms[i], vs[i + 1], ms[i + 1], alpha)

        # every cut contains the modal interval; interpolation rounding
        # must not be allowed to break that
        lo = min(lo, vs[first])
        hi = max(hi, vs[last])
        return Interval(lo, hi)


@dataclass(frozen=True)
class MembershipCurve:
    """Interval bounds of a derived quantity indexed by alpha level.

    Rows are (alpha, [lower, upper]) with strictly increasing alphas and
    nested intervals. The curve is itself the sampled membership function
    of the derived quantity: linear interpolation between rows on each
    branch.
    """

    alphas: tuple[float, ...]
    intervals: tuple[Interval, ...]

    def __post_init__(self):
        alphas = tuple(float(a) for a in self.alphas)
        intervals = tuple(self.intervals)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "intervals", intervals)

        if len(alphas) == 0:
            raise ValidationError("membership curve needs at least one row")
        if len(alphas) != len(intervals):
            raise ValidationError(
                f"{len(alphas)} alphas but {len(intervals)} intervals"
            )
        for a in alphas:
            if not 0.0 <= a <= 1.0:
                raise ValidationError(f"alpha {a} outside [0, 1]")
        for a, b in zip(alphas, alphas[1:]):
            if not a < b:
                raise ValidationError(
                    f"alpha levels must strictly increase, got {a} then {b}"
                )
        for (a0, iv0), (a1, iv1) in zip(
            zip(alphas, intervals), zip(alphas[1:], intervals[1:])
        ):
            if _escapes(iv1, iv0):
                raise ValidationError(
                    f"interval at alpha={a1} escapes interval at alpha={a0}: "
                    f"[{iv1.lo}, {iv1.hi}] vs [{iv0.lo}, {iv0.hi}]"
                )

    @classmethod
    def from_rows(cls, rows: Iterable[tuple[float, Interval]]) -> "MembershipCurve":
        rows = list(rows)
        return cls(tuple(a for a, _ in rows), tuple(iv for _, iv in rows))

    @property
    def rows(self) -> tuple[tuple[float, Interval], ...]:
        return tuple(zip(self.alphas, self.intervals))

    @property
    def support(self) -> Interval:
        return self.intervals[0]

    def interval_at(self, alpha: float) -> Interval:
        """Interval at an alpha level, interpolated between stored rows."""
        alpha = float(alpha)
        if not self.alphas[0] <= alpha <= self.alphas[-1]:
            raise ValidationError(
                f"alpha {alpha} outside tabulated range "
                f"[{self.alphas[0]}, {self.alphas[-1]}]"
            )
        alphas = np.asarray(self.alphas)
        lows = np.asarray([iv.lo for iv in self.intervals])
        highs = np.asarray([iv.hi for iv in self.intervals])
        return Interval(
            float(np.interp(alpha, alphas, lows)),
            float(np.interp(alpha, alphas, highs)),
        )

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
        lows = np.asarray([iv.lo for iv in self.intervals])
        highs = np.asarray([iv.hi for iv in self.intervals])
        alphas = np.asarray(self.alphas)
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
