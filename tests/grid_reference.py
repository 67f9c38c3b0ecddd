"""Exhaustive grid scan of an alpha-cut box: the bounds search's reference.

It shares only the box and its validation with the search (bounds._boxes)
and evaluates the metric at lattice points with the values kernels, so it
is independent of the proven ends and the mu search on purpose. The grid
extremes bracket the true bounds from inside.
"""

import itertools

import numpy as np

from fuzzrel import Interval, ValidationError, markov
from fuzzrel.bounds import (
    PARAM_LAMBDA,
    PARAM_THETA,
    BoundsResult,
    _box,
    _boxes,
    _point,
    _rate_vectors,
)


def _box_values(fp, metric, points: np.ndarray) -> np.ndarray:
    """The metric at stacked points of a valid box, in one values-kernel
    call."""
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


def brute_force_bounds(fp, metric, alpha: float, grid_per_axis: int) -> BoundsResult:
    """Bounds of a metric over the alpha-cut box from a grid of
    grid_per_axis points per free axis, taken at the grid's extremes."""
    grid_per_axis = int(grid_per_axis)
    if grid_per_axis < 2:
        raise ValidationError(f"grid_per_axis must be >= 2, got {grid_per_axis}")
    box = _box(metric, _boxes(fp, metric, np.array([float(alpha)]))[:, 0])
    points = _feasible_points(box, grid_per_axis)
    values = _box_values(fp, metric, points)
    lo, hi = np.argmin(values), np.argmax(values)
    return BoundsResult(
        alpha=float(alpha),
        box=box,
        bounds=Interval(values[lo], values[hi]),
        argmin=_point(box, points[lo]),
        argmax=_point(box, points[hi]),
    )
