"""Reference values for the benchmark's correctness checks.

Written from the model's definition alone and sharing no code with
fuzzrel, so a defect in the package cannot hide in its own reference:

- MTTF of the six-state chain in closed form;
- steady availability from a least-squares solve of pi Q = 0, sum pi = 1;
- R(t) as the up-mass of expm(Q_T t) on the three up states;
- bounds over an alpha-cut box by enumerating the vertices of the
  feasible set. With the standby coupling theta <= lambda the feasible
  set is a polytope, and its vertices on the edge theta = lambda are
  listed as well as the feasible box corners.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg

UP3, UP2, UP1, EXHAUSTED, UNSAFE1, UNSAFE2 = range(6)


def mttf(lam: float, theta: float, mu: float, c: float) -> float:
    """Mean time to first failure from UP3, by eliminating m[UP1] and m[UP2].

    Every term of the numerator and denominator is nonnegative, so the
    form loses no precision to cancellation at any rate scale.
    """
    full_load = 2.0 * lam + theta
    d = mu * mu + (3.0 - 2.0 * c) * lam * mu + 2.0 * lam * lam
    n1 = mu + lam + 2.0 * c * lam
    den = (1.0 - c) * (mu * mu + 3.0 * lam * mu) + 2.0 * lam * lam
    return (d / full_load + c * n1) / den


def generator(lam, theta, mu, c, beta, *, repairable: bool) -> np.ndarray:
    """6x6 generator; repairable adds the reboot and exhaustion-repair paths."""
    q = np.zeros((6, 6))
    full_load = 2.0 * lam + theta
    q[UP3, UP2] = c * full_load
    q[UP3, UNSAFE1] = (1.0 - c) * full_load
    q[UP2, UP3] = mu
    q[UP2, UP1] = 2.0 * c * lam
    q[UP2, UNSAFE2] = 2.0 * (1.0 - c) * lam
    q[UP1, UP2] = mu
    q[UP1, EXHAUSTED] = lam
    if repairable:
        q[UNSAFE1, UP3] = beta
        q[UNSAFE2, UP2] = beta
        q[EXHAUSTED, UP1] = mu
    q[np.diag_indices(6)] = -q.sum(axis=1)
    return q


def availability(lam, theta, mu, c, beta) -> float:
    q = generator(lam, theta, mu, c, beta, repairable=True)
    lhs = np.vstack([q.T, np.ones(6)])
    rhs = np.zeros(7)
    rhs[-1] = 1.0
    pi = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    return float(pi[:3].sum())


def reliability(lam, theta, mu, c, t: float) -> float:
    q = generator(lam, theta, mu, c, 1.0, repairable=False)[:3, :3]
    return float(scipy.linalg.expm(q * t)[0].sum())


def trapezoid_cut(nodes, alpha: float) -> tuple[float, float]:
    a, b, c, d = nodes
    return a + alpha * (b - a), d - alpha * (d - c)


def cut(value, alpha: float) -> tuple[float, float]:
    """Alpha-cut of a model-file rate: a scalar or a 4-node trapezoid."""
    if isinstance(value, (int, float)):
        return float(value), float(value)
    return trapezoid_cut(value, alpha)


def feasible_points(lam_iv, theta_iv, coupled: bool) -> list[tuple[float, float]]:
    """Vertices of {lambda in lam_iv, theta in theta_iv, theta <= lambda if coupled}."""
    corners = list(itertools.product(lam_iv, theta_iv))
    if not coupled:
        return corners
    points = [(la, th) for la, th in corners if th <= la]
    lo, hi = max(lam_iv[0], theta_iv[0]), min(lam_iv[1], theta_iv[1])
    for x in (lam_iv[0], lam_iv[1], theta_iv[0], theta_iv[1]):
        if lo <= x <= hi:
            points.append((x, x))
    return points


def bounds(model: dict, metric: str, alpha: float, *, t: float | None = None
           ) -> tuple[float, float]:
    """Min and max of a metric over the alpha-cut feasible set of a model file."""
    c = model["c"]
    coupled = bool(model.get("solver", {}).get("enforce_standby_slower", False))
    lam_theta = feasible_points(
        cut(model["lambda"], alpha), cut(model["theta"], alpha), coupled
    )
    mus = cut(model["mu"], alpha)
    betas = cut(model["beta"], alpha)
    values = []
    for (lam, theta), mu, beta in itertools.product(lam_theta, mus, betas):
        if metric == "mtbf":
            values.append(mttf(lam, theta, mu, c))
        elif metric == "availability":
            values.append(availability(lam, theta, mu, c, beta))
        else:
            values.append(reliability(lam, theta, mu, c, t))
    return min(values), max(values)
