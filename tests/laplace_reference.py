"""Laplace-domain solve of the reliability chain: a cross-check on the
time-domain kernels.

It reads only the public generator (build_generator), so it shares no
kernel with the MTTF and R(t) it is held against. The transform of the
time-to-failure density carries unit mass and its negative slope at
s = 0 is the MTTF.
"""

import numpy as np

from fuzzrel import DOWN_STATES, ChainMode, SolverError, ValidationError, build_generator


def laplace_state_probs(params, s: float) -> np.ndarray:
    """Laplace transforms of the six state probabilities at one s > 0.

    The transient system dP/dt = Q^T P with all mass initially on UP3
    becomes (s I - Q^T) ptilde = P(0) under the Laplace transform. Total
    probability is conserved, so s * sum(ptilde) = 1 for every s > 0.
    """
    s = float(s)
    if not np.isfinite(s) or s <= 0.0:
        raise ValidationError(f"transform variable s must be > 0, got {s}")
    gen = build_generator(params, ChainMode.RELIABILITY)
    lhs = s * np.eye(len(gen.initial)) - gen.rates.T
    try:
        ptilde = np.linalg.solve(lhs, gen.initial)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Laplace system singular at s={s}") from exc
    residual = abs(s * ptilde.sum() - 1.0)
    if residual > 1e-8:
        raise SolverError(
            f"probability conservation violated at s={s}: residual {residual:.3e}"
        )
    return ptilde


def failure_density_laplace(params, s: float) -> float:
    """Laplace transform of the time-to-failure density at s > 0.

    Equal to s times the transformed probability of sitting in any down
    state; tends to 1 as s drops to 0 because failure is certain, and its
    negative slope at 0 is the MTTF.
    """
    ptilde = laplace_state_probs(params, s)
    return float(s * ptilde[list(DOWN_STATES)].sum())
