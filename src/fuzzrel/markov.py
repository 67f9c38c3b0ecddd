"""Six-state Markov model of a repairable warm-standby system.

The system runs two identical units in active parallel with one warm
standby and a single repair facility. Active units fail at rate lambda
each, the standby fails at rate theta, repairs complete at rate mu. A
failure is caught and the standby switched in with coverage probability
c; an uncovered failure drops the whole system into an unsafe condition
that a reboot clears at rate beta.

States:

    UP3        two active units plus standby, all healthy
    UP2        two active units, one unit in repair
    UP1        one active unit, two units down
    EXHAUSTED  every unit down after a covered failure sequence
    UNSAFE1    uncovered failure out of the full configuration
    UNSAFE2    uncovered failure while already degraded

Two chain variants share the transition core. Reliability mode makes
every down state absorbing, which is the right object for first-passage
quantities (MTTF, reliability). Availability mode adds the recovery
paths (reboot from the unsafe states, repair out of exhaustion) and has
no absorbing state, which is the right object for long-run analysis.

Each metric has one kernel over stacked raw rate rows (N, 5). Every down
state returns to the up state it left, so the transitions pair up along a
tree rooted at UP3 and the availability chain is reversible: its
stationary law follows from detailed balance, and the MTTF from first-step
analysis of the up block, both as closed forms made only of sums,
products and quotients of nonnegative terms. The numerators of their
derivatives in mu are polynomials in mu, whose coefficients the bounds
search reads to find where each metric turns. R(t) takes one
eigendecomposition of the symmetrized up block per row, which serves
every mission time and the partial in mu, with the slowest decay rate
taken from det(-B), a sum of nonnegative terms that the MTTF shares.
R(t) falls in lambda and theta, so the bounds search needs no partial
in those. Transients of the availability chain, and the rare reliability
rows without repair, use a matrix exponential. The public functions pass
the one row of a validated SystemParams; the bounds search passes all
points of a ladder in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import NamedTuple

import numpy as np

from .errors import SolverError, ValidationError


class State(IntEnum):
    UP3 = 0
    UP2 = 1
    UP1 = 2
    EXHAUSTED = 3
    UNSAFE1 = 4
    UNSAFE2 = 5


UP_STATES = (State.UP3, State.UP2, State.UP1)
DOWN_STATES = (State.EXHAUSTED, State.UNSAFE1, State.UNSAFE2)

N_STATES = len(State)
# the up states lead the state order, so up and down index as slices
_UP = slice(0, len(UP_STATES))
_DOWN = slice(len(UP_STATES), N_STATES)


class ChainMode(Enum):
    RELIABILITY = "reliability"
    AVAILABILITY = "availability"


@dataclass(frozen=True)
class SystemParams:
    """Crisp rates of the repairable system.

    failure_rate           lambda, per active unit, > 0
    standby_failure_rate   theta, warm standby, 0 <= theta <= lambda
    repair_rate            mu, single repair facility, >= 0
    coverage               c, probability a failure is covered, in [0, 1]
    reboot_rate            beta, recovery from unsafe conditions, > 0

    repair_rate may be zero for pure first-passage analysis; availability
    analysis additionally requires it to be positive.
    """

    failure_rate: float
    standby_failure_rate: float
    repair_rate: float
    coverage: float
    reboot_rate: float

    def __post_init__(self):
        for name in (
            "failure_rate",
            "standby_failure_rate",
            "repair_rate",
            "coverage",
            "reboot_rate",
        ):
            value = float(getattr(self, name))
            object.__setattr__(self, name, value)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if self.failure_rate <= 0:
            raise ValidationError(f"failure_rate must be > 0, got {self.failure_rate}")
        if self.standby_failure_rate < 0:
            raise ValidationError(
                f"standby_failure_rate must be >= 0, got {self.standby_failure_rate}"
            )
        if self.standby_failure_rate > self.failure_rate:
            raise ValidationError(
                f"standby_failure_rate {self.standby_failure_rate} exceeds "
                f"failure_rate {self.failure_rate}"
            )
        if self.repair_rate < 0:
            raise ValidationError(f"repair_rate must be >= 0, got {self.repair_rate}")
        if not 0.0 <= self.coverage <= 1.0:
            raise ValidationError(f"coverage must lie in [0, 1], got {self.coverage}")
        if self.reboot_rate <= 0:
            raise ValidationError(f"reboot_rate must be > 0, got {self.reboot_rate}")


# Every transition rate is a weighted sum of eight features of a rate
# vector (lambda, theta, mu, c, beta), so a generator is one product of
# the features with a constant basis.
_LAM, _THETA, _MU, _BETA, _C_LAM, _C_THETA, _U_LAM, _U_THETA = range(8)
# rate-vector columns of the first four features, which are rates as given:
# lambda, theta, mu and beta
_RATE_FEATURES = np.array([0, 1, 2, 4])

# (source, target, feature weights); U is the uncovered share 1 - c
_TRANSITIONS = [
    (State.UP3, State.UP2, {_C_LAM: 2.0, _C_THETA: 1.0}),
    (State.UP3, State.UNSAFE1, {_U_LAM: 2.0, _U_THETA: 1.0}),
    (State.UP2, State.UP3, {_MU: 1.0}),
    (State.UP2, State.UP1, {_C_LAM: 2.0}),
    (State.UP2, State.UNSAFE2, {_U_LAM: 2.0}),
    (State.UP1, State.UP2, {_MU: 1.0}),
    (State.UP1, State.EXHAUSTED, {_LAM: 1.0}),
]
# availability mode adds the recovery paths
_RECOVERY = [
    (State.UNSAFE1, State.UP3, {_BETA: 1.0}),
    (State.UNSAFE2, State.UP2, {_BETA: 1.0}),
    (State.EXHAUSTED, State.UP1, {_MU: 1.0}),
]


def _basis(transitions) -> np.ndarray:
    basis = np.zeros((8, N_STATES, N_STATES))
    for s, t, weights in transitions:
        for k, w in weights.items():
            basis[k, s, t] += w
            basis[k, s, s] -= w
    return basis.reshape(8, N_STATES * N_STATES)


_BASES = {
    ChainMode.RELIABILITY: _basis(_TRANSITIONS),
    ChainMode.AVAILABILITY: _basis(_TRANSITIONS + _RECOVERY),
}


def _generators(rates: np.ndarray, mode: ChainMode) -> np.ndarray:
    """Generators of one chain variant for raw rate vectors.

    rates has shape (..., 5), columns lambda, theta, mu, c, beta, and the
    result has shape (..., 6, 6) with rows closed to zero. Nothing is
    checked: the rates come from a validated SystemParams or from inside
    a box validated at its worst corner. For a fixed c the result is
    linear in lambda, theta, mu and beta.
    """
    rates = np.asarray(rates, dtype=float)
    c = rates[..., 3:4]
    pair = rates[..., :2]
    features = np.concatenate(
        [rates.take(_RATE_FEATURES, axis=-1), c * pair, (1.0 - c) * pair], axis=-1
    )
    return (features @ _BASES[mode]).reshape(rates.shape[:-1] + (N_STATES, N_STATES))


@dataclass(frozen=True)
class GeneratorMatrix:
    """Infinitesimal generator of one chain variant.

    rates[i, j] is the transition rate from state i to state j for
    i != j; diagonal entries close each row to zero. initial is the
    time-zero distribution, all mass on UP3.
    """

    mode: ChainMode
    rates: np.ndarray
    initial: np.ndarray

    def __post_init__(self):
        rates = np.array(self.rates, dtype=float)
        initial = np.array(self.initial, dtype=float)
        if rates.shape != (N_STATES, N_STATES):
            raise ValidationError(f"generator must be 6x6, got {rates.shape}")
        if initial.shape != (N_STATES,):
            raise ValidationError(f"initial must have 6 entries, got {initial.shape}")
        off = rates.copy()
        np.fill_diagonal(off, 0.0)
        if off.min() < 0.0:
            raise ValidationError("off-diagonal generator entries must be >= 0")
        # rounding in a row sum grows with the rates it adds up
        tol = 1e-9 * max(1.0, np.abs(rates).max())
        if np.abs(rates.sum(axis=1)).max() > tol:
            raise ValidationError("generator rows must sum to zero")
        if self.mode is ChainMode.RELIABILITY:
            for s in DOWN_STATES:
                if np.any(rates[s] != 0.0):
                    raise ValidationError(
                        f"reliability mode requires absorbing down state {s.name}"
                    )
        else:
            outflow = off.sum(axis=1)
            if np.any(outflow <= 0.0):
                dead = State(int(np.argmin(outflow))).name
                raise ValidationError(
                    f"availability mode must have no absorbing state, {dead} has "
                    f"no outgoing rate"
                )
        rates.setflags(write=False)
        initial.setflags(write=False)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "initial", initial)


def _rates(
    params: SystemParams, mode: ChainMode = ChainMode.RELIABILITY
) -> np.ndarray:
    """Raw rate row (1, 5) of a validated SystemParams, whose fields run
    in _generators' column order. Availability also needs repair."""
    if mode is ChainMode.AVAILABILITY and params.repair_rate == 0.0:
        raise ValidationError(
            "availability analysis requires repair_rate > 0, the chain is "
            "not irreducible otherwise"
        )
    return np.array([list(vars(params).values())])


def _check_distributions(p: np.ndarray) -> None:
    """Every row of p (..., 6) lies in [0, 1] and sums to 1, to rounding;
    the first row that does not raises ValidationError."""
    p = p.reshape(-1, N_STATES)
    total = p.sum(axis=1)
    outside = ((p < -1e-12) | (p > 1.0 + 1e-12)).any(axis=1)
    bad = np.flatnonzero(outside | (abs(total - 1.0) > 1e-10))
    if len(bad):
        raise ValidationError(
            "probabilities must lie in [0, 1]"
            if outside[bad[0]]
            else f"probabilities sum to {total[bad[0]]}, expected 1"
        )


def _initial() -> np.ndarray:
    p0 = np.zeros(N_STATES)
    p0[State.UP3] = 1.0
    return p0


def build_generator(
    params: SystemParams, mode: ChainMode = ChainMode.RELIABILITY
) -> GeneratorMatrix:
    """Assemble and validate the generator for one chain variant."""
    return GeneratorMatrix(
        mode=mode, rates=_generators(_rates(params, mode), mode)[0], initial=_initial()
    )


@dataclass(frozen=True)
class StateProbabilities:
    """Transient distribution over the six states at one time point."""

    t: float
    p: np.ndarray

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        if p.shape != (N_STATES,):
            raise ValidationError(f"p must have 6 entries, got {p.shape}")
        _check_distributions(p)
        p.setflags(write=False)
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class LaplaceStateVector:
    """Laplace transforms of the state probabilities at one s > 0."""

    s: float
    ptilde: np.ndarray

    def __post_init__(self):
        ptilde = np.array(self.ptilde, dtype=float)
        if ptilde.shape != (N_STATES,):
            raise ValidationError(f"ptilde must have 6 entries, got {ptilde.shape}")
        ptilde.setflags(write=False)
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "ptilde", ptilde)

    @property
    def total(self) -> float:
        return float(self.ptilde.sum())


def laplace_state_probs(params: SystemParams, s: float) -> LaplaceStateVector:
    """Solve the transformed balance equations of the reliability chain.

    The transient system dP/dt = Q^T P with all mass initially on UP3
    becomes (s I - Q^T) ptilde = P(0) under the Laplace transform. Total
    probability is conserved, so s * sum(ptilde) = 1 for every s > 0.
    """
    s = float(s)
    if not np.isfinite(s) or s <= 0.0:
        raise ValidationError(f"transform variable s must be > 0, got {s}")
    rates = _generators(_rates(params), ChainMode.RELIABILITY)[0]
    lhs = s * np.eye(N_STATES) - rates.T
    try:
        ptilde = np.linalg.solve(lhs, _initial())
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Laplace system singular at s={s}") from exc
    residual = abs(s * ptilde.sum() - 1.0)
    if residual > 1e-8:
        raise SolverError(
            f"probability conservation violated at s={s}: residual {residual:.3e}"
        )
    return LaplaceStateVector(s=s, ptilde=ptilde)


def failure_density_laplace(params: SystemParams, s: float) -> float:
    """Laplace transform of the time-to-failure density at s > 0.

    Equal to s times the transformed probability of sitting in any down
    state; tends to 1 as s drops to 0 because failure is certain, and its
    negative slope at 0 is the MTTF.
    """
    vec = laplace_state_probs(params, s)
    down = vec.ptilde[list(DOWN_STATES)].sum()
    return float(s * down)


# -- kernels ------------------------------------------------------------------
#
# Rate rows must come from validated SystemParams or from inside a box
# validated at its worst corner.


def _up_determinant(a, lam, mu, c):
    """det(-B) of the up block B, a ((1 - c) mu (mu + 3 lambda) +
    2 lambda^2) with a = 2 lambda + theta, from rate columns: a sum of
    nonnegative terms, which keeps full relative precision."""
    return a * ((1.0 - c) * mu * (mu + 3.0 * lam) + 2.0 * lam * lam)


def _mttf_values(rates: np.ndarray) -> np.ndarray:
    """MTTF from UP3 at each rate row, by first-step analysis.

    With a = 2 lambda + theta, the mean times to failure m3, m2 and m1
    from UP3, UP2 and UP1 satisfy

        m3 = 1/a + c m2
        (mu + 2 lambda) m2 = 1 + mu m3 + 2 c lambda m1
        (mu + lambda) m1 = 1 + mu m2

    and eliminating m2 and m1 gives m3 = (D + a c N) / det(-B)
    (_up_determinant), with D = mu^2 + (3 - 2c) lambda mu + 2 lambda^2 and
    N = mu + lambda + 2 c lambda. Every term is nonnegative, so the value
    keeps full relative precision at any rates. An LU solve of the up
    block does not: at c = 1 all its rows but the last sum to zero, and it
    loses about (mu / lambda)^2 eps.
    """
    lam, theta, mu, c = rates.T[:4]
    a = 2.0 * lam + theta
    d = mu * mu + (3.0 - 2.0 * c) * lam * mu + 2.0 * lam * lam
    n = mu + lam + 2.0 * c * lam
    return (d + a * c * n) / _up_determinant(a, lam, mu, c)


def mttf(params: SystemParams) -> float:
    """Mean time to first system failure starting from UP3, the expected
    absorption time of the reliability chain (_mttf_values)."""
    return float(_mttf_values(_rates(params))[0])


def _transient(q: np.ndarray, t: float) -> np.ndarray:
    """P(t) = expm(Q^T t) P(0) from all mass on UP3 at each generator,
    clipped at zero; StateProbabilities checks each row it reaches."""
    # imported here: scipy.linalg is the slowest import of the package,
    # and only the expm paths use it
    import scipy.linalg

    p = scipy.linalg.expm(np.swapaxes(q, -1, -2) * t)[..., State.UP3]
    return np.maximum(p, 0.0)


# Down states absorb in the reliability chain, so its up masses evolve by
# the 3x3 up block B alone: P_up(t) = e_UP3^T expm(B t). B is a birth-death
# generator, UP3 <-> UP2 <-> UP1, so the diagonal D with d_0 = 1 and
# d_{i+1} = d_i sqrt(B[i, i+1] / B[i+1, i]) makes S = D B D^-1 symmetric,
# with off-diagonals sqrt(B[i, i+1] B[i+1, i]) (Keilson 1979). The d_i^2
# are the up states' detailed-balance masses, from _stationary. Then
# S = V diag(w) V^T from numpy.linalg.eigh, with real w < 0, and
# expm(B t) = D^-1 V diag(exp(w t)) V^T D.


class _UpEigen(NamedTuple):
    """The symmetrized up block at stacked rate rows.

    b and s are B and S (N, 3, 3), w and vecs the eigenvalues (N, 3) and
    eigenvectors (N, 3, 3) of S, and d the symmetrizer (N, 3). u = V^T
    D^-1 e_UP3 and v = V^T D 1, so that R(t) = sum_k u_k exp(w_k t) v_k.
    c = 0 makes d_1 = d_2 = 0 and S diagonal, and needs nothing else. ok
    marks the rows whose d is finite; mu = 0, or an up mass overflowing,
    leaves B without a symmetrizer, and those rows go to _up_block_expm.
    """

    b: np.ndarray
    s: np.ndarray
    w: np.ndarray
    vecs: np.ndarray
    d: np.ndarray
    u: np.ndarray
    v: np.ndarray
    ok: np.ndarray


def _up_eigen(rates: np.ndarray) -> _UpEigen:
    """eigh resolves eigenvalues only to about eps ||S||, and at c = 1 with
    fast repair the slowest decay rate, about 1/MTTF, lies far below that.
    So the slowest eigenvalue is taken from the other two and the product
    of all three, det(B) = -det(-B) (_up_determinant), which keeps full
    relative precision; the two fast ones are resolved to their own size."""
    b = _generators(rates, ChainMode.RELIABILITY)[:, _UP, _UP]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.sqrt(_stationary(rates)[:, _UP])
    ok = np.isfinite(d).all(axis=1)
    d[~ok] = 0.0
    # split so that the product cannot overflow; one value fills both
    # sides, so S is exactly symmetric; mu = 0 leaves S diagonal
    upper, lower = np.diagonal(b, 1, 1, 2), np.diagonal(b, -1, 1, 2)
    off = np.sqrt(upper) * np.sqrt(lower)
    s = b.copy()
    s[:, 0, 1] = s[:, 1, 0] = off[:, 0]
    s[:, 1, 2] = s[:, 2, 1] = off[:, 1]
    w, vecs = np.linalg.eigh(s)
    lam, theta, mu, c = rates.T[:4]
    w[:, 2] = -_up_determinant(2.0 * lam + theta, lam, mu, c) / (w[:, 0] * w[:, 1])
    u, v = vecs[:, 0, :], (vecs * d[:, :, None]).sum(axis=1)
    return _UpEigen(b, s, w, vecs, d, u, v, ok)


def _exp1(x: np.ndarray) -> np.ndarray:
    """(exp(x) - 1) / x, 1 at x = 0."""
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, np.expm1(safe) / safe)


# dB/dmu of the up block: the generator is linear in mu for a fixed c, so
# it is the up block assembled with mu at 1 and every other rate at 0
_UP_BLOCK_MU_DIRECTION = _generators(
    np.array([[0.0, 0.0, 1.0, 0.0, 0.0]]), ChainMode.RELIABILITY
)[0, _UP, _UP]


def _up_block_expm(rates: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """R(t) and its partial by mu from expm of the up block, for rows
    without a symmetrizer.

    expm([[A, E], [0, A]]) holds the Frechet derivative of expm at A in
    direction E as its top-right block, with A = B^T t and E = dB^T/dmu t.
    """
    import scipy.linalg

    n_up = len(UP_STATES)
    a = np.swapaxes(_generators(rates, ChainMode.RELIABILITY)[:, _UP, _UP], -1, -2)
    big = np.zeros((len(rates), 2 * n_up, 2 * n_up))
    big[:, :n_up, :n_up] = big[:, n_up:, n_up:] = a * t
    big[:, :n_up, n_up:] = _UP_BLOCK_MU_DIRECTION.T * t
    e = scipy.linalg.expm(big)
    return e[:, :n_up, 0].sum(axis=1), e[:, :n_up, n_up].sum(axis=1)


def _reliability_values(rates: np.ndarray, times) -> np.ndarray:
    """R at each rate row (N, 5) and each of the times, shape (N,) plus
    the shape of times.

    R(t) = sum_k u_k exp(w_k t) v_k from one eigendecomposition per row,
    clipped to [0, 1], and exactly 1 at t = 0.
    """
    shape = np.shape(times)
    times = np.asarray(times, dtype=float).reshape(-1)
    eig = _up_eigen(rates)
    decay = np.exp(eig.w[:, None, :] * times[:, None])
    r = (decay * (eig.u * eig.v)[:, None, :]).sum(axis=-1)
    if not eig.ok.all():
        for j, t in enumerate(times):
            r[~eig.ok, j] = _up_block_expm(rates[~eig.ok], t)[0]
    r = np.minimum(np.maximum(r, 0.0), 1.0)
    r[:, times == 0.0] = 1.0
    return r.reshape((len(r),) + shape)


def _reliability_distribution(rates: np.ndarray, t: float) -> np.ndarray:
    """P(t) of the reliability chain at each rate row, (N, 6).

    The up masses come from the eigenbasis. Each down state's mass is the
    flow into it, sum_j Q[j, down] times the integral of P_up,j over
    [0, t], whose eigen-integrals are t (exp(w t) - 1) / (w t); so the six
    masses add up to 1 by construction. Rows without a symmetrizer use
    expm of the whole generator.
    """
    q = _generators(rates, ChainMode.RELIABILITY)
    eig = _up_eigen(rates)
    x = eig.w * t
    up = np.einsum("nk,njk,nj->nj", eig.u * np.exp(x), eig.vecs, eig.d)
    spent = np.einsum("nk,njk,nj->nj", eig.u * t * _exp1(x), eig.vecs, eig.d)
    p = np.concatenate(
        [np.maximum(up, 0.0), np.einsum("nj,njm->nm", spent, q[:, _UP, _DOWN])],
        axis=1,
    )
    if not eig.ok.all():
        p[~eig.ok] = _transient(q[~eig.ok], t)
    return p


def _time(t: float) -> float:
    t = float(t)
    if not np.isfinite(t) or t < 0.0:
        raise ValidationError(f"time must be >= 0, got {t}")
    return t


def state_probabilities(
    params: SystemParams, t: float, mode: ChainMode = ChainMode.RELIABILITY
) -> StateProbabilities:
    """Transient distribution of the chosen chain variant at time t.

    Reliability mode takes it from the symmetrized up block, availability
    mode from P(t) = expm(Q^T t) P(0).
    """
    t = _time(t)
    rates = _rates(params, mode)
    if mode is ChainMode.RELIABILITY:
        return StateProbabilities(t=t, p=_reliability_distribution(rates, t)[0])
    return StateProbabilities(t=t, p=_transient(_generators(rates, mode), t)[0])


def reliability_at(params: SystemParams, t: float) -> float:
    """Probability the system has not failed by time t."""
    return float(_reliability_values(_rates(params), _time(t))[0])


def _stationary(rates: np.ndarray) -> np.ndarray:
    """Stationary masses of the availability chain at each rate row,
    (N, 6) in State order, scaled so that UP3 has mass 1.

    Each transition has one partner that undoes it: UP2 and UNSAFE1 return
    to UP3, UP1 and UNSAFE2 to UP2, EXHAUSTED to UP1. These five pairs form
    a tree rooted at UP3, and a chain whose transition graph is a tree is
    reversible (Kelly, Reversibility and Stochastic Networks, 1979, sec.
    1.5). So every pair balances on its own, pi_i q_ij = pi_j q_ji, and
    each mass is its parent's times the rate out over the rate back, with
    a = 2 lambda + theta:

        UP2 = c a / mu              UNSAFE1 = (1 - c) a / beta
        UP1 = UP2 2 c lambda / mu   UNSAFE2 = UP2 2 (1 - c) lambda / beta
        EXHAUSTED = UP1 lambda / mu

    Only products and quotients of nonnegative terms enter, so every mass
    keeps full relative precision however small, and a state that UP3
    cannot reach gets an exact zero: UP2, UP1 and EXHAUSTED at c = 0, the
    unsafe states at c = 1. The masses that divide by mu are not finite
    when mu = 0; availability requires mu > 0, and _up_eigen takes such
    rows to have no symmetrizer.
    """
    lam, theta, mu, c, beta = rates.T
    a = 2.0 * lam + theta
    x = np.empty((len(rates), N_STATES), dtype=rates.dtype)
    x[:, State.UP3] = 1.0
    x[:, State.UP2] = c * a / mu
    x[:, State.UP1] = x[:, State.UP2] * 2.0 * c * lam / mu
    x[:, State.EXHAUSTED] = x[:, State.UP1] * lam / mu
    x[:, State.UNSAFE1] = (1.0 - c) * a / beta
    x[:, State.UNSAFE2] = x[:, State.UP2] * 2.0 * (1.0 - c) * lam / beta
    return x


def _availability_values(rates: np.ndarray) -> np.ndarray:
    """Steady availability at each rate row, as up / (up + down) mass so
    that it never rounds above 1."""
    x = _stationary(rates)
    up = x[:, _UP].sum(axis=1)
    return up / (up + x[:, _DOWN].sum(axis=1))


def stationary_distribution(params: SystemParams) -> np.ndarray:
    """Stationary distribution of the availability chain.

    Degenerate coverage values (c = 0 or c = 1) leave part of the state
    space unreachable from UP3; those states get exactly zero.
    """
    x = _stationary(_rates(params, ChainMode.AVAILABILITY))[0]
    return x / x.sum()


def steady_availability(params: SystemParams) -> float:
    """Long-run fraction of time the system is operational."""
    return float(_availability_values(_rates(params, ChainMode.AVAILABILITY))[0])


# -- slopes in mu -------------------------------------------------------------
#
# A closed form P / Q turns in mu where the numerator P' Q - P Q' of its
# mu derivative changes sign, Q^2 being positive. That numerator is a
# polynomial in mu; each function returns its coefficients at stacked rate
# rows, shape (k, N), highest power first, with positive factors that
# carry no sign dropped. The mu column of the rows is not read.


def _mttf_mu_slope(rates: np.ndarray) -> np.ndarray:
    """The numerator of dMTTF/dmu over a, as coefficients of mu^2, mu, 1.

    In _mttf_values' terms MTTF = P / (a E), with P = D + a c N = mu^2 +
    ((3 - 2c) lambda + a c) mu + (2 lambda^2 + a c (1 + 2c) lambda) and
    E = (1 - c) mu (mu + 3 lambda) + 2 lambda^2. P' E - P E' collapses to

        -c (1 - c) theta mu^2 + 2 c lambda Y mu + c lambda^2 (3 Y + 2 theta)

    with Y = 2 c (2c - 1) lambda - (1 - c) (1 + 2c) theta. The leading
    coefficient is never positive, and the constant one is 3 lambda / 2
    times the middle one plus 2 c lambda^2 theta >= 0: a positive middle
    coefficient makes the constant positive. So the signs run (-, any, +)
    or all <= 0, and by Descartes' rule the slope has at most one positive
    root, where MTTF turns from rising to falling.
    """
    lam, theta, c = rates[:, 0], rates[:, 1], rates[:, 3]
    y = 2.0 * c * (2.0 * c - 1.0) * lam - (1.0 - c) * (1.0 + 2.0 * c) * theta
    return np.array(
        [
            -c * (1.0 - c) * theta,
            2.0 * c * lam * y,
            c * lam * lam * (3.0 * y + 2.0 * theta),
        ]
    )


def _availability_mu_slope(rates: np.ndarray) -> np.ndarray:
    """The numerator of dA/dmu over beta a, as coefficients of mu^4 .. 1.

    Scaling _stationary's masses by beta mu^3 gives A = U / (U + V), with
    U = beta (mu^3 + c a mu^2 + 2 c^2 a lambda mu) and V = a ((1 - c)
    mu^3 + 2 c (1 - c) lambda mu^2 + 2 c^2 lambda^2 beta). U' V - U V'
    is beta a times

        -c (1 - c) theta mu^4 - 4 c^2 (1 - c) lambda a mu^3
        + 2 c^2 lambda^2 (3 beta - 2 c (1 - c) a) mu^2
        + 4 beta c^3 lambda^2 a mu + 4 beta c^4 lambda^3 a.

    The signs run (-, -, any, +, +) for 0 < c < 1, so by Descartes' rule
    the slope has at most one positive root, where A turns from rising to
    falling; c = 0 leaves A constant in mu and c = 1 rising.
    """
    lam, theta, c, beta = rates[:, 0], rates[:, 1], rates[:, 3], rates[:, 4]
    a = 2.0 * lam + theta
    cc = c * c
    lam2 = lam * lam
    return np.array(
        [
            -c * (1.0 - c) * theta,
            -4.0 * cc * (1.0 - c) * lam * a,
            2.0 * cc * lam2 * (3.0 * beta - 2.0 * c * (1.0 - c) * a),
            4.0 * beta * cc * c * lam2 * a,
            4.0 * beta * cc * cc * lam2 * lam * a,
        ]
    )


# -- sensitivity --------------------------------------------------------------
#
# The partial derivative of R(t) with respect to mu at stacked rate
# vectors (Blake, Reibman & Trivedi, SIGMETRICS 1988), for the bounds
# search's certificate in mu. R(t) falls in lambda and theta
# (test_bounds.TestProofs), and MTTF and availability need only the sign
# of their mu derivative, which the slope polynomials above give.

def _reliability_sensitivities(
    rates: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """R(t) and dR/dmu at each rate row, by the Daleckii-Krein formula on
    the eigenbasis of R's kernel.

    With D fixed, dexpm(B t)/dmu = D^-1 V (G o V^T M V) V^T D t, where
    M = D (dB/dmu) D^-1 and G[k, l] is the divided difference of exp at
    w_k t and w_l t (Higham, Functions of Matrices, 2008, sec. 3.2). An
    entry of M is (dB/dmu)[i, j] d_i / d_j = (dB/dmu)[i, j] / B[i, j]
    S[i, j], which stays finite when c = 0 zeroes B[0, 1], B[1, 2] and
    S off the diagonal. Rows without a symmetrizer use _up_block_expm.
    The bounds search takes its R(t) values from here, so they are clipped
    exactly as _reliability_values clips them.
    """
    eig = _up_eigen(rates)
    e, b = _UP_BLOCK_MU_DIRECTION, eig.b
    m = np.divide(e, b, out=np.zeros_like(b), where=b != 0.0) * eig.s
    x = eig.w * t
    # e^b (e^(a - b) - 1) / (a - b) with b the larger, never above 1
    pairs = x[:, :, None], x[:, None, :]
    hi, lo = np.maximum(*pairs), np.minimum(*pairs)
    gamma = np.exp(hi) * _exp1(lo - hi)
    values = np.einsum("nk,nk,nk->n", eig.u, np.exp(x), eig.v)
    g = np.einsum("nik,nij,njl->nkl", eig.vecs, m, eig.vecs)
    # g's diagonal holds dw/dmu; the slow mode's comes from the identity
    # _up_eigen takes w3 from, dw3/w3 = dDelta/Delta - dw1/w1 - dw2/w2
    lam, theta, mu, c = rates.T[:4]
    a = 2.0 * lam + theta
    slope = a * (1.0 - c) * (2.0 * mu + 3.0 * lam) / _up_determinant(a, lam, mu, c)
    g[:, 2, 2] = eig.w[:, 2] * (
        slope - g[:, 0, 0] / eig.w[:, 0] - g[:, 1, 1] / eig.w[:, 1]
    )
    partials = t * np.einsum("nk,nkl,nkl,nl->n", eig.u, gamma, g, eig.v)
    if not eig.ok.all():
        values[~eig.ok], partials[~eig.ok] = _up_block_expm(rates[~eig.ok], t)
    values = np.minimum(np.maximum(values, 0.0), 1.0)
    if t == 0.0:
        values[:] = 1.0
    return values, partials
