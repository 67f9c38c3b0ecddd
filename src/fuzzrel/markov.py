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
search reads to find where each metric turns, and in c each metric is a
ratio of quadratics, which calibration solves in closed form. R(t) takes one
eigendecomposition of the symmetrized up block per row, which serves
every mission time and the partial in mu, with the slowest decay rate
taken from det(-B), a sum of nonnegative terms that the MTTF shares.
R(t) falls in lambda and theta, so the bounds search needs no partial
in those. The rare rows without repair take R(t) and that partial from
a matrix exponential of the up block. The kernels take rate rows
(..., 5) and reduce on the last axis, so the public functions pass
the one row (5,) of a validated SystemParams, on which the same kernel
body runs on numpy scalars (np.rollaxis(rates, -1) unpacks into
scalars for one row and into columns for a stack), while the bounds
search passes all points of a ladder in one call; the slopes and
sensitivities in mu serve only the search and take stacks (N, 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import NamedTuple

import numpy as np

from .errors import KernelEvaluationError, ValidationError


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


def _generators(rates: np.ndarray, mode: ChainMode) -> np.ndarray:
    """Generators of one chain variant at rate rows.

    rates has shape (..., 5), columns lambda, theta, mu, c, beta, and the
    result has shape (..., 6, 6). With a = 2 lambda + theta, each entry is
    written from the rate columns as the kernels write them: c a and
    2 c lambda up the chain, (1 - c) a and 2 (1 - c) lambda into the
    unsafe states, mu for repair and lambda into EXHAUSTED; availability
    mode adds the recovery paths, beta out of each unsafe state and mu
    out of EXHAUSTED. Each diagonal entry is minus its row's exit rate in
    closed form, a, mu + 2 lambda and mu + lambda up (S's diagonal in
    _up_eigen), so the rows close to zero to rounding. No dtype is
    forced, so a row of sympy symbols gives the symbolic generator.
    Nothing is checked: the rates come from a validated SystemParams or
    from inside a box validated at its worst corner. For a fixed c the
    result is linear in lambda, theta, mu and beta.
    """
    lam, theta, mu, c, beta = np.rollaxis(rates, -1)
    a = 2.0 * lam + theta
    # a zero shaped and typed as the columns (lambda is finite)
    o = 0.0 * lam
    if mode is ChainMode.AVAILABILITY:
        down = [[o, o, mu, -mu, o, o], [beta, o, o, o, -beta, o], [o, beta, o, o, o, -beta]]
    else:
        down = [[o] * N_STATES] * len(DOWN_STATES)
    q = np.array(
        [
            # to UP3, UP2, UP1, EXHAUSTED, UNSAFE1, UNSAFE2
            [-a, c * a, o, o, (1.0 - c) * a, o],
            [mu, -(mu + 2.0 * lam), 2.0 * c * lam, o, o, 2.0 * (1.0 - c) * lam],
            [o, mu, -(mu + lam), lam, o, o],
            *down,
        ]
    )
    return np.moveaxis(q, (0, 1), (-2, -1))


@dataclass(frozen=True)
class GeneratorMatrix:
    """Infinitesimal generator of one chain variant, as build_generator
    assembles it from a validated SystemParams; a record built by hand is
    not checked.

    rates[i, j] is the transition rate from state i to state j for
    i != j; each diagonal entry is minus its row's exit rate, so the rows
    close to zero to rounding. initial is the time-zero distribution, all
    mass on UP3. Both arrays are read-only.
    """

    mode: ChainMode
    rates: np.ndarray
    initial: np.ndarray


def _rates(
    params: SystemParams, mode: ChainMode = ChainMode.RELIABILITY
) -> np.ndarray:
    """The one raw rate row (5,) of a validated SystemParams, whose fields
    run in _generators' column order; the kernels of the crisp metrics
    take it as they take a stack (N, 5). Availability also needs repair."""
    if mode is ChainMode.AVAILABILITY and params.repair_rate == 0.0:
        raise ValidationError(
            "availability analysis requires repair_rate > 0, the chain is "
            "not irreducible otherwise"
        )
    return np.array(list(vars(params).values()))


def _initial() -> np.ndarray:
    p0 = np.zeros(N_STATES)
    p0[State.UP3] = 1.0
    return p0


def build_generator(
    params: SystemParams, mode: ChainMode = ChainMode.RELIABILITY
) -> GeneratorMatrix:
    """The generator of one chain variant at validated rates, written
    entry by entry from the rate columns (_generators); availability also
    needs repair (_rates). Its arrays are read-only."""
    rates, initial = _generators(_rates(params, mode), mode), _initial()
    rates.setflags(write=False)
    initial.setflags(write=False)
    return GeneratorMatrix(mode=mode, rates=rates, initial=initial)


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
    lam, theta, mu, c = np.rollaxis(rates, -1)[:4]
    a = 2.0 * lam + theta
    d = mu * mu + (3.0 - 2.0 * c) * lam * mu + 2.0 * lam * lam
    n = mu + lam + 2.0 * c * lam
    return (d + a * c * n) / _up_determinant(a, lam, mu, c)


def _not_finite(name: str, value, params: SystemParams) -> KernelEvaluationError:
    """The error for a crisp result, value, that is not finite at params."""
    point = vars(params)
    return KernelEvaluationError(f"{name} is not finite at {point}: got {value!r}", point)


def _finite(value, name: str, params: SystemParams) -> float:
    """value, a crisp metric at params, as a float if finite; else
    KernelEvaluationError naming the rates."""
    value = float(value)
    if not math.isfinite(value):
        raise _not_finite(name, value, params)
    return value


def _finite_law(p: np.ndarray, name: str, params: SystemParams) -> np.ndarray:
    """p, a state law at params, if every mass is finite; else
    KernelEvaluationError naming the rates."""
    if not np.isfinite(p).all():
        raise _not_finite(name, p.tolist(), params)
    return p


def mttf(params: SystemParams) -> float:
    """Mean time to first system failure starting from UP3, the expected
    absorption time of the reliability chain (_mttf_values)."""
    return _finite(_mttf_values(_rates(params)), "MTTF", params)


# Down states absorb in the reliability chain, so its up masses evolve by
# the 3x3 up block B alone: P_up(t) = e_UP3^T expm(B t). B is a birth-death
# generator, UP3 <-> UP2 <-> UP1, so the diagonal D with d_0 = 1 and
# d_{i+1} = d_i sqrt(B[i, i+1] / B[i+1, i]) makes S = D B D^-1 symmetric,
# with off-diagonals sqrt(B[i, i+1] B[i+1, i]) (Keilson 1979). The d_i^2
# are the up states' detailed-balance masses (_stationary). With
# a = 2 lambda + theta, B's diagonal is -a, -(mu + 2 lambda), -(mu + lambda),
# its rates up the chain c a and 2 c lambda, and down it mu, so S and D are
# written from the rate columns. Then S = V diag(w) V^T from
# numpy.linalg.eigh, with real w < 0, and expm(B t) = D^-1 V diag(exp(w t))
# V^T D.


class _UpEigen(NamedTuple):
    """The symmetrized up block at rate rows (..., 5).

    s is S (..., 3, 3), w and vecs the eigenvalues (..., 3) and
    eigenvectors (..., 3, 3) of S, and d the symmetrizer (..., 3),
    (1, sqrt(c a / mu), sqrt(c a / mu) sqrt(2 c lambda / mu)). u = V^T
    D^-1 e_UP3 and v = V^T D 1, so that R(t) = sum_k u_k exp(w_k t) v_k.
    c = 0 makes d_1 = d_2 = 0 and S diagonal, and needs nothing else. ok
    marks the rows whose d is finite, 0-d for one row; mu = 0, or an up
    mass overflowing, leaves B without a symmetrizer, and those rows go to
    _up_block_expm.
    """

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
    lam, theta, mu, c = np.rollaxis(rates, -1)[:4]
    a = 2.0 * lam + theta
    s = np.zeros(rates.shape[:-1] + (3, 3))
    s[..., 0, 0] = -a
    s[..., 1, 1] = -(mu + 2.0 * lam)
    s[..., 2, 2] = -(mu + lam)
    # split so that the product cannot overflow; one value fills both
    # sides, so S is exactly symmetric; mu = 0 leaves S diagonal
    root_mu = np.sqrt(mu)
    s[..., 0, 1] = s[..., 1, 0] = np.sqrt(c * a) * root_mu
    s[..., 1, 2] = s[..., 2, 1] = np.sqrt(2.0 * c * lam) * root_mu
    d = np.ones(rates.shape[:-1] + (3,))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d1 = np.sqrt(c * a / mu)
        d[..., 1], d[..., 2] = d1, d1 * np.sqrt(2.0 * c * lam / mu)
    ok = np.isfinite(d).all(axis=-1)
    d[~ok] = 0.0
    w, vecs = np.linalg.eigh(s)
    w[..., 2] = -_up_determinant(a, lam, mu, c) / (w[..., 0] * w[..., 1])
    u, v = vecs[..., 0, :], (vecs * d[..., :, None]).sum(axis=-2)
    return _UpEigen(s, w, vecs, d, u, v, ok)


def _exp1(x: np.ndarray) -> np.ndarray:
    """(exp(x) - 1) / x, 1 at x = 0."""
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, np.expm1(safe) / safe)


# dB/dmu of the up block: the generator is linear in mu for a fixed c, so
# it is the up block assembled with mu at 1 and every other rate at 0
_UP_BLOCK_MU_DIRECTION = _generators(
    np.array([0.0, 0.0, 1.0, 0.0, 0.0]), ChainMode.RELIABILITY
)[_UP, _UP]


def _up_block_expm(rates: np.ndarray, t: float, partial: bool = False):
    """R(t) from expm of the up block B t, for rows without a symmetrizer;
    with partial, the pair of R(t) and its partial by mu.

    expm([[B, E], [0, B]] t) holds the Frechet derivative of expm at B t
    in direction E t as its top-right block, with E = dB/dmu. R comes from
    expm(B t) alone: scaling and squaring works from the norm of the
    matrix, and the augmented one's, which holds E t, is larger.
    """
    # imported here: scipy.linalg is the slowest import of the package,
    # and only these rows use it
    import scipy.linalg

    n_up = len(UP_STATES)
    b = _generators(rates, ChainMode.RELIABILITY)[:, _UP, _UP] * t
    r = scipy.linalg.expm(b)[:, 0].sum(axis=-1)
    if not partial:
        return r
    big = np.zeros((len(rates), 2 * n_up, 2 * n_up))
    big[:, :n_up, :n_up] = big[:, n_up:, n_up:] = b
    big[:, :n_up, n_up:] = _UP_BLOCK_MU_DIRECTION * t
    return r, scipy.linalg.expm(big)[:, 0, n_up:].sum(axis=-1)


def _reliability_values(rates: np.ndarray, times) -> np.ndarray:
    """R at each rate row (..., 5) and each of the times, shape (...)
    plus the shape of times.

    R(t) = sum_k u_k exp(w_k t) v_k from one eigendecomposition per row,
    clipped to [0, 1], and exactly 1 at t = 0.
    """
    shape = np.shape(times)
    times = np.asarray(times, dtype=float).reshape(-1)
    eig = _up_eigen(rates)
    decay = np.exp(eig.w[..., None, :] * times[:, None])
    r = (decay * (eig.u * eig.v)[..., None, :]).sum(axis=-1)
    if not eig.ok.all():
        for j, t in enumerate(times):
            r[~eig.ok, j] = _up_block_expm(rates[~eig.ok], t)
    r = np.minimum(np.maximum(r, 0.0), 1.0)
    r[..., times == 0.0] = 1.0
    return r.reshape(rates.shape[:-1] + shape)


def _time(t: float) -> float:
    t = float(t)
    if not np.isfinite(t) or t < 0.0:
        raise ValidationError(f"time must be >= 0, got {t}")
    return t


def reliability_at(params: SystemParams, t: float) -> float:
    """Probability the system has not failed by time t."""
    return _finite(_reliability_values(_rates(params), _time(t)), "reliability", params)


def _stationary(rates: np.ndarray) -> np.ndarray:
    """Stationary masses of the availability chain at each rate row,
    (..., 6) in State order, scaled so that UP3 has mass 1.

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
    lam, theta, mu, c, beta = np.rollaxis(rates, -1)
    a = 2.0 * lam + theta
    up2 = c * a / mu
    up1 = up2 * 2.0 * c * lam / mu
    x = np.empty(rates.shape[:-1] + (N_STATES,), dtype=rates.dtype)
    x[..., State.UP3] = 1.0
    x[..., State.UP2] = up2
    x[..., State.UP1] = up1
    x[..., State.EXHAUSTED] = up1 * lam / mu
    x[..., State.UNSAFE1] = (1.0 - c) * a / beta
    x[..., State.UNSAFE2] = up2 * 2.0 * (1.0 - c) * lam / beta
    return x


def _availability_values(rates: np.ndarray) -> np.ndarray:
    """Steady availability at each rate row, as up / (up + down) mass so
    that it never rounds above 1."""
    x = _stationary(rates)
    up = x[..., _UP].sum(axis=-1)
    return up / (up + x[..., _DOWN].sum(axis=-1))


def stationary_distribution(params: SystemParams) -> np.ndarray:
    """Stationary distribution of the availability chain.

    Degenerate coverage values (c = 0 or c = 1) leave part of the state
    space unreachable from UP3; those states get exactly zero. A law that
    is not finite raises KernelEvaluationError naming the rates.
    """
    x = _stationary(_rates(params, ChainMode.AVAILABILITY))
    return _finite_law(x / x.sum(), "stationary distribution", params)


def steady_availability(params: SystemParams) -> float:
    """Long-run fraction of time the system is operational."""
    a = _availability_values(_rates(params, ChainMode.AVAILABILITY))
    return _finite(a, "steady availability", params)


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


# -- forms in c ---------------------------------------------------------------
#
# MTTF and availability are each a ratio of two quadratics in c, which
# calibration solves for c in closed form. Each function returns, at rate
# rows (..., 5), the coefficients (2, 3, ...) of the numerator and then
# the denominator in the basis (1 - c)^2, c (1 - c), c^2; the c column of
# the rows is not read. Every coefficient is a sum of nonnegative terms,
# so each keeps full relative precision, and so does either quadratic at
# any c in [0, 1], near c = 0 and c = 1 alike.


def _mttf_c_form(rates: np.ndarray) -> np.ndarray:
    """MTTF = P / (a E) in _mttf_values' terms, a = 2 lambda + theta:

        P = (mu + lambda)(mu + 2 lambda)                   (1 - c)^2
          + (2 mu^2 + 4 lambda mu + 4 lambda^2 + a (mu + lambda))  c (1 - c)
          + (mu^2 + lambda mu + 2 lambda^2 + a (mu + 3 lambda))    c^2

        a E = a ((K + 2 lambda^2) (1 - c)^2 + (K + 4 lambda^2) c (1 - c)
                 + 2 lambda^2 c^2),   K = mu (mu + 3 lambda).
    """
    lam, theta, mu = np.rollaxis(rates, -1)[:3]
    a = 2.0 * lam + theta
    lam2 = lam * lam
    k = mu * (mu + 3.0 * lam)
    return np.array(
        [
            [
                (mu + lam) * (mu + 2.0 * lam),
                2.0 * mu * mu + 4.0 * lam * mu + 4.0 * lam2 + a * (mu + lam),
                mu * mu + lam * mu + 2.0 * lam2 + a * (mu + 3.0 * lam),
            ],
            [a * (k + 2.0 * lam2), a * (k + 4.0 * lam2), 2.0 * a * lam2],
        ]
    )


def _availability_c_form(rates: np.ndarray) -> np.ndarray:
    """A = U / (U + V) with _availability_mu_slope's U and V, a = 2 lambda
    + theta:

        U = beta (mu^3 (1 - c)^2 + (2 mu^3 + a mu^2) c (1 - c)
                  + (mu^3 + a mu^2 + 2 a lambda mu) c^2)
        V = a (mu^3 (1 - c)^2 + (mu^3 + 2 lambda mu^2) c (1 - c)
               + 2 lambda^2 beta c^2).
    """
    lam, theta, mu, _, beta = np.rollaxis(rates, -1)
    a = 2.0 * lam + theta
    mu2 = mu * mu
    mu3 = mu2 * mu
    up = beta * np.array([mu3, 2.0 * mu3 + a * mu2, mu3 + a * mu2 + 2.0 * a * lam * mu])
    down = a * np.array([mu3, mu3 + 2.0 * lam * mu2, 2.0 * lam * lam * beta])
    return np.array([up, up + down])


# -- sensitivity --------------------------------------------------------------
#
# The partial derivative of R(t) with respect to mu at stacked rate
# vectors (Blake, Reibman & Trivedi, SIGMETRICS 1988), whose sign steers
# the bounds search in mu. R(t) falls in lambda and theta
# (test_bounds.TestProofs), and MTTF and availability need only the sign
# of their mu derivative, which the slope polynomials above give.

def _up_mu_direction(s: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """M = D (dB/dmu) D^-1 at stacked rows, from S (N, 3, 3) and mu (N,).

    dB/dmu holds -1 on the diagonal below UP3 and 1 just under it, where
    M's entry is d_i / d_(i-1) = S[i, i-1] / mu: 0 when c = 0 zeroes S
    off the diagonal, and not finite when mu = 0, a row without a
    symmetrizer.
    """
    m = np.zeros_like(s)
    m[:, 1, 1] = m[:, 2, 2] = -1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        m[:, 1, 0], m[:, 2, 1] = s[:, 1, 0] / mu, s[:, 2, 1] / mu
    return m


def _reliability_sensitivities(
    rates: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """R(t) and dR/dmu at each rate row, by the Daleckii-Krein formula on
    the eigenbasis of R's kernel.

    With D fixed, dexpm(B t)/dmu = D^-1 V (G o V^T M V) V^T D t, where
    M = D (dB/dmu) D^-1 and G[k, l] is the divided difference of exp at
    w_k t and w_l t (Higham, Functions of Matrices, 2008, sec. 3.2), and M
    comes from _up_mu_direction. Rows without a symmetrizer use
    _up_block_expm. The bounds search takes its R(t) values from here, so
    they are clipped exactly as _reliability_values clips them. Only the
    bounds search calls this, so rates is a stack (N, 5).
    """
    eig = _up_eigen(rates)
    lam, theta, mu, c = rates.T[:4]
    m = _up_mu_direction(eig.s, mu)
    x = eig.w * t
    # e^b (e^(a - b) - 1) / (a - b) with b the larger, never above 1
    pairs = x[:, :, None], x[:, None, :]
    hi, lo = np.maximum(*pairs), np.minimum(*pairs)
    gamma = np.exp(hi) * _exp1(lo - hi)
    # summed as _reliability_values sums R, so the two agree bit for bit
    values = (np.exp(x) * (eig.u * eig.v)).sum(axis=-1)
    g = np.einsum("nik,nij,njl->nkl", eig.vecs, m, eig.vecs)
    # g's diagonal holds dw/dmu; the slow mode's comes from the identity
    # _up_eigen takes w3 from, dw3/w3 = dDelta/Delta - dw1/w1 - dw2/w2
    a = 2.0 * lam + theta
    slope = a * (1.0 - c) * (2.0 * mu + 3.0 * lam) / _up_determinant(a, lam, mu, c)
    g[:, 2, 2] = eig.w[:, 2] * (
        slope - g[:, 0, 0] / eig.w[:, 0] - g[:, 1, 1] / eig.w[:, 1]
    )
    partials = t * np.einsum("nk,nkl,nkl,nl->n", eig.u, gamma, g, eig.v)
    if not eig.ok.all():
        rows = ~eig.ok
        values[rows], partials[rows] = _up_block_expm(rates[rows], t, partial=True)
    values = np.minimum(np.maximum(values, 0.0), 1.0)
    if t == 0.0:
        values[:] = 1.0
    return values, partials
