"""Monte Carlo cross-checks of the analytic characteristics.

Both simulators run one vectorized sweep, `_passage`, which moves many
paths from UP3 at once until each enters a stop state. MTTF samples
first passages of the reliability chain into the down states.
Availability samples iid UP3 -> UP3 cycles of the availability chain
(UP3 is a regeneration point) and returns the ratio estimator of the
long-run up fraction, total up time over total cycle length, with its
delta-method standard error. Both are deterministic in the configured
seed regardless of chunking.

Samples are drawn in chunks, and both estimators keep only running
sums over them, so memory does not grow with `replications` or
`horizon`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .markov import (
    DOWN_STATES,
    ChainMode,
    State,
    SystemParams,
    UP_STATES,
    build_generator,
)

_CHUNK = 65536
_FIRST_CYCLE_CHUNK = 1024
_EXHAUSTION_SWEEPS = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings.

    replications is the number of first passages the MTTF sampler draws.
    horizon is the simulated time the availability sampler covers: it
    keeps the first regeneration cycles whose total length reaches it.
    """

    params: SystemParams
    replications: int = 100_000
    horizon: float = 100_000.0
    seed: int = 0

    def __post_init__(self):
        if int(self.replications) != self.replications or self.replications < 1:
            raise ValidationError(
                f"replications must be a positive integer, got {self.replications}"
            )
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "horizon", float(self.horizon))
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise ValidationError(f"horizon must be > 0, got {self.horizon}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class SimEstimate:
    """Point estimate with its standard error."""

    mean: float
    std_error: float
    replications: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValidationError("std_error must be >= 0")

    def margin(self, n_sigma: float = 3.0) -> float:
        return n_sigma * self.std_error


def _jump_tables(params: SystemParams, mode: ChainMode):
    """Per-state exit rate, cumulative jump probabilities, jump targets."""
    rates = build_generator(params, mode).rates
    exit_rates = {}
    cum_probs = {}
    targets = {}
    for s in State:
        row = rates[s].copy()
        row[s] = 0.0
        total = row.sum()
        exit_rates[s] = total
        if total > 0.0:
            tgt = np.flatnonzero(row)
            cum_probs[s] = np.cumsum(row[tgt]) / total
            targets[s] = tgt
    return exit_rates, cum_probs, targets


def _passage(tables, stop, n: int, rng: np.random.Generator):
    """Move n paths from UP3 until each enters a state in `stop`.

    Returns each path's length, its time in the up states and its final
    state. A path that starts in a stop state (UP3) leaves it first.
    Each sweep visits the states in State order; every path in the
    visited state draws its holding time and its jump, so a path can
    jump several times per sweep. Each jump uses fresh draws, so the
    embedded chain and the holding times keep their exact laws. Paths
    that reached `stop` are dropped at the end of the sweep. tables are
    the chain's `_jump_tables`.
    """
    exit_rates, cum_probs, targets = tables
    # UP3 is visited first in a sweep, so a path entering it mid-sweep
    # waits for the next sweep, where it is already dropped
    moving = [
        s for s in State
        if exit_rates[s] > 0.0 and (s == State.UP3 or s not in stop)
    ]
    stopped = np.zeros(len(State), dtype=bool)
    stopped[[int(s) for s in stop]] = True
    states = np.full(n, int(State.UP3), dtype=np.int64)
    lengths = np.zeros(n)
    # down time is the one to accumulate: no down state moves in the
    # reliability chain, so first passages pay nothing for it
    down_times = np.zeros(n)
    active = np.arange(n)
    for _ in range(_EXHAUSTION_SWEEPS):
        for s in moving:
            idx = active[states[active] == int(s)]
            if idx.size == 0:
                continue
            hold = rng.exponential(scale=1.0 / exit_rates[s], size=idx.size)
            lengths[idx] += hold
            if s not in UP_STATES:
                down_times[idx] += hold
            picks = np.searchsorted(cum_probs[s], rng.random(idx.size), side="right")
            picks = np.minimum(picks, len(targets[s]) - 1)
            states[idx] = targets[s][picks]
        active = active[~stopped[states[active]]]
        if active.size == 0:
            return lengths, lengths - down_times, states
    raise ValidationError(
        f"simulated paths did not reach {', '.join(s.name for s in stop)} "
        f"within {_EXHAUSTION_SWEEPS} sweeps"
    )


def _ratio_estimate(chunks) -> SimEstimate:
    """Ratio estimator A = sum U / sum C over chunks of paired samples
    (U, C), with standard error sqrt(sum (U - A C)^2 / (n (n - 1))) /
    mean C (zero for a single pair).

    Only running sums are kept. The second moment is centred on the
    first chunk's ratio A0 (Chan, Golub & LeVeque, Am. Stat. 1983): with
    e = U - A0 C and d = A - A0,
    sum (U - A C)^2 = sum e^2 - 2 d sum e C + d^2 sum C^2.
    The raw form sum U^2 - 2 A sum U C + A^2 sum C^2 would cancel badly
    when U is close to A C, as it is for availability near 1.
    """
    n = 0
    sum_u = sum_c = sum_ee = sum_ec = sum_cc = 0.0
    for u, c in chunks:
        if n == 0:
            a0 = float(u.sum() / c.sum())
        e = u - a0 * c
        n += u.size
        sum_u += float(u.sum())
        sum_c += float(c.sum())
        sum_ee += float(np.sum(e * e))
        sum_ec += float(np.sum(e * c))
        sum_cc += float(np.sum(c * c))
    mean = sum_u / sum_c
    if n == 1:
        return SimEstimate(mean=mean, std_error=0.0, replications=1)
    d = mean - a0
    sq = max(sum_ee - 2.0 * d * sum_ec + d * d * sum_cc, 0.0)
    std_error = math.sqrt(sq / (n * (n - 1))) / (sum_c / n)
    return SimEstimate(mean=mean, std_error=std_error, replications=n)


def _first_passage_samples(cfg: SimConfig):
    """First-passage times and absorbing states, one chunk at a time.

    Chunk k holds up to _CHUNK samples drawn from the k-th child of the
    seed.
    """
    tables = _jump_tables(cfg.params, ChainMode.RELIABILITY)
    n = cfg.replications
    seeds = np.random.SeedSequence(cfg.seed).spawn((n + _CHUNK - 1) // _CHUNK)
    for k, child in enumerate(seeds):
        size = min(_CHUNK, n - k * _CHUNK)
        times, _, states = _passage(
            tables, DOWN_STATES, size, np.random.default_rng(child)
        )
        yield times, states


def simulate_mttf(cfg: SimConfig) -> SimEstimate:
    """Sample mean of the time to first system failure."""
    return _ratio_estimate(
        (times, np.ones(times.size)) for times, _ in _first_passage_samples(cfg)
    )


def _regeneration_cycles(cfg: SimConfig):
    """Lengths and up times of the first UP3 -> UP3 cycles whose total
    length reaches the horizon, one chunk at a time.

    Cycles are drawn in chunks from successive children of the seed;
    chunks start small and double up to _CHUNK, so a model with very
    long cycles draws few of them.
    """
    tables = _jump_tables(cfg.params, ChainMode.AVAILABILITY)
    seeds = np.random.SeedSequence(cfg.seed)
    elapsed = 0.0
    size = _FIRST_CYCLE_CHUNK
    while elapsed < cfg.horizon:
        rng = np.random.default_rng(seeds.spawn(1)[0])
        length, up, _ = _passage(tables, (State.UP3,), size, rng)
        ends = elapsed + np.cumsum(length)
        # up to and including the cycle that reaches the horizon
        keep = int(np.searchsorted(ends, cfg.horizon)) + 1
        yield length[:keep], up[:keep]
        elapsed = ends[-1]
        size = min(2 * size, _CHUNK)


def simulate_availability(cfg: SimConfig) -> SimEstimate:
    """Long-run up fraction from iid regeneration cycles.

    The cycles run from UP3 back to UP3 and together cover at least the
    horizon. The estimate is total up time over total length, A = sum U
    / sum C, with standard error sqrt(sum (U - A C)^2 / (n (n - 1))) / mean C
    (zero for a single cycle). replications in the estimate is the cycle
    count n.
    """
    return _ratio_estimate(
        (up, length) for length, up in _regeneration_cycles(cfg)
    )
