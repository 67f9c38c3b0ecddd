"""Monte Carlo cross-checks of the analytic characteristics.

MTTF samples first passages of the reliability chain from UP3 into the
down states. Availability samples iid UP3 -> UP3 cycles of the
availability chain (UP3 is a regeneration point) and returns the ratio
estimator of the long-run up fraction, total up time over total cycle
length, with its delta-method standard error. Both are deterministic in
the configured seed regardless of chunking.

Neither replays a path jump by jump. Every down state returns to the up
state it left, so the chain is a tree rooted at UP3, and a path's visit
count to each state follows from the jump probabilities: a geometric
count of visits to UP2, binomial splits of the excursions from it and,
in the availability chain, a negative binomial count of visits to
EXHAUSTED. The cost of a sample does not grow with the number of jumps
it stands for.

No holding time is drawn either. Given its visit counts N_i, a path's
time in state i is a sum of N_i iid Exp(q_i) holding times, and a sample
takes its conditional mean, N_i / q_i. This is discrete-time conversion
(Fox & Glynn, "Discrete-time conversion for simulating semi-Markov
processes", Oper. Res. Lett. 5, 1986). The visit counts and absorbing
states keep the law of the replayed chain, and the times keep its mean
but not its law: by the law of total variance their variance can only
fall, so the estimates stay unbiased and their standard errors shrink.
A model whose counts would overflow int64, with a stop probability per
visit below 2**-56, raises ValidationError naming that probability.

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
    ChainMode,
    State,
    SystemParams,
    UP_STATES,
    _not_finite,
    build_generator,
)

_CHUNK = 65536
_FIRST_CYCLE_CHUNK = 1024


def _is_whole(x) -> bool:
    """Whether x is an integer or a finite float without a fraction, so
    that NaN and infinity fail the check rather than int()."""
    return isinstance(x, (int, np.integer)) or (math.isfinite(x) and int(x) == x)


@dataclass(frozen=True)
class SimConfig:
    """Simulation settings.

    replications is the number of first passages the MTTF sampler draws.
    horizon is the time the availability sampler covers: it keeps the
    first regeneration cycles whose total length reaches it, where a
    cycle's length is the conditional mean of its time given its visit
    counts, not a sampled holding time.
    """

    params: SystemParams
    replications: int = 100_000
    horizon: float = 100_000.0
    seed: int = 0

    def __post_init__(self):
        if not _is_whole(self.replications) or self.replications < 1:
            raise ValidationError(
                f"replications must be a positive integer, got {self.replications}"
            )
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "horizon", float(self.horizon))
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise ValidationError(f"horizon must be > 0, got {self.horizon}")
        if not _is_whole(self.seed) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class SimEstimate:
    """Point estimate with its standard error, as the simulators return it."""

    mean: float
    std_error: float
    replications: int

    def margin(self, n_sigma: float = 3.0) -> float:
        return n_sigma * self.std_error


def _jump_chain(params: SystemParams, mode: ChainMode):
    """Exit rates q and jump probabilities P[s, t] = rate(s -> t) / q_s.

    Every entry is a ratio of nonnegative rates. The samplers build each
    stop and exit probability from them as sums of products, never as
    1 - p, so none cancels at stiff rates. States without exits have a
    zero row. Rates that overflow leave an exit rate not finite, and its
    row of P with it, which raises KernelEvaluationError naming the rates;
    a finite q bounds every rate of its row, so P is then finite too.
    """
    off = np.array(build_generator(params, mode).rates)
    np.fill_diagonal(off, 0.0)
    q = off.sum(axis=1)
    if not np.isfinite(q).all():
        raise _not_finite("the jump chain", {"exit rates": q.tolist()}, params)
    return q, off / np.where(q > 0.0, q, 1.0)[:, None]


def _check_counts(p: float, what: str) -> float:
    """p, if visit counts of mean up to 1/p fit int64.

    A geometric count is at most about 45 times its mean, so p must not
    fall below 2**-56. Past about 2**-63 numpy's geometric returns
    2**63 - 1 without a word, and its Poisson refuses the rate.
    """
    if p < 2.0**-56:
        raise ValidationError(
            f"{what} is {p:.3g}, below 2**-56: the simulated visit counts "
            f"would overflow int64"
        )
    return p


def _first_passages(chain, n: int, rng: np.random.Generator):
    """n first passages of the reliability chain from UP3 into the down
    states: their times and final states.

    A path holds in UP3 and leaves for UP2 with probability c, for
    UNSAFE1 otherwise. From UP2 it jumps to UP3, UP1 or UNSAFE2 with
    probabilities a, b and e; from UP1 to UP2 or EXHAUSTED with d and f;
    from UP3 to UNSAFE1 with u. Each visit to UP2 either continues, by a
    loop through UP1 (b d) or a return through UP3 (a c), or stops,
    through UP1 into EXHAUSTED (b f), into UNSAFE2 (e) or through UP3
    into UNSAFE1 (a u). So the UP2 visits are Geometric(stop), the
    continuations split binomially into loops and returns, and the last
    exit is categorical and independent of both.
    """
    q, p = chain
    up3, up2, up1 = UP_STATES
    a, b, e = p[up2, up3], p[up2, up1], p[up2, State.UNSAFE2]
    c, d = p[up3, up2], p[up1, up2]
    exits = np.array([b * p[up1, State.EXHAUSTED], e, a * p[up3, State.UNSAFE1]])
    # rounding can take the sum of the three just past 1
    stop = _check_counts(
        min(exits.sum(), 1.0), "the probability that a visit to UP2 ends the passage"
    )
    reach = np.flatnonzero(rng.random(n) < c)
    n2 = rng.geometric(stop, reach.size)
    # without repair nothing continues, and every split is of 0
    loops = rng.binomial(n2 - 1, b * d / (b * d + a * c or 1.0))
    # the last exit: through UP1, into UNSAFE2 or through UP3
    exit_ = rng.choice(3, reach.size, p=exits / stop)
    visits = [n2 - 1 - loops + (exit_ == 2), n2, loops + (exit_ == 0)]
    times = np.full(n, 1.0 / q[up3])
    times[reach] += (1.0 / q[list(UP_STATES)]) @ np.stack(visits, dtype=float)
    finals = np.full(n, int(State.UNSAFE1))
    finals[reach] = np.array([State.EXHAUSTED, State.UNSAFE2, State.UNSAFE1])[exit_]
    return times, finals


def _cycles(chain, n: int, rng: np.random.Generator):
    """n UP3 -> UP3 cycles of the availability chain: their lengths and
    up times.

    With the jump probabilities named as in _first_passages, a cycle
    holds once in UP3, then goes down through UNSAFE1 with probability
    u, or visits UP2 G ~ Geometric(a) times. Each of the G - 1
    excursions from UP2 is a trip to UP1 (with probability b / (b + e))
    or a detour through UNSAFE2. A trip visits EXHAUSTED Geometric(d) - 1
    times, so the K1 trips visit it NegBin(K1, d) times, drawn as
    Poisson(Gamma(K1) f / d).
    """
    q, p = chain
    up3, up2, up1 = UP_STATES
    a, b, e = p[up2, up3], p[up2, up1], p[up2, State.UNSAFE2]
    d, f = p[up1, up2], p[up1, State.EXHAUSTED]
    if p[up3, up2] > 0.0:
        # the counts of a cycle that reaches UP2 have means below 1 / (a d)
        _check_counts(a * d, "the product of the jump probabilities UP2 -> UP3 "
                      "and UP1 -> UP2")
    reached = rng.random(n) < p[up3, up2]
    reach = np.flatnonzero(reached)
    g = rng.geometric(a, reach.size)
    k1 = rng.binomial(g - 1, b / (b + e))
    n_ex = rng.poisson(rng.standard_gamma(k1) * (f / d))
    hold = 1.0 / q
    up = np.full(n, hold[up3])
    down = ~reached * hold[State.UNSAFE1]
    up[reach] += hold[up2] * g + hold[up1] * (k1 + n_ex)
    down[reach] += hold[State.EXHAUSTED] * n_ex + hold[State.UNSAFE2] * (g - 1 - k1)
    return up + down, up


def _ratio_estimate(chunks) -> SimEstimate:
    """Ratio estimator A = sum U / sum C over chunks of paired samples
    (U, C), with standard error sqrt(sum (U - A C)^2 / (n (n - 1))) /
    mean C (zero for a single pair).

    Only running sums are kept. The second moment is centred on the
    first pair (U0, C0) (Chan, Golub & LeVeque, Am. Stat. 1983): with
    e = U - U0 (C / C0), exactly 0 for a pair equal to the first, and
    d = sum e / sum C, A = U0 / C0 + d and
    sum (U - A C)^2 = sum e^2 - 2 d sum e C + d^2 sum C^2.
    So a constant sample has standard error 0 and mean U0 / C0 exactly.
    The raw form sum U^2 - 2 A sum U C + A^2 sum C^2 would cancel badly
    when U is close to A C, as it is for availability near 1.
    """
    n = 0
    sum_c = sum_e = sum_ee = sum_ec = sum_cc = 0.0
    for u, c in chunks:
        if n == 0:
            u0, c0 = u[0], c[0]
        e = u - u0 * (c / c0)
        n += u.size
        sum_c += float(c.sum())
        sum_e += float(e.sum())
        sum_ee += float(np.sum(e * e))
        sum_ec += float(np.sum(e * c))
        sum_cc += float(np.sum(c * c))
    d = sum_e / sum_c
    mean = float(u0 / c0) + d
    if n == 1:
        return SimEstimate(mean=mean, std_error=0.0, replications=1)
    sq = max(sum_ee - 2.0 * d * sum_ec + d * d * sum_cc, 0.0)
    std_error = math.sqrt(sq / (n * (n - 1))) / (sum_c / n)
    return SimEstimate(mean=mean, std_error=std_error, replications=n)


def _first_passage_samples(cfg: SimConfig):
    """First-passage times and absorbing states, one chunk at a time.

    Chunk k holds up to _CHUNK samples drawn from the k-th child of the
    seed.
    """
    chain = _jump_chain(cfg.params, ChainMode.RELIABILITY)
    n = cfg.replications
    seeds = np.random.SeedSequence(cfg.seed).spawn((n + _CHUNK - 1) // _CHUNK)
    for k, child in enumerate(seeds):
        size = min(_CHUNK, n - k * _CHUNK)
        yield _first_passages(chain, size, np.random.default_rng(child))


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
    chain = _jump_chain(cfg.params, ChainMode.AVAILABILITY)
    seeds = np.random.SeedSequence(cfg.seed)
    elapsed = 0.0
    size = _FIRST_CYCLE_CHUNK
    while elapsed < cfg.horizon:
        rng = np.random.default_rng(seeds.spawn(1)[0])
        length, up = _cycles(chain, size, rng)
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
