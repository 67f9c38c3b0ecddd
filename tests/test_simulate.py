"""Monte Carlo simulators against analytic values and each other."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from fuzzrel import (
    DOWN_STATES,
    ChainMode,
    KernelEvaluationError,
    SimConfig,
    SimEstimate,
    State,
    SystemParams,
    ValidationError,
    build_generator,
    mttf,
    simulate_availability,
    simulate_mttf,
    steady_availability,
)
from fuzzrel import simulate
from fuzzrel.simulate import _first_passage_samples, _regeneration_cycles


def joined(chunks):
    """The per-chunk sample arrays of a sampler, each joined over chunks."""
    return tuple(np.concatenate(parts) for parts in zip(*chunks))


def params(lam=0.6, theta=0.2, mu=4.0, c=0.9, beta=2.0):
    return SystemParams(lam, theta, mu, c, beta)


MODAL = SystemParams(0.65, 0.25, 4.5, 0.9, 2.25)
# repair and reboot four and three decades faster than failure: 1 - A
# is 1.5e-6, so U - A C is tiny next to U and C
NEAR_ONE = SystemParams(0.65, 0.25, 1e4, 0.999, 1e3)


def full_array_estimate(u, c):
    """The ratio estimator and its standard error from whole sample
    arrays, with correctly rounded sums."""
    n = u.size
    mean = math.fsum(u) / math.fsum(c)
    sq = math.fsum((u - mean * c) ** 2)
    return mean, math.sqrt(sq / (n * (n - 1))) / (math.fsum(c) / n)


def ulps(x, k=8):
    """k units in the last place of x: the rounding a sum of constant
    samples or a dense solve leaves."""
    return k * np.spacing(abs(x))


def peak_bytes(fn, cfg):
    tracemalloc.start()
    try:
        fn(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConfigValidation:
    def test_rejects_bad_replications(self):
        with pytest.raises(ValidationError):
            SimConfig(params=params(), replications=0)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValidationError):
            SimConfig(params=params(), horizon=0.0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError):
            SimConfig(params=params(), seed=-1)

    @pytest.mark.parametrize("field", ["replications", "seed"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_counts(self, field, value):
        # int() of these raises ValueError or OverflowError, not the
        # typed error that names the field
        with pytest.raises(ValidationError, match=f"{field} must be"):
            SimConfig(params=params(), **{field: value})

    @pytest.mark.parametrize("sampler", [simulate_mttf, simulate_availability])
    def test_overflowing_rates_name_their_point(self, sampler):
        # 2 lambda + theta overflows, so the exit rate out of UP3 is inf
        p = params(lam=1e308, theta=1e308, mu=1.0, c=0.5, beta=1.0)
        with (
            np.errstate(all="ignore"),
            pytest.raises(KernelEvaluationError, match="^the jump chain is not finite at") as err,
        ):
            sampler(SimConfig(params=p, replications=100, horizon=10.0))
        assert err.value.point == vars(p)


class TestFirstPassage:
    def test_matches_pure_death_chain(self):
        cfg = SimConfig(
            params=params(lam=1.0, theta=0.0, mu=0.0, c=1.0),
            replications=40_000,
            seed=101,
        )
        est = simulate_mttf(cfg)
        assert abs(est.mean - 2.0) <= est.margin()
        assert est.replications == 40_000

    def test_matches_repairable_chain(self):
        cfg = SimConfig(
            params=params(lam=1.0, theta=0.0, mu=2.0, c=1.0),
            replications=40_000,
            seed=7,
        )
        est = simulate_mttf(cfg)
        assert abs(est.mean - 4.5) <= est.margin()

    def test_matches_partial_coverage_chain(self):
        p = params()
        cfg = SimConfig(params=p, replications=40_000, seed=23)
        est = simulate_mttf(cfg)
        assert abs(est.mean - mttf(p)) <= est.margin()

    def test_deterministic_across_runs(self):
        cfg = SimConfig(params=params(), replications=30_000, seed=5)
        assert simulate_mttf(cfg) == simulate_mttf(cfg)

    def test_chunking_invisible_to_the_estimate(self):
        # crosses the internal chunk boundary; mean stays a plain average
        cfg = SimConfig(params=params(), replications=70_000, seed=9)
        times, _ = joined(_first_passage_samples(cfg))
        est = simulate_mttf(cfg)
        assert est.mean == pytest.approx(times.mean(), rel=1e-12)

    def test_stream_is_pinned(self):
        # the sampled first passages themselves, not just their law: a
        # change of draw order would move every MTTF estimate per seed.
        # The absorbing-state counts pin the count draws on their own
        cfg = SimConfig(params=params(), replications=70_000, seed=9)
        times, finals = joined(_first_passage_samples(cfg))
        assert math.fsum(times) == 440724.2701863354
        assert times[0] == 3.8437649307214525
        assert times[-1] == 20.48494983277592
        assert np.bincount(finals).tolist() == [0, 0, 0, 13491, 45276, 11233]

    def test_full_coverage_absorbs_only_by_exhaustion(self):
        cfg = SimConfig(params=params(c=1.0), replications=5_000, seed=3)
        _, finals = joined(_first_passage_samples(cfg))
        assert set(np.unique(finals)) == {int(State.EXHAUSTED)}

    def test_near_one_matches_analytic_value_quickly(self):
        # repair four decades faster than failure: a passage makes about
        # 2,000 jumps, but the sampler draws counts, not jumps
        cfg = SimConfig(params=NEAR_ONE, replications=200_000, seed=41)
        started = time.perf_counter()
        est = simulate_mttf(cfg)
        assert time.perf_counter() - started < 1.0
        assert abs(est.mean - mttf(NEAR_ONE)) <= est.margin()

    def test_stiff_full_coverage_matches_analytic_value(self):
        # a visit to UP2 ends the passage with probability 2e-16, which
        # a stop probability formed as 1 - (continuation) would lose
        p = params(lam=1.0, theta=0.0, mu=1e8, c=1.0)
        est = simulate_mttf(SimConfig(params=p, replications=100_000, seed=43))
        assert abs(est.mean - mttf(p)) <= est.margin()

    @pytest.mark.parametrize(
        "simulate_fn, p, cause",
        [
            (simulate_mttf, params(lam=1.0, theta=0.0, mu=1e10, c=1.0),
             "a visit to UP2 ends the passage"),
            (simulate_availability, params(lam=1e9, theta=0.0, mu=1e-10, c=0.5),
             "UP2 -> UP3 and UP1 -> UP2"),
        ],
        ids=["mttf", "availability"],
    )
    def test_saturated_counts_raise_typed_error(self, simulate_fn, p, cause):
        # numpy's geometric would return 2**63 - 1 without a word
        with pytest.raises(ValidationError, match=f"{cause}.*overflow int64"):
            simulate_fn(SimConfig(params=p, replications=10, horizon=10.0))

    def test_zero_coverage_fails_unsafe_in_one_jump(self):
        p = params(lam=1.0, theta=0.5, c=0.0)
        cfg = SimConfig(params=p, replications=20_000, seed=13)
        times, finals = joined(_first_passage_samples(cfg))
        assert set(np.unique(finals)) == {int(State.UNSAFE1)}
        # one holding time at rate 2*lam + theta, held for its mean
        assert np.all(times == 1.0 / 2.5)
        est = simulate_mttf(cfg)
        assert est.std_error <= np.spacing(est.mean)
        assert abs(est.mean - mttf(p)) <= ulps(mttf(p))

    def test_constant_sample_has_zero_error(self):
        # every passage is one hold in UP3, so every sample is 1 / 2.5
        p = params(lam=1.0, theta=0.5, mu=2.0, c=0.0, beta=1.0)
        est = simulate_mttf(SimConfig(params=p, replications=1000, seed=13))
        assert est == SimEstimate(mean=1.0 / 2.5, std_error=0.0, replications=1000)


class TestAvailability:
    def test_matches_analytic_value(self):
        p = params()
        cfg = SimConfig(params=p, horizon=200_000.0, seed=29)
        est = simulate_availability(cfg)
        assert abs(est.mean - steady_availability(p)) <= est.margin()
        lengths, _ = joined(_regeneration_cycles(cfg))
        assert est.replications == lengths.size
        assert lengths.sum() >= cfg.horizon
        assert lengths[:-1].sum() < cfg.horizon

    def test_rare_failures_give_full_availability(self):
        p = params(lam=1e-9, theta=0.0, mu=1.0, c=1.0, beta=1.0)
        est = simulate_availability(SimConfig(params=p, horizon=10_000.0, seed=1))
        # the first cycle outlasts the horizon and never goes down
        assert est == SimEstimate(mean=1.0, std_error=0.0, replications=1)

    def test_deterministic_across_runs(self):
        cfg = SimConfig(params=params(), horizon=20_000.0, seed=17)
        assert simulate_availability(cfg) == simulate_availability(cfg)

    def test_zero_coverage_two_state_value(self):
        # every cycle holds once in UP3, at rate 2*lam + theta, and once
        # in UNSAFE1, at rate beta, each for its mean
        p = params(lam=0.6, theta=0.2, mu=4.0, c=0.0, beta=2.0)
        cfg = SimConfig(params=p, horizon=200_000.0, seed=31)
        lengths, up = joined(_regeneration_cycles(cfg))
        assert np.all(up == 1.0 / 1.4)
        assert np.all(lengths == 1.0 / 1.4 + 1.0 / 2.0)
        est = simulate_availability(cfg)
        assert est.std_error <= np.spacing(est.mean)
        assert abs(est.mean - 2.0 / 3.4) <= ulps(2.0 / 3.4)

    def test_constant_sample_has_zero_error(self):
        # every cycle is the same (length, up) pair, so the estimate is
        # its ratio
        p = params(lam=0.6, theta=0.2, mu=2.0, c=0.0, beta=2.0)
        cfg = SimConfig(params=p, horizon=1e3, seed=13)
        lengths, up = joined(_regeneration_cycles(cfg))
        est = simulate_availability(cfg)
        assert est.std_error == 0.0
        assert est.mean == up[0] / lengths[0]
        assert est.replications == lengths.size > 1

    def test_rejects_zero_repair(self):
        with pytest.raises(ValidationError):
            simulate_availability(
                SimConfig(params=params(mu=0.0), horizon=1_000.0)
            )

    def test_estimate_has_positive_error_bar(self):
        est = simulate_availability(
            SimConfig(params=params(), horizon=20_000.0, seed=2)
        )
        assert est.std_error > 0.0
        assert est.margin(2.0) == pytest.approx(2.0 * est.std_error)

    def test_full_coverage_never_unsafe(self):
        # UNSAFE1 and UNSAFE2 have exits but are never entered; c = 0,
        # where only UP3 and UNSAFE1 are entered, is the two-state test
        p = params(c=1.0)
        est = simulate_availability(SimConfig(params=p, horizon=20_000.0, seed=4))
        assert abs(est.mean - steady_availability(p)) <= est.margin()


class TestRunningSums:
    """The estimators keep per-chunk sums, not samples."""

    def test_mttf_matches_full_array_formulas(self):
        cfg = SimConfig(params=MODAL, replications=70_000, seed=9)
        times, _ = joined(_first_passage_samples(cfg))
        est = simulate_mttf(cfg)
        mean, se = full_array_estimate(times, np.ones(times.size))
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)
        assert est.replications == times.size

    @pytest.mark.parametrize("p", [MODAL, NEAR_ONE], ids=["modal", "near-one"])
    def test_availability_matches_full_array_formulas(self, p):
        cfg = SimConfig(params=p, horizon=100_000.0, seed=5)
        lengths, up = joined(_regeneration_cycles(cfg))
        assert lengths.size > simulate._CHUNK
        est = simulate_availability(cfg)
        mean, se = full_array_estimate(up, lengths)
        assert est.mean == pytest.approx(mean, rel=1e-12, abs=0.0)
        assert est.std_error == pytest.approx(se, rel=1e-12, abs=0.0)
        assert est.replications == lengths.size

    def test_single_passage_has_no_error_bar(self):
        cfg = SimConfig(params=MODAL, replications=1, seed=9)
        times, _ = joined(_first_passage_samples(cfg))
        assert simulate_mttf(cfg) == SimEstimate(times[0], 0.0, 1)

    def test_jump_tables_built_once_per_call(self, monkeypatch):
        calls = []
        build = simulate._jump_chain
        monkeypatch.setattr(
            simulate, "_jump_chain", lambda *a: calls.append(a) or build(*a)
        )
        simulate_mttf(SimConfig(params=MODAL, replications=140_000, seed=1))
        simulate_availability(SimConfig(params=MODAL, horizon=50_000.0, seed=1))
        assert len(calls) == 2

    def test_memory_flat_in_horizon(self):
        small, large = (
            peak_bytes(simulate_availability,
                       SimConfig(params=MODAL, horizon=h, seed=3))
            for h in (1e5, 1e6)
        )
        assert large <= 1.25 * small

    def test_memory_flat_in_replications(self):
        # half coverage keeps passages short, so 2e6 of them stay quick
        p = SystemParams(0.65, 0.25, 4.5, 0.5, 2.25)
        small, large = (
            peak_bytes(simulate_mttf, SimConfig(params=p, replications=n, seed=3))
            for n in (200_000, 2_000_000)
        )
        assert large <= 1.25 * small


SYSTEMS = pytest.mark.parametrize(
    "p",
    [SystemParams(0.65, 0.25, 4.5, 0.9, 2.25), SystemParams(0.65, 0.25, 4.5, 0.5, 0.5)],
    ids=["modal", "low-coverage-slow-reboot"],
)


class TestAvailabilityErrorBar:
    """The ratio estimator's standard error is calibrated: over fixed
    seeds, z = (estimate - analytic) / SE has mean near 0 and SD near 1."""

    SEEDS = range(200)

    @staticmethod
    def assert_standard(z):
        assert 0.85 <= np.std(z, ddof=1) <= 1.15
        assert abs(np.mean(z)) <= 0.25

    @SYSTEMS
    def test_z_scores_are_standard(self, p):
        want = steady_availability(p)
        z = []
        for seed in self.SEEDS:
            est = simulate_availability(SimConfig(params=p, horizon=2_000.0, seed=seed))
            z.append((est.mean - want) / est.std_error)
        self.assert_standard(z)

    @SYSTEMS
    def test_mttf_z_scores_are_standard(self, p):
        # MTTF is the ratio estimator with every C = 1
        want = mttf(p)
        z = []
        for seed in self.SEEDS:
            est = simulate_mttf(SimConfig(params=p, replications=2_000, seed=seed))
            z.append((est.mean - want) / est.std_error)
        self.assert_standard(z)


def up_block_moments(p):
    """E[T], E[T^2] and the absorption probabilities of the first
    passage from UP3, from the reliability chain's up block S by dense
    linear algebra: alpha (-S)^-1 1, 2 alpha (-S)^-2 1, alpha (-S)^-1 R."""
    q = build_generator(p, ChainMode.RELIABILITY).rates
    up, down = slice(0, 3), slice(3, 6)
    n = np.linalg.inv(-q[up, up])
    return n[0].sum(), 2.0 * (n @ n)[0].sum(), n[0] @ q[up, down]


def visit_time_moments(p):
    """E[T], E[T^2] and E[Var(T | N)] of the first passage from UP3 held
    for its conditional mean, T = sum N_i / q_i over the visit counts
    N_i to the up states, from the embedded jump chain's up block P by
    dense linear algebra: with F = (I - P)^-1, E[N_i] = F_0i and
    E[N_i N_j] = F_0i F_ij + F_0j F_ji - delta_ij F_0i. N_i iid Exp(q_i)
    holding times would add variance N_i / q_i^2."""
    rates = build_generator(p, ChainMode.RELIABILITY).rates[:3, :3]
    q = -np.diag(rates)
    jump = rates / q[:, None] + np.eye(3)
    f = np.linalg.inv(np.eye(3) - jump)
    pair = f[0][:, None] * f
    hold = 1.0 / q
    return f[0] @ hold, hold @ (pair + pair.T - np.diag(f[0])) @ hold, f[0] @ hold**2


def stationary_by_solve(p):
    """Stationary law of the availability chain from pi Q = 0, sum 1."""
    a = build_generator(p, ChainMode.AVAILABILITY).rates.T.copy()
    a[-1] = 1.0
    return np.linalg.solve(a, np.eye(len(State))[-1])


def near(sample, want):
    """The sample mean lies within 4 standard errors of want, and a
    constant sample's within rounding of it."""
    se = sample.std(ddof=1) / math.sqrt(sample.size)
    return abs(sample.mean() - want) <= 4.0 * se + ulps(want)


class TestSampledLaw:
    """The samples against dense linear algebra on the generator, not
    against the analytic closed forms, within 4 standard errors at fixed
    seeds: the law of the visit counts and absorbing states, and the
    chain's mean times."""

    MODELS = {
        "c=0": params(c=0.0),
        "c=0.5": params(c=0.5),
        "c=0.9": params(c=0.9),
        "c=1": params(c=1.0),
        # repair slower than failure: UP1 and EXHAUSTED are visited often
        "slow-repair": params(mu=0.3),
        "near-one": NEAR_ONE,
    }

    @pytest.mark.parametrize(
        "p", list(MODELS.values()) + [params(mu=0.0)], ids=list(MODELS) + ["mu=0"]
    )
    def test_first_passage_moments_and_absorption(self, p):
        m1, _, absorbed = up_block_moments(p)
        _, m2, _ = visit_time_moments(p)
        cfg = SimConfig(params=p, replications=200_000, seed=61)
        times, finals = joined(_first_passage_samples(cfg))
        assert near(times, m1)
        # the second moment of sum N_i / q_i checks the counts' joint law
        assert near(times**2, m2)
        for s, want in zip(DOWN_STATES, absorbed):
            # a state absorbing always or never must do so in every sample
            sd = math.sqrt(max(want * (1.0 - want), 0.0) / finals.size)
            assert abs(np.mean(finals == s) - want) <= 4.0 * sd + 1e-12

    @pytest.mark.parametrize("p", MODELS.values(), ids=MODELS)
    def test_cycle_length_and_up_time(self, p):
        pi = stationary_by_solve(p)
        # UP3 is left once per cycle, at rate q_UP3
        cycles_per_time = pi[State.UP3] * -build_generator(
            p, ChainMode.AVAILABILITY).rates[State.UP3, State.UP3]
        cfg = SimConfig(params=p, horizon=100_000.0, seed=67)
        lengths, up = joined(_regeneration_cycles(cfg))
        assert near(lengths, 1.0 / cycles_per_time)
        assert near(up, pi[:3].sum() / cycles_per_time)

    # at c = 0 every passage is one holding time, held for its mean
    COVERED = {name: p for name, p in MODELS.items() if name != "c=0"}

    @pytest.mark.parametrize("p", COVERED.values(), ids=COVERED)
    def test_conditioning_cannot_raise_the_variance(self, p):
        # law of total variance: Var T = Var E[T | N] + E[Var(T | N)],
        # so the passages held for their conditional means spread less
        # than the chain's, whose variance is m2 - m1^2
        m1, m2, _ = up_block_moments(p)
        _, held_m2, holding_var = visit_time_moments(p)
        assert m2 - held_m2 == pytest.approx(holding_var, rel=1e-8)
        cfg = SimConfig(params=p, replications=200_000, seed=61)
        times, _ = joined(_first_passage_samples(cfg))
        assert times.var(ddof=1) < m2 - m1**2
