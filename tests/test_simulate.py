"""Monte Carlo simulators against analytic values and each other."""

import math
import tracemalloc

import numpy as np
import pytest

from fuzzrel import (
    SimConfig,
    SimEstimate,
    State,
    SystemParams,
    ValidationError,
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
        # change of draw order would move every MTTF estimate per seed
        cfg = SimConfig(params=params(), replications=70_000, seed=9)
        times, _ = joined(_first_passage_samples(cfg))
        assert math.fsum(times) == 439477.79298381234
        assert times[0] == 13.278281658568059
        assert times[-1] == 8.800455300459252

    def test_full_coverage_absorbs_only_by_exhaustion(self):
        cfg = SimConfig(params=params(c=1.0), replications=5_000, seed=3)
        _, finals = joined(_first_passage_samples(cfg))
        assert set(np.unique(finals)) == {int(State.EXHAUSTED)}

    def test_zero_coverage_fails_unsafe_in_one_jump(self):
        p = params(lam=1.0, theta=0.5, c=0.0)
        cfg = SimConfig(params=p, replications=20_000, seed=13)
        times, finals = joined(_first_passage_samples(cfg))
        assert set(np.unique(finals)) == {int(State.UNSAFE1)}
        # single exponential stage at rate 2*lam + theta
        assert abs(times.mean() - 1.0 / 2.5) <= 3.0 * times.std() / np.sqrt(len(times))


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
        p = params(lam=0.6, theta=0.2, mu=4.0, c=0.0, beta=2.0)
        cfg = SimConfig(params=p, horizon=200_000.0, seed=31)
        est = simulate_availability(cfg)
        assert abs(est.mean - 2.0 / 3.4) <= est.margin()

    def test_sweep_cap_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(simulate, "_EXHAUSTION_SWEEPS", 1)
        with pytest.raises(ValidationError, match="did not reach UP3"):
            simulate_availability(SimConfig(params=params(), horizon=100.0))

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
        build = simulate._jump_tables
        monkeypatch.setattr(
            simulate, "_jump_tables", lambda *a: calls.append(a) or build(*a)
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


class TestAvailabilityErrorBar:
    """The ratio estimator's standard error is calibrated: over fixed
    seeds, z = (estimate - analytic) / SE has mean near 0 and SD near 1."""

    SEEDS = range(200)

    @pytest.mark.parametrize(
        "p",
        [SystemParams(0.65, 0.25, 4.5, 0.9, 2.25), SystemParams(0.65, 0.25, 4.5, 0.5, 0.5)],
        ids=["modal", "low-coverage-slow-reboot"],
    )
    def test_z_scores_are_standard(self, p):
        want = steady_availability(p)
        z = []
        for seed in self.SEEDS:
            est = simulate_availability(SimConfig(params=p, horizon=2_000.0, seed=seed))
            z.append((est.mean - want) / est.std_error)
        assert 0.85 <= np.std(z, ddof=1) <= 1.15
        assert abs(np.mean(z)) <= 0.25
