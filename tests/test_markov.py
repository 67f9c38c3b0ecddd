"""Crisp chain: generator structure, MTTF, Laplace identities, transients."""

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings, strategies as st

from fuzzrel import (
    ChainMode,
    DOWN_STATES,
    KernelEvaluationError,
    State,
    SystemParams,
    UP_STATES,
    ValidationError,
    build_generator,
    mttf,
    reliability_at,
    stationary_distribution,
    steady_availability,
)

from laplace_reference import failure_density_laplace, laplace_state_probs


def params(lam=0.6, theta=0.2, mu=4.0, c=0.9, beta=2.0):
    return SystemParams(
        failure_rate=lam,
        standby_failure_rate=theta,
        repair_rate=mu,
        coverage=c,
        reboot_rate=beta,
    )


def reference_generator(p, mode):
    """Independent assembly straight from the transition list."""
    lam, th, mu, c, beta = (
        p.failure_rate,
        p.standby_failure_rate,
        p.repair_rate,
        p.coverage,
        p.reboot_rate,
    )
    a = 2 * lam + th
    q = np.zeros((6, 6))
    q[State.UP3, State.UP2] = c * a
    q[State.UP3, State.UNSAFE1] = (1 - c) * a
    q[State.UP2, State.UP3] = mu
    q[State.UP2, State.UP1] = 2 * c * lam
    q[State.UP2, State.UNSAFE2] = 2 * (1 - c) * lam
    q[State.UP1, State.UP2] = mu
    q[State.UP1, State.EXHAUSTED] = lam
    if mode is ChainMode.AVAILABILITY:
        q[State.UNSAFE1, State.UP3] = beta
        q[State.UNSAFE2, State.UP2] = beta
        q[State.EXHAUSTED, State.UP1] = mu
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def closed_form_mttf(lam, th, mu, c):
    """MTTF from UP3 by first-step analysis, with a = 2 lam + th:

        m3 = 1/a + c m2
        (mu + 2 lam) m2 = 1 + mu m3 + 2 c lam m1
        (mu + lam) m1 = 1 + mu m2

    Eliminating m1 and m2 gives m3 = (D + a c N) / (a (D - c mu (mu + lam)))
    with D = (mu + 2 lam)(mu + lam) - 2 c lam mu and N = mu + lam + 2 c lam.
    Expanded, D = mu^2 + (3 - 2c) lam mu + 2 lam^2 and
    D - c mu (mu + lam) = (1 - c) mu (mu + 3 lam) + 2 lam^2: sums of
    nonnegative terms, so the value is accurate at any rates.
    """
    a = 2 * lam + th
    d = mu * mu + (3 - 2 * c) * lam * mu + 2 * lam * lam
    n = mu + lam + 2 * c * lam
    return (d + a * c * n) / (a * ((1 - c) * mu * (mu + 3 * lam) + 2 * lam * lam))


# repair seven orders of magnitude faster than failure
STIFF = SystemParams(0.37, 0.1, 1e7, 0.9, 1.0)

# Steady availability of stiff chains, (lambda, theta, mu, c, beta) and
# A, computed once with mpmath at 50 digits: the generator built from the
# same binary rates, its diagonal summed exactly, and the balance
# equations with the normalization solved by mpmath.lu_solve.
STIFF_AVAILABILITY = [
    ((6.8e8, 6.8e8, 12.388, 6.5e-5, 3.5e-3), 9.1463403228735224522e-9),
    ((1.8e8, 1.5e8, 41.4, 0.98, 6.3e-6), 2.2311779902349667395e-7),
    ((5e7, 1e7, 3.0, 0.2, 1e-5), 5.5970153952718119681e-8),
]

# Mission reliability of stiff chains, (lambda, theta, mu, c, beta), t and
# R(t), computed once with mpmath at 50 digits (80 agree) as the row sums
# of mpmath.expm of the exact up block times t. A 6x6 expm of the whole
# generator is off by 5.3e-3 on the first and 1.0e-10 on the second.
STIFF_RELIABILITY = [
    ((1e-6, 1e-7, 1e9, 0.99, 1.0), 1e6, 0.97921896456945957289),
    ((0.37, 0.1, 1e7, 0.9, 1.0), 1.0, 0.91943125679021327574),
]

# A full-coverage model with repair eight orders of magnitude faster than
# failure, on which an LU solve of the up block gave an MTTF of -3.17e17.
FAST_REPAIR = SystemParams(
    0.05651766880713847, 0.042444091026800114, 11544848.165413812, 1.0, 1.0
)

# MTTF at full coverage with fast repair, (lambda, theta, mu, c, beta) and
# m3, computed once with mpmath at 50 digits by mpmath.lu_solve of the 3x3
# first-step system of the up block.
FULL_COVERAGE_MTTF = [
    ((1e-6, 0.0, 1e9, 1.0, 1.0), 2.5000000000000078394e35),
    (tuple(vars(FAST_REPAIR).values()), 1.3418533265819764671e17),
]

# Partials of FAST_REPAIR's MTTF by lambda, theta and mu, by mpmath.diff
# of the same 50-digit solve.
FAST_REPAIR_MTTF_PARTIALS = (
    -6474523018016025209.8, -863042346012422346.31, 23245923983.335609889
)

# R of FAST_REPAIR at multiples of its MTTF literal above, computed once as
# the row sums of a 60-digit mpmath.expm of the exact up block times t.
FAST_REPAIR_RELIABILITY = [
    (0.5, 0.606530659712633424),
    (1.0, 0.367879441171442322),
    (2.0, 0.135335283236612692),
    (5.0, 0.0067379469990854671),
]

# R(t) at and near mu = 0, (lambda, theta, mu, c, beta), t and R(t),
# computed once as the row sums of a 60-digit mpmath.expm of the exact up
# block times t (80 digits agree). The eigendecomposition (_up_eigen)
# misses the second by 1.8e-10 relative, far more than its precision
# elsewhere.
NEAR_ZERO_REPAIR_RELIABILITY = [
    pytest.param(
        (31.62, 0.0, 0.0, 1e-13, 1.0), 0.5, 1.8518614120542764864344e-14, id="mu=0"
    ),
    pytest.param(
        (1.0, 0.0, 1e-12, 0.9, 1.0), 0.0675, 0.98646898599865515278390,
        marks=pytest.mark.xfail(strict=True, reason="_up_eigen is 1.8e-10 off"),
        id="mu<<lambda",
    ),
]

# the times of the `metrics` report, as multiples of the MTTF
REPORT_TIMES = (0.0, 0.5, 1.0, 2.0, 5.0)


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda x: 10.0**x)


@st.composite
def models(draw, lo=1e-6, hi=1e9):
    """SystemParams with lambda, mu and beta log-uniform over [lo, hi],
    theta a share of lambda and c anywhere in [0, 1]."""
    lam = draw(log_uniform(lo, hi))
    return SystemParams(
        lam,
        draw(st.floats(0.0, 1.0)) * lam,
        draw(log_uniform(lo, hi)),
        draw(st.floats(0.0, 1.0)),
        draw(log_uniform(lo, hi)),
    )


class TestParamsValidation:
    def test_rejects_nonpositive_failure_rate(self):
        with pytest.raises(ValidationError):
            params(lam=0.0)
        with pytest.raises(ValidationError):
            params(lam=-1.0)

    def test_rejects_standby_faster_than_active(self):
        with pytest.raises(ValidationError):
            params(lam=0.5, theta=0.6)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValidationError):
            params(theta=-0.1)
        with pytest.raises(ValidationError):
            params(mu=-1.0)
        with pytest.raises(ValidationError):
            params(beta=0.0)

    def test_rejects_coverage_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            params(c=-0.01)
        with pytest.raises(ValidationError):
            params(c=1.01)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            params(mu=float("nan"))

    @pytest.mark.parametrize(
        "value, shown",
        [
            (float("nan"), "nan"),
            (float("inf"), "inf"),
            (float("-inf"), "-inf"),
            (np.float64("nan"), "nan"),
            (np.float32("inf"), "inf"),
        ],
        ids=["nan", "inf", "-inf", "numpy-nan", "numpy-inf"],
    )
    @pytest.mark.parametrize("field", ["lam", "theta", "mu", "c", "beta"])
    def test_nonfinite_message_names_field_and_value(self, field, value, shown):
        name = {
            "lam": "failure_rate",
            "theta": "standby_failure_rate",
            "mu": "repair_rate",
            "c": "coverage",
            "beta": "reboot_rate",
        }[field]
        message = rf"^{name} must be finite, got {shown}$"
        with pytest.raises(ValidationError, match=message):
            params(**{field: value})

    def test_zero_repair_rate_allowed_for_first_passage(self):
        assert mttf(params(lam=1.0, theta=0.0, mu=0.0, c=1.0)) == pytest.approx(2.0)


def log_uniform_params(n, seed):
    """n models drawn as the wide-rates benchmark draws them: lambda, mu
    and beta log-uniform over 1e-6..1e9, theta = U lambda and c = U, then
    the same draws at c = 0 and c = 1."""
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(n):
        lam, mu, beta = 10.0 ** rng.uniform(-6.0, 9.0, size=3)
        drawn.append((lam, rng.uniform() * lam, mu, rng.uniform(), beta))
    return [
        SystemParams(lam, theta, mu, c, beta)
        for lam, theta, mu, drawn_c, beta in drawn
        for c in (drawn_c, 0.0, 1.0)
    ]


def assert_matches_reference(p, mode):
    """Off the diagonal, the rates of reference_generator bit for bit; on
    it, minus the exit rate to within 4 ulps."""
    rates, reference = build_generator(p, mode).rates, reference_generator(p, mode)
    off = ~np.eye(len(State), dtype=bool)
    np.testing.assert_array_equal(rates[off], reference[off])
    np.testing.assert_array_max_ulp(np.diag(rates), np.diag(reference), maxulp=4)


class TestGenerator:
    @pytest.mark.parametrize("mode", list(ChainMode))
    def test_matches_reference_assembly(self, mode):
        for p in [params(), *log_uniform_params(200, seed=30)]:
            assert_matches_reference(p, mode)

    @pytest.mark.parametrize("mode", list(ChainMode))
    def test_rows_sum_to_zero(self, mode):
        gen = build_generator(params(), mode)
        np.testing.assert_allclose(gen.rates.sum(axis=1), 0.0, atol=1e-12)

    def test_initial_mass_on_full_configuration(self):
        gen = build_generator(params())
        assert gen.initial[State.UP3] == 1.0
        assert gen.initial.sum() == 1.0

    def test_reliability_mode_absorbs_down_states(self):
        gen = build_generator(params(), ChainMode.RELIABILITY)
        for s in DOWN_STATES:
            assert np.all(gen.rates[s] == 0.0)

    def test_full_coverage_disables_unsafe_paths(self):
        gen = build_generator(params(c=1.0))
        assert gen.rates[State.UP3, State.UNSAFE1] == 0.0
        assert gen.rates[State.UP2, State.UNSAFE2] == 0.0

    def test_zero_coverage_routes_everything_unsafe(self):
        gen = build_generator(params(lam=1.0, theta=0.5, c=0.0))
        assert gen.rates[State.UP3, State.UNSAFE1] == pytest.approx(2.5)
        assert gen.rates[State.UP3, State.UP2] == 0.0

    def test_availability_mode_rejects_zero_repair(self):
        with pytest.raises(ValidationError):
            build_generator(params(mu=0.0), ChainMode.AVAILABILITY)

    @pytest.mark.parametrize("mode", list(ChainMode))
    def test_stiff_rates_assemble_exactly(self, mode):
        assert_matches_reference(STIFF, mode)

    def test_matrices_are_read_only(self):
        gen = build_generator(params())
        with pytest.raises(ValueError):
            gen.rates[0, 0] = 1.0

    def test_returned_arrays_are_read_only(self):
        # the records are plain: the functions that build them freeze them
        for mode in ChainMode:
            gen = build_generator(params(), mode)
            for array in (gen.rates, gen.initial):
                with pytest.raises(ValueError):
                    array[0] = 1.0


class TestMttf:
    def test_full_coverage_with_repair(self):
        assert mttf(params(lam=1.0, theta=0.0, mu=2.0, c=1.0)) == pytest.approx(
            4.5, abs=1e-12
        )

    def test_pure_death_chain(self):
        assert mttf(params(lam=1.0, theta=0.0, mu=0.0, c=1.0)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_zero_coverage_is_single_exponential_stage(self):
        rng = np.random.default_rng(20240817)
        for _ in range(10):
            lam = rng.uniform(0.2, 3.0)
            theta = rng.uniform(0.0, lam)
            mu = rng.uniform(0.0, 5.0)
            p = params(lam=lam, theta=theta, mu=mu, c=0.0)
            assert mttf(p) == pytest.approx(1.0 / (2 * lam + theta), abs=1e-12)

    def test_increasing_in_repair_rate_and_coverage(self):
        for lam, theta in [(0.5, 0.1), (1.0, 0.7), (2.0, 0.0)]:
            values_mu = [mttf(params(lam, theta, mu, 0.8, 2.0)) for mu in (1, 2, 4)]
            assert values_mu[0] < values_mu[1] < values_mu[2]
            values_c = [mttf(params(lam, theta, 2.0, c, 2.0)) for c in (0.3, 0.6, 0.9)]
            assert values_c[0] < values_c[1] < values_c[2]

    def test_closed_form_on_gentle_rates(self):
        assert mttf(params()) == pytest.approx(
            closed_form_mttf(0.6, 0.2, 4.0, 0.9), rel=1e-12
        )

    def test_stiff_chain_matches_closed_form(self):
        assert mttf(STIFF) == pytest.approx(
            closed_form_mttf(0.37, 0.1, 1e7, 0.9), rel=1e-9
        )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(models())
    def test_wide_rates_match_closed_form(self, p):
        assert mttf(p) == pytest.approx(
            closed_form_mttf(p.failure_rate, p.standby_failure_rate,
                             p.repair_rate, p.coverage),
            rel=1e-9, abs=0.0,
        )

    def test_full_coverage_fast_repair_matches_closed_form(self):
        p = params(lam=1e-6, theta=0.0, mu=1e9, c=1.0)
        assert mttf(p) == pytest.approx(
            closed_form_mttf(1e-6, 0.0, 1e9, 1.0), rel=1e-9
        )

    @pytest.mark.parametrize("rates, expected", FULL_COVERAGE_MTTF)
    def test_full_coverage_matches_50_digit_reference(self, rates, expected):
        assert mttf(SystemParams(*rates)) == pytest.approx(
            expected, rel=1e-14, abs=0.0
        )

    def test_agrees_with_expected_absorption_time_by_quadrature(self):
        p = params()
        value = mttf(p)
        ts = np.linspace(0.0, 50.0 * value, 4001)
        rel = [reliability_at(p, t) for t in ts]
        integral = scipy.integrate.simpson(rel, x=ts)
        assert integral == pytest.approx(value, rel=1e-4)


class TestLaplace:
    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValidationError):
            laplace_state_probs(params(), 0.0)
        with pytest.raises(ValidationError):
            laplace_state_probs(params(), -1.0)

    def test_conservation_at_random_s(self):
        p = params()
        rng = np.random.default_rng(7)
        for s in 10.0 ** rng.uniform(-2, 2, size=20):
            ptilde = laplace_state_probs(p, float(s))
            assert abs(s * ptilde.sum() - 1.0) < 1e-12

    def test_matches_independent_linear_solve(self):
        p = params()
        s = 0.1
        q = reference_generator(p, ChainMode.RELIABILITY)
        rhs = np.zeros(6)
        rhs[State.UP3] = 1.0
        expected = np.linalg.solve(s * np.eye(6) - q.T, rhs)
        ptilde = laplace_state_probs(p, s)
        np.testing.assert_allclose(ptilde, expected, rtol=1e-13)

    def test_zero_coverage_closed_form(self):
        # single exponential stage: ptilde[UP3] = 1 / (s + 2*lam + theta)
        p = params(lam=1.0, theta=0.5, c=0.0)
        ptilde = laplace_state_probs(p, 2.0)
        assert ptilde[State.UP3] == pytest.approx(1.0 / 4.5, rel=1e-13)

    def test_density_transform_tends_to_one_at_origin(self):
        assert failure_density_laplace(params(), 1e-8) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_density_transform_zero_coverage_closed_form(self):
        p = params(lam=1.0, theta=0.5, c=0.0)
        # Z(s) = a / (s + a) with a = 2*lam + theta
        assert failure_density_laplace(p, 2.0) == pytest.approx(2.5 / 4.5, rel=1e-12)

    def test_density_transform_matches_time_domain_quadrature(self):
        p = params()
        s = 0.5
        gen = build_generator(p, ChainMode.RELIABILITY)
        h = 0.002
        ts = np.arange(0.0, 60.0 + h, h)
        step = scipy.linalg.expm(gen.rates.T * h)
        probs = np.empty((len(ts), 6))
        v = gen.initial.copy()
        for i in range(len(ts)):
            probs[i] = v
            v = step @ v
        rel = probs[:, list(UP_STATES)].sum(axis=1)
        rel_transform = scipy.integrate.simpson(np.exp(-s * ts) * rel, x=ts)
        expected = 1.0 - s * rel_transform
        assert failure_density_laplace(p, s) == pytest.approx(expected, abs=1e-6)

    def test_neg_slope_at_origin_is_mttf(self):
        p = params()
        h = 1e-5
        slope = (
            failure_density_laplace(p, 2 * h) - failure_density_laplace(p, h)
        ) / h
        assert -slope == pytest.approx(mttf(p), rel=1e-3)


class TestTransient:
    def test_starts_at_certainty(self):
        assert reliability_at(params(), 0.0) == 1.0

    def test_zero_coverage_single_stage_decay(self):
        p = params(lam=1.0, theta=0.5, c=0.0)
        for t in (0.1, 0.5, 2.0):
            assert reliability_at(p, t) == pytest.approx(
                np.exp(-2.5 * t), rel=1e-10
            )

    def test_nonincreasing_in_time(self):
        p = params()
        ts = np.linspace(0.0, 20.0, 41)
        rel = [reliability_at(p, t) for t in ts]
        assert all(a >= b - 1e-12 for a, b in zip(rel, rel[1:]))

    def test_nonincreasing_near_rate_time_200(self):
        # rate * t from 180 to 220, rate being the chain's fastest exit,
        # mu + 2 lambda out of UP2
        p = params()
        rate = p.repair_rate + 2 * p.failure_rate
        ts = np.linspace(0.9, 1.1, 41) * 200.0 / rate
        rel = [reliability_at(p, t) for t in ts]
        assert all(a >= b for a, b in zip(rel, rel[1:]))
        assert rel[-1] < rel[0]

    def test_rejects_negative_time(self):
        with pytest.raises(ValidationError):
            reliability_at(params(), -0.1)

    def test_long_run_reliability_vanishes(self):
        assert reliability_at(params(), 2000.0) < 1e-9


class TestSteadyAvailability:
    def test_stationary_distribution_is_proper(self):
        pi = stationary_distribution(params())
        assert pi.min() >= 0.0
        assert abs(pi.sum() - 1.0) < 1e-12

    def test_stationary_distribution_solves_balance(self):
        p = params()
        pi = stationary_distribution(p)
        gen = build_generator(p, ChainMode.AVAILABILITY)
        np.testing.assert_allclose(pi @ gen.rates, 0.0, atol=1e-12)

    def test_rare_failures_give_full_availability(self):
        p = params(lam=1e-9, theta=0.0, mu=1.0, c=1.0, beta=1.0)
        assert steady_availability(p) == pytest.approx(1.0, abs=1e-6)
        assert steady_availability(p) <= 1.0

    @pytest.mark.parametrize("rates, expected", STIFF_AVAILABILITY)
    def test_stiff_chains_match_50_digit_reference(self, rates, expected):
        assert steady_availability(SystemParams(*rates)) == pytest.approx(
            expected, rel=1e-14, abs=0.0
        )

    def test_zero_coverage_two_state_closed_form(self):
        p = params(lam=0.6, theta=0.2, mu=4.0, c=0.0, beta=2.0)
        # only the full configuration and the unsafe condition are visited
        expected = 2.0 / (2.0 + 1.4)
        assert steady_availability(p) == pytest.approx(expected, rel=1e-12)
        pi = stationary_distribution(p)
        assert pi[State.UP2] == 0.0
        assert pi[State.EXHAUSTED] == 0.0

    def test_full_coverage_skips_unsafe_states(self):
        pi = stationary_distribution(params(c=1.0))
        assert pi[State.UNSAFE1] == 0.0
        assert pi[State.UNSAFE2] == 0.0
        assert pi[State.EXHAUSTED] > 0.0

    def test_monotone_in_repair_coverage_and_reboot(self):
        base = dict(lam=0.8, theta=0.3, c=0.7, beta=1.5)
        a_mu = [steady_availability(params(**base, mu=mu)) for mu in (1, 2, 4)]
        assert a_mu[0] < a_mu[1] < a_mu[2]
        a_c = [
            steady_availability(params(lam=0.8, theta=0.3, mu=2.0, c=c, beta=1.5))
            for c in (0.2, 0.5, 0.8)
        ]
        assert a_c[0] < a_c[1] < a_c[2]
        a_b = [
            steady_availability(params(lam=0.8, theta=0.3, mu=2.0, c=0.7, beta=b))
            for b in (0.5, 1.5, 4.0)
        ]
        assert a_b[0] < a_b[1] < a_b[2]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(models(), st.sampled_from(["reboot_rate", "failure_rate"]),
           log_uniform(1.0, 1e3))
    def test_monotone_in_reboot_and_failure_rates(self, p, rate, factor):
        # faster reboots cannot lower A, more failures cannot raise it
        grown = SystemParams(**{**vars(p), rate: getattr(p, rate) * factor})
        change = steady_availability(grown) - steady_availability(p)
        if rate == "failure_rate":
            assert change <= 1e-12
        else:
            assert change >= -1e-12

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(models(), log_uniform(1.0, 1e3))
    def test_full_coverage_monotone_in_repair_rate(self, p, factor):
        p = SystemParams(**{**vars(p), "coverage": 1.0})
        grown = SystemParams(**{**vars(p), "repair_rate": p.repair_rate * factor})
        assert steady_availability(grown) - steady_availability(p) >= -1e-12

    def test_partial_coverage_not_monotone_in_repair_rate(self):
        # UP1 fails only into EXHAUSTED, which repair leaves quickly, while
        # uncovered failures from UP3 and UP2 wait for a reboot. Faster
        # repair trades time in UP1 for time in UP3, and as mu grows A
        # falls to beta / (beta + (1 - c)(2 lam + theta)) = 0.5 here.
        a = [
            steady_availability(params(lam=1.0, theta=0.0, mu=mu, c=0.5, beta=1.0))
            for mu in (1.0, 3.0, 10.0, 1e3)
        ]
        assert a[0] < a[1] > a[2] > a[3]
        assert a[0] == pytest.approx(0.5, rel=1e-12)
        assert a[3] == pytest.approx(0.5, rel=1e-5)

    def test_rejects_zero_repair_rate(self):
        with pytest.raises(ValidationError):
            steady_availability(params(mu=0.0))

    def test_stiff_chain_is_a_probability(self):
        assert 0.0 <= steady_availability(STIFF) <= 1.0


def test_kernels_build_no_validated_generator(monkeypatch):
    import fuzzrel.markov

    def refuse(*args, **kwargs):
        raise AssertionError("a kernel built a GeneratorMatrix")

    monkeypatch.setattr(fuzzrel.markov, "GeneratorMatrix", refuse)
    p = params()
    mttf(p)
    steady_availability(p)
    reliability_at(p, 3.0)


# lambda 1e200 against mu 1e-200 overflows the up masses, and every
# metric and the stationary law are NaN there; so is MTTF at lambda
# 1e-170 without repair
@pytest.mark.parametrize(
    "metric, params",
    [
        (mttf, SystemParams(1e200, 0.0, 1e-200, 0.5, 1.0)),
        (mttf, SystemParams(1e-170, 0.0, 0.0, 0.5, 1.0)),
        (steady_availability, SystemParams(1e200, 0.0, 1e-200, 0.5, 1.0)),
        (lambda p: reliability_at(p, 1.0), SystemParams(1e200, 0.0, 1e-200, 0.5, 1.0)),
        (stationary_distribution, SystemParams(1e200, 0.0, 1e-200, 0.5, 1.0)),
    ],
    ids=[
        "mttf",
        "mttf-no-repair",
        "availability",
        "reliability",
        "stationary-law",
    ],
)
def test_non_finite_crisp_metric_names_its_rates(metric, params):
    with np.errstate(all="ignore"), pytest.raises(KernelEvaluationError) as err:
        metric(params)
    assert err.value.point == vars(params)
    assert f"is not finite at {vars(params)}" in str(err.value)


@pytest.mark.parametrize("kind", ["mttf", "availability", "reliability"])
def test_batched_kernels_match_single_rows(kind):
    from fuzzrel import markov

    rng = np.random.default_rng(11)
    lam = 10.0 ** rng.uniform(-2, 2, 16)
    rates = np.column_stack(
        [
            lam,
            rng.uniform(0, 1, 16) * lam,
            10.0 ** rng.uniform(-2, 2, 16),
            rng.uniform(0, 1, 16),
            10.0 ** rng.uniform(-2, 2, 16),
        ]
    )
    batched, single = {
        "mttf": (markov._mttf_values, mttf),
        "availability": (markov._availability_values, steady_availability),
        "reliability": (
            lambda r: markov._reliability_values(r, 0.7),
            lambda p: reliability_at(p, 0.7),
        ),
    }[kind]
    expected = [single(SystemParams(*row)) for row in rates]
    np.testing.assert_allclose(batched(rates), expected, rtol=1e-13)


@st.composite
def rate_rows(draw, repair=False):
    """Raw rate rows (5,): lambda, mu and beta log-uniform over 1e-6..1e9,
    theta a share of lambda, c in [0, 1] with both ends drawn often, and
    mu = 0 unless repair is required."""
    lam = draw(log_uniform(1e-6, 1e9))
    mu = log_uniform(1e-6, 1e9)
    return np.array([
        lam,
        draw(st.floats(0.0, 1.0)) * lam,
        draw(mu if repair else st.one_of(st.just(0.0), mu)),
        draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
        draw(log_uniform(1e-6, 1e9)),
    ])


def rate_stacks(repair=False):
    """A row and a stack (N, 5) that holds it at a drawn place."""
    return st.lists(rate_rows(repair), min_size=1, max_size=5).flatmap(
        lambda rows: st.tuples(st.just(np.array(rows)), st.integers(0, len(rows) - 1))
    )


class TestOneKernelPath:
    """A crisp call runs each kernel on one row (5,), the bounds search on
    stacks (N, 5): the same body, so one row gives exactly what it gives
    inside any stack."""

    @pytest.mark.parametrize("kind", ["mttf", "stationary", "availability", "reliability"])
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_row_equals_its_place_in_a_stack(self, kind, data):
        from fuzzrel import markov

        stack, i = data.draw(rate_stacks(repair=kind in ("stationary", "availability")))
        kernel = {
            "mttf": markov._mttf_values,
            "stationary": markov._stationary,
            "availability": markov._availability_values,
            "reliability": lambda r: markov._reliability_values(
                r, np.array(REPORT_TIMES) * markov._mttf_values(stack[i])
            ),
        }[kind]
        row, in_stack = kernel(stack[i]), kernel(stack)[i]
        assert np.shape(row) == np.shape(in_stack)
        np.testing.assert_array_equal(row, in_stack)


def reference_up_block(rates):
    """S, d and M = D (dB/dmu) D^-1 at stacked rows as assembled from the
    whole generator: B is _generators' up block, d the square roots of
    _stationary's up masses, S = D B D^-1 with off-diagonals
    sqrt(B[i, j]) sqrt(B[j, i]), and M[i, j] = (dB/dmu)[i, j] / B[i, j]
    S[i, j]."""
    from fuzzrel import markov

    up = markov._UP
    b = markov._generators(rates, ChainMode.RELIABILITY)[:, up, up]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = np.sqrt(markov._stationary(rates)[:, up])
    d[~np.isfinite(d).all(axis=1)] = 0.0
    s = b.copy()
    for i, j in ((0, 1), (1, 2)):
        s[:, i, j] = s[:, j, i] = np.sqrt(b[:, i, j]) * np.sqrt(b[:, j, i])
    e = markov._UP_BLOCK_MU_DIRECTION
    m = np.divide(e, b, out=np.zeros_like(b), where=b != 0.0) * s
    return s, d, m


class TestUpBlockAssembly:
    # a few ulps: each side rounds a handful of products, sums and roots
    # of nonnegative terms, in a different order. At c near the smallest
    # double, the reference's c a, 2 c lambda and up masses underflow, and
    # the entries built on them, below sqrt(tiny) sqrt(mu) ~ 5e-150, lose
    # what the rows written from the rates keep
    RTOL, ATOL = 8 * np.finfo(float).eps, 1e-148

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rate_stacks())
    def test_written_from_rates_matches_generator_assembly(self, drawn):
        from fuzzrel import markov

        rates, _ = drawn
        s, d, m = reference_up_block(rates)
        eig = markov._up_eigen(rates)
        tol = dict(rtol=self.RTOL, atol=self.ATOL)
        np.testing.assert_allclose(eig.s, s, **tol)
        np.testing.assert_allclose(eig.d, d, **tol)
        ok = eig.ok
        np.testing.assert_allclose(markov._up_mu_direction(eig.s, rates[:, 2])[ok], m[ok], **tol)
        assert np.array_equal(ok, rates[:, 2] > 0.0)
        off = eig.s[rates[:, 3] == 0.0][:, [0, 1, 1, 2], [1, 0, 2, 1]]
        assert np.all(off == 0.0)


def up_block_reliability(p, t):
    """1^T expm(B t) from UP3, B the up block of the reference generator."""
    up = list(UP_STATES)
    block = reference_generator(p, ChainMode.RELIABILITY)[np.ix_(up, up)]
    return scipy.linalg.expm(block * t)[0].sum()


def pure_death_reliability(lam, th, c, t):
    """R(t) without repair. UP3, UP2 and UP1 are left at the distinct
    rates r = (2 lam + th, 2 lam, lam), and covered failures step down the
    line, so the mass in stage i is the product of the step rates into it
    times sum_j exp(-r_j t) / prod_{m != j} (r_m - r_j), over j, m <= i."""
    rates = (2 * lam + th, 2 * lam, lam)
    steps = (c * rates[0], 2 * c * lam)
    total, reach = 0.0, 1.0
    for i in range(3):
        total += reach * sum(
            np.exp(-rates[j] * t)
            / np.prod([rates[m] - rates[j] for m in range(i + 1) if m != j])
            for j in range(i + 1)
        )
        if i < 2:
            reach *= steps[i]
    return total


class TestReliabilityKernel:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(models())
    def test_report_times_give_a_survival_function(self, p):
        from fuzzrel import markov

        times = np.array(REPORT_TIMES) * mttf(p)
        r = markov._reliability_values(markov._rates(p), times)
        assert r[0] == 1.0
        assert np.all((0.0 <= r) & (r <= 1.0))
        assert np.all(np.diff(r) <= 0.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(models(1e-2, 1e2), st.sampled_from(REPORT_TIMES[1:]))
    def test_moderate_rates_match_up_block_expm(self, p, factor):
        t = factor * mttf(p)
        assert reliability_at(p, t) == pytest.approx(
            up_block_reliability(p, t), rel=1e-13, abs=1e-13
        )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(models(), st.sampled_from(REPORT_TIMES[1:]))
    def test_zero_coverage_single_exponential(self, p, factor):
        p = SystemParams(**{**vars(p), "coverage": 0.0})
        t = factor * mttf(p)
        a = 2 * p.failure_rate + p.standby_failure_rate
        assert reliability_at(p, t) == pytest.approx(np.exp(-a * t), rel=1e-13)

    @pytest.mark.parametrize("c", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 8.0])
    def test_zero_repair_pure_death_closed_form(self, c, t):
        p = params(lam=0.6, theta=0.2, mu=0.0, c=c)
        expected = pure_death_reliability(0.6, 0.2, c, t)
        assert reliability_at(p, t) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("rates, t, expected", STIFF_RELIABILITY)
    def test_stiff_chains_match_50_digit_reference(self, rates, t, expected):
        assert reliability_at(SystemParams(*rates), t) == pytest.approx(
            expected, rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize("rates, t, expected", NEAR_ZERO_REPAIR_RELIABILITY)
    def test_near_zero_repair_matches_60_digit_reference(self, rates, t, expected):
        assert reliability_at(SystemParams(*rates), t) == pytest.approx(
            expected, rel=1e-13, abs=0.0
        )

    def test_full_coverage_fast_repair_matches_60_digit_reference(self):
        # eigh alone resolves eigenvalues only to about eps ||S||, far above
        # the slowest decay rate here; that rate comes from det(-B)
        factors, expected = zip(*FAST_REPAIR_RELIABILITY)
        times = np.array(factors) * FULL_COVERAGE_MTTF[1][1]
        r = [reliability_at(FAST_REPAIR, t) for t in times]
        np.testing.assert_allclose(r, expected, rtol=1e-12)


def mu_partial(kind, rates):
    """dMTTF/dmu or dA/dmu from markov's slope numerators, with the
    factors their docstrings drop put back: MTTF' = slope / (a E^2) and
    A' = beta a slope / (U + V)^2."""
    from fuzzrel import markov

    lam, theta, mu, c, beta = rates.T
    a = 2.0 * lam + theta

    def at_mu(coeffs):
        return sum(k * mu**p for p, k in enumerate(coeffs[::-1]))

    if kind == "mttf":
        e = (1.0 - c) * mu * (mu + 3.0 * lam) + 2.0 * lam * lam
        return at_mu(markov._mttf_mu_slope(rates)) / (a * e * e)
    u = beta * (mu**3 + c * a * mu**2 + 2.0 * c * c * a * lam * mu)
    v = a * ((1.0 - c) * mu**3 + 2.0 * c * (1.0 - c) * lam * mu**2
             + 2.0 * c * c * lam * lam * beta)
    return beta * a * at_mu(markov._availability_mu_slope(rates)) / (u + v) ** 2


class TestSensitivities:
    """Partials of each metric against central differences: the mu partial
    of R(t) and of the MTTF and availability slope numerators, and the
    signs the bounds search takes as proven for the other rates
    (test_bounds.TestProofs)."""

    FIELDS = ("failure_rate", "standby_failure_rate", "repair_rate", "reboot_rate")
    # proven signs of the lambda, theta and beta partials
    SIGNS = {
        "mttf": (-1, -1, None, 0),
        "availability": (-1, -1, None, 1),
        "reliability": (-1, -1, None, 0),
    }

    @staticmethod
    def central(kernel, base, field):
        x = getattr(base, field)
        h = 1e-6 * x
        up = kernel(SystemParams(**{**vars(base), field: x + h}))
        down = kernel(SystemParams(**{**vars(base), field: x - h}))
        return (up - down) / (2 * h)

    @pytest.mark.parametrize("c", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("kind", ["mttf", "availability", "reliability"])
    def test_partials_match_central_differences(self, kind, c):
        from fuzzrel import markov

        t = 2.0
        kernel = {
            "mttf": mttf,
            "availability": steady_availability,
            "reliability": lambda p: reliability_at(p, t),
        }[kind]
        points = np.array([(0.6, 0.2, 4.0, c, 2.0), (0.37, 0.1, 0.8, c, 5.0)])
        if kind == "reliability":
            values, partials = markov._reliability_sensitivities(points, t)
        else:
            partials = mu_partial(kind, points)
        for row, point in enumerate(points):
            base = params(*point)
            if kind == "reliability":
                assert values[row] == pytest.approx(kernel(base), rel=1e-12)
            for axis, field in enumerate(self.FIELDS):
                central = self.central(kernel, base, field)
                if field == "repair_rate":
                    assert central == pytest.approx(partials[row], rel=1e-5, abs=1e-8)
                    continue
                sign = self.SIGNS[kind][axis]
                assert sign * central >= 0.0 if sign else central == 0.0

    def test_full_coverage_fast_repair_mttf_partials(self):
        # at c = 1 the slope numerator is a sum of positive terms, and the
        # mu partial keeps the full precision of the 50-digit reference
        from fuzzrel import markov

        rates = markov._rates(FAST_REPAIR)[None]
        assert mu_partial("mttf", rates)[0] == pytest.approx(
            FAST_REPAIR_MTTF_PARTIALS[2], rel=1e-14
        )

    @pytest.mark.parametrize(
        "mu, expected",
        [(2.09e9, 1.519254416325298222867174e-10),
         (19282132082.614647, 2.339937869078345053180825e-13)],
    )
    def test_full_coverage_fast_repair_reliability_partial(self, mu, expected):
        # eigh resolves the slow mode's eigenvalue derivative only to about
        # eps ||S||: taken from it, the partial was 99 times too large at mu
        # 2.09e9 and of the wrong sign at 1.9e10. det(-B) gives it to full
        # precision. expected: mpmath.diff of a 150-digit expm
        from fuzzrel import markov

        point = np.array([[1.252573406797911, 0.5557640952454194, mu, 1.0, 1.0]])
        _, partials = markov._reliability_sensitivities(point, 8.752545884375384e16)
        assert partials[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_values_equal_the_values_kernel(self, t):
        # the bounds search compares R at a turn, from the values kernel,
        # with R at the ends, from this one: both sum R alike, so they
        # agree bit for bit; one row in ten has mu = 0
        from fuzzrel import markov

        rng = np.random.default_rng(29)
        n = 2000
        lam = 10.0 ** rng.uniform(-3, 3, n)
        mu = np.where(np.arange(n) % 10 == 0, 0.0, 10.0 ** rng.uniform(-3, 3, n))
        rows = np.column_stack(
            [lam, rng.uniform(0, 1, n) * lam, mu, rng.uniform(0, 1, n), np.ones(n)]
        )
        values, _ = markov._reliability_sensitivities(rows, t)
        np.testing.assert_array_equal(values, markov._reliability_values(rows, t))

    @pytest.mark.parametrize("t", [1e-6, 1.0, 1e9])
    def test_values_equal_the_values_kernel_without_repair(self, t):
        # mu = 0 rows take R from expm(B t) in both kernels, whether stacked
        # or one at a time; only the partial comes from the augmented block
        from fuzzrel import markov

        rng = np.random.default_rng(31)
        n = 150
        lam = 10.0 ** rng.uniform(-3, 2, n) / t
        rows = np.column_stack(
            [lam, rng.uniform(0, 1, n) * lam, np.zeros(n), rng.uniform(0, 1, n), np.ones(n)]
        )
        values, _ = markov._reliability_sensitivities(rows, t)
        np.testing.assert_array_equal(values, markov._reliability_values(rows, t))
        singles = [reliability_at(SystemParams(*row), t) for row in rows]
        np.testing.assert_array_equal(values, singles)

    @pytest.mark.parametrize(
        "point",
        [
            (0.6, 0.2, 0.0, 0.9, 2.0),
            (0.6, 0.0, 0.0, 0.5, 2.0),
            (0.6, 0.2, 4.0, 0.0, 2.0),
            (1e-6, 1e-7, 1e9, 0.0, 1.0),
            (1e-6, 1e-7, 1e9, 0.99, 1.0),
        ],
        ids=["mu=0", "mu=0,theta=0", "c=0", "c=0,stiff", "stiff"],
    )
    def test_reliability_partials_at_the_edges(self, point):
        from fuzzrel import markov

        t = 1.0 / point[0]
        values, partials = markov._reliability_sensitivities(np.array([point]), t)
        base = params(*point)
        assert values[0] == pytest.approx(reliability_at(base, t), rel=1e-12)
        x = base.repair_rate
        # a rate of zero cannot step down: second-order one-sided, with a
        # step long enough that rounding stays below its O(h^2) error
        h = 1e-6 * x or 1e-4 * base.failure_rate
        if x == 0.0:
            steps, weights = (0, 1, 2), (-3, 4, -1)
        else:
            steps, weights = (-1, 1), (-1, 1)
        expected = sum(
            w * reliability_at(SystemParams(**{**vars(base), "repair_rate": mu}), t)
            for mu, w in zip(x + np.array(steps) * h, weights)
        ) / (2 * h)
        assert partials[0] == pytest.approx(expected, rel=1e-4, abs=1e-8)
