"""Acceptance gate: one test per shipped criterion, one printed line each.

Every criterion prints exactly one PASS/FAIL line (outside pytest's
capture) naming the tolerance it was held to, so a teed test log doubles
as the acceptance record. Checks accumulate into a failure list and the
line is printed before the assertion fires, so a red criterion still
reports itself.
"""

import time

import numpy as np
import scipy.integrate

from fuzzrel import (
    FuzzyNumber,
    FuzzySystemParams,
    Interval,
    MTBF,
    MembershipCurve,
    SimConfig,
    SystemParams,
    build_table,
    calibrate_coverage,
    characteristic_bounds,
    invert_query,
    membership_curve,
    mttf,
    reliability_at,
    required_parameter_range,
    simulate_availability,
    simulate_mttf,
    steady_availability,
)

from grid_reference import brute_force_bounds
from laplace_reference import failure_density_laplace, laplace_state_probs
from test_bounds import ALPHAS_11, REFERENCE_MTBF_BOUNDS, demo_params


def _gate(capsys, number, description, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"{status} criterion {number}: {description}")
    assert not failures, "\n".join(failures)


def _check(failures, condition, message):
    if not condition:
        failures.append(message)


def test_criterion_1_parameter_cuts(capsys):
    """Parameter cut columns reproduce the reference table to 2 decimals."""
    failures = []
    fp = demo_params()
    for alpha in ALPHAS_11:
        cuts = {
            "lambda": fp.failure_rate.alpha_cut(alpha),
            "theta": fp.standby_failure_rate.alpha_cut(alpha),
            "mu": fp.repair_rate.alpha_cut(alpha),
        }
        expected = {
            "lambda": (0.5 + 0.1 * alpha, 0.8 - 0.1 * alpha),
            "theta": (0.1 + 0.1 * alpha, 0.4 - 0.1 * alpha),
            "mu": (3.0 + alpha, 6.0 - alpha),
        }
        for name, (lo, hi) in expected.items():
            _check(
                failures,
                round(cuts[name].lo, 2) == round(lo, 2)
                and round(cuts[name].hi, 2) == round(hi, 2),
                f"{name} cut at alpha={alpha}: {cuts[name]} != [{lo}, {hi}]",
            )
    _gate(
        capsys, 1,
        "parameter alpha-cuts match the reference table at all 11 levels "
        "(2 decimals)",
        failures,
    )


def test_criterion_2_calibrated_reference_bounds(capsys):
    """Coverage calibrated on the alpha=1 anchor reproduces all 11 rows."""
    failures = []
    started = time.monotonic()
    fp = demo_params(coverage=0.5)  # deliberately wrong starting coverage
    anchor = Interval(5.0669, 6.5424)
    result = calibrate_coverage(fp, MTBF, 1.0, anchor)
    _check(
        failures,
        0.0 <= result.coverage <= 1.0,
        f"calibrated coverage {result.coverage} outside [0, 1]",
    )
    curve = membership_curve(fp.with_coverage(result.coverage), MTBF, ALPHAS_11)
    worst = 0.0
    for alpha, iv in zip(curve.alphas, curve.intervals):
        lo, hi = REFERENCE_MTBF_BOUNDS[round(alpha, 1)]
        worst = max(worst, abs(iv.lo - lo), abs(iv.hi - hi))
        _check(
            failures,
            abs(iv.lo - lo) <= 5e-3 and abs(iv.hi - hi) <= 5e-3,
            f"bounds at alpha={alpha}: [{iv.lo:.5f}, {iv.hi:.5f}] vs "
            f"[{lo}, {hi}] beyond 5e-3",
        )
    elapsed = time.monotonic() - started
    _check(failures, elapsed < 60.0, f"calibration took {elapsed:.1f}s, limit 60s")
    _gate(
        capsys, 2,
        f"calibrated coverage {result.coverage:.6f} reproduces all 11 "
        f"reference rows (abs 5e-3, worst {worst:.2e}, {elapsed:.1f}s < 60s)",
        failures,
    )


def test_criterion_3_nlp_vs_grid(capsys):
    """Optimizer bounds agree with an exhaustive grid; extremes at corners."""
    failures = []
    fp = demo_params()
    for alpha in (0.0, 0.3, 0.5, 0.8, 1.0):
        nlp = characteristic_bounds(fp, MTBF, alpha)
        grid = brute_force_bounds(fp, MTBF, alpha, 21)
        for side, nv, gv in (
            ("lower", nlp.bounds.lo, grid.bounds.lo),
            ("upper", nlp.bounds.hi, grid.bounds.hi),
        ):
            rel = abs(nv - gv) / max(abs(gv), 1e-30)
            _check(
                failures,
                rel <= 1e-4,
                f"{side} bound at alpha={alpha}: nlp {nv} vs grid {gv} "
                f"(rel {rel:.2e} > 1e-4)",
            )
        for label, point in (("argmin", nlp.argmin), ("argmax", nlp.argmax)):
            for name, iv in nlp.box.items():
                at_corner = (
                    abs(point[name] - iv.lo) <= 1e-9 * max(1.0, iv.width)
                    or abs(point[name] - iv.hi) <= 1e-9 * max(1.0, iv.width)
                )
                _check(
                    failures,
                    at_corner,
                    f"{label}[{name}] = {point[name]} not at a corner of "
                    f"[{iv.lo}, {iv.hi}] at alpha={alpha}",
                )
    _gate(
        capsys, 3,
        "optimizer bounds match a 21-per-axis grid scan at 5 alpha levels "
        "(rel 1e-4) with extremes at box corners",
        failures,
    )


def test_criterion_4_mttf_closed_forms(capsys):
    """MTTF closed forms: repairable, pure-death, zero-coverage chains."""
    failures = []
    v1 = mttf(SystemParams(1.0, 0.0, 2.0, 1.0, 1.0))
    _check(failures, abs(v1 - 4.5) <= 1e-12, f"mttf(1,0,2,1) = {v1} != 4.5")
    v2 = mttf(SystemParams(1.0, 0.0, 0.0, 1.0, 1.0))
    _check(failures, abs(v2 - 2.0) <= 1e-12, f"mttf(1,0,0,1) = {v2} != 2.0")
    rng = np.random.default_rng(20260816)
    for _ in range(10):
        lam = rng.uniform(0.2, 3.0)
        theta = rng.uniform(0.0, lam)
        mu = rng.uniform(0.0, 5.0)
        p = SystemParams(lam, theta, mu, 0.0, 1.0)
        got = mttf(p)
        want = 1.0 / (2.0 * lam + theta)
        _check(
            failures,
            abs(got - want) <= 1e-12,
            f"mttf with zero coverage at lam={lam}, theta={theta}: "
            f"{got} != {want}",
        )
    _gate(
        capsys, 4,
        "MTTF closed forms hold: 4.5, 2.0, and 1/(2*lambda+theta) for 10 "
        "random zero-coverage sets (abs 1e-12)",
        failures,
    )


def test_criterion_5_laplace_identities(capsys):
    """Transform identities tie the Laplace solve to the time domain."""
    failures = []
    p = SystemParams(0.6, 0.2, 4.0, 0.9, 2.0)
    value = mttf(p)

    ts = np.linspace(0.0, 50.0 * value, 4001)
    rel = np.array([reliability_at(p, t) for t in ts])
    integral = float(scipy.integrate.simpson(rel, x=ts))
    _check(
        failures,
        abs(integral - value) / value <= 0.01,
        f"reliability quadrature {integral} vs MTTF {value} beyond 1%",
    )

    rng = np.random.default_rng(99)
    for s in 10.0 ** rng.uniform(-2, 2, size=20):
        ptilde = laplace_state_probs(p, float(s))
        residual = abs(s * ptilde.sum() - 1.0)
        _check(
            failures,
            residual <= 1e-12,
            f"conservation residual {residual:.2e} at s={s}",
        )

    z0 = failure_density_laplace(p, 1e-8)
    _check(failures, abs(z0 - 1.0) <= 1e-6, f"density transform at 1e-8: {z0}")

    h = 1e-6
    d1 = (1.0 - failure_density_laplace(p, h)) / h
    d2 = (1.0 - failure_density_laplace(p, 2 * h)) / (2 * h)
    slope = 2.0 * d1 - d2  # second-order extrapolation to s = 0
    _check(
        failures,
        abs(slope - value) / value <= 1e-3,
        f"density slope {slope} vs MTTF {value} beyond 0.1%",
    )
    _gate(
        capsys, 5,
        "Laplace identities hold: quadrature=MTTF (1%), conservation at 20 "
        "random s (1e-12), unit mass at s=1e-8 (1e-6), slope=MTTF (0.1%)",
        failures,
    )


def test_criterion_6_simulation_cross_check(capsys):
    """Simulators agree with the analytic values on randomized systems."""
    failures = []
    started = time.monotonic()
    rng = np.random.default_rng(20260815)
    for i in range(5):
        lam = rng.uniform(0.4, 1.5)
        theta = rng.uniform(0.0, 0.8 * lam)
        mu = rng.uniform(0.8, 5.0)
        c = rng.uniform(0.3, 0.95)
        beta = rng.uniform(0.5, 3.0)
        p = SystemParams(lam, theta, mu, c, beta)

        cfg = SimConfig(params=p, replications=100_000, horizon=100_000.0, seed=i)
        est_m = simulate_mttf(cfg)
        want_m = mttf(p)
        _check(
            failures,
            abs(est_m.mean - want_m) <= est_m.margin(),
            f"set {i}: simulated MTTF {est_m.mean:.4f} vs {want_m:.4f} "
            f"beyond 3 SE ({est_m.std_error:.4f})",
        )

        est_a = simulate_availability(cfg)
        want_a = steady_availability(p)
        _check(
            failures,
            abs(est_a.mean - want_a) <= est_a.margin(),
            f"set {i}: simulated availability {est_a.mean:.5f} vs "
            f"{want_a:.5f} beyond 3 SE ({est_a.std_error:.5f})",
        )
    elapsed = time.monotonic() - started
    _check(failures, elapsed < 120.0, f"simulations took {elapsed:.1f}s, limit 120s")
    _gate(
        capsys, 6,
        f"both simulators within 3 SE of analytics on 5 random systems "
        f"(1e5 reps / 1e5 horizon, {elapsed:.1f}s < 120s)",
        failures,
    )


def _axis_samples(fz, levels):
    lows = [fz.alpha_cut(a).lo for a in levels]
    highs = [fz.alpha_cut(a).hi for a in levels if a < 1.0]
    return np.array(lows + highs)


def _vector_membership(curve, zs):
    alphas, lows, highs = curve.alphas, curve.lower, curve.upper
    rising = np.interp(zs, lows, alphas, left=0.0, right=alphas[-1])
    falling = np.interp(zs, highs[::-1], alphas[::-1], left=alphas[-1], right=0.0)
    inside = (zs >= lows[0]) & (zs <= highs[0])
    return np.where(inside, np.minimum(rising, falling), 0.0)


def test_criterion_7_fuzzy_invariants(capsys):
    """Cut nesting for random trapezoids; sup-min vs reconstruction."""
    failures = []
    rng = np.random.default_rng(7177)
    ladder = tuple(np.linspace(0.0, 1.0, 21))
    for i in range(100):
        nodes = np.sort(rng.uniform(-10.0, 10.0, size=4))
        fz = FuzzyNumber.trapezoidal(*nodes)
        cuts = [fz.alpha_cut(a) for a in ladder]
        for (a0, c0), (a1, c1) in zip(
            zip(ladder, cuts), zip(ladder[1:], cuts[1:])
        ):
            _check(
                failures,
                c0.encloses(c1, tol=1e-12),
                f"trapezoid {i}: cut at {a1} escapes cut at {a0}",
            )
        try:
            MembershipCurve(ladder, [c.lo for c in cuts], [c.hi for c in cuts])
        except Exception as exc:  # pragma: no cover - failure detail
            failures.append(f"trapezoid {i}: curve rows rejected: {exc}")

    # sup-min brute force on a 51-per-axis quantile-aligned grid; with
    # triangular inputs the 26 lower + 25 upper cut endpoints per axis
    # carry witnesses for every level including the peak
    def kernel(x, v, y):
        return 2.0 * x + v - 0.5 * y

    fx = FuzzyNumber.triangular(0.5, 0.65, 0.8)
    fv = FuzzyNumber.triangular(0.1, 0.25, 0.4)
    fy = FuzzyNumber.triangular(3.0, 4.5, 6.0)
    levels = tuple(np.linspace(0.0, 1.0, 26))
    cx, cv, cy = (f.alpha_cuts(levels).T for f in (fx, fv, fy))
    recon = MembershipCurve(
        levels, kernel(cx[0], cv[0], cy[1]), kernel(cx[1], cv[1], cy[0])
    )

    xs, vs, ys = (_axis_samples(f, levels) for f in (fx, fv, fy))
    assert len(xs) == len(vs) == len(ys) == 51
    gx = np.interp(xs, fx.values, fx.memberships)
    gv = np.interp(vs, fv.values, fv.memberships)
    gy = np.interp(ys, fy.values, fy.memberships)

    X, V, Y = np.meshgrid(xs, vs, ys, indexing="ij")
    GX, GV, GY = np.meshgrid(gx, gv, gy, indexing="ij")
    images = kernel(X, V, Y).ravel()
    grades = np.minimum(np.minimum(GX, GV), GY).ravel()
    recon_grades = _vector_membership(recon, images)

    # the vectorized reconstruction must agree with the library's scalar one
    probe = np.linspace(recon.support.lo - 0.5, recon.support.hi + 0.5, 200)
    vec = _vector_membership(recon, probe)
    scal = np.array([recon.membership_at(float(z)) for z in probe])
    _check(
        failures,
        float(np.max(np.abs(vec - scal))) <= 1e-9,
        "vectorized membership oracle disagrees with membership_at",
    )

    # sup-min witnesses never exceed the reconstructed membership
    overshoot = float(np.max(grades - recon_grades))
    _check(
        failures,
        overshoot <= 0.02,
        f"a grid witness exceeds the reconstruction by {overshoot:.4f}",
    )

    # membership curve assembled from the brute-force grid alone: at each
    # level, the image range over witnesses whose grade reaches the level
    reached = [images[grades >= a - 1e-9] for a in levels]
    empirical = MembershipCurve(
        levels, [x.min() for x in reached], [x.max() for x in reached]
    )
    probe = np.linspace(recon.support.lo - 0.5, recon.support.hi + 0.5, 2001)
    gaps = [
        abs(empirical.membership_at(float(z)) - recon.membership_at(float(z)))
        for z in probe
    ]
    worst_gap = max(gaps)
    _check(
        failures,
        worst_gap <= 0.02,
        f"grid sup-min membership deviates from reconstruction by "
        f"{worst_gap:.4f}",
    )
    _gate(
        capsys, 7,
        "nested cuts for 100 random trapezoids; 51^3 sup-min grid agrees "
        "with alpha-cut reconstruction (0.02 membership units)",
        failures,
    )


def test_criterion_8_decision_queries(capsys):
    """Inverse queries on the reference table."""
    failures = []
    table = build_table(demo_params(), MTBF, ALPHAS_11)
    curve = table.bounds

    alpha = invert_query(curve, Interval(4.939, 6.716))
    _check(
        failures,
        abs(alpha - 0.90) <= 0.02,
        f"inverse query returned {alpha}, expected 0.90 +- 0.02",
    )

    rng = required_parameter_range(table, 0.9, "mu")
    _check(
        failures,
        abs(rng.lo - 3.9) <= 1e-12 and abs(rng.hi - 5.1) <= 1e-12,
        f"required repair-rate range {rng} != [3.9, 5.1]",
    )
    _gate(
        capsys, 8,
        "target [4.939, 6.716] inverts to alpha 0.90 (+-0.02); required "
        "repair-rate range at 0.9 is [3.9, 5.1] (1e-12)",
        failures,
    )
