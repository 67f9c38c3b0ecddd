"""The benchmark's four workloads: model files, operations and their checks.

Each workload is a list of fuzzrel CLI calls, one pass, that a run
repeats in a closed loop. Every input is written to disk, and every
expected answer is computed, before timing starts. Why each workload
exists, and what a change to each layer should move on it, is in
perfbench/README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import oracle
from checks import Outcome, Verdict

ALPHAS = [i / 10 for i in range(11)]

# The paper's model: demo trapezoids, coverage 0.9.
REFERENCE_MODEL = {
    "lambda": [0.5, 0.6, 0.7, 0.8],
    "theta": [0.1, 0.2, 0.3, 0.4],
    "mu": [3.0, 4.0, 5.0, 6.0],
    "beta": [1.5, 2.0, 2.5, 3.0],
    "c": 0.9,
    "alphas": ALPHAS,
}

# The paper's reference table of MTBF bounds, held to 5e-3.
REFERENCE_MTBF = {
    0.0: (3.8952, 8.6229),
    0.1: (4.0030, 8.3722),
    0.2: (4.1126, 8.1330),
    0.3: (4.2242, 7.9046),
    0.4: (4.3377, 7.6859),
    0.5: (4.4534, 7.4764),
    0.6: (4.5712, 7.2752),
    0.7: (4.6913, 7.0817),
    0.8: (4.8139, 6.8955),
    0.9: (4.9390, 6.7159),
    1.0: (5.0669, 6.5424),
}
REFERENCE_TOL = 5e-3
REFERENCE_ANCHOR = (5.0669, 6.5424)

# Default CSV output has 4 decimals: half a unit plus solver slack.
CSV_TOL = 1e-4

# theta <= lambda is enforced, so at every level the feasible set is a
# polytope whose maximum MTBF lies on the edge theta = lambda: at alpha 0
# it is 11.286 at lambda = theta = 0.3, where feasible box corners alone
# give 6.35. The lambda plateau starts at 0.3 so that the modal rates
# (0.4, 0.4) are themselves feasible; see COUPLED_AS_SPECIFIED.
COUPLED_MODEL = dict(
    REFERENCE_MODEL,
    **{
        "lambda": [0.1, 0.3, 0.5, 0.6],
        "theta": [0.3, 0.35, 0.45, 0.5],
        "solver": {"enforce_standby_slower": True},
    },
)

# The coupled model as first specified, with lambda plateau [0.2, 0.5].
# Its modal midpoints (0.35, 0.4) break theta <= lambda, and the CLI
# builds a crisp simulation config from them on every load, so every
# subcommand exits 3 although the fuzzy model is valid. It runs once per
# run, untimed, so the defect stays counted in `failed` until it is fixed.
COUPLED_AS_SPECIFIED = dict(COUPLED_MODEL, **{"lambda": [0.1, 0.2, 0.5, 0.6]})

CALIBRATION_START = 0.5
COUPLED_COVERAGE_TOL = 1e-5
REFERENCE_COVERAGE_TOL = 1e-3

# Modal reference system, then acceptance criterion 6's first two systems
# (generator seed 20260815). The systems are fixed so that the cost of a
# pass does not swing with the workload seed; the seed sets the
# simulators' own random streams.
CRITERION_6_SEED = 20260815
CROSSCHECK_SYSTEMS = 3
SIM_REPLICATIONS = 200_000
SIM_HORIZON = 1e5
MTTF_SE_CEILING = 5e-3  # relative to the analytic MTTF
AVAILABILITY_SE_CEILING = 5e-3

# Messages of the known defects, as the CLI prints them after "error: ".
# An operation may fail with only those listed for it.
ROW_SUM_DEFECT = r"generator rows must sum to zero"
PROBABILITY_SUM_DEFECT = r"probabilities sum to \S+, expected 1"
# The same validation of an expm result, when an entry leaves [0, 1] by
# more than 1e-12 before the sum is checked.
PROBABILITY_RANGE_DEFECT = r"probabilities must lie in \[0, 1\]"
MODAL_COUPLING_DEFECT = r"standby_failure_rate \S+ exceeds failure_rate \S+"

WIDE_RATES_MODELS = 400
WIDE_RATE_DECADES = (-6.0, 9.0)
MTTF_REL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Op:
    """One CLI call with the check of its output, and the messages of
    the known defects it may fail with. Each Op is a distinct operation."""

    kind: str
    argv: tuple[str, ...]
    check: Callable[[Outcome], Verdict]
    known_errors: tuple[str, ...] = ()

    def verdict(self, outcome: Outcome) -> Verdict:
        early = checks.exit_verdict(outcome, self.known_errors)
        return early if early is not None else self.check(outcome)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    setup_config: str
    probes: tuple[Op, ...] = field(default=())
    # simulated work per op, for the simulate layer's rates
    sim_work: dict[str, float] = field(default_factory=dict)


def _write(workdir: Path, name: str, model: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(model, indent=1), encoding="utf-8")
    return str(path)


def _expected(model, metric, t=None):
    return {a: oracle.bounds(model, metric, a, t=t) for a in ALPHAS}


def _curve_op(kind, workdir, config, out_name, expected, tol, extra=(), **kw) -> Op:
    out = workdir / out_name
    return Op(
        kind,
        ("curve", config, *extra, "--out", str(out)),
        lambda outcome: checks.check_curve(out, expected, tol),
        **kw,
    )


def reference(seed: int, workdir: Path) -> Workload:
    model = _write(workdir, "reference.json", REFERENCE_MODEL)
    start = dict(
        REFERENCE_MODEL,
        c=CALIBRATION_START,
        reference_bounds=[[a, lo, hi] for a, (lo, hi) in REFERENCE_MTBF.items()],
    )
    calibrate_model = _write(workdir, "reference-calibrate.json", start)
    availability = _expected(REFERENCE_MODEL, "availability")
    reliability = _expected(REFERENCE_MODEL, "reliability", t=10.0)
    table = workdir / "availability.csv"
    lo, hi = REFERENCE_ANCHOR
    ops = (
        _curve_op("mtbf_curve", workdir, model, "mtbf.csv", REFERENCE_MTBF, REFERENCE_TOL),
        Op(
            "availability_table",
            ("alphacut", model, "--metric", "availability", "--out", str(table)),
            lambda o: checks.check_table(table, REFERENCE_MODEL, availability, CSV_TOL),
        ),
        _curve_op("reliability_curve", workdir, model, "reliability.csv", reliability,
                  CSV_TOL, extra=("--metric", "reliability", "--t", "10")),
        Op(
            "calibrate",
            ("calibrate", calibrate_model, "--anchor-alpha", "1.0",
             "--lower", repr(lo), "--upper", repr(hi)),
            lambda o: checks.check_calibration(
                o.stdout, REFERENCE_MODEL["c"], REFERENCE_COVERAGE_TOL, REFERENCE_TOL,
                len(REFERENCE_MTBF), REFERENCE_TOL,
            ),
        ),
    )
    return Workload("reference", ops, setup_config=model)


def coupled(seed: int, workdir: Path) -> Workload:
    model = _write(workdir, "coupled.json", COUPLED_MODEL)
    calibrate_model = _write(
        workdir, "coupled-calibrate.json", dict(COUPLED_MODEL, c=CALIBRATION_START)
    )
    as_specified = _write(workdir, "coupled-as-specified.json", COUPLED_AS_SPECIFIED)
    lo, hi = oracle.bounds(COUPLED_MODEL, "mtbf", 1.0)
    ops = (
        _curve_op("mtbf_curve", workdir, model, "mtbf.csv",
                  _expected(COUPLED_MODEL, "mtbf"), CSV_TOL),
        Op(
            "calibrate",
            ("calibrate", calibrate_model, "--anchor-alpha", "1.0",
             "--lower", repr(lo), "--upper", repr(hi)),
            lambda o: checks.check_calibration(
                o.stdout, COUPLED_MODEL["c"], COUPLED_COVERAGE_TOL, CSV_TOL, 0, 0.0
            ),
        ),
    )
    probe = _curve_op(
        "mtbf_curve_as_specified", workdir, as_specified, "mtbf-as-specified.csv",
        _expected(COUPLED_AS_SPECIFIED, "mtbf"), CSV_TOL,
        known_errors=(MODAL_COUPLING_DEFECT,),
    )
    return Workload("coupled", ops, setup_config=model, probes=(probe,))


def criterion_6_systems(count: int) -> list[tuple[float, ...]]:
    """(lambda, theta, mu, c, beta) in acceptance criterion 6's draw order."""
    rng = np.random.default_rng(CRITERION_6_SEED)
    systems = []
    for _ in range(count):
        lam = rng.uniform(0.4, 1.5)
        theta = rng.uniform(0.0, 0.8 * lam)
        mu = rng.uniform(0.8, 5.0)
        c = rng.uniform(0.3, 0.95)
        beta = rng.uniform(0.5, 3.0)
        systems.append((lam, theta, mu, c, beta))
    return systems


def crosscheck(seed: int, workdir: Path) -> Workload:
    modal = (0.65, 0.25, 4.5, 0.9, 2.25)
    systems = [modal] + criterion_6_systems(CROSSCHECK_SYSTEMS - 1)
    sim_seeds = np.random.default_rng(seed).integers(0, 2**31, size=len(systems))
    ops = []
    for i, ((lam, theta, mu, c, beta), sim_seed) in enumerate(zip(systems, sim_seeds)):
        model = {
            "lambda": lam, "theta": theta, "mu": mu, "beta": beta, "c": c,
            "simulation": {"replications": SIM_REPLICATIONS, "horizon": SIM_HORIZON,
                           "seed": int(sim_seed)},
        }
        path = _write(workdir, f"system-{i}.json", model)
        want_m = oracle.mttf(lam, theta, mu, c)
        want_a = oracle.availability(lam, theta, mu, c, beta)
        ops.append(Op(
            "sim_mttf", ("simulate", path),
            lambda o, w=want_m: checks.check_estimate(
                o.stdout, "mttf", w, MTTF_SE_CEILING * w),
        ))
        ops.append(Op(
            "sim_availability", ("simulate", path, "--metric", "availability"),
            lambda o, w=want_a: checks.check_estimate(
                o.stdout, "availability", w, AVAILABILITY_SE_CEILING),
        ))
    return Workload(
        "crosscheck", tuple(ops), setup_config=ops[0].argv[1],
        sim_work={"sim_mttf": SIM_REPLICATIONS, "sim_availability": SIM_HORIZON},
    )


def wide_rates(seed: int, workdir: Path) -> Workload:
    """Crisp models with lambda, mu, beta log-uniform over 15 decades.

    The range is kept wide on purpose: it reaches the absolute 1e-9
    generator row-sum check and the 1e-12 range and 1e-10 sum checks of
    the probabilities after expm, which reject valid stiff models with
    exit 3 today.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(WIDE_RATES_MODELS):
        lam, mu, beta = 10.0 ** rng.uniform(*WIDE_RATE_DECADES, size=3)
        theta = rng.uniform() * lam
        c = rng.uniform()
        model = {"lambda": lam, "theta": theta, "mu": mu, "beta": beta, "c": c}
        path = _write(workdir, f"model-{i}.json", model)
        want = oracle.mttf(lam, theta, mu, c)
        ops.append(Op(
            "crisp_report", ("metrics", path, "--full-precision"),
            lambda o, w=want: checks.check_crisp_report(o.stdout, w, MTTF_REL_TOL),
            known_errors=(ROW_SUM_DEFECT, PROBABILITY_SUM_DEFECT, PROBABILITY_RANGE_DEFECT),
        ))
    return Workload("wide-rates", tuple(ops), setup_config=ops[0].argv[1])


WORKLOADS = {
    "reference": reference,
    "coupled": coupled,
    "crosscheck": crosscheck,
    "wide-rates": wide_rates,
}
NAMES = tuple(WORKLOADS)


def build(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, workdir)
