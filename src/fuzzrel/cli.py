"""Command-line front end.

Subcommands consume a JSON model config and emit plain text or CSV.
Exit codes: 0 success, 2 parse failure (config or arguments), 3 input
validation failure, 4 solver failure, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import markov
from .bounds import (
    FuzzySystemParams,
    Metric,
    PARAM_BETA,
    PARAM_LAMBDA,
    PARAM_MU,
    PARAM_THETA,
    membership_curve,
)
from .decision import (
    AlphaCutTable,
    DecisionQuery,
    build_table,
    calibrate_coverage,
    invert_query,
)
from .errors import ConfigError, SolverError, ValidationError
from .fuzzy import FuzzyNumber, Interval
from .simulate import SimConfig, simulate_availability, simulate_mttf

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4
EXIT_IO = 5

_COLUMN_LETTER = {
    PARAM_LAMBDA: "x",
    PARAM_THETA: "v",
    PARAM_MU: "y",
    PARAM_BETA: "w",
}

_DEFAULT_ALPHAS = tuple(i / 10 for i in range(11))


@dataclass(frozen=True)
class ModelConfig:
    fuzzy_params: FuzzySystemParams
    metric: Metric
    alphas: tuple[float, ...]
    # SimConfig keywords; the crisp modal system they run on is built only
    # by `simulate`, so models whose modal rates break theta <= lambda
    # still serve every other subcommand
    sim_settings: dict
    reference_bounds: tuple[tuple[float, float, float], ...] | None


def _section(raw: dict, name: str, keys: tuple[str, ...]) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"field '{name}' must be an object")
    for key in section:
        if key not in keys:
            raise ConfigError(f"unknown field '{name}.{key}'")
    return section


def _as_number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{field}' must be a number, got {value!r}")
    return float(value)


def _as_int(value, field: str, default: int) -> int:
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{field}' must be an integer, got {value!r}")
    return value


def _number_rows(value, field: str, width: int) -> list[tuple[float, ...]]:
    if not isinstance(value, list) or not all(
        isinstance(row, list) and len(row) == width for row in value
    ):
        raise ConfigError(f"field '{field}' must be a list of {width}-number lists")
    return [tuple(_as_number(x, field) for x in row) for row in value]


def _fuzzy_field(value, field: str) -> FuzzyNumber:
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return FuzzyNumber.crisp(float(value))
        if isinstance(value, list):
            nodes = [_as_number(v, field) for v in value]
            if len(nodes) == 3:
                return FuzzyNumber.triangular(*nodes)
            if len(nodes) == 4:
                return FuzzyNumber.trapezoidal(*nodes)
            raise ConfigError(
                f"field '{field}' must have 3 (triangular) or 4 (trapezoidal) "
                f"numbers, got {len(nodes)}"
            )
        if isinstance(value, dict) and "breakpoints" in value:
            pts = _number_rows(value["breakpoints"], f"{field}.breakpoints", 2)
            return FuzzyNumber.from_breakpoints(pts)
    except ValidationError as exc:
        raise ValidationError(f"field '{field}': {exc}") from exc
    raise ConfigError(
        f"field '{field}' must be a number, a 3/4-number list, or an object "
        f"with 'breakpoints'"
    )


def _parse_metric(raw: dict, override_kind: str | None, override_t: float | None):
    kind = override_kind if override_kind is not None else raw.get("metric", "mtbf")
    if not isinstance(kind, str) or kind not in Metric.KINDS:
        raise ConfigError(
            f"field 'metric' must be one of {Metric.KINDS}, got {kind!r}"
        )
    if kind != "reliability":
        return Metric(kind)
    t = override_t if override_t is not None else raw.get("t")
    if t is None:
        raise ConfigError("reliability metric requires a mission time 't'")
    return Metric(kind, _as_number(t, "t"))


def load_model_config(
    path: str,
    *,
    override_metric: str | None = None,
    override_t: float | None = None,
) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: "
                f"{exc.msg}"
            ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")

    for key in ("lambda", "theta", "mu", "beta", "c"):
        if key not in raw:
            raise ConfigError(f"{path}: missing required field '{key}'")

    # theta <= lambda is part of the model; older model files may still set
    # solver.enforce_standby_slower, which must be a boolean and does nothing
    solver = _section(raw, "solver", ("enforce_standby_slower",))
    retired = solver.get("enforce_standby_slower", False)
    if not isinstance(retired, bool):
        raise ConfigError(
            f"field 'solver.enforce_standby_slower' must be a boolean, got {retired!r}"
        )
    fp = FuzzySystemParams(
        failure_rate=_fuzzy_field(raw["lambda"], "lambda"),
        standby_failure_rate=_fuzzy_field(raw["theta"], "theta"),
        repair_rate=_fuzzy_field(raw["mu"], "mu"),
        reboot_rate=_fuzzy_field(raw["beta"], "beta"),
        coverage=_as_number(raw["c"], "c"),
    )
    metric = _parse_metric(raw, override_metric, override_t)

    alphas_raw = raw.get("alphas")
    if alphas_raw is None:
        alphas = _DEFAULT_ALPHAS
    else:
        if not isinstance(alphas_raw, list):
            raise ConfigError("field 'alphas' must be a list of numbers")
        alphas = tuple(_as_number(a, "alphas") for a in alphas_raw)

    sim_raw = _section(raw, "simulation", ("replications", "horizon", "seed"))
    sim_settings = dict(
        replications=_as_int(sim_raw.get("replications"), "simulation.replications", 100_000),
        horizon=_as_number(sim_raw.get("horizon", 100_000.0), "simulation.horizon"),
        seed=_as_int(sim_raw.get("seed"), "simulation.seed", 0),
    )

    reference = raw.get("reference_bounds")
    ref_rows = None
    if reference is not None:
        ref_rows = tuple(_number_rows(reference, "reference_bounds", 3))

    return ModelConfig(
        fuzzy_params=fp,
        metric=metric,
        alphas=alphas,
        sim_settings=sim_settings,
        reference_bounds=ref_rows,
    )


def _fmt(x: float, full: bool) -> str:
    return f"{x:.17g}" if full else f"{x:.4f}"


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _levels(args, cfg: ModelConfig) -> tuple[float, ...]:
    if args.levels is None:
        return cfg.alphas
    n = args.levels
    if n < 2:
        raise ConfigError(f"--levels must be at least 2, got {n}")
    return tuple(i / (n - 1) for i in range(n))


def _table_csv(table: AlphaCutTable, full: bool) -> list[str]:
    header = ["alpha"]
    for name in table.parameters:
        letter = _COLUMN_LETTER[name]
        header += [f"{letter}_L", f"{letter}_U"]
    header += ["T_L", "T_U"]
    lines = [",".join(header)]
    for row in table.rows:
        cells = [_fmt(row.alpha, full)]
        for name in table.parameters:
            iv = row.cuts[name]
            cells += [_fmt(iv.lo, full), _fmt(iv.hi, full)]
        cells += [_fmt(row.bounds.lo, full), _fmt(row.bounds.hi, full)]
        lines.append(",".join(cells))
    return lines


def cmd_metrics(args) -> int:
    cfg = load_model_config(args.config)
    params = cfg.fuzzy_params.modal_params()
    full = args.full_precision
    value = markov.mttf(params)
    lines = [f"MTTF          {_fmt(value, full)}"]
    if params.repair_rate > 0:
        avail = markov.steady_availability(params)
        lines.append(f"availability  {_fmt(avail, full)}")
    else:
        lines.append("availability  n/a (requires repair rate > 0)")
    lines.append("reliability:")
    times = np.array([0.0, 0.5, 1.0, 2.0, 5.0]) * value
    # one eigendecomposition serves all five times
    rel = markov._reliability_values(markov._rates(params), times)[0]
    for t, r in zip(times, rel):
        lines.append(f"  t={_fmt(t, full)}  R={_fmt(r, full)}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_alphacut(args) -> int:
    cfg = load_model_config(args.config, override_metric=args.metric, override_t=args.t)
    table = build_table(cfg.fuzzy_params, cfg.metric, _levels(args, cfg))
    _write_lines(args.out, _table_csv(table, args.full_precision))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_curve(args) -> int:
    cfg = load_model_config(args.config, override_metric=args.metric, override_t=args.t)
    curve = membership_curve(cfg.fuzzy_params, cfg.metric, _levels(args, cfg))
    full = args.full_precision
    rows = ["alpha,lower,upper"]
    for alpha, iv in curve.rows:
        rows.append(f"{_fmt(alpha, full)},{_fmt(iv.lo, full)},{_fmt(iv.hi, full)}")
    _write_lines(args.out, rows)

    support = curve.support
    zs = np.linspace(support.lo, support.hi, 201)
    grades = curve.membership_at(zs)
    member = ["z,membership"]
    for z, grade in zip(zs.tolist(), grades.tolist()):
        member.append(f"{_fmt(z, full)},{_fmt(grade, full)}")
    stem, ext = os.path.splitext(args.out)
    member_path = f"{stem}_membership{ext}"
    _write_lines(member_path, member)
    print(f"wrote {args.out}")
    print(f"wrote {member_path}")
    return EXIT_OK


def cmd_invert(args) -> int:
    cfg = load_model_config(args.config, override_metric=args.metric, override_t=args.t)
    curve = membership_curve(cfg.fuzzy_params, cfg.metric, _levels(args, cfg))
    query = DecisionQuery(metric=cfg.metric, target=Interval(args.lower, args.upper))
    alpha = invert_query(curve, query)
    cut = curve.interval_at(alpha)
    print(f"alpha = {alpha:.2f}")
    print(f"cut   = [{cut.lo:.4f}, {cut.hi:.4f}]")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_model_config(args.config, override_metric=args.metric, override_t=args.t)
    settings = dict(cfg.sim_settings)
    if args.reps is not None:
        settings["replications"] = args.reps
    if args.seed is not None:
        settings["seed"] = args.seed
    sim = SimConfig(params=cfg.fuzzy_params.modal_params(), **settings)
    if cfg.metric.kind == "mtbf":
        name, est = "mttf", simulate_mttf(sim)
    elif cfg.metric.kind == "availability":
        name, est = "availability", simulate_availability(sim)
    else:
        raise ConfigError("simulate supports the metrics 'mtbf' and 'availability'")
    lines = [
        "quantity,mean,std_error,replications",
        f"{name},{est.mean:.6f},{est.std_error:.6f},{est.replications}",
    ]
    _write_lines(args.out, lines)
    if args.out is not None:
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = load_model_config(args.config, override_metric=args.metric, override_t=args.t)
    anchor = Interval(args.lower, args.upper)
    result = calibrate_coverage(cfg.fuzzy_params, cfg.metric, args.anchor_alpha, anchor)
    print(f"coverage = {result.coverage:.6f}")
    print(f"anchor residuals: lower {result.lower_residual:+.3e}, "
          f"upper {result.upper_residual:+.3e}")
    if cfg.reference_bounds:
        calibrated = cfg.fuzzy_params.with_coverage(result.coverage)
        alphas = tuple(row[0] for row in cfg.reference_bounds)
        curve = membership_curve(calibrated, cfg.metric, alphas)
        print("reference residuals:")
        print("alpha,T_L_residual,T_U_residual")
        for (a, lo, hi), iv in zip(cfg.reference_bounds, curve.intervals):
            print(f"{a:.2f},{iv.lo - lo:+.6f},{iv.hi - hi:+.6f}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and then shared: parse_args
    returns a fresh Namespace on each call and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="fuzzrel",
        description=(
            "Fuzzy reliability characteristics of a repairable warm-standby "
            "system with imperfect coverage"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--metric": dict(choices=list(Metric.KINDS), default=None,
                         help="override the config metric"),
        "--t": dict(type=float, default=None,
                    help="mission time for the reliability metric"),
        "--full-precision": dict(
            action="store_true", help="emit 17 significant digits instead of 4 decimals"
        ),
        "--levels": dict(type=int, default=None,
                         help="number of evenly spaced alpha levels"),
    }

    def add(name, func, help, *names):
        p = sub.add_parser(name, help=help)
        p.add_argument("config", help="JSON model config")
        for option in names:
            p.add_argument(option, **options[option])
        p.set_defaults(func=func)
        return p

    add("metrics", cmd_metrics, "crisp characteristics at the modal rates",
        "--full-precision")

    p = add("alphacut", cmd_alphacut, "alpha-cut table as CSV",
            "--metric", "--t", "--full-precision", "--levels")
    p.add_argument("--out", required=True, help="output CSV path")

    p = add("curve", cmd_curve, "membership curve and sampled membership CSV",
            "--metric", "--t", "--full-precision", "--levels")
    p.add_argument("--out", required=True, help="output CSV path")

    p = add("invert", cmd_invert, "alpha level that fits a target interval",
            "--metric", "--t", "--levels")
    p.add_argument("--lower", type=float, required=True, help="target lower bound")
    p.add_argument("--upper", type=float, required=True, help="target upper bound")

    p = add("simulate", cmd_simulate, "Monte Carlo estimate of the metric",
            "--metric", "--t")
    p.add_argument("--reps", type=int, default=None,
                   help="override simulation.replications (mtbf only)")
    p.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")

    p = add("calibrate", cmd_calibrate, "fit coverage to anchor bounds",
            "--metric", "--t")
    p.add_argument("--anchor-alpha", type=float, required=True,
                   help="alpha level of the anchor bounds")
    p.add_argument("--lower", type=float, required=True, help="anchor lower bound")
    p.add_argument("--upper", type=float, required=True, help="anchor upper bound")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
