"""Print one SHA-256 per CLI output, so that two checkouts can be
compared for byte-identical output with one command each.

    PYTHONPATH=src python tools/output_digest.py > digests.txt

Runs `curve`, `alphacut` and `calibrate` for MTBF, steady availability,
R(10) and R(0.5) on the benchmark's reference and coupled models and on
tools/ladder_probe.py's wide model, `curve` and `alphacut` at default
precision and with --full-precision (`calibrate` has no such option),
then `metrics --full-precision` on the 400 models of the benchmark's
wide-rates workload at seed 5, and `simulate` for MTBF and availability
on the crosscheck workload's three systems at seed 1 and on the reference
and coupled models' modal systems with --reps 50000. The models come from
perfbench/workloads.py.
`calibrate` starts from coverage 0.5 and is anchored at the alpha = 1
bounds of the model's own coverage, taken from perfbench/oracle.py so
that the anchor does not depend on the code under test.

Each call runs in process through fuzzrel.cli.main. Every file it writes
gets a line `<sha256>  <model>/<metric>/<command>/<file>`, and so does
its console: the exit code, stdout and stderr, with the scratch
directory's path replaced. Warnings are ignored, since their text holds
source line numbers. Comparing the output of two checkouts (`diff`)
lists the outputs that differ.

Last come three lines for the library, over the same 400 wide-rates
models: build_generator in each chain mode, and reliability_at at
t = 1/lambda with mu set to 0, the rows that take R(t) from a matrix
exponential. Each line hashes every model's result (`tobytes()`) or,
where the call raises, the error's type and message.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from fuzzrel import (
    PARAMETER_NAMES,
    ChainMode,
    SystemParams,
    build_generator,
    cli,
    reliability_at,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import oracle  # noqa: E402
import workloads  # noqa: E402

WIDE_RATES_SEED = 5
CROSSCHECK_SEED = 1
MODAL_SIM_REPS = "50000"
START_COVERAGE = 0.5
ANCHOR_ALPHA = 1.0
# name: the metric's kind and mission time
METRICS = {
    "mtbf": ("mtbf", None),
    "availability": ("availability", None),
    "R(10)": ("reliability", 10.0),
    "R(0.5)": ("reliability", 0.5),
}


def _wide_model() -> dict:
    """tools/ladder_probe.py's wide model as a model file."""
    spec = importlib.util.spec_from_file_location("ladder_probe", ROOT / "tools/ladder_probe.py")
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    fp = probe.WIDE
    model = {name: list(fp.fuzzy_by_name(name).values) for name in PARAMETER_NAMES}
    return dict(model, c=fp.coverage)


def _run(argv: list[str], workdir: Path) -> dict[str, bytes]:
    """The console and every file of one CLI call whose outputs go to workdir."""
    out, err = io.StringIO(), io.StringIO()
    with (
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(),
    ):
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    console = f"exit {code}\n{out.getvalue()}{err.getvalue()}".replace(str(workdir), "<dir>")
    outputs = {"console": console.encode()}
    for path in sorted(workdir.iterdir()):
        outputs[path.name] = path.read_bytes()
        path.unlink()
    return outputs


def _print(name: str, outputs: dict[str, bytes]) -> None:
    for file, data in outputs.items():
        print(f"{hashlib.sha256(data).hexdigest()}  {name}/{file}")


def _print_calls(name: str, call, models: list[SystemParams]) -> None:
    """One line hashing call's result, or its error, at each of models."""
    digest = hashlib.sha256()
    for p in models:
        try:
            data = np.asarray(call(p)).tobytes()
        except Exception as exc:  # noqa: BLE001 - the error is the output
            data = f"{type(exc).__name__}: {exc}".encode()
        digest.update(data)
    print(f"{digest.hexdigest()}  wide-rates/{name}")


def _print_library(models: list[SystemParams]) -> None:
    """One line per chain mode for build_generator, and one for
    reliability_at at t = 1/lambda with mu set to 0, over models."""
    for mode in ChainMode:
        _print_calls(
            f"build_generator/{mode.value}", lambda p: build_generator(p, mode).rates, models
        )
    without_repair = [SystemParams(**{**vars(p), "repair_rate": 0.0}) for p in models]
    _print_calls(
        "reliability_at/no-repair",
        lambda p: reliability_at(p, 1.0 / p.failure_rate),
        without_repair,
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        models, outdir = tmp / "models", tmp / "out"
        models.mkdir()
        outdir.mkdir()
        for model_name, model in (
            ("reference", workloads.REFERENCE_MODEL),
            ("coupled", workloads.COUPLED_MODEL),
            ("wide", _wide_model()),
        ):
            config = models / f"{model_name}.json"
            config.write_text(json.dumps(model), encoding="utf-8")
            start = models / f"{model_name}-start.json"
            start.write_text(json.dumps(dict(model, c=START_COVERAGE)), encoding="utf-8")
            for metric, (kind, t) in METRICS.items():
                name = f"{model_name}/{metric}"
                metric_args = ["--metric", kind] + ([] if t is None else ["--t", repr(t)])
                for command in ("curve", "alphacut"):
                    for full in (False, True):
                        argv = [command, str(config), *metric_args, "--out",
                                str(outdir / f"{command}.csv")]
                        argv += ["--full-precision"] if full else []
                        _print(f"{name}/{command}{'-full' if full else ''}", _run(argv, outdir))
                lo, hi = oracle.bounds(model, kind, ANCHOR_ALPHA, t=t)
                argv = ["calibrate", str(start), *metric_args, "--anchor-alpha",
                        repr(ANCHOR_ALPHA), "--lower", repr(lo), "--upper", repr(hi)]
                _print(f"{name}/calibrate", _run(argv, outdir))
        wide_rates = workloads.wide_rates(WIDE_RATES_SEED, models).ops
        for i, op in enumerate(wide_rates):
            _print(f"wide-rates/model-{i}/metrics-full", _run(list(op.argv), outdir))
        for i, op in enumerate(workloads.crosscheck(CROSSCHECK_SEED, models).ops):
            _print(f"crosscheck/op-{i}/{op.kind}", _run(list(op.argv), outdir))
        for model_name in ("reference", "coupled"):
            for kind in ("mtbf", "availability"):
                argv = ["simulate", str(models / f"{model_name}.json"), "--metric", kind,
                        "--reps", MODAL_SIM_REPS]
                _print(f"{model_name}/{kind}/simulate", _run(argv, outdir))
        rates = [json.loads(Path(op.argv[1]).read_text()) for op in wide_rates]
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _print_library(
                [SystemParams(r["lambda"], r["theta"], r["mu"], r["c"], r["beta"]) for r in rates]
            )


if __name__ == "__main__":
    main()
