"""Run every workload over seeds 1-10 and write one summary record.

    python3 perfbench/baseline.py --out perfbench/records/baseline-<commit>.json

For each workload: one untraced run per seed, then one traced run on
the first seed. Each run measures for BENCHMARK.json's run_seconds.
For each metric the record keeps every value, the median, the
quartiles (statistics.quantiles, n=4) and the spread, which is the
distance between the quartiles as a share of the median. Runs go one
at a time, so they do not compete for the CPUs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUN_TIMEOUT_S = 900
SEEDS = list(range(1, 11))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = HERE / ".work" / "records" / f"{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record.read_text())
    return result


def summary(values: list[float]) -> dict:
    out = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    record = {"seeds": SEEDS, "seconds": seconds, "workloads": {}}
    for name in workloads.NAMES:
        runs = []
        for seed in SEEDS:
            runs.append(one_run(name, seed, seconds, 0))
            metrics = {k: round(v["value"], 4) for k, v in runs[-1]["metrics"].items()}
            print(name, seed, runs[-1]["correct"], runs[-1]["failed"], "/",
                  runs[-1]["attempted"], metrics, flush=True)
        traced = one_run(name, SEEDS[0], seconds, 1)
        named = {}
        for run in runs:
            for k, v in run["record"]["named"].items():
                named.setdefault(k, []).append(v["value"])
        record["workloads"][name] = {
            "correct": [r["correct"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {k: summary([r["metrics"][k]["value"] for r in runs])
                           for k in runs[0]["metrics"]},
            "named": {k: summary(v) for k, v in named.items()},
            "traced": {"seed": SEEDS[0], "correct": traced["correct"],
                       "attempted": traced["attempted"], "failed": traced["failed"],
                       "metrics": {k: v["value"] for k, v in traced["metrics"].items()}},
            "environment": runs[0]["record"]["environment"],
        }
        for k, s in record["workloads"][name]["end_to_end"].items():
            print(f"{name:12} {k:14} median {s['median']:.6g} spread {s.get('spread')}",
                  flush=True)
    first = next(iter(record["workloads"].values()))
    record = {"commit": first["environment"]["git_commit"], **record}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
