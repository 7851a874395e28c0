"""Repeat run.py over seeds and summarise each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --seeds 0..9 [--trace 1] [--out perfbench/baseline_e2e.json]

For every workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the quartile distance as a share of the
median over the runs, one run per seed, one run at a time, each measuring
for BENCHMARK.json's run_seconds.  With --out the
summary, the machine description and the raw values are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr.strip()[-1000:]}")
    lines = proc.stdout.splitlines()
    final = json.loads(lines[-1])
    run = {"env": json.loads(lines[1].split(" ", 2)[2]), "correct": final["correct"],
           "attempted": final["attempted"], "failed": final["failed"], "metrics": {}}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            run["metrics"][name] = (float(value), unit)
    return run


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / med if med else None, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0..9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split(".."))
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    contract = {m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    summary, env = {}, None
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(lo, hi + 1):
            run = one_run(workload, seed, seconds, args.trace)
            env = run.pop("env")
            runs.append(run)
            shown = {} if args.trace else {
                k: round(v, 4) for k, (v, _) in run["metrics"].items() if k in contract}
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"failed={run['failed']}/{run['attempted']} {shown}", flush=True)
        names = list(dict.fromkeys(k for r in runs for k in r["metrics"]))
        metrics = {}
        for name in names:
            values = [r["metrics"][name][0] for r in runs if name in r["metrics"]]
            metrics[name] = {"unit": runs[0]["metrics"][name][1], **summarise(values),
                             "values": values}
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "error_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
        for name in names:
            s = metrics[name]
            if name in contract and s["iqr_frac"] is not None:
                print(f"  {workload:12s} {name:24s} median {s['median']:.6g} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} iqr/median {s['iqr_frac']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"environment": env, "seconds": seconds, "seeds": [lo, hi],
             "trace": args.trace, "workloads": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
