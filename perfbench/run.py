"""handguard benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sim_clean --seed 0 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):
  sim_clean    `handguard simulate` on the bundled scenario, no pixel noise
  sim_noisy    `handguard simulate` on a short near-path variant, 0.5 px noise
  pose_batch   `handguard pose` on independent poses in the C6 envelope
  stats_study  `handguard analyze` in all five modes, both wrist sides

The inputs are generated from --seed.  The program runs from ./src in a
fresh interpreter (perfbench/worker.py) that repeats one pass over the
workload's CLI calls for --seconds.  Outputs are then checked here.

Every metric prints as `metric <name> <value> <unit>`; the last line is one
JSON object {"correct", "attempted", "failed", "metrics"} holding the
BENCHMARK.json end-to-end metrics (--trace 0) or per-layer metrics
(--trace 1, from a separate traced pass that follows an untraced one).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen
from tracer import SPANS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "handguard"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 7
WORKER_TIMEOUT_S = 170
SETUP_PROBE = ("import sys, handguard.cli as c; c.build_parser(); "
               "sys.exit(0 if c.__file__.startswith(sys.argv[1]) else 3)")

OPS_NAME = {"sim_clean": "sim_steps_per_s", "sim_noisy": "sim_steps_per_s",
            "pose_batch": "poses_per_s", "stats_study": "analyze_calls_per_s"}
PER_SPAN = (("calls", "count"), ("self_s", "s"), ("p50_us", "us"), ("p99_us", "us"))


@dataclass
class Plan:
    """One pass over a workload: CLI calls, their operation counts and
    output files, and a check of the last pass's outputs that returns
    ([(problems, crashed ops, wrong ops) per call], observables).  A plan
    built with pins (pins.json) also compares the outputs with the seed
    commit's; one built without them, as pin.py does, does not."""

    calls: list
    ops: list
    files: list
    check: Callable


def _text(path: Path) -> str:
    return path.read_text() if path.is_file() else ""


def _sim_plan(argv, scenario: dict, out: Path, pinned: dict | None) -> Plan:
    trace, metrics = out / "trace.csv", out / "metrics.json"
    argv = argv + ["--trace", str(trace), "--metrics", str(metrics)]
    steps = int(round(scenario["duration"] / scenario["dt"]))

    def check(stdouts):
        problems, observed = checks.check_sim(_text(trace), _text(metrics), scenario)
        if pinned is not None:
            for name, path in (("trace", trace), ("metrics", metrics)):
                data = path.read_bytes() if path.is_file() else b""
                if name in pinned and hashlib.sha256(data).hexdigest() != pinned[name]:
                    problems.append(f"{name} bytes differ from the seed commit's")
            problems += checks.check_pinned(
                observed, {k: v for k, v in pinned.items() if k in checks.PIN_TOLERANCE})
        if problems:
            return [(problems, 0, steps)], observed
        # a step that lost the marker in frame failed: it keeps a stale hand estimate
        return [([], observed["marker_lost_steps"], 0)], observed

    return Plan([argv], [steps], [[str(trace), str(metrics)]], check)


def plan_sim_clean(seed: int, work: Path, pins: dict | None) -> Plan:
    sim_seed = gen.pinned_seed(seed)
    scenario = json.loads((PACKAGE / "scenarios" / "default.json").read_text())
    pinned = None if pins is None else pins["sim_clean"][str(sim_seed)]
    return _sim_plan(["simulate", "--seed", str(sim_seed)], scenario, work, pinned)


def plan_sim_noisy(seed: int, work: Path, pins: dict | None) -> Plan:
    path = work / "scenario.json"
    scenario = gen.sim_noisy_scenario(PACKAGE / "scenarios" / "default.json", seed, path)
    pinned = None if pins is None else pins["sim_noisy"][str(gen.pinned_seed(seed))]
    return _sim_plan(["simulate", "--scenario", str(path)], scenario, work, pinned)


def plan_pose_batch(seed: int, work: Path, pins: dict | None) -> Plan:
    obs, intr, truth_path = work / "obs.csv", work / "intrinsics.json", work / "truth.json"
    gen.pose_batch(seed, obs, intr, truth_path)
    truth = json.loads(truth_path.read_text())
    observations = [np.array([float(v) for v in line.split(",")[1:]]).reshape(4, 2)
                    for line in obs.read_text().splitlines()[1:]]
    pinned = None if pins is None else pins["pose_batch"][str(gen.pinned_seed(seed))]

    def check(stdouts):
        problems, errors, wrong, observed = checks.check_pose_rows(
            stdouts[0], observations, truth)
        if pinned is not None:
            drift = checks.check_pinned(observed, pinned)
            if drift:
                return [(problems + drift, 0, len(truth))], observed
        return [(problems, errors, wrong)], observed

    argv = ["pose", str(obs), "--intrinsics", str(intr),
            "--marker-side", str(gen.POSE_MARKER_SIDE)]
    return Plan([argv], [len(truth)], [[]], check)


def plan_stats_study(seed: int, work: Path, pins: dict | None) -> Plan:
    trials_csv = work / "trials.csv"
    matrix_csv = {side: work / f"matrix_{side}.csv" for side in gen.SIDES}
    trials = gen.stats_study(seed, PACKAGE / "data", trials_csv, matrix_csv)
    modes = ("confusion", "rates", "anova", "rmanova", "pairwise")
    calls, cases = [], []
    for side in gen.SIDES:
        for mode in modes:
            source = matrix_csv[side] if mode == "rates" else trials_csv
            calls.append(["analyze", mode, str(source), "--side", side])
            cases.append((mode, side))

    def check(stdouts):
        results = []
        for (mode, side), out in zip(cases, stdouts):
            matrix = np.array([[float(v) for v in line.split(",")[1:]]
                               for line in matrix_csv[side].read_text().splitlines()[1:]])
            want = checks.expected_analyze(mode, trials, side, matrix)
            try:
                got = json.loads(out)
            except json.JSONDecodeError:
                results.append(([f"{mode}/{side}: output is not JSON"], 0, 1))
                continue
            found = [f"{mode}/{side}: {p}" for p in checks.compare(got, want)]
            results.append((found, 0, 1 if found else 0))
        return results, {}

    return Plan(calls, [1] * len(calls), [[] for _ in calls], check)


PLANS = {"sim_clean": plan_sim_clean, "sim_noisy": plan_sim_noisy,
         "pose_batch": plan_pose_batch, "stats_study": plan_stats_study}


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def measure_setup() -> list:
    """Wall time of fresh interpreters that import handguard.cli and build its parser."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(PACKAGE)]
    subprocess.run(cmd, env=_env(), cwd=ROOT, check=True)  # fills the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_env(), cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_worker(plan: Plan, seconds: int, trace: bool, work: Path) -> dict:
    spec = {"src": str(SRC), "calls": plan.calls, "files": plan.files, "seconds": seconds,
            "trace": trace, "spans": str(work / "spans.npz"), "result": str(work / "result.json")}
    (work / "spec.json").write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(work / "spec.json")],
                          env=_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((work / "result.json").read_text())


def tally(plan: Plan, passes: list, stdouts: list) -> tuple:
    """(attempted, failed, failed ops per pass, wrong, problems, observed).

    Every pass repeats the same operations, so `attempted` counts one
    pass's operations and `failed` (`wrong`) those that failed (were wrong)
    in any pass: both depend on the inputs only, not on how many passes fit
    in the run.  A crashed call fails all its operations.  The outputs of
    the last pass are checked; every pass must have produced the same
    bytes, since the program is deterministic.
    """
    verdicts, observed = plan.check(stdouts)
    reference = passes[-1]["calls"]
    problems = []
    for argv, call, (found, _, _) in zip(plan.calls, reference, verdicts):
        if call["error"] is not None:
            problems.append(f"{' '.join(argv[:2])} {argv[-1]} failed: {call['error'][:200]}")
        else:
            problems += found
    failed_per_pass = []
    failed = [0] * len(plan.ops)
    wrong = [0] * len(plan.ops)
    for one_pass in passes:
        failed_per_pass.append(0)
        for i, (ops, call, ref, (_, crashed, bad)) in enumerate(
                zip(plan.ops, one_pass["calls"], reference, verdicts)):
            if call["error"] is not None:
                lost, bad = ops, 0
            elif call["digest"] != ref["digest"] or ref["error"] is not None:
                lost = bad = ops
                problems.append("outputs differ between passes")
            else:
                lost = crashed + bad
            failed_per_pass[-1] += lost
            failed[i] = max(failed[i], lost)
            wrong[i] = max(wrong[i], bad)
    return sum(plan.ops), sum(failed), failed_per_pass, sum(wrong), problems, observed


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def load_pins() -> dict:
    return json.loads((BENCH / "pins.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no program source at {PACKAGE}; run from a full checkout",
              file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = PLANS[args.workload](args.seed, work, load_pins())
    env = environment()
    print(f"# handguard benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(env))
    setup_times = [] if args.trace else measure_setup()
    result = run_worker(plan, args.seconds, bool(args.trace), work)

    passes = result["passes"] + result.get("traced_passes", [])
    attempted, failed, failed_per_pass, wrong, problems, observed = tally(
        plan, passes, result.get("traced_stdouts", result["stdouts"]))
    if "traced_stdouts" in result and result["traced_stdouts"] != result["stdouts"]:
        problems.append("traced outputs differ from untraced outputs")
        wrong += 1
    for p in list(dict.fromkeys(problems))[:20]:
        print(f"# problem {p}")

    # throughput counts only the operations that succeeded
    done = [sum(plan.ops) - f for f in failed_per_pass]
    rates = [d / p["wall_s"] for d, p in zip(done, result["passes"])]
    metrics, report = {}, []

    def put(name, value, unit, contract=True):
        report.append((name, value, unit))
        if contract:
            metrics[name] = {"value": value, "unit": unit}

    if args.trace:
        # pass times in reference-kernel units, so that the machine's drift
        # between the untraced and the traced passes cancels
        traced = [p["wall_s"] / p["cal_s"] for p in result["traced_passes"]]
        untraced = [p["wall_s"] / p["cal_s"] for p in result["passes"]]
        per_pass = 1.0 / len(traced)
        layers, counts = result["layers"], result["counts"]
        for span in SPANS:
            stats = layers.get(span, {"calls": 0, "self_s": 0.0, "p50_us": 0.0, "p99_us": 0.0})
            for field, unit in PER_SPAN:
                # counts and busy time per pass; percentiles over all calls
                scale = per_pass if field in ("calls", "self_s") else 1.0
                put(f"{span}.{field}", stats[field] * scale, unit)
        poses = layers.get("marker_pose.estimate_pose", {}).get("calls", 0)
        steps = layers.get("safety.step", {}).get("calls", 0)
        put("marker_pose.estimate_pose.failures",
            counts.get("marker_pose.estimate_pose.failures", 0) * per_pass, "count")
        put("marker_pose.residual_evals_per_pose",
            counts.get("marker_pose.residual_evals", 0) / poses if poses else 0.0, "count")
        for kind, key in (("halt", "halt_robot"), ("resume", "resume_robot"),
                          ("pattern", "start_pattern")):
            put(f"safety.commands.{kind}", counts.get(f"safety.commands.{key}", 0) * per_pass,
                "count")
        put("haptics.render_pattern.calls_per_step",
            layers.get("haptics.render_pattern", {}).get("calls", 0) / steps if steps else 0.0,
            "count/step")
        put("trace_overhead_frac",
            statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")
        report.append(("traced_passes", len(traced), "count"))
    else:
        per_cal = [r * p["cal_s"] for r, p in zip(rates, result["passes"])]
        put("ops_per_cal", statistics.median(per_cal), "1/cal")
        put("setup_s", statistics.median(setup_times), "s")
        put("peak_rss_mb", result["peak_rss_kb"] / 1024.0, "MB")
        put(OPS_NAME[args.workload], statistics.median(rates), "1/s", contract=False)
        put("cal_s", statistics.median(p["cal_s"] for p in result["passes"]), "s", contract=False)
        for name, values, unit in (("ops_per_cal", per_cal, "1/cal"),
                                   (OPS_NAME[args.workload], rates, "1/s"),
                                   ("setup_s", setup_times, "s")):
            q1, q3 = quartiles(values)
            report += [(f"{name}.q1", q1, unit), (f"{name}.q3", q3, unit)]
        report.append(("passes", len(rates), "count"))
    report.append(("error_frac", failed / attempted, "ratio"))
    for name, value in observed.items():
        unit = ("mm" if name.endswith("_mm") else "deg" if name.endswith("_deg")
                else "ratio" if name.endswith("_frac") else "count")
        report.append((name, value, unit))
    for name, value, unit in report:
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
