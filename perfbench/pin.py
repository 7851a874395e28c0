"""Pin the seed commit's outputs for every input seed the workloads use
(gen.PINNED_SEEDS): the sha256 of sim_clean's trace.csv and metrics.json,
sim_noisy's zone_error_frac and marker_lost_steps, and pose_batch's p95 pose errors.

Usage, from the root of a checkout of the commit whose outputs are pinned:

    python3 perfbench/pin.py

It rewrites perfbench/pins.json.  Run it again only in a change that says
why these outputs change.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import gen
import run
from worker import invoke

ACCURACY = {"sim_noisy": ("zone_error_frac", "marker_lost_steps"),
            "pose_batch": ("pose_trans_err_p95_mm", "pose_rot_err_p95_deg")}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from handguard import cli

    pins = {"sim_clean": {}, **{workload: {} for workload in ACCURACY}}
    for seed in range(gen.PINNED_SEEDS):
        for workload in pins:
            work = run.WORK / "pin" / workload
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            plan = run.PLANS[workload](seed, work, None)
            calls = [invoke(cli.main, argv) for argv in plan.calls]
            errors = [error for _, _, error in calls if error is not None]
            verdicts, observed = plan.check([out for _, out, _ in calls])
            problems = errors + [p for found, _, _ in verdicts for p in found]
            if problems:
                print(f"error: {workload} seed {seed}: {problems[:3]}", file=sys.stderr)
                return 1
            if workload == "sim_clean":
                pins[workload][str(seed)] = {
                    name: hashlib.sha256((work / f"{name}.{ext}").read_bytes()).hexdigest()
                    for name, ext in (("trace", "csv"), ("metrics", "json"))}
            else:
                pins[workload][str(seed)] = {k: observed[k] for k in ACCURACY[workload]}
    (run.BENCH / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
