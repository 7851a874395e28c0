"""Run one workload's CLI calls in a fresh interpreter and time them.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the program's source directory, the `handguard` argument lists
of one pass over the workload, the output files of each call, how long to
measure and whether to trace.  One pass is repeated until the time is up
(at least once), with a reference kernel timed before and after every
pass.  With tracing on, the untraced passes are followed by the
same number of seconds of traced passes; end-to-end numbers come only from
the untraced ones.  The result JSON goes to the path SPEC names.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

# The reference kernel runs between passes for a tenth of the last pass
# (at least 0.1 s); its time is reported per 8000 loops, about 0.1 s here.
CALIBRATION_LOOPS = 8000
CALIBRATION_SHARE = 0.1
CALIBRATION_MIN_S = 0.1


def invoke(main, argv) -> tuple:
    """(exit code, stdout, error text or None) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed operation, not a harness error
            error = f"{type(exc).__name__}: {exc}"
    if error is None and rc != 0:
        error = err.getvalue().strip() or f"exit code {rc}"
    return rc, out.getvalue(), error


def calibrate(at_least_s: float) -> float:
    """Seconds per CALIBRATION_LOOPS loops of a fixed reference kernel of
    small numpy operations, float formatting and short-lived Python objects,
    the program's own kind of work, run for
    at least `at_least_s`.  The machine's speed drifts; timing this between
    passes lets run.py report throughput relative to it."""
    loops = 0
    t0 = time.perf_counter()
    while not loops or time.perf_counter() - t0 < at_least_s:
        kept = []
        for i in range(1000):
            a = np.array([1.0 + i % 7, 2.0, 3.0])
            b = (np.outer(a, a) + np.eye(3)) @ a
            kept.append((b, f"{b[0]:.6f},{b[1]:.6f}", [j * 0.5 for j in range(8)]))
        loops += 1000
    return (time.perf_counter() - t0) / loops * CALIBRATION_LOOPS


def run_passes(main, calls, files, seconds: float, tracer=None) -> tuple:
    """Repeat one pass over `calls` for `seconds`; returns (passes, last stdouts)."""
    passes = []
    stdouts = []
    begin = time.perf_counter()
    cal = calibrate(CALIBRATION_MIN_S)
    while not passes or time.perf_counter() - begin < seconds:
        results = []
        t0 = time.perf_counter()
        for argv in calls:
            if tracer is not None:
                tracer.run_id += 1
            results.append(invoke(main, argv))
        wall = time.perf_counter() - t0
        stdouts = [out for _, out, _ in results]
        cal_after = calibrate(max(CALIBRATION_MIN_S, CALIBRATION_SHARE * wall))
        passes.append({
            "wall_s": wall, "cal_s": (cal + cal_after) / 2,
            "calls": [
                {
                    "error": error,
                    "digest": hashlib.sha256(out.encode() + b"".join(
                        Path(f).read_bytes() for f in out_files if Path(f).is_file())
                    ).hexdigest(),
                }
                for (_, out, error), out_files in zip(results, files)
            ],
        })
        cal = cal_after
    return passes, stdouts


def install_tracer(tracer, spans) -> None:
    import importlib

    from handguard import marker_pose

    def count_commands(result):
        for command in result[1]:
            tracer.counts["safety.commands." + command.kind.value] += 1

    for span in spans:
        module, *path, attr = span.split(".")
        home = importlib.import_module("handguard." + module)
        for part in path:
            home = getattr(home, part)
        tracer.span(span, home, attr, count_commands if span == "safety.step" else None)
    # The one private hook: Gauss-Newton cost per pose, as residual evaluations.
    tracer.count("marker_pose.residual_evals", marker_pose, "_residuals")


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import handguard
    from handguard import cli

    if src not in Path(handguard.__file__).resolve().parents:
        print(f"error: imported handguard from {handguard.__file__}, not {src}",
              file=sys.stderr)
        return 2
    calls, files, seconds = spec["calls"], spec["files"], spec["seconds"]
    passes, stdouts = run_passes(cli.main, calls, files, seconds)
    result = {"passes": passes, "stdouts": stdouts}
    if spec["trace"]:
        from tracer import SPANS, Tracer

        modules = [m for name, m in sys.modules.items() if name.startswith("handguard.")]
        tracer = Tracer(modules)
        install_tracer(tracer, SPANS)
        traced, traced_stdouts = run_passes(cli.main, calls, files, seconds, tracer)
        tracer.uninstall()
        tracer.write(spec["spans"])
        result.update({
            "traced_passes": traced,
            "traced_stdouts": traced_stdouts,
            "layers": tracer.stats(),
            "counts": dict(tracer.counts),
        })
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
