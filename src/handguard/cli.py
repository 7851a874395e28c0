"""Command-line entry point: file-based simulation, pattern, pose,
calibration, and analysis workflows.

Exit codes: 0 success, 1 runtime data failure, 2 usage/config error.

The parser is built once per process.  Importing this module loads only
the stdlib and `haptics`; each command imports the layers it uses (numpy
among them) when it runs, so `pattern` and `--help` never load numpy.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from pathlib import Path

from . import haptics, scenario_path

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(path)
    return p


def _output_error(flag: str, out: str, suffixes=("",)):
    """The usage message when the output file `out`, written once per suffix
    (`_with_suffix`), has no directory to go in or would land on a
    directory; else None."""
    path = Path(out)
    if not path.parent.is_dir():
        return f"{flag} {out}: directory {path.parent} does not exist"
    if not path.name:  # "", "." or "/", which take no suffix
        return f"{flag} {out}: is a directory"
    for written in (_with_suffix(out, suffix) for suffix in suffixes):
        if Path(written).is_dir():
            return f"{flag} {written}: is a directory"
    return None


def _read_intrinsics(path: str) -> marker_pose.CameraIntrinsics:
    from . import config, marker_pose

    with open(_require_file(path)) as fh:
        return config.build_section(marker_pose.CameraIntrinsics, json.load(fh), "intrinsics")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number: {text}")
    return value


def _marker_side(text: str) -> float:
    side = float(text)
    if not 0 < side < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number: {text}")
    return side


def _read_observations(path: str) -> list:
    """Parse `marker_id,u0,v0,...,u3,v3` lines.  Per data line returns
    (line_no, marker_id, corners, None), the corners as four finite (u, v)
    floats, or (line_no, None, None, message)."""
    rows = []
    with open(_require_file(path)) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.lower().startswith("marker_id"):
                continue
            try:
                parts = list(map(float, line.split(",")))
                if len(parts) != 9:
                    raise ValueError("expected 9 comma-separated values")
                if not parts[0].is_integer():  # also inf and nan
                    raise ValueError("marker_id must be an integer")
                if not all(map(math.isfinite, parts)):
                    raise ValueError("corners must be finite")
                rows.append((line_no, int(parts[0]), list(zip(parts[1::2], parts[2::2])), None))
            except ValueError as exc:
                rows.append((line_no, None, None, str(exc)))
    return rows


def _fit_observations(rows: list, marker_side: float,
                      intrinsics: marker_pose.CameraIntrinsics) -> list:
    """(line_no, marker_id, kept fit or error) per row of _read_observations:
    the reader's message, or what fit_corners_many gives the row, which fits
    every readable row in one call."""
    from .marker_pose import fit_corners_many

    fits = iter(fit_corners_many([corners for _, _, corners, error in rows if error is None],
                                 marker_side, intrinsics, 0.0))
    return [(line_no, marker_id, next(fits) if error is None else error)
            for line_no, marker_id, _, error in rows]


def cmd_simulate(args) -> int:
    from . import sim

    path = args.scenario or str(scenario_path())
    try:
        with open(_require_file(path)) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return _fail(f"scenario file not found: {path}", EXIT_USAGE)
    except ValueError as exc:  # bad JSON, bytes that are not UTF-8, the int digit limit
        return _fail(f"scenario JSON invalid: {exc}", EXIT_USAGE)
    if not isinstance(doc, dict):
        return _fail("scenario: expected a JSON object", EXIT_USAGE)
    if args.seed is not None:
        doc["seed"] = args.seed

    seeds = [doc.get("seed", 0)]
    if args.seeds:
        try:
            lo, hi = (int(x) for x in args.seeds.split(".."))
        except ValueError:
            return _fail("--seeds expects a..b", EXIT_USAGE)
        if lo > hi:
            return _fail(f"--seeds {args.seeds}: a must be <= b", EXIT_USAGE)
        seeds = list(range(lo, hi + 1))
    suffixes = [f".{seed}" for seed in seeds] if len(seeds) > 1 else [""]
    for flag, out in (("--trace", args.trace), ("--metrics", args.metrics)):
        if message := _output_error(flag, out, suffixes):
            return _fail(message, EXIT_USAGE)
    if Path(args.trace).resolve() == Path(args.metrics).resolve():
        return _fail(f"--metrics {args.metrics}: is the --trace file", EXIT_USAGE)

    for seed, suffix in zip(seeds, suffixes):
        doc["seed"] = seed
        try:
            scenario = sim.Scenario.from_json_dict(doc)
        except sim.ScenarioError as exc:
            return _fail(str(exc), EXIT_USAGE)
        trace_path = _with_suffix(args.trace, suffix)
        # each row is written as it is made; a run that raises leaves no
        # partial trace and no metrics
        with open(trace_path, "w") as fh:
            try:
                _, metrics = sim.run(scenario, sim.TraceCsv(fh))
            except BaseException:
                fh.close()
                # a device or a link (--trace /dev/stdout) is not the run's to delete
                written = Path(trace_path)
                if written.is_file() and not written.is_symlink():
                    written.unlink()
                raise
        sim.write_metrics_json(metrics, _with_suffix(args.metrics, suffix))
        print(
            f"seed {seed}: min_distance {metrics.min_distance:.4f} m, "
            f"critical_violations {metrics.critical_violations}"
        )
    return EXIT_OK


def _with_suffix(path: str, suffix: str) -> str:
    if not suffix:
        return path
    p = Path(path)
    return str(p.with_name(p.stem + suffix + p.suffix))


def cmd_pattern(args) -> int:
    try:
        pattern = haptics.PatternId.parse(args.id)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    timeline = haptics.render_pattern(pattern)
    print("motor,start_s,duration_s")
    for e in timeline.events:
        print(f"{e.motor_index},{e.start:.1f},{e.duration:.1f}")
    freq = haptics.pattern_frequency(pattern)
    print(f"duration {timeline.total_duration:.1f} s, frequency {freq:.4g} Hz")
    return EXIT_OK


def cmd_pose(args) -> int:
    try:
        intrinsics = _read_intrinsics(args.intrinsics)
        rows = _read_observations(args.observations)
    except FileNotFoundError as exc:
        return _fail(f"file not found: {exc}", EXIT_USAGE)
    except (ValueError, json.JSONDecodeError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    if not rows:
        return _fail("no observations in file", EXIT_DATA_ERROR)
    failures = 0
    for line_no, marker_id, fit in _fit_observations(rows, args.marker_side, intrinsics):
        if not isinstance(fit, tuple):
            print(json.dumps({"line": line_no, "error": str(fit)}))
            failures += 1
            continue
        r, t, rms, ratio = fit
        print(json.dumps({"r": r, "t": t, "line": line_no, "marker_id": marker_id,
                          "rms_px": rms, "ambiguity_ratio": ratio}))
    return EXIT_DATA_ERROR if failures == len(rows) else EXIT_OK


def cmd_calibrate(args) -> int:
    from .geometry import RigidTransform, compose, invert
    from .marker_pose import PoseError

    try:
        intrinsics = _read_intrinsics(args.intrinsics)
        rows = _read_observations(args.observations)
        if args.base_transform:
            with open(_require_file(args.base_transform)) as fh:
                base_marker_to_robot_base = RigidTransform.from_json_dict(json.load(fh))
        else:
            base_marker_to_robot_base = RigidTransform.identity()
    except FileNotFoundError as exc:
        return _fail(f"file not found: {exc}", EXIT_USAGE)
    except (ValueError, json.JSONDecodeError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    if args.out and (message := _output_error("--out", args.out)):
        return _fail(message, EXIT_USAGE)
    # the first row that fits calibrates; a reader's message is a str, a
    # readable row's failed fit a PoseError
    fits = [fit for _, _, fit in _fit_observations(rows, args.marker_side, intrinsics)]
    kept = [fit for fit in fits if isinstance(fit, tuple)]
    if not kept:
        errors = [fit for fit in fits if isinstance(fit, PoseError)]
        return _fail(f"calibration failed: {errors[0]}" if errors
                     else "no usable base-marker observation", EXIT_DATA_ERROR)
    r, t, _, _ = kept[0]
    # base-marker-in-camera composed with robot-base-in-base-marker
    base_in_camera = compose(RigidTransform((r[:3], r[3:6], r[6:]), t),
                             invert(base_marker_to_robot_base))
    payload = json.dumps(base_in_camera.to_json_dict())
    if args.out:
        Path(args.out).write_text(payload + "\n")
    print(payload)
    return EXIT_OK


# `analyze` modes, in the order the parser lists them
_ANALYSES = ("confusion", "rates", "anova", "rmanova", "pairwise")


def _analyze(mode: str, path: Path, side: haptics.WristSide):
    """The JSON payload of one `analyze` mode.  `rates` reads a one-side
    matrix CSV; the others read one side of a trials CSV into counts, where
    `confusion` stops, and the three tests go on to the participant x
    pattern rate table."""
    from . import analysis

    if mode == "rates":
        diag, mean = analysis.recognition_rates(analysis.ConfusionMatrix.from_csv(path))
        return {"per_pattern": dict(zip(analysis.PATTERN_ORDER, diag.tolist())), "mean": mean}
    participants, counts = analysis.read_trials_csv(path, side)
    if mode == "confusion":
        return {"patterns": list(analysis.PATTERN_ORDER),
                "matrix": analysis.confusion_from_trials(counts).values.tolist()}
    table = analysis.per_participant_rates(participants, counts)
    if mode == "pairwise":
        samples = dict(zip(analysis.PATTERN_ORDER, (column.tolist() for column in table.T)))
        pairs = itertools.combinations(analysis.PATTERN_ORDER, 2)
        return [{"pair": list(r.pair), "t": r.t_statistic, "raw_p": r.raw_p,
                 "corrected_p": r.corrected_p, "significant": r.significant}
                for r in analysis.paired_t_bonferroni(samples, pairs)]
    result = analysis.one_way_anova(list(table.T)) if mode == "anova" else analysis.rm_anova(table)
    return {"f": result.f_statistic, "df_between": result.df_between,
            "df_within": result.df_within, "p": result.p_value, "degenerate": result.degenerate}


def cmd_analyze(args) -> int:
    try:
        payload = _analyze(args.mode, _require_file(args.input), haptics.WristSide(args.side))
    except FileNotFoundError as exc:
        return _fail(f"file not found: {exc}", EXIT_USAGE)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    print(json.dumps(payload))
    return EXIT_OK


def cmd_speed_bound(args) -> int:
    from . import safety

    # a zero-width alert zone leaves no reaction margin at all, so the bound
    # is 0 whatever the formula gives; SafetyZones takes no such zone, so the
    # other inputs are checked by max_robot_speed against the default zones
    zero_width = args.critical >= 0 and args.activation == args.critical
    try:
        zones = safety.SafetyZones() if zero_width else safety.SafetyZones(
            activation_distance=args.activation,
            critical_distance=args.critical,
        )
        bound = safety.max_robot_speed(
            zones, args.response_time, args.hand_speed, args.clearance
        )
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    print(f"{0.0 if zero_width else bound:.6f}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handguard",
        description="Marker mocap, vibrotactile guidance, and robot-safety simulation tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the collaborative-task simulation")
    p.add_argument("--scenario", help="scenario JSON (default: bundled default.json)")
    p.add_argument("--trace", default="trace.csv", help="output trace CSV path")
    p.add_argument("--metrics", default="metrics.json", help="output metrics JSON path")
    p.add_argument("--seed", type=int, help="seed override")
    p.add_argument("--seeds", help="seed sweep a..b, one independent run per seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pattern", help="print a vibration pattern timeline")
    p.add_argument("id", help="pattern id, e.g. 1H or 3L")
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("pose", help="estimate marker poses from corner observations")
    p.add_argument("observations", help="CSV: marker_id,u0,v0,u1,v1,u2,v2,u3,v3")
    p.add_argument("--intrinsics", required=True, help="camera intrinsics JSON")
    p.add_argument("--marker-side", type=_marker_side, default=0.04, help="marker side, m")
    p.set_defaults(func=cmd_pose)

    p = sub.add_parser("calibrate", help="estimate robot base pose in the camera frame")
    p.add_argument("observations", help="base-marker observation CSV")
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--marker-side", type=_marker_side, default=0.04)
    p.add_argument("--base-transform",
                   help="JSON transform base-marker -> robot base (default identity)")
    p.add_argument("--out", help="write the calibration JSON here as well")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("analyze", help="confusion-matrix and recognition statistics")
    p.add_argument("mode", choices=_ANALYSES)
    p.add_argument("input", help="matrix CSV (rates) or trials CSV (other modes)")
    p.add_argument("--side", default=haptics.WristSide.VOLAR.value,
                   choices=[side.value for side in haptics.WristSide],
                   help="wrist side of the trials CSV to read; rates reads a one-side "
                        "matrix and ignores it")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("speed-bound", help="robot speed upper bound from zone geometry")
    p.add_argument("--activation", type=_finite, default=0.40)
    p.add_argument("--critical", type=_finite, default=0.25)
    p.add_argument("--response-time", type=_finite, required=True)
    p.add_argument("--hand-speed", type=_finite, default=0.5)
    p.add_argument("--clearance", type=_finite, default=0.30)
    p.set_defaults(func=cmd_speed_bound)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
