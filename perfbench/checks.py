"""Output checks, written independently of the program under test.

Each check returns a list of problems (empty when the output is right) and
the observables the report prints.  Nothing here imports `handguard`.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gen import PATTERN_ORDER, POSE_MARKER_SIDE, empirical_confusion, project

TRACE_HEADER = ("t,hand_x,hand_y,hand_z,tcp_x,tcp_y,tcp_z,distance,zone,state,"
                "active_pattern,robot_halted,direction,marker_visible")
ZONES = ("safe", "activation", "critical")
STATES = ("safe", "alert", "halted")
DIRECTIONS = ("", "right", "left", "down", "back")

# The simulator's fixed workspace: the camera at (0, 2, 0.6) m looks along
# world -y, and the gimbal holds the marker 10 cm from the hand, facing the
# camera.  A marker this far inside the image is in frame whatever the
# gimbal's lag, so losing it there is a perception failure.
CAMERA_POSITION = np.array([0.0, 2.0, 0.6])
WORLD_TO_CAMERA = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
MARKER_FROM_HAND_M = 0.10
IN_FRAME_MARGIN_PX = 80.0

# A pinned accuracy figure may grow by this share of itself plus this much
# before the output counts as wrong: (relative, absolute).
PIN_TOLERANCE = {"zone_error_frac": (0.10, 0.02), "marker_lost_steps": (0.0, 1),
                 "pose_trans_err_p95_mm": (0.10, 0.5),
                 "pose_rot_err_p95_deg": (0.10, 0.5)}


# --- simulation trace and metrics --------------------------------------------


def marker_in_frame(hand: np.ndarray, camera: dict) -> np.ndarray:
    """Per hand position (rows of x, y, z in m): the marker is well inside the image."""
    to_camera = CAMERA_POSITION - hand
    marker = hand + MARKER_FROM_HAND_M * to_camera / np.linalg.norm(
        to_camera, axis=1, keepdims=True)
    p = (marker - CAMERA_POSITION) @ WORLD_TO_CAMERA.T
    depth = np.maximum(p[:, 2], 1e-9)
    u = camera["fx"] * p[:, 0] / depth + camera["cx"]
    v = camera["fy"] * p[:, 1] / depth + camera["cy"]
    m = IN_FRAME_MARGIN_PX
    return ((p[:, 2] > 0.2) & (u > m) & (u < camera["image_width"] - m)
            & (v > m) & (v < camera["image_height"] - m))


def check_pinned(observed: dict, pinned: dict) -> list:
    """Accuracy figures must not grow beyond PIN_TOLERANCE of the pinned ones."""
    problems = []
    for name, want in pinned.items():
        rel, slack = PIN_TOLERANCE[name]
        got = observed.get(name)
        if got is None or got > want * (1.0 + rel) + slack:
            problems.append(f"{name} {got} exceeds the seed commit's {want} "
                            f"by more than {rel:.0%} + {slack}")
    return problems


def check_sim(trace_text: str, metrics_text: str, scenario: dict) -> tuple:
    """The trace is well formed and metrics.json agrees with it.  Returns
    (problems, observables); observable `marker_lost_steps` counts steps
    whose marker is in frame and yet not seen, which are failed steps."""
    problems = []
    lines = trace_text.splitlines()
    steps = int(round(scenario["duration"] / scenario["dt"]))
    if not lines or lines[0] != TRACE_HEADER:
        return ["trace header differs"], {}
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != steps:
        problems.append(f"trace has {len(rows)} rows, expected {steps}")
    if any(len(r) != 14 for r in rows):
        return problems + ["trace row without 14 fields"], {}
    try:
        num = np.array([[float(v) for v in r[:8]] for r in rows])
    except ValueError as exc:
        return problems + [f"trace number unreadable: {exc}"], {}
    if not np.isfinite(num).all():
        problems.append("trace holds non-finite numbers")
    if not np.allclose(num[:, 0], np.arange(len(rows)) * scenario["dt"], atol=6e-5):
        problems.append("trace time column is not k * dt")
    zone = [r[8] for r in rows]
    state = [r[9] for r in rows]
    pattern = [r[10] for r in rows]
    halted = [r[11] == "1" for r in rows]
    mapping = scenario["mapping"]
    for name, column, allowed in [
        ("zone", zone, ZONES), ("state", state, STATES),
        ("active_pattern", pattern, ("", *mapping)),
        ("robot_halted", [r[11] for r in rows], ("0", "1")),
        ("direction", [r[12] for r in rows], DIRECTIONS),
        ("marker_visible", [r[13] for r in rows], ("0", "1")),
    ]:
        bad = sorted(set(column) - set(allowed))
        if bad:
            problems.append(f"trace {name} has unknown values {bad}")
    if any((s == "halted") != h for s, h in zip(state, halted)):
        problems.append("state 'halted' disagrees with robot_halted")
    if any(z == "critical" and not h for z, h in zip(zone, halted)):
        problems.append("critical zone without a halted robot")
    if any(p and mapping[p] != r[12] for p, r in zip(pattern, rows)):
        problems.append("direction disagrees with the active pattern's mapping")

    try:
        metrics = json.loads(metrics_text)
    except json.JSONDecodeError as exc:
        return problems + [f"metrics.json unreadable: {exc}"], {}
    distance = num[:, 7]
    critical = scenario["zones"]["critical_distance"]
    activation = scenario["zones"]["activation_distance"]
    was_halted = [False] + halted[:-1]
    expected = {
        "min_distance": float(distance.min()),
        "halts": sum(1 for h, before in zip(halted, was_halted) if h and not before),
        "critical_violations": sum(
            1 for d, before in zip(distance, was_halted) if d < critical and not before),
    }
    if abs(metrics.get("min_distance", math.inf) - expected["min_distance"]) > 1e-6:
        problems.append("metrics min_distance disagrees with the trace")
    for key in ("halts", "critical_violations"):
        if metrics.get(key) != expected[key]:
            problems.append(f"metrics {key} {metrics.get(key)} != trace {expected[key]}")
    activations = metrics.get("pattern_activations", {})
    started = sum(1 for p, before in zip(pattern, [""] + pattern[:-1]) if p and p != before)
    if sum(activations.values()) < started or not set(pattern) - {""} <= set(activations):
        problems.append("metrics pattern_activations miss patterns seen in the trace")
    for key, times in metrics.get("measured_response_times", {}).items():
        if len(times) > activations.get(key, 0) or any(not 0 < t < 10 for t in times):
            problems.append(f"metrics response times for {key} are inconsistent")

    visible = np.array([r[13] == "1" for r in rows])
    lost = int((~visible & marker_in_frame(num[:, 1:4], scenario["camera"])).sum())

    true_zone = np.where(distance < critical, "critical",
                         np.where(distance < activation, "activation", "safe"))
    observed = {
        "zone_error_frac": float(np.mean(true_zone != np.array(zone))),
        "zone_transitions": sum(1 for a, b in zip(zone, zone[1:]) if a != b),
        "halts": expected["halts"],
        "pattern_activations": sum(activations.values()),
        "marker_invisible_steps": int((~visible).sum()),
        "marker_lost_steps": lost,
    }
    return problems, observed


# --- pose rows ----------------------------------------------------------------

REPROJECTION_TOL_PX = 3.0  # rms against the noiseless corners, 0.5 px noise


def check_pose_rows(stdout: str, observations: list, truth: list) -> tuple:
    """Per row: a proper rotation, the reported rms is the estimate's fit to
    the observed corners, and the estimate reprojects onto the true
    (noiseless) corners.  Returns (problems, error rows, wrong rows,
    observables)."""
    problems, errors, wrong = [], 0, 0
    lines = stdout.splitlines()
    if len(lines) != len(truth):
        return [f"{len(lines)} output rows for {len(truth)} observations"], 0, len(truth), {}
    trans_mm, rot_deg = [], []
    for i, (line, obs, tr) in enumerate(zip(lines, observations, truth)):
        row = json.loads(line)
        if row.get("line") != i + 2:
            problems.append(f"row {i}: line number {row.get('line')}")
            wrong += 1
            continue
        if "error" in row:
            errors += 1
            continue
        r = np.array(row["r"], dtype=float).reshape(3, 3)
        t = np.array(row["t"], dtype=float)
        fit = project(r, t, POSE_MARKER_SIDE)
        rms_obs = math.sqrt(((fit - obs) ** 2).sum(axis=1).mean() / 2.0)
        rms_true = math.sqrt(((fit - np.array(tr["corners"]).reshape(4, 2)) ** 2)
                             .sum(axis=1).mean() / 2.0)
        reasons = []
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-9 or abs(np.linalg.det(r) - 1) > 1e-9:
            reasons.append("rotation is not proper")
        if row.get("marker_id") != i or t[2] <= 0:
            reasons.append("marker id or depth")
        if abs(row["rms_px"] - rms_obs) > 1e-6 or not row["ambiguity_ratio"] >= 1.0:
            reasons.append(f"rms_px {row['rms_px']} vs {rms_obs}")
        if rms_true > REPROJECTION_TOL_PX:
            reasons.append(f"reprojects {rms_true:.2f} px from the true corners")
        if reasons:
            problems.append(f"row {i}: " + "; ".join(reasons))
            wrong += 1
            continue
        rt = np.array(tr["r"]).reshape(3, 3)
        trans_mm.append(1000.0 * float(np.linalg.norm(t - np.array(tr["t"]))))
        c = (np.trace(r.T @ rt) - 1.0) / 2.0
        rot_deg.append(math.degrees(math.acos(min(1.0, max(-1.0, c)))))
    observed = {}
    if trans_mm:
        observed = {"pose_trans_err_p95_mm": float(np.percentile(trans_mm, 95)),
                    "pose_rot_err_p95_deg": float(np.percentile(rot_deg, 95))}
    return problems, errors, wrong, observed


# --- recognition statistics ---------------------------------------------------


def incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) by tanh-sinh quadrature of the beta density (no continued
    fraction, so it shares no method with the program)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > a / (a + b):
        return 1.0 - incomplete_beta(b, a, 1.0 - x)
    h = 1.0 / 64.0
    u = np.arange(-288, 289) * h
    q = math.pi * np.sinh(u)
    log_s = -np.logaddexp(0.0, -q)  # s in (0, 1), t = x * s
    log_1ms = -np.logaddexp(0.0, q)
    log_ds = log_s + log_1ms + np.log(math.pi * np.cosh(u))
    log_f = ((a - 1.0) * (math.log(x) + log_s) + (b - 1.0) * np.log1p(-x * np.exp(log_s))
             + math.log(x) + log_ds)
    log_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    top = log_f.max()
    return float(math.exp(top + math.log(np.exp(log_f - top).sum() * h) - log_b))


def _close(got, want, rel=1e-6, abs_tol=1e-300) -> bool:
    if isinstance(want, float) and math.isinf(want):
        return got == want
    return isinstance(got, (int, float)) and abs(got - want) <= max(abs_tol, rel * abs(want))


def rate_table(trials, side: str) -> np.ndarray:
    """participant x pattern share of trials perceived correctly."""
    participants = sorted({p for p, s, _, _ in trials if s == side})
    hits = np.zeros((len(participants), 10))
    totals = np.zeros((len(participants), 10))
    row = {p: i for i, p in enumerate(participants)}
    col = {p: j for j, p in enumerate(PATTERN_ORDER)}
    for p, s, actual, perceived in trials:
        if s == side:
            totals[row[p], col[actual]] += 1
            hits[row[p], col[actual]] += actual == perceived
    return hits / totals


def _anova_expect(f, df1, df2) -> dict:
    p = 0.0 if math.isinf(f) else incomplete_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))
    return {"f": f, "df_between": df1, "df_within": df2, "p": p}


def expected_analyze(mode: str, trials, side: str, matrix: np.ndarray):
    """Independent numpy recomputation of one `handguard analyze` output."""
    if mode == "confusion":
        return {"patterns": list(PATTERN_ORDER),
                "matrix": empirical_confusion(trials, side).tolist()}
    if mode == "rates":
        diag = np.diag(matrix)
        return {"per_pattern": dict(zip(PATTERN_ORDER, diag.tolist())),
                "mean": float(diag.mean())}
    table = rate_table(trials, side)
    n, k = table.shape
    if mode == "anova":
        ss_between = float((n * (table.mean(axis=0) - table.mean()) ** 2).sum())
        ss_within = float(((table - table.mean(axis=0)) ** 2).sum())
        df1, df2 = k - 1, n * k - k
        return _anova_expect((ss_between / df1) / (ss_within / df2), df1, df2)
    if mode == "rmanova":
        grand = table.mean()
        ss_cond = n * float(((table.mean(axis=0) - grand) ** 2).sum())
        ss_subj = k * float(((table.mean(axis=1) - grand) ** 2).sum())
        ss_err = float(((table - grand) ** 2).sum()) - ss_cond - ss_subj
        df1, df2 = k - 1, (n - 1) * (k - 1)
        return _anova_expect((ss_cond / df1) / (ss_err / df2), df1, df2)
    pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    out = []
    for i, j in pairs:
        d = table[:, i] - table[:, j]
        sd = float(d.std(ddof=1))
        mean = float(d.mean())
        if sd == 0.0:
            t = 0.0 if mean == 0.0 else math.copysign(math.inf, mean)
            raw = 1.0 if mean == 0.0 else 0.0
        else:
            t = mean / (sd / math.sqrt(n))
            raw = incomplete_beta((n - 1) / 2.0, 0.5, (n - 1) / (n - 1 + t * t))
        corrected = min(1.0, raw * len(pairs))
        out.append({"pair": [PATTERN_ORDER[i], PATTERN_ORDER[j]], "t": t, "raw_p": raw,
                    "corrected_p": corrected, "significant": corrected < 0.05})
    return out


def compare(got, want, path="output") -> list:
    """Structural comparison with numeric tolerance; returns the differences."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{path}: not an object"]
        problems = []
        for key, value in want.items():
            if key not in got:
                problems.append(f"{path}.{key}: missing")
            else:
                problems += compare(got[key], value, f"{path}.{key}")
        return problems
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, bool) or isinstance(want, str) or isinstance(want, int):
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    return [] if _close(got, want) else [f"{path}: {got!r} != {want!r}"]
