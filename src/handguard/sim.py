"""Deterministic fixed-timestep simulation of the collaborative task.

One run advances a kinematic pick-and-place robot TCP along a looping
waypoint path, tracks the (scripted, latency-modeled) human hand through
the marker/mocap chain, drives the gimbal servo model, feeds distances to
the safety state machine, and emits a per-step trace plus summary metrics.
Everything is reproducible from the scenario seed.

`run` drives one stage after another each step, on Python floats where
numpy's per-call cost would be most of the work, and builds a value only on
the steps where it changes:
- robot: the TCP moves along its loop unless the robot is halted.  Only on
  steps where it moves (not the first, none while halted) does `run`
  recompute it on floats as a `Point3`, with its array for the true
  distance and its velocity `(p - q) / dt`; other steps reuse the TCP and
  pass a zero velocity;
- gimbal/marker (`_marker_view`): the servo's state is its two motor
  angles, a `gimbal.MotorDeltas` (a checked tuple, like every gimbal angle
  pair); they step toward the camera direction, normalised with `_norm`,
  and the marker rotation goes through the one Gram-Schmidt boundary
  (`geometry.orthonormalized`) into the one camera model; out come the
  corner pixels and the noiseless hand estimate as a `Point3`.  The stage
  is a pure function of the true hand and the motor angles, so `run` calls
  it only when the bits of those five floats change;
- perception (`_perceive`): with pixel noise, each visible step draws the
  noise and fits the pose with `marker_pose.fit_corners`; the hand comes
  back to the base frame as a `Point3`, and the last estimate is kept while
  no pose fits or the marker is out of frame;
- safety: `safety.step` on the estimated distance, given the hand estimate
  and the TCP as they are, with no point built for it; the state it returns
  carries the zone, so each distance is classified once, and the halted
  flag is read once per step;
- human (`_HumanAgent`): counts the patterns, draws a latency and a
  mis-response for each one it takes up, moves the hand and measures the
  response times.  Its state is one phase (idle, waiting for the latency,
  escaping, returning home) and one clock, `due`: the escape's start while
  waiting, the return's start once an escape has scheduled it.  It takes
  up a pattern when idle or returning; idle with nothing being measured it
  does nothing.  The noise and the human draw from the scenario's one
  generator in step order.
The true distance and the human model stay on numpy, so the logged
distances keep their bits.  `run` records one `TraceRow` of plain values
per step, whose fields are the trace CSV's columns (a new column is one
field plus its format in `_CSV_ROW`); its text columns come from dicts built
once per run (zone and mode to their values, each mapped pattern to its id
and its direction's value).  `run` folds the rows into
`min_distance`, `critical_violations` and `halts`; a row does not show a
pattern restarted with the same id, so the human stage counts those.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import gimbal, haptics, marker_pose, safety
from .config import ScenarioError, build_section, check_object, require_finite
from .geometry import HandOffset, Point3, RigidTransform, invert, orthonormalized, product_entries

RESPONSE_TIME_FLOOR_S = 0.05
MOVEMENT_DETECTION_M = 1e-3

# Fixed workspace geometry: robot base at the origin, user standing on the
# +y side facing -y.  The camera watches the workspace from behind the user.
CAMERA_POSITION = np.array([0.0, 2.0, 0.6])
CAMERA_ROTATION_WORLD_TO_CAM = np.array(
    [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]
)
# Wrist rest frame: x right (+x world), y up (+z world), z away from the camera
# (-y world); the gimbal turns the marker about 174 degrees to face the camera.
WRIST_ROTATION = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]).T
# Wrist rest frame in the camera frame; the gimbal's marker rotation follows.
CAMERA_FROM_WRIST = CAMERA_ROTATION_WORLD_TO_CAM @ WRIST_ROTATION


_CAMERA_FROM_WRIST_R = CAMERA_FROM_WRIST.ravel().tolist()
# robot base frame == world frame, so the base pose in the camera is
# camera-from-world and the camera pose in the base is its inverse
_CAM_FROM_WORLD = RigidTransform(
    CAMERA_ROTATION_WORLD_TO_CAM, -(CAMERA_ROTATION_WORLD_TO_CAM @ CAMERA_POSITION)
)
_BASE_FROM_CAMERA = invert(_CAM_FROM_WORLD)
_CW_R, _CW_T = _CAM_FROM_WORLD.rotation.ravel().tolist(), _CAM_FROM_WORLD.translation.tolist()
_BC_R, _BC_T = _BASE_FROM_CAMERA.rotation.ravel().tolist(), _BASE_FROM_CAMERA.translation.tolist()
_pack_view_inputs = struct.Struct("5d").pack
_AT_REST = (0.0, 0.0, 0.0)  # TCP velocity on a step the robot does not move


def _transform_point(r, t, x: float, y: float, z: float) -> tuple:
    """r @ (x, y, z) + t on Python floats, r given row by row."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    return (r00 * x + r01 * y + r02 * z + t[0],
            r10 * x + r11 * y + r12 * z + t[1],
            r20 * x + r21 * y + r22 * z + t[2])


def _hand_in_base(r, t, offset) -> Point3:
    """The hand in the base frame from a marker pose (r, t) in the camera frame."""
    return Point3(*_transform_point(_BC_R, _BC_T, *_transform_point(r, t, *offset)))


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) bit for bit: the root of one BLAS ddot, which may fuse
    with FMA where a Python sum of squares does not."""
    return math.sqrt(v.dot(v))


class UnknownPattern(KeyError):
    """Pattern id outside the human model's response-time table."""


@dataclass(frozen=True)
class HumanModel:
    """Scripted reactive human: latency draw, directional escape, return home."""

    response_mean: dict = field(
        default_factory=lambda: {"1L": 0.24, "2L": 0.61, "3L": 2.41, "5H": 0.85}
    )
    response_jitter_sigma: float = 0.1
    mis_response_probability: float = 0.03
    hand_speed: float = 0.5
    escape_displacement: float = 0.30
    return_delay: float = 1.0

    def __post_init__(self):
        if not isinstance(self.response_mean, dict):
            raise ScenarioError("human.response_mean: expected a JSON object")
        means = {str(haptics.PatternId.parse(k)): v for k, v in self.response_mean.items()}
        for pattern, mean in means.items():
            require_finite(f"human.response_mean.{pattern}", mean)
        if any(v < 0 for v in means.values()):
            raise ScenarioError("human.response_mean: times must be >= 0")
        object.__setattr__(self, "response_mean", means)
        for name in ("response_jitter_sigma", "mis_response_probability", "hand_speed",
                     "escape_displacement", "return_delay"):
            require_finite(f"human.{name}", getattr(self, name))
        if not 0 <= self.mis_response_probability <= 1:
            raise ScenarioError("human.mis_response_probability: must be in [0, 1]")
        if self.response_jitter_sigma < 0 or self.return_delay < 0:
            raise ScenarioError("human: times must be >= 0")
        if self.hand_speed <= 0 or self.escape_displacement <= 0:
            raise ScenarioError("human: hand_speed and escape_displacement must be > 0")


def sample_response_time(
    model: HumanModel, pattern: haptics.PatternId, rng: np.random.Generator
) -> float:
    """Draw one reaction latency for the pattern, floored at 0.05 s."""
    key = str(pattern)
    if key not in model.response_mean:
        raise UnknownPattern(key)
    draw = rng.normal(model.response_mean[key], model.response_jitter_sigma) \
        if model.response_jitter_sigma > 0 else model.response_mean[key]
    return max(draw, RESPONSE_TIME_FLOOR_S)


@dataclass(frozen=True)
class Scenario:
    dt: float = 0.01
    duration: float = 120.0
    seed: int = 0
    robot_waypoints: tuple = ()  # ((Point3, leg speed m/s), ...)
    hand_home: Point3 = Point3(0.15, 0.6, 0.2)
    zones: safety.SafetyZones = safety.SafetyZones()
    mapping: safety.DirectionMapping = safety.DirectionMapping()
    human: HumanModel = HumanModel()
    gear: gimbal.GearParams = gimbal.GearParams()
    camera: marker_pose.CameraIntrinsics = marker_pose.CameraIntrinsics()
    marker_side: float = 0.04
    pixel_noise_sigma: float = 0.0
    hand_offset: HandOffset = HandOffset()

    def __post_init__(self):
        for name in ("dt", "duration", "marker_side", "pixel_noise_sigma"):
            require_finite(name, getattr(self, name))
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) \
                or self.seed < 0:
            raise ScenarioError("seed: must be an integer >= 0")
        if self.dt <= 0:
            raise ScenarioError("dt: must be > 0")
        if self.duration < self.dt:
            raise ScenarioError("duration: must be >= dt")
        if len(self.robot_waypoints) < 2:
            raise ScenarioError("robot_waypoints: at least 2 waypoints required")
        for i, (_, speed) in enumerate(self.robot_waypoints):
            require_finite(f"robot_waypoints[{i}].speed", speed)
            if speed <= 0:
                raise ScenarioError(f"robot_waypoints[{i}].speed: must be > 0")
        if not _leg_table(self.robot_waypoints).legs:
            raise ScenarioError("robot_waypoints: all waypoints coincide")
        if self.marker_side <= 0:
            raise ScenarioError("marker_side: must be > 0")
        if self.pixel_noise_sigma < 0:
            raise ScenarioError("pixel_noise_sigma: must be >= 0")
        unmapped = [str(p) for p, _ in self.mapping.pattern_to_direction
                    if str(p) not in self.human.response_mean]
        if unmapped:
            raise ScenarioError(f"human.response_mean: no time for mapped patterns {unmapped}")

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Scenario":
        check_object(doc, {f.name for f in dataclasses.fields(cls)}, "scenario")
        kwargs = dict(doc)  # scalars pass through; __post_init__ checks them
        try:
            if "robot_waypoints" in doc:
                if not isinstance(doc["robot_waypoints"], list):
                    raise ScenarioError("robot_waypoints: expected a list of objects")
                wps = []
                for i, entry in enumerate(doc["robot_waypoints"]):
                    check_object(entry, {"point", "speed"}, f"robot_waypoints[{i}]",
                                  all_required=True)
                    point = _finite_coords(f"robot_waypoints[{i}].point", entry["point"])
                    wps.append((Point3(*point), entry["speed"]))
                kwargs["robot_waypoints"] = tuple(wps)
            if "hand_home" in doc:
                kwargs["hand_home"] = Point3(*_finite_coords("hand_home", doc["hand_home"]))
            if "hand_offset" in doc:
                kwargs["hand_offset"] = HandOffset(
                    _finite_coords("hand_offset", doc["hand_offset"]))
            if "mapping" in doc:
                kwargs["mapping"] = _direction_mapping(doc["mapping"])
            for key, section in _SECTIONS.items():
                if key in doc:
                    kwargs[key] = build_section(section, doc[key], key)
        except ScenarioError:
            raise
        except (TypeError, ValueError, KeyError) as exc:
            raise ScenarioError(f"scenario: {exc}") from exc
        return cls(**kwargs)


# Nested sections built straight from their dataclass (see build_section).
_SECTIONS = {
    "zones": safety.SafetyZones,
    "human": HumanModel,
    "gear": gimbal.GearParams,
    "camera": marker_pose.CameraIntrinsics,
}


def _finite_coords(name: str, coords) -> tuple:
    coords = tuple(coords)
    if len(coords) != 3:
        raise ScenarioError(f"{name}: expected 3 coordinates")
    for i, value in enumerate(coords):
        require_finite(f"{name}[{i}]", value)
    return coords


def _direction_mapping(doc) -> safety.DirectionMapping:
    """The `mapping` object, pattern id -> direction name."""
    if not isinstance(doc, dict):
        raise ScenarioError("mapping: expected a JSON object")
    try:
        return safety.DirectionMapping(tuple(
            (pattern, safety.Direction(direction)) for pattern, direction in doc.items()
        ))
    except ValueError as exc:
        raise ScenarioError(f"mapping: {exc}") from exc


class TraceRow(NamedTuple):
    """One simulation step as plain values; the fields are the CSV columns."""

    t: float
    hand_x: float
    hand_y: float
    hand_z: float
    tcp_x: float
    tcp_y: float
    tcp_z: float
    distance: float  # true hand-TCP distance, m
    zone: str  # safety.Zone value of the estimated distance
    state: str  # safety.Mode value
    active_pattern: str  # pattern id, or "" when none is active
    robot_halted: bool
    direction: str  # safety.Direction value of the active pattern, or ""
    marker_visible: bool


TRACE_CSV_HEADER = ",".join(TraceRow._fields)
_CSV_ROW = "%.4f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%s,%s,%s,%d,%s,%d"


@dataclass
class SimMetrics:
    min_distance: float
    critical_violations: int
    pattern_activations: dict
    measured_response_times: dict
    halts: int


class _Loop(NamedTuple):
    """The robot's closed loop: legs as (start, direction unit, length, leg
    duration), start and direction as float triples, and their total time."""

    legs: tuple
    cycle: float


def _leg_table(waypoints) -> _Loop:
    """The closed loop through the waypoints; no legs when all coincide."""
    legs = []
    n = len(waypoints)
    for i in range(n):
        a, speed = waypoints[i]
        b, _ = waypoints[(i + 1) % n]
        start = a.as_array()
        delta = b.as_array() - start
        length = float(np.linalg.norm(delta))
        if length < 1e-12:
            continue
        legs.append((tuple(start.tolist()), tuple((delta / length).tolist()),
                     length, length / speed))
    # left to right: the builtin sum compensates from Python 3.12 on
    cycle = 0.0
    for leg in legs:
        cycle += leg[3]
    return _Loop(tuple(legs), cycle)


def _position_on_loop(loop: _Loop, time_in_motion: float) -> Point3:
    """The TCP after time_in_motion along the loop, elementwise as numpy's
    start + direction * distance would round it."""
    tm = time_in_motion % loop.cycle
    for (sx, sy, sz), (ux, uy, uz), length, leg_time in loop.legs:
        if tm <= leg_time:
            f = length * tm / leg_time
            return Point3(sx + ux * f, sy + uy * f, sz + uz * f)
        tm -= leg_time
    (sx, sy, sz), (ux, uy, uz), length, _ = loop.legs[-1]
    return Point3(sx + ux * length, sy + uy * length, sz + uz * length)


class _HumanAgent:
    """The human stage of one run: hand motion, patterns and response times.

    `phase` is "idle", "waiting" (a pattern was taken up; the escape starts
    at `due`), "escaping" (moving out, then holding; the return starts at
    `due`, None until the hand is outside the activation zone) or
    "returning" (the hand goes home)."""

    def __init__(self, scenario: Scenario, rng: np.random.Generator):
        self.scenario = scenario
        self.model = scenario.human
        self.rng = rng
        self.home = self.position = scenario.hand_home.as_array()
        self.phase = "idle"
        self.due = None
        self.escape_direction = None
        self.escape_origin = None
        self.pattern_activations = {}
        self.response_times = {}
        # (pattern key, start t, hand at start); more than one is open when
        # an escape moves the hand less than MOVEMENT_DETECTION_M
        self.open_measurements = []

    def on_pattern(self, pattern: haptics.PatternId, t: float) -> None:
        """Count the pattern and take it up, opening one response-time measurement;
        a person already reacting to an earlier pattern (waiting or
        escaping) draws nothing, one returning home takes it up."""
        key = str(pattern)
        self.pattern_activations[key] = self.pattern_activations.get(key, 0) + 1
        if self.phase in ("waiting", "escaping"):
            return
        latency = sample_response_time(self.model, pattern, self.rng)
        direction = self.scenario.mapping.direction_for(pattern)
        if self.model.mis_response_probability > 0 and \
                self.rng.random() < self.model.mis_response_probability:
            wrong = [d for d in safety.Direction if d is not direction]
            direction = wrong[self.rng.integers(len(wrong))]
        self.phase, self.due = "waiting", t + latency
        self.escape_direction = safety.DIRECTION_VECTORS[direction]
        self.open_measurements.append((key, t, self.position.copy()))

    def step(self, k: int, distance: float) -> None:
        """Move the hand through step k, then close each open measurement
        once the hand is more than MOVEMENT_DETECTION_M from where it was.
        An idle person with nothing being measured does nothing."""
        if self.phase == "idle" and not self.open_measurements:
            return
        dt = self.scenario.dt
        t, step_len = k * dt, self.model.hand_speed * dt
        if self.phase == "waiting" and t >= self.due - 1e-9:
            self.phase, self.due = "escaping", None
            self.escape_origin = self.position.copy()
        if self.phase == "escaping":
            travelled = _norm(self.position - self.escape_origin)
            remaining = self.model.escape_displacement - travelled
            if remaining > 1e-12:
                self.position = self.position + self.escape_direction * min(step_len, remaining)
            else:
                # escape complete; wait until outside the activation zone,
                # then schedule the return home, which may begin this step
                if distance >= self.scenario.zones.activation_distance and self.due is None:
                    self.due = t + self.model.return_delay
                if self.due is not None and t >= self.due:
                    self.phase, self.due = "returning", None
        if self.phase == "returning":
            delta = self.home - self.position
            gap = _norm(delta)
            if gap <= step_len:
                self.position = self.home
                self.phase = "idle"
            else:
                self.position = self.position + delta * (step_len / gap)
        still_open = []
        for key, t0, origin in self.open_measurements:
            if _norm(self.position - origin) > MOVEMENT_DETECTION_M:
                self.response_times.setdefault(key, []).append(round((k + 1) * dt - t0, 10))
            else:
                still_open.append((key, t0, origin))
        self.open_measurements = still_open


def _marker_view(scenario: Scenario, hand_true: np.ndarray, servo: gimbal.MotorDeltas) -> tuple:
    """The gimbal/marker stage of one step.  The servo's state is its two
    motor angles: they step toward the angles that turn the marker to the
    camera, or toward themselves when that direction is degenerate.
    Returns (next motor angles, the four corner pixels or None when the
    marker is out of frame or behind the camera, noiseless hand estimate in
    the base frame)."""
    # gimbal keeps the marker normal on the camera
    to_camera = CAMERA_POSITION - hand_true
    to_camera = to_camera / _norm(to_camera)
    try:
        wanted = gimbal.correction_angles(WRIST_ROTATION.T @ to_camera)
        motor_target = gimbal.motor_deltas(wanted, scenario.gear)
    except gimbal.GimbalDegeneracy:
        motor_target = servo
    servo = gimbal.servo_step(servo, motor_target, scenario.dt)
    actual = gimbal.marker_deltas(servo, scenario.gear)
    # the marker sits at the hand minus the rotated hand offset; building it
    # straight in the camera frame and through the Gram-Schmidt boundary
    # hands the camera model a proper rotation
    ox, oy, oz = scenario.hand_offset.offset
    r = orthonormalized(product_entries(_CAMERA_FROM_WRIST_R,
                                        gimbal.marker_rotation_entries(actual)))
    t = _transform_point(r, _transform_point(_CW_R, _CW_T, *hand_true.tolist()), -ox, -oy, -oz)
    camera = scenario.camera
    try:
        uv = marker_pose.project_corners(r, t, scenario.marker_side / 2.0, camera)
    except marker_pose.PoseError:
        uv = None
    if uv and any(u < 0 or v < 0 or u > camera.image_width or v > camera.image_height
                  for u, v in uv):
        uv = None
    return servo, uv, _hand_in_base(r, t, scenario.hand_offset.offset)


def _perceive(scenario: Scenario, uv: list, rng: np.random.Generator):
    """Perception on one noisy visible step: draw the corner noise, fit the
    pose.  Returns the hand estimate in the base frame, None if no pose fits."""
    sigma = scenario.pixel_noise_sigma
    noise = rng.normal(0.0, sigma, size=(4, 2)).tolist()
    pixels = [(u + a, v + b) for (u, v), (a, b) in zip(uv, noise)]
    try:
        r, t, _, _ = marker_pose.fit_corners(pixels, scenario.marker_side, scenario.camera, sigma)
    except marker_pose.PoseError:
        return None
    return _hand_in_base(r, t, scenario.hand_offset.offset)


def run(scenario: Scenario) -> tuple:
    """Execute one simulation; returns (list of TraceRows, metrics)."""
    rng = np.random.default_rng(scenario.seed)
    dt = scenario.dt
    steps = int(round(scenario.duration / dt))
    loop = _leg_table(scenario.robot_waypoints)

    human = _HumanAgent(scenario, rng)
    state = safety.SafetyState()
    halted = state.robot_halted
    servo = gimbal.MotorDeltas(0.0, 0.0)
    robot_time = 0.0
    tcp = _position_on_loop(loop, 0.0)
    tcp_array = tcp.as_array()
    px, py, pz = tcp
    hand_est = Point3(*human.position.tolist())
    rows = []
    view_inputs = view = hand_true = distance_true = None
    # the trace's text columns, looked up per step
    zone_text = {zone: zone.value for zone in safety.Zone}
    mode_text = {mode: mode.value for mode in safety.Mode}
    pattern_text = {p: (str(p), d.value) for p, d in scenario.mapping.pattern_to_direction}
    pattern_text[None] = ("", "")

    for k in range(steps):
        t = k * dt
        # the TCP, its array, its velocity and the true distance change only
        # when the robot moves
        if not halted and k > 0:
            robot_time += dt
            qx, qy, qz = px, py, pz
            tcp = _position_on_loop(loop, robot_time)
            tcp_array = tcp.as_array()
            px, py, pz = tcp
            tcp_velocity = ((px - qx) / dt, (py - qy) / dt, (pz - qz) / dt)
            distance_true = None
        else:
            tcp_velocity = _AT_REST
        # the hand's coordinates and true distance change only when it moves:
        # _HumanAgent replaces its position array then, and never writes into it
        if human.position is not hand_true:
            hand_true = human.position
            hx, hy, hz = hand_true.tolist()
            distance_true = None

        # the stage's inputs by their bits: == would take 0.0 for -0.0
        inputs = _pack_view_inputs(hx, hy, hz, *servo)
        if inputs != view_inputs:
            view_inputs, view = inputs, _marker_view(scenario, hand_true, servo)
        servo, uv, seen = view
        # the noiseless view is exact; a pose is fitted only to noisy corners
        if uv is not None and scenario.pixel_noise_sigma > 0:
            seen = _perceive(scenario, uv, rng)
        marker_visible = uv is not None and seen is not None
        if marker_visible:
            hand_est = seen
        # else: keep last known hand_est

        if distance_true is None:
            distance_true = _norm(hand_true - tcp_array)
        ex, ey, ez = hand_est
        dx, dy, dz = ex - px, ey - py, ez - pz
        distance_est = math.sqrt(dx * dx + dy * dy + dz * dz)

        state, commands = safety.step(
            state,
            distance_est,
            hand_est,
            tcp,
            tcp_velocity,
            t,
            zones=scenario.zones,
            mapping=scenario.mapping,
        )
        for command in commands:
            if command.kind is safety.CommandKind.START_PATTERN:
                human.on_pattern(command.pattern, t)

        halted = state.robot_halted
        pattern, direction = pattern_text[state.active_pattern]
        rows.append(TraceRow(
            t, hx, hy, hz, px, py, pz, distance_true,
            zone_text[state.zone], mode_text[state.mode], pattern, halted, direction,
            marker_visible,
        ))
        human.step(k, distance_true)

    # a step violates when it enters the critical zone while the robot was
    # not already halted; a halt is a step that halts a robot that was not
    # halted before (safety.step cannot resume and halt in one step)
    halted_before = [False] + [row.robot_halted for row in rows[:-1]]
    metrics = SimMetrics(
        min_distance=min(row.distance for row in rows),
        critical_violations=sum(
            row.distance < scenario.zones.critical_distance and not before
            for row, before in zip(rows, halted_before)
        ),
        pattern_activations=human.pattern_activations,
        measured_response_times=human.response_times,
        halts=sum(row.robot_halted and not before for row, before in zip(rows, halted_before)),
    )
    return rows, metrics


def write_trace_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(TRACE_CSV_HEADER + "\n")
        fh.writelines(_CSV_ROW % row + "\n" for row in rows)


def write_metrics_json(metrics: SimMetrics, path) -> None:
    with open(path, "w") as fh:
        json.dump(dataclasses.asdict(metrics), fh, indent=2, sort_keys=True)
        fh.write("\n")
