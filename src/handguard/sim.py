"""Deterministic fixed-timestep simulation of the collaborative task.

One run advances a kinematic pick-and-place robot TCP along a looping
waypoint path, tracks the (scripted, latency-modeled) human hand through
the marker/mocap chain, drives the gimbal servo model, feeds distances to
the safety state machine, and emits a per-step trace plus summary metrics.
Everything is reproducible from the scenario seed.

Each step builds the marker pose once, straight in the camera frame (the
only re-orthonormalization, at the boundary into `marker_pose.project`).
The estimated marker pose comes back to the base frame as a point: the hand
offset goes through the estimated pose and then through base_from_camera.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import gimbal, haptics, marker_pose, safety
from .geometry import HandOffset, Point3, RigidTransform, invert

RESPONSE_TIME_FLOOR_S = 0.05
MOVEMENT_DETECTION_M = 1e-3

# Fixed workspace geometry: robot base at the origin, user standing on the
# +y side facing -y.  The camera watches the workspace from behind the user.
CAMERA_POSITION = np.array([0.0, 2.0, 0.6])
CAMERA_ROTATION_WORLD_TO_CAM = np.array(
    [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]
)
# Wrist rest frame: x right (+x world), z toward the camera (+y world).
WRIST_ROTATION = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]).T
# Wrist rest frame in the camera frame; the gimbal's marker rotation follows.
CAMERA_FROM_WRIST = CAMERA_ROTATION_WORLD_TO_CAM @ WRIST_ROTATION


class ScenarioError(ValueError):
    """Scenario config failed validation; message names the offending field."""


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
        means = {str(haptics.PatternId.parse(k)): v for k, v in self.response_mean.items()}
        for pattern, mean in means.items():
            _require_finite(f"human.response_mean.{pattern}", mean)
        if any(v < 0 for v in means.values()):
            raise ScenarioError("human.response_mean: times must be >= 0")
        object.__setattr__(self, "response_mean", means)
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


def _require_finite(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ScenarioError(f"{name}: must be a finite number")


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
            _require_finite(name, getattr(self, name))
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
            _require_finite(f"robot_waypoints[{i}].speed", speed)
            if speed <= 0:
                raise ScenarioError(f"robot_waypoints[{i}].speed: must be > 0")
        if self.marker_side <= 0:
            raise ScenarioError("marker_side: must be > 0")
        if self.pixel_noise_sigma < 0:
            raise ScenarioError("pixel_noise_sigma: must be >= 0")

    @property
    def max_robot_speed_mps(self) -> float:
        return max(speed for _, speed in self.robot_waypoints)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Scenario":
        return _scenario_from_dict(doc)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return _scenario_from_dict(json.loads(text))


# Nested sections built straight from their dataclass; its fields are the
# section's keys, and each numeric field must be a finite number.
_SECTIONS = {
    "zones": safety.SafetyZones,
    "human": HumanModel,
    "gear": gimbal.GearParams,
    "camera": marker_pose.CameraIntrinsics,
}


def _reject_unknown(doc: dict, allowed: set, path: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {sorted(unknown)}")


def _finite_coords(name: str, coords) -> tuple:
    coords = tuple(coords)
    for i, value in enumerate(coords):
        _require_finite(f"{name}[{i}]", value)
    return coords


def _scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario: expected a JSON object")
    _reject_unknown(doc, {f.name for f in dataclasses.fields(Scenario)}, "scenario")
    kwargs = dict(doc)  # scalars pass through; Scenario checks them
    try:
        if "robot_waypoints" in doc:
            wps = []
            for i, entry in enumerate(doc["robot_waypoints"]):
                _reject_unknown(entry, {"point", "speed"}, f"robot_waypoints[{i}]")
                point = _finite_coords(f"robot_waypoints[{i}].point", entry["point"])
                wps.append((Point3(*point), entry["speed"]))
            kwargs["robot_waypoints"] = tuple(wps)
        if "hand_home" in doc:
            kwargs["hand_home"] = Point3(*_finite_coords("hand_home", doc["hand_home"]))
        if "hand_offset" in doc:
            kwargs["hand_offset"] = HandOffset(_finite_coords("hand_offset", doc["hand_offset"]))
        if "mapping" in doc:
            pairs = tuple(
                (pattern, safety.Direction(direction))
                for pattern, direction in doc["mapping"].items()
            )
            kwargs["mapping"] = safety.DirectionMapping(pairs)
        for key, cls in _SECTIONS.items():
            if key in doc:
                _reject_unknown(doc[key], {f.name for f in dataclasses.fields(cls)}, key)
                for f in dataclasses.fields(cls):
                    if f.name in doc[key] and isinstance(f.default, numbers.Real):
                        _require_finite(f"{key}.{f.name}", doc[key][f.name])
                kwargs[key] = cls(**doc[key])
    except ScenarioError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ScenarioError(f"scenario: {exc}") from exc
    return Scenario(**kwargs)


@dataclass(frozen=True)
class TraceRecord:
    t: float
    hand: Point3
    tcp: Point3
    distance: float
    zone: safety.Zone
    state_mode: safety.Mode
    active_pattern: haptics.PatternId | None
    robot_halted: bool
    commanded_direction: safety.Direction | None
    marker_visible: bool

    def to_csv_row(self) -> str:
        return ",".join([
            f"{self.t:.4f}",
            f"{self.hand.x:.6f}", f"{self.hand.y:.6f}", f"{self.hand.z:.6f}",
            f"{self.tcp.x:.6f}", f"{self.tcp.y:.6f}", f"{self.tcp.z:.6f}",
            f"{self.distance:.6f}",
            self.zone.value,
            self.state_mode.value,
            str(self.active_pattern) if self.active_pattern else "",
            "1" if self.robot_halted else "0",
            self.commanded_direction.value if self.commanded_direction else "",
            "1" if self.marker_visible else "0",
        ])


TRACE_CSV_HEADER = (
    "t,hand_x,hand_y,hand_z,tcp_x,tcp_y,tcp_z,distance,zone,state,"
    "active_pattern,robot_halted,direction,marker_visible"
)


@dataclass
class SimMetrics:
    min_distance: float
    critical_violations: int
    pattern_activations: dict
    measured_response_times: dict
    halts: int

    def to_json_dict(self) -> dict:
        return {
            "min_distance": self.min_distance,
            "critical_violations": self.critical_violations,
            "pattern_activations": dict(self.pattern_activations),
            "measured_response_times": {
                k: list(v) for k, v in self.measured_response_times.items()
            },
            "halts": self.halts,
        }


def _leg_table(waypoints) -> tuple:
    """Closed-loop legs as (start, direction unit, length, leg duration)."""
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
        legs.append((start, delta / length, length, length / speed))
    if not legs:
        raise ScenarioError("robot_waypoints: all waypoints coincide")
    return tuple(legs)


def _position_on_loop(legs, time_in_motion: float) -> np.ndarray:
    cycle = sum(leg[3] for leg in legs)
    tm = time_in_motion % cycle
    for start, direction, length, leg_time in legs:
        if tm <= leg_time:
            return start + direction * (length * tm / leg_time)
        tm -= leg_time
    return legs[-1][0] + legs[-1][1] * legs[-1][2]


def robot_tcp_position(waypoints, t: float, halt_intervals=()) -> Point3:
    """TCP position at time t for a looping waypoint path with halt intervals.

    waypoints: sequence of (Point3, leg speed) pairs; halt_intervals:
    sequence of (start, end) times during which the robot is frozen.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    halted_before = 0.0
    for start, end in halt_intervals:
        halted_before += max(0.0, min(end, t) - start)
    return Point3.from_array(_position_on_loop(_leg_table(waypoints), t - halted_before))


class _HumanAgent:
    """Internal mutable hand-motion state for one run."""

    def __init__(self, scenario: Scenario, rng: np.random.Generator):
        self.scenario = scenario
        self.model = scenario.human
        self.rng = rng
        self.position = scenario.hand_home.as_array()
        self.respond_at = None
        self.escape_direction = None
        self.escape_origin = None
        self.escaping = False
        self.return_at = None
        self.returning = False

    def on_pattern(self, pattern: haptics.PatternId, t: float) -> bool:
        """Returns True when the human takes up the pattern; a person already
        reacting to an earlier pattern keeps reacting to that one."""
        if self.respond_at is not None or self.escaping:
            return False
        latency = sample_response_time(self.model, pattern, self.rng)
        direction = self.scenario.mapping.direction_for(pattern)
        if self.model.mis_response_probability > 0 and \
                self.rng.random() < self.model.mis_response_probability:
            wrong = [d for d in safety.Direction if d is not direction]
            direction = wrong[self.rng.integers(len(wrong))]
        self.respond_at = t + latency
        self.escape_direction = safety.DIRECTION_VECTORS[direction]
        self.escaping = False
        self.returning = False
        self.return_at = None
        return True

    def step(self, t: float, distance: float) -> None:
        dt = self.scenario.dt
        step_len = self.model.hand_speed * dt
        if self.respond_at is not None and t >= self.respond_at - 1e-9 and not self.escaping:
            self.escaping = True
            self.escape_origin = self.position.copy()
        if self.escaping:
            travelled = float(np.linalg.norm(self.position - self.escape_origin))
            remaining = self.model.escape_displacement - travelled
            if remaining > 1e-12:
                self.position = self.position + self.escape_direction * min(step_len, remaining)
                return
            # escape complete; wait until outside the activation zone, then
            # schedule the return home
            if distance >= self.scenario.zones.activation_distance and self.return_at is None:
                self.return_at = t + self.model.return_delay
            if self.return_at is not None and t >= self.return_at:
                self.escaping = False
                self.respond_at = None
                self.return_at = None
                self.returning = True
        if self.returning:
            home = self.scenario.hand_home.as_array()
            delta = home - self.position
            gap = float(np.linalg.norm(delta))
            if gap <= step_len:
                self.position = home
                self.returning = False
            else:
                self.position = self.position + delta * (step_len / gap)


def run(scenario: Scenario) -> tuple:
    """Execute one simulation; returns (trace records, metrics)."""
    rng = np.random.default_rng(scenario.seed)
    dt = scenario.dt
    steps = int(round(scenario.duration / dt))
    legs = _leg_table(scenario.robot_waypoints)

    cam_from_world = RigidTransform(
        CAMERA_ROTATION_WORLD_TO_CAM,
        -(CAMERA_ROTATION_WORLD_TO_CAM @ CAMERA_POSITION),
    )
    # robot base frame == world frame, so the base pose in the camera is
    # cam_from_world and the camera pose in the base is its inverse
    base_from_camera = invert(cam_from_world)

    offset = scenario.hand_offset.as_array()

    human = _HumanAgent(scenario, rng)
    state = safety.SafetyState()
    servo = gimbal.ServoState()
    robot_time = 0.0
    tcp = _position_on_loop(legs, 0.0)
    hand_est = human.position.copy()

    trace = []
    metrics = SimMetrics(
        min_distance=float("inf"),
        critical_violations=0,
        pattern_activations={},
        measured_response_times={},
        halts=0,
    )
    # open response-time measurements: (pattern key, start t, hand at start)
    pending_measurements = []
    prev_halted = False

    for k in range(steps):
        t = k * dt
        if not prev_halted and k > 0:
            robot_time += dt
        tcp_prev = tcp
        tcp = _position_on_loop(legs, robot_time)
        tcp_velocity = (tcp - tcp_prev) / dt if k > 0 else np.zeros(3)

        hand_true = human.position.copy()

        # gimbal keeps the marker normal on the camera
        to_camera = CAMERA_POSITION - hand_true
        to_camera = to_camera / np.linalg.norm(to_camera)
        target_in_wrist = WRIST_ROTATION.T @ to_camera
        try:
            wanted = gimbal.correction_angles(target_in_wrist)
            motor_target = gimbal.motor_deltas(wanted, scenario.gear)
        except gimbal.GimbalDegeneracy:
            motor_target = gimbal.MotorDeltas(servo.angle_a, servo.angle_b)
        servo = gimbal.servo_step(servo, motor_target, dt)
        actual = gimbal.marker_deltas(
            gimbal.MotorDeltas(servo.angle_a, servo.angle_b), scenario.gear
        )
        # the marker sits at the hand minus the rotated hand offset; building
        # it straight in the camera frame hands project a proper rotation
        marker_rot = CAMERA_FROM_WRIST @ gimbal.marker_rotation(actual)
        marker_in_camera = RigidTransform.from_orthonormalized(
            marker_rot, cam_from_world.apply(hand_true) - marker_rot @ offset
        )

        # mocap chain: real estimation only when pixel noise is injected
        marker_visible = True
        est_marker_in_camera = marker_in_camera
        try:
            corners = marker_pose.project(
                marker_in_camera, scenario.marker_side, scenario.camera
            )
            if (corners < 0).any() or \
                    (corners[:, 0] > scenario.camera.image_width).any() or \
                    (corners[:, 1] > scenario.camera.image_height).any():
                marker_visible = False
            elif scenario.pixel_noise_sigma > 0:
                obs = marker_pose.MarkerObservation(
                    marker_id=0,
                    corners=corners + rng.normal(
                        0.0, scenario.pixel_noise_sigma, size=corners.shape
                    ),
                )
                est = marker_pose.estimate_pose(
                    obs, scenario.marker_side, scenario.camera
                )
                est_marker_in_camera = est.pose
        except marker_pose.PoseError:
            marker_visible = False

        if marker_visible:
            hand_est = base_from_camera.apply(est_marker_in_camera.apply(offset))
        # else: keep last known hand_est

        distance_true = float(np.linalg.norm(hand_true - tcp))
        distance_est = float(np.linalg.norm(hand_est - tcp))
        tcp_point = Point3.from_array(tcp)

        state, commands = safety.step(
            state,
            distance_est,
            Point3.from_array(hand_est),
            tcp_point,
            tcp_velocity,
            t,
            zones=scenario.zones,
            mapping=scenario.mapping,
        )
        for command in commands:
            if command.kind is safety.CommandKind.HALT_ROBOT:
                metrics.halts += 1
            elif command.kind is safety.CommandKind.START_PATTERN:
                key = str(command.pattern)
                metrics.pattern_activations[key] = (
                    metrics.pattern_activations.get(key, 0) + 1
                )
                if human.on_pattern(command.pattern, t):
                    pending_measurements.append((key, t, hand_true.copy()))

        zone = safety.classify(distance_est, scenario.zones)
        direction = None
        if state.active_pattern is not None:
            direction = scenario.mapping.direction_for(state.active_pattern)
        trace.append(TraceRecord(
            t=t,
            hand=Point3.from_array(hand_true),
            tcp=tcp_point,
            distance=distance_true,
            zone=zone,
            state_mode=state.mode,
            active_pattern=state.active_pattern,
            robot_halted=state.robot_halted,
            commanded_direction=direction,
            marker_visible=marker_visible,
        ))

        metrics.min_distance = min(metrics.min_distance, distance_true)
        if distance_true < scenario.zones.critical_distance and not prev_halted:
            metrics.critical_violations += 1
        prev_halted = state.robot_halted

        human.step(t, distance_true)

        # close response measurements on the first > 1 mm displacement
        still_open = []
        for key, t0, origin in pending_measurements:
            if float(np.linalg.norm(human.position - origin)) > MOVEMENT_DETECTION_M:
                metrics.measured_response_times.setdefault(key, []).append(
                    round((k + 1) * dt - t0, 10)
                )
            else:
                still_open.append((key, t0, origin))
        pending_measurements = still_open

    return trace, metrics


def write_trace_csv(trace, path) -> None:
    with open(path, "w") as fh:
        fh.write(TRACE_CSV_HEADER + "\n")
        for record in trace:
            fh.write(record.to_csv_row() + "\n")


def write_metrics_json(metrics: SimMetrics, path) -> None:
    with open(path, "w") as fh:
        json.dump(metrics.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
