"""Distance-zone guidance/halt state machine, direction selection, speed bound.

Zones on the hand-to-TCP distance: below the critical threshold the robot
halts; between critical and activation a guidance pattern is rendered; the
robot resumes once the hand clears the critical threshold (plus optional
hysteresis).  `step` classifies each sample once and returns the new
`SafetyState`, an immutable tuple of the mode, the active pattern, the
pattern clock, the sample's time and its zone; a caller reads the zone from
the state instead of classifying again, and `robot_halted` is a property of
the mode.

Direction vectors are world (robot-base) vectors, and `select_direction`
and the simulated human use them as such: Right = +x, Left = -x, Down = -z,
Back = -y.  They are not in the user's own frame: the bundled user stands on
+y facing -y, so "right" (+x) is the user's left and "back" (-y) leads
toward the robot.  ROADMAP item 6 is about one direction frame.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Point3
from .haptics import PatternId, pattern_duration

PREDICTION_HORIZON_S = 0.5
COOLDOWN_PAD_S = 0.5
SPEED_BOUND_CAP = 10.0  # m/s


class NonMonotonicTime(ValueError):
    """step() was called with a timestamp earlier than the previous call."""


class Zone(enum.Enum):
    SAFE = "safe"
    ACTIVATION = "activation"
    CRITICAL = "critical"


class Mode(enum.Enum):
    SAFE = "safe"
    ALERT = "alert"
    HALTED = "halted"


class Direction(enum.Enum):
    RIGHT = "right"
    LEFT = "left"
    DOWN = "down"
    BACK = "back"


# Unit vector of each direction in the world (robot-base) frame.  Insertion order is
# the tie-break order of select_direction: Right, Left, Down, Back.
DIRECTION_VECTORS = {
    Direction.RIGHT: np.array([1.0, 0.0, 0.0]),
    Direction.LEFT: np.array([-1.0, 0.0, 0.0]),
    Direction.DOWN: np.array([0.0, 0.0, -1.0]),
    Direction.BACK: np.array([0.0, -1.0, 0.0]),
}


@dataclass(frozen=True)
class SafetyZones:
    activation_distance: float = 0.40  # m
    critical_distance: float = 0.25  # m
    resume_hysteresis: float = 0.0  # m

    def __post_init__(self):
        if not 0 < self.critical_distance < self.activation_distance:
            raise ValueError("zones require 0 < critical_distance < activation_distance")
        if not 0 <= self.resume_hysteresis < math.inf:
            raise ValueError("resume_hysteresis must be finite and >= 0")


@dataclass(frozen=True)
class DirectionMapping:
    """Bijection between guidance patterns and movement directions: every
    direction has exactly one pattern, since select_direction can pick any."""

    pattern_to_direction: tuple = (
        ("1L", Direction.RIGHT),
        ("2L", Direction.LEFT),
        ("3L", Direction.DOWN),
        ("5H", Direction.BACK),
    )

    def __post_init__(self):
        pairs = tuple(
            (p if isinstance(p, PatternId) else PatternId.parse(p), d)
            for p, d in self.pattern_to_direction
        )
        patterns = [p for p, _ in pairs]
        directions = [d for _, d in pairs]
        if not len(set(patterns)) == len(set(directions)) == len(pairs) == len(Direction):
            raise ValueError("expected one distinct pattern for each direction "
                             + ", ".join(d.value for d in Direction))
        object.__setattr__(self, "pattern_to_direction", pairs)

    def pattern_for(self, direction: Direction) -> PatternId:
        for p, d in self.pattern_to_direction:
            if d is direction:
                return p
        raise KeyError(direction)

    def direction_for(self, pattern: PatternId) -> Direction:
        for p, d in self.pattern_to_direction:
            if p == pattern:
                return d
        raise KeyError(pattern)


class CommandKind(enum.Enum):
    START_PATTERN = "start_pattern"
    HALT_ROBOT = "halt_robot"
    RESUME_ROBOT = "resume_robot"


@dataclass(frozen=True)
class SafetyCommand:
    kind: CommandKind
    pattern: PatternId | None = None


class SafetyState(NamedTuple):
    """The state machine after a sample: an immutable tuple that `step`
    builds once per call, positionally."""

    mode: Mode = Mode.SAFE
    active_pattern: PatternId | None = None
    pattern_ends_at: float = float("-inf")  # end of the last pattern started
    last_time: float = float("-inf")
    zone: Zone = Zone.SAFE  # zone of the last sample's distance

    @property
    def robot_halted(self) -> bool:
        return self.mode is Mode.HALTED


def classify(distance: float, zones: SafetyZones) -> Zone:
    """Zone for a hand-to-TCP distance; a nan, infinite or negative distance
    raises, so a broken estimate can never read as safe."""
    if not 0 <= distance < math.inf:
        raise ValueError("distance must be finite and >= 0")
    if distance < zones.critical_distance:
        return Zone.CRITICAL
    if distance < zones.activation_distance:
        return Zone.ACTIVATION
    return Zone.SAFE


def select_direction(hand: Point3, tcp: Point3, tcp_velocity) -> Direction:
    """Escape direction maximizing clearance from the predicted TCP position;
    hand, tcp and tcp_velocity are any three floats (a Point3, a tuple, an array)."""
    v = np.asarray(tcp_velocity, dtype=float).reshape(3)
    tcp_predicted = np.array(tcp, dtype=float) + v * PREDICTION_HORIZON_S
    escape = np.array(hand, dtype=float) - tcp_predicted
    norm = np.linalg.norm(escape)
    if norm < 1e-12:
        escape = np.array([1.0, 0.0, 0.0])
    else:
        escape = escape / norm
    best = next(iter(DIRECTION_VECTORS))
    best_dot = -np.inf
    for direction, vec in DIRECTION_VECTORS.items():
        d = float(vec @ escape)
        if d > best_dot + 1e-12:
            best, best_dot = direction, d
    return best


def step(
    state: SafetyState,
    distance: float,
    hand: Point3,
    tcp: Point3,
    tcp_velocity,
    t: float,
    zones: SafetyZones = SafetyZones(),
    mapping: DirectionMapping = DirectionMapping(),
) -> tuple:
    """Advance the state machine one sample; returns (new_state, commands),
    the new state holding the sample's zone.  A non-finite t raises
    ValueError: a nan would become last_time, and no later t could then fail
    the NonMonotonicTime check."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if t < state.last_time:
        raise NonMonotonicTime(f"t went backwards: {t} < {state.last_time}")
    zone = classify(distance, zones)
    commands = []
    halted = state.robot_halted
    active_pattern = state.active_pattern
    pattern_ends_at = state.pattern_ends_at

    # a halted robot holds until the hand clears the critical distance plus
    # hysteresis; from there the zone decides, so a resume can start a pattern
    if halted and distance < zones.critical_distance + zones.resume_hysteresis:
        mode = Mode.HALTED
    elif zone is Zone.CRITICAL:
        commands.append(SafetyCommand(CommandKind.HALT_ROBOT))
        mode = Mode.HALTED
    else:
        if halted:
            commands.append(SafetyCommand(CommandKind.RESUME_ROBOT))
        if zone is Zone.ACTIVATION:
            mode = Mode.ALERT
            if t >= pattern_ends_at + COOLDOWN_PAD_S:
                pattern = mapping.pattern_for(select_direction(hand, tcp, tcp_velocity))
                commands.append(SafetyCommand(CommandKind.START_PATTERN, pattern))
                active_pattern = pattern
                pattern_ends_at = t + pattern_duration(pattern)
        else:
            mode = Mode.SAFE

    if mode is not Mode.ALERT and t >= pattern_ends_at:
        active_pattern = None

    return SafetyState(mode, active_pattern, pattern_ends_at, t, zone), commands


def max_robot_speed(
    zones: SafetyZones,
    max_response_time: float,
    hand_speed: float,
    required_clearance: float,
) -> float:
    """Upper bound on robot approach speed keeping the critical zone clear.

    The robot may cover at most the activation-to-critical gap while the
    human reacts (max_response_time) and then clears the required distance
    at hand_speed.  Capped at 10 m/s for degenerate inputs.
    """
    if max_response_time < 0 or hand_speed <= 0 or required_clearance < 0:
        raise ValueError("response time and clearance must be >= 0, hand_speed > 0")
    gap = zones.activation_distance - zones.critical_distance
    denom = max_response_time + required_clearance / hand_speed
    if denom <= 0:
        return SPEED_BOUND_CAP
    return min(gap / denom, SPEED_BOUND_CAP)
