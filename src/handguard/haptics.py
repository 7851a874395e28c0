"""Vibrotactile pattern timelines for the five-motor wrist band.

Motor index 1 is the wearer's rightmost motor; motors sit 2 cm apart
(metadata only, unused by the scheduling logic).  Each pattern activates
every motor exactly once; the high-speed step lasts 0.1 s and the
low-speed step 0.2 s.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

MOTOR_COUNT = 5

STEP_HIGH_S = 0.1
STEP_LOW_S = 0.2


class WristSide(enum.Enum):
    """The side of the wrist that the band's motors sit on."""

    VOLAR = "volar"
    DORSAL = "dorsal"


class Shape(enum.IntEnum):
    RIGHT_TO_LEFT = 1
    LEFT_TO_RIGHT = 2
    CENTER_OUT = 3
    OUT_TO_CENTER = 4
    ALL_TOGETHER = 5


class Speed(enum.Enum):
    HIGH = "H"
    LOW = "L"


@dataclass(frozen=True, order=True)
class PatternId:
    """One of the ten patterns, e.g. shape 1 at high speed is '1H'."""

    shape: Shape
    speed: Speed

    def __post_init__(self):
        object.__setattr__(self, "shape", Shape(self.shape))
        object.__setattr__(self, "speed", Speed(self.speed))

    def __str__(self) -> str:
        return f"{self.shape.value}{self.speed.value}"

    @classmethod
    def parse(cls, text: str) -> "PatternId":
        text = text.strip().upper()
        if text not in _PATTERNS_BY_ID:
            raise ValueError(f"unknown pattern id {text!r}")
        return _PATTERNS_BY_ID[text]


ALL_PATTERNS = tuple(
    PatternId(shape, speed) for shape in Shape for speed in Speed
)
_PATTERNS_BY_ID = {str(p): p for p in ALL_PATTERNS}


@dataclass(frozen=True)
class MotorEvent:
    motor_index: int  # 1..5
    start: float  # seconds
    duration: float  # seconds

    def __post_init__(self):
        if not 1 <= self.motor_index <= MOTOR_COUNT:
            raise ValueError("motor_index must be in 1..5")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.duration not in (STEP_HIGH_S, STEP_LOW_S):
            raise ValueError("duration must be 0.1 or 0.2 s")


@dataclass(frozen=True)
class PatternTimeline:
    pattern: PatternId
    events: tuple
    total_duration: float

    def __post_init__(self):
        motors = sorted(e.motor_index for e in self.events)
        if motors != list(range(1, MOTOR_COUNT + 1)):
            raise ValueError("every motor 1..5 must appear exactly once")
        end = max(e.start + e.duration for e in self.events)
        if abs(end - self.total_duration) > 1e-12:
            raise ValueError("total_duration must equal the last event end")


# Per-shape step layout: step index -> motor indices activated at that step.
_SHAPE_STEPS = {
    Shape.RIGHT_TO_LEFT: [(1,), (2,), (3,), (4,), (5,)],
    Shape.LEFT_TO_RIGHT: [(5,), (4,), (3,), (2,), (1,)],
    Shape.CENTER_OUT: [(3,), (2, 4), (1, 5)],
    Shape.OUT_TO_CENTER: [(1, 5), (2, 4), (3,)],
    Shape.ALL_TOGETHER: [(1, 2, 3, 4, 5)],
}


def render_pattern(pattern: PatternId) -> PatternTimeline:
    """Expand a pattern id into its exact motor on/off event timeline."""
    tau = STEP_HIGH_S if pattern.speed is Speed.HIGH else STEP_LOW_S
    steps = _SHAPE_STEPS[pattern.shape]
    events = tuple(
        MotorEvent(motor_index=m, start=round(i * tau, 10), duration=tau)
        for i, motors in enumerate(steps)
        for m in motors
    )
    total = round(len(steps) * tau, 10)
    return PatternTimeline(pattern=pattern, events=events, total_duration=total)


def pattern_duration(pattern: PatternId) -> float:
    return render_pattern(pattern).total_duration


def pattern_frequency(pattern: PatternId) -> float:
    """Repetition rate of one rendering, the reciprocal of its duration, Hz."""
    return 1.0 / pattern_duration(pattern)

