"""2-DoF differential gear-train kinematics and a rate-limited servo model.

Two side-by-side motors drive sun gears that a planet gear sums/differences
into rotations of the marker holder about two perpendicular axes: lateral
(x, angle theta_p) and longitudinal (y, angle theta_c).  Marker and motor
angles are `MarkerDeltas` and `MotorDeltas`, immutable pairs of floats
(tuples, like `geometry.Point3`) checked finite whenever one is built.  The
servo's state is the two motors' rotations from rest, a `MotorDeltas`; its
rate and range limits are the module constants SERVO_RATE_LIMIT and
SERVO_RANGE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


SERVO_RATE_LIMIT = 6.0  # rad/s
SERVO_RANGE = math.pi / 2  # symmetric, +/- rad


class GimbalDegeneracy(ValueError):
    """Target direction lies on the lateral-axis singularity."""


@dataclass(frozen=True)
class GearParams:
    """Gear ratios: motor gear to sun gear (n_a, n_b), sun gear to planet gear (n_s)."""

    n_a: float = 0.5
    n_b: float = 0.5
    n_s: float = 0.5

    def __post_init__(self):
        for name in ("n_a", "n_b", "n_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"gear ratio {name} must be finite")
        if self.n_a <= 0 or self.n_b <= 0 or self.n_s <= 0:
            raise ValueError("gear ratios must be strictly positive")


class _MarkerAngles(NamedTuple):
    d_theta_p: float
    d_theta_c: float


class MarkerDeltas(_MarkerAngles):
    """Rotation increments of the marker: lateral axis (p) and longitudinal
    axis (c), rad; an immutable tuple checked finite when it is built,
    `_replace` included."""

    __slots__ = ()

    def __new__(cls, d_theta_p, d_theta_c):
        if not (math.isfinite(d_theta_p) and math.isfinite(d_theta_c)):
            raise ValueError("marker deltas must be finite")
        return tuple.__new__(cls, (d_theta_p, d_theta_c))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _MotorAngles(NamedTuple):
    d_theta_a: float
    d_theta_b: float


class MotorDeltas(_MotorAngles):
    """Rotation increments of the two drive motors, rad; an immutable tuple
    checked finite when it is built, `_replace` included."""

    __slots__ = ()

    def __new__(cls, d_theta_a, d_theta_b):
        if not (math.isfinite(d_theta_a) and math.isfinite(d_theta_b)):
            raise ValueError("motor deltas must be finite")
        return tuple.__new__(cls, (d_theta_a, d_theta_b))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def motor_deltas(m: MarkerDeltas, g: GearParams = GearParams()) -> MotorDeltas:
    """Motor rotations required for the requested marker rotations."""
    p, c = m
    return MotorDeltas(g.n_a * (g.n_s * p + c), g.n_b * (g.n_s * p - c))


def marker_deltas(m: MotorDeltas, g: GearParams = GearParams()) -> MarkerDeltas:
    """Marker rotations produced by the given motor rotations (exact inverse)."""
    a = m.d_theta_a / g.n_a
    b = m.d_theta_b / g.n_b
    return MarkerDeltas((a + b) / (2.0 * g.n_s), (a - b) / 2.0)


def correction_angles(marker_normal_target) -> MarkerDeltas:
    """Gimbal angles carrying the rest normal (0,0,1) onto the target direction.

    Rotation order is lateral (x) first, then longitudinal (y); with that
    order the closed form is theta_p = -asin(d_y), theta_c = atan2(d_x, d_z).
    Directions within 1e-9 of +/-y are unreachable (singularity).
    """
    dx, dy, dz = map(float, marker_normal_target)
    if not abs(math.hypot(dx, dy, dz) - 1.0) <= 1e-9:  # nan fails too
        raise ValueError("target direction must be a unit vector")
    if abs(dy) >= 1.0 - 1e-9:
        raise GimbalDegeneracy("target along the lateral axis is unreachable")
    return MarkerDeltas(-math.asin(dy), math.atan2(dx, dz))


def marker_rotation_entries(m: MarkerDeltas) -> tuple:
    """The nine entries, row by row, of R = Ry(theta_c) @ Rx(theta_p)."""
    cc, sc = math.cos(m.d_theta_c), math.sin(m.d_theta_c)
    cp, sp = math.cos(m.d_theta_p), math.sin(m.d_theta_p)
    return (cc, sc * sp, sc * cp,
            0.0, cp, -sp,
            -sc, cc * sp, cc * cp)


def servo_step(angles: MotorDeltas, command: MotorDeltas, dt: float) -> MotorDeltas:
    """Advance the motor angles (rotations from rest) toward the commanded
    ones, respecting rate and range."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    a, b = angles
    ta, tb = command
    limit, step = SERVO_RANGE, SERVO_RATE_LIMIT * dt
    # Commanded targets are clamped to range first so the servo never chases
    # an unreachable angle; each motor then moves at most `step` toward its
    # target and stays in range.
    da = min(max(ta, -limit), limit) - a
    db = min(max(tb, -limit), limit) - b
    if abs(da) > step:
        da = math.copysign(step, da)
    if abs(db) > step:
        db = math.copysign(step, db)
    return MotorDeltas(min(max(a + da, -limit), limit), min(max(b + db, -limit), limit))
