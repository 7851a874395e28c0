"""Rigid-body transforms and the marker -> camera -> robot-base chain.

Convention: a transform named ``x_from_y`` (or documented as target/source)
maps coordinates expressed in frame *y* into frame *x*.  All rotations are
stored as 3x3 orthonormal matrices; translations are in meters.

Validation contract: the ``RigidTransform`` constructor checks external
input (a 3x3 rotation with finite entries, orthonormal within
``ORTHONORMALITY_TOL``, determinant +1; a finite translation) and rejects
anything else.  ``orthonormalized`` is the one re-orthonormalizing
boundary, a Gram-Schmidt on a rotation's nine entries: it accepts a
slightly non-orthonormal matrix (finite, columns not dependent) and returns
a proper rotation built in closed form, which always passes the check.
Its one body, ``_gram_schmidt``, runs on Python floats and on float64 lane
arrays (the pose estimator's starts for a whole file), taking its square
root, finiteness test and rejection from the caller.
``RigidTransform.from_orthonormalized`` is the same boundary for arrays,
building through the plain constructor, and ``compose`` goes through it, so
products of rotations at the tolerance edge never raise.  The simulation
step and the pose estimator's starts and kept fit run Gram-Schmidt on Python
floats directly, as they do the one Rodrigues formula
(``axis_angle_entries``) and the one 3x3 product (``product_entries``).
``Point3`` checks its coordinates finite whenever one is built; being a
tuple, it costs little enough that the simulation builds one each time a
hand estimate or the TCP changes, and passes it on without another check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

ORTHONORMALITY_TOL = 1e-9


class InvalidRotation(ValueError):
    """Raised when a rotation matrix fails the orthonormality checks."""


class _Coords(NamedTuple):
    x: float
    y: float
    z: float


class Point3(_Coords):
    """A point in 3D space, meters: an immutable (x, y, z) tuple whose
    coordinates are checked finite when it is built, `_replace` included."""

    __slots__ = ()

    def __new__(cls, x, y, z):
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError("Point3 coordinates must be finite")
        return tuple.__new__(cls, (x, y, z))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class HandOffset:
    """Offset from the tracked marker frame to the hand center, meters.

    The marker sits above the hand, so the default points 10 cm down the
    marker's -z axis.
    """

    offset: tuple = (0.0, 0.0, -0.10)

    def __post_init__(self):
        v = np.asarray(self.offset, dtype=float)
        if v.shape != (3,):
            raise ValueError("offset must be a 3-vector")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"hand offset components must be finite; got {self.offset}")
        if float(np.linalg.norm(v)) >= 0.5:
            raise ValueError("hand offset magnitude must be < 0.5 m")
        object.__setattr__(self, "offset", tuple(float(x) for x in v))


def _rotation_entries(r: np.ndarray) -> list:
    """The nine entries of a candidate rotation, row-major, as Python floats."""
    if r.shape != (3, 3):
        raise InvalidRotation("rotation must be 3x3")
    entries = r.ravel().tolist()
    if not all(map(math.isfinite, entries)):
        raise InvalidRotation("rotation entries must be finite")
    return entries


def _check_rotation(r: np.ndarray) -> None:
    a, b, c, d, e, f, g, h, i = _rotation_entries(r)
    # max |r.T @ r - I| over the six distinct entries of the symmetric product
    err = max(
        abs(a * a + d * d + g * g - 1.0),
        abs(b * b + e * e + h * h - 1.0),
        abs(c * c + f * f + i * i - 1.0),
        abs(a * b + d * e + g * h),
        abs(a * c + d * f + g * i),
        abs(b * c + e * f + h * i),
    )
    if err > ORTHONORMALITY_TOL:
        raise InvalidRotation(f"rotation is not orthonormal (max error {err:.3e})")
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if abs(det - 1.0) > ORTHONORMALITY_TOL:
        raise InvalidRotation(f"rotation determinant is {det}, expected +1")


def _gram_schmidt(entries, ops) -> tuple:
    """Gram-Schmidt on the nine entries of a near-rotation, row by row.

    Columns 0 and 1 are orthonormalized in turn and column 2 is their cross
    product, so the nine entries returned form a proper rotation.  ops gives
    sqrt, nonfinite (of the nine entries) and reject(bad, message), called
    on each check in order: on Python floats, math's and a reject that
    raises; on float64 arrays, one element per lane, numpy's and a reject
    that records the lanes failing it, whose entries are then meaningless.
    """
    a, b, c, d, e, f, g, h, i = entries
    ops.reject(ops.nonfinite(entries), "rotation entries must be finite")
    n = ops.sqrt(a * a + d * d + g * g)
    ops.reject(n < 1e-12, "rotation columns are linearly dependent")
    x0, y0, z0 = a / n, d / n, g / n
    p = x0 * b + y0 * e + z0 * h
    vx, vy, vz = b - p * x0, e - p * y0, h - p * z0
    n = ops.sqrt(vx * vx + vy * vy + vz * vz)
    ops.reject(n < 1e-12, "rotation columns are linearly dependent")
    x1, y1, z1 = vx / n, vy / n, vz / n
    # cancellation left column 1 off-orthogonal: the columns are too close
    # to dependent for Gram-Schmidt in double precision
    ops.reject(abs(x0 * x1 + y0 * y1 + z0 * z1) > ORTHONORMALITY_TOL,
               "rotation columns are nearly dependent")
    x2, y2, z2 = y0 * z1 - z0 * y1, z0 * x1 - x0 * z1, x0 * y1 - y0 * x1
    # column 2's part off the plane of columns 0 and 1, whatever its sign
    ops.reject(abs(x2 * c + y2 * f + z2 * i) < 1e-12, "rotation columns are linearly dependent")
    return x0, x1, x2, y0, y1, y2, z0, z1, z2


def _reject(bad: bool, message: str) -> None:
    if bad:
        raise InvalidRotation(message)


_FLOATS = SimpleNamespace(
    sqrt=math.sqrt, nonfinite=lambda entries: not all(map(math.isfinite, entries)),
    reject=_reject)


def orthonormalized(entries) -> tuple:
    """The one re-orthonormalization boundary, on Python floats: _gram_schmidt
    on a near-rotation's nine entries, row by row.  Raises InvalidRotation on
    non-finite entries or (nearly) dependent columns."""
    return _gram_schmidt(entries, _FLOATS)


def axis_angle_entries(x, y, z, s, c) -> tuple:
    """Rodrigues: the nine entries, row by row, of the rotation about the
    unit axis (x, y, z) by the angle whose sine is s and cosine c.  Pure
    arithmetic, so it also runs elementwise on float64 arrays."""
    v = 1.0 - c
    return (c + v * x * x, v * x * y - s * z, v * x * z + s * y,
            v * x * y + s * z, c + v * y * y, v * y * z - s * x,
            v * x * z - s * y, v * y * z + s * x, c + v * z * z)


def product_entries(a, b) -> tuple:
    """The nine entries of a @ b, 3x3 matrices given row by row."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = b
    return (
        a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21,
        a00 * b02 + a01 * b12 + a02 * b22,
        a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21,
        a10 * b02 + a11 * b12 + a12 * b22,
        a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21,
        a20 * b02 + a21 * b12 + a22 * b22,
    )


@dataclass(frozen=True)
class RigidTransform:
    """An SE(3) pose: p_target = rotation @ p_source + translation."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        r = np.array(self.rotation, dtype=float)
        _check_rotation(r)
        t = np.array(self.translation, dtype=float).reshape(3)
        if not all(map(math.isfinite, t.tolist())):
            raise ValueError("translation must be finite")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls()

    @classmethod
    def from_orthonormalized(cls, rotation, translation) -> "RigidTransform":
        """Build a transform after explicit Gram-Schmidt re-orthonormalization.

        This is the only sanctioned way to construct from a slightly
        non-orthonormal matrix; the plain constructor rejects such input.
        The rotation goes through `orthonormalized`, whose result is a
        proper rotation by construction, so the constructor's check passes.
        """
        entries = orthonormalized(_rotation_entries(np.asarray(rotation, dtype=float)))
        return cls(np.reshape(entries, (3, 3)), translation)

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def to_json_dict(self) -> dict:
        return {
            "r": [float(v) for v in self.rotation.reshape(9)],
            "t": [float(v) for v in self.translation],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RigidTransform":
        if not isinstance(d, dict) or not {"r", "t"} <= d.keys():
            raise ValueError("transform: expected a JSON object with keys r and t")
        r = np.array(d["r"], dtype=float).reshape(3, 3)
        t = np.array(d["t"], dtype=float)
        return cls(r, t)


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform mapping p via a(b(p))."""
    r = a.rotation @ b.rotation
    t = a.rotation @ b.translation + a.translation
    return RigidTransform.from_orthonormalized(r, t)


def invert(t: RigidTransform) -> RigidTransform:
    rt = t.rotation.T
    return RigidTransform(rt, -(rt @ t.translation))


def hand_in_robot_base(
    marker_in_camera: RigidTransform, base_in_camera: RigidTransform
) -> RigidTransform:
    """Marker (hand) pose in the robot base frame: base_in_camera^-1 * marker_in_camera."""
    return compose(invert(base_in_camera), marker_in_camera)


def rotation_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis."""
    x, y, z = np.asarray(axis, dtype=float).reshape(3).tolist()
    n = math.hypot(x, y, z)
    if n < 1e-15:
        return np.eye(3)
    return np.reshape(axis_angle_entries(x / n, y / n, z / n, math.sin(angle), math.cos(angle)),
                      (3, 3))
