"""Rigid-body transforms and the marker -> camera -> robot-base chain.

Convention: a transform named ``x_from_y`` (or documented as target/source)
maps coordinates expressed in frame *y* into frame *x*.  All rotations are
stored as 3x3 orthonormal matrices; translations are in meters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

ORTHONORMALITY_TOL = 1e-9


class InvalidRotation(ValueError):
    """Raised when a rotation matrix fails the orthonormality checks."""


@dataclass(frozen=True)
class Point3:
    """A point in 3D space, meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError("Point3 coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, a) -> "Point3":
        a = np.asarray(a, dtype=float).reshape(3)
        return cls(float(a[0]), float(a[1]), float(a[2]))


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
        if float(np.linalg.norm(v)) >= 0.5:
            raise ValueError("hand offset magnitude must be < 0.5 m")
        object.__setattr__(self, "offset", tuple(float(x) for x in v))

    def as_array(self) -> np.ndarray:
        return np.array(self.offset, dtype=float)


def _check_rotation(r: np.ndarray) -> None:
    if r.shape != (3, 3):
        raise InvalidRotation("rotation must be 3x3")
    err = np.abs(r.T @ r - np.eye(3)).max()
    if err > ORTHONORMALITY_TOL:
        raise InvalidRotation(f"rotation is not orthonormal (max error {err:.3e})")
    det = float(np.linalg.det(r))
    if abs(det - 1.0) > ORTHONORMALITY_TOL:
        raise InvalidRotation(f"rotation determinant is {det}, expected +1")


@dataclass(frozen=True)
class RigidTransform:
    """An SE(3) pose: p_target = rotation @ p_source + translation."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        r = np.array(self.rotation, dtype=float)
        t = np.array(self.translation, dtype=float).reshape(3)
        _check_rotation(r)
        if not np.all(np.isfinite(t)):
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
        """
        r = np.array(rotation, dtype=float)
        if r.shape != (3, 3):
            raise InvalidRotation("rotation must be 3x3")
        q = np.empty((3, 3))
        for i in range(3):
            v = r[:, i].copy()
            for j in range(i):
                v -= (q[:, j] @ r[:, i]) * q[:, j]
            n = np.linalg.norm(v)
            if n < 1e-12:
                raise InvalidRotation("rotation columns are linearly dependent")
            q[:, i] = v / n
        if np.linalg.det(q) < 0:
            q[:, 2] = -q[:, 2]
        return cls(q, translation)

    def apply(self, point) -> np.ndarray:
        p = np.asarray(point, dtype=float).reshape(3)
        return self.rotation @ p + self.translation

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    def to_quaternion(self) -> np.ndarray:
        """Unit quaternion (w, x, y, z) view of the rotation, for serialization."""
        r = self.rotation
        w = math.sqrt(max(0.0, 1.0 + r[0, 0] + r[1, 1] + r[2, 2])) / 2.0
        if w > 1e-6:
            x = (r[2, 1] - r[1, 2]) / (4 * w)
            y = (r[0, 2] - r[2, 0]) / (4 * w)
            z = (r[1, 0] - r[0, 1]) / (4 * w)
        else:
            # w near zero: pick the dominant diagonal element
            i = int(np.argmax(np.diag(r)))
            j, k = (i + 1) % 3, (i + 2) % 3
            s = math.sqrt(max(0.0, 1.0 + r[i, i] - r[j, j] - r[k, k])) * 2
            q = [0.0, 0.0, 0.0]
            q[i] = s / 4
            q[j] = (r[j, i] + r[i, j]) / s
            q[k] = (r[k, i] + r[i, k]) / s
            w = (r[k, j] - r[j, k]) / s
            x, y, z = q
        return np.array([w, x, y, z])

    def to_json_dict(self) -> dict:
        return {
            "r": [float(v) for v in self.rotation.reshape(9)],
            "t": [float(v) for v in self.translation],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "RigidTransform":
        r = np.array(d["r"], dtype=float).reshape(3, 3)
        t = np.array(d["t"], dtype=float)
        return cls(r, t)

    @classmethod
    def from_json(cls, s: str) -> "RigidTransform":
        return cls.from_json_dict(json.loads(s))


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


def hand_center(hand_pose: RigidTransform, offset: HandOffset) -> Point3:
    """Hand center point obtained by applying the pose to the marker->hand offset."""
    return Point3.from_array(hand_pose.apply(offset.as_array()))


def rotation_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=float)


def rotation_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=float)


def rotation_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)


def rotation_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis."""
    a = np.asarray(axis, dtype=float).reshape(3)
    n = np.linalg.norm(a)
    if n < 1e-15:
        return np.eye(3)
    a = a / n
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
