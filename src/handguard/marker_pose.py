"""Pinhole projection and planar square-marker pose estimation.

Stands in for the camera + fiducial detector: callers provide the four
corner pixel observations (synthetic or from files) and get back the
marker pose in the camera frame.

The estimator maps the marker square onto the four corners with a
closed-form homography and takes both planar-ambiguity poses from it with
IPPE (Collins & Bartoli, "Infinitesimal Plane-based Pose Estimation", IJCV
2014), so each candidate starts next to its own minimum.  It refines each
with damped Gauss-Newton on the 6-DoF reprojection objective and keeps the
candidate with the smaller residual together with the ambiguity ratio.

Refinement stops after an accepted step that lowers the squared-pixel cost
by at most GN_COST_RTOL of the new cost or has a norm below GN_STEP_TOL,
when rejected steps raise the damping above GN_DAMPING_MAX, or after
GN_MAX_ITERATIONS.  However it stops, one gate follows: estimate_pose
raises NoConvergence when the kept fit is worse than MAX_RMS_PX.  Every
failure to find a pose is a PoseError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import RigidTransform, compose, invert, rotation_from_axis_angle

MIN_DEPTH_M = 1e-6

GN_MAX_ITERATIONS = 50
GN_STEP_TOL = 1e-10
GN_DAMPING_INIT = 1e-3
GN_DAMPING_UP = 2.0
GN_DAMPING_DOWN = 0.5
GN_DAMPING_MAX = 1e4
GN_COST_RTOL = 1e-10
MAX_RMS_PX = 1.0

_EYE6 = np.eye(6)
# Sends the marker's corners, in half-sides, to the projective basis:
# TL, TR and BL onto the axes and BR onto (1, 1, 1).
_SQUARE_TO_BASIS = np.array([[1.0, -1.0, 0.0], [1.0, 0.0, 1.0], [0.0, -1.0, 1.0]])


class PoseError(ValueError):
    """The corners admit no usable marker pose."""


class NonPositiveDepth(PoseError):
    """A marker corner is behind or on the camera plane."""


class DegenerateCorners(PoseError):
    """Observed corners are collinear or enclose no area."""


class NoConvergence(PoseError):
    """The best pose candidate fits the corners worse than MAX_RMS_PX."""


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics, pixels.  Distortion is not modeled."""

    fx: float = 800.0
    fy: float = 800.0
    cx: float = 640.0
    cy: float = 360.0
    image_width: int = 1280
    image_height: int = 720

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx <= self.image_width and 0 <= self.cy <= self.image_height):
            raise ValueError("principal point must lie inside the image")

    def to_json_dict(self) -> dict:
        return {
            "fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy,
            "image_width": self.image_width, "image_height": self.image_height,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CameraIntrinsics":
        return cls(**d)


@dataclass(frozen=True)
class MarkerObservation:
    """Four corner pixels of one detected marker.

    Corner order is fixed: top-left, top-right, bottom-right, bottom-left
    in the marker frame.
    """

    marker_id: int
    corners: np.ndarray  # (4, 2) pixels

    def __post_init__(self):
        c = np.array(self.corners, dtype=float)
        if c.shape != (4, 2):
            raise ValueError("corners must be a 4x2 array")
        if not np.all(np.isfinite(c)):
            raise ValueError("corners must be finite")
        if _quad_min_triangle_area(c) < 1e-9:
            raise DegenerateCorners("corners are collinear or enclose no area")
        c.setflags(write=False)
        object.__setattr__(self, "corners", c)


@dataclass(frozen=True)
class PoseEstimate:
    pose: RigidTransform  # marker in camera frame
    rms_reprojection_error: float  # pixels
    ambiguity_ratio: float  # second-best residual / best residual, >= 1

    def __post_init__(self):
        if self.rms_reprojection_error < 0:
            raise ValueError("rms error must be >= 0")
        if self.ambiguity_ratio < 1.0:
            raise ValueError("ambiguity ratio must be >= 1")

    @property
    def near_ambiguous(self) -> bool:
        """True when the two planar minima are too close to trust (ratio < 1.2)."""
        return self.ambiguity_ratio < 1.2


def marker_corners_3d(marker_side: float) -> np.ndarray:
    """Corner coordinates in the marker frame (z = 0 plane), order TL, TR, BR, BL."""
    h = marker_side / 2.0
    return np.array(
        [[-h, h, 0.0], [h, h, 0.0], [h, -h, 0.0], [-h, -h, 0.0]], dtype=float
    )


def _quad_min_triangle_area(c: np.ndarray) -> float:
    # Smallest of the four corner-triple triangle areas; zero iff degenerate.
    areas = []
    for i in range(4):
        a, b, d = c[i], c[(i + 1) % 4], c[(i + 2) % 4]
        areas.append(abs((b[0] - a[0]) * (d[1] - a[1]) - (d[0] - a[0]) * (b[1] - a[1])) / 2)
    return min(areas)


def project(
    pose: RigidTransform, marker_side: float, intrinsics: CameraIntrinsics
) -> np.ndarray:
    """Pixel coordinates of the four marker corners, shape (4, 2)."""
    pts = (pose.rotation @ marker_corners_3d(marker_side).T).T + pose.translation
    z = pts[:, 2]
    if np.any(z <= MIN_DEPTH_M):
        raise NonPositiveDepth("marker corner at or behind the camera plane")
    u = intrinsics.fx * pts[:, 0] / z + intrinsics.cx
    v = intrinsics.fy * pts[:, 1] / z + intrinsics.cy
    return np.column_stack([u, v])


def synthesize_observation(
    true_pose: RigidTransform,
    marker_side: float,
    intrinsics: CameraIntrinsics,
    pixel_noise_sigma: float = 0.0,
    seed: int = 0,
    marker_id: int = 0,
) -> MarkerObservation:
    """Project the marker and add iid Gaussian pixel noise, reproducible per seed."""
    corners = project(true_pose, marker_side, intrinsics)
    if pixel_noise_sigma > 0:
        rng = np.random.default_rng(seed)
        corners = corners + rng.normal(0.0, pixel_noise_sigma, size=corners.shape)
    return MarkerObservation(marker_id=marker_id, corners=corners)


def _normalized_corners(obs: MarkerObservation, k: CameraIntrinsics) -> np.ndarray:
    c = obs.corners
    return np.column_stack([(c[:, 0] - k.cx) / k.fx, (c[:, 1] - k.cy) / k.fy])


def _square_homography(normalized: np.ndarray, marker_side: float) -> np.ndarray:
    """3x3 homography mapping marker-plane (X, Y, 1) to normalized image coords.

    Projective-basis form: corners 0, 1 and 3, scaled so they sum to corner
    2, times the constant that sends the marker's corners to that basis.
    """
    p = np.vstack([normalized.T, np.ones(4)])
    basis = p[:, [0, 1, 3]]
    try:
        scale = np.linalg.solve(basis, p[:, 2])
    except np.linalg.LinAlgError:
        raise DegenerateCorners("corners are collinear or enclose no area") from None
    half = marker_side / 2.0
    return (basis * scale) @ (_SQUARE_TO_BASIS / [half, half, 1.0])


def _ippe_candidates(h: np.ndarray, corners3d: np.ndarray, normalized: np.ndarray) -> tuple:
    """Both planar-ambiguity poses of the centred marker, in closed form (IPPE).

    Collins & Bartoli, "Infinitesimal Plane-based Pose Estimation", IJCV
    2014: the homography's Jacobian at the marker centre fixes the first two
    rotation columns up to the sign of their components along the view ray
    through the centre; flipping that sign reflects the marker normal about
    the ray.  Each rotation gets its translation by linear least squares on
    the eight projection equations.
    """
    (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = h.tolist()
    p, q = h02 / h22, h12 / h22  # image of the marker centre
    # Jacobian of the homography at the centre
    j00, j01 = (h00 - h20 * p) / h22, (h01 - h21 * p) / h22
    j10, j11 = (h10 - h20 * q) / h22, (h11 - h21 * q) / h22
    # rv turns z onto the centre's ray (p, q, 1)/s; identity when p = q = 0
    t = math.hypot(p, q)
    rv = rotation_from_axis_angle((-q, p, 0.0), math.atan2(t, 1.0))
    (v00, v01, _), (v10, v11, _), (v20, v21, _) = rv.tolist()
    # A = B^-1 J with B = [[1, 0, -p], [0, 1, -q]] @ rv[:, :2]
    b00, b01, b10, b11 = v00 - p * v20, v01 - p * v21, v10 - q * v20, v11 - q * v21
    det = b00 * b11 - b01 * b10
    a00, a01 = (b11 * j00 - b01 * j10) / det, (b11 * j01 - b01 * j11) / det
    a10, a11 = (b00 * j10 - b10 * j00) / det, (b00 * j11 - b10 * j01) / det
    # largest singular value of the 2x2 A
    f = a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11
    d = a00 * a11 - a01 * a10
    gamma = math.sqrt((f + math.sqrt(max(f * f - 4.0 * d * d, 0.0))) / 2.0)
    r00, r01, r10, r11 = a00 / gamma, a01 / gamma, a10 / gamma, a11 / gamma
    # third row b of the two orthonormal columns: b b^T = I - R~^T R~
    m00 = 1.0 - r00 * r00 - r10 * r10
    m01 = -r00 * r01 - r10 * r11
    m11 = 1.0 - r01 * r01 - r11 * r11
    b0 = math.sqrt(max(m00, 0.0))
    b1 = math.copysign(math.sqrt(max(m11, 0.0)), m01)
    c0, c1, c2 = r10 * b1 - b0 * r11, b0 * r01 - r00 * b1, r00 * r11 - r10 * r01
    u, v = normalized[:, 0], normalized[:, 1]
    lhs = np.zeros((8, 3))
    lhs[0::2, 0] = 1.0
    lhs[1::2, 1] = 1.0
    lhs[0::2, 2] = -u
    lhs[1::2, 2] = -v
    candidates = []
    for s in (1.0, -1.0):
        r = rv @ np.array([[r00, r01, s * c0], [r10, r11, s * c1], [s * b0, s * b1, c2]])
        m = corners3d @ r.T
        rhs = np.empty(8)
        rhs[0::2] = u * m[:, 2] - m[:, 0]
        rhs[1::2] = v * m[:, 2] - m[:, 1]
        translation = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        if translation[2] < 0:
            # a homography that no pose explains exactly (an edge-on marker
            # under noise) can put the fit behind the camera; mirroring the
            # corners through the camera centre keeps every projection
            r[:, :2] *= -1.0
            translation = -translation
        candidates.append(RigidTransform.from_orthonormalized(r, translation))
    return tuple(candidates)


def _residuals(rotation: np.ndarray, translation: np.ndarray, corners3d: np.ndarray,
               observed: np.ndarray, k: CameraIntrinsics) -> tuple:
    """Reprojection residuals (8,), with the rotated and camera-frame corners."""
    rotated = corners3d @ rotation.T
    pts = rotated + translation
    z = pts[:, 2]
    if (z <= MIN_DEPTH_M).any():
        raise NonPositiveDepth("corner behind camera during refinement")
    res = np.empty(8)
    res[0::2] = k.fx * pts[:, 0] / z + k.cx - observed[:, 0]
    res[1::2] = k.fy * pts[:, 1] / z + k.cy - observed[:, 1]
    return res, rotated, pts


def _jacobian(rotated: np.ndarray, pts: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    """8x6 Jacobian of the residuals in (rotation perturbation w, translation).

    The rotation perturbation is left-multiplicative and acts on R@P only:
    dp/dw = -[R@P]x, so row u of corner i is m x du/dp with m = R@P_i.
    """
    mx, my, mz = rotated[:, 0], rotated[:, 1], rotated[:, 2]
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    a, b = k.fx / z, k.fy / z
    xz, yz = x / z, y / z
    jac = np.zeros((8, 6))
    ju, jv = jac[0::2], jac[1::2]
    ju[:, 0] = -a * my * xz
    ju[:, 1] = a * (mz + mx * xz)
    ju[:, 2] = -a * my
    ju[:, 3] = a
    ju[:, 5] = -a * xz
    jv[:, 0] = -b * (my * yz + mz)
    jv[:, 1] = b * mx * yz
    jv[:, 2] = b * mx
    jv[:, 4] = b
    jv[:, 5] = -b * yz
    return jac


def _refine(init: RigidTransform, corners3d: np.ndarray, observed: np.ndarray,
            k: CameraIntrinsics) -> tuple:
    """Damped Gauss-Newton on the 6-DoF reprojection objective; (pose, rms_pixels)."""
    rotation, translation = init.rotation, init.translation
    lam = GN_DAMPING_INIT
    res, rotated, pts = _residuals(rotation, translation, corners3d, observed, k)
    cost = float(res @ res)
    jac = _jacobian(rotated, pts, k)
    h, g = jac.T @ jac, jac.T @ res
    for _ in range(GN_MAX_ITERATIONS):
        try:
            step = np.linalg.solve(h + lam * _EYE6, -g)
        except np.linalg.LinAlgError:
            lam *= GN_DAMPING_UP
            continue
        w = step[:3]
        rotation_c = rotation_from_axis_angle(w, math.sqrt(w @ w)) @ rotation
        translation_c = translation + step[3:]
        try:
            res_c, rotated_c, pts_c = _residuals(
                rotation_c, translation_c, corners3d, observed, k)
        except NonPositiveDepth:
            lam *= GN_DAMPING_UP
            continue
        cost_c = float(res_c @ res_c)
        if cost_c < cost:
            decrease = cost - cost_c
            rotation, translation, res, cost = rotation_c, translation_c, res_c, cost_c
            lam *= GN_DAMPING_DOWN
            if math.sqrt(step @ step) < GN_STEP_TOL or decrease <= GN_COST_RTOL * cost:
                break
            jac = _jacobian(rotated_c, pts_c, k)
            h, g = jac.T @ jac, jac.T @ res
        else:
            lam *= GN_DAMPING_UP
            if lam > GN_DAMPING_MAX:
                break
    return RigidTransform.from_orthonormalized(rotation, translation), math.sqrt(cost / 8.0)


def estimate_pose(
    obs: MarkerObservation, marker_side: float, intrinsics: CameraIntrinsics
) -> PoseEstimate:
    """Estimate the marker pose in the camera frame from four corner pixels."""
    if marker_side <= 0:
        raise ValueError("marker_side must be positive")
    corners3d = marker_corners_3d(marker_side)
    normalized = _normalized_corners(obs, intrinsics)
    fits = []
    for c in _ippe_candidates(_square_homography(normalized, marker_side), corners3d, normalized):
        try:
            fits.append(_refine(c, corners3d, obs.corners, intrinsics))
        except NonPositiveDepth:
            continue
    fits.sort(key=lambda pr: pr[1])
    if not fits or fits[0][1] > MAX_RMS_PX:
        raise NoConvergence(f"no pose candidate fits within {MAX_RMS_PX} px")
    (best_pose, best_rms), *rest = fits
    ratio = (rest[0][1] + 1e-15) / (best_rms + 1e-15) if rest else float("inf")
    return PoseEstimate(
        pose=best_pose,
        rms_reprojection_error=best_rms,
        ambiguity_ratio=max(1.0, ratio),
    )


def calibrate_base(
    obs: MarkerObservation,
    marker_side: float,
    intrinsics: CameraIntrinsics,
    base_marker_to_robot_base: RigidTransform,
) -> RigidTransform:
    """Robot base pose in the camera frame from one base-marker observation.

    Done once per camera placement; the result is persisted by the CLI for
    the session.
    """
    est = estimate_pose(obs, marker_side, intrinsics)
    # base-marker-in-camera composed with robot-base-in-base-marker
    return compose(est.pose, invert(base_marker_to_robot_base))
