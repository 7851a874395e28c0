"""Pinhole projection and planar square-marker pose estimation.

Stands in for the camera + fiducial detector: callers provide the four
corner pixel observations (synthetic or from files) and get back the
marker pose in the camera frame.  `project_corners` is the one camera
model, on Python floats; `project` wraps it for poses and arrays.

The estimator maps the marker square onto the four corners with a
closed-form homography and takes both planar-ambiguity poses from it with
IPPE (Collins & Bartoli, "Infinitesimal Plane-based Pose Estimation", IJCV
2014), so each candidate starts next to its own minimum.  It refines each
with damped Gauss-Newton on the 6-DoF reprojection objective and keeps the
candidate with the smaller residual together with the ambiguity ratio.
For one frame the whole path runs on Python floats, and no numpy call
runs between the corner pixels and the kept fit: the triangle-area check,
a closed-form 3x3 solve for the homography, IPPE with its matrix products
unrolled, and the Gauss-Newton loop, which builds the normal equations
JᵀJ and Jᵀr directly, never the 8x6 J, and solves the damped 6x6 system
with an unrolled Cholesky factorization.  `_kept_fit` finishes the kept
fit once, its rotation through geometry's Gram-Schmidt and its translation
required finite; `estimate_pose` builds a RigidTransform from it, `handguard
pose` prints its floats as they come, and `calibrate` uses a file's first.

Each fit driver has one path, and both give every frame the same bits.
`fit_corners` fits one frame (the simulation and `estimate_pose`) on
floats: `_starts`, then `_refine` on each start.  `fit_corners_many`,
behind `handguard pose` and `handguard calibrate`, fits a file on float64
arrays ("lanes", two per frame), at every file size.  The IPPE starts are
one implementation, `_starts` (`_require_area`, `_square_homography`,
`_ippe_candidates`), which takes what is not plain arithmetic from an
`ops` namespace, as does geometry's Gram-Schmidt on each start's
rotation: on one frame's floats, math functions, conditional expressions
and checks that raise DegenerateCorners; on every frame's lanes at once
(`_starts_lockstep`), numpy's elementwise operations with hypot, atan2,
sine and cosine per frame through math, and checks that record the frames
failing them.  A failed frame's lanes never enter the refinement, and its
DegenerateCorners carries the message of the first check it failed.  Each
sum is written out left to right from 0.0, so the fit's bits do not depend
on the Python version.  Then all lanes are refined in lockstep, one
Gauss-Newton iteration at a time.  Each lane gets the float operations
`_refine` gives it, in the same order: `_rotated_corners`,
`_normal_equations` and `product_entries` run unchanged on the arrays,
`_damped_step` takes an inverse root that records failed pivots, and sine
and cosine are taken per lane through math.  Lanes stop unevenly: on a
pose_batch file of 100 frames, 200 lanes are down to 32-51 after 5
iterations, while a file's slowest lane runs 28-50 (seeds 0-15), and a
lockstep iteration costs about as much as 50 lanes' scalar ones.  So once fewer than
LOCKSTEP_MIN_LANES lanes are active, each resumes on `_refine` from its
own (r, t), damping and iterations left, which is exact because the
loop's other state is a function of (r, t); a file of fewer than 16
frames goes to `_refine` straight from its array starts.

Refinement stops after an accepted step that lowers the squared-pixel cost
by at most GN_COST_RTOL of the new cost or has a norm below GN_STEP_TOL,
when rejected steps raise the damping above GN_DAMPING_MAX, or after
GN_MAX_ITERATIONS.  However it stops, one gate follows: fit_corners
raises NoConvergence when the kept fit is worse than MAX_RMS_PX, or than
_RMS_GATE_PER_SIGMA times the caller's corner noise σ where that is larger,
so correct fits under heavy noise pass.  Every failure to find a pose is a
PoseError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .geometry import RigidTransform, _gram_schmidt, axis_angle_entries, product_entries

MIN_DEPTH_M = 1e-6

GN_MAX_ITERATIONS = 50
GN_STEP_TOL = 1e-10
GN_DAMPING_INIT = 1e-3
GN_DAMPING_UP = 2.0
GN_DAMPING_DOWN = 0.5
GN_DAMPING_MAX = 1e4
GN_COST_RTOL = 1e-10
MAX_RMS_PX = 1.0
# 8·rms²/σ² of a correct fit follows χ²₂ (8 residuals, 6 unknowns), whose tail
# beyond -2·ln(p) has probability p: this gate rejects p = 1e-6 of them
_RMS_GATE_PER_SIGMA = math.sqrt(-2.0 * math.log(1e-6) / 8.0)
# The lockstep fit hands each lane to the scalar _refine below this many
# active lanes.  On pose_batch a lockstep iteration costs about 0.6 ms of
# numpy calls at 16-32 lanes and 1 ms at 200, a scalar one about 12 us per
# lane; the fit's time is flat for crossovers of 24-48 and rises outside.
LOCKSTEP_MIN_LANES = 32


class PoseError(ValueError):
    """The corners admit no usable marker pose."""


class NonPositiveDepth(PoseError):
    """A marker corner is behind or on the camera plane."""


class DegenerateCorners(PoseError):
    """Observed corners are collinear or enclose no area."""


class NoConvergence(PoseError):
    """The best pose candidate fits the corners worse than the fit gate."""


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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx <= self.image_width and 0 <= self.cy <= self.image_height):
            raise ValueError("principal point must lie inside the image")


@dataclass(frozen=True)
class MarkerObservation:
    """Four corner pixels of one detected marker: finite, and every
    corner-triple triangle has area (DegenerateCorners otherwise).

    Corner order is fixed: top-left, top-right, bottom-right, bottom-left
    in the marker frame.
    """

    marker_id: int
    corners: np.ndarray  # (4, 2) pixels

    def __post_init__(self):
        c = np.array(self.corners, dtype=float)
        if c.shape != (4, 2):
            raise ValueError("corners must be a 4x2 array")
        if not np.isfinite(c).all():
            raise ValueError("corners must be finite")
        _require_area(c.tolist())
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


def project_corners(r, t, half: float, k: CameraIntrinsics) -> list:
    """The camera model on Python floats: the four corners' (u, v) pixels.

    r holds the marker rotation's nine entries row by row, t the marker's
    translation in the camera frame and half the half-side; corner order
    is TL, TR, BR, BL as in _rotated_corners.
    """
    tx, ty, tz = t
    uv = []
    for mx, my, mz in _rotated_corners(r, half):
        z = mz + tz
        if z <= MIN_DEPTH_M:
            raise NonPositiveDepth("marker corner at or behind the camera plane")
        uv.append((k.fx * (mx + tx) / z + k.cx, k.fy * (my + ty) / z + k.cy))
    return uv


def project(
    pose: RigidTransform, marker_side: float, intrinsics: CameraIntrinsics
) -> np.ndarray:
    """Pixel coordinates of the four marker corners, shape (4, 2)."""
    return np.array(project_corners(pose.rotation.ravel().tolist(), pose.translation.tolist(),
                                    marker_side / 2.0, intrinsics))


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


def _normalized_corners(corners: list, k: CameraIntrinsics) -> list:
    return [((u - k.cx) / k.fx, (v - k.cy) / k.fy) for u, v in corners]


def _rotated_corners(r, half: float) -> tuple:
    """R@P for the corners P = (-half, half, 0), (half, half, 0), (half, -half,
    0) and (-half, -half, 0) (TL, TR, BR, BL), r the nine entries row by row.
    Sign flips are exact: each entry has the bits of r00 * px + r01 * py."""
    a, b, c = half * r[0], half * r[1], half * r[3]
    d, e, f = half * r[4], half * r[6], half * r[7]
    return ((b - a, d - c, f - e), (a + b, c + d, e + f), (a - b, c - d, e - f),
            (-a - b, -c - d, -e - f))


def _rotate(w0: float, w1: float, w2: float, r) -> tuple:
    """Entries of rotation_from_axis_angle(w, |w|) @ R, R given row by row."""
    n = math.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    if n < 1e-15:
        return r
    return product_entries(axis_angle_entries(w0 / n, w1 / n, w2 / n, math.sin(n), math.cos(n)), r)


_NO_AREA = "corners are collinear or enclose no area"
_NO_CANDIDATE = "corners give no finite pose candidate"


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise DegenerateCorners(message)


# The operations of the IPPE starts and of _kept_fit's Gram-Schmidt on one
# frame's Python floats; a failed check raises, and a rotation that fails
# geometry's Gram-Schmidt (reject) fails its frame.  _starts_lockstep builds
# the same namespace for lane arrays.
_FLOATS = SimpleNamespace(
    sqrt=math.sqrt, hypot=math.hypot, atan2=math.atan2, copysign=math.copysign,
    isfinite=math.isfinite, where=lambda c, a, b: a if c else b, rotate=_rotate,
    nonfinite=lambda entries: not all(map(math.isfinite, entries)),
    reject=lambda bad, _message: _require(not bad, _NO_CANDIDATE), require=_require)


def _require_area(c: list, ops=_FLOATS) -> None:
    """Require that every corner-triple triangle has area."""
    # >= rather than not <: a nan area (products that overflowed) fails
    for (au, av), (bu, bv), (du, dv) in zip(c, c[1:] + c[:1], c[2:] + c[:2]):
        ops.require(abs((bu - au) * (dv - av) - (du - au) * (bv - av)) / 2 >= 1e-9, _NO_AREA)


def _square_homography(normalized: list, half: float, ops=_FLOATS) -> tuple:
    """The nine entries, row by row, of the homography from marker-plane
    (X, Y, 1) to normalized image coords: corners 0, 1 and 3 as homogeneous
    columns, scaled by s to sum to corner 2 (Cramer's rule, each determinant
    twice a signed triangle area), combined so that (±half, ±half) land on them."""
    (u0, v0), (u1, v1), (u2, v2), (u3, v3) = normalized
    det = (u1 - u0) * (v3 - v0) - (u3 - u0) * (v1 - v0)
    ops.require((det != 0.0) & ops.isfinite(det), _NO_AREA)
    s0 = ((u1 - u2) * (v3 - v2) - (u3 - u2) * (v1 - v2)) / det
    s1 = ((u2 - u0) * (v3 - v0) - (u3 - u0) * (v2 - v0)) / det
    s3 = ((u1 - u0) * (v2 - v0) - (u2 - u0) * (v1 - v0)) / det
    # a self-intersecting quad: the centre's homogeneous weight h22 is 0
    ops.require(s1 + s3 != 0.0, "corners map the marker centre to infinity")
    return ((s0 * u0 + s1 * u1) / half, -(s0 * u0 + s3 * u3) / half, s1 * u1 + s3 * u3,
            (s0 * v0 + s1 * v1) / half, -(s0 * v0 + s3 * v3) / half, s1 * v1 + s3 * v3,
            (s0 + s1) / half, -(s0 + s3) / half, s1 + s3)


def _ippe_candidates(h, normalized: list, half: float, ops=_FLOATS) -> tuple:
    """Both planar-ambiguity poses of the centred marker, in closed form (IPPE).

    Collins & Bartoli, "Infinitesimal Plane-based Pose Estimation", IJCV
    2014: the homography's Jacobian at the marker centre fixes the first two
    rotation columns up to the sign of their components along the view ray
    through the centre; flipping that sign reflects the marker normal about
    the ray.  Each rotation gets its translation by linear least squares on
    the eight projection equations, in closed form.  h holds the
    homography's nine entries row by row.  Each candidate comes back as
    (rotation entries row by row, translation), the rotation passed
    through the Gram-Schmidt boundary.
    """
    h00, h01, h02, h10, h11, h12, h20, h21, h22 = h
    p, q = h02 / h22, h12 / h22  # image of the marker centre
    # Jacobian of the homography at the centre
    j00, j01 = (h00 - h20 * p) / h22, (h01 - h21 * p) / h22
    j10, j11 = (h10 - h20 * q) / h22, (h11 - h21 * q) / h22
    # rv turns z onto the centre's ray (p, q, 1)/s: atan2(t, 1) about
    # (-q, p, 0), the identity when p = q = 0.  ops.where takes both of its
    # values, so t is divided only where it is not replaced by 1.0
    t = ops.hypot(p, q)
    off_axis = t >= 1e-15
    w = ops.where(off_axis, ops.atan2(t, 1.0), 0.0) / ops.where(off_axis, t, 1.0)
    w0, w1 = -q * w, p * w
    v00, v01, _, v10, v11, _, v20, v21, _ = ops.rotate(
        w0, w1, 0.0, (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0))
    # A = B^-1 J with B = [[1, 0, -p], [0, 1, -q]] @ rv[:, :2]
    b00, b01, b10, b11 = v00 - p * v20, v01 - p * v21, v10 - q * v20, v11 - q * v21
    det = b00 * b11 - b01 * b10
    # this check and the gamma, spread and finiteness ones below stop a
    # division by zero or a non-finite start: on corners far outside any
    # image, det rounds to 0 from about 1e17 px and entries overflow from
    # about 1e150 px
    ops.require(det != 0.0, _NO_CANDIDATE)
    a00, a01 = (b11 * j00 - b01 * j10) / det, (b11 * j01 - b01 * j11) / det
    a10, a11 = (b00 * j10 - b10 * j00) / det, (b00 * j11 - b10 * j01) / det
    # largest singular value of the 2x2 A; each where(0.0 > x, 0.0, x) is
    # max(x, 0.0), which keeps a nan
    f = a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11
    d = a00 * a11 - a01 * a10
    disc = f * f - 4.0 * d * d
    gamma = ops.sqrt((f + ops.sqrt(ops.where(0.0 > disc, 0.0, disc))) / 2.0)
    ops.require(gamma != 0.0, _NO_CANDIDATE)
    r00, r01, r10, r11 = a00 / gamma, a01 / gamma, a10 / gamma, a11 / gamma
    # third row b of the two orthonormal columns: b b^T = I - R~^T R~
    m00 = 1.0 - r00 * r00 - r10 * r10
    m01 = -r00 * r01 - r10 * r11
    m11 = 1.0 - r01 * r01 - r11 * r11
    b0 = ops.sqrt(ops.where(0.0 > m00, 0.0, m00))
    b1 = ops.copysign(ops.sqrt(ops.where(0.0 > m11, 0.0, m11)), m01)
    c0, c1, c2 = r10 * b1 - b0 * r11, b0 * r01 - r00 * b1, r00 * r11 - r10 * r01
    # the projection equations tx - u tz = bu, ty - v tz = bv: centring
    # them on the corners' mean removes tx and ty and leaves tz.  Sums are
    # added left to right from 0.0 on every Python, so the bits of a fit do
    # not depend on the builtin sum's algorithm
    (u0, v0), (u1, v1), (u2, v2), (u3, v3) = normalized
    u_mean, v_mean = (0.0 + u0 + u1 + u2 + u3) / 4.0, (0.0 + v0 + v1 + v2 + v3) / 4.0
    duv = [(u - u_mean, v - v_mean) for u, v in normalized]
    e0, e1, e2, e3 = (du * du + dv * dv for du, dv in duv)
    spread = 0.0 + e0 + e1 + e2 + e3
    ops.require(spread != 0.0, _NO_CANDIDATE)
    candidates = []
    for s in (1.0, -1.0):
        # rv @ [[r00, r01, s c0], [r10, r11, s c1], [s b0, s b1, c2]]
        r = ops.rotate(w0, w1, 0.0, (r00, r01, s * c0, r10, r11, s * c1, s * b0, s * b1, c2))
        buv = [(u * mz - mx, v * mz - my)
               for (u, v), (mx, my, mz) in zip(normalized, _rotated_corners(r, half))]
        (bu0, bv0), (bu1, bv1), (bu2, bv2), (bu3, bv3) = buv
        d0, d1, d2, d3 = (du * bu + dv * bv for (du, dv), (bu, bv) in zip(duv, buv))
        tz = -(0.0 + d0 + d1 + d2 + d3) / spread
        tx = (0.0 + bu0 + bu1 + bu2 + bu3) / 4.0 + u_mean * tz
        ty = (0.0 + bv0 + bv1 + bv2 + bv3) / 4.0 + v_mean * tz
        ops.require(ops.isfinite(tx) & ops.isfinite(ty) & ops.isfinite(tz), _NO_CANDIDATE)
        # a homography that no pose explains exactly (an edge-on marker
        # under noise) can put the fit behind the camera; mirroring the
        # corners through the camera centre keeps every projection.  The
        # sign flips of columns 0 and 1 and of t are exact: x * -1.0 is -x
        flip = ops.where(tz < 0, -1.0, 1.0)
        x00, x01, x02, x10, x11, x12, x20, x21, x22 = r
        r = (x00 * flip, x01 * flip, x02, x10 * flip, x11 * flip, x12, x20 * flip, x21 * flip, x22)
        translation = (tx * flip, ty * flip, tz * flip)
        candidates.append((_gram_schmidt(r, ops), translation))
    return tuple(candidates)


def _residuals(r, t, half: float, observed: list, k: CameraIntrinsics) -> tuple:
    """Reprojection cost and each corner's camera-frame geometry and residual.

    r holds the rotation's nine entries row by row, t the translation,
    half the marker's half-side and observed the four corners' pixels
    (u, v).  Returns the sum of the eight squared residuals, added in the
    order u0, v0, ..., u3, v3, and per corner (mx, my, mz, x, y, z, eu,
    ev): the rotated corner m = R@P, the camera-frame point m + t and the
    residuals in u and v.
    """
    tx, ty, tz = t
    fx, fy, cx, cy = k.fx, k.fy, k.cx, k.cy
    cost, rows = 0.0, []
    for (mx, my, mz), (u, v) in zip(_rotated_corners(r, half), observed):
        x, y, z = mx + tx, my + ty, mz + tz
        if z <= MIN_DEPTH_M:
            raise NonPositiveDepth("corner behind camera during refinement")
        eu, ev = fx * x / z + cx - u, fy * y / z + cy - v
        cost = cost + eu * eu + ev * ev  # not +=: residuals added in order
        rows.append((mx, my, mz, x, y, z, eu, ev))
    return cost, rows


def _normal_equations(rows, k: CameraIntrinsics) -> tuple:
    """JᵀJ and Jᵀr of the 8x6 residual Jacobian J in (rotation perturbation w, t).

    rows are _residuals' per-corner (mx, my, mz, x, y, z, eu, ev).  JᵀJ
    comes as its upper triangle, row by row (21 entries).  The rotation
    perturbation is left-multiplicative and acts on R@P only: dp/dw =
    -[R@P]x, so row u of corner i is m x du/dp with m = R@P_i.  A u row has
    no ty term and a v row no tx term, so entry (3, 4) is 0.
    """
    fx, fy = k.fx, k.fy
    h00 = h01 = h02 = h03 = h04 = h05 = h11 = h12 = h13 = h14 = h15 = 0.0
    h22 = h23 = h24 = h25 = h33 = h35 = h44 = h45 = h55 = 0.0
    g0 = g1 = g2 = g3 = g4 = g5 = 0.0
    for mx, my, mz, x, y, z, eu, ev in rows:
        a, b = fx / z, fy / z
        xz, yz = x / z, y / z
        # row u is (u0, u1, u2, a, 0, u5), row v is (v0, v1, v2, 0, b, v5)
        u0, u1, u2, u5 = -a * my * xz, a * (mz + mx * xz), -a * my, -a * xz
        v0, v1, v2, v5 = -b * (my * yz + mz), b * mx * yz, b * mx, -b * yz
        h00 += u0 * u0 + v0 * v0
        h01 += u0 * u1 + v0 * v1
        h02 += u0 * u2 + v0 * v2
        h03 += u0 * a
        h04 += v0 * b
        h05 += u0 * u5 + v0 * v5
        h11 += u1 * u1 + v1 * v1
        h12 += u1 * u2 + v1 * v2
        h13 += u1 * a
        h14 += v1 * b
        h15 += u1 * u5 + v1 * v5
        h22 += u2 * u2 + v2 * v2
        h23 += u2 * a
        h24 += v2 * b
        h25 += u2 * u5 + v2 * v5
        h33 += a * a
        h35 += a * u5
        h44 += b * b
        h45 += b * v5
        h55 += u5 * u5 + v5 * v5
        g0 += u0 * eu + v0 * ev
        g1 += u1 * eu + v1 * ev
        g2 += u2 * eu + v2 * ev
        g3 += a * eu
        g4 += b * ev
        g5 += u5 * eu + v5 * ev
    h = (h00, h01, h02, h03, h04, h05, h11, h12, h13, h14, h15,
         h22, h23, h24, h25, h33, 0.0, h35, h44, h45, h55)
    return h, (g0, g1, g2, g3, g4, g5)


def _inverse_root(pivot: float) -> float:
    if not pivot > 0.0:
        raise np.linalg.LinAlgError("damped normal matrix is not positive definite")
    return 1.0 / math.sqrt(pivot)


def _damped_step(h, g, lam, inverse_root=_inverse_root) -> tuple:
    """Solve (H + lam*I) s = -g by an unrolled Cholesky factorization L Lᵀ.

    h is the upper triangle of the symmetric 6x6 H, row by row.  A pivot
    that is not positive raises LinAlgError, as numpy's Cholesky would.
    The lockstep fit passes lane arrays and an inverse_root that records
    each lane's failed pivots instead of raising.
    """
    (a00, a01, a02, a03, a04, a05, a11, a12, a13, a14, a15,
     a22, a23, a24, a25, a33, a34, a35, a44, a45, a55) = h
    g0, g1, g2, g3, g4, g5 = g
    # column j of L, with i_j = 1 / L[j][j]
    i0 = inverse_root(a00 + lam)
    l10, l20, l30, l40, l50 = a01 * i0, a02 * i0, a03 * i0, a04 * i0, a05 * i0
    i1 = inverse_root(a11 + lam - l10 * l10)
    l21 = (a12 - l20 * l10) * i1
    l31 = (a13 - l30 * l10) * i1
    l41 = (a14 - l40 * l10) * i1
    l51 = (a15 - l50 * l10) * i1
    i2 = inverse_root(a22 + lam - l20 * l20 - l21 * l21)
    l32 = (a23 - l30 * l20 - l31 * l21) * i2
    l42 = (a24 - l40 * l20 - l41 * l21) * i2
    l52 = (a25 - l50 * l20 - l51 * l21) * i2
    i3 = inverse_root(a33 + lam - l30 * l30 - l31 * l31 - l32 * l32)
    l43 = (a34 - l40 * l30 - l41 * l31 - l42 * l32) * i3
    l53 = (a35 - l50 * l30 - l51 * l31 - l52 * l32) * i3
    i4 = inverse_root(a44 + lam - l40 * l40 - l41 * l41 - l42 * l42 - l43 * l43)
    l54 = (a45 - l50 * l40 - l51 * l41 - l52 * l42 - l53 * l43) * i4
    i5 = inverse_root(a55 + lam - l50 * l50 - l51 * l51 - l52 * l52 - l53 * l53 - l54 * l54)
    # L y = -g, then Lᵀ s = y
    y0 = -g0 * i0
    y1 = (-g1 - l10 * y0) * i1
    y2 = (-g2 - l20 * y0 - l21 * y1) * i2
    y3 = (-g3 - l30 * y0 - l31 * y1 - l32 * y2) * i3
    y4 = (-g4 - l40 * y0 - l41 * y1 - l42 * y2 - l43 * y3) * i4
    y5 = (-g5 - l50 * y0 - l51 * y1 - l52 * y2 - l53 * y3 - l54 * y4) * i5
    s5 = y5 * i5
    s4 = (y4 - l54 * s5) * i4
    s3 = (y3 - l43 * s4 - l53 * s5) * i3
    s2 = (y2 - l32 * s3 - l42 * s4 - l52 * s5) * i2
    s1 = (y1 - l21 * s2 - l31 * s3 - l41 * s4 - l51 * s5) * i1
    s0 = (y0 - l10 * s1 - l20 * s2 - l30 * s3 - l40 * s4 - l50 * s5) * i0
    return s0, s1, s2, s3, s4, s5


def _refine(r, t, cost: float, rows: list, half: float, observed: list, k: CameraIntrinsics,
            lam: float = GN_DAMPING_INIT, iterations: int = GN_MAX_ITERATIONS) -> tuple:
    """Damped Gauss-Newton on the 6-DoF reprojection objective.

    Starts from rotation entries r (row by row) and translation t, with
    the cost and rows _residuals gives there, and returns the refined (r,
    t, rms_pixels); r is not re-orthonormalized.  half is the marker's
    half-side and observed the four corners' pixels (u, v).  The loop runs
    on Python floats: at 8 residuals and 6 unknowns numpy's per-call cost
    is most of the work.  lam and iterations let a lockstep lane resume
    here where it left off: the loop's other state is a function of (r, t).
    """
    h, g = _normal_equations(rows, k)
    for _ in range(iterations):
        try:
            s0, s1, s2, s3, s4, s5 = _damped_step(h, g, lam)
        except np.linalg.LinAlgError:
            lam *= GN_DAMPING_UP
            continue
        r_c = _rotate(s0, s1, s2, r)
        t_c = (t[0] + s3, t[1] + s4, t[2] + s5)
        try:
            cost_c, rows_c = _residuals(r_c, t_c, half, observed, k)
        except NonPositiveDepth:
            lam *= GN_DAMPING_UP
            continue
        if cost_c < cost:
            decrease = cost - cost_c
            r, t, cost = r_c, t_c, cost_c
            lam *= GN_DAMPING_DOWN
            step_sq = s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3 + s4 * s4 + s5 * s5
            if math.sqrt(step_sq) < GN_STEP_TOL or decrease <= GN_COST_RTOL * cost:
                break
            h, g = _normal_equations(rows_c, k)
        else:
            lam *= GN_DAMPING_UP
            if lam > GN_DAMPING_MAX:
                break
    return r, t, math.sqrt(cost / 8.0)


def _residual_lanes(r, t, half: float, observed, k: CameraIntrinsics) -> tuple:
    """_residuals on lane arrays, all four corners at once.

    r and t hold one array per entry with one element per lane, observed
    is the (u, v) pixels as (2, 4, lanes).  Each element gets the
    operations _residuals gives it, in the same order, and the cost adds
    the corners' squared residuals one at a time as _residuals does.
    Returns the cost per lane, the rows as an (8, 4, lanes) array of (mx,
    my, mz, x, y, z, eu, ev) and a `behind` mask in place of the raise:
    a lane with a corner at or behind the camera plane, whose cost and
    rows are meaningless.
    """
    mx, my, mz = np.array(_rotated_corners(r, half)).transpose(1, 0, 2)
    tx, ty, tz = t
    x, y, z = mx + tx, my + ty, mz + tz
    u, v = observed
    eu, ev = k.fx * x / z + k.cx - u, k.fy * y / z + k.cy - v
    eu2, ev2 = eu * eu, ev * ev
    cost = 0.0
    for corner in range(4):
        cost = cost + eu2[corner] + ev2[corner]
    return cost, np.array((mx, my, mz, x, y, z, eu, ev)), (z <= MIN_DEPTH_M).any(axis=0)


def _normal_equation_lanes(rows, k: CameraIntrinsics) -> tuple:
    """_normal_equations on (8, 4, lanes) rows, with its bits.

    One call on the four corners as a single batch gives each corner's
    terms, each already added to 0.0; they are then summed over the
    corners in order.  Adding 0.0 to the terms of corners 1-3 leaves the
    sums' bits unchanged, since no partial sum is -0.0.  Entry (3, 4) of
    JᵀJ is the constant 0.0.
    """
    h, g = _normal_equations([rows.reshape(8, -1)], k)
    terms = np.array(h[:16] + h[17:] + g).reshape(26, 4, -1)
    sums = terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]
    return (*sums[:16], 0.0, *sums[16:20]), sums[20:]


def _rotate_lanes(w0, w1, w2, r, solved):
    """_rotate on lane arrays.  Sine and cosine are taken per lane through
    math, so the bits do not depend on numpy's vectorized libm; lanes not
    solved turn by a meaningless angle and are discarded by the caller."""
    n = np.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
    angles = np.where(solved, n, 0.0).tolist()
    turn = axis_angle_entries(w0 / n, w1 / n, w2 / n, np.array(list(map(math.sin, angles))),
                              np.array(list(map(math.cos, angles))))
    return np.where(n < 1e-15, r, product_entries(turn, r))


def _refine_lockstep(r, t, observed, half: float, k: CameraIntrinsics) -> list:
    """_refine from each lane's start, with the same bits, one Gauss-Newton
    iteration at a time over all lanes as arrays.

    r (9, lanes) and t (3, lanes) hold the starts' entries, observed the
    (u, v) pixels as (2, 4, lanes).  Per lane: (r, t, rms), or None when a
    start corner is behind the camera.  An active lane's state is its (r,
    t), cost, residual rows and damping; its normal equations are
    recomputed from the rows each iteration, as they are a function of (r,
    t).  Once fewer than LOCKSTEP_MIN_LANES lanes are active, each resumes
    on the scalar _refine with its cost, rows, damping and iterations left.
    """
    fits = [None] * r.shape[1]
    solved_pivots = []

    def inverse_root(pivot):
        solved_pivots.append(pivot > 0.0)
        return 1.0 / np.sqrt(pivot)

    with np.errstate(all="ignore"):  # a lane behind the camera or not solved computes garbage
        cost, rows, behind = _residual_lanes(r, t, half, observed, k)
        live = ~behind  # _refine raises NonPositiveDepth at such a start
        ids = np.flatnonzero(live)
        r, t, cost, rows, observed = (
            r[:, live], t[:, live], cost[live], rows[..., live], observed[..., live])
        lam = np.full(len(ids), GN_DAMPING_INIT)
        iterations_left = GN_MAX_ITERATIONS
        while iterations_left and len(ids) >= LOCKSTEP_MIN_LANES:
            iterations_left -= 1
            h, g = _normal_equation_lanes(rows, k)
            solved_pivots.clear()
            s0, s1, s2, s3, s4, s5 = _damped_step(h, g, lam, inverse_root)
            solved = np.logical_and.reduce(solved_pivots)
            r_c = _rotate_lanes(s0, s1, s2, r, solved)
            t_c = (t[0] + s3, t[1] + s4, t[2] + s5)
            cost_c, rows_c, behind = _residual_lanes(r_c, t_c, half, observed, k)
            moved = solved & ~behind
            accepted = moved & (cost_c < cost)
            step = np.sqrt(s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3 + s4 * s4 + s5 * s5)
            converged = (step < GN_STEP_TOL) | (cost - cost_c <= GN_COST_RTOL * cost_c)
            lam = lam * np.where(accepted, GN_DAMPING_DOWN, GN_DAMPING_UP)
            done = accepted & converged | moved & ~accepted & (lam > GN_DAMPING_MAX)
            r = np.where(accepted, r_c, r)
            t = np.where(accepted, t_c, t)
            cost = np.where(accepted, cost_c, cost)
            rows = np.where(accepted, rows_c, rows)
            if done.any():
                for lane, r_lane, t_lane, cost_lane in zip(
                        ids[done].tolist(), r[:, done].T.tolist(), t[:, done].T.tolist(),
                        cost[done].tolist()):
                    fits[lane] = tuple(r_lane), tuple(t_lane), math.sqrt(cost_lane / 8.0)
                live = ~done
                ids, r, t, cost, rows, lam, observed = (
                    ids[live], r[:, live], t[:, live], cost[live], rows[..., live], lam[live],
                    observed[..., live])
    for lane, r_lane, t_lane, cost_lane, rows_lane, lam_lane, observed_lane in zip(
            ids.tolist(), r.T.tolist(), t.T.tolist(), cost.tolist(),
            rows.transpose(2, 1, 0).tolist(), lam.tolist(), observed.transpose(2, 1, 0).tolist()):
        fits[lane] = _refine(tuple(r_lane), tuple(t_lane), cost_lane, rows_lane, half,
                             observed_lane, k, lam_lane, iterations_left)
    return fits


def _starts(pixels: list, half: float, k: CameraIntrinsics, ops=_FLOATS) -> tuple:
    """The two IPPE starts (r, t) of one frame's corner pixels, or of every
    frame's as lanes when ops is _starts_lockstep's."""
    _require_area(pixels, ops)
    normalized = _normalized_corners(pixels, k)
    return _ippe_candidates(_square_homography(normalized, half, ops), normalized, half, ops)


def _per_lane(f):
    """The math function f on each lane, so the bits do not depend on
    numpy's vectorized libm."""
    each = np.frompyfunc(f, 2, 1)
    return lambda a, b: each(a, b).astype(float)


def _starts_lockstep(pixels, half: float, k: CameraIntrinsics) -> tuple:
    """_starts on each frame, with the same bits, all frames at once.

    pixels is (corner, u/v, frame).  _starts runs on float64 arrays, one
    element per frame: numpy's elementwise operations, which round as
    Python's do, hypot, atan2, sine and cosine per frame through math, and
    a record of each of its checks: the frames failing it and its message.
    Returns r (9, 2, frames), t (3, 2, frames) and per frame the message of
    the first check it fails, which is that of the PoseError _starts raises
    on it, or None for a frame that passes them all; a failed frame's
    entries are meaningless.
    """
    checks = []

    def rotate(w0, w1, w2, r):
        # the view ray's rotation turns the identity's floats, one per lane
        return _rotate_lanes(w0, w1, w2, np.broadcast_arrays(w0, *r)[1:], True)

    lanes = SimpleNamespace(
        sqrt=np.sqrt, hypot=_per_lane(math.hypot), atan2=_per_lane(math.atan2),
        copysign=np.copysign, isfinite=np.isfinite, where=np.where, rotate=rotate,
        nonfinite=lambda entries: ~np.isfinite(entries).all(axis=0),
        reject=lambda bad, _message: checks.append((bad, _NO_CANDIDATE)),
        require=lambda ok, message: checks.append((~ok, message)))
    with np.errstate(all="ignore"):  # a frame that fails a check computes garbage
        starts = _starts(list(pixels), half, k, lanes)
    messages = [None] * pixels.shape[2]
    for bad, message in reversed(checks):
        for frame in np.flatnonzero(bad).tolist():
            messages[frame] = message
    return (np.stack([r for r, _ in starts], axis=1), np.stack([t for _, t in starts], axis=1),
            messages)


def _kept_fit(fits: list, pixel_sigma: float) -> tuple:
    """The fit with the smaller rms among a frame's refined candidates (None
    for a dropped one), its rotation Gram-Schmidt'd, and the ambiguity ratio,
    at least 1.  NoConvergence when it fails the gate, DegenerateCorners when
    it is not finite or Gram-Schmidt rejects it."""
    gate = max(MAX_RMS_PX, _RMS_GATE_PER_SIGMA * pixel_sigma)
    fits = sorted((fit for fit in fits if fit is not None), key=lambda fit: fit[2])
    if not fits or fits[0][2] > gate:
        raise NoConvergence(f"no pose candidate fits within {gate} px")
    (best_r, best_t, best_rms), *rest = fits
    _require(all(map(math.isfinite, best_t)), _NO_CANDIDATE)
    ratio = (rest[0][2] + 1e-15) / (best_rms + 1e-15) if rest else float("inf")
    return _gram_schmidt(best_r, _FLOATS), best_t, best_rms, max(1.0, ratio)


def estimate_pose(
    obs: MarkerObservation, marker_side: float, intrinsics: CameraIntrinsics,
    pixel_sigma: float = 0.0,
) -> PoseEstimate:
    """Estimate the marker pose in the camera frame from four corner pixels
    whose noise has standard deviation pixel_sigma (px)."""
    if not 0 < marker_side < math.inf:
        raise ValueError("marker_side must be a positive finite number")
    if not 0 <= pixel_sigma < math.inf:
        raise ValueError("pixel_sigma must be a finite number >= 0")
    r, t, rms, ratio = fit_corners(obs.corners.tolist(), marker_side, intrinsics, pixel_sigma)
    return PoseEstimate(RigidTransform(np.reshape(r, (3, 3)), t), rms, ratio)


def fit_corners(pixels: list, marker_side: float, k: CameraIntrinsics, pixel_sigma: float):
    """estimate_pose's fit on floats, for checked arguments: the four corners'
    (u, v) to the kept fit's (r, t, rms, ratio), where r holds a proper
    rotation's entries row by row and t is finite."""
    half = marker_side / 2.0
    fits = []
    for r, t in _starts(pixels, half, k):
        try:
            fits.append(_refine(r, t, *_residuals(r, t, half, pixels, k), half, pixels, k))
        except NonPositiveDepth:  # a start corner behind the camera
            fits.append(None)
    return _kept_fit(fits, pixel_sigma)


def fit_corners_many(pixel_rows: list, marker_side: float, k: CameraIntrinsics,
                     pixel_sigma: float) -> list:
    """fit_corners on each frame's four corner pixels, with the same bits:
    per frame the kept fit, with its proper rotation, or the PoseError that
    fit_corners raises on it.  _starts_lockstep takes every frame's two
    starts at once, and _refine_lockstep refines the starts of all frames
    that pass the checks together, each frame's two side by side.  A frame
    that fails them gets the DegenerateCorners of the first check it fails."""
    half = marker_side / 2.0
    pixels = np.array(pixel_rows, dtype=float).reshape(-1, 4, 2).transpose(1, 2, 0)
    r, t, messages = _starts_lockstep(pixels, half, k)
    kept = np.array([message is None for message in messages], dtype=bool)
    fits = iter(_refine_lockstep(r[..., kept].transpose(0, 2, 1).reshape(9, -1),
                                 t[..., kept].transpose(0, 2, 1).reshape(3, -1),
                                 np.repeat(pixels[..., kept], 2, axis=2).transpose(1, 0, 2),
                                 half, k))
    frames = []
    for message in messages:
        try:
            if message is not None:
                raise DegenerateCorners(message)
            frames.append(_kept_fit([next(fits), next(fits)], pixel_sigma))
        except PoseError as exc:
            frames.append(exc)
    return frames

