import ast
import json
import math
import pathlib

import numpy as np
import pytest

from handguard import marker_pose
from handguard.geometry import (
    RigidTransform,
    orthonormalized,
    rotation_from_axis_angle,
)
from handguard.marker_pose import (
    GN_COST_RTOL,
    GN_DAMPING_DOWN,
    GN_DAMPING_INIT,
    GN_DAMPING_MAX,
    GN_DAMPING_UP,
    GN_MAX_ITERATIONS,
    GN_STEP_TOL,
    LOCKSTEP_MIN_LANES,
    MAX_RMS_PX,
    MIN_DEPTH_M,
    CameraIntrinsics,
    DegenerateCorners,
    MarkerObservation,
    NoConvergence,
    NonPositiveDepth,
    PoseError,
    _damped_step,
    _ippe_candidates,
    _normal_equations,
    _normalized_corners,
    _refine,
    _residuals,
    _rotated_corners,
    _square_homography,
    estimate_pose,
    fit_corners,
    fit_corners_many,
    project,
    project_corners,
    synthesize_observation,
)

K = CameraIntrinsics()
SIDE = 0.04

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "handguard"


def random_pose(rng, max_tilt=0.6):
    axis = rng.normal(size=3)
    r = rotation_from_axis_angle(axis, rng.uniform(-max_tilt, max_tilt))
    t = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15), rng.uniform(0.6, 1.4)])
    return RigidTransform(r, t)


def rotation_error_rad(r_a, r_b):
    c = (np.trace(r_a.T @ r_b) - 1.0) / 2.0
    return math.acos(min(1.0, max(-1.0, c)))


def marker_corners_3d(marker_side):
    # corner coordinates in the marker frame (z = 0 plane), order TL, TR, BR, BL
    h = marker_side / 2.0
    return np.array([[-h, h, 0.0], [h, h, 0.0], [h, -h, 0.0], [-h, -h, 0.0]])


def entries(pose):
    # a pose as the (rotation entries row by row, translation) floats _refine takes
    return pose.rotation.ravel().tolist(), pose.translation.tolist()


def refine_pose(start, marker_side, observed, k):
    # _refine from and to a RigidTransform, the way estimate_pose builds its winner
    r, t = entries(start)
    half, observed = marker_side / 2.0, observed.tolist()
    r, t, rms = _refine(r, t, *_residuals(r, t, half, observed, k), half, observed, k)
    return RigidTransform.from_orthonormalized(np.reshape(r, (3, 3)), t), rms


def reference_project(pose, marker_side, intrinsics):
    # the numpy camera model that project_corners replaced
    pts = (pose.rotation @ marker_corners_3d(marker_side).T).T + pose.translation
    z = pts[:, 2]
    if np.any(z <= MIN_DEPTH_M):
        raise NonPositiveDepth("marker corner at or behind the camera plane")
    u = intrinsics.fx * pts[:, 0] / z + intrinsics.cx
    v = intrinsics.fy * pts[:, 1] / z + intrinsics.cy
    return np.column_stack([u, v])


class TestProjection:
    def test_centered_square_arithmetic(self):
        # fronto-parallel marker 1 m away: offsets are fx * (side/2) / z = 16 px
        pose = RigidTransform(np.eye(3), [0.0, 0.0, 1.0])
        px = project(pose, SIDE, K)
        expected = np.array(
            [[624.0, 376.0], [656.0, 376.0], [656.0, 344.0], [624.0, 344.0]]
        )
        assert np.abs(px - expected).max() < 1e-12

    def test_perspective_halving_with_depth(self):
        near = project(RigidTransform(np.eye(3), [0, 0, 0.5]), SIDE, K)
        far = project(RigidTransform(np.eye(3), [0, 0, 1.0]), SIDE, K)
        center = np.array([K.cx, K.cy])
        assert np.allclose(far - center, (near - center) / 2.0)

    def test_translation_shifts_pixels(self):
        base = project(RigidTransform(np.eye(3), [0, 0, 1.0]), SIDE, K)
        moved = project(RigidTransform(np.eye(3), [0.1, 0, 1.0]), SIDE, K)
        assert np.allclose(moved[:, 0] - base[:, 0], K.fx * 0.1)
        assert np.allclose(moved[:, 1], base[:, 1])

    def test_behind_camera_rejected(self):
        with pytest.raises(NonPositiveDepth):
            project(RigidTransform(np.eye(3), [0, 0, -1.0]), SIDE, K)

    def test_corner_layout(self):
        c = marker_corners_3d(SIDE)
        identity = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        assert np.array_equal(_rotated_corners(identity, SIDE / 2.0), c)
        # each rotated corner is the dot product R@P, up to the sign of zero
        for truth in TestIppeCandidates.truths():
            got = np.array(_rotated_corners(truth.rotation.ravel().tolist(), SIDE / 2.0))
            assert np.abs(got - c @ truth.rotation.T).max() <= 1e-17

    def test_float_camera_model_matches_reference(self):
        # the 200 IPPE truths: the same pixels as the numpy camera model
        for truth in TestIppeCandidates.truths():
            got = np.array(project_corners(*entries(truth), SIDE / 2.0, K))
            assert np.abs(got - reference_project(truth, SIDE, K)).max() <= 1e-9
            assert np.array_equal(project(truth, SIDE, K), got)

    def test_float_camera_model_rejects_like_reference(self):
        # the truths pushed behind the camera, and tilted markers straddling
        # its plane: the same exception, or pixels within rounding of the
        # reference (they grow large as a corner nears the plane)
        outcomes = set()
        for truth in TestIppeCandidates.truths():
            r, (x, y, z) = truth.rotation, truth.translation
            for pose in (RigidTransform(r, [x, y, -z]), RigidTransform(r, [x, y, 0.01])):
                try:
                    ref = reference_project(pose, SIDE, K)
                except NonPositiveDepth:
                    with pytest.raises(NonPositiveDepth):
                        project_corners(*entries(pose), SIDE / 2.0, K)
                    with pytest.raises(NonPositiveDepth):
                        project(pose, SIDE, K)
                    outcomes.add("rejected")
                    continue
                got = project(pose, SIDE, K)
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
                outcomes.add("projected")
        assert outcomes == {"projected", "rejected"}


class TestSynthesize:
    def test_noiseless_equals_projection(self):
        pose = RigidTransform(rotation_from_axis_angle((1, 0, 0), 0.3), [0.05, -0.02, 0.9])
        obs = synthesize_observation(pose, SIDE, K)
        assert np.allclose(obs.corners, project(pose, SIDE, K))

    def test_seed_determinism(self):
        pose = RigidTransform(np.eye(3), [0, 0, 1.0])
        a = synthesize_observation(pose, SIDE, K, pixel_noise_sigma=0.5, seed=11)
        b = synthesize_observation(pose, SIDE, K, pixel_noise_sigma=0.5, seed=11)
        c = synthesize_observation(pose, SIDE, K, pixel_noise_sigma=0.5, seed=12)
        assert np.array_equal(a.corners, b.corners)
        assert not np.array_equal(a.corners, c.corners)

    def test_noise_statistics(self):
        pose = RigidTransform(np.eye(3), [0, 0, 1.0])
        clean = project(pose, SIDE, K)
        deltas = []
        for seed in range(500):
            obs = synthesize_observation(pose, SIDE, K, pixel_noise_sigma=0.5, seed=seed)
            deltas.append(obs.corners - clean)
        deltas = np.concatenate(deltas).ravel()
        assert abs(deltas.std() - 0.5) < 0.02
        assert abs(deltas.mean()) < 0.02


class TestObservationValidation:
    def test_collinear_rejected(self):
        with pytest.raises(DegenerateCorners):
            MarkerObservation(0, [[0, 0], [1, 1], [2, 2], [3, 3]])

    def test_repeated_corner_rejected(self):
        with pytest.raises(DegenerateCorners):
            MarkerObservation(0, [[0, 0], [0, 0], [10, 0], [10, 10]])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            MarkerObservation(0, [[0, 0], [1, 0], [1, 1]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            MarkerObservation(0, [[0, 0], [1, 0], [1, float("nan")], [0, 1]])


class TestIntrinsicsValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["fx", "fy", "cx", "cy", "image_width", "image_height"])
    def test_rejects_non_finite_field(self, name, value):
        # an infinite focal length or image size used to construct
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            CameraIntrinsics(**{name: value})


class TestEstimatePose:
    def test_noiseless_round_trip(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            truth = random_pose(rng)
            obs = synthesize_observation(truth, SIDE, K)
            est = estimate_pose(obs, SIDE, K)
            assert rotation_error_rad(est.pose.rotation, truth.rotation) < 1e-6
            assert np.abs(est.pose.translation - truth.translation).max() < 1e-6
            assert est.rms_reprojection_error < 1e-6

    def test_residual_optimality_under_noise(self):
        # the returned pose never fits worse than refinement initialized at
        # the ground truth would
        rng = np.random.default_rng(5)
        for i in range(50):
            truth = random_pose(rng)
            obs = synthesize_observation(
                truth, SIDE, K, pixel_noise_sigma=0.5, seed=2000 + i
            )
            est = estimate_pose(obs, SIDE, K)
            r, t = entries(truth)
            observed = obs.corners.tolist()
            *_, rms_from_truth = _refine(
                r, t, *_residuals(r, t, SIDE / 2.0, observed, K), SIDE / 2.0, observed, K)
            assert est.rms_reprojection_error <= rms_from_truth + 1e-9

    def test_ambiguity_ratio_reported(self):
        # a tilted marker has two distinct planar minima; the ratio must
        # reflect both candidates
        truth = RigidTransform(rotation_from_axis_angle((0, 1, 0), 0.5), [0.05, 0.0, 1.0])
        obs = synthesize_observation(truth, SIDE, K, pixel_noise_sigma=0.5, seed=3)
        est = estimate_pose(obs, SIDE, K)
        assert est.ambiguity_ratio >= 1.0

    def test_rejects_non_positive_side(self):
        obs = synthesize_observation(RigidTransform(np.eye(3), [0, 0, 1.0]), SIDE, K)
        with pytest.raises(ValueError):
            estimate_pose(obs, 0.0, K)

    @pytest.mark.parametrize("side", [-SIDE, float("nan"), float("inf")])
    def test_rejects_side_that_is_not_positive_and_finite(self, side):
        obs = synthesize_observation(RigidTransform(np.eye(3), [0, 0, 1.0]), SIDE, K)
        with pytest.raises(ValueError, match="marker_side"):
            estimate_pose(obs, side, K)

    def test_residual_evaluation_budget_ippe(self, monkeypatch):
        # IPPE starts both candidates next to their minima and the stop rule
        # ends refinement once progress stalls: at most 16 residual
        # evaluations per pose on average
        from handguard import marker_pose

        calls = [0]
        residuals = marker_pose._residuals

        def counted(*args):
            calls[0] += 1
            return residuals(*args)

        monkeypatch.setattr(marker_pose, "_residuals", counted)
        rng = np.random.default_rng(21)
        for i in range(50):
            obs = synthesize_observation(
                random_pose(rng), SIDE, K, pixel_noise_sigma=0.5, seed=3000 + i
            )
            estimate_pose(obs, SIDE, K)
        assert calls[0] / 50 <= 16

    def test_fit_gate(self):
        # however refinement ends, no fit worse than 1 px rms comes back:
        # random quads around projected poses, 0-8 px of corner noise
        rng = np.random.default_rng(17)
        outcomes = set()
        for _ in range(100):
            corners = project(random_pose(rng), SIDE, K)
            corners = corners + rng.normal(0.0, rng.uniform(0.0, 8.0), size=(4, 2))
            try:
                est = estimate_pose(MarkerObservation(0, corners), SIDE, K)
            except NoConvergence:
                outcomes.add("rejected")
                continue
            assert est.rms_reprojection_error <= 1.0
            outcomes.add("accepted")
        assert outcomes == {"accepted", "rejected"}

    @pytest.mark.parametrize("sigma, rejected_at_1px", [(2.0, 64), (4.0, 144)])
    def test_fit_gate_scales_with_pixel_sigma(self, sigma, rejected_at_1px):
        # correct fits have rms ≈ σ/2, so a fixed 1 px gate rejects many of
        # them at 2-4 px; gated at max(1 px, 1.86σ) none of 200 is lost
        rng = np.random.default_rng(23)
        rejected = 0
        for i in range(200):
            obs = synthesize_observation(
                random_pose(rng), SIDE, K, pixel_noise_sigma=sigma, seed=4000 + i
            )
            try:
                estimate_pose(obs, SIDE, K)
            except NoConvergence:
                rejected += 1
            est = estimate_pose(obs, SIDE, K, pixel_sigma=sigma)
            assert est.rms_reprojection_error <= 1.86 * sigma
        assert rejected == rejected_at_1px

    @pytest.mark.parametrize("sigma", [-0.5, float("nan"), float("inf")])
    def test_rejects_pixel_sigma_that_is_not_finite_and_non_negative(self, sigma):
        obs = synthesize_observation(RigidTransform(np.eye(3), [0, 0, 1.0]), SIDE, K)
        with pytest.raises(ValueError, match="pixel_sigma"):
            estimate_pose(obs, SIDE, K, pixel_sigma=sigma)

    def test_noisy_accuracy_within_frozen_bounds(self):
        # Monte-Carlo accuracy envelope measured once for a 4 cm marker at
        # 0.6-1.4 m with 0.5 px corner noise; frozen in the fixture file.
        bounds = json.loads((FIXTURES / "pose_noise_bounds.json").read_text())
        rng = np.random.default_rng(42)
        trans_err, rot_err = [], []
        for i in range(200):
            truth = random_pose(rng)
            obs = synthesize_observation(
                truth, SIDE, K, pixel_noise_sigma=0.5, seed=1000 + i
            )
            est = estimate_pose(obs, SIDE, K)
            trans_err.append(float(np.linalg.norm(est.pose.translation - truth.translation)))
            rot_err.append(math.degrees(rotation_error_rad(est.pose.rotation, truth.rotation)))
        assert float(np.percentile(trans_err, 95)) <= bounds["p95_translation_m"]
        assert float(np.percentile(rot_err, 95)) <= bounds["p95_rotation_deg"]


def reference_homography_dlt(plane_xy, image_xy):
    # 8x9 direct linear transform, null vector by SVD
    rows = []
    for (x, y), (u, v) in zip(plane_xy, image_xy):
        rows.append([-x, -y, -1, 0, 0, 0, u * x, u * y, u])
        rows.append([0, 0, 0, -x, -y, -1, v * x, v * y, v])
    a = np.array(rows)
    _, s, vt = np.linalg.svd(a)
    if s[-2] < 1e-12:
        raise DegenerateCorners("homography system is rank deficient")
    return vt[-1].reshape(3, 3)


# Sends the marker's corners, in half-sides, to the projective basis:
# TL, TR and BL onto the axes and BR onto (1, 1, 1).
SQUARE_TO_BASIS = np.array([[1.0, -1.0, 0.0], [1.0, 0.0, 1.0], [0.0, -1.0, 1.0]])


def reference_square_homography(normalized, marker_side):
    # the numpy front end that the closed-form solve replaced: normalized is
    # (4, 2), the basis scale comes from one LAPACK solve
    p = np.vstack([normalized.T, np.ones(4)])
    basis = p[:, [0, 1, 3]]
    try:
        scale = np.linalg.solve(basis, p[:, 2])
    except np.linalg.LinAlgError:
        raise DegenerateCorners("corners are collinear or enclose no area") from None
    half = marker_side / 2.0
    return (basis * scale) @ (SQUARE_TO_BASIS / [half, half, 1.0])


def reference_ippe_candidates(h, corners3d, normalized):
    # IPPE with numpy matrix products: rv from rotation_from_axis_angle,
    # rv @ M and corners3d @ r.T
    (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = h.tolist()
    p, q = h02 / h22, h12 / h22
    j00, j01 = (h00 - h20 * p) / h22, (h01 - h21 * p) / h22
    j10, j11 = (h10 - h20 * q) / h22, (h11 - h21 * q) / h22
    t = math.hypot(p, q)
    rv = rotation_from_axis_angle((-q, p, 0.0), math.atan2(t, 1.0))
    (v00, v01, _), (v10, v11, _), (v20, v21, _) = rv.tolist()
    b00, b01, b10, b11 = v00 - p * v20, v01 - p * v21, v10 - q * v20, v11 - q * v21
    det = b00 * b11 - b01 * b10
    a00, a01 = (b11 * j00 - b01 * j10) / det, (b11 * j01 - b01 * j11) / det
    a10, a11 = (b00 * j10 - b10 * j00) / det, (b00 * j11 - b10 * j01) / det
    f = a00 * a00 + a01 * a01 + a10 * a10 + a11 * a11
    d = a00 * a11 - a01 * a10
    gamma = math.sqrt((f + math.sqrt(max(f * f - 4.0 * d * d, 0.0))) / 2.0)
    r00, r01, r10, r11 = a00 / gamma, a01 / gamma, a10 / gamma, a11 / gamma
    m00 = 1.0 - r00 * r00 - r10 * r10
    m01 = -r00 * r01 - r10 * r11
    m11 = 1.0 - r01 * r01 - r11 * r11
    b0 = math.sqrt(max(m00, 0.0))
    b1 = math.copysign(math.sqrt(max(m11, 0.0)), m01)
    c0, c1, c2 = r10 * b1 - b0 * r11, b0 * r01 - r00 * b1, r00 * r11 - r10 * r01
    uv = normalized.tolist()
    u_mean, v_mean = sum(u for u, _ in uv) / 4.0, sum(v for _, v in uv) / 4.0
    duv = [(u - u_mean, v - v_mean) for u, v in uv]
    spread = sum(du * du + dv * dv for du, dv in duv)
    candidates = []
    for s in (1.0, -1.0):
        r = rv @ np.array([[r00, r01, s * c0], [r10, r11, s * c1], [s * b0, s * b1, c2]])
        buv = [(u * mz - mx, v * mz - my)
               for (u, v), (mx, my, mz) in zip(uv, (corners3d @ r.T).tolist())]
        tz = -sum(du * bu + dv * bv for (du, dv), (bu, bv) in zip(duv, buv)) / spread
        translation = (
            sum(bu for bu, _ in buv) / 4.0 + u_mean * tz,
            sum(bv for _, bv in buv) / 4.0 + v_mean * tz,
            tz,
        )
        if tz < 0:
            r[:, :2] *= -1.0
            translation = tuple(-x for x in translation)
        candidates.append((orthonormalized(r.ravel().tolist()), translation))
    return tuple(candidates)


def reference_front_end(obs):
    # normalized corners (4, 2), the homography (3, 3) and both candidates
    c = obs.corners
    normalized = np.column_stack([(c[:, 0] - K.cx) / K.fx, (c[:, 1] - K.cy) / K.fy])
    h = reference_square_homography(normalized, SIDE)
    return normalized, h, reference_ippe_candidates(h, marker_corners_3d(SIDE), normalized)


def reference_estimate_pose(obs):
    # the numpy front end, reference_refine from each candidate, the same
    # candidate order, sort and gate as estimate_pose
    fits = []
    for r, t in reference_front_end(obs)[2]:
        try:
            fits.append(reference_refine(
                RigidTransform(np.reshape(r, (3, 3)), t), SIDE, obs.corners, K))
        except NonPositiveDepth:
            continue
    fits.sort(key=lambda fit: fit[1])
    if not fits or fits[0][1] > MAX_RMS_PX:
        raise NoConvergence(f"no pose candidate fits within {MAX_RMS_PX} px")
    return fits[0]


def front_end(obs):
    # the float homography as (3, 3) and both candidates as floats
    normalized = _normalized_corners(obs.corners.tolist(), K)
    h = _square_homography(normalized, SIDE / 2.0)
    return np.reshape(h, (3, 3)), _ippe_candidates(h, normalized, SIDE / 2.0)


def ippe_candidates(obs):
    # the homography and both candidates, each through the checking constructor
    h, candidates = front_end(obs)
    return h, tuple(RigidTransform(np.reshape(r, (3, 3)), t) for r, t in candidates)


# a marker seen almost edge-on (sim_noisy seed 10, step 12): it spans 0.6 px
# in u, and with 0.5 px noise its quad folds over
EDGE_ON_CORNERS = np.array([
    [668.0696998012323, 139.34880570587666], [668.1988473631603, 145.87422043988323],
    [667.9084235736839, 124.18880487842367], [668.4690586196244, 117.31962693658676],
])


# TL, TR, BR, BL with BR and BL swapped: the quad crosses itself, and its
# homography sends the marker centre to infinity (h22 = s1 + s3 = 0 exactly)
BOWTIE_CORNERS = [[600.0, 300.0], [610.0, 300.0], [600.0, 310.0], [610.0, 310.0]]


def in_front(pose):
    return bool(np.all((marker_corners_3d(SIDE) @ pose.rotation.T + pose.translation)[:, 2] > 0))


class TestIppeCandidates:
    @staticmethod
    def truths():
        rng = np.random.default_rng(31)
        return [random_pose(rng) for _ in range(200)]

    def test_noiseless_one_candidate_is_exact(self):
        for truth in self.truths():
            _, candidates = ippe_candidates(synthesize_observation(truth, SIDE, K))
            assert min(
                max(np.abs(c.rotation - truth.rotation).max(),
                    np.abs(c.translation - truth.translation).max())
                for c in candidates
            ) <= 1e-9

    def test_candidates_are_proper_rotations_in_front(self):
        for truth in self.truths():
            _, candidates = ippe_candidates(synthesize_observation(truth, SIDE, K))
            assert len(candidates) == 2
            for c in candidates:
                RigidTransform(c.rotation, c.translation)  # orthonormal, det +1
                assert in_front(c)

    def test_normals_reflect_about_the_centre_ray(self):
        for truth in self.truths():
            _, (a, b) = ippe_candidates(synthesize_observation(truth, SIDE, K))
            ray = truth.translation / np.linalg.norm(truth.translation)
            n1, n2 = a.rotation[:, 2], b.rotation[:, 2]
            assert np.abs(2.0 * (n1 @ ray) * ray - n1 - n2).max() <= 1e-12

    def test_centred_fronto_parallel_is_finite(self):
        # the centre ray is the optical axis: the view-ray rotation is the identity
        truth = RigidTransform(np.eye(3), [0.0, 0.0, 1.0])
        _, candidates = ippe_candidates(synthesize_observation(truth, SIDE, K))
        for c in candidates:
            assert np.all(np.isfinite(c.rotation)) and np.all(np.isfinite(c.translation))
            # the tilt is the square root of rounding-level terms here, so
            # both candidates sit about 1e-8 rad off the identity
            assert np.abs(c.as_matrix() - truth.as_matrix()).max() <= 1e-7

    def test_edge_on_marker_under_noise(self):
        # the exact homography of the folded quad sends two corners behind
        # the camera, but both candidates stay in front and one converges
        corners = EDGE_ON_CORNERS
        h, candidates = ippe_candidates(MarkerObservation(0, corners))
        w = np.column_stack([marker_corners_3d(SIDE)[:, :2], np.ones(4)]) @ h[2]
        assert np.any(w > 0) and np.any(w < 0)
        assert all(in_front(c) for c in candidates)
        est = estimate_pose(MarkerObservation(0, corners), SIDE, K)
        assert est.rms_reprojection_error < 1.0

    def test_matches_numpy_front_end(self):
        # unrolled rv @ M and corner rotations against the numpy products,
        # from the float homography and from the LAPACK one: the same
        # candidates in the same order, entry by entry within 1e-9
        for obs in front_end_frames():
            _, _, ref = reference_front_end(obs)
            _, got = front_end(obs)
            for (r, t), (r_ref, t_ref) in zip(got, ref, strict=True):
                assert np.abs(np.subtract(r, r_ref)).max() <= 1e-9
                assert np.abs(np.subtract(t, t_ref)).max() <= 1e-9

    def test_sums_are_written_out(self):
        # from Python 3.12 the builtin sum compensates its float rounding, so
        # the fit adds left to right itself and gets one set of bits on
        # every Python: marker_pose neither calls the builtin sum nor passes it on
        tree = ast.parse((SRC / "marker_pose.py").read_text())
        uses = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "sum"]
        assert uses == []


def front_end_frames():
    # the 200 IPPE truths without noise and at 0.5 px, and the edge-on quad
    truths = TestIppeCandidates.truths()
    return ([synthesize_observation(truth, SIDE, K) for truth in truths]
            + [synthesize_observation(truth, SIDE, K, pixel_noise_sigma=0.5, seed=i)
               for i, truth in enumerate(truths)]
            + [MarkerObservation(0, EDGE_ON_CORNERS)])


class TestSquareHomography:
    def test_equals_dlt_up_to_scale(self):
        frames = [synthesize_observation(truth, SIDE, K, pixel_noise_sigma=0.5, seed=i)
                  for i, truth in enumerate(TestIppeCandidates.truths())]
        for obs in frames + [MarkerObservation(0, EDGE_ON_CORNERS)]:
            normalized = _normalized_corners(obs.corners.tolist(), K)
            ref = reference_homography_dlt(marker_corners_3d(SIDE)[:, :2], normalized)
            got = np.array(_square_homography(normalized, SIDE / 2.0))
            scaled = got * (got @ ref.ravel()) / (got @ got)
            assert np.abs(scaled - ref.ravel()).max() <= 1e-10 * np.abs(ref).max()

    def test_matches_numpy_front_end(self):
        # the closed-form solve against the LAPACK one, on the same scale:
        # within 1e-12 of the homography's largest entry
        for obs in front_end_frames():
            normalized, ref, _ = reference_front_end(obs)
            assert np.array_equal(_normalized_corners(obs.corners.tolist(), K), normalized)
            got, _ = front_end(obs)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_self_intersecting_quad_is_degenerate(self):
        with pytest.raises(DegenerateCorners, match="centre to infinity"):
            fit_corners(BOWTIE_CORNERS, SIDE, K, 0.0)

    @pytest.mark.parametrize("eps", [1e-12, 1e-6, 1e-3, 3.0])
    def test_near_self_intersecting_quads_fail_cleanly(self, eps):
        # moving one corner along u gives the centre a finite image and the
        # fit fails the gate; moving it along v keeps h22 at 0
        for corner in range(4):
            for axis, error in ((0, NoConvergence), (1, DegenerateCorners)):
                corners = [list(c) for c in BOWTIE_CORNERS]
                corners[corner][axis] += eps
                with pytest.raises(error):
                    fit_corners(corners, SIDE, K, 0.0)

    def test_collinear_basis_is_degenerate(self):
        with pytest.raises(DegenerateCorners):
            _square_homography([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (2.0, 0.0)], SIDE / 2.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_basis_is_degenerate(self, bad):
        # a determinant that is not finite is not a solve either
        with pytest.raises(DegenerateCorners):
            _square_homography([(0.0, 0.0), (bad, 0.0), (0.5, 1.0), (0.0, 1.0)], SIDE / 2.0)


def reference_jacobian(rotated, pts, k):
    # per-corner loop: du/dp (and dv/dp) times dp/dw = -[R@P]x, then du/dp for t
    jac = np.zeros((8, 6))
    for i, (m, p) in enumerate(zip(rotated, pts)):
        x, y, z = p
        du_dp = np.array([k.fx / z, 0.0, -k.fx * x / z**2])
        dv_dp = np.array([0.0, k.fy / z, -k.fy * y / z**2])
        skew = np.array([[0, -m[2], m[1]], [m[2], 0, -m[0]], [-m[1], m[0], 0]])
        jac[2 * i, :3] = du_dp @ (-skew)
        jac[2 * i, 3:] = du_dp
        jac[2 * i + 1, :3] = dv_dp @ (-skew)
        jac[2 * i + 1, 3:] = dv_dp
    return jac


def reference_residuals(rotation, translation, corners3d, observed, k):
    # residuals (8,) on numpy arrays, with the rotated and camera-frame corners
    rotated = corners3d @ rotation.T
    pts = rotated + translation
    z = pts[:, 2]
    if (z <= MIN_DEPTH_M).any():
        raise NonPositiveDepth("corner behind camera during refinement")
    res = np.empty(8)
    res[0::2] = k.fx * pts[:, 0] / z + k.cx - observed[:, 0]
    res[1::2] = k.fy * pts[:, 1] / z + k.cy - observed[:, 1]
    return res, rotated, pts


def reference_refine(init, marker_side, observed, k):
    # the same damped Gauss-Newton and stop rules on numpy arrays, with
    # np.linalg.solve for the damped step
    corners3d = marker_corners_3d(marker_side)
    rotation, translation = init.rotation, init.translation
    lam = GN_DAMPING_INIT
    res, rotated, pts = reference_residuals(rotation, translation, corners3d, observed, k)
    cost = float(res @ res)
    jac = reference_jacobian(rotated, pts, k)
    h, g = jac.T @ jac, jac.T @ res
    for _ in range(GN_MAX_ITERATIONS):
        try:
            step = np.linalg.solve(h + lam * np.eye(6), -g)
        except np.linalg.LinAlgError:
            lam *= GN_DAMPING_UP
            continue
        w = step[:3]
        rotation_c = rotation_from_axis_angle(w, math.sqrt(w @ w)) @ rotation
        translation_c = translation + step[3:]
        try:
            res_c, rotated_c, pts_c = reference_residuals(
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
            jac = reference_jacobian(rotated_c, pts_c, k)
            h, g = jac.T @ jac, jac.T @ res
        else:
            lam *= GN_DAMPING_UP
            if lam > GN_DAMPING_MAX:
                break
    return RigidTransform.from_orthonormalized(rotation, translation), math.sqrt(cost / 8.0)


def scalar_residuals(pose, observed):
    # _residuals on Python floats: the cost, the residuals (u0, v0, ..., u3,
    # v3) as an (8,) array, the geometry as (4, 6) and the rows as returned
    cost, rows = _residuals(pose.rotation.ravel().tolist(), pose.translation.tolist(),
                            SIDE / 2.0, observed.tolist(), K)
    table = np.array(rows)
    return cost, table[:, 6:].ravel(), table[:, :6], rows


def upper(a):
    # the upper triangle of a 6x6 matrix, row by row
    return a[np.triu_indices(6)]


class TestJacobian:
    @staticmethod
    def poses():
        rng = np.random.default_rng(8)
        corners3d = marker_corners_3d(SIDE)
        for i in range(50):
            pose = random_pose(rng)
            obs = synthesize_observation(pose, SIDE, K, pixel_noise_sigma=0.5, seed=i)
            yield pose, corners3d, obs.corners

    def test_matches_per_corner_reference(self):
        # the normal equations equal JᵀJ and Jᵀr of the per-corner Jacobian,
        # each entry to 1e-12 of the scale of the terms summed into it
        for pose, corners3d, observed in self.poses():
            res_ref, rotated, pts = reference_residuals(
                pose.rotation, pose.translation, corners3d, observed, K)
            cost, res, geometry, rows = scalar_residuals(pose, observed)
            assert np.abs(res - res_ref).max() <= 1e-12 * np.abs(observed).max()
            assert np.abs(geometry - np.hstack([rotated, pts])).max() <= 1e-15
            # the cost adds the squares one by one in residual order
            total = 0.0
            for e in res.tolist():
                total += e * e
            assert cost == total
            jac = reference_jacobian(rotated, pts, K)
            h, g = _normal_equations(rows, K)
            h_ref = jac.T @ jac
            h_scale = np.sqrt(np.outer(np.diag(h_ref), np.diag(h_ref)))
            assert np.all(np.abs(np.array(h) - upper(h_ref)) <= 1e-12 * upper(h_scale))
            g_scale = np.linalg.norm(jac, axis=0) * np.linalg.norm(res_ref)
            assert np.all(np.abs(np.array(g) - jac.T @ res_ref) <= 1e-12 * g_scale)

    def test_matches_central_differences(self):
        eps = 1e-6
        for pose, corners3d, observed in self.poses():
            r, t = pose.rotation, pose.translation
            _, _, geometry, _ = scalar_residuals(pose, observed)
            got = reference_jacobian(geometry[:, :3], geometry[:, 3:], K)
            numeric = np.empty((8, 6))
            for j in range(6):
                sides = []
                for s in (eps, -eps):
                    d = np.zeros(6)
                    d[j] = s
                    rs = rotation_from_axis_angle(d[:3], eps) @ r
                    shifted = RigidTransform(rs, t + d[3:])
                    sides.append(scalar_residuals(shifted, observed)[1])
                numeric[:, j] = (sides[0] - sides[1]) / (2 * eps)
            assert np.all(np.abs(got - numeric) <= 1e-5 * np.abs(numeric).max(axis=0))


class TestDampedStep:
    @staticmethod
    def spd(rng, cond):
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        a = (q * np.geomspace(1.0, 1.0 / cond, 6)) @ q.T * rng.uniform(1e-2, 1e6)
        return (a + a.T) / 2.0

    def test_matches_numpy_solve(self):
        # two backward-stable solves differ by up to about cond * 1e-16
        # relative (numpy's own Cholesky differs from its LU solve by 5e-7
        # at cond 1e10), so the 1e-8 agreement holds up to cond 1e8; the
        # relative residual is checked at every condition number
        rng = np.random.default_rng(12)
        for cond in (1e0, 1e2, 1e4, 1e6, 1e8, 1e10):
            for _ in range(20):
                a, g = self.spd(rng, cond), rng.normal(size=6)
                lam = float(rng.choice([0.0, 1e-3 * a[0, 0]]))
                damped = a + lam * np.eye(6)
                got = np.array(_damped_step(tuple(upper(a).tolist()), tuple(g.tolist()), lam))
                residual = np.linalg.norm(damped @ got + g)
                assert residual <= 1e-14 * np.linalg.norm(damped, 2) * np.linalg.norm(got)
                if cond <= 1e8:
                    ref = np.linalg.solve(damped, -g)
                    assert np.linalg.norm(got - ref) <= 1e-8 * np.linalg.norm(ref)

    @pytest.mark.parametrize("a", [
        np.diag([1.0, 2.0, 3.0, -1.0, 5.0, 6.0]),
        np.zeros((6, 6)),
        np.ones((6, 6)),
        np.full((6, 6), np.nan),
    ], ids=["indefinite", "zero", "rank-one", "nan"])
    def test_not_positive_definite_raises(self, a):
        with pytest.raises(np.linalg.LinAlgError):
            _damped_step(tuple(upper(a).tolist()), (1.0,) * 6, 0.0)

    def test_failed_solve_raises_damping(self, monkeypatch):
        # a step the solve rejects doubles the damping and refinement goes on
        from handguard import marker_pose

        lams = []

        def fails_once(h, g, lam):
            lams.append(lam)
            if len(lams) == 1:
                raise np.linalg.LinAlgError("rejected")
            return _damped_step(h, g, lam)

        truth = random_pose(np.random.default_rng(4))
        obs = synthesize_observation(truth, SIDE, K, pixel_noise_sigma=0.5, seed=4)
        observed = obs.corners.tolist()
        r, t = entries(truth)
        start = *_residuals(r, t, SIDE / 2.0, observed, K), SIDE / 2.0, observed, K
        *_, rms = _refine(r, t, *start)
        monkeypatch.setattr(marker_pose, "_damped_step", fails_once)
        *_, rms_after_failure = _refine(r, t, *start)
        assert lams[:2] == [GN_DAMPING_INIT, GN_DAMPING_INIT * GN_DAMPING_UP]
        assert abs(rms_after_failure - rms) <= 1e-9


class TestScalarRefine:
    def test_matches_numpy_reference(self):
        # _refine agrees with the numpy reference from both IPPE starts, or
        # raises the same exception
        truths = TestIppeCandidates.truths()
        frames = [MarkerObservation(0, EDGE_ON_CORNERS)] + [
            synthesize_observation(truth, SIDE, K, pixel_noise_sigma=sigma, seed=i)
            for sigma in (0.5, 2.0) for i, truth in enumerate(truths)]
        fitted = 0
        for obs in frames:
            for start in ippe_candidates(obs)[1]:
                outcomes = []
                for refine in (refine_pose, reference_refine):
                    try:
                        outcomes.append(refine(start, SIDE, obs.corners, K))
                    except PoseError as exc:
                        outcomes.append(type(exc))
                (got, ref) = outcomes
                if isinstance(ref, type):
                    assert got is ref
                    continue
                fitted += 1
                assert abs(got[1] - ref[1]) <= 1e-9
                assert np.abs(got[0].rotation - ref[0].rotation).max() <= 1e-6
                assert np.abs(got[0].translation - ref[0].translation).max() <= 1e-7
        assert fitted > len(frames)

    def test_estimate_pose_matches_numpy_pipeline(self):
        # corner pixels to kept fit against the numpy front end and
        # reference_refine: the same bounds as the refinement alone, or the
        # same exception class
        outcomes = set()
        for sigma in (0.5, 2.0):
            for i, truth in enumerate(TestIppeCandidates.truths()):
                obs = synthesize_observation(truth, SIDE, K, pixel_noise_sigma=sigma, seed=i)
                try:
                    ref_pose, ref_rms = reference_estimate_pose(obs)
                except PoseError as exc:
                    with pytest.raises(type(exc)):
                        estimate_pose(obs, SIDE, K)
                    outcomes.add(type(exc))
                    continue
                est = estimate_pose(obs, SIDE, K)
                assert abs(est.rms_reprojection_error - ref_rms) <= 1e-9
                assert np.abs(est.pose.rotation - ref_pose.rotation).max() <= 1e-6
                assert np.abs(est.pose.translation - ref_pose.translation).max() <= 1e-7
                outcomes.add("fitted")
        assert outcomes == {"fitted", NoConvergence}

    def test_start_behind_camera_raises(self):
        start = RigidTransform(np.eye(3), [0.0, 0.0, -1.0])
        observed = project(RigidTransform(np.eye(3), [0.0, 0.0, 1.0]), SIDE, K)
        for refine in (refine_pose, reference_refine):
            with pytest.raises(NonPositiveDepth):
                refine(start, SIDE, observed, K)


def pose_frames(seed, n, sigma):
    """Corner pixels of n random poses, depth 0.3-2 m and tilt up to 1.2 rad,
    with sigma px of noise; poses with a corner behind the camera are skipped."""
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n):
        r = rotation_from_axis_angle(rng.normal(size=3), rng.uniform(-1.2, 1.2))
        t = [rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15), rng.uniform(0.3, 2.0)]
        try:
            corners = project(RigidTransform(r, t), SIDE, K)
        except NonPositiveDepth:
            continue
        frames.append((corners + rng.normal(0.0, sigma, size=corners.shape)).tolist())
    return frames


def per_frame(frames, pixel_sigma=0.0):
    """repr of fit_corners on each frame alone, or of the PoseError it raises."""
    out = []
    for pixels in frames:
        try:
            out.append(repr(fit_corners(pixels, SIDE, K, pixel_sigma)))
        except PoseError as exc:
            out.append(repr(exc))
    return out


def together(frames, pixel_sigma=0.0):
    return [repr(fit) for fit in fit_corners_many(frames, SIDE, K, pixel_sigma)]


def outcome_kinds(reprs):
    return {"fit" if text.startswith("(") else text.split("(")[0] for text in reprs}


# a marker seen nearly edge-on, with 0.5 px noise: its quad folds, and the
# least-squares translation of one IPPE start puts it behind the camera
MIRRORED_CORNERS = [
    [519.7211372172835, 414.9055105940249], [541.29204155723, 411.70620662167926],
    [540.5179141736531, 412.6642370380099], [516.4402255649517, 414.6882912931304],
]


class TestLockstep:
    # fit_corners_many must give every frame the bits of fit_corners on that
    # frame alone, which refines its two starts on the scalar _refine

    @pytest.mark.parametrize("seed, sigma", [(40, 0.0), (41, 0.5), (42, 2.0), (43, 5.0)])
    def test_matches_per_frame_fit_by_repr(self, seed, sigma):
        # 750 frames per noise level, 3,000 in all, under the noise-scaled
        # gate and under the 1 px gate, which most frames fail at 2 and 5 px
        frames = pose_frames(seed, 750, sigma)
        assert len(frames) == 750
        kinds = set()
        for pixel_sigma in (sigma, 0.0):
            expected = per_frame(frames, pixel_sigma)
            assert together(frames, pixel_sigma) == expected
            kinds |= outcome_kinds(expected)
        assert kinds == ({"fit", "NoConvergence"} if sigma >= 2.0 else {"fit"})

    def test_starts_and_steps_behind_the_camera(self, monkeypatch):
        # squares jittered by 120 px: some IPPE starts have a corner behind
        # the camera, and some lanes step behind it while refining, a few
        # to a lower cost; degenerate rows fail before they have lanes
        rng = np.random.default_rng(0)
        square = np.array([[600.0, 300.0], [680.0, 300.0], [680.0, 380.0], [600.0, 380.0]])
        frames = (square + rng.normal(0.0, 120.0, size=(400, 4, 2))).tolist()
        frames[7:7] = [BOWTIE_CORNERS, [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]]
        flagged = []
        lanes = marker_pose._residual_lanes

        def counted(*args):
            cost, rows, behind = lanes(*args)
            flagged.append(int(behind.sum()))
            return cost, rows, behind

        monkeypatch.setattr(marker_pose, "_residual_lanes", counted)
        expected = per_frame(frames)
        assert together(frames) == expected
        assert outcome_kinds(expected) == {"fit", "NoConvergence", "DegenerateCorners"}
        assert flagged[0] > 0 and sum(flagged[1:]) > 0

    def test_array_starts_take_every_branch(self, monkeypatch):
        # noisy frames and four that take the array starts' branches: a
        # square centred on the principal point (p = q = 0, so the view-ray
        # rotation is the identity), a start mirrored through the camera
        # centre (tz < 0), and a degenerate and a bow-tie quad, which fail
        # their checks and are named by the first check each fails
        centred = project(RigidTransform(np.eye(3), [0.0, 0.0, 1.0]), SIDE, K).tolist()
        degenerate = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
        frames = pose_frames(46, LOCKSTEP_MIN_LANES // 2 - 4, 0.5)
        frames[3:3] = [centred, MIRRORED_CORNERS, degenerate, BOWTIE_CORNERS]
        assert len(frames) == LOCKSTEP_MIN_LANES // 2
        rotated, orthonormalized_in = [], []
        rotate, gram_schmidt = marker_pose._rotate_lanes, marker_pose._gram_schmidt

        def rotate_lanes(w0, w1, w2, r, solved):
            rotated.append((w0, w1, rotate(w0, w1, w2, r, solved)))
            return rotated[-1][2]

        monkeypatch.setattr(marker_pose, "_rotate_lanes", rotate_lanes)
        monkeypatch.setattr(marker_pose, "_gram_schmidt",
                            lambda r, ops: orthonormalized_in.append(r) or gram_schmidt(r, ops))
        r, t, messages = marker_pose._starts_lockstep(np.array(frames).transpose(1, 2, 0),
                                                      SIDE / 2.0, K)
        monkeypatch.undo()
        # the pass's first rotation is the view ray's, then one per candidate
        (w0, w1, view_ray), *candidates = rotated
        assert len(candidates) == len(orthonormalized_in) == 2
        assert np.flatnonzero((w0 == 0.0) & (w1 == 0.0)).tolist() == [3]
        assert view_ray[:, 3].tolist() == np.eye(3).ravel().tolist()
        # r00 of each (candidate, frame) before and after the tz < 0 branch
        before = np.array([turned[0] for _, _, turned in candidates])
        after = np.array([entries[0] for entries in orthonormalized_in])
        assert np.flatnonzero(((after == -before) & (before != 0.0)).any(axis=0)).tolist() == [4]
        assert [frame for frame, message in enumerate(messages) if message] == [5, 6]
        # frame by frame, the arrays hold the floats of _starts on that frame
        # alone, and a failed frame's message is that of its PoseError
        for frame, pixels in enumerate(frames):
            if messages[frame] is not None:
                with pytest.raises(PoseError) as info:
                    marker_pose._starts(pixels, SIDE / 2.0, K)
                assert str(info.value) == messages[frame]
                continue
            starts = tuple((tuple(r[:, c, frame].tolist()), tuple(t[:, c, frame].tolist()))
                           for c in range(2))
            assert repr(starts) == repr(marker_pose._starts(pixels, SIDE / 2.0, K))
        for pixel_sigma in (0.5, 0.0):
            expected = per_frame(frames, pixel_sigma)
            assert together(frames, pixel_sigma) == expected
        assert expected[3].startswith("(") and expected[5:7] == [
            repr(DegenerateCorners("corners are collinear or enclose no area")),
            repr(DegenerateCorners("corners map the marker centre to infinity"))]

    def test_array_and_scalar_checks_reject_the_same_frames(self):
        # one rule for a bad frame: random quads at corner scales of 1e-12
        # to 1e308 px, about the origin and about the principal point; from
        # about 1e17 px IPPE's determinant of B can round to 0, and from
        # about 1e150 px its entries can overflow
        rng = np.random.default_rng(47)
        n = 6000
        scale = 10.0 ** rng.uniform(-12.0, 308.0, size=(n, 1, 1))
        centre = np.where(rng.random((n, 1, 1)) < 0.5, 0.0, np.array([K.cx, K.cy]))
        frames = (centre + rng.uniform(-1.0, 1.0, size=(n, 4, 2)) * scale).tolist()
        _, _, messages = marker_pose._starts_lockstep(np.array(frames).transpose(1, 2, 0),
                                                      SIDE / 2.0, K)
        raised = []
        for pixels in frames:
            try:
                marker_pose._starts(pixels, SIDE / 2.0, K)
                raised.append(None)
            except PoseError as exc:
                raised.append(str(exc))
        assert messages == raised
        # neither driver raises anything but a PoseError, and they agree
        expected = per_frame(frames)
        assert together(frames) == expected
        assert outcome_kinds(expected) == {"fit", "NoConvergence", "DegenerateCorners"}
        assert {repr(DegenerateCorners("corners give no finite pose candidate")),
                repr(DegenerateCorners("corners are collinear or enclose no area"))} <= set(expected)

    @pytest.mark.parametrize("fx, fy, pixels", [
        # the translation overflows, and the rotation is not finite either
        (1.7765564451988404e-112, 8.342974533419404e-111, [
            [1.173754738524599e+43, 1.179381837965411e+43],
            [5.793346352053403e+42, 1.6696365523083102e+43],
            [1.156900661522773e+43, -1.4850879728956991e+43],
            [1.8583978933323616e+43, -1.7432452714848305e+43]]),
        # A's largest singular value underflows to 0
        (3.340849653236704e+170, 1.636782675674398e+171, [
            [-1565213269.5364432, 1051779483.4719839], [1871305093.8686032, 1048508375.0878563],
            [1340024936.2422695, -1246519896.2195518], [1291337741.0309482, -805581011.8928378]]),
        # the rotation entries are not finite
        (3.340849653236704e+170, 1.636782675674398e+171, [
            [2691311197.3355536, -1408381512.9212022], [1295199158.4331613, -1729357589.1258986],
            [2807333309.4152403, -423301190.538408], [1774457340.8892753, 1915913340.6603436]]),
        # the squared offsets from the corners' mean underflow: spread is 0
        (1e158, 1e158, [[0.0, 3e-4], [3e-4, 3e-4], [3e-4, 0.0], [0.0, 0.0]]),
    ], ids=["translation", "gamma", "rotation", "spread"])
    def test_each_ippe_check_is_reached(self, fx, fy, pixels):
        # focal lengths far outside any camera reach the IPPE checks that
        # huge corners reach with real intrinsics, and the gamma and spread
        # checks, which they do not
        k = CameraIntrinsics(fx=fx, fy=fy, cx=0.0, cy=0.0)
        _, _, messages = marker_pose._starts_lockstep(np.array([pixels]).transpose(1, 2, 0),
                                                      SIDE / 2.0, k)
        assert messages == ["corners give no finite pose candidate"]
        error = repr(DegenerateCorners(messages[0]))
        with pytest.raises(DegenerateCorners) as info:
            fit_corners(pixels, SIDE, k, 0.0)
        assert repr(info.value) == error
        assert [repr(fit) for fit in fit_corners_many([pixels], SIDE, k, 0.0)] == [error]

    @pytest.mark.parametrize("n_rows", [0, 1, LOCKSTEP_MIN_LANES // 2 - 1,
                                        LOCKSTEP_MIN_LANES // 2, LOCKSTEP_MIN_LANES // 2 + 1])
    def test_lane_counts_around_the_crossover(self, monkeypatch, n_rows):
        # each frame has two lanes, and the arrays are built at every file
        # size; below LOCKSTEP_MIN_LANES lanes each goes straight to _refine
        calls = []
        lockstep = marker_pose._refine_lockstep
        monkeypatch.setattr(marker_pose, "_refine_lockstep",
                            lambda r, *args: calls.append(r.shape) or lockstep(r, *args))
        frames = pose_frames(44, n_rows, 0.5)
        assert len(frames) == n_rows
        assert together(frames, 0.5) == per_frame(frames, 0.5)
        assert calls == [(9, 2 * n_rows)]

    @pytest.mark.parametrize("trap", ["always", "after_accept", "below_max"])
    def test_failed_pivots_and_spent_budget(self, monkeypatch, trap):
        # the last pivot forced to fail: "always" fails every solve, so every
        # lane spends its 50 iterations in lockstep; "after_accept" fails
        # each solve at GN_DAMPING_INIT * GN_DAMPING_DOWN, so lanes alternate
        # an accepted step and a failed solve; "below_max" fails each solve
        # until the damping is past GN_DAMPING_MAX, which ends refinement
        # only after a rejected step
        damped = marker_pose._damped_step
        after_accept = GN_DAMPING_INIT * GN_DAMPING_DOWN

        def failing(h, g, lam, *inverse_root):
            fail = {"always": True, "after_accept": lam == after_accept,
                    "below_max": lam < 2.0 * GN_DAMPING_MAX}[trap]
            if np.ndim(lam):
                return damped((*h[:20], np.where(fail, -math.inf, h[20])), g, lam, *inverse_root)
            return damped((*h[:20], -math.inf if fail else h[20]), g, lam)

        monkeypatch.setattr(marker_pose, "_damped_step", failing)
        frames = pose_frames(45, 100, 0.5)
        expected = per_frame(frames, 0.5)
        assert together(frames, 0.5) == expected
        assert "fit" in outcome_kinds(expected)


def refine_then(monkeypatch, change):
    """Patch _refine so that change(r, t) edits each refined (r, t); returns
    the list of the edited fits, in call order."""
    refine, refined = marker_pose._refine, []

    def changed(*args, **kwargs):
        r, t, rms = refine(*args, **kwargs)
        refined.append((*change(r, t), rms))
        return refined[-1]

    monkeypatch.setattr(marker_pose, "_refine", changed)
    return refined


class TestKeptFit:
    # _kept_fit finishes the kept fit once for both drivers: its rotation
    # through Gram-Schmidt, its translation required finite

    def test_kept_rotation_is_orthonormalized(self, monkeypatch):
        # a refined rotation 1e-7 off orthonormal comes back as exactly its
        # Gram-Schmidt; a file of fewer than 16 frames goes through _refine
        refined = refine_then(monkeypatch, lambda r, t: (tuple(x * (1 + 1e-7) for x in r), t))
        frames = pose_frames(48, 5, 0.5)
        fits = [fit_corners(pixels, SIDE, K, 0.5) for pixels in frames]
        fits_many = fit_corners_many(frames, SIDE, K, 0.5)
        assert len(refined) == 4 * len(frames)
        for lanes in (refined[:2 * len(frames)], refined[2 * len(frames):]):
            for frame, fit in enumerate(fits):
                best_r, best_t, best_rms = min(lanes[2 * frame:2 * frame + 2],
                                               key=lambda lane: lane[2])
                assert fit[:3] == (orthonormalized(best_r), best_t, best_rms)
        assert repr(fits_many) == repr(fits)

    @pytest.mark.parametrize("part", ["translation", "rotation"])
    def test_kept_fit_that_is_not_finite_is_degenerate(self, monkeypatch, part):
        def change(r, t):
            if part == "translation":
                return r, (t[0], t[1], math.inf)
            return (math.nan, *r[1:]), t

        refine_then(monkeypatch, change)
        frames = pose_frames(49, 3, 0.5)
        error = repr(DegenerateCorners("corners give no finite pose candidate"))
        for pixels in frames:
            with pytest.raises(DegenerateCorners) as info:
                fit_corners(pixels, SIDE, K, 0.5)
            assert repr(info.value) == error
        assert together(frames, 0.5) == [error] * len(frames)
