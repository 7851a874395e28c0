import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from handguard.geometry import (
    ORTHONORMALITY_TOL,
    HandOffset,
    InvalidRotation,
    Point3,
    RigidTransform,
    compose,
    hand_in_robot_base,
    invert,
    _gram_schmidt,
    orthonormalized,
    rotation_from_axis_angle,
)

X_AXIS, Y_AXIS, Z_AXIS = np.eye(3)


def random_transform(rng):
    r = rotation_from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
    return RigidTransform(r, rng.uniform(-2, 2, size=3))


def reference_orthonormalize(rotation):
    """Reference for `from_orthonormalized`: the numpy column-by-column
    Gram-Schmidt with a det < 0 flip of column 2 that the closed form
    replaced, followed by the constructor's numpy check of its result."""
    r = np.array(rotation, dtype=float)
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
    if not reference_accepts(q):
        raise InvalidRotation("rotation is not orthonormal")
    return q


def reference_error(r):
    """Orthonormality error and determinant the way the numpy check took them."""
    return np.abs(r.T @ r - np.eye(3)).max(), float(np.linalg.det(r))


def reference_accepts(r):
    err, det = reference_error(r)
    return err <= ORTHONORMALITY_TOL and abs(det - 1.0) <= ORTHONORMALITY_TOL


def assert_boundary_agrees(r):
    """`orthonormalized` on the nine entries gives `from_orthonormalized`'s
    rotation bit for bit, or raises the same InvalidRotation message."""
    def outcome(build):
        try:
            return [x.hex() for x in build()]
        except InvalidRotation as exc:
            return str(exc)

    r = np.asarray(r, dtype=float)
    via_transform = outcome(
        lambda: RigidTransform.from_orthonormalized(r, np.zeros(3)).rotation.ravel().tolist())
    assert outcome(lambda: orthonormalized(r.ravel().tolist())) == via_transform


def accepts(r):
    try:
        RigidTransform(r, np.zeros(3))
    except InvalidRotation:
        return False
    return True


def symmetric(entries):
    a, b, c, d, e, f = entries
    return np.array([[a, b, c], [b, d, e], [c, e, f]])


def traceless(m):
    # det(I + eps * m) = 1 + eps * trace(m) + O(eps**2)
    return m - np.trace(m) / 3.0 * np.eye(3)


def unit(m):
    return m / np.abs(m).max()


axes = st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3)
angles = st.floats(-np.pi, np.pi)
perturbations = st.lists(st.floats(-1e-3, 1e-3), min_size=9, max_size=9)
shapes = st.lists(st.floats(-1, 1), min_size=6, max_size=6).map(symmetric)
# symmetric directions with max |entry| = 1: r @ (I + eps * bump) moves
# r.T @ r off the identity by about 2 * eps * bump
bumps = shapes.filter(lambda m: np.abs(m).max() >= 0.1).map(unit)
traceless_bumps = shapes.map(traceless).filter(lambda m: np.abs(m).max() >= 0.1).map(unit)


def homogeneous(t):
    """Independent 4x4 oracle built without the library's compose/invert."""
    m = np.eye(4)
    m[:3, :3] = t.rotation
    m[:3, 3] = t.translation
    return m


class TestRigidTransform:
    def test_identity_default(self):
        t = RigidTransform()
        assert np.allclose(t.rotation, np.eye(3))
        assert np.allclose(t.translation, 0)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidRotation):
            RigidTransform(np.eye(3) * 1.01, np.zeros(3))

    def test_rejects_reflection(self):
        m = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidRotation):
            RigidTransform(m, np.zeros(3))

    def test_explicit_orthonormalization(self):
        noisy = rotation_from_axis_angle(Z_AXIS, 0.3) + 1e-6 * np.ones((3, 3))
        with pytest.raises(InvalidRotation):
            RigidTransform(noisy, np.zeros(3))
        t = RigidTransform.from_orthonormalized(noisy, np.zeros(3))
        assert np.abs(t.rotation.T @ t.rotation - np.eye(3)).max() < 1e-12

    def test_json_round_trip(self):
        t = RigidTransform(rotation_from_axis_angle(X_AXIS, 0.4), [1.0, -2.0, 0.5])
        back = RigidTransform.from_json_dict(json.loads(json.dumps(t.to_json_dict())))
        assert np.allclose(back.rotation, t.rotation)
        assert np.allclose(back.translation, t.translation)


class TestCompose:
    def test_identity_neutral(self):
        rng = np.random.default_rng(0)
        t = random_transform(rng)
        i = RigidTransform.identity()
        for result in (compose(i, t), compose(t, i)):
            assert np.allclose(result.rotation, t.rotation, atol=1e-12)
            assert np.allclose(result.translation, t.translation, atol=1e-12)

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(1)
        t = random_transform(rng)
        r = compose(t, invert(t))
        assert np.abs(r.rotation - np.eye(3)).max() < 1e-9
        assert np.abs(r.translation).max() < 1e-9

    def test_matches_homogeneous_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = random_transform(rng), random_transform(rng)
            expected = homogeneous(a) @ homogeneous(b)
            got = compose(a, b)
            assert np.abs(got.as_matrix() - expected).max() < 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(4)
        a, b, c = (random_transform(rng) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.abs(left.as_matrix() - right.as_matrix()).max() < 1e-9


class TestInvert:
    def test_identity(self):
        i = invert(RigidTransform.identity())
        assert np.allclose(i.as_matrix(), np.eye(4))

    def test_pure_translation(self):
        t = RigidTransform(np.eye(3), [1.0, 2.0, 3.0])
        assert np.allclose(invert(t).translation, [-1.0, -2.0, -3.0])

    def test_matches_matrix_inverse_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = random_transform(rng)
            expected = np.linalg.inv(homogeneous(t))
            assert np.abs(invert(t).as_matrix() - expected).max() < 1e-12


class TestHandInRobotBase:
    def test_identity_base(self):
        rng = np.random.default_rng(6)
        marker = random_transform(rng)
        out = hand_in_robot_base(marker, RigidTransform.identity())
        assert np.abs(out.as_matrix() - marker.as_matrix()).max() < 1e-12

    def test_coincident_frames(self):
        rng = np.random.default_rng(7)
        t = random_transform(rng)
        out = hand_in_robot_base(t, t)
        assert np.abs(out.as_matrix() - np.eye(4)).max() < 1e-9

    def test_matches_oracle_product(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b = random_transform(rng), random_transform(rng)
            expected = np.linalg.inv(homogeneous(b)) @ homogeneous(a)
            assert np.abs(hand_in_robot_base(a, b).as_matrix() - expected).max() < 1e-12

    def test_recovers_marker_in_camera(self):
        # composing the result back with the base frame recovers the input
        rng = np.random.default_rng(9)
        a, b = random_transform(rng), random_transform(rng)
        recovered = compose(b, hand_in_robot_base(a, b))
        assert np.abs(recovered.as_matrix() - a.as_matrix()).max() < 1e-9


class TestClosedFormAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(axis=axes, angle=angles, noise=perturbations, reflect=st.booleans())
    def test_from_orthonormalized_matches_reference(self, axis, angle, noise, reflect):
        r = rotation_from_axis_angle(axis, angle) + np.reshape(noise, (3, 3))
        if reflect:
            r = r @ np.diag([1.0, 1.0, -1.0])  # det < 0: column 2 is flipped
        got = RigidTransform.from_orthonormalized(r, np.zeros(3)).rotation
        assert np.abs(got - reference_orthonormalize(r)).max() <= 1e-14
        assert_boundary_agrees(r)

    @settings(max_examples=300, deadline=None)
    @given(axis=axes, angle=angles, bump=bumps, k=st.floats(0.25, 4.0),
           reflect=st.booleans())
    def test_check_decides_like_reference(self, axis, angle, bump, k, reflect):
        # r.T @ r - I is about k * TOL * bump, so k < 1 passes and k > 1 fails
        # unless the determinant is off by more
        r = rotation_from_axis_angle(axis, angle) @ (
            np.eye(3) + 0.5 * k * ORTHONORMALITY_TOL * bump
        )
        if reflect:
            r = -r
        err, det = reference_error(r)
        for margin in (err - ORTHONORMALITY_TOL, abs(det - 1.0) - ORTHONORMALITY_TOL):
            # rounding may tip a matrix sitting on the boundary either way
            assume(abs(margin) > 1e-5 * ORTHONORMALITY_TOL)
        assert accepts(r) == reference_accepts(r)

    def test_determinant_binds_inside_orthonormality_tol(self):
        # a uniform 0.4e-9 stretch: r.T @ r is 0.8e-9 off, det 1.2e-9 off
        r = rotation_from_axis_angle(Y_AXIS, 0.7) * (1.0 + 0.4 * ORTHONORMALITY_TOL)
        assert not reference_accepts(r)
        with pytest.raises(InvalidRotation, match="determinant"):
            RigidTransform(r, np.zeros(3))

    @settings(max_examples=100, deadline=None)
    @given(axis_a=axes, angle_a=angles, bump_a=traceless_bumps,
           axis_b=axes, angle_b=angles, bump_b=traceless_bumps)
    def test_compose_at_tolerance_edge(self, axis_a, angle_a, bump_a,
                                       axis_b, angle_b, bump_b):
        def edge(axis, angle, bump):
            # about 0.9e-9 from orthonormal: just inside the constructor's check
            return rotation_from_axis_angle(axis, angle) @ (
                np.eye(3) + 0.45 * ORTHONORMALITY_TOL * bump
            )

        a = RigidTransform(edge(axis_a, angle_a, bump_a), [0.1, 0.2, 0.3])
        b = RigidTransform(edge(axis_b, angle_b, bump_b), [-0.3, 0.0, 0.5])
        out = compose(a, b)
        assert accepts(out.rotation) and reference_accepts(out.rotation)
        assert np.abs(out.rotation - a.rotation @ b.rotation).max() < 1e-8

    @pytest.mark.parametrize("across", [[3.0, 0.0, -1.0], [-2.0, 1.0, 0.0], [1.0, 1.0, -1.0]])
    def test_nearly_dependent_columns_raise_or_give_a_rotation(self, across):
        # column 1 is column 0 plus s across it; for small s cancellation
        # leaves Gram-Schmidt's column 1 off-orthogonal, and whether that
        # crosses the tolerance depends on rounding, for the reference too
        c0 = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
        outcomes = set()
        for scale in np.logspace(-12, -5, 29):
            r = np.column_stack([c0, c0 + scale * np.array(across), np.cross(c0, across)])
            assert_boundary_agrees(r)
            try:
                got = RigidTransform.from_orthonormalized(r, np.zeros(3))
            except InvalidRotation:
                outcomes.add("raised")
                continue
            outcomes.add("built")
            assert reference_accepts(got.rotation)
        assert outcomes == {"raised", "built"}

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_dependent_columns_rejected(self, column):
        r = np.eye(3)
        r[:, column] = r[:, (column + 1) % 3] * 2.0
        with pytest.raises(InvalidRotation, match="dependent"):
            RigidTransform.from_orthonormalized(r, np.zeros(3))
        assert_boundary_agrees(r)

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidRotation, match="3x3"):
            RigidTransform.from_orthonormalized(np.eye(2), np.zeros(3))
        with pytest.raises(InvalidRotation, match="3x3"):
            RigidTransform(np.eye(4)[:3], np.zeros(3))


class TestNonFinite:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_constructor_rejects(self, bad):
        r = np.eye(3)
        r[1, 2] = bad
        with pytest.raises(InvalidRotation, match="finite"):
            RigidTransform(r, np.zeros(3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_from_orthonormalized_rejects(self, bad):
        r = rotation_from_axis_angle(Z_AXIS, 0.3)
        r[2, 0] = bad
        with pytest.raises(InvalidRotation, match="finite"):
            RigidTransform.from_orthonormalized(r, np.zeros(3))
        assert_boundary_agrees(r)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_from_json_dict_rejects(self, bad):
        r = rotation_from_axis_angle(X_AXIS, 0.4)
        doc = RigidTransform(r, [1.0, -2.0, 0.5]).to_json_dict()
        doc["r"][4] = bad
        with pytest.raises(InvalidRotation, match="finite"):
            RigidTransform.from_json_dict(doc)

    def test_translation_still_checked(self):
        with pytest.raises(ValueError, match="translation"):
            RigidTransform(np.eye(3), [0.0, float("nan"), 0.0])
        with pytest.raises(ValueError, match="translation"):
            RigidTransform.from_orthonormalized(np.eye(3), [float("inf"), 0.0, 0.0])


def gram_schmidt_lanes(rows):
    """_gram_schmidt on float64 lanes, one per row of nine entries: the
    entries and, per lane, the message of the first check it fails or None."""
    checks = []
    lanes = SimpleNamespace(
        sqrt=np.sqrt, nonfinite=lambda entries: ~np.isfinite(entries).all(axis=0),
        reject=lambda bad, message: checks.append((bad, message)))
    with np.errstate(all="ignore"):
        entries = _gram_schmidt(tuple(np.array(rows, dtype=float).T), lanes)
    messages = [None] * len(rows)
    for bad, message in reversed(checks):
        for lane in np.flatnonzero(bad).tolist():
            messages[lane] = message
    return np.array(entries).T.tolist(), messages


def near_rotations(rng):
    """Rows of nine entries: seeded near-rotations, near-dependent columns,
    entries near overflow and subnormal, and nan and inf entries."""
    rows = []
    for _ in range(200):
        r = rotation_from_axis_angle(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
        rows.append((r + rng.normal(0.0, 10.0 ** rng.uniform(-16, -2), size=(3, 3))).ravel())
        c0, across = rng.normal(size=3), rng.normal(size=3)
        c1 = c0 + 10.0 ** rng.uniform(-17, -4) * across
        rows.append(np.column_stack([c0, c1, np.cross(c0, across)]).ravel())
        rows.append(r.ravel() * 10.0 ** rng.uniform(150, 156))
        rows.append(r.ravel() * 10.0 ** rng.uniform(-320, -300))
        rows.append((np.eye(3)[rng.permutation(3)] + 1e-310 * rng.normal(size=(3, 3))).ravel())
        bad = r.ravel().copy()
        bad[rng.integers(9)] = rng.choice([math.nan, math.inf, -math.inf])
        rows.append(bad)
    return [tuple(row.tolist()) for row in rows]


class TestGramSchmidtLanes:
    def test_lanes_give_the_bits_and_errors_of_orthonormalized(self):
        # the pose estimator's lanes run this body on arrays: each lane
        # gets the bits of orthonormalized on its floats, and is rejected,
        # by its first failed check, exactly where orthonormalized raises
        rows = near_rotations(np.random.default_rng(26))
        entries, messages = gram_schmidt_lanes(rows)
        outcomes = set()
        for row, lane_entries, message in zip(rows, entries, messages):
            try:
                expected = orthonormalized(row)
            except InvalidRotation as exc:
                assert message == str(exc)
                outcomes.add(message)
                continue
            assert message is None
            assert repr(tuple(lane_entries)) == repr(expected)
            outcomes.add(None)
        assert outcomes == {None, "rotation entries must be finite",
                            "rotation columns are linearly dependent",
                            "rotation columns are nearly dependent"}


def reference_axis_angle(axis, angle):
    """Reference for `rotation_from_axis_angle`: the numpy Rodrigues form
    I + sin(a) K + (1 - cos(a)) K @ K that the closed form replaced."""
    a = np.asarray(axis, dtype=float).reshape(3)
    n = np.linalg.norm(a)
    if n < 1e-15:
        return np.eye(3)
    a = a / n
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


class TestRotationFromAxisAngle:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            direction = rng.normal(size=3)
            axis = direction / np.linalg.norm(direction) * 10.0 ** rng.uniform(-6, 2)
            angle = rng.uniform(-4, 4)
            got = rotation_from_axis_angle(axis, angle)
            assert np.abs(got - reference_axis_angle(axis, angle)).max() <= 1e-14
            assert accepts(got)

    @pytest.mark.parametrize("axis", [[0.0, 0.0, 0.0], [1e-16, 0.0, 0.0], [3e-16, -4e-16, 5e-17]])
    def test_tiny_axis_gives_identity(self, axis):
        assert np.array_equal(rotation_from_axis_angle(axis, 1.3), np.eye(3))


class TestValidation:
    def test_point3_rejects_nan(self):
        with pytest.raises(ValueError):
            Point3(float("nan"), 0, 0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_point3_rejects_non_finite_coordinates(self, axis, value):
        coords = [0.1, -0.2, 0.3]
        coords[axis] = value
        with pytest.raises(ValueError, match="finite"):
            Point3(*coords)
        with pytest.raises(ValueError, match="finite"):
            Point3(0.1, -0.2, 0.3)._replace(**{"xyz"[axis]: value})

    def test_point3_is_immutable(self):
        p = Point3(0.1, -0.2, 0.3)
        for name in ("x", "y", "z", "w"):
            with pytest.raises(AttributeError):
                setattr(p, name, 1.0)
        assert (p.x, p.y, p.z) == tuple(p) == (0.1, -0.2, 0.3)

    @pytest.mark.parametrize("coords", [
        (0.1, -0.2, 0.3), (0, 1, -2), (-0.0, 5e-324, 1e308),
        tuple(np.float64(v) for v in (0.15, 0.6, 0.2)),
    ])
    def test_point3_as_array_bits(self, coords):
        # the array the frozen-dataclass Point3 built from its three fields
        got = Point3(*coords).as_array()
        want = np.array([coords[0], coords[1], coords[2]], dtype=float)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_hand_offset_magnitude_bound(self):
        with pytest.raises(ValueError):
            HandOffset((0.5, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", range(3))
    def test_hand_offset_rejects_non_finite(self, axis, bad):
        offset = [0.0, 0.0, -0.1]
        offset[axis] = bad
        with pytest.raises(ValueError, match="hand offset components must be finite"):
            HandOffset(tuple(offset))


@settings(max_examples=50, deadline=None)
@given(
    angle=st.floats(-3.1, 3.1),
    tx=st.floats(-5, 5),
    ty=st.floats(-5, 5),
)
def test_invert_round_trip_property(angle, tx, ty):
    t = RigidTransform(rotation_from_axis_angle(Y_AXIS, angle), [tx, ty, 0.3])
    back = invert(invert(t))
    assert np.abs(back.as_matrix() - t.as_matrix()).max() < 1e-12
