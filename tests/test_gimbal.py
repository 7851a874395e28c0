import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handguard.gimbal import (
    SERVO_RANGE,
    SERVO_RATE_LIMIT,
    GearParams,
    GimbalDegeneracy,
    MarkerDeltas,
    MotorDeltas,
    correction_angles,
    marker_deltas,
    marker_rotation_entries,
    motor_deltas,
    servo_step,
)


def marker_rotation(m):
    return np.reshape(marker_rotation_entries(m), (3, 3))


def reference_rotation(m):
    """Ry(theta_c) @ Rx(theta_p) as the product of the two axis rotations."""
    cp, sp = math.cos(m.d_theta_p), math.sin(m.d_theta_p)
    cc, sc = math.cos(m.d_theta_c), math.sin(m.d_theta_c)
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cp, -sp], [0.0, sp, cp]])
    ry = np.array([[cc, 0.0, sc], [0.0, 1.0, 0.0], [-sc, 0.0, cc]])
    return ry @ rx


def _slew(current, target, max_step, limit):
    delta = target - current
    if abs(delta) > max_step:
        delta = math.copysign(max_step, delta)
    return min(max(current + delta, -limit), limit)


def reference_servo_step(angles, command, dt):
    """servo_step as it was written with one `_slew` call per motor."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    target_a = min(max(command.d_theta_a, -SERVO_RANGE), SERVO_RANGE)
    target_b = min(max(command.d_theta_b, -SERVO_RANGE), SERVO_RANGE)
    step = SERVO_RATE_LIMIT * dt
    return MotorDeltas(_slew(angles.d_theta_a, target_a, step, SERVO_RANGE),
                       _slew(angles.d_theta_b, target_b, step, SERVO_RANGE))


class TestGearKinematics:
    def test_zero_maps_to_zero(self):
        out = motor_deltas(MarkerDeltas(0.0, 0.0))
        assert out.d_theta_a == 0.0 and out.d_theta_b == 0.0

    def test_pure_lateral_default_ratios(self):
        # n_a = n_b = n_s = 0.5: one radian of lateral rotation needs both
        # motors co-rotating by 0.25 rad
        out = motor_deltas(MarkerDeltas(1.0, 0.0))
        assert out.d_theta_a == pytest.approx(0.25, abs=1e-15)
        assert out.d_theta_b == pytest.approx(0.25, abs=1e-15)

    def test_pure_longitudinal_default_ratios(self):
        out = motor_deltas(MarkerDeltas(0.0, 1.0))
        assert out.d_theta_a == pytest.approx(0.5, abs=1e-15)
        assert out.d_theta_b == pytest.approx(-0.5, abs=1e-15)

    def test_inverse_of_co_rotation(self):
        out = marker_deltas(MotorDeltas(0.25, 0.25))
        assert out.d_theta_p == pytest.approx(1.0, abs=1e-15)
        assert out.d_theta_c == pytest.approx(0.0, abs=1e-15)

    def test_linearity_superposition(self):
        g = GearParams(0.7, 0.4, 0.9)
        x = MarkerDeltas(0.3, -0.2)
        y = MarkerDeltas(-1.1, 0.5)
        combined = motor_deltas(MarkerDeltas(x.d_theta_p + y.d_theta_p,
                                             x.d_theta_c + y.d_theta_c), g)
        fx, fy = motor_deltas(x, g), motor_deltas(y, g)
        assert combined.d_theta_a == pytest.approx(fx.d_theta_a + fy.d_theta_a, abs=1e-12)
        assert combined.d_theta_b == pytest.approx(fx.d_theta_b + fy.d_theta_b, abs=1e-12)

    def test_symmetry_with_equal_motor_ratios(self):
        # equal ratios: pure lateral commands are symmetric, pure
        # longitudinal ones anti-symmetric
        g = GearParams(0.5, 0.5, 0.8)
        lateral = motor_deltas(MarkerDeltas(0.7, 0.0), g)
        assert lateral.d_theta_a == lateral.d_theta_b
        longitudinal = motor_deltas(MarkerDeltas(0.0, 0.7), g)
        assert longitudinal.d_theta_a == -longitudinal.d_theta_b

    def test_rejects_non_positive_ratio(self):
        with pytest.raises(ValueError):
            GearParams(n_a=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["n_a", "n_b", "n_s"])
    def test_rejects_non_finite_ratio(self, name, value):
        # an infinite ratio used to construct and fail later, deep in the
        # simulation, as non-finite motor deltas
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            GearParams(**{name: value})


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestDeltaTuples:
    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("cls, index", [
        (MarkerDeltas, 0), (MarkerDeltas, 1), (MotorDeltas, 0), (MotorDeltas, 1),
    ])
    def test_reject_non_finite_angles(self, cls, index, value):
        angles = [0.1, -0.2]
        angles[index] = value
        with pytest.raises(ValueError, match="must be finite"):
            cls(*angles)
        with pytest.raises(ValueError, match="must be finite"):
            cls._make(angles)
        with pytest.raises(ValueError, match="must be finite"):
            cls(0.1, -0.2)._replace(**{cls._fields[index]: value})

    @pytest.mark.parametrize("cls", [MarkerDeltas, MotorDeltas])
    def test_immutable_pairs(self, cls):
        angles = cls(0.1, -0.2)
        for name in cls._fields + ("other",):
            with pytest.raises(AttributeError):
                setattr(angles, name, 1.0)
        assert tuple(angles) == (0.1, -0.2) == tuple(getattr(angles, f) for f in cls._fields)
        assert cls(*angles) == angles == cls._make(angles)


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(-10, 10),
    c=st.floats(-10, 10),
    na=st.floats(0.05, 5),
    nb=st.floats(0.05, 5),
    ns=st.floats(0.05, 5),
)
def test_forward_inverse_round_trip(p, c, na, nb, ns):
    g = GearParams(na, nb, ns)
    back = marker_deltas(motor_deltas(MarkerDeltas(p, c), g), g)
    assert back.d_theta_p == pytest.approx(p, abs=1e-10, rel=1e-10)
    assert back.d_theta_c == pytest.approx(c, abs=1e-10, rel=1e-10)


class TestCorrectionAngles:
    def test_already_aligned(self):
        out = correction_angles([0.0, 0.0, 1.0])
        assert out.d_theta_p == 0.0 and out.d_theta_c == 0.0

    def test_quarter_turn(self):
        out = correction_angles([1.0, 0.0, 0.0])
        assert out.d_theta_p == pytest.approx(0.0, abs=1e-15)
        assert out.d_theta_c == pytest.approx(math.pi / 2, abs=1e-15)

    def test_degeneracy(self):
        with pytest.raises(GimbalDegeneracy):
            correction_angles([0.0, 1.0, 0.0])

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            correction_angles([0.0, 0.0, 2.0])

    @pytest.mark.parametrize("target", [[math.nan] * 3, [0.0, 0.0, math.nan],
                                        [math.inf, 0.0, 0.0]])
    def test_non_finite_target_is_not_a_unit_vector(self, target):
        # nan fails the unit check itself, not the MarkerDeltas built after it
        with pytest.raises(ValueError, match="target direction must be a unit vector"):
            correction_angles(target)

    def test_matches_numpy_reference_bit_for_bit(self):
        # the check and the angles read three floats; the numpy form they
        # replaced gives the same bits for arrays, lists and tuples
        def reference(target):
            d = np.asarray(target, dtype=float).reshape(3)
            if abs(float(np.linalg.norm(d)) - 1.0) > 1e-9:
                raise ValueError("target direction must be a unit vector")
            return -math.asin(d[1]), math.atan2(d[0], d[2])

        rng = np.random.default_rng(3)
        for _ in range(500):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            for target in (d, d.tolist(), tuple(d.tolist())):
                out = correction_angles(target)
                assert (out.d_theta_p, out.d_theta_c) == reference(target)

    def test_forward_map_recovers_target(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 500:
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            if abs(d[1]) >= 1.0 - 1e-6:
                continue
            angles = correction_angles(d)
            reached = marker_rotation(angles) @ np.array([0.0, 0.0, 1.0])
            assert np.abs(reached - d).max() < 1e-9
            checked += 1

    def test_closed_form_rotation_matches_product(self):
        # Ry(theta_c) @ Rx(theta_p) on a seeded grid of angles, both signs
        rng = np.random.default_rng(9)
        for p in np.concatenate([np.linspace(-math.pi, math.pi, 25), rng.uniform(-4, 4, 25)]):
            for c in np.concatenate([np.linspace(-math.pi, math.pi, 25), rng.uniform(-4, 4, 25)]):
                m = MarkerDeltas(float(p), float(c))
                assert np.abs(marker_rotation(m) - reference_rotation(m)).max() <= 1e-15


FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestServo:
    REST = MotorDeltas(0.0, 0.0)

    def test_small_command_reached_exactly(self):
        out = servo_step(self.REST, MotorDeltas(0.01, -0.02), dt=0.01)
        assert out.d_theta_a == pytest.approx(0.01)
        assert out.d_theta_b == pytest.approx(-0.02)

    def test_rate_saturation(self):
        out = servo_step(self.REST, MotorDeltas(1.0, -1.0), dt=0.01)
        assert out.d_theta_a == pytest.approx(0.06)  # 6 rad/s * 0.01 s
        assert out.d_theta_b == pytest.approx(-0.06)

    def test_range_clamp(self):
        # 6 rad/s for 1 s passes the pi/2 range limit
        out = servo_step(self.REST, MotorDeltas(10.0, -10.0), dt=1.0)
        assert out.d_theta_a == pytest.approx(math.pi / 2)
        assert out.d_theta_b == pytest.approx(-math.pi / 2)

    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError):
            servo_step(self.REST, MotorDeltas(0, 0), dt=0.0)

    def test_one_pass_slew_is_the_reference_bit_for_bit(self):
        # seeded angles and commands, plus signed zeros, steps exactly at
        # the rate limit, the range ends and commands past them
        bits = struct.Struct("2d").pack
        rng = np.random.default_rng(35)
        edges = [0.0, -0.0, 0.06, -0.06, 0.03, SERVO_RANGE, -SERVO_RANGE,
                 SERVO_RANGE - 0.06, -SERVO_RANGE + 0.06, 2.0, -2.0, 1e300, -1e300]
        cases = [(a, b, ca, cb, 0.01) for a in edges[:7] for b in edges[:7]
                 for ca in edges for cb in edges[::-1]]
        for _ in range(20000):
            a, b = rng.uniform(-1.7, 1.7, 2).tolist()
            ca, cb = rng.uniform(-2.5, 2.5, 2).tolist()
            dt = float(rng.choice([0.001, 0.01, 0.05, 1.0, rng.uniform(1e-4, 0.5)]))
            cases.append((a, b, ca, cb, dt))
            step = SERVO_RATE_LIMIT * dt  # a command exactly one step away
            cases.append((a, b, a + step, b - step, dt))
        for a, b, ca, cb, dt in cases:
            angles, command = MotorDeltas(a, b), MotorDeltas(ca, cb)
            out = servo_step(angles, command, dt)
            want = reference_servo_step(angles, command, dt)
            assert type(out) is MotorDeltas
            assert bits(*out) == bits(*want), (a, b, ca, cb, dt)

    @given(a=FINITE, b=FINITE, cmd_a=FINITE, cmd_b=FINITE,
           dt=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_angles_stay_in_range(self, a, b, cmd_a, cmd_b, dt):
        # from any finite angles, even out of range, one step lands in range
        out = servo_step(MotorDeltas(a, b), MotorDeltas(cmd_a, cmd_b), dt)
        assert abs(out.d_theta_a) <= SERVO_RANGE and abs(out.d_theta_b) <= SERVO_RANGE
