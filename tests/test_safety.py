import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import handguard
from handguard import data_path
from handguard.analysis import ConfusionMatrix, recognition_ranking
from handguard.geometry import Point3
from handguard.haptics import PatternId, pattern_duration
from handguard.safety import (
    COOLDOWN_PAD_S,
    CommandKind,
    Direction,
    DirectionMapping,
    Mode,
    NonMonotonicTime,
    SafetyState,
    SafetyZones,
    Zone,
    classify,
    max_robot_speed,
    select_direction,
    step,
)
from handguard.sim import HumanModel

ORIGIN = Point3(0, 0, 0)
ZONES = SafetyZones()


def run_trace(distances, dt=0.1, zones=ZONES):
    """Feed a distance trace through the state machine; returns (states, commands)."""
    state = SafetyState()
    states, all_commands = [], []
    hand = Point3(0.5, 0, 0)
    for k, d in enumerate(distances):
        state, commands = step(
            state, d, hand, ORIGIN, np.zeros(3), k * dt, zones=zones
        )
        states.append(state)
        all_commands.append(commands)
    return states, all_commands


def kinds(commands):
    return [c.kind for c in commands]


class TestClassify:
    @pytest.mark.parametrize("d,zone", [
        (0.45, Zone.SAFE),
        (0.40, Zone.SAFE),
        (0.39, Zone.ACTIVATION),
        (0.25, Zone.ACTIVATION),
        (0.24, Zone.CRITICAL),
        (0.0, Zone.CRITICAL),
    ])
    def test_thresholds(self, d, zone):
        assert classify(d, ZONES) is zone

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            classify(-0.1, ZONES)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_distance(self, d):
        # a nan compares false with every threshold and used to read as SAFE
        with pytest.raises(ValueError, match="finite"):
            classify(d, ZONES)

    def test_zone_ordering_enforced(self):
        with pytest.raises(ValueError):
            SafetyZones(activation_distance=0.2, critical_distance=0.25)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -0.01])
    def test_rejects_bad_resume_hysteresis(self, h):
        with pytest.raises(ValueError, match="resume_hysteresis"):
            SafetyZones(resume_hysteresis=h)


class TestSelectDirection:
    def test_tcp_left_of_hand(self):
        assert select_direction(Point3(0.5, 0, 0), Point3(0, 0, 0), np.zeros(3)) \
            is Direction.RIGHT

    def test_tcp_above_hand(self):
        assert select_direction(Point3(0, 0, 0), Point3(0, 0, 0.5), np.zeros(3)) \
            is Direction.DOWN

    def test_approaching_tcp_uses_prediction(self):
        # TCP in front of the hand and closing: escape is backward
        hand = Point3(0, 0, 0)
        tcp = Point3(0, 0.3, 0)
        velocity = np.array([0.0, -0.5, 0.0])
        assert select_direction(hand, tcp, velocity) is Direction.BACK

    def test_matches_argmax_oracle(self):
        vectors = {
            Direction.RIGHT: np.array([1.0, 0, 0]),
            Direction.LEFT: np.array([-1.0, 0, 0]),
            Direction.DOWN: np.array([0, 0, -1.0]),
            Direction.BACK: np.array([0, -1.0, 0]),
        }
        order = [Direction.RIGHT, Direction.LEFT, Direction.DOWN, Direction.BACK]
        rng = np.random.default_rng(1)
        for _ in range(200):
            hand = Point3(*rng.uniform(-1, 1, 3))
            tcp = Point3(*rng.uniform(-1, 1, 3))
            vel = rng.uniform(-0.5, 0.5, 3)
            escape = hand.as_array() - (tcp.as_array() + vel * 0.5)
            n = np.linalg.norm(escape)
            if n < 1e-9:
                continue
            escape /= n
            dots = [(float(vectors[d] @ escape), d) for d in order]
            best = max(dots, key=lambda pair: pair[0])[1]
            assert select_direction(hand, tcp, vel) is best

    def test_point3s_and_tuples_agree(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            hand, tcp, vel = (tuple(rng.uniform(-1, 1, 3).tolist()) for _ in range(3))
            assert select_direction(Point3(*hand), Point3(*tcp), np.array(vel)) \
                is select_direction(hand, tcp, vel)


class TestDirectionMapping:
    def test_default_bijection(self):
        m = DirectionMapping()
        assert m.direction_for(PatternId.parse("1L")) is Direction.RIGHT
        assert m.pattern_for(Direction.BACK) == PatternId.parse("5H")

    def test_round_trip_all_patterns(self):
        m = DirectionMapping()
        for p, _ in m.pattern_to_direction:
            assert m.pattern_for(m.direction_for(p)) == p

    def test_default_patterns_are_the_best_recognized(self):
        # the paper picked its four guidance patterns for their recognition
        # rates in the first study: they are the four highest diagonals of
        # the volar matrix, and the human model has a time for each
        ranked = recognition_ranking(ConfusionMatrix.from_csv(data_path("confusion_volar.csv")))
        chosen = {str(p) for p, _ in DirectionMapping().pattern_to_direction}
        assert {pattern for pattern, _ in ranked[:4]} == chosen == {"2L", "1L", "5H", "3L"}
        assert set(HumanModel().response_mean) == chosen
        (_, fourth), (runner_up, fifth) = ranked[3:5]
        assert (runner_up, fifth) == ("1H", 0.80)
        assert fourth - fifth == pytest.approx(0.02)
        print(f"default patterns: the volar top four; margin {fourth - fifth:.2f} "
              f"to the fifth, {runner_up} at {fifth:.2f}")

    def test_import_reads_no_study_data(self):
        # the default mapping is written out (the test above ranks it), so
        # importing the controller loads neither analysis nor a matrix CSV
        code = "import sys, handguard.safety; print('handguard.analysis' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(handguard.__file__).parent.parent)}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_rejects_duplicate_direction(self):
        with pytest.raises(ValueError):
            DirectionMapping((("1L", Direction.RIGHT), ("2L", Direction.RIGHT)))


class TestStep:
    def test_activation_starts_pattern(self):
        states, commands = run_trace([0.5, 0.39])
        assert states[-1].mode is Mode.ALERT
        assert kinds(commands[-1]) == [CommandKind.START_PATTERN]

    def test_critical_halts(self):
        states, commands = run_trace([0.39, 0.24])
        assert states[-1].mode is Mode.HALTED
        assert states[-1].robot_halted
        assert CommandKind.HALT_ROBOT in kinds(commands[-1])

    def test_resume_on_clearance(self):
        states, commands = run_trace([0.24, 0.26])
        assert CommandKind.RESUME_ROBOT in kinds(commands[-1])
        assert not states[-1].robot_halted

    def test_resume_respects_hysteresis(self):
        zones = SafetyZones(resume_hysteresis=0.05)
        states, commands = run_trace([0.24, 0.26, 0.31], zones=zones)
        assert kinds(commands[1]) == []  # 0.26 < 0.25 + 0.05
        assert CommandKind.RESUME_ROBOT in kinds(commands[2])

    def test_safe_zone_decays_with_no_command(self):
        states, commands = run_trace([0.39, 0.9, 0.9])
        assert states[-1].mode is Mode.SAFE
        assert commands[-1] == []

    def test_cooldown_blocks_retrigger(self):
        # stay in the activation zone; pattern restarts only after
        # duration + 0.5 s has elapsed
        distances = [0.35] * 40
        _, commands = run_trace(distances, dt=0.1)
        start_times = [
            k * 0.1
            for k, cmds in enumerate(commands)
            for c in cmds
            if c.kind is CommandKind.START_PATTERN
        ]
        assert len(start_times) >= 2
        gaps = np.diff(start_times)
        min_gap = pattern_duration(PatternId.parse("1L")) + 0.5
        assert np.all(gaps >= min_gap - 1e-9)

    @pytest.mark.parametrize("t0", [0.0, 0.3, 7.1])
    def test_retrigger_at_the_cooldown_boundary_not_before(self, t0):
        hand = Point3(0.5, 0, 0)
        state, (start,) = step(SafetyState(), 0.35, hand, ORIGIN, np.zeros(3), t0)
        boundary = t0 + pattern_duration(start.pattern) + COOLDOWN_PAD_S
        for t in (boundary - 0.01, math.nextafter(boundary, -math.inf)):
            state, commands = step(state, 0.35, hand, ORIGIN, np.zeros(3), t)
            assert commands == []
        _, commands = step(state, 0.35, hand, ORIGIN, np.zeros(3), boundary)
        assert kinds(commands) == [CommandKind.START_PATTERN]

    def test_resume_into_activation_starts_pattern_in_the_same_step(self):
        # a 1 s pattern at t = 0 and a halt at 0.1 s; the hand jumps from the
        # critical into the activation zone at 1.6 s, after the 1.5 s cooldown
        states, commands = run_trace([0.35] + [0.2] * 15 + [0.35])
        assert states[-2].robot_halted
        assert kinds(commands[-1]) == [CommandKind.RESUME_ROBOT, CommandKind.START_PATTERN]
        assert states[-1].mode is Mode.ALERT
        assert states[-1].active_pattern == commands[-1][1].pattern

    def test_non_monotonic_time_rejected(self):
        state = SafetyState()
        state, _ = step(state, 0.5, Point3(1, 0, 0), ORIGIN, np.zeros(3), 1.0)
        with pytest.raises(NonMonotonicTime):
            step(state, 0.5, Point3(1, 0, 0), ORIGIN, np.zeros(3), 0.5)

    def test_nan_distance_keeps_a_halted_robot_halted(self):
        # before, classify(nan) read SAFE and this step resumed the robot
        states, _ = run_trace([0.2])
        with pytest.raises(ValueError, match="finite"):
            step(states[-1], math.nan, Point3(0.5, 0, 0), ORIGIN, np.zeros(3), 0.1)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        # a nan t kept as last_time would let every later t pass the
        # monotonic check
        state, _ = step(SafetyState(), 0.5, Point3(1, 0, 0), ORIGIN, np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="finite"):
            step(state, 0.5, Point3(1, 0, 0), ORIGIN, np.zeros(3), t)
        with pytest.raises(NonMonotonicTime):
            step(state, 0.5, Point3(1, 0, 0), ORIGIN, np.zeros(3), 0.5)

    def test_halt_soundness_over_random_traces(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = rng.integers(20, 80)
            distances = rng.uniform(0.05, 0.6, size=n)
            _, commands = run_trace(list(distances))
            halts = sum(kinds(c).count(CommandKind.HALT_ROBOT) for c in commands)
            # oracle: count entries into the critical zone from an unhalted state
            entries = 0
            halted = False
            for d in distances:
                if halted and d >= 0.25:
                    halted = False
                if not halted and d < 0.25:
                    entries += 1
                    halted = True
            assert halts == entries

    def test_no_halt_when_never_critical(self):
        rng = np.random.default_rng(8)
        distances = rng.uniform(0.26, 1.0, size=200)
        _, commands = run_trace(list(distances))
        assert all(CommandKind.HALT_ROBOT not in kinds(c) for c in commands)

    @pytest.mark.parametrize("distance", [
        math.nextafter(0.25, -math.inf), 0.25, math.nextafter(0.25, math.inf),
        math.nextafter(0.40, -math.inf), 0.40, math.nextafter(0.40, math.inf),
    ])
    def test_state_zone_is_the_sample_zone(self, distance):
        hand = Point3(0.5, 0, 0)
        state, _ = step(SafetyState(), distance, hand, ORIGIN, np.zeros(3), 0.0)
        assert state.zone is classify(distance, ZONES)
        # a halt held by hysteresis past both boundaries still reports the zone
        zones = SafetyZones(resume_hysteresis=0.2)
        halted, _ = step(SafetyState(), 0.1, hand, ORIGIN, np.zeros(3), 0.0, zones=zones)
        state, commands = step(halted, distance, hand, ORIGIN, np.zeros(3), 0.1, zones=zones)
        assert state.robot_halted and commands == []
        assert state.zone is classify(distance, zones)

    def test_state_is_immutable(self):
        state, _ = step(SafetyState(), 0.35, Point3(0.5, 0, 0), ORIGIN, np.zeros(3), 0.0)
        for name in SafetyState._fields + ("robot_halted",):
            with pytest.raises(AttributeError):
                setattr(state, name, None)
        assert state.mode is Mode.ALERT and state.zone is Zone.ACTIVATION
        assert SafetyState().zone is Zone.SAFE

    def test_determinism(self):
        rng = np.random.default_rng(9)
        distances = list(rng.uniform(0.1, 0.6, size=100))
        first = run_trace(distances)
        second = run_trace(distances)
        assert first == second


class TestMaxRobotSpeed:
    def test_worst_case_figure(self):
        # 0.15 m gap / (2.41 s + 0.3 m / 0.5 m/s)
        bound = max_robot_speed(ZONES, 2.41, 0.5, 0.3)
        assert bound == pytest.approx(0.15 / 3.01, abs=1e-12)
        assert bound == pytest.approx(0.0498, abs=1e-4)

    def test_degenerate_inputs_capped(self):
        assert max_robot_speed(ZONES, 0.0, 1.0, 0.0) == 10.0

    def test_linearity_in_zone_gap(self):
        narrow = SafetyZones(activation_distance=0.325, critical_distance=0.25)
        full = max_robot_speed(ZONES, 1.0, 0.5, 0.3)
        half = max_robot_speed(narrow, 1.0, 0.5, 0.3)
        assert half == pytest.approx(full / 2)

    def test_rejects_negative_response_time(self):
        with pytest.raises(ValueError):
            max_robot_speed(ZONES, -1.0, 0.5, 0.3)
