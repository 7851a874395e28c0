import dataclasses
import io
import json
import re

import numpy as np
import pytest

from handguard.geometry import Point3
from handguard.haptics import PatternId
from handguard.safety import Direction, Mode, SafetyZones, Zone
from handguard.sim import (
    HumanModel,
    Scenario,
    ScenarioError,
    TRACE_CSV_HEADER,
    Trace,
    UnknownPattern,
    robot_tcp_position,
    run,
    sample_response_time,
    write_trace_csv,
)
from handguard import scenario_path

WAYPOINTS = (
    (Point3(0.0, 0.0, 0.0), 0.1),
    (Point3(1.0, 0.0, 0.0), 0.1),
)


def default_scenario(**overrides):
    doc = json.loads(scenario_path("default.json").read_text())
    doc.update(overrides)
    return Scenario.from_json_dict(doc)


class TestRobotTcpPosition:
    def test_start(self):
        p = robot_tcp_position(WAYPOINTS, 0.0)
        assert np.allclose(p.as_array(), [0, 0, 0])

    def test_midpoint_of_first_leg(self):
        # 1 m leg at 0.1 m/s: halfway after 5 s
        p = robot_tcp_position(WAYPOINTS, 5.0)
        assert np.allclose(p.as_array(), [0.5, 0, 0])

    def test_loop_closure(self):
        # out and back is a 20 s cycle
        p = robot_tcp_position(WAYPOINTS, 20.0)
        assert np.allclose(p.as_array(), [0, 0, 0], atol=1e-12)

    def test_halt_interval_shifts_time(self):
        # a 3 s halt inside [2, 5] means t=8 behaves like t=5
        with_halt = robot_tcp_position(WAYPOINTS, 8.0, halt_intervals=((2.0, 5.0),))
        without = robot_tcp_position(WAYPOINTS, 5.0)
        assert np.allclose(with_halt.as_array(), without.as_array())

    def test_position_frozen_during_halt(self):
        at_start = robot_tcp_position(WAYPOINTS, 2.0)
        during = robot_tcp_position(WAYPOINTS, 4.0, halt_intervals=((2.0, 5.0),))
        assert np.allclose(during.as_array(), at_start.as_array())

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            robot_tcp_position(WAYPOINTS, -1.0)

    def test_rejects_coincident_waypoints(self):
        wp = ((Point3(0, 0, 0), 0.1), (Point3(0, 0, 0), 0.1))
        with pytest.raises(ScenarioError):
            robot_tcp_position(wp, 1.0)


class TestSampleResponseTime:
    def test_zero_jitter_returns_mean(self):
        model = HumanModel(response_jitter_sigma=0.0)
        rng = np.random.default_rng(0)
        for key, mean in {"1L": 0.24, "2L": 0.61, "3L": 2.41, "5H": 0.85}.items():
            assert sample_response_time(model, PatternId.parse(key), rng) == mean

    def test_unknown_pattern_rejected(self):
        model = HumanModel()
        with pytest.raises(UnknownPattern):
            sample_response_time(model, PatternId.parse("4H"), np.random.default_rng(0))

    def test_floor_applied(self):
        model = HumanModel(response_mean={"1L": 0.0}, response_jitter_sigma=0.0)
        assert sample_response_time(model, PatternId.parse("1L"),
                                    np.random.default_rng(0)) == 0.05

    def test_seed_determinism(self):
        model = HumanModel()
        a = [sample_response_time(model, PatternId.parse("3L"),
                                  np.random.default_rng(5)) for _ in range(3)]
        b = [sample_response_time(model, PatternId.parse("3L"),
                                  np.random.default_rng(5)) for _ in range(3)]
        assert a == b

    def test_sample_mean_near_model_mean(self):
        model = HumanModel()
        rng = np.random.default_rng(123)
        draws = [sample_response_time(model, PatternId.parse("2L"), rng)
                 for _ in range(10000)]
        assert abs(np.mean(draws) - 0.61) < 0.02


class TestScenarioValidation:
    def test_default_bundled_scenario_loads(self):
        s = default_scenario()
        assert s.dt == 0.01
        assert len(s.robot_waypoints) == 2

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="scenario"):
            default_scenario(robot_speed=1.0)

    def test_unknown_zones_key_names_field(self):
        doc = json.loads(scenario_path("default.json").read_text())
        doc["zones"] = {"activation": 0.4}
        with pytest.raises(ScenarioError, match="zones"):
            Scenario.from_json_dict(doc)

    def test_bad_dt(self):
        with pytest.raises(ScenarioError, match="dt"):
            default_scenario(dt=0.0)

    def test_too_few_waypoints(self):
        with pytest.raises(ScenarioError, match="robot_waypoints"):
            default_scenario(robot_waypoints=[{"point": [0, 0, 0], "speed": 0.1}])

    def test_negative_waypoint_speed(self):
        with pytest.raises(ScenarioError, match=r"robot_waypoints\[1\]"):
            default_scenario(robot_waypoints=[
                {"point": [0, 0, 0], "speed": 0.1},
                {"point": [1, 0, 0], "speed": -0.1},
            ])

    def test_bad_mis_response_probability(self):
        with pytest.raises(ScenarioError, match="mis_response"):
            default_scenario(human={"mis_response_probability": 1.5})

    @pytest.mark.parametrize("name, value", [
        ("dt", "0.01"),
        ("duration", None),
        ("marker_side", "x"),
        ("pixel_noise_sigma", [1]),
        ("dt", True),
        ("duration", float("nan")),
        ("marker_side", float("inf")),
        ("seed", "7"),
        ("seed", 1.5),
        ("seed", -1),
        ("human.hand_speed", float("nan")),
        ("zones.resume_hysteresis", float("nan")),
        ("zones.critical_distance", "0.2"),
        ("gear.n_a", float("inf")),
        ("camera.fx", True),
        ("robot_waypoints[1].speed", True),
        ("robot_waypoints[1].speed", "0.04"),
        ("hand_offset[0]", float("nan")),
        ("human.response_mean.1L", float("nan")),
        ("human.response_mean.3L", "0.3"),
        ("human.response_mean.5H", True),
        ("hand_home[0]", True),
        ("hand_home[1]", "x"),
        ("hand_home[2]", float("nan")),
        ("robot_waypoints[0].point[0]", True),
        ("robot_waypoints[1].point[1]", "x"),
        ("robot_waypoints[1].point[2]", float("nan")),
    ])
    def test_bad_scalar_names_field(self, name, value):
        doc = json.loads(scenario_path("default.json").read_text())
        doc["hand_offset"] = [0.0, 0.0, -0.1]  # the bundled scenario leaves it out
        # walk the dotted, indexed name down to the value it names
        *path, last = [int(part) if part.isdigit() else part
                       for part in re.findall(r"[^.\[\]]+", name)]
        target = doc
        for part in path:
            target = target[part]
        target[last] = value
        message = "must be an integer >= 0" if name == "seed" else "must be a finite number"
        with pytest.raises(ScenarioError, match=f"^{re.escape(name)}: {message}$"):
            Scenario.from_json_dict(doc)

    @pytest.mark.parametrize("name, coords", [
        ("hand_home", [0.15, 0.6]),
        ("hand_home", [0.15, 0.6, 0.2, 0.0]),
        ("robot_waypoints[1].point", [0.0, 0.55]),
        ("robot_waypoints[1].point", [0.0, 0.55, 0.2, 1.0]),
        ("hand_offset", [0.0, -0.1]),
    ])
    def test_coordinate_count_names_field(self, name, coords):
        doc = json.loads(scenario_path("default.json").read_text())
        if name.startswith("robot_waypoints"):
            doc["robot_waypoints"][1]["point"] = coords
        else:
            doc[name] = coords
        with pytest.raises(ScenarioError, match=f"^{re.escape(name)}: expected 3 coordinates$"):
            Scenario.from_json_dict(doc)

    @pytest.mark.parametrize(
        "section", ["zones", "human", "gear", "camera", "robot_waypoints[1]"]
    )
    def test_unknown_key_names_section(self, section):
        doc = json.loads(scenario_path("default.json").read_text())
        if section == "robot_waypoints[1]":
            doc["robot_waypoints"][1]["bogus"] = 1
        else:
            doc[section]["bogus"] = 1
        with pytest.raises(ScenarioError) as info:
            Scenario.from_json_dict(doc)
        assert str(info.value).startswith(f"{section}: unknown keys ['bogus']")


class TestRun:
    def test_deterministic_trace_bytes(self):
        s = default_scenario(duration=20.0)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        for buf in (buf_a, buf_b):
            trace, _ = run(s)
            buf.write(TRACE_CSV_HEADER + "\n")
            for rec in trace:
                buf.write(rec.to_csv_row() + "\n")
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_seed_changes_noisy_run(self):
        # long enough for the first activation (~11 s in), where the latency
        # draw and pixel noise can influence hand motion
        s1 = default_scenario(duration=20.0, pixel_noise_sigma=0.5, seed=1)
        s2 = default_scenario(duration=20.0, pixel_noise_sigma=0.5, seed=2)
        t1, _ = run(s1)
        t2, _ = run(s2)
        rows1 = [r.to_csv_row() for r in t1]
        rows2 = [r.to_csv_row() for r in t2]
        assert rows1 != rows2

    def test_halt_freezes_tcp(self):
        # slow hand and fast robot to force critical entries
        s = default_scenario(
            duration=60.0,
            robot_waypoints=[
                {"point": [-0.1, -0.2, 0.2], "speed": 0.2},
                {"point": [0.0, 0.55, 0.2], "speed": 0.2},
            ],
            human={"response_mean": {"1L": 10.0, "2L": 10.0, "3L": 10.0, "5H": 10.0},
                   "response_jitter_sigma": 0.0,
                   "mis_response_probability": 0.0},
        )
        trace, metrics = run(s)
        assert metrics.halts >= 1
        for prev, cur in zip(trace, trace[1:]):
            if prev.robot_halted:
                assert np.allclose(cur.tcp.as_array(), prev.tcp.as_array())

    def test_halted_never_inside_critical_minus_step(self):
        s = default_scenario(
            duration=60.0,
            robot_waypoints=[
                {"point": [-0.1, -0.2, 0.2], "speed": 0.2},
                {"point": [0.0, 0.55, 0.2], "speed": 0.2},
            ],
            human={"response_mean": {"1L": 10.0, "2L": 10.0, "3L": 10.0, "5H": 10.0},
                   "response_jitter_sigma": 0.0,
                   "mis_response_probability": 0.0},
        )
        trace, metrics = run(s)
        # robot halts before penetrating more than one step beyond the line
        v_max = s.max_robot_speed_mps
        floor = s.zones.critical_distance - v_max * s.dt - 1e-9
        assert metrics.min_distance >= floor
        # the robot runs above the safe speed bound here, so each halt is
        # preceded by exactly one violating entry step
        assert metrics.critical_violations == metrics.halts

    def test_distance_continuity(self):
        s = default_scenario(duration=30.0)
        trace, _ = run(s)
        bound = (s.max_robot_speed_mps + s.human.hand_speed) * s.dt + 1e-9
        for prev, cur in zip(trace, trace[1:]):
            assert abs(cur.distance - prev.distance) <= bound

    def test_noiseless_estimate_tracks_truth(self):
        # with sigma = 0 the mocap chain is exact, so the estimated distance
        # that drives the state machine matches the logged true distance:
        # activations must line up with true zone crossings
        s = default_scenario(duration=30.0)
        trace, _ = run(s)
        for rec in trace:
            if rec.distance < s.zones.critical_distance - 1e-9 and not rec.robot_halted:
                pytest.fail("critical entry without halt in noiseless run")

    def test_noisy_run_completes_with_marker_visible(self):
        s = default_scenario(duration=5.0, pixel_noise_sigma=0.5)
        trace, _ = run(s)
        assert all(rec.marker_visible for rec in trace)

    def test_zero_jitter_measured_response_exact(self):
        s = default_scenario(
            duration=40.0,
            human={"response_jitter_sigma": 0.0, "mis_response_probability": 0.0},
        )
        _, metrics = run(s)
        assert "1L" in metrics.measured_response_times
        # movement starts one step after the latency elapses
        expected = s.human.response_mean["1L"] + s.dt
        assert metrics.measured_response_times["1L"][0] == pytest.approx(expected, abs=1e-9)

    def test_trace_csv_format(self, tmp_path):
        s = default_scenario(duration=1.0)
        trace, _ = run(s)
        out = tmp_path / "trace.csv"
        write_trace_csv(trace, out)
        lines = out.read_text().splitlines()
        assert lines[0] == TRACE_CSV_HEADER
        assert len(lines) == 1 + len(trace)
        assert all(len(line.split(",")) == 14 for line in lines[1:])


class TestTrace:
    def test_records_hold_their_rows(self):
        # 15 s reaches the first pattern (about 11 s in)
        trace, _ = run(default_scenario(duration=15.0))
        assert isinstance(trace, Trace) and len(trace) == len(trace.rows) == 1500
        records = list(trace)
        assert [rec.row() for rec in records] == trace.rows
        first_pattern = next(i for i, row in enumerate(trace.rows) if row[10])
        for i in (0, first_pattern, -1):
            row, rec = trace.rows[i], trace[i]
            assert rec == records[i]
            assert (rec.t, rec.distance, rec.robot_halted, rec.marker_visible) == \
                (row[0], row[7], row[11], row[13])
            assert rec.hand == Point3(*row[1:4]) and rec.tcp == Point3(*row[4:7])
            assert rec.zone is Zone(row[8]) and rec.state_mode is Mode(row[9])
            assert rec.active_pattern == (PatternId.parse(row[10]) if row[10] else None)
            assert rec.commanded_direction == (Direction(row[12]) if row[12] else None)
        assert trace[0].active_pattern is None
        assert trace[first_pattern].commanded_direction is not None

    def test_slices_are_traces(self):
        trace, _ = run(default_scenario(duration=1.0))
        part = trace[10:20:3]
        assert isinstance(part, Trace)
        assert part.rows == trace.rows[10:20:3]
        assert list(part) == [trace[i] for i in range(10, 20, 3)]
        assert len(trace[5:]) == len(trace) - 5
        with pytest.raises(IndexError):
            trace[len(trace)]
