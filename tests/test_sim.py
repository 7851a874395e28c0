import hashlib
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from handguard import haptics, marker_pose, safety, sim
from handguard.geometry import Point3
from handguard.haptics import PatternId
from handguard.sim import (
    HumanModel,
    Scenario,
    ScenarioError,
    TRACE_CSV_HEADER,
    TraceRow,
    UnknownPattern,
    _leg_table,
    _norm,
    _position_on_loop,
    run,
    sample_response_time,
    write_metrics_json,
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


def halting_scenario():
    """Slow human and a robot path through the hand: critical entries and halts."""
    return default_scenario(
        duration=60.0,
        robot_waypoints=[
            {"point": [-0.1, -0.2, 0.2], "speed": 0.2},
            {"point": [0.0, 0.55, 0.2], "speed": 0.2},
        ],
        human={"response_mean": {"1L": 10.0, "2L": 10.0, "3L": 10.0, "5H": 10.0},
               "response_jitter_sigma": 0.0,
               "mis_response_probability": 0.0},
    )


def unsafe_steps(rows, zones) -> int:
    """Steps whose true hand-TCP distance is below zones.critical_distance
    while the robot is not halted."""
    return sum(row.distance < zones.critical_distance and not row.robot_halted for row in rows)


class TestRobotTcpPosition:
    LEGS = _leg_table(WAYPOINTS)

    def test_start(self):
        assert np.allclose(_position_on_loop(self.LEGS, 0.0), [0, 0, 0])

    def test_midpoint_of_first_leg(self):
        # 1 m leg at 0.1 m/s: halfway after 5 s
        assert np.allclose(_position_on_loop(self.LEGS, 5.0), [0.5, 0, 0])

    def test_loop_closure(self):
        # out and back is a 20 s cycle
        assert np.allclose(_position_on_loop(self.LEGS, 20.0), [0, 0, 0], atol=1e-12)

    def test_rejects_coincident_waypoints(self):
        wp = ((Point3(0, 0, 0), 0.1), (Point3(0, 0, 0), 0.1))
        with pytest.raises(ScenarioError, match="robot_waypoints: all waypoints coincide"):
            Scenario(robot_waypoints=wp)

    def test_cycle_adds_the_leg_times_left_to_right(self):
        # Python 3.12's builtin sum compensates: on this loop it gives the
        # exactly rounded cycle, one ulp below the left-to-right sum
        loop = _leg_table(((Point3(0, 0, 0), 0.1), (Point3(1, 0, 0), 0.7),
                           (Point3(0, 1, 0), 0.3)))
        times = [leg[3] for leg in loop.legs]
        assert loop.cycle == (times[0] + times[1]) + times[2] != math.fsum(times)


MAGNITUDE = st.floats(min_value=1e-150, max_value=1e150)
COMPONENT = st.one_of(
    MAGNITUDE,
    MAGNITUDE.map(lambda x: -x),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(min_value=-sys.float_info.min, max_value=sys.float_info.min),  # subnormals
)


@settings(max_examples=500, deadline=None)
@given(st.tuples(COMPONENT, COMPONENT, COMPONENT))
def test_norm_is_numpy_norm_bit_for_bit(v):
    # the gimbal stage normalises with _norm; the logged distances and the
    # marker pixels keep their bits only if it rounds as numpy does
    a = np.array(v)
    assert np.float64(_norm(a)).tobytes() == np.linalg.norm(a).tobytes()


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", [
        "response_jitter_sigma", "mis_response_probability", "hand_speed",
        "escape_displacement", "return_delay",
    ])
    def test_non_finite_human_parameter_names_field(self, name, value):
        # a nan jitter used to construct and run with no jitter at all
        with pytest.raises(ScenarioError, match=f"^human\\.{name}: must be a finite number$"):
            HumanModel(**{name: value})

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

    @pytest.mark.parametrize("value", [[], "1L", 0.24])
    def test_response_mean_not_an_object(self, value):
        with pytest.raises(ScenarioError,
                           match=r"^human\.response_mean: expected a JSON object$"):
            default_scenario(human={"response_mean": value})

    @pytest.mark.parametrize("waypoints, message", [
        ("ab", "robot_waypoints: expected a list of objects"),
        ({"point": [0, 0, 0], "speed": 0.1}, "robot_waypoints: expected a list of objects"),
        ([1, 2], "robot_waypoints[0]: expected a JSON object"),
        ([{"point": [0, 0, 0], "speed": 0.1}, [1, 0, 0]],
         "robot_waypoints[1]: expected a JSON object"),
        ([{"point": [0, 0, 0], "speed": 0.1}, {"point": [1, 0, 0]}],
         "robot_waypoints[1].speed: missing"),
        ([{"speed": 0.1}, {"point": [1, 0, 0], "speed": 0.1}],
         "robot_waypoints[0].point: missing"),
    ], ids=["string", "object", "numbers", "list entry", "no speed", "no point"])
    def test_malformed_waypoints_name_field(self, waypoints, message):
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            default_scenario(robot_waypoints=waypoints)

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

    @pytest.mark.parametrize("mapping, message", [
        ([], "mapping: expected a JSON object"),
        ("5H", "mapping: expected a JSON object"),
        ({"5H": "back"},
         "mapping: expected one distinct pattern for each direction right, left, down, back"),
        ({"1L": "right", "2L": "left", "3L": "down", "5H": "down"},
         "mapping: expected one distinct pattern for each direction right, left, down, back"),
        ({"1L": "right", "2L": "left", "3L": "down", "5H": "up"},
         "mapping: 'up' is not a valid Direction"),
        ({"1H": "right", "2L": "left", "3L": "down", "5H": "back"},
         "human.response_mean: no time for mapped patterns ['1H']"),
    ])
    def test_bad_mapping_rejected_at_load(self, mapping, message):
        doc = json.loads(scenario_path("default.json").read_text())
        doc["mapping"] = mapping
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            Scenario.from_json_dict(doc)

    def test_remapped_pattern_with_its_response_time_loads(self):
        doc = json.loads(scenario_path("default.json").read_text())
        doc["mapping"] = {"1H": "right", "2L": "left", "3L": "down", "5H": "back"}
        doc["human"]["response_mean"] = {"1H": 0.3, "2L": 0.61, "3L": 2.41, "5H": 0.85}
        s = Scenario.from_json_dict(doc)
        assert s.mapping.pattern_for(safety.Direction.RIGHT) == PatternId.parse("1H")


class TestRun:
    def test_deterministic_trace_bytes(self, tmp_path):
        s = default_scenario(duration=20.0)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            write_trace_csv(run(s)[0], path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_noisy_run(self, tmp_path):
        # long enough for the first activation (~11 s in), where the latency
        # draw and pixel noise can influence hand motion
        paths = [tmp_path / "1.csv", tmp_path / "2.csv"]
        for seed, path in zip((1, 2), paths):
            write_trace_csv(run(default_scenario(duration=20.0, pixel_noise_sigma=0.5,
                                                 seed=seed))[0], path)
        assert paths[0].read_bytes() != paths[1].read_bytes()

    def test_halt_freezes_tcp(self):
        trace, metrics = run(halting_scenario())
        assert metrics.halts >= 1
        for prev, cur in zip(trace, trace[1:]):
            if prev.robot_halted:
                assert (cur.tcp_x, cur.tcp_y, cur.tcp_z) == (prev.tcp_x, prev.tcp_y, prev.tcp_z)

    def test_halts_count_halt_commands(self, monkeypatch):
        issued = []
        step = safety.step

        def counting_step(*args, **kwargs):
            state, commands = step(*args, **kwargs)
            issued.extend(c for c in commands if c.kind is safety.CommandKind.HALT_ROBOT)
            return state, commands

        monkeypatch.setattr(safety, "step", counting_step)
        _, metrics = run(halting_scenario())
        assert len(issued) > 1
        assert metrics.halts == len(issued)

    def test_each_pattern_start_renders_its_pattern_once(self, monkeypatch):
        # a pattern's end is taken when it starts, not re-rendered each step
        calls = [0]
        render = haptics.render_pattern

        def counted(pattern):
            calls[0] += 1
            return render(pattern)

        monkeypatch.setattr(haptics, "render_pattern", counted)
        _, metrics = run(default_scenario(seed=7))
        starts = sum(metrics.pattern_activations.values())
        assert starts > 0
        assert calls[0] == starts

    def test_tcp_recomputed_only_when_the_robot_moves(self, monkeypatch):
        # seed 0 halts once and stays halted for 10,574 of its 12,000 steps
        calls = [0]
        position = sim._position_on_loop

        def counted(*args):
            calls[0] += 1
            return position(*args)

        monkeypatch.setattr(sim, "_position_on_loop", counted)
        rows, _ = run(default_scenario(seed=0))
        moving_steps = sum(not row.robot_halted for row in rows[:-1])
        assert moving_steps < 2000
        assert calls[0] == 1 + moving_steps

    def test_tcp_velocity_is_the_step_difference(self, monkeypatch):
        # safety.step gets numpy's (tcp - previous tcp) / dt, bit for bit,
        # and a zero velocity on the first step and while halted
        seen = []
        step = safety.step

        def spy(state, distance, hand, tcp, tcp_velocity, *args, **kwargs):
            seen.append((np.array(tcp), np.asarray(tcp_velocity, dtype=float)))
            return step(state, distance, hand, tcp, tcp_velocity, *args, **kwargs)

        monkeypatch.setattr(safety, "step", spy)
        s = halting_scenario()
        rows, _ = run(s)
        assert any(row.robot_halted for row in rows)
        assert seen[0][1].tobytes() == np.zeros(3).tobytes()
        for (prev, _), (tcp, velocity), row in zip(seen, seen[1:], rows):
            want = np.zeros(3) if row.robot_halted else (tcp - prev) / s.dt
            assert velocity.tobytes() == want.tobytes()

    def test_each_distance_classified_once(self, monkeypatch):
        # the trace's zone is the one safety.step computed, not a second call
        calls = [0]
        classify = safety.classify

        def counted(*args):
            calls[0] += 1
            return classify(*args)

        monkeypatch.setattr(safety, "classify", counted)
        rows, _ = run(default_scenario(duration=2.0, seed=3))
        assert len(rows) == 200
        assert calls[0] == 200

    def test_halted_never_inside_critical_minus_step(self):
        s = halting_scenario()
        trace, metrics = run(s)
        # robot halts before penetrating more than one step beyond the line
        v_max = max(speed for _, speed in s.robot_waypoints)
        floor = s.zones.critical_distance - v_max * s.dt - 1e-9
        assert metrics.min_distance >= floor
        # the robot runs above the safe speed bound here, so each halt is
        # preceded by exactly one violating entry step
        assert metrics.critical_violations == metrics.halts

    def test_distance_continuity(self):
        s = default_scenario(duration=30.0)
        trace, _ = run(s)
        v_max = max(speed for _, speed in s.robot_waypoints)
        bound = (v_max + s.human.hand_speed) * s.dt + 1e-9
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

    def test_fits_that_are_not_finite_lose_the_marker(self, monkeypatch):
        # every refined translation made infinite: each fitted step is a
        # lost frame, and the run completes
        refine, fit, fitted = marker_pose._refine, marker_pose.fit_corners, []

        def infinite(*args, **kwargs):
            r, t, rms = refine(*args, **kwargs)
            return r, (t[0], t[1], float("inf")), rms

        monkeypatch.setattr(marker_pose, "_refine", infinite)
        monkeypatch.setattr(marker_pose, "fit_corners",
                            lambda *args: fitted.append(args) or fit(*args))
        rows, _ = run(default_scenario(duration=1.0, pixel_noise_sigma=0.5))
        assert len(fitted) == len(rows) == 100
        assert not any(row.marker_visible for row in rows)

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


class TestSafetyInvariants:
    def test_no_unsafe_step_without_pixel_noise(self):
        # the bundled 120 s scenario at sigma 0, seeds 0-15; some runs halt,
        # so the person does come within the critical distance
        halts = 0
        for seed in range(16):
            scenario = default_scenario(seed=seed, pixel_noise_sigma=0.0)
            rows, metrics = run(scenario)
            assert len(rows) == 12000
            assert unsafe_steps(rows, scenario.zones) == 0, f"seed {seed}"
            halts += metrics.halts
        assert halts > 0

    @staticmethod
    def generated_scenarios(n=40):
        """n seeded noiseless 10 s scenarios: the hand somewhere in view, and
        a robot loop at 0.05-0.5 m/s that passes the hand, starting 0.5 m to
        its left or right; mis-responses off in even runs, 0.03 in odd."""
        rng = np.random.default_rng(8)
        for k in range(n):
            hand = [rng.uniform(-0.3, 0.3), rng.uniform(0.45, 0.75), rng.uniform(0.1, 0.35)]
            side = rng.choice((-0.5, 0.5))
            dy, dz, speed = rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1), rng.uniform(0.05, 0.5)
            ends = ([hand[0] + x, hand[1] + dy, hand[2] + dz] for x in (side, -side))
            yield default_scenario(
                duration=10.0, seed=k, hand_home=hand,
                robot_waypoints=[{"point": point, "speed": speed} for point in ends],
                human={"mis_response_probability": 0.03 * (k % 2)},
            )

    def test_no_unsafe_step_on_generated_scenarios(self):
        # I1 on each generated run; how many runs halt, end halted and how
        # long the marker stays out of view are printed, not yet asserted
        counts = {0.0: [0, 0, 0], 0.03: [0, 0, 0]}
        for k, scenario in enumerate(self.generated_scenarios()):
            rows, metrics = run(scenario)
            assert unsafe_steps(rows, scenario.zones) == 0, f"generated run {k}"
            runs = counts[scenario.human.mis_response_probability]
            lost = longest = 0
            for row in rows:
                lost = 0 if row.marker_visible else lost + 1
                longest = max(longest, lost)
            runs[0] += metrics.halts > 0
            runs[1] += rows[-1].robot_halted
            runs[2] = max(runs[2], longest * scenario.dt)
        for mis_response, (halting, ended_halted, longest) in counts.items():
            print(f"mis-responses {mis_response}: {halting} of 20 runs halt, "
                  f"{ended_halted} end halted, longest marker loss {longest:.2f} s")


class TestHumanAgent:
    def agent(self, **human):
        human = {"response_jitter_sigma": 0.0, "mis_response_probability": 0.0, **human}
        return sim._HumanAgent(default_scenario(human=human), np.random.default_rng(0))

    def reacting(self, steps):
        """An agent that took up 1L at t = 0 and then moved through `steps`
        steps while the hand stayed inside the activation zone."""
        human = sim._HumanAgent(default_scenario(), np.random.default_rng(0))
        human.on_pattern(PatternId.parse("1L"), 0.0)
        for k in range(steps):
            human.step(k, distance=0.1)
        return human

    def test_pattern_while_reacting_is_counted_and_draws_nothing(self):
        # waiting for the latency, mid-escape, and holding after the escape;
        # the hand stays inside the activation zone, so no return is due
        full = HumanModel().escape_displacement
        for steps, phase, low, high in ((0, "waiting", 0.0, 0.0),
                                        (40, "escaping", 1e-3, full - 1e-3),
                                        (200, "escaping", full - 1e-12, full + 1e-12)):
            human = self.reacting(steps)
            travelled = 0.0 if human.escape_origin is None \
                else _norm(human.position - human.escape_origin)
            assert human.phase == phase and low <= travelled <= high
            before = (human.phase, human.due, human.position, human.rng.bit_generator.state,
                      list(human.open_measurements))
            human.on_pattern(PatternId.parse("2L"), 0.01 * steps)
            assert human.pattern_activations == {"1L": 1, "2L": 1}
            assert (human.phase, human.due, human.position, human.rng.bit_generator.state,
                    human.open_measurements) == before

    def test_pattern_while_returning_is_taken_up(self):
        human, k = self.agent(response_jitter_sigma=0.1), 0
        human.on_pattern(PatternId.parse("1L"), 0.0)
        while human.phase != "returning":
            human.step(k, distance=1.0)
            k += 1
        human.step(k, distance=1.0)
        k += 1
        assert human.open_measurements == []
        drawn, position = human.rng.bit_generator.state, human.position
        human.on_pattern(PatternId.parse("2L"), k * 0.01)
        assert human.rng.bit_generator.state != drawn
        assert [key for key, _, _ in human.open_measurements] == ["2L"]
        assert human.phase == "waiting" and human.due > k * 0.01
        # the return has ended: the hand holds still until the escape starts
        while human.phase == "waiting":
            human.step(k, distance=1.0)
            k += 1
            assert human.phase == "escaping" or human.position is position

    def test_each_pattern_taken_up_yields_one_response_time(self):
        human, k = self.agent(), 0
        for pattern in ("1L", "2L", "1L"):
            human.on_pattern(PatternId.parse(pattern), k * 0.01)
            while human.phase != "idle":
                human.step(k, distance=1.0)
                k += 1
        assert human.open_measurements == []
        assert human.response_times == {"1L": [0.25, 0.25], "2L": [0.62]}

    def test_idle_person_does_nothing(self):
        human = self.agent()
        position, drawn = human.position, human.rng.bit_generator.state
        for k in range(100):
            human.step(k, distance=0.1)
        assert human.position is position
        assert human.rng.bit_generator.state == drawn
        assert human.response_times == {} and human.open_measurements == []

    def test_short_escapes_leave_measurements_open(self):
        # an escape shorter than MOVEMENT_DETECTION_M never closes its
        # measurement, so the next pattern opens a second one
        human, k = self.agent(escape_displacement=0.0005), 0
        for t0 in (0.0, 5.0):
            human.on_pattern(PatternId.parse("1L"), t0)
            while human.phase != "idle":
                human.step(k, distance=1.0)
                k += 1
        assert [t for _, t, _ in human.open_measurements] == [0.0, 5.0]
        assert human.response_times == {}


class TestTrace:
    def test_rows_are_trace_rows(self):
        assert TRACE_CSV_HEADER.split(",") == list(TraceRow._fields)
        trace, _ = run(default_scenario(duration=1.0))
        assert len(trace) == 100
        assert all(type(row) is TraceRow for row in trace)


def run_digest(monkeypatch, tmp_path, scenario) -> str:
    """SHA-256 of a run's trace and metrics bytes and of what perception
    handed safety.step on each step (estimated distance and hand)."""
    seen = []
    step = safety.step

    def spy(state, distance, hand, *args, **kwargs):
        seen.append(repr((distance, hand.x, hand.y, hand.z)))
        return step(state, distance, hand, *args, **kwargs)

    monkeypatch.setattr(safety, "step", spy)
    rows, metrics = run(scenario)
    write_trace_csv(rows, tmp_path / "t.csv")
    write_metrics_json(metrics, tmp_path / "m.json")
    return hashlib.sha256(
        (tmp_path / "t.csv").read_bytes() + (tmp_path / "m.json").read_bytes()
        + "\n".join(seen).encode()
    ).hexdigest()


class TestMarkerView:
    # Pins recorded before the gimbal/marker stage was reused on at-rest
    # steps; a view kept past a change of hand or servo moves them.

    @pytest.mark.parametrize("sigma, expected", [
        (0.0, "660bbbb8872f859de875e315b0cada9f04f8e05e6958eba6072ae960a3ec28fa"),
        (0.5, "887d10974953426ec8e9d18ccd31fa590f9ea74ea4a79bd30d16b30ede32e5a3"),
    ])
    def test_servo_slewing_toward_a_resting_hand(self, monkeypatch, tmp_path, sigma, expected):
        # the hand stays home for the first second while both motors slew
        # for 27 steps toward their range limits
        s = default_scenario(duration=1.0, seed=0, pixel_noise_sigma=sigma,
                             gear={"n_a": 2.0, "n_b": 2.0, "n_s": 0.5})
        assert run_digest(monkeypatch, tmp_path, s) == expected

    @pytest.mark.parametrize("sigma, expected", [
        (0.0, "0abc54da413112bd9a1e3ce83e9d8960405c8e1e6dc30442a1d644c8a89485f5"),
        (0.5, "dd856991b97b49de996641a23e44ca3493af96beaa04336f14cd224f57d40206"),
    ])
    def test_hand_escapes_out_of_frame_and_returns(self, monkeypatch, tmp_path, sigma,
                                                   expected):
        # an 800 px wide image loses the marker while the hand escapes right
        # (177 steps) and finds it again when the hand is back home
        s = default_scenario(duration=14.0, seed=7, pixel_noise_sigma=sigma,
                             camera={"image_width": 800})
        assert run_digest(monkeypatch, tmp_path, s) == expected

    def test_view_reused_while_hand_and_servo_rest(self, monkeypatch):
        # seed 0 of the bundled scenario rests on 98% of its 12,000 steps
        calls = [0]
        view = sim._marker_view

        def counted(*args):
            calls[0] += 1
            return view(*args)

        monkeypatch.setattr(sim, "_marker_view", counted)
        rows, _ = run(default_scenario(seed=0))
        assert len(rows) == 12000
        assert calls[0] == 232

    def test_true_distance_kept_while_hand_and_tcp_rest(self, monkeypatch):
        # the hand or the TCP moves on 1,445 of seed 0's 12,000 steps, and
        # run measures the true distance on those steps only
        calls = [0]

        def counted(v):
            calls[0] += sys._getframe(1).f_code is run.__code__
            return _norm(v)

        monkeypatch.setattr(sim, "_norm", counted)
        rows, _ = run(default_scenario(seed=0))
        moved = sum(before is None or before[1:7] != row[1:7]
                    for before, row in zip([None] + rows[:-1], rows))
        assert moved == 1445
        assert calls[0] == moved

    def test_correct_fits_stay_visible_at_two_px(self, monkeypatch):
        # the fit gate scales with the scenario's pixel noise; gated at a
        # fixed 1 px, 666 of these 2,000 steps lose the marker
        s = default_scenario(duration=20.0, seed=7, pixel_noise_sigma=2.0)
        rows, _ = run(s)
        assert sum(not row.marker_visible for row in rows) == 0
        fit = marker_pose.fit_corners
        monkeypatch.setattr(marker_pose, "fit_corners",
                            lambda pixels, side, k, pixel_sigma: fit(pixels, side, k, 0.0))
        rows, _ = run(s)
        assert sum(not row.marker_visible for row in rows) == 666
