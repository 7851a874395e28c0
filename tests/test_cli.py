import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import handguard
from handguard import marker_pose, scenario_path
from handguard.cli import main
from handguard.geometry import RigidTransform, compose, rotation_from_axis_angle
from handguard.marker_pose import CameraIntrinsics, project, synthesize_observation

# a self-intersecting corner quad: its homography sends the marker centre to infinity
BOWTIE_LINE = "0,600,300,610,300,600,310,610,310"
# a marker seen nearly edge-on at 0.5 px noise: one IPPE start, fitted
# behind the camera, is mirrored through the camera centre
MIRRORED_LINE = ("0,519.7211372172835,414.9055105940249,541.29204155723,411.70620662167926,"
                 "540.5179141736531,412.6642370380099,516.4402255649517,414.6882912931304")
# finite corners far outside any image: IPPE's 2x2 determinant of B is 0,
# its entries overflow, and the triangle areas overflow to nan
HUGE_CORNER_ROWS = [
    pytest.param("7,1e150,3e150,-2e150,1e150,-1e150,-1e150,1e150,-4e150",
                 "corners give no finite pose candidate", id="zero_det_b"),
    pytest.param("7,1.2080592803397192e+153,-2.3682409912508468e+153,-2.113401280556395e+152,"
                 "1.780887302438758e+153,-7.865058401348934e+152,-8.455369047416342e+152,"
                 "1.0139927681015233e+153,8.612777938971297e+152",
                 "corners give no finite pose candidate", id="overflow"),
    pytest.param("7,-7.043799213083251e+155,-9.47463212427897e+155,-9.700686647663059e+154,"
                 "-1.4239039186501397e+156,4.798405101081079e+155,1.9943331267367114e+155,"
                 "-1.0877481441818841e+154,2.7007069421368026e+155",
                 "corners are collinear or enclose no area", id="nan_area"),
]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def intrinsics_file(tmp_path):
    path = tmp_path / "intrinsics.json"
    path.write_text(json.dumps(dataclasses.asdict(CameraIntrinsics())))
    return str(path)


def usage_error(*argv):
    """Exit code of an argument that argparse itself rejects."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    return info.value.code


def observation_line(pose, marker_id=0, side=0.04):
    corners = project(pose, side, CameraIntrinsics())
    return f"{marker_id}," + ",".join(f"{v:.6f}" for v in corners.ravel())


class TestSimulate:
    def test_default_scenario_short_run(self, capsys, tmp_path):
        scen = json.loads(scenario_path("default.json").read_text())
        scen["duration"] = 5.0
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scen))
        trace, metrics = tmp_path / "t.csv", tmp_path / "m.json"
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", str(path),
            "--trace", str(trace), "--metrics", str(metrics),
        )
        assert code == 0
        assert "min_distance" in out
        assert trace.exists() and metrics.exists()
        doc = json.loads(metrics.read_text())
        assert doc["critical_violations"] == 0

    def test_deterministic_outputs(self, capsys, tmp_path):
        scen = json.loads(scenario_path("default.json").read_text())
        scen["duration"] = 5.0
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scen))
        outputs = []
        for tag in ("a", "b"):
            trace = tmp_path / f"{tag}.csv"
            code, _, _ = run_cli(
                capsys, "simulate", "--scenario", str(path),
                "--trace", str(trace), "--metrics", str(tmp_path / f"{tag}.json"),
            )
            assert code == 0
            outputs.append(trace.read_bytes())
        assert outputs[0] == outputs[1]

    def test_default_scenario_golden_bytes(self, capsys, tmp_path):
        # SHA-256 of the bundled 120 s scenario's outputs at seed 0, recorded
        # before the geometry fast paths; the noiseless trace must not move.
        trace, metrics = tmp_path / "t.csv", tmp_path / "m.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--seed", "0",
            "--trace", str(trace), "--metrics", str(metrics),
        )
        assert code == 0
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
            "ce4fde235e4d8393ac41663bf0411e7c304e534f04b01bed425b1f225a0be1bc"
        )
        assert hashlib.sha256(metrics.read_bytes()).hexdigest() == (
            "ead01c822966bb49f7dbc8fcfef8429a83062bffa3e3e97a7a5831803c6673f6"
        )

    def test_noisy_near_path_golden_bytes(self, capsys, tmp_path):
        # SHA-256 of a 1.5 s run with 0.5 px corner noise and the robot loop
        # moved near the hand, so estimate_pose drives every step and the run
        # holds a pattern and halts.  Splitting the RNG streams moves this pin.
        scen = json.loads(scenario_path("default.json").read_text())
        scen.update({
            "seed": 0,
            "duration": 1.5,
            "pixel_noise_sigma": 0.5,
            "robot_waypoints": [
                {"point": [0.0, 0.35, 0.2], "speed": 0.1},
                {"point": [0.0, 0.62, 0.2], "speed": 0.1},
            ],
        })
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scen))
        trace, metrics = tmp_path / "t.csv", tmp_path / "m.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", str(path),
            "--trace", str(trace), "--metrics", str(metrics),
        )
        assert code == 0
        doc = json.loads(metrics.read_text())
        assert doc["halts"] >= 1 and sum(doc["pattern_activations"].values()) >= 1
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
            "628e7fffa3ea5eda3ed2b84b7f0d1ca1b39a2fddbed0d0d81b53284f49833358"
        )
        assert hashlib.sha256(metrics.read_bytes()).hexdigest() == (
            "a0a1b8e2851ca0003ae96179b7e0563e8298d582637789380095c60e72990d6d"
        )

    def test_seed_sweep_writes_one_file_per_seed(self, capsys, tmp_path):
        scen = json.loads(scenario_path("default.json").read_text())
        scen["duration"] = 2.0
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scen))
        code, out, _ = run_cli(
            capsys, "simulate", "--scenario", str(path),
            "--trace", str(tmp_path / "t.csv"), "--metrics", str(tmp_path / "m.json"),
            "--seeds", "1..3",
        )
        assert code == 0
        for seed in (1, 2, 3):
            assert (tmp_path / f"t.{seed}.csv").exists()
            assert (tmp_path / f"m.{seed}.json").exists()

    @pytest.mark.parametrize("sigma, duration", [(0.0, 120.0), (0.5, 20.0)])
    @pytest.mark.parametrize("seeds", [[], ["--seeds", "0..2"]], ids=["one seed", "sweep"])
    def test_streamed_trace_is_the_written_list(self, capsys, tmp_path, sigma, duration, seeds):
        # the trace streamed row by row has the bytes of the kept rows
        # written at once, as a header and one format string per line
        from handguard import sim

        scen = json.loads(scenario_path("default.json").read_text())
        scen.update(pixel_noise_sigma=sigma, duration=duration)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scen))
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", str(path),
            "--trace", str(tmp_path / "t.csv"), "--metrics", str(tmp_path / "m.json"), *seeds,
        )
        assert code == 0
        written = [(0, ".0"), (1, ".1"), (2, ".2")] if seeds else [(scen["seed"], "")]
        for seed, suffix in written:
            rows, metrics = sim.run(sim.Scenario.from_json_dict({**scen, "seed": seed}))
            with open(tmp_path / "ref.csv", "w") as fh:
                fh.write(sim.TRACE_CSV_HEADER + "\n")
                fh.writelines(sim._CSV_ROW % row + "\n" for row in rows)
            sim.write_metrics_json(metrics, tmp_path / "ref.json")
            # digests: a failing == on a megabyte of text takes pytest minutes to diff
            for out, ref in ((f"t{suffix}.csv", "ref.csv"), (f"m{suffix}.json", "ref.json")):
                assert hashlib.sha256((tmp_path / out).read_bytes()).hexdigest() == \
                    hashlib.sha256((tmp_path / ref).read_bytes()).hexdigest(), out

    @pytest.mark.parametrize("seeds", [[], ["--seeds", "2..3"]], ids=["one seed", "sweep"])
    def test_failed_run_leaves_no_trace(self, capsys, tmp_path, monkeypatch, seeds):
        from handguard import sim

        step, calls = sim.safety.step, [0]

        def failing_step(*args, **kwargs):
            calls[0] += 1
            if calls[0] == 100:
                raise RuntimeError("step 100 failed")
            return step(*args, **kwargs)

        monkeypatch.setattr(sim.safety, "step", failing_step)
        scen = json.loads(scenario_path("default.json").read_text())
        scen["duration"] = 5.0
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scen))
        trace, metrics = tmp_path / "t.csv", tmp_path / "m.json"
        with pytest.raises(RuntimeError, match="step 100 failed"):
            main(["simulate", "--scenario", str(path), "--trace", str(trace),
                  "--metrics", str(metrics), *seeds])
        assert calls[0] == 100
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]

    def test_failed_run_keeps_a_trace_link(self, capsys, tmp_path, monkeypatch):
        # as with --trace /dev/stdout, the link is not the run's own file
        from handguard import sim

        def failing_step(*args, **kwargs):
            raise RuntimeError("step failed")

        monkeypatch.setattr(sim.safety, "step", failing_step)
        link = tmp_path / "t.csv"
        link.symlink_to(os.devnull)
        with pytest.raises(RuntimeError, match="step failed"):
            main(["simulate", "--trace", str(link), "--metrics", str(tmp_path / "m.json")])
        assert link.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_descending_seed_sweep_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate",
            "--trace", str(tmp_path / "t.csv"), "--metrics", str(tmp_path / "m.json"),
            "--seeds", "5..3",
        )
        assert code == 2
        assert "--seeds" in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_zone_key_reports_field_and_exit_2(self, capsys, tmp_path):
        scen = json.loads(scenario_path("default.json").read_text())
        scen["zones"] = {"activation": 0.4}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scen))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(path),
            "--trace", str(tmp_path / "t.csv"), "--metrics", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "zones" in err

    def test_non_numeric_scalar_reports_field_and_exit_2(self, capsys, tmp_path):
        scen = json.loads(scenario_path("default.json").read_text())
        scen["dt"] = "0.01"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scen))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(path),
            "--trace", str(tmp_path / "t.csv"), "--metrics", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "dt" in err

    @pytest.mark.parametrize("flag", ["--trace", "--metrics"])
    def test_output_in_missing_directory_exit_2_before_running(self, capsys, tmp_path,
                                                               monkeypatch, flag):
        from handguard import sim

        def no_run(scenario):
            raise AssertionError("simulation ran")

        monkeypatch.setattr(sim, "run", no_run)
        outputs = {"--trace": str(tmp_path / "t.csv"), "--metrics": str(tmp_path / "m.json")}
        outputs[flag] = str(tmp_path / "nodir" / "out")
        code, _, err = run_cli(capsys, "simulate", "--trace", outputs["--trace"],
                               "--metrics", outputs["--metrics"])
        assert code == 2
        assert err.startswith(f"error: {flag} {outputs[flag]}: directory ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--trace", "--metrics"])
    @pytest.mark.parametrize("seeds", [[], ["--seeds", "2..3"]], ids=["one seed", "sweep"])
    def test_output_on_a_directory_exit_2_before_running(self, capsys, tmp_path, monkeypatch,
                                                         flag, seeds):
        from handguard import sim

        def no_run(scenario):
            raise AssertionError("simulation ran")

        monkeypatch.setattr(sim, "run", no_run)
        outputs = {"--trace": tmp_path / "t.csv", "--metrics": tmp_path / "m.json"}
        outputs[flag] = tmp_path / "out"
        # a sweep writes out.2 and out.3, never out itself
        taken = tmp_path / ("out.3" if seeds else "out")
        taken.mkdir()
        code, out, err = run_cli(capsys, "simulate", "--trace", str(outputs["--trace"]),
                                 "--metrics", str(outputs["--metrics"]), *seeds)
        assert (code, out, err) == (2, "", f"error: {flag} {taken}: is a directory\n")
        assert list(tmp_path.iterdir()) == [taken]
        assert list(taken.iterdir()) == []

    @pytest.mark.parametrize("spelling", ["{}/out", "{}/./out"], ids=["same", "dot"])
    @pytest.mark.parametrize("seeds", [[], ["--seeds", "2..3"]], ids=["one seed", "sweep"])
    def test_trace_and_metrics_on_one_file_exit_2_before_running(self, capsys, tmp_path,
                                                                 monkeypatch, spelling, seeds):
        from handguard import sim

        def no_run(scenario):
            raise AssertionError("simulation ran")

        monkeypatch.setattr(sim, "run", no_run)
        # the metrics JSON would overwrite the trace CSV, in a sweep once per seed
        metrics = spelling.format(tmp_path)
        code, out, err = run_cli(capsys, "simulate", "--trace", str(tmp_path / "out"),
                                 "--metrics", metrics, *seeds)
        assert (code, out, err) == (2, "", f"error: --metrics {metrics}: is the --trace file\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mapping, message", [
        ([], "mapping: expected a JSON object"),
        ({"5H": "back"}, "mapping: expected one distinct pattern for each direction"),
        ({"1H": "right", "2L": "left", "3L": "down", "5H": "back"},
         "human.response_mean: no time for mapped patterns ['1H']"),
    ])
    def test_bad_mapping_exit_2_before_running(self, capsys, tmp_path, monkeypatch,
                                               mapping, message):
        from handguard import sim

        def no_run(scenario):
            raise AssertionError("simulation ran")

        monkeypatch.setattr(sim, "run", no_run)
        scen = json.loads(scenario_path("default.json").read_text())
        scen["mapping"] = mapping
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scen))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(path),
            "--trace", str(tmp_path / "t.csv"), "--metrics", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("key, value, message", [
        ("robot_waypoints", "ab", "robot_waypoints: expected a list of objects"),
        ("robot_waypoints", [1, 2], "robot_waypoints[0]: expected a JSON object"),
        ("robot_waypoints", [{"point": [0.0, 0.3, 0.2], "speed": 0.1},
                             {"point": [0.3, 0.3, 0.2]}], "robot_waypoints[1].speed: missing"),
        ("robot_waypoints", [{"speed": 0.1}, {"point": [0.3, 0.3, 0.2], "speed": 0.1}],
         "robot_waypoints[0].point: missing"),
        ("human", {"response_mean": []}, "human.response_mean: expected a JSON object"),
        ("camera", {"fx": -1.0}, "camera: focal lengths must be positive"),
        ("gear", {"n_a": 0.0}, "gear: gear ratios must be strictly positive"),
        ("zones", {"activation_distance": 0.2},
         "zones: zones require 0 < critical_distance < activation_distance"),
        ("human", {"response_mean": {"9Z": 1.0}}, "human.response_mean: unknown pattern id '9Z'"),
    ], ids=["string", "numbers", "no speed", "no point", "response_mean list",
            "camera range", "gear range", "zones range", "unknown pattern"])
    def test_malformed_section_names_field_exit_2(self, capsys, tmp_path, monkeypatch,
                                                  key, value, message):
        from handguard import sim

        def no_run(scenario):
            raise AssertionError("simulation ran")

        monkeypatch.setattr(sim, "run", no_run)
        scen = json.loads(scenario_path("default.json").read_text())
        scen[key] = value
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scen))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(path),
            "--trace", str(tmp_path / "t.csv"), "--metrics", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("doc, argv, message", [
        ([1, 2], [], "scenario: expected a JSON object"),
        ([1, 2], ["--seed", "3"], "scenario: expected a JSON object"),
        ({"robot_waypoints": [{"point": [0.3, 0.3, 0.2], "speed": 0.1}] * 3}, [],
         "robot_waypoints: all waypoints coincide"),
    ], ids=["list", "list with seed", "coincident waypoints"])
    def test_scenario_rejected_at_load_exit_2(self, capsys, tmp_path, monkeypatch, doc, argv,
                                              message):
        from handguard import sim

        def no_run(scenario):
            raise AssertionError("simulation ran")

        monkeypatch.setattr(sim, "run", no_run)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(path),
            "--trace", str(tmp_path / "t.csv"), "--metrics", str(tmp_path / "m.json"), *argv,
        )
        assert code == 2
        assert err == f"error: {message}\n"

    def test_missing_scenario_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(tmp_path / "nope.json"),
            "--trace", str(tmp_path / "t.csv"), "--metrics", str(tmp_path / "m.json"),
        )
        assert code == 2

    @pytest.mark.parametrize("content, reason", [
        (b'\xff{"seed": 1}', "can't decode byte 0xff"),
        (b'{"seed": ' + b"9" * 4400 + b"}", "Exceeds the limit (4300 digits)"),
    ], ids=["not utf-8", "int past the digit limit"])
    def test_unreadable_scenario_exit_2(self, capsys, tmp_path, content, reason):
        path = tmp_path / "s.json"
        path.write_bytes(content)
        code, _, err = run_cli(
            capsys, "simulate", "--scenario", str(path),
            "--trace", str(tmp_path / "t.csv"), "--metrics", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert err.startswith("error: scenario JSON invalid: ") and err.count("\n") == 1
        assert reason in err
        assert not (tmp_path / "t.csv").exists()


class TestPattern:
    def test_sweep_pattern(self, capsys):
        code, out, _ = run_cli(capsys, "pattern", "1H")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "motor,start_s,duration_s"
        assert len(lines) == 7  # header + 5 events + summary
        assert "frequency 2 Hz" in lines[-1]

    def test_simultaneous_pattern_low(self, capsys):
        code, out, _ = run_cli(capsys, "pattern", "5L")
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:6]]
        assert all(r[1] == "0.0" and r[2] == "0.2" for r in rows)

    def test_unknown_pattern_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "pattern", "9X")
        assert code == 2
        assert "9X" in err


class TestPose:
    def test_noiseless_poses_recovered(self, capsys, tmp_path, intrinsics_file):
        poses = [
            RigidTransform(np.eye(3), [0.0, 0.0, 1.0]),
            RigidTransform(rotation_from_axis_angle((1, 0, 0), 0.3), [0.05, -0.02, 0.8]),
        ]
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(
            "marker_id,u0,v0,u1,v1,u2,v2,u3,v3\n"
            + "\n".join(observation_line(p, i) for i, p in enumerate(poses)) + "\n"
        )
        code, out, _ = run_cli(
            capsys, "pose", str(obs_file), "--intrinsics", intrinsics_file
        )
        assert code == 0
        docs = [json.loads(l) for l in out.strip().splitlines()]
        assert len(docs) == 2
        for doc, truth in zip(docs, poses):
            assert doc["rms_px"] < 1e-6
            assert np.abs(np.array(doc["t"]) - truth.translation).max() < 1e-6

    def test_degenerate_row_flagged_others_succeed(self, capsys, tmp_path,
                                                   intrinsics_file):
        good = observation_line(RigidTransform(np.eye(3), [0, 0, 1.0]))
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(f"{good}\n1,0,0,1,1,2,2,3,3\n")
        code, out, _ = run_cli(
            capsys, "pose", str(obs_file), "--intrinsics", intrinsics_file
        )
        assert code == 0  # at least one row succeeded
        docs = [json.loads(l) for l in out.strip().splitlines()]
        assert "t" in docs[0]
        assert "error" in docs[1] and docs[1]["line"] == 2

    def test_self_intersecting_row_is_a_row_error(self, capsys, tmp_path, intrinsics_file):
        good = observation_line(RigidTransform(np.eye(3), [0, 0, 1.0]))
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(f"{good}\n{BOWTIE_LINE}\n{good}\n")
        code, out, _ = run_cli(
            capsys, "pose", str(obs_file), "--intrinsics", intrinsics_file
        )
        assert code == 0
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert docs[1] == {"line": 2, "error": "corners map the marker centre to infinity"}
        assert "t" in docs[0] and docs[2]["line"] == 3 and "t" in docs[2]

    def test_stdout_matches_per_row_estimate_pose(self, capsys, tmp_path, intrinsics_file,
                                                  monkeypatch):
        # enough rows for the lockstep fit, among them a parse error, a
        # degenerate and a self-intersecting quad and fits that fail the
        # 1 px gate at 3 px noise: each line as estimate_pose on its row alone
        rng = np.random.default_rng(8)
        lines = ["marker_id,u0,v0,u1,v1,u2,v2,u3,v3", "# comment"]
        for i in range(marker_pose.LOCKSTEP_MIN_LANES):
            pose = RigidTransform(rotation_from_axis_angle(rng.normal(size=3), 0.6),
                                  [rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15), 1.0])
            obs = synthesize_observation(pose, 0.04, CameraIntrinsics(),
                                         pixel_noise_sigma=3.0 if i % 4 == 3 else 0.5, seed=i)
            lines.append(f"{i}," + ",".join(repr(v) for v in obs.corners.ravel().tolist()))
        lines[5:5] = ["9,1,2,3", BOWTIE_LINE, "1,0,0,1,1,2,2,3,3"]
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text("\n".join(lines) + "\n")
        expected = []
        for line_no, line in enumerate(lines, start=1):
            if line.startswith(("marker_id", "#")):
                continue
            parts = [float(x) for x in line.split(",")]
            if len(parts) != 9:
                expected.append({"line": line_no, "error": "expected 9 comma-separated values"})
                continue
            try:
                est = marker_pose.estimate_pose(
                    marker_pose.MarkerObservation(int(parts[0]), np.reshape(parts[1:], (4, 2))),
                    0.04, CameraIntrinsics())
            except marker_pose.PoseError as exc:
                expected.append({"line": line_no, "error": str(exc)})
                continue
            doc = est.pose.to_json_dict()
            doc.update({"line": line_no, "marker_id": int(parts[0]),
                        "rms_px": est.rms_reprojection_error,
                        "ambiguity_ratio": est.ambiguity_ratio})
            expected.append(doc)
        lockstep_calls = []
        lockstep = marker_pose._refine_lockstep
        monkeypatch.setattr(marker_pose, "_refine_lockstep",
                            lambda *args: lockstep_calls.append(1) or lockstep(*args))
        code, out, _ = run_cli(
            capsys, "pose", str(obs_file), "--intrinsics", intrinsics_file
        )
        assert code == 0
        assert lockstep_calls == [1]
        assert out == "".join(json.dumps(doc) + "\n" for doc in expected)
        errors = {doc["error"] for doc in expected if "error" in doc}
        assert errors == {"expected 9 comma-separated values",
                          "corners map the marker centre to infinity",
                          "corners are collinear or enclose no area",
                          "no pose candidate fits within 1.0 px"}

    @pytest.mark.parametrize("n_good", [0, marker_pose.LOCKSTEP_MIN_LANES // 2])
    @pytest.mark.parametrize("bad, error", HUGE_CORNER_ROWS)
    def test_huge_finite_corners_are_a_row_error(self, capsys, tmp_path, intrinsics_file,
                                                 bad, error, n_good):
        # alone, and among enough rows for the array starts and the lockstep fit
        good = observation_line(RigidTransform(np.eye(3), [0, 0, 1.0]))
        lines = [good] * n_good
        lines.insert(n_good // 4, bad)
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "pose", str(obs_file), "--intrinsics", intrinsics_file)
        assert code == (0 if n_good else 1)
        docs = [json.loads(line) for line in out.splitlines()]
        assert len(docs) == n_good + 1
        assert docs.pop(n_good // 4) == {"line": n_good // 4 + 1, "error": error}
        assert all("t" in doc for doc in docs)

    def test_generated_batch_golden_stdout(self, capsys, tmp_path, intrinsics_file):
        # SHA-256 of pose stdout on 44 tilted markers at 0.5 px and four bad
        # or edge rows, recorded before the float and lane IPPE starts became
        # one implementation: whole, and cut to 10 rows, which go from the
        # array starts straight to the scalar refinement
        rng = np.random.default_rng(2025)
        lines = []
        for i in range(44):
            rotation = rotation_from_axis_angle(rng.normal(size=3), rng.uniform(-0.6, 0.6))
            pose = RigidTransform(rotation, [rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15),
                                             rng.uniform(0.6, 1.4)])
            obs = synthesize_observation(pose, 0.04, CameraIntrinsics(), 0.5, seed=i)
            lines.append(f"{i}," + ",".join(repr(v) for v in obs.corners.ravel().tolist()))
        lines[1:1] = ["1,0,0,1,1,2,2,3,3"]
        lines[3:3] = [BOWTIE_LINE]
        lines[5:5] = [MIRRORED_LINE]
        lines[7:7] = [HUGE_CORNER_ROWS[0].values[0]]
        digests = []
        for rows in (lines, lines[:10]):
            obs_file = tmp_path / "obs.csv"
            obs_file.write_text("\n".join(rows) + "\n")
            code, out, _ = run_cli(capsys, "pose", str(obs_file), "--intrinsics", intrinsics_file)
            assert code == 0 and out.count("\n") == len(rows)
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert digests == [
            "4d900178bbbc3d5ef8cca483c78871395ea7fd52cac2ae37b293a2253f56607f",
            "7d0373bf2f025d0d9320551124bb5e05123fd80950e9f2fc6e1fb2d03235581c",
        ]

    def test_all_rows_bad_exit_1(self, capsys, tmp_path, intrinsics_file):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text("1,0,0,1,1,2,2,3,3\n")
        code, _, _ = run_cli(
            capsys, "pose", str(obs_file), "--intrinsics", intrinsics_file
        )
        assert code == 1

    def test_kept_fit_with_a_translation_that_is_not_finite_is_a_row_error(
            self, capsys, tmp_path, intrinsics_file, monkeypatch):
        # every refined translation made infinite: each row is a per-line
        # error and the file exits 1, with no traceback
        refine = marker_pose._refine

        def infinite(*args, **kwargs):
            r, t, rms = refine(*args, **kwargs)
            return r, (t[0], t[1], float("inf")), rms

        monkeypatch.setattr(marker_pose, "_refine", infinite)
        poses = [RigidTransform(np.eye(3), [0.0, 0.0, 1.0]),
                 RigidTransform(rotation_from_axis_angle((1, 0, 0), 0.3), [0.05, -0.02, 0.8])]
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text("".join(observation_line(pose) + "\n" for pose in poses))
        code, out, err = run_cli(capsys, "pose", str(obs_file), "--intrinsics", intrinsics_file)
        assert (code, err) == (1, "")
        assert [json.loads(line) for line in out.splitlines()] == [
            {"line": line, "error": "corners give no finite pose candidate"} for line in (1, 2)]

    @pytest.mark.parametrize("marker_id", ["inf", "nan", "1.5", "-inf"])
    def test_non_integral_marker_id_is_a_row_error(self, capsys, tmp_path, intrinsics_file,
                                                   marker_id):
        good = observation_line(RigidTransform(np.eye(3), [0, 0, 1.0]))
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(f"{good}\n{marker_id}{good[1:]}\n")
        code, out, _ = run_cli(
            capsys, "pose", str(obs_file), "--intrinsics", intrinsics_file
        )
        assert code == 0
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert docs[1] == {"line": 2, "error": "marker_id must be an integer"}

    @pytest.mark.parametrize("corner", ["inf", "-inf", "nan"])
    def test_non_finite_corner_is_a_row_error(self, capsys, tmp_path, intrinsics_file, corner):
        good = observation_line(RigidTransform(np.eye(3), [0, 0, 1.0]))
        marker_id, _, rest = good.split(",", 2)
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(f"{good}\n{marker_id},{corner},{rest}\n")
        code, out, _ = run_cli(
            capsys, "pose", str(obs_file), "--intrinsics", intrinsics_file
        )
        assert code == 0
        docs = [json.loads(line) for line in out.strip().splitlines()]
        assert docs[1] == {"line": 2, "error": "corners must be finite"}

    @pytest.mark.parametrize("marker_id, expected", [("3", 3), ("3.0", 3), ("-2", -2)])
    def test_integral_marker_id_reads_as_int(self, capsys, tmp_path, intrinsics_file,
                                             marker_id, expected):
        good = observation_line(RigidTransform(np.eye(3), [0, 0, 1.0]))
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(f"{marker_id}{good[1:]}\n")
        code, out, _ = run_cli(
            capsys, "pose", str(obs_file), "--intrinsics", intrinsics_file
        )
        assert code == 0
        assert json.loads(out)["marker_id"] == expected

    def test_missing_observation_file_exit_2(self, capsys, tmp_path, intrinsics_file):
        code, _, _ = run_cli(
            capsys, "pose", str(tmp_path / "nope.csv"), "--intrinsics", intrinsics_file
        )
        assert code == 2


@pytest.mark.parametrize("command", ["pose", "calibrate"])
class TestBadPoseInputs:
    @pytest.fixture
    def obs_file(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text(observation_line(RigidTransform(np.eye(3), [0, 0, 1.0])) + "\n")
        return str(path)

    @pytest.mark.parametrize("doc, message", [
        ({"fx": 800.0, "focal": 800.0}, "intrinsics: unknown keys ['focal']"),
        ({"fx": "800"}, "intrinsics.fx: must be a finite number"),
        ([800.0, 800.0, 640.0, 360.0], "intrinsics: expected a JSON object"),
        ({"fx": -1.0}, "intrinsics: focal lengths must be positive"),
        ({"cx": 2000.0}, "intrinsics: principal point must lie inside the image"),
    ])
    def test_bad_intrinsics_exit_2(self, capsys, tmp_path, obs_file, command, doc, message):
        path = tmp_path / "intrinsics.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, command, obs_file, "--intrinsics", str(path))
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("side", ["0", "-0.04", "nan", "inf"])
    def test_bad_marker_side_exit_2(self, capsys, obs_file, intrinsics_file, command, side):
        code = usage_error(command, obs_file, "--intrinsics", intrinsics_file,
                           "--marker-side", side)
        assert code == 2
        assert "must be a positive finite number" in capsys.readouterr().err


class TestCalibrate:
    def test_round_trip_with_identity_marker_frame(self, capsys, tmp_path,
                                                   intrinsics_file):
        truth = RigidTransform(rotation_from_axis_angle((1, 0, 0), 0.2), [0.1, -0.05, 1.2])
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(observation_line(truth) + "\n")
        out_file = tmp_path / "base.json"
        code, out, _ = run_cli(
            capsys, "calibrate", str(obs_file),
            "--intrinsics", intrinsics_file, "--out", str(out_file),
        )
        assert code == 0
        got = RigidTransform.from_json_dict(json.loads(out_file.read_text()))
        assert np.abs(got.as_matrix() - truth.as_matrix()).max() < 1e-6

    def test_round_trip_with_base_transform(self, capsys, tmp_path, intrinsics_file):
        base_in_camera = RigidTransform(rotation_from_axis_angle((1, 2, 0), 0.3),
                                        [0.05, -0.1, 1.1])
        marker_to_base = RigidTransform(rotation_from_axis_angle((0, 0, 1), 0.5),
                                        [0.01, 0.02, 0.0])
        # the marker is seen at base-in-camera composed with marker-in-base;
        # composing in the other order, or without the inverse, fails here
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(observation_line(compose(base_in_camera, marker_to_base)) + "\n")
        base_file = tmp_path / "base.json"
        base_file.write_text(json.dumps(marker_to_base.to_json_dict()))
        code, out, err = run_cli(capsys, "calibrate", str(obs_file), "--intrinsics",
                                 intrinsics_file, "--base-transform", str(base_file))
        assert (code, err) == (0, "")
        got = RigidTransform.from_json_dict(json.loads(out))
        assert np.abs(got.as_matrix() - base_in_camera.as_matrix()).max() < 1e-6

    def test_uses_the_first_row_that_passes_the_checks(self, capsys, tmp_path, intrinsics_file):
        truth = RigidTransform(rotation_from_axis_angle((0, 1, 0), 0.3), [-0.05, 0.02, 0.9])
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text("\n".join([
            "1,0,0,1,1,2,2,3,3", "2,inf,0,1,0,1,1,0,1", "3,1,2,3",
            observation_line(truth), observation_line(RigidTransform(np.eye(3), [0, 0, 1.0])),
        ]) + "\n")
        code, out, _ = run_cli(capsys, "calibrate", str(obs_file), "--intrinsics", intrinsics_file)
        assert code == 0
        got = RigidTransform.from_json_dict(json.loads(out))
        assert np.abs(got.as_matrix() - truth.as_matrix()).max() < 1e-6

    def test_rows_that_admit_no_pose_are_passed_over(self, capsys, tmp_path, intrinsics_file):
        # readable rows whose fit fails, then the row that calibrates
        truth = RigidTransform(rotation_from_axis_angle((0, 1, 1), 0.25), [0.02, 0.03, 1.0])
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text("\n".join([BOWTIE_LINE, HUGE_CORNER_ROWS[0].values[0],
                                       observation_line(truth)]) + "\n")
        code, out, err = run_cli(capsys, "calibrate", str(obs_file),
                                 "--intrinsics", intrinsics_file)
        assert (code, err) == (0, "")
        got = RigidTransform.from_json_dict(json.loads(out))
        assert np.abs(got.as_matrix() - truth.as_matrix()).max() < 1e-6

    def test_self_intersecting_row_exit_1(self, capsys, tmp_path, intrinsics_file):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(BOWTIE_LINE + "\n")
        code, out, err = run_cli(
            capsys, "calibrate", str(obs_file), "--intrinsics", intrinsics_file
        )
        assert code == 1
        assert out == ""
        assert err == "error: calibration failed: corners map the marker centre to infinity\n"

    @pytest.mark.parametrize("n_good", [0, marker_pose.LOCKSTEP_MIN_LANES // 2])
    @pytest.mark.parametrize("bad, error", HUGE_CORNER_ROWS)
    def test_huge_finite_corners_exit_1(self, capsys, tmp_path, intrinsics_file, bad, error,
                                        n_good):
        # a message, not a traceback, alone; as the first of many rows, the
        # next row calibrates
        good = observation_line(RigidTransform(np.eye(3), [0, 0, 1.0]))
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text("\n".join([bad] + [good] * n_good) + "\n")
        code, out, err = run_cli(capsys, "calibrate", str(obs_file),
                                 "--intrinsics", intrinsics_file)
        if n_good:
            assert code == 0 and err == "" and "r" in json.loads(out)
        else:
            assert (code, out, err) == (1, "", f"error: calibration failed: {error}\n")

    def test_no_readable_row_exit_1(self, capsys, tmp_path, intrinsics_file):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text("2,inf,0,1,0,1,1,0,1\n3,1,2,3\n")
        code, out, err = run_cli(capsys, "calibrate", str(obs_file),
                                 "--intrinsics", intrinsics_file)
        assert (code, out, err) == (1, "", "error: no usable base-marker observation\n")

    @pytest.mark.parametrize("missing", ["r", "t"])
    def test_base_transform_without_key_exit_2(self, capsys, tmp_path, intrinsics_file,
                                               missing):
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(observation_line(RigidTransform(np.eye(3), [0, 0, 1.0])) + "\n")
        doc = RigidTransform.identity().to_json_dict()
        del doc[missing]
        base = tmp_path / "base.json"
        base.write_text(json.dumps(doc))
        code, _, err = run_cli(
            capsys, "calibrate", str(obs_file),
            "--intrinsics", intrinsics_file, "--base-transform", str(base),
        )
        assert code == 2
        assert "keys r and t" in err

    def test_out_in_missing_directory_exit_2_before_calibrating(self, capsys, tmp_path,
                                                                 monkeypatch, intrinsics_file):
        def no_calibration(*args):
            raise AssertionError("calibration ran")

        monkeypatch.setattr(marker_pose, "fit_corners_many", no_calibration)
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(observation_line(RigidTransform(np.eye(3), [0, 0, 1.0])) + "\n")
        out_file = tmp_path / "nodir" / "cal.json"
        code, out, err = run_cli(capsys, "calibrate", str(obs_file),
                                 "--intrinsics", intrinsics_file, "--out", str(out_file))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: --out {out_file}: directory ")

    def test_out_on_a_directory_exit_2_before_calibrating(self, capsys, tmp_path,
                                                         monkeypatch, intrinsics_file):
        def no_calibration(*args):
            raise AssertionError("calibration ran")

        monkeypatch.setattr(marker_pose, "fit_corners_many", no_calibration)
        obs_file = tmp_path / "obs.csv"
        obs_file.write_text(observation_line(RigidTransform(np.eye(3), [0, 0, 1.0])) + "\n")
        out_dir = tmp_path / "cal"
        out_dir.mkdir()
        code, out, err = run_cli(capsys, "calibrate", str(obs_file),
                                 "--intrinsics", intrinsics_file, "--out", str(out_dir))
        assert (code, out, err) == (2, "", f"error: --out {out_dir}: is a directory\n")
        assert list(out_dir.iterdir()) == []


class TestAnalyze:
    def test_rates_on_bundled_matrices(self, capsys):
        from handguard import data_path

        code, out, _ = run_cli(capsys, "analyze", "rates",
                               str(data_path("confusion_volar.csv")))
        assert code == 0
        assert json.loads(out)["mean"] == pytest.approx(0.756, abs=0.005)

        code, out, _ = run_cli(capsys, "analyze", "rates",
                               str(data_path("confusion_dorsal.csv")))
        assert code == 0
        assert json.loads(out)["mean"] == pytest.approx(0.709, abs=0.005)

    @staticmethod
    def write_trials(tmp_path, n_participants=4, reps=3):
        # deterministic synthetic trials: participant p recognizes pattern i
        # unless (p + i) % 5 == 0, in which case they report the next pattern
        from handguard.analysis import PATTERN_ORDER

        lines = ["participant,side,actual,perceived"]
        for p in range(n_participants):
            for i, pattern in enumerate(PATTERN_ORDER):
                for r in range(reps):
                    if (p + i + r) % 5 == 0:
                        perceived = PATTERN_ORDER[(i + 1) % 10]
                    else:
                        perceived = pattern
                    lines.append(f"{p},volar,{pattern},{perceived}")
        path = tmp_path / "trials.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_confusion_and_anova_modes(self, capsys, tmp_path):
        path = self.write_trials(tmp_path)
        code, out, _ = run_cli(capsys, "analyze", "confusion", str(path))
        assert code == 0
        matrix = np.array(json.loads(out)["matrix"])
        assert matrix.shape == (10, 10)
        assert np.allclose(matrix.sum(axis=1), 1.0)

        code, out, _ = run_cli(capsys, "analyze", "rmanova", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["df_between"] == 9
        assert doc["df_within"] == 27  # (4-1)(10-1)

        code, out, _ = run_cli(capsys, "analyze", "anova", str(path))
        assert code == 0
        assert json.loads(out)["df_within"] == 30  # 40 cells - 10 groups

    def test_pairwise_mode(self, capsys, tmp_path):
        path = self.write_trials(tmp_path)
        code, out, _ = run_cli(capsys, "analyze", "pairwise", str(path))
        assert code == 0
        results = json.loads(out)
        assert len(results) == 45
        assert all(r["corrected_p"] <= 1.0 for r in results)

        # seeded trials whose recognition rate falls with the pattern index:
        # participant rates vary, so no pair is degenerate and some pairs are
        # significant after Bonferroni
        from handguard.analysis import PATTERN_ORDER

        rng = np.random.default_rng(4)
        lines = ["participant,side,actual,perceived"]
        for p in range(8):
            for i, pattern in enumerate(PATTERN_ORDER):
                for _ in range(10):
                    hit = rng.random() < 0.95 - 0.08 * i
                    perceived = pattern if hit else PATTERN_ORDER[(i + 1) % 10]
                    lines.append(f"{p},volar,{pattern},{perceived}")
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "analyze", "pairwise", str(path))
        assert code == 0
        significant = [r["significant"] for r in json.loads(out)]
        assert any(significant) and not all(significant)

    @pytest.mark.parametrize("blank_row", [None, 1, 5, 11])
    def test_rates_on_empty_or_blank_row_matrix_exit_2(self, capsys, tmp_path, blank_row):
        from handguard import data_path

        lines = data_path("confusion_volar.csv").read_text().splitlines()
        if blank_row is None:
            lines = []
        else:
            lines.insert(blank_row, "")
        path = tmp_path / "matrix.csv"
        path.write_text("".join(line + "\n" for line in lines))
        code, _, err = run_cli(capsys, "analyze", "rates", str(path))
        assert code == 2
        assert err.startswith("error: ")

    def test_rates_on_nan_entry_exit_2(self, capsys, tmp_path):
        from handguard import data_path

        text = data_path("confusion_volar.csv").read_text()
        path = tmp_path / "matrix.csv"
        path.write_text(text.replace("\n1H,0.80,", "\n1H,nan,", 1))
        code, out, err = run_cli(capsys, "analyze", "rates", str(path))
        assert code == 2
        assert out == ""
        assert "entries must be numbers in [0, 1]" in err

    @pytest.mark.parametrize("mode", ["confusion", "rates"])
    def test_oversized_field_exit_2(self, capsys, tmp_path, mode):
        big = "1" * (csv.field_size_limit() + 1)
        path = tmp_path / "input.csv"
        path.write_text(f"participant,side,actual,perceived\n1,volar,1H,1H\n{big},volar,1H,1H\n")
        code, out, err = run_cli(capsys, "analyze", mode, str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: row 3: field larger than field limit ({csv.field_size_limit()})\n"

    @pytest.mark.parametrize("mode", ["confusion", "anova", "rmanova", "pairwise"])
    def test_empty_trials_exit_2(self, capsys, tmp_path, mode):
        path = tmp_path / "trials.csv"
        path.write_text("")
        code, _, err = run_cli(capsys, "analyze", mode, str(path))
        assert code == 2
        assert "expected header" in err

    def test_missing_pattern_exit_2(self, capsys, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("participant,side,actual,perceived\n0,volar,1H,1H\n")
        code, _, err = run_cli(capsys, "analyze", "confusion", str(path))
        assert code == 2

    def test_generated_study_golden_stdout(self, capsys, tmp_path):
        # SHA-256 of the stdout of all ten analyze calls (five modes, two
        # sides) on a study drawn from the bundled matrices, recorded before
        # the trial reader counted lines in place of building per-row records.
        from handguard import data_path
        from handguard.analysis import PATTERN_ORDER, ConfusionMatrix

        rng = np.random.default_rng(2024)
        rows = []
        for side in ("volar", "dorsal"):
            probs = ConfusionMatrix.from_csv(data_path(f"confusion_{side}.csv")).values
            probs = probs / probs.sum(axis=1, keepdims=True)
            for pid in range(1, 21):
                for i, actual in enumerate(PATTERN_ORDER):
                    for j in rng.choice(10, size=10, p=probs[i]):
                        rows.append(f"{pid},{side},{actual},{PATTERN_ORDER[j]}\n")
        path = tmp_path / "trials.csv"
        path.write_text("participant,side,actual,perceived\n"
                        + "".join(rows[i] for i in rng.permutation(len(rows))))
        digest = hashlib.sha256()
        for mode in ("confusion", "rates", "anova", "rmanova", "pairwise"):
            for side in ("volar", "dorsal"):
                source = data_path(f"confusion_{side}.csv") if mode == "rates" else path
                code, out, _ = run_cli(capsys, "analyze", mode, str(source), "--side", side)
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == (
            "e4d432db2b9b4c877ab413ea8296356f7a2c56d0072dc4d44ccd6783ea64b706"
        )


class TestSpeedBound:
    def test_worst_case_response_time(self, capsys):
        code, out, _ = run_cli(capsys, "speed-bound", "--response-time", "2.41")
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.15 / 3.01, abs=1e-6)

    def test_zero_zone_gap_gives_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "speed-bound", "--response-time", "1.0",
            "--activation", "0.25", "--critical", "0.25",
        )
        assert code == 0
        assert float(out.strip()) == 0.0

    def test_negative_response_time_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "speed-bound", "--response-time", "-1")
        assert code == 2

    @pytest.mark.parametrize("flag", [
        "--activation", "--critical", "--response-time", "--hand-speed", "--clearance",
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_flag_exit_2(self, capsys, flag, value):
        argv = ["speed-bound", f"{flag}={value}"]
        if flag != "--response-time":
            argv += ["--response-time", "1.0"]
        assert usage_error(*argv) == 2
        assert f"must be a finite number: {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        ("--response-time", "-1"),
        ("--response-time", "1.0", "--hand-speed", "0"),
        ("--response-time", "1.0", "--clearance", "-1"),
    ])
    def test_zero_width_zone_checks_the_other_inputs(self, capsys, bad):
        # a zero-width zone gives 0 only for inputs the default zones accept
        default_zones = run_cli(capsys, "speed-bound", *bad)
        zero_width = run_cli(
            capsys, "speed-bound", "--activation", "0.25", "--critical", "0.25", *bad)
        assert zero_width == default_zones
        assert default_zones[0] == 2
        assert default_zones[2] == (
            "error: response time and clearance must be >= 0, hand_speed > 0\n"
        )

    def test_zero_width_zone_with_no_reaction_time(self, capsys):
        # the formula's zero-denominator cap (10 m/s) must not reach a zero-width zone
        code, out, _ = run_cli(
            capsys, "speed-bound", "--activation", "0.25", "--critical", "0.25",
            "--response-time", "0", "--clearance", "0",
        )
        assert (code, out) == (0, "0.000000\n")


def _fresh(*code_args, cwd=None):
    """(exit code, stdout, stderr) of `python -c CODE ARGS...` with this handguard on the path."""
    env = {**os.environ, "PYTHONPATH": str(Path(handguard.__file__).parent.parent),
           "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-c", *code_args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


LAYERS = ("handguard.analysis", "handguard.sim", "handguard.marker_pose", "handguard.safety",
          "handguard.geometry", "handguard.gimbal")

LOADED_BY = """\
import contextlib, io, sys
from handguard import cli
cli.build_parser()
code = 0
if len(sys.argv) > 2:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(sys.argv[2:])
print(code, sorted(name for name in sys.argv[1].split() if name in sys.modules))
"""


class TestProcess:
    """What one process pays for the CLI, and that reusing its parser changes nothing."""

    @pytest.mark.parametrize("argv, unused", [
        ([], ("numpy",) + LAYERS),
        (["pattern", "1H"], ("numpy",) + LAYERS),
        (["analyze", "rates", str(handguard.data_path("confusion_volar.csv"))],
         ("handguard.sim", "handguard.marker_pose", "handguard.gimbal")),
        (["pose", "{obs}", "--intrinsics", "{intrinsics}"],
         ("handguard.sim", "handguard.gimbal", "handguard.safety", "handguard.analysis")),
        (["calibrate", "{obs}", "--intrinsics", "{intrinsics}"],
         ("handguard.sim", "handguard.gimbal", "handguard.safety", "handguard.analysis")),
    ], ids=["import and build_parser", "pattern", "analyze rates", "pose", "calibrate"])
    def test_import_budget(self, argv, unused, tmp_path, intrinsics_file):
        obs = tmp_path / "obs.csv"
        obs.write_text(observation_line(RigidTransform(np.eye(3), [0, 0, 1.0])) + "\n")
        argv = [arg.format(obs=obs, intrinsics=intrinsics_file) for arg in argv]
        code, out, err = _fresh(LOADED_BY, " ".join(unused), *argv)
        assert (code, err) == (0, "")
        assert out == "0 []\n"

    def test_reused_parser_answers_like_a_fresh_process(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        (tmp_path / "fresh").mkdir()
        calls = [
            ["analyze", "nosuch", "x.csv"],
            ["--help"],
            ["analyze", "rates", str(handguard.data_path("confusion_volar.csv"))],
            ["simulate", "--trace", "t.csv", "--metrics", "m.json"],
            ["analyze", "nosuch", "x.csv"],
            ["--help"],
        ]
        monkeypatch.chdir(tmp_path)
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = _fresh("import sys; from handguard.cli import main; sys.exit(main())",
                           *argv, cwd=tmp_path / "fresh")
            assert (code, captured.out, captured.err) == fresh, argv
        for name in ("t.csv", "m.json"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
