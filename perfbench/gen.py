"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and writes plain files; the program
under test only ever sees those files and CLI arguments.  Ground truth that
the checks need (true poses, the trial draws) goes into sidecar files that
only the benchmark reads.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

PATTERN_ORDER = ("1H", "1L", "2H", "2L", "3H", "3L", "4H", "4L", "5H", "5L")

# Every workload but stats_study maps the workload seed onto this many
# input seeds, for each of which pins.json holds the seed commit's outputs:
# sim_clean's bytes, sim_noisy's zone error and pose_batch's pose errors.
PINNED_SEEDS = 16

# sim_noisy: a short run with the robot loop moved to the near end of its
# path, so patterns, an escape, a halt and zone flicker all happen early.
NOISY_DURATION_S = 1.5
NOISY_PIXEL_SIGMA = 0.5

# pose_batch: the pose-noise envelope of the acceptance criteria (4 cm
# marker, depth 0.6-1.4 m, tilt <= 0.6 rad, 0.5 px noise on every corner).
POSE_ROWS = 100
POSE_MARKER_SIDE = 0.04
POSE_PIXEL_SIGMA = 0.5
INTRINSICS = {"fx": 800.0, "fy": 800.0, "cx": 640.0, "cy": 360.0,
              "image_width": 1280, "image_height": 720}

# stats_study: participants x sides x patterns x trials drawn from the
# bundled confusion matrices.
STUDY_PARTICIPANTS = 20
STUDY_TRIALS_PER_PATTERN = 10
SIDES = ("volar", "dorsal")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


def pinned_seed(seed: int) -> int:
    return seed % PINNED_SEEDS


def sim_noisy_scenario(default_scenario: Path, seed: int, out: Path) -> dict:
    """Write a noisy near-path variant of the bundled scenario; returns it."""
    rng = _rng(pinned_seed(seed), 2)
    doc = json.loads(default_scenario.read_text())
    x = float(rng.uniform(-0.02, 0.02))
    far = 0.35 + float(rng.uniform(-0.01, 0.01))
    near = 0.62 + float(rng.uniform(-0.01, 0.01))
    speed = float(rng.uniform(0.09, 0.11))
    doc.update({
        "seed": int(rng.integers(2**31)),
        "duration": NOISY_DURATION_S,
        "pixel_noise_sigma": NOISY_PIXEL_SIGMA,
        "robot_waypoints": [
            {"point": [x, far, 0.2], "speed": speed},
            {"point": [x, near, 0.2], "speed": speed},
        ],
    })
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def rotation_from_axis_angle(axis, angle: float) -> np.ndarray:
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def marker_corners(side: float) -> np.ndarray:
    h = side / 2.0
    return np.array([[-h, h, 0.0], [h, h, 0.0], [h, -h, 0.0], [-h, -h, 0.0]])


def project(rotation: np.ndarray, translation: np.ndarray, side: float) -> np.ndarray:
    pts = marker_corners(side) @ rotation.T + translation
    k = INTRINSICS
    return np.column_stack([k["fx"] * pts[:, 0] / pts[:, 2] + k["cx"],
                            k["fy"] * pts[:, 1] / pts[:, 2] + k["cy"]])


def pose_batch(seed: int, obs_csv: Path, intrinsics_json: Path, truth_json: Path) -> None:
    """Independent random poses; truth (pose, noiseless corners) in a sidecar."""
    rng = _rng(pinned_seed(seed), 3)
    truth = []
    lines = ["marker_id,u0,v0,u1,v1,u2,v2,u3,v3"]
    for i in range(POSE_ROWS):
        r = rotation_from_axis_angle(rng.normal(size=3), rng.uniform(-0.6, 0.6))
        t = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15),
                      rng.uniform(0.6, 1.4)])
        clean = project(r, t, POSE_MARKER_SIDE)
        noisy = clean + rng.normal(0.0, POSE_PIXEL_SIGMA, size=clean.shape)
        lines.append(",".join([str(i)] + [repr(float(v)) for v in noisy.reshape(-1)]))
        truth.append({"r": r.reshape(-1).tolist(), "t": t.tolist(),
                      "corners": clean.reshape(-1).tolist()})
    obs_csv.write_text("\n".join(lines) + "\n")
    intrinsics_json.write_text(json.dumps(INTRINSICS) + "\n")
    truth_json.write_text(json.dumps(truth) + "\n")


def read_confusion(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    m = np.array([[float(c) for c in row[1:]] for row in rows])
    return m / m.sum(axis=1, keepdims=True)


def stats_study(seed: int, data_dir: Path, trials_csv: Path, matrix_csv: dict) -> list:
    """Trials CSV drawn from the bundled matrices plus one empirical matrix
    CSV per side (input of `analyze rates`); returns the trial tuples."""
    rng = _rng(seed, 4)
    trials = []
    for side in SIDES:
        probs = read_confusion(data_dir / f"confusion_{side}.csv")
        for pid in range(1, STUDY_PARTICIPANTS + 1):
            for i, actual in enumerate(PATTERN_ORDER):
                drawn = rng.choice(10, size=STUDY_TRIALS_PER_PATTERN, p=probs[i])
                trials.extend((pid, side, actual, PATTERN_ORDER[j]) for j in drawn)
    order = rng.permutation(len(trials))
    trials = [trials[i] for i in order]
    with open(trials_csv, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["participant", "side", "actual", "perceived"])
        w.writerows(trials)
    for side in SIDES:
        m = empirical_confusion(trials, side)
        with open(matrix_csv[side], "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pattern", *PATTERN_ORDER])
            for label, row in zip(PATTERN_ORDER, m):
                w.writerow([label, *[repr(float(v)) for v in row]])
    return trials


def empirical_confusion(trials, side: str) -> np.ndarray:
    index = {p: i for i, p in enumerate(PATTERN_ORDER)}
    counts = np.zeros((10, 10))
    for _, s, actual, perceived in trials:
        if s == side:
            counts[index[actual], index[perceived]] += 1
    return counts / counts.sum(axis=1, keepdims=True)
