"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion output.
"""

import json
import math
import time

import numpy as np
import pytest

from rigalign.align import align_sequence
from rigalign.cli import run as cli_run
from rigalign.emission import (
    EmissionEvaluator,
    SyntheticFeatureSource,
    dino_similarity,
    estimate_scale,
    pca_basis,
    rasterize_silhouette,
)
from rigalign.geometry import (
    LABEL_OBJECT,
    PixelMap,
    SimilarityTransform,
    first_hit_map,
    apply_pose,
)
from rigalign.grids import build_rotation_grid
from rigalign.metrics import chamfer_distance, f_score, icp_with_scaling
from rigalign.synthetic import LAMBDA_ROT, LAMBDA_TRANS, SceneSpec, generate_synthetic_scene
from rigalign.viterbi import viterbi_decode

from conftest import const, random_blob_mesh
from oracles import (
    brute_force_decode,
    covering_radius,
    path_cost,
    random_unit_quaternions,
    rodrigues_error,
    solve_silhouette,
)
from test_metrics import chamfer_oracle, f_score_oracle


def test_criterion_01_viterbi_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    for _ in range(200):
        t = int(rng.integers(1, 6))
        s = int(rng.integers(1, 9))
        emissions = rng.integers(0, 5, size=(t, s)).astype(float)
        transitions = rng.integers(0, 3, size=(s, s)).astype(float)
        lam = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        fast = viterbi_decode(emissions, const(transitions), lam)
        slow = brute_force_decode(emissions, const(transitions), lam)
        assert np.array_equal(fast.states, slow.states)
        assert fast.total_cost == slow.total_cost  # zero tolerance
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 PASS: viterbi == brute force on 200 instances in {elapsed:.2f}s")


def test_criterion_02_metric_oracles():
    rng = np.random.default_rng(1002)
    for _ in range(100):
        a = rng.normal(size=(50, 3)) * 0.1
        b = rng.normal(size=(50, 3)) * 0.1
        assert chamfer_distance(a, b) == pytest.approx(chamfer_oracle(a, b), abs=1e-9)
        for thr in (0.005, 0.01):
            got = f_score(a, b, thr)
            want = f_score_oracle(a, b, thr)
            assert got == pytest.approx(want, abs=1e-9)
    a = rng.normal(size=(60, 3))
    b = rng.normal(size=(60, 3))
    assert chamfer_distance(a, b) == chamfer_distance(b, a)
    base = chamfer_distance(a, b)
    for k in (0.5, 2.0, 7.3):
        assert chamfer_distance(k * a, k * b) == pytest.approx(k * k * base, rel=1e-9)
    print("ACCEPTANCE 2 PASS: chamfer/f-score match O(N^2) oracles; symmetry and k^2 scaling hold")


def test_criterion_03_hand_worked_values():
    assert chamfer_distance(np.array([[0.0, 0, 0]]), np.array([[0.01, 0, 0]])) == 2.0
    p, r, f = f_score(np.array([[0.0, 0, 0], [0.02, 0, 0]]), np.array([[0.0, 0, 0]]), 0.010)
    assert (p, r) == (0.5, 1.0) and f == pytest.approx(2 / 3, abs=1e-15)
    rz90 = np.array([[0.0, -1.0, 0], [1.0, 0.0, 0], [0, 0, 1.0]])
    assert rodrigues_error(np.eye(3), rz90) == pytest.approx(math.pi / 2, abs=1e-12)
    print("ACCEPTANCE 3 PASS: CD = 2 cm^2, F = (0.5, 1, 2/3), rodrigues(I, Rz(90)) = pi/2")


def test_criterion_04_rotation_grid():
    start = time.monotonic()
    grid0 = build_rotation_grid(0)
    assert len(grid0) == 8
    radii = [covering_radius(build_rotation_grid(level), 100000, seed=1004) for level in (0, 1, 2)]
    assert radii[0] > radii[1] > radii[2]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 4 PASS: level-0 grid has 8 rotations; covering radius "
          f"{radii[0]:.3f} > {radii[1]:.3f} > {radii[2]:.3f} in {elapsed:.1f}s")


def test_criterion_05_icp_recovery():
    rng = np.random.default_rng(1005)
    source = rng.normal(size=(1000, 3)) * np.array([0.05, 0.03, 0.02])
    for trial in range(20):
        q = random_unit_quaternions(1, seed=5000 + trial)[0]
        truth = SimilarityTransform(q, rng.normal(size=3) * 0.2, float(rng.uniform(0.5, 2.0)))
        result = icp_with_scaling(source, truth.apply(source))
        angle = rodrigues_error(result.transform.matrix(), truth.matrix())
        t_err = float(np.linalg.norm(result.transform.translation - truth.translation))
        s_err = abs(result.transform.scale - truth.scale) / truth.scale
        assert angle < 1e-4 and t_err < 1e-4 and s_err < 1e-4
    print("ACCEPTANCE 5 PASS: ICP recovers 20 random similarity transforms below 1e-4")


def test_criterion_06_synthetic_end_to_end(tmp_path):
    start = time.monotonic()
    scene_dir = tmp_path / "scene"
    assert cli_run(["synth", "--out", str(scene_dir), "--frames", "10", "--noise-std", "0",
                    "--level", "2", "--seed", "11"]) == 0
    out = tmp_path / "out"
    assert cli_run(["track", "--config", str(scene_dir / "config.cfg"),
                    "--out", str(out)]) == 0
    track = json.loads((out / "track.json").read_text())
    gt = json.loads((scene_dir / "gt_track.json").read_text())
    gt_states = np.loadtxt(scene_dir / "gt_states.csv", delimiter=",", skiprows=1, dtype=int)
    from rigalign import meshio
    from rigalign.grids import build_translation_grid

    trans_grid = build_translation_grid(np.zeros(3), 0.05, (5, 5, 5))
    for t, (got, want) in enumerate(zip(track["frames"], gt["frames"])):
        # rotation states recovered exactly: decoded quaternions equal the
        # generating grid entries bit-for-bit
        assert np.array_equal(got["rotation_wxyz"], want["rotation_wxyz"])
        # translation state recovered exactly: decoded translation is the
        # object-cloud mean plus the generating (center) grid offset
        cloud = meshio.load_ply_cloud(scene_dir / f"cloud_{t:06d}.ply").filter_label(LABEL_OBJECT)
        expected = cloud.points.mean(axis=0) + trans_grid.offsets[gt_states[t, 1]]
        assert np.allclose(got["translation_m"], expected, atol=1e-9)
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["median"]["chamfer_cm2"] < 0.01

    # noisy variant with one adversarially corrupted frame
    spec = SceneSpec(frames=10, noise_std=0.005, rotation_level=2, seed=11)
    noisy = generate_synthetic_scene(spec)
    frames = [c.filter_label(LABEL_OBJECT).points for c in noisy.clouds]
    source = SyntheticFeatureSource(noisy.camera, noisy.feature_maps, noisy.field())
    evaluator = EmissionEvaluator(noisy.mesh, feature_source=source, seed=11)
    result = align_sequence(evaluator, frames, noisy.rot_grid, noisy.trans_grid,
                            lam_rot=LAMBDA_ROT, lam_trans=LAMBDA_TRANS)
    angles = noisy.rot_grid.pairwise_angles()
    table = result.rotation_table.copy()
    k = 4
    gt_state = noisy.rotation_states[k]
    far_state = int(np.argmax(angles[gt_state]))
    table[k] += 1.0
    table[k, far_state] = 0.0
    lam = 2.0  # strong smoothness so the outlier frame is overridden
    decoded = viterbi_decode(table, const(angles), lam)
    greedy = table.argmin(axis=1)
    assert greedy[k] == far_state
    assert decoded.total_cost <= path_cost(table, const(angles), lam, greedy) + 1e-12
    radius = covering_radius(noisy.rot_grid, 100000, seed=1006)
    assert angles[decoded.states[k], gt_state] <= radius
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 6 PASS: exact on-grid recovery, median CD "
          f"{metrics['median']['chamfer_cm2']:.4f} cm^2 < 0.01; adversarial frame decoded "
          f"{angles[decoded.states[k], gt_state]:.3f} rad from truth (radius {radius:.3f}); "
          f"total {elapsed:.0f}s")


def test_criterion_07_feature_similarity_bounds():
    def full(grid):
        """The feature map of an (H, W, C) grid with every pixel masked in."""
        return PixelMap(np.ones(grid.shape[:2], dtype=bool), grid.reshape(-1, grid.shape[2]))

    rng = np.random.default_rng(1007)
    basis = pca_basis([full(rng.normal(size=(16, 16, 8)))])
    for _ in range(1000):
        fa = full(rng.normal(size=(4, 4, 8)))
        fb = full(rng.normal(size=(4, 4, 8)))
        e = dino_similarity(fa, fb, basis)
        assert 0.0 <= e <= 1.0
    grid0 = rng.normal(size=(8, 8, 8))
    f0 = full(grid0)
    assert dino_similarity(f0, f0, basis) == 0.0
    mirrored = full(2 * basis.mean - grid0)
    assert dino_similarity(mirrored, f0, basis) == pytest.approx(1.0, abs=1e-9)
    a = np.tile(basis.mean, (2, 2, 1))
    b = np.tile(basis.mean, (2, 2, 1))
    a[0, 0] += basis.components[0]
    b[0, 0] += basis.components[1]
    ortho = dino_similarity(full(a), full(b), basis)
    assert ortho == pytest.approx(0.5, abs=1e-9)
    print("ACCEPTANCE 7 PASS: E in [0,1] x1000, E(F,F) = 0, anti-aligned = 1, orthogonal = 0.5")


def test_criterion_08_scale_estimation():
    rng = np.random.default_rng(1008)
    x = rng.normal(size=(200, 3)) * 0.03
    for k in (0.1, 1.0, 2.0, 7.3):
        assert estimate_scale(k * x, x) == pytest.approx(k, abs=1e-9)
    print("ACCEPTANCE 8 PASS: estimate_scale(kX, X) = k for k in {0.1, 1, 2, 7.3}")


def test_criterion_09_rasterizer_raycast_agreement(camera64):
    rng = np.random.default_rng(1009)
    for k in range(10):
        mesh = random_blob_mesh(rng, n_faces=int(rng.integers(5, 501)))
        q = random_unit_quaternions(1, seed=9000 + k)[0]
        pose = SimilarityTransform(q, np.array([0.0, 0.0, 0.1]), float(rng.uniform(0.5, 1.5)))
        silhouette = rasterize_silhouette(mesh, pose, camera64)
        oracle = first_hit_map(apply_pose(mesh, pose), camera64).mask
        assert np.array_equal(silhouette, oracle)
        assert np.array_equal(silhouette, solve_silhouette(mesh, pose, camera64))
    print("ACCEPTANCE 9 PASS: silhouettes equal the ray cast and the barycentric-solve oracle "
          "on 10 meshes up to 500 faces")


def test_criterion_10_track_determinism(tmp_path):
    scene_dir = tmp_path / "scene"
    assert cli_run(["synth", "--out", str(scene_dir), "--frames", "4", "--level", "1",
                    "--cloud-points", "512", "--seed", "23"]) == 0
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_run(["track", "--config", str(scene_dir / "config.cfg"),
                        "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("track.json", "metrics.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    print("ACCEPTANCE 10 PASS: byte-identical track.json and metrics.json across reruns")
