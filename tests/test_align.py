import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rigalign.align import (PoseTrack, align_sequence, score_frame, track_from_json,
                            track_to_json, translation_costs)
from rigalign.emission import EmissionEvaluator, SyntheticFeatureSource, TableFeatureSource
from rigalign.errors import DegenerateGeometry, InvalidInput
from rigalign.geometry import LABEL_OBJECT, PointCloud, quat_to_matrix
from rigalign.grids import RotationGrid, build_rotation_grid, build_translation_grid
from rigalign.synthetic import LAMBDA_ROT, LAMBDA_TRANS, SceneSpec, generate_synthetic_scene
from rigalign.viterbi import viterbi_decode

from conftest import const
from oracles import covering_radius, dense_translation_costs, path_cost, two_step_poses


def small_scene(frames=4, noise=0.0, seed=3, level=1):
    return generate_synthetic_scene(
        SceneSpec(frames=frames, noise_std=noise, rotation_level=level,
                  cloud_points=512, hand_points=50, seed=seed)
    )


def object_clouds(scene):
    return [c.filter_label(LABEL_OBJECT) for c in scene.clouds]


def run_alignment(scene, frames=None, **kwargs):
    frames = object_clouds(scene) if frames is None else frames
    source = SyntheticFeatureSource(scene.camera, scene.feature_maps, scene.field())
    evaluator = EmissionEvaluator(scene.mesh, feature_source=source, sample_count=512,
                                  seed=scene.spec.seed)
    defaults = dict(lam_rot=LAMBDA_ROT, lam_trans=LAMBDA_TRANS)
    defaults.update(kwargs)
    return align_sequence(evaluator, frames, scene.rot_grid, scene.trans_grid, **defaults)


class TestAlignSequence:
    def test_noise_free_exact_recovery(self):
        scene = small_scene(frames=6, seed=5)
        res = run_alignment(scene)
        assert np.array_equal(res.rotation_path.states, scene.rotation_states)
        assert np.array_equal(
            res.translation_path.states, np.full(6, scene.translation_state)
        )

    def test_single_frame_matches_sequence(self):
        scene = small_scene(frames=1, seed=6)
        res = run_alignment(scene)
        pose = res.track.pose(0)
        # a single frame decodes to its per-frame argmin in both phases
        assert res.rotation_path.states[0] == res.rotation_table.costs[0].argmin()
        assert res.translation_path.states[0] == res.translation_table.costs[0].argmin()
        # noise-free single frame recovers the generating grid rotation
        # (tolerance covers the pose's unit-norm renormalization only)
        gt_quat = scene.rot_grid.quaternions[scene.rotation_states[0]]
        assert np.allclose(pose.rotation, gt_quat, atol=1e-12)

    def test_single_frame_builds_no_rotation_transition(self, monkeypatch):
        # one frame has no step t >= 1, so viterbi_decode never asks for the
        # (S, S) angle matrix; building it anyway costs 2.16 GB at level 4
        def refuse(self):
            raise AssertionError("pairwise_angles built for a single frame")

        monkeypatch.setattr(RotationGrid, "pairwise_angles", refuse)
        res = run_alignment(small_scene(frames=1, seed=6))
        assert res.rotation_path.states[0] == res.rotation_table.costs[0].argmin()

    def test_grids_of_size_one(self):
        scene = small_scene(frames=2, seed=7, level=0)
        rot1 = build_rotation_grid(0)
        rot1.quaternions = rot1.quaternions[:1]
        trans1 = build_translation_grid(np.zeros(3), 0.0, (1, 1, 1))
        frames = object_clouds(scene)
        source = SyntheticFeatureSource(scene.camera, scene.feature_maps, scene.field())
        evaluator = EmissionEvaluator(scene.mesh, feature_source=source, sample_count=256, seed=1)
        res = align_sequence(evaluator, frames, rot1, trans1)
        assert np.array_equal(res.rotation_path.states, [0, 0])
        assert np.array_equal(res.translation_path.states, [0, 0])

    def test_empty_frame_cloud_rejected(self):
        scene = small_scene(frames=2, seed=7, level=0)
        frames = object_clouds(scene)
        frames[1] = PointCloud(np.zeros((0, 3)))
        with pytest.raises(InvalidInput, match="frame 1 needs a non-empty object cloud"):
            run_alignment(scene, frames)

    def test_scale_estimated_once_via_median(self):
        scene = small_scene(frames=5, seed=8)
        res = run_alignment(scene)
        assert res.track.scale == pytest.approx(scene.track.scale, rel=0.02)

    def test_deterministic_across_runs(self):
        scene = small_scene(frames=3, seed=9)
        first = run_alignment(scene)
        second = run_alignment(scene)
        assert np.array_equal(first.rotation_path.states, second.rotation_path.states)
        assert np.array_equal(first.translation_path.states, second.translation_path.states)
        assert np.array_equal(first.rotation_table.costs, second.rotation_table.costs)
        assert np.array_equal(first.translation_table.costs, second.translation_table.costs)

    def test_adversarial_frame_overridden_by_smoothness(self):
        scene = small_scene(frames=6, noise=0.005, seed=10)
        res = run_alignment(scene)
        table = res.rotation_table.costs.copy()
        angles = scene.rot_grid.pairwise_angles()
        k = 3
        gt_state = scene.rotation_states[k]
        far_state = int(np.argmax(angles[gt_state]))
        # corrupt frame k so its per-frame argmin is a far-away rotation
        table[k] += 1.0
        table[k, far_state] = 0.0
        lam = 2.0
        decoded = viterbi_decode(table, const(angles), lam)
        greedy = table.argmin(axis=1)
        assert greedy[k] == far_state
        assert decoded.total_cost <= path_cost(table, const(angles), lam, greedy) + 1e-12
        assert decoded.states[k] != far_state
        radius = covering_radius(scene.rot_grid, 20000, seed=0)
        assert angles[decoded.states[k], gt_state] <= radius


class TestScoredPoses:
    """align_sequence scores each grid pose with the scale folded in from the
    start; poses and rows equal, bitwise, those of rigid states rescaled
    afterwards."""

    def test_poses_and_rows_match_two_step_construction(self):
        scene = small_scene(frames=2, seed=12, level=2)
        frames = object_clouds(scene)
        source = SyntheticFeatureSource(scene.camera, scene.feature_maps, scene.field())
        evaluator = EmissionEvaluator(scene.mesh, feature_source=source, sample_count=256, seed=4)
        score = evaluator.frame_terms
        calls = []

        def recording(phase, t, points, poses):
            terms = score(phase, t, points, poses)
            calls.append((phase, t, points, poses, terms))
            return terms

        evaluator.frame_terms = recording
        res = align_sequence(evaluator, frames, scene.rot_grid, scene.trans_grid)
        scale = res.track.scale
        assert scale != 1.0
        assert [c[:2] for c in calls] == [("rotation", 0), ("rotation", 1),
                                          ("translation", 0), ("translation", 1)]
        quats = scene.rot_grid.quaternions
        offsets = scene.trans_grid.offsets
        assert len(quats) == 272
        for phase, t, points, poses, (cd, dino) in calls:
            mu = frames[t].points.mean(axis=0)
            if phase == "rotation":
                want = two_step_poses(quats, [mu] * len(quats), scale)
            else:
                q = quats[res.rotation_path.states[t]]
                want = two_step_poses([q] * len(offsets), mu + offsets, scale)
            assert len(poses) == len(want)
            for got, old in zip(poses, want):
                assert got.matrix().tobytes() == quat_to_matrix(old.rotation).tobytes()
                assert got.rotation.tobytes() == old.rotation.tobytes()
                assert got.translation.tobytes() == old.translation.tobytes()
                assert got.scale == old.scale
            want_cd, want_dino = score(phase, t, points, want)
            assert cd.tobytes() == want_cd.tobytes()
            assert dino.tobytes() == want_dino.tobytes()


class TestScoreFrame:
    def test_poses_are_quaternion_major(self):
        class Recorder:
            def frame_terms(self, phase, t, points, poses):
                self.poses = poses
                return np.arange(len(poses), dtype=float), None

            def combine_terms(self, cd, dino):
                return cd

        quats = build_rotation_grid(0).quaternions[:2]
        positions = np.arange(9.0).reshape(3, 3)
        recorder = Recorder()
        row = score_frame(recorder, "rotation", 0, None, quats, positions, 1.5)
        assert np.array_equal(row, np.arange(6.0))
        for k, pose in enumerate(recorder.poses):
            assert np.array_equal(pose.rotation, quats[k // 3])
            assert np.array_equal(pose.translation, positions[k % 3])
            assert pose.scale == 1.5

    @pytest.mark.parametrize("source", ["synthetic", "table"])
    def test_scorer_and_its_arguments_pickle(self, source):
        # a process pool over frames sends exactly these to its workers
        scene = small_scene(frames=2, seed=12)
        frames = object_clouds(scene)
        quats = scene.rot_grid.quaternions
        offsets = scene.trans_grid.offsets
        if source == "synthetic":
            features = SyntheticFeatureSource(scene.camera, scene.feature_maps, scene.field())
        else:
            rng = np.random.default_rng(0)
            features = TableFeatureSource(rng.random((2, len(quats))),
                                          rng.random((2, len(offsets))))
        evaluator = EmissionEvaluator(scene.mesh, feature_source=features, sample_count=256,
                                      seed=4)
        assert pickle.loads(pickle.dumps(score_frame)) is score_frame
        mu = frames[1].points.mean(axis=0)
        for phase, phase_quats, positions in (("rotation", quats, mu[None]),
                                              ("translation", quats[3:4], mu + offsets)):
            args = (evaluator, frames[1], phase_quats, positions, 1.05)
            want = score_frame(evaluator, phase, 1, *args[1:])
            copy = pickle.loads(pickle.dumps(args))
            assert copy[0] is not evaluator
            assert score_frame(copy[0], phase, 1, *copy[1:]).tobytes() == want.tobytes()


def position_arrays(max_states: int = 40):
    coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    return st.integers(1, max_states).flatmap(lambda n: arrays(np.float64, (n, 3),
                                                                elements=coords))


class TestTranslationCosts:
    @settings(max_examples=200, deadline=None)
    @given(prev=position_arrays(), cur=position_arrays())
    def test_equals_the_dense_formula_bitwise(self, prev, cur):
        got = translation_costs(prev, cur)
        assert got.dtype == np.float64 and got.shape == (len(prev), len(cur))
        assert got.tobytes() == dense_translation_costs(prev, cur).tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_positions_whose_squared_distance_overflows_rejected(self):
        near = np.array([[1e153, 0.0, 0.0]])
        assert translation_costs(near, -near)[0, 0] == 2e153  # its square is 4e306
        with pytest.raises(DegenerateGeometry, match="translation costs overflow"):
            translation_costs(10 * near, -10 * near)


class TestPoseTrackJson:
    def test_round_trip(self):
        track = PoseTrack(
            scale=1.25,
            rotations=np.array([[1.0, 0, 0, 0], [0.5, 0.5, 0.5, 0.5]]),
            translations=np.array([[0.0, 0, 0.4], [0.01, 0.02, 0.39]]),
            timestamps=np.array([0, 1]),
        )
        text = track_to_json(track)
        back = track_from_json(text)
        assert back.scale == track.scale
        assert np.allclose(back.rotations, track.rotations)
        assert np.allclose(back.translations, track.translations)
        assert np.array_equal(back.timestamps, track.timestamps)
        # byte-stable serialization
        assert track_to_json(back) == text

    def test_schema_fields(self):
        import json

        track = PoseTrack(1.0, np.array([[1.0, 0, 0, 0]]), np.zeros((1, 3)), np.array([4]))
        obj = json.loads(track_to_json(track))
        assert set(obj.keys()) == {"scale", "frames"}
        assert set(obj["frames"][0].keys()) == {"t", "rotation_wxyz", "translation_m"}
        assert obj["frames"][0]["t"] == 4

    @pytest.mark.parametrize("scale, translation", [
        ("NaN", "0.4"), ("Infinity", "0.4"), ("0.0", "0.4"), ("-1.0", "0.4"),
        ("1.0", "NaN"), ("1.0", "-Infinity"),
    ])
    def test_non_finite_values_rejected(self, scale, translation):
        text = ('{"scale": %s, "frames": [{"t": 0, "rotation_wxyz": [1, 0, 0, 0], '
                '"translation_m": [0, 0, %s]}]}' % (scale, translation))
        with pytest.raises(InvalidInput, match="invalid pose track JSON"):
            track_from_json(text)

    def test_pose_includes_scale(self):
        track = PoseTrack(2.0, np.array([[1.0, 0, 0, 0]]), np.array([[0.0, 0, 1]]), np.array([0]))
        moved = track.pose(0).apply(np.array([[1.0, 0, 0]]))
        assert np.allclose(moved, [[2.0, 0, 1.0]])
