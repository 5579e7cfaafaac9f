import numpy as np
import pytest

from rigalign.align import PoseTrack, align_sequence, track_from_json, track_to_json
from rigalign.emission import SyntheticFeatureSource
from rigalign.errors import InvalidInput, ParseError
from rigalign.geometry import PointCloud
from rigalign.geometry import LABEL_OBJECT
from rigalign.grids import build_rotation_grid, build_translation_grid
from rigalign.synthetic import SceneSpec, generate_synthetic_scene
from rigalign.viterbi import viterbi_decode

from conftest import const
from oracles import covering_radius, path_cost


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
    defaults = dict(
        feature_source=source,
        lam_rot=scene.spec.lambda_rot, lam_trans=scene.spec.lambda_trans,
        sample_count=512, seed=scene.spec.seed,
    )
    defaults.update(kwargs)
    return align_sequence(scene.mesh, frames, scene.rot_grid, scene.trans_grid, **defaults)


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

    def test_grids_of_size_one(self):
        scene = small_scene(frames=2, seed=7, level=0)
        rot1 = build_rotation_grid(0)
        rot1.quaternions = rot1.quaternions[:1]
        trans1 = build_translation_grid(np.zeros(3), 0.0, (1, 1, 1))
        frames = object_clouds(scene)
        source = SyntheticFeatureSource(scene.camera, scene.feature_maps, scene.field())
        res = align_sequence(scene.mesh, frames, rot1, trans1, feature_source=source,
                             sample_count=256, seed=1)
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
        with pytest.raises(ParseError, match="invalid pose track JSON"):
            track_from_json(text)

    def test_pose_includes_scale(self):
        track = PoseTrack(2.0, np.array([[1.0, 0, 0, 0]]), np.array([[0.0, 0, 1]]), np.array([0]))
        moved = track.pose(0).apply(np.array([[1.0, 0, 0]]))
        assert np.allclose(moved, [[2.0, 0, 1.0]])
        rigid = track.rigid(0).apply(np.array([[1.0, 0, 0]]))
        assert np.allclose(rigid, [[1.0, 0, 1.0]])
