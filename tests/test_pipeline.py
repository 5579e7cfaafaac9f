import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rigalign
from rigalign import emission, meshio
from rigalign.cli import run as cli_run
from rigalign.config import load_config
from rigalign.emission import TableFeatureSource
from rigalign.errors import InvalidInput
from rigalign.geometry import LABEL_OBJECT, Camera, PointCloud, TriangleMesh
from rigalign.pipeline import load_run_inputs, run_track
from rigalign.synthetic import SceneSpec, generate_synthetic_scene, write_scene

from oracles import points_to_mesh_distance


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    spec = SceneSpec(frames=4, noise_std=0.0, rotation_level=1, cloud_points=512,
                     hand_points=50, seed=13)
    write_scene(generate_synthetic_scene(spec), out)
    return out


def table_scene(scene_dir, root, rot, trans):
    """A copy of scene_dir whose feature errors come from the two given tables."""
    shutil.copytree(scene_dir, root)
    meshio.save_emission_table(rot, root / "rot.emit")
    meshio.save_emission_table(trans, root / "trans.emit")
    cfg_text = (root / "config.cfg").read_text()
    cfg_text = cfg_text.replace("feature_source = synthetic", "feature_source = table")
    cfg_text = cfg_text.replace("dino_table_rot = ", "dino_table_rot = rot.emit")
    cfg_text = cfg_text.replace("dino_table_trans = ", "dino_table_trans = trans.emit")
    (root / "config.cfg").write_text(cfg_text)
    return root


def maps_scene(tmp_path):
    """A one-frame scene whose candidate features come from per-state map files
    (8 rotations, 27 translations); returns the root, features and mask used."""
    spec = SceneSpec(frames=1, noise_std=0.0, rotation_level=0, cloud_points=128,
                     hand_points=0, translation_counts=(3, 3, 3), seed=17)
    scene = generate_synthetic_scene(spec)
    root = tmp_path / "maps"
    write_scene(scene, root)
    feat_dir = root / "cand"
    feat_dir.mkdir()
    h, w = scene.camera.height, scene.camera.width
    full = np.ones((h, w), dtype=bool)
    feats = np.zeros((h, w, spec.feature_channels), dtype=np.float32)
    for j in range(8):
        meshio.save_fmap(feats, full, feat_dir / f"feat_rotation_000000_{j:06d}.fmap")
    for j in range(27):
        meshio.save_fmap(feats, full, feat_dir / f"feat_translation_000000_{j:06d}.fmap")
    cfg_text = (root / "config.cfg").read_text()
    cfg_text = cfg_text.replace("feature_source = synthetic", "feature_source = maps")
    cfg_text = cfg_text.replace("candidate_features_dir = ", "candidate_features_dir = cand")
    (root / "config.cfg").write_text(cfg_text)
    return root, feats, full


class TestSyntheticScene:
    def test_zero_noise_cloud_lies_on_posed_model(self):
        scene = generate_synthetic_scene(SceneSpec(frames=1, noise_std=0.0, rotation_level=1,
                                                   cloud_points=256, hand_points=0, seed=1))
        obj = scene.clouds[0].filter_label(2)
        d = points_to_mesh_distance(obj.points, scene.gt_mesh(0))
        assert d.max() < 1e-9

    def test_same_seed_identical_scenes(self):
        spec = SceneSpec(frames=2, noise_std=0.002, rotation_level=1, cloud_points=128, seed=5)
        a = generate_synthetic_scene(spec)
        b = generate_synthetic_scene(spec)
        assert np.array_equal(a.rotation_states, b.rotation_states)
        for ca, cb in zip(a.clouds, b.clouds):
            assert np.array_equal(ca.points, cb.points)
        for fa, fb in zip(a.feature_maps, b.feature_maps):
            assert np.array_equal(fa.mask, fb.mask)
            assert np.array_equal(fa.values, fb.values)

    def test_noise_matches_half_normal_expectation(self):
        std = 0.005
        scene = generate_synthetic_scene(SceneSpec(frames=2, noise_std=std, rotation_level=1,
                                                   cloud_points=2000, hand_points=0, seed=6))
        obj = scene.clouds[0].filter_label(2)
        d = points_to_mesh_distance(obj.points, scene.gt_mesh(0))
        assert 0.0035 <= d.mean() <= 0.0065

    def test_written_scene_parses_as_run_inputs(self, scene_dir):
        cfg = load_config(scene_dir / "config.cfg")
        inputs = load_run_inputs(cfg)
        assert len(inputs.frames) == 4
        assert inputs.ground_truths is not None
        # the synthetic source carries the scene's camera, its 4 input maps
        # and a basis over their 8 channels
        assert inputs.feature_source.camera == meshio.load_camera(scene_dir / "camera.json")
        assert len(inputs.feature_source.inputs) == 4
        assert inputs.feature_source.basis.components.shape == (3, 8)
        # hand decoys must have been filtered out: a frame is its cloud's
        # object-labeled points
        for t, frame in enumerate(inputs.frames):
            cloud = meshio.load_ply_cloud(scene_dir / f"cloud_{t:06d}.ply")
            assert np.array_equal(frame, cloud.points[cloud.labels == LABEL_OBJECT])
            assert 0 < len(frame) < len(cloud)


class TestRunTrack:
    def test_recovers_and_scores(self, scene_dir, tmp_path):
        cfg = load_config(scene_dir / "config.cfg")
        out = tmp_path / "out"
        written = run_track(cfg, out)
        track = json.loads((out / "track.json").read_text())
        gt = json.loads((scene_dir / "gt_track.json").read_text())
        states = np.loadtxt(scene_dir / "gt_states.csv", delimiter=",", skiprows=1, dtype=int)
        assert len(track["frames"]) == 4
        # exact rotation-state recovery implies the decoded quaternions equal gt
        for got, want in zip(track["frames"], gt["frames"]):
            assert np.allclose(got["rotation_wxyz"], want["rotation_wxyz"], atol=1e-12)
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["median"]["chamfer_cm2"] < 0.01
        assert metrics["median"]["f5"] > 0.99
        assert set(metrics["median"].keys()) == {
            "chamfer_cm2", "f5", "f10", "precision_5mm", "recall_5mm",
            "precision_10mm", "recall_10mm",
        }

    def test_byte_identical_reruns(self, scene_dir, tmp_path):
        cfg = load_config(scene_dir / "config.cfg")
        cfg.eval_samples = 2000  # determinism does not depend on sample count
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_track(cfg, out1)
        run_track(cfg, out2)
        assert (out1 / "track.json").read_bytes() == (out2 / "track.json").read_bytes()
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()

    def test_byte_identical_whatever_the_thread_counts(self, scene_dir, tmp_path):
        """Fresh processes with the query pool at 1 and at 3 workers, and one
        with OPENBLAS_NUM_THREADS preset to 2, write the same bytes. Queries go
        in chunks of 256 points, so that this scene's queries do split."""
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        cfg_text = (scene / "config.cfg").read_text()
        (scene / "config.cfg").write_text(cfg_text.replace("eval_samples = 10000",
                                                           "eval_samples = 2000"))
        code = ("import sys\nfrom rigalign import cli, metrics\nmetrics.QUERY_CHUNK = 256\n"
                "if sys.argv[1] != 'default':\n    metrics._WORKERS = int(sys.argv[1])\n"
                "sys.exit(cli.run(['track', '--config', sys.argv[2], '--out', sys.argv[3]]))")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(rigalign.__file__).parent.parent)
        outputs = []
        for workers, extra in (("1", {}), ("3", {}), ("default", {"OPENBLAS_NUM_THREADS": "2"})):
            out = tmp_path / f"out-{workers}"
            result = subprocess.run(
                [sys.executable, "-c", code, workers, str(scene / "config.cfg"), str(out)],
                capture_output=True, text=True, timeout=300, env=dict(env, **extra))
            assert result.returncode == 0, result.stderr
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(outputs[0]) == ["emissions_rotation.emit", "emissions_translation.emit",
                                      "metrics.json", "track.json"]
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_missing_feature_file_fails_fast(self, scene_dir, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(scene_dir, broken)
        victim = broken / "feat_000002.fmap"
        victim.unlink()
        cfg = load_config(broken / "config.cfg")
        with pytest.raises(InvalidInput, match=str(victim)):
            run_track(cfg, tmp_path / "never")
        assert not (tmp_path / "never").exists()

    def test_inputs_never_mutated(self, scene_dir, tmp_path):
        import hashlib

        def digest():
            out = {}
            for p in sorted(scene_dir.iterdir()):
                if p.is_file():
                    out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
            return out

        before = digest()
        cfg = load_config(scene_dir / "config.cfg")
        cfg.eval_samples = 2000
        run_track(cfg, tmp_path / "out")
        assert digest() == before

    def test_emission_tables_exported(self, scene_dir, tmp_path):
        cfg = load_config(scene_dir / "config.cfg")
        cfg.eval_samples = 2000
        out = tmp_path / "out"
        run_track(cfg, out)
        rot = meshio.load_emission_table(out / "emissions_rotation.emit")
        trans = meshio.load_emission_table(out / "emissions_translation.emit")
        assert rot.shape == (4, 40)  # level-1 grid
        assert trans.shape == (4, 125)
        assert np.isfinite(rot).all() and (rot >= 0).all()

    def test_table_feature_source_path(self, scene_dir, tmp_path):
        root = table_scene(scene_dir, tmp_path / "tbl", np.zeros((4, 40)), np.zeros((4, 125)))
        cfg = load_config(root / "config.cfg")
        cfg.eval_samples = 2000
        out = tmp_path / "out"
        run_track(cfg, out)
        assert (out / "track.json").is_file()
        # align keeps the full four-row tables and scores the first frame only
        run_track(cfg, tmp_path / "align", first_frame_only=True)
        track = json.loads((out / "track.json").read_text())
        single = json.loads((tmp_path / "align" / "track.json").read_text())
        assert [f["t"] for f in single["frames"]] == [0]
        assert single["frames"][0]["rotation_wxyz"] == track["frames"][0]["rotation_wxyz"]
        metrics = json.loads((tmp_path / "align" / "metrics.json").read_text())
        assert len(metrics["frames"]) == 1
        for name, states in (("rotation", 40), ("translation", 125)):
            table = meshio.load_emission_table(tmp_path / "align" / f"emissions_{name}.emit")
            assert table.shape == (1, states)

    def test_table_source_reads_no_feature_maps_and_needs_no_camera(self, scene_dir, tmp_path,
                                                                    monkeypatch):
        rng = np.random.default_rng(5)
        root = table_scene(scene_dir, tmp_path / "tbl", rng.random((4, 40)), rng.random((4, 125)))
        cfg = load_config(root / "config.cfg")
        cfg.gt_dir = ""
        run_track(cfg, tmp_path / "with")
        for p in root.glob("feat_*.fmap"):
            p.unlink()
        cfg.camera = ""
        fitted = []
        real_pca_basis = emission.pca_basis
        monkeypatch.setattr(emission, "pca_basis",
                            lambda maps: fitted.append(maps) or real_pca_basis(maps))
        assert isinstance(load_run_inputs(cfg).feature_source, TableFeatureSource)
        run_track(cfg, tmp_path / "without")
        assert fitted == []  # no PCA basis is fitted
        for name in ("track.json", "emissions_rotation.emit", "emissions_translation.emit"):
            assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()

    def test_each_ply_parsed_once(self, scene_dir, tmp_path, monkeypatch):
        from collections import Counter

        parsed = Counter()
        read_ply = meshio._read_ply

        def counting(path):
            parsed[Path(path).name] += 1
            return read_ply(path)

        monkeypatch.setattr(meshio, "_read_ply", counting)
        cfg = load_config(scene_dir / "config.cfg")
        cfg.eval_samples = 500
        run_track(cfg, tmp_path / "out")
        assert (tmp_path / "out" / "metrics.json").is_file()
        expected = {f"{kind}_{t:06d}.ply" for kind in ("cloud", "gt") for t in range(4)}
        assert parsed == Counter(expected)

    def test_table_shape_mismatch_rejected(self, scene_dir, tmp_path):
        root = table_scene(scene_dir, tmp_path / "badtbl", np.zeros((4, 7)), np.zeros((4, 125)))
        with pytest.raises(InvalidInput, match="dino_table_rot"):
            run_track(load_config(root / "config.cfg"), tmp_path / "never")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.5])
    def test_table_values_checked_at_load(self, scene_dir, tmp_path, value):
        rot = np.zeros((4, 40))
        rot[2, 7] = value
        root = table_scene(scene_dir, tmp_path / "tbl", rot, np.zeros((4, 125)))
        cfg = load_config(root / "config.cfg")
        if np.isnan(value):  # NaN marks an empty-overlap state
            assert load_run_inputs(cfg).feature_source is not None
        else:
            with pytest.raises(InvalidInput, match="dino_table_rot holds infinite or negative"):
                load_run_inputs(cfg)

    def test_maps_feature_source_path(self, tmp_path):
        root, feats, full = maps_scene(tmp_path)
        feat_dir = root / "cand"
        cfg = load_config(root / "config.cfg")
        cfg.eval_samples = 2000
        run_track(cfg, tmp_path / "out")
        assert (tmp_path / "out" / "track.json").is_file()
        # removing one candidate map must fail validation before compute
        (feat_dir / "feat_translation_000000_000013.fmap").unlink()
        with pytest.raises(InvalidInput, match="feat_translation_000000_000013"):
            run_track(load_config(root / "config.cfg"), tmp_path / "never")
        # a candidate map of another size than the camera's is rejected too
        meshio.save_fmap(feats[:32], full[:32], feat_dir / "feat_translation_000000_000013.fmap")
        meshio.save_fmap(feats[:32], full[:32], feat_dir / "feat_rotation_000000_000000.fmap")
        with pytest.raises(InvalidInput, match="feat_rotation_000000_000000"):
            run_track(load_config(root / "config.cfg"), tmp_path / "never")


class TestCli:
    def test_grid_subcommand(self, capsys):
        assert cli_run(["grid", "--level", "0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "w,x,y,z"
        assert len(lines) == 9
        w, x, y, z = (float(v) for v in lines[1].split(","))
        assert abs(w * w + x * x + y * y + z * z - 1) < 1e-12

    def test_synth_then_track_and_align_consistency(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert cli_run(["synth", "--out", str(scene), "--frames", "2", "--level", "1",
                        "--cloud-points", "256", "--hand-points", "20", "--seed", "3"]) == 0
        capsys.readouterr()
        assert cli_run(["track", "--config", str(scene / "config.cfg"),
                        "--out", str(tmp_path / "t")]) == 0
        assert cli_run(["align", "--config", str(scene / "config.cfg"),
                        "--out", str(tmp_path / "a")]) == 0
        track = json.loads((tmp_path / "t" / "track.json").read_text())
        single = json.loads((tmp_path / "a" / "track.json").read_text())
        assert len(single["frames"]) == 1
        assert single["frames"][0]["rotation_wxyz"] == track["frames"][0]["rotation_wxyz"]

    def test_eval_subcommand(self, tmp_path):
        scene = tmp_path / "scene"
        cli_run(["synth", "--out", str(scene), "--frames", "2", "--level", "1",
                 "--cloud-points", "256", "--seed", "4"])
        cfg_path = scene / "config.cfg"
        text = cfg_path.read_text().replace("track = ", "track = gt_track.json")
        cfg_path.write_text(text)
        assert cli_run(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "e")]) == 0
        metrics = json.loads((tmp_path / "e" / "metrics.json").read_text())
        # the ground-truth track scores near zero against its own geometry
        assert metrics["median"]["chamfer_cm2"] < 0.01
        assert metrics["median"]["f10"] == 1.0

    def test_eval_reads_no_feature_inputs(self, tmp_path):
        scene = tmp_path / "scene"
        cli_run(["synth", "--out", str(scene), "--frames", "2", "--level", "0",
                 "--cloud-points", "256", "--seed", "4"])
        cfg_path = scene / "config.cfg"
        text = cfg_path.read_text().replace("track = ", "track = gt_track.json")
        cfg_path.write_text(text.replace("eval_samples = 10000", "eval_samples = 2000"))
        eval_argv = ["eval", "--config", str(cfg_path), "--out"]
        assert cli_run(eval_argv + [str(tmp_path / "a")]) == 0
        (scene / "feat_000000.fmap").unlink()
        assert cli_run(eval_argv + [str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "metrics.json").read_bytes()
                == (tmp_path / "b" / "metrics.json").read_bytes())

    def test_eval_accepts_cloud_ground_truth(self, tmp_path):
        from rigalign.geometry import sample_mesh_surface

        scene_dir = tmp_path / "scene"
        spec = SceneSpec(frames=2, noise_std=0.0, rotation_level=1, cloud_points=256, seed=4)
        scene = generate_synthetic_scene(spec)
        write_scene(scene, scene_dir)
        # replace per-frame gt meshes with surface-sampled clouds
        for t in range(2):
            pts = sample_mesh_surface(scene.gt_mesh(t), 3000, seed=40 + t)
            meshio.save_ply_cloud(PointCloud(pts), scene_dir / f"gt_{t:06d}.ply")
        cfg_path = scene_dir / "config.cfg"
        cfg_path.write_text(cfg_path.read_text().replace("track = ", "track = gt_track.json"))
        assert cli_run(["eval", "--config", str(cfg_path), "--out", str(tmp_path / "e")]) == 0
        metrics = json.loads((tmp_path / "e" / "metrics.json").read_text())
        assert metrics["median"]["chamfer_cm2"] < 0.02
        assert metrics["median"]["f10"] == 1.0

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert cli_run(["track", "--config", str(tmp_path / "no.cfg"), "--out", str(tmp_path)]) == 2

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # a ground truth of 50 copies of one point loads and samples, and then
        # ICP's fit onto it reaches a dead end: the numeric exit path
        scene = tmp_path / "scene"
        cli_run(["synth", "--out", str(scene), "--frames", "1", "--level", "0",
                 "--cloud-points", "64", "--seed", "5"])
        meshio.save_ply_cloud(PointCloud(np.full((50, 3), 0.3)), scene / "gt_000000.ply")
        capsys.readouterr()
        code = cli_run(["track", "--config", str(scene / "config.cfg"), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "error: frame 0: correspondence covariance is rank-deficient" in capsys.readouterr().err

    def test_failed_evaluation_writes_no_outputs(self, tmp_path, capsys):
        # the second frame's ground truth is 50 copies of one point, so its
        # ICP fit is rank-deficient after alignment has already succeeded
        scene = tmp_path / "scene"
        write_scene(generate_synthetic_scene(SceneSpec(frames=3, rotation_level=1,
                                                       translation_counts=(1, 1, 1), seed=11)),
                    scene)
        meshio.save_ply_cloud(PointCloud(np.full((50, 3), 0.3)), scene / "gt_000001.ply")
        cfg = scene / "config.cfg"
        cfg.write_text(cfg.read_text().replace("feature_source = synthetic", "feature_source = none")
                       .replace("icp_max_iters = 100", "icp_max_iters = 8"))
        capsys.readouterr()
        out = tmp_path / "o"
        code = cli_run(["track", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: frame 1: ") and "rank-deficient" in err
        assert "Traceback" not in err
        assert not out.exists() or list(out.iterdir()) == []

    def test_camera_width_mismatch_rejected_at_load(self, tmp_path, capsys):
        # feature maps stay 64x64 while the camera claims 48 columns
        scene = tmp_path / "scene"
        cli_run(["synth", "--out", str(scene), "--frames", "1", "--level", "0",
                 "--cloud-points", "64", "--seed", "5"])
        cam = json.loads((scene / "camera.json").read_text())
        cam["width"] = 48
        (scene / "camera.json").write_text(json.dumps(cam))
        capsys.readouterr()
        code = cli_run(["track", "--config", str(scene / "config.cfg"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "feat_000000.fmap" in err and "48x64" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_candidate_map_size_mismatch_rejected_at_load(self, tmp_path, capsys):
        # a later candidate map, not the first, is 32 columns wide under a 64x64 camera
        root, feats, full = maps_scene(tmp_path)
        victim = root / "cand" / "feat_rotation_000000_000003.fmap"
        meshio.save_fmap(feats[:, :32], full[:, :32], victim)
        capsys.readouterr()
        code = cli_run(["track", "--config", str(root / "config.cfg"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "feat_rotation_000000_000003.fmap" in err and "32x64" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_candidate_map_channel_mismatch_rejected_at_load(self, tmp_path, capsys):
        root, feats, full = maps_scene(tmp_path)
        victim = root / "cand" / "feat_translation_000000_000020.fmap"
        meshio.save_fmap(feats[:, :, :3], full, victim)
        capsys.readouterr()
        code = cli_run(["track", "--config", str(root / "config.cfg"), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "feat_translation_000000_000020.fmap" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_mask_size_mismatch_rejected_at_load(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        cli_run(["synth", "--out", str(scene), "--frames", "1", "--level", "0",
                 "--cloud-points", "64", "--seed", "5"])
        meshio.save_pgm_mask(np.ones((64, 32), dtype=bool), scene / "mask_000000.pgm")
        cfg = scene / "config.cfg"
        cfg.write_text(cfg.read_text().replace("mask_dir = ", "mask_dir = ."))
        capsys.readouterr()
        code = cli_run(["track", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "mask_000000.pgm" in err and "32x64" in err
        assert not (tmp_path / "o").exists()


class TestPrep:
    def test_prep_writes_artifacts(self, tmp_path):
        cam = Camera(fx=40.0, fy=40.0, cx=16.0, cy=16.0, width=32, height=32)
        meshio.save_camera(cam, tmp_path / "camera.json")
        quad = TriangleMesh(
            np.array([[-0.2, -0.2, 1.0], [0.2, -0.2, 1.0], [0.2, 0.2, 1.0], [-0.2, 0.2, 1.0]]),
            np.array([[0, 1, 2], [0, 2, 3]]),
        )
        meshio.save_obj(quad, tmp_path / "hand_000000.obj")
        (tmp_path / "run.cfg").write_text("hand_dir = .\ncamera = camera.json\nnorm_scale = 0.7\n")
        assert cli_run(["prep", "--config", str(tmp_path / "run.cfg"),
                        "--out", str(tmp_path / "prep")]) == 0
        grid, mask = meshio.load_fmap(tmp_path / "prep" / "prep_000000.fmap")
        pgm = meshio.load_pgm_mask(tmp_path / "prep" / "prep_mask_000000.pgm")
        assert np.array_equal(mask, pgm)
        assert mask.any() and not mask.all()
        params = json.loads((tmp_path / "prep" / "prep_params_000000.json").read_text())
        pts = grid[mask]
        # normalized points: zero mean, RMS distance = norm_scale
        assert np.allclose(pts.mean(axis=0), 0, atol=1e-6)
        rms = float(np.sqrt(np.mean(np.sum(pts.astype(float) ** 2, axis=1))))
        assert rms == pytest.approx(0.7, abs=1e-5)
        assert params["scale"] == 0.7

    def test_prep_inversion_round_trip(self, tmp_path):
        from rigalign.geometry import NormalizationParams, first_hit_map

        cam = Camera(fx=40.0, fy=40.0, cx=16.0, cy=16.0, width=32, height=32)
        meshio.save_camera(cam, tmp_path / "camera.json")
        quad = TriangleMesh(
            np.array([[-0.2, -0.1, 0.9], [0.25, -0.2, 1.1], [0.2, 0.2, 1.0], [-0.2, 0.25, 1.05]]),
            np.array([[0, 1, 2], [0, 2, 3]]),
        )
        meshio.save_obj(quad, tmp_path / "hand_000003.obj")
        (tmp_path / "run.cfg").write_text("hand_dir = .\ncamera = camera.json\n")
        cli_run(["prep", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "prep")])
        grid, mask = meshio.load_fmap(tmp_path / "prep" / "prep_000003.fmap")
        params = json.loads((tmp_path / "prep" / "prep_params_000003.json").read_text())
        norm = NormalizationParams(np.array(params["mean"]), params["sigma"], params["scale"])
        recovered = norm.invert(grid[mask].astype(float))
        original = first_hit_map(quad, cam).values
        assert np.allclose(recovered, original, atol=1e-5)
