"""The CLI's error contract: a bad input ends in exit 2 (`InvalidInput`) or
exit 3 (any other `RigalignError`) with one `error:` line on stderr, never a
traceback, and leaves no output directory behind."""

import contextlib
import io
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigalign import emission, grids, meshio, pipeline
from rigalign.cli import run as cli_run
from rigalign.errors import InvalidInput, RigalignError
from rigalign.geometry import LABEL_OBJECT, Camera, PointCloud, TriangleMesh


def run_quietly(argv) -> tuple[int, str]:
    """cli.run with stdout and stderr captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli_run(argv)
    return code, err.getvalue()


def assert_rejected(code, err, out: Path, codes=(2,)):
    assert code in codes, err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert "Traceback" not in err
    assert not out.exists()


def set_config(scene: Path, **values) -> None:
    path = scene / "config.cfg"
    lines = []
    for line in path.read_text().splitlines():
        key = line.split("=", 1)[0].strip()
        lines.append(f"{key} = {values.pop(key)}" if key in values else line)
    assert not values, f"keys not in the config: {values}"
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="session")
def tiny_scene(tmp_path_factory) -> Path:
    """A valid 2-frame scene with PGM masks; one in-process track takes well
    under a second."""
    scene = tmp_path_factory.mktemp("tiny") / "scene"
    code, err = run_quietly(["synth", "--out", str(scene), "--frames", "2", "--level", "0",
                             "--cloud-points", "64"])
    assert code == 0, err
    for t in range(2):
        _, mask = meshio.load_fmap(scene / f"feat_{t:06d}.fmap")
        meshio.save_pgm_mask(mask, scene / f"mask_{t:06d}.pgm")
    set_config(scene, translation_counts="3,3,1", eval_samples="500", icp_max_iters="8",
               mask_dir=".")
    return scene


@pytest.fixture
def scene(tiny_scene, tmp_path) -> Path:
    copy = tmp_path / "scene"
    shutil.copytree(tiny_scene, copy)
    return copy


def track(scene: Path, out: Path) -> tuple[int, str]:
    return run_quietly(["track", "--config", str(scene / "config.cfg"), "--out", str(out)])


def test_invalid_input_is_a_value_error():
    assert issubclass(InvalidInput, ValueError)
    assert issubclass(InvalidInput, RigalignError)


def test_tiny_scene_runs(scene, tmp_path):
    code, err = track(scene, tmp_path / "out")
    assert code == 0, err
    assert (tmp_path / "out" / "metrics.json").is_file()


def run_outputs(scene: Path, out: Path, command: str) -> dict:
    """{file name: bytes} of a successful run of `command` on the scene."""
    code, err = run_quietly([command, "--config", str(scene / "config.cfg"), "--out", str(out)])
    assert code == 0, err
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command, source", [("eval", "synthetic"), ("track", "none"),
                                             ("track", "table")])
def test_run_that_casts_nothing_reads_no_camera(scene, tmp_path, command, source):
    # eval scores a track and reads no features; none and table sources cast nothing
    set_config(scene, track="gt_track.json", feature_source=source, dino_table_rot="rot.emit",
               dino_table_trans="trans.emit")
    meshio.save_emission_table(np.linspace(0.0, 1.0, 16).reshape(2, 8), scene / "rot.emit")
    meshio.save_emission_table(np.linspace(1.0, 0.0, 18).reshape(2, 9), scene / "trans.emit")
    want = run_outputs(scene, tmp_path / "with", command)
    (scene / "camera.json").unlink()
    assert run_outputs(scene, tmp_path / "without", command) == want


def test_eval_builds_no_pose_grid(scene, tmp_path, monkeypatch):
    set_config(scene, track="gt_track.json")
    want = run_outputs(scene, tmp_path / "built", "eval")

    def no_grid(*args, **kwargs):
        raise AssertionError("eval built a pose grid")

    for module in (pipeline, grids):
        monkeypatch.setattr(module, "build_rotation_grid", no_grid)
        monkeypatch.setattr(module, "build_translation_grid", no_grid)
    assert run_outputs(scene, tmp_path / "eval", "eval") == want


@pytest.mark.parametrize("key, value", [
    ("w_cd", "nan"), ("w_dino", "inf"), ("lambda_rot", "inf"), ("lambda_trans", "nan"),
    ("penalty_factor", "nan"), ("penalty_factor", "-1"), ("translation_half_extent", "nan"),
    # sizes whose arrays could not be allocated
    ("rotation_level", "9"), ("translation_counts", "100001,100001,100001"),
    ("emission_samples", "100000000000"), ("eval_samples", "100000000000"),
])
def test_bad_config_value_rejected_at_load(scene, tmp_path, key, value):
    set_config(scene, **{key: value})
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert key in err


# Each of these makes some cost overflow a float32: the .emit files' format,
# and the bound that keeps a Viterbi path's float64 sum finite.
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would add stderr lines
@pytest.mark.parametrize("key, value", [
    ("translation_half_extent", "1e308"), ("translation_half_extent", "1e200"),
    ("lambda_rot", "1e308"), ("lambda_trans", "1e308"), ("w_cd", "1e308"),
    ("penalty_factor", "1e300"), ("w_dino", "1e308"), ("w_cd", "3e38"),
])
def test_cost_too_large_for_a_float32_rejected_at_load(scene, tmp_path, monkeypatch, key, value):
    def no_scoring(*args, **kwargs):
        raise AssertionError("a frame was scored before the config was checked")

    monkeypatch.setattr(emission.EmissionEvaluator, "frame_terms", no_scoring)
    set_config(scene, **{key: value})
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert key in err and "every cost must fit in a float32, at most 3.403e+38" in err


def test_largest_costs_that_fit_a_float32_run(scene, tmp_path):
    f32 = float(np.finfo(np.float32).max)
    set_config(scene, w_cd=repr(f32 / 20), w_dino=repr(f32 / 20), lambda_rot=repr(f32 / 4),
               lambda_trans=repr(f32 / 4))
    code, err = track(scene, tmp_path / "out")
    assert code == 0, err


def test_config_key_set_twice_rejected(scene, tmp_path):
    lines = (scene / "config.cfg").read_text().splitlines()
    first = next(i for i, line in enumerate(lines, 1) if line.startswith("rotation_level"))
    (scene / "config.cfg").write_text("\n".join(lines + ["rotation_level = 1"]) + "\n")
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert (f"line {len(lines) + 1}: 'rotation_level' is set again; first set on line {first}"
            in err)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_feature_value_rejected(scene, tmp_path, value):
    path = scene / "feat_000001.fmap"
    feats, mask = meshio.load_fmap(path)
    feats = feats.copy()  # a view of the file's bytes, read-only
    i, j = np.argwhere(mask)[0]
    feats[i, j, 2] = value
    meshio.save_fmap(feats, mask, path)
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert f"feat_000001.fmap: feature value at row {i}, column {j}, channel 2 is not finite" in err


def test_non_finite_candidate_feature_value_rejected(scene, tmp_path, monkeypatch):
    def no_scoring(*args, **kwargs):
        raise AssertionError("a frame was scored before every candidate map was checked")

    monkeypatch.setattr(emission.EmissionEvaluator, "frame_terms", no_scoring)
    set_config(scene, feature_source="maps", candidate_features_dir="cand")
    (scene / "cand").mkdir()
    rng = np.random.default_rng(0)
    everywhere = np.ones((64, 64), dtype=bool)
    for t in range(2):
        for phase, count in (("rotation", 8), ("translation", 9)):
            for j in range(count):
                feats = rng.random((64, 64, 8))
                if (t, phase, j) == (1, "rotation", 5):
                    feats[32, 30, 0] = math.nan
                meshio.save_fmap(feats, everywhere,
                                 scene / "cand" / f"feat_{phase}_{t:06d}_{j:06d}.fmap")
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert "feat_rotation_000001_000005.fmap: feature value at row 32, column 30" in err


def test_input_maps_with_other_channel_counts_rejected(scene, tmp_path):
    path = scene / "feat_000001.fmap"
    feats, mask = meshio.load_fmap(path)
    meshio.save_fmap(feats[..., :5], mask, path)
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert "feat_000001.fmap: 5 feature channels" in err and "feat_000000.fmap has 8" in err


@pytest.mark.parametrize("channels", ["5", "1000000000"])
def test_synthetic_channels_other_than_the_input_maps_rejected(scene, tmp_path, channels):
    # The channel count is no setting: the field takes the input maps' count,
    # and a config that still names one fails as an unknown key.
    with (scene / "config.cfg").open("a") as f:
        f.write(f"synthetic_feature_channels = {channels}\n")
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert "unknown key 'synthetic_feature_channels'" in err


def test_synthetic_field_takes_the_input_maps_channel_count(scene, tmp_path):
    for t in range(2):
        path = scene / f"feat_{t:06d}.fmap"
        feats, mask = meshio.load_fmap(path)
        meshio.save_fmap(feats[..., :5], mask, path)
    code, err = track(scene, tmp_path / "out")
    assert code == 0, err
    assert (tmp_path / "out" / "track.json").is_file()


def test_zero_extent_clouds_rejected(scene, tmp_path):
    for t in range(2):
        path = scene / f"cloud_{t:06d}.ply"
        cloud = meshio.load_ply_cloud(path)
        points = cloud.points.copy()
        on_object = cloud.labels == LABEL_OBJECT
        points[on_object] = points[on_object][0]
        meshio.save_ply_cloud(PointCloud(points, cloud.colors, cloud.labels), path)
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out", codes=(3,))
    assert "the object clouds of frames 0, 1 have zero extent" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would add stderr lines
def test_cloud_whose_moments_overflow_rejected(scene, tmp_path):
    """Finite double coordinates whose squares overflow in scale estimation."""
    path = scene / "cloud_000000.ply"
    cloud = meshio.load_ply_cloud(path)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(cloud)}",
              "property double x", "property double y", "property double z",
              "property uchar label", "end_header"]
    rows = np.zeros(len(cloud), dtype=[("p", "<f8", 3), ("label", "u1")])
    rows["p"], rows["label"] = cloud.points * 1e200, cloud.labels
    path.write_bytes(("\n".join(header) + "\n").encode() + rows.tobytes())
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out", codes=(3,))
    assert "the observed cloud's second moments overflow in scale estimation" in err


@pytest.mark.parametrize("key, value", [("seed", "-1"), ("synthetic_feature_seed", "-5")])
def test_negative_config_seed_rejected(scene, tmp_path, key, value):
    set_config(scene, **{key: value})
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert key in err


def test_negative_seed_override_rejected(scene, tmp_path):
    out = tmp_path / "out"
    code, err = run_quietly(["track", "--config", str(scene / "config.cfg"), "--seed", "-1",
                             "--out", str(out)])
    assert_rejected(code, err, out)
    assert "--seed" in err


@pytest.mark.parametrize("argv_seed, config_seed, message", [
    (None, str(2**32), "seed must be < 2**32; got 4294967296"),
    (str(2**32), "0", "--seed must be < 2**32; got 4294967296"),
    (str(2**40 + 3), "0", "--seed must be < 2**32"),
])
def test_seed_outside_32_bits_rejected(scene, tmp_path, argv_seed, config_seed, message):
    set_config(scene, seed=config_seed)
    out = tmp_path / "out"
    argv = ["track", "--config", str(scene / "config.cfg"), "--out", str(out)]
    code, err = run_quietly(argv + (["--seed", argv_seed] if argv_seed else []))
    assert_rejected(code, err, out)
    assert message in err


@pytest.mark.parametrize("cut", [4, 6, 11])
def test_table_cut_in_its_header_rejected(scene, tmp_path, cut):
    meshio.save_emission_table(np.zeros((2, 8)), scene / "rot.emit")
    (scene / "rot.emit").write_bytes((scene / "rot.emit").read_bytes()[:cut])
    meshio.save_emission_table(np.zeros((2, 9)), scene / "trans.emit")
    set_config(scene, feature_source="table", dino_table_rot="rot.emit",
               dino_table_trans="trans.emit")
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert "rot.emit: EMIT header cut short" in err


@pytest.mark.parametrize("scale, z", [("NaN", "0.4"), ("Infinity", "0.4"), ("0.0", "0.4"),
                                      ("1.0", "NaN"), ("1.0", "-Infinity")])
def test_non_finite_track_rejected_by_eval(scene, tmp_path, scale, z):
    track_obj = json.loads((scene / "gt_track.json").read_text())
    track_obj["scale"] = "@scale"
    track_obj["frames"][1]["translation_m"][2] = "@z"
    text = json.dumps(track_obj).replace('"@scale"', scale).replace('"@z"', z)
    (scene / "bad_track.json").write_text(text)
    set_config(scene, track="bad_track.json")
    out = tmp_path / "out"
    code, err = run_quietly(["eval", "--config", str(scene / "config.cfg"), "--out", str(out)])
    assert_rejected(code, err, out)
    assert "invalid pose track JSON" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would add stderr lines
# At 1e200 the moved prediction's variance overflows first, which leaves no
# axes to align; the identity start's distances then overflow too.
@pytest.mark.parametrize("field, value", [("scale", 1e300), ("translation_m", 1e308),
                                          ("translation_m", 1e200)])
def test_track_too_large_for_icp_rejected_by_eval(scene, tmp_path, field, value):
    track_obj = json.loads((scene / "gt_track.json").read_text())
    if field == "scale":
        track_obj["scale"] = value
    else:
        track_obj["frames"][1]["translation_m"][2] = value
    (scene / "bad_track.json").write_text(json.dumps(track_obj))
    set_config(scene, track="bad_track.json")
    out = tmp_path / "out"
    code, err = run_quietly(["eval", "--config", str(scene / "config.cfg"), "--out", str(out)])
    assert_rejected(code, err, out, codes=(3,))
    assert "ICP distances overflow" in err


@pytest.mark.parametrize("ts, first", [((7, 3), "entry 0 has t = 7"),
                                       ((0, 3), "entry 1 has t = 3"),
                                       ((1, 0), "entry 0 has t = 1")])
def test_track_with_other_frame_indices_rejected_by_eval(scene, tmp_path, ts, first):
    track_obj = json.loads((scene / "gt_track.json").read_text())
    for frame, t in zip(track_obj["frames"], ts):
        frame["t"] = t
    (scene / "bad_track.json").write_text(json.dumps(track_obj))
    set_config(scene, track="bad_track.json")
    out = tmp_path / "out"
    code, err = run_quietly(["eval", "--config", str(scene / "config.cfg"), "--out", str(out)])
    assert_rejected(code, err, out)
    assert f"bad_track.json: {first}" in err


_HUGE = "1" * 401  # a JSON integer no float or int64 holds


@pytest.mark.parametrize("field, value, message", [
    ("scale", _HUGE, "int too large to convert to float"),
    ("rotation_wxyz", _HUGE, "int too large to convert to float"),
    ("translation_m", _HUGE, "int too large to convert to float"),
    ("rotation_wxyz", "1e300", "cannot normalize quaternion: its squared norm overflows"),
    ("t", str(2**63), "too large"),
    ("t", "1.5", "entry 1: t is 1.5, not an integer"),
    ("t", "true", "entry 1: t is true, not an integer"),
    ("t", '"1"', 'entry 1: t is "1", not an integer'),
], ids=["huge-scale", "huge-rotation", "huge-translation", "rotation-norm-overflows",
        "t-2**63", "t-float", "t-bool", "t-string"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would add stderr lines
def test_track_value_too_large_or_not_an_integer_rejected_by_eval(scene, tmp_path, field,
                                                                 value, message):
    track_obj = json.loads((scene / "gt_track.json").read_text())
    if field == "scale":
        track_obj["scale"] = "@"
    elif field == "t":
        track_obj["frames"][1]["t"] = "@"
    else:
        track_obj["frames"][1][field][0] = "@"
    (scene / "bad_track.json").write_text(json.dumps(track_obj).replace('"@"', value))
    set_config(scene, track="bad_track.json")
    out = tmp_path / "out"
    code, err = run_quietly(["eval", "--config", str(scene / "config.cfg"), "--out", str(out)])
    assert_rejected(code, err, out)
    assert "invalid pose track JSON" in err and message in err


@pytest.mark.parametrize("field, value, message", [
    ("scale", "true", "scale is true"),
    ("scale", '"2"', 'scale is "2"'),
    ("rotation_wxyz", '[true, 0, 0, "0.5"]', "entry 1: rotation_wxyz[0] is true"),
    ("rotation_wxyz[3]", '"0.5"', 'entry 1: rotation_wxyz[3] is "0.5"'),
    ("translation_m[0]", "false", "entry 1: translation_m[0] is false"),
    ("translation_m[2]", '"0.4"', 'entry 1: translation_m[2] is "0.4"'),
], ids=["scale-bool", "scale-string", "rotation-bool-and-string", "rotation-string",
        "translation-bool", "translation-string"])
def test_track_number_that_is_no_json_number_rejected_by_eval(scene, tmp_path, field, value,
                                                             message):
    track_obj = json.loads((scene / "gt_track.json").read_text())
    if field == "scale":
        track_obj["scale"] = "@"
    elif "[" in field:
        key, i = field[:-1].split("[")
        track_obj["frames"][1][key][int(i)] = "@"
    else:
        track_obj["frames"][1][field] = "@"
    (scene / "bad_track.json").write_text(json.dumps(track_obj).replace('"@"', value))
    set_config(scene, track="bad_track.json")
    out = tmp_path / "out"
    code, err = run_quietly(["eval", "--config", str(scene / "config.cfg"), "--out", str(out)])
    assert_rejected(code, err, out)
    assert f"invalid pose track JSON: {message}, not a number" in err


@pytest.mark.parametrize("field, value, message", [
    ("rotation_wxyz", [1.0, 0.0, 0.0], "entry 1: rotation_wxyz holds 3 values; it needs 4"),
    ("translation_m", [0.0, 0.0, 0.4, 0.0],
     "entry 1: translation_m holds 4 values; it needs 3"),
    ("translation_m", 0.4, "entry 1: translation_m is 0.4, not a list"),
    ("frames", [], "frames is empty; a track needs at least one frame"),
], ids=["rotation-3", "translation-4", "translation-number", "no-frames"])
def test_track_of_the_wrong_shape_rejected_by_eval(scene, tmp_path, field, value, message):
    track_obj = json.loads((scene / "gt_track.json").read_text())
    if field == "frames":
        track_obj["frames"] = value
    else:
        track_obj["frames"][1][field] = value
    (scene / "bad_track.json").write_text(json.dumps(track_obj))
    set_config(scene, track="bad_track.json")
    out = tmp_path / "out"
    code, err = run_quietly(["eval", "--config", str(scene / "config.cfg"), "--out", str(out)])
    assert_rejected(code, err, out)
    assert f"error: invalid pose track JSON: {message}" in err


@pytest.mark.parametrize("name", ["model.obj", "config.cfg", "gt_track.json", "camera.json"])
def test_non_utf8_text_file_rejected(scene, tmp_path, name):
    set_config(scene, track="gt_track.json")
    path = scene / name
    data = path.read_bytes()
    path.write_bytes(data[:20] + b"\xff" + data[20:])
    out = tmp_path / "out"
    command = "track" if name == "camera.json" else "eval"  # eval reads no camera
    code, err = run_quietly([command, "--config", str(scene / "config.cfg"), "--out", str(out)])
    assert_rejected(code, err, out)
    assert f"{name}: invalid " in err and "can't decode byte 0xff in position 20" in err


@pytest.mark.parametrize("field, value", [("fx", "NaN"), ("cy", "NaN"), ("cx", "Infinity"),
                                          ("width", "200000")])
def test_bad_camera_rejected(scene, tmp_path, field, value):
    cam = json.loads((scene / "camera.json").read_text())
    cam[field] = "@"
    (scene / "camera.json").write_text(json.dumps(cam).replace('"@"', value))
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert "camera.json" in err


@pytest.mark.parametrize("field, value", [("width", "64.5"), ("width", "true"),
                                          ("height", "64.0"), ("height", '"64"')])
def test_camera_size_that_is_no_json_integer_rejected(scene, tmp_path, field, value):
    cam = json.loads((scene / "camera.json").read_text())
    cam[field] = "@"
    (scene / "camera.json").write_text(json.dumps(cam).replace('"@"', value))
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert f"camera.json: invalid camera file: {field} is {value}, not an integer" in err


@pytest.mark.parametrize("field, value", [("fx", "true"), ("fy", '"500"'), ("cx", '"32"'),
                                          ("cy", "false")])
def test_camera_number_that_is_no_json_number_rejected(scene, tmp_path, field, value):
    cam = json.loads((scene / "camera.json").read_text())
    cam[field] = "@"
    (scene / "camera.json").write_text(json.dumps(cam).replace('"@"', value))
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert f"camera.json: invalid camera file: {field} is {value}, not a number" in err


# Each camera's corner rays overflow when squared: with cx = 1e300 every ray
# would normalize to zero, and the feature term would drop out unseen.
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would add stderr lines
@pytest.mark.parametrize("field, value", [("cx", "1e300"), ("cy", "-1e300"), ("fx", "1e-300")])
def test_camera_whose_rays_overflow_rejected(scene, tmp_path, field, value):
    cam = json.loads((scene / "camera.json").read_text())
    cam[field] = "@"
    (scene / "camera.json").write_text(json.dumps(cam).replace('"@"', value))
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert "camera.json: invalid camera file: principal point (" in err
    assert "the pixel rays overflow" in err


def test_unknown_camera_key_rejected(scene, tmp_path):
    cam = json.loads((scene / "camera.json").read_text())
    cam["k1"] = 0.1
    (scene / "camera.json").write_text(json.dumps(cam))
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert "camera.json: invalid camera file: unknown key 'k1'" in err


@pytest.mark.parametrize("prefix, token", [("v", "abc"), ("f", "x1")])
def test_bad_model_token_rejected(scene, tmp_path, prefix, token):
    lines = (scene / "model.obj").read_text().splitlines()
    ln = next(i for i, line in enumerate(lines) if line.startswith(prefix + " "))
    parts = lines[ln].split()
    lines[ln] = " ".join([prefix, token] + parts[2:])
    (scene / "model.obj").write_text("\n".join(lines) + "\n")
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert f"model.obj:{ln + 1}: " in err


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would add stderr lines
def test_model_whose_area_overflows_rejected(scene, tmp_path):
    lines = (scene / "model.obj").read_text().splitlines()
    ln = next(i for i, line in enumerate(lines) if line.startswith("v "))
    lines[ln] = "v 1e300 1e300 1e300"
    (scene / "model.obj").write_text("\n".join(lines) + "\n")
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")  # at load, when the model is drawn from
    assert "model.obj: model mesh cannot be sampled: mesh surface area overflows" in err


@pytest.mark.parametrize("geometry, message", [
    (PointCloud(np.zeros((0, 3))), "cannot resample an empty cloud"),
    (TriangleMesh(np.array([[0.0, 0, 0.4], [0.01, 0, 0.4], [0.02, 0, 0.4]]), np.array([[0, 1, 2]])),
     "mesh has zero surface area"),
], ids=["empty-cloud", "zero-area-mesh"])
def test_ground_truth_that_cannot_be_sampled_rejected_at_load(scene, tmp_path, monkeypatch,
                                                              geometry, message):
    def no_scoring(*args, **kwargs):
        raise AssertionError("a frame was scored before the ground truth was checked")

    monkeypatch.setattr(emission.EmissionEvaluator, "frame_terms", no_scoring)
    if isinstance(geometry, PointCloud):
        meshio.save_ply_cloud(geometry, scene / "gt_000001.ply")
    else:
        meshio.save_ply_mesh(geometry, scene / "gt_000001.ply")
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert f"gt_000001.ply: ground truth cannot be sampled: {message}" in err


def test_model_ply_without_xyz_rejected(scene, tmp_path):
    mesh = meshio.load_obj(scene / "model.obj")
    header = ("ply\nformat binary_little_endian 1.0\n"
              f"element vertex {len(mesh.vertices)}\n"
              "property float a\nproperty float b\nproperty float c\n"
              f"element face {len(mesh.faces)}\n"
              "property list uchar int vertex_indices\nend_header\n")
    faces = np.empty(len(mesh.faces), dtype=[("n", "u1"), ("i", "<i4", (3,))])
    faces["n"], faces["i"] = 3, mesh.faces
    (scene / "model.ply").write_bytes(header.encode() + mesh.vertices.astype("<f4").tobytes()
                                      + faces.tobytes())
    set_config(scene, model_mesh="model.ply")
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert "model.ply: vertex element lacks property 'x'" in err


@pytest.mark.parametrize("name, prop", [("model.ply", "vertex_indices"),
                                        ("gt_000000.ply", "vertex_index")])
def test_ply_face_indices_that_are_no_list_rejected(scene, tmp_path, name, prop):
    mesh = meshio.load_obj(scene / "model.obj")
    header = ("ply\nformat binary_little_endian 1.0\n"
              f"element vertex {len(mesh.vertices)}\n"
              "property float x\nproperty float y\nproperty float z\n"
              f"element face {len(mesh.faces)}\n"
              f"property int {prop}\nend_header\n")
    (scene / name).write_bytes(header.encode() + mesh.vertices.astype("<f4").tobytes()
                               + mesh.faces[:, 0].astype("<i4").tobytes())
    if name == "model.ply":
        set_config(scene, model_mesh="model.ply")
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert f"{name}: face property '{prop}' is a scalar, not a list" in err


@pytest.mark.parametrize("count_t, item_t", [("uchar", "float"), ("float", "int"),
                                             ("uchar", "double")])
@pytest.mark.parametrize("name, prop", [("model.ply", "vertex_indices"),
                                        ("gt_000000.ply", "vertex_index")])
def test_ply_face_lists_of_non_integers_rejected(scene, tmp_path, name, prop, count_t, item_t):
    """Indices 0.0, 1.6, 2.9 would load as the face [0, 1, 2] if cast."""
    mesh = meshio.load_obj(scene / "model.obj")
    header = ("ply\nformat binary_little_endian 1.0\n"
              f"element vertex {len(mesh.vertices)}\n"
              "property float x\nproperty float y\nproperty float z\n"
              f"element face {len(mesh.faces)}\n"
              f"property list {count_t} {item_t} {prop}\nend_header\n")
    types = {"uchar": "u1", "int": "<i4", "float": "<f4", "double": "<f8"}
    faces = np.empty(len(mesh.faces), dtype=[("n", types[count_t]), ("i", types[item_t], (3,))])
    faces["n"] = 3
    faces["i"] = mesh.faces + np.array([0.0, 0.6, 0.9]) * (item_t in ("float", "double"))
    (scene / name).write_bytes(header.encode() + mesh.vertices.astype("<f4").tobytes()
                               + faces.tobytes())
    if name == "model.ply":
        set_config(scene, model_mesh="model.ply")
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert (f"{name}: list property '{prop}' needs integer count and item types, "
            f"not '{count_t} {item_t}'") in err


@pytest.mark.parametrize("defect, message", [
    ("property", "PLY property 'x' of element 'vertex' is declared twice"),
    ("element", "PLY element 'vertex' is declared twice"),
    ("label", "vertex property 'label' must have an integer type"),
], ids=["property", "element", "label"])
def test_ply_header_that_is_ambiguous_or_truncates_rejected(scene, tmp_path, defect, message):
    """A repeated property name would crash the record layout, a repeated
    element would let the later one win unseen, and labels 1.6 and 2.6 would
    load as 1 and 2 if cast."""
    cloud = meshio.load_ply_cloud(scene / "cloud_000001.ply")
    props = [("x", "float"), ("y", "float"), ("z", "float"), ("label", "uchar")]
    if defect == "property":
        props.insert(1, ("x", "float"))
    if defect == "label":
        props[-1] = ("label", "float")
    types = {"float": "<f4", "uchar": "u1"}
    rec = np.empty(len(cloud), dtype=[(f"f{i}", types[t]) for i, (_, t) in enumerate(props)])
    for i, (name, _) in enumerate(props):
        rec[f"f{i}"] = (cloud.labels + 0.6 * (defect == "label") if name == "label"
                        else cloud.points[:, "xyz".index(name)])
    element = f"element vertex {len(cloud)}\n" + "".join(f"property {t} {n}\n" for n, t in props)
    copies = 2 if defect == "element" else 1
    (scene / "cloud_000001.ply").write_bytes(
        f"ply\nformat binary_little_endian 1.0\n{element * copies}end_header\n".encode()
        + rec.tobytes() * copies)
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert f"cloud_000001.ply: {message}" in err


# The PLY part of the input-mutation catalogue: one mutation of one PLY file
# per case, for a cloud and for a ground-truth mesh. Each file is written
# again from its loaded content as one vertex element of typed columns and,
# for the mesh, a face element of triangles.
_PLY_TYPES = {"uchar": "u1", "int": "<i4", "float": "<f4", "double": "<f8"}


def _write_ply(path: Path, columns, faces=None, *, count_extra=0, last_count_extra=0, copies=1,
               cut=0) -> None:
    """A binary PLY whose vertex element holds `columns`, [(name, PLY type,
    values)], declared with `count_extra` more vertices than it holds and
    written `copies` times, then `faces`, with the last `cut` bytes cut off.
    The last element is declared with `last_count_extra` more records still."""
    n = len(columns[0][2])
    rec = np.empty(n, dtype=[(name, _PLY_TYPES[t]) for name, t, _ in columns])
    for name, _, values in columns:
        rec[name] = values
    vertex_extra = count_extra + (last_count_extra if faces is None else 0)
    header = (f"element vertex {n + vertex_extra}\n"
              + "".join(f"property {t} {name}\n" for name, t, _ in columns)) * copies
    body = rec.tobytes() * copies
    if faces is not None:
        header += (f"element face {len(faces) + last_count_extra}\n"
                   "property list uchar int vertex_indices\n")
        tris = np.empty(len(faces), dtype=[("n", "u1"), ("i", "<i4", (3,))])
        tris["n"], tris["i"] = 3, faces
        body += tris.tobytes()
    path.write_bytes(f"ply\nformat binary_little_endian 1.0\n{header}end_header\n".encode()
                     + body[:len(body) - cut])


def _retype(name, ply_type):
    """The column `name` stored as `ply_type`. A column the file lacks is
    added: a red of 0.5 beside uchar green and blue, or a 1."""
    def mutate(columns):
        n = len(columns[0][2])
        if name == "red":
            return {"columns": columns + [("red", ply_type, np.full(n, 0.5)),
                                          ("green", "uchar", np.zeros(n)),
                                          ("blue", "uchar", np.zeros(n))]}
        if name not in {c for c, _, _ in columns}:
            return {"columns": columns + [(name, ply_type, np.ones(n))]}
        return {"columns": [(c, ply_type if c == name else t, v) for c, t, v in columns]}
    return mutate


def _first_x(value):
    def mutate(columns):
        x = columns[0][2].copy()
        x[0] = value
        return {"columns": [(c, t, x if c == "x" else v) for c, t, v in columns]}
    return mutate


def _scaled(factor):
    def mutate(columns):
        return {"columns": [(c, "double", v * factor) if c in "xyz" else (c, t, v)
                            for c, t, v in columns]}
    return mutate


# name -> (mutation, exit code on the cloud, exit code on the ground-truth
# mesh). A mesh ignores vertex colours and labels, and coordinates stored as
# integers are still coordinates.
_PLY_MUTATIONS = {
    "truncated-body": (lambda columns: {"cut": 5}, 2, 2),
    "count-larger-than-body": (lambda columns: {"count_extra": 1}, 2, 2),
    "count-smaller-than-body": (lambda columns: {"last_count_extra": -1}, 2, 2),
    "vertex-count-smaller-than-body": (lambda columns: {"count_extra": -1}, 2, 2),
    "x-int": (_retype("x", "int"), 0, 0),
    "y-int": (_retype("y", "int"), 0, 0),
    "z-int": (_retype("z", "int"), 0, 0),
    "red-float": (_retype("red", "float"), 2, 0),
    "label-float": (_retype("label", "float"), 2, 0),
    "nan": (_first_x(math.nan), 2, 2),
    "infinity": (_first_x(math.inf), 2, 2),
    "missing-property": (lambda columns: {"columns": [c for c in columns if c[0] != "y"]}, 2, 2),
    "extra-property": (lambda columns: {"columns": columns + [("w", "float",
                                                               np.ones(len(columns[0][2])))]},
                       0, 0),
    "repeated-element": (lambda columns: {"copies": 2}, 2, 2),
    # the cloud's ICP correspondences are rank-deficient at 1e154, and its
    # Chamfer distances overflow at 1e155; the mesh's area overflows at load
    "scaled-1e154": (_scaled(1e154), 3, 2),
    "scaled-1e155": (_scaled(1e155), 3, 2),
}

# (mutation, file) -> part of the error line, where a misread would blame the
# wrong thing: the mesh's face block then starts inside the last vertex.
_PLY_MESSAGES = {
    ("vertex-count-smaller-than-body", "gt_000001.ply"):
        "PLY body ends inside element 'face', record 1 of 4: the file is truncated, or an "
        "element count declared up to 'face' is wrong",
}


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would add stderr lines
@pytest.mark.parametrize("mutation", list(_PLY_MUTATIONS))
@pytest.mark.parametrize("name", ["cloud_000001.ply", "gt_000001.ply"])
def test_ply_mutation_keeps_the_contract(scene, tmp_path, name, mutation):
    path = scene / name
    if name.startswith("cloud"):
        cloud, faces = meshio.load_ply_cloud(path), None
        points, extra = cloud.points, [("label", "uchar", cloud.labels)]
    else:
        mesh = meshio.load_ply_mesh(path)
        points, faces, extra = mesh.vertices, mesh.faces, []
    columns = [(axis, "float", points[:, k]) for k, axis in enumerate("xyz")] + extra
    mutate, cloud_code, gt_code = _PLY_MUTATIONS[mutation]
    write = {"columns": columns, "faces": faces} | mutate(columns)
    _write_ply(path, write.pop("columns"), **write)
    code, err = track(scene, tmp_path / "out")
    assert code == (cloud_code if faces is None else gt_code), err
    if code == 0:
        assert err == "" and (tmp_path / "out" / "track.json").is_file()
    else:
        assert_rejected(code, err, tmp_path / "out", codes=(2, 3))
        assert code == 3 or f"{name}: " in err  # a file rejected at load is named
        assert _PLY_MESSAGES.get((mutation, name), "") in err


@pytest.mark.parametrize("command", ["track", "eval"])
@pytest.mark.parametrize("obj, message", [
    ("v 0 0 0.4\nv 0.01 0 0.4\nv 0 0.01 0.4\n", "mesh has no faces"),
    ("v 0 0 0.4\nv 0.01 0 0.4\nv 0.02 0 0.4\nf 1 2 3\n", "mesh has zero surface area"),
], ids=["vertex-only", "collinear"])
def test_model_that_cannot_be_sampled_rejected_before_any_frame_is_read(
        scene, tmp_path, monkeypatch, command, obj, message):
    def never(*args, **kwargs):
        raise AssertionError("a frame or a pose grid was loaded before the model was checked")

    monkeypatch.setattr(meshio, "load_ply_cloud", never)
    for module in (pipeline, grids):
        monkeypatch.setattr(module, "build_rotation_grid", never)
    (scene / "model.obj").write_text(obj)
    set_config(scene, track="gt_track.json")
    code, err = run_quietly([command, "--config", str(scene / "config.cfg"),
                             "--out", str(tmp_path / "out")])
    assert_rejected(code, err, tmp_path / "out")
    assert f"model.obj: model mesh cannot be sampled: {message}" in err


@pytest.mark.parametrize("argv", [
    ["synth", "--frames", "0"],
    ["synth", "--channels", "2"],
    ["synth", "--cloud-points", "0"],
    ["synth", "--hand-points", "-1"],
    ["synth", "--noise-std", "-0.001"],
    ["synth", "--noise-std", "nan"],
    ["synth", "--seed", "-1"],
    ["grid", "--level", "-1"],
    ["synth", "--seed", str(2**32)],
    ["synth", "--cloud-points", "100000000000"],
    ["synth", "--level", "9"],
    ["grid", "--level", "9"],
    ["synth", "--frames", "1000000000000"],
    ["synth", "--channels", "1000000000"],
])
def test_bad_generator_argument_rejected(tmp_path, argv):
    out = tmp_path / "out"
    code, err = run_quietly(argv + ["--out", str(out)])
    assert_rejected(code, err, out)


def test_prep_writes_nothing_when_a_later_frame_fails(tmp_path):
    cam = Camera(fx=40.0, fy=40.0, cx=16.0, cy=16.0, width=32, height=32)
    meshio.save_camera(cam, tmp_path / "camera.json")
    verts = np.array([[-0.2, -0.2, 1.0], [0.2, -0.2, 1.0], [0.2, 0.2, 1.0], [-0.2, 0.2, 1.0]])
    faces = np.array([[0, 1, 2], [0, 2, 3]])
    meshio.save_obj(TriangleMesh(verts, faces), tmp_path / "hand_000000.obj")
    # the same quad mirrored behind the camera: no pixel ray hits it
    meshio.save_obj(TriangleMesh(-verts, faces), tmp_path / "hand_000001.obj")
    (tmp_path / "run.cfg").write_text("hand_dir = .\ncamera = camera.json\n")
    out = tmp_path / "prep"
    code, err = run_quietly(["prep", "--config", str(tmp_path / "run.cfg"), "--out", str(out)])
    assert_rejected(code, err, out)
    assert "frame 1" in err
    assert not list(tmp_path.rglob("prep_*"))


def test_prep_camera_too_large_to_hold_rejected(tmp_path):
    (tmp_path / "camera.json").write_text(json.dumps(
        {"fx": 4e5, "fy": 4e5, "cx": 1e5, "cy": 1e5, "width": 200000, "height": 200000}))
    quad = TriangleMesh(np.array([[-0.2, -0.2, 1.0], [0.2, -0.2, 1.0], [0.2, 0.2, 1.0],
                                  [-0.2, 0.2, 1.0]]), np.array([[0, 1, 2], [0, 2, 3]]))
    meshio.save_obj(quad, tmp_path / "hand_000000.obj")
    (tmp_path / "run.cfg").write_text("hand_dir = .\ncamera = camera.json\n")
    out = tmp_path / "prep"
    code, err = run_quietly(["prep", "--config", str(tmp_path / "run.cfg"), "--out", str(out)])
    assert_rejected(code, err, out)
    assert "camera.json: invalid camera file: image of 200000 x 200000 pixels" in err


def test_two_hand_files_for_one_frame_rejected(tmp_path):
    cam = Camera(fx=40.0, fy=40.0, cx=16.0, cy=16.0, width=32, height=32)
    meshio.save_camera(cam, tmp_path / "camera.json")
    quad = TriangleMesh(np.array([[-0.2, -0.2, 1.0], [0.2, -0.2, 1.0], [0.2, 0.2, 1.0],
                                  [-0.2, 0.2, 1.0]]), np.array([[0, 1, 2], [0, 2, 3]]))
    meshio.save_obj(quad, tmp_path / "hand_000000.obj")
    meshio.save_ply_mesh(quad, tmp_path / "hand_000000.ply")
    (tmp_path / "run.cfg").write_text("hand_dir = .\ncamera = camera.json\n")
    out = tmp_path / "prep"
    code, err = run_quietly(["prep", "--config", str(tmp_path / "run.cfg"), "--out", str(out)])
    assert_rejected(code, err, out)
    assert "hand_000000.obj" in err and "hand_000000.ply" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would add stderr lines
@pytest.mark.parametrize("scale, obj, message", [
    (None, "v -0.2 -0.2 1\nv 0.2 -0.2 1\nv 0.2 0.2 1\n", "mesh has no faces"),
    (1e200, None, "mesh surface area overflows"),
    (1e-200, None, "mesh has zero surface area"),
], ids=["vertex-only", "scaled-1e200", "scaled-1e-200"])
def test_hand_mesh_without_a_surface_rejected_before_any_cast(tmp_path, monkeypatch, scale, obj,
                                                              message):
    def never(*args, **kwargs):
        raise AssertionError("a hand mesh was cast before every hand mesh was checked")

    monkeypatch.setattr(pipeline, "first_hit_map", never)
    cam = Camera(fx=40.0, fy=40.0, cx=16.0, cy=16.0, width=32, height=32)
    meshio.save_camera(cam, tmp_path / "camera.json")
    quad = TriangleMesh(np.array([[-0.2, -0.2, 1.0], [0.2, -0.2, 1.0], [0.2, 0.2, 1.0],
                                  [-0.2, 0.2, 1.0]]), np.array([[0, 1, 2], [0, 2, 3]]))
    meshio.save_obj(quad, tmp_path / "hand_000000.obj")
    if obj is None:
        meshio.save_obj(TriangleMesh(quad.vertices * scale, quad.faces),
                        tmp_path / "hand_000001.obj")
    else:
        (tmp_path / "hand_000001.obj").write_text(obj)
    (tmp_path / "run.cfg").write_text("hand_dir = .\ncamera = camera.json\n")
    out = tmp_path / "prep"
    code, err = run_quietly(["prep", "--config", str(tmp_path / "run.cfg"), "--out", str(out)])
    assert_rejected(code, err, out)
    assert f"hand_000001.obj: hand mesh cannot be cast: {message}" in err


def test_deleted_cloud_rejected(scene, tmp_path):
    (scene / "cloud_000000.ply").unlink()
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert "feat_000000.fmap" in err and "frame 0 has no cloud file" in err


@pytest.mark.parametrize("kind, ext", [("feat", "fmap"), ("mask", "pgm"), ("gt", "ply")])
def test_frame_file_outside_the_frame_set_rejected(scene, tmp_path, kind, ext):
    shutil.copy(scene / f"{kind}_000001.{ext}", scene / f"{kind}_000002.{ext}")
    code, err = track(scene, tmp_path / "out")
    assert_rejected(code, err, tmp_path / "out")
    assert f"{kind}_000002.{ext}" in err


# ---------------------------------------------------------------------------
# Property test: one corruption of the tiny scene per example. Each corruption
# returns True when it may leave the input valid (then track may exit 0).

_READ_FILES = ("camera.json", "model.obj", "cloud_000000.ply", "cloud_000001.ply",
               "feat_000000.fmap", "feat_000001.fmap", "mask_000000.pgm", "mask_000001.pgm",
               "gt_000000.ply", "gt_000001.ply")
_CONFIG_FLOATS = ("w_cd", "w_dino", "lambda_rot", "lambda_trans", "norm_scale",
                  "penalty_factor", "icp_tol", "translation_half_extent")
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _truncate(scene, draw):
    name = draw(st.sampled_from(_READ_FILES))
    data = (scene / name).read_bytes()
    cut = draw(st.integers(0, len(data) - 1))
    (scene / name).write_bytes(data[:cut])
    # a mesh cut in its face lines keeps fewer faces; a JSON cut after its
    # closing brace drops only whitespace
    return name == "model.obj" or (name == "camera.json" and cut > data.rindex(b"}"))


def _flip_dimension(scene, draw):
    t = draw(st.integers(0, 1))
    if draw(st.booleans()):
        path = scene / f"feat_{t:06d}.fmap"
        data = bytearray(path.read_bytes())
        offset = 8 + 4 * draw(st.integers(0, 2))  # H, W or C
        old = int.from_bytes(data[offset:offset + 4], "little")
        new = draw(st.integers(0, 2**32 - 1).filter(lambda v: v != old))
        data[offset:offset + 4] = new.to_bytes(4, "little")
        path.write_bytes(bytes(data))
    else:
        path = scene / f"mask_{t:06d}.pgm"
        magic, w, h, rest = path.read_bytes().split(maxsplit=3)
        dims = [int(w), int(h)]
        axis = draw(st.integers(0, 1))
        dims[axis] = draw(st.integers(0, 10**6).filter(lambda v: v != dims[axis]))
        path.write_bytes(b"%s\n%d %d\n%s" % (magic, dims[0], dims[1], rest))
    return False


def _ply_vertex_offsets(data: bytes) -> tuple[int, int, int]:
    """(body start, vertex record size, vertex count) of a binary PLY."""
    end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:end].decode("ascii")
    count = int(re.search(r"element vertex (\d+)", header).group(1))
    block = header.split("element vertex")[1].split("element")[0]
    sizes = {"float": 4, "uchar": 1}
    stride = sum(sizes[m] for m in re.findall(r"property (\w+) \w+", block))
    return end, stride, count


def _non_finite_value(scene, draw):
    value = draw(_NON_FINITE)
    target = draw(st.sampled_from(["ply", "obj", "camera"]))
    if target == "ply":
        path = scene / draw(st.sampled_from(["cloud_000000.ply", "cloud_000001.ply",
                                             "gt_000000.ply", "gt_000001.ply"]))
        data = bytearray(path.read_bytes())
        start, stride, count = _ply_vertex_offsets(bytes(data))
        at = start + stride * draw(st.integers(0, count - 1)) + 4 * draw(st.integers(0, 2))
        data[at:at + 4] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
    elif target == "obj":
        _replace_obj_token(scene, draw, "v", repr(value))
    else:
        cam = json.loads((scene / "camera.json").read_text())
        cam[draw(st.sampled_from(sorted(cam)))] = value
        (scene / "camera.json").write_text(json.dumps(cam))
    return False


def _replace_obj_token(scene, draw, prefix, token):
    lines = (scene / "model.obj").read_text().splitlines()
    rows = [i for i, line in enumerate(lines) if line.startswith(prefix + " ")]
    i = draw(st.sampled_from(rows))
    parts = lines[i].split()
    parts[draw(st.integers(1, len(parts) - 1))] = token
    lines[i] = " ".join(parts)
    (scene / "model.obj").write_text("\n".join(lines) + "\n")


def _non_numeric_obj_token(scene, draw):
    token = draw(st.text(alphabet="abcdefghijklmnopqrstuvwxyz?!", min_size=1, max_size=6))
    _replace_obj_token(scene, draw, draw(st.sampled_from(["v", "f"])), token)
    return False


def _delete(scene, draw):
    name = draw(st.sampled_from(["cloud_000000.ply", "cloud_000001.ply", "feat_000000.fmap",
                                 "feat_000001.fmap", "gt_000000.ply", "gt_000001.ply"]))
    (scene / name).unlink()
    # a frame without its cloud leaves its other files outside the frame set
    return False


def _channel_mismatch(scene, draw):
    path = scene / f"feat_{draw(st.integers(0, 1)):06d}.fmap"
    feats, mask = meshio.load_fmap(path)
    channels = draw(st.integers(1, 16).filter(lambda c: c != feats.shape[2]))
    meshio.save_fmap(np.resize(feats, feats.shape[:2] + (channels,)), mask, path)
    return False


def _config_float(scene, draw):
    set_config(scene, **{draw(st.sampled_from(_CONFIG_FLOATS)): repr(draw(_NON_FINITE))})
    return False


def _negative_seed(scene, draw):
    key = draw(st.sampled_from(["seed", "synthetic_feature_seed"]))
    set_config(scene, **{key: draw(st.integers(-2**63, -1))})
    return False


_CORRUPTIONS = (_truncate, _flip_dimension, _non_finite_value, _non_numeric_obj_token,
                _delete, _config_float, _negative_seed, _channel_mismatch)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_corrupted_scene_keeps_the_contract(tiny_scene, data):
    corrupt = data.draw(st.sampled_from(_CORRUPTIONS))
    with tempfile.TemporaryDirectory() as tmp:
        scene = Path(tmp) / "scene"
        shutil.copytree(tiny_scene, scene)
        may_stay_valid = corrupt(scene, data.draw)
        out = Path(tmp) / "out"
        code, err = track(scene, out)
        if code == 0:
            assert may_stay_valid, f"{corrupt.__name__} was accepted"
            assert (out / "track.json").is_file()
        else:
            assert_rejected(code, err, out, codes=(2, 3))
