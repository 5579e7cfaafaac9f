import numpy as np
import pytest

from rigalign import meshio
from rigalign.config import RunConfig, load_config, parse_config, serialize_config
from rigalign.errors import InvalidInput
from rigalign.geometry import Camera, PointCloud, TriangleMesh
from rigalign.seeding import derive_seed
from rigalign.synthetic import SceneSpec


@pytest.fixture
def mesh():
    verts = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.0, 0.1, 0], [0.0, 0, 0.1]])
    faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    return TriangleMesh(verts, faces)


class TestObj:
    def test_round_trip(self, mesh, tmp_path):
        path = tmp_path / "m.obj"
        meshio.save_obj(mesh, path)
        back = meshio.load_obj(path)
        assert np.allclose(back.vertices, mesh.vertices)
        assert np.array_equal(back.faces, mesh.faces)

    def test_polygon_fan_triangulation(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        back = meshio.load_obj(path)
        assert np.array_equal(back.faces, [[0, 1, 2], [0, 2, 3]])

    def test_slash_indices_and_comments(self, tmp_path):
        path = tmp_path / "m.obj"
        path.write_text("# header\nv 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//1 2//1 3//1\n")
        back = meshio.load_obj(path)
        assert len(back.faces) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidInput):
            meshio.load_obj(tmp_path / "absent.obj")

    def test_bad_vertex(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0\n")
        with pytest.raises(InvalidInput):
            meshio.load_obj(path)

    @pytest.mark.parametrize("line", ["v 0 abc 0", "f x1 2 3", "f 1 2/1 ?/3"])
    def test_non_numeric_token_names_path_and_line(self, tmp_path, line):
        path = tmp_path / "bad.obj"
        path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{line}\n")
        with pytest.raises(InvalidInput, match=f"{path}:4: "):
            meshio.load_obj(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_vertex_rejected(self, tmp_path, token):
        path = tmp_path / "bad.obj"
        path.write_text(f"v 0 0 0\nv 1 {token} 0\nv 0 1 0\nf 1 2 3\n")
        with pytest.raises(InvalidInput, match="finite"):
            meshio.load_obj(path)


class TestPly:
    def test_mesh_round_trip(self, mesh, tmp_path):
        path = tmp_path / "m.ply"
        meshio.save_ply_mesh(mesh, path)
        back = meshio.load_ply_mesh(path)
        assert np.allclose(back.vertices, mesh.vertices, atol=1e-7)
        assert np.array_equal(back.faces, mesh.faces)

    def test_cloud_round_trip_plain(self, tmp_path):
        rng = np.random.default_rng(0)
        pc = PointCloud(rng.normal(size=(50, 3)).astype(np.float32).astype(float))
        path = tmp_path / "c.ply"
        meshio.save_ply_cloud(pc, path)
        back = meshio.load_ply_cloud(path)
        assert np.allclose(back.points, pc.points, atol=1e-7)
        assert back.colors is None and back.labels is None

    def test_cloud_round_trip_with_attrs(self, tmp_path):
        rng = np.random.default_rng(1)
        pc = PointCloud(
            rng.normal(size=(30, 3)),
            colors=np.round(rng.random((30, 3)) * 255) / 255,
            labels=rng.integers(0, 3, size=30),
        )
        path = tmp_path / "c.ply"
        meshio.save_ply_cloud(pc, path)
        back = meshio.load_ply_cloud(path)
        assert np.allclose(back.colors, pc.colors, atol=1e-9)
        assert np.array_equal(back.labels, pc.labels)

    def test_geometry_dispatch(self, mesh, tmp_path):
        mpath = tmp_path / "m.ply"
        meshio.save_ply_mesh(mesh, mpath)
        assert isinstance(meshio.load_ply_geometry(mpath), TriangleMesh)
        cpath = tmp_path / "c.ply"
        meshio.save_ply_cloud(PointCloud(np.zeros((3, 3))), cpath)
        assert np.array_equal(meshio.load_ply_geometry(cpath), np.zeros((3, 3)))

    def test_ascii_rejected(self, tmp_path):
        path = tmp_path / "a.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 0\nend_header\n")
        with pytest.raises(InvalidInput):
            meshio.load_ply_cloud(path)

    def test_truncated_rejected(self, mesh, tmp_path):
        path = tmp_path / "t.ply"
        meshio.save_ply_mesh(mesh, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(InvalidInput, match="truncated"):
            meshio.load_ply_mesh(path)

    @pytest.mark.parametrize("cut", [1, 5, 12])
    def test_truncated_cloud_rejected(self, tmp_path, cut):
        path = tmp_path / "c.ply"
        meshio.save_ply_cloud(PointCloud(np.ones((4, 3)), labels=np.array([0, 1, 2, 2])), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - cut])
        with pytest.raises(InvalidInput, match="truncated"):
            meshio.load_ply_cloud(path)

    def test_negative_list_length_rejected(self, tmp_path):
        """A signed list length of -1 would read the rest of the body."""
        verts = np.zeros((3, 3), dtype="<f4").tobytes()
        face = np.array([-1], dtype="i1").tobytes() + np.arange(3, dtype="<i4").tobytes()
        path = tmp_path / "n.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
                         b"property float x\nproperty float y\nproperty float z\n"
                         b"element face 1\nproperty list char int vertex_indices\nend_header\n"
                         + verts + face)
        with pytest.raises(InvalidInput, match="n.ply: PLY element 'face', record 1: negative "
                                               "list length -1"):
            meshio.load_ply_mesh(path)

    @pytest.mark.parametrize("line", ["element vertex many", "element vertex -1",
                                      "property float128 x", "property list uchar"])
    def test_bad_header_line_rejected(self, tmp_path, line):
        path = tmp_path / "h.ply"
        path.write_bytes(f"ply\nformat binary_little_endian 1.0\nelement vertex 0\n{line}\n"
                         "end_header\n".encode())
        with pytest.raises(InvalidInput, match="bad PLY"):
            meshio.load_ply_cloud(path)

    def test_scalar_property_named_list_loads(self, tmp_path):
        # a list property is told apart by its declaration, not by its name
        rec = np.zeros(2, dtype=[("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("list", "u1")])
        rec["x"] = [0.0, 1.0]
        path = tmp_path / "l.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                         b"property float x\nproperty float y\nproperty float z\n"
                         b"property uchar list\nend_header\n" + rec.tobytes())
        assert meshio.load_ply_cloud(path).points.tolist() == [[0, 0, 0], [1, 0, 0]]

    @pytest.mark.parametrize("channel", ["red", "green", "blue"])
    @pytest.mark.parametrize("ply_type, dtype", [("float", "<f4"), ("double", "<f8"),
                                                 ("ushort", "<u2"), ("char", "i1")])
    def test_colour_other_than_uchar_rejected(self, tmp_path, channel, ply_type, dtype):
        """A float red of 0.5 would load as 0.5 / 255 if divided as a uchar."""
        types = {c: (ply_type, dtype) if c == channel else ("uchar", "u1")
                 for c in ("red", "green", "blue")}
        rec = np.zeros(2, dtype=[("p", "<f4", 3)] + [(c, t) for c, (_, t) in types.items()])
        rec[channel] = [0, 1]
        path = tmp_path / "c.ply"
        path.write_bytes(("ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                          "property float x\nproperty float y\nproperty float z\n"
                          + "".join(f"property {t} {c}\n" for c, (t, _) in types.items())
                          + "end_header\n").encode() + rec.tobytes())
        with pytest.raises(InvalidInput, match=f"c.ply: vertex property '{channel}' must have "
                                               f"type uchar, not {np.dtype(dtype)}"):
            meshio.load_ply_cloud(path)


class TestFmap:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(5, 7, 3)).astype(np.float32)
        mask = rng.random((5, 7)) > 0.5
        path = tmp_path / "f.fmap"
        meshio.save_fmap(feats, mask, path)
        f2, m2 = meshio.load_fmap(path)
        assert np.array_equal(f2, feats)
        assert np.array_equal(m2, mask)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.fmap"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(InvalidInput):
            meshio.load_fmap(path)

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "x.fmap"
        import struct

        path.write_bytes(b"FMAP" + struct.pack("<IIII", 1, 2, 2, 1) + bytes(3))
        with pytest.raises(InvalidInput):
            meshio.load_fmap(path)

    def test_load_gives_dims_and_rejects_bad_files(self, tmp_path):
        import struct

        path = tmp_path / "f.fmap"
        meshio.save_fmap(np.zeros((5, 7, 3), dtype=np.float32), np.ones((5, 7), bool), path)
        feats, mask = meshio.load_fmap(path)
        assert feats.shape == (5, 7, 3) and mask.shape == (5, 7)
        bad = {
            "magic": b"NOPE" + bytes(16),
            "header": b"FMAP" + bytes(8),
            "version": b"FMAP" + struct.pack("<IIII", 2, 1, 1, 1) + bytes(5),
            "payload": b"FMAP" + struct.pack("<IIII", 1, 2, 2, 1) + bytes(3),
        }
        for name, blob in bad.items():
            path = tmp_path / f"{name}.fmap"
            path.write_bytes(blob)
            with pytest.raises(InvalidInput):
                meshio.load_fmap(path)
        with pytest.raises(InvalidInput):
            meshio.load_fmap(tmp_path / "absent.fmap")


class TestEmit:
    def test_round_trip(self, tmp_path):
        costs = np.arange(12, dtype=float).reshape(3, 4)
        path = tmp_path / "e.emit"
        meshio.save_emission_table(costs, path)
        back = meshio.load_emission_table(path)
        assert back.shape == (3, 4)
        assert np.allclose(back, costs)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.emit"
        path.write_bytes(b"XXXX" + bytes(8))
        with pytest.raises(InvalidInput):
            meshio.load_emission_table(path)

    @pytest.mark.parametrize("cut", range(4, 12))
    def test_header_cut_short(self, tmp_path, cut):
        path = tmp_path / "e.emit"
        meshio.save_emission_table(np.zeros((2, 3)), path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(InvalidInput, match="EMIT header cut short"):
            meshio.load_emission_table(path)


class TestAtomicWrite:
    def test_failed_rename_keeps_old_file_and_leaves_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "t.emit"
        meshio.save_emission_table(np.zeros((2, 3)), path)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(meshio.os, "replace", failing_replace)
        with pytest.raises(OSError):
            meshio.save_emission_table(np.ones((4, 5)), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.emit"]


class TestPgm:
    def test_round_trip(self, tmp_path):
        mask = np.random.default_rng(3).random((9, 4)) > 0.3
        path = tmp_path / "m.pgm"
        meshio.save_pgm_mask(mask, path)
        assert np.array_equal(meshio.load_pgm_mask(path), mask)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        payload = bytes([255, 0, 0, 255])
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + payload)
        mask = meshio.load_pgm_mask(path)
        assert np.array_equal(mask, [[True, False], [False, True]])

    @pytest.mark.parametrize("header", [b"P5\n4 x\n255\n", b"P5\n-2 -2\n255\n", b"P5\n# no end"])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "m.pgm"
        path.write_bytes(header + bytes(4))
        with pytest.raises(InvalidInput):
            meshio.load_pgm_mask(path)

    def test_p2_rejected(self, tmp_path):
        path = tmp_path / "p2.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(InvalidInput):
            meshio.load_pgm_mask(path)


class TestCameraJson:
    def test_round_trip(self, tmp_path):
        cam = Camera(fx=150.0, fy=140.0, cx=32.5, cy=31.5, width=64, height=48)
        path = tmp_path / "cam.json"
        meshio.save_camera(cam, path)
        assert meshio.load_camera(path) == cam

    def test_missing_field(self, tmp_path):
        path = tmp_path / "cam.json"
        path.write_text('{"fx": 100}')
        with pytest.raises(InvalidInput):
            meshio.load_camera(path)

    @pytest.mark.parametrize("field, value", [
        ("fx", "NaN"), ("fy", "Infinity"), ("fx", "0"), ("fy", "-1"),
        ("cx", "Infinity"), ("cy", "NaN"), ("cx", "-Infinity"),
        ("width", "Infinity"), ("height", "NaN"), ("width", "null"), ("fx", "null"),
    ])
    def test_malformed_field_rejected(self, tmp_path, field, value):
        fields = {"fx": "150.0", "fy": "150.0", "cx": "32.0", "cy": "32.0",
                  "width": "64", "height": "64", field: value}
        path = tmp_path / "cam.json"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        with pytest.raises(InvalidInput, match="invalid camera file"):
            meshio.load_camera(path)


class TestSeeds:
    def test_parts_below_32_bits_derive_as_before(self):
        for parts in [(0,), (11, 0), (5, 102, 3), (2**32 - 1, 7)]:
            want = int(np.random.SeedSequence([p & 0xFFFFFFFF for p in parts])
                       .generate_state(1, np.uint64)[0])
            assert derive_seed(*parts) == want

    @pytest.mark.parametrize("parts", [(2**32,), (0, 2**32 + 1), (-1,), (3, -2**40)])
    def test_part_outside_32_bits_rejected(self, parts):
        # SeedSequence([2**32]) equals SeedSequence([0, 1]): wide parts would alias
        with pytest.raises(InvalidInput, match="seed part"):
            derive_seed(*parts)

    def test_scene_seed_bound(self):
        assert SceneSpec(seed=2**32 - 1).seed == 2**32 - 1
        with pytest.raises(InvalidInput, match=r"seed must be < 2\*\*32"):
            SceneSpec(seed=2**32)
        with pytest.raises(InvalidInput, match="seed must be >= 0"):
            SceneSpec(seed=-1)


class TestRunConfig:
    def test_parse_serialize_round_trip(self):
        text = (
            "# sample config\n"
            "model_mesh = model.obj\n"
            "cloud_dir = clouds\n"
            "camera = camera.json\n"
            "feature_source = synthetic\n"
            "rotation_level = 1\n"
            "translation_half_extent = 0.04,0.05,0.06\n"
            "translation_counts = 3\n"
            "w_cd = 2.0\n"
            "seed = 7\n"
        )
        cfg = parse_config(text, base_dir="/tmp/x")
        again = parse_config(serialize_config(cfg), base_dir="/tmp/x")
        assert again == cfg
        assert cfg.translation_counts == (3, 3, 3)
        assert cfg.translation_half_extent == (0.04, 0.05, 0.06)

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidInput):
            parse_config("nonsense = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(InvalidInput):
            parse_config("rotation_level = banana\n")
        with pytest.raises(InvalidInput):
            parse_config("feature_source = magic\n")
        with pytest.raises(InvalidInput):
            parse_config("rotation_level = -1\n")
        with pytest.raises(InvalidInput, match="penalty_factor must be >= 0"):
            parse_config("penalty_factor = -1\n")

    def test_seed_bound(self):
        assert parse_config(f"seed = {2**32 - 1}\n").seed == 2**32 - 1
        with pytest.raises(InvalidInput, match=r"seed must be < 2\*\*32; got 4294967296"):
            parse_config(f"seed = {2**32}\n")
        # a feature-field seed is no derive_seed part: synth writes 64-bit values there
        assert parse_config(f"synthetic_feature_seed = {2**64 - 1}\n").synthetic_feature_seed == 2**64 - 1

    def test_relative_path_resolution(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("model_mesh = sub/model.obj\n")
        cfg = load_config(cfg_file)
        assert cfg.resolve(cfg.model_mesh) == tmp_path / "sub" / "model.obj"

    def test_defaults_match_spec(self):
        cfg = RunConfig()
        assert cfg.rotation_level == 2
        assert cfg.translation_counts == (5, 5, 5)
        assert cfg.translation_half_extent == (0.05, 0.05, 0.05)
        assert cfg.norm_scale == 0.7
        assert cfg.icp_max_iters == 100 and cfg.icp_tol == 1e-6
        assert cfg.w_cd == 1.0 and cfg.w_dino == 1.0
        assert cfg.lambda_rot == 1.0 and cfg.lambda_trans == 1.0
