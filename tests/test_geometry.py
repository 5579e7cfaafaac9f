import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigalign import geometry
from rigalign.errors import DegenerateGeometry, InvalidInput
from rigalign.geometry import (
    MAX_PIXELS,
    Camera,
    PointCloud,
    SimilarityTransform,
    TriangleMesh,
    apply_pose,
    cast_hit_maps,
    first_hit_map,
    matrix_to_quat,
    normalize_points,
    quat_to_matrix,
    resample_point_cloud,
    sample_mesh_surface,
)

from conftest import random_blob_mesh, subdivided
from oracles import (
    compose,
    invert_normalization,
    points_to_mesh_distance,
    random_unit_quaternions,
    ray_triangle_intersect,
    window_first_hit_map,
)


@contextmanager
def cast_pair_budget(budget):
    """geometry._CAST_PAIR_BUDGET set to `budget` inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_CAST_PAIR_BUDGET", budget)
        yield


def brute_force_pixel_cast(mesh, camera):
    """Pure-Python per-pixel, per-triangle oracle for the vectorized caster."""
    rays = camera.pixel_rays
    tris = mesh.triangles()
    hits = np.zeros((camera.height, camera.width), dtype=bool)
    points = np.zeros((camera.height, camera.width, 3))
    origin = np.zeros(3)
    for i in range(camera.height):
        for j in range(camera.width):
            best_t = math.inf
            best_p = None
            for tri in tris:
                res = ray_triangle_intersect(origin, rays[i, j], tri)
                if res is not None and res[0] < best_t:
                    best_t = res[0]
                    a1, a2, a3 = res[1]
                    best_p = a1 * tri[0] + a2 * tri[1] + a3 * tri[2]
            if best_p is not None:
                hits[i, j] = True
                points[i, j] = best_p
    return points, hits


class TestQuaternions:
    def test_matrix_round_trip(self):
        for q in random_unit_quaternions(200, seed=5):
            q2 = matrix_to_quat(quat_to_matrix(q))
            # chord-based geodesic angle stays precise near zero, unlike acos
            chord = min(np.linalg.norm(q - q2), np.linalg.norm(q + q2))
            angle = 4 * math.asin(min(1.0, chord / 2))
            assert angle < 1e-9

    def test_unit_norm_after_construction(self):
        q = SimilarityTransform([2.0, 0.0, 0.0, 0.0], np.zeros(3)).rotation
        assert abs(np.linalg.norm(q) - 1.0) < 1e-9


class TestRayTriangle:
    triangle = [(1.0, 0, 0), (0, 1.0, 0), (-1.0, -1.0, 0)]

    def test_centroid_hit(self):
        t, bary = ray_triangle_intersect((0, 0, -1), (0, 0, 1), self.triangle)
        assert t == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(bary, (1 / 3, 1 / 3, 1 / 3), atol=1e-12)

    def test_outside_support_misses(self):
        assert ray_triangle_intersect((10, 10, -1), (0, 0, 1), self.triangle) is None

    def test_hand_solved_barycentrics(self):
        # ray (0.5, 0.25, -2) +z into {(0,0,0),(1,0,0),(0,1,0)}: hit point
        # (0.5, 0.25, 0) so a2 = 0.5, a3 = 0.25, a1 = 0.25, t = 2
        tri = [(0.0, 0, 0), (1.0, 0, 0), (0.0, 1.0, 0)]
        t, bary = ray_triangle_intersect((0.5, 0.25, -2), (0, 0, 1), tri)
        assert t == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(bary, (0.25, 0.5, 0.25), atol=1e-12)

    def test_hit_point_reconstruction(self):
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(300):
            tri = rng.normal(size=(3, 3))
            origin = rng.normal(size=3) * 3
            # aim near the centroid so a good share of rays actually hit
            target = tri.mean(axis=0) + rng.normal(scale=0.3, size=3)
            d = target - origin
            d /= np.linalg.norm(d)
            res = ray_triangle_intersect(origin, d, tri)
            if res is None:
                continue
            t, (a1, a2, a3) = res
            assert t > 0
            assert min(a1, a2, a3) >= 0
            assert a1 + a2 + a3 == pytest.approx(1.0, abs=1e-12)
            hit = origin + t * d
            recon = a1 * tri[0] + a2 * tri[1] + a3 * tri[2]
            assert np.allclose(hit, recon, atol=1e-9)
            checked += 1
        assert checked > 50


class TestPixelRays:
    def test_values_match_the_per_pixel_formula(self):
        cam = Camera(fx=30.0, fy=40.0, cx=7.3, cy=4.1, width=11, height=6)
        rays = cam.pixel_rays
        assert rays.shape == (6, 11, 3)
        for i in range(6):
            for j in range(11):
                d = np.array([(j + 0.5 - cam.cx) / cam.fx, (i + 0.5 - cam.cy) / cam.fy, 1.0])
                n = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
                assert np.array_equal(rays[i, j], d / n)

    def test_built_once_and_read_only(self, camera64):
        rays = camera64.pixel_rays
        assert camera64.pixel_rays is rays
        with pytest.raises(ValueError):
            rays[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            rays[:1].reshape(-1, 3)[0] = 0.0  # a view of the cache
        assert rays[0, 0, 2] > 0.0

    @pytest.mark.parametrize("width, height", [(3841, 2160), (2160, 3841), (200_000, 200_000)])
    def test_image_over_the_pixel_limit_rejected(self, width, height):
        with pytest.raises(InvalidInput, match="pixel limit"):
            Camera(fx=500.0, fy=500.0, cx=width / 2, cy=height / 2, width=width, height=height)

    @pytest.mark.parametrize("width, height", [(1920, 1080), (3840, 2160), (1, MAX_PIXELS)])
    def test_image_at_or_under_the_limit_built_without_its_rays(self, width, height):
        cam = Camera(fx=500.0, fy=500.0, cx=width / 2, cy=height / 2, width=width, height=height)
        assert width * height <= MAX_PIXELS
        assert "pixel_rays" not in vars(cam)  # built on first use only


class TestHandSampling:
    def test_full_cover_triangle(self, camera64):
        big = TriangleMesh(
            np.array([[-100.0, -100, 2], [100.0, -100, 2], [0.0, 200, 2]]), np.array([[0, 1, 2]])
        )
        assert first_hit_map(big, camera64).mask.mean() == 1.0

    def test_mesh_behind_camera(self, camera64):
        behind = TriangleMesh(
            np.array([[-1.0, -1, -2], [1.0, -1, -2], [0.0, 1, -2]]), np.array([[0, 1, 2]])
        )
        assert first_hit_map(behind, camera64).mask.mean() == 0.0

    def test_empty_mesh_raises(self, camera64):
        with pytest.raises(DegenerateGeometry, match="mesh has no faces"):
            first_hit_map(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3))), camera64)

    def test_quad_matches_bruteforce(self, camera64, unit_quad_mesh):
        fast = first_hit_map(unit_quad_mesh, camera64)
        points, hits = brute_force_pixel_cast(unit_quad_mesh, camera64)
        assert np.array_equal(fast.mask, hits)
        assert np.allclose(fast.values, points[hits], atol=1e-12)
        assert 0 < fast.mask.mean() <= 1.0

    def test_random_meshes_match_bruteforce(self, monkeypatch):
        monkeypatch.setattr(geometry, "_CAST_PAIR_BUDGET", 37)
        camera = Camera(fx=30.0, fy=30.0, cx=8.0, cy=8.0, width=16, height=16)
        rng = np.random.default_rng(21)
        for _ in range(3):
            mesh = random_blob_mesh(rng, n_faces=int(rng.integers(20, 201)))
            fast = first_hit_map(mesh, camera)
            points, hits = brute_force_pixel_cast(mesh, camera)
            assert np.array_equal(fast.mask, hits)
            assert np.allclose(fast.values, points[hits], atol=1e-12)

    def test_hits_lie_on_surface(self, camera64, unit_quad_mesh):
        hit_map = first_hit_map(unit_quad_mesh, camera64)
        d = points_to_mesh_distance(hit_map.values, unit_quad_mesh)
        assert d.max() < 1e-6


def assert_matches_bruteforce(mesh, camera, budget=4096):
    with cast_pair_budget(budget):
        fast = first_hit_map(mesh, camera)
    points, hits = brute_force_pixel_cast(mesh, camera)
    assert np.array_equal(fast.mask, hits)
    assert np.allclose(fast.values, points[hits], atol=1e-12)
    return fast.mask


def triangle_at(u, v, camera, z=1.0, half=0.1):
    """Jittered triangle at depth z whose projection is centered on pixel
    coordinates (u, v) and spans about +-half * fx pixels."""
    x = (u - camera.cx) * z / camera.fx
    y = (v - camera.cy) * z / camera.fy
    verts = np.array(
        [[x - half, y - 0.9 * half, z], [x + 1.1 * half, y - half, z], [x + 0.07 * half, y + half, z]]
    )
    return TriangleMesh(verts, np.array([[0, 1, 2]]))


class TestProjectedWindow:
    """first_hit_map casts each face's rays only inside that face's projected
    box; these cases check it against the unboxed per-pixel cast."""

    camera = Camera(fx=30.0, fy=30.0, cx=8.0, cy=8.0, width=16, height=16)

    @pytest.mark.parametrize(
        "u, v, edge",
        [(0.0, 8.3, "left"), (16.0, 7.7, "right"), (8.3, 0.0, "top"), (7.7, 16.0, "bottom")],
    )
    def test_straddles_image_border(self, u, v, edge):
        hits = assert_matches_bruteforce(triangle_at(u, v, self.camera), self.camera)
        border = {"left": hits[:, 0], "right": hits[:, -1], "top": hits[0], "bottom": hits[-1]}
        assert border[edge].any()
        assert not hits.all()

    @pytest.mark.parametrize("u, v", [(40.0, 8.0), (8.0, -30.0), (16.9, 8.0), (-0.9, -0.9)])
    def test_wholly_off_image(self, u, v):
        mesh = triangle_at(u, v, self.camera, half=0.02)
        assert not assert_matches_bruteforce(mesh, self.camera).any()

    def test_wholly_behind_camera(self):
        mesh = triangle_at(8.0, 8.0, self.camera, z=-1.0, half=0.5)
        assert not assert_matches_bruteforce(mesh, self.camera).any()

    def test_crosses_camera_plane(self):
        mesh = TriangleMesh(
            np.array([[0.0137, 0.0071, -0.5123], [0.3071, 0.0193, 2.0171], [-0.2889, 0.1037, 1.9893]]),
            np.array([[0, 1, 2]]),
        )
        assert assert_matches_bruteforce(mesh, self.camera).any()

    def test_sub_pixel_triangle_between_centers(self):
        # projects into u, v in about [8.1, 8.4]: between centers 7.5 and 8.5
        mesh = triangle_at(8.25, 8.25, self.camera, half=0.004)
        assert not assert_matches_bruteforce(mesh, self.camera).any()

    def test_sub_pixel_triangle_over_one_center(self):
        mesh = triangle_at(8.5, 8.5, self.camera, half=0.006)
        hits = assert_matches_bruteforce(mesh, self.camera)
        assert hits.sum() == 1 and hits[8, 8]

    @pytest.mark.parametrize("budget", [1, 3, 7])
    def test_chunk_smaller_than_face_count(self, budget):
        rng = np.random.default_rng(31)
        mesh = random_blob_mesh(rng, n_faces=12, center=(0.25, -0.1, 1.0), spread=0.15)
        hits = assert_matches_bruteforce(mesh, self.camera, budget)
        assert hits.any() and not hits.all()

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.tuples(*[st.floats(-1.5, 1.5)] * 2, st.floats(-2.0, 1.0)),
        st.floats(0.3, 2.0),
    )
    def test_random_poses_match_bruteforce(self, seed, translation, scale):
        rng = np.random.default_rng(seed)
        mesh = random_blob_mesh(rng, n_faces=int(rng.integers(1, 25)))
        q = random_unit_quaternions(1, seed=seed)[0]
        pose = SimilarityTransform(q, np.array(translation), scale)
        assert_matches_bruteforce(apply_pose(mesh, pose), self.camera,
                                  budget=int(rng.integers(1, 30)))


def assert_matches_window_cast(vertex_sets, faces, camera, budget=4096):
    """cast_hit_maps over a pose stack, `budget` pairs a step, gives, bitwise,
    each pose's window cast."""
    with cast_pair_budget(budget):
        maps = list(cast_hit_maps(iter(vertex_sets), faces, camera))
    assert len(maps) == len(vertex_sets)
    for verts, got in zip(vertex_sets, maps):
        want = window_first_hit_map(TriangleMesh(verts, faces), camera)
        assert np.array_equal(got.mask, want.mask)
        assert np.array_equal(got.values, want.values)
    return maps


def pose_stack(mesh, count, seed, shift=0.2):
    """`count` random similarity poses of the mesh's vertices about their mean."""
    rng = np.random.default_rng(seed)
    center = mesh.vertices.mean(axis=0)
    return [SimilarityTransform(q, rng.normal(scale=shift, size=3), rng.uniform(0.6, 1.6)).apply(
        mesh.vertices - center) + center for q in random_unit_quaternions(count, seed)]


class TestFaceBinnedCast:
    """cast_hit_maps against the window cast of each pose (tests/oracles.py),
    which runs the same arithmetic over every face in the mesh's window."""

    camera = Camera(fx=30.0, fy=33.0, cx=8.3, cy=7.6, width=16, height=15)

    @pytest.mark.parametrize("budget", [1, 3, 7, 10**9])
    def test_random_pose_stacks(self, budget):
        rng = np.random.default_rng(budget)
        for n_faces, poses in [(1, 3), (6, 2), (17, 4)]:
            mesh = random_blob_mesh(rng, n_faces, spread=0.2)
            stack = [mesh.vertices] + pose_stack(mesh, poses, seed=n_faces)
            maps = assert_matches_window_cast(stack, mesh.faces, self.camera, budget)
            assert any(m.mask.any() for m in maps)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 5),
           st.sampled_from([5, 64, 4096]))
    def test_random_meshes_and_pose_stacks(self, seed, poses, budget):
        rng = np.random.default_rng(seed)
        mesh = random_blob_mesh(rng, n_faces=int(rng.integers(1, 40)))
        assert_matches_window_cast(pose_stack(mesh, poses, seed, shift=0.6), mesh.faces,
                                   self.camera, budget)

    @pytest.mark.parametrize("budget", [3, 4096])
    def test_faces_behind_and_across_the_camera_plane(self, budget):
        verts = np.array([
            [-0.2, -0.2, 1.0], [0.25, -0.15, 1.1], [0.0, 0.3, 0.9],  # in front
            [-0.3, -0.3, -1.0], [0.3, -0.3, -1.0], [0.0, 0.3, -1.0],  # wholly behind
            [0.0137, 0.0071, -0.5123], [0.3071, 0.0193, 2.0171],  # across the plane
            [-0.2889, 0.1037, 1.9893],
            [0.1, 0.1, 0.0], [0.2, 0.1, 1.0], [0.1, 0.2, 1.0],  # a vertex on the plane
        ])
        faces = np.arange(12).reshape(4, 3)
        mesh = TriangleMesh(verts, faces)
        tilt = SimilarityTransform(random_unit_quaternions(1, seed=3)[0] * [8, 1, 1, 1],
                                   np.zeros(3))
        maps = assert_matches_window_cast([verts, tilt.apply(verts)], faces, self.camera,
                                          budget)
        assert maps[0].mask.any()

    def test_duplicate_faces_tie_in_t(self):
        rng = np.random.default_rng(5)
        mesh = random_blob_mesh(rng, n_faces=6, spread=0.15)
        # each face again, the same and with its corners rotated, and one
        # copy on vertices of its own
        faces = np.concatenate([mesh.faces, mesh.faces, np.roll(mesh.faces, 1, axis=1)])
        verts = np.concatenate([mesh.vertices, mesh.vertices[mesh.faces[2]]])
        faces = np.concatenate([faces, len(mesh.vertices) + np.array([[0, 1, 2]])])
        dup = TriangleMesh(verts, faces)
        for budget in (2, 4096):
            assert_matches_window_cast([dup.vertices] + pose_stack(dup, 3, seed=5), dup.faces,
                                       self.camera, budget)

    def test_rays_through_shared_edges_and_vertices(self):
        # a grid whose vertices sit on pixel-center rays: every ray through a
        # vertex or along a diagonal meets several faces at one t
        cam = self.camera
        jj, ii = np.meshgrid(np.arange(3, 12, 2), np.arange(2, 11, 2))
        x = (jj + 0.5 - cam.cx) / cam.fx
        y = (ii + 0.5 - cam.cy) / cam.fy
        verts = np.stack([x, y, np.ones_like(x)], axis=-1).reshape(-1, 3)
        n = jj.shape[1]
        faces = []
        for r in range(jj.shape[0] - 1):
            for c in range(n - 1):
                a, b, d, e = r * n + c, r * n + c + 1, (r + 1) * n + c, (r + 1) * n + c + 1
                faces += [[a, b, e], [a, e, d]]
        faces = np.array(faces)
        stack = [verts * depth for depth in (1.0, 0.7, 2.5)]
        for budget in (7, 4096):
            maps = assert_matches_window_cast(stack, faces, cam, budget)
            # every ray through an inner edge or vertex hits
            assert maps[0].mask[3:10, 4:11].all()

    def test_edges_along_pixel_center_rays(self):
        # a vertex or edge on the box's outermost pixel-center ray projects to
        # that center give or take rounding, which the box padding absorbs
        rng = np.random.default_rng(11)
        for _ in range(2000):
            cam = Camera(fx=rng.uniform(10, 60), fy=rng.uniform(10, 60), cx=rng.uniform(5, 11),
                         cy=rng.uniform(5, 11), width=16, height=16)
            z = rng.uniform(0.3, 3.0)
            a, b = sorted(rng.integers(1, 15, 2))
            c, reach = int(rng.integers(1, 15)), rng.choice([-1, 1]) * rng.uniform(1, 4)
            # an edge along column c (or row c), the third corner `reach` pixels off it
            uv = np.array([[c, a], [c, b + 1], [c + reach, (a + b + 1) / 2]]) + 0.5
            if rng.random() < 0.5:
                uv = uv[:, ::-1]
            verts = np.stack([(uv[:, 0] - cam.cx) / cam.fx * z, (uv[:, 1] - cam.cy) / cam.fy * z,
                              np.full(3, z)], axis=1)
            assert_matches_window_cast([verts], np.array([[0, 1, 2]]), cam)

    def test_off_image_and_sub_pixel_triangles(self):
        parts = [triangle_at(40.0, 8.0, self.camera, half=0.02),
                 triangle_at(-0.9, -0.9, self.camera, half=0.02),
                 triangle_at(8.25, 8.25, self.camera, half=0.004),
                 triangle_at(5.5, 3.5, self.camera, half=0.006),
                 triangle_at(16.0, 7.7, self.camera)]
        verts = np.concatenate([m.vertices for m in parts])
        faces = np.arange(len(verts)).reshape(-1, 3)
        shifts = [np.zeros(3), np.array([0.01, 0.0, 0.0]), np.array([0.0, -0.004, 0.3])]
        maps = assert_matches_window_cast([verts + s for s in shifts], faces, self.camera, 3)
        assert maps[0].mask[3, 5]

    def test_no_poses(self, unit_quad_mesh):
        assert list(cast_hit_maps([], unit_quad_mesh.faces, self.camera)) == []

    def test_one_pose(self, camera64, unit_quad_mesh):
        (got,) = assert_matches_window_cast([unit_quad_mesh.vertices], unit_quad_mesh.faces,
                                            camera64)
        assert got.mask.any()

    def test_peak_memory_does_not_grow_with_pose_count(self):
        import tracemalloc

        from rigalign.synthetic import irregular_tetrahedron

        mesh = subdivided(irregular_tetrahedron(), 5)
        assert len(mesh.faces) == 4096
        camera = Camera(fx=600.0, fy=600.0, cx=128.0, cy=128.0, width=256, height=256)
        camera.pixel_rays  # cached on the camera, outside the cast's own memory
        quats = random_unit_quaternions(64, seed=9)

        def peak(count):
            poses = [SimilarityTransform(q, np.array([0.0, 0.0, 0.3])) for q in quats[:count]]
            tracemalloc.start()
            try:
                covered = 0
                for hit_map in cast_hit_maps((p.apply(mesh.vertices) for p in poses), mesh.faces,
                                             camera):
                    covered += int(hit_map.mask.sum())
                assert covered > 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(8), peak(64)
        assert many <= few + 256 * 1024
        # 6.7 MiB when written: two 256 px maps alive at once (1.6 MiB each),
        # the per-pixel winners (2 MiB), one face block and one step's pairs
        assert many < 8 * 2**20


class TestNormalizePoints:
    def test_already_normalized_unchanged(self):
        # mean 0 and RMS distance 1 by construction
        pts = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        out, _, sigma = normalize_points(pts, s=1.0)
        assert np.allclose(out, pts, atol=1e-12)
        assert sigma == pytest.approx(1.0)

    def test_hand_computed_example(self):
        out, mean, sigma = normalize_points(np.array([[0.0, 0, 0], [2.0, 0, 0]]), s=1.0)
        assert np.allclose(mean, [1, 0, 0])
        assert sigma == pytest.approx(1.0)
        assert np.allclose(out, [[-1, 0, 0], [1, 0, 0]])

    def test_linear_in_s(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 3))
        out1, _, _ = normalize_points(pts, s=1.0)
        out7, _, _ = normalize_points(pts, s=0.7)
        assert np.allclose(out7, 0.7 * out1, atol=1e-12)

    def test_output_statistics(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(100, 3)) * 5 + 2
        out, _, _ = normalize_points(pts, s=0.7)
        assert np.allclose(out.mean(axis=0), 0, atol=1e-9)
        rms = math.sqrt(float(np.mean(np.sum(out**2, axis=1))))
        assert rms == pytest.approx(0.7, abs=1e-9)

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(50, 3))
        out, mean, sigma = normalize_points(pts, s=0.7)
        assert np.allclose(invert_normalization(out, mean, sigma, 0.7), pts, atol=1e-9)

    def test_degenerate_cloud(self):
        with pytest.raises(DegenerateGeometry, match="all points identical"):
            normalize_points(np.zeros((5, 3)), s=1.0)


class TestSurfaceSampling:
    def test_single_triangle_on_surface(self):
        mesh = TriangleMesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]), np.array([[0, 1, 2]]))
        pts = sample_mesh_surface(mesh, 1, seed=0)
        assert pts.shape == (1, 3)
        assert points_to_mesh_distance(pts, mesh).max() < 1e-9

    def test_area_proportional_selection(self):
        # areas 3:1 -> expected counts 3:1 within 3% (binomial concentration)
        verts = np.array(
            [[0.0, 0, 0], [3.0, 0, 0], [0.0, 2, 0], [10.0, 0, 0], [11.0, 0, 0], [10.0, 2, 0]]
        )
        mesh = TriangleMesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))
        pts = sample_mesh_surface(mesh, 100000, seed=1)
        frac = np.mean(pts[:, 0] < 5.0)
        assert abs(frac - 0.75) < 0.03 * 0.75

    def test_unit_cube_face_balance(self):
        v = np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
            dtype=float,
        )
        f = np.array(
            [
                [0, 2, 1], [0, 3, 2],  # z = 0
                [4, 5, 6], [4, 6, 7],  # z = 1
                [0, 1, 5], [0, 5, 4],  # y = 0
                [3, 6, 2], [3, 7, 6],  # y = 1
                [0, 4, 7], [0, 7, 3],  # x = 0
                [1, 2, 6], [1, 6, 5],  # x = 1
            ]
        )
        cube = TriangleMesh(v, f)
        pts = sample_mesh_surface(cube, 10000, seed=2)
        assert points_to_mesh_distance(pts, cube).max() < 1e-9
        for axis, value in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]:
            on_face = np.isclose(pts[:, axis], value).mean()
            assert abs(on_face - 1 / 6) < 0.05 / 6

    def test_determinism(self):
        mesh = TriangleMesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]), np.array([[0, 1, 2]]))
        a = sample_mesh_surface(mesh, 100, seed=9)
        b = sample_mesh_surface(mesh, 100, seed=9)
        assert np.array_equal(a, b)

    def test_zero_area(self):
        flat = TriangleMesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]), np.array([[0, 1, 2]]))
        with pytest.raises(DegenerateGeometry, match="zero surface area"):
            sample_mesh_surface(flat, 10, seed=0)


class TestResample:
    def cloud(self, n, seed=0):
        return np.random.default_rng(seed).normal(size=(n, 3))

    def test_same_size_is_permutation(self):
        pts = self.cloud(64)
        out = resample_point_cloud(pts, 64, seed=1)
        assert sorted(map(tuple, out)) == sorted(map(tuple, pts))

    def test_supersample_keeps_originals(self):
        pts = self.cloud(5)
        out = resample_point_cloud(pts, 12, seed=2)
        assert out.shape == (12, 3)
        originals = set(map(tuple, pts))
        assert set(map(tuple, out[:5])) == originals
        assert set(map(tuple, out[5:])) <= originals

    def test_subsample_is_distinct_subset(self):
        pts = self.cloud(10000)
        out = resample_point_cloud(pts, 10, seed=3)
        assert out.shape == (10, 3)
        rows = set(map(tuple, out))
        assert len(rows) == 10
        assert rows <= set(map(tuple, pts))

    def test_empty_cloud(self):
        with pytest.raises(DegenerateGeometry, match="cannot resample an empty cloud"):
            resample_point_cloud(np.zeros((0, 3)), 5, seed=0)


class TestApplyPose:
    def test_identity(self):
        pts = np.random.default_rng(5).normal(size=(30, 3))
        assert np.allclose(SimilarityTransform.identity().apply(pts), pts, atol=1e-12)

    def test_pure_translation(self):
        mesh = TriangleMesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]), np.array([[0, 1, 2]]))
        out = apply_pose(mesh, SimilarityTransform([1, 0, 0, 0], [0, 0, 1.0]))
        assert np.allclose(out.vertices, [[0, 0, 1], [1, 0, 1], [0, 1, 1]])

    def test_rz90_scale2(self):
        # Rz(90 deg), scale 2 on (1, 0, 0) -> (0, 2, 0)
        q = [math.cos(math.pi / 4), 0, 0, math.sin(math.pi / 4)]
        out = SimilarityTransform(q, np.zeros(3), 2.0).apply(np.array([[1.0, 0, 0]]))
        assert np.allclose(out, [[0, 2, 0]], atol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(6)
        for k in range(10):
            q = random_unit_quaternions(1, seed=50 + k)[0]
            pose = SimilarityTransform(q, rng.normal(size=3), float(rng.uniform(0.1, 10)))
            mesh = TriangleMesh(rng.normal(size=(25, 3)), np.arange(24).reshape(8, 3))
            back = apply_pose(apply_pose(mesh, pose), pose.inverse())
            assert np.allclose(back.vertices, mesh.vertices, atol=1e-9)

    def test_matrix_built_once_read_only_and_bitwise(self):
        for k, q in enumerate(random_unit_quaternions(20, seed=80)):
            pose = SimilarityTransform(q * (k + 0.5), np.zeros(3), 1.5)
            R = pose.matrix()
            assert pose.matrix() is R
            assert R.tobytes() == quat_to_matrix(pose.rotation).tobytes()
            with pytest.raises(ValueError):
                R[0, 0] = 0.0

    def test_compose_is_associative(self):
        rng = np.random.default_rng(7)
        qs = random_unit_quaternions(3, seed=70)
        a, b, c = (
            SimilarityTransform(q, rng.normal(size=3), float(rng.uniform(0.5, 2)))
            for q in qs
        )
        pts = rng.normal(size=(10, 3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert np.allclose(left.apply(pts), right.apply(pts), atol=1e-9)
        # compose matches sequential application
        assert np.allclose(compose(a, b).apply(pts), a.apply(b.apply(pts)), atol=1e-9)

    def test_mesh_keeps_faces(self):
        mesh = TriangleMesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]), np.array([[0, 1, 2]]))
        out = apply_pose(mesh, SimilarityTransform([1, 0, 0, 0], [1.0, 0, 0]))
        assert np.array_equal(out.faces, mesh.faces)


class TestMeshValidation:
    def test_bad_face_index(self):
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((2, 3)), np.array([[0, 1, 2]]))

    def test_degenerate_face(self):
        with pytest.raises(ValueError):
            TriangleMesh(np.zeros((3, 3)), np.array([[1, 1, 1]]))

    def test_label_validation(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), labels=np.array([7]))
