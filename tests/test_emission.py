import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigalign.emission import (
    EmissionEvaluator,
    FeatureField,
    SyntheticFeatureSource,
    TableFeatureSource,
    dino_similarity,
    estimate_scale,
    pca_basis,
    rasterize_silhouette,
)
from rigalign.errors import DegenerateGeometry, InvalidInput
from rigalign.geometry import (
    Camera,
    PixelMap,
    SimilarityTransform,
    TriangleMesh,
    first_hit_map,
    apply_pose,
    resample_point_cloud,
    sample_mesh_surface,
)
from rigalign.metrics import nearest
from rigalign.grids import build_rotation_grid
from rigalign.synthetic import irregular_tetrahedron, render_feature_map

from conftest import random_blob_mesh, subdivided
from oracles import (
    chamfer_of_points,
    dense_pca_basis,
    dense_similarity,
    per_state_feature_errors,
    random_unit_quaternions,
    solve_silhouette,
)


class TestEstimateScale:
    def test_same_cloud_unity(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(100, 3))
        assert estimate_scale(pts, pts.copy()) == pytest.approx(1.0, abs=1e-12)

    def test_pointwise_doubling(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=(50, 3))
        assert estimate_scale(2 * y, y) == pytest.approx(2.0, rel=1e-12)

    def test_two_point_moment_arithmetic(self):
        y = np.array([[1.0, 0, 0], [-1.0, 0, 0]])
        x = np.array([[3.0, 0, 0], [-3.0, 0, 0]])
        assert estimate_scale(x, y) == pytest.approx(3.0, rel=1e-12)

    def test_scaling_linearity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 3))
        y = rng.normal(size=(50, 3))
        base = estimate_scale(x, y)
        for k in (0.1, 1.0, 2.0, 7.3):
            assert estimate_scale(k * x, x) == pytest.approx(k, rel=1e-9)
            assert estimate_scale(k * x, y) == pytest.approx(k * base, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_coincident_cloud_estimates_exactly_zero(self, n):
        y = np.random.default_rng(3).normal(size=(50, 3))
        assert estimate_scale(np.tile([[0.1, 0.2, 0.3]], (n, 1)), y) == 0.0
        with pytest.raises(DegenerateGeometry, match="model cloud has zero extent"):
            estimate_scale(y, np.tile([[0.1, 0.2, 0.3]], (n, 1)))

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=(40, 3))
        assert estimate_scale(x + 100.0, y) == pytest.approx(estimate_scale(x, y), rel=1e-9)

    def test_degenerate_model(self):
        with pytest.raises(DegenerateGeometry, match="model cloud has zero extent"):
            estimate_scale(np.random.default_rng(4).normal(size=(10, 3)), np.zeros((10, 3)))


class TestRasterizeSilhouette:
    def test_mesh_behind_camera_is_empty(self, camera64):
        mesh = TriangleMesh(
            np.array([[-1.0, -1, -2], [1.0, -1, -2], [0.0, 1, -2]]), np.array([[0, 1, 2]])
        )
        assert not rasterize_silhouette(mesh, SimilarityTransform.identity(), camera64).any()
        assert not solve_silhouette(mesh, SimilarityTransform.identity(), camera64).any()

    def test_full_frustum_quad_all_ones(self, camera64):
        verts = np.array(
            [[-100.0, -100, 2], [100.0, -100, 2], [100.0, 100, 2], [-100.0, 100, 2]]
        )
        mesh = TriangleMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))
        assert rasterize_silhouette(mesh, SimilarityTransform.identity(), camera64).all()
        assert solve_silhouette(mesh, SimilarityTransform.identity(), camera64).all()

    def test_unit_quad_covers_frame(self, camera64, unit_quad_mesh):
        # at fx = 100 the unit quad at z = 1 projects past the 64x64 frame
        sil = rasterize_silhouette(unit_quad_mesh, SimilarityTransform.identity(), camera64)
        oracle = first_hit_map(unit_quad_mesh, camera64).mask
        assert np.array_equal(sil, oracle)
        identity = SimilarityTransform.identity()
        assert np.array_equal(sil, solve_silhouette(unit_quad_mesh, identity, camera64))
        assert sil.all()

    def test_small_quad_projected_rectangle(self, camera64):
        # sub-pixel offset keeps pixel centers off the quad edges and off the
        # shared diagonal, where float rounding of two exact predicates differs
        half = 0.2
        dx, dy = 0.0007, -0.0011
        verts = np.array(
            [
                [-half + dx, -half + dy, 1.0],
                [half + dx, -half + dy, 1.0],
                [half + dx, half + dy, 1.0],
                [-half + dx, half + dy, 1.0],
            ]
        )
        mesh = TriangleMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))
        sil = rasterize_silhouette(mesh, SimilarityTransform.identity(), camera64)
        oracle = first_hit_map(mesh, camera64).mask
        assert np.array_equal(sil, oracle)
        assert np.array_equal(sil, solve_silhouette(mesh, SimilarityTransform.identity(), camera64))
        # u = 32 + 100 * x in [12.07, 52.07]; centers j + 0.5 inside -> j in 12..51
        expected = np.zeros((64, 64), dtype=bool)
        expected[12:52, 12:52] = True
        assert np.array_equal(sil, expected)

    def test_random_meshes_match_raycast(self, camera64):
        rng = np.random.default_rng(11)
        for k in range(10):
            mesh = random_blob_mesh(rng, n_faces=int(rng.integers(5, 501)))
            q = random_unit_quaternions(1, seed=200 + k)[0]
            pose = SimilarityTransform(q, np.array([0.0, 0.0, 0.1]), float(rng.uniform(0.5, 1.5)))
            sil = rasterize_silhouette(mesh, pose, camera64)
            oracle = first_hit_map(apply_pose(mesh, pose), camera64).mask
            assert np.array_equal(sil, oracle)
            assert np.array_equal(sil, solve_silhouette(mesh, pose, camera64))

    def test_camera_plane_crossing_triangle(self, camera64):
        # one vertex behind the camera: falls back to the full-image scan;
        # coordinates jittered so no pixel center sits exactly on an edge plane
        mesh = TriangleMesh(
            np.array([[0.0137, 0.0071, -0.5123], [0.3071, 0.0193, 2.0171], [-0.2889, 0.1037, 1.9893]]),
            np.array([[0, 1, 2]]),
        )
        sil = rasterize_silhouette(mesh, SimilarityTransform.identity(), camera64)
        oracle = first_hit_map(mesh, camera64).mask
        assert np.array_equal(sil, oracle)
        assert np.array_equal(sil, solve_silhouette(mesh, SimilarityTransform.identity(), camera64))
        assert sil.any()


def map_from(features, mask=None):
    features = np.asarray(features, dtype=float)
    if mask is None:
        mask = np.ones(features.shape[:2], dtype=bool)
    return PixelMap(mask, features[mask])


class TestPcaBasis:
    def test_recovers_known_subspace(self):
        rng = np.random.default_rng(5)
        c = 16
        directions = np.linalg.qr(rng.normal(size=(c, 3)))[0].T  # (3, C) orthonormal
        coeffs = rng.normal(size=(40, 40, 3)) * np.array([5.0, 2.0, 1.0])
        features = coeffs @ directions
        basis = pca_basis([map_from(features)])
        # projection residual of the recovered basis against the true subspace
        proj = directions.T @ directions
        for row in basis.components:
            residual = np.linalg.norm(row - proj @ row)
            assert residual < 1e-6

    def test_white_noise_explained_variance(self):
        rng = np.random.default_rng(6)
        c = 8
        features = rng.normal(size=(100, 100, c))
        pooled = features.reshape(-1, c)
        cov = np.cov(pooled.T, bias=True)
        eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
        explained = eig[:3].sum() / eig.sum()
        assert abs(explained - 3 / c) < 0.2 * (3 / c)
        basis = pca_basis([map_from(features)])
        assert basis.components.shape == (3, c)

    def test_duplicating_samples_leaves_basis_unchanged(self):
        rng = np.random.default_rng(7)
        features = rng.normal(size=(20, 20, 6))
        one = pca_basis([map_from(features)])
        two = pca_basis([map_from(features), map_from(features)])
        assert np.allclose(one.mean, two.mean, atol=1e-9)
        assert np.allclose(one.components, two.components, atol=1e-9)

    def test_orthonormal_rows(self):
        rng = np.random.default_rng(8)
        basis = pca_basis([map_from(rng.normal(size=(30, 30, 10)))])
        assert np.allclose(basis.components @ basis.components.T, np.eye(3), atol=1e-9)

    def test_insufficient_samples(self):
        with pytest.raises(InvalidInput, match="at least 3 masked-in pixels"):
            pca_basis([map_from(np.zeros((2, 1, 8)), np.zeros((2, 1), dtype=bool))])
        with pytest.raises(InvalidInput, match="at least 3 feature channels"):
            pca_basis([map_from(np.zeros((4, 4, 2)))])


class TestDinoSimilarity:
    def setup_method(self):
        rng = np.random.default_rng(9)
        self.basis = pca_basis([map_from(rng.normal(size=(16, 16, 8)))])
        self.f0 = map_from(rng.normal(size=(16, 16, 8)))

    def test_identical_maps_zero(self):
        assert dino_similarity(self.f0, self.f0, self.basis) == pytest.approx(0.0, abs=1e-12)

    def test_negated_projection_is_one(self):
        # features mirrored through the basis mean negate the projections
        neg = map_from(2 * self.basis.mean - self.f0.dense(), self.f0.mask)
        assert dino_similarity(neg, self.f0, self.basis) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_projection_is_half(self):
        h, w, c = 4, 4, 8
        a = np.zeros((h, w, c))
        b = np.zeros((h, w, c))
        basis = pca_basis([map_from(np.random.default_rng(10).normal(size=(32, 32, c)))])
        # build feature grids whose projections are orthogonal vectors
        a[0, 0] = basis.mean + basis.components[0]
        b[0, 0] = basis.mean + basis.components[1]
        for grid in (a, b):
            grid[0, 1:] = basis.mean
            grid[1:] = basis.mean
        assert dino_similarity(map_from(a), map_from(b), basis) == pytest.approx(0.5, abs=1e-9)

    def test_bounds_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            fa = map_from(rng.normal(size=(4, 4, 8)))
            fb = map_from(rng.normal(size=(4, 4, 8)))
            e = dino_similarity(fa, fb, self.basis)
            assert 0.0 <= e <= 1.0

    def test_empty_overlap_is_nan(self):
        mask_a = np.zeros((16, 16), dtype=bool)
        mask_a[:8] = True
        fa = map_from(self.f0.dense(), mask_a)
        fb = map_from(self.f0.dense(), ~mask_a)
        assert math.isnan(dino_similarity(fa, fb, self.basis))


class TestMapsAgainstDenseGrids:
    """pca_basis and dino_similarity read each map's masked-in rows; they
    equal, bit for bit, the same formulas over dense (H, W, C) grids
    (tests/oracles.py), whatever the masks and however they overlap."""

    @staticmethod
    def masks(rng, h, w, overlap):
        if overlap == "full":
            return np.ones((h, w), dtype=bool), np.ones((h, w), dtype=bool)
        a = rng.random((h, w)) < rng.uniform(0.1, 0.9)
        if overlap == "empty":
            return a, ~a & (rng.random((h, w)) < 0.7)
        b = rng.random((h, w)) < rng.uniform(0.1, 0.9)
        i, j = divmod(int(rng.integers(h * w)), w)
        a[i, j] = b[i, j] = True  # at least one pixel in both
        return a, b

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["empty", "partial", "full"]))
    def test_bitwise_equal_to_dense_formulas(self, seed, overlap):
        rng = np.random.default_rng(seed)
        h, w, c = int(rng.integers(1, 9)), int(rng.integers(2, 9)), int(rng.integers(3, 7))
        grid_j, grid_0 = rng.normal(size=(2, h, w, c))
        mask_j, mask_0 = self.masks(rng, h, w, overlap)
        f_j = PixelMap(mask_j, grid_j[mask_j])
        f_0 = PixelMap(mask_0, grid_0[mask_0])
        if mask_j.sum() + mask_0.sum() >= 3:
            got = pca_basis([f_j, f_0])
            want = dense_pca_basis([grid_j, grid_0], [mask_j, mask_0])
            assert got.mean.tobytes() == want.mean.tobytes()
            assert got.components.tobytes() == want.components.tobytes()
        basis = pca_basis([map_from(rng.normal(size=(4, 4, c)))])
        pairs = ((f_j, grid_j), (f_0, grid_0))
        for (a, grid_a), (b, grid_b) in (pairs, pairs[::-1]):
            got = dino_similarity(a, b, basis)
            want = dense_similarity(grid_a, a.mask, grid_b, b.mask, basis)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert math.isnan(got) == (overlap == "empty")


def centroid(points: np.ndarray) -> np.ndarray:
    return points.mean(axis=0)


class TestEmissionCost:
    def setup_method(self):
        self.mesh = irregular_tetrahedron()
        self.camera = Camera(fx=150.0, fy=150.0, cx=32.0, cy=32.0, width=64, height=64)
        self.field = FeatureField.from_seed(21, channels=8)
        self.grid = build_rotation_grid(1)

    def observation(self, pose):
        """The object cloud and the input feature map of a frame seen at `pose`."""
        cloud = sample_mesh_surface(self.mesh, 600, seed=33)
        f0 = render_feature_map(self.mesh, pose, self.camera, self.field)
        return pose.apply(cloud), f0

    def source(self, f0):
        """The synthetic feature source whose one input map is the frame's."""
        return SyntheticFeatureSource(self.camera, [f0], self.field)

    def test_ground_truth_state_is_argmin(self):
        gt_index = 17
        mu = np.array([0.0, 0.0, 0.4])
        gt_pose = SimilarityTransform(self.grid.quaternions[gt_index], mu, 1.0)
        points, f0 = self.observation(gt_pose)
        ev = EmissionEvaluator(self.mesh, feature_source=self.source(f0),
                               sample_count=512, seed=5)
        states = [SimilarityTransform(q, centroid(points), 1.0) for q in self.grid.quaternions]
        cd, dino = ev.frame_terms("rotation", 0, points, states)
        costs = ev.combine_terms(cd, dino)
        assert int(np.argmin(costs)) == gt_index

    def test_zero_feature_weight_equals_chamfer_term(self):
        mu = np.array([0.0, 0.0, 0.4])
        pose = SimilarityTransform(self.grid.quaternions[3], mu, 1.0)
        points, f0 = self.observation(pose)
        ev = EmissionEvaluator(self.mesh, w_dino=0.0, sample_count=256, seed=6)
        state = SimilarityTransform(self.grid.quaternions[5], centroid(points), 1.0)
        x_res = resample_point_cloud(points, 256, 6)
        cd, dino = ev.frame_terms("rotation", 0, points, [state])
        assert dino is None
        row, blocks = ev.chamfer_term(x_res, [state])
        for reduce, pairs in blocks:
            reduce(nearest(pairs))
        assert cd[0] == row[0]

    def test_zero_feature_weight_drops_a_given_source(self):
        pose = SimilarityTransform(self.grid.quaternions[9], np.array([0.0, 0.0, 0.4]), 1.0)
        points, f0 = self.observation(pose)
        states = [SimilarityTransform(q, centroid(points), 1.0) for q in self.grid.quaternions]
        ev = EmissionEvaluator(self.mesh, w_dino=0.0, feature_source=self.source(f0),
                               sample_count=256, seed=13)
        chamfer_only = EmissionEvaluator(self.mesh, w_dino=0.0, sample_count=256, seed=13)
        cd, dino = ev.frame_terms("rotation", 0, points, states)
        want, _ = chamfer_only.frame_terms("rotation", 0, points, states)
        assert dino is None
        assert np.array_equal(cd, want)
        assert np.array_equal(ev.combine_terms(cd, dino), chamfer_only.combine_terms(want, None))

    def test_cost_is_pure_function(self):
        mu = np.array([0.0, 0.0, 0.4])
        pose = SimilarityTransform(self.grid.quaternions[2], mu, 1.0)
        points, f0 = self.observation(pose)
        ev = EmissionEvaluator(self.mesh, w_dino=0.0, sample_count=256, seed=7)
        states = [SimilarityTransform(q, centroid(points), 1.0) for q in self.grid.quaternions[:6]]
        forward, _ = ev.frame_terms("rotation", 0, points, states)
        backward, _ = ev.frame_terms("rotation", 0, points, states[::-1])
        assert list(forward) == list(backward[::-1])
        # each state scored on its own gives the same value as in the row
        assert [ev.frame_terms("rotation", 0, points, [s])[0][0] for s in states] == list(forward)

    def test_doubled_weights_keep_argmin(self):
        mu = np.array([0.0, 0.0, 0.4])
        gt_pose = SimilarityTransform(self.grid.quaternions[9], mu, 1.0)
        points, f0 = self.observation(gt_pose)
        source = self.source(f0)
        states = [SimilarityTransform(q, centroid(points), 1.0) for q in self.grid.quaternions]
        argmins = []
        for w in (1.0, 2.0):
            ev = EmissionEvaluator(self.mesh, feature_source=source, w_cd=w, w_dino=w,
                                   sample_count=512, seed=8)
            cd, dino = ev.frame_terms("rotation", 0, points, states)
            argmins.append(int(np.argmin(ev.combine_terms(cd, dino))))
        assert argmins[0] == argmins[1]

    def test_empty_overlap_gets_penalty_not_win(self):
        mu = np.array([0.0, 0.0, 0.4])
        gt_pose = SimilarityTransform(self.grid.quaternions[0], mu, 1.0)
        points, f0 = self.observation(gt_pose)
        ev = EmissionEvaluator(self.mesh, feature_source=self.source(f0),
                               sample_count=256, seed=9)
        states = [SimilarityTransform(q, centroid(points), 1.0) for q in self.grid.quaternions[:8]]
        # push one state far off-screen so its silhouette is empty
        states.append(SimilarityTransform(self.grid.quaternions[8], mu + np.array([10.0, 0, 0]), 1.0))
        cd, dino = ev.frame_terms("rotation", 0, points, states)
        assert math.isnan(dino[-1])
        costs = ev.combine_terms(cd, dino)
        assert np.isfinite(costs).all()
        assert int(np.argmin(costs)) != len(states) - 1
        assert costs[-1] >= costs[:-1].max()

    def test_precomputed_table_source(self):
        mu = np.array([0.0, 0.0, 0.4])
        pose = SimilarityTransform(self.grid.quaternions[1], mu, 1.0)
        points, f0 = self.observation(pose)
        table = np.linspace(0.0, 1.0, len(self.grid))[None, :]
        source = TableFeatureSource(table, None)
        ev = EmissionEvaluator(self.mesh, feature_source=source, sample_count=256, seed=10)
        states = [SimilarityTransform(q, centroid(points), 1.0) for q in self.grid.quaternions]
        cd, dino = ev.frame_terms("rotation", 0, points, states)
        assert np.allclose(dino, table[0])

    def test_fresh_evaluators_agree(self):
        mu = np.array([0.0, 0.0, 0.4])
        pose = SimilarityTransform(self.grid.quaternions[4], mu, 1.0)
        points, f0 = self.observation(pose)
        state = SimilarityTransform(self.grid.quaternions[6], centroid(points), 1.0)
        first = EmissionEvaluator(self.mesh, w_dino=0.0, sample_count=256, seed=11)
        second = EmissionEvaluator(self.mesh, w_dino=0.0, sample_count=256, seed=11)
        got, _ = first.frame_terms("rotation", 0, points, [state])
        want, _ = second.frame_terms("rotation", 0, points, [state])
        assert got[0] == want[0]

    def test_feature_term_matches_render_masked_by_silhouette(self):
        # one cast per state gives the values of a render masked by a second cast
        gt_pose = SimilarityTransform(self.grid.quaternions[9], np.array([0.0, 0.0, 0.4]), 1.0)
        points, f0 = self.observation(gt_pose)
        source = self.source(f0)
        basis = source.basis
        ev = EmissionEvaluator(self.mesh, feature_source=source, sample_count=256, seed=12)
        states = [SimilarityTransform(q, centroid(points), 1.0) for q in self.grid.quaternions]
        _, dino = ev.frame_terms("rotation", 0, points, states)
        for j, pose in enumerate(states):
            rendered = render_feature_map(self.mesh, pose, self.camera, self.field)
            keep = rendered.mask & rasterize_silhouette(self.mesh, pose, self.camera)
            masked = PixelMap(keep, rendered.dense()[keep])
            assert dino[j] == dino_similarity(masked, f0, basis)

    def test_directory_source_masks_to_the_cast(self, tmp_path):
        from rigalign import meshio
        from rigalign.emission import DirectoryFeatureSource

        pose = SimilarityTransform(self.grid.quaternions[4], np.array([0.0, 0.0, 0.4]), 1.0)
        rendered = render_feature_map(self.mesh, pose, self.camera, self.field)
        everywhere = np.ones(rendered.mask.shape, dtype=bool)
        source = DirectoryFeatureSource(self.camera, [rendered], tmp_path)
        meshio.save_fmap(rendered.dense(), everywhere, source.path_for("rotation", 0, 3))
        hit_map = first_hit_map(apply_pose(self.mesh, pose), self.camera)
        loaded = source.candidate_features("rotation", 0, 3, pose, hit_map)
        assert np.array_equal(loaded.mask, hit_map.mask)
        assert np.array_equal(loaded.mask, rendered.mask)


class TestFeatureSourceFrames:
    """Both kinds of source answer for a frame by its sequence position, from
    data they hold: table rows, or input maps with the basis fitted on them."""

    def setup_method(self):
        self.mesh = irregular_tetrahedron()
        self.camera = Camera(fx=150.0, fy=150.0, cx=32.0, cy=32.0, width=64, height=64)
        self.field = FeatureField.from_seed(21, channels=8)
        self.poses = [SimilarityTransform(q, np.array([0.0, 0.0, 0.4]), 1.0)
                      for q in build_rotation_grid(0).quaternions]
        self.inputs = [render_feature_map(self.mesh, pose, self.camera, self.field)
                       for pose in self.poses[:2]]

    def test_cast_source_fits_its_basis_on_its_inputs(self):
        source = SyntheticFeatureSource(self.camera, self.inputs, self.field)
        want = pca_basis(self.inputs)
        assert source.basis.mean.tobytes() == want.mean.tobytes()
        assert source.basis.components.tobytes() == want.components.tobytes()

    @pytest.mark.parametrize("frame_index", [2, 5, -1])
    def test_frame_out_of_range_rejected(self, frame_index):
        cast = SyntheticFeatureSource(self.camera, self.inputs, self.field)
        table = TableFeatureSource(np.zeros((2, len(self.poses))), np.zeros((2, 1)))
        with pytest.raises(InvalidInput, match=f"frame {frame_index} has no input feature map"):
            cast.frame_errors("rotation", frame_index, self.mesh, self.poses)
        with pytest.raises(InvalidInput,
                           match=f"frame {frame_index} has no row in the translation feature table"):
            table.frame_errors("translation", frame_index, self.mesh, self.poses[:1])


class TestFrameErrorsOneCast:
    """frame_errors casts all of a frame's states in one pass; its row equals,
    bitwise and NaN for NaN, one window cast and comparison per state."""

    def setup_method(self):
        self.mesh = subdivided(irregular_tetrahedron(), 2)
        self.camera = Camera(fx=150.0, fy=150.0, cx=32.0, cy=32.0, width=64, height=64)
        self.field = FeatureField.from_seed(23, channels=8)
        grid = build_rotation_grid(1)
        mu = np.array([0.0, 0.0, 0.4])
        self.inputs = [render_feature_map(self.mesh, SimilarityTransform(q, mu, 1.0), self.camera,
                                          self.field) for q in grid.quaternions[[3, 17]]]
        # 40 states; every fifth one is pushed off the image, so its overlap is empty
        self.poses = [SimilarityTransform(q, mu + [0.5 * (j % 5 == 4), 0.0002 * j, 0.0], 1.1)
                      for j, q in enumerate(grid.quaternions)]
        assert len(self.poses) == 40

    def check(self, source):
        for t in range(2):
            got = source.frame_errors("rotation", t, self.mesh, self.poses)
            want = per_state_feature_errors(source, "rotation", t, self.mesh, self.poses)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(np.isnan(got), np.arange(40) % 5 == 4)

    def test_synthetic_source(self):
        self.check(SyntheticFeatureSource(self.camera, self.inputs, self.field))

    def test_directory_source(self, tmp_path):
        from rigalign import meshio
        from rigalign.emission import DirectoryFeatureSource

        source = DirectoryFeatureSource(self.camera, self.inputs, tmp_path)
        other = FeatureField.from_seed(24, channels=8)
        everywhere = np.ones((64, 64), dtype=bool)
        for t in range(2):
            for j, pose in enumerate(self.poses):
                rendered = render_feature_map(self.mesh, pose, self.camera, other)
                meshio.save_fmap(rendered.dense(), everywhere,
                                 source.path_for("rotation", t, j))
        self.check(source)


class _ZeroFeatures:
    """A feature source whose every pose scores 0; records how many Chamfer
    blocks were reduced when it ran."""

    def __init__(self, reduced=()):
        self.reduced = reduced
        self.seen = []

    def frame_errors(self, phase, frame_index, mesh, poses):
        self.seen.append(len(self.reduced))
        return np.zeros(len(poses))


class TestBatchedChamfer:
    """The batched Chamfer row against the point-set Chamfer oracle per state, and
    its schedule: frame_terms scores the feature term while the pool queries
    the first block, then drains the rest with two blocks in flight."""

    def setup_method(self):
        self.mesh = irregular_tetrahedron()
        self.grid = build_rotation_grid(1)

    def check_row(self, ev, obs, states):
        x_res = resample_point_cloud(obs, ev.sample_count, ev.seed)
        row, dino = ev.frame_terms("rotation", 0, obs, states)
        assert dino is None
        oracle = np.array([chamfer_of_points(x_res, s.apply(ev.sample)) for s in states])
        assert row.shape == (len(states),)
        np.testing.assert_allclose(row, oracle, rtol=1e-12, atol=0.0)
        assert np.array_equal(np.argsort(row, kind="stable"), np.argsort(oracle, kind="stable"))

    def observation(self, points: int, seed: int = 40) -> np.ndarray:
        cloud = sample_mesh_surface(self.mesh, points, seed=seed)
        pose = SimilarityTransform(self.grid.quaternions[7], np.array([0.01, -0.02, 0.4]), 1.3)
        return pose.apply(cloud)

    def states(self, obs, count, scale=1.0):
        quats = random_unit_quaternions(count, seed=count)
        rng = np.random.default_rng(count)
        offsets = rng.normal(scale=0.01, size=(count, 3))
        return [SimilarityTransform(q, centroid(obs) + o, scale) for q, o in zip(quats, offsets)]

    def three_blocks(self, obs):
        """States filling three Chamfer blocks at 512 samples, the last one short."""
        from rigalign.emission import _CHAMFER_BLOCK_POINTS

        return self.states(obs, 2 * (_CHAMFER_BLOCK_POINTS // 512) + 5, scale=1.3)

    def test_state_count_not_a_multiple_of_the_block(self):
        from rigalign.emission import _CHAMFER_BLOCK_POINTS

        ev = EmissionEvaluator(self.mesh, w_dino=0.0, sample_count=512, seed=3)
        per_block = _CHAMFER_BLOCK_POINTS // 512
        obs = self.observation(700)
        self.check_row(ev, obs, self.states(obs, 2 * per_block + 5, scale=1.3))

    def test_single_state(self):
        ev = EmissionEvaluator(self.mesh, w_dino=0.0, sample_count=512, seed=4)
        obs = self.observation(700)
        self.check_row(ev, obs, self.states(obs, 1, scale=1.3))

    def test_no_states(self):
        source = _ZeroFeatures()
        ev = EmissionEvaluator(self.mesh, feature_source=source, sample_count=512, seed=4)
        cd, dino = ev.frame_terms("rotation", 0, self.observation(700), [])
        assert cd.shape == dino.shape == (0,) and source.seen == [0]

    @pytest.mark.parametrize("model_scale, state_scale", [(0.7, 1.0), (1.3, 1.6), (2.5, 0.4)])
    def test_scale_not_one(self, model_scale, state_scale):
        ev = EmissionEvaluator(self.mesh, w_dino=0.0, sample_count=256, seed=5)
        obs = self.observation(700)
        self.check_row(ev, obs, self.states(obs, 9, scale=model_scale * state_scale))

    @pytest.mark.parametrize("points", [100, 256, 3000])
    def test_observed_cloud_smaller_or_larger_than_sample(self, points):
        ev = EmissionEvaluator(self.mesh, w_dino=0.0, sample_count=256, seed=6)
        obs = self.observation(points)
        self.check_row(ev, obs, self.states(obs, 12, scale=1.3))

    def test_feature_term_runs_before_any_block_is_reduced(self, monkeypatch):
        from rigalign import metrics

        reduced = []
        reduce = metrics.chamfer_distance
        monkeypatch.setattr(metrics, "chamfer_distance",
                            lambda d_ab, d_ba: reduced.append(len(d_ab)) or reduce(d_ab, d_ba))
        source = _ZeroFeatures(reduced)
        ev = EmissionEvaluator(self.mesh, feature_source=source, sample_count=512, seed=3)
        obs = self.observation(700)
        states = self.three_blocks(obs)
        cd, dino = ev.frame_terms("rotation", 0, obs, states)
        assert source.seen == [0]  # the Chamfer row was still outstanding
        assert reduced == [32, 32, 5] and len(cd) == len(states) == len(dino)

    def test_raising_feature_source_leaves_no_query_behind(self, monkeypatch):
        from rigalign import metrics

        class SlowTree:
            """A k-d tree whose every query chunk takes 50 ms, so the first
            block is still queued or running when the feature term raises."""

            def __init__(self, points):
                self.tree = kd_tree(points)

            def query(self, points, k):
                time.sleep(0.05)
                return self.tree.query(points, k=k)

        class Failing:
            def frame_errors(self, phase, frame_index, mesh, poses):
                raise InvalidInput("feature term failed")

        class CountingPool:
            """The query pool, keeping every future it hands out."""

            def submit(self, fn, *args):
                futures.append(pool.submit(fn, *args))
                return futures[-1]

        kd_tree, pool, futures = metrics.kd_tree, metrics._executor(), []
        monkeypatch.setattr(metrics, "_WORKERS", 2)
        monkeypatch.setattr(metrics, "kd_tree", SlowTree)
        monkeypatch.setattr(metrics, "_executor", CountingPool)
        ev = EmissionEvaluator(self.mesh, feature_source=Failing(), sample_count=512, seed=3)
        obs = self.observation(700)
        with pytest.raises(InvalidInput, match="feature term failed"):
            ev.frame_terms("rotation", 0, obs, self.three_blocks(obs))
        assert len(futures) == 8  # the first block only, 4 chunks a side
        assert all(future.done() for future in futures)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_row_equals_the_sequential_row_bitwise(self, monkeypatch, workers):
        from scipy.spatial import cKDTree

        from rigalign import metrics

        monkeypatch.setattr(metrics, "_WORKERS", workers)
        ev = EmissionEvaluator(self.mesh, feature_source=_ZeroFeatures(), sample_count=512,
                               seed=3)
        obs = self.observation(700)
        states = self.three_blocks(obs)
        row, _ = ev.frame_terms("rotation", 0, obs, states)
        # one state at a time, every query on this thread
        x = resample_point_cloud(obs, 512, 3)
        obs_tree, sample_tree = cKDTree(x), cKDTree(ev.sample)
        want = np.array([metrics.chamfer_distance(
            sample_tree.query(((x - s.translation) @ s.matrix()) / s.scale)[0] * s.scale,
            obs_tree.query(s.apply(ev.sample))[0]) for s in states])
        assert row.tobytes() == want.tobytes()
