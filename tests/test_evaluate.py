import numpy as np
import pytest
from scipy.spatial import cKDTree

from rigalign import metrics
from rigalign.evaluate import evaluate_track, frame_report
from rigalign.geometry import SimilarityTransform
from rigalign.geometry import resample_point_cloud
from rigalign.metrics import MetricReport, chamfer_distance, f_score, icp_with_scaling
from rigalign.synthetic import SceneSpec, generate_synthetic_scene

from oracles import random_unit_quaternions


def per_metric_report(pred, gt, max_iters):
    """The per-metric formulation: ICP, then one Chamfer and two F-score calls
    on the aligned prediction."""
    aligned = icp_with_scaling(pred, gt, max_iters=max_iters).transform.apply(pred)
    p5, r5, f5 = f_score(aligned, gt, 0.005)
    p10, r10, f10 = f_score(aligned, gt, 0.010)
    return MetricReport(chamfer_cm2=chamfer_distance(aligned, gt), f5=f5, f10=f10,
                        precision_5mm=p5, recall_5mm=r5, precision_10mm=p10, recall_10mm=r10)


def kdtree_report(pred, gt, max_iters):
    """The same, with every metric on its own single-threaded k-d trees of
    scipy's default leaf size."""
    aligned = icp_with_scaling(pred, gt, max_iters=max_iters).transform.apply(pred)
    d_pg, _ = cKDTree(gt).query(aligned, k=1, workers=1)
    d_gp, _ = cKDTree(aligned).query(gt, k=1, workers=1)
    values = {"chamfer_cm2": float((np.mean(d_pg**2) + np.mean(d_gp**2)) * 1e4)}
    for mm in (5, 10):
        p = float(np.mean(d_pg <= mm / 1000))
        r = float(np.mean(d_gp <= mm / 1000))
        values.update({f"precision_{mm}mm": p, f"recall_{mm}mm": r,
                       f"f{mm}": 2 * p * r / (p + r) if p + r > 0 else 0.0})
    return MetricReport(**values)


def assert_bit_equal(got: MetricReport, want: MetricReport):
    for name, value in want.to_dict().items():
        assert getattr(got, name) == value, name


def posed(points, seed, scale=1.0):
    q = random_unit_quaternions(1, seed=seed)[0]
    return SimilarityTransform(q, np.array([0.01, -0.02, 0.005]), scale).apply(points)


class TestFrameReportSharedPath:
    """frame_report shares one ground-truth index between ICP and the metrics;
    every field must equal the per-metric formulation bit for bit."""

    def check(self, pred, gt, max_iters):
        got = frame_report(pred, gt, icp_max_iters=max_iters)
        assert_bit_equal(got, per_metric_report(pred, gt, max_iters))
        assert_bit_equal(got, kdtree_report(pred, gt, max_iters))
        return got

    def test_random_clouds(self):
        rng = np.random.default_rng(21)
        for k in range(4):
            gt = rng.normal(size=(600, 3)) * np.array([0.03, 0.02, 0.01])
            pred = posed(gt + rng.normal(scale=0.002, size=gt.shape), 70 + k, 1.3)
            self.check(pred, gt, max_iters=20)

    def test_unrelated_clouds_score_below_one(self):
        rng = np.random.default_rng(22)
        gt = rng.normal(size=(500, 3)) * 0.03
        pred = rng.normal(size=(500, 3)) * 0.03
        report = self.check(pred, gt, max_iters=8)
        assert report.f5 < 1.0

    def test_duplicate_points(self):
        rng = np.random.default_rng(23)
        base = rng.normal(size=(200, 3)) * np.array([0.03, 0.02, 0.01])
        noisy = base + rng.normal(scale=0.003, size=base.shape)
        gt = np.concatenate([base, base[:150], base[:50]])
        pred = posed(np.concatenate([noisy[::-1], noisy[:200]]), 80, 0.8)
        report = self.check(pred, gt, max_iters=20)
        assert 0 < report.f5 < 1

    def test_supersampled_cloud(self):
        rng = np.random.default_rng(24)
        small = rng.normal(size=(150, 3)) * np.array([0.03, 0.02, 0.01])
        noisy = small + rng.normal(scale=0.003, size=small.shape)
        gt = resample_point_cloud(small, 1000, seed=5)
        pred = posed(resample_point_cloud(noisy, 1000, seed=6), 81, 1.1)
        report = self.check(pred, gt, max_iters=20)
        assert 0 < report.f5 < 1

def test_evaluate_track_builds_three_trees_per_frame(monkeypatch):
    """ICP's trees on the ground truth and on the prediction, and the
    metrics' tree on the aligned prediction."""
    scene = generate_synthetic_scene(SceneSpec(frames=3, rotation_level=0, cloud_points=64,
                                               hand_points=0, seed=9))
    built = []
    kd_tree = metrics.kd_tree

    def counting_kd_tree(points):
        built.append(len(points))
        return kd_tree(points)

    monkeypatch.setattr(metrics, "kd_tree", counting_kd_tree)
    reports, _ = evaluate_track(scene.mesh, scene.track,
                                [scene.gt_mesh(k) for k in range(3)], n=800, icp_max_iters=8)
    assert len(reports) == 3
    assert built == [800] * 9


@pytest.mark.parametrize("threshold", [0.0, -0.005])
def test_non_positive_threshold_rejected(threshold):
    with pytest.raises(ValueError):
        metrics.f_score_from_distances(np.zeros(3), np.zeros(3), threshold)
