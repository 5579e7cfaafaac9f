"""Reconstruction scoring: 10k-point surface samples, ICP with scaling to
absorb unknown camera conventions, then Chamfer (cm^2) and F-scores at
5 mm / 10 mm, aggregated by component-wise median."""

from __future__ import annotations

import numpy as np

from .align import PoseTrack
from .errors import DegenerateGeometry, InvalidInput
from .geometry import TriangleMesh, resample_point_cloud, sample_mesh_surface
from .metrics import (
    MetricReport,
    NearestNeighborIndex,
    chamfer_distance,
    f_score,
    icp_with_scaling,
    median_metrics,
)
from .seeding import derive_seed

_PRED, _GT = 101, 102


def frame_report(pred_points: np.ndarray, gt_points: np.ndarray, *,
                 icp_max_iters: int = 100, icp_tol: float = 1e-6) -> MetricReport:
    """Score one frame; the prediction is ICP-aligned (with scale) to the
    ground truth first, the ground truth is never transformed.

    ICP builds and queries a k-d tree on the ground truth, and its winning
    start's last query already gives the aligned prediction's distances to
    it. With one more tree on the aligned prediction, the two directed
    distance arrays are computed once and every metric is reduced from them."""
    icp = icp_with_scaling(pred_points, gt_points, max_iters=icp_max_iters, tol=icp_tol)
    aligned = icp.transform.apply(pred_points)
    d_pred = icp.distances
    d_gt, _ = NearestNeighborIndex(aligned).query(gt_points)
    cd = chamfer_distance(d_pred, d_gt)
    p5, r5, f5 = f_score(d_pred, d_gt, 0.005)
    p10, r10, f10 = f_score(d_pred, d_gt, 0.010)
    return MetricReport(
        chamfer_cm2=cd, f5=f5, f10=f10,
        precision_5mm=p5, recall_5mm=r5, precision_10mm=p10, recall_10mm=r10,
    )


def gt_points_for(geometry, n: int, seed: int) -> np.ndarray:
    """10k-point ground truth: surface-sampled for a mesh, resampled for a
    cloud's (N, 3) points."""
    if isinstance(geometry, TriangleMesh):
        return sample_mesh_surface(geometry, n, seed)
    return resample_point_cloud(geometry, n, seed)


def evaluate_track(mesh: TriangleMesh, track: PoseTrack, ground_truths, *,
                   n: int = 10000, seed: int = 0,
                   icp_max_iters: int = 100, icp_tol: float = 1e-6):
    """Per-frame and median reports for a decoded track against per-frame
    ground-truth geometry (meshes or (N, 3) cloud points). A dead end in a frame's
    scoring is raised as DegenerateGeometry naming the track's frame index."""
    ground_truths = list(ground_truths)
    if len(ground_truths) != len(track):
        raise InvalidInput("need one ground-truth geometry per frame")
    base = sample_mesh_surface(mesh, n, derive_seed(seed, _PRED))
    reports = []
    for k in range(len(track)):
        pred = track.pose(k).apply(base)
        gt = gt_points_for(ground_truths[k], n, derive_seed(seed, _GT, k))
        try:
            reports.append(frame_report(pred, gt, icp_max_iters=icp_max_iters, icp_tol=icp_tol))
        except DegenerateGeometry as e:
            raise DegenerateGeometry(f"frame {track.timestamps[k]}: {e}") from e
    return reports, median_metrics(reports)
