"""Point-cloud evaluation metrics: Chamfer distance (cm^2), F-score at a
distance threshold, exact nearest-neighbor queries, and ICP with scaling."""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, fields

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateGeometry, EmptyCloud, InvalidInput
from .geometry import PointCloud, SimilarityTransform, matrix_to_quat

M2_TO_CM2 = 1e4

# Points per k-d tree leaf. ICP's non-identity starts put query points 1-11 mm
# off a surface sampled every ~0.3 mm. Replaying the 99 queries (10k points
# each) of an `eval-icp` call at seed 11 on one thread of a 2-core Xeon, the
# far-start queries took 1.69 s at scipy's default of 16, 1.30 s at 32,
# 1.12 s at 64 and 1.21 s at 128; the near-surface ones 0.16-0.17 s at 16-64.
# Distances and indices were bit-identical at every size. The emission trees
# keep scipy's default: with 64 there, `track-cloud-l3` ran slower.
LEAFSIZE = 64

# Whether the index's k-d tree shrinks each node's box to its points. Replaying
# the 102 queries of an `eval-icp` call at seed 11 on one thread of a 2-core
# Xeon took 0.835-0.839 s of CPU with scipy's default (True) and 0.796-0.824 s
# without; over 16 alternating fresh-process `eval-icp` calls the median went
# from 0.528 to 0.508 s, faster in 15. Distances were bit-identical; an index
# may differ only between duplicates of one point, which have equal coordinates.
COMPACT_NODES = False

# Query points per chunk of a pooled k-d tree query. Fresh-process medians of
# `track-dense` calls at seed 11 on a 2-core Xeon: 0.1235 s at 2048 points,
# 0.1255 s at 4096 and 0.1369 s at 8192 over 7 calls; 0.1217, 0.1235 and
# 0.1223 s over 9 calls, a spread of about 0.01 s. 4096 queues half the tasks
# of 2048 and still splits a 16k-point Chamfer query four ways.
QUERY_CHUNK = 4096

_WORKERS = len(os.sched_getaffinity(0))
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    """The process-wide query pool, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="rigalign-nn")
        return _pool


def _forget_pool() -> None:
    # A forked child inherits the executor without its threads, so a task
    # queued there would never run; it makes its own pool on first use.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


class PendingQuery:
    """A query handed to the pool by `submit`. Calling it waits for its chunks
    and returns what `nearest` returns; `cancel` drops the chunks not yet
    started and waits for the running ones."""

    def __init__(self, futures, out):
        self._futures = futures
        self._out = out

    def __call__(self) -> list[tuple[np.ndarray, np.ndarray]]:
        wait(self._futures)  # no chunk outlives the call, even if one failed
        for future in self._futures:
            future.result()
        return self._out

    def cancel(self) -> None:
        for future in self._futures:
            future.cancel()
        wait(self._futures)


def submit(pairs) -> PendingQuery:
    """Start an exact nearest-neighbour query for a sequence of (cKDTree,
    points) pairs and return at once; calling the handle gives one (distances
    float64, indices int64) per pair, in order.

    Every k-d tree query in the package goes through here. The points of all
    pairs are cut into chunks of QUERY_CHUNK, queued together on one
    persistent pool of one thread per usable CPU, and each chunk writes its
    own slice of arrays allocated up front. A point's nearest neighbour does
    not depend on the rest of its batch, so the result is the same bytes as
    one query per pair. One chunk in all, or one usable CPU, runs inline
    before `submit` returns.
    """
    pairs = [(tree, _as_points(points)) for tree, points in pairs]
    out = [(np.empty(len(pts)), np.empty(len(pts), dtype=np.int64)) for _, pts in pairs]
    chunks = [(tree, pts, d, i, slice(s, s + QUERY_CHUNK))
              for (tree, pts), (d, i) in zip(pairs, out)
              for s in range(0, len(pts), QUERY_CHUNK)]

    def run(chunk):
        tree, pts, d, i, rows = chunk
        d[rows], i[rows] = tree.query(pts[rows], k=1)

    if _WORKERS == 1 or len(chunks) <= 1:
        for chunk in chunks:
            run(chunk)
        return PendingQuery([], out)
    pool = _executor()
    return PendingQuery([pool.submit(run, chunk) for chunk in chunks], out)


def nearest(pairs) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact nearest neighbours for a sequence of (cKDTree, points) pairs,
    waited for: `submit(pairs)()`."""
    return submit(pairs)()


class NearestNeighborIndex:
    """Exact nearest-neighbor queries over a fixed point set (kd-tree backed)."""

    def __init__(self, points):
        pts = _as_points(points)
        if len(pts) == 0:
            raise EmptyCloud("cannot index an empty point set")
        self.points = pts
        self._tree = cKDTree(pts, leafsize=LEAFSIZE, compact_nodes=COMPACT_NODES)

    def query(self, points):
        """(distances, indices) of the nearest indexed point for each query."""
        return nearest([(self._tree, points)])[0]


@dataclass(frozen=True)
class MetricReport:
    """Evaluation record; F-scores are harmonic means of the matching P/R pair."""

    chamfer_cm2: float
    f5: float
    f10: float
    precision_5mm: float
    recall_5mm: float
    precision_10mm: float
    recall_10mm: float

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _as_points(cloud) -> np.ndarray:
    if isinstance(cloud, (PointCloud, NearestNeighborIndex)):
        return cloud.points
    return np.asarray(cloud, dtype=float).reshape(-1, 3)


def _nearest_distances(a, b, what: str):
    """(a->b, b->a) nearest-neighbor distances between two non-empty point sets."""
    pa = _as_points(a)
    pb = _as_points(b)
    if len(pa) == 0 or len(pb) == 0:
        raise EmptyCloud(f"{what} needs non-empty clouds")
    return NearestNeighborIndex(pb).query(pa)[0], NearestNeighborIndex(pa).query(pb)[0]


def chamfer_from_distances(d_ab: np.ndarray, d_ba: np.ndarray):
    """Symmetric mean squared nearest-neighbor distance in cm^2, from the two
    directed distance arrays of two equal-size point sets. Reduces over the
    last axis: (n,) arrays give a float, (B, n) arrays one value per row."""
    n_ab, n_ba = np.shape(d_ab)[-1], np.shape(d_ba)[-1]
    if n_ab != n_ba:
        raise InvalidInput(f"point sets must have the same size ({n_ab} vs {n_ba})")
    cd = (np.mean(d_ab**2, axis=-1) + np.mean(d_ba**2, axis=-1)) * M2_TO_CM2
    return float(cd) if np.ndim(cd) == 0 else cd


def f_score_from_distances(d_pred: np.ndarray, d_gt: np.ndarray, threshold: float):
    """(precision, recall, F) at a threshold in meters, from the pred->gt and
    gt->pred distance arrays; distances exactly at the threshold count as inliers."""
    if threshold <= 0:
        raise InvalidInput("threshold must be positive")
    precision = float(np.mean(d_pred <= threshold))
    recall = float(np.mean(d_gt <= threshold))
    f = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return precision, recall, f


def chamfer_distance(a, b) -> float:
    """Symmetric mean squared nearest-neighbor distance, reported in cm^2.

    Both sets must have the same size; resample first if they differ.
    """
    return chamfer_from_distances(*_nearest_distances(a, b, "chamfer distance"))


def f_score(pred, gt, threshold: float):
    """(precision, recall, F) of point coverage at the given distance threshold
    in meters; distances exactly at the threshold count as inliers."""
    return f_score_from_distances(*_nearest_distances(pred, gt, "f-score"), threshold)


@dataclass(eq=False)
class IcpResult:
    """One ICP start's run. `icp_with_scaling` advances each start in its own
    result, which is updated in place until the start stops, and returns the
    winning one. Compared by identity."""

    transform: SimilarityTransform
    rms_history: list[float]
    distances: np.ndarray  # the last query's distances, in source order: those of `transform`

    @property
    def rms(self) -> float:
        return self.rms_history[-1]


def fit_similarity(source: np.ndarray, target: np.ndarray) -> SimilarityTransform:
    """Least-squares similarity (positive scale) mapping paired source points
    onto target points, closed form."""
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if len(src) != len(tgt):
        raise InvalidInput("paired fits need equal-size point sets")
    mu_s = src.mean(axis=0)
    mu_t = tgt.mean(axis=0)
    sc = src - mu_s
    tc = tgt - mu_t
    cov = (tc.T @ sc) / len(src)
    u, d, vt = np.linalg.svd(cov)
    if d[1] <= d[0] * 1e-9:
        raise DegenerateGeometry("correspondence covariance is rank-deficient")
    s_fix = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        s_fix[2] = -1.0
    rot = u @ np.diag(s_fix) @ vt
    var_s = float(np.mean(np.sum(sc**2, axis=1)))
    scale = float((d * s_fix).sum() / var_s)
    if scale <= 0:
        raise DegenerateGeometry("similarity fit produced a non-positive scale")
    trans = mu_t - scale * (rot @ mu_s)
    return SimilarityTransform(matrix_to_quat(rot), trans, scale)


def _principal_axes(points: np.ndarray) -> np.ndarray:
    """Right-handed eigenbasis of the centered covariance, descending eigenvalues."""
    c = points - points.mean(axis=0)
    w, v = np.linalg.eigh((c.T @ c) / len(c))
    v = v[:, ::-1].copy()
    if np.linalg.det(v) < 0:
        v[:, 2] *= -1.0
    return v


def _initial_candidates(src: np.ndarray, tgt: np.ndarray) -> list[SimilarityTransform]:
    """Identity plus the four proper principal-axes alignments.

    Plain NN-ICP from identity stalls in local minima for large rotations;
    axis-aligned starts make recovery of arbitrary similarity transforms
    reliable while leaving near-aligned inputs on the identity path.
    """
    candidates = [SimilarityTransform.identity()]
    try:
        v_src = _principal_axes(src)
        v_tgt = _principal_axes(tgt)
    except np.linalg.LinAlgError:
        return candidates
    var_s = float(np.mean(np.sum((src - src.mean(axis=0)) ** 2, axis=1)))
    var_t = float(np.mean(np.sum((tgt - tgt.mean(axis=0)) ** 2, axis=1)))
    if var_s <= 0 or var_t <= 0:
        return candidates
    scale = math.sqrt(var_t / var_s)
    for signs in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        rot = v_tgt @ np.diag(signs) @ v_src.T
        trans = tgt.mean(axis=0) - scale * (rot @ src.mean(axis=0))
        candidates.append(SimilarityTransform(matrix_to_quat(rot), trans, scale))
    return candidates


def icp_with_scaling(source, target, max_iters: int = 100, tol: float = 1e-6) -> IcpResult:
    """Iterative closest point with a global scale.

    Alternates nearest-neighbor correspondences against the target with a
    closed-form similarity refit of the original source onto the matched
    targets; stops when the RMS correspondence distance improves by less
    than tol (meters) or after max_iters queries. No refit follows the last
    query, so a result's RMS and distances are those of its transform. Runs
    from a deterministic set of coarse starts and keeps the lowest final RMS. Each
    refit is the exact least-squares optimum, so RMS never increases within
    a run. The target may be given as a NearestNeighborIndex over it, so
    that a caller reuses its k-d tree.

    Each start keeps one query in flight: a first-in-first-out queue holds
    one `submit`ted query per live start, the start's moved source in one
    spatial order of the source (nearby queries walk the same leaves). The
    oldest is waited for, scattered back to the source's own order for the
    RMS and the refit, and the start's next query joins the back, so the
    other starts' queries keep the pool busy meanwhile. A start's history
    depends on its own queries only, and a query point's result does not
    depend on the rest of its batch, so every start's history and transform
    are those of a run on its own. A start leaves the queue when it
    converges or its refit is degenerate. The winner is the first start, in
    start order, with the lowest final RMS; if every start's refit is
    degenerate, the last start's error is raised.
    """
    if max_iters < 1:
        raise InvalidInput(f"max_iters must be >= 1; got {max_iters}")
    src = _as_points(source)
    tgt = _as_points(target)
    if len(src) < 3 or len(tgt) < 3:
        raise DegenerateGeometry("ICP needs at least 3 points per cloud")
    index = target if isinstance(target, NearestNeighborIndex) else NearestNeighborIndex(tgt)
    order = cKDTree(src).indices  # the source's points in k-d tree leaf order
    runs = [IcpResult(transform=t, rms_history=[], distances=None)
            for t in _initial_candidates(src, tgt)]
    failures: dict[IcpResult, DegenerateGeometry] = {}
    pending: dict[IcpResult, PendingQuery] = {}  # insertion order: oldest first

    def query(run):
        pending[run] = submit([(index._tree, run.transform.apply(src)[order])])

    try:
        for run in runs:
            query(run)
        while pending:
            run = next(iter(pending))
            [(d_leaf, idx_leaf)] = pending.pop(run)()
            d = np.empty(len(src))
            d[order] = d_leaf
            history = run.rms_history
            history.append(float(np.sqrt(np.mean(d**2))))
            if len(history) == max_iters or (len(history) >= 2 and history[-2] - history[-1] < tol):
                run.distances = d
                continue
            idx = np.empty(len(src), dtype=np.int64)
            idx[order] = idx_leaf
            try:
                run.transform = fit_similarity(src, tgt[idx])
            except DegenerateGeometry as e:
                failures[run] = e
                continue
            query(run)
    finally:
        for waiting in pending.values():  # only when raising: leave no chunk behind
            waiting.cancel()
    done = [run for run in runs if run not in failures]
    if not done:
        raise failures[runs[-1]]  # every start failed: the last start's error
    return min(done, key=lambda run: run.rms)


def median_metrics(reports) -> MetricReport:
    """Component-wise median; even counts take the lower of the two middle values."""
    reports = list(reports)
    if not reports:
        raise InvalidInput("no reports to aggregate")

    def med(values):
        v = sorted(values)
        return v[(len(v) - 1) // 2]

    return MetricReport(
        **{f.name: med([getattr(r, f.name) for r in reports]) for f in fields(MetricReport)}
    )
