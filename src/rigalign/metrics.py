"""Point-cloud evaluation metrics: Chamfer distance (cm^2), F-score at a
distance threshold, exact nearest-neighbor queries, and ICP with scaling.

Every k-d tree query in the package is put in flight on one process-wide
thread pool through an InFlight queue, which alone waits for or cancels the
pool's work."""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, fields

import numpy as np

# The package's one scipy import. scipy's wheel bundles its own OpenBLAS, which
# the package never calls: cKDTree uses no BLAS. Loaded as it comes, that
# library starts one worker thread per extra CPU, and the worker busy-waits for
# about 0.1 s, taking a core from the query pool. So scipy loads with
# OPENBLAS_NUM_THREADS at 1, unless the caller set it, and the environment is
# restored right after: child processes see it as it was, and numpy's own
# OpenBLAS, loaded above, keeps its threads.
_openblas_preset = "OPENBLAS_NUM_THREADS" in os.environ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
try:
    from scipy.spatial import cKDTree
finally:
    if not _openblas_preset:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .errors import DegenerateGeometry, InvalidInput
from .geometry import SimilarityTransform, matrix_to_quat

M2_TO_CM2 = 1e4

# Points per leaf of every k-d tree (see kd_tree). Medians of `wall_s` over 4
# rounds of `bench/run.py --seconds 12` at seed 11 on a 2-core Xeon, with
# every tree's node boxes left uncompacted, at leaf sizes 32 / 48 / 64:
#   track-dense     0.0939 / 0.0931 / 0.1006 s
#   eval-icp        0.5295 / 0.5020 / 0.4997 s
#   track-cloud-l3  0.5394 / 0.5329 / 0.6265 s
# The code before read 0.1051, 0.5130 and 0.5411 s: ICP's target tree used 64,
# the other trees scipy's defaults (16 points, compacted nodes), and scipy
# loaded without the OpenBLAS pin above. The Chamfer trees,
# about a thousand points each, prefer smaller leaves and ICP's 10k-point
# trees larger ones; 48 is within 0.5% of the best on each workload. Outputs
# were byte-identical at every size: a distance does not depend on the leaf
# size, and an index may differ only between duplicates of one point.
LEAFSIZE = 48

# Whether a k-d tree shrinks each node's box to its points. Replaying
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


class InFlight:
    """Nearest-neighbour queries on the shared pool, waited for oldest first.

    `put(key, pairs)` starts an exact query for a sequence of (cKDTree,
    (N, 3) points) pairs and returns at once; `pop()` waits for the oldest query
    still held and returns its key and one (distances float64, indices
    int64) per pair, in order. Leaving the `with` block drops the chunks of
    the queries still held that have not started and waits for the running
    ones, so no chunk outlives the block, whether it ends or raises.

    Every k-d tree query in the package goes through `put`. The points of
    all pairs are cut into chunks of QUERY_CHUNK, queued together on one
    persistent pool of one thread per usable CPU, and each chunk writes its
    own slice of arrays allocated up front. A point's nearest neighbour does
    not depend on the rest of its batch, so the result is the same bytes as
    one query per pair. One chunk in all, or one usable CPU, runs inline
    before `put` returns.
    """

    def __init__(self):
        self._held = deque()  # (key, futures, results), oldest first

    def __enter__(self) -> "InFlight":
        return self

    def __exit__(self, *exc_info) -> None:
        futures = [future for _, queued, _ in self._held for future in queued]
        for future in futures:
            future.cancel()
        wait(futures)
        self._held.clear()

    def __len__(self) -> int:
        return len(self._held)

    def put(self, key, pairs) -> None:
        out = [(np.empty(len(pts)), np.empty(len(pts), dtype=np.int64)) for _, pts in pairs]
        chunks = [(tree, pts, d, i, slice(s, s + QUERY_CHUNK))
                  for (tree, pts), (d, i) in zip(pairs, out)
                  for s in range(0, len(pts), QUERY_CHUNK)]

        def run(chunk):
            tree, pts, d, i, rows = chunk
            d[rows], i[rows] = tree.query(pts[rows], k=1)

        futures = []
        if _WORKERS == 1 or len(chunks) <= 1:
            for chunk in chunks:
                run(chunk)
        else:
            pool = _executor()
            futures = [pool.submit(run, chunk) for chunk in chunks]
        self._held.append((key, futures, out))

    def pop(self):
        key, futures, out = self._held[0]
        for future in futures:
            future.result()  # a failed chunk leaves its query held, for __exit__
        self._held.popleft()
        return key, out


def kd_tree(points) -> cKDTree:
    """A k-d tree over (N, 3) points. Every tree in the package is built here,
    in one shape: LEAFSIZE points per leaf, node boxes per COMPACT_NODES."""
    return cKDTree(points, leafsize=LEAFSIZE, compact_nodes=COMPACT_NODES)


def nearest(pairs) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact nearest neighbours for a sequence of (cKDTree, (N, 3) points) pairs,
    waited for: one query put in flight and popped."""
    with InFlight() as flight:
        flight.put(None, pairs)
        return flight.pop()[1]


class NearestNeighborIndex:
    """Exact nearest-neighbor queries over a fixed (N, 3) point set (kd-tree backed)."""

    def __init__(self, points: np.ndarray):
        if len(points) == 0:
            raise DegenerateGeometry("cannot index an empty point set")
        self._tree = kd_tree(points)

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


def _nearest_distances(a: np.ndarray, b: np.ndarray, what: str):
    """(a->b, b->a) nearest-neighbor distances between two non-empty point sets."""
    if len(a) == 0 or len(b) == 0:
        raise DegenerateGeometry(f"{what} needs non-empty clouds")
    (d_ab, _), (d_ba, _) = nearest([(kd_tree(b), a), (kd_tree(a), b)])
    return d_ab, d_ba


def chamfer_from_distances(d_ab: np.ndarray, d_ba: np.ndarray):
    """Symmetric mean squared nearest-neighbor distance in cm^2, from the two
    directed distance arrays of two equal-size point sets. Reduces over the
    last axis: (n,) arrays give a float, (B, n) arrays one value per row.
    Distances so large that a value overflows raise DegenerateGeometry."""
    n_ab, n_ba = np.shape(d_ab)[-1], np.shape(d_ba)[-1]
    if n_ab != n_ba:
        raise InvalidInput(f"point sets must have the same size ({n_ab} vs {n_ba})")
    with np.errstate(over="ignore"):
        cd = (np.mean(d_ab**2, axis=-1) + np.mean(d_ba**2, axis=-1)) * M2_TO_CM2
    if not np.isfinite(cd).all():
        raise DegenerateGeometry("Chamfer distance overflows: the clouds' coordinates are too "
                                 "large")
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


def _paired_svd(src: np.ndarray, tgt: np.ndarray):
    """The means of paired point sets, the centered source and the SVD of
    their cross-covariance; raises DegenerateGeometry when that covariance
    is rank-deficient.

    Targets that are all one point give rank 0. Their rounded mean leaves
    each centered target a few ulps off 0, and the singular values of that
    noise can pass the relative test, so that case is tested exactly."""
    mu_s = src.mean(axis=0)
    mu_t = tgt.mean(axis=0)
    sc = src - mu_s
    tc = tgt - mu_t
    cov = (tc.T @ sc) / len(src)
    u, d, vt = np.linalg.svd(cov)
    if d[1] <= d[0] * 1e-9 or (tgt == tgt[0]).all():
        raise DegenerateGeometry("correspondence covariance is rank-deficient")
    return mu_s, mu_t, sc, u, d, vt


def fit_similarity(source: np.ndarray, target: np.ndarray) -> SimilarityTransform:
    """Least-squares similarity (positive scale) mapping paired source points
    onto target points, closed form."""
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if len(src) != len(tgt):
        raise InvalidInput("paired fits need equal-size point sets")
    mu_s, mu_t, sc, u, d, vt = _paired_svd(src, tgt)
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
    reliable while leaving near-aligned inputs on the identity path. A cloud
    whose variance is 0, or overflows, has no axes to align: the identity
    start runs alone.
    """
    candidates = [SimilarityTransform.identity()]
    try:
        v_src = _principal_axes(src)
        v_tgt = _principal_axes(tgt)
    except np.linalg.LinAlgError:
        return candidates
    var_s = float(np.mean(np.sum((src - src.mean(axis=0)) ** 2, axis=1)))
    var_t = float(np.mean(np.sum((tgt - tgt.mean(axis=0)) ** 2, axis=1)))
    if not (0 < var_s < math.inf and 0 < var_t < math.inf):
        return candidates
    scale = math.sqrt(var_t / var_s)
    for signs in ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        rot = v_tgt @ np.diag(signs) @ v_src.T
        trans = tgt.mean(axis=0) - scale * (rot @ src.mean(axis=0))
        candidates.append(SimilarityTransform(matrix_to_quat(rot), trans, scale))
    return candidates


# Finite coordinates can still overflow ICP's sums of squares. Such a start
# ends on a non-finite RMS, which fails it like a degenerate refit, so numpy's
# warnings on the way would only add lines to the error report.
@np.errstate(over="ignore", invalid="ignore")
def icp_with_scaling(src: np.ndarray, tgt: np.ndarray, max_iters: int = 100,
                     tol: float = 1e-6) -> IcpResult:
    """Iterative closest point with a global scale, of the (N, 3) source
    points `src` onto the (M, 3) target points `tgt`.

    Alternates nearest-neighbor correspondences against the target with a
    closed-form similarity refit of the original source onto the matched
    targets; stops when the RMS correspondence distance improves by less
    than tol (meters) or after max_iters queries. No refit follows the last
    query, so a result's RMS and distances are those of its transform. Runs
    from a deterministic set of coarse starts and keeps the lowest final RMS. Each
    refit is the exact least-squares optimum, so RMS never increases within
    a run. The target's k-d tree is built here: no caller has one to share.

    Each start keeps one query in flight: one InFlight queue holds one
    query per live start, keyed by the start, the start's moved source in one
    spatial order of the source (nearby queries walk the same leaves). The
    oldest is waited for, scattered back to the source's own order for the
    RMS and the refit, and the start's next query joins the back, so the
    other starts' queries keep the pool busy meanwhile. A start's history
    depends on its own queries only, and a query point's result does not
    depend on the rest of its batch, so every start's history and transform
    are those of a run on its own. A start leaves the queue when it
    converges, its refit is degenerate or its RMS overflows. A start that
    stops on correspondences that fail the refit's rank test fails too: when
    its scale has collapsed toward 0, every source point pairs with one
    target point, and its RMS, near 0, would otherwise win. The winner is
    the first start, in start order, with the lowest final RMS; if every
    start failed, the last start's error is raised.
    """
    if max_iters < 1:
        raise InvalidInput(f"max_iters must be >= 1; got {max_iters}")
    if len(src) < 3 or len(tgt) < 3:
        raise DegenerateGeometry("ICP needs at least 3 points per cloud")
    tree = kd_tree(tgt)
    order = kd_tree(src).indices  # the source's points in k-d tree leaf order
    runs = [IcpResult(transform=t, rms_history=[], distances=None)
            for t in _initial_candidates(src, tgt)]
    failures: dict[IcpResult, DegenerateGeometry] = {}
    with InFlight() as flight:
        for run in runs:
            flight.put(run, [(tree, run.transform.apply(src)[order])])
        while flight:
            run, [(d_leaf, idx_leaf)] = flight.pop()
            d = np.empty(len(src))
            d[order] = d_leaf
            history = run.rms_history
            history.append(float(np.sqrt(np.mean(d**2))))
            if not math.isfinite(history[-1]):
                failures[run] = DegenerateGeometry("ICP distances overflow: the clouds' "
                                                   "coordinates are too large")
                continue
            idx = np.empty(len(src), dtype=np.int64)
            idx[order] = idx_leaf
            try:
                if len(history) == max_iters or (len(history) >= 2
                                                 and history[-2] - history[-1] < tol):
                    _paired_svd(src, tgt[idx])  # a start ends on pairs that would refit
                    run.distances = d
                    continue
                run.transform = fit_similarity(src, tgt[idx])
            except DegenerateGeometry as e:
                failures[run] = e
                continue
            flight.put(run, [(tree, run.transform.apply(src)[order])])
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
