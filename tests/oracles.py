"""Test-only oracles: slow, independent re-implementations that the package's
fast paths are checked against."""

import itertools
import math

import numpy as np

from rigalign.emission import _SIMILARITY_EPS, PCABasis, dino_similarity
from rigalign.errors import DegenerateGeometry, RigalignError
from rigalign.geometry import (
    PixelMap,
    SimilarityTransform,
    apply_pose,
    matrix_to_quat,
    quat_to_matrix,
)
from rigalign.metrics import (
    IcpResult,
    NearestNeighborIndex,
    _initial_candidates,
    _paired_svd,
    fit_similarity,
)
from rigalign.viterbi import StatePath

BRUTE_FORCE_LIMIT = 10_000_000


class TooLarge(RigalignError):
    """Problem size exceeds the exhaustive-enumeration budget."""


def random_unit_quaternions(n: int, seed: int) -> np.ndarray:
    """n rotations drawn uniformly from SO(3), as (n, 4) unit quaternions."""
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def compose(a: SimilarityTransform, b: SimilarityTransform) -> SimilarityTransform:
    """a applied after b: (a o b)(p) = a(b(p))."""
    R = a.matrix()
    return SimilarityTransform(
        matrix_to_quat(R @ b.matrix()),
        a.scale * (R @ b.translation) + a.translation,
        a.scale * b.scale,
    )


def two_step_poses(quats, positions, scale: float) -> list:
    """Model-to-camera poses built in two steps: a rigid state per (rotation,
    position) pair, then a second transform that folds in the model scale."""
    poses = []
    for q, p in zip(quats, positions):
        state = SimilarityTransform(q, p, 1.0)
        poses.append(SimilarityTransform(state.rotation, state.translation, scale * state.scale))
    return poses


def rotation_matrices(grid) -> np.ndarray:
    """(S, 3, 3) rotation matrices of a RotationGrid's quaternions."""
    return np.stack([quat_to_matrix(q) for q in grid.quaternions])


def rodrigues_error(r_i, r_j) -> float:
    """Geodesic angle in [0, pi] between two rotation matrices."""
    r_i = np.asarray(r_i, dtype=float)
    r_j = np.asarray(r_j, dtype=float)
    c = (float(np.trace(r_i.T @ r_j)) - 1.0) / 2.0
    return math.acos(max(-1.0, min(1.0, c)))


def solve_silhouette(mesh, pose, camera) -> np.ndarray:
    """(H, W) bool coverage of the posed mesh, one triangle at a time.

    A pixel center ray (x, y, 1) hits a triangle exactly when its barycentric
    weights with respect to the three vertex directions are all non-negative,
    so each triangle solves one 3x3 system over the pixels of its projected
    bounding box. Triangles crossing the camera plane scan the whole image;
    triangles wholly behind it, or whose plane passes through the camera
    center, cover nothing.
    """
    verts = pose.apply(mesh.vertices)
    tris = verts[mesh.faces]
    h, w = camera.height, camera.width
    mask = np.zeros((h, w), dtype=bool)
    u_centers = (np.arange(w) + 0.5 - camera.cx) / camera.fx
    v_centers = (np.arange(h) + 0.5 - camera.cy) / camera.fy
    for tri in tris:
        z = tri[:, 2]
        if (z <= 0.0).all():
            continue
        m = tri.T  # columns are the three vertices
        if np.linalg.det(m) == 0.0:
            continue
        if (z > 0.0).all():
            u = camera.fx * tri[:, 0] / z + camera.cx
            v = camera.fy * tri[:, 1] / z + camera.cy
            j0 = max(0, math.ceil(u.min() - 0.5))
            j1 = min(w - 1, math.floor(u.max() - 0.5))
            i0 = max(0, math.ceil(v.min() - 0.5))
            i1 = min(h - 1, math.floor(v.max() - 0.5))
            if j0 > j1 or i0 > i1:
                continue
        else:
            i0, i1, j0, j1 = 0, h - 1, 0, w - 1
        gx, gy = np.meshgrid(u_centers[j0 : j1 + 1], v_centers[i0 : i1 + 1])
        dirs = np.stack([gx.ravel(), gy.ravel(), np.ones(gx.size)])
        bary = np.linalg.solve(m, dirs)
        covered = (bary >= 0.0).all(axis=0).reshape(i1 - i0 + 1, j1 - j0 + 1)
        mask[i0 : i1 + 1, j0 : j1 + 1] |= covered
    return mask


def visible_window(tris: np.ndarray, camera) -> tuple[int, int, int, int]:
    """Pixel rows [i0, i1) and columns [j0, j1) whose center rays can hit the triangles.

    With every vertex in front of the camera, a hit pixel center lies inside
    the projected vertex bounding box; one pixel of padding absorbs rounding
    in the projection. A vertex at or behind the camera plane makes the
    projection unbounded, so the window is the whole image.
    """
    h, w = camera.height, camera.width
    p = tris.reshape(-1, 3)
    z = p[:, 2]
    if (z <= 0.0).any():
        return 0, h, 0, w
    with np.errstate(over="ignore"):
        u = camera.fx * p[:, 0] / z + camera.cx
        v = camera.fy * p[:, 1] / z + camera.cy
    # center j + 0.5 lies in [u.min(), u.max()] for j in
    # [ceil(u.min() - 0.5), floor(u.max() - 0.5)]; widen that by one each side
    j0 = int(np.clip(np.ceil(u.min() - 0.5) - 1, 0, w))
    j1 = int(np.clip(np.floor(u.max() - 0.5) + 2, 0, w))
    i0 = int(np.clip(np.ceil(v.min() - 0.5) - 1, 0, h))
    i1 = int(np.clip(np.floor(v.max() - 0.5) + 2, 0, h))
    return i0, i1, j0, j1


def window_first_hit_map(mesh, camera, chunk: int = 128) -> PixelMap:
    """The first-hit map cast over the whole mesh's projected window, every
    pixel there against every face, chunked over faces; ties in t go to the
    lowest face index. Same arithmetic as the package's face-binned caster,
    so the two agree bitwise."""
    if len(mesh.faces) == 0:
        raise DegenerateGeometry("mesh has no faces")
    h, w = camera.height, camera.width
    hits = np.zeros((h, w), dtype=bool)
    points = np.zeros((h, w, 3))
    tris = mesh.triangles()
    i0, i1, j0, j1 = visible_window(tris, camera)
    if i0 >= i1 or j0 >= j1:
        return PixelMap(hits, points[hits])
    dirs = camera.pixel_rays[i0:i1, j0:j1].reshape(-1, 3)
    npix = dirs.shape[0]
    best_t = np.full(npix, np.inf)
    best_point = np.zeros((npix, 3))
    dx, dy, dz = dirs[:, 0:1], dirs[:, 1:2], dirs[:, 2:3]
    for start in range(0, len(tris), chunk):
        v0 = tris[start : start + chunk, 0]
        e1 = tris[start : start + chunk, 1] - v0
        e2 = tris[start : start + chunk, 2] - v0
        # Moller-Trumbore broadcast over (npix, F)
        px = dy * e2[:, 2] - dz * e2[:, 1]
        py = dz * e2[:, 0] - dx * e2[:, 2]
        pz = dx * e2[:, 1] - dy * e2[:, 0]
        det = e1[:, 0] * px + e1[:, 1] * py + e1[:, 2] * pz
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / det
            tv = -v0
            u = (tv[:, 0] * px + tv[:, 1] * py + tv[:, 2] * pz) * inv
            qx = tv[:, 1] * e1[:, 2] - tv[:, 2] * e1[:, 1]
            qy = tv[:, 2] * e1[:, 0] - tv[:, 0] * e1[:, 2]
            qz = tv[:, 0] * e1[:, 1] - tv[:, 1] * e1[:, 0]
            v = (dx * qx + dy * qy + dz * qz) * inv
            t = (e2[:, 0] * qx + e2[:, 1] * qy + e2[:, 2] * qz) * inv
            ok = (det != 0.0) & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > 0.0)
        t = np.where(ok, t, np.inf)
        col = np.argmin(t, axis=1)
        rows = np.arange(npix)
        tmin = t[rows, col]
        better = tmin < best_t
        if not better.any():
            continue
        uw = u[rows, col][better]
        vw = v[rows, col][better]
        tri = tris[start + col[better]]
        a1 = 1.0 - uw - vw
        best_point[better] = (
            a1[:, None] * tri[:, 0] + uw[:, None] * tri[:, 1] + vw[:, None] * tri[:, 2]
        )
        best_t[better] = tmin[better]
    hits[i0:i1, j0:j1] = np.isfinite(best_t).reshape(i1 - i0, j1 - j0)
    points[i0:i1, j0:j1] = best_point.reshape(i1 - i0, j1 - j0, 3)
    return PixelMap(hits, points[hits])


def dense_pca_basis(grids, masks) -> PCABasis:
    """emission.pca_basis over dense (H, W, C) feature grids: the vectors at
    each grid's masked-in pixels, pooled in map order."""
    pooled = np.concatenate([np.asarray(g, dtype=float)[m] for g, m in zip(grids, masks)])
    mean = pooled.mean(axis=0)
    centered = pooled - mean
    _, vecs = np.linalg.eigh((centered.T @ centered) / len(centered))
    comps = vecs[:, ::-1][:, :3].T.copy()
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PCABasis(mean=mean, components=comps)


def dense_similarity(grid_j, mask_j, grid_0, mask_0, basis) -> float:
    """emission.dino_similarity over dense (H, W, C) feature grids: both
    projected at the pixels of mask_j & mask_0; NaN when that is empty."""
    domain = mask_j & mask_0
    if not domain.any():
        return math.nan
    a = basis.project(np.asarray(grid_j, dtype=float)[domain]).ravel()
    b = basis.project(np.asarray(grid_0, dtype=float)[domain]).ravel()
    denom = max(float(np.linalg.norm(a)) * float(np.linalg.norm(b)), _SIMILARITY_EPS)
    cos = max(-1.0, min(1.0, float(a @ b) / denom))
    return 1.0 - 0.5 * (cos + 1.0)


def per_state_feature_errors(source, phase: str, frame_index: int, mesh, poses) -> np.ndarray:
    """A cast feature source's row as one window cast and one comparison per
    state, NaN where the overlap is empty."""
    errors = np.empty(len(poses))
    for j, pose in enumerate(poses):
        hit_map = window_first_hit_map(apply_pose(mesh, pose), source.camera)
        fj = source.candidate_features(phase, frame_index, j, pose, hit_map)
        errors[j] = dino_similarity(fj, source.inputs[frame_index], source.basis)
    return errors


def _step_stack(transition, num_frames: int) -> list:
    """transition(t) for t = 1..T-1; entry t-1 holds the step into frame t."""
    return [np.asarray(transition(t), dtype=float) for t in range(1, num_frames)]


def path_cost(emissions, transition, lam: float, states) -> float:
    """Objective of a given path, accumulated exactly as viterbi_decode does.
    With zero emissions it is the path's lam-weighted transition cost."""
    b = np.asarray(emissions, dtype=float)
    trans = _step_stack(transition, len(b))
    states = np.asarray(states, dtype=np.int64)
    total = float(b[0, states[0]])
    for t in range(1, len(b)):
        total = (total + lam * float(trans[t - 1][states[t - 1], states[t]])) + float(b[t, states[t]])
    return total


def brute_force_decode(emissions, transition, lam: float = 1.0) -> StatePath:
    """Exhaustive enumeration with viterbi_decode's objective and tie-breaking:
    the minimal-cost path whose reversed state sequence is lexicographically
    smallest. Refuses state spaces beyond S^T = 1e7."""
    b = np.asarray(emissions, dtype=float)
    t_frames, s_states = b.shape
    if s_states**t_frames > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{s_states}^{t_frames} paths exceed the enumeration budget")
    trans = _step_stack(transition, t_frames)
    best_cost = None
    best_rev = None
    for path in itertools.product(range(s_states), repeat=t_frames):
        total = float(b[0, path[0]])
        for t in range(1, t_frames):
            total = (total + lam * float(trans[t - 1][path[t - 1], path[t]])) + float(b[t, path[t]])
        rev = path[::-1]
        if best_cost is None or total < best_cost or (total == best_cost and rev < best_rev):
            best_cost = total
            best_rev = rev
    return StatePath(states=np.array(best_rev[::-1]), total_cost=best_cost)


def covering_radius(grid, samples: int, seed: int) -> float:
    """Monte-Carlo covering radius: max over random rotations of the geodesic
    distance to the nearest grid entry."""
    q = random_unit_quaternions(samples, seed)
    # |<q, g>| maximized over grid entries g, in manageable blocks
    worst = 0.0
    for start in range(0, samples, 65536):
        block = q[start : start + 65536]
        best = np.abs(block @ grid.quaternions.T).max(axis=1)
        worst = max(worst, float(2.0 * np.arccos(np.clip(best, 0.0, 1.0)).max()))
    return worst


def ray_triangle_intersect(origin, direction, triangle):
    """First intersection of a ray with a triangle.

    Returns (t, (a1, a2, a3)) with t > 0 the distance along the unit
    direction and a_i the barycentric weights of the three vertices, or
    None for a miss. Edges and vertices count as hits (a_i >= 0).
    """
    o = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    v0, v1, v2 = (np.asarray(v, dtype=float) for v in triangle)
    e1 = v1 - v0
    e2 = v2 - v0
    # p = d x e2, written out so the vectorized caster matches bit-for-bit
    px = d[1] * e2[2] - d[2] * e2[1]
    py = d[2] * e2[0] - d[0] * e2[2]
    pz = d[0] * e2[1] - d[1] * e2[0]
    det = e1[0] * px + e1[1] * py + e1[2] * pz
    if det == 0.0:
        return None
    inv = 1.0 / det
    tv = o - v0
    u = (tv[0] * px + tv[1] * py + tv[2] * pz) * inv
    qx = tv[1] * e1[2] - tv[2] * e1[1]
    qy = tv[2] * e1[0] - tv[0] * e1[2]
    qz = tv[0] * e1[1] - tv[1] * e1[0]
    v = (d[0] * qx + d[1] * qy + d[2] * qz) * inv
    t = (e2[0] * qx + e2[1] * qy + e2[2] * qz) * inv
    if u < 0.0 or v < 0.0 or u + v > 1.0 or t <= 0.0:
        return None
    return t, (1.0 - u - v, u, v)


def points_to_triangles_distance(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Min distance from each point to the nearest of the given triangles.

    points (N, 3), tris (M, 3, 3) -> (N,). Closest-point-on-triangle via the
    standard region decomposition, broadcast over all pairs.
    """
    p = points[:, None, :]
    a, b, c = tris[None, :, 0], tris[None, :, 1], tris[None, :, 2]
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.sum(ab * ap, axis=-1)
    d2 = np.sum(ac * ap, axis=-1)
    bp = p - b
    d3 = np.sum(ab * bp, axis=-1)
    d4 = np.sum(ac * bp, axis=-1)
    cp = p - c
    d5 = np.sum(ab * cp, axis=-1)
    d6 = np.sum(ac * cp, axis=-1)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    denom = va + vb + vc
    with np.errstate(divide="ignore", invalid="ignore"):
        v_face = np.where(denom != 0, vb / denom, 0.0)
        w_face = np.where(denom != 0, vc / denom, 0.0)
        v_ab = np.where(d1 - d3 != 0, d1 / (d1 - d3), 0.0)
        v_ac = np.where(d2 - d6 != 0, d2 / (d2 - d6), 0.0)
        v_bc = np.where((d4 - d3) + (d5 - d6) != 0, (d4 - d3) / ((d4 - d3) + (d5 - d6)), 0.0)
    closest = a + v_face[..., None] * ab + w_face[..., None] * ac
    # edge BC
    on_bc = (d4 - d3 >= 0) & (d5 - d6 >= 0) & (va <= 0)
    closest = np.where(on_bc[..., None], b + np.clip(v_bc, 0, 1)[..., None] * (c - b), closest)
    # edge AC
    on_ac = (d2 >= 0) & (d6 <= 0) & (vb <= 0)
    closest = np.where(on_ac[..., None], a + np.clip(v_ac, 0, 1)[..., None] * ac, closest)
    # edge AB
    on_ab = (d1 >= 0) & (d3 <= 0) & (vc <= 0)
    closest = np.where(on_ab[..., None], a + np.clip(v_ab, 0, 1)[..., None] * ab, closest)
    # vertex regions
    closest = np.where(((d6 >= 0) & (d5 <= d6))[..., None], c, closest)
    closest = np.where(((d3 >= 0) & (d4 <= d3))[..., None], b, closest)
    closest = np.where(((d1 <= 0) & (d2 <= 0))[..., None], a, closest)
    return np.sqrt(np.sum((p - closest) ** 2, axis=-1)).min(axis=1)


def points_to_mesh_distance(points, mesh, chunk: int = 64) -> np.ndarray:
    """Distance from each point to the mesh surface, chunked over faces."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    tris = mesh.triangles()
    best = np.full(len(pts), np.inf)
    for start in range(0, len(tris), chunk):
        d = points_to_triangles_distance(pts, tris[start : start + chunk])
        best = np.minimum(best, d)
    return best


def icp_per_start(source, target, max_iters: int = 100, tol: float = 1e-6) -> IcpResult:
    """icp_with_scaling run one start at a time, each iteration querying that
    start's moved source in its own order; same starts, stop rule and selection."""
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if len(src) < 3 or len(tgt) < 3:
        raise DegenerateGeometry("ICP needs at least 3 points per cloud")
    index = NearestNeighborIndex(tgt)
    best = failure = None
    for transform in _initial_candidates(src, tgt):
        history = []
        try:
            for _ in range(max_iters):
                d, idx = index.query(transform.apply(src))
                rms = float(np.sqrt(np.mean(d**2)))
                history.append(rms)
                if len(history) == max_iters or (len(history) >= 2 and history[-2] - rms < tol):
                    _paired_svd(src, tgt[idx])  # the final pairs pass the refit's rank test
                    break
                transform = fit_similarity(src, tgt[idx])
        except DegenerateGeometry as e:
            failure = e
            continue
        result = IcpResult(transform=transform, rms_history=history, distances=d)
        if best is None or result.rms < best.rms:
            best = result
    if best is None:
        raise failure if failure is not None else DegenerateGeometry("no ICP start succeeded")
    return best
