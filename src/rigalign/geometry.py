"""Mesh and point-cloud primitives.

Quaternion rotations, pinhole ray casting against triangle meshes,
hand-anchored normalization, surface sampling, and similarity transforms.
All coordinates are meters; all types are treated as immutable after
construction and are safe to share across threads. A point set is a float
(N, 3) array; PointCloud is the record of one PLY cloud, its points with
their colours and labels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateGeometry, InvalidInput

LABEL_BACKGROUND = 0
LABEL_HAND = 1
LABEL_OBJECT = 2

# Most pixels a camera image may have: 3840 x 2160 (4K UHD). At that size
# pixel_rays takes 199 MB, a hit map's points as much again and the caster's
# per-pixel winners 265 MB. Larger images are rejected when the camera is
# built, before any of that is allocated.
MAX_PIXELS = 3840 * 2160

# Most points a surface sample or a cloud resample may have: 10 million.
# One (N, 3) float64 array of them takes 240 MB, and Chamfer scoring and
# ICP each hold a few such arrays and a k-d tree over one. Larger counts
# (emission_samples, eval_samples, a synthetic scene's points) are
# rejected when they are read, before anything is allocated.
MAX_SAMPLE_POINTS = 10_000_000


# ---------------------------------------------------------------------------
# Quaternions, stored (w, x, y, z) with unit norm.


def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = math.sqrt(float(q @ q))
    if n == 0.0 or not math.isfinite(n):
        if n == math.inf and np.isfinite(q).all():
            raise InvalidInput("cannot normalize quaternion: its squared norm overflows")
        raise InvalidInput("cannot normalize zero or non-finite quaternion")
    return q / n


def quat_to_matrix(q) -> np.ndarray:
    w, x, y, z = quat_normalize(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def matrix_to_quat(R) -> np.ndarray:
    """Rotation matrix to unit quaternion (w, x, y, z), stable for all traces."""
    R = np.asarray(R, dtype=float)
    t = R[0, 0] + R[1, 1] + R[2, 2]
    if t > 0:
        s = math.sqrt(t + 1.0) * 2
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] >= R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    return quat_normalize(q)


# ---------------------------------------------------------------------------
# Domain types.


@dataclass(frozen=True)
class Camera:
    """Pinhole camera; pixel (row i, col j) has its center at (j + 0.5, i + 0.5)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise InvalidInput("focal lengths must be finite and positive")
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise InvalidInput("principal point must be finite")
        if self.width < 1 or self.height < 1:
            raise InvalidInput("image size must be positive")
        if self.width * self.height > MAX_PIXELS:
            raise InvalidInput(f"image of {self.width} x {self.height} pixels is over the "
                               f"{MAX_PIXELS} pixel limit (3840 x 2160)")
        # pixel_rays squares each pixel's offset from the principal point over
        # the focal length; it is largest at a corner pixel. If that overflows,
        # every ray normalizes to zero, so the check is the rays' own arithmetic.
        tx = max(abs(0.5 - self.cx), abs(self.width - 0.5 - self.cx)) / self.fx
        ty = max(abs(0.5 - self.cy), abs(self.height - 0.5 - self.cy)) / self.fy
        if not math.isfinite(tx * tx + ty * ty + 1.0):
            raise InvalidInput(f"principal point ({self.cx!r}, {self.cy!r}) is too far from the "
                               f"image for focal lengths ({self.fx!r}, {self.fy!r}): the pixel "
                               "rays overflow")

    @cached_property
    def pixel_rays(self) -> np.ndarray:
        """(H, W, 3) unit ray directions through all pixel centers, camera at the
        origin; built once per camera and read-only."""
        jj, ii = np.meshgrid(np.arange(self.width), np.arange(self.height))
        x = (jj + 0.5 - self.cx) / self.fx
        y = (ii + 0.5 - self.cy) / self.fy
        z = np.ones_like(x)
        d = np.stack([x, y, z], axis=-1)
        n = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2 + d[..., 2] ** 2)
        rays = d / n[..., None]
        rays.flags.writeable = False
        return rays


@dataclass(eq=False)
class TriangleMesh:
    """Vertices (N, 3) in meters plus integer faces (M, 3)."""

    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if not np.all(np.isfinite(self.vertices)):
            raise InvalidInput("mesh vertices must be finite")
        if self.faces.size:
            if self.faces.min() < 0 or self.faces.max() >= len(self.vertices):
                raise InvalidInput("face index out of range")
            same = (self.faces[:, 0] == self.faces[:, 1]) & (self.faces[:, 1] == self.faces[:, 2])
            if same.any():
                raise InvalidInput("degenerate face with three identical indices")

    def triangles(self) -> np.ndarray:
        """(M, 3, 3) vertex coordinates per face."""
        return self.vertices[self.faces]


@dataclass(eq=False)
class PointCloud:
    """One PLY cloud: points (N, 3) with optional per-point color in [0, 1]^3
    and label in {0, 1, 2}."""

    points: np.ndarray
    colors: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise InvalidInput("point coordinates must be finite")
        if self.colors is not None:
            self.colors = np.asarray(self.colors, dtype=float).reshape(-1, 3)
            if len(self.colors) != len(self.points):
                raise InvalidInput("colors must match point count")
            if self.colors.size and (self.colors.min() < 0 or self.colors.max() > 1):
                raise InvalidInput("colors must lie in [0, 1]")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
            if len(self.labels) != len(self.points):
                raise InvalidInput("labels must match point count")
            if self.labels.size and not np.isin(self.labels, (0, 1, 2)).all():
                raise InvalidInput("labels must be in {0, 1, 2}")

    def __len__(self) -> int:
        return len(self.points)

    def select(self, index) -> "PointCloud":
        return PointCloud(
            self.points[index],
            None if self.colors is None else self.colors[index],
            None if self.labels is None else self.labels[index],
        )

    def filter_label(self, label: int) -> "PointCloud":
        """Points carrying the given label; clouds without labels pass through unchanged."""
        if self.labels is None:
            return self
        return self.select(self.labels == label)


@dataclass(eq=False)
class PixelMap:
    """An (H, W) bool mask and one (D,) value vector per masked-in pixel: the
    (N, D) `values`, in row-major pixel order. A ray cast's map holds the hit
    points (D = 3); a feature map holds feature vectors (D = C)."""

    mask: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        self.values = np.asarray(self.values, dtype=float)
        if self.mask.ndim != 2:
            raise InvalidInput("a pixel map's mask must be (H, W)")
        if self.values.ndim != 2 or len(self.values) != np.count_nonzero(self.mask):
            raise InvalidInput("a pixel map needs one value row per masked-in pixel")

    def dense(self) -> np.ndarray:
        """The (H, W, D) grid with zeros off the mask, as an FMAP file holds it."""
        grid = np.zeros(self.mask.shape + self.values.shape[1:])
        grid[self.mask] = self.values
        return grid


@dataclass(eq=False)
class SimilarityTransform:
    """p -> scale * R(rotation) * p + translation; scale 1 makes it a rigid pose."""

    rotation: np.ndarray
    translation: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        self.rotation = quat_normalize(self.rotation)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        self.scale = float(self.scale)
        if self.scale <= 0:
            raise InvalidInput("scale must be positive")
        self._matrix = quat_to_matrix(self.rotation)
        self._matrix.flags.writeable = False

    @staticmethod
    def identity() -> "SimilarityTransform":
        return SimilarityTransform(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3), 1.0)

    def matrix(self) -> np.ndarray:
        return self._matrix

    def apply(self, points) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        return self.scale * (p @ self.matrix().T) + self.translation

    def inverse(self) -> "SimilarityTransform":
        R = self.matrix()
        return SimilarityTransform(
            matrix_to_quat(R.T), -(R.T @ self.translation) / self.scale, 1.0 / self.scale
        )


# ---------------------------------------------------------------------------
# Ray casting.


# Most (pixel, face) pairs one step of cast_hit_maps tests at once. A step
# holds about 30 arrays of this length, 1 MB at 4,096 pairs, whatever the
# pose count, face count or image size. Measured on one track-dense call
# (40 and 9 poses of a 64-face model at 64 px, 2-core x86-64): peak RSS over
# the window cast was +0.4 MB at 2,048 or 4,096 pairs, +1.0 MB at 8,192,
# +2.8 MB at 16,384 and +6.2 MB at 32,768. Per call, 2,048 pairs were 10-30%
# slower than 4,096 (more steps, each with fixed overhead) and larger steps
# no faster within the host's noise.
_CAST_PAIR_BUDGET = 4096


def cast_hit_maps(vertex_sets, faces: np.ndarray, camera: Camera):
    """Yield the first-hit map of each (N, 3) vertex set in `vertex_sets`,
    in order; every set shares the (M, 3) `faces`.

    Each pixel's hit is its center ray's nearest positive-t Moller-Trumbore
    intersection; front- and back-facing triangles both count, and ties in
    t go to the lowest face index. A (pose, face) pair casts only the pixels
    of the face's projected vertex bounding box, padded by one pixel to
    absorb rounding; a face with a vertex at or behind the camera plane has
    an unbounded projection and casts the whole image. Work goes in steps of
    at most _CAST_PAIR_BUDGET (pixel, face) pairs, grouping poses when faces
    are few and splitting faces when pixels are many, and `vertex_sets` is
    read one group of poses at a time, so no temporary grows with the pose
    count.
    """
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    if len(faces) == 0:
        raise DegenerateGeometry("mesh has no faces")
    face_step = min(len(faces), _CAST_PAIR_BUDGET)
    per_group = max(1, _CAST_PAIR_BUDGET // len(faces))
    rays = camera.pixel_rays.reshape(-1, 3)
    winners = _WinnerMap(camera)
    vertex_sets = iter(vertex_sets)
    while group := list(itertools.islice(vertex_sets, per_group)):
        verts = np.stack(group)
        pose = 0
        for f0 in range(0, len(faces), face_step):
            block = _FaceBlock(verts[:, faces[f0:f0 + face_step]], camera)
            for g, pix, t, face, u, v in block.hits(rays):
                while pose < g:
                    yield winners.take(verts[pose], faces)
                    pose += 1
                winners.merge(pix, t, face + f0, u, v)
        while pose < len(group):
            yield winners.take(verts[pose], faces)
            pose += 1


class _FaceBlock:
    """The (pose, face) pairs of (G, F, 3, 3) posed triangles: each one's
    pixel box, and Moller-Trumbore's terms that do not depend on the ray."""

    def __init__(self, tris: np.ndarray, camera: Camera):
        self.face_count = tris.shape[1]
        self.width = camera.width
        tris = tris.reshape(-1, 3, 3)
        h, w = camera.height, camera.width
        z = tris[:, :, 2]
        behind = (z <= 0.0).any(axis=1)
        z = np.where(behind[:, None], 1.0, z)
        with np.errstate(over="ignore"):
            u = camera.fx * tris[:, :, 0] / z + camera.cx
            v = camera.fy * tris[:, :, 1] / z + camera.cy
        # center j + 0.5 lies in [u.min(), u.max()] for j in
        # [ceil(u.min() - 0.5), floor(u.max() - 0.5)]; widen that by one each side
        j0 = np.where(behind, 0, np.clip(np.ceil(u.min(axis=1) - 0.5) - 1, 0, w))
        j1 = np.where(behind, w, np.clip(np.floor(u.max(axis=1) - 0.5) + 2, 0, w))
        i0 = np.where(behind, 0, np.clip(np.ceil(v.min(axis=1) - 0.5) - 1, 0, h))
        i1 = np.where(behind, h, np.clip(np.floor(v.max(axis=1) - 0.5) + 2, 0, h))
        box_w = np.maximum(j1 - j0, 0).astype(np.int64)
        count = np.maximum(i1 - i0, 0).astype(np.int64) * box_w
        self.ends = np.cumsum(count)
        # per (pose, face): the index of its first pair, its box's top row,
        # left column and width
        self.box = np.vstack([self.ends - count, i0, j0, box_w]).astype(np.int64)
        # The camera sits at the origin, so tv = -v0, the edges e1 and e2,
        # q = tv x e1 and e2 . q are fixed per face; one row per component,
        # so that gathering yields contiguous rows. The scalar form is the
        # test oracle ray_triangle_intersect.
        tv = -tris[:, 0]
        e1 = tris[:, 1] - tris[:, 0]
        e2 = tris[:, 2] - tris[:, 0]
        qx = tv[:, 1] * e1[:, 2] - tv[:, 2] * e1[:, 1]
        qy = tv[:, 2] * e1[:, 0] - tv[:, 0] * e1[:, 2]
        qz = tv[:, 0] * e1[:, 1] - tv[:, 1] * e1[:, 0]
        e2q = e2[:, 0] * qx + e2[:, 1] * qy + e2[:, 2] * qz
        self.terms = np.vstack([tv.T, e1.T, e2.T, qx, qy, qz, e2q])

    def hits(self, rays: np.ndarray):
        """Per step of at most _CAST_PAIR_BUDGET pairs, and per pose in it, the
        hit pairs as (pose, pixel, t, face, u, v), in pair order: by pose,
        then face, then pixel."""
        total = int(self.ends[-1])
        for k0 in range(0, total, _CAST_PAIR_BUDGET):
            k1 = min(k0 + _CAST_PAIR_BUDGET, total)
            # the entries whose boxes hold pairs k0 to k1 - 1, and how many each
            lo, hi = np.searchsorted(self.ends, [k0, k1 - 1], side="right")
            reps = np.minimum(self.ends[lo:hi + 1], k1) - np.maximum(self.box[0, lo:hi + 1], k0)
            entry = np.repeat(np.arange(lo, hi + 1), reps)
            pix = self._pixels(np.repeat(self.box[:, lo:hi + 1], reps, axis=1), k0, k1)
            hit, t, u, v = _intersect(rays.take(pix, axis=0).T,
                                      np.repeat(self.terms[:, lo:hi + 1], reps, axis=1))
            if len(hit) == 0:
                continue
            pose, face = np.divmod(entry[hit], self.face_count)
            pix = pix[hit]
            for part in np.split(np.arange(len(hit)), np.flatnonzero(np.diff(pose)) + 1):
                yield int(pose[part[0]]), pix[part], t[part], face[part], u[part], v[part]

    def _pixels(self, box: np.ndarray, k0: int, k1: int) -> np.ndarray:
        """Flat pixel index of pairs k0 to k1 - 1, given each one's box."""
        start, row0, col0, width = box
        row, col = np.divmod(np.arange(k0, k1) - start, width)
        return (row0 + row) * self.width + col0 + col


def _intersect(d: np.ndarray, terms: np.ndarray):
    """Moller-Trumbore for (3, n) ray directions against (13, n) ray-free
    triangle terms, pair by pair: the hit pairs' indices, t, u and v."""
    dx, dy, dz = d
    tx, ty, tz, b0, b1, b2, c0, c1, c2, qx, qy, qz, e2q = terms
    px = dy * c2 - dz * c1
    py = dz * c0 - dx * c2
    pz = dx * c1 - dy * c0
    det = b0 * px + b1 * py + b2 * pz
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / det
        u = (tx * px + ty * py + tz * pz) * inv
        v = (dx * qx + dy * qy + dz * qz) * inv
        t = e2q * inv
        hit = np.flatnonzero((det != 0.0) & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0)
                             & (t > 0.0) & (t < np.inf))
    return hit, t[hit], u[hit], v[hit]


class _WinnerMap:
    """The nearest hit so far of every pixel ray, for one pose at a time."""

    def __init__(self, camera: Camera):
        self.shape = (camera.height, camera.width)
        n = camera.height * camera.width
        self.t = np.full(n, np.inf)
        self.face = np.empty(n, dtype=np.int64)
        self.u = np.empty(n)
        self.v = np.empty(n)

    def merge(self, pix, t, face, u, v):
        """Take in hits in face order, all of faces above those merged
        before: each pixel keeps its smallest (t, face)."""
        before = self.t[pix]
        np.minimum.at(self.t, pix, t)
        won = np.flatnonzero((t == self.t[pix]) & (t < before))
        self.face[pix[won]] = np.iinfo(np.int64).max
        np.minimum.at(self.face, pix[won], face[won])
        won = won[face[won] == self.face[pix[won]]]
        self.u[pix[won]] = u[won]
        self.v[pix[won]] = v[won]

    def take(self, verts: np.ndarray, faces: np.ndarray) -> PixelMap:
        """The pose's map of hit points, each at its winning barycentric
        coordinates; the next pose starts empty."""
        hits = self.t < np.inf
        idx = np.flatnonzero(hits)
        uw, vw = self.u[idx], self.v[idx]
        tri = verts[faces[self.face[idx]]]
        a1 = 1.0 - uw - vw
        self.t[idx] = np.inf
        return PixelMap(hits.reshape(self.shape),
                        a1[:, None] * tri[:, 0] + uw[:, None] * tri[:, 1] + vw[:, None] * tri[:, 2])


def first_hit_map(mesh: TriangleMesh, camera: Camera) -> PixelMap:
    """Nearest positive-t intersection of every pixel ray with the mesh: the
    one-pose case of cast_hit_maps."""
    return next(cast_hit_maps([mesh.vertices], mesh.faces, camera))


# ---------------------------------------------------------------------------
# Normalization and sampling.


def normalize_points(points, s: float = 0.7):
    """Center points at their mean and divide by the RMS distance to it, times s.

    Returns (normalized points, mean, sigma): q = s * (p - mean) / sigma.
    """
    if s <= 0:
        raise InvalidInput("s must be positive")
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(p) < 2:
        raise DegenerateGeometry("need at least 2 points to normalize")
    mean = p.mean(axis=0)
    sigma = float(np.sqrt(np.mean(np.sum((p - mean) ** 2, axis=1))))
    if sigma == 0.0:
        raise DegenerateGeometry("all points identical")
    return float(s) * (p - mean) / sigma, mean, sigma


def triangle_areas(mesh: TriangleMesh) -> np.ndarray:
    tris = mesh.triangles()
    cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def _surface_areas(mesh: TriangleMesh) -> tuple[np.ndarray, float]:
    """(per-face areas, their sum), the sum positive and finite: a mesh whose
    finite coordinates overflow the area arithmetic is degenerate too."""
    with np.errstate(over="ignore", invalid="ignore"):
        areas = triangle_areas(mesh)
        total = areas.sum()
    if total == 0.0:
        raise DegenerateGeometry("mesh has zero surface area")
    if not np.isfinite(total):
        raise DegenerateGeometry("mesh surface area overflows: its coordinates are too large")
    return areas, total


def surface_centroid(mesh: TriangleMesh) -> np.ndarray:
    """Area-weighted centroid of the mesh surface (exact, no sampling)."""
    areas, total = _surface_areas(mesh)
    centers = mesh.triangles().mean(axis=1)
    return (areas[:, None] * centers).sum(axis=0) / total


def sample_mesh_surface(mesh: TriangleMesh, n: int, seed: int) -> np.ndarray:
    """(n, 3) points uniform over the surface: faces by area, uniform within
    each face."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    if len(mesh.faces) == 0:
        raise DegenerateGeometry("mesh has no faces")
    areas, total = _surface_areas(mesh)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(areas), size=n, p=areas / total)
    tris = mesh.triangles()[idx]
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    return (
        tris[:, 0]
        + u[:, None] * (tris[:, 1] - tris[:, 0])
        + v[:, None] * (tris[:, 2] - tris[:, 0])
    )


def resample_point_cloud(points: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Exactly n of the (N, 3) `points`: a uniform subsample without
    replacement, or all of them plus uniform-with-replacement extras when
    supersampling."""
    if len(points) == 0:
        raise DegenerateGeometry("cannot resample an empty cloud")
    if n < 1:
        raise InvalidInput("n must be >= 1")
    rng = np.random.default_rng(seed)
    if n <= len(points):
        idx = rng.choice(len(points), size=n, replace=False)
    else:
        extra = rng.choice(len(points), size=n - len(points), replace=True)
        idx = np.concatenate([np.arange(len(points)), extra])
    return points[idx]


def apply_pose(mesh: TriangleMesh, pose: SimilarityTransform) -> TriangleMesh:
    """The mesh with scale * R * v + T applied to every vertex."""
    return TriangleMesh(pose.apply(mesh.vertices), mesh.faces)
