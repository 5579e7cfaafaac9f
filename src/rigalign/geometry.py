"""Mesh and point-cloud primitives.

Quaternion rotations, pinhole ray casting against triangle meshes,
hand-anchored normalization, surface sampling, and similarity transforms.
All coordinates are meters; all types are treated as immutable after
construction and are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateCloud, DegenerateGeometry, EmptyCloud, EmptyMesh, InvalidInput

LABEL_BACKGROUND = 0
LABEL_HAND = 1
LABEL_OBJECT = 2


# ---------------------------------------------------------------------------
# Quaternions, stored (w, x, y, z) with unit norm.


def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = math.sqrt(float(q @ q))
    if n == 0.0 or not math.isfinite(n):
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
    """Points (N, 3) with optional per-point color in [0, 1]^3 and label in {0, 1, 2}."""

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
class HandPointMap:
    """Per-pixel first mesh intersections: (H, W, 3) points and an (H, W) hit mask."""

    points: np.ndarray
    hits: np.ndarray

    @property
    def hit_fraction(self) -> float:
        return float(self.hits.mean()) if self.hits.size else 0.0


@dataclass(frozen=True)
class NormalizationParams:
    """Anchored frame q = scale * (p - mean) / sigma, invertible exactly."""

    mean: np.ndarray
    sigma: float
    scale: float

    def apply(self, points) -> np.ndarray:
        return self.scale * (np.asarray(points, dtype=float) - self.mean) / self.sigma

    def invert(self, points) -> np.ndarray:
        return np.asarray(points, dtype=float) * (self.sigma / self.scale) + self.mean


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

    @staticmethod
    def identity() -> "SimilarityTransform":
        return SimilarityTransform(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3), 1.0)

    def matrix(self) -> np.ndarray:
        return quat_to_matrix(self.rotation)

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


def _visible_window(tris: np.ndarray, camera: Camera) -> tuple[int, int, int, int]:
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


def first_hit_map(mesh: TriangleMesh, camera: Camera, chunk: int = 128) -> HandPointMap:
    """Nearest positive-t intersection of every pixel ray with the mesh.

    Front- and back-facing triangles both count; ties in t go to the lowest
    face index. Only pixels inside the mesh's projected window cast rays
    (the rest miss); vectorized over those pixels, chunked over faces to
    bound memory.
    """
    if len(mesh.faces) == 0:
        raise EmptyMesh("mesh has no faces")
    h, w = camera.height, camera.width
    hits = np.zeros((h, w), dtype=bool)
    points = np.zeros((h, w, 3))
    tris = mesh.triangles()
    i0, i1, j0, j1 = _visible_window(tris, camera)
    if i0 >= i1 or j0 >= j1:
        return HandPointMap(points, hits)
    dirs = camera.pixel_rays[i0:i1, j0:j1].reshape(-1, 3)
    npix = dirs.shape[0]
    best_t = np.full(npix, np.inf)
    best_point = np.zeros((npix, 3))
    dx, dy, dz = dirs[:, 0:1], dirs[:, 1:2], dirs[:, 2:3]
    for start in range(0, len(tris), chunk):
        v0 = tris[start : start + chunk, 0]
        e1 = tris[start : start + chunk, 1] - v0
        e2 = tris[start : start + chunk, 2] - v0
        # Moller-Trumbore broadcast over (npix, F); the scalar form is the
        # test oracle ray_triangle_intersect
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
    return HandPointMap(points, hits)


# ---------------------------------------------------------------------------
# Normalization and sampling.


def normalize_points(points, s: float = 0.7):
    """Center points at their mean and divide by the RMS distance to it, times s.

    Returns (normalized points, params); params.invert round-trips exactly.
    """
    if s <= 0:
        raise InvalidInput("s must be positive")
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(p) < 2:
        raise DegenerateCloud("need at least 2 points to normalize")
    mean = p.mean(axis=0)
    sigma = float(np.sqrt(np.mean(np.sum((p - mean) ** 2, axis=1))))
    if sigma == 0.0:
        raise DegenerateCloud("all points identical")
    params = NormalizationParams(mean, sigma, float(s))
    return params.apply(p), params


def triangle_areas(mesh: TriangleMesh) -> np.ndarray:
    tris = mesh.triangles()
    cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    return 0.5 * np.linalg.norm(cross, axis=1)


def surface_centroid(mesh: TriangleMesh) -> np.ndarray:
    """Area-weighted centroid of the mesh surface (exact, no sampling)."""
    areas = triangle_areas(mesh)
    total = areas.sum()
    if total == 0.0:
        raise DegenerateGeometry("mesh has zero surface area")
    centers = mesh.triangles().mean(axis=1)
    return (areas[:, None] * centers).sum(axis=0) / total


def sample_mesh_surface(mesh: TriangleMesh, n: int, seed: int) -> PointCloud:
    """n points uniform over the surface: faces by area, uniform within each face."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    if len(mesh.faces) == 0:
        raise EmptyMesh("mesh has no faces")
    areas = triangle_areas(mesh)
    total = areas.sum()
    if total == 0.0:
        raise DegenerateGeometry("mesh has zero surface area")
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(areas), size=n, p=areas / total)
    tris = mesh.triangles()[idx]
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    pts = (
        tris[:, 0]
        + u[:, None] * (tris[:, 1] - tris[:, 0])
        + v[:, None] * (tris[:, 2] - tris[:, 0])
    )
    return PointCloud(pts)


def resample_point_cloud(pc: PointCloud, n: int, seed: int) -> PointCloud:
    """Exactly n points: uniform subsample without replacement, or all originals
    plus uniform-with-replacement extras when supersampling."""
    if len(pc) == 0:
        raise EmptyCloud("cannot resample an empty cloud")
    if n < 1:
        raise InvalidInput("n must be >= 1")
    rng = np.random.default_rng(seed)
    if n <= len(pc):
        idx = rng.choice(len(pc), size=n, replace=False)
    else:
        extra = rng.choice(len(pc), size=n - len(pc), replace=True)
        idx = np.concatenate([np.arange(len(pc)), extra])
    return pc.select(idx)


def apply_pose(geometry, pose: SimilarityTransform):
    """scale * R * p + T over every point or vertex; attributes carried through."""
    if isinstance(geometry, TriangleMesh):
        return TriangleMesh(pose.apply(geometry.vertices), geometry.faces)
    if isinstance(geometry, PointCloud):
        return PointCloud(pose.apply(geometry.points), geometry.colors, geometry.labels)
    raise TypeError(f"unsupported geometry type: {type(geometry).__name__}")
