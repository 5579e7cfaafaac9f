"""Finite state spaces over SO(3) and translations, plus the rotation metric
used for sequence-decoding transitions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

# Quantization grid for deduplicating quaternions that differ only by
# floating-point noise or by sign.
_DEDUP_QUANTUM = 1e-9

# Finest rotation grid level. Level L's lattice has (2^L + 1)^4 points and
# its build holds a few float64 arrays of that length. Level 5 (131,200
# rotations) peaked at 123 MB under tracemalloc; scaled by the lattice
# size, level 6 (about 1M rotations) needs about 1.9 GB and level 7 about
# 28 GB. Finer levels are rejected before anything is allocated.
MAX_ROTATION_LEVEL = 6

# Most translation states a configured grid may have: 2^20, about the size
# of the level-6 rotation grid. Its build holds about six float64 arrays of
# that length, 50 MB; larger grids are rejected when the config is read.
MAX_TRANSLATION_STATES = 2**20


@dataclass(eq=False)
class RotationGrid:
    """Deterministic discretization of SO(3) as canonicalized unit quaternions."""

    quaternions: np.ndarray  # (S, 4), unit norm, first nonzero component positive

    def __len__(self) -> int:
        return len(self.quaternions)

    def pairwise_angles(self) -> np.ndarray:
        """(S, S) geodesic angles, radians; equals the rotation-matrix form within 1e-9."""
        dots = np.clip(np.abs(self.quaternions @ self.quaternions.T), 0.0, 1.0)
        return 2.0 * np.arccos(dots)

    def nearest(self, quaternion) -> int:
        """Index of the grid rotation closest in geodesic angle."""
        q = np.asarray(quaternion, dtype=float)
        return int(np.argmax(np.abs(self.quaternions @ q)))


@dataclass(eq=False)
class TranslationGrid:
    """Uniform lattice of offsets, symmetric about its center."""

    offsets: np.ndarray  # (S, 3)

    def __len__(self) -> int:
        return len(self.offsets)


def build_rotation_grid(level: int) -> RotationGrid:
    """Rotation grid from the boundary lattice of the 4-cube [-1, 1]^4.

    Each of the 8 cubic facets carries a regular (2^level + 1)^3 vertex
    lattice; vertices are projected onto the unit 3-sphere, sign-canonicalized
    (antipodal quaternions identified), deduplicated, and sorted.
    """
    if level < 0:
        raise InvalidInput("level must be >= 0")
    if level > MAX_ROTATION_LEVEL:
        raise InvalidInput(f"level must be <= {MAX_ROTATION_LEVEL}; got {level}")
    ticks = np.linspace(-1.0, 1.0, 2**level + 1)
    gw, gx, gy, gz = np.meshgrid(ticks, ticks, ticks, ticks, indexing="ij")
    pts = np.stack([gw.ravel(), gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    boundary = pts[np.abs(pts).max(axis=1) == 1.0]
    quats = boundary / np.linalg.norm(boundary, axis=1, keepdims=True)
    # canonical sign: flip so the first nonzero component is positive
    nz = np.abs(quats) > 0.5 * _DEDUP_QUANTUM
    first = np.argmax(nz, axis=1)
    signs = np.sign(quats[np.arange(len(quats)), first])
    quats = quats * signs[:, None]
    # dedupe on a quantized key, then sort lexicographically by (w, x, y, z)
    keys = np.round(quats / _DEDUP_QUANTUM).astype(np.int64)
    order = np.lexsort((keys[:, 3], keys[:, 2], keys[:, 1], keys[:, 0]))
    keys = keys[order]
    quats = quats[order]
    keep = np.ones(len(quats), dtype=bool)
    keep[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return RotationGrid(quats[keep])


def rotation_state_count(level: int) -> int:
    """len(build_rotation_grid(level)), without building it: the boundary of
    the (2^L + 1)^4 lattice has (2^L + 1)^4 - (2^L - 1)^4 points, and the
    antipodal ones pair up."""
    return ((2**level + 1) ** 4 - (2**level - 1) ** 4) // 2


def build_translation_grid(center, half_extent, counts) -> TranslationGrid:
    """Lattice of prod(counts) offsets; odd counts place a point at the center.

    Scalar half_extent / counts broadcast to all three axes.
    """
    c = np.atleast_1d(np.asarray(counts, dtype=int))
    if c.size == 1:
        c = c.repeat(3)
    h = np.atleast_1d(np.asarray(half_extent, dtype=float))
    if h.size == 1:
        h = h.repeat(3)
    if (c < 1).any():
        raise InvalidInput("counts must be >= 1 per axis")
    if (h < 0).any():
        raise InvalidInput("half_extent must be >= 0")
    axes = [np.array([m]) if n == 1 else np.linspace(m - e, m + e, n)
            for m, e, n in zip(np.asarray(center, dtype=float).reshape(3), h.reshape(3), c)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return TranslationGrid(np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1))
