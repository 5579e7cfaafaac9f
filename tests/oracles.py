"""Test-only oracles: slow, independent re-implementations that the package's
fast paths are checked against."""

import math

import numpy as np


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
