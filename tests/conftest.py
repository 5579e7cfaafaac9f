import numpy as np
import pytest

from rigalign.geometry import Camera, TriangleMesh


@pytest.fixture
def camera64() -> Camera:
    return Camera(fx=100.0, fy=100.0, cx=32.0, cy=32.0, width=64, height=64)


@pytest.fixture
def unit_quad_mesh() -> TriangleMesh:
    """Axis-aligned unit quad at z = 1 m, centered on the optical axis."""
    verts = np.array(
        [[-0.5, -0.5, 1.0], [0.5, -0.5, 1.0], [0.5, 0.5, 1.0], [-0.5, 0.5, 1.0]]
    )
    return TriangleMesh(verts, np.array([[0, 1, 2], [0, 2, 3]]))


def random_blob_mesh(rng: np.random.Generator, n_faces: int, center=(0.0, 0.0, 1.2),
                     spread: float = 0.3, tri_size: float = 0.08) -> TriangleMesh:
    """Triangle soup scattered in front of the camera; used as a ray-cast target."""
    centers = rng.uniform(-spread, spread, size=(n_faces, 3)) + np.asarray(center)
    verts = (centers[:, None, :] + rng.normal(scale=tri_size, size=(n_faces, 3, 3))).reshape(-1, 3)
    return TriangleMesh(verts, np.arange(n_faces * 3).reshape(-1, 3))


def const(tr):
    """Transition provider that returns the same (S, S) matrix at every step."""
    return lambda t: tr


def subdivided(mesh: TriangleMesh, times: int) -> TriangleMesh:
    """`mesh` with every triangle split into four at its edge midpoints,
    `times` times over, as a triangle soup (4^times as many faces, each with
    its own three vertices)."""
    tris = mesh.triangles()
    for _ in range(times):
        a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
        ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
        tris = np.stack([np.stack(t, axis=1) for t in
                         ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))], axis=1)
        tris = tris.reshape(-1, 3, 3)
    return TriangleMesh(tris.reshape(-1, 3), np.arange(3 * len(tris)).reshape(-1, 3))
