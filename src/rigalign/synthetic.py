"""Synthetic scenes with known ground truth for end-to-end verification.

A deterministic feature field (`emission.FeatureField`) stands in for
externally extracted image features: feature vectors are a fixed smooth
function of model-frame surface position, so rendered candidate features
match the input-image features exactly when the candidate pose equals the
generating pose.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from . import meshio
from .align import PoseTrack, track_to_json
from .config import RunConfig, serialize_config
from .emission import FeatureField, field_features
from .errors import InvalidInput
from .geometry import (
    MAX_SAMPLE_POINTS,
    Camera,
    PixelMap,
    PointCloud,
    SimilarityTransform,
    TriangleMesh,
    apply_pose,
    first_hit_map,
    sample_mesh_surface,
    surface_centroid,
)
from .grids import RotationGrid, TranslationGrid, build_rotation_grid, build_translation_grid
from .seeding import check_seed, derive_seed

# seed stream tags
_TRAJ, _CLOUD, _NOISE, _HAND, _FIELD, _SCALE = range(6)

# Most frames and feature channels a scene may have. A scene holds every
# frame's feature map, at most 64 x 64 x C float64, beside its clouds: under
# tracemalloc a frame took 0.31 MB at 8 channels and 2.1 MB at 64, so 1,000
# frames take about 0.3 GB at 8 channels and 2.1 GB at 64. Larger values are
# rejected when the spec is built, before anything is allocated.
MAX_SCENE_FRAMES = 1000
MAX_FEATURE_CHANNELS = 64

# Half extent (m) of the translation grid written into the generated config.
TRANSLATION_HALF_EXTENT = 0.05

# Transition weights written into the generated config. Grid-resolution
# rotation hops cost ~0.6 rad, which at lambda = 1 can outweigh the
# normalized emission gap and make the generating sequence lose the
# argmin; 0.2 keeps clean emissions decisive while still smoothing.
LAMBDA_ROT = 0.2
LAMBDA_TRANS = 0.2


def render_feature_map(mesh: TriangleMesh, pose: SimilarityTransform, camera: Camera,
                       field: FeatureField) -> PixelMap:
    """Ray-cast the posed mesh and evaluate the field at the model-frame hit points."""
    return field_features(first_hit_map(apply_pose(mesh, pose), camera), pose, field)


def default_camera() -> Camera:
    return Camera(fx=150.0, fy=150.0, cx=32.0, cy=32.0, width=64, height=64)


def irregular_tetrahedron(size: float = 0.035) -> TriangleMesh:
    """Small asymmetric tetrahedron (no rotational symmetry), centered at its
    surface centroid so grid poses act about the model center."""
    verts = np.array(
        [
            [0.0, 0.0, 0.0],
            [1.0, 0.05, 0.1],
            [0.15, 0.8, 0.05],
            [0.3, 0.25, 0.65],
        ]
    ) * size
    faces = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    mesh = TriangleMesh(verts, faces)
    return TriangleMesh(mesh.vertices - surface_centroid(mesh), faces)


@dataclass(frozen=True)
class SceneSpec:
    """Knobs for deterministic scene generation."""

    frames: int = 10
    noise_std: float = 0.0  # meters, isotropic Gaussian on object points
    rotation_level: int = 2
    translation_counts: tuple[int, int, int] = (5, 5, 5)
    cloud_points: int = 1024
    hand_points: int = 200  # decoy points labeled as hand
    feature_channels: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.frames <= MAX_SCENE_FRAMES:
            raise InvalidInput(f"frames must be in [1, {MAX_SCENE_FRAMES}]; got {self.frames}")
        if self.cloud_points < 1:
            raise InvalidInput("cloud_points must be >= 1")
        if self.hand_points < 0:
            raise InvalidInput("hand_points must be >= 0")
        for name in ("cloud_points", "hand_points"):
            if getattr(self, name) > MAX_SAMPLE_POINTS:
                raise InvalidInput(f"{name} must be <= {MAX_SAMPLE_POINTS}")
        check_seed(self.seed, "seed")
        if not 0 <= self.noise_std < math.inf:
            raise InvalidInput("noise_std must be finite and >= 0")
        if not 3 <= self.feature_channels <= MAX_FEATURE_CHANNELS:
            raise InvalidInput(f"feature_channels must be in [3, {MAX_FEATURE_CHANNELS}]; "
                               f"got {self.feature_channels}")
        if any(c % 2 == 0 for c in self.translation_counts):
            raise InvalidInput("translation counts must be odd so the center is a grid point")


@dataclass(eq=False)
class SyntheticScene:
    """Generated scene: inputs plus the generating ground truth."""

    spec: SceneSpec
    mesh: TriangleMesh
    camera: Camera
    field_seed: int
    track: PoseTrack  # generating poses (scale + per-frame rigid)
    rotation_states: np.ndarray  # (T,) generating rotation grid indices
    translation_state: int  # generating translation offset index (grid center)
    clouds: list = dataclass_field(default_factory=list)
    feature_maps: list = dataclass_field(default_factory=list)
    rot_grid: RotationGrid | None = None
    trans_grid: TranslationGrid | None = None

    def field(self) -> FeatureField:
        return FeatureField.from_seed(self.field_seed, self.spec.feature_channels)

    def gt_mesh(self, k: int) -> TriangleMesh:
        return apply_pose(self.mesh, self.track.pose(k))


def _slerp(qa: np.ndarray, qb: np.ndarray, u: float) -> np.ndarray:
    d = float(qa @ qb)
    if d < 0.0:
        qb = -qb
        d = -d
    if d > 1.0 - 1e-12:
        q = (1.0 - u) * qa + u * qb
        return q / np.linalg.norm(q)
    theta = math.acos(min(d, 1.0))
    return (math.sin((1.0 - u) * theta) * qa + math.sin(u * theta) * qb) / math.sin(theta)


def generate_synthetic_scene(spec: SceneSpec) -> SyntheticScene:
    """Deterministic scene: a smooth on-grid rotation walk, a drifting
    translation anchor, sampled object clouds with declared noise, hand decoy
    points, and input feature maps rendered from the generating poses."""
    mesh = irregular_tetrahedron()
    camera = default_camera()
    rot_grid = build_rotation_grid(spec.rotation_level)
    trans_grid = build_translation_grid(
        np.zeros(3), TRANSLATION_HALF_EXTENT, spec.translation_counts
    )
    center_state = int(np.argmin(np.linalg.norm(trans_grid.offsets, axis=1)))

    rng = np.random.default_rng(derive_seed(spec.seed, _TRAJ))
    scale = float(np.random.default_rng(derive_seed(spec.seed, _SCALE)).uniform(0.9, 1.1))
    a_idx, b_idx = rng.choice(len(rot_grid), size=2, replace=False)
    qa, qb = rot_grid.quaternions[a_idx], rot_grid.quaternions[b_idx]
    rotation_states = np.empty(spec.frames, dtype=np.int64)
    for t in range(spec.frames):
        u = t / (spec.frames - 1) if spec.frames > 1 else 0.0
        rotation_states[t] = rot_grid.nearest(_slerp(qa, qb, u))

    base = np.array([0.01, -0.005, 0.40])
    drift = rng.normal(size=3)
    drift = 0.03 * drift / np.linalg.norm(drift)
    anchors = np.stack(
        [
            base + drift * (t / max(spec.frames - 1, 1)) + 0.003 * np.sin(0.7 * t) * np.array([0.0, 1.0, 0.0])
            for t in range(spec.frames)
        ]
    )

    track = PoseTrack(
        scale=scale,
        rotations=rot_grid.quaternions[rotation_states],
        translations=anchors,
        timestamps=np.arange(spec.frames),
    )
    field_seed = derive_seed(spec.seed, _FIELD)
    field = FeatureField.from_seed(field_seed, spec.feature_channels)

    clouds = []
    feature_maps = []
    for t in range(spec.frames):
        pose = track.pose(t)
        surface = sample_mesh_surface(mesh, spec.cloud_points, derive_seed(spec.seed, _CLOUD, t))
        obj_pts = pose.apply(surface)
        if spec.noise_std > 0:
            noise_rng = np.random.default_rng(derive_seed(spec.seed, _NOISE, t))
            obj_pts = obj_pts + noise_rng.normal(scale=spec.noise_std, size=obj_pts.shape)
        pts = [obj_pts]
        labels = [np.full(len(obj_pts), 2, dtype=np.int64)]
        if spec.hand_points > 0:
            hand_rng = np.random.default_rng(derive_seed(spec.seed, _HAND, t))
            hand_center = track.translations[t] + np.array([0.06, 0.01, 0.0])
            pts.append(hand_center + hand_rng.normal(scale=0.01, size=(spec.hand_points, 3)))
            labels.append(np.full(spec.hand_points, 1, dtype=np.int64))
        clouds.append(PointCloud(np.concatenate(pts), labels=np.concatenate(labels)))
        feature_maps.append(render_feature_map(mesh, pose, camera, field))

    return SyntheticScene(
        spec=spec,
        mesh=mesh,
        camera=camera,
        field_seed=field_seed,
        track=track,
        rotation_states=rotation_states,
        translation_state=center_state,
        clouds=clouds,
        feature_maps=feature_maps,
        rot_grid=rot_grid,
        trans_grid=trans_grid,
    )


def write_scene(scene: SyntheticScene, out_dir) -> Path:
    """Write the scene as pipeline inputs plus a ready-to-run config file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meshio.save_obj(scene.mesh, out / "model.obj")
    meshio.save_camera(scene.camera, out / "camera.json")
    for t in range(len(scene.track)):
        meshio.save_ply_cloud(scene.clouds[t], out / meshio.frame_file("cloud", t, "ply"))
        fm = scene.feature_maps[t]
        meshio.save_fmap(fm.dense(), fm.mask, out / meshio.frame_file("feat", t, "fmap"))
        meshio.save_ply_mesh(scene.gt_mesh(t), out / meshio.frame_file("gt", t, "ply"))
    meshio.write_atomic(out / "gt_track.json", track_to_json(scene.track).encode())
    states_csv = io.StringIO()
    np.savetxt(
        states_csv,
        np.column_stack([scene.rotation_states, np.full(len(scene.track), scene.translation_state)]),
        fmt="%d",
        header="rotation_state,translation_state",
        delimiter=",",
        comments="# ",
    )
    meshio.write_atomic(out / "gt_states.csv", states_csv.getvalue().encode())
    cfg = RunConfig(
        model_mesh="model.obj",
        cloud_dir=".",
        camera="camera.json",
        features_dir=".",
        gt_dir=".",
        feature_source="synthetic",
        rotation_level=scene.spec.rotation_level,
        translation_half_extent=(TRANSLATION_HALF_EXTENT,) * 3,
        translation_counts=scene.spec.translation_counts,
        lambda_rot=LAMBDA_ROT,
        lambda_trans=LAMBDA_TRANS,
        emission_samples=scene.spec.cloud_points,
        seed=scene.spec.seed,
        synthetic_feature_seed=scene.field_seed,
    )
    meshio.write_atomic(out / "config.cfg", serialize_config(cfg).encode())
    return out / "config.cfg"
