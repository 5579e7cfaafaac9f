"""Per-state observation costs.

Scale estimation from second moments, silhouette rasterization, PCA feature
similarity, the synthetic feature field, the feature sources, and the
combined chamfer + feature emission cost evaluated over candidate pose
states.

Importing this module loads no scipy, and no code here imports scipy. Only
EmissionEvaluator builds k-d trees, with rigalign.metrics.kd_tree, and
queries them, through one rigalign.metrics.InFlight per frame; it imports
rigalign.metrics (which loads scipy) where it uses it, so a process that
builds scenes but scores nothing skips that import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import DegenerateGeometry, InvalidInput
from .geometry import (
    Camera,
    PixelMap,
    SimilarityTransform,
    TriangleMesh,
    apply_pose,
    cast_hit_maps,
    first_hit_map,
    resample_point_cloud,
    sample_mesh_surface,
)
from . import meshio

# Query points per batched Chamfer block: bounds the posed-point buffers at
# a few MB whatever the number of states scored. Up to two blocks are alive at
# once (see EmissionEvaluator.frame_terms), each with its posed points and its
# query's results: about 1.3 MB each at this size.
_CHAMFER_BLOCK_POINTS = 16384

# Floor on dino_similarity's norm product: a map at the basis mean projects to 0.
_SIMILARITY_EPS = 1e-8


@dataclass(eq=False)
class PCABasis:
    """Mean feature vector plus the top-3 principal directions (orthonormal rows)."""

    mean: np.ndarray
    components: np.ndarray

    def project(self, features: np.ndarray) -> np.ndarray:
        """(N, C) feature vectors -> (N, 3) principal coordinates."""
        return (np.asarray(features, dtype=float) - self.mean) @ self.components.T


def estimate_scale(x: np.ndarray, y: np.ndarray) -> float:
    """Size ratio sqrt(top eigenvalue of X) / sqrt(top eigenvalue of Y) of
    two (N, 3) point sets.

    Eigenvalues are of the per-point second-moment matrix of the mean-centered
    cloud, so the estimate is translation-invariant and tolerates unequal
    point counts. A cloud whose moments overflow, finite coordinates
    notwithstanding, raises DegenerateGeometry.
    """

    def top_moment(p: np.ndarray, what: str) -> float:
        if len(p) < 2:
            raise DegenerateGeometry("scale estimation needs at least 2 points")
        if (p == p[0]).all():  # exactly 0, where the rounded mean would leave ~1e-34
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            c = p - p.mean(axis=0)
            moments = (c.T @ c) / len(p)
        if not np.isfinite(moments).all():
            raise DegenerateGeometry(f"the {what}'s second moments overflow in scale estimation: "
                                     f"its coordinates are too large")
        return float(np.linalg.eigvalsh(moments)[-1])

    lam_x = top_moment(x, "observed cloud")
    lam_y = top_moment(y, "model cloud")
    if lam_y <= 0.0:
        raise DegenerateGeometry("model cloud has zero extent")
    return math.sqrt(lam_x) / math.sqrt(lam_y)


# ---------------------------------------------------------------------------
# Silhouette rasterization.


def rasterize_silhouette(mesh: TriangleMesh, pose: SimilarityTransform, camera: Camera) -> np.ndarray:
    """(H, W) bool coverage of the posed mesh under the pinhole camera.

    A pixel is set when its center ray hits any triangle at positive depth:
    the hit mask of the ray cast.
    """
    return first_hit_map(apply_pose(mesh, pose), camera).mask


# ---------------------------------------------------------------------------
# PCA feature similarity.


def pca_basis(maps) -> PCABasis:
    """Top-3 principal directions of the feature vectors pooled over PixelMaps.

    Sign convention: each direction's largest-magnitude component is positive.
    """
    maps = list(maps)
    if not maps:
        raise InvalidInput("no feature maps given")
    pooled = np.concatenate([m.values for m in maps], axis=0)
    if pooled.shape[0] < 3:
        raise InvalidInput("need at least 3 masked-in pixels to fit a basis")
    if pooled.shape[1] < 3:
        raise InvalidInput("need at least 3 feature channels")
    mean = pooled.mean(axis=0)
    centered = pooled - mean
    cov = (centered.T @ centered) / len(centered)
    _, vecs = np.linalg.eigh(cov)
    comps = vecs[:, ::-1][:, :3].T.copy()
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PCABasis(mean=mean, components=comps)


def dino_similarity(f_j: PixelMap, f_0: PixelMap, basis: PCABasis) -> float:
    """Feature disagreement in [0, 1]: 0 identical, 1 anti-aligned; NaN when
    the two masks do not intersect.

    Projects both feature maps onto the basis over the intersection of their
    masks, then maps cosine similarity c to 1 - (c + 1) / 2. Each map's rows
    there are those its pixels keep through the other map's mask.
    """
    if f_j.mask.shape != f_0.mask.shape:
        raise InvalidInput("feature maps must share spatial dimensions")
    rows_j = f_j.values[f_0.mask[f_j.mask]]
    if len(rows_j) == 0:
        return math.nan
    a = basis.project(rows_j).ravel()
    b = basis.project(f_0.values[f_j.mask[f_0.mask]]).ravel()
    denom = max(float(np.linalg.norm(a)) * float(np.linalg.norm(b)), _SIMILARITY_EPS)
    cos = float(a @ b) / denom
    cos = max(-1.0, min(1.0, cos))
    return 1.0 - 0.5 * (cos + 1.0)


# ---------------------------------------------------------------------------
# The synthetic feature field: a known stand-in for extracted image features.


@dataclass(frozen=True)
class FeatureField:
    """Deterministic smooth field R^3 -> R^C: sin(W x + b)."""

    weights: np.ndarray  # (3, C)
    phases: np.ndarray  # (C,)

    @staticmethod
    def from_seed(seed: int, channels: int = 8) -> "FeatureField":
        rng = np.random.default_rng(seed)
        # ~120 rad/m phase gradient gives O(1) feature variation across a
        # few-centimeter object
        return FeatureField(
            weights=rng.normal(scale=120.0, size=(3, channels)),
            phases=rng.uniform(0.0, 2.0 * math.pi, size=channels),
        )

    @property
    def channels(self) -> int:
        return self.weights.shape[1]

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.sin(np.asarray(points, dtype=float) @ self.weights + self.phases)


def field_features(hit_map: PixelMap, pose: SimilarityTransform,
                   field: FeatureField) -> PixelMap:
    """The field at the model-frame points of a ray cast of the posed mesh,
    masked to its hits."""
    return PixelMap(hit_map.mask, field(pose.inverse().apply(hit_map.values)))


# ---------------------------------------------------------------------------
# Candidate feature sources: each works out a frame's row of feature errors.


class TableFeatureSource:
    """Precomputed per-frame, per-state feature errors (NaN marks empty overlap)."""

    def __init__(self, rotation_table: np.ndarray, translation_table: np.ndarray):
        self._tables = {"rotation": rotation_table, "translation": translation_table}

    def frame_errors(self, phase: str, frame_index: int, mesh: TriangleMesh, poses) -> np.ndarray:
        """A copy of the frame's row of the phase's table."""
        table = self._tables[phase]
        if not 0 <= frame_index < len(table):
            raise InvalidInput(f"frame {frame_index} has no row in the {phase} feature table")
        return np.asarray(table[frame_index], dtype=float).copy()


@dataclass(eq=False)
class CastFeatureSource:
    """Per-state feature maps, each built from a ray cast of the posed mesh
    under `camera` and masked to it, compared against the frame's input map
    (`inputs` holds one per sequence position) in the PCA `basis` fitted on
    all the input maps. One cast_hit_maps pass per frame yields every
    state's hit map in turn. A state whose map does not overlap the input
    map's mask gets dino_similarity's NaN, as a table row marks it."""

    camera: Camera
    inputs: list
    basis: PCABasis = field(init=False)

    def __post_init__(self):
        self.basis = pca_basis(self.inputs)

    def candidate_features(self, phase: str, frame_index: int, state_index: int,
                           pose: SimilarityTransform, hit_map: PixelMap) -> PixelMap:
        """Feature map of one posed state; its mask lies inside hit_map.mask."""
        raise NotImplementedError

    def frame_errors(self, phase: str, frame_index: int, mesh: TriangleMesh, poses) -> np.ndarray:
        """Feature error of each model-to-camera pose; NaN where the cast
        silhouette misses the input map's mask."""
        if not 0 <= frame_index < len(self.inputs):
            raise InvalidInput(f"frame {frame_index} has no input feature map")
        errors = np.empty(len(poses))
        hit_maps = cast_hit_maps((pose.apply(mesh.vertices) for pose in poses), mesh.faces,
                                 self.camera)
        for j, (pose, hit_map) in enumerate(zip(poses, hit_maps)):
            fj = self.candidate_features(phase, frame_index, j, pose, hit_map)
            errors[j] = dino_similarity(fj, self.inputs[frame_index], self.basis)
        return errors


@dataclass(eq=False)
class DirectoryFeatureSource(CastFeatureSource):
    """Feature maps from files feat_<phase>_<t>_<state>.fmap under a root dir,
    t the frame's position in the sequence (not its frame index)."""

    root: Path

    def path_for(self, phase: str, frame_index: int, state_index: int) -> Path:
        return self.root / f"feat_{phase}_{frame_index:06d}_{state_index:06d}.fmap"

    def candidate_features(self, phase, frame_index, state_index, pose, hit_map) -> PixelMap:
        feats, mask = meshio.load_fmap(self.path_for(phase, frame_index, state_index))
        mask &= hit_map.mask
        return PixelMap(mask, feats[mask])


@dataclass(eq=False)
class SyntheticFeatureSource(CastFeatureSource):
    """Evaluates a known pose-dependent feature field at the state's ray hits;
    used for end-to-end checks."""

    field: FeatureField

    def candidate_features(self, phase, frame_index, state_index, pose, hit_map) -> PixelMap:
        return field_features(hit_map, pose, self.field)


# ---------------------------------------------------------------------------
# Combined emission cost.


class EmissionEvaluator:
    """Chamfer + feature cost of candidate model-to-camera poses (the model
    scale included) for one model and sequence.

    The model surface is sampled once (seeded); candidate poses move that
    sample. Chamfer runs against an equal-size resample of the frame's
    object cloud, in cm^2, batched over all poses of a frame. The feature
    term comes from `feature_source` (a table, or a cast source that holds
    the input maps); without one, or with `w_dino = 0`, there is none.

    Its k-d trees come from rigalign.metrics.kd_tree, in the shape of every
    other tree; it imports no scipy itself. The first evaluator built in a
    process imports rigalign.metrics, which loads scipy.spatial (about
    0.37 s), unless it is already loaded.
    """

    def __init__(self, mesh: TriangleMesh, *, w_cd: float = 1.0, w_dino: float = 1.0,
                 feature_source=None, sample_count: int = 1024, seed: int = 0,
                 penalty_factor: float = 10.0):
        self.mesh = mesh
        self.w_cd = float(w_cd)
        self.w_dino = float(w_dino)
        self.feature_source = feature_source if self.w_dino != 0.0 else None
        self.sample_count = int(sample_count)
        self.seed = int(seed)
        self.penalty_factor = float(penalty_factor)
        self.sample = sample_mesh_surface(mesh, self.sample_count, seed)
        # Deferred: rigalign.metrics loads scipy.spatial, about 0.37 s (-X
        # importtime, numpy loaded), which a process that scores no pose need
        # not pay.
        from .metrics import kd_tree
        self._sample_tree = kd_tree(self.sample)

    def chamfer_term(self, x_resampled: np.ndarray, poses):
        """The Chamfer distances (cm^2) between the observed resample and the
        model sample under every model-to-camera pose, as `(row, blocks)`:
        `row` is an empty array with one entry per pose, and `blocks` a lazy
        iterator of `(reduce, pairs)`, one per block of poses. Each step
        builds one block's (cKDTree, points) query pairs; handing the
        nearest-neighbour results of those pairs to `reduce` writes the
        block's slice of `row`. No block is built or queried here.

        Sample->observed distances query the forward-posed samples against
        one tree on the observed points. Observed->sample distances query the
        inverse-posed observed points against the model sample's tree: a
        similarity pose of scale s scales every distance by s, so those
        distances are s times the model-frame ones. Poses go in blocks of
        about _CHAMFER_BLOCK_POINTS query points; each block's two queries
        make one query, so they share the query pool.
        """
        from .metrics import chamfer_distance, kd_tree  # loaded by __init__

        x = np.asarray(x_resampled, dtype=float)
        n, m = len(x), len(self.sample)
        obs_tree = kd_tree(x)
        row = np.empty(len(poses))
        per_block = max(1, _CHAMFER_BLOCK_POINTS // max(n, m))

        def block_at(start):
            block = poses[start:start + per_block]
            forward = np.concatenate([pose.apply(self.sample) for pose in block])
            inverse = np.concatenate([((x - pose.translation) @ pose.matrix()) / pose.scale
                                      for pose in block])
            scales = np.array([pose.scale for pose in block])[:, None]

            def reduce(results):
                (d_ba, _), (d_ab, _) = results
                row[start:start + len(block)] = chamfer_distance(
                    d_ab.reshape(len(block), n) * scales, d_ba.reshape(len(block), m))

            return reduce, [(obs_tree, forward), (self._sample_tree, inverse)]

        return row, map(block_at, range(0, len(poses), per_block))

    def frame_terms(self, phase: str, frame_index: int, points: np.ndarray,
                    poses) -> tuple[np.ndarray, np.ndarray | None]:
        """Raw chamfer and feature term arrays over the model-to-camera
        `poses` of the frame at sequence position `frame_index`, whose
        object cloud is the (N, 3) array `points`.

        The feature array uses NaN for empty-overlap poses and is None when
        there is no feature source. The feature term runs on this thread
        while the pool queries the first Chamfer block. Each later block is
        put in flight before the one ahead of it is waited for, so at most
        two blocks are alive. If anything raises, leaving the InFlight block
        drops the queued Chamfer chunks and waits for the running ones.
        """
        from .metrics import InFlight  # loaded by __init__

        x_res = resample_point_cloud(points, self.sample_count, self.seed)
        row, blocks = self.chamfer_term(x_res, poses)
        with InFlight() as flight:
            for reduce, pairs in islice(blocks, 1):
                flight.put(reduce, pairs)
            dino = (None if self.feature_source is None else
                    self.feature_source.frame_errors(phase, frame_index, self.mesh, poses))
            while flight:
                for reduce, pairs in islice(blocks, 1):
                    flight.put(reduce, pairs)
                reduce, results = flight.pop()
                reduce(results)
        return row, dino

    def combine_terms(self, cd: np.ndarray, dino: np.ndarray | None) -> np.ndarray:
        """Per-frame min-max normalization of each term, weighted sum, and
        penalty substitution for empty-overlap states."""
        costs = self.w_cd * _min_max(cd)
        if dino is None:
            return costs
        valid = np.isfinite(dino)
        if not valid.any():
            return costs
        dn = np.zeros_like(dino)
        dn[valid] = _min_max(dino[valid])
        costs = costs + self.w_dino * dn
        if (~valid).any():
            good = costs[valid]
            penalty = max(self.penalty_factor * float(np.median(good)), float(good.max()))
            costs[~valid] = penalty
        return costs


def _min_max(values: np.ndarray) -> np.ndarray:
    lo = float(values.min())
    hi = float(values.max())
    if hi <= lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)
