"""Multi-frame alignment: per-frame emission tables and Viterbi decoding.

Rotation states are evaluated with the model translated to the observed
cloud's mean; decoded rotations are then held fixed while a per-frame voxel
grid of translation offsets is decoded. Transition costs are geodesic
rotation angles and absolute-position Euclidean distances respectively.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import meshio
from .emission import EmissionEvaluator, estimate_scale
from .errors import DegenerateCloud, InvalidInput, ParseError
from .geometry import SimilarityTransform, quat_normalize, sample_mesh_surface
from .grids import RotationGrid, TranslationGrid
from .viterbi import EmissionTable, StatePath, viterbi_decode

_SCALE_SAMPLE_COUNT = 16384


@dataclass(eq=False)
class PoseTrack:
    """One global scale plus a rigid pose per frame."""

    scale: float
    rotations: np.ndarray  # (T, 4) unit quaternions (w, x, y, z)
    translations: np.ndarray  # (T, 3) meters
    timestamps: np.ndarray  # (T,) integer frame indices

    def __post_init__(self):
        self.rotations = np.asarray(self.rotations, dtype=float).reshape(-1, 4)
        self.translations = np.asarray(self.translations, dtype=float).reshape(-1, 3)
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64).reshape(-1)
        if not (len(self.rotations) == len(self.translations) == len(self.timestamps)):
            raise InvalidInput("per-frame arrays must have equal length")
        if not (np.isfinite(self.scale) and self.scale > 0 and np.isfinite(self.translations).all()):
            raise InvalidInput("scale must be finite and positive, and translations finite")
        self.rotations = np.stack([quat_normalize(q) for q in self.rotations])

    def __len__(self) -> int:
        return len(self.timestamps)

    def pose(self, k: int) -> SimilarityTransform:
        """Full model-to-camera transform for frame k, scale included."""
        return SimilarityTransform(self.rotations[k], self.translations[k], self.scale)


def track_to_json(track: PoseTrack) -> str:
    obj = {
        "scale": float(track.scale),
        "frames": [
            {
                "t": int(track.timestamps[k]),
                "rotation_wxyz": [float(v) for v in track.rotations[k]],
                "translation_m": [float(v) for v in track.translations[k]],
            }
            for k in range(len(track))
        ],
    }
    return meshio.json_text(obj)


def track_from_json(text: str) -> PoseTrack:
    try:
        obj = json.loads(text)
        frames = obj["frames"]
        return PoseTrack(
            scale=float(obj["scale"]),
            rotations=np.array([f["rotation_wxyz"] for f in frames], dtype=float),
            translations=np.array([f["translation_m"] for f in frames], dtype=float),
            timestamps=np.array([f["t"] for f in frames], dtype=np.int64),
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
        raise ParseError(f"invalid pose track JSON: {e}") from e


@dataclass(eq=False)
class AlignResult:
    """Decoded track plus the state paths and emission tables behind it."""

    track: PoseTrack
    rotation_path: StatePath
    translation_path: StatePath
    rotation_table: EmissionTable
    translation_table: EmissionTable


def _build_rows(evaluator, phase, frames, poses_for_frame):
    rows = []
    for t, points in enumerate(frames):
        cd, dino = evaluator.frame_terms(phase, t, points, poses_for_frame(t))
        rows.append(evaluator.combine_terms(cd, dino))
    return EmissionTable(np.stack(rows))


def align_sequence(
    evaluator: EmissionEvaluator,
    frames,
    rot_grid: RotationGrid,
    trans_grid: TranslationGrid,
    *,
    lam_rot: float = 1.0,
    lam_trans: float = 1.0,
    timestamps=None,
) -> AlignResult:
    """Scale estimate, rotation Viterbi, then translation Viterbi.

    `frames` holds each frame's object cloud, none empty. `evaluator` scores
    model-to-camera poses, each with the global scale: the median of
    per-frame estimates, whose model side is a dense one-off sample of the
    evaluator's mesh, so that its sampling error does not bias every frame
    alike. Rotation poses pin the translation to each frame's cloud mean;
    the translation grid is re-centered there per frame, and its transition
    costs use absolute world positions. A median scale of 0 is rejected.
    """
    frames = list(frames)
    if not frames:
        raise InvalidInput("need at least one frame")
    for t, points in enumerate(frames):
        if len(points) == 0:
            raise InvalidInput(f"frame {t} needs a non-empty object cloud")
    if timestamps is None:
        timestamps = np.arange(len(frames))
    scale_sample = sample_mesh_surface(
        evaluator.mesh, max(_SCALE_SAMPLE_COUNT, evaluator.sample_count), evaluator.seed).points
    estimates = [estimate_scale(f, scale_sample) for f in frames]
    scale = sorted(estimates)[(len(estimates) - 1) // 2]
    if scale == 0.0:
        flat_frames = ", ".join(str(timestamps[t]) for t, e in enumerate(estimates) if e == 0.0)
        raise DegenerateCloud(f"the median scale estimate is 0: the object clouds of frames "
                              f"{flat_frames} have zero extent")
    mus = [f.points.mean(axis=0) for f in frames]
    quats = rot_grid.quaternions
    # Normalizing once more up front keeps every pose's rotation matrix
    # bitwise equal to that of a rigid state rescaled afterwards: unit
    # quaternion normalization is not idempotent in the last bit (8 of 272
    # level-2 grid rotations change on a second pass).
    unit_quats = np.array([quat_normalize(q) for q in quats])

    def rotation_poses(t):
        return [SimilarityTransform(q, mus[t], scale) for q in unit_quats]

    rot_table = _build_rows(evaluator, "rotation", frames, rotation_poses)
    # viterbi_decode asks for transition(t) only for t >= 1, so one frame
    # needs no (S, S) angle matrix (2.16 GB at level 4, 138 GB at level 5).
    angles = rot_grid.pairwise_angles() if len(frames) > 1 else None
    rot_path = viterbi_decode(rot_table, lambda t: angles, lam_rot)

    positions = np.stack([mu + trans_grid.offsets for mu in mus])  # (T, S, 3)

    def translation_poses(t):
        q = unit_quats[rot_path.states[t]]
        return [SimilarityTransform(q, p, scale) for p in positions[t]]

    def translation_costs(t):
        # (S, S) distances from every position at frame t-1 to every one at t
        return np.sqrt(((positions[t][None] - positions[t - 1][:, None]) ** 2).sum(axis=-1))

    trans_table = _build_rows(evaluator, "translation", frames, translation_poses)
    trans_path = viterbi_decode(trans_table, translation_costs, lam_trans)

    track = PoseTrack(
        scale=scale,
        rotations=quats[rot_path.states],
        translations=positions[np.arange(len(frames)), trans_path.states],
        timestamps=timestamps,
    )
    return AlignResult(
        track=track,
        rotation_path=rot_path,
        translation_path=trans_path,
        rotation_table=rot_table,
        translation_table=trans_table,
    )
