"""Multi-frame alignment: per-frame emission tables and Viterbi decoding.

Rotation states are evaluated with the model translated to the observed
cloud's mean; decoded rotations are then held fixed while a per-frame voxel
grid of translation offsets is decoded. Both phases score a frame through
`score_frame`. Transition costs are geodesic rotation angles and
absolute-position Euclidean distances respectively.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import meshio
from .emission import EmissionEvaluator, estimate_scale
from .errors import DegenerateGeometry, InvalidInput
from .geometry import SimilarityTransform, quat_normalize, sample_mesh_surface
from .grids import RotationGrid, TranslationGrid
from .viterbi import StatePath, viterbi_decode

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
        # a finite quaternion whose squared norm overflows fails its
        # normalization with its own message, so numpy's warning would be a
        # second line
        with np.errstate(over="ignore"):
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


def _json_vectors(frames, key: str, size: int) -> np.ndarray:
    """Every frame's `key` list of `size` JSON numbers, as one float array."""
    rows = []
    for k, f in enumerate(frames):
        values = f[key]
        if not isinstance(values, list):
            raise ValueError(f"entry {k}: {key} is {json.dumps(values)}, not a list")
        if len(values) != size:
            raise ValueError(f"entry {k}: {key} holds {len(values)} values; it needs {size}")
        rows.append([meshio.json_float(v, f"entry {k}: {key}[{i}]") for i, v in enumerate(values)])
    return np.array(rows, dtype=float)


def track_from_json(text: str) -> PoseTrack:
    try:
        obj = json.loads(text)
        frames = obj["frames"]
        if not frames:
            raise ValueError("frames is empty; a track needs at least one frame")
        return PoseTrack(
            scale=meshio.json_float(obj["scale"], "scale"),
            rotations=_json_vectors(frames, "rotation_wxyz", 4),
            translations=_json_vectors(frames, "translation_m", 3),
            timestamps=np.array([meshio.json_int(f["t"], f"entry {k}: t")
                                 for k, f in enumerate(frames)], dtype=np.int64),
        )
    except (KeyError, TypeError, ValueError, OverflowError, json.JSONDecodeError) as e:
        raise InvalidInput(f"invalid pose track JSON: {e}") from e


@dataclass(eq=False)
class AlignResult:
    """Decoded track plus the state paths behind it and the (T, S) emission
    cost arrays they were decoded from."""

    track: PoseTrack
    rotation_path: StatePath
    translation_path: StatePath
    rotation_table: np.ndarray
    translation_table: np.ndarray


def score_frame(evaluator: EmissionEvaluator, phase: str, t: int, points, quats, positions,
                scale: float) -> np.ndarray:
    """Cost row of frame `t` over the poses quats x positions, quaternion-major:
    every unit quaternion at every position, each pose at `scale`."""
    poses = [SimilarityTransform(q, p, scale) for q in quats for p in positions]
    return evaluator.combine_terms(*evaluator.frame_terms(phase, t, points, poses))


def translation_costs(prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
    """(S, S) distances from every position of `prev` to every one of `cur`,
    summed one axis at a time in one (S, S) buffer: the bytes of summing an
    (S, S, 3) array of squared differences, without building it. Positions
    so far apart that a squared distance overflows raise DegenerateGeometry."""
    acc = np.zeros((len(prev), len(cur)))
    d = np.empty_like(acc)
    with np.errstate(over="ignore"):
        for k in range(3):
            np.subtract(cur[None, :, k], prev[:, None, k], out=d)
            d *= d
            acc += d
    if acc.max(initial=0.0) == math.inf:  # each term is finite or +inf, never NaN
        raise DegenerateGeometry("translation costs overflow: the frames' positions are too "
                                 "far apart")
    return np.sqrt(acc, out=acc)


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

    `frames` holds each frame's object cloud as an (N, 3) array, none
    empty. `evaluator` scores model-to-camera poses, each with the global
    scale: the median of per-frame estimates, whose model side is a dense
    one-off sample of the evaluator's mesh, so that its sampling error does
    not bias every frame alike. Rotation poses pin the translation to each
    frame's cloud mean; the translation grid is re-centered there per
    frame, and its transition costs use absolute world positions. A median
    scale of 0 is rejected.
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
        evaluator.mesh, max(_SCALE_SAMPLE_COUNT, evaluator.sample_count), evaluator.seed)
    estimates = [estimate_scale(f, scale_sample) for f in frames]
    scale = sorted(estimates)[(len(estimates) - 1) // 2]
    if scale == 0.0:
        flat_frames = ", ".join(str(timestamps[t]) for t, e in enumerate(estimates) if e == 0.0)
        raise DegenerateGeometry(f"the median scale estimate is 0: the object clouds of frames "
                                 f"{flat_frames} have zero extent")
    mus = np.stack([f.mean(axis=0) for f in frames])  # (T, 3)
    quats = rot_grid.quaternions
    # Normalizing once more up front keeps every pose's rotation matrix
    # bitwise equal to that of a rigid state rescaled afterwards: unit
    # quaternion normalization is not idempotent in the last bit (8 of 272
    # level-2 grid rotations change on a second pass).
    unit_quats = np.array([quat_normalize(q) for q in quats])

    rot_table = np.stack([
        score_frame(evaluator, "rotation", t, points, unit_quats, mus[t][None], scale)
        for t, points in enumerate(frames)])
    # viterbi_decode asks for transition(t) only for t >= 1, so one frame
    # needs no (S, S) angle matrix (2.16 GB at level 4, 138 GB at level 5).
    angles = rot_grid.pairwise_angles() if len(frames) > 1 else None
    rot_path = viterbi_decode(rot_table, lambda t: angles, lam_rot)

    positions = mus[:, None] + trans_grid.offsets  # (T, S, 3)
    trans_table = np.stack([
        score_frame(evaluator, "translation", t, points, unit_quats[rot_path.states[t]][None],
                    positions[t], scale)
        for t, points in enumerate(frames)])
    trans_path = viterbi_decode(
        trans_table, lambda t: translation_costs(positions[t - 1], positions[t]), lam_trans)

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
