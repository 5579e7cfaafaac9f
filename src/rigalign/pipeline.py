"""End-to-end orchestration: fail-fast ingestion, alignment runs, evaluation,
and the hand-preprocessing path. All outputs are deterministic given the
config and seeds."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import meshio
from .align import align_sequence, track_from_json, track_to_json
from .config import RunConfig
from .emission import (DirectoryFeatureSource, EmissionEvaluator, FeatureField,
                       SyntheticFeatureSource, TableFeatureSource)
from .errors import DegenerateGeometry, InvalidInput
from .evaluate import evaluate_track, gt_points_for
from .geometry import (LABEL_OBJECT, PixelMap, TriangleMesh, first_hit_map, normalize_points,
                       sample_mesh_surface)
from .grids import build_rotation_grid, build_translation_grid, rotation_state_count


# Per-frame input kinds, each file named meshio.frame_file(kind, t, ext):
# kind -> (config key of its directory, accepted extensions, name in errors).
FRAME_INPUTS = {
    "cloud": ("cloud_dir", ("ply",), "cloud"),
    "feat": ("features_dir", ("fmap",), "feature map"),
    "mask": ("mask_dir", ("pgm",), "mask"),
    "gt": ("gt_dir", ("ply",), "ground truth"),
    "hand": ("hand_dir", ("obj", "ply"), "hand mesh"),
}


@dataclass(eq=False)
class RunInputs:
    """Everything an alignment run needs, fully parsed up front."""

    mesh: TriangleMesh
    frames: list  # one (N, 3) array of object points per frame
    frame_indices: list
    feature_source: object | None
    ground_truths: list | None


def frame_files(cfg: RunConfig, kind: str, frames=None) -> dict[int, Path]:
    """{frame index: path} of the `kind` files in the kind's directory; one
    index with two files is rejected. Without `frames` the files define the
    frame set, so there must be at least one. With `frames` (the cloud
    files' indices), each of them needs a file and no file may lie outside."""
    dir_key, exts, noun = FRAME_INPUTS[kind]
    root = cfg.resolve(getattr(cfg, dir_key))
    if frames is None and not root.is_dir():
        raise InvalidInput(f"{kind} directory {root} does not exist")
    pattern = re.compile(rf"^{kind}_(\d{{6}})\.({'|'.join(exts)})$")
    found: dict[int, Path] = {}
    for p in sorted(root.iterdir()) if root.is_dir() else ():
        if m := pattern.match(p.name):
            t = int(m.group(1))
            if t in found:
                raise InvalidInput(f"frame {t} has two {kind} files: {found[t]} and {p}")
            found[t] = p
    if frames is None:
        if not found:
            raise InvalidInput(f"no {kind}_NNNNNN.{'/.'.join(exts)} files in {root}")
        return found
    extra = sorted(set(found) - set(frames))
    if extra:
        raise InvalidInput(f"{found[extra[0]]}: frame {extra[0]} has no cloud file (the cloud "
                           f"files define the frame set)")
    for t in frames:
        if t not in found:
            raise InvalidInput(f"frame {t}: missing {noun} {root / meshio.frame_file(kind, t, exts[0])}")
    return found


def load_run_inputs(cfg: RunConfig) -> RunInputs:
    """Parse and validate every referenced input before any compute starts.

    The cloud files define the frame set. Input feature maps and masks are
    loaded only when candidate features are computed per state (`synthetic`
    and `maps`), must share the first map's channel count, which the
    synthetic field takes too, and go to the feature source, which fits its
    PCA basis on them; a `table` run reads its tables alone. Only those two
    cast, so only they read the camera. No pose grid is built here: tables
    and candidate maps are checked against the grids' state counts. Each
    ground truth must be one that evaluation can sample, and so must the
    model mesh, which is drawn from before any frame is read."""
    if not cfg.model_mesh:
        raise InvalidInput("model_mesh is required")
    mesh = _load_surface(cfg.resolve(cfg.model_mesh), "model mesh cannot be sampled")

    source_name = cfg.feature_source if cfg.w_dino != 0.0 else "none"  # w_dino = 0: no features
    use_maps = source_name in ("synthetic", "maps")
    if use_maps and not cfg.camera:
        raise InvalidInput("feature_source requires a camera file")
    camera = meshio.load_camera(cfg.resolve(cfg.camera)) if use_maps else None
    s_rot, s_trans = rotation_state_count(cfg.rotation_level), math.prod(cfg.translation_counts)

    if not cfg.cloud_dir:
        raise InvalidInput("cloud_dir is required")
    clouds = frame_files(cfg, "cloud")
    indices = sorted(clouds)
    reads = {"feat": use_maps, "mask": use_maps and cfg.mask_dir, "gt": cfg.gt_dir}
    paths = {kind: frame_files(cfg, kind, indices) for kind, read in reads.items() if read}

    frames = []
    inputs = []  # input feature maps, one per frame, for a cast source
    for t in indices:
        obj = meshio.load_ply_cloud(clouds[t]).filter_label(LABEL_OBJECT)
        if len(obj) == 0:
            raise InvalidInput(f"frame {t}: no object-labeled points in {clouds[t].name}")
        frames.append(obj.points)
        if use_maps:
            feats, mask = meshio.load_fmap(paths["feat"][t])
            _check_image_size(paths["feat"][t], feats.shape[:2], camera)
            if inputs and feats.shape[2] != inputs[0].values.shape[1]:
                raise InvalidInput(f"{paths['feat'][t]}: {feats.shape[2]} feature channels, "
                                   f"{paths['feat'][indices[0]]} has {inputs[0].values.shape[1]}")
            if "mask" in paths:
                mask = meshio.load_pgm_mask(paths["mask"][t])
                _check_image_size(paths["mask"][t], mask.shape, camera)
            inputs.append(PixelMap(mask, feats[mask]))
    if use_maps and not any(f.mask.any() for f in inputs):
        raise InvalidInput("no masked-in pixels across all input feature maps")

    feature_source = None
    if source_name == "synthetic":
        field = FeatureField.from_seed(cfg.synthetic_feature_seed, inputs[0].values.shape[1])
        feature_source = SyntheticFeatureSource(camera, inputs, field)
    elif source_name == "table":
        if not cfg.dino_table_rot or not cfg.dino_table_trans:
            raise InvalidInput("table feature source needs dino_table_rot and dino_table_trans")
        rot_tab = meshio.load_emission_table(cfg.resolve(cfg.dino_table_rot))
        trans_tab = meshio.load_emission_table(cfg.resolve(cfg.dino_table_trans))
        _check_table(rot_tab, len(frames), s_rot, "dino_table_rot")
        _check_table(trans_tab, len(frames), s_trans, "dino_table_trans")
        feature_source = TableFeatureSource(rot_tab, trans_tab)
    elif source_name == "maps":
        if not cfg.candidate_features_dir:
            raise InvalidInput("maps feature source needs candidate_features_dir")
        feature_source = DirectoryFeatureSource(camera, inputs, cfg.resolve(cfg.candidate_features_dir))
        _check_candidate_maps(feature_source, s_rot, s_trans)

    ground_truths = [_load_ground_truth(paths["gt"][t]) for t in indices] if cfg.gt_dir else None

    return RunInputs(
        mesh=mesh, frames=frames, frame_indices=indices,
        feature_source=feature_source, ground_truths=ground_truths,
    )


def _load_surface(path: Path, failure: str) -> TriangleMesh:
    """The mesh at `path`, which needs faces and a finite, nonzero surface
    area; one without fails here, named, as `failure`."""
    mesh = meshio.load_mesh(path)
    try:
        sample_mesh_surface(mesh, 1, 0)
    except DegenerateGeometry as e:
        raise InvalidInput(f"{path}: {failure}: {e}") from None
    return mesh


def _load_ground_truth(path: Path):
    """A ground-truth mesh or cloud, drawn from once as evaluation will draw
    its sample, so that one it cannot sample fails here, named."""
    geometry = meshio.load_ply_geometry(path)
    try:
        gt_points_for(geometry, 1, 0)
    except DegenerateGeometry as e:
        raise InvalidInput(f"{path}: ground truth cannot be sampled: {e}") from None
    return geometry


def _check_image_size(path: Path, shape, camera) -> None:
    h, w = shape
    if (h, w) != (camera.height, camera.width):
        raise InvalidInput(
            f"{path}: image size {w}x{h} does not match the camera's "
            f"{camera.width}x{camera.height}"
        )


def _check_table(table: np.ndarray, frames: int, states: int, name: str) -> None:
    if table.shape != (frames, states):
        raise InvalidInput(
            f"{name} shape {table.shape} does not match (frames={frames}, states={states})"
        )
    if np.isinf(table).any() or (table < 0).any():
        raise InvalidInput(f"{name} holds infinite or negative feature errors (NaN marks no overlap)")


def _check_candidate_maps(source: DirectoryFeatureSource, s_rot: int, s_trans: int) -> None:
    """Every candidate map of every frame of the source exists and loads (so
    every value is finite), with the source camera's image size and the
    channel count of the input feature maps (its basis). The maps are read
    again when their frame is scored."""
    for phase, count in (("rotation", s_rot), ("translation", s_trans)):
        for t in range(len(source.inputs)):
            for j in range(count):
                p = source.path_for(phase, t, j)
                if not p.is_file():
                    raise InvalidInput(f"missing candidate feature map {p}")
                h, w, c = meshio.load_fmap(p)[0].shape
                _check_image_size(p, (h, w), source.camera)
                if c != len(source.basis.mean):
                    raise InvalidInput(f"{p}: {c} feature channels, the input feature maps "
                                       f"have {len(source.basis.mean)}")


def _evaluate(cfg: RunConfig, inputs: RunInputs, track) -> bytes:
    """metrics.json of a track scored against the inputs' per-frame ground truth."""
    per_frame, median = evaluate_track(
        inputs.mesh, track, inputs.ground_truths,
        n=cfg.eval_samples, seed=cfg.seed,
        icp_max_iters=cfg.icp_max_iters, icp_tol=cfg.icp_tol,
    )
    obj = {"frames": [dict(r.to_dict(), t=int(t)) for r, t in zip(per_frame, inputs.frame_indices)],
           "median": median.to_dict()}
    return meshio.json_text(obj).encode()


def run_track(cfg: RunConfig, out_dir, *, first_frame_only: bool = False) -> dict:
    """Align the sequence and write track.json (+ metrics.json with ground truth)."""
    inputs = load_run_inputs(cfg)
    if first_frame_only:
        # a table feature source keeps all its rows; alignment reads only row 0
        inputs.frames = inputs.frames[:1]
        inputs.frame_indices = inputs.frame_indices[:1]
        if inputs.ground_truths is not None:
            inputs.ground_truths = inputs.ground_truths[:1]
    rot_grid = build_rotation_grid(cfg.rotation_level)
    trans_grid = build_translation_grid(np.zeros(3), np.array(cfg.translation_half_extent),
                                        cfg.translation_counts)
    evaluator = EmissionEvaluator(
        inputs.mesh, w_cd=cfg.w_cd, w_dino=cfg.w_dino, feature_source=inputs.feature_source,
        sample_count=cfg.emission_samples, seed=cfg.seed, penalty_factor=cfg.penalty_factor,
    )
    result = align_sequence(
        evaluator, inputs.frames, rot_grid, trans_grid,
        lam_rot=cfg.lambda_rot, lam_trans=cfg.lambda_trans,
        timestamps=np.array(inputs.frame_indices, dtype=np.int64),
    )
    metrics = None
    if inputs.ground_truths is not None:
        metrics = _evaluate(cfg, inputs, result.track)
    # nothing is written until every output is computed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meshio.write_atomic(out / "track.json", track_to_json(result.track).encode())
    meshio.save_emission_table(result.rotation_table, out / "emissions_rotation.emit")
    meshio.save_emission_table(result.translation_table, out / "emissions_translation.emit")
    written = {"track": str(out / "track.json")}
    if metrics is not None:
        meshio.write_atomic(out / "metrics.json", metrics)
        written["metrics"] = str(out / "metrics.json")
    return written


def run_eval(cfg: RunConfig, out_dir) -> dict:
    """Score an existing pose track against per-frame ground truth."""
    if not cfg.track:
        raise InvalidInput("eval needs a 'track' path in the config")
    if not cfg.gt_dir:
        raise InvalidInput("eval needs gt_dir")
    # evaluation reads no features: no feature map, mask or PCA basis is loaded
    inputs = load_run_inputs(replace(cfg, feature_source="none"))
    track_path = cfg.resolve(cfg.track)
    track = track_from_json(meshio.read_input(track_path, "track file", text=True))
    if len(track) != len(inputs.ground_truths):
        raise InvalidInput("track length does not match ground-truth frame count")
    for k, (t, want) in enumerate(zip(track.timestamps, inputs.frame_indices)):
        if t != want:
            raise InvalidInput(f"{track_path}: entry {k} has t = {t}, not frame index {want}")
    metrics = _evaluate(cfg, inputs, track)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meshio.write_atomic(out / "metrics.json", metrics)
    return {"metrics": str(out / "metrics.json")}


def run_prep(cfg: RunConfig, out_dir) -> dict:
    """Per-frame hand ray casting plus normalization-frame artifacts.

    Writes prep_NNNNNN.fmap (3-channel map of normalized hit points, mask =
    hits), prep_mask_NNNNNN.pgm, and prep_params_NNNNNN.json per frame. Every
    hand mesh is loaded and checked before the first cast.
    """
    if not cfg.hand_dir:
        raise InvalidInput("prep needs hand_dir")
    if not cfg.camera:
        raise InvalidInput("prep needs a camera file")
    camera = meshio.load_camera(cfg.resolve(cfg.camera))
    hands = {t: _load_surface(path, "hand mesh cannot be cast")
             for t, path in frame_files(cfg, "hand").items()}
    computed = []
    for t, hand in hands.items():
        hit_map = first_hit_map(hand, camera)
        if not hit_map.mask.any():
            raise InvalidInput(f"frame {t}: hand mesh has no visible surface")
        normalized, mean, sigma = normalize_points(hit_map.values, s=cfg.norm_scale)
        payload = {
            "mean": [float(v) for v in mean],
            "sigma": sigma,
            "scale": float(cfg.norm_scale),
            "hit_fraction": float(hit_map.mask.mean()),
        }
        computed.append((t, PixelMap(hit_map.mask, normalized), payload))
    # nothing is written until every frame is computed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {}
    for t, prep, payload in computed:
        meshio.save_fmap(prep.dense(), prep.mask, out / meshio.frame_file("prep", t, "fmap"))
        meshio.save_pgm_mask(prep.mask, out / meshio.frame_file("prep_mask", t, "pgm"))
        meshio.write_atomic(out / meshio.frame_file("prep_params", t, "json"),
                            meshio.json_text(payload).encode())
        written[t] = str(out / meshio.frame_file("prep", t, "fmap"))
    return written


def rotation_grid_csv(level: int) -> str:
    grid = build_rotation_grid(level)
    lines = ["w,x,y,z"]
    lines += [",".join(repr(float(v)) for v in q) for q in grid.quaternions]
    return "\n".join(lines) + "\n"
