"""End-to-end orchestration: fail-fast ingestion, alignment runs, evaluation,
and the hand-preprocessing path. All outputs are deterministic given the
config and seeds."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import meshio
from .align import align_sequence, track_from_json, track_to_json
from .config import RunConfig
from .emission import (
    DirectoryFeatureSource,
    FeatureMap,
    FrameObservation,
    SyntheticFeatureSource,
    TableFeatureSource,
    pca_basis,
)
from .errors import ConfigError, ParseError
from .evaluate import evaluate_track
from .geometry import LABEL_OBJECT, TriangleMesh, first_hit_map, normalize_points
from .grids import build_rotation_grid, build_translation_grid
from .synthetic import FeatureField

_CLOUD_RE = re.compile(r"^cloud_(\d{6})\.ply$")


@dataclass(eq=False)
class RunInputs:
    """Everything an alignment run needs, fully parsed up front."""

    mesh: TriangleMesh
    frames: list
    frame_indices: list
    camera: object | None
    feature_source: object | None
    basis: object | None
    ground_truths: list | None
    rot_grid: object
    trans_grid: object


def discover_frame_indices(cloud_dir: Path) -> list[int]:
    if not cloud_dir.is_dir():
        raise ParseError(f"cloud directory {cloud_dir} does not exist")
    indices = sorted(
        int(m.group(1)) for m in (_CLOUD_RE.match(p.name) for p in cloud_dir.iterdir()) if m
    )
    if not indices:
        raise ParseError(f"no cloud_NNNNNN.ply files in {cloud_dir}")
    return indices


def load_run_inputs(cfg: RunConfig, *, need_clouds: bool = True) -> RunInputs:
    """Parse and validate every referenced input before any compute starts."""
    if not cfg.model_mesh:
        raise ConfigError("model_mesh is required")
    mesh = meshio.load_mesh(cfg.resolve(cfg.model_mesh))

    camera = meshio.load_camera(cfg.resolve(cfg.camera)) if cfg.camera else None
    use_features = cfg.feature_source != "none" and cfg.w_dino != 0.0
    if use_features and camera is None:
        raise ConfigError("feature_source requires a camera file")

    rot_grid = build_rotation_grid(cfg.rotation_level)
    trans_grid = build_translation_grid(
        np.zeros(3), np.array(cfg.translation_half_extent), cfg.translation_counts
    )

    frames: list[FrameObservation] = []
    indices: list[int] = []
    if need_clouds:
        if not cfg.cloud_dir:
            raise ConfigError("cloud_dir is required")
        cloud_dir = cfg.resolve(cfg.cloud_dir)
        indices = discover_frame_indices(cloud_dir)
        for t in indices:
            cloud = meshio.load_ply_cloud(cloud_dir / f"cloud_{t:06d}.ply")
            obj = cloud.filter_label(LABEL_OBJECT)
            if len(obj) == 0:
                raise ParseError(f"frame {t}: no object-labeled points in cloud_{t:06d}.ply")
            features = None
            if use_features:
                fpath = cfg.resolve(cfg.features_dir) / f"feat_{t:06d}.fmap"
                if not fpath.is_file():
                    raise ParseError(f"frame {t}: missing feature map {fpath}")
                feats, mask = meshio.load_fmap(fpath)
                _check_image_size(fpath, feats.shape[:2], camera)
                if cfg.mask_dir:
                    mpath = cfg.resolve(cfg.mask_dir) / f"mask_{t:06d}.pgm"
                    if not mpath.is_file():
                        raise ParseError(f"frame {t}: missing mask {mpath}")
                    mask = meshio.load_pgm_mask(mpath)
                    _check_image_size(mpath, mask.shape, camera)
                features = FeatureMap(feats, mask)
            frames.append(FrameObservation(points=obj, features=features))

    basis = None
    feature_source = None
    if use_features:
        if not any(f.features.mask.any() for f in frames):
            raise ParseError("no masked-in pixels across all input feature maps")
        basis = pca_basis([f.features for f in frames])
        if cfg.feature_source == "synthetic":
            field = FeatureField.from_seed(cfg.synthetic_feature_seed, cfg.synthetic_feature_channels)
            feature_source = SyntheticFeatureSource(field)
        elif cfg.feature_source == "table":
            if not cfg.dino_table_rot or not cfg.dino_table_trans:
                raise ConfigError("table feature source needs dino_table_rot and dino_table_trans")
            rot_tab = meshio.load_emission_table(cfg.resolve(cfg.dino_table_rot))
            trans_tab = meshio.load_emission_table(cfg.resolve(cfg.dino_table_trans))
            _check_table(rot_tab, len(frames), len(rot_grid), "dino_table_rot")
            _check_table(trans_tab, len(frames), len(trans_grid), "dino_table_trans")
            feature_source = TableFeatureSource(rot_tab, trans_tab)
        elif cfg.feature_source == "maps":
            if not cfg.candidate_features_dir:
                raise ConfigError("maps feature source needs candidate_features_dir")
            feature_source = DirectoryFeatureSource(cfg.resolve(cfg.candidate_features_dir))
            _check_candidate_maps(feature_source, len(frames), len(rot_grid), len(trans_grid),
                                  camera, len(basis.mean))

    ground_truths = None
    if cfg.gt_dir:
        gt_dir = cfg.resolve(cfg.gt_dir)
        ground_truths = []
        for t in indices:
            gpath = gt_dir / f"gt_{t:06d}.ply"
            if not gpath.is_file():
                raise ParseError(f"frame {t}: missing ground truth {gpath}")
            ground_truths.append(meshio.load_ply_geometry(gpath))

    return RunInputs(
        mesh=mesh, frames=frames, frame_indices=indices, camera=camera,
        feature_source=feature_source, basis=basis, ground_truths=ground_truths,
        rot_grid=rot_grid, trans_grid=trans_grid,
    )


def _check_image_size(path: Path, shape, camera) -> None:
    h, w = shape
    if (h, w) != (camera.height, camera.width):
        raise ConfigError(
            f"{path}: image size {w}x{h} does not match the camera's "
            f"{camera.width}x{camera.height}"
        )


def _check_table(table: np.ndarray, frames: int, states: int, name: str) -> None:
    if table.shape != (frames, states):
        raise ConfigError(
            f"{name} shape {table.shape} does not match (frames={frames}, states={states})"
        )
    if np.isinf(table).any() or (table < 0).any():
        raise ConfigError(f"{name} holds infinite or negative feature errors (NaN marks no overlap)")


def _check_candidate_maps(source: DirectoryFeatureSource, frames: int, s_rot: int, s_trans: int,
                          camera, channels: int) -> None:
    """Every candidate map exists, and its header gives the camera's image size
    and the input feature maps' channel count."""
    for phase, count in (("rotation", s_rot), ("translation", s_trans)):
        for t in range(frames):
            for j in range(count):
                p = source.path_for(phase, t, j)
                if not p.is_file():
                    raise ParseError(f"missing candidate feature map {p}")
                h, w, c = meshio.read_fmap_header(p)
                _check_image_size(p, (h, w), camera)
                if c != channels:
                    raise ConfigError(f"{p}: {c} feature channels, the input feature maps "
                                      f"have {channels}")


def _metrics_json(per_frame, median, indices) -> str:
    obj = {
        "frames": [dict(r.to_dict(), t=int(t)) for r, t in zip(per_frame, indices)],
        "median": median.to_dict(),
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def run_track(cfg: RunConfig, out_dir, *, first_frame_only: bool = False) -> dict:
    """Align the sequence and write track.json (+ metrics.json with ground truth)."""
    inputs = load_run_inputs(cfg)
    if first_frame_only:
        # a table feature source keeps all its rows; alignment reads only row 0
        inputs.frames = inputs.frames[:1]
        inputs.frame_indices = inputs.frame_indices[:1]
        if inputs.ground_truths is not None:
            inputs.ground_truths = inputs.ground_truths[:1]
    result = align_sequence(
        inputs.mesh, inputs.frames, inputs.rot_grid, inputs.trans_grid,
        camera=inputs.camera, w_cd=cfg.w_cd, w_dino=cfg.w_dino,
        feature_source=inputs.feature_source, basis=inputs.basis,
        lam_rot=cfg.lambda_rot, lam_trans=cfg.lambda_trans,
        sample_count=cfg.emission_samples, seed=cfg.seed, penalty_factor=cfg.penalty_factor,
        timestamps=np.array(inputs.frame_indices, dtype=np.int64),
    )
    metrics = None
    if inputs.ground_truths is not None:
        per_frame, median = evaluate_track(
            inputs.mesh, result.track, inputs.ground_truths,
            n=cfg.eval_samples, seed=cfg.seed,
            icp_max_iters=cfg.icp_max_iters, icp_tol=cfg.icp_tol,
        )
        metrics = _metrics_json(per_frame, median, inputs.frame_indices)
    # nothing is written until every output is computed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meshio.write_atomic(out / "track.json", track_to_json(result.track).encode())
    meshio.save_emission_table(result.rotation_table.costs, out / "emissions_rotation.emit")
    meshio.save_emission_table(result.translation_table.costs, out / "emissions_translation.emit")
    written = {"track": str(out / "track.json")}
    if metrics is not None:
        meshio.write_atomic(out / "metrics.json", metrics.encode())
        written["metrics"] = str(out / "metrics.json")
    return written


def run_eval(cfg: RunConfig, out_dir) -> dict:
    """Score an existing pose track against per-frame ground truth."""
    if not cfg.track:
        raise ConfigError("eval needs a 'track' path in the config")
    if not cfg.gt_dir:
        raise ConfigError("eval needs gt_dir")
    inputs = load_run_inputs(cfg)
    if inputs.ground_truths is None:
        raise ConfigError("eval needs gt_dir with per-frame gt_NNNNNN.ply files")
    track_path = cfg.resolve(cfg.track)
    try:
        track = track_from_json(track_path.read_text())
    except OSError as e:
        raise ParseError(f"cannot read track file {track_path}: {e}") from e
    if len(track) != len(inputs.ground_truths):
        raise ConfigError("track length does not match ground-truth frame count")
    per_frame, median = evaluate_track(
        inputs.mesh, track, inputs.ground_truths,
        n=cfg.eval_samples, seed=cfg.seed,
        icp_max_iters=cfg.icp_max_iters, icp_tol=cfg.icp_tol,
    )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meshio.write_atomic(out / "metrics.json",
                        _metrics_json(per_frame, median, inputs.frame_indices).encode())
    return {"metrics": str(out / "metrics.json")}


_HAND_PATTERNS = ("hand_{t:06d}.obj", "hand_{t:06d}.ply")


def run_prep(cfg: RunConfig, out_dir) -> dict:
    """Per-frame hand ray casting plus normalization-frame artifacts.

    Writes prep_NNNNNN.fmap (3-channel map of normalized hit points, mask =
    hits), prep_mask_NNNNNN.pgm, and prep_params_NNNNNN.json per frame.
    """
    if not cfg.hand_dir:
        raise ConfigError("prep needs hand_dir")
    if not cfg.camera:
        raise ConfigError("prep needs a camera file")
    camera = meshio.load_camera(cfg.resolve(cfg.camera))
    hand_dir = cfg.resolve(cfg.hand_dir)
    if not hand_dir.is_dir():
        raise ParseError(f"hand directory {hand_dir} does not exist")
    frame_files = []
    for p in sorted(hand_dir.iterdir()):
        m = re.match(r"^hand_(\d{6})\.(obj|ply)$", p.name)
        if m:
            frame_files.append((int(m.group(1)), p))
    if not frame_files:
        raise ParseError(f"no hand_NNNNNN.obj/.ply files in {hand_dir}")
    computed = []
    for t, path in frame_files:
        hand = meshio.load_mesh(path)
        hit_map = first_hit_map(hand, camera)
        hits = hit_map.hits
        if not hits.any():
            raise ParseError(f"frame {t}: hand mesh has no visible surface")
        normalized, params = normalize_points(hit_map.points[hits], s=cfg.norm_scale)
        grid = np.zeros((camera.height, camera.width, 3))
        grid[hits] = normalized
        payload = {
            "mean": [float(v) for v in params.mean],
            "sigma": params.sigma,
            "scale": params.scale,
            "hit_fraction": hit_map.hit_fraction,
        }
        computed.append((t, grid, hits, payload))
    # nothing is written until every frame is computed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {}
    for t, grid, hits, payload in computed:
        meshio.save_fmap(grid, hits, out / f"prep_{t:06d}.fmap")
        meshio.save_pgm_mask(hits, out / f"prep_mask_{t:06d}.pgm")
        meshio.write_atomic(out / f"prep_params_{t:06d}.json",
                            (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode())
        written[t] = str(out / f"prep_{t:06d}.fmap")
    return written


def rotation_grid_csv(level: int) -> str:
    grid = build_rotation_grid(level)
    lines = ["w,x,y,z"]
    lines += [",".join(repr(float(v)) for v in q) for q in grid.quaternions]
    return "\n".join(lines) + "\n"
