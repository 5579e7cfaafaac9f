"""Workload definitions: synthetic scenes written as CLI inputs, and the
`rigalign` command line each workload times.

Every scene comes from `rigalign.synthetic` (no downloads) and depends only
on the workload seed. Each workload makes one layer dominant and bypasses
another, so a change to one layer moves one workload and leaves the others
alone; `WORKLOADS` records which.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from rigalign import meshio
from rigalign.align import track_from_json
from rigalign.config import load_config, serialize_config
from rigalign.geometry import LABEL_OBJECT, TriangleMesh, surface_centroid, triangle_areas
from rigalign.grids import build_rotation_grid, build_translation_grid
from rigalign.synthetic import SceneSpec, generate_synthetic_scene, write_scene


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # rigalign subcommand
    spec: SceneSpec
    subdivisions: int  # midpoint subdivisions of the model mesh
    config: dict  # config keys overridden after write_scene
    outputs: tuple  # files the timed call must write
    loads: str  # layer the workload is built to make dominant
    bypasses: str  # layers it must not reach
    expect_calls: tuple  # span names that must record calls here
    expect_none: tuple  # span names that must record no calls here
    floors: tuple  # (score, low, high): ranges the ground truth sets whatever the seed


WORKLOADS = {
    w.name: w
    for w in (
        # Real object models have many faces; render and silhouette cost
        # grows with face count, while Chamfer cost does not.
        Workload(
            name="track-dense",
            command="track",
            spec=SceneSpec(frames=2, rotation_level=1, translation_counts=(3, 3, 1)),
            subdivisions=2,
            config={"gt_dir": ""},
            outputs=("track.json",),
            loads="emission render + silhouette (64-face model, synthetic features)",
            bypasses="evaluation (ICP, metrics)",
            expect_calls=("emission.render", "emission.silhouette", "emission.chamfer",
                          "viterbi.rotation", "viterbi.translation"),
            expect_none=("metrics.icp", "metrics.nn_query", "evaluate.track"),
            # trans_exact_frac reads 0 here because of a known tie in
            # combine_terms (see README), so it has no floor.
            floors=(("rot_exact_frac", 1.0, 1.0),),
        ),
        # Point clouds only and the largest state count per frame: Chamfer
        # dominates and the rotation Viterbi step runs on a 2,080^2 matrix.
        # Not in BENCHMARK.json: the time budget for all runs fits two
        # workloads at run lengths long enough to average out the host's
        # speed drift, so this one runs only by name.
        Workload(
            name="track-cloud-l3",
            command="track",
            spec=SceneSpec(frames=2, rotation_level=3, translation_counts=(3, 3, 3), cloud_points=256),
            subdivisions=0,
            config={"gt_dir": "", "feature_source": "none"},
            outputs=("track.json",),
            loads="emission Chamfer, rotation Viterbi on 2,080 states",
            bypasses="feature render, silhouette, evaluation",
            expect_calls=("emission.chamfer", "viterbi.rotation", "viterbi.translation",
                          "grids.pairwise_angles"),
            expect_none=("emission.render", "emission.silhouette", "metrics.icp",
                         "evaluate.track"),
            # Clouds alone cannot separate every rotation, so rot_exact_frac
            # depends on the seed and has no floor.
            floors=(("trans_exact_frac", 1.0, 1.0),),
        ),
        # Scores the ground-truth track: alignment never runs, so only
        # evaluation (sampling, ICP, Chamfer/F-score) can move it. How many
        # iterations an ICP start needs depends on the pose, so at the
        # default cap of 100 the work per seed varies by 1.6x. Every
        # non-identity start seen in a probe needed at least 8, so at a cap
        # of 8 each frame makes about 34 nearest-neighbour queries of 10k
        # points whatever the seed; the identity start converges in 2 to 4
        # and is kept, so the scores are those of an uncapped run.
        Workload(
            name="eval-icp",
            command="eval",
            spec=SceneSpec(frames=3, rotation_level=1),
            subdivisions=0,
            config={"track": "gt_track.json", "feature_source": "none", "icp_max_iters": 8},
            outputs=("metrics.json",),
            loads="evaluation ICP (10k-point nearest-neighbour queries)",
            bypasses="alignment (emission, Viterbi)",
            expect_calls=("evaluate.track", "metrics.icp", "metrics.nn_query", "metrics.fit",
                          "metrics.chamfer", "metrics.fscore", "geometry.sample"),
            expect_none=("align.sequence", "emission.chamfer", "emission.render",
                         "viterbi.rotation"),
            # The ground-truth track against its own meshes: only sampling
            # noise remains (about 0.001 cm^2 on every seed seen).
            floors=(("f5_median", 1.0, 1.0), ("f10_median", 1.0, 1.0),
                    ("chamfer_cm2_median", 0.0, 0.005)),
        ),
    )
}


def subdivide(mesh: TriangleMesh) -> TriangleMesh:
    """Split every triangle into four at its edge midpoints (shared edges share
    one new vertex). The surface is unchanged."""
    verts = list(mesh.vertices)
    midpoint: dict[tuple[int, int], int] = {}

    def mid(a: int, b: int) -> int:
        key = (min(a, b), max(a, b))
        if key not in midpoint:
            midpoint[key] = len(verts)
            verts.append(0.5 * (mesh.vertices[a] + mesh.vertices[b]))
        return midpoint[key]

    faces = []
    for a, b, c in mesh.faces.tolist():
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        faces += [[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]]
    return TriangleMesh(np.array(verts), np.array(faces))


def dense_model(mesh: TriangleMesh, times: int) -> TriangleMesh:
    """`mesh` subdivided `times` times. The scene's clouds and ground truth were
    sampled from the original surface, so area and surface centroid must match."""
    dense = mesh
    for _ in range(times):
        dense = subdivide(dense)
    area, dense_area = triangle_areas(mesh).sum(), triangle_areas(dense).sum()
    if abs(dense_area - area) > 1e-12:
        raise RuntimeError(f"subdivision changed the surface area ({area!r} -> {dense_area!r})")
    shift = np.abs(surface_centroid(dense) - surface_centroid(mesh)).max()
    if shift > 1e-12:
        raise RuntimeError(f"subdivision moved the surface centroid by {shift!r} m")
    return dense


def build_scene(workload: Workload, seed: int, out_dir: Path) -> Path:
    """Write the workload's scene into `out_dir`; returns its config path."""
    scene = generate_synthetic_scene(replace(workload.spec, seed=seed))
    cfg_path = write_scene(scene, out_dir)
    if workload.subdivisions:
        meshio.save_obj(dense_model(scene.mesh, workload.subdivisions), out_dir / "model.obj")
    cfg = load_config(cfg_path)
    for key, value in workload.config.items():
        setattr(cfg, key, value)
    cfg_path.write_text(serialize_config(cfg))
    return cfg_path


def cli_argv(workload: Workload, cfg_path: Path, out_dir: Path) -> list[str]:
    """The timed command line: the CLI's default flags, nothing else."""
    return [workload.command, "--config", str(cfg_path), "--out", str(out_dir)]


def floor_violations(workload: Workload, scores: dict) -> list[str]:
    """The scores that fall outside the workload's ground-truth floors."""
    return [f"{name} = {scores[name]!r} is outside [{low}, {high}]"
            for name, low, high in workload.floors if not low <= scores[name] <= high]


def quality(workload: Workload, scene_dir: Path, out_dir: Path) -> dict:
    """Validate the timed call's outputs and score them against the scene's
    ground truth. Scores a workload does not produce read 0. Raises
    ValueError (or OSError, KeyError) when an output is malformed."""
    cfg = load_config(scene_dir / "config.cfg")
    truth = np.loadtxt(scene_dir / "gt_states.csv", delimiter=",", dtype=np.int64, ndmin=2)
    scores = dict.fromkeys(("rot_exact_frac", "trans_exact_frac", "chamfer_cm2_median",
                            "f5_median", "f10_median"), 0.0)
    if workload.command == "track":
        track = track_from_json((out_dir / "track.json").read_text())
        if len(track) != len(truth):
            raise ValueError(f"track has {len(track)} frames, the scene {len(truth)}")
        if not (track.scale > 0 and np.isfinite(track.translations).all()):
            raise ValueError("track has a non-positive scale or non-finite translations")
        rot_grid = build_rotation_grid(cfg.rotation_level)
        offsets = build_translation_grid(np.zeros(3), np.array(cfg.translation_half_extent),
                                         cfg.translation_counts).offsets
        rot, trans = [], []
        for k, t in enumerate(track.timestamps):
            cloud = meshio.load_ply_cloud(scene_dir / f"cloud_{t:06d}.ply").filter_label(LABEL_OBJECT)
            rot.append(rot_grid.nearest(track.rotations[k]))
            shift = track.translations[k] - cloud.points.mean(axis=0)
            trans.append(int(np.argmin(np.linalg.norm(offsets - shift, axis=1))))
        scores["rot_exact_frac"] = float(np.mean(np.array(rot) == truth[:, 0]))
        scores["trans_exact_frac"] = float(np.mean(np.array(trans) == truth[:, 1]))
    else:
        report = json.loads((out_dir / "metrics.json").read_text())
        if len(report["frames"]) != len(truth):
            raise ValueError(f"metrics.json has {len(report['frames'])} frames, the scene {len(truth)}")
        median = report["median"]
        values = [v for frame in report["frames"] + [median] for k, v in frame.items() if k != "t"]
        if not all(math.isfinite(v) for v in values):
            raise ValueError("metrics.json holds a non-finite value")
        scores.update(chamfer_cm2_median=median["chamfer_cm2"], f5_median=median["f5"],
                      f10_median=median["f10"])
    return scores
