"""Command-line interface.

Subcommands: align (single frame), track (sequence), eval (metrics only),
grid (dump rotation grid CSV), prep (hand sampling + normalization), and
synth (generate a synthetic scene). Exit codes: 0 success, 2 invalid input
(InvalidInput: a bad config value, input file or argument), 3 any other
RigalignError (a numerical or geometric dead end).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import meshio, pipeline
from .config import load_config
from .errors import InvalidInput, RigalignError
from .seeding import check_seed
from .synthetic import SceneSpec, generate_synthetic_scene, write_scene

EXIT_INVALID_INPUT = 2
EXIT_NUMERIC = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigalign",
        description="Rigid 6-DoF alignment of an object model to per-frame "
        "point clouds and image features, with evaluation tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="run config file (key = value lines)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory")

    add_common(sub.add_parser("align", help="align the first frame only"))
    add_common(sub.add_parser("track", help="align the whole sequence"))
    add_common(sub.add_parser("eval", help="score an existing track against ground truth"))
    add_common(sub.add_parser("prep", help="hand ray casting and normalization artifacts"))

    g = sub.add_parser("grid", help="dump a rotation grid as CSV (w,x,y,z)")
    g.add_argument("--level", type=int, default=2, help="subdivision level")
    g.add_argument("--out", default=None, help="write rotation_grid.csv into this directory instead of stdout")

    s = sub.add_parser("synth", help="generate a synthetic scene with ground truth")
    s.add_argument("--out", required=True, help="scene output directory")
    s.add_argument("--frames", type=int, default=10)
    s.add_argument("--noise-std", type=float, default=0.0, help="object cloud noise std, meters")
    s.add_argument("--level", type=int, default=2, help="rotation grid level")
    s.add_argument("--cloud-points", type=int, default=1024)
    s.add_argument("--hand-points", type=int, default=200)
    s.add_argument("--channels", type=int, default=8, help="synthetic feature channels")
    s.add_argument("--seed", type=int, default=0)
    return parser


def _load(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = check_seed(args.seed, "--seed")
    return cfg


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "grid":
            csv = pipeline.rotation_grid_csv(args.level)
            if args.out:
                out = Path(args.out)
                out.mkdir(parents=True, exist_ok=True)
                meshio.write_atomic(out / "rotation_grid.csv", csv.encode())
                print(out / "rotation_grid.csv")
            else:
                sys.stdout.write(csv)
        elif args.command == "synth":
            spec = SceneSpec(
                frames=args.frames,
                noise_std=args.noise_std,
                rotation_level=args.level,
                cloud_points=args.cloud_points,
                hand_points=args.hand_points,
                feature_channels=args.channels,
                seed=args.seed,
            )
            cfg_path = write_scene(generate_synthetic_scene(spec), args.out)
            print(cfg_path)
        else:
            command = {
                "track": pipeline.run_track,
                "align": functools.partial(pipeline.run_track, first_frame_only=True),
                "eval": pipeline.run_eval,
                "prep": pipeline.run_prep,
            }[args.command]
            for path in command(_load(args), args.out).values():
                print(path)
    except InvalidInput as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except RigalignError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
