"""Flat `key = value` run configuration: parse, validate, serialize.

Relative paths are resolved against the directory containing the config
file. Unknown keys are rejected so typos fail fast, and so is a key set
twice, which would otherwise let the last line win unseen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .geometry import MAX_SAMPLE_POINTS
from .grids import MAX_ROTATION_LEVEL, MAX_TRANSLATION_STATES
from .meshio import read_input
from .seeding import check_seed

FEATURE_SOURCES = ("none", "synthetic", "table", "maps")


@dataclass
class RunConfig:
    # paths (relative to the config file's directory unless absolute)
    model_mesh: str = ""
    cloud_dir: str = ""
    camera: str = ""
    features_dir: str = ""
    mask_dir: str = ""
    candidate_features_dir: str = ""
    dino_table_rot: str = ""
    dino_table_trans: str = ""
    hand_dir: str = ""
    gt_dir: str = ""
    track: str = ""
    # feature evidence
    feature_source: str = "none"
    synthetic_feature_seed: int = 0
    # grids
    rotation_level: int = 2
    translation_half_extent: tuple = (0.05, 0.05, 0.05)
    translation_counts: tuple = (5, 5, 5)
    # weights
    w_cd: float = 1.0
    w_dino: float = 1.0
    lambda_rot: float = 1.0
    lambda_trans: float = 1.0
    # hand normalization constant
    norm_scale: float = 0.7
    # emission
    emission_samples: int = 1024
    penalty_factor: float = 10.0
    # evaluation
    eval_samples: int = 10000
    icp_max_iters: int = 100
    icp_tol: float = 1e-6
    # randomness
    seed: int = 0
    # resolution base; not serialized
    base_dir: str = "."

    def resolve(self, rel: str) -> Path:
        p = Path(rel)
        return p if p.is_absolute() else Path(self.base_dir) / p


def _parse_triple(value: str, cast):
    parts = [p.strip() for p in value.split(",")]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise InvalidInput("expected a scalar or three comma-separated values")
    return tuple(cast(p) for p in parts)


def _parser(default):
    """A key's value parser, from the type of its default: str, int, float,
    or a triple of the tuple's element type."""
    if isinstance(default, tuple):
        cast = type(default[0])
        return lambda value: _parse_triple(value, cast)
    return type(default)


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    cfg = RunConfig(base_dir=str(base_dir))
    defaults = {f.name: f.default for f in fields(RunConfig) if f.name != "base_dir"}
    first_line = {}  # key -> the line that set it
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInput(f"line {ln}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in defaults:
            raise InvalidInput(f"line {ln}: unknown key '{key}'")
        if key in first_line:
            raise InvalidInput(f"line {ln}: '{key}' is set again; first set on line "
                               f"{first_line[key]}")
        first_line[key] = ln
        try:
            parsed = _parser(defaults[key])(value)
            if key == "feature_source" and parsed not in FEATURE_SOURCES:
                raise InvalidInput(f"must be one of {FEATURE_SOURCES}")
            setattr(cfg, key, parsed)
        except ValueError as e:
            raise InvalidInput(f"line {ln}: bad value for '{key}': {e}") from e
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        values = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in values if isinstance(v, float)):
            raise InvalidInput(f"{f.name} must be finite; got {value!r}")
    if cfg.rotation_level < 0:
        raise InvalidInput("rotation_level must be >= 0")
    if cfg.rotation_level > MAX_ROTATION_LEVEL:
        raise InvalidInput(f"rotation_level must be <= {MAX_ROTATION_LEVEL}; "
                           f"got {cfg.rotation_level}")
    if any(c < 1 for c in cfg.translation_counts):
        raise InvalidInput("translation_counts must be >= 1 per axis")
    if math.prod(cfg.translation_counts) > MAX_TRANSLATION_STATES:
        raise InvalidInput(f"translation_counts must give at most {MAX_TRANSLATION_STATES} "
                           f"states; got {math.prod(cfg.translation_counts)}")
    if any(h < 0 for h in cfg.translation_half_extent):
        raise InvalidInput("translation_half_extent must be >= 0")
    if cfg.emission_samples < 1 or cfg.eval_samples < 1:
        raise InvalidInput("sample counts must be >= 1")
    for key in ("emission_samples", "eval_samples"):
        if getattr(cfg, key) > MAX_SAMPLE_POINTS:
            raise InvalidInput(f"{key} must be <= {MAX_SAMPLE_POINTS}; got {getattr(cfg, key)}")
    if cfg.norm_scale <= 0:
        raise InvalidInput("norm_scale must be positive")
    if cfg.icp_max_iters < 1 or cfg.icp_tol <= 0:
        raise InvalidInput("icp parameters must be positive")
    if cfg.w_cd < 0 or cfg.w_dino < 0 or cfg.lambda_rot < 0 or cfg.lambda_trans < 0:
        raise InvalidInput("weights must be >= 0")
    if cfg.penalty_factor < 0:
        raise InvalidInput("penalty_factor must be >= 0")
    # Every cost a run computes fits in a float32: the .emit files store the
    # emission costs so, and terms of at most 3.4e38 leave a Viterbi path's
    # float64 sum finite over any number of frames. The config alone bounds
    # each weighted term at its largest. An emission cost is a weighted sum
    # of two terms in [0, 1], or a penalty of at most penalty_factor times
    # that; a rotation step's angle is at most pi; a translation step within
    # the grid is at most its diagonal, and its offsets feed squared
    # distances whatever lambda_trans is.
    largest = float(np.finfo(np.float32).max)
    for keys, cost in (
            ("max(penalty_factor, 1) * (w_cd + w_dino)",
             max(cfg.penalty_factor, 1.0) * (cfg.w_cd + cfg.w_dino)),
            ("lambda_rot * pi", cfg.lambda_rot * math.pi),
            ("max(lambda_trans, 1) * 2 * |translation_half_extent|",
             max(cfg.lambda_trans, 1.0) * 2.0 * math.hypot(*cfg.translation_half_extent))):
        if not cost <= largest:
            raise InvalidInput(f"{keys} is {cost:.4g}; every cost must fit in a float32, "
                               f"at most {largest:.4g}")
    check_seed(cfg.seed, "seed")
    if cfg.synthetic_feature_seed < 0:  # unbounded above: a field seed, not a derive_seed part
        raise InvalidInput(f"synthetic_feature_seed must be >= 0; got {cfg.synthetic_feature_seed}")


def serialize_config(cfg: RunConfig) -> str:
    lines = []
    for f in fields(RunConfig):
        if f.name == "base_dir":
            continue
        v = getattr(cfg, f.name)
        if isinstance(v, tuple):
            lines.append(f"{f.name} = {','.join(repr(x) if isinstance(x, float) else str(x) for x in v)}")
        elif isinstance(v, float):
            lines.append(f"{f.name} = {v!r}")
        else:
            lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    path = Path(path)
    text = read_input(path, "config file", text=True)
    return parse_config(text, base_dir=str(path.parent))
