"""Flat `key = value` run configuration: parse, validate, serialize.

Relative paths are resolved against the directory containing the config
file. Unknown keys are rejected so typos fail fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, InvalidInput

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
    synthetic_feature_channels: int = 8
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


_PATH_KEYS = (
    "model_mesh", "cloud_dir", "camera", "features_dir", "mask_dir",
    "candidate_features_dir", "dino_table_rot", "dino_table_trans",
    "hand_dir", "gt_dir", "track",
)
_INT_KEYS = (
    "synthetic_feature_seed", "synthetic_feature_channels", "rotation_level",
    "emission_samples", "eval_samples", "icp_max_iters", "seed",
)
_FLOAT_KEYS = (
    "w_cd", "w_dino", "lambda_rot", "lambda_trans", "norm_scale",
    "penalty_factor", "icp_tol",
)


def _parse_triple(value: str, cast):
    parts = [p.strip() for p in value.split(",")]
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise InvalidInput("expected a scalar or three comma-separated values")
    return tuple(cast(p) for p in parts)


def parse_config(text: str, base_dir: str = ".") -> RunConfig:
    cfg = RunConfig(base_dir=str(base_dir))
    known = {f.name for f in fields(RunConfig)} - {"base_dir"}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ConfigError(f"line {ln}: unknown key '{key}'")
        try:
            if key in _PATH_KEYS:
                setattr(cfg, key, value)
            elif key in _INT_KEYS:
                setattr(cfg, key, int(value))
            elif key in _FLOAT_KEYS:
                setattr(cfg, key, float(value))
            elif key == "translation_half_extent":
                cfg.translation_half_extent = _parse_triple(value, float)
            elif key == "translation_counts":
                cfg.translation_counts = _parse_triple(value, int)
            elif key == "feature_source":
                if value not in FEATURE_SOURCES:
                    raise InvalidInput(f"must be one of {FEATURE_SOURCES}")
                cfg.feature_source = value
            else:  # pragma: no cover - keys above are exhaustive
                raise ConfigError(f"line {ln}: unhandled key '{key}'")
        except ValueError as e:
            raise ConfigError(f"line {ln}: bad value for '{key}': {e}") from e
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    for key in _FLOAT_KEYS + ("translation_half_extent",):
        value = getattr(cfg, key)
        values = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(v) for v in values):
            raise ConfigError(f"{key} must be finite; got {value!r}")
    if cfg.rotation_level < 0:
        raise ConfigError("rotation_level must be >= 0")
    if any(c < 1 for c in cfg.translation_counts):
        raise ConfigError("translation_counts must be >= 1 per axis")
    if any(h < 0 for h in cfg.translation_half_extent):
        raise ConfigError("translation_half_extent must be >= 0")
    if cfg.emission_samples < 1 or cfg.eval_samples < 1:
        raise ConfigError("sample counts must be >= 1")
    if cfg.norm_scale <= 0:
        raise ConfigError("norm_scale must be positive")
    if cfg.icp_max_iters < 1 or cfg.icp_tol <= 0:
        raise ConfigError("icp parameters must be positive")
    if cfg.w_cd < 0 or cfg.w_dino < 0 or cfg.lambda_rot < 0 or cfg.lambda_trans < 0:
        raise ConfigError("weights must be >= 0")
    if cfg.penalty_factor < 0:
        raise ConfigError("penalty_factor must be >= 0")
    for key in ("seed", "synthetic_feature_seed"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"{key} must be >= 0; got {getattr(cfg, key)}")
    if cfg.synthetic_feature_channels < 3:
        raise ConfigError("synthetic_feature_channels must be >= 3")


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
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return parse_config(text, base_dir=str(path.parent))
