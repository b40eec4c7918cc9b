"""Experiment configuration as a flat key/value text file.

Lines are "key = value"; '#' starts a comment. Unknown keys are rejected with
the offending line number. Values round-trip losslessly (floats are written
with repr). CLI flags override file values. A config is checked when it is
built, and one that breaks a rule is rejected naming the key:
  * every float key is finite and non-negative,
  * dynamics and kf_scenario take one of the values listed below,
  * total_frames, dim, trials and every stride are >= 1, and seed is >= 0,
  * 0 <= overlap < segment_len.

Keys (defaults in parentheses):
  total_frames (321)    frames including frame 0
  strides (8)           comma list of keyframe strides; with several, each
                        plan draws one from the seed's "plan" stream
  segment_len (9)       generation window length B
  overlap (1)           shared frames p between consecutive windows
  dim (1)               latent dimension
  lipschitz (1.0)       spectral norm of the world dynamics
  dynamics (scaled_identity)  or 'rotation'
  bias (0.0)            per-step drift norm of the generator
  noise_std (0.0)       per-step generator noise
  sigma_int (0.0)       interpolation bridge noise scale
  velocity_error (0.0)  incoming boundary velocity error norm
  kf_error_cap (0.0)    anchor error cap for the global scenario
  kf_scenario (global)  'global' or 'downsampled_ar'
  kf_step_error ()      per-jump anchor error for downsampled_ar (default: bias)
  trials (1)            Monte-Carlo trials
  seed (0)              master seed
  out_dir (out)         artifact output directory
  trajectory ()         optional pose file driving the world controls
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .core import read_text
from .errors import InvalidInput

#: keys holding a float (kf_step_error also None): each must be finite and >= 0
_FLOAT_KEYS = ("lipschitz", "bias", "noise_std", "sigma_int", "velocity_error",
               "kf_error_cap", "kf_step_error")

#: keys holding a choice, with the values each takes
_CHOICE_KEYS = {"dynamics": ("scaled_identity", "rotation"),
                "kf_scenario": ("global", "downsampled_ar")}

#: keys holding a count: each must be >= 1
_COUNT_KEYS = ("total_frames", "dim", "trials")


@dataclass(frozen=True)
class ExperimentConfig:
    total_frames: int = 321
    strides: tuple[int, ...] = (8,)
    segment_len: int = 9
    overlap: int = 1
    dim: int = 1
    lipschitz: float = 1.0
    dynamics: str = "scaled_identity"
    bias: float = 0.0
    noise_std: float = 0.0
    sigma_int: float = 0.0
    velocity_error: float = 0.0
    kf_error_cap: float = 0.0
    kf_scenario: str = "global"
    kf_step_error: float | None = None
    trials: int = 1
    seed: int = 0
    out_dir: str = "out"
    trajectory: str = ""

    def __post_init__(self):
        for name in _FLOAT_KEYS:
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v >= 0.0):
                raise InvalidInput(f"{name} must be finite and non-negative")
        for name, choices in _CHOICE_KEYS.items():
            if getattr(self, name) not in choices:
                raise InvalidInput(f"{name} must be {' or '.join(map(repr, choices))}, "
                                   f"got {getattr(self, name)!r}")
        for name in _COUNT_KEYS:
            if getattr(self, name) < 1:
                raise InvalidInput(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise InvalidInput(f"seed must be >= 0, got {self.seed}")
        if any(s < 1 for s in self.strides):
            raise InvalidInput(f"strides must each be >= 1, got {self.strides}")
        if not 0 <= self.overlap < self.segment_len:
            raise InvalidInput(f"segment length must exceed overlap and overlap must be >= 0, "
                               f"got segment_len {self.segment_len} and overlap {self.overlap}")


def _parse_value(name: str, kind, raw: str):
    raw = raw.strip()
    if name == "strides":
        vals = tuple(int(v) for v in raw.split(",") if v.strip())
        if not vals:
            raise ValueError("empty stride list")
        return vals
    if name == "kf_step_error":
        return None if raw in ("", "none") else float(raw)
    if kind is int:
        return int(raw)
    if kind is float:
        return float(raw)
    return raw


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    known = {f.name: f.type for f in fields(ExperimentConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInput(f"{source}: line {lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise InvalidInput(f"{source}: line {lineno}: unknown config key {key!r}")
        try:
            values[key] = _parse_value(key, _key_kind(key), val)
        except ValueError as exc:
            raise InvalidInput(f"{source}: line {lineno}: {exc}") from None
    return ExperimentConfig(**values)


def _key_kind(key: str):
    defaults = ExperimentConfig()
    v = getattr(defaults, key)
    return type(v) if v is not None else float


def load_config(path) -> ExperimentConfig:
    return parse_config(read_text(path), source=str(path))


def format_config(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if f.name == "strides":
            out = ",".join(str(s) for s in v)
        elif v is None:
            out = ""
        elif isinstance(v, float):
            out = repr(v)
        else:
            out = str(v)
        lines.append(f"{f.name} = {out}")
    return "\n".join(lines) + "\n"


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_config(cfg))


def apply_overrides(cfg: ExperimentConfig, pairs) -> ExperimentConfig:
    """Apply 'key=value' override strings (CLI flags beat file values)."""
    known = {f.name for f in fields(ExperimentConfig)}
    updates = {}
    for pair in pairs:
        if "=" not in pair:
            raise InvalidInput(f"override {pair!r} is not key=value")
        key, val = (part.strip() for part in pair.split("=", 1))
        if key not in known:
            raise InvalidInput(f"unknown config key {key!r}")
        try:
            updates[key] = _parse_value(key, _key_kind(key), val)
        except ValueError as exc:
            raise InvalidInput(f"override {key}: {exc}") from None
    return replace(cfg, **updates)
