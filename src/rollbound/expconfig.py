"""Experiment configuration as a flat key/value text file.

Lines are "key = value"; '#' starts a comment at the start of a line or after
whitespace. A line without '=', an unknown key or a value that does not parse
is rejected with its line number. Every config reads back from its file as
itself (floats are written with repr). Later values beat earlier ones: the
file's, then --set pairs, then CLI flags. A --set pair, like a file line, is
stripped around its '='; a flag's value is taken as it is. The merged config
is checked once, when it is built, and one that breaks a rule is rejected
naming the key:
  * every count, segment_len, overlap and seed is an integer,
  * every float key is a real number (kf_step_error also None), finite and
    non-negative,
  * dynamics and kf_scenario take one of the values listed below,
  * total_frames, stride, dim and trials are >= 1, and seed is >= 0,
  * 0 <= overlap < segment_len,
  * out_dir and trajectory have no surrounding whitespace, no line break,
    and no '#' at their start or after whitespace, which a file cannot carry.

Keys (defaults in parentheses):
  total_frames (321)    frames including frame 0
  stride (8)            keyframe stride: frames between consecutive anchors
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

import re
from dataclasses import dataclass, fields

from .core import _as_count, _as_int, _as_rate, read_text
from .errors import InvalidInput

#: keys holding a float (kf_step_error also None): each must be finite and >= 0
_FLOAT_KEYS = ("lipschitz", "bias", "noise_std", "sigma_int", "velocity_error",
               "kf_error_cap", "kf_step_error")

#: keys holding a choice, with the values each takes
_CHOICE_KEYS = {"dynamics": ("scaled_identity", "rotation"),
                "kf_scenario": ("global", "downsampled_ar")}

#: keys holding a count: each must be >= 1
_COUNT_KEYS = ("total_frames", "stride", "dim", "trials")

#: keys holding an integer
_INT_KEYS = _COUNT_KEYS + ("segment_len", "overlap", "seed")


@dataclass(frozen=True)
class ExperimentConfig:
    total_frames: int = 321
    stride: int = 8
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
        for name in _INT_KEYS:
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        for name in _FLOAT_KEYS:
            if name == "kf_step_error" and self.kf_step_error is None:
                continue
            object.__setattr__(self, name, _as_rate(getattr(self, name), name))
        for name, choices in _CHOICE_KEYS.items():
            if getattr(self, name) not in choices:
                raise InvalidInput(f"{name} must be {' or '.join(map(repr, choices))}, "
                                   f"got {getattr(self, name)!r}")
        for name in _COUNT_KEYS:
            _as_count(getattr(self, name), name)
        _as_count(self.seed, "seed", 0)
        if not 0 <= self.overlap < self.segment_len:
            raise InvalidInput(f"segment length must exceed overlap and overlap must be >= 0, "
                               f"got segment_len {self.segment_len} and overlap {self.overlap}")
        for name in ("out_dir", "trajectory"):
            v = getattr(self, name)
            if v != v.strip() or len(v.splitlines()) > 1 or re.search(r"(?:^|\s)#", v):
                raise InvalidInput(f"{name} must have no surrounding whitespace, line break, "
                                   f"or '#' at its start or after whitespace, got {v!r}")


#: each key's type, that of its default, which parses its value (kf_step_error
#: aside)
_KINDS = {f.name: type(f.default) for f in fields(ExperimentConfig)}


def _parse_value(name: str, raw: str):
    if name == "kf_step_error":
        return None if raw in ("", "none") else float(raw)
    return _KINDS[name](raw)


def load_config(path=None, overrides=(), **values) -> ExperimentConfig:
    """The config of the file at path (None: the defaults), then of the
    'key=value' override strings, then of the keyword values, taken as they
    are, a later value beating an earlier one. An item that does not parse
    raises InvalidInput naming its source, even if a later item sets its
    key; the merged config is checked once."""
    items = []
    if path is not None:
        for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if line:
                items.append((f"{path}: line {lineno}", line))
    items += [(f"override {pair!r}", pair) for pair in overrides]
    parsed = {}
    for source, item in items:
        key, sep, val = (part.strip() for part in item.partition("="))
        if not sep:
            raise InvalidInput(f"{source}: expected 'key = value'")
        if key not in _KINDS:
            raise InvalidInput(f"{source}: unknown config key {key!r}")
        try:
            parsed[key] = _parse_value(key, val)
        except ValueError as exc:
            raise InvalidInput(f"{source}: {key}: {exc}") from None
    return ExperimentConfig(**{**parsed, **values})


def format_config(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if v is None:
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
