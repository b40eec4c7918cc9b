"""Rollout planning: keyframe sampling, per-segment keyframe selection,
overlapping segment partitioning, noisy anchor conditioning, and boundary
latent substitution.

Plan files are flat key/value text (keys: total_frames, strides, overlap,
alpha_c, sigma_c, keyframes, segments) so CLI runs can be replayed.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .core import LatentSeq, RolloutPlan, Segment, validate_plan
from .errors import InvalidInput
from .seeding import as_rng


@dataclass(frozen=True)
class StridePolicy:
    """Keyframe stride selection: a candidate set in train mode, a fixed
    stride in test mode."""

    mode: str
    candidate_strides: tuple[int, ...] = ()
    fixed_stride: int = 0

    def __post_init__(self):
        if self.mode not in ("train", "test"):
            raise InvalidInput(f"stride mode must be 'train' or 'test', got {self.mode!r}")
        object.__setattr__(self, "candidate_strides",
                           tuple(int(s) for s in self.candidate_strides))
        object.__setattr__(self, "fixed_stride", int(self.fixed_stride))
        if self.mode == "train":
            if not self.candidate_strides or any(s < 1 for s in self.candidate_strides):
                raise InvalidInput("train mode needs a nonempty set of positive strides")
        elif self.fixed_stride < 1:
            raise InvalidInput("test mode needs fixed_stride >= 1")

    @staticmethod
    def test(stride: int) -> "StridePolicy":
        return StridePolicy("test", fixed_stride=stride)

    @staticmethod
    def train(candidates) -> "StridePolicy":
        return StridePolicy("train", candidate_strides=tuple(candidates))


def sample_keyframe_indices(n_frames: int, policy: StridePolicy, rng=None) -> list[int]:
    """Stride-sampled keyframe indices: multiples of the stride starting at 0,
    with the final frame appended so the last segment has a forward anchor."""
    if n_frames < 1:
        raise InvalidInput(f"n_frames must be >= 1, got {n_frames}")
    if policy.mode == "train":
        stride = int(as_rng(rng).choice(policy.candidate_strides))
    else:
        stride = policy.fixed_stride
    idx = list(range(0, n_frames, stride))
    if idx[-1] != n_frames - 1:
        idx.append(n_frames - 1)
    return idx


def select_keyframes(keyframes, seg_start: int, seg_end: int) -> list[int]:
    """Keyframes conditioning a segment: every keyframe inside [seg_start,
    seg_end] plus the nearest keyframe before the span and the nearest after.

    When the segment starts at a keyframe-0 boundary (no keyframe strictly
    before), the span's own first keyframe doubles as the look-back anchor;
    when no keyframe lies beyond seg_end (tail segment) the look-ahead anchor
    is omitted.
    """
    return _select_sorted(_sorted_keyframes(keyframes), seg_start, seg_end)


def _sorted_keyframes(keyframes) -> list[int]:
    kf = sorted(set(int(k) for k in keyframes))
    if not kf:
        raise InvalidInput("keyframe list is empty")
    return kf


def _select_sorted(kf: list[int], seg_start: int, seg_end: int) -> list[int]:
    """select_keyframes on sorted, duplicate-free keyframes, in O(log K) plus
    the size of the answer."""
    lo = bisect_left(kf, seg_start)   # kf[lo - 1] is the last keyframe before the span
    hi = bisect_right(kf, seg_end)    # kf[hi] is the first keyframe after it
    return kf[max(lo - 1, 0):hi + 1]


def partition_segments(n_frames: int, seg_len: int, overlap: int, keyframes) -> list[Segment]:
    """Cut [0, n_frames-1] into windows of seg_len frames advancing by
    (seg_len - overlap); the last window is truncated at the final frame.
    Each window's keyframe set is the one select_keyframes picks."""
    if n_frames < 1:
        raise InvalidInput(f"n_frames must be >= 1, got {n_frames}")
    if overlap < 0:
        raise InvalidInput("overlap must be >= 0")
    if seg_len <= overlap:
        raise InvalidInput("segment length must exceed overlap")
    stride = seg_len - overlap
    kf = _sorted_keyframes(keyframes)
    segments: list[Segment] = []
    start = 0
    while True:
        end = min(start + seg_len - 1, n_frames - 1)
        if segments:
            history = tuple(range(start, min(start + overlap, end + 1)))
        else:
            history = ()
        segments.append(Segment(start, end, history, tuple(_select_sorted(kf, start, end))))
        if end >= n_frames - 1:
            return segments
        start += stride


def noisy_condition(z: LatentSeq, alpha_c: float, sigma_c: float, rng=None) -> LatentSeq:
    """Perturbed anchor latents: alpha_c * z + sigma_c * eps with eps standard
    normal per component. Deterministic given the rng seed."""
    if not (0.0 <= alpha_c <= 1.0):
        raise InvalidInput("alpha_c must lie in [0, 1]")
    if sigma_c < 0.0:
        raise InvalidInput("sigma_c must be >= 0")
    eps = as_rng(rng).standard_normal(z.frames.shape)
    return LatentSeq(alpha_c * z.frames + sigma_c * eps, z.start_index)


def substitute_boundary(current: LatentSeq, history: LatentSeq) -> LatentSeq:
    """Replace the first len(history) frames of a segment verbatim with the
    clean history latents; remaining frames are untouched."""
    p = len(history)
    if p == 0:
        return current
    if history.dim != current.dim:
        raise InvalidInput(f"latent dimension mismatch: {history.dim} vs {current.dim}")
    if p > len(current):
        raise InvalidInput(f"history ({p} frames) longer than segment ({len(current)})")
    frames = current.frames.copy()
    frames[:p] = history.frames
    return LatentSeq(frames, current.start_index)


def build_plan(n_frames: int, policy: StridePolicy, seg_len: int, overlap: int,
               alpha_c: float = 0.7, sigma_c: float = 0.3, rng=None) -> RolloutPlan:
    """Compose keyframe sampling and segment partitioning into a full plan."""
    keyframes = sample_keyframe_indices(n_frames, policy, rng)
    segments = partition_segments(n_frames, seg_len, overlap, keyframes)
    plan = RolloutPlan(n_frames, tuple(keyframes), tuple(segments), overlap,
                       float(alpha_c), float(sigma_c))
    violations = validate_plan(plan)
    if violations:
        raise AssertionError(f"generated plan failed validation: {violations}")
    return plan


def sample_train_conditioning(rng=None, keyframe_count_range=(1, 10),
                              alpha_range=(0.1, 0.5)) -> tuple[int, float]:
    """Training-time conditioning draw: number of conditioning keyframes and
    an anchor guidance coefficient. Exposed for plan sampling only; there is
    no training loop behind it."""
    g = as_rng(rng)
    lo, hi = keyframe_count_range
    k = int(g.integers(lo, hi + 1))
    alpha = float(g.uniform(*alpha_range))
    return k, alpha


# ---------------------------------------------------------------------------
# plan files
# ---------------------------------------------------------------------------

def save_plan(plan: RolloutPlan, path) -> None:
    strides = sorted({b - a for a, b in zip(plan.keyframes, plan.keyframes[1:])}) or [1]
    lines = [
        f"total_frames = {plan.total_frames}",
        f"strides = {','.join(str(s) for s in strides)}",
        f"overlap = {plan.overlap}",
        f"alpha_c = {plan.alpha_c!r}",
        f"sigma_c = {plan.sigma_c!r}",
        f"keyframes = {','.join(str(k) for k in plan.keyframes)}",
        "segments = " + ",".join(f"{s.start}:{s.end}" for s in plan.segments),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_plan(path) -> RolloutPlan:
    kv: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInput(f"{path}: line {lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            kv[key] = val
    try:
        total = int(kv["total_frames"])
        overlap = int(kv["overlap"])
        alpha_c = float(kv["alpha_c"])
        sigma_c = float(kv["sigma_c"])
        keyframes = tuple(int(v) for v in kv["keyframes"].split(",") if v)
        spans = [tuple(int(v) for v in item.split(":")) for item in kv["segments"].split(",") if item]
    except KeyError as exc:
        raise InvalidInput(f"{path}: missing plan key {exc}") from None
    except ValueError as exc:
        raise InvalidInput(f"{path}: {exc}") from None
    kf = _sorted_keyframes(keyframes) if spans else []
    segments = []
    for i, (start, end) in enumerate(spans):
        history = tuple(range(start, min(start + overlap, end + 1))) if i else ()
        segments.append(Segment(start, end, history, tuple(_select_sorted(kf, start, end))))
    plan = RolloutPlan(total, keyframes, tuple(segments), overlap, alpha_c, sigma_c)
    violations = validate_plan(plan)
    if violations:
        raise InvalidInput(f"{path}: plan fails validation: {violations}")
    return plan
