"""Rollout planning: keyframe sampling, overlapping segment partitioning,
the frames each segment conditions on, noisy anchor conditioning, and
boundary latent substitution.

A plan stores only the keyframes and each segment's span. What a segment
conditions on is derived from them (segment_context): its anchors are the
keyframes select_keyframes picks for its span (global context), its history
is the overlap frames it shares with its predecessor (local coherence).

Plan files are flat key/value text (keys: total_frames, strides, overlap,
alpha_c, sigma_c, keyframes, segments as start:end spans) so CLI runs can be
replayed.
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
    The keyframes must be nonempty (each window is anchored on them)."""
    if n_frames < 1:
        raise InvalidInput(f"n_frames must be >= 1, got {n_frames}")
    if overlap < 0:
        raise InvalidInput("overlap must be >= 0")
    if seg_len <= overlap:
        raise InvalidInput("segment length must exceed overlap")
    stride = seg_len - overlap
    _sorted_keyframes(keyframes)
    segments: list[Segment] = []
    start = 0
    while True:
        end = min(start + seg_len - 1, n_frames - 1)
        segments.append(Segment(start, end))
        if end >= n_frames - 1:
            return segments
        start += stride


def segment_context(plan: RolloutPlan):
    """Each segment with the frames it conditions on: yields (segment,
    history, anchors). history lists the overlap frames shared with the
    predecessor (empty for the first segment); anchors are the keyframes
    select_keyframes picks for the span. The keyframes are sorted once, so
    a pass over the plan is linear in its size."""
    kf = _sorted_keyframes(plan.keyframes)
    for i, seg in enumerate(plan.segments):
        history = list(range(seg.start, min(seg.start + plan.overlap, seg.end + 1))) if i else []
        yield seg, history, _select_sorted(kf, seg.start, seg.end)


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
        spans = [item.split(":") for item in kv["segments"].split(",") if item]
        segments = tuple(Segment(int(start), int(end)) for start, end in spans)
    except KeyError as exc:
        raise InvalidInput(f"{path}: missing plan key {exc}") from None
    except ValueError as exc:
        raise InvalidInput(f"{path}: {exc}") from None
    plan = RolloutPlan(total, keyframes, segments, overlap, alpha_c, sigma_c)
    violations = validate_plan(plan)
    if violations:
        raise InvalidInput(f"{path}: plan fails validation: {violations}")
    return plan
