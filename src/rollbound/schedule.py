"""Rollout planning: keyframe sampling, overlapping generation windows,
and the frames each window conditions on.

A plan stores only its keyframes, window length and overlap. Its windows
are derived from them (partition_segments), and what a window conditions on
from those (segment_context): its anchors are the keyframes
select_keyframes picks for its span (global context), its history is the
overlap frames it shares with its predecessor (local coherence).

`plan` writes a plan as flat key/value text (keys: total_frames, strides,
overlap, keyframes, segments as start:end spans).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .core import RolloutPlan, Segment
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


def _check_windows(seg_len: int, overlap: int) -> None:
    if overlap < 0:
        raise InvalidInput("overlap must be >= 0")
    if seg_len <= overlap:
        raise InvalidInput("segment length must exceed overlap")


def partition_segments(n_frames: int, seg_len: int, overlap: int) -> list[Segment]:
    """Cut [0, n_frames-1] into windows of seg_len frames advancing by
    (seg_len - overlap); the last window is truncated at the final frame.
    Windows start at 0 and at every further multiple of the stride below
    n_frames - overlap: from there on, the predecessor reaches the final
    frame."""
    if n_frames < 1:
        raise InvalidInput(f"n_frames must be >= 1, got {n_frames}")
    _check_windows(seg_len, overlap)
    return [Segment(start, min(start + seg_len, n_frames) - 1)
            for start in range(0, max(n_frames - overlap, 1), seg_len - overlap)]


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


def build_plan(n_frames: int, policy: StridePolicy, seg_len: int, overlap: int,
               rng=None) -> RolloutPlan:
    """Compose keyframe sampling and the window length and overlap into a
    full plan, valid by construction (validate_plan finds nothing in it)."""
    keyframes = sample_keyframe_indices(n_frames, policy, rng)
    _check_windows(seg_len, overlap)
    return RolloutPlan(n_frames, tuple(keyframes), seg_len, overlap)


# ---------------------------------------------------------------------------
# plan files
# ---------------------------------------------------------------------------

def save_plan(plan: RolloutPlan, path) -> None:
    strides = sorted({b - a for a, b in zip(plan.keyframes, plan.keyframes[1:])}) or [1]
    lines = [
        f"total_frames = {plan.total_frames}",
        f"strides = {','.join(str(s) for s in strides)}",
        f"overlap = {plan.overlap}",
        f"keyframes = {','.join(str(k) for k in plan.keyframes)}",
        "segments = " + ",".join(f"{s.start}:{s.end}" for s in plan.segments),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
