"""Rollout planning: keyframe sampling, overlapping generation windows,
and the frames each window conditions on.

A plan stores only its keyframes, window length and overlap, and checks
them when it is made. Its windows are derived from a plan as two arrays,
their first and last frames (partition_segments), and what a window
conditions on from those (segment_context): its anchors are the keyframes
select_keyframes picks for its span (global context), its history is the
overlap frames it shares with its predecessor (local coherence). Neither
checks the plan again.

`plan` writes a plan as flat key/value text (keys: total_frames, strides as
the distinct keyframe gaps, overlap, keyframes, segments as start:end
spans).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .core import RolloutPlan, _as_count
from .errors import InvalidInput


def select_keyframes(keyframes, seg_start: int, seg_end: int) -> list[int]:
    """Keyframes conditioning a segment: every keyframe inside [seg_start,
    seg_end] plus the nearest keyframe before the span and the nearest after.

    The keyframes must be sorted and duplicate-free, as a plan's are; like
    bisect, it does not check that. It takes O(log K) plus the answer's size.

    When the segment starts at a keyframe-0 boundary (no keyframe strictly
    before), the span's own first keyframe doubles as the look-back anchor;
    when no keyframe lies beyond seg_end (tail segment) the look-ahead anchor
    is omitted.
    """
    if len(keyframes) == 0:
        raise InvalidInput("keyframe list is empty")
    lo = bisect_left(keyframes, seg_start)   # keyframes[lo - 1] is the last one before the span
    hi = bisect_right(keyframes, seg_end)    # keyframes[hi] is the first one after it
    return list(keyframes[max(lo - 1, 0):hi + 1])


def partition_segments(plan: RolloutPlan) -> tuple[np.ndarray, np.ndarray]:
    """First and last frames, as two arrays, of the plan's windows: they cut
    [0, total_frames-1] into segment_len frames advancing by
    (segment_len - overlap); the last window is truncated at the final
    frame. Windows start at 0 and at every further multiple of the stride
    below total_frames - overlap: from there on, the predecessor reaches the
    final frame."""
    n, seg_len, overlap = plan.total_frames, plan.segment_len, plan.overlap
    starts = np.arange(0, max(n - overlap, 1), seg_len - overlap)
    return starts, np.minimum(starts + seg_len, n) - 1


def segment_context(plan: RolloutPlan):
    """Each window with the frames it conditions on: yields (start, end,
    history, anchors) as Python ints. history lists the overlap frames
    shared with the predecessor (empty for the first window); anchors are
    the keyframes select_keyframes picks for the span. A plan's keyframes
    are sorted, so a pass over the plan is linear in its size."""
    starts, ends = partition_segments(plan)
    for i, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
        history = list(range(start, min(start + plan.overlap, end + 1))) if i else []
        yield start, end, history, select_keyframes(plan.keyframes, start, end)


def build_plan(n_frames: int, stride: int, seg_len: int, overlap: int) -> RolloutPlan:
    """The plan of n_frames frames with keyframes at one stride, its
    multiples below n_frames and the final frame, so the last window has a
    forward anchor; with the window length and overlap, which RolloutPlan
    checks."""
    n_frames, stride = _as_count(n_frames, "n_frames"), _as_count(stride, "stride")
    keyframes = list(range(0, n_frames, stride))
    if keyframes[-1] != n_frames - 1:
        keyframes.append(n_frames - 1)
    return RolloutPlan(n_frames, keyframes, seg_len, overlap)


# ---------------------------------------------------------------------------
# plan files
# ---------------------------------------------------------------------------

def save_plan(plan: RolloutPlan, path) -> None:
    gaps = sorted({b - a for a, b in zip(plan.keyframes, plan.keyframes[1:])}) or [1]
    starts, ends = partition_segments(plan)
    lines = [
        f"total_frames = {plan.total_frames}",
        f"strides = {','.join(str(g) for g in gaps)}",
        f"overlap = {plan.overlap}",
        f"keyframes = {','.join(str(k) for k in plan.keyframes)}",
        "segments = " + ",".join(f"{s}:{e}" for s, e in zip(starts.tolist(), ends.tolist())),
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
