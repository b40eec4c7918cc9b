from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rollbound.core import InvalidInput, RolloutPlan, validate_plan
from rollbound.schedule import (
    StridePolicy,
    build_plan,
    partition_segments,
    sample_keyframe_indices,
    segment_context,
    select_keyframes,
)


# ---------------------------------------------------------------------------
# keyframe sampling
# ---------------------------------------------------------------------------

def test_sample_keyframes_exact_multiples():
    assert sample_keyframe_indices(33, StridePolicy.test(8)) == [0, 8, 16, 24, 32]


def test_sample_keyframes_appends_final_frame():
    # enumeration oracle: stride multiples below N, then the last index
    expected = [k for k in range(0, 21, 8)] + [20]
    assert sample_keyframe_indices(21, StridePolicy.test(8)) == expected == [0, 8, 16, 20]


def test_sample_keyframes_single_frame():
    assert sample_keyframe_indices(1, StridePolicy.test(5)) == [0]


def test_sample_keyframes_rejects_empty_sequence():
    with pytest.raises(InvalidInput):
        sample_keyframe_indices(0, StridePolicy.test(4))


def test_sample_keyframes_train_mode_draws_from_candidates():
    policy = StridePolicy.train((4, 8, 16))
    seen = set()
    for seed in range(30):
        idx = sample_keyframe_indices(64, policy, rng=np.random.default_rng(seed))
        stride = idx[1] - idx[0]
        assert stride in {4, 8, 16}
        seen.add(stride)
    assert len(seen) > 1  # actually random
    a = sample_keyframe_indices(64, policy, rng=np.random.default_rng(7))
    b = sample_keyframe_indices(64, policy, rng=np.random.default_rng(7))
    assert a == b


def test_stride_policy_validation():
    with pytest.raises(InvalidInput):
        StridePolicy.test(0)
    with pytest.raises(InvalidInput):
        StridePolicy.train(())


# ---------------------------------------------------------------------------
# keyframe selection
# ---------------------------------------------------------------------------

def test_select_keyframes_outside_anchors():
    assert select_keyframes([0, 8, 16, 24, 32], 10, 14) == [8, 16]


def test_select_keyframes_spanning_segment():
    assert select_keyframes([0, 8, 16, 24, 32], 8, 20) == [0, 8, 16, 24]


def test_select_keyframes_two_anchor_case():
    assert select_keyframes([0, 8], 1, 7) == [0, 8]


def test_select_keyframes_rejects_empty():
    with pytest.raises(InvalidInput):
        select_keyframes([], 0, 5)


def _brute_force_selection(keyframes, s, e):
    kf = sorted(set(keyframes))
    before = [k for k in kf if k < s]
    after = [k for k in kf if k > e]
    k_pre = max(before) if before else s
    k_next = min(after) if after else e
    return [k for k in kf if k_pre <= k <= k_next]


@given(st.sets(st.integers(0, 200), min_size=1, max_size=30),
       st.integers(0, 200), st.integers(0, 60))
@settings(max_examples=300)
def test_select_keyframes_matches_enumeration(kfset, start, length):
    kf = sorted(kfset)
    end = start + length
    got = select_keyframes(kf, start, end)
    assert got == _brute_force_selection(kf, start, end)
    assert got == sorted(set(got))


# ---------------------------------------------------------------------------
# segment partitioning
# ---------------------------------------------------------------------------

def _while_loop_windows(n_frames, seg_len, overlap):
    """The window rule as a loop, window by window: the reference the
    closed-form partition must match."""
    windows, start = [], 0
    while True:
        end = min(start + seg_len - 1, n_frames - 1)
        windows.append((start, end))
        if end >= n_frames - 1:
            return windows
        start += seg_len - overlap


def test_partition_matches_while_loop_reference():
    for n in range(1, 90):
        for seg_len in range(1, 14):
            for overlap in range(seg_len):
                got = [(s.start, s.end) for s in partition_segments(n, seg_len, overlap)]
                assert got == _while_loop_windows(n, seg_len, overlap), (n, seg_len, overlap)


def test_partition_stride_enumeration():
    segs = partition_segments(13, 5, 1)
    assert [(s.start, s.end) for s in segs] == [(0, 4), (4, 8), (8, 12)]
    plan = RolloutPlan(13, (0, 4, 8, 12), segment_len=5, overlap=1)
    assert plan.segments == segs
    context = list(segment_context(plan))
    assert [history for _, history, _ in context] == [[], [4], [8]]
    assert [anchors for _, _, anchors in context] == [[0, 4, 8], [0, 4, 8, 12], [4, 8, 12]]


def test_partition_single_segment():
    segs = partition_segments(5, 5, 1)
    assert [(s.start, s.end) for s in segs] == [(0, 4)]


def test_partition_truncates_last():
    segs = partition_segments(14, 5, 1)
    assert [(s.start, s.end) for s in segs] == [(0, 4), (4, 8), (8, 12), (12, 13)]


def test_partition_rejects_bad_overlap():
    with pytest.raises(InvalidInput, match="segment length must exceed overlap"):
        partition_segments(10, 3, 3)
    with pytest.raises(InvalidInput, match="overlap must be >= 0"):
        partition_segments(10, 3, -1)
    with pytest.raises(InvalidInput, match="segment length must exceed overlap"):
        build_plan(10, StridePolicy.test(3), 3, 3)


# ---------------------------------------------------------------------------
# full plans
# ---------------------------------------------------------------------------

def test_build_plan_composition():
    plan = build_plan(33, StridePolicy.test(8), 9, 1)
    assert plan.keyframes == (0, 8, 16, 24, 32)
    assert len(plan.segments) == 4
    assert validate_plan(plan) == []


def test_build_plan_single_frame():
    plan = build_plan(1, StridePolicy.test(8), 2, 0)
    assert plan.keyframes == (0,)
    assert len(plan.segments) == 1
    assert validate_plan(plan) == []


def test_build_plan_inference_defaults():
    plan = build_plan(321, StridePolicy.test(8), 9, 1)
    assert validate_plan(plan) == []
    assert len(plan.keyframes) == 41
    assert plan.keyframes[-1] == 320


@given(st.integers(2, 400), st.integers(1, 24), st.integers(2, 20), st.integers(0, 3))
@settings(max_examples=200)
def test_random_plans_validate_clean(n, stride, seg_len, overlap):
    if seg_len <= overlap:
        overlap = seg_len - 1
    plan = build_plan(n, StridePolicy.test(stride), seg_len, overlap)
    assert validate_plan(plan) == []
    context = list(segment_context(plan))
    for (a, _, _), (b, history, anchors) in zip(context, context[1:]):
        shared = set(range(a.start, a.end + 1)) & set(range(b.start, b.end + 1))
        assert len(shared) == overlap
        assert history == sorted(shared)
        assert anchors == select_keyframes(plan.keyframes, b.start, b.end)


# a plan handed in from outside is checked rule by rule; one malformed plan
# per rule, each reported with the message naming its fault
@pytest.mark.parametrize("key, value, message", [
    ("keyframes", (0, 8, 4), "keyframes are not sorted"),
    ("keyframes", (1, 4, 8), "first keyframe must be frame 0"),
    ("keyframes", (0, 4, 7), "last keyframe must be the final frame 8"),
    ("overlap", 5, "segment length must exceed overlap and overlap must be >= 0, got "
                   "segment_len 5 and overlap 5"),
    ("overlap", -1, "got segment_len 5 and overlap -1"),
    ("keyframes", (), "keyframe list is empty"),
], ids=["unsorted", "first", "last", "overlap", "negative_overlap", "no_keyframes"])
def test_load_plan_rejects_malformed(key, value, message):
    plan = RolloutPlan(9, (0, 4, 8), segment_len=5, overlap=1)
    assert validate_plan(plan) == []
    violations = validate_plan(replace(plan, **{key: value}))
    assert any(message in v for v in violations), violations
