from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rollbound.core import InvalidInput, RolloutPlan, validate_plan
from rollbound.schedule import (
    build_plan,
    partition_segments,
    segment_context,
    select_keyframes,
)


# ---------------------------------------------------------------------------
# keyframe sampling
# ---------------------------------------------------------------------------

def _keyframes(n_frames, stride):
    """The keyframes of a plan of n_frames frames at one stride."""
    return build_plan(n_frames, stride, 9, 1).keyframes


def test_sample_keyframes_exact_multiples():
    assert _keyframes(33, 8) == (0, 8, 16, 24, 32)


def test_sample_keyframes_appends_final_frame():
    # enumeration oracle: stride multiples below N, then the last index
    expected = tuple(range(0, 21, 8)) + (20,)
    assert _keyframes(21, 8) == expected == (0, 8, 16, 20)


def test_sample_keyframes_single_frame():
    assert _keyframes(1, 5) == (0,)


def test_sample_keyframes_rejects_empty_sequence():
    with pytest.raises(InvalidInput, match=r"^n_frames must be >= 1, got 0$"):
        _keyframes(0, 4)


def test_stride_policy_validation():
    for stride in (0, -8):
        with pytest.raises(InvalidInput, match=f"^stride must be >= 1, got {stride}$"):
            build_plan(10, stride, 3, 1)


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
    # a list, or a tuple as a plan stores its keyframes: a list comes back
    kf = sorted(kfset)
    end = start + length
    got = select_keyframes(kf, start, end)
    assert got == _brute_force_selection(kf, start, end)
    assert got == sorted(set(got))
    from_tuple = select_keyframes(tuple(kf), start, end)
    assert type(from_tuple) is list and from_tuple == got


# ---------------------------------------------------------------------------
# segment partitioning
# ---------------------------------------------------------------------------

def _partition(n_frames, seg_len, overlap):
    """partition_segments of a plan with those frames and windows."""
    return partition_segments(build_plan(n_frames, n_frames, seg_len, overlap))


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
                got = list(zip(*(a.tolist() for a in _partition(n, seg_len, overlap))))
                assert got == _while_loop_windows(n, seg_len, overlap), (n, seg_len, overlap)


def test_partition_stride_enumeration():
    plan = RolloutPlan(13, (0, 4, 8, 12), segment_len=5, overlap=1)
    starts, ends = partition_segments(plan)
    assert starts.tolist() == [0, 4, 8] and ends.tolist() == [4, 8, 12]
    context = list(segment_context(plan))
    assert [(start, end) for start, end, _, _ in context] == [(0, 4), (4, 8), (8, 12)]
    assert all(type(v) is int for start, end, _, _ in context for v in (start, end))
    assert [history for _, _, history, _ in context] == [[], [4], [8]]
    assert [anchors for _, _, _, anchors in context] == [[0, 4, 8], [0, 4, 8, 12], [4, 8, 12]]


def test_partition_single_segment():
    starts, ends = _partition(5, 5, 1)
    assert starts.tolist() == [0] and ends.tolist() == [4]


def test_partition_truncates_last():
    starts, ends = _partition(14, 5, 1)
    assert starts.tolist() == [0, 4, 8, 12] and ends.tolist() == [4, 8, 12, 13]


def test_partition_rejects_bad_overlap():
    # partition_segments takes a plan, which has already checked its windows
    with pytest.raises(InvalidInput, match="segment length must exceed overlap"):
        build_plan(10, 3, 3, 3)


# ---------------------------------------------------------------------------
# full plans
# ---------------------------------------------------------------------------

def test_build_plan_composition():
    plan = build_plan(33, 8, 9, 1)
    assert plan.keyframes == (0, 8, 16, 24, 32)
    assert len(list(segment_context(plan))) == 4
    assert validate_plan(plan) == []


def test_build_plan_single_frame():
    plan = build_plan(1, 8, 2, 0)
    assert plan.keyframes == (0,)
    assert len(list(segment_context(plan))) == 1
    assert validate_plan(plan) == []


def test_build_plan_inference_defaults():
    plan = build_plan(321, 8, 9, 1)
    assert validate_plan(plan) == []
    assert len(plan.keyframes) == 41
    assert plan.keyframes[-1] == 320


@given(st.integers(2, 400), st.integers(1, 24), st.integers(2, 20), st.integers(0, 3))
@settings(max_examples=200)
def test_random_plans_validate_clean(n, stride, seg_len, overlap):
    if seg_len <= overlap:
        overlap = seg_len - 1
    plan = build_plan(n, stride, seg_len, overlap)
    assert validate_plan(plan) == []
    context = list(segment_context(plan))
    for (a0, a1, _, _), (b0, b1, history, anchors) in zip(context, context[1:]):
        shared = set(range(a0, a1 + 1)) & set(range(b0, b1 + 1))
        assert len(shared) == overlap
        assert history == sorted(shared)
        assert anchors == select_keyframes(plan.keyframes, b0, b1)


# a plan checks itself when it is made, replace included; one malformed plan
# per rule, each rejected with the message naming its fault
@pytest.mark.parametrize("key, value, message", [
    ("keyframes", (0, 8, 4), "keyframes are not sorted"),
    ("keyframes", (1, 4, 8), "first keyframe must be frame 0"),
    ("keyframes", (0, 4, 7), "last keyframe must be the final frame 8"),
    ("overlap", 5, "segment length must exceed overlap and overlap must be >= 0, got "
                   "segment_len 5 and overlap 5"),
    ("overlap", -1, "got segment_len 5 and overlap -1"),
    ("keyframes", (), "keyframe list is empty"),
    ("keyframes", (0, 4, 4, 8), "keyframes are not sorted and duplicate-free"),
], ids=["unsorted", "first", "last", "overlap", "negative_overlap", "no_keyframes",
        "duplicate"])
def test_load_plan_rejects_malformed(key, value, message):
    plan = RolloutPlan(9, (0, 4, 8), segment_len=5, overlap=1)
    assert validate_plan(plan) == []
    with pytest.raises(InvalidInput, match="^plan fails validation: ") as exc:
        replace(plan, **{key: value})
    assert message in str(exc.value)


def test_plan_checks_itself_when_made():
    with pytest.raises(InvalidInput, match="^plan fails validation: ") as exc:
        RolloutPlan(9, (0, 8, 4), 5, 1)
    assert "keyframes are not sorted" in str(exc.value)
    assert "last keyframe must be the final frame 8, got 4" in str(exc.value)
    with pytest.raises(InvalidInput, match=r"^plan fails validation: \['total_frames must be "
                                           r">= 1, got 0'\]$"):
        RolloutPlan(0, (), 1, 0)
    with pytest.raises(InvalidInput, match=r"^plan fails validation: \['segment length must "
                                           r"exceed overlap .* got segment_len 3 and overlap 4'"):
        build_plan(10, 3, 3, 4)


@pytest.mark.parametrize("fields, name", [
    ((9, (0, 4.7, 8), 5, 1), "each keyframe"),
    ((9, (0, "4", 8), 5, 1), "each keyframe"),
    ((9.0, (0, 4, 8), 5, 1), "total_frames"),
    ((9, (0, 4, 8), 5.5, 1), "segment_len"),
    ((9, (0, 4, 8), 5, np.float64(1.0)), "overlap"),
])
def test_plan_fields_must_be_integers(fields, name):
    with pytest.raises(InvalidInput, match=f"^{name} must be an integer, got "):
        RolloutPlan(*fields)


def test_plan_stores_numpy_integers_as_python_ints():
    plan = RolloutPlan(np.int64(9), np.array([0, 4, 8]), np.int32(5), np.uint8(1))
    assert plan == RolloutPlan(9, (0, 4, 8), 5, 1)
    assert all(type(v) is int
               for v in (plan.total_frames, *plan.keyframes, plan.segment_len, plan.overlap))

