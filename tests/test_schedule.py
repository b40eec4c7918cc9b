import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rollbound.core import InvalidInput, LatentSeq, RolloutPlan, validate_plan
from rollbound.schedule import (
    StridePolicy,
    build_plan,
    load_plan,
    noisy_condition,
    partition_segments,
    sample_keyframe_indices,
    save_plan,
    segment_context,
    select_keyframes,
    substitute_boundary,
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

def test_partition_stride_enumeration():
    segs = partition_segments(13, 5, 1, [0, 4, 8, 12])
    assert [(s.start, s.end) for s in segs] == [(0, 4), (4, 8), (8, 12)]
    context = list(segment_context(RolloutPlan(13, (0, 4, 8, 12), segs, overlap=1)))
    assert [history for _, history, _ in context] == [[], [4], [8]]
    assert [anchors for _, _, anchors in context] == [[0, 4, 8], [0, 4, 8, 12], [4, 8, 12]]


def test_partition_single_segment():
    segs = partition_segments(5, 5, 1, [0, 4])
    assert [(s.start, s.end) for s in segs] == [(0, 4)]


def test_partition_truncates_last():
    segs = partition_segments(14, 5, 1, [0, 4, 8, 13])
    assert [(s.start, s.end) for s in segs] == [(0, 4), (4, 8), (8, 12), (12, 13)]


def test_partition_rejects_bad_overlap():
    with pytest.raises(InvalidInput, match="segment length must exceed overlap"):
        partition_segments(10, 3, 3, [0, 9])


# ---------------------------------------------------------------------------
# noisy conditioning
# ---------------------------------------------------------------------------

def test_noisy_condition_zero_noise_scales():
    z = LatentSeq(np.array([[1.0, 2.0]]))
    out = noisy_condition(z, 0.7, 0.0)
    assert np.allclose(out.frames, [[0.7, 1.4]])


def test_noisy_condition_identity():
    z = LatentSeq(np.arange(6.0).reshape(3, 2))
    out = noisy_condition(z, 1.0, 0.0)
    assert np.array_equal(out.frames, z.frames)


def test_noisy_condition_moments():
    # Monte-Carlo moment estimation over 1e5 draws
    n = 10 ** 5
    z = LatentSeq(np.tile([1.0, 2.0], (n, 1)))
    out = noisy_condition(z, 0.7, 0.3, rng=np.random.default_rng(0))
    mean = out.frames.mean(axis=0)
    se = 0.3 / np.sqrt(n)
    assert np.all(np.abs(mean - [0.7, 1.4]) < 3 * se)
    var = out.frames.var(axis=0)
    assert np.all(np.abs(var - 0.09) < 0.05 * 0.09)


def test_noisy_condition_deterministic_given_seed():
    z = LatentSeq(np.arange(8.0).reshape(4, 2))
    a = noisy_condition(z, 0.5, 0.2, rng=np.random.default_rng(42))
    b = noisy_condition(z, 0.5, 0.2, rng=np.random.default_rng(42))
    assert np.array_equal(a.frames, b.frames)


@given(st.integers(0, 2 ** 31))
@settings(max_examples=25)
def test_noisy_condition_linear_when_noise_free(seed):
    g = np.random.default_rng(seed)
    z1 = LatentSeq(g.normal(size=(4, 3)))
    z2 = LatentSeq(g.normal(size=(4, 3)))
    alpha = float(g.uniform(0, 1))
    lhs = noisy_condition(LatentSeq(z1.frames + z2.frames), alpha, 0.0).frames
    rhs = noisy_condition(z1, alpha, 0.0).frames + noisy_condition(z2, alpha, 0.0).frames
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_noisy_condition_validates_inputs():
    z = LatentSeq(np.ones((2, 2)))
    with pytest.raises(InvalidInput):
        noisy_condition(z, 1.5, 0.0)
    with pytest.raises(InvalidInput):
        noisy_condition(z, 0.5, -1.0)


# ---------------------------------------------------------------------------
# boundary substitution
# ---------------------------------------------------------------------------

def test_substitute_single_frame():
    cur = LatentSeq(np.array([[9.0, 9.0], [2.0, 2.0]]))
    hist = LatentSeq(np.array([[1.0, 1.0]]))
    out = substitute_boundary(cur, hist)
    assert np.array_equal(out.frames, [[1, 1], [2, 2]])


def test_substitute_empty_history():
    cur = LatentSeq(np.ones((3, 2)))
    out = substitute_boundary(cur, LatentSeq(np.empty((0, 2))))
    assert np.array_equal(out.frames, cur.frames)


def test_substitute_two_of_five():
    g = np.random.default_rng(3)
    cur = LatentSeq(g.normal(size=(5, 3)))
    hist = LatentSeq(g.normal(size=(2, 3)))
    out = substitute_boundary(cur, hist)
    # element-wise comparison oracle
    for t in range(5):
        expected = hist.frames[t] if t < 2 else cur.frames[t]
        assert np.array_equal(out.frames[t], expected)


def test_substitute_idempotent():
    g = np.random.default_rng(4)
    cur = LatentSeq(g.normal(size=(6, 2)))
    hist = LatentSeq(g.normal(size=(2, 2)))
    once = substitute_boundary(cur, hist)
    twice = substitute_boundary(once, hist)
    assert np.array_equal(once.frames, twice.frames)


def test_substitute_rejects_mismatch():
    with pytest.raises(InvalidInput):
        substitute_boundary(LatentSeq(np.ones((3, 2))), LatentSeq(np.ones((1, 3))))
    with pytest.raises(InvalidInput):
        substitute_boundary(LatentSeq(np.ones((2, 2))), LatentSeq(np.ones((3, 2))))


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
    plan = build_plan(321, StridePolicy.test(8), 9, 1, alpha_c=0.7, sigma_c=0.3)
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
        shared = set(a.span()) & set(b.span())
        assert len(shared) == overlap
        assert history == sorted(shared)
        assert anchors == select_keyframes(plan.keyframes, b.start, b.end)


def test_plan_file_round_trip(tmp_path):
    plan = build_plan(33, StridePolicy.test(8), 9, 1, alpha_c=0.7, sigma_c=0.3)
    path = tmp_path / "plan.txt"
    save_plan(plan, path)
    back = load_plan(path)
    assert back.total_frames == plan.total_frames
    assert back.keyframes == plan.keyframes
    assert back.overlap == plan.overlap
    assert [(s.start, s.end) for s in back.segments] == \
        [(s.start, s.end) for s in plan.segments]
    assert list(segment_context(back)) == list(segment_context(plan))


_PLAN_FILE = {"total_frames": "9", "strides": "4", "overlap": "1", "alpha_c": "0.7",
              "sigma_c": "0.3", "keyframes": "0,4,8", "segments": "0:4,4:8"}


@pytest.mark.parametrize("key, value, message", [
    ("keyframes", "0,8,4", "keyframes are not sorted"),
    ("keyframes", "1,4,8", "first keyframe must be frame 0"),
    ("keyframes", "0,4,7", "last keyframe must be the final frame 8"),
    ("segments", "0:3,5:8", "coverage gap between segments 0 and 1"),
    ("segments", "0:4,3:8", "overlap in 2 frames, expected 1"),
    ("segments", "0:4,4:9", "segment 1 extends past the final frame"),
    ("segments", "", "plan has no segments"),
    ("overlap", None, "missing plan key 'overlap'"),
    ("keyframes", "", "plan fails validation: ['keyframe list is empty']"),
    ("segments", "0:4,8:4", "segment start must not exceed end"),
    ("segments", "0:4:8,4:8", "values to unpack"),
], ids=["unsorted", "first", "last", "gap", "overlap", "past_end", "no_segments",
        "missing_key", "no_keyframes", "reversed_span", "three_field_span"])
def test_load_plan_rejects_malformed(tmp_path, key, value, message):
    fields = {**_PLAN_FILE, key: value}
    path = tmp_path / "bad_plan.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in fields.items() if v is not None))
    with pytest.raises(InvalidInput) as exc:
        load_plan(path)
    assert str(exc.value).startswith(f"{path}: ")
    assert message in str(exc.value)
