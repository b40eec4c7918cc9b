import numpy as np
import pytest

from rollbound.core import InvalidInput, RolloutPlan
from rollbound.errormodel import (
    DAMPING_FACTOR,
    ar_upper_curve,
    bridge_mean,
    bridge_variance,
    leakage_peak,
    solve_damping_spline,
)
from rollbound import worldsim
from rollbound.schedule import StridePolicy, build_plan
from rollbound.seeding import derive_rng, derive_seed_sequence
from rollbound.worldsim import (
    KeyframeLatents,
    WorldConfig,
    bias_from_norm,
    compare_pipelines,
    dynamics_matrix,
    generate_keyframes,
    rollout_anchored,
    rollout_pure_ar,
    simulate_ground_truth,
    write_trace_csv,
)


def linear_world(dim=2, bias=0.0, noise=0.0, seed=0, control=None):
    return WorldConfig(dim=dim, lipschitz=1.0, bias=bias_from_norm(dim, bias),
                       noise_std=noise, control=control, seed=seed)


def anchor_errors(cfg, kf):
    """Each anchor's error norm against the world's ground truth."""
    gt = simulate_ground_truth(cfg, kf.indices[-1] + 1).frames
    return worldsim._anchor_error_norms(kf.values, gt, kf.indices)


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------

def test_ground_truth_fixed_point():
    cfg = WorldConfig(dim=3, x0=np.array([1.0, -2.0, 0.5]))
    gt = simulate_ground_truth(cfg, 10)
    assert np.allclose(gt.frames, np.tile([1.0, -2.0, 0.5], (10, 1)))


def test_ground_truth_integrator():
    cfg = WorldConfig(dim=2, control=np.array([1.0, 0.0]))
    gt = simulate_ground_truth(cfg, 6)
    assert np.allclose(gt.frames[:, 0], np.arange(6))
    assert np.allclose(gt.frames[:, 1], 0.0)


def test_ground_truth_geometric_decay():
    cfg = WorldConfig(dim=1, lipschitz=0.5, x0=np.array([1.0]))
    gt = simulate_ground_truth(cfg, 8)
    assert np.allclose(gt.frames[:, 0], 0.5 ** np.arange(8))


def test_dynamics_spectral_norm_matches_lipschitz():
    for kind in ("scaled_identity", "rotation"):
        cfg = WorldConfig(dim=5, lipschitz=1.3, dynamics=kind, seed=11)
        A = dynamics_matrix(cfg)
        assert np.linalg.norm(A, 2) == pytest.approx(1.3, abs=1e-6)


def test_controls_from_trajectory_embed_translation_velocity():
    from rollbound.core import Trajectory
    from rollbound.worldsim import controls_from_trajectory
    q = np.tile([1.0, 0.0, 0.0, 0.0], (5, 1))
    t = np.array([[2.0 * i, -i, 0.5 * i] for i in range(5)])
    u = controls_from_trajectory(Trajectory(np.arange(5), q, t), dim=4)
    assert u.shape == (4, 4)
    assert np.allclose(u[:, :3], [[2.0, -1.0, 0.5]] * 4)
    assert np.all(u[:, 3] == 0.0)
    with pytest.raises(InvalidInput):
        controls_from_trajectory(Trajectory([0, 3], q[[0, 3]], t[[0, 3]]), dim=4)


# ---------------------------------------------------------------------------
# pure autoregressive rollout
# ---------------------------------------------------------------------------

def test_pure_ar_bias_equality_case():
    # identity dynamics, aligned bias: the lower bound N*mu is attained
    cfg = linear_world(bias=0.01)
    trace = rollout_pure_ar(cfg, 321)
    assert trace.error_norms[-1] == pytest.approx(3.2, abs=1e-9)
    assert trace.error_norms[0] == 0.0


def test_pure_ar_zero_defect():
    trace = rollout_pure_ar(linear_world(), 50)
    assert np.all(trace.error_norms == 0.0)


def test_pure_ar_matches_geometric_closed_form():
    cfg = WorldConfig(dim=2, lipschitz=1.05, bias=bias_from_norm(2, 0.01))
    trace = rollout_pure_ar(cfg, 201)
    expect = 0.01 * (1.05 ** 200 - 1.0) / 0.05
    assert trace.error_norms[-1] == pytest.approx(expect, rel=1e-9)
    # in this linear world the Lipschitz bound is attained exactly
    bound = ar_upper_curve(1.05, 0.01, 201)[0][-1]
    assert trace.error_norms[-1] == pytest.approx(bound, rel=1e-9)
    assert trace.error_norms[-1] == pytest.approx(trace.bounds[-1], rel=1e-9)


def test_pure_ar_satisfies_exact_error_recursion():
    cfg = WorldConfig(dim=4, lipschitz=0.9, dynamics="rotation",
                      bias=np.array([0.01, 0.0, -0.02, 0.005]), noise_std=0.3, seed=3)
    n = 60
    trace = rollout_pure_ar(cfg, n)
    A = dynamics_matrix(cfg)
    err = trace.generated.frames - trace.ground_truth.frames
    # reconstruct the injected noise from consecutive errors; it must be
    # i.i.d.-sized, and the recursion residual must vanish
    assert np.allclose(err[0], 0.0)
    for t in range(n - 1):
        resid = err[t + 1] - (A @ err[t] + cfg.bias)
        assert np.linalg.norm(resid) < 10 * cfg.noise_std  # noise-sized
    assert np.allclose(np.linalg.norm(err, axis=1), trace.error_norms, atol=1e-12)


def test_pure_ar_deterministic_error_norms_match_recursion_exactly():
    cfg = WorldConfig(dim=3, lipschitz=1.02, dynamics="rotation",
                      bias=np.array([0.0, 0.01, 0.0]), seed=9)
    n = 80
    trace = rollout_pure_ar(cfg, n)
    A = dynamics_matrix(cfg)
    e = np.zeros(3)
    for t in range(1, n):
        e = A @ e + cfg.bias
        assert np.linalg.norm(e) == pytest.approx(trace.error_norms[t], abs=1e-9)


# ---------------------------------------------------------------------------
# keyframe generation
# ---------------------------------------------------------------------------

def test_keyframes_exact_when_cap_zero():
    cfg = linear_world(bias=0.05)
    kf = generate_keyframes(cfg, [0, 8, 16], "global", error_cap=0.0)
    assert np.all(anchor_errors(cfg, kf) == 0.0)


def test_keyframes_downsampled_accumulation():
    cfg = linear_world(bias=0.01)
    idx = list(range(0, 321, 8))
    kf = generate_keyframes(cfg, idx, "downsampled_ar")
    errs = anchor_errors(cfg, kf)
    assert errs[0] == 0.0
    assert errs[-1] == pytest.approx(0.4, abs=1e-9)
    assert np.allclose(errs, 0.01 * np.arange(len(idx)), atol=1e-9)


def test_keyframes_global_cap_respected_over_seeds():
    cfg = linear_world(dim=3)
    idx = [0, 8, 16, 24]
    worst = 0.0
    for seed in range(1000):
        kf = generate_keyframes(cfg, idx, "global", error_cap=0.1,
                                rng=np.random.default_rng(seed))
        worst = max(worst, float(anchor_errors(cfg, kf).max()))
    assert worst <= 0.1 + 1e-12


def test_anchor_error_norms_match_per_anchor_loop():
    # one batched expression, bit-identical to np.linalg.norm of each anchor's
    # row (a row sum or norm(axis=1) differs from it in some rows)
    g = np.random.default_rng(50)
    for d in (1, 2, 3, 4, 7):
        gt = g.normal(size=(400, d))
        idx = np.sort(g.choice(400, 300, replace=False))
        values = gt[idx] + g.normal(scale=g.uniform(1e-3, 10.0), size=(300, d))
        loop = [np.linalg.norm(v - gt[k]) for k, v in zip(idx, values)]
        assert np.array_equal(worldsim._anchor_error_norms(values, gt, idx), loop)
    cfg = WorldConfig(dim=3, dynamics="rotation", bias=bias_from_norm(3, 0.01), seed=51)
    plan = build_plan(97, StridePolicy.test(4), 9, 1)
    kf = generate_keyframes(cfg, plan.keyframes, "global", error_cap=0.1,
                            rng=np.random.default_rng(51))
    gt = simulate_ground_truth(cfg, plan.total_frames).frames
    loop = [np.linalg.norm(v - gt[k]) for k, v in zip(kf.indices, kf.values)]
    assert np.array_equal(anchor_errors(cfg, kf), loop)
    assert rollout_anchored(cfg, plan, kf).breakdown.anchor_term == max(loop)


def _loop_global_keyframes(gt, idx, error_cap, g):
    """The global anchors as a loop, anchor by anchor: each draws a
    direction, normalises it, then draws its radius. The reference the
    batched expression must match bit for bit."""
    vals = np.empty((len(idx), gt.shape[1]))
    vals[0] = gt[0]
    for j, k in enumerate(idx[1:], start=1):
        direction = g.standard_normal(gt.shape[1])
        norm = float(np.linalg.norm(direction))
        direction = direction / norm if norm > 0.0 else np.zeros(gt.shape[1])
        vals[j] = gt[k] + g.uniform(0.0, error_cap) * direction
    return vals


def test_global_keyframes_match_per_anchor_loop():
    g = np.random.default_rng(52)
    for dim in (1, 2, 3, 4):
        cfg = WorldConfig(dim=dim, dynamics="rotation", bias=bias_from_norm(dim, 0.01),
                          control=g.normal(size=dim), seed=dim)
        for cap in (0.0, 0.1, 3.0):
            idx = sorted({0, *g.choice(300, 40).tolist()})
            gt = simulate_ground_truth(cfg, idx[-1] + 1).frames
            kf = generate_keyframes(cfg, idx, "global", error_cap=cap,
                                    rng=np.random.default_rng(dim))
            loop = _loop_global_keyframes(gt, idx, cap, np.random.default_rng(dim))
            assert kf.values.tobytes() == loop.tobytes(), (dim, cap)


def test_keyframes_require_zero_start():
    with pytest.raises(InvalidInput):
        generate_keyframes(linear_world(), [8, 16], "global")


@pytest.mark.parametrize("cap", [-0.1, np.nan, np.inf])
def test_keyframes_reject_bad_error_cap(cap):
    with pytest.raises(InvalidInput, match="error_cap must be finite and non-negative"):
        generate_keyframes(linear_world(), [0, 8, 16], "global", error_cap=cap)


@pytest.mark.parametrize("step_error", [-1.0, np.nan, np.inf])
def test_keyframes_reject_bad_step_error(step_error):
    with pytest.raises(InvalidInput, match="step_error must be finite and non-negative"):
        generate_keyframes(linear_world(), [0, 8, 16], "downsampled_ar", step_error=step_error)


@pytest.mark.parametrize("field, value", [
    ("lipschitz", np.nan), ("lipschitz", np.inf), ("lipschitz", -0.5),
    ("noise_std", np.nan), ("noise_std", np.inf),
    ("bias", [np.nan, 0.0]), ("x0", [0.0, np.inf]), ("control", [np.nan, 0.0]),
    ("control", [[0.0, 0.0], [0.0, -np.inf]]),
], ids=["lipschitz-nan", "lipschitz-inf", "lipschitz-negative", "noise_std-nan",
        "noise_std-inf", "bias-nan", "x0-inf", "control-nan", "control_schedule-inf"])
def test_world_config_rejects_bad_inputs_naming_the_field(field, value):
    with pytest.raises(InvalidInput, match=f"^{field} must be finite"):
        WorldConfig(dim=2, **{field: value})


# ---------------------------------------------------------------------------
# anchored interpolation rollout
# ---------------------------------------------------------------------------

def _plan(n=33, stride=8, seg_len=9, overlap=1):
    return build_plan(n, StridePolicy.test(stride), seg_len, overlap)


def test_anchored_linear_truth_reproduced_exactly():
    # linear-in-time ground truth is recovered by anchor interpolation
    cfg = linear_world(control=np.array([0.3, -0.2]), seed=5)
    plan = _plan()
    kf = generate_keyframes(cfg, plan.keyframes, "global", error_cap=0.0)
    trace = rollout_anchored(cfg, plan, kf)
    assert np.max(trace.error_norms) < 1e-12


def test_anchored_anchoring_invariant():
    cfg = linear_world(bias=0.01, control=np.array([0.1, 0.0]), seed=6)
    plan = _plan()
    kf = generate_keyframes(cfg, plan.keyframes, "downsampled_ar")
    kf_err = anchor_errors(cfg, kf)
    trace = rollout_anchored(cfg, plan, kf, sigma_int=0.4, velocity_error=0.7, seed=123)
    for j, k in enumerate(plan.keyframes):
        assert trace.error_norms[k] == pytest.approx(kf_err[j], abs=1e-12)


def test_anchored_leakage_peaks_match_spline_and_halve():
    cfg = linear_world(control=np.array([0.25, 0.0]), seed=7)
    plan = _plan(n=65, stride=8, seg_len=9, overlap=1)
    kf = generate_keyframes(cfg, plan.keyframes, "global", error_cap=0.0)
    trace = rollout_anchored(cfg, plan, kf, velocity_error=1.0)
    dev = trace.generated.frames[:, 0] - trace.ground_truth.frames[:, 0]
    intervals = list(zip(plan.keyframes, plan.keyframes[1:]))
    unit = solve_damping_spline(8.0, 1.0)
    dv = 1.0
    for lo, hi in intervals:
        seg = dev[lo:hi + 1]
        expect = unit.value(np.arange(9.0)) * dv
        assert np.allclose(seg, expect, atol=1e-12)
        # discrete peak stays below the continuous one
        assert np.max(np.abs(seg)) <= leakage_peak(8.0, dv)[1] + 1e-12
        dv *= -0.5
    # alternating sign of the excursion across segments
    signs = [np.sign(dev[lo + 3]) for lo, _ in intervals]
    assert signs == [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0]


def test_anchored_error_decomposition_round_trip():
    cfg = linear_world(control=np.array([0.2, -0.1]), seed=8)
    plan = _plan()
    kf = generate_keyframes(cfg, plan.keyframes, "global", error_cap=0.2,
                            rng=np.random.default_rng(12))
    dv0 = np.array([0.6, -0.3])
    trace = rollout_anchored(cfg, plan, kf, velocity_error=dv0)
    gt = trace.ground_truth.frames
    gen = trace.generated.frames
    lookup = kf.lookup()
    intervals = list(zip(plan.keyframes, plan.keyframes[1:]))
    for j, (lo, hi) in enumerate(intervals):
        T = hi - lo
        e_left = lookup[lo] - gt[lo]
        e_right = lookup[hi] - gt[hi]
        unit = solve_damping_spline(float(T), 1.0)
        dv_j = dv0 * (-0.5) ** j
        for t in range(lo, hi + 1):
            tau = float(t - lo)
            leak = unit.value(tau) * dv_j
            rebuilt = bridge_mean(tau, float(T), e_left, e_right) + leak
            assert np.allclose(gen[t] - gt[t], rebuilt, atol=1e-9)


def test_anchored_bound_dominates_deterministic_runs():
    cfg = linear_world(bias=0.02, control=np.array([0.15, 0.05]), seed=9)
    plan = build_plan(321, StridePolicy.test(8), 9, 1)
    kf = generate_keyframes(cfg, plan.keyframes, "downsampled_ar")
    trace = rollout_anchored(cfg, plan, kf, velocity_error=0.5)
    assert np.all(trace.error_norms <= trace.bounds + 1e-9)
    assert trace.breakdown.total == pytest.approx(trace.bounds[0])


def test_anchored_overlap_frames_bit_identical():
    cfg = linear_world(control=np.array([0.3, 0.1]), seed=10)
    plan = _plan(n=33, stride=8, seg_len=6, overlap=1)  # windows cross anchors
    kf = generate_keyframes(cfg, plan.keyframes, "global", error_cap=0.1,
                            rng=np.random.default_rng(2))
    trace = rollout_anchored(cfg, plan, kf, sigma_int=0.5, velocity_error=0.4,
                         seed=77, collect_segments=True)
    chunks = dict(trace.segment_chunks)
    segs = plan.segments
    for prev, cur in zip(segs, segs[1:]):
        prev_chunk = chunks[prev.start]
        cur_chunk = chunks[cur.start]
        shared = range(cur.start, prev.end + 1)
        for t in shared:
            a = prev_chunk[t - prev.start]
            b = cur_chunk[t - cur.start]
            assert np.array_equal(a, b)  # bitwise


def test_anchored_substitution_off_breaks_overlap_identity():
    cfg = linear_world(control=np.array([0.3, 0.1]), seed=10)
    plan = _plan(n=33, stride=8, seg_len=6, overlap=1)
    kf = generate_keyframes(cfg, plan.keyframes, "global", error_cap=0.1,
                            rng=np.random.default_rng(2))
    trace = rollout_anchored(cfg, plan, kf, sigma_int=0.5, velocity_error=0.4,
                         seed=77, substitution=False, collect_segments=True)
    chunks = dict(trace.segment_chunks)
    segs = plan.segments
    diffs = 0
    for prev, cur in zip(segs, segs[1:]):
        a = chunks[prev.start][cur.start - prev.start]
        b = chunks[cur.start][0]
        diffs += int(not np.array_equal(a, b))
    assert diffs > 0


def _boundary_second_differences(trace, keyframes):
    x = trace.generated.frames
    out = []
    for k in keyframes[1:-1]:
        dd = x[k + 1] - 2.0 * x[k] + x[k - 1]
        out.append(float(np.linalg.norm(dd)))
    return np.array(out)


def test_momentum_off_does_not_reduce_boundary_discontinuity():
    # momentum off: the incoming velocity error is ridden and snapped back at
    # the first anchor instead of being smoothly damped; the junction that
    # receives it gets strictly rougher, and the total junction roughness
    # never drops (later junctions see no incoming error at all, so they are
    # trivially smooth in the off mode)
    cfg = linear_world(control=np.array([0.2, 0.0]), seed=11)
    plan = _plan(n=33, stride=8, seg_len=9, overlap=1)
    kf = generate_keyframes(cfg, plan.keyframes, "global", error_cap=0.0)
    on = rollout_anchored(cfg, plan, kf, velocity_error=1.0, momentum=True)
    off = rollout_anchored(cfg, plan, kf, velocity_error=1.0, momentum=False)
    dd_on = _boundary_second_differences(on, plan.keyframes)
    dd_off = _boundary_second_differences(off, plan.keyframes)
    assert dd_off[0] > dd_on[0]
    assert dd_off.sum() >= dd_on.sum()


def _loop_layout(plan, dv0, sigma_int, momentum, substitution):
    """The anchored layout as loops, window by window and interval by
    interval: segment ids, drawn frames, cuts, marginal counts and draw
    scales, and the velocity hand-off rows with the leakage they give. The
    reference _AnchoredLayout must match bit for bit."""
    n, p = plan.total_frames, plan.overlap
    kf = np.array(plan.keyframes)
    t = np.arange(n)
    j = np.minimum(np.searchsorted(kf, t, side="right") - 1, max(len(kf) - 2, 0))
    T, tau = (kf[j + 1] - kf[j], t - kf[j]) if len(kf) > 1 else (np.zeros(n, int),) * 2
    dvs, leak = np.empty((max(len(kf) - 1, 0), len(dv0))), None
    dv = dv0
    for i in range(len(dvs)):
        dvs[i] = dv
        dv = DAMPING_FACTOR * dv if substitution else np.zeros(len(dv0))
    if momentum and len(kf) > 1:
        shape = np.empty(n)
        for length in np.unique(T).tolist():
            rows = T == length
            shape[rows] = solve_damping_spline(length, 1.0).value(tau[rows])
        leak = shape[:, None] * dvs[j]
    is_kf = np.zeros(n, dtype=bool)
    is_kf[kf] = True
    seg_ids = np.zeros(n, dtype=int)
    frames, marginal = [], []
    for si, seg in enumerate(plan.segments):
        gen_from = min(seg.start + p, seg.end + 1) if si > 0 and substitution else seg.start
        seg_ids[gen_from:seg.end + 1] = si
        span = t[gen_from:seg.end + 1]
        span = span[~is_kf[span]]
        redraw = si > 0 and not substitution
        marginal.append(int(np.count_nonzero(span < seg.start + p)) if redraw else 0)
        frames.append(span)
    draw_frames = np.concatenate(frames)
    cuts = np.cumsum([0] + [len(f) for f in frames])
    remaining = kf[j[draw_frames] + 1] - (draw_frames - 1)
    scale = sigma_int * np.sqrt((remaining - 1) / remaining)
    for start, m in zip(cuts.tolist(), marginal):
        for r in range(start, start + m):
            f = draw_frames[r]
            scale[r] = np.sqrt(bridge_variance(tau[f], T[f], sigma_int))
    return dict(seg_ids=seg_ids, draw_frames=draw_frames, cuts=cuts, marginal=marginal,
                draw_scale=scale, leak=leak), dvs


def test_anchored_layout_matches_loop_reference():
    g = np.random.default_rng(53)
    cases = [(RolloutPlan(33, (0, 8, 16, 24, 32), 9, 1), np.array([2.0, -4.0]))]
    for _ in range(200):
        n = int(g.integers(1, 120))
        kf = sorted({0, n - 1, *g.choice(n, int(g.integers(0, n // 2 + 1))).tolist()})
        seg_len = int(g.integers(1, 15))
        plan = RolloutPlan(n, tuple(kf), seg_len, int(g.integers(0, seg_len)))
        # magnitudes from subnormal to large: the hand-off rounds as the loop did
        dv0 = g.choice([-1.0, 1.0], 3) * np.ldexp(g.uniform(1.0, 2.0, 3),
                                                   g.integers(-1080, 30, 3))
        cases.append((plan, dv0))
    for i, (plan, dv0) in enumerate(cases):
        for momentum in (True, False):
            for substitution in (True, False):
                sigma_int = 0.0 if i % 3 == 0 else 0.3
                layout = worldsim._AnchoredLayout(plan, len(dv0), sigma_int, dv0,
                                                  momentum, substitution)
                expected, dvs = _loop_layout(plan, dv0, sigma_int, momentum, substitution)
                assert layout.marginal == expected.pop("marginal")
                leak = expected.pop("leak")
                if momentum:
                    assert (layout.leak is None) == (leak is None)
                    assert leak is None or layout.leak.tobytes() == leak.tobytes()
                for name, want in expected.items():
                    got = getattr(layout, name)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
                        (name, plan, momentum, substitution)
                if i == 0 and substitution:
                    # the hand-off halves the velocity error and flips its sign
                    assert dvs[:3].tolist() == [[2.0, -4.0], [-1.0, 2.0], [0.5, -1.0]]


def test_anchored_rejects_missing_anchors():
    cfg = linear_world()
    plan = _plan()
    kf = KeyframeLatents((0, 8), np.zeros((2, 2)))
    with pytest.raises(InvalidInput, match="missing plan anchors"):
        rollout_anchored(cfg, plan, kf)


@pytest.mark.parametrize("name, value", [
    ("sigma_int", np.nan), ("sigma_int", np.inf), ("velocity_error", np.nan),
    ("velocity_error", [0.1, np.inf]),
], ids=["sigma_int-nan", "sigma_int-inf", "velocity_error-nan", "velocity_error-vector-inf"])
def test_anchored_rejects_non_finite_inputs(name, value):
    cfg = linear_world()
    plan = _plan()
    kf = generate_keyframes(cfg, plan.keyframes, "global")
    with pytest.raises(InvalidInput, match=f"^{name} must be finite"):
        rollout_anchored(cfg, plan, kf, **{name: value})


def test_anchored_huge_sigma_int_without_substitution_is_invalid_input():
    # the overlap redraws' variance sigma_int**2 exceeds the float range: it
    # reads inf, and the rollout rejects its non-finite frames without an
    # OverflowError or a numpy warning
    assert bridge_variance(2.0, 4.0, 1e200) == np.inf
    cfg = linear_world()
    plan = _plan(n=33, stride=8, seg_len=6, overlap=1)
    kf = generate_keyframes(cfg, plan.keyframes, "global")
    with pytest.raises(InvalidInput, match="latent frames must be finite"):
        rollout_anchored(cfg, plan, kf, sigma_int=1e200, substitution=False)


def test_trace_csv_schema(tmp_path):
    cfg = linear_world(bias=0.01, seed=12)
    plan = _plan()
    kf = generate_keyframes(cfg, plan.keyframes, "downsampled_ar")
    trace = rollout_anchored(cfg, plan, kf)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("frame, err_norm, bound_total, anchor, leakage, noise, "
                        "is_keyframe, segment_id")
    assert len(lines) == plan.total_frames + 1
    assert all(len(line.split(",")) == 8 for line in lines[1:])


# ---------------------------------------------------------------------------
# pipeline comparison
# ---------------------------------------------------------------------------

def test_compare_bounded_vs_linear_growth():
    cfg = linear_world(bias=0.01, seed=13)
    plan = build_plan(161, StridePolicy.test(8), 9, 1)
    rep = compare_pipelines(cfg, plan, "global", trials=1, kf_error_cap=0.05)
    ar = rep.ar_mean_error
    dc = rep.anchored_mean_error
    assert ar[-1] == pytest.approx(1.6, abs=1e-9)  # linear growth 160 * 0.01
    assert np.max(dc) <= 0.05 + 1e-9               # anchored stays bounded


def test_compare_t_fold_suppression():
    cfg = linear_world(bias=0.01, seed=14)
    plan = build_plan(321, StridePolicy.test(8), 9, 1)
    rep = compare_pipelines(cfg, plan, "downsampled_ar", trials=1)
    ratio = rep.final_ratio()
    assert 6.4 <= ratio <= 9.6


def test_compare_zero_defect_world():
    cfg = linear_world(seed=15)
    plan = _plan()
    for sc in ("global", "downsampled_ar"):
        rep = compare_pipelines(cfg, plan, sc, trials=2)
        assert np.all(rep.ar_mean_error == 0.0)
        assert np.all(rep.anchored_mean_error == 0.0)


def test_compare_deterministic_and_block_invariant(monkeypatch):
    # trials run batched on per-trial streams: the result depends on the seed
    # alone, not on how trials are grouped into blocks
    cfg = linear_world(bias=0.005, noise=0.1, seed=16)
    plan = _plan(n=49)
    kw = dict(scenario="global", trials=4, sigma_int=0.2, kf_error_cap=0.03)
    a = compare_pipelines(cfg, plan, **kw)
    b = compare_pipelines(cfg, plan, **kw)
    monkeypatch.setattr(worldsim, "TRIAL_BLOCK", 3)
    c = compare_pipelines(cfg, plan, **kw)
    for other in (b, c):
        assert np.array_equal(a.ar_mean_error, other.ar_mean_error)
        assert np.array_equal(a.ar_mse, other.ar_mse)
        assert np.array_equal(a.anchored_mean_error, other.anchored_mean_error)
        assert np.array_equal(a.anchored_mse, other.anchored_mse)


def test_noiseless_interpolation_derives_no_noise_streams(monkeypatch):
    # with sigma_int = 0 each bridge kick is 0 * eps: no stream is derived,
    # except for substitution off, whose marginal redraw rows keep the sign
    # of eps in 0 * eps
    labels = []

    def spy(seed, label, index=0):
        labels.append(label)
        return derive_rng(seed, label, index)

    monkeypatch.setattr(worldsim, "derive_rng", spy)
    cfg = linear_world(bias=0.01, noise=0.02, seed=19)
    plan = _plan(n=65, stride=8, seg_len=9, overlap=2)
    kw = dict(scenario="global", trials=3, velocity_error=0.4, kf_error_cap=0.05)
    compare_pipelines(cfg, plan, sigma_int=0.0, **kw)
    assert "interp-noise" not in labels
    compare_pipelines(cfg, plan, sigma_int=0.1, **kw)
    assert labels.count("interp-noise") == 3 * len(plan.segments)
    kf = generate_keyframes(cfg, plan.keyframes, "global", error_cap=0.05)
    labels.clear()
    rollout_anchored(cfg, plan, kf, substitution=False)
    assert labels.count("interp-noise") == len(plan.segments)


@pytest.mark.parametrize("dim, trials", [(2, 3), (3, worldsim.TRIAL_BLOCK + 1), (4, 5)])
def test_batched_engine_matches_standalone_rollouts(dim, trials):
    # every trial of the batched engine equals the standalone rollouts on that
    # trial's derived streams, so the trial-order sums agree bit for bit
    cfg = WorldConfig(dim=dim, lipschitz=1.0, dynamics="rotation",
                      bias=bias_from_norm(dim, 0.01), noise_std=0.05, seed=40 + dim)
    plan = build_plan(41, StridePolicy.test(8), 9, 1)
    n, base, scenarios = plan.total_frames, 17, ("global", "downsampled_ar")
    kw = dict(sigma_int=0.1, velocity_error=0.3)
    reps = {sc: compare_pipelines(cfg, plan, sc, trials=trials, seed=base, kf_error_cap=0.05,
                                  **kw) for sc in scenarios}
    sums = {key: np.zeros((2, n)) for key in ("ar",) + scenarios}
    for i in range(trials):
        traces = {"ar": rollout_pure_ar(cfg, n, rng=derive_rng(base, "trial-ar", i))}
        for sc in scenarios:
            kf = generate_keyframes(cfg, plan.keyframes, sc, error_cap=0.05,
                                    rng=derive_rng(base, f"trial-kf-{sc}", i))
            child = int(derive_seed_sequence(base, f"trial-anchored-{sc}", i)
                        .generate_state(1)[0])
            traces[sc] = rollout_anchored(cfg, plan, kf, seed=child, **kw)
        for key, tr in traces.items():
            sums[key][0] += tr.error_norms
            sums[key][1] += tr.error_norms ** 2
        if i == 0:
            first = {"ar": reps["global"].trial0_ar,
                     **{sc: rep.trial0_anchored for sc, rep in reps.items()}}
            for key, tr in traces.items():
                assert np.array_equal(first[key].generated.frames, tr.generated.frames)
                assert np.array_equal(first[key].error_norms, tr.error_norms)
                assert np.array_equal(first[key].bounds, tr.bounds)
    for sc, rep in reps.items():
        assert np.array_equal(rep.ar_mean_error, sums["ar"][0] / trials)
        assert np.array_equal(rep.ar_mse, sums["ar"][1] / trials)
        assert np.array_equal(rep.anchored_mean_error, sums[sc][0] / trials)
        assert np.array_equal(rep.anchored_mse, sums[sc][1] / trials)
