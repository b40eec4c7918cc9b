import itertools
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from rollbound.schedule import build_plan, partition_segments
from rollbound.seeding import child_seed, derive_rng
from rollbound.worldsim import (
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


def anchor_errors(cfg, idx, anchors):
    """Each anchor's error norm against the world's ground truth, for the
    (K, d) anchors at the sorted frames idx, measured as the error columns
    are."""
    gt = simulate_ground_truth(cfg, idx[-1] + 1)
    return worldsim._error_norms(anchors[:, None], gt[list(idx)])[0]


def _keyframe_plan(idx):
    """A one-window plan with keyframes idx, sorted from frame 0 to its final
    frame."""
    return RolloutPlan(idx[-1] + 1, idx, idx[-1] + 1, 0)


def _windows(plan):
    """The plan's window starts and ends, as lists of ints."""
    starts, ends = partition_segments(plan)
    return starts.tolist(), ends.tolist()


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------

def test_ground_truth_fixed_point():
    cfg = WorldConfig(dim=3, x0=np.array([1.0, -2.0, 0.5]))
    gt = simulate_ground_truth(cfg, 10)
    assert np.allclose(gt, np.tile([1.0, -2.0, 0.5], (10, 1)))


def test_ground_truth_integrator():
    cfg = WorldConfig(dim=2, control=np.array([1.0, 0.0]))
    gt = simulate_ground_truth(cfg, 6)
    assert np.allclose(gt[:, 0], np.arange(6))
    assert np.allclose(gt[:, 1], 0.0)


def test_ground_truth_geometric_decay():
    cfg = WorldConfig(dim=1, lipschitz=0.5, x0=np.array([1.0]))
    gt = simulate_ground_truth(cfg, 8)
    assert np.allclose(gt[:, 0], 0.5 ** np.arange(8))


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


def _propagate_loop(A, x0, u, b, eps):
    """The world recursion one frame at a time: x[t+1] = A @ x[t] + u[t],
    then + b, then + eps[t] (b and eps None for the ground truth)."""
    x = [x0]
    for t in range(len(u)):
        nxt = A @ x[-1] + u[t]
        if b is not None:
            nxt = nxt + b
            if eps is not None:
                nxt = nxt + eps[t]
        x.append(nxt)
    return np.array(x)


@pytest.mark.parametrize("dynamics, lipschitz", [("scaled_identity", 1.0),
                                                 ("rotation", 0.97)])
@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_world_propagation_matches_frame_loop_bit_for_bit(dynamics, lipschitz, noise):
    # identity dynamics run as running sums, any other A as a matmul per
    # step: both must equal the plain frame loop, over two trial blocks
    n, d = 60, 3
    g = np.random.default_rng(70)
    control = g.normal(scale=0.1, size=(n - 1, d))
    control[::7, 0] = -0.0
    cfg = WorldConfig(dim=d, lipschitz=lipschitz, dynamics=dynamics,
                      bias=np.array([0.01, -0.02, 0.0]), noise_std=noise,
                      x0=np.array([-0.0, 1.5, -2.0]), control=control, seed=71)
    A = dynamics_matrix(cfg)
    assert np.array_equal(A, np.eye(d)) == (dynamics == "scaled_identity")

    def streams():
        return [np.random.default_rng(s) for s in range(worldsim.TRIAL_BLOCK + 1)]

    rngs = streams()
    world = worldsim._World(cfg, n, rngs[:worldsim.TRIAL_BLOCK])
    blocks = [world.take_rollouts(), world.ar_rollouts(rngs[worldsim.TRIAL_BLOCK:])]
    rollouts = np.concatenate(blocks, axis=1)

    truth = _propagate_loop(A, cfg.x0, control, None, None)
    assert world.gt.tobytes() == truth.tobytes()  # the sign of zero too
    for i, rng in enumerate(streams()):
        eps = rng.standard_normal((n - 1, d)) * noise if noise > 0.0 else None
        expect = _propagate_loop(A, cfg.x0, control, cfg.bias, eps)
        np.testing.assert_array_equal(rollouts[:, i], expect)
        assert rollouts[:, i].tobytes() == expect.tobytes()


def _matmul_and_adds_loop(A, x, u, b, noise):
    """The step loop as one batched matmul and three adds a frame: + u[t]
    on every row, then + b and + eps[t] on the rollout rows (rows 1..)."""
    x = x.copy()
    for t in range(len(x) - 1):
        x[t + 1] = np.matmul(A, x[t][..., None])[..., 0]
        x[t + 1] += u[t]
        if x.shape[1] > 1:
            x[t + 1, 1:] += b
            if noise is not None:
                x[t + 1, 1:] += noise[:, t]
    return x


class _FixedRows:
    """A stand-in generator: standard_normal(out=...) hands out the rows of a
    fixed array in order, -0.0 entries included."""

    def __init__(self, rows):
        self.rows, self.at = rows, 0

    def standard_normal(self, out):
        out[:] = self.rows[self.at:self.at + len(out)]
        self.at += len(out)


@pytest.mark.parametrize("rows, noisy", [(1, False), (4, False), (4, True)],
                         ids=["truth-only", "noiseless", "noisy"])
@pytest.mark.parametrize("case", ["rotation", "identity", "zero-matrix", "signed-zeros",
                                  "signed-zeros-identity", "overflow", "overflow-identity"])
@pytest.mark.parametrize("frame_block", [3, worldsim.FRAME_BLOCK])
def test_matmul_steps_match_matmul_and_three_adds(monkeypatch, rows, noisy, case,
                                                   frame_block):
    # both reductions of the engine's terms stack, one matmul and one ordered
    # sum a frame for any A and running sums for A = I, give the frame loop's
    # bits: the sign of zero, infinities and NaNs included, in blocks of 3
    # frames too
    monkeypatch.setattr(worldsim, "FRAME_BLOCK", frame_block)
    n, d = 80, 3
    g = np.random.default_rng(81)
    if case.endswith("identity"):
        A = np.eye(d)
    else:
        lipschitz = {"zero-matrix": 0.0, "overflow": 1.05}.get(case, 0.97)
        A = dynamics_matrix(WorldConfig(dim=d, lipschitz=lipschitz, dynamics="rotation",
                                        seed=82))
    x0 = g.normal(size=d)
    u, b = g.normal(scale=0.1, size=(n - 1, d)), g.normal(scale=0.01, size=d)
    draws = g.normal(size=(rows - 1, n - 1, d))
    if case.startswith(("zero-matrix", "signed-zeros")):
        u[::2], b[1] = -0.0, -0.0
        draws[:, 1::3] = -0.0
    if case.startswith("signed-zeros"):
        x0[:], u[:] = -0.0, -0.0
    if case.startswith("overflow"):
        x0[:] = 1e307
    if case == "overflow-identity":
        u += 3e306  # the identity keeps x0: the controls carry it past the float range
    cfg = WorldConfig(dim=d, bias=b, noise_std=0.05 if noisy else 0.0, x0=x0)
    x = np.empty((n, rows, d))
    x[0] = x0
    world = SimpleNamespace(A=A, u=u, cfg=cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        expect = _matmul_and_adds_loop(A, x, u, b, draws * cfg.noise_std if noisy else None)
        x = worldsim._World._propagate(world, [_FixedRows(r) for r in draws])
    if case == "overflow":
        assert not np.isfinite(x[-1]).any()
    if case != "overflow-identity":
        assert x.tobytes() == expect.tobytes()
        return
    # past the float range the identity's matmul reads 0 * inf as nan where
    # the running sum keeps inf: each row agrees with the loop up to its
    # first frame that is not finite, and no frame after it is finite
    bad = ~np.isfinite(x).all(axis=-1)
    assert bad[-1].all() and not np.isnan(x).any()
    for row, first in enumerate(bad.argmax(axis=0)):
        assert x[:first + 1, row].tobytes() == expect[:first + 1, row].tobytes()
        assert bad[first:, row].all()


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
    err = trace.generated - trace.ground_truth
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
    kf = generate_keyframes(cfg, _keyframe_plan([0, 8, 16]), "global", error_cap=0.0)
    assert np.all(anchor_errors(cfg, [0, 8, 16], kf) == 0.0)


def test_keyframes_downsampled_accumulation():
    cfg = linear_world(bias=0.01)
    idx = list(range(0, 321, 8))
    kf = generate_keyframes(cfg, _keyframe_plan(idx), "downsampled_ar")
    errs = anchor_errors(cfg, idx, kf)
    assert errs[0] == 0.0
    assert errs[-1] == pytest.approx(0.4, abs=1e-9)
    assert np.allclose(errs, 0.01 * np.arange(len(idx)), atol=1e-9)


def test_keyframes_global_cap_respected_over_seeds():
    cfg = linear_world(dim=3)
    idx = [0, 8, 16, 24]
    worst = 0.0
    for seed in range(1000):
        kf = generate_keyframes(cfg, _keyframe_plan(idx), "global", error_cap=0.1,
                                rng=np.random.default_rng(seed))
        worst = max(worst, float(anchor_errors(cfg, idx, kf).max()))
    assert worst <= 0.1 + 1e-12


def test_anchor_error_norms_match_per_anchor_loop():
    # the error columns' norm, bit-identical to the ordered norm of each
    # anchor's row (np.linalg.norm of a 1-d row is a BLAS dot, which may
    # differ from it in the last bit)
    g = np.random.default_rng(50)
    for d in (1, 2, 3, 4, 7):
        gt = g.normal(size=(400, d))
        idx = np.sort(g.choice(400, 300, replace=False))
        values = gt[idx] + g.normal(scale=g.uniform(1e-3, 10.0), size=(300, d))
        loop = [np.linalg.norm(v - gt[k], axis=-1) for k, v in zip(idx, values)]
        assert np.array_equal(worldsim._error_norms(values[:, None], gt[idx])[0], loop)
    cfg = WorldConfig(dim=3, dynamics="rotation", bias=bias_from_norm(3, 0.01), seed=51)
    plan = build_plan(97, 4, 9, 1)
    kf = generate_keyframes(cfg, plan, "global", error_cap=0.1,
                            rng=np.random.default_rng(51))
    gt = simulate_ground_truth(cfg, plan.total_frames)
    loop = [np.linalg.norm(v - gt[k], axis=-1) for k, v in zip(plan.keyframes, kf)]
    assert np.array_equal(anchor_errors(cfg, plan.keyframes, kf), loop)
    assert rollout_anchored(cfg, plan, kf).breakdown.anchor_term == max(loop)


def test_printed_bound_holds_at_every_keyframe_without_a_tolerance():
    # a deterministic anchored run's keyframe frames are its anchors, so its
    # keyframe errors are the anchor term's own norms: none exceeds the
    # printed bound, and with no velocity error the largest equals the anchor
    # term, bit for bit, over 400 seeded worlds of either dynamics and either
    # scenario (a norm other than the error columns' misses both in some)
    g = np.random.default_rng(0)
    above, unequal = [], []
    for world in range(400):
        d = int(g.integers(1, 8))
        cfg = WorldConfig(dim=d, lipschitz=float(g.uniform(0.5, 1.2)),
                          dynamics=str(g.choice(["scaled_identity", "rotation"])),
                          bias=g.normal(size=d) * g.uniform(0.0, 0.1),
                          x0=g.uniform(-1e3, 1e3, d), control=g.normal(size=d),
                          seed=int(g.integers(2 ** 31)))
        seg_len = int(g.integers(2, 41))
        plan = build_plan(int(g.integers(2, 301)), int(g.integers(1, 41)), seg_len,
                          int(g.integers(0, seg_len)))
        velocity_error = 0.0 if g.random() < 0.5 else float(g.uniform(0.0, 1.0))
        tr = compare_pipelines(cfg, plan, str(g.choice(["global", "downsampled_ar"])),
                               velocity_error=velocity_error,
                               kf_error_cap=float(g.uniform(0.0, 1.0))).trial0_anchored
        kf = list(plan.keyframes)
        if np.any(tr.error_norms[kf] > tr.bounds[kf]):
            above.append(world)
        if velocity_error == 0.0 and tr.error_norms[kf].max() != tr.breakdown.anchor_term:
            unequal.append(world)
    assert above == [] and unequal == []


def _loop_global_keyframes(gt, idx, error_cap, g):
    """The global anchors of one trial as a loop, anchor by anchor: the
    generator draws all K-1 directions, then all K-1 radii; each anchor
    normalises its direction and scales it by its radius. The reference the
    batched expression must match bit for bit."""
    directions = g.standard_normal((len(idx) - 1, gt.shape[1]))
    radii = g.uniform(0.0, error_cap, len(idx) - 1)
    vals = np.empty((len(idx), gt.shape[1]))
    vals[0] = gt[0]
    for j, (k, direction, radius) in enumerate(zip(idx[1:], directions, radii), start=1):
        norm = float(np.linalg.norm(direction, axis=-1))
        direction = direction / norm if norm > 0.0 else np.zeros(gt.shape[1])
        vals[j] = gt[k] + radius * direction
    return vals


def _loop_downsampled_keyframes(cfg, gt, idx, step_error):
    """The downsampled-AR anchors as a loop, frame by frame: the anchor error
    starts at zero, steps as A @ err on every frame and gains the step
    vector (step_error, by default the drift norm, along the drift, or
    along the first axis for no drift) on each frame that closes a jump.
    The reference the truth's pass must match bit for bit; past the float
    range it reads inf or nan."""
    A = dynamics_matrix(cfg)
    bn = cfg.drift_norm()
    mu = bn if step_error is None else step_error
    direction = cfg.bias / bn if bn > 0.0 else np.eye(cfg.dim)[0]
    step_vec = mu * direction
    vals = np.empty((len(idx), cfg.dim))
    vals[0] = gt[0]
    err = np.zeros(cfg.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, len(idx)):
            for _ in range(idx[j] - idx[j - 1]):
                err = A @ err
            err = err + step_vec
            vals[j] = gt[idx[j]] + err
    return vals


def test_global_keyframes_match_per_anchor_loop():
    g = np.random.default_rng(52)
    for dim in (1, 2, 3, 4):
        cfg = WorldConfig(dim=dim, dynamics="rotation", bias=bias_from_norm(dim, 0.01),
                          control=g.normal(size=dim), seed=dim)
        for cap in (0.0, 0.1, 3.0):
            idx = sorted({0, *g.choice(300, 40).tolist()})
            gt = simulate_ground_truth(cfg, idx[-1] + 1)
            kf = generate_keyframes(cfg, _keyframe_plan(idx), "global", error_cap=cap,
                                    rng=np.random.default_rng(dim))
            loop = _loop_global_keyframes(gt, idx, cap, np.random.default_rng(dim))
            assert kf.tobytes() == loop.tobytes(), (dim, cap)


def test_downsampled_keyframes_match_the_jump_loop(monkeypatch):
    # the downsampled-AR anchors ride the truth's pass as one more row: the
    # anchors of generate_keyframes and compare_pipelines' trial 0 equal the
    # frame loop's, bit for bit, over seeded worlds of either dynamics with
    # controls, noisy rollouts and irregular plans past the step loop's
    # first block, at step errors from subnormal to 1e200; a world whose
    # anchors leave the float range is rejected by both
    anchors = []
    run = worldsim._AnchoredLayout.run

    def spy(layout, kv, seeds):
        anchors.append(kv[:, 0].copy())
        return run(layout, kv, seeds)

    monkeypatch.setattr(worldsim._AnchoredLayout, "run", spy)
    g = np.random.default_rng(56)
    equal = rejected = 0
    for world in range(80):
        # every tenth world grows its anchors by more than 1e300
        far = world % 10 == 9
        d = int(g.integers(1, 8))
        lipschitz = float(g.uniform(1.4, 1.5) if far else g.uniform(0.5, 1.5))
        n = int(g.integers(1100 if far else 2, 1500))
        bias = g.normal(size=d) * g.uniform(0.0, 0.1) if world % 5 else np.zeros(d)
        control = g.normal(size=d) if world % 2 else g.normal(size=(n - 1, d))
        x0 = g.uniform(-10.0, 10.0, d)
        if world % 3 == 0:
            x0[0] = -0.0  # anchor 0 is the true frame 0, sign of zero included
        cfg = WorldConfig(dim=d, lipschitz=lipschitz,
                          dynamics=str(g.choice(["scaled_identity", "rotation"])),
                          bias=bias, noise_std=float(g.uniform(0.0, 0.1)), x0=x0,
                          control=control, seed=int(g.integers(2 ** 31)))
        idx = sorted({0, n - 1, *g.choice(n, int(g.integers(0, n)) // 8).tolist()})
        plan = _keyframe_plan(idx)
        step_error = (None if world % 7 == 0
                      else float(10.0 ** g.uniform(150.0 if far else -323.0, 200.0)))
        loop = _loop_downsampled_keyframes(cfg, simulate_ground_truth(cfg, n), idx, step_error)
        calls = [lambda: generate_keyframes(cfg, plan, "downsampled_ar", step_error=step_error),
                 lambda: compare_pipelines(cfg, plan, "downsampled_ar",
                                           trials=int(g.integers(1, 4)),
                                           kf_step_error=step_error)]
        if not np.isfinite(loop).all():
            for call in calls:
                with pytest.raises(InvalidInput, match="keyframe values must be finite"):
                    call()
            rejected += 1
            continue
        kf = calls[0]()
        calls[1]()
        assert kf.tobytes() == loop.tobytes(), world
        assert anchors.pop().tobytes() == loop.tobytes(), world
        equal += 1
    assert equal >= 60 and rejected >= 5, (equal, rejected)


@pytest.mark.parametrize("trials", [1, 5, 33])
def test_global_keyframes_columns_match_one_trial_calls(trials):
    # each column of a trial block's anchors depends on its own generator
    # alone: it equals the one-trial call on that generator, bit for bit
    cfg = WorldConfig(dim=3, dynamics="rotation", bias=bias_from_norm(3, 0.01),
                      control=np.array([0.02, -0.01, 0.03]), seed=53)
    idx = list(range(0, 97, 8))
    world = worldsim._World(cfg, idx[-1] + 1)
    block = world.keyframes(idx, 0.1, [np.random.default_rng(s) for s in range(trials)])
    assert block.shape == (len(idx), trials, 3)
    for b in range(trials):
        one = world.keyframes(idx, 0.1, [np.random.default_rng(b)])
        assert block[:, b].tobytes() == one[:, 0].tobytes(), b


def test_global_keyframes_law():
    # an isotropic direction and a radius uniform on [0, cap]: over 5,120
    # anchors of a world at rest, each sample moment is within 4 standard
    # errors of its exact value
    d, cap, trials, K = 4, 0.2, 128, 41
    world = worldsim._World(WorldConfig(dim=d), K)
    kv = world.keyframes(list(range(K)), cap, [derive_rng(54, "law", i) for i in range(trials)])
    offsets = kv[1:].reshape(-1, d)
    N = len(offsets)
    radii = np.linalg.norm(offsets, axis=1)
    units = offsets / radii[:, None]

    def within(sample, exact, sd):
        assert abs(sample - exact) <= 4.0 * sd / np.sqrt(N), (sample, exact)

    within(radii.mean(), cap / 2, cap / np.sqrt(12.0))
    within(radii.var(), cap ** 2 / 12, cap ** 2 / np.sqrt(180.0))
    fourth = 3.0 / (d * (d + 2))  # E[u_i^4] of a uniform unit vector
    for u in units.T:
        within(u.mean(), 0.0, np.sqrt(1.0 / d))
        within(u.var(), 1.0 / d, np.sqrt(fourth - 1.0 / d ** 2))


def test_keyframes_reject_anchors_past_the_float_range():
    # 3**700 is past the float range: the downsampled anchors are rejected,
    # and numpy's overflow warnings stay inside
    cfg = WorldConfig(dim=2, lipschitz=3.0, bias=bias_from_norm(2, 0.01))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="keyframe values must be finite"):
            generate_keyframes(cfg, _keyframe_plan([0, 1, 701]), "downsampled_ar")


@pytest.mark.parametrize("cap", [-0.1, np.nan, np.inf])
def test_keyframes_reject_bad_error_cap(cap):
    with pytest.raises(InvalidInput, match="error_cap must be finite and non-negative"):
        generate_keyframes(linear_world(), _keyframe_plan([0, 8, 16]), "global", error_cap=cap)


@pytest.mark.parametrize("step_error", [-1.0, np.nan, np.inf])
def test_keyframes_reject_bad_step_error(step_error):
    with pytest.raises(InvalidInput, match="step_error must be finite and non-negative"):
        generate_keyframes(linear_world(), _keyframe_plan([0, 8, 16]), "downsampled_ar",
                           step_error=step_error)


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
    return build_plan(n, stride, seg_len, overlap)


def test_anchored_linear_truth_reproduced_exactly():
    # linear-in-time ground truth is recovered by anchor interpolation
    cfg = linear_world(control=np.array([0.3, -0.2]), seed=5)
    plan = _plan()
    kf = generate_keyframes(cfg, plan, "global", error_cap=0.0)
    trace = rollout_anchored(cfg, plan, kf)
    assert np.max(trace.error_norms) < 1e-12


def test_anchored_anchoring_invariant():
    cfg = linear_world(bias=0.01, control=np.array([0.1, 0.0]), seed=6)
    plan = _plan()
    kf = generate_keyframes(cfg, plan, "downsampled_ar")
    kf_err = anchor_errors(cfg, plan.keyframes, kf)
    trace = rollout_anchored(cfg, plan, kf, sigma_int=0.4, velocity_error=0.7, seed=123)
    for j, k in enumerate(plan.keyframes):
        assert trace.error_norms[k] == pytest.approx(kf_err[j], abs=1e-12)


def test_anchored_leakage_peaks_match_spline_and_halve():
    cfg = linear_world(control=np.array([0.25, 0.0]), seed=7)
    plan = _plan(n=65, stride=8, seg_len=9, overlap=1)
    kf = generate_keyframes(cfg, plan, "global", error_cap=0.0)
    trace = rollout_anchored(cfg, plan, kf, velocity_error=1.0)
    dev = trace.generated[:, 0] - trace.ground_truth[:, 0]
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
    kf = generate_keyframes(cfg, plan, "global", error_cap=0.2,
                            rng=np.random.default_rng(12))
    dv0 = np.array([0.6, -0.3])
    trace = rollout_anchored(cfg, plan, kf, velocity_error=dv0)
    gt = trace.ground_truth
    gen = trace.generated
    lookup = dict(zip(plan.keyframes, kf))
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
    plan = build_plan(321, 8, 9, 1)
    kf = generate_keyframes(cfg, plan, "downsampled_ar")
    trace = rollout_anchored(cfg, plan, kf, velocity_error=0.5)
    assert np.all(trace.error_norms <= trace.bounds + 1e-9)
    assert trace.breakdown.total == pytest.approx(trace.bounds[0])


@given(st.integers(1, 90), st.integers(1, 20), st.integers(1, 4), st.booleans(),
       st.lists(st.tuples(st.integers(1, 30), st.integers(0, 5)), min_size=1, max_size=3),
       st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_anchored_frames_do_not_depend_on_the_windows(n, stride, dim, momentum, layouts,
                                                      seed):
    # with substitution on, each window takes its overlap frames from its
    # predecessor and the bridge noise runs through them: the frames of a
    # rollout, and the anchored mean and MSE curves of a comparison, are the
    # same bits for every (segment_len, overlap), one window over the whole
    # horizon included
    cfg = WorldConfig(dim=dim, dynamics="rotation", bias=bias_from_norm(dim, 0.01),
                      control=np.full(dim, 0.1), seed=seed % 97)
    kf = build_plan(n, stride, 9, 1).keyframes
    anchors = generate_keyframes(cfg, _keyframe_plan(kf), "global", error_cap=0.1,
                                 rng=np.random.default_rng(seed))
    kw = dict(sigma_int=0.3, velocity_error=0.4)
    runs = []
    for seg_len, overlap in [(n, 0)] + [(s + o, o) for s, o in layouts]:
        plan = RolloutPlan(n, kf, seg_len, overlap)
        tr = rollout_anchored(cfg, plan, anchors, momentum=momentum, seed=seed, **kw)
        rep = compare_pipelines(cfg, plan, "global", trials=3, seed=seed, kf_error_cap=0.1,
                                **kw)
        runs.append([tr.generated.tobytes(), rep.anchored_mean_error.tobytes(),
                     rep.anchored_mse.tobytes()])
    assert all(run == runs[0] for run in runs[1:])


def test_anchored_substitution_off_breaks_overlap_identity():
    # without substitution a window generates its overlap frame again, its
    # bridge restarting from the marginal law: up to the first handed-over
    # frame the rollout is the one-window rollout bit for bit, and from there
    # the frames differ
    cfg = linear_world(control=np.array([0.3, 0.1]), seed=10)
    plan = _plan(n=33, stride=8, seg_len=6, overlap=1)
    kf = generate_keyframes(cfg, plan, "global", error_cap=0.1,
                            rng=np.random.default_rng(2))
    one_window = RolloutPlan(plan.total_frames, plan.keyframes, plan.total_frames, 0)
    kw = dict(sigma_int=0.5, velocity_error=0.4, seed=77)
    frames = {}
    for substitution in (True, False):
        for name, p in (("windows", plan), ("one", one_window)):
            tr = rollout_anchored(cfg, p, kf, substitution=substitution, **kw)
            frames[substitution, name] = tr.generated
    assert frames[True, "windows"].tobytes() == frames[True, "one"].tobytes()
    a, b = frames[False, "windows"], frames[False, "one"]
    handed = [start for start in _windows(plan)[0][1:] if start not in plan.keyframes]
    assert handed
    assert a[:handed[0]].tobytes() == b[:handed[0]].tobytes()
    diffs = sum(int(not np.array_equal(a[t], b[t])) for t in handed)
    assert not np.array_equal(a[handed[0]], b[handed[0]])
    assert diffs > 0


def _boundary_second_differences(trace, keyframes):
    x = trace.generated
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
    kf = generate_keyframes(cfg, plan, "global", error_cap=0.0)
    on = rollout_anchored(cfg, plan, kf, velocity_error=1.0, momentum=True)
    off = rollout_anchored(cfg, plan, kf, velocity_error=1.0, momentum=False)
    dd_on = _boundary_second_differences(on, plan.keyframes)
    dd_off = _boundary_second_differences(off, plan.keyframes)
    assert dd_off[0] > dd_on[0]
    assert dd_off.sum() >= dd_on.sum()


def _loop_rollout(plan, kv, seeds, sigma_int, dv0, momentum, substitution):
    """Anchored frames as one loop over frames, from the plan alone: each
    frame's segment id; its anchor interpolation plus velocity leakage,
    each interval's velocity error handed on from its predecessor's; then
    for each frame that is not a keyframe, in frame order, one bridge row of
    each trial's stream, w[t] = frac*w[t-1] + scale*eps, the product added to
    the kick; the frames are the field plus w, whose keyframe rows are +0.0.
    _AnchoredLayout.run must match it bit for bit. Returns the frames, the
    segment ids, the (frame, frac) of each bridge row and the hand-offs."""
    n, p, kf = plan.total_frames, plan.overlap, list(plan.keyframes)
    starts = _windows(plan)[0]
    d = len(dv0)
    rngs = [derive_rng(s, "interp-noise") for s in seeds]
    x = np.empty((n, len(seeds), d))
    seg_ids = np.zeros(n, dtype=int)
    w, rows, dvs, j, seg = np.zeros(x.shape[1:]), [], [dv0], 0, 0
    for f in range(n):
        # a frame's id is the last window that generates it: with
        # substitution a later window takes its overlap frames from its
        # predecessor
        while seg + 1 < len(starts) and starts[seg + 1] + (p if substitution else 0) <= f:
            seg += 1
        seg_ids[f] = seg
        if len(kf) == 1:
            x[f] = kv[0] + 0.0
            continue
        if j + 2 < len(kf) and f >= kf[j + 1]:
            j += 1
            # the hand-off needs the spline and the substituted clean boundary
            dvs.append(DAMPING_FACTOR * dvs[-1] if momentum and substitution
                       else np.zeros(d))
        T, tau = kf[j + 1] - kf[j], f - kf[j]
        shape = solve_damping_spline(T, 1.0).value(tau) if momentum else float(tau if tau < T
                                                                               else 0)
        x[f] = kv[j] * (1.0 - tau / T)
        x[f] += kv[j + 1] * (tau / T)
        x[f] += shape * dvs[j]
        if f in kf:
            w = np.zeros_like(w)
        elif sigma_int > 0.0:
            # without substitution each later window restarts the bridge at
            # its first frame, from the marginal law
            restart = not substitution and f in starts[1:]
            frac = 0.0 if restart else (kf[j + 1] - f) / (kf[j + 1] - f + 1)
            scale = (np.sqrt(bridge_variance(tau, T, sigma_int)) if restart
                     else sigma_int * np.sqrt(frac))
            kick = np.stack([g.standard_normal(d) for g in rngs]) * scale
            w = kick + w * frac
            rows.append((f, frac))
        x[f] += w
    return x, seg_ids, rows, dvs


def _assert_run_matches_loop(plan, kv, seeds, sigma_int, dv0, momentum, substitution):
    layout = worldsim._AnchoredLayout(plan, len(dv0), sigma_int, dv0, momentum, substitution)
    loop = _loop_rollout(plan, kv, seeds, sigma_int, dv0, momentum, substitution)
    case = (plan, sigma_int, dv0, momentum, substitution)
    assert layout.run(kv, seeds).tobytes() == loop[0].tobytes(), case
    assert layout.seg_ids.dtype == loop[1].dtype, case
    assert layout.seg_ids.tobytes() == loop[1].tobytes(), case
    return loop


def test_anchored_run_matches_frame_loop_bit_for_bit():
    # each run of equal-length anchor intervals, at most FRAME_BLOCK frames
    # long (or one interval), makes its field and advances its bridge at
    # once, one offset at a time: the frame loop's bits on irregular
    # keyframes, several runs, runs cut at FRAME_BLOCK frames or into single
    # intervals, a short (or one-frame) last interval, restarts, a
    # one-interval plan, one- and two-frame plans, velocity errors from
    # subnormal to large (the hand-off rounds as the loop's does), and -0.0
    # anchors under a zero velocity error and a subnormal sigma_int, whose
    # kicks round to +-0.0: at offset 1 the loop adds them to a +0.0
    # product, so a -0.0 kick reads +0.0, and so does a -0.0 field frame
    # plus that kick
    g = np.random.default_rng(83)
    plans = [RolloutPlan(1, (0,), 1, 0), RolloutPlan(2, (0, 1), 2, 0),
             RolloutPlan(40, (0, 39), 40, 0), RolloutPlan(40, (0, 39), 6, 2),
             RolloutPlan(33, (0, 8, 16, 24, 32), 9, 1),
             RolloutPlan(33, (0, 4, 8, 15, 22, 29, 32), 9, 1),
             RolloutPlan(33, (0, 4, 8, 15, 22, 29, 32), 5, 0),
             build_plan(30, 8, 9, 1), build_plan(47, 7, 10, 3), build_plan(20, 6, 5, 2),
             RolloutPlan(3001, (*range(0, 1500, 3), 1500, 2200, 2900, 3000), 9, 1)]
    fixed = len(plans)
    for _ in range(200):
        n = int(g.integers(1, 120))
        kf = sorted({0, n - 1, *g.choice(n, int(g.integers(0, n // 2 + 1))).tolist()})
        seg_len = int(g.integers(1, 15))
        plans.append(RolloutPlan(n, tuple(kf), seg_len, int(g.integers(0, seg_len))))
    for i, plan in enumerate(plans):
        trials, d = (1, 2) if i % 2 else (3, 3)
        kv = g.normal(size=(len(plan.keyframes), trials, d))
        kv[:, 0, :2] = -0.0
        seeds = [int(s) for s in g.integers(0, 2**31, trials)]
        subnormal_to_large = g.choice([-1.0, 1.0], d) * np.ldexp(g.uniform(1.0, 2.0, d),
                                                                 g.integers(-1080, 30, d))
        dv0s = (g.normal(size=d), subnormal_to_large, np.zeros(d))
        cases = itertools.product((True, False), (0.0, 0.3, 5e-324), range(3), (True, False))
        for k, (substitution, sigma_int, v, momentum) in enumerate(cases):
            # each named plan runs every case; a random plan one case of each
            # (substitution, sigma_int) pair, its velocity error and momentum
            # rotating with the plan
            if i < fixed or (v, momentum) == ((i + k // 6) % 3, (i + k // 6) % 2 == 0):
                _assert_run_matches_loop(plan, kv, seeds, sigma_int, dv0s[v], momentum,
                                         substitution)
    # the hand-off halves the velocity error and flips its sign
    dvs = _assert_run_matches_loop(plans[4], np.zeros((5, 1, 2)), [0], 0.0,
                                   np.array([2.0, -4.0]), True, True)[3]
    assert np.array(dvs).tolist() == [[2.0, -4.0], [-1.0, 2.0], [0.5, -1.0], [-0.25, 0.5]]


@given(st.integers(1, 120), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_bridge_rows_run_in_frame_order_and_restart_at_windows(n, substitution, data):
    # the frames match the frame loop, which reads one bridge row per frame
    # that is not a keyframe, in ascending order. Without substitution the
    # rows that restart the bridge (frac 0) are exactly the first frames of
    # the later windows that are not keyframes; with it no row restarts. A
    # continuing row has r >= 2 frames to its closing anchor, so
    # frac = (r - 1)/r >= 1/2
    kf = tuple(sorted({0, n - 1, *data.draw(st.lists(st.integers(0, n - 1), max_size=n))}))
    seg_len = data.draw(st.integers(1, 15))
    plan = RolloutPlan(n, kf, seg_len, data.draw(st.integers(0, seg_len - 1)))
    kv = np.random.default_rng(n).normal(size=(len(kf), 2, 2))
    _, _, rows, _ = _assert_run_matches_loop(plan, kv, [n, n + 1], 0.3, np.zeros(2), True,
                                             substitution)
    assert [f for f, _ in rows] == [f for f in range(n) if f not in kf]
    later = [s for s in _windows(plan)[0][1:] if s not in kf]
    assert [f for f, frac in rows if frac == 0.0] == ([] if substitution else later)
    assert all(frac >= 0.5 for _, frac in rows if frac != 0.0)


def test_anchored_rejects_missing_anchors():
    # one row per plan keyframe: too few rows, or rows of the wrong width,
    # are invalid input, and so is a non-finite anchor
    cfg = linear_world()
    plan = _plan()
    for anchors in (np.zeros((2, 2)), np.zeros((5, 3)), np.zeros(10)):
        with pytest.raises(InvalidInput, match=r"anchors must be a \(5, 2\) array, one row per"):
            rollout_anchored(cfg, plan, anchors)
    anchors = np.zeros((5, 2))
    anchors[3, 1] = np.nan
    with pytest.raises(InvalidInput, match="keyframe values must be finite"):
        rollout_anchored(cfg, plan, anchors)


@pytest.mark.parametrize("name, value", [
    ("sigma_int", np.nan), ("sigma_int", np.inf), ("velocity_error", np.nan),
    ("velocity_error", [0.1, np.inf]),
], ids=["sigma_int-nan", "sigma_int-inf", "velocity_error-nan", "velocity_error-vector-inf"])
def test_anchored_rejects_non_finite_inputs(name, value):
    cfg = linear_world()
    plan = _plan()
    kf = generate_keyframes(cfg, plan, "global")
    with pytest.raises(InvalidInput, match=f"^{name} must be finite"):
        rollout_anchored(cfg, plan, kf, **{name: value})


def test_anchored_huge_sigma_int_without_substitution_is_invalid_input():
    # the restart rows' variance sigma_int**2 exceeds the float range: it
    # reads inf, and the rollout rejects its non-finite frames without an
    # OverflowError or a numpy warning
    assert bridge_variance(2.0, 4.0, 1e200) == np.inf
    cfg = linear_world()
    plan = _plan(n=33, stride=8, seg_len=6, overlap=1)
    kf = generate_keyframes(cfg, plan, "global")
    with pytest.raises(InvalidInput, match="latent frames must be finite"):
        rollout_anchored(cfg, plan, kf, sigma_int=1e200, substitution=False)


def test_trace_csv_schema(tmp_path):
    cfg = linear_world(bias=0.01, seed=12)
    plan = _plan()
    kf = generate_keyframes(cfg, plan, "downsampled_ar")
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
    plan = build_plan(161, 8, 9, 1)
    rep = compare_pipelines(cfg, plan, "global", trials=1, kf_error_cap=0.05)
    ar = rep.ar_mean_error
    dc = rep.anchored_mean_error
    assert ar[-1] == pytest.approx(1.6, abs=1e-9)  # linear growth 160 * 0.01
    assert np.max(dc) <= 0.05 + 1e-9               # anchored stays bounded


def test_compare_t_fold_suppression():
    cfg = linear_world(bias=0.01, seed=14)
    plan = build_plan(321, 8, 9, 1)
    rep = compare_pipelines(cfg, plan, "downsampled_ar", trials=1)
    ratio = rep.ar_mean_error[-1] / rep.anchored_mean_error[-1]
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


@pytest.mark.parametrize("dim", [1, 3])
def test_error_norm_past_1e154_stays_finite_and_within_bound(dim):
    # from about 1e154 the squares of the components overflow; the error
    # itself reaches 1e227 at frame 1,299, within the float range and equal
    # to the bias-only bound
    cfg = WorldConfig(dim=dim, lipschitz=1.5, bias=bias_from_norm(dim, 0.01))
    tr = rollout_pure_ar(cfg, 1300)
    assert tr.error_norms[-1] > 1e200
    assert np.all(np.isfinite(tr.error_norms))
    assert np.all(tr.error_norms <= tr.bounds)


def test_noiseless_interpolation_derives_no_noise_streams(monkeypatch, tmp_path):
    # with sigma_int = 0 each bridge kick is 0 * eps: no rollout derives a
    # stream, with substitution or without; otherwise each trial derives one
    # bridge stream
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
    assert labels.count("interp-noise") == 3
    kf = generate_keyframes(cfg, plan, "global", error_cap=0.05)
    labels.clear()
    for substitution in (True, False):
        rollout_anchored(cfg, plan, kf, substitution=substitution)
    assert "interp-noise" not in labels
    rollout_anchored(cfg, plan, kf, sigma_int=0.1, substitution=False)
    assert labels.count("interp-noise") == 1

    # a simulate derives a few streams per trial, not one per window
    from rollbound import cli
    monkeypatch.setattr(cli, "derive_rng", spy)
    labels.clear()
    trials = worldsim.TRIAL_BLOCK + 3
    assert cli.main(["--out", str(tmp_path), "--set", "total_frames=65", "--set", "dim=3",
                     "--set", "dynamics=rotation", "--set", "noise_std=0.05",
                     "--set", "sigma_int=0.05", "--set", "kf_error_cap=0.1",
                     "--set", f"trials={trials}", "simulate"]) == 0
    assert len(labels) <= 3 * trials + 2


class _CountingRng:
    """A generator that counts the calls made to its methods."""

    def __init__(self, g):
        self.g, self.calls = g, 0

    def __getattr__(self, name):
        method = getattr(self.g, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


@pytest.mark.parametrize("n, stride", [(17, 8), (321, 8)])
def test_keyframe_draws_per_trial(monkeypatch, n, stride):
    # global anchors take two draws per trial whatever the anchor count (K =
    # 3 and 41 here); downsampled-AR anchors derive no stream at all
    streams = {}

    def spy(seed, label, index=0):
        g = derive_rng(seed, label, index)
        if label.startswith("trial-kf-"):
            g = streams.setdefault((label, index), _CountingRng(g))
        return g

    monkeypatch.setattr(worldsim, "derive_rng", spy)
    cfg = linear_world(bias=0.01, seed=55)
    plan = _plan(n=n, stride=stride)
    trials = worldsim.TRIAL_BLOCK + 3
    kw = dict(trials=trials, sigma_int=0.1, kf_error_cap=0.05)
    compare_pipelines(cfg, plan, "global", **kw)
    assert len(plan.keyframes) == (n - 1) // stride + 1
    assert sorted(streams) == [("trial-kf-global", i) for i in range(trials)]
    assert [g.calls for g in streams.values()] == [2] * trials
    streams.clear()
    compare_pipelines(cfg, plan, "downsampled_ar", **kw)
    assert streams == {}


@pytest.mark.parametrize("dim, trials", [(2, 3), (3, worldsim.TRIAL_BLOCK + 1), (4, 5)])
def test_batched_engine_matches_standalone_rollouts(dim, trials):
    # every trial of the batched engine equals the standalone rollouts on that
    # trial's derived streams, so the trial-order sums agree bit for bit
    cfg = WorldConfig(dim=dim, lipschitz=1.0, dynamics="rotation",
                      bias=bias_from_norm(dim, 0.01), noise_std=0.05, seed=40 + dim)
    plan = build_plan(41, 8, 9, 1)
    n, base, scenarios = plan.total_frames, 17, ("global", "downsampled_ar")
    kw = dict(sigma_int=0.1, velocity_error=0.3)
    reps = {sc: compare_pipelines(cfg, plan, sc, trials=trials, seed=base, kf_error_cap=0.05,
                                  **kw) for sc in scenarios}
    sums = {key: np.zeros((2, n)) for key in ("ar",) + scenarios}
    for i in range(trials):
        traces = {"ar": rollout_pure_ar(cfg, n, rng=derive_rng(base, "trial-ar", i))}
        for sc in scenarios:
            kf = generate_keyframes(cfg, plan, sc, error_cap=0.05,
                                    rng=derive_rng(base, f"trial-kf-{sc}", i))
            child = child_seed(base, f"trial-anchored-{sc}", i)
            traces[sc] = rollout_anchored(cfg, plan, kf, seed=child, **kw)
        for key, tr in traces.items():
            sums[key][0] += tr.error_norms
            sums[key][1] += tr.error_norms ** 2
        if i == 0:
            first = {"ar": reps["global"].trial0_ar,
                     **{sc: rep.trial0_anchored for sc, rep in reps.items()}}
            for key, tr in traces.items():
                assert np.array_equal(first[key].generated, tr.generated)
                assert np.array_equal(first[key].error_norms, tr.error_norms)
                assert np.array_equal(first[key].bounds, tr.bounds)
    for sc, rep in reps.items():
        assert np.array_equal(rep.ar_mean_error, sums["ar"][0] / trials)
        assert np.array_equal(rep.ar_mse, sums["ar"][1] / trials)
        assert np.array_equal(rep.anchored_mean_error, sums[sc][0] / trials)
        assert np.array_equal(rep.anchored_mse, sums[sc][1] / trials)


# ---------------------------------------------------------------------------
# bridge-noise law
# ---------------------------------------------------------------------------
#
# Whatever stream layout the bridge noise draws from, its frames must follow
# the pinned Brownian bridge's law: the windows draw fresh rows, continue one
# bridge across their overlap, and stay independent across anchor intervals.


def test_anchored_mse_matches_bridge_variance():
    # exact anchors, no leakage: the anchored MSE is the bridge's variance,
    # summed over d components, frame by frame
    d, sigma, trials = 4, 0.05, 2000
    cfg = WorldConfig(dim=d, seed=3)
    plan = build_plan(161, 16, 12, 1)
    rep = compare_pipelines(cfg, plan, "global", trials=trials, seed=29, sigma_int=sigma)
    kf = np.array(plan.keyframes)
    t = np.arange(plan.total_frames)
    j = np.minimum(np.searchsorted(kf, t, side="right") - 1, len(kf) - 2)
    expected = d * bridge_variance(t - kf[j], kf[j + 1] - kf[j], sigma)
    inner = expected > 0.0
    assert np.all(rep.anchored_mse[~inner] == 0.0)
    ratio = rep.anchored_mse[inner] / expected[inner]
    assert np.max(np.abs(ratio - 1.0)) <= 0.08
    assert abs(np.mean(ratio) - 1.0) <= 0.01


def test_bridge_noise_covariance_is_the_pinned_bridge():
    # zero anchors: the frames are the noise itself; one component's
    # covariance is sigma^2 min(tau)(T - max tau)/T inside an anchor
    # interval and 0 across intervals. Without substitution each later
    # window is one bridge path of its own from its first frame, its overlap
    # frames included: a new block of its interval starts there, the
    # formula holds inside a block, and the covariance across blocks is 0
    d, sigma, trials, n, T = 2, 0.5, 4000, 49, 16
    t = np.arange(n)
    j = np.minimum(t // T, n // T - 1)
    tau = t - T * j
    bridge = sigma ** 2 * np.minimum.outer(tau, tau) * (T - np.maximum.outer(tau, tau)) / T
    for substitution, overlap, restarts in ((True, 1, 0), (False, 2, 4), (False, 3, 5)):
        plan = build_plan(n, T, 12, overlap)
        layout = worldsim._AnchoredLayout(plan, d, sigma, None, substitution=substitution)
        kv = np.zeros((len(plan.keyframes), trials, d))
        x = layout.run(kv, range(trials))
        cov = x[:, :, 0] @ x[:, :, 0].T / trials
        restart = np.zeros(n, dtype=bool)
        if not substitution:
            restart[_windows(plan)[0][1:]] = True
            restart[list(plan.keyframes)] = False
        assert restart.sum() == restarts
        block = np.cumsum(restart)
        same = (j[:, None] == j[None, :]) & (block[:, None] == block[None, :])
        expected = np.where(same, bridge, 0.0)
        assert np.max(np.abs(cov - expected)) <= 0.1 * sigma ** 2 * T / 4, (substitution, overlap)


@pytest.mark.parametrize("substitution", [True, False], ids=["anchored", "anchored-redraws"])
def test_anchored_frames_do_not_depend_on_the_noise_block(monkeypatch, substitution):
    # the bridge noise is read FRAME_BLOCK rows at a time: blocks of 3 rows
    # split windows, intervals and bridge restarts, and give the same bits
    cfg = WorldConfig(dim=3, dynamics="rotation", bias=bias_from_norm(3, 0.01), seed=61)
    plan = build_plan(70, 6, 10, 2)
    kf = generate_keyframes(cfg, plan, "global", error_cap=0.1,
                            rng=np.random.default_rng(61))
    kw = dict(sigma_int=0.3, velocity_error=0.4, substitution=substitution, seed=8)
    default = rollout_anchored(cfg, plan, kf, **kw).generated
    monkeypatch.setattr(worldsim, "FRAME_BLOCK", 3)
    assert rollout_anchored(cfg, plan, kf, **kw).generated.tobytes() == default.tobytes()


@pytest.mark.parametrize("dynamics", ["scaled_identity", "rotation"])
def test_step_frames_do_not_depend_on_the_frame_block(monkeypatch, dynamics):
    # the step loop carries each block's last frame into the next and reads
    # each block's noise on its own: blocks of 3 frames give the same bits
    cfg = WorldConfig(dim=2, dynamics=dynamics, bias=bias_from_norm(2, 0.01), noise_std=0.05,
                      control=np.array([0.1, -0.2]), seed=62)
    default = rollout_pure_ar(cfg, 50, rng=np.random.default_rng(62)).generated
    monkeypatch.setattr(worldsim, "FRAME_BLOCK", 3)
    frames = rollout_pure_ar(cfg, 50, rng=np.random.default_rng(62)).generated
    assert frames.tobytes() == default.tobytes()


def test_step_loop_memory_does_not_grow_with_its_noise():
    # each block of steps reads its own noise: a noisy 32-trial world at
    # 30,000 frames holds little beyond its frames' own bytes
    n, d = 30_000, 4
    cfg = WorldConfig(dim=d, bias=bias_from_norm(d, 0.01), noise_std=0.05, seed=63)
    rngs = [np.random.default_rng(s) for s in range(worldsim.TRIAL_BLOCK)]
    tracemalloc.start()
    try:
        worldsim._World(cfg, n, rngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * (1 + len(rngs)) * d * 8


@pytest.mark.parametrize("sigma_int", [0.05, 0.0])
def test_anchored_pass_memory_holds_frames_and_bridge_noise(sigma_int):
    # a 32-trial anchored pass at 30,000 frames holds its frames, one run's
    # field product and then its bridge noise, of at most FRAME_BLOCK
    # frames, and one block of draws: no whole-horizon field, noise or mask
    n, trials, d = 30_000, 32, 4
    layout = worldsim._AnchoredLayout(build_plan(n, 8, 9, 1), d, sigma_int, 0.1)
    kv = np.zeros((len(layout.plan.keyframes), trials, d))
    tracemalloc.start()
    try:
        layout.run(kv, range(trials))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * n * trials * d * 8, peak / (n * trials * d * 8)


# ---------------------------------------------------------------------------
# input checks: each bad input raises its own message
# ---------------------------------------------------------------------------

def _dense_trajectory(n=5):
    from rollbound.core import Trajectory

    return Trajectory(np.arange(n), np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), np.zeros((n, 3)))


@pytest.mark.parametrize("call, message", [
    (lambda: WorldConfig(dim=0), "dim must be >= 1"),
    (lambda: WorldConfig(dim=2, dynamics="shear"), "unknown dynamics kind 'shear'"),
    (lambda: WorldConfig(dim=2, bias=np.zeros(3)), r"bias must be a \(2,\) vector"),
    (lambda: WorldConfig(dim=2, x0=np.zeros((2, 1))), r"x0 must be a \(2,\) vector"),
    (lambda: WorldConfig(dim=2, control=np.zeros(3)),
     r"constant control must be a \(dim,\) vector"),
    (lambda: WorldConfig(dim=2, control=np.zeros((4, 3))), r"control schedule must be \(n, dim\)"),
    (lambda: WorldConfig(dim=2, control=np.zeros((4, 2, 1))),
     r"control schedule must be \(n, dim\)"),
    (lambda: worldsim.control_schedule(WorldConfig(dim=2, control=np.zeros((3, 2))), 10),
     "control schedule has 3 steps, need 9"),
    (lambda: worldsim.controls_from_trajectory(_dense_trajectory(), dim=2),
     "need dim >= 3 to embed translation velocity"),
    (lambda: simulate_ground_truth(linear_world(), 0), "n_frames must be >= 1"),
    (lambda: generate_keyframes(linear_world(), _keyframe_plan([0, 4]), "local"),
     "unknown keyframe scenario 'local'"),
    (lambda: rollout_anchored(linear_world(), _plan(), np.zeros((5, 2)),
                              velocity_error=np.zeros(3)),
     r"velocity_error must be scalar or \(2,\)"),
    (lambda: compare_pipelines(linear_world(), _plan(), trials=0), "trials must be >= 1"),
    # a count or frame index must be an integer: a float is neither
    # truncated nor left to fail inside numpy
    (lambda: rollout_pure_ar(linear_world(), 5.5), "n_frames must be an integer, got 5.5"),
    (lambda: simulate_ground_truth(linear_world(), 4.0), "n_frames must be an integer, got 4.0"),
    (lambda: compare_pipelines(linear_world(), _plan(), trials=2.5),
     "trials must be an integer, got 2.5"),
    (lambda: build_plan(10, 2.5, 9, 1), "stride must be an integer, got 2.5"),
    (lambda: build_plan(10.0, 2, 9, 1), "n_frames must be an integer, got 10.0"),
    (lambda: WorldConfig(dim=2.5), "dim must be an integer, got 2.5"),
    (lambda: WorldConfig(dim=2, seed=2.5), "seed must be an integer, got 2.5"),
    (lambda: rollout_anchored(linear_world(), _plan(), np.zeros((5, 2)), seed=4.7),
     "seed must be an integer, got 4.7"),
    (lambda: compare_pipelines(linear_world(), _plan(), seed=4.7),
     "seed must be an integer, got 4.7"),
    # a float input must be a real number: a string or None fails as
    # InvalidInput naming it, not as a TypeError inside a comparison
    (lambda: WorldConfig(dim=2, lipschitz="1"), "lipschitz must be a real number, got '1'"),
    (lambda: WorldConfig(dim=2, noise_std=None), "noise_std must be a real number, got None"),
    (lambda: compare_pipelines(linear_world(), _plan(), sigma_int="0.1"),
     "sigma_int must be a real number, got '0.1'"),
    (lambda: compare_pipelines(linear_world(), _plan(), kf_error_cap="0.1"),
     "kf_error_cap must be a real number, got '0.1'"),
    (lambda: compare_pipelines(linear_world(), _plan(), "downsampled_ar", kf_step_error="0"),
     "kf_step_error must be a real number, got '0'"),
    (lambda: generate_keyframes(linear_world(), _plan(), "global", error_cap=None),
     "error_cap must be a real number, got None"),
    (lambda: rollout_anchored(linear_world(), _plan(), np.zeros((5, 2)), velocity_error="1"),
     "velocity_error must be a real number, got '1'"),
], ids=["dim", "dynamics", "bias-shape", "x0-shape", "constant-control-shape",
        "control-schedule-shape", "control-schedule-ndim", "control-schedule-short",
        "trajectory-dim", "world-frames", "keyframe-scenario", "velocity-error-shape",
        "trials", "ar-frames-float", "truth-frames-float",
        "trials-float", "stride-float", "sampled-frames-float", "dim-float",
        "world-seed-float", "anchored-seed-float", "compare-seed-float",
        "lipschitz-str", "noise_std-none", "sigma_int-str", "kf_error_cap-str",
        "kf_step_error-str", "error_cap-none", "velocity_error-str"])
def test_bad_input_raises_its_message(call, message):
    with pytest.raises(InvalidInput, match=f"^{message}"):
        call()


def test_safe_norms_rescale_underflowing_rows_only():
    # squares below the smallest normal float lose bits: such rows are
    # rescaled, a zero row stays 0 and a common row keeps the plain norm's
    # rounding
    rows = np.array([[3e-160, 4e-160], [1e-170, 0.0], [0.0, 0.0], [0.1, 0.2], [np.nan, 1e-170]])
    norms = worldsim._safe_norms(rows)
    assert norms[:4].tolist() == [5e-160, 1e-170, 0.0, np.linalg.norm(rows[3], axis=-1)]
    assert np.isnan(norms[4])
    assert np.linalg.norm(rows[1], axis=-1) == 0.0  # what the plain norm reads
