"""Controllable linear-Gaussian toy latent world.

The world is x_{t+1} = A x_t + u_t with a configurable spectral norm for A,
so every quantity of the error theory (state sensitivity, per-step drift,
per-step variance, boundary velocity error) is exactly controllable and every
bound is attainable or checkable in closed form.

Two generation pipelines run against the same ground truth:

  * rollout_pure_ar: step-by-step generation with per-step bias and noise,
    whose error follows the Lipschitz recursion exactly,
  * rollout_anchored: keyframe anchors plus per-interval anchored interpolation
    (anchor convex combination + damped velocity-leakage spline + pinned
    bridge noise), with overlap substitution between generation windows.

Anchors are a (K, d) array, one row per plan keyframe in plan order. Each
trial reads its bridge noise from one stream in frame order, a run of
frames at a time; under substitution the windows change no frame, and
without it the bridge restarts at each later window's first frame.

Both run on one trial engine that simulates a batch of Monte-Carlo trials as
one array; a standalone rollout is its one-trial case, and the error of the
downsampled-AR anchors is one more row of the truth's pass. Its loops keep
every bit: the step-by-step frames are one terms stack per block of steps,
reduced frame by frame after one matmul (running sums, no matmul, for the
identity), and the anchored frames are made one run of adjacent
equal-length anchor intervals at a time, whose bridge noise advances its
intervals at once, one step per offset into them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    RolloutPlan,
    Trajectory,
    _as_count,
    _as_float,
    _as_int,
    _as_rate,
    _frozen,
    write_columns_csv,
)
from .errormodel import (
    BoundBreakdown,
    DAMPING_FACTOR,
    ar_upper_curve,
    bridge_variance,
    solve_damping_spline,
    unified_bound,
)
from .errors import InvalidInput
from .schedule import partition_segments
from .seeding import child_seed, derive_rng

SPECTRAL_NORM_TOL = 1e-6


# ---------------------------------------------------------------------------
# world configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorldConfig:
    """Linear world parameters.

    dim        -- latent dimension d
    lipschitz  -- spectral norm of the dynamics matrix (state sensitivity)
    dynamics   -- "scaled_identity" or "rotation" (orthogonal mixing, same norm)
    bias       -- per-step generator drift vector (norm = the drift rate mu), or zeros
    noise_std  -- per-step, per-component generator noise sigma
    x0         -- initial latent state (frame 0, always ground truth), or zeros
    control    -- None (zero), a (d,) constant, or an (n-1, d) schedule
    seed       -- master seed; all stochastic streams derive from it
    """

    dim: int
    lipschitz: float = 1.0
    dynamics: str = "scaled_identity"
    bias: np.ndarray | None = None
    noise_std: float = 0.0
    x0: np.ndarray | None = None
    control: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dim", _as_count(self.dim, "dim"))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed"))
        for name in ("lipschitz", "noise_std"):
            object.__setattr__(self, name, _as_rate(getattr(self, name), name))
        if self.dynamics not in ("scaled_identity", "rotation"):
            raise InvalidInput(f"unknown dynamics kind {self.dynamics!r}")
        for name in ("bias", "x0"):
            v = getattr(self, name)
            v = np.zeros(self.dim) if v is None else np.asarray(v, dtype=float)
            if v.shape != (self.dim,):
                raise InvalidInput(f"{name} must be a ({self.dim},) vector")
            object.__setattr__(self, name, v)
        if self.control is not None:
            c = np.asarray(self.control, dtype=float)
            if c.ndim == 1:
                if c.shape != (self.dim,):
                    raise InvalidInput("constant control must be a (dim,) vector")
            elif c.ndim != 2 or c.shape[1] != self.dim:
                raise InvalidInput("control schedule must be (n, dim)")
            object.__setattr__(self, "control", c)
        for name in ("bias", "x0", "control"):
            v = getattr(self, name)
            if v is not None and not np.all(np.isfinite(v)):
                raise InvalidInput(f"{name} must be finite")

    def drift_norm(self) -> float:
        """The drift rate mu, overflow-safe (see _safe_norms)."""
        return float(_safe_norms(self.bias[None])[0])


def bias_from_norm(dim: int, norm: float) -> np.ndarray:
    """Drift vector of the given norm along the first axis."""
    b = np.zeros(dim)
    if norm != 0.0:  # a norm of -0.0 leaves the zero vector
        b[0] = float(norm)
    return b


def dynamics_matrix(cfg: WorldConfig) -> np.ndarray:
    """Dynamics matrix with spectral norm exactly cfg.lipschitz: a scaled
    identity, or a scaled random orthogonal mix derived from the seed."""
    if cfg.dynamics == "scaled_identity":
        A = cfg.lipschitz * np.eye(cfg.dim)
    else:
        g = derive_rng(cfg.seed, "dynamics")
        M = g.standard_normal((cfg.dim, cfg.dim))
        Q, R = np.linalg.qr(M)
        Q = Q * np.sign(np.diag(R))  # unique orthogonal factor
        A = cfg.lipschitz * Q
    if cfg.lipschitz > 0.0:
        spec = float(np.linalg.norm(A, 2))
        if abs(spec - cfg.lipschitz) > SPECTRAL_NORM_TOL * max(1.0, cfg.lipschitz):
            raise AssertionError(f"spectral norm {spec} drifted from {cfg.lipschitz}")
    return A


def control_schedule(cfg: WorldConfig, n_frames: int) -> np.ndarray:
    """(n_frames-1, d) control inputs u_0..u_{n-2}."""
    steps = max(n_frames - 1, 0)
    if cfg.control is None:
        return np.zeros((steps, cfg.dim))
    if cfg.control.ndim == 1:
        return np.tile(cfg.control, (steps, 1))
    if cfg.control.shape[0] < steps:
        raise InvalidInput(f"control schedule has {cfg.control.shape[0]} steps, "
                           f"need {steps}")
    return cfg.control[:steps]


def controls_from_trajectory(traj: Trajectory, dim: int) -> np.ndarray:
    """Control schedule from a dense pose trajectory: per-step translation
    velocity embedded in the first three latent dimensions."""
    idx = traj.frame_indices
    if not np.array_equal(idx, np.arange(idx[0], idx[0] + len(idx))):
        raise InvalidInput("trajectory must be dense (consecutive frame indices)")
    if dim < 3:
        raise InvalidInput("need dim >= 3 to embed translation velocity")
    vel = np.diff(traj.translations, axis=0)
    out = np.zeros((vel.shape[0], dim))
    out[:, :3] = vel
    return out


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RolloutTrace:
    """One generated rollout next to its ground truth, each a read-only
    (n, d) array of latent frames.

    error_norms is np.linalg.norm(generated - ground_truth, axis=-1), bit for
    bit where no norm overflows or underflows (see _safe_norms);
    bounds[t] carries the per-frame bound curve of the trace's pipeline, and
    diverged[t] flags a bound frame that saturated (see ar_upper_curve).
    """

    generated: np.ndarray
    ground_truth: np.ndarray
    error_norms: np.ndarray
    bounds: np.ndarray
    diverged: np.ndarray | None = None
    breakdown: BoundBreakdown | None = None
    segment_ids: np.ndarray | None = None
    keyframe_indices: tuple[int, ...] = ()


def trace_table(trace: RolloutTrace, path) -> tuple:
    """The (path, header, columns) table of a trace's CSV: frame, err_norm,
    bound_total, anchor, leakage, noise, is_keyframe, segment_id."""
    bd = trace.breakdown
    n = len(trace.error_norms)
    is_kf = np.zeros(n, dtype=bool)
    is_kf[list(trace.keyframe_indices)] = True
    return (path, ("frame", "err_norm", "bound_total", "anchor", "leakage", "noise",
                   "is_keyframe", "segment_id"),
            (np.arange(n), trace.error_norms, trace.bounds,
             bd.anchor_term if bd else 0.0, bd.leakage_term if bd else 0.0,
             bd.noise_term if bd else 0.0, is_kf,
             trace.segment_ids if trace.segment_ids is not None else 0))


def write_trace_csv(trace: RolloutTrace, path, *tables) -> None:
    """Write a trace's CSV (see trace_table). Further (path, header, columns)
    tables of the same length are written with it, in one
    core.write_columns_csv pass."""
    write_columns_csv(*trace_table(trace, path), *tables)


# ---------------------------------------------------------------------------
# the trial engine
# ---------------------------------------------------------------------------
#
# Every pipeline runs as a batch of trials: trials are the middle axis of a
# time-major (n, B, d) array, only the loop over frames is Python, and the
# state all trials share (dynamics, ground truth, the anchored layout) is
# built once per run. A standalone rollout is the one-trial case.

#: trials simulated together: an engine pass holds O(TRIAL_BLOCK * n * d)
#: floats whatever the trial count
TRIAL_BLOCK = 32

#: steps per block of the step loop's terms stack and of its noise draws,
#: and bridge-noise rows per draw: a pass holds O(FRAME_BLOCK * TRIAL_BLOCK
#: * d) floats beyond its frames, whatever the horizon
FRAME_BLOCK = 1024


def _require_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise InvalidInput("latent frames must be finite")


def _finite_anchors(kv: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(kv)):
        raise InvalidInput("keyframe values must be finite")
    return kv


def _normal_rows(rngs, buf: np.ndarray, scale) -> np.ndarray:
    """Fill a (B, rows, d) buffer with each trial's next rows of standard
    normals, trial b from rngs[b], scale them, and return the (rows, B, d)
    view. A generator read a block at a time gives the bits of one whole
    draw: this is how every engine pass reads its noise."""
    for g, draws in zip(rngs, buf):
        g.standard_normal(out=draws)
    buf *= scale
    return buf.transpose(1, 0, 2)


def _safe_norms(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm(rows, axis=-1), the program's one row norm: an ordered
    sum of squares along the last axis, whose bits follow no BLAS kernel. A
    norm beyond the float range reads inf, without a warning.

    The squares read inf from about 1e154 on, and below about 1e-154 (the
    square root of the smallest normal float) they lose bits to underflow.
    Only the rows that read inf from finite components, or under that
    threshold from nonzero ones, are recomputed, scaled by their largest
    component: every other norm keeps the plain norm's rounding."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=-1)
        redo = np.flatnonzero(np.isinf(norms) | (norms < np.sqrt(np.finfo(float).tiny)))
        if redo.size:
            odd = rows.reshape(-1, rows.shape[-1])[redo]
            keep = np.isfinite(odd).all(axis=-1) & (odd != 0.0).any(axis=-1)
            odd, redo = odd[keep], redo[keep]
            scale = np.abs(odd).max(axis=-1, keepdims=True)
            np.put(norms, redo, scale[:, 0] * np.linalg.norm(odd / scale, axis=-1))
    return norms


def _error_norms(x: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """(B, n) error norms of a time-major (n, B, d) batch against (n, d),
    overflow-safe (see _safe_norms)."""
    with np.errstate(over="ignore"):
        diff = x - gt[:, None]
    return _safe_norms(diff).T


class _World:
    """What every trial of a run shares: the dynamics matrix (its
    spectral-norm check runs here, once), the controls and the ground truth.

    The ground truth is row 0 of each step-by-step batch (`_propagate`):
    the same recursion x[t+1] = A x[t] + u[t], without the generator's drift
    and noise. The rollouts of the generators given here (`take_rollouts`)
    and the error of the downsampled-AR anchors of the jumps given
    (`jump_anchors`) are rows of the ground truth's own pass, so a
    comparison's first trial block and its anchors take one pass, not two.
    A pass holds its frames and one block of steps' terms and noise."""

    def __init__(self, cfg: WorldConfig, n_frames: int, rngs=(), jumps=None):
        n_frames = _as_count(n_frames, "n_frames")
        self.cfg = cfg
        self.A = dynamics_matrix(cfg)
        self.u = control_schedule(cfg, n_frames)
        x = self._propagate(rngs, jumps)
        # _frozen copies a strided column: the truth keeps no rollout alive
        self.gt = _frozen(x[:, 0])
        _require_finite(self.gt)
        self._rollouts = x[:, 1:1 + len(rngs)]
        if jumps is not None:
            self.jump_anchors = _finite_anchors(self.gt[jumps[0]] + x[jumps[0], -1])
            self.jump_anchors[0] = self.gt[0]

    def _propagate(self, rngs, jumps=None) -> np.ndarray:
        """Time-major (n, 1+B, d) batch: row 0 the ground truth, row 1+b the
        step-by-step rollout of generator b, which adds the drift and its
        noise. Step t is ((A x[t] + u[t]) + b) + eps[t], added left to right.
        Given jumps (sorted keyframes, a step vector s), a last row from +0.0
        adds s alone, on each step into a keyframe: the anchors' error.

        A C-ordered terms stack holds the addends [A x[t], u[t], b, eps[t]]
        of FRAME_BLOCK steps (b and eps for rollouts only, s for the jump
        row; -0.0, which adds nothing, fills the slots a row does not add),
        with each generator's noise drawn for those steps alone (see
        _normal_rows). Two reductions of the stack make the frame loop's
        additions in its order, bit for bit:

          * any A: per step, one matmul over the batch (bit-identical to the
            per-row A @ x[t]) writes slot 0, and np.add.reduce over the slot
            axis adds the slots one after another, from a -0.0 start that
            adds nothing (numpy's default start, +0.0, would turn a -0.0 sum
            into +0.0);
          * A = I, no matmul: A x[0] adds 1 * x_i and 0 * x_j terms to a
            +0.0 start, which for the finite x[0] is x[0] + 0.0, and a sum
            that starts from it never reads -0.0. So slot 0 holds x[0] + 0.0
            at the first step, the carried frame plus -0.0 (itself) at a
            later block's first and -0.0 after it, and one strictly sequential
            np.add.accumulate runs over the flattened block. Past the float
            range the carry keeps inf, where a product 0 * inf reads nan."""
        cfg = self.cfg
        n = len(self.u) + 1
        rows, d = 1 + len(rngs) + (jumps is not None), cfg.dim
        x = np.empty((n, rows, d))
        x[0] = cfg.x0
        x[0, 1 + len(rngs):] = 0.0  # the jump row, if any
        noisy = len(rngs) > 0 and cfg.noise_std > 0.0
        slots = 2 if rows == 1 else 4 if noisy else 3
        terms = np.empty((min(n - 1, FRAME_BLOCK), slots, rows, d))
        eps = np.empty((len(rngs), len(terms), d)) if noisy else None
        identity = np.array_equal(self.A, np.eye(d))
        # a frame past the float range reads inf or nan, without a warning:
        # the callers' finite check rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, n - 1, FRAME_BLOCK):
                hi = min(lo + FRAME_BLOCK, n - 1)
                block = terms[:hi - lo]
                block[:, 1] = self.u[lo:hi, None]
                block[:, 2:, 0] = -0.0
                if slots > 2:
                    block[:, 2, 1:] = cfg.bias
                if noisy:
                    block[:, 3, 1:1 + len(eps)] = _normal_rows(rngs, eps[:, :hi - lo],
                                                               cfg.noise_std)
                if jumps is not None:
                    block[:, 1:, -1] = -0.0
                    first, last = np.searchsorted(jumps[0], (lo + 1, hi + 1))
                    block[jumps[0][first:last] - (lo + 1), 2, -1] = jumps[1]
                if identity:
                    block[0, 0] = x[lo] + (0.0 if lo == 0 else -0.0)
                    block[1:, 0] = -0.0
                    sums = block.reshape(-1, rows, d)
                    np.add.accumulate(sums, axis=0, out=sums)
                    x[lo + 1:hi + 1] = block[:, -1]
                else:
                    for prev, product, step, nxt in zip(x[lo:hi, ..., None],
                                                        block[:, 0, ..., None],
                                                        block, x[lo + 1:hi + 1]):
                        np.matmul(self.A, prev, out=product)
                        np.add.reduce(step, axis=0, initial=-0.0, out=nxt)
        return x

    def take_rollouts(self) -> np.ndarray:
        """The (n, B, d) rollouts of the generators given at construction,
        handed over once."""
        x, self._rollouts = self._rollouts, None
        _require_finite(x)
        return x

    def ar_rollouts(self, rngs) -> np.ndarray:
        """Step-by-step rollouts from the true frame 0, one per generator, as
        a time-major (n, B, d) batch."""
        x = self._propagate(rngs)[:, 1:]
        _require_finite(x)
        return x

    def ar_trace(self, x: np.ndarray, err: np.ndarray) -> RolloutTrace:
        bounds, diverged = ar_upper_curve(self.cfg.lipschitz, self.cfg.drift_norm(),
                                          len(self.gt))
        return RolloutTrace(_frozen(x), self.gt, err, bounds=bounds, diverged=diverged)

    def keyframes(self, idx: list[int], error_cap: float, rngs) -> np.ndarray:
        """(K, B, d) "global" anchor latents at the sorted frames idx, one
        row per frame and one column per generator of rngs (see
        generate_keyframes). Each generator is drawn from twice: its K-1
        directions as one (K-1, d) block, then its K-1 radii as one block,
        so a column depends on its own generator alone. The "downsampled_ar"
        anchors are jump_anchors, made in the truth's pass. error_cap comes
        checked (_anchor_inputs); anchors past the float range raise
        InvalidInput."""
        gt = self.gt
        vals = np.empty((len(idx), len(rngs), self.cfg.dim))
        vals[0] = gt[0]
        draws = np.empty((len(rngs), len(idx) - 1, self.cfg.dim))
        radii = np.empty((len(rngs), len(idx) - 1, 1))
        for g, directions, radius in zip(rngs, draws, radii):
            g.standard_normal(out=directions)
            radius[:, 0] = g.uniform(0.0, error_cap, len(idx) - 1)
        norms = np.linalg.norm(draws, axis=-1)[..., None]
        unit = np.divide(draws, norms, out=np.zeros_like(draws), where=norms > 0.0)
        vals[1:] = gt[idx[1:], None] + (radii * unit).transpose(1, 0, 2)
        return _finite_anchors(vals)


# ---------------------------------------------------------------------------
# ground truth and pure autoregressive rollout
# ---------------------------------------------------------------------------

def simulate_ground_truth(cfg: WorldConfig, n_frames: int) -> np.ndarray:
    """Noiseless controlled trajectory x_{t+1} = A x_t + u_t, as a read-only
    (n_frames, d) array; deterministic, independent of the seed streams."""
    return _World(cfg, n_frames).gt


def rollout_pure_ar(cfg: WorldConfig, n_frames: int, rng=None) -> RolloutTrace:
    """Step-by-step generation from the true initial frame with per-step bias
    and noise; the per-frame error satisfies e_{t+1} = A e_t + b + sigma*eps
    exactly. Frame t of the bound column holds the bias-only Lipschitz bound
    after t steps (attained with equality when noise is off). rng is a
    Generator, by default derive_rng(cfg.seed, "ar-noise")."""
    g = rng if rng is not None else derive_rng(cfg.seed, "ar-noise")
    world = _World(cfg, n_frames, [g])
    x = world.take_rollouts()
    return world.ar_trace(x[:, 0], _error_norms(x, world.gt)[0])


# ---------------------------------------------------------------------------
# keyframe generation
# ---------------------------------------------------------------------------

def _anchor_inputs(cfg: WorldConfig, plan: RolloutPlan, scenario: str, error_cap, step_error,
                   prefix: str = ""):
    """error_cap as a rate, and the _World jumps of "downsampled_ar" anchors
    (None for "global"): the plan's keyframes and a step vector of norm
    step_error (default: the drift norm) along the drift, or the first axis.
    Both are checked with the scenario; InvalidInput prefixes their names."""
    error_cap = _as_rate(error_cap, prefix + "error_cap")
    step_error = None if step_error is None else _as_rate(step_error, prefix + "step_error")
    if scenario not in ("global", "downsampled_ar"):
        raise InvalidInput(f"unknown keyframe scenario {scenario!r}")
    if scenario == "global":
        return error_cap, None
    bn = cfg.drift_norm()
    mu = bn if step_error is None else step_error
    return error_cap, (np.array(plan.keyframes),
                       mu * (cfg.bias / bn if bn > 0.0 else np.eye(cfg.dim)[0]))


def generate_keyframes(cfg: WorldConfig, plan: RolloutPlan, scenario: str,
                       error_cap: float = 0.0, step_error: float | None = None,
                       rng=None) -> np.ndarray:
    """Anchor latents at a plan's keyframes under one of two regimes, as a
    (K, d) array with one row per keyframe, in plan order. These are a
    trial's anchors in compare_pipelines, on rng as its anchor stream: the
    one-generator case of _World.keyframes, or _World.jump_anchors. rng is
    a Generator, by default derive_rng(cfg.seed, "keyframes").

    "global": every anchor is ground truth plus an independent perturbation
    of norm <= error_cap (frame 0, the given initial frame, stays exact): an
    isotropic direction times a radius uniform on [0, error_cap]. rng draws
    all K-1 directions as one (K-1, d) block, then all K-1 radii as one block.
    "downsampled_ar": anchors follow the step-by-step recursion applied once
    per keyframe jump, so their error accumulates across anchors at one
    step_error per jump (default step_error: the world's drift norm); their
    error is one row of the ground truth's pass, and they draw nothing, so
    rng is read only by "global". Anchors past the float range are rejected
    ("keyframe values must be finite"). The scenario and both anchor inputs
    are checked before the ground truth is computed.
    """
    error_cap, jumps = _anchor_inputs(cfg, plan, scenario, error_cap, step_error)
    world = _World(cfg, plan.total_frames, jumps=jumps)
    if jumps is not None:
        return world.jump_anchors
    g = rng if rng is not None else derive_rng(cfg.seed, "keyframes")
    return world.keyframes(list(plan.keyframes), error_cap, [g])[:, 0]


# ---------------------------------------------------------------------------
# keyframe-anchored interpolation rollout
# ---------------------------------------------------------------------------

def _velocity_vector(velocity_error, d: int) -> np.ndarray:
    if velocity_error is None:
        return np.zeros(d)
    if np.isscalar(velocity_error):
        dv0 = np.zeros(d)
        dv0[0] = _as_float(velocity_error, "velocity_error")
    else:
        dv0 = np.asarray(velocity_error, dtype=float)
        if dv0.shape != (d,):
            raise InvalidInput(f"velocity_error must be scalar or ({d},)")
    if not np.all(np.isfinite(dv0)):
        raise InvalidInput("velocity_error must be finite")
    return dv0


def _bridge_noise(w, frac, scale, rngs, eps) -> None:
    """A run's bridge noise w, offset-major (L, c, B, d) and +0.0 at its
    keyframes, from its (c, L) frac and scale: each trial's kicks scale*eps
    are read from its stream in frame order, at most FRAME_BLOCK rows per
    draw into the flat buffer eps, then one step per offset tau advances the
    c intervals at once, w[tau] = frac*w[tau-1] + kick, rounded as a frame
    loop rounds it (addition commutes bit for bit). A -0.0 kick plus the
    +0.0 product of tau = 1 reads +0.0; a restart frame is a frac-0 frame."""
    c, L = frac.shape
    w[0] = 0.0
    for lo in range(1, L, FRAME_BLOCK):  # one draw, unless the run is one longer interval
        hi = min(lo + FRAME_BLOCK, L)
        kicks = _normal_rows(rngs, eps[:w[lo:hi].size].reshape(len(rngs), -1, w.shape[-1]),
                             scale[:, lo:hi].reshape(-1, 1))
        w[lo:hi] = kicks.reshape(c, hi - lo, *w.shape[2:]).transpose(1, 0, 2, 3)
    prod = eps[:w[0].size].reshape(w.shape[1:])
    for tau in range(1, L):
        np.multiply(w[tau - 1], frac[:, tau, None, None], out=prod)
        w[tau] += prod


class _AnchoredLayout:
    """What every trial of an anchored rollout shares, built once from the
    plan: each frame's window (seg_ids), each anchor interval's incoming
    velocity error (dvs), and the runs of c adjacent anchor intervals of one
    length L, at most FRAME_BLOCK frames long (or one interval): (the first
    interval, the (L+1,) rows 1 - tau/L, tau/L and leakage shape, the (c, L)
    bridge frac and scale), rows made once per L and copied only to restart."""

    def __init__(self, plan: RolloutPlan, d: int, sigma_int: float, velocity_error,
                 momentum: bool = True, substitution: bool = True):
        self.plan = plan
        self.sigma_int = _as_rate(sigma_int, "sigma_int")
        self.dv0 = _velocity_vector(velocity_error, d)
        kf = np.array(plan.keyframes)
        lengths = np.diff(kf)
        starts, _ = partition_segments(plan)
        # with substitution a window's overlap frames are its predecessor's;
        # a frame's id is the last window that generates it
        gen_from = starts + (plan.overlap if substitution else 0)
        gen_from[0] = 0
        self.seg_ids = np.searchsorted(gen_from, np.arange(plan.total_frames), side="right") - 1
        # interval i enters with DAMPING_FACTOR times its predecessor's
        # velocity error, multiplied in interval order (a repeated product's
        # rounding, subnormals included); the hand-off needs the spline and
        # the substituted clean boundary, so it dies without either
        self.dvs = np.zeros((len(lengths), d))
        self.dvs[:1] = self.dv0
        if momentum and substitution:
            self.dvs[1:] = DAMPING_FACTOR
            np.multiply.accumulate(self.dvs, out=self.dvs)
        # a frame's bridge row continues w[t] = frac*w[t-1] + scale*eps, frac
        # = (r - 1)/r for the r frames from t-1 to the closing anchor. Without
        # substitution each later window generates its frames on its own: the
        # bridge restarts at its first frame (frac 0) from the marginal law,
        # unless that frame is a keyframe
        restarts = starts[:0] if substitution else np.setdiff1d(starts[1:], kf)
        at = np.searchsorted(kf, restarts, side="right") - 1
        offsets = restarts - kf[at]
        restart_scale = np.sqrt(bridge_variance(offsets, lengths[at], sigma_int))
        shared, self.runs = {}, []
        # lengths are >= 1: the edges are 0, each change of length, and the end
        edges = np.flatnonzero(np.diff(lengths, prepend=0, append=0)).tolist()
        for a, b in zip(edges, edges[1:]):
            L = int(lengths[a])
            if L not in shared:
                tau = np.arange(L + 1)
                # without momentum the generator rides the erroneous velocity
                # through the interval and snaps back at its closing anchor
                shape = (solve_damping_spline(L, 1.0).value(tau) if momentum
                         else np.where(tau < L, tau, 0).astype(float))
                frac = (L - tau[:L]) / (L + 1 - tau[:L])
                shared[L] = (1.0 - tau / L, tau / L, shape), frac, sigma_int * np.sqrt(frac)
            weights, frac, scale = shared[L]
            step = max(FRAME_BLOCK // L, 1)
            for lo in range(a, b, step):
                c = min(step, b - lo)
                grid = [np.broadcast_to(v, (c, L)) for v in (frac, scale)]
                p, q = np.searchsorted(at, (lo, lo + c))
                if q > p:
                    grid = [v.copy() for v in grid]
                    grid[0][at[p:q] - lo, offsets[p:q]] = 0.0
                    grid[1][at[p:q] - lo, offsets[p:q]] = restart_scale[p:q]
                self.runs.append((lo, weights, *grid))

    def run(self, kv: np.ndarray, seeds) -> np.ndarray:
        """Anchored rollouts of a batch from its (K, B, d) anchor values, as
        (n, B, d) frames: each run's interpolation plus leakage plus bridge
        noise (trial b's from derive_rng(seeds[b], "interp-noise"), see
        _bridge_noise), summed offset-major, (L, c, B, d), in one run-sized
        buffer while its frames hold its terms, then copied into them; the
        final frame comes last. Besides the frames a pass holds that buffer
        and one block of draws: no whole-horizon array, not even a mask."""
        kf, n, (B, d) = self.plan.keyframes, self.plan.total_frames, (kv.shape[1], len(self.dv0))
        x = np.empty((n, B, d))
        shapes = [frac.shape for *_, frac, _ in self.runs]
        buf = np.empty(max((c * L for c, L in shapes), default=0) * B * d)
        noise = ([derive_rng(s, "interp-noise") for s in seeds],
                 np.empty(max(c * min(L - 1, FRAME_BLOCK) for c, L in shapes) * B * d)
                 ) if self.sigma_int > 0.0 and n > len(kf) else None
        # frames past the float range read inf or nan, without a warning:
        # each run's finite check rejects them
        with np.errstate(over="ignore", invalid="ignore"):
            for a, (left, right, shape), frac, scale in self.runs:
                c, L = frac.shape
                frames = x[kf[a]:kf[a] + c * L]
                total, term = buf[:frames.size].reshape(L, c, B, d), frames.reshape(L, c, B, d)
                np.multiply.outer(left[:L], kv[a:a + c], out=total)
                np.multiply.outer(right[:L], kv[a + 1:a + c + 1], out=term)
                total += term
                leak = term.reshape(-1)[:L * c * d].reshape(L, c, 1, d)
                np.multiply.outer(shape[:L], self.dvs[a:a + c], out=leak[:, :, 0])
                total += leak
                if noise and L > 1:
                    _bridge_noise(term, frac, scale, *noise)
                    total += term
                else:
                    total += 0.0  # as the noise's +0.0 rows do: a -0.0 frame reads +0.0
                _require_finite(total)
                frames.reshape(c, L, B, d)[...] = total.transpose(1, 0, 2, 3)
            # the final frame, the last interval's offset L, is its closing
            # anchor plus leakage: the weights 0 and 1 give the anchor's bits
            # once the +0.0 is added (the runs reject a non-finite anchor)
            x[-1] = kv[-1] if len(kf) == 1 else kv[-1] + self.runs[-1][1][2][-1] * self.dvs[-1]
            x[-1] += 0.0
            _require_finite(x[-1])
        return x

    def trace(self, gt: np.ndarray, kv: np.ndarray, x: np.ndarray,
              err: np.ndarray) -> RolloutTrace:
        """One trial's trace from the (n, d) ground truth, its (K, d) anchors
        and its (n, d) frames; the bound column holds the unified bound built
        from its largest anchor error, measured as the error columns are."""
        kf_idx = self.plan.keyframes
        max_T = max((hi - lo for lo, hi in zip(kf_idx, kf_idx[1:])), default=1)
        anchor = float(_error_norms(kv[:, None], gt[list(kf_idx)]).max())
        dv0 = float(_safe_norms(self.dv0[None])[0])
        breakdown = unified_bound(anchor, max_T, dv0, self.sigma_int)
        return RolloutTrace(_frozen(x), gt, err, bounds=np.full(len(gt), breakdown.total),
                            breakdown=breakdown,
                            segment_ids=self.seg_ids.copy(), keyframe_indices=tuple(kf_idx))


def rollout_anchored(cfg: WorldConfig, plan: RolloutPlan, anchors,
                     sigma_int: float = 0.0, momentum: bool = True,
                     substitution: bool = True, velocity_error=None,
                     seed: int | None = None) -> RolloutTrace:
    """Anchored interpolation rollout over a plan, from a (K, d) array of
    anchor latents with one row per plan keyframe, in plan order.

    Each frame between consecutive anchors is the convex combination of the
    anchor latents, plus a velocity-leakage correction, plus pinned bridge
    noise of scale sigma_int. The incoming boundary velocity error enters the
    first anchor interval; with momentum on it is absorbed by the
    accel-minimizing spline and handed to the next interval damped by -1/2
    (the hand-off needs the substituted clean boundary, so it dies when
    substitution is off). With momentum off the generator rides the erroneous
    velocity and snaps back at the next anchor.

    The bridge noise is read from one stream (seed, default cfg.seed) in
    frame order. With substitution on, each window's first `overlap` frames
    are its predecessor's and the noise process continues through them, so
    the windows change no frame; otherwise each window is generated on its
    own, its bridge restarting from the marginal noise law at its first frame
    (a visible junction discontinuity).

    The per-frame bound column holds the unified anchored-interpolation bound
    for the damped pipeline (momentum and substitution on), built from the
    measured anchor errors.
    """
    layout = _AnchoredLayout(plan, cfg.dim, sigma_int, velocity_error, momentum, substitution)
    kv = np.asarray(anchors, dtype=float)
    if kv.shape != (len(plan.keyframes), cfg.dim):
        raise InvalidInput(f"anchors must be a ({len(plan.keyframes)}, {cfg.dim}) array, "
                           f"one row per plan keyframe, not {kv.shape}")
    _finite_anchors(kv)
    seed = cfg.seed if seed is None else _as_int(seed, "seed")
    gt = simulate_ground_truth(cfg, plan.total_frames)
    x = layout.run(kv[:, None], [seed])
    return layout.trace(gt, kv, x[:, 0], _error_norms(x, gt)[0])


# ---------------------------------------------------------------------------
# pipeline comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    """Per-frame Monte-Carlo means for the two pipelines, the anchored one
    under one keyframe scenario, and trial 0's rollout of each."""

    ar_mean_error: np.ndarray
    ar_mse: np.ndarray
    anchored_mean_error: np.ndarray
    anchored_mse: np.ndarray
    trial0_ar: RolloutTrace
    trial0_anchored: RolloutTrace


def _accumulate(sums: np.ndarray, errs: np.ndarray) -> None:
    """Add each trial's error row and its square to (2, n) running sums, in
    trial order; a sum beyond the float range reads inf, without a warning."""
    with np.errstate(over="ignore"):
        for row in errs:
            sums[0] += row
            sums[1] += row ** 2


def compare_pipelines(cfg: WorldConfig, plan: RolloutPlan, scenario: str = "global",
                      trials: int = 1, seed: int | None = None, sigma_int: float = 0.0,
                      velocity_error=None, kf_error_cap: float = 0.0,
                      kf_step_error: float | None = None) -> ComparisonReport:
    """Monte-Carlo comparison of the two pipelines over independent trials,
    the anchored one on keyframes of one scenario ("global" or
    "downsampled_ar", see generate_keyframes).

    Trials run batched, TRIAL_BLOCK at a time. Each trial draws from one
    stream per purpose, derived from the seed, the trial number and (for the
    anchors and the bridge noise) the scenario: its step-by-step noise, its
    anchors, and its bridge noise, read in frame order as in
    rollout_anchored. So the result depends on the seed alone. The anchors
    of a trial block are one (K, B, d) array, checked finite: "global" takes
    two draws from each trial's anchor stream in one _World.keyframes call,
    "downsampled_ar" is one row of the ground truth's pass and derives no
    anchor stream. Per-frame sums accumulate in trial order. Every argument
    is checked before the ground truth's pass."""
    trials = _as_count(trials, "trials")
    base = cfg.seed if seed is None else _as_int(seed, "seed")
    kf_error_cap, jumps = _anchor_inputs(cfg, plan, scenario, kf_error_cap, kf_step_error, "kf_")
    layout = _AnchoredLayout(plan, cfg.dim, sigma_int, velocity_error)
    n = plan.total_frames

    # trial block 0 and the downsampled-AR anchors run in the truth's own pass
    world = _World(cfg, n, [derive_rng(base, "trial-ar", i)
                            for i in range(min(TRIAL_BLOCK, trials))], jumps)
    kf_idx = list(plan.keyframes)
    ar_sums, dc_sums = np.zeros((2, n)), np.zeros((2, n))
    for first in range(0, trials, TRIAL_BLOCK):
        block = range(first, min(first + TRIAL_BLOCK, trials))
        x = (world.take_rollouts() if first == 0
             else world.ar_rollouts([derive_rng(base, "trial-ar", i) for i in block]))
        err = _error_norms(x, world.gt)
        _accumulate(ar_sums, err)
        if first == 0:
            first_ar = world.ar_trace(x[:, 0], err[0])
        if jumps is not None:  # they draw nothing: every trial gets the same ones
            kv = np.broadcast_to(world.jump_anchors[:, None], (len(kf_idx), len(block), cfg.dim))
        else:
            kv = world.keyframes(kf_idx, kf_error_cap,
                                 [derive_rng(base, f"trial-kf-{scenario}", i) for i in block])
        x = layout.run(kv, [child_seed(base, f"trial-anchored-{scenario}", i) for i in block])
        err = _error_norms(x, world.gt)
        _accumulate(dc_sums, err)
        if first == 0:
            first_anchored = layout.trace(world.gt, kv[:, 0], x[:, 0], err[0])
    return ComparisonReport(
        ar_mean_error=ar_sums[0] / trials,
        ar_mse=ar_sums[1] / trials,
        anchored_mean_error=dc_sums[0] / trials,
        anchored_mse=dc_sums[1] / trials,
        trial0_ar=first_ar,
        trial0_anchored=first_anchored,
    )
