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

Both run on one trial engine that simulates a batch of Monte-Carlo trials as
one array; a standalone rollout is its one-trial case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LatentSeq,
    RolloutPlan,
    Trajectory,
    _row_norm,
    validate_plan,
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
from .schedule import window_spans
from .seeding import as_rng, derive_rng, derive_seed_sequence

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
    bias       -- per-step generator drift vector (norm = the drift rate mu)
    noise_std  -- per-step, per-component generator noise sigma
    x0         -- initial latent state (frame 0, always ground truth)
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
        if self.dim < 1:
            raise InvalidInput("dim must be >= 1")
        for name in ("lipschitz", "noise_std"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise InvalidInput(f"{name} must be finite and non-negative")
        if self.dynamics not in ("scaled_identity", "rotation"):
            raise InvalidInput(f"unknown dynamics kind {self.dynamics!r}")
        for name in ("bias", "x0"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float)
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

    def bias_vector(self) -> np.ndarray:
        return np.zeros(self.dim) if self.bias is None else self.bias

    def drift_norm(self) -> float:
        return float(np.linalg.norm(self.bias_vector()))

    def initial_state(self) -> np.ndarray:
        return np.zeros(self.dim) if self.x0 is None else self.x0


def bias_from_norm(dim: int, norm: float) -> np.ndarray | None:
    """Drift vector of the given norm along the first axis."""
    if norm == 0.0:
        return None
    b = np.zeros(dim)
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
    idx = traj.frame_indices()
    if not np.array_equal(idx, np.arange(idx[0], idx[0] + len(idx))):
        raise InvalidInput("trajectory must be dense (consecutive frame indices)")
    if dim < 3:
        raise InvalidInput("need dim >= 3 to embed translation velocity")
    vel = np.diff(traj.translations(), axis=0)
    out = np.zeros((vel.shape[0], dim))
    out[:, :3] = vel
    return out


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RolloutTrace:
    """One generated rollout next to its ground truth.

    error_norms[t] is ||generated[t] - ground_truth[t]|| (recomputable);
    bounds[t] carries the per-frame bound curve when one applies.
    """

    generated: LatentSeq
    ground_truth: LatentSeq
    error_norms: np.ndarray
    bounds: np.ndarray | None = None
    breakdown: BoundBreakdown | None = None
    segment_ids: np.ndarray | None = None
    keyframe_indices: tuple[int, ...] = ()
    segment_chunks: tuple[tuple[int, np.ndarray], ...] | None = None

    def final_error(self) -> float:
        return float(self.error_norms[-1])


def write_trace_csv(trace: RolloutTrace, path) -> None:
    """Trace export: frame, err_norm, bound_total, anchor, leakage, noise,
    is_keyframe, segment_id."""
    bd = trace.breakdown
    n = len(trace.error_norms)
    is_kf = np.zeros(n, dtype=bool)
    is_kf[list(trace.keyframe_indices)] = True
    write_columns_csv(
        path, ("frame", "err_norm", "bound_total", "anchor", "leakage", "noise",
               "is_keyframe", "segment_id"),
        (np.arange(n), trace.error_norms,
         trace.bounds if trace.bounds is not None else 0.0,
         bd.anchor_term if bd else 0.0, bd.leakage_term if bd else 0.0,
         bd.noise_term if bd else 0.0, is_kf,
         trace.segment_ids if trace.segment_ids is not None else 0))


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


def _require_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise InvalidInput("latent frames must be finite")


def _error_norms(x: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """(B, n) error norms of a time-major (n, B, d) batch against (n, d); a
    norm beyond the float range reads inf, without a warning."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(x - gt[:, None], axis=-1).T


class _World:
    """What every trial of a run shares: the dynamics matrix (its
    spectral-norm check runs here, once), the controls and the ground truth.

    The ground truth is row 0 of each step-by-step batch: the same recursion
    x[t+1] = A x[t] + u[t], without the generator's drift and noise. The
    rollouts of the generators given here run in the ground truth's own pass
    (`take_rollouts`), so a standalone rollout, or a comparison's first trial
    block, takes one pass, not two."""

    def __init__(self, cfg: WorldConfig, n_frames: int, rngs=()):
        if n_frames < 1:
            raise InvalidInput("n_frames must be >= 1")
        self.cfg = cfg
        self.A = dynamics_matrix(cfg)
        self.u = control_schedule(cfg, n_frames)
        x = self._propagate(rngs)
        # LatentSeq copies a strided column: the truth keeps no rollout alive
        self.gt = LatentSeq(x[:, 0])
        self._rollouts = x[:, 1:]

    def _propagate(self, rngs) -> np.ndarray:
        """Time-major (n, 1+B, d) batch: row 0 the ground truth, row 1+b the
        step-by-step rollout of generator b, which adds the drift and its
        noise, drawn as one (n-1, d) block (bit-identical to n-1 draws of d).
        Each step is one matmul over the batch, bit-identical to the per-row
        A @ x[t], and the additions keep their left-to-right order."""
        cfg = self.cfg
        n = len(self.u) + 1
        x = np.empty((n, 1 + len(rngs), cfg.dim))
        x[0] = cfg.initial_state()
        b = cfg.bias_vector()
        noise = None
        if rngs and cfg.noise_std > 0.0:
            noise = np.empty((len(rngs), n - 1, cfg.dim))
            for g, block in zip(rngs, noise):
                g.standard_normal(out=block)
            noise *= cfg.noise_std
        stacked = x[..., None]
        steps = zip(stacked[:-1], stacked[1:], x[1:], x[1:, 1:], self.u)
        for t, (prev, nxt, row, generated, u) in enumerate(steps):
            np.matmul(self.A, prev, out=nxt)
            row += u
            if rngs:
                generated += b
                if noise is not None:
                    generated += noise[:, t]
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
        bounds, _ = ar_upper_curve(self.cfg.lipschitz, self.cfg.drift_norm(), len(self.gt))
        return RolloutTrace(LatentSeq(x), self.gt, err, bounds=bounds)

    def keyframes(self, idx: list[int], scenario: str, error_cap: float,
                  step_error: float | None, g) -> KeyframeLatents:
        """Anchor latents at the sorted frames idx (see generate_keyframes)."""
        cfg = self.cfg
        gt = self.gt.frames
        vals = np.empty((len(idx), cfg.dim))
        vals[0] = gt[0]
        if scenario == "global":
            if not 0.0 <= error_cap < np.inf:
                raise InvalidInput("error_cap must be finite and non-negative")
            # per anchor a direction draw, then its radius, in that order
            draws = np.empty((len(idx) - 1, cfg.dim))
            radii = np.empty((len(idx) - 1, 1))
            for direction, radius in zip(draws, radii):
                g.standard_normal(out=direction)
                radius[0] = g.uniform(0.0, error_cap)
            norms = _row_norm(draws)[:, None]
            unit = np.divide(draws, norms, out=np.zeros_like(draws), where=norms > 0.0)
            vals[1:] = gt[idx[1:]] + radii * unit
        elif scenario == "downsampled_ar":
            if step_error is not None and not 0.0 <= step_error < np.inf:
                raise InvalidInput("step_error must be finite and non-negative")
            mu = cfg.drift_norm() if step_error is None else float(step_error)
            b = cfg.bias_vector()
            bn = float(np.linalg.norm(b))
            direction = b / bn if bn > 0.0 else np.eye(cfg.dim)[0]
            step_vec = mu * direction
            err = np.zeros(cfg.dim)
            for j in range(1, len(idx)):
                for _ in range(idx[j] - idx[j - 1]):
                    err = self.A @ err
                err = err + step_vec
                vals[j] = gt[idx[j]] + err
        else:
            raise InvalidInput(f"unknown keyframe scenario {scenario!r}")
        return KeyframeLatents(tuple(idx), vals)


# ---------------------------------------------------------------------------
# ground truth and pure autoregressive rollout
# ---------------------------------------------------------------------------

def simulate_ground_truth(cfg: WorldConfig, n_frames: int) -> LatentSeq:
    """Noiseless controlled trajectory x_{t+1} = A x_t + u_t; deterministic,
    independent of the seed streams."""
    return _World(cfg, n_frames).gt


def rollout_pure_ar(cfg: WorldConfig, n_frames: int, rng=None) -> RolloutTrace:
    """Step-by-step generation from the true initial frame with per-step bias
    and noise; the per-frame error satisfies e_{t+1} = A e_t + b + sigma*eps
    exactly. Frame t of the bound column holds the bias-only Lipschitz bound
    after t steps (attained with equality when noise is off)."""
    g = as_rng(rng if rng is not None else derive_rng(cfg.seed, "ar-noise"))
    world = _World(cfg, n_frames, [g])
    x = world.take_rollouts()
    return world.ar_trace(x[:, 0], _error_norms(x, world.gt.frames)[0])


# ---------------------------------------------------------------------------
# keyframe generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyframeLatents:
    """Sparse anchor latents: sorted frame indices with one value per index."""

    indices: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if list(idx) != sorted(set(idx)):
            raise InvalidInput("keyframe indices must be sorted and unique")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] != len(idx):
            raise InvalidInput("keyframe values must be (len(indices), d)")
        if not np.all(np.isfinite(vals)):
            raise InvalidInput("keyframe values must be finite")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)

    def lookup(self) -> dict[int, np.ndarray]:
        return {k: self.values[i] for i, k in enumerate(self.indices)}


def generate_keyframes(cfg: WorldConfig, indices, scenario: str,
                       error_cap: float = 0.0, step_error: float | None = None,
                       rng=None) -> KeyframeLatents:
    """Anchor latents under one of two regimes.

    "global": every anchor is ground truth plus an independent perturbation of
    norm <= error_cap (frame 0, the given initial frame, stays exact).
    "downsampled_ar": anchors follow the step-by-step recursion applied once
    per keyframe jump, so their error accumulates across anchors at one
    step_error per jump (default step_error: the world's drift norm); they
    draw nothing, so rng is read only by "global".
    """
    idx = sorted(int(i) for i in indices)
    if not idx or idx[0] != 0:
        raise InvalidInput("keyframe indices must be sorted and include 0")
    world = _World(cfg, idx[-1] + 1)
    g = as_rng(rng if rng is not None else derive_rng(cfg.seed, "keyframes"))
    return world.keyframes(idx, scenario, error_cap, step_error, g)


def _anchor_error_norms(values: np.ndarray, gt: np.ndarray, indices) -> np.ndarray:
    """Error norm of each (K, d) anchor row against the ground truth at its
    frame: one batched expression, bit-identical to np.linalg.norm of each
    row."""
    return _row_norm(values - gt[list(indices)])


# ---------------------------------------------------------------------------
# keyframe-anchored interpolation rollout
# ---------------------------------------------------------------------------

def _velocity_vector(velocity_error, d: int) -> np.ndarray:
    if velocity_error is None:
        return np.zeros(d)
    if np.isscalar(velocity_error):
        dv0 = np.zeros(d)
        dv0[0] = float(velocity_error)
    else:
        dv0 = np.asarray(velocity_error, dtype=float)
        if dv0.shape != (d,):
            raise InvalidInput(f"velocity_error must be scalar or ({d},)")
    if not np.all(np.isfinite(dv0)):
        raise InvalidInput("velocity_error must be finite")
    return dv0


class _AnchoredLayout:
    """What every trial of an anchored rollout shares, built once from the
    plan: each frame's anchor interval, interpolation weight and
    velocity-leakage offset, and each generation window's noise schedule.
    Only the anchor values and the noise streams differ between trials."""

    def __init__(self, plan: RolloutPlan, d: int, sigma_int: float, velocity_error,
                 momentum: bool = True, substitution: bool = True):
        violations = validate_plan(plan)
        if violations:
            raise InvalidInput(f"plan fails validation: {violations}")
        if not 0.0 <= sigma_int < np.inf:
            raise InvalidInput("sigma_int must be finite and non-negative")
        self.plan = plan
        self.sigma_int = sigma_int
        self.dv0 = _velocity_vector(velocity_error, d)
        n = plan.total_frames
        kf = np.array(plan.keyframes)
        t = np.arange(n)
        # frame t lies in anchor interval j: kf[j] <= t < kf[j+1]; the final
        # frame closes the last interval
        j = np.minimum(np.searchsorted(kf, t, side="right") - 1, max(len(kf) - 2, 0))
        self.left = j
        self.leak_rows, self.leak = slice(None), None
        if len(kf) == 1:  # single-frame plan
            self.weights = None
            T = tau = np.zeros(n, dtype=int)
        else:
            T = kf[j + 1] - kf[j]
            tau = t - kf[j]
            lam = tau / T
            self.weights = ((1.0 - lam)[:, None, None], lam[:, None, None])
            if momentum:
                shape = np.empty(n)
                for length in np.unique(T).tolist():
                    rows = T == length
                    shape[rows] = solve_damping_spline(length, 1.0).value(tau[rows])
                # interval i enters with DAMPING_FACTOR times its
                # predecessor's velocity error, multiplied in interval order
                # (a repeated product's rounding, subnormals included);
                # without substitution the hand-off dies
                dvs = np.zeros((len(kf) - 1, d))
                dvs[0] = self.dv0
                if substitution:
                    dvs[1:] = DAMPING_FACTOR
                    np.multiply.accumulate(dvs, out=dvs)
                self.leak = shape[:, None] * dvs[j]
            elif T[0] > 1:
                # the generator rides the erroneous velocity through the first
                # interval and snaps back at its closing anchor
                first = j == 0
                ramp = np.where(tau[first] < T[0], tau[first], 0).astype(float)
                self.leak_rows, self.leak = first, ramp[:, None] * self.dv0

        # bridge-noise schedule: window i's stream draws one row for each of
        # draw_frames[cuts[i]:cuts[i+1]], in that order; the first marginal[i]
        # of them (overlap frames when substitution is off) are redrawn from the
        # marginal law, the rest continue the bridge recursion
        # w[t] = frac*w[t-1] + scale*eps
        p = plan.overlap
        starts, ends = window_spans(n, plan.segment_len, p)
        # window i generates gen_from[i]..ends[i]: with substitution its
        # overlap frames are its predecessor's, and the spans cut the plan;
        # a frame's id is the last window that generates it
        gen_from = starts + (p if substitution else 0)
        gen_from[0] = 0
        self.seg_ids = np.searchsorted(gen_from, t, side="right") - 1
        # the generated spans one after another: frame span[k] of window win[k]
        lens = ends - gen_from + 1
        win = np.repeat(np.arange(len(starts)), lens)
        span = np.arange(len(win)) + np.repeat(gen_from - (np.cumsum(lens) - lens), lens)
        is_kf = np.zeros(n, dtype=bool)
        is_kf[kf] = True
        drawn = ~is_kf[span]
        self.draw_frames, win = span[drawn], win[drawn]
        self.cuts = np.concatenate(([0], np.cumsum(np.bincount(win, minlength=len(starts)))))
        # the overlap frames a later window generates are marginal redraws
        # (with substitution it generates none)
        redrawn = (win > 0) & (self.draw_frames < starts[win] + p)
        self.marginal = np.bincount(win[redrawn], minlength=len(starts)).tolist()
        # with sigma_int 0 every kick is 0*eps, +0.0 or -0.0, and a bridge row
        # +0.0*frac + kick is +0.0: only a marginal redraw row can hold -0.0,
        # so without such rows the noise is +0.0 throughout and drawing it
        # changes no bit
        self.draws = sigma_int > 0.0 or any(self.marginal)
        remaining = kf[j[self.draw_frames] + 1] - (self.draw_frames - 1)
        self.draw_frac = (remaining - 1) / remaining
        self.draw_scale = sigma_int * np.sqrt(self.draw_frac)
        f = self.draw_frames[redrawn]
        self.draw_scale[redrawn] = np.sqrt(bridge_variance(tau[f], T[f], sigma_int))

    def field(self, kv: np.ndarray) -> np.ndarray:
        """Deterministic part of each trial from its (K, B, d) anchor values:
        anchor interpolation plus velocity leakage, as an (n, B, d) batch."""
        if self.weights is None:
            return kv.copy()
        w_left, w_right = self.weights
        det = kv[self.left]
        det *= w_left
        right = kv[self.left + 1]
        right *= w_right
        det += right
        if self.leak is not None:
            det[self.leak_rows] += self.leak[:, None]
        return det

    def run(self, kv: np.ndarray, seeds, collect_segments: bool = False):
        """Anchored rollouts of a batch, trial b drawing its noise from the
        streams of seeds[b] (one (k, d) block per window). Returns the
        (n, B, d) frames and, on request, trial 0's frames of each window as
        they stood once that window was generated."""
        det = self.field(kv)
        d = det.shape[2]
        w = np.zeros_like(det)
        chunks = []
        segments = self.plan.segments if collect_segments else None
        bounds = self.cuts.tolist()
        for si, (lo, hi, m) in enumerate(zip(bounds, bounds[1:], self.marginal)):
            if self.draws:
                eps = np.stack([derive_rng(s, "interp-noise", si).standard_normal((hi - lo, d))
                                for s in seeds], axis=1)
                kicks = self.draw_scale[lo:hi, None, None] * eps
                w[self.draw_frames[lo:lo + m]] = kicks[:m]
                for t, frac, kick in zip(self.draw_frames[lo + m:hi].tolist(),
                                         self.draw_frac[lo + m:hi].tolist(), kicks[m:]):
                    np.multiply(w[t - 1], frac, out=w[t])
                    w[t] += kick
            if collect_segments:
                seg = segments[si]
                span = slice(seg.start, seg.end + 1)
                chunks.append((seg.start, det[span, 0] + w[span, 0]))
        det += w
        _require_finite(det)
        return det, chunks

    def trace(self, world: _World, kv: np.ndarray, x: np.ndarray, err: np.ndarray,
              chunks=None) -> RolloutTrace:
        """One trial's trace from its (K, d) anchors and (n, d) frames; the
        bound column holds the unified bound built from its largest anchor
        error."""
        gt, kf_idx = world.gt, self.plan.keyframes
        max_T = max((hi - lo for lo, hi in zip(kf_idx, kf_idx[1:])), default=1)
        anchor = float(_anchor_error_norms(kv, gt.frames, kf_idx).max())
        breakdown = unified_bound(anchor, max_T, float(np.linalg.norm(self.dv0)),
                                  self.sigma_int)
        return RolloutTrace(LatentSeq(x), gt, err, bounds=np.full(len(gt), breakdown.total),
                            breakdown=breakdown,
                            segment_ids=self.seg_ids.copy(), keyframe_indices=tuple(kf_idx),
                            segment_chunks=None if chunks is None else tuple(chunks))


def rollout_anchored(cfg: WorldConfig, plan: RolloutPlan, keyframes: KeyframeLatents,
                     sigma_int: float = 0.0, momentum: bool = True,
                     substitution: bool = True, velocity_error=None,
                     seed: int | None = None,
                     collect_segments: bool = False) -> RolloutTrace:
    """Anchored interpolation rollout over a plan.

    Each frame between consecutive anchors is the convex combination of the
    anchor latents, plus a velocity-leakage correction, plus pinned bridge
    noise of scale sigma_int. The incoming boundary velocity error enters the
    first anchor interval; with momentum on it is absorbed by the
    accel-minimizing spline and handed to the next interval damped by -1/2
    (the hand-off needs the substituted clean boundary, so it dies when
    substitution is off). With momentum off the generator rides the erroneous
    velocity and snaps back at the next anchor.

    Generation windows run in order; with substitution on, each window's
    first `overlap` frames are taken verbatim from its predecessor and the
    noise process continues through them, otherwise the window redraws those
    frames from the marginal noise law (a visible junction discontinuity).

    The per-frame bound column holds the unified anchored-interpolation bound
    for the damped pipeline (momentum and substitution on), built from the
    measured anchor errors.
    """
    layout = _AnchoredLayout(plan, cfg.dim, sigma_int, velocity_error, momentum, substitution)
    have = set(keyframes.indices)
    missing = [k for k in plan.keyframes if k not in have]
    if missing:
        raise InvalidInput(f"keyframe latents missing plan anchors {missing}")
    world = _World(cfg, plan.total_frames)
    values = keyframes.lookup()
    kv = np.stack([values[k] for k in plan.keyframes])[:, None]
    x, chunks = layout.run(kv, [cfg.seed if seed is None else int(seed)], collect_segments)
    err = _error_norms(x, world.gt.frames)[0]
    return layout.trace(world, kv[:, 0], x[:, 0], err,
                        chunks if collect_segments else None)


# ---------------------------------------------------------------------------
# pipeline comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    """Per-frame Monte-Carlo means for the two pipelines, the anchored one
    under one keyframe scenario, and trial 0's rollout of each."""

    frames: np.ndarray
    ar_mean_error: np.ndarray
    ar_mse: np.ndarray
    anchored_mean_error: np.ndarray
    anchored_mse: np.ndarray
    trials: int
    trial0_ar: RolloutTrace
    trial0_anchored: RolloutTrace

    def final_ratio(self) -> float:
        """Final-frame mean error of the step-by-step pipeline over the
        anchored pipeline's."""
        anchored = self.anchored_mean_error[-1]
        return float(self.ar_mean_error[-1] / anchored) if anchored > 0 else float("inf")


def _accumulate(sums: np.ndarray, errs: np.ndarray) -> None:
    """Add each trial's error row and its square to (2, n) running sums, in
    trial order."""
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

    Trials run batched, TRIAL_BLOCK at a time, each on its own streams
    derived from the seed, the trial number and (for the anchors and the
    bridge noise) the scenario, so the result depends on the seed alone.
    Per-frame sums accumulate in trial order."""
    if trials < 1:
        raise InvalidInput("trials must be >= 1")
    base = cfg.seed if seed is None else int(seed)
    n = plan.total_frames

    def ar_rngs(block):
        return [derive_rng(base, "trial-ar", i) for i in block]

    # trial block 0 runs in the ground truth's own pass
    world = _World(cfg, n, ar_rngs(range(min(TRIAL_BLOCK, trials))))
    layout = _AnchoredLayout(plan, cfg.dim, sigma_int, velocity_error)
    kf_idx = list(plan.keyframes)
    ar_sums, dc_sums = np.zeros((2, n)), np.zeros((2, n))
    # downsampled-AR anchors draw nothing: every trial gets the same ones
    shared_kv = (world.keyframes(kf_idx, scenario, kf_error_cap, kf_step_error, None).values
                 if scenario == "downsampled_ar" else None)
    for first in range(0, trials, TRIAL_BLOCK):
        block = range(first, min(first + TRIAL_BLOCK, trials))
        x = world.take_rollouts() if first == 0 else world.ar_rollouts(ar_rngs(block))
        err = _error_norms(x, world.gt.frames)
        _accumulate(ar_sums, err)
        if first == 0:
            first_ar = world.ar_trace(x[:, 0], err[0])
        if shared_kv is not None:
            kv = np.broadcast_to(shared_kv[:, None], (len(kf_idx), len(block), cfg.dim))
        else:
            kv = np.stack([world.keyframes(kf_idx, scenario, kf_error_cap, kf_step_error,
                                           derive_rng(base, f"trial-kf-{scenario}", i)).values
                           for i in block], axis=1)
        seeds = [int(derive_seed_sequence(base, f"trial-anchored-{scenario}", i)
                     .generate_state(1)[0]) for i in block]
        x, _ = layout.run(kv, seeds)
        err = _error_norms(x, world.gt.frames)
        _accumulate(dc_sums, err)
        if first == 0:
            first_anchored = layout.trace(world, kv[:, 0], x[:, 0], err[0])
    return ComparisonReport(
        frames=np.arange(n),
        ar_mean_error=ar_sums[0] / trials,
        ar_mse=ar_sums[1] / trials,
        anchored_mean_error=dc_sums[0] / trials,
        anchored_mse=dc_sums[1] / trials,
        trials=trials,
        trial0_ar=first_ar,
        trial0_anchored=first_anchored,
    )
