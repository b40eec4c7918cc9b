"""Closed forms and numerical oracles for rollout error propagation.

Covers the two generation regimes:

  * pure step-by-step generation, whose error obeys a Lipschitz recursion and
    diverges with horizon length (upper bound),
  * keyframe-anchored interpolation, whose error decomposes into an anchor
    interpolation term, a velocity-leakage term damped by a factor of -1/2
    per segment, and pinned bridge noise, giving a horizon-independent bound.

Each closed form ships with an independent numerical oracle (discrete
quadratic minimizer, dense grid search, pinned-walk Monte Carlo) used by the
test suite to confirm the formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .seeding import as_rng

#: boundary velocity errors shrink by this factor from one segment to the next
DAMPING_FACTOR = -0.5

#: peak of the damped leakage curve, as a fraction of T * |incoming velocity error|
LEAKAGE_PEAK_COEFF = np.sqrt(3.0) / 9.0

#: geometric series sum of |DAMPING_FACTOR|**k over all segments
LEAKAGE_SERIES_SUM = 2.0

DIVERGENCE_CAP = 1e300


# ---------------------------------------------------------------------------
# divergence of pure autoregressive generation
# ---------------------------------------------------------------------------

def ar_upper_curve(lipschitz: float, step_error: float, n_frames: int,
                   cap: float = DIVERGENCE_CAP) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame bound values and diverged flags for frames 0..n_frames-1:
    frame t holds the bound after t steps of e <- L*e + eta, i.e. the
    geometric sum eta*(L**t - 1)/(L - 1). Values beyond `cap` saturate to
    `cap` and are flagged diverged, so divergence curves stay plottable."""
    if not lipschitz >= 0.0:
        raise InvalidInput("lipschitz constant must be >= 0")
    if not step_error >= 0.0:
        raise InvalidInput("step error must be >= 0")
    values = np.zeros(n_frames)
    flags = np.zeros(n_frames, dtype=bool)
    total = 0.0
    for t in range(1, n_frames):
        total = lipschitz * total + step_error
        if total > cap or not math.isfinite(total):
            values[t:] = cap
            flags[t:] = True
            break
        values[t] = total
    return values, flags


# ---------------------------------------------------------------------------
# velocity-leakage damping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplineSolution:
    """Cubic a*tau^3 + b*tau^2 + c*tau + d minimizing integrated squared
    acceleration on [0, interval] under the anchored boundary conditions
    value(0) = value(interval) = 0, slope(0) = input_velocity,
    curvature(interval) = 0."""

    a: float
    b: float
    c: float
    d: float
    interval: float
    input_velocity: float

    def value(self, tau):
        tau = np.asarray(tau, dtype=float)
        return ((self.a * tau + self.b) * tau + self.c) * tau + self.d

    def slope(self, tau):
        tau = np.asarray(tau, dtype=float)
        return (3.0 * self.a * tau + 2.0 * self.b) * tau + self.c

    def curvature(self, tau):
        tau = np.asarray(tau, dtype=float)
        return 6.0 * self.a * tau + 2.0 * self.b


def solve_damping_spline(interval: float, velocity_in: float) -> SplineSolution:
    """Unique accel-minimizing cubic absorbing an incoming boundary velocity
    error between two rigid anchors a distance `interval` apart."""
    T = float(interval)
    if not np.isfinite(T) or T <= 0.0:
        raise InvalidInput("interval must be positive")
    dv = float(velocity_in)
    a = dv / (2.0 * T * T)
    b = -3.0 * dv / (2.0 * T)
    return SplineSolution(a, b, dv, 0.0, T, dv)


def leakage_peak(interval: float, velocity_in: float) -> tuple[float, float]:
    """Location and magnitude of the largest excursion of the damped leakage
    curve: tau* = T(1 - sqrt(3)/3), peak = (sqrt(3)/9) * T * |dv|."""
    T = float(interval)
    if not np.isfinite(T) or T <= 0.0:
        raise InvalidInput("interval must be positive")
    tau_star = T * (1.0 - np.sqrt(3.0) / 3.0)
    peak = LEAKAGE_PEAK_COEFF * T * abs(float(velocity_in))
    return float(tau_star), float(peak)


def cumulative_leakage_bound(interval: float, velocity0: float) -> float:
    """Horizon-independent cap on the leakage excursion over all segments:
    the per-segment peak times the geometric series sum 2, i.e.
    2 * (sqrt(3)/9) * T * |dv0| (~= 0.384 * T * |dv0|)."""
    T = float(interval)
    if not np.isfinite(T) or T <= 0.0:
        raise InvalidInput("interval must be positive")
    return float(LEAKAGE_SERIES_SUM * LEAKAGE_PEAK_COEFF * T * abs(float(velocity0)))


def discrete_spline_minimizer(interval: float, velocity_in: float,
                              grid_points: int = 1000) -> tuple[np.ndarray, np.ndarray]:
    """Independent oracle for solve_damping_spline: minimize the sum of
    squared second central differences on a uniform grid, subject to the same
    four boundary conditions, as an equality-constrained least-squares (KKT)
    system.

    Ghost nodes carry central-difference boundary constraints and the two end
    curvature terms get trapezoidal half-weight, which keeps the discrete
    minimizer within O(1/m^2) of the continuous one. Returns (grid, values).
    """
    T = float(interval)
    if T <= 0.0:
        raise InvalidInput("interval must be positive")
    m = int(grid_points)
    if m < 6:
        raise InvalidInput("grid_points must be >= 6")
    h = T / (m - 1)
    n = m + 2  # unknowns: ghost, x_0..x_{m-1}, ghost
    w = np.ones(m)
    w[0] = w[-1] = 0.5
    A = np.zeros((m, n))
    for i in range(m):
        s = np.sqrt(w[i])
        A[i, i] = s
        A[i, i + 1] = -2.0 * s
        A[i, i + 2] = s
    C = np.zeros((4, n))
    rhs_c = np.zeros(4)
    C[0, 1] = 1.0                                    # value at 0
    C[1, m] = 1.0                                    # value at T
    C[2, 2], C[2, 0] = 1.0, -1.0                     # central slope at 0
    rhs_c[2] = 2.0 * h * float(velocity_in)
    C[3, m + 1], C[3, m], C[3, m - 1] = 1.0, -2.0, 1.0  # central curvature at T
    K = np.zeros((n + 4, n + 4))
    K[:n, :n] = 2.0 * (A.T @ A)
    K[:n, n:] = C.T
    K[n:, :n] = C
    rhs = np.zeros(n + 4)
    rhs[n:] = rhs_c
    sol = np.linalg.solve(K, rhs)
    return np.linspace(0.0, T, m), sol[1:m + 1]


# ---------------------------------------------------------------------------
# pinned bridge statistics
# ---------------------------------------------------------------------------

def bridge_mean(tau, interval: float, left, right):
    """Convex combination of the two anchors: (1 - tau/T)*left + (tau/T)*right."""
    T = float(interval)
    if T <= 0.0:
        raise InvalidInput("interval must be positive")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0) or np.any(tau > T):
        raise InvalidInput("tau must lie in [0, interval]")
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if left.shape != right.shape:
        raise InvalidInput(f"anchor dimension mismatch: {left.shape} vs {right.shape}")
    lam = tau / T
    if left.ndim > 0 and np.ndim(lam) > 0:
        lam = lam[..., None]
    return (1.0 - lam) * left + lam * right


def bridge_variance(tau, interval, noise_std: float):
    """Variance of the pinned bridge at offset tau: tau*(T-tau)/T * sigma^2,
    elementwise over arrays of offsets and intervals. Zero at both anchors,
    maximal (T/4 * sigma^2) at midspan."""
    T = np.asarray(interval, dtype=float)
    if np.any(T <= 0.0):
        raise InvalidInput("interval must be positive")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0) or np.any(tau > T):
        raise InvalidInput("tau must lie in [0, interval]")
    with np.errstate(over="ignore"):  # a variance past the float range reads inf
        out = tau * (T - tau) / T * np.square(np.float64(noise_std))
    return float(out) if out.ndim == 0 else out


def simulate_bridge_paths(interval: float, noise_std: float, n_steps: int,
                          n_paths: int, rng=None,
                          anchors: tuple[float, float] = (0.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo oracle for the bridge statistics: a Gaussian random walk
    pinned at both endpoints (standard draped construction, exact in
    distribution at the grid points). Returns (times, paths[n_paths, n_steps+1])."""
    T = float(interval)
    if T <= 0.0 or n_steps < 1 or n_paths < 1:
        raise InvalidInput("need interval > 0, n_steps >= 1, n_paths >= 1")
    g = as_rng(rng)
    dt = T / n_steps
    steps = g.normal(0.0, float(noise_std) * np.sqrt(dt), size=(n_paths, n_steps))
    walk = np.concatenate([np.zeros((n_paths, 1)), np.cumsum(steps, axis=1)], axis=1)
    t = np.linspace(0.0, T, n_steps + 1)
    pinned = walk - (t / T)[None, :] * walk[:, -1:]
    lo, hi = anchors
    return t, pinned + lo + (t / T)[None, :] * (hi - lo)


# ---------------------------------------------------------------------------
# unified anchored-interpolation bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundBreakdown:
    """The three terms of the anchored-interpolation error bound and their sum."""

    anchor_term: float
    leakage_term: float
    noise_term: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total",
                           self.anchor_term + self.leakage_term + self.noise_term)


def unified_bound(anchor_error: float, interval: int, velocity_error: float = 0.0,
                  interp_noise: float = 0.0) -> BoundBreakdown:
    """Horizon-independent error cap for keyframe-anchored interpolation:

        anchor_error + 2*(sqrt(3)/9)*T*|dv0| + (sqrt(T)/2)*sigma_int

    from the largest anchor error norm, the largest anchor interval T in
    frames (an integer >= 1), the incoming boundary velocity error norm dv0
    and the bridge noise scale sigma_int. The caller picks the anchor term:
    measured anchor errors, or an a-priori cap. Each value must be
    non-negative and all but anchor_error finite; an anchor error norm past
    the float range reads inf, and so does the bound.
    """
    if not anchor_error >= 0.0:
        raise InvalidInput("anchor_error must be non-negative")
    for name, value in (("velocity_error", velocity_error), ("interp_noise", interp_noise)):
        if not 0.0 <= value < np.inf:
            raise InvalidInput(f"{name} must be finite and non-negative")
    if not isinstance(interval, (int, np.integer)) or interval < 1:
        raise InvalidInput("interval must be an integer >= 1")
    leakage = cumulative_leakage_bound(interval, velocity_error)
    noise = 0.5 * np.sqrt(interval) * interp_noise
    return BoundBreakdown(float(anchor_error), float(leakage), float(noise))
