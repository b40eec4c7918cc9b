import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rollbound.core import InvalidInput, RolloutPlan
from rollbound.errormodel import (
    DAMPING_FACTOR,
    DIVERGENCE_CAP,
    ar_upper_curve,
    bridge_mean,
    bridge_variance,
    cumulative_leakage_bound,
    discrete_spline_minimizer,
    jump_anchor_bound,
    leakage_peak,
    simulate_bridge_paths,
    solve_damping_spline,
    unified_bound,
)
from rollbound.schedule import build_plan
from rollbound.worldsim import WorldConfig, _safe_norms, generate_keyframes


# ---------------------------------------------------------------------------
# step-by-step divergence
# ---------------------------------------------------------------------------

def _ar_upper(L, eta, n_steps):
    """The step-by-step bound after n_steps: the curve's last value."""
    return ar_upper_curve(L, eta, n_steps + 1)[0][-1]


def test_ar_upper_linear_regime():
    assert _ar_upper(1.0, 0.1, 50) == pytest.approx(5.0, abs=1e-12)


def test_ar_upper_geometric_sum():
    # 8 + 4 + 2 + 1
    assert _ar_upper(2.0, 1.0, 4) == 15.0


def test_ar_upper_single_step():
    assert _ar_upper(3.0, 0.7, 1) == 0.7


def test_ar_upper_curve_matches_geometric_sum():
    # oracle: eta * (L**t - 1) / (L - 1) at every frame t
    g = np.random.default_rng(0)
    for _ in range(20):
        L = float(g.uniform(0.1, 1.6))
        eta = float(g.uniform(0.0, 2.0))
        n = int(g.integers(1, 60))
        values, flags = ar_upper_curve(L, eta, n + 1)
        t = np.arange(n + 1)
        assert not flags.any()
        np.testing.assert_allclose(values, eta * (L ** t - 1.0) / (L - 1.0), rtol=1e-12)


#: a power of two, so (2^j - 1) * _ETA is exact: it first exceeds
#: DIVERGENCE_CAP (about 612.5 * _ETA) at j = 10
_ETA = 2.0 ** 987


def test_ar_upper_saturates_with_step():
    values, flags = ar_upper_curve(2.0, _ETA, 101)
    assert flags[-1]
    assert values[-1] == DIVERGENCE_CAP
    assert int(np.argmax(flags)) == 10


def test_ar_upper_curve_flags():
    vals, flags = ar_upper_curve(2.0, _ETA, 15)
    assert not flags[9] and flags[10]
    assert vals[9] == 511.0 * _ETA
    assert vals[10] == DIVERGENCE_CAP
    assert vals[3] == 7.0 * _ETA


def _ar_upper_loop(L, eta, n, cap):
    """The recursion e <- L*e + eta one scalar step at a time, saturating to
    DIVERGENCE_CAP at the first value beyond cap or non-finite."""
    values, flags = np.zeros(n), np.zeros(n, dtype=bool)
    total = 0.0
    for t in range(1, n):
        total = L * total + eta
        if total > cap or not np.isfinite(total):
            values[t:], flags[t:] = DIVERGENCE_CAP, True
            break
        values[t] = total
    return values, flags


# the loop's threshold is DIVERGENCE_CAP, as the curve's is; the two largest
# finite steps reach it mid-horizon, at frames 11 and 51. With no threshold
# at all (cap = inf) an infinite step still saturates from frame 1, by the
# non-finite check alone
@pytest.mark.parametrize("eta, cap", [(eta, DIVERGENCE_CAP)
                                      for eta in (0.0, 0.01, 1e300, np.inf, 2e298, 1e299)]
                         + [(np.inf, np.inf)])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 100])
def test_ar_upper_curve_unit_lipschitz_matches_scalar_loop(eta, cap, n):
    # L = 1 runs as a running sum; it must make the loop's additions bit for
    # bit, and saturate from the same frame
    values, flags = ar_upper_curve(1.0, eta, n)
    loop_values, loop_flags = _ar_upper_loop(1.0, eta, n, cap)
    np.testing.assert_array_equal(values, loop_values)
    np.testing.assert_array_equal(flags, loop_flags)
    if n == 100 and eta in (2e298, 1e299):
        assert int(np.argmax(flags)) == {2e298: 51, 1e299: 11}[eta]


def test_ar_upper_rejects_bad_inputs():
    for L, eta in ((-1.0, 0.1), (np.nan, 0.1), (1.0, -0.1), (1.0, np.nan)):
        with pytest.raises(InvalidInput):
            ar_upper_curve(L, eta, 5)


# ---------------------------------------------------------------------------
# anchor jumps
# ---------------------------------------------------------------------------

def _stepped(lipschitz, error, frames):
    """error after `frames` single steps e <- L*e, stopping once past
    DIVERGENCE_CAP: a jump whose factor L**frames passes the float range."""
    for _ in range(frames):
        error *= lipschitz
        if error > DIVERGENCE_CAP:
            break
    return error


def _stride_jump_bound(lipschitz, step_error, n_frames, stride):
    """The jump bound in closed form for a plan at one stride: the
    (n_frames-1)//stride full intervals on ar_upper_curve with L**stride,
    then the shorter remainder as one more jump. A factor past the float
    range steps its frames one at a time instead (_stepped). The reference
    that the bound on the plan's intervals must match bit for bit."""
    full, last = divmod(n_frames - 1, stride)
    with np.errstate(over="ignore"):
        factor, jump = (float(np.float64(lipschitz) ** frames) for frames in (stride, last))
    if math.isinf(factor) and step_error and full > 1:
        error = step_error  # the first jump, from e = 0
        for _ in range(full - 1):
            error = _stepped(lipschitz, error, stride) + step_error
            if error > DIVERGENCE_CAP:
                return DIVERGENCE_CAP
    else:
        values, flags = ar_upper_curve(factor, step_error, full + 1)
        error = float(values[-1])
        if flags[-1]:
            return error
    if last and not error:  # a jump from e = 0 gives step_error, whatever its factor
        error = step_error
    elif last:
        error = (_stepped(lipschitz, error, last) if math.isinf(jump) else jump * error) + step_error
    error *= 1.0 + 4.0 * (n_frames - 1) * math.ulp(1.0)
    return error if error <= DIVERGENCE_CAP else DIVERGENCE_CAP


def test_jump_bound_on_a_stride_plan_is_the_stride_formula_bit_for_bit():
    # 5,000 random one-stride plans, L from 0 to 1e200 and mu from 0 to
    # 1e300: the plan's intervals give the stride formula's float, whether
    # it saturates or not
    g = np.random.default_rng(29)
    cases = [(L, mu, n, stride) for L in (0.0, 1.0) for mu in (0.0, 0.3, 1e300)
             for n in (1, 2, 51) for stride in (1, 8, 50, 55)]
    while len(cases) < 5000:
        L = g.choice([0.0, 1.0, g.uniform(0.0, 1.0), g.uniform(1.0, 1.3),
                      10.0 ** g.uniform(-3.0, 200.0)])
        mu = g.choice([0.0, g.uniform(0.0, 1.0), 10.0 ** g.uniform(-300.0, 300.0)])
        n = int(np.exp(g.uniform(0.0, np.log(3000.0))))
        stride = int(g.integers(1, n + 5))
        cases.append((float(L), float(mu), n, stride))
    saturated = 0
    for L, mu, n, stride in cases:
        bound = jump_anchor_bound(L, mu, np.diff(build_plan(n, stride, 9, 1).keyframes))
        expected = _stride_jump_bound(L, mu, n, stride)
        assert bound.hex() == expected.hex(), (L, mu, n, stride, bound, expected)
        saturated += bound == DIVERGENCE_CAP
    assert 0 < saturated < len(cases)


@st.composite
def _irregular_plans(draw):
    """An API plan with keyframes at random frames, 0 and the final one
    included."""
    n = draw(st.integers(1, 60))
    inner = draw(st.sets(st.integers(1, max(n - 2, 1)), max_size=12)) if n > 2 else set()
    return RolloutPlan(n, sorted({0, n - 1} | inner), 9, 1)


#: the smallest positive normal float: a step error below it makes anchors
#: that round by absolute, not relative, amounts
_TINY = float(np.finfo(float).tiny)


@given(_irregular_plans(), st.sampled_from(["scaled_identity", "rotation"]),
       st.floats(0.0, 1.3), st.one_of(st.just(0.0), st.floats(_TINY, 100.0)),
       st.integers(1, 4))
@example(RolloutPlan(3, (0, 1, 2), 9, 1), "scaled_identity", 1.0, 9.81083415882041e-162, 1)
@settings(max_examples=300, deadline=None)
def test_jump_bound_covers_the_anchor_errors_of_any_plan(plan, dynamics, L, mu, d):
    # on an irregular plan the error may fall from one anchor to the next
    # (a long interval after a short one, L < 1): the bound is the largest
    # over the anchors, not the last one's. A zero truth leaves the
    # anchors' own error, with no rounding of gt + e. The error is measured
    # as the anchor term measures it (a plain norm of an error below about
    # 1e-154 loses bits to its squares' underflow, as in the example).
    # A step error below the normal range is the next test's
    world = WorldConfig(dim=d, lipschitz=L, dynamics=dynamics)
    anchors = generate_keyframes(world, plan, "downsampled_ar", step_error=mu)
    measured = _safe_norms(anchors).max()
    assert jump_anchor_bound(L, mu, np.diff(plan.keyframes)) >= measured


def test_jump_bound_misses_anchors_that_round_below_the_normal_range():
    # a known hole: the bound's margin is relative, 4 ulps a step, but a
    # subnormal product rounds by up to half the smallest subnormal, a
    # relative error of up to 100%. Here each of the anchors' three steps
    # 0.75 * 5e-324 rounds up to 5e-324, where the jump's one product
    # 0.421875 * 5e-324 rounds to 0. A rounding margin that scales with
    # the numbers would close it, and change what this test asserts
    world = WorldConfig(dim=1, lipschitz=0.75)
    anchors = generate_keyframes(world, RolloutPlan(5, (0, 1, 4), 9, 1), "downsampled_ar",
                                 step_error=5e-324)
    assert _safe_norms(anchors).tolist() == [0.0, 5e-324, 1e-323]
    assert jump_anchor_bound(0.75, 5e-324, [1, 3]) == 5e-324


# ---------------------------------------------------------------------------
# damping spline
# ---------------------------------------------------------------------------

def test_spline_closed_form_coefficients():
    sp = solve_damping_spline(1.0, 1.0)
    assert (sp.a, sp.b, sp.c, sp.d) == pytest.approx((0.5, -1.5, 1.0, 0.0), abs=1e-12)


def test_spline_zero_velocity_is_zero():
    sp = solve_damping_spline(3.0, 0.0)
    tau = np.linspace(0, 3, 50)
    assert np.all(sp.value(tau) == 0.0)


def test_spline_boundary_conditions():
    g = np.random.default_rng(2)
    for _ in range(50):
        T = float(g.uniform(0.1, 50.0))
        dv = float(g.uniform(-5.0, 5.0))
        sp = solve_damping_spline(T, dv)
        assert abs(sp.value(0.0)) < 1e-9
        assert abs(sp.value(T)) < 1e-9 * max(1.0, abs(dv) * T)
        assert sp.slope(0.0) == pytest.approx(dv, abs=1e-9)
        assert abs(sp.curvature(T)) < 1e-9


def test_spline_matches_discrete_minimizer():
    g = np.random.default_rng(3)
    for _ in range(5):
        T = float(g.uniform(0.5, 20.0))
        dv = float(g.uniform(-5.0, 5.0))
        grid, vals = discrete_spline_minimizer(T, dv, grid_points=1000)
        assert np.max(np.abs(vals - solve_damping_spline(T, dv).value(grid))) < 1e-3


def test_spline_energy_optimality_against_feasible_perturbations():
    # any candidate satisfying the same four constraints has no less energy
    g = np.random.default_rng(4)
    tau = np.linspace(0.0, 1.0, 4001)

    def energy(second_deriv):
        return np.trapezoid(second_deriv ** 2, tau)

    for _ in range(10):
        T = 1.0
        dv = float(g.uniform(-3.0, 3.0))
        sp = solve_damping_spline(T, dv)
        base = energy(sp.curvature(tau))
        for _ in range(10):
            # tau^2 (T-tau)^3 * poly vanishes with its first derivative at 0,
            # vanishes at T, and has zero curvature at T
            coeffs = g.uniform(-2.0, 2.0, size=3)
            poly = coeffs[0] + coeffs[1] * tau + coeffs[2] * tau ** 2
            pert = tau ** 2 * (T - tau) ** 3 * poly
            d2 = np.gradient(np.gradient(sp.value(tau) + pert, tau), tau)
            assert energy(d2) >= base - 1e-6


def test_damping_factor_independent_of_interval():
    g = np.random.default_rng(5)
    for _ in range(100):
        T = float(g.uniform(0.1, 100.0))
        dv = float(g.uniform(-10.0, 10.0))
        sp = solve_damping_spline(T, dv)
        assert sp.slope(T) == pytest.approx(DAMPING_FACTOR * dv, abs=1e-9)


def test_leakage_peak_closed_form():
    tau_star, peak = leakage_peak(9.0, 1.0)
    assert tau_star == pytest.approx(9.0 * (1 - np.sqrt(3) / 3), abs=1e-12)
    assert tau_star == pytest.approx(3.8038, abs=1e-4)
    assert peak == pytest.approx(np.sqrt(3.0), abs=1e-12)
    assert leakage_peak(5.0, 0.0)[1] == 0.0


def test_leakage_peak_matches_grid_search():
    # dense-grid maximization oracle
    g = np.random.default_rng(6)
    for _ in range(3):
        T = float(g.uniform(0.5, 12.0))
        dv = float(g.uniform(-3.0, 3.0))
        if abs(dv) < 0.1:
            dv = 0.5
        sp = solve_damping_spline(T, dv)
        tau = np.linspace(0.0, T, 10 ** 6)
        vals = np.abs(sp.value(tau))
        k = int(np.argmax(vals))
        tau_star, peak = leakage_peak(T, dv)
        assert vals[k] == pytest.approx(peak, abs=1e-5)
        assert tau[k] == pytest.approx(tau_star, abs=1e-4 * T)


def test_cumulative_leakage_bound_value():
    assert cumulative_leakage_bound(4.0, 0.5) == pytest.approx(0.7698003589195, abs=1e-10)
    assert cumulative_leakage_bound(7.0, 0.0) == 0.0


def test_damped_chain_respects_cumulative_bound():
    # iterate the hand-off through 50 segments
    T, dv0 = 6.0, 1.3
    bound = cumulative_leakage_bound(T, dv0)
    dv = dv0
    peaks = []
    sup = 0.0
    tau = np.linspace(0.0, T, 2000)
    for _ in range(50):
        sp = solve_damping_spline(T, dv)
        sup = max(sup, float(np.max(np.abs(sp.value(tau)))))
        peaks.append(leakage_peak(T, dv)[1])
        dv = DAMPING_FACTOR * dv
    assert sup <= bound + 1e-12
    assert sum(peaks) == pytest.approx(2.0 * peaks[0], abs=1e-9)


def test_geometric_series_partial_sums():
    partial = np.cumsum([abs(DAMPING_FACTOR) ** k for k in range(60)])
    assert np.all(partial <= 2.0)
    # strictly increasing until the increments fall below float resolution
    assert np.all(np.diff(partial[:45]) > 0)
    assert np.all(np.diff(partial) >= 0)


# ---------------------------------------------------------------------------
# bridge statistics
# ---------------------------------------------------------------------------

def test_bridge_mean_endpoints_and_midpoint():
    ki = np.array([0.0, 0.0])
    kj = np.array([2.0, 4.0])
    assert np.array_equal(bridge_mean(0.0, 4.0, ki, kj), ki)
    assert np.array_equal(bridge_mean(4.0, 4.0, ki, kj), kj)
    assert np.array_equal(bridge_mean(2.0, 4.0, ki, kj), [1.0, 2.0])


def test_bridge_mean_of_vector_anchors_at_many_offsets():
    # one row per offset, one column per component, exact in binary
    left, right = np.array([0.0, 4.0, -8.0]), np.array([8.0, 0.0, 8.0])
    got = bridge_mean(np.array([0.0, 1.0, 2.0, 4.0]), 4.0, left, right)
    assert got.shape == (4, 3)
    assert np.array_equal(got, [[0.0, 4.0, -8.0], [2.0, 3.0, -4.0], [4.0, 2.0, 0.0],
                                [8.0, 0.0, 8.0]])


def test_bridge_mean_rejects_mismatch():
    with pytest.raises(InvalidInput):
        bridge_mean(1.0, 4.0, np.zeros(2), np.zeros(3))
    with pytest.raises(InvalidInput):
        bridge_mean(5.0, 4.0, np.zeros(2), np.zeros(2))


def test_bridge_variance_formula():
    assert bridge_variance(2.0, 4.0, 2.0) == pytest.approx(4.0, abs=1e-12)
    assert bridge_variance(0.0, 4.0, 2.0) == 0.0
    assert bridge_variance(4.0, 4.0, 2.0) == 0.0
    with pytest.raises(InvalidInput):
        bridge_variance(5.0, 4.0, 1.0)


@given(st.floats(0.1, 50.0), st.floats(0.0, 1.0), st.floats(0.01, 3.0))
@settings(max_examples=200)
def test_bridge_variance_symmetric_and_peaked(T, frac, sigma):
    tau = frac * T
    v1 = bridge_variance(tau, T, sigma)
    v2 = bridge_variance(T - tau, T, sigma)
    assert v1 == pytest.approx(v2, rel=1e-9, abs=1e-12)
    assert v1 <= bridge_variance(T / 2, T, sigma) + 1e-12
    assert bridge_variance(T / 2, T, sigma) == pytest.approx(T / 4 * sigma ** 2, rel=1e-12)


def test_bridge_monte_carlo_statistics():
    T, sigma = 4.0, 2.0
    t, paths = simulate_bridge_paths(T, sigma, n_steps=500, n_paths=4000,
                                     rng=np.random.default_rng(7))
    assert np.all(paths[:, 0] == 0.0) and np.all(np.abs(paths[:, -1]) < 1e-12)
    mid = paths[:, 250]
    assert mid.var() == pytest.approx(T / 4 * sigma ** 2, rel=0.10)


def test_bridge_monte_carlo_mean_with_anchors():
    T, sigma = 8.0, 1.0
    lo, hi = 1.0, 3.0
    t, paths = simulate_bridge_paths(T, sigma, n_steps=400, n_paths=4000,
                                     rng=np.random.default_rng(8), anchors=(lo, hi))
    quarter = paths[:, 100]  # tau = T/4
    expected = float(bridge_mean(T / 4, T, np.array([lo]), np.array([hi]))[0])
    se = quarter.std(ddof=1) / np.sqrt(len(quarter))
    assert abs(quarter.mean() - expected) < 3 * se


#: one call of each function taking an anchor interval, at interval T
_INTERVAL_CALLS = {
    "solve_damping_spline": lambda T: solve_damping_spline(T, 1.0),
    "leakage_peak": lambda T: leakage_peak(T, 1.0),
    "cumulative_leakage_bound": lambda T: cumulative_leakage_bound(T, 1.0),
    "discrete_spline_minimizer": lambda T: discrete_spline_minimizer(T, 1.0, grid_points=8),
    "bridge_mean": lambda T: bridge_mean(0.5, T, 0.0, 1.0),
    # elementwise: one bad interval among good ones
    "bridge_variance": lambda T: bridge_variance(np.array([0.5, 0.5]), np.array([4.0, T]), 1.0),
    "simulate_bridge_paths": lambda T: simulate_bridge_paths(T, 1.0, 4, 2,
                                                             rng=np.random.default_rng(0)),
}


@pytest.mark.parametrize("interval", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(_INTERVAL_CALLS))
def test_interval_must_be_finite_and_positive(name, interval):
    with pytest.raises(InvalidInput, match="interval must be positive"):
        _INTERVAL_CALLS[name](interval)


# ---------------------------------------------------------------------------
# unified bound
# ---------------------------------------------------------------------------

def test_unified_bound_direct_evaluation():
    bd = unified_bound(0.1, 4, velocity_error=0.5, interp_noise=0.2)
    assert bd.anchor_term == pytest.approx(0.1)
    assert bd.leakage_term == pytest.approx(0.76980035891950095, abs=1e-12)
    assert bd.noise_term == pytest.approx(0.2)
    assert bd.total == pytest.approx(0.1 + 0.76980035891950095 + 0.2, abs=1e-12)
    assert bd.total == bd.anchor_term + bd.leakage_term + bd.noise_term


def test_unified_bound_perfect_anchor_case():
    bd = unified_bound(0.0, 4)
    assert bd.total == 0.0


def test_unified_bound_monotone_in_each_parameter():
    base = dict(anchor_error=0.3, interval=4, velocity_error=0.5, interp_noise=0.2)
    total0 = unified_bound(**base).total
    for key, bigger in (("interval", 8), ("interp_noise", 0.4),
                        ("velocity_error", 1.0), ("anchor_error", 0.6)):
        assert unified_bound(**{**base, key: bigger}).total >= total0


def test_unified_bound_rejects_bad_arguments():
    with pytest.raises(InvalidInput, match="anchor_error"):
        unified_bound(-0.1, 8)
    with pytest.raises(InvalidInput, match="anchor_error"):
        unified_bound(np.nan, 8)
    with pytest.raises(InvalidInput, match="interp_noise"):
        unified_bound(0.0, 8, interp_noise=np.nan)
    with pytest.raises(InvalidInput, match="velocity_error"):
        unified_bound(0.0, 8, velocity_error=np.inf)
    with pytest.raises(InvalidInput, match="velocity_error"):
        unified_bound(0.0, 8, velocity_error=-1.0)
    for interval in (0, -8):
        with pytest.raises(InvalidInput, match=f"^interval must be >= 1, got {interval}$"):
            unified_bound(0.0, interval)
    for interval in (8.0, 2.5):
        with pytest.raises(InvalidInput, match=f"^interval must be an integer, got {interval}$"):
            unified_bound(0.0, interval)
    assert unified_bound(0.0, np.int64(8), interp_noise=0.2).noise_term == pytest.approx(
        0.5 * np.sqrt(8) * 0.2, abs=1e-15)
    # an anchor error norm past the float range reads inf, and so does the bound
    assert unified_bound(np.inf, 8).total == np.inf


@pytest.mark.parametrize("call, message", [
    (lambda: discrete_spline_minimizer(8.0, 1.0, grid_points=5),
     "grid_points must be >= 6, got 5"),
    (lambda: discrete_spline_minimizer(8.0, 1.0, grid_points=6.9),
     "grid_points must be an integer, got 6.9"),
    (lambda: simulate_bridge_paths(8.0, 1.0, 0, 4, np.random.default_rng(0)),
     "n_steps must be >= 1, got 0"),
    (lambda: simulate_bridge_paths(8.0, 1.0, 4, 0, np.random.default_rng(0)),
     "n_paths must be >= 1, got 0"),
], ids=["spline-grid", "spline-grid-float", "bridge-steps", "bridge-paths"])
def test_oracle_bad_input_raises_its_message(call, message):
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: unified_bound("1", 8), "anchor_error must be a real number, got '1'"),
    (lambda: unified_bound(0.1, 8, "0.2"), "velocity_error must be a real number, got '0.2'"),
    (lambda: unified_bound(0.1, 8, None), "velocity_error must be a real number, got None"),
    (lambda: unified_bound(0.1, 8, 0.0, "0"), "interp_noise must be a real number, got '0'"),
    (lambda: ar_upper_curve("1", 0.0, 5), "lipschitz must be a real number, got '1'"),
    (lambda: ar_upper_curve(1.0, None, 5), "step_error must be a real number, got None"),
    (lambda: ar_upper_curve(1.0, 0.1, 2.5), "n_frames must be an integer, got 2.5"),
    (lambda: ar_upper_curve(1.0, 0.1, -1), "n_frames must be >= 0, got -1"),
    (lambda: jump_anchor_bound(1.0, "0.1", [2, 1]), "step_error must be a real number, got '0.1'"),
    (lambda: jump_anchor_bound(None, 0.1, [2, 1]), "lipschitz must be a real number, got None"),
    (lambda: jump_anchor_bound(-1.0, 0.1, [2, 1]), "lipschitz constant must be >= 0"),
    (lambda: jump_anchor_bound(1.0, 0.1, [2, 1.0]), "each interval must be an integer, got 1.0"),
    (lambda: jump_anchor_bound(1.0, 0.1, [2, 0]), "each interval must be >= 1, got 0"),
], ids=["unified-anchor-str", "unified-velocity-str", "unified-velocity-none",
        "unified-noise-str", "ar-lipschitz-str", "ar-step-none", "ar-frames-float",
        "ar-frames-negative", "jump-step-str", "jump-lipschitz-none", "jump-lipschitz-negative",
        "jump-interval-float", "jump-interval-zero"])
def test_bound_bad_argument_raises_invalid_input_naming_it(call, message):
    # every argument is checked on entry: none fails later as a TypeError or
    # a ZeroDivisionError
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        call()
