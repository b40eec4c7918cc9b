import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rollbound.core import InvalidInput
from rollbound.errormodel import (
    DAMPING_FACTOR,
    ar_upper_curve,
    bridge_mean,
    bridge_variance,
    cumulative_leakage_bound,
    discrete_spline_minimizer,
    leakage_peak,
    simulate_bridge_paths,
    solve_damping_spline,
    unified_bound,
)


# ---------------------------------------------------------------------------
# step-by-step divergence
# ---------------------------------------------------------------------------

def _ar_upper(L, eta, n_steps, **kw):
    """The step-by-step bound after n_steps: the curve's last value."""
    return ar_upper_curve(L, eta, n_steps + 1, **kw)[0][-1]


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


def test_ar_upper_saturates_with_step():
    values, flags = ar_upper_curve(2.0, 1.0, 101, cap=1000.0)
    assert flags[-1]
    assert values[-1] == 1000.0
    # 2^j - 1 first exceeds 1000 at j = 10
    assert int(np.argmax(flags)) == 10


def test_ar_upper_curve_flags():
    vals, flags = ar_upper_curve(2.0, 1.0, 15, cap=1000.0)
    assert not flags[9] and flags[10]
    assert vals[10] == 1000.0
    assert vals[3] == 7.0


def test_ar_upper_rejects_bad_inputs():
    for L, eta in ((-1.0, 0.1), (np.nan, 0.1), (1.0, -0.1), (1.0, np.nan)):
        with pytest.raises(InvalidInput):
            ar_upper_curve(L, eta, 5)


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
    for interval in (0, -8, 8.0, 2.5):
        with pytest.raises(InvalidInput, match="interval must be an integer >= 1"):
            unified_bound(0.0, interval)
    assert unified_bound(0.0, np.int64(8), interp_noise=0.2).noise_term == pytest.approx(
        0.5 * np.sqrt(8) * 0.2, abs=1e-15)
    # an anchor error norm past the float range reads inf, and so does the bound
    assert unified_bound(np.inf, 8).total == np.inf
