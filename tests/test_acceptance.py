"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -s` to see them) and holding
its stated runtime budget."""

import time

import numpy as np

from rollbound.cli import main as cli_main
from rollbound.core import Trajectory, rotation_about_z
from rollbound.core import RolloutPlan, quat_to_matrix, validate_plan
from rollbound.errormodel import (
    bridge_mean,
    discrete_spline_minimizer,
    leakage_peak,
    simulate_bridge_paths,
    solve_damping_spline,
)
from rollbound.metrics import align_similarity, are, psnr, slerp, ssim
from rollbound.schedule import build_plan, select_keyframes
from rollbound.worldsim import (
    WorldConfig,
    bias_from_norm,
    compare_pipelines,
    generate_keyframes,
    rollout_anchored,
    rollout_pure_ar,
)


class _Budget:
    def __init__(self, num: int, desc: str, limit_s: float):
        self.num, self.desc, self.limit = num, desc, limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def finish(self, ok: bool, detail: str = ""):
        elapsed = time.perf_counter() - self.t0
        in_budget = elapsed < self.limit
        status = "PASS" if (ok and in_budget) else "FAIL"
        extra = f" ({detail})" if detail else ""
        print(f"[criterion {self.num:02d}] {status} — {self.desc}{extra} "
              f"[{elapsed:.2f}s / {self.limit:.0f}s]")
        assert ok, f"criterion {self.num}: {self.desc}{extra}"
        assert in_budget, f"criterion {self.num} exceeded {self.limit}s ({elapsed:.2f}s)"

    def __exit__(self, *exc):
        return False


def test_c01_damping_constant():
    with _Budget(1, "hand-off velocity is -dv/2 for 1000 random (T, dv)", 1.0) as b:
        g = np.random.default_rng(101)
        worst = 0.0
        for _ in range(1000):
            T = float(g.uniform(0.1, 100.0))
            dv = float(g.uniform(-10.0, 10.0))
            worst = max(worst, abs(solve_damping_spline(T, dv).slope(T) - (-dv / 2.0)))
        b.finish(worst < 1e-9, f"max deviation {worst:.2e}")


def test_c02_spline_oracle_equivalence():
    with _Budget(2, "closed-form cubic matches 1000-point constrained minimizer "
                    "(50 instances, max-abs < 1e-3)", 10.0) as b:
        g = np.random.default_rng(102)
        worst = 0.0
        for _ in range(50):
            T = float(g.uniform(0.1, 100.0))
            dv = float(g.uniform(-10.0, 10.0))
            grid, vals = discrete_spline_minimizer(T, dv, grid_points=1000)
            worst = max(worst, float(np.max(np.abs(
                vals - solve_damping_spline(T, dv).value(grid)))))
        b.finish(worst < 1e-3, f"max abs difference {worst:.2e}")


def test_c03_peak_leakage():
    with _Budget(3, "grid-maximized excursion matches (sqrt(3)/9)*T*|dv| at "
                    "tau* = T(1 - sqrt(3)/3)", 5.0) as b:
        g = np.random.default_rng(103)
        ok = True
        worst_peak, worst_loc = 0.0, 0.0
        for _ in range(20):
            T = float(g.uniform(0.5, 10.0))
            dv = float(g.uniform(0.1, 3.0)) * (1 if g.uniform() < 0.5 else -1)
            sp = solve_damping_spline(T, dv)
            tau = np.linspace(0.0, T, 10 ** 6)
            vals = np.abs(sp.value(tau))
            k = int(np.argmax(vals))
            tau_star, peak = leakage_peak(T, dv)
            worst_peak = max(worst_peak, abs(float(vals[k]) - peak))
            worst_loc = max(worst_loc, abs(float(tau[k]) - tau_star) / T)
            ok = ok and abs(vals[k] - peak) < 1e-5 and abs(tau[k] - tau_star) < 1e-4 * T
        b.finish(ok, f"peak err {worst_peak:.2e}, location err {worst_loc:.2e}*T")


def test_c04_bridge_statistics():
    with _Budget(4, "pinned-walk Monte Carlo matches bridge variance (5%) and "
                    "mean (3 SE)", 30.0) as b:
        T, sigma = 4.0, 0.7
        lo, hi = 1.0, 3.0
        t, paths = simulate_bridge_paths(T, sigma, n_steps=1000, n_paths=10 ** 4,
                                         rng=np.random.default_rng(104),
                                         anchors=(lo, hi))
        mid = paths[:, 500]
        target_var = T / 4.0 * sigma ** 2
        var_ok = abs(mid.var(ddof=1) - target_var) < 0.05 * target_var
        quarter = paths[:, 250]
        expected = float(bridge_mean(T / 4.0, T, np.array([lo]), np.array([hi]))[0])
        se = quarter.std(ddof=1) / np.sqrt(len(quarter))
        mean_ok = abs(quarter.mean() - expected) < 3.0 * se
        b.finish(var_ok and mean_ok,
                 f"var {mid.var(ddof=1):.4f} vs {target_var:.4f}, "
                 f"mean off by {abs(quarter.mean() - expected) / se:.2f} SE")


def test_c05_ar_divergence():
    with _Budget(5, "bias-only rollout hits N*mu exactly; noise-only variance "
                    "matches N*sigma^2 within 5%", 60.0) as b:
        cfg = WorldConfig(dim=2, lipschitz=1.0, bias=bias_from_norm(2, 0.01), seed=105)
        trace = rollout_pure_ar(cfg, 321)  # 320 generation steps
        bias_ok = abs(trace.error_norms[-1] - 3.2) < 1e-9
        noise_cfg = WorldConfig(dim=1, lipschitz=1.0, noise_std=1.0, seed=105)
        finals = np.empty(10 ** 4)
        for i in range(10 ** 4):
            tr = rollout_pure_ar(noise_cfg, 101, rng=np.random.default_rng(200000 + i))
            finals[i] = tr.generated[-1, 0] - tr.ground_truth[-1, 0]
        var = finals.var(ddof=1)
        var_ok = abs(var - 100.0) < 5.0
        b.finish(bias_ok and var_ok,
                 f"final bias error {trace.error_norms[-1]!r}, variance {var:.2f}")


def test_c06_bound_dominance():
    with _Budget(6, "deterministic anchored rollouts never exceed the unified "
                    "bound (100 random configs)", 60.0) as b:
        g = np.random.default_rng(106)
        violations = 0
        worst_margin = -np.inf
        for trial in range(100):
            dim = int(g.integers(1, 5))
            stride = int(g.choice([2, 4, 8, 16]))
            n = int(g.integers(3 * stride, 30 * stride))
            seg_len = int(g.integers(2, 3 * stride))
            overlap = int(g.integers(0, min(2, seg_len - 1) + 1))
            cfg = WorldConfig(dim=dim, lipschitz=1.0,
                              bias=bias_from_norm(dim, float(g.uniform(0, 0.05))),
                              control=g.normal(0, 0.3, size=dim), seed=int(g.integers(1 << 30)))
            plan = build_plan(n, stride, seg_len, overlap)
            scenario = "global" if g.uniform() < 0.5 else "downsampled_ar"
            kf = generate_keyframes(cfg, plan, scenario,
                                    error_cap=float(g.uniform(0.0, 0.5)),
                                    rng=np.random.default_rng(3000 + trial))
            dv0 = g.normal(0, 0.7, size=dim)
            trace = rollout_anchored(cfg, plan, kf, sigma_int=0.0, velocity_error=dv0,
                                 seed=4000 + trial)
            over = trace.error_norms - trace.bounds
            violations += int(np.sum(over > 1e-9))
            worst_margin = max(worst_margin, float(over.max()))
        b.finish(violations == 0,
                 f"violations {violations}, worst error-minus-bound {worst_margin:.2e}")


def test_c07_t_fold_suppression():
    with _Budget(7, "anchors at stride 8 suppress the final error 8-fold "
                    "(within 20%)", 10.0) as b:
        cfg = WorldConfig(dim=2, lipschitz=1.0, bias=bias_from_norm(2, 0.01), seed=107)
        plan = build_plan(321, 8, 9, 1)
        rep = compare_pipelines(cfg, plan, "downsampled_ar", trials=1)
        ratio = rep.ar_mean_error[-1] / rep.anchored_mean_error[-1]
        b.finish(6.4 <= ratio <= 9.6, f"final-frame error ratio {ratio:.3f}")


def _junction_roughness(trace, keyframes):
    x = trace.generated
    vals = []
    for k in keyframes[1:-1]:
        for t in (k - 1, k, k + 1):
            dd = x[t + 1] - 2.0 * x[t] + x[t - 1]
            vals.append(float(dd @ dd))
    return float(np.mean(vals))


def test_c08_boundary_consistency():
    with _Budget(8, "under substitution the windows change no frame (bit-identical "
                    "to one window); disabling it strictly roughens the junctions",
                 5.0) as b:
        cfg = WorldConfig(dim=2, lipschitz=1.0, control=np.array([0.2, -0.1]), seed=108)
        plan = build_plan(65, 8, 9, 1)
        kf = generate_keyframes(cfg, plan, "global", error_cap=0.05,
                                rng=np.random.default_rng(108))
        one_window = RolloutPlan(65, plan.keyframes, 65, 0)
        noisy = [rollout_anchored(cfg, p, kf, sigma_int=0.3, velocity_error=1.0,
                                  seed=42).generated for p in (plan, one_window)]
        identical = noisy[0].tobytes() == noisy[1].tobytes()

        perfect = generate_keyframes(cfg, plan, "global", error_cap=0.0)
        on = rollout_anchored(cfg, plan, perfect, sigma_int=0.0, velocity_error=1.0,
                          substitution=True)
        off = rollout_anchored(cfg, plan, perfect, sigma_int=0.0, velocity_error=1.0,
                           substitution=False)
        r_on = _junction_roughness(on, plan.keyframes)
        r_off = _junction_roughness(off, plan.keyframes)
        b.finish(identical and r_off > r_on,
                 f"bit-identical={identical}, junction roughness {r_off:.4f} > {r_on:.4f}")


def test_c09_metrics():
    with _Budget(9, "pose metrics: identity, similarity recovery, slerp "
                    "midpoint, SSIM, PSNR", 5.0) as b:
        g = np.random.default_rng(109)
        draws = [(g.normal(size=4), g.normal(size=3)) for _ in range(40)]
        q = np.array([q / np.linalg.norm(q) for q, _ in draws])
        t = np.array([t for _, t in draws])
        traj = Trajectory(np.arange(40), q, t)
        fit = align_similarity(traj, traj)
        ate_zero = fit.rmse
        are_zero = are(traj, traj, fit.rotation)
        R = quat_to_matrix(rotation_about_z(0.5))
        warped = Trajectory(np.arange(40), q, t @ (2.0 * R).T + np.array([1.0, 2.0, 3.0]))
        ate_sim = align_similarity(warped, traj).rmse
        mid = slerp(rotation_about_z(0.0), rotation_about_z(np.pi / 2), 0.5)
        slerp_err = float(np.max(np.abs(mid - rotation_about_z(np.pi / 4))))
        img = g.uniform(0, 255, (32, 32))
        ssim_identical = ssim(img, img)
        p_val = psnr(np.full((16, 16), 100.0), np.full((16, 16), 116.0), 255.0)
        ok = (ate_zero < 1e-12 and are_zero < 1e-9 and ate_sim < 1e-9 and
              slerp_err < 1e-9 and ssim_identical == 1.0 and
              abs(p_val - 24.05) < 0.01)
        b.finish(ok, f"ATE0={ate_zero:.1e}, ARE0={are_zero:.1e}, ATEsim={ate_sim:.1e}, "
                     f"slerp={slerp_err:.1e}, SSIM={ssim_identical}, PSNR={p_val:.4f}")


def test_c10_scheduler():
    with _Budget(10, "anchor selection matches set-builder enumeration and all "
                     "built plans validate clean (1000 cases each)", 5.0) as b:
        g = np.random.default_rng(110)
        select_ok = True
        for _ in range(1000):
            kf = sorted(set(int(v) for v in g.integers(0, 300, size=g.integers(1, 25))))
            s = int(g.integers(0, 300))
            e = s + int(g.integers(0, 80))
            got = select_keyframes(kf, s, e)
            before = [k for k in kf if k < s]
            after = [k for k in kf if k > e]
            k_pre = max(before) if before else s
            k_next = min(after) if after else e
            expect = [k for k in kf if k_pre <= k <= k_next]
            select_ok = select_ok and got == expect
        plans_ok = True
        for _ in range(1000):
            n = int(g.integers(1, 400))
            stride = int(g.integers(1, 25))
            seg_len = int(g.integers(2, 20))
            overlap = int(g.integers(0, seg_len))
            if overlap >= seg_len:
                overlap = seg_len - 1
            plan = build_plan(n, stride, seg_len, overlap)
            plans_ok = plans_ok and validate_plan(plan) == []
        b.finish(select_ok and plans_ok,
                 f"selection match={select_ok}, plans clean={plans_ok}")


def test_c11_determinism(tmp_path):
    with _Budget(11, "simulate twice with one seed: byte-identical CSV outputs", 30.0) as b:
        args = ["--seed", "7", "--set", "total_frames=81", "--set", "bias=0.01",
                "--set", "noise_std=0.05", "--set", "sigma_int=0.1",
                "--set", "kf_error_cap=0.05", "--set", "trials=3", "simulate"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        rc1 = cli_main(["--out", str(out1)] + args)
        rc2 = cli_main(["--out", str(out2)] + args)
        same = all((out1 / name).read_bytes() == (out2 / name).read_bytes()
                   for name in ("ar_trace.csv", "anchored_trace.csv", "mean_curves.csv"))
        b.finish(rc1 == 0 and rc2 == 0 and same, f"identical={same}")
