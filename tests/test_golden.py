"""Golden digests of the CLI's output files and of the simulation API at
fixed seeds.

Each case hashes the bytes of the files one command writes (or the arrays an
API call returns). A refactor must leave every digest unchanged; a change
that moves floating-point results on purpose has to report the drift and
regenerate the digests in the same change.

The cases marked kernel_free give the same bytes on every BLAS kernel: no
rounding of theirs is the kernel's choice. Their values pass through
elementwise arithmetic, ordered np.add.reduce sums and np.linalg.norm along
an axis (and scaled-identity matmuls, whose one nonzero product a row is
rounded once), through no QR, SVD, general matmul or SIMD-dispatched
transcendental. Select them with -m kernel_free and rerun them under
OPENBLAS_CORETYPE=Haswell and =Sandybridge, and with numpy's AVX-512 and
AVX2 paths off (NPY_DISABLE_CPU_FEATURES); the other cases hold only on the
kernel they were made on.
"""

import hashlib

import numpy as np
import pytest

from rollbound.cli import main
from rollbound.schedule import build_plan
from rollbound.worldsim import (
    TRIAL_BLOCK,
    WorldConfig,
    bias_from_norm,
    compare_pipelines,
    generate_keyframes,
    rollout_anchored,
    rollout_pure_ar,
)

SIM_FILES = ("ar_trace.csv", "anchored_trace.csv", "mean_curves.csv", "report.txt")

# (argv after --out, files hashed, sha256 of "name\0bytes" over the files)
CLI_CASES = {
    "plan_default": (
        ["--seed", "3", "plan"], ("plan.txt",),
        "26141ade839c973fa15c503c6db77f6007ee4a81f5f322d5d9b521a7cfa51a67"),
    "plan_single_frame": (
        ["--seed", "6", "--set", "total_frames=1", "plan"], ("plan.txt",),
        "eeba7b8f119eadf56b78cb9a3bbc6bfce428e640e70a665b19dbbed0a9fc9d14"),
    "plan_overlap3": (
        ["--seed", "8", "--set", "total_frames=150", "--set", "stride=4",
         "--set", "segment_len=12", "--set", "overlap=3", "plan"], ("plan.txt",),
        "bc551c67d8543b38b3ec0f09a71e0899bc8bc2dfb5c402cd0c904d17b1b3f197"),
    "bounds_linear": (
        ["--set", "total_frames=51", "--set", "bias=0.1", "--set", "sigma_int=0.2",
         "--set", "velocity_error=0.3", "bounds"], ("bounds.csv",),
        "1e86ae4fdb75842f0f0114809956334cab5c049b6a958dbbc47a5662f5d89367"),
    "bounds_diverging": (
        ["--set", "total_frames=400", "--set", "bias=0.1", "--set", "lipschitz=7",
         "--set", "kf_scenario=downsampled_ar", "bounds"], ("bounds.csv",),
        "9f15076a3f6ea343cf9af3a2eef9417e5517e837781e291e987406c64555cfe4"),
    # rotation dynamics at d=4, both noise sources on, 35 trials (not a
    # multiple of the trial block)
    "simulate_rotation_d4": (
        ["--seed", "11", "--set", "total_frames=97", "--set", "dim=4",
         "--set", "dynamics=rotation", "--set", "noise_std=0.05", "--set", "bias=0.01",
         "--set", "sigma_int=0.05", "--set", "velocity_error=0.2",
         "--set", "kf_error_cap=0.1", "--set", "trials=35", "simulate"], SIM_FILES,
        "830012f537d88f7dc4a6eafa2ca0adc7e7f4bfc5a857e9ad7ab0905a442fdd32"),
    # the benchmark's mc_trials op
    "simulate_mc_trials": (
        ["--seed", "1", "--set", "total_frames=321", "--set", "dim=4",
         "--set", "dynamics=rotation", "--set", "trials=32", "--set", "noise_std=0.05",
         "--set", "bias=0.01", "--set", "sigma_int=0.05", "--set", "velocity_error=0.2",
         "--set", "kf_error_cap=0.1", "simulate"], SIM_FILES,
        "1e0af4731cb57398ddfcc91caf877e25bf61000ac9c71762629e0bfc0d44d866"),
    # identity dynamics with both noise sources on, over two trial blocks
    "simulate_identity_noisy": (
        ["--seed", "12", "--set", "total_frames=200", "--set", "dim=3",
         "--set", "noise_std=0.05", "--set", "bias=0.01", "--set", "sigma_int=0.05",
         "--set", "velocity_error=0.2", "--set", "kf_error_cap=0.1", "--set", "trials=35",
         "simulate"], SIM_FILES,
        "b845ca35c85155751b284f57cc4d9ea1d710284de85827a516b508b04e1721b5"),
    "simulate_downsampled_ar": (
        ["--seed", "7", "--set", "total_frames=129", "--set", "dim=2",
         "--set", "dynamics=rotation", "--set", "lipschitz=0.98", "--set", "bias=0.02",
         "--set", "noise_std=0.03", "--set", "sigma_int=0.1", "--set", "velocity_error=0.4",
         "--set", "kf_scenario=downsampled_ar", "--set", "kf_step_error=0.015",
         "--set", "trials=5", "simulate"], SIM_FILES,
        "ac492c8d7defb7ca715c3026ead7ee3f22cb04abb80dd1a11be7c19eb5301f92"),
    "simulate_overlap_deterministic": (
        ["--seed", "2", "--set", "total_frames=150", "--set", "dim=3",
         "--set", "stride=4", "--set", "segment_len=12", "--set", "overlap=3",
         "--set", "bias=0.01", "--set", "velocity_error=0.5", "--set", "kf_error_cap=0.02",
         "simulate"], SIM_FILES,
        "ec37854f5cbe6975bc602dcba7edf472886b37696dae019c9bcf979a91a2c6b3"),
    "simulate_long_horizon": (
        ["--seed", "9", "--set", "total_frames=2000", "--set", "dim=2",
         "--set", "bias=0.01", "--set", "velocity_error=0.5", "--set", "kf_error_cap=0.1",
         "simulate"], SIM_FILES,
        "28a22ad9b6f506e5de08b801bef4982ecc1d1a11e42eae9048e557eed8c61bca"),
    "ablate_grid": (
        ["--seed", "4", "--set", "total_frames=161", "--set", "dim=2",
         "--set", "velocity_error=0.5", "--set", "sigma_int=0.1", "--set", "kf_error_cap=0.05",
         "ablate", "--grid", "4:4,8:8,4:16"], ("ablation.csv",),
        "e88d4002e5919deaf06739d86256bbc77621cd74a88397615e355125abce0574"),
    # downsampled anchors on identity dynamics: the 1,020 -> 1,032 jump
    # crosses the step loop's first block edge, and a second trial block
    # runs after the truth's pass
    "simulate_downsampled_identity": (
        ["--seed", "13", "--set", "total_frames=1300", "--set", "dim=3", "--set", "stride=12",
         "--set", "bias=0.01", "--set", "noise_std=0.02", "--set", "sigma_int=0.05",
         "--set", "velocity_error=0.3", "--set", "kf_scenario=downsampled_ar",
         "--set", "kf_step_error=0.013", "--set", "trials=33", "simulate"], SIM_FILES,
        "f6b6b22fb39077c71b49e8919d5bf06042ab6fc2ffc980d6e1cf7fa011f59e21"),
    # downsampled anchors through generate_keyframes, on a scaled identity
    "ablate_downsampled_ar": (
        ["--seed", "5", "--set", "total_frames=1100", "--set", "dim=2",
         "--set", "lipschitz=0.995", "--set", "bias=0.01", "--set", "velocity_error=0.3",
         "--set", "sigma_int=0.05", "--set", "kf_scenario=downsampled_ar",
         "ablate", "--grid", "4:4,4:12,10:20"], ("ablation.csv",),
        "c6c2aa8ee575a16e03dce941fc7a142e3de393fe9770fdb21354d0250f5a633b"),
}


#: the CLI_CASES whose bytes hold on every BLAS kernel: the plans, the
#: bounds, and simulate and ablate on identity dynamics, scaled or not
KERNEL_FREE_CASES = {"plan_default", "plan_single_frame", "plan_overlap3", "bounds_linear",
                     "bounds_diverging", "simulate_identity_noisy",
                     "simulate_overlap_deterministic", "simulate_long_horizon", "ablate_grid",
                     "simulate_downsampled_identity", "ablate_downsampled_ar"}


def _digest(parts) -> str:
    h = hashlib.sha256()
    for name, data in parts:
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.kernel_free) if case in KERNEL_FREE_CASES else case
    for case in sorted(CLI_CASES)])
def test_cli_output_digest(case, tmp_path, capsys):
    argv, files, expected = CLI_CASES[case]
    assert main(["--out", str(tmp_path)] + argv) == 0, capsys.readouterr().err
    digest = _digest((name, (tmp_path / name).read_bytes()) for name in files)
    assert digest == expected


# sha256 of `plan`'s stdout, its --out path masked, per plan case of CLI_CASES
PLAN_STDOUT = {
    "plan_default": "1e0a8fec5f7f9ce9f90b0b0c5e5f605c4c934f067383bcf19baa478de3670afb",
    "plan_overlap3": "e51534fa2c827a49041d81ef5d84bfab00651d3458a5038c9db373327f88e8d1",
    "plan_single_frame": "beef082e616e954a2f0be12ea8716c1ce37e556a083cfc98d3993d1e109c1fb0",
}


@pytest.mark.kernel_free
@pytest.mark.parametrize("case", sorted(PLAN_STDOUT))
def test_cli_plan_stdout_digest(case, tmp_path, capsys):
    assert main(["--out", str(tmp_path)] + CLI_CASES[case][0]) == 0, capsys.readouterr().err
    stdout = capsys.readouterr().out.replace(str(tmp_path), "<out>")
    assert hashlib.sha256(stdout.encode()).hexdigest() == PLAN_STDOUT[case]


# the benchmark's long_horizon op: bounds then simulate into one directory;
# its 10,000 rows span several of the CSV writer's row blocks
LONG_HORIZON_ARGV = ["--seed", "1", "--set", "total_frames=10000", "--set", "dim=2",
                     "--set", "dynamics=scaled_identity", "--set", "lipschitz=1",
                     "--set", "bias=0.01", "--set", "velocity_error=0.5",
                     "--set", "kf_error_cap=0.1", "--set", "kf_scenario=global",
                     "--set", "trials=1"]


@pytest.mark.kernel_free
def test_cli_long_horizon_op_digest(tmp_path, capsys):
    for command in ("bounds", "simulate"):
        argv = ["--out", str(tmp_path)] + LONG_HORIZON_ARGV + [command]
        assert main(argv) == 0, capsys.readouterr().err
    files = ("bounds.csv",) + SIM_FILES
    digest = _digest((name, (tmp_path / name).read_bytes()) for name in files)
    assert digest == "0af6e7c9e212cdbbd935a9ecc4c754c991bf4b75916f02452212513ba2debc8b"


def _write_pose_pair(directory, n=500, seed=17):
    """A fixed-seed est/ref pose pair: ref is a random walk, est is ref under
    an inverse similarity transform plus translation noise, with its
    orientations offset by a constant rotation, jittered and sign-flipped on
    every third row. Written with its own formatter, so the input bytes do
    not depend on rollbound's writer."""
    g = np.random.default_rng(seed)
    ref_t = np.cumsum(g.normal(0.0, 0.2, (n, 3)), axis=0)
    ref_q = np.cumsum(g.normal(0.0, 0.05, (n, 4)), axis=0) + [1.0, 0.0, 0.0, 0.0]
    ref_q /= np.linalg.norm(ref_q, axis=1, keepdims=True)
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    est_t = (ref_t - [3.0, -1.0, 2.0]) @ R / 1.7 + g.normal(0.0, 0.01, (n, 3))
    off = np.array([np.cos(0.1), 0.0, np.sin(0.1), 0.0])
    w0, x0, y0, z0 = off
    w, x, y, z = ref_q.T
    est_q = np.stack([w0 * w - x0 * x - y0 * y - z0 * z, w0 * x + x0 * w + y0 * z - z0 * y,
                      w0 * y - x0 * z + y0 * w + z0 * x, w0 * z + x0 * y - y0 * x + z0 * w],
                     axis=1)
    est_q += g.normal(0.0, 0.01, (n, 4))
    est_q[::3] *= -1.0
    paths = []
    for name, t, q in (("est.txt", est_t, est_q), ("ref.txt", ref_t, ref_q)):
        path = directory / name
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# index tx ty tz qx qy qz qw\n")
            for i, ((tx, ty, tz), (qw, qx, qy, qz)) in enumerate(zip(t.tolist(), q.tolist())):
                fh.write(f"{i} {tx!r} {ty!r} {tz!r} {qx!r} {qy!r} {qz!r} {qw!r}\n")
        paths.append(str(path))
    return paths


EVAL_CASES = {
    "sim3_umeyama": (["--align", "sim3", "--rot-align", "umeyama"],
                     "6eda7a15aed7ff6a6bd907b8d5c0173d9369edcb9f75a3c52a4e6ee3618d9394"),
    "se3_rotfit": (["--align", "se3", "--rot-align", "rotfit"],
                   "1b2ccb572a29ddd1d62f7f2a4f071ded936fd21f7593ca69ed73a078e384e2ab"),
}


@pytest.mark.parametrize("case", sorted(EVAL_CASES))
def test_cli_eval_digest(case, tmp_path, capsys):
    flags, expected = EVAL_CASES[case]
    est, ref = _write_pose_pair(tmp_path)
    out = tmp_path / "out"
    assert main(["--out", str(out), "eval", est, ref] + flags) == 0, capsys.readouterr().err
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    digest = _digest([("metrics.csv", (out / "metrics.csv").read_bytes()),
                      ("stdout", stdout.encode())])
    assert digest == expected


def _arrays_digest(arrays) -> str:
    return _digest((str(i), np.ascontiguousarray(a, dtype="<f8").tobytes())
                   for i, a in enumerate(arrays))


def test_api_anchored_without_substitution_digest():
    cfg = WorldConfig(dim=3, lipschitz=1.0, dynamics="rotation",
                      bias=bias_from_norm(3, 0.02), seed=21)
    plan = build_plan(70, 6, 10, 2)
    kf = generate_keyframes(cfg, plan, "global", error_cap=0.1,
                            rng=np.random.default_rng(21))
    arrays = []
    for momentum in (True, False):
        tr = rollout_anchored(cfg, plan, kf, sigma_int=0.3, velocity_error=[0.4, -0.2, 0.1],
                              momentum=momentum, substitution=False, seed=5)
        arrays += [tr.generated, tr.error_norms, tr.bounds, tr.segment_ids]
    assert _arrays_digest(arrays) == (
        "d942e481fa06e2b297dce426961f54d6ea352e2ebe5dc2280d15c8c1f0c40d1c")


def test_api_compare_both_scenarios_digest():
    cfg = WorldConfig(dim=2, lipschitz=1.0, dynamics="rotation",
                      bias=bias_from_norm(2, 0.01), noise_std=0.02,
                      control=np.array([0.05, -0.02]), seed=31)
    plan = build_plan(81, 8, 9, 1)
    reps = [compare_pipelines(cfg, plan, sc, trials=6, seed=8, sigma_int=0.1,
                              velocity_error=0.3, kf_error_cap=0.05)
            for sc in ("global", "downsampled_ar")]
    ar = rollout_pure_ar(cfg, 81, rng=np.random.default_rng(3))
    arrays = [reps[0].ar_mean_error, reps[0].ar_mse, ar.generated, ar.error_norms,
              ar.bounds]
    for rep in reps:
        arrays += [rep.anchored_mean_error, rep.anchored_mse]
    assert _arrays_digest(arrays) == (
        "a6ad0a8ac4e7f258a4663c24ba03d16f329887f113e5d50fdf4dd31fb5cb0d59")


def test_api_anchored_noiseless_without_substitution_digest():
    """sigma_int = 0 with substitution off: no bridge noise is drawn, and
    the frames are hashed as raw bytes, sign of zero included."""
    cfg = WorldConfig(dim=3, lipschitz=1.0, dynamics="rotation",
                      bias=bias_from_norm(3, 0.02), seed=22)
    plan = build_plan(70, 6, 10, 2)
    kf = generate_keyframes(cfg, plan, "global", error_cap=0.1,
                            rng=np.random.default_rng(22))
    parts = []
    for momentum in (True, False):
        tr = rollout_anchored(cfg, plan, kf, sigma_int=0.0, velocity_error=[0.4, -0.2, 0.1],
                              momentum=momentum, substitution=False, seed=6)
        parts.append((f"frames-{momentum}", tr.generated.tobytes()))
    assert _digest(parts) == (
        "03637c0cff98f111fe59b46806b39525294afbcf1544a0b7f90cbfc80ca57c54")


def test_api_compare_noiseless_interpolation_digest():
    """sigma_int = 0 over more trials than one block, both scenarios."""
    cfg = WorldConfig(dim=2, lipschitz=1.0, dynamics="rotation",
                      bias=bias_from_norm(2, 0.01), noise_std=0.02, seed=33)
    plan = build_plan(81, 8, 9, 1)
    reps = [compare_pipelines(cfg, plan, sc, trials=TRIAL_BLOCK + 3, seed=9, sigma_int=0.0,
                              velocity_error=0.3, kf_error_cap=0.05)
            for sc in ("global", "downsampled_ar")]
    arrays = [reps[0].ar_mean_error, reps[0].ar_mse, reps[0].trial0_ar.generated,
              reps[0].trial0_ar.error_norms]
    for rep in reps:
        tr = rep.trial0_anchored
        arrays += [rep.anchored_mean_error, rep.anchored_mse, tr.generated,
                   tr.error_norms, tr.bounds]
    assert _arrays_digest(arrays) == (
        "88276d529aab503d8257d7ac96aa096f4d7461dbbffe3a8d1a605429f45d16d1")
