"""Golden digests of the CLI's output files and of the simulation API at
fixed seeds.

Each case hashes the bytes of the files one command writes (or the arrays an
API call returns). A refactor must leave every digest unchanged; a change
that moves floating-point results on purpose has to report the drift and
regenerate the digests in the same change.
"""

import hashlib

import numpy as np
import pytest

from rollbound.cli import main
from rollbound.schedule import StridePolicy, build_plan
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
    "plan_train_strides": (
        ["--seed", "5", "--set", "total_frames=203", "--set", "strides=4,8,16",
         "--set", "stride_mode=train", "--set", "segment_len=12", "--set", "overlap=2",
         "plan"], ("plan.txt",),
        "eeabd851c379bcb5e4be6bb9b6753b066516ff86a698a15010f3d0cee5980626"),
    "plan_single_frame": (
        ["--seed", "6", "--set", "total_frames=1", "plan"], ("plan.txt",),
        "eeba7b8f119eadf56b78cb9a3bbc6bfce428e640e70a665b19dbbed0a9fc9d14"),
    "plan_overlap3": (
        ["--seed", "8", "--set", "total_frames=150", "--set", "strides=4",
         "--set", "segment_len=12", "--set", "overlap=3", "plan"], ("plan.txt",),
        "bc551c67d8543b38b3ec0f09a71e0899bc8bc2dfb5c402cd0c904d17b1b3f197"),
    "bounds_linear": (
        ["--set", "total_frames=51", "--set", "bias=0.1", "--set", "sigma_int=0.2",
         "--set", "velocity_error=0.3", "bounds"], ("bounds.csv",),
        "1e86ae4fdb75842f0f0114809956334cab5c049b6a958dbbc47a5662f5d89367"),
    "bounds_diverging": (
        ["--set", "total_frames=400", "--set", "bias=0.1", "--set", "lipschitz=7",
         "--set", "kf_scenario=downsampled_ar", "bounds"], ("bounds.csv",),
        "dfcb5cfc719e1e7cc1d5e9e7866fe92f42971fe5a2fe0e63bcba05c77bfd455b"),
    # rotation dynamics at d=4, both noise sources on, 35 trials (not a
    # multiple of the trial block)
    "simulate_rotation_d4": (
        ["--seed", "11", "--set", "total_frames=97", "--set", "dim=4",
         "--set", "dynamics=rotation", "--set", "noise_std=0.05", "--set", "bias=0.01",
         "--set", "sigma_int=0.05", "--set", "velocity_error=0.2",
         "--set", "kf_error_cap=0.1", "--set", "trials=35", "simulate"], SIM_FILES,
        "eec8bd136897b8bbe08ad0d01d0348a0d60141f0fb515b37f90c6659c3d74c3f"),
    # the benchmark's mc_trials op
    "simulate_mc_trials": (
        ["--seed", "1", "--set", "total_frames=321", "--set", "dim=4",
         "--set", "dynamics=rotation", "--set", "trials=32", "--set", "noise_std=0.05",
         "--set", "bias=0.01", "--set", "sigma_int=0.05", "--set", "velocity_error=0.2",
         "--set", "kf_error_cap=0.1", "simulate"], SIM_FILES,
        "b59d9a26ea18f9c73081d456369bc0d6589644bdcdc74e0e22cb3f5e98b23771"),
    "simulate_downsampled_ar": (
        ["--seed", "7", "--set", "total_frames=129", "--set", "dim=2",
         "--set", "dynamics=rotation", "--set", "lipschitz=0.98", "--set", "bias=0.02",
         "--set", "noise_std=0.03", "--set", "sigma_int=0.1", "--set", "velocity_error=0.4",
         "--set", "kf_scenario=downsampled_ar", "--set", "kf_step_error=0.015",
         "--set", "trials=5", "simulate"], SIM_FILES,
        "d8078a52430a77854cbbc1884242b925b159f375b76ca35d768fd4c138a77167"),
    "simulate_overlap_deterministic": (
        ["--seed", "2", "--set", "total_frames=150", "--set", "dim=3",
         "--set", "strides=4", "--set", "segment_len=12", "--set", "overlap=3",
         "--set", "bias=0.01", "--set", "velocity_error=0.5", "--set", "kf_error_cap=0.02",
         "simulate"], SIM_FILES,
        "1c92eaae6fc000249f493a879faa3c7640e629de4ab0c961b6bbb9ac153764e2"),
    "simulate_long_horizon": (
        ["--seed", "9", "--set", "total_frames=2000", "--set", "dim=2",
         "--set", "bias=0.01", "--set", "velocity_error=0.5", "--set", "kf_error_cap=0.1",
         "simulate"], SIM_FILES,
        "f9184da683d05cb28f1470df74d6218235b480456a980d52b63dc1717449e3d7"),
    "ablate_grid": (
        ["--seed", "4", "--set", "total_frames=161", "--set", "dim=2",
         "--set", "velocity_error=0.5", "--set", "sigma_int=0.1", "--set", "kf_error_cap=0.05",
         "ablate", "--grid", "4:4,8:8,4:16"], ("ablation.csv",),
        "06f5e69b6c6725128c4b6c21fbb9945047cbb42b1783f79d65c8b29be9048e19"),
}


def _digest(parts) -> str:
    h = hashlib.sha256()
    for name, data in parts:
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CLI_CASES))
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
    "plan_train_strides": "e098f18edd47e92d4e83c14061ca3829cead9e9bcb38e8d74008ecaa07646290",
}


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


def test_cli_long_horizon_op_digest(tmp_path, capsys):
    for command in ("bounds", "simulate"):
        argv = ["--out", str(tmp_path)] + LONG_HORIZON_ARGV + [command]
        assert main(argv) == 0, capsys.readouterr().err
    files = ("bounds.csv",) + SIM_FILES
    digest = _digest((name, (tmp_path / name).read_bytes()) for name in files)
    assert digest == "95dcb5d02436ff2799408aca25711d472ae9aed0bdc5029d4ca6a8c036aec7bf"


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
                   "694238189ff1ff90a9a673f58ea6d18a50fef120570677cc51e045202a63bc76"),
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
    plan = build_plan(70, StridePolicy.test(6), 10, 2)
    kf = generate_keyframes(cfg, plan.keyframes, "global", error_cap=0.1,
                            rng=np.random.default_rng(21))
    arrays = []
    for momentum in (True, False):
        tr = rollout_anchored(cfg, plan, kf, sigma_int=0.3, velocity_error=[0.4, -0.2, 0.1],
                              momentum=momentum, substitution=False, seed=5,
                              collect_segments=True)
        arrays += [tr.generated.frames, tr.error_norms, tr.bounds, tr.segment_ids]
        arrays += [chunk for _, chunk in tr.segment_chunks]
    assert _arrays_digest(arrays) == (
        "6ec642d9db059da0e3436e3c4d6503e49005a31faa319a1fd3a8e9eed6fd109c")


def test_api_compare_both_scenarios_digest():
    cfg = WorldConfig(dim=2, lipschitz=1.0, dynamics="rotation",
                      bias=bias_from_norm(2, 0.01), noise_std=0.02,
                      control=np.array([0.05, -0.02]), seed=31)
    plan = build_plan(81, StridePolicy.test(8), 9, 1)
    reps = [compare_pipelines(cfg, plan, sc, trials=6, seed=8, sigma_int=0.1,
                              velocity_error=0.3, kf_error_cap=0.05)
            for sc in ("global", "downsampled_ar")]
    ar = rollout_pure_ar(cfg, 81, rng=np.random.default_rng(3))
    arrays = [reps[0].ar_mean_error, reps[0].ar_mse, ar.generated.frames, ar.error_norms,
              ar.bounds]
    for rep in reps:
        arrays += [rep.anchored_mean_error, rep.anchored_mse]
    assert _arrays_digest(arrays) == (
        "0cff366a5fc9d8b8ad3ec0a7e40b53daf70afa4fb6da88c6e8904ab6a6ce59a4")


def test_api_anchored_noiseless_without_substitution_digest():
    """sigma_int = 0 with substitution off: the marginal redraw rows hold
    0 * eps, so the frames are hashed as raw bytes, sign of zero included."""
    cfg = WorldConfig(dim=3, lipschitz=1.0, dynamics="rotation",
                      bias=bias_from_norm(3, 0.02), seed=22)
    plan = build_plan(70, StridePolicy.test(6), 10, 2)
    kf = generate_keyframes(cfg, plan.keyframes, "global", error_cap=0.1,
                            rng=np.random.default_rng(22))
    parts = []
    for momentum in (True, False):
        tr = rollout_anchored(cfg, plan, kf, sigma_int=0.0, velocity_error=[0.4, -0.2, 0.1],
                              momentum=momentum, substitution=False, seed=6,
                              collect_segments=True)
        parts.append((f"frames-{momentum}", tr.generated.frames.tobytes()))
        parts += [(f"chunk-{momentum}-{start}", chunk.tobytes())
                  for start, chunk in tr.segment_chunks]
    assert _digest(parts) == (
        "c0e162e750829d178009a88c07e79b50e61f0eb7026043ce1dd7cfc6cbc64d4e")


def test_api_compare_noiseless_interpolation_digest():
    """sigma_int = 0 over more trials than one block, both scenarios."""
    cfg = WorldConfig(dim=2, lipschitz=1.0, dynamics="rotation",
                      bias=bias_from_norm(2, 0.01), noise_std=0.02, seed=33)
    plan = build_plan(81, StridePolicy.test(8), 9, 1)
    reps = [compare_pipelines(cfg, plan, sc, trials=TRIAL_BLOCK + 3, seed=9, sigma_int=0.0,
                              velocity_error=0.3, kf_error_cap=0.05)
            for sc in ("global", "downsampled_ar")]
    arrays = [reps[0].ar_mean_error, reps[0].ar_mse, reps[0].trial0_ar.generated.frames,
              reps[0].trial0_ar.error_norms]
    for rep in reps:
        tr = rep.trial0_anchored
        arrays += [rep.anchored_mean_error, rep.anchored_mse, tr.generated.frames,
                   tr.error_norms, tr.bounds]
    assert _arrays_digest(arrays) == (
        "5bcfe9bacc81f3733808a7ed9f77339f713cb5426d8ddc1d644a6622be27fc94")
