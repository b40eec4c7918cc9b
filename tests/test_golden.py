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
        "496d9cee9a1ae73dae0c9f66a9438e5246f75f1ed742a3fba35011cbf7a2022e"),
    "plan_train_strides": (
        ["--seed", "5", "--set", "total_frames=203", "--set", "strides=4,8,16",
         "--set", "stride_mode=train", "--set", "segment_len=12", "--set", "overlap=2",
         "plan"], ("plan.txt",),
        "c68cbb9019c4bd38f9dbe6e75bb0b353c27b6bdda801db98b8e0cc48065d8445"),
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
    rep = compare_pipelines(cfg, plan, trials=6, seed=8, sigma_int=0.1, velocity_error=0.3,
                            kf_error_cap=0.05)
    ar = rollout_pure_ar(cfg, 81, rng=np.random.default_rng(3))
    arrays = [rep.ar_mean_error, rep.ar_mse, ar.generated.frames, ar.error_norms, ar.bounds]
    for sc in ("global", "downsampled_ar"):
        arrays += [rep.anchored_mean_error[sc], rep.anchored_mse[sc]]
    assert _arrays_digest(arrays) == (
        "0cff366a5fc9d8b8ad3ec0a7e40b53daf70afa4fb6da88c6e8904ab6a6ce59a4")
