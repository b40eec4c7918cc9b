import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rollbound import expconfig
from rollbound.cli import build_parser, main
from rollbound.core import Trajectory, rotation_about_z, save_trajectory
from rollbound.core import quat_to_matrix
from rollbound.errormodel import cumulative_leakage_bound, unified_bound
from rollbound.expconfig import ExperimentConfig, load_config, parse_config, save_config
from rollbound.schedule import build_plan
from rollbound.seeding import derive_rng


def run(*argv):
    return main(list(argv))


def _read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = [h.strip() for h in lines[0].split(",")]
    rows = [[c.strip() for c in line.split(",")] for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(total_frames=77, strides=(4, 8), bias=0.0125, sigma_int=0.3,
                           kf_scenario="downsampled_ar", kf_step_error=0.02, trials=3, seed=99,
                           out_dir="artifacts")
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_docstring_lists_every_key_in_order():
    # the README sends readers to this list for every key
    doc = expconfig.__doc__.split("Keys (defaults in parentheses):\n", 1)[1]
    keys = [m.group(1) for m in re.finditer(r"^  (\w+) \(", doc, re.MULTILINE)]
    assert keys == [f.name for f in fields(ExperimentConfig)]


def test_readme_lists_every_global_flag_in_order():
    # the README's "Global flags:" sentence names the parser's global options
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("Global flags:", 1)[1].split(". ", 1)[0]
    documented = re.findall(r"`(--[\w-]+)", sentence)
    options = [max(action.option_strings, key=len) for action in build_parser()._actions
               if action.option_strings and action.dest != "help"]
    assert documented == options


def test_removed_svg_flag_is_unknown(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--svg", "bounds"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --svg" in capsys.readouterr().err


def test_config_rejects_unknown_key():
    with pytest.raises(Exception, match="line 2"):
        parse_config("seed = 1\nbogus = 2\n")


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def test_cmd_plan_inference_defaults(tmp_path, capsys):
    out = tmp_path / "o"
    rc = run("--out", str(out), "plan")
    assert rc == 0
    text = capsys.readouterr().out
    assert "41 keyframes" in text
    assert (out / "plan.txt").exists()
    plan_text = (out / "plan.txt").read_text()
    assert "total_frames = 321" in plan_text
    assert "320" in plan_text


def test_cmd_plan_single_frame(tmp_path, capsys):
    rc = run("--out", str(tmp_path / "o"), "--set", "total_frames=1", "plan")
    assert rc == 0
    assert "1 keyframes, 1 segments" in capsys.readouterr().out


def test_cmd_plan_rejects_overlap_geq_segment(tmp_path, capsys):
    rc = run("--out", str(tmp_path / "o"), "--set", "segment_len=2",
             "--set", "overlap=2", "plan")
    assert rc == 2
    assert "segment length must exceed overlap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_cmd_bounds_linear_and_anchored(tmp_path):
    out = tmp_path / "o"
    rc = run("--out", str(out), "--set", "total_frames=51", "--set", "bias=0.1",
             "--set", "strides=4", "--set", "velocity_error=0.5",
             "--set", "sigma_int=0.2", "--set", "kf_error_cap=0.1",
             "--set", "noise_std=0.5", "bounds")
    assert rc == 0
    header, rows = _read_rows(out / "bounds.csv")
    assert header == ["frame", "ar_upper", "ar_lower", "ar_variance", "dcar_bound",
                      "anchor", "leakage", "noise", "diverged"]
    assert len(rows) == 51
    assert all(len(r) == 9 for r in rows)
    last = rows[-1]
    assert last[0] == "50"
    assert float(last[1]) == pytest.approx(5.0, abs=1e-12)
    # bias floor N*mu and variance N*sigma^2 after N = 50 steps
    assert float(last[2]) == pytest.approx(5.0, abs=1e-12)
    assert float(last[3]) == pytest.approx(12.5, abs=1e-12)
    expected = 0.1 + 2 * np.sqrt(3) / 9 * 4 * 0.5 + 0.2
    bounds = {float(r[4]) for r in rows}
    assert len(bounds) == 1  # constant across frames
    assert bounds.pop() == pytest.approx(expected, abs=1e-12)


def test_cmd_bounds_downsampled_anchor_term(tmp_path):
    # anchors generated step by step at stride 8 err by one bias per jump: the
    # a-priori anchor term is (n - 1) / 8 * bias, an 8-fold cut of the
    # step-by-step bound at the final frame
    out = tmp_path / "o"
    assert run("--out", str(out), "--set", "total_frames=321", "--set", "bias=0.01",
               "--set", "strides=8", "--set", "kf_scenario=downsampled_ar", "bounds") == 0
    header, rows = _read_rows(out / "bounds.csv")
    anchor = {float(r[header.index("anchor")]) for r in rows}
    assert len(anchor) == 1
    anchor = anchor.pop()
    assert anchor == pytest.approx(0.4)
    pure = float(rows[-1][header.index("ar_upper")])
    assert pure == pytest.approx(3.2)
    assert pure / anchor == pytest.approx(8.0)


def test_cmd_bounds_overflowing_noise_variance(tmp_path, capsys):
    # a step variance noise_std**2 beyond the float range makes the variance
    # column inf after frame 0; the run neither crashes nor warns, and no
    # other column moves
    columns = {}
    for std in ("1e200", "0.5"):
        out = tmp_path / std
        rc = run("--out", str(out), "--set", "total_frames=33", "--set", "bias=0.1",
                 "--set", f"noise_std={std}", "bounds")
        assert rc == 0
        assert capsys.readouterr().err == ""
        header, rows = _read_rows(out / "bounds.csv")
        columns[std] = dict(zip(header, zip(*rows)))
    huge, plain = columns["1e200"], columns["0.5"]
    assert huge.pop("ar_variance") == ("0.0",) + ("inf",) * 32
    plain.pop("ar_variance")
    assert huge == plain


@pytest.mark.parametrize("key, trace", [("noise_std", "ar_trace.csv"),
                                        ("sigma_int", "anchored_trace.csv")])
def test_cmd_simulate_overflowing_error_norm(tmp_path, capsys, key, trace):
    # errors near 1e201 are finite, only their squares overflow: the error
    # norm reads its finite value, the mean squared error reads inf, and the
    # run exits 0 without a warning
    out = tmp_path / "o"
    rc = run("--out", str(out), "--set", "total_frames=33", "--set", f"{key}=1e200",
             "simulate")
    assert rc == 0
    assert capsys.readouterr().err == ""
    header, rows = _read_rows(out / trace)
    norms = np.array([float(row[header.index("err_norm")]) for row in rows])
    assert np.all(np.isfinite(norms)) and norms.max() > 1e154
    header, rows = _read_rows(out / "mean_curves.csv")
    mse = "ar_mse" if trace == "ar_trace.csv" else "anchored_mse"
    assert "inf" in [row[header.index(mse)] for row in rows]


def test_cmd_simulate_huge_velocity_error(tmp_path, capsys):
    # 1e300 is a valid velocity error: its norm no longer overflows, so
    # simulate runs without a warning and its leakage term is the one
    # bounds prints
    leakage = {}
    for command, csv in (("bounds", "bounds.csv"), ("simulate", "anchored_trace.csv")):
        rc = run("--out", str(tmp_path), "--set", "velocity_error=1e300",
                 "--set", "total_frames=33", command)
        assert rc == 0
        assert capsys.readouterr().err == ""
        header, rows = _read_rows(tmp_path / csv)
        leakage[command] = {row[header.index("leakage")] for row in rows}
    assert leakage["simulate"] == leakage["bounds"] == {repr(cumulative_leakage_bound(8, 1e300))}
    assert float(leakage["bounds"].pop()) == pytest.approx(3.0792e300, rel=1e-4)


def test_cmd_simulate_diverging_anchors_without_warning(tmp_path, capsys):
    # the downsampled-AR anchor errors reach about 1e227: their norms would
    # square past the float range, but they are read without a warning
    rc = run("--out", str(tmp_path), "--set", "lipschitz=1.5", "--set", "bias=0.01",
             "--set", "kf_scenario=downsampled_ar", "--set", "total_frames=1300", "simulate")
    assert rc == 0
    assert capsys.readouterr().err == ""
    header, rows = _read_rows(tmp_path / "anchored_trace.csv")
    anchor = float(rows[0][header.index("anchor")])
    assert 1e154 < anchor < np.inf


@pytest.mark.parametrize("world", [
    ("bias=1e306", "total_frames=200"),  # identity dynamics: running sums
    ("lipschitz=3", "bias=0.01", "total_frames=2000", "dim=3", "dynamics=rotation"),
])
def test_cmd_simulate_overflowing_rollout(world, tmp_path, capsys):
    # the step-by-step frames pass the float range: the run is rejected by
    # the finite check alone, and numpy's overflow and invalid-value
    # warnings stay inside
    argv = ["--out", str(tmp_path)]
    for setting in world:
        argv += ["--set", setting]
    rc = run(*argv, "simulate")
    assert rc == 2
    assert capsys.readouterr().err == "error: latent frames must be finite\n"


def test_cmd_bounds_overflowing_lower_curve(tmp_path, capsys):
    # t * bias passes the float range: the lower curve reads inf, like the
    # diverged upper curve, without a warning
    rc = run("--out", str(tmp_path), "--set", "bias=1e308", "bounds")
    assert rc == 0
    assert capsys.readouterr().err == ""
    header, rows = _read_rows(tmp_path / "bounds.csv")
    lower = [row[header.index("ar_lower")] for row in rows]
    assert lower[:2] == ["0.0", "1e+308"] and lower[-1] == "inf"
    assert rows[-1][header.index("diverged")] == "1"


def test_cmd_bounds_divergence_flag(tmp_path):
    out = tmp_path / "o"
    rc = run("--out", str(out), "--set", "total_frames=20000",
             "--set", "lipschitz=1.05", "--set", "bias=1.0", "bounds")
    assert rc == 0
    header, rows = _read_rows(out / "bounds.csv")
    flags = [int(r[8]) for r in rows]
    assert flags[0] == 0 and flags[-1] == 1


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _sim_args(out, extra=()):
    base = ["--out", str(out), "--set", "total_frames=321", "--set", "bias=0.01",
            "--set", "kf_scenario=downsampled_ar"]
    return base + list(extra) + ["simulate"]


def test_cmd_simulate_deterministic_no_violations(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(_sim_args(out))
    assert rc == 0
    text = capsys.readouterr().out
    assert "bound violations (step-by-step): 0" in text
    assert "bound violations (anchored): 0" in text
    header, rows = _read_rows(out / "anchored_trace.csv")
    assert header[0] == "frame" and len(rows) == 321
    assert all(len(r) == 8 for r in rows)


def test_cmd_simulate_zero_defect(tmp_path):
    out = tmp_path / "o"
    rc = run("--out", str(out), "--set", "total_frames=33", "simulate")
    assert rc == 0
    _, rows = _read_rows(out / "mean_curves.csv")
    assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)


def test_cmd_simulate_t_fold_ratio(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(_sim_args(out))
    assert rc == 0
    _, rows = _read_rows(out / "mean_curves.csv")
    ratio = float(rows[-1][5])
    assert 6.4 <= ratio <= 9.6


def test_cmd_simulate_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    extra = ["--seed", "424242", "--set", "noise_std=0.05", "--set", "sigma_int=0.1",
             "--set", "trials=3", "--set", "kf_error_cap=0.05"]
    assert main(_sim_args(out1, extra)) == 0
    assert main(_sim_args(out2, extra)) == 0
    for name in ("ar_trace.csv", "anchored_trace.csv", "mean_curves.csv", "report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("frames, bound_share", [
    (100_000, 1e-2), pytest.param(1_000_000, 1e-3, marks=pytest.mark.slow)])
def test_cmd_simulate_long_horizon_claim(frames, bound_share, tmp_path):
    # the paper's claim at a long horizon, on a deterministic run: the
    # step-by-step error grows as t * bias, the anchored error stays under a
    # constant bound that does not grow with the horizon. The bound (1.64) is
    # 1.6e-3 of the final step-by-step error at 10^5 frames, 1.6e-4 at 10^6.
    bias = 0.01
    assert run("--out", str(tmp_path), "--set", f"total_frames={frames}", "--set", "dim=2",
               "--set", "lipschitz=1", "--set", f"bias={bias}", "--set", "velocity_error=0.5",
               "--set", "kf_error_cap=0.1", "simulate") == 0
    report = (tmp_path / "report.txt").read_text()
    assert "bound violations (step-by-step): 0\n" in report
    assert "bound violations (anchored): 0\n" in report
    ar = np.loadtxt(tmp_path / "ar_trace.csv", delimiter=",", skiprows=1, usecols=1)
    np.testing.assert_allclose(ar, np.arange(frames) * bias, rtol=1e-9, atol=0.0)
    anchored = np.loadtxt(tmp_path / "anchored_trace.csv", delimiter=",", skiprows=1,
                          usecols=(1, 2))
    err, bound = anchored[:, 0], anchored[0, 1]
    assert np.all(anchored[:, 1] == bound)
    assert np.all(err <= bound)
    assert bound <= 0.1 + cumulative_leakage_bound(8, 0.5)
    assert bound < bound_share * ar[-1]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _write_traj(path, n=40, seed=0, transform=None):
    g = np.random.default_rng(seed)
    positions = g.normal(size=(n, 3))
    quaternions = []
    for i in range(n):
        q = g.normal(size=4)
        quaternions.append(q / np.linalg.norm(q))
    moved = positions if transform is None else np.array([transform(p) for p in positions])
    save_trajectory(Trajectory(np.arange(n), quaternions, moved), path)
    return positions


def test_cmd_eval_fits_umeyama_once(tmp_path, monkeypatch):
    from rollbound import cli, metrics
    calls = []
    fit = metrics.align_similarity

    def counted(*args, **kwargs):
        calls.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(metrics, "align_similarity", counted)
    monkeypatch.setattr(cli, "align_similarity", counted)
    est, ref = tmp_path / "est.txt", tmp_path / "ref.txt"
    _write_traj(est, seed=3)
    _write_traj(ref, seed=4)
    for rot_align in ("umeyama", "rotfit"):
        calls.clear()
        assert run("--out", str(tmp_path / "o"), "eval", str(est), str(ref),
                   "--rot-align", rot_align) == 0
        assert len(calls) == 1


def test_cmd_eval_self_comparison(tmp_path, capsys):
    f = tmp_path / "t.txt"
    _write_traj(f)
    rc = run("--out", str(tmp_path / "o"), "eval", str(f), str(f))
    assert rc == 0
    text = capsys.readouterr().out
    ate_line = [l for l in text.splitlines() if l.startswith("ATE:")][0]
    are_line = [l for l in text.splitlines() if l.startswith("ARE")][0]
    assert float(ate_line.split(":")[1]) < 1e-12
    assert float(are_line.split(":")[1]) < 1e-9
    assert (tmp_path / "o" / "metrics.csv").exists()


def test_cmd_eval_similarity_transformed_copy(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    est = tmp_path / "est.txt"
    _write_traj(ref, seed=5)
    R = quat_to_matrix(rotation_about_z(0.4))
    _write_traj(est, seed=5, transform=lambda p: 2.0 * R @ p + np.array([1.0, -2.0, 0.5]))
    rc = run("--out", str(tmp_path / "o"), "eval", str(est), str(ref))
    assert rc == 0
    text = capsys.readouterr().out
    ate_line = [l for l in text.splitlines() if l.startswith("ATE:")][0]
    assert float(ate_line.split(":")[1]) < 1e-9


def test_cmd_eval_malformed_line_cited(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    lines = ["# header"] + [f"{i} 0 0 {i} 0 0 0 1" for i in range(5)] + ["5 what 0 0 0 0 0 1"]
    f.write_text("\n".join(lines) + "\n")
    ref = tmp_path / "ref.txt"
    _write_traj(ref, n=6)
    rc = run("eval", str(f), str(ref))
    assert rc == 2
    assert "line 7" in capsys.readouterr().err


def test_cmd_eval_rejects_differing_frame_indices(tmp_path, capsys):
    est = tmp_path / "est.txt"
    ref = tmp_path / "ref.txt"
    est.write_text("".join(f"{i} {i} 0 0 0 0 0 1\n" for i in range(10)))
    ref.write_text("".join(f"{500 + i} {i} 0 0 0 0 1 0\n" for i in range(10)))
    rc = run("--out", str(tmp_path / "o"), "eval", str(est), str(ref))
    assert rc == 2
    err = capsys.readouterr().err
    assert "position 0: estimated frame 0 vs reference frame 500" in err
    assert not (tmp_path / "o" / "metrics.csv").exists()


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def test_cmd_ablate_grid_and_monotone_leakage(tmp_path):
    out = tmp_path / "o"
    rc = run("--out", str(out), "--set", "total_frames=65",
             "--set", "velocity_error=0.5", "ablate", "--grid", "4:4,8:8,16:16")
    assert rc == 0
    header, rows = _read_rows(out / "ablation.csv")
    assert header[:2] == ["dk_gen", "dk_int"]
    assert len(rows) == 3
    leakages = [float(r[7]) for r in rows]
    assert leakages == sorted(leakages) and leakages[0] < leakages[-1]
    assert all(int(r[9]) == 0 for r in rows)


def test_cmd_ablate_interp_subsample(tmp_path):
    out = tmp_path / "o"
    rc = run("--out", str(out), "--set", "total_frames=33", "ablate",
             "--grid", "8:16")
    assert rc == 0
    _, rows = _read_rows(out / "ablation.csv")
    # generated anchors [0,8,16,24,32] filtered to a stride-2 subsample [0,16,32]
    assert int(rows[0][2]) == 3


def test_cmd_ablate_empty_grid(tmp_path, capsys):
    rc = run("--out", str(tmp_path / "o"), "ablate", "--grid", " ")
    assert rc == 2
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["a:b", " : ", "4:x", "4:4:4", "4"])
def test_cmd_ablate_malformed_cell_names_the_cell(cell, tmp_path, capsys):
    rc = run("--out", str(tmp_path / "o"), "ablate", "--grid", f"4:4,{cell}")
    assert rc == 2
    assert capsys.readouterr().err == f"error: grid cell {cell.strip()!r} is not gen:interp\n"
    assert not (tmp_path / "o").exists()


def test_cmd_ablate_rejects_nonmultiple(tmp_path, capsys):
    rc = run("--out", str(tmp_path / "o"), "ablate", "--grid", "8:12")
    assert rc == 2


def test_cmd_ablate_rejects_overlap_geq_segment(tmp_path, capsys):
    rc = run("--out", str(tmp_path / "o"), "--set", "segment_len=2", "--set", "overlap=2",
             "ablate", "--grid", "4:4")
    assert rc == 2
    assert "segment length must exceed overlap" in capsys.readouterr().err
    assert not (tmp_path / "o" / "ablation.csv").exists()


@pytest.mark.parametrize("command", [["simulate"], ["ablate", "--grid", "4:4"]])
@pytest.mark.parametrize("cap", ["nan", "inf"])
def test_non_finite_kf_error_cap_is_invalid_input(command, cap, tmp_path, capsys):
    rc = run("--out", str(tmp_path / "o"), "--set", f"kf_error_cap={cap}", *command)
    assert rc == 2
    assert "error_cap must be finite and non-negative" in capsys.readouterr().err


_FLOAT_KEYS = ("lipschitz", "bias", "noise_std", "sigma_int", "velocity_error",
               "kf_error_cap", "kf_step_error")


@pytest.mark.parametrize("command", ["simulate", "bounds"])
@pytest.mark.parametrize("key, value",
                         [(key, "nan") for key in _FLOAT_KEYS]
                         + [(key, "inf") for key in _FLOAT_KEYS if key != "kf_step_error"]
                         + [("kf_step_error", "-1")])
def test_invalid_float_key_is_invalid_input_naming_the_key(key, value, command, tmp_path,
                                                          capsys):
    rc = run("--out", str(tmp_path / "o"), "--set", f"{key}={value}", command)
    assert rc == 2
    assert f"error: {key} must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["plan", "bounds", "simulate"])
@pytest.mark.parametrize("key, value", [
    ("kf_scenario", "nope"), ("dynamics", "nope"),
    ("total_frames", "0"), ("strides", "0"), ("strides", "8,-4"), ("overlap", "-1"),
    ("overlap", "9"), ("segment_len", "1"), ("dim", "0"), ("trials", "0"), ("seed", "-1")])
def test_invalid_key_value_exits_2_naming_the_key(key, value, command, tmp_path, capsys):
    rc = run("--out", str(tmp_path / "o"), "--set", f"{key}={value}", command)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and re.search(rf"\b{key}\b", err), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["plan", "simulate"])
def test_negative_seed_flag_exits_2_naming_the_key(command, tmp_path, capsys):
    rc = run("--seed", "-1", "--out", str(tmp_path / "o"), command)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: seed must be >= 0"), err
    assert not (tmp_path / "o").exists()


def test_cli_import_does_not_load_numpy_random():
    # numpy.random is imported on the first draw only: a command that draws
    # nothing, or the import itself, does not pay for it
    code = "import sys, rollbound.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_unknown_config_key_via_set(tmp_path, capsys):
    rc = run("--out", str(tmp_path / "o"), "--set", "nope=1", "plan")
    assert rc == 2


def test_removed_conditioning_keys_are_unknown(tmp_path, capsys):
    rc = run("--out", str(tmp_path / "o"), "--set", "alpha_c=0.7", "plan")
    assert rc == 2
    assert "unknown config key 'alpha_c'" in capsys.readouterr().err
    cfg_path = tmp_path / "old.txt"
    cfg_path.write_text("total_frames = 33\nsigma_c = 0.3\n")
    rc = run("--config", str(cfg_path), "--out", str(tmp_path / "o"), "plan")
    assert rc == 2
    assert "line 2: unknown config key 'sigma_c'" in capsys.readouterr().err
    # the stride list alone sets the stride: stride_mode is gone too
    rc = run("--out", str(tmp_path / "o"), "--set", "stride_mode=train", "plan")
    assert rc == 2
    assert "unknown config key 'stride_mode'" in capsys.readouterr().err
    cfg_path.write_text("strides = 4,8\nstride_mode = train\n")
    rc = run("--config", str(cfg_path), "--out", str(tmp_path / "o"), "plan")
    assert rc == 2
    assert "line 2: unknown config key 'stride_mode'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("total_frames = 33\nstrides = 8\nsegment_len = 9\n")
    out = tmp_path / "o"
    rc = run("--config", str(cfg_path), "--out", str(out), "--set",
             "total_frames=17", "plan")
    assert rc == 0
    assert "total_frames = 17" in (out / "plan.txt").read_text()


def test_train_mode_plan_from_config(tmp_path, capsys):
    out = tmp_path / "o"
    rc = run("--out", str(out), "--seed", "3", "--set", "total_frames=65",
             "--set", "strides=4,8,16", "plan")
    assert rc == 0
    text = (out / "plan.txt").read_text()
    kf_line = [l for l in text.splitlines() if l.startswith("keyframes")][0]
    kfs = [int(v) for v in kf_line.split("=")[1].split(",")]
    assert kfs[1] - kfs[0] in (4, 8, 16)


@pytest.mark.parametrize("command", ["plan", "bounds", "simulate"])
def test_several_strides_run_every_command(command, tmp_path):
    out = tmp_path / "o"
    rc = run("--out", str(out), "--set", "total_frames=65", "--set", "strides=4,8",
             "--set", "velocity_error=0.3", command)
    assert rc == 0
    if command == "bounds":
        # the a-priori leakage takes the widest anchor interval a plan can draw
        header, rows = _read_rows(out / "bounds.csv")
        assert {float(r[header.index("leakage")]) for r in rows} == {
            unified_bound(0.0, 8, 0.3).leakage_term}


def test_several_strides_simulate_within_bound(tmp_path, capsys):
    # each seed's plan draws its own stride; a deterministic run stays
    # within the bound of the stride it drew
    strides = (4, 8, 16)
    drawn = set()
    for seed in range(6):
        kf = build_plan(97, strides, 9, 1, rng=derive_rng(seed, "plan")).keyframes
        drawn.add(kf[1] - kf[0])
        rc = run("--out", str(tmp_path / str(seed)), "--seed", str(seed),
                 "--set", "total_frames=97", "--set", "strides=4,8,16",
                 "--set", "bias=0.01", "--set", "kf_error_cap=0.05",
                 "--set", "velocity_error=0.3", "simulate")
        assert rc == 0
        text = capsys.readouterr().out
        assert "bound violations (step-by-step): 0" in text
        assert "bound violations (anchored): 0" in text
    assert len(drawn) > 1


def test_simulate_with_trajectory_controls(tmp_path):
    traj_path = tmp_path / "traj.txt"
    g = np.random.default_rng(1)
    t = np.array([g.normal(size=3) for _ in range(33)])
    save_trajectory(Trajectory(np.arange(33), np.tile([1.0, 0.0, 0.0, 0.0], (33, 1)), t),
                    traj_path)
    out = tmp_path / "o"
    rc = run("--out", str(out), "--set", "total_frames=33", "--set", "dim=3",
             "--set", f"trajectory={traj_path}", "--set", "bias=0.01",
             "--set", "kf_scenario=downsampled_ar", "simulate")
    assert rc == 0
    _, rows = _read_rows(out / "ar_trace.csv")
    assert float(rows[-1][1]) == pytest.approx(0.32, abs=1e-9)


@pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
@pytest.mark.parametrize("entry", ["config", "trajectory", "eval", "ablate"])
def test_unreadable_input_file_exits_2_naming_the_path(entry, kind, tmp_path, capsys):
    bad = tmp_path / "input.txt"
    if kind == "directory":
        bad.mkdir()
    if kind == "not_utf8":
        bad.write_bytes(b"\xff\xfe0 0 0 0 0 0 0 1\n")
    good = tmp_path / "good.txt"
    _write_traj(good, n=6)
    out = ["--out", str(tmp_path / "o")]
    argv = {
        "config": ["--config", str(bad), *out, "plan"],
        "trajectory": [*out, "--set", "dim=3", "--set", f"trajectory={bad}", "simulate"],
        "eval": [*out, "eval", str(good), str(bad)],
        "ablate": [*out, "--set", "dim=3", "--set", f"trajectory={bad}",
                   "ablate", "--grid", "4:4"],
    }[entry]
    rc = run(*argv)
    err = capsys.readouterr().err
    assert rc == 2
    reason = ("not UTF-8 text (invalid start byte at byte 0)\n" if kind == "not_utf8"
              else "cannot open: ")
    assert err.startswith(f"error: {bad}: {reason}"), err
    assert not (tmp_path / "o").exists()


def test_cmd_eval_comment_only_file_prints_only_the_error(tmp_path):
    # numpy's reader warns on input that holds no data; a user sees only the
    # error line
    path = tmp_path / "comments.txt"
    path.write_text("# only a comment\n\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-m", "rollbound.cli", "--out", str(tmp_path / "o"),
                           "eval", str(path), str(path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {path}: no poses found\n"


def test_cmd_eval_rejects_a_fractional_index_with_deprecations_ignored(tmp_path):
    # as outside the test suite, a DeprecationWarning is not an error: an
    # index int() rejects still exits 2 naming its line
    path = tmp_path / "poses.txt"
    path.write_text("0 0 0 0 0 0 0 1\n5.7 0 0 0 0 0 0 1\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-W", "ignore::DeprecationWarning", "-m",
                           "rollbound.cli", "--out", str(tmp_path / "o"),
                           "eval", str(path), str(path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {path}: line 2: invalid literal for int()"), proc.stderr
