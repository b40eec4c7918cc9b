import errno
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rollbound import cli, core, expconfig
from rollbound.cli import build_parser, main
from rollbound.core import Trajectory, rotation_about_z, save_trajectory
from rollbound.core import quat_to_matrix
from rollbound.errormodel import cumulative_leakage_bound
from rollbound.expconfig import ExperimentConfig, load_config, save_config


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
    cfg = ExperimentConfig(total_frames=77, stride=4, bias=0.0125, sigma_int=0.3,
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


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("seed = 1\nbogus = 2\n")
    with pytest.raises(Exception, match="line 2"):
        load_config(path)


@pytest.mark.parametrize("key", ["out_dir", "trajectory"])
@pytest.mark.parametrize("value", ["runs/#3", "a#b#c", "x=#y"])
def test_config_round_trip_keeps_a_hash_in_a_string(key, value, tmp_path):
    # '#' starts a comment only at the start of a line or after whitespace
    cfg = ExperimentConfig(**{key: value})
    path = tmp_path / "cfg.txt"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_comment_after_whitespace(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# header\nout_dir = runs/#3  # a comment\nseed = 4\t# tab\n  # indented\n")
    assert load_config(path) == ExperimentConfig(out_dir="runs/#3", seed=4)


def test_load_config_without_a_file_reads_the_overrides_in_order():
    assert load_config() == ExperimentConfig()
    assert load_config(None, ["seed=3", "total_frames=9", "seed=5"]) == ExperimentConfig(
        total_frames=9, seed=5)


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
             "--set", "stride=4", "--set", "velocity_error=0.5",
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
    # anchors generated step by step at stride 8 err by one bias per jump: at
    # L = 1 the a-priori anchor term is one bias per anchor interval, here
    # (n - 1) / 8 of them, an 8-fold cut of the step-by-step bound at the
    # final frame
    out = tmp_path / "o"
    assert run("--out", str(out), "--set", "total_frames=321", "--set", "bias=0.01",
               "--set", "stride=8", "--set", "kf_scenario=downsampled_ar", "bounds") == 0
    header, rows = _read_rows(out / "bounds.csv")
    anchor = {float(r[header.index("anchor")]) for r in rows}
    assert len(anchor) == 1
    anchor = anchor.pop()
    assert anchor == pytest.approx(0.4)
    pure = float(rows[-1][header.index("ar_upper")])
    assert pure == pytest.approx(3.2)
    assert pure / anchor == pytest.approx(8.0)


def _anchor_column(path):
    header, rows = _read_rows(path)
    return {float(row[header.index("anchor")]) for row in rows}


@pytest.mark.parametrize("dynamics", ["scaled_identity", "rotation"])
def test_cmd_bounds_downsampled_anchor_term_covers_simulate(dynamics, tmp_path):
    # the a-priori anchor term of bounds is at least the largest anchor error
    # simulate measures: one jump per anchor interval, the short last one
    # included, at kf_step_error or else bias per jump. 51 frames leave a last
    # interval of 2 frames at strides 8 and 4, and none at stride 5
    cases = 0
    for lipschitz in ("0.9", "1", "1.05"):
        for step in ((), ("kf_step_error=0.3",)):
            for stride in ("8", "4", "5"):
                for seed in ("1", "2", "3"):
                    argv = ["--seed", seed]
                    for setting in (f"dynamics={dynamics}", f"lipschitz={lipschitz}",
                                    "bias=0.1", "dim=2", "total_frames=51",
                                    f"stride={stride}", "kf_scenario=downsampled_ar",
                                    "velocity_error=0.2", *step):
                        argv += ["--set", setting]
                    out = tmp_path / f"{lipschitz}-{len(step)}-{stride}-{seed}"
                    assert run("--out", str(out), *argv, "bounds") == 0
                    assert run("--out", str(out), *argv, "simulate") == 0
                    (printed,), (measured,) = (_anchor_column(out / name) for name in
                                               ("bounds.csv", "anchored_trace.csv"))
                    assert measured <= printed, (out.name, measured, printed)
                    cases += 1
    assert cases == 54
    # where the jumps, which multiply by L**D once, once rounded a few ulps
    # below the anchors, which step D times
    argv = ["--set", "lipschitz=1.02", "--set", "bias=0.01", "--set",
            "kf_scenario=downsampled_ar"]
    out = tmp_path / "321-frames"
    assert run("--out", str(out), *argv, "bounds") == 0
    assert run("--out", str(out), *argv, "simulate") == 0
    (printed,), (measured,) = (_anchor_column(out / name) for name in
                               ("bounds.csv", "anchored_trace.csv"))
    assert measured <= printed <= measured * (1 + 1e-12)


def _csv_column(path, name):
    header = [h.strip() for h in path.open().readline().split(",")]
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=header.index(name), ndmin=1)


@pytest.mark.parametrize("frames, dynamics, lipschitz", [
    (100_000, "scaled_identity", "1"),
    pytest.param(1_000_000, "scaled_identity", "1", marks=pytest.mark.slow),
    pytest.param(1_000_000, "scaled_identity", "0.999", marks=pytest.mark.slow),
    pytest.param(1_000_000, "rotation", "1", marks=pytest.mark.slow)])
def test_cmd_bounds_anchor_term_covers_simulate_at_long_horizons(frames, dynamics, lipschitz,
                                                                 tmp_path):
    # the a-priori anchor term holds over 10^4 to 10^5 jumps: on a
    # deterministic downsampled run every row of bounds' anchor column is at
    # least every row of the anchor column simulate measures (at 10^6 frames
    # both are about 1,250 on the identity, 1.254 at L = 0.999)
    argv = ["--out", str(tmp_path), "--set", f"total_frames={frames}", "--set", "dim=2",
            "--set", f"dynamics={dynamics}", "--set", f"lipschitz={lipschitz}",
            "--set", "bias=0.01", "--set", "kf_scenario=downsampled_ar"]
    assert run(*argv, "bounds") == 0
    assert run(*argv, "simulate") == 0
    printed = _csv_column(tmp_path / "bounds.csv", "anchor")
    measured = _csv_column(tmp_path / "anchored_trace.csv", "anchor")
    assert len(printed) == len(measured) == frames
    assert printed.min() >= measured.max() > 0.0


def test_cmd_bounds_downsampled_anchor_term_short_last_interval(tmp_path):
    # 51 frames at stride 8: six full jumps and a short one, 7 * bias, as
    # simulate measures; kf_step_error replaces bias per jump; at stride 4
    # the term is 13 jumps
    for settings, expected in ((("stride=8",), 0.7),
                               (("stride=8", "kf_step_error=0.3"), 2.1),
                               (("stride=4",), 1.3)):
        argv = ["--out", str(tmp_path), "--set", "total_frames=51", "--set", "bias=0.1",
                "--set", "kf_scenario=downsampled_ar"]
        for setting in settings:
            argv += ["--set", setting]
        assert run(*argv, "bounds") == 0
        (anchor,) = _anchor_column(tmp_path / "bounds.csv")
        assert anchor == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bias, frames", [("0.01", "3"), ("0", "51")])
def test_cmd_bounds_anchor_term_from_a_zero_error_is_the_step_error(bias, frames, tmp_path):
    # L**D overflows at L = 1e200, but the first jump starts from e = 0, and
    # with bias 0 every jump does: the anchor term is the step error, as
    # simulate measures, not the saturated 1e300
    argv = ["--out", str(tmp_path), "--set", "lipschitz=1e200", "--set", f"bias={bias}",
            "--set", "kf_scenario=downsampled_ar", "--set", f"total_frames={frames}"]
    assert run(*argv, "bounds") == 0
    assert run(*argv, "simulate") == 0
    (printed,), (measured,) = (_anchor_column(tmp_path / name) for name in
                               ("bounds.csv", "anchored_trace.csv"))
    assert measured <= printed < 1.0


def test_cmd_bounds_anchor_term_past_an_overflowing_jump_factor_stays_finite(tmp_path):
    # L**2 overflows at L = 1e200, but the anchors' second jump goes from
    # 1e-300 to 1e100 frame by frame: the anchor term follows them, not the
    # saturated 1e300
    argv = ["--out", str(tmp_path), "--set", "lipschitz=1e200", "--set", "bias=1e-300",
            "--set", "kf_scenario=downsampled_ar", "--set", "total_frames=5",
            "--set", "stride=2"]
    assert run(*argv, "bounds") == 0
    assert run(*argv, "simulate") == 0
    (printed,), (measured,) = (_anchor_column(tmp_path / name) for name in
                               ("bounds.csv", "anchored_trace.csv"))
    assert measured <= printed <= measured * (1.0 + 1e-12)
    assert measured == 1e100


@pytest.mark.parametrize("command, csv", [("bounds", "bounds.csv"),
                                          ("simulate", "anchored_trace.csv"),
                                          ("ablate", "ablation.csv")])
def test_cmd_leakage_past_the_float_range_reads_inf_without_warning(command, csv,
                                                                    tmp_path, capsys):
    # 2(sqrt(3)/9) * 8 * 1e308 is past the float range: the leakage term
    # reads inf, and numpy's overflow warning stays inside
    extra = ["--grid", "8:8"] if command == "ablate" else []
    assert run("--out", str(tmp_path), "--set", "velocity_error=1e308",
               "--set", "total_frames=33", command, *extra) == 0
    assert capsys.readouterr().err == ""
    header, rows = _read_rows(tmp_path / csv)
    assert {row[header.index("leakage")] for row in rows} == {"inf"}


@pytest.mark.parametrize("settings, command, message", [
    (("sigma_int=1e308",), "simulate", "latent frames must be finite"),
    (("sigma_int=1e308",), "ablate --grid 4:4", "latent frames must be finite"),
    (("kf_scenario=downsampled_ar", "lipschitz=3", "bias=0.01", "total_frames=2000"),
     "simulate", "keyframe values must be finite"),
    (("velocity_error=1e308", "stride=16"), "simulate", "latent frames must be finite"),
    (("velocity_error=1e308",), "ablate --grid 16:16", "latent frames must be finite"),
    (("seed=5", "total_frames=33", "kf_error_cap=1e308", "velocity_error=1e308"), "simulate",
     "latent frames must be finite"),
], ids=["bridge-noise-simulate", "bridge-noise-ablate", "downsampled-anchors",
        "leakage-simulate", "leakage-ablate", "anchors-plus-leakage"])
def test_cmd_overflow_prints_only_the_error_line(settings, command, message, tmp_path,
                                                 capsys):
    # bridge noise, leakage or anchors past the float range, or anchors near
    # it plus leakage: the finite check rejects the run, and numpy's overflow
    # warnings stay inside
    argv = ["--out", str(tmp_path)]
    for setting in settings:
        argv += ["--set", setting]
    if command.startswith("ablate"):
        argv += ["--set", "total_frames=33"]
    assert run(*argv, *command.split()) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_cmd_simulate_saturated_bound_is_diverged_not_violated(tmp_path, capsys):
    # from frame 2 the bias-only bound passes 1e300 and saturates, the frames
    # bounds flags diverged: simulate reports them as diverged, not as
    # violations of the saturated value
    settings = ["--set", "lipschitz=1.5", "--set", "bias=1e300", "--set", "total_frames=20",
                "--set", "trials=2"]
    assert run("--out", str(tmp_path), *settings, "simulate") == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert "bound violations (step-by-step): 0" in lines
    assert lines[-1] == "diverged (step-by-step): from frame 2"
    header, rows = _read_rows(tmp_path / "ar_trace.csv")
    assert max(float(row[header.index("err_norm")]) for row in rows) > 1e303
    assert run("--out", str(tmp_path), *settings, "bounds") == 0
    header, rows = _read_rows(tmp_path / "bounds.csv")
    assert [row[header.index("diverged")] for row in rows] == ["0"] * 2 + ["1"] * 18


def test_cmd_simulate_ratio_of_two_infinite_means_reads_nan_without_warning(tmp_path, capsys):
    # both mean errors pass the float range on every row but the anchor rows
    # 0, 8 and 16, where the anchored mean stays finite: the ratio reads nan
    # (inf/inf) there, inf on the anchor rows, and nothing reaches stderr
    assert run("--out", str(tmp_path), "--set", "bias=1e307", "--set", "total_frames=17",
               "--set", "trials=32", "--set", "velocity_error=1e308", "simulate") == 0
    assert capsys.readouterr().err == ""
    header, rows = _read_rows(tmp_path / "mean_curves.csv")
    ratio = [row[header.index("ratio")] for row in rows]
    assert ratio == ["inf" if t in (0, 8, 16) else "nan" for t in range(17)]


def test_cmd_simulate_ratio_past_the_float_range_reads_inf_without_warning(tmp_path, capsys):
    # a huge step-by-step mean over a subnormal anchored one overflows the
    # ratio's division: it reads inf on every row, and nothing reaches stderr
    assert run("--out", str(tmp_path), "--set", "dim=4", "--set", "lipschitz=0",
               "--set", "bias=1e300", "--set", "sigma_int=5e-324", "--set", "trials=2",
               "simulate") == 0
    assert capsys.readouterr().err == ""
    header, rows = _read_rows(tmp_path / "mean_curves.csv")
    assert {row[header.index("ratio")] for row in rows} == {"inf"}


@pytest.mark.parametrize("scenario", ["global", "downsampled_ar"])
def test_cmd_simulate_drift_past_1e154(scenario, tmp_path, capsys):
    # the drift norm's square passes the float range, the norm does not:
    # simulate runs without a warning, its step-by-step bound is the one
    # bounds prints, and the downsampled anchors stay finite
    settings = ["--set", "bias=1e200", "--set", "total_frames=17",
                "--set", f"kf_scenario={scenario}"]
    for command in ("bounds", "simulate"):
        assert run("--out", str(tmp_path), *settings, command) == 0
        assert capsys.readouterr().err == ""
    header, rows = _read_rows(tmp_path / "bounds.csv")
    upper = [row[header.index("ar_upper")] for row in rows]
    assert upper[-1] == "1.6e+201"
    anchor_bound = float(rows[0][header.index("anchor")])
    header, rows = _read_rows(tmp_path / "ar_trace.csv")
    assert [row[header.index("bound_total")] for row in rows] == upper
    assert "diverged" not in (tmp_path / "report.txt").read_text()
    header, rows = _read_rows(tmp_path / "anchored_trace.csv")
    anchor = float(rows[0][header.index("anchor")])
    assert anchor <= anchor_bound
    if scenario == "downsampled_ar":
        assert anchor == pytest.approx(2e200)


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


def test_cmd_simulate_formats_each_error_column_once(tmp_path, monkeypatch):
    # with 1 trial the mean errors are the trial's errors: the three CSVs are
    # written in one pass, so each pipeline's error text, and the frame
    # column, is formatted once a block, not once a file
    monkeypatch.setattr(core, "CSV_ROW_BLOCK", 16)
    formatted = Counter()
    format_block = core._format_block

    def counting(values):
        formatted[values.dtype.kind, values.tobytes()] += 1
        return format_block(values)

    monkeypatch.setattr(core, "_format_block", counting)
    assert main(_sim_args(tmp_path, ["--set", "total_frames=57"])) == 0
    mean = np.loadtxt(tmp_path / "mean_curves.csv", delimiter=",", skiprows=1, usecols=(1, 2))
    for name, err in (("ar_trace.csv", mean[:, 0]), ("anchored_trace.csv", mean[:, 1])):
        assert np.array_equal(np.loadtxt(tmp_path / name, delimiter=",", skiprows=1,
                                         usecols=1), err)
        for column in (err, np.arange(57)):
            blocks = [column[lo:lo + 16] for lo in range(0, 57, 16)]
            assert [formatted[b.dtype.kind, b.tobytes()] for b in blocks] == [1, 1, 1, 1]


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
    assert not (tmp_path / "o").exists()


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


def test_cmd_ablate_checks_the_anchored_bound_under_generator_noise(tmp_path):
    # noise_std drives only the step-by-step generator, which ablate does not run
    rc = run("--out", str(tmp_path), "--set", "noise_std=0.1", "--set", "total_frames=33",
             "ablate", "--grid", "4:4")
    assert rc == 0
    _, rows = _read_rows(tmp_path / "ablation.csv")
    assert int(rows[0][9]) == 0


@pytest.mark.parametrize("noise, lines", [
    ("noise_std=0.1", ["bound violations (step-by-step): n/a (stochastic)",
                       "bound violations (anchored): 0"]),
    ("sigma_int=0.1", ["bound violations (step-by-step): 0",
                       "bound violations (anchored): n/a (stochastic)"])])
def test_cmd_simulate_checks_each_bound_against_its_own_noise(noise, lines, tmp_path):
    rc = run("--out", str(tmp_path), "--set", "total_frames=65", "--set", "bias=0.01",
             "--set", "trials=2", "--set", noise, "simulate")
    assert rc == 0
    assert (tmp_path / "report.txt").read_text().splitlines()[-2:] == lines


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
    ("total_frames", "0"), ("stride", "0"), ("stride", "-4"), ("overlap", "-1"),
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


def test_cli_import_does_not_load_numpy_random(tmp_path):
    # numpy.random is imported on the first draw only: a command that draws
    # nothing (plan and bounds), or the import itself, does
    # not pay for it
    code = ("import sys, rollbound.cli as cli\n"
            "loaded = ['numpy.random' in sys.modules]\n"
            "for command in ('plan', 'bounds'):\n"
            "    assert cli.main(['--out', sys.argv[1], command]) == 0\n"
            "    loaded.append('numpy.random' in sys.modules)\n"
            "print(loaded)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == "[False, False, False]"
    assert (tmp_path / "out" / "plan.txt").is_file()
    assert (tmp_path / "out" / "bounds.csv").is_file()


_UNMAKEABLE_OUT = {"empty-flag": ["--out", ""], "empty-key": ["--set", "out_dir="],
                   "file": ["--out", "{file}"], "under-file": ["--out", "{file}/sub"],
                   "overlong-name": ["--out", "a" * 300],
                   "overlong-under-new": ["--out", "{dir}/sub/" + "a" * 300 + "/x"]}


@pytest.mark.parametrize("out, command", [
    pytest.param(out, command, id=case if command == "plan" else f"{case}-{command}")
    for command in ("plan", "bounds", "simulate", "eval", "ablate")
    for case, out in _UNMAKEABLE_OUT.items()])
def test_out_that_cannot_be_a_directory_is_invalid_input(out, command, tmp_path, capsys):
    # every subcommand rejects the --out before it prints a result, and
    # leaves none of the directories it made on the way
    file = tmp_path / "taken"
    file.write_text("x")
    poses = tmp_path / "poses.txt"
    _write_traj(poses)
    argv = {"eval": ["eval", str(poses), str(poses)],
            "ablate": ["ablate", "--grid", "4:4"]}.get(command, [command])
    rc = run(*[arg.format(file=file, dir=tmp_path) for arg in out], *argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: out_dir ")
    assert captured.out == ""
    assert not (tmp_path / "sub").exists()


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
    # one stride per run: the stride list and stride_mode are gone
    for key in ("stride_mode", "strides"):
        rc = run("--out", str(tmp_path / "o"), "--set", f"{key}=8", "plan")
        assert rc == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        cfg_path.write_text(f"stride = 4\n{key} = 8\n")
        rc = run("--config", str(cfg_path), "--out", str(tmp_path / "o"), "plan")
        assert rc == 2
        assert f"line 2: unknown config key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("total_frames = 33\nstride = 8\nsegment_len = 9\n")
    out = tmp_path / "o"
    rc = run("--config", str(cfg_path), "--out", str(out), "--set",
             "total_frames=17", "plan")
    assert rc == 0
    assert "total_frames = 17" in (out / "plan.txt").read_text()


def test_file_value_replaced_by_set_is_not_checked_alone(tmp_path, capsys):
    # the merged config is checked once: overlap 10 needs segment_len 12
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("overlap = 10\n")
    out = tmp_path / "o"
    assert run("--config", str(cfg_path), "--out", str(out), "--set", "segment_len=12",
               "plan") == 0
    assert capsys.readouterr().out.startswith(
        "plan: 321 frames, 41 keyframes, 156 segments, overlap 10\n")
    cfg_path.write_text("total_frames = 0\n")
    assert run("--config", str(cfg_path), "--out", str(out), "--set", "total_frames=9",
               "plan") == 0
    assert load_config(out / "config.txt").total_frames == 9


def test_set_value_replaced_by_flag_is_not_checked_alone(tmp_path):
    out = tmp_path / "o"
    assert run("--set", "seed=-1", "--seed", "3", "--out", str(out), "plan") == 0
    assert load_config(out / "config.txt").seed == 3


@pytest.mark.parametrize("argv, seed", [([], 1), (["--set", "seed=2"], 2),
                                        (["--set", "seed=2", "--seed", "3"], 3),
                                        (["--seed", "3", "--set", "seed=2"], 3)])
def test_precedence_file_then_set_then_flags(argv, seed, tmp_path):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text("seed = 1\nout_dir = unused\n")
    out = tmp_path / "o"
    assert run("--config", str(cfg_path), *argv, "--set", f"out_dir={tmp_path / 'set'}",
               "--out", str(out), "plan") == 0
    assert load_config(out / "config.txt").seed == seed
    assert not (tmp_path / "set").exists()


@pytest.mark.parametrize("line, message", [
    ("bogus = 2", "line 2: unknown config key 'bogus'"),
    ("seed = x", "line 2: seed: invalid literal for int()"),
    ("seed 4", "line 2: expected 'key = value'")])
def test_bad_file_line_is_fatal_even_if_set_replaces_its_key(line, message, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.txt"
    cfg_path.write_text(f"total_frames = 33\n{line}\n")
    key = line.split()[0]
    rc = run("--config", str(cfg_path), "--out", str(tmp_path / "o"), "--set", f"{key}=4",
             "plan")
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: {message}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("pair, message", [
    ("nope=1", "unknown config key 'nope'"),
    ("seed=x", "seed: invalid literal for int()"),
    ("seed", "expected 'key = value'")])
def test_bad_override_is_fatal_even_if_a_later_one_replaces_it(pair, message, tmp_path,
                                                               capsys):
    rc = run("--out", str(tmp_path / "o"), "--set", pair, "--set", "seed=4", "plan")
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: override {pair!r}: {message}")
    assert not (tmp_path / "o").exists()


def _bound_terms(path):
    header, rows = _read_rows(path)
    return tuple({float(r[header.index(name)]) for r in rows} for name in ("leakage", "noise"))


@pytest.mark.parametrize("frames", [1, 2, 3, 50])
@pytest.mark.parametrize("stride", ["1", "8", "49", "50", "400"])
def test_bounds_interval_is_one_a_plan_can_have(frames, stride, tmp_path):
    # the a-priori anchor interval is the plan's widest: bounds' leakage and
    # noise are simulate's
    argv = ["--set", f"total_frames={frames}", "--set", f"stride={stride}",
            "--set", "velocity_error=0.5", "--set", "sigma_int=0.2"]
    assert run("--out", str(tmp_path / "b"), *argv, "bounds") == 0
    assert run("--out", str(tmp_path / "s"), *argv, "simulate") == 0
    assert (_bound_terms(tmp_path / "b" / "bounds.csv")
            == _bound_terms(tmp_path / "s" / "anchored_trace.csv"))


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


@pytest.mark.parametrize("command", ["bounds", "simulate", "ablate"])
@pytest.mark.parametrize("case", ["missing", "dim-2", "too-short"])
def test_trajectory_the_world_cannot_take_exits_2_before_out(case, command, tmp_path, capsys):
    # bounds, simulate and ablate read the trajectory key alike, and reject
    # it before the output directory is made: a file that cannot be opened,
    # a dim it cannot embed in, or fewer steps than the run takes
    path = tmp_path / "traj.txt"
    if case != "missing":
        _write_traj(path, n=4)
    frames, dim = {"missing": (4, 3), "dim-2": (4, 2), "too-short": (10, 3)}[case]
    extra = ["--grid", "4:4"] if command == "ablate" else []
    rc = run("--out", str(tmp_path / "o"), "--set", f"trajectory={path}",
             "--set", f"dim={dim}", "--set", f"total_frames={frames}", command, *extra)
    assert rc == 2
    assert capsys.readouterr().err == {
        "missing": f"error: {path}: cannot open: {os.strerror(errno.ENOENT)}\n",
        "dim-2": "error: need dim >= 3 to embed translation velocity\n",
        "too-short": "error: control schedule has 3 steps, need 9\n"}[case]
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


def test_empty_config_path_is_a_file_that_cannot_be_opened(tmp_path, capsys):
    # an unset shell variable in --config "$CFG" must not run the defaults
    rc = run("--config", "", "--out", str(tmp_path / "o"), "plan")
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: : cannot open: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["out_dir", "trajectory"])
@pytest.mark.parametrize("value", ["runs/a #b", " runs/x", "runs/x ", "#x", "runs/a\tb\n",
                                   "a\nb", "a\rb", "a\x85b", "a\u2028b"])
def test_config_rejects_a_string_its_file_cannot_carry(key, value):
    with pytest.raises(core.InvalidInput, match=f"^{key} must have no surrounding whitespace"):
        ExperimentConfig(**{key: value})


@pytest.mark.parametrize("key, value, message", [
    ("total_frames", 9.5, "total_frames must be an integer, got 9.5"),
    ("segment_len", 5.5, "segment_len must be an integer, got 5.5"),
    ("overlap", 1.0, "overlap must be an integer, got 1.0"),
    ("stride", 2.5, "stride must be an integer, got 2.5"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("trials", 2.5, "trials must be an integer, got 2.5"),
    ("dim", 2.0, "dim must be an integer, got 2.0"),
], ids=["total_frames", "segment_len", "overlap", "stride", "seed", "trials", "dim"])
def test_config_rejects_a_float_count_naming_the_key(key, value, message):
    # a config built from values, not parsed from text, is checked as well:
    # a float count is neither truncated nor left to fail later
    with pytest.raises(core.InvalidInput, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**{key: value})


@pytest.mark.parametrize("key, value", [("bias", "0.1"), ("lipschitz", None),
                                        ("sigma_int", 1j), ("kf_step_error", "none")])
def test_config_rejects_a_float_key_of_another_type_naming_the_key(key, value):
    # a float key takes a real number: a string, None (kf_step_error aside)
    # or a complex number fails as InvalidInput naming the key, not as a
    # TypeError inside the check
    with pytest.raises(core.InvalidInput, match=f"^{key} must be a real number, got "):
        ExperimentConfig(**{key: value})


def test_config_float_keys_hold_python_floats():
    cfg = ExperimentConfig(bias=1, noise_std=np.float32(0.5), kf_step_error=np.int64(2))
    assert [type(v) for v in (cfg.bias, cfg.noise_std, cfg.kf_step_error)] == [float] * 3
    assert (cfg.bias, cfg.noise_std, cfg.kf_step_error) == (1.0, 0.5, 2.0)
    assert ExperimentConfig().kf_step_error is None


@pytest.mark.parametrize("argv", [["--set", "out_dir={d}/a #b"], ["--out", "{d}/a #b"],
                                  ["--out", "{d}/a\nb"], ["--set", "trajectory=#x"]],
                         ids=["set-hash", "flag-hash", "flag-newline", "set-leading-hash"])
def test_cli_rejects_a_string_its_config_file_cannot_carry(argv, tmp_path, capsys):
    rc = run(*[arg.format(d=tmp_path) for arg in argv], "plan")
    assert rc == 2
    assert re.match(r"error: (out_dir|trajectory) must have no surrounding whitespace",
                    capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", [" {d}/zz", "{d}/zz ", "{d}/zz\t"],
                         ids=["leading-space", "trailing-space", "trailing-tab"])
def test_out_flag_value_is_taken_as_it_is(out, tmp_path, capsys):
    # a flag's value is not 'key=value' text: --out keeps its whitespace, so
    # a value the config file cannot carry is rejected, not stripped
    rc = run("--out", out.format(d=tmp_path), "plan")
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        "error: out_dir must have no surrounding whitespace")
    assert list(tmp_path.iterdir()) == []


def test_set_pair_strips_around_its_equals_sign(tmp_path):
    assert run("--set", f"out_dir= {tmp_path / 'yy'} ", "plan") == 0
    assert (tmp_path / "yy" / "plan.txt").exists()


@given(st.text(), st.text())
@settings(max_examples=300, deadline=None)
def test_every_config_that_builds_reads_back_as_itself(out_dir, trajectory):
    try:
        cfg = ExperimentConfig(out_dir=out_dir, trajectory=trajectory)
    except core.InvalidInput:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.txt")
        save_config(cfg, path)
        assert load_config(path) == cfg


def test_norms_below_1e_minus_154_keep_their_precision(tmp_path):
    # one drift step of 1e-160 is an error of exactly 1e-160, as bounds says
    out = tmp_path / "o"
    argv = ["--out", str(out), "--set", "bias=1e-160", "--set", "total_frames=50"]
    assert run(*argv, "simulate") == 0
    assert run(*argv, "bounds") == 0
    header, rows = _read_rows(out / "ar_trace.csv")
    trace = dict(zip(header, rows[1]))
    header, rows = _read_rows(out / "bounds.csv")
    assert trace["err_norm"] == trace["bound_total"] == dict(zip(header, rows[1]))["ar_upper"] \
        == "1e-160"


@pytest.mark.parametrize("error, stderr", [
    (RuntimeError("boom"), "internal error: RuntimeError: boom\n"),
    (BrokenPipeError(), ""),
], ids=["internal", "broken-pipe"])
def test_main_exits_1_on_an_internal_error(error, stderr, monkeypatch, capsys):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_plan", fail)
    assert run("plan") == 1
    assert capsys.readouterr().err == stderr
