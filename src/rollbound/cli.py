"""Experiment runner: plan construction, bound curves, world simulation,
trajectory metrics, and stride-ablation sweeps, with CSV artifacts.

Subcommands: plan, bounds, simulate, eval, ablate.
Global flags: --config PATH, --seed N, --out DIR, --set key=value.
Exit codes: 0 success, 1 internal error, 2 invalid input.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from .core import RolloutPlan, load_trajectory, write_columns_csv
from .errormodel import ar_upper_curve, jump_anchor_bound, unified_bound
from .errors import InvalidInput
from .expconfig import ExperimentConfig, load_config, save_config
from .metrics import align_similarity, are, fit_rotation, smoothness
from .schedule import build_plan, partition_segments, save_plan, segment_context
from .seeding import child_seed, derive_rng
from .worldsim import (
    WorldConfig,
    RolloutTrace,
    bias_from_norm,
    compare_pipelines,
    control_schedule,
    controls_from_trajectory,
    generate_keyframes,
    rollout_anchored,
    trace_table,
    write_trace_csv,
)

BOUND_TOL = 1e-9


def _load_experiment(args) -> ExperimentConfig:
    flags = {key: value for key, value in (("seed", args.seed), ("out_dir", args.out))
             if value is not None}
    return load_config(args.config, args.set, **flags)


def _out_dir(cfg: ExperimentConfig) -> str:
    """The output directory, made once the run's input is read: a run
    rejected by its input leaves none behind, and an --out that cannot be
    made fails before the computation, leaving none of the directories it
    made on the way."""
    missing, head = [], cfg.out_dir
    while head and not os.path.isdir(head):
        missing.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        for path in missing:  # deepest first; rmdir removes no file
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise InvalidInput(f"out_dir {cfg.out_dir!r} cannot be made a directory: "
                           f"{exc.strerror}") from None
    return cfg.out_dir


def _world(cfg: ExperimentConfig) -> WorldConfig:
    control = None
    if cfg.trajectory:
        control = controls_from_trajectory(load_trajectory(cfg.trajectory), cfg.dim)
    world = WorldConfig(dim=cfg.dim, lipschitz=cfg.lipschitz, dynamics=cfg.dynamics,
                        bias=bias_from_norm(cfg.dim, cfg.bias), noise_std=cfg.noise_std,
                        control=control, seed=cfg.seed)
    if control is not None:  # a trajectory too short for the run fails before --out is made
        control_schedule(world, cfg.total_frames)
    return world


def _plan(cfg: ExperimentConfig) -> RolloutPlan:
    return build_plan(cfg.total_frames, cfg.stride, cfg.segment_len, cfg.overlap)


def _bound_violations(trace: RolloutTrace, noise: float) -> int | None:
    """Frames whose error exceeds the trace's bound, for a trace its
    pipeline's noise (noise_std for the step-by-step one, sigma_int for the
    anchored one) leaves deterministic; None for a stochastic one, whose
    errors a worst-case bound does not cover. A saturated bound frame is
    diverged, not violated, and is not counted."""
    if noise != 0.0:
        return None
    over = trace.error_norms > trace.bounds + BOUND_TOL
    if trace.diverged is not None:
        over &= ~trace.diverged
    return int(np.sum(over))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_plan(args) -> int:
    cfg = _load_experiment(args)
    out = _out_dir(cfg)
    plan = _plan(cfg)
    path = os.path.join(out, "plan.txt")
    save_plan(plan, path)
    save_config(cfg, os.path.join(out, "config.txt"))
    starts, _ = partition_segments(plan)
    print(f"plan: {plan.total_frames} frames, {len(plan.keyframes)} keyframes, "
          f"{len(starts)} segments, overlap {plan.overlap}")
    print(f"keyframes: {', '.join(str(k) for k in plan.keyframes)}")
    for i, (start, end, history, anchors) in enumerate(segment_context(plan)):
        print(f"  segment {i}: [{start}..{end}] history {history} anchors {anchors}")
    print(f"wrote {path}")
    return 0


def cmd_bounds(args) -> int:
    cfg = _load_experiment(args)
    _world(cfg)  # the input simulate would read, checked as simulate checks it
    plan = _plan(cfg)
    out = _out_dir(cfg)
    n = cfg.total_frames
    intervals = np.diff(plan.keyframes)
    upper, flags = ar_upper_curve(cfg.lipschitz, cfg.bias, n)
    # the mean error's floor is the noiseless error: a scaled identity adds
    # every bias step along one direction, so that is upper itself; a
    # rotation turns the drift with the state and has no a-priori floor
    lower = upper if cfg.dynamics == "scaled_identity" else np.zeros(n)
    # each component's variance obeys v <- L^2 v + sigma^2 under both
    # dynamics, since A = L Q
    variance, _ = ar_upper_curve(cfg.lipschitz * cfg.lipschitz, cfg.noise_std * cfg.noise_std, n)
    if cfg.kf_scenario == "global":
        anchor = cfg.kf_error_cap
    else:  # downsampled_ar: one step error per anchor jump
        mu = cfg.bias if cfg.kf_step_error is None else cfg.kf_step_error
        anchor = jump_anchor_bound(cfg.lipschitz, mu, intervals)
    bd = unified_bound(anchor, int(intervals.max(initial=1)), cfg.velocity_error, cfg.sigma_int)
    path = os.path.join(out, "bounds.csv")
    write_columns_csv(path, ("frame", "ar_upper", "ar_lower", "ar_variance", "dcar_bound",
                             "anchor", "leakage", "noise", "diverged"),
                      (np.arange(n), upper, lower, variance, bd.total, bd.anchor_term,
                       bd.leakage_term, bd.noise_term, flags))
    print(f"bounds: ar_upper[{n - 1}]={upper[-1]:g} (diverged={bool(flags[-1])}), "
          f"anchored bound={bd.total:g} "
          f"(anchor {bd.anchor_term:g} + leakage {bd.leakage_term:g} + noise {bd.noise_term:g})")
    print(f"wrote {path}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_experiment(args)
    world = _world(cfg)
    plan = _plan(cfg)
    out = _out_dir(cfg)
    report = compare_pipelines(world, plan, cfg.kf_scenario, trials=cfg.trials, seed=cfg.seed,
                               sigma_int=cfg.sigma_int, velocity_error=cfg.velocity_error,
                               kf_error_cap=cfg.kf_error_cap,
                               kf_step_error=cfg.kf_step_error)
    ar_trace, anchored_trace = report.trial0_ar, report.trial0_anchored
    mean_path = os.path.join(out, "mean_curves.csv")
    dc_mean = report.anchored_mean_error
    ratio = np.full(plan.total_frames, np.inf)
    # both means past the float range read nan, and a ratio past it inf
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(report.ar_mean_error, dc_mean, out=ratio, where=dc_mean > 0)
    # one pass writes the three files, so each distinct column is formatted
    # once: every file's frame column, and with 1 trial the traces' errors
    write_trace_csv(ar_trace, os.path.join(out, "ar_trace.csv"),
                    trace_table(anchored_trace, os.path.join(out, "anchored_trace.csv")),
                    (mean_path, ("frame", "ar_mean_err", "anchored_mean_err", "ar_mse",
                                 "anchored_mse", "ratio"),
                     (np.arange(plan.total_frames), report.ar_mean_error, dc_mean,
                      report.ar_mse, report.anchored_mse, ratio)))

    lines = [
        f"trials: {cfg.trials}",
        f"scenario: {cfg.kf_scenario}",
        f"final step-by-step error: {float(report.ar_mean_error[-1])!r}",
        f"final anchored error: {float(dc_mean[-1])!r}",
        f"final error ratio: {float(ratio[-1])!r}",
    ]
    violations = (_bound_violations(ar_trace, cfg.noise_std),
                  _bound_violations(anchored_trace, cfg.sigma_int))
    if violations == (None, None):
        lines.append("bound violations: n/a (stochastic run)")
    else:
        for name, viol in zip(("step-by-step", "anchored"), violations):
            lines.append(f"bound violations ({name}): "
                         f"{'n/a (stochastic)' if viol is None else viol}")
    if ar_trace.diverged.any():
        lines.append(f"diverged (step-by-step): from frame {int(ar_trace.diverged.argmax())}")
    report_path = os.path.join(out, "report.txt")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"wrote {mean_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_experiment(args)
    est = load_trajectory(args.estimated)
    ref = load_trajectory(args.reference)
    result = align_similarity(est, ref, with_scale=args.align == "sim3")
    ate_val = result.rmse
    # the "umeyama" convention rotates by the fit just made
    are_umeyama = are(est, ref, result.rotation)
    are_rotfit = are(est, ref, fit_rotation(est, ref))
    are_val = {"umeyama": are_umeyama, "rotfit": are_rotfit}[args.rot_align]
    smooth = smoothness(est.translations)
    out = _out_dir(cfg)
    print(f"alignment: scale={result.scale!r} rmse={result.rmse!r} "
          f"degenerate={result.degenerate}")
    print(f"rotation:\n{np.array2string(result.rotation, precision=6)}")
    print(f"translation: {np.array2string(result.translation, precision=6)}")
    print(f"ATE: {ate_val!r}")
    print(f"ARE ({args.rot_align}): {are_val!r}")
    if abs(are_umeyama - are_rotfit) > 0.1:
        print(f"note: rotation-alignment conventions disagree by "
              f"{abs(are_umeyama - are_rotfit):.3f} deg "
              f"(umeyama {are_umeyama:.3f}, rotfit {are_rotfit:.3f})")
    print(f"smoothness: {smooth!r}")
    path = os.path.join(out, "metrics.csv")
    write_columns_csv(path, ("name", "value", "n_items"),
                      (np.array(["ate", f"are_{args.rot_align}", "smoothness"]),
                       np.array([ate_val, are_val, smooth]), len(est)))
    print(f"wrote {path}")
    return 0


def _parse_grid(spec: str) -> list[tuple[int, int]]:
    pairs = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            g, i = map(int, item.split(":"))
        except ValueError:  # not two fields, or a field that is not an integer
            raise InvalidInput(f"grid cell {item!r} is not gen:interp") from None
        if g < 1 or i < 1 or i % g != 0:
            raise InvalidInput(f"grid cell {item!r}: interp stride must be a "
                               f"multiple of the generation stride")
        pairs.append((g, i))
    if not pairs:
        raise InvalidInput("empty ablation grid")
    return pairs


def cmd_ablate(args) -> int:
    cfg = _load_experiment(args)
    grid = _parse_grid(args.grid)
    world = _world(cfg)
    out = _out_dir(cfg)
    rows = []
    for g_stride, i_stride in grid:
        gen_plan = build_plan(cfg.total_frames, g_stride, cfg.segment_len, cfg.overlap)
        kfs = generate_keyframes(world, gen_plan, cfg.kf_scenario,
                                 error_cap=cfg.kf_error_cap, step_error=cfg.kf_step_error,
                                 rng=derive_rng(cfg.seed, f"ablate-kf-{g_stride}-{i_stride}"))
        # the interpolation anchors are the generated ones at multiples of
        # i_stride (and the final frame), since g_stride divides i_stride
        plan = build_plan(cfg.total_frames, i_stride, cfg.segment_len, cfg.overlap)
        anchors = kfs[np.searchsorted(gen_plan.keyframes, plan.keyframes)]
        trace = rollout_anchored(world, plan, anchors, sigma_int=cfg.sigma_int,
                                 velocity_error=cfg.velocity_error,
                                 seed=child_seed(cfg.seed, f"ablate-{g_stride}-{i_stride}"))
        viol = _bound_violations(trace, cfg.sigma_int)
        bd = trace.breakdown
        rows.append((g_stride, i_stride, len(plan.keyframes), len(partition_segments(plan)[0]),
                     float(trace.error_norms[-1]), bd.total, bd.anchor_term, bd.leakage_term,
                     bd.noise_term, -1 if viol is None else viol))
    path = os.path.join(out, "ablation.csv")
    # each column is all ints or all floats, and np.array keeps it so
    write_columns_csv(path, ("dk_gen", "dk_int", "n_keyframes", "n_segments", "final_err",
                             "bound_total", "anchor", "leakage", "noise", "violations"),
                      [np.array(column) for column in zip(*rows)])
    for row in rows:
        print(f"(dk_gen={row[0]}, dk_int={row[1]}): keyframes={row[2]} segments={row[3]} "
              f"final_err={row[4]:g} bound={row[5]:g} violations={row[9]}")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rollbound",
                                     description="anchored rollout planning, error bounds, "
                                                 "toy-world simulation, and pose metrics")
    parser.add_argument("--config", help="experiment config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="build a rollout plan")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("bounds", help="emit per-frame bound curves")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="run both pipelines in the toy world")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="trajectory metrics between two pose files")
    p.add_argument("estimated")
    p.add_argument("reference")
    p.add_argument("--align", choices=("sim3", "se3"), default="sim3",
                   help="similarity (with scale) or rigid alignment")
    p.add_argument("--rot-align", choices=("umeyama", "rotfit"), default="umeyama",
                   help="rotation-alignment convention reported for ARE")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="sweep (generation, interpolation) stride pairs")
    p.add_argument("--grid", required=True,
                   help="comma list of gen:interp stride pairs, e.g. 4:4,8:8,16:16")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
