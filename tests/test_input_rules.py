"""One guard for the number rules: every scalar numeric parameter of the
public errormodel functions, of WorldConfig and the five worldsim entries,
and of build_plan is checked when it enters, and a bad value raises
InvalidInput whose message starts with the parameter's name.

The kinds of number:
  * real      -- any real number (a string or None is rejected)
  * rate      -- a finite real >= 0 (core._as_rate)
  * interval  -- a scalar anchor interval: a finite real > 0
  * int       -- an integer (core._as_int)
  * count k   -- an integer >= k (core._as_count)

The worldsim entries that take a plan run with worldsim._World replaced by
one that fails if it is built, so each of their arguments, the scenario too,
is shown to be checked before the ground truth's pass.
"""

import inspect

import numpy as np
import pytest

from rollbound import errormodel, worldsim
from rollbound.errormodel import (
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
from rollbound.errors import InvalidInput
from rollbound.schedule import build_plan
from rollbound.worldsim import (
    WorldConfig,
    compare_pipelines,
    generate_keyframes,
    rollout_anchored,
    rollout_pure_ar,
    simulate_ground_truth,
)


def _world():
    return WorldConfig(dim=2, bias=np.full(2, 0.01))


_PLAN = build_plan(17, 8, 9, 1)

#: each call: the function and its valid keyword arguments
_CALLS = {
    "ar_upper_curve": (ar_upper_curve, dict(lipschitz=1.0, step_error=0.1, n_frames=5)),
    # the interval given is the last of two
    "jump_anchor_bound": (
        lambda intervals, **kw: jump_anchor_bound(intervals=[2, intervals], **kw),
        dict(lipschitz=1.0, step_error=0.1, intervals=1)),
    "solve_damping_spline": (solve_damping_spline, dict(interval=8.0, velocity_in=1.0)),
    "leakage_peak": (leakage_peak, dict(interval=8.0, velocity_in=1.0)),
    "cumulative_leakage_bound": (cumulative_leakage_bound, dict(interval=8.0, velocity0=1.0)),
    "discrete_spline_minimizer": (discrete_spline_minimizer,
                                  dict(interval=8.0, velocity_in=1.0, grid_points=6)),
    "bridge_mean": (bridge_mean, dict(tau=1.0, interval=8.0, left=0.0, right=1.0)),
    "bridge_variance": (bridge_variance, dict(tau=1.0, interval=8.0, noise_std=0.1)),
    "simulate_bridge_paths": (
        lambda **kw: simulate_bridge_paths(rng=np.random.default_rng(0), **kw),
        dict(interval=8.0, noise_std=0.1, n_steps=4, n_paths=2)),
    "unified_bound": (unified_bound, dict(anchor_error=0.1, interval=8, velocity_error=0.2,
                                          interp_noise=0.1)),
    "WorldConfig": (WorldConfig, dict(dim=2, lipschitz=1.0, noise_std=0.1, seed=0)),
    "simulate_ground_truth": (lambda **kw: simulate_ground_truth(_world(), **kw),
                              dict(n_frames=5)),
    "rollout_pure_ar": (lambda **kw: rollout_pure_ar(_world(), **kw), dict(n_frames=5)),
    **{f"generate_keyframes[{scenario}]": (
        lambda scenario=scenario, **kw: generate_keyframes(_world(), _PLAN, scenario, **kw),
        dict(error_cap=0.1, step_error=0.02)) for scenario in ("global", "downsampled_ar")},
    "rollout_anchored": (
        lambda **kw: rollout_anchored(_world(), _PLAN, np.zeros((3, 2)), **kw),
        dict(sigma_int=0.1, velocity_error=0.2, seed=3)),
    **{f"compare_pipelines[{scenario}]": (
        lambda scenario=scenario, **kw: compare_pipelines(_world(), _PLAN, scenario, **kw),
        dict(trials=2, seed=3, sigma_int=0.1, velocity_error=0.2, kf_error_cap=0.1,
             kf_step_error=0.02)) for scenario in ("global", "downsampled_ar")},
    "build_plan": (build_plan, dict(n_frames=17, stride=8, seg_len=9, overlap=1)),
}

#: (call, parameter, kind, least for a count); a parameter's InvalidInput
#: names it, but for the two in _MESSAGE_NAMES
_NUMBERS = [
    ("ar_upper_curve", "lipschitz", "real"),
    ("ar_upper_curve", "step_error", "real"),
    ("ar_upper_curve", "n_frames", "count", 0),
    ("jump_anchor_bound", "lipschitz", "real"),
    ("jump_anchor_bound", "step_error", "real"),
    ("jump_anchor_bound", "intervals", "count", 1),
    ("solve_damping_spline", "interval", "interval"),
    ("solve_damping_spline", "velocity_in", "real"),
    ("leakage_peak", "interval", "interval"),
    ("leakage_peak", "velocity_in", "real"),
    ("cumulative_leakage_bound", "interval", "interval"),
    ("cumulative_leakage_bound", "velocity0", "real"),
    ("discrete_spline_minimizer", "interval", "interval"),
    ("discrete_spline_minimizer", "velocity_in", "real"),
    ("discrete_spline_minimizer", "grid_points", "count", 6),
    ("bridge_mean", "interval", "interval"),
    ("bridge_variance", "noise_std", "rate"),
    ("simulate_bridge_paths", "interval", "interval"),
    ("simulate_bridge_paths", "noise_std", "rate"),
    ("simulate_bridge_paths", "n_steps", "count", 1),
    ("simulate_bridge_paths", "n_paths", "count", 1),
    ("unified_bound", "anchor_error", "real"),
    ("unified_bound", "interval", "count", 1),
    ("unified_bound", "velocity_error", "rate"),
    ("unified_bound", "interp_noise", "rate"),
    ("WorldConfig", "dim", "count", 1),
    ("WorldConfig", "lipschitz", "rate"),
    ("WorldConfig", "noise_std", "rate"),
    ("WorldConfig", "seed", "int"),
    ("simulate_ground_truth", "n_frames", "count", 1),
    ("rollout_pure_ar", "n_frames", "count", 1),
    *[(f"generate_keyframes[{scenario}]", name, "rate")
      for scenario in ("global", "downsampled_ar") for name in ("error_cap", "step_error")],
    ("rollout_anchored", "sigma_int", "rate"),
    ("rollout_anchored", "velocity_error", "real"),
    ("rollout_anchored", "seed", "int"),
    *[(f"compare_pipelines[{scenario}]", name, "rate")
      for scenario in ("global", "downsampled_ar") for name in ("kf_error_cap", "kf_step_error")],
    ("compare_pipelines[global]", "trials", "count", 1),
    ("compare_pipelines[global]", "seed", "int"),
    ("compare_pipelines[global]", "sigma_int", "rate"),
    ("compare_pipelines[global]", "velocity_error", "real"),
    ("build_plan", "n_frames", "count", 1),
    ("build_plan", "stride", "count", 1),
    ("build_plan", "seg_len", "int"),
    ("build_plan", "overlap", "int"),
]

#: parameters that InvalidInput names by another name
_MESSAGE_NAMES = {"intervals": "each interval", "seg_len": "segment_len"}

#: parameters for which None is a valid value (a default)
_NONE_TAKEN = {"step_error": ("generate_keyframes",), "kf_step_error": ("compare_pipelines",),
               "velocity_error": ("rollout_anchored", "compare_pipelines"),
               "seed": ("rollout_anchored", "compare_pipelines")}

#: the calls that build a world only to check their frame count
_CHECKED_BY_THE_WORLD = ("simulate_ground_truth", "rollout_pure_ar")


def _function(call: str) -> str:
    return call.split("[")[0]


def _bad_values(call, name, kind, least=None):
    values = ["1"] if _function(call) in _NONE_TAKEN.get(name, ()) else ["1", None]
    if kind == "count":
        return values + [least - 1, 2.5]
    return values + {"real": [], "rate": [np.nan, -1.0, np.inf],
                     "interval": [np.nan, -1.0, np.inf, 0.0], "int": [2.5]}[kind]


_CASES = [pytest.param(call, name, value, id=f"{call}-{name}-{value!r}")
          for call, name, kind, *least in _NUMBERS
          for value in _bad_values(call, name, kind, *least)]


def _no_world(*args, **kwargs):
    raise AssertionError("a world was built before the input was checked")


@pytest.mark.parametrize("call", list(_CALLS))
def test_each_call_runs_on_its_valid_arguments(call):
    # a valid base call, so each bad value below is rejected for its own sake
    function, kwargs = _CALLS[call]
    function(**kwargs)


@pytest.mark.parametrize("call, name, value", _CASES)
def test_bad_number_raises_invalid_input_naming_it(call, name, value, monkeypatch):
    if not call.startswith(_CHECKED_BY_THE_WORLD):
        monkeypatch.setattr(worldsim, "_World", _no_world)
    function, kwargs = _CALLS[call]
    with pytest.raises(InvalidInput) as exc:
        function(**{**kwargs, name: value})
    assert str(exc.value).startswith(_MESSAGE_NAMES.get(name, name) + " "), str(exc.value)


#: parameters that are not scalar numbers: these names wherever they occur,
#: and bridge_variance's interval, which may be an array of intervals
_NOT_SCALAR = {"cfg", "plan", "scenario", "rng", "anchors", "momentum", "substitution", "tau",
               "left", "right", "dynamics", "bias", "x0", "control"}
_NOT_SCALAR_OF = {("bridge_variance", "interval")}


def test_every_scalar_parameter_has_a_rule():
    # every public errormodel function, WorldConfig, the five worldsim
    # entries and build_plan: each scalar numeric parameter is in the table
    functions = [f for name, f in vars(errormodel).items()
                 if inspect.isfunction(f) and not name.startswith("_")
                 and f.__module__ == errormodel.__name__]
    functions += [WorldConfig, simulate_ground_truth, rollout_pure_ar, generate_keyframes,
                  rollout_anchored, compare_pipelines, build_plan]
    table = {(_function(call), name) for call, name, *_ in _NUMBERS}
    for f in functions:
        for name in inspect.signature(f).parameters:
            if name not in _NOT_SCALAR and (f.__name__, name) not in _NOT_SCALAR_OF:
                assert (f.__name__, name) in table, (f.__name__, name)


@pytest.mark.parametrize("entry", [
    lambda: generate_keyframes(_world(), _PLAN, "bogus"),
    lambda: compare_pipelines(_world(), _PLAN, "bogus", trials=32),
], ids=["generate_keyframes", "compare_pipelines"])
def test_unknown_scenario_is_rejected_before_any_world(entry, monkeypatch):
    monkeypatch.setattr(worldsim, "_World", _no_world)
    with pytest.raises(InvalidInput, match="^unknown keyframe scenario 'bogus'$"):
        entry()
