"""The benchmark's own per-op checks, run once per workload: an op whose
outputs the benchmark would judge incorrect fails here first."""

import importlib.util
from pathlib import Path

import pytest

from rollbound import worldsim

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads")


@pytest.mark.parametrize("name", ["mc_trials", "long_horizon", "clip_scoring"])
def test_one_op_passes_its_check(name, workloads, tmp_path):
    workload = workloads.WORKLOADS[name]
    seed = workloads.op_seed(1, 0)
    inputs = workload.prepare(seed, str(tmp_path))
    values = workload.execute(seed, str(tmp_path), inputs)
    workload.check(seed, str(tmp_path), inputs, values)


def test_traced_mc_trials_op_calls_the_engine_once(workloads, tmp_path):
    workload = workloads.WORKLOADS["mc_trials"]
    tracer = _bench_module("tracing").Tracer()
    with tracer.installed():
        with tracer.op(0):
            values = workload.execute(1, str(tmp_path), None)
    workload.check(1, str(tmp_path), None, values)
    assert tracer.layer_metrics()["worldsim.compare_pipelines.calls_per_op"] == 1
    # the tracer puts every function back
    assert not hasattr(worldsim.compare_pipelines, "__wrapped__")
