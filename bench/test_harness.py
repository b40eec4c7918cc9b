"""Self-test of the benchmark harness: a bad op is counted as failed, never
dropped, and the reported metric names match BENCHMARK.json.

    python3 -m pytest bench/test_harness.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

assert run.use_sources(), "run from a checkout with src/rollbound"
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import ClipScoring, LongHorizon, McTrials  # noqa: E402


def _tamper_nan(lines):
    fields = lines[5].split(", ")
    fields[1] = "nan"
    lines[5] = ", ".join(fields)


def _tamper_drop_row(lines):
    del lines[-1]


class TamperedCsv(McTrials):
    """The real op, followed by a corruption of its step-by-step trace CSV."""

    def __init__(self, tamper):
        super().__init__(frames=41, trials=2)
        self.tamper = tamper

    def execute(self, seed, workdir, inputs):
        values = super().execute(seed, workdir, inputs)
        path = os.path.join(workdir, "out", "ar_trace.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        self.tamper(lines)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        return values


class Raising(McTrials):
    def execute(self, seed, workdir, inputs):
        raise RuntimeError("op raised")


SMALL = [McTrials(frames=41, trials=2), LongHorizon(frames=300),
         ClipScoring(poses=60, images=1, side=32)]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_clean_op_passes_and_reproduces(workload, tmp_path):
    first = run.run_op(workload, 11, str(tmp_path / "a"), keep_digest=True)
    again = run.run_op(workload, 11, str(tmp_path / "b"), keep_digest=True)
    assert first.error is None and again.error is None
    assert first.digest == again.digest
    other = run.run_op(workload, 12, str(tmp_path / "c"), keep_digest=True)
    assert other.digest != first.digest


@pytest.mark.parametrize("tamper", [_tamper_nan, _tamper_drop_row])
def test_tampered_csv_is_counted_as_failed(tamper, tmp_path):
    (phase,) = run.run_loop(TamperedCsv(tamper), 3, 0.0, str(tmp_path))
    assert phase.attempted == 1 and phase.times == []
    assert len(phase.failures) == 1 and "ar_trace.csv" in phase.failures[0]


def test_raising_op_is_counted_as_failed(tmp_path):
    phases = run.run_loop(Raising(), 3, 0.0, str(tmp_path), tracer=tracing.Tracer())
    assert [p.attempted for p in phases] == [1, 1]
    assert all("op raised" in p.failures[0] for p in phases)


def test_run_reports_failed_ops(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "mc_trials", Raising(frames=41, trials=2))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run.main(["--workload", "mc_trials", "--seed", "1", "--seconds", "0",
                         "--trace", "1"]) == 0
    result = json.loads(stdout.getvalue().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 4  # warm-up, 2 ops, re-run


def test_tracer_counts_calls_and_restores_functions(tmp_path):
    from rollbound import cli, worldsim

    original = worldsim.rollout_pure_ar
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.compare_pipelines is worldsim.compare_pipelines is not original
        outcome = run.run_op(McTrials(frames=41, trials=2), 5, str(tmp_path / "op"), tracer)
    assert outcome.error is None
    assert worldsim.rollout_pure_ar is original
    layers = tracer.layer_metrics()
    assert layers["worldsim.compare_pipelines.calls_per_op"] == 1
    assert layers["worldsim.rollout_pure_ar.calls_per_op"] == 3  # 2 trials + trial 0 trace
    busy, own = layers["cli.cmd_simulate.busy_s"], layers["cli.cmd_simulate.self_s"]
    assert 0 < own < busy
    assert layers["cli.bytes_written"] > layers["worldsim.write_trace_csv.bytes"] > 0


def test_scaled_time_cancels_machine_speed():
    ref = reference.REFERENCE_S
    assert reference.scaled(0.5, ref, ref) == 0.5
    # a machine at half speed doubles both the op and the probes around it
    assert reference.scaled(1.0, 2 * ref, 2 * ref) == pytest.approx(0.5)
    assert reference.scaled(1.0, ref, 3 * ref) == pytest.approx(0.5)


def test_tail_percentile_leaves_ten_ops_beyond():
    times = [float(i) for i in range(1, 29)]
    value, pct = run.tail_percentile(times)
    assert pct == 64 and sum(t > value for t in times) == 10
    assert run.tail_percentile([1.0, 2.0]) == (2.0, 100)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = [*tracing.Tracer().layer_metrics(), run.TRACE_OVERHEAD]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layer_names}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
