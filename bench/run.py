"""rollbound benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload mc_trials --seed 1 --seconds 36 --trace 0

The workloads (``workloads.py``) drive ``rollbound.cli.main(argv)`` in-process
from the sources under ``src/``. A run is a closed loop with one client: the
next op starts only when the previous one has finished, in this single
process, on the default serial path (``ROLLBOUND_SIM_THREADS`` is cleared).
Op ``i`` gets its own CLI seed derived from ``--seed``. Every op's outputs are
checked; an op that raises or fails a check counts as failed. An untimed
warm-up op comes first, and at the end it is run again: its output files
must match byte for byte.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median cold import
of ``rollbound.cli`` in a fresh interpreter), ``frames_per_s``, ``op_p50_s``,
``op_tail_s`` (highest percentile with at least 10 ops beyond it) and
``peak_rss_mib``. ``--trace 1`` traces every second op, runs the others
untraced, and reports the per-layer metrics of ``tracing.py`` plus the
tracing overhead: untraced minus traced frames per second.

Every timed interval behind an end-to-end metric (each op, each cold import)
is bracketed by ``reference.probe()`` and reported scaled to the reference
speed (``reference.py``), which cancels the VM's own changes of speed; the
raw wall times are kept in the record. Per-layer span times are raw.

Each metric is printed with its unit and sample count; the last line of
stdout is the JSON result. The full record (environment, sizes, op times) is
written to ``bench/_out/``, and a traced run's spans next to it. Inputs and
outputs live in a temporary directory under ``bench/_tmp/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
TMP = BENCH / "_tmp"

SETUP_REPEATS = 11
TAIL_BEYOND = 10
END_TO_END_UNITS = {"setup_s": "s", "frames_per_s": "1/s", "op_p50_s": "s",
                    "op_tail_s": "s", "peak_rss_mib": "MiB"}
TRACE_OVERHEAD = "trace.frames_per_s_overhead"


def use_sources() -> bool:
    """Put the package sources on the import path; False if they are absent."""
    if not (SRC / "rollbound" / "cli.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


@dataclass
class Outcome:
    elapsed: float  # op time scaled to the reference speed
    error: str | None
    digest: tuple | None = None
    wall: float = 0.0  # op time as measured


@dataclass
class Phase:
    times: list[float] = field(default_factory=list)  # op times of the ops that passed
    walls: list[float] = field(default_factory=list)  # the same, as measured
    elapsed: float = 0.0  # op time of every op, failed ones included
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, outcome: Outcome) -> None:
        self.attempted += 1
        self.elapsed += outcome.elapsed
        if outcome.error is None:
            self.times.append(outcome.elapsed)
            self.walls.append(outcome.wall)
        else:
            self.failures.append(outcome.error)


def _files(top: str) -> dict[str, bytes]:
    out = {}
    for parent, _, names in os.walk(top):
        for name in names:
            path = os.path.join(parent, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, top)] = fh.read()
    return out


def run_op(workload, seed: int, workdir: str, tracer=None, op_id: int = 0,
           keep_digest: bool = False) -> Outcome:
    """Prepare, time, and check one op. Any exception fails the op; it is
    returned as an error, never dropped."""
    os.makedirs(workdir)
    out = os.path.join(workdir, "out")
    wall = elapsed = 0.0
    try:
        inputs = workload.prepare(seed, workdir)
        before = reference.probe()
        try:
            with tracer.op(op_id) if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                try:
                    values = workload.execute(seed, workdir, inputs)
                finally:
                    wall = time.perf_counter() - start
                if tracer:
                    tracer.add("cli.bytes_written", sum(len(b) for b in _files(out).values()))
        finally:
            elapsed = reference.scaled(wall, before, reference.probe())
        workload.check(seed, workdir, inputs, values)
        return Outcome(elapsed, None, (values, _files(out)) if keep_digest else None, wall)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        return Outcome(elapsed, f"op {op_id} (seed {seed}): {type(exc).__name__}: {exc}",
                       wall=wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_loop(workload, workload_seed: int, seconds: float, tmp: str,
             tracer=None) -> list[Phase]:
    """Ops back to back from op 1 until ``seconds`` have passed, at least one
    per phase. With a tracer, odd ops are traced and even ops run with the
    package unwrapped: the phases are [untraced, traced]."""
    from workloads import op_seed

    phases = [Phase(), Phase()] if tracer else [Phase()]
    deadline = time.perf_counter() + seconds
    index = 1
    while index <= len(phases) or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 1
        with tracer.installed() if traced else contextlib.nullcontext():
            outcome = run_op(workload, op_seed(workload_seed, index),
                             os.path.join(tmp, f"op{index}"), tracer if traced else None, index)
        phases[1 if traced else 0].add(outcome)
        index += 1
    return phases


def measure_setup(repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """Seconds to import rollbound.cli in fresh interpreters, as measured and
    scaled to the reference speed by probes in the same interpreter. One
    untimed import first fills the bytecode cache, as any installed copy has
    it."""
    code = (f"import sys, time; sys.path.insert(0, {str(BENCH)!r}); import reference; "
            "before = reference.probe(); t = time.perf_counter(); import rollbound.cli; "
            "wall = time.perf_counter() - t; "
            "print(repr(wall), repr(reference.scaled(wall, before, reference.probe())))")
    env = {k: v for k, v in os.environ.items() if k != "ROLLBOUND_SIM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    times = []
    for i in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=60)
        if i:
            wall, scaled = done.stdout.split()
            times.append((float(wall), float(scaled)))
    return times


def tail_percentile(times: list[float]) -> tuple[float, int]:
    """Op time at the highest whole percentile (nearest rank) with at least
    TAIL_BEYOND ops beyond it; with too few ops, the slowest op as p100."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    pct = 100 * (n - TAIL_BEYOND) // n
    return ordered[max(1, math.ceil(pct * n / 100)) - 1], pct


def end_to_end(workload, phase: Phase, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Metric values, and a note per metric on its samples."""
    work = workload.work_per_op()
    if not phase.times:
        return dict.fromkeys(END_TO_END_UNITS), {}
    tail, pct = tail_percentile(phase.times)
    n = len(phase.times)
    values = {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "frames_per_s": work * n / phase.elapsed,
        "op_p50_s": statistics.median(phase.times),
        "op_tail_s": tail,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} cold imports, at reference speed",
        "frames_per_s": f"{workload.work_unit}s of {n} passed ops over "
                        f"{phase.elapsed:.2f} s of op time at reference speed",
        "op_p50_s": f"median of {n} ops, at reference speed",
        "op_tail_s": f"p{pct} of {n} ops, at reference speed",
        "peak_rss_mib": "max resident set of this process",
    }
    return values, notes


def layer_unit(name: str) -> str:
    if name == TRACE_OVERHEAD:
        return "1/s"
    suffix = name.rsplit(".", 1)[1]
    return {"calls_per_op": "calls/op", "busy_s": "s/op", "self_s": "s/op"}.get(
        suffix, "bytes/op")


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(args, sim_threads: str | None, ops: int) -> dict:
    import numpy as np
    from workloads import WORKLOADS

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "ROLLBOUND_SIM_THREADS": ("unset" if sim_threads is None
                                  else f"was {sim_threads!r}, cleared for the run"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": {name: w.sizes() for name, w in WORKLOADS.items()},
        "ops_per_run": ops,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="rollbound benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_sources():
        print(f"error: no rollbound sources under {SRC}", file=sys.stderr)
        return 2
    sim_threads = os.environ.pop("ROLLBOUND_SIM_THREADS", None)
    from tracing import Tracer
    from workloads import WORKLOADS, op_seed

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    TMP.mkdir(exist_ok=True)
    origin = time.perf_counter()
    setup = [] if args.trace else measure_setup()
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=TMP) as tmp:
        first = run_op(workload, op_seed(args.seed, 0), os.path.join(tmp, "warmup"),
                       keep_digest=True)
        phases = run_loop(workload, args.seed, args.seconds, tmp,
                          tracer if args.trace else None)
        again = run_op(workload, op_seed(args.seed, 0), os.path.join(tmp, "rerun"),
                       keep_digest=True)

    checks = Phase()
    checks.add(first)
    if again.error is None and (first.digest is None or again.digest != first.digest):
        again.error = "re-run of op 0 does not reproduce its outputs byte for byte"
    checks.add(again)
    phase = phases[0]
    attempted = checks.attempted + sum(p.attempted for p in phases)
    failures = [f for p in [checks] + phases for f in p.failures]

    if args.trace:
        values = tracer.layer_metrics()
        fps = [workload.work_per_op() * len(p.times) / p.elapsed if p.times else 0.0
               for p in phases]
        values[TRACE_OVERHEAD] = fps[0] - fps[1]
        notes = {TRACE_OVERHEAD: f"{fps[0]:.1f} untraced - {fps[1]:.1f} traced "
                                 f"{workload.work_unit}s per second"}
        units = {name: layer_unit(name) for name in values}
    else:
        values, notes = end_to_end(workload, phase, setup)
        units = END_TO_END_UNITS

    env = environment(args, sim_threads, sum(p.attempted for p in phases))
    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops attempted "
          f"(warm-up and its re-run included), {len(failures)} failed")
    for name, value in values.items():
        note = notes.get(name, f"mean over {tracer.ops} traced ops")
        print(f"  {name} = {value!r} {units[name]} ({note})")
    print(f"  fail_ratio = {len(failures) / attempted!r} ({len(failures)}/{attempted} ops)")
    for failure in failures[:10]:
        print(f"  failed: {failure}")
    print("env: " + json.dumps(env))

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "attempted": attempted, "failed": len(failures),
              "fail_ratio": len(failures) / attempted, "failures": failures,
              "metrics": {k: {"value": v, "unit": units[k], "samples": notes.get(k)}
                          for k, v in values.items()},
              "reference_s": reference.REFERENCE_S,
              "op_times_s": phase.times, "op_wall_s": phase.walls,
              "setup_wall_s": [wall for wall, _ in setup]}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write_spans(f"{stem}.spans.csv.gz", origin)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
