"""Spans around calls into rollbound's layers, recorded from outside the
package.

``Tracer.installed()`` wraps each target function at every module attribute
that holds it (``worldsim.rollout_pure_ar`` and ``cli.rollout_pure_ar`` are
the same function under two names), so a call is seen wherever the caller
looks the function up. Spans are recorded only while an op is open, are kept
in memory, and are written out only by ``write_spans`` at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import os
import sys
import time

# Layers and the public functions traced in each; `expconfig`, `svgplot` and
# `errors` are on no hot path.
TARGETS = (
    "worldsim.compare_pipelines", "worldsim.rollout_pure_ar", "worldsim.rollout_anchored",
    "worldsim.generate_keyframes", "worldsim.simulate_ground_truth",
    "worldsim.dynamics_matrix", "worldsim.write_trace_csv",
    "seeding.derive_rng",
    "errormodel.ar_upper_curve", "errormodel.unified_bound",
    "errormodel.solve_damping_spline",
    "schedule.build_plan", "schedule.partition_segments", "schedule.select_keyframes",
    "core.validate_plan", "core.load_trajectory",
    "metrics.align_similarity", "metrics.are", "metrics.fit_rotation", "metrics.ssim",
    "metrics.psnr",
    "cli.cmd_bounds", "cli.cmd_simulate", "cli.cmd_eval",
)

# Targets whose argument names a file they write: its size is counted.
WRITES_PATH_ARG = {"worldsim.write_trace_csv": 1}
# Byte counters: the files the traced writers wrote, and everything an op's
# commands left in their output directory.
COUNTERS = ("worldsim.write_trace_csv.bytes", "cli.bytes_written")


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent span index or -1, op id]
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0.0)
        self.ops = 0
        self._stack: list[int] = []
        self._op = None

    @contextlib.contextmanager
    def installed(self):
        """Wrap the targets in every loaded rollbound module; undo on exit."""
        for target in TARGETS:
            importlib.import_module("rollbound." + target.split(".")[0])
        patched = []
        try:
            for target in TARGETS:
                module, name = target.split(".")
                fn = getattr(sys.modules["rollbound." + module], name)
                wrapper = self._wrap(target, fn)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "rollbound" or mod_name.startswith("rollbound."):
                        for attr, value in list(vars(mod).items()):
                            if value is fn:
                                setattr(mod, attr, wrapper)
                                patched.append((mod, attr, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(patched):
                setattr(mod, attr, fn)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Record the spans of one op under ``op_id``."""
        self._op = op_id
        try:
            yield
        finally:
            self._op = None
            self.ops += 1

    def add(self, counter: str, amount: float) -> None:
        if self._op is not None:
            self.counters[counter] += amount

    def _wrap(self, name: str, fn):
        path_arg = WRITES_PATH_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if path_arg is not None:
                    path = args[path_arg] if len(args) > path_arg else kwargs["path"]
                    self.counters[name + ".bytes"] += os.path.getsize(path)

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Per-op means: calls, busy time, and self time (busy time minus the
        time covered by child spans) of each target, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = dict.fromkeys(TARGETS, 0)
        busy = dict.fromkeys(TARGETS, 0.0)
        own = dict.fromkeys(TARGETS, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - child_time[i]
        ops = max(self.ops, 1)
        out = {}
        for name in TARGETS:
            out[f"{name}.calls_per_op"] = calls[name] / ops
            out[f"{name}.busy_s"] = busy[name] / ops
            out[f"{name}.self_s"] = own[name] / ops
        for name, total in self.counters.items():
            out[name] = total / ops
        return out

    def write_spans(self, path: str, origin: float) -> None:
        """All spans as gzipped CSV, times in seconds from ``origin``."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,op,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{op},{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")
