"""A fixed reference computation that measures how fast the machine is now.

A shared VM can switch, every few seconds to minutes, between speeds far
apart (about 1.65x on the 2-vCPU, 2.1 GHz Xeon VM the benchmark was sized
on), and every piece of code slows by the same share, so run-to-run spreads
of raw wall times reach the bounds. ``probe()`` times a
fixed piece of pure-Python work, run next to each timed interval, and
``scaled`` rescales that interval to the speed at which the probe takes
``REFERENCE_S``: a change to rollbound still moves the scaled time by its
full share, while a change of machine speed cancels.

The module imports nothing but the standard library, so that a cold import
of rollbound can be probed in a fresh interpreter without loading anything
rollbound loads.
"""

import gc
import time

# Seconds the probe takes at the reference speed (about its median on a
# 2-vCPU Xeon VM at 2.1 GHz); scaled times are seconds at that speed.
REFERENCE_S = 0.010

_VALUES = [i / 7.0 for i in range(400)]


def probe() -> float:
    """Seconds taken by the fixed reference work, with the collector paused
    so that objects the program keeps alive cannot slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0.0
        for i in range(30_000):
            acc += (i * 0.5) % 3.0
        for _ in range(8):
            text = ",".join([repr(v) for v in _VALUES])
            acc += sum([float(v) for v in text.split(",")])
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` seconds rescaled to the reference speed, with the machine's
    speed taken from the probes just before and after the interval."""
    return wall * REFERENCE_S / ((before + after) / 2.0)
