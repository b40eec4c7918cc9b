"""The benchmark's workloads.

Each op drives ``rollbound.cli.main(argv)`` in-process (clip scoring also
calls the image metrics), exactly as one CLI command would, and is then
checked. Modules are reached through their attributes at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import os
import re

import numpy as np

from rollbound import cli, metrics


class OpFailed(Exception):
    """An op's command exited non-zero or one of its outputs failed a check."""


def op_seed(workload_seed: int, index: int) -> int:
    """The CLI seed of op ``index``: every op has its own, so no state carried
    between in-process ops can give a hit a one-command-per-process user
    would miss."""
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1)[0])


def run_cli(argv: list[str]) -> str:
    """Run one ``rollbound`` command in-process; its stdout, or OpFailed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise OpFailed(f"rollbound {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _settings(**keys) -> list[str]:
    argv = []
    for key, value in keys.items():
        argv += ["--set", f"{key}={value}"]
    return argv


def read_numeric_csv(path: str, n_rows: int, inf_where_zero: dict[str, str] | None = None):
    """Columns of a numeric CSV the CLI wrote, keyed by header name.

    The file must hold ``n_rows`` data rows of finite values. The one
    exception is ``inf_where_zero``: a ratio column may read +inf exactly
    where its denominator column is 0, which is how the CLI writes x/0.
    """
    name = os.path.basename(path)
    with open(path, encoding="utf-8") as fh:
        header = [h.strip() for h in fh.readline().split(",")]
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise OpFailed(f"{name}: {exc}") from None
    if data.shape != (n_rows, len(header)):
        raise OpFailed(f"{name}: {data.shape[0]} rows of {data.shape[1]} fields, "
                       f"expected {n_rows} of {len(header)}")
    cols = {h: data[:, j] for j, h in enumerate(header)}
    exempt = inf_where_zero or {}
    for h, col in cols.items():
        bad = ~np.isfinite(col)
        if h in exempt:
            bad &= ~((col == np.inf) & (cols[exempt[h]] == 0.0))
        if bad.any():
            raise OpFailed(f"{name}: non-finite {h} at row {int(np.argmax(bad))}")
    return cols


class Workload:
    """One kind of op. ``prepare`` makes the op's inputs from its seed and is
    not timed, ``execute`` is the timed op and returns the values it computed
    outside the output files, and ``check`` raises ``OpFailed`` when an
    output is wrong."""

    name: str
    work_unit: str  # what frames_per_s counts

    def sizes(self) -> dict:
        raise NotImplementedError

    def work_per_op(self) -> int:
        raise NotImplementedError

    def prepare(self, seed: int, workdir: str):
        return None

    def execute(self, seed: int, workdir: str, inputs) -> tuple:
        raise NotImplementedError

    def check(self, seed: int, workdir: str, inputs, values: tuple) -> None:
        raise NotImplementedError


def _check_simulate(out: str, frames: int) -> dict:
    for trace in ("ar_trace.csv", "anchored_trace.csv"):
        read_numeric_csv(os.path.join(out, trace), frames)
    return read_numeric_csv(os.path.join(out, "mean_curves.csv"), frames,
                            inf_where_zero={"ratio": "anchored_mean_err"})


class McTrials(Workload):
    """Monte-Carlo comparison: one ``simulate`` with many trials of a short
    rotation world."""

    name = "mc_trials"
    work_unit = "trial-frame"

    def __init__(self, frames: int = 321, dim: int = 4, trials: int = 32):
        self.frames, self.dim, self.trials = frames, dim, trials

    def sizes(self) -> dict:
        return {"frames": self.frames, "dim": self.dim, "trials": self.trials}

    def work_per_op(self) -> int:
        return self.frames * self.trials

    def execute(self, seed: int, workdir: str, inputs) -> tuple:
        run_cli(["--seed", str(seed), "--out", os.path.join(workdir, "out")]
                + _settings(total_frames=self.frames, dim=self.dim, dynamics="rotation",
                            trials=self.trials, noise_std=0.05, bias=0.01, sigma_int=0.05,
                            velocity_error=0.2, kf_error_cap=0.1, kf_scenario="global")
                + ["simulate"])
        return ()

    def check(self, seed: int, workdir: str, inputs, values: tuple) -> None:
        curves = _check_simulate(os.path.join(workdir, "out"), self.frames)
        ar, anchored = curves["ar_mean_err"][-1], curves["anchored_mean_err"][-1]
        if not anchored < ar:
            raise OpFailed(f"final anchored mean error {anchored!r} is not below "
                           f"the step-by-step one {ar!r}")


class LongHorizon(Workload):
    """``bounds`` then ``simulate`` on one deterministic long-horizon config."""

    name = "long_horizon"
    work_unit = "plan-frame"

    def __init__(self, frames: int = 10_000, dim: int = 2):
        self.frames, self.dim = frames, dim

    def sizes(self) -> dict:
        return {"frames": self.frames, "dim": self.dim, "trials": 1}

    def work_per_op(self) -> int:
        return self.frames

    def execute(self, seed: int, workdir: str, inputs) -> tuple:
        argv = (["--seed", str(seed), "--out", os.path.join(workdir, "out")]
                + _settings(total_frames=self.frames, dim=self.dim,
                            dynamics="scaled_identity", lipschitz=1, bias=0.01,
                            velocity_error=0.5, kf_error_cap=0.1, kf_scenario="global",
                            trials=1))
        run_cli(argv + ["bounds"])
        run_cli(argv + ["simulate"])
        return ()

    def check(self, seed: int, workdir: str, inputs, values: tuple) -> None:
        out = os.path.join(workdir, "out")
        read_numeric_csv(os.path.join(out, "bounds.csv"), self.frames)
        _check_simulate(out, self.frames)
        with open(os.path.join(out, "report.txt"), encoding="utf-8") as fh:
            counts = re.findall(r"^bound violations \([^)]*\): (\d+)$", fh.read(), re.M)
        if len(counts) != 2 or any(int(c) for c in counts):
            raise OpFailed(f"report.txt bound violations {counts}, expected ['0', '0']")


# -- clip scoring inputs ----------------------------------------------------

def _quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of (w, x, y, z) quaternion rows."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw], axis=-1)


def _quat_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def _write_poses(path: str, t: np.ndarray, q: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# index tx ty tz qx qy qz qw\n")
        for i, (p, (w, x, y, z)) in enumerate(zip(t.tolist(), q.tolist())):
            fh.write(f"{i} {p[0]!r} {p[1]!r} {p[2]!r} {x!r} {y!r} {z!r} {w!r}\n")


class ClipScoring(Workload):
    """Score one generated clip: ``eval`` on an est/ref pose pair that differ
    by a known similarity transform plus noise, then PSNR and SSIM on image
    pairs."""

    name = "clip_scoring"
    work_unit = "pose"

    def __init__(self, poses: int = 4000, images: int = 8, side: int = 128):
        self.poses, self.images, self.side = poses, images, side

    def sizes(self) -> dict:
        return {"poses": self.poses, "image_pairs": self.images,
                "image_side": self.side}

    def work_per_op(self) -> int:
        return self.poses

    def prepare(self, seed: int, workdir: str) -> dict:
        g = np.random.default_rng(seed)
        ref_t = np.cumsum(g.normal(0.0, 0.1, (self.poses, 3)), axis=0)
        ref_q = np.cumsum(g.normal(0.0, 0.05, (self.poses, 4)), axis=0) + [1.0, 0, 0, 0]
        ref_q /= np.linalg.norm(ref_q, axis=1, keepdims=True)
        q0 = g.normal(size=4)
        q0 /= np.linalg.norm(q0)
        scale = float(g.uniform(0.5, 2.0))
        shift = g.normal(0.0, 5.0, 3)
        # ref = scale * R0 @ est + shift, so eval (est aligned onto ref) finds `scale`
        est_t = (ref_t - shift) @ _quat_matrix(q0) / scale
        est_t += g.normal(0.0, 1e-3, est_t.shape)
        est_q = _quat_mul(q0 * [1.0, -1, -1, -1], ref_q)
        est, ref = os.path.join(workdir, "est.txt"), os.path.join(workdir, "ref.txt")
        _write_poses(est, est_t, est_q)
        _write_poses(ref, ref_t, ref_q)
        yy, xx = np.mgrid[0:self.side, 0:self.side] / self.side
        pairs = []
        for _ in range(self.images):
            fx, fy, phase = g.uniform(1.0, 6.0), g.uniform(1.0, 6.0), g.uniform(0, np.pi)
            a = 128.0 + 80.0 * np.sin(2 * np.pi * (fx * xx + fy * yy) + phase)
            a = np.clip(a + g.normal(0.0, 8.0, a.shape), 0.0, 255.0)
            b = np.clip(a + g.normal(0.0, 12.0, a.shape), 0.0, 255.0)
            pairs.append((a, b))
        return {"est": est, "ref": ref, "scale": scale, "pairs": pairs}

    def execute(self, seed: int, workdir: str, inputs: dict) -> tuple:
        stdout = run_cli(["--out", os.path.join(workdir, "out"), "eval",
                          inputs["est"], inputs["ref"]])
        scores = [(metrics.psnr(a, b), metrics.ssim(a, b)) for a, b in inputs["pairs"]]
        found = re.search(r"^alignment: scale=(\S+)", stdout, re.M)
        return (float(found.group(1)) if found else None, *scores)

    def check(self, seed: int, workdir: str, inputs: dict, values: tuple) -> None:
        scale, *scores = values
        if scale is None or abs(scale - inputs["scale"]) > 1e-3 * inputs["scale"]:
            raise OpFailed(f"eval found scale {scale!r}, applied {inputs['scale']!r}")
        with open(os.path.join(workdir, "out", "metrics.csv"), encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.readlines()[1:]]
        if len(rows) != 3:
            raise OpFailed(f"metrics.csv: {len(rows)} rows, expected 3")
        for name, value, n_items in rows:
            if not np.isfinite(float(value)) or int(n_items) != self.poses:
                raise OpFailed(f"metrics.csv: {name} = {value.strip()} over "
                               f"{n_items.strip()} poses, expected {self.poses}")
        for p, s in scores:
            if not (np.isfinite(p) and -1.0 <= s <= 1.0):
                raise OpFailed(f"psnr {p!r} or ssim {s!r} out of range")
        # One identity pair per op: checking every pair would spend a fifth of
        # the run outside the timed ops.
        a = inputs["pairs"][0][0]
        if metrics.ssim(a, a) != 1.0:
            raise OpFailed("ssim(a, a) != 1")


WORKLOADS = {w.name: w for w in (McTrials(), LongHorizon(), ClipScoring())}
