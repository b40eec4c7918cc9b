"""Shared domain types: camera trajectories and rollout plans.

Conventions used throughout the package:
  * quaternions are stored as (w, x, y, z) and kept unit-norm,
  * quaternion sign is canonicalized (w >= 0; if w == 0 the first nonzero
    component is >= 0) so pose equality and interpolation are deterministic,
  * frame indexing is 0-based and frame 0 is the given initial frame,
  * the value types are frozen dataclasses, immutable after construction,
  * a trajectory is three arrays (frame indices, quaternions, translations),
  * a rollout plan is its keyframes, window length and overlap; its
    generation windows are derived from them, not stored, as the
    (starts, ends) arrays of schedule.partition_segments.

Trajectory files are UTF-8 text, one pose per line:

    index tx ty tz qx qy qz qw

with '#' starting a comment (TUM-compatible with integer timestamps; note
the file order is x,y,z,w while the in-memory order is w,x,y,z).
"""

from __future__ import annotations

import math
import numbers
import operator
import warnings
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InvalidInput


def _frozen(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# quaternion helpers: each takes (..., 4) arrays, a single quaternion being
# the one-row case
# ---------------------------------------------------------------------------

def canonicalize_quaternion(q: np.ndarray) -> np.ndarray:
    """Resolve the double cover: flip sign so w >= 0 (ties broken by the
    first nonzero of x, y, z). Idempotent."""
    q = np.asarray(q, dtype=float)
    first = np.argmax((q > 0.0) | (q < 0.0), axis=-1)
    lead = np.take_along_axis(q, np.expand_dims(first, -1), axis=-1)
    return np.where(lead < 0.0, -q, q)


def normalize_quaternion(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q, axis=-1)
    if not np.all((n != 0.0) & np.isfinite(n)):
        raise InvalidInput("quaternion has zero or non-finite norm")
    return canonicalize_quaternion(q / np.expand_dims(n, -1))


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = np.moveaxis(np.asarray(a, dtype=float), -1, 0)
    bw, bx, by, bz = np.moveaxis(np.asarray(b, dtype=float), -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """(..., 3, 3) rotation matrices of unit quaternions."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
        np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1),
        np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1),
    ], axis=-2)


def matrix_to_quat(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (w,x,y,z) of a rotation matrix, canonicalized."""
    R = np.asarray(R, dtype=float)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s,
                      (R[2, 1] - R[1, 2]) / s,
                      (R[0, 2] - R[2, 0]) / s,
                      (R[1, 0] - R[0, 1]) / s])
    else:
        i = int(np.argmax([R[0, 0], R[1, 1], R[2, 2]]))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(R[i, i] - R[j, j] - R[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    return normalize_quaternion(q)


def quat_angle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Geodesic angle in radians between unit quaternions.

    Uses the atan2 form (angle = 4*atan2(||a-b||/2, ||a+b||/2) after sign
    alignment), which stays accurate near zero where acos degrades."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    b = np.where(np.expand_dims(np.add.reduce(a * b, axis=-1) < 0.0, -1), -b, b)
    return 4.0 * np.arctan2(np.linalg.norm(a - b, axis=-1), np.linalg.norm(a + b, axis=-1))


def rotation_about_z(angle_rad: float) -> np.ndarray:
    """Unit quaternion for a rotation about the z axis."""
    h = 0.5 * angle_rad
    return normalize_quaternion(np.array([np.cos(h), 0.0, 0.0, np.sin(h)]))


# ---------------------------------------------------------------------------
# Trajectory
# ---------------------------------------------------------------------------

# the checks each pose row passes, in order: a row's error is the first that
# fails
_ROW_CHECKS = ("pose components must be finite", "quaternion has zero or non-finite norm",
               "frame_index must be non-negative")


def _first_bad_row(idx: np.ndarray, q: np.ndarray, t: np.ndarray) -> tuple[int, str] | None:
    """The first pose row failing a check of _ROW_CHECKS, with that check's
    message; None when every row passes."""
    with np.errstate(over="ignore"):  # an overflowing norm fails its check
        norms = np.linalg.norm(q, axis=-1)
    failed = (~(np.isfinite(q).all(axis=1) & np.isfinite(t).all(axis=1)),
              (norms == 0.0) | ~np.isfinite(norms), idx < 0)
    bad = np.logical_or.reduce(failed)
    if not bad.any():
        return None
    r = int(np.argmax(bad))
    return r, next(text for text, rows in zip(_ROW_CHECKS, failed) if rows[r])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered camera poses with strictly increasing frame indices, stored as
    three frozen arrays: frame indices (n,), unit canonical quaternions
    (w, x, y, z) (n, 4) and translations (n, 3). The quaternions given are
    normalized and canonicalized; a row failing a check raises naming its
    position."""

    frame_indices: np.ndarray
    quaternions: np.ndarray
    translations: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.frame_indices, dtype=np.int64)
        q = np.asarray(self.quaternions, dtype=float)
        t = np.asarray(self.translations, dtype=float)
        if idx.size == 0:
            raise InvalidInput("trajectory must contain at least one pose")
        n = idx.size
        if idx.shape != (n,) or q.shape != (n, 4) or t.shape != (n, 3):
            raise InvalidInput(f"trajectory needs frame indices (n,), quaternions (n, 4) and "
                               f"translations (n, 3), got {idx.shape}, {q.shape}, {t.shape}")
        bad = _first_bad_row(idx, q, t)
        if bad is not None:
            raise InvalidInput(f"pose {bad[0]}: {bad[1]}")
        if np.any(idx[1:] <= idx[:-1]):
            raise InvalidInput("trajectory frame indices must be strictly increasing")
        object.__setattr__(self, "frame_indices", _frozen(idx, np.int64))
        object.__setattr__(self, "quaternions", _frozen(normalize_quaternion(q)))
        object.__setattr__(self, "translations", _frozen(t))

    def __len__(self) -> int:
        return len(self.frame_indices)


def save_trajectory(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# index tx ty tz qx qy qz qw\n")
        rows = zip(traj.frame_indices.tolist(), traj.translations.tolist(),
                   traj.quaternions.tolist())
        for i, (tx, ty, tz), (w, x, y, z) in rows:
            fh.write(f"{i} {tx!r} {ty!r} {tz!r} {x!r} {y!r} {z!r} {w!r}\n")


def read_text(path) -> str:
    """All of an input file's text, read as UTF-8; a file that cannot be
    opened, or whose bytes are not UTF-8, raises InvalidInput naming the
    path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInput(f"{path}: cannot open: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


#: a pose line as np.loadtxt reads it: the frame index, then tx ty tz qx qy qz qw
_POSE_LINE = np.dtype([("i", np.int64), ("v", np.float64, (7,))])


def _quaternions_translations(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 4) quaternions (w, x, y, z) and (n, 3) translations of the
    (n, 7) numbers of pose lines (tx ty tz qx qy qz qw)."""
    return vals[:, [6, 3, 4, 5]], vals[:, :3]


def _scan_trajectory(text: str, path) -> Trajectory:
    """The reference parse of a trajectory file's text: each line is read
    with int() and float(), and InvalidInput names the 1-based number of the
    first bad line, be it a line that does not parse or a row failing a
    check of _ROW_CHECKS."""
    linenos, indices, numbers = [], [], []
    parse_error = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 8:
            parse_error = f"line {lineno}: expected 8 fields, got {len(fields)}"
            break
        try:
            index, row = int(fields[0]), [float(f) for f in fields[1:]]
        except ValueError as exc:
            parse_error = f"line {lineno}: {exc}"
            break
        if not -2 ** 63 <= index < 2 ** 63:
            parse_error = f"line {lineno}: frame index beyond the 64-bit integer range"
            break
        linenos.append(lineno)
        indices.append(index)
        numbers.append(row)
    idx = np.array(indices, dtype=np.int64)
    q, t = _quaternions_translations(np.array(numbers, dtype=float).reshape(-1, 7))
    # the rows before a parse error come first in the file: check them first
    bad = _first_bad_row(idx, q, t)
    if bad is not None:
        raise InvalidInput(f"{path}: line {linenos[bad[0]]}: {bad[1]}")
    if parse_error is not None:
        raise InvalidInput(f"{path}: {parse_error}")
    if not linenos:
        raise InvalidInput(f"{path}: no poses found")
    try:
        return Trajectory(idx, q, t)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from None


def load_trajectory(path) -> Trajectory:
    """Parse a trajectory file. Numbers are read as int() and float() read
    them; a malformed file raises InvalidInput naming the 1-based number of
    its first bad line.

    Valid input takes one np.loadtxt pass and is checked once, by
    Trajectory. Where numpy's reader and int()/float() differ, numpy rejects
    (digit separators such as 1_0, non-ASCII digits, indices beyond int64):
    any line numpy rejects, and any row failing a check, sends the file to
    _scan_trajectory, which parses as int()/float() do and names the line."""
    text = read_text(path)
    try:
        with warnings.catch_warnings():
            # numpy warns on a file of only comments and blank lines; the
            # scan reports it
            warnings.simplefilter("ignore", UserWarning)
            # numpy 1.23 to 1.26 read an index such as 5.7 as a float,
            # truncate it and only warn; as an error, numpy raises
            # ValueError and the scan rejects the line as int() does
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(text.split("\n"), dtype=_POSE_LINE, comments="#", ndmin=1)
        return Trajectory(rows["i"], *_quaternions_translations(rows["v"]))
    except ValueError:  # numpy could not read a line, or Trajectory rejected a row
        return _scan_trajectory(text, path)


# ---------------------------------------------------------------------------
# Rollout plans
# ---------------------------------------------------------------------------

def _as_int(value, name: str) -> int:
    """value as a Python int, if it is an integer (a Python or numpy one,
    by operator.index); anything else, a float too, raises InvalidInput
    naming the field."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None


def _as_float(value, name: str) -> float:
    """value as a Python float, if it is a real number (a Python or numpy
    int or float, by numbers.Real); anything else, a string or None too,
    raises InvalidInput naming the field."""
    if isinstance(value, numbers.Real):
        return float(value)
    raise InvalidInput(f"{name} must be a real number, got {value!r}")


def _as_count(value, name: str, least: int = 1) -> int:
    """value as _as_int reads it, if it is >= least; else InvalidInput."""
    value = _as_int(value, name)
    if value < least:
        raise InvalidInput(f"{name} must be >= {least}, got {value}")
    return value


def _as_rate(value, name: str) -> float:
    """value as _as_float reads it, if finite and >= 0; else InvalidInput."""
    value = _as_float(value, name)
    if not 0.0 <= value < math.inf:
        raise InvalidInput(f"{name} must be finite and non-negative")
    return value


@dataclass(frozen=True)
class RolloutPlan:
    """Full schedule for one run: the global keyframes, and generation
    windows of segment_len frames, each after the first sharing its first
    `overlap` frames with its predecessor. A plan checks itself when it is
    made (by dataclasses.replace too): one breaking a rule of validate_plan
    raises InvalidInput listing every rule it breaks."""

    total_frames: int
    keyframes: tuple[int, ...]
    segment_len: int
    overlap: int

    def __post_init__(self):
        for name in ("total_frames", "segment_len", "overlap"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        object.__setattr__(self, "keyframes",
                           tuple(_as_int(k, "each keyframe") for k in self.keyframes))
        violations = validate_plan(self)
        if violations:
            raise InvalidInput(f"plan fails validation: {violations}")


def validate_plan(plan: RolloutPlan) -> list[str]:
    """The rules a plan breaks, as human-readable strings (none when it
    keeps them all): total_frames >= 1; keyframes nonempty, sorted and
    duplicate-free, from frame 0 to the final frame (so all inside the
    plan); 0 <= overlap < segment_len. RolloutPlan runs it on every plan."""
    out: list[str] = []
    n = plan.total_frames
    if n < 1:
        out.append(f"total_frames must be >= 1, got {n}")
        return out
    kf = plan.keyframes
    if not kf:
        out.append("keyframe list is empty")
    else:
        if list(kf) != sorted(set(kf)):
            out.append("keyframes are not sorted and duplicate-free")
        if kf[0] != 0:
            out.append("first keyframe must be frame 0")
        if kf[-1] != n - 1:
            out.append(f"last keyframe must be the final frame {n - 1}, got {kf[-1]}")
    if not 0 <= plan.overlap < plan.segment_len:
        out.append(f"segment length must exceed overlap and overlap must be >= 0, got "
                   f"segment_len {plan.segment_len} and overlap {plan.overlap}")
    return out


# ---------------------------------------------------------------------------
# per-frame CSV files
# ---------------------------------------------------------------------------

#: rows formatted per write: a per-frame CSV holds O(CSV_ROW_BLOCK) strings in
#: memory whatever its length
CSV_ROW_BLOCK = 1024


def _format_block(values: np.ndarray):
    """Each cell's text, a 0-d array's one cell too (see write_columns_csv)."""
    values = values.reshape(-1)
    if values.dtype.kind in "iub":
        values = values.astype(np.int64)
    return map(repr if values.dtype.kind == "f" else str, values.tolist())


def _share_columns(columns) -> list:
    """Each column's source of text: a str when every cell reads the same (a
    scalar, or an array whose cells are all equal, a float's compared by its
    bits so that -0.0 and 0.0 differ and NaN equals NaN), else the index of
    the first array column of its kind (float, str, or int) with the same
    cells, itself if none."""
    sources, seen = [], []
    for i, c in enumerate(columns):
        if not isinstance(c, np.ndarray):
            sources.append(next(_format_block(np.asarray(c))))
            continue
        kind = c.dtype.kind if c.dtype.kind in "fU" else "i"
        key = np.ascontiguousarray(c, dtype=np.float64).view(np.int64) if kind == "f" else c
        if len(key) and np.all(key == key[0]):
            sources.append(next(_format_block(c[:1])))
            continue
        sources.append(next((j for j, k, other in seen
                             if k == kind and np.array_equal(other, key)), i))
        seen.append((i, kind, key))
    return sources


def write_columns_csv(path, header, columns, *tables) -> None:
    """Write equal-length columns as ", "-separated rows under the header
    names. A float array's values are written with repr (the shortest
    round-tripping form), an int or bool array's as integers, a str array's
    as they are; a scalar is the same cell on every row, formatted once by
    the same rule.

    Each further table is a (path, header, columns) triple of its own file,
    with the same number of rows; all the files are written together, block
    by block. Rows are formatted and written CSV_ROW_BLOCK at a time; within
    a block each distinct array column of all the tables is formatted once,
    and a column whose cells all read the same is formatted once per call.
    Array columns of different lengths, or a header whose names do not match
    its table's columns one for one, raise ValueError before any file is
    opened."""
    tables = ((path, header, columns), *tables)
    for p, h, cols in tables:
        if len(h) != len(cols):
            raise ValueError(f"{p}: {len(h)} header names for {len(cols)} columns")
    columns = [c for _, _, cols in tables for c in cols]
    lengths = {len(c) for c in columns if isinstance(c, np.ndarray)}
    if len(lengths) != 1:
        raise ValueError(f"array columns must have one length, got {sorted(lengths)}")
    n = lengths.pop()
    sources = _share_columns(columns)
    with ExitStack() as stack:
        files = [stack.enter_context(open(p, "w", encoding="utf-8")) for p, _, _ in tables]
        for fh, (_, h, _) in zip(files, tables):
            fh.write(", ".join(h) + "\n")
        for lo in range(0, n, CSV_ROW_BLOCK):
            rows = min(CSV_ROW_BLOCK, n - lo)
            cells = []
            for i, (c, src) in enumerate(zip(columns, sources)):
                if isinstance(src, str):
                    # bounded, so zip stops when every column is constant
                    cells.append(repeat(src, rows))
                else:
                    cells.append(list(_format_block(c[lo:lo + rows])) if src == i
                                 else cells[src])
            first = 0
            for fh, (_, _, cols) in zip(files, tables):
                own, first = cells[first:first + len(cols)], first + len(cols)
                fh.write("\n".join(map(", ".join, zip(*own))) + "\n")
