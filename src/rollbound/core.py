"""Shared domain types: camera trajectories, latent sequences, rollout plans.

Conventions used throughout the package:
  * quaternions are stored as (w, x, y, z) and kept unit-norm,
  * quaternion sign is canonicalized (w >= 0; if w == 0 the first nonzero
    component is >= 0) so pose equality and interpolation are deterministic,
  * frame indexing is 0-based and frame 0 is the given initial frame,
  * all types are immutable values after construction,
  * a trajectory is three arrays (frame indices, quaternions, translations),
  * a rollout plan is its keyframes, window length and overlap; its
    generation windows are derived from them, not stored.

Trajectory files are UTF-8 text, one pose per line:

    index tx ty tz qx qy qz qw

with '#' starting a comment (TUM-compatible with integer timestamps; note
the file order is x,y,z,w while the in-memory order is w,x,y,z).
"""

from __future__ import annotations

import warnings
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

def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the last axes as one batched matmul of contiguous
    rows; each row's bits match np.dot on that row (a plain sum, einsum or
    strided rows may not)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _row_norm(q: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, bit-identical to np.linalg.norm of that
    row."""
    q = np.asarray(q, dtype=float)
    return np.sqrt(_row_dot(q, q))


def canonicalize_quaternion(q: np.ndarray) -> np.ndarray:
    """Resolve the double cover: flip sign so w >= 0 (ties broken by the
    first nonzero of x, y, z). Idempotent."""
    q = np.asarray(q, dtype=float)
    first = np.argmax((q > 0.0) | (q < 0.0), axis=-1)
    lead = np.take_along_axis(q, np.expand_dims(first, -1), axis=-1)
    return np.where(lead < 0.0, -q, q)


def normalize_quaternion(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = _row_norm(q)
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
    b = np.where(np.expand_dims(_row_dot(a, b) < 0.0, -1), -b, b)
    return 4.0 * np.arctan2(_row_norm(a - b), _row_norm(a + b))


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
        norms = _row_norm(q)
    failed = (~(np.isfinite(q).all(axis=1) & np.isfinite(t).all(axis=1)),
              (norms == 0.0) | ~np.isfinite(norms), idx < 0)
    bad = np.logical_or.reduce(failed)
    if not bad.any():
        return None
    r = int(np.argmax(bad))
    return r, next(text for text, rows in zip(_ROW_CHECKS, failed) if rows[r])


class Trajectory:
    """Ordered camera poses with strictly increasing frame indices, stored as
    three frozen arrays: frame indices (n,), unit canonical quaternions
    (n, 4) and translations (n, 3). The quaternions given are normalized and
    canonicalized; a row failing a check raises naming its position."""

    __slots__ = ("_frame_indices", "_quaternions", "_translations")

    def __init__(self, frame_indices, quaternions, translations):
        idx = np.asarray(frame_indices, dtype=np.int64)
        q = np.asarray(quaternions, dtype=float)
        t = np.asarray(translations, dtype=float)
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
        object.__setattr__(self, "_frame_indices", _frozen(idx, np.int64))
        object.__setattr__(self, "_quaternions", _frozen(normalize_quaternion(q)))
        object.__setattr__(self, "_translations", _frozen(t))

    def __setattr__(self, name, value):
        raise AttributeError(f"Trajectory is immutable; cannot set {name!r}")

    def __len__(self) -> int:
        return len(self._frame_indices)

    def frame_indices(self) -> np.ndarray:
        return self._frame_indices

    def quaternions(self) -> np.ndarray:
        """(n, 4) unit canonical quaternions (w, x, y, z)."""
        return self._quaternions

    def translations(self) -> np.ndarray:
        return self._translations


def save_trajectory(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# index tx ty tz qx qy qz qw\n")
        rows = zip(traj.frame_indices().tolist(), traj.translations().tolist(),
                   traj.quaternions().tolist())
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
        linenos.append(lineno)
        indices.append(index)
        numbers.append(row)
    try:
        idx = np.array(indices, dtype=np.int64)
    except OverflowError:
        raise InvalidInput(f"{path}: frame index beyond the 64-bit integer range") from None
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
# Latent sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatentSeq:
    """Dense run of fixed-dimension latent vectors."""

    frames: np.ndarray

    def __post_init__(self):
        fr = np.asarray(self.frames, dtype=float)
        if fr.ndim == 1:
            fr = fr[:, None]
        if fr.ndim != 2 or fr.shape[1] < 1:
            raise InvalidInput("latent frames must form an (n, d) array with d >= 1")
        if not np.all(np.isfinite(fr)):
            raise InvalidInput("latent frames must be finite")
        object.__setattr__(self, "frames", _frozen(fr))

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


# ---------------------------------------------------------------------------
# Rollout plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """One generation window [start, end] (inclusive). What it conditions on
    follows from the plan (see schedule.segment_context)."""

    start: int
    end: int


@dataclass(frozen=True)
class RolloutPlan:
    """Full schedule for one run: the global keyframes, and generation
    windows of segment_len frames, each after the first sharing its first
    `overlap` frames with its predecessor."""

    total_frames: int
    keyframes: tuple[int, ...]
    segment_len: int
    overlap: int

    def __post_init__(self):
        object.__setattr__(self, "keyframes", tuple(int(k) for k in self.keyframes))

    @property
    def segments(self) -> list[Segment]:
        """The generation windows, derived on each access by
        schedule.partition_segments."""
        from .schedule import partition_segments  # schedule imports this module
        return partition_segments(self.total_frames, self.segment_len, self.overlap)


def validate_plan(plan: RolloutPlan) -> list[str]:
    """Check the plan invariants its fields can break; returns
    human-readable violation strings (empty list when the plan is
    well-formed). Violations are data, not errors."""
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
        if any(k < 0 or k >= n for k in kf):
            out.append("keyframe index outside [0, total_frames)")
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


def _format_scalar(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(int(value))


def _format_block(values: np.ndarray):
    if values.dtype.kind == "f":
        return map(repr, values.tolist())
    return map(str, values.astype(np.int64).tolist())


def _share_columns(columns) -> list:
    """Each column's source of text: a str when every cell reads the same (a
    scalar, or an array whose cells are all equal, a float's compared by its
    bits so that -0.0 and 0.0 differ and NaN equals NaN), else the index of
    the first array column of its kind (float or int) with the same cells,
    itself if none."""
    sources, seen = [], []
    for i, c in enumerate(columns):
        if not isinstance(c, np.ndarray):
            sources.append(_format_scalar(c))
            continue
        is_float = c.dtype.kind == "f"
        key = np.ascontiguousarray(c, dtype=np.float64).view(np.int64) if is_float else c
        if len(key) and np.all(key == key[0]):
            sources.append(next(_format_block(c[:1])))
            continue
        sources.append(next((j for j, f, other in seen
                             if f == is_float and np.array_equal(other, key)), i))
        seen.append((i, is_float, key))
    return sources


def write_columns_csv(path, header, columns) -> None:
    """Write equal-length columns as ", "-separated rows under the header
    names. A float array's values are written with repr (the shortest
    round-tripping form), an int or bool array's as integers; a scalar is
    the same cell on every row, formatted once by the same rule. Rows are
    formatted and written CSV_ROW_BLOCK at a time; within a block each
    distinct array column is formatted once, and a column whose cells all
    read the same is formatted once per file."""
    n = next(len(c) for c in columns if isinstance(c, np.ndarray))
    sources = _share_columns(columns)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(", ".join(header) + "\n")
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
            fh.write("\n".join(map(", ".join, zip(*cells))) + "\n")
