import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rollbound import core
from rollbound.core import (
    ErrorModelParams,
    InvalidInput,
    LatentSeq,
    RolloutPlan,
    Trajectory,
    canonicalize_quaternion,
    load_trajectory,
    normalize_quaternion,
    quat_angle,
    quat_multiply,
    quat_to_matrix,
    rotation_about_z,
    save_trajectory,
    validate_plan,
    write_columns_csv,
)


def test_pose_normalizes_and_canonicalizes():
    traj = Trajectory([0, 1], [[-2.0, 0.0, 0.0, 0.0], [0.0, -3.0, 4.0, 0.0]], np.zeros((2, 3)))
    assert traj.quaternions().tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0, 0.6, -0.8, 0.0]]
    # the rows read as normalize_quaternion gives them, bit for bit
    g = np.random.default_rng(4)
    q = g.normal(size=(20, 4))
    q[::3, 0] = 0.0
    built = Trajectory(np.arange(20), q, g.normal(size=(20, 3)))
    assert np.array_equal(built.quaternions(), normalize_quaternion(q))


def test_compose_matches_rotation_matrix_oracle():
    # quaternion products compose rotations: two 90-degree z rotations make
    # one 180-degree z rotation, and a random pair matches the matrix product
    a = rotation_about_z(np.pi / 2)
    assert np.allclose(quat_to_matrix(quat_multiply(a, a)),
                       quat_to_matrix(rotation_about_z(np.pi)), atol=1e-9)
    g = np.random.default_rng(8)
    p, q = normalize_quaternion(g.normal(size=4)), normalize_quaternion(g.normal(size=4))
    assert np.allclose(quat_to_matrix(quat_multiply(p, q)),
                       quat_to_matrix(p) @ quat_to_matrix(q), atol=1e-12)


@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
def test_canonicalization_idempotent(vals):
    q = np.array(vals)
    if np.linalg.norm(q) < 1e-6:
        return
    once = canonicalize_quaternion(q)
    assert np.array_equal(canonicalize_quaternion(once), once)
    # leading sign convention
    for c in once:
        if c != 0.0:
            assert c > 0.0
            break


def test_trajectory_requires_increasing_indices():
    with pytest.raises(InvalidInput, match="strictly increasing"):
        Trajectory([0, 0], [[1.0, 0.0, 0.0, 0.0]] * 2, np.zeros((2, 3)))
    with pytest.raises(InvalidInput, match="at least one pose"):
        Trajectory([], np.empty((0, 4)), np.empty((0, 3)))


@pytest.mark.parametrize("row, message", [
    ((0, [1.0, 0.0, np.nan, 0.0], [0.0, 0.0, 0.0]), "pose 1: pose components must be finite"),
    ((0, [1.0, 0.0, 0.0, 0.0], [0.0, np.inf, 0.0]), "pose 1: pose components must be finite"),
    ((0, [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
     "pose 1: quaternion has zero or non-finite norm"),
    ((0, [1e200, 1e200, 0.0, 0.0], [0.0, 0.0, 0.0]),
     "pose 1: quaternion has zero or non-finite norm"),
    ((-1, [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0]), "pose 1: frame_index must be non-negative"),
    # a row failing several checks reports the first, in check order
    ((-1, [0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]), "pose 1: pose components must be finite"),
    ((-1, [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),
     "pose 1: quaternion has zero or non-finite norm"),
])
def test_trajectory_names_first_bad_row(row, message):
    idx, q, t = row
    good = (5, [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    rows = [good, (idx, q, t), good, (idx, q, t)]
    with pytest.raises(InvalidInput, match=re.escape(message)):
        Trajectory(*map(list, zip(*rows)))


def test_trajectory_rejects_mismatched_shapes():
    with pytest.raises(InvalidInput, match="quaternions \\(n, 4\\)"):
        Trajectory([0, 1], np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(InvalidInput, match="translations \\(n, 3\\)"):
        Trajectory([0, 1], [[1.0, 0.0, 0.0, 0.0]] * 2, np.zeros((3, 3)))


def test_trajectory_file_round_trip(tmp_path):
    traj = Trajectory(3 * np.arange(5), [rotation_about_z(0.1 * i) for i in range(5)],
                      [[i, 2.0 * i, -i] for i in range(5)])
    path = tmp_path / "traj.txt"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert np.array_equal(back.frame_indices(), traj.frame_indices())
    assert np.allclose(back.translations(), traj.translations())
    assert np.allclose(back.quaternions(), traj.quaternions(), atol=1e-12)


def test_trajectory_load_names_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 0 0 0 0 0 1\n1 0 0 nope 0 0 0 1\n")
    with pytest.raises(InvalidInput, match="line 2"):
        load_trajectory(path)


@pytest.mark.parametrize("lines, message", [
    # a bad row before an unparsable line is reported first, as line by line
    (["0 0 0 0 0 0 0 1", "1 nan 0 0 0 0 0 1", "2 0 0 x 0 0 0 1"],
     "line 2: pose components must be finite"),
    (["0 0 0 0 0 0 0 1", "1 0 0 x 0 0 0 1", "2 0 0 0 0 0 0 0"],
     "line 2: could not convert string to float: 'x'"),
    (["0 0 0 0 0 0 0 1", "1 0 0 0 0 0", "2 0 0 0 0 0 0 0"],
     "line 2: expected 8 fields, got 6"),
    (["0 0 0 0 0 0 0 0", "-1 0 0 0 0 0 0 1"], "line 1: quaternion has zero or non-finite norm"),
    (["-1 0 0 0 0 inf 0 1"], "line 1: pose components must be finite"),
    (["0 0 0 0 0 0 0 1", "x1 0 0 0 0 0 0 1"], "line 2: invalid literal for int()"),
    (["0 0 0 0 0 0 0 1", "# c", "-3 0 0 0 0 0 0 1"], "line 3: frame_index must be non-negative"),
    (["1 0 0 0 0 0 0 1", "1 0 0 0 0 0 0 1"], "strictly increasing"),
    (["# only a comment", ""], "no poses found"),
    (["0 0 0 0 0 0 0 1", "1 0 0 0 1e200 1e200 0 1"],
     "line 2: quaternion has zero or non-finite norm"),
])
def test_trajectory_load_reports_first_bad_line(tmp_path, lines, message):
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInput, match=re.escape(message)):
        load_trajectory(path)


def test_trajectory_arrays_frozen_and_rebuildable(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# c\n3 1 2 3 0 0 0 -2  # flipped, unnormalized\n7 4 5 6 0 1 0 0\n")
    traj = load_trajectory(path)
    assert traj.frame_indices().tolist() == [3, 7]
    assert traj.quaternions().tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
    assert traj.translations().tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert not traj.quaternions().flags.writeable
    assert not traj.translations().flags.writeable
    assert not traj.frame_indices().flags.writeable
    with pytest.raises(AttributeError):
        traj.extra = 1
    rebuilt = Trajectory(traj.frame_indices(), traj.quaternions(), traj.translations())
    for a, b in ((rebuilt.frame_indices(), traj.frame_indices()),
                 (rebuilt.quaternions(), traj.quaternions()),
                 (rebuilt.translations(), traj.translations())):
        assert np.array_equal(a, b)


def test_quaternion_helpers_batch_row_by_row():
    g = np.random.default_rng(3)
    a = g.normal(size=(40, 4))
    b = g.normal(size=(40, 4))
    a[::5, 0] = 0.0
    a[::7, :2] = 0.0
    ua, ub = normalize_quaternion(a), normalize_quaternion(b)
    for i in range(40):
        assert np.array_equal(ua[i], normalize_quaternion(a[i]))
        assert np.array_equal(ua[i], a[i] / np.linalg.norm(a[i]) * np.sign(
            a[i][np.flatnonzero(a[i])[0]]))
        assert np.array_equal(quat_multiply(a, b)[i], quat_multiply(a[i], b[i]))
        assert np.array_equal(quat_to_matrix(ua)[i], quat_to_matrix(ua[i]))
        assert quat_angle(ua, ub)[i] == quat_angle(ua[i], ub[i])
    with pytest.raises(InvalidInput):
        normalize_quaternion(np.vstack([a, np.zeros(4)]))


def test_latent_seq_validation():
    with pytest.raises(InvalidInput):
        LatentSeq(np.array([[1.0, np.nan]]))
    z = LatentSeq(np.array([1.0, 2.0, 3.0]))
    assert z.dim == 1 and len(z) == 3


def test_error_model_params_validation():
    with pytest.raises(InvalidInput, match="step_error"):
        ErrorModelParams(step_error=-0.1)
    with pytest.raises(InvalidInput, match="interp_noise"):
        ErrorModelParams(interp_noise=np.nan)
    with pytest.raises(InvalidInput):
        ErrorModelParams(keyframe_interval=0)
    p = ErrorModelParams(keyframe_interval=8, interp_noise=0.2)
    assert p.keyframe_interval == 8


def test_validate_plan_accepts_well_formed():
    plan = RolloutPlan(9, (0, 4, 8), segment_len=5, overlap=1)
    assert validate_plan(plan) == []
    assert [(s.start, s.end) for s in plan.segments] == [(0, 4), (4, 8)]


def test_write_columns_csv_matches_per_row_format(tmp_path, monkeypatch):
    # rows written in blocks read exactly as one f-string per row did: floats
    # by repr (sign of zero, inf, nan and exponent forms included), ints and
    # bools as integers, scalars repeated
    monkeypatch.setattr(core, "CSV_ROW_BLOCK", 3)
    floats = np.array([0.0, -0.0, 0.1, 1e16, 9999999999999998.0, 1e-05, -2.5e-300,
                       np.inf, -np.inf, np.nan, 1.0 / 3.0])
    n = len(floats)
    ints = np.arange(n) * 7 - 20
    flags = np.arange(n) % 3 == 0
    path = tmp_path / "cols.csv"
    write_columns_csv(path, ("i", "x", "c", "k", "flag", "tiny"),
                      (ints, floats, np.float64(0.1), 2, flags, 5e-324))
    expected = "i, x, c, k, flag, tiny\n" + "".join(
        f"{int(ints[t])}, {float(floats[t])!r}, {0.1!r}, 2, {int(flags[t])}, {5e-324!r}\n"
        for t in range(n))
    assert path.read_text() == expected

    # columns whose cells all read the same, or that repeat an earlier
    # column, are formatted once: the text still matches cell by cell
    def cell(column, t):
        v = column[t] if isinstance(column, np.ndarray) else column
        return f"{float(v)!r}" if isinstance(v, (float, np.floating)) else f"{int(v)}"

    def every_constant(rows):
        return np.full(rows, 2.5), np.full(rows, -3), 7, 0.25, np.ones(rows, dtype=bool)

    cases = [
        (floats, np.full(n, 0.1)),
        (np.full(n, -0.0), np.zeros(n), ints),
        (np.where(flags, 1.5, -0.0), np.where(flags, 1.5, 0.0)),
        (ints, np.full(n, np.nan)),
        (floats, ints, floats.copy()),
        (np.arange(n, dtype=float), np.arange(n), np.ones(n), np.ones(n, dtype=int)),
        (np.arange(n), np.arange(n).view(np.float64)),  # same int64s, as ints and as bits
        every_constant(1),
        every_constant(core.CSV_ROW_BLOCK + 1),
    ]
    for columns in cases:
        rows = next(len(c) for c in columns if isinstance(c, np.ndarray))
        header = [f"c{i}" for i in range(len(columns))]
        write_columns_csv(path, header, columns)
        assert path.read_text() == ", ".join(header) + "\n" + "".join(
            ", ".join(cell(c, t) for c in columns) + "\n" for t in range(rows))
