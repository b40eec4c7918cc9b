import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rollbound import core
from rollbound.core import (
    ErrorModelParams,
    InvalidInput,
    LatentSeq,
    Pose,
    RolloutPlan,
    Segment,
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
    p = Pose(np.array([-2.0, 0.0, 0.0, 0.0]), np.zeros(3))
    assert np.allclose(p.rotation, [1, 0, 0, 0])
    assert abs(np.linalg.norm(p.rotation) - 1.0) < 1e-9


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
    p0 = Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3), 0)
    with pytest.raises(InvalidInput):
        Trajectory((p0, p0))
    with pytest.raises(InvalidInput):
        Trajectory(())


def test_trajectory_file_round_trip(tmp_path):
    poses = tuple(
        Pose(rotation_about_z(0.1 * i), np.array([i, 2.0 * i, -i]), 3 * i)
        for i in range(5)
    )
    traj = Trajectory(poses)
    path = tmp_path / "traj.txt"
    save_trajectory(traj, path)
    back = load_trajectory(path)
    assert np.array_equal(back.frame_indices(), traj.frame_indices())
    assert np.allclose(back.translations(), traj.translations())
    for a, b in zip(back.poses, traj.poses):
        assert np.allclose(a.rotation, b.rotation, atol=1e-12)


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
])
def test_trajectory_load_reports_first_bad_line(tmp_path, lines, message):
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInput, match=re.escape(message)):
        load_trajectory(path)


def test_trajectory_arrays_and_pose_view(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# c\n3 1 2 3 0 0 0 -2  # flipped, unnormalized\n7 4 5 6 0 1 0 0\n")
    traj = load_trajectory(path)
    assert traj.frame_indices().tolist() == [3, 7]
    assert traj.quaternions().tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
    assert traj.translations().tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert not traj.quaternions().flags.writeable
    with pytest.raises(AttributeError):
        traj.extra = 1
    poses = traj.poses
    assert len(poses) == 2 and poses[-1].frame_index == 7
    assert [p.frame_index for p in poses] == [3, 7]
    assert np.array_equal(poses[1].translation, [4.0, 5.0, 6.0])
    assert [p.frame_index for p in poses[::-1]] == [7, 3]
    with pytest.raises(IndexError):
        poses[2]
    rebuilt = Trajectory(poses)
    assert np.array_equal(rebuilt.quaternions(), traj.quaternions())


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


def _well_formed_plan():
    keyframes = (0, 4, 8)
    segments = (Segment(0, 4), Segment(4, 8))
    return RolloutPlan(9, keyframes, segments, overlap=1)


def test_validate_plan_accepts_well_formed():
    assert validate_plan(_well_formed_plan()) == []


def test_segment_rejects_reversed_span():
    with pytest.raises(InvalidInput, match="segment start must not exceed end"):
        Segment(8, 4)


def test_validate_plan_flags_coverage_gap():
    plan = RolloutPlan(9, (0, 4, 8),
                       (Segment(0, 3), Segment(5, 8)),
                       overlap=1)
    violations = validate_plan(plan)
    assert len(violations) == 1
    assert "coverage gap" in violations[0]


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
