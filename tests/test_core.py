import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rollbound import core
from rollbound.core import (
    InvalidInput,
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
    assert traj.quaternions.tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0, 0.6, -0.8, 0.0]]
    # the rows read as normalize_quaternion gives them, bit for bit
    g = np.random.default_rng(4)
    q = g.normal(size=(20, 4))
    q[::3, 0] = 0.0
    built = Trajectory(np.arange(20), q, g.normal(size=(20, 3)))
    assert np.array_equal(built.quaternions, normalize_quaternion(q))


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
    assert np.array_equal(back.frame_indices, traj.frame_indices)
    assert np.allclose(back.translations, traj.translations)
    assert np.allclose(back.quaternions, traj.quaternions, atol=1e-12)


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
    (["0 0 0 0 0 0 0 1", "1 0 0 0 0 0 0 1 9"], "line 2: expected 8 fields, got 9"),
    # numbers read as int() and float() read them: a digit separator and
    # non-ASCII digits parse, and the error is the later line's
    (["1_0 0 0 0 0 0 0 1", "٥ 0 0 0 0 0 0 1"], "strictly increasing"),
    (["1_0 0 0 0 0 0 0 1", "1٥ 0 0 ٠.٥ 0 0 0 0"],
     "line 2: quaternion has zero or non-finite norm"),
    ([f"{2 ** 63} 0 0 0 0 0 0 1"], "frame index beyond the 64-bit integer range"),
    # an index beyond int64 is an error of its line, after earlier lines' rows
    (["0 0 0 0 0 0 0 1", "1 nan 0 0 0 0 0 1", f"{2 ** 63} 0 0 0 0 0 0 1"],
     "line 2: pose components must be finite"),
    (["0 0 0 0 0 0 0 1", f"{2 ** 63} 0 0 0 0 0 0 1"],
     "line 2: frame index beyond the 64-bit integer range"),
])
def test_trajectory_load_reports_first_bad_line(tmp_path, lines, message):
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(InvalidInput, match=re.escape(message)):
        load_trajectory(path)


#: separators str.split() and numpy's reader both split on
_SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", "\x0c", "\x1c", "\xa0"])
#: Arabic-Indic digits: int() and float() read them, numpy's reader does not
_ODD_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
#: what may be wrong with a pose line, or spelled so that only int()/float()
#: read it; a line has at most one
_FLAWS = ("index sign", "index 1_0", "index digits", "index odd", "index repeats",
          "index falls", "number odd", "zero quaternion", "7 fields", "9 fields")


def _number_token(rng) -> str:
    """A finite number in a spelling both readers take: small, integral, or
    any finite double, as repr, exponent, signed, 1. or .5."""
    kind = rng.randrange(10)
    if kind < 3:
        x = float(rng.randint(-3, 3))
    elif kind < 9:
        x = rng.uniform(-1e3, 1e3)
    else:  # any bits: huge, tiny or subnormal; a NaN or inf draw reads 0.0
        x = float(np.frombuffer(rng.randbytes(8))[0])
    text = repr(x) if np.isfinite(x) else "0.0"
    form = rng.choice(["repr", "repr", "exp", "plus", "short"])
    if form == "exp":
        return f"{float(text):.17E}"
    if form == "plus" and not text.startswith("-"):
        return "+" + text
    if form == "short":  # 1. for 1.0, .5 for 0.5
        return text[:-1] if text.endswith(".0") else re.sub(r"^(-?)0\.", r"\1.", text)
    return text


@st.composite
def _pose_files(draw):
    """Pose-file text: valid rows and comment and blank lines, with flaws of
    _FLAWS mixed in."""
    lines, index = [], draw(st.integers(0, 3))
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " \t", "# c", "  # 1 2 3"])))
            continue
        flaw = draw(st.sampled_from((None,) * 12 + _FLAWS))
        index += {"index repeats": 0, "index falls": -1}.get(flaw, draw(st.integers(1, 12)))
        count = {"7 fields": 7, "9 fields": 9}.get(flaw, 8)
        fields = [str(index)] + [_number_token(rng) for _ in range(count - 1)]
        if flaw == "index sign":
            fields[0] = ("-" if index == 0 else "+") + fields[0]
        elif flaw == "index 1_0":  # 1_0 for 10, 0_5 for 5
            fields[0] = f"{fields[0][:-1] or 0}_{fields[0][-1]}"
        elif flaw == "index digits":
            fields[0] = fields[0].translate(_ODD_DIGITS)
        elif flaw == "index odd":  # beyond int64 either way, or not an integer
            fields[0] = draw(st.sampled_from([str(2 ** 63), str(2 ** 63 - 1),
                                              str(-2 ** 63 - 1), "5.0", "1e5", "x"]))
        elif flaw == "number odd":
            fields[draw(st.integers(1, 7))] = draw(st.sampled_from(
                ["1_0", "٥", "١.٥", "nan", "-inf", "Infinity", "1e400", "nope"]))
        elif flaw == "zero quaternion":
            fields[4:] = ["0", "-0", "0.", "0e0"]
        line = draw(st.sampled_from(["", "", "\t"])) + draw(_SEPARATORS).join(fields)
        lines.append(line + draw(st.sampled_from(["", "", " ", " # trailing"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(load):
    """A load's three arrays as (dtype, shape, bytes), or its error message."""
    try:
        traj = load()
    except InvalidInput as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in (traj.frame_indices, traj.quaternions, traj.translations)]


@settings(max_examples=200, deadline=None)
@given(text=_pose_files())
def test_trajectory_load_matches_line_scan(tmp_path_factory, text):
    # the line scan is the reference: the one-pass read returns its arrays
    # bit for bit, or fails with its message
    path = tmp_path_factory.mktemp("scan") / "poses.txt"
    path.write_bytes(text.encode("utf-8"))
    expected = _outcome(lambda: core._scan_trajectory(core.read_text(path), path))
    assert _outcome(lambda: load_trajectory(path)) == expected


def test_trajectory_load_rejects_an_index_numpy_reads_via_float(tmp_path, monkeypatch):
    # numpy 1.23 to 1.26 read an integer field that int() rejects as a float,
    # truncated, and only warned: emulate that reader, with the warning
    # ignored as it is outside the test suite
    loadtxt = np.loadtxt

    def via_float(lines, dtype, **kwargs):
        try:
            return loadtxt(lines, dtype=dtype, **kwargs)
        except ValueError:
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert string to int64") from exc
            rows = loadtxt(lines, dtype=np.float64, ndmin=2, comments=kwargs["comments"])
            out = np.empty(len(rows), dtype=dtype)
            out["i"], out["v"] = rows[:, 0], rows[:, 1:]
            return out

    monkeypatch.setattr(np, "loadtxt", via_float)
    path = tmp_path / "poses.txt"
    path.write_text("0 0 0 0 0 0 0 1\n5.7 0 0 0 0 0 0 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        with pytest.raises(InvalidInput, match=r"line 2: invalid literal for int\(\)"):
            load_trajectory(path)


def test_trajectory_arrays_frozen_and_rebuildable(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# c\n3 1 2 3 0 0 0 -2  # flipped, unnormalized\n7 4 5 6 0 1 0 0\n")
    traj = load_trajectory(path)
    assert traj.frame_indices.tolist() == [3, 7]
    assert traj.quaternions.tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
    assert traj.translations.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    assert not traj.quaternions.flags.writeable
    assert not traj.translations.flags.writeable
    assert not traj.frame_indices.flags.writeable
    with pytest.raises(AttributeError):
        traj.extra = 1
    rebuilt = Trajectory(traj.frame_indices, traj.quaternions, traj.translations)
    for a, b in ((rebuilt.frame_indices, traj.frame_indices),
                 (rebuilt.quaternions, traj.quaternions),
                 (rebuilt.translations, traj.translations)):
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
        assert np.array_equal(ua[i], a[i] / np.linalg.norm(a[i], axis=-1) * np.sign(
            a[i][np.flatnonzero(a[i])[0]]))
        assert np.array_equal(quat_multiply(a, b)[i], quat_multiply(a[i], b[i]))
        assert np.array_equal(quat_to_matrix(ua)[i], quat_to_matrix(ua[i]))
        assert quat_angle(ua, ub)[i] == quat_angle(ua[i], ub[i])
    with pytest.raises(InvalidInput):
        normalize_quaternion(np.vstack([a, np.zeros(4)]))


def test_validate_plan_accepts_well_formed():
    plan = RolloutPlan(9, (0, 4, 8), segment_len=5, overlap=1)
    assert validate_plan(plan) == []


#: floats whose repr takes every form: signed zero, inf, nan, exponents
_CSV_FLOATS = np.array([0.0, -0.0, 0.1, 1e16, 9999999999999998.0, 1e-05, -2.5e-300,
                        np.inf, -np.inf, np.nan, 1.0 / 3.0])


def _cell(column, t) -> str:
    """Row t of a column as one f-string per row formats it."""
    v = column[t] if isinstance(column, np.ndarray) else column
    return f"{float(v)!r}" if isinstance(v, (float, np.floating)) else f"{int(v)}"


def _csv_text(header, columns) -> str:
    rows = next(len(c) for c in columns if isinstance(c, np.ndarray))
    return ", ".join(header) + "\n" + "".join(
        ", ".join(_cell(c, t) for c in columns) + "\n" for t in range(rows))


def _csv_cases() -> list:
    """Column sets of _CSV_FLOATS's length with columns whose cells all read
    the same or that repeat an earlier column, then two of constant columns
    only, of 1 and CSV_ROW_BLOCK + 1 rows."""
    floats = _CSV_FLOATS
    n = len(floats)
    ints = np.arange(n) * 7 - 20
    flags = np.arange(n) % 3 == 0

    def every_constant(rows):
        return np.full(rows, 2.5), np.full(rows, -3), 7, 0.25, np.ones(rows, dtype=bool)

    return [
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


def test_write_columns_csv_matches_per_row_format(tmp_path, monkeypatch):
    # rows written in blocks read exactly as one f-string per row did: floats
    # by repr (sign of zero, inf, nan and exponent forms included), ints and
    # bools as integers, scalars repeated
    monkeypatch.setattr(core, "CSV_ROW_BLOCK", 3)
    floats = _CSV_FLOATS
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

    # columns formatted once, as constant or as a repeat, still match cell
    # by cell
    for columns in _csv_cases():
        header = [f"c{i}" for i in range(len(columns))]
        write_columns_csv(path, header, columns)
        assert path.read_text() == _csv_text(header, columns)


def test_write_columns_csv_tables_match_one_table_calls(tmp_path, monkeypatch):
    # one call writing several tables in lockstep writes each file byte for
    # byte as a call of its own does, also where a column takes its text
    # from an equal column of an earlier table
    monkeypatch.setattr(core, "CSV_ROW_BLOCK", 3)
    n = len(_CSV_FLOATS)
    flags = np.arange(n) % 3 == 0
    ints = np.arange(n) * 3 - 4
    across = [  # each column but the last has an equal one in the table before
        (_CSV_FLOATS, np.where(flags, 1.5, -0.0), np.where(flags, np.nan, 2.0), ints),
        (_CSV_FLOATS.copy(), np.where(flags, 1.5, 0.0), np.where(flags, np.nan, 2.0),
         ints.view(np.float64), ints.astype(np.int32)),
    ]
    by_rows = {}
    for columns in _csv_cases() + across:
        rows = next(len(c) for c in columns if isinstance(c, np.ndarray))
        by_rows.setdefault(rows, []).append(columns)
    assert sorted(map(len, by_rows.values())) == [1, 1, 9]
    for group in by_rows.values():
        tables = [(tmp_path / f"t{k}.csv", [f"c{i}" for i in range(len(columns))], columns)
                  for k, columns in enumerate(group)]
        write_columns_csv(*tables[0], *tables[1:])
        lockstep = [path.read_bytes() for path, _, _ in tables]
        for (path, header, columns), text in zip(tables, lockstep):
            write_columns_csv(path, header, columns)
            assert text == path.read_bytes() == _csv_text(header, columns).encode()


def test_write_columns_csv_rejects_ragged_tables(tmp_path):
    # a short column, in the same table or in another, or a header of the
    # wrong length fails before any file is opened
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    with pytest.raises(ValueError, match=re.escape("one length, got [3, 5]")):
        write_columns_csv(a, ("x", "y"), (np.arange(5), np.arange(3.0)))
    with pytest.raises(ValueError, match=re.escape("one length, got [3, 5]")):
        write_columns_csv(a, ("x",), (np.arange(5),), (b, ("y", "k"), (np.arange(3.0), 1)))
    with pytest.raises(ValueError, match="3 header names for 2 columns"):
        write_columns_csv(a, ("x", "y", "z"), (np.arange(5), 1.0))
    with pytest.raises(ValueError, match="1 header names for 2 columns"):
        write_columns_csv(a, ("x",), (np.arange(5),), (b, ("y",), (np.arange(5), 2)))
    assert not a.exists() and not b.exists()


def test_write_columns_csv_formats_a_shared_column_once_per_block(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "CSV_ROW_BLOCK", 4)
    formatted = []
    format_block = core._format_block

    def counting(values):
        formatted.append(len(values))
        return format_block(values)

    monkeypatch.setattr(core, "_format_block", counting)
    n = 10
    x = np.linspace(0.0, 1.0, n) ** 2
    write_columns_csv(tmp_path / "a.csv", ("frame", "x"), (np.arange(n), x),
                      (tmp_path / "b.csv", ("frame", "x", "y"), (np.arange(n), x.copy(), x + 1)))
    # frame, x and y once each in each of the 3 blocks
    assert formatted == [4, 4, 4, 4, 4, 4, 2, 2, 2]
