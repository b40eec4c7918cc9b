import numpy as np
import pytest

from rollbound.core import (
    InvalidInput,
    Trajectory,
    quat_angle,
    quat_to_matrix,
    rotation_about_z,
)
from rollbound.metrics import (
    align_similarity,
    are,
    ate,
    fit_rotation,
    psnr,
    read_pgm,
    slerp,
    smoothness,
    ssim,
    write_metric_report,
    write_pgm,
)


def _angle_axis_power(R: np.ndarray, u: float) -> np.ndarray:
    """Fractional rotation-matrix power via axis-angle (log/exp), independent
    of the quaternion path."""
    cos_t = (np.trace(R) - 1.0) / 2.0
    theta = np.arccos(np.clip(cos_t, -1.0, 1.0))
    if theta < 1e-12:
        return np.eye(3)
    axis = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    axis = axis / (2.0 * np.sin(theta))
    a = u * theta
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(a) * K + (1 - np.cos(a)) * (K @ K)


def _traj(positions, rotations=None, start=0):
    n = len(positions)
    if rotations is None:
        rotations = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
    return Trajectory(start + np.arange(n), rotations, positions)


def _random_traj(rng, n=50):
    positions = rng.normal(size=(n, 3))
    rotations = []
    for _ in range(n):
        q = rng.normal(size=4)
        rotations.append(q / np.linalg.norm(q))
    return _traj(positions, rotations)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------

def test_slerp_midpoint_of_quarter_turn():
    q0 = rotation_about_z(0.0)
    q1 = rotation_about_z(np.pi / 2)
    mid = slerp(q0, q1, 0.5)
    assert np.allclose(mid, rotation_about_z(np.pi / 4), atol=1e-9)


def test_slerp_endpoints_exact():
    q0 = rotation_about_z(0.3)
    q1 = rotation_about_z(1.4)
    assert np.allclose(slerp(q0, q1, 0.0), q0, atol=1e-12)
    assert np.allclose(slerp(q0, q1, 1.0), q1, atol=1e-12)


def test_slerp_constant_angular_speed():
    g = np.random.default_rng(0)
    q0 = g.normal(size=4)
    q0 /= np.linalg.norm(q0)
    q1 = g.normal(size=4)
    q1 /= np.linalg.norm(q1)
    from rollbound.core import quat_angle
    full = quat_angle(q0, q1) if np.dot(q0, q1) >= 0 else quat_angle(q0, -q1)
    for u in (0.25, 0.5, 0.75):
        qu = slerp(q0, q1, u)
        assert quat_angle(q0, qu) == pytest.approx(u * full, abs=1e-9)


def test_slerp_fraction_matches_matrix_power_oracle():
    # a quarter of the way through a 90-degree turn
    q1 = rotation_about_z(np.pi / 2)
    q = slerp(rotation_about_z(0.0), q1, 0.25)
    oracle = _angle_axis_power(quat_to_matrix(q1), 0.25)
    assert np.allclose(quat_to_matrix(q), oracle, atol=1e-9)
    assert np.allclose(quat_to_matrix(q), quat_to_matrix(rotation_about_z(np.pi / 8)), atol=1e-9)


# ---------------------------------------------------------------------------
# alignment, ATE, ARE
# ---------------------------------------------------------------------------

def test_align_identity():
    traj = _random_traj(np.random.default_rng(1))
    res = align_similarity(traj, traj)
    assert res.scale == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(res.rotation, np.eye(3), atol=1e-9)
    assert np.allclose(res.translation, 0.0, atol=1e-12)
    assert res.rmse < 1e-12
    assert np.allclose(res.rotation.T @ res.rotation, np.eye(3), atol=1e-9)
    assert np.linalg.det(res.rotation) == pytest.approx(1.0, abs=1e-9)


def test_align_recovers_constructed_similarity():
    g = np.random.default_rng(2)
    ref = _random_traj(g)
    Rz = quat_to_matrix(rotation_about_z(np.pi / 6))
    # est = inverse-transformed ref, so aligning est onto ref recovers (2, 30deg, t)
    est_positions = ref.translations() @ np.linalg.inv(2.0 * Rz).T - \
        np.linalg.inv(2.0 * Rz) @ np.array([1.0, 2.0, 3.0])
    est = _traj(est_positions, ref.quaternions())
    res = align_similarity(est, ref)
    assert res.scale == pytest.approx(2.0, rel=1e-9)
    assert np.allclose(res.rotation, Rz, atol=1e-9)
    assert np.allclose(res.translation, [1.0, 2.0, 3.0], atol=1e-8)
    assert res.rmse < 1e-9


def test_align_noise_residual_distribution():
    g = np.random.default_rng(3)
    base = g.normal(size=(50, 3))
    for seed in range(100):
        gg = np.random.default_rng(1000 + seed)
        ref = _traj(base)
        est = _traj(base + gg.normal(0.0, 0.01, size=base.shape))
        rmse = align_similarity(est, ref).rmse
        assert 0.005 <= rmse <= 0.02


def test_align_se3_mode_pins_scale():
    g = np.random.default_rng(4)
    ref = _random_traj(g)
    est = _traj(ref.translations() * 2.0, ref.quaternions())
    res = align_similarity(est, ref, with_scale=False)
    assert res.scale == 1.0
    assert align_similarity(est, ref, with_scale=True).rmse < 1e-9


def test_align_validates_input():
    g = np.random.default_rng(5)
    with pytest.raises(InvalidInput):
        align_similarity(_random_traj(g, 5), _random_traj(g, 6))
    with pytest.raises(InvalidInput):
        align_similarity(_random_traj(g, 2), _random_traj(g, 2))


@pytest.mark.parametrize("fn", [align_similarity, fit_rotation, are])
def test_paired_metrics_reject_differing_frame_indices(fn):
    ref = _random_traj(np.random.default_rng(16), n=10)
    shifted = _traj(ref.translations(), ref.quaternions(), start=500)
    with pytest.raises(InvalidInput, match="position 0: estimated frame 500 vs reference frame 0"):
        fn(shifted, ref)
    # a frame skipped in the middle
    skipped = np.arange(10) + (np.arange(10) >= 6)
    gap = Trajectory(skipped, ref.quaternions(), ref.translations())
    with pytest.raises(InvalidInput, match="position 6: estimated frame 7 vs reference frame 6"):
        fn(gap, ref)


def test_batched_rotation_metrics_match_per_pose_loops():
    g = np.random.default_rng(17)
    ref = _random_traj(g, n=200)
    est = _random_traj(g, n=200)
    M = np.zeros((3, 3))
    for qe, qr in zip(est.quaternions(), ref.quaternions()):
        M += quat_to_matrix(qr) @ quat_to_matrix(qe).T
    U, _, Vt = np.linalg.svd(M)
    S = np.diag([1.0, 1.0, np.sign(np.linalg.det(U) * np.linalg.det(Vt))])
    assert np.array_equal(fit_rotation(est, ref), U @ S @ Vt)
    total = 0.0
    for qe, qr in zip(est.quaternions(), ref.quaternions()):
        total += np.degrees(quat_angle(qe, qr))
    assert are(est, ref, rotation_alignment="none") == float(total / len(est))


def test_ate_absorbs_constant_offset():
    g = np.random.default_rng(6)
    ref = _random_traj(g)
    est = _traj(ref.translations() + np.array([5.0, -2.0, 1.0]), ref.quaternions())
    assert ate(est, ref) < 1e-9


def test_ate_invariant_under_similarity_of_estimate():
    g = np.random.default_rng(7)
    ref = _random_traj(g)
    est = _traj(ref.translations() + g.normal(0, 0.05, size=(50, 3)), ref.quaternions())
    base = ate(est, ref)
    R = quat_to_matrix(rotation_about_z(0.8))
    warped = _traj(est.translations() @ R.T * 3.0 + np.array([4.0, 4.0, -1.0]),
                   est.quaternions())
    assert abs(ate(warped, ref) - base) < 1e-9


def test_are_identity_zero():
    traj = _random_traj(np.random.default_rng(8))
    assert are(traj, traj) == pytest.approx(0.0, abs=1e-9)
    assert ate(traj, traj) == pytest.approx(0.0, abs=1e-12)


def test_are_rotation_fit_absorbs_constant_offset():
    # constant 10-degree orientation offset, identical translations: the
    # translation fit cannot see it, the rotation fit absorbs it exactly
    g = np.random.default_rng(9)
    ref = _random_traj(g)
    from rollbound.core import quat_multiply
    off = rotation_about_z(np.radians(10.0))
    est = _traj(ref.translations(), quat_multiply(off, ref.quaternions()))
    assert are(est, ref, rotation_alignment="rotfit") < 1e-6
    assert are(est, ref, rotation_alignment="umeyama") == pytest.approx(10.0, abs=1e-6)


def test_are_invariant_under_joint_global_rotation():
    g = np.random.default_rng(10)
    ref = _random_traj(g)
    from rollbound.core import quat_multiply
    est = _traj(ref.translations() + g.normal(0, 0.02, size=(50, 3)),
                quat_multiply(rotation_about_z(0.05), ref.quaternions()))
    base = are(est, ref)
    gq = rotation_about_z(1.2)
    G = quat_to_matrix(gq)
    warped = _traj(est.translations() @ G.T, quat_multiply(gq, est.quaternions()))
    assert are(warped, ref) == pytest.approx(base, abs=1e-9)


# ---------------------------------------------------------------------------
# image quality
# ---------------------------------------------------------------------------

def test_psnr_identical_is_infinite():
    img = np.arange(64.0).reshape(8, 8)
    assert psnr(img, img) == float("inf")


def test_psnr_uniform_difference():
    a = np.full((16, 16), 100.0)
    b = a + 16.0
    # hand-computed: MSE = 256, 10*log10(255^2/256) ~= 24.05 dB
    assert psnr(a, b, max_value=255.0) == pytest.approx(24.0489, abs=1e-3)


def test_psnr_full_scale_difference_is_zero():
    a = np.zeros((8, 8))
    b = np.full((8, 8), 255.0)
    assert psnr(a, b, max_value=255.0) == pytest.approx(0.0, abs=1e-12)


def test_psnr_symmetric_and_validates():
    g = np.random.default_rng(11)
    a = g.uniform(0, 255, (12, 12))
    b = g.uniform(0, 255, (12, 12))
    assert psnr(a, b) == pytest.approx(psnr(b, a), rel=1e-12)
    with pytest.raises(InvalidInput):
        psnr(a, b[:6])


def test_ssim_identical_is_one():
    g = np.random.default_rng(12)
    img = g.uniform(0, 255, (32, 32))
    assert ssim(img, img) == 1.0


def _ssim_121_taps(a, b, max_value=255.0, window=11, sigma=1.5, k1=0.01, k2=0.03):
    """Reference SSIM: the normalized 2-D Gaussian window applied as
    window*window taps at every pixel."""
    r = np.arange(window) - (window - 1) / 2.0
    k = np.exp(-0.5 * (r / sigma) ** 2)
    kern = np.outer(k, k)
    kern /= kern.sum()
    win_a = np.lib.stride_tricks.sliding_window_view(a, (window, window))
    win_b = np.lib.stride_tricks.sliding_window_view(b, (window, window))
    mu_a = np.einsum("ijkl,kl->ij", win_a, kern)
    mu_b = np.einsum("ijkl,kl->ij", win_b, kern)
    aa = np.einsum("ijkl,kl->ij", win_a * win_a, kern) - mu_a ** 2
    bb = np.einsum("ijkl,kl->ij", win_b * win_b, kern) - mu_b ** 2
    ab = np.einsum("ijkl,kl->ij", win_a * win_b, kern) - mu_a * mu_b
    c1 = (k1 * max_value) ** 2
    c2 = (k2 * max_value) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * ab + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (aa + bb + c2)
    return float((num / den).mean())


@pytest.mark.parametrize("seed", range(12))
def test_ssim_matches_full_window_oracle(seed):
    g = np.random.default_rng(100 + seed)
    window = int(g.choice([3, 4, 7, 11, 15]))
    sigma = float(g.uniform(0.5, 4.0))
    shape = tuple(int(v) for v in g.integers(window, 70, size=2))
    a = g.uniform(0, 255, shape)
    if seed % 3 == 0:
        b = 255.0 - a
    else:
        b = np.clip(a + g.normal(0.0, g.uniform(1.0, 60.0), shape), 0.0, 255.0)
    assert abs(ssim(a, b, window=window, sigma=sigma)
               - _ssim_121_taps(a, b, window=window, sigma=sigma)) <= 1e-12


def test_ssim_negative_image_scores_below_one():
    x = np.linspace(0, 255, 32)
    img = np.tile(x, (32, 1))
    assert ssim(img, 255.0 - img) < 1.0


def test_ssim_constant_images_closed_form():
    v1, v2 = 40.0, 90.0
    a = np.full((24, 24), v1)
    b = np.full((24, 24), v2)
    c1 = (0.01 * 255.0) ** 2
    expected = (2 * v1 * v2 + c1) / (v1 ** 2 + v2 ** 2 + c1)
    assert ssim(a, b) == pytest.approx(expected, rel=1e-9)


def test_ssim_symmetric_and_validates():
    g = np.random.default_rng(13)
    a = g.uniform(0, 255, (20, 20))
    b = g.uniform(0, 255, (20, 20))
    assert ssim(a, b) == pytest.approx(ssim(b, a), rel=1e-12)
    with pytest.raises(InvalidInput):
        ssim(a[:8, :8], b[:8, :8])  # smaller than the window


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

def test_smoothness_constant_velocity_is_zero():
    x = np.outer(np.arange(10.0), np.array([1.0, -2.0]))
    assert smoothness(x) == 0.0


def test_smoothness_quadratic_sequence():
    t = np.arange(12.0)
    assert smoothness(t ** 2) == pytest.approx(4.0, abs=1e-12)


def test_smoothness_single_velocity_jump():
    # linear with one velocity jump of dv at the junction
    n, dv = 20, 0.75
    x = np.concatenate([np.arange(10.0), 9.0 + (1.0 + dv) * np.arange(1.0, 11.0)])
    assert smoothness(x) == pytest.approx(dv ** 2 / (n - 2), rel=1e-9)


def test_smoothness_translation_invariant_and_quadratic_scaling():
    g = np.random.default_rng(14)
    x = g.normal(size=(30, 3))
    s = smoothness(x)
    assert smoothness(x + 7.5) == pytest.approx(s, rel=1e-9)
    assert smoothness(3.0 * x) == pytest.approx(9.0 * s, rel=1e-9)


def test_smoothness_needs_three_samples():
    with pytest.raises(InvalidInput):
        smoothness(np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# image and report I/O
# ---------------------------------------------------------------------------

def test_pgm_ascii_round_trip(tmp_path):
    g = np.random.default_rng(15)
    img = np.round(g.uniform(0, 255, (9, 7)))
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_binary_read(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4)
    path = tmp_path / "img5.pgm"
    with open(path, "wb") as fh:
        fh.write(b"P5\n# comment\n4 3\n255\n")
        fh.write(img.tobytes())
    assert np.array_equal(read_pgm(path), img.astype(float))


@pytest.mark.parametrize("header, pixels, got", [
    (b"P5\n4 3\n255\n", bytes(7), 7),
    (b"P5\n4 3\n65535\n", bytes(15), 7),  # two bytes a pixel: 7 whole pixels
], ids=["8-bit", "16-bit"])
def test_pgm_truncated_binary_names_pixel_count(tmp_path, header, pixels, got):
    path = tmp_path / "short.pgm"
    path.write_bytes(header + pixels)
    with pytest.raises(InvalidInput, match=f"expected 12 pixels, got {got}"):
        read_pgm(path)


def test_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_text("P7\n1 1\n255\n0\n")
    with pytest.raises(InvalidInput):
        read_pgm(path)


def test_metric_report_csv(tmp_path):
    path = tmp_path / "metrics.csv"
    write_metric_report([("ate", 0.125, 50), ("are_umeyama", 3.5, 50)], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "name, value, n_items"
    assert lines[1] == "ate, 0.125, 50"
