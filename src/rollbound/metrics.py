"""Geometric and signal-quality evaluation: quaternion slerp, aligned
trajectory errors, PSNR/SSIM, and a second-difference smoothness score.

Alignment is a least-squares similarity fit (Umeyama) on the translation
points; monocular reconstructions are scale-ambiguous, so the scale is
estimated by default and can be pinned to 1 for rigid alignment. The ATE is
that fit's rmse (align_similarity(...).rmse).

The ARE takes its aligning rotation from the caller (see `are`), which gives
two conventions: the translation fit's rotation, or a rotation fitted to the
orientations themselves (fit_rotation). The smoothness score is a plain mean
squared second difference (lower = smoother), a non-neural stand-in for
learned motion-smoothness scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Trajectory,
    canonicalize_quaternion,
    matrix_to_quat,
    normalize_quaternion,
    quat_angle,
    quat_multiply,
    quat_to_matrix,
)
from .errors import InvalidInput

SLERP_PARALLEL_GUARD = 1e-8


# ---------------------------------------------------------------------------
# quaternion interpolation
# ---------------------------------------------------------------------------

def slerp(q0: np.ndarray, q1: np.ndarray, u: float) -> np.ndarray:
    """Spherical linear interpolation between unit quaternions along the
    shortest arc (constant angular speed). Falls back to normalized linear
    interpolation when the quaternions are nearly parallel."""
    q0 = normalize_quaternion(q0)
    q1 = normalize_quaternion(q1)
    dot = float(np.add.reduce(q0 * q1, axis=-1))
    if dot < 0.0:
        q1, dot = -q1, -dot
    if dot > 1.0 - SLERP_PARALLEL_GUARD:
        return normalize_quaternion((1.0 - u) * q0 + u * q1)
    theta = np.arccos(min(dot, 1.0))
    s = np.sin(theta)
    return normalize_quaternion((np.sin((1.0 - u) * theta) / s) * q0 +
                                (np.sin(u * theta) / s) * q1)


# ---------------------------------------------------------------------------
# similarity alignment and trajectory errors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlignmentResult:
    """Least-squares similarity est -> ref: q ~ scale * R @ p + t."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray
    rmse: float
    degenerate: bool = False


def _check_paired(est: Trajectory, ref: Trajectory) -> None:
    """est and ref must pair pose for pose: same length, same frame indices."""
    if len(est) != len(ref):
        raise InvalidInput(f"trajectory length mismatch: {len(est)} vs {len(ref)}")
    differ = np.flatnonzero(est.frame_indices != ref.frame_indices)
    if differ.size:
        i = int(differ[0])
        raise InvalidInput(f"frame index mismatch at position {i}: estimated frame "
                           f"{est.frame_indices[i]} vs reference frame "
                           f"{ref.frame_indices[i]}")


def _proper_rotation(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rotation R maximizing trace(R^T M) (Kabsch), with M's singular
    values D and the reflection fix S: R = U S V^T, where S = diag(1, 1, -1)
    when U V^T would be a reflection and the identity otherwise."""
    U, D, Vt = np.linalg.svd(M)
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0.0:
        S[2, 2] = -1.0
    return U @ S @ Vt, D, S


def align_similarity(est: Trajectory, ref: Trajectory, with_scale: bool = True) -> AlignmentResult:
    """Umeyama fit of (s, R, t) minimizing sum ||s*R*p + t - q||^2 over the
    translation points. Degenerate point sets (rank-deficient spread, e.g.
    collinear) are flagged, not rejected."""
    _check_paired(est, ref)
    if len(est) < 3:
        raise InvalidInput("alignment needs at least 3 poses")
    P = est.translations
    Q = ref.translations
    mp, mq = P.mean(axis=0), Q.mean(axis=0)
    Pc, Qc = P - mp, Q - mq
    R, D, S = _proper_rotation(Qc.T @ Pc / len(est))
    degenerate = int(np.sum(D > max(D[0], 1e-300) * 1e-9)) < 2
    if with_scale:
        var_p = float((Pc ** 2).sum()) / len(est)
        if var_p <= 0.0:
            raise InvalidInput("estimated trajectory has zero spread; scale undefined")
        s = float(np.trace(np.diag(D) @ S)) / var_p
    else:
        s = 1.0
    t = mq - s * (R @ mp)
    resid = s * P @ R.T + t - Q
    rmse = float(np.sqrt((resid ** 2).sum(axis=1).mean()))
    return AlignmentResult(s, R, t, rmse, degenerate)


def fit_rotation(est: Trajectory, ref: Trajectory) -> np.ndarray:
    """Best global rotation G minimizing sum ||G @ R_est - R_ref||_F^2,
    fitted from the orientations themselves. The per-pose products are
    summed in pose order."""
    _check_paired(est, ref)
    products = quat_to_matrix(ref.quaternions) @ np.swapaxes(
        quat_to_matrix(est.quaternions), -1, -2)
    return _proper_rotation(np.add.reduce(products, axis=0))[0]


def are(est: Trajectory, ref: Trajectory, rotation: np.ndarray | None) -> float:
    """Absolute rotation error: mean geodesic angle in degrees between the
    estimated orientations turned by `rotation` and the reference ones.

    align_similarity(...).rotation reuses the translation fit ("umeyama");
    fit_rotation(...) is fitted to the orientations, absorbing any constant
    orientation offset ("rotfit"); None compares raw orientations. The
    per-pose angles are summed in pose order.
    """
    _check_paired(est, ref)
    q = est.quaternions
    if rotation is not None:
        q = canonicalize_quaternion(quat_multiply(matrix_to_quat(rotation), q))
    angles = np.degrees(quat_angle(q, ref.quaternions))
    return float(np.cumsum(angles)[-1] / len(est))


# ---------------------------------------------------------------------------
# image quality
# ---------------------------------------------------------------------------

def psnr(img_a: np.ndarray, img_b: np.ndarray, max_value: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB; identical images give +inf."""
    a = np.asarray(img_a, dtype=float)
    b = np.asarray(img_b, dtype=float)
    if a.shape != b.shape:
        raise InvalidInput(f"image shape mismatch: {a.shape} vs {b.shape}")
    if max_value <= 0.0:
        raise InvalidInput("max_value must be positive")
    mse = float(((a - b) ** 2).mean())
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(max_value ** 2 / mse)


def _gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian taps; the 2-D window is their outer product."""
    r = np.arange(size) - (size - 1) / 2.0
    k = np.exp(-0.5 * (r / sigma) ** 2)
    return k / k.sum()


def _window_means(maps: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Gaussian-weighted means over every full window of stacked (..., H, W)
    maps: the separable kernel applied down the columns, then, after a
    transpose, down the former rows. Windows taken down a column form
    matrices matmul hands to BLAS; windows along a row overlap in memory and
    would take its slow generic loop."""
    for _ in range(2):
        windows = np.lib.stride_tricks.sliding_window_view(maps, kern.size, axis=-2)
        maps = np.swapaxes(windows @ kern, -1, -2)
    return maps


def ssim(img_a: np.ndarray, img_b: np.ndarray, max_value: float = 255.0,
         window: int = 11, sigma: float = 1.5, k1: float = 0.01, k2: float = 0.03) -> float:
    """Mean local structural similarity over a Gaussian window (default
    11x11, sigma 1.5, C1 = (0.01*max)^2, C2 = (0.03*max)^2). Result lies in
    [-1, 1]; 1.0 means identical."""
    a = np.asarray(img_a, dtype=float)
    b = np.asarray(img_b, dtype=float)
    if a.shape != b.shape:
        raise InvalidInput(f"image shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise InvalidInput("expected 2-D grayscale images")
    if min(a.shape) < window:
        raise InvalidInput(f"images smaller than the {window}x{window} window")
    mu_a, mu_b, e_aa, e_bb, e_ab = _window_means(np.stack([a, b, a * a, b * b, a * b]),
                                                  _gaussian_kernel(window, sigma))
    aa = e_aa - mu_a ** 2
    bb = e_bb - mu_b ** 2
    ab = e_ab - mu_a * mu_b
    c1 = (k1 * max_value) ** 2
    c2 = (k2 * max_value) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * ab + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (aa + bb + c2)
    return float((num / den).mean())


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

def smoothness(x) -> float:
    """Mean squared second difference of an (n, d) array of samples, one
    row per sample (lower = smoother); needs at least 3 samples."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise InvalidInput(f"smoothness needs an (n, d) array, got shape {x.shape}")
    if x.shape[0] < 3:
        raise InvalidInput("smoothness needs at least 3 samples")
    dd = x[2:] - 2.0 * x[1:-1] + x[:-2]
    return float((dd ** 2).sum(axis=1).mean())
