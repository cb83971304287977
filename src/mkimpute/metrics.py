"""Error and image-quality metrics.

Entry-wise metrics accept complex matrices (differences enter through their
magnitudes); the structural metrics operate on real magnitude images.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, InputError

SSIM_WINDOW = 8  # ssim's sliding window is SSIM_WINDOW x SSIM_WINDOW pixels
SSIM_K1, SSIM_K2 = 0.01, 0.03  # ssim's stabilizers, relative to the dynamic range
LOG_SIZE, LOG_SIGMA = 15, 1.5  # hfen's Laplacian-of-Gaussian stencil: side and width


def _check_shapes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise InputError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def mae(X, Y) -> float:
    X, Y = _check_shapes(X, Y)
    return float(np.abs(X - Y).sum() / X.size)


def rmse(X, Y) -> float:
    X, Y = _check_shapes(X, Y)
    return float(np.linalg.norm(X - Y) / np.sqrt(X.size))


def mape(X, Y) -> float:
    """Mean absolute percentage error; every reference entry must be nonzero."""
    X, Y = _check_shapes(X, Y)
    if np.any(Y == 0):
        raise InputError("mape is undefined when the reference has zero entries")
    return float(np.mean(np.abs((X - Y) / Y)))


def nrmse(X, X_ref) -> float:
    """||X - X_ref||_F / ||X_ref||_F with X_ref the ground truth."""
    X, X_ref = _check_shapes(X, X_ref)
    denom = float(np.linalg.norm(X_ref))
    if denom == 0:
        raise InputError("nrmse needs a nonzero reference")
    return float(np.linalg.norm(X - X_ref)) / denom


def _box_means(A, w):
    s = np.cumsum(np.cumsum(A, axis=0), axis=1)
    s = np.pad(s, ((1, 0), (1, 0)))
    return (s[w:, w:] - s[:-w, w:] - s[w:, :-w] + s[:-w, :-w]) / (w * w)


def ssim(img, ref) -> float:
    """Mean structural similarity over all sliding SSIM_WINDOW x SSIM_WINDOW
    patches, population moments, dynamic range = reference max - min."""
    img, ref = _check_shapes(np.asarray(img, dtype=float), np.asarray(ref, dtype=float))
    if img.ndim != 2 or min(img.shape) < SSIM_WINDOW:
        raise InputError(f"ssim needs a 2D image at least {SSIM_WINDOW} pixels on each side")
    span = float(ref.max() - ref.min())
    if span == 0.0:
        span = 1.0  # constant reference: contrast terms cancel, ssim(X, X) = 1
    c1, c2 = (SSIM_K1 * span) ** 2, (SSIM_K2 * span) ** 2
    mu_x = _box_means(img, SSIM_WINDOW)
    mu_y = _box_means(ref, SSIM_WINDOW)
    xx = _box_means(img * img, SSIM_WINDOW) - mu_x**2
    yy = _box_means(ref * ref, SSIM_WINDOW) - mu_y**2
    xy = _box_means(img * ref, SSIM_WINDOW) - mu_x * mu_y
    num = (2 * mu_x * mu_y + c1) * (2 * xy + c2)
    den = (mu_x**2 + mu_y**2 + c1) * (xx + yy + c2)
    return float(np.mean(num / den))


def log_kernel() -> np.ndarray:
    """Mean-subtracted Laplacian-of-Gaussian stencil (annihilates constants)."""
    half = (LOG_SIZE - 1) / 2.0
    y, x = np.meshgrid(np.arange(LOG_SIZE) - half, np.arange(LOG_SIZE) - half, indexing="ij")
    r2 = x**2 + y**2
    k = (r2 - 2.0 * LOG_SIGMA**2) / LOG_SIGMA**4 * np.exp(-r2 / (2.0 * LOG_SIGMA**2))
    return k - k.mean()


def _convolve_valid(img, k):
    """2D convolution of img with k over the full-overlap windows alone
    (scipy.signal.convolve2d's mode "valid"), one stencil row at a time:
    each row's windows are a strided view, so no array of every window is
    formed."""
    h = img.shape[0] - k.shape[0] + 1
    k = k[::-1, ::-1]
    out = sliding_window_view(img[:h], k.shape[1], axis=1) @ k[0]
    for a in range(1, k.shape[0]):
        out += sliding_window_view(img[a : a + h], k.shape[1], axis=1) @ k[a]
    return out


def hfen(img, ref) -> float:
    """High-frequency error norm: relative Frobenius distance between
    Laplacian-of-Gaussian responses (full-overlap windows only)."""
    img, ref = _check_shapes(np.asarray(img, dtype=float), np.asarray(ref, dtype=float))
    if img.ndim != 2 or min(img.shape) < LOG_SIZE:
        raise InputError(f"hfen needs a 2D image at least {LOG_SIZE} pixels on each side")
    k = log_kernel()
    d_img = _convolve_valid(img, k)
    d_ref = _convolve_valid(ref, k)
    num = float(np.linalg.norm(d_img - d_ref))
    floor = 1e-10 * float(np.linalg.norm(k)) * max(1.0, float(np.linalg.norm(ref)))
    if num <= floor:
        return 0.0
    den = float(np.linalg.norm(d_ref))
    if den <= floor:
        raise DataError("reference image has no high-frequency content")
    return num / den


@dataclass
class MetricReport:
    mae: float | None = None
    rmse: float | None = None
    mape: float | None = None
    nrmse: float | None = None
    ssim: float | None = None
    hfen: float | None = None


METRICS = tuple(f.name for f in fields(MetricReport))  # every metric's name, in column order


def compute_metrics(X, ref, observed_mask=None, missing_only: bool = False,
                    image_dims: tuple[int, int] | None = None) -> MetricReport:
    """Entry-wise metrics over all entries (default) or the unobserved ones;
    structural metrics are computed per frame on magnitude images when
    ``image_dims`` is given (frames averaged).  mape is omitted, not
    NaN-propagated, when the reference contains zeros, and hfen when a frame
    is smaller than its LOG_SIZE stencil."""
    X, ref = _check_shapes(X, ref)
    if missing_only:
        if observed_mask is None:
            raise InputError("missing-only evaluation needs the observed mask")
        sel = ~observed_mask
        if not np.any(sel):
            raise DataError("no missing entries to evaluate on")
        x_e, r_e = X[sel], ref[sel]
    else:
        x_e, r_e = X.ravel(), ref.ravel()
    rep = MetricReport()
    rep.mae = mae(x_e, r_e)
    rep.rmse = rmse(x_e, r_e)
    if not np.any(r_e == 0):
        rep.mape = mape(x_e, r_e)
    if np.linalg.norm(r_e) > 0:
        rep.nrmse = nrmse(x_e, r_e)
    if image_dims is not None:
        i1, i2 = image_dims
        frames = X.reshape(i1, i2, -1, order="F")
        truth = ref.reshape(i1, i2, -1, order="F")
        pairs = [(np.abs(frames[:, :, t]), np.abs(truth[:, :, t]))
                 for t in range(frames.shape[2])]
        rep.ssim = float(np.mean([ssim(*pair) for pair in pairs]))
        if min(i1, i2) >= LOG_SIZE:
            rep.hfen = float(np.mean([hfen(*pair) for pair in pairs]))
    return rep
