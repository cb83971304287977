"""Sampling masks and the zero-filling sampling operator.

Masks are boolean I0 x I_N arrays (True = observed).  The two graph-signal
patterns sample per-column nodes (p1) or whole snapshots (p2); the two k-space
patterns operate on frames of an I1 x I2 grid flattened column-major to
I0 = I1 * I2 rows, with I_N = I3 frames as columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InputError

P1_RANDOM = "p1-random"
P2_SNAPSHOTS = "p2-snapshots"
CARTESIAN_1D = "cartesian-1d"
RADIAL = "radial"

GOLDEN_ANGLE_DEG = 111.246


@dataclass
class SamplingPattern:
    mask: np.ndarray
    kind: str
    ratio_or_accel: float
    seed: int

    @property
    def observed_count(self) -> int:
        return int(self.mask.sum())


def _check_sizes(**sizes) -> None:
    for name, size in sizes.items():
        if size < 1:
            raise InputError(f"{name} must be at least 1, got {size}")


def sample_p1(n_rows: int, n_cols: int, r: float, seed: int) -> SamplingPattern:
    """Observe ceil(I0 * r) uniformly chosen rows in every column."""
    _check_sizes(n_rows=n_rows, n_cols=n_cols)
    if not 0.0 < r <= 1.0:
        raise InputError(f"sampling ratio must lie in (0, 1], got {r}")
    per_col = math.ceil(n_rows * r)
    rng = np.random.default_rng(seed)
    mask = np.zeros((n_rows, n_cols), dtype=bool)
    for t in range(n_cols):
        mask[rng.choice(n_rows, size=per_col, replace=False), t] = True
    return SamplingPattern(mask, P1_RANDOM, r, seed)


def sample_p2(n_rows: int, n_cols: int, r: float, seed: int) -> SamplingPattern:
    """Observe all rows of ceil(I_N * r) uniformly chosen columns."""
    _check_sizes(n_rows=n_rows, n_cols=n_cols)
    if not 0.0 < r <= 1.0:
        raise InputError(f"sampling ratio must lie in (0, 1], got {r}")
    n_snap = math.ceil(n_cols * r)
    rng = np.random.default_rng(seed)
    mask = np.zeros((n_rows, n_cols), dtype=bool)
    mask[:, rng.choice(n_cols, size=n_snap, replace=False)] = True
    return SamplingPattern(mask, P2_SNAPSHOTS, r, seed)


def band_rows(n_pe: int, upsilon: int) -> np.ndarray:
    """Indices of the central ``upsilon`` phase-encode rows of an n_pe-row grid."""
    if not 0 <= upsilon <= n_pe:
        raise InputError(f"band width {upsilon} outside [0, {n_pe}]")
    start = (n_pe - upsilon) // 2
    return np.arange(start, start + upsilon)


def _frame_row_mask(rows: np.ndarray, i1: int, i2: int) -> np.ndarray:
    """Flattened (column-major per frame) boolean vector covering whole rows."""
    frame = np.zeros((i1, i2), dtype=bool)
    frame[rows, :] = True
    return frame.ravel(order="F")


def cartesian_mask(
    i1: int, i2: int, i3: int, accel: float, band: int, seed: int
) -> SamplingPattern:
    """Per frame: the central ``band`` rows plus uniformly chosen extra full
    rows so that ceil(I1 / accel) rows are sampled in total."""
    _check_sizes(i1=i1, i2=i2, i3=i3)
    if not accel >= 1.0:
        raise InputError(f"acceleration must be >= 1, got {accel}")
    budget = math.ceil(i1 / accel)
    if budget < band:
        raise InputError(f"band of {band} rows exceeds the per-frame budget {budget}")
    center = band_rows(i1, band)
    rest = np.setdiff1d(np.arange(i1), center)
    rng = np.random.default_rng(seed)
    mask = np.zeros((i1 * i2, i3), dtype=bool)
    for t in range(i3):
        extra = rng.choice(rest, size=budget - band, replace=False)
        rows = np.concatenate([center, extra])
        mask[:, t] = _frame_row_mask(rows, i1, i2)
    return SamplingPattern(mask, CARTESIAN_1D, accel, seed)


def rasterize_line(i1: int, i2: int, angle: float) -> np.ndarray:
    """Nearest-neighbor rasterization of a straight line through the grid
    center, returned as an I1 x I2 boolean frame.  angle = 0 is the center row."""
    cy, cx = (i1 - 1) / 2.0, (i2 - 1) / 2.0
    half = math.hypot(i1, i2) / 2.0
    t = np.linspace(-half, half, 4 * max(i1, i2) + 1)
    rows = np.rint(cy + t * math.sin(angle)).astype(int)
    cols = np.rint(cx + t * math.cos(angle)).astype(int)
    keep = (rows >= 0) & (rows < i1) & (cols >= 0) & (cols < i2)
    frame = np.zeros((i1, i2), dtype=bool)
    frame[rows[keep], cols[keep]] = True
    return frame


def radial_lines_per_frame(i1: int, accel: float) -> int:
    """Number of spokes drawn per frame: ceil(I1 / accel)."""
    if not accel >= 1.0:
        raise InputError(f"acceleration must be >= 1, got {accel}")
    return math.ceil(i1 / accel)


def radial_mask(i1: int, i2: int, i3: int, accel: float, seed: int) -> SamplingPattern:
    """Per frame, ceil(I1 / accel) center-crossing lines at golden-angle
    increments, continuing across frames so coverage varies with time.

    The angle schedule is fully deterministic (first line at angle 0); the
    seed is recorded for provenance only.
    """
    _check_sizes(i1=i1, i2=i2, i3=i3)
    lines = radial_lines_per_frame(i1, accel)
    step = math.radians(GOLDEN_ANGLE_DEG)
    mask = np.zeros((i1 * i2, i3), dtype=bool)
    idx = 0
    for t in range(i3):
        frame = np.zeros((i1, i2), dtype=bool)
        for _ in range(lines):
            frame |= rasterize_line(i1, i2, idx * step)
            idx += 1
        mask[:, t] = frame.ravel(order="F")
    return SamplingPattern(mask, RADIAL, accel, seed)


def with_band(pattern: SamplingPattern, i1: int, i2: int, upsilon: int) -> SamplingPattern:
    """Union a k-space pattern with the fully sampled central navigator band
    (pilot rows are always acquired)."""
    extra = _frame_row_mask(band_rows(i1, upsilon), i1, i2)
    mask = pattern.mask | extra[:, None]
    return SamplingPattern(mask, pattern.kind, pattern.ratio_or_accel, pattern.seed)


def apply_sampling(pattern: SamplingPattern, Y: np.ndarray) -> np.ndarray:
    """Zero-fill outside the observed index set; flagged entries are never read."""
    Y = np.asarray(Y)
    if Y.shape != pattern.mask.shape:
        raise InputError(f"data shape {Y.shape} does not match mask {pattern.mask.shape}")
    return np.where(pattern.mask, Y, 0)


def save_mask_csv(pattern: SamplingPattern, path) -> None:
    np.savetxt(path, pattern.mask.astype(int), fmt="%d", delimiter=",")


def load_mask_csv(path, kind: str = "imported", ratio_or_accel: float = 0.0,
                  seed: int = 0) -> SamplingPattern:
    try:
        values = np.loadtxt(path, delimiter=",")
    except ValueError as exc:
        raise DataError(f"{path}: unreadable mask ({exc})") from None
    if not np.isin(values, (0, 1)).all():
        raise DataError(f"{path}: mask values must be 0 or 1")
    return SamplingPattern(np.atleast_2d(values.astype(bool)), kind, ratio_or_accel, seed)
