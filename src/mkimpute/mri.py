"""k-space operators and synthetic dynamic-MRI data.

Frames of an I1 x I2 grid are flattened column-major into I0 = I1 * I2 rows;
columns index the I3 time frames.  The spatial transform is the unnormalized
2D DFT per frame stored DC-centered (zero frequency at the grid center, the
usual scanner layout, so the central band really is the low-frequency
region); the inverse carries 1/(I1*I2).  The temporal transform is the
unnormalized 1D DFT along rows, unshifted, so Ft^H Ft = I3 * Id.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InputError


def flatten_frames(tensor: np.ndarray) -> np.ndarray:
    """(I1, I2, I3) -> (I1*I2, I3), column-major within each frame."""
    i1, i2, i3 = tensor.shape
    return tensor.reshape(i1 * i2, i3, order="F")


def unflatten_frames(X: np.ndarray, i1: int, i2: int) -> np.ndarray:
    """(I1*I2, I3) -> (I1, I2, I3); inverse of flatten_frames."""
    if X.shape[0] != i1 * i2:
        raise InputError(f"cannot unflatten {X.shape[0]} rows into {i1}x{i2}")
    return X.reshape(i1, i2, -1, order="F")


def _roll_columns_into(out: np.ndarray, src: np.ndarray, s: int) -> None:
    """out = src rolled by s along axis 1, by two block copies."""
    n = src.shape[1]
    out[:, :s] = src[:, n - s :]
    out[:, s:] = src[:, : n - s]


def _roll_frames(out: np.ndarray, cube: np.ndarray, s1: int, s2: int) -> None:
    """out = cube rolled by s1 rows and s2 columns in every frame (np.roll's
    result), by block copies.  out may be cube itself for s1 <= I1 / 2: the
    rows that land below row s1 are then set aside first, as the rows that
    land above it overwrite some of them."""
    n1 = cube.shape[0]
    head = cube[: n1 - s1]
    if out is cube:
        head = head.copy()
    _roll_columns_into(out[:s1], cube[n1 - s1 :], s2)
    _roll_columns_into(out[s1:], head, s2)


def _frames_like(cube: np.ndarray, i1: int, i2: int, out=None) -> tuple[np.ndarray, np.ndarray]:
    """``out``, or a fresh complex (I1*I2, I3) array, and its (I1, I2, I3) frame view."""
    if out is None:
        out = np.empty((i1 * i2, cube.shape[2]), dtype=complex)
    return out, unflatten_frames(out, i1, i2)


def fft2_frames(X: np.ndarray, i1: int, i2: int, out=None) -> np.ndarray:
    """Per-frame unnormalized 2D DFT, DC-centered, on the flattened layout,
    written to ``out`` (a complex array of X's shape, X itself allowed; a new
    array by default).  The transform runs in the result, which is then
    rolled in place by half of each side (fftshift): no full-size array but
    the result and the roll's copy of the rows it sets aside.  (Without
    ``out``, numpy's fftn allocates an array per axis.)"""
    cube = unflatten_frames(np.asarray(X, dtype=complex), i1, i2)
    out, frames = _frames_like(cube, i1, i2, out)
    np.fft.fftn(cube, axes=(0, 1), norm="backward", out=frames)
    _roll_frames(frames, frames, i1 // 2, i2 // 2)  # fftshift
    return out


def ifft2_frames(X: np.ndarray, i1: int, i2: int, out=None) -> np.ndarray:
    """Inverse of fft2_frames; carries the 1/(I1*I2) factor.  The input is
    shifted straight into the result, ``out`` (a complex array of X's shape
    that does not overlap X; a new array by default), which is transformed
    in place: one copy, and no array but the result."""
    cube = unflatten_frames(np.asarray(X, dtype=complex), i1, i2)
    out, frames = _frames_like(cube, i1, i2, out)
    _roll_frames(frames, cube, i1 - i1 // 2, i2 - i2 // 2)  # ifftshift
    # ifftn, not ifft2: numpy's ifft2 does not pass ``out`` on
    np.fft.ifftn(frames, axes=(0, 1), norm="backward", out=frames)
    return out


def dft_temporal(X: np.ndarray, out=None) -> np.ndarray:
    """Unnormalized DFT along each row (the time profile of one pixel),
    written to ``out`` (a complex array of X's shape; a new array by default)."""
    return np.fft.fft(np.asarray(X, dtype=complex), axis=1, norm="backward", out=out)


def idft_temporal(X: np.ndarray, out=None) -> np.ndarray:
    """Inverse of dft_temporal, written to ``out`` as there."""
    return np.fft.ifft(np.asarray(X, dtype=complex), axis=1, norm="backward", out=out)


@dataclass
class KtDataset:
    """Flattened k-space frames with dims and optional ground truth."""

    kspace: np.ndarray  # (I1*I2) x I3
    dims: tuple[int, int, int]
    ground_truth_image: np.ndarray | None = None


# phantom shape, lengths in units of the half grid; PULSE is the rim's
# modulation amplitude relative to the disk level
BACKGROUND = 0.6
DISK = 1.0
PULSE = 0.35
DISK_RADIUS = 0.35
EDGE_WIDTH = 0.06


@dataclass
class PhantomParams:
    period: int | None = None  # pulsation period in frames; defaults to I3
    noise_snr_db: float | None = None
    seed: int = 0


def pulse_schedule(t: np.ndarray, period: int) -> np.ndarray:
    """Rim-modulation weight per frame; periodic with the given period."""
    return np.sin(2.0 * np.pi * np.asarray(t, dtype=float) / period)


def make_phantom(i1: int, i2: int, i3: int, params: PhantomParams | None = None) -> KtDataset:
    """Synthetic cine phantom: static background ellipse plus an inner disk
    whose rim expands and contracts sinusoidally (linearized radius
    pulsation), complex-valued with a smooth spatial phase.

    Every pixel's time profile is constant + one sinusoid, so its temporal
    DFT concentrates on at most three frequency bins when the period divides
    I3.  k-space is the exact per-frame 2D DFT of the stored ground truth.
    """
    if min(i1, i2, i3) < 8:
        raise InputError("phantom dims must each be at least 8")
    p = params or PhantomParams()
    period = p.period or i3

    rows = (np.arange(i1) - (i1 - 1) / 2.0) / (i1 / 2.0)
    cols = (np.arange(i2) - (i2 - 1) / 2.0) / (i2 / 2.0)
    u, v = np.meshgrid(rows, cols, indexing="ij")
    r = np.sqrt(u**2 + v**2)

    def smooth_step(x):  # ~1 for x >> 0, ~0 for x << 0
        return 0.5 * (1.0 + np.tanh(x / EDGE_WIDTH))

    ellipse = smooth_step(1.0 - np.sqrt((u / 0.92) ** 2 + (v / 0.78) ** 2))
    disk = smooth_step(DISK_RADIUS - r)
    rim = np.exp(-((r - DISK_RADIUS) ** 2) / (2.0 * EDGE_WIDTH**2))
    phase = np.exp(1j * (0.6 * u + 0.4 * v + 0.5 * u * v))

    static = (BACKGROUND * ellipse + DISK * disk) * phase
    moving = (DISK * PULSE) * rim * phase

    w = pulse_schedule(np.arange(i3), period)
    cube = static[:, :, None] + moving[:, :, None] * w[None, None, :]
    truth = flatten_frames(cube.astype(complex))

    if p.noise_snr_db is not None:
        rng = np.random.default_rng(p.seed)
        signal = np.mean(np.abs(truth) ** 2)
        noise_var = 0.0  # 10^(SNR/10) past the float range raises, signal over it warns
        with np.errstate(over="ignore", divide="ignore"), suppress(OverflowError):
            noise_var = signal / 10.0 ** (p.noise_snr_db / 10.0)
        if not 0 < noise_var < np.inf:
            raise InputError("'noise_snr_db' must give a noise power signal / 10^(SNR/10) "
                             f"finite and > 0, got {p.noise_snr_db!r}")
        noise = rng.standard_normal(truth.shape) + 1j * rng.standard_normal(truth.shape)
        truth = truth + np.sqrt(noise_var / 2.0) * noise

    return KtDataset(
        kspace=fft2_frames(truth, i1, i2),
        dims=(i1, i2, i3),
        ground_truth_image=truth,
    )


def save_kt(ds: KtDataset, path) -> None:
    """Raw complex128 binary with one JSON header line (dims + layout note)."""
    header = {
        "i1": ds.dims[0],
        "i2": ds.dims[1],
        "i3": ds.dims[2],
        "layout": "column-major frames, complex128, kspace then optional truth",
        "has_truth": ds.ground_truth_image is not None,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(np.ascontiguousarray(ds.kspace, dtype=np.complex128).tobytes())
        if ds.ground_truth_image is not None:
            fh.write(np.ascontiguousarray(ds.ground_truth_image, dtype=np.complex128).tobytes())


def load_kt(path) -> KtDataset:
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode())
        except ValueError:  # not UTF-8, or not JSON
            header = None
        if not (isinstance(header, dict)
                and all(type(header.get(k)) is int and header[k] > 0 for k in ("i1", "i2", "i3"))
                and type(header.get("has_truth")) is bool):
            raise DataError(f"{path}: the header must be a JSON object with positive integers "
                            "i1, i2, i3 and a boolean has_truth")
        i1, i2, i3 = header["i1"], header["i2"], header["i3"]
        n = i1 * i2 * i3
        raw = fh.read()
    expected = n * 16 * (2 if header["has_truth"] else 1)
    if len(raw) < expected:
        raise DataError(f"{path}: truncated, {len(raw)} of {expected} data bytes")
    kspace = np.frombuffer(raw[: n * 16], dtype=np.complex128).reshape(i1 * i2, i3)
    truth = None
    if header["has_truth"]:
        truth = np.frombuffer(raw[n * 16 : 2 * n * 16], dtype=np.complex128).reshape(i1 * i2, i3)
    return KtDataset(kspace=kspace.copy(), dims=(i1, i2, i3),
                     ground_truth_image=None if truth is None else truth.copy())
