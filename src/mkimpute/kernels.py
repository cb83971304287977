"""Reproducing-kernel evaluation on complex vectors and kernel-matrix assembly.

Three kernel families are supported:

* linear          k(l, l') = l^H l'
* gaussian        k(l, l') = exp(-gamma * (l - conj(l'))^T (l - conj(l')))
* polynomial      k(l, l') = (l^H l' + c)^r

The gaussian form uses a plain (unconjugated) transpose on the displacement,
so it may return complex values for complex inputs; on real inputs it reduces
to exp(-gamma * ||l - l'||^2).  Gaussian widths are commonly quoted as sigma;
the conversion used throughout is gamma = 1 / (2 * sigma^2).

Linear and polynomial kernel matrices are normalized,
k(l, l') / sqrt(|k(l, l)| |k(l', l')|) (Shawe-Taylor & Cristianini, Kernel
Methods for Pattern Analysis, 2004, 5.1), so their diagonal has unit
magnitude, as a gaussian's has on real landmarks; a landmark with
k(l, l) = 0 keeps its row and column unscaled.
"""

from __future__ import annotations

import cmath
import numbers
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import DataError, InputError

LINEAR = "linear"
GAUSSIAN = "gaussian"
POLYNOMIAL = "polynomial"

_KINDS = (LINEAR, GAUSSIAN, POLYNOMIAL)


def _finite(value, kind) -> bool:
    """Whether value is a finite number of the given numbers ABC, not a bool;
    an integer beyond the float range is not."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    try:
        return cmath.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of one reproducing kernel.

    Parameters
    ----------
    kind : str
        One of ``"linear"``, ``"gaussian"``, ``"polynomial"``.
    gamma : float
        Gaussian rate, a finite number > 0.
    degree : int
        Polynomial degree r, an integer >= 1.
    intercept : float or complex
        Polynomial intercept c, a finite real or complex number.

    Every field is checked whatever the kind, and a bool is no number: a
    value out of range raises InputError, its message led by the quoted
    field name.
    """

    kind: str
    gamma: float = 1.0
    degree: int = 1
    intercept: float | complex = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown kernel kind {self.kind!r}")
        if not (_finite(self.gamma, numbers.Real) and self.gamma > 0):
            raise InputError(f"'gamma' must be a finite number > 0, got {self.gamma!r}")
        if not (_finite(self.degree, numbers.Integral) and self.degree >= 1):
            raise InputError(f"'degree' must be an integer >= 1, got {self.degree!r}")
        if not _finite(self.intercept, numbers.Number):
            raise InputError("'intercept' must be a finite real or complex number, "
                             f"got {self.intercept!r}")


def gaussian_spec(sigma: float) -> KernelSpec:
    """Gaussian kernel from a width sigma, a finite number > 0 whose
    gamma = 1 / (2 sigma^2) is finite and > 0 (sigma between about 5.3e-155
    and 9.5e153); an InputError naming 'sigma' otherwise."""
    gamma = 0.0
    # sigma^2 past the float range raises on Python numbers, warns on numpy's
    with np.errstate(over="ignore", divide="ignore"), suppress(ZeroDivisionError, OverflowError):
        if _finite(sigma, numbers.Real) and sigma > 0:
            gamma = 1.0 / (2.0 * sigma**2)
    if not 0 < gamma < np.inf:
        raise InputError("'sigma' must be a finite number > 0 with 1 / (2 sigma^2) "
                         f"finite and > 0, got {sigma!r}")
    return KernelSpec(GAUSSIAN, gamma=gamma)


_PAIR_CHUNK_BYTES = 8 * 2**20


def _pairwise_distances(points: np.ndarray, chunk_bytes: int = _PAIR_CHUNK_BYTES) -> np.ndarray:
    """The Euclidean distances between the columns of a real array, pair
    (i, j) for i < j in row-major order, equal bit for bit to scipy's pdist
    on its transpose: each pair's squared differences are summed over the
    coordinates in order (np.sum would sum them pairwise).  The pairs are
    taken in chunks whose two coordinates x pairs temporaries fill at most
    chunk_bytes."""
    first, second = np.triu_indices(points.shape[1], 1)
    out = np.zeros(len(first))
    step = max(1, chunk_bytes // (16 * max(1, len(points))))
    for lo in range(0, len(out), step):
        diff = points.take(first[lo : lo + step], axis=1)
        diff -= points.take(second[lo : lo + step], axis=1)
        diff *= diff
        for k in range(len(diff)):
            out[lo : lo + step] += diff[k]
        del diff  # before the next chunk's are formed
    return np.sqrt(out, out=out)


def median_distance_gaussian(points: np.ndarray) -> KernelSpec:
    """Gaussian kernel with the median pairwise distance of the given points
    (as columns) for sigma, the usual bandwidth heuristic; sigma = 1 for
    fewer than two points or coincident ones.  A non-finite coordinate
    raises DataError."""
    pts = np.atleast_2d(np.asarray(points))
    if not np.isfinite(pts).all():
        raise DataError("points must be finite")
    if pts.shape[1] < 2:
        return gaussian_spec(1.0)
    # |a - b| on complex points is the distance of their real embeddings [Re; Im]
    real = np.concatenate([pts.real, pts.imag]) if np.iscomplexobj(pts) else pts
    med = float(np.median(_pairwise_distances(real.astype(float, copy=False))))
    return gaussian_spec(med if med > 0 else 1.0)


def landmark_mean(landmarks: np.ndarray) -> float | complex:
    """Default polynomial intercept: the entry-wise mean of the landmark
    points, real for real points and complex for complex ones."""
    return np.mean(landmarks).item()


def default_kernel_dictionary(landmarks: np.ndarray) -> list[KernelSpec]:
    """Seven-kernel default dictionary: gaussian sigma in {0.2, 0.4, 0.8} and
    polynomial degree in {1, 2, 3, 4} with intercept ``landmark_mean``."""
    c = landmark_mean(landmarks)
    gauss = [gaussian_spec(s) for s in (0.2, 0.4, 0.8)]
    poly = [KernelSpec(POLYNOMIAL, degree=r, intercept=c) for r in (1, 2, 3, 4)]
    return gauss + poly


def build_kernel_matrix(landmarks: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """Assemble the N_l x N_l matrix with entries k(l_k, l_k'), normalized
    to a unit-magnitude diagonal for the linear and polynomial kinds.

    ``landmarks`` holds the points as columns (nu x N_l).  A kernel with an
    entry that is not finite on them (an exp or a power that overflows)
    raises InputError naming the spec (its kind and parameters).
    """
    landmarks = np.atleast_2d(np.asarray(landmarks))
    if landmarks.shape[1] < 1:
        raise InputError("need at least one landmark")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry raises below
        if spec.kind == GAUSSIAN:
            # (l - conj(l'))^T (l - conj(l')) expanded to avoid the nu x N_l x N_l
            # displacement tensor:  sum l^2 + sum conj(l')^2 - 2 l^T conj(l')
            sq = np.sum(landmarks * landmarks, axis=0)
            cross = landmarks.T @ np.conj(landmarks)
            K = np.exp(-spec.gamma * (sq[:, None] + np.conj(sq)[None, :] - 2.0 * cross))
        else:
            K = landmarks.conj().T @ landmarks  # (k,k') entry = l_k^H l_k'
            if spec.kind == POLYNOMIAL:
                K = K + spec.intercept
            # the base g is normalized before the power: the same kernel,
            # g^r / sqrt(|g_kk^r| |g_k'k'^r|), without forming g^r, which can overflow
            scale = np.sqrt(np.abs(np.diagonal(K)))
            scale[scale == 0.0] = 1.0
            K = K / np.outer(scale, scale)
            if spec.kind == POLYNOMIAL:
                K = K ** spec.degree
    if not np.isfinite(K).all():
        raise InputError(f"{spec} has entries that are not finite on these landmarks")
    return K
