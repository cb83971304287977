"""Navigator-data formation and landmark-point selection.

Navigators are faithfully observed sub-blocks of the zero-filled data from
which latent geometry is extracted; landmarks are a representative subset of
navigator columns (or cluster centroids) used to keep kernel matrices small.
All distances are Euclidean; complex vectors are compared through the
isometric embedding [Re; Im].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InputError
from .graphs import GraphOperators
from .sampling import SamplingPattern, apply_sampling, band_rows

NAV1 = "nav1"  # snapshots (columns)
NAV2 = "nav2"  # node time profiles (rows)
NAV3 = "nav3"  # neighborhood x time-window patches
NAV4 = "nav4"  # full-node time windows
TVGS_MODES = (NAV1, NAV2, NAV3, NAV4)

MAXMIN = "maxmin"
KMEANS = "kmeans"
FUZZY_CMEANS = "fuzzy-cmeans"
STRATEGIES = (MAXMIN, KMEANS, FUZZY_CMEANS)

MAX_SWEEPS = 100  # Lloyd / fuzzy c-means sweeps per landmark selection
FCM_EXPONENT = 2.0  # fuzzy c-means membership exponent m
FCM_TOL = 1e-6  # fuzzy c-means stops once the centers move less than this


@dataclass
class NavigatorSet:
    points: np.ndarray  # nu x N_nav, columns are navigator vectors

    @property
    def count(self) -> int:
        return self.points.shape[1]


@dataclass
class LandmarkSet:
    points: np.ndarray  # nu x N_l

    @property
    def count(self) -> int:
        return self.points.shape[1]


def _drop_zero_columns(points: np.ndarray, mode: str) -> np.ndarray:
    keep = np.any(points != 0, axis=0)
    if not np.any(keep):
        raise DataError(f"navigator formation {mode} produced only all-zero columns")
    return points[:, keep]


def form_navigators_tvgs(
    Y: np.ndarray,
    pattern: SamplingPattern,
    mode: str,
    graph: GraphOperators | None = None,
    delta_t: int = 1,
) -> NavigatorSet:
    """Build navigator vectors from the zero-filled graph-signal matrix.

    nav1: columns of S(Y); fully missing snapshots are dropped.
    nav2: rows of S(Y) (transpose).
    nav3: vectorized k-neighborhood x (2*delta_t+1) patches, needs ``graph``.
    nav4: vectorized full-node windows of width 2*delta_t+1.
    All-zero columns are removed in every mode.
    """
    Z = apply_sampling(pattern, Y)
    n_rows, n_cols = Z.shape
    if mode == NAV1:
        return NavigatorSet(_drop_zero_columns(Z.copy(), mode))
    if mode == NAV2:
        return NavigatorSet(_drop_zero_columns(Z.T.copy(), mode))
    if mode not in (NAV3, NAV4):
        raise InputError(f"unknown navigator mode {mode!r}")
    if not 0 < delta_t < n_cols / 2:
        raise InputError(f"need 0 < delta_t < I_N/2 = {n_cols / 2}, got {delta_t}")
    centers = range(delta_t, n_cols - delta_t)
    if mode == NAV4:
        cols = [Z[:, t - delta_t : t + delta_t + 1].ravel(order="F") for t in centers]
    else:
        if graph is None:
            raise InputError("nav3 requires graph neighborhoods")
        cols = []
        for i in range(n_rows):
            Zi = Z[graph.neighbors[i], :]
            for t in centers:
                cols.append(Zi[:, t - delta_t : t + delta_t + 1].ravel(order="F"))
    return NavigatorSet(_drop_zero_columns(np.stack(cols, axis=1), mode))


def form_navigators_dmri(
    kspace: np.ndarray, pattern: SamplingPattern, i1: int, i2: int, upsilon: int
) -> NavigatorSet:
    """Vectorize the heavily sampled central band of each k-space frame.

    The ``upsilon`` x I2 box of each of the I3 frames yields one navigator
    vector of length upsilon * I2; the band must be fully observed in every
    frame since navigators have to be faithful.
    """
    kspace = np.asarray(kspace)
    if kspace.shape[0] != i1 * i2:
        raise InputError(f"k-space has {kspace.shape[0]} rows, expected {i1 * i2}")
    if not 1 <= upsilon <= i1:
        raise InputError(f"band width {upsilon} outside [1, {i1}]")
    rows = band_rows(i1, upsilon)
    # flattened (column-major frame) indices of the band
    flat = (rows[:, None] + i1 * np.arange(i2)[None, :]).ravel(order="F")
    if not np.all(pattern.mask[flat, :]):
        raise DataError("navigator band is not fully sampled in every frame")
    return NavigatorSet(kspace[flat, :].copy())


# ---------------------------------------------------------------------------
# landmark selection
# ---------------------------------------------------------------------------

def _embed_real(points: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(points):
        return np.vstack([points.real, points.imag])
    return np.asarray(points, dtype=float)


def _unembed(centers: np.ndarray, complex_output: bool) -> np.ndarray:
    if not complex_output:
        return centers
    nu = centers.shape[0] // 2
    return centers[:nu] + 1j * centers[nu:]


def _maxmin_indices(X: np.ndarray, count: int) -> np.ndarray:
    """Greedy farthest-point selection; first pick is the max-norm column,
    ties broken by lowest index."""
    norms = np.linalg.norm(X, axis=0)
    chosen = [int(np.argmax(norms))]
    mind = np.linalg.norm(X - X[:, chosen[0]][:, None], axis=0)
    while len(chosen) < count:
        nxt = int(np.argmax(mind))
        chosen.append(nxt)
        mind = np.minimum(mind, np.linalg.norm(X - X[:, nxt][:, None], axis=0))
    return np.array(chosen)


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[1]
    first = int(rng.integers(n))
    centers = [X[:, first]]
    d2 = np.sum((X - centers[0][:, None]) ** 2, axis=0)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            nxt = int(rng.integers(n))
        else:
            nxt = int(rng.choice(n, p=d2 / total))
        centers.append(X[:, nxt])
        d2 = np.minimum(d2, np.sum((X - centers[-1][:, None]) ** 2, axis=0))
    return np.stack(centers, axis=1)


def _sq_distances(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances from each center (rows) to each point (columns)."""
    return (np.sum(X**2, axis=0)[None, :] - 2.0 * centers.T @ X
            + np.sum(centers**2, axis=0)[:, None])


def _kmeans(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = _kmeanspp_init(X, k, rng)
    for _ in range(MAX_SWEEPS):
        d2 = _sq_distances(X, centers)
        assign = np.argmin(d2, axis=0)
        new = np.empty_like(centers)
        for j in range(k):
            members = assign == j
            if not np.any(members):
                # re-seat an empty cluster at the point farthest from its center
                new[:, j] = X[:, int(np.argmax(d2[j]))]
            else:
                new[:, j] = X[:, members].mean(axis=1)
        moved = np.linalg.norm(new - centers)
        centers = new
        if moved < 1e-12:
            break
    return centers


def _fuzzy_cmeans(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = _kmeanspp_init(X, k, rng)
    expo = 1.0 / (FCM_EXPONENT - 1.0)
    for _ in range(MAX_SWEEPS):
        d2 = _sq_distances(X, centers)
        d2 = np.maximum(d2, 0.0)
        zero = d2 < 1e-30
        inv = np.where(zero, 0.0, 1.0 / np.maximum(d2, 1e-300) ** expo)
        col_zero = zero.any(axis=0)
        u = np.where(col_zero[None, :], zero.astype(float), inv / inv.sum(axis=0))
        w = u**FCM_EXPONENT
        new = (X @ w.T) / w.sum(axis=1)[None, :]
        moved = np.linalg.norm(new - centers)
        centers = new
        if moved < FCM_TOL:
            break
    return centers


def select_landmarks(nav: NavigatorSet, count: int, strategy: str, seed: int) -> LandmarkSet:
    """Pick ``count`` landmark points from a navigator set.

    maxmin returns actual navigator columns; kmeans and fuzzy-cmeans return
    centroids (kmeans++ seeding, at most MAX_SWEEPS Lloyd/FCM sweeps, one restart).
    Output is deterministic in (nav, count, strategy, seed).
    """
    n_nav = nav.count
    if not 1 <= count <= n_nav:
        raise InputError(f"need 1 <= N_l <= {n_nav}, got {count}")
    if strategy == MAXMIN:
        idx = _maxmin_indices(_embed_real(nav.points), count)
        return LandmarkSet(nav.points[:, idx].copy())
    rng = np.random.default_rng(seed)
    X = _embed_real(nav.points)
    if strategy == KMEANS:
        centers = _kmeans(X, count, rng)
    elif strategy == FUZZY_CMEANS:
        centers = _fuzzy_cmeans(X, count, rng)
    else:
        raise InputError(f"unknown landmark strategy {strategy!r}")
    return LandmarkSet(_unembed(centers, np.iscomplexobj(nav.points)))
