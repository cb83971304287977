"""Graph construction and the operators used by the spatio-temporal regularizer.

The regularizer couples a graph operator acting on node space with one-step
temporal differences:  tr(Delta^T X^T S X Delta)  with S = (L + eps*I)^beta.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InputError


@dataclass
class GraphOperators:
    """Adjacency, Laplacian, temporal difference and the smoothness operator.

    ``neighbors[i]`` is the directed k-nearest-neighbor index list of node i
    (excluding i itself); W is the OR-symmetrized weighted adjacency.
    eps and beta must be finite and > 0 (InputError otherwise).
    S = (L + eps*I)^beta, DD^T and their eigenpairs do not change during a
    solve: they are computed together, once, on first use, and every solve
    on the graph shares them, read-only.
    """

    W: np.ndarray
    L: np.ndarray
    delta: np.ndarray
    eps: float
    beta: float
    neighbors: list[np.ndarray]
    _smoothness: tuple | None = field(default=None, init=False, repr=False)
    # a sweep's worker threads share one graph, and so one factorization
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    def __post_init__(self):
        for name, value in (("eps", self.eps), ("beta", self.beta)):
            if not 0 < value < np.inf:
                raise InputError(f"{name} must be a finite number > 0, got {value}")

    def smoothness(self):
        """(S, (s, U), DD^T, (d, Q)) with S = (L + eps*I)^beta = U diag(s) U^T
        and DD^T = Q diag(d) Q^T, eigenvalues ascending.  InputError if an
        eigenvalue of S overflows."""
        with self._lock:
            if self._smoothness is None:
                lam, U = np.linalg.eigh(self.L + self.eps * np.eye(self.L.shape[0]))
                with np.errstate(over="ignore"):
                    s = np.maximum(lam, 0.0) ** self.beta
                if not np.isfinite(s).all():
                    raise InputError(f"(L + eps I)^beta overflows at eps={self.eps}, "
                                     f"beta={self.beta}")
                ddt = self.delta @ self.delta.T
                d, Q = np.linalg.eigh(ddt)
                S = (U * s) @ U.T
                # shared by every solve on the graph: a write would corrupt them all
                for arr in (S, ddt, s, U, d, Q):
                    arr.setflags(write=False)
                self._smoothness = (S, (s, U), ddt, (d, Q))
            return self._smoothness

    @property
    def L_sobolev(self) -> np.ndarray:
        """S = (L + eps*I)^beta."""
        return self.smoothness()[0]


def knn_graph(coords: np.ndarray, k: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Inverse-square-distance kNN adjacency from point coordinates.

    ``coords`` is p x I0 (points as columns).  Each node connects to its k
    nearest neighbors in Euclidean distance; an edge exists if either endpoint
    selects the other, with weight w_ij = 1 / d_ij^2 and zero diagonal.
    Returns (W, neighbors).
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    n = coords.shape[1]
    if not 1 <= k < n:
        raise InputError(f"need 1 <= k < {n}, got k={k}")
    if not np.isfinite(coords).all():
        raise DataError("coordinates must be finite")
    diff = coords[:, :, None] - coords[:, None, :]
    d2 = np.sum(diff * diff, axis=0)
    off = ~np.eye(n, dtype=bool)
    if np.any(d2[off] == 0.0):
        raise DataError("duplicate coordinates produce zero distances")
    # a stable sort keeps distance ties in index order; each row's own index
    # (distance 0, every other one positive) sorts first and is dropped; the
    # copy keeps the graph's neighbor lists from holding the n x n order alive
    nearest = np.argsort(d2, axis=1, kind="stable")[:, 1:k + 1].copy()
    neighbors = list(nearest)
    sel = np.zeros((n, n), dtype=bool)
    sel[np.arange(n)[:, None], nearest] = True
    sel |= sel.T  # edge if either endpoint selects the other
    W = np.zeros((n, n))
    W[sel] = 1.0 / d2[sel]
    return W, neighbors


def laplacian(W: np.ndarray) -> np.ndarray:
    """Combinatorial Laplacian diag(W 1) - W of a symmetric non-negative W."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise InputError("adjacency must be square")
    if not np.allclose(W, W.T, atol=1e-12):
        raise InputError("adjacency must be symmetric")
    if np.any(W < 0) or np.any(np.diag(W) != 0):
        raise InputError("adjacency must be non-negative with zero diagonal")
    return np.diag(W.sum(axis=1)) - W


def diff_operator(n_time: int) -> np.ndarray:
    """One-step difference matrix of shape I_N x (I_N - 1); X @ delta yields
    the column differences x_{t+1} - x_t."""
    if n_time < 2:
        raise InputError(f"need at least two time points, got {n_time}")
    delta = np.zeros((n_time, n_time - 1))
    idx = np.arange(n_time - 1)
    delta[idx, idx] = -1.0
    delta[idx + 1, idx] = 1.0
    return delta


def build_graph_operators(
    coords: np.ndarray, k: int, eps: float, beta: float, n_time: int
) -> GraphOperators:
    """Assemble every operator needed by the graph-signal pipeline."""
    W, neighbors = knn_graph(coords, k)
    return GraphOperators(
        W=W,
        L=laplacian(W),
        delta=diff_operator(n_time),
        eps=eps,
        beta=beta,
        neighbors=neighbors,
    )
