"""Outer successive-convex-approximation loop and its convex sub-task solvers.

Every outer iteration solves all sub-tasks from the *current* iterate
(parallel/Jacobi conditioning), then extrapolates the whole variable tuple
with a diminishing step gamma_{n+1} = gamma_n (1 - zeta * gamma_n):

    O^(n+1) = gamma_{n+1} O^(n+1/2) + (1 - gamma_{n+1}) O^(n)

One loop, sca_loop, runs every model and forms every combination: the
engine on both problems and the kernel-chain baselines supply their best
responses and one evaluation of each iterate, whose prediction the next best
response reuses.  The graph-signal problem keeps observed matrix entries
fixed and penalizes spatio-temporal roughness; the k-space problem keeps
observed k-space entries fixed and penalizes the images' temporal spectrum.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import InputError, SolverError
from .graphs import GraphOperators
from .kernels import KernelSpec, build_kernel_matrix
from .model import FactorModel, ModelDims, SolverConfig, init_factors, predict
from .mri import dft_temporal, fft2_frames, idft_temporal, ifft2_frames
from .navigators import LandmarkSet
from .sampling import SamplingPattern, apply_sampling

TVGS = "tvgs"
DMRI = "dmri"

# ---------------------------------------------------------------------------
# schedule and extrapolation
# ---------------------------------------------------------------------------

def sca_step_schedule(gamma: float, zeta: float) -> float:
    """gamma_{n+1} = gamma_n (1 - zeta * gamma_n); strictly decreasing and
    positive for the gamma0 in (0, 1] and zeta in (0, 1) SolverConfig admits."""
    return gamma * (1.0 - zeta * gamma)


def sca_extrapolate(current, half, gamma: float):
    """gamma * half + (1 - gamma) * current for every array of an iterate (a
    tuple of arrays, nested lists or None), formed in place in the half's
    arrays, which the loop owns; returns the half."""
    def mix(c, h):
        if isinstance(h, (tuple, list)):
            return type(h)(map(mix, c, h))
        if h is not None:
            h *= gamma
            h += (1.0 - gamma) * c
        return h

    return mix(current, half)


@dataclass
class SolveReport:
    """Per-outer-iteration trace; list lengths equal the iterations run."""

    initial_objective: float = 0.0
    objective: list[float] = field(default_factory=list)
    consistency: list[float] = field(default_factory=list)
    affine_residual: list[float] = field(default_factory=list)
    b_inner_iters: list[int] = field(default_factory=list)
    b_residual: list[float] = field(default_factory=list)  # 0 on the closed-form mmf path
    cg_iters: list[int] = field(default_factory=list)
    gammas: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    converged: bool = False
    warnings: list[str] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.objective)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iteration", "objective", "consistency_residual",
                        "constraint_residual", "seconds", "gamma", "cg_iters",
                        "b_inner_iters", "b_residual"])
            for i in range(self.iterations):
                w.writerow([i + 1, repr(self.objective[i]), repr(self.consistency[i]),
                            repr(self.affine_residual[i]), repr(self.seconds[i]),
                            repr(self.gammas[i]), self.cg_iters[i], self.b_inner_iters[i],
                            repr(self.b_residual[i])])


# ---------------------------------------------------------------------------
# preconditioned conjugate gradient and the Sylvester solve
# ---------------------------------------------------------------------------

def _pcg(apply_op, b, x0, tol, max_iter, precond):
    """CG for a Hermitian positive definite operator on arrays of b's shape,
    preconditioned by the Hermitian positive definite map ``precond``.  Runs
    until the relative residual sqrt(r^H M r / b^H M b) is at most tol, M the
    preconditioner, or for max_iter steps.  The iterates are updated in place
    in arrays CG owns; b and x0 are not written.  Returns (x, relative
    residual, iterations)."""
    x = x0.copy()
    r = b - apply_op(x)
    z = precond(r)
    p = z.copy()
    rz = float(np.vdot(r, z).real)
    b_norm = math.sqrt(float(np.vdot(b, precond(b)).real))
    if b_norm == 0.0:
        return np.zeros_like(b), 0.0, 0
    it = 0
    while math.sqrt(rz) / b_norm > tol and it < max_iter:
        Ap = apply_op(p)
        alpha = rz / float(np.vdot(p, Ap).real)
        x += alpha * p
        r -= alpha * Ap
        z = precond(r)
        rz_new = float(np.vdot(r, z).real)
        p *= rz_new / rz
        p += z
        rz = rz_new
        it += 1
    return x, math.sqrt(rz) / b_norm, it


def _sylvester_pd(G_eig, H_eig, c):
    """The solve C -> D of G D H + c D = C for Hermitian PSD G and H, given as
    their eigenpairs (a, U) and (b, V) from eigh; G, H and C may be stacked
    along leading axes."""
    (a, U), (b, V) = G_eig, H_eig
    inv_den = 1.0 / (a[..., :, None] * b[..., None, :] + c)
    Uh, Vh = U.conj().swapaxes(-1, -2), V.conj().swapaxes(-1, -2)

    def solve(C):
        T = Uh @ C @ V
        T *= inv_den
        return U @ T @ Vh

    return solve


# ---------------------------------------------------------------------------
# X sub-task, graph flavor
# ---------------------------------------------------------------------------

def _cg_cap(top, tau_X, tol, n_free):
    """Iteration cap for the X-update CG from its convergence bound
    (sqrt(kappa)/2) ln(2 sqrt(kappa)/tol), floored at 10 sqrt(n_free) + 10.

    The unrestricted operator A = (1 + tau_X) I + lambda_L (S (x) DD^T) has
    its spectrum in [1 + tau_X, 1 + tau_X + top], top = lambda_L lam_max(S)
    lam_max(DD^T).  The bound holds for the preconditioned CG too: its
    preconditioner (A^-1)_ff, f the free entries, is the inverse of the Schur
    complement A_ff - A_fo A_oo^-1 A_of, which lies between (1 + tau_X) I and
    A_ff <= lam_max(A) I, so the preconditioned spectrum lies in [1, kappa(A)]."""
    floor = 10 * math.ceil(math.sqrt(max(n_free, 1))) + 10
    if not tol > 0:
        return floor  # the bound needs a positive tolerance
    root_kappa = math.sqrt(1.0 + top / (1.0 + tau_X))
    return max(floor, math.ceil(0.5 * root_kappa * math.log(2.0 * root_kappa / tol)))


BAND_BYTE_CAP = 16 << 20  # bytes of the X update's band factor; PCG beyond it


@dataclass(frozen=True, eq=False)
class FreeBandFactor:
    """Banded Cholesky factor of the X update's operator on the free entries
    of one mask, graph and weight pair, listed by time step: ``nodes[k],
    times[k]``; ``band`` in LAPACK's lower band storage."""

    pattern: SamplingPattern
    graph: GraphOperators
    lambda_L: float
    tau_X: float
    nodes: np.ndarray
    times: np.ndarray
    band: np.ndarray


def free_band_factor(pattern, graph: GraphOperators, lambda_L, tau_X):
    """The banded Cholesky factor of the X update's operator
    A = (1 + tau_X) I + lambda_L (S (x) DD^T) on the free entries, or None
    (the X update then runs PCG) for lambda_L = 0, no free entry, or a band
    of more than BAND_BYTE_CAP bytes.

    DD^T is tridiagonal, so with the free entries listed by time step A_ff is
    block tridiagonal, block (t', t) = lambda_L DD^T[t', t] S[f_t', f_t] for
    f_t the nodes free at step t, plus (1 + tau_X) I: an SPD band matrix of
    width = max_t (|f_t| + |f_t+1|) <= 2 I0 rows, factored by dpbtrf in
    O(n_free width^2) (Golub & Van Loan, Matrix Computations, 4th ed., 4.3).
    Row k of band column c is A_ff[c + k, c]; each step's columns are
    formed from S and DD^T, which are only read, and the band is factored in
    place.  A failed factorization, of an indefinite or non-finite
    operator, raises SolverError."""
    times, nodes = np.nonzero(~pattern.mask.T)  # by time step
    n_free = len(nodes)
    if lambda_L == 0.0 or n_free == 0:
        return None
    counts = np.bincount(times, minlength=pattern.mask.shape[1])
    width = int((counts + np.append(counts[1:], 0)).max())
    if 8 * width * n_free > BAND_BYTE_CAP:
        return None
    S, _, ddt, _ = graph.smoothness()
    band = np.empty((width, n_free), order="F")  # the layout dpbtrf factors in place
    ends = np.cumsum(counts)
    for t in np.flatnonzero(counts):
        lo, hi = ends[t] - counts[t], ends[t]
        below = ends[min(t + 1, len(counts) - 1)]  # the entries of steps t and t+1
        # A_ff[lo:below, lo:hi], zero-padded so that every column has width
        # rows from its diagonal down; a sheared view reads band row k of
        # column c at panel[c + k, c]
        panel = np.zeros((hi - lo + width, hi - lo))
        panel[: below - lo] = (S[np.ix_(nodes[lo:below], nodes[lo:hi])]
                               * (lambda_L * ddt[times[lo:below], t])[:, None])
        step = panel.strides[0]
        band[:, lo:hi] = as_strided(panel, (width, hi - lo), (step, step + panel.strides[1]),
                                    writeable=False)
    band[0] += 1.0 + tau_X
    band, info = dpbtrf(band, lower=1, overwrite_ab=1)
    if info != 0:
        raise SolverError(f"X-update band factorization failed: dpbtrf info {info}")
    return FreeBandFactor(pattern, graph, lambda_L, tau_X, nodes, times, band)


def consistent_smooth_solve(Y, pattern, target, X_prev, graph: GraphOperators, lambda_L,
                            tau_X, cg_tol=1e-9, cg_max=None, band=None):
    """Minimize 1/2||X - target||^2 + lambda_L/2 tr(X^T S X DD^T) +
    tau_X/2||X - X_prev||^2 subject to exact agreement with Y on the mask.

    Observed entries are assigned from Y; the free ones solve a restricted
    SPD system A_ff x = b_f, b = target + tau_X X_prev - lambda_L S S_y DD^T.
    Given ``band``, the free_band_factor of this mask, graph and weights, the
    solve is direct: two banded triangular solves.  Otherwise CG solves it,
    applied matrix-free (never materializing the Kronecker form) and
    preconditioned by the exact inverse of the unrestricted operator
    (1 + tau_X) I + lambda_L (S (x) DD^T), which is diagonal in the
    eigenbases of S and DD^T (fast diagonalization, from the eigenpairs the
    graph stores), restricted to the free entries; cg_tol bounds the relative
    residual in that preconditioner's norm.  A non-finite result raises
    SolverError.  Returns (X, cg_iterations), 0 on the direct path.
    """
    obs = pattern.mask
    S_y = apply_sampling(pattern, Y)
    rhs_mat = target + tau_X * X_prev
    if lambda_L == 0.0:
        return np.where(obs, S_y, rhs_mat / (1.0 + tau_X)), 0
    if band is not None and (band.pattern is not pattern or band.graph is not graph
                             or (band.lambda_L, band.tau_X) != (lambda_L, tau_X)):
        raise InputError("the band factor was built for another mask, graph or weights")
    L_sob, (s, U), ddt, (d, Q) = graph.smoothness()
    lS = lambda_L * L_sob
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite input raises below
        b = rhs_mat - lS @ S_y @ ddt
        if band is not None:
            return _band_solve(band, S_y, b), 0
        solve = _sylvester_pd((lambda_L * s, U), (d, Q), 1.0 + tau_X)
        keep = (~obs).astype(float)  # 1 on the free entries, 0 on the observed ones
        b *= keep

        def apply_op(V):
            out = lS @ V @ ddt
            out += (1.0 + tau_X) * V
            out *= keep
            return out

        def precond(R):
            out = solve(R)
            out *= keep
            return out

        if cg_max is None:
            cg_max = _cg_cap(lambda_L * s[-1] * d[-1], tau_X, cg_tol, int(keep.sum()))
        x0 = (keep * X_prev).astype(b.dtype, copy=False)
        V, res, iters = _pcg(apply_op, b, x0, cg_tol, cg_max, precond)
    if not res <= cg_tol:  # also catches a NaN residual
        raise SolverError(
            f"X-update CG stalled at relative residual {res:.3e} after {iters} iterations",
            residual=res, iteration=iters,
        )
    V += S_y  # V is zero on the observed entries
    return V, iters


def _band_solve(factor: FreeBandFactor, S_y, b):
    """S_y with its free entries set to A_ff^-1 b_f by the band factor.
    SolverError on a non-finite result."""
    nodes, times = factor.nodes, factor.times
    b_f = b[nodes, times]
    # A is real: a complex right-hand side is solved as its real and imaginary columns
    x, _ = dpbtrs(factor.band, b_f.view(np.float64).reshape(len(nodes), -1), lower=1)
    X = S_y.astype(b.dtype)
    X[nodes, times] = np.ascontiguousarray(x).view(b.dtype).ravel()
    if not np.isfinite(X).all():
        raise SolverError("X-update direct solve produced a non-finite entry",
                          residual=math.nan)
    return X


# the engine's X sub-task, its target the model's prediction
tvgs_update_X = consistent_smooth_solve


# ---------------------------------------------------------------------------
# factor (D) sub-task
# ---------------------------------------------------------------------------

def chain_wings(links, i):
    """The products of a chain's links left and right of link i; None for an empty side."""
    left = reduce(np.matmul, links[:i]) if i > 0 else None
    right = reduce(np.matmul, links[i + 1 :]) if i < len(links) - 1 else None
    return left, right


def factor_wings(model: FactorModel, q_index: int):
    """Per-block left products L_m (None = identity for the first factor) and
    right products R_m = D^(q+1)...D^(Q) K_m B_m."""
    lefts, rights = zip(*(chain_wings([*row, K, B], q_index)
                          for row, K, B in zip(model.factors, model.kernels, model.coeffs)))
    return list(lefts), list(rights)


def chain_link_solve(left, right, X_hat, D_hat, c, tau):
    """Minimizer over F of one link of a chain product X ~ L F R:

        1/2||X_hat - L F R||^2 + (c - tau)/2||F||^2 + tau/2||F - D_hat||^2

    A missing wing (None) is the identity: a right ridge solve without L, a
    left ridge solve without R, the Sylvester solve with both."""
    if left is None:
        H = right @ right.conj().T
        rhs = X_hat @ right.conj().T + tau * D_hat
        A = H + c * np.eye(H.shape[0], dtype=H.dtype)
        return np.linalg.solve(A.T, rhs.T).T
    G = left.conj().T @ left
    if right is None:
        rhs = left.conj().T @ X_hat + tau * D_hat
        return np.linalg.solve(G + c * np.eye(G.shape[0], dtype=G.dtype), rhs)
    H = right @ right.conj().T
    C = left.conj().T @ X_hat @ right.conj().T + tau * D_hat
    return _sylvester_pd(np.linalg.eigh(G), np.linalg.eigh(H), c)(C)


_D_CG_TOL = 1e-12  # relative residual of the coupled factor solve


def _coupled_block_solve(lefts, rights, X_hat, D_hats, c, tau):
    """Support-restricted normal equations of the block-diagonal factor,
    sum_m' G_{m m'} D_{m'} H_{m' m} + c D_m = C_m, G_{m m'} = L_m^H L_m' and
    H_{m' m} = R_m' R_m^H, by CG on the stack of blocks, applied blockwise.
    CG is preconditioned by, and started from, each block's own Sylvester
    solve, so one block needs no step.  It stops at relative residual
    _D_CG_TOL in the preconditioner's norm or raises SolverError, also on a
    NaN, within twice the unknown count: roundoff adds steps at small c
    (seven random blocks at c = 1e-6 took 1.55 per unknown)."""
    M = len(lefts)
    p, r = D_hats[0].shape
    L = np.concatenate(lefts, axis=1)
    R = np.concatenate(rights, axis=0)
    G = (L.conj().T @ L).reshape(M, p, M, p).transpose(0, 2, 1, 3)  # [m, m'] = L_m^H L_m'
    H = (R @ R.conj().T).reshape(M, r, M, r).transpose(2, 0, 1, 3)  # [m, m'] = R_m' R_m^H
    C = np.stack([left.conj().T @ X_hat @ right.conj().T
                  for left, right in zip(lefts, rights)]) + tau * np.stack(D_hats)
    d = np.arange(M)
    precond = _sylvester_pd(np.linalg.eigh(G[d, d]), np.linalg.eigh(H[d, d]), c)

    def apply_op(V):
        return (G @ V[None] @ H).sum(axis=1) + c * V

    D, res, iters = _pcg(apply_op, C, precond(C), _D_CG_TOL, 2 * M * p * r, precond)
    if not res <= _D_CG_TOL:  # also catches a NaN residual
        raise SolverError(
            f"factor-update CG stalled at relative residual {res:.3e} after {iters} iterations",
            residual=res, iteration=iters,
        )
    return list(D)


def update_factor(q_index: int, X_hat, model: FactorModel, lam: float, tau: float):
    """Minimizer of the factor sub-task for layer ``q_index`` (0-based):
    1/2||X - L D R||^2 + lam/2||D||^2 + tau/2||D - D_hat||^2, restricted to
    the block support for q_index >= 1, unrestricted for the first layer.
    Returns the list of per-block factors."""
    lefts, rights = factor_wings(model, q_index)
    D_hats = [model.factors[m][q_index] for m in range(model.dims.n_kernels)]
    c = lam + tau
    if q_index == 0:
        wide = chain_link_solve(None, np.concatenate(rights, axis=0), X_hat,
                                np.concatenate(D_hats, axis=1), c, tau)
        d1 = D_hats[0].shape[1]
        return [wide[:, m * d1 : (m + 1) * d1] for m in range(model.dims.n_kernels)]
    return _coupled_block_solve(lefts, rights, X_hat, D_hats, c, tau)


# ---------------------------------------------------------------------------
# coefficient (B) sub-task
# ---------------------------------------------------------------------------

def _soft_complex(A, thr):
    mag = np.abs(A)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(mag <= thr, 0.0, 1.0 - thr / np.where(mag > 0, mag, 1.0))
    return A * scale


_PROX_MAX_ITER = 100  # Newton steps of the multiplier solve
# update_B forms P~ T, and with it the Newton matrices, for batches of
# columns that hold at most this many entries (16 MB), or for one column
_NEWTON_BATCH = 1 << 21


def _affine_l1_multiplier(V, alpha):
    """Multiplier mu of min_z 1/2||z - v||^2 + alpha||z||_1 s.t. sum z = 1,
    per column of real or complex V; the minimiser is z = soft(v - mu, alpha).

    mu minimises the convex Phi(mu) = 1/2 sum (|v - mu| - alpha)_+^2 + Re mu,
    whose gradient is -r with r = sum z - 1.  With w = v - mu, a = alpha/|w|
    and u = w/|w| on the active entries, the Newton step delta solves
    c delta + q/2 conj(delta) = r for c = sum(1 - a/2), q = sum a u^2; on
    real data it is r/k, exact on the current linear segment.  When alpha
    dominates |v|, Phi's valley is the circle |mu - g| ~ alpha about the
    active entries' centroid g, so the step is taken along that circle (its
    radial part changes |mu - g|, its tangential part the angle; on real
    data this is the straight step).  A step is halved until it shrinks |r|
    or meets Armijo on Phi.  The solve stops at |r| <= 8 n eps (1 + alpha +
    max|v|) or raises SolverError."""
    n = V.shape[0]
    tol = 8 * n * np.finfo(float).eps * (1.0 + alpha + np.abs(V).max(axis=0))
    if not np.isfinite(tol).all():
        raise SolverError("affine-l1 prox got a non-finite entry")

    def state(mu):  # w, |w|, r and Phi at mu
        W = V - mu
        mag = np.abs(W)
        excess = np.maximum(mag - alpha, 0.0)
        r = (W * (excess / np.where(mag > 0, mag, 1.0))).sum(axis=0) - 1.0
        return W, mag, r, 0.5 * (excess * excess).sum(axis=0) + mu.real

    # |mean(v - mu)| = 1/n + alpha at the start, so some entry is active
    mu = (V.sum(axis=0) - 1.0) / n - alpha
    W, mag, r, phi = state(mu)
    for _ in range(_PROX_MAX_ITER):
        done = np.abs(r) <= tol
        if done.all():
            return mu
        active = mag > alpha
        m = np.where(active, mag, np.inf)  # active moduli; inf zeroes a and u elsewhere
        a, u = alpha / m, W / m
        k = active.sum(axis=0)
        c = k - 0.5 * a.sum(axis=0)
        q = (a * u * u).sum(axis=0)
        den = c * c - 0.25 * np.abs(q) ** 2
        delta = np.where(den > 0, (c * r - 0.5 * q * np.conj(r)) / np.where(den > 0, den, 1.0),
                         r / n)
        delta[done] = 0.0
        slope = 1e-4 * np.real(np.conj(r) * delta)  # Armijo share of Phi's descent rate
        d = mu - (V * active).sum(axis=0) / np.maximum(k, 1)  # mu - g
        rho = np.where(k > 0, np.abs(d), 0.0)  # 0: no circle, straight step
        inv = 1.0 / np.where(rho > 0, rho, np.inf)
        e = d * inv
        step = np.ones_like(phi)
        while True:
            # s = (s_r + i s_t) e; the arc point g + (rho + s_r) e exp(i s_t/rho)
            # is written as mu + s plus its offset, which is 0 on real data
            s = step * delta
            s_r, theta = np.real(s * np.conj(e)), np.imag(s * np.conj(e)) * inv
            t = s - s_r * e  # tangential part i s_t e
            sinc = np.sinc(theta / np.pi)
            bend = (-2.0 * np.sin(0.5 * theta) ** 2 * (rho + s_r) * e
                    + (s_r * inv * sinc + sinc - 1.0) * t)
            W1, mag1, r1, phi1 = state(mu + s + bend)
            ok = (np.abs(r1) < np.abs(r)) | (phi1 <= phi - step * slope)
            if ok.all() or step.min() < 1e-18:  # 60 halvings: below roundoff
                break
            step = np.where(ok, step, 0.5 * step)
        mu, W, mag, r, phi = mu + s + bend, W1, mag1, r1, phi1
    raise SolverError(f"affine-l1 prox multiplier not found in {_PROX_MAX_ITER} Newton steps",
                      residual=float(np.abs(r).max()), iteration=_PROX_MAX_ITER)


def _affine_l1_shift(V, alpha, n_l):
    """V minus the multiplier mu of each (column, block) of the blockwise prox
    of alpha||.||_1 + {per-block column sums = 1}: the prox is soft(W, alpha)
    and its active entries are |W| > alpha."""
    W = np.empty_like(V)
    for mb in range(V.shape[0] // n_l):
        Vm = V[mb * n_l : (mb + 1) * n_l]
        W[mb * n_l : (mb + 1) * n_l] = Vm - _affine_l1_multiplier(Vm, alpha)
    return W


def _snap_affine(Z, n_l):
    """Shift every block's columns to sum to 1; the shift is bounded by the
    multiplier solve tolerance."""
    Z3 = Z.reshape(-1, n_l, Z.shape[1])
    return (Z3 + (1.0 - Z3.sum(axis=1, keepdims=True)) / n_l).reshape(Z.shape)


def _prox_affine_l1(V, alpha, n_l):
    """Blockwise prox of alpha||.||_1 + {per-block column sums = 1}.

    V stacks M blocks of n_l rows; the affine equality is handled by one
    scalar multiplier per (column, block).  The result is snapped to exact
    feasibility."""
    return _snap_affine(_soft_complex(_affine_l1_shift(V, alpha, n_l), alpha), n_l)


def _components(x):
    """Real coordinates of a field array along a new axis 1: (Re, Im) for
    complex data, the array itself for real data."""
    return np.stack([x.real, x.imag], axis=1) if np.iscomplexobj(x) else x[:, None]


def _col_sq(x):
    return np.real(np.conj(x) * x).sum(axis=0)


def update_B(X_hat, model: FactorModel, lambda1: float, tau_B: float,
             inner_tol: float = 1e-8, inner_max: int = 500):
    """Dual semismooth Newton solve of the coefficient sub-task under the
    affine constraint 1^H B_m = 1^H:

        min 1/2||X - A B||^2 + lambda1||B||_1 + tau_B/2||B - B_hat||^2

    with A = D^(1)...D^(Q) K blockwise.  A = U P with P of r <= M d_1 rows,
    so each column has an r-dimensional dual, strongly concave for tau_B > 0
    (Li, Sun & Toh, SIAM J. Optim. 28(1), 2018), with primal point
    b(z) = prox(b_hat - P^H z / tau_B) (the prox of lambda1/tau_B ||.||_1
    and the constraint, so every iterate is exactly feasible) and gradient
    P b(z) - U^H x - z.  Newton steps solve (I + P J P^H / tau_B) d = grad
    per column, J the prox's generalized Jacobian, and backtrack to Armijo's
    rule; once Armijo's predicted gain is below roundoff, a step that lowers
    |grad| is taken instead.  The solve returns the last iterate once its
    proximal-gradient residual L||B - prox(B - grad f(B)/L)|| / max(1, ||B||)
    is <= inner_tol.  If it stops first, after inner_max Newton steps or three
    Newton steps that made no progress beyond roundoff, it returns each
    column's least-objective primal point so far, B_hat's if none did better
    (the objective splits by column), so f(B) <= f(B_hat).  Returns (blocks,
    stats): the Newton steps taken, the objective of the returned point as it
    was after each step (from B_hat on, non-increasing up to the final
    certified iterate), its residual and whether that met inner_tol."""
    dims = model.dims
    n_l, M = dims.n_landmarks, dims.n_kernels
    U, R = np.linalg.qr(np.concatenate([model.factors[m][0] for m in range(M)], axis=1))
    d_1 = R.shape[1] // M
    # D_m^(1) = U R_m, so A_m = U P_m with P_m = R_m D_m^(2)...D_m^(Q) K_m
    P = np.concatenate([reduce(np.matmul, [R[:, m * d_1 : (m + 1) * d_1], *model.factors[m][1:],
                                           model.kernels[m]]) for m in range(M)], axis=1)
    B_hat = np.concatenate(model.coeffs, axis=0)
    dtype = np.result_type(P, X_hat, B_hat)
    P, B_hat = P.astype(dtype, copy=False), B_hat.astype(dtype, copy=False)
    y = (U.conj().T @ X_hat).astype(dtype, copy=False)
    r, n = P.shape
    cols = y.shape[1]
    alpha = lambda1 / tau_B
    p_norm = math.sqrt(max(float(np.linalg.eigvalsh(P @ P.conj().T)[-1]), 0.0))
    lip = p_norm ** 2 + tau_B
    fit0 = 0.5 * float(np.vdot(X_hat, X_hat).real - np.vdot(y, y).real)  # the fit outside range(U)

    # P in real coordinates: Pt[(x, c), i, a] is component c of row x of P
    # applied to the unit a of entry i (1 or 1j)
    basis = (1.0, 1j) if np.iscomplexobj(P) else (1.0,)
    k = len(basis)
    Pt = np.stack([_components(e * P) for e in basis], axis=-1).reshape(k * r, n, k)
    batch = max(1, _NEWTON_BATCH // (k * r * n * k))  # columns per Newton batch

    def state(Z, j=slice(None)):  # b(z), its shifted point, grad phi and phi per column
        W = _affine_l1_shift(B_hat[:, j] - (P.conj().T @ Z) / tau_B, alpha, n_l)
        B = _snap_affine(_soft_complex(W, alpha), n_l)
        G = P @ B - y[:, j] - Z
        phi = (0.5 * tau_B * _col_sq(B - B_hat[:, j]) + lambda1 * np.abs(B).sum(axis=0)
               + np.real(np.conj(Z) * G).sum(axis=0) + 0.5 * _col_sq(Z))
        return Z, B, W, G, phi

    def objective(B, F):  # per column, less its fit outside range(U); F = P B - y
        return 0.5 * _col_sq(F) + lambda1 * np.abs(B).sum(axis=0) + 0.5 * tau_B * _col_sq(B - B_hat)

    def residual(B, F):
        grad = P.conj().T @ F + tau_B * (B - B_hat)
        gap = B - _prox_affine_l1(B - grad / lip, lambda1 / lip, n_l)
        return lip * float(np.linalg.norm(gap)) / max(1.0, float(np.linalg.norm(B)))

    def newton_matrices(T):
        # I + P J P^H / tau_B for a batch of columns, from the prox's per-entry
        # Jacobian blocks T (b, n, k, k): the sum of P~ T P~^T over the
        # entries, less F S^-1 F^T per block for its affine constraint, with
        # F = sum P~ T and S = sum T over the block
        b = len(T)
        PT = Pt[None, :, :, 0, None] * T[:, None, :, 0]  # (b, kr, n, k)
        for c in range(1, k):
            PT += Pt[None, :, :, c, None] * T[:, None, :, c]
        H = (PT.reshape(b * k * r, n * k) @ Pt.reshape(k * r, n * k).T).reshape(b, k * r, k * r)
        F = PT.reshape(b, k * r, M, n_l, k).sum(axis=3)
        S = T.reshape(b, M, n_l, k, k).sum(axis=2)
        for mb in range(M):
            H -= F[:, :, mb] @ np.linalg.solve(S[:, mb], F[:, :, mb].transpose(0, 2, 1))
        H /= tau_B
        H += np.eye(k * r)
        return H

    def newton_direction(W, g):
        # solves the Newton system per column (g in real coordinates).  Per
        # entry, the prox's Jacobian block is T = (1 - a) I + a u u^T on
        # active entries (a = alpha/|w|, u = w/|w| in real coordinates; T = 1
        # on real data), 0 elsewhere
        mag = np.abs(W)
        active = (mag > alpha) | (alpha == 0.0)
        m = np.where(mag > alpha, mag, np.inf)
        a = alpha / m
        u = _components(W) / m[:, None, :]
        T = ((active * (1.0 - a))[:, None, None, :] * np.eye(k)[None, :, :, None]
             + a[:, None, None, :] * u[:, :, None, :] * u[:, None, :, :])
        T = np.ascontiguousarray(T.transpose(3, 0, 1, 2))  # (cols, n, k, k)
        if alpha == 0.0:  # T = I everywhere: one matrix serves every column
            return np.linalg.solve(newton_matrices(T[:1])[0], g)
        d = np.empty((cols, k * r))
        for c0 in range(0, cols, batch):
            j = slice(c0, c0 + batch)
            d[j] = np.linalg.solve(newton_matrices(T[j]), g[:, j].T[..., None])[..., 0]
        return d.T

    Z, B, W, G, phi = state(P @ B_hat - y)
    # the returned point: the last iterate once it meets inner_tol, else each
    # column's least-objective primal point so far, from B_hat (feasible) on,
    # with its fit P B - y.  Near the solution the objective cannot rank the
    # iterates: with lambda1/tau_B = 3e3 an iterate at residual 7e-12 lay
    # 3e-13 (relative) above one at 3e-7.
    best, best_fit = B_hat.copy(), P @ B_hat - y
    best_obj = objective(best, best_fit)
    trace = [fit0 + float(best_obj.sum())]
    eps = np.finfo(float).eps
    it = idle = 0
    least, high = np.inf, phi.copy()
    while True:
        res, obj = residual(B, G + Z), objective(B, G + Z)
        take = np.full(cols, res <= inner_tol) | (obj <= best_obj)
        best[:, take], best_fit[:, take] = B[:, take], (G + Z)[:, take]
        best_obj = np.where(take, obj, best_obj)
        trace.append(fit0 + float(best_obj.sum()))
        # a Newton step is idle if it neither lowers the least residual nor
        # raises some column's phi beyond roundoff above its highest so far;
        # three in a row end the solve, stalled in roundoff
        rose = phi > high + 64 * eps * (1.0 + np.abs(high))
        idle = 0 if res < least or rose.any() else idle + 1
        least, high = min(least, res), np.maximum(high, phi)
        if res <= inner_tol or it == inner_max or idle == 3:
            break
        it += 1
        g = _components(G).reshape(k * r, cols)
        d_real = newton_direction(W, g)
        slope = (g * d_real).sum(axis=0)
        d_real = d_real.reshape(r, k, cols)
        d = d_real[:, 0] + 1j * d_real[:, 1] if k == 2 else d_real[:, 0]
        # |grad phi| cannot be lowered below its evaluation roundoff
        g_sq = np.maximum(_col_sq(G), (64 * eps * (1.0 + np.sqrt(_col_sq(y)) + np.sqrt(_col_sq(Z))
                                                  + p_norm * np.sqrt(_col_sq(B)))) ** 2)
        step = np.ones(cols)
        pending = np.arange(cols)
        while pending.size:
            s = step[pending]
            *trial, phi_t = state(Z[:, pending] + s * d[:, pending], pending)
            gain = s * slope[pending]
            ok = ((phi_t >= phi[pending] + 1e-4 * gain)
                  | ((gain < 64 * eps * (1.0 + np.abs(phi[pending])))
                     & (_col_sq(trial[3]) < g_sq[pending]))
                  | (s < 1e-18))  # 60 halvings: below roundoff
            done = pending[ok]
            for arr, new in zip((Z, B, W, G), trial):
                arr[:, done] = new[:, ok]
            phi[done] = phi_t[ok]
            pending = pending[~ok]
            step[pending] *= 0.5
    if not take.all():  # the returned point is not the last iterate
        res = residual(best, best_fit)
    B = best
    blocks = [B[m * n_l : (m + 1) * n_l] for m in range(M)]
    stats = {
        "iterations": it,
        "objective_trace": trace,
        "residual": res,
        "converged": res <= inner_tol,
    }
    return blocks, stats


def update_B_ridge(X_hat, model: FactorModel, lam: float, tau_B: float):
    """Closed-form coefficient update without the affine/l1 machinery
    (plain multi-layer factorization mode): Tikhonov on B."""
    dims = model.dims
    # block m's basis D_m^(1) ... D_m^(Q) K_m is the left wing of its B_m
    A = np.concatenate([chain_wings([*row, K, B], dims.depth + 1)[0] for row, K, B
                        in zip(model.factors, model.kernels, model.coeffs)], axis=1)
    sol = chain_link_solve(A, None, X_hat, np.concatenate(model.coeffs, axis=0),
                           lam + tau_B, tau_B)
    n_l = dims.n_landmarks
    return [sol[m * n_l : (m + 1) * n_l] for m in range(dims.n_kernels)]


# ---------------------------------------------------------------------------
# k-space sub-tasks
# ---------------------------------------------------------------------------

def soft_threshold(A, thr):
    """Entrywise magnitude shrinkage a * (1 - thr / max(thr, |a|))."""
    if thr < 0:
        raise InputError(f"threshold must be non-negative, got {thr}")
    return _soft_complex(np.asarray(A), thr)


def dmri_update_X(Y_kspace, pattern, prediction, K_prev, Z_hat,
                  lambda2: float, tau_X: float, frame_dims):
    """The k-space F2(X) of the exact minimizer of the k-space X sub-task, given
    the model's prediction and K_prev = F2(X_prev) (F2 is linear): closed
    form, then re-assignment of observed k-space entries."""
    i1, i2, i3 = frame_dims
    c_x = 1.0 / (1.0 + lambda2 * i3 + tau_X)
    K = fft2_frames(prediction + lambda2 * i3 * idft_temporal(Z_hat), i1, i2)
    K += tau_X * K_prev
    K *= c_x
    np.copyto(K, Y_kspace, where=pattern.mask)
    return K


def dmri_update_Z(W, Z_prev, lambda2: float, lambda3: float, tau_Z: float,
                  rule: str = "ratio"):
    """Soft-thresholding update of the temporal spectrum, given the spectrum
    W = Ft(X) of the current image sequence.

    rule="ratio":  Soft[Ft(X) + (tau_Z/lambda2) Z, lambda3/lambda2]
    rule="prox":   Soft[(lambda2 Ft(X) + tau_Z Z)/(lambda2+tau_Z),
                        lambda3/(lambda2+tau_Z)]  (exact proximal solution)
    """
    if lambda2 <= 0:
        raise InputError("lambda2 must be positive for the Z update")
    if rule == "ratio":
        return soft_threshold(W + (tau_Z / lambda2) * Z_prev, lambda3 / lambda2)
    if rule == "prox":
        return soft_threshold(
            (lambda2 * W + tau_Z * Z_prev) / (lambda2 + tau_Z),
            lambda3 / (lambda2 + tau_Z),
        )
    raise InputError(f"unknown z rule {rule!r}")


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

def smoothness_penalty(X, L_sob, delta):
    XD = X @ delta
    return float(np.real(np.sum(np.conj(XD) * (L_sob @ XD))))


def full_objective(problem, X, model, prediction, config, graph=None, Z=None, spectrum=None):
    """Value of the full (loss + regularizer) objective at the iterate, given
    the model's prediction and, on k-space, the spectrum Ft(X)."""
    resid = X - prediction
    val = 0.5 * float(np.vdot(resid, resid).real)
    lam_tik = config.lambda2 if problem == TVGS else config.lambda4
    tik = sum(float(np.vdot(d, d).real) for row in model.factors for d in row)
    b_all = np.concatenate(model.coeffs, axis=0)
    if model.mmf:
        tik += float(np.vdot(b_all, b_all).real)
    val += 0.5 * lam_tik * tik
    if not model.mmf:
        val += config.lambda1 * float(np.abs(b_all).sum())
    if problem == TVGS:
        val += 0.5 * config.lambda_L * smoothness_penalty(X, graph.L_sobolev, graph.delta)
    else:
        spec_resid = Z - spectrum
        val += 0.5 * config.lambda2 * float(np.vdot(spec_resid, spec_resid).real)
        val += config.lambda3 * float(np.abs(Z).sum())
    return val


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------

def affine_residual(model: FactorModel) -> float:
    """Worst deviation of a block's column sums from 1; 0 for the mmf
    reduction, which imposes no affine constraint."""
    if model.mmf:
        return 0.0
    worst = 0.0
    for b in model.coeffs:
        worst = max(worst, float(np.max(np.abs(b.sum(axis=0) - 1.0))))
    return worst


def consistency_residual(A, pattern, S_y) -> float:
    """Worst deviation of A from the observations S_y on the mask."""
    mask = pattern.mask
    return float(np.max(np.abs(A[mask] - S_y[mask]), initial=0.0))


def sca_loop(config: SolverConfig, pattern, S_y, state, best_response, evaluate):
    """The SCA outer loop every model runs, on iterates that are tuples whose
    first element is the estimate in the data's domain.  Each iterate is
    evaluated once, ``evaluate(state) -> (objective, consistency, affine
    residual, seen)``; ``seen`` holds what the evaluation computed that the
    best responses reuse, such as the model's prediction.  Iteration n takes
    the best responses ``best_response(state, seen) -> (half, stats)``, all
    conditioned on the current point, mixes them in place into
    sca_extrapolate(state, half, gamma_n), gamma_n from sca_step_schedule,
    and re-pins the first element to S_y on the mask.  It records the
    evaluation of the new point and the stats: ``cg_iters``, ``b_inner_iters``
    and ``b_residual`` (0 if absent) and a ``warning``.  The loop stops after
    config.outer_iters iterations or once the relative objective change is
    below config.tol_objective.  A non-finite objective raises SolverError,
    at iteration 1 for the starting point.  Returns (state, seen, report)."""
    def finite(evaluation, n):
        if not math.isfinite(evaluation[0]):
            raise SolverError(f"objective became non-finite at outer iteration {n}",
                              iteration=n)
        return evaluation

    obj_prev, _, _, seen = finite(evaluate(state), 1)
    report = SolveReport(initial_objective=obj_prev)
    gamma = config.gamma0
    for n in range(1, config.outer_iters + 1):
        t0 = time.perf_counter()
        gamma = sca_step_schedule(gamma, config.zeta)
        half, stats = best_response(state, seen)
        if "warning" in stats:
            report.warnings.append(f"iter {n}: {stats['warning']}")
        state = sca_extrapolate(state, half, gamma)
        np.copyto(state[0], S_y, where=pattern.mask)
        obj, cons, affine, seen = finite(evaluate(state), n)
        report.objective.append(obj)
        report.consistency.append(cons)
        report.affine_residual.append(affine)
        report.b_inner_iters.append(stats.get("b_inner_iters", 0))
        report.b_residual.append(stats.get("b_residual", 0.0))
        report.cg_iters.append(stats.get("cg_iters", 0))
        report.gammas.append(gamma)
        report.seconds.append(time.perf_counter() - t0)
        if abs(obj - obj_prev) / max(1.0, abs(obj_prev)) < config.tol_objective:
            report.converged = True
            break
        obj_prev = obj
    return state, seen, report


def _problem_operators(problem, operators):
    """(graph, frame dims), one of them None; InputError for the wrong operators."""
    if problem == TVGS:
        if not isinstance(operators, GraphOperators):
            raise InputError("graph-signal problem needs GraphOperators")
        return operators, None
    if problem != DMRI:
        raise InputError(f"unknown problem {problem!r}")
    if not (isinstance(operators, (tuple, list)) and len(operators) == 3):
        raise InputError("k-space problem needs (I1, I2, I3) dims")
    return None, tuple(operators)


def solve_from_model(problem, Y, pattern, operators, model0: FactorModel,
                     config: SolverConfig):
    """Run the outer loop from a prepared model on iterates (K, factors,
    coeffs, Z), K = X or, on k-space, F2(X); returns (X, model, report)."""
    graph, frame_dims = _problem_operators(problem, operators)
    S_y = apply_sampling(pattern, Y)
    lam_tik = config.lambda2 if problem == TVGS else config.lambda4
    dims, kernels, mmf = model0.dims, model0.kernels, model0.mmf

    def model(factors, coeffs):
        return FactorModel(dims, factors, kernels, coeffs, mmf)

    def best_response(state, seen):
        K, factors, coeffs, Z = state
        X, prediction, spectrum = seen
        current = model(factors, coeffs)
        stats = {}
        if problem == TVGS:
            K_half, stats["cg_iters"] = tvgs_update_X(
                Y, pattern, prediction, X, graph, config.lambda_L, config.tau_X,
                config.cg_tol, config.cg_max, band,
            )
            Z_half = None
        else:
            K_half = dmri_update_X(Y, pattern, prediction, K, Z, config.lambda2,
                                   config.tau_X, frame_dims)
            Z_half = dmri_update_Z(spectrum, Z, config.lambda2, config.lambda3,
                                   config.tau_Z, config.z_rule)
        by_layer = [update_factor(q, X, current, lam_tik, config.tau_D)
                    for q in range(dims.depth)]
        if mmf:
            coeffs_half = update_B_ridge(X, current, lam_tik, config.tau_B)
        else:
            coeffs_half, b_stats = update_B(X, current, config.lambda1, config.tau_B,
                                            config.inner_tol, config.inner_max)
            b_iters = stats["b_inner_iters"] = b_stats["iterations"]
            b_res = stats["b_residual"] = b_stats["residual"]
            if not b_stats["converged"]:
                how = ("hit the cap of" if b_iters == config.inner_max
                       else "stalled in roundoff after")
                stats["warning"] = (f"B inner solve {how} {b_iters} Newton steps "
                                    f"at residual {b_res:.3e}")
        return (K_half, [list(row) for row in zip(*by_layer)], coeffs_half, Z_half), stats

    def evaluate(state):
        K, factors, coeffs, Z = state
        # first, so its temporaries are freed before the carried arrays are
        # made: dmri-radial then takes 37k page faults a solve, not 50k
        cons = consistency_residual(K, pattern, S_y)
        current = model(factors, coeffs)
        X = K if problem == TVGS else ifft2_frames(K, *frame_dims[:2])
        prediction = predict(current)
        spectrum = None if problem == TVGS else dft_temporal(X)
        obj = full_objective(problem, X, current, prediction, config, graph=graph, Z=Z,
                             spectrum=spectrum)
        return obj, cons, affine_residual(current), (X, prediction, spectrum)

    # factored once per solve: every X update shares the mask, graph and weights
    band = (free_band_factor(pattern, graph, config.lambda_L, config.tau_X)
            if problem == TVGS else None)
    # the loop mixes into the best responses' arrays only: model0 is never written
    K0 = S_y.astype(np.result_type(S_y.dtype, model0.coeffs[0].dtype), copy=False)
    Z0 = None if problem == TVGS else dft_temporal(ifft2_frames(K0, *frame_dims[:2]))
    (_, factors, coeffs, _), (X, _, _), report = sca_loop(
        config, pattern, S_y, (K0, model0.factors, model0.coeffs, Z0), best_response, evaluate)
    if problem == DMRI:  # K is pinned exactly; the last row records the returned X's residual
        report.consistency[-1] = consistency_residual(fft2_frames(X, *frame_dims[:2]),
                                                      pattern, S_y)
    return X, model(factors, coeffs), report


def solve(problem, Y, pattern: SamplingPattern, operators, landmarks: LandmarkSet,
          kernel_specs: list[KernelSpec], dims: ModelDims, config: SolverConfig):
    """Assemble kernel matrices from the landmarks, draw the initial factors
    and run the outer loop.  Returns (X, model, report)."""
    _, frame_dims = _problem_operators(problem, operators)
    S_y = apply_sampling(pattern, Y)
    if len(kernel_specs) != dims.n_kernels:
        raise InputError(
            f"{dims.n_kernels} kernels declared but {len(kernel_specs)} specs given"
        )
    if landmarks.count != dims.n_landmarks:
        raise InputError(
            f"landmark set has {landmarks.count} points, dims expect {dims.n_landmarks}"
        )
    kmats = [build_kernel_matrix(landmarks.points, s) for s in kernel_specs]
    # one field for the whole model: real data on real kernels stays real
    dtype = np.result_type(np.float64, Y, *kmats)
    kernels = [k.astype(dtype) for k in kmats]
    model0 = init_factors(dims, config.seed, dtype, kernels)
    # match the initial prediction's energy to the zero-filled iterate so the
    # first half-steps are not dominated by the random draw's scale
    X0 = S_y if problem == TVGS else ifft2_frames(S_y, frame_dims[0], frame_dims[1])
    pred_norm = float(np.linalg.norm(predict(model0)))
    if pred_norm > 0:
        ratio = float(np.linalg.norm(X0)) / pred_norm
        for m in range(dims.n_kernels):
            model0.factors[m][0] = model0.factors[m][0] * ratio
    return solve_from_model(problem, Y, pattern, operators, model0, config)
