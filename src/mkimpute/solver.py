"""Outer successive-convex-approximation loop and its convex sub-task solvers.

Every outer iteration solves all sub-tasks from the *current* iterate
(parallel/Jacobi conditioning), then extrapolates the whole variable tuple
with a diminishing step gamma_{n+1} = gamma_n (1 - zeta * gamma_n):

    O^(n+1) = gamma_{n+1} O^(n+1/2) + (1 - gamma_{n+1}) O^(n)

Two problem flavors share the machinery: the graph-signal problem keeps
observed matrix entries fixed and penalizes spatio-temporal roughness; the
k-space problem keeps observed k-space entries fixed and penalizes the
temporal spectrum of the image sequence.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, SolverError
from .graphs import GraphOperators
from .kernels import KernelSpec, build_kernel_matrix
from .model import FactorModel, ModelDims, SolverConfig, init_factors, predict
from .mri import dft_temporal, fft2_frames, idft_temporal, ifft2_frames
from .navigators import LandmarkSet
from .sampling import SamplingPattern

TVGS = "tvgs"
DMRI = "dmri"

_TINY = 1e-300


# ---------------------------------------------------------------------------
# schedule and extrapolation
# ---------------------------------------------------------------------------

def sca_step_schedule(gamma: float, zeta: float) -> float:
    """gamma_{n+1} = gamma_n (1 - zeta * gamma_n); strictly decreasing, positive."""
    if not 0.0 < gamma <= 1.0:
        raise InputError(f"gamma must lie in (0, 1], got {gamma}")
    if not 0.0 < zeta < 1.0:
        raise InputError(f"zeta must lie in (0, 1), got {zeta}")
    return gamma * (1.0 - zeta * gamma)


@dataclass
class IterateTuple:
    """One point of the solver trajectory."""

    X: np.ndarray
    model: FactorModel
    Z: np.ndarray | None = None
    gamma: float = 1.0


def sca_extrapolate(current: IterateTuple, half: IterateTuple, gamma: float) -> IterateTuple:
    """Componentwise convex combination of every variable in the tuple."""
    model = current.model.copy()
    for m in range(model.dims.n_kernels):
        for q in range(model.dims.depth):
            model.factors[m][q] = (
                gamma * half.model.factors[m][q] + (1.0 - gamma) * current.model.factors[m][q]
            )
        model.coeffs[m] = gamma * half.model.coeffs[m] + (1.0 - gamma) * current.model.coeffs[m]
    Z = None
    if current.Z is not None:
        Z = gamma * half.Z + (1.0 - gamma) * current.Z
    X = gamma * half.X + (1.0 - gamma) * current.X
    return IterateTuple(X=X, model=model, Z=Z, gamma=gamma)


@dataclass
class SolveReport:
    """Per-outer-iteration trace; list lengths equal the iterations run."""

    problem: str
    initial_objective: float = 0.0
    objective: list[float] = field(default_factory=list)
    consistency: list[float] = field(default_factory=list)
    affine_residual: list[float] = field(default_factory=list)
    b_inner_iters: list[int] = field(default_factory=list)
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
                        "constraint_residual", "seconds"])
            for i in range(self.iterations):
                w.writerow([i + 1, repr(self.objective[i]), repr(self.consistency[i]),
                            repr(self.affine_residual[i]), repr(self.seconds[i])])


# ---------------------------------------------------------------------------
# conjugate gradient on masked matrices
# ---------------------------------------------------------------------------

def _cg_masked(apply_op, b, x0, tol, max_iter):
    """CG for a Hermitian positive definite operator acting on matrices whose
    support is a fixed mask (both b and x0 already restricted)."""
    x = x0.copy()
    r = b - apply_op(x)
    p = r.copy()
    rs = float(np.vdot(r, r).real)
    b_norm = math.sqrt(float(np.vdot(b, b).real))
    if b_norm == 0.0:
        return np.zeros_like(b), 0.0, 0
    it = 0
    while math.sqrt(rs) / b_norm > tol and it < max_iter:
        Ap = apply_op(p)
        alpha = rs / float(np.vdot(p, Ap).real)
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(np.vdot(r, r).real)
        p = r + (rs_new / rs) * p
        rs = rs_new
        it += 1
    return x, math.sqrt(rs) / b_norm, it


# ---------------------------------------------------------------------------
# X sub-task, graph flavor
# ---------------------------------------------------------------------------

def _cg_cap(L_sob, lambda_L, tau_X, tol, n_free):
    """Iteration cap for the X-update CG from its convergence bound
    (sqrt(kappa)/2) ln(2 sqrt(kappa)/tol), floored at 10 sqrt(n_free) + 10.

    The restricted operator's spectrum lies in [1 + tau_X, 1 + tau_X +
    lambda_L lam_max(S) lam_max(DD^T)]; lam_max(S) is bounded by Gershgorin
    and lam_max(DD^T) <= 4 for the one-step difference."""
    floor = 10 * math.ceil(math.sqrt(max(n_free, 1))) + 10
    if not tol > 0:
        return floor  # the bound needs a positive tolerance
    lam_s = float(np.max(np.abs(L_sob).sum(axis=1)))
    root_kappa = math.sqrt(1.0 + lambda_L * lam_s * 4.0 / (1.0 + tau_X))
    return max(floor, math.ceil(0.5 * root_kappa * math.log(2.0 * root_kappa / tol)))


def consistent_smooth_solve(Y, pattern, target, X_prev, L_sob, delta, lambda_L, tau_X,
                            cg_tol=1e-9, cg_max=None):
    """Minimize 1/2||X - target||^2 + lambda_L/2 tr(X^T S X DD^T) +
    tau_X/2||X - X_prev||^2 subject to exact agreement with Y on the mask.

    Observed entries are assigned from Y; the complement solves a restricted
    SPD system, applied matrix-free (never materializing the Kronecker form).
    Returns (X, cg_iterations).
    """
    obs = pattern.mask
    free = ~obs
    S_y = np.where(obs, Y, 0)
    rhs_mat = target + tau_X * X_prev
    if lambda_L == 0.0:
        return np.where(obs, Y, rhs_mat / (1.0 + tau_X)), 0
    ddt = delta @ delta.T
    b = np.where(free, -lambda_L * (L_sob @ S_y @ ddt) + rhs_mat, 0)

    def apply_op(V):
        return np.where(free, (1.0 + tau_X) * V + lambda_L * (L_sob @ V @ ddt), 0)

    if cg_max is None:
        cg_max = _cg_cap(L_sob, lambda_L, tau_X, cg_tol, int(free.sum()))
    x0 = np.where(free, X_prev, 0).astype(b.dtype)
    V, res, iters = _cg_masked(apply_op, b, x0, cg_tol, cg_max)
    if not res <= cg_tol:  # also catches a NaN residual
        raise SolverError(
            f"X-update CG stalled at relative residual {res:.3e} after {iters} iterations",
            residual=res, iteration=iters,
        )
    return S_y + np.where(free, V, 0), iters


def tvgs_update_X(Y, pattern, model, X_prev, graph: GraphOperators, lambda_L, tau_X,
                  cg_tol=1e-9, cg_max=None):
    """Closed-form/CG solution of the consistency-constrained X sub-task."""
    return consistent_smooth_solve(
        Y, pattern, predict(model), X_prev, graph.L_sobolev, graph.delta,
        lambda_L, tau_X, cg_tol, cg_max,
    )


# ---------------------------------------------------------------------------
# factor (D) sub-task
# ---------------------------------------------------------------------------

def _chain(mats):
    out = mats[0]
    for a in mats[1:]:
        out = out @ a
    return out


def factor_wings(model: FactorModel, q_index: int):
    """Per-block left products L_m (None = identity for the first factor) and
    right products R_m = D^(q+1)...D^(Q) K_m B_m."""
    lefts, rights = [], []
    for m in range(model.dims.n_kernels):
        row = model.factors[m]
        lefts.append(_chain(row[:q_index]) if q_index > 0 else None)
        tail = list(row[q_index + 1 :]) + [model.kernels[m], model.coeffs[m]]
        rights.append(_chain(tail))
    return lefts, rights


def _sylvester_pd(G, H, C, c):
    """Solve G D H + c D = C with G, H Hermitian PSD via eigendecompositions."""
    a, U = np.linalg.eigh(G)
    b, V = np.linalg.eigh(H)
    num = U.conj().T @ C @ V
    return U @ (num / (a[:, None] * b[None, :] + c)) @ V.conj().T


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
    return _sylvester_pd(G, H, C, c)


def _coupled_block_solve(lefts, rights, X_hat, D_hats, c, tau):
    """Exact solve of the support-restricted normal equations for the
    block-diagonal factor:  sum_m' G_{m m'} D_{m'} H_{m' m} + c D_m = C_m.

    The blocks couple through the shared residual, so the stacked system is
    assembled densely; block sizes are small by design."""
    M = len(lefts)
    p, r = D_hats[0].shape
    n = p * r
    A = np.zeros((M * n, M * n), dtype=np.result_type(X_hat.dtype, lefts[0].dtype))
    rhs = np.zeros(M * n, dtype=A.dtype)
    for m in range(M):
        Cm = lefts[m].conj().T @ X_hat @ rights[m].conj().T + tau * D_hats[m]
        rhs[m * n : (m + 1) * n] = Cm.ravel(order="F")
        for mp in range(M):
            G = lefts[m].conj().T @ lefts[mp]
            H = rights[mp] @ rights[m].conj().T
            A[m * n : (m + 1) * n, mp * n : (mp + 1) * n] = np.kron(H.T, G)
    A += c * np.eye(M * n, dtype=A.dtype)
    u = np.linalg.solve(A, rhs)
    return [u[m * n : (m + 1) * n].reshape(p, r, order="F") for m in range(M)]


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
    if model.dims.n_kernels == 1:
        return [chain_link_solve(lefts[0], rights[0], X_hat, D_hats[0], c, tau)]
    return _coupled_block_solve(lefts, rights, X_hat, D_hats, c, tau)


def tvgs_update_D(q: int, X_hat, model: FactorModel, lambda2: float, tau_D: float):
    """Factor update for 1-based layer index q (spec-facing wrapper)."""
    if not 1 <= q <= model.dims.depth:
        raise InputError(f"layer index {q} outside 1..{model.dims.depth}")
    return update_factor(q - 1, X_hat, model, lambda2, tau_D)


# ---------------------------------------------------------------------------
# coefficient (B) sub-task
# ---------------------------------------------------------------------------

def _soft_complex(A, thr):
    mag = np.abs(A)
    with np.errstate(invalid="ignore", divide="ignore"):
        scale = np.where(mag <= thr, 0.0, 1.0 - thr / np.where(mag > 0, mag, 1.0))
    return A * scale


_PROX_MAX_ITER = 100  # Newton steps of the multiplier solve


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


def _prox_affine_l1(V, alpha, n_l):
    """Blockwise prox of alpha||.||_1 + {per-block column sums = 1}.

    V stacks M blocks of n_l rows; the affine equality is handled by one
    scalar multiplier per (column, block).  The result is snapped to exact
    feasibility (the snap is bounded by the multiplier solve tolerance)."""
    out = np.empty_like(V)
    blocks = V.shape[0] // n_l
    for mb in range(blocks):
        Vm = V[mb * n_l : (mb + 1) * n_l]
        if alpha == 0.0:
            Z = Vm + (1.0 - Vm.sum(axis=0)) / n_l
        else:
            Z = _soft_complex(Vm - _affine_l1_multiplier(Vm, alpha), alpha)
            Z = Z + (1.0 - Z.sum(axis=0)) / n_l
        out[mb * n_l : (mb + 1) * n_l] = Z
    return out


def update_B(X_hat, model: FactorModel, lambda1: float, tau_B: float,
             inner_tol: float = 1e-8, inner_max: int = 500):
    """Monotone accelerated proximal-gradient solve of the coefficient
    sub-task under the affine constraint 1^H B_m = 1^H:

        min 1/2||X - A B||^2 + lambda1||B||_1 + tau_B/2||B - B_hat||^2

    with A = D^(1)...D^(Q) K blockwise.  Iterates stay exactly feasible; the
    recorded objective trace is non-increasing by construction.  Returns
    (blocks, stats) where stats carries iterations, trace and the final
    proximal-gradient residual."""
    dims = model.dims
    n_l = dims.n_landmarks
    A = np.concatenate([model.block_basis(m) for m in range(dims.n_kernels)], axis=1)
    B_hat = np.concatenate(model.coeffs, axis=0)
    G = A.conj().T @ A
    C = A.conj().T @ X_hat
    x_sq = 0.5 * float(np.vdot(X_hat, X_hat).real)
    spec_g = np.linalg.eigvalsh(G)
    lip = float(spec_g[-1].real) + tau_B
    mu = tau_B + max(0.0, float(spec_g[0].real))  # tau makes the smooth part strongly convex
    momentum = (math.sqrt(lip) - math.sqrt(mu)) / (math.sqrt(lip) + math.sqrt(mu))
    step = 1.0 / lip
    alpha = step * lambda1

    def smooth_grad(B):
        return G @ B - C + tau_B * (B - B_hat)

    def objective(B):
        quad = x_sq - float(np.vdot(C, B).real) + 0.5 * float(np.vdot(B, G @ B).real)
        prox_term = 0.5 * tau_B * float(np.vdot(B - B_hat, B - B_hat).real)
        return quad + prox_term + lambda1 * float(np.abs(B).sum())

    # start from the better of the previous blocks and the l1-free KKT point
    # (the latter is exact for lambda1 = 0 and close for small weights)
    M = dims.n_kernels
    E = np.zeros((M, M * n_l), dtype=G.dtype)
    for m in range(M):
        E[m, m * n_l : (m + 1) * n_l] = 1.0
    kkt = np.zeros((M * n_l + M, M * n_l + M), dtype=G.dtype)
    kkt[: M * n_l, : M * n_l] = G + tau_B * np.eye(M * n_l, dtype=G.dtype)
    kkt[: M * n_l, M * n_l :] = E.conj().T
    kkt[M * n_l :, : M * n_l] = E
    rhs = np.concatenate([C + tau_B * B_hat,
                          np.ones((M, B_hat.shape[1]), dtype=G.dtype)], axis=0)
    B_kkt = np.linalg.solve(kkt, rhs)[: M * n_l]
    B_kkt = _prox_affine_l1(B_kkt, 0.0, n_l)  # snap the equality exactly

    B = B_hat.copy()
    f_b = objective(B)
    f_kkt = objective(B_kkt)
    if f_kkt < f_b:
        B, f_b = B_kkt, f_kkt
    Yk = B.copy()
    trace = [f_b]
    residual = np.inf
    it = 0
    check_every = 8  # KKT residual probes are as costly as a full step
    for it in range(1, inner_max + 1):
        Zk = _prox_affine_l1(Yk - step * smooth_grad(Yk), alpha, n_l)
        f_z = objective(Zk)
        B_prev = B
        if f_z <= f_b:
            B, f_b = Zk, f_z
        else:
            # guaranteed-descent plain proximal step when the accelerated
            # candidate loses (keeps the trace non-increasing and the iterate
            # contracting even when objective differences drown in roundoff)
            pg = _prox_affine_l1(B - step * smooth_grad(B), alpha, n_l)
            B, f_b = pg, objective(pg)
        Yk = B + momentum * (B - B_prev)
        trace.append(f_b)
        if it % check_every == 0 or it == inner_max:
            pg = _prox_affine_l1(B - step * smooth_grad(B), alpha, n_l)
            residual = float(np.linalg.norm(B - pg)) / (
                step * max(1.0, float(np.linalg.norm(B)))
            )
            if residual <= inner_tol:
                break
    blocks = [B[m * n_l : (m + 1) * n_l] for m in range(dims.n_kernels)]
    stats = {
        "iterations": it,
        "objective_trace": trace,
        "residual": residual,
        "converged": residual <= inner_tol,
    }
    return blocks, stats


def update_B_ridge(X_hat, model: FactorModel, lam: float, tau_B: float):
    """Closed-form coefficient update without the affine/l1 machinery
    (plain multi-layer factorization mode): Tikhonov on B."""
    dims = model.dims
    A = np.concatenate([model.block_basis(m) for m in range(dims.n_kernels)], axis=1)
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


def dmri_update_X(Y_kspace, pattern, model: FactorModel, X_prev, Z_hat,
                  lambda2: float, tau_X: float, frame_dims):
    """Exact minimizer of the k-space X sub-task: unconstrained closed form,
    then re-assignment of observed k-space entries."""
    i1, i2, i3 = frame_dims
    c_x = 1.0 / (1.0 + lambda2 * i3 + tau_X)
    quarter = c_x * (predict(model) + lambda2 * i3 * idft_temporal(Z_hat) + tau_X * X_prev)
    K = fft2_frames(quarter, i1, i2)
    K = np.where(pattern.mask, Y_kspace, K)
    return ifft2_frames(K, i1, i2)


def dmri_update_Z(X_hat, Z_prev, lambda2: float, lambda3: float, tau_Z: float,
                  rule: str = "ratio"):
    """Soft-thresholding update of the temporal spectrum.

    rule="ratio":  Soft[Ft(X) + (tau_Z/lambda2) Z, lambda3/lambda2]
    rule="prox":   Soft[(lambda2 Ft(X) + tau_Z Z)/(lambda2+tau_Z),
                        lambda3/(lambda2+tau_Z)]  (exact proximal solution)
    """
    if lambda2 <= 0:
        raise InputError("lambda2 must be positive for the Z update")
    W = dft_temporal(X_hat)
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


def full_objective(problem, X, model, config: SolverConfig, graph=None, Z=None):
    """Value of the full (loss + regularizer) objective at the iterate."""
    resid = X - predict(model)
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
        spec_resid = Z - dft_temporal(X)
        val += 0.5 * config.lambda2 * float(np.vdot(spec_resid, spec_resid).real)
        val += config.lambda3 * float(np.abs(Z).sum())
    return val


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------

def _check_finite(arr, what, iteration):
    if not np.all(np.isfinite(arr)):
        raise SolverError(f"{what} became non-finite at outer iteration {iteration}",
                          iteration=iteration)


def affine_residual(model: FactorModel) -> float:
    """Worst deviation of a block's column sums from 1; 0 for the mmf
    reduction, which imposes no affine constraint."""
    if model.mmf:
        return 0.0
    worst = 0.0
    for b in model.coeffs:
        worst = max(worst, float(np.max(np.abs(b.sum(axis=0) - 1.0))))
    return worst


def solve_from_model(problem, Y, pattern, operators, model0: FactorModel,
                     config: SolverConfig):
    """Run the outer loop from a prepared model; returns (X, model, report)."""
    if problem not in (TVGS, DMRI):
        raise InputError(f"unknown problem {problem!r}")
    graph = None
    frame_dims = None
    if problem == TVGS:
        graph = operators
        if not isinstance(graph, GraphOperators):
            raise InputError("graph-signal problem needs GraphOperators")
    else:
        frame_dims = tuple(operators)
        if len(frame_dims) != 3:
            raise InputError("k-space problem needs (I1, I2, I3) dims")

    S_y = np.where(pattern.mask, Y, 0)
    if problem == TVGS:
        X = S_y.astype(np.result_type(S_y.dtype, model0.coeffs[0].dtype))
        Z = None
    else:
        X = ifft2_frames(S_y, frame_dims[0], frame_dims[1])
        Z = dft_temporal(X)
    model = model0.copy()
    report = SolveReport(problem=problem)
    report.initial_objective = full_objective(problem, X, model, config, graph=graph, Z=Z)
    gamma = config.gamma0
    lam_tik = config.lambda2 if problem == TVGS else config.lambda4
    obj_prev = report.initial_objective

    for n in range(config.outer_iters):
        t0 = time.perf_counter()
        _check_finite(X, "X", n + 1)
        gamma = sca_step_schedule(gamma, config.zeta)

        # half iterates, all conditioned on the current tuple
        cg_iters = 0
        if problem == TVGS:
            X_half, cg_iters = tvgs_update_X(
                Y, pattern, model, X, graph, config.lambda_L, config.tau_X,
                config.cg_tol, config.cg_max,
            )
            Z_half = None
        else:
            X_half = dmri_update_X(Y, pattern, model, X, Z, config.lambda2,
                                   config.tau_X, frame_dims)
            Z_half = dmri_update_Z(X, Z, config.lambda2, config.lambda3,
                                   config.tau_Z, config.z_rule)
        half = model.copy()
        for q in range(model.dims.depth):
            new_blocks = update_factor(q, X, model, lam_tik, config.tau_D)
            for m in range(model.dims.n_kernels):
                half.factors[m][q] = new_blocks[m]
        if model.mmf:
            half.coeffs = update_B_ridge(X, model, lam_tik, config.tau_B)
            b_iters = 0
        else:
            half.coeffs, b_stats = update_B(X, model, config.lambda1, config.tau_B,
                                            config.inner_tol, config.inner_max)
            b_iters = b_stats["iterations"]
            if not b_stats["converged"]:
                report.warnings.append(
                    f"iter {n + 1}: B inner solve hit the cap at residual "
                    f"{b_stats['residual']:.3e}"
                )

        nxt = sca_extrapolate(
            IterateTuple(X=X, model=model, Z=Z),
            IterateTuple(X=X_half, model=half, Z=Z_half),
            gamma,
        )
        X, model, Z = nxt.X, nxt.model, nxt.Z
        if problem == TVGS:
            # the convex combination fixes observed entries in exact arithmetic;
            # re-pin them to keep the residual identically zero in floats
            X = np.where(pattern.mask, S_y, X)

        obj = full_objective(problem, X, model, config, graph=graph, Z=Z)
        _check_finite(obj, "objective", n + 1)
        if problem == TVGS:
            cons = float(np.max(np.abs(np.where(pattern.mask, X, 0) - S_y), initial=0.0))
        else:
            K = fft2_frames(X, frame_dims[0], frame_dims[1])
            cons = float(np.max(np.abs(np.where(pattern.mask, K, 0) - S_y), initial=0.0))

        report.objective.append(obj)
        report.consistency.append(cons)
        report.affine_residual.append(affine_residual(model))
        report.b_inner_iters.append(b_iters)
        report.cg_iters.append(cg_iters)
        report.gammas.append(gamma)
        report.seconds.append(time.perf_counter() - t0)

        if abs(obj - obj_prev) / max(1.0, abs(obj_prev)) < config.tol_objective:
            report.converged = True
            break
        obj_prev = obj

    return X, model, report


def solve(problem, Y, pattern: SamplingPattern, operators, landmarks: LandmarkSet,
          kernel_specs: list[KernelSpec], dims: ModelDims, config: SolverConfig):
    """Assemble kernel matrices from the landmarks, draw the initial factors
    and run the outer loop.  Returns (X, model, report)."""
    if len(kernel_specs) != dims.n_kernels:
        raise InputError(
            f"{dims.n_kernels} kernels declared but {len(kernel_specs)} specs given"
        )
    if landmarks.count != dims.n_landmarks:
        raise InputError(
            f"landmark set has {landmarks.count} points, dims expect {dims.n_landmarks}"
        )
    kmats = [build_kernel_matrix(landmarks.points, s).entries for s in kernel_specs]
    # one field for the whole model: real data on real kernels stays real
    dtype = np.result_type(np.float64, Y, *kmats)
    kernels = [k.astype(dtype) for k in kmats]
    model0 = init_factors(dims, config.seed, dtype, kernels)
    # match the initial prediction's energy to the zero-filled iterate so the
    # first half-steps are not dominated by the random draw's scale
    S_y = np.where(pattern.mask, Y, 0)
    X0 = S_y if problem == TVGS else ifft2_frames(S_y, operators[0], operators[1])
    pred_norm = float(np.linalg.norm(predict(model0)))
    if pred_norm > 0:
        ratio = float(np.linalg.norm(X0)) / pred_norm
        for m in range(dims.n_kernels):
            model0.factors[m][0] = model0.factors[m][0] * ratio
    return solve_from_model(problem, Y, pattern, operators, model0, config)
