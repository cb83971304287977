"""Dense brute-force oracles for the sub-task solvers.

Every routine here re-derives the optimality system from scratch (explicit
Kronecker matrices, bordered KKT systems, affine residual stacking) so the
fast block implementations are checked against an independent path.  The
analytic sub-task gradients, the multi-layer factorization reduction check,
the exact sort-based multiplier of the real affine-l1 prox, pointwise kernel
evaluation, the block-diagonal kernel supermatrix, the 1-based factor
update wrapper, the per-spoke radial rasterizer, the per-node kNN loop,
scipy.signal's "valid" convolution and scipy.spatial's pairwise distances
live here too: they exist only to verify the engine.
"""

import copy
import math

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.lapack import dpbtrf
from scipy.signal import convolve2d
from scipy.spatial.distance import pdist

from mkimpute.errors import InputError, SolverError
from mkimpute.graphs import build_graph_operators
from mkimpute.kernels import GAUSSIAN, LINEAR, KernelSpec
from mkimpute.model import FactorModel, ModelDims, SolverConfig, init_factors
from mkimpute.mri import dft_temporal, idft_temporal, ifft2_frames
from mkimpute.sampling import sample_p1
from mkimpute.solver import (
    TVGS,
    factor_wings,
    sca_step_schedule,
    solve_from_model,
    update_factor,
)


def _chain(mats):
    out = mats[0]
    for a in mats[1:]:
        out = out @ a
    return out


def block_basis(model: FactorModel, m: int) -> np.ndarray:
    """A_m = D_m^(1) ... D_m^(Q) K_m, the I0 x N_l regression basis."""
    return _chain([*model.factors[m], model.kernels[m]])


def dense_x_oracle(Y, mask, target, X_prev, L_sob, delta, lam_l, tau):
    """Solve the consistency-constrained smooth X sub-task by building the
    restricted Kronecker system explicitly (column-major vectorization)."""
    n, t = Y.shape
    ddt = delta @ delta.T
    A_full = (1.0 + tau) * np.eye(n * t) + lam_l * np.kron(ddt, L_sob)
    free = ~mask
    fidx = np.where(free.ravel(order="F"))[0]
    S_y = np.where(mask, Y, 0)
    rhs = (-lam_l * (L_sob @ S_y @ ddt) + target + tau * X_prev).ravel(order="F")
    u = np.linalg.solve(A_full[np.ix_(fidx, fidx)], rhs[fidx])
    out = S_y.astype(np.result_type(S_y.dtype, u.dtype)).ravel(order="F")
    out[fidx] = u
    return out.reshape(Y.shape, order="F")


def band_factor_reference(pattern, graph, lambda_L, tau_X):
    """The band of free_band_factor, assembled one time step at a time: each
    step's columns of A_ff cut out of S with np.ix_, zero-padded to the band's
    width below the diagonal and read through a sheared view; then factored
    by dpbtrf.  Returns the factored band, None where free_band_factor
    returns None for want of smoothing or a free entry."""
    times, nodes = np.nonzero(~pattern.mask.T)
    n_free = len(nodes)
    if lambda_L == 0.0 or n_free == 0:
        return None
    counts = np.bincount(times, minlength=pattern.mask.shape[1])
    width = int((counts + np.append(counts[1:], 0)).max())
    S, _, ddt, _ = graph.smoothness()
    band = np.empty((width, n_free), order="F")
    ends = np.cumsum(counts)
    for t in np.flatnonzero(counts):
        lo, hi = ends[t] - counts[t], ends[t]
        below = ends[min(t + 1, len(counts) - 1)]  # the entries of steps t and t+1
        panel = np.zeros((hi - lo + width, hi - lo))
        panel[: below - lo] = (S[np.ix_(nodes[lo:below], nodes[lo:hi])]
                               * (lambda_L * ddt[times[lo:below], t])[:, None])
        step = panel.strides[0]
        band[:, lo:hi] = as_strided(panel, (width, hi - lo), (step, step + panel.strides[1]),
                                    writeable=False)
    band[0] += 1.0 + tau_X
    band, info = dpbtrf(band, lower=1, overwrite_ab=1)
    assert info == 0
    return band


def _supermatrix_wings(model, q_index):
    """Left/right supermatrices around layer q_index, built from scratch."""
    dims = model.dims
    lefts, rights = [], []
    for m in range(dims.n_kernels):
        row = model.factors[m]
        lefts.append(_chain(row[:q_index]) if q_index > 0 else None)
        rights.append(_chain(list(row[q_index + 1:]) + [model.kernels[m], model.coeffs[m]]))
    if q_index == 0:
        L_sup = np.eye(dims.n_rows, dtype=model.coeffs[0].dtype)
    else:
        L_sup = np.concatenate(lefts, axis=1)
    R_sup = np.concatenate(rights, axis=0)
    return L_sup, R_sup


def dense_d_oracle(q_index, X_hat, model, lam, tau):
    """Support-restricted normal equations of the factor sub-task, assembled
    as one explicit Kronecker system over the supermatrix unknown."""
    dims = model.dims
    M = dims.n_kernels
    L_sup, R_sup = _supermatrix_wings(model, q_index)
    blocks = [model.factors[m][q_index] for m in range(M)]
    p, r = blocks[0].shape
    if q_index == 0:
        rows, cols = dims.n_rows, r * M
        support = np.ones((rows, cols), dtype=bool)
        D_hat = np.concatenate(blocks, axis=1)
    else:
        rows, cols = p * M, r * M
        support = np.zeros((rows, cols), dtype=bool)
        D_hat = np.zeros((rows, cols), dtype=blocks[0].dtype)
        for m in range(M):
            support[m * p:(m + 1) * p, m * r:(m + 1) * r] = True
            D_hat[m * p:(m + 1) * p, m * r:(m + 1) * r] = blocks[m]
    G = L_sup.conj().T @ L_sup
    H = R_sup @ R_sup.conj().T
    A_full = np.kron(H.T, G) + (lam + tau) * np.eye(rows * cols)
    b_full = (L_sup.conj().T @ X_hat @ R_sup.conj().T + tau * D_hat).ravel(order="F")
    sidx = np.where(support.ravel(order="F"))[0]
    u = np.linalg.solve(A_full[np.ix_(sidx, sidx)], b_full[sidx])
    D = np.zeros(rows * cols, dtype=u.dtype)
    D[sidx] = u
    D = D.reshape(rows, cols, order="F")
    if q_index == 0:
        return [D[:, m * r:(m + 1) * r] for m in range(M)]
    return [D[m * p:(m + 1) * p, m * r:(m + 1) * r] for m in range(M)]


def dense_chain_link_solve(lefts, rights, X_hat, D_hats, c, tau):
    """solver.chain_link_solve's coupled minimiser (every block with both
    wings) from one explicit Kronecker system over the stacked blocks,
    block (m, m') = (R_m' R_m^H)^T kron L_m^H L_m' (+ c I when m = m'),
    solved by a dense Cholesky."""
    M, (p, r) = len(D_hats), D_hats[0].shape
    A = np.block([[np.kron((rights[b] @ rights[a].conj().T).T,
                           lefts[a].conj().T @ lefts[b]) + (c if a == b else 0.0) * np.eye(p * r)
                   for b in range(M)] for a in range(M)])
    rhs = np.concatenate([(lefts[a].conj().T @ X_hat @ rights[a].conj().T
                           + tau * D_hats[a]).ravel(order="F") for a in range(M)])
    u = scipy.linalg.solve(A, rhs, assume_a="pos")
    return [u[a * p * r:(a + 1) * p * r].reshape(p, r, order="F") for a in range(M)]


def tvgs_update_D(q: int, X_hat, model: FactorModel, lambda2: float, tau_D: float):
    """Factor update for 1-based layer index q (spec-facing wrapper)."""
    if not 1 <= q <= model.dims.depth:
        raise InputError(f"layer index {q} outside 1..{model.dims.depth}")
    return update_factor(q - 1, X_hat, model, lambda2, tau_D)


def dense_b_oracle(X_hat, model, tau):
    """Equality-constrained least squares (no l1 term): bordered KKT system
    solved densely, one column at a time."""
    dims = model.dims
    M, n_l = dims.n_kernels, dims.n_landmarks
    A = np.concatenate(
        [_chain(model.factors[m]) @ model.kernels[m] for m in range(M)], axis=1
    )
    B_hat = np.concatenate(model.coeffs, axis=0)
    G = A.conj().T @ A + tau * np.eye(M * n_l, dtype=A.dtype)
    E = np.zeros((M, M * n_l), dtype=A.dtype)
    for m in range(M):
        E[m, m * n_l:(m + 1) * n_l] = 1.0
    kkt = np.block([[G, E.conj().T], [E, np.zeros((M, M), dtype=A.dtype)]])
    rhs_top = A.conj().T @ X_hat + tau * B_hat
    out = np.empty_like(B_hat)
    for t in range(dims.n_cols):
        rhs = np.concatenate([rhs_top[:, t], np.ones(M, dtype=A.dtype)])
        sol = np.linalg.solve(kkt, rhs)
        out[:, t] = sol[: M * n_l]
    return out


def dense_dmri_x_oracle(Y, mask, target, X_prev, Z_hat, lam2, tau, frame_dims):
    """Quadratic minimization over the free k-space entries, done by stacking
    the affine residual map and solving one least-squares problem; uses the
    transforms only as black boxes."""
    i1, i2, i3 = frame_dims
    free = ~mask
    fidx = np.where(free.ravel(order="F"))[0]
    S_y = np.where(mask, Y, 0)

    def residual(u):
        K = S_y.ravel(order="F").astype(complex).copy()
        K[fidx] = K[fidx] + u
        X = ifft2_frames(K.reshape(Y.shape, order="F"), i1, i2)
        return np.concatenate([
            (X - target).ravel(),
            np.sqrt(lam2) * (Z_hat - dft_temporal(X)).ravel(),
            np.sqrt(tau) * (X - X_prev).ravel(),
        ])

    r0 = residual(np.zeros(len(fidx), dtype=complex))
    J = np.empty((len(r0), len(fidx)), dtype=complex)
    for j in range(len(fidx)):
        e = np.zeros(len(fidx), dtype=complex)
        e[j] = 1.0
        J[:, j] = residual(e) - r0
    u, *_ = np.linalg.lstsq(J, -r0, rcond=None)
    K = S_y.ravel(order="F").astype(complex).copy()
    K[fidx] = K[fidx] + u
    return ifft2_frames(K.reshape(Y.shape, order="F"), i1, i2)


def random_model(dims, seed, dtype=np.float64, kernel_scale=0.6):
    """Small random model with non-trivial kernels and feasible coefficients."""
    model = init_factors(dims, seed, dtype)
    rng = np.random.default_rng(seed + 1000)
    n_l = dims.n_landmarks
    for m in range(dims.n_kernels):
        raw = rng.standard_normal((n_l, n_l))
        if np.issubdtype(np.dtype(dtype), np.complexfloating):
            raw = raw + 1j * rng.standard_normal((n_l, n_l))
        model.kernels[m] = np.eye(n_l, dtype=dtype) + kernel_scale * raw.astype(dtype)
    return model


def kron_sylvester(G, H, C, c):
    """vec-form solve of G D H + c D = C through the explicit Kronecker matrix."""
    n = C.size
    A = np.kron(H.T, G) + c * np.eye(n, dtype=np.result_type(G.dtype, H.dtype))
    return np.linalg.solve(A, C.ravel(order="F")).reshape(C.shape, order="F")


# ---------------------------------------------------------------------------
# kernels and the mmf reduction
# ---------------------------------------------------------------------------

def eval_kernel(spec: KernelSpec, l: np.ndarray, l_prime: np.ndarray) -> complex:
    """Evaluate one kernel on a pair of equal-length vectors.  A linear or
    polynomial value is normalized, k(l, l') / sqrt(|k(l, l)| |k(l', l')|),
    with a factor 1 for a point whose k(l, l) is 0."""
    l = np.asarray(l).ravel()
    l_prime = np.asarray(l_prime).ravel()
    if l.shape != l_prime.shape or l.size < 1:
        raise InputError(f"vector length mismatch: {l.shape} vs {l_prime.shape}")
    if spec.kind == GAUSSIAN:
        d = l - np.conj(l_prime)
        return complex(np.exp(-spec.gamma * np.sum(d * d)))

    def k(a, b):
        d = np.vdot(a, b)
        return complex(d if spec.kind == LINEAR else (d + spec.intercept) ** spec.degree)

    return k(l, l_prime) / math.sqrt((abs(k(l, l)) or 1.0) * (abs(k(l_prime, l_prime)) or 1.0))


def build_kernel_supermatrix(mats: list[np.ndarray]) -> np.ndarray:
    """Block-diagonal stack of M N_l x N_l kernel matrices; off-diagonal blocks
    exactly zero."""
    if not mats:
        raise InputError("need at least one kernel matrix")
    n = mats[0].shape[0]
    for km in mats:
        if km.shape != (n, n):
            raise InputError(f"mixed landmark counts in supermatrix: {km.shape} vs {n}")
    m = len(mats)
    out = np.zeros((m * n, m * n), dtype=np.result_type(*mats))
    for i, km in enumerate(mats):
        out[i * n : (i + 1) * n, i * n : (i + 1) * n] = km
    return out


def reduce_to_mmf(model: FactorModel) -> FactorModel:
    """Drop the latent-geometry machinery: identity kernels, no affine or
    sparsity handling in the solver.  Dimensions (and the unknown count) are
    unchanged."""
    out = copy.deepcopy(model)
    eye = np.eye(model.dims.n_landmarks, dtype=model.kernels[0].dtype)
    out.kernels = [eye.copy() for _ in range(model.dims.n_kernels)]
    out.mmf = True
    return out


# ---------------------------------------------------------------------------
# analytic sub-task gradients
# ---------------------------------------------------------------------------

def x_subtask_gradient(X, target, X_anchor, L_sob, delta, lambda_L, tau_X):
    """Gradient of the graph-flavor X sub-task objective."""
    ddt = delta @ delta.T
    return (1.0 + tau_X) * X + lambda_L * (L_sob @ X @ ddt) - target - tau_X * X_anchor


def d_subtask_gradient(D_blocks, q_index, X_hat, model: FactorModel, lam, tau):
    """Gradient of the factor sub-task at the given blocks, on the support."""
    lefts, rights = factor_wings(model, q_index)
    fit = np.zeros_like(X_hat)
    for m, (L, R) in enumerate(zip(lefts, rights)):
        term = D_blocks[m] @ R if L is None else L @ D_blocks[m] @ R
        fit = fit + term
    fit = fit - X_hat
    grads = []
    for m, (L, R) in enumerate(zip(lefts, rights)):
        g = fit @ R.conj().T if L is None else L.conj().T @ fit @ R.conj().T
        grads.append(g + lam * D_blocks[m] + tau * (D_blocks[m] - model.factors[m][q_index]))
    return grads


def b_subtask_smooth_gradient(B, X_hat, model: FactorModel, tau_B):
    """Gradient of the smooth part of the coefficient sub-task (l1 excluded)."""
    A = np.concatenate([block_basis(model, m) for m in range(model.dims.n_kernels)], axis=1)
    B_hat = np.concatenate(model.coeffs, axis=0)
    return A.conj().T @ (A @ B - X_hat) + tau_B * (B - B_hat)


def dmri_x_subtask_gradient(X, target, X_anchor, Z_hat, lambda2, tau_X):
    """Gradient of the smooth k-space X sub-task objective (Ft unnormalized,
    so Ft^H Ft = I3 Id)."""
    i3 = X.shape[1]
    return (
        (1.0 + tau_X) * X
        - target
        - tau_X * X_anchor
        + lambda2 * (i3 * X - i3 * idft_temporal(Z_hat))
    )


# ---------------------------------------------------------------------------
# multi-layer factorization reduction
# ---------------------------------------------------------------------------

def _mmf_reference_trajectory(Y, pattern, graph, theta0, config):
    """X iterates of the multi-layer factorization X ~ U_1 ... U_Q V under the
    diminishing-step scheme, every sub-task solved densely: the X update by
    dense_x_oracle and each link by kron_sylvester with identity in place of
    a missing wing."""
    S_y = np.where(pattern.mask, Y, 0)
    X = S_y.astype(np.result_type(S_y.dtype, *(t.dtype for t in theta0)))
    theta = [t.copy() for t in theta0]
    gamma = config.gamma0
    lam = config.lambda2
    trajectory = []
    for _ in range(config.outer_iters):
        gamma = sca_step_schedule(gamma, config.zeta)
        X_half = dense_x_oracle(Y, pattern.mask, _chain(theta), X, graph.L_sobolev,
                                graph.delta, config.lambda_L, config.tau_X)
        half = []
        for q, t in enumerate(theta):
            left = _chain(theta[:q]) if q > 0 else np.eye(Y.shape[0])
            right = _chain(theta[q + 1:]) if q < len(theta) - 1 else np.eye(Y.shape[1])
            tau = config.tau_D if q < len(theta) - 1 else config.tau_B
            half.append(kron_sylvester(left.conj().T @ left, right @ right.conj().T,
                                       left.conj().T @ X @ right.conj().T + tau * t,
                                       lam + tau))
        X = np.where(pattern.mask, S_y, gamma * X_half + (1.0 - gamma) * X)
        theta = [gamma * h + (1.0 - gamma) * t for h, t in zip(half, theta)]
        trajectory.append(X)
    return trajectory


def mmf_as_special_case_check(dims: ModelDims, seed: int, lambda1: float = 0.0,
                              identity_kernels: bool = True, iters: int = 10,
                              tol: float = 1e-9) -> bool:
    """Certify the reduction: the main engine with identity kernels and the
    affine/l1 machinery disabled must trace the same iterates as a dense
    multi-layer factorization started from the same factors.

    With lambda1 > 0 or non-identity kernels the trajectories diverge and the
    check returns False.
    """
    if dims.n_kernels != 1:
        raise InputError("the reduction check runs on single-kernel dims")
    if dims.depth >= 2 and any(d != dims.inner[0] for d in dims.inner):
        raise InputError("the baseline uses one shared inner rank")
    rng = np.random.default_rng(seed)
    coords = rng.random((2, dims.n_rows))
    graph = build_graph_operators(coords, k=min(3, dims.n_rows - 1), eps=0.5,
                                  beta=1.0, n_time=dims.n_cols)
    Y = rng.standard_normal((dims.n_rows, dims.n_cols))
    pattern = sample_p1(dims.n_rows, dims.n_cols, 0.5, seed)

    base = init_factors(dims, seed, np.float64)
    if identity_kernels:
        model0 = reduce_to_mmf(base)
    else:
        model0 = copy.deepcopy(base)
        k_rng = np.random.default_rng(seed + 1)
        model0.kernels = [np.eye(dims.n_landmarks) + 0.3 * k_rng.standard_normal(
            (dims.n_landmarks, dims.n_landmarks)) for _ in range(dims.n_kernels)]
    if lambda1 > 0.0:
        model0.mmf = False  # keep the l1/affine machinery in play

    config = SolverConfig(lambda1=lambda1, lambda2=0.05, lambda_L=0.0,
                          tau_X=1.0, tau_D=1.0, tau_B=1.0,
                          gamma0=1.0, zeta=0.5, outer_iters=iters,
                          tol_objective=0.0, seed=seed)

    theta0 = [base.factors[0][q] for q in range(dims.depth)] + [base.coeffs[0]]
    reference = _mmf_reference_trajectory(Y, pattern, graph, theta0, config)
    for k in range(1, iters + 1):
        cfg_k = SolverConfig(**{**config.__dict__, "outer_iters": k})
        X_main, _, _ = solve_from_model(TVGS, Y, pattern, graph, model0, cfg_k)
        if float(np.max(np.abs(X_main - reference[k - 1]))) > tol:
            return False
    return True


def _prox_mu_real(V, alpha):
    """Exact multiplier of min_z 1/2||z-v||^2 + alpha||z||_1 s.t. sum z = 1,
    per column of real V.

    The column sum g(mu) of soft(v - mu) is piecewise linear and decreasing
    with breakpoints at v_i -/+ alpha: between breakpoints,
    g(mu) = S_hi + S_lo - (p + m) mu with p entries active positive (v - alpha
    above mu, contributing values S_hi) and m active negative (v + alpha below
    mu, values S_lo).  Each of the 2n+1 segments yields one closed-form
    candidate; exactly the bracketing one validates."""
    n, t = V.shape
    w = np.concatenate([V - alpha, V + alpha], axis=0)
    neg_kind = np.zeros((2 * n, t), dtype=bool)
    neg_kind[n:] = True  # v + alpha breakpoints drive the negative-active set
    order = np.argsort(w, axis=0, kind="stable")
    ws = np.take_along_axis(w, order, axis=0)
    kinds = np.take_along_axis(neg_kind, order, axis=0)

    zeros = np.zeros((1, t))
    m_cnt = np.vstack([zeros, np.cumsum(kinds, axis=0)])  # negatives within prefix k
    s_lo = np.vstack([zeros, np.cumsum(np.where(kinds, ws, 0.0), axis=0)])
    a_cnt = np.arange(2 * n + 1)[:, None] - m_cnt  # positives within prefix k
    a_sum = np.vstack([zeros, np.cumsum(np.where(kinds, 0.0, ws), axis=0)])
    p_cnt = n - a_cnt  # positives strictly beyond the prefix
    s_hi = a_sum[-1] - a_sum

    denom = p_cnt + m_cnt
    safe = np.where(denom > 0, denom, 1.0)
    cand = (s_hi + s_lo - 1.0) / safe
    lower = np.vstack([np.full((1, t), -np.inf), ws])
    upper = np.vstack([ws, np.full((1, t), np.inf)])
    eps = 1e-9 * (1.0 + np.abs(cand))
    valid = (denom > 0) & (cand >= lower - eps) & (cand <= upper + eps)
    if not valid.any(axis=0).all():
        raise SolverError("affine-l1 prox found no bracketing segment")
    idx = np.argmax(valid, axis=0)  # the bracketing segment validates
    return np.take_along_axis(cand, idx[None, :], axis=0)[0]


def rasterize_line(i1: int, i2: int, angle: float) -> np.ndarray:
    """Nearest-neighbor rasterization of a straight line through the grid
    center, returned as an I1 x I2 boolean frame.  angle = 0 is the center
    row.  A radial_mask frame is the OR of this over the frame's spokes."""
    cy, cx = (i1 - 1) / 2.0, (i2 - 1) / 2.0
    half = math.hypot(i1, i2) / 2.0
    t = np.linspace(-half, half, 4 * max(i1, i2) + 1)
    rows = np.rint(cy + t * math.sin(angle)).astype(int)
    cols = np.rint(cx + t * math.cos(angle)).astype(int)
    keep = (rows >= 0) & (rows < i1) & (cols >= 0) & (cols < i2)
    frame = np.zeros((i1, i2), dtype=bool)
    frame[rows[keep], cols[keep]] = True
    return frame


def knn_graph_reference(coords: np.ndarray, k: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """knn_graph's (W, neighbors) with one stable argsort per node."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    n = coords.shape[1]
    diff = coords[:, :, None] - coords[:, None, :]
    d2 = np.sum(diff * diff, axis=0)
    neighbors = []
    sel = np.zeros((n, n), dtype=bool)
    for i in range(n):
        order = np.argsort(d2[i], kind="stable")
        order = order[order != i][:k]
        neighbors.append(order)
        sel[i, order] = True
    sel |= sel.T
    W = np.zeros((n, n))
    W[sel] = 1.0 / d2[sel]
    return W, neighbors


def convolve_valid_reference(img: np.ndarray, k: np.ndarray) -> np.ndarray:
    """2D convolution over the full-overlap windows alone, by scipy.signal:
    the reference for the stencil-row form hfen uses."""
    return convolve2d(img, k, mode="valid")


def pairwise_distances_reference(points: np.ndarray) -> np.ndarray:
    """The distances between the columns of a real array by scipy's pdist:
    the reference the library's chunked pairwise distances match bit for
    bit."""
    return pdist(points.T)
