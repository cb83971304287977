"""Comparison methods sharing the outer loop, hard consistency and the
spatio-temporal smoothness term with the main engine.

The multi-layer factorization is the engine itself in its mmf reduction.
The kernel baselines are chains X ~ F_1 ... F_k of fixed kernels and free
Tikhonov-regularized links, run on the engine's outer loop (solver.sca_loop):
solve every free link from the current iterate with the engine's chain-link
solve, extrapolate, repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import InputError
from .graphs import GraphOperators
from .kernels import KernelSpec, build_kernel_matrix, gaussian_spec
from .model import FactorModel, ModelDims, SolverConfig, gaussian_draw
from .sampling import SamplingPattern
from .solver import (
    TVGS,
    SolveReport,
    chain_link_solve,
    consistency_residual,
    consistent_smooth_solve,
    sca_loop,
    smoothness_penalty,
    solve_from_model,
)

ZERO_FILL = "zero-fill"
MEAN_FILL = "mean-fill"
MMF = "mmf"
NBP = "nbp"
KRG = "krg"
KGL = "kgl"

NBP_SIZE_CAP = 2000


@dataclass
class BaselineSpec:
    kind: str
    rank: int = 5
    depth: int = 2  # factor layers for the multi-layer baseline
    kernel_row: KernelSpec = field(default_factory=lambda: gaussian_spec(0.4))
    kernel_col: KernelSpec = field(default_factory=lambda: gaussian_spec(0.4))
    size_cap: int = NBP_SIZE_CAP


def zero_fill(Y, pattern: SamplingPattern):
    return np.where(pattern.mask, Y, 0)


def mean_fill(Y, pattern: SamplingPattern):
    obs = pattern.mask
    if not np.any(obs):
        raise InputError("mean fill needs at least one observed entry")
    fill = np.asarray(Y)[obs].mean()
    return np.where(obs, Y, fill)


def _sca_baseline_loop(Y, pattern, graph, config: SolverConfig, links, tikhonov):
    """Chain X ~ F_1 ... F_k given as (matrix, tau) links on the shared SCA
    loop: tau None marks a fixed kernel; a free link has proximal weight tau
    and Tikhonov weight ``tikhonov``.  Every free link is solved from the
    current iterate with the engine's chain-link solve.  Returns
    (X, free links, report)."""
    free = [i for i, (_, tau) in enumerate(links) if tau is not None]
    S_y = np.where(pattern.mask, Y, 0)

    def best_response(state, product):
        X, mats = state
        X_half, cg_iters = consistent_smooth_solve(
            Y, pattern, product, X, graph, config.lambda_L, config.tau_X,
            config.cg_tol, config.cg_max,
        )
        half = list(mats)
        for i in free:
            tau = links[i][1]
            left = reduce(np.matmul, mats[:i]) if i > 0 else None
            right = reduce(np.matmul, mats[i + 1 :]) if i < len(mats) - 1 else None
            half[i] = chain_link_solve(left, right, X, mats[i], tikhonov + tau, tau)
        return (X_half, half), {"cg_iters": cg_iters}

    def combine(state, half, gamma):
        (X, mats), (X_half, mats_half) = state, half
        X = np.where(pattern.mask, S_y, gamma * X_half + (1.0 - gamma) * X)
        return X, [gamma * mats_half[i] + (1.0 - gamma) * m if i in free else m
                   for i, m in enumerate(mats)]

    def evaluate(state):  # the chain product is also the next X target
        X, mats = state
        product = reduce(np.matmul, mats)
        resid = X - product
        val = 0.5 * float(np.vdot(resid, resid).real)
        val += 0.5 * tikhonov * sum(float(np.vdot(mats[i], mats[i]).real) for i in free)
        if config.lambda_L > 0:
            val += 0.5 * config.lambda_L * smoothness_penalty(X, graph.L_sobolev, graph.delta)
        return val, consistency_residual(X, pattern, S_y), 0.0, product

    (X, mats), report = sca_loop(config, (S_y, [mat for mat, _ in links]),
                                 best_response, combine, evaluate)
    return X, [mats[i] for i in free], report


# ---------------------------------------------------------------------------
# multi-layer factorization baseline
# ---------------------------------------------------------------------------

def _mmf_init(n_rows, n_cols, rank, depth, seed, dtype):
    rng = np.random.default_rng(seed)
    shapes = [(n_rows, rank)] + [(rank, rank)] * (depth - 1) + [(rank, n_cols)]
    return [gaussian_draw(rng, shape, 1.0 / np.sqrt(shape[1]), dtype) for shape in shapes]


def mmf_solve(Y, pattern, graph, rank, depth, config: SolverConfig):
    """Plain multi-layer factorization X ~ U_1 ... U_Q V with Tikhonov factors,
    smoothness and hard consistency: the engine's mmf reduction (one block,
    N_l = rank, identity kernel, no affine or l1 terms).  Returns
    (X, model, report)."""
    dtype = np.complex128 if np.iscomplexobj(Y) else np.float64
    *U, V = _mmf_init(Y.shape[0], Y.shape[1], rank, depth, config.seed, dtype)
    dims = ModelDims(Y.shape[0], Y.shape[1], rank, 1, depth, (rank,) * (depth - 1))
    model = FactorModel(dims, [U], [np.eye(rank, dtype=dtype)], [V], mmf=True)
    return solve_from_model(TVGS, Y, pattern, graph, model, config)


# ---------------------------------------------------------------------------
# kernel-based baselines
# ---------------------------------------------------------------------------

def _row_col_kernels(Y, pattern, spec_row, spec_col, cap):
    n_rows, n_cols = Y.shape
    if max(n_rows, n_cols) > cap:
        raise InputError(
            f"kernel baseline needs {n_rows}x{n_rows} and {n_cols}x{n_cols} "
            f"kernel matrices; dimension exceeds the cap of {cap}"
        )
    S_y = np.where(pattern.mask, Y, 0)
    K_row = build_kernel_matrix(S_y.T, spec_row)  # rows as points
    K_col = build_kernel_matrix(S_y, spec_col)  # columns as points
    return K_row, K_col


def nbp_solve(Y, pattern, graph, spec: BaselineSpec, config: SolverConfig):
    """Bilinear two-sided kernel expansion X ~ K_Z B C K_Y with Tikhonov
    regularization on both coefficient factors."""
    K_Z, K_Y = _row_col_kernels(Y, pattern, spec.kernel_row, spec.kernel_col,
                                spec.size_cap)
    d = spec.rank
    if d > min(Y.shape):
        raise InputError(f"rank {d} exceeds min(I0, I_N) = {min(Y.shape)}")
    rng = np.random.default_rng(config.seed)
    B = rng.standard_normal((Y.shape[0], d)) / np.sqrt(d)
    C = rng.standard_normal((d, Y.shape[1])) / np.sqrt(Y.shape[1])
    links = [(K_Z, None), (B, config.tau_D), (C, config.tau_B), (K_Y, None)]
    return _sca_baseline_loop(Y, pattern, graph, config, links, config.lambda2)


def krg_solve(Y, pattern, graph, spec: BaselineSpec, config: SolverConfig):
    """One-sided kernel regression X ~ H K_Y."""
    _, K_Y = _row_col_kernels(Y, pattern, spec.kernel_row, spec.kernel_col,
                              spec.size_cap)
    rng = np.random.default_rng(config.seed)
    H = rng.standard_normal(Y.shape) / np.sqrt(Y.shape[1])
    links = [(H, config.tau_D), (K_Y, None)]
    return _sca_baseline_loop(Y, pattern, graph, config, links, config.lambda2)


def kgl_solve(Y, pattern, graph, spec: BaselineSpec, config: SolverConfig):
    """Two-sided kernel expansion X ~ K_Z G K_Y without a low-rank split."""
    K_Z, K_Y = _row_col_kernels(Y, pattern, spec.kernel_row, spec.kernel_col,
                                spec.size_cap)
    rng = np.random.default_rng(config.seed)
    G = rng.standard_normal(Y.shape) / np.sqrt(Y.shape[1])
    links = [(K_Z, None), (G, config.tau_D), (K_Y, None)]
    return _sca_baseline_loop(Y, pattern, graph, config, links, config.lambda2)


def run_baseline(spec: BaselineSpec, Y, pattern: SamplingPattern,
                 graph: GraphOperators | None, config: SolverConfig):
    """Dispatch one comparison method; returns (X, report)."""
    if spec.kind == ZERO_FILL:
        return zero_fill(Y, pattern), SolveReport()
    if spec.kind == MEAN_FILL:
        return mean_fill(Y, pattern), SolveReport()
    if graph is None:
        raise InputError(f"baseline {spec.kind!r} needs graph operators")
    if spec.kind == MMF:
        X, _, report = mmf_solve(Y, pattern, graph, spec.rank, spec.depth, config)
        return X, report
    if spec.kind == NBP:
        X, _, report = nbp_solve(Y, pattern, graph, spec, config)
        return X, report
    if spec.kind == KRG:
        X, _, report = krg_solve(Y, pattern, graph, spec, config)
        return X, report
    if spec.kind == KGL:
        X, _, report = kgl_solve(Y, pattern, graph, spec, config)
        return X, report
    raise InputError(f"unknown baseline {spec.kind!r}")
