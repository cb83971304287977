"""Comparison methods sharing the outer loop, hard consistency and the
spatio-temporal smoothness term with the main engine.

The multi-layer factorization is the engine itself in its mmf reduction.
The kernel baselines are chains X ~ F_1 ... F_k of fixed kernels (Gaussians
of median-distance width over the zero-filled rows and columns) and free
Tikhonov-regularized links, run on the engine's outer loop (solver.sca_loop):
solve every free link from the current iterate with the engine's chain-link
solve, extrapolate, repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import InputError
from .graphs import GraphOperators
from .kernels import build_kernel_matrix, median_distance_gaussian
from .model import FactorModel, ModelDims, SolverConfig, gaussian_draw
from .sampling import SamplingPattern, apply_sampling
from .solver import (
    TVGS,
    SolveReport,
    chain_link_solve,
    chain_wings,
    consistency_residual,
    consistent_smooth_solve,
    free_band_factor,
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
METHODS = (MMF, NBP, KRG, KGL, ZERO_FILL, MEAN_FILL)

NBP_SIZE_CAP = 2000


@dataclass
class BaselineSpec:
    kind: str
    rank: int = 5
    depth: int = 2  # factor layers for the multi-layer baseline


def mean_fill(Y, pattern: SamplingPattern):
    S_y, obs = apply_sampling(pattern, Y), pattern.mask
    if not np.any(obs):
        raise InputError("mean fill needs at least one observed entry")
    return np.where(obs, S_y, S_y[obs].mean())


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

def _kernel_chain_solve(Y, pattern, graph, config: SolverConfig, free, *, row_kernel):
    """Chain X ~ [K_row] F_1 ... F_k K_col on the shared SCA loop.  The fixed
    kernels are Gaussians of median-distance width over the zero-filled
    data's rows (K_row, present if ``row_kernel``) and columns (K_col).  The
    free links, given as (rows, cols, tau), are drawn in order with entries
    N(0, 1/cols); each has proximal weight tau and Tikhonov weight
    config.lambda2, and is solved from the current iterate with the engine's
    chain-link solve.  The links are sized from the mask, whose shape
    apply_sampling requires of Y.  The loop's iterate is (X, free links): the
    fixed kernels are never mixed.  Returns (X, free links, report)."""
    S_y = apply_sampling(pattern, Y)
    n_rows, n_cols = S_y.shape
    if max(n_rows, n_cols) > NBP_SIZE_CAP:
        raise InputError(f"kernel baseline needs {n_rows}x{n_rows} and {n_cols}x{n_cols} "
                         f"kernel matrices; dimension exceeds the cap of {NBP_SIZE_CAP}")

    def kernel(points):  # points as columns
        return build_kernel_matrix(points, median_distance_gaussian(points))

    rng = np.random.default_rng(config.seed)
    head = [kernel(S_y.T)] if row_kernel else []
    links = [rng.standard_normal((rows, cols)) / np.sqrt(cols) for rows, cols, _ in free]
    tail = [kernel(S_y)]
    band = free_band_factor(pattern, graph, config.lambda_L, config.tau_X)

    def best_response(state, product):
        X, links = state
        X_half, cg_iters = consistent_smooth_solve(
            Y, pattern, product, X, graph, config.lambda_L, config.tau_X,
            config.cg_tol, config.cg_max, band,
        )
        mats = head + links + tail
        half = [chain_link_solve(*chain_wings(mats, len(head) + i), X, link,
                                 config.lambda2 + tau, tau)
                for i, (link, (_, _, tau)) in enumerate(zip(links, free))]
        return (X_half, half), {"cg_iters": cg_iters}

    def evaluate(state):  # the chain product is also the next X target
        X, links = state
        product = reduce(np.matmul, head + links + tail)
        resid = X - product
        val = 0.5 * float(np.vdot(resid, resid).real)
        val += 0.5 * config.lambda2 * sum(float(np.vdot(link, link).real) for link in links)
        if config.lambda_L > 0:
            val += 0.5 * config.lambda_L * smoothness_penalty(X, graph.L_sobolev, graph.delta)
        return val, consistency_residual(X, pattern, S_y), 0.0, product

    (X, links), _, report = sca_loop(config, pattern, S_y, (S_y, links), best_response,
                                     evaluate)
    return X, links, report


def nbp_solve(Y, pattern, graph, spec: BaselineSpec, config: SolverConfig):
    """Bilinear two-sided kernel expansion X ~ K_Z B C K_Y with Tikhonov
    regularization on both coefficient factors."""
    d, (n_rows, n_cols) = spec.rank, pattern.mask.shape
    if d > min(n_rows, n_cols):
        raise InputError(f"rank {d} exceeds min(I0, I_N) = {min(n_rows, n_cols)}")
    free = [(n_rows, d, config.tau_D), (d, n_cols, config.tau_B)]
    return _kernel_chain_solve(Y, pattern, graph, config, free, row_kernel=True)


def krg_solve(Y, pattern, graph, spec: BaselineSpec, config: SolverConfig):
    """One-sided kernel regression X ~ H K_Y."""
    free = [(*pattern.mask.shape, config.tau_D)]
    return _kernel_chain_solve(Y, pattern, graph, config, free, row_kernel=False)


def kgl_solve(Y, pattern, graph, spec: BaselineSpec, config: SolverConfig):
    """Two-sided kernel expansion X ~ K_Z G K_Y without a low-rank split."""
    free = [(*pattern.mask.shape, config.tau_D)]
    return _kernel_chain_solve(Y, pattern, graph, config, free, row_kernel=True)


def run_baseline(spec: BaselineSpec, Y, pattern: SamplingPattern,
                 graph: GraphOperators | None, config: SolverConfig):
    """Dispatch one comparison method; returns (X, report)."""
    if spec.kind == ZERO_FILL:
        return apply_sampling(pattern, Y), SolveReport()
    if spec.kind == MEAN_FILL:
        return mean_fill(Y, pattern), SolveReport()
    if graph is None:
        raise InputError(f"baseline {spec.kind!r} needs graph operators")
    if spec.kind == MMF:
        X, _, report = mmf_solve(Y, pattern, graph, spec.rank, spec.depth, config)
        return X, report
    # built per call, so the solvers are read from the module when the call is made
    chains = {NBP: nbp_solve, KRG: krg_solve, KGL: kgl_solve}
    if spec.kind not in chains:
        raise InputError(f"unknown baseline {spec.kind!r}")
    X, _, report = chains[spec.kind](Y, pattern, graph, spec, config)
    return X, report
