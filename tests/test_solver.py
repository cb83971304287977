import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkimpute import solver
from mkimpute.errors import InputError, SolverError
from mkimpute.graphs import build_graph_operators
from mkimpute.model import ModelDims, SolverConfig, init_factors, predict
from mkimpute.mri import dft_temporal, fft2_frames, ifft2_frames
from mkimpute.navigators import NavigatorSet, select_landmarks
from mkimpute.sampling import SamplingPattern, sample_p1
from mkimpute.solver import (
    DMRI,
    TVGS,
    chain_link_solve,
    consistent_smooth_solve,
    dmri_update_X,
    dmri_update_Z,
    sca_extrapolate,
    sca_step_schedule,
    soft_threshold,
    solve,
    solve_from_model,
    tvgs_update_X,
    update_B,
    update_B_ridge,
)

from oracles import (
    _prox_mu_real,
    b_subtask_smooth_gradient,
    block_basis,
    d_subtask_gradient,
    dense_b_oracle,
    dense_d_oracle,
    dense_dmri_x_oracle,
    dense_x_oracle,
    dmri_x_subtask_gradient,
    random_model,
    tvgs_update_D,
    x_subtask_gradient,
)


def _rel(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) /
                 max(np.linalg.norm(np.asarray(b)), 1e-30))


def _graph(n_nodes, n_times, seed=0, k=2, eps=0.3, beta=1.0):
    rng = np.random.default_rng(seed)
    return build_graph_operators(rng.random((2, n_nodes)), k, eps, beta, n_times)


# ---------------------------------------------------------------------------
# schedule and extrapolation
# ---------------------------------------------------------------------------

def test_schedule_values():
    assert sca_step_schedule(1.0, 0.5) == pytest.approx(0.5)
    assert sca_step_schedule(0.5, 0.5) == pytest.approx(0.375)


def test_schedule_strictly_decreasing_1000_steps():
    g = 1.0
    for _ in range(1000):
        nxt = sca_step_schedule(g, 0.3)
        assert 0.0 < nxt < g
        g = nxt


def _iterate(X, model):
    return X, model.factors, model.coeffs


def test_extrapolate_endpoints():
    dims = ModelDims(4, 5, 3, 1, 2, (2,))
    cur = _iterate(np.zeros((4, 5)), init_factors(dims, 0, np.float64))
    half = _iterate(np.ones((4, 5)), init_factors(dims, 1, np.float64))
    hi = sca_extrapolate(cur, half, 1.0)
    assert np.array_equal(hi[0], np.ones((4, 5)))
    assert np.array_equal(hi[1][0][0], init_factors(dims, 1, np.float64).factors[0][0])
    half = _iterate(np.ones((4, 5)), init_factors(dims, 1, np.float64))
    lo = sca_extrapolate(cur, half, 1e-12)
    assert np.allclose(lo[0], cur[0], atol=1e-11)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(complex_=st.booleans(), m_count=st.integers(1, 3), n_l=st.integers(1, 6),
       cols=st.integers(1, 5), gamma=st.floats(0.0, 1.0, exclude_min=True),
       seed=st.integers(0, 999))
def test_extrapolate_preserves_affine_constraint(complex_, m_count, n_l, cols, gamma, seed):
    dtype = np.complex128 if complex_ else np.float64
    dims = ModelDims(4, cols, n_l, m_count, 2, (2,))
    a = init_factors(dims, seed, dtype)
    b = init_factors(dims, seed + 1, dtype)
    mid = sca_extrapolate(_iterate(np.zeros((4, cols)), a),
                          _iterate(np.ones((4, cols)), b), gamma)
    for blk in mid[2]:
        assert blk.dtype == dtype
        assert np.max(np.abs(blk.sum(axis=0) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# graph-flavor X update
# ---------------------------------------------------------------------------

def test_x_update_no_smoothing_is_diagonal():
    rng = np.random.default_rng(0)
    dims = ModelDims(5, 6, 3, 1, 2, (2,))
    model = random_model(dims, 0)
    Y = rng.standard_normal((5, 6))
    pattern = sample_p1(5, 6, 0.4, seed=1)
    X_prev = rng.standard_normal((5, 6))
    graph = _graph(5, 6)
    X, iters = tvgs_update_X(Y, pattern, predict(model), X_prev, graph, 0.0, 0.5)
    assert iters == 0
    target = predict(model)
    free = ~pattern.mask
    assert np.allclose(X[free], ((target + 0.5 * X_prev) / 1.5)[free])
    assert np.array_equal(X[pattern.mask], Y[pattern.mask])


def test_x_update_full_sampling_returns_data():
    rng = np.random.default_rng(1)
    dims = ModelDims(4, 4, 2, 1, 1, ())
    model = random_model(dims, 1)
    Y = rng.standard_normal((4, 4))
    pattern = sample_p1(4, 4, 1.0, seed=0)
    graph = _graph(4, 4)
    X, _ = tvgs_update_X(Y, pattern, predict(model), np.zeros((4, 4)), graph, 0.7, 1.0)
    assert np.array_equal(X, Y)


def test_x_update_matches_dense_oracle():
    rng = np.random.default_rng(2)
    for seed in range(6):
        dims = ModelDims(5, 4, 3, 1, 2, (2,))
        model = random_model(dims, seed)
        Y = rng.standard_normal((5, 4))
        pattern = sample_p1(5, 4, 0.4, seed=seed)
        X_prev = rng.standard_normal((5, 4))
        graph = _graph(5, 4, seed=seed)
        X, _ = tvgs_update_X(Y, pattern, predict(model), X_prev, graph, 0.8, 0.6,
                             cg_tol=1e-13, cg_max=5000)
        ref = dense_x_oracle(Y, pattern.mask, predict(model), X_prev,
                             graph.L_sobolev, graph.delta, 0.8, 0.6)
        assert _rel(X, ref) < 1e-8


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(n=st.integers(3, 7), t=st.integers(2, 6), complex_=st.booleans(),
       p_obs=st.floats(0.0, 1.0), row_fill=st.sampled_from([None, True, False]),
       col_fill=st.sampled_from([None, True, False]),
       log_lam=st.one_of(st.none(), st.floats(-3.0, 2.0)), tau=st.floats(0.0, 2.0),
       seed=st.integers(0, 999))
def test_x_update_matches_dense_oracle_on_random_masks(n, t, complex_, p_obs, row_fill,
                                                       col_fill, log_lam, tau, seed):
    # row_fill / col_fill make one row / column fully observed (True) or
    # fully missing (False); log_lam None is the unsmoothed lambda_L = 0
    rng = np.random.default_rng(seed)

    def draw():
        out = rng.standard_normal((n, t))
        return out + 1j * rng.standard_normal((n, t)) if complex_ else out

    Y, target, X_prev = draw(), draw(), draw()
    mask = rng.random((n, t)) < p_obs
    if row_fill is not None:
        mask[rng.integers(n), :] = row_fill
    if col_fill is not None:
        mask[:, rng.integers(t)] = col_fill
    pattern = SamplingPattern(mask)
    graph = _graph(n, t, seed=seed)
    lam = 0.0 if log_lam is None else 10.0 ** log_lam
    X, _ = consistent_smooth_solve(Y, pattern, target, X_prev, graph, lam, tau,
                                   cg_tol=1e-12)
    ref = dense_x_oracle(Y, mask, target, X_prev, graph.L_sobolev, graph.delta, lam, tau)
    assert np.array_equal(X[mask], Y[mask])
    assert _rel(X, ref) <= 1e-8
    # the direct path, wherever it applies: smoothing on and some entry free
    band = solver.free_band_factor(pattern, graph, lam, tau)
    assert (band is None) == (lam == 0.0 or mask.all())
    if band is not None:
        X, steps = consistent_smooth_solve(Y, pattern, target, X_prev, graph, lam, tau,
                                           band=band)
        assert steps == 0 and np.array_equal(X[mask], Y[mask])
        assert _rel(X, ref) <= 1e-10


def _edge_mask(kind, n, t, rng):
    """p2: whole snapshots observed, the others fully free; one step: free
    entries at a single time step; ends: the first and last steps fully free."""
    if kind == "p2":
        snapshots = rng.random(t) < 0.5
        snapshots[rng.integers(t)] = False
        return np.broadcast_to(snapshots, (n, t)).copy()
    mask = np.ones((n, t), dtype=bool)
    if kind == "one step":
        mask[rng.permutation(n)[: rng.integers(1, n + 1)], rng.integers(t)] = False
    else:
        mask[:, [0, -1]] = False
    return mask


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("kind", ["p2", "one step", "ends"])
def test_band_x_update_matches_dense_oracle_on_edge_masks(kind, complex_):
    # masks whose time steps hold all or none of the band's entries
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n, t = 7, 6
        Y, target, X_prev = (_draw(rng, (n, t), complex_) for _ in range(3))
        mask = _edge_mask(kind, n, t, rng)
        pattern, graph = SamplingPattern(mask), _graph(n, t, seed=seed)
        band = solver.free_band_factor(pattern, graph, 0.6, 0.4)
        X, steps = consistent_smooth_solve(Y, pattern, target, X_prev, graph, 0.6, 0.4,
                                           band=band)
        ref = dense_x_oracle(Y, mask, target, X_prev, graph.L_sobolev, graph.delta, 0.6, 0.4)
        assert steps == 0 and np.array_equal(X[mask], Y[mask])
        assert _rel(X, ref) <= 1e-10


def test_band_size_rule(monkeypatch):
    # the direct path needs smoothing, a free entry and a band of at most
    # BAND_BYTE_CAP bytes: width = max_t (f_t + f_t+1) rows of n_free columns
    graph = _graph(6, 5, seed=5)
    pattern = sample_p1(6, 5, 0.5, seed=5)
    free = ~pattern.mask
    n_free = int(free.sum())
    width = int(max(free[:, i].sum() + free[:, i + 1].sum() for i in range(4)))
    assert solver.free_band_factor(pattern, graph, 0.0, 1.0) is None
    full = SamplingPattern(np.ones((6, 5), dtype=bool))
    assert solver.free_band_factor(full, graph, 0.8, 1.0) is None
    monkeypatch.setattr(solver, "BAND_BYTE_CAP", 8 * width * n_free - 1)
    assert solver.free_band_factor(pattern, graph, 0.8, 1.0) is None
    monkeypatch.setattr(solver, "BAND_BYTE_CAP", 8 * width * n_free)
    band = solver.free_band_factor(pattern, graph, 0.8, 1.0)
    assert band.band.shape == (width, n_free)


def test_x_update_direct_rejects_a_factor_of_other_inputs():
    rng = np.random.default_rng(6)
    graph = _graph(6, 5, seed=6)
    pattern = sample_p1(6, 5, 0.5, seed=6)
    Y, zeros = rng.standard_normal((6, 5)), np.zeros((6, 5))
    band = solver.free_band_factor(pattern, graph, 0.8, 1.0)
    others = [(SamplingPattern(pattern.mask.copy()), graph, 0.8, 1.0),
              (pattern, _graph(6, 5, seed=6), 0.8, 1.0),
              (pattern, graph, 0.7, 1.0), (pattern, graph, 0.8, 0.5)]
    for other, g, lam, tau in others:
        with pytest.raises(InputError, match="another mask, graph or weights"):
            consistent_smooth_solve(Y, other, zeros, zeros, g, lam, tau, band=band)


@pytest.mark.parametrize("where", ["observed", "target", "X_prev"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_x_update_direct_rejects_non_finite_input(where, value):
    # as on the CG path (test_x_update_cg_rejects_nan_residual): a SolverError,
    # never a silently non-finite estimate
    rng = np.random.default_rng(33)
    graph = _graph(8, 8, seed=33)
    pattern = sample_p1(8, 8, 0.5, seed=33)
    inputs = {"Y": rng.standard_normal((8, 8)), "target": rng.standard_normal((8, 8)),
              "X_prev": rng.standard_normal((8, 8))}
    rows, cols = pattern.mask.nonzero()
    if where == "observed":
        inputs["Y"][rows[0], cols[0]] = value
    else:
        inputs[where][3, 4] = value
    band = solver.free_band_factor(pattern, graph, 0.1, 1.0)
    with pytest.raises(SolverError, match="non-finite") as err:
        consistent_smooth_solve(inputs["Y"], pattern, inputs["target"], inputs["X_prev"],
                                graph, 0.1, 1.0, band=band)
    assert np.isnan(err.value.residual)


@pytest.mark.parametrize("where", ["target", "X_prev"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_x_update_cg_rejects_non_finite_input_without_warning(monkeypatch, where, value):
    # a band cap of 0 bytes leaves the CG path, which raises SolverError alone:
    # under the suite's filterwarnings = error a numpy warning would escape first
    monkeypatch.setattr(solver, "BAND_BYTE_CAP", 0)
    rng = np.random.default_rng(34)
    graph = _graph(8, 8, seed=34)
    pattern = sample_p1(8, 8, 0.5, seed=34)
    inputs = {"target": rng.standard_normal((8, 8)), "X_prev": rng.standard_normal((8, 8))}
    rows, cols = np.nonzero(~pattern.mask)
    inputs[where][rows[0], cols[0]] = value
    band = solver.free_band_factor(pattern, graph, 0.1, 1.0)
    assert band is None
    with pytest.raises(SolverError, match="CG stalled"):
        consistent_smooth_solve(rng.standard_normal((8, 8)), pattern, inputs["target"],
                                inputs["X_prev"], graph, 0.1, 1.0, band=band)


def test_band_factorization_failure_raises_solver_error():
    # tau_X = -3 makes A_ff negative definite: dpbtrf's nonzero info reaches
    # the caller as a SolverError
    graph = _graph(6, 5, seed=7)
    pattern = sample_p1(6, 5, 0.5, seed=7)
    with pytest.raises(SolverError, match="band factorization failed"):
        solver.free_band_factor(pattern, graph, 1e-6, -3.0)


@pytest.mark.parametrize("complex_", [False, True])
def test_solve_direct_and_cg_x_updates_agree(monkeypatch, complex_):
    # the engine and a kernel-chain baseline end where they end on CG, up to
    # CG's tolerance; the direct path takes no CG step
    from mkimpute.baselines import krg_solve, BaselineSpec
    from mkimpute.kernels import gaussian_spec
    Y, pattern, graph = _ring_problem(seed=2)
    if complex_:
        Y = Y + 0.5j * Y[::-1]
    lmk = _landmarks_from(Y, pattern, 5, seed=2)
    config = SolverConfig(lambda1=1e-3, lambda2=1e-3, lambda_L=0.05, outer_iters=4,
                          tol_objective=0.0, cg_tol=1e-13, seed=2)
    dims = ModelDims(12, 20, 5, 1, 2, (3,))
    cap = solver.BAND_BYTE_CAP

    def run(size_cap):
        monkeypatch.setattr(solver, "BAND_BYTE_CAP", size_cap)
        X, _, report = solve(TVGS, Y, pattern, graph, lmk, [gaussian_spec(1.0)], dims, config)
        X_krg, _, report_krg = krg_solve(Y, pattern, graph, BaselineSpec("krg"), config)
        return X, X_krg, report.cg_iters + report_krg.cg_iters

    X_cg, X_krg_cg, steps_cg = run(0)
    X, X_krg, steps = run(cap)
    assert min(steps_cg) > 0 and steps == [0] * 8
    assert _rel(X, X_cg) <= 1e-10 and _rel(X_krg, X_krg_cg) <= 1e-10
    assert np.array_equal(X[pattern.mask], Y[pattern.mask])


def test_x_update_observed_entries_pinned():
    rng = np.random.default_rng(3)
    dims = ModelDims(6, 5, 2, 1, 1, ())
    model = random_model(dims, 3)
    Y = rng.standard_normal((6, 5))
    pattern = sample_p1(6, 5, 0.5, seed=2)
    graph = _graph(6, 5, seed=3)
    X, _ = tvgs_update_X(Y, pattern, predict(model), np.zeros((6, 5)), graph, 1.2, 0.4)
    assert np.array_equal(X[pattern.mask], Y[pattern.mask])


def test_x_update_default_cap_follows_conditioning():
    # kNN weights of 1/d^2 give lam_max(S) ~ 3.5e5: the conditioning cap lies
    # far above the free-entry floor of 10 sqrt(free) + 10, and the
    # fast-diagonalization preconditioner takes CG well below the ~1000
    # steps the unpreconditioned solve needs here
    from mkimpute.experiments import make_tvgs_synthetic
    Y, coords = make_tvgs_synthetic(50, 80, 3, 5, seed=11)
    graph = build_graph_operators(coords, 5, 0.1, 1.0, 80)
    pattern = sample_p1(50, 80, 0.3, seed=0)
    zeros = np.zeros_like(Y)
    X, iters = consistent_smooth_solve(Y, pattern, zeros, zeros, graph, 0.1, 1.0)
    n_free = int((~pattern.mask).sum())
    floor = 10 * int(np.ceil(np.sqrt(n_free))) + 10
    _, (s, _), _, (d, _) = graph.smoothness()
    top = 0.1 * s[-1] * d[-1]
    assert solver._cg_cap(top, 1.0, 1e-9, n_free) > floor
    assert iters < 400
    X_ref, _ = consistent_smooth_solve(Y, pattern, zeros, zeros, graph, 0.1, 1.0,
                                       cg_max=100000)
    assert np.array_equal(X, X_ref)


# ---------------------------------------------------------------------------
# factor update
# ---------------------------------------------------------------------------

def _wing(rows, cols, rank, dtype, rng):
    """rows x cols matrix of the given rank (rank-deficient Gram matrices)."""
    def draw(r, c):
        out = rng.standard_normal((r, c))
        if dtype == np.complex128:
            out = out + 1j * rng.standard_normal((r, c))
        return out
    return draw(rows, rank) @ draw(rank, cols)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("wings", ["right only", "left only", "both"])
def test_chain_link_solve_matches_dense_normal_equations(dtype, wings):
    # minimizer of 1/2||X - L F R||^2 + (c - tau)/2||F||^2 + tau/2||F - F_hat||^2
    # from the vectorized normal equations, vec(L F R) = (R^T kron L) vec F
    rng = np.random.default_rng(40)
    n_rows, n_cols, p, r = 7, 9, 5, 6
    left = _wing(n_rows, p, 3, dtype, rng) if wings != "right only" else None
    right = _wing(r, n_cols, 2, dtype, rng) if wings != "left only" else None
    shape = (n_rows if left is None else p, n_cols if right is None else r)
    X_hat = _wing(n_rows, n_cols, min(n_rows, n_cols), dtype, rng)
    F_hat = _wing(*shape, min(shape), dtype, rng)
    c, tau = 0.7, 0.4
    L = np.eye(n_rows) if left is None else left
    R = np.eye(n_cols) if right is None else right
    A = np.kron(R.T, L)
    normal = A.conj().T @ A + c * np.eye(A.shape[1])
    rhs = A.conj().T @ X_hat.ravel(order="F") + tau * F_hat.ravel(order="F")
    ref = np.linalg.solve(normal, rhs).reshape(shape, order="F")
    F = chain_link_solve(left, right, X_hat, F_hat, c, tau)
    assert F.shape == shape
    assert _rel(F, ref) < 1e-10


def test_d_update_identity_wings_least_squares():
    # single layer, identity kernel and coefficients: D fits X directly
    rng = np.random.default_rng(4)
    dims = ModelDims(4, 4, 4, 1, 1, ())
    model = init_factors(dims, 4, np.float64)
    model.kernels[0] = np.eye(4)
    model.coeffs[0] = np.eye(4)
    X_hat = rng.standard_normal((4, 4))
    blocks = tvgs_update_D(1, X_hat, model, 0.0, 1e-12)
    assert np.allclose(blocks[0], X_hat, atol=1e-8)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("m_count,depth,inner", [
    (1, 2, (2,)), (2, 2, (2,)), (1, 3, (2, 2)), (2, 3, (2, 3)),
])
def test_d_update_matches_dense_oracle(dtype, m_count, depth, inner):
    rng = np.random.default_rng(depth * 10 + m_count)
    dims = ModelDims(6, 5, 3, m_count, depth, inner)
    model = random_model(dims, m_count + depth, dtype)
    X_hat = rng.standard_normal((6, 5)).astype(dtype)
    if np.issubdtype(np.dtype(dtype), np.complexfloating):
        X_hat = X_hat + 1j * rng.standard_normal((6, 5))
    for q in range(1, depth + 1):
        got = tvgs_update_D(q, X_hat, model, 0.3, 0.7)
        ref = dense_d_oracle(q - 1, X_hat, model, 0.3, 0.7)
        for g, r in zip(got, ref):
            assert _rel(g, r) < 1e-8


def test_d_update_stationarity_on_support():
    rng = np.random.default_rng(5)
    dims = ModelDims(6, 5, 3, 2, 2, (2,))
    model = random_model(dims, 6)
    X_hat = rng.standard_normal((6, 5))
    new = tvgs_update_D(2, X_hat, model, 0.4, 0.9)
    grads = d_subtask_gradient(new, 1, X_hat, model, 0.4, 0.9)
    for g in grads:
        assert np.linalg.norm(g) < 1e-8


def test_d_update_layer_bounds():
    dims = ModelDims(4, 4, 2, 1, 2, (2,))
    model = random_model(dims, 0)
    with pytest.raises(InputError):
        tvgs_update_D(0, np.zeros((4, 4)), model, 0.1, 0.1)
    with pytest.raises(InputError):
        tvgs_update_D(3, np.zeros((4, 4)), model, 0.1, 0.1)


def _defective_model(dims, seed, complex_, defect):
    """Random model whose first factors and coefficients carry a defect that
    makes the lefts and rights of the factor update rank-deficient: a zero or
    repeated column of every D_m^(1) and row of every B_m."""
    model = random_model(dims, seed, np.complex128 if complex_ else np.float64)
    for m in range(dims.n_kernels):
        D1, B = model.factors[m][0], model.coeffs[m]
        if defect == "zero":
            D1[:, 0], B[0] = 0, 0
        elif defect == "repeat":
            D1[:, 0], B[0] = D1[:, -1], B[-1]
    return model


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(m_count=st.integers(1, 3), depth=st.integers(2, 3), complex_=st.booleans(),
       n_l=st.integers(2, 5), inner=st.integers(1, 4),
       defect=st.sampled_from(["none", "zero", "repeat"]),
       log_c=st.floats(-6.0, 1.0), tau_share=st.floats(0.0, 1.0), seed=st.integers(0, 999))
def test_d_update_matches_dense_oracle_on_rank_deficient_wings(m_count, depth, complex_, n_l,
                                                               inner, defect, log_c,
                                                               tau_share, seed):
    dims = ModelDims(7, 6, n_l, m_count, depth, (inner,) * (depth - 1))
    model = _defective_model(dims, seed, complex_, defect)
    rng = np.random.default_rng(seed)
    X_hat = rng.standard_normal((7, 6))
    if complex_:
        X_hat = X_hat + 1j * rng.standard_normal((7, 6))
    c = 10.0 ** log_c
    tau = tau_share * c
    for q in range(1, depth):
        got = solver.update_factor(q, X_hat, model, c - tau, tau)
        ref = dense_d_oracle(q, X_hat, model, c - tau, tau)
        assert _rel(np.stack(got), np.stack(ref)) <= 1e-8


def test_d_update_single_block_is_the_sylvester_link_solve():
    # one block needs no CG step: the update is chain_link_solve's, bit for bit
    dims = ModelDims(6, 5, 3, 1, 3, (2, 4))
    model = random_model(dims, 8, np.complex128)
    rng = np.random.default_rng(8)
    X_hat = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    for q in (1, 2):
        (left,), (right,) = solver.factor_wings(model, q)
        got = solver.update_factor(q, X_hat, model, 0.3, 0.7)
        ref = chain_link_solve(left, right, X_hat, model.factors[0][q], 1.0, 0.7)
        assert np.array_equal(got[0], ref)


@pytest.mark.parametrize("m_count", [1, 2])
def test_d_update_rejects_nan_data(m_count):
    dims = ModelDims(6, 5, 3, m_count, 2, (2,))
    model = random_model(dims, 9)
    X_hat = np.random.default_rng(9).standard_normal((6, 5))
    X_hat[2, 3] = np.nan
    with pytest.raises(SolverError, match="factor-update CG"):
        solver.update_factor(1, X_hat, model, 0.3, 0.7)


# ---------------------------------------------------------------------------
# coefficient update
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("m_count", [1, 2])
def test_b_update_no_l1_matches_kkt_oracle(dtype, m_count):
    rng = np.random.default_rng(m_count)
    dims = ModelDims(7, 5, 3, m_count, 2, (2,))
    model = random_model(dims, m_count + 20, dtype)
    X_hat = rng.standard_normal((7, 5)).astype(dtype)
    if np.issubdtype(np.dtype(dtype), np.complexfloating):
        X_hat = X_hat + 1j * rng.standard_normal((7, 5))
    blocks, stats = update_B(X_hat, model, 0.0, 1.0, inner_tol=1e-12, inner_max=5000)
    got = np.concatenate(blocks, axis=0)
    ref = dense_b_oracle(X_hat, model, 1.0)
    assert stats["converged"]
    assert _rel(got, ref) < 1e-8


def test_b_update_feasible_under_heavy_shrinkage():
    rng = np.random.default_rng(7)
    dims = ModelDims(3, 4, 3, 1, 1, ())
    model = init_factors(dims, 7, np.float64)
    model.factors[0][0] = np.eye(3)
    model.kernels[0] = np.eye(3)
    X_hat = rng.standard_normal((3, 4))
    blocks, _ = update_B(X_hat, model, 1e6, 0.5, inner_tol=1e-10, inner_max=2000)
    sums = blocks[0].sum(axis=0)
    assert np.max(np.abs(sums - 1.0)) < 1e-8
    assert np.all(np.isfinite(blocks[0]))


def test_b_update_objective_non_increasing():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        dims = ModelDims(6, 5, 3, 2, 2, (2,))
        model = random_model(dims, seed + 40)
        X_hat = rng.standard_normal((6, 5))
        _, stats = update_B(X_hat, model, 0.3, 0.8, inner_tol=1e-10, inner_max=300)
        trace = np.array(stats["objective_trace"])
        assert np.all(np.diff(trace) <= 1e-12)


def test_b_update_complex_affine_feasibility():
    rng = np.random.default_rng(8)
    dims = ModelDims(6, 5, 3, 2, 2, (2,))
    model = random_model(dims, 55, np.complex128)
    X_hat = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    blocks, _ = update_B(X_hat, model, 0.2, 1.0, inner_tol=1e-10, inner_max=2000)
    for blk in blocks:
        assert np.max(np.abs(blk.sum(axis=0) - 1.0)) < 1e-8


def test_affine_l1_prox_complex_route_matches_exact_real_route():
    # one multiplier solve serves both dtypes; on real data and on the same
    # data cast to complex it must produce the same point (the check against
    # an independent algorithm is the exact real breakpoint search below)
    from mkimpute.solver import _prox_affine_l1
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        n, t = int(rng.integers(2, 25)), int(rng.integers(1, 6))
        V = rng.standard_normal((n, t)) * rng.uniform(0.1, 10)
        alpha = rng.uniform(1e-3, 3.0)
        z_real = _prox_affine_l1(V, alpha, n)
        z_cplx = _prox_affine_l1(V.astype(complex), alpha, n)
        worst = max(worst, float(np.abs(z_real - z_cplx).max()))
    assert worst < 1e-9


def test_affine_l1_prox_feasible_on_adversarial_scales():
    from mkimpute.solver import _prox_affine_l1
    rng = np.random.default_rng(4)
    for trial in range(60):
        n = int(rng.integers(1, 30))
        scale = 10.0 ** rng.uniform(-4, 4)
        V = scale * (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4)))
        if trial % 3 == 1:
            V = V * 0.001 + (1.0 + 1.0j)  # tight off-origin cluster
        alpha = 10.0 ** rng.uniform(-4, 2) * scale
        Z = _prox_affine_l1(V, alpha, n)
        feas = np.abs(Z.sum(axis=0) - 1.0).max()
        assert feas <= 1e-10 * (1.0 + np.abs(Z).max())
        assert np.all(np.isfinite(Z))


def _affine_l1_kkt_violation(V, Z, alpha):
    """Largest |z - soft(v - mu, alpha)| over a block, relative to
    1 + alpha + max|v|, with mu = v - z - alpha z/|z| read off each column's
    largest entry: active entries must share that mu and inactive ones must
    satisfy |v - mu| <= alpha, which is the prox's KKT system."""
    cols = np.arange(Z.shape[1])
    top = np.argmax(np.abs(Z), axis=0)
    z, v = Z[top, cols], V[top, cols]
    mu = v - z - alpha * z / np.abs(z)
    W = V - mu
    mag = np.abs(W)
    soft = W * np.maximum(mag - alpha, 0.0) / np.where(mag > 0, mag, 1.0)
    return float(np.abs(Z - soft).max()) / (1.0 + alpha + float(np.abs(V).max()))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(blocks=st.integers(1, 3), n_l=st.integers(1, 10), cols=st.integers(1, 4),
       complex_=st.booleans(), log_scale=st.floats(-6, 6),
       alpha=st.one_of(st.just(0.0), st.floats(1e-8, 1e8)),
       duplicate_rows=st.booleans(), zero_column=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_affine_l1_prox_is_feasible_and_kkt_exact(blocks, n_l, cols, complex_, log_scale,
                                                  alpha, duplicate_rows, zero_column, seed):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((blocks * n_l, cols))
    if complex_:
        V = V + 1j * rng.standard_normal(V.shape)
    V *= 10.0 ** log_scale
    if duplicate_rows:
        V[1::2] = V[0]
    if zero_column:
        V[:, 0] = 0.0
    Z = solver._prox_affine_l1(V, alpha, n_l)
    for mb in range(blocks):
        Vm, Zm = V[mb * n_l : (mb + 1) * n_l], Z[mb * n_l : (mb + 1) * n_l]
        vmax = float(np.abs(Vm).max())
        assert np.abs(Zm.sum(axis=0) - 1.0).max() <= 1e-12 * (1.0 + vmax)
        assert _affine_l1_kkt_violation(Vm, Zm, alpha) <= 1e-9


def test_affine_l1_multiplier_matches_exact_real_breakpoint_search():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n, t = int(rng.integers(1, 25)), int(rng.integers(1, 6))
        V = rng.standard_normal((n, t)) * 10.0 ** rng.uniform(-6, 6)
        if rng.random() < 0.3:
            V[: n // 2 + 1] = V[0]  # ties among the breakpoints
        alpha = 10.0 ** rng.uniform(-8, 4)
        mu = solver._affine_l1_multiplier(V, alpha)
        scale = 1.0 + alpha + np.abs(V).max(axis=0)
        assert np.all(np.abs(mu - _prox_mu_real(V, alpha)) <= 1e-12 * scale)


def test_affine_l1_prox_complex_optimum_when_weight_dominates():
    # alpha well above |v|: a splitting loop with a fixed iteration cap
    # stops at objective 15.839626 here (KKT violation 1.5e-6)
    rng = np.random.default_rng(0)
    V = rng.standard_normal((8, 1)) + 1j * rng.standard_normal((8, 1))
    Z = solver._prox_affine_l1(V, 10.0, 8)
    assert abs(Z.sum() - 1.0) <= 1e-12
    assert _affine_l1_kkt_violation(V, Z, 10.0) <= 1e-9
    objective = 0.5 * np.sum(np.abs(Z - V) ** 2) + 10.0 * np.abs(Z).sum()
    assert objective == pytest.approx(15.838862100781, abs=1e-9)


def test_affine_l1_prox_complex_weight_far_above_entries(monkeypatch):
    # alpha = 3-30 |v|: Phi's valley is a circle of radius ~alpha, on which
    # straight Newton steps zig-zag; this block took over 100 of them
    V = np.array([[9.8e5 + 3.71e6j], [-4.82e5 + 6.4e5j], [1.01e4 - 3.71e5j]])
    Z = solver._prox_affine_l1(V, 1e7, 3)
    assert abs(Z.sum() - 1.0) <= 1e-12 * (1.0 + np.abs(V).max())
    assert _affine_l1_kkt_violation(V, Z, 1e7) <= 1e-9
    monkeypatch.setattr(solver, "_PROX_MAX_ITER", 30)
    rng = np.random.default_rng(6)
    for scale in (1.0, 1e3, 1e6):
        for ratio in (3.0, 10.0, 30.0):
            for n in (2, 5, 20):
                V = scale * (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4)))
                solver._affine_l1_multiplier(V, ratio * scale)


def test_affine_l1_prox_raises_instead_of_returning_unconverged(monkeypatch):
    V = np.random.default_rng(1).standard_normal((6, 3)) + 2.0
    with pytest.raises(SolverError):
        solver._prox_affine_l1(np.where(np.eye(6, 3) > 0, np.nan, V), 0.1, 6)
    monkeypatch.setattr(solver, "_PROX_MAX_ITER", 0)
    with pytest.raises(SolverError, match="Newton"):
        solver._prox_affine_l1(V, 0.1, 6)


def test_b_update_sparsifies():
    rng = np.random.default_rng(9)
    dims = ModelDims(8, 6, 4, 1, 2, (3,))
    model = random_model(dims, 66)
    X_hat = rng.standard_normal((8, 6))
    dense_blocks, _ = update_B(X_hat, model, 0.0, 1.0, inner_max=2000)
    sparse_blocks, _ = update_B(X_hat, model, 5.0, 1.0, inner_max=2000)
    nnz = lambda blks: sum(int(np.sum(np.abs(b) > 1e-9)) for b in blks)  # noqa: E731
    assert nnz(sparse_blocks) < nnz(dense_blocks)


def test_b_ridge_closed_form():
    rng = np.random.default_rng(10)
    dims = ModelDims(6, 5, 3, 1, 2, (2,))
    model = random_model(dims, 77)
    X_hat = rng.standard_normal((6, 5))
    blocks = update_B_ridge(X_hat, model, 0.4, 0.9)
    # stationarity: A^H(A B - X) + (lam + tau) B - tau B_hat - lam*0 = 0
    A = np.concatenate([block_basis(model, m) for m in range(1)], axis=1)
    B = np.concatenate(blocks, axis=0)
    grad = A.T @ (A @ B - X_hat) + 0.4 * B + 0.9 * (B - model.coeffs[0])
    assert np.linalg.norm(grad) < 1e-8


# ---------------------------------------------------------------------------
# k-space updates
# ---------------------------------------------------------------------------

def test_soft_threshold_values():
    assert soft_threshold(np.array([3.0]), 1.0)[0] == pytest.approx(2.0)
    assert soft_threshold(np.array([0.5]), 1.0)[0] == 0.0
    z = soft_threshold(np.array([3.0 * np.exp(1j * 0.7)]), 1.0)[0]
    assert abs(z) == pytest.approx(2.0)
    assert np.angle(z) == pytest.approx(0.7)


def test_z_update_identity_when_unregularized():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    Z = dmri_update_Z(dft_temporal(X), np.zeros_like(X), lambda2=1.0, lambda3=0.0,
                      tau_Z=0.0 + 1e-300)
    assert np.allclose(Z, dft_temporal(X))


def test_z_update_rules_agree_when_tau_zero():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    Zp = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    a = dmri_update_Z(dft_temporal(X), Zp, 2.0, 0.5, 1e-300, rule="ratio")
    b = dmri_update_Z(dft_temporal(X), Zp, 2.0, 0.5, 1e-300, rule="prox")
    assert np.allclose(a, b, atol=1e-10)


def test_z_update_requires_lambda2():
    with pytest.raises(InputError):
        dmri_update_Z(dft_temporal(np.zeros((2, 2))), np.zeros((2, 2)), 0.0, 1.0, 1.0)


def test_z_update_prox_rule_is_exact_prox():
    # direct check against the sub-task optimality condition via objective
    # sampling around the returned point
    rng = np.random.default_rng(13)
    X = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    Zp = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    lam2, lam3, tau = 1.5, 0.7, 0.9
    Z = dmri_update_Z(dft_temporal(X), Zp, lam2, lam3, tau, rule="prox")

    def obj(Zc):
        return (0.5 * lam2 * np.linalg.norm(Zc - dft_temporal(X)) ** 2
                + lam3 * np.abs(Zc).sum()
                + 0.5 * tau * np.linalg.norm(Zc - Zp) ** 2)

    base = obj(Z)
    for _ in range(20):
        pert = 1e-4 * (rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4)))
        assert obj(Z + pert) >= base - 1e-12


def test_dmri_x_full_sampling():
    rng = np.random.default_rng(14)
    i1 = i2 = 4
    i3 = 3
    dims = ModelDims(16, 3, 2, 1, 1, ())
    model = random_model(dims, 99, np.complex128)
    Y = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    mask = np.ones((16, 3), dtype=bool)
    pattern = SamplingPattern(mask)
    Z = dft_temporal(ifft2_frames(Y, i1, i2))
    K = dmri_update_X(Y, pattern, predict(model), fft2_frames(np.zeros((16, 3), complex), i1, i2),
                      Z, 0.5, 0.5, (i1, i2, i3))
    assert np.allclose(ifft2_frames(K, i1, i2), ifft2_frames(Y, i1, i2), atol=1e-12)


def test_dmri_x_quarter_is_target_when_unweighted():
    rng = np.random.default_rng(15)
    i1 = i2 = 4
    i3 = 3
    dims = ModelDims(16, 3, 2, 1, 1, ())
    model = random_model(dims, 15, np.complex128)
    Y = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    mask = np.zeros((16, 3), dtype=bool)  # nothing observed: pure quarter step
    pattern = SamplingPattern(mask)
    K = dmri_update_X(Y, pattern, predict(model), fft2_frames(np.zeros((16, 3), complex), i1, i2),
                      np.zeros((16, 3), complex), 0.0, 0.0, (i1, i2, i3))
    assert np.allclose(ifft2_frames(K, i1, i2), predict(model), atol=1e-10)


def test_dmri_x_matches_dense_oracle():
    rng = np.random.default_rng(16)
    i1 = i2 = 4
    i3 = 3
    for seed in range(4):
        dims = ModelDims(16, 3, 2, 1, 2, (2,))
        model = random_model(dims, seed + 30, np.complex128)
        Y = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        pattern = SamplingPattern(rng.random((16, 3)) < 0.4)
        X_prev = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        Z_hat = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
        K = dmri_update_X(Y, pattern, predict(model), fft2_frames(X_prev, i1, i2), Z_hat,
                          0.8, 0.6, (i1, i2, i3))
        X = ifft2_frames(K, i1, i2)
        ref = dense_dmri_x_oracle(Y, pattern.mask, predict(model), X_prev, Z_hat,
                                  0.8, 0.6, (i1, i2, i3))
        assert _rel(X, ref) < 1e-8
        K = fft2_frames(X, i1, i2)
        assert np.max(np.abs(K[pattern.mask] - Y[pattern.mask])) < 1e-10


# ---------------------------------------------------------------------------
# analytic gradients vs central finite differences
# ---------------------------------------------------------------------------

def _fd_gradient(f, X, h=1e-6):
    g = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        for part, scale in ((1.0, 1.0), (1j, 1j)) if np.iscomplexobj(X) else ((1.0, 1.0),):
            Xp, Xm = X.copy(), X.copy()
            Xp[idx] += h * part
            Xm[idx] -= h * part
            d = (f(Xp) - f(Xm)) / (2 * h)
            g[idx] += d * scale if np.iscomplexobj(X) else d
        it.iternext()
    return g


def test_x_gradient_matches_fd():
    rng = np.random.default_rng(17)
    for seed in range(3):
        graph = _graph(5, 4, seed=seed)
        target = rng.standard_normal((5, 4))
        anchor = rng.standard_normal((5, 4))
        X = rng.standard_normal((5, 4))
        lam_l, tau = 0.7, 0.4
        ddt = graph.delta @ graph.delta.T

        def f(mat):
            return (0.5 * np.linalg.norm(mat - target) ** 2
                    + 0.5 * lam_l * np.trace(mat.T @ graph.L_sobolev @ mat @ ddt)
                    + 0.5 * tau * np.linalg.norm(mat - anchor) ** 2)

        g = x_subtask_gradient(X, target, anchor, graph.L_sobolev, graph.delta, lam_l, tau)
        num = _fd_gradient(f, X)
        assert np.linalg.norm(num - g) / np.linalg.norm(g) < 1e-5


def test_d_gradient_matches_fd():
    rng = np.random.default_rng(18)
    dims = ModelDims(5, 4, 3, 2, 2, (2,))
    model = random_model(dims, 18)
    X_hat = rng.standard_normal((5, 4))
    q_index = 1
    blocks = [rng.standard_normal(model.factors[m][q_index].shape) for m in range(2)]
    lam, tau = 0.3, 0.6

    from mkimpute.solver import factor_wings
    lefts, rights = factor_wings(model, q_index)

    def f_block(which):
        def f(Dm):
            use = [Dm if m == which else blocks[m] for m in range(2)]
            fit = sum(lefts[m] @ use[m] @ rights[m] for m in range(2)) - X_hat
            val = 0.5 * np.linalg.norm(fit) ** 2
            val += 0.5 * lam * sum(np.linalg.norm(u) ** 2 for u in use)
            val += 0.5 * tau * sum(
                np.linalg.norm(u - model.factors[m][q_index]) ** 2
                for m, u in enumerate(use)
            )
            return val
        return f

    grads = d_subtask_gradient(blocks, q_index, X_hat, model, lam, tau)
    for m in range(2):
        num = _fd_gradient(f_block(m), blocks[m])
        assert np.linalg.norm(num - grads[m]) / np.linalg.norm(grads[m]) < 1e-5


def test_b_smooth_gradient_matches_fd():
    rng = np.random.default_rng(19)
    dims = ModelDims(5, 4, 3, 1, 2, (2,))
    model = random_model(dims, 19)
    X_hat = rng.standard_normal((5, 4))
    B = rng.standard_normal((3, 4))
    tau = 0.8
    A = block_basis(model, 0)

    def f(Bc):
        return (0.5 * np.linalg.norm(X_hat - A @ Bc) ** 2
                + 0.5 * tau * np.linalg.norm(Bc - model.coeffs[0]) ** 2)

    g = b_subtask_smooth_gradient(B, X_hat, model, tau)
    num = _fd_gradient(f, B)
    assert np.linalg.norm(num - g) / np.linalg.norm(g) < 1e-5


def test_dmri_x_gradient_matches_fd():
    rng = np.random.default_rng(20)
    X = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    target = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    anchor = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    Z_hat = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    lam2, tau = 0.9, 0.5

    def f(mat):
        return (0.5 * np.linalg.norm(mat - target) ** 2
                + 0.5 * lam2 * np.linalg.norm(Z_hat - dft_temporal(mat)) ** 2
                + 0.5 * tau * np.linalg.norm(mat - anchor) ** 2)

    g = dmri_x_subtask_gradient(X, target, anchor, Z_hat, lam2, tau)
    num = _fd_gradient(f, X)
    assert np.linalg.norm(num - g) / np.linalg.norm(g) < 1e-5


# ---------------------------------------------------------------------------
# full solves
# ---------------------------------------------------------------------------

def _ring_problem(n_nodes=12, n_times=20, seed=0):
    angles = 2 * np.pi * np.arange(n_nodes) / n_nodes
    coords = np.vstack([np.cos(angles), np.sin(angles)])
    graph = build_graph_operators(coords, 2, 0.2, 1.0, n_times)
    lam, U = np.linalg.eigh(graph.L)
    t = np.arange(n_times)
    rng = np.random.default_rng(seed)
    Y = 2.0 + sum(
        (1.0 / (j + 1)) * np.sqrt(n_nodes) * U[:, j + 1][:, None]
        * np.sin(2 * np.pi * (j + 1) * t / n_times + rng.uniform(0, 2 * np.pi))[None, :]
        for j in range(2)
    )
    pattern = sample_p1(n_nodes, n_times, 0.5, seed=seed)
    return Y, pattern, graph


def _landmarks_from(Y, pattern, count, seed=0):
    nav = NavigatorSet(np.where(pattern.mask, Y, 0))
    return select_landmarks(nav, count, "maxmin", seed)


def test_solve_tvgs_objective_decreases():
    Y, pattern, graph = _ring_problem()
    lmk = _landmarks_from(Y, pattern, 6)
    from mkimpute.kernels import gaussian_spec
    dims = ModelDims(12, 20, 6, 1, 2, (3,))
    config = SolverConfig(lambda1=1e-3, lambda2=1e-3, lambda_L=0.05,
                          outer_iters=50, tol_objective=0.0, seed=0)
    X, model, report = solve(TVGS, Y, pattern, graph, lmk, [gaussian_spec(1.0)],
                             dims, config)
    assert report.objective[-1] < report.objective[0]
    assert report.objective[-1] < report.initial_objective
    assert max(report.consistency) == 0.0
    assert max(report.affine_residual) < 1e-8


def _record_eigh_shapes(monkeypatch):
    """The shape of every np.linalg.eigh argument, in call order."""
    shapes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))  # one append is atomic: worker threads may share it
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return shapes


def test_graph_factorizations_run_once_per_graph(monkeypatch, tmp_path):
    # S = (L + eps I)^beta and DD^T do not change during a solve: each is
    # factorized once per graph, on first use, and not once per X update.
    # I0 = 12 and I_N = 20 differ from every factor-solve size here (3 to 6).
    # A band cap of 0 bytes keeps the X updates on CG; the direct path is
    # checked last.
    from mkimpute.experiments import run_experiment
    from mkimpute.kernels import gaussian_spec
    cap = solver.BAND_BYTE_CAP
    monkeypatch.setattr(solver, "BAND_BYTE_CAP", 0)
    Y, pattern, graph = _ring_problem()
    lmk = _landmarks_from(Y, pattern, 6)
    config = SolverConfig(lambda1=1e-3, lambda2=1e-3, lambda_L=0.05,
                          outer_iters=4, tol_objective=0.0, seed=0)
    dims = ModelDims(12, 20, 6, 1, 2, (3,))
    shapes = _record_eigh_shapes(monkeypatch)
    _, _, report = solve(TVGS, Y, pattern, graph, lmk, [gaussian_spec(1.0)], dims, config)
    assert report.iterations == 4 and min(report.cg_iters) > 0
    assert (shapes.count((12, 12)), shapes.count((20, 20))) == (1, 1)
    # a sweep builds one graph that both cells' worker threads share; csv
    # data, because the synthetic generator runs an eigh of its own
    np.savetxt(tmp_path / "y.csv", Y, delimiter=",")
    angles = 2 * np.pi * np.arange(12) / 12  # _ring_problem's nodes
    np.savetxt(tmp_path / "c.csv", np.column_stack([np.cos(angles), np.sin(angles)]),
               delimiter=",")
    shapes.clear()
    spec = {"problem": "tvgs",
            "data": {"source": "csv", "data_path": str(tmp_path / "y.csv"),
                     "coords_path": str(tmp_path / "c.csv")},
            "sampling": {"kind": "p1", "ratios": [0.4, 0.6]},
            "graph": {"k": 2, "eps": 0.2, "beta": 1.0},
            "landmarks": {"count": 6}, "dims": {"depth": 2, "inner": [3]},
            "baseline": {"rank": 4, "depth": 2},
            "solver": {"lambda1": 1e-3, "lambda2": 1e-3, "lambda_L": 0.05,
                       "outer_iters": 3},
            "methods": ["mlkr", "mmf", "krg"], "workers": 2}
    rows = run_experiment(spec, tmp_path / "out")
    assert len(rows) == 6 and not (tmp_path / "out" / "errors.log").exists()
    assert (shapes.count((12, 12)), shapes.count((20, 20))) == (1, 1)
    # on the direct path the free-entry band is factored once per solve,
    # before the loop, not once per X update
    monkeypatch.setattr(solver, "BAND_BYTE_CAP", cap)
    factored = []
    dpbtrf = solver.dpbtrf

    def recording(a, *args, **kwargs):
        factored.append(np.shape(a))
        return dpbtrf(a, *args, **kwargs)

    monkeypatch.setattr(solver, "dpbtrf", recording)
    Y, pattern, graph = _ring_problem()
    shapes.clear()
    _, _, report = solve(TVGS, Y, pattern, graph, lmk, [gaussian_spec(1.0)], dims, config)
    n_free = int((~pattern.mask).sum())
    assert report.iterations == 4 and report.cg_iters == [0] * 4
    assert len(factored) == 1 and factored[0][1] == n_free
    assert (shapes.count((12, 12)), shapes.count((20, 20))) == (1, 1)
    # the sweep solves 3 methods in each of 2 cells, 3 X updates each
    factored.clear()
    rows = run_experiment(spec, tmp_path / "direct")
    assert len(rows) == 6 and not (tmp_path / "direct" / "errors.log").exists()
    assert len(factored) == 6


def test_graph_factorization_runs_once_under_concurrent_first_use(monkeypatch):
    # eight threads ask one graph for its spectrum at once, switching every
    # microsecond: the lock lets exactly one of them factorize
    shapes = _record_eigh_shapes(monkeypatch)
    graph = build_graph_operators(np.random.default_rng(15).random((2, 30)), 4, 0.1, 1.0, 25)
    barrier = threading.Barrier(8)
    seen = []

    def first_use():
        barrier.wait(timeout=10)
        seen.append(graph.smoothness())

    threads = [threading.Thread(target=first_use) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(seen) == 8 and all(s is seen[0] for s in seen)
    assert sorted(shapes) == [(25, 25), (30, 30)]


def test_solve_tvgs_full_observation_single_step():
    Y, _, graph = _ring_problem()
    pattern = sample_p1(12, 20, 1.0, seed=0)
    lmk = _landmarks_from(Y, pattern, 5)
    from mkimpute.kernels import gaussian_spec
    dims = ModelDims(12, 20, 5, 1, 1, ())
    config = SolverConfig(lambda_L=0.0, outer_iters=3, seed=0)
    X, _, _ = solve(TVGS, Y, pattern, graph, lmk, [gaussian_spec(1.0)], dims, config)
    assert np.array_equal(X, Y)


def test_solve_leaves_the_initial_model_untouched():
    Y, pattern, graph = _ring_problem(seed=4)
    dims = ModelDims(12, 20, 5, 2, 3, (3, 2))
    model0 = random_model(dims, 4)
    before = [a.copy() for row in model0.factors for a in row] + \
        [a.copy() for a in model0.kernels + model0.coeffs]
    config = SolverConfig(lambda1=1e-3, lambda2=1e-3, lambda_L=0.02,
                          outer_iters=3, tol_objective=0.0)
    _, model, _ = solver.solve_from_model(TVGS, Y, pattern, graph, model0, config)
    after = [a for row in model0.factors for a in row] + model0.kernels + model0.coeffs
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert model is not model0


def test_solve_deterministic_reports():
    Y, pattern, graph = _ring_problem(seed=3)
    lmk = _landmarks_from(Y, pattern, 5, seed=3)
    from mkimpute.kernels import gaussian_spec
    dims = ModelDims(12, 20, 5, 1, 2, (3,))
    config = SolverConfig(lambda1=1e-3, lambda2=1e-3, lambda_L=0.02,
                          outer_iters=10, tol_objective=0.0, seed=3)
    runs = [solve(TVGS, Y, pattern, graph, lmk, [gaussian_spec(1.0)], dims, config)
            for _ in range(2)]
    assert runs[0][2].objective == runs[1][2].objective
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][2].gammas == runs[1][2].gammas


def test_solve_surrogate_optimality_half_iterates():
    # every half-iterate must lower its own sub-task objective versus the
    # current point (unique minimizer of a strongly convex surrogate)
    rng = np.random.default_rng(21)
    Y, pattern, graph = _ring_problem(seed=5)
    dims = ModelDims(12, 20, 5, 1, 2, (3,))
    model = random_model(dims, 9)
    config = SolverConfig(lambda1=0.01, lambda2=0.1, lambda_L=0.05, seed=5)
    X = np.where(pattern.mask, Y, 0.0)

    from mkimpute.solver import update_B as ub, update_factor as uf
    # X sub-task
    X_half, _ = tvgs_update_X(Y, pattern, predict(model), X, graph, config.lambda_L,
                              config.tau_X, cg_tol=1e-12, cg_max=5000)
    ddt = graph.delta @ graph.delta.T

    def x_obj(mat):
        return (0.5 * np.linalg.norm(mat - predict(model)) ** 2
                + 0.5 * config.lambda_L * np.trace(mat.T @ graph.L_sobolev @ mat @ ddt)
                + 0.5 * config.tau_X * np.linalg.norm(mat - X) ** 2)

    assert x_obj(X_half) <= x_obj(X) + 1e-10

    # factor sub-task per layer
    for q in range(2):
        new = uf(q, X, model, config.lambda2, config.tau_D)
        from mkimpute.solver import factor_wings
        lefts, rights = factor_wings(model, q)

        def d_obj(blocks):
            fit = sum(
                (blocks[m] @ rights[m] if lefts[m] is None else lefts[m] @ blocks[m] @ rights[m])
                for m in range(1)
            ) - X
            val = 0.5 * np.linalg.norm(fit) ** 2
            val += 0.5 * config.lambda2 * sum(np.linalg.norm(b) ** 2 for b in blocks)
            val += 0.5 * config.tau_D * sum(
                np.linalg.norm(b - model.factors[m][q]) ** 2 for m, b in enumerate(blocks)
            )
            return val

        assert d_obj(new) <= d_obj([model.factors[0][q]]) + 1e-10

    # coefficient sub-task
    new_b, stats = ub(X, model, config.lambda1, config.tau_B, inner_max=500)
    assert stats["objective_trace"][-1] <= stats["objective_trace"][0] + 1e-12


def test_solve_dmri_consistency_and_recovery_direction():
    from mkimpute.mri import make_phantom
    from mkimpute.sampling import radial_mask, with_band
    from mkimpute.navigators import form_navigators_dmri
    from mkimpute.kernels import median_distance_gaussian

    ds = make_phantom(16, 16, 8)
    pattern = with_band(radial_mask(16, 16, 8, accel=4.0, seed=0), 16, 16, 2)
    S_y = np.where(pattern.mask, ds.kspace, 0)
    scale = np.abs(S_y).max()
    Yn = ds.kspace / scale  # unit k-space scale so kernel widths are meaningful
    nav = form_navigators_dmri(np.where(pattern.mask, Yn, 0), pattern, 16, 16, 2)
    lmk = select_landmarks(nav, 6, "maxmin", 0)
    dims = ModelDims(256, 8, 6, 1, 2, (3,))
    # the verbatim Z rule scales the previous spectrum by tau_Z / lambda2, so
    # stability needs tau_Z well below lambda2
    config = SolverConfig(lambda1=1e-4, lambda2=2.0, lambda3=0.005, lambda4=1e-3,
                          tau_Z=0.05, outer_iters=20, tol_objective=0.0, seed=0)
    X, model, report = solve(DMRI, Yn, pattern, (16, 16, 8), lmk,
                             [median_distance_gaussian(lmk.points)], dims, config)
    assert max(report.consistency) <= 1e-10
    assert max(report.affine_residual) < 1e-8
    zf = ifft2_frames(S_y, 16, 16)
    err_solver = np.linalg.norm(X * scale - ds.ground_truth_image)
    err_zf = np.linalg.norm(zf - ds.ground_truth_image)
    assert err_solver < err_zf


def test_solve_rejects_mismatched_dims():
    Y, pattern, graph = _ring_problem()
    lmk = _landmarks_from(Y, pattern, 5)
    from mkimpute.kernels import gaussian_spec
    dims = ModelDims(12, 20, 6, 1, 2, (3,))  # landmark count mismatch
    with pytest.raises(InputError):
        solve(TVGS, Y, pattern, graph, lmk, [gaussian_spec(1.0)], dims, SolverConfig())


def _engine_inputs(problem):
    """(Y, pattern, operators, landmarks, kernel specs, dims) of a small solve."""
    from mkimpute.kernels import gaussian_spec
    if problem == TVGS:
        Y, pattern, graph = _ring_problem()
        lmk = _landmarks_from(Y, pattern, 6)
        return Y, pattern, graph, lmk, [gaussian_spec(1.0)], ModelDims(12, 20, 6, 1, 2, (3,))
    return (*_small_dmri_problem(), ModelDims(256, 8, 6, 1, 2, (3,)))


@pytest.mark.parametrize("problem", [TVGS, DMRI])
@pytest.mark.parametrize("rows, cols", [(1, None), (None, 1)])
def test_solve_rejects_data_of_another_shape(problem, rows, cols):
    # a one-row or one-column Y broadcast against the mask and gave a
    # full-size result; the data must have the mask's shape
    Y, pattern, operators, lmk, specs, dims = _engine_inputs(problem)
    Y = Y[:rows, :cols]
    config = SolverConfig(lambda2=2.0, outer_iters=1)
    with pytest.raises(InputError, match="does not match mask"):
        solve(problem, Y, pattern, operators, lmk, specs, dims, config)
    with pytest.raises(InputError, match="does not match mask"):
        solve_from_model(problem, Y, pattern, operators,
                         init_factors(dims, 0, np.complex128), config)


@pytest.mark.parametrize("run, problem, match", [
    ("solve", "bogus", "unknown problem"),
    ("solve", DMRI, "needs \\(I1, I2, I3\\) dims"),
    ("solve_from_model", DMRI, "needs \\(I1, I2, I3\\) dims"),
])
def test_solve_checks_the_problem_and_its_operators_first(run, problem, match):
    # the graph is the other problem's operators for dmri
    Y, pattern, graph, lmk, specs, dims = _engine_inputs(TVGS)
    config = SolverConfig(outer_iters=1)
    with pytest.raises(InputError, match=match):
        if run == "solve":
            solve(problem, Y, pattern, graph, lmk, specs, dims, config)
        else:
            solve_from_model(problem, Y, pattern, graph, init_factors(dims, 0, np.float64),
                             config)


def test_x_update_cg_cap_raises_with_residual():
    from mkimpute.errors import SolverError
    rng = np.random.default_rng(30)
    dims = ModelDims(8, 8, 3, 1, 2, (2,))
    model = random_model(dims, 30)
    Y = rng.standard_normal((8, 8))
    pattern = sample_p1(8, 8, 0.3, seed=30)
    graph = _graph(8, 8, seed=30)
    with pytest.raises(SolverError) as err:
        tvgs_update_X(Y, pattern, predict(model), np.zeros((8, 8)), graph, 5.0, 0.5,
                      cg_tol=1e-14, cg_max=1)
    assert err.value.residual is not None and err.value.residual > 1e-14


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(complex_=st.booleans(), m_count=st.integers(1, 2), depth=st.integers(1, 2),
       n_l=st.integers(2, 6), cols=st.integers(1, 5), rank_one_first=st.booleans(),
       ratio=st.one_of(st.just(0.0), st.floats(1e-4, 1e4)), tau=st.floats(1e-2, 10.0),
       seed=st.integers(0, 2**16))
def test_b_update_is_feasible_and_certified(complex_, m_count, depth, n_l, cols,
                                            rank_one_first, ratio, tau, seed):
    # the dual Newton solve on real and complex blocks, with a rank-deficient
    # first factor and an l1 weight from 0 to far above the entries of B_hat
    dtype = np.complex128 if complex_ else np.float64
    rng = np.random.default_rng(seed)
    dims = ModelDims(7, cols, n_l, m_count, depth, (3,) if depth == 2 else ())
    model = random_model(dims, seed, dtype)
    if rank_one_first:
        for row in model.factors:
            row[0] = row[0][:, :1] @ row[0][:1, :]
    X_hat = rng.standard_normal((7, cols)).astype(dtype)
    if complex_:
        X_hat = X_hat + 1j * rng.standard_normal((7, cols))
    B_hat = np.concatenate(model.coeffs, axis=0)
    lambda1 = ratio * tau * float(np.abs(B_hat).max())
    blocks, stats = update_B(X_hat, model, lambda1, tau)
    B = np.concatenate(blocks, axis=0)
    scale = 1.0 + float(np.abs(B).max())
    for blk in blocks:
        assert np.abs(blk.sum(axis=0) - 1.0).max() <= 1e-12 * scale
    assert stats["converged"] and stats["residual"] <= 1e-8
    if lambda1 == 0.0:
        # tau-strong convexity: ||B - B*|| <= 2 ||gradient mapping|| / tau
        ref = dense_b_oracle(X_hat, model, tau)
        bound = 2.0 * stats["residual"] * max(1.0, float(np.linalg.norm(B))) / tau
        assert np.linalg.norm(B - ref) <= bound + 1e-10 * (1.0 + np.linalg.norm(ref))


def test_b_update_cap_reports_non_convergence():
    rng = np.random.default_rng(31)
    dims = ModelDims(7, 5, 3, 1, 2, (2,))
    model = random_model(dims, 31)
    X_hat = rng.standard_normal((7, 5))
    _, stats = update_B(X_hat, model, 0.2, 1.0, inner_tol=1e-14, inner_max=3)
    assert not stats["converged"]
    assert stats["iterations"] == 3


def _b_objective(X_hat, model, blocks, lambda1, tau):
    A = np.concatenate([block_basis(model, m) for m in range(model.dims.n_kernels)], axis=1)
    B, B_hat = np.concatenate(blocks, axis=0), np.concatenate(model.coeffs, axis=0)
    return (0.5 * np.linalg.norm(X_hat - A @ B) ** 2 + lambda1 * np.abs(B).sum()
            + 0.5 * tau * np.linalg.norm(B - B_hat) ** 2)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("inner_max", [1, 2, 500])
def test_b_update_trace_describes_the_returned_point(complex_, inner_max):
    # the trace starts at f(B_hat), ends at f(B) for the B returned, and
    # never rises; a capped solve keeps B_hat's columns where its Newton
    # iterates did worse, so f(B) <= f(B_hat) holds at every cap
    dtype = np.complex128 if complex_ else np.float64
    rng = np.random.default_rng(3)
    dims = ModelDims(7, 6, 4, 2, 2, (3,))
    model = random_model(dims, 3, dtype)
    X_hat = rng.standard_normal((7, 6)).astype(dtype)
    if complex_:
        X_hat = X_hat + 1j * rng.standard_normal((7, 6))
    lambda1, tau = 2.0, 0.1
    blocks, stats = update_B(X_hat, model, lambda1, tau, inner_max=inner_max)
    trace = np.array(stats["objective_trace"])
    f_hat = _b_objective(X_hat, model, model.coeffs, lambda1, tau)
    f_new = _b_objective(X_hat, model, blocks, lambda1, tau)
    assert trace[0] == pytest.approx(f_hat, rel=1e-12)
    assert trace[-1] == pytest.approx(f_new, rel=1e-12)
    assert np.all(np.diff(trace) <= 1e-12 * trace[0])
    assert f_new <= f_hat * (1 + 1e-12)
    assert stats["converged"] == (inner_max == 500)


@pytest.mark.parametrize("complex_", [False, True])
def test_b_update_newton_batches_agree(monkeypatch, complex_):
    # the Newton matrices are formed for batches of columns under a memory
    # bound; one column per batch must give the same solve
    dtype = np.complex128 if complex_ else np.float64
    rng = np.random.default_rng(6)
    dims = ModelDims(9, 7, 4, 2, 2, (3,))
    model = random_model(dims, 6, dtype)
    X_hat = rng.standard_normal((9, 7)).astype(dtype)
    if complex_:
        X_hat = X_hat + 1j * rng.standard_normal((9, 7))
    whole, stats = update_B(X_hat, model, 0.3, 0.5)
    monkeypatch.setattr(solver, "_NEWTON_BATCH", 1)
    single, single_stats = update_B(X_hat, model, 0.3, 0.5)
    assert single_stats["iterations"] == stats["iterations"]
    for a, b in zip(whole, single):
        assert np.allclose(a, b, rtol=0, atol=1e-12)


def test_b_update_stops_when_stalled_in_roundoff():
    # lambda1/tau_B = 3e4 on complex data: the residual floor lies above
    # 1e-10, so the solve stops after three idle Newton steps instead of
    # running to inner_max; at the default tolerance it converges
    rng = np.random.default_rng(5)
    dims = ModelDims(8, 4, 5, 2, 1, ())
    model = random_model(dims, 5, np.complex128)
    X_hat = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    blocks, stats = update_B(X_hat, model, 3e4, 1.0, inner_tol=1e-10)
    assert not stats["converged"] and stats["residual"] > 1e-10
    assert stats["iterations"] <= 30
    for blk in blocks:
        assert np.abs(blk.sum(axis=0) - 1.0).max() <= 1e-12
    f_hat = _b_objective(X_hat, model, model.coeffs, 3e4, 1.0)
    assert _b_objective(X_hat, model, blocks, 3e4, 1.0) <= f_hat * (1 + 1e-12)
    _, stats = update_B(X_hat, model, 3e4, 1.0)
    assert stats["converged"] and stats["iterations"] <= 30


def test_solve_flags_non_finite_iterates():
    from mkimpute.errors import SolverError
    Y, pattern, graph = _ring_problem(seed=12)
    Y = Y.copy()
    obs = np.argwhere(pattern.mask)[0]
    Y[obs[0], obs[1]] = np.nan  # corrupt an observed entry
    lmk = _landmarks_from(np.nan_to_num(Y), pattern, 4, seed=12)
    from mkimpute.kernels import gaussian_spec
    dims = ModelDims(12, 20, 4, 1, 2, (2,))
    config = SolverConfig(outer_iters=5, tol_objective=0.0, seed=12)
    with pytest.raises(SolverError) as err:
        solve(TVGS, Y, pattern, graph, lmk, [gaussian_spec(1.0)], dims, config)
    assert err.value.iteration == 1


def test_report_csv_schema(tmp_path):
    Y, pattern, graph = _ring_problem(seed=9)
    lmk = _landmarks_from(Y, pattern, 4, seed=9)
    from mkimpute.kernels import gaussian_spec
    dims = ModelDims(12, 20, 4, 1, 2, (2,))
    config = SolverConfig(outer_iters=4, tol_objective=0.0, seed=9, lambda_L=0.01)
    _, _, report = solve(TVGS, Y, pattern, graph, lmk, [gaussian_spec(1.0)], dims, config)
    path = tmp_path / "trace.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("iteration,objective,consistency_residual,constraint_residual,seconds,"
                        "gamma,cg_iters,b_inner_iters,b_residual")
    assert len(lines) == 1 + report.iterations


@pytest.mark.parametrize("method", ["engine", "mmf", "nbp", "krg", "kgl"])
def test_every_model_stops_at_the_first_small_objective_change(method):
    # the shared outer loop owns the stop: every model ends at the first
    # iteration whose relative objective change falls below tol_objective
    from mkimpute.baselines import BaselineSpec, run_baseline
    from mkimpute.kernels import gaussian_spec
    Y, pattern, graph = _ring_problem(seed=0)
    config = SolverConfig(lambda1=1e-3, lambda2=1e-2, lambda_L=0.05, outer_iters=40,
                          tol_objective=0.05, seed=0)
    if method == "engine":
        _, _, report = solve(TVGS, Y, pattern, graph, _landmarks_from(Y, pattern, 6),
                             [gaussian_spec(1.0)], ModelDims(12, 20, 6, 1, 2, (3,)), config)
    else:
        spec = BaselineSpec(kind=method, rank=2)
        _, report = run_baseline(spec, Y, pattern, graph, config)
    assert report.converged and 1 < report.iterations < config.outer_iters
    columns = (report.objective, report.consistency, report.affine_residual,
               report.b_inner_iters, report.b_residual, report.cg_iters, report.gammas,
               report.seconds)
    assert {len(column) for column in columns} == {report.iterations}
    objs = [report.initial_objective, *report.objective]
    holds = [abs(b - a) / max(1.0, abs(a)) < config.tol_objective
             for a, b in zip(objs, objs[1:])]
    assert holds[-1] and not any(holds[:-1])


def _count_calls(monkeypatch, name):
    """The calls made through the solver module's binding of ``name``."""
    calls = []
    fn = getattr(solver, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(solver, name, counting)
    return calls


def _small_dmri_problem():
    from mkimpute.kernels import median_distance_gaussian
    from mkimpute.mri import make_phantom
    from mkimpute.navigators import form_navigators_dmri
    from mkimpute.sampling import radial_mask, with_band

    ds = make_phantom(16, 16, 8)
    pattern = with_band(radial_mask(16, 16, 8, accel=4.0, seed=0), 16, 16, 2)
    Yn = ds.kspace / np.abs(np.where(pattern.mask, ds.kspace, 0)).max()
    lmk = select_landmarks(form_navigators_dmri(np.where(pattern.mask, Yn, 0), pattern,
                                                16, 16, 2), 6, "maxmin", 0)
    return Yn, pattern, (16, 16, 8), lmk, [median_distance_gaussian(lmk.points)]


@pytest.mark.parametrize("method", ["tvgs", "dmri", "mmf"])
def test_each_iterate_is_evaluated_once(monkeypatch, method):
    # one predict per iterate, which the objective and the next X update
    # share, plus, for solve, the one it scales the initial factors by; on
    # k-space one temporal spectrum per iterate, shared by the objective and
    # the next Z update, plus the starting Z; and at most two spatial
    # transforms per iterate, the X update's F2 and the evaluation's inverse,
    # plus four: the initial scaling's, the starting Z's, the starting
    # iterate's and the returned X's residual
    from mkimpute.baselines import mmf_solve
    from mkimpute.kernels import gaussian_spec
    config = SolverConfig(lambda1=1e-3, lambda2=2.0, lambda_L=0.05, tau_Z=0.05,
                          outer_iters=4, tol_objective=0.0, seed=0)
    predicts = _count_calls(monkeypatch, "predict")
    spectra = _count_calls(monkeypatch, "dft_temporal")
    forward = _count_calls(monkeypatch, "fft2_frames")
    inverse = _count_calls(monkeypatch, "ifft2_frames")
    if method == "dmri":
        Y, pattern, frame_dims, lmk, specs = _small_dmri_problem()
        _, _, report = solve(DMRI, Y, pattern, frame_dims, lmk, specs,
                             ModelDims(256, 8, 6, 1, 2, (3,)), config)
    else:
        Y, pattern, graph = _ring_problem()
        if method == "tvgs":
            _, _, report = solve(TVGS, Y, pattern, graph, _landmarks_from(Y, pattern, 6),
                                 [gaussian_spec(1.0)], ModelDims(12, 20, 6, 1, 2, (3,)), config)
        else:
            _, _, report = mmf_solve(Y, pattern, graph, 2, 2, config)
    assert report.iterations == config.outer_iters
    assert len(predicts) == config.outer_iters + (1 if method == "mmf" else 2)
    assert len(spectra) <= config.outer_iters + 2
    assert len(forward) + len(inverse) <= 2 * config.outer_iters + 4


def test_x_update_cg_rejects_nan_residual():
    from mkimpute.errors import SolverError
    rng = np.random.default_rng(32)
    Y = rng.standard_normal((8, 8))
    pattern = sample_p1(8, 8, 0.5, seed=32)
    Y[pattern.mask] = np.nan
    graph = _graph(8, 8, seed=32)
    with pytest.raises(SolverError, match="nan"):
        consistent_smooth_solve(Y, pattern, np.zeros((8, 8)), np.zeros((8, 8)), graph,
                                0.1, 1.0)


def test_solve_real_signal_with_default7_stays_real():
    # the default dictionary's polynomial kernels take the landmarks' own
    # field, so a real graph signal is solved in real arithmetic throughout
    from mkimpute.kernels import default_kernel_dictionary
    Y, pattern, graph = _ring_problem()
    lmk = _landmarks_from(Y, pattern, 6)
    specs = default_kernel_dictionary(lmk.points)
    dims = ModelDims(12, 20, 6, len(specs), 2, (3,))
    config = SolverConfig(lambda2=1e-3, lambda_L=0.05, outer_iters=3,
                          tol_objective=0.0, seed=0)
    X, model, report = solve(TVGS, Y, pattern, graph, lmk, specs, dims, config)
    assert X.dtype == np.float64
    arrays = [d for row in model.factors for d in row] + model.coeffs + model.kernels
    assert all(a.dtype == np.float64 for a in arrays)
    assert np.array_equal(X[pattern.mask], Y[pattern.mask])
    assert max(report.affine_residual) < 1e-8


def test_solve_reports_b_cap_hits_and_residuals():
    Y, pattern, graph = _ring_problem(seed=4)
    lmk = _landmarks_from(Y, pattern, 5, seed=4)
    from mkimpute.kernels import gaussian_spec
    dims = ModelDims(12, 20, 5, 1, 2, (3,))
    config = SolverConfig(lambda1=0.5, lambda_L=0.05, outer_iters=3, tol_objective=0.0,
                          inner_tol=1e-14, inner_max=1, seed=4)
    _, _, report = solve(TVGS, Y, pattern, graph, lmk, [gaussian_spec(1.0)], dims, config)
    assert len(report.b_residual) == report.iterations == 3
    assert report.b_inner_iters == [1, 1, 1]
    assert len(report.warnings) == 3
    for n, (warning, res) in enumerate(zip(report.warnings, report.b_residual), start=1):
        assert res > config.inner_tol
        assert warning == (f"iter {n}: B inner solve hit the cap of 1 Newton steps "
                           f"at residual {res:.3e}")


# ---------------------------------------------------------------------------
# in-place CG arithmetic: the solves write only to arrays they own
# ---------------------------------------------------------------------------

def _draw(rng, shape, complex_):
    out = rng.standard_normal(shape)
    return out + 1j * rng.standard_normal(shape) if complex_ else out


def _assert_untouched(inputs, copies):
    for name, arr in inputs.items():
        assert arr.dtype == copies[name].dtype and np.array_equal(arr, copies[name]), name


@pytest.mark.parametrize("complex_", [False, True])
def test_pcg_leaves_b_and_x0_untouched(complex_):
    rng = np.random.default_rng(40)
    G = _draw(rng, (5, 5), complex_)
    G = G @ G.conj().T
    H = _draw(rng, (4, 4), complex_)
    H = H @ H.conj().T
    inputs = {"b": _draw(rng, (5, 4), complex_), "x0": _draw(rng, (5, 4), complex_)}
    copies = {k: v.copy() for k, v in inputs.items()}
    precond = solver._sylvester_pd(np.linalg.eigh(np.diag(np.diag(G).real)),
                                   np.linalg.eigh(H), 0.5)
    x, res, iters = solver._pcg(lambda V: G @ V @ H + 0.5 * V, inputs["b"], inputs["x0"],
                                1e-12, 100, precond)
    _assert_untouched(inputs, copies)
    assert iters > 0 and res <= 1e-12 and x is not inputs["x0"]
    assert _rel(G @ x @ H + 0.5 * x, copies["b"]) <= 1e-10


@pytest.mark.parametrize("complex_", [False, True])
def test_x_update_leaves_data_and_graph_untouched(complex_):
    rng = np.random.default_rng(41)
    graph = _graph(9, 11, seed=41)
    pattern = sample_p1(9, 11, 0.4, seed=41)
    inputs = {name: _draw(rng, (9, 11), complex_) for name in ("Y", "target", "X_prev")}
    S, (s, U), ddt, (d, Q) = graph.smoothness()
    inputs.update(mask=pattern.mask, S=S, s=s, U=U, ddt=ddt, d=d, Q=Q, L=graph.L,
                  W=graph.W, delta=graph.delta)
    copies = {k: v.copy() for k, v in inputs.items()}
    X, iters = consistent_smooth_solve(inputs["Y"], pattern, inputs["target"],
                                       inputs["X_prev"], graph, 0.7, 0.5)
    _assert_untouched(inputs, copies)
    assert iters > 0 and np.array_equal(X[pattern.mask], copies["Y"][pattern.mask])
    # the direct path's band build and solve only read them too
    band = solver.free_band_factor(pattern, graph, 0.7, 0.5)
    X, iters = consistent_smooth_solve(inputs["Y"], pattern, inputs["target"],
                                       inputs["X_prev"], graph, 0.7, 0.5, band=band)
    _assert_untouched(inputs, copies)
    assert iters == 0 and np.array_equal(X[pattern.mask], copies["Y"][pattern.mask])


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("wings", ["both", "left", "right"])
def test_chain_link_solve_leaves_inputs_untouched(complex_, wings):
    rng = np.random.default_rng(42)
    inputs = {"X_hat": _draw(rng, (7, 6), complex_), "D_hat": _draw(rng, (3, 4), complex_)}
    if wings != "right":
        inputs["left"] = _draw(rng, (7, 3), complex_)
    if wings != "left":
        inputs["right"] = _draw(rng, (4, 6), complex_)
    if wings == "left":
        inputs["D_hat"] = _draw(rng, (3, 6), complex_)
    elif wings == "right":
        inputs["D_hat"] = _draw(rng, (7, 4), complex_)
    copies = {k: v.copy() for k, v in inputs.items()}
    chain_link_solve(inputs.get("left"), inputs.get("right"), inputs["X_hat"],
                     inputs["D_hat"], 0.8, 0.3)
    _assert_untouched(inputs, copies)


@pytest.mark.parametrize("complex_", [False, True])
def test_coupled_block_solve_leaves_inputs_untouched(complex_):
    rng = np.random.default_rng(43)
    inputs = {"X_hat": _draw(rng, (8, 7), complex_)}
    for m in range(3):
        inputs[f"left{m}"] = _draw(rng, (8, 3), complex_)
        inputs[f"right{m}"] = _draw(rng, (4, 7), complex_)
        inputs[f"D_hat{m}"] = _draw(rng, (3, 4), complex_)
    copies = {k: v.copy() for k, v in inputs.items()}
    D = solver._coupled_block_solve([inputs[f"left{m}"] for m in range(3)],
                                    [inputs[f"right{m}"] for m in range(3)], inputs["X_hat"],
                                    [inputs[f"D_hat{m}"] for m in range(3)], 0.9, 0.4)
    _assert_untouched(inputs, copies)
    assert len(D) == 3 and all(not np.shares_memory(Dm, inputs[f"D_hat{m}"])
                               for m, Dm in enumerate(D))


def test_graph_spectrum_is_read_only():
    # every solve on a graph, and every worker thread of a sweep, shares its
    # S, DD^T and their eigenpairs: an in-place write raises instead of
    # corrupting the solves after it (test_graph_factorizations_run_once_per_graph
    # runs a solve and a two-worker sweep over these read-only arrays)
    Y, pattern, graph = _ring_problem()
    S, (s, U), ddt, (d, Q) = graph.smoothness()
    for arr in (S, s, U, ddt, d, Q, graph.L_sobolev):
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    copies = [a.copy() for a in (S, s, U, ddt, d, Q)]
    X, iters = consistent_smooth_solve(Y, pattern, np.zeros_like(Y), Y, graph, 0.3, 1.0)
    assert iters > 0 and np.all(np.isfinite(X))
    assert all(np.array_equal(a, c) for a, c in zip((S, s, U, ddt, d, Q), copies))
