import copy
import dataclasses
import hashlib
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkimpute import solver
from mkimpute.errors import InputError, SolverError
from mkimpute.experiments import make_tvgs_synthetic
from mkimpute.graphs import build_graph_operators
from mkimpute.kernels import build_kernel_matrix, default_kernel_dictionary
from mkimpute.metrics import mae
from mkimpute.model import ModelDims, SolverConfig, init_factors, predict
from mkimpute.mri import dft_temporal, fft2_frames, ifft2_frames
from mkimpute.navigators import NavigatorSet, form_navigators_tvgs, select_landmarks
from mkimpute.sampling import SamplingPattern, sample_p1
from mkimpute.solver import (
    DMRI,
    TVGS,
    chain_link_solve,
    consistent_smooth_solve,
    dmri_update_X,
    dmri_update_Z,
    observed_entries,
    sca_extrapolate,
    sca_step_schedule,
    soft_threshold,
    solve,
    solve_from_model,
    tvgs_update_X,
    update_B,
    update_factor,
)

from oracles import (
    _prox_mu_real,
    band_factor_reference,
    b_subtask_smooth_gradient,
    block_basis,
    d_subtask_gradient,
    dense_b_oracle,
    dense_chain_link_solve,
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


@pytest.mark.parametrize("complex_", [False, True])
def test_extrapolate_in_the_spent_current_arrays_rounds_as_with_a_temporary(complex_):
    # the mix, formed in place in the half's and the current's arrays, equals
    # gamma * half + (1 - gamma) * current formed with temporaries, bit for bit
    dtype = np.complex128 if complex_ else np.float64
    dims = ModelDims(6, 5, 3, 2, 2, (2,))
    rng = np.random.default_rng(8)

    def draw(seed):
        return _iterate(_draw(rng, (6, 5), complex_), init_factors(dims, seed, dtype))

    def flat(it):
        X, factors, coeffs = it
        return [X, *(a for row in factors for a in row), *coeffs]

    cur, half = draw(0), draw(1)
    want = [0.3 * h + (1.0 - 0.3) * c for c, h in zip(flat(cur), flat(half))]
    mixed = sca_extrapolate(cur, half, 0.3)
    got = flat(mixed)
    assert all(a is b for a, b in zip(got, flat(half)))
    assert len(got) == len(want)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


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


def test_loop_records_the_consistency_of_what_it_pins():
    # each best response moves every observed entry; the loop re-pins them and
    # records each iterate's consistency itself, from an evaluate that returns
    # (objective, affine residual, seen)
    rng = np.random.default_rng(4)
    Y = rng.standard_normal((4, 6))
    pattern = sample_p1(4, 6, 0.5, seed=4)
    observed = observed_entries(pattern, np.where(pattern.mask, Y, 0.0))
    config = SolverConfig(outer_iters=5, tol_objective=0.0)
    evaluated = []

    def best_response(state, seen):
        return (state[0] + seen,), {}

    def evaluate(state):
        evaluated.append(state[0].copy())
        return float(np.sum(state[0] ** 2)), 0.25, 1.5

    (X,), seen, report = solver.sca_loop(config, observed, (np.zeros((4, 6)),),
                                         best_response, evaluate)
    assert report.iterations == 5 and len(evaluated) == 6 and seen == 1.5
    assert report.consistency == [0.0] * 5 and report.affine_residual == [0.25] * 5
    for A in (*evaluated[1:], X):
        assert np.array_equal(A[pattern.mask], Y[pattern.mask])
    # the free entries move: the best responses' 1.5 mixed in five times
    assert np.all(X[~pattern.mask] > 0)


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


@pytest.mark.parametrize("kind", ["random", "p2", "one step", "ends"])
def test_band_factor_bytes_match_per_step_assembly(kind):
    # the band is written through one sheared view of the whole band; the
    # per-step assembly of the oracle gives the same bytes, on masks whose
    # steps hold some, all or none of the free entries
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n, t = 7 + seed, 6 + seed % 3
        mask = rng.random((n, t)) < 0.3 + 0.1 * seed if kind == "random" else (
            _edge_mask(kind, n, t, rng))
        pattern, graph = SamplingPattern(mask), _graph(n, t, seed=seed)
        band = solver.free_band_factor(pattern, graph, 0.6, 0.4)
        ref = band_factor_reference(pattern, graph, 0.6, 0.4)
        assert band.band.shape == ref.shape
        assert band.band.tobytes() == ref.tobytes()


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


def _non_finite_x_inputs(where, value, entry):
    """The seed-33 X update of test_x_update_direct_rejects_non_finite_input,
    its ``where`` input set to ``value`` at the first observed or free entry."""
    rng = np.random.default_rng(33)
    graph = _graph(8, 8, seed=33)
    pattern = sample_p1(8, 8, 0.5, seed=33)
    inputs = {"Y": rng.standard_normal((8, 8)), "target": rng.standard_normal((8, 8)),
              "X_prev": rng.standard_normal((8, 8))}
    rows, cols = np.nonzero(pattern.mask if entry == "observed" else ~pattern.mask)
    inputs[where][rows[0], cols[0]] = value
    return inputs, pattern, graph


def _x_update_on(path, monkeypatch, inputs, pattern, graph):
    """The X update on the direct (band) path or on CG (a band cap of 0 bytes)."""
    if path == "cg":
        monkeypatch.setattr(solver, "BAND_BYTE_CAP", 0)
    band = solver.free_band_factor(pattern, graph, 0.1, 1.0)
    assert (band is None) == (path == "cg")
    return consistent_smooth_solve(inputs["Y"], pattern, inputs["target"], inputs["X_prev"],
                                   graph, 0.1, 1.0, cg_tol=1e-13, band=band)


@pytest.mark.parametrize("where", ["target", "X_prev"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_x_update_paths_agree_on_a_non_finite_observed_entry(monkeypatch, where, value):
    # the data overrides an observed entry's target and previous value: both
    # paths return the same finite X (CG multiplied the entry by 0, giving nan)
    inputs, pattern, graph = _non_finite_x_inputs(where, value, "observed")
    X_direct, _ = _x_update_on("direct", monkeypatch, inputs, pattern, graph)
    X_cg, iters = _x_update_on("cg", monkeypatch, inputs, pattern, graph)
    assert iters > 0 and np.isfinite(X_direct).all() and np.isfinite(X_cg).all()
    assert np.max(np.abs(X_cg - X_direct)) <= 1e-10
    assert np.array_equal(X_cg[pattern.mask], inputs["Y"][pattern.mask])


@pytest.mark.parametrize("path", ["direct", "cg"])
@pytest.mark.parametrize("where", ["target", "X_prev"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_x_update_paths_reject_a_non_finite_free_entry(monkeypatch, path, where, value):
    inputs, pattern, graph = _non_finite_x_inputs(where, value, "free")
    with pytest.raises(SolverError):
        _x_update_on(path, monkeypatch, inputs, pattern, graph)


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
    (F,) = chain_link_solve([left], [right], X_hat, [F_hat], c, tau)
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
        (ref,) = chain_link_solve([left], [right], X_hat, [model.factors[0][q]], 1.0, 0.7)
        assert np.array_equal(got[0], ref)


@pytest.mark.parametrize("m_count", [1, 2])
def test_d_update_rejects_nan_data(m_count):
    dims = ModelDims(6, 5, 3, m_count, 2, (2,))
    model = random_model(dims, 9)
    X_hat = np.random.default_rng(9).standard_normal((6, 5))
    X_hat[2, 3] = np.nan
    with pytest.raises(SolverError, match="factor-update"):
        solver.update_factor(1, X_hat, model, 0.3, 0.7)


@pytest.mark.parametrize("link,m_count", [("first", 1), ("first", 2), ("inner", 1),
                                          ("inner", 2), ("mmf last", 1)])
def test_factor_update_rejects_nan_data_on_every_link(link, m_count):
    # a NaN in X_hat fails the link's own solve, not a later iteration: the
    # one-block solves check their result, the coupled CG its residual
    dims = ModelDims(6, 5, 3, m_count, 2, (2,))
    model = random_model(dims, 9)
    if link == "mmf last":
        model.kernels[0], model.mmf = np.eye(3), True
    X_hat = np.random.default_rng(9).standard_normal((6, 5))
    X_hat[2, 3] = np.nan
    index = {"first": 0, "inner": 1, "mmf last": dims.depth + 1}[link]
    with pytest.raises(SolverError, match="factor-update"):
        solver.update_factor(index, X_hat, model, 0.3, 0.7)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("side", ["left", "right"])
def test_one_sided_link_on_a_gram_down_to_roundoff_is_backward_stable(side, complex_):
    # the first layer's ridge on default7 models: the stacked wing has more
    # rows than columns, so its Gram runs from ~1e18 down to roundoff (some
    # computed eigenvalues negative) against c ~ 1, and H + cI is singular to
    # double precision.  The eigenbasis solve still returns a finite F of
    # normwise backward error ||(H + cI) F - C|| / (||H + cI|| ||F|| + ||C||)
    # at most 1e-12, C the right-hand side L^H X_hat + tau D_hat (left wing)
    # or X_hat R^H + tau D_hat (right wing)
    rng = np.random.default_rng(44)
    p, n, other = 24, 10, 7
    wing = _draw(rng, (n, p), complex_) * np.geomspace(1e9, 1e-3, p)  # columns scaled
    wing = wing @ np.linalg.qr(_draw(rng, (p, p), complex_))[0]  # mix the scales
    c, tau = 1.001, 1e-3
    if side == "left":
        X_hat, D_hat = _draw(rng, (n, other), complex_), _draw(rng, (p, other), complex_)
        (F,) = chain_link_solve([wing], [None], X_hat, [D_hat], c, tau)
        H, C = wing.conj().T @ wing, wing.conj().T @ X_hat + tau * D_hat
        resid = H @ F + c * F - C
    else:
        wing = wing.conj().T
        X_hat, D_hat = _draw(rng, (other, n), complex_), _draw(rng, (other, p), complex_)
        (F,) = chain_link_solve([None], [wing], X_hat, [D_hat], c, tau)
        H, C = wing @ wing.conj().T, X_hat @ wing.conj().T + tau * D_hat
        resid = F @ H + c * F - C
    eigenvalues = np.linalg.eigvalsh(H)
    assert eigenvalues[-1] > 1e18 and abs(eigenvalues[0]) < 1e-14 * eigenvalues[-1]
    assert np.isfinite(F).all()
    scale = np.linalg.norm(H + c * np.eye(p), 2) * np.linalg.norm(F) + np.linalg.norm(C)
    assert np.linalg.norm(resid) / scale <= 1e-12


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


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("m_count", [1, 2, 3])
@pytest.mark.parametrize("rank_one_first", [False, True])
def test_b_update_dual_starts_at_the_no_l1_minimiser(complex_, m_count, rank_one_first):
    # for lambda1 > 0 the dual starts at z_0 = P B_0 - y, B_0 the lambda1 = 0
    # minimiser.  The first prox input is V_0 = B_hat - P^H z_0 / tau, and by
    # B_0's optimality condition (P^H P + tau I) B_0 + E^H nu = P^H y + tau B_hat,
    # E the block sums, V_0 = B_0 + E^H nu / tau: B_0 is V_0 with each block
    # column shifted to sum to 1
    dtype = np.complex128 if complex_ else np.float64
    rng = np.random.default_rng(m_count)
    dims = ModelDims(7, 5, 3, m_count, 2, (2,))
    model = random_model(dims, m_count + 50, dtype)
    if rank_one_first:
        for row in model.factors:
            row[0] = row[0][:, :1] @ row[0][:1, :]
    X_hat = _draw(rng, (7, 5), complex_)
    inputs, shift = [], solver._affine_l1_shift

    def recording_shift(V, alpha, n_l):
        inputs.append(V.copy())
        return shift(V, alpha, n_l)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_affine_l1_shift", recording_shift)
        update_B(X_hat, model, 0.3, 1.0)
    B_0 = inputs[0].reshape(m_count, 3, 5)
    B_0 = (B_0 + (1.0 - B_0.sum(axis=1, keepdims=True)) / 3).reshape(-1, 5)
    assert _rel(B_0, dense_b_oracle(X_hat, model, 1.0)) < 1e-10


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("m_count", [1, 2, 3])
@pytest.mark.parametrize("rank_one_first", [False, True])
def test_b_update_no_l1_is_one_direct_solve(monkeypatch, complex_, m_count, rank_one_first):
    # at lambda1 = 0 the affine-constrained ridge answer is the minimiser: it
    # is returned after 0 Newton steps and one exact residual, and no Newton
    # matrix is formed (every real-coordinate copy of P goes through
    # _components).  An inner_tol it misses runs the Newton solve from it
    dtype = np.complex128 if complex_ else np.float64
    rng = np.random.default_rng(m_count)
    dims = ModelDims(7, 5, 3, m_count, 2, (2,))
    model = random_model(dims, m_count + 50, dtype)
    if rank_one_first:
        for row in model.factors:
            row[0] = row[0][:, :1] @ row[0][:1, :]
    X_hat = _draw(rng, (7, 5), complex_)
    ref = dense_b_oracle(X_hat, model, 1.0)
    counts = {"residual": 0, "components": 0}
    prox, components = solver._prox_affine_l1, solver._components

    def counting_prox(V, alpha, n_l):
        counts["residual"] += 1
        return prox(V, alpha, n_l)

    def counting_components(x):
        counts["components"] += 1
        return components(x)

    monkeypatch.setattr(solver, "_prox_affine_l1", counting_prox)
    monkeypatch.setattr(solver, "_components", counting_components)
    blocks, stats = update_B(X_hat, model, 0.0, 1.0)
    assert counts == {"residual": 1, "components": 0}
    assert stats["iterations"] == 0 and stats["converged"]
    assert 0.0 < stats["residual"] <= 1e-8
    B = np.concatenate(blocks, axis=0)
    assert _rel(B, ref) < 1e-10
    for blk in blocks:
        assert np.abs(blk.sum(axis=0) - 1.0).max() <= 1e-12

    tol = stats["residual"] / 2
    blocks, stats = update_B(X_hat, model, 0.0, 1.0, inner_tol=tol)
    assert stats["iterations"] >= 1 and counts["components"] > 0
    assert stats["converged"] == (stats["residual"] <= tol)
    assert _rel(np.concatenate(blocks, axis=0), ref) < 1e-10


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
        blocks, _ = update_B(X_hat, model, 0.3, 0.8, inner_tol=1e-10, inner_max=300)
        f_hat = _b_objective(X_hat, model, model.coeffs, 0.3, 0.8)
        assert _b_objective(X_hat, model, blocks, 0.3, 0.8) <= f_hat + 1e-12


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
        mu, _ = solver._affine_l1_multiplier(V, alpha)
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
    blocks = update_factor(dims.depth + 1, X_hat, model, 0.4, 0.9)
    # stationarity: A^H(A B - X) + (lam + tau) B - tau B_hat - lam*0 = 0
    A = np.concatenate([block_basis(model, m) for m in range(1)], axis=1)
    B = np.concatenate(blocks, axis=0)
    grad = A.T @ (A @ B - X_hat) + 0.4 * B + 0.9 * (B - model.coeffs[0])
    assert np.linalg.norm(grad) < 1e-8


# ---------------------------------------------------------------------------
# k-space updates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("complex_", [False, True])
def test_soft_threshold_at_zero_copies_without_magnitudes(monkeypatch, complex_):
    # thr = 0 is the identity, reached by every B update with lambda1 = 0
    A = _draw(np.random.default_rng(44), (5, 4), complex_)
    A[0, 0], A[1, 1] = 0.0, -0.0
    A[2, 2] = np.nan
    copy = A.copy()

    def no_magnitudes(*args, **kwargs):
        raise AssertionError("soft_threshold formed magnitudes at thr = 0")

    monkeypatch.setattr(np, "abs", no_magnitudes)
    fresh = soft_threshold(A, 0.0)
    buf = np.empty_like(A)
    filled = soft_threshold(A, 0.0, out=buf, scale=np.empty(A.shape))
    in_place = soft_threshold(A, 0.0, out=A)
    monkeypatch.undo()
    assert not np.shares_memory(fresh, A) and filled is buf and in_place is A
    for result in (fresh, filled, in_place):
        assert result.dtype == copy.dtype and result.tobytes() == copy.tobytes()
    ints = soft_threshold(np.array([3, -2, 0]), 0)
    assert ints.dtype == np.float64 and ints.tolist() == [3.0, -2.0, 0.0]


@pytest.mark.parametrize("complex_", [False, True])
def test_affine_l1_shift_solves_every_block_in_one_multiplier_call(monkeypatch, complex_):
    rng = np.random.default_rng(45)
    n_l, M, cols, alpha = 5, 3, 7, 0.3
    V = _draw(rng, (M * n_l, cols), complex_)
    copy = V.copy()
    per_block = np.concatenate([Vm - solver._affine_l1_multiplier(Vm, alpha)[0]
                                for Vm in np.split(V, M)])
    shapes = []
    multiplier = solver._affine_l1_multiplier

    def recording(W, a):
        shapes.append(W.shape)
        return multiplier(W, a)

    monkeypatch.setattr(solver, "_affine_l1_multiplier", recording)
    W, _ = solver._affine_l1_shift(V, alpha, n_l)
    assert shapes == [(n_l, M * cols)]
    assert np.array_equal(V, copy)
    assert np.array_equal(W, per_block)  # every column's rounding is its own
    # each block's columns now sum, after the shrink, to 1
    Z = soft_threshold(W, alpha).reshape(M, n_l, cols)
    np.testing.assert_allclose(Z.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_soft_threshold_values():
    assert soft_threshold(np.array([3.0]), 1.0)[0] == pytest.approx(2.0)
    assert soft_threshold(np.array([0.5]), 1.0)[0] == 0.0
    z = soft_threshold(np.array([3.0 * np.exp(1j * 0.7)]), 1.0)[0]
    assert abs(z) == pytest.approx(2.0)
    assert np.angle(z) == pytest.approx(0.7)


@pytest.mark.parametrize("rule", ["ratio", "prox"])
@pytest.mark.parametrize("lambda3", [0.0, 0.5, np.inf])
def test_z_update_in_place_rounds_as_the_shrink_formula(rule, lambda3):
    # the argument is formed, and shrunk, in the returned array by the same
    # operations as the textbook form, so with or without a scratch array
    # the result is the same to the bit: zeros, entries under the threshold
    # and an infinite threshold included
    rng = np.random.default_rng(9)
    W = dft_temporal(rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5)))
    Zp = 0.1 * (rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5)))
    W[0, 0], Zp[0, 0] = 0.0, 0.0
    lam2, tau = 2.0, 0.3
    if rule == "ratio":
        arg, thr = W + (tau / lam2) * Zp, lambda3 / lam2
    else:
        arg, thr = (lam2 * W + tau * Zp) / (lam2 + tau), lambda3 / (lam2 + tau)
    mag = np.abs(arg)
    with np.errstate(invalid="ignore", divide="ignore"):
        want = arg * np.where(mag <= thr, 0.0, 1.0 - thr / np.where(mag > 0, mag, 1.0))
    if lambda3 == 0.5:
        assert 0 < np.sum(want == 0) < want.size - 1
    for scratch in (None, np.empty(W.shape)):
        got = dmri_update_Z(W, Zp, lam2, lambda3, tau, rule=rule, scratch=scratch)
        assert got.tobytes() == want.tobytes()


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
    K = dmri_update_X(observed_entries(pattern, Y), predict(model),
                      fft2_frames(np.zeros((16, 3), complex), i1, i2), Z, 0.5, 0.5, (i1, i2, i3))
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
    K = dmri_update_X(observed_entries(pattern, Y), predict(model),
                      fft2_frames(np.zeros((16, 3), complex), i1, i2),
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
        K = dmri_update_X(observed_entries(pattern, Y), predict(model),
                          fft2_frames(X_prev, i1, i2), Z_hat, 0.8, 0.6, (i1, i2, i3))
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


def _record_eigh_args(monkeypatch):
    """A copy of every np.linalg.eigh argument, in call order."""
    args = []
    eigh = np.linalg.eigh

    def recording(a, *more, **kwargs):
        args.append(np.array(a))  # one append is atomic: worker threads may share it
        return eigh(a, *more, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return args


def _graph_eighs(args, graph):
    """How many recorded eigh arguments are the graph's L + eps I (whose
    eigenpairs give S) and its DD^T, compared by value: krg's K_col Gram has
    DD^T's I_N x I_N shape."""
    shifted = graph.L + graph.eps * np.eye(graph.L.shape[0])
    ddt = graph.delta @ graph.delta.T
    return (sum(np.array_equal(a, shifted) for a in args),
            sum(np.array_equal(a, ddt) for a in args))


def test_graph_factorizations_run_once_per_graph(monkeypatch, tmp_path):
    # S = (L + eps I)^beta and DD^T do not change during a solve: each is
    # factorized once per graph, on first use, and not once per X update.
    # The eigh arguments are told apart by value (_graph_eighs).  A band cap
    # of 0 bytes keeps the X updates on CG; the direct path is checked last.
    from mkimpute.experiments import run_experiment
    from mkimpute.kernels import gaussian_spec
    cap = solver.BAND_BYTE_CAP
    monkeypatch.setattr(solver, "BAND_BYTE_CAP", 0)
    Y, pattern, graph = _ring_problem()
    lmk = _landmarks_from(Y, pattern, 6)
    config = SolverConfig(lambda1=1e-3, lambda2=1e-3, lambda_L=0.05,
                          outer_iters=4, tol_objective=0.0, seed=0)
    dims = ModelDims(12, 20, 6, 1, 2, (3,))
    eighs = _record_eigh_args(monkeypatch)
    _, _, report = solve(TVGS, Y, pattern, graph, lmk, [gaussian_spec(1.0)], dims, config)
    assert report.iterations == 4 and min(report.cg_iters) > 0
    assert _graph_eighs(eighs, graph) == (1, 1)
    # a sweep builds one graph that both cells' worker threads share; csv
    # data, because the synthetic generator runs an eigh of its own
    np.savetxt(tmp_path / "y.csv", Y, delimiter=",")
    angles = 2 * np.pi * np.arange(12) / 12  # _ring_problem's nodes
    np.savetxt(tmp_path / "c.csv", np.column_stack([np.cos(angles), np.sin(angles)]),
               delimiter=",")
    eighs.clear()
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
    assert _graph_eighs(eighs, graph) == (1, 1)  # the csv graph equals _ring_problem's
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
    eighs.clear()
    _, _, report = solve(TVGS, Y, pattern, graph, lmk, [gaussian_spec(1.0)], dims, config)
    n_free = int((~pattern.mask).sum())
    assert report.iterations == 4 and report.cg_iters == [0] * 4
    assert len(factored) == 1 and factored[0][1] == n_free
    assert _graph_eighs(eighs, graph) == (1, 1)
    # the sweep solves 3 methods in each of 2 cells, 3 X updates each: the
    # cell's methods share its mask, graph and weights, and so one band
    factored.clear()
    rows = run_experiment(spec, tmp_path / "direct")
    assert len(rows) == 6 and not (tmp_path / "direct" / "errors.log").exists()
    assert len(factored) == 2


@pytest.mark.parametrize("method", ["mlkr", "mmf", "nbp", "krg", "kgl"])
def test_a_solve_given_its_cells_band_matches_one_that_builds_its_own(monkeypatch, method):
    # a sweep cell factors the band once and hands it to each of its graph
    # methods; a solve given it factors nothing and returns the same X
    from mkimpute.baselines import BaselineSpec, run_baseline
    from mkimpute.kernels import gaussian_spec
    Y, pattern, graph = _ring_problem()
    lmk = _landmarks_from(Y, pattern, 6)
    config = SolverConfig(lambda1=1e-3, lambda2=1e-3, lambda_L=0.05,
                          outer_iters=4, tol_objective=0.0, seed=0)
    band = solver.free_band_factor(pattern, graph, config.lambda_L, config.tau_X)
    assert band is not None
    factored = []
    dpbtrf = solver.dpbtrf

    def recording(a, *args, **kwargs):
        factored.append(np.shape(a))
        return dpbtrf(a, *args, **kwargs)

    monkeypatch.setattr(solver, "dpbtrf", recording)

    def run(band):
        if method == "mlkr":
            X, _, report = solve(TVGS, Y, pattern, graph, lmk, [gaussian_spec(1.0)],
                                 ModelDims(12, 20, 6, 1, 2, (3,)), config, band)
            return X, report
        return run_baseline(BaselineSpec(method, rank=3), Y, pattern, graph, config, band)

    X_own, report_own = run(None)
    assert len(factored) == 1
    X_given, report_given = run(band)
    assert len(factored) == 1
    assert np.array_equal(X_given, X_own)
    assert report_given.objective == report_own.objective
    assert report_given.cg_iters == [0] * 4


def test_graph_factorization_runs_once_under_concurrent_first_use(monkeypatch):
    # eight threads ask one graph for its spectrum at once, switching every
    # microsecond: the lock lets exactly one of them factorize
    eighs = _record_eigh_args(monkeypatch)
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
    assert sorted(a.shape for a in eighs) == [(25, 25), (30, 30)]


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
    # the loop mixes in place in its starting point, which solve_from_model
    # copies from model0: the data, the mask and model0 are never written, on
    # either problem and in the mmf reduction, whose B is a factor link
    Y, pattern, graph = _ring_problem(seed=4)
    graph_run = (TVGS, Y, pattern, graph, random_model(ModelDims(12, 20, 5, 2, 3, (3, 2)), 4),
                 SolverConfig(lambda1=1e-3, lambda2=1e-3, lambda_L=0.02, outer_iters=3,
                              tol_objective=0.0))
    mmf_run = (TVGS, Y, pattern, graph,
               dataclasses.replace(random_model(ModelDims(12, 20, 4, 1, 2, (3,)), 5), mmf=True),
               SolverConfig(lambda2=1e-3, lambda_L=0.02, outer_iters=3, tol_objective=0.0))
    Yk, pattern_k, frame_dims, _, _ = _small_dmri_problem()
    kspace_run = (DMRI, Yk, pattern_k, frame_dims,
                  random_model(ModelDims(256, 8, 6, 2, 2, (3,)), 4, np.complex128),
                  SolverConfig(lambda1=1e-4, lambda2=2.0, lambda3=0.005, lambda4=1e-3,
                               tau_Z=0.05, outer_iters=3, tol_objective=0.0))
    for problem, Y, pattern, operators, model0, config in (graph_run, mmf_run, kspace_run):
        arrays = [Y, pattern.mask, *(a for row in model0.factors for a in row),
                  *model0.kernels, *model0.coeffs]
        before = [a.copy() for a in arrays]
        _, model, report = solver.solve_from_model(problem, Y, pattern, operators, model0,
                                                   config)
        assert report.iterations == 3
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, arrays)), problem
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
    f_hat = _b_objective(X, model, model.coeffs, config.lambda1, config.tau_B)
    assert _b_objective(X, model, new_b, config.lambda1, config.tau_B) <= f_hat + 1e-12


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
    dims = ModelDims(12, 20, 5, 2, 2, (3,))  # kernel count mismatch, checked by init_factors
    with pytest.raises(InputError, match="expected 2 kernel matrices, got 1"):
        solve(TVGS, Y, pattern, graph, lmk, [gaussian_spec(1.0)], dims, SolverConfig())


def _engine_inputs(problem):
    """(Y, pattern, operators, landmarks, kernel specs, dims) of a small solve."""
    from mkimpute.kernels import gaussian_spec
    if problem == TVGS:
        Y, pattern, graph = _ring_problem()
        lmk = _landmarks_from(Y, pattern, 6)
        return Y, pattern, graph, lmk, [gaussian_spec(1.0)], ModelDims(12, 20, 6, 1, 2, (3,))
    return (*_small_dmri_problem(), ModelDims(256, 8, 6, 1, 2, (3,)))


@pytest.mark.parametrize("lambda_L", [0.1, 0.0])
@pytest.mark.parametrize("nodes, times", [(11, 20), (13, 20), (12, 19), (12, 21)])
def test_solve_rejects_a_graph_of_another_shape(nodes, times, lambda_L):
    # more rows than nodes gave an IndexError from free_band_factor, another
    # column count a matmul ValueError from the X update
    Y, pattern, _, lmk, specs, dims = _engine_inputs(TVGS)  # 12 x 20
    _, _, graph = _ring_problem(nodes, times)
    config = SolverConfig(lambda_L=lambda_L, outer_iters=1)
    with pytest.raises(InputError, match=rf"data of shape \(12, 20\) on a graph of "
                                         rf"{nodes} nodes x {times} time steps"):
        solve(TVGS, Y, pattern, graph, lmk, specs, dims, config)


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


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(complex_=st.booleans(), m_count=st.integers(1, 3), depth=st.integers(1, 2),
       n_l=st.integers(2, 6), rank_one_first=st.booleans(),
       ratio=st.one_of(st.just(0.0), st.floats(1e-4, 10.0)), tau=st.floats(1e-2, 10.0),
       seed=st.integers(0, 2**16))
def test_b_update_certificate_bounds_the_residual(complex_, m_count, depth, n_l,
                                                  rank_one_first, ratio, tau, seed):
    # update_B screens each iterate with c = ||Pi(P^H G)|| / max(1, ||B||)
    # before it pays for the exact residual.  At a dual state z with prox
    # input v = b_hat - P^H z / tau, b = prox(v) and P^H G = grad f(b) + tau (v - b):
    #   -tau (b - b_hat) - P^H z = tau (v - b) is a subgradient of h at b,
    #   so b = prox_{h/L}(b + tau (v - b)/L) = prox_{h/L}(b - (grad f(b) - P^H G)/L);
    #   prox_{h/L} is nonexpansive and, as h fixes each block column's sum,
    #   ignores a constant added to one: L||b - prox_{h/L}(b - grad f(b)/L)|| <= ||Pi(P^H G)||.
    # Checked, from the dense basis A = U P, at every dual state the solve
    # forms: its start, every Newton iterate and every line-search trial.  The
    # columns are independent and the bound holds for each, so one column
    # serves; with several, a trial holds only the columns still searching.
    dtype = np.complex128 if complex_ else np.float64
    rng = np.random.default_rng(seed)
    dims = ModelDims(7, 1, n_l, m_count, depth, (3,) if depth == 2 else ())
    model = random_model(dims, seed, dtype)
    if rank_one_first:
        for row in model.factors:
            row[0] = row[0][:, :1] @ row[0][:1, :]
    X_hat = rng.standard_normal((7, 1)).astype(dtype)
    if complex_:
        X_hat = X_hat + 1j * rng.standard_normal((7, 1))
    B_hat = np.concatenate(model.coeffs, axis=0)
    lambda1 = ratio * tau * float(np.abs(B_hat).max())
    inputs, in_residual = [], []
    shift, prox = solver._affine_l1_shift, solver._prox_affine_l1

    def recording_shift(V, alpha, n):
        if not in_residual:
            inputs.append(V.copy())
        return shift(V, alpha, n)

    def flagged_prox(V, alpha, n):
        in_residual.append(True)
        try:
            return prox(V, alpha, n)
        finally:
            in_residual.pop()

    # at lambda1 = 0 the direct answer forms no dual state; an inner_tol no
    # point meets makes the solve reach its Newton iterates
    inner_tol = -1.0 if lambda1 == 0.0 else 1e-8
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_affine_l1_shift", recording_shift)
        patch.setattr(solver, "_prox_affine_l1", flagged_prox)
        update_B(X_hat, model, lambda1, tau, inner_tol=inner_tol)
    A = np.concatenate([block_basis(model, m) for m in range(m_count)], axis=1)
    lip = np.linalg.norm(A, 2) ** 2 + tau
    assert len(inputs) >= 1
    for V in inputs:
        B = prox(V, lambda1 / tau, n_l)
        grad = A.conj().T @ (A @ B - X_hat) + tau * (B - B_hat)
        PhG = (grad + tau * (V - B)).reshape(m_count, n_l, 1)
        scale = max(1.0, float(np.linalg.norm(B)))
        cert = float(np.linalg.norm(PhG - PhG.mean(axis=1, keepdims=True))) / scale
        res = lip * float(np.linalg.norm(B - prox(B - grad / lip, lambda1 / lip, n_l))) / scale
        assert cert >= res - 1e-12
        if lambda1 == 0.0:  # the prox is the affine projection: the bound is attained
            assert abs(cert - res) <= 1e-9 * res + 1e-12


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("ratio", [0.0, 0.5, 5.0])
def test_b_update_pays_one_exact_residual_per_converged_call(monkeypatch, complex_, ratio):
    # each dual state (the start and every line-search trial) takes one
    # multiplier solve and snaps its primal point once; the exact residual
    # takes one more, once, for the point a converged call returns.  At
    # lambda1 = 0 the direct answer is snapped once and its residual taken
    dtype = np.complex128 if complex_ else np.float64
    counts = {"multiplier": 0, "states": 0, "residual": 0}
    in_residual = []
    multiplier, snap = solver._affine_l1_multiplier, solver._snap_affine
    prox = solver._prox_affine_l1

    def counting_multiplier(V, alpha):
        counts["multiplier"] += 1
        return multiplier(V, alpha)

    def counting_snap(Z, n_l):
        counts["states"] += not in_residual
        return snap(Z, n_l)

    def counting_prox(V, alpha, n_l):
        counts["residual"] += 1
        in_residual.append(True)
        try:
            return prox(V, alpha, n_l)
        finally:
            in_residual.pop()

    monkeypatch.setattr(solver, "_affine_l1_multiplier", counting_multiplier)
    monkeypatch.setattr(solver, "_snap_affine", counting_snap)
    monkeypatch.setattr(solver, "_prox_affine_l1", counting_prox)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        dims = ModelDims(8, 6, 4, 2, 2, (3,))
        model = random_model(dims, seed + 90, dtype)
        X_hat = rng.standard_normal((8, 6)).astype(dtype)
        if complex_:
            X_hat = X_hat + 1j * rng.standard_normal((8, 6))
        lambda1 = ratio * float(np.abs(np.concatenate(model.coeffs)).max())
        counts.update(multiplier=0, states=0, residual=0)
        _, stats = update_B(X_hat, model, lambda1, 1.0)
        assert stats["converged"]
        assert counts["residual"] == 1
        if lambda1 == 0.0:  # the direct answer: snapped once, no dual state
            assert stats["iterations"] == 0
            assert counts == {"multiplier": 1, "states": 1, "residual": 1}
        else:
            assert stats["iterations"] >= 1
            assert counts["states"] >= stats["iterations"] + 1
            assert counts["multiplier"] == counts["states"] + 1


def test_b_update_cap_reports_non_convergence():
    rng = np.random.default_rng(31)
    dims = ModelDims(7, 5, 3, 1, 2, (2,))
    model = random_model(dims, 31)
    X_hat = rng.standard_normal((7, 5))
    # from the lambda1 = 0 minimiser the dual meets 1e-14 in one Newton step;
    # uncapped, 1e-15 runs 8 steps until it stalls in roundoff
    _, stats = update_B(X_hat, model, 0.2, 1.0, inner_tol=1e-15, inner_max=3)
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
    # a capped solve keeps B_hat's columns where its Newton iterates did
    # worse, so the returned point's f(B) <= f(B_hat) holds at every cap
    dtype = np.complex128 if complex_ else np.float64
    rng = np.random.default_rng(3)
    dims = ModelDims(7, 6, 4, 2, 2, (3,))
    model = random_model(dims, 3, dtype)
    X_hat = rng.standard_normal((7, 6)).astype(dtype)
    if complex_:
        X_hat = X_hat + 1j * rng.standard_normal((7, 6))
    lambda1, tau = 2.0, 0.1
    blocks, stats = update_B(X_hat, model, lambda1, tau, inner_max=inner_max)
    f_hat = _b_objective(X_hat, model, model.coeffs, lambda1, tau)
    assert _b_objective(X_hat, model, blocks, lambda1, tau) <= f_hat * (1 + 1e-12)
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
    # plus three: the starting Z's, the starting iterate's and the returned
    # X's residual (the initial scaling takes its norm by Parseval)
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
    assert len(forward) + len(inverse) <= 2 * config.outer_iters + 3
    if method == "dmri":  # the evaluations' inverses and the starting Z's
        assert len(inverse) == config.outer_iters + 2


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


def test_concurrent_dmri_solves_match_sequential_runs():
    # each solve owns its scratch arrays: four k-space solves on four threads,
    # switching every microsecond, return what they return one at a time.  A
    # scratch shared by the solves failed this in 8 of 8 runs
    Y, pattern, frame_dims, lmk, specs = _small_dmri_problem()
    dims = ModelDims(256, 8, 6, 1, 2, (3,))

    def run(seed):
        config = SolverConfig(lambda1=1e-4, lambda2=2.0, lambda3=0.005, lambda4=1e-3,
                              tau_Z=0.05, outer_iters=12, tol_objective=0.0, seed=seed)
        X, _, report = solve(DMRI, Y, pattern, frame_dims, lmk, specs, dims, config)
        report.seconds = []  # wall time is the one field that may differ
        return X, report

    seeds = range(4)
    sequential = [run(seed) for seed in seeds]
    concurrent = [None] * len(seeds)
    barrier = threading.Barrier(len(seeds))

    def worker(i):
        barrier.wait(timeout=10)
        concurrent[i] = run(i)

    threads = [threading.Thread(target=worker, args=(i,)) for i in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for (X, report), (X_seq, report_seq) in zip(concurrent, sequential):
        assert X.tobytes() == X_seq.tobytes()
        assert report == report_seq


def test_kspace_loop_runs_in_a_fixed_working_set(monkeypatch):
    # the k-space loop writes each best response's K and Z into the arrays
    # the iterate before last left behind, and each evaluation's X,
    # prediction and spectrum into the same three arrays.  The arrays seen
    # are kept alive here, so no address can be reused by a fresh allocation
    Y, pattern, frame_dims, lmk, specs = _small_dmri_problem()
    kernel = build_kernel_matrix(lmk.points, specs[0])
    model0 = init_factors(ModelDims(256, 8, 6, 1, 2, (3,)), 0, complex, [kernel])
    config = SolverConfig(lambda1=1e-4, lambda2=2.0, lambda3=0.005, lambda4=1e-3,
                          tau_Z=0.05, outer_iters=6, tol_objective=0.0)

    def inputs():
        return [Y, pattern.mask, *model0.kernels, *model0.coeffs,
                *(D for row in model0.factors for D in row)]

    before = [a.copy() for a in inputs()]
    halves, seen = [], []
    loop = solver.sca_loop

    def recording_loop(config, observed, state, best_response, evaluate):
        def respond(state, seen_now):
            half, stats = best_response(state, seen_now)
            halves.append((half[0], half[3]))
            return half, stats

        def evaluated(state):
            evaluation = evaluate(state)
            seen.append(evaluation[2])
            return evaluation

        return loop(config, observed, state, respond, evaluated)

    monkeypatch.setattr(solver, "sca_loop", recording_loop)
    X, _, report = solve_from_model(DMRI, Y, pattern, frame_dims, model0, config)
    assert report.iterations == len(halves) == 6 and len(seen) == 7
    for i, name in enumerate("KZ"):
        arrays = [half[i] for half in halves]
        assert len({id(a) for a in arrays}) == 2, name
        assert all(a is not b for a, b in zip(arrays, arrays[1:])), name
    for i, name in enumerate(("X", "prediction", "spectrum")):
        assert all(s[i] is seen[0][i] for s in seen), name
    assert X is seen[0][0]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(inputs(), before, strict=True))
    # the digest of the X that the loop allocating fresh arrays every
    # iteration returned (numpy 2.4.6, OpenBLAS on x86-64)
    assert hashlib.sha256(X.tobytes()).hexdigest()[:12] == "2cdcb7514c93"


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


def _default7_problem():
    # tvgs-multikernel's settings at 20 x 32 with 8 landmarks: the default
    # dictionary, lambda1 = 0, depth 2.  Before its polynomial kernels were
    # normalized, a 1e-12 relative change in a B update moved this solve's
    # MAE by 6e-3 relative, and a dense factor solve moved it by 7.5e-4
    Y, coords = make_tvgs_synthetic(20, 32, 3, 5, seed=7)
    graph = build_graph_operators(coords, 5, 0.1, 1.0, 32)
    pattern = sample_p1(20, 32, 0.3, seed=0)
    lmk = select_landmarks(form_navigators_tvgs(Y, pattern, "nav1"), 8, "maxmin", 0)
    specs = default_kernel_dictionary(lmk.points)
    dims = ModelDims(20, 32, lmk.count, len(specs), 2, (5,))
    config = SolverConfig(lambda2=1e-3, lambda_L=0.1, zeta=0.2, outer_iters=5,
                          tol_objective=0.0, seed=0)
    return Y, (TVGS, Y, pattern, graph, lmk, specs, dims, config)


def test_default7_solve_is_stable_under_roundoff_in_b(monkeypatch):
    # every B update is the lambda1 = 0 direct answer; nudging each of its
    # entries by 1e-12 relative moves the MAE by roundoff only
    Y, args = _default7_problem()
    stats, rng, b_update = [], np.random.default_rng(0), solver.update_B

    def nudged(*a, **kw):
        blocks, info = b_update(*a, **kw)
        stats.append(info)
        return [b * (1.0 + 1e-12 * rng.standard_normal(b.shape)) for b in blocks], info

    X, _, report = solve(*args)
    monkeypatch.setattr(solver, "update_B", nudged)
    X_nudged, _, _ = solve(*args)
    assert len(stats) == 5 and all(s["iterations"] == 0 and s["converged"] for s in stats)
    assert abs(mae(X_nudged, Y) - mae(X, Y)) < 1e-8 * mae(X, Y)
    assert max(report.affine_residual) < 1e-8


def test_default7_coupled_factor_cg_matches_a_dense_solve(monkeypatch):
    # the inner factor link couples the seven blocks; its CG agrees with a
    # dense Cholesky of the assembled system at every call, and a solve that
    # takes the dense answer instead ends at the same MAE
    Y, args = _default7_problem()
    calls, cg = [], solver.chain_link_solve

    def recording(*link, eigs=None):
        # copied before the solve mixes the factors in place
        inputs = copy.deepcopy(link)
        out = cg(*link, eigs)
        if len(link[3]) > 1:
            calls.append((inputs, copy.deepcopy(out)))
        return out

    monkeypatch.setattr(solver, "chain_link_solve", recording)
    X, _, _ = solve(*args)
    assert len(calls) == 5
    for inputs, out in calls:
        ref = dense_chain_link_solve(*inputs)
        assert _rel(np.concatenate(out), np.concatenate(ref)) < 1e-8

    def dense(lefts, rights, X_hat, D_hats, c, tau, eigs=None):
        if len(D_hats) == 1:
            return cg(lefts, rights, X_hat, D_hats, c, tau, eigs)
        return dense_chain_link_solve(lefts, rights, X_hat, D_hats, c, tau)

    monkeypatch.setattr(solver, "chain_link_solve", dense)
    X_dense, _, _ = solve(*args)
    assert abs(mae(X_dense, Y) - mae(X, Y)) < 1e-8 * mae(X, Y)


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


_SIGNS = np.array([[1.0], [-1.0]])


@pytest.mark.parametrize("op, precond, at, iteration", [
    (lambda v: v, lambda r: -r, "b^H M b", 0),  # an indefinite preconditioner
    (lambda v: -v, lambda r: r, "p^H A p", 0),  # an indefinite operator
    (lambda v: v, lambda r: _SIGNS * r, "r^H M r", 1),  # b^H M b > 0, then r^H M r < 0
], ids=["preconditioner", "operator", "preconditioner-later"])
def test_pcg_raises_typed_error_when_not_positive_definite(op, precond, at, iteration):
    # roundoff made the coupled factor solve's preconditioner indefinite: a
    # negative r^H M r then reached math.sqrt as an untyped ValueError
    b = np.array([[1.0], [0.1]])
    with pytest.raises(SolverError, match=f"^test CG stopped after {iteration} iterations "
                       rf"at {re.escape(at)} = -[0-9.e+-]+: the operator or its "
                       "preconditioner is not positive definite$") as err:
        solver._pcg(op, b, np.zeros_like(b), 1e-12, 10, precond, "test CG")
    assert err.value.iteration == iteration


def test_pcg_converges_at_a_zero_residual():
    # r^H M r = 0 at the start is convergence, not a breakdown
    rng = np.random.default_rng(43)
    b = rng.standard_normal((4, 3))
    x, res, iters = solver._pcg(lambda v: 2.0 * v, b, b / 2.0, 1e-12, 10, lambda r: r)
    assert (res, iters) == (0.0, 0) and np.array_equal(x, b / 2.0)


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
    chain_link_solve([inputs.get("left")], [inputs.get("right")], inputs["X_hat"],
                     [inputs["D_hat"]], 0.8, 0.3)
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
    D = chain_link_solve([inputs[f"left{m}"] for m in range(3)],
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
