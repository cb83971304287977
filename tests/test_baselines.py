import dataclasses

import numpy as np
import pytest

from mkimpute import baselines
from mkimpute.baselines import (
    BaselineSpec,
    _mmf_init,
    kgl_solve,
    krg_solve,
    mean_fill,
    mmf_solve,
    nbp_solve,
    run_baseline,
)
from mkimpute.errors import DataError, InputError, SolverError
from mkimpute.graphs import build_graph_operators
from mkimpute.kernels import gaussian_spec
from mkimpute.model import ModelDims, SolverConfig
from mkimpute.sampling import sample_p1
from mkimpute.solver import chain_link_solve

from oracles import _mmf_reference_trajectory, mmf_as_special_case_check


def _toy_problem(seed=0, n=10, t=12):
    rng = np.random.default_rng(seed)
    coords = rng.random((2, n))
    graph = build_graph_operators(coords, 3, 0.2, 1.0, t)
    U = rng.standard_normal((n, 2))
    V = rng.standard_normal((2, t))
    Y = U @ V
    pattern = sample_p1(n, t, 0.5, seed)
    return Y, pattern, graph


def _conditioned_low_rank(seed=3, n=20, t=24):
    rng = np.random.default_rng(seed)
    coords = rng.random((2, n))
    graph = build_graph_operators(coords, 3, 0.2, 1.0, t)
    U, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    V, _ = np.linalg.qr(rng.standard_normal((t, 2)))
    Y = U @ np.diag([3.0, 2.0]) @ V.T * np.sqrt(n * t) / 2
    return Y, sample_p1(n, t, 0.5, seed), graph


def test_zero_fill():
    Y, pattern, _ = _toy_problem()
    X, _ = run_baseline(BaselineSpec(baselines.ZERO_FILL), Y, pattern, None, SolverConfig())
    assert np.array_equal(X, np.where(pattern.mask, Y, 0))


@pytest.mark.parametrize("method", baselines.METHODS)
@pytest.mark.parametrize("rows, cols", [(1, None), (None, 1)])
def test_baselines_reject_data_of_another_shape(method, rows, cols):
    # a one-row or one-column Y broadcast against the mask (a full-size
    # result or a traceback); the data must have the mask's shape
    Y, pattern, graph = _toy_problem()
    with pytest.raises(InputError, match="does not match mask"):
        run_baseline(BaselineSpec(method), Y[:rows, :cols], pattern, graph,
                     SolverConfig(outer_iters=1))


@pytest.mark.parametrize("lambda_L", [0.1, 0.0])
@pytest.mark.parametrize("nodes, times", [(9, 12), (11, 12), (10, 11), (10, 13)])
@pytest.mark.parametrize("method", [baselines.MMF, baselines.NBP, baselines.KRG, baselines.KGL])
def test_graph_baselines_reject_a_graph_of_another_shape(method, nodes, times, lambda_L):
    # more rows than nodes gave an IndexError from free_band_factor, another
    # column count a matmul ValueError from the X update
    Y, pattern, _ = _toy_problem()  # 10 x 12
    graph = build_graph_operators(np.random.default_rng(1).random((2, nodes)), 3, 0.2, 1.0, times)
    config = SolverConfig(lambda_L=lambda_L, outer_iters=1)
    with pytest.raises(InputError, match=rf"data of shape \(10, 12\) on a graph of "
                                         rf"{nodes} nodes x {times} time steps"):
        run_baseline(BaselineSpec(method, rank=2), Y, pattern, graph, config)


def test_mean_fill():
    Y, pattern, _ = _toy_problem(1)
    X = mean_fill(Y, pattern)
    fill = Y[pattern.mask].mean()
    assert np.allclose(X[~pattern.mask], fill)
    assert np.array_equal(X[pattern.mask], Y[pattern.mask])


def test_mmf_recovers_low_rank_matrix():
    # exact-recovery regime: a gentle slow-decay schedule from a stable
    # starting step (simultaneous half-updates oscillate when gamma stays
    # near one)
    Y, pattern, graph = _conditioned_low_rank()
    config = SolverConfig(lambda2=1e-8, lambda_L=0.0, tau_X=0.3, tau_D=0.3,
                          tau_B=0.3, gamma0=0.5, zeta=0.02, outer_iters=700,
                          tol_objective=0.0, seed=3)
    X, theta, report = mmf_solve(Y, pattern, graph, rank=2, depth=2, config=config)
    rel = np.linalg.norm(X - Y) / np.linalg.norm(Y)
    assert rel < 1e-2
    assert max(report.consistency) == 0.0


def test_mmf_report_objective_trend():
    Y, pattern, graph = _toy_problem(seed=4)
    config = SolverConfig(lambda2=1e-3, lambda_L=0.01, outer_iters=40,
                          tol_objective=0.0, seed=4)
    _, _, report = mmf_solve(Y, pattern, graph, rank=2, depth=2, config=config)
    assert report.objective[-1] < report.initial_objective


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_mmf_special_case_check_true(seed):
    dims = ModelDims(8, 9, 3, 1, 2, (3,))
    assert mmf_as_special_case_check(dims, seed)


def test_mmf_special_case_check_false_with_l1():
    dims = ModelDims(8, 9, 3, 1, 2, (3,))
    assert not mmf_as_special_case_check(dims, 0, lambda1=0.5)


def test_mmf_special_case_check_false_with_kernels():
    dims = ModelDims(8, 9, 3, 1, 2, (3,))
    assert not mmf_as_special_case_check(dims, 0, identity_kernels=False)


def test_nbp_runs_and_respects_consistency():
    Y, pattern, graph = _toy_problem(seed=5)
    spec = BaselineSpec(kind="nbp", rank=2)
    config = SolverConfig(lambda2=1e-2, lambda_L=0.01, outer_iters=30,
                          tol_objective=0.0, seed=5)
    X, theta, report = nbp_solve(Y, pattern, graph, spec, config)
    assert max(report.consistency) == 0.0
    assert report.objective[-1] < report.initial_objective


def test_nbp_size_cap(monkeypatch):
    Y, pattern, graph = _toy_problem(seed=6)
    monkeypatch.setattr(baselines, "NBP_SIZE_CAP", 8)
    spec = BaselineSpec(kind="nbp", rank=2)
    config = SolverConfig(seed=6)
    with pytest.raises(InputError, match="cap"):
        nbp_solve(Y, pattern, graph, spec, config)


def test_nbp_rank_cap():
    Y, pattern, graph = _toy_problem(seed=7)
    spec = BaselineSpec(kind="nbp", rank=50)
    with pytest.raises(InputError):
        nbp_solve(Y, pattern, graph, spec, SolverConfig(seed=7))


@pytest.mark.parametrize("value", [0, -2, 2.5, True])
@pytest.mark.parametrize("field", ["rank", "depth"])
@pytest.mark.parametrize("kind", ["mmf", "nbp", "krg", "kgl"])
def test_baseline_spec_rejects_bad_counts(kind, field, value):
    # nbp ran a rank-0 chain, mmf warned of a division by zero before its
    # error, and a float rank ended in a TypeError
    Y, pattern, graph = _toy_problem(seed=7)
    with pytest.raises(InputError, match=f"{field} must be an integer of at least 1"):
        run_baseline(BaselineSpec(kind, **{field: value}), Y, pattern, graph,
                     SolverConfig(outer_iters=2, seed=7))


def test_krg_and_kgl_run():
    Y, pattern, graph = _toy_problem(seed=8)
    config = SolverConfig(lambda2=1e-2, lambda_L=0.01, outer_iters=25,
                          tol_objective=0.0, seed=8)
    for fn in (krg_solve, kgl_solve):
        X, theta, report = fn(Y, pattern, graph, BaselineSpec(kind="any"), config)
        assert max(report.consistency) == 0.0
        assert report.objective[-1] < report.initial_objective
        assert np.array_equal(X[pattern.mask], Y[pattern.mask])


def test_baseline_sub_task_surrogate_descent():
    # each half-iterate solves its strongly convex sub-task exactly, so its
    # sub-task objective cannot exceed the current point's value
    Y, pattern, graph = _toy_problem(seed=9)
    config = SolverConfig(lambda2=0.05, lambda_L=0.0, outer_iters=1,
                          tol_objective=0.0, seed=9)
    from mkimpute.kernels import build_kernel_matrix
    S_y = np.where(pattern.mask, Y, 0)
    K_Z = build_kernel_matrix(S_y.T, gaussian_spec(2.0))
    K_Y = build_kernel_matrix(S_y, gaussian_spec(2.0))
    rng = np.random.default_rng(9)
    B = rng.standard_normal((Y.shape[0], 2))
    C = rng.standard_normal((2, Y.shape[1]))
    X = S_y.copy()

    def b_obj(Bc):
        fit = 0.5 * np.linalg.norm(X - K_Z @ Bc @ C @ K_Y) ** 2
        return (fit + 0.5 * config.lambda2 * np.linalg.norm(Bc) ** 2
                + 0.5 * config.tau_D * np.linalg.norm(Bc - B) ** 2)

    from oracles import kron_sylvester as _kron_sylvester
    R = C @ K_Y
    B_half = _kron_sylvester(K_Z.T @ K_Z, R @ R.T,
                             K_Z.T @ X @ R.T + config.tau_D * B,
                             config.lambda2 + config.tau_D)
    assert b_obj(B_half) <= b_obj(B) + 1e-10


def test_run_baseline_dispatch():
    Y, pattern, graph = _toy_problem(seed=10)
    config = SolverConfig(lambda2=1e-2, outer_iters=5, seed=10)
    for kind in ("zero-fill", "mean-fill", "mmf", "krg", "kgl"):
        X, report = run_baseline(BaselineSpec(kind=kind, rank=2), Y, pattern,
                                 graph, config)
        assert X.shape == Y.shape
        assert np.allclose(X[pattern.mask], Y[pattern.mask])
    with pytest.raises(InputError):
        run_baseline(BaselineSpec(kind="unknown"), Y, pattern, graph, config)


@pytest.mark.parametrize("kind", ["mmf", "nbp", "krg", "kgl"])
def test_baselines_reject_non_finite_data(kind):
    Y, pattern, graph = _toy_problem(seed=12)
    Y[np.argwhere(pattern.mask)[0][0], np.argwhere(pattern.mask)[0][1]] = np.nan
    spec = BaselineSpec(kind=kind, rank=2)
    config = SolverConfig(lambda2=1e-2, lambda_L=0.01, outer_iters=5, seed=12)
    # the kernel baselines take their Gaussians' width from the data's rows
    # and columns, whose median distance rejects the NaN before the loop
    error, message = ((SolverError, "iteration 1") if kind == "mmf"
                      else (DataError, "points must be finite"))
    with pytest.raises(error, match=message):
        run_baseline(spec, Y, pattern, graph, config)


@pytest.mark.parametrize("kind", ["mmf", "nbp", "krg", "kgl"])
def test_baselines_on_integer_data_match_float_data(kind):
    # the loop mixes in place in its starting point, the zero-filled data,
    # which an integer array cannot hold
    Y, pattern, graph = _toy_problem(seed=5)
    Y = np.rint(3 * Y).astype(int)
    spec = BaselineSpec(kind=kind, rank=2)
    config = SolverConfig(lambda2=1e-2, lambda_L=0.01, outer_iters=3, seed=5)
    X_int, _ = run_baseline(spec, Y, pattern, graph, config)
    X_float, _ = run_baseline(spec, Y.astype(float), pattern, graph, config)
    assert X_int.dtype == np.float64 and X_int.tobytes() == X_float.tobytes()


@pytest.mark.parametrize("kind,fixed,per_iteration", [("kgl", 2, 0), ("nbp", 2, 2),
                                                      ("krg", 1, 0)])
def test_kernel_chains_eigendecompose_their_fixed_wings_once(monkeypatch, kind, fixed,
                                                             per_iteration):
    # the Grams of the wings made of fixed kernels alone (K_row left of the
    # first link, K_col right of the last, krg's one link included) do not
    # change: one eigh each per solve.  nbp's other wing holds a free link,
    # one eigh of a rank x rank Gram per link and iteration.
    Y, pattern, graph = _toy_problem(seed=5)
    graph.smoothness()  # the graph's own eigendecompositions, once per graph
    shapes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    for iters in (3, 6):
        shapes.clear()
        config = SolverConfig(lambda2=1e-2, lambda_L=0.05, outer_iters=iters,
                              tol_objective=0.0, seed=5)
        _, report = run_baseline(BaselineSpec(kind, rank=2), Y, pattern, graph, config)
        assert report.iterations == iters
        # K_col's I_N x I_N Gram, and K_row's I0 x I0 one if the chain has it
        wings = [(10, 10), (12, 12)][2 - fixed:]
        assert sorted(shapes) == sorted(wings + [(2, 2)] * per_iteration * iters)


@pytest.mark.parametrize("complex_", [False, True])
def test_chain_link_solve_given_its_wings_eigenpairs_is_bit_identical(complex_):
    rng = np.random.default_rng(6)

    def draw(shape):
        out = rng.standard_normal(shape)
        return out + 1j * rng.standard_normal(shape) if complex_ else out

    left, right, X_hat, D_hat = draw((7, 3)), draw((4, 6)), draw((7, 6)), draw((3, 4))
    (own,) = chain_link_solve([left], [right], X_hat, [D_hat], 0.8, 0.3)
    left_eig = np.linalg.eigh(left.conj().T @ left)
    right_eig = np.linalg.eigh(right @ right.conj().T)
    for eigs in ((left_eig, None), (None, right_eig), (left_eig, right_eig)):
        (given,) = chain_link_solve([left], [right], X_hat, [D_hat], 0.8, 0.3, eigs)
        assert given.tobytes() == own.tobytes()
    # a one-sided link given its wing's eigenpairs, as krg's K_col
    (own,) = chain_link_solve([None], [right], X_hat[:3], [D_hat], 0.8, 0.3)
    (given,) = chain_link_solve([None], [right], X_hat[:3], [D_hat], 0.8, 0.3,
                                (None, right_eig))
    assert given.tobytes() == own.tobytes()


@pytest.mark.parametrize("lambda_L", [0.0, 0.05])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_mmf_solve_follows_dense_reference_trajectory(depth, lambda_L):
    # the shipped entry point against the dense criterion-5 reference, from
    # the same initial draws; a tight CG tolerance for the smoothed X update
    Y, pattern, graph = _toy_problem(seed=13)
    config = SolverConfig(lambda2=0.05, lambda_L=lambda_L, outer_iters=10,
                          tol_objective=0.0, cg_tol=1e-13, seed=13)
    theta0 = _mmf_init(*Y.shape, 2, depth, config.seed, np.float64)
    reference = _mmf_reference_trajectory(Y, pattern, graph, theta0, config)
    for k in range(1, 11):
        X, _, _ = mmf_solve(Y, pattern, graph, 2, depth,
                            dataclasses.replace(config, outer_iters=k))
        assert float(np.max(np.abs(X - reference[k - 1]))) <= 1e-9


def test_krg_on_complex_data_stays_complex_and_consistent():
    # the free link is drawn real; complex data promotes it on the first solve
    Y, pattern, graph = _toy_problem(seed=4)
    rng = np.random.default_rng(4)
    Yc = Y * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (Y.shape[0], 1)))  # row phases
    config = SolverConfig(lambda2=1e-2, lambda_L=0.01, outer_iters=6,
                          tol_objective=0.0, seed=4)
    X, (H,), report = krg_solve(Yc, pattern, graph, BaselineSpec(kind="krg"), config)
    assert np.iscomplexobj(X) and np.iscomplexobj(H)
    assert np.array_equal(X[pattern.mask], Yc[pattern.mask])
    assert max(report.consistency) == 0.0
    assert report.objective[-1] < report.initial_objective
