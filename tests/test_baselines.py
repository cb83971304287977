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
    zero_fill,
)
from mkimpute.errors import InputError, SolverError
from mkimpute.graphs import build_graph_operators
from mkimpute.kernels import gaussian_spec
from mkimpute.model import ModelDims, SolverConfig
from mkimpute.sampling import sample_p1

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
    X = zero_fill(Y, pattern)
    assert np.array_equal(X, np.where(pattern.mask, Y, 0))


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
    with pytest.raises(SolverError, match="iteration 1"):
        run_baseline(spec, Y, pattern, graph, config)


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
