import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkimpute.errors import DataError, InputError
from mkimpute.graphs import (
    GraphOperators,
    build_graph_operators,
    diff_operator,
    knn_graph,
    laplacian,
)
from oracles import knn_graph_reference

property_test = settings(derandomize=True, database=None, deadline=None)


def _sobolev(L, eps, beta):
    """S = (L + eps*I)^beta as the graph over Laplacian L builds it."""
    W = np.diag(np.diag(L)) - L
    return GraphOperators(W=W, L=L, delta=diff_operator(2), eps=eps, beta=beta,
                          neighbors=[]).L_sobolev


def test_two_nodes_inverse_square_weight():
    coords = np.array([[0.0, 2.0]])
    W, _ = knn_graph(coords, 1)
    assert np.allclose(W, [[0.0, 0.25], [0.25, 0.0]])


def test_three_collinear_symmetrization():
    # nodes at 0, 1, 3: node 2's nearest neighbor is 1, so (1,2) appears
    # through symmetrization even though node 1 prefers node 0
    coords = np.array([[0.0, 1.0, 3.0]])
    W, neighbors = knn_graph(coords, 1)
    assert list(neighbors[0]) == [1]
    assert list(neighbors[1]) == [0]
    assert list(neighbors[2]) == [1]
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 0] = 1.0
    expected[1, 2] = expected[2, 1] = 0.25
    assert np.allclose(W, expected)


def test_full_k_gives_complete_graph():
    rng = np.random.default_rng(1)
    coords = rng.random((2, 6))
    W, _ = knn_graph(coords, 5)
    off = ~np.eye(6, dtype=bool)
    assert np.all(W[off] > 0)
    assert np.all(np.diag(W) == 0)


def _assert_matches_reference(coords, k):
    W, neighbors = knn_graph(coords, k)
    W_ref, neighbors_ref = knn_graph_reference(coords, k)
    assert np.array_equal(W, W_ref)
    assert len(neighbors) == len(neighbors_ref)
    for got, want in zip(neighbors, neighbors_ref):
        assert np.array_equal(got, want)


@property_test
@given(n=st.integers(2, 40), dim=st.integers(1, 3), k_frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**16))
def test_knn_graph_matches_the_per_node_loop(n, dim, k_frac, seed):
    coords = np.random.default_rng(seed).random((dim, n))
    _assert_matches_reference(coords, 1 + int(k_frac * (n - 2)))


@property_test
@given(side=st.integers(2, 7), dim=st.integers(1, 2), k_frac=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**16))
def test_knn_graph_breaks_distance_ties_as_the_per_node_loop(side, dim, k_frac, seed):
    # distinct points of an integer grid, shuffled: most distances are tied
    grid = np.stack(np.meshgrid(*[np.arange(side)] * dim, indexing="ij")).reshape(dim, -1)
    coords = grid[:, np.random.default_rng(seed).permutation(grid.shape[1])].astype(float)
    n = coords.shape[1]
    _assert_matches_reference(coords, 1 + int(k_frac * (n - 2)))


def test_duplicate_coordinates_rejected():
    coords = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(DataError):
        knn_graph(coords, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_coordinates_rejected(bad):
    # they failed later, in laplacian, as "adjacency must be symmetric"
    coords = np.array([[0.0, bad, 1.0, 2.0]])
    with pytest.raises(DataError, match="coordinates must be finite"):
        build_graph_operators(coords, 1, 0.1, 1.0, 4)


def test_laplacian_two_nodes():
    assert np.allclose(laplacian(np.array([[0.0, 1.0], [1.0, 0.0]])),
                       [[1.0, -1.0], [-1.0, 1.0]])


def test_laplacian_zero_adjacency():
    assert np.allclose(laplacian(np.zeros((3, 3))), np.zeros((3, 3)))


def test_laplacian_path_graph():
    W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    L = laplacian(W)
    assert np.allclose(L, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_laplacian_rejects_asymmetric():
    with pytest.raises(InputError):
        laplacian(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_laplacian_row_sums_zero():
    rng = np.random.default_rng(4)
    A = rng.random((8, 8))
    W = np.triu(A, 1) + np.triu(A, 1).T
    L = laplacian(W)
    assert np.max(np.abs(L @ np.ones(8))) < 1e-10
    assert np.linalg.eigvalsh(L).min() > -1e-10


def test_sobolev_beta_one():
    L = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(_sobolev(L, 0.5, 1.0), L + 0.5 * np.eye(2))


def test_sobolev_zero_laplacian_cubed():
    S = _sobolev(np.zeros((4, 4)), 2.0, 3.0)
    assert np.allclose(S, 8.0 * np.eye(4))


def test_sobolev_two_node_eigenvalues():
    L = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))  # eigenvalues {0, 2}
    S = _sobolev(L, 1.0, 2.0)
    assert np.allclose(np.sort(np.linalg.eigvalsh(S)), [1.0, 9.0])


def test_sobolev_fractional_beta_positive_definite():
    rng = np.random.default_rng(7)
    A = rng.random((6, 6))
    W = np.triu(A, 1) + np.triu(A, 1).T
    L = laplacian(W)
    S = _sobolev(L, 0.3, 1.5)
    assert np.allclose(S, S.T)
    assert np.linalg.eigvalsh(S).min() >= 0.3**1.5 - 1e-8


def test_sobolev_rejects_bad_eps():
    # an infinite eps ended in LinAlgError from eigh, an infinite beta in a
    # non-finite objective, each after a RuntimeWarning
    coords = np.array([[0.0, 1.0, 3.0]])
    for eps, beta, name in ((0.0, 1.0, "eps"), (-0.1, 1.0, "eps"), (0.1, 0.0, "beta"),
                            (np.inf, 1.0, "eps"), (0.1, np.inf, "beta")):
        with pytest.raises(InputError, match=f"^{name} must be a finite number > 0, got "):
            build_graph_operators(coords, 1, eps, beta, 4)


@pytest.mark.parametrize("name", ["eps", "beta"])
@pytest.mark.parametrize("value", [np.inf, np.nan, 0.0, -1.0])
def test_graph_operators_built_directly_check_eps_and_beta(name, value):
    # an infinite eps warned in smoothness() ("invalid value encountered in
    # multiply") and then raised an overflow error that misnamed the cause
    L = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
    fields = {"eps": 0.1, "beta": 1.0, name: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=f"^{name} must be a finite number > 0, got "):
            GraphOperators(W=np.diag(np.diag(L)) - L, L=L, delta=diff_operator(2),
                           neighbors=[], **fields)


@pytest.mark.parametrize("eps, beta", [(1e300, 3.0), (0.1, 1e300), (2.0, 1e4)])
def test_smoothness_whose_eigenvalues_overflow_is_a_typed_error(eps, beta):
    # finite eps and beta whose (L + eps I)^beta overflows: a typed error
    # naming both, and no RuntimeWarning (which pytest.ini makes an error)
    L = laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))  # eigenvalues {0, 2}
    with pytest.raises(InputError, match=re.escape(
            f"(L + eps I)^beta overflows at eps={eps!r}, beta={beta!r}")):
        _sobolev(L, eps, beta)


def test_diff_operator_small():
    assert np.allclose(diff_operator(2), [[-1.0], [1.0]])


def test_diff_constant_in_time():
    X = np.ones((3, 5))
    assert np.allclose(X @ diff_operator(5), 0.0)


def test_diff_single_row():
    X = np.array([[0.0, 1.0, 3.0]])
    assert np.allclose(X @ diff_operator(3), [[1.0, 2.0]])


def test_diff_rejects_short():
    with pytest.raises(InputError):
        diff_operator(1)


def test_quadratic_form_identity():
    # tr(D^T X^T S X D) equals the sum of per-step quadratic forms and is
    # non-negative for the positive definite smoothing operator
    rng = np.random.default_rng(12)
    for _ in range(5):
        coords = rng.random((2, 7))
        ops = build_graph_operators(coords, 3, 0.2, 1.0, 6)
        X = rng.standard_normal((7, 6))
        XD = X @ ops.delta
        val = np.trace(ops.delta.T @ X.T @ ops.L_sobolev @ X @ ops.delta)
        direct = sum(
            XD[:, t] @ ops.L_sobolev @ XD[:, t] for t in range(XD.shape[1])
        )
        assert val == pytest.approx(direct)
        assert val >= 0.0


def test_smoothness_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    coords = rng.random((2, 6))
    ops = build_graph_operators(coords, 2, 0.4, 2.0, 5)
    ddt = ops.delta @ ops.delta.T
    X = rng.standard_normal((6, 5))

    def f(mat):
        return 0.5 * np.trace(mat.T @ ops.L_sobolev @ mat @ ddt)

    grad = ops.L_sobolev @ X @ ddt
    h = 1e-6
    num = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            Xp, Xm = X.copy(), X.copy()
            Xp[i, j] += h
            Xm[i, j] -= h
            num[i, j] = (f(Xp) - f(Xm)) / (2 * h)
    rel = np.linalg.norm(num - grad) / np.linalg.norm(grad)
    assert rel < 1e-6


def test_smoothness_eigenpairs_reproduce_the_operators():
    # the X-update preconditioner and step cap read these eigenpairs, which
    # are computed once and then shared
    coords = np.random.default_rng(14).random((2, 7))
    ops = build_graph_operators(coords, 3, 0.2, 1.5, 6)
    S, (s, U), ddt, (d, Q) = ops.smoothness()
    assert ops.smoothness() is ops.smoothness() and ops.L_sobolev is S
    assert np.array_equal(ddt, ops.delta @ ops.delta.T)
    assert np.allclose((U * s) @ U.T, S) and np.allclose((Q * d) @ Q.T, ddt)
    assert np.all(np.diff(s) >= 0) and np.all(np.diff(d) >= 0)
    lam = np.linalg.eigvalsh(ops.L + 0.2 * np.eye(7))
    assert np.allclose(s, lam**1.5)

