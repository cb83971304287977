import dataclasses

import numpy as np
import pytest

from mkimpute.errors import InputError
from mkimpute.model import (
    FactorModel,
    ModelDims,
    SolverConfig,
    count_unknowns,
    init_factors,
    predict,
)
from oracles import block_basis, random_model, reduce_to_mmf


def _sum_form(model):
    """Oracle: per-kernel chains summed explicitly, no shared code path."""
    dims = model.dims
    out = np.zeros((dims.n_rows, dims.n_cols), dtype=complex)
    for m in range(dims.n_kernels):
        term = np.eye(dims.n_rows, dtype=complex)
        for d in model.factors[m]:
            term = term @ d
        out = out + term @ model.kernels[m] @ model.coeffs[m]
    return out


def _supermatrix_form(model):
    """Oracle: materialized block supermatrices multiplied left to right."""
    dims = model.dims
    D1 = np.concatenate([model.factors[m][0] for m in range(dims.n_kernels)], axis=1)
    prod = D1.astype(complex)
    for q in range(1, dims.depth):
        blocks = [model.factors[m][q] for m in range(dims.n_kernels)]
        size_r = sum(b.shape[0] for b in blocks)
        size_c = sum(b.shape[1] for b in blocks)
        sup = np.zeros((size_r, size_c), dtype=complex)
        r = c = 0
        for b in blocks:
            sup[r:r + b.shape[0], c:c + b.shape[1]] = b
            r += b.shape[0]
            c += b.shape[1]
        prod = prod @ sup
    n_l = dims.n_landmarks
    K = np.zeros((dims.n_kernels * n_l, dims.n_kernels * n_l), dtype=complex)
    for m in range(dims.n_kernels):
        K[m * n_l:(m + 1) * n_l, m * n_l:(m + 1) * n_l] = model.kernels[m]
    B = np.concatenate(model.coeffs, axis=0)
    return prod @ K @ B


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("m_count", [1, 2, 3])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_predict_matches_the_left_to_right_product(depth, m_count, complex_):
    # predict multiplies through the narrow inner dimensions first; the sum
    # of left-to-right chains is the same number up to roundoff
    dims = ModelDims(9, 7, 4, m_count, depth, (3, 5)[: depth - 1])
    model = random_model(dims, 10 * depth + m_count,
                         np.complex128 if complex_ else np.float64)
    ref = sum(block_basis(model, m) @ model.coeffs[m] for m in range(m_count))
    got = predict(model)
    assert got.dtype == ref.dtype
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_predict_identity_factors():
    dims = ModelDims(3, 4, 3, 1, 1, ())
    model = init_factors(dims, 0)
    model.factors[0][0] = np.eye(3, dtype=complex)
    model.kernels[0] = np.eye(3, dtype=complex)
    assert np.allclose(predict(model), model.coeffs[0])


def test_predict_zero_block_drops_term():
    dims = ModelDims(4, 5, 3, 2, 2, (2,))
    model = init_factors(dims, 1)
    model.coeffs[1][:] = 0.0
    one_term = FactorModel(
        dims=ModelDims(4, 5, 3, 1, 2, (2,)),
        factors=[model.factors[0]],
        kernels=[model.kernels[0]],
        coeffs=[model.coeffs[0]],
    )
    assert np.allclose(predict(model), predict(one_term))


def test_predict_matches_sum_and_supermatrix_forms():
    rng = np.random.default_rng(2)
    for seed in range(5):
        dims = ModelDims(5, 4, 3, 2, 2, (2,))
        model = init_factors(dims, seed)
        for m in range(2):
            model.kernels[m] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        got = predict(model)
        a = _sum_form(model)
        b = _supermatrix_form(model)
        assert np.linalg.norm(got - a) / np.linalg.norm(a) < 1e-10
        assert np.linalg.norm(got - b) / np.linalg.norm(b) < 1e-10


def test_count_unknowns_reference_values():
    assert count_unknowns(ModelDims(166464, 360, 70, 1, 1, ())) == 11_677_680
    assert count_unknowns(ModelDims(166464, 360, 70, 1, 2, (8,))) == 1_357_472
    assert count_unknowns(ModelDims(166464, 360, 70, 1, 3, (2, 8))) == 358_704


def test_count_unknowns_multi_kernel_scaling():
    base = count_unknowns(ModelDims(166464, 360, 70, 1, 2, (8,)))
    assert count_unknowns(ModelDims(166464, 360, 70, 7, 2, (8,))) == 7 * base


def test_deep_factorization_saves_parameters():
    deep = count_unknowns(ModelDims(166464, 360, 70, 1, 2, (8,)))
    flat = count_unknowns(ModelDims(166464, 360, 70, 1, 1, ()))
    assert deep < flat


def test_init_affine_feasible():
    dims = ModelDims(6, 8, 4, 3, 2, (2,))
    model = init_factors(dims, 7)
    for b in model.coeffs:
        assert np.max(np.abs(b.sum(axis=0) - 1.0)) < 1e-12


def test_init_deterministic():
    dims = ModelDims(5, 6, 3, 2, 3, (2, 2))
    a = init_factors(dims, 99)
    b = init_factors(dims, 99)
    for m in range(2):
        for q in range(3):
            assert np.array_equal(a.factors[m][q], b.factors[m][q])
        assert np.array_equal(a.coeffs[m], b.coeffs[m])


def test_init_fan_in_variance():
    dims = ModelDims(4000, 4, 3, 2, 2, (5,))
    model = init_factors(dims, 3)
    d1 = np.concatenate([model.factors[m][0] for m in range(2)], axis=1)
    var = np.mean(np.abs(d1) ** 2)
    expected = 1.0 / (5 * 2)
    assert abs(var - expected) / expected < 0.2


def test_init_real_dtype():
    dims = ModelDims(5, 6, 3, 1, 2, (2,))
    model = init_factors(dims, 0, dtype=np.float64)
    assert model.factors[0][0].dtype == np.float64
    assert not np.iscomplexobj(model.coeffs[0])


def test_reduce_to_mmf_identity_kernels():
    dims = ModelDims(5, 6, 3, 2, 2, (2,))
    rng = np.random.default_rng(4)
    model = init_factors(dims, 4)
    for m in range(2):
        model.kernels[m] = rng.standard_normal((3, 3)) + 0j
    reduced = reduce_to_mmf(model)
    assert reduced.mmf
    assert count_unknowns(reduced.dims) == count_unknowns(dims)
    expected = sum(
        model.factors[m][0] @ model.factors[m][1] @ model.coeffs[m] for m in range(2)
    )
    assert np.allclose(predict(reduced), expected)
    # original untouched
    assert not model.mmf
    assert not np.allclose(model.kernels[0], np.eye(3))


def test_mmf_objective_matches_reduced_engine_objective():
    # pure fit + Tikhonov objective coincides when the l1 weight is zero and
    # kernels are identities
    from mkimpute.graphs import build_graph_operators
    from mkimpute.solver import TVGS, full_objective
    rng = np.random.default_rng(5)
    dims = ModelDims(6, 7, 3, 1, 2, (2,))
    model = init_factors(dims, 5, dtype=np.float64)
    reduced = reduce_to_mmf(model)
    X = rng.standard_normal((6, 7))
    coords = rng.random((2, 6))
    graph = build_graph_operators(coords, 2, 0.1, 1.0, 7)
    cfg = SolverConfig(lambda1=0.0, lambda2=0.3, lambda_L=0.2)
    obj_mmf = full_objective(TVGS, X, reduced, predict(reduced), cfg, graph=graph)
    resid = X - predict(reduced)
    manual = 0.5 * np.sum(resid**2)
    manual += 0.5 * 0.3 * sum(np.sum(d**2) for d in reduced.factors[0])
    manual += 0.5 * 0.3 * np.sum(reduced.coeffs[0] ** 2)
    XD = X @ graph.delta
    manual += 0.5 * 0.2 * np.trace(XD.T @ graph.L_sobolev @ XD)
    assert obj_mmf == pytest.approx(manual)


def test_dims_validation():
    with pytest.raises(InputError):
        ModelDims(4, 4, 2, 1, 2, ())  # missing inner dim
    with pytest.raises(InputError):
        ModelDims(4, 4, 2, 0, 1, ())


def test_solver_config_validation():
    with pytest.raises(InputError):
        SolverConfig(gamma0=0.0)
    with pytest.raises(InputError):
        SolverConfig(zeta=1.0)
    with pytest.raises(InputError):
        SolverConfig(tau_X=0.0)
    with pytest.raises(InputError):
        SolverConfig(lambda1=-1.0)
    with pytest.raises(InputError):
        SolverConfig(z_rule="other")


@pytest.mark.parametrize("field,value", [
    ("cg_tol", 0.0), ("cg_tol", -1e-9), ("inner_tol", 0.0), ("inner_max", 0),
    ("cg_max", 0), ("outer_iters", 0), ("tol_objective", -1e-6),
])
def test_solver_config_rejects_unworkable_settings(field, value):
    with pytest.raises(InputError, match=field):
        SolverConfig(**{field: value})


FLOAT_FIELDS = [f.name for f in dataclasses.fields(SolverConfig) if isinstance(f.default, float)]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_solver_config_rejects_non_finite_values(field, value):
    # a NaN weight passed every sign check and failed each solve at its
    # first objective; an infinite cg_tol reached log(0) in the CG cap
    assert len(FLOAT_FIELDS) == 14
    with pytest.raises(InputError, match=f"{field} must be finite"):
        SolverConfig(**{field: value})


def test_solver_config_rejects_negative_seed():
    with pytest.raises(InputError, match="seed"):
        SolverConfig(seed=-1)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
@pytest.mark.parametrize("field", ["outer_iters", "inner_max", "cg_max", "seed"])
def test_solver_config_rejects_non_integer_counts(field, value):
    # a float count validated and later failed in range() with a TypeError
    with pytest.raises(InputError, match=f"{field} must be an integer"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("value", [0, -1, 2.5, 4.0, False])
@pytest.mark.parametrize("field", ["n_rows", "n_cols", "n_landmarks", "n_kernels", "depth"])
def test_model_dims_reject_bad_counts(field, value):
    sizes = {"n_rows": 4, "n_cols": 5, "n_landmarks": 3, "n_kernels": 1, "depth": 1}
    with pytest.raises(InputError, match=f"{field} must be an integer of at least 1"):
        ModelDims(**{**sizes, field: value})


@pytest.mark.parametrize("value", [0, 1.5])
def test_model_dims_reject_bad_inner_dimensions(value):
    with pytest.raises(InputError, match="inner dimension"):
        ModelDims(4, 5, 3, 1, 2, (value,))


def test_counts_accept_numpy_integers():
    dims = ModelDims(np.int64(4), 5, np.int32(3))
    assert dims.d_list == (4, 3)
    assert SolverConfig(outer_iters=np.int64(2), seed=np.uint8(1)).outer_iters == 2
