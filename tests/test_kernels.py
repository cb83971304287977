import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mkimpute import kernels
from mkimpute.errors import DataError, InputError
from mkimpute.kernels import (
    KernelSpec,
    build_kernel_matrix,
    default_kernel_dictionary,
    gaussian_spec,
    landmark_mean,
    median_distance_gaussian,
)
from oracles import build_kernel_supermatrix, eval_kernel, pairwise_distances_reference


def test_linear_complex_pair():
    # l^H l' = 2 - 2j, normalized by sqrt(|l|^2 |l'|^2) = sqrt(2 * 4)
    val = eval_kernel(KernelSpec("linear"), np.array([1 + 1j]), np.array([2.0]))
    assert val == pytest.approx((2 - 2j) / math.sqrt(8.0))


def test_gaussian_zero_displacement():
    val = eval_kernel(KernelSpec("gaussian", gamma=0.5), [3.0, 4.0], [3.0, 4.0])
    assert val == pytest.approx(1.0)


def test_polynomial_by_hand():
    # (l^H l')^2 = 3^2, normalized by sqrt(k(l, l) k(l', l')) = sqrt(2^2 * 5^2)
    val = eval_kernel(KernelSpec("polynomial", degree=2, intercept=0.0), [1.0, 1.0], [1.0, 2.0])
    assert val == pytest.approx(0.9)


def test_gaussian_real_reduces_to_squared_distance():
    rng = np.random.default_rng(3)
    spec = KernelSpec("gaussian", gamma=0.7)
    for _ in range(20):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        expected = np.exp(-0.7 * np.sum((a - b) ** 2))
        assert eval_kernel(spec, a, b) == pytest.approx(expected)


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        eval_kernel(KernelSpec("linear"), [1.0, 2.0], [1.0])


def test_spec_validation():
    with pytest.raises(InputError):
        KernelSpec("gaussian", gamma=0.0)
    with pytest.raises(InputError):
        KernelSpec("polynomial", degree=0)
    with pytest.raises(InputError):
        KernelSpec("sinc")


def test_matrix_single_landmark():
    km = build_kernel_matrix(np.array([[1.5]]), gaussian_spec(0.4))
    assert km.shape == (1, 1)
    assert km[0, 0] == pytest.approx(1.0)


def test_matrix_linear_two_landmarks():
    km = build_kernel_matrix(np.array([[0.0, 1.0]]), KernelSpec("linear"))
    assert np.allclose(km, [[0.0, 0.0], [0.0, 1.0]])


def test_matrix_gaussian_two_landmarks():
    km = build_kernel_matrix(np.array([[0.0, 1.0]]), KernelSpec("gaussian", gamma=1.0))
    e = np.exp(-1.0)
    assert np.allclose(km, [[1.0, e], [e, 1.0]])


def test_matrix_agrees_with_pairwise_eval():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    for spec in (KernelSpec("linear"), KernelSpec("gaussian", gamma=0.3),
                 KernelSpec("polynomial", degree=3, intercept=0.5 + 0.1j)):
        km = build_kernel_matrix(pts, spec)
        for i in range(5):
            for j in range(5):
                assert km[i, j] == pytest.approx(
                    eval_kernel(spec, pts[:, i], pts[:, j]), abs=1e-10
                )


@pytest.mark.parametrize("spec", [
    KernelSpec("linear"),
    KernelSpec("gaussian", gamma=0.9),
    KernelSpec("polynomial", degree=2, intercept=0.3),
])
def test_symmetry_on_real_inputs(spec):
    rng = np.random.default_rng(5)
    for _ in range(25):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        assert eval_kernel(spec, a, b) == pytest.approx(eval_kernel(spec, b, a))


def test_linear_matrix_hermitian_on_complex_landmarks():
    rng = np.random.default_rng(21)
    pts = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
    km = build_kernel_matrix(pts, KernelSpec("linear"))
    assert np.allclose(km, km.conj().T)


def test_gaussian_matrix_psd_on_real_landmarks():
    rng = np.random.default_rng(9)
    for trial in range(4):
        pts = rng.standard_normal((4, 6 + trial))
        km = build_kernel_matrix(pts, KernelSpec("gaussian", gamma=0.5 + trial))
        eigs = np.linalg.eigvalsh(km.real)
        assert eigs.min() >= -1e-10


def test_supermatrix_single_block_unchanged():
    km = build_kernel_matrix(np.array([[0.0, 1.0]]), KernelSpec("gaussian", gamma=1.0))
    sup = build_kernel_supermatrix([km])
    assert np.array_equal(sup, km)


def test_supermatrix_two_blocks():
    sup = build_kernel_supermatrix([np.array([[1.0]]), np.array([[2.0]])])
    assert np.array_equal(sup, [[1.0, 0.0], [0.0, 2.0]])


def test_supermatrix_support_count():
    rng = np.random.default_rng(2)
    n_l, m = 70, 7
    mats = [build_kernel_matrix(rng.standard_normal((3, n_l)),
                                KernelSpec("gaussian", gamma=0.2)) for _ in range(m)]
    sup = build_kernel_supermatrix(mats)
    assert sup.shape == (m * n_l, m * n_l)
    off_block = np.ones_like(sup, dtype=bool)
    for i in range(m):
        off_block[i * n_l:(i + 1) * n_l, i * n_l:(i + 1) * n_l] = False
    assert np.all(sup[off_block] == 0.0)
    assert np.count_nonzero(~off_block) == m * n_l * n_l


def test_supermatrix_mixed_sizes_rejected():
    with pytest.raises(InputError):
        build_kernel_supermatrix([np.eye(2), np.eye(3)])


def test_default_dictionary_layout():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((4, 10))
    specs = default_kernel_dictionary(pts)
    assert len(specs) == 7
    assert [s.kind for s in specs[:3]] == ["gaussian"] * 3
    assert specs[0].gamma == pytest.approx(1.0 / (2 * 0.2**2))
    assert [s.degree for s in specs[3:]] == [1, 2, 3, 4]
    assert specs[4].intercept == pytest.approx(complex(pts.mean()))


def test_default_intercept_takes_the_landmarks_field():
    from mkimpute.experiments import _kernel_specs_from_config
    rng = np.random.default_rng(3)
    real_pts = rng.standard_normal((4, 8)) + 2.0
    complex_pts = real_pts + 1j * rng.standard_normal((4, 8))
    for pts, field in ((real_pts, float), (complex_pts, complex)):
        specs = default_kernel_dictionary(pts)
        assert all(type(s.intercept) is field for s in specs[3:])
        assert specs[3].intercept == pytest.approx(pts.mean())
        from_spec = _kernel_specs_from_config([{"kind": "polynomial", "degree": 2}], pts)
        assert from_spec[0].intercept == specs[3].intercept
    poly = build_kernel_matrix(real_pts, default_kernel_dictionary(real_pts)[5])
    assert poly.dtype == np.float64


def _median_sigma_by_pairs(pts):
    """The median-distance bandwidth pair by pair, as a reference."""
    n = pts.shape[1]
    dists = [np.linalg.norm(pts[:, i] - pts[:, j]) for i in range(n) for j in range(i + 1, n)]
    med = float(np.median(dists)) if dists else 0.0
    return med if med > 0 else 1.0


def test_median_distance_gaussian_matches_the_pairwise_loop():
    rng = np.random.default_rng(8)
    real = rng.standard_normal((4, 48))
    cases = {
        "real": real,
        "complex": real + 1j * rng.standard_normal((4, 48)),
        "single point": real[:, :1],
        "duplicates": np.array([[0.0, 0.0, 0.0, 0.0, 1.0]]),  # median distance 0
        "complex duplicates": np.repeat(real[:, :1] + 2j, 3, axis=1),
    }
    for name, pts in cases.items():
        sigma = _median_sigma_by_pairs(pts)
        assert median_distance_gaussian(pts).gamma == pytest.approx(
            1.0 / (2.0 * sigma**2), rel=1e-14), name
    assert median_distance_gaussian(real[:, :1]).gamma == 0.5  # sigma = 1
    assert median_distance_gaussian(cases["duplicates"]).gamma == 0.5


@pytest.mark.parametrize("points", [
    [[np.nan, 1.0, 2.0]],  # its median distance is NaN, which fell back to sigma = 1
    [[np.inf, 1.0, 2.0]],  # an infinite median, which ended in an error about sigma
    [[1.0 + 1j, complex(2.0, np.nan)]],
    [[np.nan]],  # one point gives sigma = 1 whatever it is, but is no usable point
])
def test_median_distance_gaussian_rejects_non_finite_points(points):
    with pytest.raises(DataError, match="points must be finite"):
        median_distance_gaussian(np.array(points))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(n=st.integers(2, 40), nu=st.integers(1, 12), complex_=st.booleans(),
       fortran=st.booleans(), repeats=st.integers(0, 3),
       scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e150]), pairs_per_chunk=st.integers(1, 60),
       seed=st.integers(0, 2**16))
@example(n=2, nu=1, complex_=False, fortran=False, repeats=0, scale=1.0, pairs_per_chunk=1,
         seed=0)  # a single pair
@example(n=2, nu=12, complex_=True, fortran=True, repeats=1, scale=1.0, pairs_per_chunk=1,
         seed=1)  # a single pair of repeated points, past numpy's 8-term pairwise block
def test_pairwise_distances_equal_pdist_bit_for_bit(n, nu, complex_, fortran, repeats, scale,
                                                    pairs_per_chunk, seed):
    # each pair's squares are summed over the coordinates in order, as pdist
    # sums them; chunks of 1 to 60 pairs put their boundaries anywhere
    rng = np.random.default_rng(seed)
    pts = scale * rng.standard_normal((nu, n))
    if complex_:
        pts = pts + 1j * scale * rng.standard_normal((nu, n))
    pts[:, n - min(repeats, n - 1):] = pts[:, :1]  # repeated points
    pts = np.asfortranarray(pts) if fortran else np.ascontiguousarray(pts)
    real = np.concatenate([pts.real, pts.imag]) if complex_ else pts
    want = pairwise_distances_reference(real)
    for chunk_bytes in (16 * len(real) * pairs_per_chunk, kernels._PAIR_CHUNK_BYTES):
        got = kernels._pairwise_distances(real, chunk_bytes)
        assert got.tobytes() == want.tobytes(), chunk_bytes
    med = float(np.median(want))
    assert median_distance_gaussian(pts) == gaussian_spec(med if med > 0 else 1.0)


def test_pairwise_distances_stay_within_their_chunk_budget():
    # 300 points of 500 coordinates: one pairs x coordinates array would take
    # 180 MB, every chunk's two take at most the budget
    pts = np.random.default_rng(3).standard_normal((500, 300))
    tracemalloc.start()
    try:
        median_distance_gaussian(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * kernels._PAIR_CHUNK_BYTES, peak


@pytest.mark.parametrize("field, value", [
    ("gamma", float("inf")), ("gamma", float("nan")), ("gamma", 0), ("gamma", "median"),
    ("gamma", True),
    ("sigma", float("inf")), ("sigma", 0), ("sigma", "wide"),
    # sigma^2 beyond the float range gave a ZeroDivisionError or an
    # OverflowError; a gamma of inf or 0 an error naming 'gamma'
    ("sigma", 1e-200), ("sigma", 1e-155), ("sigma", 1e154), ("sigma", 1e200),
    *(pytest.param("sigma", np.float64(value), id=f"sigma-float64-{value}")
      for value in (1e-200, 1e200)),
    ("degree", 0), ("degree", 1.5), ("degree", True), ("degree", None),
    ("intercept", float("nan")), ("intercept", float("inf")), ("intercept", "x"),
    ("intercept", complex(1.0, float("nan"))),
    # integers beyond the float range gave an OverflowError
    *(pytest.param(field, 10**400, id=f"{field}-10**400")
      for field in ("gamma", "sigma", "intercept")),
])
def test_kernel_spec_rejects_a_bad_number_naming_the_field(field, value):
    # gamma = inf gave a NaN kernel and a NaN intercept a non-finite one;
    # degree 2.5 or True, and a bool gamma, were taken as numbers
    with pytest.raises(InputError, match=f"^'{field}' must be"):
        if field == "sigma":
            gaussian_spec(value)
        else:
            KernelSpec("gaussian" if field == "gamma" else "polynomial", **{field: value})


@pytest.mark.parametrize("sigma", [3e-154, 1e-150, 1e-3, 0.4, 1, 7, 1e150, 9e153,
                                   np.float64(0.4), np.float64(1e-150), np.int32(3)])
def test_gaussian_spec_keeps_its_gamma_at_every_workable_width(sigma):
    assert gaussian_spec(sigma).gamma == 1.0 / (2.0 * sigma**2)


def _complex_points():
    rng = np.random.default_rng(4)
    return 0.3 * (rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7)))


ACCEPTED_SPECS = {
    "gamma float32": lambda pts: KernelSpec("gaussian", gamma=np.float32(0.5)),
    "gamma int64": lambda pts: KernelSpec("gaussian", gamma=np.int64(2)),
    "sigma float64": lambda pts: gaussian_spec(np.float64(0.4)),
    "sigma int32": lambda pts: gaussian_spec(np.int32(1)),
    "degree int64": lambda pts: KernelSpec("polynomial", degree=np.int64(3), intercept=0.5),
    "degree uint8": lambda pts: KernelSpec("polynomial", degree=np.uint8(2),
                                           intercept=np.float32(-1.0)),
    "complex intercept": lambda pts: KernelSpec("polynomial", degree=2, intercept=0.5 - 0.25j),
    "numpy complex intercept": lambda pts: KernelSpec("polynomial", degree=np.int32(4),
                                                      intercept=np.complex128(1 + 1j)),
    "int intercept": lambda pts: KernelSpec("polynomial", degree=1, intercept=np.int64(2)),
    "linear": lambda pts: KernelSpec("linear"),
    "landmark-mean intercept": lambda pts: default_kernel_dictionary(pts)[6],
}


@pytest.mark.parametrize("name", ACCEPTED_SPECS)
def test_kernel_spec_accepts_numpy_numbers_and_builds_a_finite_kernel(name):
    # the dmri landmark mean is complex; a spec KernelSpec accepts builds a
    # kernel matrix with finite entries and no warning
    pts = _complex_points()
    for points in (pts.real, pts):
        spec = ACCEPTED_SPECS[name](points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            km = build_kernel_matrix(points, spec)
        assert km.shape == (7, 7) and np.all(np.isfinite(km)), name


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(complex_=st.booleans(), kind=st.sampled_from(["linear", "polynomial"]),
       degree=st.integers(1, 4), intercept=st.sampled_from([0.0, 1.0, -0.5, 0.3 - 0.7j]),
       nu=st.integers(1, 4), n_l=st.integers(1, 8), zeros=st.integers(0, 2),
       scale=st.sampled_from([1e-3, 1.0, 30.0]), seed=st.integers(0, 2**16))
def test_linear_and_polynomial_matrices_have_a_unit_diagonal(complex_, kind, degree, intercept,
                                                             nu, n_l, zeros, scale, seed):
    # |K_ii| = 1 wherever the kernel's k(l_i, l_i) is not 0; a zero landmark
    # with intercept 0 has k(l_i, l_i) = 0 and keeps its row and column
    rng = np.random.default_rng(seed)
    pts = scale * rng.standard_normal((nu, n_l))
    if complex_:
        pts = pts + 1j * scale * rng.standard_normal((nu, n_l))
    pts[:, :zeros] = 0.0
    spec = KernelSpec(kind, degree=degree, intercept=intercept)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        km = build_kernel_matrix(pts, spec)
    sq = np.sum(np.abs(pts) ** 2, axis=0)
    raw = sq if kind == "linear" else (sq + intercept) ** degree
    assert np.all(np.isfinite(km))
    for i in range(n_l):
        if raw[i] != 0:
            assert abs(km[i, i]) == pytest.approx(1.0, rel=1e-14)
        else:
            assert km[i, i] == 0.0
        for j in range(n_l):
            assert km[i, j] == pytest.approx(eval_kernel(spec, pts[:, i], pts[:, j]),
                                             rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("intercept", [0.0, 1.0, 1e200, None])
def test_degree_400_polynomial_is_finite_with_a_unit_diagonal(complex_, intercept):
    # raised to the degree before it was normalized, the base l^H l' + c
    # overflowed to inf and nan (at degree 400, or at c = 1e200 from degree 2)
    rng = np.random.default_rng(40)
    pts = rng.standard_normal((5, 9))
    if complex_:
        pts = pts + 1j * rng.standard_normal((5, 9))
    c = landmark_mean(pts) if intercept is None else intercept
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        km = build_kernel_matrix(pts, KernelSpec("polynomial", degree=400, intercept=c))
    assert np.all(np.isfinite(km))
    assert np.allclose(np.abs(np.diagonal(km)), 1.0, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("points, spec", [
    # a negative intercept: the normalized base exceeds 1 off the diagonal
    (np.array([[0.7072, 1.0]]), KernelSpec("polynomial", degree=400, intercept=-0.5)),
    # a complex Gaussian: exp(gamma ||Im l||^2) overflows at a large gamma
    (np.array([[3j, 1.0 + 2j]]), KernelSpec("gaussian", gamma=200.0)),
], ids=["polynomial", "complex gaussian"])
def test_a_kernel_matrix_that_is_not_finite_is_a_typed_error(points, spec):
    # each one overflowed to inf with a RuntimeWarning and was returned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=re.escape(f"{spec} has entries that are not "
                                                       "finite on these landmarks")):
            build_kernel_matrix(points, spec)
