import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mkimpute.errors import DataError, InputError
from mkimpute.metrics import (
    LOG_SIZE,
    _convolve_valid,
    compute_metrics,
    hfen,
    log_kernel,
    mae,
    mape,
    nrmse,
    rmse,
    ssim,
)
from oracles import convolve_valid_reference


def test_zero_error_cases():
    X = np.random.default_rng(0).standard_normal((4, 5))
    assert mae(X, X) == 0.0
    assert rmse(X, X) == 0.0
    Y = X + 2.0  # keep reference nonzero
    assert mape(Y, Y) == 0.0
    assert nrmse(Y, Y) == 0.0


def test_all_ones_difference():
    Y = np.zeros((2, 2))
    X = np.ones((2, 2))
    assert mae(X, Y) == 1.0
    assert rmse(X, Y) == 1.0


def test_mape_by_hand():
    Y = 2.0 * np.ones((3, 3))
    X = 3.0 * np.ones((3, 3))
    assert mape(X, Y) == pytest.approx(0.5)


def test_mape_zero_reference_rejected():
    with pytest.raises(InputError):
        mape(np.ones((2, 2)), np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_nrmse_values():
    ref = np.random.default_rng(1).standard_normal((4, 4))
    assert nrmse(np.zeros_like(ref), ref) == pytest.approx(1.0)
    assert nrmse(1.1 * ref, ref) == pytest.approx(0.1)
    with pytest.raises(InputError):
        nrmse(np.ones((2, 2)), np.zeros((2, 2)))


def test_shape_mismatch():
    with pytest.raises(InputError):
        mae(np.zeros((2, 2)), np.zeros((3, 2)))


def test_symmetry_and_scaling():
    rng = np.random.default_rng(2)
    X, Y = rng.standard_normal((5, 6)), rng.standard_normal((5, 6))
    assert rmse(X, Y) == pytest.approx(rmse(Y, X))
    assert mae(X, Y) == pytest.approx(mae(Y, X))
    assert rmse(3.0 * X, 3.0 * Y) == pytest.approx(3.0 * rmse(X, Y))
    assert mae(-2.0 * X, -2.0 * Y) == pytest.approx(2.0 * mae(X, Y))


def test_complex_inputs_use_magnitudes():
    X = np.array([[1 + 1j]])
    Y = np.array([[0 + 0j]])
    assert mae(X, Y) == pytest.approx(np.sqrt(2))
    assert rmse(X, Y) == pytest.approx(np.sqrt(2))


def test_ssim_identity_exact():
    rng = np.random.default_rng(3)
    img = rng.random((16, 16))
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)


def test_ssim_bounds_and_degradation():
    rng = np.random.default_rng(4)
    ref = rng.random((20, 20))
    noisy = ref + 0.5 * rng.standard_normal((20, 20))
    val = ssim(noisy, ref)
    assert -1.0 <= val <= 1.0
    assert val < 1.0
    assert ssim(-ref, ref) < 1.0


def test_ssim_constant_reference():
    img = np.full((10, 10), 2.5)
    assert ssim(img, img) == pytest.approx(1.0)


def test_ssim_needs_window():
    with pytest.raises(InputError):
        ssim(np.ones((4, 4)), np.ones((4, 4)))


def test_log_kernel_zero_sum():
    k = log_kernel()
    assert k.shape == (15, 15)
    assert abs(k.sum()) < 1e-12


def test_hfen_identity_and_dc_rejection():
    rng = np.random.default_rng(5)
    ref = rng.random((20, 20))
    assert hfen(ref, ref) == 0.0
    assert hfen(ref + 3.0, ref) == pytest.approx(0.0, abs=1e-10)


def test_hfen_positive_for_blur():
    rng = np.random.default_rng(6)
    ref = np.zeros((24, 24))
    ref[8:16, 8:16] = 1.0  # sharp square has high-frequency content
    blurred = ref.copy()
    blurred[7:17, 7:17] = 0.5
    assert hfen(blurred, ref) > 0.0


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(h=st.integers(LOG_SIZE, 48), w=st.integers(LOG_SIZE, 48), seed=st.integers(0, 2**16),
       square=st.booleans())
@example(h=LOG_SIZE, w=LOG_SIZE, seed=0, square=False)  # one full-overlap window
@example(h=LOG_SIZE, w=40, seed=1, square=False)
@example(h=64, w=64, seed=2, square=False)  # dmri-radial's frames
def test_hfen_convolution_matches_scipy(h, w, seed, square):
    # the stencil is symmetric, so a lopsided drawn kernel checks the flip
    # that makes the correlation a convolution
    rng = np.random.default_rng(seed)
    w = h if square else w
    img, ref = rng.standard_normal((2, h, w))
    k = log_kernel()
    for kern in (k, rng.standard_normal((rng.integers(1, h + 1), rng.integers(1, w + 1)))):
        assert _rel(_convolve_valid(img, kern), convolve_valid_reference(img, kern)) < 1e-12
    d_img, d_ref = (convolve_valid_reference(a, k) for a in (img, ref))
    want = np.linalg.norm(d_img - d_ref) / np.linalg.norm(d_ref)
    assert hfen(img, ref) == pytest.approx(want, rel=1e-12)


def test_hfen_flat_reference_rejected():
    with pytest.raises(DataError):
        hfen(np.random.default_rng(7).random((20, 20)), np.ones((20, 20)))


def test_compute_metrics_all_entries():
    rng = np.random.default_rng(8)
    ref = rng.random((6, 4)) + 1.0
    X = ref + 0.1
    rep = compute_metrics(X, ref)
    assert rep.mae == pytest.approx(0.1)
    assert rep.mape is not None
    assert rep.ssim is None  # no image dims given


def test_compute_metrics_missing_only():
    rng = np.random.default_rng(9)
    ref = rng.random((6, 4)) + 1.0
    X = ref.copy()
    mask = rng.random((6, 4)) < 0.5
    X[~mask] += 1.0  # errors only on missing entries
    rep_all = compute_metrics(X, ref, observed_mask=mask)
    rep_miss = compute_metrics(X, ref, observed_mask=mask, missing_only=True)
    assert rep_miss.mae == pytest.approx(1.0)
    assert rep_all.mae < rep_miss.mae


def test_compute_metrics_omits_mape_on_zero_reference():
    ref = np.array([[1.0, 0.0], [2.0, 3.0]])
    rep = compute_metrics(ref + 1.0, ref)
    assert rep.mape is None
    assert rep.mae is not None


def test_compute_metrics_with_images():
    from mkimpute.mri import make_phantom
    ds = make_phantom(16, 16, 8)
    rep = compute_metrics(ds.ground_truth_image, ds.ground_truth_image,
                          image_dims=(16, 16))
    assert rep.ssim == pytest.approx(1.0, abs=1e-12)
    assert rep.hfen == pytest.approx(0.0, abs=1e-12)


def test_compute_metrics_omits_hfen_on_frames_below_its_stencil():
    # an 8x14 frame takes ssim's 8x8 window but not hfen's 15x15 stencil
    from mkimpute.mri import make_phantom
    truth = make_phantom(8, 14, 8).ground_truth_image
    rep = compute_metrics(truth + 0.1, truth, image_dims=(8, 14))
    assert rep.hfen is None
    assert rep.ssim is not None and rep.mae == pytest.approx(0.1)
