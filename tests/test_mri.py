import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mkimpute.errors import DataError, InputError
from mkimpute.mri import (
    PhantomParams,
    dft_temporal,
    fft2_frames,
    flatten_frames,
    idft_temporal,
    ifft2_frames,
    load_kt,
    make_phantom,
    pulse_schedule,
    save_kt,
    unflatten_frames,
)


# Transform properties over drawn sizes: odd and even frame sides, including
# 1 x 1 frames and single time points, on real and complex data.
SIZES = dict(i1=st.integers(1, 9), i2=st.integers(1, 9), i3=st.integers(1, 6),
             complex_=st.booleans(), seed=st.integers(0, 2**16))
property_test = settings(derandomize=True, database=None, deadline=None)


def _rand_kt(i1, i2, i3, complex_=True, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((i1 * i2, i3))
    return X + 1j * rng.standard_normal((i1 * i2, i3)) if complex_ else X


def test_flatten_round_trip():
    rng = np.random.default_rng(1)
    cube = rng.standard_normal((4, 6, 3))
    assert np.array_equal(unflatten_frames(flatten_frames(cube), 4, 6), cube)
    # column-major layout documented: entry (i1, i2) lands at i1 + I1*i2
    flat = flatten_frames(cube)
    assert flat[1 + 4 * 2, 0] == cube[1, 2, 0]


@property_test
@given(**SIZES)
def test_constant_frame_impulse_at_centered_dc(i1, i2, i3, complex_, seed):
    value = _rand_kt(1, 1, 1, complex_, seed)[0, 0]
    K = fft2_frames(np.full((i1 * i2, i3), value), i1, i2)
    frames = unflatten_frames(K, i1, i2)
    dc = frames[i1 // 2, i2 // 2]  # DC-centered layout, odd or even sides
    assert np.allclose(dc, i1 * i2 * value, rtol=1e-12)
    off = frames.copy()
    off[i1 // 2, i2 // 2] = 0.0
    assert np.max(np.abs(off), initial=0.0) < 1e-10


@property_test
@given(**SIZES)
def test_fft2_round_trip(i1, i2, i3, complex_, seed):
    X = _rand_kt(i1, i2, i3, complex_, seed)
    back = ifft2_frames(fft2_frames(X, i1, i2), i1, i2)
    assert np.max(np.abs(back - X)) < 1e-12


@property_test
@given(**SIZES)
def test_fft2_parseval_unnormalized(i1, i2, i3, complex_, seed):
    X = _rand_kt(i1, i2, i3, complex_, seed)
    K = fft2_frames(X, i1, i2)
    assert np.linalg.norm(K) ** 2 == pytest.approx(i1 * i2 * np.linalg.norm(X) ** 2)


@property_test
@given(**SIZES)
def test_ifft2_norm_is_the_kspace_norm_over_root_frame_size(i1, i2, i3, complex_, seed):
    # Parseval for the inverse, which carries the 1/(I1*I2): solve takes the
    # zero-filled image's norm this way, with no transform
    K = _rand_kt(i1, i2, i3, complex_, seed)
    assert np.linalg.norm(ifft2_frames(K, i1, i2)) == pytest.approx(
        np.linalg.norm(K) / math.sqrt(i1 * i2), rel=1e-12)


@property_test
@given(**SIZES)
def test_fft2_adjoint(i1, i2, i3, complex_, seed):
    x = _rand_kt(i1, i2, i3, complex_, seed)
    y = _rand_kt(i1, i2, i3, complex_, seed + 1)
    # F^H = (I1*I2) * F^{-1} for the unnormalized pair
    lhs = np.vdot(y, fft2_frames(x, i1, i2))
    rhs = i1 * i2 * np.vdot(ifft2_frames(y, i1, i2), x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-10)


@property_test
@given(**SIZES)
def test_spatial_transforms_are_numpys_shifted_fft2_bit_for_bit(i1, i2, i3, complex_, seed):
    # the shift is done by block copies and the transform runs in place, so
    # the rounding must be exactly that of numpy's shifted fft2 and ifft2
    X = _rand_kt(i1, i2, i3, complex_, seed)
    cube = unflatten_frames(X, i1, i2)
    forward = flatten_frames(np.fft.fftshift(np.fft.fft2(cube, axes=(0, 1)), axes=(0, 1)))
    inverse = flatten_frames(np.fft.ifft2(np.fft.ifftshift(cube, axes=(0, 1)), axes=(0, 1)))
    for got, want in ((fft2_frames(X, i1, i2), forward), (ifft2_frames(X, i1, i2), inverse)):
        assert got.dtype == np.complex128 and got.shape == X.shape
        assert got.tobytes() == want.tobytes()


@property_test
@given(**SIZES)
@example(i1=64, i2=64, i3=2, complex_=True, seed=0)  # dmri-radial's frames
@example(i1=7, i2=4, i3=2, complex_=False, seed=1)
def test_fft2_in_place_equals_the_allocating_form_bit_for_bit(i1, i2, i3, complex_, seed):
    # dmri_update_X transforms its output in place every iteration; the
    # shift then rolls the result over itself, on odd and even sides alike
    X = _rand_kt(i1, i2, i3, complex_, seed).astype(complex)
    shifted = np.fft.fftshift(np.fft.fft2(unflatten_frames(X, i1, i2), axes=(0, 1)), axes=(0, 1))
    allocated = fft2_frames(X, i1, i2)
    assert fft2_frames(X, i1, i2, out=X) is X
    assert X.tobytes() == allocated.tobytes() == flatten_frames(shifted).tobytes()


@pytest.mark.parametrize("i1, i2", [(8, 6), (5, 7), (6, 5), (1, 1)])
@pytest.mark.parametrize("complex_", [False, True])
def test_spatial_transforms_leave_their_input_untouched(i1, i2, complex_):
    X = _rand_kt(i1, i2, 3, complex_, seed=5)
    before = X.copy()
    for transform in (fft2_frames, ifft2_frames):
        out = transform(X, i1, i2)
        assert not np.shares_memory(out, X)
        assert X.dtype == before.dtype and X.tobytes() == before.tobytes()


def test_temporal_constant_row():
    X = np.ones((1, 4), dtype=complex)
    assert np.allclose(dft_temporal(X), [[4.0, 0.0, 0.0, 0.0]])


@property_test
@given(**SIZES)
def test_temporal_round_trip_and_adjoint_scale(i1, i2, i3, complex_, seed):
    X = _rand_kt(i1, i2, i3, complex_, seed)
    assert np.max(np.abs(idft_temporal(dft_temporal(X)) - X)) < 1e-12
    # Ft^H Ft = I3 * Id for the unnormalized convention (Ft^H = I3 * Ft^{-1}),
    # so Parseval carries I3
    W = dft_temporal(X)
    assert np.linalg.norm(W) ** 2 == pytest.approx(i3 * np.linalg.norm(X) ** 2)
    y = _rand_kt(i1, i2, i3, complex_, seed + 1)
    assert np.vdot(y, dft_temporal(X)) == pytest.approx(
        i3 * np.vdot(idft_temporal(y), X), rel=1e-12, abs=1e-10)


def test_temporal_single_tone():
    i3 = 8
    t = np.arange(i3)
    row = np.exp(2j * np.pi * 3 * t / i3)[None, :]
    W = dft_temporal(row)
    mags = np.abs(W[0])
    assert mags[3] == pytest.approx(i3)
    assert np.sum(mags > 1e-9) == 1


def test_phantom_kspace_is_dft_of_truth():
    ds = make_phantom(16, 16, 8)
    assert np.max(np.abs(ds.kspace - fft2_frames(ds.ground_truth_image, 16, 16))) < 1e-9


def test_phantom_pulse_schedule_periodic():
    i3 = 16
    t = np.arange(i3 + 1)
    w = pulse_schedule(t, i3)
    assert w[0] == pytest.approx(w[i3], abs=1e-12)  # wraps after one period
    assert not np.allclose(w[0], w[i3 - 1])


def test_phantom_pixel_profiles_are_spectrally_sparse():
    ds = make_phantom(16, 16, 16)
    W = dft_temporal(ds.ground_truth_image)
    energy = np.abs(W) ** 2
    total = energy.sum(axis=1)
    top5 = np.sort(energy, axis=1)[:, -5:].sum(axis=1)
    busy = total > 1e-12
    assert np.all(top5[busy] / total[busy] >= 0.95)


def test_phantom_dynamic_and_complex():
    ds = make_phantom(16, 16, 8)
    truth = ds.ground_truth_image
    assert np.iscomplexobj(truth)
    assert np.linalg.norm(truth[:, 0] - truth[:, 2]) > 1e-6  # moving rim
    assert np.max(np.abs(np.angle(truth[np.abs(truth) > 0.1]))) > 0.05


def test_phantom_noise_is_seeded():
    p = PhantomParams(noise_snr_db=30.0, seed=5)
    a = make_phantom(16, 16, 8, p)
    b = make_phantom(16, 16, 8, p)
    assert np.array_equal(a.kspace, b.kspace)
    clean = make_phantom(16, 16, 8)
    assert not np.allclose(a.kspace, clean.kspace)


@pytest.mark.parametrize("snr", [3084.0, 1e308, math.inf, -3090.0, -3300.0, -math.inf, math.nan])
def test_phantom_rejects_an_snr_whose_noise_power_leaves_the_float_range(snr):
    # 10^(SNR/10) overflowed above about 3082.5 dB; below about -3087 dB the
    # signal power over it is infinite, below about -3233 dB it is 0
    with pytest.raises(InputError, match="^'noise_snr_db' must give a noise power signal / 10"):
        make_phantom(8, 8, 8, PhantomParams(noise_snr_db=snr))


@pytest.mark.parametrize("snr", [3082.0, 30.0, 0.0, -3000.0, -3086.0])
def test_phantom_noise_at_every_workable_snr(snr):
    clean = make_phantom(8, 8, 8).ground_truth_image
    rng = np.random.default_rng(5)
    noise = rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
    var = np.mean(np.abs(clean) ** 2) / 10.0 ** (snr / 10.0)
    noisy = make_phantom(8, 8, 8, PhantomParams(noise_snr_db=snr, seed=5)).ground_truth_image
    assert noisy.tobytes() == (clean + np.sqrt(var / 2.0) * noise).tobytes()


def test_phantom_rejects_tiny_dims():
    with pytest.raises(InputError):
        make_phantom(4, 16, 16)


def test_kt_binary_round_trip(tmp_path):
    ds = make_phantom(8, 8, 8)
    path = tmp_path / "phantom.kt"
    save_kt(ds, path)
    back = load_kt(path)
    assert back.dims == (8, 8, 8)
    assert np.array_equal(back.kspace, ds.kspace)
    assert np.array_equal(back.ground_truth_image, ds.ground_truth_image)


def test_kt_truncated_file_is_data_error(tmp_path):
    path = tmp_path / "phantom.kt"
    save_kt(make_phantom(8, 8, 8), path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(DataError, match="truncated"):
        load_kt(path)


@pytest.mark.parametrize("header", [b'{"i1": 2}', b"not json", b'[2, 2, 2]',
                                    b'{"i1": 2, "i2": 0, "i3": 2, "has_truth": false}',
                                    b'{"i1": 2, "i2": 2, "i3": 2, "has_truth": 1}'])
def test_kt_bad_header_is_data_error_naming_file(tmp_path, header):
    path = tmp_path / "bad.kt"
    path.write_bytes(header + b"\n" + bytes(200))
    with pytest.raises(DataError, match="bad.kt: the header"):
        load_kt(path)
