import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mkimpute.errors import DataError, InputError
from mkimpute.sampling import (
    GOLDEN_ANGLE_DEG,
    apply_sampling,
    band_rows,
    cartesian_mask,
    lines_per_frame,
    load_mask_csv,
    radial_mask,
    sample_p1,
    sample_p2,
    save_mask_csv,
    with_band,
)
from oracles import rasterize_line

property_test = settings(derandomize=True, database=None, deadline=None)


def test_p1_counts_per_column():
    p = sample_p1(10, 12, 0.3, seed=0)
    assert np.all(p.mask.sum(axis=0) == 3)


def test_p1_full_ratio():
    assert np.all(sample_p1(5, 4, 1.0, seed=1).mask)


def test_p1_deterministic():
    a = sample_p1(20, 15, 0.4, seed=42)
    b = sample_p1(20, 15, 0.4, seed=42)
    assert np.array_equal(a.mask, b.mask)


def test_p1_rejects_bad_ratio():
    with pytest.raises(InputError):
        sample_p1(5, 5, 0.0, seed=0)
    with pytest.raises(InputError):
        sample_p1(5, 5, 1.2, seed=0)


def test_p2_column_structure():
    p = sample_p2(7, 10, 0.2, seed=3)
    sums = p.mask.sum(axis=0)
    assert np.all(np.isin(sums, [0, 7]))
    assert (sums == 7).sum() == 2


def test_p2_full_ratio():
    assert np.all(sample_p2(3, 6, 1.0, seed=0).mask)


def test_cartesian_row_budget_408_by_20x():
    p = cartesian_mask(408, 8, 2, accel=20.0, band=4, seed=0)
    frame = p.mask[:, 0].reshape(408, 8, order="F")
    sampled_rows = np.where(frame.all(axis=1))[0]
    assert len(sampled_rows) == 21  # ceil(408 / 20)
    assert set(band_rows(408, 4)) <= set(sampled_rows)


def test_cartesian_full_sampling():
    p = cartesian_mask(8, 4, 2, accel=1.0, band=2, seed=0)
    assert np.all(p.mask)


def test_cartesian_frames_differ():
    p = cartesian_mask(32, 4, 6, accel=4.0, band=2, seed=5)
    cols = [tuple(p.mask[:, t]) for t in range(6)]
    assert len(set(cols)) > 1


def test_cartesian_band_exceeding_budget_rejected():
    with pytest.raises(InputError):
        cartesian_mask(32, 4, 2, accel=32.0, band=4, seed=0)


def test_cartesian_rows_fully_observed():
    p = cartesian_mask(16, 6, 3, accel=4.0, band=2, seed=2)
    for t in range(3):
        frame = p.mask[:, t].reshape(16, 6, order="F")
        rows = frame.any(axis=1)
        assert np.array_equal(frame[rows], np.ones((rows.sum(), 6), dtype=bool))


def test_rasterize_horizontal_line_is_center_row():
    frame = rasterize_line(5, 5, 0.0)
    expected = np.zeros((5, 5), dtype=bool)
    expected[2, :] = True
    assert np.array_equal(frame, expected)


def test_radial_single_line_center_row():
    p = radial_mask(5, 5, 1, accel=5.0, seed=0)  # one line, first angle is 0
    frame = p.mask[:, 0].reshape(5, 5, order="F")
    expected = np.zeros((5, 5), dtype=bool)
    expected[2, :] = True
    assert np.array_equal(frame, expected)


def test_radial_line_count_at_16x():
    assert lines_per_frame(408, 16.0) == 26
    p = radial_mask(32, 32, 2, accel=16.0, seed=0)
    # two lines per frame sharing the center pixel
    assert p.mask[:, 0].sum() < 2 * 4 * 32


def test_radial_center_overlap():
    p = radial_mask(9, 9, 1, accel=3.0, seed=0)  # three lines through center
    frame = p.mask[:, 0].reshape(9, 9, order="F")
    step = math.radians(GOLDEN_ANGLE_DEG)
    pixel_sum = sum(rasterize_line(9, 9, i * step).sum() for i in range(3))
    assert frame.sum() < pixel_sum  # lines share at least the center pixel


def _radial_reference(i1, i2, i3, accel):
    """The mask drawn one spoke at a time: each frame the OR of its spokes."""
    lines = math.ceil(i1 / accel)
    step = math.radians(GOLDEN_ANGLE_DEG)
    mask = np.zeros((i1 * i2, i3), dtype=bool)
    for t in range(i3):
        frame = np.zeros((i1, i2), dtype=bool)
        for j in range(lines):
            frame |= rasterize_line(i1, i2, (t * lines + j) * step)
        mask[:, t] = frame.ravel(order="F")
    return mask


@property_test
@given(i1=st.integers(1, 24), i2=st.integers(1, 24), i3=st.integers(1, 4),
       accel=st.one_of(st.just(1.0), st.floats(1.0, 30.0)), at_i1=st.booleans())
@example(i1=5, i2=5, i3=3, accel=1.0, at_i1=True)  # one spoke a frame
@example(i1=7, i2=4, i3=3, accel=2.0, at_i1=False)
@example(i1=64, i2=64, i3=4, accel=8.0, at_i1=False)  # dmri-radial's frames
def test_radial_mask_equals_its_spokes_or(i1, i2, i3, accel, at_i1):
    # odd and even sides; accel 1 draws I1 spokes a frame, accel I1 one spoke
    accel = float(i1) if at_i1 else accel
    assert np.array_equal(radial_mask(i1, i2, i3, accel, seed=0).mask,
                          _radial_reference(i1, i2, i3, accel))


def test_radial_mask_holds_one_frame_of_spokes_at_a_time():
    # an array over every frame's spokes would be i3 = 32 times one frame's
    i1 = i2 = 96
    frame_bytes = 8 * lines_per_frame(i1, 2.0) * (4 * i1 + 1)  # int64 samples
    tracemalloc.start()
    try:
        mask = radial_mask(i1, i2, 32, 2.0, seed=0).mask
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - mask.nbytes < 8 * frame_bytes


@pytest.mark.parametrize("accel", [math.inf, math.nan, 0.5])
def test_both_builders_reject_an_acceleration_below_1_or_not_finite(accel):
    # inf passed the old `accel >= 1` check and drew ceil(I1 / inf) = 0 lines
    with pytest.raises(InputError, match=f"acceleration must be a finite number >= 1, got {accel}"):
        radial_mask(16, 16, 4, accel, seed=0)
    for band in (0, 2):
        with pytest.raises(InputError, match=f"acceleration .* got {accel}"):
            cartesian_mask(16, 16, 4, accel, band, seed=0)


@pytest.mark.parametrize("bad", [2.5, True])
@pytest.mark.parametrize("make, name", [
    (lambda n: sample_p1(n, 4, 0.5, 0), "n_rows"),
    (lambda n: sample_p2(4, n, 0.5, 0), "n_cols"),
    (lambda n: cartesian_mask(8, 8, n, 2.0, 2, 0), "i3"),
    (lambda n: radial_mask(8, n, 2, 2.0, 0), "i2"),
], ids=["p1", "p2", "cartesian", "radial"])
def test_generators_reject_a_size_that_is_not_an_integer(make, name, bad):
    # a float or bool size ended in a numpy TypeError
    with pytest.raises(InputError, match=f"^{name} must be an integer of at least 1, got {bad}"):
        make(bad)


def test_radial_frames_vary():
    p = radial_mask(16, 16, 4, accel=8.0, seed=0)
    cols = [tuple(p.mask[:, t]) for t in range(4)]
    assert len(set(cols)) > 1


def test_with_band_adds_center_rows():
    p = radial_mask(16, 8, 3, accel=16.0, seed=0)
    banded = with_band(p, 16, 8, 2)
    flat = np.zeros((16, 8), dtype=bool)
    flat[band_rows(16, 2), :] = True
    for t in range(3):
        frame = banded.mask[:, t].reshape(16, 8, order="F")
        assert np.all(frame[flat])
    assert np.all(banded.mask[p.mask])


def test_apply_full_and_empty():
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((4, 5))
    full = sample_p1(4, 5, 1.0, seed=0)
    assert np.array_equal(apply_sampling(full, Y), Y)
    empty = dataclasses.replace(full, mask=~full.mask)
    assert np.all(apply_sampling(empty, Y) == 0)


def test_partition_and_idempotence():
    rng = np.random.default_rng(8)
    Y = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
    p = sample_p1(6, 7, 0.4, seed=1)
    c = dataclasses.replace(p, mask=~p.mask)
    assert np.array_equal(p.mask ^ c.mask, np.ones_like(p.mask))
    assert np.array_equal(apply_sampling(p, Y) + apply_sampling(c, Y), Y)
    once = apply_sampling(p, Y)
    assert np.array_equal(apply_sampling(p, once), once)


def test_apply_never_reads_missing_entries():
    Y = np.array([[1.0, np.nan], [np.inf, 2.0]])
    mask = np.array([[True, False], [False, True]])
    from mkimpute.sampling import SamplingPattern
    p = SamplingPattern(mask)
    out = apply_sampling(p, Y)
    assert np.array_equal(out, [[1.0, 0.0], [0.0, 2.0]])


def test_apply_shape_mismatch():
    p = sample_p1(3, 3, 0.5, seed=0)
    with pytest.raises(InputError):
        apply_sampling(p, np.zeros((4, 3)))


def test_mask_csv_round_trip(tmp_path):
    p = sample_p2(6, 9, 0.3, seed=7)
    path = tmp_path / "mask.csv"
    save_mask_csv(p, path)
    back = load_mask_csv(path)
    assert np.array_equal(back.mask, p.mask)


@pytest.mark.parametrize("value,message", [
    ("2", "0 or 1"), ("-3", "0 or 1"), ("0.5", "0 or 1"), ("x", "unreadable"),
])
def test_mask_csv_rejects_values_other_than_0_and_1(tmp_path, value, message):
    path = tmp_path / "mask.csv"
    path.write_text(f"1,0,1\n0,{value},1\n")
    with pytest.raises(DataError, match=message):
        load_mask_csv(path)
