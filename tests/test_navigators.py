import itertools

import numpy as np
import pytest

from mkimpute.errors import DataError, InputError
from mkimpute.graphs import build_graph_operators
from mkimpute.navigators import (
    FUZZY_CMEANS,
    KMEANS,
    MAXMIN,
    NAV1,
    NAV2,
    NAV3,
    NAV4,
    NavigatorSet,
    form_navigators_dmri,
    form_navigators_tvgs,
    select_landmarks,
)
from mkimpute.sampling import SamplingPattern, sample_p1, sample_p2, with_band, radial_mask


def _rng_data(n, t, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, t)) + 1.5  # keep entries away from zero


def test_nav1_p1_is_zero_filled_data():
    Y = _rng_data(4, 6)
    p = sample_p1(4, 6, 0.5, seed=0)
    nav = form_navigators_tvgs(Y, p, NAV1)
    assert nav.points.shape == (4, 6)
    assert np.array_equal(nav.points, np.where(p.mask, Y, 0))


def test_nav1_p2_drops_missing_snapshots():
    Y = _rng_data(5, 10)
    p = sample_p2(5, 10, 0.3, seed=1)  # 3 observed snapshots
    nav = form_navigators_tvgs(Y, p, NAV1)
    assert nav.points.shape == (5, 3)
    observed_cols = np.where(p.mask[0])[0]
    assert np.allclose(nav.points, Y[:, observed_cols])


def test_nav2_transpose():
    Y = _rng_data(4, 6)
    p = sample_p1(4, 6, 0.5, seed=2)
    nav = form_navigators_tvgs(Y, p, NAV2)
    assert nav.points.shape == (6, 4)
    assert np.array_equal(nav.points, np.where(p.mask, Y, 0).T)


def test_nav3_patch_dimensions():
    rng = np.random.default_rng(3)
    coords = rng.random((2, 6))
    graph = build_graph_operators(coords, 2, 0.1, 1.0, 9)
    Y = _rng_data(6, 9, seed=3)
    p = sample_p1(6, 9, 0.8, seed=3)
    nav = form_navigators_tvgs(Y, p, NAV3, graph=graph, delta_t=1)
    k = len(graph.neighbors[0])
    assert nav.points.shape[0] == k * 3
    assert nav.points.shape[1] <= 6 * (9 - 2)
    assert not np.any(np.all(nav.points == 0, axis=0))


def test_nav4_window_dimensions():
    Y = _rng_data(4, 6)
    p = sample_p1(4, 6, 0.9, seed=4)
    nav = form_navigators_tvgs(Y, p, NAV4, delta_t=1)
    assert nav.points.shape[0] == 4 * 3  # I0 * (2*dt + 1)
    assert nav.points.shape[1] <= 6 - 2  # I_N - 2*dt


def test_nav4_rejects_large_window():
    Y = _rng_data(4, 6)
    p = sample_p1(4, 6, 0.5, seed=5)
    with pytest.raises(InputError):
        form_navigators_tvgs(Y, p, NAV4, delta_t=3)


def test_empty_navigators_rejected():
    Y = np.zeros((3, 4))
    p = sample_p1(3, 4, 0.5, seed=0)
    with pytest.raises(DataError):
        form_navigators_tvgs(Y, p, NAV1)


def test_dmri_band_shape_408_by_360():
    i1, i2, i3 = 8, 408, 360
    rng = np.random.default_rng(6)
    ks = rng.standard_normal((i1 * i2, i3)) + 1j * rng.standard_normal((i1 * i2, i3))
    full = SamplingPattern(np.ones((i1 * i2, i3), dtype=bool))
    nav = form_navigators_dmri(ks, full, i1, i2, upsilon=4)
    assert nav.points.shape == (1632, 360)


def test_dmri_band_tiny():
    i1, i2, i3 = 8, 2, 3
    ks = np.arange(i1 * i2 * i3, dtype=complex).reshape(i1 * i2, i3)
    full = SamplingPattern(np.ones((i1 * i2, i3), dtype=bool))
    nav = form_navigators_dmri(ks, full, i1, i2, upsilon=1)
    assert nav.points.shape == (2, 3)


def test_dmri_band_values_match_frames():
    i1, i2, i3 = 16, 8, 16  # synthetic-phantom style geometry: 16x16 output
    rng = np.random.default_rng(7)
    ks = rng.standard_normal((i1 * i2, i3)) + 1j * rng.standard_normal((i1 * i2, i3))
    full = SamplingPattern(np.ones((i1 * i2, i3), dtype=bool))
    nav = form_navigators_dmri(ks, full, i1, i2, upsilon=2)
    assert nav.points.shape == (16, 16)
    frame0 = ks[:, 0].reshape(i1, i2, order="F")
    assert np.allclose(nav.points[:, 0], frame0[7:9, :].ravel(order="F"))


def test_dmri_band_width_bounds():
    i1, i2, i3 = 8, 4, 2
    ks = np.ones((i1 * i2, i3), dtype=complex)
    full = SamplingPattern(np.ones((i1 * i2, i3), dtype=bool))
    with pytest.raises(InputError):
        form_navigators_dmri(ks, full, i1, i2, upsilon=9)
    with pytest.raises(InputError):
        form_navigators_dmri(ks, full, i1, i2, upsilon=0)


def test_dmri_unsampled_band_rejected():
    i1, i2, i3 = 16, 8, 3
    rng = np.random.default_rng(8)
    ks = rng.standard_normal((i1 * i2, i3)) + 0j
    p = radial_mask(i1, i2, i3, accel=16.0, seed=0)  # band not guaranteed
    banded = with_band(p, i1, i2, 2)
    form_navigators_dmri(ks, banded, i1, i2, upsilon=2)  # fine with the band
    bad = SamplingPattern(p.mask & ~banded.mask)
    with pytest.raises(DataError):
        form_navigators_dmri(ks, bad, i1, i2, upsilon=2)


# ---------------------------------------------------------------------------
# landmarks
# ---------------------------------------------------------------------------

def _nav_from(points):
    return NavigatorSet(np.asarray(points, dtype=float))


def _columns_of(points, chosen):
    """Index of the navigator column each chosen landmark equals."""
    return [int(np.flatnonzero((points == c[:, None]).all(axis=0))[0]) for c in chosen.T]


def test_maxmin_exhaustive_selection():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((3, 5))
    lmk = select_landmarks(_nav_from(pts), 5, MAXMIN, seed=0)
    assert sorted(_columns_of(pts, lmk.points)) == [0, 1, 2, 3, 4]
    assert np.allclose(np.sort(lmk.points, axis=1), np.sort(pts, axis=1))


def test_maxmin_line_oracle():
    # brute-force oracle: the pair {0, 10} maximizes the min pairwise distance
    pts = np.array([[0.0, 1.0, 10.0]])
    best = max(
        itertools.combinations(range(3), 2),
        key=lambda pair: abs(pts[0, pair[0]] - pts[0, pair[1]]),
    )
    lmk = select_landmarks(_nav_from(pts), 2, MAXMIN, seed=0)
    assert set(_columns_of(pts, lmk.points)) == set(best) == {0, 2}


def test_maxmin_min_distance_monotone():
    rng = np.random.default_rng(10)
    pts = rng.standard_normal((4, 30))
    nav = _nav_from(pts)
    prev = np.inf
    for count in range(2, 12):
        lmk = select_landmarks(nav, count, MAXMIN, seed=0)
        sel = lmk.points
        dists = [
            np.linalg.norm(sel[:, i] - sel[:, j])
            for i in range(count) for j in range(i + 1, count)
        ]
        cur = min(dists)
        assert cur <= prev + 1e-12
        prev = cur


def test_kmeans_two_clusters_recovers_means():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 50)) * 0.01 + np.array([[5.0], [0.0], [0.0]])
    b = rng.standard_normal((3, 50)) * 0.01 - np.array([[5.0], [0.0], [0.0]])
    nav = _nav_from(np.concatenate([a, b], axis=1))
    lmk = select_landmarks(nav, 2, KMEANS, seed=1)
    got = sorted(lmk.points[0])
    assert got[0] == pytest.approx(b[0].mean(), abs=1e-6)
    assert got[1] == pytest.approx(a[0].mean(), abs=1e-6)


def test_fuzzy_cmeans_two_clusters():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 40)) * 0.01 + np.array([[4.0], [4.0]])
    b = rng.standard_normal((2, 40)) * 0.01 - np.array([[4.0], [4.0]])
    nav = _nav_from(np.concatenate([a, b], axis=1))
    lmk = select_landmarks(nav, 2, FUZZY_CMEANS, seed=2)
    got = sorted(lmk.points[0])
    assert got[0] == pytest.approx(b[0].mean(), abs=1e-3)
    assert got[1] == pytest.approx(a[0].mean(), abs=1e-3)


@pytest.mark.parametrize("strategy", [MAXMIN, KMEANS, FUZZY_CMEANS])
def test_selection_deterministic(strategy):
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((4, 25)) + 1j * rng.standard_normal((4, 25))
    nav = NavigatorSet(pts)
    a = select_landmarks(nav, 6, strategy, seed=5)
    b = select_landmarks(nav, 6, strategy, seed=5)
    assert np.array_equal(a.points, b.points)


def test_complex_centroids_round_trip():
    rng = np.random.default_rng(14)
    pts = rng.standard_normal((3, 20)) + 1j * rng.standard_normal((3, 20))
    nav = NavigatorSet(pts)
    lmk = select_landmarks(nav, 4, KMEANS, seed=3)
    assert np.iscomplexobj(lmk.points)
    assert lmk.points.shape == (3, 4)


def test_count_bounds():
    nav = _nav_from(np.ones((2, 3)))
    with pytest.raises(InputError):
        select_landmarks(nav, 4, MAXMIN, seed=0)
    with pytest.raises(InputError):
        select_landmarks(nav, 0, MAXMIN, seed=0)
