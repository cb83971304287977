"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

The two desk-scale recoveries execute twice with identical seeds inside their
fixtures; every downstream criterion reads the first run and the determinism
criterion compares the pair bit for bit.
"""

import time

import numpy as np
import pytest

from mkimpute.baselines import mean_fill
from mkimpute.experiments import make_tvgs_synthetic
from mkimpute.graphs import build_graph_operators
from mkimpute.kernels import median_distance_gaussian
from mkimpute.metrics import hfen, mae, mape, nrmse, rmse, ssim
from mkimpute.model import ModelDims, SolverConfig, count_unknowns, predict
from mkimpute.mri import fft2_frames, ifft2_frames, make_phantom
from mkimpute.navigators import form_navigators_dmri, form_navigators_tvgs, select_landmarks
from mkimpute.sampling import SamplingPattern, apply_sampling, radial_mask, sample_p1, with_band
from mkimpute.solver import (
    DMRI,
    TVGS,
    dmri_update_X,
    free_band_factor,
    observed_entries,
    sca_step_schedule,
    solve,
    tvgs_update_X,
    update_B,
)

from oracles import (
    b_subtask_smooth_gradient,
    block_basis,
    d_subtask_gradient,
    dense_b_oracle,
    dense_d_oracle,
    dense_dmri_x_oracle,
    dense_x_oracle,
    dmri_x_subtask_gradient,
    mmf_as_special_case_check,
    random_model,
    tvgs_update_D,
    x_subtask_gradient,
)

# thresholds recorded from the first certified run of criteria 8 and 9
RECORDED_TVGS_MAE = 0.0054
RECORDED_DMRI_NRMSE = 0.0929
RECORDED_DMRI_ZF_NRMSE = 0.2771


def _rel(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) /
                 max(np.linalg.norm(np.asarray(b)), 1e-30))


@pytest.fixture(scope="module")
def tvgs_run():
    Y, coords = make_tvgs_synthetic(50, 80, 3, 5, seed=7)
    graph = build_graph_operators(coords, 5, 0.1, 1.0, 80)
    pattern = sample_p1(50, 80, 0.3, seed=0)
    nav = form_navigators_tvgs(Y, pattern, "nav1")
    lmk = select_landmarks(nav, 20, "maxmin", 0)
    kspec = median_distance_gaussian(lmk.points)
    dims = ModelDims(50, 80, 20, 1, 2, (5,))
    config = SolverConfig(lambda1=1e-3, lambda2=1e-3, lambda_L=0.1, zeta=0.2,
                          outer_iters=100, tol_objective=0.0, seed=0)

    def run():
        t0 = time.perf_counter()
        X, model, report = solve(TVGS, Y, pattern, graph, lmk, [kspec], dims, config)
        return {"X": X, "report": report, "seconds": time.perf_counter() - t0}

    first, second = run(), run()
    return {"Y": Y, "pattern": pattern, "first": first, "second": second}


@pytest.fixture(scope="module")
def dmri_run():
    ds = make_phantom(32, 32, 16)
    pattern = with_band(radial_mask(32, 32, 16, accel=8.0, seed=0), 32, 32, 2)
    observed = np.where(pattern.mask, ds.kspace, 0)
    scale = float(np.abs(observed).max())
    Yn = ds.kspace / scale
    nav = form_navigators_dmri(np.where(pattern.mask, Yn, 0), pattern, 32, 32, 2)
    lmk = select_landmarks(nav, 12, "maxmin", 0)
    kspec = median_distance_gaussian(lmk.points)
    dims = ModelDims(1024, 16, 12, 1, 2, (4,))
    config = SolverConfig(lambda1=1e-4, lambda2=2.0, lambda3=0.005, lambda4=1e-3,
                          tau_Z=0.05, outer_iters=50, tol_objective=0.0, seed=0)

    def run():
        t0 = time.perf_counter()
        X, model, report = solve(DMRI, Yn, pattern, (32, 32, 16), lmk, [kspec],
                                 dims, config)
        return {"X": X * scale, "report": report, "seconds": time.perf_counter() - t0}

    first, second = run(), run()
    zf = ifft2_frames(observed, 32, 32)
    return {"truth": ds.ground_truth_image, "zero_fill": zf, "pattern": pattern,
            "observed": observed, "scale": scale, "first": first, "second": second}


def test_criterion_01_parameter_counts():
    t0 = time.perf_counter()
    got = (
        count_unknowns(ModelDims(166464, 360, 70, 1, 1, ())),
        count_unknowns(ModelDims(166464, 360, 70, 1, 2, (8,))),
        count_unknowns(ModelDims(166464, 360, 70, 1, 3, (2, 8))),
    )
    elapsed = time.perf_counter() - t0
    assert got == (11_677_680, 1_357_472, 358_704)
    assert elapsed < 1.0
    print(f"criterion 1 PASS: counts {got} exact in {elapsed * 1e3:.2f} ms")


def test_criterion_02_subtask_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = {"x": 0.0, "x_direct": 0.0, "d": 0.0, "b": 0.0, "kx": 0.0}
    shapes = [
        (5, 4, 2, 1, 1, ()), (6, 5, 3, 1, 2, (2,)), (7, 6, 4, 2, 2, (3,)),
        (8, 8, 3, 2, 3, (2, 2)), (6, 7, 4, 1, 3, (3, 2)),
    ]
    for trial in range(20):
        i0, i_n, n_l, m, q, inner = shapes[trial % len(shapes)]
        dims = ModelDims(i0, i_n, n_l, m, q, inner)
        model = random_model(dims, 100 + trial)
        Y = rng.standard_normal((i0, i_n))
        pattern = sample_p1(i0, i_n, 0.5, seed=trial)
        graph = build_graph_operators(rng.random((2, i0)), 2, 0.3, 1.0, i_n)
        X_prev = rng.standard_normal((i0, i_n))

        X_got, _ = tvgs_update_X(Y, pattern, predict(model), X_prev, graph, 0.7, 0.6,
                                 cg_tol=1e-13, cg_max=20000)
        X_ref = dense_x_oracle(Y, pattern.mask, predict(model), X_prev,
                               graph.L_sobolev, graph.delta, 0.7, 0.6)
        worst["x"] = max(worst["x"], _rel(X_got, X_ref))
        band = free_band_factor(pattern, graph, 0.7, 0.6)
        X_got, _ = tvgs_update_X(Y, pattern, predict(model), X_prev, graph, 0.7, 0.6, band=band)
        assert np.array_equal(X_got[pattern.mask], Y[pattern.mask])
        worst["x_direct"] = max(worst["x_direct"], _rel(X_got, X_ref))

        for layer in range(1, q + 1):
            D_got = tvgs_update_D(layer, Y, model, 0.4, 0.8)
            D_ref = dense_d_oracle(layer - 1, Y, model, 0.4, 0.8)
            for g, r in zip(D_got, D_ref):
                worst["d"] = max(worst["d"], _rel(g, r))

        B_blocks, _ = update_B(Y, model, 0.0, 1.0, inner_tol=1e-13, inner_max=8000)
        B_ref = dense_b_oracle(Y, model, 1.0)
        worst["b"] = max(worst["b"], _rel(np.concatenate(B_blocks, axis=0), B_ref))

        i1, i2, i3 = 2, max(2, i0 // 2), min(i_n, 6)
        kdims = ModelDims(i1 * i2, i3, n_l, m, q, inner)
        kmodel = random_model(kdims, 300 + trial, np.complex128)
        Yk = rng.standard_normal((i1 * i2, i3)) + 1j * rng.standard_normal((i1 * i2, i3))
        kmask = rng.random((i1 * i2, i3)) < 0.5
        kpat = SamplingPattern(kmask)
        Xp = rng.standard_normal((i1 * i2, i3)) + 1j * rng.standard_normal((i1 * i2, i3))
        Zh = rng.standard_normal((i1 * i2, i3)) + 1j * rng.standard_normal((i1 * i2, i3))
        K_got = ifft2_frames(dmri_update_X(observed_entries(kpat, Yk), predict(kmodel),
                                           fft2_frames(Xp, i1, i2), Zh, 0.9, 0.7, (i1, i2, i3)),
                             i1, i2)
        K_ref = dense_dmri_x_oracle(Yk, kmask, predict(kmodel), Xp, Zh, 0.9, 0.7,
                                    (i1, i2, i3))
        worst["kx"] = max(worst["kx"], _rel(K_got, K_ref))

    elapsed = time.perf_counter() - t0
    assert all(v <= 1e-8 for v in worst.values()), worst
    assert elapsed < 30.0
    print(f"criterion 2 PASS: worst relative errors {worst} in {elapsed:.1f} s")


def test_criterion_03_hard_consistency(tvgs_run, dmri_run):
    tv = tvgs_run["first"]["report"]
    km = dmri_run["first"]["report"]
    assert tv.iterations == 100
    assert km.iterations == 50
    assert max(tv.consistency) == 0.0
    assert max(km.consistency) <= 1e-10
    # the returned image itself, on the normalized data the solve saw
    mask = dmri_run["pattern"].mask
    K = fft2_frames(dmri_run["first"]["X"], 32, 32)
    returned = float(np.abs(K[mask] - dmri_run["observed"][mask]).max()) / dmri_run["scale"]
    assert returned <= 1e-10
    print(
        "criterion 3 PASS: sampled-entry residual 0 across 100 graph iterations, "
        f"max {max(km.consistency):.2e} across 50 k-space iterations, "
        f"{returned:.2e} at the returned image"
    )


def test_criterion_04_affine_constraint(tvgs_run, dmri_run):
    worst = max(max(tvgs_run["first"]["report"].affine_residual),
                max(dmri_run["first"]["report"].affine_residual))
    assert worst <= 1e-8
    print(f"criterion 4 PASS: affine residual max {worst:.2e} across both solves")


def test_criterion_05_mmf_reduction():
    t0 = time.perf_counter()
    dims = ModelDims(8, 9, 3, 1, 2, (3,))
    results = [mmf_as_special_case_check(dims, seed) for seed in range(5)]
    elapsed = time.perf_counter() - t0
    assert all(results)
    assert elapsed < 10.0
    print(f"criterion 5 PASS: 5/5 seeded reduction checks in {elapsed:.1f} s")


def test_criterion_06_step_schedule():
    for g0 in (1.0, 0.5):
        for zeta in (0.1, 0.5, 0.9):
            g = g0
            for _ in range(10_000):
                nxt = sca_step_schedule(g, zeta)
                assert nxt == g * (1.0 - zeta * g)  # exact per formula
                assert 0.0 < nxt < g
                g = nxt
    print("criterion 6 PASS: schedule strictly decreasing and positive for 1e4 "
          "steps on the {1,0.5}x{0.1,0.5,0.9} grid")


def test_criterion_07_gradient_checks():
    rng = np.random.default_rng(7)
    worst = 0.0

    def fd(f, X, h=1e-6):
        g = np.zeros_like(X)
        it = np.nditer(X, flags=["multi_index"])
        parts = ((1.0, 1.0), (1j, 1j)) if np.iscomplexobj(X) else ((1.0, 1.0),)
        while not it.finished:
            idx = it.multi_index
            for part, scale in parts:
                Xp, Xm = X.copy(), X.copy()
                Xp[idx] += h * part
                Xm[idx] -= h * part
                d = (f(Xp) - f(Xm)) / (2 * h)
                g[idx] += d * scale if np.iscomplexobj(X) else d
            it.iternext()
        return g

    for trial in range(10):
        graph = build_graph_operators(rng.random((2, 5)), 2, 0.3, 1.0, 4)
        ddt = graph.delta @ graph.delta.T
        target = rng.standard_normal((5, 4))
        anchor = rng.standard_normal((5, 4))
        X = rng.standard_normal((5, 4))
        g = x_subtask_gradient(X, target, anchor, graph.L_sobolev, graph.delta, 0.6, 0.5)
        num = fd(lambda mat: 0.5 * np.linalg.norm(mat - target) ** 2
                 + 0.3 * np.trace(mat.T @ graph.L_sobolev @ mat @ ddt)
                 + 0.25 * np.linalg.norm(mat - anchor) ** 2, X)
        worst = max(worst, _rel(num, g))

        dims = ModelDims(5, 4, 3, 2, 2, (2,))
        model = random_model(dims, 500 + trial)
        X_hat = rng.standard_normal((5, 4))
        blocks = [rng.standard_normal(model.factors[m][1].shape) for m in range(2)]
        grads = d_subtask_gradient(blocks, 1, X_hat, model, 0.3, 0.6)
        from mkimpute.solver import factor_wings
        lefts, rights = factor_wings(model, 1)

        def d_obj_for(which):
            def f(Dm):
                use = [Dm if mm == which else blocks[mm] for mm in range(2)]
                fit = sum(lefts[mm] @ use[mm] @ rights[mm] for mm in range(2)) - X_hat
                val = 0.5 * np.linalg.norm(fit) ** 2
                val += 0.15 * sum(np.linalg.norm(u) ** 2 for u in use)
                val += 0.3 * sum(np.linalg.norm(u - model.factors[mm][1]) ** 2
                                 for mm, u in enumerate(use))
                return val
            return f

        for m in range(2):
            worst = max(worst, _rel(fd(d_obj_for(m), blocks[m]), grads[m]))

        B = rng.standard_normal((6, 4))
        A = np.concatenate([block_basis(model, m) for m in range(2)], axis=1)
        gb = b_subtask_smooth_gradient(B, X_hat, model, 0.8)
        B_hat = np.concatenate(model.coeffs, axis=0)
        num_b = fd(lambda Bc: 0.5 * np.linalg.norm(X_hat - A @ Bc) ** 2
                   + 0.4 * np.linalg.norm(Bc - B_hat) ** 2, B)
        worst = max(worst, _rel(num_b, gb))

        Xc = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        tc = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        ac = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        zc = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        from mkimpute.mri import dft_temporal
        gk = dmri_x_subtask_gradient(Xc, tc, ac, zc, 0.9, 0.5)
        num_k = fd(lambda mat: 0.5 * np.linalg.norm(mat - tc) ** 2
                   + 0.45 * np.linalg.norm(zc - dft_temporal(mat)) ** 2
                   + 0.25 * np.linalg.norm(mat - ac) ** 2, Xc)
        worst = max(worst, _rel(num_k, gk))

    assert worst < 1e-5
    print(f"criterion 7 PASS: worst gradient mismatch {worst:.2e} over 10 "
          "instances per sub-task")


def test_criterion_08_tvgs_recovery(tvgs_run):
    Y, pattern = tvgs_run["Y"], tvgs_run["pattern"]
    run = tvgs_run["first"]
    main_mae = mae(run["X"], Y)
    zf_mae = mae(apply_sampling(pattern, Y), Y)
    mf_mae = mae(mean_fill(Y, pattern), Y)
    report = run["report"]
    assert main_mae < zf_mae
    assert main_mae < mf_mae
    assert report.objective[-1] < 0.5 * report.initial_objective
    assert run["seconds"] < 120.0
    assert main_mae <= RECORDED_TVGS_MAE * 1.25  # regression guard
    print(
        f"criterion 8 PASS: MAE {main_mae:.4f} vs zero-fill {zf_mae:.4f} / "
        f"mean-fill {mf_mae:.4f}; objective {report.initial_objective:.3g} -> "
        f"{report.objective[-1]:.3g}; {run['seconds']:.1f} s"
    )


def test_criterion_09_dmri_recovery(dmri_run):
    truth = dmri_run["truth"]
    run = dmri_run["first"]
    main = nrmse(run["X"], truth)
    zf = nrmse(dmri_run["zero_fill"], truth)
    assert zf / main >= 1.5
    assert run["seconds"] < 180.0
    assert main <= RECORDED_DMRI_NRMSE * 1.25  # regression guard
    print(
        f"criterion 9 PASS: NRMSE {main:.4f} vs zero-fill {zf:.4f} "
        f"(factor {zf / main:.2f}); {run['seconds']:.1f} s"
    )


def test_criterion_10_metric_formulas():
    X = np.random.default_rng(10).standard_normal((6, 6)) + 2.0
    assert mae(X, X) == 0.0 and rmse(X, X) == 0.0 and mape(X, X) == 0.0
    ones = np.ones((2, 2))
    assert mae(ones, np.zeros((2, 2))) == 1.0
    assert rmse(ones, np.zeros((2, 2))) == 1.0
    assert mape(3.0 * ones, 2.0 * ones) == pytest.approx(0.5)
    ref = np.random.default_rng(11).standard_normal((4, 4))
    assert nrmse(np.zeros_like(ref), ref) == pytest.approx(1.0)
    assert nrmse(1.1 * ref, ref) == pytest.approx(0.1)
    img = np.random.default_rng(12).random((20, 20))
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)
    assert hfen(img, img) == 0.0
    assert hfen(img + 1.0, img) == pytest.approx(0.0, abs=1e-10)
    print("criterion 10 PASS: all metric identities exact")


def test_criterion_11_determinism(tvgs_run, dmri_run):
    for label, pair in (("graph", tvgs_run), ("k-space", dmri_run)):
        a, b = pair["first"], pair["second"]
        assert np.array_equal(a["X"], b["X"]), label
        assert a["report"].objective == b["report"].objective, label
        assert a["report"].consistency == b["report"].consistency, label
        assert a["report"].affine_residual == b["report"].affine_residual, label
        assert a["report"].gammas == b["report"].gammas, label
        assert a["report"].b_inner_iters == b["report"].b_inner_iters, label
    print("criterion 11 PASS: repeated solves are bit-identical "
          "(timing columns aside)")


# B Newton steps over each recovery, recorded with every update's dual
# started at its lambda1 = 0 minimiser (267 from B_hat) and every iterate
# paying for the exact residual: a stop test that admits fewer iterates adds steps
RECORDED_B_NEWTON_STEPS = {"tvgs": 186, "dmri": 7}


def test_fixture_b_updates_meet_their_tolerance(tvgs_run, dmri_run):
    # every B update of both recoveries reaches inner_tol within its Newton
    # step cap: no cap warning, and the recorded residual is certified
    tol = SolverConfig().inner_tol
    for name, fixture in (("tvgs", tvgs_run), ("dmri", dmri_run)):
        report = fixture["first"]["report"]
        capped = [w for w in report.warnings if "B inner solve" in w]
        assert not capped, f"{name}: {len(capped)} B cap warnings, first {capped[0]!r}"
        assert len(report.b_residual) == report.iterations
        assert max(report.b_residual) <= tol
        steps = sum(report.b_inner_iters)
        print(f"{name}: {steps} Newton steps in "
              f"{report.iterations} B updates, worst residual {max(report.b_residual):.2e}")
        assert steps == RECORDED_B_NEWTON_STEPS[name]
