"""The benchmark's four workloads: inputs built from a seed through
mkimpute's public functions, one operation per call, and the correctness
gates each operation must pass.

Every layer is reached through a module attribute (``solver.solve``,
``navigators.select_landmarks``, ...), so the traced run can wrap it.
Why each workload exists and what it stresses is in README.md.
"""

from __future__ import annotations

import csv
import hashlib
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mkimpute import experiments, graphs, kernels, metrics, mri, navigators, sampling, solver
from mkimpute.model import ModelDims, SolverConfig

FIXTURE_SEED = 0  # the acceptance fixtures' sampling and init seed
TVGS_DATA_SEED = 7  # the acceptance fixture's graph and signal
RECORDED_TVGS_MAE = 0.0054  # criterion 8's recorded threshold, tests/test_acceptance.py
SWEEP_MODELS = ("mmf", "nbp", "krg", "kgl")

# Problem sizes per profile.  "full" is the fixture as the acceptance suite
# and the workload definitions state it; "bench" shortens the two slow solves
# and the sweep so one operation takes about two seconds and a timed run
# holds several; "tiny" is for the smoke test.
PROFILES = {
    "tvgs-accept": {
        "full": {"nodes": 50, "times": 80, "landmarks": 20, "kernels": "median",
                 "lambda1": 1e-3, "iters": 100, "mae_gate": RECORDED_TVGS_MAE * 1.25},
        "bench": {"nodes": 50, "times": 80, "landmarks": 20, "kernels": "median",
                  "lambda1": 1e-3, "iters": 8},
        "tiny": {"nodes": 12, "times": 16, "landmarks": 5, "kernels": "median",
                 "lambda1": 1e-3, "iters": 2},
    },
    "tvgs-multikernel": {
        "full": {"nodes": 80, "times": 160, "landmarks": 40, "kernels": "default7",
                 "lambda1": 0.0, "iters": 40},
        "bench": {"nodes": 80, "times": 160, "landmarks": 40, "kernels": "default7",
                  "lambda1": 0.0, "iters": 3},
        "tiny": {"nodes": 40, "times": 64, "landmarks": 12, "kernels": "default7",
                 "lambda1": 0.0, "iters": 2},
    },
    "dmri-radial": {
        "full": {"frame": (64, 64, 24), "landmarks": 16, "iters": 50},
        "bench": {"frame": (64, 64, 24), "landmarks": 16, "iters": 50},
        "tiny": {"frame": (32, 32, 8), "landmarks": 8, "iters": 10},
    },
    "baseline-sweep": {
        "full": {"nodes": 40, "times": 64, "iters": 30},
        "bench": {"nodes": 32, "times": 48, "iters": 15},
        "tiny": {"nodes": 10, "times": 12, "iters": 2},
    },
}

@dataclass
class Outcome:
    """What one operation produced: an output digest for the repeat check,
    quality against ground truth, and every gate it failed."""

    digest: str
    quality: dict[str, float]
    problems: list[str] = field(default_factory=list)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# graph-signal solves
# ---------------------------------------------------------------------------

def _build_tvgs(p: dict, seed: int) -> dict:
    # The signal and graph stay the fixture's; the seed draws the sampling
    # mask, the landmark tie-breaks and the initial factors.
    n, t = p["nodes"], p["times"]
    Y, coords = experiments.make_tvgs_synthetic(n, t, 3, 5, seed=TVGS_DATA_SEED)
    graph = graphs.build_graph_operators(coords, 5, 0.1, 1.0, t)
    pattern = sampling.sample_p1(n, t, 0.3, seed=seed)
    nav = navigators.form_navigators_tvgs(Y, pattern, "nav1")
    lmk = navigators.select_landmarks(nav, p["landmarks"], "maxmin", seed)
    if p["kernels"] == "default7":
        specs = kernels.default_kernel_dictionary(lmk.points)
    else:
        specs = [kernels.median_distance_gaussian(lmk.points)]
    dims = ModelDims(n, t, lmk.count, len(specs), 2, (5,))
    config = SolverConfig(lambda1=p["lambda1"], lambda2=1e-3, lambda_L=0.1, zeta=0.2,
                          outer_iters=p["iters"], tol_objective=0.0, seed=seed)
    return {"seed": seed, "Y": Y, "graph": graph, "pattern": pattern, "landmarks": lmk,
            "specs": specs, "dims": dims, "config": config}


def _run_tvgs(p: dict, inp: dict) -> Outcome:
    Y, mask = inp["Y"], inp["pattern"].mask
    X, _model, report = solver.solve(solver.TVGS, Y, inp["pattern"], inp["graph"],
                                     inp["landmarks"], inp["specs"], inp["dims"],
                                     inp["config"])
    quality = {"mae": metrics.mae(X, Y), "nrmse": metrics.nrmse(X, Y)}
    zero_fill_mae = metrics.mae(np.where(mask, Y, 0), Y)
    problems = []
    if report.iterations != p["iters"]:
        problems.append(f"ran {report.iterations} of {p['iters']} iterations")
    if max(report.consistency) != 0.0:
        problems.append(f"sampled-entry residual {max(report.consistency):.3e} is not 0")
    if max(report.affine_residual) > 1e-8:
        problems.append(f"affine residual {max(report.affine_residual):.3e} > 1e-8")
    if not quality["mae"] < zero_fill_mae:
        problems.append(f"MAE {quality['mae']:.6g} not below zero-fill's {zero_fill_mae:.6g}")
    if "mae_gate" in p and inp["seed"] == FIXTURE_SEED and quality["mae"] > p["mae_gate"]:
        problems.append(f"fixture MAE {quality['mae']:.6g} above the recorded gate "
                        f"{p['mae_gate']:.6g}")
    return Outcome(_digest(X), quality, problems)


# ---------------------------------------------------------------------------
# k-space solve
# ---------------------------------------------------------------------------

def _build_dmri(p: dict, seed: int) -> dict:
    # The phantom is deterministic; the seed draws the radial angles, the
    # landmark tie-breaks and the initial factors.
    i1, i2, i3 = p["frame"]
    ds = mri.make_phantom(i1, i2, i3)
    pattern = sampling.with_band(sampling.radial_mask(i1, i2, i3, accel=8.0, seed=seed),
                                 i1, i2, 2)
    observed = np.where(pattern.mask, ds.kspace, 0)
    scale = float(np.abs(observed).max())
    Yn = ds.kspace / scale
    nav = navigators.form_navigators_dmri(np.where(pattern.mask, Yn, 0), pattern, i1, i2, 2)
    lmk = navigators.select_landmarks(nav, p["landmarks"], "maxmin", seed)
    specs = [kernels.median_distance_gaussian(lmk.points)]
    dims = ModelDims(i1 * i2, i3, lmk.count, 1, 2, (4,))
    config = SolverConfig(lambda1=1e-4, lambda2=2.0, lambda3=0.005, lambda4=1e-3,
                          tau_Z=0.05, outer_iters=p["iters"], tol_objective=0.0, seed=seed)
    return {"seed": seed, "truth": ds.ground_truth_image, "observed": observed,
            "scale": scale, "Yn": Yn, "pattern": pattern, "landmarks": lmk,
            "specs": specs, "dims": dims, "config": config}


def _run_dmri(p: dict, inp: dict) -> Outcome:
    i1, i2, i3 = p["frame"]
    Xn, _model, report = solver.solve(solver.DMRI, inp["Yn"], inp["pattern"], (i1, i2, i3),
                                      inp["landmarks"], inp["specs"], inp["dims"],
                                      inp["config"])
    X = Xn * inp["scale"]
    truth = inp["truth"]
    quality = {"mae": metrics.mae(X, truth), "nrmse": metrics.nrmse(X, truth)}
    zero_fill = mri.ifft2_frames(inp["observed"], i1, i2)
    zf_nrmse = metrics.nrmse(zero_fill, truth)
    problems = []
    if report.iterations != p["iters"]:
        problems.append(f"ran {report.iterations} of {p['iters']} iterations")
    if max(report.consistency) > 1e-10:
        problems.append(f"k-space consistency residual {max(report.consistency):.3e} > 1e-10")
    if max(report.affine_residual) > 1e-8:
        problems.append(f"affine residual {max(report.affine_residual):.3e} > 1e-8")
    if not zf_nrmse >= 1.5 * quality["nrmse"]:
        problems.append(f"zero-fill NRMSE {zf_nrmse:.6g} is less than 1.5x the "
                        f"model's {quality['nrmse']:.6g}")
    if not quality["mae"] < metrics.mae(zero_fill, truth):
        problems.append("MAE not below zero-fill's")
    return Outcome(_digest(X), quality, problems)


# ---------------------------------------------------------------------------
# baseline sweep
# ---------------------------------------------------------------------------

SWEEP_METHODS = SWEEP_MODELS + ("zero-fill", "mean-fill")
SWEEP_RATIOS = (0.2, 0.4)


def _build_sweep(p: dict, seed: int) -> dict:
    # run_experiment builds its data, graph and masks itself; the set-up
    # resolves the spec and builds the same inputs once, the cost a caller
    # preparing this sweep pays.
    spec = {
        "problem": "tvgs",
        "data": {"source": "synthetic", "nodes": p["nodes"], "times": p["times"],
                 "seed": TVGS_DATA_SEED},
        "sampling": {"kind": "p1", "ratios": list(SWEEP_RATIOS)},
        "methods": list(SWEEP_METHODS),
        "baseline": {"rank": 5, "depth": 2},
        "solver": {"lambda2": 1e-3, "lambda_L": 0.1, "zeta": 0.2, "outer_iters": p["iters"]},
        "repeats": 1,
        "base_seed": seed,
        "workers": 2,
    }
    resolved = experiments.resolve_spec(spec)
    data, g = resolved["data"], resolved["graph"]
    _Y, coords = experiments.make_tvgs_synthetic(data["nodes"], data["times"], data["modes"],
                                                 data["knn"], data["seed"], data["offset"])
    graphs.build_graph_operators(coords, g["k"], g["eps"], g["beta"], data["times"])
    for i, ratio in enumerate(SWEEP_RATIOS):
        sampling.sample_p1(data["nodes"], data["times"], ratio, seed + i)
    return {"seed": seed, "spec": spec, "out_root": p["out_root"]}


def _run_sweep(p: dict, inp: dict) -> Outcome:
    Path(inp["out_root"]).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=inp["out_root"]) as out:
        rows = experiments.run_experiment(inp["spec"], out)
        with open(Path(out) / "results.csv", newline="") as fh:
            written = list(csv.DictReader(fh))
        errors_logged = (Path(out) / "errors.log").exists()
    problems = []
    cells = len(SWEEP_METHODS) * len(SWEEP_RATIOS)
    if errors_logged:
        problems.append("the sweep wrote errors.log")
    if len(rows) != cells:
        problems.append(f"{len(rows)} result rows, expected {cells}")
    if len(written) != 2 * cells or sum(r["seed"] == "mean" for r in written) != cells:
        problems.append(f"results.csv has {len(written)} rows, expected {cells} runs "
                        f"and {cells} means")
    by_cell = {(r["method"], r["ratio"]): r for r in rows}
    quality = {}
    for method in SWEEP_MODELS:
        for ratio in SWEEP_RATIOS:
            row, zf = by_cell.get((method, ratio)), by_cell.get(("zero-fill", ratio))
            if row is None or zf is None:
                problems.append(f"no result for {method} at ratio {ratio}")
            elif not row["mae"] < zf["mae"]:
                problems.append(f"{method} MAE {row['mae']:.6g} at ratio {ratio} "
                                f"not below zero-fill's {zf['mae']:.6g}")
        cells_m = [by_cell[(method, r)] for r in SWEEP_RATIOS if (method, r) in by_cell]
        if cells_m:
            quality[f"mae.{method}"] = float(np.mean([c["mae"] for c in cells_m]))
            quality[f"nrmse.{method}"] = float(np.mean([c["nrmse"] for c in cells_m]))
    if len(quality) == 2 * len(SWEEP_MODELS):
        quality["mae"] = float(np.mean([quality[f"mae.{m}"] for m in SWEEP_MODELS]))
        quality["nrmse"] = float(np.mean([quality[f"nrmse.{m}"] for m in SWEEP_MODELS]))
    table = sorted((r["method"], r["ratio"], r["seed"], repr(r["mae"]), repr(r["rmse"]),
                    repr(r["nrmse"])) for r in rows)
    digest = hashlib.sha256(repr(table).encode()).hexdigest()
    return Outcome(digest, quality, problems)


_FAMILIES = {
    "tvgs-accept": (_build_tvgs, _run_tvgs),
    "tvgs-multikernel": (_build_tvgs, _run_tvgs),
    "dmri-radial": (_build_dmri, _run_dmri),
    "baseline-sweep": (_build_sweep, _run_sweep),
}

# Layers each workload must reach; a traced run fails if one of them saw no
# call, so a refactor cannot make a layer silently read 0.
_SOLVER_LAYERS = ("solver.solve", "solver.update_X", "solver.update_factor",
                  "solver.update_B", "solver.extrapolate", "solver.diagnostics",
                  "model.predict", "kernels", "navigators", "sampling", "metrics")
EXPECTED_LAYERS = {
    "tvgs-accept": _SOLVER_LAYERS + ("graphs",),
    "tvgs-multikernel": _SOLVER_LAYERS + ("graphs",),
    "dmri-radial": _SOLVER_LAYERS + ("solver.update_Z", "mri.fft"),
    "baseline-sweep": ("experiments.run", "experiments.cell", "experiments.pool",
                       "baselines.mmf", "baselines.nbp", "baselines.krg", "baselines.kgl",
                       "baselines.x_solve", "metrics", "kernels", "graphs", "sampling"),
}


def params(workload: str, profile: str, out_root: Path) -> dict:
    p = dict(PROFILES[workload][profile])
    p["out_root"] = str(out_root)
    return p


def build(workload: str, p: dict, seed: int) -> dict:
    """The inputs of one operation, from the seed alone."""
    return _FAMILIES[workload][0](p, seed)


def run(workload: str, p: dict, inputs: dict) -> Outcome:
    """One operation: a solve or a sweep, checked."""
    return _FAMILIES[workload][1](p, inputs)
