import csv
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkimpute import solver
from mkimpute.baselines import BaselineSpec, run_baseline
from mkimpute.errors import DataError, InputError
from mkimpute.experiments import (
    aggregate_rows,
    emit_results,
    load_tvgs_csv,
    make_tvgs_synthetic,
    resolve_spec,
    run_experiment,
    set_up,
)
from mkimpute.graphs import build_graph_operators
from mkimpute.metrics import mae
from mkimpute.model import SolverConfig
from mkimpute.sampling import sample_p1

TVGS_SPEC = {
    "problem": "tvgs",
    "data": {"source": "synthetic", "nodes": 16, "times": 18, "modes": 2,
             "knn": 4, "seed": 7},
    "sampling": {"kind": "p1", "ratios": [0.4]},
    "landmarks": {"strategy": "maxmin", "count": 6},
    "kernels": [{"kind": "gaussian", "sigma": "median"}],
    "dims": {"depth": 2, "inner": [3]},
    "solver": {"lambda1": 1e-3, "lambda2": 1e-3, "lambda_L": 0.05,
               "outer_iters": 8},
    "methods": ["mlkr", "zero-fill"],
    "repeats": 1,
    "base_seed": 3,
}


def test_load_tvgs_csv_round_trip(tmp_path):
    data = tmp_path / "data.csv"
    coords = tmp_path / "coords.csv"
    data.write_text("1,2,3\n4,5,6\n")
    coords.write_text("0.1,0.2\n0.3,0.4\n")
    Y, C = load_tvgs_csv(data, coords)
    assert np.array_equal(Y, [[1, 2, 3], [4, 5, 6]])
    assert C.shape == (2, 2)
    assert np.allclose(C[:, 0], [0.1, 0.2])


def test_load_tvgs_csv_node_id_column(tmp_path):
    data = tmp_path / "data.csv"
    coords = tmp_path / "coords.csv"
    data.write_text("1,2\n3,4\n5,6\n")
    coords.write_text("1,0.1,0.2\n2,0.3,0.4\n3,0.5,0.6\n")
    _, C = load_tvgs_csv(data, coords)
    assert C.shape == (2, 3)


def test_load_tvgs_csv_ragged_row_names_line(tmp_path):
    data = tmp_path / "data.csv"
    coords = tmp_path / "coords.csv"
    data.write_text("1,2,3\n4,5\n")
    coords.write_text("0,0\n1,1\n")
    with pytest.raises(DataError, match=":2"):
        load_tvgs_csv(data, coords)


def test_load_tvgs_csv_non_numeric_names_line(tmp_path):
    data = tmp_path / "data.csv"
    coords = tmp_path / "coords.csv"
    data.write_text("1,2\nx,4\n")
    coords.write_text("0,0\n1,1\n")
    with pytest.raises(DataError, match=":2"):
        load_tvgs_csv(data, coords)


def test_load_tvgs_csv_count_mismatch(tmp_path):
    data = tmp_path / "data.csv"
    coords = tmp_path / "coords.csv"
    data.write_text("1,2\n3,4\n")
    coords.write_text("0,0\n")
    with pytest.raises(DataError, match="rows"):
        load_tvgs_csv(data, coords)


def test_synthetic_generator_deterministic():
    a, ca = make_tvgs_synthetic(12, 14, 2, 3, seed=5)
    b, cb = make_tvgs_synthetic(12, 14, 2, 3, seed=5)
    assert np.array_equal(a, b)
    assert np.array_equal(ca, cb)
    assert a.shape == (12, 14)


@pytest.mark.parametrize("modes", [12, 20])
def test_synthetic_generator_rejects_modes_beyond_the_graph(modes):
    # mode j is eigenvector j + 1 of the 12-node graph's Laplacian
    with pytest.raises(InputError, match=f"modes must be below n_nodes = 12, got {modes}"):
        make_tvgs_synthetic(12, 16, modes=modes)


def test_resolve_spec_materializes_defaults():
    resolved = resolve_spec({"problem": "tvgs"})
    assert resolved["sampling"]["kind"] == "p1"
    assert resolved["repeats"] == 1
    assert resolved["data"]["nodes"] == 50
    # a resolved spec echoes sampling.band = 0 and must resolve again
    assert resolve_spec(resolved)["sampling"]["band"] == 0


def test_resolve_spec_rejects_unknown_fields():
    with pytest.raises(InputError):
        resolve_spec({"problem": "tvgs", "extra": 1})
    with pytest.raises(InputError):
        resolve_spec({"problem": "other"})
    with pytest.raises(InputError):
        resolve_spec({"problem": "tvgs", "methods": ["nbp", "bogus"]})
    with pytest.raises(InputError):
        resolve_spec({"problem": "dmri", "data": {"source": "phantom"},
                      "sampling": {"kind": "p1", "ratios": [8.0]}})


@pytest.mark.parametrize("key, value", [("lambda1", float("nan")), ("cg_tol", float("inf")),
                                        ("tau_B", float("-inf"))])
def test_resolve_spec_rejects_non_finite_solver_values(key, value):
    with pytest.raises(InputError, match=f"{key} must be finite"):
        resolve_spec({"problem": "tvgs", "solver": {key: value}})


def test_emit_results_header_only(tmp_path):
    path = tmp_path / "results.csv"
    emit_results([], path)
    assert path.read_text().strip() == (
        "method,ratio,seed,mae,rmse,mape,nrmse,ssim,hfen,seconds"
    )


def test_emit_results_writes_the_golden_text(tmp_path):
    # None is an empty field and a float its repr (17 digits where needed);
    # an integer ratio and seed "mean" are written as they are, with LF line ends
    path = tmp_path / "results.csv"
    rows = [{"method": "mlkr", "ratio": 4, "seed": 3, "mae": 0.1 + 0.2, "rmse": 1e-300,
             "mape": None, "nrmse": 2.5, "ssim": None, "hfen": None, "seconds": 1.0},
            {"method": "zero-fill", "ratio": 0.3, "seed": "mean", "mae": None, "rmse": 7.0,
             "hfen": 0.1, "seconds": 12.25}]
    emit_results(rows, path)
    assert path.read_bytes() == (
        b"method,ratio,seed,mae,rmse,mape,nrmse,ssim,hfen,seconds\n"
        b"mlkr,4,3,0.30000000000000004,1e-300,,2.5,,,1.0\n"
        b"zero-fill,0.3,mean,,7.0,,,,0.1,12.25\n")


def test_aggregate_rows_mean():
    rows = [
        {"method": "m", "ratio": 0.3, "seed": 1, "mae": 1.0, "rmse": 2.0,
         "mape": None, "nrmse": 0.5, "ssim": None, "hfen": None, "seconds": 1.0},
        {"method": "m", "ratio": 0.3, "seed": 2, "mae": 3.0, "rmse": 4.0,
         "mape": None, "nrmse": 1.5, "ssim": None, "hfen": None, "seconds": 2.0},
    ]
    agg = aggregate_rows(rows, ["m"], [0.3])
    assert len(agg) == 1
    assert agg[0]["seed"] == "mean"
    assert agg[0]["mae"] == pytest.approx(2.0)
    assert agg[0]["mape"] is None


def test_run_experiment_row_counts(tmp_path):
    spec = json.loads(json.dumps(TVGS_SPEC))
    spec["sampling"]["ratios"] = [0.3, 0.5]
    spec["repeats"] = 2
    rows = run_experiment(spec, output_dir=tmp_path)
    assert len(rows) == 2 * 2 * 2  # ratios x repeats x methods
    with open(tmp_path / "results.csv") as fh:
        lines = fh.read().strip().splitlines()
    # header + run rows + one aggregate per (method, ratio)
    assert len(lines) == 1 + 8 + 4
    assert (tmp_path / "spec.resolved.json").exists()


def test_run_experiment_reproducible_and_round_trips(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    run_experiment(json.loads(json.dumps(TVGS_SPEC)), output_dir=out1)
    # re-running the echoed resolved spec reproduces everything but timing
    with open(out1 / "spec.resolved.json") as fh:
        resolved = json.load(fh)
    run_experiment(resolved, output_dir=out2)

    def strip_seconds(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        return [row[:-1] for row in rows]

    assert strip_seconds(out1 / "results.csv") == strip_seconds(out2 / "results.csv")


def test_run_experiment_worker_pool_matches_serial(tmp_path):
    spec = json.loads(json.dumps(TVGS_SPEC))
    spec["sampling"]["ratios"] = [0.3, 0.5]
    serial = run_experiment(spec, output_dir=tmp_path / "serial")
    spec["workers"] = 4
    pooled = run_experiment(spec, output_dir=tmp_path / "pool")
    for a, b in zip(serial, pooled):
        for col in ("method", "ratio", "seed", "mae", "rmse"):
            assert a[col] == b[col]


def test_direct_kernel_baseline_call_matches_the_sweep(tmp_path):
    # the kernel baselines choose their own kernels, so a library call with
    # the cell's pattern, seed and config runs the sweep's baseline
    spec = {**json.loads(json.dumps(TVGS_SPEC)), "methods": ["nbp", "krg", "kgl"],
            "baseline": {"rank": 3}}
    rows = run_experiment(spec, output_dir=tmp_path)
    resolved = resolve_spec(spec)
    data, g = resolved["data"], resolved["graph"]
    Y, coords = make_tvgs_synthetic(data["nodes"], data["times"], data["modes"], data["knn"],
                                    data["seed"], data["offset"])
    graph = build_graph_operators(coords, g["k"], g["eps"], g["beta"], Y.shape[1])
    seed = resolved["base_seed"]
    pattern = sample_p1(*Y.shape, resolved["sampling"]["ratios"][0], seed)
    config = SolverConfig(**{**resolved["solver"], "seed": seed})
    assert [row["method"] for row in rows] == spec["methods"]
    for row in rows:
        X, _ = run_baseline(BaselineSpec(row["method"], rank=3), Y, pattern, graph, config)
        assert mae(X, Y) == row["mae"]


def test_run_experiment_dmri(tmp_path):
    spec = {
        "problem": "dmri",
        "data": {"source": "phantom", "i1": 16, "i2": 16, "i3": 8},
        "sampling": {"kind": "radial", "ratios": [4.0]},
        "navigator": {"upsilon": 2},
        "landmarks": {"strategy": "maxmin", "count": 6},
        "kernels": [{"kind": "gaussian", "sigma": "median"}],
        "dims": {"depth": 2, "inner": [3]},
        "solver": {"lambda1": 1e-4, "lambda2": 2.0, "lambda3": 0.005,
                   "lambda4": 1e-3, "tau_Z": 0.05, "outer_iters": 15},
        "methods": ["mlkr", "zero-fill"],
        "repeats": 1,
        "base_seed": 0,
    }
    rows = run_experiment(spec, output_dir=tmp_path)
    by_method = {r["method"]: r for r in rows}
    assert by_method["mlkr"]["nrmse"] < by_method["zero-fill"]["nrmse"]
    assert by_method["mlkr"]["ssim"] is not None
    assert by_method["mlkr"]["hfen"] is not None


def test_run_experiment_cartesian_band(tmp_path):
    spec = {
        "problem": "dmri",
        "data": {"source": "phantom", "i1": 16, "i2": 16, "i3": 8},
        "sampling": {"kind": "cartesian", "ratios": [2.0]},
        "navigator": {"upsilon": 2},
        "landmarks": {"strategy": "maxmin", "count": 5},
        "kernels": [{"kind": "gaussian", "sigma": "median"}],
        "dims": {"depth": 2, "inner": [2]},
        "solver": {"lambda1": 1e-4, "lambda2": 2.0, "lambda3": 0.005,
                   "lambda4": 1e-3, "tau_Z": 0.05, "outer_iters": 10},
        "methods": ["mlkr"],
        "repeats": 1,
        "base_seed": 1,
    }
    rows = run_experiment(spec, output_dir=tmp_path)
    assert rows and rows[0]["nrmse"] is not None


def test_metric_selection_filters_columns(tmp_path):
    spec = json.loads(json.dumps(TVGS_SPEC))
    spec["metrics"] = ["mae"]
    rows = run_experiment(spec, output_dir=tmp_path)
    for row in rows:
        assert row["mae"] is not None
        assert row["rmse"] is None


def test_failed_cell_recorded_not_fatal(tmp_path, monkeypatch):
    # a band cap of 0 bytes keeps the X update on CG, where cg_max applies
    monkeypatch.setattr(solver, "BAND_BYTE_CAP", 0)
    spec = json.loads(json.dumps(TVGS_SPEC))
    spec["solver"]["cg_max"] = 1  # the set-up builds, then mlkr's X-update CG stalls
    rows = run_experiment(spec, output_dir=tmp_path)
    assert [row["method"] for row in rows] == ["zero-fill"]
    assert (tmp_path / "errors.log").read_text().startswith(
        "cell ratio=0.4 repeat=0: method=mlkr SolverError: ")


def test_a_failing_method_keeps_the_other_methods_of_its_cell(tmp_path):
    # csv data: resolve_spec cannot bound nbp's rank before reading it
    Y, coords = make_tvgs_synthetic(12, 16, 2, 4, seed=7)
    np.savetxt(tmp_path / "y.csv", Y, delimiter=",")
    np.savetxt(tmp_path / "c.csv", coords.T, delimiter=",")
    spec = {"problem": "tvgs",
            "data": {"source": "csv", "data_path": str(tmp_path / "y.csv"),
                     "coords_path": str(tmp_path / "c.csv")},
            "sampling": {"kind": "p1", "ratios": [0.3]},
            "methods": ["zero-fill", "mean-fill", "nbp"], "baseline": {"rank": 40}}
    rows = run_experiment(spec, output_dir=tmp_path)
    assert [row["method"] for row in rows] == ["zero-fill", "mean-fill"]
    assert (tmp_path / "errors.log").read_text().splitlines() == [
        "cell ratio=0.3 repeat=0: method=nbp InputError: rank 40 exceeds min(I0, I_N) = 12"]


def test_a_failed_band_factorization_fails_each_graph_method_of_its_cell(tmp_path,
                                                                        monkeypatch):
    # the cell's graph methods share one band factor; when building it
    # raises, each of them records the error and the fills keep their rows
    tried = []

    def failing(band, *args, **kwargs):
        tried.append(band.shape)
        return band, 1

    monkeypatch.setattr(solver, "dpbtrf", failing)
    spec = {**json.loads(json.dumps(TVGS_SPEC)),
            "methods": ["mlkr", "zero-fill", "mmf", "krg", "mean-fill"]}
    rows = run_experiment(spec, output_dir=tmp_path)
    assert [row["method"] for row in rows] == ["zero-fill", "mean-fill"]
    assert len(tried) == 3  # each graph method builds it again
    (line,) = (tmp_path / "errors.log").read_text().splitlines()
    assert line.startswith("cell ratio=0.4 repeat=0: method=mlkr SolverError: "
                           "X-update band factorization failed: dpbtrf info 1")
    assert [part.split()[0] for part in line.split("; ")[1:]] == ["method=mmf", "method=krg"]


def test_errors_log_says_where_a_solver_stopped(tmp_path, monkeypatch):
    monkeypatch.setattr(solver, "BAND_BYTE_CAP", 0)  # CG, as above
    spec = json.loads(json.dumps(TVGS_SPEC))
    spec["solver"]["cg_max"] = 1  # the X-update CG cannot converge in one step
    rows = run_experiment(spec, output_dir=tmp_path)
    assert [row["method"] for row in rows] == ["zero-fill"]
    (line,) = (tmp_path / "errors.log").read_text().splitlines()
    assert line.startswith("cell ratio=0.4 repeat=0: method=mlkr SolverError: X-update CG stalled")
    assert re.search(r"\(iteration=1, residual=[0-9.e+-]+\)$", line)


def test_solver_warnings_reach_warnings_log(tmp_path):
    spec = json.loads(json.dumps(TVGS_SPEC))
    # started at the lambda1 = 0 minimiser, one Newton step meets the default
    # inner_tol: a tolerance in roundoff makes the B update hit its cap of one step
    spec["solver"].update(inner_max=1, inner_tol=1e-15)
    rows = run_experiment(spec, output_dir=tmp_path)
    lines = (tmp_path / "warnings.log").read_text().splitlines()
    assert len(rows) == 2 and len(lines) == 8  # mlkr warns in each of its 8 iterations
    assert all(line.startswith("method=mlkr ratio=0.4 repeat=0: iter ") for line in lines)
    assert "B inner solve hit the cap of 1 Newton steps" in lines[0]
    # a run without warnings into the same directory drops the stale log
    assert run_experiment(TVGS_SPEC, output_dir=tmp_path)
    assert not (tmp_path / "warnings.log").exists()


@pytest.mark.parametrize("block", ["solver", "sampling", "navigator", "landmarks",
                                   "dims", "baseline", "graph"])
def test_resolve_spec_rejects_unknown_block_keys(block):
    with pytest.raises(InputError, match=f"'typo' in the '{block}' block"):
        resolve_spec({"problem": "tvgs", block: {"typo": 1}})


@pytest.mark.parametrize("fields, key", [
    ({"data": {"source": "synthetic", "nodez": 10}}, "nodez"),
    ({"problem": "dmri", "data": {"source": "phantom", "i4": 8},
      "sampling": {"kind": "radial", "ratios": [4.0]}}, "i4"),
    ({"data": {"source": "csv", "data_path": "y.csv", "coords_path": "c.csv", "extra": 1}},
     "extra"),
])
def test_resolve_spec_rejects_unknown_data_keys(fields, key):
    # the keys a data block takes depend on its source
    with pytest.raises(InputError, match=f"^unknown key '{key}' in the 'data' block$"):
        resolve_spec({"problem": "tvgs", **fields})


@pytest.mark.parametrize("fields, key", [
    ({"landmarks": {"count": "5"}}, "'count' in the 'landmarks' block"),
    ({"solver": {"lambda1": "0.1"}}, "'lambda1' in the 'solver' block"),
    ({"solver": {"cg_max": 2.5}}, "'cg_max' in the 'solver' block"),
    ({"solver": {"outer_iters": True}}, "'outer_iters' in the 'solver' block"),
    ({"repeats": "2"}, "'repeats' in the spec"),
    ({"sampling": {"ratios": 0.3}}, "'ratios' in the 'sampling' block"),
    ({"dims": {"inner": [3.0]}}, "'inner' in the 'dims' block"),
    ({"data": {"source": "synthetic", "nodes": "16"}}, "'nodes' in the 'data' block"),
    ({"kernels": "default8"}, "'kernels' in the spec"),
])
def test_resolve_spec_rejects_values_of_the_wrong_type(fields, key):
    with pytest.raises(InputError, match=key):
        resolve_spec({"problem": "tvgs", **fields})


@pytest.mark.parametrize("problem, sampling, what", [
    ("tvgs", {"kind": "p1", "ratios": [0.4, 0.4]}, "sampling ratios"),
    ("tvgs", {"kind": "p2", "ratios": [0.3, 0.5, 0.3]}, "sampling ratios"),
    ("tvgs", {"kind": "p1", "ratios": [1, 1.0]}, "sampling ratios"),
    ("tvgs", {"kind": "p1", "ratios": []}, "sampling ratios"),
    ("dmri", {"kind": "radial", "ratios": [4.0, 4.0]}, "accelerations"),
    ("dmri", {"kind": "cartesian", "ratios": []}, "accelerations"),
])
def test_resolve_spec_rejects_repeated_or_empty_ratios(tmp_path, problem, sampling, what):
    # a repeated ratio ran two cells writing one trace file and put every
    # mean row twice in results.csv; no ratio completed 0 runs and exited 0
    data = {"source": "synthetic" if problem == "tvgs" else "phantom"}
    raw = {"problem": problem, "data": data, "sampling": sampling, "methods": ["zero-fill"]}
    message = (rf"sampling.ratios must list one or more distinct {what}, "
               rf"got \[{', '.join(map(str, sampling['ratios']))}\]$")
    with pytest.raises(InputError, match=message):
        resolve_spec(raw)
    with pytest.raises(InputError, match=message):
        run_experiment(raw, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_resolve_spec_accepts_numbers_and_null_where_defaults_allow():
    resolved = resolve_spec({"problem": "tvgs", "solver": {"lambda1": 1, "cg_max": None},
                             "graph": {"eps": 1}})
    assert resolved["solver"] == {"lambda1": 1, "cg_max": None}
    assert resolve_spec({"problem": "tvgs", "solver": {"cg_max": 40}})["solver"]["cg_max"] == 40
    assert resolve_spec({"problem": "tvgs", "kernels": "default7"})["kernels"] == "default7"


def test_resolve_spec_accepts_every_solver_field():
    resolved = resolve_spec({"problem": "tvgs", "solver": {"lambda1": 0.1, "seed": 0}})
    assert resolved["solver"] == {"lambda1": 0.1, "seed": 0}


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_load_tvgs_csv_non_finite_names_line(tmp_path, cell):
    data = tmp_path / "data.csv"
    coords = tmp_path / "coords.csv"
    data.write_text(f"1,2,3\n4,{cell},6\n")
    coords.write_text("0.1,0.2\n0.3,0.4\n")
    with pytest.raises(DataError, match=r"data\.csv:2: non-finite"):
        load_tvgs_csv(data, coords)


@pytest.mark.parametrize("fields, match", [
    ({"kernels": [{"kind": "polynomial"}]}, "kernel entry 0: 'degree'"),
    ({"kernels": [{"kind": "polynomial", "degree": 0}]}, "kernel entry 0: 'degree'"),
    ({"kernels": [{"kind": "polynomial", "degree": 1.5}]}, "kernel entry 0: 'degree'"),
    ({"kernels": [{"kind": "polynomial", "degree": True}]}, "kernel entry 0: 'degree'"),
    ({"kernels": [{"kind": "polynomial", "degree": 2, "intercept": "x"}]},
     "kernel entry 0: 'intercept'"),
    ({"kernels": [{"kind": "polynomial", "degree": 2, "intercept": float("nan")}]},
     "kernel entry 0: 'intercept'"),
    ({"kernels": [{"kind": "gaussian"}]}, "kernel entry 0: .*'sigma' and 'gamma'"),
    ({"kernels": [{"kind": "gaussian", "sigma": 0.4, "gamma": 3}]},
     "kernel entry 0: .*'sigma' and 'gamma'"),
    ({"kernels": [{"kind": "gaussian", "sigma": "wide"}]}, "kernel entry 0: 'sigma'"),
    ({"kernels": [{"kind": "gaussian", "sigma": 0}]}, "kernel entry 0: 'sigma'"),
    ({"kernels": [{"kind": "gaussian", "gamma": float("inf")}]}, "kernel entry 0: 'gamma'"),
    ({"kernels": [{"kind": "gaussian", "gamma": "median"}]}, "kernel entry 0: 'gamma'"),
    ({"kernels": [{"kind": "linear", "degree": 2}]}, "kernel entry 0: .*'degree'"),
    ({"kernels": [{"kind": "cubic"}]}, "kernel entry 0: 'kind'"),
    ({"kernels": [{"sigma": 0.4}]}, "kernel entry 0: 'kind'"),
    ({"kernels": [{"kind": "linear"}, {"kind": "gaussian", "sigma": -1}]},
     "kernel entry 1: 'sigma'"),
    ({"dims": {"depth": 3, "inner": [4, 0]}}, "inner"),
    ({"navigator": {"mode": "nav9"}}, "navigator mode"),
    ({"landmarks": {"strategy": "random"}}, "landmark strategy"),
    ({"base_seed": -1}, "base_seed"),
    ({"data": {"source": "synthetic", "seed": -1}}, "data.seed"),
    ({"solver": {"seed": -2}}, "seed"),
    ({"problem": "dmri", "data": {"source": "phantom", "seed": -1},
      "sampling": {"kind": "radial", "ratios": [4.0]}}, "data.seed"),
    ({"workers": 0}, "workers"),
    ({"workers": -3}, "workers"),
    ({"sampling": {"band": 2}}, "navigator.upsilon"),
    ({"problem": "dmri", "data": {"source": "phantom"},
      "sampling": {"kind": "radial", "ratios": [4.0], "band": 4}}, "navigator.upsilon"),
    ({"problem": "dmri", "data": {"source": "phantom"},
      "sampling": {"kind": "radial", "ratios": [4.0]}, "missing_only_metrics": True},
     "missing_only_metrics"),
    ({"problem": "dmri", "data": {"source": "phantom"}, "landmarks": {"count": 4},
      "sampling": {"kind": "radial", "ratios": [4.0]}}, "solver.lambda2"),
    ({"solver": {"seed": 5}}, "base_seed"),
    # an explicit id keeps a case's name stable where its match is a set-up
    # message, "spec block: constructor message"
    pytest.param({"graph": {"k": 0}}, "graph: need 1 <= k < 50, got k=0",
                 id="fields30-graph.k"),
    pytest.param({"data": {"source": "synthetic", "nodes": 12}, "graph": {"k": 12}},
                 "graph: need 1 <= k < 12, got k=12", id="fields31-graph.k"),
    pytest.param({"graph": {"eps": 0.0}}, "graph: eps must be a finite number > 0, got 0.0",
                 id="fields32-graph.eps"),
    pytest.param({"graph": {"beta": -1.0}}, "graph: beta must be a finite number > 0, got -1.0",
                 id="fields33-graph.beta"),
    ({"problem": "dmri", "data": {"source": "phantom", "i1": 16, "i2": 16, "i3": 8},
      "sampling": {"kind": "cartesian", "ratios": [2.0, 4.0]}, "navigator": {"upsilon": 6},
      "landmarks": {"count": 4}, "solver": {"lambda2": 2.0}}, "navigator.upsilon"),
    ({"problem": "dmri", "data": {"source": "phantom", "i1": 16, "i2": 16, "i3": 8},
      "sampling": {"kind": "radial", "ratios": [4.0]}, "navigator": {"upsilon": 17},
      "methods": ["zero-fill"]}, "navigator.upsilon"),
    ({"problem": "dmri", "data": {"source": "phantom"},
      "sampling": {"kind": "radial", "ratios": [4.0]}, "navigator": {"upsilon": 0},
      "landmarks": {"count": 4}, "solver": {"lambda2": 2.0}}, "navigator.upsilon"),
    # p2 observes ceil(80 * 0.1) = 8 whole snapshots, the most nav1 navigators
    pytest.param({"sampling": {"kind": "p2", "ratios": [0.1]}, "landmarks": {"count": 20},
                  "methods": ["mlkr", "zero-fill"]}, "landmarks: need 1 <= N_l <= 8, got 20",
                 id="fields37-landmarks.count"),
    pytest.param({"sampling": {"kind": "p2", "ratios": [0.5, 0.1]}, "landmarks": {"count": 9}},
                 "landmarks: need 1 <= N_l <= 8, got 9", id="fields38-landmarks.count"),
    # at 12x16 p2 observes ceil(16 * 0.1) = 2 snapshots; the cell's mask puts
    # them in 5 of the 14 windows of delta_t 1: 5 nav4 navigators, 12 * 5 nav3 ones
    pytest.param({"data": {"source": "synthetic", "nodes": 12, "times": 16},
                  "sampling": {"kind": "p2", "ratios": [0.1]},
                  "navigator": {"mode": "nav4", "delta_t": 1}, "landmarks": {"count": 6}},
                 "landmarks: need 1 <= N_l <= 5, got 6", id="fields39-at most the 5 navigators"),
    # the bound is the fewest of any cell: the ratio-0.1 cell (seed 1) gives 12 * 4
    pytest.param({"data": {"source": "synthetic", "nodes": 12, "times": 16},
                  "sampling": {"kind": "p2", "ratios": [0.5, 0.1]},
                  "navigator": {"mode": "nav3", "delta_t": 1}, "landmarks": {"count": 49}},
                 "landmarks: need 1 <= N_l <= 48, got 49",
                 id="fields40-at most the 48 navigators"),
    pytest.param({"data": {"source": "synthetic", "nodes": 12, "times": 16},
                  "sampling": {"kind": "p2", "ratios": [0.1]},
                  "navigator": {"mode": "nav3", "delta_t": 1}, "landmarks": {"count": 72}},
                 "landmarks: need 1 <= N_l <= 60, got 72",
                 id="fields41-at most the 60 navigators"),
    # with the workers cases above; appended, so that no case's index moves
    pytest.param({"repeats": 0}, "repeats must be an integer of at least 1, got 0",
                 id="fields42-repeats"),
])
def test_resolve_spec_rejects_fields_that_fail_every_cell(fields, match):
    # a size is checked by building the cell's inputs, the rest by resolve_spec
    with pytest.raises(InputError, match=match):
        set_up(resolve_spec({"problem": "tvgs", **fields}))


def test_resolve_spec_reads_missing_only_metrics_on_tvgs_alone():
    # the k-space mask does not index image entries, so dmri takes only false
    dmri = {"problem": "dmri", "data": {"source": "phantom"}, "methods": ["zero-fill"],
            "sampling": {"kind": "radial", "ratios": [4.0]}}
    assert resolve_spec({**dmri, "missing_only_metrics": False})["missing_only_metrics"] is False
    assert resolve_spec({"problem": "tvgs", "missing_only_metrics": True})["missing_only_metrics"]


SMALL_SYNTHETIC = {"source": "synthetic", "nodes": 12, "times": 16}
CSV = {"source": "csv"}  # replaced by the block _csv_data writes


def _csv_data(tmp_path):
    """A csv data block over 12x16 synthetic data written to tmp_path."""
    Y, coords = make_tvgs_synthetic(12, 16, 2, 4, seed=7)
    np.savetxt(tmp_path / "y.csv", Y, delimiter=",")
    np.savetxt(tmp_path / "c.csv", coords.T, delimiter=",")
    return {"source": "csv", "data_path": str(tmp_path / "y.csv"),
            "coords_path": str(tmp_path / "c.csv")}


@pytest.mark.parametrize("fields, match", [
    pytest.param({"data": {**SMALL_SYNTHETIC, "modes": 12}},
                 "data: modes must be below n_nodes = 12, got 12", id="fields0-data.modes"),
    pytest.param({"data": {**SMALL_SYNTHETIC, "modes": 20}},
                 "data: modes must be below n_nodes = 12, got 20", id="fields1-data.modes"),
    ({"baseline": {"rank": 0}}, "baseline.rank"),
    ({"baseline": {"depth": 0}}, "baseline.depth"),
    pytest.param({"navigator": {"mode": "nav3", "delta_t": 0}},
                 "navigator: need 0 < delta_t < I_N/2 = 40.0, got 0",
                 id="fields4-navigator.delta_t"),
    pytest.param({"data": SMALL_SYNTHETIC, "navigator": {"mode": "nav4", "delta_t": 8}},
                 "navigator: need 0 < delta_t < I_N/2 = 8.0, got 8",
                 id="fields5-navigator.delta_t"),
    pytest.param({"data": CSV, "navigator": {"mode": "nav3", "delta_t": -1}},
                 "navigator: need 0 < delta_t < I_N/2 = 8.0, got -1",
                 id="fields6-navigator.delta_t"),
    pytest.param({"data": {"source": "synthetic", "nodes": 4, "times": 16, "modes": 2,
                           "knn": 5}},
                 "data: need 1 <= knn < n_nodes = 4, got knn=5", id="fields7-data.knn"),
    # p1 at ratio 1 observes every node at every time: no entry is left to score
    pytest.param({"data": SMALL_SYNTHETIC, "sampling": {"kind": "p1", "ratios": [0.3, 1.0]},
                  "landmarks": {"count": 5}, "missing_only_metrics": True},
                 "sampling, missing_only_metrics: ratio 1.0 observes every entry",
                 id="fields8-missing_only_metrics"),
])
def test_resolve_spec_rejects_sizes_that_fail_at_run_time(tmp_path, fields, match):
    if fields.get("data") is CSV:
        fields = {**fields, "data": _csv_data(tmp_path)}
    with pytest.raises(InputError, match=match):
        set_up(resolve_spec({"problem": "tvgs", **fields}))


@pytest.mark.parametrize("fields, n_nav", [
    ({"navigator": {"mode": "nav1"}}, 16),
    ({"navigator": {"mode": "nav2"}}, 12),
    ({"navigator": {"mode": "nav3", "delta_t": 3}}, 12 * 10),
    ({"navigator": {"mode": "nav4", "delta_t": 3}}, 10),
    ({"problem": "dmri", "data": {"source": "phantom", "i3": 8},
      "sampling": {"kind": "radial", "ratios": [4.0]}, "solver": {"lambda2": 2.0}}, 8),
    ({"sampling": {"kind": "p2", "ratios": [0.5, 0.2]}}, 4),  # ceil(16 * 0.2) snapshots
])
def test_resolve_spec_bounds_landmarks_by_the_navigator_count(fields, n_nav):
    spec = {"problem": "tvgs", "data": SMALL_SYNTHETIC, **fields}
    _, _, cells = set_up(resolve_spec({**spec, "landmarks": {"count": n_nav}}))
    assert cells[0].landmarks.count == n_nav
    with pytest.raises(InputError, match=f"landmarks: need 1 <= N_l <= {n_nav}, got {n_nav + 1}"):
        set_up(resolve_spec({**spec, "landmarks": {"count": n_nav + 1}}))
    # only the engine uses landmarks
    methods = ["zero-fill"] if spec["problem"] == "dmri" else ["mmf", "zero-fill"]
    assert set_up(resolve_spec({**spec, "methods": methods, "landmarks": {"count": n_nav + 1}}))


def test_resolve_spec_accepts_the_widest_band_and_the_densest_graph():
    dmri = {"problem": "dmri", "data": {"source": "phantom", "i1": 16, "i2": 16, "i3": 8},
            "landmarks": {"count": 4}, "solver": {"lambda2": 2.0}}
    cartesian = {"kind": "cartesian", "ratios": [2.0, 4.0]}  # 4 rows a frame at a = 4
    assert set_up(resolve_spec({**dmri, "sampling": cartesian, "navigator": {"upsilon": 4}}))
    radial = {"kind": "radial", "ratios": [4.0]}
    assert set_up(resolve_spec({**dmri, "sampling": radial, "navigator": {"upsilon": 16}}))
    # without the engine neither the band nor lambda2 is needed
    assert set_up(resolve_spec({**dmri, "sampling": radial, "navigator": {"upsilon": 0},
                                "methods": ["zero-fill"], "solver": {}}))
    assert set_up(resolve_spec({"problem": "tvgs", "data": SMALL_SYNTHETIC,
                                "landmarks": {"count": 4}, "graph": {"k": 11}}))


def test_resolve_spec_bounds_the_nbp_rank_only_when_nbp_runs():
    spec = {"problem": "tvgs", "data": SMALL_SYNTHETIC, "landmarks": {"count": 5},
            "baseline": {"rank": 12}}
    assert resolve_spec({**spec, "methods": ["mlkr", "nbp"]})["baseline"]["rank"] == 12
    assert resolve_spec({**spec, "methods": ["mmf"], "baseline": {"rank": 13}})
    with pytest.raises(InputError, match="baseline.rank"):
        resolve_spec({**spec, "methods": ["nbp"], "baseline": {"rank": 13}})


def test_resolve_spec_accepts_the_largest_valid_sizes():
    spec = resolve_spec({"problem": "tvgs", "data": {**SMALL_SYNTHETIC, "modes": 11},
                         "navigator": {"mode": "nav4", "delta_t": 7},
                         "landmarks": {"count": 2},  # the two windows nav4 forms
                         "baseline": {"rank": 1, "depth": 1}})
    assert set_up(spec)
    assert spec["data"]["modes"] == 11 and spec["navigator"]["delta_t"] == 7


@st.composite
def _small_specs(draw):
    """Small specs of both problems whose sizes may or may not fit together."""
    spec = {"methods": draw(st.sampled_from([["mlkr"], ["zero-fill"], ["mlkr", "zero-fill"]])),
            "landmarks": {"strategy": draw(st.sampled_from(["maxmin", "kmeans", "fuzzy-cmeans"])),
                          "count": draw(st.integers(0, 12))},
            "kernels": draw(st.sampled_from([[{"kind": "gaussian", "sigma": "median"}],
                                             [{"kind": "polynomial", "degree": 2}], "default7"])),
            "dims": {"depth": 2, "inner": [draw(st.integers(1, 3))]},
            "solver": {"lambda1": 1e-3, "lambda2": 1.0, "lambda_L": 0.05, "outer_iters": 1},
            "base_seed": draw(st.integers(0, 5)),
            "repeats": draw(st.integers(1, 2))}
    if draw(st.booleans()):
        nodes = draw(st.integers(4, 12))
        ratios = st.lists(st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]), min_size=1, max_size=2)
        spec.update(problem="tvgs", missing_only_metrics=draw(st.booleans()),
                    data={"source": "synthetic", "nodes": nodes, "times": draw(st.integers(2, 12)),
                          "modes": draw(st.integers(1, 3)), "knn": draw(st.integers(1, 4))},
                    sampling={"kind": draw(st.sampled_from(["p1", "p2"])), "ratios": draw(ratios)},
                    navigator={"mode": draw(st.sampled_from(["nav1", "nav2", "nav3", "nav4"])),
                               "delta_t": draw(st.integers(-1, 5))},
                    graph={"k": draw(st.integers(1, nodes))})
    else:
        accels = st.lists(st.sampled_from([1.0, 2.0, 4.0, 8.0]), min_size=1, max_size=2)
        spec.update(problem="dmri",
                    data={"source": "phantom", "i1": draw(st.integers(8, 16)),
                          "i2": draw(st.integers(8, 16)), "i3": draw(st.integers(8, 10))},
                    sampling={"kind": draw(st.sampled_from(["cartesian", "radial"])),
                              "ratios": draw(accels)},
                    navigator={"upsilon": draw(st.integers(-1, 8))})
    return spec


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(spec=_small_specs())
def test_a_validated_spec_fails_in_no_cell_set_up(tmp_path_factory, spec):
    # validation is the set-up's build: it accepts, or it raises InputError or
    # DataError; an accepted spec's cells can then fail only in a method, and
    # none does here
    try:
        set_up(resolve_spec(spec))
    except (InputError, DataError):
        return
    out = tmp_path_factory.mktemp("drawn")
    rows = run_experiment(spec, output_dir=out)
    assert not (out / "errors.log").exists(), (out / "errors.log").read_text()
    assert len(rows) == len(spec["sampling"]["ratios"]) * spec["repeats"] * len(spec["methods"])


@pytest.mark.parametrize("spec", [
    # every other field at its default; the coupled factor CG met an
    # indefinite preconditioner ("p^H A p = -3.364e+01") in every cell
    pytest.param({"problem": "tvgs", "methods": ["mlkr"], "kernels": "default7"},
                 id="default7 at the defaults"),
    # the coupled factor CG stalled at relative residual 1.141e-06 after 700 steps
    pytest.param({"problem": "tvgs", "data": SMALL_SYNTHETIC,
                  "sampling": {"kind": "p2", "ratios": [0.5]},
                  "navigator": {"mode": "nav3", "delta_t": 2},
                  "landmarks": {"strategy": "kmeans", "count": 10}, "kernels": "default7",
                  "solver": {"outer_iters": 5}, "methods": ["mlkr"]},
                 id="default7 at 12x16 p2 nav3 kmeans"),
])
def test_default7_specs_write_their_mlkr_row(tmp_path, spec):
    rows = run_experiment(spec, output_dir=tmp_path)
    assert not (tmp_path / "errors.log").exists(), (tmp_path / "errors.log").read_text()
    assert [row["method"] for row in rows] == ["mlkr"]
    with open(tmp_path / "results.csv", newline="") as fh:
        written = [(row["method"], row["seed"]) for row in csv.DictReader(fh)]
    assert written == [("mlkr", "0"), ("mlkr", "mean")]
