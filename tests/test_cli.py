import json

import numpy as np
import pytest

from mkimpute import solver
from mkimpute.cli import main
from mkimpute.experiments import make_tvgs_synthetic
from mkimpute.mri import load_kt
from mkimpute.sampling import load_mask_csv

TVGS_SPEC = {
    "problem": "tvgs",
    "data": {"source": "synthetic", "nodes": 14, "times": 16, "modes": 2,
             "knn": 3, "seed": 2},
    "sampling": {"kind": "p1", "ratios": [0.5]},
    "landmarks": {"strategy": "maxmin", "count": 5},
    "kernels": [{"kind": "gaussian", "sigma": "median"}],
    "dims": {"depth": 2, "inner": [2]},
    "solver": {"lambda1": 1e-3, "lambda2": 1e-3, "lambda_L": 0.02,
               "outer_iters": 5},
    "methods": ["mlkr", "zero-fill"],
}


CSV = {"source": "csv"}  # replaced by the block _csv_data writes


def _csv_data(tmp_path):
    """A csv data block over 14x16 synthetic data written to tmp_path."""
    Y, coords = make_tvgs_synthetic(14, 16, 2, 3, seed=2)
    np.savetxt(tmp_path / "y.csv", Y, delimiter=",")
    np.savetxt(tmp_path / "c.csv", coords.T, delimiter=",")
    return {"source": "csv", "data_path": str(tmp_path / "y.csv"),
            "coords_path": str(tmp_path / "c.csv")}


def test_run_subcommand(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TVGS_SPEC))
    out = tmp_path / "out"
    assert main(["run", str(spec_path), "--output", str(out)]) == 0
    assert (out / "results.csv").exists()
    assert "completed" in capsys.readouterr().out


def test_validate_subcommand(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TVGS_SPEC))
    assert main(["validate", str(spec_path)]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["problem"] == "tvgs"
    assert resolved["repeats"] == 1


def test_validate_bad_spec_machine_readable_error(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"problem": "nope"}))
    assert main(["validate", str(spec_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    payload = json.loads(err)
    assert payload["error"] == "InputError"
    assert "nope" in payload["message"]


def test_missing_file_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "error" in payload


def test_phantom_subcommand(tmp_path, capsys):
    out = tmp_path / "p.kt"
    assert main(["phantom", "16x16x8", str(out)]) == 0
    ds = load_kt(out)
    assert ds.dims == (16, 16, 8)
    assert ds.ground_truth_image is not None


def test_phantom_bad_dims(tmp_path, capsys):
    for dims in ("16x16", "32x32x8.5", "16x0x4", "16x-2x4", "16x16x"):
        assert main(["phantom", dims, str(tmp_path / "p.kt")]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"


@pytest.mark.parametrize("args", [
    ["mask", "p1", "OUT", "--rows", "-1"],
    ["mask", "p2", "OUT", "--cols", "0"],
    ["mask", "cartesian", "OUT", "--i2", "0"],
    ["mask", "radial", "OUT", "--frames", "-2"],
])
def test_mask_rejects_sizes_below_one(tmp_path, capsys, args):
    assert main([str(tmp_path / "m.csv") if a == "OUT" else a for a in args]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"


@pytest.mark.parametrize("args,rows,cols", [
    (["mask", "p1", "OUT", "--rows", "10", "--cols", "8", "--ratio", "0.3"], 10, 8),
    (["mask", "p2", "OUT", "--rows", "6", "--cols", "10", "--ratio", "0.5"], 6, 10),
    (["mask", "cartesian", "OUT", "--i1", "16", "--i2", "8", "--frames", "3",
      "--accel", "4", "--band", "2"], 16 * 8, 3),
    (["mask", "radial", "OUT", "--i1", "16", "--i2", "16", "--frames", "2",
      "--accel", "8"], 16 * 16, 2),
])
def test_mask_subcommand(tmp_path, args, rows, cols):
    out = tmp_path / "mask.csv"
    argv = [a if a != "OUT" else str(out) for a in args]
    assert main(argv) == 0
    pattern = load_mask_csv(out)
    assert pattern.mask.shape == (rows, cols)
    assert pattern.mask.sum() > 0


def test_p1_mask_counts_via_cli(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["mask", "p1", str(out), "--rows", "10", "--cols", "5",
                 "--ratio", "0.3", "--seed", "4"]) == 0
    mask = load_mask_csv(out).mask
    assert np.all(mask.sum(axis=0) == 3)


def test_validate_misspelt_solver_key_is_one_json_line(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"problem": "tvgs", "solver": {"lamda1": 0.1}}))
    assert main(["validate", str(spec_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "InputError"
    assert "lamda1" in payload["message"] and "solver" in payload["message"]


def test_validate_wrongly_typed_value_is_one_json_line(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"problem": "tvgs", "landmarks": {"count": "5"}}))
    assert main(["validate", str(spec_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "InputError"
    assert "count" in payload["message"] and "landmarks" in payload["message"]


@pytest.mark.parametrize("fields, key", [
    ({"kernels": [{"kind": "polynomial"}]}, "degree"),
    ({"data": {"source": "synthetic", "seed": -1}}, "seed"),
    ({"sampling": {"band": 4}}, "navigator.upsilon"),
    ({"problem": "dmri", "data": {"source": "phantom"},
      "sampling": {"kind": "radial", "ratios": [4.0]}, "missing_only_metrics": True},
     "missing_only_metrics"),
    ({"problem": "dmri", "data": {"source": "phantom", "i1": 16, "i2": 16, "i3": 8},
      "sampling": {"kind": "radial", "ratios": [4.0]}, "landmarks": {"count": 4}},
     "solver.lambda2"),
    ({"solver": {"seed": 5}}, "base_seed"),
    # an explicit id keeps a case's name stable where its match is a set-up
    # message, "spec block: constructor message"
    pytest.param({"graph": {"eps": 0.0}}, "graph: eps must be positive, got 0.0",
                 id="fields6-graph.eps"),
    ({"problem": "dmri", "data": {"source": "phantom", "i1": 16, "i2": 16, "i3": 8},
      "sampling": {"kind": "cartesian", "ratios": [4.0]}, "navigator": {"upsilon": 6},
      "landmarks": {"count": 4}, "solver": {"lambda2": 2.0}}, "navigator.upsilon"),
    pytest.param({"sampling": {"kind": "p2", "ratios": [0.1]}, "landmarks": {"count": 20},
                  "methods": ["mlkr", "zero-fill"]}, "landmarks: need 1 <= N_l <= 8, got 20",
                 id="fields8-landmarks.count"),
    # under p1 a nav3 patch whose neighbours are all unobserved in its window
    # is dropped: 325 of the 30 * 14 patches remain
    ({"data": {"source": "synthetic", "nodes": 30, "times": 16},
      "sampling": {"kind": "p1", "ratios": [0.1]}, "navigator": {"mode": "nav3", "delta_t": 1},
      "landmarks": {"count": 400}}, "landmarks: need 1 <= N_l <= 325, got 400"),
    ({"data": CSV, "landmarks": {"count": 10_000}}, "landmarks: need 1 <= N_l <= 16, got 10000"),
])
def test_validate_and_run_reject_specs_that_fail_every_cell(tmp_path, capsys, fields, key):
    if fields.get("data") is CSV:
        fields = {**fields, "data": _csv_data(tmp_path)}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"problem": "tvgs", **fields}))
    for argv in (["validate", str(spec_path)],
                 ["run", str(spec_path), "--output", str(tmp_path / "out")]):
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "InputError"
        assert key in payload["message"]


@pytest.mark.parametrize("fields, key", [
    # ids given as in the table above
    pytest.param({"data": {"source": "synthetic", "nodes": 12, "times": 16, "modes": 12}},
                 "data: modes must be below n_nodes = 12, got 12", id="fields0-data.modes"),
    ({"data": {"source": "synthetic", "nodes": 12, "times": 16},
      "methods": ["mlkr", "mmf"], "baseline": {"rank": 0}}, "baseline.rank"),
    pytest.param({"data": {"source": "synthetic", "nodes": 12, "times": 16},
                  "navigator": {"mode": "nav3", "delta_t": 8}},
                 "navigator: need 0 < delta_t < I_N/2 = 8.0, got 8",
                 id="fields2-navigator.delta_t"),
    pytest.param({"data": {"source": "synthetic", "nodes": 12, "times": 16},
                  "landmarks": {"count": 40}}, "landmarks: need 1 <= N_l <= 16, got 40",
                 id="fields3-landmarks.count"),
    ({"data": {"source": "synthetic", "nodes": 12, "times": 16},
      "methods": ["mlkr", "nbp"], "baseline": {"rank": 20}}, "baseline.rank"),
    pytest.param({"data": {"source": "synthetic", "nodes": 12, "times": 16},
                  "navigator": {"mode": "nav2"}, "landmarks": {"count": 13}},
                 "landmarks: need 1 <= N_l <= 12, got 13", id="fields5-landmarks.count"),
    pytest.param({"data": {"source": "synthetic", "nodes": 12, "times": 16},
                  "navigator": {"mode": "nav3", "delta_t": 3}, "landmarks": {"count": 121}},
                 "landmarks: need 1 <= N_l <= 120, got 121", id="fields6-landmarks.count"),
    pytest.param({"data": {"source": "synthetic", "nodes": 12, "times": 16},
                  "navigator": {"mode": "nav4", "delta_t": 3}, "landmarks": {"count": 11}},
                 "landmarks: need 1 <= N_l <= 10, got 11", id="fields7-landmarks.count"),
    # lambda2 > 0, or resolve_spec rejects the dmri engine before its set-up is built
    pytest.param({"problem": "dmri", "data": {"source": "phantom", "i1": 16, "i2": 16, "i3": 8},
                  "sampling": {"kind": "radial", "ratios": [4.0]}, "landmarks": {"count": 9},
                  "solver": {"lambda2": 2.0}}, "landmarks: need 1 <= N_l <= 8, got 9",
                 id="fields8-landmarks.count"),
    pytest.param({"data": {"source": "synthetic", "nodes": 4, "times": 16, "modes": 2,
                           "knn": 5}},
                 "data: need 1 <= knn < n_nodes = 4, got knn=5", id="fields9-data.knn"),
    # p1 at ratio 1 observes every node at every time: no entry is left to score
    pytest.param({"data": {"source": "synthetic", "nodes": 12, "times": 16},
                  "sampling": {"kind": "p1", "ratios": [0.3, 1.0]}, "landmarks": {"count": 5},
                  "missing_only_metrics": True},
                 "sampling, missing_only_metrics: ratio 1.0 observes every entry",
                 id="fields10-missing_only_metrics"),
])
def test_validate_and_run_reject_sizes_that_fail_at_run_time(tmp_path, capsys, fields, key):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"problem": "tvgs", **fields}))
    for argv in (["validate", str(spec_path)],
                 ["run", str(spec_path), "--output", str(tmp_path / "out")]):
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        payload = json.loads(err[0])
        assert payload["error"] == "InputError"
        assert key in payload["message"]


def test_run_with_failed_cells_exits_nonzero_and_names_the_log(tmp_path, capsys, monkeypatch):
    # a band cap of 0 bytes keeps the X update on CG, where cg_max applies
    monkeypatch.setattr(solver, "BAND_BYTE_CAP", 0)
    out = tmp_path / "out"
    stalls = tmp_path / "stalls.json"  # the set-up builds, then mlkr's X-update CG stalls
    stalls.write_text(json.dumps({**TVGS_SPEC, "solver": {**TVGS_SPEC["solver"], "cg_max": 1}}))
    assert main(["run", str(stalls), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.strip() == "completed 1 runs"  # zero-fill's; mlkr failed
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["failed_cells"] == 1
    assert payload["errors_log"] == str(out / "errors.log")
    assert "method=mlkr SolverError" in (out / "errors.log").read_text()
    # a clean run into the same directory drops the stale log and exits 0
    clean = tmp_path / "clean.json"
    clean.write_text(json.dumps(TVGS_SPEC))
    assert main(["run", str(clean), "--output", str(out)]) == 0
    assert not (out / "errors.log").exists()
