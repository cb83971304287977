import json

import numpy as np
import pytest

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
    ({"graph": {"eps": 0.0}}, "graph.eps"),
    ({"problem": "dmri", "data": {"source": "phantom", "i1": 16, "i2": 16, "i3": 8},
      "sampling": {"kind": "cartesian", "ratios": [4.0]}, "navigator": {"upsilon": 6},
      "landmarks": {"count": 4}, "solver": {"lambda2": 2.0}}, "navigator.upsilon"),
    ({"sampling": {"kind": "p2", "ratios": [0.1]}, "landmarks": {"count": 20},
      "methods": ["mlkr", "zero-fill"]}, "landmarks.count"),
])
def test_validate_and_run_reject_specs_that_fail_every_cell(tmp_path, capsys, fields, key):
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
    ({"data": {"source": "synthetic", "nodes": 12, "times": 16, "modes": 12}}, "data.modes"),
    ({"data": {"source": "synthetic", "nodes": 12, "times": 16},
      "methods": ["mlkr", "mmf"], "baseline": {"rank": 0}}, "baseline.rank"),
    ({"data": {"source": "synthetic", "nodes": 12, "times": 16},
      "navigator": {"mode": "nav3", "delta_t": 8}}, "navigator.delta_t"),
    ({"data": {"source": "synthetic", "nodes": 12, "times": 16},
      "landmarks": {"count": 40}}, "landmarks.count"),
    ({"data": {"source": "synthetic", "nodes": 12, "times": 16},
      "methods": ["mlkr", "nbp"], "baseline": {"rank": 20}}, "baseline.rank"),
    ({"data": {"source": "synthetic", "nodes": 12, "times": 16},
      "navigator": {"mode": "nav2"}, "landmarks": {"count": 13}}, "landmarks.count"),
    ({"data": {"source": "synthetic", "nodes": 12, "times": 16},
      "navigator": {"mode": "nav3", "delta_t": 3}, "landmarks": {"count": 121}},
     "landmarks.count"),
    ({"data": {"source": "synthetic", "nodes": 12, "times": 16},
      "navigator": {"mode": "nav4", "delta_t": 3}, "landmarks": {"count": 11}},
     "landmarks.count"),
    ({"problem": "dmri", "data": {"source": "phantom", "i1": 16, "i2": 16, "i3": 8},
      "sampling": {"kind": "radial", "ratios": [4.0]}, "landmarks": {"count": 9}},
     "landmarks.count"),
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


def _csv_spec(tmp_path, landmarks):
    # csv data: resolve_spec cannot know the navigator count before reading it
    Y, coords = make_tvgs_synthetic(14, 16, 2, 3, seed=2)
    np.savetxt(tmp_path / "y.csv", Y, delimiter=",")
    np.savetxt(tmp_path / "c.csv", coords.T, delimiter=",")
    spec = {**TVGS_SPEC, "data": {"source": "csv", "data_path": str(tmp_path / "y.csv"),
                                  "coords_path": str(tmp_path / "c.csv")},
            "landmarks": {"strategy": "maxmin", "count": landmarks}}
    spec_path = tmp_path / f"spec{landmarks}.json"
    spec_path.write_text(json.dumps(spec))
    return str(spec_path)


def test_run_with_failed_cells_exits_nonzero_and_names_the_log(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", _csv_spec(tmp_path, 10_000), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.strip() == "completed 1 runs"  # zero-fill's; mlkr failed
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["failed_cells"] == 1
    assert payload["errors_log"] == str(out / "errors.log")
    assert "10000" in (out / "errors.log").read_text()
    # a clean run into the same directory drops the stale log and exits 0
    assert main(["run", _csv_spec(tmp_path, 5), "--output", str(out)]) == 0
    assert not (out / "errors.log").exists()
