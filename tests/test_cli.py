import json

import numpy as np
import pytest

from mkimpute import cli, solver
from mkimpute.cli import main
from mkimpute.errors import SolverError
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


@pytest.mark.parametrize("args", [
    ["mask", "radial", "OUT", "--i1", "16", "--i2", "16", "--frames", "4", "--accel", "inf"],
    ["mask", "cartesian", "OUT", "--i1", "16", "--i2", "8", "--frames", "3",
     "--accel", "inf", "--band", "0"],
    ["mask", "cartesian", "OUT", "--i1", "16", "--i2", "8", "--frames", "3",
     "--accel", "inf", "--band", "2"],
], ids=["radial", "cartesian-band0", "cartesian-band2"])
def test_mask_rejects_an_infinite_acceleration(tmp_path, capsys, args):
    # inf drew ceil(I1 / inf) = 0 lines a frame: an empty mask written with
    # exit 0, or with a band a "budget 0" error that did not name the cause
    out = tmp_path / "m.csv"
    assert main([str(out) if a == "OUT" else a for a in args]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "InputError"
    assert "acceleration must be a finite number >= 1, got inf" in payload["message"]
    assert not out.exists()


def test_validate_rejects_an_infinite_dmri_acceleration(tmp_path, capsys):
    # Python's json reads Infinity; run then solved with no spoke at all
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"problem": "dmri", "methods": ["zero-fill"], "data": {"source": '
                         '"phantom", "i1": 16, "i2": 16, "i3": 8}, '
                         '"sampling": {"kind": "radial", "ratios": [Infinity]}}')
    assert main(["validate", str(spec_path)]) == 1
    (line,) = capsys.readouterr().err.strip().splitlines()
    payload = json.loads(line)
    assert payload["error"] == "InputError"
    assert payload["message"].startswith("sampling")
    assert "acceleration must be a finite number >= 1, got inf" in payload["message"]


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


@pytest.mark.parametrize("key, text", [("lambda1", "NaN"), ("cg_tol", "Infinity")])
def test_validate_non_finite_solver_value_is_one_json_line(tmp_path, capsys, key, text):
    # Python's json reads NaN and Infinity; such a weight failed every cell
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(f'{{"problem": "tvgs", "solver": {{"{key}": {text}}}}}')
    assert main(["validate", str(spec_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])
    assert payload["error"] == "InputError"
    assert f"{key} must be finite" in payload["message"]


_HUGE = "1" + "0" * 400  # beyond the float range


@pytest.mark.parametrize("field, what", [
    (f'"kernels": [{{"kind": "gaussian", "sigma": {_HUGE}}}]', "kernel entry 0: 'sigma' must be"),
    (f'"repeats": {_HUGE}', "'repeats' in the spec holds an integer beyond the float range"),
    ('"repeats": 5' + "0" * 5000, "Exceeds the limit"),  # more digits than int() converts
], ids=["sigma", "repeats", "repeats-5001-digits"])
def test_validate_rejects_integers_beyond_the_float_range(tmp_path, capsys, field, what):
    # a kernel's number ended validate in an OverflowError traceback; as
    # repeats, validate enumerated the cells until it was killed
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(f'{{"problem": "tvgs", {field}}}')
    assert main(["validate", str(spec_path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.out == ""
    (line,) = captured.err.strip().splitlines()
    payload = json.loads(line, parse_constant=_no_constant)
    assert payload["error"] == "InputError" and what in payload["message"]


_WIDTHS = (1e-200, 1e-155, 1e154, 1e200)


@pytest.mark.parametrize("spec, what", [
    *(({"problem": "tvgs", "kernels": [{"kind": "gaussian", "sigma": sigma}]},
       f"kernels: kernel entry 0: 'sigma' must be a finite number > 0 with 1 / (2 sigma^2) "
       f"finite and > 0, got {sigma!r}") for sigma in _WIDTHS),
    ({"problem": "dmri", "methods": ["zero-fill"], "sampling": {"kind": "radial", "ratios": [4.0]},
      "data": {"source": "phantom", "i1": 16, "i2": 16, "i3": 8, "noise_snr_db": 1e308}},
     "data: 'noise_snr_db' must give a noise power signal / 10^(SNR/10) finite and > 0, "
     "got 1e+308"),
], ids=["sigma-1e-200", "sigma-1e-155", "sigma-1e154", "sigma-1e200", "noise_snr_db-1e308"])
def test_validate_rejects_numbers_whose_derived_value_leaves_the_float_range(tmp_path, capsys,
                                                                           spec, what):
    # sigma^2 beyond the float range ended validate in a ZeroDivisionError or
    # OverflowError traceback, or named 'gamma', a field the spec never set;
    # 10^(SNR/10) above about 3083 dB overflowed
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["validate", str(spec_path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.out == ""
    (line,) = captured.err.strip().splitlines()
    payload = json.loads(line)
    assert payload == {"error": "InputError", "message": what}


@pytest.mark.parametrize("graph, what", [
    ('{"eps": 1e400}', "graph: eps must be a finite number > 0, got inf"),
    ('{"beta": 1e400}', "graph: beta must be a finite number > 0, got inf"),
], ids=["eps", "beta"])
def test_validate_rejects_an_infinite_graph_eps_or_beta(tmp_path, capsys, graph, what):
    # 1e400 is JSON for inf: it passed validate, then every graph method
    # failed in run after a RuntimeWarning
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(f'{{"problem": "tvgs", "graph": {graph}}}')
    assert main(["validate", str(spec_path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert json.loads(line) == {"error": "InputError", "message": what}


def test_run_names_eps_and_beta_whose_smoothness_overflows(tmp_path, capsys):
    # (L + eps I)^beta overflows at eps 1e300, beta 3: each graph method
    # fails with a typed error naming both, and no warning reaches stderr
    spec = {**TVGS_SPEC, "methods": ["mlkr", "mmf", "nbp", "zero-fill"],
            "graph": {"eps": 1e300, "beta": 3.0}}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "out"
    assert main(["run", str(spec_path), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert "Warning" not in captured.err
    assert json.loads(captured.err)["failed_cells"] == 1
    log = (out / "errors.log").read_text()
    for method in ("mlkr", "mmf", "nbp"):
        assert (f"method={method} InputError: (L + eps I)^beta overflows at eps=1e+300, "
                f"beta=3.0") in log


@pytest.mark.parametrize("kernel", [{"kind": "polynomial", "degree": 400},
                                    {"kind": "polynomial", "degree": 2, "intercept": 1e200}],
                         ids=["degree-400", "intercept-1e200"])
def test_run_with_a_polynomial_kernel_whose_power_overflowed(tmp_path, capsys, kernel):
    # the kernel was raised to the degree before it was normalized: the
    # power overflowed and every mlkr cell failed with a non-finite objective
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**TVGS_SPEC, "kernels": [kernel]}))
    out = tmp_path / "out"
    assert main(["run", str(spec_path), "--output", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.strip() == "completed 2 runs"
    assert not (out / "errors.log").exists()


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("text", ["[1, 2]", '"tvgs"', "null"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_spec_that_is_not_an_object_is_one_json_line(tmp_path, capsys, command, text):
    # such a spec ended both commands in an AttributeError traceback
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(text)
    extra = ["--output", str(tmp_path / "out")] if command == "run" else []
    assert main([command, str(spec_path), *extra]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0], parse_constant=_no_constant)
    assert payload["error"] == "InputError"
    assert payload["message"].startswith("a spec must be a JSON object")
    assert not (tmp_path / "out").exists()


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
    pytest.param({"graph": {"eps": 0.0}}, "graph: eps must be a finite number > 0, got 0.0",
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


def _strict_json(line):
    def reject(constant):
        raise AssertionError(f"{constant} is not JSON")
    return json.loads(line, parse_constant=reject)


@pytest.mark.parametrize("error, iteration, residual", [
    (SolverError("stalled", residual=np.float64(2.5e-3), iteration=np.int64(4)), 4, 2.5e-3),
    (SolverError("stalled"), None, None),
    (SolverError("stalled", residual=float("nan"), iteration=7), 7, None),
    (SolverError("stalled", residual=float("inf")), None, None),
])
def test_solver_error_line_carries_iteration_and_residual(tmp_path, capsys, monkeypatch,
                                                          error, iteration, residual):
    def fail(spec, output_dir):
        raise error

    monkeypatch.setattr(cli, "run_experiment", fail)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TVGS_SPEC))
    assert main(["run", str(spec_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert _strict_json(err[0]) == {"error": "SolverError", "message": "stalled",
                                    "iteration": iteration, "residual": residual}
