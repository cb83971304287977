"""Config-driven experiment pipeline: data, masks, navigators, landmarks,
kernels, solve, metrics, CSV results.

A spec is a single JSON document; every omitted field is materialized from
defaults and the resolved spec is echoed next to the results so a run can be
reproduced byte-for-byte (wall-time columns aside).
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np

from . import baselines
from .errors import DataError, InputError, SolverError
from .graphs import build_graph_operators, knn_graph, laplacian
from .kernels import (
    KernelSpec,
    default_kernel_dictionary,
    gaussian_spec,
    landmark_mean,
    median_distance_gaussian,
)
from .metrics import METRICS, compute_metrics
from .model import ModelDims, SolverConfig, require_count
from .mri import PhantomParams, ifft2_frames, make_phantom
from .navigators import (
    STRATEGIES,
    TVGS_MODES,
    LandmarkSet,
    form_navigators_dmri,
    form_navigators_tvgs,
    select_landmarks,
)
from .sampling import (
    SamplingPattern,
    apply_sampling,
    cartesian_mask,
    radial_mask,
    sample_p1,
    sample_p2,
    with_band,
)
from .solver import DMRI, TVGS, free_band_factor, solve

MAIN_METHOD = "mlkr"  # multilinear kernel regression, the engine itself

TVGS_METHODS = (MAIN_METHOD, *baselines.METHODS)
DMRI_METHODS = (MAIN_METHOD, baselines.ZERO_FILL)

RESULT_COLUMNS = ("method", "ratio", "seed", *METRICS, "seconds")

_DEFAULTS = {
    "problem": None,
    "data": {"source": "synthetic"},
    "sampling": {"kind": "p1", "ratios": [0.3], "band": 0},
    "navigator": {"mode": "nav1", "delta_t": 1, "upsilon": 4},
    "landmarks": {"strategy": "maxmin", "count": 20},
    "kernels": [{"kind": "gaussian", "sigma": 0.4}],
    "dims": {"depth": 2, "inner": [5]},
    "solver": {},
    "baseline": {"rank": 5, "depth": 2},
    "methods": [MAIN_METHOD],
    "repeats": 1,
    "base_seed": 0,
    "metrics": None,  # per-problem default resolved below
    "missing_only_metrics": False,
    "output_dir": ".",
    "workers": 1,
    "graph": {"k": 5, "eps": 0.1, "beta": 1.0},
}

_SOLVER_DEFAULTS = dataclasses.asdict(SolverConfig())
_SYNTH_DEFAULTS = {"source": "synthetic", "nodes": 50, "times": 80, "modes": 3,
                   "knn": 5, "seed": 7, "offset": 3.0}
_PHANTOM_DEFAULTS = {"source": "phantom", "i1": 32, "i2": 32, "i3": 16,
                     "period": None, "noise_snr_db": None, "seed": 0}
_DATA_KEYS = {"synthetic": _SYNTH_DEFAULTS, "phantom": _PHANTOM_DEFAULTS,
              "csv": ("source", "data_path", "coords_path")}

# A spec value must have its default's type, except in the fields below (per
# block, "spec" for the top level), which take a value of the first entry's
# type or one of the exact values after it.
_KINDS = {
    "spec": {"metrics": (["mae"], None), "kernels": ([{}], "default7")},
    "solver": {"cg_max": (1, None)},
    "data": {"period": (1, None), "noise_snr_db": (0.0, None)},
}
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               dict: "an object"}

# The keys each kernel kind takes besides "kind".
_KERNEL_KEYS = {"gaussian": ("sigma", "gamma"), "polynomial": ("degree", "intercept"),
                "linear": ()}


# ---------------------------------------------------------------------------
# data loading and generation
# ---------------------------------------------------------------------------

def _parse_numeric_csv(path) -> np.ndarray:
    rows = []
    width = None
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise DataError(f"{path}:{ln}: non-numeric cell ({exc})") from None
            if not all(math.isfinite(v) for v in vals):
                raise DataError(f"{path}:{ln}: non-finite cell")
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise DataError(
                    f"{path}:{ln}: ragged row has {len(vals)} cells, expected {width}"
                )
            rows.append(vals)
    if not rows:
        raise DataError(f"{path}: empty file")
    return np.array(rows)


def load_tvgs_csv(data_path, coords_path) -> tuple[np.ndarray, np.ndarray]:
    """Data CSV is I0 rows x I_N columns; coords CSV has I0 rows, optionally
    led by a node-id column (0- or 1-based consecutive integers)."""
    Y = _parse_numeric_csv(data_path)
    coords = _parse_numeric_csv(coords_path)
    n = Y.shape[0]
    first = coords[:, 0]
    if coords.shape[1] >= 2 and (
        np.array_equal(first, np.arange(coords.shape[0]))
        or np.array_equal(first, np.arange(1, coords.shape[0] + 1))
    ):
        coords = coords[:, 1:]
    if coords.shape[0] != n:
        raise DataError(
            f"{coords_path}: has {coords.shape[0]} rows but the data has {n}"
        )
    return Y, coords.T  # coordinates as columns


def make_tvgs_synthetic(n_nodes=50, n_times=80, modes=3, knn=5, seed=7, offset=3.0):
    """Smooth synthetic graph signal: low graph-frequency modes with slow
    temporal sinusoids on top of a constant offset."""
    if not modes < n_nodes:  # mode j is eigenvector j + 1 of the graph
        raise InputError(f"modes must be below n_nodes = {n_nodes}, got {modes}")
    if not 1 <= knn < n_nodes:
        raise InputError(f"need 1 <= knn < n_nodes = {n_nodes}, got knn={knn}")
    rng = np.random.default_rng(seed)
    coords = rng.random((2, n_nodes))
    W, _ = knn_graph(coords, knn)
    lam, U = np.linalg.eigh(laplacian(W))
    t = np.arange(n_times)
    Y = np.zeros((n_nodes, n_times))
    for j in range(modes):
        mode = U[:, j + 1] * np.sqrt(n_nodes)  # skip the constant eigenvector
        phase = rng.uniform(0.0, 2.0 * np.pi)
        profile = np.sin(2.0 * np.pi * (j + 1) * t / n_times + phase)
        Y += (1.0 / (j + 1)) * mode[:, None] * profile[None, :]
    return Y + offset, coords


# ---------------------------------------------------------------------------
# spec resolution
# ---------------------------------------------------------------------------

def _kind_ok(value, example) -> bool:
    """Whether a spec value has the JSON type of an example: a float takes any
    number, an int only integers, a bool only a bool, and a list a list of
    items like its first."""
    if isinstance(value, bool) or isinstance(example, bool):
        return type(value) is type(example)
    if isinstance(example, float):
        return isinstance(value, (int, float))
    if isinstance(example, list):
        return isinstance(value, list) and all(_kind_ok(v, example[0]) for v in value)
    return isinstance(value, type(example))


def _check_keys(block: dict, allowed, name: str) -> None:
    unknown = [key for key in block if key not in allowed]
    if unknown:
        raise InputError(f"unknown key {unknown[0]!r} in the {name!r} block")


def _beyond_floats(value) -> bool:
    """Whether value, or an item of a list value, is an integer beyond the
    float range: a number field cannot convert it, and a count field would
    enumerate it without end."""
    if isinstance(value, list):
        return any(map(_beyond_floats, value))
    return isinstance(value, int) and abs(value) > sys.float_info.max


def _check_kinds(block: dict, defaults: dict, name: str) -> None:
    """InputError naming block and key for a value its field does not take."""
    where = "the spec" if name == "spec" else f"the {name!r} block"
    for key, value in block.items():
        if _beyond_floats(value):
            raise InputError(f"{key!r} in {where} holds an integer beyond the float range")
        example, *exact = _KINDS.get(name, {}).get(key, (defaults.get(key),))
        if example is None or value in exact or _kind_ok(value, example):
            continue  # a None default without a _KINDS entry is checked later
        if isinstance(example, list):
            kind = f"a list, each item {_KIND_NAMES[type(example[0])]}"
        else:
            kind = _KIND_NAMES[type(example)]
        kind = ", or ".join([kind, *("null" if x is None else json.dumps(x) for x in exact)])
        raise InputError(f"{key!r} in {where} must be {kind}, got {value!r}")


def _kernel_specs_from_config(entries, landmark_points) -> list[KernelSpec]:
    """The kernels the spec's entries describe over the given landmarks;
    InputError led by ``kernel entry {i}`` for an entry that cannot be built.
    KernelSpec and gaussian_spec check the numbers; the format adds the kind
    and key names, exactly one of ``sigma`` (which may be "median") and
    ``gamma`` for a gaussian, and the landmark-mean intercept for a polynomial
    without one (or with null)."""
    if entries == "default7":
        return default_kernel_dictionary(landmark_points)
    specs = []
    for i, item in enumerate(entries):
        kind = item.get("kind")
        with _stage(f"kernel entry {i}"):
            if kind not in _KERNEL_KEYS:
                raise InputError("'kind' must be 'gaussian', 'polynomial' or 'linear', "
                                 f"got {kind!r}")
            for key in item:
                if key != "kind" and key not in _KERNEL_KEYS[kind]:
                    raise InputError(f"a {kind} kernel takes no key {key!r}")
            if kind == "gaussian" and ("sigma" in item) == ("gamma" in item):
                raise InputError("a gaussian kernel takes exactly one of 'sigma' and 'gamma'")
            if item.get("sigma") == "median":
                specs.append(median_distance_gaussian(landmark_points))
            elif "sigma" in item:
                specs.append(gaussian_spec(item["sigma"]))
            elif kind == "polynomial":
                intercept = item.get("intercept")
                if intercept is None:
                    intercept = landmark_mean(landmark_points)
                specs.append(KernelSpec(kind, degree=item.get("degree"), intercept=intercept))
            else:  # a linear kernel, or a gaussian given its gamma
                specs.append(KernelSpec(**item))
    return specs


def _cells(spec) -> list[tuple]:
    """(ratio, repeat, seed) of every sweep cell, in run order."""
    repeats = spec["repeats"]
    return [(ratio, rep, spec["base_seed"] + i * repeats + rep)
            for i, ratio in enumerate(spec["sampling"]["ratios"]) for rep in range(repeats)]


def resolve_spec(raw: dict) -> dict:
    """Materialize every default and check the spec's schema: its keys and
    value kinds, the problem, methods, data source, sampling kind, metrics,
    navigator mode and landmark strategy, the seeds, the solver settings (with
    lambda2 > 0 for the dmri engine) and nbp's rank on synthetic data; raises
    InputError.  It builds nothing: the sizes a cell's inputs must fit (ratios
    and accelerations, data.modes, graph.k/eps/beta, navigator.delta_t and
    upsilon, landmarks.count, kernels, dims) are checked by ``set_up``."""
    if not isinstance(raw, dict):
        raise InputError(f"a spec must be a JSON object, got {raw!r:.40}")
    spec = copy.deepcopy(_DEFAULTS)
    for key, val in raw.items():
        if key not in spec:
            raise InputError(f"unknown spec field {key!r}")
        if isinstance(spec[key], dict):
            if not isinstance(val, dict):
                raise InputError(f"spec field {key!r} must be an object")
            if key != "data":  # data keys depend on the source, checked below
                schema = _SOLVER_DEFAULTS if key == "solver" else spec[key]
                _check_keys(val, schema, key)
                _check_kinds(val, schema, key)
            spec[key].update(val)
        else:
            _check_kinds({key: val}, _DEFAULTS, "spec")
            spec[key] = copy.deepcopy(val)
    problem = spec["problem"]
    if problem not in (TVGS, DMRI):
        raise InputError(f"problem must be '{TVGS}' or '{DMRI}', got {problem!r}")
    allowed = TVGS_METHODS if problem == TVGS else DMRI_METHODS
    for m in spec["methods"]:
        if m not in allowed:
            raise InputError(f"method {m!r} not available for {problem}")
    data = spec["data"]
    src = data.get("source")
    if problem == TVGS:
        if src == "synthetic":
            _check_kinds(data, _SYNTH_DEFAULTS, "data")
            spec["data"] = {**_SYNTH_DEFAULTS, **data}
        elif src == "csv":
            for k in ("data_path", "coords_path"):
                if k not in data:
                    raise InputError(f"csv data source needs {k!r}")
        else:
            raise InputError(f"unknown tvgs data source {src!r}")
        if spec["sampling"]["kind"] not in ("p1", "p2"):
            raise InputError("tvgs sampling kind must be 'p1' or 'p2'")
    else:
        if src != "phantom":
            raise InputError(f"unknown dmri data source {src!r}")
        _check_kinds(data, _PHANTOM_DEFAULTS, "data")
        spec["data"] = {**_PHANTOM_DEFAULTS, **data}
        if spec["sampling"]["kind"] not in ("cartesian", "radial"):
            raise InputError("dmri sampling kind must be 'cartesian' or 'radial'")
    _check_keys(data, _DATA_KEYS[src], "data")
    if spec["metrics"] is None:
        # percentage error is meaningless against near-zero image magnitudes
        spec["metrics"] = (["mae", "rmse", "mape", "nrmse"] if problem == TVGS
                           else ["mae", "rmse", "nrmse", "ssim", "hfen"])
    for name in spec["metrics"]:
        if name not in METRICS:
            raise InputError(f"unknown metric {name!r}")
    ratios = spec["sampling"]["ratios"]
    if not ratios or len(set(ratios)) < len(ratios):  # a cell and a trace file per ratio
        what = "sampling ratios" if problem == TVGS else "accelerations"
        raise InputError(f"sampling.ratios must list one or more distinct {what}, got {ratios}")
    for name, value in (("repeats", spec["repeats"]), ("workers", spec["workers"]),
                        ("baseline.rank", spec["baseline"]["rank"]),
                        ("baseline.depth", spec["baseline"]["depth"])):
        require_count(name, value, 1)
    if spec["sampling"]["band"] != 0:  # the default 0 stays so old resolved specs validate
        raise InputError("sampling.band is not read: the fully sampled central band is "
                         f"navigator.upsilon rows wide, got band {spec['sampling']['band']}")
    if problem == DMRI and spec["missing_only_metrics"]:  # false stays accepted
        raise InputError("missing_only_metrics is not read for dmri: the k-space mask "
                         "does not index the image's entries")
    for name, seed in (("base_seed", spec["base_seed"]), ("data.seed", spec["data"].get("seed"))):
        if isinstance(seed, int) and seed < 0:  # a csv source has no seed
            raise InputError(f"{name} must be non-negative, got {seed}")
    if problem == TVGS and spec["navigator"]["mode"] not in TVGS_MODES:
        raise InputError(f"navigator mode must be one of {TVGS_MODES}, "
                         f"got {spec['navigator']['mode']!r}")
    if baselines.NBP in spec["methods"] and src == "synthetic":
        # a method's bound: no set-up stage builds nbp's links
        nodes, times = spec["data"]["nodes"], spec["data"]["times"]
        if spec["baseline"]["rank"] > min(nodes, times):
            raise InputError(f"baseline.rank must be at most min(data.nodes, data.times) "
                             f"= {min(nodes, times)} for nbp, got {spec['baseline']['rank']}")
    if spec["landmarks"]["strategy"] not in STRATEGIES:
        raise InputError(f"landmark strategy must be one of {STRATEGIES}, "
                         f"got {spec['landmarks']['strategy']!r}")
    config = SolverConfig(**spec["solver"])  # validates weights, schedule and seed
    if problem == DMRI and MAIN_METHOD in spec["methods"] and not config.lambda2 > 0:
        raise InputError("solver.lambda2 must be positive for the dmri engine's Z update, "
                         f"got {config.lambda2}")
    if config.seed != 0:  # the default 0 stays so old resolved specs validate
        raise InputError("solver.seed is not read: each cell's seed is base_seed plus the "
                         f"cell's index, got seed {config.seed}")
    return spec


# ---------------------------------------------------------------------------
# set-up: every input a run needs, built before any cell runs
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Cell:
    """One sweep cell's inputs: its mask and solver settings, the zero-filled
    k-space (dmri) and, when mlkr runs, its landmarks, kernels and dims."""

    ratio: float
    repeat: int
    seed: int
    pattern: SamplingPattern
    config: SolverConfig
    observed: np.ndarray | None = None
    scale: float = 1.0  # dmri: mlkr works at unit k-space scale
    landmarks: LandmarkSet | None = None
    kernels: list[KernelSpec] | None = None
    dims: ModelDims | None = None


@contextmanager
def _stage(blocks: str):
    """Re-raise a set-up stage's InputError or DataError with the spec blocks
    the stage reads in front of its message."""
    try:
        yield
    except (InputError, DataError) as exc:
        raise type(exc)(f"{blocks}: {exc}") from exc


def _set_up_cell(spec, data, graph, ratio, repeat, seed) -> Cell:
    kind, nav_cfg = spec["sampling"]["kind"], spec["navigator"]
    observed = None
    if spec["problem"] == TVGS:
        with _stage("sampling"):
            sampler = sample_p1 if kind == "p1" else sample_p2
            pattern = sampler(data.shape[0], data.shape[1], ratio, seed)
        if spec["missing_only_metrics"] and pattern.mask.all():
            raise InputError(f"sampling, missing_only_metrics: ratio {ratio} observes every "
                             "entry, which leaves no missing entry to score")
    else:
        (i1, i2, i3), band = data.dims, nav_cfg["upsilon"]
        with _stage("sampling, navigator.upsilon"):
            if kind == "cartesian":
                pattern = cartesian_mask(i1, i2, i3, ratio, band, seed)
            else:
                pattern = with_band(radial_mask(i1, i2, i3, ratio, seed), i1, i2, band)
        observed = apply_sampling(pattern, data.kspace)
    cell = Cell(ratio, repeat, seed, pattern, SolverConfig(**{**spec["solver"], "seed": seed}),
                observed)
    if MAIN_METHOD not in spec["methods"]:
        return cell
    if spec["problem"] == TVGS:
        with _stage("navigator"):
            nav = form_navigators_tvgs(data, pattern, nav_cfg["mode"], graph, nav_cfg["delta_t"])
    else:
        # work at unit k-space scale so kernel widths and weights are portable
        cell.scale = float(np.abs(observed).max())
        if cell.scale == 0:
            raise DataError("sampling: no observed k-space energy")
        with _stage("navigator.upsilon"):
            nav = form_navigators_dmri(observed / cell.scale, pattern, i1, i2, band)
    lmk_cfg = spec["landmarks"]
    with _stage("landmarks"):
        cell.landmarks = select_landmarks(nav, lmk_cfg["count"], lmk_cfg["strategy"], seed)
    with _stage("kernels"):
        cell.kernels = _kernel_specs_from_config(spec["kernels"], cell.landmarks.points)
    with _stage("dims"):
        cell.dims = ModelDims(*pattern.mask.shape, cell.landmarks.count, len(cell.kernels),
                              spec["dims"]["depth"], tuple(spec["dims"]["inner"]))
    return cell


def set_up(spec) -> tuple:
    """Build a resolved spec's inputs: the data and its graph (tvgs) or the
    phantom (dmri), then every cell's.  The build is the check of every size
    the spec sets: a stage's InputError or DataError is re-raised with the
    spec blocks it reads in front.  Returns (Y or the phantom, the graph or
    None, the cells in run order)."""
    d, graph = spec["data"], None
    with _stage("data"):
        if spec["problem"] == DMRI:
            params = PhantomParams(period=d["period"], noise_snr_db=d["noise_snr_db"],
                                   seed=d["seed"])
            data = make_phantom(d["i1"], d["i2"], d["i3"], params)
        elif d["source"] == "synthetic":
            data, coords = make_tvgs_synthetic(d["nodes"], d["times"], d["modes"], d["knn"],
                                               d["seed"], d["offset"])
        else:
            data, coords = load_tvgs_csv(d["data_path"], d["coords_path"])
    if spec["problem"] == TVGS:
        g = spec["graph"]
        with _stage("graph"):
            graph = build_graph_operators(coords, g["k"], g["eps"], g["beta"], data.shape[1])
    return data, graph, [_set_up_cell(spec, data, graph, *cell) for cell in _cells(spec)]


# ---------------------------------------------------------------------------
# per-cell execution
# ---------------------------------------------------------------------------

def _metric_row(method, ratio, seed, rep, seconds, wanted):
    row = {"method": method, "ratio": ratio, "seed": seed, "seconds": seconds}
    row.update({k: (v if k in wanted else None) for k, v in dataclasses.asdict(rep).items()})
    return row


def _warning_lines(method, ratio, repeat, report):
    return [f"method={method} ratio={ratio} repeat={repeat}: {w}" for w in report.warnings]


def _error_message(exc):
    """The exception type and message and, for a solver that stalled, where
    it stopped."""
    message = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, SolverError):
        message += f" (iteration={exc.iteration}, residual={exc.residual!r})"
    return message.replace("\n", " ")


def _run_methods(spec, cell, out_dir, trace_tag, solve_method, score):
    """Run each method of one cell under its own try, so a failing method
    leaves the other methods' rows, warnings and traces in place.

    ``solve_method(method)`` returns (X, report or None) and is timed;
    ``score(X)`` returns its MetricReport.  Returns the rows, the warning
    lines and one "method=... Type: message" entry per failed method."""
    rows, notes, failures = [], [], []
    for method in spec["methods"]:
        try:
            t0 = time.perf_counter()
            X, report = solve_method(method)
            seconds = time.perf_counter() - t0
            row = _metric_row(method, cell.ratio, cell.seed, score(X), seconds, spec["metrics"])
        except Exception as exc:  # a failed method is recorded, the cell goes on
            failures.append(f"method={method} {_error_message(exc)}")
            continue
        rows.append(row)
        if report is not None:
            notes += _warning_lines(method, cell.ratio, cell.repeat, report)
            if report.iterations and out_dir is not None:
                name = f"trace_{method}_{trace_tag}{cell.ratio}_{cell.repeat}.csv"
                report.to_csv(out_dir / name)
    return rows, notes, failures


def _run_cell_tvgs(spec, Y, graph, cell, out_dir):
    # every graph method of the cell shares the mask, graph and weights, so
    # one X-update band factor serves them all: built when the first needs it
    # (in its timed solve), tried again by the next if it raised, and dropped
    # with the cell
    @cache
    def band():
        return free_band_factor(cell.pattern, graph, cell.config.lambda_L, cell.config.tau_X)

    def solve_method(method):
        if method == MAIN_METHOD:
            X, _model, report = solve(TVGS, Y, cell.pattern, graph, cell.landmarks,
                                      cell.kernels, cell.dims, cell.config, band())
            return X, report
        bspec = baselines.BaselineSpec(method, **spec["baseline"])  # rank and depth
        fill = method in (baselines.ZERO_FILL, baselines.MEAN_FILL)
        return baselines.run_baseline(bspec, Y, cell.pattern, graph, cell.config,
                                      None if fill else band())

    def score(X):
        return compute_metrics(X, Y, observed_mask=cell.pattern.mask,
                               missing_only=spec["missing_only_metrics"])

    return _run_methods(spec, cell, out_dir, "r", solve_method, score)


def _run_cell_dmri(spec, dataset, cell, out_dir):
    i1, i2, _ = dataset.dims

    def solve_method(method):
        if method != MAIN_METHOD:
            return ifft2_frames(cell.observed, i1, i2), None
        Xn, _model, report = solve(DMRI, dataset.kspace / cell.scale, cell.pattern, dataset.dims,
                                   cell.landmarks, cell.kernels, cell.dims, cell.config)
        return Xn * cell.scale, report

    def score(X):
        return compute_metrics(X, dataset.ground_truth_image, observed_mask=cell.pattern.mask,
                               image_dims=(i1, i2))

    return _run_methods(spec, cell, out_dir, "a", solve_method, score)


# ---------------------------------------------------------------------------
# sweep driver and output
# ---------------------------------------------------------------------------

def emit_results(rows: list[dict], path) -> None:
    """Stable long-format CSV; aggregate rows carry seed='mean'.  A None
    value is an empty field and a float is written as its repr."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(RESULT_COLUMNS)
        w.writerows([row.get(c) for c in RESULT_COLUMNS] for row in rows)


def aggregate_rows(rows: list[dict], methods, ratios) -> list[dict]:
    out = []
    for method in methods:
        for ratio in ratios:
            group = [r for r in rows if r["method"] == method and r["ratio"] == ratio]
            if not group:
                continue
            agg = {"method": method, "ratio": ratio, "seed": "mean"}
            for col in (*METRICS, "seconds"):
                vals = [r0[col] for r0 in group if r0.get(col) is not None]
                agg[col] = float(np.mean(vals)) if len(vals) == len(group) else None
            out.append(agg)
    return out


def run_experiment(raw_spec: dict, output_dir=None) -> list[dict]:
    """Execute the full sweep; writes results.csv, per-run traces, the
    resolved spec echo, errors.log for failed cells and warnings.log for
    solver warnings.  Returns the run rows (aggregates excluded)."""
    spec = resolve_spec(raw_spec)
    data, graph, cells = set_up(spec)
    out_dir = Path(output_dir if output_dir is not None else spec["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for log in ("errors.log", "warnings.log"):  # they describe this run only
        (out_dir / log).unlink(missing_ok=True)
    spec["output_dir"] = str(out_dir)
    with open(out_dir / "spec.resolved.json", "w") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)

    if spec["problem"] == TVGS:
        run_one = lambda cell: _run_cell_tvgs(spec, data, graph, cell, out_dir)  # noqa: E731
    else:
        run_one = lambda cell: _run_cell_dmri(spec, data, cell, out_dir)  # noqa: E731

    with ThreadPoolExecutor(max_workers=spec["workers"]) as pool:
        # each cell's (rows, warning lines, failures), in cell order
        cell_rows, notes, failures = zip(*pool.map(run_one, cells))
    rows = [row for part in cell_rows for row in part]
    all_rows = rows + aggregate_rows(rows, spec["methods"], spec["sampling"]["ratios"])
    emit_results(all_rows, out_dir / "results.csv")
    logs = {"errors.log": [f"cell ratio={cell.ratio} repeat={cell.repeat}: " + "; ".join(failed)
                           for cell, failed in zip(cells, failures) if failed],
            "warnings.log": [line for lines in notes for line in lines]}
    for log, lines in logs.items():
        if lines:
            with open(out_dir / log, "w") as fh:
                fh.writelines(line + "\n" for line in lines)
    return rows
