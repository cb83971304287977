"""Config-driven experiment pipeline: data, masks, navigators, landmarks,
kernels, solve, metrics, CSV results.

A spec is a single JSON document; every omitted field is materialized from
defaults and the resolved spec is echoed next to the results so a run can be
reproduced byte-for-byte (wall-time columns aside).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
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
from .model import ModelDims, SolverConfig
from .mri import PhantomParams, ifft2_frames, make_phantom
from .navigators import (
    STRATEGIES,
    TVGS_MODES,
    form_navigators_dmri,
    form_navigators_tvgs,
    select_landmarks,
)
from .sampling import (
    cartesian_mask,
    radial_mask,
    sample_p1,
    sample_p2,
    with_band,
)
from .solver import DMRI, TVGS, solve

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


def _check_kinds(block: dict, defaults: dict, name: str) -> None:
    """InputError naming block and key for a value its field does not take."""
    for key, value in block.items():
        example, *exact = _KINDS.get(name, {}).get(key, (defaults.get(key),))
        if example is None or value in exact or _kind_ok(value, example):
            continue  # a None default without a _KINDS entry is checked later
        if isinstance(example, list):
            kind = f"a list, each item {_KIND_NAMES[type(example[0])]}"
        else:
            kind = _KIND_NAMES[type(example)]
        kind = ", or ".join([kind, *("null" if x is None else json.dumps(x) for x in exact)])
        where = "the spec" if name == "spec" else f"the {name!r} block"
        raise InputError(f"{key!r} in {where} must be {kind}, got {value!r}")


def _finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _check_kernels(entries) -> None:
    """InputError naming entry index and key for a kernel entry that cannot
    be built: an unknown kind or key, a gaussian without exactly one finite
    positive width (``sigma``, which may be "median", or ``gamma``), or a
    polynomial without an integer degree >= 1 or with a non-finite intercept."""
    if entries == "default7":
        return
    for i, item in enumerate(entries):
        def fail(key, want):
            got = repr(item[key]) if key in item else "nothing"
            return InputError(f"kernel entry {i}: {key!r} must be {want}, got {got}")

        kind = item.get("kind")
        if kind not in _KERNEL_KEYS:
            raise fail("kind", "'gaussian', 'polynomial' or 'linear'")
        for key in item:
            if key != "kind" and key not in _KERNEL_KEYS[kind]:
                raise InputError(f"kernel entry {i}: a {kind} kernel takes no key {key!r}")
        if kind == "gaussian":
            if ("sigma" in item) == ("gamma" in item):
                raise InputError(
                    f"kernel entry {i}: a gaussian kernel takes exactly one of "
                    "'sigma' and 'gamma'"
                )
            key = "sigma" if "sigma" in item else "gamma"
            value = item[key]
            if not (_finite_number(value) and value > 0
                    or key == "sigma" and value == "median"):
                want = "a finite number > 0" + (' or "median"' if key == "sigma" else "")
                raise fail(key, want)
        elif kind == "polynomial":
            degree = item.get("degree")
            if not (type(degree) is int and degree >= 1):
                raise fail("degree", "an integer >= 1")
            intercept = item.get("intercept")
            if not (intercept is None or _finite_number(intercept)):
                raise fail("intercept", "a finite number or null")


def resolve_spec(raw: dict) -> dict:
    """Materialize every default and validate; raises InputError on bad fields."""
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
            nodes = spec["data"]["nodes"]
            if spec["data"]["modes"] >= nodes:  # mode j is eigenvector j + 1 of the graph
                raise InputError(f"data.modes must be below data.nodes = {nodes}, "
                                 f"got {spec['data']['modes']}")
        elif src == "csv":
            for k in ("data_path", "coords_path"):
                if k not in data:
                    raise InputError(f"csv data source needs {k!r}")
        else:
            raise InputError(f"unknown tvgs data source {src!r}")
        if spec["sampling"]["kind"] not in ("p1", "p2"):
            raise InputError("tvgs sampling kind must be 'p1' or 'p2'")
        for r in spec["sampling"]["ratios"]:
            if not 0.0 < r <= 1.0:
                raise InputError(f"sampling ratio {r} outside (0, 1]")
    else:
        if src != "phantom":
            raise InputError(f"unknown dmri data source {src!r}")
        _check_kinds(data, _PHANTOM_DEFAULTS, "data")
        spec["data"] = {**_PHANTOM_DEFAULTS, **data}
        if spec["sampling"]["kind"] not in ("cartesian", "radial"):
            raise InputError("dmri sampling kind must be 'cartesian' or 'radial'")
        for a in spec["sampling"]["ratios"]:
            if not a >= 1.0:
                raise InputError(f"acceleration {a} must be >= 1")
    _check_keys(data, _DATA_KEYS[src], "data")
    if spec["metrics"] is None:
        # percentage error is meaningless against near-zero image magnitudes
        spec["metrics"] = (["mae", "rmse", "mape", "nrmse"] if problem == TVGS
                           else ["mae", "rmse", "nrmse", "ssim", "hfen"])
    for name in spec["metrics"]:
        if name not in METRICS:
            raise InputError(f"unknown metric {name!r}")
    if spec["repeats"] < 1:
        raise InputError("repeats must be at least 1")
    if spec["workers"] < 1:
        raise InputError(f"workers must be at least 1, got {spec['workers']}")
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
    nav = spec["navigator"]
    if problem == TVGS and nav["mode"] in ("nav3", "nav4"):
        # the windows need 0 < delta_t < I_N/2; I_N is known here for synthetic data
        times = spec["data"]["times"] if src == "synthetic" else math.inf
        if not 0 < nav["delta_t"] < times / 2:
            raise InputError(f"navigator.delta_t must lie in (0, {times / 2}) for "
                             f"{nav['mode']}, got {nav['delta_t']}")
    for key in ("rank", "depth"):
        if spec["baseline"][key] < 1:
            raise InputError(f"baseline.{key} must be at least 1, "
                             f"got {spec['baseline'][key]}")
    if spec["landmarks"]["strategy"] not in STRATEGIES:
        raise InputError(f"landmark strategy must be one of {STRATEGIES}, "
                         f"got {spec['landmarks']['strategy']!r}")
    if spec["landmarks"]["count"] < 1:
        raise InputError("landmark count must be at least 1")
    if problem == DMRI or src == "synthetic":
        # sizes the spec fixes: the most navigators the mode can produce, which
        # bounds the engine's landmarks, and nbp's rank bound
        if problem == DMRI:
            n_nav = spec["data"]["i3"]
        else:
            nodes, times = spec["data"]["nodes"], spec["data"]["times"]
            windows = times - 2 * nav["delta_t"]
            snapshots = times
            if spec["sampling"]["kind"] == "p2":
                # nav1 sees only the sampled snapshots, and nav3/nav4 only the
                # windows holding one; a snapshot lies in 2 delta_t + 1 windows
                snapshots = math.ceil(times * min(spec["sampling"]["ratios"], default=1.0))
                windows = min(windows, snapshots * (2 * nav["delta_t"] + 1))
            n_nav = {"nav1": snapshots, "nav2": nodes, "nav3": nodes * windows,
                     "nav4": windows}[nav["mode"]]
            if baselines.NBP in spec["methods"] and spec["baseline"]["rank"] > min(nodes, times):
                raise InputError(f"baseline.rank must be at most min(data.nodes, data.times) "
                                 f"= {min(nodes, times)} for nbp, got {spec['baseline']['rank']}")
        if MAIN_METHOD in spec["methods"] and spec["landmarks"]["count"] > n_nav:
            raise InputError(f"landmarks.count must be at most the {n_nav} navigators "
                             f"the data produces, got {spec['landmarks']['count']}")
    _check_kernels(spec["kernels"])
    depth = spec["dims"]["depth"]
    inner = list(spec["dims"]["inner"])
    if len(inner) != depth - 1:
        raise InputError(f"depth {depth} needs {depth - 1} inner dims, got {inner}")
    if any(d < 1 for d in inner):
        raise InputError(f"inner dims must be at least 1, got {inner}")
    if problem == TVGS:
        g = spec["graph"]
        k_max = spec["data"]["nodes"] - 1 if src == "synthetic" else math.inf
        if not 1 <= g["k"] <= k_max:
            raise InputError(f"graph.k must lie in [1, {k_max}], got {g['k']}")
        for key in ("eps", "beta"):
            if not g[key] > 0:
                raise InputError(f"graph.{key} must be positive, got {g[key]}")
    else:
        # the navigator band is fully sampled, inside every frame's row budget
        # for Cartesian sampling; the engine's navigators need at least one row
        i1, upsilon = spec["data"]["i1"], nav["upsilon"]
        rows = i1
        if spec["sampling"]["kind"] == "cartesian":
            rows = min((math.ceil(i1 / a) for a in spec["sampling"]["ratios"]), default=i1)
        lo = 1 if MAIN_METHOD in spec["methods"] else 0
        if not lo <= upsilon <= rows:
            raise InputError(f"navigator.upsilon must lie in [{lo}, {rows}], got {upsilon}")
    config = SolverConfig(**spec["solver"])  # validates weights, schedule and seed
    if problem == DMRI and MAIN_METHOD in spec["methods"] and not config.lambda2 > 0:
        raise InputError("solver.lambda2 must be positive for the dmri engine's Z update, "
                         f"got {config.lambda2}")
    if config.seed != 0:  # the default 0 stays so old resolved specs validate
        raise InputError("solver.seed is not read: each cell's seed is base_seed plus the "
                         f"cell's index, got seed {config.seed}")
    return spec


def _kernel_specs_from_config(cfg, landmark_points) -> list[KernelSpec]:
    if cfg == "default7":
        return default_kernel_dictionary(landmark_points)
    specs = []
    for item in cfg:  # entries checked by _check_kernels
        kind = item["kind"]
        if kind == "gaussian":
            if item.get("sigma") == "median":
                specs.append(median_distance_gaussian(landmark_points))
            elif "sigma" in item:
                specs.append(gaussian_spec(item["sigma"]))
            else:
                specs.append(KernelSpec("gaussian", gamma=item["gamma"]))
        elif kind == "linear":
            specs.append(KernelSpec("linear"))
        else:
            intercept = item.get("intercept")
            if intercept is None:
                intercept = landmark_mean(landmark_points)
            specs.append(KernelSpec("polynomial", degree=item["degree"],
                                    intercept=intercept))
    return specs


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


def _solve_main(spec, problem, Y, pattern, operators, nav, seed):
    lmk_cfg = spec["landmarks"]
    lmk = select_landmarks(nav, lmk_cfg["count"], lmk_cfg["strategy"], seed)
    kspecs = _kernel_specs_from_config(spec["kernels"], lmk.points)
    dims = ModelDims(
        n_rows=Y.shape[0], n_cols=Y.shape[1], n_landmarks=lmk.count,
        n_kernels=len(kspecs), depth=spec["dims"]["depth"],
        inner=tuple(spec["dims"]["inner"]),
    )
    config = SolverConfig(**{**spec["solver"], "seed": seed})
    return solve(problem, Y, pattern, operators, lmk, kspecs, dims, config)


def _run_methods(spec, ratio, repeat, seed, out_dir, trace_tag, solve_method, score):
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
            row = _metric_row(method, ratio, seed, score(X), seconds, spec["metrics"])
        except Exception as exc:  # a failed method is recorded, the cell goes on
            failures.append(f"method={method} {_error_message(exc)}")
            continue
        rows.append(row)
        if report is not None:
            notes += _warning_lines(method, ratio, repeat, report)
            if report.iterations and out_dir is not None:
                report.to_csv(out_dir / f"trace_{method}_{trace_tag}{ratio}_{repeat}.csv")
    return rows, notes, failures


def _run_cell_tvgs(spec, Y, graph, ratio, repeat, seed, out_dir):
    kind = spec["sampling"]["kind"]
    sampler = sample_p1 if kind == "p1" else sample_p2
    pattern = sampler(Y.shape[0], Y.shape[1], ratio, seed)
    bconf = SolverConfig(**{**spec["solver"], "seed": seed})

    def solve_method(method):
        if method == MAIN_METHOD:
            nav_cfg = spec["navigator"]
            nav = form_navigators_tvgs(Y, pattern, nav_cfg["mode"], graph,
                                       nav_cfg["delta_t"])
            X, _model, report = _solve_main(spec, TVGS, Y, pattern, graph, nav, seed)
            return X, report
        bspec = baselines.BaselineSpec(method, **spec["baseline"])  # rank and depth
        return baselines.run_baseline(bspec, Y, pattern, graph, bconf)

    def score(X):
        return compute_metrics(X, Y, observed_mask=pattern.mask,
                               missing_only=spec["missing_only_metrics"])

    return _run_methods(spec, ratio, repeat, seed, out_dir, "r", solve_method, score)


def _run_cell_dmri(spec, dataset, ratio, repeat, seed, out_dir):
    i1, i2, i3 = dataset.dims
    kind = spec["sampling"]["kind"]
    band = spec["navigator"]["upsilon"]
    if kind == "cartesian":
        pattern = cartesian_mask(i1, i2, i3, ratio, band, seed)
    else:
        pattern = with_band(radial_mask(i1, i2, i3, ratio, seed), i1, i2, band)

    def solve_method(method):
        if method != MAIN_METHOD:
            return ifft2_frames(np.where(pattern.mask, dataset.kspace, 0), i1, i2), None
        # work at unit k-space scale so kernel widths and weights are portable
        scale = float(np.abs(np.where(pattern.mask, dataset.kspace, 0)).max())
        if scale == 0:
            raise DataError("no observed k-space energy")
        Yn = dataset.kspace / scale
        nav = form_navigators_dmri(np.where(pattern.mask, Yn, 0), pattern, i1, i2, band)
        Xn, _model, report = _solve_main(spec, DMRI, Yn, pattern, (i1, i2, i3), nav, seed)
        return Xn * scale, report

    def score(X):
        return compute_metrics(X, dataset.ground_truth_image, observed_mask=pattern.mask,
                               image_dims=(i1, i2))

    return _run_methods(spec, ratio, repeat, seed, out_dir, "a", solve_method, score)


# ---------------------------------------------------------------------------
# sweep driver and output
# ---------------------------------------------------------------------------

def _fmt(val):
    if val is None:
        return ""
    if isinstance(val, float):
        return repr(val)
    return str(val)


def emit_results(rows: list[dict], path) -> None:
    """Stable long-format CSV; aggregate rows carry seed='mean'."""
    with open(path, "w") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(c)) for c in RESULT_COLUMNS) + "\n")


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
    out_dir = Path(output_dir if output_dir is not None else spec["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for log in ("errors.log", "warnings.log"):  # they describe this run only
        (out_dir / log).unlink(missing_ok=True)
    spec["output_dir"] = str(out_dir)
    with open(out_dir / "spec.resolved.json", "w") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)

    problem = spec["problem"]
    ratios = list(spec["sampling"]["ratios"])
    repeats = spec["repeats"]
    if problem == TVGS:
        data = spec["data"]
        if data["source"] == "synthetic":
            Y, coords = make_tvgs_synthetic(
                data["nodes"], data["times"], data["modes"], data["knn"],
                data["seed"], data["offset"],
            )
        else:
            Y, coords = load_tvgs_csv(data["data_path"], data["coords_path"])
        g = spec["graph"]
        graph = build_graph_operators(coords, g["k"], g["eps"], g["beta"], Y.shape[1])
        run_one = lambda ratio, rep, seed: _run_cell_tvgs(  # noqa: E731
            spec, Y, graph, ratio, rep, seed, out_dir)
    else:
        d = spec["data"]
        params = PhantomParams(period=d["period"], noise_snr_db=d["noise_snr_db"],
                               seed=d["seed"])
        dataset = make_phantom(d["i1"], d["i2"], d["i3"], params)
        run_one = lambda ratio, rep, seed: _run_cell_dmri(  # noqa: E731
            spec, dataset, ratio, rep, seed, out_dir)

    cells = []
    for i, ratio in enumerate(ratios):
        for rep in range(repeats):
            cells.append((ratio, rep, spec["base_seed"] + i * repeats + rep))

    results: dict[int, list[dict]] = {}
    notes: dict[int, list[str]] = {}
    errors: dict[int, str] = {}

    def worker(idx):
        ratio, rep, seed = cells[idx]
        try:
            results[idx], notes[idx], failures = run_one(ratio, rep, seed)
        except Exception as exc:  # the cell's set-up failed, the sweep continues
            failures = [_error_message(exc)]
        if failures:  # one line per cell, naming each failed method
            errors[idx] = f"cell ratio={ratio} repeat={rep}: " + "; ".join(failures)

    with ThreadPoolExecutor(max_workers=spec["workers"]) as pool:
        list(pool.map(worker, range(len(cells))))

    rows = [row for idx in sorted(results) for row in results[idx]]
    all_rows = rows + aggregate_rows(rows, spec["methods"], ratios)
    emit_results(all_rows, out_dir / "results.csv")
    if errors:
        with open(out_dir / "errors.log", "w") as fh:
            for idx in sorted(errors):
                fh.write(errors[idx] + "\n")
    lines = [line for idx in sorted(notes) for line in notes[idx]]
    if lines:
        with open(out_dir / "warnings.log", "w") as fh:
            fh.writelines(line + "\n" for line in lines)
    return rows
