"""mkimpute benchmark: one workload, timed for a fixed number of seconds.

    python3 bench/run.py --workload tvgs-accept --seed 0 --seconds 20 --trace 0

Run from the repository root.  The BLAS thread count is pinned to 1 before
numpy is imported.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics from a traced run.  A fuller record (environment,
every sample, failures, the span trees) goes to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

SCHEMA_VERSION = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES_PER_OP = 2
SETUP_SAMPLE_S = 0.05
MIN_OPS = 3

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

LAYER_SECONDS = (
    "solver.update_B", "solver.update_X", "solver.update_factor", "solver.update_Z",
    "solver.extrapolate", "solver.diagnostics", "model.predict", "mri.fft",
    "baselines.mmf", "baselines.nbp", "baselines.krg", "baselines.kgl",
    "baselines.x_solve", "navigators", "kernels", "graphs", "sampling",
)
LAYER_CALLS = ("solver.update_B", "model.predict", "mri.fft")
LAYER_COUNTERS = ("solver.b_inner_iters", "solver.b_cap_hits", "solver.cg_iters")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # the names are spelled out because workloads.py imports numpy, which
    # has to wait until the BLAS thread count is pinned
    ap.add_argument("--workload", required=True,
                    choices=("tvgs-accept", "tvgs-multikernel", "dmri-radial",
                             "baseline-sweep"))
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 is the acceptance fixture's")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="how long the timed operations run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("bench", "full", "tiny"), default="bench",
                    help="problem sizes: bench (default), full (the fixtures as "
                         "specified), tiny (smoke test)")
    return ap.parse_args(argv)


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _blas_threads(np):
    """Threads the bundled OpenBLAS will use, or None when it cannot be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {}
    return {
        "schema_version": SCHEMA_VERSION,
        "git_sha": _git_sha(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(np),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "profile": args.profile,
    }


class Ledger:
    """Operations attempted and failed, with the output digest per instance."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}

    def record(self, label: str, seed: int, call):
        """Run one checked operation; returns (seconds, outcome or None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            outcome = call()
        except Exception:  # an operation that raises is a failure, not the end of the run
            seconds = time.perf_counter() - t0
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return seconds, None
        seconds = time.perf_counter() - t0
        problems = list(outcome.problems)
        first = self.digests.setdefault(seed, outcome.digest)
        if outcome.digest != first:
            problems.append(f"output digest differs from the first run of seed {seed}")
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return seconds, outcome


def measure(args):
    import workloads

    p = workloads.params(args.workload, args.profile, OUT_DIR / "tmp")
    ledger = Ledger()
    setup_times = []

    def timed_build():
        # one sample is the mean over back-to-back builds lasting at least
        # SETUP_SAMPLE_S, so millisecond builds are not timed one by one
        builds, t0 = 0, time.perf_counter()
        while True:
            inputs = workloads.build(args.workload, p, args.seed)
            builds += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= SETUP_SAMPLE_S:
                setup_times.append(elapsed / builds)
                return inputs

    # One untimed warm-up operation on the fixture instance.  Quality is
    # reported from it, so runs with different seeds compare quality on the
    # same instance; every seeded operation is still gated for correctness.
    fixture = workloads.build(args.workload, p, workloads.FIXTURE_SEED)
    _, fixture_outcome = ledger.record("fixture", workloads.FIXTURE_SEED,
                                       lambda: workloads.run(args.workload, p, fixture))

    tracer = None
    traced_times, plain_times = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(plain_times) < MIN_OPS:
        if args.trace and len(traced_times) <= len(plain_times):
            import tracing

            tracer = tracer or tracing.Tracer()
            with tracer.installed():
                # a traced operation includes its set-up, so the set-up
                # layers are measured too; only the solve part is timed
                inputs = workloads.build(args.workload, p, args.seed)
                seconds, _ = ledger.record(f"op {ledger.attempted}", args.seed,
                                           lambda: workloads.run(args.workload, p, inputs))
            traced_times.append(seconds)
        else:
            # set-up is sampled between operations, so both medians cover
            # the same stretch of the run
            for _ in range(SETUP_SAMPLES_PER_OP):
                inputs = timed_build()
            seconds, _ = ledger.record(f"op {ledger.attempted}", args.seed,
                                       lambda: workloads.run(args.workload, p, inputs))
            plain_times.append(seconds)

    quality = fixture_outcome.quality if fixture_outcome else {}
    samples = {"setup_s": setup_times, "solve_s": plain_times, "traced_s": traced_times}
    if args.trace:
        metrics = layer_metrics(args.workload, tracer, traced_times, plain_times, quality)
    else:
        metrics = end_to_end_metrics(ledger, setup_times, plain_times, quality)
    record = {"samples": samples, "quality": quality, "failures": ledger.failures,
              "attempted": ledger.attempted, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        record["spans"] = tracer.span_dump()
    return metrics, record, ledger


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end_metrics(ledger, setup_times, solve_times, quality) -> dict:
    ok = ledger.attempted - len(ledger.failures)
    return {
        "solve_s": (statistics.median(solve_times), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        # 0 only when the fixture operation failed, which also fails the run
        "mae": (quality.get("mae", 0.0), "1"),
        "nrmse": (quality.get("nrmse", 0.0), "1"),
        "ok_frac": (ok / ledger.attempted, "ratio"),
    }


def layer_metrics(workload, tracer, traced_times, plain_times, quality) -> dict:
    import workloads

    missing = [name for name in workloads.EXPECTED_LAYERS[workload]
               if tracer.calls(name) == 0]
    if missing:
        raise RuntimeError(f"traced {workload}: no calls reached {', '.join(missing)}; "
                           "a layer was renamed or bypassed, update bench/tracing.py")
    n = len(traced_times)
    out = {}
    for name in LAYER_SECONDS:
        out[f"{name}.s"] = (tracer.self_seconds(name) / n, "s")
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = (tracer.calls(name) / n, "count")
    for name in LAYER_COUNTERS:
        out[name] = (tracer.counters.get(name, 0) / n, "count")
    out["solver.objective"] = (tracer.counters.get("solver.objective", 0.0) / n, "1")
    out["solver.loop_self.s"] = (tracer.self_seconds("solver.solve") / n, "s")
    out["metrics.s"] = (tracer.self_seconds("metrics") / n, "s")
    out["experiments.self.s"] = ((tracer.self_seconds("experiments.run")
                                  + tracer.self_seconds("experiments.cell")) / n, "s")
    for m in workloads.SWEEP_MODELS:
        out[f"baselines.{m}.mae"] = (quality.get(f"mae.{m}", 0.0), "1")
    out["trace.overhead_ratio"] = (
        statistics.median(traced_times) / statistics.median(plain_times), "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads BLAS
    src = ROOT / "src"
    if not (src / "mkimpute" / "__init__.py").is_file():
        print(f"bench: no mkimpute sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    env = environment(args)
    metrics, record, ledger = measure(args)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for failure in ledger.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w") as fh:
        json.dump({"environment": env, "metrics": result["metrics"], **record}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
