"""Span tracer for the benchmark's traced runs.

The tracer replaces module attributes that mkimpute's layers are called
through (for example ``mkimpute.solver.update_B``) with wrappers that record
one span per call: name, start, end and the span that caused it, kept on a
per-thread stack so the sweep's worker threads each build their own tree.
A span's self time is its duration minus the durations of its direct
children on the same thread; the per-layer ``.s`` metrics are self times, so
they add up to the time spent inside wrapped calls, none of it counted twice.

Nothing in ``src/`` changes: every wrapper is installed from here and
removed again when the traced operation ends.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager

# (module, attribute, span name).  One function object is often bound under
# several modules (``from .mri import fft2_frames`` in the solver), so every
# binding a layer is called through is listed.
LAYER_WRAPPERS = (
    ("mkimpute.solver", "solve", "solver.solve"),
    ("mkimpute.solver", "tvgs_update_X", "solver.update_X"),
    ("mkimpute.solver", "dmri_update_X", "solver.update_X"),
    ("mkimpute.solver", "update_factor", "solver.update_factor"),
    ("mkimpute.solver", "update_B", "solver.update_B"),
    ("mkimpute.solver", "dmri_update_Z", "solver.update_Z"),
    ("mkimpute.solver", "sca_extrapolate", "solver.extrapolate"),
    ("mkimpute.solver", "full_objective", "solver.diagnostics"),
    ("mkimpute.solver", "affine_residual", "solver.diagnostics"),
    ("mkimpute.solver", "predict", "model.predict"),
    ("mkimpute.solver", "fft2_frames", "mri.fft"),
    ("mkimpute.solver", "ifft2_frames", "mri.fft"),
    ("mkimpute.solver", "dft_temporal", "mri.fft"),
    ("mkimpute.solver", "idft_temporal", "mri.fft"),
    ("mkimpute.solver", "build_kernel_matrix", "kernels"),
    ("mkimpute.kernels", "median_distance_gaussian", "kernels"),
    ("mkimpute.kernels", "default_kernel_dictionary", "kernels"),
    ("mkimpute.experiments", "median_distance_gaussian", "kernels"),
    ("mkimpute.baselines", "build_kernel_matrix", "kernels"),
    ("mkimpute.navigators", "form_navigators_tvgs", "navigators"),
    ("mkimpute.navigators", "form_navigators_dmri", "navigators"),
    ("mkimpute.navigators", "select_landmarks", "navigators"),
    ("mkimpute.graphs", "build_graph_operators", "graphs"),
    ("mkimpute.experiments", "build_graph_operators", "graphs"),
    ("mkimpute.sampling", "sample_p1", "sampling"),
    ("mkimpute.sampling", "radial_mask", "sampling"),
    ("mkimpute.sampling", "with_band", "sampling"),
    ("mkimpute.experiments", "sample_p1", "sampling"),
    ("mkimpute.baselines", "mmf_solve", "baselines.mmf"),
    ("mkimpute.baselines", "nbp_solve", "baselines.nbp"),
    ("mkimpute.baselines", "krg_solve", "baselines.krg"),
    ("mkimpute.baselines", "kgl_solve", "baselines.kgl"),
    ("mkimpute.baselines", "consistent_smooth_solve", "baselines.x_solve"),
    ("mkimpute.metrics", "mae", "metrics"),
    ("mkimpute.metrics", "nrmse", "metrics"),
    ("mkimpute.experiments", "compute_metrics", "metrics"),
    ("mkimpute.experiments", "run_experiment", "experiments.run"),
    ("mkimpute.experiments", "_run_cell_tvgs", "experiments.cell"),
)


def _count_results(tracer: "Tracer", span: str, result) -> None:
    """Counters read from a layer's return value, at the boundary the work
    happens behind."""
    if span == "solver.update_B":
        stats = result[1]
        tracer.count("solver.b_inner_iters", stats["iterations"])
        tracer.count("solver.b_cap_hits", 0 if stats["converged"] else 1)
    elif span == "solver.update_X" and isinstance(result, tuple):
        tracer.count("solver.cg_iters", result[1])  # the graph flavour runs CG
    elif span == "solver.solve":
        tracer.count("solver.objective", result[2].objective[-1])


class Tracer:
    """In-memory spans and counters; not shared between runs."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.trees: dict[int, list[dict]] = {}  # thread id -> spans, parents first
        self.totals: dict[str, list[float]] = {}  # name -> [calls, seconds, self seconds]
        self.counters: dict[str, float] = {}

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> dict:
        stack = self._stack()
        tid = threading.get_ident()
        with self._lock:
            tree = self.trees.setdefault(tid, [])
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": stack[-1]["index"] if stack else None,
                    "index": len(tree), "children_s": 0.0}
            tree.append(span)
        stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = span["end"] - span["start"]
        if stack:
            stack[-1]["children_s"] += duration
        with self._lock:
            row = self.totals.setdefault(span["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - span["children_s"]

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0,))[0])

    def self_seconds(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[2])

    def _wrap(self, fn, span_name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            _count_results(self, span_name, result)
            return result

        return traced

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """The sweep's thread pool; its span is the time
            run_experiment waits for its cells."""

            def __enter__(self):
                self._bench_span = tracer.begin("experiments.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.end(self._bench_span)

        return TracedPool

    @contextmanager
    def installed(self):
        """Wrap every layer attribute for the duration of the block."""
        patched = []
        try:
            for module_name, attr, span_name in LAYER_WRAPPERS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)  # a renamed layer fails here, loudly
                setattr(module, attr, self._wrap(original, span_name))
                patched.append((module, attr, original))
            experiments = importlib.import_module("mkimpute.experiments")
            pool = experiments.ThreadPoolExecutor
            experiments.ThreadPoolExecutor = self._pool_class(pool)
            patched.append((experiments, "ThreadPoolExecutor", pool))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def span_dump(self) -> dict[str, list[dict]]:
        """Span trees per thread, times relative to the first span."""
        starts = [t[0]["start"] for t in self.trees.values() if t]
        t0 = min(starts) if starts else 0.0
        return {
            str(tid): [{"name": s["name"], "parent": s["parent"],
                        "start": s["start"] - t0, "end": s["end"] - t0}
                       for s in tree]
            for tid, tree in self.trees.items()
        }
