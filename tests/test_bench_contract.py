"""The benchmark's traced run wraps mkimpute layers by (module, attribute)
and reads counters from their results; every binding it names and every
result key it reads must exist, so a refactor that drops one fails here and
not only in the traced benchmark."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mkimpute.graphs import build_graph_operators
from mkimpute.model import ModelDims, init_factors, predict
from mkimpute.sampling import sample_p1
from mkimpute.solver import tvgs_update_X, update_B

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layer_wrappers():
    return _tracing_module().LAYER_WRAPPERS


@pytest.mark.parametrize("module_name,attr,span", _layer_wrappers())
def test_traced_binding_exists(module_name, attr, span):
    assert callable(getattr(importlib.import_module(module_name), attr, None)), span


def test_traced_counters_read_update_b_stats():
    # the traced run counts B Newton steps and cap hits from update_B's stats
    tracing = _tracing_module()
    model = init_factors(ModelDims(6, 4, 3, 1, 2, (2,)), 0, np.float64)
    X_hat = np.random.default_rng(0).standard_normal((6, 4))
    result = update_B(X_hat, model, 0.1, 1.0)
    tracer = tracing.Tracer()
    tracing._count_results(tracer, "solver.update_B", result)
    assert tracer.counters == {"solver.b_inner_iters": result[1]["iterations"],
                               "solver.b_cap_hits": 0}


def test_traced_counters_read_the_direct_b_answer():
    # at lambda1 = 0 update_B returns the ridge answer after 0 Newton steps,
    # with every stats key the traced run reads
    tracing = _tracing_module()
    model = init_factors(ModelDims(6, 4, 3, 2, 2, (2,)), 0, np.float64)
    X_hat = np.random.default_rng(0).standard_normal((6, 4))
    result = update_B(X_hat, model, 0.0, 1.0)
    assert {"iterations", "residual", "converged"} <= result[1].keys()
    tracer = tracing.Tracer()
    tracing._count_results(tracer, "solver.update_B", result)
    assert tracer.counters == {"solver.b_inner_iters": 0, "solver.b_cap_hits": 0}


def test_traced_counters_read_the_x_update_cg_steps():
    # the traced run counts CG steps from tvgs_update_X's second result, called
    # as the engine calls it: with the model's prediction as its target
    tracing = _tracing_module()
    rng = np.random.default_rng(0)
    model = init_factors(ModelDims(6, 5, 3, 1, 2, (2,)), 0, np.float64)
    Y = rng.standard_normal((6, 5))
    graph = build_graph_operators(rng.random((2, 6)), 2, 0.3, 1.0, 5)
    result = tvgs_update_X(Y, sample_p1(6, 5, 0.4, seed=0), predict(model), np.zeros((6, 5)),
                           graph, 0.5, 1.0)
    tracer = tracing.Tracer()
    tracing._count_results(tracer, "solver.update_X", result)
    assert result[1] > 0
    assert tracer.counters == {"solver.cg_iters": result[1]}
