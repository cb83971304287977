"""Rules the library source keeps.  Operators are used in the structure they
have and never stored as dense Kronecker systems: those live in
tests/oracles.py, as the references the fast solves are checked against."""

import ast
import inspect
import re
import textwrap
from pathlib import Path

from mkimpute import experiments, solver

SRC = Path(__file__).resolve().parents[1] / "src"


def test_library_builds_no_kronecker_product():
    calls = [f"{path.relative_to(SRC)}:{n}"
             for path in sorted(SRC.rglob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), start=1)
             if re.search(r"\bkron\s*\(", line)]
    assert calls == [], f"np.kron called in the library at {calls}"


def test_x_update_factorizes_nothing():
    # S, DD^T and their eigenpairs are fixed for a graph and belong to it; the
    # X update, its step cap and its band factor only read them
    for fn in (solver.consistent_smooth_solve, solver._cg_cap, solver.free_band_factor,
               solver._band_solve):
        body = inspect.getsource(fn)
        for pattern in (r"\beigh\b", r"delta\s*@\s*\w*delta", r"abs\(.*\)\.sum\("):
            assert not re.search(pattern, body), f"{fn.__name__} matches {pattern!r}"


def test_cg_step_masks_without_where():
    # the free-entry mask is applied in place by a float 0/1 array: np.where
    # would allocate a fresh array twice in every CG step
    tree = ast.parse(textwrap.dedent(inspect.getsource(solver.consistent_smooth_solve)))
    closures = [node for node in ast.walk(tree.body[0])
                if isinstance(node, ast.FunctionDef) and node is not tree.body[0]]
    assert {fn.name for fn in closures} == {"apply_op", "precond"}
    pcg = ast.parse(textwrap.dedent(inspect.getsource(solver._pcg))).body[0]
    for fn in [pcg, *closures]:
        calls = [node for node in ast.walk(fn)
                 if isinstance(node, ast.Attribute) and node.attr == "where"]
        assert calls == [], f"{fn.name} calls np.where"


def _named(func):
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _owned_nodes(node, owner):
    """(innermost enclosing function, node) for every node below ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{owner}.{child.name}"
        yield inner, child
        yield from _owned_nodes(child, inner)


def test_one_sca_outer_loop():
    # the step schedule, the convex combination and the loop over the outer
    # iterations live in solver.sca_loop alone; every model only supplies its
    # best responses and one evaluate of each iterate
    schedules, combinations, outer_loops = [], [], []
    for path in sorted(SRC.rglob("*.py")):
        for owner, node in _owned_nodes(ast.parse(path.read_text()), path.stem):
            if isinstance(node, ast.Call) and _named(node.func) == "sca_step_schedule":
                schedules.append(owner)
            if isinstance(node, ast.Call) and _named(node.func) == "sca_extrapolate":
                combinations.append(owner)
            if (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
                    and _named(node.iter.func) == "range"
                    and any(isinstance(sub, ast.Attribute) and sub.attr == "outer_iters"
                            for sub in ast.walk(node.iter))):
                outer_loops.append(owner)
    assert schedules == ["solver.sca_loop"], f"sca_step_schedule called in {schedules}"
    assert combinations == ["solver.sca_loop"], f"sca_extrapolate called in {combinations}"
    assert outer_loops == ["solver.sca_loop"], f"outer iterations looped in {outer_loops}"


def test_only_apply_sampling_zero_fills():
    # the zero-filled observation has one owner, sampling.apply_sampling, which
    # also checks the data's shape against the mask
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for owner, node in _owned_nodes(ast.parse(path.read_text()), path.stem):
            if (isinstance(node, ast.Call) and _named(node.func) == "where"
                    and len(node.args) == 3 and isinstance(node.args[2], ast.Constant)
                    and type(node.args[2].value) is int and node.args[2].value == 0
                    and owner != "sampling.apply_sampling"):
                sites.append(f"{owner}:{node.lineno}")
    assert sites == [], f"where(..., ..., 0) outside sampling.apply_sampling at {sites}"


def test_resolve_spec_builds_nothing():
    # resolve_spec checks the schema alone: data, graph, masks, navigators,
    # landmarks, kernels and dims are built, and their sizes checked, by
    # experiments.set_up, so the set-up's cost has one place
    builders = re.compile(r"make_\w+|load_tvgs_csv|build_graph_operators|sample_\w+|\w+_mask"
                          r"|with_band|form_navigators_\w+|select_landmarks"
                          r"|_kernel_specs_from_config|ModelDims")
    tree = ast.parse(textwrap.dedent(inspect.getsource(experiments.resolve_spec)))
    calls = sorted({_named(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)})
    built = [name for name in calls if name and builders.fullmatch(name)]
    assert built == [], f"resolve_spec calls {built}"


# Library names with no caller in the library or the benchmark, kept for a reason.
KEPT_WITHOUT_CALLER = {
    "load_kt": "reads the k-space files `mkimpute phantom` writes, next to save_kt",
    "load_mask_csv": "reads the masks `mkimpute mask` writes, next to save_mask_csv",
    "count_unknowns": "the parameter count of acceptance criterion 1",
}


def _references(tree):
    """Every name a module refers to: by name, attribute, import or string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value  # the benchmark's tracer names the layers it wraps


def test_every_library_function_and_class_has_a_caller():
    # a caller is library code outside __init__.py, which only re-exports, or
    # the benchmark; tests alone do not keep a function alive
    library = sorted((SRC / "mkimpute").glob("*.py"))
    bench = sorted((SRC.parent / "bench").rglob("*.py"))
    defined = {node.name for path in library for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used = {name for path in library + bench if path.name != "__init__.py"
            for name in _references(ast.parse(path.read_text()))}
    uncalled = sorted(defined - used - set(KEPT_WITHOUT_CALLER))
    assert uncalled == [], f"no caller in the library or the benchmark: {uncalled}"
    stale = sorted(set(KEPT_WITHOUT_CALLER) - (defined - used))
    assert stale == [], f"kept without a caller, yet gone or called: {stale}"
