"""Rules the library source keeps.  Operators are used in the structure they
have and never stored as dense Kronecker systems: those live in
tests/oracles.py, as the references the fast solves are checked against."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
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


def test_library_writes_csv_only_through_the_csv_module():
    # a hand-joined row quotes nothing: a field with a comma would split
    joins = [f"{path.relative_to(SRC)}:{n}"
             for path in sorted(SRC.rglob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), start=1)
             if re.search(r"""(['"]),\1\.join\(""", line)]
    assert joins == [], f'",".join( called in the library at {joins}'


def test_x_update_factorizes_nothing():
    # S, DD^T and their eigenpairs are fixed for a graph and belong to it; the
    # X update, its step cap and its band factor only read them
    for fn in (solver.consistent_smooth_solve, solver._cg_cap, solver.free_band_factor,
               solver._band_solve):
        body = inspect.getsource(fn)
        for pattern in (r"\beigh\b", r"delta\s*@\s*\w*delta", r"abs\(.*\)\.sum\("):
            assert not re.search(pattern, body), f"{fn.__name__} matches {pattern!r}"


def _fresh_interpreter(code, *args):
    """Run code in a fresh interpreter, as this one has imported the test
    oracles; returns the scipy modules it holds at the end."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(SRC), os.environ.get("PYTHONPATH")]))}
    code += "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    done = subprocess.run([sys.executable, "-c", "import json, sys\n" + code, *args],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def test_library_imports_no_heavy_scipy_subpackage():
    # scipy.signal alone loads stats, optimize, interpolate, integrate and
    # ndimage with it: some 350 modules and 35 MB of resident memory.  The
    # library's one scipy import is scipy.linalg.lapack, at its first band
    # factor
    loaded = _fresh_interpreter("import mkimpute.cli, mkimpute.experiments")
    heavy = {f"scipy.{name}"
             for name in ("signal", "stats", "optimize", "interpolate", "integrate", "ndimage")}
    found = sorted(m for m in loaded if ".".join(m.split(".")[:2]) in heavy)
    assert found == [], f"importing the library loads {found[:5]}"


def test_scipy_is_imported_only_inside_the_two_lapack_functions():
    # at module level, scipy.linalg would load with every import of the
    # library, and scipy.spatial would bring scipy.sparse with it
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        for owner, node in _owned_nodes(ast.parse(path.read_text()), path.stem):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            sites += [(owner, name) for name in names if name.split(".")[0] == "scipy"]
    assert sorted(sites) == [("solver.dpbtrf", "scipy.linalg.lapack"),
                             ("solver.dpbtrs", "scipy.linalg.lapack")], sites


# runs each argument as one mkimpute command line, each of which must exit 0
_CLI_RUNS = ("from mkimpute import cli\n"
             "assert [cli.main(a.split()) for a in sys.argv[1:]] == [0] * (len(sys.argv) - 1)")


def _run_command(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return f"run {path} --output {tmp_path / 'out'}"


def test_k_space_paths_load_no_scipy(tmp_path):
    # a k-space solve runs on numpy's FFTs and dense solves; its median
    # kernel width is measured without scipy.spatial
    run = _run_command(tmp_path, {
        "problem": "dmri", "methods": ["mlkr", "zero-fill"],
        "data": {"source": "phantom", "i1": 16, "i2": 16, "i3": 8},
        "sampling": {"kind": "radial", "ratios": [4.0]}, "landmarks": {"count": 4},
        "kernels": [{"kind": "gaussian", "sigma": "median"}],
        "solver": {"lambda2": 2.0, "outer_iters": 3}})
    loaded = _fresh_interpreter("import mkimpute.experiments\n" + _CLI_RUNS, run,
                                f"phantom 16x16x8 {tmp_path / 'p.kt'}",
                                f"mask radial {tmp_path / 'm.csv'} --i1 16 --i2 16 --frames 4")
    assert loaded == []
    assert (tmp_path / "out" / "results.csv").exists()


def test_a_graph_solve_loads_scipy_linalg_alone(tmp_path):
    # the X update's band factor is the one user of scipy
    run = _run_command(tmp_path, {
        "problem": "tvgs", "methods": ["mlkr"],
        "data": {"source": "synthetic", "nodes": 14, "times": 16, "modes": 2, "knn": 3},
        "sampling": {"kind": "p1", "ratios": [0.5]}, "landmarks": {"count": 5},
        "kernels": [{"kind": "gaussian", "sigma": "median"}],
        "solver": {"lambda_L": 0.02, "outer_iters": 3}})
    loaded = _fresh_interpreter(_CLI_RUNS, run)
    assert "scipy.linalg" in loaded
    assert [m for m in loaded if m.startswith(("scipy.spatial", "scipy.sparse"))] == []


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
    # the step schedule, the convex combination, the consistency record and
    # the loop over the outer iterations live in solver.sca_loop alone (and
    # the k-space engine's last row, which records the returned X's
    # residual); every model only supplies its best responses and one
    # evaluate of each iterate
    schedules, combinations, consistency, outer_loops = [], [], [], []
    for path in sorted(SRC.rglob("*.py")):
        for owner, node in _owned_nodes(ast.parse(path.read_text()), path.stem):
            if isinstance(node, ast.Call) and _named(node.func) == "sca_step_schedule":
                schedules.append(owner)
            if isinstance(node, ast.Call) and _named(node.func) == "sca_extrapolate":
                combinations.append(owner)
            if isinstance(node, ast.Call) and _named(node.func) == "consistency_residual":
                consistency.append(owner)
            if (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
                    and _named(node.iter.func) == "range"
                    and any(isinstance(sub, ast.Attribute) and sub.attr == "outer_iters"
                            for sub in ast.walk(node.iter))):
                outer_loops.append(owner)
    assert schedules == ["solver.sca_loop"], f"sca_step_schedule called in {schedules}"
    assert combinations == ["solver.sca_loop"], f"sca_extrapolate called in {combinations}"
    assert consistency == ["solver.sca_loop", "solver.solve_from_model"], (
        f"consistency_residual called in {consistency}")
    assert outer_loops == ["solver.sca_loop"], f"outer iterations looped in {outer_loops}"


def test_one_link_solve_and_dense_solves_in_two_places():
    # every free link of a chain, the mmf reduction's B and the coupled
    # blocks of an inner link included, is solved by chain_link_solve through
    # solver.update_factor or the kernel chains' best responses, in its wings'
    # Gram eigenbases; np.linalg.solve serves only the B update's Newton
    # systems: a second ridge, link-solve or coupled-solve path fails here
    link_solves, dense_solves, names = set(), set(), set()
    for path in sorted(SRC.rglob("*.py")):
        for owner, node in _owned_nodes(ast.parse(path.read_text()), path.stem):
            function = ".".join(owner.split(".")[:2])  # its closures count as itself
            names.add(owner.split(".")[-1])
            if isinstance(node, ast.Call) and _named(node.func) == "chain_link_solve":
                link_solves.add(function)
            if (isinstance(node, ast.Attribute) and node.attr == "solve"
                    and _named(node.value) == "linalg"):
                dense_solves.add(function)
    assert link_solves == {"solver.update_factor", "baselines._kernel_chain_solve"}, link_solves
    assert dense_solves == {"solver.update_B"}, dense_solves
    assert "_coupled_block_solve" not in names


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
