"""Flow and verify runs go without LAPACK: nothing that run_flow, the decay fit
or the ``flow`` and ``verify`` commands (cli.cmd_flow, cli.cmd_verify) reach
calls np.linalg or a numpy helper built on it.

A first LAPACK call maps LAPACK's pages into the process, which showed as
peak memory on flow runs.  numpy reaches LAPACK from outside np.linalg too:
np.polyfit solves its line by lstsq and np.roots takes eigenvalues, so a
function that names one of LAPACK_NAMES counts as a LAPACK user.  Calls and
bare names are followed by name across the package, through module-level
tables too (the CLI calls each config reader through one), which
over-approximates the call graph.  Nothing is exempt.
"""

import ast
from pathlib import Path

import curvelab

PACKAGE = Path(curvelab.__file__).parent
# np.linalg, and numpy's helpers that call it
LAPACK_NAMES = {"linalg", "polyfit", "lstsq", "roots"}
ENTRY_POINTS = ("flows.run_flow", "flows.estimate_decay_rate", "cli.cmd_flow", "cli.cmd_verify")


def functions(tree, module):
    """Qualified name -> definition of each function and method in a module, and of each
    module-level name bound by one assignment (a table of functions, say)."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[".".join((module, *scope, child.name))] = child
            elif not scope and isinstance(child, ast.Assign) and isinstance(child.targets[0], ast.Name):
                found[f"{module}.{child.targets[0].id}"] = child

    visit(tree, ())
    return found


def reached_lapack_users(definitions, start):
    """The functions reachable from start, by called or bare name, that name np.linalg or a helper on it."""
    by_name = {}
    for qualified in definitions:
        by_name.setdefault(qualified.rsplit(".", 1)[1], []).append(qualified)
    seen, todo = set(), [start]
    while todo:
        qualified = todo.pop()
        if qualified in seen:
            continue
        seen.add(qualified)
        for node in ast.walk(definitions[qualified]):
            if isinstance(node, ast.Name):  # a call, or a function passed on or kept in a table
                todo += by_name.get(node.id, [])
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                todo += by_name.get(node.func.attr, [])
    return sorted(q for q in seen if any(
        (node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)) in LAPACK_NAMES
        for node in ast.walk(definitions[q])))


def test_flow_and_verify_reach_no_lapack():
    definitions = {}
    for path in sorted(PACKAGE.glob("*.py")):
        definitions.update(functions(ast.parse(path.read_text(), str(path)), path.stem))
    assert "flows._extrapolated_step" in definitions
    for start in ENTRY_POINTS:
        assert reached_lapack_users(definitions, start) == [], start
    snippet = ("import numpy as np\nclass SphericalGrid:\n    def solve(self, v):\n        return np.linalg.inv(v)\n"
               "    def spectrum(self):\n        return np.linalg.eigvals(1)\n"
               "def fit(t, g):\n    return np.polyfit(t, g, 1)\n"
               "def eig(v):\n    return np.linalg.eig(v)\nREADERS = {'eig': eig}\n"
               "def call(fn, v):\n    return fn(v)\n"
               "def step(g, v):\n    return g.spectrum() + g.solve(v) + call(fit, v) + READERS['eig'](v)\n")
    probe = functions(ast.parse(snippet), "sphere_grid")
    assert reached_lapack_users(probe, "sphere_grid.step") == [
        "sphere_grid.SphericalGrid.solve", "sphere_grid.SphericalGrid.spectrum", "sphere_grid.eig",
        "sphere_grid.fit"]
