"""Flow and verify runs go without LAPACK: nothing that run_flow, the area-rate
check, the decay fit or the ``flow`` and ``verify`` commands (cli.cmd_flow,
cli.cmd_verify) reach calls np.linalg or a numpy helper built on it.

A first LAPACK call maps LAPACK's pages into the process, which showed as
peak memory on flow runs.  numpy reaches LAPACK from outside np.linalg too:
np.polyfit solves its line by lstsq and np.roots takes eigenvalues, so a
function that names one of LAPACK_NAMES counts as a LAPACK user.  Calls are
followed by name across the package, which over-approximates the call graph.
Nothing is exempt.
"""

import ast
from pathlib import Path

import curvelab

PACKAGE = Path(curvelab.__file__).parent
# np.linalg, and numpy's helpers that call it
LAPACK_NAMES = {"linalg", "polyfit", "lstsq", "roots"}
ENTRY_POINTS = ("flows.run_flow", "flows.area_evolution_consistency", "flows.estimate_decay_rate",
                "cli.cmd_flow", "cli.cmd_verify")


def functions(tree, module):
    """Qualified name -> definition of each function and method in a module."""
    found = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[".".join((module, *scope, child.name))] = child

    visit(tree, ())
    return found


def reached_lapack_users(definitions, start):
    """The functions reachable from start, by called name, that name np.linalg or a helper on it."""
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
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                todo += by_name.get(name, [])
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
               "def step(g, v):\n    return g.spectrum() + g.solve(v) + fit(v, v)\n")
    probe = functions(ast.parse(snippet), "sphere_grid")
    assert reached_lapack_users(probe, "sphere_grid.step") == [
        "sphere_grid.SphericalGrid.solve", "sphere_grid.SphericalGrid.spectrum", "sphere_grid.fit"]
