"""The flow steps run without LAPACK: nothing run_flow or the area-rate check
reaches calls np.linalg.

A first np.linalg call maps LAPACK's pages into the process, which showed as
peak memory on flow runs.  Calls are followed by name across the package,
which over-approximates the call graph.  Nothing is exempt.
"""

import ast
from pathlib import Path

import curvelab

PACKAGE = Path(curvelab.__file__).parent


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


def reached_linalg_users(definitions, start):
    """The functions reachable from start, by called name, that touch np.linalg."""
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
        isinstance(node, ast.Attribute) and node.attr == "linalg" for node in ast.walk(definitions[q])))


def test_run_flow_reaches_no_np_linalg():
    definitions = {}
    for path in sorted(PACKAGE.glob("*.py")):
        definitions.update(functions(ast.parse(path.read_text(), str(path)), path.stem))
    assert "flows._extrapolated_step" in definitions
    assert reached_linalg_users(definitions, "flows.run_flow") == []
    assert reached_linalg_users(definitions, "flows.area_evolution_consistency") == []
    snippet = ("import numpy as np\nclass SphericalGrid:\n    def solve(self, v):\n        return np.linalg.inv(v)\n"
               "    def spectrum(self):\n        return np.linalg.eigvals(1)\n"
               "def step(g, v):\n    return g.spectrum() + g.solve(v)\n")
    probe = functions(ast.parse(snippet), "sphere_grid")
    assert reached_linalg_users(probe, "sphere_grid.step") == [
        "sphere_grid.SphericalGrid.solve", "sphere_grid.SphericalGrid.spectrum"]
