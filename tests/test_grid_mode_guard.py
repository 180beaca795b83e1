"""The grid owns its embedding: grid modes are compared only where listed."""

import ast
from pathlib import Path

import curvelab

PACKAGE = Path(curvelab.__file__).parent

# module.function -> why it may branch on the grid mode
ALLOWED = {
    "geometry._radial_field": "closed-form principal pair per mode",
    "geometry._principal_radii": "eigenvalues of b per mode",
    "geometry.inverse_metric": "support inverse metric b^-2 only",
    "geometry.centroid": "returns the format SphericalGrid.project takes",
    "shapes.harmonic_mode": "Legendre vs associated Legendre harmonics",
    "shapes._mode_tables": "zonal vs full harmonic tables",
    "cli.build_grid": "reads the mode a config names",
}


def mode_comparisons(tree, module):
    """Qualified names of the functions holding a comparison with a mode."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{module}.{node.name}"
        if isinstance(node, ast.Compare):
            for side in [node.left, *node.comparators]:
                if (isinstance(side, ast.Attribute) and side.attr == "mode") or (
                        isinstance(side, ast.Name) and side.id == "mode"):
                    found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, module)
    return found


def test_grid_mode_is_compared_only_in_the_allow_list():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "sphere_grid.py":
            for owner in mode_comparisons(ast.parse(path.read_text(), str(path)), path.stem):
                if owner not in ALLOWED:
                    found.setdefault(owner, 0)
                    found[owner] += 1
    assert found == {}, f"place surfaces through SphericalGrid.frame/project/zonal: {found}"
    snippet = 'def f(g):\n    return g.mode == "axisym"\nclass K:\n    def m(self, mode):\n        return 1 if mode != "x" else 2\n'
    assert mode_comparisons(ast.parse(snippet), "m") == ["m.f", "m.m"]
