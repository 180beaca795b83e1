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


def is_mode(side):
    """Whether a comparison side reads a mode: ``mode``, ``<x>.mode``, ``<x>.get("mode")`` or ``<x>["mode"]``."""
    if isinstance(side, ast.Call) and isinstance(side.func, ast.Attribute) and side.func.attr == "get":
        key = side.args[0] if side.args else None
    elif isinstance(side, ast.Subscript):
        key = side.slice
    else:
        return isinstance(side, ast.Attribute) and side.attr == "mode" or isinstance(side, ast.Name) and side.id == "mode"
    return isinstance(key, ast.Constant) and key.value == "mode"


def mode_comparisons(tree, module):
    """Qualified names of the functions holding a comparison with a mode."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{module}.{node.name}"
        if isinstance(node, ast.Compare):
            found.extend(owner for side in [node.left, *node.comparators] if is_mode(side))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, module)
    return found


def test_grid_mode_is_compared_only_in_the_allow_list():
    owners = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "sphere_grid.py":
            owners += mode_comparisons(ast.parse(path.read_text(), str(path)), path.stem)
    unlisted = sorted({owner for owner in owners if owner not in ALLOWED})
    assert unlisted == [], f"place surfaces through SphericalGrid.frame/project/zonal: {unlisted}"
    stale = sorted(set(ALLOWED) - set(owners))
    assert stale == [], f"allow-list entries that compare no mode: {stale}"
    snippet = ('def f(g):\n    return g.mode == "axisym"\nclass K:\n    def m(self, mode):\n'
               '        return 1 if mode != "x" else 2\ndef g(cfg):\n    return cfg.get("mode") == "full-s2"\n'
               'def h(cfg, key):\n    return "axisym" != cfg["mode"] and key != "mode" and cfg.get(key) == 1\n')
    assert mode_comparisons(ast.parse(snippet), "m") == ["m.f", "m.m", "m.g", "m.h"]
