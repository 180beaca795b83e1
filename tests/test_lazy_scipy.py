"""curvelab runs on numpy alone: no module of the package imports scipy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import curvelab

PACKAGE = Path(curvelab.__file__).parent


def scipy_imports(tree):
    """(line, qualified name of the enclosing function or None) of each scipy import."""
    found = []

    def visit(node, scope, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
            if not isinstance(node, ast.ClassDef):
                function = ".".join(scope)
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            found.append((node.lineno, function))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, function)

    visit(tree, (), None)
    return found


def test_the_package_imports_no_scipy():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for line, function in scipy_imports(ast.parse(path.read_text(), str(path))):
            found.setdefault(path.name, []).append((line, function))
    assert found == {}, f"scipy imported by the package: {found}"
    snippet = (
        "import scipy\nfrom scipy.special import lpmv\nimport scipy.sparse as sp\n"
        "try:\n    import scipy.fft\nexcept ImportError:\n    pass\n"
        "class K:\n    from scipy import integrate\n"
        "    def tabulated():\n        from scipy.interpolate import CubicSpline\n"
        "def ac11():\n    def rhs():\n        import scipy.integrate\n"
        "import scipyx\nfrom . import scipy_helpers\n"
    )
    assert scipy_imports(ast.parse(snippet)) == [
        (1, None), (2, None), (3, None), (5, None), (9, None), (11, "K.tabulated"), (14, "ac11.rhs"),
    ]


def loaded_scipy_modules(probe):
    """The scipy modules in sys.modules after running probe in a fresh interpreter."""
    probe += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    return subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    ).stdout.splitlines()[-1]


def test_importing_the_package_and_cli_loads_no_scipy():
    assert loaded_scipy_modules("import curvelab, curvelab.cli") == "[]"


def test_flows_and_verify_load_no_scipy(tmp_path):
    # seeded random starts build harmonic modes, and both flows solve with the
    # grid's resolvent
    config = tmp_path / "verify.json"
    config.write_text(json.dumps({"samples": 2, "k": 1, "parametrization": "radial", "seed": 1,
                                  "grid": {"mode": "axisym", "n": 2, "n_theta": 16}}))
    probe = f"""
import numpy as np
from curvelab import cli
from curvelab.flows import FlowConfig, SpeedProfile, run_flow
from curvelab.shapes import random_convex_support, random_starshaped
from curvelab.sphere_grid import SphericalGrid

rng = np.random.default_rng(1)
h0 = random_convex_support(SphericalGrid.full_s2(8, 16), rng, amp=0.05)
assert run_flow(h0, None, FlowConfig(kind="support", k=1, t_end=0.01)).rows
r0 = random_starshaped(SphericalGrid.axisym(2, 16), rng, amp=0.05)
profile = SpeedProfile.power_exp_pinned(2, 1.0)
assert run_flow(r0, profile, FlowConfig(kind="radial", t_end=0.01)).rows
assert cli.main(["verify", "--config", {str(config)!r}, "--out", {str(tmp_path / "out")!r}]) == 0
"""
    assert loaded_scipy_modules(probe) == "[]"


def test_tabulated_profiles_and_ac11_load_no_scipy():
    # the not-a-knot spline and AC-11's RK4 reference are numpy
    probe = """
import numpy as np
from curvelab import acceptance
from curvelab.flows import SpeedProfile

x = np.linspace(0.5, 2.0, 41)
profile = SpeedProfile.tabulated(x, np.exp(x))
assert all(np.isfinite(d(x + 0.01)).all() for d in (profile.f, profile.df, profile.d2f))
assert acceptance.ac11().passed
"""
    assert loaded_scipy_modules(probe) == "[]"
