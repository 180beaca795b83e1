"""scipy is imported inside the functions that call it, never at module level."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import curvelab

PACKAGE = Path(curvelab.__file__).parent


def module_level_scipy_imports(tree):
    """Lines of scipy imports that run when the module is imported."""
    lines = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return lines


def test_no_module_imports_scipy_at_module_level():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = module_level_scipy_imports(ast.parse(path.read_text(), str(path)))
        if lines:
            found[path.name] = lines
    assert found == {}, f"import scipy inside the function that calls it: {found}"
    snippet = (
        "import scipy\nfrom scipy.special import lpmv\nimport scipy.sparse as sp\n"
        "try:\n    import scipy.fft\nexcept ImportError:\n    pass\n"
        "class K:\n    from scipy import integrate\n"
        "def f():\n    from scipy.interpolate import CubicSpline\n"
        "import scipyx\nfrom . import scipy_helpers\n"
    )
    assert module_level_scipy_imports(ast.parse(snippet)) == [1, 2, 3, 5, 9]


def test_importing_the_package_and_cli_loads_no_scipy():
    probe = "import sys, curvelab, curvelab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    ).stdout
    assert out.strip() == "[]"
