"""The package reads no environment variable: configs and flags set every run."""

import ast
from pathlib import Path

import curvelab

PACKAGE = Path(curvelab.__file__).parent

ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree):
    """Lines that use os.environ or os.getenv, or import either from os."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT and (
                isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                alias.name in ENVIRONMENT for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_reads_the_environment():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = environment_reads(ast.parse(path.read_text(), str(path)))
        if lines:
            found[path.name] = lines
    assert found == {}, f"take settings from the config or a flag: {found}"
    snippet = ('import os\nos.environ.get("X")\nos.getenv("X")\nfrom os import environ\n'
               'os.path.join("a")\nenviron = {}\n')
    assert environment_reads(ast.parse(snippet)) == [2, 3, 4]
