"""Criteria run through acceptance.run_battery alone: no module calls a CRITERIA entry itself."""

import ast
from pathlib import Path

import curvelab

PACKAGE = Path(curvelab.__file__).parent


def criteria_subscript_calls(tree, module):
    """module:line of each call whose callee is a subscript of CRITERIA."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Subscript):
            table = node.func.value
            if (isinstance(table, ast.Name) and table.id == "CRITERIA") or (
                    isinstance(table, ast.Attribute) and table.attr == "CRITERIA"):
                found.append(f"{module}:{node.lineno}")
    return found


def test_criteria_are_called_only_through_run_battery():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += criteria_subscript_calls(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == [], f"run criteria with acceptance.run_battery, which times them and records a raise: {found}"
    snippet = 'CRITERIA["AC-1"]()\nx = acceptance.CRITERIA[name]().to_dict()\nrun_battery(["AC-1"])\nCRITERIA["AC-2"]\n'
    assert criteria_subscript_calls(ast.parse(snippet), "m") == ["m:1", "m:2"]
