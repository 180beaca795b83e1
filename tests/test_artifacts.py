"""Every artefact file is written through curvelab._artifacts.overwrite."""

import ast
from pathlib import Path

import curvelab

PACKAGE = Path(curvelab.__file__).parent


def truncating_writes(tree):
    """Lines of open(..., "w"...) and Path.write_text/write_bytes calls."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            modes = list(node.args[1:2] if isinstance(func, ast.Name) else node.args[:1])
            modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
            if any(isinstance(m, ast.Constant) and "w" in str(m.value) for m in modes):
                lines.append(node.lineno)
    return lines


def test_no_module_opens_files_for_writing_but_the_artefact_writer():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "_artifacts.py":
            lines = truncating_writes(ast.parse(path.read_text(), str(path)))
            if lines:
                found[path.name] = lines
    assert found == {}, f"write artefacts through _artifacts.overwrite: {found}"
    assert truncating_writes(ast.parse('open(p, "w")\nopen(p, mode="wb")\nq.open("w")\nq.write_text(s)')) == [1, 2, 3, 4]
