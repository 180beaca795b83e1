"""A public function has a user: every function a package module lists in
``__all__`` is named outside its own module.

The users that count are the other package modules (``__init__.py``'s
re-exports do not), the demos and the benchmark; tests do not.  Classes are
exempt, since they are the types the functions return.
"""

import ast
from pathlib import Path

import curvelab

PACKAGE = Path(curvelab.__file__).parent
ROOT = PACKAGE.parent.parent
USERS = ("demos", "perfbench")


def public_functions(tree):
    """The names in a module's __all__ that the module defines with def."""
    listed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            listed = {elt.value for elt in node.value.elts}
    return sorted(node.name for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name in listed)


def names_used(tree):
    """Every name a module reads or imports: bare names, attributes and import aliases."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def unused_public_functions(modules, users):
    """module.function for each public function that no other module and no user names."""
    unused = []
    for name, tree in modules.items():
        elsewhere = set().union(*(names_used(t) for other, t in modules.items() if other != name), *users)
        unused += [f"{name}.{f}" for f in public_functions(tree) if f not in elsewhere]
    return unused


def test_every_public_function_has_a_user_outside_its_module():
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    users = [names_used(ast.parse(path.read_text(), str(path)))
             for folder in USERS for path in sorted((ROOT / folder).glob("*.py"))]
    assert len(users) >= 10 and "symfunc" in modules
    assert unused_public_functions(modules, users) == [], "make these private, or give them a user"
    snippet = ('__all__ = ["Report", "used", "orphan", "imported"]\nfrom x import imported\n'
               'class Report:\n    pass\ndef used():\n    pass\ndef orphan():\n    return used\n')
    user = "from m import used\nm.Report()\n"
    probe = {"m": ast.parse(snippet), "n": ast.parse(user)}
    assert unused_public_functions(probe, []) == ["m.orphan"]
