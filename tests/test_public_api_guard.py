"""A public function has a user: every function a package module lists in
``__all__`` is named outside its own module.

The users that count are the other package modules (``__init__.py``'s
re-exports do not), the demos and the benchmark; tests do not.  Classes are
exempt, since they are the types the functions return, but their public
methods and properties are not: each is read as an attribute somewhere in the
package, its own module included, or by a user, unless ``ALLOWED`` names it
with its reason.
"""

import ast
from pathlib import Path

import curvelab

PACKAGE = Path(curvelab.__file__).parent
ROOT = PACKAGE.parent.parent
USERS = ("demos", "perfbench")
# public methods and properties that only the tests read, and why they stay
ALLOWED = {"geometry.CurvatureField.normal": "the independent oracle of test_height_function_tangential_gradient"}


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


def unused_public_members(modules, users):
    """module.Class.member for each public method or property of a module's classes
    that no module, its own included, and no user reads as an attribute."""
    read = set().union(*({node.attr for node in ast.walk(t) if isinstance(node, ast.Attribute)}
                         for t in modules.values()), *users)
    return [f"{name}.{cls.name}.{item.name}" for name, tree in modules.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for item in cls.body if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            and item.name not in read]


def package_modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def user_names():
    return [names_used(ast.parse(path.read_text(), str(path)))
            for folder in USERS for path in sorted((ROOT / folder).glob("*.py"))]


def test_every_public_function_has_a_user_outside_its_module():
    modules, users = package_modules(), user_names()
    assert len(users) >= 10 and "symfunc" in modules
    assert unused_public_functions(modules, users) == [], "make these private, or give them a user"
    snippet = ('__all__ = ["Report", "used", "orphan", "imported"]\nfrom x import imported\n'
               'class Report:\n    pass\ndef used():\n    pass\ndef orphan():\n    return used\n')
    user = "from m import used\nm.Report()\n"
    probe = {"m": ast.parse(snippet), "n": ast.parse(user)}
    assert unused_public_functions(probe, []) == ["m.orphan"]


def test_every_public_method_and_property_has_a_user():
    modules, users = package_modules(), user_names()
    assert "SphericalGrid" in {c.name for c in modules["sphere_grid"].body if isinstance(c, ast.ClassDef)}
    assert unused_public_members(modules, users) == list(ALLOWED), "make these private, or give them a user"
    snippet = ('class Grid:\n    def used(self):\n        return self.own\n    @property\n    def own(self):\n'
               '        pass\n    def orphan(self):\n        pass\n    def _private(self):\n        pass\n'
               'def free():\n    orphan = 1\n    return orphan\n')
    user = "import m\nm.Grid().used()\n"
    probe = {"m": ast.parse(snippet)}
    assert unused_public_members(probe, [names_used(ast.parse(user))]) == ["m.Grid.orphan"]
    assert unused_public_members(probe, []) == ["m.Grid.used", "m.Grid.orphan"]
