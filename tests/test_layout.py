"""Layout rule: src/hypertraffic holds only what the package itself runs.

Every public module-level function or class, and every public method, must
be referenced somewhere in src/ outside its own definition, as a name or an
attribute. Test-only references belong in tests/oracles.py. cli.main, the
console-script entry point, is exempt.
"""

import ast
from pathlib import Path

import hypertraffic

SRC = Path(hypertraffic.__file__).resolve().parent
EXEMPT = {"cli.main"}


def _definitions(tree):
    """(qualified name, node) of each public module-level def or class and
    each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unreferenced_names(src=SRC):
    """Qualified names, module first, of the public definitions in `src`
    that nothing in `src` refers to outside their own definition."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    refs = []  # (module, name, line)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((module, node.attr, node.lineno))
    missing = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = node.name
            own = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and not (m == module and line in own) for m, n, line in refs):
                missing.append(f"{module}.{qualname}")
    return [name for name in missing if name not in EXEMPT]


def test_every_public_name_has_a_caller_in_src():
    assert unreferenced_names() == []


def test_scan_sees_an_uncalled_function(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return used\n\n\n"
        "def caller():\n    return used()\n\n\n"
        "class Box:\n    def lonely(self):\n        return self\n"
    )
    assert unreferenced_names(tmp_path) == ["mod.caller", "mod.Box", "mod.Box.lonely"]
