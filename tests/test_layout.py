"""Layout rules for src/hypertraffic.

It holds only what the package itself runs: every public module-level
function or class, and every public method, must be referenced somewhere in
src/ outside its own definition, as a name or an attribute. Test-only
references belong in tests/oracles.py. cli.main, the console-script entry
point, is exempt.

It reads the environment in one place: graphs.node_cap, the owner of
HYPERTRAFFIC_NODE_CAP. It catches the base HypertrafficError in one place:
cli.main, which turns any package error into exit 3. Library code names the
subclasses it handles. It constructs a Graph in one place: graphs.build_graph,
so every graph has its CSR and checked symmetries; dataclasses.replace may
copy one. It traverses a Graph in one place: graphs._walk, the batched BFS
that build_graph, the four-point table, the census and the loads share. Only
tessellation names _bfs, the half-edge map's own scalar BFS.

It imports at module level only: no function or class body holds an
import, so `import hypertraffic.cli` loads every module a command runs, and
perfbench's cli.import_s measures all of the start-up.

It keeps no state between calls: a module-level assignment binds only a
literal, a tuple of literals or constant arithmetic, and nothing names
functools.cache, lru_cache or cached_property.
"""

import ast
from pathlib import Path

import hypertraffic

SRC = Path(hypertraffic.__file__).resolve().parent
EXEMPT = {"cli.main"}
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}
# handlers that catch HypertrafficError: the base itself, or anything above it
BROAD_NAMES = {"HypertrafficError", "Exception", "BaseException"}
CACHE_NAMES = {"cache", "lru_cache", "cached_property"}


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


def _scopes_where(src, hit):
    """Qualified names, module first, of the functions and classes in `src`
    holding a node for which hit(node) is true; a node at module level gives
    the module's name."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif hit(child):
                found.add(scope)
            visit(child, inner)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return sorted(found)


def _name(node):
    """The name a Name, Attribute or import alias refers to, else None."""
    return getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)


def environ_readers(src=SRC):
    """The scopes in `src` that name os.environ or os.getenv."""
    return _scopes_where(
        src, lambda node: isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and _name(node) in ENV_NAMES,
    )


def broad_catchers(src=SRC):
    """The scopes in `src` with a bare except, or one that names
    HypertrafficError, Exception or BaseException, alone or in a tuple."""

    def broad(node):
        if not isinstance(node, ast.ExceptHandler):
            return False
        if node.type is None:
            return True
        types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return any(_name(t) in BROAD_NAMES for t in types)

    return _scopes_where(src, broad)


def graph_constructors(src=SRC):
    """The scopes in `src` that call Graph(...), by name or as an attribute."""
    return _scopes_where(
        src, lambda node: isinstance(node, ast.Call) and _name(node.func) == "Graph"
    )


def test_only_node_cap_reads_the_environment():
    assert environ_readers() == ["graphs.node_cap"]


def test_scan_sees_every_environment_read(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os\nfrom os import environ\n\n\n"
        "def cap():\n    return os.environ.get('X')\n\n\n"
        "class Box:\n    def read(self):\n        return os.getenv('Y')\n"
    )
    assert environ_readers(tmp_path) == ["mod", "mod.Box.read", "mod.cap"]


def test_only_cli_main_catches_the_base_error():
    assert broad_catchers() == ["cli.main"]


def test_scan_sees_every_broad_handler(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from . import errors\n\n"
        "try:\n    pass\nexcept Exception:\n    pass\n\n\n"
        "def narrow():\n    try:\n        pass\n    except errors.SizeOverflow:\n        pass\n\n\n"
        "def bare():\n    try:\n        pass\n    except:\n        pass\n\n\n"
        "class Box:\n    def wide(self):\n        try:\n            pass\n"
        "        except (ValueError, errors.HypertrafficError):\n            pass\n"
    )
    assert broad_catchers(tmp_path) == ["mod", "mod.Box.wide", "mod.bare"]


def test_only_build_graph_constructs_a_graph():
    assert graph_constructors() == ["graphs.build_graph"]


def test_scan_sees_every_graph_construction(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import dataclasses\nfrom . import graphs\nfrom .graphs import Graph\n\n"
        "EMPTY = Graph(0, (), 0, (), (), ())\n\n\n"
        "def copy(g):\n    return dataclasses.replace(g, symmetries=())\n\n\n"
        "def typed(g: Graph) -> Graph:\n    return isinstance(g, graphs.Graph)\n\n\n"
        "class Box:\n    def make(self):\n        return graphs.Graph(**self.fields)\n"
    )
    assert graph_constructors(tmp_path) == ["mod", "mod.Box.make"]


def _modules_where(src, hit):
    """The modules in `src` holding a node for which hit(node) is true."""
    return [
        path.stem for path in sorted(src.glob("*.py"))
        if any(map(hit, ast.walk(ast.parse(path.read_text()))))
    ]


def bfs_namers(src=SRC):
    """The modules in `src` that define, import or refer to a name _bfs."""
    return _modules_where(src, lambda node: _name(node) == "_bfs")


def walk_definers(src=SRC):
    """The modules in `src` that define a function named _walk, at any level."""
    return _modules_where(
        src, lambda node: isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name == "_walk",
    )


def test_one_traversal_of_a_graph():
    assert walk_definers() == ["graphs"]
    assert bfs_namers() == ["tessellation"]


def test_scan_sees_every_second_traversal(tmp_path):
    (tmp_path / "graphs.py").write_text("def _walk(csr, sources, reach):\n    return csr\n")
    (tmp_path / "tessellation.py").write_text("def _bfs(adj, s, bound):\n    return adj\n")
    (tmp_path / "traffic.py").write_text(
        "from .graphs import _walk\n\n\n"
        "class Box:\n    def _walk(self):\n        return _walk\n"
    )
    (tmp_path / "analysis.py").write_text(
        "from . import tessellation\n\n\ndef depth(a):\n    return tessellation._bfs(a, 0, 1)\n"
    )
    (tmp_path / "cli.py").write_text("from .tessellation import _bfs as bfs\n")
    assert walk_definers(tmp_path) == ["graphs", "traffic"]
    assert bfs_namers(tmp_path) == ["analysis", "cli", "tessellation"]


def nested_imports(src=SRC):
    """The functions and classes in `src` whose bodies hold an import."""
    scopes = _scopes_where(src, lambda node: isinstance(node, (ast.Import, ast.ImportFrom)))
    return [scope for scope in scopes if "." in scope]


def test_src_imports_at_module_level_only():
    assert nested_imports() == []


def test_scan_sees_every_nested_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os\nfrom . import graphs\n\n"
        "try:\n    import numpy\nexcept ImportError:\n    numpy = None\n\n\n"
        "def lazy():\n    from fractions import Fraction\n    return Fraction\n\n\n"
        "def outer():\n    def inner():\n        import decimal\n        return decimal\n"
        "    return inner\n\n\n"
        "class Box:\n    import json\n\n    def load(self):\n        import json as j\n"
        "        return j\n"
    )
    assert nested_imports(tmp_path) == ["mod.Box", "mod.Box.load", "mod.lazy", "mod.outer.inner"]


def _constant(node):
    """Whether `node` is a literal, a tuple of constants, or arithmetic on them."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Tuple):
        return all(map(_constant, node.elts))
    if isinstance(node, ast.UnaryOp):
        return _constant(node.operand)
    if isinstance(node, ast.BinOp):
        return _constant(node.left) and _constant(node.right)
    return False


def state_keepers(src=SRC):
    """Module-level names in `src` bound to anything but a constant, as
    module.name, and the scopes that name a functools cache."""
    found = _scopes_where(
        src, lambda node: isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        and _name(node) in CACHE_NAMES,
    )
    kinds = (ast.Assign, ast.AugAssign, ast.AnnAssign)
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            # a bare annotation has no value and binds nothing
            if isinstance(node, kinds) and node.value is not None and not _constant(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [f"{path.stem}.{ast.unparse(t)}" for t in targets]
    return sorted(found)


def test_src_keeps_no_state_between_calls():
    assert state_keepers() == []


def test_scan_sees_every_kept_state(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import functools\nfrom functools import lru_cache\n\n"
        "CAP = 1 << 24\nNAMES = ('a', ('b', -1.5))\nTOTAL = 0\nTOTAL += 2 * 3\n"
        "SEEN = {}\nTABLE: list = []\nHINT: int\nFIRST = LAST = CAP\n\n\n"
        "@functools.cache\ndef build(n):\n    return n\n\n\n"
        "class Box:\n    @functools.cached_property\n    def size(self):\n        return 1\n"
    )
    assert state_keepers(tmp_path) == [
        "mod", "mod.Box.size", "mod.FIRST", "mod.LAST", "mod.SEEN", "mod.TABLE", "mod.build",
    ]
