"""Dead-public-name gate for the package sources.

Every name in the ``__all__`` of a module in ``src/dmjoint`` must be
referenced by some module of the package or of the benchmark harness in
``perfbench/``: as an imported name, an attribute read, or a load of a name
the file binds at module level (by an import or a definition) that no
enclosing function rebinds. A parameter or local that shares a public name
is not a use of it. A name only the tests use belongs in the tests.
"""

import ast
from pathlib import Path

import dmjoint

SRC = Path(dmjoint.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"


def exported(path: Path) -> list:
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def module_bindings(tree) -> set:
    """Names bound at the top level of a module by an import or a definition."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


class ModuleLoads(ast.NodeVisitor):
    """Loads of ``bound`` names that no enclosing function binds as a parameter
    or local."""

    def __init__(self, bound):
        self.bound, self.local, self.loads = bound, set(), set()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id in self.bound - self.local:
            self.loads.add(node.id)

    def visit_FunctionDef(self, node):
        args = node.args
        params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
        outer = self.local
        self.local = outer | {a.arg for a in params if a} | {
            n.id for n in ast.walk(node) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Store)}
        self.generic_visit(node)
        self.local = outer

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef


def referenced(path: Path) -> set:
    tree = ast.parse(path.read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    loads = ModuleLoads(module_bindings(tree))
    loads.visit(tree)
    return names | loads.loads


def dead_public_names(modules, users) -> list:
    """``module: name`` for each name in the ``__all__`` of ``modules`` that no
    file in ``users`` references."""
    used = set().union(*(referenced(path) for path in users))
    return [f"{path.name}: {name}" for path in modules for name in exported(path)
            if name not in used]


def test_no_dead_public_names():
    modules = sorted(SRC.glob("*.py"))
    dead = dead_public_names(modules, modules + sorted(PERFBENCH.glob("*.py")))
    assert not dead, "public names nothing uses: " + ", ".join(dead)


def test_gate_flags_an_unreferenced_public_name(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text("__all__ = ['a', 'b', 'c', 'd']\n"
                   "def a(): pass\ndef b(): pass\ndef c(): pass\ndef d(): return a()\n")
    user.write_text("import lib\nfrom lib import b\nlib.c()\n")
    # a is called in lib, b imported and c an attribute in user; d is unused
    assert dead_public_names([lib], [lib, user]) == ["lib.py: d"]
    assert dead_public_names([lib], [user]) == ["lib.py: a", "lib.py: d"]


def test_gate_does_not_count_a_parameter_or_local_of_the_same_name(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text("__all__ = ['a', 'b', 'c']\n"
                   "def a(): pass\ndef b(): pass\ndef c(): pass\n"
                   "def e(b): return b\n")
    user.write_text("from lib import c\n"
                    "def f(a):\n    b = a\n    return b, c\n")
    # a is only a parameter in user, b only a local in user and a parameter in
    # lib, and c is imported
    assert dead_public_names([lib], [lib, user]) == ["lib.py: a", "lib.py: b"]
