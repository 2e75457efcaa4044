"""Dead-public-name and dead-parameter gates for the package sources.

Every name in the ``__all__`` of a module in ``src/dmjoint`` must be
referenced by some module of the package or of the benchmark harness in
``perfbench/``: as an imported name, an attribute read, or a load of a name
the file binds at module level (by an import or a definition) that no
enclosing function rebinds. A parameter or local that shares a public name
is not a use of it. A name only the tests use belongs in the tests.

Likewise every defaulted parameter of a public function must be passed by
some call in those modules: by keyword, by position, or through an unpacked
``*args`` or ``**kwargs``. A default only the tests override is a branch
only the tests reach.
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


def defaulted_parameters(path: Path) -> list:
    """(function, parameter, position) for each defaulted parameter of a
    function in the ``__all__`` of ``path``; position is None for a
    keyword-only parameter."""
    public, out = set(exported(path)), []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            out += [(node.name, a.arg, i) for i, a in enumerate(positional) if i >= first]
            out += [(node.name, a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def passed_slots(path: Path) -> set:
    """(callee, slot) for each argument a call in ``path`` passes: an int for
    a position, a str for a keyword, and ``"*"`` or ``"**"`` for an unpacked
    sequence or mapping, which may fill any slot of its kind. The callee is a
    called name or attribute, with ``from ... import f as g`` undone."""
    tree = ast.parse(path.read_text())
    aliases = {alias.asname: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names if alias.asname}
    slots = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        name = aliases.get(name, name)
        slots.update((name, "*" if isinstance(arg, ast.Starred) else i)
                     for i, arg in enumerate(node.args))
        slots.update((name, kw.arg or "**") for kw in node.keywords)
    return slots


def unpassed_parameters(modules, users) -> list:
    """``module: function.parameter`` for each defaulted parameter of a
    function in the ``__all__`` of ``modules`` that no call in ``users``
    passes."""
    slots = set().union(*(passed_slots(path) for path in users))
    unpassed = []
    for path in modules:
        for fn, param, pos in defaulted_parameters(path):
            ways = [param, "**"] if pos is None else [param, "**", pos, "*"]
            if not any((fn, way) in slots for way in ways):
                unpassed.append(f"{path.name}: {fn}.{param}")
    return unpassed


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


def test_no_public_parameter_left_at_its_default():
    modules = sorted(SRC.glob("*.py"))
    unpassed = unpassed_parameters(modules, modules + sorted(PERFBENCH.glob("*.py")))
    assert not unpassed, "defaulted parameters no call passes: " + ", ".join(unpassed)


def test_gate_flags_a_parameter_no_call_passes(tmp_path):
    lib, user = tmp_path / "lib.py", tmp_path / "user.py"
    lib.write_text("__all__ = ['f', 'g', 'h']\n"
                   "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
                   "def g(a, b=1): pass\n"
                   "def h(a, *, k=1): pass\n"
                   "def _p(a, b=1): pass\n")
    user.write_text("import lib\nfrom lib import g as gg\n"
                    "lib.f(0, 1, d=2)\ngg(*(0, 1))\nlib.h(0, **{'k': 2})\n")
    # f's b is passed by position and d by keyword, g's b through *args
    # under an alias and h's k through **kwargs; _p is not public
    assert unpassed_parameters([lib], [user]) == ["lib.py: f.c", "lib.py: f.e"]
    assert unpassed_parameters([lib], [lib]) == [
        "lib.py: f.b", "lib.py: f.c", "lib.py: f.d", "lib.py: f.e", "lib.py: g.b",
        "lib.py: h.k"]
