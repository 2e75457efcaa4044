"""Dead-public-name gate for the package sources.

Every name in the ``__all__`` of a module in ``src/dmjoint`` must be
referenced by some module of the package or of the benchmark harness in
``perfbench/``: as a name, an attribute, or an imported name. A name only the
tests use belongs in the tests.
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


def referenced(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


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
