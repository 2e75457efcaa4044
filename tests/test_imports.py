"""Unused-import gate for the package sources.

Every name imported by a module in ``src/dmjoint`` must be used in that
module, listed in its ``__all__``, or imported on a line marked
``# noqa: F401`` (a deliberate re-export).
"""

import ast
from pathlib import Path

import dmjoint

SRC = Path(dmjoint.__file__).parent


def unused_imports(path: Path) -> list:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            marked = any("# noqa: F401" in lines[ln - 1]
                         for ln in (node.lineno, alias.lineno))
            if name not in used and name not in exported and not marked:
                unused.append(f"{path.name}:{alias.lineno}: {name}")
    return unused


def test_no_unused_imports():
    unused = [u for path in sorted(SRC.glob("*.py")) for u in unused_imports(path)]
    assert not unused, "unused imports: " + ", ".join(unused)


def test_gate_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from os import path, sep\nimport sys  # noqa: F401\n"
                   "__all__ = ['sep']\n")
    assert unused_imports(mod) == ["mod.py:1: path"]
