"""Gates for the chain store.

Every block that ``io.write_chain`` writes, a name in ``ChainOutput.BLOCKS``,
must be read as an attribute of a chain somewhere in ``src/dmjoint`` or
``perfbench/`` outside ``io.py``, which only moves the blocks between memory
and disk. A block nothing reads is bytes written and read for no use.

The rules of a chain's blocks per sampler mode live on ``ChainOutput``, so
``io.py`` names no mode.

The sampler's ``ChainState`` holds the sampled blocks under the same names,
and the sweep reads them off ``state``; those reads are the sweep's, not a
chain's, so they do not count.
"""

import ast
import re
from pathlib import Path

import dmjoint
from dmjoint.sampler import _MODES, ChainOutput

SRC = Path(dmjoint.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"


def attributes_read(path: Path) -> set:
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and not (isinstance(node.value, ast.Name) and node.value.id == "state")}


def unread_blocks(blocks, readers) -> list:
    """The names in ``blocks`` that no file in ``readers`` reads as an attribute."""
    read = set().union(*(attributes_read(path) for path in readers))
    return [name for name in blocks if name not in read]


def test_every_chain_block_is_read():
    readers = [p for p in sorted(SRC.glob("*.py")) if p.name != "io.py"]
    unread = unread_blocks(ChainOutput.BLOCKS, readers + sorted(PERFBENCH.glob("*.py")))
    assert not unread, "chain blocks nothing reads: " + ", ".join(unread)


def modes_named(path: Path) -> set:
    """The sampler modes that ``path`` names, as whole words."""
    text = path.read_text()
    return {mode for mode in _MODES if re.search(rf"\b{mode}\b", text)}


def test_io_names_no_sampler_mode(tmp_path):
    assert {"dm_only", "lm_only"} <= set(_MODES)
    assert not modes_named(SRC / "io.py")
    rule = tmp_path / "rule.py"
    rule.write_text("def f(chain):\n    return chain.config.mode == 'dm_only'\n")
    assert modes_named(rule) == {"dm_only"}


def test_gate_flags_an_unread_block(tmp_path):
    user, writer = tmp_path / "user.py", tmp_path / "writer.py"
    user.write_text("def f(chain, state):\n    chain.c = state.e\n"
                    "    return chain.a.sum(), chain.b\n")
    writer.write_text("def g(chain):\n    return chain.d\n")
    # a and b are read in user; c is only assigned and e only read off the
    # sampler state; d is read, but not in user
    blocks = ("a", "b", "c", "d", "e")
    assert unread_blocks(blocks, [user]) == ["c", "d", "e"]
    assert unread_blocks(blocks, [user, writer]) == ["c", "e"]
