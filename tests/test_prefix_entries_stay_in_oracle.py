"""Only ``oracle`` reads a prefix's list and length; the rest read entries through
``FinitePrefix.read``, indexing, iteration or ``past``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "guessability"
STORAGE = {"_items", "_n"}


def storage_reads(path: Path) -> list[tuple[str, int]]:
    """(name, line) of each ``._items`` or ``._n`` attribute, or string naming one, in one source file."""
    tree = ast.parse(path.read_text(), str(path))
    return sorted((name, node.lineno) for node in ast.walk(tree) for name in (
        node.attr if isinstance(node, ast.Attribute) else
        node.value if isinstance(node, ast.Constant) else None,) if name in STORAGE)


def test_no_module_but_oracle_reads_a_prefix_list():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "semantics.py" in sources
    assert {name for name, _ in storage_reads(PACKAGE / "oracle.py")} == STORAGE
    found = {path.name: storage_reads(path) for path in sources if path.name != "oracle.py"}
    assert {name: reads for name, reads in found.items() if reads} == {}
