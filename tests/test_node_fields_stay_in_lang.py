"""Only ``lang`` reads a syntax node's fields wholesale; every walk goes through
``lang.children`` or ``lang._rebuilt``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "guessability"


def vars_callers(path: Path) -> list[tuple[str, int]]:
    """(top-level definition, line) of each ``vars(...)`` call in one source file."""
    tree = ast.parse(path.read_text(), str(path))
    return sorted((getattr(statement, "name", "<module>"), node.lineno)
                  for statement in tree.body for node in ast.walk(statement)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "vars")


def test_only_children_and_rebuilt_read_node_fields():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "lang.py" in sources
    found = {path.name: {name for name, _ in vars_callers(path)} for path in sources}
    assert {name: callers for name, callers in found.items() if callers} == {
        "lang.py": {"children", "_rebuilt"}}
