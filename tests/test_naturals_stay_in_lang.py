"""Only ``lang`` decides which text is a decimal natural; the rest call ``lang.natural``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "guessability"


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), str(path))


def isdecimal_lines(path: Path) -> list[int]:
    """Lines of one source file that name ``isdecimal``."""
    return sorted(node.lineno for node in ast.walk(_tree(path))
                  if isinstance(node, ast.Attribute) and node.attr == "isdecimal")


def test_no_module_but_lang_reads_decimals():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "cli.py" in sources
    assert isdecimal_lines(PACKAGE / "lang.py")
    found = {path.name: isdecimal_lines(path) for path in sources if path.name != "lang.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_cli_converts_no_text_with_int():
    calls = [node.lineno for node in ast.walk(_tree(PACKAGE / "cli.py"))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "int"]
    assert calls == []
