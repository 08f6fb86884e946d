"""Only ``lang`` rebuilds syntax trees by substitution; the rest bind by Assignment."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "guessability"


def substitute_references(path: Path) -> list[int]:
    """Lines of one source file that name ``substitute``, apart from the package's re-export."""
    tree = ast.parse(path.read_text(), str(path))
    reexport = set()
    if path.name == "__init__.py":
        reexport = {id(alias) for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.module == "lang"
                    for alias in node.names}
    return sorted(node.lineno for node in ast.walk(tree) if id(node) not in reexport and (
        isinstance(node, ast.Name) and node.id == "substitute"
        or isinstance(node, ast.Attribute) and node.attr == "substitute"
        or isinstance(node, ast.alias) and node.name == "substitute"
        or isinstance(node, ast.Constant) and node.value == "substitute"))


def test_no_module_but_lang_substitutes():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "synth.py" in sources
    assert substitute_references(PACKAGE / "lang.py")
    found = {path.name: substitute_references(path) for path in sources if path.name != "lang.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
