"""Only ``lang`` names the comparison hosts; the rest read them from ``lang.PRED_BUILTINS``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "guessability"
COMPARISONS = {"lt", "gt", "le", "ge"}


def comparison_names(tree: ast.AST) -> list[int]:
    """Lines that name ``operator.lt``, ``.gt``, ``.le`` or ``.ge``, or import one of them."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in COMPARISONS
                and isinstance(node.value, ast.Name) and node.value.id == "operator"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "operator" and any(
                alias.name in COMPARISONS for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), str(path))


def test_no_module_but_lang_names_a_comparison():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "synth.py" in sources
    found = {path.name: comparison_names(_tree(path)) for path in sources if path.name != "lang.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_lang_names_each_comparison_once_in_its_table():
    """The four hosts are the values of ``PRED_BUILTINS``; ``BINARY`` reads ``->`` as ``operator.le``."""
    tables = {}
    for statement in _tree(PACKAGE / "lang.py").body:
        lines = comparison_names(statement)
        if lines:
            target = statement.target if isinstance(statement, ast.AnnAssign) else statement.targets[0]
            tables[target.id] = len(lines)
    assert tables == {"BINARY": 1, "PRED_BUILTINS": 4}
