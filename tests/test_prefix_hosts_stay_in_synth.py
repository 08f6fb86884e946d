"""A construction becomes a sequence host as it is: a sequence host reads the
memo's own ``FinitePrefix`` view, so no function of the package wraps a host's
argument in a ``FinitePrefix`` again."""

import ast
import textwrap
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "guessability"


def wraps_a_parameter(node: ast.AST, parameters: set[str]) -> bool:
    """Whether node is ``FinitePrefix(p)`` or ``FinitePrefix(tuple(p))`` for a parameter p."""
    if not (isinstance(node, ast.Call) and len(node.args) == 1
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "FinitePrefix"):
        return False
    arg = node.args[0]
    if isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "tuple" and len(arg.args) == 1:
        arg = arg.args[0]
    return isinstance(arg, ast.Name) and arg.id in parameters


def adapters(path: Path) -> set[str]:
    """The top-level definitions of one source file that wrap a parameter of the
    innermost function or lambda around the wrapping in a ``FinitePrefix``."""
    found = set()

    def visit(node: ast.AST, top: str, parameters: set[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            parameters = {arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)}
        if wraps_a_parameter(node, parameters):
            found.add(top)
        for child in ast.iter_child_nodes(node):
            visit(child, top, parameters)

    for statement in ast.parse(path.read_text(), str(path)).body:
        visit(statement, getattr(statement, "name", "<module>"), set())
    return found


def test_no_function_turns_constructions_into_hosts():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "synth.py" in sources
    found = {path.name: adapters(path) for path in sources}
    assert {name: sites for name, sites in found.items() if sites} == {}


def test_the_scan_finds_a_hand_written_adapter(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(textwrap.dedent("""
        def by_def(guesser):
            def host(t):
                return guesser(FinitePrefix(t))
            return host

        def by_lambda(sig, guesser):
            sig.register_seq_function("G", lambda t: guesser(oracle.FinitePrefix(tuple(t))))

        def from_a_local(values):
            entries = [int(v) for v in values]
            return FinitePrefix(entries)

        def from_a_generator(source, k):
            return FinitePrefix(tuple(source.query(i) for i in range(k + 1)))
    """))
    assert adapters(source) == {"by_def", "by_lambda"}
