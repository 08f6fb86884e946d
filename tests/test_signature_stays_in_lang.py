"""Only ``lang.Signature`` reads its own storage; every other module asks through
``kind_of``, ``function``, ``predicate`` and ``seq_function``."""

import ast
from pathlib import Path

from guessability import lang

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "guessability"


def storage_readers(path: Path, storage: set[str]) -> set[str]:
    """The top-level definitions of one source file that name an attribute in ``storage``."""
    tree = ast.parse(path.read_text(), str(path))
    return {getattr(statement, "name", "<module>")
            for statement in tree.body for node in ast.walk(statement)
            if isinstance(node, ast.Attribute) and node.attr in storage}


def test_only_the_signature_reads_its_storage():
    storage = set(vars(lang.Signature()))
    assert storage
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "lang.py" in sources
    found = {path.name: storage_readers(path, storage) for path in sources}
    assert {name: readers for name, readers in found.items() if readers} == {
        "lang.py": {"Signature"}}
