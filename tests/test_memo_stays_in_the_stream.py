"""Only the stream classes of ``synth`` reach a stream's memo or restart a stream.

A stream is the one judge of where its prefix went, so it alone decides when the
entries in its memo still hold: nothing outside it shares, swaps or clears the memo,
or restarts it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "guessability"
STREAM_PARTS = {"_memo", "_restart"}


def naming(path: Path, names: set[str]) -> set[str]:
    """The top-level definitions of one source file that name an attribute in ``names``,
    as an attribute or as a string (for ``getattr`` and ``setattr``)."""
    tree = ast.parse(path.read_text(), str(path))
    return {getattr(statement, "name", "<module>")
            for statement in tree.body for node in ast.walk(statement)
            if isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.Constant) and node.value in names}


def test_only_the_streams_reach_their_memo_and_restart():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "synth.py" in sources
    found = {path.name: naming(path, STREAM_PARTS) for path in sources}
    assert {name: definitions for name, definitions in found.items() if definitions} == {
        "oracle.py": {"SequenceOracle"},  # its own memo of the rule's values, not a stream's
        "synth.py": {"MuStream", "_Delta2Stream"}}
