"""The package's runtime dependencies are the standard library only."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "guessability"


def absolute_imports(path: Path) -> set[str]:
    """Top-level module names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_sources_import_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "semantics.py" in sources
    outside = {path.name: absolute_imports(path) - sys.stdlib_module_names for path in sources}
    assert {name: modules for name, modules in outside.items() if modules} == {}


def test_starting_the_cli_generates_no_code():
    """No module the CLI imports pulls in ``dataclasses``, ``inspect`` or ``typing``.

    Run without ``site``, which preloads ``typing`` on some installs.
    """
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import guessability.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    child = subprocess.run([sys.executable, "-S", "-c", probe, str(PACKAGE.parent)],
                           capture_output=True, text=True, timeout=60, check=True)
    assert child.stdout == "[]\n"
