"""The package's runtime dependencies are the standard library only."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
@pytest.mark.parametrize("command", [
    ["mu", "{sentence}", "--seq", "prefix:[3,1,2]:pad0", "--horizon", "3"],
    ["adversary", "--guesser", "constant-1", "--kind", "diagonal", "--budget", "5"],
])
def test_running_a_command_loads_only_what_it_reads(tmp_path, command, json_flag):
    """A command loads none of ``json``, ``shutil``, ``textwrap``, ``bz2`` or ``lzma``;
    ``--json`` prints one parseable line, and loads ``json`` alone, or nothing for ``mu``,
    whose rows are written as they come.

    Help is printed at a fixed width, so no parser asks ``shutil`` for the
    terminal's, and ``shutil`` would bring the archive modules with it.
    """
    sentence = tmp_path / "s2.lg"
    sentence.write_text("exists x. forall y. f(x) = 0")
    probe = ("import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); "
             "from guessability import cli; out = io.StringIO()\n"
             "with contextlib.redirect_stdout(out): code = cli.main(sys.argv[2:])\n"
             "print(code, sorted({'json', 'shutil', 'textwrap', 'bz2', 'lzma'}"
             " & set(sys.modules)))\n"
             "print(out.getvalue(), end='')")
    argv = [arg.format(sentence=sentence) for arg in command] + json_flag
    child = subprocess.run([sys.executable, "-S", "-c", probe, str(PACKAGE.parent), *argv],
                           capture_output=True, text=True, timeout=60, check=True)
    status, output = child.stdout.split("\n", 1)
    code, loaded = (0, []) if command[0] == "mu" else (3, ["json"] if json_flag else [])
    assert status == f"{code} {loaded}"
    if json_flag:
        assert isinstance(json.loads(output), dict)
