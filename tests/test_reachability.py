"""Every function of the package that no command reaches is listed, with the reason it stays.

The gate runs the golden corpus's commands in process under ``sys.setprofile``,
all but ``golden_corpus.LONG_RUNS``, which take longer on the same code: the
README's CLI block, the bench commands, the parse error and the help, the
``synth`` runs and the value runs.  A function or method of the package that
none of them enters must be a key of ``UNREACHED``, whose value says why it
stays; one that a command enters must not be.  The commands run in a fresh
interpreter whose profile is set before the package is imported, so what runs
at import time is reached, as it is in the process of every command.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden_corpus as golden

PACKAGE = golden.ROOT / "src" / "guessability"

# argv: the commands as JSON; prints (file, first line) of each code object entered
TRACE = """
import json, sys
codes = set()
sys.setprofile(lambda frame, event, _: event == "call" and codes.add(frame.f_code))
import golden_corpus
for argv in json.loads(sys.argv[1]):
    golden_corpus.run(argv)
sys.setprofile(None)
print(json.dumps([[code.co_filename, code.co_firstlineno] for code in codes]))
"""

UNREACHED = {
    "adversary.cantor_extenders": "adversary --set cantor, which the corpus does not run",
    "adversary.cantor_extenders.<locals>.on_alphabet": "the alphabet test of cantor_extenders",
    "cli._Parser.error": "a usage error, which no corpus command makes",
    "cli.run": "the process entry of the console script; the corpus calls cli.main in process",
    "lang.Record.__delattr__": "refuses to mutate a record; no code of the package tries",
    "lang.Record.__repr__": "shown only in a traceback or a debugger",
    "lang.Record.__setattr__": "refuses to mutate a record; no code of the package tries",
    "lang._monus": "the host of the builtin monus, which no corpus sentence applies",
    "lang._rebuilt": "the node rebuild of substitute",
    "lang._substitute_under_binder": "the capture check of substitute",
    "lang.substitute": "capture-checked substitution, which the README documents and "
                       "a renaming of bound variables may come to use",
    "oracle.FinitePrefix.__hash__": "a prefix is a value, so equal prefixes hash equal; "
                                    "no command hashes one",
    "oracle.FinitePrefix.__repr__": "shown only in a traceback or a debugger",
    "oracle.QueryBeyondLimit.__str__": "built only when shown; every attempt catches the error",
    "oracle.SequenceOracle.__repr__": "shown only in a traceback or a debugger",
    "semantics.AttemptOutcome.succeeded":
        "read by the attempt observer of bench/tracing.py",
    "synth._topology_hosts.<locals>.cell": "the topology pair's hosts give it its meaning in "
                                           "the library; synth topology only writes the pair",
    "synth._topology_hosts.<locals>.length": "a host of the topology pair, as cell",
    "synth._topology_hosts.<locals>.tau": "a host of the topology pair, as cell",
    "synth.guesser_and": "a boolean guesser combinator, which the README documents",
    "synth.guesser_not": "a boolean guesser combinator, which the README documents",
    "synth.guesser_or": "a boolean guesser combinator, which the README documents",
    "synth.mu_prime_host": "makes an overguesser a symbol, which the README documents",
    "synth.mu_prime_host.<locals>.shifted": "the host mu_prime_host returns",
}


def functions() -> dict[tuple[str, int], str]:
    """Each function and method of the package, by (file name, first line of its code),
    as ``module.qualified_name``."""
    found = {}

    def visit(node: ast.AST, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[f"{module}.py", first] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem, "")
    return found


def entered(commands: list[list[str]], workdir: Path) -> set[tuple[str, int]]:
    """(file name, first line) of each function of the package the commands enter."""
    path = os.pathsep.join(str(golden.ROOT / part) for part in ("src", "tests"))
    done = subprocess.run([sys.executable, "-c", TRACE, json.dumps(commands)], cwd=workdir,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return {(Path(file).name, line) for file, line in json.loads(done.stdout)
            if Path(file).resolve().parent == PACKAGE}


def gate(unreached: set[str], listed: dict[str, str]) -> list[str]:
    """One line for each name that keeps the unreached functions from being the listed ones."""
    return sorted([f"{name}: no command reaches it, and UNREACHED gives no reason to keep it"
                   for name in unreached - listed.keys()]
                  + [f"{name}: listed in UNREACHED, but a command reaches it "
                     "or the package defines no such function"
                     for name in listed.keys() - unreached])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("reachability")
    golden.prepare(path, json.loads(golden.CORPUS.read_text())["files"])
    return path


@pytest.fixture(scope="module")
def reached(workdir):
    corpus = json.loads(golden.CORPUS.read_text())
    return entered([run["argv"] for run in corpus["runs"] if run["argv"] not in golden.LONG_RUNS],
                   workdir)


def unreached(reached: set[tuple[str, int]]) -> set[str]:
    return {name for key, name in functions().items() if key not in reached}


def test_every_function_no_command_reaches_is_listed_with_its_reason(reached):
    assert all(reason and "\n" not in reason for reason in UNREACHED.values())
    assert gate(unreached(reached), UNREACHED) == []


def test_the_gate_fails_on_an_unreached_function_missing_from_the_list(reached):
    listed = {name: reason for name, reason in UNREACHED.items() if name != "synth.mu_prime_host"}
    assert gate(unreached(reached), listed) == [
        "synth.mu_prime_host: no command reaches it, and UNREACHED gives no reason to keep it"]


def test_the_gate_fails_when_a_listed_function_becomes_reached(reached, workdir):
    cantor = ["adversary", "--guesser", "parity-of-length", "--kind", "diagonal",
              "--set", "cantor", "--flips", "2"]
    assert gate(unreached(reached | entered([cantor], workdir)), UNREACHED) == [
        f"{name}: listed in UNREACHED, but a command reaches it "
        "or the package defines no such function"
        for name in ("adversary.cantor_extenders.<locals>.on_alphabet",
                     "adversary.cantor_extenders")]
