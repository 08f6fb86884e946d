"""The process entry ``cli.run``: same results as ``cli.main``, a clean end on a
closed pipe, and ``gc.freeze`` kept out of the library path."""

import ast
import contextlib
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from guessability import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child(argv: list[str], shell: tuple[str, ...] = (), **popen) -> subprocess.Popen:
    """``python -m guessability.cli`` on ``argv`` in a fresh process, run by ``shell`` if given."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    return subprocess.Popen([*shell, sys.executable, "-m", "guessability.cli", *argv],
                            env=env, stdin=subprocess.DEVNULL, **popen)


def in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def s2_file(tmp_path):
    path = tmp_path / "s2.lg"
    path.write_text("exists x. forall y. f(x) = 0")
    return str(path)


@pytest.mark.parametrize("argv, code", [
    (["mu", "{s2}", "--seq", "prefix:[3,1,2]:pad0", "--horizon", "4"], 0),
    (["guess", "--spec", "nope", "--seq", "const:1", "--horizon", "3"], 2),
    (["adversary", "--guesser", "constant-1", "--kind", "diagonal", "--budget", "50"], 3),
    (["adversary", "--guesser", "contains-zero", "--kind", "diagonal",
      "--set", "contains-zero", "--budget", "50"], 4),
])
def test_the_entry_changes_no_result(s2_file, argv, code):
    argv = [arg.format(s2=s2_file) for arg in argv]
    proc = child(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=60)
    frozen = gc.get_freeze_count()
    assert (proc.returncode, out, err) == in_process(argv)
    assert gc.get_freeze_count() == frozen  # only the process entry freezes, never main
    assert proc.returncode == code


def test_a_closed_pipe_ends_with_exit_141_and_nothing_on_stderr():
    """The prefix line (about 400 KB) outgrows any pipe buffer, so the child
    writes into a pipe whose reader has gone."""
    proc = child(["adversary", "--guesser", "constant-1", "--kind", "diagonal",
                  "--set", "inf-zeros", "--flips", "10", "--budget", "200000"],
                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"flips=")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_failed_write_ends_with_exit_74_and_one_error_line(s2_file, unbuffered, monkeypatch):
    """Buffered, the write fails in the final flush; unbuffered, in the command's ``print``."""
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    with open("/dev/full", "wb") as full:
        proc = child(["mu", s2_file, "--seq", "prefix:[3,1,2]:pad0", "--horizon", "3"],
                     stdout=full, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_OUTPUT == 74
    assert err == b"error: cannot write the output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, code", [
    (["mu", "--nope"], 2),
    (["adversary", "--guesser", "contains-zero", "--kind", "diagonal",
      "--set", "contains-zero", "--budget", "50"], 4),
    (["eval", "{s2}", "--seq", "id", "--bound", "2"], 0),
], ids=["usage", "density", "eval-note"])
def test_an_unwritable_stderr_changes_neither_the_exit_code_nor_stdout(
        s2_file, argv, code, unbuffered, monkeypatch):
    """The ``error:`` and ``note:`` lines are lost; the code and the output are not."""
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    argv = [arg.format(s2=s2_file) for arg in argv]
    with open("/dev/full", "wb") as full:
        proc = child(argv, stdout=subprocess.PIPE, stderr=full, text=True)
        out, _ = proc.communicate(timeout=60)
    expected_code, expected_out, _ = in_process(argv)
    assert (proc.returncode, out) == (expected_code, expected_out)
    assert proc.returncode == code


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_unwritable_stdout_and_stderr_still_end_with_exit_74(s2_file, unbuffered, monkeypatch):
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    with open("/dev/full", "wb") as full:
        proc = child(["mu", s2_file, "--seq", "prefix:[3,1,2]:pad0", "--horizon", "3"],
                     stdout=full, stderr=full)
        proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_OUTPUT == 74


def test_a_command_started_without_stdout_still_exits_with_its_code(s2_file):
    """Started with file descriptor 1 closed (``>&-``), Python has no
    ``sys.stdout``; the command's output is dropped, as ``print`` drops it."""
    proc = child(["mu", s2_file, "--seq", "prefix:[3,1,2]:pad0", "--horizon", "3"],
                 shell=("sh", "-c", 'exec "$@" >&-', "sh"), stderr=subprocess.PIPE)
    assert proc.communicate(timeout=60) == (None, b"")
    assert proc.returncode == 0


def test_the_console_script_is_the_entry():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    section = lines[lines.index("[project.scripts]") + 1:]
    scripts = section[:next((i for i, line in enumerate(section) if line.startswith("[")),
                            len(section))]
    assert 'guessability = "guessability.cli:run"' in scripts


def exits_and_freezes(tree: ast.AST) -> list[str]:
    return sorted(f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and (node.value.id, node.attr) in {("sys", "exit"), ("gc", "freeze")})


def test_only_the_entry_exits_and_freezes():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted((SRC / "guessability").glob("*.py"))}
    found = {name: exits_and_freezes(tree) for name, tree in trees.items()}
    assert {name: calls for name, calls in found.items() if calls} == {
        "cli.py": ["gc.freeze", "sys.exit"]}
    entry = next(node for node in trees["cli.py"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "run")
    assert exits_and_freezes(entry) == ["gc.freeze", "sys.exit"]
