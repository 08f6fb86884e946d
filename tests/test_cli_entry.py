"""The process entry ``cli.run``: same results as ``cli.main``, a clean end on a
closed pipe, exit hooks that still run, and ``os._exit`` kept out of the library path."""

import ast
import contextlib
import gc
import io
import os
import select
import signal
import subprocess
import sys
import textwrap
from collections.abc import Iterator
from pathlib import Path

import pytest

from guessability import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def child(argv: list[str], shell: tuple[str, ...] = (), **popen) -> subprocess.Popen:
    """``python -m guessability.cli`` on ``argv`` in a fresh process, run by ``shell`` if given."""
    return subprocess.Popen([*shell, sys.executable, "-m", "guessability.cli", *argv],
                            env=child_env(), stdin=subprocess.DEVNULL, **popen)


def buffering_modes(monkeypatch) -> Iterator[str]:
    """Set up the children started next as buffered, then as unbuffered, whatever the caller exported."""
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    yield "buffered"
    monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    yield "unbuffered"


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
def test_the_entry_changes_no_result(s2_file, argv, code, monkeypatch):
    argv = [arg.format(s2=s2_file) for arg in argv]
    for mode in buffering_modes(monkeypatch):
        proc = child(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        out, err = proc.communicate(timeout=60)
        frozen = gc.get_freeze_count()
        assert (proc.returncode, out, err) == in_process(argv), mode
        assert gc.get_freeze_count() == frozen, mode  # main leaves the collector as it found it
        assert proc.returncode == code, mode


def test_a_closed_pipe_ends_with_exit_141_and_nothing_on_stderr(monkeypatch):
    """The prefix line (about 400 KB) outgrows any pipe buffer, so the child
    writes into a pipe whose reader has gone."""
    for mode in buffering_modes(monkeypatch):
        proc = child(["adversary", "--guesser", "constant-1", "--kind", "diagonal",
                      "--set", "inf-zeros", "--flips", "10", "--budget", "200000"],
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline().startswith(b"flips="), mode
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_PIPE == 141, mode
        assert err == b"", mode


@pytest.mark.parametrize("argv, first", [
    (["mu", str(ROOT / "bench" / "inputs" / "mu.sigma2.lg"), "--seq", "cycle:[1]"], b"len=1 mu="),
    (["guess", "--spec", "contains-zero", "--seq", "const:1"], b"trace: 0"),
    (["mu", str(ROOT / "bench" / "inputs" / "mu.sigma2.lg"), "--seq", "cycle:[1]", "--json"],
     b'{"mu": ['),
    (["guess", "--spec", "contains-zero", "--seq", "const:1", "--json"], b'{"trace": ['),
], ids=["mu", "guess", "mu-json", "guess-json"])
def test_an_interrupt_keeps_what_was_printed_and_exits_130(argv, first, monkeypatch):
    """A trace too long to end prints its rows as they are decided, so the first
    arrive at once, a buffer at a time when buffered; SIGINT then ends it with
    one error line and no traceback."""
    for mode in buffering_modes(monkeypatch):
        proc = child([*argv, "--horizon", "9" * 23], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                     preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))  # as from a shell
        try:
            assert select.select([proc.stdout], [], [], 2)[0], f"{mode}: no output within 2 s"
            head = os.read(proc.stdout.fileno(), len(first))
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert head == first, mode
        assert (proc.returncode, err) == (cli.EXIT_INTERRUPT, b"error: interrupted\n"), mode
    assert cli.EXIT_INTERRUPT == 130


class InterruptOnce:
    """Calls ``then`` after raising ``KeyboardInterrupt`` on the first call, as a Ctrl-C would."""

    def __init__(self, then):
        self.then, self.raised = then, False

    def __call__(self, *args):
        if not self.raised:
            self.raised = True
            raise KeyboardInterrupt
        return self.then(*args)


@pytest.mark.parametrize("argv, where", [
    (["mu", "--nope"], "complain"),
    (["guess", "--spec", "contains-zero", "--seq", "const:1", "--horizon", "2"], "flush"),
], ids=["while-reporting-an-error", "in-the-final-flush"])
def test_an_interrupt_after_main_handled_its_errors_exits_130(monkeypatch, capsys, argv, where):
    """An interrupt that arrives while ``main`` reports another error, or while ``run`` flushes
    stdout, ends the process as one that arrives during a command does."""
    codes = []
    monkeypatch.setattr(sys, "argv", ["guessability", *argv])
    monkeypatch.setattr(os, "_exit", codes.append)
    monkeypatch.setattr("atexit._run_exitfuncs", lambda: None)  # the test process's hooks stay
    if where == "complain":
        monkeypatch.setattr(cli, "_complain", InterruptOnce(cli._complain))
    else:
        monkeypatch.setattr(sys.stdout, "flush", InterruptOnce(sys.stdout.flush))
    try:
        cli.run()
    except KeyboardInterrupt:
        pytest.fail("the interrupt escaped run")
    out, err = capsys.readouterr()
    assert (codes, err) == ([cli.EXIT_INTERRUPT], "error: interrupted\n")
    assert out == ("" if where == "complain" else "trace: 0 0\nstable_from: 1\nfinal: 0\n")


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


def test_a_command_started_without_stdout_still_exits_with_its_code(s2_file, monkeypatch):
    """Started with file descriptor 1 closed (``>&-``), Python has no
    ``sys.stdout``; the command's output is dropped, as ``print`` drops it."""
    for mode in buffering_modes(monkeypatch):
        proc = child(["mu", s2_file, "--seq", "prefix:[3,1,2]:pad0", "--horizon", "3"],
                     shell=("sh", "-c", 'exec "$@" >&-', "sh"), stderr=subprocess.PIPE)
        assert proc.communicate(timeout=60) == (None, b""), mode
        assert proc.returncode == 0, mode


def test_the_console_script_is_the_entry():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    section = lines[lines.index("[project.scripts]") + 1:]
    scripts = section[:next((i for i, line in enumerate(section) if line.startswith("[")),
                            len(section))]
    assert 'guessability = "guessability.cli:run"' in scripts


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_exit_hooks_still_run(tmp_path, s2_file, unbuffered, monkeypatch):
    """``run`` ends with ``os._exit``, but after the hooks a caller registered, and
    what they print is flushed."""
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    marker = tmp_path / "marker"
    argv = ["mu", s2_file, "--seq", "prefix:[3,1,2]:pad0", "--horizon", "3"]
    wrapper = textwrap.dedent(f"""
        import atexit, pathlib, runpy, sys
        atexit.register(pathlib.Path({str(marker)!r}).write_text, "ran")
        atexit.register(print, "hook ran")
        atexit.register(sys.stderr.write, "a line without its end")
        sys.argv[1:] = {argv!r}
        runpy.run_module("guessability.cli", run_name="__main__")
    """)
    done = subprocess.run([sys.executable, "-c", wrapper], env=child_env(),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)
    code, out, err = in_process(argv)
    assert (done.returncode, done.stdout, done.stderr) == (
        code, out + "hook ran\n", err + "a line without its end")
    assert marker.read_text() == "ran"


def test_main_drops_a_line_its_stderr_cannot_take():
    """In process, ``main`` leaves its caller's streams and descriptors alone."""
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    with contextlib.redirect_stderr(Full()):
        assert cli.main(["mu", "--nope"]) == cli.EXIT_USAGE


# what ends the process, and what ``run`` needed before it ended the process itself
WATCHED = {"sys.exit", "os._exit", "os.abort", "os.kill", "exit", "quit", "os.dup2", "gc.freeze"}


def watched_names(tree: ast.AST) -> list[str]:
    names = (f"{node.value.id}.{node.attr}"
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             else getattr(node, "id", None) for node in ast.walk(tree))
    return sorted(name for name in names if name in WATCHED)


def test_only_the_entry_ends_the_process():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted((SRC / "guessability").glob("*.py"))}
    found = {name: watched_names(tree) for name, tree in trees.items()}
    assert {name: calls for name, calls in found.items() if calls} == {"cli.py": ["os._exit"]}
    entry = next(node for node in trees["cli.py"].body
                 if isinstance(node, ast.FunctionDef) and node.name == "run")
    assert watched_names(entry) == ["os._exit"]
