"""The command line is read by one argparse parser built from ``cli.COMMANDS``.

These are the rules the README promises: options in any order, ``--flag
value`` and ``--flag=value``, a unique prefix of a long option, the last of a
repeated option, ``--`` before a positional, and values that look like
negative numbers; and every broken line is one ``error:`` line with exit 2.
"""

import ast
import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from guessability import cli, synth

@pytest.mark.parametrize("argv, expected", [
    (["eval", "--seq", "id", "f.lg", "--bound", "3"],
     {"command": "eval", "handler": cli.cmd_eval, "sentence": "f.lg", "seq": "id",
      "assign": None, "bound": 3}),
    (["guess", "--seq=cycle:[1,2]", "--horizon=4", "--spec=contains-zero", "--json"],
     {"spec": "contains-zero", "sigma2": None, "pi2": None, "seq": "cycle:[1,2]",
      "horizon": 4, "sig": None, "json": True}),
    (["mu", "--se", "id", "s.lg", "--hor", "2", "--si", "g.sig"],
     {"sentence": "s.lg", "seq": "id", "horizon": 2, "sig": "g.sig", "json": False}),
    (["adversary", "--guesser", "a", "--kind", "cantor", "--flips", "1", "--guesser", "b",
      "--flips=2"],
     {"guesser": "b", "kind": "cantor", "set": None, "flips": 2, "budget": 10_000}),
    (["synth", "topology", "S.tbl", "SC.tbl", "--out-dir", "out"],
     {"source": "topology", "inputs": ["S.tbl", "SC.tbl"], "out_dir": "out", "prefix": ""}),
    (["synth", "guesser", "A", "--", "B"], {"source": "guesser", "inputs": ["A", "B"]}),
    (["play", "--guesser", "a", "--gu=b", "--guesser", "a"], {"guesser": ["a", "b", "a"]}),
    (["play"], {"guesser": None, "sig": None}),
])
def test_lines_give_their_attributes(argv, expected):
    read = vars(cli.build_parser().parse_args(argv))
    assert {name: read[name] for name in expected} == expected


def test_reader_reads_a_dash_dash_and_negative_numbers_as_values():
    parser = cli.build_parser()
    for argv, sentence, seq, bound in (
            (["eval", "--seq", "id", "--", "-f"], "-f", "id", None),
            (["eval", "-5", "--seq", "-.5"], "-5", "-.5", None),
            (["eval", "f", "--seq", "-a b", "--bound", "-1"], "f", "-a b", -1)):
        read = parser.parse_args(argv)
        assert (read.sentence, read.seq, read.bound) == (sentence, seq, bound)


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(code: int, out: str, err: str) -> None:
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    [], ["frob"], ["--json", "eval"], ["eval", "f"], ["mu", "--seq"],
    ["eval", "f", "--seq", "id", "g"], ["synth", "guesser", "A", "--sig", "s", "B"],
    ["guess", "--si", "x", "--seq", "id", "--horizon", "1"],
    ["adversary", "--guesser", "c", "--kind", "cantor", "--json=1"],
    ["adversary", "--guesser", "c", "--kind", "cantor", "--set", "nope"],
    ["synth", "nope", "x"], ["eval", "f", "--seq", "id", "--bound", "x"],
])
def test_reader_rejects_broken_lines(capsys, argv):
    assert_one_error_line(*run(capsys, argv))


@pytest.mark.parametrize("argv", [["synth", "family", "add", "--json"], ["play", "--json"]])
def test_json_is_an_option_only_of_commands_that_print_json(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert run(capsys, argv) == (2, "", "error: guessability: unrecognized arguments: --json\n")
    assert not any(tmp_path.iterdir())


# a valid line of each command, run in a directory that holds s.lg
VALID = {
    "eval": ["eval", "s.lg", "--seq", "id", "--bound", "2"],
    "guess": ["guess", "--spec", "contains-zero", "--seq", "id", "--horizon", "2"],
    "mu": ["mu", "s.lg", "--seq", "id", "--horizon", "2"],
    "adversary": ["adversary", "--guesser", "parity-of-length", "--kind", "diagonal",
                  "--flips", "1"],
    "synth": ["synth", "family", "add", "--out-dir", "out"],
    "play": ["play"],
}


def options(command: str) -> list[tuple[str, dict]]:
    return [(name, keywords) for name, _, keywords in cli.COMMANDS[command][2]]


def valued(command: str) -> list[str]:
    return [name for name, keywords in options(command)
            if name.startswith("--") and keywords.get("action") != "store_true"]


VALUED = [(command, flag) for command in cli.COMMANDS for flag in valued(command)]


@pytest.mark.parametrize("command, flag", VALUED, ids=[" ".join(pair) for pair in VALUED])
def test_a_dash_dash_after_equals_is_a_usage_error(capsys, monkeypatch, tmp_path, command, flag):
    """argparse stores ``[]`` for ``--flag=--``; the parser refuses it before a command runs."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    (tmp_path / "s.lg").write_text("exists x. forall y. f(x) = 0")
    argv = VALID[command]
    assert run(capsys, argv)[0] == 0
    if flag in argv:
        at = argv.index(flag)
        argv = argv[:at] + argv[at + 2:]
    made = sorted(tmp_path.rglob("*"))
    assert_one_error_line(*run(capsys, [*argv, f"{flag}=--"]))
    assert sorted(tmp_path.rglob("*")) == made


# Values read as values wherever they stand: none starts with ``-`` unless it is
# a negative number, and none is ``--``.
PLAIN = st.text(alphabet="ab .:,=x0/", max_size=6) | st.integers(-99, 99).map(str)
# Values only the ``--flag=value`` form can carry.
ANY = PLAIN | st.text(alphabet="-ab=x0 ", max_size=6).filter(lambda text: text != "--")


def spellings(command: str, flag: str) -> list[str]:
    """``flag`` and each prefix of it that no other option of ``command`` starts with."""
    others = [name for name, _ in options(command) if name.startswith("-") and name != flag]
    others.append("--help")
    return [flag[:end] for end in range(3, len(flag) + 1)
            if flag[:end] == flag or not any(name.startswith(flag[:end]) for name in others)]


def value_strategy(keywords: dict, form: st.SearchStrategy) -> st.SearchStrategy:
    if "choices" in keywords:
        return st.sampled_from(sorted(keywords["choices"]))
    if keywords.get("type") is cli._numeral:
        return st.integers(0, 10**6).map(str)
    return form


@st.composite
def command_lines(draw, command: str, omit: str | None = None) -> list[str]:
    """A line that is valid unless it leaves out ``omit``: options in any order and
    form, repeated, around the positionals."""
    chunks = []
    for name, keywords in options(command):
        if not name.startswith("-") or name == omit:
            continue
        low = 1 if keywords.get("required") else 0
        for _ in range(draw(st.integers(low, low + 2))):
            flag = draw(st.sampled_from(spellings(command, name)))
            if keywords.get("action") == "store_true":
                chunks.append([flag])
            elif draw(st.booleans()):
                chunks.append([f"{flag}={draw(value_strategy(keywords, ANY))}"])
            else:
                chunks.append([flag, draw(value_strategy(keywords, PLAIN))])
    chunks = draw(st.permutations(chunks))
    positionals = [(name, keywords) for name, keywords in options(command)
                   if not name.startswith("-") and name != omit]
    slots = sorted(draw(st.lists(st.integers(0, len(chunks)), min_size=len(positionals),
                                 max_size=len(positionals))))
    for offset, (slot, (name, keywords)) in enumerate(zip(slots, positionals)):
        count = draw(st.integers(1, 3)) if keywords.get("nargs") == "+" else 1
        chunks.insert(slot + offset, [draw(value_strategy(keywords, PLAIN)) for _ in range(count)])
    return [command, *(arg for chunk in chunks for arg in chunk)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(cli.COMMANDS)), st.data())
def test_broken_lines_are_one_error_line(command, data):
    """A missing required argument, an unknown option, a missing value or a bad choice."""
    needed = [name for name, keywords in options(command)
              if not name.startswith("-") or keywords.get("required")]
    chosen = [name for name, keywords in options(command)
              if name.startswith("-") and "choices" in keywords]
    fault = data.draw(st.sampled_from(
        ["unknown", "no value"] + ["missing"] * bool(needed) + ["bad choice"] * bool(chosen)))
    if fault == "missing":
        argv = data.draw(command_lines(command, omit=data.draw(st.sampled_from(needed))))
    else:
        argv = data.draw(command_lines(command))
    if fault == "unknown":
        at = data.draw(st.integers(1, len(argv)))
        argv = [*argv[:at], "--zz", *argv[at:]]
    elif fault == "no value":
        argv = [*argv, data.draw(st.sampled_from(valued(command)))]
    elif fault == "bad choice":
        argv = [*argv, f"{data.draw(st.sampled_from(chosen))}=bogus"]
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert_one_error_line(code, out.getvalue(), err.getvalue())
    assert err.getvalue().startswith((f"error: {command}: ", "error: guessability: "))


def test_bare_command_is_a_usage_error(capsys):
    code, out, err = run(capsys, [])
    assert_one_error_line(code, out, err)
    assert err.startswith("error: guessability: ")


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_lists_every_command(capsys, flag):
    assert cli.main([flag]) == 0
    out = capsys.readouterr().out
    assert all(f"  {command} " in out for command in cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_help_lists_every_option(capsys, command):
    assert cli.main([command, "--help"]) == 0
    out = capsys.readouterr().out
    names = [name for name, _ in options(command)]
    assert names and all(f"  {name}" in out for name in names)


@pytest.mark.parametrize("argv", [["--help"], ["adversary", "--help"]])
def test_help_does_not_follow_the_terminal_width(capsys, monkeypatch, argv):
    shown = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert cli.main(argv) == 0
        shown.append(capsys.readouterr().out)
    assert shown[0] == shown[1]


def test_a_guesser_that_exits_ends_the_process_with_its_code(monkeypatch):
    """Only the help's exit is turned into a return; any other ``SystemExit`` propagates."""
    def leave(prefix):
        raise SystemExit(7)

    monkeypatch.setitem(cli.BUILTIN_GUESSERS, "constant-1", synth.Guesser(leave, "leave"))
    with pytest.raises(SystemExit) as exited:
        cli.main(["adversary", "--guesser", "constant-1", "--kind", "cantor"])
    assert exited.value.code == 7


def handler_reads(command: str) -> set[str]:
    """The ``<args>.<name>`` attributes read in ``cli.py`` by the handler of ``command``
    and by every module function it passes its namespace to, under any parameter name."""
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def parameters(name: str) -> list[str]:
        return [arg.arg for arg in functions[name].args.args]

    handler = cli.COMMANDS[command][0].__name__
    todo, seen, read = [(handler, parameters(handler)[0])], set(), set()
    while todo:
        name, namespace = todo.pop()
        if (name, namespace) in seen:
            continue
        seen.add((name, namespace))
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == namespace:
                read.add(node.attr)
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in functions):
                continue
            passed = [(parameters(node.func.id)[at], arg) for at, arg in enumerate(node.args)]
            passed += [(keyword.arg, keyword.value) for keyword in node.keywords]
            todo += [(node.func.id, parameter) for parameter, arg in passed
                     if isinstance(arg, ast.Name) and arg.id == namespace]
    return read


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_option_a_command_takes_is_read_by_its_handler(command):
    """An option the handler never reads would be accepted and ignored."""
    taken = {name.lstrip("-").replace("-", "_") for name, _ in options(command)}
    assert taken - handler_reads(command) == set()
