"""``cli.parse_args`` reads every command line as the argparse parser it replaced.

The reference is ``cli_reference.build_parser``. Each command's options are
taken from that parser, so a line drawn here uses every option, spelling and
form the reference accepted.
"""

import argparse
import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from guessability import cli

import cli_reference

REFERENCE = cli_reference.build_parser()
SUBPARSERS = next(action for action in REFERENCE._actions
                  if isinstance(action, argparse._SubParsersAction)).choices

# Values that argparse reads as values wherever they stand: none starts with
# ``-`` unless it is a negative number, and none is ``--``.
PLAIN = st.text(alphabet="ab .:,=x0/", max_size=6) | st.integers(-99, 99).map(str)
# Values that only the ``--flag=value`` form can carry. Not ``--flag=--``:
# argparse drops that ``--`` and stores an empty list, where the reader
# keeps the text.
ANY = PLAIN | st.text(alphabet="-ab=x0 ", max_size=6).filter(lambda text: text != "--")


def options(command: str) -> list[argparse.Action]:
    return [action for action in SUBPARSERS[command]._actions
            if not isinstance(action, argparse._HelpAction)]


def spellings(parser: argparse.ArgumentParser, flag: str) -> list[str]:
    """``flag`` and each prefix of it that no other option of ``parser`` starts with."""
    others = [name for name in parser._option_string_actions if name != flag]
    return [flag[:end] for end in range(3, len(flag) + 1)
            if flag[:end] == flag or not any(name.startswith(flag[:end]) for name in others)]


def value_strategy(action: argparse.Action, form: st.SearchStrategy) -> st.SearchStrategy:
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return st.integers(0, 10**6).map(str)
    return form


@st.composite
def command_lines(draw, command: str, omit: argparse.Action | None = None) -> list[str]:
    """A line that is valid unless it leaves out ``omit``: options in any order and
    form, repeated, around the positionals."""
    parser = SUBPARSERS[command]
    chunks = []
    for action in options(command):
        if not action.option_strings or action is omit:
            continue
        low = 1 if action.required else 0
        for _ in range(draw(st.integers(low, low + 2))):
            flag = draw(st.sampled_from(spellings(parser, action.option_strings[-1])))
            if action.nargs == 0:
                chunks.append([flag])
            elif draw(st.booleans()):
                chunks.append([f"{flag}={draw(value_strategy(action, ANY))}"])
            else:
                chunks.append([flag, draw(value_strategy(action, PLAIN))])
    chunks = draw(st.permutations(chunks))
    positionals = [action for action in options(command)
                   if not action.option_strings and action is not omit]
    slots = sorted(draw(st.lists(st.integers(0, len(chunks)), min_size=len(positionals),
                                 max_size=len(positionals))))
    for offset, (slot, action) in enumerate(zip(slots, positionals)):
        count = draw(st.integers(1, 3)) if action.nargs == "+" else 1
        chunks.insert(slot + offset, [draw(value_strategy(action, PLAIN)) for _ in range(count)])
    return [command, *(arg for chunk in chunks for arg in chunk)]


def reference_reads(argv: list[str]) -> dict:
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        return vars(REFERENCE.parse_args(argv))


def rejects(argv: list[str]) -> None:
    """Both readers reject ``argv`` with exit 2, the new one in one ``error: <command>:`` line."""
    with pytest.raises(SystemExit) as exited:
        reference_reads(argv)
    assert exited.value.code == 2
    with pytest.raises(cli.CliError) as failed:
        cli.parse_args(argv)
    assert failed.value.code == 2
    assert str(failed.value).startswith(f"{argv[0]}: ") and "\n" not in str(failed.value)


LINES = st.sampled_from(sorted(SUBPARSERS)).flatmap(command_lines)


@settings(max_examples=400, deadline=None)
@given(LINES)
def test_reader_matches_the_reference_parser(argv):
    assert vars(cli.parse_args(argv)) == reference_reads(argv)


def test_reader_reads_a_dash_dash_and_negative_numbers_as_values():
    for argv in (["eval", "--seq", "id", "--", "-f"], ["eval", "-5", "--seq", "-.5"],
                 ["synth", "guesser", "A", "--", "B"], ["eval", "f", "--seq", "-a b"],
                 ["eval", "f", "--seq", "id", "--bound", "-1"]):
        assert vars(cli.parse_args(argv)) == reference_reads(argv)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SUBPARSERS)), st.data())
def test_reader_rejects_what_the_reference_rejects(command, data):
    """A missing required argument, an unknown option, a missing value or a bad choice."""
    required = [action for action in options(command) if action.required]
    valued = [action.option_strings[-1] for action in options(command)
              if action.option_strings and action.nargs != 0]
    chosen = [action.option_strings[-1] for action in options(command)
              if action.option_strings and action.choices is not None]
    fault = data.draw(st.sampled_from(
        ["unknown", "no value"] + ["missing"] * bool(required) + ["bad choice"] * bool(chosen)))
    if fault == "missing":
        rejects(data.draw(command_lines(command, omit=data.draw(st.sampled_from(required)))))
        return
    argv = data.draw(command_lines(command))
    if fault == "unknown":
        at = data.draw(st.integers(1, len(argv)))
        rejects([*argv[:at], "--zz", *argv[at:]])
    elif fault == "no value":
        rejects([*argv, data.draw(st.sampled_from(valued))])
    else:
        rejects([*argv, f"{data.draw(st.sampled_from(chosen))}=bogus"])


@pytest.mark.parametrize("argv", [
    [], ["frob"], ["--json", "eval"], ["eval", "f"], ["mu", "--seq"],
    ["eval", "f", "--seq", "id", "g"], ["synth", "guesser", "A", "--sig", "s", "B"],
    ["guess", "--si", "x", "--seq", "id", "--horizon", "1"],
    ["adversary", "--guesser", "c", "--kind", "cantor", "--json=1"],
    ["adversary", "--guesser", "c", "--kind", "cantor", "--set", "nope"],
    ["synth", "nope", "x"], ["eval", "f", "--seq", "id", "--bound", "x"],
])
def test_reader_rejects_broken_lines(argv):
    if argv and argv[0] in SUBPARSERS:
        rejects(argv)
    else:
        with pytest.raises(SystemExit):
            reference_reads(argv)
        with pytest.raises(cli.CliError) as failed:
            cli.parse_args(argv)
        assert str(failed.value).startswith("guessability: ")


def test_bare_command_is_a_usage_error(capsys):
    assert cli.main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: guessability: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_lists_every_command(capsys, flag):
    assert cli.main([flag]) == 0
    out = capsys.readouterr().out
    assert all(f"  {command} " in out for command in cli.COMMANDS)


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_help_lists_every_option(capsys, command):
    assert cli.main([command, "--help"]) == 0
    out = capsys.readouterr().out
    names = [action.option_strings[-1] if action.option_strings else action.dest
             for action in options(command)]
    assert names and all(f"  {name}" in out for name in names)
