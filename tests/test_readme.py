"""The README's examples run and give the values the README states.

The library quick start states each expression's value in the comment that
follows it (``# <value>: ...``), and lists the package's top-level exports by
module; the CLI block states an ``eval`` example's output in the ``# -> <output>``
line below the command.
"""

import ast
import importlib
import re
import shlex
from pathlib import Path

import guessability
from guessability import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def code_block(heading: str, language: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_values():
    source = code_block("Library quick start", "python")
    lines = source.splitlines()
    namespace: dict = {}
    stated, got = [], []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        got.append(repr(eval(compile(ast.Expression(node.value), "README.md", "eval"),
                             namespace)))
        comment = next(line.split("#", 1)[1] for line in lines[node.end_lineno - 1:]
                       if "#" in line)
        stated.append(comment.split(":", 1)[0].strip())
    assert stated == ["0", "1", "5"]
    assert got == stated


def test_the_readme_lists_every_top_level_export_under_its_module():
    section = README.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- (\w+): (.*)$", section.replace("\n  ", " "), re.M)
    listed = {name: module for module, names in bullets for name in re.findall(r"`(\w+)`", names)}
    assert sorted(listed) == sorted(guessability.__all__)
    for name, module in listed.items():
        assert getattr(importlib.import_module(f"guessability.{module}"), name) \
            is getattr(guessability, name), name


def test_cli_eval_examples(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    lines = code_block("CLI", "sh").splitlines()
    stated, got = [], []
    for line, following in zip(lines, lines[1:]):
        written = re.fullmatch(r"echo '(.*)' > (\S+)", line)
        if written:
            Path(written.group(2)).write_text(written.group(1) + "\n")
        elif line.startswith("guessability eval "):
            stated.append(following.removeprefix("# -> "))
            assert cli.main(shlex.split(line)[1:]) == 0
            got.append(capsys.readouterr().out.rstrip("\n"))
    assert stated == ["true (max_queried=1)", "true (bounded)"]
    assert got == stated
