"""Every command of the golden corpus gives the exit code and output it gave when recorded.

The corpus (``tests/golden/cli.json``, written by ``python tests/golden_corpus.py
--regen``) keeps the sha256 of stdout and of stderr, so a changed printed
value or exit code in the README's CLI block, the bench commands or the long
runs fails here.
"""

import json

import pytest

import golden_corpus as golden

CORPUS = json.loads(golden.CORPUS.read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    golden.prepare(path, CORPUS["files"])
    return path


@pytest.mark.parametrize("recorded", CORPUS["runs"], ids=[
    f"{i:02d}-{' '.join(run['argv'])[:50]}" for i, run in enumerate(CORPUS["runs"])])
def test_command_gives_its_recorded_output(recorded, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    assert golden.run(recorded["argv"]) == recorded


def test_corpus_covers_the_readme_block_and_the_bench_commands():
    files, readme_commands = golden.readme_block()
    recorded = [run["argv"] for run in CORPUS["runs"]]
    assert files.items() <= CORPUS["files"].items()
    commands = [*readme_commands, *golden.bench_commands(),
                *golden.LONG_RUNS, *golden.ERRORS_AND_HELP,
                *golden.SYNTH_RUNS, *golden.VALUE_RUNS]
    assert [argv for argv in commands if argv not in recorded] == []
