"""A golden corpus of CLI runs: argv, exit code and the sha256 of stdout and stderr.

``tests/golden/cli.json`` holds, for each command, the argument list, the
exit code of ``cli.main`` and the digests of what it printed, plus the small
files the README's CLI block and the ``synth`` runs read.  A ``synth`` run
also keeps the digest of each file whose path it printed.  The corpus
covers the README's block, the three bench commands at full size for seeds
0 and 1, the longer runs that exercise the hot paths, one ``synth`` run
for each other source, and runs that pin ``--assign`` and the ``--json``
values of ``eval``, ``mu``, ``guess`` and ``adversary``.  Each command runs in
process with an empty stdin, in a working directory that holds those files
and a copy of ``bench/inputs``, so every path it reads or prints is relative.

    python tests/golden_corpus.py --regen

rewrites the corpus from the current code.  Regenerate it only when an output
is meant to change, and say which outputs changed and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "golden" / "cli.json"

GZ = ["--sig", "bench/inputs/gz.sig",
      "--sigma2", "bench/inputs/Gz.sigma2.lg", "--pi2", "bench/inputs/Gz.pi2.lg"]

# the hot paths, at sizes the suite can afford
LONG_RUNS = [
    ["mu", "bench/inputs/mu.sigma2.lg", "--seq", "cycle:[1,2,3]", "--horizon", "4000"],
    ["guess", *GZ, "--seq", "plantzero:10", "--horizon", "4000"],
    ["guess", *GZ, "--seq", "const:1", "--horizon", "2000"],
    ["guess", "--spec", "contains-zero", "--seq", "const:1", "--horizon", "1000"],
    ["adversary", "--guesser", "delta2:bench/inputs/Gz.sigma2.lg:bench/inputs/Gz.pi2.lg",
     "--sig", "bench/inputs/gz.sig", "--kind", "diagonal", "--set", "inf-zeros",
     "--flips", "10", "--budget", "10000"],
]

# a parse error and the help text, which no other command prints
ERRORS_AND_HELP = [
    ["eval", "broken.lg", "--seq", "id"],
    ["--help"],
]

# the synth sources the README's block does not run, and the files they read
SYNTH_FILES = {
    "S.tbl": "# S = { f : f(0) = 7 }\n0 0 7\n",
    "SC.tbl": "# f(0) is 0, 1 or 2, or f starts 8, 9\n0 0 0\n0 1 1\n0 2 2\n0 4 8,9\ndefault -\n",
    "mu.sig": "seqfn Mu max\n",
    "family.sig": "fn g 2 constfam\n",
}
SYNTH_RUNS = [
    ["synth", "topology", "S.tbl", "SC.tbl", "--out-dir", "synth"],
    ["synth", "overguesser", "Mu", "--sig", "mu.sig", "--out-dir", "synth"],
    ["synth", "family", "g", "--sig", "family.sig", "--out-dir", "synth"],
]


# runs that pin assignments and the printed values of mu: free variables bound by
# --assign, one left unassigned (it reads 0), --assign under --bound, and --json
VALUE_FILES = {
    "qf2.lg": "f(x) = y\n",
    "bounded.lg": "exists y. f(y) = add(x, 1)\n",
}
VALUE_RUNS = [
    ["eval", "qf2.lg", "--seq", "prefix:[3,0,2]:pad0", "--assign", "x=2,y=2"],
    ["eval", "qf2.lg", "--seq", "prefix:[3,0,2]:pad0", "--assign", "x=1"],
    ["eval", "bounded.lg", "--seq", "id", "--assign", "x=4", "--bound", "6"],
    ["eval", "qf2.lg", "--seq", "prefix:[3,0,2]:pad0", "--assign", "x=0,y=3", "--json"],
    ["eval", "bounded.lg", "--seq", "id", "--assign", "x=9", "--bound", "6", "--json"],
    ["mu", "bench/inputs/mu.sigma2.lg", "--seq", "cycle:[1,0,0]", "--horizon", "40", "--json"],
    ["guess", *GZ, "--seq", "plantzero:10", "--horizon", "60", "--json"],
    ["adversary", "--guesser", "delta2:bench/inputs/Gz.sigma2.lg:bench/inputs/Gz.pi2.lg",
     "--sig", "bench/inputs/gz.sig", "--kind", "diagonal", "--flips", "3", "--budget", "500",
     "--json"],
    ["adversary", "--guesser", "parity-of-length", "--kind", "diagonal", "--flips", "4", "--json"],
]


def readme_block() -> tuple[dict[str, str], list[list[str]]]:
    """The files the README's CLI block writes, and the argv of each command it runs."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    files, commands = {}, []
    for line in block.replace("\\\n", " ").splitlines():
        written = re.fullmatch(r"(echo|printf) '(.*)' > (\S+)", line.strip())
        if written:
            kind, text, name = written.groups()
            files[name] = text + "\n" if kind == "echo" else text.replace("\\n", "\n")
        elif line.startswith("guessability "):
            commands.append(shlex.split(line)[1:])
    return files, commands


def bench_commands() -> list[list[str]]:
    """``bench/run.py``'s argv for each workload at full size, seeds 0 and 1, paths relative."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(bench)
    root = str(ROOT) + os.sep
    return [[arg.replace(root, "") for arg in workload.argv(seed, workload.size)]
            for workload in bench.WORKLOADS.values() for seed in (0, 1)]


def prepare(workdir: Path, files: dict[str, str]) -> None:
    """Write the corpus files and a copy of ``bench/inputs`` into ``workdir``."""
    for name, text in files.items():
        (workdir / name).write_text(text)
    shutil.copytree(ROOT / "bench" / "inputs", workdir / "bench" / "inputs")


def run(argv: list[str]) -> dict:
    """Exit code and output digests of one ``cli.main`` run in the current directory."""
    from guessability import cli  # imported here: run as a script, main puts src on the path first

    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO("")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = stdin
    recorded = {"argv": list(argv), "code": code,
                "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest()}
    if argv[0] == "synth":  # it prints the path of each file it wrote
        recorded["files_sha256"] = {path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
                                    for path in out.getvalue().splitlines()}
    return recorded


def regen(workdir: Path) -> None:
    files, commands = readme_block()
    files["broken.lg"] = "f(0) = \n"
    files.update(SYNTH_FILES)
    files.update(VALUE_FILES)
    commands += bench_commands() + LONG_RUNS + ERRORS_AND_HELP + SYNTH_RUNS + VALUE_RUNS
    prepare(workdir, files)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        runs = [run(argv) for argv in commands]
    finally:
        os.chdir(cwd)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps({"files": files, "runs": runs}, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--regen", action="store_true", required=True,
                        help="rewrite tests/golden/cli.json from the current code")
    parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as workdir:
        regen(Path(workdir))
    print(f"wrote {CORPUS.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
