"""Token-mutation fuzz of the CLI: mangled sentences and signature lines end cleanly.

Each example writes a generated exists-forall sentence, a forall-exists
sentence, the exists-forall matrix on its own and a signature file, applies a
few token mutations (delete, insert, replace, swap) to one of them, and runs
them through ``cli.main``: ``eval`` of the matrix with x assigned, ``eval`` of
the sentence under ``--bound``, ``mu`` of it, and ``guess`` with the pair, at
small horizons; then ``adversary`` of every kind against the pair's guesser at
a small budget, and ``play`` against it, once and named twice, on standard
input lines mutated from numerals, ``:trace`` and ``:quit``.  A second test
mutates the tokens of two topology tables, whose cells and ``default`` lines
often repeat, and runs them through ``synth topology``.  Every run must return
0, 2, 3 or 4 with at most one ``error:`` line; an exception that escapes
``main`` is a traceback and fails the test.
"""

import contextlib
import io
import random
import re
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

import formula_gen
from guessability import cli
from guessability.lang import free_vars, print_formula

SIGNATURE = "seqfn S sum\nseqfn M max\n"  # the symbols formula_gen writes
TOKEN = re.compile(r"\.\.|->|<=|>=|\w+|\S")
VOCABULARY = (
    "(", ")", "[", "]", ":", "..", ",", ".", "=", "<", ">=", "->", "&", "|", "~",
    "forall", "exists", "x", "y", "z", "f", "S", "M", "add", "monus", "0", "7",
    "99999", "fn", "pred", "seqfn", "sum", "last", "contains0", "2", "#",
)
SEQUENCES = ("id", "const:0", "const:1", "cycle:[1,0,2]", "plantzero:3", "prefix:[3,0,2]:pad0")
PLAY_LINES = ("0", "1", "3", "12", ":trace", ":quit")
PLAY_VOCABULARY = (*PLAY_LINES, "-1", "99999", "x", ":", "trace", "\u00b2", "9" * 5000)
TABLE_VOCABULARY = ("0", "2", "7", "8,9", "-", ",", "1,", "default", "#", "-1", "x", "9" * 5000)


def edit_lists(vocabulary):
    return st.lists(st.tuples(st.sampled_from(("delete", "insert", "replace", "swap")),
                              st.integers(0, 999), st.sampled_from(vocabulary)), max_size=3)


mutations = edit_lists(VOCABULARY)


def mutated(text: str, edits, pattern: re.Pattern = TOKEN) -> str:
    """``text`` re-spaced token by token after the edits, each at a position taken modulo its length."""
    lines = []
    for line in text.splitlines():
        tokens = pattern.findall(line)
        for kind, at, token in edits:
            at %= len(tokens) + 1
            if kind == "insert" or not tokens:
                tokens.insert(at, token)
                continue
            at %= len(tokens)
            if kind == "delete":
                del tokens[at]
            elif kind == "replace":
                tokens[at] = token
            elif at + 1 < len(tokens):
                tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def run(argv: list[str], stdin: str) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(stdin)):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), seq=st.sampled_from(SEQUENCES),
       target=st.sampled_from(("s2.lg", "p2.lg", "qf.lg", "g.sig")), edits=mutations,
       play=st.lists(st.sampled_from(PLAY_LINES), max_size=6), play_edits=edit_lists(PLAY_VOCABULARY))
def test_mutated_sentences_and_signatures_end_cleanly(seed, seq, target, edits, play, play_edits):
    rnd = random.Random(seed)
    sigma2 = formula_gen.gen_sigma2(rnd)
    pi2_matrix = print_formula(formula_gen.gen_qf(rnd, 2, vars=("x", "y")))
    texts = {"s2.lg": sigma2.text(), "p2.lg": f"forall x. exists y. {pi2_matrix}",
             "qf.lg": print_formula(sigma2.matrix), "g.sig": SIGNATURE}
    texts[target] = mutated(texts[target], edits)
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in texts.items():
            Path(workdir, name).write_text(text)
        path = {name: str(Path(workdir, name)) for name in texts}
        common = ["--sig", path["g.sig"], "--seq", seq]
        assign = ["--assign", "x=1"] if "x" in free_vars(sigma2.matrix) else []  # y reads 0
        guesser = ["--sig", path["g.sig"], "--guesser", f"delta2:{path['s2.lg']}:{path['p2.lg']}"]
        # one line per token, so ":trace" stays whole and a mutation moves, drops or adds lines
        stdin = "\n".join(mutated(" ".join(play), play_edits, re.compile(r"\S+")).split()) + "\n"
        for argv in (
            ["eval", path["qf.lg"], *common, *assign],
            ["eval", path["s2.lg"], *common, "--bound", "3"],
            ["mu", path["s2.lg"], *common, "--horizon", "5"],
            ["guess", "--sigma2", path["s2.lg"], "--pi2", path["p2.lg"], *common, "--horizon", "5"],
            *(["adversary", *guesser, "--kind", kind, "--flips", "2", "--budget", "20"]
              for kind in ("diagonal", "permutation", "cantor")),
            ["play", *guesser],
            ["play", *guesser, *guesser[2:]],
        ):
            code, err = run(argv, stdin)  # only play reads stdin
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert code in (0, 2, 3, 4) and len(errors) <= 1, (argv[0], texts, stdin, code, err)


# up to four cells over rows and columns 0..2, so a table often repeats one
cells = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                           st.sampled_from(("0", "7", "8,9", "-"))), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(tables=st.tuples(cells, cells), defaults=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       target=st.integers(0, 1), edits=edit_lists(TABLE_VOCABULARY))
def test_mutated_topology_tables_end_cleanly(tables, defaults, target, edits):
    texts = ["".join(f"{i} {j} {entries}\n" for i, j, entries in rows) + "default -\n" * repeats
             for rows, repeats in zip(tables, defaults)]
    texts[target] = mutated(texts[target], edits, re.compile(r"\S+"))
    with tempfile.TemporaryDirectory() as workdir:
        paths = [str(Path(workdir, name)) for name in ("S.tbl", "SC.tbl")]
        for path, text in zip(paths, texts):
            Path(path).write_text(text)
        code, err = run(["synth", "topology", *paths, "--out-dir", str(Path(workdir, "out"))], "")
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code in (0, 2, 3, 4) and len(errors) <= 1, (texts, code, err)
