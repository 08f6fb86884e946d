"""A work gate without timing: the Python calls one warm ``attempt`` makes.

Wall-clock benchmarks cannot see a few percent more evaluator work, but a
frame more per node or per symbol lookup shows here as a count.  The bounds
are the counts of the evaluator as it stands; a change may lower them and
must not raise them.
"""

import sys
from pathlib import Path

import pytest

from guessability import lang
from guessability.oracle import FinitePrefix
from guessability.semantics import Assignment, EllipsisMemo, attempt

INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"


def calls_of_warm_attempt(formula, prefix, sig, s, memo) -> int:
    """``call`` profile events of the second of two equal attempts, the ``attempt`` call included."""
    attempt(formula, prefix, sig, s, memo)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        attempt(formula, prefix, sig, s, memo)
    finally:
        sys.setprofile(None)
    return calls


def gz_matrix():
    """The matrix of the benchmark's exists-forall ``Gz`` sentence, with its signature."""
    sig = lang.load_signature((INPUTS / "gz.sig").read_text())
    sentence = lang.Sigma2Sentence.from_formula(lang.parse((INPUTS / "Gz.sigma2.lg").read_text(), sig))
    return sentence.matrix, sig


def test_a_warm_attempt_on_the_bench_gz_matrix_with_its_memo():
    matrix, sig = gz_matrix()
    s = Assignment({"x": 0, "y": 3})
    assert calls_of_warm_attempt(matrix, FinitePrefix((1, 1, 0, 1, 1)), sig, s, EllipsisMemo()) <= 19


@pytest.mark.parametrize("entries, bound", [((0,) * 9, 23), ((0,) * 3, 25)],
                         ids=["succeeds", "fails"])
def test_a_warm_attempt_on_a_plain_implication(entries, bound):
    sig = lang.default_signature()
    formula = lang.parse("(y > x) -> f(add(y, y)) = 0", sig)
    s = Assignment({"x": 0, "y": 3})
    assert calls_of_warm_attempt(formula, FinitePrefix(entries), sig, s, None) <= bound
