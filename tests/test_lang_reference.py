"""The parser and the printer, which read the connectives from ``lang.BINARY``,
against the hand-written levels in ``lang_reference``: the same trees, the same
text and the same parse errors, line and column included."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import formula_gen
import lang_reference
from guessability import lang
from guessability.lang import MAX_NESTING, And, Exists, Forall, Implies, Not, Or, ParseError

SIG = formula_gen.generator_signature()


def outcome(parse, print_formula, text: str):
    """(tree, its canonical text) from one parser and printer, or the parse error's details."""
    try:
        tree = parse(text, SIG)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column
    return tree, print_formula(tree)


def assert_same(text: str) -> None:
    ours = outcome(lang.parse, lang.print_formula, text)
    assert ours == outcome(lang_reference.parse, lang_reference.print_formula, text)


_seeds = st.integers(0, 2**32 - 1)
_atoms = _seeds.map(lambda seed: formula_gen.gen_qf(random.Random(seed), 0, ("x", "y")))
_variables = st.sampled_from(("x", "y", "z"))
_formulas = st.recursive(_atoms, lambda inner: st.one_of(
    *(st.builds(connective, inner, inner) for connective in (And, Or, Implies)),
    st.builds(Not, inner),
    st.builds(Forall, _variables, inner),
    st.builds(Exists, _variables, inner),
), max_leaves=16)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _formulas,
    _seeds.map(lambda seed: formula_gen.gen_qf(random.Random(seed), 4, ("x", "y"))),
    _seeds.map(lambda seed: formula_gen.gen_sigma2(random.Random(seed), 3).formula()),
))
def test_printer_and_parser_match_the_reference_on_formulas(formula):
    text = lang.print_formula(formula)
    assert text == lang_reference.print_formula(formula)
    assert_same(text)
    assert lang.parse(text, SIG) == formula


# connectives, negations, parentheses, quantifier heads and atoms; runs of
# 99-101 reach the nesting limit from either side
_PIECES = ("->", "|", "&", "!", "(", ")", "\n", "0 = 0", "f(x) < y", "S[ f(z) : z .. 2 ] = x",
           "forall x.", "exists y.", "0 = 0 ->", "x = 1 |", "f(0) > 0 &")


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_PIECES), st.sampled_from((1, 2, 3, 99, 100, 101))),
                max_size=10))
def test_parser_matches_the_reference_on_connective_texts(runs):
    assert_same(" ".join(" ".join([piece] * count) for piece, count in runs))


@pytest.mark.parametrize("depth", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1])
@pytest.mark.parametrize("shape", [
    lambda n: "(" * n + "0 = 0" + ")" * n,
    lambda n: "!" * n + "0 = 0",
    lambda n: "0 = 0 -> " * n + "0 = 0",
    lambda n: "0 = 0 | " * n + "0 = 0",
    lambda n: "0 = 0 & " * n + "0 = 0",
    lambda n: "(0 = 0 | " * n + "0 = 0" + ")" * n,
    lambda n: "0 = 0 &\n" * n + "(0 = 0 -> 1 = 1 | 2 = 2",
], ids=["parens", "negations", "implications", "disjunctions", "conjunctions",
        "nested-disjunctions", "unclosed"])
def test_parser_matches_the_reference_at_the_nesting_limit(shape, depth):
    assert_same(shape(depth))


def tokens_or_error(tokenize, text: str):
    """Each token as (kind, text, line, column), or the scan error's details."""
    try:
        return [(tok.kind, tok.text, tok.line, tok.column) for tok in tokenize(text)]
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column


# digits of several scripts (ASCII, Arabic-Indic, Devanagari, fullwidth), a
# superscript digit that is alphanumeric but not decimal, letters inside and
# outside ASCII, the underscore, every operator, spaces, tabs, newlines and a
# character no token starts with
_CHARACTERS = ("0", "7", "9", "٣", "٩", "०", "５", "²", "é", "x", "f",
               "G", "_", " ", "\t", "\n", "#", *lang._OPERATORS)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_CHARACTERS), max_size=30).map("".join))
def test_tokenizer_matches_the_reference(text):
    assert tokens_or_error(lang._tokenize, text) == tokens_or_error(lang_reference.tokenize, text)


def test_the_tokenizer_reads_every_connective_and_comparison():
    assert set(lang._OPERATORS) == {"->", "|", "&", "=", "<", ">", "<=", ">=",
                                    "..", "(", ")", "[", "]", ",", ":", ".", "!"}
