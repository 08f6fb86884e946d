import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from guessability import lang
from guessability.lang import (
    And,
    CaptureError,
    EllipsisApp,
    Eq,
    Exists,
    Forall,
    Implies,
    LangError,
    Not,
    Numeral,
    Or,
    ParseError,
    Pi2Sentence,
    Pred,
    SeqApp,
    SignatureError,
    Sigma2Sentence,
    Variable,
    default_signature,
    free_vars,
    load_signature,
    parse,
    print_formula,
    print_term,
    substitute,
)

from guessability.oracle import FinitePrefix, from_spec
from guessability.semantics import (
    AttemptOutcome,
    EvalResult,
    attempt,
    eval_qf,
)

import formula_gen
import record_twins
from formula_gen import parse_term


@pytest.fixture
def sig():
    base = default_signature()
    base.register_seq_function("G", lambda t: sum(t))
    return base


# ---------------------------------------------------------------------------
# free variables


def test_free_vars_of_a_variable():
    assert free_vars(Variable("x")) == {"x"}


def test_free_vars_ellipsis_removes_binder_keeps_bound(sig):
    term = parse_term("G[ f(x) : x .. y ]", sig)
    assert free_vars(term) == {"y"}


def test_free_vars_ellipsis_bound_reintroduces_binder_name(sig):
    term = parse_term("G[ f(x) : x .. x ]", sig)
    assert free_vars(term) == {"x"}


def test_free_vars_quantifier_removes_bound_variable(sig):
    assert free_vars(parse("forall x. f(x) = y", sig)) == {"y"}


# ---------------------------------------------------------------------------
# substitution


def test_substitute_into_bound_term_only_other_var(sig):
    term = parse_term("G[ f(x) : x .. y ]", sig)
    assert substitute(term, "y", Numeral(7)) == parse_term("G[ f(x) : x .. 7 ]", sig)


def test_substitute_binder_var_rewrites_only_the_bound(sig):
    term = parse_term("G[ f(x) : x .. x ]", sig)
    result = substitute(term, "x", Numeral(3))
    assert result == parse_term("G[ f(x) : x .. 3 ]", sig)
    assert result.body == term.body


def test_substitute_no_free_occurrence_is_identity(sig):
    term = parse_term("f(0)", sig)
    assert substitute(term, "x", Numeral(5)) == term


def test_substitute_passes_into_body_and_bound(sig):
    term = parse_term("G[ add(f(z), y) : z .. y ]", sig)
    result = substitute(term, "y", Numeral(2))
    assert result == parse_term("G[ add(f(z), 2) : z .. 2 ]", sig)


def test_substitute_rejects_capture_under_ellipsis_binder(sig):
    term = parse_term("G[ add(f(z), y) : z .. 0 ]", sig)
    with pytest.raises(CaptureError):
        substitute(term, "y", Variable("z"))


def test_substitute_rejects_capture_under_quantifier(sig):
    formula = parse("forall z. f(z) = y", sig)
    with pytest.raises(CaptureError):
        substitute(formula, "y", Variable("z"))


def test_substitute_closed_terms_always_pass_binders(sig):
    term = parse_term("G[ add(f(z), y) : z .. 0 ]", sig)
    assert substitute(term, "y", parse_term("f(4)", sig)) == \
        parse_term("G[ add(f(z), f(4)) : z .. 0 ]", sig)


def test_substitute_shadowed_quantifier_variable(sig):
    formula = parse("forall x. f(x) = 0", sig)
    assert substitute(formula, "x", Numeral(9)) == formula


def test_substitute_passes_under_a_quantifier_over_another_variable(sig):
    formula = parse("forall y. f(x) = y", sig)
    assert substitute(formula, "x", Numeral(3)) == parse("forall y. f(3) = y", sig)


def test_closed_substitution_removes_exactly_that_variable():
    rnd = random.Random(77)
    for _ in range(200):
        term = formula_gen.gen_term(rnd, depth=3, vars=("x", "y"))
        closed = Numeral(rnd.randrange(9))
        assert free_vars(substitute(term, "x", closed)) == free_vars(term) - {"x"}


# ---------------------------------------------------------------------------
# subtrees and the walks over them


def test_children_are_the_subtrees_in_field_order():
    x, one, two = Variable("x"), Numeral(1), Numeral(2)
    eq, lt = Eq(x, one), Pred("<", (one, x))
    cases = [
        (x, ()), (one, ()), (lang.FixedApp("add", (x, one)), (x, one)), (SeqApp(two), (two,)),
        (EllipsisApp("G", x, "x", two), (x, two)), (eq, (x, one)), (lt, (one, x)),
        (Not(eq), (eq,)), (And(eq, lt), (eq, lt)), (Or(lt, eq), (lt, eq)),
        (Implies(eq, lt), (eq, lt)), (Forall("x", eq), (eq,)), (Exists("y", lt), (lt,)),
    ]
    for node, subtrees in cases:
        assert lang.children(node) == subtrees


@pytest.mark.parametrize("walk, message", [
    (lang.children, "not a term or formula"),
    (free_vars, "not a term or formula"),
    (lambda node: substitute(node, "x", Numeral(0)), "not a term or formula"),
    (print_term, "not a term"),
    (print_formula, "not a formula"),
    (lang.is_quantifier_free, "not a formula"),
    (lambda node: eval_qf(Eq(node, Numeral(0)), from_spec("id")), "not a term"),
    (lambda node: eval_qf(node, from_spec("id")), "not a formula"),
], ids=["children", "free_vars", "substitute", "print_term", "print_formula",
        "is_quantifier_free", "eval_term", "eval_qf"])
@pytest.mark.parametrize("junk", [3, "x", None], ids=["int", "str", "None"])
def test_walks_reject_what_is_not_a_node(walk, message, junk):
    with pytest.raises(TypeError, match=message):
        walk(junk)


@pytest.mark.parametrize("walk", [lang.is_quantifier_free, print_formula,
                                  lambda node: eval_qf(node, from_spec("id"))],
                         ids=["is_quantifier_free", "print_formula", "eval_qf"])
def test_formula_walks_reject_a_bare_term(walk):
    with pytest.raises(TypeError, match="not a formula"):
        walk(Variable("x"))


def test_walks_finish_at_the_nesting_limit():
    """98 negations over ``f(x) = 0`` put the leaves MAX_NESTING levels below the root."""
    open_ = parse("!" * 98 + "f(x) = 0")
    closed = parse("!" * 98 + "f(0) = 0")
    assert lang._height(open_) == lang._height(closed) == lang.MAX_NESTING == 100
    assert parse(print_formula(closed)) == closed
    assert free_vars(open_) == {"x"}
    assert substitute(open_, "x", Numeral(0)) == closed
    assert lang.is_quantifier_free(open_)
    assert eval_qf(closed, from_spec("const:0")) == EvalResult(value=True, queried=frozenset({0}))
    assert attempt(closed, FinitePrefix((0,))) == AttemptOutcome(True)
    with pytest.raises(ParseError, match="nesting deeper than 100 levels"):
        parse("!" * 99 + "f(0) = 0")


# ---------------------------------------------------------------------------
# parsing


def test_parse_prenex_sentence(sig):
    assert parse("exists x. forall y. f(x) = 0", sig) == Exists(
        "x", Forall("y", Eq(SeqApp(Variable("x")), Numeral(0))))


def test_parse_ellipsis_equation(sig):
    assert parse("G[ f(z) : z .. y ] = 1", sig) == Eq(
        EllipsisApp("G", SeqApp(Variable("z")), "z", Variable("y")), Numeral(1))


def test_parse_reports_line_and_column(sig):
    with pytest.raises(ParseError) as err:
        parse("forall x. (", sig)
    assert err.value.line == 1
    assert err.value.column >= 11


def test_parse_takes_decimal_digits_only(sig):
    with pytest.raises(ParseError) as err:
        parse("f(\u00b2) = 0", sig)
    assert (err.value.line, err.value.column) == (1, 3)


def test_names_and_numerals_are_read_as_the_str_predicates_read_them(sig):
    assert free_vars(parse("f(é) = 0", sig)) == {"é"}
    assert free_vars(parse("x² = 0", sig)) == {"x²"}
    arabic_indic_three = parse("f(\u0663) = 0", sig)
    assert arabic_indic_three == parse("f(3) = 0", sig)
    assert eval_qf(arabic_indic_three, from_spec("id")) == EvalResult(
        value=False, queried=frozenset({3}))


@pytest.mark.parametrize("symbol", [symbol for _, symbol, _ in lang.BINARY]
                         + list(lang._REL_SYMBOLS))
def test_each_connective_and_relation_scans_as_one_token(symbol):
    assert [(token.kind, token.text) for token in lang._tokenize(symbol)] == [
        ("op", symbol), ("eof", "")]


# DSL tokens and a few phrases; runs of 1200 reach past the nesting limit
_FUZZ_PIECES = ("forall", "exists", "x", "y", "z", "f", "G", "g", "0", "7", "(", ")", "[", "]",
                ",", ":", ".", "..", "->", "|", "&", "!", "=", "<", ">", "<=", ">=", "\n",
                "0 = 0 &", "f(x) < y |", "x = 1 ->", "forall x.", "f(")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_FUZZ_PIECES), st.sampled_from((1, 2, 3, 1200))),
                max_size=12))
def test_parse_any_token_text_yields_a_formula_or_a_lang_error(runs):
    sig = default_signature()
    sig.register_seq_function("G", lambda t: sum(t))
    text = " ".join(" ".join([token] * count) for token, count in runs)
    try:
        formula = parse(text, sig)
    except LangError:
        return
    parse(print_formula(formula), sig)


def test_parse_connective_precedence(sig):
    got = parse("f(0) = 0 | f(1) = 1 & f(2) = 2 -> f(3) = 3", sig)
    assert isinstance(got, Implies)
    assert isinstance(got.left, Or)
    assert isinstance(got.left.right, And)


def test_parse_implication_right_associative(sig):
    got = parse("0 = 0 -> 1 = 1 -> 2 = 2", sig)
    assert isinstance(got, Implies)
    assert isinstance(got.right, Implies)


def test_parse_negation_and_parens(sig):
    got = parse("!(0 = 1 & 1 = 1)", sig)
    assert got == Not(And(Eq(Numeral(0), Numeral(1)), Eq(Numeral(1), Numeral(1))))


def test_parse_unknown_applied_symbol(sig):
    with pytest.raises(ParseError):
        parse("h(1) = 0", sig)


def test_parse_arity_mismatch(sig):
    with pytest.raises(ParseError):
        parse("add(1) = 0", sig)


def test_parse_undeclared_ellipsis_symbol(sig):
    with pytest.raises(ParseError):
        parse("H[ f(z) : z .. 3 ] = 0", sig)


def test_parse_rejects_trailing_input(sig):
    with pytest.raises(ParseError):
        parse("0 = 0 )", sig)


# 10 ** power + offset; the digit count is exact at either side of a power of ten
@pytest.mark.parametrize("power, offset, digits", [(4300, 0, 4301), (5000, -1, 5000),
                                                   (5000, 0, 5001)])
def test_decimal_names_the_digits_of_a_natural_too_long_to_write(power, offset, digits):
    with pytest.raises(LangError, match=f"^index of {digits} digits is too long$"):
        lang.decimal(10 ** power + offset, "index")


@pytest.mark.parametrize("power, offset", [(0, -1), (1, -3), (4299, 0), (4300, -1)])
def test_decimal_writes_what_natural_reads(power, offset):
    n = 10 ** power + offset
    assert lang.natural(lang.decimal(n, "index"), "index") == n


@pytest.mark.parametrize("read, text, message", [
    (parse, "f(forall) = 0", "'forall' cannot start a term (line 1, column 3)"),
    (parse, "add(below(1, 2), 0) = 0",
     "'below' is a predicate symbol, not a fixed-arity function (line 1, column 16)"),
    (parse_term, "add(1, 2) 3", "unexpected trailing input '3' (line 1, column 11)"),
])
def test_parse_errors_name_the_problem(read, text, message):
    with pytest.raises(ParseError) as err:
        read(text, load_signature("pred below 2 <\n"))
    assert str(err.value) == message


def test_parse_comparisons(sig):
    assert parse("1 <= 2", sig) == Pred("<=", (Numeral(1), Numeral(2)))
    assert parse("y > x", sig) == Pred(">", (Variable("y"), Variable("x")))


def test_predicate_call_atoms_parse_print_and_evaluate():
    sig = load_signature("pred below 2 <\n")
    formula = parse("below(x, f(y))", sig)
    assert formula == Pred("below", (Variable("x"), SeqApp(Variable("y"))))
    assert print_formula(formula) == "below(x, f(y))"
    assert parse(print_formula(formula), sig) == formula
    compound = parse("!below(1, 2) & below(f(0), add(1, 2))", sig)
    assert print_formula(compound) == "!below(1, 2) & below(f(0), add(1, 2))"
    source = from_spec("prefix:[3,0,2]:pad0")
    assert eval_qf(formula, source, {"x": 1, "y": 2}, sig) == \
        EvalResult(value=True, queried=frozenset({2}))
    assert not eval_qf(formula, source, {"x": 2, "y": 2}, sig).value
    with pytest.raises(ParseError, match="^predicate 'below' expects 2 arguments, got 1 "):
        parse("below(x)", sig)


# ---------------------------------------------------------------------------
# printing


def test_print_trivial_equation():
    assert print_formula(Eq(Numeral(0), Numeral(0))) == "0 = 0"


def test_print_ellipsis_canonical_form(sig):
    term = parse_term("G[f(z):z..y]", sig)
    assert print_term(term) == "G[ f(z) : z .. y ]"


def test_print_parenthesizes_quantifier_under_connective(sig):
    formula = And(Eq(Numeral(0), Numeral(0)), Forall("x", Eq(Numeral(1), Numeral(1))))
    text = print_formula(formula)
    assert parse(text, sig) == formula


def test_print_parse_round_trip_on_generated_asts():
    rnd = random.Random(1729)
    sig = formula_gen.generator_signature()
    for _ in range(300):
        ast = formula_gen.gen_qf(rnd, depth=3, vars=("x", "y"))
        assert parse(print_formula(ast), sig) == ast


def test_print_parse_round_trip_with_quantifiers():
    rnd = random.Random(8)
    sig = formula_gen.generator_signature()
    for _ in range(100):
        matrix = formula_gen.gen_qf(rnd, depth=2, vars=("x", "y"))
        ast = Exists("x", Forall("y", matrix))
        assert parse(print_formula(ast), sig) == ast


# ---------------------------------------------------------------------------
# prenex shapes: each sentence class's ``from_formula`` takes only its own shape

REFUSALS = {Sigma2Sentence: "not an exists-forall sentence",
            Pi2Sentence: "not a forall-exists sentence"}


def assert_taken_only_by(text, sig, taker):
    """``taker.from_formula`` gives the sentence back, and every other class refuses it."""
    formula = parse(text, sig)
    for cls, refusal in REFUSALS.items():
        if cls is taker:
            assert cls.from_formula(formula).formula() == formula
            continue
        with pytest.raises(LangError) as exc:
            cls.from_formula(formula)
        assert str(exc.value) == f"{refusal}: {print_formula(formula)}"


def test_classify_sigma2(sig):
    assert_taken_only_by("exists x. forall y. f(x) = 0", sig, Sigma2Sentence)


def test_classify_quantifier_free(sig):
    assert_taken_only_by("0 = 0", sig, None)


def test_classify_nested_other(sig):
    assert_taken_only_by("forall a. forall b. exists n. f(n) = b", sig, None)


def test_classify_pi2(sig):
    assert_taken_only_by("forall x. exists y. f(y) = 0", sig, Pi2Sentence)


def test_classify_single_quantifier_is_nested_other(sig):
    assert_taken_only_by("forall x. f(x) = 0", sig, None)


def test_classify_rejects_open_formulas(sig):
    """The free-variable check comes first, before the shape."""
    for text, free in (("f(x) = 0", "['x']"), ("exists x. forall y. f(z) = y", "['z']")):
        for cls in REFUSALS:
            with pytest.raises(LangError) as exc:
                cls.from_formula(parse(text, sig))
            assert str(exc.value) == f"the sentence has free variables {free}"


@pytest.mark.parametrize("cls, other, quantifiers, shape, wrong_class", [
    (Sigma2Sentence, Pi2Sentence, (Exists, Forall), "sigma2", "not an exists-forall sentence"),
    (Pi2Sentence, Sigma2Sentence, (Forall, Exists), "pi2", "not a forall-exists sentence"),
])
def test_sentence_classes_keep_texts_repr_and_equality(sig, cls, other, quantifiers, shape,
                                                       wrong_class):
    matrix = parse("f(x) = y", sig)
    sentence = cls("x", "y", matrix)
    outer, inner = quantifiers
    assert sentence.formula() == outer("x", inner("y", matrix))
    assert sentence.text() == print_formula(sentence.formula())
    again = cls.from_formula(sentence.formula())
    assert type(again) is cls and again == sentence and hash(again) == hash(sentence)
    assert repr(sentence) == f"{cls.__name__}(outer='x', inner='y', matrix={matrix!r})"
    assert sentence != other("x", "y", matrix)
    foreign = other("x", "y", matrix).formula()
    with pytest.raises(LangError) as exc:
        cls.from_formula(foreign)
    assert str(exc.value) == f"{wrong_class}: {print_formula(foreign)}"
    for args, message in (
            (("x", "x", parse("f(x) = 0", sig)),
             f"{shape} sentence needs distinct quantified variables, got 'x' twice"),
            (("x", "y", parse("f(z) = 0", sig)), f"{shape} matrix has stray free variables ['z']"),
            (("x", "y", parse("forall z. f(z) = 0", sig)), f"{shape} matrix must be quantifier-free")):
        with pytest.raises(LangError) as exc:
            cls(*args)
        assert str(exc.value) == message


def test_sentence_wrappers_validate_shape(sig):
    sigma = Sigma2Sentence.from_formula(parse("exists x. forall y. f(x) = y", sig))
    assert sigma.outer == "x" and sigma.inner == "y"
    assert parse(sigma.text(), sig) == sigma.formula()
    with pytest.raises(LangError):
        Pi2Sentence.from_formula(parse("exists x. forall y. f(x) = y", sig))
    with pytest.raises(LangError):
        Sigma2Sentence("x", "y", Eq(Variable("q"), Numeral(0)))


# ---------------------------------------------------------------------------
# signatures


def test_reserved_symbol_not_redeclarable():
    sig = default_signature()
    with pytest.raises(SignatureError):
        sig.register_function("f", 1, lambda a: a)
    with pytest.raises(SignatureError):
        sig.register_seq_function("forall", lambda t: 0)


UNREADABLE = "is not a symbol name: a letter or '_', then letters, digits or '_'"


@pytest.mark.parametrize("register, message", [
    (lambda sig: sig.register_function("g", 0, lambda: 0), "function arity must be positive"),
    (lambda sig: sig.register_predicate("p", 0, lambda: True), "predicate arity must be positive"),
    (lambda sig: sig.function("nope"), "unknown function symbol 'nope'"),
    (lambda sig: sig.predicate("nope"), "unknown predicate symbol 'nope'"),
    (lambda sig: sig.register_function("", 1, lambda a: a), f"'' {UNREADABLE}"),
    (lambda sig: sig.register_predicate("1x", 1, bool), f"'1x' {UNREADABLE}"),
    (lambda sig: sig.register_seq_function("G-", len), f"'G-' {UNREADABLE}"),
], ids=["function-arity-0", "predicate-arity-0", "unknown-function", "unknown-predicate",
        "empty-name", "name-starting-with-a-digit", "name-with-an-operator"])
def test_signature_guards_name_the_problem(register, message):
    with pytest.raises(SignatureError, match=f"^{message}$"):
        register(default_signature())


@pytest.mark.parametrize("name", ["_", "x_2", "G\u00e9", "a\u00b2", "<="])
def test_signature_takes_every_name_the_parser_reads(name):
    """A name is what ``_tokenize`` reads as one name, or a comparison's symbol."""
    sig = lang.Signature()
    sig.register_predicate(name, 2, operator.le)
    atom = Pred(name, (Numeral(0), Numeral(1)))
    assert parse(print_formula(atom), sig) == atom


def test_names_unique_across_kinds():
    sig = default_signature()
    sig.register_seq_function("G", lambda t: 0)
    with pytest.raises(SignatureError):
        sig.register_function("G", 2, lambda a, b: a)


def test_load_signature_lines():
    sig = load_signature("# comment\nfn g 2 constfam\nseqfn Gz contains0\npred below 2 <\n")
    assert sig.function("g")[0] == 2
    assert sig.seq_function("Gz")((3, 0, 2)) == 1
    assert sig.predicate("below")[1](1, 2)


@pytest.mark.parametrize("line", ["fn g 3 constfam", "fn g 2 nosuch", "seqfn T nosuch",
                                  "pred p 2 nosuch", "wat", "fn g constfam"])
def test_load_signature_rejects_bad_lines(line):
    with pytest.raises(SignatureError):
        load_signature(line)


@pytest.mark.parametrize("line, message", [
    ("fn g 2 nosuch", "line 1: unknown function builtin 'nosuch'"),
    ("pred p 2 nosuch", "line 1: unknown predicate builtin 'nosuch'"),
    ("fn g 3 constfam", "line 1: builtin 'constfam' has arity 2, not 3"),
    ("pred p 3 <", "line 1: builtin '<' has arity 2, not 3"),
    ("fn g x +", "line 1: arity 'x' is not a decimal natural"),
    ("# comment\npred p -2 <", "line 2: arity '-2' is not a decimal natural"),
    pytest.param("fn g " + "9" * 5000 + " +", "line 1: arity of 5000 digits is too long",
                 id="arity-too-long"),
    ("fn 1x 2 +", f"line 1: '1x' {UNREADABLE}"),
    ("seqfn x- sum", f"line 1: 'x-' {UNREADABLE}"),
    ("# comment\npred a.b 2 <", f"line 2: 'a.b' {UNREADABLE}"),
])
def test_load_signature_error_texts(line, message):
    with pytest.raises(SignatureError) as exc:
        load_signature(line)
    assert str(exc.value) == message


def test_default_signature_builtins():
    sig = default_signature()
    assert sig.function("monus")[1](3, 5) == 0
    assert sig.function("add")[1](2, 3) == 5
    assert sig.function("mul")[1](2, 3) == 6
    assert sig.predicate(">")[1](2, 1)


def test_sentence_wrappers_reject_shadowed_variables(sig):
    with pytest.raises(LangError):
        Sigma2Sentence.from_formula(parse("exists x. forall x. f(x) = 0", sig))
    with pytest.raises(LangError):
        Pi2Sentence("x", "x", Eq(Variable("x"), Numeral(0)))


def test_records_match_their_dataclass_twins(sig):
    x, one = Variable("x"), Numeral(1)
    matrix = parse("f(x) = y", sig)
    samples = {
        lang.Term: [()],
        lang.Formula: [()],
        Variable: [("x",), ("y",)],
        Numeral: [(0,), (7,)],
        lang.FixedApp: [("g", (one, x)), ("g", [one, x]), ("h", ())],
        SeqApp: [(x,), (one,)],
        EllipsisApp: [("G", x, "x", one), ("G", x, "x", Numeral(2))],
        Eq: [(x, one), (one, x)],
        Pred: [("<", (x, one)), ("<", [x, one]), ("p", (one,))],
        Not: [(Eq(x, one),), (Eq(one, x),)],
        And: [(Eq(x, one), Eq(one, x)), (Eq(x, one), Eq(x, one))],
        Or: [(Eq(x, one), Eq(one, x))],
        Implies: [(Eq(x, one), Eq(one, x))],
        Forall: [("x", Eq(x, one)), ("y", Eq(x, one))],
        Exists: [("x", Eq(x, one))],
        lang._Token: [("nat", "12", 1, 3), ("eof", "", 2, 1)],
        Sigma2Sentence: [("x", "y", matrix), ("y", "x", matrix)],
        Pi2Sentence: [("x", "y", matrix)],
    }
    # abstract: only a subclass names the shape its __post_init__ checks
    assert record_twins.defined_in(lang) - set(samples) == {lang._PrenexSentence}
    for cls, args in samples.items():
        record_twins.check_against_twin(cls, args)
    for family in ((And, Or, Implies), (Forall, Exists), (Sigma2Sentence, Pi2Sentence)):
        args = samples[family[0]][0]
        nodes = [cls(*args) for cls in family]
        assert all(a != b for a, b in itertools.combinations(nodes, 2))
    record_twins.check_rejects_like_twin(Numeral, (-1,), ValueError)
    record_twins.check_rejects_like_twin(Sigma2Sentence, ("x", "y", parse("f(z) = y", sig)),
                                         LangError)
    record_twins.check_rejects_like_twin(Pi2Sentence, ("x", "x", matrix), LangError)

