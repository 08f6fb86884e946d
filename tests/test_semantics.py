import gc
import random
import weakref

import pytest

from guessability import semantics
from guessability.lang import (
    And,
    EllipsisApp,
    Eq,
    Exists,
    FixedApp,
    Forall,
    Implies,
    Numeral,
    Or,
    Pred,
    SeqApp,
    SignatureError,
    Variable,
    default_signature,
    parse,
    parse_term,
    substitute,
)
from guessability.oracle import FinitePrefix, from_spec, zero_pad
from guessability.semantics import (
    EllipsisMemo,
    EvaluationBudgetExhausted,
    MAX_BOUNDED_INSTANCES,
    MisplacedQuantifierError,
    attempt,
    eval_bounded,
    eval_qf,
    eval_term,
)

import formula_gen
import record_twins


@pytest.fixture
def sig():
    base = default_signature()
    base.register_seq_function("G", lambda t: sum(t))
    return base


# ---------------------------------------------------------------------------
# terms


def test_eval_numeral_ignores_oracle(sig):
    result = eval_term(Numeral(5), from_spec("id"), None, sig)
    assert result.value == 5
    assert result.queried == frozenset()


@pytest.mark.parametrize("node, error, message", [
    (FixedApp("add", (Numeral(1),)), ValueError, "'add' expects 2 arguments, got 1"),
    (FixedApp("d1", (Numeral(1), Numeral(2))), ValueError, "'d1' expects 1 arguments, got 2"),
    (Pred("<", (Numeral(1),)), ValueError, "'<' expects 2 arguments, got 1"),
    (FixedApp("nope", (Numeral(1),)), SignatureError, "unknown function symbol 'nope'"),
    (Pred("nope", (Numeral(1),)), SignatureError, "unknown predicate symbol 'nope'"),
], ids=["add-1", "d1-2", "lt-1", "unknown-function", "unknown-predicate"])
def test_a_hand_built_tree_off_the_signature_is_an_error(node, error, message):
    """The parser never builds such a tree, but a caller can by hand."""
    formula = node if isinstance(node, Pred) else Eq(node, Numeral(0))
    evaluations = [lambda: eval_qf(formula, from_spec("id")),
                   lambda: attempt(formula, FinitePrefix((0,)))]
    if not isinstance(node, Pred):
        evaluations.append(lambda: eval_term(node, from_spec("id")))
    for evaluate in evaluations:
        with pytest.raises(error, match=f"^{message}$"):
            evaluate()


def test_eval_ellipsis_sums_prefix(sig):
    term = parse_term("G[ f(x) : x .. 99 ]", sig)
    assert eval_term(term, from_spec("id"), None, sig).value == 4950


def test_eval_ellipsis_small_sum(sig):
    term = parse_term("G[ f(x) : x .. 3 ]", sig)
    result = eval_term(term, from_spec("id"), None, sig)
    assert result.value == 6
    assert result.queried == frozenset({0, 1, 2, 3})


def test_eval_ellipsis_binder_shadows_assignment(sig):
    term = parse_term("G[ f(x) : x .. 2 ]", sig)
    result = eval_term(term, from_spec("id"), {"x": 40}, sig)
    assert result.value == 3


def test_eval_ellipsis_bound_uses_assignment(sig):
    term = parse_term("G[ f(x) : x .. y ]", sig)
    assert eval_term(term, from_spec("id"), {"y": 4}, sig).value == 10


def test_eval_unknown_symbol_errors(sig):
    term = parse_term("G[ f(x) : x .. 2 ]", sig)
    plain = default_signature()
    with pytest.raises(Exception) as err:
        eval_term(term, from_spec("id"), None, plain)
    assert "G" in str(err.value)


def test_assignment_defaults_to_zero(sig):
    term = parse_term("f(x)", sig)
    assert eval_term(term, from_spec("const:9"), {}, sig).value == 9


# ---------------------------------------------------------------------------
# quantifier-free formulas


def test_eval_qf_query_report(sig):
    result = eval_qf(parse("f(1) = 0", sig), zero_pad(FinitePrefix((3, 0, 2))), None, sig)
    assert result.value is True
    assert result.max_queried == 1


def test_eval_qf_no_queries_for_pure_arithmetic(sig):
    result = eval_qf(parse("0 = 0", sig), from_spec("id"), None, sig)
    assert result.value is True
    assert result.queried == frozenset()


def test_eval_qf_memoised_disjunction(sig):
    result = eval_qf(parse("f(0) = 0 | f(0) = 3", sig), zero_pad(FinitePrefix((3,))), None, sig)
    assert result.value is True
    assert result.queried == frozenset({0})


def test_eval_qf_never_short_circuits(sig):
    # a short-circuiting OR would skip f(1) after the true left disjunct
    result = eval_qf(parse("f(0) = 3 | f(1) = 0", sig), zero_pad(FinitePrefix((3,))), None, sig)
    assert result.value is True
    assert result.queried == frozenset({0, 1})
    # same for AND with a false left conjunct and for a false implication guard
    result = eval_qf(parse("f(0) = 9 & f(1) = 0", sig), zero_pad(FinitePrefix((3,))), None, sig)
    assert result.value is False
    assert result.queried == frozenset({0, 1})
    result = eval_qf(parse("f(0) = 9 -> f(1) = 0", sig), zero_pad(FinitePrefix((3,))), None, sig)
    assert result.value is True
    assert result.queried == frozenset({0, 1})


def test_eval_qf_tracks_queried_indices(sig):
    result = eval_qf(parse("f(4) = f(1)", sig), from_spec("id"), None, sig)
    assert result.queried == frozenset({1, 4})
    assert result.max_queried == 4


def test_eval_qf_reports_only_its_own_reads(sig):
    oracle = from_spec("id")
    oracle.query(9)
    assert eval_qf(parse("f(2) = 2", sig), oracle, None, sig).queried == frozenset({2})
    result = eval_qf(parse("0 = 0", sig), oracle, None, sig)
    assert result.queried == frozenset()
    assert result.max_queried is None


def test_eval_qf_counts_ellipsis_entries(sig):
    within = parse(f"G[ x : x .. {MAX_BOUNDED_INSTANCES - 1} ] > 0", sig)
    assert eval_qf(within, from_spec("id"), None, sig).value is True
    beyond = parse(f"G[ x : x .. {MAX_BOUNDED_INSTANCES} ] > 0", sig)
    with pytest.raises(EvaluationBudgetExhausted):
        eval_qf(beyond, from_spec("id"), None, sig)


def test_memo_hit_spends_no_budget(sig):
    # the same ellipsis node twice: MAX_BOUNDED_INSTANCES entries each time
    ellipsis = parse_term(f"G[ f(x) : x .. {MAX_BOUNDED_INSTANCES - 1} ]", sig)
    twice = And(Eq(ellipsis, Numeral(0)), Eq(ellipsis, Numeral(0)))
    prefix = FinitePrefix((0,) * MAX_BOUNDED_INSTANCES)
    with pytest.raises(EvaluationBudgetExhausted):
        attempt(twice, prefix, sig)
    assert attempt(twice, prefix, sig, None, EllipsisMemo()).truth is True


def test_equal_ellipsis_terms_spend_budget_once(sig):
    # two equal nodes parsed apart: MAX_BOUNDED_INSTANCES entries for the pair, not each
    text = f"G[ f(x) : x .. {MAX_BOUNDED_INSTANCES - 1} ] = 0"
    twice = And(parse(text, sig), parse(text, sig))
    assert twice.left == twice.right and twice.left is not twice.right
    prefix = FinitePrefix((0,) * MAX_BOUNDED_INSTANCES)
    assert attempt(twice, prefix, sig, None, EllipsisMemo()).truth is True


def test_eval_qf_rejects_quantifiers(sig):
    with pytest.raises(MisplacedQuantifierError):
        eval_qf(parse("forall x. f(x) = 0", sig), from_spec("id"), None, sig)


# ---------------------------------------------------------------------------
# attempts


def test_attempt_succeeds_within_prefix(sig):
    outcome = attempt(parse("f(1) = 0", sig), FinitePrefix((3, 0, 2)), sig)
    assert outcome.succeeded and outcome.truth is True


def test_attempt_fails_past_prefix(sig):
    outcome = attempt(parse("f(5) = 0", sig), FinitePrefix((3, 0, 2)), sig)
    assert outcome.failed
    assert outcome.offending_index == 5


def test_attempt_fails_at_an_index_too_long_to_print(sig):
    nines = "9" * 3000
    outcome = attempt(parse(f"f(mul({nines}, {nines})) = 0", sig), FinitePrefix((3, 0, 2)), sig)
    assert outcome.failed
    assert outcome.offending_index == (10 ** 3000 - 1) ** 2


def test_attempt_empty_prefix_no_queries(sig):
    outcome = attempt(parse("0 = 0", sig), FinitePrefix(()), sig)
    assert outcome.succeeded and outcome.truth is True


def test_attempt_empty_prefix_any_query_fails(sig):
    assert attempt(parse("f(0) = 0", sig), FinitePrefix(()), sig).failed


def test_attempt_depends_only_on_inputs(sig):
    rnd = random.Random(99)
    for _ in range(50):
        sentence = formula_gen.gen_closed_qf(rnd, depth=3)
        prefix = FinitePrefix(tuple(rnd.randrange(5) for _ in range(rnd.randrange(1, 6))))
        gsig = formula_gen.generator_signature()
        first = attempt(sentence, prefix, gsig)
        second = attempt(sentence, prefix, gsig)
        assert first == second


def test_attempt_monotone_in_prefix_length(sig):
    rnd = random.Random(7)
    gsig = formula_gen.generator_signature()
    checked = 0
    for _ in range(120):
        sentence = formula_gen.gen_closed_qf(rnd, depth=3)
        oracle = formula_gen.random_oracle(rnd)
        values = [oracle.query(i) for i in range(30)]
        for k in range(1, 8):
            outcome = attempt(sentence, FinitePrefix(tuple(values[:k])), gsig)
            if outcome.succeeded:
                for longer in range(k, 31):
                    again = attempt(sentence, FinitePrefix(tuple(values[:longer])), gsig)
                    assert again == outcome
                checked += 1
                break
    assert checked > 40


def _shared_entries_matrix(rnd):
    """A matrix whose ellipsis body mentions a free variable besides its binder.

    The body reads f at the binder half the time, so a long enough bound fails mid-list.
    """
    binder, other = rnd.choice((("z", "x"), ("z", "y"), ("x", "y"), ("y", "x")))
    left = formula_gen.gen_term(rnd, 1, (binder, other)) if rnd.randrange(2) else SeqApp(Variable(binder))
    body = FixedApp(rnd.choice(("add", "mul", "monus")), (left, Variable(other)))
    bound = rnd.choice((Variable("x"), Variable("y"), SeqApp(Variable("y")), Numeral(3)))
    ellipsis = EllipsisApp(rnd.choice(("S", "M")), body, binder, bound)
    right = formula_gen.gen_term(rnd, 1, ("x", "y"))
    atom = Eq(ellipsis, right) if rnd.randrange(2) else Pred("<", (ellipsis, right))
    return rnd.choice((And, Or, Implies))(atom, formula_gen.gen_qf(rnd, 1, ("x", "y")))


def test_attempt_with_memo_matches_plain_attempt():
    rnd = random.Random(8)
    gsig = formula_gen.generator_signature()
    for n in range(90):
        # every third matrix shares ellipsis entries across the values of a second variable
        matrix = _shared_entries_matrix(rnd) if n % 3 == 2 else formula_gen.gen_qf(
            rnd, 2, ("x", "y"), force_ellipsis=True, binder=rnd.choice(("x", "y", "z")))
        oracle = formula_gen.random_oracle(rnd)
        values = tuple(oracle.query(i) for i in range(10))
        memo = EllipsisMemo()
        # one memo over a growing prefix, assignments in a fresh order each time
        for k in range(len(values) + 1):
            prefix = FinitePrefix(values[:k])
            pairs = [(x, y) for x in range(4) for y in range(4)]
            rnd.shuffle(pairs)
            for x, y in pairs:
                s = {"x": x, "y": y}
                assert attempt(matrix, prefix, gsig, s, memo) == attempt(matrix, prefix, gsig, s), \
                    (matrix, k, x, y)


def test_memo_keeps_the_entries_before_a_failed_read(sig, monkeypatch):
    spent = [0]
    spend = semantics._Evaluation.spend

    def counted(self):
        spent[0] += 1
        spend(self)

    monkeypatch.setattr(semantics._Evaluation, "spend", counted)
    matrix = parse("G[ add(f(z), x) : z .. y ] = 20", sig)
    prefix = FinitePrefix((1, 2, 3, 4, 5))
    memo = EllipsisMemo()

    def both(y, prefix=prefix):
        s = {"x": 1, "y": y}
        plain = attempt(matrix, prefix, sig, s)
        spent[0] = 0
        return plain, attempt(matrix, prefix, sig, s, memo), spent[0]

    # entries 0..4 succeed, entry 5 reads past the prefix: same offending index
    plain, memoised, units = both(8)
    assert plain == memoised == semantics.AttemptOutcome(None, 5)
    assert units == 6
    # a shorter bound finds its entries in the list and spends nothing
    plain, memoised, units = both(3)
    assert plain == memoised and memoised.truth is False
    assert units == 0
    assert both(4)[:2] == (semantics.AttemptOutcome(True),) * 2
    # on an extension the longer bound evaluates only the entries past the list
    plain, memoised, units = both(8, FinitePrefix((1, 2, 3, 4, 5, 6, 7, 8, 9)))
    assert plain == memoised and memoised.truth is False
    assert units == 4


def test_equal_ellipsis_terms_share_a_table_per_value_of_the_other_variables(sig):
    text = "G[ add(f(z), x) : z .. y ] = 9"
    first, second = parse(text, sig), parse(text, sig)
    assert first == second and first is not second
    prefix, memo = FinitePrefix((1, 0, 2, 5)), EllipsisMemo()
    for x in range(3):
        for y in range(5):
            for matrix in (first, second):
                s = {"x": x, "y": y}
                assert attempt(matrix, prefix, sig, s, memo) == attempt(matrix, prefix, sig, s), (x, y)
    # one table per value of x, each shared by both formulas; a new value of x needs a new one
    assert len(memo.tables) == 3
    s = {"x": 3, "y": 1}
    assert attempt(first, prefix, sig, s, memo) == attempt(first, prefix, sig, s)
    assert len(memo.tables) == 4


def test_a_node_freed_after_the_memo_resolved_it_does_not_lend_its_id_to_another_term():
    # each sum term equals the first, so its id maps to the first one's table; a max term
    # that took the id of a freed sum term would read a sum of 10 where the max is 4
    sig = default_signature()
    sig.register_seq_function("S", sum)
    sig.register_seq_function("M", max)
    prefix, memo = FinitePrefix((1, 2, 3, 4)), EllipsisMemo()
    for _ in range(200):
        for text in ("S[ f(z) : z .. 3 ] = 10", "M[ f(z) : z .. 3 ] = 4"):
            matrix = parse(text, sig)
            assert attempt(matrix, prefix, sig, None, memo) == attempt(matrix, prefix, sig), text


def test_a_memo_holds_every_node_it_resolved(sig):
    first, second = parse("G[ f(z) : z .. 2 ] = 3", sig), parse("G[ f(z) : z .. 2 ] = 3", sig)
    memo, prefix = EllipsisMemo(), FinitePrefix((1, 2, 0))
    assert [attempt(matrix, prefix, sig, None, memo).truth for matrix in (first, second)] == [True] * 2
    node = weakref.ref(second.left)
    del second  # the only other reference to the node
    gc.collect()
    assert node() is not None


def test_memo_spends_budget_only_on_new_entries(sig):
    half = MAX_BOUNDED_INSTANCES // 2 + 1
    matrix = parse("G[ f(z) : z .. y ] = 0", sig)
    prefix = FinitePrefix((0,) * (2 * half))
    memo = EllipsisMemo()
    for y in (half - 1, 2 * half - 1):
        assert attempt(matrix, prefix, sig, {"y": y}, memo).truth is True
    with pytest.raises(EvaluationBudgetExhausted):
        attempt(matrix, prefix, sig, {"y": 2 * half - 1})


# ---------------------------------------------------------------------------
# bounded quantifiers


def test_eval_bounded_forall(sig):
    assert eval_bounded(parse("forall y. f(y) = 0", sig), from_spec("const:0"), None, sig, 10)


def test_eval_bounded_exists_witness_inside(sig):
    assert eval_bounded(parse("exists x. f(x) = 0", sig), from_spec("plantzero:5"), None, sig, 10)


def test_eval_bounded_misses_witness_outside(sig):
    assert not eval_bounded(parse("exists x. f(x) = 0", sig), from_spec("plantzero:5"), None, sig, 3)


def test_eval_bounded_nested(sig):
    # every value up to the bound appears in the identity sequence
    assert eval_bounded(parse("forall x. exists y. f(y) = x", sig), from_spec("id"), None, sig, 8)


@pytest.mark.parametrize("quantifier", ["forall", "exists"])
def test_eval_bounded_rejects_a_negative_bound(sig, quantifier):
    # a bound of -1 would range over no instance: forall held and exists failed vacuously
    formula = parse(f"{quantifier} x. f(x) = 7", sig)
    with pytest.raises(ValueError, match="^bound must be at least 0$"):
        eval_bounded(formula, from_spec("const:1"), None, sig, -1)
    assert eval_bounded(formula, from_spec("const:1"), None, sig, 0) is False


def test_eval_bounded_counts_quantifier_instances(sig):
    formula = parse("forall x. 0 = 0", sig)
    assert eval_bounded(formula, from_spec("id"), None, sig, MAX_BOUNDED_INSTANCES - 1)
    with pytest.raises(EvaluationBudgetExhausted):
        eval_bounded(formula, from_spec("id"), None, sig, MAX_BOUNDED_INSTANCES)


def test_eval_bounded_never_short_circuits_connectives(sig):
    # a short-circuiting AND would skip the quantifier after the false left conjunct
    formula = parse("0 = 1 & (forall x. 0 = 0)", sig)
    assert not eval_bounded(formula, from_spec("id"), None, sig, MAX_BOUNDED_INSTANCES - 1)
    with pytest.raises(EvaluationBudgetExhausted):
        eval_bounded(formula, from_spec("id"), None, sig, MAX_BOUNDED_INSTANCES)


@pytest.mark.parametrize("outer", [Forall, Exists])
@pytest.mark.parametrize("inner", [Forall, Exists])
def test_eval_bounded_matches_enumeration_of_eval_qf(outer, inner):
    rnd = random.Random(31)
    gsig = formula_gen.generator_signature()
    quantify = {Forall: all, Exists: any}
    for _ in range(40):
        matrix = formula_gen.gen_qf(rnd, 3, ("x", "y"))
        oracle = formula_gen.random_oracle(rnd)
        bound = rnd.randrange(4)
        expected = quantify[outer](
            quantify[inner](eval_qf(matrix, oracle, {"x": x, "y": y}, gsig).value
                            for y in range(bound + 1))
            for x in range(bound + 1))
        sentence = outer("x", inner("y", matrix))
        assert eval_bounded(sentence, oracle, None, gsig, bound) == expected, (matrix, bound)


# ---------------------------------------------------------------------------
# locality and weak substitution (module-scale; the full-size suites live in
# the acceptance module)


def test_locality_smoke():
    rnd = random.Random(2024)
    gsig = formula_gen.generator_signature()
    for _ in range(100):
        sentence = formula_gen.gen_closed_qf(rnd, depth=3)
        base = formula_gen.random_oracle(rnd)
        result = eval_qf(sentence, base, None, gsig)
        k = result.max_queried
        if k is None:
            other = formula_gen.random_oracle(rnd)
            assert eval_qf(sentence, other, None, gsig).value == result.value
            continue
        extension = formula_gen.extension_of(base, k, rnd)
        again = eval_qf(sentence, extension, None, gsig)
        assert again.value == result.value
        assert again.max_queried is not None and again.max_queried <= k


def test_weak_substitution_smoke():
    rnd = random.Random(515)
    gsig = formula_gen.generator_signature()
    for i in range(100):
        formula = formula_gen.gen_qf(rnd, depth=3, vars=("x", "y"),
                                     force_ellipsis=(i % 2 == 0),
                                     binder="x" if i % 4 == 0 else None)
        oracle = formula_gen.random_oracle(rnd)
        c = rnd.randrange(5)
        s = {"y": rnd.randrange(5), "x": rnd.randrange(5)}
        left = eval_qf(substitute(formula, "x", Numeral(c)), oracle, s, gsig)
        right = eval_qf(formula, oracle, {**s, "x": c}, gsig)
        assert left.value == right.value


def test_records_match_their_dataclass_twins():
    samples = {
        semantics.EvalResult: [(3, frozenset({0, 2})), (True, frozenset()), (3, frozenset({2, 0}))],
        semantics.AttemptOutcome: [(True,), (False, None), (None, 5), (True, 0)],
    }
    assert record_twins.defined_in(semantics) == set(samples)
    for cls, args in samples.items():
        record_twins.check_against_twin(cls, args)


def test_successful_attempts_share_their_outcomes(sig):
    holds, fails = parse("f(0) = 1", sig), parse("f(0) = 0", sig)
    one = FinitePrefix((1,))
    assert attempt(holds, one, sig) is attempt(holds, one.extended(0), sig) is not attempt(fails, one, sig)
    assert attempt(fails, one, sig) is attempt(fails, one, sig) == semantics.AttemptOutcome(False, None)
    assert attempt(fails, one, sig).succeeded
    failed = attempt(holds, FinitePrefix(), sig)
    assert failed == semantics.AttemptOutcome(None, 0) and failed.failed
