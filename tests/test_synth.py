import itertools
import math
import random
import re
import dataclasses
import operator
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from guessability import pairing
from guessability import synth
from guessability.lang import (
    And,
    Eq,
    Implies,
    LangError,
    Not,
    Or,
    Pred,
    SEQ_BUILTINS,
    Variable,
    print_term,
    Signature,
    SignatureError,
    default_signature,
    load_signature,
    parse,
    print_formula,
)
from guessability.oracle import FinitePrefix, from_spec, prefix_of
from guessability.semantics import attempt
from guessability.lang import Numeral, Pi2Sentence, Sigma2Sentence, substitute
from guessability.synth import (
    Delta2Spec,
    Guesser,
    MuStream,
    TopologySpec,
    complement_sigma2,
    contains_zero_delta2,
    contains_zero_guesser,
    delta2_from_topology,
    guesser_and,
    guesser_from_delta2,
    guesser_not,
    guesser_or,
    guesser_sentence_texts,
    mu_from_sigma2,
    mu_prime_host,
    overguesser_from_sigma2,
    sentences_from_guesser,
    sigma2_from_countable_family,
    sigma2_from_overguesser,
)

import formula_gen
import record_twins

INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"


# ---------------------------------------------------------------------------
# pairing codec


def test_codec_base_case():
    assert pairing.decode(0) == (0, 0)


def test_codec_enumeration_order():
    assert pairing.decode(5) == (0, 2)


def test_codec_round_trip_and_onto_bound():
    for a in range(15):
        for b in range(15):
            n = pairing.encode(a, b)
            assert pairing.decode(n) == (a, b)
            assert n <= (a + b + 1) ** 2


@given(st.integers(0, 10 ** 6))
def test_codec_decode_then_encode(n):
    a, b = pairing.decode(n)
    assert pairing.encode(a, b) == n


def test_decode_rejects_a_negative_code():
    with pytest.raises(ValueError, match="^pair codes are naturals$"):
        pairing.decode(-1)


# ---------------------------------------------------------------------------
# mu from an exists-forall sentence


@pytest.fixture
def cz():
    return contains_zero_delta2()


def test_mu_finds_the_witness(cz):
    assert mu_from_sigma2(cz.sigma2, FinitePrefix((3, 0, 2))) == 1


def test_mu_vacuous_witness_beyond_prefix(cz):
    # every in-prefix witness refuted; the first unrefutable index wins
    assert mu_from_sigma2(cz.sigma2, FinitePrefix((3, 1, 2))) == 3


def test_mu_immediate_witness(cz):
    assert mu_from_sigma2(cz.sigma2, FinitePrefix((0,))) == 0


def test_mu_rejects_empty_prefix(cz):
    with pytest.raises(ValueError):
        mu_from_sigma2(cz.sigma2, FinitePrefix(()))


def test_mu_stream_rejects_empty_prefix(cz):
    stream = MuStream(cz.sigma2)
    with pytest.raises(ValueError, match="^mu needs at least one observed entry$"):
        stream(FinitePrefix(()))
    stream(FinitePrefix((3,)))
    with pytest.raises(ValueError, match="^mu needs at least one observed entry$"):
        stream(FinitePrefix(()))


def test_overguesser_wrapper_matches_mu(cz):
    over = overguesser_from_sigma2(cz.sigma2)
    p = FinitePrefix((3, 0, 2))
    assert over(p) == mu_from_sigma2(cz.sigma2, p)
    assert over.sentence.text() == cz.sigma2.text()
    with pytest.raises(ValueError, match="^mu needs at least one observed entry$"):
        over(FinitePrefix(()))


# ---------------------------------------------------------------------------
# guesser from a matched pair


def test_guesser_from_delta2_examples(cz):
    g = guesser_from_delta2(cz)
    assert g(FinitePrefix((3, 0, 2))) == 1
    assert g(FinitePrefix((3, 1, 2))) == 0
    assert g(FinitePrefix((0,))) == 1


def test_guesser_from_delta2_tracks_contains_zero(cz):
    g = guesser_from_delta2(cz)
    direct = contains_zero_guesser()
    rnd = random.Random(31)
    for _ in range(40):
        p = FinitePrefix(tuple(rnd.randrange(4) for _ in range(rnd.randrange(1, 9))))
        assert g(p) == direct(p)


def test_guesser_trace_stabilises_on_labeled_oracles(cz):
    g = guesser_from_delta2(cz)
    by_five = [g(prefix_of(from_spec("plantzero:5"), k)) for k in range(12)]
    assert by_five == [0] * 5 + [1] * 7
    no_zero = [g(prefix_of(from_spec("const:1"), k)) for k in range(12)]
    assert no_zero == [0] * 12


# ---------------------------------------------------------------------------
# sentences from a guesser


def test_guesser_sentence_texts_shapes():
    sigma2, pi2 = guesser_sentence_texts("Gz")
    assert sigma2 == "exists x. forall y. ((y > x) -> Gz[ f(z) : z .. y ] = 1)"
    assert pi2 == "forall x. exists y. ((y > x) & Gz[ f(z) : z .. y ] = 1)"


def test_sentences_from_guesser_round_trip_and_classes():
    sig = default_signature()
    sig.register_seq_function("Gz", contains_zero_guesser())
    spec = sentences_from_guesser("Gz", sig)
    assert Sigma2Sentence.from_formula(spec.sigma2.formula()) == spec.sigma2
    assert Pi2Sentence.from_formula(spec.pi2.formula()) == spec.pi2
    for sentence in (spec.sigma2, spec.pi2):
        assert parse(print_formula(sentence.formula()), sig) == sentence.formula()


def test_sentences_from_guesser_unknown_symbol():
    with pytest.raises(LangError):
        sentences_from_guesser("Gz", default_signature())


def test_guesser_sentences_define_the_guessed_set():
    # the synthesized pair, run back through the guesser builder, matches the
    # original guesser in the limit
    sig = default_signature()
    sig.register_seq_function("Gz", contains_zero_guesser())
    spec = sentences_from_guesser("Gz", sig)
    rebuilt = guesser_from_delta2(spec, sig)
    assert [rebuilt(prefix_of(from_spec("plantzero:3"), k)) for k in range(8, 12)] == [1] * 4
    assert [rebuilt(prefix_of(from_spec("const:2"), k)) for k in range(8, 12)] == [0] * 4


# ---------------------------------------------------------------------------
# exists-forall sentence from an overguesser


def test_sigma2_from_overguesser_shape():
    sig = default_signature()
    over = overguesser_from_sigma2(contains_zero_delta2().sigma2, sig)
    sig.register_seq_function("Mu", mu_prime_host(over))
    sentence = sigma2_from_overguesser("Mu", sig)
    assert Sigma2Sentence.from_formula(sentence.formula()) == sentence
    assert sentence.text() == ("exists m. forall m3. m3 > d2(m) -> "
                               "0 < Mu[ f(z) : z .. m3 ] & Mu[ f(z) : z .. m3 ] < d1(m)")


def test_sigma2_from_overguesser_requires_registration():
    with pytest.raises(LangError):
        sigma2_from_overguesser("Mu", default_signature())


def test_sigma2_from_overguesser_requires_the_pairing_projections():
    sig = Signature()
    sig.register_function("d1", 1, lambda n: n)
    sig.register_function("d2", 1, pairing.second)
    sig.register_seq_function("Mu", len)
    with pytest.raises(LangError, match="^signature function 'd1' disagrees with the pairing"):
        sigma2_from_overguesser("Mu", sig)


def test_sigma2_from_overguesser_requires_unary_projections():
    sig = Signature()
    sig.register_function("d1", 2, lambda a, b: a)
    sig.register_function("d2", 1, pairing.second)
    sig.register_seq_function("Mu", len)
    with pytest.raises(LangError, match="^signature function 'd1' has arity 2; the pairing"):
        sigma2_from_overguesser("Mu", sig)


def test_mu_prime_host_encoding():
    finite = mu_prime_host(lambda p: 4)
    assert finite((1, 2)) == 5
    infinite = mu_prime_host(lambda p: math.inf)
    assert infinite((1, 2)) == 0


@pytest.mark.parametrize("junk", [-1, 2.5, True, None, "inf"])
def test_overguessers_must_return_extended_naturals(junk):
    host = mu_prime_host(lambda p: junk)
    with pytest.raises(ValueError, match=f"^overguesser returned {re.escape(repr(junk))}; "):
        host((1, 2))


# ---------------------------------------------------------------------------
# countable families


def constants_family_signature():
    """The default signature with g bound to the constant family g(m, n) = m."""
    return load_signature("fn g 2 constfam\n")


def test_family_sentence_text():
    sig = constants_family_signature()
    sentence = sigma2_from_countable_family("g", sig)
    assert sentence.text() == "exists x. forall y. g(x, y) = f(y)"
    assert sig.function("g")[1](3, 11) == 3


def test_family_mu_on_a_member():
    sig = constants_family_signature()
    sentence = sigma2_from_countable_family("g", sig)
    assert mu_from_sigma2(sentence, FinitePrefix((3,) * 5), sig) == 3


def test_family_mu_grows_on_the_identity_sequence():
    sig = constants_family_signature()
    sentence = sigma2_from_countable_family("g", sig)
    ident = from_spec("id")
    for k in (1, 2, 7, 20):
        assert mu_from_sigma2(sentence, prefix_of(ident, k), sig) == k + 1


def test_family_custom_name():
    sig = default_signature()
    sig.register_function("h", 2, lambda m, n: m + n)
    sentence = sigma2_from_countable_family("h", sig)
    assert sentence.text() == "exists x. forall y. h(x, y) = f(y)"


def test_family_requires_a_registered_binary_function():
    sig = default_signature()
    with pytest.raises(LangError, match="^'g' is not a registered binary function symbol$"):
        sigma2_from_countable_family("g", sig)
    assert sig.kind_of("g") is None
    sig.register_function("g", 3, lambda m, n, k: m)
    with pytest.raises(LangError, match="^'g' has arity 3; families are binary$"):
        sigma2_from_countable_family("g", sig)
    assert sig.function("g")[0] == 3


# ---------------------------------------------------------------------------
# topology tables


def _first_coordinate_specs():
    for_set = TopologySpec(table={(0, 0): FinitePrefix((7,))})
    for_complement = TopologySpec(
        table={(0, m): FinitePrefix((m,)) for m in range(220) if m != 7})
    return for_set, for_complement


def test_topology_membership_host_values():
    sig = default_signature()
    for_set, for_complement = _first_coordinate_specs()
    delta2_from_topology(for_set, for_complement, sig)
    arity, tau = sig.function("tauS")
    assert arity == 4
    assert tau(0, 0, 0, 7) == 1
    assert tau(0, 0, 1, 7) == 0
    assert tau(0, 0, 0, 8) == 0
    # holes inside a listed row contribute the empty set
    assert tau(0, 5, 0, 7) == 0
    # unlisted rows fall back to the whole-space default
    assert tau(3, 0, 0, 9) == 1


def test_topology_sentence_classes():
    sig = default_signature()
    spec = delta2_from_topology(*_first_coordinate_specs(), sig)
    assert Pi2Sentence.from_formula(spec.pi2.formula()) == spec.pi2
    assert Sigma2Sentence.from_formula(spec.sigma2.formula()) == spec.sigma2


def test_topology_guesser_stabilises_from_first_entry():
    sig = default_signature()
    spec = delta2_from_topology(*_first_coordinate_specs(), sig)
    g = guesser_from_delta2(spec, sig)
    member = from_spec("prefix:[7,4,9]:pad0")
    nonmember = from_spec("prefix:[1,7,7]:pad0")
    assert [g(prefix_of(member, k)) for k in range(6)] == [1] * 6
    assert [g(prefix_of(nonmember, k)) for k in range(6)] == [0] * 6


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_clopen_tables_guess_every_word_from_a_pinned_length(data):
    """A ⊆ {0,1,2}^k and its complement as one-row tables, at random columns with holes.

    Every row but 0 takes the whole-space default.  On a member, mu for the set
    stays 0, so the guess is 1 from the first entry.  On a nonmember at column j
    of the complement's row, that cell's attempt is made once the prefix has j
    entries and succeeds once it has k, so mu for the set leaves 0 at
    max(k, j) entries while mu for the complement stays 0: the guess is 1
    before that and 0 from there on, whatever follows the word.
    """
    k = data.draw(st.integers(1, 3), label="k")
    words = list(itertools.product(range(3), repeat=k))
    members = data.draw(st.sets(st.sampled_from(words), min_size=1, max_size=len(words) - 1))
    column = {}
    for side in (sorted(members), sorted(set(words) - members)):
        columns = data.draw(st.permutations(range(2 * len(side))))[:len(side)]
        column.update(zip(side, sorted(columns)))
    for_set, for_complement = (
        TopologySpec(table={(0, column[w]): FinitePrefix(w) for w in side})
        for side in (members, set(words) - members))
    sig = default_signature()
    spec = delta2_from_topology(for_set, for_complement, sig)
    horizon = 2 * len(words)  # past every column
    for word in words:
        g = guesser_from_delta2(spec, sig)
        entries = (word + (2, 0, 1) * horizon)[:horizon]
        assert [g(FinitePrefix(entries[:n])) for n in range(1, horizon + 1)] == [
            int(word in members or n < max(k, column[word])) for n in range(1, horizon + 1)], word


def test_topology_rejects_empty_tables():
    sig = default_signature()
    with pytest.raises(ValueError):
        delta2_from_topology(TopologySpec(table={}), _first_coordinate_specs()[1], sig)


def test_topology_name_prefix_avoids_collisions():
    sig = default_signature()
    for_set, for_complement = _first_coordinate_specs()
    delta2_from_topology(for_set, for_complement, sig)
    spec = delta2_from_topology(for_set, for_complement, sig, name_prefix="second_")
    assert "second_tauS" in spec.pi2.text()


def test_topology_guesser_ignores_a_sel_declared_before_it():
    sig = default_signature()
    sig.register_function("sel", 4, lambda m, i, j, w: 0)
    g = guesser_from_delta2(delta2_from_topology(*_first_coordinate_specs(), sig), sig)
    assert [g(FinitePrefix((7, 4, 9)[:k])) for k in (1, 2, 3)] == [1, 1, 1]


def test_topology_rejects_an_all_declared_before_it():
    sig = default_signature()
    sig.register_seq_function("all", SEQ_BUILTINS["min"])
    with pytest.raises(SignatureError, match="'all' already declared"):
        delta2_from_topology(*_first_coordinate_specs(), sig)


def test_topology_registers_nothing_when_one_name_is_taken():
    sig = default_signature()
    sig.register_seq_function("all", SEQ_BUILTINS["min"])
    with pytest.raises(SignatureError, match="'all' already declared"):
        delta2_from_topology(*_first_coordinate_specs(), sig)
    assert [sig.kind_of(name) for name in ("tauS", "lenS", "tauC", "lenC")] == [None] * 4
    spec = delta2_from_topology(*_first_coordinate_specs(), sig, name_prefix="t_")
    assert "t_tauS" in spec.pi2.text() and "t_all" in spec.sigma2.text()


@pytest.mark.parametrize("prefix, refused", [
    ("a b", "'a ball' is not a symbol name: a letter or '_', then letters, digits or '_'"),
    ("9", "'9all' is not a symbol name: a letter or '_', then letters, digits or '_'"),
    ("for", "'forall' is reserved"),
])
def test_topology_refuses_a_prefix_that_makes_no_name(prefix, refused):
    sig = default_signature()
    with pytest.raises(SignatureError) as exc:
        delta2_from_topology(*_first_coordinate_specs(), sig, name_prefix=prefix)
    assert str(exc.value) == f"name prefix {prefix!r}: {refused}"
    assert [sig.kind_of(prefix + name) for name in ("tauS", "lenS", "tauC", "lenC", "all")] \
        == [None] * 5


def test_topology_hosts_read_the_tables_as_they_were_when_made():
    sig = default_signature()
    for_set, for_complement = _first_coordinate_specs()
    delta2_from_topology(for_set, for_complement, sig)
    for_set.table[(0, 0)] = FinitePrefix((8, 1))
    for_set.table[(0, 5)] = FinitePrefix((7,))
    _, tau = sig.function("tauS")
    _, length = sig.function("lenS")
    assert (tau(0, 0, 0, 7), tau(0, 0, 0, 8), tau(0, 5, 0, 7), length(0, 0)) == (1, 0, 0, 0)


# ---------------------------------------------------------------------------
# combinators and the builtin guesser


prefixes = st.lists(st.integers(0, 6), min_size=1, max_size=10).map(
    lambda vs: FinitePrefix(tuple(vs)))


@given(prefixes)
def test_combinators_de_morgan(p):
    g1 = contains_zero_guesser()
    g2 = Guesser(evaluate=lambda q: 1 if len(q) % 2 == 0 else 0)
    lhs = guesser_not(guesser_and(g1, g2))
    rhs = guesser_or(guesser_not(g1), guesser_not(g2))
    assert lhs(p) == rhs(p)


@given(prefixes)
def test_combinators_involution_and_idempotence(p):
    g = contains_zero_guesser()
    assert guesser_not(guesser_not(g))(p) == g(p)
    assert guesser_and(g, g)(p) == g(p)
    assert guesser_or(g, guesser_not(g))(p) == 1


def test_contains_zero_guesser_examples():
    g = contains_zero_guesser()
    assert g(FinitePrefix((3, 1, 2))) == 0
    assert g(FinitePrefix((3, 0, 2))) == 1
    assert g(FinitePrefix((0,))) == 1
    with pytest.raises(ValueError):
        g(FinitePrefix(()))


def test_guessers_must_answer_zero_or_one():
    bad = Guesser(evaluate=lambda p: 2)
    with pytest.raises(ValueError):
        bad(FinitePrefix((1,)))


# ---------------------------------------------------------------------------
# independent closed-form checks of the bounded search
#
# For these two sentence families the attempt outcomes can be read off the
# prefix directly, giving mu without touching the evaluator: the witness
# column of the contains-zero sentence queries only its own index, and the
# family sentence holds at a exactly when every visible entry equals a.


def test_mu_matches_first_zero_closed_form(cz):
    rnd = random.Random(90210)
    nu_sentence = complement_sigma2(cz)
    for _ in range(200):
        entries = tuple(rnd.choice((0, 1, 2, 3, 7)) for _ in range(rnd.randrange(1, 12)))
        p = FinitePrefix(entries)
        first_zero = next((i for i, v in enumerate(entries) if v == 0), len(entries))
        assert mu_from_sigma2(cz.sigma2, p) == first_zero
        complement_value = len(entries) if 0 in entries else 0
        assert mu_from_sigma2(nu_sentence, p) == complement_value


def test_family_mu_matches_constant_run_closed_form():
    sig = constants_family_signature()
    sentence = sigma2_from_countable_family("g", sig)
    rnd = random.Random(1122)
    for _ in range(200):
        entries = tuple(rnd.choice((0, 1, 2, 5)) for _ in range(rnd.randrange(1, 10)))
        p = FinitePrefix(entries)
        constant = len(set(entries)) == 1 and entries[0] < len(entries)
        expected = entries[0] if constant else len(entries)
        assert mu_from_sigma2(sentence, p, sig) == expected


# ---------------------------------------------------------------------------
# the overguesser contract on a labeled corpus


def test_mu_eventually_bounded_on_members(cz):
    # the witness position is a ceiling once the prefix reaches it
    for p in (0, 2, 5, 11):
        source = from_spec(f"plantzero:{p}")
        for k in range(p, 30):
            mu = mu_from_sigma2(cz.sigma2, prefix_of(source, k))
            assert mu <= p


def test_mu_outgrows_every_threshold_off_members(cz):
    source = from_spec("const:1")
    for threshold in (0, 5, 13, 20):
        k = threshold + 1
        for longer in range(k, 40, 4):
            mu = mu_from_sigma2(cz.sigma2, prefix_of(source, longer))
            assert threshold < mu


# ---------------------------------------------------------------------------
# permanent exclusion


def test_rejected_witness_stays_rejected():
    rnd = random.Random(4242)
    gsig = formula_gen.generator_signature()
    for _ in range(40):
        sentence = formula_gen.gen_sigma2(rnd)
        oracle = formula_gen.random_oracle(rnd)
        values = [oracle.query(i) for i in range(40)]
        k = rnd.randrange(2, 12)
        bound = k
        for a in range(bound + 1):
            outer = substitute(sentence.matrix, sentence.outer, Numeral(a))
            for b in range(bound + 1):
                closed = substitute(outer, sentence.inner, Numeral(b))
                outcome = attempt(closed, FinitePrefix(tuple(values[:k])), gsig)
                if outcome.succeeded and outcome.truth is False:
                    for longer in range(k, 40, 7):
                        again = attempt(closed, FinitePrefix(tuple(values[:longer])), gsig)
                        assert again.succeeded and again.truth is False
                    break


# ---------------------------------------------------------------------------
# incremental mu against the one-shot reference


def _matrix(rnd):
    """A generated matrix over x, y; every third one has an ellipsis binder shadowing x or y."""
    if rnd.randrange(3):
        return formula_gen.gen_qf(rnd, 2, ("x", "y"))
    return formula_gen.gen_qf(rnd, 2, ("x", "y"), force_ellipsis=True,
                              binder=rnd.choice(("x", "y")))


def test_mu_stream_matches_one_shot_mu():
    rnd = random.Random(4243)
    gsig = formula_gen.generator_signature()
    for _ in range(90):
        sentence = Sigma2Sentence("x", "y", _matrix(rnd))
        oracle = formula_gen.random_oracle(rnd)
        values = tuple(oracle.query(i) for i in range(14))
        stream = MuStream(sentence, gsig)
        for k in range(1, len(values) + 1):
            assert stream.push(values[k - 1]) == \
                mu_from_sigma2(sentence, FinitePrefix(values[:k]), gsig), (sentence.text(), k)


# ---------------------------------------------------------------------------
# refuting witnesses by intervals


_RELATIONS = ("=", "<", "<=", ">", ">=")


def _compared(rnd, relation, outer_left):
    """An atom comparing x, as a whole operand, with a term in which x is not free."""
    if rnd.randrange(4):
        other = formula_gen.gen_term(rnd, 2, ("y",))
    else:  # an ellipsis whose binder is x, so x is bound inside it
        other = formula_gen.gen_ellipsis(rnd, 2, ("y",), binder="x")
    left, right = (Variable("x"), other) if outer_left else (other, Variable("x"))
    return Eq(left, right) if relation == "=" else Pred(relation, (left, right))


def _compared_matrix(rnd, atoms):
    """A matrix over x, y in which x occurs only in the given (relation, x on the left) atoms."""
    parts = [_compared(rnd, *atom) for atom in atoms]
    parts += [formula_gen.gen_qf(rnd, 1, ("y",)) for _ in range(rnd.randrange(3))]
    rnd.shuffle(parts)
    matrix = parts[0]
    for part in parts[1:]:
        matrix = rnd.choice((And, Or, Implies))(matrix, part)
    return Not(matrix) if rnd.randrange(2) else matrix


@pytest.mark.parametrize("relation", _RELATIONS)
@pytest.mark.parametrize("outer_left", [True, False])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       more=st.lists(st.tuples(st.sampled_from(_RELATIONS), st.booleans()), max_size=2))
def test_interval_stream_matches_one_shot_mu(relation, outer_left, seed, more):
    rnd = random.Random(seed)
    gsig = formula_gen.generator_signature()
    sentence = Sigma2Sentence("x", "y", _compared_matrix(rnd, [(relation, outer_left), *more]))
    stream = MuStream(sentence, gsig)
    assert stream._thresholds is not None, sentence.text()
    values = tuple(formula_gen.random_oracle(rnd).query(i) for i in range(12))
    for k in range(1, len(values) + 1):
        assert stream.push(values[k - 1]) == \
            mu_from_sigma2(sentence, FinitePrefix(values[:k]), gsig), (sentence.text(), k)
    # a replay restarts the intervals too
    replayed = FinitePrefix(values[:5])
    assert stream(replayed) == mu_from_sigma2(sentence, replayed, gsig)


@pytest.mark.parametrize("text, thresholds", [
    ("(y > x) -> f(y) = 0", ["y"]),
    ("x = f(y) | S[ f(x) : x .. y ] <= x", ["f(y)", "S[ f(x) : x .. y ]"]),
    ("lt(add(y, 1), x)", ["add(y, 1)"]),
    ("f(y) = 0", []),
    ("f(x) = 0", None),
    ("(m3 > d2(x)) -> f(m3) = 0", None),
    ("x = x", None),
    ("x < add(x, y)", None),
    ("add(x, 0) < y", None),
    ("odd(x, y)", None),
])
def test_interval_path_is_chosen_by_the_shape_of_the_matrix(text, thresholds):
    sig = formula_gen.generator_signature()
    sig.register_predicate("lt", 2, operator.lt)
    sig.register_predicate("odd", 2, lambda a, b: (a + b) % 2 == 1)
    found = synth._thresholds(parse(text, sig), "x", sig)
    if thresholds is None:
        assert found is None
    else:
        assert [print_term(t) for t in found] == thresholds


def test_sentences_that_do_not_qualify_keep_the_witness_by_witness_search(cz, monkeypatch):
    # contains-zero reads f at the witness; the overguesser sentence passes it to d2
    sig = default_signature()
    sig.register_seq_function("Mu", mu_prime_host(overguesser_from_sigma2(cz.sigma2)))
    assert MuStream(sigma2_from_overguesser("Mu", sig), sig)._thresholds is None
    witnesses = []

    def recorded(matrix, prefix, sig=None, s=None, memo=None):
        witnesses.append(s["x"])
        return attempt(matrix, prefix, sig, s, memo)

    entries = (3, 1, 2, 0, 4)
    expected = [mu_from_sigma2(cz.sigma2, FinitePrefix(entries[:k]), sig)
                for k in range(1, len(entries) + 1)]
    monkeypatch.setattr(synth, "attempt", recorded)
    stream = MuStream(cz.sigma2, sig)
    assert stream._thresholds is None
    assert [stream.push(value) for value in entries] == expected
    # each witness up to mu = 3 in turn, never going back
    assert witnesses == sorted(witnesses) and set(witnesses) == {0, 1, 2, 3}


@pytest.mark.parametrize("text", [
    "exists x. forall y. ((y > x) -> S[ f(z) : z .. add(y, 1) ] = 0)",
    "exists x. forall y. (S[ f(z) : z .. add(y, 1) ] = 0 | f(x) = 0)",
])
def test_a_stream_survives_a_host_that_raises_once(text):
    # b = 4 and b = 5 fail at index 5 on five entries; on six, deciding b = 4 raises
    sig = default_signature()
    raised = []

    def flaky(t):
        if len(t) == 6 and not raised:
            raised.append(t)
            raise RuntimeError("flaky host")
        return 1 if 0 in t else 0

    sig.register_seq_function("S", flaky)
    sentence = Sigma2Sentence.from_formula(parse(text, sig))
    entries = (3, 1, 4, 1, 0, 9, 2, 6, 5, 3)
    stream = MuStream(sentence, sig)
    for k in range(1, len(entries) + 1):
        prefix = FinitePrefix(entries[:k])
        if k == 6:
            with pytest.raises(RuntimeError):
                stream(prefix)
        else:
            assert stream(prefix) == mu_from_sigma2(sentence, prefix, sig), k
    assert raised


JUMP = ((1, 0, 0, 0, 0), (1, 0, 0, 0, 0, 3), (1, 0, 9, 9, 0), (1, 0, 9, 9, 0, 0))
PAST = ((1, 0), (1, 0, 9), (1, 0, 9, 9, 0))


class Interrupted(BaseException):
    """Raised as an interrupt is, past every ``except Exception``."""


@pytest.mark.parametrize("shift, symbol, at, calls, asked, expected, error", [
    (2, "M", 2, 2, JUMP, [0, 0, 1, 1], RuntimeError),
    (2, "N", 2, 2, JUMP, [0, 0, 1, 1], RuntimeError),
    (2, "M", 3, 1, PAST, [0, 1, 1], RuntimeError),
    (2, "N", 3, 1, PAST, [0, 1, 1], RuntimeError),
    (0, "M", 3, 1, PAST, [1, 1, 1], RuntimeError),
    (2, "M", 2, 2, JUMP, [0, 0, 1, 1], Interrupted),
    (2, "N", 2, 2, JUMP, [0, 0, 1, 1], Interrupted),
    (2, "M", 3, 1, PAST, [0, 1, 1], Interrupted),
    (2, "N", 3, 1, PAST, [0, 1, 1], Interrupted),
], ids=["inside-mu", "inside-nu", "inside-mu-past-a-prefix", "inside-nu-past-a-prefix",
        "equal-sets-inside-mu-past-a-prefix", "interrupted-inside-mu", "interrupted-inside-nu",
        "interrupted-inside-mu-past-a-prefix", "interrupted-inside-nu-past-a-prefix"])
def test_a_delta2_guesser_survives_a_host_that_raises_once(shift, symbol, at, calls, asked, expected, error):
    # Both sentences write one term, the sum of f up to one entry past y, mu's plus shift.
    # M is asked only inside mu and N only inside nu; the armed one raises error on its calls-th
    # call at y = at while the guesser jumps from (1,) to (1, 0, 9, 9, 0).  Replaying the
    # jump, nu finds sums over (1, 0, 9) in the memo mu filled: 19 at y = 2 on (1, 0), which
    # must not refute witnesses for (1, 0, 0, 0, 0), and 10 at y = 1, which must not leave
    # nu's answer for (1, 0) standing when it raises at y = 3 on (1, 0, 9).  With shift 0 the
    # two sets are equal, and the same stale answer would show in mu were it asked second.
    sig = default_signature()
    sig.register_seq_function("G", sum)
    countdown = {}

    def host(name):
        def flaky(y):
            if y == at and countdown.get(name):
                countdown[name] -= 1
                if not countdown[name]:
                    raise error(f"{name} on {at}")
            return 0

        return flaky

    for name in "MN":
        sig.register_function(name, 1, host(name))
    spec = Delta2Spec(
        pi2=Pi2Sentence.from_formula(parse(
            "forall x. exists y. !(G[ f(z) : z .. add(y, 1) ] <= x & N(y) = 0)", sig)),
        sigma2=Sigma2Sentence.from_formula(parse(
            f"exists x. forall y. (add(G[ f(z) : z .. add(y, 1) ], {shift}) <= x & M(y) = 0)", sig)))
    guesser = guesser_from_delta2(spec, sig)
    assert guesser(FinitePrefix((1,))) == 1
    countdown[symbol] = calls
    with pytest.raises(error, match=f"^{symbol} on {at}$"):
        guesser(FinitePrefix((1, 0, 9, 9, 0)))
    later = [FinitePrefix(entries) for entries in asked]
    answers = [guesser(p) for p in later]
    assert answers == [guesser_from_delta2(spec, sig)(p) for p in later] == expected


def test_a_delta2_guesser_that_jumps_pays_the_host_calls_of_a_fresh_one():
    # one restart clears the one memo, and nu reads the entries mu evaluated again after it
    sig = default_signature()
    calls = []

    def counted(t):
        calls.append(len(t))
        return SEQ_BUILTINS["contains0"](t)

    sig.register_seq_function("Gz", counted)
    spec = synth._delta2_from_texts(*((INPUTS / f"Gz.{kind}.lg").read_text() for kind in ("pi2", "sigma2")), sig)

    def cost(guesser, entries):
        calls.clear()
        return guesser(FinitePrefix(entries)), len(calls)

    guesser = guesser_from_delta2(spec, sig)
    cost(guesser, (1,) * 30)
    for entries, host_calls in (((1,) * 29 + (0,), 30), ((1,) * 29, 29), ((0,) * 30, 30)):
        answer, made = cost(guesser, entries)
        assert (answer, made) == cost(guesser_from_delta2(spec, sig), entries), entries
        assert made == host_calls, entries


def test_a_stream_clears_its_memo_when_it_restarts():
    sig = default_signature()
    sig.register_seq_function("G", sum)
    sentence = Sigma2Sentence.from_formula(parse("exists x. forall y. G[ f(z) : z .. y ] <= x", sig))
    stream = MuStream(sentence, sig)

    def tables(entries):
        prefix = FinitePrefix(entries)
        assert stream(prefix) == mu_from_sigma2(sentence, prefix, sig), entries
        found = list(stream._memo.tables.values())
        # every table holds entries of this prefix only
        assert found and all(prefix.past(entries_so_far) is not None for entries_so_far, _ in found)
        return found

    kept = tables((5, 2))
    # one that extends the last by more than one entry, of another list, keeps the same tables
    same = tables((5, 2, 9, 9))
    assert len(same) == len(kept) and all(map(operator.is_, same, kept))
    for elsewhere in ((5,), (6, 2, 9, 9, 1)):  # a shorter prefix, or one that differs, clears them
        kept, old = tables(elsewhere), kept
        assert not any(table is gone for table in kept for gone in old)


def test_a_prefix_that_raised_is_not_answered_from_the_last_success():
    sig = default_signature()
    raised = []

    def flaky(t):
        if len(t) == 6 and not raised:
            raised.append(t)
            raise RuntimeError("flaky host")
        return 1 if 0 in t else 0

    sig.register_seq_function("S", flaky)
    sentence = Sigma2Sentence.from_formula(
        parse("exists x. forall y. ((y > x) -> S[ f(z) : z .. add(y, 1) ] = 0)", sig))
    stream, prefix = MuStream(sentence, sig), FinitePrefix()
    for value in (3, 1, 4, 1, 0):
        prefix = prefix.extended(value)
        assert stream(prefix) == mu_from_sigma2(sentence, prefix, sig)
    prefix = prefix.extended(9)
    with pytest.raises(RuntimeError):
        stream(prefix)
    # mu is 3 on five entries and 4 on six
    assert stream(prefix) == mu_from_sigma2(sentence, prefix, sig) == 4


@pytest.mark.parametrize("text", [
    "exists x. forall y. f(x) = 0",  # searched witness by witness
    "exists x. forall y. ((y > x) -> S[ f(z) : z .. y ] = 1)",  # searched by intervals
])
def test_a_stream_answers_the_prefix_it_pushed_without_observing_it_again(text, monkeypatch):
    sig = default_signature()
    sig.register_seq_function("S", lambda t: 1 if 0 in t else 0)
    sentence = Sigma2Sentence.from_formula(parse(text, sig))
    observed = []
    observe = MuStream._observe

    def counted(self, prefix):
        observed.append(len(prefix))
        return observe(self, prefix)

    monkeypatch.setattr(MuStream, "_observe", counted)
    stream = MuStream(sentence, sig)
    pushed = [stream.push(value) for value in (3, 1, 0, 2, 5)]
    assert stream(stream.prefix) == pushed[-1] == mu_from_sigma2(sentence, stream.prefix, sig)
    assert stream(FinitePrefix((3, 1, 0, 2, 5))) == pushed[-1]
    assert observed == [1, 2, 3, 4, 5]


def test_a_replay_pushes_the_prefix_it_answered_last_again(cz):
    # (0, 1, 1) is on another list than (0,): the replay observes (0,) afresh
    for sentence in (cz.sigma2, complement_sigma2(cz)):
        stream = MuStream(sentence)
        for entries in ((0,), (0, 1, 1), (0,), (0, 1)):
            prefix = FinitePrefix(entries)
            assert stream(prefix) == mu_from_sigma2(sentence, prefix), (sentence.text(), entries)
    g = guesser_from_delta2(cz)
    assert [g(FinitePrefix(entries)) for entries in ((0,), (0, 1, 1))] == [1, 1]


@pytest.mark.parametrize("name", ["mu", "Gz"])
@pytest.mark.parametrize("seq", ["plantzero:3", "cycle:[1,2,3]"])
def test_a_stream_called_at_sparse_lengths_makes_the_attempts_of_every_length(name, seq, monkeypatch):
    """Prefixes of separate lists, 1, 2, 5, 17 and 40 entries long, push what each adds."""
    sig = load_signature((INPUTS / "gz.sig").read_text())
    sentence = Sigma2Sentence.from_formula(parse((INPUTS / f"{name}.sigma2.lg").read_text(), sig))
    source = from_spec(seq)
    entries = tuple(source.query(i) for i in range(40))
    sparse = (1, 2, 5, 17, 40)
    expected = [mu_from_sigma2(sentence, FinitePrefix(entries[:k]), sig) for k in sparse]
    made = []

    def counted(*args):
        made[-1] += 1
        return attempt(*args)

    monkeypatch.setattr(synth, "attempt", counted)
    answers = {}
    for lengths in (sparse, range(1, 41)):
        made.append(0)
        stream = MuStream(sentence, sig)
        answers[lengths] = [stream(FinitePrefix(entries[:k])) for k in lengths]
    assert made[0] == made[1], made
    assert answers[sparse] == expected == [answers[range(1, 41)][k - 1] for k in sparse]


def test_streamed_guessers_replay_prefixes_that_do_not_extend():
    rnd = random.Random(4244)
    gsig = formula_gen.generator_signature()
    for _ in range(30):
        spec = Delta2Spec(pi2=Pi2Sentence("x", "y", _matrix(rnd)),
                          sigma2=Sigma2Sentence("x", "y", _matrix(rnd)))
        g = guesser_from_delta2(spec, gsig)
        over = overguesser_from_sigma2(spec.sigma2, gsig)
        runs = [tuple(o.query(i) for i in range(10))
                for o in (formula_gen.random_oracle(rnd), formula_gen.random_oracle(rnd))]
        # jumps between runs and lengths, then one run extended entry by entry
        asked = [rnd.choice(runs)[:rnd.randrange(1, 11)] for _ in range(12)]
        asked += [runs[0][:k] for k in range(1, 11)]
        asked = [FinitePrefix(entries) for entries in asked]
        # views of one list: in order, then one that skips an entry, then an older one
        views = [FinitePrefix(runs[1][:1])]
        for value in runs[1][1:]:
            views.append(views[-1].extended(value))
        asked += views[:6] + [views[7], views[6]]
        # a fork from an older view, one longer than the last prefix but with another history,
        # then a prefix built from a tuple that does extend the fork
        fork = views[2].extended(runs[1][3] + 1)
        for value in runs[1][4:8]:
            fork = fork.extended(value)
        asked += [fork, FinitePrefix(fork.entries + (2,))]
        for p in asked:
            mu = mu_from_sigma2(spec.sigma2, p, gsig)
            nu = mu_from_sigma2(complement_sigma2(spec), p, gsig)
            assert g(p) == (1 if mu <= nu else 0), (spec, p)
            assert over(p) == mu, (spec.sigma2.text(), p)


def test_records_match_their_dataclass_twins():
    sigma2 = Sigma2Sentence.from_formula(parse("exists x. forall y. f(x) = y"))
    pi2 = Pi2Sentence.from_formula(parse("forall x. exists y. f(x) = y"))
    cells = {(0, 0): FinitePrefix((7,)), (0, 1): FinitePrefix(())}
    samples = {
        Guesser: [(len, "length"), (len, ""), (bool, "length")],
        Delta2Spec: [(pi2, sigma2)],
        TopologySpec: [(cells, FinitePrefix(())), ({}, FinitePrefix((1,))),
                       (dict(cells), FinitePrefix(()))],
    }
    assert record_twins.defined_in(synth) == set(samples)
    for cls, args in samples.items():
        if cls is not TopologySpec:
            record_twins.check_against_twin(cls, args)
    # the twin of the table's former declaration, default_factory included
    twin = dataclasses.make_dataclass("TopologySpec", [
        ("table", dict, dataclasses.field(default_factory=dict)),
        ("default", FinitePrefix, dataclasses.field(default=FinitePrefix(())))],
        bases=(TopologySpec,), frozen=True)
    record_twins.check_against_twin(TopologySpec, samples[TopologySpec], twin)
    first, second = TopologySpec(), TopologySpec()
    assert first == second == TopologySpec(table={}) and first.table is not second.table
    first.table[(0, 0)] = FinitePrefix((1,))
    assert second.table == {} and TopologySpec().table == {}
