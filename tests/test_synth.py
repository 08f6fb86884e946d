import random
import re

import pytest
from hypothesis import given, strategies as st

from guessability import pairing
from guessability.lang import (
    LangError,
    SentenceClass,
    Signature,
    classify_sentence,
    default_signature,
    load_signature,
    parse,
    print_formula,
)
from guessability.oracle import FinitePrefix, from_spec, prefix_of
from guessability.semantics import attempt
from guessability.lang import Numeral, Pi2Sentence, Sigma2Sentence, substitute
from guessability.synth import (
    ExtendedNat,
    Delta2Spec,
    Guesser,
    INFINITY,
    MuStream,
    Overguesser,
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
    register_guesser,
    sentences_from_guesser,
    sigma2_from_countable_family,
    sigma2_from_overguesser,
)

import formula_gen


# ---------------------------------------------------------------------------
# ExtendedNat


def test_extended_nat_finite_below_infinity():
    assert ExtendedNat.finite(10 ** 9) < INFINITY
    assert INFINITY <= INFINITY
    assert not INFINITY <= ExtendedNat.finite(0)


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_extended_nat_total_order_trichotomy(a, b):
    x, y = ExtendedNat.finite(a), ExtendedNat.finite(b)
    assert (x < y) + (x == y) + (y < x) == 1
    assert (x <= y) == (a <= b)


def test_extended_nat_rejects_negatives():
    with pytest.raises(ValueError):
        ExtendedNat.finite(-1)


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


# ---------------------------------------------------------------------------
# mu from an exists-forall sentence


@pytest.fixture
def cz():
    return contains_zero_delta2()


def test_mu_finds_the_witness(cz):
    assert mu_from_sigma2(cz.sigma2, FinitePrefix((3, 0, 2))) == ExtendedNat.finite(1)


def test_mu_vacuous_witness_beyond_prefix(cz):
    # every in-prefix witness refuted; the first unrefutable index wins
    assert mu_from_sigma2(cz.sigma2, FinitePrefix((3, 1, 2))) == ExtendedNat.finite(3)


def test_mu_immediate_witness(cz):
    assert mu_from_sigma2(cz.sigma2, FinitePrefix((0,))) == ExtendedNat.finite(0)


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
    assert over.provenance == cz.sigma2.text()


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
    register_guesser(sig, "Gz", contains_zero_guesser())
    spec = sentences_from_guesser("Gz", sig)
    assert classify_sentence(spec.sigma2.formula()) is SentenceClass.SIGMA2
    assert classify_sentence(spec.pi2.formula()) is SentenceClass.PI2
    for sentence in (spec.sigma2, spec.pi2):
        assert parse(print_formula(sentence.formula()), sig) == sentence.formula()


def test_sentences_from_guesser_unknown_symbol():
    with pytest.raises(LangError):
        sentences_from_guesser("Gz", default_signature())


def test_guesser_sentences_define_the_guessed_set():
    # the synthesized pair, run back through the guesser builder, matches the
    # original guesser in the limit
    sig = default_signature()
    register_guesser(sig, "Gz", contains_zero_guesser())
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
    assert classify_sentence(sentence.formula()) is SentenceClass.SIGMA2
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


def test_mu_prime_host_encoding():
    finite = mu_prime_host(Overguesser(evaluate=lambda p: ExtendedNat.finite(4)))
    assert finite((1, 2)) == 5
    infinite = mu_prime_host(Overguesser(evaluate=lambda p: INFINITY))
    assert infinite((1, 2)) == 0


@pytest.mark.parametrize("junk", [3, None, "inf", ExtendedNat])
def test_overguessers_must_return_extended_naturals(junk):
    host = mu_prime_host(Overguesser(evaluate=lambda p: junk))
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
    assert mu_from_sigma2(sentence, FinitePrefix((3,) * 5), sig) == ExtendedNat.finite(3)


def test_family_mu_grows_on_the_identity_sequence():
    sig = constants_family_signature()
    sentence = sigma2_from_countable_family("g", sig)
    ident = from_spec("id")
    for k in (1, 2, 7, 20):
        assert mu_from_sigma2(sentence, prefix_of(ident, k), sig) == ExtendedNat.finite(k + 1)


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
    tau = sig.seq_function("tauS")
    assert tau((0, 0, 7)) == 1
    assert tau((0, 0, 7, 7)) == 0
    assert tau((0, 0, 8)) == 0
    # holes inside a listed row contribute the empty set
    assert tau((0, 5, 7)) == 0
    # unlisted rows fall back to the whole-space default
    assert tau((3, 0, 9)) == 1


def test_topology_sentence_classes():
    sig = default_signature()
    spec = delta2_from_topology(*_first_coordinate_specs(), sig)
    assert classify_sentence(spec.pi2.formula()) is SentenceClass.PI2
    assert classify_sentence(spec.sigma2.formula()) is SentenceClass.SIGMA2


def test_topology_guesser_stabilises_from_first_entry():
    sig = default_signature()
    spec = delta2_from_topology(*_first_coordinate_specs(), sig)
    g = guesser_from_delta2(spec, sig)
    member = from_spec("prefix:[7,4,9]:pad0")
    nonmember = from_spec("prefix:[1,7,7]:pad0")
    assert [g(prefix_of(member, k)) for k in range(6)] == [1] * 6
    assert [g(prefix_of(nonmember, k)) for k in range(6)] == [0] * 6


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
        assert mu_from_sigma2(cz.sigma2, p) == ExtendedNat.finite(first_zero)
        complement_value = len(entries) if 0 in entries else 0
        assert mu_from_sigma2(nu_sentence, p) == ExtendedNat.finite(complement_value)


def test_family_mu_matches_constant_run_closed_form():
    sig = constants_family_signature()
    sentence = sigma2_from_countable_family("g", sig)
    rnd = random.Random(1122)
    for _ in range(200):
        entries = tuple(rnd.choice((0, 1, 2, 5)) for _ in range(rnd.randrange(1, 10)))
        p = FinitePrefix(entries)
        constant = len(set(entries)) == 1 and entries[0] < len(entries)
        expected = entries[0] if constant else len(entries)
        assert mu_from_sigma2(sentence, p, sig) == ExtendedNat.finite(expected)


# ---------------------------------------------------------------------------
# the overguesser contract on a labeled corpus


def test_mu_eventually_bounded_on_members(cz):
    # the witness position is a ceiling once the prefix reaches it
    for p in (0, 2, 5, 11):
        source = from_spec(f"plantzero:{p}")
        for k in range(p, 30):
            mu = mu_from_sigma2(cz.sigma2, prefix_of(source, k))
            assert mu <= ExtendedNat.finite(p)


def test_mu_outgrows_every_threshold_off_members(cz):
    source = from_spec("const:1")
    for threshold in (0, 5, 13, 20):
        k = threshold + 1
        for longer in range(k, 40, 4):
            mu = mu_from_sigma2(cz.sigma2, prefix_of(source, longer))
            assert ExtendedNat.finite(threshold) < mu


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
        for entries in asked:
            p = FinitePrefix(entries)
            mu = mu_from_sigma2(spec.sigma2, p, gsig)
            nu = mu_from_sigma2(complement_sigma2(spec), p, gsig)
            assert g(p) == (1 if mu <= nu else 0), (spec, entries)
            assert over(p) == mu, (spec.sigma2.text(), entries)
