"""A guesser registered as a sequence host and ``mu_prime_host``, which read
prefix views, against the hand-written tuple hosts in ``synth_reference``: the
same values and the same exceptions, texts included, on prefixes in any order:
ascending views of one list, repeated, shorter than the last, equal but of
another list, or not extending it.  Each reference host reads ``tuple(view)``.  A Delta2 guesser,
one stream whose two searches, mu's and nu's, share one memo, against mu_from_sigma2 for the
set and its complement, also when a host raises: the same guesses whenever it answers.
``delta2_from_topology`` against the reference that packed i and j into the
ellipsis tuple: the same attempts, mu values and guesses."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import formula_gen
import synth_reference
from guessability import synth
from guessability.cli import BUILTIN_GUESSERS
from guessability.lang import SEQ_BUILTINS, Pi2Sentence, Sigma2Sentence, default_signature, parse
from guessability.oracle import FinitePrefix
from guessability.semantics import EllipsisMemo, attempt
from guessability.synth import (
    Delta2Spec,
    Guesser,
    MuStream,
    TopologySpec,
    complement_sigma2,
    contains_zero_delta2,
    guesser_from_delta2,
    guesser_not,
)

GEN_SIG = formula_gen.generator_signature()


def outcome(host, t):
    try:
        return "value", host(t)
    except Exception as exc:  # the exception's type and text are part of the contract
        return "error", type(exc), str(exc)


def once_raising(answer):
    """A construction that raises the first time it sees each prefix, then answers."""
    seen = set()

    def evaluate(prefix):
        if prefix.entries not in seen:
            seen.add(prefix.entries)
            raise RuntimeError(f"first call on {prefix.entries}")
        return answer(prefix)

    return evaluate


def generated_delta2(seed: int) -> Guesser:
    rnd = random.Random(seed)
    spec = Delta2Spec(pi2=Pi2Sentence("x", "y", formula_gen.gen_qf(rnd, 2, ("x", "y"))),
                      sigma2=formula_gen.gen_sigma2(rnd, 2))
    return guesser_from_delta2(spec, GEN_SIG)


def generated_stream(seed: int) -> MuStream:
    return MuStream(formula_gen.gen_sigma2(random.Random(seed), 2), GEN_SIG)


# each factory makes a fresh construction, so the two hosts never share a stream
_seeds = st.integers(0, 2**32 - 1)
_guessers = st.one_of(
    st.sampled_from([
        lambda: BUILTIN_GUESSERS["contains-zero"],
        lambda: guesser_from_delta2(contains_zero_delta2()),
        lambda: guesser_not(guesser_from_delta2(contains_zero_delta2())),
        lambda: Guesser(evaluate=lambda p: len(p) % 3),  # 2 is not a guess
        lambda: Guesser(evaluate=once_raising(lambda p: p[-1] % 2)),
    ]),
    _seeds.map(lambda seed: lambda: generated_delta2(seed)),
)
_overguessers = st.one_of(
    st.sampled_from([
        lambda: lambda p: 4,
        lambda: lambda p: math.inf if 0 in p else len(p),
        lambda: once_raising(lambda p: sum(p)),
        *(lambda junk=junk: lambda p: junk
          for junk in (-1, 2.5, True, None, "inf")),
    ]),
    _seeds.map(lambda seed: lambda: generated_stream(seed)),
)


@st.composite
def prefix_orders(draw) -> list[FinitePrefix]:
    """Views of one list in any order and in ascending runs, equal prefixes of
    other lists, and prefixes of other sequences."""
    base = draw(st.lists(st.integers(0, 3), min_size=1, max_size=8))
    views = [FinitePrefix()]
    for value in base:
        views.append(views[-1].extended(value))
    runs = draw(st.lists(st.one_of(
        st.sampled_from(views).map(lambda view: [view]),
        st.integers(0, len(base)).map(lambda k: views[k:]),
        st.sampled_from(views).map(lambda view: [FinitePrefix(view)]),
        st.lists(st.integers(0, 3), min_size=1, max_size=6).map(lambda other: [FinitePrefix(other)]),
    ), max_size=8))
    return [prefix for run in runs for prefix in run]


@settings(max_examples=200, deadline=None)
@given(_guessers, prefix_orders())
def test_register_guesser_matches_the_reference(make, order):
    ours, theirs = default_signature(), default_signature()
    ours.register_seq_function("G", make())
    synth_reference.register_guesser(theirs, "G", make())
    for p in order:
        assert outcome(ours.seq_function("G"), p) == outcome(theirs.seq_function("G"), tuple(p)), p


@settings(max_examples=200, deadline=None)
@given(_overguessers, prefix_orders())
def test_mu_prime_host_matches_the_reference(make, order):
    ours, theirs = synth.mu_prime_host(make()), synth_reference.mu_prime_host(make())
    for p in order:
        assert outcome(ours, p) == outcome(theirs, tuple(p)), p


# ---------------------------------------------------------------------------
# A Delta2 guesser is one stream whose mu and nu searches share one memo: the same
# guesses as the reference


def reference_guess(spec: Delta2Spec, prefix: FinitePrefix, sig) -> int:
    mu = synth_reference.mu_from_sigma2(spec.sigma2, prefix, sig)
    nu = synth_reference.mu_from_sigma2(synth.complement_sigma2(spec), prefix, sig)
    return 1 if mu <= nu else 0


def gz_pair(sig) -> Delta2Spec:
    """The pair ``sentences_from_guesser`` writes for ``Gz`` = contains0: one term in both sentences."""
    sig.register_seq_function("Gz", SEQ_BUILTINS["contains0"])
    return synth.sentences_from_guesser("Gz", sig)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([gz_pair, contains_zero_delta2]), prefix_orders())
def test_a_delta2_guesser_with_one_memo_matches_the_reference(pair, order):
    sig = default_signature()
    spec = pair(sig)
    guesser = guesser_from_delta2(spec, sig)
    for p in order:
        if len(p):
            assert guesser(p) == reference_guess(spec, p, sig), p


def flaky_pair(raising: dict[str, set[int]]):
    """(guesser, reference pair, reference signature) for a pair over contains0 hosts.

    The set's sentence writes ``G``; the complement's writes ``F`` and ``G``, so
    ``F`` is asked only inside the complement's stream and ``G`` first inside
    the set's.  ``raising[symbol]`` holds the sizes at which that host is to
    raise; it raises once for each, removing it.
    """
    texts = ("exists x. forall y. ((y > x) -> G[ f(z) : z .. y ] = 1)",
             "forall x. exists y. ((y > x) & F[ f(z) : z .. y ] = G[ f(z) : z .. y ])")

    def host(symbol, plan):
        def contains0(t):
            if len(t) in plan.get(symbol, ()):
                plan[symbol].remove(len(t))
                raise RuntimeError(f"{symbol} on {len(t)} entries")
            return 1 if 0 in t else 0

        return contains0

    def pair(sig, plan):
        for symbol in "FG":
            sig.register_seq_function(symbol, host(symbol, plan))
        sigma2, pi2 = (parse(text, sig) for text in texts)
        return Delta2Spec(pi2=Pi2Sentence.from_formula(pi2), sigma2=Sigma2Sentence.from_formula(sigma2))

    ours, theirs = default_signature(), default_signature()
    return guesser_from_delta2(pair(ours, raising), ours), pair(theirs, {}), theirs


def views_of(entries) -> list[FinitePrefix]:
    views = [FinitePrefix()]
    for value in entries:
        views.append(views[-1].extended(value))
    return views


@pytest.mark.parametrize("symbol", ["F", "G"], ids=["inside-nu", "inside-mu"])
@pytest.mark.parametrize("then", ["same", "extension", "other-sequence"])
def test_a_delta2_guesser_whose_host_raised_once_keeps_matching_the_reference(symbol, then):
    k = 4
    guesser, spec, sig = flaky_pair({symbol: {k}})
    views, other = views_of((3, 1, 4, 1, 5, 0, 2, 6)), views_of((1, 0, 0, 7, 2))
    for p in views[1:k]:
        assert guesser(p) == reference_guess(spec, p, sig), p
    with pytest.raises(RuntimeError, match=f"^{symbol} on {k} entries$"):
        guesser(views[k])
    asked = {"same": views[k:], "extension": views[k + 1:],
             "other-sequence": [other[3], *other[4:], *views[k:]]}[then]
    for p in asked:
        assert guesser(p) == reference_guess(spec, p, sig), p


def test_the_shared_memo_follows_the_prefix_not_the_order_of_the_calls():
    # nu raises on a push, then in the replay that follows; mu raises replaying another
    # sequence; then nu, one entry behind, pushes while mu answers from its last prefix
    raising = {}
    guesser, spec, sig = flaky_pair(raising)
    ones, zeros = views_of((1,) * 5), FinitePrefix((0,) * 5)
    for p in ones[1:5]:
        assert guesser(p) == reference_guess(spec, p, sig), p
    for p, symbol, size in ((ones[5], "F", 5), (ones[5], "F", 4), (zeros, "G", 3)):
        raising[symbol] = {size}
        with pytest.raises(RuntimeError, match=f"^{symbol} on {size} entries$"):
            guesser(p)
    # the tables mu built over the zeros must not answer for the ones
    assert guesser(ones[5]) == reference_guess(spec, ones[5], sig) == 1


@settings(max_examples=200, deadline=None)
@given(prefix_orders(), st.lists(st.one_of(st.none(), st.tuples(st.sampled_from("FG"), st.integers(1, 8)))))
def test_a_delta2_guesser_whose_hosts_raise_matches_the_reference_whenever_it_answers(order, arms):
    raising = {}
    guesser, spec, sig = flaky_pair(raising)
    for p, arm in zip(order, [*arms, *[None] * len(order)]):
        if arm:  # the host raises the next time it is asked about that size
            raising.setdefault(arm[0], set()).add(arm[1])
        if len(p):
            try:
                guess = guesser(p)
            except RuntimeError:
                continue
            assert guess == reference_guess(spec, p, sig), p


# ---------------------------------------------------------------------------
# Topology tables: the agreement sentences against the tuple-packing reference


_cells = st.lists(st.integers(0, 2), max_size=3).map(FinitePrefix)  # the empty cell is the whole space


@st.composite
def topology_specs(draw) -> TopologySpec:
    """Up to six cells in rows 0..2, so a listed row has holes and an unlisted one takes the default."""
    table = draw(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 3)), _cells,
                                 min_size=1, max_size=6))
    return TopologySpec(table=table, default=draw(_cells))


@settings(max_examples=150, deadline=None)
@given(topology_specs(), topology_specs(), st.lists(st.integers(0, 2), max_size=6))
def test_topology_pairs_match_the_reference(for_set, for_complement, entries):
    sides = []
    for build in (synth.delta2_from_topology, synth_reference.delta2_from_topology):
        sig = default_signature()
        spec = build(for_set, for_complement, sig)
        sides.append((spec, sig, EllipsisMemo(), (spec.sigma2, complement_sigma2(spec))))
    streams = [[MuStream(sentence, sig) for sentence in sentences] for _, sig, _, sentences in sides]
    guessers = [guesser_from_delta2(spec, sig) for spec, sig, _, _ in sides]
    for p in views_of(entries):
        outcomes = []
        for _, sig, memo, sentences in sides:
            outcomes.append([
                attempt(sentence.matrix, p, sig, s, shared)
                for sentence in sentences for i in range(4) for j in range(len(p) + 2)
                for s in [{sentence.outer: i, sentence.inner: j}]
                for shared in (None, memo)])
        assert outcomes[0] == outcomes[1], p
        if len(p):
            mus = [[(synth_reference.mu_from_sigma2(sentence, p, sig), stream.push(p[-1]))
                    for sentence, stream in zip(sentences, side_streams)]
                   for (_, sig, _, sentences), side_streams in zip(sides, streams)]
            assert mus[0] == mus[1], p
            assert guessers[0](p) == guessers[1](p), p
