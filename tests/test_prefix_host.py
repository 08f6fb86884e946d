"""A construction exposed as a symbol (a guesser through ``register_seq_function``,
an overguesser through ``mu_prime_host``) reads the memo's own prefix view, and
the memo asks it once per size, so the paper's round trip guesser -> Delta2
sentences -> guesser pushes its inner streams instead of replaying them, and
keeps the original guesser's final guess.  Equal ellipsis terms share a table, and a Delta2 guesser's two searches
share one memo, so each host is asked once per size, always about views of one
list.  A host that extends its view, or a stream it feeds, leaves the memo's
entries alone, and a body value below 0 is an error whatever the host."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from guessability import oracle
from guessability.cli import BUILTIN_GUESSERS, trace_guesser
from guessability.lang import SEQ_BUILTINS, Sigma2Sentence, default_signature, parse
from guessability.oracle import FinitePrefix, from_spec
from guessability.semantics import EllipsisMemo, attempt
from guessability.synth import (
    Guesser,
    MuStream,
    complement_sigma2,
    contains_zero_delta2,
    guesser_and,
    guesser_from_delta2,
    guesser_not,
    guesser_or,
    mu_prime_host,
    overguesser_from_sigma2,
    sentences_from_guesser,
    sigma2_from_overguesser,
)


def round_trip(guesser: Guesser) -> Guesser:
    """The guesser for the Delta2 pair that ``sentences_from_guesser`` writes for ``guesser``."""
    sig = default_signature()
    sig.register_seq_function("G", guesser)
    return guesser_from_delta2(sentences_from_guesser("G", sig), sig)


def test_two_streams_asking_one_registered_guesser_in_turn_do_not_replay_it(monkeypatch):
    inner = MuStream(contains_zero_delta2().sigma2)
    lengths = []  # the length of each prefix the inner stream takes in
    observe = inner._observe

    def noted(prefix):
        lengths.append(len(prefix))
        return observe(prefix)

    monkeypatch.setattr(inner, "_observe", noted)
    sig = default_signature()
    sig.register_seq_function("G", Guesser(evaluate=lambda p: inner(p) % 2))
    spec = sentences_from_guesser("G", sig)
    first, second = MuStream(spec.sigma2, sig), MuStream(complement_sigma2(spec), sig)
    prefix, source = FinitePrefix(), from_spec("cycle:[1,2,0]")
    for i in range(60):
        prefix = prefix.extended(source.query(i))
        first(prefix)
        second(prefix)
    # one push per length, up to the longest tuple: no replay from the first entry
    assert lengths == list(range(1, 61))


def test_a_host_that_raises_caches_nothing():
    calls = []

    def evaluate(prefix):
        calls.append(prefix.entries)
        if len(calls) == 1:
            raise RuntimeError("not yet")
        return 1

    sig = default_signature()
    sig.register_seq_function("G", Guesser(evaluate=evaluate))
    matrix = parse("G[ f(z) : z .. 1 ] = 1", sig)
    prefix, memo = FinitePrefix((1, 2)), EllipsisMemo()
    with pytest.raises(RuntimeError, match="^not yet$"):
        attempt(matrix, prefix, sig, memo=memo)
    assert [attempt(matrix, prefix, sig, memo=memo).truth for _ in range(2)] == [True, True]
    assert calls == [(1, 2), (1, 2)]  # the raise was not kept, the answer was


def test_each_registration_keeps_its_own_answers():
    zero, one = default_signature(), default_signature()
    zero.register_seq_function("G", BUILTIN_GUESSERS["constant-0"])
    one.register_seq_function("G", BUILTIN_GUESSERS["constant-1"])
    prefix = FinitePrefix((1, 2))
    assert [zero.seq_function("G")(prefix), one.seq_function("G")(prefix)] == [0, 1]


@pytest.mark.parametrize("register", [
    lambda sig: sig.register_seq_function("G", SEQ_BUILTINS["sum"]),
    lambda sig: sig.register_seq_function("G", BUILTIN_GUESSERS["contains-zero"]),
], ids=["builtin", "registered-guesser"])
def test_a_body_value_below_zero_is_an_error_for_every_host(register):
    sig = default_signature()
    sig.register_function("less", 1, lambda n: n - 1)
    register(sig)
    matrix = parse("G[ less(f(z)) : z .. 1 ] = 1", sig)
    for memo in (None, EllipsisMemo()):
        with pytest.raises(ValueError, match=r"^prefix entries must be naturals: \(1, -1\)$"):
            attempt(matrix, FinitePrefix((2, 0)), sig, memo=memo)


def assert_memo_changes_no_attempt(sig, after_each=lambda: None):
    """Every memoised attempt of ``G[ f(z) : z .. y ] = x`` equals a memo-less one,
    with ``after_each`` run after each y."""
    matrix = parse("G[ f(z) : z .. y ] = x", sig)
    prefix, memo = FinitePrefix((1, 0, 2, 0, 3, 1, 0)), EllipsisMemo()
    for y in range(len(prefix)):
        for x in range(len(prefix) + 2):
            s = {"x": x, "y": y}
            assert attempt(matrix, prefix, sig, s, memo) == attempt(matrix, prefix, sig, s), (x, y)
        after_each()


def test_a_host_that_extends_its_view_leaves_the_memo_alone():
    def evaluate(prefix):
        prefix.extended(7)
        return prefix[-1] % 2

    sig = default_signature()
    sig.register_seq_function("G", Guesser(evaluate=evaluate))
    assert_memo_changes_no_attempt(sig)


def test_a_stream_pushed_after_reading_a_memo_view_leaves_the_memo_alone():
    stream = MuStream(contains_zero_delta2().sigma2)
    sig = default_signature()
    sig.register_seq_function("G", stream)
    # the memoised attempt hands the stream the memo's view first, so the push extends it
    assert_memo_changes_no_attempt(sig, lambda: stream.push(7))


def test_a_round_trip_trace_costs_linear_observations(monkeypatch):
    observations = 0  # one per prefix any stream takes in
    observe = MuStream._observe

    def counted(stream, prefix):
        nonlocal observations
        observations += 1
        return observe(stream, prefix)

    monkeypatch.setattr(MuStream, "_observe", counted)
    cost = {}
    for horizon in (400, 800):
        observations = 0
        rebuilt = round_trip(guesser_from_delta2(contains_zero_delta2()))
        assert trace_guesser(rebuilt, from_spec("plantzero:10"), horizon).final == 1
        cost[horizon] = observations
    assert cost[800] <= 2.2 * cost[400]


def recording(host, views):
    """``host``, noting each view it is handed in ``views``."""
    def noted(prefix):
        views.append(prefix)
        return host(prefix)

    return noted


def assert_once_per_size_on_one_list(views, horizon):
    assert sorted(map(len, views)) == list(range(1, horizon + 1))
    longest = max(views, key=len)
    # past walks the entries only of a view of another list
    with mock.patch.object(oracle, "all", side_effect=AssertionError("another list"), create=True):
        assert all(longest.past(view) is not None for view in views)


def test_a_gz_guesser_asks_gz_once_per_size_about_views_of_one_list():
    sig, views, horizon = default_signature(), [], 300
    sig.register_seq_function("Gz", recording(SEQ_BUILTINS["contains0"], views))
    guesser = guesser_from_delta2(sentences_from_guesser("Gz", sig), sig)
    assert trace_guesser(guesser, from_spec("plantzero:10"), horizon).final == 1
    # both sentences write Gz[ f(z) : z .. y ]; with a memo per stream it was asked twice per size
    assert_once_per_size_on_one_list(views, horizon)


def test_the_overguesser_sentence_asks_its_host_once_per_size():
    inner = overguesser_from_sigma2(Sigma2Sentence.from_formula(
        parse("exists x. forall y. ((y > x) -> f(y) = 0)")))
    sig, views, horizon = default_signature(), [], 150
    sig.register_seq_function("Mu", recording(mu_prime_host(inner), views))
    # the sentence writes Mu[ f(z) : z .. m3 ] twice: equal terms, one table
    stream, prefix = MuStream(sigma2_from_overguesser("Mu", sig), sig), FinitePrefix()
    for value in [1, 1, 1] + [0] * (horizon - 3):
        prefix = prefix.extended(value)
        stream(prefix)
    assert_once_per_size_on_one_list(views, horizon)


def test_a_round_trip_asks_the_registered_guesser_once_per_size():
    inner, views, horizon = guesser_from_delta2(contains_zero_delta2()), [], 300
    rebuilt = round_trip(Guesser(evaluate=recording(inner, views)))
    assert trace_guesser(rebuilt, from_spec("plantzero:10"), horizon).final == 1
    assert_once_per_size_on_one_list(views, horizon)


def test_a_round_trip_guesses_no_on_a_sequence_without_a_zero():
    rebuilt = round_trip(guesser_from_delta2(contains_zero_delta2()))
    assert trace_guesser(rebuilt, from_spec("const:1"), 800).final == 0


# Each leaf reads only whether a 0 has shown up, and every generated spec that
# has a 0 has one before index FIRST_ZERO_BOUND, so a guesser built from them
# has settled within that many entries.
FIRST_ZERO_BOUND = 13
_leaves = st.sampled_from(["contains-zero", "constant-0", "constant-1"]).map(
    BUILTIN_GUESSERS.__getitem__)
_guessers = st.recursive(_leaves, lambda inner: st.one_of(
    st.builds(guesser_not, inner),
    st.builds(guesser_and, inner, inner),
    st.builds(guesser_or, inner, inner),
), max_leaves=4)
_values = st.lists(st.integers(0, 3), max_size=6).map(lambda values: ",".join(map(str, values)))
_specs = st.one_of(
    st.integers(0, FIRST_ZERO_BOUND - 1).map(lambda p: f"plantzero:{p}"),
    st.integers(0, 3).map(lambda c: f"const:{c}"),
    _values.map(lambda values: f"prefix:[{values}]:pad0"),
    _values.filter(bool).map(lambda values: f"cycle:[{values}]"),
)


@settings(max_examples=200, deadline=None)
@given(_guessers, _specs)
def test_a_round_trip_settles_on_the_original_guess_at_most_one_entry_later(guesser, spec):
    original = trace_guesser(guesser, from_spec(spec), FIRST_ZERO_BOUND + 1)
    horizon = 2 * original.stable_from + 4
    rebuilt = trace_guesser(round_trip(guesser), from_spec(spec), horizon)
    assert rebuilt.final == original.final
    assert rebuilt.stable_from <= original.stable_from + 1
