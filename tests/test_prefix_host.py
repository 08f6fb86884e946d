"""A construction exposed as a symbol (``register_guesser``, ``mu_prime_host``)
is memoised per tuple, so the paper's round trip guesser -> Delta2 sentences ->
guesser pushes its inner streams instead of replaying them, and keeps the
original guesser's final guess."""

import pytest
from hypothesis import given, settings, strategies as st

from guessability.cli import BUILTIN_GUESSERS, trace_guesser
from guessability.lang import default_signature
from guessability.oracle import FinitePrefix, from_spec
from guessability.synth import (
    Guesser,
    MuStream,
    complement_sigma2,
    contains_zero_delta2,
    guesser_and,
    guesser_from_delta2,
    guesser_not,
    guesser_or,
    register_guesser,
    sentences_from_guesser,
)


def round_trip(guesser: Guesser) -> Guesser:
    """The guesser for the Delta2 pair that ``sentences_from_guesser`` writes for ``guesser``."""
    sig = default_signature()
    register_guesser(sig, "G", guesser)
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
    register_guesser(sig, "G", Guesser(evaluate=lambda p: inner(p).value % 2))
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
    register_guesser(sig, "G", Guesser(evaluate=evaluate))
    host = sig.seq_function("G")
    with pytest.raises(RuntimeError, match="^not yet$"):
        host((1, 2))
    assert [host((1, 2)), host((1, 2))] == [1, 1]
    assert calls == [(1, 2), (1, 2)]  # the raise was not kept, the answer was


def test_each_registration_keeps_its_own_answers():
    zero, one = default_signature(), default_signature()
    register_guesser(zero, "G", BUILTIN_GUESSERS["constant-0"])
    register_guesser(one, "G", BUILTIN_GUESSERS["constant-1"])
    assert [zero.seq_function("G")((1, 2)), one.seq_function("G")((1, 2))] == [0, 1]


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
