import itertools
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from guessability import adversary
from guessability.adversary import (
    BUDGET_EXHAUSTED,
    COMPLETED,
    ExtensionOracles,
    ExtensionUnavailable,
    cantor_adversary,
    cantor_extenders,
    contains_zero_extenders,
    diagonalize,
    format_trace,
    infinitely_many_zeros_extenders,
    permutation_adversary,
    permutation_extenders,
)
from guessability.lang import Pi2Sentence, Sigma2Sentence, default_signature, parse
from guessability.oracle import FinitePrefix
from guessability.synth import (
    Delta2Spec,
    Guesser,
    contains_zero_delta2,
    contains_zero_guesser,
    guesser_from_delta2,
)

import adversary_reference
import record_twins


def parity_guesser():
    return Guesser(evaluate=lambda p: 1 if len(p) % 2 == 0 else 0,
                   provenance="parity-of-length")


def constant_guesser(bit):
    return Guesser(evaluate=lambda p: bit, provenance=f"constant-{bit}")


def initial_segment_guesser():
    return Guesser(evaluate=lambda p: 1 if sorted(p.entries) == list(range(len(p))) else 0,
                   provenance="initial-segment")


def last_is_five_guesser():
    return Guesser(evaluate=lambda p: 1 if p.entries[-1] == 5 else 0,
                   provenance="last-is-5")


def assert_alternation(trace, start=1):
    assert trace.guesses[0] == start
    for earlier, later in zip(trace.guesses, trace.guesses[1:]):
        assert later == 1 - earlier
    for earlier, later in zip(trace.flips, trace.flips[1:]):
        assert earlier < later


def assert_replay(guesser, prefix, trace):
    for index, guess in zip(trace.flips, trace.guesses):
        assert guesser(FinitePrefix(prefix.entries[:index + 1])) == guess


# ---------------------------------------------------------------------------
# diagonalize


def test_diagonalize_parity_flips_every_step():
    g = parity_guesser()
    prefix, trace = diagonalize(g, infinitely_many_zeros_extenders(), 10, 10_000)
    assert trace.status == COMPLETED
    assert list(trace.flips) == list(range(1, 11))
    assert_alternation(trace)
    assert_replay(g, prefix, trace)


def test_diagonalize_constant_one_stalls_in_phase_two():
    prefix, trace = diagonalize(constant_guesser(1), infinitely_many_zeros_extenders(), 10, 60)
    assert trace.status == BUDGET_EXHAUSTED
    assert trace.phase == 2
    assert trace.steps == 60
    assert list(trace.guesses) == [1]


def test_diagonalize_density_violation():
    with pytest.raises(ExtensionUnavailable) as err:
        diagonalize(contains_zero_guesser(), contains_zero_extenders(), 5, 50)
    assert 0 in err.value.prefix.entries


def test_diagonalize_validates_arguments():
    with pytest.raises(ValueError):
        diagonalize(parity_guesser(), infinitely_many_zeros_extenders(), 0, 10)
    with pytest.raises(ValueError):
        diagonalize(parity_guesser(), infinitely_many_zeros_extenders(), 3, 0)


def test_diagonalize_rejects_an_extension_that_ends():
    finite = ExtensionOracles(
        in_s=lambda p: iter((1, 1)),
        out_s=lambda p: itertools.repeat(0),
    )
    with pytest.raises(ValueError, match=r"^extension ended after prefix:\[1,1\]:pad0$"):
        # constant-0 never says 1, so phase 1 draws past the two values
        diagonalize(constant_guesser(0), finite, 1, 100)


def test_diagonalize_permutation_set_is_linear_in_the_budget():
    # each value of the in-set extension costs O(1) amortised, so the run is
    # dominated by prefix growth; the bound leaves room for slow machines
    start = time.perf_counter()
    prefix, trace = diagonalize(constant_guesser(0), permutation_extenders(), 1, 20_000)
    assert time.perf_counter() - start < 5
    assert trace.status == BUDGET_EXHAUSTED
    assert prefix.entries == tuple(range(20_000))


def test_diagonalize_phase_entries_come_from_that_phases_extension():
    prefix, trace = diagonalize(parity_guesser(), infinitely_many_zeros_extenders(), 6, 100)
    # odd phases draw from the zeros tail, even phases from the ones tail
    boundaries = [-1] + list(trace.flips)
    for phase, (lo, hi) in enumerate(zip(boundaries, boundaries[1:]), start=1):
        expected = 0 if phase % 2 == 1 else 1
        assert all(v == expected for v in prefix.entries[lo + 1:hi + 1])


# ---------------------------------------------------------------------------
# the candidate built by the bounded machinery for a set with no matched pair

def test_machinery_candidate_for_infinitely_many_zeros_is_defeated():
    # the forall-exists sentence is a faithful definition; no exists-forall
    # one exists, so the pair below is deliberately mismatched and the
    # resulting candidate must be diagonalizable
    sig = default_signature()
    spec = Delta2Spec(
        pi2=Pi2Sentence.from_formula(parse("forall x. exists y. ((y > x) & f(y) = 0)", sig)),
        sigma2=Sigma2Sentence.from_formula(parse("exists x. forall y. f(add(x, y)) = 0", sig)),
    )
    candidate = guesser_from_delta2(spec, sig)
    prefix, trace = diagonalize(candidate, infinitely_many_zeros_extenders(), 10, 500)
    assert trace.status == COMPLETED
    assert len(trace.flips) >= 10
    assert_alternation(trace)
    assert_replay(candidate, prefix, trace)


def test_contains_zero_candidate_converges_on_the_ones_branch():
    # the matched contains-zero pair yields a genuine guesser, so the
    # diagonalizer reports the branch it converges on instead of flipping
    candidate = guesser_from_delta2(contains_zero_delta2())
    prefix, trace = diagonalize(candidate, infinitely_many_zeros_extenders(), 10, 80)
    assert trace.status == BUDGET_EXHAUSTED
    assert trace.phase == 2
    assert list(trace.guesses) == [1]


# ---------------------------------------------------------------------------
# permutation adversary


def test_permutation_adversary_completes_and_stays_injective():
    g = initial_segment_guesser()
    prefix, trace = permutation_adversary(g, 8, 200)
    assert trace.status == COMPLETED
    assert len(trace.flips) == 8
    assert_alternation(trace)
    assert_replay(g, prefix, trace)
    assert len(set(prefix.entries)) == len(prefix.entries)


def test_permutation_adversary_fill_phases_restore_initial_segments():
    g = initial_segment_guesser()
    prefix, trace = permutation_adversary(g, 7, 200)
    for index, guess in zip(trace.flips, trace.guesses):
        seen = prefix.entries[:index + 1]
        if guess == 1:
            assert sorted(seen) == list(range(len(seen)))


def test_permutation_adversary_constant_zero_stalls_in_phase_one():
    prefix, trace = permutation_adversary(constant_guesser(0), 3, 25)
    assert trace.status == BUDGET_EXHAUSTED
    assert trace.phase == 1
    assert trace.guesses == ()
    assert len(set(prefix.entries)) == len(prefix.entries)


# ---------------------------------------------------------------------------
# cantor adversary


def test_cantor_adversary_flips_on_run_boundaries():
    g = last_is_five_guesser()
    prefix, trace = cantor_adversary(g, 10, 200)
    assert trace.status == COMPLETED
    assert len(trace.flips) == 10
    assert trace.guesses[0] == 0
    for earlier, later in zip(trace.guesses, trace.guesses[1:]):
        assert later == 1 - earlier
    assert set(prefix.entries) <= {0, 5}
    assert_replay(g, prefix, trace)


def test_cantor_adversary_contains_zero_stalls_seeking_a_no():
    prefix, trace = cantor_adversary(contains_zero_guesser(), 4, 30)
    assert trace.status == BUDGET_EXHAUSTED
    assert trace.phase == 1
    assert set(prefix.entries) <= {0, 5}


# ---------------------------------------------------------------------------
# differential: the phase loop against the hand-written loops it replaced


def table_guesser(by_length, by_last):
    """Deterministic candidate: one table read by the prefix length, one by its last value."""
    return Guesser(evaluate=lambda p: by_length[len(p) % len(by_length)]
                   ^ by_last[p[-1] % len(by_last)], provenance="table")


@pytest.mark.parametrize("ours, reference", [
    (permutation_adversary, adversary_reference.permutation_adversary),
    (cantor_adversary, adversary_reference.cantor_adversary),
], ids=["permutation", "cantor"])
@settings(max_examples=150, deadline=None)
@given(by_length=st.lists(st.integers(0, 1), min_size=1, max_size=12),
       by_last=st.lists(st.integers(0, 1), min_size=1, max_size=12),
       flips=st.integers(1, 12), budget=st.integers(1, 30))
def test_adversary_matches_its_hand_written_loop(ours, reference, by_length, by_last,
                                                 flips, budget):
    guesser = table_guesser(by_length, by_last)
    assert ours(guesser, flips, budget) == reference(guesser, flips, budget)


# ---------------------------------------------------------------------------
# builtin extension oracles


def take(values, n):
    return list(itertools.islice(values, n))


def test_contains_zero_extenders_availability():
    ext = contains_zero_extenders()
    clean = FinitePrefix((1, 2))
    assert take(ext.out_s(clean), 3) == [1, 1, 1]
    assert ext.out_s(FinitePrefix((1, 0))) is None
    assert take(ext.in_s(clean), 3) == [0, 0, 0]


def test_permutation_extenders_availability():
    ext = permutation_extenders()
    assert ext.in_s(FinitePrefix((1, 1))) is None
    assert take(ext.in_s(FinitePrefix((3, 0))), 4) == [1, 2, 4, 5]
    assert take(ext.in_s(FinitePrefix((3, 0, 5))), 4) == [1, 2, 4, 6]
    assert take(ext.in_s(FinitePrefix()), 3) == [0, 1, 2]
    assert take(ext.out_s(FinitePrefix((3, 0))), 3) == [3, 3, 3]


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3)), max_size=30))
def test_permutation_extender_that_remembers_matches_a_fresh_one(steps):
    """One in-set side asked about extensions, forks and shorter views answers as a new one would."""
    shared = permutation_extenders().in_s
    views = [FinitePrefix()]
    for value, pick in steps:
        views.append(views[pick % len(views)].extended(value))
        for view in (views[-1], views[pick % len(views)]):
            remembered, fresh = shared(view), permutation_extenders().in_s(view)
            assert (remembered is None) == (fresh is None)
            if fresh is not None:
                assert take(remembered, 6) == take(fresh, 6)


@given(st.lists(st.integers(0, 20), unique=True, max_size=16), st.integers(0, 16),
       st.lists(st.integers(0, 20), max_size=3))
def test_permutation_extender_follows_a_prefix_of_another_list(values, cut, tail):
    """Handed a prefix of another list that extends its last one, the in-set side answers
    as a new one would, and walks only the last one's entries to see that it extends them."""
    shared = permutation_extenders().in_s
    last = FinitePrefix(values[:cut])
    shared(last)
    longer = FinitePrefix((*values, *tail))
    reads = [0]
    iterate = FinitePrefix.__iter__

    def counted(self):
        for value in iterate(self):
            reads[0] += 1
            yield value

    with mock.patch.object(FinitePrefix, "__iter__", counted):
        remembered = shared(longer)
    assert reads[0] <= len(last)
    fresh = permutation_extenders().in_s(longer)
    assert (remembered is None) == (fresh is None)
    if fresh is not None:
        assert take(remembered, 6) == take(fresh, 6)


def test_permutation_adversary_reads_no_entry_twice(monkeypatch):
    # the in-set side adds only each phase's new entries to the values it
    # holds, so a run does not iterate the whole prefix once per phase
    reads = [0]
    iterate = FinitePrefix.__iter__

    def counted(self):
        for value in iterate(self):
            reads[0] += 1
            yield value

    monkeypatch.setattr(FinitePrefix, "__iter__", counted)
    prefix, trace = permutation_adversary(parity_guesser(), 2_000, 10)
    assert trace.status == COMPLETED
    assert reads[0] <= len(prefix)


def test_cantor_extenders_availability():
    ext = cantor_extenders()
    assert ext.in_s(FinitePrefix((0, 7))) is None
    assert ext.out_s(FinitePrefix((0, 7))) is None
    assert take(ext.in_s(FinitePrefix((0, 5))), 3) == [5, 5, 5]
    assert take(ext.out_s(FinitePrefix((0, 5))), 3) == [0, 0, 0]


def test_format_trace():
    _, trace = diagonalize(parity_guesser(), infinitely_many_zeros_extenders(), 2, 10)
    assert format_trace(trace) == "flips=[1, 2] guesses=[1, 0] status=completed"
    _, trace = diagonalize(constant_guesser(1), infinitely_many_zeros_extenders(), 2, 5)
    assert format_trace(trace) == "flips=[0] guesses=[1] status=budget-exhausted phase=2 steps=5"


def test_records_match_their_dataclass_twins():
    samples = {
        ExtensionOracles: [(len, bool), (bool, len)],
        adversary.FlipTrace: [((0, 3), (1, 0), COMPLETED), ((0,), (1,), BUDGET_EXHAUSTED, 2, 10),
                              ((0,), (1,), BUDGET_EXHAUSTED, None, None)],
    }
    assert record_twins.defined_in(adversary) == set(samples)
    for cls, args in samples.items():
        record_twins.check_against_twin(cls, args)
