"""``register_guesser`` and ``mu_prime_host``, which read prefix views, against the
hand-written tuple hosts in ``synth_reference``: the same values and the same
exceptions, texts included, on prefixes in any order: ascending views of one
list, repeated, shorter than the last, equal but of another list, or not
extending it.  Each reference host reads ``tuple(view)``."""

import random

from hypothesis import given, settings, strategies as st

import formula_gen
import synth_reference
from guessability import synth
from guessability.cli import BUILTIN_GUESSERS
from guessability.lang import Pi2Sentence, Sigma2Sentence, default_signature
from guessability.oracle import FinitePrefix
from guessability.synth import (
    INFINITY,
    Delta2Spec,
    ExtendedNat,
    Guesser,
    Overguesser,
    contains_zero_delta2,
    guesser_from_delta2,
    guesser_not,
    overguesser_from_sigma2,
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


def generated_stream(seed: int) -> Overguesser:
    return overguesser_from_sigma2(formula_gen.gen_sigma2(random.Random(seed), 2), GEN_SIG)


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
        lambda: Overguesser(evaluate=lambda p: ExtendedNat.finite(4)),
        lambda: Overguesser(evaluate=lambda p: INFINITY if 0 in p else ExtendedNat.finite(len(p))),
        lambda: Overguesser(evaluate=once_raising(lambda p: ExtendedNat.finite(sum(p)))),
        *(lambda junk=junk: Overguesser(evaluate=lambda p: junk)
          for junk in (3, None, "inf", ExtendedNat)),
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
    synth.register_guesser(ours, "G", make())
    synth_reference.register_guesser(theirs, "G", make())
    for p in order:
        assert outcome(ours.seq_function("G"), p) == outcome(theirs.seq_function("G"), tuple(p)), p


@settings(max_examples=200, deadline=None)
@given(_overguessers, prefix_orders())
def test_mu_prime_host_matches_the_reference(make, order):
    ours, theirs = synth.mu_prime_host(make()), synth_reference.mu_prime_host(make())
    for p in order:
        assert outcome(ours, p) == outcome(theirs, tuple(p)), p
