"""A work gate without timing: the Python calls one warm ``attempt`` or guess step makes.

Wall-clock benchmarks cannot see a few percent more evaluator work, but a
frame more per node or per symbol lookup shows here as a count.  The bounds
are the counts of the evaluator as it stands; a change may lower them and
must not raise them.
"""

import sys
from pathlib import Path

import pytest

from guessability import cli, lang, synth
from guessability.oracle import FinitePrefix, from_spec
from guessability.semantics import EllipsisMemo, attempt

INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"


def calls_of(function, *args) -> int:
    """``call`` profile events of ``function(*args)``, that call included."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return calls


def calls_of_warm_attempt(formula, prefix, sig, s, memo) -> int:
    """``call`` profile events of the second of two equal attempts, the ``attempt`` call included."""
    attempt(formula, prefix, sig, s, memo)
    return calls_of(attempt, formula, prefix, sig, s, memo)


def gz_spec():
    """The benchmark's ``Gz`` Delta2 pair, with its signature."""
    sig = lang.load_signature((INPUTS / "gz.sig").read_text())
    pi2, sigma2 = ((INPUTS / f"Gz.{kind}.lg").read_text() for kind in ("pi2", "sigma2"))
    return synth._delta2_from_texts(pi2, sigma2, sig), sig


def test_a_warm_attempt_on_the_bench_gz_matrix_with_its_memo():
    spec, sig = gz_spec()
    s = {"x": 0, "y": 3}
    prefix = FinitePrefix((1, 1, 0, 1, 1))
    assert calls_of_warm_attempt(spec.sigma2.matrix, prefix, sig, s, EllipsisMemo()) <= 14


@pytest.mark.parametrize("entries, bound", [((0,) * 9, 17), ((0,) * 3, 19)],
                         ids=["succeeds", "fails"])
def test_a_warm_attempt_on_a_plain_implication(entries, bound):
    sig = lang.default_signature()
    formula = lang.parse("(y > x) -> f(add(y, y)) = 0", sig)
    s = {"x": 0, "y": 3}
    assert calls_of_warm_attempt(formula, FinitePrefix(entries), sig, s, None) <= bound


@pytest.mark.parametrize("seq", ["const:1", "plantzero:10"])
def test_a_warm_guess_step_of_the_bench_gz_guesser(seq):
    """The guess at prefix length 41, after the guesser has answered lengths 1 to 40."""
    spec, sig = gz_spec()
    guesser = synth.guesser_from_delta2(spec, sig)
    source, prefix = from_spec(seq), FinitePrefix()
    for i in range(40):
        prefix = prefix.extended(source.query(i))
        guesser(prefix)
    prefix = prefix.extended(source.query(40))
    assert calls_of(guesser, prefix) <= 183


@pytest.mark.parametrize("seq", ["const:1", "plantzero:10"])
def test_a_gz_guess_trace_to_horizon_1000(monkeypatch, seq):
    """The attempts a trace of the bench's ``Gz`` guesser makes through ``synth.attempt``, on a
    nonmember and on a member, each search's included."""
    attempts = 0

    def counted(*args):
        nonlocal attempts
        attempts += 1
        return attempt(*args)

    monkeypatch.setattr(synth, "attempt", counted)
    spec, sig = gz_spec()
    cli.trace_guesser(synth.guesser_from_delta2(spec, sig), from_spec(seq), 1000)
    assert attempts <= 7998


def test_a_warm_push_of_the_bench_mu_stream():
    """The push of entry 41 of ``cycle:[1,2,3]``, after the stream has taken entries 1 to 40."""
    sentence = lang.Sigma2Sentence.from_formula(lang.parse((INPUTS / "mu.sigma2.lg").read_text()))
    stream, source = synth.MuStream(sentence), from_spec("cycle:[1,2,3]")
    for i in range(40):
        stream.push(source.query(i))
    assert calls_of(stream.push, source.query(40)) <= 72


def test_a_topology_lookup_makes_the_same_calls_whatever_the_table_size():
    """One ``tauS`` call on a hole of a listed row, over 40 cells and over 400."""
    def calls_on_a_hole(cells: int) -> int:
        sig = lang.default_signature()
        spec = synth.TopologySpec(table={(0, j): FinitePrefix((j,)) for j in range(1, cells + 1)})
        synth.delta2_from_topology(spec, spec, sig)
        _, tau = sig.function("tauS")
        return calls_of(tau, 0, 0, 0, 7)

    assert calls_on_a_hole(400) == calls_on_a_hole(40)


def test_a_repeated_overguesser_host_call_on_a_view_it_answered():
    """The ``mu_prime_host`` host of a stream, called again on the view it answered last."""
    sentence = lang.Sigma2Sentence.from_formula(
        lang.parse((INPUTS / "mu.sigma2.lg").read_text()))
    host = synth.mu_prime_host(synth.MuStream(sentence))
    prefix = FinitePrefix((1, 1, 1, 0, 0))
    host(prefix)
    assert calls_of(host, prefix) <= 4
