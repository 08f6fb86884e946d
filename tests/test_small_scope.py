"""Exhaustive small-scope checks of the paper's contracts on every word over
{0, 1, 2} of length at most DEPTH, walked depth first.

For the Sigma2 sentence of ``contains_zero_delta2()``, its complement, the
bench's ``mu.sigma2.lg``, and both sentences of the bench's ``Gz`` pair with
``gz.sig``:

- one ``MuStream`` asked about each word in walk order, which pushes onto a
  child and replays onto a sibling, gives ``mu_from_sigma2`` of that word;
- ``mu`` never decreases from a word to a one-entry extension;
- an attempt that succeeded on a word, for any outer and inner value up to
  its length, gives the same truth on every one-entry extension (locality).

For the ``contains_zero_delta2()`` pair and the bench's ``Gz`` pair, one
``guesser_from_delta2``, whose two streams share one memo, asked about each
word in walk order guesses 1 exactly when ``mu_from_sigma2`` of the set's
sentence is at most that of the complement's.
"""

from pathlib import Path

import pytest

from guessability import lang
from guessability.oracle import FinitePrefix
from guessability.semantics import attempt
from guessability.synth import (
    MuStream,
    _delta2_from_texts,
    complement_sigma2,
    contains_zero_delta2,
    guesser_from_delta2,
    mu_from_sigma2,
)

INPUTS = Path(__file__).resolve().parent.parent / "bench" / "inputs"
ALPHABET = (0, 1, 2)
DEPTH = 6  # 1,092 words, about 4 s on a shared 2-vCPU VM; DEPTH 7 took 16 s there


def pairs():
    """(id, Delta2 pair, signature) for each pair the walk checks."""
    gz_sig = lang.load_signature((INPUTS / "gz.sig").read_text())
    gz = _delta2_from_texts(*((INPUTS / f"Gz.{kind}.lg").read_text() for kind in ("pi2", "sigma2")),
                            gz_sig)
    return [("contains-zero", contains_zero_delta2(), lang.default_signature()), ("gz", gz, gz_sig)]


def sentences():
    """(id, sentence, signature) for each sentence the walk checks."""
    (_, cz, sig), (_, gz, gz_sig) = pairs()
    mu_sentence = lang.Sigma2Sentence.from_formula(lang.parse((INPUTS / "mu.sigma2.lg").read_text()))
    return [("contains-zero", cz.sigma2, sig), ("contains-zero-complement", complement_sigma2(cz), sig),
            ("bench-mu", mu_sentence, sig), ("gz", gz.sigma2, gz_sig),
            ("gz-complement", complement_sigma2(gz), gz_sig)]


def outcomes(sentence, prefix, sig, pairs):
    return {(a, b): attempt(sentence.matrix, prefix, sig, {sentence.outer: a, sentence.inner: b})
            for a, b in pairs}


def words(prefix: FinitePrefix = FinitePrefix()):
    """Every word over ALPHABET of length 1..DEPTH below ``prefix``, depth first."""
    for value in ALPHABET:
        word = prefix.extended(value)
        yield word
        if len(word) < DEPTH:
            yield from words(word)


CASES, PAIRS = sentences(), pairs()


@pytest.mark.parametrize("sentence, sig", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_every_short_word_keeps_the_contracts(sentence, sig):
    stream = MuStream(sentence, sig)
    words = 0

    def walk(prefix: FinitePrefix, mu: int, decided: dict) -> None:
        nonlocal words
        for value in ALPHABET:
            word = prefix.extended(value)
            words += 1
            got = stream(word)
            assert got == mu_from_sigma2(sentence, word, sig), word.entries
            assert got >= mu, word.entries
            size = len(word)
            # the attempts the children need; a leaf needs only those its parent decided
            pairs = decided if size == DEPTH else [(a, b) for a in range(size + 1)
                                                   for b in range(size + 1)]
            now = outcomes(sentence, word, sig, pairs)
            for pair, before in decided.items():
                assert now[pair].truth == before.truth, (word.entries, pair)
            if size < DEPTH:
                walk(word, got, {pair: o for pair, o in now.items() if o.succeeded})

    walk(FinitePrefix(), 0, {})
    assert words == sum(len(ALPHABET) ** k for k in range(1, DEPTH + 1))


@pytest.mark.parametrize("spec, sig", [case[1:] for case in PAIRS], ids=[case[0] for case in PAIRS])
def test_a_delta2_guesser_with_one_memo_guesses_every_short_word(spec, sig):
    guesser, complement = guesser_from_delta2(spec, sig), complement_sigma2(spec)
    for word in words():
        expected = 1 if mu_from_sigma2(spec.sigma2, word, sig) <= mu_from_sigma2(complement, word, sig) else 0
        assert guesser(word) == expected, word.entries
