"""Guessing membership of infinite integer sequences in the limit.

A guesser reads ever longer prefixes of an infinite sequence of naturals and
outputs 0 or 1 after each entry; it guesses a set when its outputs converge
to the membership answer on every sequence.  This package provides the
supporting logic with ellipsis terms and tuple-ary symbols, query-tracked
evaluation over lazy sequence oracles, synthesis of overguessers and guessers
from prenex exists-forall / forall-exists sentence pairs, sentence generation
from guessers, overguessers, countable families and finite topology tables,
and diagonalizing adversaries that defeat candidate guessers.

The package re-exports the names README.md documents; every other name is
imported from its module, as ``guessability.lang.Eq``.
"""

from .oracle import FinitePrefix, from_spec, zero_pad
from .lang import free_vars, substitute
from .semantics import AttemptOutcome, EvaluationBudgetExhausted, eval_bounded
from .synth import (
    MuStream,
    contains_zero_delta2,
    guesser_from_delta2,
    mu_prime_host,
    sentences_from_guesser,
)
from .adversary import ExtensionOracles

__all__ = [
    "FinitePrefix", "from_spec", "zero_pad",
    "free_vars", "substitute",
    "AttemptOutcome", "EvaluationBudgetExhausted", "eval_bounded",
    "MuStream", "contains_zero_delta2", "guesser_from_delta2", "mu_prime_host",
    "sentences_from_guesser",
    "ExtensionOracles",
]
