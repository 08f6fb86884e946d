"""Guessing membership of infinite integer sequences in the limit.

A guesser reads ever longer prefixes of an infinite sequence of naturals and
outputs 0 or 1 after each entry; it guesses a set when its outputs converge
to the membership answer on every sequence.  This package provides the
supporting logic with ellipsis terms and tuple-ary symbols, query-tracked
evaluation over lazy sequence oracles, synthesis of overguessers and guessers
from prenex exists-forall / forall-exists sentence pairs, sentence generation
from guessers, overguessers, countable families and finite topology tables,
and diagonalizing adversaries that defeat candidate guessers.
"""

from .oracle import (
    FinitePrefix,
    QueryBeyondLimit,
    SequenceOracle,
    from_spec,
    prefix_of,
    prefix_spec,
    zero_pad,
)
from .lang import (
    And,
    CaptureError,
    EllipsisApp,
    Eq,
    Exists,
    FixedApp,
    Forall,
    Formula,
    Implies,
    LangError,
    Not,
    Numeral,
    Or,
    ParseError,
    Pi2Sentence,
    Pred,
    SeqApp,
    Signature,
    SignatureError,
    Sigma2Sentence,
    Term,
    Variable,
    default_signature,
    free_vars,
    load_signature,
    parse,
    parse_term,
    print_formula,
    print_term,
    substitute,
)
from .semantics import (
    AttemptOutcome,
    EvalResult,
    EvaluationBudgetExhausted,
    MisplacedQuantifierError,
    attempt,
    eval_bounded,
    eval_qf,
    eval_term,
)
from .synth import (
    Delta2Spec,
    Guesser,
    MuStream,
    TopologySpec,
    contains_zero_delta2,
    contains_zero_guesser,
    complement_sigma2,
    delta2_from_topology,
    guesser_and,
    guesser_from_delta2,
    guesser_not,
    guesser_or,
    guesser_sentence_texts,
    mu_from_sigma2,
    mu_prime_host,
    overguesser_sentence_text,
    sentences_from_guesser,
    sigma2_from_countable_family,
    sigma2_from_overguesser,
)
from .adversary import (
    ExtensionOracles,
    ExtensionUnavailable,
    FlipTrace,
    cantor_adversary,
    cantor_extenders,
    contains_zero_extenders,
    diagonalize,
    format_trace,
    infinitely_many_zeros_extenders,
    permutation_adversary,
    permutation_extenders,
)

__all__ = [name for name in dir() if not name.startswith("_")]
