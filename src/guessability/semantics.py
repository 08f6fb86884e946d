"""Evaluation of terms and quantifier-free formulas over a sequence oracle.

Evaluation is pure given (AST, oracle, assignment, signature) and records
exactly which oracle indices it read.  Connectives are never short-circuited,
so the query set is determined by the syntax alone and not by evaluation
order.  ``attempt`` runs a sentence against the zero-padded extension of a
finite prefix and reports failure the moment any query would look past the
prefix's last index; given an ``EllipsisMemo`` it evaluates each ellipsis
term once for each value of its free variables along a growing prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .lang import (
    And,
    EllipsisApp,
    Eq,
    Exists,
    FixedApp,
    Forall,
    Formula,
    Implies,
    Not,
    Numeral,
    Or,
    Pred,
    SeqApp,
    Signature,
    Term,
    Variable,
    default_signature,
    free_vars,
)
from .oracle import FinitePrefix, QueryBeyondLimit, SequenceOracle, zero_pad


class MisplacedQuantifierError(ValueError):
    """A quantifier reached the quantifier-free evaluator."""


class Assignment:
    """Immutable finite map variable -> natural; unmapped variables read as 0."""

    def __init__(self, bindings: Mapping[str, int] | None = None):
        self._bindings = dict(bindings) if bindings else {}

    def __getitem__(self, name: str) -> int:
        return self._bindings.get(name, 0)

    def set(self, name: str, value: int) -> "Assignment":
        """New assignment differing only at ``name``."""
        updated = dict(self._bindings)
        updated[name] = int(value)
        return Assignment(updated)

    def __repr__(self):
        inside = ", ".join(f"{k}={v}" for k, v in sorted(self._bindings.items()))
        return f"Assignment({inside})"


EMPTY_ASSIGNMENT = Assignment()


class EllipsisMemo:
    """Values of the ellipsis terms of one matrix over one growing prefix.

    An entry maps an ``EllipsisApp`` node, by identity, and the values of its
    free variables to the value the node evaluated to.  An evaluation that
    succeeded read only observed entries, which never change as the prefix
    grows, so with deterministic host functions the entry holds on every
    extension.  The owner keeps the matrix alive, so node ids stay unique.
    """

    def __init__(self):
        self._names: dict[int, tuple[str, ...]] = {}
        self.values: dict[tuple[int, ...], int] = {}

    def key(self, term: EllipsisApp, s: Assignment) -> tuple[int, ...]:
        names = self._names.get(id(term))
        if names is None:
            names = self._names[id(term)] = tuple(free_vars(term))
        return (id(term), *(s[name] for name in names))


@dataclass(frozen=True)
class EvalResult:
    """Value of an evaluation together with the oracle indices it read."""

    value: int | bool
    queried: frozenset[int]

    @property
    def max_queried(self) -> int | None:
        return max(self.queried) if self.queried else None


@dataclass(frozen=True)
class AttemptOutcome:
    """Result of checking a sentence against a zero-padded prefix.

    ``truth`` is None exactly when the attempt failed, i.e. evaluation tried
    to query an index past the prefix; the offending index is kept for
    diagnostics only.
    """

    truth: bool | None
    offending_index: int | None = None

    @property
    def failed(self) -> bool:
        return self.truth is None

    @property
    def succeeded(self) -> bool:
        return self.truth is not None

    @classmethod
    def success(cls, truth: bool) -> "AttemptOutcome":
        return cls(truth=bool(truth))

    @classmethod
    def failure(cls, offending_index: int) -> "AttemptOutcome":
        return cls(truth=None, offending_index=offending_index)


def _term_value(term: Term, oracle: SequenceOracle, s: Assignment, sig: Signature,
                memo: EllipsisMemo | None = None) -> int:
    if isinstance(term, Numeral):
        return term.value
    if isinstance(term, Variable):
        return s[term.name]
    if isinstance(term, SeqApp):
        return oracle.query(_term_value(term.arg, oracle, s, sig, memo))
    if isinstance(term, FixedApp):
        arity, host = sig.function(term.symbol)
        if len(term.args) != arity:
            raise ValueError(f"{term.symbol!r} expects {arity} arguments, got {len(term.args)}")
        values = [_term_value(a, oracle, s, sig, memo) for a in term.args]
        return int(host(*values))
    if isinstance(term, EllipsisApp):
        if memo is not None:
            key = memo.key(term, s)
            if key in memo.values:
                return memo.values[key]
        host = sig.seq_function(term.symbol)
        # the bound evaluates first, then the body at binder = 0..bound, ascending
        bound = _term_value(term.bound, oracle, s, sig, memo)
        values = tuple(
            _term_value(term.body, oracle, s.set(term.binder, i), sig, memo)
            for i in range(bound + 1)
        )
        value = int(host(values))
        if memo is not None:
            memo.values[key] = value
        return value
    raise TypeError(f"not a term: {term!r}")


def _qf_truth(formula: Formula, oracle: SequenceOracle, s: Assignment, sig: Signature,
              memo: EllipsisMemo | None = None) -> bool:
    if isinstance(formula, Eq):
        left = _term_value(formula.left, oracle, s, sig, memo)
        right = _term_value(formula.right, oracle, s, sig, memo)
        return left == right
    if isinstance(formula, Pred):
        arity, host = sig.predicate(formula.symbol)
        if len(formula.args) != arity:
            raise ValueError(f"{formula.symbol!r} expects {arity} arguments, got {len(formula.args)}")
        values = [_term_value(a, oracle, s, sig, memo) for a in formula.args]
        return bool(host(*values))
    if isinstance(formula, Not):
        return not _qf_truth(formula.body, oracle, s, sig, memo)
    if isinstance(formula, And):
        left = _qf_truth(formula.left, oracle, s, sig, memo)
        right = _qf_truth(formula.right, oracle, s, sig, memo)
        return left and right
    if isinstance(formula, Or):
        left = _qf_truth(formula.left, oracle, s, sig, memo)
        right = _qf_truth(formula.right, oracle, s, sig, memo)
        return left or right
    if isinstance(formula, Implies):
        left = _qf_truth(formula.left, oracle, s, sig, memo)
        right = _qf_truth(formula.right, oracle, s, sig, memo)
        return (not left) or right
    if isinstance(formula, (Forall, Exists)):
        raise MisplacedQuantifierError(
            "quantifiers have no exact evaluation here; use eval_bounded or attempt-based machinery")
    raise TypeError(f"not a formula: {formula!r}")


def eval_term(term: Term, oracle: SequenceOracle, s: Assignment | None = None,
              sig: Signature | None = None) -> EvalResult:
    """Value of a term, with a fresh query log for this evaluation."""
    s = s if s is not None else EMPTY_ASSIGNMENT
    sig = sig if sig is not None else default_signature()
    log = oracle.begin_session()
    value = _term_value(term, oracle, s, sig)
    return EvalResult(value=value, queried=log.snapshot())


def eval_qf(formula: Formula, oracle: SequenceOracle, s: Assignment | None = None,
            sig: Signature | None = None) -> EvalResult:
    """Truth of a quantifier-free formula; every subterm is evaluated."""
    s = s if s is not None else EMPTY_ASSIGNMENT
    sig = sig if sig is not None else default_signature()
    log = oracle.begin_session()
    value = _qf_truth(formula, oracle, s, sig)
    return EvalResult(value=value, queried=log.snapshot())


def attempt(formula: Formula, prefix: FinitePrefix, sig: Signature | None = None,
            s: Assignment | None = None, memo: EllipsisMemo | None = None) -> AttemptOutcome:
    """Check a quantifier-free formula under an assignment over the zero-padded prefix.

    With no assignment the formula is read as a closed sentence.  Fails the
    moment any query goes past the prefix's last index; an empty prefix
    fails on the first query.  A memo must only ever see this formula over
    prefixes that extend one another; an ellipsis value found in it is not
    evaluated again, and one that evaluates without raising is stored.
    """
    s = s if s is not None else EMPTY_ASSIGNMENT
    sig = sig if sig is not None else default_signature()
    oracle = zero_pad(prefix)
    oracle.begin_session(limit=prefix.last_index)
    try:
        truth = _qf_truth(formula, oracle, s, sig, memo)
    except QueryBeyondLimit as exc:
        return AttemptOutcome.failure(exc.index)
    return AttemptOutcome.success(truth)


# Quantifier instances one bounded evaluation may visit: k nested quantifiers
# under a bound B visit up to (B+1)^k of them.
MAX_BOUNDED_INSTANCES = 100_000


class EvaluationBudgetExhausted(Exception):
    """A bounded evaluation visited more than MAX_BOUNDED_INSTANCES quantifier instances."""


def eval_bounded(formula: Formula, oracle: SequenceOracle, s: Assignment | None = None,
                 sig: Signature | None = None, bound: int = 0) -> bool:
    """Truth with quantifiers restricted to 0..bound.

    A test-harness approximation only; never used inside the overguesser or
    guesser constructions.  Raises EvaluationBudgetExhausted past
    MAX_BOUNDED_INSTANCES quantifier instances.
    """
    s = s if s is not None else EMPTY_ASSIGNMENT
    sig = sig if sig is not None else default_signature()
    return _bounded_truth(formula, oracle, s, sig, bound, iter(range(MAX_BOUNDED_INSTANCES)))


def _instances(formula: Forall | Exists, s: Assignment, bound: int,
               budget: Iterator[int]) -> Iterator[Assignment]:
    """The assignments for the quantifier's variable at 0..bound, each spending one unit."""
    for n in range(bound + 1):
        if next(budget, None) is None:
            raise EvaluationBudgetExhausted(
                f"bounded evaluation visited more than {MAX_BOUNDED_INSTANCES} quantifier instances")
        yield s.set(formula.var, n)


def _bounded_truth(formula: Formula, oracle: SequenceOracle, s: Assignment,
                   sig: Signature, bound: int, budget: Iterator[int]) -> bool:
    if isinstance(formula, Forall):
        return all(_bounded_truth(formula.body, oracle, t, sig, bound, budget)
                   for t in _instances(formula, s, bound, budget))
    if isinstance(formula, Exists):
        return any(_bounded_truth(formula.body, oracle, t, sig, bound, budget)
                   for t in _instances(formula, s, bound, budget))
    if isinstance(formula, Not):
        return not _bounded_truth(formula.body, oracle, s, sig, bound, budget)
    if isinstance(formula, And):
        return (_bounded_truth(formula.left, oracle, s, sig, bound, budget)
                and _bounded_truth(formula.right, oracle, s, sig, bound, budget))
    if isinstance(formula, Or):
        return (_bounded_truth(formula.left, oracle, s, sig, bound, budget)
                or _bounded_truth(formula.right, oracle, s, sig, bound, budget))
    if isinstance(formula, Implies):
        return ((not _bounded_truth(formula.left, oracle, s, sig, bound, budget))
                or _bounded_truth(formula.right, oracle, s, sig, bound, budget))
    return _qf_truth(formula, oracle, s, sig)
