"""Evaluation of terms and formulas over a sequence, tracking the entries read.

One evaluator serves every entry point; they differ in how an entry is read.
Each evaluates under an assignment, a mapping from variable names to
naturals, in which a name it does not map reads as 0.  ``eval_qf`` reads
an oracle and reports which indices it read.  ``attempt`` reads a finite
prefix and fails the moment a read would look past its last index; given an
``EllipsisMemo`` it evaluates each entry of an ellipsis term, or of any equal
one, once for each value of the body's free variables along a growing prefix,
whatever the bounds that ask for it.  A sequence host gets the
body values as a ``FinitePrefix`` view (call ``tuple(t)`` for a tuple), so one
below 0 raises; what a host raises gets ``raised_by``, "the host of 'B'" for the
innermost.  ``eval_bounded`` restricts quantifiers to 0..bound.  Connectives are never
short-circuited, so the query set is determined by the syntax alone, and every
evaluation has a budget of ``MAX_BOUNDED_INSTANCES`` units of work.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Mapping
from itertools import repeat

from .lang import (
    BINARY,
    EllipsisApp,
    Eq,
    Exists,
    FixedApp,
    Forall,
    Formula,
    Not,
    Numeral,
    Pred,
    Record,
    SeqApp,
    Signature,
    Term,
    Variable,
    default_signature,
    free_vars,
)
from .oracle import FinitePrefix, QueryBeyondLimit, SequenceOracle


class MisplacedQuantifierError(ValueError):
    """A quantifier reached the quantifier-free evaluator."""


class EllipsisMemo:
    """Entries and values of the ellipsis terms of the formulas evaluated over one growing prefix.

    ``tables`` maps an ``EllipsisApp`` term, by the first node equal to it, and
    the values of its body's free variables other than the binder to
    ``[prefix, values]``: the body's values at binder = 0, 1, ... so far, as a
    ``FinitePrefix`` the host reads as it is, grown only by ``extended`` so that
    a host extending it forks the list, and the host's value on each size.
    Neither depends on the bound or on where the term occurs.  An evaluation
    that succeeded read only observed entries, which never change as the prefix
    grows, so with deterministic hosts the table holds on every extension; a
    prefix that stopped at a failed read keeps the entries before it.  Nodes
    are resolved once per id and held, so no later node can take that id.
    """

    def __init__(self):
        # node id -> the node, held so that no other node takes its id; the first equal node's id; names
        self._keys: dict[int, tuple[EllipsisApp, int, tuple[str, ...]]] = {}
        self._first: dict[EllipsisApp, tuple[int, tuple[str, ...]]] = {}
        self.tables: dict[tuple[int, ...], list] = defaultdict(lambda: [FinitePrefix(), {}])

    def table(self, term: EllipsisApp, s: Mapping[str, int]) -> list:
        """``[prefix, values]`` for the term under ``s``: its entries so far, its host values by size."""
        key = self._keys.get(id(term))
        if key is None:
            names = tuple(free_vars(term.body) - {term.binder})
            key = self._keys[id(term)] = (term, *self._first.setdefault(term, (id(term), names)))
        _, node, names = key
        return self.tables[(node, *(s.get(name, 0) for name in names))]


class EvalResult(Record):
    """Value of an evaluation together with the oracle indices it read."""

    value: int | bool
    queried: frozenset[int]

    @property
    def max_queried(self) -> int | None:
        return max(self.queried) if self.queried else None


class AttemptOutcome(Record):
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


_HOLDS, _DOES_NOT_HOLD = AttemptOutcome(True), AttemptOutcome(False)

# Units of work one evaluation may spend: one per quantifier instance (k nested
# quantifiers under a bound B visit up to (B+1)^k) and one per ellipsis entry.
MAX_BOUNDED_INSTANCES = 100_000


class EvaluationBudgetExhausted(Exception):
    """An evaluation spent more than MAX_BOUNDED_INSTANCES quantifier instances and ellipsis entries."""


_CONNECTIVES = {connective: truth for connective, _, truth in BINARY}


class _Evaluation:
    """One evaluation: how entries are read, the host symbols, the memo, the bound and the budget.

    Connectives always evaluate both sides, so the entries read are fixed by
    the syntax and not by evaluation order.  Quantifiers range over 0..bound
    and stop at the first instance that decides them; with no bound they are
    an error.  A value or an ellipsis entry found in the memo spends nothing.
    """

    def __init__(self, read: Callable[[int], int], sig: Signature | None,
                 memo: EllipsisMemo | None = None, bound: int | None = None):
        self.read = read
        self.sig = sig if sig is not None else default_signature()
        self.memo = memo
        self.bound = bound
        self.budget_left = MAX_BOUNDED_INSTANCES

    def spend(self) -> None:
        self.budget_left -= 1
        if self.budget_left < 0:
            raise EvaluationBudgetExhausted(
                f"evaluation spent more than {MAX_BOUNDED_INSTANCES} quantifier instances"
                " and ellipsis entries")

    def applied(self, app: FixedApp | Pred, s: Mapping[str, int]) -> int | bool:
        """The host's value on the arguments, an ``int`` for a function and a ``bool`` for a
        predicate; only what the host or that conversion raises gets ``raised_by``."""
        if isinstance(app, FixedApp):
            (arity, host), convert = self.sig.function(app.symbol), int
        else:
            (arity, host), convert = self.sig.predicate(app.symbol), bool
        if len(app.args) != arity:
            raise ValueError(f"{app.symbol!r} expects {arity} arguments, got {len(app.args)}")
        args = tuple(map(self.value, app.args, repeat(s)))  # map, not a comprehension: no frame
        try:
            return convert(host(*args))
        except Exception as exc:
            exc.__dict__.setdefault("raised_by", f"the host of {app.symbol!r}")
            raise

    def value(self, term: Term, s: Mapping[str, int]) -> int:
        if isinstance(term, Numeral):
            return term.value
        if isinstance(term, Variable):
            return s.get(term.name, 0)
        if isinstance(term, SeqApp):
            return self.read(self.value(term.arg, s))
        if isinstance(term, FixedApp):
            return self.applied(term, s)
        if isinstance(term, EllipsisApp):
            # the bound evaluates first, then the body at binder = 0..bound, ascending,
            # each entry spending one unit unless the memo already holds it
            size = self.value(term.bound, s) + 1
            table = [FinitePrefix(), {}] if self.memo is None else self.memo.table(term, s)
            prefix, values = table
            value = values.get(size)
            if value is None:
                host = self.sig.seq_function(term.symbol)
                for i in range(len(prefix), size):
                    self.spend()
                    prefix = table[0] = prefix.extended(self.value(term.body, {**s, term.binder: i}))
                if size < len(prefix):  # the host reads the memo's own view; only a shorter one copies
                    prefix = FinitePrefix(prefix[:size])
                try:
                    value = values[size] = int(host(prefix))
                except Exception as exc:
                    exc.__dict__.setdefault("raised_by", f"the host of {term.symbol!r}")
                    raise
            return value
        raise TypeError(f"not a term: {term!r}")

    def truth(self, formula: Formula, s: Mapping[str, int]) -> bool:
        if isinstance(formula, Eq):
            return self.value(formula.left, s) == self.value(formula.right, s)
        if isinstance(formula, Pred):
            return self.applied(formula, s)
        if isinstance(formula, Not):
            return not self.truth(formula.body, s)
        connective = _CONNECTIVES.get(formula.__class__)
        if connective is not None:
            return connective(self.truth(formula.left, s), self.truth(formula.right, s))
        if isinstance(formula, (Forall, Exists)):
            if self.bound is None:
                raise MisplacedQuantifierError(
                    "quantifiers have no exact evaluation here; use eval_bounded or attempt-based machinery")
            decisive = isinstance(formula, Exists)
            for n in range(self.bound + 1):
                self.spend()
                if self.truth(formula.body, {**s, formula.var: n}) == decisive:
                    return decisive
            return not decisive
        raise TypeError(f"not a formula: {formula!r}")


def eval_qf(formula: Formula, oracle: SequenceOracle, s: Mapping[str, int] | None = None,
            sig: Signature | None = None) -> EvalResult:
    """Truth of a quantifier-free formula, with the oracle indices this evaluation read."""
    queried: set[int] = set()

    def read(index: int) -> int:
        value = oracle.query(index)
        queried.add(index)
        return value

    truth = _Evaluation(read, sig).truth(formula, s or {})
    return EvalResult(value=truth, queried=frozenset(queried))


def attempt(formula: Formula, prefix: FinitePrefix, sig: Signature | None = None,
            s: Mapping[str, int] | None = None, memo: EllipsisMemo | None = None) -> AttemptOutcome:
    """Check a quantifier-free formula under an assignment over the zero-padded prefix.

    With no assignment the formula is read as a closed sentence.  Fails the
    moment any query goes past the prefix's last index, so the padding is
    never read; an empty prefix fails on the first query.  A memo must only see
    the formulas that share it over prefixes that extend one another; a caller
    that moves elsewhere takes a fresh memo or clears its ``tables``, as a
    restarting ``MuStream`` does, for the two searches of a Delta2 guesser too.
    An ellipsis value or entry found in it is not evaluated again; one evaluated without raising is stored.
    """
    evaluation = _Evaluation(prefix.read, sig, memo)
    try:
        truth = evaluation.truth(formula, s or {})
    except QueryBeyondLimit as exc:
        return AttemptOutcome(None, exc.index)
    return _HOLDS if truth else _DOES_NOT_HOLD  # a successful attempt allocates nothing


def value_over(term: Term, prefix: FinitePrefix, sig: Signature | None = None,
               s: Mapping[str, int] | None = None, memo: EllipsisMemo | None = None) -> int:
    """Value of a term over the prefix, sharing a memo as ``attempt`` does.

    A read past the prefix's last index raises ``QueryBeyondLimit``.
    """
    evaluation = _Evaluation(prefix.read, sig, memo)
    return evaluation.value(term, s or {})


def eval_bounded(formula: Formula, oracle: SequenceOracle, s: Mapping[str, int] | None = None,
                 sig: Signature | None = None, bound: int = 0) -> bool:
    """Truth with quantifiers restricted to 0..bound.

    A test-harness approximation only; never used inside the overguesser or
    guesser constructions.  A bound below 0 raises ValueError.
    """
    if bound < 0:
        raise ValueError("bound must be at least 0")
    evaluation = _Evaluation(oracle.query, sig, bound=bound)
    return evaluation.truth(formula, s or {})
