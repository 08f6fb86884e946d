"""Constructions between sentences, overguessers, and guessers.

The bridge in both directions: an exists-forall sentence yields a bounded
overguesser mu; a matched exists-forall / forall-exists pair yields a guesser
by comparing mu for the set against mu for its complement; a guesser (as a
sequence-tuple symbol) yields the pair of sentences that define the set it
guesses; an overguesser host yields an exists-forall sentence through the
pairing trick; a countable family and a finite topology table each yield
their defining sentences.  Guesser combinators close guessable sets under
boolean operations.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Iterator

from . import pairing
from .lang import (
    Eq,
    Formula,
    LangError,
    Not,
    PRED_BUILTINS,
    Pi2Sentence,
    Pred,
    Record,
    SEQ_BUILTINS,
    Signature,
    SignatureError,
    Sigma2Sentence,
    Term,
    Variable,
    children,
    default_signature,
    free_vars,
    parse,
)
from .oracle import FinitePrefix
from .semantics import EllipsisMemo, attempt, value_over


# ---------------------------------------------------------------------------
# Guessers and overguessers


class Guesser(Record):
    """Total map from nonempty prefixes to {0, 1}; what ``evaluate`` raises gets ``raised_by``."""

    evaluate: Callable[[FinitePrefix], int]
    provenance: str = ""

    def __call__(self, prefix: FinitePrefix) -> int:
        if len(prefix) == 0:
            raise ValueError("guessers need at least one observed entry")
        try:
            guess = self.evaluate(prefix)
        except Exception as exc:
            exc.__dict__.setdefault("raised_by", f"the guesser {self.provenance!r}")
            raise
        if guess not in (0, 1):
            raise ValueError(f"guesser returned {guess!r}; guesses are 0 or 1")
        return guess


class Delta2Spec(Record):
    """A forall-exists and an exists-forall sentence claimed to define one set.

    Semantic agreement of the two sentences is an assumption, checked only
    on labelled corpora.
    """

    pi2: Pi2Sentence
    sigma2: Sigma2Sentence


def _delta2_from_texts(pi2_text: str, sigma2_text: str, sig: Signature | None) -> Delta2Spec:
    """The pair read from the forall-exists text and then from the exists-forall one."""
    return Delta2Spec(pi2=Pi2Sentence.from_formula(parse(pi2_text, sig)),
                      sigma2=Sigma2Sentence.from_formula(parse(sigma2_text, sig)))


# ---------------------------------------------------------------------------
# mu from an exists-forall sentence


def mu_from_sigma2(sentence: Sigma2Sentence, prefix: FinitePrefix,
                   sig: Signature | None = None) -> int:
    """Least unrefuted outer witness for the sentence, searched up to len(prefix).

    A pair (a, b) counts as nice when the attempt over the prefix under
    outer=a, inner=b fails or holds; a is very nice when (a, b) is nice for
    every b <= len(prefix).  A witness past the prefix's last index cannot be
    refuted by what has been observed, so the search never looks beyond it:
    the value is the least genuinely very nice a within the prefix, else
    len(prefix).  The value is therefore always finite.

    This is the one-shot reference: it decides every attempt afresh.
    MuStream computes the same values incrementally.
    """
    if len(prefix) == 0:
        raise ValueError("mu needs at least one observed entry")
    sig = sig if sig is not None else default_signature()
    for a in range(len(prefix)):
        outcomes = (attempt(sentence.matrix, prefix, sig, {sentence.outer: a, sentence.inner: b})
                    for b in range(len(prefix) + 1))
        if not any(outcome.succeeded and not outcome.truth for outcome in outcomes):
            return a
    return len(prefix)


def _thresholds(matrix: Formula, var: str, sig: Signature) -> list[Term] | None:
    """The terms ``var`` is compared with, if it occurs only as a whole comparison operand.

    That is, as one side of ``=`` or of a binary predicate whose host is a
    comparison of ``PRED_BUILTINS`` (``a op c`` changes truth only at a = c or
    c + 1), with the other side not mentioning it; the other sides are
    returned.  None when ``var`` occurs free anywhere else.
    """
    found: list[Term] = []

    def only_compared(node: Formula) -> bool:
        if not isinstance(node, (Eq, Pred)):  # a connective: the matrix is quantifier-free
            return all(map(only_compared, children(node)))
        if var not in free_vars(node):
            return True
        operands = children(node)  # the sides of an Eq or the arguments of a Pred
        if isinstance(node, Pred) and (
                len(operands) != 2 or sig.kind_of(node.symbol) != "predicate"
                or sig.predicate(node.symbol) not in PRED_BUILTINS.values()):
            return False
        for this, other in (operands, operands[::-1]):
            if this == Variable(var) and var not in free_vars(other):
                found.append(other)
                return True
        return False

    return found if only_compared(matrix) else None


class MuStream:
    """The values of mu_from_sigma2 over a prefix that grows one entry at a time.

    Attempts are deterministic and read only the observed entries when they
    succeed, so a decided attempt keeps its result on every extension, and a
    failed one fails again at the same offending index until the prefix
    reaches that index.  A refuted witness therefore stays refuted, and mu
    never decreases.  For the same reason each ellipsis entry is evaluated
    once for each value of the body's free variables (see EllipsisMemo), which
    assumes deterministic hosts; a restart clears the memo.

    Both ways of searching take their attempts from one loop (_decided), which tries
    each inner ``b`` when it first appears or, once failed, falls due, and
    yields the truth of each attempt that succeeds.  When the outer variable
    occurs only as a whole operand of a comparison (see _thresholds), which
    entries an attempt reads, and so whether it fails and where, does not
    depend on the witness ``a``.  Then each b is decided once, at a = 0, and
    the values c of the compared terms cut the witnesses at 0 and at each c
    and c + 1 into intervals on which the matrix is constant; one attempt per
    interval decides it, and the false intervals stay refuted.  mu is the
    least witness that no interval covers, capped at len(prefix).  A b costs
    one attempt per interval, at most 2k + 1 for k compared terms, so a trace
    of H pushes costs O(H) attempts.

    Otherwise the stream decides the due bs for the current witness ``a`` until
    one refutes it, and a trace costs O(H^2) attempts.

    Either way the stream skips attempts that mu_from_sigma2 makes, so a host
    that raises only when it is called again shows up there and not here.
    """

    def __init__(self, sentence: Sigma2Sentence, sig: Signature | None = None):
        self.sentence = sentence
        self.sig = sig if sig is not None else default_signature()
        self._thresholds = _thresholds(sentence.matrix, sentence.outer, self.sig)
        self._memo = EllipsisMemo()
        self._restart()

    def _restart(self) -> None:
        self.prefix = FinitePrefix(())
        self._answered = self.prefix, math.inf  # the last prefix answered, and its answer; none yet
        self._a = 0  # on the interval path, math.inf once every witness is refuted
        self._next_b = 0
        self._failed: list[tuple[int, int]] = []  # heap of (offending index, b) for failed b
        self._refuted: list[tuple[int, float]] = []  # heap of refuted [lo, hi) witness intervals
        self._memo.tables.clear()

    def __call__(self, prefix: FinitePrefix) -> int:
        """mu for a nonempty prefix: the last answer if it equals the last prefix
        pushed or answered, else mu once each entry it adds to the last observed is pushed.

        A prefix that adds nothing to the last observed (another prefix, or that one
        unanswered) restarts the stream from the first entry.  A call that raised
        answered nothing.
        """
        if len(prefix) == 0:
            raise ValueError("mu needs at least one observed entry")
        if prefix == self._answered[0]:
            return self._answered[1]
        added = prefix.past(self.prefix)
        if not added:
            self._restart()
            added = prefix.past(self.prefix)
        for value in added[:-1]:
            self.push(value)
        self._answered = prefix, self._observe(prefix)
        return self._answered[1]

    def push(self, value: int) -> int:
        """Observe the next entry and return mu for the prefix seen so far, answering it as __call__ does."""
        prefix = self.prefix.extended(value)
        self._answered = prefix, self._observe(prefix)
        return self._answered[1]

    def _observe(self, prefix: FinitePrefix) -> int:
        """Take prefix, one entry past the last, as the prefix seen so far, and return mu for it."""
        self.prefix = prefix
        if self._thresholds is not None:
            self._refute_intervals(prefix)
        else:
            while self._a <= prefix.last_index and not all(
                    truth for _, truth in self._decided(prefix, self._a)):
                self._a += 1
                self._next_b = 0
                self._failed = []
        return min(self._a, len(prefix))

    def _due(self, prefix: FinitePrefix) -> Iterator[int]:
        """Each failed b whose offending index the prefix reaches, then each b not yet tried.

        A failed b leaves the heap only when the next b is asked for, so one whose
        attempt or search raises is tried again on the next push.  An attempt that
        fails again reads past the prefix, so the entry it adds stays off the top.
        """
        failed = self._failed
        while failed and failed[0][0] <= prefix.last_index:
            yield failed[0][1]
            heapq.heappop(failed)
        yield from range(self._next_b, len(prefix) + 1)

    def _decided(self, prefix: FinitePrefix, a: int) -> Iterator[tuple[dict[str, int], bool]]:
        """(assignment, truth) for each due b whose attempt at witness ``a`` succeeds; a failed
        b waits in the heap, and once every due b is decided none is due until the prefix grows."""
        sentence = self.sentence
        for b in self._due(prefix):
            s = {sentence.outer: a, sentence.inner: b}
            outcome = attempt(sentence.matrix, prefix, self.sig, s, self._memo)
            if outcome.failed:
                heapq.heappush(self._failed, (outcome.offending_index, b))
            else:
                yield s, outcome.truth
        self._next_b = len(prefix) + 1

    def _refute_intervals(self, prefix: FinitePrefix) -> None:
        """Decide every due b at once for all witnesses, then move ``a`` past the refuted ones."""
        sentence = self.sentence
        for s, truth in self._decided(prefix, 0):
            cuts = {0}
            for term in self._thresholds:
                c = value_over(term, prefix, self.sig, s, self._memo)
                cuts.update((c, c + 1))
            cuts = sorted(cuts)
            for lo, hi in zip(cuts, [*cuts[1:], math.inf]):
                if hi <= self._a:
                    continue
                if lo:
                    truth = attempt(sentence.matrix, prefix, self.sig,
                                    {**s, sentence.outer: lo}, self._memo).truth
                if not truth:
                    heapq.heappush(self._refuted, (lo, hi))
        while self._refuted and self._refuted[0][0] <= self._a:
            self._a = max(self._a, heapq.heappop(self._refuted)[1])


def overguesser_from_sigma2(sentence: Sigma2Sentence,
                            sig: Signature | None = None) -> MuStream:
    """mu for a sentence as a prefix-indexed overguesser: the stream is the overguesser."""
    return MuStream(sentence, sig)


# ---------------------------------------------------------------------------
# Guesser from a Delta2 pair


def complement_sigma2(spec: Delta2Spec) -> Sigma2Sentence:
    """The exists-forall sentence for the complement set: negate the pi2 matrix."""
    return Sigma2Sentence(spec.pi2.outer, spec.pi2.inner, Not(spec.pi2.matrix))


class _Delta2Stream(MuStream):
    """A Delta2 guesser: mu's search for the set, then nu's for its complement, take each entry of
    one prefix before it is answered, 1 exactly when mu <= nu, else 0.  One memo serves both, so
    a term both sentences write is evaluated once, and one restart clears it and both searches."""

    def __init__(self, spec: Delta2Spec, sig: Signature | None):
        self._nu = MuStream(complement_sigma2(spec), sig)  # only its search runs, on this stream's prefix
        super().__init__(spec.sigma2, sig)
        self._nu._memo = self._memo

    def __call__(self, prefix: FinitePrefix) -> int:
        try:
            return super().__call__(prefix)
        except Exception as exc:  # what no host tagged is a fault of the package, not of this guesser
            exc.__dict__.setdefault("raised_by", None)
            raise

    def _restart(self) -> None:
        super()._restart()
        self._nu._restart()

    def _observe(self, prefix: FinitePrefix) -> int:
        return 1 if super()._observe(prefix) <= self._nu._observe(prefix) else 0


def guesser_from_delta2(spec: Delta2Spec, sig: Signature | None = None) -> Guesser:
    """Guess 1 exactly when mu for the set stays at or below mu for the complement (see _Delta2Stream)."""
    return Guesser(evaluate=_Delta2Stream(spec, sig),
                   provenance=f"mu<=nu for sigma2={spec.sigma2.text()!r} pi2={spec.pi2.text()!r}")


# ---------------------------------------------------------------------------
# Sentences from a guesser


def guesser_sentence_texts(seq_symbol: str) -> tuple[str, str]:
    """The (sigma2, pi2) sentence texts defining the set a guesser converges on."""
    call = f"{seq_symbol}[ f(z) : z .. y ]"
    sigma2 = f"exists x. forall y. ((y > x) -> {call} = 1)"
    pi2 = f"forall x. exists y. ((y > x) & {call} = 1)"
    return sigma2, pi2


def sentences_from_guesser(seq_symbol: str, sig: Signature) -> Delta2Spec:
    """Defining sentences for the set guessed by a registered {0,1}-valued symbol."""
    if sig.kind_of(seq_symbol) != "seq":
        raise LangError(f"{seq_symbol!r} is not a registered sequence-tuple symbol")
    sigma2_text, pi2_text = guesser_sentence_texts(seq_symbol)
    return _delta2_from_texts(pi2_text, sigma2_text, sig)


# ---------------------------------------------------------------------------
# Exists-forall sentence from an overguesser


def mu_prime_host(overguesser: Callable[[FinitePrefix], int | float]) -> Callable[[FinitePrefix], int]:
    """Shifted encoding of an overguesser, any callable on nonempty prefixes: a natural v
    maps to v+1, ``math.inf`` to 0, and any other value raises ValueError.

    A sequence host: it reads the memo's prefix view, and the memo keeps each
    size's value, so the overguesser must be deterministic.
    """
    def shifted(prefix: FinitePrefix) -> int:
        v = overguesser(prefix)
        if not (isinstance(v, int) and not isinstance(v, bool) and v >= 0 or v == math.inf):
            raise ValueError(f"overguesser returned {v!r}; values are naturals or math.inf")
        return 0 if v == math.inf else v + 1

    return shifted


def overguesser_sentence_text(mu_symbol: str) -> str:
    call = f"{mu_symbol}[ f(z) : z .. m3 ]"
    return ("exists m. forall m3. ((m3 > d2(m)) -> "
            f"(0 < {call} & {call} < d1(m)))")


def sigma2_from_overguesser(mu_symbol: str, sig: Signature) -> Sigma2Sentence:
    """Defining sentence for the set an overguesser stays bounded on.

    ``mu_symbol`` must be bound to the shifted host (see mu_prime_host), and
    the signature's ``d1``/``d2`` must be the pairing projections, as they
    are in the default signature.
    """
    if sig.kind_of(mu_symbol) != "seq":
        raise LangError(f"{mu_symbol!r} is not a registered sequence-tuple symbol")
    for name, proj in (("d1", pairing.first), ("d2", pairing.second)):
        arity, host = sig.function(name)
        if arity != 1:
            raise LangError(f"signature function {name!r} has arity {arity}; "
                            "the pairing projections are unary")
        if any(host(n) != proj(n) for n in range(32)):
            raise LangError(f"signature function {name!r} disagrees with the pairing projection")
    return Sigma2Sentence.from_formula(parse(overguesser_sentence_text(mu_symbol), sig))


# ---------------------------------------------------------------------------
# Exists-forall sentence from a countable family


def sigma2_from_countable_family(name: str, sig: Signature) -> Sigma2Sentence:
    """Defining sentence ``exists x. forall y. name(x, y) = f(y)``.

    ``name`` must be a registered binary function: the family's member m is
    the sequence n -> name(m, n).
    """
    if sig.kind_of(name) != "function":
        raise LangError(f"{name!r} is not a registered binary function symbol")
    arity, _ = sig.function(name)
    if arity != 2:
        raise LangError(f"{name!r} has arity {arity}; families are binary")
    return Sigma2Sentence.from_formula(parse(f"exists x. forall y. {name}(x, y) = f(y)", sig))


# ---------------------------------------------------------------------------
# Delta2 pair from finite topology tables


class TopologySpec(Record):
    """Finite table of basic open sets indexed by (i, j).

    ``table[(i, j)]`` is the prefix whose extensions form that basic open
    set; the empty prefix stands for the whole space.  Rows (values of i)
    absent from the table fall back to ``default`` for every j; a (i, j)
    hole inside a listed row contributes the empty set.
    """

    table: dict[tuple[int, int], FinitePrefix]
    default: FinitePrefix

    def __init__(self, table: dict[tuple[int, int], FinitePrefix] | None = None,
                 default: FinitePrefix = FinitePrefix(())):
        super().__init__({} if table is None else table, default)


def _topology_hosts(spec: TopologySpec) -> tuple[Callable[..., int], Callable[..., int]]:
    """The ``tau`` and ``len`` hosts of one table, read from a copy of its cells taken now."""
    table, default = dict(spec.table), spec.default
    rows = frozenset(i for i, _ in table)

    def cell(i: int, j: int) -> FinitePrefix | None:
        """The (i, j) cell's prefix, the default for an unlisted row, or None for a hole."""
        found = table.get((i, j))
        return default if found is None and i not in rows else found

    def tau(i: int, j: int, z: int, v: int) -> int:
        found = cell(i, j)
        return int(found is not None and (len(found) == 0 or z < len(found) and found[z] == v))

    def length(i: int, j: int) -> int:
        found = cell(i, j)
        return 0 if found is None or len(found) == 0 else len(found) - 1

    return tau, length


def delta2_from_topology(for_set: TopologySpec, for_complement: TopologySpec,
                         sig: Signature, name_prefix: str = "") -> Delta2Spec:
    """Defining pair for a set given by basic-open tables for it and its complement.

    ``forall i. exists j. all[ tauS(i, j, z, f(z)) : z .. lenS(i, j) ] = 1`` and
    ``exists i. forall j. all[ tauC(i, j, z, f(z)) : z .. lenC(i, j) ] = 0``, where
    ``tau(i, j, z, v)`` is 0 for a hole, 1 for the whole space, else whether entry
    z of the cell is v; ``len`` is the cell's last index, 0 for a hole or the whole
    space; and ``all`` is the sequence builtin ``min``.  Each is registered under
    an optionally prefixed name; if one is already declared, or the prefix makes
    a name the signature refuses, SignatureError is raised and none is
    registered.  The hosts read a copy of the tables taken when the pair is
    made, so a later change to the tables does not reach them.
    """
    if not for_set.table or not for_complement.table:
        raise ValueError("topology tables must be nonempty")
    p = name_prefix
    for name in ("tauS", "lenS", "tauC", "lenC", "all"):
        if sig.kind_of(p + name) is not None:
            raise SignatureError(f"symbol {p + name!r} already declared")
    # ``all`` goes first: a prefix that makes one name unreadable makes all five
    # so, and ``for`` + ``all`` is the only reserved name a prefix can make
    try:
        sig.register_seq_function(f"{p}all", SEQ_BUILTINS["min"])
    except SignatureError as exc:
        raise SignatureError(f"name prefix {p!r}: {exc}") from None
    for side, spec in (("S", for_set), ("C", for_complement)):
        tau, length = _topology_hosts(spec)
        sig.register_function(f"{p}tau{side}", 4, tau)
        sig.register_function(f"{p}len{side}", 2, length)

    def agrees(side: str) -> str:
        return f"{p}all[ {p}tau{side}(i, j, z, f(z)) : z .. {p}len{side}(i, j) ]"

    return _delta2_from_texts(f"forall i. exists j. {agrees('S')} = 1",
                              f"exists i. forall j. {agrees('C')} = 0", sig)


# ---------------------------------------------------------------------------
# Combinators and builtin guessers


def guesser_not(g: Guesser) -> Guesser:
    return Guesser(evaluate=lambda p: 1 - g(p), provenance=f"not({g.provenance})")


def guesser_and(g1: Guesser, g2: Guesser) -> Guesser:
    return Guesser(evaluate=lambda p: min(g1(p), g2(p)),
                   provenance=f"and({g1.provenance}, {g2.provenance})")


def guesser_or(g1: Guesser, g2: Guesser) -> Guesser:
    return Guesser(evaluate=lambda p: max(g1(p), g2(p)),
                   provenance=f"or({g1.provenance}, {g2.provenance})")


def contains_zero_guesser() -> Guesser:
    """Guess no until a 0 shows up, then yes forever."""
    return Guesser(evaluate=lambda p: 1 if 0 in p else 0,
                   provenance="contains-zero")


def contains_zero_delta2(sig: Signature | None = None) -> Delta2Spec:
    """The running-example pair for the set of sequences containing a zero."""
    return _delta2_from_texts("forall x. exists y. f(y) = 0", "exists x. forall y. f(x) = 0", sig)
