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

import functools
import heapq
import itertools
import math
import operator
from collections.abc import Callable, Iterator

from . import pairing
from .lang import (
    BINARY,
    Formula,
    LangError,
    Not,
    Pi2Sentence,
    Pred,
    Record,
    Signature,
    Sigma2Sentence,
    Term,
    Variable,
    children,
    default_signature,
    free_vars,
    parse,
)
from .oracle import FinitePrefix
from .semantics import Assignment, EllipsisMemo, attempt, value_over


# ---------------------------------------------------------------------------
# ExtendedNat


@functools.total_ordering
class ExtendedNat(Record):
    """A natural or the point at infinity, totally ordered."""

    value: int | None  # None encodes infinity

    def __post_init__(self):
        if self.value is not None and self.value < 0:
            raise ValueError("finite values must be naturals")

    @classmethod
    def finite(cls, n: int) -> "ExtendedNat":
        return cls(int(n))

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __le__(self, other: "ExtendedNat") -> bool:
        if self.value is None:
            return other.value is None
        if other.value is None:
            return True
        return self.value <= other.value

    def __repr__(self):
        return "ExtendedNat(inf)" if self.value is None else f"ExtendedNat({self.value})"


INFINITY = ExtendedNat(None)


# ---------------------------------------------------------------------------
# Guessers and overguessers


class Guesser(Record):
    """Total map from nonempty prefixes to {0, 1}."""

    evaluate: Callable[[FinitePrefix], int]
    provenance: str = ""

    def __call__(self, prefix: FinitePrefix) -> int:
        if len(prefix) == 0:
            raise ValueError("guessers need at least one observed entry")
        guess = self.evaluate(prefix)
        if guess not in (0, 1):
            raise ValueError(f"guesser returned {guess!r}; guesses are 0 or 1")
        return guess


class Overguesser(Record):
    """Total map from nonempty prefixes into the extended naturals."""

    evaluate: Callable[[FinitePrefix], ExtendedNat]
    provenance: str = ""

    def __call__(self, prefix: FinitePrefix) -> ExtendedNat:
        if len(prefix) == 0:
            raise ValueError("overguessers need at least one observed entry")
        value = self.evaluate(prefix)
        if not isinstance(value, ExtendedNat):
            raise ValueError(f"overguesser returned {value!r}; values are ExtendedNat")
        return value


class Delta2Spec(Record):
    """A forall-exists and an exists-forall sentence claimed to define one set.

    Semantic agreement of the two sentences is an assumption, checked only
    on labelled corpora.
    """

    pi2: Pi2Sentence
    sigma2: Sigma2Sentence


# ---------------------------------------------------------------------------
# mu from an exists-forall sentence


def mu_from_sigma2(sentence: Sigma2Sentence, prefix: FinitePrefix,
                   sig: Signature | None = None) -> ExtendedNat:
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
        outcomes = (attempt(sentence.matrix, prefix, sig,
                            Assignment({sentence.outer: a, sentence.inner: b}))
                    for b in range(len(prefix) + 1))
        if not any(outcome.succeeded and not outcome.truth for outcome in outcomes):
            return ExtendedNat.finite(a)
    return ExtendedNat.finite(len(prefix))


_CONNECTIVES = (Not, *(connective for connective, _, _ in BINARY))

# (arity, host) of the comparison predicates: ``a op c`` changes truth only at a = c or c + 1
_COMPARISONS = tuple((2, host) for host in (operator.lt, operator.gt, operator.le, operator.ge))


def _thresholds(matrix: Formula, var: str, sig: Signature) -> list[Term] | None:
    """The terms ``var`` is compared with, if it occurs only as a whole comparison operand.

    That is, as one side of ``=`` or of a binary predicate whose host is
    ``operator.lt/gt/le/ge``, with the other side not mentioning it; the other
    sides are returned.  None when ``var`` occurs free anywhere else.
    """
    found: list[Term] = []

    def only_compared(node: Formula) -> bool:
        if isinstance(node, _CONNECTIVES):
            return all(map(only_compared, children(node)))
        if var not in free_vars(node):
            return True
        operands = children(node)  # the sides of an Eq or the arguments of a Pred
        if isinstance(node, Pred) and (
                len(operands) != 2 or sig.kind_of(node.symbol) != "predicate"
                or sig.predicate(node.symbol) not in _COMPARISONS):
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
    assumes deterministic host functions.

    When the outer variable occurs only as a whole operand of a comparison
    (see _thresholds), which entries an attempt reads, and so whether it fails
    and where, does not depend on the witness ``a``.  Then each inner ``b`` is
    tried once at a = 0 when it first appears or falls due.  Once that attempt
    succeeds, the values c of the compared terms cut the witnesses at 0 and
    at each c and c + 1 into intervals on which the matrix is constant; one
    attempt per interval decides it, and the false intervals stay refuted.  mu
    is the least witness that no interval covers, capped at len(prefix).  A b
    costs one attempt per interval, at most 2k + 1 for k compared terms, so a
    trace of H pushes costs O(H) attempts.

    Otherwise the stream keeps the current witness ``a``, the next inner ``b``
    to try for it, and the failed ``b``s with their offending indices, and a
    trace costs O(H^2) attempts.

    Either way the stream skips attempts that mu_from_sigma2 makes, so a host
    that raises only when it is called again shows up there and not here.
    """

    def __init__(self, sentence: Sigma2Sentence, sig: Signature | None = None):
        self.sentence = sentence
        self.sig = sig if sig is not None else default_signature()
        self._thresholds = _thresholds(sentence.matrix, sentence.outer, self.sig)
        self._restart()

    def _restart(self) -> None:
        self.prefix = FinitePrefix(())
        self._a = 0  # on the interval path, math.inf once every witness is refuted
        self._next_b = 0
        self._failed: list[tuple[int, int]] = []  # heap of (offending index, b) for failed b
        self._refuted: list[tuple[int, float]] = []  # heap of refuted [lo, hi) witness intervals
        self._memo = EllipsisMemo()

    def __call__(self, prefix: FinitePrefix) -> ExtendedNat:
        """mu for a nonempty prefix: pushed if it extends the last by one entry, else replayed.

        A replay restarts the stream, with an empty memo, from the first entry.
        """
        if len(prefix) == 0:
            raise ValueError("mu needs at least one observed entry")
        if not prefix.extends(self.prefix):
            self._restart()
            for value in itertools.islice(prefix, prefix.last_index):
                self.push(value)
        return self._observe(prefix)

    def push(self, value: int) -> ExtendedNat:
        """Observe the next entry and return mu for the prefix seen so far."""
        return self._observe(self.prefix.extended(value))

    def _observe(self, prefix: FinitePrefix) -> ExtendedNat:
        """Take prefix, which extends the last one by one entry, as the prefix seen so far."""
        self.prefix = prefix
        if self._thresholds is not None:
            self._refute_intervals(prefix)
            return ExtendedNat.finite(min(self._a, len(prefix)))
        while self._a <= prefix.last_index and not self._survives(prefix):
            self._a += 1
            self._next_b = 0
            self._failed = []
        return ExtendedNat.finite(self._a)

    def _due(self, prefix: FinitePrefix) -> Iterator[int]:
        """Each failed b whose offending index the prefix reaches, then each b not yet tried.

        A failed b leaves the heap only when the next b is asked for, so one
        whose attempt raises is tried again on the next push.  An attempt that
        fails again reads past the prefix, so the entry it adds stays off the top.
        """
        failed = self._failed
        while failed and failed[0][0] <= prefix.last_index:
            yield failed[0][1]
            heapq.heappop(failed)
        yield from range(self._next_b, len(prefix) + 1)

    def _survives(self, prefix: FinitePrefix) -> bool:
        """Whether no b <= len(prefix) refutes the current witness on this prefix."""
        sentence = self.sentence
        for b in self._due(prefix):
            s = Assignment({sentence.outer: self._a, sentence.inner: b})
            outcome = attempt(sentence.matrix, prefix, self.sig, s, self._memo)
            if outcome.failed:
                heapq.heappush(self._failed, (outcome.offending_index, b))
            elif not outcome.truth:
                return False
        self._next_b = len(prefix) + 1
        return True

    def _refute_intervals(self, prefix: FinitePrefix) -> None:
        """Decide every due b at once for all witnesses, then move ``a`` past the refuted ones."""
        sentence = self.sentence
        for b in self._due(prefix):
            s = Assignment({sentence.outer: 0, sentence.inner: b})
            outcome = attempt(sentence.matrix, prefix, self.sig, s, self._memo)
            if outcome.failed:
                heapq.heappush(self._failed, (outcome.offending_index, b))
                continue
            cuts = {0}
            for term in self._thresholds:
                c = value_over(term, prefix, self.sig, s, self._memo)
                cuts.update((c, c + 1))
            cuts = sorted(cuts)
            for lo, hi in zip(cuts, [*cuts[1:], math.inf]):
                if hi <= self._a:
                    continue
                if lo:
                    outcome = attempt(sentence.matrix, prefix, self.sig,
                                      s.set(sentence.outer, lo), self._memo)
                if not outcome.truth:
                    heapq.heappush(self._refuted, (lo, hi))
        self._next_b = len(prefix) + 1
        while self._refuted and self._refuted[0][0] <= self._a:
            self._a = max(self._a, heapq.heappop(self._refuted)[1])


def overguesser_from_sigma2(sentence: Sigma2Sentence,
                            sig: Signature | None = None) -> Overguesser:
    """Package mu for a sentence as a prefix-indexed overguesser."""
    return Overguesser(evaluate=MuStream(sentence, sig), provenance=sentence.text())


# ---------------------------------------------------------------------------
# Guesser from a Delta2 pair


def complement_sigma2(spec: Delta2Spec) -> Sigma2Sentence:
    """The exists-forall sentence for the complement set: negate the pi2 matrix."""
    return Sigma2Sentence(spec.pi2.outer, spec.pi2.inner, Not(spec.pi2.matrix))


def guesser_from_delta2(spec: Delta2Spec, sig: Signature | None = None) -> Guesser:
    """Guess 1 exactly when mu for the set stays at or below mu for the complement."""
    mu = MuStream(spec.sigma2, sig)
    nu = MuStream(complement_sigma2(spec), sig)

    def evaluate(prefix: FinitePrefix) -> int:
        return 1 if mu(prefix) <= nu(prefix) else 0

    return Guesser(
        evaluate=evaluate,
        provenance=f"mu<=nu for sigma2={spec.sigma2.text()!r} pi2={spec.pi2.text()!r}",
    )


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
    return Delta2Spec(
        pi2=Pi2Sentence.from_formula(parse(pi2_text, sig)),
        sigma2=Sigma2Sentence.from_formula(parse(sigma2_text, sig)),
    )


def register_guesser(sig: Signature, name: str, guesser: Guesser) -> None:
    """Expose a deterministic guesser as a sequence-tuple symbol, memoised per tuple.

    Each tuple's first guess is kept, and a call that raises keeps nothing (see
    _prefix_host).  Traced over H prefixes, the round trip through
    sentences_from_guesser and guesser_from_delta2 costs about 4H stream observations.
    """
    sig.register_seq_function(name, _prefix_host(guesser))


def _prefix_host(construction: Callable[[FinitePrefix], int]) -> Callable[[tuple[int, ...]], int]:
    """Sequence host for a deterministic prefix-indexed construction, memoised per tuple."""
    return functools.cache(lambda t: construction(FinitePrefix(t)))


# ---------------------------------------------------------------------------
# Exists-forall sentence from an overguesser


def mu_prime_host(overguesser: Overguesser) -> Callable[[tuple[int, ...]], int]:
    """Shifted encoding of an overguesser: finite v maps to v+1, infinity to 0.

    Memoised per tuple: the first value is kept, so the overguesser must be deterministic,
    and a call that raises, as on a junk value, keeps nothing (see _prefix_host).
    """
    def shifted(prefix: FinitePrefix) -> int:
        v = overguesser(prefix)
        return 0 if v.is_infinite else v.value + 1

    return _prefix_host(shifted)


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

    def listed_rows(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.table)

    def lookup(self, i: int, j: int) -> FinitePrefix | None:
        """Prefix for the (i, j) cell, or None for an empty contribution."""
        if (i, j) in self.table:
            return self.table[(i, j)]
        if i in self.listed_rows():
            return None
        return self.default


def _membership_host(spec: TopologySpec) -> Callable[[tuple[int, ...]], int]:
    def host(t: tuple[int, ...]) -> int:
        i, j, observed = t[0], t[1], t[2:]
        cell = spec.lookup(i, j)
        if cell is None:
            return 0
        if len(cell) == 0:
            return 1
        return 1 if observed == cell.entries else 0

    return host


def _length_host(spec: TopologySpec) -> Callable[[int, int], int]:
    def host(i: int, j: int) -> int:
        cell = spec.lookup(i, j)
        if cell is None or len(cell) == 0:
            return 0
        return len(cell) - 1

    return host


def _select_host(m: int, i: int, j: int, w: int) -> int:
    if m == 0:
        return i
    if m == 1:
        return j
    return w


def delta2_from_topology(for_set: TopologySpec, for_complement: TopologySpec,
                         sig: Signature, name_prefix: str = "") -> Delta2Spec:
    """Defining pair for a set given by basic-open tables for it and its complement.

    Registers, under optionally prefixed names: variadic membership tests
    ``tauS``/``tauC`` (1 iff the observed values equal the table prefix for
    the (i, j) carried in the tuple's first two slots), length functions
    ``lenS``/``lenC``, and a shared 4-ary selector ``sel`` used to smuggle
    i, j and the sequence values into one tuple.
    """
    if not for_set.table or not for_complement.table:
        raise ValueError("topology tables must be nonempty")
    tau_s = f"{name_prefix}tauS"
    tau_c = f"{name_prefix}tauC"
    len_s = f"{name_prefix}lenS"
    len_c = f"{name_prefix}lenC"
    sig.register_seq_function(tau_s, _membership_host(for_set))
    sig.register_seq_function(tau_c, _membership_host(for_complement))
    sig.register_function(len_s, 2, _length_host(for_set))
    sig.register_function(len_c, 2, _length_host(for_complement))
    if sig.kind_of("sel") != "function":
        sig.register_function("sel", 4, _select_host)

    def tuple_term(tau: str, length: str) -> str:
        return (f"{tau}[ sel(z, i, j, f(monus(z, 2))) : z"
                f" .. add({length}(i, j), 2) ]")

    pi2_text = f"forall i. exists j. {tuple_term(tau_s, len_s)} = 1"
    sigma2_text = f"exists i. forall j. {tuple_term(tau_c, len_c)} = 0"
    return Delta2Spec(
        pi2=Pi2Sentence.from_formula(parse(pi2_text, sig)),
        sigma2=Sigma2Sentence.from_formula(parse(sigma2_text, sig)),
    )


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
    return Delta2Spec(
        pi2=Pi2Sentence.from_formula(parse("forall x. exists y. f(y) = 0", sig)),
        sigma2=Sigma2Sentence.from_formula(parse("exists x. forall y. f(x) = 0", sig)),
    )
