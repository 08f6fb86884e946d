"""Constructive refutation of candidate guessers.

Given a set that is dense in the sense that every finite prefix extends both
into the set and out of it, no guesser can converge on every sequence.  The
diagonalizer makes that concrete: it grows a prefix phase by phase, steering
along an in-set extension until the candidate says 1, then along an out-of-set
extension until it says 0, and so on.  A candidate that survives a phase for
the whole step budget is reported rather than looped on forever; against an
arbitrary candidate the search for the next flip may genuinely diverge.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator

from .lang import Record
from .oracle import FinitePrefix, prefix_spec
from .synth import Guesser

COMPLETED = "completed"
BUDGET_EXHAUSTED = "budget-exhausted"


class ExtensionUnavailable(Exception):
    """The required in-set or out-of-set extension does not exist at this prefix."""

    def __init__(self, prefix: FinitePrefix, side: str):
        super().__init__(f"no {side} extension available at {prefix_spec(prefix)}")
        self.prefix = prefix
        self.side = side


class ExtensionOracles(Record):
    """Suppliers of an in-set and an out-of-set extension for any prefix.

    Each side returns an iterator over the values at indices len(prefix),
    len(prefix) + 1, ..., or None to report that no such extension exists.
    An extension holds only what follows the prefix, so it cannot contradict it.
    """

    in_s: Callable[[FinitePrefix], Iterator[int] | None]
    out_s: Callable[[FinitePrefix], Iterator[int] | None]


class FlipTrace(Record):
    """Record of the guess flips observed while growing a prefix.

    flips are strictly increasing prefix indices; guesses[i] is the
    candidate's output at flips[i].  phase and steps are set only when the
    run stopped by exhausting the per-phase step budget.
    """

    flips: tuple[int, ...]
    guesses: tuple[int, ...]
    status: str
    phase: int | None = None
    steps: int | None = None

    @property
    def completed(self) -> bool:
        return self.status == COMPLETED


def format_trace(trace: FlipTrace) -> str:
    text = (f"flips=[{', '.join(str(i) for i in trace.flips)}]"
            f" guesses=[{', '.join(str(g) for g in trace.guesses)}]"
            f" status={trace.status}")
    if trace.status == BUDGET_EXHAUSTED:
        text += f" phase={trace.phase} steps={trace.steps}"
    return text


class _Run:
    """One adversary run: the growing prefix, the flips so far and the per-phase step budget.

    Every adversary is ``play`` over a function that gives each phase its
    target guess and the values to append.
    """

    def __init__(self, guesser: Guesser, target_flips: int, step_budget: int):
        if target_flips < 1:
            raise ValueError("flips must be at least 1")
        if step_budget < 1:
            raise ValueError("budget must be at least 1")
        self.guesser = guesser
        self.target_flips = target_flips
        self.step_budget = step_budget
        self.prefix = FinitePrefix()
        self.flips: list[int] = []
        self.guesses: list[int] = []

    def seek(self, target: int, values: Iterator[int]) -> bool:
        """Append values until the guesser outputs target; False when the budget runs out."""
        for _ in range(self.step_budget):
            value = next(values, None)
            if value is None:
                raise ValueError(f"extension ended after {prefix_spec(self.prefix)}")
            self.prefix = self.prefix.extended(value)
            if self.guesser(self.prefix) == target:
                self.flips.append(self.prefix.last_index)
                self.guesses.append(target)
                return True
        return False

    def play(self, phases: Callable[[int, FinitePrefix], tuple[int, Iterator[int]]]
             ) -> tuple[FinitePrefix, FlipTrace]:
        """Seek through phases 1..target_flips; ``phases(phase, prefix)`` gives (target, values)."""
        for phase in range(1, self.target_flips + 1):
            if not self.seek(*phases(phase, self.prefix)):
                return self.prefix, FlipTrace(tuple(self.flips), tuple(self.guesses),
                                              BUDGET_EXHAUSTED, phase=phase, steps=self.step_budget)
        return self.prefix, FlipTrace(tuple(self.flips), tuple(self.guesses), COMPLETED)


def diagonalize(guesser: Guesser, extensions: ExtensionOracles,
                target_flips: int, step_budget: int) -> tuple[FinitePrefix, FlipTrace]:
    """Grow a prefix on which the candidate's guesses alternate.

    Phase i targets guess i mod 2, steering along the in-set extension on odd
    phases and the out-of-set extension on even ones.  Raises
    ExtensionUnavailable when the set fails the density requirement at the
    current prefix.
    """

    def phases(phase: int, prefix: FinitePrefix) -> tuple[int, Iterator[int]]:
        inside = phase % 2 == 1
        values = (extensions.in_s if inside else extensions.out_s)(prefix)
        if values is None:
            raise ExtensionUnavailable(prefix, "in-set" if inside else "out-of-set")
        return phase % 2, values

    return _Run(guesser, target_flips, step_budget).play(phases)


def permutation_adversary(guesser: Guesser, target_flips: int,
                          step_budget: int) -> tuple[FinitePrefix, FlipTrace]:
    """Defeat candidates for the set of bijective sequences.

    The diagonalizer over two injective extensions: fill emits the unused
    values in ascending order, skip does the same without the least of them.
    After each fill phase the prefix's values are a gap-free initial segment,
    so a skip phase leaves one gap, which the next fill phase fills first.
    """
    fill = permutation_extenders().in_s

    def skip(prefix: FinitePrefix) -> Iterator[int] | None:
        values = fill(prefix)
        return None if values is None else itertools.islice(values, 1, None)

    return diagonalize(guesser, ExtensionOracles(in_s=fill, out_s=skip), target_flips, step_budget)


def cantor_adversary(guesser: Guesser, target_flips: int,
                     step_budget: int) -> tuple[FinitePrefix, FlipTrace]:
    """Defeat candidates for 'value 5 appears infinitely often' over {0, 5} sequences.

    Emits runs of 0s until the candidate says 0, then runs of 5s until it
    says 1, alternating; every emitted value is 0 or 5.
    """

    def phases(phase: int, prefix: FinitePrefix) -> tuple[int, Iterator[int]]:
        target = 1 - phase % 2
        return target, itertools.repeat(5 if target else 0)

    return _Run(guesser, target_flips, step_budget).play(phases)


# ---------------------------------------------------------------------------
# Builtin extension oracles


def _tail(value: int, available: Callable[[FinitePrefix], bool] = lambda p: True
          ) -> Callable[[FinitePrefix], Iterator[int] | None]:
    """An extension that repeats ``value`` forever, at the prefixes where it is ``available``."""
    return lambda p: itertools.repeat(value) if available(p) else None


def infinitely_many_zeros_extenders() -> ExtensionOracles:
    """In: append zeros forever.  Out: append ones forever."""
    return ExtensionOracles(in_s=_tail(0), out_s=_tail(1))


def contains_zero_extenders() -> ExtensionOracles:
    """In: append zeros.  Out: append ones, unavailable once a zero is present."""
    return ExtensionOracles(in_s=_tail(0), out_s=_tail(1, lambda p: 0 not in p))


def permutation_extenders() -> ExtensionOracles:
    """In: append the unused values in ascending order, unavailable on repeated values.

    Out: repeat a value forever, so the extension is never injective.  The
    in-set side keeps the values of the last prefix it was given, so a prefix
    that extends it costs only the entries it adds, and a prefix of another
    list also a comparison of the last one's: an adversary run, whose prefixes
    share one list, pays O(1) amortised per value, however many phases it has.
    An iterator it returned reads those values when it is advanced, so one
    advanced after a later call also skips the values that call added.
    """
    last, used, least = FinitePrefix(), set(), 0

    def in_s(p: FinitePrefix) -> Iterator[int] | None:
        nonlocal last, used, least
        added = p.past(last)
        if added is None:
            added, used, least = p, set(), 0
        used.update(added)
        last = p
        if len(used) != len(p):
            return None
        while least in used:
            least += 1
        return (v for v in itertools.count(least) if v not in used)

    return ExtensionOracles(in_s=in_s, out_s=lambda p: itertools.repeat(p[0] if len(p) else 0))


def cantor_extenders() -> ExtensionOracles:
    """For sequences over {0, 5} with infinitely many 5s; unavailable off that alphabet."""

    def on_alphabet(p: FinitePrefix) -> bool:
        return all(v in (0, 5) for v in p)

    return ExtensionOracles(in_s=_tail(5, on_alphabet), out_s=_tail(0, on_alphabet))
