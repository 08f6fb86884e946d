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
    """Shared bookkeeping for one adversary run."""

    def __init__(self, guesser: Guesser, target_flips: int, step_budget: int):
        if target_flips < 1:
            raise ValueError("target_flips must be at least 1")
        if step_budget < 1:
            raise ValueError("step_budget must be at least 1")
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

    def exhausted(self, phase: int) -> tuple[FinitePrefix, FlipTrace]:
        trace = FlipTrace(tuple(self.flips), tuple(self.guesses),
                          BUDGET_EXHAUSTED, phase=phase, steps=self.step_budget)
        return self.prefix, trace

    def completed(self) -> tuple[FinitePrefix, FlipTrace]:
        trace = FlipTrace(tuple(self.flips), tuple(self.guesses), COMPLETED)
        return self.prefix, trace


def diagonalize(guesser: Guesser, extensions: ExtensionOracles,
                target_flips: int, step_budget: int) -> tuple[FinitePrefix, FlipTrace]:
    """Grow a prefix on which the candidate's guesses alternate.

    Phase i targets guess i mod 2, steering along the in-set extension on odd
    phases and the out-of-set extension on even ones.  Raises
    ExtensionUnavailable when the set fails the density requirement at the
    current prefix.
    """
    run = _Run(guesser, target_flips, step_budget)
    for phase in range(1, target_flips + 1):
        inside = phase % 2 == 1
        source = extensions.in_s if inside else extensions.out_s
        extension = source(run.prefix)
        if extension is None:
            raise ExtensionUnavailable(run.prefix, "in-set" if inside else "out-of-set")
        if not run.seek(phase % 2, extension):
            return run.exhausted(phase)
    return run.completed()


def permutation_adversary(guesser: Guesser, target_flips: int,
                          step_budget: int) -> tuple[FinitePrefix, FlipTrace]:
    """Defeat candidates for the set of bijective sequences.

    Emits fresh values in ascending order until the candidate says 1, skips
    one value until it says 0, then fills the gap and resumes.  The emitted
    prefix is injective throughout, and after each fill phase its value set
    is a gap-free initial segment.
    """
    run = _Run(guesser, target_flips, step_budget)
    fresh = itertools.count()
    gap: list[int] = []  # the value the last even phase skipped, until an odd phase fills it
    for phase in range(1, target_flips + 1):
        if phase % 2 == 1:
            pending, gap = gap, []
        else:
            pending, gap = [], [next(fresh)]
        if not run.seek(phase % 2, itertools.chain(pending, fresh)):
            return run.exhausted(phase)
    return run.completed()


def cantor_adversary(guesser: Guesser, target_flips: int,
                     step_budget: int) -> tuple[FinitePrefix, FlipTrace]:
    """Defeat candidates for 'value 5 appears infinitely often' over {0, 5} sequences.

    Emits runs of 0s until the candidate says 0, then runs of 5s until it
    says 1, alternating; every emitted value is 0 or 5.
    """
    run = _Run(guesser, target_flips, step_budget)
    for phase in range(1, target_flips + 1):
        target = 0 if phase % 2 == 1 else 1
        value = 0 if target == 0 else 5
        if not run.seek(target, itertools.repeat(value)):
            return run.exhausted(phase)
    return run.completed()


# ---------------------------------------------------------------------------
# Builtin extension oracles


def infinitely_many_zeros_extenders() -> ExtensionOracles:
    """In: append zeros forever.  Out: append ones forever."""
    return ExtensionOracles(
        in_s=lambda p: itertools.repeat(0),
        out_s=lambda p: itertools.repeat(1),
    )


def contains_zero_extenders() -> ExtensionOracles:
    """In: append zeros.  Out: append ones, unavailable once a zero is present."""

    def out_s(p: FinitePrefix) -> Iterator[int] | None:
        if 0 in p:
            return None
        return itertools.repeat(1)

    return ExtensionOracles(in_s=lambda p: itertools.repeat(0), out_s=out_s)


def permutation_extenders() -> ExtensionOracles:
    """In: append the unused values in ascending order, unavailable on repeated values.

    Out: repeat a value forever, so the extension is never injective.
    """

    def in_s(p: FinitePrefix) -> Iterator[int] | None:
        used = set(p)
        if len(used) != len(p):
            return None
        return (v for v in itertools.count() if v not in used)

    return ExtensionOracles(in_s=in_s, out_s=lambda p: itertools.repeat(p[0] if len(p) else 0))


def cantor_extenders() -> ExtensionOracles:
    """For sequences over {0, 5} with infinitely many 5s; unavailable off that alphabet."""

    def make(tail_value: int) -> Callable[[FinitePrefix], Iterator[int] | None]:
        def source(p: FinitePrefix) -> Iterator[int] | None:
            if any(v not in (0, 5) for v in p):
                return None
            return itertools.repeat(tail_value)

        return source

    return ExtensionOracles(in_s=make(5), out_s=make(0))
