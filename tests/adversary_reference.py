"""The permutation and Cantor adversaries as hand-written phase loops.

These are the loops ``adversary`` ran before every adversary went through the
one phase loop, ``_Run.play``, kept verbatim with the bookkeeping they used,
as the reference the differential test in ``test_adversary.py`` checks
``adversary.permutation_adversary`` and ``adversary.cantor_adversary``
against.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from guessability.adversary import BUDGET_EXHAUSTED, COMPLETED, FlipTrace
from guessability.oracle import FinitePrefix, prefix_spec
from guessability.synth import Guesser


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
