"""Finite prefixes and lazy infinite sequences with memoised access.

A SequenceOracle wraps a total rule index -> natural.  Values are produced
lazily and memoised forever.  Which indices an evaluation read is tracked by
the evaluation itself (see ``semantics``), not by the oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable


class QueryBeyondLimit(Exception):
    """An evaluation tried to read an index past the last one it may read."""

    def __init__(self, index: int, limit: int):
        super().__init__(f"query at index {index} exceeds limit {limit}")
        self.index = index
        self.limit = limit


class SequenceSpecError(ValueError):
    """Malformed sequence spec string."""


@dataclass(frozen=True)
class FinitePrefix:
    """An observed initial segment (f(0), ..., f(k)) of a sequence.

    Equality is element-wise; the empty prefix is allowed.
    """

    entries: tuple[int, ...] = ()

    def __post_init__(self):
        entries = tuple(int(v) for v in self.entries)
        if any(v < 0 for v in entries):
            raise ValueError(f"prefix entries must be naturals: {entries}")
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index: int) -> int:
        return self.entries[index]

    def __iter__(self):
        return iter(self.entries)

    @property
    def last_index(self) -> int:
        """Largest readable index, -1 for the empty prefix."""
        return len(self.entries) - 1

    def extended(self, value: int) -> "FinitePrefix":
        """This prefix plus one entry; only the new entry is checked."""
        entries = self.entries + (int(value),)
        if entries[-1] < 0:
            raise ValueError(f"prefix entries must be naturals: {entries}")
        longer = object.__new__(FinitePrefix)
        object.__setattr__(longer, "entries", entries)
        return longer


class SequenceOracle:
    """Lazy, memoised view of a total deterministic rule index -> natural.

    The memo makes the first answer authoritative: even if a user-supplied
    rule misbehaves, repeated queries at one index return identical values.
    """

    def __init__(self, rule: Callable[[int], int], describe: str = "oracle"):
        self._rule = rule
        self._memo: dict[int, int] = {}
        self.describe = describe

    def query(self, index: int) -> int:
        if index < 0:
            raise ValueError(f"oracle index must be a natural, got {index}")
        if index not in self._memo:
            value = int(self._rule(index))
            if value < 0:
                raise ValueError(f"oracle rule returned {value} at {index}; values must be naturals")
            self._memo[index] = value
        return self._memo[index]

    def __repr__(self):
        return f"SequenceOracle({self.describe})"


def zero_pad(prefix: FinitePrefix) -> SequenceOracle:
    """Oracle agreeing with the prefix on its indices and 0 beyond."""
    entries = prefix.entries
    return SequenceOracle(lambda i: entries[i] if i < len(entries) else 0,
                          describe="zero-padded prefix")


def prefix_of(oracle: SequenceOracle, k: int) -> FinitePrefix:
    """The tuple of oracle values at indices 0..k."""
    if k < 0:
        raise ValueError("prefix_of needs k >= 0")
    return FinitePrefix(tuple(oracle.query(i) for i in range(k + 1)))


def agrees_through(o1: SequenceOracle, o2: SequenceOracle, k: int) -> bool:
    """True iff both oracles return equal values at every index <= k."""
    return all(o1.query(i) == o2.query(i) for i in range(k + 1))


_CONST_RE = re.compile(r"const:(\d+)$")
_PLANTZERO_RE = re.compile(r"plantzero:(\d+)$")
_PREFIX_RE = re.compile(r"prefix:\[((?:\d+(?:,\d+)*)?)\]:pad0$")
_CYCLE_RE = re.compile(r"cycle:\[(\d+(?:,\d+)*)\]$")


def from_spec(text: str) -> SequenceOracle:
    """Build an oracle from a sequence spec string.

    Grammar: ``id`` | ``const:<n>`` | ``prefix:[a,b,c]:pad0`` |
    ``plantzero:<p>`` | ``cycle:[a,b,c]``.
    """
    text = text.strip()
    if text == "id":
        return SequenceOracle(lambda i: i, describe="id")
    m = _CONST_RE.match(text)
    if m:
        n = int(m.group(1))
        return SequenceOracle(lambda i: n, describe=text)
    m = _PLANTZERO_RE.match(text)
    if m:
        p = int(m.group(1))
        return SequenceOracle(lambda i: 0 if i == p else 1, describe=text)
    m = _PREFIX_RE.match(text)
    if m:
        body = m.group(1)
        values = tuple(int(v) for v in body.split(",")) if body else ()
        source = zero_pad(FinitePrefix(values))
        source.describe = text
        return source
    m = _CYCLE_RE.match(text)
    if m:
        values = tuple(int(v) for v in m.group(1).split(","))
        return SequenceOracle(lambda i: values[i % len(values)], describe=text)
    raise SequenceSpecError(f"unrecognised sequence spec: {text!r}")


def prefix_spec(prefix: FinitePrefix) -> str:
    """Spec string for the zero-padded extension of a prefix."""
    return "prefix:[" + ",".join(str(v) for v in prefix.entries) + "]:pad0"
