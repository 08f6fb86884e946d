"""Finite prefixes and lazy infinite sequences.

A SequenceOracle wraps a total rule index -> natural and calls it on every
read, so the rule must be deterministic, as a host must: what keeps a trace
consistent is the prefix it reads each index into once.  Which indices an
evaluation read is tracked by the evaluation itself (see ``semantics``), not
by the oracle.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable, Iterable, Iterator

from .lang import natural


class QueryBeyondLimit(Exception):
    """An evaluation tried to read an index past the last one it may read."""

    def __init__(self, index: int, limit: int):
        self.index = index
        self.limit = limit

    def __str__(self) -> str:
        # built only when shown: an attempt that fails at an index too long to print never is
        return f"query at index {self.index} exceeds limit {self.limit}"


class SequenceSpecError(ValueError):
    """Malformed sequence spec string."""


class FinitePrefix:
    """An observed initial segment (f(0), ..., f(k)) of a sequence.

    Equality is element-wise, and O(1) for views of one list; the empty prefix
    is allowed.  A prefix is a view: the first ``len(self)`` entries of a list
    that views made by ``extended`` share.  Entries are only ever appended to
    that list, and only by its longest view, so views of one list agree on
    their common indices and a view never changes.  ``entries`` and slices
    copy.  Views of one list must not be extended from more than one thread.
    """

    __slots__ = ("_items", "_n")

    def __init__(self, entries: Iterable[int] = ()):
        self._items = tuple(entries)
        self._n = len(self._items)
        self.__post_init__()

    def __post_init__(self):
        """The public constructor's check: every entry becomes an int and must be a natural."""
        items = [int(v) for v in self._items]
        if any(v < 0 for v in items):
            raise ValueError(f"prefix entries must be naturals: {tuple(items)}")
        self._items = items

    @property
    def entries(self) -> tuple[int, ...]:
        """The entries, copied into a new tuple."""
        return tuple(_copy(self._items, range(self._n)))

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(_copy(self._items, range(*index.indices(self._n))))
        i = operator.index(index)
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError("prefix index out of range")
        return self._items[i]

    def __iter__(self) -> Iterator[int]:
        return itertools.islice(self._items, self._n)

    def __eq__(self, other):
        if not isinstance(other, FinitePrefix):
            return NotImplemented
        return self._n == other._n and (self._items is other._items or all(map(operator.eq, self, other)))

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"FinitePrefix(entries={self.entries!r})"

    @property
    def last_index(self) -> int:
        """Largest readable index, -1 for the empty prefix."""
        return self._n - 1

    def extended(self, value: int) -> "FinitePrefix":
        """This prefix plus one entry; only the new entry is checked.

        Appends to the shared list when this is its longest view, and
        otherwise copies this view's entries into a new list first.
        """
        value = int(value)
        if value < 0:
            raise ValueError(f"prefix entries must be naturals: {self.entries + (value,)}")
        items, n = self._items, self._n
        if n != len(items):
            items = _copy(items, range(n))
        items.append(value)
        longer = object.__new__(FinitePrefix)
        longer._items, longer._n = items, n + 1
        return longer

    def past(self, other: "FinitePrefix") -> list[int] | None:
        """This prefix's entries past ``other``'s, copying only those, if it is or extends ``other``; else None.

        Views of one list compare nothing; a prefix of another list compares ``other``'s entries.
        """
        n = other._n
        if self._n < n or self._items is not other._items and not all(
                map(operator.eq, itertools.islice(self._items, n), other)):
            return None
        return _copy(self._items, range(n, self._n))

    def read(self, index: int) -> int:
        """The entry at ``index``: ValueError below 0, QueryBeyondLimit past last_index."""
        if index < 0:
            raise ValueError(f"oracle index must be a natural, got {index}")
        if index >= self._n:
            raise QueryBeyondLimit(index, self._n - 1)
        return self._items[index]


def _copy(items: list[int], span: range) -> list[int]:
    """The items at the indices in span, which lie in 0..len(items)-1; every copy goes through here."""
    if not span:
        return []
    return items[span.start:span.stop if span.stop >= 0 else None:span.step]


class SequenceOracle:
    """Lazy view of a total rule index -> natural, which must be deterministic."""

    def __init__(self, rule: Callable[[int], int], describe: str = "oracle"):
        self._rule = rule
        self.describe = describe

    def query(self, index: int) -> int:
        """The rule's value at ``index``, computed on each call; ValueError for a negative index or value."""
        if index < 0:
            raise ValueError(f"oracle index must be a natural, got {index}")
        value = int(self._rule(index))
        if value < 0:
            raise ValueError(f"oracle rule returned {value} at {index}; values must be naturals")
        return value

    def __repr__(self):
        return f"SequenceOracle({self.describe})"


def zero_pad(prefix: FinitePrefix) -> SequenceOracle:
    """Oracle agreeing with the prefix on its indices and 0 beyond."""
    entries = prefix.entries
    return SequenceOracle(lambda i: entries[i] if i < len(entries) else 0,
                          describe="zero-padded prefix")


def from_spec(text: str) -> SequenceOracle:
    """Build an oracle from a sequence spec string.

    Grammar: ``id`` | ``const:<n>`` | ``prefix:[a,b,c]:pad0`` |
    ``plantzero:<p>`` | ``cycle:[a,b,c]``.
    """
    text = text.strip()
    if text == "id":
        return SequenceOracle(lambda i: i, describe="id")
    kind, _, arg = text.partition(":")
    if kind == "const":
        n = natural(arg, "const value", SequenceSpecError)
        return SequenceOracle(lambda i: n, describe=text)
    if kind == "plantzero":
        p = natural(arg, "plantzero index", SequenceSpecError)
        return SequenceOracle(lambda i: 0 if i == p else 1, describe=text)
    if kind == "prefix" and arg.startswith("[") and arg.endswith("]:pad0"):
        body = arg[1:-len("]:pad0")]
        values = tuple(natural(v, "prefix entry", SequenceSpecError)
                       for v in body.split(",")) if body else ()
        source = zero_pad(FinitePrefix(values))
        source.describe = text
        return source
    if kind == "cycle" and arg.startswith("[") and arg.endswith("]"):
        values = tuple(natural(v, "cycle entry", SequenceSpecError) for v in arg[1:-1].split(","))
        return SequenceOracle(lambda i: values[i % len(values)], describe=text)
    raise SequenceSpecError(f"unrecognised sequence spec: {text!r}")


def prefix_spec(prefix: FinitePrefix) -> str:
    """Spec string for the zero-padded extension of a prefix."""
    return "prefix:[" + ",".join(str(v) for v in prefix) + "]:pad0"
