"""Constructions ``synth`` has replaced, kept verbatim as the references the
differential tests in ``test_synth_reference.py`` check the new ones against.

The two hand-written tuple-to-prefix adapters ``synth`` had while a sequence
host read a tuple: ``register_guesser``, whose host built a prefix on every
call, and ``mu_prime_host``, with its own cache and with the value check of
the ``Overguesser`` record it was handed then.

``delta2_from_topology`` as it was while it packed i, j and the observed
entries into one ellipsis tuple through the 4-ary selector ``sel``, with the
cell lookup ``TopologySpec`` had then, which read the live tables.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from guessability.lang import Signature
from guessability.oracle import FinitePrefix
from guessability.synth import Delta2Spec, Guesser, TopologySpec, _delta2_from_texts


def register_guesser(sig: Signature, name: str, guesser: Guesser) -> None:
    """Expose a guesser as a sequence-tuple symbol (tuples become prefixes)."""
    sig.register_seq_function(name, lambda t: guesser(FinitePrefix(t)))


def mu_prime_host(overguesser: Callable[[FinitePrefix], int | float]) -> Callable[[tuple[int, ...]], int]:
    """Shifted encoding of an overguesser: finite v maps to v+1, infinity to 0.

    Memoised per prefix tuple; the overguesser is deterministic so the cache
    is transparent.
    """
    cache: dict[tuple[int, ...], int] = {}

    def host(t: tuple[int, ...]) -> int:
        if t not in cache:
            v = overguesser(FinitePrefix(t))
            if not (isinstance(v, int) and not isinstance(v, bool) and v >= 0
                    or v == math.inf):
                raise ValueError(f"overguesser returned {v!r}; values are naturals or math.inf")
            cache[t] = 0 if v == math.inf else v + 1
        return cache[t]

    return host


def lookup(spec: TopologySpec, i: int, j: int) -> FinitePrefix | None:
    """Prefix for the (i, j) cell, or None for an empty contribution; it scans every cell."""
    if (i, j) in spec.table:
        return spec.table[(i, j)]
    if i in frozenset(row for row, _ in spec.table):
        return None
    return spec.default


def _membership_host(spec: TopologySpec) -> Callable[[FinitePrefix], int]:
    def host(t: FinitePrefix) -> int:
        i, j, observed = t[0], t[1], t[2:]
        cell = lookup(spec, i, j)
        if cell is None:
            return 0
        if len(cell) == 0:
            return 1
        return 1 if observed == cell.entries else 0

    return host


def _length_host(spec: TopologySpec) -> Callable[[int, int], int]:
    def host(i: int, j: int) -> int:
        cell = lookup(spec, i, j)
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

    return _delta2_from_texts(f"forall i. exists j. {tuple_term(tau_s, len_s)} = 1",
                              f"exists i. forall j. {tuple_term(tau_c, len_c)} = 0", sig)
