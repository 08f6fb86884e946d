"""The two hand-written tuple-to-prefix adapters ``synth`` had while a sequence
host read a tuple: ``register_guesser``, whose host built a prefix on every
call, and ``mu_prime_host``, with its own cache.  Kept verbatim as the
reference the differential test in ``test_synth_reference.py`` checks the
hosts that read prefix views against.
"""

from __future__ import annotations

from collections.abc import Callable

from guessability.lang import Signature
from guessability.oracle import FinitePrefix
from guessability.synth import Guesser, Overguesser


def register_guesser(sig: Signature, name: str, guesser: Guesser) -> None:
    """Expose a guesser as a sequence-tuple symbol (tuples become prefixes)."""
    sig.register_seq_function(name, lambda t: guesser(FinitePrefix(t)))


def mu_prime_host(overguesser: Overguesser) -> Callable[[tuple[int, ...]], int]:
    """Shifted encoding of an overguesser: finite v maps to v+1, infinity to 0.

    Memoised per prefix tuple; the overguesser is deterministic so the cache
    is transparent.
    """
    cache: dict[tuple[int, ...], int] = {}

    def host(t: tuple[int, ...]) -> int:
        if t not in cache:
            v = overguesser(FinitePrefix(t))
            cache[t] = 0 if v.is_infinite else v.value + 1
        return cache[t]

    return host
