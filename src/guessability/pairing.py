"""Diagonal pairing between naturals and pairs of naturals."""

from __future__ import annotations

import math


def decode(n: int) -> tuple[int, int]:
    """The pair at index n of the diagonal enumeration; total on the naturals.

    Pairs are laid out diagonal by diagonal, (0,0), (1,0), (0,1), (2,0),
    (1,1), (0,2), ..., so (a, b) sits at index (a+b)(a+b+1)/2 + b.
    """
    if n < 0:
        raise ValueError("pair codes are naturals")
    w = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return w - b, b


def first(n: int) -> int:
    return decode(n)[0]


def second(n: int) -> int:
    return decode(n)[1]
