"""Bitmask helpers for element sets: bit i of a mask means element i."""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

# _BYTE_BITS[b] lists the set bits of the byte b in ascending order
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def mask_of(items: Iterable[int]) -> int:
    m = 0
    for x in items:
        m |= 1 << x
    return m


@lru_cache(maxsize=None)
def bit_tuple(n: int) -> tuple[int, ...]:
    """``1 << x`` for every x in 0..n-1, built once per order n."""
    return tuple(1 << x for x in range(n))


def element_mask(n: int, items: Iterable[int]) -> int:
    """The mask of ``items``; :class:`ValueError` names the first item that
    is not an int in 0..n-1. Each bit is read from :func:`bit_tuple` after
    an ``x >= 0`` test, and nothing is cast: a str fails the comparison, a
    float fails it (NaN) or the tuple index, an int from n on fails the
    index, however large, and a bool counts as 0 or 1."""
    bit = bit_tuple(n)
    m = 0
    for x in items:
        try:
            if x >= 0:
                m |= bit[x]
                continue
        except (TypeError, IndexError):
            pass
        raise ValueError(f"element {x!r} is not an int in 0..{n - 1}")
    return m


def bits(mask: int) -> list[int]:
    """The set bits of a mask in ascending order, one byte at a time."""
    out = []
    base = 0
    while mask:
        byte = mask & 255
        if byte:
            for i in _BYTE_BITS[byte]:
                out.append(base + i)
        mask >>= 8
        base += 8
    return out


def elems(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


def perm_mask(perm, mask: int) -> int:
    """Image of a set under a permutation given as an index array. The
    mask is read one byte at a time, as :func:`bits` reads it, into no list."""
    m = base = 0
    while mask:
        for i in _BYTE_BITS[mask & 255]:
            m |= 1 << perm[base + i]
        mask >>= 8
        base += 8
    return m


def fmt_set(items: Iterable[int]) -> str:
    return "{" + ",".join(str(x) for x in sorted(items)) + "}"
