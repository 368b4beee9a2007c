"""Half-open interval unions on [0, 1).

Sets are finite unions of half-open intervals [lo, hi) with float64
endpoints.  All routines normalize (sort, merge, drop empty) so downstream
code can rely on disjoint, ordered pieces.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

Interval = Tuple[float, float]

# Width below which a piece is treated as empty.
_EMPTY = 1e-15


def normalize(pieces: Iterable[Interval]) -> List[Interval]:
    """Sort, merge touching/overlapping pieces and drop empty ones."""
    ps = sorted((float(a), float(b)) for a, b in pieces if b - a > _EMPTY)
    out: List[Interval] = []
    for a, b in ps:
        if out and a <= out[-1][1] + _EMPTY:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def measure(pieces: Iterable[Interval]) -> float:
    return sum(b - a for a, b in pieces)


def intersect(pieces: Iterable[Interval], window: Interval) -> List[Interval]:
    lo, hi = window
    out = []
    for a, b in pieces:
        c, d = max(a, lo), min(b, hi)
        if d - c > _EMPTY:
            out.append((c, d))
    return out


def subtract(pieces: Iterable[Interval], hole: Interval) -> List[Interval]:
    """Remove one interval from a union."""
    lo, hi = hole
    out = []
    for a, b in pieces:
        if b <= lo + _EMPTY or a >= hi - _EMPTY:
            out.append((a, b))
            continue
        if lo - a > _EMPTY:
            out.append((a, lo))
        if b - hi > _EMPTY:
            out.append((hi, b))
    return normalize(out)


def contains_interval(pieces: Iterable[Interval], sub: Interval, tol: float = 0.0) -> bool:
    a, b = sub
    for lo, hi in pieces:
        if a >= lo - tol and b <= hi + tol:
            return True
    return False

