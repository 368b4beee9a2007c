"""Half-open interval unions on [0, 1).

Sets are finite unions of half-open intervals [lo, hi) with float64
endpoints.  All routines normalize (sort, merge, drop empty) so downstream
code can rely on disjoint, ordered pieces.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple, Union

Interval = Tuple[float, float]

# Width below which a piece is treated as empty.
_EMPTY = 1e-15


def normalize(pieces: Union[Interval, Iterable[Interval]]) -> List[Interval]:
    """Sort, merge touching/overlapping pieces and drop empty ones; a lone
    pair (lo, hi) is one piece."""
    if isinstance(pieces, tuple) and len(pieces) == 2 and not isinstance(pieces[0], tuple):
        pieces = [pieces]
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
