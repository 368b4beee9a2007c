"""Greedy maximal-cell decompositions of intervals.

Every set decomposed here is one interval [lo, hi): the image or domain
of a monotone branch, a slice of a cell, or their intersection.  It is
decomposed level by level: at each level all cells contained in the
remaining residual are taken, and the residual shrinks to the fringes
beside the taken run.  This is optimal up to the two boundary fringes,
and the geometric constants of the decomposition have closed forms,
which is why the geometric ratio is pinned to arity**(-alpha) rather
than fitted (two-parameter fits are ill-conditioned).

One array kernel, `cover`, decomposes a batch of intervals at once, reading
them off one (piece x level) table of contained runs [a_k, b_k) from the
grid's one containment rule (Grid.contained_runs).  A piece gives its run
at its first level k0; past k0 its left fringe gives [a_k, m*a_(k-1)) and
its right fringe [m*b_(k-1), b_k), m the arity: the inner end is the
coarser run refined, not the fringe's float edge.  A fringe ends at its
first run leaving 1e-15 or less beside it; an open fringe is defect up to
the float edge of its last run.  Down to grid.max_level this is the
level-by-level loop bit for bit (edge * cell count rounds within the
containment tolerance); cover refuses a deeper depth, where the loop's
float edges leave staircase slivers and cut grids stop nesting.  It
returns the cells as COO arrays (piece, level, index) and the first level
holding a cell; `c_dom` reads the distortion constants off it, adding
level sums in cell order (as Python's sum does) from Python's pows.
`decompose` is the one-interval form with the RegularDecomp result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ResolutionError
from .grid import CellId, Grid, python_pow

# the sign of a run's indices and edges on the left (0) and right (1) side
_SIDE = np.array([1, -1])


class Cover(NamedTuple):
    """Greedy decomposition of a batch of pieces (see cover)."""

    piece: np.ndarray         # cells, ordered by piece, then level, then index
    level: np.ndarray
    index: np.ndarray
    k0: np.ndarray            # per piece: first level holding a cell, -1 if none
    defect_piece: np.ndarray  # residual below the depth, in piece order
    defect_lo: np.ndarray
    defect_hi: np.ndarray


def cover(grid: Grid, lo, hi, depth: int) -> Cover:
    """Greedy maximal-cell decomposition of the pieces [lo[i], hi[i]).

    Level by level down to depth, each residual piece gives up the cells
    contained in it (Grid.contained_runs); the run is snapped to its
    edges, and what lies beside it by more than 1e-15 stays residual.
    What remains below depth is the defect; a depth past grid.max_level
    raises ValueError.

    One pass over a (piece, level, side) table, side 0 the left fringe and
    side 1 the right, each run [outer, inner) held as signed indices: the
    left fringe's from a_k, the right one's from -b_k, so that one
    comparison and one difference serve both sides.
    """
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if depth > grid.max_level:
        raise ValueError(f"cover depth {depth} is past max_level {grid.max_level}")
    n, L = lo.size, depth + 1
    levels = np.arange(L)
    a, b = grid.contained_runs(levels, lo[:, None], hi[:, None])
    outer = np.empty((n, L, 2), dtype=np.int64)
    outer[..., 0], outer[..., 1] = a, -b
    hit = np.ones((n, L + 1), dtype=bool)       # level L: past every level
    np.greater(b, a, out=hit[:, :L])
    first = hit.argmax(axis=1)                  # L where the piece holds no cell
    after = levels > first[:, None]
    # both sides hold the first run; past its level a fringe's run ends at
    # the coarser run refined
    inner = -outer[..., ::-1]
    np.copyto(inner[:, 1:], grid.arity * outer[:, :-1], where=after[:, 1:, None])
    run = inner > outer
    edge = grid.edge(levels[:, None], outer * _SIDE)
    # a fringe ends at its first run that leaves 1e-15 or less beside it
    snap = np.ones((n, L + 1, 2), dtype=bool)
    np.less_equal(edge[..., 0] - lo[:, None], 1e-15, out=snap[:, :L, 0])
    np.less_equal(hi[:, None] - edge[..., 1], 1e-15, out=snap[:, :L, 1])
    snap[:, :L] &= run
    stop = snap.argmax(axis=1)                  # L where the fringe stays open
    emit = run & (levels[:, None] <= stop[:, None])
    emit[..., 1] &= after                       # the first run once, on side 0
    at = emit.ravel().nonzero()[0]
    o, i = outer.ravel()[at], inner.ravel()[at]
    count = i - o
    piece = (at // (2 * L)).repeat(count)
    index = np.arange(piece.size) - (count.cumsum() - count - np.where(at & 1, -i, o)).repeat(count)
    # an open fringe is defect up to the edge of its last run; a piece
    # holding no cell is defect whole
    keep = stop == L
    keep[:, 1] &= first < L
    d_piece, side = keep.nonzero()
    e = edge[d_piece, L - 1 - run[d_piece, ::-1, side].argmax(axis=1), side]
    left = side == 0
    return Cover(piece, (at // 2 % L).repeat(count), index, np.where(first < L, first, -1),
                 d_piece, np.where(left, lo[d_piece], e),
                 np.where(left & (first[d_piece] < L), e, hi[d_piece]))


def c_dom(grid: Grid, cov: Cover, lo, hi, alpha: float) -> np.ndarray:
    """Per piece [lo[i], hi[i]) that cov decomposes, its distortion
    constant: the largest level sum of |P|**alpha over
    lambda**(k - k0) * |piece|**alpha, lambda = arity**(-alpha); 0 for a
    piece holding no cell.

    The level sums add in cell order (np.add.at adds one value at a time),
    as Python's sum does, where numpy's sums add pairwise.
    """
    n = grid.max_level + 1                  # past every level of a cover
    key = cov.piece * n + cov.level         # nondecreasing: cells come in this order
    run = np.ones(key.size, dtype=bool)
    run[1:] = key[1:] != key[:-1]
    level_sum = np.zeros(int(run.sum()))
    np.add.at(level_sum, np.cumsum(run) - 1, grid.measure_powers(cov.level, cov.index, alpha))
    p, lev = cov.piece[run], cov.level[run]
    lam = grid.arity ** (-alpha)
    lam_pow = np.array([lam ** d for d in range(n)])
    size = python_pow(np.ravel(hi) - np.ravel(lo), alpha)
    out = np.zeros(cov.k0.size)
    np.maximum.at(out, p, level_sum / (lam_pow[lev - cov.k0[p]] * size[p]))
    return out


@dataclass
class RegularDecomp:
    """Disjoint cell families covering a target set, with measured constants."""

    alpha: float
    families: Dict[int, List[CellId]]
    k0: int
    c_dom: float
    lambda_dom: float
    defect_pieces: List[Tuple[float, float]]
    defect_measure: float

    def all_cells(self) -> List[CellId]:
        return [c for cells in self.families.values() for c in cells]

    def covered_measure(self, grid: Grid) -> float:
        return sum(grid.measure(c) for c in self.all_cells())

    def level_sum(self, grid: Grid, k: int) -> float:
        return sum(grid.measure(c) ** self.alpha for c in self.families.get(k, []))


def decompose(grid: Grid, interval: Tuple[float, float], alpha: float,
              defect_cap: Optional[float] = None) -> RegularDecomp:
    """Greedy maximal-cell decomposition of the interval (lo, hi).

    The residual left below grid.max_level, at most the two boundary
    fringes, is returned as defect pieces.  A ResolutionError is raised
    only when the defect exceeds both the relative cap and the structural
    boundary-fringe allowance (an interval with endpoints off the grid
    always leaves up to one sub-cell sliver per endpoint).
    """
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    lo, hi = (float(e) for e in interval)
    total = hi - lo
    if total <= 1e-15:
        raise ValueError("target set has zero measure")
    K = grid.max_level
    cov = cover(grid, [lo], [hi], K)
    families: Dict[int, List[CellId]] = {}
    for k, j in zip(cov.level.tolist(), cov.index.tolist()):
        families.setdefault(k, []).append(CellId(k, j))
    defect = list(zip(cov.defect_lo.tolist(), cov.defect_hi.tolist()))
    defect_measure = sum(b - a for a, b in defect)
    cap = 1e-9 * total if defect_cap is None else defect_cap
    w_bot = grid.width_range(K)[1]
    if defect_measure > cap and defect_measure > 2.0 * w_bot * (1 + 1e-9):
        raise ResolutionError(f"residual measure {defect_measure:.3e} exceeds cap "
                              f"at level {K}")
    k0 = int(cov.k0[0])
    if k0 < 0:
        # a sliver thinner than one bottom-level cell decomposes to defect
        # only; anything larger that produced no cell is a real failure
        if total > 2 * w_bot:
            raise ResolutionError("no cell of any level fits inside the target set")
        k0 = K

    return RegularDecomp(alpha=alpha, families=families, k0=k0,
                         c_dom=float(c_dom(grid, cov, [lo], [hi], alpha)[0]),
                         lambda_dom=grid.arity ** (-alpha),
                         defect_pieces=defect, defect_measure=defect_measure)


@dataclass
class StrongRegularityReport:
    """Uniform decomposition cost of the set relative to every probing cell."""

    c_strong: float
    worst_cell: Optional[CellId]
    max_rel_defect: float
    cells_probed: int


def _candidate_cells(grid: Grid, sets: Sequence[Tuple[float, float]],
                     t: int, K: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cells whose intersection with a set can be nontrivial, as
    (set, level, index) arrays.

    A cell fully inside the set decomposes as itself (ratio 1) and a cell
    disjoint from it is skipped, so only cells containing an end of the
    set matter, plus every cell containing the whole set.  Both kinds
    contain an end.  Per set, level by level from t to K, the cells on
    either side of each end come in the order of a Python set of the ends,
    each cell once.
    """
    ends = [list({float(lo), float(hi)}) for lo, hi in sets]
    tgt = np.repeat(np.arange(len(ends)), [len(e) for e in ends])
    x = np.array([e for es in ends for e in es], dtype=float)
    levels = np.arange(t, K + 1)
    end, lev, side = np.indices((x.size, levels.size, 2)).reshape(3, -1)
    order = np.lexsort((side, end, lev, tgt[end]))
    end, k, side = end[order], levels[lev[order]], side[order]
    j = grid.cell_index(k, x[end]) - 1 + side
    valid = (j >= 0) & (j < grid.arity ** k)
    cells = np.stack([tgt[end], k, j])[:, valid]
    first = np.sort(np.unique(cells, axis=1, return_index=True)[1])
    return cells[0, first], cells[1, first], cells[2, first]


def strong_regularities(grid: Grid, sets: Sequence[Tuple[float, float]], alpha: float,
                        t: int = 0, include_defect_cells: bool = True
                        ) -> List[StrongRegularityReport]:
    """Measure, for each interval (lo, hi) of sets, sup over probing cells
    Q of the decomposition cost of Q * set.

    The cost of one cell is the sum over all levels and all decomposition
    cells P of (|P|/|Q|)**alpha, capped at max_level; residual slivers are
    conservatively counted as whole bottom-level cells so downstream
    certificates cover truncation re-aggregation.  The intervals Q * set
    of all candidate cells of all sets are decomposed in one `cover` call.
    """
    K = grid.max_level
    # cut bottom cells differ in width: residual cells are counted with the
    # narrowest and charged with the widest
    w_lo, w_hi = grid.width_range(K)
    c_set, c_level, c_index = _candidate_cells(grid, sets, t, K)
    q_lo, q_hi, q_meas = grid.extents(c_level, c_index)
    s_lo, s_hi = np.reshape(np.asarray(sets, dtype=float), (-1, 2)).T
    lo, hi = np.maximum(s_lo[c_set], q_lo), np.minimum(s_hi[c_set], q_hi)
    inter = hi - lo
    # a Q disjoint from the set is skipped, and a Q inside it costs exactly 1
    probed = np.flatnonzero((inter > 1e-15) & (inter < q_meas * (1 - 1e-12)))
    inter = inter[probed]
    dec = cover(grid, lo[probed], hi[probed], K)
    cost = np.zeros(probed.size)
    np.add.at(cost, dec.piece, grid.measure_powers(dec.level, dec.index, alpha))
    defect = np.zeros(probed.size)
    np.add.at(defect, dec.defect_piece, dec.defect_hi - dec.defect_lo)
    if include_defect_cells:
        n_res_cells = np.zeros(probed.size, dtype=np.int64)
        np.add.at(n_res_cells, dec.defect_piece,
                  np.ceil((dec.defect_hi - dec.defect_lo) / w_lo).astype(np.int64) + 1)
        cost += n_res_cells * w_hi ** alpha
    ratio = cost / grid.measure_powers(c_level[probed], c_index[probed], alpha)
    rel_defect = defect / np.maximum(inter, 1e-300)
    # the probed cells of a set are a run of probed
    bounds = np.searchsorted(c_set[probed], np.arange(len(sets) + 1))
    reports = []
    for i0, i1 in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        c_strong, worst = 1.0, None
        if i1 > i0 and ratio[i0:i1].max() > 1.0:
            c = probed[i0 + ratio[i0:i1].argmax()]
            c_strong, worst = float(ratio[i0:i1].max()), CellId(int(c_level[c]), int(c_index[c]))
        reports.append(StrongRegularityReport(
            c_strong=c_strong, worst_cell=worst,
            max_rel_defect=float(np.max(rel_defect[i0:i1], initial=0.0)),
            cells_probed=i1 - i0))
    return reports
