"""Nested m-adic grids on ([0, 1), Lebesgue).

The grid at level k partitions [0, 1) into arity**k half-open cells.  All
levels are uniform except possibly the bottom one (max_level): there the
two children of a cell at level max_level - 1 that contains a point where
the density of the configured map can jump meet at that point instead of
at their nominal edge (see Grid.with_cuts).  Cell counts, indices and
parent/child relations are those of the uniform grid, and every level is
still a refinement of the one above, so the nesting/measure axioms hold
exactly; the child/parent measure ratio is 1/arity except at the cut
cells, where it stays within [1/(2*arity), 1 - 1/(2*arity)].  The grid
constant ledger is read from the actual ratios.

A point whose cut would leave a child narrower than half a nominal cell
is not cut, so whether a breakpoint becomes a cell edge depends on where
it falls at the given max_level (1/phi is cut on dyadic grids with
max_level 7, 10, 12 or 13, not 9, 11 or 14).  At an uncut breakpoint the
bottom cell straddles the jump and the density carries the bias of
Ulam's method there.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import CapacityError

# Containment tolerance in units of one cell width.  Endpoints produced by
# branch arithmetic carry O(1e-16) float noise which at deep levels is
# comparable to many ulps of the scaled coordinate; 1e-9 cell widths is far
# below any geometric feature of the supported maps.
CONTAIN_TOL = 1e-9
# build_grid refuses a grid with more bottom cells than this
CELL_BUDGET = 2_000_000


class CellId(NamedTuple):
    """Address of a grid cell: (level k, index j) with 0 <= j < arity**k."""

    level: int
    index: int

    def __str__(self) -> str:
        return f"{self.level}:{self.index}"


@dataclass(frozen=True)
class Grid:
    arity: int
    max_level: int
    # Cells removed for validation exercises; construction never sets this.
    missing: frozenset = frozenset()
    # Moved bottom-level edges as sorted (edge index, position) pairs: edge
    # i of level max_level sits at the position instead of at i * width.
    cuts: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError("arity must be >= 2")
        if self.max_level < 1:
            raise ValueError("max_level must be >= 1")

    # -- geometry ----------------------------------------------------------

    def n_cells(self, level: int) -> int:
        return self.arity ** level

    def cell_counts(self, level) -> np.ndarray:
        """Array form of n_cells as floats, each count rounded once from the
        exact integer, so deep levels of any arity do not overflow."""
        return self._levels[0][level]

    def width(self, level: int) -> float:
        """Nominal cell width arity**-level (the actual one off the cuts)."""
        return float(self.arity) ** (-level)

    def nominal_widths(self, level) -> np.ndarray:
        """Array form of width: the nominal width of each level given."""
        return self._levels[1][level]

    @cached_property
    def _levels(self) -> Tuple[np.ndarray, np.ndarray]:
        """(cell counts as floats, nominal widths) of the levels 0 to
        max_level + 16, the deepest any probe reads, from n_cells and width."""
        levels = range(self.max_level + 17)
        return (np.array([float(self.n_cells(k)) for k in levels]),
                np.array([self.width(k) for k in levels]))

    def is_cut(self, level: int) -> bool:
        """Whether some cell of this level is cut away from its nominal edges."""
        return level == self.max_level and bool(self.cuts)

    @cached_property
    def _cut_edges(self) -> np.ndarray:
        edges = np.arange(self.n_cells(self.max_level) + 1) * self.width(self.max_level)
        for i, x in self.cuts:
            edges[i] = x
        edges.flags.writeable = False
        return edges

    def edge(self, level, i) -> np.ndarray:
        """Left edges of the cells (level, i), index arrays that broadcast;
        i = n_cells gives 1."""
        e = i * self.nominal_widths(level)
        cut = np.asarray(level) == self.max_level
        if self.cuts and cut.any():
            e = np.where(cut, self._cut_edges[np.where(cut, i, 0)], e)
        return e

    def edges(self, level: int) -> np.ndarray:
        if self.is_cut(level):
            return self._cut_edges
        return np.arange(self.n_cells(level) + 1) * self.width(level)

    @cached_property
    def _cut_level_widths(self) -> np.ndarray:
        ws = np.diff(self._cut_edges)
        ws.flags.writeable = False
        return ws

    @cached_property
    def _cut_width_range(self) -> Tuple[float, float]:
        return float(self._cut_level_widths.min()), float(self._cut_level_widths.max())

    def width_range(self, level: int) -> Tuple[float, float]:
        """Narrowest and widest cell width of a level."""
        if self.is_cut(level):
            return self._cut_width_range
        return self.width(level), self.width(level)

    def widths(self, level: int) -> np.ndarray:
        if self.is_cut(level):
            return self._cut_level_widths
        return np.full(self.n_cells(level), self.width(level))

    def measure(self, cell: CellId) -> float:
        if self.cuts and cell.level == self.max_level:
            lo, hi = self.interval(cell)
            return hi - lo
        return self.width(cell.level)

    def interval(self, cell: CellId) -> Tuple[float, float]:
        if self.cuts and cell.level == self.max_level:
            return tuple(self._cut_edges[cell.index:cell.index + 2].tolist())
        w = self.width(cell.level)
        return (cell.index * w, (cell.index + 1) * w)

    def parent(self, cell: CellId) -> CellId:
        if cell.level == 0:
            raise ValueError("root cell has no parent")
        return CellId(cell.level - 1, cell.index // self.arity)

    def contained_runs(self, level, lo, hi) -> Tuple[np.ndarray, np.ndarray]:
        """Indices [i0, i1) of the cells of a level contained in [lo, hi), an
        empty run (i0 >= i1) where none fits: the one rule that decides
        containment.

        level, lo and hi broadcast (a column of pieces against a row of
        levels gives the runs of every piece at every level).  Containment
        is judged up to CONTAIN_TOL cell widths: the run is
        [ceil(lo*N - tol), floor(hi*N + tol)) with N cells on the level,
        found by bisecting the actual edges on a cut level.  The indices
        are int64, so no level may hold 2**62 cells or more.
        """
        deepest = level if isinstance(level, int) else int(np.max(level, initial=0))
        if self.n_cells(deepest) >= 2 ** 62:
            raise ValueError(f"cell indices of level {deepest} overflow int64")
        i0, i1 = self._runs(level, lo, hi)
        return i0.astype(np.int64), i1.astype(np.int64)

    def _runs(self, level, lo, hi) -> Tuple[np.ndarray, np.ndarray]:
        """contained_runs with the indices as floats, on any level."""
        n = self.cell_counts(level)
        i0 = np.ceil(lo * n - CONTAIN_TOL)
        i1 = np.floor(hi * n + CONTAIN_TOL)
        cut = np.asarray(level) == self.max_level
        if self.cuts and cut.any():
            tol = CONTAIN_TOL * self.width(self.max_level)
            i0 = np.where(cut, np.searchsorted(self._cut_edges, lo - tol, side="left"), i0)
            i1 = np.where(cut, np.searchsorted(self._cut_edges, hi + tol, side="right") - 1, i1)
        return np.maximum(i0, 0), np.minimum(i1, n)

    def containment_levels(self, lo, hi, up_to: int) -> np.ndarray:
        """Per piece [lo[i], hi[i]), the first level up to up_to at which a
        cell is contained in it (-1 where none is); any depth."""
        i0, i1 = self._runs(np.arange(up_to + 1), np.reshape(lo, (-1, 1)),
                            np.reshape(hi, (-1, 1)))
        hit = i1 > i0
        return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)

    def extents(self, level, j) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Array form of interval and measure: (lo, hi, |cell|) of the cells
        (level[i], j[i]), equal to theirs bit for bit; level and j broadcast."""
        level, j = np.broadcast_arrays(level, j)
        w = self.nominal_widths(level)
        if self.cuts:
            cut = level == self.max_level
            w = np.where(cut, self._cut_level_widths[np.where(cut, j, 0)], w)
        return self.edge(level, j), self.edge(level, j + 1), w

    def cell_index(self, level, x) -> np.ndarray:
        """Per x, the index of the cell of the level holding it, unclipped
        (n_cells for x at or past 1); level and x broadcast."""
        level, x = np.broadcast_arrays(level, x)
        j = np.trunc(x * self.cell_counts(level)).astype(np.int64)
        if self.cuts:
            cut = level == self.max_level
            if cut.any():
                j = np.asarray(j)     # 0-d for a scalar level and x
                j[cut] = np.searchsorted(self._cut_edges, x[cut], side="right") - 1
                j = j[()]             # and back to a scalar, as on an uncut level
        return j

    def overlaps(self, level: int, lo, hi) -> Tuple[np.ndarray, ...]:
        """Cells of a level meeting the pieces [lo[i], hi[i]) as COO arrays.

        lo and hi are arrays of piece ends, or scalars for a single piece.
        Returns (piece, j, a, b, |cell j|), one entry per nonempty overlap
        [a, b) of cell j with piece i, ordered by piece and then by cell.
        An upper end within 1e-12 nominal widths past a cell edge does not
        reach into the next cell; empty and reversed pieces meet no cell.
        """
        lo, hi = (np.ravel(x).astype(float) for x in np.broadcast_arrays(lo, hi))
        n = self.n_cells(level)
        w = self.width(level)
        edges = self.edges(level)
        if self.is_cut(level):
            j0 = np.searchsorted(edges, lo, side="right") - 1
            j1 = np.searchsorted(edges, hi - 1e-12 * w, side="left")
        else:
            j0 = (lo / w).astype(np.int64)
            j1 = np.ceil(hi / w - 1e-12).astype(np.int64)
        j0 = np.maximum(j0, 0)
        count = np.maximum(np.minimum(j1, n) - j0, 0)
        piece = np.repeat(np.arange(lo.size), count)
        start = np.cumsum(count) - count
        j = np.arange(piece.size) - np.repeat(start - j0, count)
        a = np.maximum(edges[j], lo[piece])
        b = np.minimum(edges[j + 1], hi[piece])
        keep = b > a
        return piece[keep], j[keep], a[keep], b[keep], self.widths(level)[j[keep]]

    def integrate(self, level: int, values: np.ndarray,
                  select: Optional[np.ndarray] = None):
        """Integral of the function equal to values[j] on cell j.

        `select` (a mask or index array) restricts the integral to some
        cells.
        """
        if self.is_cut(level):
            wts = self.widths(level)
            if select is not None:
                values, wts = values[select], wts[select]
            return np.sum(values * wts)
        if select is not None:
            values = values[select]
        return np.sum(values) * self.width(level)

    # -- cuts ----------------------------------------------------------------

    def with_cuts(self, points: Iterable[float]) -> "Grid":
        """The grid whose bottom cells are cut at the given points.

        Each point moves the child edge nearest to it inside its parent
        cell at level max_level - 1 (for a dyadic grid: the two children
        meet at the point instead of at the midpoint).  Points are taken
        in order and a parent is moved at most once; a point on a
        bottom-level edge, or one whose cut would leave a child narrower
        than half a nominal cell (child/parent ratio below 1/(2*arity)),
        is passed over.  Cuts of the receiving grid are discarded first.
        """
        m, K = self.arity, self.max_level
        n_par = self.n_cells(K - 1)
        moved: Dict[int, float] = {}
        taken = set()
        for x in points:
            pos = x * n_par
            pj = int(math.floor(pos))
            if not 0 <= pj < n_par or pj in taken:
                continue
            frac = pos - pj
            e = min(max(int(round(frac * m)), 1), m - 1)
            if abs(frac * m - round(frac * m)) <= CONTAIN_TOL:
                continue
            if min(frac - (e - 1) / m, (e + 1) / m - frac) < 1.0 / (2 * m):
                continue
            taken.add(pj)
            moved[pj * m + e] = float(x)
        cuts = tuple(sorted(moved.items()))
        return self if cuts == self.cuts else dataclasses.replace(self, cuts=cuts)

    def child_ratios(self, level: int) -> Tuple[float, float]:
        """Smallest and largest child/parent measure ratio into a level."""
        if self.is_cut(level):
            w_lo, w_hi = self.width_range(level)
            parent = self.width(level - 1)
            return w_lo / parent, w_hi / parent
        return 1.0 / self.arity, 1.0 / self.arity

    # -- constant ledger (read from the actual child/parent ratios) ----------

    @property
    def c_g1(self) -> float:
        """Lower bound of the child/parent measure ratio."""
        return self.child_ratios(self.max_level)[0]

    @property
    def c_g2(self) -> float:
        """Upper bound of the child/parent measure ratio."""
        return self.child_ratios(self.max_level)[1]


def build_grid(arity: int, max_level: int) -> Grid:
    """Construct the uniform m-adic grid, checking the cell budget."""
    grid = Grid(arity=arity, max_level=max_level)
    if arity ** max_level > CELL_BUDGET:
        raise CapacityError(
            f"arity**max_level = {arity}**{max_level} exceeds cell budget {CELL_BUDGET}"
        )
    return grid


# -- axiom validation -------------------------------------------------------


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom pass/fail plus the measured constants."""

    overlap_bound: int              # most cells of one level sharing a point
    measure_sum_dev: float          # max_k |sum of level-k measures - 1|
    ratio_min: float
    ratio_max: float
    resolution_note: str
    g1_pass: bool
    g2_pass: bool
    g3_pass: bool
    g4_pass: bool
    g5_pass: bool
    g6_pass: bool

    @property
    def all_pass(self) -> bool:
        return all(
            (self.g1_pass, self.g2_pass, self.g3_pass,
             self.g4_pass, self.g5_pass, self.g6_pass)
        )

    def as_dict(self) -> Dict:
        return {
            "G1": {"pass": self.g1_pass, "overlap_bound": self.overlap_bound},
            "G2": {"pass": self.g2_pass},
            "G3": {"pass": self.g3_pass, "max_sum_deviation": self.measure_sum_dev},
            "G4": {"pass": self.g4_pass},
            "G5": {"pass": self.g5_pass},
            "G6": {"pass": self.g6_pass, "ratio_min": self.ratio_min,
                   "ratio_max": self.ratio_max},
            "G7": {"note": self.resolution_note},
        }


def _coverage(lo: np.ndarray, hi: np.ndarray, tol: float) -> Tuple[int, bool]:
    """(most of the cells [lo, hi) sharing a point, whether they cover
    [0, 1) with no uncovered stretch longer than tol)."""
    lo, hi = lo[hi > lo], hi[hi > lo]
    points = np.unique(np.concatenate([lo, hi, [0.0, 1.0]]))
    x, stretch = points[:-1], np.diff(points)
    # the cells holding x[i] hold the stretch [x[i], x[i + 1]) too
    depth = (np.searchsorted(np.sort(lo), x, side="right")
             - np.searchsorted(np.sort(hi), x, side="right"))
    gap = (depth == 0) & (x >= 0.0) & (x < 1.0) & (stretch > tol)
    return int(depth.max(initial=0)), not gap.any()


def validate_grid(grid: Grid) -> AxiomReport:
    """Check the nesting/measure axioms level by level.

    Sigma-algebra generation cannot be checked at finite resolution; the
    report carries the honest finite surrogate (resolution completeness up
    to max_level) as a note.
    """
    m = grid.arity
    dev, overlap = 0.0, 0
    ratio_min, ratio_max = math.inf, -math.inf
    gapless = disjoint = nested = True
    for k in range(grid.max_level + 1):
        n = grid.n_cells(k)
        gone = [c.index for c in grid.missing if c.level == k]
        edges = grid.edges(k)
        if grid.is_cut(k):
            total = float(np.sum(np.delete(grid.widths(k), gone)))
            disjoint = disjoint and bool(np.all(np.diff(edges) > 0))
        else:
            total = (n - len(gone)) * grid.width(k)
        dev = max(dev, abs(total - 1.0))
        depth, covered = _coverage(np.delete(edges[:-1], gone), np.delete(edges[1:], gone),
                                   CONTAIN_TOL * grid.width(k))
        overlap, gapless = max(overlap, depth), gapless and covered
        if k > 0:
            r_lo, r_hi = grid.child_ratios(k)
            ratio_min = min(ratio_min, r_lo)
            ratio_max = max(ratio_max, r_hi)
        # Indexed cells are disjoint and nested by construction; verify the
        # index invariants on a sample, and on every cut cell, rather than
        # trusting them.
        if k > 0:
            sample = {0, n // 2, n - 1}
            if grid.is_cut(k):
                sample |= {j for i, _ in grid.cuts for j in (i - 1, i)}
            for j in sorted(sample):
                cell = CellId(k, j)
                lo, hi = grid.interval(cell)
                plo, phi = grid.interval(grid.parent(cell))
                # edges of different levels agree only to rounding
                # (j * 3**-k against (j // 3) * 3**-(k-1), say)
                if not (plo <= lo + 1e-15 and hi <= phi + 1e-15):
                    nested = False
    return AxiomReport(
        overlap_bound=overlap,
        measure_sum_dev=dev,
        ratio_min=ratio_min,
        ratio_max=ratio_max,
        resolution_note=(
            f"generates the Borel sigma-algebra up to resolution {grid.max_level} "
            "(finite surrogate)"
        ),
        g1_pass=overlap <= 1,
        g2_pass=gapless,
        g3_pass=dev <= 1e-12,
        g4_pass=disjoint,
        g5_pass=nested,
        # cuts keep every child at least half a nominal child wide
        g6_pass=math.isfinite(ratio_min) and ratio_min >= 1.0 / (2 * m),
    )


def python_pow(x: np.ndarray, e: float) -> np.ndarray:
    """x ** e elementwise with Python's pow, one call per distinct value.

    numpy's vectorized pow differs from Python's in the last bit on about
    5% of inputs; the sums and ratios that reach the ledger are built from
    Python's.
    """
    u, inv = np.unique(x, return_inverse=True)
    return np.array([v ** e for v in u.tolist()], dtype=float)[inv.ravel()].reshape(np.shape(x))
