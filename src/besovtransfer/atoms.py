"""Atomic representations and coefficient norms.

A function is represented as f = sum over cells Q of d_Q * a_Q where the
atom a_Q equals |Q|**(s - 1/p) on Q and 0 elsewhere.  The coefficient norm
is the l^q-over-levels of the l^p-over-cells of the |d_Q|; it upper-bounds
the space norm, which is an infimum over representations.

Working-resolution functions are cell averages at level K (PiecewiseFn),
on which all transforms here are exact: the martingale-difference
construction telescopes to the cell values, so canonical_rep followed by
evaluate is the identity.  Cells of a cut bottom level (see grid.py) enter
every height, average and integral with their actual measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import AtomBudgetError, NormOverflowError, ParamsError
from .grid import CellId, Grid, python_pow

INF = math.inf


# -- parameters --------------------------------------------------------------


@dataclass(frozen=True)
class BesovParams:
    """Exponent box for the atomic scale.

    s is the smoothness, p the integrability, q the level summability,
    beta an auxiliary (finer) smoothness used for atom budgets, eps the
    scaling-control exponent, delta the integrability slack, gamma the
    interpolation weight in the level-convolution constant.
    """

    s: float = 0.4
    p: float = 2.0
    q: float = 2.0
    beta: float = 0.45
    eps: float = 0.1
    delta: float = 0.05
    gamma: float = 0.5

    def validate(self) -> None:
        """Enforce the exponent box; raised violations name the inequality.

        Construction does not validate: atom arithmetic is meaningful for
        any exponents (s = 1/p gives indicator atoms, say); the box is
        required wherever the operator machinery is invoked.
        """
        if not (self.s + self.eps > 0):
            raise ParamsError("violated: 0 < s+ε ≤ 1/p (need s+ε > 0)")
        if self.s + self.eps > 1.0 / self.p + 1e-15:
            raise ParamsError("violated: 0 < s+ε ≤ 1/p")
        if not (self.s < self.beta < 1.0 / self.p):
            raise ParamsError("violated: s < β < 1/p")
        if not (0 < self.delta < max(self.s, self.eps)):
            raise ParamsError("violated: 0 < δ < max(s, ε)")
        if not (0 <= self.gamma <= 1):
            raise ParamsError("violated: γ ∈ [0,1]")
        if self.p < 1 or (self.q < 1 and self.q != INF):
            raise ParamsError("violated: p ≥ 1 and q ≥ 1")

    @property
    def t0(self) -> float:
        """Derived integrability exponent p / (1 - s p + delta p)."""
        return self.p / (1.0 - self.s * self.p + self.delta * self.p)

    @property
    def theta(self) -> float:
        """Atom scaling exponent 1/p - s (> 0 in the admissible box)."""
        return 1.0 / self.p - self.s

    @property
    def theta_beta(self) -> float:
        """Atom scaling exponent of the beta scale, 1/p - beta."""
        return 1.0 / self.p - self.beta


# -- working-resolution functions --------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


@dataclass
class PiecewiseFn:
    """Function constant on the level-K cells, stored as cell averages."""

    grid: Grid
    level: int
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n_cells(self.level)
        self.values = np.asarray(self.values)
        if self.values.shape != (n,):
            raise ValueError(f"expected {n} cell values, got {self.values.shape}")

    @classmethod
    def from_function(cls, grid: Grid, level: int,
                      fn: Callable[[np.ndarray], np.ndarray]) -> "PiecewiseFn":
        """Cell averages of fn via 5-point Gauss-Legendre."""
        w, left = grid.widths(level), grid.edges(level)[:-1]
        vals = np.zeros(grid.n_cells(level), dtype=np.complex128)
        for x, wt in zip(_GL_NODES, _GL_WEIGHTS):
            vals += wt * np.asarray(fn(left + (x + 1) * w / 2))
        vals *= 0.5
        if np.max(np.abs(vals.imag), initial=0.0) == 0.0:
            vals = vals.real
        return cls(grid, level, vals)

    @classmethod
    def constant(cls, grid: Grid, level: int, value: complex) -> "PiecewiseFn":
        dtype = np.complex128 if isinstance(value, complex) and value.imag else np.float64
        return cls(grid, level, np.full(grid.n_cells(level), value, dtype=dtype))

    def integral(self) -> complex:
        return self.grid.integrate(self.level, self.values)

    def lp_norm(self, t: float) -> float:
        """Exact L^t norm, t in [1, inf]."""
        if t < 1:
            raise ValueError("t must be >= 1")
        a = np.abs(self.values)
        if t == INF:
            return float(a.max(initial=0.0))
        return float(self.grid.integrate(self.level, a ** t) ** (1.0 / t))

    def _values_of(self, other):
        """other's cell values, refusing a function on other cells."""
        if not isinstance(other, PiecewiseFn):
            return other
        if other.grid != self.grid or other.level != self.level:
            raise ValueError(f"level {other.level} of {other.grid} is not level "
                             f"{self.level} of {self.grid}")
        return other.values

    def __mul__(self, other):
        return PiecewiseFn(self.grid, self.level, self.values * self._values_of(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return PiecewiseFn(self.grid, self.level, self.values + self._values_of(other))

    def to_csv(self) -> str:
        """One row (cell midpoint, value) per cell: 0.5 * (lo + hi) on cut
        cells, (j + 0.5) * width elsewhere."""
        grid, k = self.grid, self.level
        e = grid.edges(k)
        mid = (np.arange(e.size - 1) + 0.5) * grid.width(k)
        if grid.is_cut(k):
            mid = 0.5 * (e[:-1] + e[1:])
        if np.iscomplexobj(self.values) and self.values.imag.any():
            values = self.values.astype(complex).tolist()
        else:
            values = np.real(self.values).astype(float).tolist()
        return "midpoint,value\n" + "".join([f"{x!r},{v!r}\n"
                                              for x, v in zip(mid.tolist(), values)])


# -- atomic representations ---------------------------------------------------


@dataclass
class AtomicRep:
    """Sparse atom expansion, plus positivity tracking.

    index holds basis indices (level offsets up to grid.max_level), each
    once, and value their coefficients; coeffs is the CellId view.
    """

    params: BesovParams
    grid: Grid
    index: np.ndarray
    value: np.ndarray
    positive_flag: bool = False
    meta: Dict = field(default_factory=dict)

    @classmethod
    def from_cells(cls, params: BesovParams, grid: Grid, mapping: Dict[CellId, complex],
                   positive_flag: bool = False) -> "AtomicRep":
        """The expansion with the coefficients of a cell mapping, in its order."""
        for c in mapping:
            if not (0 <= c.level <= grid.max_level and 0 <= c.index < grid.n_cells(c.level)):
                raise ValueError(f"cell {c} is off the grid (levels 0..{grid.max_level})")
        off = level_offsets(grid, grid.max_level)
        index = np.array([off[c.level] + c.index for c in mapping], dtype=np.int64)
        value = np.array(list(mapping.values()))
        return cls(params, grid, index, value.astype(np.result_type(value, float)), positive_flag)

    @property
    def coeffs(self) -> Dict[CellId, complex]:
        """cell -> coefficient, in entry order."""
        level, j = self.cells()
        return dict(zip(map(CellId, level.tolist(), j.tolist()), self.value.tolist()))

    def cells(self) -> Tuple[np.ndarray, np.ndarray]:
        """(level, index within the level) of every entry."""
        return basis_cells(self.grid, self.index)

    def scaled(self, alpha: complex) -> "AtomicRep":
        pos = self.positive_flag and (np.isrealobj(np.asarray(alpha)) or alpha.imag == 0) \
            and np.real(alpha) >= 0
        return AtomicRep(self.params, self.grid, self.index, alpha * self.value, pos)

    def __add__(self, other: "AtomicRep") -> "AtomicRep":
        index, value = merge_repeats(np.concatenate([self.index, other.index]),
                                     np.concatenate([self.value, other.value]))
        return AtomicRep(self.params, self.grid, index, value,
                         self.positive_flag and other.positive_flag)

    # -- basis-vector view -------------------------------------------------

    def to_vector(self, up_to: Optional[int] = None) -> np.ndarray:
        K = self.grid.max_level if up_to is None else up_to
        vec = np.zeros(basis_size(self.grid, K), dtype=np.complex128)
        if np.any(self.index >= vec.size):
            raise ValueError(f"coefficient at level {self.cells()[0].max()} "
                             f"beyond basis level {K}")
        vec[self.index] = self.value
        if not np.any(vec.imag):
            return vec.real
        return vec

    @classmethod
    def from_vector(cls, params: BesovParams, grid: Grid, vec: np.ndarray) -> "AtomicRep":
        """The nonzero entries of a basis-ordered vector (levels 0..grid.max_level)."""
        index = np.flatnonzero(np.abs(vec[:basis_size(grid, grid.max_level)]) > 0.0)
        value = vec[index]
        return cls(params, grid, index, value,
                   bool(np.all(np.isreal(value)) and np.all(np.real(value) >= 0)))


def accumulate(idx: np.ndarray, val: np.ndarray, n: int) -> np.ndarray:
    """Sum the values into a length-n vector by index, in the order given
    (one bincount for the real part, one for the imaginary part)."""
    re = np.bincount(idx, weights=val.real, minlength=n)
    if not np.iscomplexobj(val):
        return re
    out = re.astype(np.complex128)
    out.imag = np.bincount(idx, weights=val.imag, minlength=n)
    return out


def merge_repeats(key: np.ndarray, val: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each key once, in the order of its first appearance, with its values
    summed in the order given."""
    uniq, first, inv = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return uniq[order], accumulate(inv, val, uniq.size)[order]


def atom_heights(grid: Grid, level: int, theta: float):
    """|Q|**-theta on the cells Q of a level.

    A scalar on a uniform level, one value per cell on a cut level.
    """
    if grid.is_cut(level):
        return grid.width_powers(-theta)
    return float(grid.arity) ** (level * theta)


def basis_size(grid: Grid, K: int) -> int:
    m = grid.arity
    return (m ** (K + 1) - 1) // (m - 1)


def level_offsets(grid: Grid, K: int) -> Tuple[int, ...]:
    """The basis index of the first cell of each level 0..K, then the
    basis size."""
    return _level_offsets(grid.arity, K)


@lru_cache(maxsize=256)
def _level_offsets(m: int, K: int) -> Tuple[int, ...]:
    off = [0]
    for k in range(K + 1):
        off.append(off[-1] + m ** k)
    return tuple(off)


@lru_cache(maxsize=256)
def _offset_array(m: int, K: int) -> np.ndarray:
    """_level_offsets as a read-only array."""
    off = np.array(_level_offsets(m, K))
    off.flags.writeable = False
    return off


def basis_cells(grid: Grid, index: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(level, index within the level) of basis indices (level offsets)."""
    off = _offset_array(grid.arity, grid.max_level)
    level = off.searchsorted(index, side="right") - 1
    return level, index - off[level]


def atom_rep(Q: CellId, params: BesovParams, grid: Grid, coeff: complex = 1.0) -> AtomicRep:
    return AtomicRep.from_cells(params, grid, {Q: coeff},
                                positive_flag=np.imag(coeff) == 0 and np.real(coeff) >= 0)


# -- norms --------------------------------------------------------------------


def coefficient_norm(rep: AtomicRep) -> float:
    """l^q over levels of the l^p over cells of the coefficients.

    The levels are taken in the order of their first entry, and each
    level's coefficients in entry order.
    """
    member = np.zeros(rep.index.size, dtype=np.int64)
    return float(coefficient_norms(member, rep.cells()[0], rep.value, rep.params, 1)[0])


def coefficient_norms(member: np.ndarray, level: np.ndarray, value: np.ndarray,
                      params: BesovParams, size: int) -> np.ndarray:
    """coefficient_norm of `size` expansions at once, given entry by entry.

    Entry i is the coefficient value[i], on a cell of level level[i], of
    expansion member[i], and each expansion's entries come in its order.
    Each norm (0 for an expansion with no entry) takes the same values in
    the same order as the norm of the expansion alone, so it is the same
    bits.
    """
    p = params.p
    # one group per (expansion, level), its entries in entry order
    key = member * (int(level.max(initial=0)) + 1) + level
    order = key.argsort(kind="stable")
    key = key[order]
    new = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    first = new.nonzero()[0]
    count = np.bincount(new.cumsum() - 1, minlength=first.size)
    a = np.abs(value)[order]
    mass = _group_reductions(a if p == INF else a ** p, first, count, p == INF)
    # each expansion's level masses in the order of their first entry
    owner = member[order[first]]
    mass = _roots(mass, p)[np.lexsort((order[first], owner))]
    return level_norms(mass, params.q, np.bincount(owner, minlength=size))


def level_norms(masses: np.ndarray, q: float, count: Optional[np.ndarray] = None) -> np.ndarray:
    """The l^q combination of level norms (their max when q is infinite).

    Without count, one combination per row of `masses` (levels on the last
    axis); with count, one per run of count[i] consecutive entries of a
    1-D `masses` (0 for an empty run).  NormOverflowError if one is not
    finite.
    """
    if count is not None:
        first = count.cumsum() - count
        total = _group_reductions(masses if q == INF else masses ** q, first, count, q == INF)
    elif q == INF:
        total = masses.max(axis=-1, initial=0.0)
    else:
        total = np.sum(masses ** q, axis=-1)
    total = _roots(total, q)
    if not np.isfinite(total).all():
        raise NormOverflowError("coefficient norm is not finite")
    return total


def _roots(x: np.ndarray, p: float) -> np.ndarray:
    """x**(1/p) by Python's pow per value (x itself when p is infinite),
    which equals the pow of a NumPy scalar: NumPy's array ** takes sqrt
    for p = 2, which differs from pow in the last bit now and then."""
    if p == INF:
        return x
    return np.array([v ** (1.0 / p) for v in x.ravel().tolist()]).reshape(x.shape)


def level_masses(vec: np.ndarray, grid: Grid, K: int, p: float) -> np.ndarray:
    """sum |a|**p (max |a| when p is infinite) over each level's
    coefficients of a basis-ordered vector, levels 0..K on the last axis.

    A 2-D `vec` in Fortran order holds one expansion per column and gives
    one row of masses per column, each equal to its lone column's bit for
    bit.
    """
    off = level_offsets(grid, K)
    a = np.abs(vec[:off[-1]])
    if p != INF:
        a = a ** p
    reduce = np.maximum.reduce if p == INF else np.add.reduce
    masses = np.empty(vec.shape[1:] + (K + 1,))
    for k in range(K + 1):
        masses[..., k] = reduce(a[off[k]:off[k + 1]], axis=0)
    return masses


def masses_norm(masses: np.ndarray, params: BesovParams) -> np.ndarray:
    """The coefficient norms of level_masses rows (the last axis)."""
    return level_norms(_roots(masses, params.p), params.q)


def coefficient_norm_vector(vec: np.ndarray, grid: Grid, K: int, params: BesovParams):
    """coefficient_norm on a basis-ordered vector (fast path).

    A 2-D `vec` in Fortran order holds one expansion per column and gives
    one norm per column, each equal to its lone column's bit for bit.
    """
    total = masses_norm(level_masses(vec, grid, K, params.p), params)
    return float(total) if vec.ndim == 1 else total


# -- evaluate / canonical transforms ------------------------------------------


def evaluate(rep: AtomicRep, resolution: Optional[int] = None) -> PiecewiseFn:
    """Sum the atom expansion into cell averages at the given resolution."""
    grid = rep.grid
    K = grid.max_level if resolution is None else resolution
    m, theta = grid.arity, rep.params.theta
    level, j = rep.cells()
    if (level > K).any():
        raise ValueError(f"atom at level {level.max()} below resolution {K}")
    height = np.array([float(m) ** (k * theta) for k in range(K + 1)])[level]
    bottom = level == K
    if bottom.any():
        height[bottom] = np.broadcast_to(atom_heights(grid, K, theta),
                                         grid.n_cells(K))[j[bottom]]
    amp = rep.value * height
    if not (np.imag(rep.value) != 0).any():
        amp = amp.real
    span = m ** (K - level)
    start = span.cumsum() - span
    # entry by entry, each onto the bottom cells of its atom
    return PiecewiseFn(grid, K, accumulate(np.arange(span.sum()) + (j * span - start).repeat(span),
                                           amp.repeat(span), grid.n_cells(K)))


def evaluate_vector(vec: np.ndarray, grid: Grid, K: int, params: BesovParams) -> np.ndarray:
    """evaluate() on a basis-ordered coefficient vector, or on each row of
    a 2-D block.

    Each bottom cell adds the amplitudes of its atoms level by level from
    0: the sums down to level k are spread onto the cells of level k + 1,
    which add their own amplitudes.
    """
    m, off = grid.arity, level_offsets(grid, K)
    # only level K can be cut
    heights = np.repeat([atom_heights(grid, k, params.theta) for k in range(K)] + [0.0],
                        np.diff(off))
    heights[off[K]:] = atom_heights(grid, K, params.theta)
    amp = vec[..., :off[-1]] * heights
    vals = amp[..., :1] + 0.0
    for k in range(1, K + 1):
        vals = vals.repeat(m, axis=-1) + amp[..., off[k]:off[k + 1]]
    return vals


def coefficient_table(f: PiecewiseFn, theta: float,
                      positive: bool = False) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Every subtree expansion of f at once: (roots, arrays).

    roots[k][j] is the average of f over cell (k, j) times that cell's atom
    scale, and arrays[k] the martingale differences of level k (arrays[0]
    the root) times the atom scales, which telescope to f.  The expansion
    of f on the subtree of W = (k, j) is roots[k][j] followed by
    arrays[k + u][j * m**u:(j + 1) * m**u] for u >= 1, bit for bit the one
    built from the cells of W alone: every reduction works within one
    parent.  With positive=True running minima of max(Re f, 0) replace the
    averages, which gives nonnegative coefficients at the cost of a
    generally larger norm.  A cut bottom level weights its averages by the
    actual widths of its cells, and scales its atoms by them.
    """
    grid, m, K = f.grid, f.grid.arity, f.level
    cut = grid.is_cut(K)
    pyramid = [np.maximum(np.real(f.values), 0.0) if positive else f.values]
    while pyramid[-1].size > 1:
        a = pyramid[-1].reshape(-1, m)
        if positive:
            pyramid.append(a.min(axis=1))
        elif cut and len(pyramid) == 1:
            w = grid.widths(K).reshape(-1, m)
            pyramid.append((a * w).sum(axis=1) / w.sum(axis=1))
        else:
            pyramid.append(a.mean(axis=1))
    pyramid.reverse()
    scales = [atom_heights(grid, k, -theta) for k in range(K + 1)]
    roots = [a * s for a, s in zip(pyramid, scales)]
    return roots, [roots[0]] + [(pyramid[k] - np.repeat(pyramid[k - 1], m)) * scales[k]
                                for k in range(1, K + 1)]


@lru_cache(maxsize=64)
def _subtree_templates(m: int, K: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per level k = 0..K, the subtree of cell (k, 0) in tree_rep order
    (lead) and how far each of its indices moves per cell to the right
    (step), the levels one after another; and where each level's begins,
    then the total length."""
    off = np.cumsum([0] + [m ** u for u in range(K)])
    lead, step, start = [], [], [0]
    for k in range(K + 1):
        sizes = m ** np.arange(K - k + 1)
        lead += [off[k + u] + np.arange(s) for u, s in enumerate(sizes)]
        step.append(np.repeat(sizes, sizes))
        start.append(start[-1] + int(sizes.sum()))
    lead, step, start = np.concatenate(lead), np.concatenate(step), np.array(start)
    lead.flags.writeable = step.flags.writeable = start.flags.writeable = False
    return lead, step, start


def subtree_indices(grid: Grid, K: int, k, js) -> np.ndarray:
    """Basis indices (levels 0..K) of the subtrees of the cells (k, js[i]),
    or (k[i], js[i]) for an array of levels, one after another: each its
    root, then level by level with the index ascending (tree_rep order)."""
    k, js = (np.ravel(x) for x in np.broadcast_arrays(k, js))
    lead, step, start = _subtree_templates(grid.arity, K)
    size = start[k + 1] - start[k]
    at = np.arange(size.sum())
    at -= (size.cumsum() - size - start[k]).repeat(size)
    out = js.repeat(size)
    out *= step[at]
    out += lead[at]
    return out


class PowerTable(NamedTuple):
    """|a|**p (|a| when p is infinite) of the nonzero coefficients of every
    level of a coefficient_table, or of a stack of them, taken once.

    The levels are roots[0..K] then arrays[0..K], each flattened, and kept
    holds the powers of all of them in that order.  run counts the kept
    entries before each place of the levels laid end to end, and start[l]
    is where level l begins there, so the kept entries of entries [i, e)
    of level l are kept[run[start[l] + i]:run[start[l] + e]].
    """
    kept: np.ndarray
    run: np.ndarray
    start: np.ndarray


def power_table(roots: List[np.ndarray], arrays: List[np.ndarray], p: float) -> PowerTable:
    """The PowerTable of a coefficient_table (roots, arrays), or of a stack
    of them (roots[l] and arrays[l] 2-D, one row per table)."""
    kept, nonzero = [], []
    for a in roots + arrays:
        a = np.abs(np.ravel(a))
        nonzero.append(a > 0.0)
        kept.append(a[nonzero[-1]] if p == INF else a[nonzero[-1]] ** p)
    run = np.zeros(sum(nz.size for nz in nonzero) + 1, dtype=np.int64)
    np.cumsum(np.concatenate(nonzero), out=run[1:])
    start = np.cumsum([0] + [nz.size for nz in nonzero[:-1]])
    return PowerTable(np.concatenate(kept), run, start)


# numpy's pairwise summation (np.sum) adds at most this many entries in its
# eight interleaved lanes; a longer run is split in two
_PW_BLOCK = 128
# what an empty place of a table reads: it leaves a sum, or a max of
# nonnegative values, as it is; and an empty group
_PAD_SUM, _PAD_MAX, _EMPTY = np.array([-0.0]), np.array([0.0]), np.zeros(1, dtype=np.int64)


def _group_reductions(values: np.ndarray, first: np.ndarray, count: np.ndarray,
                      largest: bool = False) -> np.ndarray:
    """np.sum (np.max with largest) of each group of nonnegative values
    values[first[i]:first[i] + count[i]], bit for bit; 0 for an empty group.

    All groups at once, on tables of (place, group): np.sum adds a group
    of fewer than 8 entries one after another from 0, and a group of up to
    128 in 8 interleaved lanes, combined pairwise before the rest of the
    group is added; a longer group is split at half its count rounded down
    to a multiple of 8, and its halves are summed so and added.  A table's
    rows are added in turn by one np.add.reduce over its first axis, which
    adds them one after another from 0 while a row holds two groups or
    more (an empty group is appended to make sure of it).
    """
    # an empty place reads the last entry of pad
    pad = np.concatenate((values, _PAD_MAX if largest else _PAD_SUM))
    size, splits = count.size, []
    first, count = np.concatenate((first, _EMPTY)), np.concatenate((count, _EMPTY))
    top = int(count.max())
    if largest:
        return np.maximum.reduce(_table(pad, first, count, top), axis=0, initial=0.0)[:size]
    # numpy's halves of every group longer than a block, until none is;
    # after a split (big, n) group big[i] is the sum of groups n + i and
    # n + i + big.size
    while top > _PW_BLOCK:
        big = (count > _PW_BLOCK).nonzero()[0]
        half = count[big] // 16 * 8
        splits.append((big, count.size))
        first = np.concatenate((first, first[big], first[big] + half))
        count = np.concatenate((count, half, count[big] - half))
        count[big] = 0
        top = int(count.max())
    full = count & -8                   # the entries the lanes take
    # the rest after the lanes' total, which takes place 0
    rest = _table(pad, first + full - 1, count - full + 1, int((count - full).max()) + 1)
    rest[0] = 0.0
    width = top & -8
    if width:
        lanes = np.add.reduce(_table(pad, first, full, width).reshape(width // 8, 8, -1), axis=0)
        lanes = lanes[0::2] + lanes[1::2]
        lanes = lanes[0::2] + lanes[1::2]
        rest[0] = lanes[0] + lanes[1]
    sums = np.add.reduce(rest, axis=0)
    for big, n in reversed(splits):
        sums[big] = sums[n:n + big.size] + sums[n + big.size:n + 2 * big.size]
    return sums[:size]


def _table(pad: np.ndarray, first: np.ndarray, count: np.ndarray, width: int) -> np.ndarray:
    """(place, group) table of pad[first[g] + i] for i < count[g], and of
    pad[-1] at the other places of the width rows."""
    at = first + np.arange(width)[:, None]
    np.copyto(at, -1, where=at >= first + count)
    return pad[at]


def subtree_norms(table: PowerTable, m: int, k: int, cells: np.ndarray,
                  params: BesovParams) -> np.ndarray:
    """coefficient_norm of the subtree expansions of some cells of level k.

    Read from the power_table (made with params.p) of a coefficient_table,
    or of a stack of them, where cell j of table t is t * m**k + j; equal
    bit for bit to coefficient_norm(subtree_rep(...)) per cell, which
    drops zero coefficients and levels without a nonzero one.  The levels
    of all the subtrees that hold a nonzero coefficient are reduced in one
    call.
    """
    p, K = params.p, table.start.size // 2 - 1
    # level k + u of a subtree: roots[k] for its root, then arrays[k + u]
    u = np.arange(K - k + 1)
    base = table.start[np.where(u == 0, k, K + 1 + k + u)]
    cells = np.asarray(cells)[:, None]
    first = table.run[base + cells * m ** u]
    count = table.run[base + (cells + 1) * m ** u] - first
    present = count > 0
    masses = _group_reductions(table.kept, first[present], count[present], p == INF)
    return level_norms(_roots(masses, p), params.q, present.sum(axis=1))


def canonical_rep(f: PiecewiseFn, params: BesovParams, positive: bool = False) -> AtomicRep:
    """Martingale-difference representation of a working-resolution function.

    Coefficients are linear in f (each is a difference of cell averages,
    hence an L^1-bounded functional) and the expansion reconstructs f
    exactly at its own resolution.
    """
    return tree_rep(coefficient_table(f, params.theta, positive)[1], CellId(0, 0), params,
                    f.grid, positive)


def tree_rep(arrays: List[np.ndarray], W: CellId, params: BesovParams, grid: Grid,
             positive: bool) -> AtomicRep:
    """The expansion with the coefficient_table slice of the subtree of W
    (its root, then level by level), flagged positive when `positive` is
    set and no coefficient is negative."""
    index = subtree_indices(grid, W.level + len(arrays) - 1, W.level, W.index)
    value = np.concatenate(arrays)
    keep = np.abs(value) > 0.0
    index, value = index[keep], value[keep]
    if positive:
        positive = bool(np.all(np.isreal(value)) and np.all(np.real(value) >= -1e-12))
    return AtomicRep(params, grid, index, value, positive_flag=positive)


def canonical_vector(values: np.ndarray, grid: Grid, K: int, params: BesovParams) -> np.ndarray:
    """canonical_rep as a basis-ordered vector (fast path)."""
    return np.concatenate(coefficient_table(PiecewiseFn(grid, K, values), params.theta)[1])


def subtree_rep(f: PiecewiseFn, W: CellId, params: BesovParams,
                positive: bool = False, theta: Optional[float] = None) -> AtomicRep:
    """Expansion of f*1_W supported entirely inside W.

    The root coefficient carries the full average over W, so the expansion
    telescopes to f on W and vanishes outside; all coefficients sit on the
    subtree of W.  `theta` overrides the atom scaling exponent (used for
    finer-scale budgets).
    """
    if W.level > f.level:
        raise ValueError("support cell below working resolution")
    m, (k, j) = f.grid.arity, W
    roots, arrays = coefficient_table(f, params.theta if theta is None else theta, positive)
    return tree_rep([roots[k][j:j + 1]] + [arrays[k + u][j * m ** u:(j + 1) * m ** u]
                                           for u in range(1, f.level - k + 1)],
                    W, params, f.grid, positive)


# -- conversions ---------------------------------------------------------------


@dataclass
class BesovAtom:
    """A finer-scale atom: an expansion supported inside one cell.

    `rep` holds beta-scale coefficients (exponent 1/p - beta) of a function
    supported in `support`; its coefficient norm must stay below
    |support|**(s-beta).
    """

    support: CellId
    rep: AtomicRep

    def norm(self) -> float:
        return coefficient_norm(self.rep)


def besov_to_souza(general_rep: Sequence[Tuple[complex, BesovAtom]],
                   params: BesovParams, grid: Grid) -> AtomicRep:
    """Flatten a finer-scale atom expansion into a plain atom expansion.

    Each beta-scale atom coefficient at cell U converts by the factor
    |U|**(beta-s).  Inputs are validated against the atom budget; the
    measured output/input norm ratio is recorded in rep.meta.
    """
    index, value = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    level_masses: Dict[int, float] = {}
    all_positive = True
    for d, atom in general_rep:
        W = atom.support
        budget = grid.measure(W) ** (params.s - params.beta)
        if atom.norm() > budget * (1 + 1e-9):
            raise AtomBudgetError(
                f"atom on {W} has norm {atom.norm():.6g} > budget {budget:.6g}"
            )
        if np.imag(d) != 0 or np.real(d) < 0 or not atom.rep.positive_flag:
            all_positive = False
        level_masses[W.level] = level_masses.get(W.level, 0.0) + abs(d) ** params.p
        lo_w, hi_w = grid.interval(W)
        lo_u, hi_u, meas = grid.extents(*atom.rep.cells())
        if np.any((lo_u < lo_w - 1e-12) | (hi_u > hi_w + 1e-12)):
            raise AtomBudgetError(f"atom on {W} has a coefficient outside its support")
        index.append(atom.rep.index)
        value.append(d * atom.rep.value * python_pow(meas, params.beta - params.s))
    index, value = merge_repeats(np.concatenate(index), np.concatenate(value))
    rep = AtomicRep(params, grid, index, value, all_positive and bool(
        np.all(np.isreal(value)) and np.all(np.real(value) >= 0)))
    # layered input norm: l^q over support levels of l^p of the weights
    in_norm = float(level_norms(_roots(np.array(list(level_masses.values())), params.p), params.q))
    out_norm = coefficient_norm(rep)
    rep.meta["input_norm"] = in_norm
    rep.meta["output_norm"] = out_norm
    rep.meta["measured_factor"] = out_norm / in_norm if in_norm > 0 else 0.0
    return rep


def multiplier_apply(v: PiecewiseFn, rep: AtomicRep) -> AtomicRep:
    """Representation of the pointwise product v * f at working resolution."""
    f = evaluate(rep, v.level)
    return canonical_rep(f * v, rep.params)


# -- random ensembles (shared by tests and calibration) ------------------------


def _draw(grid: Grid, params: BesovParams, rng: np.random.Generator, size: int,
          n_atoms: int, K: int, positive: bool, complex_coeffs: bool,
          normalize: bool) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`size` random expansions of n_atoms draws each on levels 0..K, as
    (member, basis index, coefficient) arrays.

    Each member's repeated cells are merged in the order of their first
    draw and, with normalize, its coefficients scaled to unit
    coefficient_norm; the norm of each member is the one it has alone.
    """
    off, n = level_offsets(grid, K), basis_size(grid, K)
    index, value = [], []
    for _ in range(size * n_atoms):
        k = int(rng.integers(0, K + 1))
        j = int(rng.integers(0, grid.n_cells(k)))
        val = rng.standard_normal()
        if complex_coeffs:
            val = val + 1j * rng.standard_normal()
        index.append(off[k] + j)
        value.append(abs(val) if positive else val)
    member = np.repeat(np.arange(size), n_atoms)
    key, value = merge_repeats(member * n + np.array(index, dtype=np.int64), np.array(value))
    member, index = key // n, key % n
    if normalize:
        nrm = coefficient_norms(member, basis_cells(grid, index)[0], value, params, size)
        value = (1.0 / np.where(nrm > 0, nrm, 1.0))[member] * value
    return member, index, value


def random_rep(grid: Grid, params: BesovParams, rng: np.random.Generator,
               n_atoms: int = 24, max_level: Optional[int] = None,
               positive: bool = False, complex_coeffs: bool = False,
               normalize: bool = True) -> AtomicRep:
    K = grid.max_level if max_level is None else max_level
    _, index, value = _draw(grid, params, rng, 1, n_atoms, K, positive, complex_coeffs, normalize)
    return AtomicRep(params, grid, index, value, positive_flag=positive)


def random_block(grid: Grid, params: BesovParams, rng: np.random.Generator, size: int,
                 n_atoms: int = 24, max_level: Optional[int] = None) -> np.ndarray:
    """`size` successive random_rep draws (real, normalized) as the columns
    of a basis-ordered block (levels 0..max_level) in Fortran order; each
    column is its rep's to_vector bit for bit.
    """
    K = grid.max_level if max_level is None else max_level
    member, index, value = _draw(grid, params, rng, size, n_atoms, K, False, False, True)
    block = np.zeros((basis_size(grid, K), size), order="F")
    block[index, member] = value
    return block
