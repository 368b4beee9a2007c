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
        return grid.widths(level) ** (-theta)
    return float(grid.arity) ** (level * theta)


def basis_size(grid: Grid, K: int) -> int:
    m = grid.arity
    return (m ** (K + 1) - 1) // (m - 1)


def level_offsets(grid: Grid, K: int) -> List[int]:
    m = grid.arity
    off = [0]
    for k in range(K + 1):
        off.append(off[-1] + m ** k)
    return off


def basis_cells(grid: Grid, index: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(level, index within the level) of basis indices (level offsets)."""
    off = np.asarray(level_offsets(grid, grid.max_level))
    level = np.searchsorted(off, index, side="right") - 1
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
    n_levels = int(level.max(initial=0)) + 1
    groups, first, at = np.unique(member * n_levels + level, return_index=True,
                                  return_inverse=True)
    a = np.abs(value)[np.argsort(at, kind="stable")]
    count = np.bincount(at, minlength=groups.size)
    mass = _group_reductions(a if p == INF else a ** p, np.cumsum(count) - count, count,
                             np.max if p == INF else np.sum)
    # each expansion's level masses in the order of their first entry
    owner = groups // n_levels
    mass = _roots(mass, p)[np.lexsort((first, owner))]
    return level_norms(mass, params.q, np.bincount(owner, minlength=size))


def level_norms(masses: np.ndarray, q: float, count: Optional[np.ndarray] = None) -> np.ndarray:
    """The l^q combination of level norms (their max when q is infinite).

    Without count, one combination per row of `masses` (levels on the last
    axis); with count, one per run of count[i] consecutive entries of a
    1-D `masses` (0 for an empty run).  NormOverflowError if one is not
    finite.
    """
    if count is not None:
        first = np.cumsum(count) - count
        total = _group_reductions(masses if q == INF else masses ** q, first, count,
                                  np.max if q == INF else np.sum)
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
    a = np.abs(vec)
    masses = np.empty(vec.shape[1:] + (K + 1,))
    for k in range(K + 1):
        seg = a[off[k]:off[k + 1]]
        masses[..., k] = seg.max(axis=0) if p == INF else np.sum(seg ** p, axis=0)
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
    if np.any(level > K):
        raise ValueError(f"atom at level {level.max()} below resolution {K}")
    height = np.array([float(m) ** (k * theta) for k in range(K + 1)])[level]
    bottom = level == K
    height[bottom] = np.broadcast_to(atom_heights(grid, K, theta), grid.n_cells(K))[j[bottom]]
    any_complex = bool(np.any(np.imag(rep.value) != 0))
    amp = rep.value * height
    span = m ** (K - level)
    start = np.cumsum(span) - span
    vals = np.zeros(grid.n_cells(K), dtype=np.complex128 if any_complex else np.float64)
    # entry by entry, each onto the bottom cells of its atom
    np.add.at(vals, np.arange(span.sum()) + np.repeat(j * span - start, span),
              np.repeat(amp if any_complex else amp.real, span))
    return PiecewiseFn(grid, K, vals)


def evaluate_vector(vec: np.ndarray, grid: Grid, K: int, params: BesovParams) -> np.ndarray:
    """evaluate() on a basis-ordered coefficient vector, or on each row of
    a 2-D block."""
    m = grid.arity
    off = level_offsets(grid, K)
    vals = np.zeros(vec.shape[:-1] + (m ** K,), dtype=vec.dtype)
    for k in range(K + 1):
        seg = vec[..., off[k]:off[k + 1]]
        if not np.any(seg):
            continue
        amp = seg * atom_heights(grid, k, params.theta)
        vals += np.repeat(amp, m ** (K - k), axis=-1)
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


@lru_cache(maxsize=256)
def _subtree_template(m: int, K: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    off = np.cumsum([0] + [m ** u for u in range(K)])
    sizes = m ** np.arange(K - k + 1)
    lead = np.concatenate([off[k + u] + np.arange(s) for u, s in enumerate(sizes)])
    step = np.repeat(sizes, sizes)
    lead.flags.writeable = step.flags.writeable = False
    return lead, step


def subtree_indices(grid: Grid, K: int, k: int, js: np.ndarray) -> np.ndarray:
    """Basis indices (levels 0..K) of the subtrees of the level-k cells js.

    Row i lists the subtree of cell (k, js[i]) in tree_rep order: its root,
    then level by level with the index ascending.
    """
    lead, step = _subtree_template(grid.arity, K, k)
    return lead + np.multiply.outer(js, step)


class PowerTable(NamedTuple):
    """|a|**p (|a| when p is infinite) of the nonzero coefficients of every
    level of a coefficient_table, or of a stack of them, taken once.

    roots[l] and arrays[l] are (kept, run) pairs for the flattened level:
    kept holds the powers in table order, and run = _running_count of the
    nonzero mask, so the kept entries of entries [i, e) are
    kept[run[i]:run[e]].
    """
    roots: List[Tuple[np.ndarray, np.ndarray]]
    arrays: List[Tuple[np.ndarray, np.ndarray]]


def power_table(roots: List[np.ndarray], arrays: List[np.ndarray], p: float) -> PowerTable:
    """The PowerTable of a coefficient_table (roots, arrays), or of a stack
    of them (roots[l] and arrays[l] 2-D, one row per table)."""
    def level(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        a = np.abs(a)
        nz = a > 0.0
        return (a[nz] if p == INF else a[nz] ** p), _running_count(nz)
    return PowerTable([level(a) for a in roots], [level(a) for a in arrays])


def _running_count(keep: np.ndarray) -> np.ndarray:
    """run[i] = how many entries of keep, flattened, hold before entry i
    (i = 0..keep.size)."""
    run = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, axis=None, out=run[1:])
    return run


def _group_reductions(values: np.ndarray, first: np.ndarray, count: np.ndarray,
                      reduce: Callable) -> np.ndarray:
    """reduce of each group values[first[i]:first[i] + count[i]]; 0 for an
    empty group.

    Groups are reduced in batches of equal count, each as a 2-D row
    reduction, so a sum equals np.sum of the group's entries bit for bit
    (np.sum adds pairwise: the count sets the grouping).
    """
    out = np.zeros(count.size)
    for c in np.unique(count[count > 0]).tolist():
        rows = np.flatnonzero(count == c)
        out[rows] = reduce(values[first[rows, None] + np.arange(c)], axis=1)
    return out


def subtree_norms(table: PowerTable, m: int, k: int, cells: np.ndarray,
                  params: BesovParams) -> np.ndarray:
    """coefficient_norm of the subtree expansions of some cells of level k.

    Read from the power_table (made with params.p) of a coefficient_table,
    or of a stack of them, where cell j of table t is t * m**k + j; equal
    bit for bit to coefficient_norm(subtree_rep(...)) per cell, which
    drops zero coefficients and levels without a nonzero one.
    """
    p = params.p
    reduce = np.max if p == INF else np.sum
    masses, present = [], []
    for u in range(len(table.arrays) - k):
        kept, run = table.roots[k] if u == 0 else table.arrays[k + u]
        first = run[cells * m ** u]
        count = run[(cells + 1) * m ** u] - first
        masses.append(_group_reductions(kept, first, count, reduce))
        present.append(count > 0)
    masses, present = _roots(np.stack(masses, axis=1), p), np.stack(present, axis=1)
    return level_norms(masses[present], params.q, present.sum(axis=1))


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
