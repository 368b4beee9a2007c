"""Branch systems for piecewise-defined expanding interval maps.

A map T is stored through its inverse branches h_r, each a monotone
bijection from the branch image J_r (where T lands) onto the branch
domain I_r (where T is defined), together with the weight g_r so that the
transfer action is sum_r g_r(x) f(h_r(x)).  With the jacobian rule
g_r = |h_r'| this is the operator transporting densities of
absolutely-continuous measures.

Every branch carries a measured constant ledger:

  shift (a_r)            minimal drop of the containment level between a
                         cell and its forward image,
  c_dc1, c_dc2           scaling control: |Q|/|image| <= c_dc1 * c_dc2**shift,
  c_dgd1, c_dgd2         distortion control: decomposition constants of
                         forward images of cells,
  c_rp                   regularity of the weight against the finer atom
                         scale,
  theta                  the combined per-branch score driving slicing
                         constants.

Constants are empirical suprema over a probe range (recorded).  Branch
and Potential are frozen: the probes read only the branch geometry and
weight and return their values, and make_map builds each branch once with
its whole ledger.  Operator assembly returns a new system with the
constants widened to every forward image it met (transfer._widen_ledger).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .atoms import (_GL_NODES, _GL_WEIGHTS, BesovParams, PiecewiseFn, coefficient_table,
                    power_table, subtree_norms)
from .domains import c_dom, cover, strong_regularities
from .errors import (
    AssumptionError,
    CellNotFoundError,
    ContainmentError,
    InfeasibleFitError,
    MapSpecError,
)
from .grid import CONTAIN_TOL, Grid, python_pow

# deepest level make_map probes the scaling constants at; the CLI's default too
PROBE_LEVEL = 10


@dataclass(frozen=True)
class Potential:
    """Branch weight g_r together with how to integrate it exactly."""

    kind: str                    # "jacobian" | "constant" | "custom"
    fn: Callable[[np.ndarray], np.ndarray]
    value: Optional[float] = None     # for piecewise-constant weights
    positive: bool = True

    def is_constant(self) -> bool:
        return self.value is not None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Branch:
    """One inverse branch h: J -> I with its jacobian |h'|, its weight and
    its measured ledger."""

    r: int
    dom: Tuple[float, float]          # J_r, where the branch is defined
    img: Tuple[float, float]          # I_r, the image h(J_r)
    h: Callable[[np.ndarray], np.ndarray]
    h_inv: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    increasing: bool
    affine_slope: Optional[float]     # slope of h when affine, else None
    potential: Potential = None
    # ledger (measured by make_map's probes)
    shift: int = 0
    c_dc1: float = 1.0
    c_dc2: float = 1.0
    c_dgd1: float = 1.0
    c_dgd2: float = 1.0
    c_rp: float = 0.0

    def forward_interval(self, lo, hi):
        """Image h^{-1}([lo, hi)) as an interval (exact endpoint arithmetic).

        lo and hi are scalars or arrays of interval ends (elementwise).
        """
        a, b = self.h_inv(lo), self.h_inv(hi)
        if not self.increasing:
            a, b = b, a
        d0, d1 = self.dom
        a, b = np.minimum(np.maximum(a, d0), d1), np.minimum(np.maximum(b, d0), d1)
        return (float(a), float(b)) if a.ndim == 0 else (a, b)

    def pullback_interval(self, lo, hi):
        """h([lo, hi)) for [lo, hi) inside the branch domain J.

        lo and hi are scalars or arrays of interval ends (elementwise).
        """
        a, b = np.asarray(self.h(lo)), np.asarray(self.h(hi))
        if not self.increasing:
            a, b = b, a
        return (float(a), float(b)) if a.ndim == 0 else (a, b)

    def weight_integral(self, lo, hi):
        """Signed integral of g over [lo, hi) inside J (exact when possible).

        lo and hi are scalars or arrays (elementwise); an empty or reversed
        interval integrates to 0.
        """
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        if self.potential.kind == "jacobian":
            out = np.abs(self.h(hi) - self.h(lo))
        elif self.potential.is_constant():
            out = self.potential.value * (hi - lo)
        else:
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            nodes = np.multiply.outer(half, _GL_NODES) + mid[..., None]
            vals = np.reshape(self.potential(nodes.ravel()), nodes.shape)
            out = (vals @ _GL_WEIGHTS) * half
        return np.where(hi > lo, out, 0.0)[()]

    def lambda_rs2(self, params: BesovParams) -> float:
        return max(self.c_dc2 ** params.eps, self.c_dgd2 ** (1.0 / params.p))

    def theta(self, params: BesovParams) -> float:
        lam = self.lambda_rs2(params)
        return (self.c_dc1 ** params.eps
                * self.c_rp
                * self.c_dgd1 ** (1.0 / params.p)
                * lam ** (self.shift * (1.0 - params.gamma)))


# -- built-in map constructors ------------------------------------------------


def _affine_branch(r: int, dom: Tuple[float, float], img: Tuple[float, float],
                   slope: float, intercept: float) -> Branch:
    """Branch h(x) = slope*x + intercept on dom, mapping onto img."""
    h = lambda x: slope * np.asarray(x, dtype=float) + intercept
    h_inv = lambda y: (np.asarray(y, dtype=float) - intercept) / slope
    jacobian = lambda x: np.full_like(np.asarray(x, dtype=float), abs(slope))
    return Branch(r=r, dom=dom, img=img, h=h, h_inv=h_inv, jacobian=jacobian,
                  increasing=slope > 0, affine_slope=slope)


@dataclass
class MapSpec:
    """Named map plus a potential rule; the CLI builds it from the config's
    map section."""

    name: str
    potential: str = "jacobian"
    beta: float = 1.6180339887498949
    breakpoints: Optional[Sequence[float]] = None
    slopes: Optional[Sequence[float]] = None
    offsets: Optional[Sequence[float]] = None
    arity: int = 3
    r_max: int = 50
    exponent: float = 0.75
    constant: float = 1.0
    custom_fn: Optional[Callable] = None


# the MapSpec fields each built-in map reads besides its name and potential
# rule; every map reads `constant` under the "constant" rule
MAP_FIELDS = {"doubling": (), "m_ary": ("arity",), "beta": ("beta",),
              "pw_linear": ("breakpoints", "slopes", "offsets"),
              "lorenz_cusp": ("exponent",), "gauss": ("r_max",)}


def _build_branches(spec: MapSpec) -> List[Branch]:
    name = spec.name
    if name == "doubling":
        return _build_branches(MapSpec("m_ary", arity=2))
    if name == "m_ary":
        m = spec.arity
        return [
            _affine_branch(r + 1, (0.0, 1.0), (r / m, (r + 1) / m), 1.0 / m, r / m)
            for r in range(m)
        ]
    if name == "beta":
        b = spec.beta
        if b <= 1 + 1e-9:
            raise MapSpecError(f"beta map with beta={b} is not expanding")
        n_full = int(math.floor(b))
        branches = [
            _affine_branch(r + 1, (0.0, 1.0), (r / b, (r + 1) / b), 1.0 / b, r / b)
            for r in range(n_full)
        ]
        top = b - n_full
        if top > 1e-12:
            branches.append(
                _affine_branch(n_full + 1, (0.0, top), (n_full / b, 1.0),
                               1.0 / b, n_full / b)
            )
        return branches
    if name == "pw_linear":
        if spec.breakpoints is None or spec.slopes is None:
            raise MapSpecError("pw_linear needs breakpoints and slopes")
        xs = list(spec.breakpoints)
        slopes = list(spec.slopes)
        offsets = list(spec.offsets) if spec.offsets is not None else [0.0] * len(slopes)
        if len(xs) != len(slopes) + 1 or len(offsets) != len(slopes):
            raise MapSpecError("pw_linear needs len(breakpoints) == len(slopes)+1")
        if not slopes:
            raise MapSpecError("pw_linear needs at least one piece")
        branches = []
        for i, s in enumerate(slopes):
            if s <= 0:
                raise MapSpecError("pw_linear slopes must be positive")
            lo, hi = xs[i], xs[i + 1]
            if hi <= lo:
                raise MapSpecError(f"piece {i} [{lo},{hi}) is empty")
            y0, y1 = offsets[i], offsets[i] + s * (hi - lo)
            if y1 > 1 + 1e-9 or y0 < -1e-9:
                raise MapSpecError(f"piece {i} maps [{lo},{hi}) outside [0,1)")
            branches.append(_affine_branch(i + 1, (y0, y1), (lo, hi), 1.0 / s, lo - y0 / s))
        return branches
    if name == "lorenz_cusp":
        kappa = spec.exponent
        if not (0.5 < kappa < 1.0):
            raise MapSpecError(
                "lorenz_cusp exponent must lie in (1/2, 1) to keep |T'| > 1"
            )
        c = 2.0 ** kappa
        inv_k = 1.0 / kappa

        def h1(y):
            return 0.5 - 0.5 * np.power(1.0 - np.asarray(y, dtype=float), inv_k)

        def h1_inv(x):
            return 1.0 - c * np.power(0.5 - np.asarray(x, dtype=float), kappa)

        def h2(y):
            return 0.5 + 0.5 * np.power(1.0 - np.asarray(y, dtype=float), inv_k)

        def h2_inv(x):
            return 1.0 - c * np.power(np.asarray(x, dtype=float) - 0.5, kappa)

        def jacobian(y):      # |h1'| = |h2'|
            y = np.asarray(y, dtype=float)
            return (0.5 * inv_k) * np.power(np.maximum(1.0 - y, 0.0), inv_k - 1.0)

        return [
            Branch(1, (0.0, 1.0), (0.0, 0.5), h1, h1_inv, jacobian, True, None),
            Branch(2, (0.0, 1.0), (0.5, 1.0), h2, h2_inv, jacobian, False, None),
        ]
    if name == "gauss":
        branches = []
        for r in range(1, spec.r_max + 1):
            def h(y, r=r):
                return 1.0 / (np.asarray(y, dtype=float) + r)

            def h_inv(x, r=r):
                return 1.0 / np.asarray(x, dtype=float) - r

            def jacobian(y, r=r):
                return 1.0 / (np.asarray(y, dtype=float) + r) ** 2

            branches.append(
                Branch(r, (0.0, 1.0), (1.0 / (r + 1), 1.0 / r), h, h_inv, jacobian,
                       increasing=False, affine_slope=None)
            )
        return branches
    raise MapSpecError(f"unknown map name: {name!r}")


def _potential(branch: Branch, spec: MapSpec) -> Potential:
    """The weight of a branch under the spec's potential rule."""
    if spec.potential == "jacobian":
        return Potential("jacobian", branch.jacobian, value=None if branch.affine_slope is None
                         else abs(branch.affine_slope))
    if spec.potential == "constant":
        c = spec.constant
        return Potential("constant", lambda x, c=c: np.full_like(np.asarray(x, dtype=float), c),
                         value=c, positive=c >= 0)
    if spec.potential == "custom":
        if spec.custom_fn is None:
            raise MapSpecError("custom potential rule needs custom_fn")
        return Potential("custom", spec.custom_fn, positive=False)
    raise MapSpecError(f"unknown potential rule: {spec.potential!r}")


# -- ledger probes --------------------------------------------------------------


def _ends(branches: Sequence[Branch], attr: str) -> np.ndarray:
    """The branch images (attr "img") or domains ("dom"), one (lo, hi) row each."""
    return np.reshape([getattr(b, attr) for b in branches], (-1, 2))


def per_branch(branches: Sequence[Branch], br: np.ndarray, method: Callable,
               lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """method (Branch.forward_interval or Branch.pullback_interval) of the
    intervals [lo[i], hi[i]) under the branches at positions br[i], one
    call per branch on its run of the intervals sorted by branch."""
    order = np.argsort(br, kind="stable")
    bounds = np.searchsorted(br[order], np.arange(len(branches) + 1)).tolist()
    lo, hi = lo[order], hi[order]
    out = np.empty((2, lo.size))
    for b, i0, i1 in zip(branches, bounds[:-1], bounds[1:]):
        if i1 > i0:
            out[0, i0:i1], out[1, i0:i1] = method(b, lo[i0:i1], hi[i0:i1])
    unsorted = np.empty_like(out)
    unsorted[:, order] = out
    return unsorted[0], unsorted[1]


def _check_inside_images(grid: Grid, branches: Sequence[Branch], br, level, lo, hi) -> None:
    """Raise for the first cell [lo, hi) of a level that is not inside the
    image of the branch at position br (arrays, up to 1e-9 widths)."""
    img, tol = _ends(branches, "img")[br], grid.nominal_widths(level) * 1e-9
    bad = np.flatnonzero((lo < img[..., 0] - tol) | (hi > img[..., 1] + tol))
    if bad.size:
        raise ContainmentError(f"a cell of level {np.ravel(level)[bad[0]]} is not contained "
                               f"in branch image {branches[np.ravel(br)[bad[0]]].img}")


def _probe_cells(grid: Grid, ends: np.ndarray, top, per: Optional[int]):
    """The probe cells of a batch of branches as (branch position, level,
    index) arrays, ordered by branch, level and index.

    Per branch (a row of ends) and level k <= top[branch], they are the
    cells arange(i0, i1, max(1, (i1 - i0) // per)) of the run [i0, i1)
    contained in its ends: about per cells, or all of them when per is None.
    """
    top = np.broadcast_to(top, len(ends))
    levels = np.arange(int(np.max(top, initial=-1)) + 1)
    i0, i1 = grid.contained_runs(levels, ends[:, :1], ends[:, 1:])
    span = np.where(levels <= top[:, None], np.maximum(i1 - i0, 0), 0).ravel()
    step = np.maximum(1, span // per) if per else np.ones_like(span)
    count = -(-span // step)
    pair = np.repeat(np.arange(span.size), count)
    rank = np.arange(pair.size) - np.repeat(np.cumsum(count) - count, count)
    return pair // levels.size, pair % levels.size, i0.ravel()[pair] + step[pair] * rank


def _distortion_constants(grid: Grid, branches: Sequence[Branch], alpha: float,
                          tops) -> List[float]:
    """c_dgd1 of every branch: the largest c_dom of the decomposed forward
    images of about 32 cells inside its image on each level up to its
    level in tops, and at least 1; all decomposed in one cover call."""
    br, ks, js = _probe_cells(grid, _ends(branches, "img"), tops, 32)
    lo, hi, _ = grid.extents(ks, js)
    _check_inside_images(grid, branches, br, ks, lo, hi)
    lo, hi = per_branch(branches, br, Branch.forward_interval, lo, hi)
    out = np.ones(len(branches))
    np.maximum.at(out, br, c_dom(grid, cover(grid, lo, hi, grid.max_level), lo, hi, alpha))
    return out.tolist()


def _scaling_samples(grid: Grid, branches: Sequence[Branch], probe_level: int):
    """The scaling samples of every branch from one array pass: per branch
    the levels of its probe cells, their ratios |Q| / |forward image| and
    the containment levels of the forward images.

    A branch probes about 64 cells inside its image per level, and keeps
    probing below probe_level until it has 8 samples (thin images of
    infinite-branch maps), down to 8 levels below the grid.
    """
    n, K = len(branches), grid.max_level
    deepest = max(k for k in range(K + 9) if grid.n_cells(k) < 2 ** 62)
    # the levels past probe_level are taken only for the branches short of samples
    top = np.full(n, min(probe_level, deepest))
    while True:
        br, ks, js = _probe_cells(grid, _ends(branches, "img"), top, 64)
        lo, hi, meas = grid.extents(ks, js)
        flo, fhi = per_branch(branches, br, Branch.forward_interval, lo, hi)
        ok = fhi - flo > 0
        found = np.zeros((n, deepest + 1), dtype=np.int64)
        np.add.at(found, (br[ok], ks[ok]), 1)
        enough = (np.arange(deepest + 1) >= probe_level) & (np.cumsum(found, axis=1) >= 8)
        short = ~enough.any(axis=1) & (top < deepest)
        if not short.any():
            break
        top[short] = deepest
    stop = np.where(enough.any(axis=1), enough.argmax(axis=1), deepest)
    keep = np.flatnonzero(ok & (ks <= stop[br]))
    # forward images of deep cells may only contain cells below the
    # working resolution; the containment level is pure arithmetic
    kq = grid.containment_levels(flo[keep], fhi[keep], K + 16)
    cut = np.searchsorted(br[keep], np.arange(1, n))
    return zip(*(np.split(x, cut) for x in (ks[keep], (meas / (fhi - flo))[keep], kq)))


def _fit_scaling(grid: Grid, branch: Branch, ks: np.ndarray, ratios: np.ndarray,
                 kq: np.ndarray) -> Tuple[int, float, float]:
    """(shift, c_dc1, c_dc2) of a branch from its scaling samples.

    The ratio |Q| / |forward image| is <= 1 for expanding maps; c_dc2 is
    the tightest geometric base < 1 and c_dc1 the residual front factor.
    """
    if not ks.size:
        raise InfeasibleFitError(f"branch {branch.r}: no probe cells inside image")
    if np.any(kq < 0):
        raise CellNotFoundError(f"branch {branch.r}: a forward image holds no cell "
                                f"up to level {grid.max_level + 16}")
    # Python's pow: rho**(1/shift) per sample, base**shift per shift
    shift = np.abs(ks - kq)
    base = max([float(python_pow(ratios[shift == s], 1.0 / s).max())
                for s in np.unique(shift[shift > 0]).tolist()], default=0.0)
    if base == 0.0:
        base = float(ratios.max())
    if base >= 1.0 - 1e-12:
        raise InfeasibleFitError(
            f"branch {branch.r}: no geometric base < 1 fits the scaling samples"
        )
    scale = np.array([base ** s for s in range(int(shift.max()) + 1)])
    front = max(1.0, float((ratios / scale[shift]).max()))
    return int(shift.min()), front, base


def potential_regularity(gbar: PiecewiseFn, branch: Branch, params: BesovParams,
                         probe_level: int = 6) -> Tuple[float, Dict[int, float]]:
    """Measured regularity constant of the branch weight.

    gbar holds the cell averages of the weight (weight_averages) on the
    grid and level the weight is re-expanded at.  For each probing cell W
    in the branch domain, the finer-scale expansion of g*1_W is compared
    against the budget (|Q|/|image Q|)**(1/p-s+eps) * |W|**(1/p-beta) with
    Q the smallest cell containing h(W).  The positive construction is used
    for nonnegative weights so downstream positivity is preserved by the
    same numbers.  Returns (c_rp, the worst ratio of each probe level);
    the branch is not changed.
    """
    (levels,) = _regularities([gbar], [branch], params, probe_level)
    return max(levels), dict(enumerate(levels))


def _regularities(gbars: Sequence[PiecewiseFn], branches: Sequence[Branch],
                  params: BesovParams, probe_level: int) -> List[List[float]]:
    """The per-level worst ratios of potential_regularity of every branch
    (its weight averages in gbars, all on one grid and level), one list
    per branch, from one array pass: the budgets of all probe
    cells at once, and the expansion norms of each probe level from one
    atoms.subtree_norms call over the power_table of the stacked
    coefficient_tables, which takes the powers of each table level once."""
    grid, K, m = gbars[0].grid, gbars[0].level, gbars[0].grid.arity
    top = min(probe_level, K)
    exponent = 1.0 / params.p - params.s + params.eps
    tables = [coefficient_table(g, params.theta_beta, b.potential.positive)
              for g, b in zip(gbars, branches)]
    table = power_table(*([np.stack(level) for level in zip(*part)] for part in zip(*tables)),
                        params.p)
    br, ks, js = _probe_cells(grid, _ends(branches, "dom"), top, None)
    w_lo, w_hi, _ = grid.extents(ks, js)
    q_lo, q_hi = per_branch(branches, br, Branch.pullback_interval, w_lo, w_hi)
    kq = _smallest_covering_levels(grid, q_lo, q_hi)
    jq = np.clip(grid.cell_index(kq, 0.5 * (q_lo + q_hi)), 0, grid.arity ** kq - 1)
    c_lo, c_hi, _ = grid.extents(kq, jq)
    f_lo, f_hi = per_branch(branches, br, Branch.forward_interval, c_lo, c_hi)
    ratio = (c_hi - c_lo) / np.maximum(f_hi - f_lo, 1e-300)
    dens = python_pow(ratio, exponent) * grid.measure_powers(ks, js, params.theta_beta)
    worst = np.zeros((len(branches), top + 1))
    for k in range(top + 1):
        sel = ks == k
        nums = subtree_norms(table, m, k, br[sel] * m ** k + js[sel], params)
        np.maximum.at(worst, (br[sel], k), nums / dens[sel])
    return worst.tolist()


def _smallest_covering_levels(grid: Grid, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per piece, the deepest level at which the cell holding lo also
    contains [lo, hi) up to 1e-15 (0 if none does)."""
    out = np.zeros(lo.size, dtype=np.int64)
    for k in range(grid.max_level + 1):
        c_lo, c_hi, _ = grid.extents(k, grid.cell_index(k, lo))
        out[(c_lo <= lo + 1e-15) & (hi <= c_hi + 1e-15)] = k
    return out


def weight_averages(grid: Grid, branch: Branch, K: int) -> PiecewiseFn:
    """Cell averages of the branch weight over the branch domain.

    Exact for jacobian and constant weights (interval image lengths),
    5-point Gauss-Legendre otherwise.  Cells outside the domain get 0.
    """
    vals = np.zeros(grid.n_cells(K))
    _, j, a, b, w = grid.overlaps(K, *branch.dom)
    vals[j] = branch.weight_integral(a, b) / w
    return PiecewiseFn(grid, K, vals)


# -- the assembled system ---------------------------------------------------------


@dataclass
class BranchSystem:
    """A map's branches and ledger on its working grid.  The overlap and
    integrability constants are derived from the branches when it is built;
    a copy with other branches (dataclasses.replace) shares the caches,
    none of which depends on a ledger constant, and starts its own
    certificates, which do."""

    spec: MapSpec
    grid: Grid
    params: BesovParams
    branches: List[Branch]
    probe_level: int
    strong_reports: Dict[int, object] = field(default_factory=dict)
    # weight averages by (branch id, level), the stacked coefficient tables
    # of all branches' weight averages (see table) and the bin operator (a
    # transfer.CellOperator, built by transfer.cell_operator) by level
    weight_avgs: Dict[Tuple[int, int], PiecewiseFn] = field(
        default_factory=dict, repr=False, compare=False)
    coeff_tables: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False)
    cell_ops: Dict[int, object] = field(default_factory=dict, repr=False, compare=False)
    # the slicing certificate and C_D of apply_transfer by Constants (see
    # transfer.certificate), each made once for this system's ledger
    certificates: Dict[object, Tuple[object, float]] = field(
        init=False, default_factory=dict, repr=False, compare=False)
    m_overlap: int = field(init=False)      # sup over probing cells of #branch images met
    n_overlap: int = field(init=False)      # sup over cells of #branch supports containing it
    t_overlap: float = field(init=False)    # sup over probing cells of theta-weighted overlap
    images_cell_aligned_from: Optional[int] = field(init=False)
    # the branch positions ordered by image, and the sorted image ends
    image_order: np.ndarray = field(init=False, repr=False, compare=False)
    image_lo: np.ndarray = field(init=False, repr=False, compare=False)
    image_hi: np.ndarray = field(init=False, repr=False, compare=False)
    # per branch position: whether its weight is read from the coefficient
    # tables (it is not constant), and its constant weight (0 where it is)
    tabled: np.ndarray = field(init=False, repr=False, compare=False)
    constant_weight: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.image_order, self.image_lo, self.image_hi = _sorted_images(self.branches)
        self.tabled = np.array([not b.potential.is_constant() for b in self.branches])
        self.constant_weight = np.array([0.0 if t else b.potential.value
                                         for b, t in zip(self.branches, self.tabled.tolist())])
        self.m_overlap, self.n_overlap, self.t_overlap = _measure_overlaps(self)
        self.images_cell_aligned_from = _images_aligned_from(self)

    def averages(self, branch: Branch, K: int) -> PiecewiseFn:
        """weight_averages of a branch at level K, computed once per system."""
        key = (branch.r, K)
        if key not in self.weight_avgs:
            self.weight_avgs[key] = weight_averages(self.grid, branch, K)
        return self.weight_avgs[key]

    def table(self, K: int) -> Tuple[np.ndarray, np.ndarray]:
        """coefficient_table of every branch's level-K weight averages at the
        atom exponent (positive construction for positive weights), as
        (roots, arrays) basis-ordered and stacked by branch: row i of each
        belongs to the branch at position i; computed once per system."""
        if K not in self.coeff_tables:
            tables = [coefficient_table(self.averages(b, K), self.params.theta,
                                        b.potential.positive) for b in self.branches]
            self.coeff_tables[K] = tuple(np.stack([np.concatenate(t[part]) for t in tables])
                                         for part in (0, 1))
        return self.coeff_tables[K]

    @property
    def lambda_rs2(self) -> float:
        return max(b.lambda_rs2(self.params) for b in self.branches)

    def thetas(self) -> np.ndarray:
        return np.array([b.theta(self.params) for b in self.branches])

    def c_strong(self) -> float:
        return max(rep.c_strong for rep in self.strong_reports.values())

    def ledger_rows(self) -> List[Dict]:
        return [{"r": b.r, "a_r": b.shift, "c_DC1": b.c_dc1, "c_DC2": b.c_dc2,
                 "c_DGD1": b.c_dgd1, "c_DGD2": b.c_dgd2, "c_RP": b.c_rp,
                 "theta": b.theta(self.params)} for b in self.branches]

    def ledger_csv(self) -> str:
        """ledger.csv: the ledger_rows under a header of their keys."""
        rows = self.ledger_rows()
        lines = [rows[0].keys()] + [map(repr, row.values()) for row in rows]
        return "".join(",".join(line) + "\n" for line in lines)


def _sorted_images(branches: Sequence[Branch]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The branch positions ordered by image and the sorted image ends;
    MapSpecError if two images overlap."""
    lo, hi = _ends(branches, "img").T
    order = np.argsort(lo, kind="stable")
    if np.any(hi[order][:-1] > lo[order][1:] + 1e-12):
        raise MapSpecError("branch images overlap")
    return order, lo[order], hi[order]


def _check_expanding(branches: List[Branch]) -> None:
    """Reject maps with a non-expanding piece.

    The jacobians |h'| are sampled strictly inside each branch domain, so
    maps whose expansion degenerates only at an endpoint (the slowest
    branch of the continued-fraction map, the cusp image) are accepted
    while any piece with |T'| <= 1 on a set of positive measure is refused.
    """
    for b in branches:
        if b.affine_slope is not None:
            deriv = abs(b.affine_slope)
            if deriv >= 1.0 - 1e-9:
                raise MapSpecError(
                    f"branch {b.r}: |T'| = {1 / deriv:.6f} < 1 + 1e-9 (not expanding)"
                )
            continue
        lo, hi = b.dom
        xs = lo + (hi - lo) * np.arange(1, 512) / 512       # 511 samples
        if np.any(b.jacobian(xs) >= 1.0 / (1.0 + 1e-9)):
            raise MapSpecError(f"branch {b.r}: |T'| < 1 + 1e-9 somewhere (not expanding)")


def _measure_overlaps(system: BranchSystem) -> Tuple[int, int, float]:
    """(m_overlap, n_overlap, t_overlap) of a system's branches."""
    grid = system.grid
    thetas = system.thetas()
    K = grid.max_level
    img_lo, img_hi = _ends(system.branches, "img").T
    m_best, t_best = 0, 0.0
    for k in range(1, min(K, system.probe_level) + 1):
        # overlaps lists the images in branch order: a cell's thetas add
        # up in that order
        piece, j, lo, hi, _ = grid.overlaps(k, img_lo, img_hi)
        met = hi - lo > 1e-14
        t_here = np.bincount(j[met], weights=thetas[piece[met]])
        m_best = max(m_best, int(np.bincount(j[met]).max(initial=0)))
        t_best = max(t_best, float(t_here.max(initial=0.0)))
    # support-side overlap: count branch domains containing a full cell;
    # the deepest probed level is decisive
    kk = min(K, system.probe_level)
    i0, i1 = grid.contained_runs(kk, *_ends(system.branches, "dom").T)
    # the most runs meet at the start of one of them
    starts = i0[i1 > i0]
    n_best = int(np.sum((i0[:, None] <= starts) & (starts < i1[:, None]), axis=0).max(initial=0))
    return m_best, n_best, t_best


def _images_aligned_from(system: BranchSystem) -> Optional[int]:
    """Smallest t such that every cell at levels >= t sits inside one image."""
    grid = system.grid
    ends = {e for b in system.branches for e in b.img if 0 < e < 1}
    levels = range(min(grid.max_level, system.probe_level) + 1)
    for t in range(0, min(grid.max_level, 6) + 1):
        if all(abs(e / grid.width(k) - round(e / grid.width(k))) <= 1e-9
               for k in levels[t:] for e in ends):
            return t
    return None


# Number of forward images followed from each branch-domain endpoint.
BREAKPOINT_ORBIT_DEPTH = 4


def _forward_point(branches: Sequence[Branch], x: float) -> Optional[float]:
    """T(x), or None where no branch image contains x."""
    for b in branches:
        lo, hi = b.img
        if lo <= x < hi:
            return float(b.h_inv(x))
    return None


def density_breakpoints(branches: Sequence[Branch], grid: Grid) -> List[float]:
    """Points off the bottom-level grid edges where a density can jump.

    The transfer of a density jumps where a branch domain ends, i.e. at the
    interior endpoints of the images T(I_r), and further transfers carry
    each jump along its forward orbit.  The endpoints come first, then
    their images depth by depth; an orbit stops at a bottom-level grid
    edge, at a point already listed, where no branch is defined, or after
    BREAKPOINT_ORBIT_DEPTH images.
    """
    n = grid.n_cells(grid.max_level)
    tol = CONTAIN_TOL / n

    def off_grid(x: float) -> bool:
        return 0.0 < x < 1.0 and abs(x * n - round(x * n)) > CONTAIN_TOL

    frontier = sorted({e for b in branches for e in b.dom if off_grid(e)})
    out: List[float] = []
    for _ in range(BREAKPOINT_ORBIT_DEPTH + 1):
        images = []
        for x in frontier:
            if any(abs(x - y) <= tol for y in out):
                continue
            out.append(x)
            y = _forward_point(branches, x)
            if y is not None and off_grid(y):
                images.append(y)
        frontier = images
    return out


def working_grid(spec: MapSpec, grid: Grid) -> Grid:
    """The grid of make_map(spec, grid, ...): cut at the map's density breakpoints."""
    return grid.with_cuts(density_breakpoints(_build_branches(spec), grid))


def make_map(spec: MapSpec, grid: Grid, params: BesovParams,
             probe_level: int = PROBE_LEVEL) -> BranchSystem:
    """Build a branch system for a named map with its measured ledger.

    The returned system's grid is the given one with its bottom cells cut
    at the map's density breakpoints (density_breakpoints, Grid.with_cuts);
    maps whose branch domains end on grid edges keep the uniform grid.
    Probes every cell inside each branch image up to probe_level for the
    scaling constants, decomposes forward images for the distortion
    constants, and measures the weight regularity on the finer atom scale;
    then builds each branch once with its whole ledger.
    """
    params.validate()
    branches = [replace(b, potential=_potential(b, spec)) for b in _build_branches(spec)]
    _check_expanding(branches)
    grid = grid.with_cuts(density_breakpoints(branches, grid))
    _sorted_images(branches)    # refuse overlapping images before probing
    probe_level, K = min(probe_level, grid.max_level), grid.max_level

    alpha = 1.0 - params.s * params.p
    # a failing fit raises before any other probe runs
    fits = [_fit_scaling(grid, b, *samples)
            for b, samples in zip(branches, _scaling_samples(grid, branches, probe_level))]
    tops = [min(probe_level, 8 if b.affine_slope is None else probe_level) for b in branches]
    c_dgd1s = _distortion_constants(grid, branches, alpha, tops)
    weight_avgs = {(b.r, K): weight_averages(grid, b, K) for b in branches}
    levels = _regularities(list(weight_avgs.values()), branches, params, min(6, probe_level))
    reports = strong_regularities(grid, [b.img for b in branches],
                                  1.0 - params.beta * params.p, t=0)
    strong_reports = {b.r: rep for b, rep in zip(branches, reports)}
    c_dgd2 = grid.arity ** (-alpha)
    branches = [replace(b, shift=shift, c_dc1=c_dc1, c_dc2=c_dc2, c_dgd1=c_dgd1,
                        c_dgd2=c_dgd2, c_rp=max(worst))
                for b, (shift, c_dc1, c_dc2), c_dgd1, worst in zip(branches, fits, c_dgd1s, levels)]
    system = BranchSystem(spec=spec, grid=grid, params=params, branches=branches,
                          strong_reports=strong_reports, probe_level=probe_level,
                          weight_avgs=weight_avgs)
    if system.lambda_rs2 >= 1.0:
        raise AssumptionError(f"scaling/distortion ratio sup is {system.lambda_rs2:.6f} >= 1; "
                              "the branch family is not uniformly contracting on the atom scale")
    return system

