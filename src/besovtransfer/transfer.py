"""The transfer operator on atom expansions.

Two independent routes compute the action at working resolution:

* analytic: atom by atom.  Each atom is sliced along the branch domains,
  every slice is pushed forward, the forward image is decomposed into
  cells, and the weight is re-expanded over each cell's subtree.  This
  route exercises the whole constant ledger and produces a certified
  norm bound for the output.
* numeric: a sparse operator on bottom-level cell averages, built from
  exact interval arithmetic of branch images (exact integrals for
  jacobian and constant weights).  This is the trustworthy oracle.

Mass that the constructions would place below working resolution is
re-aggregated onto the bottom-level cells covering it, with exact
integrals, so both routes agree at working resolution and mass is
conserved to rounding; the induced defect is tracked for every column
and reported with all downstream bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .atoms import (
    AtomicRep,
    BesovParams,
    PiecewiseFn,
    accumulate,
    basis_cells,
    basis_size,
    canonical_rep,
    coefficient_norm,
    coefficient_norm_vector,
    evaluate,
    evaluate_vector,
    level_norms,
    level_offsets,
    merge_repeats,
    subtree_indices,
)
from .domains import Cover, c_dom, cover
from .dynamics import Branch, BranchSystem, _ends, _probe_cells, per_branch
from .errors import AssumptionError, CapacityError, CellNotFoundError, ModeMismatchError
from .grid import Grid, python_pow

if TYPE_CHECKING:
    import scipy.sparse as sp

# defaults of a run's caps, read by the keyword defaults below and by the CLI:
# the largest atom basis assemble_matrix builds, and the head/tail split level t
BASIS_CAP = 8191
SPLIT_LEVEL = 1


@dataclass(frozen=True)
class Constants:
    """Configured companion constants; every emitted bound is conditional
    on these values and violations are flagged, never silently absorbed."""

    c_gc: float = 4.0
    c_gbs: float = 2.0
    c_gbva: float = 1.0
    c_gsr: Optional[float] = None   # None: closed form from the slicing kernel

    def gsr(self, grid: Grid, params: BesovParams) -> Tuple[float, str]:
        """C_GSR and its formula: the configured value, or the geometric
        series of the re-expansion kernel over the grid's largest
        child/parent measure ratio (1/arity off the cuts)."""
        if self.c_gsr is not None:
            return self.c_gsr, "configured"
        if grid.cuts:
            return 1.0 / (1.0 - grid.c_g2 ** params.theta), "1/(1 - c_G2**(1/p - s))"
        return 1.0 / (1.0 - grid.arity ** (-params.theta)), "1/(1 - arity**-(1/p - s))"


def _pconj_power(values: np.ndarray, p: float) -> float:
    """(sum v**p')**(1/p') with the dual exponent; sup when p = 1."""
    if p == 1:
        return float(np.max(values, initial=0.0))
    pc = p / (p - 1.0)
    return float(np.sum(values ** pc) ** (1.0 / pc))


def _n_power(n: int, p: float) -> float:
    """n**(1/p'), set to 1 when p = 1 (even for unbounded overlap counts)."""
    if p == 1:
        return 1.0
    return float(n) ** ((p - 1.0) / p)


# -- slicing ------------------------------------------------------------------


@dataclass
class SliceCertificate:
    c_rs1: float
    mode: str                      # which inequality form was certified
    c_fr: float
    c_es: float
    formulas: Dict[str, str] = field(default_factory=dict)


def slicing_certificates(system: BranchSystem, constants: Constants,
                         t: int = SPLIT_LEVEL) -> SliceCertificate:
    """Certified slicing constants from the measured ledger.

    Head (levels < t) and tail (levels >= t) constants come from the
    overlap-count and theta-sum forms; the smaller applicable candidate
    wins and its origin is recorded as the certificate mode.  The grid
    factor is the geometric series of the re-expansion kernel.
    """
    params = system.params
    p = params.p
    grid = system.grid
    thetas = system.thetas()
    c_gsr, gsr_formula = constants.gsr(grid, params)
    c_str = system.c_strong()
    sum_theta = float(thetas.sum())
    sup_theta = float(thetas.max())
    theta_dual = _pconj_power(thetas, p)
    n_pow = _n_power(system.n_overlap, p)
    n_br = len(system.branches)

    # branch images are disjoint (BranchSystem checks it)
    tail_cands = {
        "core1": system.m_overlap * c_str ** (1 / p) * theta_dual,
        "core2": n_pow * c_str ** (1 / p) * system.t_overlap,
        "tail1": c_str ** (1 / p) * sum_theta,
    }
    aligned = system.images_cell_aligned_from
    if aligned is not None and aligned <= t:
        tail_cands["tail2"] = n_pow * c_str ** (1 / p) * sup_theta
    tail_mode, tail_val = min(tail_cands.items(), key=lambda kv: kv[1])

    head_factor = (c_str * grid.c_g1 ** (-t)) ** (1 / p)
    head_cands = {
        "core1": n_br * head_factor * theta_dual,
        "core2": n_pow * n_br * sup_theta * head_factor,
    }
    head_mode, head_val = min(head_cands.items(), key=lambda kv: kv[1])

    whole_cands = {f"split({head_mode}+{tail_mode})": head_val + tail_val,
                   "tail1": c_str ** (1 / p) * sum_theta}
    whole_mode, whole_val = min(whole_cands.items(), key=lambda kv: kv[1])

    hiip = {"core1": "hiip1", "tail1": "hiip1", "core2": "hiip2", "tail2": "hiip2"}
    formulas = {
        "C_GSR": gsr_formula,
        "C_FR": "C_GSR * min(#branches*(c_strong*c_G1**-t)**(1/p)*(sum theta_r**p')**(1/p'), "
                "N**(1/p')*#branches*sup(theta)*(c_strong*c_G1**-t)**(1/p))",
        "C_ES": "C_GSR * min(M*c_strong**(1/p)*(sum theta_r**p')**(1/p'), "
                "N**(1/p')*c_strong**(1/p)*T, c_strong**(1/p)*sum(theta_r), "
                "N**(1/p')*c_strong**(1/p)*sup(theta))",
        "C_RS1": "min(C_FR + C_ES, C_GSR*c_strong**(1/p)*sum(theta_r))",
    }
    return SliceCertificate(
        c_rs1=c_gsr * whole_val,
        mode=hiip.get(whole_mode.split("(")[0], hiip.get(tail_mode, "hiip1")),
        c_fr=c_gsr * head_val,
        c_es=c_gsr * tail_val,
        formulas=formulas,
    )


class _Slices(NamedTuple):
    """A batch of atoms sliced along the branch images (see _slice_atoms)."""

    atom: np.ndarray         # per (atom, branch) pair with a nonempty slice:
    branch: np.ndarray       # its atom, the branch position and the atom's
    amp: np.ndarray          # function value
    pair: np.ndarray         # per slice cell P, ordered by pair: its pair,
    level: np.ndarray        # its cell, and its coefficient, the atom's
    index: np.ndarray        # times (|P|/|Q|)**(1/p-s)
    coeff: np.ndarray
    defect_pair: np.ndarray  # what the decompositions leave below level K
    defect_lo: np.ndarray
    defect_hi: np.ndarray


def _slice_atoms(system: BranchSystem, level, index, coeff, K: int) -> _Slices:
    """Slice a batch of atoms along the branch images.

    Atom i lives on cell (level[i], index[i]) with coefficient coeff[i].
    Its (atom, branch) pairs with a nonempty slice come atom by atom in
    branch order, found by bisecting the sorted images.  A slice's cells
    are the atom's cell where the image holds it whole, else the greedy
    decomposition of the slice down to level K: one `cover` call for the
    whole batch.
    """
    grid, theta = system.grid, system.params.theta
    q_level, q_index = np.asarray(level, dtype=np.int64), np.asarray(index, dtype=np.int64)
    coeff = np.asarray(coeff)
    q_lo, q_hi, q_meas = grid.extents(q_level, q_index)
    first = np.searchsorted(system.image_hi, q_lo, side="right")
    count = np.maximum(np.searchsorted(system.image_lo, q_hi, side="left") - first, 0)
    atom = np.repeat(np.arange(q_lo.size), count)
    pos = np.arange(atom.size) - np.repeat(np.cumsum(count) - count - first, count)
    s_lo = np.maximum(q_lo[atom], system.image_lo[pos])
    s_hi = np.minimum(q_hi[atom], system.image_hi[pos])
    br = system.image_order[pos]
    order = np.lexsort((br, atom))
    order = order[s_hi[order] - s_lo[order] > 1e-15]
    atom, br, s_lo, s_hi = atom[order], br[order], s_lo[order], s_hi[order]
    amp = coeff[atom] * python_pow(q_meas, -theta)[atom]

    part = np.abs((s_hi - s_lo) - q_meas[atom]) >= 1e-15
    cov = cover(grid, s_lo[part], s_hi[part], K)
    part_pair = np.flatnonzero(part)
    p_pair = np.concatenate([np.flatnonzero(~part), part_pair[cov.piece]])
    p_level = np.concatenate([q_level[atom[~part]], cov.level])
    p_index = np.concatenate([q_index[atom[~part]], cov.index])
    order = np.argsort(p_pair, kind="stable")
    p_pair, p_level, p_index = p_pair[order], p_level[order], p_index[order]
    wgt = python_pow(grid.extents(p_level, p_index)[2] / q_meas[atom[p_pair]], theta)
    return _Slices(atom, br, amp, p_pair, p_level, p_index, coeff[atom[p_pair]] * wgt,
                  part_pair[cov.defect_piece], cov.defect_lo, cov.defect_hi)


@dataclass
class SlicedRep:
    branch_reps: Dict[int, AtomicRep]
    measured_lhs: Dict[str, float]
    input_norm: float
    certificate: SliceCertificate


def slice_rep(rep: AtomicRep, system: BranchSystem,
              constants: Constants = Constants()) -> SlicedRep:
    """Re-expand an atom expansion so every atom lives inside one branch image.

    The restriction of an atom to a cell P of the decomposition of its
    support intersected with the image carries the weight
    (|P|/|Q|)**(1/p-s); slivers below resolution are re-aggregated onto
    bottom cells with exact cell averages.  Weights are nonnegative, so
    positivity propagates.
    """
    grid, params = system.grid, system.params
    K = grid.max_level
    sl = _slice_atoms(system, *rep.cells(), rep.value, K)
    # per slice its cells, then the bottom cells its defect meets
    piece, j, a_, b_, w_j = grid.overlaps(K, sl.defect_lo, sl.defect_hi)
    pair = np.concatenate([sl.pair, sl.defect_pair[piece]])
    order = np.argsort(pair, kind="stable")
    off, n = np.asarray(level_offsets(grid, K)), basis_size(grid, K)
    index = np.concatenate([off[sl.level] + sl.index, off[K] + j])[order]
    coef = np.concatenate([sl.coeff, sl.amp[sl.defect_pair[piece]] * ((b_ - a_) / w_j)
                           * w_j ** params.theta])[order]
    # one entry per (branch position, basis index)
    key, coef = merge_repeats(sl.branch[pair[order]] * n + index, coef)
    branch, index = key // n, key % n
    reps = {b.r: AtomicRep(params, grid, index[branch == i], coef[branch == i],
                           positive_flag=rep.positive_flag)
            for i, b in enumerate(system.branches)}

    # the measured sides, from the masses sum |coef|**p per (level, branch);
    # hypot is Python's abs of a complex, numpy's abs can differ in the last bit
    p = params.p
    thetas = [b.theta(params) for b in system.branches]
    levels, at = np.unique(basis_cells(grid, index)[0], return_inverse=True)
    mod = np.hypot(coef.real, coef.imag)
    masses = np.bincount(at * len(thetas) + branch, weights=python_pow(mod, p),
                         minlength=levels.size * len(thetas)).reshape(-1, len(thetas)).tolist()
    lhs1, lhs2 = level_norms(np.array([
        [sum(t * m ** (1 / p) for t, m in zip(thetas, row)) for row in masses],
        [sum(t ** p * m for t, m in zip(thetas, row)) ** (1 / p) for row in masses]]),
        params.q).tolist()

    return SlicedRep(
        branch_reps=reps,
        measured_lhs={"hiip1": lhs1, "hiip2": lhs2 * _n_power(system.n_overlap, p)},
        input_norm=coefficient_norm(rep),
        certificate=slicing_certificates(system, constants),
    )


# -- analytic route -----------------------------------------------------------


class Images(NamedTuple):
    """The forward images [lo, hi) transfer_atom decomposes, with their Cover:
    per image its branch position and its slice cell's level and measure."""

    branch: np.ndarray
    level: np.ndarray
    meas: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    cover: Cover


class Slivers(NamedTuple):
    """Below-resolution slivers: the forward image [lo, hi) of a piece of
    an atom under the branch at position `branch` of system.branches,
    where the atom's function value is amp."""

    atom: np.ndarray
    branch: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    amp: np.ndarray


def transfer_atom(system: BranchSystem, level, index, coeff=1.0, K: Optional[int] = None
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Images, Slivers]:
    """Output coefficients of the transfer applied to a batch of atoms.

    Atom i lives on cell (level[i], index[i]) with coefficient coeff[i]
    (the three broadcast).  Each atom is sliced along the branch images it
    meets (found by bisecting the sorted images), the slice cells are
    pushed forward and their images decomposed, two `cover` calls for the
    whole batch.  Constant weights produce a single coefficient per image
    cell, smooth weights spread over the cell subtrees via the martingale
    construction (or its positive variant for nonnegative weights), read
    from the branches' stacked coefficient tables (BranchSystem.table).

    Returns per output coefficient its atom (position in the batch), its
    basis index (level offsets up to K) and value, in the order the atom
    by atom pipeline produces them (atom, branch, slice cell, image cell,
    subtree), with repeats where images overlap; the forward images; and
    the slivers in that order: truncation happens at level K (default: the
    grid resolution), and what the decompositions leave below it is
    returned as slivers, which _reaggregate puts on the bottom cells.
    """
    grid, params = system.grid, system.params
    K = grid.max_level if K is None else K
    theta = params.theta
    off = np.asarray(level_offsets(grid, K))
    q_level, q_index, coeff = (np.ravel(x) for x in np.broadcast_arrays(level, index, coeff))
    sl = _slice_atoms(system, q_level, q_index, coeff, K)
    p_atom, p_br, p_level = sl.atom[sl.pair], sl.branch[sl.pair], sl.level
    p_lo, p_hi, p_meas = grid.extents(p_level, sl.index)
    amp = sl.coeff * python_pow(p_meas, -theta)     # the atom's value

    v_lo, v_hi = per_branch(system.branches, p_br, Branch.forward_interval, p_lo, p_hi)
    f = np.flatnonzero(v_hi - v_lo > 0)
    cov_v = cover(grid, v_lo[f], v_hi[f], K)
    images = Images(p_br[f], p_level[f], p_meas[f], v_lo[f], v_hi[f], cov_v)

    # image cells W: one coefficient each for constant weights, the whole
    # subtree from the branch's coefficient table otherwise
    c_p = f[cov_v.piece]
    c_br, c_level, c_index = p_br[c_p], cov_v.level, cov_v.index
    tabled = np.array([not b.potential.is_constant() for b in system.branches], dtype=bool)
    sub = off[K + 1 - np.arange(K + 1)]        # subtree sizes down to K, by level
    size = np.where(tabled[c_br], sub[c_level], 1)
    start = np.cumsum(size) - size
    flat = ~tabled[c_br]
    g0 = np.array([b.potential.value if b.potential.is_constant() else 0.0
                   for b in system.branches])
    roots, table = ([], np.zeros(0)) if flat.all() else system.table(K)
    rows = np.empty(int(size.sum()), dtype=np.int64)
    vals = np.empty(rows.size, dtype=np.result_type(amp, g0, table))
    keep = np.ones(rows.size, dtype=bool)
    if flat.any():
        rows[start[flat]] = off[c_level[flat]] + c_index[flat]
        vals[start[flat]] = amp[c_p[flat]] * g0[c_br[flat]] * python_pow(
            grid.extents(c_level[flat], c_index[flat])[2], theta)
    for k in np.unique(c_level[~flat]).tolist():
        sel = np.flatnonzero(~flat & (c_level == k))
        subtree = subtree_indices(grid, K, k, c_index[sel])
        coefs = table[c_br[sel][:, None], subtree]           # whole-tree coefficients
        coefs[:, 0] = roots[k][c_br[sel], c_index[sel]]      # each subtree's root
        at = start[sel][:, None] + np.arange(sub[k])
        rows[at], vals[at], keep[at] = subtree, amp[c_p[sel]][:, None] * coefs, coefs != 0.0
    out_atom = np.repeat(p_atom[c_p], size)[keep]

    # slivers: per (atom, branch) pair those of its image cells, then the
    # slice's own, pushed forward
    d_pair = sl.defect_pair
    d_lo, d_hi = per_branch(system.branches, sl.branch[d_pair], Branch.forward_interval,
                            sl.defect_lo, sl.defect_hi)
    v_p = f[cov_v.defect_piece]
    pair = np.concatenate([sl.pair[v_p], d_pair])
    order = np.argsort(pair, kind="stable")
    slivers = Slivers(sl.atom[pair][order], sl.branch[pair][order],
                      np.concatenate([cov_v.defect_lo, d_lo])[order],
                      np.concatenate([cov_v.defect_hi, d_hi])[order],
                      np.concatenate([amp[v_p], sl.amp[d_pair]])[order])
    return out_atom, rows[keep], vals[keep], images, slivers


def _reaggregate(system: BranchSystem, K: int, slivers: Slivers, n_atoms: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Level-K coefficients of the slivers of a batch of atoms.

    The exact weight integral over each bottom cell a sliver meets is
    assigned to that cell.  Returns COO arrays (atom i, cell j,
    coefficient) and, per atom, the L1 mass so re-aggregated (its
    truncation defect).  The slivers meet the cells in one overlaps call;
    the weight integrals and coefficients come branch by branch, in the
    order the branches first appear among the slivers, and an atom's
    defect adds up its per-branch sums in that order.
    """
    grid, theta = system.grid, system.params.theta
    present, first = np.unique(slivers.branch, return_index=True)
    present = present[np.argsort(first)]
    rank = np.zeros(len(system.branches), dtype=np.int64)
    rank[present] = np.arange(present.size)
    piece, j, a_, b_, w_j = grid.overlaps(K, slivers.lo, slivers.hi)
    order = np.argsort(rank[slivers.branch[piece]], kind="stable")
    piece, j, a_, b_, w_j = (x[order] for x in (piece, j, a_, b_, w_j))
    bounds = np.searchsorted(rank[slivers.branch[piece]], np.arange(present.size + 1))
    mass = np.concatenate([np.zeros(0)] + [
        system.branches[r].weight_integral(a_[i0:i1], b_[i0:i1])
        for r, i0, i1 in zip(present.tolist(), bounds[:-1].tolist(), bounds[1:].tolist())])
    keep = mass != 0.0
    piece, j, mass, w_j = piece[keep], j[keep], mass[keep], w_j[keep]
    atom, amp = slivers.atom[piece], slivers.amp[piece]
    defect = np.zeros(n_atoms)
    if present.size:
        sums = np.bincount(atom * present.size + rank[slivers.branch[piece]],
                           weights=np.abs(amp) * mass, minlength=n_atoms * present.size)
        defect = np.cumsum(sums.reshape(n_atoms, -1), axis=1)[:, -1]
    return atom, j, amp * (mass / w_j) * w_j ** theta, defect


def apply_transfer(system: BranchSystem, rep: AtomicRep, mode: str = "analytic",
                   constants: Constants = Constants(),
                   cross_check: bool = False) -> AtomicRep:
    """Apply the transfer operator to an atom expansion.

    analytic mode pushes atoms forward, sums every atom's coefficients and
    the re-aggregated slivers into one basis-ordered vector, and carries
    the certified norm bound in .meta; numeric mode applies the bin
    operator (a CellOperator, built once per system and level) to the
    evaluated expansion and re-expands.  Neither route loads SciPy.  With
    cross_check the two are compared in L1 at working resolution and a
    mismatch beyond 1e-9 * (1 + |numeric output|_L1) is a hard error; both
    routes re-aggregate the same truncation defect, which is reported in
    .meta["defect_l1"].
    """
    grid, params = system.grid, system.params
    if mode not in ("analytic", "numeric"):
        raise ValueError("mode must be 'analytic' or 'numeric'")

    K = grid.max_level
    result = None
    defect_l1 = 0.0
    if mode == "analytic" or cross_check:
        _, idx, val, _, slivers = transfer_atom(system, *rep.cells(), rep.value)
        # the whole expansion's slivers re-aggregate as those of one atom
        _, cells, coefs, defect = _reaggregate(
            system, K, slivers._replace(atom=np.zeros_like(slivers.atom)), 1)
        vec = accumulate(np.concatenate([idx, level_offsets(grid, K)[K] + cells]),
                         np.concatenate([val, coefs]), basis_size(grid, K))
        defect_l1 = float(defect[0])
        positive = bool(rep.positive_flag
                        and all(b.potential.positive for b in system.branches)
                        and np.all(np.isreal(vec)) and np.all(np.real(vec) >= -1e-12))
        result = AtomicRep.from_vector(params, grid, vec)
        result.positive_flag = positive
        cert = slicing_certificates(system, constants)
        result.meta.update({
            "certificate_factor": constants.c_gbs * c_d_constant(system) * cert.c_rs1,
            "c_rs1": cert.c_rs1,
            "mode": cert.mode,
            "input_norm": coefficient_norm(rep),
            "output_norm": coefficient_norm_vector(vec, grid, K, params),
            "defect_l1": defect_l1,
        })
    if mode == "numeric" or cross_check:
        g = transfer_numeric(system, evaluate(rep, K))
        if cross_check and result is not None:
            d = float(grid.integrate(K, np.abs(evaluate_vector(vec, grid, K, params) - g.values)))
            tol = 1e-9 * (1.0 + g.lp_norm(1))
            if d > tol:
                raise ModeMismatchError(
                    f"analytic and numeric outputs differ by {d:.3e} > {tol:.3e}"
                )
            result.meta["cross_check_l1"] = d
        if mode == "numeric":
            result = canonical_rep(g, params)
            result.meta["defect_l1"] = defect_l1
    return result


def c_d_constant(system: BranchSystem) -> float:
    """Level-convolution constant 2 / (1 - lambda_rs2**gamma)."""
    lam = system.lambda_rs2
    gamma = system.params.gamma
    if lam >= 1.0:
        raise AssumptionError("lambda_rs2 >= 1: convolution constant undefined")
    if gamma == 0.0:
        raise AssumptionError("gamma = 0 makes the level convolution unsummable")
    return 2.0 / (1.0 - lam ** gamma)


# -- numeric route ------------------------------------------------------------


class CellOperator(NamedTuple):
    """The bin operator U in jagged-diagonal form.

    The rows are ranked longest first (row i has rank rank[i]).  Diagonal
    k holds entry k, in column order, of every row longer than k, taken by
    rank: it is col[span[k]:span[k + 1]] and data[span[k]:span[k + 1]],
    and it covers the ranks below span[k + 1] - span[k].  The first `full`
    diagonals cover every row.

    U @ x takes one product per entry.  It sums the full diagonals as one
    reduction over the first axis, which adds them one after another from
    0, then adds each shorter diagonal in turn.  So each row's products
    are added in column order from 0, as scipy's CSR product adds them,
    and the two agree bit for bit.
    """

    rank: np.ndarray
    col: np.ndarray
    data: np.ndarray
    span: Tuple[int, ...]
    full: int

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rank.size,) * 2

    def rows(self) -> np.ndarray:
        """The row of each entry."""
        by_rank = np.argsort(self.rank)
        return by_rank[np.arange(self.col.size) - np.repeat(self.span[:-1], np.diff(self.span))]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n, full = self.rank.size, self.full
        prod = self.data * np.take(x, self.col)
        acc = np.add.reduce(prod[:full * n].reshape(full, n), axis=0, initial=0.0)   # by rank
        for lo, hi in zip(self.span[full:], self.span[full + 1:]):
            head = acc[:hi - lo]
            np.add(head, prod[lo:hi], out=head)
        return acc.take(self.rank)


def build_cell_operator(system: BranchSystem, K: Optional[int] = None) -> CellOperator:
    """The bin operator on bottom-cell averages (exact interval arithmetic).

    Entry (c, j) is the weight integral over target cell c of the forward
    image of source cell j, divided by the measure of cell c.  A source
    cell that meets several branch images has its branches' entries on a
    target summed in branch order.
    """
    grid = system.grid
    K = grid.max_level if K is None else K
    n = grid.n_cells(K)
    rows, cols, vals = [], [], []
    for b in system.branches:
        _, j, a_, b_, _ = grid.overlaps(K, *b.img)
        vlo, vhi = b.forward_interval(a_, b_)
        ok = vhi - vlo > 0
        piece, c, ca, cb, w_c = grid.overlaps(K, vlo[ok], vhi[ok])
        wt = b.weight_integral(ca, cb) / w_c
        nz = wt != 0.0
        rows.append(c[nz])
        cols.append(j[ok][piece[nz]])
        vals.append(wt[nz])
    key, inv = np.unique(np.concatenate(rows) * n + np.concatenate(cols), return_inverse=True)
    val = accumulate(inv, np.concatenate(vals), key.size)
    row = key // n
    count = np.bincount(row, minlength=n)
    pos = np.arange(key.size) - np.repeat(np.cumsum(count) - count, count)   # place in its row
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(-count, kind="stable")] = np.arange(n)
    width = np.bincount(pos)
    span = np.concatenate(([0], np.cumsum(width)))
    at = span[pos] + rank[row]   # diagonal pos, place rank[row] in it
    col, data = np.empty_like(key), np.empty_like(val)
    col[at], data[at] = key % n, val
    return CellOperator(rank, col, data, tuple(span.tolist()), int(np.sum(width == n)))


def cell_operator(system: BranchSystem, K: int) -> CellOperator:
    """build_cell_operator(system, K), built once per system and level."""
    if K not in system.cell_ops:
        system.cell_ops[K] = build_cell_operator(system, K)
    return system.cell_ops[K]


def transfer_numeric(system: BranchSystem, f: PiecewiseFn) -> PiecewiseFn:
    """Numeric transfer of a working-resolution function."""
    return PiecewiseFn(f.grid, f.level, cell_operator(system, f.level) @ f.values)


# -- coefficient split and matrix assembly -------------------------------------


@dataclass
class BoundLedger:
    """Certified constants with their defining formulas."""

    c_gc: float
    c_gbs: float
    c_gbva: float
    c_gsr: float
    c_d: float
    c_fr: float
    c_es: float
    c_rs1: float
    mode: str
    lambda_rs2: float
    essential_bound: float
    finite_rank_bound: float
    operator_bound: float
    transfer_factor: float
    formulas: Dict[str, str]
    measured: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict:
        return {
            "constants": {"C_GC": self.c_gc, "C_GBS": self.c_gbs,
                          "C_GBVA": self.c_gbva, "C_GSR": self.c_gsr},
            "C_D": self.c_d, "C_FR": self.c_fr, "C_ES": self.c_es,
            "C_RS1": self.c_rs1, "mode": self.mode,
            "lambda_RS2": self.lambda_rs2,
            "essential_bound": self.essential_bound,
            "finite_rank_bound": self.finite_rank_bound,
            "operator_bound": self.operator_bound,
            "transfer_factor": self.transfer_factor,
            "formulas": self.formulas,
            "measured": self.measured,
            "provenance": {
                "C_GC": "configured companion constant",
                "C_GBS": "configured companion constant",
                "C_GBVA": "configured companion constant",
                "C_GSR": "configured override"
                         if self.formulas.get("C_GSR") == "configured"
                         else "closed-form grid factor",
                "C_D": "derived from the measured branch ledger",
                "C_FR": "derived from measured strong-regularity and theta",
                "C_ES": "derived from measured strong-regularity and theta",
                "lambda_RS2": "measured scaling/distortion suprema",
            },
        }


def bound_ledger(system: BranchSystem, constants: Constants, t: int) -> BoundLedger:
    cert = slicing_certificates(system, constants, t=t)
    c_d = c_d_constant(system)
    c_gsr, _ = constants.gsr(system.grid, system.params)
    formulas = dict(cert.formulas)
    formulas.update({
        "C_D": "2/(1 - lambda_RS2**gamma)",
        "lambda_RS2": "sup_r max(c_DC2**eps, c_DGD2**(1/p))",
        "theta": "c_DC1**eps * c_RP * c_DGD1**(1/p) "
                 "* max(c_DC2**eps, c_DGD2**(1/p))**(a_r*(1-gamma))",
        "essential_bound": "C_GBS * C_D * C_ES * C_GC",
        "finite_rank_bound": "C_GBS * C_D * C_FR * C_GC",
        "operator_bound": "C_GBS * C_D * (C_FR + C_ES) * C_GC",
        "transfer_factor": "C_GBS * C_D * C_RS1",
        "t0": "p/(1 - s*p + delta*p)",
    })
    return BoundLedger(
        c_gc=constants.c_gc, c_gbs=constants.c_gbs, c_gbva=constants.c_gbva,
        c_gsr=c_gsr, c_d=c_d, c_fr=cert.c_fr, c_es=cert.c_es, c_rs1=cert.c_rs1,
        mode=cert.mode, lambda_rs2=system.lambda_rs2,
        essential_bound=constants.c_gbs * c_d * cert.c_es * constants.c_gc,
        finite_rank_bound=constants.c_gbs * c_d * cert.c_fr * constants.c_gc,
        operator_bound=constants.c_gbs * c_d * (cert.c_fr + cert.c_es) * constants.c_gc,
        transfer_factor=constants.c_gbs * c_d * cert.c_rs1,
        formulas=formulas,
    )


@dataclass
class TransferMatrix:
    """Finite truncation of the transfer operator on the atom basis."""

    system: BranchSystem
    K: int
    t: int
    matrix: sp.csc_matrix
    ledger: BoundLedger
    constants: Constants

    @property
    def grid(self) -> Grid:
        return self.system.grid

    @property
    def params(self) -> BesovParams:
        return self.system.params

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def to_triplets(self) -> str:
        """matrix.csv: one line per stored entry, by row, then column; a
        value with no imaginary part prints as a float."""
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        text = [repr(v.real) if v.imag == 0 else repr(v) for v in coo.data[order].tolist()]
        return "row,col,value\n" + "".join([f"{r},{c},{t}\n" for r, c, t in zip(
            coo.row[order].tolist(), coo.col[order].tolist(), text)])


def _widen_ledger(system: BranchSystem, images: List[Images]) -> BranchSystem:
    """A copy of the system with each branch's constants widened to all its
    forward images: the shift drops to the smallest |level - k0| (k0 the
    image's first level holding a cell, down to 16 levels below the grid),
    c_dc1 is multiplied by the largest excess of |P|/|image| over
    c_dc1 * c_dc2**shift, and c_dgd1 rises to the largest c_dom, and to at
    least 1."""
    grid, branches = system.grid, system.branches
    br, level, meas, lo, hi = (np.concatenate(x) for x in zip(*(im[:5] for im in images)))
    k0 = np.concatenate([im.cover.k0 for im in images])
    # an image holding no cell down to the truncation level has a deeper k0
    deep = np.flatnonzero(k0 < 0)
    k0[deep] = grid.containment_levels(lo[deep], hi[deep], grid.max_level + 16)
    if np.any(k0 < 0):
        raise CellNotFoundError("a forward image holds no cell up to level "
                                f"{grid.max_level + 16}")
    shift = np.abs(level - k0)
    alpha = 1.0 - system.params.s * system.params.p
    dom = np.concatenate([c_dom(grid, im.cover, im.lo, im.hi, alpha) for im in images])
    # Python's pow, once per (branch, shift)
    pairs, at = np.unique(np.stack((br, shift)), axis=1, return_inverse=True)
    bound = np.array([branches[r].c_dc1 * branches[r].c_dc2 ** sh
                      for r, sh in pairs.T.tolist()])[at.ravel()]
    ratio = meas / (hi - lo)
    over = ratio > bound * (1 + 1e-12)
    excess, shifts = np.ones(len(branches)), np.array([b.shift for b in branches])
    c_dgd1 = np.array([b.c_dgd1 for b in branches])
    np.maximum.at(excess, br[over], ratio[over] / bound[over])
    np.minimum.at(shifts, br, shift)
    np.maximum.at(c_dgd1, br, np.maximum(dom, 1.0))
    return replace(system, branches=[
        replace(b, shift=sh, c_dc1=b.c_dc1 * x, c_dgd1=d)
        for b, sh, x, d in zip(branches, shifts.tolist(), excess.tolist(), c_dgd1.tolist())])


def assemble_matrix(system: BranchSystem, K: Optional[int] = None, t: int = SPLIT_LEVEL,
                    constants: Constants = Constants(),
                    basis_cap: int = BASIS_CAP) -> TransferMatrix:
    """Column-by-column assembly of the truncated operator.

    Column Q holds the analytic-route coefficients of the transfer of the
    atom on Q, truncated at level K with sliver re-aggregation.  The
    result's system is a copy of the given one widened to the forward
    images of all levels (_widen_ledger), and its ledger is evaluated there.
    """
    import scipy.sparse as sp
    grid = system.grid
    K = grid.max_level if K is None else K
    if K > grid.max_level:
        raise ValueError("matrix level exceeds the grid resolution")
    if t > K:
        raise ValueError("split level exceeds the matrix level")
    n = basis_size(grid, K)
    if n > basis_cap:
        raise CapacityError(f"basis size {n} exceeds cap {basis_cap}")
    off = level_offsets(grid, K)
    images: List[Images] = []
    any_complex = any(np.iscomplexobj(np.asarray(b.potential.value))
                      for b in system.branches if b.potential.value is not None)
    dtype = np.complex128 if any_complex else np.float64
    cols: List[np.ndarray] = []
    rows_idx: List[np.ndarray] = []
    data: List[np.ndarray] = []
    defect = np.zeros(n)
    for k in range(K + 1):
        atom, level_rows, level_vals, level_images, slivers = transfer_atom(
            system, k, np.arange(grid.n_cells(k)), 1.0, K=K)
        images.append(level_images)
        # a column's repeated cells are summed as they came, before its slivers
        key, val = merge_repeats((off[k] + atom) * n + level_rows,
                                 level_vals.astype(dtype, copy=False))
        row, col = key % n, key // n
        keep = np.abs(val) > 1e-300
        rows_idx.append(row[keep])
        data.append(val[keep])
        cols.append(col[keep])
        atom, cell, coef, defect[off[k]:off[k + 1]] = _reaggregate(
            system, K, slivers, grid.n_cells(k))
        keep = np.abs(coef) > 1e-300
        rows_idx.append(off[K] + cell[keep])
        data.append(coef[keep])
        cols.append(off[k] + atom[keep])
    system = _widen_ledger(system, images)
    mat = sp.csc_matrix(
        (np.concatenate(data), (np.concatenate(rows_idx), np.concatenate(cols))),
        shape=(n, n))
    ledger = bound_ledger(system, constants, t)
    ledger.measured["total_defect_l1"] = float(defect.sum())
    return TransferMatrix(system=system, K=K, t=t, matrix=mat, ledger=ledger,
                          constants=constants)


# -- integrability check --------------------------------------------------------


@dataclass
class BoundReport:
    classes: Dict[str, List[int]]
    c_11: float
    sum_l2: float
    sum_l3: float
    c_232: float
    t0: float
    eps_prime: float
    a0_pass: bool


def lebesgue_bound_check(system: BranchSystem, probe_level: int = 6) -> BoundReport:
    """Verify the integrability split of the branch family.

    Bounded-ratio branches need sup|g| on forward images controlled by the
    measure-ratio power; tail branches need the geometric decay of the
    scaling base summable against the dual exponent.  Failure refuses the
    transfer operator downstream.
    """
    params = system.params
    grid = system.grid
    eps_prime = params.eps - params.delta
    if eps_prime <= 0:
        raise AssumptionError("eps' = eps - delta must be positive")
    t0 = params.t0
    t0_conj = t0 / (t0 - 1.0)
    for b in system.branches:
        if b.c_dc2 >= 1.0:
            raise AssumptionError(
                f"branch {b.r}: scaling base {b.c_dc2:.4f} >= 1; the "
                "integrability bound fails and the operator is refused"
            )
    exponent = 1.0 / params.p - params.s + params.eps
    # per branch and level about 16 cells inside the image, each probed at
    # 17 points of its forward image: one potential call per branch
    branches = system.branches
    br, ks, js = _probe_cells(grid, _ends(branches, "img"), min(probe_level, grid.max_level), 16)
    lo, hi, width = grid.extents(ks, js)
    vlo, vhi = per_branch(branches, br, Branch.forward_interval, lo, hi)
    ok = vhi - vlo > 0
    br, xs = br[ok], np.linspace(vlo[ok], vhi[ok], 17, axis=-1)
    abs_g = np.empty(xs.shape)
    for r in np.unique(br).tolist():
        abs_g[br == r] = np.abs(np.reshape(branches[r].potential(xs[br == r].ravel()), (-1, 17)))
    ratio = width[ok] / (vhi - vlo)[ok]
    # Python's pow: numpy's vectorized one can differ in the last bit
    c_11 = max([0.0] + [g / r ** exponent
                        for g, r in zip(abs_g.max(axis=-1).tolist(), ratio.tolist())])
    # class L3, the tail-summable branches (disjoint images with geometric
    # decay strong enough for the dual exponent sum): shift >= 8 in a family
    # of more than 10; class L2, the ratio-bounded ones (sup|g| controlled
    # by the raw measure ratio): all others
    tail = [len(branches) > 10 and b.shift >= 8 for b in branches]
    l2 = [b for b, t in zip(branches, tail) if not t]
    l3 = [b for b, t in zip(branches, tail) if t]
    classes = {"L1": [], "L2": [b.r for b in l2], "L3": [b.r for b in l3]}
    sum_l2 = sum(b.c_dc1 ** eps_prime * b.c_dc2 ** (b.shift * eps_prime) for b in l2)
    sum_l3_raw = sum(b.c_dc2 ** (t0_conj * b.shift * eps_prime) for b in l3)
    sum_l3 = sum_l3_raw ** (1.0 / t0_conj) if sum_l3_raw > 0 else 0.0
    if l3:
        sum_l3 *= max(b.c_dc1 ** eps_prime for b in l3)
    c_232 = c_11 * (sum_l2 + sum_l3)
    a0_pass = math.isfinite(c_232) and c_232 > 0
    if not a0_pass:
        raise AssumptionError("no admissible class split yields finite constants")
    return BoundReport(classes=classes, c_11=c_11, sum_l2=sum_l2,
                       sum_l3=sum_l3, c_232=c_232, t0=t0, eps_prime=eps_prime,
                       a0_pass=a0_pass)
