"""Spectral analysis of the truncated transfer operator.

The atom matrix M and the level-K bin operator U (`transfer.cell_operator`)
satisfy E M = U E, E = `evaluate_vector`.  The analyses on functions take
the `BranchSystem` and read U on cell values, never M: the invariant
density, the correlations and their decay fit, and the variance of
centered observables via the perturbed operator family.  An assembled
`TransferMatrix` serves the eigenvalues (peripheral spectrum, gap, decay
certificate) and the norm-inequality fit.

No SciPy module is imported with this one: U is a numpy
`transfer.CellOperator`, and M, a `scipy.sparse` matrix, comes from
`transfer.assemble_matrix`, which imports `scipy.sparse` itself.  ARPACK
(`scipy.sparse.linalg`, which brings `scipy.linalg`) is imported by the
first solve that needs it, in `eigs`, and `scipy.sparse.csgraph` by the
first `transitivity_check`; runs that solve no eigenproblem load neither.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .atoms import (
    AtomicRep,
    PiecewiseFn,
    canonical_vector,
    evaluate_vector,
    level_masses,
    level_offsets,
    masses_norm,
    random_block,
)
from .dynamics import BranchSystem, _forward_point
from .errors import AssumptionError, ConvergenceError, DegenerateFitError, GapCollapseError
from .grid import CellId, Grid
from .transfer import CellOperator, TransferMatrix, build_cell_operator, cell_operator

# perfbench's tracer counts solves up to this size as dense (`dense_n`);
# no solve here densifies a matrix that ARPACK can take
DENSE_EIG_CAP = 8191
# an eigenvalue is peripheral when its modulus is at least 1 - PERIPHERAL_TOL,
# and two eigenvalues within it of each other are one
PERIPHERAL_TOL = 1e-6
# the twist parameters t of clt_variance: each is half the next, so the
# curvatures extrapolate in two Richardson pairs
T_GRID = (0.01, 0.02, 0.04)


# -- eigenvalues ----------------------------------------------------------------


def eigs(A, k, **kwargs):
    """`scipy.sparse.linalg.eigs`, imported on the first call."""
    from scipy.sparse.linalg import eigs as arpack_eigs
    return arpack_eigs(A, k, **kwargs)


@dataclass
class Eigensystem:
    """Leading eigenvalues of a truncation and the solve that found them."""

    values: np.ndarray                  # sorted by decreasing modulus
    vectors: Optional[np.ndarray]       # columns match `values`; None when diagonal
    solver: Dict[str, object]           # method, k, ncv, converged


def _level_triangular_diag(tm: TransferMatrix) -> Optional[np.ndarray]:
    """Diagonal when every column acts strictly on coarser levels.

    Cell-aligned maps move every atom to a coarser level, so the matrix is
    nilpotent-plus-diagonal in the level ordering and its spectrum is the
    diagonal exactly; generic QR iterations would smear the defective zero
    cluster by roundoff**(1/chain length).
    """
    lev_of = np.repeat(np.arange(tm.K + 1), np.diff(level_offsets(tm.grid, tm.K)))
    coo = tm.matrix.tocoo()
    bad = (lev_of[coo.row] >= lev_of[coo.col]) & (coo.row != coo.col)
    return None if np.any(np.abs(coo.data[bad]) > 1e-14) else tm.matrix.diagonal()


def _arnoldi(tm: TransferMatrix) -> Eigensystem:
    """Peripheral eigenvalues and the first one inside the disc, by ARPACK.

    Implicitly restarted Arnoldi on the sparse matrix from a fixed start,
    with a seeded generator for the restart vectors ARPACK asks for, so
    runs repeat exactly.  k starts at 2 and doubles while every value
    has modulus >= 1 - PERIPHERAL_TOL; it stays minimal because ARPACK
    stalls on the clusters deeper in the disc.  Non-convergence raises ConvergenceError,
    with no dense fallback; only a matrix too small for ARPACK is dense.
    """
    from scipy.sparse.linalg import ArpackNoConvergence
    n = tm.size
    k = 2
    while True:
        ncv = min(n - 1, max(40, 2 * k + 1))
        if ncv <= k + 1:
            ev, vecs = np.linalg.eig(tm.dense())
            solver = {"method": "dense", "k": n, "ncv": None, "converged": True}
            break
        try:
            ev, vecs = eigs(tm.matrix, k=k, which="LM", v0=np.ones(n), ncv=ncv,
                            rng=np.random.default_rng(0))
        except ArpackNoConvergence as exc:
            raise ConvergenceError(
                f"ARPACK: {len(exc.eigenvalues)} of the {k} largest eigenvalues "
                f"converged (n={n}, ncv={ncv})") from exc
        solver = {"method": "arpack", "k": k, "ncv": ncv, "converged": True}
        if np.min(np.abs(ev)) < 1.0 - PERIPHERAL_TOL:
            break
        k *= 2
    order = np.argsort(-np.abs(ev), kind="stable")
    return Eigensystem(ev[order], vecs[:, order], solver)


def eigenvalues(tm: TransferMatrix) -> Eigensystem:
    """Leading spectrum of the truncated operator, by decreasing modulus.

    A level-triangular matrix gives its whole spectrum exactly, as its
    diagonal; any other its peripheral eigenvalues and the largest one
    inside the disc (`_arnoldi`), all that the peripheral set, the gap and
    the decay certificate read.
    """
    diag = _level_triangular_diag(tm)
    if diag is None:
        return _arnoldi(tm)
    ev = np.sort_complex(diag.astype(np.complex128))[::-1]
    return Eigensystem(ev[np.argsort(-np.abs(ev), kind="stable")], None, {
        "method": "level_triangular", "k": tm.size, "ncv": None, "converged": True})


def subdominant_modulus(ev: np.ndarray) -> float:
    """Largest eigenvalue modulus below 1 - PERIPHERAL_TOL (0 when there is none).

    The spectral gap is 1 minus this, and it is the rate that correlation
    decay is certified against.
    """
    inside = np.abs(ev)[np.abs(ev) < 1.0 - PERIPHERAL_TOL]
    return float(inside.max()) if inside.size else 0.0


# -- inequality fit ---------------------------------------------------------------


@dataclass
class LYReport:
    C: float
    lam: float
    n_max: int
    ensemble_size: int
    cap: float
    passed: bool
    seed: int


def lasota_yorke_verify(tm: TransferMatrix, ensemble_size: int = 100,
                        n_max: int = 20, seed: int = 0) -> LYReport:
    """Fit the smallest norm-inequality pair over a random ensemble.

    Surrogate strong norm: the coefficient norm of the iterated expansion.
    Two passes: the iterate/weak-norm plateau fixes the additive constant,
    then the smallest geometric factor that dominates every excess over
    that plateau is extracted.  Feasibility requires the factor to stay
    below 1 (and below the certified essential bound when that is
    smaller).
    """
    grid, params, K = tm.grid, tm.params, tm.K
    rng = np.random.default_rng(seed)
    cap = tm.ledger.essential_bound
    block = random_block(grid, params, rng, ensemble_size, n_atoms=20, max_level=K)
    l1s = [float(grid.integrate(K, np.abs(f))) for f in evaluate_vector(block.T, grid, K, params)]
    # each step's level masses; the roots come once, over all steps
    masses = [level_masses(block, grid, K, params.p)]
    for _ in range(n_max):
        block = np.asfortranarray(tm.apply(block))
        masses.append(level_masses(block, grid, K, params.p))
    trajectories = list(zip(l1s, masses_norm(np.stack(masses), params).T.tolist()))
    c_hat = max((norms[n_max] / l1) for l1, norms in trajectories if l1 > 0)
    c_hat *= 1.0 + 1e-9
    lam_fit = 0.0
    for l1, norms in trajectories:
        n0 = norms[0]
        if n0 <= 0:
            continue
        for n in range(1, n_max + 1):
            excess = norms[n] - c_hat * l1
            if excess > 1e-13 * n0:
                lam_fit = max(lam_fit, (excess / n0) ** (1.0 / n))
    passed = lam_fit < 1.0 and lam_fit <= cap + 1e-9
    return LYReport(C=c_hat, lam=lam_fit, n_max=n_max,
                    ensemble_size=ensemble_size, cap=cap, passed=passed,
                    seed=seed)


# -- invariant densities -----------------------------------------------------------


@dataclass
class DensityInfo:
    iterations: int
    residual: float         # L1 distance of U rho / (1 - deficit) from rho
    clamp_mass: float
    deficit: float          # stationary mass lost per application (truncation)


def invariant_density(system: BranchSystem, K: int, start: Optional[np.ndarray] = None
                      ) -> Tuple[PiecewiseFn, DensityInfo]:
    """Fixed density of the level-K truncated operator, normalized to unit mass.

    Renormalized power iteration of the bin operator U on cell values from
    the flat function, or from `start`, cell values at level K, until no
    value moves by 1e-12, in at most 2000 steps.  Negative dust below
    -1e-12 is clamped and the clamped mass reported.
    """
    tol, max_iter = 1e-12, 2000
    grid = system.grid
    U = cell_operator(system, K)
    vals = np.ones(grid.n_cells(K)) if start is None else np.asarray(start, dtype=float)
    vals = vals / grid.integrate(K, vals)
    for it in range(1, max_iter + 1):
        new = U @ vals
        mass = grid.integrate(K, new)
        deficit = 1.0 - mass
        new /= mass
        delta = float(np.max(np.abs(new - vals)))
        vals = new
        if delta < tol:
            break
    else:
        raise ConvergenceError(f"power iteration: no convergence in {max_iter}")
    clamp_mass = float(grid.integrate(K, np.abs(vals), select=vals < -tol))
    vals = np.maximum(vals, 0.0)
    vals /= grid.integrate(K, vals)
    resid = float(grid.integrate(K, np.abs(U @ vals / max(1.0 - deficit, 1e-300) - vals)))
    return PiecewiseFn(grid, K, vals), DensityInfo(
        iterations=it, residual=resid, clamp_mass=clamp_mass, deficit=deficit)


# -- peripheral spectrum ------------------------------------------------------------


@dataclass
class SpectralReport:
    eigenvalues: np.ndarray
    peripheral: List[complex]
    gap: float
    essential_bound: float
    eigenspace_dim_at_1: int
    semisimple: bool
    roots_of_unity: Dict[complex, Tuple[int, int]]
    transitive: bool
    solver: Dict[str, object]


def _root_of_unity_match(lam: complex, max_order: int) -> Optional[Tuple[int, int]]:
    arg = cmath.phase(lam)
    for q_ in range(1, max_order + 1):
        p_ = round(q_ * arg / (2 * math.pi)) % q_
        if abs(lam - cmath.exp(2j * math.pi * p_ / q_)) <= PERIPHERAL_TOL:
            return (p_, q_)
    return None


def peripheral_spectrum(tm: TransferMatrix, spectrum: Optional[Eigensystem] = None
                        ) -> SpectralReport:
    """Unit-circle eigenvalue cluster and its structure.

    The peripheral set holds eigenvalues of modulus >= 1 - PERIPHERAL_TOL;
    each is matched against roots of unity of order up to the cluster
    size, the 1-eigenspace dimension is the cardinality of its cluster,
    and semisimplicity is checked through the rank of the cluster's
    eigenvectors.

    `spectrum` (as `eigenvalues(tm)` returns it) is computed here when
    not given.  A diagonal spectrum carries no eigenvectors; when one
    of its peripheral eigenvalues is repeated, ARPACK solves for them and
    the report carries the eigenvalues of that solve.
    """
    tol = PERIPHERAL_TOL
    es = eigenvalues(tm) if spectrum is None else spectrum
    if es.vectors is None and any(np.count_nonzero(np.abs(es.values - l) <= tol) > 1
                                  for l in es.values[np.abs(es.values) >= 1.0 - tol]):
        es = _arnoldi(tm)
    ev = es.values
    peripheral = [complex(l) for l in ev if abs(l) >= 1.0 - tol]
    dim1 = int(np.sum(np.abs(ev - 1.0) <= tol))
    semisimple = True
    if es.vectors is not None:
        for lam in {round(l.real, 8) + 1j * round(l.imag, 8) for l in peripheral}:
            idx = np.nonzero(np.abs(ev - lam) <= tol)[0]
            if len(idx) > 1:
                rank = np.linalg.matrix_rank(es.vectors[:, idx], tol=1e-8)
                if rank < len(idx):
                    semisimple = False
    gap = 1.0 - subdominant_modulus(ev)
    roots = {}
    for lam in peripheral:
        match = _root_of_unity_match(lam, max_order=max(len(peripheral), 8))
        if match is not None:
            roots[lam] = match
    return SpectralReport(
        eigenvalues=ev,
        peripheral=peripheral,
        gap=gap,
        essential_bound=tm.ledger.essential_bound,
        eigenspace_dim_at_1=dim1,
        semisimple=semisimple,
        roots_of_unity=roots,
        transitive=transitivity_check(tm.system, min(tm.K, 6)),
        solver=es.solver,
    )


def transitivity_check(system: BranchSystem, level: int) -> bool:
    """Strong connectivity of the cell-transition digraph at one level.

    An edge P -> Q means the forward image of P charges Q with positive
    mass; for the supported maps the cell operator entries realize exactly
    that surrogate.
    """
    from scipy.sparse import csgraph, csr_matrix
    op = build_cell_operator(system, K=level)
    keep = np.abs(op.data) > 1e-12
    adj = csr_matrix((np.ones(int(keep.sum()), dtype=np.int8), (op.col[keep], op.rows()[keep])),
                     shape=op.shape)
    n_comp, _ = csgraph.connected_components(adj, directed=True, connection="strong")
    return n_comp == 1


# -- correlation decay ----------------------------------------------------------------


@dataclass
class DecayReport:
    correlations: np.ndarray
    fitted_rate: float
    certificate_rate: float
    passed: bool


def _centering(system: BranchSystem, v: PiecewiseFn, density: Optional[PiecewiseFn]
              ) -> Tuple[CellOperator, PiecewiseFn, float]:
    """The bin operator at v's level, the density (the invariant one when
    not given) and the mean of v against it.

    An observable off the system's grid or off the density's level is refused.
    """
    K = v.level if density is None else density.level
    if v.grid != system.grid or v.level != K:
        raise ValueError(
            f"observable on level {v.level} of {v.grid}, density on level {K} of "
            f"{system.grid}: build the observable on the system's grid at the density's level")
    if density is None:
        density, _ = invariant_density(system, K)
    mean_v = float(np.real(system.grid.integrate(K, v.values * density.values)))
    return cell_operator(system, K), density, mean_v


def correlations(system: BranchSystem, u: AtomicRep, v: PiecewiseFn,
                 k_max: int, density: Optional[PiecewiseFn] = None) -> np.ndarray:
    """c_k = int v * U^k(E u) - int v rho * int u for k = 0..k_max, on the
    cell values of v's level."""
    U, _, mean_v = _centering(system, v, density)
    grid, K = system.grid, v.level
    f = evaluate_vector(u.to_vector(K).astype(np.complex128), grid, K, system.params)
    mass_u = complex(grid.integrate(K, f))
    out = np.empty(k_max + 1, dtype=np.complex128)
    for k in range(k_max + 1):
        out[k] = grid.integrate(K, v.values * f) - mean_v * mass_u
        f = U @ f
    return out


def decay_rate(system: BranchSystem, u: AtomicRep, v: PiecewiseFn, k_max: int,
               lambda2: float, density: Optional[PiecewiseFn] = None) -> DecayReport:
    """Geometric fit of the correlation sequence against the spectral rate
    `lambda2`, as `subdominant_modulus` gives it."""
    cks = correlations(system, u, v, k_max, density=density)
    mags = np.abs(cks)
    usable = np.nonzero(mags > 1e-14)[0]
    usable = usable[usable >= 5]           # the fit starts at lag 5
    if len(usable) < 5:
        raise DegenerateFitError(
            f"only {len(usable)} usable correlation samples above underflow"
        )
    ks = usable.astype(float)
    slope = np.polyfit(ks, np.log(mags[usable]), 1)[0]
    fitted = float(np.exp(slope))
    passed = fitted <= lambda2 + 0.02
    return DecayReport(correlations=cks, fitted_rate=fitted,
                       certificate_rate=lambda2, passed=passed)


# -- variance of centered observables ---------------------------------------------


@dataclass
class CLTReport:
    sigma2: float
    fd_error: float
    green_kubo: float
    leading: Dict[float, complex]
    t_grid: Tuple[float, ...]


def multiplier_matrix(tm: TransferMatrix, phase: np.ndarray) -> np.ndarray:
    """Dense matrix of multiplication by a bottom-level phase function.

    Column j expands phase times the evaluated atom j again.
    """
    g, K, params = tm.grid, tm.K, tm.params
    return np.stack([canonical_vector(phase * evaluate_vector(e, g, K, params), g, K, params)
                     for e in np.eye(tm.size)], axis=1)


def _leading_eigenvalue(U: CellOperator, phase: np.ndarray) -> Tuple[complex, bool, float]:
    """Power iteration of f -> U(phase * f) from the flat function.

    Returns (eigenvalue, converged, final relative residual); failure to
    converge signals the next eigenvalue crowding the leading one.
    """
    x = np.ones(U.shape[0], dtype=np.complex128)
    lam = 0.0 + 0j
    res = math.inf
    for i in range(300):
        y = U @ (phase * x)
        nrm = np.linalg.norm(y)
        if nrm == 0:
            return 0.0 + 0j, True, 0.0
        lam_new = complex(np.vdot(x, y) / np.vdot(x, x))
        res = float(np.linalg.norm(y - lam_new * x) / nrm)
        x = y / nrm
        if abs(lam_new - lam) < 1e-14 and res < 1e-10 and i >= 5:
            return lam_new, True, res
        lam = lam_new
    return lam, res < 1e-8, res


def green_kubo_variance(system: BranchSystem, v: PiecewiseFn,
                        density: PiecewiseFn) -> float:
    """Lag-sum variance: c_0 + 2 sum_k int v * transfer^k(v rho), on cell values."""
    U, density, mean_v = _centering(system, v, density)
    grid, K = system.grid, v.level
    vc = np.real(v.values) - mean_v
    total = float(grid.integrate(K, vc * vc * density.values))
    vals = vc * density.values
    for k in range(1, 201):
        vals = U @ vals
        ck = float(grid.integrate(K, vc * vals))
        total += 2.0 * ck
        if abs(ck) < 1e-14 and k > 10:
            break
    return total


def clt_variance(system: BranchSystem, v: PiecewiseFn,
                 density: Optional[PiecewiseFn] = None) -> CLTReport:
    """Variance via the curvature of the leading eigenvalue of the
    phase-twisted operator, Richardson-extrapolated over T_GRID,
    cross-checked against the lag-sum route.

    The observable is centered against the computed density first; a
    perturbed family whose power iteration stalls (the next eigenvalue
    approaches the leading one within 0.1) is refused.  The twisted
    operator acts on cell values as U(phase * f), U the bin operator at
    v's level K: by E M = U E it is `tm.matrix @ multiplier_matrix(tm, phase)`,
    tm the atom matrix at level K, on the quotient by the kernel of evaluation.
    """
    U, density, mean_v = _centering(system, v, density)
    vc = np.real(v.values) - mean_v
    leading: Dict[float, complex] = {}
    lam0, ok0, _ = _leading_eigenvalue(U, np.ones(U.shape[0]))
    if not ok0:
        raise GapCollapseError("unperturbed leading eigenvalue did not isolate")
    leading[0.0] = lam0
    for t in T_GRID:
        lam, ok, res = _leading_eigenvalue(U, np.exp(1j * t * vc))
        if not ok:
            raise GapCollapseError(
                f"power iteration stalls at t={t} (residual {res:.2e}): "
                "the next eigenvalue crowds the leading one"
            )
        leading[t] = lam
    curv = {t: -2.0 * math.log(abs(leading[t]) / abs(lam0)) / t ** 2 for t in T_GRID}
    extr = [(4 * curv[a] - curv[b]) / 3.0 for a, b in zip(T_GRID, T_GRID[1:])]
    gk = green_kubo_variance(system, v, density)
    return CLTReport(sigma2=extr[0], fd_error=abs(extr[0] - extr[-1]), green_kubo=gk,
                     leading=leading, t_grid=T_GRID)


def monte_carlo_variance(system: BranchSystem, v_fn: Callable[[np.ndarray], np.ndarray],
                         n_samples: int = 10 ** 6, burn_in: int = 10 ** 3,
                         seed: int = 20240801) -> float:
    """Orbit-average variance oracle: the lag sum up to lag 8.

    Full-branch integer-slope maps are simulated as digit streams (float
    iteration of those maps collapses onto dyadic rationals); other maps
    iterate in floating point, and an orbit that leaves the branch images
    raises AssumptionError.  The seed is fixed by the caller and recorded
    with results.
    """
    rng = np.random.default_rng(seed)
    slopes = [b.affine_slope for b in system.branches]
    uniform = (len(slopes) >= 2 and all(s is not None for s in slopes)
               and all(abs(abs(s) - 1.0 / len(slopes)) < 1e-12 for s in slopes))
    if uniform:
        base = len(slopes)
        digits = rng.integers(0, base, size=n_samples + burn_in + 53).astype(np.float64)
        wts = (1.0 / base) ** np.arange(1, 54)
        xs = np.convolve(digits, wts, mode="valid")[burn_in:burn_in + n_samples]
    else:
        x = rng.uniform()
        xs = np.empty(n_samples + burn_in)
        for i in range(n_samples + burn_in):
            xs[i] = x
            y = _forward_point(system.branches, x)
            if y is None:
                raise AssumptionError(f"orbit step {i}: no branch image contains x = {x!r}")
            # rounding can put an image end just outside [0, 1)
            x = min(max(y, 0.0), 1.0 - 1e-16)
        xs = xs[burn_in:]
    v = np.asarray(v_fn(xs), dtype=float)
    vc = v - v.mean()
    sig = float(np.mean(vc * vc))
    for k in range(1, 9):
        sig += 2.0 * float(np.mean(vc[:-k] * vc[k:]))
    return sig


# -- support structure ---------------------------------------------------------------


@dataclass
class SupportReport:
    cells: List[CellId]
    defect_mass: float
    covered_measure: float


def support_structure(density: PiecewiseFn, grid: Grid,
                      tol: float = 1e-9) -> SupportReport:
    """Cell-union description of the positivity set of a density."""
    if grid != density.grid:
        raise ValueError(f"density on {density.grid}, support asked on {grid}")
    K = density.level
    m = grid.arity
    mask = np.real(density.values) > tol
    defect = float(grid.integrate(K, np.real(density.values), select=~mask))
    # merge full sibling groups upward into maximal cells
    cells: List[CellId] = []
    level_mask = mask.copy()
    k = K
    while k > 0:
        grouped = level_mask.reshape(-1, m)
        full = grouped.all(axis=1)
        partial = grouped & ~full[:, None]
        idx = np.nonzero(partial)
        for row, colm in zip(*idx):
            cells.append(CellId(k, int(row) * m + int(colm)))
        level_mask = full
        k -= 1
    if level_mask[0]:
        cells.append(CellId(0, 0))
    covered = sum(grid.measure(c) for c in cells)
    return SupportReport(cells=sorted(cells), defect_mass=defect,
                         covered_measure=covered)
