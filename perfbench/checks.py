"""Reference computations and output checks of the benchmark.

Everything here is computed apart from `besovtransfer`: the Parry
closed-form density, exact interval integrals, the dyadic atom geometry and
a seeded orbit simulation.  Only numpy is imported, so the
checks can be tested without running the program.

Each `check_*` function returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

# Jumps (t_n, w_n) of an unnormalised step density sum_n w_n * 1[x < t_n].
Steps = Tuple[np.ndarray, np.ndarray]


# -- closed-form densities ---------------------------------------------------


def parry_steps(beta: Fraction, terms: int = 80) -> Steps:
    """Parry density of x -> beta*x mod 1 for a rational beta.

    h(x) is proportional to sum_n beta**-n * 1[x < T**n(1)]; the orbit of 1
    is followed in exact rational arithmetic, so every jump sits where it
    should to the last bit.
    """
    beta = Fraction(beta)
    t = Fraction(1)
    points, weights = [], []
    for n in range(terms):
        points.append(float(t))
        weights.append(float(beta) ** -n)
        t = beta * t
        t -= math.floor(t)
        if t == 0:
            break
    return np.asarray(points), np.asarray(weights)


def edges_from_midpoints(mids: np.ndarray) -> np.ndarray:
    """Cell edges of a bottom level whose cell midpoints are given.

    Edges are rebuilt left to right from e[i+1] = 2*mid[i] - e[i]; an edge
    within 1e-9 cells of its nominal dyadic position is snapped to it, so
    rounding does not accumulate over the level.
    """
    n = len(mids)
    edges = np.empty(n + 1)
    edges[0] = 0.0
    for i, m in enumerate(mids):
        e = 2.0 * m - edges[i]
        nominal = (i + 1) / n
        edges[i + 1] = nominal if abs(e - nominal) * n < 1e-9 else e
    return edges


def step_l1(edges: np.ndarray, values: np.ndarray, steps: Steps) -> float:
    """Exact L1 distance from a cellwise-constant density to a step density.

    The step density is normalised to unit mass; the integral is split at
    every cell edge and every jump, so the result is exact up to rounding.
    """
    points, weights = steps
    mass = float(np.sum(weights * points))
    inside = points[(points > 0.0) & (points < 1.0)]
    cuts = np.unique(np.concatenate([edges, inside]))
    mid = 0.5 * (cuts[:-1] + cuts[1:])
    # h(mid) = sum of the weights whose jump lies right of mid
    h = np.array([weights[points > x].sum() for x in mid]) / mass
    cell = np.clip(np.searchsorted(edges, mid, side="right") - 1, 0, len(values) - 1)
    return float(np.sum(np.abs(values[cell] - h) * np.diff(cuts)))


# -- orbit simulation ------------------------------------------------------------


def orbit_variance(beta: float, seed: int, n_orbits: int = 2000,
                   n_steps: int = 8000, burn_in: int = 200,
                   max_lag: int = 24) -> float:
    """Asymptotic variance of cos(2 pi x) under x -> beta*x mod 1.

    Runs n_orbits seeded orbits side by side and sums the sample
    autocovariances up to max_lag (correlations decay like 0.56**k, so the
    truncation bias is below 1e-6).  The standard error is about
    sigma2 * sqrt(2 (2 max_lag + 1) / (n_orbits n_steps)), 1e-3 at the
    defaults.  Work is done in blocks of steps so memory stays small.
    """
    rng = np.random.default_rng(seed)
    x = rng.random(n_orbits)
    for _ in range(burn_in):
        x = beta * x
        x -= np.floor(x)
    block = 500
    lag_sums = np.zeros(max_lag + 1)
    total = 0.0
    tail = np.empty((n_orbits, 0))      # the last max_lag values seen
    for start in range(0, n_steps, block):
        vals = np.empty((n_orbits, min(block, n_steps - start)))
        for i in range(vals.shape[1]):
            x = beta * x
            x -= np.floor(x)
            vals[:, i] = x
        vals = np.cos(2.0 * np.pi * vals)
        total += vals.sum()
        joined = np.concatenate([tail, vals], axis=1)
        end = joined.shape[1]
        for k in range(max_lag + 1):
            # products v[t] * v[t-k] for the times t of this block
            first = max(tail.shape[1], k)
            lag_sums[k] += np.sum(joined[:, first:] * joined[:, first - k:end - k])
        tail = joined[:, -max_lag:]
    mean = total / (n_orbits * n_steps)
    pairs = n_orbits * (n_steps - np.arange(max_lag + 1, dtype=float))
    cov = lag_sums / pairs - mean * mean
    return float(cov[0] + 2.0 * cov[1:].sum())


# -- uniform dyadic atom geometry ----------------------------------------------------


def atom_widths(bottom_edges: np.ndarray) -> np.ndarray:
    """Width of the cell of every atom, in the dyadic order 0 | 1 2 | 3 .. 6 | ...

    Levels above the bottom are uniform; the bottom level takes the given
    edges, so cut cells keep their actual widths.
    """
    n_bottom = len(bottom_edges) - 1
    K = n_bottom.bit_length() - 1
    upper = [np.full(2 ** k, 2.0 ** -k) for k in range(K)]
    return np.concatenate(upper + [np.diff(bottom_edges)])


def column_mass_residual(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                         widths: np.ndarray, inside: np.ndarray,
                         s: float, p: float) -> np.ndarray:
    """Per-column mass defect of an assembled atom matrix.

    Atom i is |i|**(s-1/p) on its cell, so it integrates to |i|**(1+s-1/p).
    The jacobian-weighted transfer of the atom on Q integrates to the part
    of it inside the union of the branch images, inside[Q] * |Q|**(s-1/p),
    so sum_i M_iQ |i|**(1+s-1/p) - inside[Q] |Q|**(s-1/p) must vanish for
    every column Q.
    """
    expo = s - 1.0 / p
    out_mass = np.bincount(cols, weights=vals * widths[rows] ** (1.0 + expo),
                           minlength=len(widths))
    return out_mass - inside * widths ** expo


# -- checks --------------------------------------------------------------------------


def check_density(edges: np.ndarray, values: np.ndarray, what: str = "density",
                  tol: float = 1e-9) -> List[str]:
    """Nonnegative with unit mass."""
    out = []
    if np.any(values < 0):
        out.append(f"{what}: negative value {values.min():.3e}")
    mass = float(np.sum(values * np.diff(edges)))
    if abs(mass - 1.0) > tol:
        out.append(f"{what}: mass {mass!r} is not 1")
    return out


def check_within(what: str, value: float, tol: float) -> List[str]:
    if not (math.isfinite(value) and value <= tol):
        return [f"{what}: {value:.3e} exceeds {tol:.1e}"]
    return []


def check_spectrum(eigs: Sequence[complex], peripheral: Sequence[complex],
                   dim1: int, transitive: bool, gap: float) -> List[str]:
    """Leading eigenvalue 1, nothing outside the unit disc, simple peripheral set {1}."""
    out = []
    mods = np.abs(np.asarray(eigs))
    lead = complex(eigs[int(np.argmax(mods))])
    if abs(lead - 1.0) > 1e-9:
        out.append(f"spectrum: leading eigenvalue {lead} is not 1")
    if mods.max() > 1.0 + 1e-9:
        out.append(f"spectrum: eigenvalue of modulus {mods.max()!r} above 1")
    if len(peripheral) != 1 or abs(complex(peripheral[0]) - 1.0) > 1e-9:
        out.append(f"spectrum: peripheral set {list(peripheral)} is not {{1}}")
    if dim1 != 1:
        out.append(f"spectrum: eigenspace at 1 has dimension {dim1}")
    if not transitive:
        out.append("spectrum: map reported not transitive")
    if not gap > 0:
        out.append(f"spectrum: gap {gap} is not positive")
    return out


def check_clt(sigma2: float, green_kubo: float, orbit_sigma2: float) -> List[str]:
    """Eigenvalue-curvature variance against the lag sum and an orbit simulation."""
    out = []
    if not abs(sigma2 - orbit_sigma2) <= 5e-3:
        out.append(f"clt: sigma2 {sigma2:.5f} vs orbit estimate {orbit_sigma2:.5f}")
    if not abs(sigma2 - green_kubo) <= 1e-4:
        out.append(f"clt: sigma2 {sigma2:.6f} vs lag sum {green_kubo:.6f}")
    return out


def check_decay_ly(degenerate: bool, fitted_rate: float, ly_lambda: float) -> List[str]:
    out = []
    if degenerate or not 0.0 < fitted_rate < 1.0:
        out.append(f"decay: fit degenerate={degenerate}, rate {fitted_rate}")
    if not ly_lambda < 1.0:
        out.append(f"ly: lambda {ly_lambda} is not below 1")
    return out


def check_column_masses(residual: np.ndarray, tol: float = 1e-12) -> List[str]:
    worst = float(np.max(np.abs(residual))) if residual.size else 0.0
    if not worst <= tol:
        col = int(np.argmax(np.abs(residual)))
        return [f"matrix: column {col} loses mass {residual[col]:.3e} (tolerance {tol:.0e})"]
    return []


def check_ledger(rows: List[dict], n_branches: int) -> List[str]:
    out = []
    if len(rows) != n_branches:
        out.append(f"ledger: {len(rows)} rows, expected {n_branches}")
    for row in rows:
        vals = [float(v) for v in row.values()]
        if not all(math.isfinite(v) for v in vals):
            out.append(f"ledger: non-finite entry in row {row.get('r')}")
        elif not float(row["c_DC2"]) < 1.0:
            out.append(f"ledger: c_DC2 {row['c_DC2']} of row {row.get('r')} is not below 1")
    return out


def check_route(analytic: np.ndarray, numeric: np.ndarray, widths: np.ndarray,
                tol: float = 1e-10) -> List[str]:
    """Analytic and numeric transfers agree in L1 at working resolution."""
    d = float(np.sum(np.abs(analytic - numeric) * widths))
    return check_within("routes: L1 distance", d, tol)


def check_mass(what: str, got: float, want: float, tol: float = 1e-12) -> List[str]:
    if not abs(got - want) <= tol:
        return [f"{what}: mass {got!r} vs exact {want!r}"]
    return []
