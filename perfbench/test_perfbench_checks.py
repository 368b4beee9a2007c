"""The benchmark's output checks accept right outputs and reject wrong ones.

Run with `PYTHONPATH=src python -m pytest perfbench`.  Each check is fed a
correct input, which it must accept, and a deliberately wrong one, which it
must reject.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

import checks
import workloads


def _uniform_edges(K: int) -> np.ndarray:
    return np.arange(2 ** K + 1) / 2 ** K


def _cell_averages(edges: np.ndarray, steps: checks.Steps) -> np.ndarray:
    """Cell averages of the normalised step density."""
    points, weights = steps
    lo, hi = edges[:-1], edges[1:]
    covered = np.clip(np.minimum(hi[:, None], points[None, :]) - lo[:, None], 0.0, None)
    return (covered @ weights) / (hi - lo) / float(np.sum(weights * points))


def test_parry_density_with_jump_moved_one_cell_is_rejected():
    edges = _uniform_edges(10)
    beta = Fraction(9, 5)
    exact = checks.parry_steps(beta)
    good = _cell_averages(edges, exact)
    assert checks.check_within("good", checks.step_l1(edges, good, exact),
                               workloads.TOL_BETA18_K10) == []
    points, weights = exact
    moved = points.copy()
    moved[1] += 2.0 ** -10          # the jump at T(1) = 0.8, one cell to the right
    bad = _cell_averages(edges, (moved, weights))
    assert checks.check_within("bad", checks.step_l1(edges, bad, exact),
                               workloads.TOL_BETA18_K10) != []


def test_step_l1_matches_fine_quadrature():
    rng = np.random.default_rng(3)
    edges = np.sort(np.concatenate([[0.0, 1.0], rng.random(39)]))
    values = rng.random(40) + 0.5
    steps = checks.parry_steps(Fraction(9, 5))
    x = (np.arange(400_000) + 0.5) / 400_000
    pts, wts = steps
    order = np.argsort(pts)
    # h(x) sums the weights of the jumps to the right of x
    above = np.concatenate([np.cumsum(wts[order][::-1])[::-1], [0.0]])
    h = above[np.searchsorted(pts[order], x, side="right")] / np.sum(wts * pts)
    rho = values[np.searchsorted(edges, x, side="right") - 1]
    assert checks.step_l1(edges, values, steps) == pytest.approx(np.abs(rho - h).mean(), abs=2e-5)


def test_edges_from_midpoints_recovers_a_cut():
    edges = _uniform_edges(9)
    edges[410] = 0.8
    mids = 0.5 * (edges[:-1] + edges[1:])
    assert np.array_equal(checks.edges_from_midpoints(mids), edges)


def _diagonal_matrix(K: int):
    """Each atom to itself: mass-conserving when the images cover [0, 1)."""
    widths = checks.atom_widths(_uniform_edges(K))
    idx = np.arange(len(widths))
    return idx, idx, np.ones(len(widths)), widths


def test_matrix_with_one_column_scaled_is_rejected():
    rows, cols, vals, widths = _diagonal_matrix(9)
    p = workloads.PARAMS
    good = checks.column_mass_residual(rows, cols, vals, widths, widths, p.s, p.p)
    assert checks.check_column_masses(good) == []
    scaled = vals.copy()
    scaled[-1] *= 1.0 + 1e-9           # a bottom-level column, the smallest mass
    bad = checks.column_mass_residual(rows, cols, scaled, widths, widths, p.s, p.p)
    assert checks.check_column_masses(bad) != []


def test_assembled_matrix_conserves_mass_on_a_cut_grid():
    from besovtransfer import MapSpec, assemble_matrix, build_grid, make_map
    K = 6
    system = make_map(MapSpec("beta", beta=1.8), build_grid(2, K), workloads.PARAMS,
                      probe_level=4)
    assert system.grid.cuts               # the check must read the cut widths
    coo = assemble_matrix(system, K=K).matrix.tocoo()
    widths = checks.atom_widths(system.grid.edges(K))
    p = workloads.PARAMS
    resid = checks.column_mass_residual(coo.row, coo.col, coo.data.real, widths, widths,
                                        p.s, p.p)
    assert checks.check_column_masses(resid) == []
    uniform = checks.atom_widths(_uniform_edges(K))
    resid = checks.column_mass_residual(coo.row, coo.col, coo.data.real, uniform, uniform,
                                        p.s, p.p)
    assert checks.check_column_masses(resid) != []
    data = coo.data.real.copy()
    data[coo.col == len(widths) - 1] *= 1.0 + 1e-9
    resid = checks.column_mass_residual(coo.row, coo.col, data, widths, widths, p.s, p.p)
    assert checks.check_column_masses(resid) != []


def test_sigma2_off_by_1e2_is_rejected():
    orbit = 0.4339
    assert checks.check_clt(0.4350, 0.43501, orbit) == []
    assert checks.check_clt(orbit + 1e-2, orbit + 1e-2, orbit) != []
    # the lag-sum cross-check on its own
    assert checks.check_clt(0.4350, 0.4350 + 1e-3, orbit) != []


def test_orbit_variance_is_near_the_lag_sum_value():
    est = checks.orbit_variance(1.8, seed=5, n_orbits=500, n_steps=4000)
    assert abs(est - 0.435) < 0.02


def test_route_mismatch_of_1e9_is_rejected():
    widths = np.full(1024, 1.0 / 1024)
    a = np.random.default_rng(0).standard_normal(1024)
    assert checks.check_route(a, a + 1e-14, widths) == []
    assert checks.check_route(a, a + 1e-9, widths) != []


def test_density_check():
    edges = _uniform_edges(6)
    assert checks.check_density(edges, np.ones(64)) == []
    assert checks.check_density(edges, np.full(64, 1.01)) != []
    neg = np.ones(64)
    neg[0], neg[1] = -0.5, 2.5
    assert checks.check_density(edges, neg) != []
