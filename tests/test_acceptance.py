"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail lines.
Everything is deterministic: fixed seeds, fixed grids, fixed tolerances.
"""

import json
import math

import numpy as np
import pytest

from besovtransfer.atoms import (
    BesovParams,
    PiecewiseFn,
    atom_rep,
    canonical_rep,
    coefficient_norm_vector,
    evaluate,
    random_rep,
)
from besovtransfer.cli import EXIT_OK, main
from besovtransfer.dynamics import MapSpec, make_map
from besovtransfer.grid import CellId, build_grid, validate_grid
from besovtransfer.spectral import (
    clt_variance,
    correlations,
    decay_rate,
    eigenvalues,
    invariant_density,
    lasota_yorke_verify,
    monte_carlo_variance,
    peripheral_spectrum,
    subdominant_modulus,
    support_structure,
)
from besovtransfer.transfer import (
    apply_transfer,
    assemble_matrix,
    build_cell_operator,
    lebesgue_bound_check,
)

PARAMS = BesovParams()          # the default exponent box
PHI = (1 + math.sqrt(5)) / 2
CONTRACTION = 2.0 ** (1 / PARAMS.p - PARAMS.s - 1.0)   # 2**-0.9 at defaults


def _criterion(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:>2}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# -- shared heavy fixtures -------------------------------------------------------

BUILTIN_SPECS = {
    "doubling": (MapSpec("doubling"), 2, 10),
    "m_ary3": (MapSpec("m_ary", arity=3), 3, 6),
    "golden": (MapSpec("beta", beta=PHI), 2, 10),
    "pw_linear": (MapSpec("pw_linear", breakpoints=(0.0, 1 / 3, 1.0),
                          slopes=(3.0, 1.5)), 2, 9),
    "lorenz": (MapSpec("lorenz_cusp", exponent=0.75), 2, 9),
    "gauss": (MapSpec("gauss", r_max=50), 2, 10),
}


@pytest.fixture(scope="module")
def matrices():
    out = {}
    for name, (spec, arity, K) in BUILTIN_SPECS.items():
        grid = build_grid(arity, K)
        system = make_map(spec, grid, PARAMS, probe_level=min(8, K))
        out[name] = assemble_matrix(system, K=K)
    return out


@pytest.fixture(scope="module")
def golden12():
    grid = build_grid(2, 12)
    system = make_map(MapSpec("beta", beta=PHI), grid, PARAMS, probe_level=8)
    return assemble_matrix(system, K=12)


def halves_matrix(swap: bool):
    offs = (0.5, 0.5, 0.0, 0.0) if swap else (0.0, 0.0, 0.5, 0.5)
    spec = MapSpec("pw_linear", breakpoints=(0.0, 0.25, 0.5, 0.75, 1.0),
                   slopes=(2.0, 2.0, 2.0, 2.0), offsets=offs)
    return assemble_matrix(make_map(spec, build_grid(2, 6), PARAMS), K=6)


# -- criteria ---------------------------------------------------------------------

def test_criterion_01_grid_axioms():
    worst_dev, worst_ratio = 0.0, 0.0
    ok = True
    for arity in (2, 3):
        grid = build_grid(arity, 12)
        report = validate_grid(grid)
        ok = ok and report.all_pass and report.overlap_bound == 1
        worst_dev = max(worst_dev, report.measure_sum_dev)
        ok = ok and report.ratio_min == report.ratio_max == 1.0 / arity
    ok = ok and worst_dev <= 1e-12
    _criterion(1, "dyadic and triadic grids to level 12 satisfy the axioms",
               ok, f"max measure-sum deviation {worst_dev:.2e}")


def test_criterion_02_reconstruction():
    grid = build_grid(2, 10)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        vals = rng.standard_normal(grid.n_cells(10))
        f = PiecewiseFn(grid, 10, vals)
        back = evaluate(canonical_rep(f, PARAMS), 10)
        worst = max(worst, float(np.max(np.abs(back.values - vals))))
    _criterion(2, "canonical expansion reconstructs 100 random functions",
               worst <= 1e-12, f"worst per-cell error {worst:.2e}")


def test_criterion_03_doubling_exactness(matrices):
    tm = matrices["doubling"]
    rep = atom_rep(CellId(0, 0), PARAMS, tm.grid)
    flat = evaluate(apply_transfer(tm.system, rep, mode="analytic"), tm.K)
    ok1 = float(np.max(np.abs(flat.values - 1.0))) <= 1e-12
    ev = eigenvalues(tm).values
    ok2 = abs(ev[0] - 1.0) <= 1e-12 and float(np.max(np.abs(ev[1:]))) <= 1e-10
    worst = 0.0
    for k in range(1, tm.K + 1):
        for j in (0, tm.grid.n_cells(k) // 2, tm.grid.n_cells(k) - 1):
            out = apply_transfer(tm.system, atom_rep(CellId(k, j), PARAMS, tm.grid),
                                 mode="analytic")
            (cell, val), = out.coeffs.items()
            worst = max(worst, abs(val - CONTRACTION))
    ok3 = worst <= 1e-12
    _criterion(3, "doubling map: unit density, pure point spectrum, exact "
                  "per-atom contraction 2**(1/p-s-1)",
               ok1 and ok2 and ok3,
               f"contraction error {worst:.2e}, residual spectrum "
               f"{float(np.max(np.abs(ev[1:]))):.2e}")


def _golden_oracle_distance(golden12):
    rho, _ = invariant_density(golden12.system, golden12.K)
    # independent oracle: cell-operator iteration two levels deeper
    grid14 = build_grid(2, 14)
    sys14 = make_map(MapSpec("beta", beta=PHI), grid14, PARAMS, probe_level=6)
    U = build_cell_operator(sys14, 14)
    v = np.ones(2 ** 14)
    for _ in range(900):
        nv = U @ v
        nv /= nv.mean()
        if np.max(np.abs(nv - v)) < 1e-13:
            break
        v = nv
    oracle = v.reshape(2 ** 12, 4).mean(axis=1)
    return rho, float(np.abs(rho.values - oracle).mean())


def test_criterion_04_golden_plateau(golden12):
    rho, _ = invariant_density(golden12.system, golden12.K)
    x = (np.arange(2 ** 12) + 0.5) / 2 ** 12
    hi = float(np.median(rho.values[x < 1 / PHI - 0.02]))
    lo = float(np.median(rho.values[x > 1 / PHI + 0.02]))
    plateau_err = abs(hi / lo - PHI)
    _criterion(4, "golden beta map: plateau ratio within 1e-3",
               plateau_err <= 1e-3, f"plateau error {plateau_err:.2e}")


def test_criterion_04_golden_density_l1(golden12):
    # The density jumps at 1/phi.  On uniform dyadic cells the truncation
    # smears that jump (the bias of Ulam's method), which put the level-12
    # fixed point 7e-4 from the true two-plateau density.  make_map cuts the
    # level-12 cell containing 1/phi at 1/phi, so the fixed point is the
    # exact Parry density on the cut cells; what remains of the distance is
    # the level-14 oracle's own bias (its cut would be too thin and is not
    # made) plus the one cut cell, which the oracle averages over the
    # uniform cell instead.
    rho, l1 = _golden_oracle_distance(golden12)
    _criterion(4, "golden beta map: level-12 density within 5e-4 of the "
                  "level-14 oracle", l1 <= 5e-4, f"measured L1 distance {l1:.3e}")


def test_criterion_05_gauss_density(matrices):
    tm = matrices["gauss"]
    rho, info = invariant_density(tm.system, tm.K)
    x = (np.arange(tm.grid.n_cells(tm.K)) + 0.5) / tm.grid.n_cells(tm.K)
    truth = 1.0 / ((1.0 + x) * math.log(2.0))
    l1 = float(np.abs(rho.values - truth).mean())
    tol = 1e-3 + info.deficit
    ok_l1 = l1 <= tol
    report = lebesgue_bound_check(tm.system)
    ok_sums = (math.isfinite(report.sum_l2) and math.isfinite(report.sum_l3)
               and report.a0_pass)
    _criterion(5, "continued-fraction map: density matches the closed form "
                  "within 1e-3 plus reported tail mass; class sums finite",
               ok_l1 and ok_sums,
               f"L1 {l1:.3e} vs tol {tol:.3e}; sums {report.sum_l2:.3f}/"
               f"{report.sum_l3:.3f}")


def test_criterion_06_certificate(matrices):
    rng = np.random.default_rng(7)
    violations = 0
    pos_ok = True
    worst_slack = math.inf
    for name, tm in matrices.items():
        factor = tm.ledger.transfer_factor
        M = tm.matrix
        for i in range(200):
            rep = random_rep(tm.grid, PARAMS, rng, n_atoms=25, max_level=tm.K,
                             positive=(i % 2 == 0))
            vec = rep.to_vector(tm.K)
            n_in = coefficient_norm_vector(vec, tm.grid, tm.K, PARAMS)
            if n_in == 0:
                continue
            out = M @ vec
            n_out = coefficient_norm_vector(out, tm.grid, tm.K, PARAMS)
            if n_out > factor * n_in * (1 + 1e-9):
                violations += 1
            worst_slack = min(worst_slack, factor * n_in / max(n_out, 1e-300))
            if i % 2 == 0:
                if np.min(out) < -1e-12:
                    pos_ok = False
    _criterion(6, "certified norm bound holds on 200 random expansions per "
                  "map with positivity preserved",
               violations == 0 and pos_ok,
               f"violations {violations}, smallest certificate slack "
               f"{worst_slack:.1f}x")


def test_criterion_07_mode_cross_check(matrices):
    rng = np.random.default_rng(11)
    worst = 0.0
    for name, tm in matrices.items():
        for _ in range(50):
            rep = random_rep(tm.grid, PARAMS, rng, n_atoms=15, max_level=tm.K)
            out = apply_transfer(tm.system, rep, mode="analytic", cross_check=True)
            margin = out.meta["cross_check_l1"] - out.meta["defect_l1"]
            worst = max(worst, margin)
    _criterion(7, "analytic and numeric routes agree within 1e-6 plus "
                  "truncation defect (50 expansions per map)",
               worst <= 1e-6, f"worst excess over defect {worst:.2e}")


def test_criterion_08_lasota_yorke(matrices):
    reports = {name: lasota_yorke_verify(tm, ensemble_size=100, n_max=20, seed=5)
               for name, tm in matrices.items()}
    ok_doub = reports["doubling"].lam <= 0.536
    ok_all = all(r.passed and r.lam < 1.0 for r in reports.values())
    lam_txt = ", ".join(f"{n}={r.lam:.3f}" for n, r in reports.items())
    _criterion(8, "norm inequality: doubling rate below 0.536, every map "
                  "fits a rate below 1 over 100-sample ensembles",
               ok_doub and ok_all, lam_txt)


def test_criterion_09_clt_variance(matrices):
    tm = matrices["doubling"]
    v = PiecewiseFn.from_function(tm.grid, tm.K, lambda x: np.cos(2 * np.pi * x))
    rep = clt_variance(tm.system, v)
    mc = monte_carlo_variance(tm.system, lambda x: np.cos(2 * np.pi * x),
                              n_samples=10 ** 6, burn_in=10 ** 3, seed=20240801)
    ok1 = abs(rep.sigma2 - 0.5) <= 1e-3
    ok2 = abs(rep.sigma2 - rep.green_kubo) <= 1e-4
    ok3 = abs(rep.sigma2 - mc) <= 5e-3
    _criterion(9, "variance of the cosine observable: 0.5 by the perturbed "
                  "eigenvalue, lag-sum and orbit-sample cross-checks",
               ok1 and ok2 and ok3,
               f"sigma2 {rep.sigma2:.6f}, lag-sum diff "
               f"{abs(rep.sigma2 - rep.green_kubo):.1e}, orbit diff "
               f"{abs(rep.sigma2 - mc):.1e}")


def test_criterion_10_decay(matrices):
    tm = matrices["doubling"]
    u = atom_rep(CellId(3, 2), PARAMS, tm.grid, 1.0) \
        + atom_rep(CellId(3, 5), PARAMS, tm.grid, -1.0)
    v = PiecewiseFn.from_function(tm.grid, tm.K, lambda x: np.cos(2 * np.pi * x))
    cks = correlations(tm.system, u, v, k_max=tm.K + 5)
    ok_doub = float(np.max(np.abs(cks[tm.K + 1:]))) <= 1e-12
    tg = matrices["golden"]
    ug = atom_rep(CellId(1, 0), PARAMS, tg.grid, 1.0) \
        + atom_rep(CellId(1, 1), PARAMS, tg.grid, -1.0)
    vg = evaluate(ug, tg.K)
    drep = decay_rate(tg.system, ug, vg, k_max=40,
                      lambda2=subdominant_modulus(eigenvalues(tg).values))
    ok_gold = drep.fitted_rate <= drep.certificate_rate + 0.02
    _criterion(10, "correlations: doubling dies exactly beyond the basis "
                   "depth; golden fit stays under the spectral rate",
               ok_doub and ok_gold,
               f"doubling tail {float(np.max(np.abs(cks[tm.K + 1:]))):.1e}, "
               f"golden fit {drep.fitted_rate:.3f} vs "
               f"{drep.certificate_rate:.3f}+0.02")


def test_criterion_11_structure(matrices):
    worst_defect = 0.0
    for name in ("doubling", "golden", "gauss"):
        tm = matrices[name]
        rho, _ = invariant_density(tm.system, tm.K)
        srep = support_structure(rho, tm.grid, tol=1e-9)
        worst_defect = max(worst_defect, srep.defect_mass)
    ok_cover = worst_defect <= 1e-6
    halves = halves_matrix(swap=False)
    sp_h = peripheral_spectrum(halves)
    ok_halves = (sp_h.eigenspace_dim_at_1 == 2
                 and any(abs(l - 1) <= 1e-9 for l in sp_h.peripheral))
    swap = halves_matrix(swap=True)
    sp_s = peripheral_spectrum(swap)
    ok_swap = (any(abs(l + 1) <= 1e-9 for l in sp_s.peripheral)
               and len(sp_s.peripheral) == 2
               and all(q in (1, 2) for _, q in sp_s.roots_of_unity.values()))
    _criterion(11, "supports are cell unions; decoupled halves give a "
                   "2-dimensional fixed space; the swap variant gives the "
                   "order-2 peripheral group",
               ok_cover and ok_halves and ok_swap,
               f"worst support defect {worst_defect:.1e}")


def test_criterion_12_determinism(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "grid": {"arity": 2, "max_level": 8},
        "params": {"s": 0.4, "p": 2.0, "q": 2.0, "beta": 0.45,
                   "eps": 0.1, "delta": 0.05, "gamma": 0.5},
        "map": {"map": "beta", "beta": PHI},
        "analyses": ["density"],
        "seed": 3,
    }))
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        for command in ("density", "ledger", "ly"):
            assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        outs.append(out)
    identical = True
    for fname in ("density.csv", "density_info.json", "ledger.csv", "ly.json"):
        if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
            identical = False
    _criterion(12, "identical configuration and seed produce byte-identical "
                   "outputs", identical)
