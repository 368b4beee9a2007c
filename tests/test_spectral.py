"""Spectra, densities, decay and variance on assembled matrices."""

import dataclasses
import math

import numpy as np
import pytest

import besovtransfer.cli as cli
import besovtransfer.transfer as transfer
from besovtransfer.atoms import (
    BesovParams,
    PiecewiseFn,
    atom_rep,
    canonical_rep,
    canonical_vector,
    coefficient_norm_vector,
    evaluate,
    evaluate_vector,
    level_offsets,
    random_rep,
)
from besovtransfer.dynamics import MapSpec, make_map
from besovtransfer.errors import AssumptionError, ConvergenceError, DegenerateFitError
from besovtransfer.grid import CellId, build_grid
from besovtransfer.spectral import (
    LYReport,
    clt_variance,
    correlations,
    decay_rate,
    eigenvalues,
    green_kubo_variance,
    invariant_density,
    lasota_yorke_verify,
    monte_carlo_variance,
    multiplier_matrix,
    peripheral_spectrum,
    subdominant_modulus,
    support_structure,
    transitivity_check,
)
from besovtransfer.transfer import assemble_matrix

PARAMS = BesovParams()
PHI = (1 + math.sqrt(5)) / 2
CONTRACTION = 2.0 ** (1 / PARAMS.p - PARAMS.s - 1.0)


@pytest.fixture(scope="module")
def doubling_tm():
    system = make_map(MapSpec("doubling"), build_grid(2, 8), PARAMS)
    return assemble_matrix(system, K=8)


@pytest.fixture(scope="module")
def golden_tm():
    system = make_map(MapSpec("beta", beta=PHI), build_grid(2, 9), PARAMS, probe_level=8)
    return assemble_matrix(system, K=9)


@pytest.fixture(scope="module")
def beta18_tm():
    # non-Markov: bottom cells cut at 0.8 and three points of its orbit
    system = make_map(MapSpec("beta", beta=1.8), build_grid(2, 8), PARAMS)
    assert system.grid.cuts
    return assemble_matrix(system, K=8)


def halves_spec(swap: bool):
    # four expanding pieces; each half maps onto itself, or onto the other
    offs = (0.5, 0.5, 0.0, 0.0) if swap else (0.0, 0.0, 0.5, 0.5)
    return MapSpec("pw_linear", breakpoints=(0.0, 0.25, 0.5, 0.75, 1.0),
                   slopes=(2.0, 2.0, 2.0, 2.0), offsets=offs)


@pytest.fixture(scope="module")
def halves_tm():
    system = make_map(halves_spec(swap=False), build_grid(2, 6), PARAMS)
    return assemble_matrix(system, K=6)


@pytest.fixture(scope="module")
def swap_tm():
    system = make_map(halves_spec(swap=True), build_grid(2, 6), PARAMS)
    return assemble_matrix(system, K=6)


# -- eigenvalues -----------------------------------------------------------------

def test_doubling_spectrum_exact(doubling_tm):
    ev = eigenvalues(doubling_tm).values
    assert abs(ev[0] - 1.0) <= 1e-12
    assert np.max(np.abs(ev[1:])) <= 1e-10


def test_pw_linear_markov_matches_doubling(doubling_tm):
    system = make_map(MapSpec("pw_linear", breakpoints=(0.0, 0.5, 1.0),
                              slopes=(2.0, 2.0)), build_grid(2, 8), PARAMS)
    tm = assemble_matrix(system, K=8)
    diff = (tm.matrix - doubling_tm.matrix).toarray()
    assert np.max(np.abs(diff)) <= 1e-14


def test_swap_system_peripheral_group(swap_tm):
    rep = peripheral_spectrum(swap_tm)
    mods = sorted(round(abs(l), 6) for l in rep.peripheral)
    assert 1.0 in mods
    assert any(abs(l + 1.0) <= 1e-9 for l in rep.peripheral)
    # the peripheral set is the two-element cyclic group
    assert len(rep.peripheral) == 2
    assert all(q in (1, 2) for (_, q) in rep.roots_of_unity.values())


def test_swap_density_from_one_half_does_not_converge(swap_tm):
    # the swap carries the mass of one half onto the other: the iterates
    # alternate between the halves, and the power iteration gives up
    system = swap_tm.system
    start = (np.arange(system.grid.n_cells(6)) < system.grid.n_cells(6) // 2).astype(float)
    with pytest.raises(ConvergenceError, match="no convergence in 2000"):
        invariant_density(system, 6, start=start)


def test_halves_eigenspace_dimension(halves_tm):
    rep = peripheral_spectrum(halves_tm)
    assert rep.eigenspace_dim_at_1 == 2
    assert any(abs(l - 1.0) <= 1e-9 for l in rep.peripheral)
    assert not rep.transitive
    assert rep.semisimple
    # the solve doubles k past the two peripheral eigenvalues
    assert rep.solver["k"] == 4 and abs(rep.eigenvalues[-1]) < 1.0 - 1e-6


def test_golden_peripheral(golden_tm):
    rep = peripheral_spectrum(golden_tm)
    assert rep.eigenspace_dim_at_1 == 1
    assert rep.transitive
    assert rep.gap > 0.3
    assert abs(abs(rep.eigenvalues[1]) - 1 / PHI) < 0.02


def test_modulus_bounded_by_one(doubling_tm, golden_tm, halves_tm, swap_tm):
    for tm in (doubling_tm, golden_tm, halves_tm, swap_tm):
        ev = eigenvalues(tm).values
        assert np.max(np.abs(ev)) <= 1.0 + 1e-9


BUILTIN_SPECS = {
    "doubling": MapSpec("doubling"),
    "golden": MapSpec("beta", beta=PHI),
    "beta18": MapSpec("beta", beta=1.8),
    "pw_linear": MapSpec("pw_linear", breakpoints=(0.0, 1 / 3, 1.0), slopes=(3.0, 1.5)),
    "lorenz": MapSpec("lorenz_cusp", exponent=0.75),
    "gauss": MapSpec("gauss", r_max=50),
}


def test_krylov_spectrum_matches_dense():
    # ARPACK's peripheral set and first eigenvalue inside the disc are those
    # of a dense factorisation, on every built-in map the diagonal misses
    solved = []
    for name, spec in BUILTIN_SPECS.items():
        tm = assemble_matrix(make_map(spec, build_grid(2, 8), PARAMS, probe_level=8), K=8)
        es = eigenvalues(tm)
        if es.solver["method"] == "level_triangular":
            continue
        assert es.solver == {"method": "arpack", "k": 2, "ncv": 40, "converged": True}
        dense = np.linalg.eigvals(tm.dense())
        ours = es.values[np.abs(es.values) >= 1.0 - 1e-6]
        ref = dense[np.abs(dense) >= 1.0 - 1e-6]
        assert len(ours) == len(ref), name
        assert np.max(np.abs(np.sort_complex(ours) - np.sort_complex(ref)), initial=0.0) <= 1e-10
        assert abs(subdominant_modulus(es.values) - subdominant_modulus(dense)) <= 1e-10, name
        solved.append(name)
    assert solved == ["golden", "beta18", "pw_linear", "lorenz", "gauss"]


# -- inequality fit ----------------------------------------------------------------

def test_ly_doubling_rate(doubling_tm):
    rep = lasota_yorke_verify(doubling_tm, ensemble_size=60, n_max=20, seed=1)
    assert rep.passed
    assert rep.lam <= CONTRACTION + 1e-9


def test_ly_fixed_point_trivial(doubling_tm):
    rho, _ = invariant_density(doubling_tm.system, doubling_tm.K)
    vec = canonical_vector(rho.values.astype(complex), doubling_tm.grid,
                           doubling_tm.K, PARAMS)
    out = doubling_tm.apply(vec)
    assert np.max(np.abs(out - vec)) <= 1e-12


def test_block_norms_match_vector_norms(beta18_tm):
    # the inequality fit takes the norms of its ensemble as one block
    tm = beta18_tm
    rng = np.random.default_rng(3)
    block = np.stack([random_rep(tm.grid, PARAMS, rng, n_atoms=20, max_level=tm.K)
                      .to_vector(tm.K) for _ in range(60)], axis=1).astype(complex)
    off = level_offsets(tm.grid, tm.K)

    def reference(vec):
        # level by level in scalar arithmetic
        masses = np.asarray([float(np.sum(np.abs(vec[off[k]:off[k + 1]]) ** PARAMS.p)
                                   ** (1.0 / PARAMS.p)) for k in range(tm.K + 1)])
        return float(np.sum(masses ** PARAMS.q) ** (1.0 / PARAMS.q))

    for _ in range(20):
        block = np.asfortranarray(tm.apply(block))
        norms = coefficient_norm_vector(block, tm.grid, tm.K, PARAMS)
        each = [coefficient_norm_vector(col, tm.grid, tm.K, PARAMS) for col in block.T]
        assert norms.tolist() == each == [reference(col) for col in block.T]


def test_ly_golden(golden_tm):
    rep = lasota_yorke_verify(golden_tm, ensemble_size=40, n_max=20, seed=2)
    assert rep.passed and rep.lam < 1.0


def _ly_member_by_member(tm, ensemble_size, n_max, seed):
    """lasota_yorke_verify as it was: one random_rep per member, a complex
    block, and every step's norms taken whole."""
    grid, params = tm.grid, tm.params
    rng = np.random.default_rng(seed)
    block = np.asfortranarray(np.stack(
        [random_rep(grid, params, rng, n_atoms=20, max_level=tm.K).to_vector(tm.K)
         for _ in range(ensemble_size)], axis=1).astype(np.complex128))
    l1s = [float(grid.integrate(tm.K, np.abs(evaluate_vector(col, grid, tm.K, params))))
           for col in block.T]
    steps = [coefficient_norm_vector(block, grid, tm.K, params)]
    for _ in range(n_max):
        block = np.asfortranarray(tm.apply(block))
        steps.append(coefficient_norm_vector(block, grid, tm.K, params))
    trajectories = list(zip(l1s, np.asarray(steps).T.tolist()))
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
    cap = tm.ledger.essential_bound
    return LYReport(C=c_hat, lam=lam_fit, n_max=n_max, ensemble_size=ensemble_size, cap=cap,
                    passed=lam_fit < 1.0 and lam_fit <= cap + 1e-9, seed=seed)


@pytest.fixture(scope="module")
def ly_matrices(doubling_tm, golden_tm, beta18_tm):
    pw = MapSpec("pw_linear", breakpoints=(0.0, 1 / 3, 1.0), slopes=(3.0, 1.5))
    return {"doubling": doubling_tm, "golden": golden_tm, "beta18": beta18_tm,
            "pw_linear": assemble_matrix(make_map(pw, build_grid(2, 8), PARAMS), K=8),
            "gauss": assemble_matrix(make_map(MapSpec("gauss", r_max=20), build_grid(2, 7),
                                              PARAMS), K=7),
            "m_ary3": assemble_matrix(make_map(MapSpec("m_ary", arity=3), build_grid(3, 5),
                                               PARAMS), K=5)}


def test_ly_equals_the_member_by_member_fit(ly_matrices):
    # the ensemble drawn as one block and iterated as floats, its norms
    # streamed step by step, gives the same report bit for bit
    lams = []
    for name, tm in ly_matrices.items():
        for seed in (0, 4, 9):
            got = lasota_yorke_verify(tm, ensemble_size=30, n_max=12, seed=seed)
            assert got == _ly_member_by_member(tm, 30, 12, seed), (name, seed)
            lams.append(got.lam)
    tm = ly_matrices["pw_linear"]
    assert lasota_yorke_verify(tm, 60, 20, 1) == _ly_member_by_member(tm, 60, 20, 1)
    assert sum(lam > 0 for lam in lams) >= 9     # the fit of lambda is exercised


# -- invariant densities -------------------------------------------------------------

def test_density_doubling_flat(doubling_tm):
    rho, info = invariant_density(doubling_tm.system, doubling_tm.K)
    assert np.max(np.abs(rho.values - 1.0)) <= 1e-12
    assert info.clamp_mass == 0.0


def test_density_golden_parry(golden_tm):
    rho, info = invariant_density(golden_tm.system, golden_tm.K)
    x = (np.arange(rho.values.size) + 0.5) / rho.values.size
    hi = float(np.median(rho.values[x < 1 / PHI - 0.05]))
    lo = float(np.median(rho.values[x > 1 / PHI + 0.05]))
    # plateau ratio approaches the golden ratio at the truncation's own
    # rate (measured 2.7e-3 at this resolution, shrinking ~2x per level)
    assert hi / lo == pytest.approx(PHI, abs=4e-3)
    # the two-plateau closed form, exactly normalized
    c = PHI / (2 * PHI - 1)
    truth = np.where(x < 1 / PHI, PHI * c, c)
    assert np.abs(rho.values - truth).mean() <= 6e-3
    # at level 10 the cell containing 1/phi is cut at 1/phi, and the fixed
    # point is the two-plateau density itself
    system = make_map(MapSpec("beta", beta=PHI), build_grid(2, 10), PARAMS,
                      probe_level=8)
    (edge, x_cut), = system.grid.cuts
    assert x_cut == pytest.approx(1 / PHI, abs=1e-15)
    assert system.grid.interval(CellId(10, edge))[0] == x_cut
    rho10, _ = invariant_density(system, 10)
    lo, hi, _ = system.grid.extents(10, np.arange(system.grid.n_cells(10)))
    mid = 0.5 * (lo + hi)
    truth10 = np.where(mid < 1 / PHI, PHI * c, c)
    assert np.max(np.abs(rho10.values - truth10)) <= 1e-10


def _atom_basis_density(tm, tol=1e-12, max_iter=2000):
    # reference: the renormalized power iteration of the atom matrix M from
    # the top atom, stopped on the change of the coefficient vector
    # (the mass functional: coefficients to the integral of the expansion)
    off, mf = level_offsets(tm.grid, tm.K), np.zeros(tm.size)
    for k in range(tm.K + 1):
        mf[off[k]:off[k + 1]] = tm.grid.widths(k) ** (tm.params.s - 1.0 / tm.params.p + 1.0)
    vec = np.zeros(tm.size)
    vec[0] = 1.0
    vec /= mf @ vec
    for _ in range(max_iter):
        new = tm.matrix @ vec
        mass = mf @ new
        deficit = 1.0 - mass
        new = new / mass
        delta = float(np.max(np.abs(new - vec)))
        vec = new
        if delta < tol:
            break
    else:
        raise AssertionError("reference iteration did not converge")
    vals = np.maximum(np.real(evaluate_vector(vec, tm.grid, tm.K, PARAMS)), 0.0)
    return vals / tm.grid.integrate(tm.K, vals), deficit


@pytest.mark.parametrize("name,K", [("beta18", 9), ("lorenz", 10), ("gauss", 10)])
def test_bin_operator_route_matches_atom_basis_iteration(name, K):
    # E M = U E: the density and the correlations on cell values are those
    # of the atom matrix, evaluated
    tm = assemble_matrix(make_map(BUILTIN_SPECS[name], build_grid(2, K), PARAMS), K=K)
    grid = tm.grid
    rho, info = invariant_density(tm.system, K)
    ref, ref_deficit = _atom_basis_density(tm)
    assert grid.integrate(K, np.abs(rho.values - ref)) <= 1e-12
    assert abs(info.deficit - ref_deficit) <= 1e-12
    u = random_rep(grid, PARAMS, np.random.default_rng(5), n_atoms=20, max_level=K)
    v = PiecewiseFn.from_function(grid, K, lambda x: np.cos(2 * np.pi * x))
    cks = correlations(tm.system, u, v, k_max=30, density=rho)
    vec = u.to_vector(K).astype(complex)
    mass_u = grid.integrate(K, evaluate_vector(vec, grid, K, PARAMS))
    mean_v = float(np.real(grid.integrate(K, v.values * rho.values)))
    for k in range(31):
        ck = grid.integrate(K, v.values * evaluate_vector(vec, grid, K, PARAMS)) \
            - mean_v * mass_u
        assert abs(cks[k] - ck) <= 1e-12, (name, k)
        vec = tm.matrix @ vec


def test_function_space_analyses_never_read_the_atom_matrix(beta18_tm, tmp_path, monkeypatch):
    # density, correlations, the decay fit and the CLT take the system: with
    # assembly refused they give on a fresh system what they give on one
    # whose M was assembled, and a CLI run of density and clt builds no M
    grid, K = beta18_tm.grid, beta18_tm.K
    u = atom_rep(CellId(1, 0), PARAMS, grid, 1.0) + atom_rep(CellId(1, 1), PARAMS, grid, -1.0)
    v = evaluate(u, K)
    start = np.linspace(0.5, 1.5, grid.n_cells(K))

    def run(system):
        rho, info = invariant_density(system, K)
        rho_s, _ = invariant_density(system, K, start=start)
        cks = correlations(system, u, v, k_max=20, density=rho)
        decay = decay_rate(system, u, v, k_max=40, lambda2=0.7, density=rho)
        clt = clt_variance(system, v)
        return (rho.values.tolist(), dataclasses.astuple(info), rho_s.values.tolist(),
                cks.tolist(), decay.fitted_rate, clt.sigma2, clt.green_kubo)

    expected = run(beta18_tm.system)

    def refuse(*args, **kwargs):
        raise AssertionError("atom matrix assembled")

    monkeypatch.setattr(transfer, "assemble_matrix", refuse)
    monkeypatch.setattr(cli, "assemble_matrix", refuse)
    assert run(make_map(MapSpec("beta", beta=1.8), build_grid(2, 8), PARAMS)) == expected
    config = cli.RunConfig.from_json(
        {"grid": {"arity": 2, "max_level": 8}, "map": {"map": "beta", "beta": 1.8},
         "analyses": ["density", "clt"]}, tmp_path)
    written = cli.Runner(config).run()
    assert [p.name for p in written] == ["density.csv", "density_info.json", "clt.json"]


def test_density_jump_located_at_plateau_boundary(golden_tm):
    rho, _ = invariant_density(golden_tm.system, golden_tm.K)
    jumps = np.abs(np.diff(rho.values))
    j = int(np.argmax(jumps))
    x_jump = (j + 1) / rho.values.size
    assert abs(x_jump - 1 / PHI) <= 1.0 / rho.values.size + 1e-12


# -- support ---------------------------------------------------------------------------

def test_support_doubling_whole_space(doubling_tm):
    rho, _ = invariant_density(doubling_tm.system, doubling_tm.K)
    rep = support_structure(rho, doubling_tm.grid, tol=1e-9)
    assert rep.cells == [CellId(0, 0)]
    assert rep.defect_mass == 0.0


def test_support_half_system(halves_tm):
    # start mass in the left half only; the halves never communicate
    vals = np.zeros(halves_tm.grid.n_cells(halves_tm.K))
    vals[: vals.size // 2] = 2.0
    rho, _ = invariant_density(halves_tm.system, halves_tm.K, start=vals)
    rep = support_structure(rho, halves_tm.grid, tol=1e-9)
    assert rep.cells == [CellId(1, 0)]
    assert rep.defect_mass <= 1e-12


def test_support_counts_bound_eigen_dimension(halves_tm):
    # disjoint ergodic supports found from independent seeds never exceed
    # the 1-eigenspace dimension
    n_vals = halves_tm.grid.n_cells(halves_tm.K)
    supports = []
    for half in (0, 1):
        vals = np.zeros(n_vals)
        sl = slice(0, n_vals // 2) if half == 0 else slice(n_vals // 2, n_vals)
        vals[sl] = 2.0
        rho, _ = invariant_density(halves_tm.system, halves_tm.K, start=vals)
        supports.append(frozenset(support_structure(rho, halves_tm.grid).cells))
    assert len(set(supports)) == 2
    assert len(supports) <= peripheral_spectrum(halves_tm).eigenspace_dim_at_1


# -- transitivity ------------------------------------------------------------------------

def test_transitivity(doubling_tm, golden_tm, halves_tm):
    for lev in (2, 4, 6):
        assert transitivity_check(doubling_tm.system, lev)
        assert transitivity_check(golden_tm.system, lev)
    assert not transitivity_check(halves_tm.system, 3)


# -- decay --------------------------------------------------------------------------------

def test_decay_doubling_nilpotent(doubling_tm):
    # zero-mean observables at levels <= K die after at most K steps
    u = atom_rep(CellId(3, 2), PARAMS, doubling_tm.grid, 1.0) \
        + atom_rep(CellId(3, 3), PARAMS, doubling_tm.grid, -1.0)
    v = PiecewiseFn.from_function(doubling_tm.grid, doubling_tm.K,
                                  lambda x: np.cos(2 * np.pi * x))
    cks = correlations(doubling_tm.system, u, v, k_max=doubling_tm.K + 4)
    assert np.max(np.abs(cks[doubling_tm.K + 1:])) <= 1e-12
    with pytest.raises(DegenerateFitError):
        decay_rate(doubling_tm.system, u, v, k_max=doubling_tm.K + 4,
                   lambda2=subdominant_modulus(eigenvalues(doubling_tm).values))


def test_decay_fixed_density_orthogonal(doubling_tm):
    rho, _ = invariant_density(doubling_tm.system, doubling_tm.K)
    rep = canonical_rep(rho, PARAMS)
    centered = rep + atom_rep(CellId(0, 0), PARAMS, doubling_tm.grid,
                              -rho.integral())
    v = PiecewiseFn.from_function(doubling_tm.grid, doubling_tm.K,
                                  lambda x: np.sin(2 * np.pi * x))
    cks = correlations(doubling_tm.system, centered, v, k_max=10)
    assert np.max(np.abs(cks)) <= 1e-10


def test_decay_golden_rate(golden_tm):
    grid = golden_tm.grid
    u = atom_rep(CellId(1, 0), PARAMS, grid, 1.0) \
        + atom_rep(CellId(1, 1), PARAMS, grid, -1.0)
    v = evaluate(u, golden_tm.K)
    rep = decay_rate(golden_tm.system, u, v, k_max=36,
                     lambda2=subdominant_modulus(eigenvalues(golden_tm).values))
    assert rep.passed
    assert rep.fitted_rate <= rep.certificate_rate + 0.02


# -- variance ---------------------------------------------------------------------------


def test_clt_zero_observable(doubling_tm):
    v = PiecewiseFn.constant(doubling_tm.grid, doubling_tm.K, 0.0)
    rep = clt_variance(doubling_tm.system, v)
    assert abs(rep.sigma2) <= 1e-12
    assert abs(rep.green_kubo) <= 1e-12


def test_clt_doubling_cosine(doubling_tm):
    v = PiecewiseFn.from_function(doubling_tm.grid, doubling_tm.K,
                                  lambda x: np.cos(2 * np.pi * x))
    rep = clt_variance(doubling_tm.system, v)
    assert rep.sigma2 == pytest.approx(0.5, abs=1e-3)
    assert abs(rep.sigma2 - rep.green_kubo) <= 1e-4


def test_clt_half_indicator_cross_check(doubling_tm):
    vals = np.where(np.arange(doubling_tm.grid.n_cells(doubling_tm.K))
                    < doubling_tm.grid.n_cells(doubling_tm.K) // 2, 0.5, -0.5)
    v = PiecewiseFn(doubling_tm.grid, doubling_tm.K, vals.astype(float))
    rep = clt_variance(doubling_tm.system, v)
    assert abs(rep.sigma2 - rep.green_kubo) <= 1e-4
    assert rep.sigma2 == pytest.approx(0.25, abs=1e-3)


def test_clt_monte_carlo_oracle(doubling_tm):
    system = doubling_tm.system
    sig = monte_carlo_variance(system, lambda x: np.cos(2 * np.pi * x),
                               n_samples=10 ** 6, burn_in=10 ** 3, seed=20240801)
    v = PiecewiseFn.from_function(doubling_tm.grid, doubling_tm.K,
                                  lambda x: np.cos(2 * np.pi * x))
    rep = clt_variance(doubling_tm.system, v)
    assert abs(sig - rep.sigma2) <= 5e-3


def test_monte_carlo_orbit_leaving_the_images_raises():
    # the images of the truncated Gauss map start at 1/21: an orbit lands
    # below them within a few steps
    system = make_map(MapSpec("gauss", r_max=20), build_grid(2, 8), PARAMS, probe_level=7)
    with pytest.raises(AssumptionError, match="orbit step 1: no branch image contains x = "):
        monte_carlo_variance(system, lambda x: np.cos(2 * np.pi * x))


def test_twist_matches_dense_atom_operator(doubling_tm, beta18_tm):
    # the twist on cell values, U(phase * f), has the leading eigenvalue of
    # the atom matrix times the dense multiplier
    for tm in (doubling_tm, beta18_tm):
        v = PiecewiseFn.from_function(tm.grid, tm.K, lambda x: np.cos(2 * np.pi * x))
        rho, _ = invariant_density(tm.system, tm.K)
        rep = clt_variance(tm.system, v, density=rho)
        vc = v.values - float(np.real(tm.grid.integrate(tm.K, v.values * rho.values)))
        for t in rep.t_grid:
            ev = np.linalg.eigvals(tm.dense() @ multiplier_matrix(tm, np.exp(1j * t * vc)))
            assert abs(rep.leading[t] - ev[np.argmax(np.abs(ev))]) <= 1e-12


def test_observable_on_other_grid_refused():
    # golden K=10 cuts the cell holding 1/phi; an observable built on the
    # uncut grid has the right cell count but the wrong cells
    system = make_map(MapSpec("beta", beta=PHI), build_grid(2, 10), PARAMS,
                      probe_level=8)
    assert system.grid.cuts
    rho, _ = invariant_density(system, 10)
    u = atom_rep(CellId(1, 0), PARAMS, system.grid, 1.0) \
        + atom_rep(CellId(1, 1), PARAMS, system.grid, -1.0)

    def cos(x):
        return np.cos(2 * np.pi * x)

    uncut = PiecewiseFn.from_function(build_grid(2, 10), 10, cos)
    coarse = PiecewiseFn.from_function(system.grid, 9, cos)
    for v in (uncut, coarse):
        with pytest.raises(ValueError, match="observable"):
            correlations(system, u, v, k_max=3, density=rho)
        with pytest.raises(ValueError, match="observable"):
            green_kubo_variance(system, v, rho)
        with pytest.raises(ValueError, match="observable"):
            clt_variance(system, v, density=rho)
    v = PiecewiseFn.from_function(system.grid, 10, cos)
    assert correlations(system, u, v, k_max=3, density=rho).shape == (4,)
