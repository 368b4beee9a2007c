"""Atom expansions: norms, canonical transform, conversions, multipliers."""

import dataclasses
import math

import numpy as np
import pytest

from besovtransfer.atoms import (
    subtree_rep,
    AtomicRep,
    BesovAtom,
    BesovParams,
    PiecewiseFn,
    atom_rep,
    atom_heights,
    besov_to_souza,
    canonical_rep,
    canonical_vector,
    coefficient_norm,
    coefficient_table,
    evaluate,
    evaluate_vector,
    multiplier_apply,
    power_table,
    random_block,
    random_rep,
    subtree_indices,
    subtree_norms,
    tree_rep,
)
from besovtransfer.dynamics import MapSpec, make_map, working_grid
from besovtransfer.errors import AtomBudgetError, ParamsError
from besovtransfer.grid import CellId, build_grid

PARAMS = BesovParams()
GRID = build_grid(2, 8)


def l1_distance(f, g):
    """The L1 distance of two functions on the same cells."""
    assert (f.grid, f.level) == (g.grid, g.level)
    return float(f.grid.integrate(f.level, np.abs(f.values - g.values)))


# -- parameter box -------------------------------------------------------------

def test_default_params_valid():
    p = BesovParams()
    assert p.t0 == pytest.approx(2.0 / 0.3)
    assert 2.0 < p.t0 < 2.0 / (1 - 0.8)


def test_params_reject_s_eps_box():
    with pytest.raises(ParamsError, match=r"0 < s\+ε ≤ 1/p"):
        BesovParams(s=0.45, eps=0.1).validate()


def test_params_reject_beta_box():
    with pytest.raises(ParamsError, match="β"):
        BesovParams(beta=0.6).validate()


def test_params_reject_delta_box():
    with pytest.raises(ParamsError, match="δ"):
        BesovParams(delta=0.5).validate()


# -- atoms and evaluation ------------------------------------------------------

def test_atom_on_whole_space_is_one():
    f = evaluate(atom_rep(CellId(0, 0), PARAMS, GRID))
    assert np.allclose(f.values, 1.0)


def test_atom_is_indicator_when_s_equals_recip_p():
    p = BesovParams(s=0.5, p=2.0)
    f = evaluate(atom_rep(CellId(3, 2), p, GRID))
    lo, hi = GRID.interval(CellId(3, 2))
    mids = (np.arange(256) + 0.5) / 256
    inside = (mids >= lo) & (mids < hi)
    assert np.allclose(f.values[inside], 1.0)
    assert np.allclose(f.values[~inside], 0.0)


def test_atom_value_level2():
    f = evaluate(atom_rep(CellId(2, 1), PARAMS, GRID))
    # |Q|**(s-1/p) = (1/4)**(-0.1) = 4**0.1
    assert f.values.max() == pytest.approx(4 ** 0.1)
    assert f.values.max() == pytest.approx(1.148698354997035, rel=1e-12)


def test_coefficient_norm_single():
    assert coefficient_norm(atom_rep(CellId(4, 3), PARAMS, GRID)) == pytest.approx(1.0)


def test_coefficient_norm_two_cells_one_level():
    rep = AtomicRep.from_cells(PARAMS, GRID, {CellId(1, 0): 1.0, CellId(1, 1): 1.0})
    assert coefficient_norm(rep) == pytest.approx(math.sqrt(2.0))


def test_coefficient_norm_q1_four_levels():
    p = BesovParams(q=1.0)
    rep = AtomicRep.from_cells(p, GRID, {CellId(k, 0): 1.0 for k in range(4)})
    assert coefficient_norm(rep) == pytest.approx(4.0)


def test_coefficient_norm_q_inf():
    p = BesovParams(q=math.inf)
    rep = AtomicRep.from_cells(p, GRID, {CellId(0, 0): 1.0, CellId(1, 0): 3.0, CellId(1, 1): 4.0})
    assert coefficient_norm(rep) == pytest.approx(5.0)


def test_evaluate_tiling_indicators():
    p = BesovParams(s=0.5, p=2.0)
    rep = AtomicRep.from_cells(p, GRID, {CellId(1, 0): 0.7, CellId(1, 1): 0.7})
    f = evaluate(rep)
    assert np.allclose(f.values, 0.7)


def test_norm_independent_of_s():
    rng = np.random.default_rng(3)
    rep = random_rep(GRID, PARAMS, rng, normalize=False)
    for s in (0.2, 0.3, 0.45):
        p2 = BesovParams(s=s, beta=(s + 0.5) / 2, eps=min(0.1, 0.5 - s), delta=0.05)
        rep2 = AtomicRep.from_cells(p2, GRID, dict(rep.coeffs))
        assert coefficient_norm(rep2) == pytest.approx(coefficient_norm(rep))


# -- the dict encoding the index arrays replaced, kept as a reference -------------

def _dict_norm(coeffs, params):
    """coefficient_norm of a cell -> coefficient dict: levels in the order
    they first appear, each level's coefficients in dict order."""
    levels = {}
    for cell, v in coeffs.items():
        levels.setdefault(cell.level, []).append(v)
    masses = []
    for vals in levels.values():
        a = np.abs(np.asarray(vals))
        masses.append(float(a.max(initial=0.0)) if params.p == math.inf
                      else float(np.sum(a ** params.p) ** (1.0 / params.p)))
    vals = np.asarray(masses, dtype=float)
    if vals.size == 0:
        return 0.0
    q = params.q
    return float(vals.max()) if q == math.inf else float(np.sum(vals ** q) ** (1.0 / q))


def _dict_evaluate(coeffs, params, grid):
    """evaluate of a dict: atom by atom onto the bottom cells."""
    K, m, theta = grid.max_level, grid.arity, params.theta
    any_complex = any(np.imag(v) != 0 for v in coeffs.values())
    vals = np.zeros(grid.n_cells(K), dtype=np.complex128 if any_complex else np.float64)
    bottom = np.broadcast_to(atom_heights(grid, K, theta), grid.n_cells(K))
    for cell, v in coeffs.items():
        span = m ** (K - cell.level)
        amp = v * bottom[cell.index] if cell.level == K else v * float(m) ** (cell.level * theta)
        vals[cell.index * span:(cell.index + 1) * span] += amp
    return vals


def _dict_add(a, b):
    out = dict(a)
    for c, v in b.items():
        out[c] = out.get(c, 0.0) + v
    return out


def _dict_draws(grid, rng, n_atoms, positive, complex_coeffs):
    """random_rep's draws added up into a dict, before normalisation."""
    coeffs = {}
    for _ in range(n_atoms):
        k = int(rng.integers(0, grid.max_level + 1))
        j = int(rng.integers(0, grid.n_cells(k)))
        val = rng.standard_normal()
        if complex_coeffs:
            val = val + 1j * rng.standard_normal()
        if positive:
            val = abs(val)
        coeffs[CellId(k, j)] = coeffs.get(CellId(k, j), 0.0) + val
    return coeffs


def _hex(values):
    values = np.asarray(list(values))
    return [v.hex() for v in np.real(values).tolist() + np.imag(values).tolist()]


def test_index_arrays_equal_the_dict_encoding_bit_for_bit():
    grid = working_grid(MapSpec("beta", beta=1.8), build_grid(2, 8))   # a cut bottom level
    box = dict(s=0.5, beta=0.6, eps=0.2)
    norms = (PARAMS, BesovParams(q=math.inf), BesovParams(p=1.0, q=3.0, **box),
             BesovParams(p=math.inf, q=math.inf))
    for seed in range(30):
        kind = dict(positive=seed % 3 == 1, complex_coeffs=seed % 3 == 2)
        want = _dict_draws(grid, np.random.default_rng(seed), 60, **kind)
        assert len(want) < 60          # some cells were drawn more than once
        rep = random_rep(grid, PARAMS, np.random.default_rng(seed), n_atoms=60,
                         normalize=False, **kind)
        assert list(rep.coeffs) == list(want)
        assert _hex(rep.coeffs.values()) == _hex(want.values())
        for params in norms:
            got = AtomicRep(params, grid, rep.index, rep.value)
            assert coefficient_norm(got).hex() == _dict_norm(want, params).hex()
        assert _hex(evaluate(rep).values) == _hex(_dict_evaluate(want, PARAMS, grid))
        scale = 1.0 / _dict_norm(want, PARAMS)
        unit = random_rep(grid, PARAMS, np.random.default_rng(seed), n_atoms=60, **kind)
        assert _hex(unit.coeffs.values()) == _hex([scale * v for v in want.values()])
        other = _dict_draws(grid, np.random.default_rng(seed + 100), 30, **kind)
        total = rep + AtomicRep.from_cells(PARAMS, grid, other)
        assert list(total.coeffs) == list(_dict_add(want, other))
        assert _hex(total.coeffs.values()) == _hex(_dict_add(want, other).values())
        assert coefficient_norm(total).hex() == _dict_norm(_dict_add(want, other), PARAMS).hex()
        # from_cells keeps the mapping's order, here not the basis order
        shuffled = dict(reversed(list(want.items())))
        back = AtomicRep.from_cells(PARAMS, grid, shuffled)
        assert list(back.coeffs) == list(shuffled)
        assert coefficient_norm(back).hex() == _dict_norm(shuffled, PARAMS).hex()
        assert _hex(evaluate(back).values) == _hex(_dict_evaluate(shuffled, PARAMS, grid))


def test_random_block_stacks_random_rep_vectors_bit_for_bit():
    # an ensemble drawn as one block: the same draws, each member merged
    # and normalized as random_rep does it alone
    grid = working_grid(MapSpec("beta", beta=1.8), build_grid(2, 8))   # a cut bottom level
    box = dict(s=0.5, beta=0.6, eps=0.2)
    norms = (PARAMS, BesovParams(q=math.inf), BesovParams(p=1.0, q=3.0, **box),
             BesovParams(p=math.inf, q=math.inf))
    for seed, params in enumerate(norms):
        for K, n_atoms in ((8, 40), (3, 20)):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            want = np.stack([random_rep(grid, params, rng, n_atoms=n_atoms, max_level=K)
                             .to_vector(K) for _ in range(25)], axis=1)
            got = random_block(grid, params, twin, 25, n_atoms=n_atoms, max_level=K)
            assert got.flags.f_contiguous and got.dtype == np.float64
            assert _hex(got.ravel()) == _hex(want.ravel())
            assert rng.random() == twin.random()
            # evaluated at once, member by member the same
            each = np.stack([evaluate_vector(col, grid, K, params) for col in got.T])
            assert _hex(evaluate_vector(got.T, grid, K, params).ravel()) == _hex(each.ravel())


def test_from_cells_refuses_cells_off_the_grid():
    for cell in (CellId(9, 0), CellId(3, 8), CellId(2, -1), CellId(-1, 0)):
        with pytest.raises(ValueError):
            AtomicRep.from_cells(PARAMS, GRID, {cell: 1.0})


# -- canonical representation --------------------------------------------------

def test_canonical_constant():
    f = PiecewiseFn.constant(GRID, 8, 0.37)
    rep = canonical_rep(f, PARAMS)
    assert set(rep.coeffs) == {CellId(0, 0)}
    assert rep.coeffs[CellId(0, 0)] == pytest.approx(0.37)


def test_canonical_half_indicator_s_half():
    p = BesovParams(s=0.5, p=2.0)
    vals = np.zeros(256)
    vals[:128] = 1.0
    rep = canonical_rep(PiecewiseFn(GRID, 8, vals), p)
    assert rep.coeffs[CellId(0, 0)] == pytest.approx(0.5)
    assert rep.coeffs[CellId(1, 0)] == pytest.approx(0.5)
    assert rep.coeffs[CellId(1, 1)] == pytest.approx(-0.5)
    assert len(rep.coeffs) == 3


def test_reconstruction_identity():
    rng = np.random.default_rng(11)
    for grid in (GRID, GRID.with_cuts([0.3, 0.7])):
        for _ in range(20):
            vals = rng.standard_normal(grid.n_cells(8))
            f = PiecewiseFn(grid, 8, vals)
            rep = canonical_rep(f, PARAMS)
            back = evaluate(rep, 8)
            assert np.max(np.abs(back.values - vals)) <= 1e-12
            # the root coefficient is the mean over the actual cells
            assert rep.coeffs[CellId(0, 0)] == pytest.approx(f.integral(), abs=1e-12)


def test_reconstruction_identity_positive_mode():
    rng = np.random.default_rng(12)
    for grid in (GRID, GRID.with_cuts([0.3, 0.7])):
        vals = np.abs(rng.standard_normal(grid.n_cells(8)))
        f = PiecewiseFn(grid, 8, vals)
        rep = canonical_rep(f, PARAMS, positive=True)
        assert rep.positive_flag
        assert all(np.real(v) >= -1e-12 for v in rep.coeffs.values())
        back = evaluate(rep, 8)
        assert np.max(np.abs(back.values - vals)) <= 1e-12


def test_triangle_and_homogeneity():
    rng = np.random.default_rng(5)
    a = random_rep(GRID, PARAMS, rng, normalize=False)
    b = random_rep(GRID, PARAMS, rng, normalize=False)
    assert coefficient_norm(a + b) <= coefficient_norm(a) + coefficient_norm(b) + 1e-12
    assert coefficient_norm(a.scaled(-2.5)) == pytest.approx(2.5 * coefficient_norm(a))


def test_canonical_near_optimality_reported():
    """canonical of an evaluated rep stays within the configured factor.

    Violations are surfaced (as a measured lower bound) rather than hidden:
    the assertion message carries the measured ratio.
    """
    rng = np.random.default_rng(7)
    c_gc = 4.0
    worst = 0.0
    for _ in range(50):
        rep = random_rep(GRID, PARAMS, rng, n_atoms=30, normalize=False)
        denom = coefficient_norm(rep)
        if denom == 0:
            continue
        num = coefficient_norm(canonical_rep(evaluate(rep), PARAMS))
        worst = max(worst, num / denom)
    assert worst <= c_gc, f"measured canonical factor {worst:.4f} lower-bounds the true constant"


def test_vector_roundtrip():
    rng = np.random.default_rng(9)
    rep = random_rep(GRID, PARAMS, rng, normalize=False)
    vec = rep.to_vector()
    rep2 = AtomicRep.from_vector(PARAMS, GRID, vec)
    assert l1_distance(evaluate(rep), evaluate(rep2)) <= 1e-13


def _table_functions():
    """Weight averages of a cut beta=1.8 grid and of gauss r_max=20 (K=8),
    each with a signed random function on the same cells."""
    rng = np.random.default_rng(43)
    beta18 = make_map(MapSpec("beta", beta=1.8), build_grid(2, 8), PARAMS)
    gauss = make_map(MapSpec("gauss", r_max=20), build_grid(2, 8), PARAMS, probe_level=7)
    assert beta18.grid.cuts and not gauss.grid.cuts
    fns = [beta18.averages(b, 8) for b in beta18.branches]
    fns += [gauss.averages(b, 8) for b in (gauss.branches[0], gauss.branches[-1])]
    fns += [PiecewiseFn(s.grid, 8, rng.standard_normal(256)) for s in (beta18, gauss)]
    return fns


def _subtree_arrays(f, W, theta, positive):
    """The expansion of f on the subtree of W built from the cells of W
    alone, level by level from W: averages (running minima of max(Re f, 0)
    when positive) with the leaves weighted by their widths on a cut
    level, and their differences times the atom scales."""
    m, K = f.grid.arity, f.level
    span = m ** (K - W.level)
    lo, hi = W.index * span, (W.index + 1) * span
    pyramid = [np.maximum(np.real(f.values[lo:hi]), 0.0) if positive else f.values[lo:hi]]
    cut = f.grid.is_cut(K)
    if cut and not positive and span > 1:
        w = f.grid.widths(K)[lo:hi].reshape(-1, m)
        pyramid.append((pyramid[0].reshape(-1, m) * w).sum(axis=1) / w.sum(axis=1))
    while pyramid[-1].size > 1:
        a = pyramid[-1].reshape(-1, m)
        pyramid.append(a.min(axis=1) if positive else a.mean(axis=1))
    pyramid.reverse()
    scales = [float(m) ** (-(W.level + u) * theta) for u in range(len(pyramid))]
    if cut:
        scales[-1] = f.grid.widths(K)[lo:hi] ** theta
    return [pyramid[0] * scales[0]] + [(pyramid[u] - np.repeat(pyramid[u - 1], m)) * scales[u]
                                       for u in range(1, len(pyramid))]


def _assert_same_rep(got, want):
    assert (got.params, got.grid, got.positive_flag) == (want.params, want.grid,
                                                         want.positive_flag)
    for a, b in ((got.index, want.index), (got.value, want.value)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_coefficient_table_slices_are_the_subtree_expansions():
    m, K = 2, 8
    root = CellId(0, 0)
    for f in _table_functions():
        # theta and theta_beta, as the atom exponent of params
        for params in (PARAMS, dataclasses.replace(PARAMS, s=PARAMS.beta)):
            theta = params.theta
            for positive in (False, True):
                roots, arrays = coefficient_table(f, theta, positive)
                flat = np.concatenate(arrays)
                for k in range(K + 1):
                    js = np.arange(m ** k)
                    gathered = flat[subtree_indices(f.grid, K, k, js)]
                    gathered[:, 0] = roots[k]
                    for j in js:
                        W = CellId(k, int(j))
                        want = _subtree_arrays(f, W, theta, positive)
                        got = [roots[k][j:j + 1]] + [arrays[k + u][j * m ** u:(j + 1) * m ** u]
                                                     for u in range(1, K - k + 1)]
                        assert len(got) == len(want)
                        for a, b in zip(got, want):
                            assert np.array_equal(a, b)
                        assert np.array_equal(gathered[j], np.concatenate(want))
                        _assert_same_rep(subtree_rep(f, W, PARAMS, positive, theta=theta),
                                         tree_rep(want, W, PARAMS, f.grid, positive))
                whole = _subtree_arrays(f, root, theta, positive)
                _assert_same_rep(canonical_rep(f, params, positive),
                                 tree_rep(whole, root, params, f.grid, positive))
                if not positive:
                    got = canonical_vector(f.values, f.grid, K, params)
                    assert got.dtype == f.values.dtype
                    assert np.array_equal(got, np.concatenate(whole))


def test_subtree_norms_equal_coefficient_norm_cell_by_cell():
    # a rough nonnegative function: the positive construction leaves one
    # zero coefficient per sibling group, and the deep levels carry mass
    grid = make_map(MapSpec("beta", beta=1.8), build_grid(2, 8), PARAMS).grid
    f = PiecewiseFn(grid, 8, np.random.default_rng(3).random(256) ** 3)
    g = PiecewiseFn(grid, 8, f.values[::-1] * 2.0)
    box = dict(s=0.5, beta=0.6, eps=0.2)
    for params in (PARAMS, BesovParams(q=math.inf), BesovParams(p=1.0, q=3.0, **box),
                   BesovParams(p=1.0, q=1.0, **box)):
        for positive in (False, True):
            roots, arrays = coefficient_table(f, params.theta_beta, positive)
            g_roots, g_arrays = coefficient_table(g, params.theta_beta, positive)
            stacked = ([np.stack(x) for x in zip(roots, g_roots)],
                       [np.stack(x) for x in zip(arrays, g_arrays)])
            for k in range(9):
                got = subtree_norms(power_table(roots, arrays, params.p), 2, k,
                                    np.arange(2 ** k), params)
                want = [coefficient_norm(subtree_rep(f, CellId(k, j), params, positive,
                                                     theta=params.theta_beta))
                        for j in range(2 ** k)]
                assert got.tolist() == want
                # a stack of tables gives each table's norms, cell t * 2**k + j
                both = subtree_norms(power_table(*stacked, params.p), 2, k,
                                     np.arange(2 ** (k + 1))[::-1], params)
                assert both[2 ** k:][::-1].tolist() == want
                assert both[:2 ** k][::-1].tolist() == subtree_norms(
                    power_table(g_roots, g_arrays, params.p), 2, k, np.arange(2 ** k),
                    params).tolist()


# -- L^t norms and embedding ---------------------------------------------------

def test_lp_norm_constant():
    f = PiecewiseFn.constant(GRID, 8, 1.0)
    for t in (1.0, 2.0, 5.0, math.inf):
        assert f.lp_norm(t) == pytest.approx(1.0)


def test_lp_norm_half_support():
    vals = np.zeros(256)
    vals[:128] = 1.0
    assert PiecewiseFn(GRID, 8, vals).lp_norm(2.0) == pytest.approx(2 ** -0.5)


def test_embedding_factor_finite():
    rng = np.random.default_rng(21)
    t0 = PARAMS.t0
    worst = 0.0
    for _ in range(30):
        rep = random_rep(GRID, PARAMS, rng)
        f = evaluate(rep)
        nrm = coefficient_norm(canonical_rep(f, PARAMS))
        if nrm > 0:
            worst = max(worst, f.lp_norm(t0) / nrm)
    assert 0 < worst < math.inf


# -- besov_to_souza -------------------------------------------------------------

def _atom_as_besov(cell, grid, params):
    """Wrap a plain atom as a finer-scale atom with a one-coefficient rep."""
    conv = grid.measure(cell) ** (params.s - params.beta)
    rep = AtomicRep.from_cells(params, grid, {cell: conv}, positive_flag=True)
    return BesovAtom(cell, rep)


def test_besov_to_souza_identity_case():
    atom = _atom_as_besov(CellId(3, 5), GRID, PARAMS)
    out = besov_to_souza([(1.0, atom)], PARAMS, GRID)
    assert set(out.coeffs) == {CellId(3, 5)}
    assert out.coeffs[CellId(3, 5)] == pytest.approx(1.0)


def test_besov_to_souza_positivity():
    atoms = [(0.5, _atom_as_besov(CellId(2, 0), GRID, PARAMS)),
             (1.5, _atom_as_besov(CellId(2, 3), GRID, PARAMS))]
    out = besov_to_souza(atoms, PARAMS, GRID)
    assert out.positive_flag
    assert all(np.real(v) >= 0 for v in out.coeffs.values())


def test_besov_to_souza_budget_enforced():
    cell = CellId(2, 1)
    rep = AtomicRep.from_cells(PARAMS, GRID, {cell: 100.0})
    with pytest.raises(AtomBudgetError):
        besov_to_souza([(1.0, BesovAtom(cell, rep))], PARAMS, GRID)


def test_besov_to_souza_measured_factor():
    """Random 3-atom input: flattening factor measured and within budget."""
    rng = np.random.default_rng(17)
    grid = build_grid(2, 8)
    c_gbs = 2.0
    worst = 0.0
    for _ in range(20):
        atoms = []
        for _ in range(3):
            k = int(rng.integers(0, 4))
            j = int(rng.integers(0, grid.n_cells(k)))
            W = CellId(k, j)
            # beta-scale expansion of a smooth bump inside W, rescaled to budget
            span = grid.arity ** (8 - k)
            vals = np.zeros(grid.n_cells(8))
            x = (np.arange(j * span, (j + 1) * span) + 0.5) / grid.n_cells(8)
            vals[j * span:(j + 1) * span] = 1.0 + 0.3 * np.sin(2 * np.pi * x / grid.width(k))
            rep = subtree_rep(PiecewiseFn(grid, 8, vals), W, PARAMS,
                              theta=PARAMS.theta_beta)
            budget = grid.measure(W) ** (PARAMS.s - PARAMS.beta)
            nrm = coefficient_norm(rep)
            rep = rep.scaled(budget / (nrm * 1.0000001))
            atoms.append((complex(rng.standard_normal()), BesovAtom(W, rep)))
        out = besov_to_souza(atoms, PARAMS, grid)
        worst = max(worst, out.meta["measured_factor"])
    assert worst <= c_gbs, f"measured conversion factor {worst:.4f}"


# -- multipliers -----------------------------------------------------------------

def test_multiplier_identity():
    rng = np.random.default_rng(23)
    rep = random_rep(GRID, PARAMS, rng)
    one = PiecewiseFn.constant(GRID, 8, 1.0)
    out = multiplier_apply(one, rep)
    assert l1_distance(evaluate(out), evaluate(rep)) <= 1e-12


def test_multiplier_phase_zero_is_identity():
    rng = np.random.default_rng(29)
    rep = random_rep(GRID, PARAMS, rng)
    v = PiecewiseFn.from_function(GRID, 8, lambda x: np.exp(1j * 0.0 * np.cos(2 * np.pi * x)))
    out = multiplier_apply(v, rep)
    assert l1_distance(evaluate(out), evaluate(rep)) <= 1e-12


def test_multiplier_phase_sweep_bounded():
    """Norm growth of e^{it cos} multipliers stays within the documented factor."""
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10):
        base = canonical_rep(evaluate(random_rep(GRID, PARAMS, rng)), PARAMS)
        n0 = coefficient_norm(base)
        if n0 == 0:
            continue
        for t in (0.0, 0.025, 0.05, 0.1):
            v = PiecewiseFn.from_function(
                GRID, 8, lambda x, t=t: np.exp(1j * t * np.cos(2 * np.pi * x)))
            out = multiplier_apply(v, base)
            worst = max(worst, coefficient_norm(out) / n0)
    assert worst <= 6.0, f"multiplier growth {worst:.4f}"


# -- serialization ---------------------------------------------------------------

def test_piecewise_csv_format():
    f = PiecewiseFn.constant(build_grid(2, 2), 2, 0.25)
    lines = f.to_csv().strip().splitlines()
    assert lines[0] == "midpoint,value"
    assert lines[1] == "0.125,0.25"


def test_atom_resolution_guards():
    with pytest.raises(ValueError):
        atom_rep(CellId(9, 0), PARAMS, GRID)
    deep = AtomicRep.from_cells(PARAMS, GRID, {CellId(8, 1): 1.0})
    with pytest.raises(ValueError):
        evaluate(deep, resolution=5)


def test_piecewise_functions_on_other_cells_are_refused():
    # the golden map's working grid cuts a level-10 cell at 1/phi
    from besovtransfer.dynamics import MapSpec, working_grid
    from besovtransfer.spectral import support_structure
    cut = working_grid(MapSpec("beta", beta=(1 + math.sqrt(5)) / 2), build_grid(2, 10))
    assert cut.cuts
    f = PiecewiseFn.constant(cut, 10, 1.0)
    for other in (PiecewiseFn.constant(build_grid(2, 10), 10, 1.0),
                  PiecewiseFn.constant(cut, 9, 1.0)):
        for op in (f.__add__, f.__mul__):
            with pytest.raises(ValueError):
                op(other)
    assert l1_distance(f + f, f * 2.0) == 0.0
    with pytest.raises(ValueError):
        support_structure(f, build_grid(2, 10))
