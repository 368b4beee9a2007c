"""Branch systems, built-in maps and the measured constant ledger."""

import dataclasses
import math

import numpy as np
import pytest

import besovtransfer.atoms as atoms
import besovtransfer.domains as domains
import besovtransfer.dynamics as dynamics
from besovtransfer.atoms import BesovParams, coefficient_norm, subtree_rep
from besovtransfer.domains import cover, decompose, strong_regularities
from besovtransfer.dynamics import MapSpec, make_map, potential_regularity
from besovtransfer.errors import (
    CellNotFoundError,
    ContainmentError,
    InfeasibleFitError,
    MapSpecError,
)
from besovtransfer.grid import CellId, build_grid, python_pow
from besovtransfer.transfer import lebesgue_bound_check

PARAMS = BesovParams()
PHI = (1 + math.sqrt(5)) / 2


@pytest.fixture(scope="module")
def doubling():
    return make_map(MapSpec("doubling"), build_grid(2, 10), PARAMS)


@pytest.fixture(scope="module")
def golden():
    return make_map(MapSpec("beta", beta=PHI), build_grid(2, 10), PARAMS)


@pytest.fixture(scope="module")
def gauss50():
    return make_map(MapSpec("gauss", r_max=50), build_grid(2, 10), PARAMS, probe_level=8)


def test_doubling_branches(doubling):
    b1, b2 = doubling.branches
    assert b1.img == (0.0, 0.5) and b2.img == (0.5, 1.0)
    assert b1.h(np.array([0.6]))[0] == pytest.approx(0.3)
    assert b2.h(np.array([0.6]))[0] == pytest.approx(0.8)
    for b in (b1, b2):
        assert b.potential.value == pytest.approx(0.5)


def test_golden_beta_branch_endpoints(golden):
    b1, b2 = golden.branches
    assert b2.dom[1] == pytest.approx(PHI - 1.0, abs=1e-12)
    assert b1.img[1] == pytest.approx(1 / PHI, abs=1e-12)
    assert b2.img == (pytest.approx(1 / PHI), 1.0)


def test_gauss_branch_family(gauss50):
    assert len(gauss50.branches) == 50
    b1 = gauss50.branches[0]
    assert b1.h(np.array([0.0]))[0] == pytest.approx(1.0)
    assert b1.potential(np.array([0.5]))[0] == pytest.approx(1 / 1.5 ** 2)


def test_preimage_doubling_single_cell(doubling):
    grid = doubling.grid
    image = doubling.branches[0].forward_interval(*grid.interval(CellId(2, 1)))
    dec = decompose(grid, image, 0.2, defect_cap=math.inf)
    assert dec.families == {1: [CellId(1, 1)]}
    assert dec.c_dom == pytest.approx(1.0)


def test_preimage_doubling_exhaustive(doubling):
    grid = doubling.grid
    for b in doubling.branches:
        runs = np.transpose(grid.contained_runs(np.arange(9), *b.img))
        for k in range(1, 9):
            for j in range(*runs[k]):
                image = b.forward_interval(*grid.interval(CellId(k, j)))
                dec = decompose(grid, image, 0.2, defect_cap=math.inf)
                cells = dec.all_cells()
                assert len(cells) == 1 and cells[0].level == k - 1
                assert dec.c_dom == pytest.approx(1.0)


def test_preimage_requires_containment(doubling):
    lo, hi = doubling.grid.interval(CellId(1, 1))
    with pytest.raises(ContainmentError):
        dynamics._check_inside_images(doubling.grid, doubling.branches, 0, 1, lo, hi)


def test_preimage_gauss_first_branch(gauss50):
    b1 = gauss50.branches[0]
    flo, fhi = b1.forward_interval(0.5, 0.75)
    assert flo == pytest.approx(1 / 3)
    assert fhi == pytest.approx(1.0)


def test_scaling_constants_doubling(doubling):
    for b in doubling.branches:
        assert b.shift == 1
        assert b.c_dc1 == pytest.approx(1.0)
        assert b.c_dc2 == pytest.approx(0.5)


def test_scaling_constants_pw_linear():
    sys_ = make_map(MapSpec("pw_linear", breakpoints=(0.0, 1 / 3, 1.0), slopes=(3.0, 1.5)),
                    build_grid(2, 10), PARAMS, probe_level=8)
    b_steep, b_mild = sys_.branches
    assert b_steep.shift >= 1
    assert b_mild.shift == 0
    for b in sys_.branches:
        assert b.c_dc2 < 1.0


def test_scaling_constants_gauss_growth(gauss50):
    # branch 4 expands 16x-25x; a misaligned image that long is only
    # guaranteed to contain a cell three levels up (exhaustive scan)
    b4 = gauss50.branches[3]
    assert b4.shift == 3
    # branch 6 expands by more than 2**5, which forces a 4-level drop
    assert gauss50.branches[5].shift >= 4
    shifts = [b.shift for b in gauss50.branches]
    assert shifts[10] > shifts[1]


def test_potential_regularity_constant_level_independent(doubling):
    b = doubling.branches[0]
    c_rp, levels = potential_regularity(doubling.averages(b, 10), b, PARAMS)
    assert c_rp == b.c_rp == max(levels.values())
    vals = [v for v in levels.values() if v > 0]
    assert max(vals) - min(vals) <= 1e-9 * max(vals)


def test_potential_regularity_gauss_finite(gauss50):
    for b in gauss50.branches[:5]:
        assert 0 < b.c_rp < math.inf


def _smallest_covering_level(grid, lo, hi):
    """Deepest level at which a single cell contains [lo, hi), one level at a time."""
    for k in range(grid.max_level, -1, -1):
        (j,) = grid.cell_index(k, [lo])
        c_lo, c_hi = grid.interval(CellId(k, int(j)))
        if c_lo <= lo + 1e-15 and hi <= c_hi + 1e-15:
            return k
    return 0


def _regularity_by_cell(gbar, branch, params, probe_level):
    """potential_regularity as a loop over probing cells, one subtree
    expansion and one coefficient_norm per cell."""
    grid, K = gbar.grid, gbar.level
    exponent = 1.0 / params.p - params.s + params.eps
    levels = {}
    top = min(probe_level, K)
    for k, (i0, i1) in enumerate(np.transpose(grid.contained_runs(np.arange(top + 1),
                                                                   *branch.dom))):
        level_worst = 0.0
        for j in range(i0, i1):
            W = CellId(k, j)
            qlo, qhi = branch.pullback_interval(*grid.interval(W))
            kq = _smallest_covering_level(grid, qlo, qhi)
            (jq,) = np.clip(grid.cell_index(kq, [0.5 * (qlo + qhi)]), 0, grid.n_cells(kq) - 1)
            Qiv = grid.interval(CellId(kq, int(jq)))
            flo, fhi = branch.forward_interval(*Qiv)
            ratio = (Qiv[1] - Qiv[0]) / max(fhi - flo, 1e-300)
            rep = subtree_rep(gbar, W, params, positive=branch.potential.positive,
                              theta=params.theta_beta)
            den = ratio ** exponent * grid.measure(W) ** params.theta_beta
            level_worst = max(level_worst, coefficient_norm(rep) / den)
        levels[k] = level_worst
    return max(levels.values()), levels


def test_potential_regularity_equals_the_cell_by_cell_loop():
    systems = [make_map(MapSpec("beta", beta=1.8), build_grid(2, 8), PARAMS),
               make_map(MapSpec("gauss", r_max=20), build_grid(2, 8), PARAMS, probe_level=7),
               make_map(MapSpec("lorenz_cusp", exponent=0.75), build_grid(2, 8), PARAMS)]
    for params in (PARAMS, BesovParams(q=math.inf)):
        for system in systems:
            ledger = system.ledger_csv()
            for b in system.branches:
                gbar = system.averages(b, 8)
                want, want_levels = _regularity_by_cell(gbar, b, params, 6)
                assert potential_regularity(gbar, b, params, probe_level=6) == (want, want_levels)
            assert system.ledger_csv() == ledger


def test_probing_a_built_system_leaves_its_ledger_unchanged():
    system = make_map(MapSpec("lorenz_cusp"), build_grid(2, 8), PARAMS)
    ledger = (system.ledger_csv(), system.thetas().tolist(), system.t_overlap)
    b = system.branches[0]
    potential_regularity(system.averages(b, 8), b, BesovParams(s=0.3))
    assert (system.ledger_csv(), system.thetas().tolist(), system.t_overlap) == ledger
    with pytest.raises(dataclasses.FrozenInstanceError):
        system.branches[0].shift = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.potential.value = 1.0


def test_make_map_builds_no_subtree_expansion(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return subtree_rep(*args, **kwargs)

    for mod in (atoms, dynamics):
        monkeypatch.setattr(mod, "subtree_rep", counted, raising=False)
    make_map(MapSpec("gauss", r_max=20), build_grid(2, 8), PARAMS, probe_level=7)
    make_map(MapSpec("beta", beta=1.8), build_grid(2, 8), PARAMS)
    assert calls == []


def test_theta_formula(doubling):
    p0 = BesovParams(gamma=0.0)
    sys0 = make_map(MapSpec("doubling"), build_grid(2, 8), p0)
    b = sys0.branches[0]
    lam = max(0.5 ** p0.eps, sys0.grid.arity ** (-(1 - p0.s * p0.p) / p0.p))
    assert b.theta(p0) == pytest.approx(b.c_rp * lam)
    # gamma = 1 removes the shift factor entirely
    p1 = BesovParams(gamma=1.0)
    assert b.theta(p1) == pytest.approx(
        b.c_dc1 ** p1.eps * b.c_rp * b.c_dgd1 ** (1 / p1.p))


def test_gauss_theta_decay_summable(gauss50):
    thetas = gauss50.thetas()
    assert thetas[-1] < thetas[0]
    assert np.all(thetas[30:] < thetas[:20].max())
    assert thetas.sum() < math.inf


def test_branch_inverse_consistency(doubling, golden, gauss50):
    for sys_ in (doubling, golden, gauss50):
        for b in sys_.branches[:5]:
            lo, hi = b.img
            xs = np.linspace(lo + 1e-9, hi - 1e-9, 1000)
            back = b.h(np.asarray(b.h_inv(xs)))
            assert np.max(np.abs(back - xs)) <= 1e-12


def test_lambda_rs2_below_one():
    grid = build_grid(2, 8)
    for spec in (MapSpec("doubling"), MapSpec("m_ary", arity=3),
                 MapSpec("beta", beta=PHI), MapSpec("lorenz_cusp", exponent=0.75),
                 MapSpec("pw_linear", breakpoints=(0.0, 0.5, 1.0), slopes=(2.0, 2.0))):
        g = build_grid(3, 6) if spec.name == "m_ary" else grid
        sys_ = make_map(spec, g, PARAMS, probe_level=6)
        assert sys_.lambda_rs2 < 1.0


def test_nonexpanding_rejected():
    with pytest.raises(MapSpecError, match="not expanding"):
        make_map(MapSpec("pw_linear", breakpoints=(0.0, 0.5, 1.0), slopes=(2.0, 0.9)),
                 build_grid(2, 8), PARAMS)


@pytest.mark.parametrize("spec", [MapSpec("lorenz_cusp", exponent=k) for k in (0.6, 0.75, 0.9)]
                         + [MapSpec("gauss", r_max=50)],
                         ids=["lorenz_cusp-0.6", "lorenz_cusp-0.75", "lorenz_cusp-0.9", "gauss-50"])
def test_branch_jacobian_is_the_derivative_of_h(spec):
    for b in dynamics._build_branches(spec):
        lo, hi = b.dom
        xs = lo + (hi - lo) * np.arange(1, 512) / 512
        d = 1e-6 * (hi - lo)
        numeric = np.abs((b.h(xs + d) - b.h(xs - d)) / (2 * d))
        np.testing.assert_allclose(b.jacobian(xs), numeric, rtol=1e-6, atol=0)


def _curved_branch(c):
    """h(y) = y/4 + c*y**2 on [0, 1), increasing, |h'| = 1/4 + 2*c*y."""
    return dynamics.Branch(1, (0.0, 1.0), (0.0, 0.25 + c),
                           lambda y: 0.25 * y + c * y ** 2,
                           lambda x: (np.sqrt(0.0625 + 4 * c * x) - 0.25) / (2 * c),
                           lambda y: 0.25 + 2 * c * np.asarray(y, dtype=float), True, None)


def test_curved_branch_whose_jacobian_reaches_one_is_refused(monkeypatch):
    # |h'| reaches 1 at y = 3/4: past it the piece does not expand
    monkeypatch.setattr(dynamics, "_build_branches", lambda spec: [_curved_branch(0.5)])
    with pytest.raises(MapSpecError, match=r"branch 1: \|T'\| < 1 \+ 1e-9 somewhere "
                                           r"\(not expanding\)"):
        make_map(MapSpec("doubling"), build_grid(2, 8), PARAMS)
    # |h'| stays at most 0.85: the expansion check lets it through
    dynamics._check_expanding([_curved_branch(0.3)])


def test_lorenz_cusp_exponent_box():
    with pytest.raises(MapSpecError):
        make_map(MapSpec("lorenz_cusp", exponent=0.3), build_grid(2, 8), PARAMS)


def test_gauss_lebesgue_split(gauss50):
    classes = lebesgue_bound_check(gauss50).classes
    assert classes["L2"] and classes["L3"]
    assert set(classes["L2"]) | set(classes["L3"]) == {b.r for b in gauss50.branches}


def test_ledger_csv_columns(doubling):
    header = doubling.ledger_csv().splitlines()[0]
    assert header == "r,a_r,c_DC1,c_DC2,c_DGD1,c_DGD2,c_RP,theta"


def test_constant_potential_rule():
    sys_c = make_map(MapSpec("doubling", potential="constant", constant=0.5),
                     build_grid(2, 8), PARAMS)
    sys_j = make_map(MapSpec("doubling"), build_grid(2, 8), PARAMS)
    for bc, bj in zip(sys_c.branches, sys_j.branches):
        assert bc.weight_integral(0.25, 0.5) == pytest.approx(
            bj.weight_integral(0.25, 0.5))
    assert sys_c.branches[0].potential.positive


def test_custom_potential_rule():
    spec = MapSpec("doubling", potential="custom",
                   custom_fn=lambda x: 0.5 + 0.1 * np.cos(2 * np.pi * np.asarray(x)))
    sys_ = make_map(spec, build_grid(2, 8), PARAMS)
    b = sys_.branches[0]
    assert not b.potential.positive     # sign not promised for custom rules
    # quadrature integral matches the closed form on a cell
    got = b.weight_integral(0.0, 0.25)
    want = 0.5 * 0.25 + 0.1 * (np.sin(np.pi / 2)) / (2 * np.pi)
    assert got == pytest.approx(want, abs=1e-12)


def test_theta_monotone_in_shift(doubling):
    b = doubling.branches[0]
    thetas = []
    for shift in (1, 2, 3):
        thetas.append(dataclasses.replace(b, shift=shift).theta(PARAMS))
    assert thetas[0] > thetas[1] > thetas[2]


def test_weight_integral_on_arrays_matches_scalar_calls(doubling, golden):
    custom = MapSpec("doubling", potential="custom",
                     custom_fn=lambda x: 0.5 + 0.1 * np.cos(2 * np.pi * np.asarray(x)))
    systems = [
        (doubling, 0.0), (golden, 0.0),
        (make_map(MapSpec("gauss", r_max=5), build_grid(2, 8), PARAMS, probe_level=6), 0.0),
        (make_map(MapSpec("lorenz_cusp"), build_grid(2, 8), PARAMS, probe_level=6), 0.0),
        (make_map(MapSpec("beta", beta=1.8, potential="constant", constant=0.7),
                  build_grid(2, 8), PARAMS), 0.0),
        (make_map(custom, build_grid(2, 8), PARAMS), 1e-15),
    ]
    rng = np.random.default_rng(9)
    for system, tol in systems:
        for b in system.branches:
            lo = rng.uniform(*b.dom, 25)
            hi = np.minimum(lo + rng.uniform(-0.01, 0.2, 25), b.dom[1])
            got = b.weight_integral(lo, hi)
            want = np.array([b.weight_integral(x, y) for x, y in zip(lo, hi)])
            assert got.shape == lo.shape
            assert np.all(want[hi <= lo] == 0.0)
            if tol == 0.0:
                assert np.array_equal(got, want), (system.spec.name, b.r)
            else:
                assert np.max(np.abs(got - want)) <= tol
            lo = rng.uniform(*b.img, 25)
            hi = rng.uniform(lo, b.img[1])
            flo, fhi = b.forward_interval(lo, hi)
            assert list(zip(flo, fhi)) == [b.forward_interval(x, y) for x, y in zip(lo, hi)]


# -- the ledger probes branch by branch ---------------------------------------------
#
# make_map probes all branches of a map in one array pass per probe; the
# loop below probes one branch at a time and is the reference the batched
# probes must equal bit for bit.


def _scaling_by_branch(grid, branch, probe_level):
    samples = []
    found, k = 0, 0
    while k <= grid.max_level + 8:
        (i0,), (i1,) = grid.contained_runs([k], *branch.img)
        lo, hi, meas = grid.extents(k, np.arange(i0, i1, max(1, (i1 - i0) // 64)))
        flo, fhi = branch.forward_interval(lo, hi)
        ok = fhi - flo > 0
        samples.append((np.full(ok.sum(), k), meas[ok], flo[ok], fhi[ok]))
        found += int(ok.sum())
        k += 1
        if k > probe_level and found >= 8:
            break
    ks, meas, flo, fhi = (np.concatenate(x) for x in zip(*samples))
    if not found:
        raise InfeasibleFitError(f"branch {branch.r}: no probe cells inside image")
    ratios = (meas / (fhi - flo)).tolist()
    kq = grid.containment_levels(flo, fhi, grid.max_level + 16)
    if np.any(kq < 0):
        raise CellNotFoundError(f"branch {branch.r}: a forward image holds no cell "
                                f"up to level {grid.max_level + 16}")
    shifts = np.abs(ks - kq).tolist()
    base = 0.0
    for rho, sh in zip(ratios, shifts):
        if sh > 0:
            base = max(base, rho ** (1.0 / sh))
    if base == 0.0:
        base = max(ratios)
    if base >= 1.0 - 1e-12:
        raise InfeasibleFitError(
            f"branch {branch.r}: no geometric base < 1 fits the scaling samples")
    front = 1.0
    for rho, sh in zip(ratios, shifts):
        front = max(front, rho / base ** sh)
    return min(shifts), front, base


def _distortion_by_branch(grid, branch, alpha, top):
    runs = np.transpose(grid.contained_runs(np.arange(top + 1), *branch.img))
    cells = [(k, np.arange(i0, i1, max(1, (i1 - i0) // 32)))
             for k, (i0, i1) in enumerate(runs)]
    ks = np.concatenate([np.full(j.size, k) for k, j in cells])
    lo, hi, _ = grid.extents(ks, np.concatenate([j for _, j in cells]))
    flo, fhi = branch.forward_interval(lo, hi)
    c_dom = domains.c_dom(grid, cover(grid, flo, fhi, grid.max_level), flo, fhi, alpha)
    return max(float(np.max(c_dom, initial=0.0)), 1.0)


def _regularity_by_branch(gbar, branch, params, probe_level):
    grid, K = gbar.grid, gbar.level
    top = min(probe_level, K)
    exponent = 1.0 / params.p - params.s + params.eps
    roots, arrays = atoms.coefficient_table(gbar, params.theta_beta, branch.potential.positive)
    runs = np.transpose(grid.contained_runs(np.arange(top + 1), *branch.dom))
    ks = np.repeat(np.arange(top + 1), [max(i1 - i0, 0) for i0, i1 in runs])
    js = np.concatenate([np.arange(i0, i1) for i0, i1 in runs])
    w_lo, w_hi, w_meas = grid.extents(ks, js)
    q_lo, q_hi = branch.pullback_interval(w_lo, w_hi)
    kq = dynamics._smallest_covering_levels(grid, q_lo, q_hi)
    jq = np.clip(grid.cell_index(kq, 0.5 * (q_lo + q_hi)), 0, grid.arity ** kq - 1)
    c_lo, c_hi, _ = grid.extents(kq, jq)
    f_lo, f_hi = branch.forward_interval(c_lo, c_hi)
    ratio = (c_hi - c_lo) / np.maximum(f_hi - f_lo, 1e-300)
    dens = python_pow(ratio, exponent) * python_pow(w_meas, params.theta_beta)
    worst, levels = 0.0, {}
    for k, (i0, i1) in enumerate(runs):
        levels[k] = 0.0
        if i1 > i0:
            nums = atoms.subtree_norms(atoms.power_table(roots, arrays, params.p), grid.arity,
                                       k, np.arange(i0, i1), params)
            levels[k] = float(np.max(nums / dens[ks == k]))
        worst = max(worst, levels[k])
    return worst, levels


def _probe_by_branch(system):
    """The ledger probes of make_map, one branch at a time; returns the
    ledger as _ledger does."""
    grid, params = system.grid, system.params
    alpha = 1.0 - params.s * params.p
    branches, levels, reports = [], [], {}
    for b in system.branches:
        shift, c_dc1, c_dc2 = _scaling_by_branch(grid, b, system.probe_level)
        top = min(system.probe_level, 8 if b.affine_slope is None else system.probe_level)
        c_rp, b_levels = _regularity_by_branch(
            system.averages(b, grid.max_level), b, params, min(6, system.probe_level))
        branches.append(dataclasses.replace(
            b, shift=shift, c_dc1=c_dc1, c_dc2=c_dc2,
            c_dgd1=_distortion_by_branch(grid, b, alpha, top),
            c_dgd2=grid.arity ** (-alpha), c_rp=c_rp))
        levels.append(b_levels)
        reports[b.r] = strong_regularities(grid, [b.img], 1.0 - params.beta * params.p)[0]
    system = dataclasses.replace(system, branches=branches, strong_reports=reports)
    # the overlap constants, image by image
    thetas = system.thetas()
    m_best, t_best = 0, 0.0
    for k in range(1, min(grid.max_level, system.probe_level) + 1):
        m_here = np.zeros(grid.n_cells(k), dtype=int)
        t_here = np.zeros(grid.n_cells(k))
        for b, th in zip(system.branches, thetas):
            _, j, lo, hi, _ = grid.overlaps(k, *b.img)
            j = j[hi - lo > 1e-14]
            m_here[j] += 1
            t_here[j] += th
        m_best = max(m_best, int(m_here.max(initial=0)))
        t_best = max(t_best, float(t_here.max(initial=0.0)))
    kk = min(grid.max_level, system.probe_level)
    counts = np.zeros(grid.n_cells(kk), dtype=int)
    for b in system.branches:
        (i0,), (i1,) = grid.contained_runs([kk], *b.dom)
        counts[i0:i1] += 1
    return _ledger(system, levels, (m_best, int(counts.max(initial=0)), t_best))


def _ledger(system, levels=None, overlaps=None):
    """ledger.csv, the ledger rows, the per-level regularities of every
    branch, the strong reports and the overlap constants (m, n, t) of a
    system."""
    if levels is None:
        K, top = system.grid.max_level, min(6, system.probe_level)
        levels = [potential_regularity(system.averages(b, K), b, system.params, top)[1]
                  for b in system.branches]
    reports = [(r, rep.c_strong, rep.worst_cell, rep.max_rel_defect, rep.cells_probed)
               for r, rep in system.strong_reports.items()]
    if overlaps is None:
        overlaps = (system.m_overlap, system.n_overlap, system.t_overlap)
    return system.ledger_csv(), system.ledger_rows(), levels, reports, overlaps


BUILT_IN = [MapSpec("doubling"), MapSpec("m_ary"), MapSpec("beta", beta=PHI),
            MapSpec("beta", beta=1.8),
            MapSpec("pw_linear", breakpoints=(0.0, 1 / 3, 1.0), slopes=(3.0, 1.5)),
            MapSpec("lorenz_cusp"), MapSpec("gauss", r_max=20)]


@pytest.mark.parametrize("spec", BUILT_IN, ids=lambda s: s.name)
def test_batched_probes_equal_the_branch_by_branch_loop(spec):
    system = make_map(spec, build_grid(2, 8), PARAMS)
    assert _ledger(system) == _probe_by_branch(system)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the cover and subtree_norms calls made from here on."""
    calls = {"cover": 0, "subtree_norms": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    counted_cover = counting("cover", domains.cover)
    for mod in (domains, dynamics):
        monkeypatch.setattr(mod, "cover", counted_cover)
    monkeypatch.setattr(dynamics, "subtree_norms", counting("subtree_norms", atoms.subtree_norms))
    return calls


def test_make_map_kernel_calls_do_not_grow_with_the_branches(kernel_calls):
    counts = []
    for r_max in (5, 40):
        make_map(MapSpec("gauss", r_max=r_max), build_grid(2, 8), PARAMS)
        counts.append(dict(kernel_calls))
        kernel_calls.update(cover=0, subtree_norms=0)
    # one cover call each for the distortion and the strong regularity, one
    # subtree_norms call per probe level
    assert counts == [{"cover": 2, "subtree_norms": 7}] * 2


NONEXPANDING = MapSpec("pw_linear", breakpoints=(0.0, 0.5, 1.0), slopes=(2.0, 0.9))


def test_a_failing_fit_raises_as_the_branch_by_branch_loop(monkeypatch, kernel_calls):
    # past the expansion check, branch 2's scaling fit fails: make_map
    # raises the error that the loop raises at branch 2
    monkeypatch.setattr(dynamics, "_check_expanding", lambda branches: None)
    with pytest.raises(InfeasibleFitError) as batched:
        make_map(NONEXPANDING, build_grid(2, 8), PARAMS)
    assert kernel_calls == {"cover": 0, "subtree_norms": 0}
    # the branches as make_map builds them, before any probe
    branches = [dataclasses.replace(b, potential=dynamics._potential(b, NONEXPANDING))
                for b in dynamics._build_branches(NONEXPANDING)]
    system = dynamics.BranchSystem(NONEXPANDING, build_grid(2, 8), PARAMS, branches,
                                   probe_level=8)
    with pytest.raises(InfeasibleFitError) as looped:
        _probe_by_branch(system)
    assert str(batched.value) == str(looped.value) == (
        "branch 2: no geometric base < 1 fits the scaling samples")
    # a failing fit raises before any other probe runs: here branch 2's
    # contracting piece holds no cell, and branch 1's weight, infinite past
    # 1/2, is never probed for its regularity
    kernel_calls.update(cover=0, subtree_norms=0)
    contracting = MapSpec("pw_linear", breakpoints=(0.0, 0.5, 1.0), slopes=(2.0, 1e-6))
    with pytest.raises(CellNotFoundError, match="branch 2: a forward image holds no cell"):
        make_map(contracting, build_grid(2, 8), PARAMS)
    contracting.potential = "custom"
    contracting.custom_fn = lambda x: np.where(np.asarray(x) > 0.5, np.inf, 1.0)
    with pytest.raises(CellNotFoundError, match="branch 2: a forward image holds no cell"):
        make_map(contracting, build_grid(2, 8), PARAMS)
    assert kernel_calls == {"cover": 0, "subtree_norms": 0}
    # a branch without probe cells fails first, before the others' probes
    branch = dataclasses.replace(dynamics._build_branches(MapSpec("gauss", r_max=3))[2],
                                 img=(0.3, 0.3))
    grid = build_grid(2, 6)
    with pytest.raises(InfeasibleFitError, match="branch 3: no probe cells inside image"):
        dynamics._fit_scaling(grid, branch, *next(dynamics._scaling_samples(grid, [branch], 10)))
