"""Slicing, transfer action, matrix assembly and the bound certificates."""

import dataclasses
import math

import numpy as np
import pytest

import besovtransfer.atoms as atoms
import besovtransfer.grid as grid_module
import besovtransfer.transfer as transfer
from besovtransfer.atoms import (
    BesovParams,
    PiecewiseFn,
    atom_rep,
    coefficient_norm_vector,
    evaluate,
    evaluate_vector,
    level_offsets,
    random_rep,
)
from besovtransfer.domains import c_dom, decompose
from besovtransfer.dynamics import MapSpec, make_map
from besovtransfer.errors import AssumptionError, CapacityError, ModeMismatchError
from besovtransfer.grid import CellId, build_grid
from besovtransfer.transfer import (
    apply_transfer,
    assemble_matrix,
    bound_ledger,
    build_cell_operator,
    c_d_constant,
    lebesgue_bound_check,
    slice_rep,
    transfer_numeric,
)

PARAMS = BesovParams()
PHI = (1 + math.sqrt(5)) / 2
CONTRACTION = 2.0 ** (1 / PARAMS.p - PARAMS.s - 1.0)


def l1_distance(f, g):
    """The L1 distance of two functions on the same cells."""
    assert (f.grid, f.level) == (g.grid, g.level)
    return float(f.grid.integrate(f.level, np.abs(f.values - g.values)))


@pytest.fixture(scope="module")
def doubling():
    return make_map(MapSpec("doubling"), build_grid(2, 8), PARAMS)


@pytest.fixture(scope="module")
def golden():
    return make_map(MapSpec("beta", beta=PHI), build_grid(2, 8), PARAMS)


@pytest.fixture(scope="module")
def gauss():
    return make_map(MapSpec("gauss", r_max=20), build_grid(2, 8), PARAMS, probe_level=7)


@pytest.fixture(scope="module")
def beta18():
    # non-Markov: bottom cells cut at 0.8 and three points of its orbit
    return make_map(MapSpec("beta", beta=1.8), build_grid(2, 8), PARAMS)


# -- slicing -------------------------------------------------------------------

def test_slice_root_atom_doubling(doubling):
    rep = atom_rep(CellId(0, 0), PARAMS, doubling.grid)
    sliced = slice_rep(rep, doubling)
    w = 2.0 ** (PARAMS.s - 1 / PARAMS.p)     # (|I_r|/|I|)**(1/p-s)
    for r, br in sliced.branch_reps.items():
        assert len(br.coeffs) == 1
        (cell, val), = br.coeffs.items()
        assert cell.level == 1
        assert val == pytest.approx(w)


def test_slice_identity_on_supported_branch(doubling):
    rep = atom_rep(CellId(3, 1), PARAMS, doubling.grid)   # inside [0, 1/2)
    sliced = slice_rep(rep, doubling)
    assert sliced.branch_reps[1].coeffs == {CellId(3, 1): 1.0}
    assert sliced.branch_reps[2].coeffs == {}


def test_slice_positivity_and_reconstruction(golden):
    rng = np.random.default_rng(3)
    rep = random_rep(golden.grid, PARAMS, rng, positive=True)
    sliced = slice_rep(rep, golden)
    total = None
    for br in sliced.branch_reps.values():
        assert all(np.real(v) >= 0 and abs(np.imag(v)) == 0 for v in br.coeffs.values())
        f = evaluate(br)
        total = f if total is None else total + f
    assert l1_distance(total, evaluate(rep)) <= 1e-10


def test_slice_certified_inequality(doubling, golden, gauss):
    rng = np.random.default_rng(5)
    for system in (doubling, golden, gauss):
        for _ in range(10):
            rep = random_rep(system.grid, PARAMS, rng)
            sliced = slice_rep(rep, system)
            cert = sliced.certificate
            measured = sliced.measured_lhs[cert.mode]
            assert measured <= cert.c_rs1 * sliced.input_norm * (1 + 1e-9), \
                f"{system.spec.name}: measured {measured:.4g} vs certified " \
                f"{cert.c_rs1 * sliced.input_norm:.4g}"



def _slice_by_atom(rep, system):
    """The coefficients of slice_rep's branch expansions, one atom and one
    branch at a time (intersect, decompose, re-aggregate the defect)."""
    grid, params = system.grid, system.params
    K, theta = grid.max_level, params.theta
    out = {b.r: {} for b in system.branches}
    for Q, d in rep.coeffs.items():
        q_iv, q_meas = grid.interval(Q), grid.measure(Q)
        amp = d * q_meas ** (-theta)
        for b in system.branches:
            lo, hi = max(q_iv[0], b.img[0]), min(q_iv[1], b.img[1])
            if hi - lo <= 1e-15:
                continue
            bucket = out[b.r]
            if abs((hi - lo) - q_meas) < 1e-15:
                bucket[Q] = bucket.get(Q, 0.0) + d
                continue
            dec = decompose(grid, (lo, hi), 1.0 - params.s * params.p, defect_cap=math.inf)
            for P in dec.all_cells():
                bucket[P] = bucket.get(P, 0.0) + d * (grid.measure(P) / q_meas) ** theta
            _, js, a_, b_, w_j = grid.overlaps(K, *np.reshape(dec.defect_pieces, (-1, 2)).T)
            for j, coef in zip(js.tolist(), (amp * ((b_ - a_) / w_j) * w_j ** theta).tolist()):
                bucket[CellId(K, j)] = bucket.get(CellId(K, j), 0.0) + coef
    return out


@pytest.mark.parametrize("spec", [MapSpec("beta", beta=PHI), MapSpec("gauss", r_max=50)],
                         ids=["golden", "gauss50"])
def test_slice_rep_equals_the_atom_by_atom_loop(spec):
    # the same coefficients, added up in the same order, so the measured
    # sides of the slicing inequality are the same numbers too
    system = make_map(spec, build_grid(2, 10), PARAMS)
    rng = np.random.default_rng(71)
    for i in range(20):
        rep = random_rep(system.grid, PARAMS, rng, n_atoms=15, positive=i % 4 == 1,
                         complex_coeffs=i % 4 == 3)
        want = _slice_by_atom(rep, system)
        got = slice_rep(rep, system).branch_reps
        assert list(got) == list(want)
        for r, br in got.items():
            assert list(br.coeffs.items()) == list(want[r].items())
            assert br.positive_flag == rep.positive_flag


def test_apply_transfer_and_slice_rep_build_no_cell_ids(beta18, monkeypatch):
    rep = random_rep(beta18.grid, PARAMS, np.random.default_rng(13), n_atoms=15)
    want = apply_transfer(beta18, rep, cross_check=True)

    def refuse(*args, **kwargs):
        raise AssertionError("a CellId was built")

    # every CellId(...) call, whichever module makes it
    monkeypatch.setattr(CellId, "__new__", refuse)
    with pytest.raises(AssertionError, match="CellId"):
        CellId(0, 0)
    out = apply_transfer(beta18, rep, cross_check=True)
    sliced = slice_rep(rep, beta18)
    monkeypatch.undo()
    assert list(out.coeffs.items()) == list(want.coeffs.items())
    assert sum(len(br.coeffs) for br in sliced.branch_reps.values()) > 0


# -- the action ------------------------------------------------------------------

def test_transfer_preserves_constants_doubling(doubling):
    rep = atom_rep(CellId(0, 0), PARAMS, doubling.grid)
    out = apply_transfer(doubling, rep, mode="analytic")
    f = evaluate(out)
    assert np.max(np.abs(f.values - 1.0)) <= 1e-12


def test_transfer_atom_contraction_doubling(doubling):
    for k in (1, 3, 5):
        for j in (0, 2 ** k - 1):
            rep = atom_rep(CellId(k, j), PARAMS, doubling.grid)
            out = apply_transfer(doubling, rep, mode="analytic")
            assert len(out.coeffs) == 1
            (cell, val), = out.coeffs.items()
            assert cell.level == k - 1
            assert val == pytest.approx(CONTRACTION, abs=1e-12)


def test_transfer_linearity(doubling):
    rng = np.random.default_rng(7)
    a = random_rep(doubling.grid, PARAMS, rng)
    b = random_rep(doubling.grid, PARAMS, rng)
    lhs = apply_transfer(doubling, a.scaled(2.0) + b, mode="analytic")
    rhs = apply_transfer(doubling, a, mode="analytic").scaled(2.0) \
        + apply_transfer(doubling, b, mode="analytic")
    for cell in set(lhs.coeffs) | set(rhs.coeffs):
        assert abs(lhs.coeffs.get(cell, 0) - rhs.coeffs.get(cell, 0)) <= 1e-10


def test_mode_cross_check(doubling, golden, gauss, beta18):
    rng = np.random.default_rng(11)
    for system in (doubling, golden, gauss, beta18):
        for _ in range(5):
            rep = random_rep(system.grid, PARAMS, rng, n_atoms=12)
            out = apply_transfer(system, rep, mode="analytic", cross_check=True)
            assert out.meta["cross_check_l1"] <= 1e-6 + out.meta["defect_l1"]


def test_cross_check_rejects_a_bin_operator_off_by_1e6(monkeypatch):
    # the routes agree to ~1e-13; a bin operator scaled by 1 + 1e-6 is a
    # broken route even though the mismatch is far below the sliver mass
    import besovtransfer.transfer as transfer
    build = transfer.build_cell_operator
    def scaled(system, K=None):
        op = build(system, K)
        return op._replace(data=op.data * (1 + 1e-6))
    monkeypatch.setattr(transfer, "build_cell_operator", scaled)
    system = make_map(MapSpec("beta", beta=1.8), build_grid(2, 8), PARAMS)
    rep = random_rep(system.grid, PARAMS, np.random.default_rng(53), n_atoms=15)
    with pytest.raises(ModeMismatchError):
        apply_transfer(system, rep, mode="analytic", cross_check=True)


def test_analytic_cross_check_skips_k0_and_the_numeric_expansion(monkeypatch, gauss, beta18):
    # the containment level k0 only feeds assembly's ledger encounters, and
    # the numeric route's expansion is only returned in numeric mode
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for mod, attr, fn in ((grid_module.Grid, "containment_levels",
                           grid_module.Grid.containment_levels),
                          (atoms, "canonical_rep", atoms.canonical_rep),
                          (transfer, "canonical_rep", atoms.canonical_rep)):
        monkeypatch.setattr(mod, attr, counting(attr, fn), raising=False)
    rng = np.random.default_rng(47)
    for system in (gauss, beta18):
        for _ in range(3):
            rep = random_rep(system.grid, PARAMS, rng, n_atoms=12)
            apply_transfer(system, rep, mode="analytic", cross_check=True)
    assert calls == []
    apply_transfer(beta18, rep, mode="numeric")
    assert "canonical_rep" in calls


def test_analytic_route_decomposes_a_whole_expansion_in_two_kernel_calls(monkeypatch, gauss):
    # the slices of all atoms go through one cover call and their pushed
    # forward cells through another; the slivers meet the bottom cells in
    # one overlaps call, and the image cells of one level gather their
    # subtrees at once: no count follows the branches or the atoms
    calls = {"cover": 0, "overlaps": 0, "containment_levels": 0, "subtree_indices": 0,
             "c_dom": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(transfer, "cover", counting("cover", transfer.cover))
    monkeypatch.setattr(transfer, "c_dom", counting("c_dom", transfer.c_dom))
    monkeypatch.setattr(grid_module.Grid, "overlaps",
                        counting("overlaps", grid_module.Grid.overlaps))
    monkeypatch.setattr(grid_module.Grid, "containment_levels",
                        counting("containment_levels", grid_module.Grid.containment_levels))
    monkeypatch.setattr(transfer, "subtree_indices",
                        counting("subtree_indices", transfer.subtree_indices))
    monkeypatch.setattr(transfer, "decompose", None, raising=False)
    rep = random_rep(gauss.grid, PARAMS, np.random.default_rng(61), n_atoms=15)
    assert len(rep.coeffs) == 15
    out = apply_transfer(gauss, rep, mode="analytic")
    assert out.coeffs
    assert calls["cover"] == 2
    assert calls["overlaps"] == 1
    assert calls["subtree_indices"] <= gauss.grid.max_level + 1
    # the containment levels and c_dom only feed assembly's ledger widening
    assert calls["containment_levels"] == 0
    assert calls["c_dom"] == 0


def _widen_level_by_level(system, K):
    """The branch constants widened as assembly did with a per-level,
    per-branch accumulator: the containment level of every forward image
    from Grid.containment_levels, each branch's encounters folded level by
    level, then merged into copies of the branches.  Returns the system
    rebuilt on those copies and the count of images holding no cell down
    to K."""
    grid, params = system.grid, system.params
    alpha = 1.0 - params.s * params.p
    shift_min, violation, dom_max, deep = {}, {}, {}, 0
    for k in range(K + 1):
        *_, img, _ = transfer.transfer_atom(system, k, np.arange(grid.n_cells(k)), 1.0, K=K)
        if not img.lo.size:
            continue
        deep += int(np.sum(img.cover.k0 < 0))
        kv = grid.containment_levels(img.lo, img.hi, grid.max_level + 16)
        assert np.all(kv >= 0)
        shift = np.abs(img.level - kv)
        ratio = img.meas / (img.hi - img.lo)
        doms = c_dom(grid, img.cover, img.lo, img.hi, alpha)
        for r in np.unique(img.branch).tolist():
            sel = img.branch == r
            b, sh, rho = system.branches[r], shift[sel], ratio[sel]
            shift_min[r] = min(shift_min.get(r, int(sh.min())), int(sh.min()))
            pows = {x: b.c_dc2 ** x for x in set(sh.tolist())}
            bound = b.c_dc1 * np.array([pows[x] for x in sh.tolist()])
            over = rho > bound * (1 + 1e-12)
            if over.any():
                violation[r] = max(violation.get(r, 1.0),
                                   float(np.max(rho[over] / bound[over])))
            dom_max[r] = max(dom_max.get(r, 1.0), float(np.max(doms[sel])))
    branches = [dataclasses.replace(b, shift=min(b.shift, shift_min.get(r, b.shift)),
                                    c_dc1=b.c_dc1 * violation.get(r, 1.0),
                                    c_dgd1=max(b.c_dgd1, dom_max.get(r, b.c_dgd1)))
                for r, b in enumerate(system.branches)]
    return dataclasses.replace(system, branches=branches), deep


@pytest.mark.parametrize("raised", [False, True], ids=["fitted", "raised"])
@pytest.mark.parametrize("spec,K", [(MapSpec("beta", beta=PHI), 10),
                                    (MapSpec("gauss", r_max=50), 10),
                                    (MapSpec("lorenz_cusp", exponent=0.75), 9),
                                    (MapSpec("beta", beta=1.8), 9),
                                    (MapSpec("beta", beta=1.3), 9)],
                         ids=["golden", "gauss", "lorenz_cusp", "beta18", "beta13"])
def test_assembly_widens_the_ledger_as_the_level_by_level_accumulator(spec, K, raised):
    # the shift drops to the smallest one met, c_dc1 takes the largest
    # excess over c_dc1 * c_dc2**shift, c_dgd1 the largest c_dom and at
    # least 1; the images with no cell down to K take their containment
    # level deeper (beta=1.3 has images holding none down to K+1).
    # Assembly meets no shift below the fitted one, so the raised ledger
    # starts every shift 3 higher and every c_dgd1 at 0.5.
    def system():
        out = make_map(spec, build_grid(2, K), PARAMS)
        if not raised:
            return out
        return dataclasses.replace(out, branches=[
            dataclasses.replace(b, shift=b.shift + 3, c_dgd1=0.5) for b in out.branches])

    def constants(system):
        return [repr((b.shift, b.c_dc1, b.c_dc2, b.c_dgd1, b.c_dgd2)) for b in system.branches]

    tm = assemble_matrix(system())
    reference, deep = _widen_level_by_level(system(), K)
    ledger = bound_ledger(reference, tm.constants, tm.t)
    ledger.measured["total_defect_l1"] = tm.ledger.measured["total_defect_l1"]
    assert constants(tm.system) == constants(reference)
    assert repr(tm.ledger.as_dict()) == repr(ledger.as_dict())
    assert deep > 0



def _reads(system):
    """What the probed ledger shows: ledger.csv, the bound ledger and the
    meta of a seeded cross-checked transfer."""
    rep = random_rep(system.grid, PARAMS, np.random.default_rng(5), n_atoms=15)
    return (system.ledger_csv(), repr(bound_ledger(system, transfer.Constants(), 1).as_dict()),
            repr(apply_transfer(system, rep, cross_check=True).meta))


def test_assembly_leaves_the_probed_ledger_as_it_was():
    system = make_map(MapSpec("lorenz_cusp"), build_grid(2, 9), PARAMS)
    before = _reads(system)
    tm = assemble_matrix(system)
    assert _reads(system) == before
    # assembly widens: M's system carries other constants
    assert tm.system.ledger_csv() != system.ledger_csv()


def test_assembled_ledgers_do_not_depend_on_the_assembly_order():
    ledgers = []
    for levels in ((9, 7), (7, 9)):
        system = make_map(MapSpec("lorenz_cusp"), build_grid(2, 9), PARAMS)
        ledgers.append({K: repr(assemble_matrix(system, K=K).ledger.as_dict()) for K in levels})
    assert ledgers[0] == ledgers[1]
    assert ledgers[0][9] != ledgers[0][7]


@pytest.mark.parametrize("widened_first", [False, True])
def test_certificate_is_kept_per_system_not_per_copy(widened_first, monkeypatch):
    # the widened system shares the probed one's caches, but not its
    # certificate: each reads its own ledger, in either call order
    probed = make_map(MapSpec("lorenz_cusp"), build_grid(2, 9), PARAMS)
    widened = assemble_matrix(probed).system
    assert widened.weight_avgs is probed.weight_avgs
    rep = random_rep(probed.grid, PARAMS, np.random.default_rng(1), n_atoms=15)
    order = (widened, probed) if widened_first else (probed, widened)
    factor = {id(s): apply_transfer(s, rep, cross_check=True).meta["certificate_factor"]
              for s in order}
    assert factor[id(probed)] == pytest.approx(6254.33, abs=0.005)
    assert factor[id(widened)] == pytest.approx(6311.51, abs=0.005)
    # the certificate is made once per system and reused
    calls = []
    slicing = transfer.slicing_certificates
    monkeypatch.setattr(transfer, "slicing_certificates",
                        lambda *args: calls.append(args) or slicing(*args))
    for s in order:
        assert apply_transfer(s, rep).meta["certificate_factor"] == factor[id(s)]
    assert calls == []


def _reaggregate_by_branch(system, K, slivers, n_atoms):
    """transfer._reaggregate with one overlaps call per branch."""
    grid, theta = system.grid, system.params.theta
    coo = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
    defect = np.zeros(n_atoms)
    branches, first = np.unique(slivers.branch, return_index=True)
    for r in branches[np.argsort(first)].tolist():
        sel = slivers.branch == r
        atom, amp = slivers.atom[sel], slivers.amp[sel]
        piece, j, a_, b_, w_j = grid.overlaps(K, slivers.lo[sel], slivers.hi[sel])
        mass = system.branches[r].weight_integral(a_, b_)
        keep = mass != 0.0
        piece, j, mass, w_j = piece[keep], j[keep], mass[keep], w_j[keep]
        coo.append((atom[piece], j, amp[piece] * (mass / w_j) * w_j ** theta))
        defect += np.bincount(atom[piece], weights=np.abs(amp[piece]) * mass,
                              minlength=n_atoms)
    return (*(np.concatenate(x) for x in zip(*coo)), defect)


def test_reaggregate_equals_the_branch_by_branch_loop(gauss, golden):
    # the coefficients come in the same order and each atom's defect adds
    # up the same per-branch sums in the same order
    for system in (gauss, golden):
        K = system.grid.max_level
        for k in (0, 2, 4, 6):
            n = system.grid.n_cells(k)
            *_, slivers = transfer.transfer_atom(system, k, np.arange(n), 1.0)
            got = transfer._reaggregate(system, K, slivers, n)
            want = _reaggregate_by_branch(system, K, slivers, n)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def test_complex_constant_weight_keeps_its_imaginary_part():
    # a constant weight enters every entry linearly, so a complex one
    # scales the matrix of the real one
    spec = MapSpec("doubling", potential="constant", constant=0.5)
    real = assemble_matrix(make_map(spec, build_grid(2, 6), PARAMS), K=6).matrix
    system = make_map(spec, build_grid(2, 6), PARAMS)
    system = dataclasses.replace(system, branches=[
        dataclasses.replace(b, potential=dataclasses.replace(b.potential, value=0.5 * (1 + 1j)))
        for b in system.branches])
    mat = assemble_matrix(system, K=6).matrix
    assert np.iscomplexobj(mat.data)
    assert abs(mat - (1 + 1j) * real).max() <= 1e-15 * abs(real).max()


def test_mass_conservation(doubling, golden, gauss, beta18):
    rng = np.random.default_rng(13)
    for system in (doubling, golden, gauss, beta18):
        rep = random_rep(system.grid, PARAMS, rng, positive=True)
        out = apply_transfer(system, rep, mode="analytic")
        lost = 1.0 - (1.0 if system.spec.name != "gauss"
                      else 1.0 / (system.spec.r_max + 1) / 1.0)
        m_in = evaluate(rep).integral()
        m_out = evaluate(out).integral()
        if system.spec.name == "gauss":
            # the truncated family only sees mass landing in its images
            assert m_out <= m_in + 1e-10
        else:
            assert m_out == pytest.approx(m_in, abs=1e-10)


def test_positivity_preservation(golden):
    rng = np.random.default_rng(17)
    rep = random_rep(golden.grid, PARAMS, rng, positive=True)
    out = apply_transfer(golden, rep, mode="analytic")
    assert out.positive_flag
    assert all(np.real(v) >= -1e-15 for v in out.coeffs.values())


def test_certificate_bound(doubling, golden, gauss):
    rng = np.random.default_rng(19)
    for system in (doubling, golden, gauss):
        for _ in range(10):
            rep = random_rep(system.grid, PARAMS, rng)
            out = apply_transfer(system, rep, mode="analytic")
            bound = out.meta["certificate_factor"] * out.meta["input_norm"]
            assert out.meta["output_norm"] <= bound * (1 + 1e-9)


def test_gauss_density_fixed_point(gauss):
    from besovtransfer.atoms import canonical_rep
    grid = gauss.grid
    rho = PiecewiseFn.from_function(grid, grid.max_level,
                                    lambda x: 1.0 / ((1.0 + x) * math.log(2)))
    rep = canonical_rep(rho, PARAMS)
    out = apply_transfer(gauss, rep, mode="numeric")
    # the truncated family loses exactly the density mass landing beyond it
    lost = math.log2(1.0 + 1.0 / (gauss.spec.r_max + 1))
    dist = l1_distance(evaluate(out), rho)
    assert dist <= 1e-4 + lost * 1.05


# -- matrix ------------------------------------------------------------------------


def test_matrix_doubling_structure(doubling):
    tm = assemble_matrix(doubling, K=6)
    assert tm.ledger.measured["total_defect_l1"] == 0.0
    dense = tm.dense()
    # every level-k atom column holds a single entry at its image atom
    from besovtransfer.atoms import level_offsets
    off = level_offsets(doubling.grid, 6)
    for k in range(1, 7):
        for j in range(2 ** k):
            col = dense[:, off[k] + j]
            nz = np.nonzero(np.abs(col) > 1e-15)[0]
            assert len(nz) == 1
            assert col[nz[0]] == pytest.approx(CONTRACTION, abs=1e-12)
    assert dense[0, 0] == pytest.approx(1.0)


def mass_functional(tm):
    """Row vector sending atom coefficients to the integral of the expansion."""
    off, params = level_offsets(tm.grid, tm.K), tm.params
    out = np.zeros(tm.size)
    for k in range(tm.K + 1):
        out[off[k]:off[k + 1]] = tm.grid.widths(k) ** (params.s - 1.0 / params.p + 1.0)
    return out


def test_matrix_mass_functional(doubling, golden, beta18):
    # beta18 at its own resolution: the level with the cut cells
    for system, K in ((doubling, 7), (golden, 7), (beta18, 8)):
        tm = assemble_matrix(system, K=K)
        m = mass_functional(tm)
        residual = m @ tm.dense() - m
        assert np.max(np.abs(residual)) <= 1e-10


def test_matrix_consistency_with_apply(golden):
    tm = assemble_matrix(golden, K=8)
    rng = np.random.default_rng(29)
    for _ in range(5):
        rep = random_rep(golden.grid, PARAMS, rng, n_atoms=10)
        vec = rep.to_vector(8)
        via_matrix = evaluate_vector(tm.apply(vec), golden.grid, 8, PARAMS)
        direct = evaluate(apply_transfer(golden, rep, mode="analytic"), 8).values
        coarse = lambda v: v.reshape(2 ** 7, 2).mean(axis=1)
        assert np.max(np.abs(coarse(via_matrix) - coarse(direct))) <= 1e-9


def test_matrix_defect_shrinks_with_level(golden):
    defects = []
    for K in (5, 6, 7, 8):
        g = build_grid(2, K)
        system = make_map(MapSpec("beta", beta=PHI), g, PARAMS, probe_level=6)
        tm = assemble_matrix(system, K=K)
        defects.append(tm.ledger.measured["total_defect_l1"]
                       / tm.matrix.shape[0])
    assert all(d2 < d1 for d1, d2 in zip(defects, defects[1:]))


def test_matrix_budget_cap(doubling):
    with pytest.raises(CapacityError):
        assemble_matrix(doubling, K=8, basis_cap=100)


def test_tail_norm_certificate(golden):
    tm = assemble_matrix(golden, K=8, t=2)
    rng = np.random.default_rng(31)
    bound = tm.ledger.essential_bound
    for _ in range(10):
        rep = random_rep(golden.grid, PARAMS, rng, n_atoms=15)
        vec = rep.to_vector(8)
        vec[:level_offsets(golden.grid, 8)[2]] = 0.0
        nrm_in = coefficient_norm_vector(vec, golden.grid, 8, PARAMS)
        if nrm_in == 0:
            continue
        # the head levels are zeroed: the matrix acts on the tail alone
        nrm_out = coefficient_norm_vector(tm.matrix @ vec, golden.grid, 8, PARAMS)
        assert nrm_out <= bound * nrm_in * (1 + 1e-9)


def test_cell_operator_matches_numeric(golden, beta18):
    rng = np.random.default_rng(37)
    f = PiecewiseFn(golden.grid, 8, rng.standard_normal(256))
    out = transfer_numeric(golden, f)
    op = build_cell_operator(golden, 8)
    assert np.allclose(out.values, op @ f.values)
    # mass conservation column by column for jacobian weights
    col_mass = np.bincount(op.col, weights=op.data, minlength=256) * golden.grid.width(8)
    assert np.max(np.abs(col_mass - golden.grid.width(8))) <= 1e-12
    # the same on cut cells, each weighted with its own width: w @ U
    f = PiecewiseFn(beta18.grid, 8, rng.standard_normal(256))
    op = build_cell_operator(beta18, 8)
    assert np.allclose(transfer_numeric(beta18, f).values, op @ f.values)
    w = beta18.grid.widths(8)
    w_op = np.bincount(op.col, weights=op.data * w[op.rows()], minlength=256)
    assert np.max(np.abs(w_op - w)) <= 1e-12


def _scipy_cell_operator(system, K):
    """The bin operator as it was built before CellOperator: a scipy CSR
    matrix of the raw branch entries, whose repeats scipy merges."""
    import scipy.sparse as sp
    grid = system.grid
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
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n, n))


@pytest.mark.parametrize("spec,arity,K", [
    (MapSpec("beta", beta=PHI), 2, 9),
    (MapSpec("beta", beta=1.8), 2, 9),
    (MapSpec("m_ary", arity=3), 3, 5),
    # rows of up to 53 entries, and up to 9 branch entries merged into one
    (MapSpec("gauss", r_max=50), 2, 8),
])
def test_cell_operator_equals_scipy_bit_for_bit(spec, arity, K):
    system = make_map(spec, build_grid(arity, K), PARAMS, probe_level=min(8, K))
    op, csr = build_cell_operator(system, K), _scipy_cell_operator(system, K)
    assert op.shape == csr.shape
    # the same entries, row by row in column order
    rows = op.rows()
    by_row = np.argsort(rows, kind="stable")
    length = np.diff(csr.indptr)
    assert np.array_equal(rows[by_row], np.repeat(np.arange(csr.shape[0]), length))
    assert np.array_equal(op.col[by_row], csr.indices)
    assert op.data[by_row].tobytes() == csr.data.tobytes()
    # diagonal k covers the rows longer than k, longest first
    assert sorted(op.rank.tolist()) == list(range(csr.shape[0]))
    assert np.array_equal(np.diff(op.span), np.bincount(length)[::-1].cumsum()[::-1][1:])
    assert np.all(np.diff(length[np.argsort(op.rank)]) <= 0)
    assert op.full == length.min()
    # and the same products, real and complex, signed zeros included, and
    # non-finite values only where a row holds their column
    n = csr.shape[0]
    rng = np.random.default_rng(K)
    x = rng.standard_normal(n)
    bad = x.copy()
    bad[[0, n // 2]] = np.inf, np.nan
    with np.errstate(invalid="ignore"):
        for v in (x, -np.abs(x), np.zeros(n), x + 1j * rng.standard_normal(n), np.exp(1j * x),
                  bad, bad * (1 - 1j)):
            assert (op @ v).tobytes() == (csr @ v).tobytes()


def _line_loop_triplets(matrix):
    """matrix.csv as the entry-by-entry loop wrote it."""
    coo = matrix.tocoo()
    lines = ["row,col,value"]
    order = np.lexsort((coo.col, coo.row))
    for i in order:
        val = complex(coo.data[i])
        txt = repr(val.real) if val.imag == 0 else repr(val)
        lines.append(f"{int(coo.row[i])},{int(coo.col[i])},{txt}")
    return "\n".join(lines) + "\n"


def test_triplets_text_equals_the_line_loop():
    for spec in (MapSpec("beta", beta=1.8), MapSpec("gauss", r_max=20)):
        tm = assemble_matrix(make_map(spec, build_grid(2, 7), PARAMS), K=7)
        assert tm.to_triplets() == _line_loop_triplets(tm.matrix)
    # complex entries, with and without an imaginary part, and a signed zero
    mixed = tm.matrix.astype(np.complex128)
    mixed.data[::3] *= 1 - 0.25j
    mixed.data[1::7] = -0.0
    tm.matrix = mixed
    assert tm.to_triplets() == _line_loop_triplets(mixed)
    assert "j)" in tm.to_triplets() and ",-0.0\n" in tm.to_triplets()


# -- integrability ---------------------------------------------------------------

def test_lebesgue_doubling(doubling):
    report = lebesgue_bound_check(doubling)
    assert report.classes["L2"] == [1, 2]
    assert not report.classes["L3"]
    assert report.a0_pass and math.isfinite(report.c_232)


def test_lebesgue_gauss_split_finite():
    # individual tail terms decay polynomially (r**(-2 eps')); the sums are
    # finite for every truncation even though they grow with it
    for r_max in (10, 20):
        system = make_map(MapSpec("gauss", r_max=r_max), build_grid(2, 8),
                          PARAMS, probe_level=7)
        rep = lebesgue_bound_check(system)
        assert rep.a0_pass
        assert math.isfinite(rep.sum_l2) and math.isfinite(rep.sum_l3)
        by_r = {b.r: b for b in system.branches}
        term = lambda r: by_r[r].c_dc2 ** (by_r[r].shift * rep.eps_prime)
        assert term(r_max) < term(2)


def test_lebesgue_rejects_nonexpanding():
    # a branch whose scaling base is not below 1, as a non-expanding piece has
    system = make_map(MapSpec("doubling"), build_grid(2, 8), PARAMS)
    b1, b2 = system.branches
    system = dataclasses.replace(system, branches=[b1, dataclasses.replace(b2, c_dc2=1.0)])
    with pytest.raises(AssumptionError, match="branch 2: scaling base 1.0000 >= 1"):
        lebesgue_bound_check(system)


def _c_11_by_loop(system, probe_level):
    """lebesgue_bound_check's c_11 one branch and one level at a time:
    about 16 cells inside the image, each probed at 17 points of its
    forward image."""
    grid, params = system.grid, system.params
    exponent = 1.0 / params.p - params.s + params.eps
    c_11 = 0.0
    for b in system.branches:
        for k in range(min(probe_level, grid.max_level) + 1):
            (i0,), (i1,) = grid.contained_runs([k], *b.img)
            js = np.arange(i0, i1, max(1, (i1 - i0) // 16))
            edges = grid.edges(k)
            vlo, vhi = b.forward_interval(edges[js], edges[js + 1])
            ok = vhi - vlo > 0
            xs = np.linspace(vlo[ok], vhi[ok], 17, axis=-1)
            sup_g = np.max(np.abs(np.reshape(b.potential(xs.ravel()), xs.shape)), axis=-1)
            ratio = grid.widths(k)[js[ok]] / (vhi - vlo)[ok]
            c_11 = max([c_11] + [g / r ** exponent
                                 for g, r in zip(sup_g.tolist(), ratio.tolist())])
    return c_11


@pytest.mark.parametrize("spec, arity, K", [
    (MapSpec("doubling"), 2, 8),
    (MapSpec("m_ary", arity=3), 3, 5),
    (MapSpec("beta", beta=PHI), 2, 10),
    (MapSpec("beta", beta=1.8), 2, 9),
    (MapSpec("pw_linear", breakpoints=(0.0, 1 / 3, 1.0), slopes=(3.0, 1.5)), 2, 9),
    (MapSpec("lorenz_cusp", exponent=0.75), 2, 9),
    (MapSpec("gauss", r_max=20), 2, 8),
    (MapSpec("gauss", r_max=50), 2, 10),
], ids=["doubling", "m_ary3", "golden", "beta18", "pw_linear", "lorenz", "gauss", "gauss50"])
def test_lebesgue_c_11_equals_the_branch_by_level_loop(spec, arity, K):
    system = make_map(spec, build_grid(arity, K), PARAMS, probe_level=min(8, K))
    for probe_level in (2, 6, 12):
        assert lebesgue_bound_check(system, probe_level).c_11.hex() == \
            _c_11_by_loop(system, probe_level).hex()


def test_c_d_constant(doubling):
    lam = doubling.lambda_rs2
    assert c_d_constant(doubling) == pytest.approx(2.0 / (1.0 - lam ** 0.5))


# -- edge exponents ---------------------------------------------------------------

def test_sup_level_norm_pipeline():
    # q = inf: level sums become suprema throughout
    params = BesovParams(q=math.inf)
    grid = build_grid(2, 7)
    system = make_map(MapSpec("doubling"), grid, params)
    tm = assemble_matrix(system, K=7)
    rng = np.random.default_rng(41)
    rep = random_rep(grid, params, rng)
    out = apply_transfer(system, rep, mode="analytic", cross_check=True)
    assert out.meta["output_norm"] <= out.meta["certificate_factor"] \
        * out.meta["input_norm"] * (1 + 1e-9)


def test_p_equal_one_pipeline():
    # p = 1: the dual-exponent powers degenerate to suprema and the
    # support-overlap factor is pinned to 1
    params = BesovParams(s=0.6, p=1.0, q=1.0, beta=0.8, eps=0.2, delta=0.1)
    params.validate()
    grid = build_grid(2, 7)
    system = make_map(MapSpec("beta", beta=PHI), grid, params, probe_level=6)
    tm = assemble_matrix(system, K=7)
    sliced = slice_rep(random_rep(grid, params, np.random.default_rng(43)), system)
    assert math.isfinite(sliced.measured_lhs["hiip2"])
    assert sliced.certificate.c_rs1 > 0
    measured = sliced.measured_lhs[sliced.certificate.mode]
    assert measured <= sliced.certificate.c_rs1 * sliced.input_norm * (1 + 1e-9)


def test_slice_restriction_partial_cover(gauss):
    # the truncated family's images cover only [1/r_max+1, 1); the sliced
    # pieces must reconstruct the restriction, fractional boundary cells
    # included
    rng = np.random.default_rng(47)
    rep = random_rep(gauss.grid, PARAMS, rng, n_atoms=15)
    sliced = slice_rep(rep, gauss)
    total = None
    for br in sliced.branch_reps.values():
        f = evaluate(br)
        total = f if total is None else total + f
    full = evaluate(rep)
    K = gauss.grid.max_level
    w = gauss.grid.width(K)
    cover = np.zeros(gauss.grid.n_cells(K))
    for b in gauss.branches:
        lo, hi = b.img
        for j in range(int(lo / w), min(int(math.ceil(hi / w)), cover.size)):
            a_, b_ = max(j * w, lo), min((j + 1) * w, hi)
            cover[j] += max(b_ - a_, 0.0) / w
    restricted = PiecewiseFn(gauss.grid, K, full.values * cover)
    assert l1_distance(total, restricted) <= 1e-10
