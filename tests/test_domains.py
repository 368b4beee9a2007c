"""Greedy cell decompositions and strong-regularity measurements."""

import bisect
import math

import numpy as np
import pytest

from besovtransfer import domains
from besovtransfer.domains import cover, decompose, strong_regularities
from besovtransfer.grid import CONTAIN_TOL, CellId, Grid, build_grid

GRID = build_grid(2, 12)
ALPHA = 0.2


def normalize(pieces):
    """Sort a union of pieces, merge touching or overlapping ones and drop
    empty ones (1e-15 or less wide)."""
    out = []
    for a, b in sorted((float(a), float(b)) for a, b in pieces if b - a > 1e-15):
        if out and a <= out[-1][1] + 1e-15:
            out[-1] = (out[-1][0], max(out[-1][1], b))
        else:
            out.append((a, b))
    return out


def subtract(pieces, hole):
    """The union of pieces less one interval."""
    lo, hi = hole
    out = []
    for a, b in pieces:
        if b <= lo + 1e-15 or a >= hi - 1e-15:
            out.append((a, b))
            continue
        if lo - a > 1e-15:
            out.append((a, lo))
        if b - hi > 1e-15:
            out.append((hi, b))
    return normalize(out)


def brute_force_cost(grid, target, alpha, Q):
    """Independent decomposition-cost evaluation by cell scanning."""
    q_lo, q_hi = grid.interval(Q)
    residual = [(max(a, q_lo), min(b, q_hi)) for a, b in normalize(target)
                if min(b, q_hi) - max(a, q_lo) > 1e-15]
    cost = 0.0
    for k in range(grid.max_level + 1):
        taken = []
        for j in range(grid.n_cells(k)):
            cell_iv = grid.interval(CellId(k, j))
            if any(lo - 1e-12 <= cell_iv[0] and cell_iv[1] <= hi + 1e-12
                   for lo, hi in residual):
                taken.append(cell_iv)
                cost += grid.width(k) ** alpha
        for cell_iv in taken:
            residual = subtract(residual, cell_iv)
    return cost / grid.measure(Q) ** alpha


def test_single_cell_decomposition():
    Q = CellId(3, 5)
    dec = decompose(GRID, GRID.interval(Q), ALPHA)
    assert dec.families == {3: [Q]}
    assert dec.c_dom == pytest.approx(1.0)
    assert dec.defect_measure == 0.0


def test_quarter_to_three_quarters():
    dec = decompose(GRID, (0.25, 0.75), ALPHA)
    assert dec.families == {2: [CellId(2, 1), CellId(2, 2)]}
    assert dec.defect_measure == 0.0


def test_third_interval_fringe_structure():
    dec = decompose(GRID, (0.0, 1 / 3), ALPHA)
    # one new cell at most per level, every other level for 1/3
    for k, cells in dec.families.items():
        assert len(cells) <= 1
    assert dec.lambda_dom == pytest.approx(2 ** -ALPHA)
    assert dec.c_dom < math.inf
    # the pinned-ratio inequality holds by construction of c_dom
    for k in dec.families:
        assert dec.level_sum(GRID, k) <= dec.c_dom * dec.lambda_dom ** (k - dec.k0) * (1 / 3) ** ALPHA + 1e-12


def test_cells_disjoint_and_inside():
    rng = np.random.default_rng(13)
    for _ in range(15):
        a, b = np.sort(rng.uniform(0, 1, 2))
        if b - a < 0.01:
            continue
        dec = decompose(GRID, (a, b), ALPHA)
        ivs = sorted(GRID.interval(c) for c in dec.all_cells())
        for (l1, h1), (l2, h2) in zip(ivs, ivs[1:]):
            assert h1 <= l2 + 1e-12
        for lo, hi in ivs:
            assert lo >= a - 1e-9 and hi <= b + 1e-9


def test_measure_conservation_with_defect():
    rng = np.random.default_rng(17)
    for _ in range(15):
        a, b = np.sort(rng.uniform(0, 1, 2))
        if b - a < 0.01:
            continue
        dec = decompose(GRID, (a, b), ALPHA)
        covered = dec.covered_measure(GRID) + dec.defect_measure
        assert covered == pytest.approx(b - a, abs=1e-12)


def test_fringe_count_bound():
    rng = np.random.default_rng(19)
    for arity in (2, 3):
        g = build_grid(arity, 9)
        for _ in range(10):
            a, b = np.sort(rng.uniform(0, 1, 2))
            if b - a < 0.02:
                continue
            dec = decompose(g, (a, b), ALPHA)
            for k, cells in dec.families.items():
                if k > dec.k0:
                    assert len(cells) <= 2 * (arity - 1)


def test_strong_regularity_whole_space():
    rep = strong_regularities(GRID, [(0.0, 1.0)], ALPHA, t=0)[0]
    assert rep.c_strong == pytest.approx(1.0)


def test_strong_regularity_cell_aligned():
    rep = strong_regularities(GRID, [(0.0, 0.5)], ALPHA, t=1)[0]
    assert rep.c_strong == pytest.approx(1.0)


def test_strong_regularity_third():
    rep = strong_regularities(GRID, [(0.0, 1 / 3)], ALPHA, t=0, include_defect_cells=False)[0]
    # geometric-series bound for a single boundary fringe
    assert rep.c_strong <= 1.0 / (1.0 - 2 ** -ALPHA)
    # matches an independent scan on the worst probing cell
    scanned = brute_force_cost(build_grid(2, 10), [(0.0, 1 / 3)], ALPHA, rep.worst_cell)
    probe = strong_regularities(build_grid(2, 10), [(0.0, 1 / 3)], ALPHA, t=0,
                                include_defect_cells=False)[0]
    assert probe.c_strong == pytest.approx(scanned, rel=1e-6)


def test_strong_regularity_covers_interior_cells():
    # boundary cells see single-cell intersections; the root cell sees the
    # full set split into two level-2 cells, which dominates
    rep = strong_regularities(GRID, [(0.25, 0.75)], ALPHA, t=0)[0]
    assert rep.c_strong == pytest.approx(2 * 0.25 ** ALPHA)
    assert rep.worst_cell == CellId(0, 0)
    # probing only below the aligned boundary gives cost 1
    rep1 = strong_regularities(GRID, [(0.25, 0.75)], ALPHA, t=2)[0]
    assert rep1.c_strong == pytest.approx(1.0)



def test_strong_regularities_equal_one_set_at_a_time():
    # intervals on and off the edges of a grid cut off its nominal edges
    grid = build_grid(2, 8).with_cuts([0.3001, 0.61])
    sets = [(0.0, 1 / 3), (0.1, 0.55), (0.5, 1.0), (0.05, 0.61), (0.3001, 0.61),
            (0.2, 0.2)]
    for t in (0, 3):
        assert strong_regularities(grid, sets, ALPHA, t) == [
            strong_regularities(grid, [s], ALPHA, t)[0] for s in sets]

# -- the array kernel against the scalar greedy loop --------------------------------


def _scalar_run(grid, k, lo, hi):
    """Contained run of one piece, as the scalar rule computed it."""
    n = grid.n_cells(k)
    if grid.cuts and k == grid.max_level:
        edges = list(grid.edges(k))
        tol = CONTAIN_TOL * grid.width(k)
        i0 = bisect.bisect_left(edges, lo - tol)
        i1 = bisect.bisect_right(edges, hi + tol) - 1
    else:
        i0 = int(math.ceil(lo * n - CONTAIN_TOL))
        i1 = int(math.floor(hi * n + CONTAIN_TOL))
    return max(i0, 0), min(i1, n)


def _scalar_decompose(grid, target, alpha, K):
    """The greedy loop one residual piece at a time: families, k0, c_dom, defect."""
    families, residual, k0 = {}, list(target), None
    for k in range(K + 1):
        new_cells, next_residual = [], []
        for lo, hi in residual:
            i0, i1 = _scalar_run(grid, k, lo, hi)
            if i1 <= i0:
                next_residual.append((lo, hi))
                continue
            new_cells.extend(CellId(k, j) for j in range(i0, i1))
            e0, e1 = (float(grid.edges(k)[i]) if grid.is_cut(k) else i * grid.width(k)
                      for i in (i0, i1))
            if e0 - lo > 1e-15:
                next_residual.append((lo, e0))
            if hi - e1 > 1e-15:
                next_residual.append((e1, hi))
        if new_cells:
            families[k] = new_cells
            if k0 is None:
                k0 = k
        residual = next_residual
        if not residual:
            break
    lam = grid.arity ** (-alpha)
    c_dom = 0.0
    for k, cells in families.items():
        level_sum = sum(grid.measure(c) ** alpha for c in cells)
        c_dom = max(c_dom, level_sum / (lam ** (k - k0) * sum(b - a for a, b in target) ** alpha))
    return families, k0, c_dom, normalize(residual)


def _awkward_pieces(grid, rng):
    """Pieces on edges, 1e-13 and 1e-16 widths off them, slivers, empty
    pieces and pieces reaching past 1."""
    K = grid.max_level
    out = []
    for _ in range(40):
        k = int(rng.integers(0, K + 1))
        n = grid.n_cells(k)
        i, j = np.sort(rng.integers(0, n + 1, size=2))
        a, b = float(grid.edges(k)[i]), float(grid.edges(k)[j])
        w = grid.width(K)
        for da, db in ((0, 0), (1e-13, -1e-13), (-1e-13, 1e-13), (1e-16, -1e-16),
                       (-1e-16, 1e-16), (1e-13 * w, 0), (0, -1e-16 * w)):
            out.append((a + da, b + db))
        x = float(rng.uniform(0, 1))
        out += [(x, x + 0.3 * w), (x, x), (x, x + 1e-16), (x, 1.0 + x),
                tuple(np.sort(rng.uniform(0, 1, 2)))]
    return out


@pytest.mark.parametrize("grid", [build_grid(2, 6), build_grid(3, 4), build_grid(8, 4),
                                  build_grid(2, 7).with_cuts([0.3001, 1 / 1.618033988749895]),
                                  build_grid(3, 5).with_cuts([0.0881, 0.61]),
                                  build_grid(3, 13)],
                         ids=["dyadic", "triadic", "octal", "cut-dyadic", "cut-triadic",
                              "deepest-triadic"])
def test_cover_equals_the_scalar_greedy_loop(grid):
    rng = np.random.default_rng(29)
    pieces = _awkward_pieces(grid, rng)
    for depth in (grid.max_level - 2, grid.max_level):
        for alpha in (0.2, 1.0):
            targets = [normalize([p]) for p in pieces]
            targets = [t for t in targets if t]
            lo, hi = np.array([t[0] for t in targets]).T
            cov = cover(grid, lo, hi, depth)
            c_doms = domains.c_dom(grid, cov, lo, hi, alpha)
            for i, target in enumerate(targets):
                families, k0, c_dom, defect = _scalar_decompose(grid, target, alpha, depth)
                mine = cov.piece == i
                got = {}
                for k, j in zip(cov.level[mine].tolist(), cov.index[mine].tolist()):
                    got.setdefault(k, []).append(CellId(k, j))
                assert got == families
                assert list(got) == list(families)
                assert cov.k0[i] == (-1 if k0 is None else k0)
                assert c_doms[i] == c_dom
                left = cov.defect_piece == i
                assert list(zip(cov.defect_lo[left].tolist(),
                                cov.defect_hi[left].tolist())) == defect


def test_decompose_of_an_interval_equals_the_scalar_greedy_loop():
    rng = np.random.default_rng(31)
    for grid in (build_grid(2, 8), build_grid(3, 5).with_cuts([0.0881])):
        for _ in range(20):
            lo, hi = np.sort(rng.uniform(0, 1, 2)).tolist()
            if hi - lo < 2 * grid.width_range(grid.max_level)[1]:
                continue      # decompose gives a cell-free sliver k0 = K, the loop none
            dec = decompose(grid, (lo, hi), ALPHA, defect_cap=math.inf)
            families, k0, c_dom, defect = _scalar_decompose(grid, [(lo, hi)], ALPHA,
                                                            grid.max_level)
            assert (dec.families, dec.k0, dec.c_dom, dec.defect_pieces) == \
                (families, k0, c_dom, defect)


def test_cover_refuses_a_depth_past_the_grid():
    grid = build_grid(3, 5).with_cuts([0.0881])
    cover(grid, [0.1], [0.2], grid.max_level)
    with pytest.raises(ValueError):
        cover(grid, [0.1], [0.2], grid.max_level + 1)


def test_cover_reads_one_table_of_contained_runs(monkeypatch):
    grid = build_grid(2, 7).with_cuts([0.3001, 1 / 1.618033988749895])
    calls = []
    runs = Grid.contained_runs

    def counted(self, *args):
        calls.append(args[0])
        return runs(self, *args)

    monkeypatch.setattr(Grid, "contained_runs", counted)
    pieces = _awkward_pieces(grid, np.random.default_rng(41))
    lo, hi = np.array([p for p in pieces if p[1] > p[0]]).T
    for depth in (0, grid.max_level - 2, grid.max_level):
        calls.clear()
        domains.c_dom(grid, cover(grid, lo, hi, depth), lo, hi, 0.5)
        assert len(calls) == 1


def test_containment_levels_past_int64_cell_counts():
    # 8**22 cells do not fit an int64: the containment levels of the
    # ledger probes are found on such levels exactly as the scalar rule
    # finds them, while cover refuses to index their cells
    grid = build_grid(8, 6)
    rng = np.random.default_rng(37)
    # pieces near 0, where floats resolve cells of 8**-22
    lo = rng.uniform(0, 1, 300) * 10.0 ** -rng.integers(0, 19, 300)
    hi = lo + 10.0 ** -rng.uniform(1, 21, lo.size)
    runs = [[_scalar_run(grid, k, a, b) for k in range(23)]
            for a, b in zip(lo.tolist(), hi.tolist())]
    want = [next((k for k, (i0, i1) in enumerate(r) if i1 > i0), -1) for r in runs]
    assert max(want) > 20
    assert grid.containment_levels(lo, hi, 22).tolist() == want
    with pytest.raises(ValueError):
        cover(grid, [0.1], [0.2], 22)
