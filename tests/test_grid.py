"""Grid construction, axiom validation and minimal-containment level."""

import numpy as np
import pytest

from besovtransfer.errors import CapacityError
from besovtransfer.grid import CellId, Grid, build_grid, validate_grid


def brute_force_k0(grid, pieces):
    """Exhaustive containment scan over all cells, level by level."""
    if isinstance(pieces, tuple):
        pieces = [pieces]
    for k in range(grid.max_level + 1):
        for j in range(grid.n_cells(k)):
            lo, hi = grid.interval(CellId(k, j))
            if any(lo >= a - 1e-12 and hi <= b + 1e-12 for a, b in pieces):
                return k
    return None


def test_build_dyadic_depth3():
    g = build_grid(2, 3)
    assert [g.n_cells(k) for k in range(4)] == [1, 2, 4, 8]
    assert g.measure(CellId(3, 5)) == pytest.approx(1 / 8, abs=0)


def test_build_depth1_constants():
    g = build_grid(2, 1)
    assert g.c_g1 == g.c_g2 == 0.5


def test_triadic_indexing():
    g = build_grid(3, 2)
    lo, hi = g.interval(CellId(2, 4))
    assert lo == pytest.approx(4 / 9)
    assert hi == pytest.approx(5 / 9)
    assert g.parent(CellId(2, 4)) == CellId(1, 1)


def test_cell_budget():
    with pytest.raises(CapacityError):
        build_grid(2, 40)


def test_validate_uniform_dyadic():
    g = build_grid(2, 4)
    rep = validate_grid(g)
    assert rep.all_pass
    assert rep.overlap_bound == 1
    assert rep.measure_sum_dev <= 1e-12
    # bottom cells cut at 0.3 and 0.7: the children of [1/4, 3/8) and
    # [5/8, 3/4) meet there, at ratios 0.4 and 0.6 of their parents
    cut = g.with_cuts([0.3, 0.7])
    assert cut.interval(CellId(4, 4)) == (0.25, 0.3)
    assert cut.interval(CellId(4, 11)) == (0.7, 0.75)
    rep = validate_grid(cut)
    assert rep.all_pass
    assert rep.measure_sum_dev <= 1e-12
    assert rep.ratio_min == pytest.approx(0.4)
    assert rep.ratio_max == pytest.approx(0.6)
    assert (cut.c_g1, cut.c_g2) == (rep.ratio_min, rep.ratio_max)
    # a cut that would leave a child under half a nominal cell is not made
    assert g.with_cuts([0.26]).cuts == ()


def test_validate_deleted_cell_fails_g3():
    g = Grid(arity=2, max_level=2, missing=frozenset({CellId(2, 1)}))
    rep = validate_grid(g)
    assert not rep.g3_pass
    # removing one level-2 cell leaves 3/4 of the mass, and a gap
    assert rep.measure_sum_dev == pytest.approx(0.25)
    assert not rep.g2_pass


def test_validate_reversed_cut_fails_g1():
    # edge 3 of level 3 moved past edges 4..6: cell 2 = [1/4, 0.9) overlaps
    # cells 4, 5 and 6, and cell 3 is empty
    rep = validate_grid(Grid(2, 3, cuts=((3, 0.9),)))
    assert not rep.g1_pass
    assert rep.overlap_bound == 2
    assert rep.g2_pass and not rep.g4_pass


def test_validate_triadic_ratios():
    g = build_grid(3, 3)
    rep = validate_grid(g)
    assert rep.ratio_min == rep.ratio_max == pytest.approx(1 / 3)
    # 0.0881 lies 0.408 of the way into level-5 cell 21 and moves the
    # nearest child edge (at 1/3 of the parent) onto it
    cut = build_grid(3, 6).with_cuts([0.0881])
    frac = 0.0881 * 3 ** 5 - 21
    assert cut.interval(CellId(6, 64))[0] == 0.0881
    rep = validate_grid(cut)
    assert rep.all_pass
    assert rep.ratio_min == pytest.approx(2 / 3 - frac)
    assert rep.ratio_max == pytest.approx(frac)


def test_measure_sums_each_level():
    for arity in (2, 3):
        g = build_grid(arity, 6)
        for k in range(g.max_level + 1):
            assert abs(g.n_cells(k) * g.width(k) - 1.0) <= 1e-12


def test_k0_half_interval():
    g = build_grid(2, 8)
    assert g.containment_levels([0.0], [0.5], g.max_level).tolist() == [1]


def test_k0_middle_third_matches_scan():
    g = build_grid(2, 8)
    (got,) = g.containment_levels([1 / 3], [2 / 3], g.max_level)
    assert got == brute_force_k0(g, (1 / 3, 2 / 3))
    # no level-2 cell fits inside [1/3, 2/3]; the first hit is [3/8, 1/2)
    assert got == 3


def test_k0_of_cell_is_its_level():
    g = build_grid(2, 8)
    cells = [CellId(5, 7), CellId(0, 0), CellId(3, 4), CellId(8, 255)]
    lo, hi = np.transpose([g.interval(cell) for cell in cells])
    assert g.containment_levels(lo, hi, g.max_level).tolist() == [c.level for c in cells]


def test_k0_monotone_under_inclusion():
    g = build_grid(2, 10)
    rng = np.random.default_rng(7)
    for _ in range(30):
        a, b = np.sort(rng.uniform(0, 1, size=2))
        if b - a < 0.05:
            continue
        pad = rng.uniform(0, (b - a) / 3)
        inner = (a + pad, b - pad)
        if inner[1] - inner[0] < 1e-3:
            continue
        k_inner, k_outer = g.containment_levels([inner[0], a], [inner[1], b], g.max_level)
        assert 0 <= k_outer <= k_inner


def test_k0_not_found():
    g = build_grid(2, 4)
    assert g.containment_levels([0.1], [0.1 + 1e-3], g.max_level).tolist() == [-1]


def test_cell_string_roundtrip():
    c = CellId(7, 19)
    assert str(c) == "7:19"


# -- the interval kernel ---------------------------------------------------------

def brute_force_overlaps(grid, level, lo, hi):
    """Scan every cell of the level for its overlap with [lo, hi).

    An upper end less than 1e-12 nominal widths past a cell's left edge
    does not reach into that cell.
    """
    w = grid.width(level)
    out = []
    for j in range(grid.n_cells(level)):
        c_lo, c_hi = grid.interval(CellId(level, j))
        a, b = max(c_lo, lo), min(c_hi, hi)
        if b > a and c_lo < hi - 1e-12 * w:
            out.append((j, a, b, grid.measure(CellId(level, j))))
    return out


def _kernel_grids():
    # bottom cells of a dyadic K=10 grid cut at 1/phi, 2 - phi and 0.3001
    phi = (1 + 5 ** 0.5) / 2
    cut = build_grid(2, 10).with_cuts([1 / phi, 2 - phi, 0.3001])
    assert cut.cuts
    return [(build_grid(2, 10), 10), (build_grid(2, 10), 6), (build_grid(3, 6), 6),
            (build_grid(3, 6), 3), (cut, 10), (cut, 9)]


def _kernel_pieces(grid, level, rng):
    w = grid.width(level)
    edges = grid.edges(level)
    idx = rng.integers(2, len(edges) - 1, 12)
    inner = edges[idx]
    lo = rng.uniform(-0.05, 1.0, 40)
    hi = lo + rng.uniform(0.0, 0.2, 40)
    lo = np.concatenate([lo, inner - 0.3 * w, edges[idx - 2], inner, [0.4, 0.7, 0.5]])
    hi = np.concatenate([hi,
                         inner + 1e-13 * w,          # ends just past an edge
                         inner + 0.5e-12 * w,
                         inner + 0.3 * w,
                         [0.4, 0.2, 1.3]])           # empty, reversed, past 1
    return lo, hi


def test_overlaps_matches_brute_force():
    rng = np.random.default_rng(3)
    for grid, level in _kernel_grids():
        lo, hi = _kernel_pieces(grid, level, rng)
        piece, j, a, b, wj = grid.overlaps(level, lo, hi)
        assert np.all(np.diff(piece) >= 0)
        for i in range(lo.size):
            mine = piece == i
            got = list(zip(j[mine].tolist(), a[mine].tolist(), b[mine].tolist(),
                           wj[mine].tolist()))
            assert got == brute_force_overlaps(grid, level, lo[i], hi[i]), (level, i)


def test_overlaps_partition_each_piece():
    rng = np.random.default_rng(5)
    for grid, level in _kernel_grids():
        lo = rng.uniform(0.0, 0.9, 30)
        hi = lo + rng.uniform(0.0, 0.1, 30)
        piece, j, a, b, wj = grid.overlaps(level, lo, hi)
        lengths = np.bincount(piece, weights=b - a, minlength=lo.size)
        clipped = np.minimum(hi, 1.0) - np.maximum(lo, 0.0)
        assert np.max(np.abs(lengths - clipped)) <= 1e-12 * grid.width(level)
        assert np.all(wj == grid.widths(level)[j])


def test_overlaps_scalar_piece_and_empty_pieces():
    grid = build_grid(2, 4)
    piece, j, a, b, wj = grid.overlaps(4, 0.1, 0.3)
    assert piece.tolist() == [0, 0, 0, 0] and j.tolist() == [1, 2, 3, 4]
    assert a[0] == 0.1 and b[-1] == 0.3 and np.all(wj == 1 / 16)
    for lo, hi in ((0.3, 0.3), (0.3, 0.1), ([], [])):
        assert all(x.size == 0 for x in grid.overlaps(4, lo, hi))


def test_scalar_lookups_agree_with_one_item_arrays():
    # cut (level 10 of the cut grid) and uncut levels; points on cut edges too
    for grid, level in _kernel_grids():
        for x in (0.0, 0.3001, 2 - (1 + 5 ** 0.5) / 2, 0.5, 0.999, 1.0):
            one = np.array([x])
            assert np.ndim(grid.cell_index(level, x)) == 0
            assert grid.cell_index(level, x) == grid.cell_index(np.array([level]), one)[0]
            runs = grid.contained_runs(level, x, x + 0.05)
            assert all(np.ndim(r) == 0 for r in runs)
            assert [int(r) for r in runs] == [
                int(r[0]) for r in grid.contained_runs(np.array([level]), one, one + 0.05)]


@pytest.mark.parametrize("grid, cut", [
    (build_grid(2, 7), False),
    (build_grid(2, 7).with_cuts([0.6180339887498949]), True),
    (build_grid(3, 5), False),
    (build_grid(3, 5).with_cuts([0.0881, 0.61]), True),
], ids=["dyadic", "dyadic_cut", "triadic", "triadic_cut"])
def test_extents_of_one_cell_equal_interval_and_measure(grid, cut):
    assert bool(grid.cuts) == cut
    for k in range(grid.max_level + 1):
        for j in range(grid.n_cells(k)):
            lo, hi = grid.interval(CellId(k, j))
            want = [lo.hex(), hi.hex(), float(grid.measure(CellId(k, j))).hex()]
            for level, index, ndim in ((k, j, 0), (np.array([k]), np.array([j]), 1)):
                got = grid.extents(level, index)
                assert [np.ndim(x) for x in got] == [ndim] * 3
                assert [x.item().hex() for x in got] == want, (k, j)
