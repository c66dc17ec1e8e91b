"""Exact colored-depth search: decomposition route, grid route, oracles."""

import numpy as np
import pytest

from maxrs.balls import ColoredBall
from maxrs.colored_exact import (
    _bbox_for,
    _grid_cells_with_survivors,
    _in_union_parity,
    build_decomposition,
    corner_survivors,
    decomposition_max_depth,
    exact_colored_maxrs,
    exact_colored_maxrs_arrays,
    traverse_depths,
)
from maxrs.disk_union import perturb_centers, union_arcs
from maxrs.geometry import make_grid_collection
from maxrs.oracles import brute_colored_maxrs_disks

from helpers import (
    clustered_disks,
    colored_arrays,
    colored_depth_flagged,
    hub_disks,
    random_colored,
    rosette_disks,
)


def test_single_disk():
    res = exact_colored_maxrs([ColoredBall((0.3, -0.7), 4)])
    assert res.value == 1
    p = np.array(res.point)
    assert ((p - np.array([0.3, -0.7])) ** 2).sum() <= 1.0 + 1e-6


def test_three_overlapping_colors():
    balls = [
        ColoredBall((0.0, 0.0), 1),
        ColoredBall((0.5, 0.0), 2),
        ColoredBall((0.25, 0.3), 3),
    ]
    assert exact_colored_maxrs(balls).value == 3


def test_disjoint_disks_depth_one():
    balls = [ColoredBall((0.0, 0.0), 1), ColoredBall((5.0, 0.0), 2)]
    res = exact_colored_maxrs(balls)
    assert res.value == 1
    # deepest-cell ties resolve toward the smaller witness, i.e. the left disk
    assert res.point[0] < 0.0


def test_duplicate_disks_collapse():
    balls = [ColoredBall((0.1, 0.1), 2), ColoredBall((0.1, 0.1), 2)]
    assert exact_colored_maxrs(balls).value == 1


def test_matches_brute_oracle():
    rng = np.random.default_rng(50)
    for seed in range(10):
        n = int(rng.integers(4, 26))
        m = int(rng.integers(2, 6))
        balls = random_colored(rng, n, m, extent=2.5)
        res = exact_colored_maxrs(balls)
        centers, colors = colored_arrays(balls)
        ref_value, _ = brute_colored_maxrs_disks(centers, colors)
        assert res.value == ref_value


def test_reported_point_attains_reported_value():
    # The witness may sit on a union boundary after perturbation, so score
    # it against the perturbed disks the solver actually searched.
    rng = np.random.default_rng(51)
    balls = random_colored(rng, 20, 4, extent=2.0)
    centers, colors = colored_arrays(balls)
    res = exact_colored_maxrs_arrays(centers, colors)
    assert colored_depth_flagged(res.point, perturb_centers(centers), colors) == res.value


def test_cell_depths_equal_brute_at_witnesses():
    rng = np.random.default_rng(52)
    for seed in range(3):
        balls = random_colored(rng, 10, 3, extent=1.8)
        centers, colors = colored_arrays(balls)
        centers = perturb_centers(centers)
        arcs = union_arcs(centers, colors)
        _, _, dec = decomposition_max_depth(arcs, _bbox_for(centers))
        for cell in dec.cells:
            assert cell.depth == colored_depth_flagged(cell.witness, centers, colors)


def test_bfs_and_dfs_assign_identical_depths():
    rng = np.random.default_rng(53)
    balls = random_colored(rng, 12, 4, extent=2.0)
    centers, colors = colored_arrays(balls)
    centers = perturb_centers(centers)
    arcs = union_arcs(centers, colors)
    dec = build_decomposition(arcs, _bbox_for(centers))
    traverse_depths(dec, order="bfs")
    bfs = [c.depth for c in dec.cells]
    traverse_depths(dec, order="dfs")
    assert [c.depth for c in dec.cells] == bfs
    with pytest.raises(ValueError):
        traverse_depths(dec, order="sideways")


def test_parity_membership_matches_distances():
    rng = np.random.default_rng(54)
    centers = perturb_centers(rng.uniform(-2, 2, size=(14, 2)))
    arcs = union_arcs(centers, np.ones(14, dtype=int))
    cx = np.array([a.cx for a in arcs])
    cy = np.array([a.cy for a in arcs])
    up = np.array([a.upper for a in arcs])
    xmin = np.array([a.xmin for a in arcs])
    xmax = np.array([a.xmax for a in arcs])
    # probe lattice offset by an arbitrary non-lattice shift to dodge
    # boundaries and endpoint verticals
    pts = np.stack(
        np.meshgrid(
            np.arange(-3, 3, 0.217) + 0.0913, np.arange(-3, 3, 0.217) + 0.0517
        ),
        axis=-1,
    ).reshape(-1, 2)
    got = _in_union_parity(pts, cx, cy, up, xmin, xmax)
    want = (((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2) <= 1.0).any(axis=1)
    assert np.array_equal(got, want)


def test_corner_survivors_examples():
    centers = np.array([[0.5, 1.9], [0.2, 0.2], [1.7, 1.7]])
    mask = corner_survivors(centers, (0.0, 0.0))
    # (0.5, 1.9) is 1.03 from its nearest corner; (1.7, 1.7) reaches (1, 1)
    assert mask.tolist() == [False, True, True]


def test_survivor_records_are_corner_exact():
    rng = np.random.default_rng(55)
    centers = perturb_centers(rng.uniform(-2, 2, size=(15, 2)))
    colors = rng.integers(1, 5, size=15)
    cells = _grid_cells_with_survivors(centers, colors)
    for k in range(len(cells.ub)):
        lo = (float(cells.lo[k, 0]), float(cells.lo[k, 1]))
        members = cells.disks[cells.starts[k] : cells.starts[k + 1]].tolist()
        assert members == sorted(np.flatnonzero(corner_survivors(centers, lo)).tolist())
        assert cells.ub[k] == len(set(colors[members].tolist()))


def _survivors_per_shift(centers, colors):
    """Reference: one shift at a time, rows de-duplicated by np.unique.
    Yields (shift, cells_z, ub, disks, starts, ends) per shift with a cell."""
    gc = make_grid_collection(2, 1.0, 0.25)
    neigh = np.stack(np.meshgrid([-1, 0, 1], [-1, 0, 1], indexing="ij"), axis=-1).reshape(-1, 2)
    corner_of_cell = np.stack(np.meshgrid([0, -1], [0, -1], indexing="ij"), axis=-1).reshape(-1, 2)
    for g in range(gc.n_grids):
        off = gc.offsets[g]
        base = np.floor(centers - off[None, :]).astype(np.int64)
        zq = base[:, None, :] + neigh[None, :, :]
        q = off[None, None, :] + zq
        d2 = ((q - centers[:, None, :]) ** 2).sum(axis=2)
        disk_i, corner_j = np.nonzero(d2 <= 1.0)
        if len(disk_i) == 0:
            continue
        zq_hit = zq[disk_i, corner_j]
        cell_z = zq_hit[:, None, :] + corner_of_cell[None, :, :]
        disks = np.repeat(disk_i, len(corner_of_cell))
        rows = np.concatenate([cell_z.reshape(-1, 2), disks[:, None]], axis=1)
        rows = np.unique(rows, axis=0)
        cz, cd = rows[:, :2], rows[:, 2]

        start = np.ones(len(rows), dtype=bool)
        start[1:] = np.any(cz[1:] != cz[:-1], axis=1)
        cell_id = np.cumsum(start) - 1

        pair = np.stack([cell_id, colors[cd]], axis=1)
        uniq_pair = np.unique(pair, axis=0)
        ub = np.bincount(uniq_pair[:, 0], minlength=cell_id[-1] + 1)

        starts = np.flatnonzero(start)
        ends = np.append(starts[1:], len(rows))
        yield g, cz[starts], ub, cd, starts, ends


def _assert_table_matches_reference(centers, colors):
    cells = _grid_cells_with_survivors(centers, colors)
    offsets = make_grid_collection(2, 1.0, 0.25).offsets
    assert np.array_equal(cells.lo, offsets[cells.shift] + cells.z.astype(np.float64))
    shifts_seen = []
    for g, cells_z, ub, cd, starts, ends in _survivors_per_shift(centers, colors):
        shifts_seen.append(g)
        mine = np.flatnonzero(cells.shift == g)
        assert np.array_equal(cells.z[mine], cells_z)
        assert np.array_equal(cells.ub[mine], ub)
        for k, s, e in zip(mine, starts, ends):
            assert np.array_equal(cells.disks[cells.starts[k] : cells.starts[k + 1]], cd[s:e])
    assert np.unique(cells.shift).tolist() == shifts_seen


def _survivor_instance(kind, rng):
    if kind == "clustered":
        return clustered_disks(rng)
    if kind == "rosettes":
        return rosette_disks(rng)
    if kind == "hub":
        return hub_disks(rng)
    n = int(rng.integers(1, 40))
    centers = rng.uniform(-3.0, 3.0, size=(n, 2))
    colors = rng.integers(1, 6, size=n)
    if kind == "random":
        return centers, colors
    if kind == "duplicates":
        dup = rng.integers(0, n, size=n)
        return np.vstack([centers, centers[dup]]), np.concatenate([colors, colors[dup]])
    if kind == "single":
        return centers[:1], colors[:1]
    if kind == "huge-colors":
        palette = np.array([-(2**62), 2**62, -1, 0, 2**62 - 1, -(2**62) + 1])
        return centers, palette[colors]
    if kind == "far-apart":
        # lattice coordinates near +-1e9 on both axes: packing (shift, zx,
        # zy, disk) into one int64 key would overflow here
        centers[: n // 2] += np.array([1e9, -1e9])
        centers[n // 2 :] += np.array([-1e9, 1e9])
        return centers, colors
    raise ValueError(kind)


_SURVIVOR_KINDS = (
    "clustered", "rosettes", "hub", "random", "duplicates", "single", "huge-colors", "far-apart",
)


@pytest.mark.parametrize("kind", _SURVIVOR_KINDS)
def test_survivor_table_matches_per_shift_reference(kind):
    rng = np.random.default_rng(57 + _SURVIVOR_KINDS.index(kind))
    for _ in range(30):
        centers, colors = _survivor_instance(kind, rng)
        _assert_table_matches_reference(perturb_centers(centers), colors)


def test_survivor_table_spans_blocks():
    # more disks than one block holds, so rows from several blocks merge
    rng = np.random.default_rng(58)
    centers = perturb_centers(rng.uniform(-12.0, 12.0, size=(700, 2)))
    colors = rng.integers(-3, 4, size=700)
    _assert_table_matches_reference(centers, colors)


# (kind, seed, point, value) of exact_colored_maxrs_arrays on fixed
# instances; a faster grid route must reproduce them bitwise.
_GOLDEN = [
    ("clustered", 1, (5.0, 0.0), 5),
    ("clustered", 2, (0.0, -1.0), 4),
    ("clustered", 3, (4.333333333333334, 5.0), 5),
    ("rosettes", 4, (0.00162506011052449, 0.47965937721271246), 10),
    ("rosettes", 5, (0.3021732914705213, 0.011978114953652856), 10),
    ("hub", 6, (2.0, 10.0), 32),
    ("random", 7, (1.0, -1.0), 4),
    ("duplicates", 8, (-1.0, -0.3333333333333335), 4),
    ("huge-colors", 9, (-0.4028725757657985, 1.387670414522295), 4),
    ("single", 10, (2.0, -2.0), 1),
    ("far-apart", 11, (1.0, -0.5), 3),
    ("sparse", 12, (-14.0, 9.333333333333334), 4),
]


def _golden_instance(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "clustered":
        return clustered_disks(rng)
    if kind == "rosettes":
        return rosette_disks(rng)
    if kind == "hub":
        return hub_disks(rng)
    centers = rng.uniform(-2.5, 2.5, size=(20, 2))
    colors = rng.integers(1, 5, size=20)
    if kind == "random":
        return centers, colors
    if kind == "duplicates":
        return np.vstack([centers, centers[:6]]), np.concatenate([colors, colors[:6]])
    if kind == "huge-colors":
        return centers, np.array([-(2**62), 2**62, -7, 2**62 - 1])[colors - 1]
    if kind == "single":
        return centers[:1], colors[:1]
    if kind == "far-apart":
        centers[10:] += 1e9
        return centers, colors
    if kind == "sparse":
        # enough cells that corners are scored per cell, not in one batch
        return rng.uniform(-15.0, 15.0, size=(300, 2)), rng.integers(1, 9, size=300)
    raise ValueError(kind)


@pytest.mark.parametrize("kind,seed,point,value", _GOLDEN)
def test_exact_solver_golden_results(kind, seed, point, value):
    res = exact_colored_maxrs_arrays(*_golden_instance(kind, seed))
    assert res.value == value
    assert [v.hex() for v in res.point] == [v.hex() for v in point]


def test_grid_route_equals_whole_arrangement():
    rng = np.random.default_rng(56)
    for seed in range(4):
        balls = random_colored(rng, 12, 4, extent=1.6)
        centers, colors = colored_arrays(balls)
        res = exact_colored_maxrs_arrays(centers, colors)
        pc = perturb_centers(centers)
        arcs = union_arcs(pc, colors)
        _, depth, _ = decomposition_max_depth(arcs, _bbox_for(pc))
        assert res.value == depth


def test_planted_cluster_recovered_exactly():
    from maxrs.oracles import make_planted

    for seed in (0, 1, 2):
        inst = make_planted(d=2, k=6, n_decoys=30, seed=seed, colored=True)
        res = exact_colored_maxrs(inst.colored_balls())
        assert res.value == inst.k


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        exact_colored_maxrs([])
    with pytest.raises(ValueError):
        exact_colored_maxrs_arrays(np.zeros((0, 2)), np.zeros(0, dtype=int))


def test_dimension_guard():
    with pytest.raises(ValueError):
        exact_colored_maxrs_arrays(np.zeros((2, 3)), np.array([1, 2]))


def test_arcs_must_fit_in_bbox():
    centers = np.array([[0.0, 0.0]])
    arcs = union_arcs(centers, [1])
    with pytest.raises(ValueError):
        build_decomposition(arcs, (-1.0, -4.0, 4.0, 4.0))
