"""Deepest-circumsphere-sample search vs full enumeration.

The pruned stream must return the exact winner of enumerating every cell,
every sample.  Dyadic weights keep all depth sums exactly representable, so
every comparison below is bitwise.
"""

import math

import numpy as np
import pytest

from maxrs.geometry import CellKey, cell_stream_keys, sphere_samples_keyed, universe_with_support
from maxrs.oracles import make_planted
from maxrs.sample_solver import (
    SolveOutcome,
    canonical_order,
    grid_for,
    max_colored_sample,
    max_weighted_sample,
    samples_per_cell,
)

from helpers import (
    colored_universe_best,
    enumeration_edge_centers,
    random_weighted_arrays,
    weighted_universe_best,
)


def enumerate_best(centers, weights, d, eps, t, seed, salt=0):
    """Reference winner: every cell of every grid, every sample, direct sums.

    Ordering is (depth desc, grid, lattice, sample index asc).
    """
    gc = grid_for(d, eps)
    gs, zs, _ = universe_with_support(gc, centers)
    best = None
    for g, z in zip(gs, zs):
        c = gc.offsets[g] + (z + 0.5) * gc.cell_side
        key = cell_stream_keys(seed, salt, np.array([g]), z[None, :])
        pts = sphere_samples_keyed(c[None, :], gc.circumradius, t, key)[0]
        for i, p in enumerate(pts):
            depth = float(weights[((centers - p) ** 2).sum(axis=1) <= 1.0].sum())
            cand = (-depth, int(g), tuple(int(v) for v in z), i, tuple(float(v) for v in p))
            if best is None or cand < best:
                best = cand
    return best


@pytest.mark.parametrize("d", [1, 2])
def test_stream_equals_full_enumeration(d):
    rng = np.random.default_rng(100 + d)
    cases = [random_weighted_arrays(rng, 12, d, extent=2.0) for _ in range(4)]
    for _, centers in enumeration_edge_centers(rng, grid_for(d, 0.35), 10):
        cases.append((centers, rng.integers(4, 17, size=len(centers)) / 8.0))
    for centers, weights in cases:
        t = samples_per_cell(0.5, 0.35, len(centers))
        out = max_weighted_sample(centers, weights, d, 0.35, seed=3, t=t)
        ref = enumerate_best(centers, weights, d, 0.35, t, seed=3)
        assert out is not None
        assert (-out.value, out.cell.grid_index, out.cell.lattice, out.sample_index, out.point) == ref


@pytest.mark.parametrize("d", [1, 2])
def test_stream_matches_universe_reference(d):
    rng = np.random.default_rng(200 + d)
    cases = [random_weighted_arrays(rng, 20, d, extent=2.5) for _ in range(5)]
    for _, centers in enumeration_edge_centers(rng, grid_for(d, 0.3), 14):
        cases.append((centers, rng.integers(4, 17, size=len(centers)) / 8.0))
    for seed, (centers, weights) in enumerate(cases):
        a = max_weighted_sample(centers, weights, d, 0.3, c_sample=0.5, seed=seed)
        t = samples_per_cell(0.5, 0.3, len(centers))
        assert a == weighted_universe_best(centers, weights, d, 0.3, t, seed)


def test_stream_matches_universe_reference_colored():
    rng = np.random.default_rng(17)
    cases = [(rng.uniform(-2.5, 2.5, size=(18, 2)), rng.integers(0, 5, size=18)) for _ in range(4)]
    for _, centers in enumeration_edge_centers(rng, grid_for(2, 0.3), 14):
        cases.append((centers, rng.integers(0, 5, size=len(centers))))
    for seed, (centers, colors) in enumerate(cases):
        a = max_colored_sample(centers, colors, 2, 0.3, c_sample=0.5, seed=seed)
        t = samples_per_cell(0.5, 0.3, len(centers))
        assert a == colored_universe_best(centers, colors, 2, 0.3, t, seed)


def golden_instances():
    """(name, kind, centers, values, d, eps, c_sample, seed) of the pinned solves:
    random 2-d, planted 3-d, lattice-aligned and far-offset inputs."""
    out = []
    rng = np.random.default_rng(501)
    out.append(("w2-random", "w", rng.uniform(-2.5, 2.5, (20, 2)), rng.integers(4, 17, 20) / 8.0, 2, 0.3, 0.5, 0))
    rng = np.random.default_rng(502)
    out.append(("w2-random-real", "w", rng.uniform(-2.0, 2.0, (25, 2)), rng.uniform(0.5, 2.0, 25), 2, 0.25, 0.3, 1))
    rng = np.random.default_rng(503)
    out.append(("c2-random", "c", rng.uniform(-2.5, 2.5, (30, 2)), rng.integers(0, 6, 30), 2, 0.3, 0.5, 2))
    p = make_planted(3, 6, 20, seed=7)
    out.append(("w3-planted", "w", p.centers, p.weights, 3, 0.4, 0.3, 3))
    p = make_planted(3, 5, 15, seed=8, colored=True)
    out.append(("c3-planted", "c", p.centers, p.colors, 3, 0.4, 0.3, 4))
    for d, eps in [(1, 0.25), (2, 0.3)]:
        s = grid_for(d, eps).cell_side
        rng = np.random.default_rng(510 + d)
        z = rng.integers(-8, 9, (16, d)).astype(np.float64)
        out.append((f"w{d}-lattice", "w", z * s, rng.integers(4, 17, 16) / 8.0, d, eps, 0.5, 5))
        out.append((f"c{d}-lattice", "c", z * s, rng.integers(0, 4, 16), d, eps, 0.5, 6))
    rng = np.random.default_rng(520)
    out.append(("w2-offset", "w", 1e6 + rng.uniform(-2, 2, (18, 2)), rng.integers(4, 17, 18) / 8.0, 2, 0.3, 0.5, 7))
    rng = np.random.default_rng(521)
    centers = np.array([1e6, -1e6]) + rng.uniform(-2, 2, (22, 2))
    out.append(("c2-offset", "c", centers, rng.integers(0, 5, 22), 2, 0.3, 0.5, 8))
    return out


# (point, value, (grid, lattice), sample index), recorded before the solver
# was rebuilt over the shared cell window and the `depths` kernels.  The
# real-weight value is the depth summed over the balls near the winning
# parent cell, which can differ in the last bit from the full sum.
GOLDEN = {
    "w2-random": ((-1.3361854790616352, 0.3308156686416653), 8.25, (0, (-3, 0)), 9),
    "w2-random-real": ((1.1036050098783605, 0.8314426548238676), 11.862092172109147, (18, (2, 1)), 3),
    "c2-random": ((-0.7448896686146178, 1.7033075520600027), 6.0, (8, (-3, 3)), 17),
    "w3-planted": ((-0.43717129280363454, -0.26988738479455665, -0.5361067555104553), 6.0, (0, (-2, -1, -1)), 0),
    "c3-planted": ((-0.010587964700898733, -0.20796900704319263, 0.10210232448868761), 5.0, (0, (-1, -1, -1)), 2),
    "w1-lattice": ((-3.0,), 7.75, (0, (-7,)), 0),
    "c1-lattice": ((1.0,), 4.0, (0, (1,)), 0),
    "w2-lattice": ((2.9848791602141733, -2.5617646628746056), 4.75, (0, (6, -7)), 4),
    "c2-lattice": ((2.208552883530888, -1.0411447512645344), 3.0, (0, (4, -3)), 6),
    "w2-offset": ((999998.6426537972, 999998.980363903), 9.75, (0, (2357019, 2357019)), 3),
    "c2-offset": ((999998.979214855, -1000000.7562782969), 5.0, (0, (2357019, -2357025)), 1),
}


def test_sample_solver_golden_results():
    insts = golden_instances()
    assert [inst[0] for inst in insts] == list(GOLDEN)
    for name, kind, centers, values, d, eps, c_sample, seed in insts:
        solve = max_weighted_sample if kind == "w" else max_colored_sample
        point, value, (g, lattice), samp = GOLDEN[name]
        want = SolveOutcome(point=point, value=value, cell=CellKey(g, lattice), sample_index=samp)
        assert solve(centers, values, d, eps, c_sample, seed) == want, name


def test_reported_value_is_depth_at_point():
    rng = np.random.default_rng(5)
    for seed in range(5):
        centers, weights = random_weighted_arrays(rng, 25, 2, extent=3.0)
        out = max_weighted_sample(centers, weights, 2, 0.25, c_sample=0.3, seed=seed)
        assert out is not None
        p = np.array(out.point)
        assert out.value == float(weights[((centers - p) ** 2).sum(axis=1) <= 1.0].sum())


def test_reported_value_is_color_count_at_point():
    rng = np.random.default_rng(6)
    centers = rng.uniform(-2, 2, size=(30, 2))
    colors = rng.integers(0, 6, size=30)
    out = max_colored_sample(centers, colors, 2, 0.25, c_sample=0.3, seed=2)
    assert out is not None
    p = np.array(out.point)
    near = ((centers - p) ** 2).sum(axis=1) <= 1.0
    assert out.value == float(len(set(colors[near].tolist())))


def test_single_ball_yields_full_weight():
    # Some cell center lands within delta of the ball center, and that whole
    # circumsphere (radius eps) stays strictly inside the unit ball.
    for d in (1, 2, 3):
        out = max_weighted_sample(np.array([[0.37] * d]), np.array([2.5]), d, 0.3, c_sample=0.5)
        assert out is not None
        assert out.value == 2.5
        assert sum((p - 0.37) ** 2 for p in out.point) <= 1.0


def test_identical_balls_accumulate():
    centers = np.tile(np.array([[0.2, -0.4]]), (5, 1))
    weights = np.full(5, 1.25)
    out = max_weighted_sample(centers, weights, 2, 0.3, c_sample=0.5)
    assert out is not None
    assert out.value == 6.25


def test_duplicate_colors_count_once():
    centers = np.tile(np.array([[0.2, -0.4]]), (5, 1))
    out = max_colored_sample(centers, np.array([3, 3, 3, 1, 3]), 2, 0.3, c_sample=0.5)
    assert out is not None
    assert out.value == 2.0


def test_empty_input_returns_none():
    assert max_weighted_sample(np.zeros((0, 2)), np.zeros(0), 2, 0.3) is None
    assert max_colored_sample(np.zeros((0, 3)), np.zeros(0, dtype=int), 3, 0.3) is None


def test_same_arguments_reproduce_outcome():
    rng = np.random.default_rng(11)
    centers, weights = random_weighted_arrays(rng, 15, 2)
    a = max_weighted_sample(centers, weights, 2, 0.3, c_sample=0.5, seed=9)
    b = max_weighted_sample(centers, weights, 2, 0.3, c_sample=0.5, seed=9)
    assert a == b


def test_outcome_point_regenerates_from_cell_identity():
    # (seed, salt, cell, sample_index) pins down the point bit for bit.
    rng = np.random.default_rng(12)
    centers, weights = random_weighted_arrays(rng, 15, 2)
    t = samples_per_cell(0.5, 0.3, 15)
    out = max_weighted_sample(centers, weights, 2, 0.3, seed=4, salt=7, t=t)
    assert out is not None
    gc = grid_for(2, 0.3)
    g = out.cell.grid_index
    z = np.array(out.cell.lattice, dtype=np.int64)
    c = gc.offsets[g] + (z + 0.5) * gc.cell_side
    key = cell_stream_keys(4, 7, np.array([g]), z[None, :])
    pts = sphere_samples_keyed(c[None, :], gc.circumradius, t, key)[0]
    assert tuple(pts[out.sample_index]) == out.point


def test_canonical_order_matches_tuple_sort():
    rng = np.random.default_rng(13)
    gs = rng.integers(0, 4, size=60)
    zs = rng.integers(-3, 4, size=(60, 3))
    got = canonical_order(gs, zs)
    want = sorted(range(60), key=lambda i: (gs[i], *zs[i]))
    assert got.tolist() == want


def test_samples_per_cell_formula():
    assert samples_per_cell(1.0, 0.4, 0) == math.ceil(6.25 * math.log(2))
    assert samples_per_cell(4.0, 0.2, 100) == math.ceil(100 * math.log(100))
    assert samples_per_cell(0.05, 0.25, 1000) == math.ceil(0.8 * math.log(1000))


def test_parameter_validation():
    with pytest.raises(ValueError):
        samples_per_cell(4.0, 0.5, 10)
    with pytest.raises(ValueError):
        samples_per_cell(0.0, 0.2, 10)
    with pytest.raises(ValueError):
        grid_for(2, 0.0)
    with pytest.raises(ValueError):
        grid_for(2, 0.5)
    assert grid_for(3, 0.49).d == 3


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        max_weighted_sample(np.zeros((3, 2)), np.ones(3), 3, 0.3)
