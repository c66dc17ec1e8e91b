"""Vectorized depth/mass kernels against the direct-scan oracles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from maxrs import depths as dp
from maxrs.oracles import brute_colored_depth, brute_depth


def test_boundary_points_count_as_inside():
    centers = np.array([[1.0, 0.0]])
    weights = np.array([2.5])
    # squared distance from the origin is exactly 1.0
    assert dp.weighted_depths([(0.0, 0.0)], centers, weights)[0] == 2.5
    assert dp.colored_depths([(0.0, 0.0)], centers, np.array([3]))[0] == 1
    # so does the box [-0.5, 0] x [-0.25, 0.25]
    lo = np.array([[-0.5, -0.25]])
    assert dp.mass_within_box(lo, 0.5, centers, weights, 1.0)[0] == 2.5
    assert dp.colors_within_box_u(lo, 0.5, centers, np.array([0]), 1.0)[0] == 1


def test_weighted_depths_match_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        d = int(rng.integers(1, 4))
        centers = rng.uniform(-2, 2, size=(n, d))
        weights = rng.integers(1, 9, size=n) / 4.0
        pts = rng.uniform(-2.5, 2.5, size=(30, d))
        got = dp.weighted_depths(pts, centers, weights)
        for p, v in zip(pts, got):
            assert v == brute_depth(p, centers, weights)


def test_colored_depths_match_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 50))
        centers = rng.uniform(-2, 2, size=(n, 2))
        colors = rng.integers(0, 6, size=n)
        pts = rng.uniform(-2.5, 2.5, size=(30, 2))
        got = dp.colored_depths(pts, centers, colors)
        for p, v in zip(pts, got):
            assert int(v) == brute_colored_depth(p, centers, colors)


def test_mass_within_matches_direct_scan():
    # Radii other than 1: total weight within 1.3 of each point.
    rng = np.random.default_rng(5)
    centers = rng.uniform(-2, 2, size=(30, 2))
    weights = rng.integers(1, 9, size=30) / 8.0
    pts = rng.uniform(-2, 2, size=(20, 2))
    got = dp.weighted_depths(pts, centers, weights, radius2=1.3 * 1.3)
    for p, v in zip(pts, got):
        diff = centers - p
        near = np.einsum("ij,ij->i", diff, diff) <= 1.3 * 1.3
        assert v == float(weights[near].sum())


def test_colors_within_counts_distinct():
    # Repeated colors are counted once, at radius 1 and at other radii.
    centers = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [5.0, 5.0], [1.4, 0.0]])
    colors = np.array([1, 1, 2, 3, 4])
    assert dp.colored_depths([(0.0, 0.0)], centers[:4], colors[:4])[0] == 2
    assert dp.colored_depths([(0.0, 0.0)], centers, colors, radius2=1.5 * 1.5)[0] == 3


def test_dedupe_merges_exact_duplicates():
    centers = np.array([[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]])
    weights = np.array([1.0, 0.5, 0.25])
    uniq, sums = dp.dedupe_centers(centers, weights)
    assert len(uniq) == 2
    row = {tuple(u): s for u, s in zip(uniq, sums)}
    assert row[(0.0, 0.0)] == 1.25
    assert row[(1.0, 2.0)] == 0.5


def test_dedupe_orders_canonically():
    centers = np.array([[3.0, 1.0], [-1.0, 0.0], [3.0, 0.5]])
    weights = np.ones(3)
    uniq, _ = dp.dedupe_centers(centers, weights)
    as_tuples = [tuple(u) for u in uniq]
    assert as_tuples == sorted(as_tuples)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_depth_of_duplicated_input_is_doubled(seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2, 2, size=(8, 2))
    weights = rng.integers(1, 5, size=8).astype(np.float64)
    pts = rng.uniform(-2, 2, size=(6, 2))
    once = dp.weighted_depths(pts, centers, weights)
    twice = dp.weighted_depths(
        pts, np.concatenate([centers, centers]), np.concatenate([weights, weights])
    )
    assert np.array_equal(twice, 2.0 * once)


def test_box_mass_is_an_upper_bound_for_inside_points():
    rng = np.random.default_rng(6)
    centers = rng.uniform(-2, 2, size=(25, 2))
    weights = rng.integers(1, 9, size=25) / 8.0
    side = 0.4
    for _ in range(20):
        lo = rng.uniform(-2, 2, size=2)
        box_mass = float(dp.mass_within_box(lo, side, centers, weights, radius=1.0)[0])
        # any point of the box must see depth at most the box mass
        p = lo + rng.uniform(0, side, size=2)
        assert dp.weighted_depths([p], centers, weights)[0] <= box_mass + 1e-12


def test_box_mass_matches_direct_gap_computation():
    rng = np.random.default_rng(7)
    centers = rng.uniform(-2, 2, size=(25, 2))
    # repeated rows: mass_within_box takes centers as given
    centers = np.vstack([centers, centers[:5]])
    weights = rng.integers(1, 9, size=30) / 8.0
    colors = rng.integers(0, 5, size=30)
    side = 0.7
    for _ in range(15):
        lo = rng.uniform(-2.5, 2.5, size=2)
        gap = np.maximum(np.maximum(lo - centers, centers - (lo + side)), 0.0)
        near = np.einsum("ij,ij->i", gap, gap) <= 1.0
        assert dp.mass_within_box(lo, side, centers, weights, 1.0)[0] == float(
            weights[near].sum()
        )
        ucenters, starts = dp.color_groups(centers, colors)
        assert dp.colors_within_box_u(lo, side, ucenters, starts, 1.0)[0] == len(
            set(colors[near].tolist())
        )
