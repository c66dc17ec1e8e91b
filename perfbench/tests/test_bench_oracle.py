"""The benchmark's reference computations on cases checked by hand."""

import math

import numpy as np
import pytest

import oracle


def test_depth_counts_closed_balls():
    centers = [(0.0, 0.0), (2.0, 0.0), (0.5, 0.5)]
    weights = [1.5, 2.0, 0.25]
    # (1, 0) is on the boundary of the first two disks and inside the third.
    assert oracle.depth_at((1.0, 0.0), centers, weights) == 3.75
    assert oracle.depth_at((3.5, 0.0), centers, weights) == 0.0


def test_colors_count_distinct_labels():
    centers = [(0.0, 0.0), (0.1, 0.0), (0.2, 0.0), (5.0, 5.0)]
    assert oracle.colors_at((0.0, 0.0), centers, [3, 3, 4, 5]) == 2


def test_candidates_include_centres_and_crossings():
    cand = oracle.disk_candidates([(0.0, 0.0), (1.0, 0.0), (9.0, 9.0)])
    # Circles around (0,0) and (1,0) cross at (1/2, +-sqrt(3)/2).
    h = math.sqrt(3.0) / 2.0
    assert len(cand) == 3 + 2
    assert np.allclose(sorted(cand[3:, 1].tolist()), [-h, h])
    assert np.allclose(cand[3:, 0], 0.5)


def test_max_weighted_two_lenses():
    # Three disks pairwise closer than 2 share a point; the far pair
    # only overlaps itself.
    centers = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.8), (10.0, 0.0), (11.5, 0.0)]
    weights = [1.0, 1.0, 1.0, 2.0, 2.0]
    assert oracle.max_weighted_2d(centers, weights) == 4.0
    weights[3] = 0.5
    assert oracle.max_weighted_2d(centers, weights) == 3.0


def test_max_weighted_needs_a_crossing():
    # Centres 1.9 apart: neither centre lies in the other disk, so only the
    # crossing candidates see both.
    assert oracle.max_weighted_2d([(0.0, 0.0), (1.9, 0.0)], [1.0, 1.0]) == 2.0
    assert oracle.max_weighted_2d([(0.0, 0.0), (2.1, 0.0)], [1.0, 1.0]) == 1.0


def test_max_colored_counts_each_colour_once():
    centers = [(0.0, 0.0), (0.3, 0.0), (0.6, 0.0), (5.0, 0.0), (5.5, 0.0)]
    assert oracle.max_colored_2d(centers, [1, 1, 2, 3, 4]) == 2
    assert oracle.max_colored_2d(centers, [1, 2, 3, 4, 4]) == 3


def test_minplus_table():
    a = [3, 1, 4]
    b = [1, 5, 9]
    # C0 = 3+1, C1 = min(3+5, 1+1), C2 = min(3+9, 1+5, 4+1)
    assert oracle.minplus(a, b).tolist() == [4.0, 2.0, 5.0]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("colored", [False, True])
def test_planted_optimum_by_construction(d, colored):
    rng = np.random.default_rng(7)
    centers, labels, k, p = oracle.planted(rng, d, 6, 30, colored)
    assert len(centers) == 36 and k == 6
    assert oracle.depth_at(p, centers[:k], np.ones(k)) == k
    if colored:
        assert sorted(labels[:k]) == list(range(1, k + 1))
    # No decoy overlaps another ball, so no point is in two balls unless
    # both are cluster balls.
    dist = np.linalg.norm(centers[:, None] - centers[None], axis=2)
    decoy = np.arange(len(centers)) >= k
    overlap = (dist <= 2.0) & ~np.eye(len(centers), dtype=bool)
    assert not (overlap & decoy[:, None]).any()
    if d == 2:
        if colored:
            assert oracle.max_colored_2d(centers, labels) == k
        else:
            assert oracle.max_weighted_2d(centers, labels) == k
