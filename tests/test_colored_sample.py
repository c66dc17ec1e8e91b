"""Distinct-color depth sampling solver."""

import numpy as np
import pytest

from maxrs import depths as dp
from maxrs.balls import ColoredBall
from maxrs.colored_sample import colored_solve
from maxrs.sample_solver import samples_per_cell

from helpers import colored_arrays, colored_depth_flagged, colored_universe_best, random_colored


def test_flagged_reference_matches_vectorized():
    rng = np.random.default_rng(30)
    centers = rng.uniform(-2, 2, size=(40, 2))
    colors = rng.integers(0, 6, size=40)
    pts = rng.uniform(-2, 2, size=(25, 2))
    vec = dp.colored_depths(pts, centers, colors)
    for p, v in zip(pts, vec):
        assert colored_depth_flagged(p, centers, colors) == v


def test_flagged_counts_each_color_once():
    centers = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [5.0, 5.0]])
    colors = [2, 2, 7, 7]
    assert colored_depth_flagged([0.05, 0.0], centers, colors) == 2
    assert colored_depth_flagged([5.0, 5.0], centers, colors) == 1
    assert colored_depth_flagged([50.0, 50.0], centers, colors) == 0


def test_solve_value_is_color_count_at_point():
    rng = np.random.default_rng(31)
    for seed in range(4):
        balls = random_colored(rng, 30, 5)
        out = colored_solve(balls, 2, 0.3, c_sample=0.5, seed=seed)
        assert out is not None
        centers, colors = colored_arrays(balls)
        assert out.value == colored_depth_flagged(out.point, centers, colors)


def test_solve_finds_full_cluster():
    # All k colors overlap near the origin; far decoys repeat one color.
    k = 6
    balls = [ColoredBall((0.02 * i, -0.01 * i), i + 1, id=i) for i in range(k)]
    balls += [ColoredBall((8.0 + i, 8.0), 1, id=100 + i) for i in range(4)]
    out = colored_solve(balls, 2, 0.3, c_sample=1.0)
    assert out is not None
    assert out.value == float(k)


def test_input_order_is_irrelevant():
    rng = np.random.default_rng(32)
    balls = random_colored(rng, 25, 4)
    out = colored_solve(balls, 2, 0.3, c_sample=0.5, seed=1)
    shuffled = list(balls)
    rng.shuffle(shuffled)
    assert colored_solve(shuffled, 2, 0.3, c_sample=0.5, seed=1) == out


def test_solve_matches_universe_reference():
    rng = np.random.default_rng(33)
    t = samples_per_cell(0.5, 0.3, 22)
    for seed in range(3):
        balls = random_colored(rng, 22, 5)
        centers, colors = colored_arrays(balls)
        out = colored_solve(balls, 2, 0.3, c_sample=0.5, seed=seed)
        assert out == colored_universe_best(centers, colors, 2, 0.3, t, seed)


def test_empty_and_mismatched_inputs():
    assert colored_solve([], 2, 0.3) is None
    with pytest.raises(ValueError):
        colored_solve([ColoredBall((0.0, 0.0, 0.0), 1)], 2, 0.3)
