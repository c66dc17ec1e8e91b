"""Instance generators shared across the test modules."""

import numpy as np

from maxrs.balls import ColoredBall, WeightedBall


def random_weighted(rng, n, d, extent=3.0, dyadic=True):
    """Weighted unit balls with centers in [-extent, extent]^d.

    Dyadic weights (multiples of 1/8) make depth sums exactly representable,
    so equality assertions against oracles need no tolerance.
    """
    centers = rng.uniform(-extent, extent, size=(n, d))
    if dyadic:
        weights = rng.integers(4, 17, size=n) / 8.0
    else:
        weights = rng.uniform(0.5, 2.0, size=n)
    return [
        WeightedBall(tuple(c), float(w), id=i)
        for i, (c, w) in enumerate(zip(centers, weights))
    ]


def random_weighted_arrays(rng, n, d, extent=3.0):
    """Center matrix plus dyadic weight vector, for the array-style solvers."""
    centers = rng.uniform(-extent, extent, size=(n, d))
    weights = rng.integers(4, 17, size=n) / 8.0
    return centers, weights


def random_colored(rng, n, m, extent=3.0, d=2):
    centers = rng.uniform(-extent, extent, size=(n, d))
    colors = rng.integers(1, m + 1, size=n)
    return [
        ColoredBall(tuple(c), int(col), id=i)
        for i, (c, col) in enumerate(zip(centers, colors))
    ]


def colored_arrays(balls):
    centers = np.array([b.center for b in balls], dtype=np.float64)
    colors = np.array([b.color for b in balls], dtype=np.int64)
    return centers, colors


def clustered_disks(rng, per_spot=6, n_colors=6):
    """Four clusters of `per_spot` disks (normal spread 0.5) on a 2 x 2 grid
    of spots 5 apart; centers plus colors 1..n_colors."""
    spots = 5.0 * np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=np.float64)
    centers = np.repeat(spots, per_spot, axis=0) + rng.normal(0.0, 0.5, size=(4 * per_spot, 2))
    return centers, rng.integers(1, n_colors + 1, size=len(centers))


def rosette_disks(rng, n_rosettes=4):
    """Rosettes 5 apart: 8 to 10 distinct-colored disks whose centers sit
    0.97 to 0.995 from a common point, sharing only a sliver around it."""
    parts, cols = [], []
    for j in range(n_rosettes):
        k = int(rng.integers(8, 11))
        p = np.array([5.0 * j, 0.0]) + rng.uniform(-0.5, 0.5, size=2)
        ang = 2.0 * np.pi * np.arange(k) / k + rng.uniform(-0.3, 0.3, size=k)
        r = rng.uniform(0.97, 0.995, size=k)
        parts.append(p + np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1))
        cols.append(1 + rng.permutation(12)[:k])
    return np.vstack(parts), np.concatenate(cols)


def hub_disks(rng):
    """Clustered disks of 32 colors plus one disk of each color packed
    around one spot clear of the clusters."""
    centers, colors = clustered_disks(rng, 5, 32)
    hub = np.array([2.5, 10.0]) + rng.uniform(-0.35, 0.35, size=(32, 2))
    return np.vstack([centers, hub]), np.concatenate([colors, 1 + rng.permutation(32)])
