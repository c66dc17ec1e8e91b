"""Instance generators and reference implementations shared across the test
modules."""

import numpy as np

from maxrs import depths as dp
from maxrs.balls import ColoredBall, WeightedBall
from maxrs.geometry import CellKey, cell_stream_keys, sphere_samples_keyed, universe_with_support
from maxrs.sample_solver import SolveOutcome, grid_for


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


def enumeration_edge_centers(rng, gc, n):
    """Inputs that sit on the float edges of cell enumeration, as
    (kind, centers) pairs of n centers each for grid family gc:
    centers on multiples of the cell side; centers at distance exactly 1
    from a face of a grid-0 box (plus random ones); centers offset by 1e6."""
    d, s = gc.d, gc.cell_side
    lattice = rng.integers(-6, 7, size=(n, d)) * s
    face = []
    for z in range(-8, 9):
        # box_dist2's gap to the grid-0 box [0 + z*s, that + s]; keep the
        # shifted centers whose float gap is exactly 1.
        lo = 0.0 + z * s
        hi = lo + s
        for c0 in (hi + 1.0, lo - 1.0):
            if max(lo - c0, c0 - hi) == 1.0:
                c = np.full(d, lo + 0.5 * s)
                c[0] = c0
                face.append(c)
    assert face, "no exactly representable face distance found"
    face = np.vstack([np.array(face[: n // 2]), rng.uniform(-2.0, 2.0, size=(n - min(len(face), n // 2), d))])
    offset = 1e6 + rng.uniform(-2.0, 2.0, size=(n, d))
    return [("lattice", lattice), ("face", face), ("offset", offset)]


def universe_best(centers, depth_of, d, eps, t, seed, salt=0):
    """Reference winner of the grid-sample solvers: score every sample of
    every universe cell with `depth_of` (points -> depths) and keep the
    first of the deepest by (grid, lattice, sample index).  Universe rows
    come grid-major, lattice-lexicographic, so the first row holding the
    maximum wins."""
    gc = grid_for(d, eps)
    gs, zs, _ = universe_with_support(gc, centers)
    cell_centers = gc.offsets[gs] + (zs + 0.5) * gc.cell_side
    keys = cell_stream_keys(seed, salt, gs, zs)
    pts = sphere_samples_keyed(cell_centers, gc.circumradius, t, keys)
    dep = np.asarray(depth_of(pts.reshape(-1, d)), dtype=np.float64).reshape(len(gs), t)
    best = dep.max()
    row = int(np.flatnonzero(dep.max(axis=1) == best)[0])
    samp = int(np.argmax(dep[row] == best))
    return SolveOutcome(
        point=tuple(float(v) for v in pts[row, samp]),
        value=float(best),
        cell=CellKey(int(gs[row]), tuple(int(v) for v in zs[row])),
        sample_index=samp,
    )


def weighted_universe_best(centers, weights, d, eps, t, seed, salt=0):
    return universe_best(centers, lambda p: dp.weighted_depths(p, centers, weights), d, eps, t, seed, salt)


def colored_universe_best(centers, colors, d, eps, t, seed, salt=0):
    return universe_best(centers, lambda p: dp.colored_depths(p, centers, colors), d, eps, t, seed, salt)


def colored_depth_flagged(point, centers, colors) -> int:
    """Distinct covering colors of one point, counted one ball at a time with
    a seen-flag per color: a reference for the vectorized colored depths."""
    point = np.asarray(point, dtype=np.float64)
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    seen: set[int] = set()
    count = 0
    for c, color in zip(centers, colors):
        if int(color) in seen:
            continue
        diff = c - point
        if float(diff @ diff) <= 1.0:
            seen.add(int(color))
            count += 1
    return count
