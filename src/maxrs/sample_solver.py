"""Best-sample search over grid circumspheres, exact-equal to full enumeration.

The grid solvers all reduce to one computation: over every cell (of every
shifted grid) whose closed box touches at least one ball, draw t seeded
samples on the cell's circumsphere and return the deepest sample, ties going
to the lowest (grid index, lattice coords, sample index).

Materializing that cell universe (geometry.universe_with_support) explodes
at small eps, so the search runs top-down instead: balls, then coarse grid-0
"parent" boxes, then cells, each layer ordered by an admissible upper bound
on any sample depth beneath it.  A branch is skipped only when its bound
proves it cannot beat the incumbent (or can at most tie it with a larger
tie-break key), so the winner is bitwise identical to scoring every sample
of every universe cell, as the tests do on small inputs.  Depths, masses
and bounds all come from the `depths` kernels, against centers deduplicated
once per solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from maxrs import depths as dp
from maxrs.geometry import (
    CellKey,
    GridCollection,
    box_dist2,
    cell_stream_keys,
    cells_near_ball,
    grid_shift_ints,
    make_grid_collection,
    sphere_samples_keyed,
)

__all__ = [
    "SolveOutcome",
    "samples_per_cell",
    "grid_for",
    "canonical_order",
    "max_weighted_sample",
    "max_colored_sample",
]

# Slack added to enumeration radii; absorbs float drift of coordinates and
# distances, never affects the exact predicates it feeds candidates into.
PAD = 1e-9

_CELL_CHUNK = 128


def samples_per_cell(c_sample: float, eps: float, n: int) -> int:
    """t = ceil(c_sample * eps^-2 * ln(max(n, 2))); the one formula used everywhere."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps!r}")
    if c_sample <= 0:
        raise ValueError(f"c_sample must be positive, got {c_sample!r}")
    return math.ceil(c_sample * eps**-2 * math.log(max(n, 2)))


def grid_for(d: int, eps: float) -> GridCollection:
    """The solver grid family: cell side 2*eps/sqrt(d), shift target eps^2."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps!r}")
    return make_grid_collection(d, 2.0 * eps / math.sqrt(d), eps * eps)


@dataclass(frozen=True)
class SolveOutcome:
    """Winning sample of a search: its location, exact depth, and identity."""

    point: tuple[float, ...]
    value: float
    cell: CellKey
    sample_index: int


def _near_rows(cpoints: np.ndarray, point: np.ndarray, radius: float) -> np.ndarray:
    d2 = np.einsum("ij,ij->i", cpoints - point, cpoints - point)
    return d2 <= radius * radius


class _WeightedEval:
    """Weighted depth and mass over deduplicated centers (`cpoints`, `sums`),
    with an admissible-bound pad."""

    def __init__(self, cpoints: np.ndarray, sums: np.ndarray, ub_pad: float):
        self.cpoints = cpoints
        self.sums = sums
        self.ub_pad = ub_pad

    @classmethod
    def of(cls, centers: np.ndarray, weights: np.ndarray) -> "_WeightedEval":
        # Sums of dyadic weights at these magnitudes are exact in float64, so
        # upper bounds computed by summation need no safety margin; arbitrary
        # weights get one covering accumulated rounding.
        scaled = weights * 2.0**20
        if len(weights) and np.all(scaled == np.round(scaled)) and np.max(np.abs(weights), initial=0) <= 2.0**20:
            ub_pad = 0.0
        else:
            ub_pad = 1e-9 + 1e-12 * float(np.sum(np.abs(weights)))
        return cls(*dp.dedupe_centers(centers, weights), ub_pad)

    def restrict(self, point: np.ndarray, radius: float) -> "_WeightedEval":
        keep = _near_rows(self.cpoints, point, radius)
        return _WeightedEval(self.cpoints[keep], self.sums[keep], self.ub_pad)

    def mass_at(self, points: np.ndarray, radius: float) -> np.ndarray:
        return dp.weighted_depths_u(points, self.cpoints, self.sums, radius * radius)

    def mass_box(self, lo: np.ndarray, side: float, radius: float) -> np.ndarray:
        return dp.mass_within_box(lo, side, self.cpoints, self.sums, radius)

    def depth(self, points: np.ndarray) -> np.ndarray:
        return dp.weighted_depths_u(points, self.cpoints, self.sums)


class _ColoredEval:
    """Distinct-color depth and mass over color-grouped centers (`cpoints`,
    with group ids `gid`); counts are exact, so the pad is zero."""

    ub_pad = 0.0

    def __init__(self, cpoints: np.ndarray, gid: np.ndarray):
        self.cpoints = cpoints
        self.gid = gid
        self.starts = np.flatnonzero(np.diff(gid, prepend=-1))

    @classmethod
    def of(cls, centers: np.ndarray, colors: np.ndarray) -> "_ColoredEval":
        ucenters, starts = dp.color_groups(centers, colors)
        gid = np.zeros(len(ucenters), dtype=np.int64)
        gid[starts[1:]] = 1
        return cls(ucenters, np.cumsum(gid))

    def restrict(self, point: np.ndarray, radius: float) -> "_ColoredEval":
        keep = _near_rows(self.cpoints, point, radius)
        return _ColoredEval(self.cpoints[keep], self.gid[keep])

    def mass_at(self, points: np.ndarray, radius: float) -> np.ndarray:
        return dp.colored_depths_u(points, self.cpoints, self.starts, radius * radius).astype(np.float64)

    def mass_box(self, lo: np.ndarray, side: float, radius: float) -> np.ndarray:
        return dp.colors_within_box_u(lo, side, self.cpoints, self.starts, radius).astype(np.float64)

    def depth(self, points: np.ndarray) -> np.ndarray:
        return dp.colored_depths_u(points, self.cpoints, self.starts).astype(np.float64)


def _keys_less(gs: np.ndarray, zs: np.ndarray, key: tuple) -> np.ndarray:
    """Elementwise: is (gs, zs) lexicographically before the winner key tuple."""
    less = gs < key[0]
    eq = gs == key[0]
    for ax in range(zs.shape[1]):
        less = less | (eq & (zs[:, ax] < key[1 + ax]))
        eq = eq & (zs[:, ax] == key[1 + ax])
    return less


def canonical_order(gs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Sort permutation by (grid index, lattice coords lexicographically)."""
    keys = [zs[:, ax] for ax in reversed(range(zs.shape[1]))]
    keys.append(gs)
    return np.lexsort(tuple(keys))


class _Search:
    """Incumbent tracking plus chunked cell evaluation."""

    def __init__(self, gc: GridCollection, t: int, seed: int, salt: int):
        self.gc = gc
        self.rho = gc.circumradius
        self.t = t
        self.seed = seed
        self.salt = salt
        self.best = -math.inf
        self.win: SolveOutcome | None = None

    def win_key(self) -> tuple | None:
        if self.win is None:
            return None
        return (self.win.cell.grid_index, *self.win.cell.lattice)

    def keep_mask(self, ubs: np.ndarray, gs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        keep = ubs > self.best
        key = self.win_key()
        if key is not None:
            tie = ubs == self.best
            if tie.any():
                keep = keep | (tie & _keys_less(gs, zs, key))
        return keep

    def consider(self, gs: np.ndarray, zs: np.ndarray, ubs: np.ndarray, ev) -> None:
        """Evaluate cells (canonically pre-sorted) whose bound can still win."""
        gc = self.gc
        for i in range(0, len(gs), _CELL_CHUNK):
            cgs, czs = gs[i : i + _CELL_CHUNK], zs[i : i + _CELL_CHUNK]
            # Re-check the chunk: the incumbent may have improved since the
            # caller filtered.
            m = self.keep_mask(ubs[i : i + _CELL_CHUNK], cgs, czs)
            if not m.any():
                continue
            cgs, czs = cgs[m], czs[m]
            centers = gc.offsets[cgs] + (czs + 0.5) * gc.cell_side
            keys = cell_stream_keys(self.seed, self.salt, cgs, czs)
            pts = sphere_samples_keyed(centers, self.rho, self.t, keys)
            dep = ev.depth(pts.reshape(-1, gc.d)).reshape(len(cgs), self.t)
            self._update(cgs, czs, pts, dep)

    def _update(self, gs: np.ndarray, zs: np.ndarray, pts: np.ndarray, dep: np.ndarray) -> None:
        m = float(dep.max())
        if m < self.best:
            return
        row_max = dep.max(axis=1)
        hit_rows = np.flatnonzero(row_max == m)
        row = int(hit_rows[0])
        key = (int(gs[row]), *(int(v) for v in zs[row]))
        if m == self.best and self.win is not None:
            if not key < self.win_key():
                return
        samp = int(np.argmax(dep[row] == m))
        self.best = m
        self.win = SolveOutcome(
            point=tuple(float(v) for v in pts[row, samp]),
            value=m,
            cell=CellKey(key[0], key[1:]),
            sample_index=samp,
        )


def _children_of(zP: np.ndarray, jvecs: np.ndarray, r: int) -> np.ndarray:
    """Lattice coords (n_grids, d) of each grid's one cell whose center lies in
    the grid-0 cell zP, derived in exact integer arithmetic."""
    num = 2 * r * zP[None, :] - r - 2 * jvecs
    return -(-num // (2 * r))


def _solve_stream(centers: np.ndarray, ev, gc: GridCollection, t: int, seed: int, salt: int) -> SolveOutcome | None:
    rho = gc.circumradius
    s = gc.cell_side
    d = gc.d
    search = _Search(gc, t, seed, salt)
    jvecs = grid_shift_ints(gc)
    r = gc.shifts_per_axis
    off0 = gc.offsets[0]

    ball_ub = ev.mass_at(centers, 2.0 + 2.0 * rho + PAD) + ev.ub_pad
    order = np.lexsort((np.arange(len(centers)), -ball_ub))
    seen: set[tuple[int, ...]] = set()

    for bi in order:
        if ball_ub[bi] < search.best:
            break
        _, near = cells_near_ball(gc, centers[bi], 1.0 + rho + PAD, slice(1))
        fresh = []
        for i, z in enumerate(map(tuple, near.tolist())):
            if z not in seen:
                seen.add(z)
                fresh.append(i)
        if not fresh:
            continue
        zP = near[fresh]
        pub = ev.mass_box(off0 + zP * s, s, 1.0 + rho + PAD) + ev.ub_pad
        porder = np.lexsort((*(zP[:, ax] for ax in reversed(range(d))), -pub))
        for pi in porder:
            if pub[pi] < search.best:
                break
            pcenter = off0 + (zP[pi] + 0.5) * s
            local = ev.restrict(pcenter, 1.0 + 2.0 * rho + PAD)
            zs = _children_of(zP[pi], jvecs, r)
            gs = np.arange(gc.n_grids, dtype=np.int64)
            ubs = local.mass_at(gc.offsets + (zs + 0.5) * s, 1.0 + rho + PAD) + ev.ub_pad
            keep = search.keep_mask(ubs, gs, zs)
            if not keep.any():
                continue
            gs, zs, ubs = gs[keep], zs[keep], ubs[keep]
            # Exact universe membership: the closed cell box must touch a ball.
            lo = gc.offsets[gs] + zs * s
            d2 = box_dist2(lo[:, None, :], lo[:, None, :] + s, local.cpoints[None, :, :])
            nonempty = (d2 <= 1.0).any(axis=1)
            if not nonempty.any():
                continue
            gs, zs, ubs = gs[nonempty], zs[nonempty], ubs[nonempty]
            o = canonical_order(gs, zs)
            search.consider(gs[o], zs[o], ubs[o], local)
    return search.win


def _prep(centers, d: int | None):
    arr = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if arr.size == 0:
        return None
    if d is not None and arr.shape[1] != d:
        raise ValueError(f"expected dimension {d}, got {arr.shape[1]}")
    return arr


def max_weighted_sample(
    centers, weights, d: int, eps: float, c_sample: float = 4.0, seed: int = 0,
    *, salt: int = 0, t: int | None = None,
) -> SolveOutcome | None:
    """Deepest circumsphere sample by weighted depth; None on empty input."""
    arr = _prep(centers, d)
    if arr is None:
        return None
    gc = grid_for(d, eps)
    if t is None:
        t = samples_per_cell(c_sample, eps, len(arr))
    ev = _WeightedEval.of(arr, np.asarray(weights, dtype=np.float64))
    return _solve_stream(arr, ev, gc, t, seed, salt)


def max_colored_sample(
    centers, colors, d: int, eps: float, c_sample: float = 4.0, seed: int = 0,
    *, salt: int = 0, t: int | None = None,
) -> SolveOutcome | None:
    """Deepest circumsphere sample by distinct-color depth; None on empty input."""
    arr = _prep(centers, d)
    if arr is None:
        return None
    gc = grid_for(d, eps)
    if t is None:
        t = samples_per_cell(c_sample, eps, len(arr))
    ev = _ColoredEval.of(arr, np.asarray(colors, dtype=np.int64))
    return _solve_stream(arr, ev, gc, t, seed, salt)
