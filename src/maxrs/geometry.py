"""Shifted grid families, cell enumeration, sphere sampling, and
boundary-cap area bounds.

The solvers in this package all rest on the same trick: lay down a small family
of axis-aligned grids, shifted so that every point of space sits near the
center of some cell in some grid, and reason about samples drawn on cell
circumspheres.  This module owns that machinery (including the one way to
enumerate the cells near a ball, and the cell universe of a ball set) plus
the closed-form / integral bounds on how much of a circumsphere a nearby
unit ball covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "CellKey",
    "GridCollection",
    "make_grid_collection",
    "cell_of",
    "cells_near_ball",
    "cells_intersecting_ball",
    "universe_with_support",
    "box_dist2",
    "grid_shift_ints",
    "sphere_samples_keyed",
    "mix_key",
    "mix_keys",
    "cell_stream_key",
    "cell_stream_keys",
    "cap_fraction_2d",
    "cap_fraction_bound",
]

class CellKey(NamedTuple):
    """Identifies one cell: which shifted grid, and its integer lattice coords."""

    grid_index: int
    lattice: tuple[int, ...]


@dataclass(frozen=True)
class GridCollection:
    """A family of r^d uniform grids with cell side s, shifted by step s/r per axis.

    Offsets are chosen so that for any point p some grid has p within delta of
    the center of p's cell (the shifting lemma); the constructor rounds the
    per-axis shift count up, which only shrinks the step and preserves that
    guarantee.
    """

    d: int
    cell_side: float
    delta: float
    shifts_per_axis: int
    shift_step: float
    offsets: np.ndarray = field(repr=False)  # (n_grids, d)

    @property
    def n_grids(self) -> int:
        return self.shifts_per_axis**self.d

    @property
    def circumradius(self) -> float:
        """Radius of a cell's circumscribed sphere: s * sqrt(d) / 2."""
        return self.cell_side * math.sqrt(self.d) / 2.0


def make_grid_collection(d: int, s: float, delta: float) -> GridCollection:
    if not isinstance(d, int) or not 1 <= d <= 8:
        raise ValueError(f"dimension must be an integer in [1, 8], got {d!r}")
    if not (s > 0.0 and math.isfinite(s)):
        raise ValueError(f"cell side must be positive and finite, got {s!r}")
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    # The exact ratio s*sqrt(d)/delta is often a whole number that float error
    # nudges just below; the tiny slack keeps r from rounding one too high.
    r = math.ceil(s * math.sqrt(d) / delta - 1e-12)
    r = max(r, 1)
    step = s / r
    axis = np.arange(r, dtype=np.float64) * step
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1)
    return GridCollection(
        d=d, cell_side=s, delta=delta, shifts_per_axis=r, shift_step=step, offsets=offsets
    )


def _as_point(gc: GridCollection, p) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.shape != (gc.d,):
        raise ValueError(f"expected a point of dimension {gc.d}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


def cell_of(gc: GridCollection, grid_index: int, p) -> tuple[CellKey, np.ndarray]:
    """Cell of grid `grid_index` containing p (boxes are half-open [ks, (k+1)s))."""
    if not 0 <= grid_index < gc.n_grids:
        raise ValueError(f"grid index {grid_index} out of range [0, {gc.n_grids})")
    arr = _as_point(gc, p)
    off = gc.offsets[grid_index]
    z = np.floor((arr - off) / gc.cell_side).astype(np.int64)
    center = off + (z + 0.5) * gc.cell_side
    return CellKey(grid_index, tuple(int(v) for v in z)), center


def box_dist2(lo: np.ndarray, hi: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from point(s) c to closed boxes [lo, hi].

    All universe-membership decisions in the package go through this one
    expression so that float behavior is identical everywhere.
    """
    gap = np.maximum(np.maximum(lo - c, c - hi), 0.0)
    return np.einsum("...i,...i->...", gap, gap)


def cells_near_ball(
    gc: GridCollection, center: np.ndarray, radius: float, grids=slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """Cells of the selected grids whose closed box is within `radius` of
    center: grid indices (K,) and lattice coords (K, d), grid-major and
    lattice-lexicographic.  `grids` indexes gc.offsets (default: every grid).

    One lattice window per grid, padded by one cell per side (a box touching
    the ball at distance exactly `radius` can sit just outside the naive
    floor window), all filtered at once by box_dist2."""
    s = gc.cell_side
    gidx = np.arange(gc.n_grids, dtype=np.int64)[grids]
    offs = gc.offsets[gidx]
    lo_k = np.floor((center - radius - offs) / s).astype(np.int64) - 1
    hi_k = np.floor((center + radius - offs) / s).astype(np.int64) + 1
    width = int((hi_k - lo_k).max()) + 1
    axis = np.arange(width, dtype=np.int64)
    rel = np.stack(np.meshgrid(*([axis] * gc.d), indexing="ij"), axis=-1).reshape(-1, gc.d)
    z = lo_k[:, None, :] + rel[None, :, :]
    box_lo = offs[:, None, :] + z * s
    g_idx, cell_idx = np.nonzero(box_dist2(box_lo, box_lo + s, center) <= radius * radius)
    return gidx[g_idx], z[g_idx, cell_idx]


def cells_intersecting_ball(
    gc: GridCollection, grid_index: int, center, radius: float = 1.0
) -> list[CellKey]:
    """Exactly the cells of one grid whose closed box is within `radius` of center."""
    if not (radius > 0.0 and math.isfinite(radius)):
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    c = _as_point(gc, center)
    _, zs = cells_near_ball(gc, c, radius, [grid_index])
    return [CellKey(grid_index, tuple(row)) for row in zs.tolist()]


def universe_with_support(gc: GridCollection, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All cells (over every grid) whose closed box touches some ball, plus
    per-cell touching-ball counts.  Same predicate as cells_near_ball at
    radius 1, evaluated as one incidence table per grid; counts fall out of
    the deduplication for free.  Rows come back grid-major,
    lattice-lexicographic."""
    d, s = gc.d, gc.cell_side
    m = math.ceil(1.0 / s) + 1
    axis = np.arange(-m, m + 1, dtype=np.int64)
    W = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    gs_parts, zs_parts, ct_parts = [], [], []
    for g in range(gc.n_grids):
        off = gc.offsets[g]
        rows = []
        for i in range(0, len(centers), 8192):
            blk = centers[i : i + 8192]
            base = np.floor((blk - off) / s).astype(np.int64)
            cand = (base[:, None, :] + W[None, :, :]).reshape(-1, d)
            lo = off + cand * s
            rep = np.repeat(blk, len(W), axis=0)
            rows.append(cand[box_dist2(lo, lo + s, rep) <= 1.0])
        cand = np.concatenate(rows)
        # Deduplicate via packed 1-d keys; rows sort far faster that way.
        zmin = cand.min(axis=0)
        dims = cand.max(axis=0) - zmin + 1
        packed = np.ravel_multi_index(tuple((cand - zmin).T), tuple(dims))
        keys, ct = np.unique(packed, return_counts=True)
        z = np.stack(np.unravel_index(keys, tuple(dims)), axis=1) + zmin
        gs_parts.append(np.full(len(z), g, dtype=np.int64))
        zs_parts.append(z)
        ct_parts.append(ct)
    return np.concatenate(gs_parts), np.concatenate(zs_parts), np.concatenate(ct_parts)


def grid_shift_ints(gc: GridCollection) -> np.ndarray:
    """Integer shift indices j per grid, shape (n_grids, d): offsets = j * shift_step."""
    axis = np.arange(gc.shifts_per_axis, dtype=np.int64)
    mesh = np.meshgrid(*([axis] * gc.d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


# ---------------------------------------------------------------------------
# Sphere sampling: counter-based (splitmix64 into Box-Muller), so a cell's
# samples depend only on its key, never on the order cells are visited.  The
# grid solvers rely on that.
# ---------------------------------------------------------------------------

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    z = (x + _GOLD).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _fold_u64(parts: list[np.ndarray]) -> np.ndarray:
    """Hash equal-length uint64 arrays columnwise into one key array."""
    k = np.full_like(parts[0], 0x8000000000000000, dtype=np.uint64)
    for p in parts:
        k = _splitmix64(k ^ p)
    return k


_U64_MASK = 0xFFFFFFFFFFFFFFFF


def _as_u64(col) -> np.ndarray:
    """Integers of any sign and size as their low 64 bits, in uint64."""
    arr = np.atleast_1d(np.asarray(col))
    if arr.dtype.kind == "u":
        return arr.astype(np.uint64)
    if arr.dtype.kind == "i":
        return arr.astype(np.int64).view(np.uint64)
    flat = [int(v) & _U64_MASK for v in arr.ravel()]
    return np.array(flat, dtype=np.uint64).reshape(arr.shape)


def mix_keys(columns: Iterable) -> np.ndarray:
    """Vectorized mix_key: fold integer columns (arrays or scalars,
    broadcast against each other) elementwise into uint64 keys.  Each entry
    equals mix_key of the columns' entries at its position."""
    return _fold_u64(np.broadcast_arrays(*[_as_u64(c) for c in columns]))


def mix_key(parts: Iterable[int]) -> int:
    """Fold integers (any sign) into one 64-bit stream key."""
    return int(mix_keys([int(v) & _U64_MASK for v in parts])[0])


def cell_stream_key(master_seed: int, salt: int, grid_index: int, lattice: tuple[int, ...]) -> int:
    return mix_key((master_seed, salt, grid_index, *lattice))


def cell_stream_keys(
    master_seed: int, salt: int, grid_indices: np.ndarray, lattices: np.ndarray
) -> np.ndarray:
    """Vectorized cell_stream_key: grid_indices (K,), lattices (K, d) -> (K,) uint64.

    Bitwise identical to cell_stream_key per row; cells' sample streams depend
    only on these keys, never on evaluation order.
    """
    gs = np.atleast_1d(np.asarray(grid_indices, dtype=np.int64))
    zs = np.atleast_2d(np.asarray(lattices, dtype=np.int64))
    k = len(gs)
    cols = [
        np.full(k, int(master_seed) & _U64_MASK, dtype=np.uint64),
        np.full(k, int(salt) & _U64_MASK, dtype=np.uint64),
        gs.view(np.uint64),
    ]
    cols.extend(zs[:, ax].view(np.uint64) for ax in range(zs.shape[1]))
    return _fold_u64(cols)


def _keyed_uniforms(keys: np.ndarray, n_per_key: int) -> np.ndarray:
    """(len(keys), n_per_key) uniforms in (0, 1), deterministic per key."""
    counters = np.arange(1, n_per_key + 1, dtype=np.uint64)
    raw = _splitmix64(keys[:, None] ^ (counters[None, :] * _GOLD))
    return (raw >> np.uint64(11)).astype(np.float64) * (2.0**-53) + 2.0**-54


def _keyed_normals(keys: np.ndarray, n_per_key: int) -> np.ndarray:
    pairs = (n_per_key + 1) // 2
    u = _keyed_uniforms(keys, 2 * pairs)
    u1 = u[:, :pairs]
    u2 = u[:, pairs:]
    r = np.sqrt(-2.0 * np.log(u1))
    ang = (2.0 * math.pi) * u2
    out = np.empty((keys.size, 2 * pairs), dtype=np.float64)
    out[:, 0::2] = r * np.cos(ang)
    out[:, 1::2] = r * np.sin(ang)
    return out[:, :n_per_key]


def sphere_samples_keyed(centers: np.ndarray, radius: float, t: int, keys: np.ndarray) -> np.ndarray:
    """Per-key sphere samples: centers (C, d), keys (C,) -> samples (C, t, d)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    keys = np.asarray(keys, dtype=np.uint64).ravel()
    n_cells, d = centers.shape
    if keys.size != n_cells:
        raise ValueError("one key per center required")
    g = _keyed_normals(keys, t * d).reshape(n_cells, t, d)
    norms = np.linalg.norm(g, axis=2)
    if np.any(norms < 1e-12):
        # Probability ~0 under 53-bit uniforms; regenerate those rows shifted.
        bad = norms < 1e-12
        g2 = _keyed_normals(_splitmix64(keys), t * d).reshape(n_cells, t, d)
        g = np.where(bad[:, :, None], g2, g)
        norms = np.linalg.norm(g, axis=2)
        if np.any(norms < 1e-12):
            raise RuntimeError("degenerate keyed sample stream")
    return centers[:, None, :] + radius * (g / norms[:, :, None])


# ---------------------------------------------------------------------------
# Boundary-cap coverage bounds.
#
# Setting: a sphere of radius eps (a cell circumsphere) and a unit ball whose
# boundary passes at distance eps^2 from the sphere's center.  The fraction of
# the sphere covered by the ball is bounded below by the closed form (d = 2)
# or via the G_k integrals (d >= 3).
# ---------------------------------------------------------------------------

def cap_fraction_2d(eps: float) -> float:
    """Fraction of a radius-eps circle covered by a unit disk tangent as above."""
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps!r}")
    x = (3.0 * eps + eps**3) / (2.0 + 2.0 * eps * eps)
    return math.acos(x) / math.pi


def _simpson(f, a: float, b: float) -> float:
    m = 0.5 * (a + b)
    return (b - a) / 6.0 * (f(a) + 4.0 * f(m) + f(b))


def _adaptive_simpson(f, a: float, b: float, tol: float, whole: float, depth: int) -> float:
    m = 0.5 * (a + b)
    left = _simpson(f, a, m)
    right = _simpson(f, m, b)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(f, a, m, tol / 2.0, left, depth - 1) + _adaptive_simpson(
        f, m, b, tol / 2.0, right, depth - 1
    )


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson quadrature with absolute tolerance."""
    if a == b:
        return 0.0
    return _adaptive_simpson(f, a, b, tol, _simpson(f, a, b), 60)


def _g_integral(k: int, x: float) -> float:
    """G_k(x) = integral_0^x (1 - t^2)^((k-1)/2) dt for 0 <= x <= 1."""
    if k == 1:
        return x
    expo = (k - 1) / 2.0
    return adaptive_simpson(lambda t: (1.0 - t * t) ** expo, 0.0, x)


def cap_fraction_bound(d: int, eps: float) -> float:
    """Lower bound on the covered fraction of a radius-eps (d-1)-sphere, d >= 2."""
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must lie in (0, 0.5), got {eps!r}")
    if d == 2:
        return cap_fraction_2d(eps)
    b = (3.0 * eps * eps + eps**4) / (2.0 + 2.0 * eps * eps)
    q = b / eps
    return 0.5 - _g_integral(d - 2, q) / (2.0 * _g_integral(d - 2, 1.0))
