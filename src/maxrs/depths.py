"""Batched depth and mass queries against a fixed set of ball centers.

Everything here is brute force by design: distances from query points to all
centers, vectorized and chunked. At the instance sizes this package targets
(thousands of balls), that outruns any spatial index, and it doubles as the
trusted evaluation layer the solvers' pruning bounds are checked against.

Centers are deduplicated first (dedupe_centers, color_groups), so
degenerate inputs (many balls stacked on one center) cost one distance row
instead of n.  Callers that query one center set many times, such as the
sample solver's evaluators, deduplicate once and call the `_u` kernels and
mass_within_box, which take centers as given.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dedupe_centers",
    "color_groups",
    "weighted_depths",
    "weighted_depths_u",
    "colored_depths",
    "colored_depths_u",
    "mass_within_box",
    "colors_within_box_u",
]

# Rows of query points processed per distance block; bounds peak memory.
_CHUNK = 4096


def dedupe_centers(centers: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unique center rows with summed weights (bitwise equality on coordinates)."""
    centers = np.asarray(centers, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    uniq, inverse = np.unique(centers, axis=0, return_inverse=True)
    sums = np.zeros(len(uniq))
    np.add.at(sums, inverse.ravel(), weights)
    return uniq, sums


def _dist2_block(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def weighted_depths_u(points: np.ndarray, uniq: np.ndarray, sums: np.ndarray, radius2: float = 1.0) -> np.ndarray:
    """weighted_depths against centers already deduplicated by dedupe_centers."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(uniq) == 0:
        return np.zeros(len(pts))
    out = np.empty(len(pts))
    for i in range(0, len(pts), _CHUNK):
        block = _dist2_block(pts[i : i + _CHUNK], uniq)
        out[i : i + _CHUNK] = (block <= radius2) @ sums
    return out


def weighted_depths(points, centers, weights, radius2: float = 1.0) -> np.ndarray:
    """Sum of weights of closed balls (squared radius radius2) containing each point."""
    if len(centers) == 0:
        return np.zeros(len(np.atleast_2d(np.asarray(points, dtype=np.float64))))
    uniq, sums = dedupe_centers(centers, weights)
    return weighted_depths_u(points, uniq, sums, radius2)


def color_groups(centers, colors) -> tuple[np.ndarray, np.ndarray]:
    """Unique (center, color) pairs sorted by color, plus color group starts."""
    centers = np.asarray(centers, dtype=np.float64)
    colors = np.asarray(colors, dtype=np.int64)
    pairs = np.column_stack([colors.astype(np.float64), centers])
    uniq = np.unique(pairs, axis=0)
    ucolors = uniq[:, 0].astype(np.int64)
    ucenters = uniq[:, 1:]
    starts = np.flatnonzero(np.concatenate([[True], ucolors[1:] != ucolors[:-1]]))
    return ucenters, starts


def colored_depths_u(points, ucenters: np.ndarray, starts: np.ndarray, radius2: float = 1.0) -> np.ndarray:
    """colored_depths against color_groups output."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(ucenters) == 0:
        return np.zeros(len(pts), dtype=np.int64)
    out = np.empty(len(pts), dtype=np.int64)
    for i in range(0, len(pts), _CHUNK):
        mask = _dist2_block(pts[i : i + _CHUNK], ucenters) <= radius2
        per_color = np.maximum.reduceat(mask, starts, axis=1)
        out[i : i + _CHUNK] = per_color.sum(axis=1)
    return out


def colored_depths(points, centers, colors, radius2: float = 1.0) -> np.ndarray:
    """Number of distinct colors with a containing closed ball, per point."""
    if len(centers) == 0:
        return np.zeros(len(np.atleast_2d(np.asarray(points, dtype=np.float64))), dtype=np.int64)
    ucenters, starts = color_groups(centers, colors)
    return colored_depths_u(points, ucenters, starts, radius2)


def _box_gap2(lo: np.ndarray, side: float, centers: np.ndarray) -> np.ndarray:
    hi = lo + side
    gap = np.maximum(np.maximum(lo[:, None, :] - centers[None, :, :], centers[None, :, :] - hi[:, None, :]), 0.0)
    return np.einsum("ijk,ijk->ij", gap, gap)


def mass_within_box(lo, side: float, centers, weights, radius: float) -> np.ndarray:
    """Total weight of centers within `radius` of each closed box [lo, lo+side].

    Centers are taken as given; pass dedupe_centers output to pay one
    distance row per distinct center."""
    lo = np.atleast_2d(np.asarray(lo, dtype=np.float64))
    if len(centers) == 0:
        return np.zeros(len(lo))
    centers = np.asarray(centers, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    out = np.empty(len(lo))
    r2 = radius * radius
    for i in range(0, len(lo), _CHUNK):
        out[i : i + _CHUNK] = (_box_gap2(lo[i : i + _CHUNK], side, centers) <= r2) @ weights
    return out


def colors_within_box_u(lo, side: float, ucenters: np.ndarray, starts: np.ndarray, radius: float) -> np.ndarray:
    """Distinct colors with a center within `radius` of each closed box,
    against color_groups output."""
    lo = np.atleast_2d(np.asarray(lo, dtype=np.float64))
    if len(ucenters) == 0:
        return np.zeros(len(lo), dtype=np.int64)
    out = np.empty(len(lo), dtype=np.int64)
    r2 = radius * radius
    for i in range(0, len(lo), _CHUNK):
        mask = _box_gap2(lo[i : i + _CHUNK], side, ucenters) <= r2
        out[i : i + _CHUNK] = np.maximum.reduceat(mask, starts, axis=1).sum(axis=1)
    return out
