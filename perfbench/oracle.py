"""Reference computations the benchmark checks the program against.

Nothing here imports maxrs: depths are counted directly from distances,
optima come from enumerating a candidate set that provably contains an
optimal point, min-plus convolution is the quadratic table, and planted
instances carry their optimum by construction.

Candidate set for unit disks in the plane: an optimal placement may be any
point of the intersection of the disks covering it.  That intersection is
either one disk (all centres equal, so the centre is in it) or a convex
region with a vertex where two of its circles cross.  So the centres plus
all pairwise circle crossings contain an optimum.  Each crossing is pulled
1e-9 towards the middle of its lens so that rounding cannot put it just
outside the two disks whose circles meet there.
"""

from __future__ import annotations

import numpy as np

# Crossing points are moved this far (relative to the half-chord) into the lens.
_NUDGE = 1e-9
# Candidate points scored per distance block; bounds the oracle's memory.
_BLOCK = 2048


def depth_at(point, centers, weights) -> float:
    """Total weight of the closed unit balls that contain `point`."""
    diff = np.asarray(centers, dtype=np.float64) - np.asarray(point, dtype=np.float64)
    inside = (diff * diff).sum(axis=1) <= 1.0
    return float(np.asarray(weights, dtype=np.float64)[inside].sum())


def colors_at(point, centers, colors) -> int:
    """Number of distinct colours among the closed unit balls containing `point`."""
    diff = np.asarray(centers, dtype=np.float64) - np.asarray(point, dtype=np.float64)
    inside = (diff * diff).sum(axis=1) <= 1.0
    return len(set(np.asarray(colors)[inside].tolist()))


def disk_candidates(centers) -> np.ndarray:
    """Centres plus every pairwise unit-circle crossing, nudged into its lens."""
    c = np.asarray(centers, dtype=np.float64)
    if c.ndim != 2 or c.shape[1] != 2:
        raise ValueError("planar centres of shape (n, 2) required")
    parts = [c]
    for i0 in range(0, len(c), 256):
        a = c[i0 : i0 + 256]
        diff = c[None, :, :] - a[:, None, :]
        dist = np.hypot(diff[..., 0], diff[..., 1])
        ii, jj = np.nonzero((dist > 0.0) & (dist <= 2.0))
        keep = i0 + ii < jj
        ii, jj = ii[keep], jj[keep]
        if len(ii) == 0:
            continue
        d = diff[ii, jj]
        r = dist[ii, jj][:, None]
        mid = a[ii] + 0.5 * d
        half = np.sqrt(np.maximum(1.0 - 0.25 * r * r, 0.0))
        perp = np.stack([-d[:, 1], d[:, 0]], axis=1) / r * half
        parts.append(mid + perp * (1.0 - _NUDGE))
        parts.append(mid - perp * (1.0 - _NUDGE))
    return np.concatenate(parts)


def _bucket_windows(points: np.ndarray, centers: np.ndarray):
    """Yield (point rows, centre rows) pairs covering every point/centre pair
    at distance at most 1, using unit buckets and their 3x3 neighbourhoods."""
    pb = np.floor(points).astype(np.int64)
    cb = np.floor(centers).astype(np.int64)
    by_bucket: dict[tuple[int, int], list[int]] = {}
    for idx, (x, y) in enumerate(cb.tolist()):
        by_bucket.setdefault((x, y), []).append(idx)
    porder = np.lexsort((pb[:, 1], pb[:, 0]))
    keys, starts = np.unique(pb[porder], axis=0, return_index=True)
    ends = np.append(starts[1:], len(porder))
    for (x, y), s, e in zip(keys.tolist(), starts, ends):
        near = [
            j
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for j in by_bucket.get((x + dx, y + dy), ())
        ]
        rows = porder[s:e]
        for b0 in range(0, len(rows), _BLOCK):
            yield rows[b0 : b0 + _BLOCK], np.array(near, dtype=np.int64)


def _coverage(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - centers[None, :, :]
    return (diff * diff).sum(axis=2) <= 1.0


def max_weighted_2d(centers, weights) -> float:
    """Exact maximum total weight of unit disks over one point of the plane."""
    c = np.asarray(centers, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    cand = disk_candidates(c)
    best = 0.0
    for rows, near in _bucket_windows(cand, c):
        if len(near):
            best = max(best, float((_coverage(cand[rows], c[near]) @ w[near]).max()))
    return best


def max_colored_2d(centers, colors) -> int:
    """Exact maximum number of distinct colours of unit disks over one point."""
    c = np.asarray(centers, dtype=np.float64)
    labels, col = np.unique(np.asarray(colors), return_inverse=True)
    onehot = np.zeros((len(c), len(labels)))
    onehot[np.arange(len(c)), col.ravel()] = 1.0
    cand = disk_candidates(c)
    best = 0
    for rows, near in _bucket_windows(cand, c):
        if len(near):
            per_color = _coverage(cand[rows], c[near]) @ onehot[near]
            best = max(best, int((per_color > 0).sum(axis=1).max()))
    return best


def minplus(a, b) -> np.ndarray:
    """C_k = min over i + j = k of a_i + b_j, for k < n, from the full sum table."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = len(a)
    table = a[:, None] + b[None, :]
    k = np.add.outer(np.arange(n), np.arange(n))
    out = np.full(n, np.inf)
    np.minimum.at(out, k[k < n], table[k < n])
    return out


def planted(rng: np.random.Generator, d: int, k: int, n_decoys: int, colored: bool):
    """Unit balls whose optimum is exactly k at a random point p.

    k cluster balls have centres within 0.9 of p, so all contain p.  Decoy
    centres sit on a lattice of pitch 2.6 around p, jittered by at most 0.2
    in norm and kept at distance at least 3.2 from p.  Decoys are then more
    than 2 apart from each other and from every cluster centre, so a point
    lies in at most one decoy, and never in a decoy and a cluster ball at
    once.  With distinct colours on the cluster, both the weighted and the
    distinct-colour optimum are k.  Returns (centres, unit weights or
    colours, k, p).
    """
    p = rng.uniform(-1.0, 1.0, size=d)
    dirs = rng.normal(size=(k, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    cluster = p + dirs * (0.9 * rng.random(k) ** (1.0 / d))[:, None]
    reach = int(np.ceil((n_decoys ** (1.0 / d) + 4) / 2))
    axis = np.arange(-reach, reach + 1)
    sites = 2.6 * np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1).reshape(-1, d)
    sites = sites[np.linalg.norm(sites, axis=1) >= 3.4]
    if n_decoys > len(sites):
        raise ValueError(f"only {len(sites)} decoy sites in dimension {d}")
    pick = sites[rng.permutation(len(sites))[:n_decoys]]
    jitter = rng.uniform(-1.0, 1.0, size=(n_decoys, d)) * (0.2 / np.sqrt(d))
    decoys = p + pick + jitter
    centers = np.concatenate([cluster, decoys])
    if colored:
        labels = np.concatenate([rng.permutation(k) + 1, rng.integers(1, k + 1, n_decoys)])
    else:
        labels = np.ones(len(centers))
    return centers, labels, k, p
