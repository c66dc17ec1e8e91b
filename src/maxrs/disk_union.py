"""Union boundaries of same-colored unit disks as x-monotone circular arcs.

For each color class, every disk contributes the parts of its circle not
strictly inside any other disk of the same color.  Covered angular intervals
are computed pairwise, merged, complemented, and the leftover arcs split at
angles 0 and pi so every piece is x-monotone (an upper or lower semicircle
fragment).  Angle ranges are half-open [t0, t1).

Inputs are expected to be perturbed first: coordinates snapped to a 2^-30
lattice plus an id-seeded offset below 2^-40.  That breaks tangencies and
shared coordinates without moving any center far enough to change depth
values at the scales the callers operate on, and applying it twice gives
the same result as applying it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from maxrs.geometry import mix_keys

__all__ = [
    "SNAP",
    "TOL_GEOM",
    "ArcSegment",
    "IntersectionPoint",
    "perturb_centers",
    "dedupe_exact",
    "split_monotone_angles",
    "boundary_arcs",
    "union_arcs",
    "circle_intersections",
    "arc_intersections",
    "point_in_union",
]

TWO_PI = 2.0 * math.pi

SNAP = 2.0**-30
TOL_GEOM = 1e-9
_JIG = 2.0**-40
_PERTURB_SALT = 0x5EED


def perturb_centers(centers, ids=None) -> np.ndarray:
    """Snap to the 2^-30 lattice, then add a deterministic per-(id, axis)
    offset smaller than 2^-40.  Idempotent: the offset is too small to move
    a point to a different lattice cell."""
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    n, d = centers.shape
    if ids is None:
        ids = np.arange(n)
    snapped = np.round(centers / SNAP) * SNAP
    id_col = np.asarray(ids).reshape(n, 1)
    u = mix_keys([id_col, np.arange(d)[None, :], _PERTURB_SALT]) / 2.0**64
    return snapped + (u - 0.5) * _JIG


def dedupe_exact(centers, colors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop exact duplicates (same center and color), keeping first
    occurrences; returns (centers, colors, original_indices)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    colors = np.asarray(colors, dtype=np.int64)
    seen: set[tuple] = set()
    keep = []
    for i, (c, col) in enumerate(zip(centers, colors)):
        key = (int(col), *map(float, c))
        if key not in seen:
            seen.add(key)
            keep.append(i)
    idx = np.array(keep, dtype=np.int64)
    return centers[idx], colors[idx], idx


@dataclass(frozen=True)
class ArcSegment:
    """x-monotone piece of one disk's circle on its color's union boundary."""

    cx: float
    cy: float
    color: int
    disk_id: int
    t0: float
    t1: float
    upper: bool

    @property
    def xmin(self) -> float:
        return self.cx + math.cos(self.t0 if not self.upper else self.t1)

    @property
    def xmax(self) -> float:
        return self.cx + math.cos(self.t1 if not self.upper else self.t0)

    def y_at(self, x: float) -> float:
        u = 1.0 - (x - self.cx) ** 2
        root = math.sqrt(u) if u > 0.0 else 0.0
        return self.cy + root if self.upper else self.cy - root

    @property
    def interior_below(self) -> bool:
        """Whether the union interior lies below the arc (it lies toward the
        disk center, so below an upper piece and above a lower one)."""
        return self.upper

    def contains_angle(self, theta: float) -> bool:
        theta %= TWO_PI
        return self.t0 <= theta < self.t1


def _uncovered_arcs(cover: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Complement of covered angle intervals; pieces within [0, 2pi]."""
    norm: list[tuple[float, float]] = []
    for a, b in cover:
        span = b - a
        if span >= TWO_PI:
            return []
        a %= TWO_PI
        b = a + span
        if b <= TWO_PI:
            norm.append((a, b))
        else:
            norm.append((a, TWO_PI))
            norm.append((0.0, b - TWO_PI))
    if not norm:
        return [(0.0, TWO_PI)]
    norm.sort()
    merged = [list(norm[0])]
    for a, b in norm[1:]:
        if a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    gaps = [(merged[i][1], merged[i + 1][0]) for i in range(len(merged) - 1)]
    seam_lo = merged[-1][1]
    seam_hi = merged[0][0] + TWO_PI
    if seam_hi > seam_lo:
        if seam_lo < TWO_PI:
            gaps.append((seam_lo, min(seam_hi, TWO_PI)))
        if seam_hi > TWO_PI:
            gaps.append((0.0, seam_hi - TWO_PI))
    return [(a, b) for a, b in gaps if b > a]


def _monotone_pieces(a: float, b: float) -> list[tuple[float, float]]:
    out = []
    for lo, hi in ((a, min(b, math.pi)), (max(a, math.pi), b)):
        if hi > lo:
            out.append((lo, hi))
    return out


def split_monotone_angles(a: float, b: float) -> list[tuple[float, float]]:
    """Cut an angle range (b > a, any reals) at the extreme-x angles 0 and pi
    into x-monotone pieces within [0, 2pi], in traversal order."""
    span = b - a
    if span <= 0.0:
        raise ValueError("empty angle range")
    if span >= TWO_PI:
        return [(0.0, math.pi), (math.pi, TWO_PI)]
    a %= TWO_PI
    b = a + span
    raw = [(a, b)] if b <= TWO_PI else [(a, TWO_PI), (0.0, b - TWO_PI)]
    out = []
    for lo, hi in raw:
        out.extend(_monotone_pieces(lo, hi))
    return out


def boundary_arcs(centers: np.ndarray, color: int, ids: np.ndarray) -> list[ArcSegment]:
    """Union-boundary arcs of one color class (centers all of that color)."""
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    out: list[ArcSegment] = []
    for i in range(len(centers)):
        cover = []
        diff = centers - centers[i]
        dist = np.hypot(diff[:, 0], diff[:, 1])
        for j in range(len(centers)):
            if j == i or dist[j] <= 0.0 or dist[j] >= 2.0:
                continue
            alpha = math.acos(dist[j] / 2.0)
            theta = math.atan2(diff[j, 1], diff[j, 0]) % TWO_PI
            cover.append((theta - alpha, theta + alpha))
        for a, b in _uncovered_arcs(cover):
            for t0, t1 in split_monotone_angles(a, b):
                out.append(
                    ArcSegment(
                        cx=float(centers[i, 0]),
                        cy=float(centers[i, 1]),
                        color=int(color),
                        disk_id=int(ids[i]),
                        t0=t0,
                        t1=t1,
                        upper=t0 < math.pi,
                    )
                )
    return out


def union_arcs(centers, colors, ids=None) -> list[ArcSegment]:
    """Boundary arcs of every color's union, over already-perturbed disks."""
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    colors = np.asarray(colors, dtype=np.int64)
    if ids is None:
        ids = np.arange(len(centers))
    out: list[ArcSegment] = []
    for color in np.unique(colors):
        m = colors == color
        out.extend(boundary_arcs(centers[m], int(color), np.asarray(ids)[m]))
    return out


def circle_intersections(c1, c2) -> list[tuple[float, float]]:
    """Intersection points of two unit circles; empty unless 0 < dist < 2."""
    c1 = np.asarray(c1, dtype=np.float64)
    c2 = np.asarray(c2, dtype=np.float64)
    d = c2 - c1
    dist = math.hypot(d[0], d[1])
    if dist <= 0.0 or dist >= 2.0:
        return []
    mid = c1 + 0.5 * d
    h = math.sqrt(max(1.0 - 0.25 * dist * dist, 0.0))
    ux, uy = d[0] / dist, d[1] / dist
    return [
        (float(mid[0] - uy * h), float(mid[1] + ux * h)),
        (float(mid[0] + uy * h), float(mid[1] - ux * h)),
    ]


@dataclass(frozen=True)
class IntersectionPoint:
    """A transversal crossing of two different-colored boundary arcs."""

    x: float
    y: float
    arc_a: ArcSegment
    arc_b: ArcSegment


def arc_intersections(arcs: list[ArcSegment]) -> list[IntersectionPoint]:
    """All crossings between arcs of different colors, each reported once.

    Same-color arcs are interior-disjoint pieces of one union boundary and
    cannot cross.  Tangent or coincident supporting circles indicate the
    perturbation step was skipped; they raise rather than being dropped."""
    out: list[IntersectionPoint] = []
    by_disk: dict[tuple, list[ArcSegment]] = {}
    for arc in arcs:
        by_disk.setdefault((arc.cx, arc.cy, arc.color), []).append(arc)
    disks = list(by_disk)
    for i in range(len(disks)):
        xi, yi, ci = disks[i]
        for j in range(i + 1, len(disks)):
            xj, yj, cj = disks[j]
            if ci == cj:
                continue
            dist = math.hypot(xj - xi, yj - yi)
            if abs(dist - 2.0) <= TOL_GEOM:
                raise ValueError("tangent circles: input was not perturbed")
            if dist <= TOL_GEOM:
                raise ValueError("coincident circles: input was not perturbed")
            if dist >= 2.0:
                continue
            for x, y in circle_intersections((xi, yi), (xj, yj)):
                ta = math.atan2(y - yi, x - xi)
                tb = math.atan2(y - yj, x - xj)
                for a in by_disk[disks[i]]:
                    if not a.contains_angle(ta):
                        continue
                    for b in by_disk[disks[j]]:
                        if b.contains_angle(tb):
                            out.append(IntersectionPoint(x, y, a, b))
    return out


def point_in_union(point, centers) -> bool:
    """Closed-disk membership by direct distances (the reference predicate)."""
    point = np.asarray(point, dtype=np.float64)
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    diff = centers - point
    return bool((np.einsum("ij,ij->i", diff, diff) <= 1.0).any())
