"""Exact colored MaxRS over unit disks: deepest point by distinct colors.

Two cooperating routes:

- Decomposition route: vertical decomposition (trapezoidal map) of all the
  colors' union-boundary arcs inside a bounding box, then a breadth-first
  walk over cells.  Crossing an arc applies the membership rule (one witness
  inside the arc's color union, the other outside, depth changes by one);
  crossing a vertical wall leaves depth unchanged.  The deepest cell's
  witness is the answer.

- Grid route: shifted unit grids (cell side 1, shift step derived from
  target 0.25, so 6 x 6 shifts).  A cell's survivors are the disks that
  contain one of its corners; the decomposition route runs on them alone.
  One array pass over all shifts at once builds the table of survivor
  cells: the lattice points near each disk are tested for containment
  over every (shift, disk, neighbour) triple, a cell with a contained
  corner becomes one row (shift, zx, zy, disk), and one stable
  lexicographic sort groups the rows into per-cell survivor runs, each
  with a distinct-color upper bound.  The best
  result over all cells and shifts is exact: survivor depth never exceeds
  true depth anywhere, and for the optimal point some shift keeps every
  disk covering it.  Cells are processed by decreasing color upper bound,
  ties in (shift, zx, zy) order, so the search stops as soon as no
  unprocessed cell can win.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from maxrs import depths as dp
from maxrs.balls import centers_array, colors_array
from maxrs.disk_union import (
    TOL_GEOM,
    ArcSegment,
    arc_intersections,
    dedupe_exact,
    perturb_centers,
    union_arcs,
)
from maxrs.geometry import make_grid_collection

__all__ = [
    "Trapezoid",
    "Decomposition",
    "ColoredResult",
    "build_decomposition",
    "traverse_depths",
    "decomposition_max_depth",
    "corner_survivors",
    "exact_colored_maxrs_arrays",
    "exact_colored_maxrs",
]

_TOP = -1
_BOT = -2

# Bounding box margin beyond disk centers; anything this far out has depth 0.
_INFLATE = 3.0

_CELL_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
# Shifted unit grids of the grid route: 6 x 6 offsets, step 1/6.
_GRID_OFFSETS = make_grid_collection(2, 1.0, 0.25).offsets
# Lattice offsets around a center, x-major: entry 3 * (dx + 1) + (dy + 1).
_NEIGH = np.stack(np.meshgrid([-1, 0, 1], [-1, 0, 1], indexing="ij"), axis=-1).reshape(-1, 2)
# (shift, disk) pairs per survivor block; bounds the incidence transients.
_BLOCK_PAIRS = 8192


@dataclass
class Trapezoid:
    """One pseudo-trapezoid cell: bounded above/below by an arc or a box
    edge, left/right by vertical walls.  depth -1 means not yet visited."""

    top: int
    bot: int
    x0: float
    x1: float
    witness: tuple[float, float]
    depth: int = -1


@dataclass
class Decomposition:
    arcs: list[ArcSegment]
    cells: list[Trapezoid]
    # rows (cell above, cell below, arc index) across each shared arc edge
    arc_edges: np.ndarray = field(repr=False)
    # witness membership in the crossed arc's color union, aligned with
    # arc_edges rows: (above in, below in)
    edge_membership: np.ndarray = field(repr=False)
    # rows (cell, cell) across shared vertical walls along the top chain
    wall_edges: np.ndarray = field(repr=False)
    bbox: tuple[float, float, float, float]
    start: int


@dataclass(frozen=True)
class ColoredResult:
    point: tuple[float, float]
    value: int


def _arc_arrays(arcs: list[ArcSegment]):
    cx = np.array([a.cx for a in arcs], dtype=np.float64)
    cy = np.array([a.cy for a in arcs], dtype=np.float64)
    up = np.array([a.upper for a in arcs], dtype=bool)
    xmin = np.array([a.xmin for a in arcs], dtype=np.float64)
    xmax = np.array([a.xmax for a in arcs], dtype=np.float64)
    color = np.array([a.color for a in arcs], dtype=np.int64)
    return cx, cy, up, xmin, xmax, color


def _heights(xs: np.ndarray, cx: np.ndarray, cy: np.ndarray, up: np.ndarray) -> np.ndarray:
    """y of each arc at each x (rows: xs, cols: arcs); garbage outside span."""
    u = 1.0 - (xs[:, None] - cx[None, :]) ** 2
    root = np.sqrt(np.maximum(u, 0.0))
    return cy[None, :] + np.where(up[None, :], root, -root)


def _in_union_parity(points: np.ndarray, cx, cy, up, xmin, xmax) -> np.ndarray:
    """Membership of points in one color's union by upward ray parity over
    that color's boundary arcs."""
    inside = np.zeros(len(points), dtype=bool)
    for i in range(0, len(points), 1024):
        px = points[i : i + 1024, 0]
        py = points[i : i + 1024, 1]
        act = (xmin[None, :] < px[:, None]) & (px[:, None] < xmax[None, :])
        ys = _heights(px, cx, cy, up)
        hits = (act & (ys > py[:, None])).sum(axis=1)
        inside[i : i + 1024] = (hits % 2) == 1
    return inside


def build_decomposition(arcs: list[ArcSegment], bbox: tuple[float, float, float, float]) -> Decomposition:
    """Trapezoidal map of the arcs inside bbox, with adjacency and the
    witness memberships needed by the crossing rule.  Depths start at -1."""
    x0, y0, x1, y1 = bbox
    n = len(arcs)
    acx, acy, aup, axmin, axmax, acolor = _arc_arrays(arcs)
    if n and (
        axmin.min() <= x0
        or axmax.max() >= x1
        or (acy + 1.0).max() >= y1
        or (acy - 1.0).min() <= y0
    ):
        raise ValueError("arcs extend outside the bounding box")

    crossings = arc_intersections(arcs)
    events = np.unique(
        np.concatenate([axmin, axmax, np.array([p.x for p in crossings]), [x0, x1]])
    )
    # A union vertex of two same-color circles yields the same endpoint x
    # computed on both circles, differing in the last float bits.  A sliver
    # slab between such twins sees exactly one of the two meeting arcs as
    # active, which no true vertical line can, and depth traversal breaks.
    # Collapsing events closer than the geometric noise floor removes the
    # slivers; real features sit far wider apart (tangencies are rejected).
    if len(events) > 1:
        keep = np.ones(len(events), dtype=bool)
        anchor = events[0]
        for i in range(1, len(events)):
            if events[i] - anchor < TOL_GEOM:
                keep[i] = False
            else:
                anchor = events[i]
        events = events[keep]
    mids = 0.5 * (events[:-1] + events[1:])

    # Per-slab stacks of active arcs, top to bottom, flattened into cell rows.
    slab_parts, top_parts, bot_parts = [], [], []
    for c0 in range(0, len(mids), 512):
        m = mids[c0 : c0 + 512]
        act = (axmin[None, :] < m[:, None]) & (m[:, None] < axmax[None, :])
        ys = np.where(act, _heights(m, acx, acy, aup), -np.inf)
        order = np.argsort(-ys, axis=1, kind="stable")
        counts = act.sum(axis=1)
        for i in range(len(m)):
            k = int(counts[i])
            ids = order[i, :k]
            if k > 1:
                yy = ys[i, ids]
                if np.any(yy[:-1] == yy[1:]):
                    raise ValueError("coincident arc heights; input was not perturbed")
            slab_parts.append(np.full(k + 1, c0 + i, dtype=np.int64))
            top_parts.append(np.concatenate([[_TOP], ids]))
            bot_parts.append(np.concatenate([ids, [_BOT]]))

    slab_r = np.concatenate(slab_parts)
    top_r = np.concatenate(top_parts).astype(np.int64)
    bot_r = np.concatenate(bot_parts).astype(np.int64)

    # A cell continues across a slab wall while its (top, bot) pair persists;
    # maximal runs of one pair over consecutive slabs are the trapezoids.
    code = (top_r + 2) * (n + 3) + (bot_r + 2)
    o = np.lexsort((slab_r, code))
    cs, cc = slab_r[o], code[o]
    fresh = np.ones(len(o), dtype=bool)
    fresh[1:] = (cc[1:] != cc[:-1]) | (cs[1:] != cs[:-1] + 1)
    tid_sorted = np.cumsum(fresh) - 1
    trap_of_row = np.empty(len(o), dtype=np.int64)
    trap_of_row[o] = tid_sorted

    first = np.flatnonzero(fresh)
    last = np.append(first[1:], len(o)) - 1
    t_top = top_r[o][first]
    t_bot = bot_r[o][first]
    t_x0 = events[cs[first]]
    t_x1 = events[cs[last] + 1]

    # Witness: midpoint of the vertical segment at the cell's x-midpoint.
    # If that x lands exactly on an event (possible for a cell spanning
    # several slabs), fall back to the cell's first slab midpoint so the
    # witness never shares x with any endpoint or crossing.
    wx = 0.5 * (t_x0 + t_x1)
    pos = np.searchsorted(events, wx)
    on_event = (pos < len(events)) & (events[np.minimum(pos, len(events) - 1)] == wx)
    if on_event.any():
        s0 = cs[first][on_event]
        wx[on_event] = 0.5 * (events[s0] + events[s0 + 1])

    def _edge_y(which: np.ndarray, default: float) -> np.ndarray:
        out = np.full(len(which), default)
        m = which >= 0
        if m.any():
            a = which[m]
            u = 1.0 - (wx[m] - acx[a]) ** 2
            root = np.sqrt(np.maximum(u, 0.0))
            out[m] = acy[a] + np.where(aup[a], root, -root)
        return out

    wy = 0.5 * (_edge_y(t_top, y1) + _edge_y(t_bot, y0))

    cells = [
        Trapezoid(int(t), int(b), float(xa), float(xb), (float(px), float(py)))
        for t, b, xa, xb, px, py in zip(t_top, t_bot, t_x0, t_x1, wx, wy)
    ]

    # Arc edges: vertically consecutive cells of one slab share bot_r (>= 0).
    same_slab = slab_r[1:] == slab_r[:-1]
    ta = trap_of_row[:-1][same_slab]
    tb = trap_of_row[1:][same_slab]
    shared = bot_r[:-1][same_slab]
    arc_edges = np.unique(np.stack([ta, tb, shared], axis=1), axis=0)

    # Wall edges along the top chain keep the graph connected; every other
    # cell hangs below some top cell within its own slab column.
    top_rows = trap_of_row[top_r == _TOP]
    step = top_rows[1:] != top_rows[:-1]
    wall_edges = np.unique(
        np.stack([top_rows[:-1][step], top_rows[1:][step]], axis=1), axis=0
    )

    # Witness memberships for the crossing rule, batched per color.
    wpts = np.array([c.witness for c in cells], dtype=np.float64)
    membership = np.zeros((len(arc_edges), 2), dtype=bool)
    if len(arc_edges):
        edge_colors = acolor[arc_edges[:, 2]]
        for color in np.unique(edge_colors):
            cm = np.flatnonzero(acolor == color)
            em = np.flatnonzero(edge_colors == color)
            pts = np.concatenate([wpts[arc_edges[em, 0]], wpts[arc_edges[em, 1]]])
            ins = _in_union_parity(pts, acx[cm], acy[cm], aup[cm], axmin[cm], axmax[cm])
            membership[em, 0] = ins[: len(em)]
            membership[em, 1] = ins[len(em) :]
        if np.any(membership[:, 0] == membership[:, 1]):
            raise RuntimeError("arc edge with equal memberships on both sides")

    return Decomposition(
        arcs=arcs,
        cells=cells,
        arc_edges=arc_edges,
        edge_membership=membership,
        wall_edges=wall_edges,
        bbox=bbox,
        start=int(trap_of_row[0]),
    )


def traverse_depths(dec: Decomposition, order: str = "bfs") -> None:
    """Assign cell depths from the start cell (depth 0), applying the
    crossing rule on arc edges and equality on wall edges.  Revisits verify
    consistency, so any traversal order yields the same depths."""
    if order not in ("bfs", "dfs"):
        raise ValueError(f"unknown traversal order {order!r}")
    adj: list[list[tuple[int, int]]] = [[] for _ in dec.cells]
    for (u, v, _a), (mu, mv) in zip(dec.arc_edges, dec.edge_membership):
        # Rule on crossing into D's arc: leaving D costs 1, entering D gains 1.
        step_uv = -1 if (mu and not mv) else +1
        adj[u].append((int(v), step_uv))
        adj[v].append((int(u), -step_uv))
    for u, v in dec.wall_edges:
        adj[u].append((int(v), 0))
        adj[v].append((int(u), 0))

    for c in dec.cells:
        c.depth = -1
    dec.cells[dec.start].depth = 0
    frontier: deque[int] = deque([dec.start])
    while frontier:
        u = frontier.popleft() if order == "bfs" else frontier.pop()
        du = dec.cells[u].depth
        for v, step in adj[u]:
            dv = du + step
            if dec.cells[v].depth == -1:
                dec.cells[v].depth = dv
                frontier.append(v)
            elif dec.cells[v].depth != dv:
                raise RuntimeError("inconsistent depths; decomposition is broken")
    if any(c.depth < 0 for c in dec.cells):
        raise RuntimeError("decomposition graph is not connected")


def _bbox_for(centers: np.ndarray) -> tuple[float, float, float, float]:
    return (
        float(centers[:, 0].min() - _INFLATE),
        float(centers[:, 1].min() - _INFLATE),
        float(centers[:, 0].max() + _INFLATE),
        float(centers[:, 1].max() + _INFLATE),
    )


def decomposition_max_depth(
    arcs: list[ArcSegment], bbox: tuple[float, float, float, float]
) -> tuple[tuple[float, float], int, Decomposition]:
    """Deepest cell of the decomposition: (witness point, depth, the map).
    Ties go to the lexicographically smallest witness."""
    dec = build_decomposition(arcs, bbox)
    traverse_depths(dec)
    depths = np.array([c.depth for c in dec.cells])
    best = int(depths.max())
    cand = np.flatnonzero(depths == best)
    wits = np.array([dec.cells[i].witness for i in cand])
    pick = cand[np.lexsort((wits[:, 1], wits[:, 0]))[0]]
    return dec.cells[pick].witness, best, dec


def corner_survivors(centers: np.ndarray, cell_lo: tuple[float, float]) -> np.ndarray:
    """Mask of disks containing at least one corner of the unit cell at
    cell_lo; the rest cannot matter inside that cell at the optimal shift."""
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    lx, ly = cell_lo
    corners = np.array([(lx, ly), (lx + 1, ly), (lx, ly + 1), (lx + 1, ly + 1)])
    d2 = ((centers[:, None, :] - corners[None, :, :]) ** 2).sum(axis=2)
    return (d2 <= 1.0).any(axis=1)


class _SurvivorCells(NamedTuple):
    """Grid cells, over every shift, having a disk through a cell corner.

    Rows are sorted by (shift, zx, zy); cell k keeps the ascending disk
    indices disks[starts[k]:starts[k + 1]]."""

    shift: np.ndarray  # (C,) grid index
    z: np.ndarray  # (C, 2) lattice coordinates
    lo: np.ndarray  # (C, 2) lower-left corner: grid offset + z
    ub: np.ndarray  # (C,) distinct colors among the cell's disks
    disks: np.ndarray  # survivor disk indices, cell after cell
    starts: np.ndarray  # (C + 1,) run bounds into disks


def _grid_cells_with_survivors(centers: np.ndarray, colors: np.ndarray) -> _SurvivorCells:
    """Every (shift, cell, disk) incidence where the disk contains a corner
    of the cell, grouped into cells with a distinct-color upper bound."""
    offsets = _GRID_OFFSETS
    n_grids = len(offsets)
    per_block = max(1, _BLOCK_PAIRS // n_grids)
    shift_parts, zx_parts, zy_parts, disk_parts = [], [], [], []
    for i in range(0, len(centers), per_block):
        blk = centers[i : i + per_block]
        # Lattice points base + (-1..1, -1..1) around each center, per shift;
        # no other lattice point lies within distance 1.
        base = np.floor(blk[None, :, :] - offsets[:, None, :]).astype(np.int64)
        q = offsets[:, None, None, :] + (base[:, :, None, :] + _NEIGH)
        hit = ((q - blk[None, :, None, :]) ** 2).sum(axis=3) <= 1.0
        # Cell base + (u - 2) has corners at lattice offsets u - 2 and u - 1,
        # padded indices u and u + 1: a 2 x 2 dilation of the hit mask.
        pad = np.zeros((n_grids, len(blk), 5, 5), dtype=bool)
        pad[:, :, 1:4, 1:4] = hit.reshape(n_grids, len(blk), 3, 3)
        cell = pad[:, :, :4, :4] | pad[:, :, 1:, :4] | pad[:, :, :4, 1:] | pad[:, :, 1:, 1:]
        g, disk, ux, uy = np.nonzero(cell)
        shift_parts.append(g)
        zx_parts.append(base[g, disk, 0] + (ux - 2))
        zy_parts.append(base[g, disk, 1] + (uy - 2))
        disk_parts.append(disk + i)
    shift = np.concatenate(shift_parts)
    zx = np.concatenate(zx_parts)
    zy = np.concatenate(zy_parts)
    disks = np.concatenate(disk_parts)

    # Each (shift, cell, disk) row occurs once, in ascending disk order per
    # (shift, cell); a stable sort by cell keeps that order inside cells.
    o = np.lexsort((zy, zx, shift))
    shift, zx, zy, disks = shift[o], zx[o], zy[o], disks[o]
    fresh_cell = np.ones(len(o), dtype=bool)
    fresh_cell[1:] = (shift[1:] != shift[:-1]) | (zx[1:] != zx[:-1]) | (zy[1:] != zy[:-1])
    first = np.flatnonzero(fresh_cell)

    # Distinct (cell, color) pairs over dense color ids; cell * n_colors
    # stays far below 2^63 for any table that fits in memory.
    uniq_colors, color_id = np.unique(colors, return_inverse=True)
    pair = (np.cumsum(fresh_cell) - 1) * len(uniq_colors) + color_id.reshape(-1)[disks]
    pair.sort()
    distinct = np.ones(len(pair), dtype=bool)
    distinct[1:] = pair[1:] != pair[:-1]
    ub = np.bincount(pair[distinct] // len(uniq_colors), minlength=len(first))

    shift, z = shift[first], np.stack([zx[first], zy[first]], axis=1)
    return _SurvivorCells(
        shift=shift,
        z=z,
        lo=offsets[shift] + z.astype(np.float64),
        ub=ub,
        disks=disks,
        starts=np.append(first, len(disks)),
    )


def exact_colored_maxrs_arrays(centers, colors) -> ColoredResult:
    """Exact max colored depth from raw center/color arrays."""
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if len(centers) == 0:
        raise ValueError("at least one disk required")
    if centers.shape[1] != 2:
        raise ValueError("unit-disk solver requires dimension 2")
    colors = np.asarray(colors, dtype=np.int64)
    centers, colors, _ = dedupe_exact(centers, colors)
    centers = perturb_centers(centers)

    cells = _grid_cells_with_survivors(centers, colors)

    best = -1
    best_point: tuple[float, float] | None = None

    # When the instance is small enough, score every cell corner in one
    # batch.  Corner depths are lower bounds on the optimum, so a strong
    # seed lets the upper-bound sweep skip nearly all cells; on larger
    # inputs corners are scored lazily per processed cell instead.
    corner_prepass = len(cells.ub) * 4 * len(centers) <= 2e7
    if corner_prepass:
        cpts = (cells.lo[:, None, :] + _CELL_CORNERS[None, :, :]).reshape(-1, 2)
        vals = dp.colored_depths(cpts, centers, colors)
        i = int(np.argmax(vals))
        best = int(vals[i])
        best_point = (float(cpts[i, 0]), float(cpts[i, 1]))
    else:
        ucenters, ustarts = dp.color_groups(centers, colors)

    # Decreasing color bound; ties keep the table's (shift, zx, zy) order.
    order = np.argsort(-cells.ub, kind="stable").tolist()
    ubs = cells.ub.tolist()
    starts = cells.starts.tolist()
    memo: dict[bytes, tuple[tuple[float, float], int]] = {}
    for k in order:
        ub = ubs[k]
        if ub <= best:
            break

        if not corner_prepass:
            # Every disk through a cell corner survives, so the full-input
            # depth at a corner equals the survivor depth there and cannot
            # exceed this cell's optimum or its color bound.  A corner that
            # meets the bound settles the cell without a decomposition.
            corners = cells.lo[k] + _CELL_CORNERS
            cv = dp.colored_depths_u(corners, ucenters, ustarts)
            ci = int(np.argmax(cv))
            if int(cv[ci]) > best:
                best = int(cv[ci])
                best_point = (float(corners[ci, 0]), float(corners[ci, 1]))
            if ub <= best:
                continue

        members = cells.disks[starts[k] : starts[k + 1]]
        key = members.tobytes()
        hit = memo.get(key)
        if hit is None:
            sub_centers = centers[members]
            sub_colors = colors[members]
            arcs = union_arcs(sub_centers, sub_colors, ids=members)
            point, depth, _dec = decomposition_max_depth(arcs, _bbox_for(sub_centers))
            hit = (point, int(depth))
            memo[key] = hit
        if hit[1] > best:
            best = hit[1]
            best_point = hit[0]

    if best_point is None:
        raise AssertionError("search ended without a candidate point")
    return ColoredResult(point=best_point, value=best)


def exact_colored_maxrs(balls) -> ColoredResult:
    """Exact max colored depth over a list of colored unit disks."""
    balls = list(balls)
    if not balls:
        raise ValueError("at least one disk required")
    return exact_colored_maxrs_arrays(centers_array(balls), colors_array(balls))
