"""Dynamic deepest-sample structure over unit balls under insert/delete.

Active state is the set of grid cells whose closed box touches at least one
stored ball.  Each active cell keeps its t keyed circumsphere samples and
their exact depths; updates touch only cells near the changed ball (one
geometry.cells_near_ball window over all grids), and a per-cell support
count tells exactly when a cell leaves the universe.  Rebuilds activate the
whole universe at once from geometry.universe_with_support.

Sample streams are keyed by (seed, salt, cell), so a cell activated,
deactivated, and activated again within one epoch regenerates the identical
samples.  Epochs: after a rebuild at count n_j, the structure tolerates
counts in [n_j/2, 2*n_j]; leaving that window triggers a rebuild with a
fresh salt and a sample budget recomputed from the new count.

bulk_build() constructs epoch state exactly as the static solver would see
it (salt 0, t from n), so a bulk build followed by query() agrees bitwise
with the static search over the same balls.
"""

from __future__ import annotations

import math

import numpy as np

from maxrs import depths as dp
from maxrs.balls import WeightedBall, centers_array, weights_array
from maxrs.geometry import (
    CellKey,
    box_dist2,
    cell_stream_keys,
    cells_near_ball,
    sphere_samples_keyed,
    universe_with_support,
)
from maxrs.sample_solver import (
    PAD,
    SolveOutcome,
    canonical_order,
    grid_for,
    max_weighted_sample,
    samples_per_cell,
)

__all__ = ["DynamicMaxRS", "static_solve"]


def static_solve(balls, d: int, eps: float, c_sample: float = 4.0, seed: int = 0) -> SolveOutcome | None:
    """One-shot deepest weighted sample over a list of WeightedBall."""
    balls = list(balls)
    if not balls:
        return None
    centers = centers_array(balls)
    if centers.shape[1] != d:
        raise ValueError(f"balls have dimension {centers.shape[1]}, expected {d}")
    weights = weights_array(balls)
    return max_weighted_sample(centers, weights, d, eps, c_sample, seed)


class DynamicMaxRS:
    """Insert/delete/query over weighted unit balls in dimension d."""

    def __init__(self, d: int, eps: float, c_sample: float = 4.0, seed: int = 0):
        self._gc = grid_for(d, eps)
        self._eps = eps
        self._c_sample = c_sample
        self._seed = seed
        self._salt = 0
        self._epoch_n = 0
        self._t = samples_per_cell(c_sample, eps, 0)
        self._balls: dict[int, WeightedBall] = {}
        self._next_id = 0
        self._n_updates = 0
        self._alloc(256)
        self._cells: dict[tuple, int] = {}
        self._arrays_dirty = True
        self._centers = np.zeros((0, d))
        self._weights = np.zeros(0)

    # -- storage ----------------------------------------------------------

    def _alloc(self, cap: int) -> None:
        d, t = self._gc.d, self._t
        self._S = np.zeros((cap, t, d))
        self._D = np.zeros((cap, t))
        self._gs = np.zeros(cap, dtype=np.int64)
        self._zs = np.zeros((cap, d), dtype=np.int64)
        self._nballs = np.zeros(cap, dtype=np.int64)
        self._rowmax = np.full(cap, -math.inf)
        self._free = list(range(cap - 1, -1, -1))

    def _grow(self) -> None:
        old = len(self._gs)
        cap = old * 2
        for name in ("_S", "_D", "_gs", "_zs", "_nballs", "_rowmax"):
            arr = getattr(self, name)
            new = np.zeros((cap,) + arr.shape[1:], dtype=arr.dtype)
            new[:old] = arr
            setattr(self, name, new)
        self._rowmax[old:] = -math.inf
        self._free.extend(range(cap - 1, old - 1, -1))

    def _ball_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._arrays_dirty:
            if self._balls:
                bs = list(self._balls.values())
                self._centers = centers_array(bs)
                self._weights = weights_array(bs)
            else:
                self._centers = np.zeros((0, self._gc.d))
                self._weights = np.zeros(0)
            self._arrays_dirty = False
        return self._centers, self._weights

    # -- cell bookkeeping --------------------------------------------------

    def _activate_batch(self, keys: list[tuple]) -> None:
        """Create blocks for cells (full depth scan against all stored balls)."""
        if not keys:
            return
        while len(self._free) < len(keys):
            self._grow()
        gc = self._gc
        blocks = np.array([self._free.pop() for _ in keys], dtype=np.int64)
        gs = np.array([k[0] for k in keys], dtype=np.int64)
        zs = np.array([k[1:] for k in keys], dtype=np.int64)
        centers = gc.offsets[gs] + (zs + 0.5) * gc.cell_side
        skeys = cell_stream_keys(self._seed, self._salt, gs, zs)
        pts = sphere_samples_keyed(centers, gc.circumradius, self._t, skeys)

        bc, bw = self._ball_arrays()
        uniq, sums = dp.dedupe_centers(bc, bw)
        dep = dp.weighted_depths_u(pts.reshape(-1, gc.d), uniq, sums).reshape(len(keys), self._t)

        lo = gc.offsets[gs] + zs * gc.cell_side
        support = (box_dist2(lo[:, None, :], lo[:, None, :] + gc.cell_side, bc[None, :, :]) <= 1.0).sum(axis=1)

        self._S[blocks] = pts
        self._D[blocks] = dep
        self._gs[blocks] = gs
        self._zs[blocks] = zs
        self._nballs[blocks] = support
        self._rowmax[blocks] = dep.max(axis=1)
        self._cells.update(zip(keys, blocks.tolist()))

    def _activate_bulk(self, gs: np.ndarray, zs: np.ndarray, support: np.ndarray) -> None:
        """Rebuild-time activation: depths against nearby balls only, found
        through a coarse bucket grid.  Bitwise equal to the full scan: the
        skipped balls are exactly those contributing 0.0, and the dedupe step
        orders centers canonically either way."""
        if len(gs) == 0:
            return
        while len(self._free) < len(gs):
            self._grow()
        gc = self._gc
        d, t = gc.d, self._t
        blocks = np.array([self._free.pop() for _ in range(len(gs))], dtype=np.int64)
        centers = gc.offsets[gs] + (zs + 0.5) * gc.cell_side
        skeys = cell_stream_keys(self._seed, self._salt, gs, zs)
        pts = sphere_samples_keyed(centers, gc.circumradius, t, skeys)

        bc, bw = self._ball_arrays()
        # Every ball containing a sample of a cell lies within 1 + rho of the
        # cell center, so with bucket side > 1 + rho the 3^d window suffices.
        side = 1.0 + gc.circumradius + 1e-6
        cb = np.floor(centers / side).astype(np.int64)
        bb = np.floor(bc / side).astype(np.int64)
        border = np.lexsort(tuple(bb[:, ax] for ax in reversed(range(d))))
        ub, bstarts = np.unique(bb[border], axis=0, return_index=True)
        bends = np.append(bstarts[1:], len(border))
        bmap = {tuple(v): (int(a), int(b)) for v, a, b in zip(ub, bstarts, bends)}
        corder = np.lexsort(tuple(cb[:, ax] for ax in reversed(range(d))))
        uc, cstarts = np.unique(cb[corder], axis=0, return_index=True)
        cends = np.append(cstarts[1:], len(corder))
        win = np.stack(
            np.meshgrid(*([np.arange(-1, 2)] * d), indexing="ij"), axis=-1
        ).reshape(-1, d)

        dep = np.zeros((len(gs), t))
        for v, a, b in zip(uc, cstarts, cends):
            rows = corder[a:b]
            segs = [bmap.get(tuple(v + o)) for o in win]
            segs = [border[s0:s1] for seg in segs if seg is not None for s0, s1 in [seg]]
            if segs:
                idx = np.sort(np.concatenate(segs))
                dep[rows] = dp.weighted_depths(
                    pts[rows].reshape(-1, d), bc[idx], bw[idx]
                ).reshape(len(rows), t)

        self._S[blocks] = pts
        self._D[blocks] = dep
        self._gs[blocks] = gs
        self._zs[blocks] = zs
        self._nballs[blocks] = support
        self._rowmax[blocks] = dep.max(axis=1)
        self._cells.update(
            ((g, *z), b) for g, z, b in zip(gs.tolist(), zs.tolist(), blocks.tolist())
        )

    def _deactivate(self, key: tuple, block: int) -> None:
        del self._cells[key]
        self._rowmax[block] = -math.inf
        self._free.append(block)

    def _apply_ball(self, center: np.ndarray, weight: float, sign: int) -> None:
        gc = self._gc
        s = gc.cell_side
        gs, zs = cells_near_ball(gc, center, 1.0 + gc.circumradius + PAD)
        if len(gs) == 0:
            return
        keys = [(g, *z) for g, z in zip(gs.tolist(), zs.tolist())]
        blk = np.array([self._cells.get(k, -1) for k in keys], dtype=np.int64)
        active = blk >= 0
        lo = gc.offsets[gs] + zs * s
        member = box_dist2(lo, lo + s, center) <= 1.0

        if active.any():
            blocks = blk[active]
            diff = self._S[blocks] - center
            inside = np.einsum("btk,btk->bt", diff, diff) <= 1.0
            self._D[blocks] += (sign * weight) * inside
            self._rowmax[blocks] = self._D[blocks].max(axis=1)
            am = member[active]
            self._nballs[blocks] += sign * am
            if sign < 0:
                act = active.tolist()
                for k, b, m in zip(
                    [k for k, a in zip(keys, act) if a], blocks, am
                ):
                    if m and self._nballs[b] == 0:
                        self._deactivate(k, int(b))

        if sign > 0:
            fresh_mask = ~active & member
            if fresh_mask.any():
                self._activate_batch(
                    [k for k, f in zip(keys, fresh_mask.tolist()) if f]
                )

    # -- epochs ------------------------------------------------------------

    def _rebuild(self, *, bump_salt: bool) -> None:
        if bump_salt:
            self._salt += 1
        self._epoch_n = len(self._balls)
        self._t = samples_per_cell(self._c_sample, self._eps, self._epoch_n)
        self._cells = {}
        self._alloc(max(256, len(self._gs)))
        if not self._balls:
            return
        bc, _ = self._ball_arrays()
        gs, zs, support = universe_with_support(self._gc, bc)
        self._activate_bulk(gs, zs, support)

    @classmethod
    def bulk_build(cls, balls, d: int, eps: float, c_sample: float = 4.0, seed: int = 0) -> "DynamicMaxRS":
        """Fresh structure over a ball list, in the same epoch state (salt 0,
        budget from n) the static solver uses."""
        inst = cls(d, eps, c_sample, seed)
        for b in balls:
            inst._store(b)
        inst._rebuild(bump_salt=False)
        return inst

    # -- public ops --------------------------------------------------------

    def _store(self, ball: WeightedBall) -> int:
        if ball.d != self._gc.d:
            raise ValueError(f"ball dimension {ball.d} != structure dimension {self._gc.d}")
        bid = ball.id if ball.id is not None else self._next_id
        if bid in self._balls:
            raise ValueError(f"duplicate ball id {bid}")
        self._next_id = max(self._next_id, bid + 1)
        self._balls[bid] = ball
        self._arrays_dirty = True
        return bid

    def insert(self, ball: WeightedBall) -> int:
        bid = self._store(ball)
        self._n_updates += 1
        if len(self._balls) > 2 * self._epoch_n:
            self._rebuild(bump_salt=True)
        else:
            self._apply_ball(np.asarray(ball.center, dtype=np.float64), ball.weight, +1)
        return bid

    def delete(self, ball_id: int) -> None:
        ball = self._balls.pop(ball_id, None)
        if ball is None:
            raise ValueError(f"unknown ball id {ball_id}")
        self._arrays_dirty = True
        self._n_updates += 1
        if 2 * len(self._balls) < self._epoch_n:
            self._rebuild(bump_salt=True)
        else:
            self._apply_ball(np.asarray(ball.center, dtype=np.float64), ball.weight, -1)

    def query(self) -> SolveOutcome | None:
        if not self._cells:
            return None
        best = float(self._rowmax.max())
        rows = np.flatnonzero(self._rowmax == best)
        order = canonical_order(self._gs[rows], self._zs[rows])
        row = int(rows[order[0]])
        samp = int(np.argmax(self._D[row] == best))
        return SolveOutcome(
            point=tuple(float(v) for v in self._S[row, samp]),
            value=best,
            cell=CellKey(int(self._gs[row]), tuple(int(v) for v in self._zs[row])),
            sample_index=samp,
        )

    # -- introspection -----------------------------------------------------

    @property
    def n_balls(self) -> int:
        return len(self._balls)

    @property
    def n_active_cells(self) -> int:
        return len(self._cells)

    @property
    def epoch_start_count(self) -> int:
        return self._epoch_n

    @property
    def n_updates(self) -> int:
        return self._n_updates

    @property
    def salt(self) -> int:
        return self._salt

    @property
    def sample_budget(self) -> int:
        return self._t

    def audit(self) -> tuple[float, int]:
        """Recompute every active cell from scratch; returns (max abs depth
        error over all stored samples, number of support-count or row-max
        cache mismatches).  A consistent structure returns (0.0, 0) whenever
        weight sums are exactly representable."""
        if not self._cells:
            return 0.0, 0
        gc = self._gc
        bc, bw = self._ball_arrays()
        uniq, sums = dp.dedupe_centers(bc, bw)
        blocks = np.array(sorted(self._cells.values()), dtype=np.int64)
        max_err = 0.0
        bad_support = 0
        for i in range(0, len(blocks), 64):
            b = blocks[i : i + 64]
            pts = self._S[b].reshape(-1, gc.d)
            dep = dp.weighted_depths_u(pts, uniq, sums).reshape(len(b), self._t)
            max_err = max(max_err, float(np.abs(dep - self._D[b]).max()))
            if np.any(self._D[b].max(axis=1) != self._rowmax[b]):
                bad_support += 1
            lo = gc.offsets[self._gs[b]] + self._zs[b] * gc.cell_side
            support = (box_dist2(lo[:, None, :], lo[:, None, :] + gc.cell_side, bc[None, :, :]) <= 1.0).sum(axis=1)
            bad_support += int(np.sum(support != self._nballs[b]))
        return max_err, bad_support
