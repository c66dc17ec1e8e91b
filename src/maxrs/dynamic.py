"""Dynamic deepest-sample structure over unit balls under insert/delete.

Active state is the set of grid cells whose closed box touches at least one
stored ball.  Each active cell keeps its t keyed circumsphere samples and
their exact depths; updates touch only cells near the changed ball (one
geometry.cells_near_ball window over all grids), and a per-cell support
count tells exactly when a cell leaves the universe.

Live balls are also kept in a bucket index (bucket side just above 1 + rho,
rho the cell circumradius), so every ball that touches a cell or contains
one of its samples sits in the 3^d buckets around the cell center's bucket.
One activation routine serves inserts and rebuilds alike: it draws the new
cells' samples and scores them, and counts their support, against those
buckets only.  An insert therefore costs time in the balls near it, not in
all stored balls.  Rebuilds activate the whole universe at once from
geometry.universe_with_support, whose support counts they keep.

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

import itertools
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

# Cells whose samples are drawn per sphere_samples_keyed call: bounds the
# sampler's transients on rebuilds (samples are keyed per cell, so chunking
# changes no value).
_SAMPLE_CHUNK = 32768


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
        # Live balls by the bucket of their center; see the module docstring.
        self._bside = 1.0 + self._gc.circumradius + 1e-6
        self._buckets: dict[tuple, dict[int, WeightedBall]] = {}
        self._window = list(itertools.product((-1, 0, 1), repeat=d))
        self._next_id = 0
        self._n_updates = 0
        self._alloc(256)
        self._cells: dict[tuple, int] = {}

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
        bs = list(self._balls.values())
        return centers_array(bs), weights_array(bs)

    def _bucket_of(self, center) -> tuple:
        return tuple(math.floor(v / self._bside) for v in center)

    def _window_balls(self, bucket: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Centers and weights of the live balls in the 3^d buckets around
        `bucket`."""
        bs = []
        for o in self._window:
            near = self._buckets.get(tuple(a + b for a, b in zip(bucket, o)))
            if near:
                bs.extend(near.values())
        centers = np.array([b.center for b in bs], dtype=np.float64).reshape(-1, self._gc.d)
        return centers, np.array([b.weight for b in bs], dtype=np.float64)

    # -- cell bookkeeping --------------------------------------------------

    def _activate(self, gs: np.ndarray, zs: np.ndarray, support: np.ndarray | None = None) -> None:
        """Create blocks for cells: keyed samples, exact depths and support
        counts (unless given), each against the balls of the bucket window
        around the cell's center.  Bitwise equal to scanning every stored
        ball whenever weight sums are exactly representable: the skipped
        balls are exactly those contributing 0.0 and touching nothing, and
        dedupe orders centers canonically either way."""
        k = len(gs)
        if k == 0:
            return
        while len(self._free) < k:
            self._grow()
        gc = self._gc
        d, t, s = gc.d, self._t, gc.cell_side
        blocks = np.array(self._free[-k:][::-1], dtype=np.int64)
        del self._free[-k:]
        self._gs[blocks] = gs
        self._zs[blocks] = zs
        centers = gc.offsets[gs] + (zs + 0.5) * s
        skeys = cell_stream_keys(self._seed, self._salt, gs, zs)
        for i in range(0, k, _SAMPLE_CHUNK):
            sl = slice(i, i + _SAMPLE_CHUNK)
            self._S[blocks[sl]] = sphere_samples_keyed(centers[sl], gc.circumradius, t, skeys[sl])
        if support is not None:
            self._nballs[blocks] = support
        lo = gc.offsets[gs] + zs * s

        # One group of cells per bucket of their centers, in bucket order.
        cb = np.floor(centers / self._bside).astype(np.int64)
        order = np.lexsort(cb.T[::-1])
        cb = cb[order]
        cuts = np.flatnonzero(np.any(cb[1:] != cb[:-1], axis=1)) + 1
        for a, b in zip([0, *cuts.tolist()], [*cuts.tolist(), k]):
            rows = order[a:b]
            br = blocks[rows]
            wc, ww = self._window_balls(tuple(cb[a].tolist()))
            dep = dp.weighted_depths(self._S[br].reshape(-1, d), wc, ww).reshape(len(rows), t)
            self._D[br] = dep
            self._rowmax[br] = dep.max(axis=1)
            if support is None:
                glo = lo[rows][:, None, :]
                self._nballs[br] = (box_dist2(glo, glo + s, wc[None, :, :]) <= 1.0).sum(axis=1)
        self._cells.update(zip(zip(gs.tolist(), *zs.T.tolist()), blocks.tolist()))

    def _apply_ball(self, center: np.ndarray, weight: float, sign: int) -> None:
        gc = self._gc
        s = gc.cell_side
        gs, zs = cells_near_ball(gc, center, 1.0 + gc.circumradius + PAD)
        if len(gs) == 0:
            return
        keys = list(zip(gs.tolist(), *zs.T.tolist()))
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
                dead = am & (self._nballs[blocks] == 0)
                for i in np.flatnonzero(active)[dead].tolist():
                    del self._cells[keys[i]]
                self._rowmax[blocks[dead]] = -math.inf
                self._free.extend(blocks[dead].tolist())

        if sign > 0:
            fresh = ~active & member
            if fresh.any():
                self._activate(gs[fresh], zs[fresh])

    # -- epochs ------------------------------------------------------------

    def _rebuild(self, *, bump_salt: bool) -> None:
        if bump_salt:
            self._salt += 1
        self._epoch_n = len(self._balls)
        self._t = samples_per_cell(self._c_sample, self._eps, self._epoch_n)
        self._cells = {}
        cap = max(256, len(self._gs))
        if not self._balls:
            self._alloc(cap)
            return
        gs, zs, support = universe_with_support(self._gc, self._ball_arrays()[0])
        while cap < len(gs):
            cap *= 2
        self._alloc(cap)
        self._activate(gs, zs, support)

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
        self._buckets.setdefault(self._bucket_of(ball.center), {})[bid] = ball
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
        key = self._bucket_of(ball.center)
        del self._buckets[key][ball_id]
        if not self._buckets[key]:
            del self._buckets[key]
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
