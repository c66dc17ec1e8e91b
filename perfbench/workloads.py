"""The four benchmark workloads.

Each workload draws its inputs from the seed when it is constructed (the
benchmark's own work, untimed), turns them into the program's input types
in `setup` (timed as set-up), and then runs whole rounds of operations
through a `Clock`.  Every result is checked against `oracle` right after
the operation that produced it, outside the timed region.

maxrs functions are imported where they are called, not at the top, so
that a traced run calls the wrappers `spans.install` put in their place.
"""

from __future__ import annotations

import sys
import traceback
from functools import partial
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

import oracle


class Checks:
    """Correctness verdict of one run, plus value/OPT of approximate results."""

    def __init__(self):
        self.ok = True
        self.notes: list[str] = []
        self.ratios: list[float] = []

    def expect(self, cond: bool, what: str) -> None:
        if not cond:
            self.ok = False
            if len(self.notes) < 20:
                self.notes.append(what)

    def approx(self, value: float, opt: float, eps: float, what: str) -> None:
        """An approximate result: at most OPT, at least (1/2 - eps) OPT."""
        self.expect(value <= opt, f"{what}: value {value} above OPT {opt}")
        self.expect(value >= (0.5 - eps) * opt, f"{what}: value {value} below (1/2-eps) OPT {opt}")
        self.ratios.append(value / opt)


class Clock:
    """Closed loop: times each operation; the next starts when it returns.

    `marks` holds (operations completed, busy seconds) at the start and at
    the end of every whole round, so that statistics can be taken over
    windows of whole rounds."""

    def __init__(self, recorder=None):
        self.latencies: list[float] = []
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.recorder = recorder
        self.marks: list[tuple[int, float]] = [(0, 0.0)]

    def end_round(self) -> None:
        self.marks.append((len(self.latencies), self.busy_s))

    def run(self, fn, *args):
        """(True, result) or, if the program raised, (False, None)."""
        rec = self.recorder
        if rec is not None:
            rec.op_id = self.attempted
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception:
            self.busy_s += perf_counter() - t0
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return False, None
        finally:
            if rec is not None:
                rec.op_id = rec.BETWEEN_OPS
        dt = perf_counter() - t0
        self.busy_s += dt
        self.latencies.append(dt)
        return True, out


def _dyadic_weights(rng, n):
    # Multiples of 1/8: every sum the program or the oracle forms is exact.
    return rng.integers(4, 17, size=n) / 8.0


# -- dynamic workloads -----------------------------------------------------------


class _Dynamic:
    """Insert/delete/query against DynamicMaxRS with a live-set mirror.

    One operation is one insert or delete followed by query().  After each
    one the reported value must equal the depth counted at the reported
    point over the live balls, and n_balls must equal the live count; after
    every `checkpoint_every` operations, and at the end, the value is also
    compared with the exact optimum."""

    eps = 0.3
    c_sample = 0.25  # the default 4.0 needs more memory than the machine has
    extent = 1.0
    n_start = 1
    checkpoint_every = 1
    window_rounds = 1

    def __init__(self, seed: int, checks: Checks):
        self.rng = np.random.default_rng(seed)
        self.seed = seed
        self.checks = checks
        self.next_id = 0
        self.start = [self._draw() for _ in range(self.n_start)]
        self.centers = np.array([c for c, _, _ in self.start])
        self.weights = np.array([w for _, w, _ in self.start])
        self.ids = [bid for _, _, bid in self.start]
        self.checked = 0

    def _draw(self, c=None):
        if c is None:
            c = self.rng.uniform(-self.extent, self.extent, size=2)
        w = float(_dyadic_weights(self.rng, 1)[0])
        bid = self.next_id
        self.next_id += 1
        return (float(c[0]), float(c[1])), w, bid

    def setup(self) -> None:
        from maxrs.balls import WeightedBall
        from maxrs.dynamic import DynamicMaxRS

        self._ball = WeightedBall
        balls = [WeightedBall(c, w, id=bid) for c, w, bid in self.start]
        self.solver = DynamicMaxRS.bulk_build(balls, 2, self.eps, self.c_sample, seed=self.seed)

    def _insert(self, ball):
        self.solver.insert(ball)
        return self.solver.query()

    def _delete(self, bid):
        self.solver.delete(bid)
        return self.solver.query()

    def insert(self, clock: Clock, center=None) -> bool:
        raw = self._draw(center)
        ok, out = clock.run(self._insert, self._ball(raw[0], raw[1], id=raw[2]))
        if ok:
            self.centers = np.vstack([self.centers, [raw[0]]])
            self.weights = np.append(self.weights, raw[1])
            self.ids.append(raw[2])
            self._check(out)
        return ok

    def delete(self, clock: Clock) -> bool:
        row = int(self.rng.integers(len(self.ids)))
        ok, out = clock.run(self._delete, self.ids[row])
        if ok:
            self.centers = np.delete(self.centers, row, axis=0)
            self.weights = np.delete(self.weights, row)
            del self.ids[row]
            self._check(out)
        return ok

    def _check(self, out) -> None:
        c = self.checks
        c.expect(self.solver.n_balls == len(self.ids), f"n_balls {self.solver.n_balls} != {len(self.ids)}")
        if out is None:
            c.expect(not self.ids, "query() returned None with live balls")
            return
        self.last = out
        depth = oracle.depth_at(out.point, self.centers, self.weights)
        c.expect(out.value == depth, f"value {out.value} != depth {depth} at {out.point}")
        self.checked += 1
        if self.checked % self.checkpoint_every == 0:
            self.checkpoint()

    def checkpoint(self) -> None:
        opt = oracle.max_weighted_2d(self.centers, self.weights)
        self.checks.approx(self.last.value, opt, self.eps, f"{len(self.ids)} balls")

    def finish(self) -> None:
        self.checkpoint()


class DynamicChurn(_Dynamic):
    """Dense population; inserts and deletes alternate, so the count stays
    in one epoch window: incremental cell updates, no rebuilds."""

    extent = 7.0
    n_start = 1000  # about 5 centres per unit area
    checkpoint_every = 250
    window_rounds = 50

    def round(self, clock: Clock) -> bool:
        return self.insert(clock) and self.delete(clock)


class DynamicSprawl(_Dynamic):
    """Sparse population that grows from n to 4n + 3 and shrinks back each
    round, crossing four epoch rebuilds (at 2n + 1 and 4n + 3 growing, at
    2n + 1 and n shrinking).  Every insert lands in empty space, at least
    `clearance` from each live ball: no cell it touches (cell diagonal 0.6
    at eps 0.3) can touch another ball, so it activates its full set of
    fresh cells and its cost depends on the live count alone.  That keeps
    the cheapest inserts, where the median falls (a round has as many
    inserts as deletes, and deletes are cheaper), the same from run to
    run."""

    extent = 40.0
    n_start = 16
    checkpoint_every = 13
    clearance = 3.5  # > 2 + 2 * 0.6

    def _empty_spot(self):
        while True:
            c = self.rng.uniform(-self.extent, self.extent, size=2)
            if ((self.centers - c) ** 2).sum(axis=1).min() >= self.clearance**2:
                return c

    def round(self, clock: Clock) -> bool:
        while len(self.ids) < 4 * self.n_start + 3:
            if not self.insert(clock, self._empty_spot()):
                return False
        while len(self.ids) > self.n_start:
            if not self.delete(clock):
                return False
        return True


# -- one-shot workloads ----------------------------------------------------------


class Kind(NamedTuple):
    """One kind of one-shot call.  `make` draws a raw instance (plain lists,
    the reference answer, and a solver seed where the call takes one),
    `convert` turns it into the program's input types, `solve` is the timed
    call, `check` judges the result against the raw instance."""

    make: Callable
    convert: Callable
    solve: Callable
    check: Callable


class _OneShot:
    """Whole rounds over pools of prepared instances: a round makes one call
    per entry of `kinds`, and round r uses instance r mod `window_rounds` of
    each, so every window of `window_rounds` rounds makes the same calls."""

    window_rounds = 10
    kinds: tuple[Kind, ...] = ()

    def __init__(self, seed: int, checks: Checks):
        rng = np.random.default_rng(seed)
        self.checks = checks
        self.raw = [[k.make(rng) for _ in range(self.window_rounds)] for k in self.kinds]
        self.rounds = 0

    def setup(self) -> None:
        self.inputs = [[k.convert(r) for r in raws] for k, raws in zip(self.kinds, self.raw)]

    def round(self, clock: Clock) -> bool:
        slot = self.rounds % self.window_rounds
        for kind, raws, inputs in zip(self.kinds, self.raw, self.inputs):
            ok, out = clock.run(kind.solve, inputs[slot])
            if not ok:
                return False
            kind.check(self.checks, raws[slot], out)
        self.rounds += 1
        return True

    def finish(self) -> None:
        pass


def _solver_seed(rng) -> int:
    return int(rng.integers(2**31))


def _to_balls(raw, colored: bool):
    from maxrs.balls import ColoredBall, WeightedBall

    if colored:
        return [ColoredBall(tuple(c), int(k), id=i) for i, (c, k) in enumerate(zip(raw[0], raw[1]))]
    return [WeightedBall(tuple(c), w, id=i) for i, (c, w) in enumerate(zip(raw[0], raw[1]))]


def _to_arrays(raw, colored: bool):
    """(centres, weights or colours, d, seed) through the balls module."""
    from maxrs.balls import centers_array, colors_array, weights_array

    balls = _to_balls(raw, colored)
    labels = colors_array(balls) if colored else weights_array(balls)
    return centers_array(balls), labels, len(raw[0][0]), raw[3]


# Grid-sample solves: raw = (centres, labels, OPT, solver seed).

_SAMPLE_EPS = 0.3


def _make_random(rng, colored: bool):
    n = 20
    c = rng.uniform(-2.5, 2.5, size=(n, 2))
    if colored:
        lab = rng.integers(1, 9, size=n)
        opt = oracle.max_colored_2d(c, lab)
    else:
        lab = _dyadic_weights(rng, n)
        opt = oracle.max_weighted_2d(c, lab)
    return c.tolist(), lab.tolist(), opt, _solver_seed(rng)


def _make_planted(rng, d: int, colored: bool):
    k, decoys = (8, 40) if d == 2 else (6, 24)
    c, lab, k, _ = oracle.planted(rng, d, k, decoys, colored)
    return c.tolist(), lab.tolist(), k, _solver_seed(rng)


def _solve_sample(inst, colored: bool):
    from maxrs.sample_solver import max_colored_sample, max_weighted_sample

    solver = max_colored_sample if colored else max_weighted_sample
    return solver(inst[0], inst[1], inst[2], _SAMPLE_EPS, seed=inst[3])


def _check_sample(checks: Checks, raw, out, colored: bool):
    at = (oracle.colors_at if colored else oracle.depth_at)(out.point, raw[0], raw[1])
    checks.expect(out.value == at, f"sample value {out.value} != depth {at} at its point")
    checks.approx(out.value, raw[2], _SAMPLE_EPS, "grid sample")


def _sample_kind(make, colored: bool) -> Kind:
    return Kind(
        make,
        partial(_to_arrays, colored=colored),
        partial(_solve_sample, colored=colored),
        partial(_check_sample, colored=colored),
    )


# Min-plus convolution: raw = (A, B, C from the sum table).


def _make_minplus(rng):
    n = 400
    a = rng.integers(-1000, 1001, size=n)
    b = rng.integers(-1000, 1001, size=n)
    return a.tolist(), b.tolist(), oracle.minplus(a, b)


def _to_sequences(raw):
    return np.asarray(raw[0], dtype=np.float64), np.asarray(raw[1], dtype=np.float64)


def _solve_batched(inst):
    from maxrs.convolution import minplus_via_batched

    return minplus_via_batched(inst[0], inst[1], 50)


def _solve_bsei(inst):
    from maxrs.convolution import minplus_via_bsei

    return minplus_via_bsei(inst[0], inst[1])


def _check_minplus(checks: Checks, raw, out):
    checks.expect(np.array_equal(out, raw[2]), "min-plus result differs from the sum table")


class OneShotSample(_OneShot):
    """Grid-sample solves (weighted and coloured; random 2-d instances and
    planted 2-d/3-d ones) and the two min-plus routes through batched 1-d
    MaxRS.  No arrangement work.

    The solve time of a random instance varies a lot between instances
    (coefficient of variation about 0.4, from how much of the search the
    bounds prune); the other kinds vary by 2% to 12%.  The round is composed
    so that the percentiles fall among the steady kinds: of its 11 calls the
    random ones are among the cheaper, the four planted 3-d solves hold the
    median and the two batched min-plus calls, the slowest, hold p90."""

    window_rounds = 6
    kinds = (
        _sample_kind(partial(_make_random, colored=False), False),
        _sample_kind(partial(_make_random, colored=True), True),
        _sample_kind(partial(_make_planted, d=2, colored=False), False),
        _sample_kind(partial(_make_planted, d=2, colored=True), True),
        _sample_kind(partial(_make_planted, d=3, colored=False), False),
        _sample_kind(partial(_make_planted, d=3, colored=False), False),
        _sample_kind(partial(_make_planted, d=3, colored=True), True),
        _sample_kind(partial(_make_planted, d=3, colored=True), True),
        Kind(_make_minplus, _to_sequences, _solve_batched, _check_minplus),
        Kind(_make_minplus, _to_sequences, _solve_batched, _check_minplus),
        Kind(_make_minplus, _to_sequences, _solve_bsei, _check_minplus),
    )


# Coloured solves on clustered disks: raw = (centres, colours, OPT, solver seed).

_APPROX_EPS = 0.5
_APPROX_C1 = 0.5  # small, so the hub instances take the colour-sampling branch


def _clustered(rng, per_spot: int, n_colors: int):
    """Four clusters on a 2 x 2 grid of spots 5 apart, each `per_spot`
    disks with a normal spread of 0.5.  Clusters far enough apart to barely
    interact make the solve time a sum of four similar parts: clusters
    dropped anywhere in a square overlap by chance, and then one instance
    can take 4x the time of another."""
    spots = 5.0 * np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=np.float64)
    c = np.repeat(spots, per_spot, axis=0) + rng.normal(0.0, 0.5, size=(4 * per_spot, 2))
    return c, rng.integers(1, n_colors + 1, size=len(c))


def _make_clustered(rng):
    # Six colours: with four, corner depths settle every cell and no
    # decomposition is built; with eight or more, the solve time varies
    # much more between instances.
    c, col = _clustered(rng, 6, 6)
    return c.tolist(), col.tolist(), oracle.max_colored_2d(c, col), _solver_seed(rng)


def _make_hub(rng):
    """Clustered disks plus one disk of each of 32 colours packed around one
    spot clear of the clusters: the coarse estimate exceeds the sampling
    threshold.  The clusters draw from the same 32 colours, so the kept
    share of them follows the sampling rate."""
    c, col = _clustered(rng, 5, 32)
    hub = np.array([2.5, 10.0]) + rng.uniform(-0.35, 0.35, size=(32, 2))
    c = np.vstack([c, hub])
    col = np.concatenate([col, 1 + rng.permutation(32)])
    return c.tolist(), col.tolist(), oracle.max_colored_2d(c, col), _solver_seed(rng)


def _make_rosettes(rng):
    """Four rosettes, 5 apart: 8 to 10 disks of distinct colours whose
    centres sit 0.97 to 0.995 from a common point, so they share only a
    sliver around it.  Grid corners rarely land in a sliver, so cells there
    are settled by building a decomposition, at a cost that varies little
    between instances."""
    parts, cols = [], []
    for j in range(4):
        k = int(rng.integers(8, 11))
        p = np.array([5.0 * j, 0.0]) + rng.uniform(-0.5, 0.5, size=2)
        ang = 2.0 * np.pi * np.arange(k) / k + rng.uniform(-0.3, 0.3, size=k)
        r = rng.uniform(0.97, 0.995, size=k)
        parts.append(p + np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1))
        cols.append(1 + rng.permutation(12)[:k])
    c, col = np.vstack(parts), np.concatenate(cols)
    return c.tolist(), col.tolist(), oracle.max_colored_2d(c, col), _solver_seed(rng)


def _solve_exact(inst):
    from maxrs.colored_exact import exact_colored_maxrs_arrays

    return exact_colored_maxrs_arrays(inst[0], inst[1])


def _check_exact(checks: Checks, raw, out):
    at = oracle.colors_at(out.point, raw[0], raw[1])
    checks.expect(out.value == raw[2], f"exact value {out.value} != OPT {raw[2]}")
    checks.expect(at == out.value, f"exact witness has {at} colours, value {out.value}")


def _to_approx_input(raw):
    return _to_balls(raw, colored=True), raw[3]


def _solve_approx(inst):
    from maxrs.colored_approx import approx_colored_maxrs

    return approx_colored_maxrs(inst[0], _APPROX_EPS, _APPROX_C1, seed=inst[1], return_plan=True)


def _check_approx(checks: Checks, raw, out, exact_on_full: bool):
    res, plan = out
    branch = "exact on the full input" if exact_on_full else "colour sampling"
    checks.expect(plan.exact_on_full == exact_on_full, f"approx plan did not take {branch}")
    at = oracle.colors_at(res.point, raw[0], raw[1])
    checks.expect(at == res.value, f"approx point has {at} colours, value {res.value}")
    checks.expect(res.value <= raw[2], f"approx value {res.value} above OPT {raw[2]}")
    if plan.exact_on_full:
        checks.expect(res.value == raw[2], f"exact-on-full value {res.value} != OPT {raw[2]}")
    checks.ratios.append(res.value / raw[2])


_EXACT = Kind(_make_clustered, partial(_to_arrays, colored=True), _solve_exact, _check_exact)
_ROSETTES = Kind(_make_rosettes, partial(_to_arrays, colored=True), _solve_exact, _check_exact)


class ColoredExact(_OneShot):
    """Exact coloured solves on clustered disks and on rosettes, plus colour
    sampling: on hub instances the plan solves a sample of the colours, on
    plain clustered ones it runs exact on the full input.  Of the 7 calls
    of a round the four clustered exact solves are the cheapest and the
    steadiest, and hold the median; the other three hold p90."""

    kinds = (
        _EXACT,
        _EXACT,
        _EXACT,
        _EXACT,
        _ROSETTES,
        Kind(_make_hub, _to_approx_input, _solve_approx, partial(_check_approx, exact_on_full=False)),
        Kind(_make_clustered, _to_approx_input, _solve_approx, partial(_check_approx, exact_on_full=True)),
    )


WORKLOADS = {
    "dynamic-churn": DynamicChurn,
    "dynamic-sprawl": DynamicSprawl,
    "oneshot-sample": OneShotSample,
    "colored-exact": ColoredExact,
}
