"""Measure how dynamic update time grows with the number of balls.

Builds one structure per size, times alternating random inserts and deletes,
and fits the medians against log(n).  A flat med/log(n) column is the point:
update cost should track the sample budget, which grows logarithmically.
The far_us column is the median of 10 inserts placed at least 4 beyond every
live ball, the worst case for an insert: all of its cells are fresh.

Usage:
    python3 scripts/bench_update_scaling.py --sizes 1000 10000 --ops 120
"""

import argparse
import math
import time

import numpy as np

from maxrs.balls import WeightedBall
from maxrs.dynamic import DynamicMaxRS


def random_ball(rng, extent, bid):
    c = tuple(rng.uniform(-extent, extent, size=2))
    return WeightedBall(c, float(rng.integers(4, 17)) / 8.0, id=bid)


def run_size(n, eps, c_sample, ops, extent, seed):
    rng = np.random.default_rng(seed)
    balls = [random_ball(rng, extent, i) for i in range(n)]
    t0 = time.perf_counter()
    solver = DynamicMaxRS.bulk_build(balls, 2, eps, c_sample, seed=seed)
    build = time.perf_counter() - t0

    live = list(range(n))
    next_id = n
    times = []
    for j in range(ops):
        if j % 2 == 0:
            ball = random_ball(rng, extent, next_id)
            t0 = time.perf_counter()
            solver.insert(ball)
            times.append(time.perf_counter() - t0)
            live.append(next_id)
            next_id += 1
        else:
            bid = live.pop(int(rng.integers(len(live))))
            t0 = time.perf_counter()
            solver.delete(bid)
            times.append(time.perf_counter() - t0)
    med = 1e6 * float(np.median(times))
    cells = solver.n_active_cells

    far = []
    for k in range(10):
        ball = WeightedBall((extent + 4.0 * (k + 1), 0.0), 1.0, id=next_id + k)
        t0 = time.perf_counter()
        solver.insert(ball)
        far.append(time.perf_counter() - t0)
    return build, med, cells, 1e6 * float(np.median(far))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[1000, 10000, 100000])
    ap.add_argument("--eps", type=float, default=0.25)
    ap.add_argument("--c-sample", type=float, default=0.02)
    ap.add_argument("--ops", type=int, default=120)
    ap.add_argument("--extent", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'n':>8}  {'build_s':>8}  {'cells':>9}  {'med_us':>8}  {'med/log(n)':>10}  {'far_us':>9}")
    ratios = []
    for n in args.sizes:
        build, med, cells, far = run_size(n, args.eps, args.c_sample, args.ops, args.extent, args.seed)
        r = med / math.log(n)
        ratios.append(r)
        print(f"{n:>8}  {build:>8.2f}  {cells:>9}  {med:>8.1f}  {r:>10.2f}  {far:>9.1f}")
    if len(ratios) > 1:
        print(f"spread max/min = {max(ratios) / min(ratios):.2f}  (log-fit holds if <= 2)")


if __name__ == "__main__":
    main()
