"""Batch experiment harness.

Subcommands:
  generate   write a deterministic instance or operation-trace file
  run        run an algorithm over an instance, emit one result row per
             trial (JSON or CSV), optionally with oracle checks
  bench      update-heavy dynamic workloads at geometric sizes, with
             median/95th-percentile per-update times and a fitted
             log-slope

Every result row carries the seed and the full configuration, so re-running
a row's configuration reproduces its value field exactly (timing excluded).
Exit code 0 iff every requested oracle comparison passed.  MAXRS_THREADS
caps trial parallelism.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from maxrs import io as mio
from maxrs.balls import WeightedBall, centers_array, colors_array, weights_array
from maxrs.colored_approx import approx_colored_maxrs
from maxrs.colored_exact import exact_colored_maxrs
from maxrs.colored_sample import colored_solve
from maxrs.convolution import minplus_bruteforce, minplus_via_batched, minplus_via_bsei
from maxrs.dynamic import DynamicMaxRS, static_solve
from maxrs.oracles import (
    brute_colored_depth,
    brute_colored_maxrs_disks,
    brute_depth,
    make_planted,
)

__all__ = ["RunConfig", "main"]

_ALGOS = (
    "static",
    "dynamic",
    "colored-sample",
    "colored-exact",
    "colored-approx",
    "minplus-batched",
    "minplus-bsei",
)


@dataclass(frozen=True)
class RunConfig:
    algo: str
    d: int
    eps: float
    c_sample: float
    c1: float
    seed: int
    path: str
    trials: int
    check: bool
    out: str | None
    fmt: str


def _threads(n_tasks: int) -> int:
    cap = int(os.environ.get("MAXRS_THREADS", "0") or 0)
    if cap <= 0:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


def _emit(rows: list[dict], out: str | None, fmt: str) -> None:
    fields = sorted({k for r in rows for k in r})
    preferred = [
        "algorithm", "trial", "n", "m", "d", "eps", "c_sample", "c1", "seed",
        "value", "opt_if_known", "ratio", "wall_ms", "exact_match", "check_passed",
    ]
    fields = [f for f in preferred if f in fields] + [f for f in fields if f not in preferred]
    if out is None:
        for r in rows:
            print(", ".join(f"{k}={r[k]}" for k in fields if k in r))
    elif fmt == "csv":
        mio.write_csv(out, rows, fields)
    else:
        mio.write_json_rows(out, rows)


# ---------------------------------------------------------------- generate

def _gen_planted(args) -> None:
    inst = make_planted(args.d, args.k, args.decoys, args.seed, colored=args.colored)
    kind = "colored_disks" if args.colored else "balls"
    items = []
    for i in range(inst.n):
        it = {"center": [float(x) for x in inst.centers[i]], "id": i}
        if args.colored:
            it["color"] = int(inst.colors[i])
        else:
            it["weight"] = float(inst.weights[i])
        items.append(it)
    meta = {
        "generator": "planted",
        "k": args.k,
        "decoys": args.decoys,
        "seed": args.seed,
        "opt": inst.opt,
        "point": [float(x) for x in inst.point],
    }
    mio.save_instance(args.out, kind, args.d, items, meta)


def _gen_random(args) -> None:
    rng = np.random.default_rng(args.seed)
    centers = rng.uniform(-args.extent, args.extent, size=(args.n, args.d))
    items = []
    for i in range(args.n):
        it = {"center": [float(x) for x in centers[i]], "id": i}
        if args.m > 0:
            it["color"] = int(rng.integers(1, args.m + 1))
        else:
            it["weight"] = float(rng.uniform(0.5, 2.0))
        items.append(it)
    kind = "colored_disks" if args.m > 0 else "balls"
    meta = {"generator": "random", "n": args.n, "m": args.m, "seed": args.seed}
    mio.save_instance(args.out, kind, args.d, items, meta)


def _gen_sequences(args) -> None:
    rng = np.random.default_rng(args.seed)
    items = []
    for _ in range(args.count):
        a = [int(v) for v in rng.integers(-20, 21, size=args.n)]
        b = [int(v) for v in rng.integers(-20, 21, size=args.n)]
        items.append({"A": a, "B": b})
    meta = {"generator": "sequences", "n": args.n, "count": args.count, "seed": args.seed}
    mio.save_instance(args.out, "sequences", 1, items, meta)


def _gen_trace(args) -> None:
    rng = np.random.default_rng(args.seed)
    ops: list[dict] = []
    live: list[int] = []
    next_id = 0

    def random_ball():
        nonlocal next_id
        c = [float(x) for x in rng.uniform(-args.extent, args.extent, size=args.d)]
        op = {"op": "insert", "center": c, "weight": float(rng.uniform(0.5, 2.0)), "id": next_id}
        live.append(next_id)
        next_id += 1
        return op

    for _ in range(args.n0):
        ops.append(random_ball())
    ops.append({"op": "query"})
    for j in range(args.ops):
        if live and rng.random() < 0.5:
            i = int(rng.integers(len(live)))
            ops.append({"op": "delete", "id": live.pop(i)})
        else:
            ops.append(random_ball())
        if (j + 1) % args.query_every == 0:
            ops.append({"op": "query"})
    mio.save_trace(args.out, ops)


# -------------------------------------------------------------------- run

def _load_any(path: str):
    try:
        return mio.load_instance(path), None
    except (ValueError, KeyError, TypeError):
        # not a whole-file JSON instance: newline-delimited trace
        return None, mio.load_trace(path)


def _row_base(cfg: RunConfig, trial: int, n, m, d) -> dict:
    return {
        "algorithm": cfg.algo,
        "trial": trial,
        "n": n,
        "m": m,
        "d": d,
        "eps": cfg.eps,
        "c_sample": cfg.c_sample,
        "c1": cfg.c1,
        "seed": cfg.seed + trial,
        "value": "",
        "opt_if_known": "",
        "ratio": "",
        "wall_ms": 0.0,
        "check_passed": "",
    }


def _ball_trial(cfg: RunConfig, doc: dict, trial: int) -> dict:
    balls = mio.instance_balls(doc)
    d = int(doc["d"])
    colored = doc["kind"] == "colored_disks"
    m = len({b.color for b in balls}) if colored else ""
    row = _row_base(cfg, trial, len(balls), m, d)
    meta = doc.get("meta", {})
    opt_known = meta.get("opt")
    seed = cfg.seed + trial

    centers = centers_array(balls)
    t0 = time.perf_counter()
    point = None
    if cfg.algo == "static":
        res = static_solve(balls, d, cfg.eps, cfg.c_sample, seed)
        value = 0.0 if res is None else res.value
        point = None if res is None else res.point
    elif cfg.algo == "colored-sample":
        res = colored_solve(balls, d, cfg.eps, cfg.c_sample, seed)
        value = 0 if res is None else int(res.value)
        point = None if res is None else res.point
    elif cfg.algo == "colored-exact":
        res = exact_colored_maxrs(balls)
        value = res.value
        point = res.point
    elif cfg.algo == "colored-approx":
        res = approx_colored_maxrs(balls, cfg.eps, cfg.c1, seed)
        value = 0 if res is None else res.value
        point = None if res is None else res.point
    else:
        raise ValueError(f"algorithm {cfg.algo} does not apply to {doc['kind']}")
    row["wall_ms"] = round(1e3 * (time.perf_counter() - t0), 3)
    row["value"] = value

    if cfg.check and point is not None:
        ok = True
        if colored:
            honest = brute_colored_depth(np.array(point), centers, colors_array(balls))
            ok &= honest == value
            if cfg.algo == "colored-exact":
                opt, _ = brute_colored_maxrs_disks(centers, colors_array(balls))
                ok &= value == opt
                opt_known = opt
                row["exact_match"] = bool(value == opt)
        else:
            honest = brute_depth(np.array(point), centers, weights_array(balls))
            ok &= abs(honest - value) <= 1e-9
        row["check_passed"] = bool(ok)
    if opt_known:
        row["opt_if_known"] = opt_known
        row["ratio"] = round(float(value) / float(opt_known), 6)
    return row


def _sequence_trial(cfg: RunConfig, item: dict, trial: int) -> dict:
    a = np.array([int(v) for v in item["A"]], dtype=np.int64)
    b = np.array([int(v) for v in item["B"]], dtype=np.int64)
    row = _row_base(cfg, trial, len(a), "", 1)
    t0 = time.perf_counter()
    if cfg.algo == "minplus-batched":
        c = minplus_via_batched(a, b, max(1, int(round(len(a) ** 0.5))))
    else:
        c = minplus_via_bsei(a, b)
    row["wall_ms"] = round(1e3 * (time.perf_counter() - t0), 3)
    row["value"] = float(np.sum(c))
    if cfg.check:
        want = minplus_bruteforce(a, b)
        match = bool(np.array_equal(np.asarray(c, dtype=np.int64), np.asarray(want, dtype=np.int64)))
        row["exact_match"] = match
        row["check_passed"] = match
    return row


def _dynamic_replay(cfg: RunConfig, ops: list[dict]) -> list[dict]:
    solver = DynamicMaxRS(cfg.d, cfg.eps, cfg.c_sample, cfg.seed)
    rows = []
    qi = 0
    for op in ops:
        kind = op["op"]
        if kind == "insert":
            solver.insert(WeightedBall(tuple(op["center"]), float(op["weight"]), id=op.get("id")))
        elif kind == "delete":
            solver.delete(op["id"])
        elif kind == "query":
            row = _row_base(cfg, qi, solver.n_balls, "", cfg.d)
            t0 = time.perf_counter()
            res = solver.query()
            row["wall_ms"] = round(1e3 * (time.perf_counter() - t0), 3)
            row["value"] = 0.0 if res is None else res.value
            if cfg.check:
                err, bad = solver.audit()
                row["check_passed"] = bool(err <= 1e-9 and bad == 0)
            rows.append(row)
            qi += 1
        else:
            raise ValueError(f"unknown trace op {kind!r}")
    return rows


def _cmd_run(args) -> int:
    cfg = RunConfig(
        algo=args.algo, d=args.d, eps=args.eps, c_sample=args.c_sample,
        c1=args.c1, seed=args.seed, path=getattr(args, "in"), trials=args.trials,
        check=args.check, out=args.out, fmt=args.format,
    )
    doc, trace = _load_any(cfg.path)
    if trace is not None:
        if cfg.algo != "dynamic":
            raise SystemExit("trace input requires --algo dynamic")
        rows = _dynamic_replay(cfg, trace)
    elif doc["kind"] == "sequences":
        items = doc["items"]
        with ThreadPoolExecutor(_threads(len(items))) as pool:
            rows = list(pool.map(lambda t: _sequence_trial(cfg, items[t], t), range(len(items))))
    elif doc["kind"] in ("balls", "colored_disks"):
        with ThreadPoolExecutor(_threads(cfg.trials)) as pool:
            rows = list(pool.map(lambda t: _ball_trial(cfg, doc, t), range(cfg.trials)))
    else:
        raise SystemExit(f"cannot run {cfg.algo} on instance kind {doc['kind']}")
    _emit(rows, cfg.out, cfg.fmt)
    failed = [r for r in rows if r.get("check_passed") is False]
    return 1 if failed else 0


# ------------------------------------------------------------------ bench

def _bench_source(args, n: int):
    """The step-n ball stream: its rng and a sampler of (center, weight),
    centers uniform in a cube whose volume grows with n."""
    rng = np.random.default_rng(args.seed + n)
    extent = max(2.0, 1.2 * n ** (1.0 / args.d))
    sampler = lambda: (
        tuple(float(x) for x in rng.uniform(-extent, extent, size=args.d)),
        float(rng.uniform(0.5, 2.0)),
    )
    return rng, sampler


def _bench_step(args, n: int) -> dict:
    rng, sampler = _bench_source(args, n)
    balls = []
    for i in range(n):
        c, w = sampler()
        balls.append(WeightedBall(c, w, id=i))
    solver = DynamicMaxRS.bulk_build(balls, args.d, args.eps, args.c_sample, args.seed)
    live = [b.id for b in balls]
    next_id = n
    times = np.empty(args.ops, dtype=np.float64)
    for j in range(args.ops):
        # alternate insert/delete so n stays inside the epoch window and the
        # steady-state update path is what gets timed
        if j % 2 == 0:
            c, w = sampler()
            ball = WeightedBall(c, w, id=next_id)
            t0 = time.perf_counter()
            solver.insert(ball)
            times[j] = time.perf_counter() - t0
            live.append(next_id)
            next_id += 1
        else:
            i = int(rng.integers(len(live)))
            bid = live.pop(i)
            t0 = time.perf_counter()
            solver.delete(bid)
            times[j] = time.perf_counter() - t0
    return {
        "algorithm": "dynamic",
        "n": n,
        "ops": args.ops,
        "median_us": round(1e6 * float(np.median(times)), 2),
        "p95_us": round(1e6 * float(np.quantile(times, 0.95)), 2),
        "wall_ms": round(1e3 * float(times.sum()), 1),
        "eps": args.eps,
        "c_sample": args.c_sample,
        "seed": args.seed,
        "log_slope": "",
    }


def _cmd_bench(args) -> int:
    steps = [int(s) for s in args.n_steps.split(",")]
    rows = [_bench_step(args, n) for n in steps]
    if len(rows) >= 2:
        xs = np.log([r["n"] for r in rows])
        ys = np.array([r["median_us"] for r in rows])
        slope, intercept = np.polyfit(xs, ys, 1)
        rows.append({
            "algorithm": "fit",
            "n": "",
            "ops": "",
            "median_us": "",
            "p95_us": "",
            "wall_ms": "",
            "eps": args.eps,
            "c_sample": args.c_sample,
            "seed": args.seed,
            "log_slope": round(float(slope), 4),
        })
    fields = ["algorithm", "n", "ops", "median_us", "p95_us", "wall_ms",
              "eps", "c_sample", "seed", "log_slope"]
    if args.out and args.format == "csv":
        mio.write_csv(args.out, rows, fields)
    elif args.out:
        mio.write_json_rows(args.out, rows)
    else:
        for r in rows:
            print(", ".join(f"{k}={r[k]}" for k in fields))
    return 0


# ------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="maxrs", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="write an instance or trace file")
    gs = g.add_subparsers(dest="gen", required=True)

    gp = gs.add_parser("planted", help="cluster with known optimum plus decoys")
    gp.add_argument("--d", type=int, default=2)
    gp.add_argument("--k", type=int, required=True)
    gp.add_argument("--decoys", type=int, default=0)
    gp.add_argument("--colored", action="store_true")
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--out", required=True)
    gp.set_defaults(fn=_gen_planted)

    gr = gs.add_parser("random", help="uniform random balls or colored disks")
    gr.add_argument("--n", type=int, required=True)
    gr.add_argument("--m", type=int, default=0, help="colors; 0 = weighted balls")
    gr.add_argument("--d", type=int, default=2)
    gr.add_argument("--extent", type=float, default=3.0)
    gr.add_argument("--seed", type=int, default=0)
    gr.add_argument("--out", required=True)
    gr.set_defaults(fn=_gen_random)

    gq = gs.add_parser("sequences", help="integer sequence pairs for the reductions")
    gq.add_argument("--n", type=int, required=True)
    gq.add_argument("--count", type=int, default=1)
    gq.add_argument("--seed", type=int, default=0)
    gq.add_argument("--out", required=True)
    gq.set_defaults(fn=_gen_sequences)

    gt = gs.add_parser("trace", help="insert/delete/query operation trace")
    gt.add_argument("--n0", type=int, default=50)
    gt.add_argument("--ops", type=int, default=200)
    gt.add_argument("--query-every", type=int, default=50)
    gt.add_argument("--d", type=int, default=2)
    gt.add_argument("--extent", type=float, default=5.0)
    gt.add_argument("--seed", type=int, default=0)
    gt.add_argument("--out", required=True)
    gt.set_defaults(fn=_gen_trace)

    r = sub.add_parser("run", help="run an algorithm over an instance")
    r.add_argument("--algo", choices=_ALGOS, required=True)
    r.add_argument("--in", required=True)
    r.add_argument("--d", type=int, default=2)
    r.add_argument("--eps", type=float, default=0.2)
    r.add_argument("--c-sample", type=float, default=4.0)
    r.add_argument("--c1", type=float, default=8.0)
    r.add_argument("--seed", type=int, default=0)
    r.add_argument("--trials", type=int, default=1)
    r.add_argument("--check", action="store_true", help="run oracle comparisons")
    r.add_argument("--out")
    r.add_argument("--format", choices=("json", "csv"), default="csv")
    r.set_defaults(fn=None)

    b = sub.add_parser("bench", help="dynamic update-time benchmark")
    # Stored samples and depths take cells x t x (d + 1) x 8 bytes; these
    # defaults keep that near 0.16 GiB at the largest step.
    b.add_argument("--n-steps", default="250,500,1000")
    b.add_argument("--ops", type=int, default=2000)
    b.add_argument("--d", type=int, default=2)
    b.add_argument("--eps", type=float, default=0.3)
    b.add_argument("--c-sample", type=float, default=0.1)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out")
    b.add_argument("--format", choices=("json", "csv"), default="csv")
    b.set_defaults(fn=None)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.cmd == "generate":
        args.fn(args)
        return 0
    if args.cmd == "run":
        return _cmd_run(args)
    return _cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
