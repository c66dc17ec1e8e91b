"""maxrs benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload dynamic-churn --seed 1 --seconds 25 --trace 0

After the program's set-up and one warm-up round, runs whole rounds of
the workload's operations until --seconds of timed operation time have
passed, checks every result against the benchmark's own reference
computations, and prints one JSON object as the last line of standard
output: correct, attempted, failed and the metrics (the end-to-end ones
with --trace 0, the per-layer ones with --trace 1).  The program is
imported from src/ of the checkout this file sits in.
"""

import argparse
import gc
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOAD_NAMES = ("dynamic-churn", "dynamic-sprawl", "oneshot-sample", "colored-exact")

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "quality_ratio": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def windows(clock, rounds: int) -> list[tuple[int, int, float]]:
    """(first op, end op, busy seconds) of each window of `rounds` whole
    rounds; the whole run as one window if it made fewer rounds."""
    marks = clock.marks[::rounds]
    if len(marks) < 2:
        marks = [clock.marks[0], (len(clock.latencies), clock.busy_s)]
    return [(a, b, tb - ta) for (a, ta), (b, tb) in zip(marks, marks[1:]) if b > a]


# Quantile of the per-window figures reported: the fastest quarter.
FAST_QUARTER = 25


def end_to_end(clock, checks, setup_s, window_rounds: int) -> dict:
    """Throughput and latency percentiles are taken per window of whole
    rounds, and the figure reported is the one the fastest quarter of the
    run's windows reach: the 75th percentile of window throughputs, the
    25th of window latencies.  Every window makes the same calls (or, on
    the dynamic workloads, calls of the same make-up), so windows differ by
    how much other work on the host slowed them, which only ever adds
    time; load from elsewhere that slows up to three quarters of a run's
    windows then leaves the figure where the program puts it."""
    import numpy as np

    lat_ms = 1e3 * np.asarray(clock.latencies)
    per = [
        (
            (b - a) / busy,
            np.percentile(lat_ms[a:b], 50),
            np.percentile(lat_ms[a:b], 90),
        )
        for a, b, busy in windows(clock, window_rounds)
    ]
    if per:
        thr, p50, p90 = (np.asarray(col) for col in zip(*per))
        thr = float(np.percentile(thr, 100 - FAST_QUARTER))
        p50 = float(np.percentile(p50, FAST_QUARTER))
        p90 = float(np.percentile(p90, FAST_QUARTER))
    else:
        thr = p50 = p90 = 0.0
    return {
        "setup_s": setup_s,
        "throughput_ops_s": thr,
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality_ratio": float(np.mean(checks.ratios)) if checks.ratios else 0.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "maxrs" / "__init__.py").is_file():
        print(f"perfbench: program sources not found: {src / 'maxrs'} is missing", file=sys.stderr)
        return 2
    # One thread throughout: the load model is one closed-loop client, and
    # BLAS threads would make timings depend on what else runs on the host.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    # Load the program (and numpy) before the set-up clock starts: setup_s
    # times the program's own set-up work, not the interpreter's imports.
    import maxrs  # noqa: F401

    import spans
    import workloads

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install(recorder)

    checks = workloads.Checks()
    wl = workloads.WORKLOADS[args.workload](args.seed, checks)
    # Collect the garbage of input generation and move the benchmark's own
    # objects (instances, reference data) out of the collector's sight, so
    # that collections inside timed regions scan the program's objects only.
    gc.collect()
    gc.freeze()
    t0 = perf_counter()
    wl.setup()
    setup_s = perf_counter() - t0
    # One warm-up round, checked like any other: first calls pay for lazy
    # loading and cold caches, which belong to set-up, not to the timed
    # operations.  Its calls count in set-up time (their own time, not the
    # checks between them) and in `attempted`, and not as timed operations.
    warm = workloads.Clock()
    warmed = wl.round(warm)
    setup_s += warm.busy_s

    clock = workloads.Clock(recorder)
    clock.attempted, clock.failed = warm.attempted, warm.failed
    if not warmed:
        checks.expect(False, "an operation raised in the warm-up round; run stopped")
    else:
        while clock.busy_s < args.seconds:
            if not wl.round(clock):
                # State after a failed operation is unknown; stop here.
                checks.expect(False, "an operation raised; run stopped")
                break
            clock.end_round()
        else:
            wl.finish()
    e2e = end_to_end(clock, checks, setup_s, wl.window_rounds)
    if recorder is not None:
        values = spans.layer_metrics(recorder, len(clock.latencies))
        units = spans.metric_units()
    else:
        values, units = e2e, END_TO_END_UNITS
    for note in checks.notes:
        print(f"perfbench: check failed: {note}", file=sys.stderr)

    result = {
        "correct": checks.ok,
        "attempted": clock.attempted,
        "failed": clock.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w") as fh:
        raw = {"latencies_s": clock.latencies, "round_marks": clock.marks}
        json.dump({"end_to_end": e2e, **result, **raw}, fh)
    if recorder is not None:
        recorder.save(RESULTS / f"{stem}-spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
