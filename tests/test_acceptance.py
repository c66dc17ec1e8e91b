"""Package-level acceptance checks.

One test per shipped guarantee, each recording a PASS/FAIL line that the
terminal summary prints as a checklist.  Tolerances are stated inline; a
criterion with a wall-clock budget times itself and fails when over.  The
final check (update-time scaling) is informational: it records its line but
never fails the suite.
"""

import math
import time

import numpy as np
import pytest

from maxrs.colored_approx import approx_colored_maxrs
from maxrs.colored_exact import exact_colored_maxrs_arrays, decomposition_max_depth, _bbox_for
from maxrs.convolution import (
    build_batched_instance,
    minplus_bruteforce,
    minplus_via_batched,
    minplus_via_bsei,
)
from maxrs.balls import ColoredBall, WeightedBall
from maxrs.disk_union import arc_intersections, perturb_centers, union_arcs
from maxrs.dynamic import DynamicMaxRS
from maxrs.geometry import cap_fraction_2d, cap_fraction_bound, make_grid_collection
from maxrs.oracles import (
    brute_colored_depth,
    brute_colored_maxrs_disks,
    brute_maxrs_disks_2d,
    make_planted,
)
from maxrs.sample_solver import max_colored_sample, max_weighted_sample

from conftest import record_acceptance


def check(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    record_acceptance(f"ACCEPTANCE {num:02d} {tag} {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def test_c01_minplus_via_batched_bit_exact():
    t0 = time.perf_counter()
    bad = []
    for n in (8, 16, 32, 64):
        for m in (1, n // 4, n):
            for s in range(100):
                rng = np.random.default_rng((1, n, m, s))
                a = rng.integers(-50, 51, size=n)
                b = rng.integers(-50, 51, size=n)
                got = minplus_via_batched(a, b, m)
                want = minplus_bruteforce(a, b)
                if not np.array_equal(got, want):
                    bad.append((n, m, s))
    elapsed = time.perf_counter() - t0
    check(
        1,
        "batched-interval route reproduces min-plus convolution bit-exactly, "
        "100 seeds x 12 size/batch combos, < 10 s",
        not bad and elapsed < 10.0,
        f"{elapsed:.1f}s, mismatches={len(bad)}",
    )


def test_c02_minplus_via_bsei_bit_exact():
    t0 = time.perf_counter()
    bad = 0
    for s in range(100):
        rng = np.random.default_rng((2, s))
        n = int(rng.integers(1, 65))
        a = rng.integers(-50, 51, size=n)
        b = rng.integers(-50, 51, size=n)
        if not np.array_equal(minplus_via_bsei(a, b), minplus_bruteforce(a, b)):
            bad += 1
    elapsed = time.perf_counter() - t0
    check(
        2,
        "enclosing-interval route reproduces min-plus convolution bit-exactly, "
        "100 seeds n <= 64, < 5 s",
        bad == 0 and elapsed < 5.0,
        f"{elapsed:.1f}s, mismatches={bad}",
    )


def test_c03_interval_weight_identity():
    bad = 0
    for s in range(50):
        rng = np.random.default_rng((3, s))
        n = int(rng.integers(1, 33))
        a = rng.integers(0, 100, size=n).astype(np.float64)
        b = rng.integers(0, 100, size=n).astype(np.float64)
        inst = build_batched_instance(a, b, range(n))
        for i in range(n):
            for j in range(n):
                lo, hi = float(i), float(2 * n - 1 - j)
                m = (inst.xs >= lo) & (inst.xs <= hi)
                if float(inst.ws[m].sum()) != a[i] + b[j]:
                    bad += 1
    check(
        3,
        "closed interval from value point i to value point j weighs exactly "
        "A_i + B_j, all pairs on 50 constructions",
        bad == 0,
        f"violations={bad}",
    )


def test_c04_exact_colored_matches_brute():
    t0 = time.perf_counter()
    bad = 0
    for s in range(100):
        rng = np.random.default_rng((4, s))
        n = int(rng.integers(1, 101))
        m = int(rng.integers(1, 11))
        centers = rng.uniform(-3.0, 3.0, size=(n, 2))
        colors = rng.integers(1, m + 1, size=n)
        got = exact_colored_maxrs_arrays(centers, colors).value
        want, _ = brute_colored_maxrs_disks(centers, colors)
        if got != want:
            bad += 1
    elapsed = time.perf_counter() - t0
    check(
        4,
        "exact colored-disk solver equals brute-force optimum, 100 seeds "
        "n <= 100 disks m <= 10 colors, < 60 s",
        bad == 0 and elapsed < 60.0,
        f"{elapsed:.1f}s, mismatches={bad}",
    )


def test_c05_decomposition_depths_at_witnesses():
    done = 0
    bad = 0
    seed = 0
    while done < 30:
        rng = np.random.default_rng((5, seed))
        seed += 1
        n = int(rng.integers(6, 14))
        centers = perturb_centers(rng.uniform(-2.2, 2.2, size=(n, 2)))
        colors = rng.integers(1, 4, size=n)
        arcs = union_arcs(centers, colors)
        if not arcs or len(arcs) > 60:
            continue
        done += 1
        _, _, dec = decomposition_max_depth(arcs, _bbox_for(centers))
        for cell in dec.cells:
            if cell.depth != brute_colored_depth(cell.witness, centers, colors):
                bad += 1
    check(
        5,
        "every traversed decomposition cell depth equals brute colored depth "
        "at its witness, 30 instances <= 60 arcs",
        bad == 0,
        f"bad_cells={bad}",
    )


def test_c06_static_half_eps_on_planted():
    t0 = time.perf_counter()
    succ = {2: 0, 3: 0}
    for d in (2, 3):
        for s in range(100):
            rng = np.random.default_rng((6, d, s))
            k = int(rng.integers(10, 51))
            inst = make_planted(d=d, k=k, n_decoys=200, seed=s)
            out = max_weighted_sample(inst.centers, inst.weights, d, 0.2, 4.0, seed=s)
            ok = out is not None and out.value >= 0.3 * k
            if d == 2 and ok:
                opt, _ = brute_maxrs_disks_2d(inst.centers, inst.weights)
                ok = out.value >= 0.3 * opt
            succ[d] += bool(ok)
    elapsed = time.perf_counter() - t0
    check(
        6,
        "grid-sample solver reaches (1/2 - eps) of the planted optimum in "
        ">= 99/100 runs for d=2 and d=3 at eps=0.2, < 120 s",
        succ[2] >= 99 and succ[3] >= 99 and elapsed < 120.0,
        f"{elapsed:.1f}s, d2={succ[2]}/100, d3={succ[3]}/100",
    )


def test_c07_dynamic_audits_stay_exact():
    rng = np.random.default_rng((7, 0))
    solver = DynamicMaxRS(2, 0.45, 0.2, 0)
    live = []
    next_id = 0
    audits = 0
    clean = 0
    for op in range(1, 10_001):
        if live and (len(live) >= 500 or rng.random() < 0.45):
            i = int(rng.integers(len(live)))
            solver.delete(live.pop(i))
        else:
            c = tuple(rng.uniform(-8.0, 8.0, size=2))
            w = float(rng.integers(4, 17)) / 8.0
            solver.insert(WeightedBall(c, w, id=next_id))
            live.append(next_id)
            next_id += 1
        if op % 100 == 0:
            audits += 1
            err, bad = solver.audit()
            clean += err == 0.0 and bad == 0
    check(
        7,
        "after 10^4 random updates (n <= 500), all 100 checkpoint audits find "
        "every stored sample depth exact",
        audits == 100 and clean == 100,
        f"clean={clean}/{audits}, final_n={solver.n_balls}",
    )


def test_c08_dynamic_queries_track_shrinking_optimum():
    good = 0
    for s in range(100):
        rng = np.random.default_rng((8, s))
        k = int(rng.integers(10, 21))
        inst = make_planted(d=2, k=k, n_decoys=10, seed=s)
        balls = inst.balls()
        solver = DynamicMaxRS(2, 0.2, 0.15, s)
        for i in rng.permutation(inst.n):
            solver.insert(balls[i])
        ok = solver.query().value >= 0.3 * k
        k_live = k
        for i in rng.permutation(inst.n):
            solver.delete(int(balls[i].id))
            if i < k:
                k_live -= 1
            res = solver.query()
            if k_live > 0:
                ok &= res is not None and res.value >= 0.3 * k_live
            elif solver.n_balls > 0:
                ok &= res is not None and res.value >= 0.3
        good += bool(ok)
    check(
        8,
        "replaying insert-then-delete planted workloads, every query reaches "
        "(1/2 - eps) of the current optimum in >= 99/100 runs at eps=0.2",
        good >= 99,
        f"good={good}/100",
    )


def test_c09_colored_sampler_on_planted():
    good = 0
    for d in (2, 3):
        for s in range(50):
            rng = np.random.default_rng((9, d, s))
            k = int(rng.integers(10, 31))
            inst = make_planted(d=d, k=k, n_decoys=30, seed=s, colored=True)
            out = max_colored_sample(inst.centers, inst.colors, d, 0.2, 4.0, seed=s)
            good += out is not None and out.value >= 0.3 * k
    check(
        9,
        "colored grid sampler reaches (1/2 - eps) of the planted distinct-color "
        "optimum in >= 99/100 runs over d in {2,3} at eps=0.2",
        good >= 99,
        f"good={good}/100",
    )


def test_c10_colored_approx_high_accuracy():
    deep = 0
    for s in range(100):
        inst = make_planted(d=2, k=200, n_decoys=1800, seed=s, colored=True)
        res = approx_colored_maxrs(inst.colored_balls(), eps=0.3, c1=8.0, seed=s)
        deep += res.value >= 140

    exact_match = 0
    for s in range(100):
        rng = np.random.default_rng((10, s))
        n = int(rng.integers(5, 41))
        centers = rng.uniform(-2.5, 2.5, size=(n, 2))
        colors = rng.integers(1, 7, size=n)
        balls = [ColoredBall(tuple(c), int(col)) for c, col in zip(centers, colors)]
        res, plan = approx_colored_maxrs(balls, eps=0.3, c1=8.0, seed=s, return_plan=True)
        ref = exact_colored_maxrs_arrays(centers, colors)
        exact_match += plan.exact_on_full and res.value == ref.value and res.point == ref.point
    check(
        10,
        "color-sampling approximation scores >= 140 on planted optimum 200 "
        "(n=2000, eps=0.3) in >= 95/100 seeds; small-estimate inputs match the "
        "exact solver 100/100",
        deep >= 95 and exact_match == 100,
        f"deep={deep}/100, exact_branch={exact_match}/100",
    )


def test_c11_cap_fraction_formula():
    val = cap_fraction_2d(0.1)
    formula_ok = abs(val - 0.45240) <= 1e-4

    # Monte Carlo of the worst case the formula captures: circle of radius
    # eps around the cell center, unit disk centered 1 + eps^2 away.
    eps = 0.1
    rng = np.random.default_rng(11)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=10**6)
    px = eps * np.cos(theta) - (1.0 + eps * eps)
    py = eps * np.sin(theta)
    mc = float(np.mean(px * px + py * py <= 1.0))
    mc_ok = abs(mc - val) <= 1e-2

    sweep_ok = True
    for d in (2, 3):
        for e in np.linspace(0.02, 0.45, 24):
            b = cap_fraction_2d(e) if d == 2 else cap_fraction_bound(d, float(e))
            sweep_ok &= b >= 0.5 - 2.0 * e
    check(
        11,
        "covered cap fraction: closed form 0.45240 +- 1e-4 at eps=0.1, Monte "
        "Carlo within 1e-2, and >= 1/2 - 2 eps across the sweep",
        formula_ok and mc_ok and sweep_ok,
        f"formula={val:.5f}, mc={mc:.5f}",
    )


def test_c12_shifted_grid_coverage():
    configs = [(2, 1.0, 0.25), (1, 2.0, 0.5), (2, 0.3536, 0.0625), (3, 0.231, 0.04), (1, 1.0, 1.0)]
    bad = 0
    for d, s, delta in configs:
        gc = make_grid_collection(d, s, delta)
        rng = np.random.default_rng((12, d))
        pts = rng.uniform(-10.0 * s, 10.0 * s, size=(10_000, d))
        covered = np.zeros(len(pts), dtype=bool)
        for g in range(gc.n_grids):
            off = gc.offsets[g]
            z = np.floor((pts - off) / s)
            centers = off + (z + 0.5) * s
            diff = pts - centers
            covered |= np.einsum("ij,ij->i", diff, diff) <= delta * delta
        bad += int((~covered).sum())
    check(
        12,
        "every random point is within delta of its cell center in some "
        "shifted grid, 10^4 points x 5 grid configurations",
        bad == 0,
        f"uncovered={bad}",
    )


def test_c13_two_color_crossing_bound():
    worst = 0.0
    bad = 0
    for s in range(100):
        rng = np.random.default_rng((13, s))
        n = int(rng.integers(1, 51))
        centers = perturb_centers(rng.uniform(-2.5, 2.5, size=(2 * n, 2)))
        colors = np.array([1] * n + [2] * n)
        hits = arc_intersections(union_arcs(centers, colors))
        worst = max(worst, len(hits) / (6.0 * 2 * n))
        if len(hits) > 6 * 2 * n:
            bad += 1
    check(
        13,
        "boundary crossings between two same-size color unions stay within "
        "6(n_R + n_B), 100 instances n_R = n_B <= 50",
        bad == 0,
        f"worst_fill={worst:.2f}",
    )


def test_c14_update_time_scaling_report():
    meds = []
    for n in (1_000, 10_000, 100_000):
        rng = np.random.default_rng((14, n))
        balls = [
            WeightedBall(tuple(c), float(w) / 8.0, id=i)
            for i, (c, w) in enumerate(
                zip(rng.uniform(-10.0, 10.0, size=(n, 2)), rng.integers(4, 17, size=n))
            )
        ]
        solver = DynamicMaxRS.bulk_build(balls, 2, 0.25, 0.02, seed=0)
        live = list(range(n))
        next_id = n
        times = []
        for j in range(120):
            if j % 2 == 0:
                ball = WeightedBall(tuple(rng.uniform(-10.0, 10.0, size=2)),
                                    float(rng.integers(4, 17)) / 8.0, id=next_id)
                t0 = time.perf_counter()
                solver.insert(ball)
                times.append(time.perf_counter() - t0)
                live.append(next_id)
                next_id += 1
            else:
                i = int(rng.integers(len(live)))
                bid = live.pop(i)
                t0 = time.perf_counter()
                solver.delete(bid)
                times.append(time.perf_counter() - t0)
        meds.append(1e6 * float(np.median(times)))
    ratios = [m / math.log(n) for m, n in zip(meds, (1_000, 10_000, 100_000))]
    spread = max(ratios) / min(ratios)
    fit_ok = spread <= 4.0
    # Informational: recorded, never failing.
    tag = "PASS" if fit_ok else "FAIL"
    record_acceptance(
        f"ACCEPTANCE 14 {tag} median update time fits a*log(n) within factor 4 "
        f"over n in {{1e3,1e4,1e5}} (non-gating; med_us={meds[0]:.0f}/{meds[1]:.0f}/"
        f"{meds[2]:.0f}, spread={spread:.2f})"
    )
