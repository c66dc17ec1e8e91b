"""Shifted grid family, keyed RNG streams, and cap-coverage formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxrs.geometry import (
    _splitmix64,
    adaptive_simpson,
    cap_fraction_2d,
    cap_fraction_bound,
    cell_of,
    cell_stream_key,
    cell_stream_keys,
    cells_intersecting_ball,
    cells_near_ball,
    make_grid_collection,
    mix_key,
    mix_keys,
    sphere_samples_keyed,
)

MASK64 = (1 << 64) - 1


def sm64_ref(x: int) -> int:
    # Plain-integer transcription of the splitmix64 step, kept separate from
    # the vectorized uint64 implementation on purpose.
    z = (x + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def test_splitmix_matches_published_value():
    # First output of the reference stream seeded at 0.
    assert sm64_ref(0) == 0xE220A8397B1DCDAF
    assert int(_splitmix64(np.array([0], dtype=np.uint64))[0]) == 0xE220A8397B1DCDAF


def test_splitmix_matches_reference_on_edge_states():
    xs = np.array([0, 1, 2, 0x9E3779B97F4A7C15, MASK64, 1 << 63, 12345], dtype=np.uint64)
    for x, got in zip(xs.tolist(), _splitmix64(xs).tolist()):
        assert got == sm64_ref(x)


def test_mix_key_is_deterministic_and_order_sensitive():
    assert mix_key((1, 2, 3)) == mix_key((1, 2, 3))
    assert mix_key((1, 2, 3)) != mix_key((3, 2, 1))
    assert mix_key((0,)) != mix_key((0, 0))
    # negative ints fold through two's complement, not an error
    assert 0 <= mix_key((-5, 7)) <= MASK64


def fold_ref(parts) -> int:
    k = 1 << 63
    for p in parts:
        k = sm64_ref(k ^ (int(p) & MASK64))
    return k


def test_mix_key_matches_plain_integer_fold():
    for parts in ((1, 2, 3), (-5, 7), (0,), (2**64 - 1, -(2**63)), (2**70 + 3, -(2**62), 9)):
        assert mix_key(parts) == fold_ref(parts)


def test_mix_keys_match_mix_key_per_entry():
    ids = np.array([0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63)], dtype=np.int64)
    big = [2**64 - 1, 2**70, -(2**65), 5, 0, -3, 2**63]
    keys = mix_keys([11, ids, big, np.arange(3)[:, None, None]])
    assert keys.dtype == np.uint64 and keys.shape == (3, 1, len(ids))
    for ax in range(3):
        for i in range(len(ids)):
            assert int(keys[ax, 0, i]) == mix_key((11, int(ids[i]), big[i], ax))
    unsigned = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
    assert mix_keys([unsigned]).tolist() == [mix_key((int(v),)) for v in unsigned]


def test_cell_stream_keys_match_scalar_path():
    gs = np.array([0, 3, 3, 7], dtype=np.int64)
    zs = np.array([[0, 0], [-2, 5], [-2, 6], [11, -4]], dtype=np.int64)
    vec = cell_stream_keys(99, 2, gs, zs)
    for g, z, k in zip(gs, zs, vec):
        assert int(k) == cell_stream_key(99, 2, int(g), tuple(int(v) for v in z))


def test_grid_collection_shift_counts():
    eps = 0.5
    gc = make_grid_collection(2, 2 * eps / math.sqrt(2), eps * eps)
    assert gc.shifts_per_axis == 4
    assert gc.n_grids == 16

    gc1 = make_grid_collection(1, 0.7, 0.7)
    assert gc1.shifts_per_axis == 1
    assert gc1.n_grids == 1
    assert np.allclose(gc1.offsets, 0.0)

    gc3 = make_grid_collection(3, 1.0, 0.25)
    assert gc3.shifts_per_axis == 7
    assert gc3.n_grids == 343


def test_grid_collection_step_never_exceeds_target():
    for d, s, delta in [(1, 2.0, 0.5), (2, 1.0, 0.25), (3, 0.2309, 0.04), (2, 0.354, 0.0625)]:
        gc = make_grid_collection(d, s, delta)
        # rounding r up can only shrink the per-axis step
        assert gc.shift_step <= delta / math.sqrt(d) + 1e-12
        assert gc.offsets.shape == (gc.n_grids, d)


def test_grid_collection_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_grid_collection(0, 1.0, 0.5)
    with pytest.raises(ValueError):
        make_grid_collection(2, -1.0, 0.5)
    with pytest.raises(ValueError):
        make_grid_collection(2, 1.0, 0.0)


def test_cell_of_basic_arithmetic():
    gc = make_grid_collection(1, 2.0, 2.0)
    key, center = cell_of(gc, 0, (0.5,))
    assert key.lattice == (0,)
    assert center == pytest.approx((1.0,))


def test_cell_of_shifted_grid():
    # r=2 shifts of step 0.5; grid (1,1) carries offset (0.5, 0.5)
    gc = make_grid_collection(2, 1.0, 1.0)
    assert gc.shifts_per_axis == 2
    g = 1 * 2 + 1
    assert tuple(gc.offsets[g]) == (0.5, 0.5)
    key, center = cell_of(gc, g, (0.0, 0.0))
    assert key.lattice == (-1, -1)
    assert tuple(center) == (0.0, 0.0)


def test_cell_of_contains_its_point():
    rng = np.random.default_rng(3)
    gc = make_grid_collection(2, 1.0, 0.25)
    for p in rng.uniform(-4, 4, size=(50, 2)):
        for g in range(0, gc.n_grids, 7):
            key, _ = cell_of(gc, g, p)
            lo = gc.offsets[g] + np.array(key.lattice) * gc.cell_side
            assert np.all(lo <= p) and np.all(p < lo + gc.cell_side)


def test_some_grid_centers_every_point():
    rng = np.random.default_rng(11)
    for d, s, delta in [(1, 2.0, 0.5), (2, 1.0, 0.25), (2, 0.3536, 0.0625)]:
        gc = make_grid_collection(d, s, delta)
        pts = rng.uniform(-5, 5, size=(60, d))
        for p in pts:
            best = min(
                float(np.linalg.norm(p - cell_of(gc, g, p)[1]))
                for g in range(gc.n_grids)
            )
            assert best <= delta + 1e-12


def test_cells_intersecting_ball_interval_case():
    gc = make_grid_collection(1, 2.0, 2.0)
    keys = cells_intersecting_ball(gc, 0, (1.0,))
    lattices = sorted(k.lattice[0] for k in keys)
    # boxes [-2,0], [0,2], and [2,4]; the last touches at distance exactly 1
    assert lattices == [-1, 0, 1]


def test_cells_intersecting_ball_matches_brute_scan():
    rng = np.random.default_rng(4)
    gc = make_grid_collection(2, 0.8, 0.2)
    for _ in range(20):
        c = rng.uniform(-3, 3, size=2)
        g = int(rng.integers(gc.n_grids))
        got = {k.lattice for k in cells_intersecting_ball(gc, g, c)}
        want = set()
        for z0 in range(-10, 10):
            for z1 in range(-10, 10):
                lo = gc.offsets[g] + np.array([z0, z1]) * gc.cell_side
                gap = np.maximum(np.maximum(lo - c, c - (lo + gc.cell_side)), 0.0)
                if float(gap @ gap) <= 1.0:
                    want.add((z0, z1))
        assert got == want


def test_cells_near_ball_matches_per_grid_enumeration():
    # The all-grid window, and its grid-0 slice, give each grid's cells in
    # the order of a per-grid sweep, edge-case centers included.
    from helpers import enumeration_edge_centers

    rng = np.random.default_rng(5)
    for d, s, delta in [(1, 0.6, 0.09), (2, 0.42, 0.09), (3, 0.52, 0.2)]:
        gc = make_grid_collection(d, s, delta)
        kinds = enumeration_edge_centers(rng, gc, 6) + [("random", rng.uniform(-3, 3, size=(6, d)))]
        for _, centers in kinds:
            for c in centers:
                for radius in (1.0, 1.0 + gc.circumradius + 1e-9):
                    want = [
                        (k.grid_index, *k.lattice)
                        for g in range(gc.n_grids)
                        for k in cells_intersecting_ball(gc, g, c, radius)
                    ]
                    gs, zs = cells_near_ball(gc, c, radius)
                    assert [(g, *z) for g, z in zip(gs.tolist(), zs.tolist())] == want
                    _, z0 = cells_near_ball(gc, c, radius, slice(1))
                    assert [(0, *z) for z in z0.tolist()] == want[: len(z0)]


def test_sphere_samples_sit_on_the_sphere():
    c = np.array([0.5, -1.0, 2.0])
    keys = np.arange(500, dtype=np.uint64)
    pts = sphere_samples_keyed(np.tile(c, (500, 1)), 0.7, 3, keys).reshape(-1, 3)
    r = np.linalg.norm(pts - c, axis=1)
    assert np.max(np.abs(r - 0.7)) <= 1e-9


def test_sphere_samples_look_uniform():
    pts = sphere_samples_keyed(np.zeros((10, 2)), 1.0, 1000, np.arange(10, dtype=np.uint64)).reshape(-1, 2)
    assert np.max(np.abs(pts.mean(axis=0))) < 0.05
    # any fixed half-space through the center gets about half the mass
    frac = float(np.mean(pts @ np.array([0.6, 0.8]) > 0))
    assert abs(frac - 0.5) < 0.05


def test_keyed_samples_are_deterministic_and_key_local():
    centers = np.array([[0.0, 0.0], [3.0, 1.0], [0.0, 0.0]])
    keys = np.array([7, 8, 7], dtype=np.uint64)
    a = sphere_samples_keyed(centers, 0.25, 9, keys)
    b = sphere_samples_keyed(centers, 0.25, 9, keys)
    assert np.array_equal(a, b)
    # same key, same center: identical stream; different key: different
    assert np.array_equal(a[0], a[2])
    assert not np.array_equal(a[0], a[1] - np.array([3.0, 1.0]))
    r = np.linalg.norm(a - centers[:, None, :], axis=2)
    assert np.max(np.abs(r - 0.25)) <= 1e-9


def test_keyed_samples_ignore_batch_context():
    centers = np.array([[1.0, -2.0], [4.0, 4.0]])
    keys = np.array([123, 456], dtype=np.uint64)
    both = sphere_samples_keyed(centers, 0.3, 5, keys)
    solo = sphere_samples_keyed(centers[1:], 0.3, 5, keys[1:])
    assert np.array_equal(both[1], solo[0])


def test_adaptive_simpson_on_known_integrals():
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-9)
    assert adaptive_simpson(lambda t: t * t, 0.0, 1.0) == pytest.approx(1 / 3, abs=1e-12)
    assert adaptive_simpson(math.exp, 0.0, 0.0) == 0.0


def test_cap_fraction_2d_reference_value():
    assert cap_fraction_2d(0.1) == pytest.approx(0.45240, abs=1e-4)
    # limit toward 0: arccos(0)/pi = 1/2
    assert cap_fraction_2d(1e-6) == pytest.approx(0.5, abs=1e-5)
    with pytest.raises(ValueError):
        cap_fraction_2d(0.0)
    with pytest.raises(ValueError):
        cap_fraction_2d(0.5)


def test_cap_fraction_2d_monte_carlo():
    # fraction of the radius-eps circle at the origin covered by the unit
    # disk centered at (0, 1 + eps^2)
    eps = 0.1
    rng = np.random.default_rng(12)
    theta = rng.uniform(0.0, 2 * math.pi, size=200_000)
    x = eps * np.cos(theta)
    y = eps * np.sin(theta)
    inside = x * x + (y - (1 + eps * eps)) ** 2 <= 1.0
    assert abs(float(inside.mean()) - cap_fraction_2d(eps)) < 1e-2


def test_cap_fraction_bound_d3_closed_form():
    # for d=3 the integral is G_1(x) = x, so the bound is 1/2 - q/2
    eps = 0.1
    b = (3 * eps * eps + eps**4) / (2 + 2 * eps * eps)
    assert cap_fraction_bound(3, eps) == pytest.approx(0.5 - (b / eps) / 2, abs=1e-12)
    assert cap_fraction_bound(3, eps) == pytest.approx(0.42549, abs=1e-4)


def test_cap_fraction_bound_approaches_half():
    for d in (2, 3, 4, 6):
        assert cap_fraction_bound(d, 1e-4) == pytest.approx(0.5, abs=1e-3)


@given(st.floats(min_value=0.005, max_value=0.495))
@settings(max_examples=60, deadline=None)
def test_cap_fraction_stays_above_linear_bound(eps):
    assert cap_fraction_2d(eps) >= 0.5 - 2 * eps - 1e-12
