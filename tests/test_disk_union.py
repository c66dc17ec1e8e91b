"""Union boundaries of colored unit disks: arcs, crossings, predicates."""

import math

import numpy as np
import pytest

from maxrs.disk_union import (
    SNAP,
    arc_intersections,
    boundary_arcs,
    circle_intersections,
    dedupe_exact,
    perturb_centers,
    point_in_union,
    split_monotone_angles,
    union_arcs,
)
from maxrs.geometry import mix_key

TWO_PI = 2.0 * math.pi


def test_perturb_is_idempotent():
    rng = np.random.default_rng(40)
    centers = rng.uniform(-3, 3, size=(20, 2))
    once = perturb_centers(centers)
    twice = perturb_centers(once)
    assert np.array_equal(once, twice)


def test_perturb_moves_points_negligibly():
    rng = np.random.default_rng(41)
    centers = rng.uniform(-3, 3, size=(50, 2))
    moved = perturb_centers(centers)
    assert np.abs(moved - centers).max() <= 0.5 * SNAP + 2.0**-40


def test_perturb_separates_identical_centers():
    centers = np.zeros((3, 2))
    moved = perturb_centers(centers, ids=[0, 1, 2])
    assert len({tuple(row) for row in moved}) == 3


def _perturb_ref(centers, ids=None):
    """Per-(disk, axis) mix_key loop the vectorized perturbation replaced."""
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    n, d = centers.shape
    if ids is None:
        ids = np.arange(n)
    snapped = np.round(centers / SNAP) * SNAP
    off = np.empty_like(snapped)
    for i, disk_id in enumerate(ids):
        for ax in range(d):
            u = mix_key((int(disk_id), ax, 0x5EED)) / 2.0**64
            off[i, ax] = (u - 0.5) * 2.0**-40
    return snapped + off


def test_perturb_matches_per_disk_loop_bitwise():
    rng = np.random.default_rng(42)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        d = int(rng.integers(1, 4))
        centers = rng.uniform(-50.0, 50.0, size=(n, d))
        id_sets = (
            None,
            rng.permutation(n) + 1000,
            rng.integers(-(2**62), 2**62, size=n),
            [int(v) for v in rng.integers(-40, 0, size=n)],
        )
        for ids in id_sets:
            got = perturb_centers(centers, ids)
            assert got.tobytes() == _perturb_ref(centers, ids).tobytes()
            # idempotence holds for the reference and the vectorized form alike
            assert perturb_centers(got, ids).tobytes() == _perturb_ref(got, ids).tobytes()
            assert perturb_centers(got, ids).tobytes() == got.tobytes()


def test_dedupe_exact_keeps_first_occurrences():
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    colors = [1, 1, 1, 2]
    c, col, idx = dedupe_exact(centers, colors)
    assert idx.tolist() == [0, 1, 3]  # same center, new color survives
    assert col.tolist() == [1, 1, 2]
    assert c.shape == (3, 2)


def test_split_full_circle():
    assert split_monotone_angles(0.0, TWO_PI) == [(0.0, math.pi), (math.pi, TWO_PI)]
    assert split_monotone_angles(1.0, 1.0 + TWO_PI) == [(0.0, math.pi), (math.pi, TWO_PI)]


@pytest.mark.parametrize("a,b", [(0.5, 1.0), (2.0, 4.0), (6.0, 6.8), (3.0, 3.2), (-1.0, 1.0)])
def test_split_pieces_are_monotone_and_complete(a, b):
    pieces = split_monotone_angles(a, b)
    assert sum(t1 - t0 for t0, t1 in pieces) == pytest.approx(b - a, abs=1e-12)
    for t0, t1 in pieces:
        assert 0.0 <= t0 < t1 <= TWO_PI
        # no piece straddles an extreme-x angle
        assert not (t0 < math.pi < t1)
        assert pieces[0][0] == pytest.approx(a % TWO_PI, abs=1e-12) or t0 in (0.0, math.pi)


def test_split_rejects_empty_range():
    with pytest.raises(ValueError):
        split_monotone_angles(1.0, 1.0)
    with pytest.raises(ValueError):
        split_monotone_angles(2.0, 1.0)


def test_single_disk_gives_two_semicircles():
    arcs = union_arcs(np.array([[0.25, -0.5]]), [3])
    assert len(arcs) == 2
    spans = sorted((a.t0, a.t1) for a in arcs)
    assert spans == [(0.0, math.pi), (math.pi, TWO_PI)]
    uppers = {a.upper for a in arcs}
    assert uppers == {True, False}
    assert all(a.color == 3 for a in arcs)


def test_two_overlapping_disks_make_four_arcs():
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    arcs = union_arcs(centers, [1, 1])
    assert len(arcs) == 4
    # The lens endpoints sit at both circles' crossings.
    pts = circle_intersections(centers[0], centers[1])
    assert len(pts) == 2
    ys = sorted(y for _, y in pts)
    assert ys[0] == pytest.approx(-math.sqrt(3) / 2, abs=1e-12)
    assert ys[1] == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    assert all(x == pytest.approx(0.5, abs=1e-12) for x, _ in pts)
    # no arc dips into the neighbor disk
    for a in arcs:
        mid = 0.5 * (a.t0 + a.t1)
        p = np.array([a.cx + math.cos(mid), a.cy + math.sin(mid)])
        other = centers[1] if (a.cx, a.cy) == (0.0, 0.0) else centers[0]
        assert ((p - other) ** 2).sum() > 1.0


def test_fully_covered_disk_contributes_nothing():
    centers = np.array([[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]])
    arcs = boundary_arcs(centers, color=1, ids=np.arange(5))
    assert all(a.disk_id != 0 for a in arcs)
    assert len(arcs) > 0


def test_arc_midpoints_lie_on_union_boundary():
    rng = np.random.default_rng(42)
    centers = perturb_centers(rng.uniform(-2, 2, size=(12, 2)))
    arcs = boundary_arcs(centers, color=1, ids=np.arange(12))
    for a in arcs:
        mid = 0.5 * (a.t0 + a.t1)
        p = np.array([a.cx + math.cos(mid), a.cy + math.sin(mid)])
        # pull a hair inside the own disk so rounding cannot eject the probe
        inside = np.array([a.cx, a.cy]) + (1.0 - 1e-9) * (p - np.array([a.cx, a.cy]))
        assert point_in_union(inside, centers)
        others = centers[np.arange(12) != a.disk_id]
        d2 = ((others - p) ** 2).sum(axis=1)
        assert d2.min() >= 1.0 - 1e-9


def test_circle_intersection_degenerate_cases():
    assert circle_intersections((0.0, 0.0), (2.0, 0.0)) == []
    assert circle_intersections((0.0, 0.0), (2.5, 0.0)) == []
    assert circle_intersections((0.0, 0.0), (0.0, 0.0)) == []
    pts = circle_intersections((0.0, 0.0), (0.0, 1.2))
    assert len(pts) == 2
    for p in pts:
        assert math.hypot(*p) == pytest.approx(1.0, abs=1e-12)
        assert math.hypot(p[0], p[1] - 1.2) == pytest.approx(1.0, abs=1e-12)


def test_point_in_union_is_closed():
    centers = np.array([[0.0, 0.0], [3.0, 0.0]])
    assert point_in_union((1.0, 0.0), centers)
    assert point_in_union((4.0, 0.0), centers)
    assert not point_in_union((1.0 + 1e-9, 1e-9), np.array([[0.0, 0.0]]))


def test_two_color_crossings_match_circle_geometry():
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    arcs = union_arcs(centers, [1, 2])
    hits = arc_intersections(arcs)
    got = sorted((round(p.x, 9), round(p.y, 9)) for p in hits)
    want = sorted(
        (round(x, 9), round(y, 9)) for x, y in circle_intersections(centers[0], centers[1])
    )
    assert got == want
    for p in hits:
        assert p.arc_a.color != p.arc_b.color


def test_distant_unions_do_not_intersect():
    centers = np.array([[0.0, 0.0], [0.5, 0.2], [6.0, 6.0], [6.4, 5.8]])
    arcs = union_arcs(centers, [1, 1, 2, 2])
    assert arc_intersections(arcs) == []


def test_tangent_circles_raise():
    arcs = union_arcs(np.array([[0.0, 0.0], [2.0, 0.0]]), [1, 2])
    with pytest.raises(ValueError, match="tangent"):
        arc_intersections(arcs)


def test_coincident_circles_raise():
    arcs = union_arcs(np.array([[0.5, 0.5], [0.5, 0.5]]), [1, 2])
    with pytest.raises(ValueError, match="coincident"):
        arc_intersections(arcs)


def test_crossing_count_stays_linear():
    # Two-color unions of unit disks cross a bounded number of times.
    rng = np.random.default_rng(43)
    n = 15
    centers = perturb_centers(rng.uniform(-2.5, 2.5, size=(2 * n, 2)))
    colors = np.array([1] * n + [2] * n)
    hits = arc_intersections(union_arcs(centers, colors))
    assert len(hits) <= 6 * 2 * n
