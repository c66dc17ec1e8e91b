"""Span recorder, self-time computation and layer wrapping."""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import spans


def test_self_time_of_nested_spans():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has children d [5, 6] and e [7, 9].  Self times by hand:
    # root 10 - 3 - 4 = 3, a 3 - 1 = 2, c 1, b 4 - 1 - 2 = 1, d 1, e 2.
    start = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0]
    end = [10.0, 4.0, 3.0, 9.0, 6.0, 9.0]
    parent = [-1, 0, 1, 0, 3, 3]
    assert spans.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 1.0, 1.0, 2.0]


def test_self_time_merges_overlapping_children():
    # Children [1, 5], [3, 7] and [6, 12] of [0, 10] cover [1, 10]: self 1.
    # The third child's own span [6, 12] has no children: self 6.
    start = [0.0, 1.0, 3.0, 6.0]
    end = [10.0, 5.0, 7.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert spans.self_times(start, end, parent).tolist() == [1.0, 4.0, 4.0, 6.0]


def test_self_time_child_order_does_not_matter():
    start = [0.0, 6.0, 1.0]
    end = [8.0, 7.0, 3.0]
    parent = [-1, 0, 0]
    assert spans.self_times(start, end, parent).tolist() == [5.0, 1.0, 2.0]


def test_recorder_nests_and_saves(tmp_path):
    rec = spans.Recorder()
    rec.op_id = 4
    outer = rec.open("x.outer")
    inner = rec.open("x.inner")
    rec.close(inner)
    rec.close(outer)
    arr = rec.arrays()
    assert arr["parent"].tolist() == [-1, 0]
    assert arr["op"].tolist() == [4, 4]
    assert (arr["end"] >= arr["start"]).all()
    rec.save(tmp_path / "s.npz")
    with np.load(tmp_path / "s.npz") as z:
        assert z["names"].tolist() == ["x.outer", "x.inner"]


@pytest.fixture
def traced():
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        yield rec
    finally:
        undo()


def test_install_wraps_importers_and_counts(traced):
    import maxrs.depths
    import maxrs.dynamic
    from maxrs.balls import WeightedBall

    assert maxrs.dynamic.sphere_samples_keyed is maxrs.geometry.sphere_samples_keyed
    balls = [WeightedBall((0.0, 0.0), 1.0, id=0), WeightedBall((0.5, 0.0), 1.0, id=1)]
    s = maxrs.dynamic.DynamicMaxRS.bulk_build(balls, 2, 0.3, 0.25, seed=0)
    built = s.n_active_cells
    traced.op_id = 0
    s.insert(WeightedBall((9.0, 9.0), 1.0, id=2))
    s.query()
    maxrs.depths.weighted_depths_u(np.zeros((3, 2)), np.zeros((5, 2)), np.ones(5))
    traced.op_id = spans.Recorder.BETWEEN_OPS
    m = spans.layer_metrics(traced, 1)
    # bulk_build ran during set-up: it counts in dynamic.setup_s, not per operation.
    assert m["dynamic.bulk_build.calls"] == 0
    assert m["dynamic.setup_s"] > 0
    assert m["dynamic.insert.calls"] == 1
    assert m["dynamic.query.calls"] == 1
    assert m["dynamic.cells_activated"] == s.n_active_cells - built > 0
    assert m["dynamic.active_cells_max"] == s.n_active_cells
    assert m["dynamic.sample_budget"] == s.sample_budget
    assert m["depths.pairs"] >= 15
    assert m["geometry.sphere_samples_keyed.calls"] >= 1
    assert m["loop.ops"] == 1


def test_layer_metrics_are_per_operation():
    # Span 0 runs in set-up, spans 1 to 4 in two operations (span 3 is a
    # child of span 2), span 5 between operations.
    rec = spans.Recorder()

    def call(name, op, child=None):
        rec.op_id = op
        i = rec.open(name)
        if child:
            rec.close(rec.open(child))
        rec.close(i)
        rec.add("depths.pairs", 6)

    call("depths.weighted_depths", spans.Recorder.SETUP)
    call("depths.weighted_depths", 0)
    call("depths.weighted_depths", 1, child="geometry.box_dist2")
    call("depths.weighted_depths", 1)
    call("depths.weighted_depths", spans.Recorder.BETWEEN_OPS)
    arr = rec.arrays()
    assert arr["op"].tolist() == [-1, 0, 1, 1, 1, -2]
    selfs = spans.self_times(arr["start"], arr["end"], arr["parent"])
    m = spans.layer_metrics(rec, 2)
    assert m["depths.weighted_depths.calls"] == 1.5
    assert m["geometry.box_dist2.calls"] == 0.5
    assert m["depths.pairs"] == 9.0  # three counted calls, two operations
    assert m["depths.weighted_depths.self_s"] == pytest.approx((selfs[1] + selfs[2] + selfs[4]) / 2)
    assert m["depths.setup_s"] == pytest.approx(selfs[0])
    assert m["geometry.setup_s"] == 0.0
    assert m["loop.ops"] == 2


def test_uninstall_restores_originals():
    import maxrs.dynamic
    import maxrs.geometry

    before = maxrs.dynamic.box_dist2, maxrs.dynamic.DynamicMaxRS.__dict__["insert"]
    spans.install(spans.Recorder())()
    assert (maxrs.dynamic.box_dist2, maxrs.dynamic.DynamicMaxRS.__dict__["insert"]) == before
    assert maxrs.geometry.box_dist2 is before[0]


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(spans.metric_units())
    assert [m["unit"] for m in spec["per_layer"]] == list(spans.metric_units().values())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
