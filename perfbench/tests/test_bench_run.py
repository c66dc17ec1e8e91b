"""Windowed end-to-end statistics."""

import pytest

import run
import workloads


class _Checks:
    ratios = [1.0]


def _clock(round_latencies):
    """A Clock that ran the given rounds, each a list of latencies in s."""
    clock = workloads.Clock()
    for lats in round_latencies:
        for lat in lats:
            clock.latencies.append(lat)
            clock.busy_s += lat
        clock.end_round()
    return clock


def test_windows_hold_whole_rounds():
    clock = _clock([[0.1, 0.2]] * 5)
    assert run.windows(clock, 2) == [(0, 4, pytest.approx(0.6)), (4, 8, pytest.approx(0.6))]
    # Fewer rounds than one window: the whole run is the window.
    assert run.windows(clock, 9) == [(0, 10, pytest.approx(1.5))]


def test_slow_windows_do_not_move_the_figures():
    # Five windows of ten 10 ms operations; two of them ran at half speed.
    rounds = [[0.010] * 10, [0.020] * 10, [0.010] * 10, [0.020] * 10, [0.010] * 10]
    m = run.end_to_end(_clock(rounds), _Checks(), 0.5, 1)
    assert m["throughput_ops_s"] == pytest.approx(100.0)
    assert m["latency_p50_ms"] == pytest.approx(10.0)
    assert m["latency_p90_ms"] == pytest.approx(10.0)
    assert m["setup_s"] == 0.5
    assert m["quality_ratio"] == 1.0


def test_fast_quarter_of_windows_is_reported():
    # Window throughputs 100, 50, 25 and 20 ops/s: the 75th percentile,
    # interpolated, is 62.5; latencies 10, 20, 40, 50 ms give 17.5.
    rounds = [[t] * 4 for t in (0.010, 0.020, 0.040, 0.050)]
    m = run.end_to_end(_clock(rounds), _Checks(), 0.0, 1)
    assert m["throughput_ops_s"] == pytest.approx(62.5)
    assert m["latency_p50_ms"] == pytest.approx(17.5)
    assert m["latency_p90_ms"] == pytest.approx(17.5)


def test_percentiles_are_taken_within_each_window():
    # One window: latencies 1..10 ms, so p50 5.5 ms and p90 9.1 ms.
    m = run.end_to_end(_clock([[i / 1e3 for i in range(1, 11)]]), _Checks(), 0.0, 1)
    assert m["latency_p50_ms"] == pytest.approx(5.5)
    assert m["latency_p90_ms"] == pytest.approx(9.1)
    assert m["throughput_ops_s"] == pytest.approx(10 / 0.055)
