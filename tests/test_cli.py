"""End-to-end command-line runs, in process via main(argv)."""

import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from maxrs.cli import _bench_source, _build_parser, main
from maxrs.geometry import universe_with_support
from maxrs.io import load_instance, load_trace
from maxrs.sample_solver import grid_for, samples_per_cell


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_generate_planted_then_exact_colored_check(tmp_path):
    inst = tmp_path / "inst.json"
    out = tmp_path / "rows.csv"
    assert main([
        "generate", "planted", "--d", "2", "--k", "6", "--decoys", "12",
        "--colored", "--seed", "3", "--out", str(inst),
    ]) == 0
    doc = load_instance(str(inst))
    assert doc["kind"] == "colored_disks"
    assert doc["meta"]["opt"] == 6
    assert len(doc["items"]) == 18

    rc = main([
        "run", "--algo", "colored-exact", "--in", str(inst),
        "--check", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(str(out))
    assert len(rows) == 1
    assert rows[0]["value"] == "6"
    assert rows[0]["exact_match"] == "True"
    assert rows[0]["check_passed"] == "True"
    assert rows[0]["ratio"] == "1.0"


def test_colored_approx_run_reports_honest_value(tmp_path):
    inst = tmp_path / "inst.json"
    out = tmp_path / "rows.csv"
    main([
        "generate", "planted", "--d", "2", "--k", "8", "--decoys", "10",
        "--colored", "--seed", "1", "--out", str(inst),
    ])
    rc = main([
        "run", "--algo", "colored-approx", "--in", str(inst), "--eps", "0.3",
        "--check", "--trials", "2", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(str(out))
    assert len(rows) == 2
    for row in rows:
        assert row["check_passed"] == "True"
        assert int(row["value"]) <= 8


def test_static_run_with_check(tmp_path):
    inst = tmp_path / "inst.json"
    out = tmp_path / "rows.json"
    main([
        "generate", "random", "--n", "25", "--d", "2", "--seed", "5",
        "--out", str(inst),
    ])
    rc = main([
        "run", "--algo", "static", "--in", str(inst), "--eps", "0.3",
        "--c-sample", "1.0", "--check", "--format", "json", "--out", str(out),
    ])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert rows[0]["check_passed"] is True
    assert float(rows[0]["value"]) > 0.0


def test_minplus_runs_report_exact_match(tmp_path):
    inst = tmp_path / "seqs.json"
    main(["generate", "sequences", "--n", "12", "--count", "3", "--seed", "2",
          "--out", str(inst)])
    doc = load_instance(str(inst))
    assert doc["kind"] == "sequences"
    assert len(doc["items"]) == 3

    for algo in ("minplus-batched", "minplus-bsei"):
        out = tmp_path / f"{algo}.csv"
        rc = main(["run", "--algo", algo, "--in", str(inst), "--check",
                   "--out", str(out)])
        assert rc == 0
        rows = read_csv(str(out))
        assert len(rows) == 3
        assert all(r["exact_match"] == "True" for r in rows)


def test_trace_replay_with_audits(tmp_path):
    trace = tmp_path / "ops.ndjson"
    out = tmp_path / "rows.csv"
    main([
        "generate", "trace", "--n0", "15", "--ops", "40", "--query-every", "10",
        "--d", "2", "--seed", "4", "--out", str(trace),
    ])
    ops = load_trace(str(trace))
    assert ops[0]["op"] == "insert"
    assert sum(1 for o in ops if o["op"] == "query") == 5

    rc = main([
        "run", "--algo", "dynamic", "--in", str(trace), "--d", "2",
        "--eps", "0.4", "--c-sample", "0.5", "--check", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(str(out))
    assert len(rows) == 5
    assert all(r["check_passed"] == "True" for r in rows)


def test_trace_requires_dynamic_algo(tmp_path):
    trace = tmp_path / "ops.ndjson"
    main(["generate", "trace", "--n0", "3", "--ops", "2", "--out", str(trace)])
    with pytest.raises(SystemExit, match="dynamic"):
        main(["run", "--algo", "static", "--in", str(trace)])


def test_bench_emits_fit_row(tmp_path, monkeypatch):
    monkeypatch.setenv("MAXRS_THREADS", "1")
    out = tmp_path / "bench.csv"
    rc = main([
        "bench", "--n-steps", "40,80", "--ops", "30", "--d", "2",
        "--eps", "0.4", "--c-sample", "0.5", "--out", str(out),
    ])
    assert rc == 0
    rows = read_csv(str(out))
    assert [r["algorithm"] for r in rows] == ["dynamic", "dynamic", "fit"]
    assert float(rows[0]["median_us"]) > 0.0
    assert rows[2]["log_slope"] != ""


def test_thread_cap_env_is_respected(tmp_path, monkeypatch):
    # A cap of 1 must not change results, only parallelism.
    inst = tmp_path / "inst.json"
    main(["generate", "random", "--n", "10", "--m", "3", "--d", "2",
          "--seed", "0", "--out", str(inst)])
    outs = []
    for cap, name in (("1", "a.csv"), ("4", "b.csv")):
        monkeypatch.setenv("MAXRS_THREADS", cap)
        out = tmp_path / name
        rc = main(["run", "--algo", "colored-sample", "--in", str(inst),
                   "--eps", "0.3", "--trials", "3", "--check", "--out", str(out)])
        assert rc == 0
        outs.append([r["value"] for r in read_csv(str(out))])
    assert outs[0] == outs[1]


def test_bad_arguments_exit_nonzero(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--algo", "nonsense", "--in", "x.json"])
    with pytest.raises(SystemExit):
        main(["generate", "planted", "--out", str(tmp_path / "x.json")])  # no --k
    with pytest.raises(SystemExit):
        main([])


def test_readme_bench_example_parses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [ln for ln in readme.read_text().splitlines() if ln.startswith("maxrs bench ")]
    assert len(lines) == 1
    args = _build_parser().parse_args(shlex.split(lines[0])[1:])
    assert args.cmd == "bench"
    assert [int(s) for s in args.n_steps.split(",")] == [500, 1000, 2000]


@pytest.mark.parametrize("argv", [["bench"], ["bench", "--n-steps", "500,1000,2000", "--c-sample", "0.1"]])
def test_bench_storage_fits_in_one_gib(argv):
    # Stored samples and depths at the largest step, cells x t x (d + 1) x 8
    # bytes, from the bench's own input; no structure is built.
    args = _build_parser().parse_args(argv)
    n = max(int(s) for s in args.n_steps.split(","))
    _, sampler = _bench_source(args, n)
    centers = np.array([sampler()[0] for _ in range(n)])
    cells = len(universe_with_support(grid_for(args.d, args.eps), centers)[0])
    t = samples_per_cell(args.c_sample, args.eps, n)
    assert cells * t * (args.d + 1) * 8 < 2**30
