"""Tests of the benchmark's own plumbing (no workload is run here)."""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from bench import compare, harness, run
from bench.workloads import WORKLOADS

SPEC = harness.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
MODULES = {w: importlib.import_module(f"bench.workloads.{w}")
           for w in WORKLOADS}


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    rec = harness.SpanRecorder("r", clock=clock)
    with rec.span("bench.root") as root:
        clock.now = 1.0
        with rec.span("nn.forward"):
            clock.now = 4.0
            with rec.span("autograd.op") as inner:
                clock.now = 5.0
        clock.now = 6.0
        with rec.span("nn.forward"):
            clock.now = 8.0
        clock.now = 10.0
    selfs = harness.self_times(rec.spans)
    assert selfs[root.span_id] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[inner.span_id] == pytest.approx(1.0)
    by_name = harness.self_seconds_by_name(rec.spans)
    assert by_name["nn.forward"] == pytest.approx(3.0 + 2.0)
    assert harness.unattributed_frac(rec.spans) == pytest.approx(0.4)
    assert {s.run_id for s in rec.spans} == {"r"}
    assert inner.parent_id == rec.spans[1].span_id


def test_overlapping_and_overhanging_children_count_once():
    clock = FakeClock()
    rec = harness.SpanRecorder("r", clock=clock)
    parent = rec.start("serve.tiling.forward")
    a = rec.start("tile.compute", parent=parent)        # [0, 6]
    clock.now = 2.0
    b = rec.start("tile.compute", parent=parent)        # [2, 12] overhangs
    clock.now = 6.0
    a.finish()
    clock.now = 10.0
    parent.finish()
    clock.now = 12.0
    b.finish()
    b.finish()                                           # idempotent
    assert b.end == 12.0
    # children cover [0, 10] of the parent exactly once
    assert harness.self_times(rec.spans)[parent.span_id] == pytest.approx(0.0)


def test_recorder_is_accepted_as_a_tiling_tracer():
    """``tiled_forward(tracer=rec, trace_parent=span)`` calls exactly
    ``tracer.start(name, parent=..., tile=i)`` and ``span.finish()``."""
    rec = harness.SpanRecorder("r")
    with rec.span("serve.tiling.forward") as parent:
        span = rec.start("tile.compute", parent=parent, tile=3)
        span.finish()
    assert span.parent_id == parent.span_id and span.end is not None


# --------------------------------------------------------------------- #
# Percentile rule, run_for
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("n, expected", [
    (5, 50.0), (19, 50.0), (20, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (600, 95.0), (999, 95.0), (1000, 99.0), (1200, 99.0),
    (10_000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected
    if n >= 20:
        assert round(n * (100.0 - expected) / 100.0, 6) >= harness.MIN_TAIL_SAMPLES


def test_run_for_stops_when_half_an_operation_no_longer_fits(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(harness.time, "perf_counter", clock)

    def op():
        clock.now += 1.0

    assert len(harness.run_for(op, seconds=3.2)) == 3     # 3.0 + 0.5 > 3.2
    assert len(harness.run_for(op, seconds=0.1)) == 1     # always one
    assert len(harness.run_for(op, seconds=0.1, min_ops=2)) == 2


# --------------------------------------------------------------------- #
# Load generators
# --------------------------------------------------------------------- #
def test_open_loop_charges_a_stall_to_the_requests_it_delayed():
    """A server whose submit blocks once for 40 ms: the requests due
    during the stall go out late, and their latency — measured from when
    they were *due* — includes that wait, although each was answered the
    moment it was sent."""
    stall_at, stall_s, rate = 2, 0.040, 200.0

    def submit(i):
        if i == stall_at:
            time.sleep(stall_s)
        fut = Future()
        fut.set_result(i * 10)
        return fut

    r = harness.open_loop(submit, list(range(12)), rate, keep=(0, 5))
    assert r.sent == 12 and r.failed == 0 and r.outstanding_at_end == 0
    assert r.replies == {0: 0, 5: 50}
    victim = stall_at + 1                      # due 5 ms into the stall
    assert r.late_ms[victim] > 25.0
    assert r.latency_ms[victim] >= r.late_ms[victim]
    assert r.latency_ms[0] < 20.0              # answered at once, on time
    assert max(r.late_ms[:stall_at]) < 20.0
    assert r.latency_ms[stall_at] >= stall_s * 1e3


def test_failed_and_refused_requests_miss_every_limit():
    def submit(i):
        if i == 1:
            raise RuntimeError("refused")
        fut = Future()
        if i == 2:
            fut.set_exception(ValueError("boom"))
        else:
            fut.set_result(None)
        return fut

    r = harness.open_loop(submit, list(range(4)), rate=500.0)
    assert (r.sent, r.failed, r.completed) == (4, 2, 2)
    assert r.latency_ms[1] == r.latency_ms[2] == float("inf")
    assert harness.percentile(r.latency_ms, 95.0) == float("inf")


def test_closed_loop_keeps_a_fixed_number_outstanding():
    lock = threading.Lock()
    state = {"now": 0, "peak": 0}

    def submit(_):
        fut = Future()
        with lock:
            state["now"] += 1
            state["peak"] = max(state["peak"], state["now"])

        def answer():
            with lock:
                state["now"] -= 1
            fut.set_result(None)

        threading.Timer(0.004, answer).start()
        return fut

    r = harness.closed_loop(submit, list(range(10_000)), concurrency=4,
                            seconds=0.25)
    assert state["peak"] == 4 and state["now"] == 0
    assert r.failed == 0 and 20 < r.sent < 10_000
    assert len(r.latency_ms) == r.sent
    assert all(ms >= 3.5 for ms in r.latency_ms)


# --------------------------------------------------------------------- #
# Generated inputs
# --------------------------------------------------------------------- #
def _blob(inputs: dict) -> bytes:
    return b"".join(k.encode() + np.ascontiguousarray(v).tobytes()
                    for k, v in sorted(inputs.items()))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed_alone(workload):
    make = MODULES[workload].make_inputs
    assert _blob(make(7, 0)) == _blob(make(7, 0))
    assert _blob(make(7, 0)) != _blob(make(8, 0))
    if WORKLOADS[workload].replicated:
        drop = lambda d: {k: v for k, v in d.items() if k != "verify"}
        assert _blob(drop(make(7, 0))) == _blob(drop(make(7, 1)))
    else:
        assert _blob(make(7, 0)) != _blob(make(7, 1))


# --------------------------------------------------------------------- #
# Metric names: BENCHMARK.json <=> workload declarations <=> results
# --------------------------------------------------------------------- #
def test_benchmark_json_meets_the_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60


def test_declared_per_layer_names_are_exactly_the_benchmark_json_names():
    declared = set().union(*(m.PER_LAYER for m in MODULES.values()))
    assert declared == {m["name"] for m in SPEC["per_layer"]}
    for mod in MODULES.values():
        assert len(mod.PER_LAYER) == len(set(mod.PER_LAYER))
        assert {"trace_overhead_frac",
                "trace_unattributed_frac"} <= set(mod.PER_LAYER)


def test_committed_results_carry_exactly_the_declared_names():
    results = sorted((harness.ROOT / "bench" / "results").glob("*.json"))
    assert results, "no baseline results committed under bench/results/"
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for path in results:
        doc = json.loads(path.read_text())
        assert {"nproc", "blas_env", "python", "numpy", "scipy", "git_sha",
                "seed", "quick"} <= set(doc["host"])
        for workload, row in doc["workloads"].items():
            assert set(row["end_to_end"]) == e2e, (path.name, workload)
            assert set(row["per_layer"]) == set(MODULES[workload].PER_LAYER)
            assert row["failed"] == 0, (path.name, workload)


# --------------------------------------------------------------------- #
# Aggregation over worker parts (workers faked)
# --------------------------------------------------------------------- #
def _part(op_ms, setup_s=1.0, rss=100.0, items=10.0, wall_s=1.0,
          fingerprint=(), failures=()):
    return {"setup_s": setup_s, "peak_rss_mb": rss, "op_ms": list(op_ms),
            "items": items, "wall_s": wall_s, "attempted": len(op_ms),
            "failed": 0, "fingerprint": list(fingerprint),
            "failures": list(failures)}


def test_untraced_pass_pools_samples_and_takes_medians(monkeypatch):
    parts = [_part([10, 30], setup_s=9.0, rss=300), _part([20], setup_s=1.0),
             _part([40, 50], setup_s=2.0, wall_s=2.0)]
    monkeypatch.setattr(run, "_run_worker",
                        lambda w, seed, k, seconds, trace: parts[k])
    r = run.run_pass("train_dp2d", 0, 9.0, 0)
    assert set(r["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert r["metrics"]["op_ms"]["value"] == 30.0        # pooled median
    assert r["metrics"]["setup_s"] == {"value": 2.0, "unit": "s"}
    assert r["metrics"]["peak_rss_mb"]["value"] == 100.0
    assert r["metrics"]["work_per_s"]["value"] == pytest.approx(30 / 4)
    assert (r["correct"], r["attempted"], r["failed"]) == (True, 5, 0)
    # solve_gmg3d: the parts are the pieces of one operation
    r = run.run_pass("solve_gmg3d", 0, 9.0, 0)
    assert r["metrics"]["op_ms"]["value"] == 20.0 + 20.0 + 45.0


def test_replicated_parts_must_agree_and_failures_count(monkeypatch):
    parts = [_part([1], fingerprint=[0.5, 0.25]),
             _part([1], fingerprint=[0.5, 0.25 + 1e-7]),
             _part([1], fingerprint=[0.5, 0.26], failures=["bad field"])]
    monkeypatch.setattr(run, "_run_worker",
                        lambda w, seed, k, seconds, trace: parts[k])
    r = run.run_pass("predict_tiled3d", 0, 9.0, 0)
    assert not r["correct"] and r["failed"] == 2
    assert r["failures"] == ["bad field",
                             "part 2 produced a different field than part 0"]


def test_traced_pass_reports_every_per_layer_metric(monkeypatch):
    measured = {"fem.gmg_cycles": 26, "trace_overhead_frac": 0.01}
    monkeypatch.setattr(run, "_run_worker", lambda *a: {
        "metrics": dict(measured), "failures": [], "run_id": "r",
        "spans": []})
    r = run.run_pass("solve_gmg3d", 0, 9.0, 1)
    assert set(r["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert r["metrics"]["fem.gmg_cycles"] == {"value": 26.0, "unit": "count"}
    assert r["metrics"]["serve.cache.hit_rate"]["value"] == 0.0
    line = json.loads(run._contract_line(r))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    measured["no.such.metric"] = 1.0
    with pytest.raises(RuntimeError, match="no.such.metric"):
        run.run_pass("solve_gmg3d", 0, 9.0, 1)


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(harness.SPEC_PATH, tmp_path)
    shutil.copytree(harness.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__",
                                                  "results"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "serve_fleet2d",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# --------------------------------------------------------------------- #
# Compare verdicts
# --------------------------------------------------------------------- #
def _doc(op_ms, work=100.0, failed=0):
    row = {"end_to_end": {"op_ms": op_ms, "work_per_s": work,
                          "peak_rss_mb": 50.0, "setup_s": 1.0},
           "attempted": 100, "failed": failed}
    return {"workloads": {"train_mg3d": row}}


def _verdicts(base, new):
    return {(w, m): v for w, m, *_, v in compare.compare(base, new, SPEC)}


def test_compare_verdicts_on_synthetic_results():
    bound = next(m["bound"] for m in SPEC["end_to_end"]
                 if m["name"] == "op_ms")
    steady = [_doc(100.0), _doc(101.0)]
    v = _verdicts(steady, [_doc(100.0 * (1 + bound) - 1), _doc(103.0)])
    assert set(v.values()) == {"ok"}
    v = _verdicts(steady, [_doc(130.0), _doc(131.0)])
    assert v["train_mg3d", "op_ms"] == "regressed"
    assert v["train_mg3d", "setup_s"] == "ok"
    # higher-is-better metrics regress downwards
    v = _verdicts(steady, [_doc(100.0, work=70.0), _doc(100.0, work=71.0)])
    assert v["train_mg3d", "work_per_s"] == "regressed"
    assert v["train_mg3d", "op_ms"] == "ok"
    # same-side runs that disagree by more than the bound decide nothing ...
    noisy = [_doc(100.0), _doc(140.0)]
    assert _verdicts(noisy, steady)["train_mg3d", "op_ms"] == "unresolved"
    # ... unless every new run beats every base run
    assert _verdicts(noisy, [_doc(60.0), _doc(95.0)])[
        "train_mg3d", "op_ms"] == "ok"
    # any rise in failures regresses, whatever the timings say
    v = _verdicts(steady, [_doc(100.0, failed=1), _doc(100.0)])
    assert v["train_mg3d", "failed_frac"] == "regressed"
    assert compare.spread([1.0]) == 0.0
    assert compare.spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)
    assert compare.spread([1, 2, 3, 4, 5, 6, 7]) == pytest.approx(1.0)


def test_compare_cli_exit_code(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(_doc(100.0)))
    b.write_text(json.dumps(_doc(104.0)))
    c.write_text(json.dumps(_doc(150.0)))
    assert compare.main([str(a), str(b)]) == 0
    assert compare.main(["--base", str(a), str(b), "--new", str(c)]) == 1
    assert "regressed" in capsys.readouterr().out
