"""Tests of the benchmark harness itself (not of the program).

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import (  # noqa: E402
    CLOSURE_TOLERANCE_PCT,
    CONV_NODES,
    WORKLOADS,
    central,
    declared_units,
    op_parts,
    percentile,
    result_line,
)
from loaddrivers import (  # noqa: E402
    offline_throughput,
    run_offline,
    run_open_loop,
)
from tracing import TrainProbe  # noqa: E402


class Done:
    """A handle that is already answered (or fails)."""

    def __init__(self, value=1.0, error=None):
        self.value, self.error = value, error

    def result(self, timeout=None):
        if self.error is not None:
            raise self.error
        return self.value


# -- percentiles -------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_its_rank():
    assert percentile(range(1, 1001), 99) == 990
    with pytest.raises(ValueError):
        percentile(range(999), 99)
    assert percentile(range(1, 201), 95) == 190
    with pytest.raises(ValueError):
        percentile(range(199), 95)
    assert percentile(range(1, 21), 50) == 10
    with pytest.raises(ValueError):
        percentile(range(19), 50)


# -- load drivers ------------------------------------------------------------
def test_due_time_latency_charges_a_generator_stall():
    stall = 0.2

    def submit(i):
        if i == 1:
            time.sleep(stall)  # the generator is stuck here
        return Done()

    schedule = [0.0, 0.01, 0.02, 0.03]
    rec = run_open_loop(submit, schedule, timeout_s=5.0)
    lat, late = rec.latencies_s(), rec.late_s()
    # requests 2 and 3 were due during the stall: each waited at least
    # from its due time to the stall's end, although the server
    # answered at once
    for i in (2, 3):
        assert late[i] >= stall - schedule[i] + schedule[1] - 1e-3
        assert lat[i] >= late[i]
        assert rec.done[i] - rec.sent[i] < lat[i]
    assert rec.failed == 0 and rec.attempted == 4


def test_failed_requests_count_as_infinite_latency():
    def submit(i):
        if i == 0:
            raise RuntimeError("shed")
        if i == 1:
            return Done(error=TimeoutError("late"))
        return Done()

    rec = run_open_loop(submit, [0.0] * 20, timeout_s=1.0)
    lat = rec.latencies_s()
    assert lat[0] == math.inf and lat[1] == math.inf
    assert all(math.isfinite(x) for x in lat[2:])
    assert rec.failed == 2 and rec.attempted == 20
    # the failures sort past every answer
    assert percentile(lat + [math.inf] * 20, 50) == math.inf


def test_offline_driver_keeps_a_fixed_depth_and_waits_for_all():
    in_flight, peak = [0], [0]

    class Slow:
        def __init__(self):
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])

        def result(self, timeout=None):
            time.sleep(0.001)
            in_flight[0] -= 1
            return 0.0

    rec = run_offline(lambda i: Slow(), 4, seconds=0.1, timeout_s=1.0)
    assert peak[0] == 4
    assert in_flight[0] == 0 and rec.failed == 0
    assert offline_throughput(rec, 0.1) > 0


# -- per-layer parts ---------------------------------------------------------
def test_op_parts_sum_to_the_band_latency():
    rows = []
    for i in range(1, 101):
        lat = i * 1.0
        rows.append({"lat": lat, "graph": 0.5 * lat, "conv": 0.4 * lat})
    m = op_parts(rows, untraced_s=50.0)
    total = m["op.conv_ms"] + m["op.graph_other_ms"] + m["op.outside_ms"]
    mid = central(r["lat"] for r in rows)
    assert total == pytest.approx(mid * 1e3)
    assert 45 <= mid <= 56  # the band is centred on the median
    assert m["op.conv_ms"] == pytest.approx(0.4 * mid * 1e3)
    assert m["trace.overhead_pct"] == pytest.approx((mid / 50.0 - 1) * 100)


def test_the_band_ignores_a_tail():
    body = [1.0] * 90
    assert central(body + [1e6] * 9 + [math.inf]) == pytest.approx(1.0)


def test_train_step_parts_sum_to_the_step():
    from train_bench import _direct_layers

    probe = TrainProbe()
    for step_s, graph, fwd, bwd, upd, sgd in (
            (1.0, 0.9, 0.3, 0.3, 0.2, 0.01),
            (1.2, 1.1, 0.4, 0.3, 0.2, 0.02)):
        probe.begin_step()
        for key, dt in (("graph", graph), ("fwd", fwd), ("bwd", bwd),
                        ("upd", upd), ("sgd", sgd)):
            probe._charge(key, dt)
        probe.end_step(step_s)
    for node in CONV_NODES:
        for pass_ in ("fwd", "bwd", "upd"):
            probe.conv.calls[(pass_, node)].append((8, 0.1, 1e8))
    m, detail = _direct_layers(probe, untraced_s=1.0)
    parts = m["op.conv_ms"] + m["op.graph_other_ms"] + m["op.outside_ms"]
    assert parts == pytest.approx(1100.0)
    assert m["op.conv_ms"] == pytest.approx(850.0)
    assert m["op.outside_ms"] == pytest.approx(100.0)
    assert m["trace.overhead_pct"] == pytest.approx(10.0)
    assert m["conv_gflops.fwd"] == pytest.approx(1.0)
    assert detail["etg.conv_bwd_ms"] == pytest.approx(300.0)


def test_ring_step_is_graph_plus_outside():
    from types import SimpleNamespace

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import SpanRecord, get_tracer
    from train_bench import StepLog, _ring_layers

    counters = MetricsRegistry()
    for name, value in (("collective.steps", 2), ("collective.bytes", 200),
                        ("collective.hops", 8)):
        counters.inc(name, value)
    nodes = {n: SimpleNamespace(p=SimpleNamespace(flops=1e6))
             for n in CONV_NODES}
    rig = SimpleNamespace(metrics=counters,
                          trainer=SimpleNamespace(root=SimpleNamespace(
                              nodes=nodes)))
    events = []

    def step(step, rank, t0_ms, ms, exposed_ms, conv_ms):
        pid = 100 + rank
        events.append(SpanRecord("collective.step", t0_ms * 1e3, ms * 1e3,
                                 pid, 1, 0, {"step": step, "rank": rank}))
        events.append(SpanRecord("collective.exposed", (t0_ms + ms) * 1e3,
                                 exposed_ms * 1e3, pid, 1, 0,
                                 {"step": step, "rank": rank}))
        # one forward pass per conv node, laid end to end in the step
        each = conv_ms / len(CONV_NODES)
        for i, node in enumerate(CONV_NODES):
            events.append(SpanRecord(
                "etg.task", (t0_ms + i * each) * 1e3, each * 1e3, pid, 1, 2,
                {"layer": node, "pass": "FWD", "type": "Convolution"}))

    step(5, 0, 0, 60, 10, 18)
    step(5, 1, 0, 50, 30, 9)  # rank 1 finishes last: 50 + 30
    step(6, 0, 1000, 40, 5, 27)  # rank 0 finishes last: 40 + 5
    step(6, 1, 1000, 40, 1, 36)
    tracer = get_tracer()
    saved = tracer.export_events(clear=True)
    try:
        tracer.events.extend(events)
        log = StepLog()
        log.durations = [0.1, 0.05]
        probe = TrainProbe()
        probe.begin_step()
        probe.end_step(0.1)
        m, detail = _ring_layers(
            rig, log, [5, 6], probe,
            {"collective.steps": 0, "collective.bytes": 0,
             "collective.hops": 0}, untraced_s=0.075)
    finally:
        tracer.clear()
        tracer.ingest(saved)
    # the band of two steps is both of them: graph 50 and 40 ms, conv 9
    # and 27 ms, steps 100 and 50 ms
    assert m["op.conv_ms"] == pytest.approx(18.0)
    assert m["op.graph_other_ms"] == pytest.approx(27.0)
    assert (m["op.conv_ms"] + m["op.graph_other_ms"]
            + m["op.outside_ms"]) == pytest.approx(75.0)
    assert m["trace.overhead_pct"] == pytest.approx(0.0)
    assert detail["collective.exposed_ms"] == pytest.approx(17.5)
    assert detail["collective.bytes_per_step"] == 100


# -- the result line and BENCHMARK.json ------------------------------------
def _full(trace):
    return {name: 1.5 for name in declared_units(trace)}


def test_result_line_holds_exactly_the_declared_metrics():
    line = json.loads(result_line("train_ring", False, _full(False), 3, 0,
                                  True))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(declared_units(False))
    metrics = _full(False)
    metrics["throughput_rps"] = 3.0
    with pytest.raises(ValueError, match="not declared"):
        result_line("serve_offline", False, metrics, 3, 0, True)
    metrics = _full(False)
    del metrics["latency_mean_p10_p90_ms"]
    with pytest.raises(ValueError, match="did not measure"):
        result_line("serve_offline", False, metrics, 3, 0, True)
    metrics = _full(False)
    metrics["latency_mean_p10_p90_ms"] = math.inf
    line = json.loads(result_line("serve_poisson", False, metrics, 3, 1,
                                  True))
    assert line["correct"] is False


def test_traced_parts_outside_the_tolerance_fail_the_run():
    def traced(overhead_pct):
        metrics = _full(True)
        metrics["trace.overhead_pct"] = overhead_pct
        return json.loads(result_line("train_direct", True, metrics,
                                      3, 0, True))

    assert traced(CLOSURE_TOLERANCE_PCT - 0.1)["correct"] is True
    assert traced(-CLOSURE_TOLERANCE_PCT + 0.1)["correct"] is True
    assert traced(CLOSURE_TOLERANCE_PCT + 0.1)["correct"] is False
    assert traced(-50.0)["correct"] is False
    assert traced(math.nan)["correct"] is False


def test_benchmark_json_matches_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    layer = declared_units(True)
    for node in CONV_NODES:
        assert layer[f"conv.{node}.fwd_ms"] == "ms"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         "train_ring", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
