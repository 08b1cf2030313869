"""Statistics, the metric table and the result line of the benchmark.

Nothing here imports ``repro``: the runner starts its set-up clock before
the program is imported, and these helpers are loaded first.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

#: The workloads.  Every one reports every metric of ``BENCHMARK.json``:
#: the end-to-end ones from the untraced run (``--trace 0``), the
#: per-layer ones from the traced run (``--trace 1``).  An *operation* is
#: a request on the serve workloads and a training step on the train
#: workloads, so each metric means the same thing on each of them.
#:
#: The end-to-end metric each layer metric should move:
#:
#: * ``conv.*.fwd_ms``, ``conv_gflops.fwd``, ``op.conv_ms`` and
#:   ``op.graph_other_ms`` -> ``latency_mean_p10_p90_ms`` on every workload
#:   (bucket-1 replay on serve_poisson, bucket-16 on serve_offline, the
#:   compiled tier on train_direct, the BLAS engine on train_ring);
#: * ``op.outside_ms`` (queue wait, batch window and scatter on serve;
#:   optimizer on train_direct; exposed collective and the root's poll
#:   sleep on train_ring) -> ``latency_mean_p10_p90_ms``;
#: * ``jit.*`` -> ``setup_s``;
#: * ``trace.overhead_pct`` checks the closure of the parts; it should
#:   not move.
#:
#: Figures that only one kind of workload has (queue wait, replay per
#: bucket, backward and update passes, collective traffic, ...) go to
#: the ``detail`` line before the result, ungated.
WORKLOADS = ("serve_poisson", "serve_offline", "train_direct", "train_ring")
CONV_NODES = (
    "conv1", "res2a_a", "res2a_b", "res2a_c", "res2a_sc",
    "res3a_a", "res3a_b", "res3a_c", "res3a_sc",
)

#: the largest gap, in percent, allowed between the traced central value
#: (the sum of the per-layer parts) and the untraced one; a traced run
#: outside it is incorrect.  Set by train_ring: its root polls every
#: 50 ms, so the few milliseconds its workers spend shipping spans can
#: move a 100 ms step to 150 ms.
CLOSURE_TOLERANCE_PCT = 20.0
#: the latency percentile band whose mean the parts of an operation are
#: split over, and which the traced and untraced runs are compared on.
#: It is wide because train_ring's steps fall on two modes, 50 ms apart
#: (its root polls every 50 ms): a narrow band on the median jumps
#: between them when their mix shifts a little.
BAND = (10.0, 90.0)

#: a percentile is reported only when at least this many samples lie
#: beyond its rank
MIN_TAIL = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100).

    Raises ``ValueError`` unless at least :data:`MIN_TAIL` samples lie
    beyond the rank, so a p99 needs 1000 samples and a p95 200.  Failed
    operations enter as ``math.inf`` and sort last.
    """
    s = sorted(samples)
    n = len(s)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_TAIL:
        raise ValueError(
            f"p{q:g} needs {MIN_TAIL} samples beyond its rank; "
            f"{n} samples leave {n - rank}"
        )
    return s[rank - 1]


def band_mean(rows, key) -> dict:
    """Column means over the rows whose ``key`` lies in the :data:`BAND`
    percentile band of ``key``.

    Each row is a dict of parts that sum to ``row[key]``; the band means
    then sum to the band's mean ``key`` exactly, which is how a median is
    split into parts that add back up.
    """
    lo, hi = BAND
    ordered = sorted(rows, key=lambda r: r[key])
    n = len(ordered)
    a = min(n - 1, int(lo / 100.0 * n))
    b = max(a + 1, int(math.ceil(hi / 100.0 * n)))
    band = ordered[a:b]
    return {
        k: statistics.fmean(r[k] for r in band) for k in band[0]
    }


def central(latencies) -> float:
    """Mean latency over the :data:`BAND` percentile band."""
    return band_mean([{"lat": x} for x in latencies], "lat")["lat"]


def op_parts(rows, untraced_s: float) -> dict:
    """Split the traced operations' central latency into parts that add
    back up.

    Each row is one operation, in seconds: its latency ``lat``, the
    engine call that ran it ``graph`` (a batch's replay, or the model
    graph of a training step) and the conv passes within that call
    ``conv``.  Over the :data:`BAND` rows the three parts sum to the
    band's mean latency exactly; ``trace.overhead_pct`` is that sum
    against ``untraced_s``, the :func:`central` latency of the untraced
    operations."""
    mid = band_mean(rows, "lat")
    return {
        "op.conv_ms": mid["conv"] * 1e3,
        "op.graph_other_ms": (mid["graph"] - mid["conv"]) * 1e3,
        "op.outside_ms": (mid["lat"] - mid["graph"]) * 1e3,
        "trace.overhead_pct": (mid["lat"] / untraced_s - 1) * 100,
    }


def spread(values) -> float:
    """Inter-quartile distance over the median (``statistics.quantiles``
    with ``n=4``), the steadiness figure the acceptance rule uses."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


# -- process facts ---------------------------------------------------------
def rss_mb_self() -> float:
    """Peak resident set of this process so far (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb_pid(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process (MB)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


def environment() -> dict:
    """The host facts every result is printed with."""
    import numpy as np

    from repro.arch.machine import SKX

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, ValueError):  # numpy < 1.25 prints only
        blas = {"name": "unknown"}
    threads = {
        var: os.environ.get(var, "default")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
    }
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine_fingerprint": SKX.fingerprint(),
    }


# -- the result line -------------------------------------------------------
def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit of the run kind, as ``BENCHMARK.json``
    declares them."""
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text()
    )
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(workload: str, trace: bool, metrics: dict,
                attempted: int, failed: int, correct: bool) -> str:
    """The final JSON line: exactly the metrics ``BENCHMARK.json``
    declares for this run kind, in its units; refuses an extra or a
    missing one.  A non-finite value (JSON has no infinity), or a traced
    run whose parts miss the untraced value by more than
    :data:`CLOSURE_TOLERANCE_PCT`, makes the run incorrect."""
    units = declared_units(trace)
    extra = set(metrics) - set(units)
    if extra:
        raise ValueError(
            f"{sorted(extra)} are not declared for this run kind; "
            f"refusing to report them"
        )
    missing = set(units) - set(metrics)
    if missing:
        raise ValueError(f"{workload} did not measure {sorted(missing)}")
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    if trace and not abs(metrics["trace.overhead_pct"]) \
            <= CLOSURE_TOLERANCE_PCT:
        note(f"{workload}: traced parts miss the untraced value by "
             f"{metrics['trace.overhead_pct']:+.1f}% (tolerance "
             f"{CLOSURE_TOLERANCE_PCT:g}%)")
        correct = False
    out = {}
    for name, unit in units.items():
        value = float(metrics[name])
        if not math.isfinite(value):
            correct = False
            value = None
        out[name] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": out,
    }, allow_nan=False)


def note(msg: str) -> None:
    """Progress on stderr (stdout carries the result)."""
    print(msg, file=sys.stderr, flush=True)
