"""The two serving workloads: ``serve_poisson`` and ``serve_offline``.

Both run one :class:`~repro.serve.InferenceServer` over the blocked
engine on the ``stream_compiled`` tier (resnet_mini defaults, one
worker).  Inputs are a seeded pool of images; every answer is checked
bitwise against an unbatched ``InferenceSession(cfg.build_etg(1))``.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from harness import (
    CONV_NODES,
    band_mean,
    central,
    note,
    op_parts,
    percentile,
    rss_mb_self,
)
from loaddrivers import (
    offline_throughput,
    poisson_schedule,
    run_offline,
    run_open_loop,
)
from tracing import ROUNDS, ServeProbe, alternate, installed

#: open-loop arrival rate (requests/s)
POISSON_RATE = 15.0
#: requests the offline driver keeps in flight (two bucket-16 batches)
OUTSTANDING = 32
#: a request not answered this long after it was due has failed
TIMEOUT_S = 10.0
#: distinct input images per run
POOL = 32
#: the bucket whose conv layers each workload's per-layer figures cover
#: (nearly every batch of the workload)
CONV_BUCKET = {"serve_poisson": 1, "serve_offline": 16}


def _config():
    from repro.serve import ServeConfig

    return ServeConfig(
        engine="blocked", execution_tier="stream_compiled", workers=1
    )


def warm_up(server, pool: np.ndarray) -> dict[int, float]:
    """Serve one batch at every bucket; returns the seconds each took.

    Holding the swap gate parks the worker on a one-image batch while
    the bucket's images queue up behind it, so they leave as exactly one
    batch of that bucket: two batches per bucket, no retries."""
    took = {}
    for bucket in server.config.buckets:
        before = server.metrics.value("serve.batches")
        t = time.perf_counter()
        with server.gate.write():
            reqs = [server.submit(pool[0])]
            while server.queue.depth:  # not yet taken by the worker
                time.sleep(1e-4)
            reqs += [server.submit(pool[i % len(pool)])
                     for i in range(bucket)]
        for r in reqs:
            r.result(TIMEOUT_S)
        took[bucket] = time.perf_counter() - t
        # every taken batch acknowledged: the batch count is final
        server.queue.join(TIMEOUT_S)
        if server.metrics.value("serve.batches") - before != 2:
            raise RuntimeError(f"the bucket-{bucket} warm-up batch split")
    return took


class ServeRig:
    """A booted, warmed server plus the run's seeded inputs."""

    def __init__(self, t_start: float, seed: int):
        from repro.serve import InferenceServer

        self.rng = np.random.default_rng(seed)
        self.cfg = _config()
        self.pool = self.rng.standard_normal(
            (POOL, *self.cfg.input_shape)
        ).astype(np.float32)
        self.server = InferenceServer(self.cfg)
        self.server.start()
        self.warm = warm_up(self.server, self.pool)
        self.setup_s = time.perf_counter() - t_start
        #: (image index per request, record) of every load phase
        self.phases: list[tuple[np.ndarray, object]] = []

    def close(self) -> None:
        self.server.stop()

    # -- load ------------------------------------------------------------
    def _submit_for(self, images: np.ndarray):
        return lambda i: self.server.submit(self.pool[images[i]])

    def poisson(self, seconds: float):
        n = math.ceil(POISSON_RATE * seconds)
        schedule = poisson_schedule(
            POISSON_RATE, n, int(self.rng.integers(1 << 31))
        )
        images = self.rng.integers(0, POOL, n)
        rec = run_open_loop(self._submit_for(images), schedule, TIMEOUT_S)
        self.phases.append((images, rec))
        return rec

    def offline(self, seconds: float):
        images = self.rng.integers(0, POOL, 1 << 16)
        rec = run_offline(
            self._submit_for(images), OUTSTANDING, seconds, TIMEOUT_S
        )
        self.phases.append((images, rec))
        return rec

    # -- correctness -----------------------------------------------------
    def check(self) -> int:
        """Answers that differ by one bit or more from the unbatched
        reference; each one is a failed request."""
        from repro.gxm.inference import InferenceSession

        with InferenceSession(self.cfg.build_etg(1)) as ref:
            want = [np.array(ref.predict(self.pool[j:j + 1])[0])
                    for j in range(POOL)]
        wrong = 0
        for images, rec in self.phases:
            for i, got in enumerate(rec.results):
                if rec.done[i] is None:
                    continue
                if not np.array_equal(got, want[images[i]]):
                    rec.done[i] = None  # counts as failed from here on
                    wrong += 1
        return wrong

    def totals(self) -> tuple[int, int]:
        return (sum(r.attempted for _, r in self.phases),
                sum(r.failed for _, r in self.phases))


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3


def untraced_detail(workload: str, rec, seconds: float) -> dict:
    """Ungated figures of the untraced load."""
    out = {"latency_p50_ms": _median_ms(rec.latencies_s())}
    if workload == "serve_offline":
        out["throughput_rps"] = offline_throughput(rec, seconds)
        return out
    try:
        out["latency_p95_ms"] = percentile(rec.latencies_s(), 95) * 1e3
        out["loadgen.late_p95_ms"] = percentile(rec.late_s(), 95) * 1e3
    except ValueError:  # a run too short for a p95
        pass
    return out


def layer_metrics(workload: str, probe: ServeProbe, recs: list,
                  untraced: list) -> tuple[dict, dict]:
    """Per-layer metrics and serve-only detail of the traced load phases
    ``recs``, set against the untraced phases ``untraced``."""
    n_conv = CONV_BUCKET[workload]
    m = {
        f"conv.{node}.fwd_ms": statistics.median(
            probe.conv.node_ms("fwd", node, minibatch=n_conv))
        for node in CONV_NODES
    }
    m["conv_gflops.fwd"] = probe.conv.gflops("fwd", minibatch=n_conv)
    parts = probe.per_request()
    rows = []
    for rec in recs:
        for i, lat in enumerate(rec.latencies_s()):
            if rec.done[i] is None:
                continue
            p = parts[rec.handles[i].id]
            rows.append({"lat": lat, "graph": p["replay"],
                         "conv": p["conv"], "wait": p["wait"],
                         "scatter": p["scatter"]})
    # the engine call is the batch's replay; outside it are the queue
    # wait (admission, batch window, the batch ahead), the scatter and
    # the hand-back
    m.update(op_parts(rows, central(
        lat for r in untraced for lat in r.latencies_s())))
    mid = band_mean(rows, "lat")
    batches = probe.batches
    detail = {
        "serve.queue_wait_ms": mid["wait"] * 1e3,
        "serve.scatter_ms": mid["scatter"] * 1e3,
        "serve.rows_per_batch": statistics.fmean(b["n"] for b in batches),
        "serve.pad_ratio": (
            sum(b["bucket"] - b["n"] for b in batches)
            / sum(b["bucket"] for b in batches)
        ),
    }
    for bucket in sorted({b["bucket"] for b in batches}):
        detail[f"serve.replay_ms.b{bucket}"] = _median_ms(
            b["replay"] for b in batches if b["bucket"] == bucket
        )
    return m, detail


def run(workload: str, t_start: float, seed: int, seconds: float,
        trace: bool) -> tuple[dict, dict, int, int, bool]:
    """One run; returns ``(metrics, detail, attempted, failed,
    correct)``."""
    from repro.jit.kernel_cache import get_default_cache

    rig = ServeRig(t_start, seed)
    note(f"{workload}: set up in {rig.setup_s:.2f}s")
    load = rig.poisson if workload == "serve_poisson" else rig.offline
    probe = ServeProbe()
    phase_s = seconds / ROUNDS

    def traced_load():
        # each phase ends with every answer in, so the wrappers go in
        # and out while the server is idle
        with installed(probe):
            return load(phase_s)

    try:
        if not trace:
            plain = load(seconds)
            # set-up plus the timed load, before the reference check
            peak_rss_mb = rss_mb_self()
        else:
            # lazy work left after warm-up: a second pass at every
            # bucket, charged against the first
            again = warm_up(rig.server, rig.pool)
            first_call_s = sum(rig.warm[b] - again[b] for b in again)
            stats = get_default_cache().stats()
            plain, traced = alternate(
                seconds, lambda: load(phase_s), traced_load
            )
    finally:
        rig.close()
    # wrong answers become failed requests before anything is computed
    wrong = rig.check()
    attempted, failed = rig.totals()
    if not trace:
        metrics = {
            "setup_s": rig.setup_s,
            "peak_rss_mb": peak_rss_mb,
            "latency_mean_p10_p90_ms": central(plain.latencies_s()) * 1e3,
        }
        detail = untraced_detail(workload, plain, seconds)
    else:
        metrics, detail = layer_metrics(workload, probe, traced, plain)
        metrics["jit.first_call_s"] = first_call_s
        metrics["jit.kernels_compiled"] = (
            stats["misses"] + stats["compiled_misses"]
        )
    return metrics, detail, attempted, failed, wrong == 0


def setup_only(t_start: float, seed: int) -> float:
    rig = ServeRig(t_start, seed)
    rig.close()
    return rig.setup_s
