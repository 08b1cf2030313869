"""The two training workloads: ``train_direct`` and ``train_ring``.

* ``train_direct`` -- one :class:`~repro.gxm.trainer.Trainer` over a
  blocked-engine ETG on the default ``compiled`` tier (resnet_mini width
  32, input 16x16x16, batch 8): the paper's Fig. 9 path.  The first
  step's loss is checked against a ``fast``-engine graph on the same
  batch, and each conv pass against the reference convolution on the
  same tensors.
* ``train_ring`` -- :class:`~repro.gxm.multiproc.ProcessParallelTrainer`
  with two workers and the ring all-reduce on the fast engine (the
  ``python -m repro train`` topology: width 16, input 16x16x16), global
  batch 4.  Weights after a short prefix are checked bitwise against
  ``allreduce="root"`` run on the same batches.

Inputs are a seeded, class-structured image set made here.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

from harness import (
    CONV_NODES,
    central,
    note,
    op_parts,
    percentile,
    rss_mb_pid,
    rss_mb_self,
)
from tracing import ROUNDS, Patches, TrainProbe, alternate, installed

SHAPE = (16, 16, 16)
CLASSES = 8
#: training images per run (cycled in a seeded order)
IMAGES = 512
DIRECT_BATCH = 8
#: 2 images per worker: a worker's compute and collective then take
#: 30-40 ms, well inside the root's first 50 ms poll, so nearly every
#: step takes one poll.  At 7 or 8 per worker they take 45-60 or
#: 85-140 ms, across a poll boundary, and step times split between two
#: multiples of 50 ms in a mix that follows the host's load.
RING_BATCH = 4
RING_NODES = 2
#: ring steps checked bitwise against the root fold (the first is the
#: set-up step)
PREFIX = 3
#: the fewest timed ring steps, so that its p95 has ten samples beyond
MIN_RING_STEPS = 200
MODEL_SEED = 7


def batches(seed: int, batch: int):
    """Endless seeded minibatches: per-class smooth prototypes plus
    noise, reshuffled every epoch."""
    rng = np.random.default_rng(seed)
    c, h, w = SHAPE
    base = rng.standard_normal((CLASSES, c, 4, 4)).astype(np.float32)
    protos = np.repeat(np.repeat(base, h // 4, axis=2), w // 4, axis=3)
    labels = rng.integers(0, CLASSES, IMAGES)
    images = (protos[labels] + 0.6 * rng.standard_normal(
        (IMAGES, c, h, w))).astype(np.float32)
    while True:
        order = rng.permutation(IMAGES)
        for i in range(0, IMAGES - batch + 1, batch):
            idx = order[i:i + batch]
            yield images[idx], labels[idx]


def _topology(width: int):
    from repro.models.resnet50 import resnet_mini_topology

    return resnet_mini_topology(num_classes=CLASSES, width=width)


class StepLog:
    """Timed steps: durations, failures and the window's wall time."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.failed = 0
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.durations) + self.failed

    def images_per_s(self, batch: int) -> float:
        return batch * len(self.durations) / self.wall


def timed_steps(step, data, seconds: float, min_steps: int = 0,
                probe: TrainProbe | None = None) -> StepLog:
    """Run ``step(x, y) -> ok`` for ``seconds`` (and at least
    ``min_steps`` steps, within three times ``seconds``; always one)."""
    log = StepLog()
    t0 = time.perf_counter()
    hard_end = t0 + 3 * seconds
    while True:
        now = time.perf_counter()
        if now - t0 >= seconds and len(log.durations) >= min_steps:
            break
        if now >= hard_end and log.attempted:
            break
        x, y = next(data)
        if probe is not None:
            probe.begin_step()
        t = time.perf_counter()
        ok = step(x, y)
        dt = time.perf_counter() - t
        if probe is not None:
            probe.end_step(dt)
        if ok:
            log.durations.append(dt)
        else:
            log.failed += 1
    log.wall = time.perf_counter() - t0
    return log


# -- train_direct ----------------------------------------------------------
class DirectRig:
    def __init__(self, t_start: float, seed: int):
        from repro.gxm.etg import ExecutionTaskGraph
        from repro.gxm.trainer import Trainer

        self.data = batches(seed, DIRECT_BATCH)
        etg = ExecutionTaskGraph(
            _topology(32), (DIRECT_BATCH, *SHAPE), engine="blocked",
            seed=MODEL_SEED,
        )
        self.etg = etg
        self.trainer = Trainer(etg)
        self.first_batch = next(self.data)
        t = time.perf_counter()
        self.first_loss = self.trainer.train_step(*self.first_batch)
        self.first_step_s = time.perf_counter() - t
        self.setup_s = time.perf_counter() - t_start

    def step(self, x, y) -> bool:
        try:
            loss = self.trainer.train_step(x, y)
        except Exception as err:  # noqa: BLE001 -- a failed step
            note(f"step failed: {err!r}")
            return False
        return math.isfinite(loss)

    def check(self) -> bool:
        """The first step's loss against the fast (BLAS reference)
        engine on the same batch and weights, and every conv pass of one
        more step on that batch against ``repro.conv.reference`` on the
        same tensors.

        Whole-graph weight gradients are not compared: the two engines'
        activations differ by about 1e-7 relative, so a pre-activation
        that close to zero can fall on either side of a ReLU and send a
        different gradient back from there.
        """
        from repro.conv.reference import (
            conv2d_backward_data,
            conv2d_forward,
            conv2d_update_weights,
        )
        from repro.gxm.etg import ExecutionTaskGraph
        from repro.gxm.nodes import ConvNode

        ref = ExecutionTaskGraph(
            _topology(32), (DIRECT_BATCH, *SHAPE), engine="fast",
            seed=MODEL_SEED,
        )
        loss = ref.train_step(*self.first_batch)
        ok = math.isclose(loss, self.first_loss, rel_tol=1e-4)
        seen: dict[str, dict] = {}

        def record(pass_: str):
            def make(orig):
                def wrapper(node, *args):
                    out = orig(node, *args)
                    got = node.dweight if pass_ == "upd" else out
                    seen.setdefault(node.name, {"node": node})[pass_] = (
                        [np.array(a) for a in args], np.array(got))
                    return out
                return wrapper
            return make

        patches = Patches()
        for pass_, method in (("fwd", "forward"), ("bwd", "backward"),
                              ("upd", "update")):
            patches.wrap(ConvNode, method, record(pass_))
        try:
            self.etg.train_step(*self.first_batch)
        finally:
            patches.undo()
        convs = [n for n in self.etg.nodes.values()
                 if isinstance(n, ConvNode)]
        if sorted(seen) != sorted(n.name for n in convs):
            return False
        for rec in seen.values():
            if set(rec) != {"node", "fwd", "bwd", "upd"}:
                return False
            node = rec["node"]
            (x,), y = rec["fwd"]
            (dy,), dx = rec["bwd"]
            want_y = conv2d_forward(x, node.weight, node.p)
            if node.fused_relu:
                want_y = np.maximum(want_y, 0.0)
                dy = np.where(y > 0, dy, 0.0).astype(np.float32)
            pairs = (
                (y, want_y),
                (dx, conv2d_backward_data(dy, node.weight, node.p)),
                (rec["upd"][1], conv2d_update_weights(x, dy, node.p)),
            )
            ok = ok and all(np.allclose(got, want, rtol=1e-3, atol=1e-5)
                            for got, want in pairs)
        return ok


def _direct_layers(probe: TrainProbe,
                   untraced_s: float) -> tuple[dict, dict]:
    """Per-layer metrics and train-only detail of the traced steps;
    ``untraced_s`` is the :func:`~harness.central` untraced step."""
    rows = [{"lat": s["step"], "graph": s["graph"],
             "conv": s["fwd"] + s["bwd"] + s["upd"]} for s in probe.steps]
    m = {
        f"conv.{node}.fwd_ms": statistics.median(
            probe.conv.node_ms("fwd", node))
        for node in CONV_NODES
    }
    m["conv_gflops.fwd"] = probe.conv.gflops("fwd")
    # outside the model graph: the optimizer and the trainer's own work
    m.update(op_parts(rows, untraced_s))
    mean = {k: statistics.fmean(s[k] for s in probe.steps)
            for k in probe.steps[0]}
    detail = {f"etg.conv_{k}_ms": mean[k] * 1e3
              for k in ("fwd", "bwd", "upd")}
    detail["sgd.step_ms"] = mean["sgd"] * 1e3
    for pass_ in ("bwd", "upd"):
        detail[f"conv_gflops.{pass_}"] = probe.conv.gflops(pass_)
        for node in CONV_NODES:
            detail[f"conv.{node}.{pass_}_ms"] = statistics.median(
                probe.conv.node_ms(pass_, node))
    return m, detail


def run_direct(t_start: float, seed: int, seconds: float, trace: bool):
    from repro.jit.kernel_cache import get_default_cache

    rig = DirectRig(t_start, seed)
    note(f"train_direct: set up in {rig.setup_s:.2f}s")
    if not trace:
        logs = [timed_steps(rig.step, rig.data, seconds)]
        metrics = {
            "setup_s": rig.setup_s,
            # set-up plus the timed steps, before the reference check
            "peak_rss_mb": rss_mb_self(),
            "latency_mean_p10_p90_ms": central(logs[0].durations) * 1e3,
        }
        detail = {
            "latency_p50_ms": statistics.median(logs[0].durations) * 1e3,
            "images_per_s": logs[0].images_per_s(DIRECT_BATCH),
        }
    else:
        stats = get_default_cache().stats()
        t = time.perf_counter()
        rig.step(*next(rig.data))
        second_step_s = time.perf_counter() - t
        probe = TrainProbe()
        block_s = seconds / ROUNDS

        def traced_block() -> StepLog:
            with installed(probe):
                return timed_steps(rig.step, rig.data, block_s,
                                   probe=probe)

        plain, traced = alternate(
            seconds, lambda: timed_steps(rig.step, rig.data, block_s),
            traced_block,
        )
        logs = plain + traced
        metrics, detail = _direct_layers(probe, central(
            d for lg in plain for d in lg.durations))
        metrics["jit.first_call_s"] = rig.first_step_s - second_step_s
        metrics["jit.kernels_compiled"] = (
            stats["misses"] + stats["compiled_misses"]
        )
    correct = rig.check()
    return (metrics, detail, sum(lg.attempted for lg in logs),
            sum(lg.failed for lg in logs), correct)


def setup_direct(t_start: float, seed: int) -> float:
    return DirectRig(t_start, seed).setup_s


# -- train_ring ------------------------------------------------------------
class RingRig:
    def __init__(self, t_start: float, seed: int, trace: bool = False,
                 allreduce: str = "ring"):
        from repro.gxm.multiproc import ProcessParallelTrainer
        from repro.obs.metrics import get_metrics

        self.data = batches(seed, RING_BATCH)
        self.trainer = ProcessParallelTrainer(
            _topology(16), (RING_BATCH // RING_NODES, *SHAPE),
            nodes=RING_NODES, allreduce=allreduce, seed=MODEL_SEED,
            trace=trace,
        )
        self.metrics = get_metrics()
        t = time.perf_counter()
        if not self.step(*next(self.data)):
            raise RuntimeError("the set-up step failed")
        self.first_step_s = time.perf_counter() - t
        self.setup_s = time.perf_counter() - t_start

    def peak_rss_mb(self) -> float:
        """This process plus its largest worker."""
        import multiprocessing

        workers = [rss_mb_pid(p.pid)
                   for p in multiprocessing.active_children()]
        return rss_mb_self() + max(workers)

    def step(self, x, y) -> bool:
        degraded = self.metrics.value("resilience.degraded_steps")
        try:
            loss = self.trainer.train_step(x, y)
        except Exception as err:  # noqa: BLE001 -- a failed step
            note(f"step failed: {err!r}")
            return False
        return (math.isfinite(loss) and self.metrics.value(
            "resilience.degraded_steps") == degraded)

    def prefix(self) -> list[np.ndarray]:
        """Run the rest of the checked prefix; the weights after it."""
        for _ in range(PREFIX - 1):
            if not self.step(*next(self.data)):
                raise RuntimeError("a prefix step failed")
        return [p.copy() for p in self.trainer.params]

    def close(self) -> None:
        self.trainer.close()


def ring_prefix_matches(seed: int, weights: list[np.ndarray]) -> bool:
    """The same prefix under ``allreduce="root"`` ends on the same bits."""
    ref = RingRig(time.perf_counter(), seed, allreduce="root")
    try:
        want = ref.prefix()
    finally:
        ref.close()
    return all(np.array_equal(a, b) for a, b in zip(weights, want))


def _ring_layers(rig: "RingRig", log: StepLog, steps: list[int],
                 probe: TrainProbe, counters: dict,
                 untraced_s: float) -> tuple[dict, dict]:
    """Per-layer metrics and ring-only detail of the traced steps
    ``log`` (trainer iterations ``steps``), read from the workers'
    spans: per step, the rank that finished last sets the model graph
    (its ``collective.step`` span), the conv passes within it and the
    exposed collective; outside the graph are the exposed collective
    and the root's wait for the replies."""
    from repro.obs.tracer import get_tracer

    spans: dict[tuple[int, int], dict] = {}
    tasks: dict[int, list] = {}  # pid -> conv etg.task spans
    for ev in get_tracer().events:
        if ev.name in ("collective.step", "collective.exposed"):
            key = (ev.args["step"], ev.args["rank"])
            spans.setdefault(key, {})[ev.name] = ev
        elif ev.name == "etg.task" and ev.args["type"] == "Convolution":
            tasks.setdefault(ev.pid, []).append(ev)
    for evs in tasks.values():
        evs.sort(key=lambda e: e.ts_us)
    starts = {pid: [e.ts_us for e in evs] for pid, evs in tasks.items()}

    def conv_in(span) -> float:
        evs, ts = tasks.get(span.pid, []), starts.get(span.pid, [])
        a = bisect.bisect_left(ts, span.ts_us)
        b = bisect.bisect_right(ts, span.ts_us + span.dur_us)
        return sum(e.dur_us for e in evs[a:b]) / 1e6

    rows, exposed = [], []
    for step, dur in zip(steps, log.durations):
        ranks = [spans.get((step, r), {}) for r in range(RING_NODES)]

        def end(s):
            return sum(s[k].dur_us for k in s)

        last = max(ranks, key=end)
        graph = last["collective.step"]
        rows.append({"lat": dur, "graph": graph.dur_us / 1e6,
                     "conv": conv_in(graph)})
        ex = last.get("collective.exposed")
        exposed.append(0.0 if ex is None else ex.dur_us / 1e3)
    flops = {name: node.p.flops
             for name, node in rig.trainer.root.nodes.items()
             if name in CONV_NODES}
    fwd: dict[str, list[float]] = {n: [] for n in CONV_NODES}
    other: dict[tuple[str, str], list[float]] = {}
    for evs in tasks.values():
        for e in evs:
            pass_ = e.args["pass"].lower()
            if pass_ == "fwd":
                fwd[e.args["layer"]].append(e.dur_us / 1e3)
            else:
                other.setdefault((e.args["layer"], pass_), []).append(
                    e.dur_us / 1e3)
    m = {f"conv.{n}.fwd_ms": statistics.median(fwd[n])
         for n in CONV_NODES}
    m["conv_gflops.fwd"] = (
        sum(flops[n] * len(fwd[n]) for n in CONV_NODES)
        / (sum(sum(fwd[n]) for n in CONV_NODES) / 1e3) / 1e9
    )
    m.update(op_parts(rows, untraced_s))

    def delta(name: str) -> float:
        return rig.metrics.value(name) - counters[name]

    n_steps = delta("collective.steps")
    detail = {
        "mp.compute_ms": statistics.fmean(r["graph"] for r in rows) * 1e3,
        "collective.exposed_ms": statistics.fmean(exposed),
        "collective.bytes_per_step": delta("collective.bytes") / n_steps,
        "collective.hops_per_step": delta("collective.hops") / n_steps,
        "sgd.step_ms": statistics.fmean(s["sgd"] for s in probe.steps)
        * 1e3,
    }
    for (node, pass_), ms in sorted(other.items()):
        detail[f"conv.{node}.{pass_}_ms"] = statistics.median(ms)
    return m, detail


def run_ring(t_start: float, seed: int, seconds: float, trace: bool):
    from repro.jit.kernel_cache import get_default_cache

    rig = RingRig(t_start, seed)
    note(f"train_ring: set up in {rig.setup_s:.2f}s")
    try:
        weights = rig.prefix()
        if not trace:
            logs = [timed_steps(rig.step, rig.data, seconds,
                                MIN_RING_STEPS)]
            # root and workers, after the timed steps
            peak = rig.peak_rss_mb()
        else:
            logs, metrics, detail = _traced_ring(rig, seed, seconds)
    finally:
        rig.close()
    if not trace:
        metrics = {
            "setup_s": rig.setup_s, "peak_rss_mb": peak,
            "latency_mean_p10_p90_ms": central(logs[0].durations) * 1e3,
        }
        detail = {
            "latency_p50_ms": statistics.median(logs[0].durations) * 1e3,
            "images_per_s": logs[0].images_per_s(RING_BATCH),
            "step_p95_ms": percentile(logs[0].durations, 95) * 1e3,
        }
    else:
        metrics["jit.first_call_s"] = (
            rig.first_step_s - statistics.median(logs[0].durations))
        stats = get_default_cache().stats()
        metrics["jit.kernels_compiled"] = (
            stats["misses"] + stats["compiled_misses"]
        )
    correct = ring_prefix_matches(seed, weights)
    return (metrics, detail, sum(lg.attempted for lg in logs),
            sum(lg.failed for lg in logs), correct)


def _traced_ring(rig: RingRig, seed: int, seconds: float):
    """Steps on ``rig`` take turns with steps on a second trainer whose
    workers record spans; returns every step's log (the untraced ones
    first), the per-layer metrics and the detail."""
    from repro.obs.tracer import get_tracer

    traced_rig = RingRig(time.perf_counter(), seed, trace=True)
    try:
        get_tracer().clear()
        names = ("collective.steps", "collective.bytes", "collective.hops")
        counters = {k: traced_rig.metrics.value(k) for k in names}
        probe = TrainProbe()
        steps: list[int] = []

        def step(x, y):
            it = traced_rig.trainer.iteration
            ok = traced_rig.step(x, y)
            if ok:
                steps.append(it)
            return ok

        def traced_step() -> StepLog:
            with installed(probe, graph=False):
                return timed_steps(step, traced_rig.data, 0, 1, probe=probe)

        # single steps take turns: the poll sleep rounds step times to
        # 50 ms, and which multiple a step lands on follows the host's
        # speed from one second to the next
        plain, traced = alternate(
            seconds, lambda: timed_steps(rig.step, rig.data, 0, 1),
            traced_step,
        )
    finally:
        traced_rig.close()
    merged = StepLog()
    merged.durations = [d for lg in traced for d in lg.durations]
    metrics, detail = _ring_layers(
        traced_rig, merged, steps, probe, counters,
        central(d for lg in plain for d in lg.durations),
    )
    untraced = StepLog()
    untraced.durations = [d for lg in plain for d in lg.durations]
    untraced.failed = sum(lg.failed for lg in plain)
    return [untraced, *traced], metrics, detail


def setup_ring(t_start: float, seed: int) -> float:
    rig = RingRig(t_start, seed)
    rig.close()
    return rig.setup_s
