"""Per-layer probes for the traced run.

The untraced run installs nothing.  The traced run wraps the program's
public calls from here -- ``MicroBatcher.build`` / ``.scatter``,
``EngineReplica.run``, ``ExecutionTaskGraph.train_step``,
``ConvNode.forward`` / ``.backward`` / ``.update``, ``SGD.step`` --
records wall time per call, and puts the originals back afterwards.
Its untraced and traced blocks take turns (:func:`alternate`), and the
gap between the two is the tracing overhead.  The multi-process
trainer is read through the program's own spans and counters instead
(its workers are separate processes).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter

#: untraced/traced block pairs in a traced run of block-sized loads
ROUNDS = 4


class Patches:
    """Class-attribute wrappers that :meth:`undo` restores."""

    def __init__(self) -> None:
        self._saved: list[tuple[type, str, object]] = []

    def wrap(self, cls: type, name: str, make) -> None:
        orig = cls.__dict__[name]
        self._saved.append((cls, name, orig))
        setattr(cls, name, make(orig))

    def undo(self) -> None:
        while self._saved:
            cls, name, orig = self._saved.pop()
            setattr(cls, name, orig)


@contextmanager
def installed(probe, **kwargs):
    """``probe``'s wrappers are in place inside the ``with`` block."""
    patches = Patches()
    probe.install(patches, **kwargs)
    try:
        yield probe
    finally:
        patches.undo()


def alternate(seconds: float, plain, traced) -> tuple[list, list]:
    """Call ``plain()`` and ``traced()`` in turns, ordered p t t p p t
    ..., until ``2 * seconds`` have passed, so that a drift of the host's
    speed falls on both alike; returns both lists of results."""
    out: tuple[list, list] = ([], [])
    t0 = _clock()
    r = 0
    while _clock() - t0 < 2 * seconds:
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            out[side].append((plain, traced)[side]())
        r += 1
    return out


class ConvProbe:
    """Wall time of every ``ConvNode`` pass, per node, with its FLOPs.

    ``on_call(pass_, dt)`` (optional) also receives each duration, which
    the training probe uses to charge the current step."""

    def __init__(self, on_call=None) -> None:
        #: (pass, node) -> list of (minibatch, seconds, flops)
        self.calls: dict[tuple[str, str], list] = defaultdict(list)
        self._on_call = on_call

    def install(self, patches: Patches) -> None:
        from repro.gxm.nodes import ConvNode

        probe = self

        def timed(pass_: str):
            def make(orig):
                def wrapper(node, *args):
                    t = _clock()
                    out = orig(node, *args)
                    dt = _clock() - t
                    # blocked conv engines run the fixed N of node.p
                    probe.calls[(pass_, node.name)].append(
                        (node.p.N, dt, node.p.flops)
                    )
                    if probe._on_call is not None:
                        probe._on_call(pass_, dt)
                    return out
                return wrapper
            return make

        for pass_, method in (("fwd", "forward"), ("bwd", "backward"),
                              ("upd", "update")):
            patches.wrap(ConvNode, method, timed(pass_))

    def node_ms(self, pass_: str, node: str, minibatch=None) -> list[float]:
        return [dt * 1e3 for n, dt, _ in self.calls[(pass_, node)]
                if minibatch is None or n == minibatch]

    def gflops(self, pass_: str, minibatch=None) -> float:
        flops = secs = 0.0
        for (p, _), rows in self.calls.items():
            if p != pass_:
                continue
            for n, dt, f in rows:
                if minibatch is None or n == minibatch:
                    flops += f
                    secs += dt
        return flops / secs / 1e9


class ServeProbe:
    """One record per served batch: build time, rows, bucket, replay,
    conv (within the replay) and scatter durations, and the submit times
    of its requests."""

    def __init__(self) -> None:
        self.batches: list[dict] = []
        self._tls = threading.local()
        self.conv = ConvProbe(on_call=self._charge)

    def _charge(self, pass_: str, dt: float) -> None:
        # conv passes run on the worker thread, inside the batch's replay
        batch = getattr(self._tls, "batch", None)
        if batch is not None:
            batch["conv"] += dt

    def install(self, patches: Patches) -> None:
        from repro.serve.batcher import MicroBatcher
        from repro.serve.worker import EngineReplica

        probe = self
        tls = self._tls

        def build(orig):
            def wrapper(batcher, requests):
                t = _clock()
                out = orig(batcher, requests)
                _, n, bucket = out
                tls.batch = {
                    "t_build": t, "n": n, "bucket": bucket,
                    "requests": [(r.id, r.t_submit) for r in requests],
                    "replay": 0.0, "conv": 0.0, "scatter": 0.0,
                }
                probe.batches.append(tls.batch)
                return out
            return wrapper

        def run(orig):
            def wrapper(replica, batch, bucket):
                t = _clock()
                out = orig(replica, batch, bucket)
                tls.batch["replay"] += _clock() - t
                return out
            return wrapper

        def scatter(orig):
            def wrapper(batcher, requests, probs):
                t = _clock()
                out = orig(batcher, requests, probs)
                tls.batch["scatter"] += _clock() - t
                return out
            return wrapper

        patches.wrap(MicroBatcher, "build", build)
        patches.wrap(EngineReplica, "run", run)
        patches.wrap(MicroBatcher, "scatter", scatter)
        self.conv.install(patches)

    def per_request(self) -> dict[int, dict]:
        """request id -> its queue wait, replay, conv and scatter
        (seconds)."""
        out = {}
        for b in self.batches:
            for rid, t_submit in b["requests"]:
                out[rid] = {
                    "wait": b["t_build"] - t_submit,
                    "replay": b["replay"],
                    "conv": b["conv"],
                    "scatter": b["scatter"],
                }
        return out


class TrainProbe:
    """Per training step: the model graph, the conv pass totals within it
    and the optimizer step, charged to the step the trainer is
    running."""

    def __init__(self) -> None:
        self.steps: list[dict] = []
        self._cur: dict | None = None
        self.conv = ConvProbe(on_call=self._charge)

    def _charge(self, key: str, dt: float) -> None:
        if self._cur is not None:
            self._cur[key] += dt

    def begin_step(self) -> None:
        self._cur = {"graph": 0.0, "fwd": 0.0, "bwd": 0.0, "upd": 0.0,
                     "sgd": 0.0}

    def end_step(self, step_s: float) -> None:
        cur, self._cur = self._cur, None
        cur["step"] = step_s
        self.steps.append(cur)

    def install(self, patches: Patches, graph: bool = True) -> None:
        """``graph=False`` leaves the in-process model graph unwrapped
        (the multi-process trainer runs it in its workers)."""
        from repro.gxm.etg import ExecutionTaskGraph
        from repro.gxm.trainer import SGD

        probe = self

        def timed(key: str):
            def make(orig):
                def wrapper(obj, *args):
                    t = _clock()
                    out = orig(obj, *args)
                    probe._charge(key, _clock() - t)
                    return out
                return wrapper
            return make

        patches.wrap(SGD, "step", timed("sgd"))
        if graph:
            patches.wrap(ExecutionTaskGraph, "train_step", timed("graph"))
            self.conv.install(patches)
