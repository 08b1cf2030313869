"""The benchmark's own load drivers.

* :func:`run_open_loop` -- one generator thread sends on a seeded
  schedule whatever the server does; one collector thread gathers the
  answers.  Each latency runs from the request's *due* time, so a stall
  in the generator is charged to every request it delayed, and how late
  the generator ran is reported beside it.
* :func:`run_offline` -- one thread keeps a fixed number of requests
  outstanding, the capacity measurement.

Both take a ``submit(i) -> handle`` callable (the handle has
``result(timeout)``), so they know nothing about the program.  A refused
submit, an error or a timeout is a failed request: its latency is
``math.inf``.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np


#: the open loop's first due time lies this far after its start, so the
#: threads are running before anything is due
START_DELAY_S = 0.05


def poisson_schedule(rate: float, n: int, seed: int) -> list[float]:
    """Due times (s, from the start) of ``n`` Poisson arrivals."""
    gaps = np.random.default_rng(seed).exponential(1.0 / rate, size=n)
    return np.cumsum(gaps).tolist()


@dataclass
class LoadRecord:
    """What a driver observed, one entry per request (index ``i``)."""

    #: absolute due time (open loop) or send time (offline)
    due: list[float]
    sent: list[float]
    #: completion time, ``None`` for a failed request
    done: list
    results: list
    handles: list
    #: when the load began
    start: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.due)

    @property
    def failed(self) -> int:
        return sum(1 for d in self.done if d is None)

    def latencies_s(self) -> list[float]:
        """Completion minus due time; ``inf`` for a failed request."""
        return [
            math.inf if d is None else d - due
            for due, d in zip(self.due, self.done)
        ]

    def late_s(self) -> list[float]:
        """How far behind its schedule the generator sent each request."""
        return [s - d for s, d in zip(self.sent, self.due)]


def _empty(n: int) -> LoadRecord:
    return LoadRecord(
        due=[0.0] * n, sent=[0.0] * n, done=[None] * n,
        results=[None] * n, handles=[None] * n,
    )


def run_open_loop(submit, schedule: list[float],
                  timeout_s: float) -> LoadRecord:
    """Send request ``i`` at ``t0 + schedule[i]`` from one generator
    thread; a collector thread waits for the answers in send order.

    The server answers in admission order (one FIFO queue), so waiting
    in send order observes each completion as it happens.
    """
    n = len(schedule)
    rec = _empty(n)
    sent_q: queue.SimpleQueue = queue.SimpleQueue()
    t0 = rec.start = time.perf_counter() + START_DELAY_S
    rec.due = [t0 + s for s in schedule]

    def generate() -> None:
        for i in range(n):
            delay = rec.due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            rec.sent[i] = time.perf_counter()
            try:
                rec.handles[i] = submit(i)
            except Exception:  # noqa: BLE001 -- a refused request
                pass
            sent_q.put(i)
        sent_q.put(None)

    def collect() -> None:
        while (i := sent_q.get()) is not None:
            handle = rec.handles[i]
            if handle is None:
                continue
            wait = rec.due[i] + timeout_s - time.perf_counter()
            try:
                rec.results[i] = handle.result(max(wait, 0.0))
            except Exception:  # noqa: BLE001 -- a failed request
                continue
            rec.done[i] = time.perf_counter()

    threads = [
        threading.Thread(target=generate, name="bench-generator"),
        threading.Thread(target=collect, name="bench-collector"),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return rec


def run_offline(submit, outstanding: int, seconds: float,
                timeout_s: float) -> LoadRecord:
    """Keep ``outstanding`` requests in flight from the calling thread
    for ``seconds``.  Requests still in flight at the end are waited
    for, so every sent request ends as an answer or a failure."""
    rec = _empty(0)
    window: deque = deque()
    rec.start = time.perf_counter()
    deadline = rec.start + seconds

    def send() -> None:
        i = len(rec.due)
        now = time.perf_counter()
        for lst, v in ((rec.due, now), (rec.sent, now), (rec.done, None),
                       (rec.results, None), (rec.handles, None)):
            lst.append(v)
        try:
            rec.handles[i] = submit(i)
            window.append(i)
        except Exception:  # noqa: BLE001 -- a refused request
            pass

    while True:
        while len(window) < outstanding and time.perf_counter() < deadline:
            send()
        if not window:
            break
        i = window.popleft()
        try:
            rec.results[i] = rec.handles[i].result(timeout_s)
        except Exception:  # noqa: BLE001 -- a failed request
            continue
        rec.done[i] = time.perf_counter()
    return rec


def offline_throughput(rec: LoadRecord, seconds: float) -> float:
    """Answers completed inside the window per second of window used:
    ``count / (last completion - start)``, counting only completions
    before ``start + seconds``."""
    end = rec.start + seconds
    inside = [d for d in rec.done if d is not None and d <= end]
    if not inside:
        return 0.0
    return len(inside) / (max(inside) - rec.start)
