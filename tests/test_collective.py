"""repro.collective: the fault-tolerant overlapped ring all-reduce.

Two layers of coverage:

* fast unit tests of the deterministic pieces -- fold orders (the chain
  ring's rank-order fold must equal the sequential root fold *bitwise*),
  tree edges, bucket cutting, the framed/CRC'd hop format, the
  bucket-filtered fault site;
* process-level integration: healthy ring training is bitwise identical
  to blocking root-mode training; a worker killed or hung mid-collective
  (every ring position, early and late buckets) completes the step
  degraded and -- under ``recompute`` -- finishes with weights bitwise
  identical to an undisturbed run; ``rescale`` folds the survivors with
  the correct weighting.  Plus regressions for the every-worker-failed
  respawn path and the dead-worker reply drain;
* event-driven waits: a step engine signals its end (done, failed or
  abandoned) exactly once, the root never sleeps on a healthy ring step,
  and a SIGKILLed worker is noticed at its exit, not at a timeout.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.collective import (
    BucketSpec,
    CorruptBucket,
    GradBucketer,
    Membership,
    PeerReceiver,
    RingEngine,
    TreeEngine,
    decode_bucket,
    fold_gradients,
    fold_ring,
    fold_tree,
    layer_param_indices,
    peers_for,
    ring_peers,
    send_bucket,
    tree_children,
    tree_parent,
    tree_peers,
)
from repro.gxm import multiproc
from repro.gxm.data import SyntheticImageDataset
from repro.gxm.etg import ExecutionTaskGraph
from repro.gxm.multiproc import ProcessParallelTrainer
from repro.gxm.parser import parse_topology
from repro.models.resnet50 import resnet_mini_topology
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.resilience import FaultPlan, FaultSpec, WorkerFailure
from repro.types import ReproError

pytestmark = pytest.mark.timeout(120)

SHAPE = (3, 8, 8)
CLASSES = 4
#: small enough that the tiny topology cuts several buckets per step
TINY_BUCKET = 1024


def tiny_topology():
    return resnet_mini_topology(num_classes=CLASSES, width=8)


def tiny_dataset(n=18, seed=3):
    return SyntheticImageDataset(
        n=n, num_classes=CLASSES, shape=SHAPE, seed=seed
    )


def tiny_etg():
    return ExecutionTaskGraph(
        parse_topology(tiny_topology().to_text()), (2, *SHAPE),
        engine="fast", seed=0,
    )


def weights_of(etg):
    return [p.copy() for p in etg.params()]


@pytest.fixture
def clean_metrics():
    get_metrics().clear()
    yield get_metrics()
    get_metrics().clear()


def run_trainer(ds, **kw):
    """One full training run; returns (trainer, weights, losses)."""
    kw.setdefault("step_timeout", 15.0)
    t = ProcessParallelTrainer(
        tiny_topology(), (2, *SHAPE), nodes=kw.pop("nodes", 3), seed=0,
        **kw,
    )
    try:
        t.fit(ds, batch_size=2, epochs=1)
        return t, weights_of(t.root), list(t.metrics.losses)
    finally:
        t.close()


# ---------------------------------------------------------------------------
class TestFolds:
    def test_fold_ring_is_bitwise_rank_order(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 8):
            shards = [
                [rng.standard_normal((3, 4)).astype(np.float32),
                 rng.standard_normal(7).astype(np.float32)]
                for _ in range(n)
            ]
            got = fold_ring(shards, n)
            for i in range(2):
                acc = shards[0][i].copy()
                for s in shards[1:]:
                    acc += s[i]
                acc /= n
                assert np.array_equal(got[i], acc)
            # inputs must not be mutated (the root reuses them)
            assert not np.array_equal(got[0], shards[0][0])

    def test_fold_tree_matches_binomial_combination(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 4, 5, 7, 8):
            shards = [[rng.standard_normal(5)] for _ in range(n)]
            got = fold_tree(shards, n)[0]
            # hand-rolled binomial: (g0+g1)+(g2+g3), then pair the pairs
            parts = [s[0].copy() for s in shards]
            d = 1
            while d < n:
                for r in range(0, n - d, 2 * d):
                    parts[r] = parts[r] + parts[r + d]
                d *= 2
            assert np.array_equal(got, parts[0] / n)

    def test_fold_gradients_dispatches_by_mode(self):
        shards = [[np.ones(3)], [np.full(3, 2.0)]]
        assert np.array_equal(
            fold_gradients("ring", shards, 2)[0], np.full(3, 1.5)
        )
        assert np.array_equal(
            fold_gradients("tree", shards, 2)[0], np.full(3, 1.5)
        )
        assert np.array_equal(
            fold_gradients("root", shards, 2)[0], np.full(3, 1.5)
        )


class TestTopologies:
    def test_ring_peers_are_the_two_neighbours(self):
        assert ring_peers(0, 2) == {1}
        assert ring_peers(1, 4) == {0, 2}
        assert ring_peers(0, 4) == {1, 3}

    @pytest.mark.parametrize("nodes", [2, 3, 4, 5, 8, 9])
    def test_tree_edges_are_consistent(self, nodes):
        for rank in range(1, nodes):
            parent = tree_parent(rank)
            assert 0 <= parent < rank
            assert rank in tree_children(parent, nodes)
        # edge symmetry: peers on both ends agree
        for a in range(nodes):
            for b in tree_peers(a, nodes):
                assert a in tree_peers(b, nodes)
        # reduce edges form a spanning tree: N-1 edges total
        n_edges = sum(len(tree_children(r, nodes)) for r in range(nodes))
        assert n_edges == nodes - 1

    def test_peers_for_rejects_root_mode(self):
        with pytest.raises(ReproError, match="no peer topology"):
            peers_for("root", 0, 2)

    def test_membership_reset(self):
        m = Membership(3)
        m.stale = False
        m.reset_all()
        assert m.stale and m.needs_sync == {0, 1, 2}


# ---------------------------------------------------------------------------
class TestBucketing:
    def test_layer_indices_cover_params_in_order(self):
        etg = tiny_etg()
        idx = layer_param_indices(etg)
        flat = [i for t in idx.values() for i in t]
        assert flat == list(range(len(etg.params())))

    def test_tiny_topology_cuts_multiple_buckets(self):
        # the integration fault matrix targets bucket 0 *and* bucket 1;
        # this guards the premise that both exist at TINY_BUCKET bytes
        etg = tiny_etg()
        idx = layer_param_indices(etg)
        sizes = [p.nbytes for p in etg.params()]
        b = GradBucketer(idx, sizes, TINY_BUCKET)
        grads = etg.params()  # stand-ins: only shapes/sizes matter
        cut = []
        for layer, indices in idx.items():
            cut += b.land(layer, [grads[i] for i in indices])
        cut += b.finish(grads)
        assert len(cut) >= 2

    def test_cut_at_cap_and_exactly_once_coverage(self):
        idx = {"a": (0, 1), "b": (2,), "c": (3,)}
        sizes = [40, 40, 100, 8]
        b = GradBucketer(idx, sizes, 64)
        arrs = [np.zeros(s // 8) for s in sizes]
        first = b.land("a", arrs[:2])  # 80 bytes >= 64: cut now
        assert len(first) == 1
        spec, payload = first[0]
        assert spec.bucket_id == 0 and spec.indices == (0, 1)
        assert len(payload) == 2
        assert b.land("b", [arrs[2]]) != []  # 100 >= 64: its own bucket
        rest = b.finish(arrs)
        assert [s.indices for s, _ in rest] == [(3,)]
        assert b.buckets_cut == 3

    def test_finish_sweeps_layers_that_never_landed(self):
        idx = {"a": (0,), "b": (1,)}
        b = GradBucketer(idx, [8, 8], 1 << 20)
        cut = b.finish([np.zeros(1), np.ones(1)])
        assert len(cut) == 1
        spec, payload = cut[0]
        assert spec.indices == (0, 1)
        assert np.array_equal(payload[1], np.ones(1))

    def test_relanding_a_layer_is_idempotent(self):
        idx = {"a": (0,)}
        b = GradBucketer(idx, [8], 1 << 20)
        b.land("a", [np.zeros(1)])
        b.land("a", [np.zeros(1)])
        cut = b.finish([np.zeros(1)])
        assert cut[0][0].indices == (0,)


# ---------------------------------------------------------------------------
class TestChannels:
    def test_bucket_roundtrip_over_a_real_pipe(self):
        a, b = mp.Pipe()
        arrays = [np.arange(6, dtype=np.float32).reshape(2, 3)]
        n = send_bucket(a, "red", step=3, epoch=1, bucket_id=2, sender=0,
                        arrays=arrays)
        assert n > 0
        kind, step, epoch, bucket_id, sender, got = decode_bucket(
            b.recv(), culprit=0
        )
        assert (kind, step, epoch, bucket_id, sender) == ("red", 3, 1, 2, 0)
        assert np.array_equal(got[0], arrays[0])

    def test_corrupted_payload_fails_the_checksum(self):
        a, b = mp.Pipe()
        send_bucket(a, "red", 0, 0, 0, 1, [np.zeros(8)], corrupt=True)
        with pytest.raises(CorruptBucket, match="checksum") as ei:
            decode_bucket(b.recv(), culprit=1)
        assert ei.value.culprit == 1

    @pytest.mark.parametrize(
        "frame",
        [
            "not a tuple",
            ("bkt", "red", 0),  # too short
            ("wrong", "red", 0, 0, 0, 1, 0, b""),  # bad tag
            ("bkt", "red", "x", 0, 0, 1, 0, b""),  # non-int header
        ],
    )
    def test_malformed_frames_are_typed_errors(self, frame):
        with pytest.raises(CorruptBucket, match="malformed"):
            decode_bucket(frame, culprit=2)


class TestFaultSiteFilters:
    def test_bucket_filter_gates_collective_hop(self, clean_metrics):
        from repro.resilience.faults import FaultInjector

        plan = FaultPlan(specs=(FaultSpec(
            site="collective.hop", kind="corrupt_message", step=1,
            rank=2, bucket=3,
        ),))
        inj = FaultInjector(plan)
        assert inj.fire("collective.hop", step=1, rank=2, bucket=0) is None
        assert inj.fire("collective.hop", step=1, rank=0, bucket=3) is None
        hit = inj.fire("collective.hop", step=1, rank=2, bucket=3)
        assert hit is not None and hit.kind == "corrupt_message"


# ---------------------------------------------------------------------------
class TestHealthyCollective:
    def test_ring_matches_root_mode_bitwise(self, clean_metrics):
        ds = tiny_dataset()
        _, w_root, l_root = run_trainer(ds, allreduce="root", nodes=2)
        get_metrics().clear()
        t, w_ring, l_ring = run_trainer(
            ds, allreduce="ring", nodes=2, bucket_bytes=TINY_BUCKET
        )
        assert l_ring == l_root
        assert all(np.array_equal(a, b) for a, b in zip(w_ring, w_root))
        steps = len(l_ring)
        m = clean_metrics
        assert m.value("collective.steps") == steps
        assert m.value("collective.buckets") >= 2 * steps  # tiny buckets
        assert m.value("collective.bytes") > 0
        assert m.value("collective.hops") > 0
        assert m.value("collective.rebuilds") == 1
        assert m.value("collective.syncs") == 2  # initial broadcast only
        assert m.value("collective.aborts") == 0
        assert t.failures == []

    def test_overlap_spans_reach_the_root_tracer(self, clean_metrics):
        tracer = get_tracer()
        tracer.clear()
        ds = tiny_dataset(n=12)
        run_trainer(ds, allreduce="ring", trace=True, nodes=2,
                    bucket_bytes=TINY_BUCKET)
        names = tracer.span_names()
        assert "collective.step" in names
        assert "collective.exposed" in names
        tracer.clear()

    def test_tree_mode_trains_with_three_nodes(self, clean_metrics):
        # 3 nodes: a non-power-of-two binomial tree
        ds = tiny_dataset(n=12)
        t, w, losses = run_trainer(
            ds, allreduce="tree", nodes=3, bucket_bytes=TINY_BUCKET
        )
        assert len(losses) == 2
        assert all(np.isfinite(p).all() for p in w)
        assert clean_metrics.value("collective.steps") == 2
        assert t.failures == []

    def test_invalid_allreduce_is_rejected(self):
        with pytest.raises(ReproError, match="unknown allreduce"):
            ProcessParallelTrainer(
                tiny_topology(), (2, *SHAPE), nodes=2, allreduce="mesh"
            )

    def test_single_node_degenerates_to_root(self):
        t = ProcessParallelTrainer(
            tiny_topology(), (2, *SHAPE), nodes=1, allreduce="ring"
        )
        try:
            assert t.allreduce == "root"
        finally:
            t.close()


# ---------------------------------------------------------------------------
class TestMidCollectiveFaults:
    """SIGKILL and hang at every ring position, early and late buckets:
    the step completes degraded and recovers bit-identically."""

    @pytest.fixture(scope="class")
    def ring_reference(self):
        ds = tiny_dataset()
        get_metrics().clear()
        t = ProcessParallelTrainer(
            tiny_topology(), (2, *SHAPE), nodes=3, seed=0,
            step_timeout=15.0, bucket_bytes=TINY_BUCKET,
        )
        try:
            t.fit(ds, batch_size=2, epochs=1)
            return ds, weights_of(t.root), list(t.metrics.losses)
        finally:
            t.close()
            get_metrics().clear()

    @pytest.mark.parametrize(
        "kind,rank,bucket",
        [
            ("crash", 0, 0),   # first ring position, early bucket
            ("crash", 1, 1),   # middle position, late bucket
            ("crash", 2, 0),   # last position (the averaging rank)
            ("hang", 0, 1),
            ("hang", 1, 0),
            ("hang", 2, 1),
        ],
    )
    def test_fault_recovers_bit_identical(self, clean_metrics,
                                          ring_reference, kind, rank,
                                          bucket):
        ds, ref_w, ref_losses = ring_reference
        plan = FaultPlan(specs=(FaultSpec(
            site="collective.hop", kind=kind, step=1, rank=rank,
            bucket=bucket,
        ),))
        timeout = 2.0 if kind == "hang" else 15.0
        t, w, losses = run_trainer(
            ds, fault_plan=plan, bucket_bytes=TINY_BUCKET,
            step_timeout=timeout,
        )
        m = clean_metrics
        assert m.value("resilience.degraded_steps") == 1
        assert m.value("resilience.respawns") == 1
        assert m.value("collective.aborts") == 1
        assert [f.rank for f in t.failures] == [rank]
        assert losses == ref_losses
        assert all(np.array_equal(a, b) for a, b in zip(ref_w, w))

    def test_corrupt_hop_blames_the_sender(self, clean_metrics,
                                           ring_reference):
        ds, ref_w, ref_losses = ring_reference
        plan = FaultPlan(specs=(FaultSpec(
            site="collective.hop", kind="corrupt_message", step=2,
            rank=1, bucket=0,
        ),))
        t, w, losses = run_trainer(
            ds, fault_plan=plan, bucket_bytes=TINY_BUCKET
        )
        assert [f.rank for f in t.failures] == [1]
        assert clean_metrics.value("collective.errors.corrupt") == 1
        assert losses == ref_losses
        assert all(np.array_equal(a, b) for a, b in zip(ref_w, w))

    def test_simultaneous_crash_every_rank(self, clean_metrics,
                                           ring_reference):
        # all three ranks die at the same hop: the wait loop blames only
        # the first casualty it sees, so the others reach completion as
        # unblamed missing results -- they must still be recomputed,
        # never silently dropped from the fold divisor / loss weighting
        ds, ref_w, ref_losses = ring_reference
        plan = FaultPlan(specs=(FaultSpec(
            site="collective.hop", kind="crash", step=1, bucket=0,
        ),))
        t, w, losses = run_trainer(
            ds, fault_plan=plan, bucket_bytes=TINY_BUCKET,
            max_respawns=3,
        )
        m = clean_metrics
        assert m.value("resilience.degraded_steps") == 1
        assert m.value("resilience.respawns") == 3
        assert sorted(f.rank for f in t.failures) == [0, 1, 2]
        assert losses == ref_losses
        assert all(np.array_equal(a, b) for a, b in zip(ref_w, w))

    def test_rescale_weighting_matches_root_mode(self, clean_metrics):
        # losing rank 1's shard mid-collective must fold the survivors
        # exactly like root mode losing the same shard pre-collective
        ds = tiny_dataset(n=12)
        plan_root = FaultPlan(specs=(FaultSpec(
            site="mp.worker.step", kind="crash", step=1, rank=1,
        ),))
        _, w_root, _ = run_trainer(
            ds, allreduce="root", degrade_policy="rescale",
            fault_plan=plan_root,
        )
        get_metrics().clear()
        plan_ring = FaultPlan(specs=(FaultSpec(
            site="collective.hop", kind="crash", step=1, rank=1,
            bucket=0,
        ),))
        _, w_ring, _ = run_trainer(
            ds, degrade_policy="rescale", fault_plan=plan_ring,
            bucket_bytes=TINY_BUCKET,
        )
        assert all(np.array_equal(a, b) for a, b in zip(w_ring, w_root))


# ---------------------------------------------------------------------------
class TestSatelliteRegressions:
    def test_every_worker_failed_respawns_before_raising(
        self, clean_metrics
    ):
        # regression: the all-dead path used to raise before the respawn
        # loop ran, leaving the fleet permanently dead under rescale
        t = ProcessParallelTrainer(
            tiny_topology(), (2, *SHAPE), nodes=2, seed=0,
            degrade_policy="rescale", step_timeout=15.0, max_respawns=4,
        )
        try:
            batches = list(tiny_dataset(n=12).batches(4, 1,
                                                      seed=t.shuffle_seed))
            t.train_step(*batches[0])
            for proc in list(t._procs):
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=10)
            with pytest.raises(WorkerFailure, match="every worker"):
                t.train_step(*batches[1])
            # both ranks were respawned before the raise...
            assert t.live_workers == 2
            assert clean_metrics.value("resilience.respawns") == 2
            # ...so the next step trains instead of failing again
            t.train_step(*batches[2])
            assert len(t.metrics.losses) == 2
        finally:
            t.close()

    def test_recv_drains_every_queued_reply_of_a_dead_worker(self):
        # regression: _recv used to drain at most ONE queued message
        # after noticing the process died -- a worker that sent a stale
        # ack plus its real reply and then exited was misreported dead
        def chatty(conn):
            conn.send(("ringok", 7))
            conn.send(("grads", 3, "payload", 0.5, 0.5, None))
            conn.close()

        parent, child = mp.Pipe()
        proc = mp.get_context("fork").Process(target=chatty, args=(child,))
        proc.start()
        child.close()
        proc.join(timeout=10)
        time.sleep(0.1)  # ensure the death is observable before _recv
        t = object.__new__(ProcessParallelTrainer)
        t.step_timeout = 5.0
        t._conns = [parent]
        t._procs = [proc]
        reply = t._recv(0, want=(("grads",), 3))
        assert reply[0] == "grads" and reply[2] == "payload"

    def test_worker_reply_crash_still_counts_the_step(
        self, clean_metrics
    ):
        # the mp.worker.reply site kills the worker right after its
        # reply is queued: the step must complete healthy off the
        # drained pipe, with the death only surfacing next step
        ds = tiny_dataset(n=12)
        _, ref_w, ref_losses = run_trainer(ds, allreduce="root")
        get_metrics().clear()
        plan = FaultPlan(specs=(FaultSpec(
            site="mp.worker.reply", kind="crash", step=0, rank=1,
        ),))
        t, w, losses = run_trainer(
            ds, allreduce="root", fault_plan=plan
        )
        m = get_metrics()
        assert losses[0] == ref_losses[0]  # step 0 completed healthy
        assert m.value("resilience.degraded_steps") == 1  # step 1 only
        assert m.value("resilience.respawns") == 1
        assert losses == ref_losses  # recompute keeps bit-identity
        assert all(np.array_equal(a, b) for a, b in zip(ref_w, w))


# ---------------------------------------------------------------------------
class TestEventDrivenWaits:
    """The waits on a collective step's critical path block on events
    (the engine's settle callback, pipes, process sentinels) rather than
    on fixed poll intervals."""

    ENGINES = {"ring": RingEngine, "tree": TreeEngine}

    @staticmethod
    def _engine(mode, rank, conn, settled):
        """A 2-node engine at ``rank`` whose only peer link is ``conn``;
        ``settled`` collects the engine's state at each settle call."""
        receiver = PeerReceiver({1 - rank: conn}, epoch=0)

        def on_settle():
            settled.append((eng.done, eng.failed))

        eng = TestEventDrivenWaits.ENGINES[mode](
            rank=rank, nodes=2, step=0, epoch=0, peers={1 - rank: conn},
            receiver=receiver, param_shapes=[(4,)],
            hop_timeout=30.0, on_settle=on_settle,
        )
        eng.start()
        return eng, receiver

    @staticmethod
    def _join_engine_thread(eng):
        name = f"coll-engine-{eng.rank}-s{eng.step}"
        for t in threading.enumerate():
            if t.name == name:
                t.join(timeout=30)
                assert not t.is_alive()

    @pytest.mark.parametrize("mode", ["ring", "tree"])
    def test_settle_fires_once_when_done(self, mode):
        a, b = mp.Pipe()
        spec = BucketSpec(bucket_id=0, indices=(0,), nbytes=16)
        runs = []
        for rank, conn in ((0, a), (1, b)):
            settled = []
            eng, rx = self._engine(mode, rank, conn, settled)
            eng.feed(spec, [np.full(4, float(rank + 1), np.float32)])
            eng.finish()
            runs.append((eng, rx, settled))
        for eng, rx, settled in runs:
            self._join_engine_thread(eng)
            assert len(settled) == 1
            assert settled[0] == (True, None)
            assert np.array_equal(eng.result_list()[0], np.full(4, 1.5))
            rx.stop()

    @pytest.mark.parametrize("mode", ["ring", "tree"])
    def test_settle_fires_once_when_failed(self, mode):
        a, b = mp.Pipe()
        settled = []
        eng, rx = self._engine(mode, 0, a, settled)
        b.close()  # the peer is gone: the receiver's EOF fails the step
        self._join_engine_thread(eng)
        assert len(settled) == 1
        done, failed = settled[0]
        assert not done and failed is not None and failed.kind == "peer_gone"
        rx.stop()

    @pytest.mark.parametrize("mode", ["ring", "tree"])
    def test_settle_fires_once_when_abandoned(self, mode):
        a, b = mp.Pipe()
        settled = []
        eng, rx = self._engine(mode, 1, b, settled)
        eng.abandon()
        self._join_engine_thread(eng)
        assert len(settled) == 1
        done, failed = settled[0]
        assert not done and failed is not None and failed.kind == "abort"
        rx.stop()

    def test_healthy_ring_step_never_sleeps_at_the_root(
        self, clean_metrics, monkeypatch
    ):
        t = ProcessParallelTrainer(
            tiny_topology(), (2, *SHAPE), nodes=2, seed=0,
            step_timeout=15.0, bucket_bytes=TINY_BUCKET,
        )
        try:
            batches = list(tiny_dataset(n=12).batches(
                4, 1, seed=t.shuffle_seed))
            # the workers are already forked: the spy sees the root only
            real_sleep = time.sleep
            me = threading.get_ident()
            calls = []

            def spy(seconds):
                if threading.get_ident() == me:
                    calls.append(seconds)
                real_sleep(seconds)

            monkeypatch.setattr(multiproc.time, "sleep", spy)
            for x, labels in batches:
                t.train_step(x, labels)
            assert calls == []
            assert clean_metrics.value("collective.steps") == len(batches)
            assert t.failures == []
        finally:
            t.close()

    def test_recv_notices_a_sigkilled_worker_at_its_exit(self):
        # the pipe's far end stays open in this process, so the pipe
        # never reports EOF: only the process sentinel can reveal the
        # death before the 30 s step timeout
        parent, child = mp.Pipe()
        proc = mp.get_context("fork").Process(
            target=time.sleep, args=(3600,)
        )
        proc.start()
        t = object.__new__(ProcessParallelTrainer)
        t.step_timeout = 30.0
        t._conns = [parent]
        t._procs = [proc]
        try:
            os.kill(proc.pid, signal.SIGKILL)
            t0 = time.monotonic()
            with pytest.raises(WorkerFailure, match="process died"):
                t._recv(0)
            assert time.monotonic() - t0 < 5.0
        finally:
            proc.join(timeout=10)
            parent.close()
            child.close()
