"""Fault-injection tests: shard death, restart, and partial coverage.

The serving contract (module docstring of :mod:`repro.streaming.serving`):
killing a shard loses its sub-stream's mass, and every subsequent merge
degrades to *partial-coverage* semantics — the merged statistic covers the
surviving sub-streams only, with the loss reported through
``MergedRelease.missing``/``coverage``, ``ServedEstimate.covered_steps``
and ``ShardedStream.lost_steps`` — never silently dropped.  Restarting
brings the worker back with fresh mechanisms over a fresh (disjoint)
sub-stream, so the parallel-composition privacy argument survives the
whole kill/restart cycle.

The whole contract is backend-independent, so the suite re-runs over the
``SERVE_BACKEND`` axis (moment / projected / sketch) with the surviving
replay twin drawn through ``serving_backends.serve_backend_replay``.
"""

import os

import numpy as np
import pytest

from serving_backends import serve_backend_kwargs, serve_backend_replay
from repro import (
    EstimateHub,
    L2Ball,
    MultiTenantStream,
    PrivacyParams,
    ServingError,
    ShardedStream,
    ShardUnavailableError,
    TreeMechanism,
    merge_released,
)
from repro.data import make_dense_stream
from repro.exceptions import NoEstimateError, ValidationError

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
T = 24
BLOCKS = [(0, 4), (4, 8), (8, 12), (12, 16), (16, 20), (20, 24)]

#: Shard transport for every server in this suite (the CI TRANSPORT axis):
#: the kill/restart/partial-coverage contract must hold identically when
#: "killing a shard" means SIGKILLing a worker process.
TRANSPORT = os.environ.get("SERVE_TRANSPORT", "thread")


@pytest.fixture(scope="module")
def stream():
    return make_dense_stream(T, DIM, noise_std=0.05, rng=777)


def _server(k=3, seed=55, **kwargs):
    defaults = dict(horizon=T, iteration_cap=15, transport=TRANSPORT)
    defaults.update(serve_backend_kwargs(DIM))
    defaults.update(kwargs)
    return ShardedStream(L2Ball(DIM), PARAMS, shards=k, rng=seed, **defaults)


class TestShardDeath:
    def test_kill_degrades_to_partial_coverage(self, stream):
        server = _server()
        for s, e in BLOCKS[:3]:  # one block per shard (round-robin)
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        shard1_steps = server.shard_states()[1]["steps"]
        assert shard1_steps == 4

        server.kill_shard(1)
        assert server.lost_steps == shard1_steps

        for s, e in BLOCKS[3:]:  # routing skips the dead shard
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        served = server.flush()

        # The loss is accounted, not silent: coverage + lost == ingested.
        assert served.covered_steps == server.steps_ingested - server.lost_steps
        cross_m, gram_m = server.merged_moments()
        assert cross_m.missing == (1,)
        assert cross_m.coverage[1] == 0
        assert cross_m.covered_steps + server.lost_steps == T

    def test_partial_merge_bit_identical_to_surviving_replay(self, stream):
        """The partial merge equals a replay of the *surviving* shards."""
        k, seed = 3, 55
        server = _server(k=k, seed=seed)
        for s, e in BLOCKS[:3]:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        server.kill_shard(1)
        for s, e in BLOCKS[3:]:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        cross_m, _ = server.merged_moments()

        cross, _, transform = serve_backend_replay(k, seed, DIM, T, PARAMS)
        # Blocks 0..2 go round-robin to shards 0,1,2.  After the kill the
        # round-robin pointer continues over {0, 2}: block 3 → shard 0,
        # block 4 → (1 dead) 2, block 5 → 2... matching _route's skip rule.
        assignment = [0, 1, 2, 0, 2, 2]
        for (s, e), shard in zip(BLOCKS, assignment):
            rows, by = transform(stream.xs[s:e]), stream.ys[s:e]
            cross[shard].advance_batch(rows * by[:, None])
        np.testing.assert_array_equal(
            cross_m.value,
            merge_released(
                [cross[0].released_moments(), None, cross[2].released_moments()],
                strict=False,
            ).value,
        )

    def test_kill_is_idempotent(self, stream):
        server = _server()
        server.observe_batch(stream.xs[:4], stream.ys[:4])
        server.kill_shard(0)
        lost = server.lost_steps
        server.kill_shard(0)
        assert server.lost_steps == lost

    def test_all_shards_dead_cannot_ingest(self, stream):
        server = _server(k=2)
        server.observe_batch(stream.xs[:4], stream.ys[:4])
        server.kill_shard(0)
        server.kill_shard(1)
        with pytest.raises(ShardUnavailableError):
            server.observe_batch(stream.xs[4:8], stream.ys[4:8])

    def test_strict_merge_raises_on_missing_shard(self, stream):
        half = PARAMS.halve()
        alive = TreeMechanism(T, (DIM,), 2.0, half, rng=0)
        alive.observe(stream.xs[0] * stream.ys[0])
        with pytest.raises(ShardUnavailableError):
            merge_released([alive.released_moments(), None], strict=True)
        with pytest.raises(ShardUnavailableError):
            merge_released([None, None], strict=False)

    def test_out_of_range_index_rejected(self, stream):
        server = _server(k=2)
        with pytest.raises(ValidationError):
            server.kill_shard(2)
        with pytest.raises(ValidationError):
            server.restart_shard(5)


class TestShardRestart:
    def test_restart_resumes_ingestion_on_fresh_mechanisms(self, stream):
        server = _server()
        for s, e in BLOCKS[:3]:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        server.kill_shard(1)
        lost = server.lost_steps
        server.restart_shard(1)

        for s, e in BLOCKS[3:]:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        served = server.flush()

        # The restarted shard took new mass; only the pre-kill mass is lost.
        states = server.shard_states()
        assert states[1]["alive"] and states[1]["steps"] > 0
        assert server.lost_steps == lost
        assert served.covered_steps == T - lost
        cross_m, _ = server.merged_moments()
        assert cross_m.missing == ()

    def test_restart_of_live_shard_rejected(self, stream):
        server = _server()
        with pytest.raises(ServingError):
            server.restart_shard(0)

    def test_restart_under_basic_composition_charges_the_ledger(self, stream):
        """Basic mode cannot certify disjointness, so a replacement shard
        must pay for its own (ε/K, δ/K) — and the evenly-split default has
        no headroom, so the restart is refused with an accurate error
        instead of silently under-reporting the privacy loss."""
        from repro.exceptions import PrivacyBudgetError

        server = _server(composition="basic")
        server.observe_batch(stream.xs[:4], stream.ys[:4])
        server.kill_shard(0)
        charges_before = len(server.accountant.charges)
        with pytest.raises(PrivacyBudgetError):
            server.restart_shard(0)
        # The refused restart left the ledger and the shard untouched.
        assert len(server.accountant.charges) == charges_before
        assert not server.shard_states()[0]["alive"]
        assert server.accountant.within_budget()

    def test_restarted_shard_variance_accounting_consistent(self, stream):
        """Post-restart merges report the documented variance accounting."""
        server = _server()
        for s, e in BLOCKS[:3]:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        server.kill_shard(2)
        server.restart_shard(2)
        for s, e in BLOCKS[3:]:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])
        cross_m, _ = server.merged_moments()
        expected = 0.0
        cross = server.bundle_names.index("cross")
        with server._lock:
            for shard in server._shards:
                expected += shard.released()[cross].noise_variance
        assert cross_m.noise_variance == pytest.approx(expected)

    def test_empty_cache_read_raises_typed_no_estimate_error(self):
        """A never-published cache read is a typed, actionable failure.

        ``EstimateHub.get`` must raise :class:`NoEstimateError` — a
        subclass of both ``ServingError`` (serving-layer handlers) and
        ``LookupError`` (the builtin for failed lookups) — whose message
        names ``flush()`` as the fix, instead of an anonymous error the
        caller can only string-match.
        """
        cache = EstimateHub()
        with pytest.raises(NoEstimateError, match=r"flush\(\)"):
            cache.get()
        with pytest.raises(ServingError):
            cache.get()
        with pytest.raises(LookupError):
            cache.get()
        # A ShardedStream pre-publishes its solver's initial parameter, so
        # server reads never hit the empty-cache path.
        server = _server()
        assert server.current_estimate() is not None
        server.close()

    def test_fault_cycle_in_async_mode(self, stream):
        """Kill/restart under the worker thread keeps the books consistent."""
        with _server(mode="async") as server:
            for s, e in BLOCKS[:3]:
                server.observe_batch(stream.xs[s:e], stream.ys[s:e])
            server.flush()  # drain before touching shard lifecycle
            server.kill_shard(0)
            server.restart_shard(0)
            for s, e in BLOCKS[3:]:
                server.observe_batch(stream.xs[s:e], stream.ys[s:e])
            served = server.flush()
        assert served.covered_steps == T - server.lost_steps
        assert served.covered_steps + server.lost_steps == server.steps_ingested


class TestReplacementsDrawFreshKeys:
    """Tree node noise is a pure function of the mechanism's key and the
    node's address, so every replacement mechanism must draw a fresh key:
    otherwise the same node noise would be released over different data.
    Runs in-process (the mechanisms are read directly), on tree shards."""

    def test_restarted_shard_has_fresh_node_noise(self, stream):
        server = ShardedStream(
            L2Ball(DIM), PARAMS, shards=2, horizon=T, transport="thread", rng=55
        )
        try:
            server.observe_batch(stream.xs[:4], stream.ys[:4])
            before = [m._node_noise(0, 1) for m in server._shards[0].bundle._mechanisms.values()]
            server.kill_shard(0)
            server.restart_shard(0)
            after = [m._node_noise(0, 1) for m in server._shards[0].bundle._mechanisms.values()]
            for noise_before, noise_after in zip(before, after):
                assert not np.array_equal(noise_before, noise_after)
        finally:
            server.close()

    def test_re_added_tenant_has_fresh_node_noise(self, stream):
        server = MultiTenantStream(
            L2Ball(DIM), PARAMS, tenants=2, shards=2, horizon=T,
            transport="thread", rng=55,
        )
        try:
            Y = np.stack([stream.ys[:4], -stream.ys[:4]], axis=1)
            server.observe_batch(stream.xs[:4], Y)
            def tenant_1_noise():
                return [
                    shard.bundle.get("cross:tenant-1")._node_noise(0, 1)
                    for shard in server._shards
                ]

            before = tenant_1_noise()
            server.remove_tenant("tenant-1")
            server.add_tenant("tenant-1")
            after = tenant_1_noise()
            for noise_before, noise_after in zip(before, after):
                assert not np.array_equal(noise_before, noise_after)
        finally:
            server.close()


class TestCloseAndFlushLiveness:
    """Liveness of flush() and close() around a dead or dying async worker.

    flush() used to park on a bare ``Queue.join()``: if the worker thread
    died between ``get()`` and ``task_done()``, the join's condition could
    never be notified and the flush hung forever.  The liveness-checked
    join (``ShardedStream._join_queue``) turns that into a typed
    ``ServingError``.  close() used to guard with a bare ``_closed``
    check-then-act, letting two concurrent closers both run the teardown;
    it now serializes on a dedicated lock.
    """

    def test_flush_raises_instead_of_hanging_when_worker_is_dead(self, stream):
        from repro.streaming.serving import _CLOSE

        server = _server(mode="async")
        server.observe_batch(stream.xs[:4], stream.ys[:4])
        server.flush()  # live path: drains normally
        # Kill the worker out from under the queue, then strand a block on
        # it: the queue's unfinished count can never reach zero again —
        # exactly the state a worker death between get() and task_done()
        # leaves behind.
        worker = server._worker
        server._queue.put(_CLOSE)
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        server._queue.put((np.array(stream.xs[4:8]), np.array(stream.ys[4:8])))
        start = __import__("time").monotonic()
        with pytest.raises(ServingError, match="worker is dead"):
            server.flush()
        assert __import__("time").monotonic() - start < 5.0  # no hang
        # Drain the stranded block so shutdown's own flush can complete.
        server._queue.get_nowait()
        server._queue.task_done()
        server.close()

    def test_concurrent_close_runs_teardown_exactly_once(self, stream):
        import threading

        server = _server(mode="async")
        for s, e in BLOCKS[:3]:
            server.observe_batch(stream.xs[s:e], stream.ys[s:e])

        errors = []
        barrier = threading.Barrier(8)

        def closer():
            barrier.wait()
            try:
                server.close()
            except BaseException as exc:  # pragma: no cover - the bug
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # No closer crashed (a double teardown joins a None worker or
        # double-shuts the executor), and the server ended closed exactly
        # once: the worker is reclaimed and ingestion is refused.
        assert errors == []
        assert server._worker is None
        with pytest.raises(ServingError):
            server.observe(stream.xs[0], float(stream.ys[0]))

    def test_double_close_is_idempotent(self, stream):
        server = _server(mode="async")
        server.observe_batch(stream.xs[:4], stream.ys[:4])
        server.close()
        server.close()  # second call returns without touching anything
        assert server._worker is None

    def test_close_after_poison_reclaims_every_worker(self, stream):
        """A poisoned server (worker error pending) still tears down fully:
        the final flush is skipped (its failure is already recorded), the
        async thread and shard workers are reclaimed, and close stays
        idempotent."""
        server = _server(mode="async")
        server.observe_batch(stream.xs[:4], stream.ys[:4])
        server.flush()
        for i in range(3):
            server.kill_shard(i)
        server.observe_batch(stream.xs[4:8], stream.ys[4:8])  # poisons worker
        # Wait for the worker to record the failure (every shard is dead).
        deadline = __import__("time").monotonic() + 5.0
        while server._error is None and __import__("time").monotonic() < deadline:
            __import__("time").sleep(0.01)
        assert server._error is not None
        worker = server._worker
        server.close()
        server.close()
        assert server._worker is None
        assert not worker.is_alive()
        with pytest.raises(ServingError):
            server.flush()
