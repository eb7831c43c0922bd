"""Reader-semantics conformance suite for the read-side scaling layer.

Pins the contracts of :mod:`repro.streaming.readers`, whose
:class:`~repro.streaming.readers.EstimateHub` is a served model's
lock-free published-estimate slot:

(a) **Lock-free publish/read** — ``get`` is a pointer read of the frozen
    entry ``publish`` installed by atomic reference swap; no counter
    mutation, no hot-path lock.  ``publish`` rejects version decreases
    *and* (a past regression) equal-version publishes with a different
    payload, so ``same version ⇒ same payload`` and version-based refresh
    detection can never miss a changed estimate.

(b) **Reader handles** — per-reader snapshots with a version fast-path
    check, per-reader read counts aggregated on demand
    (``read_stats()``), ``NoEstimateError`` through a handle before the
    first publish, retirement folding counts into the hub.

(c) **Pub-sub invalidation** — subscribers fire on every publish with the
    new entry (after it is visible to readers), exceptions are isolated
    per subscription, and ``wait_for_version`` parks pollers until the
    satisfying publish (or wakes them on timeout/hub close); ``close``
    and ``publish`` serialize, so no publish lands after ``close``.

(d) **Concurrent hammer** — N reader threads against a live publisher:
    every observed entry is identical (``is``) to a published one (no
    torn reads), per-reader version sequences are monotone, and the final
    read is never staler than the last completed publish.

The ``ShardedStream`` integration tests honor the CI serving matrix
(``SERVE_SHARDS`` / ``SERVE_TRANSPORT`` / ``SERVE_BACKEND``), so reader
semantics are re-proven over process-transport workers and over the
projected/sketch shard backends too.
"""

import gc
import os
import sys
import threading
import time

import numpy as np
import pytest

from serving_backends import SERVE_BACKEND, serve_backend_kwargs, serve_backend_replay
from repro import (
    IncrementalRunner,
    L2Ball,
    PrivacyParams,
    PrivIncReg1,
    PrivIncReg2,
    ServingError,
    ShardedStream,
)
from repro.data import make_dense_stream
from repro.exceptions import (
    NoEstimateError,
    PublishConflictError,
    ValidationError,
    WaitTimeoutError,
)
from repro.streaming import EstimateHub
from repro.streaming.metrics import ReadStats

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
T = 26

if "SERVE_SHARDS" in os.environ:
    SHARD_COUNTS = [int(os.environ["SERVE_SHARDS"])]
else:
    SHARD_COUNTS = [1, 2, 4]

TRANSPORT = os.environ.get("SERVE_TRANSPORT", "thread")

RAGGED_BLOCKS = [(0, 5), (5, 6), (6, 13), (13, 20), (20, 26)]


@pytest.fixture(scope="module")
def stream():
    return make_dense_stream(T, DIM, noise_std=0.05, rng=901)


def _make_server(k, seed, **kwargs):
    defaults = dict(horizon=T, iteration_cap=20, transport=TRANSPORT)
    defaults.update(serve_backend_kwargs(DIM))
    defaults.update(kwargs)
    return ShardedStream(L2Ball(DIM), PARAMS, shards=k, rng=seed, **defaults)


def _publish(target, version):
    """One deterministic publish: the payload encodes the version."""
    theta = np.full(DIM, float(version))
    return target.publish(theta, version, version, version)


# ---------------------------------------------------------------------------
# (a) Lock-free publish/read
# ---------------------------------------------------------------------------


class TestHubSlotLockFree:
    def test_get_is_a_pointer_read_with_no_stat_mutation(self):
        hub = EstimateHub()
        entry = _publish(hub, 1)
        assert hub.get() is entry
        assert hub.get() is hub.get()
        # The hot path mutates nothing: reads leave publisher stats alone.
        before = hub.stats()
        for _ in range(50):
            hub.get()
        assert hub.stats() == before
        # No shared read counter exists any more (PR-5 satellite): read
        # stats live on reader handles only.
        assert not hasattr(hub, "reads")

    def test_empty_hub_peek_get_version(self):
        hub = EstimateHub()
        assert hub.peek() is None
        assert hub.version == -1
        with pytest.raises(NoEstimateError, match=r"flush\(\)"):
            hub.get()

    def test_version_decrease_rejected(self):
        hub = EstimateHub()
        _publish(hub, 3)
        with pytest.raises(PublishConflictError):
            _publish(hub, 2)
        # The typed error is still a ServingError for existing handlers.
        assert issubclass(PublishConflictError, ServingError)

    def test_equal_version_different_payload_rejected(self):
        """Regression (ISSUE 5): a duplicate version must not smuggle in a
        changed estimate past version-based refresh detection."""
        hub = EstimateHub()
        _publish(hub, 1)
        with pytest.raises(PublishConflictError, match="duplicate"):
            hub.publish(np.full(DIM, 99.0), 1, 1, 1)
        # Same theta but different coverage metadata is a conflict too.
        with pytest.raises(PublishConflictError, match="duplicate"):
            hub.publish(np.full(DIM, 1.0), 1, 7, 1)
        # The conflicting publish must not have replaced the entry.
        np.testing.assert_array_equal(hub.get().theta, np.full(DIM, 1.0))

    def test_equal_version_identical_payload_is_idempotent(self):
        hub = EstimateHub()
        first = _publish(hub, 1)
        again = _publish(hub, 1)
        assert again is first  # the existing entry, same reference
        assert hub.stats()["writes"] == 1  # no-op: write counter untouched

    def test_stats_snapshot_is_consistent_and_complete(self):
        hub = EstimateHub()
        assert hub.stats() == {
            "version": -1,
            "writes": 0,
            "timestep": None,
            "covered_steps": None,
        }
        _publish(hub, 2)
        assert hub.stats() == {
            "version": 2,
            "writes": 1,
            "timestep": 2,
            "covered_steps": 2,
        }
        assert hub.writes == 1

    def test_hub_wait_for_version(self):
        hub = EstimateHub()
        _publish(hub, 2)
        assert hub.wait_for_version(1).version == 2  # already satisfied
        with pytest.raises(WaitTimeoutError):
            hub.wait_for_version(3, timeout=0.02)


# ---------------------------------------------------------------------------
# (b) Reader handles
# ---------------------------------------------------------------------------


class TestReaderHandle:
    def test_no_estimate_before_first_publish_via_handle(self):
        hub = EstimateHub()
        handle = hub.reader()
        with pytest.raises(NoEstimateError):
            handle.current()
        with pytest.raises(NoEstimateError):
            handle.theta()
        assert handle.version == -1
        # A failed read counts nothing and leaves no snapshot.
        assert handle.reads == 0

    def test_snapshot_fast_path_and_invalidation(self):
        hub = EstimateHub()
        first = _publish(hub, 1)
        handle = hub.reader()
        assert handle.current() is first
        assert (handle.reads, handle.snapshot_hits) == (1, 0)
        assert handle.current() is first  # version fast path
        assert (handle.reads, handle.snapshot_hits) == (2, 1)
        second = _publish(hub, 2)
        assert handle.current() is second  # publish invalidated the snapshot
        assert (handle.reads, handle.snapshot_hits) == (3, 1)
        assert handle.version == 2

    def test_read_stats_aggregated_on_demand_and_folded_on_close(self):
        hub = EstimateHub()
        _publish(hub, 1)
        a, b = hub.reader(), hub.reader()
        for _ in range(3):
            a.current()
        b.current()
        stats = hub.read_stats()
        assert isinstance(stats, ReadStats)
        assert (stats.readers, stats.reads, stats.snapshot_hits) == (2, 4, 2)
        assert stats.hit_rate == pytest.approx(0.5)
        a.close()
        folded = hub.read_stats()
        assert (folded.readers, folded.reads, folded.snapshot_hits) == (1, 4, 2)

    def test_closed_handle_refuses_reads_idempotently(self):
        hub = EstimateHub()
        _publish(hub, 1)
        with hub.reader() as handle:
            handle.current()
        assert handle.closed
        handle.close()  # idempotent
        with pytest.raises(ServingError):
            handle.current()
        with pytest.raises(ServingError):
            handle.wait_for_version(1)
        # Counts from the closed handle stay in the totals exactly once.
        assert hub.read_stats().reads == 1

    def test_counts_survive_handles_dropped_without_close(self):
        """Regression (code review): a handle GC'd without close() must
        fold its counts into the totals, not silently drop them."""
        hub = EstimateHub()
        _publish(hub, 1)
        handle = hub.reader()
        for _ in range(5):
            handle.current()
        del handle
        gc.collect()
        stats = hub.read_stats()
        assert (stats.readers, stats.reads, stats.snapshot_hits) == (0, 5, 4)

    def test_handle_stats_dict(self):
        hub = EstimateHub()
        _publish(hub, 4)
        handle = hub.reader()
        handle.current()
        assert handle.stats() == {
            "reads": 1,
            "snapshot_hits": 0,
            "version": 4,
            "closed": False,
        }


# ---------------------------------------------------------------------------
# (c) Pub-sub invalidation
# ---------------------------------------------------------------------------


class TestPubSub:
    def test_subscriber_fires_on_every_publish_with_the_new_entry(self):
        hub = EstimateHub()
        seen = []
        sub = hub.subscribe(seen.append)
        e1 = _publish(hub, 1)
        e2 = _publish(hub, 2)
        assert seen == [e1, e2]
        assert (sub.calls, sub.errors) == (2, 0)

    def test_subscriber_sees_entry_already_visible_to_readers(self):
        hub = EstimateHub()
        observed = []
        hub.subscribe(lambda entry: observed.append(hub.get() is entry))
        _publish(hub, 1)
        assert observed == [True]

    def test_unsubscribe_stops_delivery(self):
        hub = EstimateHub()
        seen = []
        sub = hub.subscribe(seen.append)
        _publish(hub, 1)
        sub.unsubscribe()
        sub.unsubscribe()  # idempotent
        _publish(hub, 2)
        assert len(seen) == 1
        assert not sub.active

    def test_subscriber_exception_isolation(self):
        """A raising subscriber must neither poison the publisher nor
        starve its peers."""
        hub = EstimateHub()
        seen = []

        def bad(entry):
            raise RuntimeError("subscriber bug")

        bad_sub = hub.subscribe(bad)
        good_sub = hub.subscribe(seen.append)
        entry = _publish(hub, 1)  # must not raise
        assert seen == [entry]
        assert (bad_sub.calls, bad_sub.errors) == (1, 1)
        assert isinstance(bad_sub.last_error, RuntimeError)
        assert (good_sub.calls, good_sub.errors) == (1, 0)
        _publish(hub, 2)
        assert bad_sub.errors == 2  # still subscribed, still isolated

    def test_subscribe_requires_a_callable(self):
        hub = EstimateHub()
        with pytest.raises(ServingError):
            hub.subscribe("not callable")


class TestWaitForVersion:
    def test_waiter_is_woken_by_the_publishing_thread(self):
        hub = EstimateHub()
        _publish(hub, 0)
        results = []

        def waiter():
            results.append(hub.wait_for_version(1, timeout=5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)  # let the waiter park
        entry = _publish(hub, 1)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert results == [entry]

    def test_timeout_raises_typed_error(self):
        hub = EstimateHub()
        _publish(hub, 0)
        start = time.perf_counter()
        with pytest.raises(WaitTimeoutError) as excinfo:
            hub.wait_for_version(5, timeout=0.05)
        assert time.perf_counter() - start < 2.0
        assert isinstance(excinfo.value, TimeoutError)  # generic handlers work
        assert "version >= 5" in str(excinfo.value)

    def test_already_satisfied_returns_without_waiting(self):
        hub = EstimateHub()
        entry = _publish(hub, 3)
        assert hub.wait_for_version(3, timeout=0.0) is entry
        assert hub.wait_for_version(1, timeout=0.0) is entry  # newer is fine

    def test_handle_wait_advances_the_snapshot(self):
        hub = EstimateHub()
        _publish(hub, 0)
        handle = hub.reader()
        handle.current()
        entry = _publish(hub, 1)
        assert handle.wait_for_version(1) is entry
        assert handle.version == 1
        before_hits = handle.snapshot_hits
        assert handle.current() is entry  # fast path after the wait
        assert handle.snapshot_hits == before_hits + 1

    def test_negative_version_rejected(self):
        hub = EstimateHub()
        with pytest.raises(ValidationError):
            hub.wait_for_version(-1, timeout=0.0)

    def test_hub_close_wakes_parked_waiters(self):
        hub = EstimateHub()
        _publish(hub, 0)
        failures = []

        def waiter():
            try:
                hub.wait_for_version(99, timeout=5.0)
            except ServingError as exc:
                failures.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        hub.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(failures) == 1 and not isinstance(failures[0], WaitTimeoutError)
        # The entry stays readable after hub close; publishes are refused.
        assert hub.get().version == 0
        with pytest.raises(ServingError):
            _publish(hub, 1)

    def test_close_racing_a_publisher_stops_every_later_publish(self):
        """``close`` takes the publish lock: once it returns, a publisher on
        another thread is refused and the version never advances again."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two threads densely
        try:
            for _ in range(20):
                hub = EstimateHub()
                published, refused = [], []
                started = threading.Event()

                def publisher():
                    version = 0
                    while True:
                        try:
                            published.append(_publish(hub, version))
                        except ServingError as exc:
                            refused.append(exc)
                            return
                        version += 1
                        started.set()

                thread = threading.Thread(target=publisher)
                thread.start()
                assert started.wait(timeout=5.0)
                hub.close()
                closed_at = hub.version
                thread.join(timeout=5.0)
                assert not thread.is_alive()
                assert len(refused) == 1
                assert not isinstance(refused[0], PublishConflictError)
                assert hub.version == closed_at == published[-1].version
                assert hub.stats()["writes"] == len(published)
                with pytest.raises(ServingError):
                    _publish(hub, closed_at + 1)
                assert hub.version == closed_at
        finally:
            sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# (d) Concurrent hammer + ShardedStream integration (SERVE matrix)
# ---------------------------------------------------------------------------


class TestConcurrentFanOut:
    @pytest.mark.parametrize("k", SHARD_COUNTS)
    def test_hammer_no_torn_or_stale_reads(self, stream, k):
        """N reader threads against a live publisher: every observed entry
        is a published one, per-reader versions are monotone, and the last
        read is never staler than the last completed publish."""
        server = _make_server(k, seed=77)
        try:
            published = []
            server.subscribe(published.append)
            initial = server.current_served()
            stop = threading.Event()
            observed: list[list] = [[] for _ in range(4)]
            errors: list[BaseException] = []

            def reader(slot):
                try:
                    with server.reader() as handle:
                        while not stop.is_set():
                            observed[slot].append(handle.current())
                except BaseException as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(slot,)) for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for s, e in RAGGED_BLOCKS:
                server.observe_batch(stream.xs[s:e], stream.ys[s:e])
            final = server.flush()
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not errors
            legal = {id(initial)} | {id(entry) for entry in published}
            for entries in observed:
                # No torn reads: each read returned one of the atomically
                # swapped-in frozen entries, by identity.
                assert all(id(entry) in legal for entry in entries)
                versions = [entry.version for entry in entries]
                assert versions == sorted(versions)  # monotone per reader
            # Post-publish read is exactly the last published entry.
            assert server.current_served() is final
            assert final.version == published[-1].version
        finally:
            server.close()

    def test_served_estimates_identical_through_every_read_path(self, stream):
        """Anonymous reads, handle reads, and flush all serve the same
        frozen entry — the lock-free path changes no served value."""
        server = _make_server(2, seed=5)
        try:
            for s, e in RAGGED_BLOCKS:
                server.observe_batch(stream.xs[s:e], stream.ys[s:e])
            with server.reader() as handle:
                served = server.current_served()
                assert handle.current() is served
                assert server.current_estimate() is served.theta
                assert server.flush() is served  # nothing pending: same entry
        finally:
            server.close()

    def test_k1_exact_serves_plain_batched_estimate_bit_for_bit(self, stream):
        """K=1 conformance re-run against the lock-free cache: the served
        estimate still matches an independent replay of the plain path
        exactly.  Under the moment backend the twin is a live
        ``PrivIncReg1`` fed the same blocks; under projected/sketch it is
        the shard-mechanism replay refreshed through a ``PrivIncReg2``
        twin sharing the server's Φ."""
        server = _make_server(1, seed=31, refresh_every=T)
        try:
            if SERVE_BACKEND == "moment":
                plain = PrivIncReg1(
                    horizon=T,
                    constraint=L2Ball(DIM),
                    params=PARAMS,
                    iteration_cap=20,
                    solve_every=T,
                    rng=31,
                )
                for s, e in RAGGED_BLOCKS:
                    server.observe_batch(stream.xs[s:e], stream.ys[s:e])
                    theta_twin = plain.observe_batch(stream.xs[s:e], stream.ys[s:e])
            else:
                for s, e in RAGGED_BLOCKS:
                    server.observe_batch(stream.xs[s:e], stream.ys[s:e])
                cross, gram, transform = serve_backend_replay(1, 31, DIM, T, PARAMS)
                for s, e in RAGGED_BLOCKS:
                    rows = transform(stream.xs[s:e])
                    cross[0].advance_batch(rows * stream.ys[s:e][:, None])
                    gram[0].advance_batch(rows[:, :, None] * rows[:, None, :])
                twin = PrivIncReg2(
                    horizon=T,
                    constraint=L2Ball(DIM),
                    x_domain=L2Ball(DIM),
                    params=PARAMS,
                    iteration_cap=20,
                    projection=server.projection,
                    rng=0,
                )
                theta_twin = twin.refresh_from_released(
                    T, gram[0].current_sum(), cross[0].current_sum()
                )
            served = server.flush()
            np.testing.assert_array_equal(served.theta, theta_twin)
        finally:
            server.close()

    def test_async_subscribers_and_waiters_see_the_worker_publishes(self, stream):
        server = _make_server(2, seed=19, mode="async")
        try:
            versions = []
            server.subscribe(lambda entry: versions.append(entry.version))
            for s, e in RAGGED_BLOCKS:
                server.observe_batch(stream.xs[s:e], stream.ys[s:e])
            final = server.flush()
            woken = server.wait_for_version(final.version, timeout=5.0)
            assert woken.version >= final.version
            assert versions == sorted(versions)
            assert versions[-1] == final.version
        finally:
            server.close()

    def test_closed_server_releases_parked_waiters(self, stream):
        server = _make_server(2, seed=23)
        server.observe_batch(stream.xs[:5], stream.ys[:5])
        failures = []

        def waiter():
            try:
                server.wait_for_version(10_000, timeout=5.0)
            except ServingError as exc:
                failures.append(exc)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        server.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert len(failures) == 1
        # Reads still serve the last published estimate after close.
        assert server.current_served().version >= 1


class TestRunnerReadsThroughHandles:
    def test_incremental_runner_ports_serving_reads_to_a_handle(self, stream):
        """Driving a serving front through IncrementalRunner must read via
        a per-run ReaderHandle (retired on completion) and score the same
        estimates as direct cache reads."""
        server = _make_server(2, seed=47)
        try:
            assert server.read_stats().reads == 0
            runner = IncrementalRunner(L2Ball(DIM), eval_every=8, solver_iterations=30)
            result = runner.run(server, stream, batch_size=5)
            stats = server.read_stats()
            # One handle was acquired and retired; every block was read
            # through it.
            assert stats.readers == 0
            assert stats.reads >= len(range(0, T, 5))
            np.testing.assert_array_equal(
                result.final_theta, server.current_estimate()
            )
        finally:
            server.close()

    def test_plain_estimators_are_untouched_by_the_handle_port(self, stream):
        estimator = PrivIncReg1(
            horizon=T,
            constraint=L2Ball(DIM),
            params=PARAMS,
            iteration_cap=20,
            rng=3,
        )
        runner = IncrementalRunner(L2Ball(DIM), eval_every=8, solver_iterations=30)
        result = runner.run(estimator, stream)
        np.testing.assert_array_equal(result.final_theta, estimator.current_estimate())
