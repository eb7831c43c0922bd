"""Group ingestion on the remote transports: split-phase drain and fail-stop.

On ``transport="process"`` and ``"tcp"``, ``observe_group`` drives every
shard from the calling thread.  It sends each shard its first block, then
awaits each shard's ack in turn and sends that shard its next block, so a
link never holds more than one un-acked block.  Three contracts:

(a) **Equivalence** — a group leaves the shard releases, the merged
    moments and the served θ byte-equal to sequential ``observe_batch``
    calls on the same transport: for a group with more blocks than shards
    (5 blocks over ``K = 2``), for every drain width (``workers=1`` is one
    round trip at a time; ``workers=2`` over ``K = 3`` keeps a queue
    waiting for a free slot), on the moment and projected backends and on
    a multi-tenant front.  A remote-only front never starts the group
    thread pool.

(b) **Per-shard fail-stop on an error reply** — a shard whose block is
    refused (here: its trees are full) gets none of its later blocks; the
    other shards commit in full, the refused blocks are refunded, and the
    next request on every link reads its own reply.

(c) **Mid-group death** — a process worker SIGKILLed between two of its
    blocks, or a tcp handler wedged past ``request_timeout``, fails only
    that shard's remaining blocks: ``GroupIngestionError.failures``, the
    refunds, ``lost_steps`` and ``blocks_routed − blocks_refunded`` all
    match the committed blocks, the next ``observe_batch`` succeeds, and
    the surviving shard's releases stay byte-equal to a thread twin's —
    no stale ack pairs with a later request.

The transports are explicit here and no ``SERVE_*`` axis is read, so this
file runs once, in the tier-1 suite, and not on every serving-matrix leg.
"""

import os
import signal
import threading

import numpy as np
import pytest

from repro import (
    L2Ball,
    MultiTenantStream,
    PrivacyParams,
    ReleasedMoments,
    ShardedStream,
)
from repro.data import make_dense_stream
from repro.exceptions import (
    GroupIngestionError,
    ShardTimeoutError,
    ShardUnavailableError,
    StreamExhaustedError,
)
from repro.streaming import netserve

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 6
M = 3
T = 64
REMOTE = ["process", "tcp"]

#: Uneven block cuts of [0, 26): five blocks, so every K below gets more
#: blocks than it has shards.
RAGGED_BLOCKS = [(0, 5), (5, 6), (6, 13), (13, 20), (20, 26)]
#: Six blocks of 4 over K = 2: shard 0 takes 0, 2, 4 and shard 1 takes
#: 1, 3, 5.
EVEN_BLOCKS = [(s, s + 4) for s in range(0, 24, 4)]
#: Deadline on every reply in the wedge tests.
REQUEST_TIMEOUT = 0.5
#: Longest a wedged tcp handler stays held (teardown releases it sooner).
WEDGE = 20.0


@pytest.fixture(scope="module")
def stream():
    return make_dense_stream(T, DIM, noise_std=0.05, rng=2601)


def _front(transport, k, backend="moment", **kwargs):
    if backend == "projected":
        kwargs.update(backend="projected", x_domain=L2Ball(DIM), projected_dim=M)
    defaults = dict(horizon=T, iteration_cap=10, refresh_every=T, rng=17)
    defaults.update(kwargs)
    return ShardedStream(
        L2Ball(DIM), PARAMS, shards=k, transport=transport, **defaults
    )


def _blocks(stream, cuts, ys=None):
    ys = stream.ys if ys is None else ys
    return [(stream.xs[s:e], ys[s:e]) for s, e in cuts]


def _snapshots(shard):
    """One shard's releases as snapshots, on any transport."""
    return [
        h if isinstance(h, ReleasedMoments) else h.released_moments()
        for h in shard.released()
    ]


@pytest.fixture(scope="module")
def sequential(stream):
    """``sequential(transport, k, backend)``: the merged moments and served
    θ of sequential ``observe_batch`` calls, built once per configuration."""
    built = {}

    def reference(transport, k, backend):
        key = (transport, k, backend)
        if key not in built:
            front = _front(transport, k, backend)
            try:
                for xs, ys in _blocks(stream, RAGGED_BLOCKS):
                    front.observe_batch(xs, ys)
                served = front.flush()
                merged = [m.value for m in front.merged_moments()]
            finally:
                front.close()
            built[key] = (merged, served)
        return built[key]

    return reference


class TestRemoteGroupEquivalence:
    @pytest.mark.parametrize("transport", REMOTE)
    @pytest.mark.parametrize("k, workers", [(2, 1), (2, None), (3, 2)])
    @pytest.mark.parametrize("backend", ["moment", "projected"])
    def test_group_matches_sequential_route(
        self, stream, sequential, transport, k, workers, backend
    ):
        expected_merged, expected = sequential(transport, k, backend)
        front = _front(transport, k, backend)
        try:
            front.observe_group(_blocks(stream, RAGGED_BLOCKS), workers=workers)
            got = front.flush()
            for merged, want in zip(front.merged_moments(), expected_merged):
                np.testing.assert_array_equal(merged.value, want)
            np.testing.assert_array_equal(got.theta, expected.theta)
            assert got.version == expected.version
            assert got.covered_steps == expected.covered_steps == 26
            assert front.steps_ingested == front.steps_enqueued == 26
            assert front.blocks_routed == 5 and front.blocks_refunded == 0
            # Remote shards are driven from the calling thread.
            assert front._group_executor is None
        finally:
            front.close()

    @pytest.mark.parametrize("transport", REMOTE)
    def test_tenant_group_matches_thread_twin(self, stream, transport):
        """``MultiTenantStream`` inherits the remote drain unchanged."""
        outcomes = np.stack([stream.ys, -stream.ys], axis=1)
        fronts = [
            MultiTenantStream(
                L2Ball(DIM), PARAMS, 2, 2, horizon=T, iteration_cap=10,
                refresh_every=T, transport=name, rng=29,
            )
            for name in ("thread", transport)
        ]
        try:
            served = [
                front.observe_group(_blocks(stream, RAGGED_BLOCKS, outcomes))
                and front.flush()
                for front in fronts
            ]
            for name in ("tenant-0", "tenant-1"):
                np.testing.assert_array_equal(
                    served[0][name].theta, served[1][name].theta
                )
                for a, b in zip(*(f.merged_moments(name) for f in fronts)):
                    np.testing.assert_array_equal(a.value, b.value)
            assert fronts[1].steps_ingested == fronts[1].steps_enqueued == 26
        finally:
            for front in fronts:
                front.close()


class TestRemoteGroupFailStop:
    @pytest.mark.parametrize("transport", REMOTE)
    @pytest.mark.parametrize("workers", [1, None])
    def test_error_reply_is_per_shard_fail_stop(self, stream, transport, workers):
        """A refused block stops its shard only; every link stays in step.

        ``shard_horizon=8`` with blocks of 4, 6 and 2 points per shard:
        each shard's second block overflows its trees and is refused by
        the worker, which stays alive.  Its third block would fit but is
        never sent (fail-stop), and both are refunded.  The next
        ``released`` request on each link reads its own reply: the merge
        equals a thread twin's after the same failed group.
        """
        cuts = [(0, 4), (4, 8), (8, 14), (14, 20), (20, 22), (22, 24)]
        fronts = [
            _front(name, 2, shard_horizon=8, rng=4) for name in ("thread", transport)
        ]
        try:
            for front in fronts:
                with pytest.raises(GroupIngestionError) as excinfo:
                    front.observe_group(_blocks(stream, cuts), workers=workers)
                failures = excinfo.value.failures
                assert [i for i, _ in failures] == [2, 3, 4, 5]
                assert all(isinstance(e, StreamExhaustedError) for _, e in failures)
                assert front.steps_ingested == front.steps_enqueued == 8
                assert front.blocks_routed == 6 and front.blocks_refunded == 4
                assert front.blocks_routed - front.blocks_refunded == 2
                assert front.lost_steps == 0
                assert all(s["alive"] and s["steps"] == 4 for s in front.shard_states())
            twin, remote = fronts
            for a, b in zip(twin.merged_moments(), remote.merged_moments()):
                np.testing.assert_array_equal(a.value, b.value)
            np.testing.assert_array_equal(twin.flush().theta, remote.flush().theta)
        finally:
            for front in fronts:
                front.close()


@pytest.fixture
def wedge_tcp(monkeypatch):
    """``wedge_tcp(index, n)``: shard ``index``'s tcp handler hangs on its
    ``n``-th ingest command.

    Wraps ``netserve._build_handler`` so each connection's handler counts
    its ingest commands; the marked one waits on a gate that only teardown
    opens (at most :data:`WEDGE` seconds), as a worker stuck in a
    pathological call would.
    """
    build = netserve._build_handler
    marks = {}
    gate = threading.Event()

    def counting_build(spec):
        handler = build(spec)
        ingests = 0

        def counted(command, payload):
            nonlocal ingests
            if command == "ingest":
                ingests += 1
                if marks.get(spec.index) == ingests:
                    gate.wait(WEDGE)
            return handler(command, payload)

        return counted

    monkeypatch.setattr(netserve, "_build_handler", counting_build)

    def mark(index, n):
        marks[index] = n

    yield mark
    gate.set()


def _kill_after_first_ack(front, index):
    """SIGKILL shard ``index``'s worker right after its first ingest ack.

    The hook sits on the proxy's ``await_ingest``, so the death lands
    between that shard's blocks, in the middle of the group.
    """
    shard = front._shards[index]
    await_ingest = shard.await_ingest

    def hooked():
        await_ingest()
        if shard.steps == 4:
            process = shard._process
            os.kill(process.pid, signal.SIGKILL)
            process.join(10.0)

    shard.await_ingest = hooked


class TestRemoteGroupMidGroupDeath:
    @pytest.mark.parametrize("transport", REMOTE)
    @pytest.mark.parametrize("workers", [1, None])
    def test_mid_group_death_fails_only_that_shard(
        self, stream, transport, workers, wedge_tcp
    ):
        """Shard 1 dies after acking block 1; blocks 3 and 5 are lost.

        Process: the worker is SIGKILLed after its first ack, so the next
        send or ack on its pipe fails.  Tcp: the handler wedges on its
        second block and the front's ``request_timeout`` stops it.  Either
        way shard 0 commits blocks 0, 2 and 4, shard 1's acked block 1 is
        booked to ``lost_steps``, and the stream serves on.
        """
        if transport == "tcp":
            wedge_tcp(1, 2)
        remote = _front(transport, 2, request_timeout=REQUEST_TIMEOUT, rng=8)
        twin = _front("thread", 2, rng=8)
        try:
            if transport == "process":
                _kill_after_first_ack(remote, 1)
            blocks = _blocks(stream, EVEN_BLOCKS)
            with pytest.raises(GroupIngestionError) as excinfo:
                remote.observe_group(blocks, workers=workers)
            failures = excinfo.value.failures
            assert [i for i, _ in failures] == [3, 5]
            fault = ShardTimeoutError if transport == "tcp" else ShardUnavailableError
            assert all(isinstance(e, fault) for _, e in failures)
            assert remote.blocks_routed == 6 and remote.blocks_refunded == 2
            assert remote.blocks_routed - remote.blocks_refunded == 4
            # Committed: blocks 0, 2, 4 on shard 0 and block 1 on shard 1.
            assert remote.steps_ingested == remote.steps_enqueued == 16
            assert remote.lost_steps == 4  # shard 1's acked block 1
            assert [s["alive"] for s in remote.shard_states()] == [True, False]

            # The next call goes to the survivor, which had frames in
            # flight when shard 1 failed: its reply must be its own.
            remote.observe_batch(stream.xs[24:28], stream.ys[24:28])
            assert remote.steps_ingested == remote.steps_enqueued == 20
            served = remote.flush()
            assert served.covered_steps == 20 - 4

            twin.observe_group(blocks, workers=workers)
            twin.observe_batch(stream.xs[24:28], stream.ys[24:28])
            got, want = _snapshots(remote._shards[0]), _snapshots(twin._shards[0])
            assert len(got) == len(want) == 2
            for snapshot, twin_snapshot in zip(got, want):
                np.testing.assert_array_equal(snapshot.value, twin_snapshot.value)
                assert snapshot.steps == twin_snapshot.steps == 16
        finally:
            remote.close()
            twin.close()
