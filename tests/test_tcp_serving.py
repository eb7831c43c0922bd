"""Conformance suite for the TCP shard transport and RPC deadlines.

Six contracts pin down this layer:

(a) **Frame fidelity** — length-prefixed typed frames
    (:mod:`repro.streaming.wire`) round-trip the protocol's messages,
    reject corrupt headers eagerly, and surface peer closes as clean EOF.

(b) **Transport equivalence** — a ``K = 1`` tcp server with
    ``ingest="exact"`` is bit-identical to the plain batched path (the
    same acceptance gate the pipe transport passed in PR 4), and
    thread ≡ process ≡ tcp merged releases under one seed.

(c) **Deadline semantics** — a worker that is *alive but stuck* (a
    spawned worker stopped with SIGSTOP, or an in-process listener's
    handler held on a gate) no longer hangs
    ``observe_batch``/``flush``/``close``: the RPC misses
    ``request_timeout``, the worker is killed/disconnected *before*
    :class:`~repro.exceptions.ShardTimeoutError` is raised (no stale
    reply can pair with a future request), and the shard folds into the
    documented partial-coverage accounting — on both remote transports.

(d) **Fault coverage over tcp** — an uncommanded connection loss is
    detected at the next RPC, mass lands in ``lost_steps`` exactly once,
    ``restart_shard`` reconnects to the same address, and ``close()``
    reaps workers and the self-hosted listener.

(e) **Heartbeats** — the health-check loop detects dead/stuck workers
    with no traffic flowing, and ``restart_policy="auto"`` brings them
    back.

(f) **One serve loop** — the pipe worker and the tcp listener run the
    same command loop, so a frame that does not decode, a message of the
    wrong shape and ``close`` get the same replies on both links.

The generic serving contracts are re-proven over tcp by running
``tests/test_sharded_equivalence.py`` / ``tests/test_serving_faults.py``
with ``SERVE_TRANSPORT=tcp`` (the CI transport axis).
"""

import multiprocessing as mp
import os
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import (
    L2Ball,
    MultiTenantStream,
    PrivacyParams,
    PrivIncReg1,
    ShardAddress,
    ShardedStream,
    ShardHostListener,
    TcpShardWorker,
)
from repro.data import make_dense_stream
from repro.exceptions import (
    ShardTimeoutError,
    ShardUnavailableError,
    ValidationError,
)
from repro.privacy.tree import noise_key
from repro.streaming import netserve, transport, wire
from repro.streaming.netserve import recv_frame, send_frame
from repro.streaming.serving import stream as front_module
from repro.streaming.transport import ProcessShardWorker, ShardSpec

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
T = 24
BLOCKS = [(s, s + 4) for s in range(0, T, 4)]

# Long enough that a wedged worker outlives every deadline the tests
# race against it, short enough that leaked daemon threads drain fast.
WEDGE = 20.0


#: The cross-transport bit-identity feed: 16-row blocks, tall enough that
#: numpy sums a fast-tier block on its BLAS path, whose order depends on
#: the decoded block's alignment (4-row blocks sum the same either way).
TALL_T = 96
TALL_BLOCKS = [(s, s + 16) for s in range(0, TALL_T, 16)]


@pytest.fixture(scope="module")
def stream():
    return make_dense_stream(T, DIM, noise_std=0.05, rng=404)


@pytest.fixture(scope="module")
def tall_stream():
    return make_dense_stream(TALL_T, DIM, noise_std=0.05, rng=404)


def _server(k, seed, transport="tcp", **kwargs):
    defaults = dict(horizon=T, iteration_cap=12, transport=transport)
    defaults.update(kwargs)
    return ShardedStream(L2Ball(DIM), PARAMS, shards=k, rng=seed, **defaults)


def _feed(server, stream, blocks=BLOCKS):
    for s, e in blocks:
        server.observe_batch(stream.xs[s:e], stream.ys[s:e])


def _spec(index=0, seed=0):
    return ShardSpec(
        index=index,
        dim=DIM,
        budget=PARAMS,
        keys=np.array([noise_key(r) for r in np.random.default_rng(seed).spawn(2)]),
        shard_horizon=T,
    )


@pytest.fixture
def wedge(monkeypatch):
    """``wedge(shard)`` makes a remote worker stuck, behind the server's back.

    A spawned process worker is stopped with SIGSTOP.  A tcp worker served
    by an in-process listener runs its commands through a wrapped
    ``netserve._build_handler`` that holds each command on a gate while
    the gate is closed (for at most :data:`WEDGE` seconds).  Either way
    the worker's serial command loop is stuck exactly as if a
    pathological BLAS call wedged it, and the next command queues behind
    the wedge.  Teardown resumes every stopped worker and opens every
    gate, so nothing outlives the test stuck.
    """
    gates = {}  # shard index -> the gate of its latest connection
    opened = []
    stopped = []
    build = netserve._build_handler

    def gated_build(spec):
        handler = build(spec)
        gate = gates[spec.index] = threading.Event()
        gate.set()
        opened.append(gate)

        def gated(command, payload):
            gate.wait(WEDGE)
            return handler(command, payload)

        return gated

    monkeypatch.setattr(netserve, "_build_handler", gated_build)

    def wedge_shard(shard):
        if isinstance(shard, TcpShardWorker):
            gates[shard.index].clear()
        else:
            os.kill(shard._process.pid, signal.SIGSTOP)
            stopped.append(shard._process.pid)

    yield wedge_shard
    for pid in stopped:
        try:
            os.kill(pid, signal.SIGCONT)
        except ProcessLookupError:
            pass
    for gate in opened:
        gate.set()


class TestFrameProtocol:
    def test_frames_round_trip_protocol_payloads(self):
        a, b = socket.socketpair()
        try:
            rows = (3 << 20) // (8 * DIM) + 1
            payloads = [
                ("ingest", (np.zeros((4, DIM)), np.zeros(4), False)),
                ("ok", None),
                _spec(),
                # > 3 MiB: the multi-chunk recv path.
                ("ingest", (np.full((rows, DIM), 0.5), np.ones(rows), True)),
            ]
            for sent in payloads:
                # Concurrent sender: a frame larger than the kernel buffer
                # cannot finish sendall until the receiver drains it.
                sender = threading.Thread(target=send_frame, args=(a, sent))
                sender.start()
                received = recv_frame(b)
                sender.join(timeout=10.0)
                assert not sender.is_alive()
                assert type(received) is type(sent)
                if isinstance(sent, tuple) and sent[0] == "ingest":
                    for got, want in zip(received[1], sent[1]):
                        np.testing.assert_array_equal(got, want)
            a.close()
            with pytest.raises(EOFError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversized_header_rejected_eagerly(self):
        a, b = socket.socketpair()
        try:
            a.sendall((1 << 63).to_bytes(8, "big"))
            with pytest.raises(ValidationError):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_worker_accepts_a_host_port_string(self):
        with ShardHostListener() as listener:
            worker = TcpShardWorker(_spec(), str(listener.address))
            try:
                assert worker.address == listener.address
                assert worker.ping() == 0
            finally:
                worker.shutdown()

    def test_ping_goes_through_the_module_frame_functions(self, monkeypatch):
        """perfbench's tracer swaps ``netserve.send_frame``/``recv_frame``
        by name; a client round trip must call the swapped ones."""
        calls = []

        def counting(name, original):
            def wrapper(sock, *args):
                calls.append((name, sock))
                return original(sock, *args)

            return wrapper

        monkeypatch.setattr(
            netserve, "send_frame", counting("send", netserve.send_frame)
        )
        monkeypatch.setattr(
            netserve, "recv_frame", counting("recv", netserve.recv_frame)
        )
        with ShardHostListener() as listener:
            worker = TcpShardWorker(_spec(), listener.address)
            try:
                sock = worker._sock
                before = [name for name, used in calls if used is sock]
                assert before == ["send", "recv"]  # the ready handshake
                assert worker.ping() == 0
                after = [name for name, used in calls if used is sock]
                assert after[len(before):] == ["send", "recv"]
            finally:
                worker.shutdown()

    def test_shard_address_parse_and_coerce(self):
        address = ShardAddress.parse("10.0.0.7:9000")
        assert (address.host, address.port) == ("10.0.0.7", 9000)
        assert str(address) == "10.0.0.7:9000"
        assert ShardAddress.coerce(address) is address
        assert ShardAddress.coerce(("h", 80)) == ShardAddress("h", 80)
        assert ShardAddress.coerce("h:80") == ShardAddress("h", 80)
        for bad in ("nohost", ":80", "h:", "h:x", 7):
            with pytest.raises(ValidationError):
                ShardAddress.coerce(bad)


class TestListenerLifecycle:
    def test_listener_serves_builds_and_tears_down(self):
        with ShardHostListener() as listener:
            assert listener.address.port > 0
            worker = TcpShardWorker(_spec(), listener.address)
            assert worker.alive and worker.ping() == 0
            worker.shutdown()
            assert not worker.alive
        assert listener.closed
        # Closed listener refuses new connections.
        with pytest.raises(ShardUnavailableError):
            TcpShardWorker(_spec(), listener.address)

    def test_listener_close_severs_live_workers(self):
        listener = ShardHostListener()
        worker = TcpShardWorker(_spec(), listener.address)
        listener.close()
        listener.close()  # idempotent
        with pytest.raises(ShardUnavailableError):
            worker.ping()
        assert not worker.alive

    def test_non_spec_first_frame_is_refused(self):
        with ShardHostListener() as listener:
            conn = socket.create_connection(
                (listener.address.host, listener.address.port), timeout=5.0
            )
            try:
                send_frame(conn, ("ingest", (np.zeros((1, DIM)), np.zeros(1), False)))
                status, payload = recv_frame(conn)
                assert status == "err"
                assert isinstance(payload, ValidationError)
            finally:
                conn.close()

    def test_malformed_frame_is_refused_and_the_connection_dropped(self):
        with ShardHostListener() as listener:
            conn = socket.create_connection(
                (listener.address.host, listener.address.port), timeout=5.0
            )
            try:
                send_frame(conn, _spec())
                assert recv_frame(conn) == ("ok", 0)
                garbage = bytes([wire.INGEST]) + b"\xff" * 7
                conn.sendall(len(garbage).to_bytes(8, "big") + garbage)
                status, payload = recv_frame(conn)
                assert status == "err"
                assert isinstance(payload, ValidationError)
                with pytest.raises(EOFError):
                    recv_frame(conn)
            finally:
                conn.close()


class TestTransportEquivalence:
    def test_k1_exact_tcp_equals_plain_batched_bit_for_bit(self, stream):
        """ISSUE 7 acceptance: K=1 exact tcp serving ≡ plain path."""
        server = _server(1, seed=9, ingest="exact", refresh_every=4)
        plain = PrivIncReg1(
            horizon=T,
            constraint=L2Ball(DIM),
            params=PARAMS,
            iteration_cap=12,
            solve_every=4,
            rng=9,
        )
        try:
            for s, e in BLOCKS:
                served = server.observe_batch(stream.xs[s:e], stream.ys[s:e])
                reference = plain.observe_batch(stream.xs[s:e], stream.ys[s:e])
                np.testing.assert_array_equal(served, reference)
        finally:
            server.close()

    @pytest.mark.parametrize("ingest", ["exact", "fast"])
    def test_thread_process_tcp_merges_bit_identical(self, tall_stream, ingest):
        """Same seed ⇒ same merged releases on every transport and tier."""
        results = {}
        for transport in ("thread", "process", "tcp"):
            server = _server(3, seed=55, transport=transport, ingest=ingest, horizon=TALL_T)
            try:
                _feed(server, tall_stream, TALL_BLOCKS)
                served = server.flush()
                cross, gram = server.merged_moments()
                results[transport] = (served, cross, gram)
            finally:
                server.close()
        reference_served, reference_cross, reference_gram = results["thread"]
        for transport in ("process", "tcp"):
            served, cross, gram = results[transport]
            np.testing.assert_array_equal(served.theta, reference_served.theta)
            assert served.covered_steps == reference_served.covered_steps
            np.testing.assert_array_equal(cross.value, reference_cross.value)
            np.testing.assert_array_equal(gram.value, reference_gram.value)
            assert cross.noise_variance == reference_cross.noise_variance

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.SFC64])
    def test_any_bit_generator_serves_on_every_transport(self, stream, bit_generator):
        """Shards get keys, not generators: a front's rng may use any bit
        generator, and every transport serves the same bits from it."""
        thetas = {}
        for transport in ("thread", "process", "tcp"):
            rng = np.random.Generator(bit_generator(1))
            server = _server(2, seed=rng, transport=transport)
            try:
                _feed(server, stream, BLOCKS[:3])
                thetas[transport] = server.flush().theta
            finally:
                server.close()
        np.testing.assert_array_equal(thetas["process"], thetas["thread"])
        np.testing.assert_array_equal(thetas["tcp"], thetas["thread"])

    def test_tenancy_over_tcp_matches_thread(self, stream):
        results = {}
        for transport in ("thread", "tcp"):
            front = MultiTenantStream(
                L2Ball(DIM),
                PARAMS,
                tenants=("a", "b"),
                shards=2,
                horizon=T,
                iteration_cap=12,
                transport=transport,
                rng=13,
            )
            try:
                for s, e in BLOCKS[:3]:
                    ys = np.column_stack([stream.ys[s:e], -stream.ys[s:e]])
                    front.observe_batch(stream.xs[s:e], ys)
                front.flush()
                results[transport] = {
                    name: front.tenant(name).current_estimate().copy()
                    for name in front.tenants()
                }
            finally:
                front.close()
        for name in ("a", "b"):
            np.testing.assert_array_equal(
                results["thread"][name], results["tcp"][name]
            )


class TestDeadlines:
    def test_stuck_process_worker_times_out_dead(self, wedge):
        worker = ProcessShardWorker(_spec(), request_timeout=0.5)
        try:
            assert worker.ping() == 0
            wedge(worker)
            started = time.monotonic()
            with pytest.raises(ShardTimeoutError):
                worker.ping()
            assert time.monotonic() - started < 5.0
            assert not worker.alive
            assert worker._process is None  # killed and reaped
            with pytest.raises(ShardUnavailableError):
                worker.ping()  # dead is dead; no hang, no stale reply
        finally:
            worker.shutdown()

    def test_stuck_tcp_worker_times_out_dead(self, wedge):
        with ShardHostListener() as listener:
            worker = TcpShardWorker(
                _spec(), listener.address, request_timeout=0.5
            )
            wedge(worker)
            started = time.monotonic()
            with pytest.raises(ShardTimeoutError):
                worker.ping()
            assert time.monotonic() - started < 5.0
            assert not worker.alive and worker._sock is None

    def test_timeout_error_folds_into_both_hierarchies(self):
        assert issubclass(ShardTimeoutError, ShardUnavailableError)
        assert issubclass(ShardTimeoutError, TimeoutError)

    def test_no_deadline_without_opting_in(self):
        """request_timeout=None keeps the legacy unbounded wait — a slow
        command under the old default must still complete, not die."""
        worker = ProcessShardWorker(_spec())
        pid = worker._process.pid
        try:
            os.kill(pid, signal.SIGSTOP)
            resume = threading.Timer(0.2, os.kill, (pid, signal.SIGCONT))
            resume.start()
            assert worker.ping() == 0  # answered once the worker resumes
            resume.join()
            assert worker.alive
        finally:
            os.kill(pid, signal.SIGCONT)
            worker.shutdown()

    @pytest.mark.parametrize("transport", ["process", "tcp"])
    def test_wedged_worker_no_longer_hangs_the_server(self, stream, transport, wedge):
        """ISSUE 7 acceptance: observe/flush/close all stay bounded, the
        shard dies within request_timeout, mass is refunded into
        lost_steps, and restart_shard recovers — both transports."""
        server = _server(2, seed=6, transport=transport, request_timeout=0.5)
        try:
            _feed(server, stream, BLOCKS[:2])  # one block per shard
            victim = server._shards[0]
            wedge(victim)
            started = time.monotonic()
            with pytest.raises(ShardUnavailableError):
                server.observe_batch(stream.xs[8:12], stream.ys[8:12])
            assert time.monotonic() - started < 5.0
            assert not victim.alive
            assert server.lost_steps == 4  # acknowledged mass, booked once
            # The wedged block was refunded; the retry routes live.
            server.observe_batch(stream.xs[8:12], stream.ys[8:12])
            served = server.flush()  # bounded too: no live RPC can hang
            assert served.covered_steps == server.steps_ingested - server.lost_steps
            cross_merged, _ = server.merged_moments()
            assert cross_merged.missing == (0,)
            server.restart_shard(0)
            server.observe_batch(stream.xs[12:16], stream.ys[12:16])
            assert server._shards[0].alive
        finally:
            started = time.monotonic()
            server.close()
            assert time.monotonic() - started < 15.0

    def test_wedged_worker_detected_by_merge(self, stream, wedge):
        """A wedge first noticed by the merge path books the same loss."""
        # No refresh (and no prefetch) reads the shards before the wedge:
        # a shard caches its released() answer until its next ingest, so
        # only a merge that finds no cached answer asks the worker.
        server = _server(2, seed=21, request_timeout=0.5, refresh_every=T)
        try:
            _feed(server, stream, BLOCKS[:2])
            wedge(server._shards[1])
            cross_merged, _ = server.merged_moments()  # sweeps the wedge
            assert server.lost_steps == 4
            assert cross_merged.missing == (1,)
            assert (
                cross_merged.covered_steps
                == server.steps_ingested - server.lost_steps
            )
        finally:
            server.close()

    def test_shutdown_of_wedged_worker_is_bounded(self, wedge):
        worker = ProcessShardWorker(
            _spec(), request_timeout=5.0, shutdown_timeout=0.5
        )
        wedge(worker)
        started = time.monotonic()
        worker.shutdown()  # close handshake deadline → fall through to kill
        assert time.monotonic() - started < 5.0
        assert not worker.alive and worker._process is None

    def test_broken_pipe_to_a_wedged_worker_kills_it_promptly(self, wedge):
        """A pipe failure does not prove the worker exited: detection
        kills it and returns well inside ``shutdown_timeout``."""
        worker = ProcessShardWorker(_spec(), shutdown_timeout=0.5)
        pid = worker._process.pid
        wedge(worker)
        worker._conn.close()  # the parent's end breaks mid-command
        started = time.monotonic()
        with pytest.raises(ShardUnavailableError):
            worker.ping()
        assert time.monotonic() - started < 1.0
        assert not worker.alive and worker._process is None
        with pytest.raises(ProcessLookupError):  # killed and reaped
            os.kill(pid, 0)

    def test_concurrent_kills_are_race_safe(self):
        """kill() racing crash detection (post-_reap handle close) must
        never raise out of the idempotency check."""
        worker = ProcessShardWorker(_spec())
        failures = []

        def hammer():
            try:
                for _ in range(50):
                    worker.kill()
            except BaseException as exc:  # pragma: no cover - the bug
                failures.append(exc)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: hammer(), range(8)))
        assert failures == []
        assert not worker.alive and worker._process is None


class TestTcpFaults:
    def test_uncommanded_connection_loss_is_detected_and_accounted(
        self, stream
    ):
        server = _server(2, seed=6)
        try:
            _feed(server, stream, BLOCKS[:2])  # one block per shard
            victim = server._shards[0]
            victim._sock.shutdown(socket.SHUT_RDWR)  # sever behind the back
            with pytest.raises(ShardUnavailableError):
                server.observe_batch(stream.xs[8:12], stream.ys[8:12])
            assert not victim.alive
            assert server.lost_steps == 4
            server.observe_batch(stream.xs[8:12], stream.ys[8:12])
            served = server.flush()
            assert served.covered_steps == server.steps_ingested - server.lost_steps
            assert server.merged_moments()[0].missing == (0,)
        finally:
            server.close()

    def test_restart_reconnects_to_the_same_address(self, stream):
        server = _server(2, seed=14)
        try:
            _feed(server, stream, BLOCKS[:2])
            address = server._shards[0].address
            server.kill_shard(0)
            server.restart_shard(0)
            replacement = server._shards[0]
            assert replacement.alive and replacement.address == address
            _feed(server, stream, BLOCKS[2:])
            served = server.flush()
            assert served.covered_steps == server.steps_ingested - server.lost_steps
        finally:
            server.close()

    def test_close_reaps_workers_and_owned_listener(self, stream):
        server = _server(2, seed=14)
        assert server._owns_listener
        _feed(server, stream, BLOCKS[:2])
        server.close()
        assert all(not shard.alive for shard in server._shards)
        assert server._listener.closed

    def test_close_of_a_self_hosted_stream_is_prompt(self, stream):
        """Regression: closing the listening socket alone left the accept
        thread parked in accept(), so every listener close waited out the
        full join timeout (5 s)."""
        server = _server(2, seed=15)
        _feed(server, stream, BLOCKS[:2])
        accept_thread = server._listener._accept_thread
        start = time.monotonic()
        server.close()
        assert time.monotonic() - start < 1.0
        assert not accept_thread.is_alive()

    @pytest.mark.parametrize("transport", ["process", "tcp"])
    def test_a_front_refused_after_its_shards_boot_leaks_nothing(self, transport):
        """Regression: the default iv solver refuses ``instruments < dim``
        in the constructor after every shard worker booted, and the
        workers, the self-hosted listener and its connection threads
        outlived the refused front."""
        def shard_threads():
            return {t for t in threading.enumerate() if t.name.startswith("repro-shard-")}

        def shard_children():
            return [p for p in mp.active_children() if p.name.startswith("repro-shard-")]

        before = shard_threads()
        with pytest.raises(ValidationError, match="instruments"):
            ShardedStream(
                L2Ball(4), PrivacyParams(1.0, 1e-6), 2, horizon=64, backend="iv",
                instruments=2, transport=transport, rng=0,
            )
        assert not shard_children()  # shutdown() joined them
        deadline = time.monotonic() + 5.0  # a closed connection's thread exits
        while shard_threads() - before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not shard_threads() - before

    def test_explicit_listener_is_not_closed_by_the_stream(self, stream):
        with ShardHostListener() as listener:
            server = _server(2, seed=14, addresses=[str(listener.address)])
            assert not server._owns_listener
            _feed(server, stream, BLOCKS[:2])
            server.close()
            assert not listener.closed  # someone else's lifecycle
            # ...and it still serves new shards.
            worker = TcpShardWorker(_spec(), listener.address)
            assert worker.ping() == 0
            worker.shutdown()


class TestHeartbeat:
    def test_heartbeat_detects_a_wedged_worker_without_traffic(self, stream, wedge):
        server = _server(
            2, seed=6, request_timeout=0.5, heartbeat_every=0.1
        )
        try:
            _feed(server, stream, BLOCKS[:2])
            wedge(server._shards[0])
            deadline = time.monotonic() + 10.0
            while server.lost_steps == 0 and time.monotonic() < deadline:
                time.sleep(0.05)  # no API traffic: only the loop can see it
            assert server.lost_steps == 4
            assert not server._shards[0].alive
            stats = server.heartbeat_stats()
            assert stats["deaths_detected"] >= 1
            assert stats["pings"] >= 1
        finally:
            server.close()

    def test_auto_restart_policy_recovers_dead_shards(self, stream):
        server = _server(
            2,
            seed=6,
            request_timeout=0.5,
            heartbeat_every=0.1,
            restart_policy="auto",
        )
        try:
            _feed(server, stream, BLOCKS[:2])
            server._shards[1].kill()  # uncommanded, from the shard's side
            deadline = time.monotonic() + 10.0
            while (
                not server._shards[1].alive and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert server._shards[1].alive
            assert server.heartbeat_stats()["restarts"] >= 1
            _feed(server, stream, BLOCKS[2:])  # recovered shard takes load
            served = server.flush()
            assert served.covered_steps == server.steps_ingested - server.lost_steps
        finally:
            server.close()

    def test_knob_validation(self):
        with pytest.raises(ValidationError):
            _server(1, seed=1, transport="thread", request_timeout=1.0)
        with pytest.raises(ValidationError):
            _server(1, seed=1, transport="process", addresses=[("h", 1)])
        with pytest.raises(ValidationError):
            _server(1, seed=1, restart_policy="auto")  # needs heartbeat
        with pytest.raises(ValidationError):
            _server(1, seed=1, restart_policy="eventually")
        with pytest.raises(ValidationError):
            _server(1, seed=1, request_timeout=-1.0)
        with pytest.raises(ValidationError):
            _server(1, seed=1, heartbeat_every=0.0)
        # A sequence knob refuses an empty list and a bare string (which
        # would be iterated per character) before any worker boots.
        for bad in ([], "127.0.0.1:7000"):
            with pytest.raises(ValidationError, match="addresses"):
                _server(1, seed=1, addresses=bad)
        # fidelity is checked on every configuration, not only by the
        # default solvers that take it.
        with pytest.raises(ValidationError, match="fidelity"):
            _server(1, seed=1, transport="thread", mechanism="hybrid", fidelity="x")
        with pytest.raises(ValidationError, match="fidelity"):
            _server(1, seed=1, transport="thread", solver=object(), fidelity="x")


class TestInfiniteDeadlines:
    """An infinite deadline is refused before any worker boots: it used
    to pass the ``> 0`` checks and then overflow ``poll``/``settimeout``
    (``request_timeout``) or kill the health-check thread
    (``heartbeat_every``)."""

    @pytest.fixture
    def no_boot(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker or listener was started")

        for name in ("ProcessShardWorker", "TcpShardWorker", "ShardHostListener"):
            monkeypatch.setattr(front_module, name, refuse)
        monkeypatch.setattr(transport.mp, "get_context", refuse)
        monkeypatch.setattr(netserve.socket, "create_connection", refuse)

    @pytest.mark.parametrize("knob", ["request_timeout", "heartbeat_every"])
    @pytest.mark.parametrize("remote", ["process", "tcp"])
    @pytest.mark.parametrize("front", ["sharded", "tenants"])
    def test_fronts_refuse_an_infinite_knob(self, no_boot, front, remote, knob):
        kwargs = dict(horizon=T, transport=remote, rng=1, **{knob: float("inf")})
        with pytest.raises(ValidationError, match=knob):
            if front == "sharded":
                ShardedStream(L2Ball(DIM), PARAMS, shards=2, **kwargs)
            else:
                MultiTenantStream(L2Ball(DIM), PARAMS, 2, 2, **kwargs)

    def test_process_worker_refuses_an_infinite_request_timeout(self, no_boot):
        with pytest.raises(ValidationError, match="request_timeout"):
            ProcessShardWorker(_spec(), request_timeout=float("inf"))

    def test_tcp_worker_refuses_an_infinite_request_timeout(self, no_boot):
        with pytest.raises(ValidationError, match="request_timeout"):
            TcpShardWorker(_spec(), ("127.0.0.1", 1), request_timeout=float("inf"))


@pytest.fixture(params=["pipe", "socket"])
def raw_wire(request):
    """A booted worker on each link, plus raw frame I/O on its wire.

    ``write`` puts raw frame bytes on the link (behind the client's back);
    ``read`` takes one decoded frame within 5 s (``EOFError`` once the
    worker hung up).
    """
    if request.param == "pipe":
        worker = ProcessShardWorker(_spec())
        conn = worker._conn

        def read():
            assert conn.poll(5.0), "the worker neither replied nor hung up"
            return wire.decode(conn.recv_bytes())

        try:
            yield conn.send_bytes, read
        finally:
            worker.shutdown()
    else:
        with ShardHostListener() as listener:
            worker = TcpShardWorker(_spec(), listener.address, request_timeout=5.0)
            sock = worker._sock

            def write(frame):
                sock.sendall(len(frame).to_bytes(8, "big") + frame)

            try:
                yield write, lambda: recv_frame(sock)
            finally:
                worker.shutdown()


class TestOneServeLoop:
    def test_undecodable_frame_gets_an_err_reply_then_eof(self, raw_wire):
        write, read = raw_wire
        write(bytes([wire.INGEST]) + b"\xff" * 7)
        status, payload = read()
        assert status == "err" and isinstance(payload, ValidationError)
        with pytest.raises(EOFError):
            read()

    def test_wrong_shape_gets_an_err_reply_and_serving_goes_on(self, raw_wire):
        write, read = raw_wire
        write(wire.encode(_spec()))  # decodes, but is no (command, payload)
        status, payload = read()
        assert status == "err" and isinstance(payload, TypeError)
        write(wire.encode(("ping", None)))
        assert read() == ("ok", 0)

    def test_close_gets_ok_then_eof(self, raw_wire):
        write, read = raw_wire
        write(wire.encode(("close", None)))
        assert read() == ("ok", None)
        with pytest.raises(EOFError):
            read()
