"""Conformance suite for the process shard transport.

The process transport's whole claim is *transparency*: moving a shard
worker into its own interpreter must change throughput characteristics and
nothing else.  Four contracts pin that down:

(a) **Wire fidelity** — ``ReleasedMoments`` records cross the wire
    codec (and pickle) losslessly and merge exactly like the records they
    were encoded from (bit-identical value, identical variance
    accounting); a mechanism builds its record without copying.

(b) **Transport equivalence** — a thread server and a process server under
    one seed produce bit-identical merged releases and served estimates
    (both backends); a ``K = 1`` process server with ``ingest="exact"``
    is bit-identical to the plain single-shard batched path.

(c) **Shared-Φ identity** — every spawned projected worker (including
    restarts) applies byte-for-byte the front's ``Φ``, the one invariant
    Algorithm 3's sharding adds: it releases its thread twin's bits.

(d) **Fault coverage** — a worker SIGKILLed behind the server's back is
    detected at the next pipe interaction, its acknowledged mass lands in
    ``lost_steps``, the failed block is refunded (retry routes to a live
    shard), and merges degrade to the documented partial-coverage
    semantics.  ``close()`` reaps every worker process.

The generic serving contracts (async linearizability, cache freshness,
kill/restart cycles) are re-proven over this transport by running
``tests/test_sharded_equivalence.py`` / ``tests/test_serving_faults.py``
with ``SERVE_TRANSPORT=process`` (the CI TRANSPORT axis).
"""

import pickle

import numpy as np
import pytest

from repro import (
    GaussianProjection,
    HybridMechanism,
    L1Ball,
    L2Ball,
    PrivacyParams,
    PrivIncReg1,
    Projection,
    ReleasedMoments,
    ShardedStream,
    SketchNoiseMechanism,
    SparseVectors,
    TreeMechanism,
    merge_released,
)
from repro.data import make_dense_stream
from repro.exceptions import ShardUnavailableError, ValidationError
from repro.streaming import wire

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
T = 24
BLOCKS = [(s, s + 4) for s in range(0, T, 4)]


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


@pytest.fixture(scope="module")
def wide_stream():
    return make_dense_stream(T, 8, noise_std=0.05, rng=405)


def _server(k, seed, constraint=None, **kwargs):
    defaults = dict(horizon=T, iteration_cap=12, transport="process")
    defaults.update(kwargs)
    constraint = L2Ball(DIM) if constraint is None else constraint
    return ShardedStream(constraint, PARAMS, shards=k, rng=seed, **defaults)


def _feed(server, stream, blocks=BLOCKS):
    for s, e in blocks:
        server.observe_batch(stream.xs[s:e], stream.ys[s:e])


class TestWireSnapshots:
    def test_released_moments_pickles_losslessly(self):
        mech = TreeMechanism(T, (DIM,), 2.0, PARAMS.halve(), rng=3)
        mech.advance_batch(np.full((5, DIM), 0.1))
        snapshot = mech.released_moments()
        wired = pickle.loads(pickle.dumps(snapshot))
        assert isinstance(wired, ReleasedMoments)
        assert wired == snapshot  # value equality survives the wire
        np.testing.assert_array_equal(wired.value, mech.current_sum())
        assert wired.noise_variance == mech.release_noise_variance()
        assert wired.steps == mech.steps_taken == 5
        assert wired.shape == (DIM,)
        # Snapshots of different states compare unequal (and never raise —
        # the auto-generated dataclass __eq__ over an ndarray would).
        mech.advance_batch(np.full((1, DIM), 0.1))
        assert snapshot != mech.released_moments()
        # The snapshot's buffer is frozen at creation (pickle does not
        # carry numpy's writeable flag, so only the original is checked).
        with pytest.raises((ValueError, RuntimeError)):
            snapshot.value[0] = 0.0

    def test_pickled_records_merge_like_the_originals(self):
        half = PARAMS.halve()
        a = TreeMechanism(T, (DIM,), 2.0, half, rng=1)
        b = TreeMechanism(T, (DIM,), 2.0, half, rng=2)
        a.advance_batch(np.full((3, DIM), 0.2))
        b.advance_batch(np.full((7, DIM), -0.1))
        local = merge_released([a.released_moments(), b.released_moments()])
        snapped = merge_released(
            [
                pickle.loads(pickle.dumps(a.released_moments())),
                pickle.loads(pickle.dumps(b.released_moments())),
            ]
        )
        np.testing.assert_array_equal(snapped.value, local.value)
        assert snapped.noise_variance == local.noise_variance
        assert snapped.coverage == local.coverage

    def test_merge_takes_records_only(self):
        """A live mechanism is not a merge handle: its record is."""
        mech = TreeMechanism(T, (DIM,), 2.0, PARAMS.halve(), rng=1)
        mech.advance_batch(np.full((3, DIM), 0.2))
        with pytest.raises(ValidationError, match="released_moments"):
            merge_released([mech])
        with pytest.raises(ValidationError, match="released_moments"):
            merge_released([mech.released_moments(), mech])

    def test_mismatched_snapshot_shape_rejected(self):
        # A record's shape is its value's; records of different shapes
        # never merge.
        flat = ReleasedMoments(value=np.zeros(DIM), noise_variance=0.0, steps=1)
        square = ReleasedMoments(value=np.zeros((DIM, DIM)), noise_variance=0.0, steps=1)
        assert flat.shape == (DIM,) and square.shape == (DIM, DIM)
        with pytest.raises(ValidationError, match="shapes differ"):
            merge_released([flat, square])

    def test_records_are_built_without_a_copy(self):
        """A tree's record shares its cached release, which is read-only
        (so is every ``current_sum()``); the chunked and sketch members
        freeze the fresh array their read returns; the record decoded off
        the wire equals the in-process one byte for byte."""
        tree = TreeMechanism(T, (DIM, DIM), 2.0, PARAMS.halve(), rng=3)
        tree.advance_batch(np.full((5, DIM, DIM), 0.01))
        record = tree.released_moments()
        assert np.shares_memory(record.value, tree._read())
        assert np.shares_memory(record.value, tree.current_sum())
        assert not record.value.flags.writeable
        with pytest.raises(ValueError):
            tree.current_sum()[0, 0] = 0.0
        wired = self._via_codec(record)
        assert wired == record
        assert wired.value.tobytes() == record.value.tobytes()
        assert (wired.noise_variance, wired.steps, wired.weight) == (
            record.noise_variance, record.steps, record.weight,
        )
        for mech in (
            HybridMechanism((DIM,), 2.0, PARAMS.halve(), rng=4, decay=0.9),
            SketchNoiseMechanism(T, (DIM,), 2.0, PARAMS.halve(), rng=5),
        ):
            mech.advance_batch(np.full((5, DIM), 0.1))
            record = mech.released_moments()
            assert not record.value.flags.writeable
            np.testing.assert_array_equal(record.value, mech.current_sum())
            assert not np.shares_memory(record.value, mech.current_sum())
            assert self._via_codec(record).value.tobytes() == record.value.tobytes()

    def test_snapshots_are_hashable_dict_keys_across_the_wire(self):
        """``__eq__``-with-``__hash__``: a snapshot must work as a dict/set
        key, and the pickled copy must find the original's entry (equal
        snapshots hash equal).  Defining ``__eq__`` in the class body sets
        ``__hash__ = None`` unless a hash is defined explicitly — this
        pins the explicit one."""
        mech = TreeMechanism(T, (DIM,), 2.0, PARAMS.halve(), rng=3)
        mech.advance_batch(np.full((5, DIM), 0.1))
        snapshot = mech.released_moments()
        wired = pickle.loads(pickle.dumps(snapshot))
        assert hash(snapshot) == hash(wired)

        registry = {snapshot: "shard-0"}
        assert registry[wired] == "shard-0"  # equal key, found on lookup
        assert len({snapshot, wired}) == 1

        mech.advance_batch(np.full((1, DIM), 0.1))
        later = mech.released_moments()
        registry[later] = "shard-0@t6"
        assert len(registry) == 2  # unequal snapshots coexist as keys
        assert registry[pickle.loads(pickle.dumps(later))] == "shard-0@t6"

    # The same contracts through the wire codec, which is what the process
    # and tcp transports actually ship (a ``released`` reply frame).

    @staticmethod
    def _via_codec(*snapshots):
        status, wired = wire.decode(wire.encode(("ok", snapshots)))
        assert status == "ok" and len(wired) == len(snapshots)
        return wired if len(wired) > 1 else wired[0]

    def test_released_moments_cross_the_codec_losslessly(self):
        mech = TreeMechanism(T, (DIM,), 2.0, PARAMS.halve(), rng=3)
        mech.advance_batch(np.full((5, DIM), 0.1))
        snapshot = mech.released_moments()
        wired = self._via_codec(snapshot)
        assert isinstance(wired, ReleasedMoments)
        assert wired == snapshot
        np.testing.assert_array_equal(wired.value, mech.current_sum())
        assert wired.noise_variance == mech.release_noise_variance()
        assert wired.steps == mech.steps_taken == 5
        assert wired.shape == (DIM,)
        assert wired.weight is None
        # The decoded record reads the frame in place, read-only.
        with pytest.raises((ValueError, RuntimeError)):
            wired.value[0] = 0.0
        weighted = ReleasedMoments(
            value=np.eye(DIM), noise_variance=0.5, steps=4, weight=2.5
        )
        assert self._via_codec(weighted).effective_weight == 2.5
        assert self._via_codec(weighted) == weighted

    def test_codec_records_merge_like_the_originals(self):
        half = PARAMS.halve()
        a = TreeMechanism(T, (DIM,), 2.0, half, rng=1)
        b = TreeMechanism(T, (DIM,), 2.0, half, rng=2)
        a.advance_batch(np.full((3, DIM), 0.2))
        b.advance_batch(np.full((7, DIM), -0.1))
        local = merge_released([a.released_moments(), b.released_moments()])
        snapped = merge_released(
            list(self._via_codec(a.released_moments(), b.released_moments()))
        )
        np.testing.assert_array_equal(snapped.value, local.value)
        assert snapped.noise_variance == local.noise_variance
        assert snapped.coverage == local.coverage

    def test_codec_snapshots_are_hashable_dict_keys(self):
        mech = TreeMechanism(T, (DIM,), 2.0, PARAMS.halve(), rng=3)
        mech.advance_batch(np.full((5, DIM), 0.1))
        snapshot = mech.released_moments()
        wired = self._via_codec(snapshot)
        assert hash(snapshot) == hash(wired)
        registry = {snapshot: "shard-0"}
        assert registry[wired] == "shard-0"
        assert len({snapshot, wired}) == 1


class TestTransportEquivalence:
    def test_k1_exact_process_equals_plain_batched_bit_for_bit(self, stream):
        """ISSUE 4 acceptance: K=1 exact process serving ≡ plain path."""
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
    def test_thread_and_process_servers_bit_identical(self, tall_stream, ingest):
        """Same seed ⇒ same noise ⇒ same merged releases, either transport
        and either ingest tier."""
        results = {}
        for transport in ("thread", "process"):
            server = _server(3, seed=55, transport=transport, ingest=ingest, horizon=TALL_T)
            try:
                _feed(server, tall_stream, TALL_BLOCKS)
                served = server.flush()
                cross, gram = server.merged_moments()
                results[transport] = (served, cross, gram)
            finally:
                server.close()
        served_t, cross_t, gram_t = results["thread"]
        served_p, cross_p, gram_p = results["process"]
        np.testing.assert_array_equal(served_t.theta, served_p.theta)
        assert served_t.covered_steps == served_p.covered_steps
        np.testing.assert_array_equal(cross_t.value, cross_p.value)
        np.testing.assert_array_equal(gram_t.value, gram_p.value)
        assert cross_t.noise_variance == cross_p.noise_variance
        assert gram_t.noise_variance == gram_p.noise_variance

    def test_merge_variance_accounting_across_the_pipe(self, stream):
        """Merged variance equals the analytic Σ_k popcount(t_k)·σ²_node."""
        server = _server(3, seed=21)
        try:
            _feed(server, stream)
            cross_merged, _ = server.merged_moments()
            # What crosses the pipe is the compact snapshot type — never
            # the live mechanisms (the serialize-the-sketch contract).
            for shard in server._shards:
                wired_cross, wired_gram = shard.released()
                assert isinstance(wired_cross, ReleasedMoments)
                assert isinstance(wired_gram, ReleasedMoments)
            # Snapshots fetched over the pipe carry each shard's own term...
            cross = server.bundle_names.index("cross")
            per_shard = [
                shard.released()[cross].noise_variance for shard in server._shards
            ]
            assert cross_merged.noise_variance == pytest.approx(sum(per_shard))
            # ...and each term is the documented popcount(t)·σ²_node, with
            # σ_node from an identically calibrated reference tree.
            sigma_node = TreeMechanism(T, (DIM,), 2.0, PARAMS.halve(), rng=0).sigma_node
            states = server.shard_states()
            expected = sum(
                int(state["steps"]).bit_count() * sigma_node**2 for state in states
            )
            assert cross_merged.noise_variance == pytest.approx(expected)
        finally:
            server.close()


class TestSharedProjection:
    def test_phi_identity_across_spawned_projected_workers(self, wide_stream):
        """Every worker — and a restarted worker — applies the front's Φ:
        its releases equal its thread twin's after the same blocks."""
        servers = [
            _server(
                2,
                seed=31,
                constraint=L1Ball(8),
                backend="projected",
                x_domain=SparseVectors(8, 2),
                transport=transport,
            )
            for transport in ("thread", "process")
        ]

        def assert_twins():
            for thread_shard, shard in zip(*(server._shards for server in servers)):
                for live, wired in zip(thread_shard.released(), shard.released()):
                    np.testing.assert_array_equal(wired.value, live.value)

        try:
            for server in servers:
                _feed(server, wide_stream, BLOCKS[:3])
            assert_twins()
            for server in servers:
                server.kill_shard(0)
                server.restart_shard(0)
                _feed(server, wide_stream, BLOCKS[3:])
            assert_twins()
        finally:
            for server in servers:
                server.close()

    def test_projected_thread_and_process_merges_bit_identical(self, wide_stream):
        results = {}
        for transport in ("thread", "process"):
            server = _server(
                2,
                seed=77,
                transport=transport,
                constraint=L1Ball(8),
                backend="projected",
                x_domain=SparseVectors(8, 2),
            )
            try:
                _feed(server, wide_stream)
                results[transport] = server.merged_moments()
            finally:
                server.close()
        np.testing.assert_array_equal(
            results["thread"][0].value, results["process"][0].value
        )
        np.testing.assert_array_equal(
            results["thread"][1].value, results["process"][1].value
        )

    def test_projection_adopts_a_matrix_as_the_same_map(self):
        front = GaussianProjection(8, 4, rng=5)
        rebuilt = Projection(front.matrix)
        assert rebuilt.original_dim == 8 and rebuilt.projected_dim == 4
        np.testing.assert_array_equal(rebuilt.matrix, front.matrix)
        x = np.linspace(-0.3, 0.3, 8)
        np.testing.assert_array_equal(rebuilt.apply(x), front.apply(x))
        with pytest.raises(ValidationError):
            Projection(np.zeros(3))
        with pytest.raises(ValidationError):
            Projection(np.full((2, 2), np.nan))


class TestProcessFaults:
    def test_uncommanded_worker_death_is_detected_and_accounted(self, stream):
        """A crash the server never ordered still lands in the books."""
        server = _server(2, seed=6)
        try:
            _feed(server, stream, BLOCKS[:2])  # one block per shard
            victim = server._shards[0]
            victim._process.kill()  # crash behind the server's back
            victim._process.join(timeout=5.0)
            with pytest.raises(ShardUnavailableError):
                server.observe_batch(stream.xs[8:12], stream.ys[8:12])
            assert not victim.alive
            assert server.lost_steps == 4
            # The failed block was refunded; a retry routes to the live shard.
            server.observe_batch(stream.xs[8:12], stream.ys[8:12])
            served = server.flush()
            assert served.covered_steps == server.steps_ingested - server.lost_steps
            cross_merged, _ = server.merged_moments()
            assert cross_merged.missing == (0,)
        finally:
            server.close()

    def test_crash_detected_by_a_diagnostic_still_lands_in_the_books(self, stream):
        """Loss accounting is detection-path independent (and once-only).

        A death first noticed by a diagnostic RPC (``memory_floats``)
        must credit ``lost_steps`` exactly like one noticed by ingest or
        a merge — and repeated observations must not double-book it.
        """
        server = _server(2, seed=33)
        try:
            _feed(server, stream, BLOCKS[:2])  # one block per shard
            victim = server._shards[1]
            victim._process.kill()
            victim._process.join(timeout=5.0)
            server.memory_floats()  # diagnostic detects the death...
            assert not victim.alive
            assert server.lost_steps == 4  # ...and books it immediately
            server.memory_floats()  # once-only: no double counting
            server.kill_shard(1)  # idempotent over an already-crashed worker
            assert server.lost_steps == 4
            cross_merged, _ = server.merged_moments()
            assert cross_merged.missing == (1,)
            assert (
                cross_merged.covered_steps
                == server.steps_ingested - server.lost_steps
            )
        finally:
            server.close()

    def test_restart_after_worker_level_detection_books_the_loss(self, stream):
        """Restarting must not launder a crash out of the ledger.

        A death first noticed by a *worker-level* RPC (``ping()``,
        which reaps but cannot reach the server's ledger), followed by an
        immediate ``restart_shard`` — before any merge could sweep the
        dead worker — must still credit the lost mass, because the
        replacement removes the old worker from every later sweep.
        """
        server = _server(2, seed=44)
        try:
            _feed(server, stream, BLOCKS[:2])  # one block per shard
            victim = server._shards[0]
            victim._process.kill()
            victim._process.join(timeout=5.0)
            with pytest.raises(ShardUnavailableError):
                victim.ping()
            assert not victim.alive and server.lost_steps == 0
            server.restart_shard(0)  # books the old worker's 4 points
            assert server.lost_steps == 4
            _feed(server, stream, BLOCKS[2:])
            served = server.flush()
            assert served.covered_steps == server.steps_ingested - server.lost_steps
        finally:
            server.close()

    def test_close_reaps_every_worker_process(self, stream):
        server = _server(2, seed=14)
        pids = [shard._process.pid for shard in server._shards]
        assert all(pid is not None for pid in pids)
        _feed(server, stream, BLOCKS[:2])
        server.close()
        for shard in server._shards:
            # shutdown() joined the worker and released its handle.
            assert not shard.alive
            assert shard._process is None
