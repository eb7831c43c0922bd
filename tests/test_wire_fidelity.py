"""Wire-fidelity suite for shard spawn payloads.

The remote transports never ship a live mechanism — a worker rebuilds
its shard from a :class:`~repro.streaming.transport.ShardSpec` inside the
child interpreter.  For the projected and sketch backends the spec's
config carries the front-drawn shared ``Φ`` as its matrix, and the whole
equivalence story (thread ≡ process ≡ tcp, replay twins, K=1
conformance) rests on that payload crossing the wire *bit-identically*:

* the rng children ship with their exact state (same noise stream in the
  child as in-process);
* every remote shard releases the same bits as its thread twin after the
  same blocks, on spawn AND after a restart — every worker generation of
  a server applies one ``Φ``;
* a spec round-trips through the wire codec (:mod:`repro.streaming.wire`)
  unchanged, and two builds of the same spec produce mechanisms with
  identical noise;
* a remote shard's releases equal the in-process shard's entry by entry,
  in ``bundle_names`` order, on every bundle layout;
* ``Φ`` is data, so any :class:`~repro.sketching.projection.Projection`
  serves on every transport.
"""

import dataclasses

import numpy as np
import pytest

from repro import (
    GaussianProjection,
    L2Ball,
    MultiTenantStream,
    PrivacyParams,
    PrivIncReg2,
    ShardedStream,
    SketchNoiseMechanism,
    SparseProjection,
    TreeMechanism,
)
from repro.data import make_dense_stream, make_iv_stream
from repro.exceptions import ValidationError
from repro.privacy.tree import noise_key
from repro.streaming import wire
from repro.streaming.backends import BACKENDS
from repro.streaming.transport import ShardSpec

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
T = 20


@pytest.fixture(scope="module")
def stream():
    return make_dense_stream(T, DIM, noise_std=0.05, rng=903)


def _server(backend, transport, seed=29, k=2, projection=None):
    return ShardedStream(
        L2Ball(DIM),
        PARAMS,
        shards=k,
        horizon=T,
        iteration_cap=10,
        backend=backend,
        x_domain=L2Ball(DIM),
        projected_dim=DIM if projection is None else None,
        projection=projection,
        transport=transport,
        rng=seed,
    )


def _assert_same_releases(shard, twin):
    got, want = shard.released(), twin.released()
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert mine.shape == theirs.shape
        assert (mine.steps, mine.noise_variance) == (theirs.steps, theirs.noise_variance)
        np.testing.assert_array_equal(mine.value, theirs.value)


class TestSpawnPayloadFidelity:
    @pytest.mark.parametrize("backend", ["projected", "sketch"])
    @pytest.mark.parametrize("transport", ["process", "tcp"])
    def test_every_worker_releases_its_thread_twins_bits(
        self, stream, backend, transport
    ):
        """Each remote shard applies the front's ``Φ``: after the same
        blocks it releases exactly what its thread twin releases."""
        twin, server = _server(backend, "thread"), _server(backend, transport)
        try:
            for front in (twin, server):
                for s in range(0, 12, 3):
                    front.observe_batch(stream.xs[s : s + 3], stream.ys[s : s + 3])
            for shard, thread_shard in zip(server._shards, twin._shards):
                assert shard.steps == thread_shard.steps == 6
                _assert_same_releases(shard, thread_shard)
        finally:
            twin.close()
            server.close()

    @pytest.mark.parametrize("backend", ["projected", "sketch"])
    @pytest.mark.parametrize("transport", ["process", "tcp"])
    def test_restarted_worker_applies_the_same_phi(
        self, stream, backend, transport
    ):
        """A restart spawns a fresh interpreter with fresh mechanisms —
        but the same shared ``Φ``: the one invariant every worker
        generation of a projected/sketch server must keep.  The restarted
        shard releases its restarted thread twin's bits."""
        twin, server = _server(backend, "thread"), _server(backend, transport)
        try:
            for front in (twin, server):
                front.observe_batch(stream.xs[:4], stream.ys[:4])
                front.kill_shard(0)
                front.restart_shard(0)
                assert front._shards[0].steps == 0  # fresh mechanisms...
                for s in range(4, 12, 2):
                    front.observe_batch(stream.xs[s : s + 2], stream.ys[s : s + 2])
            for shard, thread_shard in zip(server._shards, twin._shards):
                _assert_same_releases(shard, thread_shard)  # ...same Φ
        finally:
            twin.close()
            server.close()


def _over_the_wire(spec):
    """The spec a remote worker rebuilds: encoded and decoded by the codec."""
    return wire.decode(wire.encode(spec))


class TestShardSpecWire:
    def _spec(self, backend, projection, seed=17):
        config = {} if projection is None else {"phi": projection.matrix}
        return ShardSpec(
            index=0,
            dim=DIM,
            budget=PARAMS,
            keys=np.array([noise_key(r) for r in np.random.default_rng(seed).spawn(2)]),
            mechanism="tree",
            shard_horizon=T,
            backend=backend,
            config=config,
        )

    @pytest.mark.parametrize(
        "backend,projection_cls", [("projected", GaussianProjection), ("sketch", SparseProjection)]
    )
    def test_spec_round_trips_bit_identically(self, backend, projection_cls):
        spec = self._spec(backend, projection_cls(DIM, 2, rng=5))
        clone = _over_the_wire(spec)
        assert (clone.backend, clone.mechanism) == (backend, "tree")
        assert clone.shard_horizon == T
        assert clone.keys.dtype == np.uint64 and clone.keys.shape == (2, 2)
        np.testing.assert_array_equal(clone.keys, spec.keys)
        phi = clone.config["phi"]
        assert isinstance(phi, np.ndarray) and phi.dtype == np.float64
        np.testing.assert_array_equal(phi, spec.config["phi"])

    def test_two_builds_of_one_spec_produce_identical_noise(self, stream):
        """The shipped keys are the mechanisms' whole randomness: building
        the spec here and in a child (simulated by a codec round trip) yields
        shards whose mechanisms release the same bits for the same block."""
        spec = self._spec("sketch", SparseProjection(DIM, 2, rng=5))
        local = spec.build()
        remote = _over_the_wire(spec).build()
        assert local.backend == "sketch"
        assert BACKENDS[local.backend].release_family == "sketch"
        assert all(
            isinstance(local.bundle.get(name), SketchNoiseMechanism)
            for name in local.bundle.names
        )
        local.ingest(stream.xs[:6], stream.ys[:6], fast=False)
        remote.ingest(stream.xs[:6], stream.ys[:6], fast=False)
        assert local.bundle.names == remote.bundle.names == ("cross", "gram")
        for mine, theirs in zip(local.released(), remote.released()):
            np.testing.assert_array_equal(mine.value, theirs.value)

    def test_projected_spec_builds_tree_mechanisms(self):
        spec = self._spec("projected", GaussianProjection(DIM, 2, rng=5))
        shard = spec.build()
        assert shard.backend == "projected"
        assert BACKENDS[shard.backend].release_family is None
        assert all(isinstance(shard.bundle.get(n), TreeMechanism) for n in shard.bundle.names)

    @pytest.mark.parametrize("backend", ["projected", "sketch"])
    def test_spec_without_projection_is_refused(self, backend):
        spec = self._spec(backend, None)
        with pytest.raises(ValidationError, match="phi"):
            spec.build()

    @pytest.mark.parametrize("phi", [np.zeros(DIM), np.full((2, DIM), np.nan)])
    def test_spec_with_a_malformed_phi_is_refused(self, phi):
        """A ``Φ`` from a spawn payload is checked when the shard builds:
        a finite ``(m, d)`` matrix, as ``Projection`` requires."""
        spec = dataclasses.replace(self._spec("projected", None), config={"phi": phi})
        with pytest.raises(ValidationError, match="projection matrix"):
            _over_the_wire(spec).build()

    def test_sketch_shard_solver_replay_from_rebuilt_spec(self, stream):
        """End-to-end over the encoded payload: moments ingested by a
        rebuilt shard refresh a ``PrivIncReg2`` twin to the same θ as the
        original — the spec loses nothing the solver can see."""
        projection = SparseProjection(DIM, DIM, rng=5)
        spec = self._spec("sketch", projection)
        local = spec.build()
        remote = _over_the_wire(spec).build()
        for shard in (local, remote):
            shard.ingest(stream.xs, stream.ys, fast=False)
        thetas = []
        for shard in (local, remote):
            twin = PrivIncReg2(
                horizon=T,
                constraint=L2Ball(DIM),
                x_domain=L2Ball(DIM),
                params=PARAMS,
                iteration_cap=10,
                projection=projection,
                rng=0,
            )
            cross, gram = shard.released()  # bundle order: (cross, gram)
            thetas.append(
                twin.refresh_from_released(T, gram.value, cross.value)
            )
        np.testing.assert_array_equal(thetas[0], thetas[1])


def _front(kind, transport):
    """A small front of ``kind`` with the same seed on every transport."""
    common = dict(horizon=T, iteration_cap=10, transport=transport, rng=31)
    if kind == "tenant":
        return MultiTenantStream(L2Ball(DIM), PARAMS, tenants=2, shards=2, **common)
    if kind == "iv":
        return ShardedStream(
            L2Ball(DIM), PARAMS, 2, backend="iv", instruments=DIM + 1, **common
        )
    return ShardedStream(L2Ball(DIM), PARAMS, 2, **common)


def _feed(front, kind):
    if kind == "iv":
        iv = make_iv_stream(T, DIM, DIM + 1, rng=5)
        front.observe_batch(iv.stacked()[:8], iv.ys[:8])
        return
    data = make_dense_stream(T, DIM, noise_std=0.05, rng=903)
    ys = np.stack([data.ys, -data.ys], axis=1) if kind == "tenant" else data.ys
    front.observe_batch(data.xs[:8], ys[:8])


class TestRemoteShardDiagnostics:
    """A remote shard's ``released()`` snapshots are the in-process
    shard's entries, one per bundle name and in ``bundle_names`` order —
    also where a tenant bundle declares its Gram groups before its cross
    entries, and where an iv bundle declares no ``cross`` at all."""

    @pytest.mark.parametrize("kind", ["moment", "tenant", "iv"])
    @pytest.mark.parametrize("transport", ["thread", "process", "tcp"])
    def test_remote_statistics_match_the_in_process_shard(self, kind, transport):
        local, remote = _front(kind, "thread"), _front(kind, transport)
        try:
            for front in (local, remote):
                _feed(front, kind)
            assert remote.bundle_names == local.bundle_names
            assert len(remote._shards[0].released()) == len(local.bundle_names)
            _assert_same_releases(remote._shards[0], local._shards[0])
        finally:
            local.close()
            remote.close()


class TestProjectionSubclassesServeRemotely:
    """``Φ`` travels as its matrix, so a projection the wire knows nothing
    about serves on every transport with the thread transport's bits."""

    class Relabelled(GaussianProjection):
        label = "custom"

    @pytest.mark.parametrize("transport", ["process", "tcp"])
    def test_a_gaussian_subclass_serves_with_the_thread_bits(self, stream, transport):
        projection = self.Relabelled(DIM, 2, rng=1)
        fronts = [
            _server("projected", name, seed=3, projection=projection)
            for name in ("thread", transport)
        ]
        try:
            for front in fronts:
                assert front.projection is projection
                for s in range(0, 12, 4):
                    front.observe_batch(stream.xs[s : s + 4], stream.ys[s : s + 4])
            thread, remote = (front.flush() for front in fronts)
            np.testing.assert_array_equal(thread.theta, remote.theta)
            for mine, theirs in zip(*(front.merged_moments() for front in fronts)):
                np.testing.assert_array_equal(mine.value, theirs.value)
        finally:
            for front in fronts:
                front.close()
