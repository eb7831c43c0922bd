"""Wire-fidelity suite for shard spawn payloads.

The remote transports never ship a live mechanism — a worker rebuilds
its shard from a :class:`~repro.streaming.transport.ShardSpec` inside the
child interpreter.  For the projected and sketch backends the spec
carries the front-drawn shared ``Φ`` itself, and the whole equivalence
story (thread ≡ process ≡ tcp, replay twins, K=1 conformance) rests on
that payload crossing the wire *bit-identically*:

* the rng children ship with their exact state (same noise stream in the
  child as in-process);
* the projection matrix re-attaches with the same bits, on spawn AND on
  restart — every worker generation of a server shares one ``Φ``;
* a spec round-trips through the wire codec (:mod:`repro.streaming.wire`)
  unchanged, and two builds of the same spec produce mechanisms with
  identical noise;
* a remote shard's ``cross`` / ``gram`` diagnostics name the same
  statistic as the in-process shard's attributes.
"""

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
from repro.streaming import wire
from repro.streaming.backends import BACKENDS
from repro.streaming.transport import ShardSpec

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
T = 20


@pytest.fixture(scope="module")
def stream():
    return make_dense_stream(T, DIM, noise_std=0.05, rng=903)


def _server(backend, transport, seed=29, k=2):
    return ShardedStream(
        L2Ball(DIM),
        PARAMS,
        shards=k,
        horizon=T,
        iteration_cap=10,
        backend=backend,
        x_domain=L2Ball(DIM),
        projected_dim=DIM,
        transport=transport,
        rng=seed,
    )


class TestSpawnPayloadFidelity:
    @pytest.mark.parametrize("backend", ["projected", "sketch"])
    @pytest.mark.parametrize("transport", ["process", "tcp"])
    def test_every_worker_reattaches_to_the_front_phi_bit_identically(
        self, stream, backend, transport
    ):
        server = _server(backend, transport)
        try:
            for shard in server._shards:
                description = shard.describe()
                assert description["backend"] == backend
                assert description["mechanism"] == "tree"
                assert description["moment_dim"] == DIM
                np.testing.assert_array_equal(
                    description["projection_matrix"], server.projection.matrix
                )
        finally:
            server.close()

    @pytest.mark.parametrize("backend", ["projected", "sketch"])
    @pytest.mark.parametrize("transport", ["process", "tcp"])
    def test_restarted_worker_reattaches_to_the_same_phi(
        self, stream, backend, transport
    ):
        """A restart spawns a fresh interpreter with fresh mechanisms —
        but the same shared ``Φ``: the one invariant every worker
        generation of a projected/sketch server must keep."""
        server = _server(backend, transport)
        try:
            server.observe_batch(stream.xs[:4], stream.ys[:4])
            before = server._shards[0].describe()["projection_matrix"]
            server.kill_shard(0)
            server.restart_shard(0)
            after = server._shards[0].describe()
            assert after["steps"] == 0  # fresh mechanisms...
            np.testing.assert_array_equal(
                after["projection_matrix"], before
            )  # ...same Φ
            np.testing.assert_array_equal(
                after["projection_matrix"], server.projection.matrix
            )
        finally:
            server.close()


def _over_the_wire(spec):
    """The spec a remote worker rebuilds: encoded and decoded by the codec."""
    return wire.decode(wire.encode(spec))


class TestShardSpecWire:
    def _spec(self, backend, projection, seed=17):
        return ShardSpec(
            index=0,
            dim=DIM,
            budget=PARAMS,
            rngs=tuple(np.random.default_rng(seed).spawn(2)),
            mechanism="tree",
            shard_horizon=T,
            backend=backend,
            config={"projection": projection},
        )

    @pytest.mark.parametrize(
        "backend,projection_cls", [("projected", GaussianProjection), ("sketch", SparseProjection)]
    )
    def test_spec_round_trips_bit_identically(self, backend, projection_cls):
        spec = self._spec(backend, projection_cls(DIM, 2, rng=5))
        clone = _over_the_wire(spec)
        assert (clone.backend, clone.mechanism) == (backend, "tree")
        assert clone.shard_horizon == T
        np.testing.assert_array_equal(
            clone.projection.matrix, spec.projection.matrix
        )

    def test_two_builds_of_one_spec_produce_identical_noise(self, stream):
        """The shipped rng children carry exact generator state: building
        the spec here and in a child (simulated by a codec round trip) yields
        shards whose mechanisms release the same bits for the same block."""
        spec = self._spec("sketch", SparseProjection(DIM, 2, rng=5))
        local = spec.build()
        remote = _over_the_wire(spec).build()
        assert local.backend == "sketch"
        assert BACKENDS[local.backend].release_family == "sketch"
        assert isinstance(local.cross, SketchNoiseMechanism)
        local.ingest(stream.xs[:6], stream.ys[:6], fast=False)
        remote.ingest(stream.xs[:6], stream.ys[:6], fast=False)
        np.testing.assert_array_equal(
            local.cross.current_sum(), remote.cross.current_sum()
        )
        np.testing.assert_array_equal(
            local.gram.current_sum(), remote.gram.current_sum()
        )

    def test_projected_spec_builds_tree_mechanisms(self):
        spec = self._spec("projected", GaussianProjection(DIM, 2, rng=5))
        shard = spec.build()
        assert shard.backend == "projected"
        assert BACKENDS[shard.backend].release_family is None
        assert isinstance(shard.cross, TreeMechanism)

    @pytest.mark.parametrize("backend", ["projected", "sketch"])
    def test_spec_without_projection_is_refused(self, backend):
        spec = self._spec(backend, None)
        with pytest.raises(ValidationError, match="projection"):
            spec.build()

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
            thetas.append(
                twin.refresh_from_released(
                    T, shard.gram.current_sum(), shard.cross.current_sum()
                )
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


def _statistic(shard, name):
    """``(shape, current_sum)`` of a shard attribute, per tenant on a dict;
    the exception type when the shard declares no such statistic."""
    try:
        view = getattr(shard, name)
    except KeyError:
        return KeyError
    if isinstance(view, dict):
        return {key: _statistic_value(handle) for key, handle in view.items()}
    return _statistic_value(view)


def _statistic_value(handle):
    return tuple(handle.shape), handle.current_sum()


class TestRemoteShardDiagnostics:
    """``cross`` / ``gram`` on a remote shard resolve by statistic name,
    not by bundle position: a tenant bundle declares its Gram groups
    before its cross entries, so positional resolution swapped them, and
    on an iv shard it served ``zz`` as ``cross``."""

    @pytest.mark.parametrize("kind", ["moment", "tenant", "iv"])
    @pytest.mark.parametrize("transport", ["thread", "process", "tcp"])
    def test_remote_statistics_match_the_in_process_shard(self, kind, transport):
        local, remote = _front(kind, "thread"), _front(kind, transport)
        try:
            for front in (local, remote):
                _feed(front, kind)
            for name in ("cross", "gram"):
                expected = _statistic(local._shards[0], name)
                got = _statistic(remote._shards[0], name)
                if expected is KeyError:
                    assert got is KeyError, name
                    continue
                if isinstance(expected, dict):
                    assert got.keys() == expected.keys(), name
                    pairs = [(got[key], expected[key]) for key in expected]
                else:
                    pairs = [(got, expected)]
                for (shape, value), (want_shape, want_value) in pairs:
                    assert shape == want_shape, name
                    np.testing.assert_array_equal(value, want_value)
        finally:
            local.close()
            remote.close()


class TestRemoteTransportsNeedBuiltInProjections:
    """``Φ`` crosses the wire as its kind plus its matrix, so only the two
    built-in projection types can serve remotely; anything else is refused
    when the front is built, before a worker or listener starts."""

    class Relabelled(GaussianProjection):
        pass

    def _front(self, projection, transport):
        return ShardedStream(
            L2Ball(DIM),
            PARAMS,
            shards=2,
            horizon=T,
            backend="projected",
            x_domain=L2Ball(DIM),
            projection=projection,
            transport=transport,
            rng=3,
        )

    @pytest.mark.parametrize("transport", ["process", "tcp"])
    def test_custom_projection_is_refused_at_construction(self, transport):
        custom = self.Relabelled.from_matrix(GaussianProjection(DIM, 2, rng=1).matrix)
        with pytest.raises(ValidationError, match="built-in projections"):
            self._front(custom, transport)

    def test_custom_projection_still_serves_in_process(self):
        custom = self.Relabelled.from_matrix(GaussianProjection(DIM, 2, rng=1).matrix)
        server = self._front(custom, "thread")
        try:
            assert server.projection is custom
        finally:
            server.close()
