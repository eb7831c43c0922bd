"""Non-stationary serving acceptance suite.

Contracts pinned here:

* ``decay=1.0`` and ``window=inf`` are **bit-identical** to the plain
  stationary server under one seed — the escape hatch that lets the
  knobs ship inside the existing serving stack without perturbing any
  stationary deployment.
* The knobs survive every shard transport unchanged (``SERVE_TRANSPORT``
  ∈ {thread, process, tcp} — the CI transport axis).
* On a drifting stream, a decayed server tracks the moving ground truth
  strictly better than the static prefix server (the reason the knobs
  exist).

``SERVE_DECAY`` (the CI drift axis) overrides the forgetting factor the
decayed tests run with, so the same assertions are re-proven at several
γ values.
"""

import math
import os

import numpy as np
import pytest

from repro import (
    L2Ball,
    MultiTenantStream,
    PrivacyParams,
    ShardedStream,
)
from repro.data import make_drift_stream
from repro.exceptions import ValidationError

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
T = 48
BLOCK = 8

#: Shard transport every server in this suite runs on (the CI TRANSPORT
#: axis) — the non-stationary contracts are transport-independent.
TRANSPORT = os.environ.get("SERVE_TRANSPORT", "thread")

#: Forgetting factor for the decayed legs (the CI SERVE_DECAY axis).
DECAY = float(os.environ.get("SERVE_DECAY", "0.9"))


@pytest.fixture(scope="module")
def stream():
    return make_drift_stream(T, DIM, n_segments=2, noise_std=0.05, rng=901)[0]


def _server(k=2, seed=0, **kwargs):
    defaults = dict(horizon=T, iteration_cap=20, transport=TRANSPORT)
    defaults.update(kwargs)
    return ShardedStream(L2Ball(DIM), PARAMS, shards=k, rng=seed, **defaults)


def _feed(server, stream):
    for start in range(0, T, BLOCK):
        server.observe_batch(
            stream.xs[start : start + BLOCK], stream.ys[start : start + BLOCK]
        )
    server.flush()


def _run(**kwargs):
    stream = make_drift_stream(T, DIM, n_segments=2, noise_std=0.05, rng=901)[0]
    server = _server(**kwargs)
    try:
        _feed(server, stream)
        cross, gram = server.merged_moments()
        return (
            server.current_estimate().copy(),
            cross.value.copy(),
            gram.value.copy(),
            cross.covered_weight,
        )
    finally:
        server.close()


class TestDegenerateIdentity:
    """γ = 1 and W = inf reproduce the stationary server bit for bit."""

    def test_decay_one_matches_plain(self):
        theta, cross, gram, weight = _run()
        theta1, cross1, gram1, weight1 = _run(decay=1.0)
        assert np.array_equal(theta, theta1)
        assert np.array_equal(cross, cross1)
        assert np.array_equal(gram, gram1)
        assert weight == weight1 == float(T)

    def test_window_inf_matches_plain(self):
        theta, cross, gram, weight = _run()
        theta2, cross2, gram2, weight2 = _run(window=math.inf)
        assert np.array_equal(theta, theta2)
        assert np.array_equal(cross, cross2)
        assert np.array_equal(gram, gram2)
        assert weight2 == float(T)

    def test_decay_one_matches_plain_fast_tier(self):
        theta, cross, gram, _ = _run(ingest="fast")
        theta1, cross1, gram1, _ = _run(ingest="fast", decay=1.0)
        assert np.array_equal(theta, theta1)
        assert np.array_equal(cross, cross1)
        assert np.array_equal(gram, gram1)


class TestDecayedServing:
    def test_effective_weight_is_summed_geometric_series(self):
        """Two shards, T/2 elements each: the merged weight is twice the
        per-shard geometric series, and it replaces the raw count."""
        _, _, _, weight = _run(decay=DECAY)
        if DECAY == 1.0:
            assert weight == float(T)
        else:
            per_shard = (1 - DECAY ** (T // 2)) / (1 - DECAY)
            assert abs(weight - 2 * per_shard) < 1e-9

    def test_decayed_runs_on_both_ingest_tiers(self):
        exact = _run(decay=DECAY)
        fast = _run(decay=DECAY, ingest="fast")
        # Same γ-weighted clean prefix under both summation orders; the
        # weight must match exactly.
        assert exact[3] == fast[3]

    def test_exact_and_fast_release_the_same_decayed_noise(self, stream):
        """Node-addressed noise under γ: the ``ingest`` settings differ
        only in the float summation order of the γ-weighted block sums."""
        exact = _server(decay=DECAY)
        fast = _server(decay=DECAY, ingest="fast")
        try:
            _feed(exact, stream)
            _feed(fast, stream)
            for m_exact, m_fast in zip(exact.merged_moments(), fast.merged_moments()):
                np.testing.assert_allclose(m_fast.value, m_exact.value, rtol=1e-12, atol=1e-12)
                assert m_fast.noise_variance == m_exact.noise_variance
                assert m_fast.covered_weight == m_exact.covered_weight
        finally:
            exact.close()
            fast.close()

    def test_windowed_serving_covers_the_ring(self):
        _, _, _, weight = _run(window=12)
        assert weight == 24.0  # two shards, full 12-element rings

    def test_windowed_serving_is_horizon_free_with_hybrid(self):
        stream = make_drift_stream(T, DIM, n_segments=2, noise_std=0.05, rng=901)[0]
        server = _server(horizon=None, mechanism="hybrid", window=10)
        try:
            _feed(server, stream)
            cross, _ = server.merged_moments()
            assert 0 < cross.covered_weight <= 20.0
        finally:
            server.close()


class TestDriftTracking:
    def test_decayed_beats_static_after_drift(self):
        """After the segment switch, forgetting tracks the new truth
        strictly better than the static prefix server.

        The budget is deliberately generous: the decayed release's
        signal is capped at the geometric weight ``1/(1−γ)`` while its
        tree noise still scales with the horizon, so a tight budget
        drowns the tracking win in noise.  This test isolates the
        forgetting *bias* — the benchmark sweeps the noise tradeoff.
        """
        t, generous = 96, PrivacyParams(400.0, 1e-5)
        stream, thetas = make_drift_stream(
            t, DIM, n_segments=2, noise_std=0.05, rng=902
        )
        errors = {}
        for label, kwargs in (
            ("static", {}),
            ("decayed", {"decay": 0.9}),
        ):
            server = ShardedStream(
                L2Ball(DIM),
                generous,
                shards=2,
                horizon=t,
                iteration_cap=40,
                transport=TRANSPORT,
                rng=5,
                **kwargs,
            )
            try:
                for start in range(0, t, 16):
                    server.observe_batch(
                        stream.xs[start : start + 16],
                        stream.ys[start : start + 16],
                    )
                server.flush()
                theta = server.current_estimate()
            finally:
                server.close()
            errors[label] = float(np.linalg.norm(theta - thetas[-1]))
        assert errors["decayed"] < errors["static"]


class TestTenancyGroups:
    def test_per_tenant_decay_groups(self):
        stream, _ = make_drift_stream(T, DIM, n_segments=2, noise_std=0.05, rng=903)
        ys = np.stack([stream.ys, -stream.ys], axis=1)
        # γ groups must be distinct; at SERVE_DECAY=1.0 both tenants
        # share the single stationary group.
        groups = (1.0,) if DECAY == 1.0 else (1.0, DECAY)
        server = MultiTenantStream(
            L2Ball(DIM),
            PARAMS,
            ["plain", "recent"],
            2,
            horizon=T,
            decays=groups,
            tenant_decays=(1.0, DECAY),
            transport=TRANSPORT,
            rng=0,
        )
        try:
            for start in range(0, T, BLOCK):
                server.observe_batch(
                    stream.xs[start : start + BLOCK], ys[start : start + BLOCK]
                )
            server.flush()
            cross_plain, _ = server.merged_moments("plain")
            cross_recent, _ = server.merged_moments("recent")
            assert cross_plain.covered_weight == float(T)
            if DECAY == 1.0:
                assert cross_recent.covered_weight == float(T)
            else:
                per_shard = (1 - DECAY ** (T // 2)) / (1 - DECAY)
                assert abs(cross_recent.covered_weight - 2 * per_shard) < 1e-9
            for name in ("plain", "recent"):
                assert server.tenant(name).current_estimate().shape == (DIM,)
        finally:
            server.close()


class TestKnobValidation:
    """Contradictory knobs die in the constructor, naming the knob."""

    def test_decay_and_window_are_mutually_exclusive(self):
        with pytest.raises(ValidationError, match="decay"):
            _server(decay=0.9, window=8)

    @pytest.mark.parametrize("decay", [0.0, -0.5, 1.5])
    def test_decay_out_of_range(self, decay):
        with pytest.raises(ValidationError, match="decay"):
            _server(decay=decay)

    @pytest.mark.parametrize("window", [0, -3, 0.5])
    def test_window_out_of_range(self, window):
        with pytest.raises(ValidationError, match="window"):
            _server(window=window)

    def test_finite_window_refuses_fast_ingest(self):
        with pytest.raises(ValidationError, match="fast"):
            _server(window=8, ingest="fast")

    def test_window_inf_needs_tree_and_horizon(self):
        with pytest.raises(ValidationError, match="window"):
            _server(window=math.inf, mechanism="hybrid", horizon=None)

    def test_heartbeat_every_must_be_positive(self):
        with pytest.raises(ValidationError, match="heartbeat_every"):
            _server(heartbeat_every=0.0)
        with pytest.raises(ValidationError, match="heartbeat_every"):
            _server(heartbeat_every=-1.0)
