"""Private two-stage least squares: standalone estimator and IV serving.

Covers the IV client of the moment-bundle refactor end to end:

* **Utility gate** — at ``ε → ∞`` (noise effectively zero) a ``K = 1``
  served ``PrivIncIV`` lands within ``1e-3`` of the plain (non-private)
  2SLS answer; post-hoc refreshes are pure post-processing, so the gate
  polishes the stage-2 optimization error away before measuring.
* **Serving equivalence** — the three-entry (zz, zx, zy) bundle merges
  bit-identically across the thread / process / tcp transports under one
  seed, the ``K = 1`` exact-tier server matches the standalone estimator
  bit for bit at matched solve cadence, and the merged slots replay from
  the documented rng discipline (children ``3i .. 3i+2`` of
  ``spawn(3K)``).
* **Domain and identification validation** — the backend's knob rules and
  ``instruments ≥ dim``.

Honors the CI serving-matrix axes ``SERVE_SHARDS`` / ``SERVE_TRANSPORT``
like the other serving suites (the ``SERVE_BACKEND=iv`` legs run this
file across every transport).
"""

import os

import numpy as np
import pytest

from repro import (
    L2Ball,
    PrivacyParams,
    PrivIncIV,
    ShardedStream,
    merge_released,
    two_stage_least_squares,
)
from repro.data import make_iv_stream
from repro.exceptions import (
    DomainViolationError,
    StreamExhaustedError,
    ValidationError,
)
from repro.privacy import bundle_budgets, make_release_mechanism, shard_budgets

PARAMS = PrivacyParams(4.0, 1e-6)
#: Effectively noiseless — the utility-gate budget.
HUGE_EPS = PrivacyParams(1e9, 0.5)
DIM = 2
INSTRUMENTS = 3
T = 24
BLOCKS = [(0, 4), (4, 8), (8, 12), (12, 16), (16, 20), (20, 24)]

if "SERVE_SHARDS" in os.environ:
    SHARD_COUNTS = [int(os.environ["SERVE_SHARDS"])]
else:
    SHARD_COUNTS = [1, 2, 4]

TRANSPORT = os.environ.get("SERVE_TRANSPORT", "thread")


@pytest.fixture(scope="module")
def iv_stream():
    return make_iv_stream(
        T, DIM, INSTRUMENTS, instrument_strength=0.9, endogeneity=0.5,
        noise_std=0.02, rng=5,
    )


def _server(k, seed, params=PARAMS, **kwargs):
    defaults = dict(
        horizon=T,
        backend="iv",
        instruments=INSTRUMENTS,
        iteration_cap=20,
        transport=TRANSPORT,
    )
    defaults.update(kwargs)
    return ShardedStream(L2Ball(DIM), params, shards=k, rng=seed, **defaults)


def _feed(server, iv_stream, blocks=BLOCKS):
    stacked = iv_stream.stacked()
    for s, e in blocks:
        server.observe_batch(stacked[s:e], iv_stream.ys[s:e])


# ---------------------------------------------------------------------------
# Standalone estimator
# ---------------------------------------------------------------------------


class TestPrivIncIVStandalone:
    def test_eps_inf_matches_plain_2sls_within_1e_3(self, iv_stream):
        """ISSUE acceptance: ε→∞ PrivIncIV ≡ non-private 2SLS to 1e-3."""
        mech = PrivIncIV(
            horizon=T, constraint=L2Ball(DIM), instruments=INSTRUMENTS,
            params=HUGE_EPS, rng=0,
        )
        mech.observe_batch(iv_stream.zs, iv_stream.xs, iv_stream.ys)
        for _ in range(40):  # post-processing polish of the PGD error
            estimate = mech.refresh()
        reference = two_stage_least_squares(iv_stream.zs, iv_stream.xs, iv_stream.ys)
        assert np.linalg.norm(estimate - reference) < 1e-3

    def test_observe_matches_observe_batch_bit_for_bit(self, iv_stream):
        one = PrivIncIV(
            horizon=T, constraint=L2Ball(DIM), instruments=INSTRUMENTS,
            params=PARAMS, rng=3,
        )
        batched = PrivIncIV(
            horizon=T, constraint=L2Ball(DIM), instruments=INSTRUMENTS,
            params=PARAMS, rng=3,
        )
        for t in range(T):
            sequential = one.observe(iv_stream.zs[t], iv_stream.xs[t], iv_stream.ys[t])
        final = batched.observe_batch(iv_stream.zs, iv_stream.xs, iv_stream.ys)
        np.testing.assert_array_equal(sequential, final)

    def test_accountant_charges_three_thirds(self):
        mech = PrivIncIV(
            horizon=T, constraint=L2Ball(DIM), instruments=INSTRUMENTS,
            params=PARAMS, rng=0,
        )
        charges = {charge.label: charge.params for charge in mech.accountant.charges}
        thirds = bundle_budgets(PARAMS, (1.0, 1.0, 1.0))
        assert charges["tree:zz-moments"] == thirds[0]
        assert charges["tree:zx-moments"] == thirds[1]
        assert charges["tree:zy-moments"] == thirds[2]
        assert mech.accountant.spent() == PARAMS

    def test_under_identified_rejected(self):
        with pytest.raises(ValidationError, match="instruments"):
            PrivIncIV(
                horizon=T, constraint=L2Ball(5), instruments=3,
                params=PARAMS, rng=0,
            )

    def test_domain_violation_rejected(self, iv_stream):
        mech = PrivIncIV(
            horizon=T, constraint=L2Ball(DIM), instruments=INSTRUMENTS,
            params=PARAMS, rng=0,
        )
        with pytest.raises(DomainViolationError):
            mech.observe(2.0 * np.ones(INSTRUMENTS), iv_stream.xs[0], 0.5)

    def test_block_past_horizon_is_refused_and_consumes_nothing(self, iv_stream):
        """Past the horizon PrivIncIV raises the documented
        StreamExhaustedError, like every other estimator, and the refused
        block leaves the step counter and every bundle entry untouched."""
        mech = PrivIncIV(
            horizon=T, constraint=L2Ball(DIM), instruments=INSTRUMENTS,
            params=PARAMS, rng=0,
        )
        mech.observe_batch(iv_stream.zs[:-2], iv_stream.xs[:-2], iv_stream.ys[:-2])
        before = [record.value for record in mech._moments.released()]
        with pytest.raises(StreamExhaustedError):
            mech.observe_batch(iv_stream.zs[:3], iv_stream.xs[:3], iv_stream.ys[:3])
        assert mech.steps_taken == T - 2
        for record, value in zip(mech._moments.released(), before):
            assert record.steps == T - 2
            np.testing.assert_array_equal(record.value, value)
        # The two points that still fit are accepted afterwards.
        mech.observe_batch(iv_stream.zs[-2:], iv_stream.xs[-2:], iv_stream.ys[-2:])
        assert mech.steps_taken == T

    def test_stage1_pgd_variant_runs(self, iv_stream):
        mech = PrivIncIV(
            horizon=T, constraint=L2Ball(DIM), instruments=INSTRUMENTS,
            params=PARAMS, stage1="pgd", rng=0,
        )
        estimate = mech.observe_batch(iv_stream.zs, iv_stream.xs, iv_stream.ys)
        assert estimate.shape == (DIM,)
        assert np.all(np.isfinite(estimate))
        assert np.linalg.norm(estimate) <= 1.0 + 1e-9

    def test_refresh_is_pure_post_processing(self, iv_stream):
        """Refreshing never touches the trees or the accountant."""
        mech = PrivIncIV(
            horizon=T, constraint=L2Ball(DIM), instruments=INSTRUMENTS,
            params=PARAMS, rng=0,
        )
        mech.observe_batch(iv_stream.zs, iv_stream.xs, iv_stream.ys)
        spent = mech.accountant.spent()
        zz_before = mech._moments.get("zz").current_sum().copy()
        version = mech.estimate_version
        mech.refresh()
        assert mech.accountant.spent() == spent
        np.testing.assert_array_equal(mech._moments.get("zz").current_sum(), zz_before)
        assert mech.estimate_version == version + 1

    def test_memory_floats_positive_and_refresh_requires_data(self):
        mech = PrivIncIV(
            horizon=T, constraint=L2Ball(DIM), instruments=INSTRUMENTS,
            params=PARAMS, rng=0,
        )
        assert mech.memory_floats() > 0
        with pytest.raises(ValidationError):
            mech.refresh()


def _nan_at(block, index):
    block = block.copy()
    block[index] = np.nan
    return block


def _scaled_row(block, factor):
    block = block.copy()
    block[0] *= factor
    return block


#: One refused (zs, xs, ys) block per case, built from a valid 4-point
#: block, with the error ``observe_batch`` must raise.
BAD_IV_BLOCKS = {
    "z-one-dimensional": (lambda z, x, y: (z[0], x, y), ValidationError),
    "z-too-narrow": (lambda z, x, y: (z[:, :-1], x, y), ValidationError),
    "x-one-dimensional": (lambda z, x, y: (z, x[0], y), ValidationError),
    "x-too-wide": (lambda z, x, y: (z, np.hstack([x, x[:, :1]]), y), ValidationError),
    "z-fewer-rows": (lambda z, x, y: (z[:3], x, y), ValidationError),
    "x-fewer-rows": (lambda z, x, y: (z, x[:3], y), ValidationError),
    "y-fewer-rows": (lambda z, x, y: (z, x, y[:3]), ValidationError),
    "y-column": (lambda z, x, y: (z, x, y[:, None]), ValidationError),
    "empty": (lambda z, x, y: (z[:0], x[:0], y[:0]), ValidationError),
    "z-nan": (lambda z, x, y: (_nan_at(z, (1, 0)), x, y), ValidationError),
    "x-nan": (lambda z, x, y: (z, _nan_at(x, (2, 1)), y), ValidationError),
    "y-nan": (lambda z, x, y: (z, x, _nan_at(y, 3)), ValidationError),
    "z-norm-above-one": (lambda z, x, y: (_scaled_row(z, 5.0), x, y), DomainViolationError),
    "x-norm-above-one": (lambda z, x, y: (z, _scaled_row(x, 5.0), y), DomainViolationError),
    "y-above-one": (lambda z, x, y: (z, x, _scaled_row(y, 5.0) + 2.0), DomainViolationError),
}


class TestPrivIncIVBlockChecks:
    """``observe_batch`` checks Z and X each against the same responses,
    then the unit domain: every malformed block is refused before any
    tree is touched, so the next valid block releases exactly what it
    would have released on a fresh estimator."""

    @staticmethod
    def _fresh():
        return PrivIncIV(
            horizon=T, constraint=L2Ball(DIM), instruments=INSTRUMENTS,
            params=PARAMS, rng=0,
        )

    @pytest.mark.parametrize("case", list(BAD_IV_BLOCKS))
    def test_malformed_block_is_refused_and_consumes_nothing(self, iv_stream, case):
        build, error = BAD_IV_BLOCKS[case]
        zs, xs, ys = iv_stream.zs[:4], iv_stream.xs[:4], iv_stream.ys[:4]
        mech = self._fresh()
        with pytest.raises(error):
            mech.observe_batch(*build(zs, xs, ys))
        assert mech.steps_taken == 0
        np.testing.assert_array_equal(
            mech.observe_batch(zs, xs, ys), self._fresh().observe_batch(zs, xs, ys)
        )

    def test_nested_lists_are_accepted_like_arrays(self, iv_stream):
        zs, xs, ys = iv_stream.zs[:4], iv_stream.xs[:4], iv_stream.ys[:4]
        np.testing.assert_array_equal(
            self._fresh().observe_batch(zs.tolist(), xs.tolist(), ys.tolist()),
            self._fresh().observe_batch(zs, xs, ys),
        )


# ---------------------------------------------------------------------------
# Served IV
# ---------------------------------------------------------------------------


class TestServedIV:
    def test_eps_inf_k1_served_matches_plain_2sls(self, iv_stream):
        """The serving-side utility gate: merged bundle → 2SLS to 1e-3."""
        server = _server(1, seed=0, params=HUGE_EPS)
        try:
            _feed(server, iv_stream)
            bundle = server.merged_bundle()
            for _ in range(40):
                estimate = server.solver.refresh_from_bundle(float(T), bundle)
        finally:
            server.close()
        reference = two_stage_least_squares(iv_stream.zs, iv_stream.xs, iv_stream.ys)
        assert np.linalg.norm(estimate - reference) < 1e-3

    def test_k1_exact_matches_standalone_bit_for_bit(self, iv_stream):
        """Matched cadence ⇒ the served path replays the standalone one."""
        server = _server(1, seed=9, ingest="exact", refresh_every=4, iteration_cap=12)
        plain = PrivIncIV(
            horizon=T, constraint=L2Ball(DIM), instruments=INSTRUMENTS,
            params=PARAMS, iteration_cap=12, solve_every=4, rng=9,
        )
        stacked = iv_stream.stacked()
        try:
            for s, e in BLOCKS:
                served = server.observe_batch(stacked[s:e], iv_stream.ys[s:e])
                reference = plain.observe_batch(
                    iv_stream.zs[s:e], iv_stream.xs[s:e], iv_stream.ys[s:e]
                )
                np.testing.assert_array_equal(served, reference)
        finally:
            server.close()

    @pytest.mark.parametrize("k", SHARD_COUNTS)
    def test_merged_bundle_bit_identical_to_replay(self, iv_stream, k):
        """The documented rng discipline: children ``3i..3i+2`` of spawn(3K)."""
        seed = 13
        server = _server(k, seed=seed)
        try:
            _feed(server, iv_stream)
            merged = server.merged_bundle()
        finally:
            server.close()

        front = np.random.default_rng(seed)
        children = front.spawn(3 * k)
        budget = shard_budgets(PARAMS, k, composition="parallel")[0]
        thirds = bundle_budgets(budget, (1.0, 1.0, 1.0))
        shapes = {
            "zz": (INSTRUMENTS, INSTRUMENTS),
            "zx": (INSTRUMENTS, DIM),
            "zy": (INSTRUMENTS,),
        }
        replay = {
            name: [
                make_release_mechanism(
                    shape=shapes[name],
                    l2_sensitivity=2.0,
                    params=thirds[slot],
                    rng=children[3 * i + slot],
                    mechanism="tree",
                    horizon=T,
                )
                for i in range(k)
            ]
            for slot, name in enumerate(("zz", "zx", "zy"))
        }
        for block_index, (s, e) in enumerate(BLOCKS):
            shard = block_index % k
            z, x, y = iv_stream.zs[s:e], iv_stream.xs[s:e], iv_stream.ys[s:e]
            replay["zz"][shard].advance_batch(z[:, :, None] * z[:, None, :])
            replay["zx"][shard].advance_batch(z[:, :, None] * x[:, None, :])
            replay["zy"][shard].advance_batch(z * y[:, None])
        for name in ("zz", "zx", "zy"):
            np.testing.assert_array_equal(
                merged[name].value, merge_released(
                    [m.released_moments() for m in replay[name]]
                ).value
            )
            assert merged[name].covered_steps == T

    def test_thread_process_tcp_bundles_bit_identical(self, iv_stream):
        """ISSUE acceptance: same seed ⇒ same merged bundle, every transport."""
        results = {}
        for transport in ("thread", "process", "tcp"):
            server = _server(2, seed=55, transport=transport)
            try:
                _feed(server, iv_stream)
                served = server.flush()
                bundle = {
                    name: (np.array(handle.value, dtype=float), handle.covered_steps)
                    for name, handle in server.merged_bundle().items()
                }
                results[transport] = (served, bundle)
            finally:
                server.close()
        reference_served, reference_bundle = results["thread"]
        for transport in ("process", "tcp"):
            served, bundle = results[transport]
            np.testing.assert_array_equal(served.theta, reference_served.theta)
            assert set(bundle) == {"zz", "zx", "zy"}
            for name in reference_bundle:
                np.testing.assert_array_equal(bundle[name][0], reference_bundle[name][0])
                assert bundle[name][1] == reference_bundle[name][1]

    def test_fast_tier_covers_and_stays_close(self, iv_stream):
        """``ingest="fast"`` covers the stream; distributional, not exact."""
        server = _server(2, seed=7, ingest="fast", params=HUGE_EPS)
        try:
            _feed(server, iv_stream)
            merged = server.merged_bundle()
            np.testing.assert_allclose(
                merged["zz"].value, iv_stream.zs.T @ iv_stream.zs, atol=1e-5
            )
            assert merged["zy"].covered_steps == T
        finally:
            server.close()


class TestIVValidation:
    def test_iv_requires_instruments(self):
        with pytest.raises(ValidationError, match="instruments"):
            ShardedStream(L2Ball(DIM), PARAMS, shards=1, horizon=T, backend="iv")

    def test_non_iv_refuses_instruments(self):
        with pytest.raises(ValidationError, match="instruments"):
            ShardedStream(
                L2Ball(DIM), PARAMS, shards=1, horizon=T, instruments=3
            )

    def test_iv_refuses_nonstationary_knobs(self):
        for knob in (dict(decay=0.9), dict(window=8)):
            with pytest.raises(ValidationError):
                ShardedStream(
                    L2Ball(DIM), PARAMS, shards=1, horizon=T, backend="iv",
                    instruments=INSTRUMENTS, **knob,
                )

    def test_iv_refuses_projection_knobs(self):
        with pytest.raises(ValidationError):
            ShardedStream(
                L2Ball(DIM), PARAMS, shards=1, horizon=T, backend="iv",
                instruments=INSTRUMENTS, projected_dim=2,
            )

    def test_block_width_checked(self, iv_stream):
        server = _server(1, seed=1)
        try:
            with pytest.raises(ValidationError):
                server.observe_batch(iv_stream.xs, iv_stream.ys)  # missing z part
        finally:
            server.close()

    def test_instrument_norm_checked(self, iv_stream):
        server = _server(1, seed=1)
        stacked = iv_stream.stacked()[:4].copy()
        stacked[0, :INSTRUMENTS] *= 3.0  # ‖z‖ > 1
        try:
            with pytest.raises(DomainViolationError):
                server.observe_batch(stacked, iv_stream.ys[:4])
        finally:
            server.close()
