"""Multi-tenant (PRIMO) serving conformance suite.

Four contracts, over tenant counts ``k`` (the ``SERVE_TENANTS`` CI axis)
and both shard transports (``SERVE_TRANSPORT``):

(a) **Shared-Gram economy** — the merged Gram release's noise variance is
    *independent of the tenant count* (the ``(d, d)`` statistic is
    privatized once at ``(ε/2, δ/2)`` whatever ``k`` is), while ``k``
    independent single-tenant streams over the same elements must split
    the budget ``k`` ways and pay ``k²`` the per-stream Gram variance.
    The check is analytic (the tree's variance accounting is
    deterministic given seeds and steps), plus an empirical seed sweep.

(b) **Per-tenant correctness** — each tenant's merged cross release is
    bit-identical to a replay of its own trees under the documented rng
    discipline, and each tenant's served estimate matches a solver replay
    over its own merged moments.

(c) **Tenant lifecycle** — adds occupy capacity slots (charged on the
    ledger, refused once full), removes refund them (slot reuse is
    sound: a removed tenant's trees never ingest again), and a
    mid-stream tenant's estimates cover exactly its own window.

(d) **Read-side parity** — every tenant's view exposes the single-tenant
    read surface: lock-free cached reads, per-reader handles, pub-sub,
    version waits.
"""

import dataclasses
import os
import threading

import numpy as np
import pytest

from repro import (
    L2Ball,
    MomentShard,
    MultiTenantStream,
    PrivacyParams,
    PrivIncReg1,
    ServingError,
    ShardedStream,
    TreeMechanism,
    merge_released,
    tenant_budgets,
)
from repro.data import make_dense_stream
from repro.exceptions import (
    DomainViolationError,
    PrivacyBudgetError,
    StreamExhaustedError,
    ValidationError,
)
from repro.privacy.tree import ReleasedMoments, noise_key

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
T = 26
RAGGED_BLOCKS = [(0, 5), (5, 6), (6, 13), (13, 20), (20, 26)]

#: Tenant counts under test (the CI SERVE_TENANTS axis pins 1 and 8).
if "SERVE_TENANTS" in os.environ:
    TENANT_COUNTS = [int(os.environ["SERVE_TENANTS"])]
else:
    TENANT_COUNTS = [1, 4]

#: Shard transport every stream in this suite runs on (the CI axis).
TRANSPORT = os.environ.get("SERVE_TRANSPORT", "thread")


@pytest.fixture(scope="module")
def stream():
    return make_dense_stream(T, DIM, noise_std=0.05, rng=900)


@pytest.fixture(scope="module")
def outcomes():
    """A (T, 8) outcome panel; column j is tenant j's signal, |y| ≤ 1."""
    rng = np.random.default_rng(901)
    return np.clip(rng.normal(scale=0.5, size=(T, 8)), -1.0, 1.0)


def _make_stream(k, seed, shards=2, **kwargs):
    defaults = dict(horizon=T, iteration_cap=20, transport=TRANSPORT)
    defaults.update(kwargs)
    return MultiTenantStream(
        L2Ball(DIM), PARAMS, tenants=k, shards=shards, rng=seed, **defaults
    )


def _assert_same_releases(shard, twin):
    """``shard`` releases ``twin``'s bits, entry by entry in bundle order
    (live handles and remote snapshots alike)."""

    def snapshots(s):
        return [
            h if isinstance(h, ReleasedMoments) else h.released_moments()
            for h in s.released()
        ]

    got, want = snapshots(shard), snapshots(twin)
    assert len(got) == len(want)
    for mine, theirs in zip(got, want):
        assert (mine.steps, mine.noise_variance) == (theirs.steps, theirs.noise_variance)
        np.testing.assert_array_equal(mine.value, theirs.value)


def _feed(server, stream, outcomes, k, blocks=RAGGED_BLOCKS):
    for s, e in blocks:
        server.observe_batch(stream.xs[s:e], outcomes[s:e, :k])


def _replay_tenant_trees(k, seed, shards, blocks, stream, outcomes):
    """Per-shard tenant trees under the documented rng discipline:
    shard i's tenant 0 consumes child 2i of rng.spawn(2*shards) itself,
    tenants 1..k-1 its spawned siblings, and the Gram child 2i+1."""
    children = np.random.default_rng(seed).spawn(2 * shards)
    gram_budget, slots = tenant_budgets(PARAMS, k)
    cross = []
    gram = []
    for i in range(shards):
        base = children[2 * i]
        rngs = (base,) + (tuple(base.spawn(k - 1)) if k > 1 else ())
        cross.append(
            [TreeMechanism(T, (DIM,), 2.0, slots[0], rng=r) for r in rngs]
        )
        gram.append(
            TreeMechanism(T, (DIM, DIM), 2.0, gram_budget, rng=children[2 * i + 1])
        )
    for block_index, (s, e) in enumerate(blocks):
        shard = block_index % shards
        bx = stream.xs[s:e]
        gram[shard].advance_batch(bx[:, :, None] * bx[:, None, :])
        for j in range(k):
            cross[shard][j].advance_batch(outcomes[s:e, j, None] * bx)
    return cross, gram


# ---------------------------------------------------------------------------
# (a) The shared-Gram economy
# ---------------------------------------------------------------------------


class TestSharedGramEconomy:
    @pytest.mark.parametrize("k", TENANT_COUNTS)
    def test_gram_noise_variance_independent_of_tenant_count(
        self, stream, outcomes, k
    ):
        """ISSUE acceptance: the per-tenant Gram variance does not grow
        with k.  Same seed, same elements — the k-tenant stream's merged
        Gram release is *bit-identical* to the 1-tenant stream's (the
        Gram budget is a bare halve(), independent of capacity, and the
        Gram rng child is untouched by the tenant spawns)."""
        multi = _make_stream(k, seed=41)
        single = _make_stream(1, seed=41)
        try:
            _feed(multi, stream, outcomes, k)
            _feed(single, stream, outcomes, 1)
            _, gram_k = multi.merged_moments(multi.tenants()[0])
            _, gram_1 = single.merged_moments("tenant-0")
            np.testing.assert_array_equal(gram_k.value, gram_1.value)
            assert gram_k.noise_variance == gram_1.noise_variance
        finally:
            multi.close()
            single.close()

    @pytest.mark.parametrize("k", [k for k in TENANT_COUNTS if k > 1])
    def test_independent_streams_pay_k_squared_gram_variance(
        self, stream, outcomes, k
    ):
        """The economy the tentpole buys, stated distributionally: serving
        the same k outcome streams as k independent ShardedStreams makes
        every element a member of all k streams, so basic composition
        forces (ε/k, δ/k) per stream — and Gaussian calibration scales
        the per-stream Gram noise variance by ~k² (σ ∝ 1/ε, modulo the
        slowly-varying log(1/δ) factor).  The tenant stream's Gram
        variance stays at the 1-stream level."""
        multi = _make_stream(k, seed=7)
        _feed(multi, stream, outcomes, k)
        _, gram_multi = multi.merged_moments(multi.tenants()[0])
        multi.close()

        split = PrivacyParams(PARAMS.epsilon / k, PARAMS.delta / k)
        independent = ShardedStream(
            L2Ball(DIM), PARAMS, shards=2, horizon=T, rng=7,
            iteration_cap=20,
        )
        taxed = ShardedStream(
            L2Ball(DIM), split, shards=2, horizon=T, rng=7, iteration_cap=20,
        )
        try:
            for s, e in RAGGED_BLOCKS:
                independent.observe_batch(stream.xs[s:e], outcomes[s:e, 0])
                taxed.observe_batch(stream.xs[s:e], outcomes[s:e, 0])
            _, gram_full = independent.merged_moments()
            _, gram_taxed = taxed.merged_moments()
        finally:
            independent.close()
            taxed.close()

        # The tenant stream pays exactly the full-budget single stream's
        # Gram variance...
        assert gram_multi.noise_variance == pytest.approx(
            gram_full.noise_variance
        )
        # ...while each of the k independent streams pays ~k² that (the
        # log(1/δ') factor in σ makes the ratio slightly exceed k²).
        ratio = gram_taxed.noise_variance / gram_full.noise_variance
        assert ratio > k**2
        assert ratio < (k * 1.5) ** 2

    @pytest.mark.parametrize("k", [k for k in TENANT_COUNTS if k > 1])
    def test_empirical_gram_noise_matches_the_k1_distribution(
        self, stream, outcomes, k
    ):
        """Seed sweep: the k-tenant Gram release's empirical noise (release
        minus exact sum) has the variance the accounting reports — the
        same number at k tenants as at 1 — within loose χ² bounds."""
        exact = np.zeros((DIM, DIM))
        for x in stream.xs:
            exact += np.outer(x, x)
        devs = []
        reported = None
        for seed in range(12):
            server = _make_stream(k, seed=seed, shards=2)
            _feed(server, stream, outcomes, k)
            _, gram_m = server.merged_moments(server.tenants()[0])
            devs.append(np.asarray(gram_m.value) - exact)
            reported = gram_m.noise_variance
            server.close()
        sample_var = float(np.mean(np.square(devs)))
        assert sample_var == pytest.approx(reported, rel=0.45)

    @pytest.mark.parametrize("k", TENANT_COUNTS)
    def test_memory_scales_additively_not_multiplicatively(
        self, stream, outcomes, k
    ):
        """Tenant shards hold one Gram tree + k cross trees: memory grows
        like d² + k·d, not k·d² — at DIM=3 that is strictly less than k
        single-tenant fronts for every k > 1."""
        multi = _make_stream(k, seed=5)
        single = _make_stream(1, seed=5)
        try:
            _feed(multi, stream, outcomes, k)
            _feed(single, stream, outcomes, 1)
            per_tenant_extra = multi.memory_floats() - single.memory_floats()
            if k == 1:
                assert per_tenant_extra == 0
            else:
                # Each extra tenant adds (d,) trees only — far below the
                # (d², plus d) a whole extra front would add.
                assert 0 < per_tenant_extra < (k - 1) * single.memory_floats()
        finally:
            multi.close()
            single.close()


# ---------------------------------------------------------------------------
# (b) Per-tenant correctness
# ---------------------------------------------------------------------------


class TestPerTenantCorrectness:
    @pytest.mark.parametrize("k", TENANT_COUNTS)
    def test_merged_releases_bit_identical_to_tenant_replay(
        self, stream, outcomes, k
    ):
        shards = 2
        server = _make_stream(k, seed=13, shards=shards)
        try:
            _feed(server, stream, outcomes, k)
            cross_trees, gram_trees = _replay_tenant_trees(
                k, 13, shards, RAGGED_BLOCKS, stream, outcomes
            )
            for j, name in enumerate(server.tenants()):
                cross_m, gram_m = server.merged_moments(name)
                np.testing.assert_array_equal(
                    cross_m.value,
                    merge_released([cross_trees[i][j] for i in range(shards)]).value,
                )
                np.testing.assert_array_equal(
                    gram_m.value, merge_released(gram_trees).value
                )
                assert cross_m.covered_steps == T
        finally:
            server.close()

    @pytest.mark.parametrize("k", TENANT_COUNTS)
    def test_served_estimates_match_solver_replay(self, stream, outcomes, k):
        """Tenant j's served theta == a plain PrivIncReg1 refresh over
        tenant j's merged moments (one solve at T, so the twin's single
        warm-start solve matches the stream's)."""
        server = _make_stream(k, seed=29, refresh_every=T)
        try:
            _feed(server, stream, outcomes, k)
            served = server.flush()
            for name in server.tenants():
                twin = PrivIncReg1(
                    horizon=T,
                    constraint=L2Ball(DIM),
                    params=PARAMS,
                    iteration_cap=20,
                    rng=0,
                )
                cross_m, gram_m = server.merged_moments(name)
                theta = twin.refresh_from_released(
                    T, gram_m.value, cross_m.value
                )
                np.testing.assert_array_equal(served[name].theta, theta)
        finally:
            server.close()

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_grouped_solves_match_solver_replay(self, stream, transport):
        """8 tenants in two γ groups solve as two lockstep PGDs, and a
        tenant added mid-stream (its own covered weight) alone; every
        tenant's served θ after every refresh == a standalone PrivIncReg1
        replaying the same refreshes over its merged moments.  The 0.3
        ball makes projections fire."""
        ys = np.clip(
            np.random.default_rng(902).normal(scale=0.8, size=(T, 9)), -1.0, 1.0
        )
        radius = 0.3
        server = MultiTenantStream(
            L2Ball(DIM, radius), PARAMS, tenants=8, shards=2, horizon=T,
            tenant_capacity=9, decays=(1.0, 0.9), tenant_decays=(1.0, 0.9) * 4,
            refresh_every=1, iteration_cap=20, transport=transport, rng=31,
        )
        twins = {}
        norms = []
        try:
            for s, e in RAGGED_BLOCKS:
                if s == 13:
                    server.add_tenant("late")
                server.observe_batch(stream.xs[s:e], ys[s:e, : len(server.tenants())])
                for name in server.tenants():
                    twin = twins.setdefault(name, PrivIncReg1(
                        horizon=T, constraint=L2Ball(DIM, radius), params=PARAMS,
                        iteration_cap=20, rng=0,
                    ))
                    cross_m, gram_m = server.merged_moments(name)
                    weight, covered = cross_m.covered_weight, cross_m.covered_steps
                    gram = gram_m.value
                    if weight != gram_m.covered_weight:
                        gram = gram * (weight / gram_m.covered_weight)
                    t = weight if weight != covered else covered
                    theta = twin.refresh_from_released(t, gram, cross_m.value)
                    served = server.tenant(name).current_served()
                    assert served.version == twin.estimate_version
                    np.testing.assert_array_equal(served.theta, theta)
                    norms.append(np.linalg.norm(theta))
            assert server.tenant("late").current_served().covered_steps == T - 13
            assert max(norms) > 0.9 * radius
        finally:
            server.close()

    def test_failed_refresh_publishes_no_tenant(self, stream, monkeypatch):
        """A solve that raises (a non-finite merged cross of the last
        tenant) publishes nobody, moves no solver and leaves the stream
        stale; once the fault is gone the next flush publishes every
        tenant the θ bytes and version of a twin front that never
        failed."""
        k = 8

        def front():
            return MultiTenantStream(
                L2Ball(DIM), PARAMS, tenants=k, shards=2, horizon=T,
                decays=(1.0, 0.9), tenant_decays=(1.0, 0.9) * 4,
                refresh_every=T, iteration_cap=20, transport=TRANSPORT, rng=37,
            )

        server, twin = front(), front()
        ys = np.clip(
            np.random.default_rng(903).normal(scale=0.5, size=(T, k)), -1.0, 1.0
        )
        try:
            twin.observe_batch(stream.xs[:20], ys[:20])
            unfailed = twin.flush()
            server.observe_batch(stream.xs[:20], ys[:20])
            names = server.tenants()
            versions = {name: server.tenant(name).current_served().version for name in names}
            merge = server._merge

            def poisoned():
                merged = merge()
                entry = server._layout.reads(names[-1])["cross"]
                value = merged[entry].value.copy()
                value[0] = np.nan
                merged[entry] = dataclasses.replace(merged[entry], value=value)
                return merged

            monkeypatch.setattr(server, "_merge", poisoned)
            with pytest.raises(ValidationError):
                server.flush()
            assert {
                name: server.tenant(name).current_served().version for name in names
            } == versions
            monkeypatch.setattr(server, "_merge", merge)
            served = server.flush()
            for name in names:
                assert served[name].version == unfailed[name].version > versions[name]
                assert served[name].theta.tobytes() == unfailed[name].theta.tobytes()
                assert served[name].covered_steps == 20
        finally:
            twin.close()
            server.close()

    @pytest.mark.parametrize("k", TENANT_COUNTS)
    def test_fast_tier_matches_exact_statistics(self, stream, outcomes, k):
        """ingest='fast' keeps the exact block sums (only the noise stream
        differs) and the identical variance accounting."""
        fast = _make_stream(k, seed=3, ingest="fast")
        exact = _make_stream(k, seed=3, ingest="exact")
        try:
            _feed(fast, stream, outcomes, k)
            _feed(exact, stream, outcomes, k)
            for name in fast.tenants():
                cf, gf = fast.merged_moments(name)
                ce, ge = exact.merged_moments(name)
                assert cf.covered_steps == ce.covered_steps == T
                assert cf.noise_variance == pytest.approx(ce.noise_variance)
                assert gf.noise_variance == pytest.approx(ge.noise_variance)
        finally:
            fast.close()
            exact.close()

    @pytest.mark.parametrize("k", TENANT_COUNTS)
    def test_process_transport_equivalent_to_thread(self, stream, outcomes, k):
        """Both transports build the same mechanisms from the same rng
        children, so merged releases and served estimates agree bit for
        bit (the suite may already be running one of the two via the env
        axis; this test pins both explicitly)."""
        thread = _make_stream(k, seed=11, transport="thread")
        proc = _make_stream(k, seed=11, transport="process")
        try:
            _feed(thread, stream, outcomes, k)
            _feed(proc, stream, outcomes, k)
            served_t = thread.flush()
            served_p = proc.flush()
            for name in thread.tenants():
                ct, gt = thread.merged_moments(name)
                cp, gp = proc.merged_moments(name)
                np.testing.assert_array_equal(ct.value, cp.value)
                np.testing.assert_array_equal(gt.value, gp.value)
                np.testing.assert_array_equal(
                    served_t[name].theta, served_p[name].theta
                )
        finally:
            thread.close()
            proc.close()

    def test_kill_shard_degrades_every_tenant_at_once(self, stream, outcomes):
        server = _make_stream(2, seed=17, shards=2)
        try:
            server.observe_batch(stream.xs[0:5], outcomes[0:5, :2])
            server.observe_batch(stream.xs[5:6], outcomes[5:6, :2])
            server.kill_shard(1)
            assert server.lost_steps == 1
            server.observe_batch(stream.xs[6:13], outcomes[6:13, :2])
            served = server.flush()
            for name in server.tenants():
                assert served[name].covered_steps == 12  # 13 ingested − 1 lost
                cross_m, _ = server.merged_moments(name)
                assert cross_m.missing == (1,)
        finally:
            server.close()


# ---------------------------------------------------------------------------
# (c) Tenant lifecycle
# ---------------------------------------------------------------------------


class TestTenantLifecycle:
    def test_add_charges_and_remove_refunds_the_ledger(self, stream, outcomes):
        server = _make_stream(
            ["a", "b"], seed=23, tenant_capacity=4
        )
        try:
            charges = len(server.accountant.charges)
            spent_before = server.accountant.spent()
            server.add_tenant("c")
            assert len(server.accountant.charges) == charges + 1
            assert server.accountant.spent().epsilon > spent_before.epsilon
            server.remove_tenant("c")
            assert len(server.accountant.charges) == charges
            assert server.accountant.spent().epsilon == pytest.approx(
                spent_before.epsilon
            )
            assert server.accountant.within_budget()
        finally:
            server.close()

    def test_full_slots_refuse_adds_until_a_refund(self, stream, outcomes):
        server = _make_stream(2, seed=23)  # capacity defaults to 2
        try:
            with pytest.raises(PrivacyBudgetError):
                server.add_tenant("late")
            server.remove_tenant("tenant-0")
            server.add_tenant("late")  # the refunded slot is reusable
            assert server.tenants() == ("tenant-1", "late")
        finally:
            server.close()

    def test_duplicate_and_unknown_tenants_rejected(self, stream, outcomes):
        server = _make_stream(["a"], seed=23, tenant_capacity=2)
        try:
            with pytest.raises(ValidationError):
                server.add_tenant("a")
            with pytest.raises(ValidationError):
                server.remove_tenant("ghost")
            with pytest.raises(ValidationError):
                server.tenant("ghost")
            with pytest.raises(ValidationError):
                server.merged_moments("ghost")
            with pytest.raises(ValidationError):
                server.add_tenant("")
        finally:
            server.close()

    def test_mid_stream_tenant_covers_only_its_own_window(
        self, stream, outcomes
    ):
        server = _make_stream(["a"], seed=31, tenant_capacity=2)
        try:
            server.observe_batch(stream.xs[:13], outcomes[:13, 0])
            server.add_tenant("b")
            server.observe_batch(stream.xs[13:26], outcomes[13:26, :2])
            served = server.flush()
            assert served["a"].covered_steps == 26
            assert served["b"].covered_steps == 13
            # b's solve used the Gram rescaled to its own window; its
            # estimate is a real solve, not a stale initial publish.
            assert served["b"].version >= 1
        finally:
            server.close()

    @pytest.mark.parametrize(
        "decays, ingest",
        [((1.0,), "exact"), ((1.0, 0.9), "exact"), ((1.0, 0.9), "fast")],
    )
    def test_mid_stream_tenant_solves_on_the_gram_rescaled_to_its_window(
        self, stream, outcomes, decays, ingest
    ):
        """A late tenant's solve reads the shared Gram rescaled to its own
        covered weight, and its own weight as the logical sample count."""
        server = _make_stream(
            ["a"], seed=31, tenant_capacity=2, refresh_every=T,
            decays=decays, ingest=ingest,
        )
        try:
            server.observe_batch(stream.xs[:13], outcomes[:13, 0])
            server.add_tenant("b", decay=decays[-1])
            server.observe_batch(stream.xs[13:26], outcomes[13:26, :2])
            served = server.flush()["b"]
            cross, gram = server.merged_moments("b")
        finally:
            server.close()
        w_b, w_gram = cross.covered_weight, gram.covered_weight
        assert cross.covered_steps == served.covered_steps == 13
        assert w_b != w_gram  # the rescale is live, not a factor of 1.0
        t = w_b if w_b != cross.covered_steps else cross.covered_steps
        replay = PrivIncReg1(
            horizon=T, constraint=L2Ball(DIM), params=PARAMS,
            iteration_cap=20, rng=0,
        )
        expected = replay.refresh_from_released(
            t, gram.value * (w_b / w_gram), cross.value
        )
        np.testing.assert_array_equal(served.theta, expected)

    def test_mid_stream_add_matches_across_transports(self, stream, outcomes):
        results = {}
        for transport in ("thread", "process"):
            server = _make_stream(
                ["a"], seed=37, tenant_capacity=2, transport=transport
            )
            try:
                server.observe_batch(stream.xs[:13], outcomes[:13, 0])
                server.add_tenant("b")
                server.observe_batch(stream.xs[13:26], outcomes[13:26, :2])
                results[transport] = server.flush()
            finally:
                server.close()
        for name in ("a", "b"):
            np.testing.assert_array_equal(
                results["thread"][name].theta, results["process"][name].theta
            )

    def test_removed_tenant_view_stays_readable_but_frozen(
        self, stream, outcomes
    ):
        server = _make_stream(["a", "b"], seed=23)
        try:
            server.observe_batch(stream.xs[:13], outcomes[:13, :2])
            view = server.tenant("b")
            frozen = view.current_served()
            server.remove_tenant("b")
            assert view.current_served() is frozen  # cache survives removal
            with pytest.raises(ServingError):
                view.wait_for_version(frozen.version + 1, timeout=5.0)
            server.observe_batch(stream.xs[13:26], outcomes[13:26, 0])
            assert view.current_served() is frozen  # no further publishes
        finally:
            server.close()

    def test_removing_every_tenant_parks_the_stream(self, stream, outcomes):
        server = _make_stream(["a"], seed=23)
        try:
            server.observe_batch(stream.xs[:5], outcomes[:5, 0])
            server.remove_tenant("a")
            assert server.tenants() == ()
            with pytest.raises(ServingError):
                server.observe_batch(stream.xs[5:6], outcomes[5:6, 0])
            server.add_tenant("reborn")
            server.observe_batch(stream.xs[5:13], outcomes[5:13, 0])
            assert server.flush()["reborn"].covered_steps == 8
        finally:
            server.close()


# ---------------------------------------------------------------------------
# (d) Read-side parity + validation
# ---------------------------------------------------------------------------


class TestTenantReads:
    def test_reader_subscribe_and_wait_work_per_tenant(self, stream, outcomes):
        server = _make_stream(["a", "b"], seed=43, refresh_every=T)
        try:
            view_a = server.tenant("a")
            view_b = server.tenant("b")
            seen_a = []
            sub = view_a.subscribe(lambda entry: seen_a.append(entry.version))
            reader = view_b.reader()

            waited = {}

            def waiter():
                waited["entry"] = view_b.wait_for_version(1, timeout=10.0)

            thread = threading.Thread(target=waiter)
            thread.start()
            _feed(server, stream, outcomes, 2)
            server.flush()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert waited["entry"].version >= 1
            assert seen_a and seen_a[-1] >= 1
            assert reader.current().covered_steps == T
            assert view_b.read_stats().reads >= 1
            sub.unsubscribe()
            reader.close()
        finally:
            server.close()

    def test_views_are_cached_and_independent(self, stream, outcomes):
        server = _make_stream(["a", "b"], seed=43)
        try:
            assert server.tenant("a") is server.tenant("a")
            server.observe_batch(stream.xs[:5], outcomes[:5, :2])
            a = server.tenant("a").current_estimate()
            b = server.tenant("b").current_estimate()
            # Different outcome columns → different solves (same Gram).
            assert not np.array_equal(a, b)
        finally:
            server.close()


class TestTenancyValidation:
    def test_requires_horizon(self):
        with pytest.raises(ValidationError):
            MultiTenantStream(L2Ball(DIM), PARAMS, tenants=2)

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValidationError):
            _make_stream(2, seed=1, ingest="sketchy")
        with pytest.raises(ValidationError):
            _make_stream(2, seed=1, transport="carrier-pigeon")
        with pytest.raises(ValidationError):
            _make_stream(0, seed=1)
        with pytest.raises(ValidationError):
            MultiTenantStream(
                L2Ball(DIM), PARAMS, tenants=["a", "a"], horizon=T
            )
        with pytest.raises(ValidationError):
            _make_stream(4, seed=1, tenant_capacity=2)  # below tenant count
        # A bare name is not a tenant list (it would iterate per character),
        # and a non-integer, non-iterable value is neither a count nor names.
        for bad in ("alice", True, 2.0, None):
            with pytest.raises(ValidationError, match="tenants"):
                _make_stream(bad, seed=1)
        # The other sequence knobs refuse a scalar or a string the same way.
        for knob, bad in (("decays", 0.9), ("decays", "0.9"), ("tenant_decays", 1.0)):
            with pytest.raises(ValidationError, match=knob):
                _make_stream(2, seed=1, **{knob: bad})
        for bad in ([], "127.0.0.1:7000"):
            with pytest.raises(ValidationError, match="addresses"):
                _make_stream(2, seed=1, transport="tcp", addresses=bad)
        with pytest.raises(ValidationError, match="fidelity"):
            _make_stream(2, seed=1, fidelity="x")

    def test_rejects_bad_outcome_blocks(self, stream, outcomes):
        server = _make_stream(2, seed=1)
        try:
            with pytest.raises(ValidationError):
                server.observe_batch(stream.xs[:4], outcomes[:4, 0])  # (n,) at k=2
            with pytest.raises(ValidationError):
                server.observe_batch(stream.xs[:4], outcomes[:5, :2])
            with pytest.raises(ValidationError):
                server.observe_batch(stream.xs[:4], outcomes[:4, :3])
            with pytest.raises(DomainViolationError):
                server.observe_batch(
                    stream.xs[:4], np.full((4, 2), 1.5)  # |y| > 1
                )
            with pytest.raises(ValidationError):
                bad = outcomes[:4, :2].copy()
                bad[0, 1] = np.nan
                server.observe_batch(stream.xs[:4], bad)
            assert server.steps_ingested == 0 == server.steps_enqueued
        finally:
            server.close()

    def test_horizon_enforced_atomically(self, stream, outcomes):
        server = _make_stream(2, seed=1)
        try:
            _feed(server, stream, outcomes, 2)
            with pytest.raises(StreamExhaustedError):
                server.observe(stream.xs[0], outcomes[0, :2])
            assert server.steps_ingested == T
        finally:
            server.close()

    def test_observe_accepts_scalar_outcome_for_one_tenant(
        self, stream, outcomes
    ):
        server = _make_stream(1, seed=1)
        try:
            server.observe(stream.xs[0], float(outcomes[0, 0]))
            server.observe(stream.xs[1], outcomes[1, :1])
            assert server.steps_ingested == 2
        finally:
            server.close()

    def test_tenant_shard_rejects_bad_construction(self):
        keys = tuple(noise_key(r) for r in np.random.default_rng(0).spawn(2))
        gram_key = noise_key(np.random.default_rng(1))
        with pytest.raises(ValidationError):
            MomentShard(0, DIM, PARAMS, np.array(keys + (gram_key,)),
                        config=dict(tenants=("a", "a")), shard_horizon=T)
        with pytest.raises(ValidationError):
            MomentShard(0, DIM, PARAMS, np.array(keys + (gram_key,)),
                        config=dict(tenants=()), shard_horizon=T)
        with pytest.raises(ValidationError):
            MomentShard(0, DIM, PARAMS, np.array(keys[:1] + (gram_key,)),
                        config=dict(tenants=("a", "b")), shard_horizon=T)
        with pytest.raises(ValidationError):
            MomentShard(0, DIM, PARAMS, np.array(keys + (gram_key,)),
                        config=dict(tenants=("a", "b")),
                        mechanism="hybrid", shard_horizon=T)
        with pytest.raises(ValidationError):
            MomentShard(0, DIM, PARAMS, np.array(keys + (gram_key,)),
                        config=dict(tenants=("a", "b"), tenant_capacity=1),
                        shard_horizon=T)

    def test_tenant_shard_block_atomicity_on_overflow(self, stream, outcomes):
        """A block overflowing the shared Gram's capacity consumes nothing
        in ANY tree (the Gram advances first and is never behind, so it
        fails before any cross tree mutates)."""
        shard = MomentShard(
            0, DIM, PARAMS,
            np.array([noise_key(r) for r in np.random.default_rng(0).spawn(2)]
                     + [noise_key(np.random.default_rng(1))]),
            config=dict(tenants=("a", "b")),
            shard_horizon=4,
        )
        shard.ingest(stream.xs[:3], outcomes[:3, :2], False)
        with pytest.raises(StreamExhaustedError):
            shard.ingest(stream.xs[3:6], outcomes[3:6, :2], False)
        assert shard.steps == 3
        assert all(m.steps_taken == 3 for m in shard.released())  # Gram and crosses
        # The refused block is retryable at a fitting size.
        shard.ingest(stream.xs[3:4], outcomes[3:4, :2], False)
        assert shard.steps == 4


# ---------------------------------------------------------------------------
# (e) Shared lifecycle: modes, heartbeats, restarts, routing books
# ---------------------------------------------------------------------------


class TestTenantFrontLifecycle:
    """Tenant fronts run on the same lifecycle as the single-tenant front."""

    @pytest.mark.parametrize("k", TENANT_COUNTS)
    def test_async_flush_equals_sync_flush_bit_for_bit(self, stream, outcomes, k):
        sync = _make_stream(k, seed=47, refresh_every=8)
        lazy = _make_stream(k, seed=47, refresh_every=8, mode="async")
        try:
            _feed(sync, stream, outcomes, k)
            _feed(lazy, stream, outcomes, k)
            served_sync = sync.flush()
            served_async = lazy.flush()
            assert lazy.steps_ingested == sync.steps_ingested == T
            for name in sync.tenants():
                np.testing.assert_array_equal(
                    served_sync[name].theta, served_async[name].theta
                )
                assert served_sync[name].version == served_async[name].version
                cs, gs = sync.merged_moments(name)
                ca, ga = lazy.merged_moments(name)
                np.testing.assert_array_equal(cs.value, ca.value)
                np.testing.assert_array_equal(gs.value, ga.value)
        finally:
            sync.close()
            lazy.close()

    @pytest.mark.parametrize("mode", ["manual", "async"])
    def test_add_tenant_ingests_queued_blocks_under_the_old_tenant_set(
        self, stream, outcomes, mode
    ):
        server = _make_stream(["a"], seed=53, tenant_capacity=2, mode=mode)
        try:
            # Queued with one outcome column each, before "b" exists.
            server.observe_batch(stream.xs[:5], outcomes[:5, 0])
            server.observe_batch(stream.xs[5:13], outcomes[5:13, 0])
            server.add_tenant("b")
            assert server.steps_ingested == 13  # drained before the add
            server.observe_batch(stream.xs[13:26], outcomes[13:26, :2])
            served = server.flush()
            assert served["a"].covered_steps == 26
            assert served["b"].covered_steps == 13
            assert server.blocks_refunded == 0
        finally:
            server.close()

    def test_remove_tenant_ingests_queued_blocks_under_the_old_tenant_set(
        self, stream, outcomes
    ):
        server = _make_stream(["a", "b"], seed=53, mode="manual")
        try:
            server.observe_batch(stream.xs[:13], outcomes[:13, :2])
            server.remove_tenant("b")
            assert server.steps_ingested == 13
            server.observe_batch(stream.xs[13:26], outcomes[13:26, 0])
            assert server.flush()["a"].covered_steps == 26
        finally:
            server.close()

    def test_restart_shard_rebuilds_with_the_current_tenants(self, stream, outcomes):
        # The twin runs in-process, where the restarted shard's layout is
        # readable; the stream under test must release its bits entry by
        # entry, so a restarted worker holding the tenants out of the
        # front's slot order (a's and b's outcomes differ) fails.
        twin = _make_stream(["a"], seed=59, tenant_capacity=3, transport="thread")
        server = _make_stream(["a"], seed=59, tenant_capacity=3)
        try:
            for s in (server, twin):
                s.observe_batch(stream.xs[:5], outcomes[:5, 0])
                s.add_tenant("b")
                s.kill_shard(0)
                s.restart_shard(0)
            assert twin._shards[0].layout.tenants() == server.tenants() == ("a", "b")
            assert server.bundle_names == ("gram:1.0", "cross:a", "cross:b")
            assert server._shards[0].steps == 0  # fresh entries
            for s in (server, twin):
                s.observe_batch(stream.xs[5:13], outcomes[5:13, :2])
                s.observe_batch(stream.xs[13:20], outcomes[13:20, :2])  # shard 0
            _assert_same_releases(server._shards[0], twin._shards[0])
            served = server.flush()
            assert server.lost_steps == 5
            assert served["a"].covered_steps == 20 - 5
            assert served["b"].covered_steps == 15
        finally:
            twin.close()
            server.close()

    def test_heartbeat_auto_restart_recovers_a_killed_process_shard(
        self, stream, outcomes
    ):
        import time

        server = _make_stream(
            2, seed=61, transport="process", request_timeout=5.0,
            heartbeat_every=0.1, restart_policy="auto",
        )
        # An in-process twin restarted by hand: the auto-restarted worker
        # must hold the front's tenants in slot order, so it releases the
        # twin's bits entry by entry.
        twin = _make_stream(2, seed=61, transport="thread")
        try:
            for s in (server, twin):
                s.observe_batch(stream.xs[:5], outcomes[:5, :2])
                s.observe_batch(stream.xs[5:13], outcomes[5:13, :2])
            server._shards[1]._process.kill()  # uncommanded crash
            twin.kill_shard(1)
            twin.restart_shard(1)
            deadline = time.monotonic() + 30.0
            while server.heartbeat_stats()["restarts"] < 1:
                assert time.monotonic() < deadline, server.heartbeat_stats()
                time.sleep(0.05)
            assert server.heartbeat_stats()["deaths_detected"] >= 1
            assert server._shards[1].alive
            assert twin._shards[1].layout.tenants() == server.tenants()
            for s in (server, twin):
                s.observe_batch(stream.xs[13:20], outcomes[13:20, :2])
                s.observe_batch(stream.xs[20:26], outcomes[20:26, :2])  # shard 1
            _assert_same_releases(server._shards[1], twin._shards[1])
            served = server.flush()
            assert server.lost_steps == 8
            for name in server.tenants():
                assert served[name].covered_steps == T - server.lost_steps
        finally:
            twin.close()
            server.close()

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_restart_on_a_parked_stream_serves_the_next_tenant(
        self, stream, outcomes, transport
    ):
        server = _make_stream(["a"], seed=71, transport=transport)
        twin = _make_stream(["a"], seed=71, transport="thread")  # readable layout
        try:
            for s in (server, twin):
                s.observe_batch(stream.xs[:5], outcomes[:5, 0])  # shard 0
                s.remove_tenant("a")
                s.kill_shard(0)
                s.restart_shard(0)  # over the Gram entries only
            assert server._shards[0].alive
            assert twin._shards[0].layout.tenants() == ()
            assert server.bundle_names == ("gram:1.0",)
            assert len(server._shards[0].released()) == 1
            for s in (server, twin):
                s.add_tenant("b")
            assert twin._shards[0].layout.tenants() == ("b",)
            assert server.bundle_names == ("gram:1.0", "cross:b")
            for s in (server, twin):
                s.observe_batch(stream.xs[5:13], outcomes[5:13, 0])  # shard 1
                s.observe_batch(stream.xs[13:20], outcomes[13:20, 0])  # shard 0
            _assert_same_releases(server._shards[0], twin._shards[0])
            served = server.flush()
            assert server.lost_steps == 5
            assert served["b"].covered_steps == 15
        finally:
            twin.close()
            server.close()

    @pytest.mark.parametrize("transport", ["thread", "process"])
    def test_auto_restart_on_a_parked_stream_counts_no_errors(
        self, stream, outcomes, transport
    ):
        import time

        server = _make_stream(
            ["a"], seed=73, transport=transport, heartbeat_every=0.05,
            restart_policy="auto",
        )
        try:
            server.observe_batch(stream.xs[:5], outcomes[:5, 0])  # shard 0
            server.remove_tenant("a")
            server.kill_shard(0)
            deadline = time.monotonic() + 30.0
            while server.heartbeat_stats()["restarts"] < 1:
                assert time.monotonic() < deadline, server.heartbeat_stats()
                time.sleep(0.05)
            pings = server.heartbeat_stats()["pings"]
            while server.heartbeat_stats()["pings"] < pings + 4:  # two more periods
                assert time.monotonic() < deadline, server.heartbeat_stats()
                time.sleep(0.05)
            assert server.heartbeat_stats()["errors"] == 0
            server.add_tenant("b")
            server.observe_batch(stream.xs[5:13], outcomes[5:13, 0])  # shard 1
            server.observe_batch(stream.xs[13:20], outcomes[13:20, 0])  # shard 0
            assert server.flush()["b"].covered_steps == 15
            assert server.heartbeat_stats()["errors"] == 0
        finally:
            server.close()

    def test_routing_books_hold_on_tenant_fronts(self, stream, outcomes):
        server = _make_stream(2, seed=67, shard_horizon=8)
        try:
            server.observe_batch(stream.xs[:6], outcomes[:6, :2])  # shard 0
            server.observe_batch(stream.xs[6:12], outcomes[6:12, :2])  # shard 1
            with pytest.raises(StreamExhaustedError):
                server.observe_batch(stream.xs[12:18], outcomes[12:18, :2])
            server.observe_group(
                [(stream.xs[12:14], outcomes[12:14, :2]),
                 (stream.xs[14:16], outcomes[14:16, :2])]
            )
            assert server.blocks_routed == 5
            assert server.blocks_refunded == 1
            assert server.steps_ingested == server.steps_enqueued == 16
            assert server.blocks_routed - server.blocks_refunded == 4
        finally:
            server.close()
