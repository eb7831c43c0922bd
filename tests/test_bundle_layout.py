"""The one bundle layout both serving fronts build from.

* **Statistic kinds** — every backend declares its design statistics
  (they read only the rows) apart from its outcome statistics (they read
  ``y``).  PRIMO's sharing argument rests on the first kind never reading
  the outcome: tenants share a design entry, so its release must be the
  same whatever the outcome columns hold.
* **Pins** — each backend's entry names and ledger labels on
  :class:`~repro.streaming.serving.ShardedStream`, and the tenant front's
  names, labels, per-entry budgets, γ and reads.
* **Derivations** — the per-entry keys of a tenant layout, one shard
  class whatever the spec, and the anonymous outcome refusing tenants.
"""

import numpy as np
import pytest

from repro import (
    GaussianProjection,
    L2Ball,
    MultiTenantStream,
    PrivacyParams,
    ShardedStream,
    TenantShard,
    tenant_budgets,
)
from repro.exceptions import ValidationError
from repro.privacy import bundle_budgets
from repro.privacy.tree import noise_key
from repro.streaming.backends import BACKENDS
from repro.streaming.serving import BundleLayout, MomentShard
from repro.streaming.transport import ShardSpec

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
INSTRUMENTS = 4
T = 64

#: Each backend's shard config and its anonymous bundle's entry names.
CONFIGS = {
    "moment": {},
    "projected": {"phi": GaussianProjection(DIM, 2, rng=0).matrix},
    "sketch": {"phi": GaussianProjection(DIM, 2, rng=1).matrix},
    "iv": {"instruments": INSTRUMENTS},
}
NAMES = {
    "moment": ("cross", "gram"),
    "projected": ("cross", "gram"),
    "sketch": ("cross", "gram"),
    "iv": ("zz", "zx", "zy"),
}
#: The ShardedStream knobs selecting each backend.
FRONT_KNOBS = {
    "moment": {},
    "projected": dict(backend="projected", x_domain=L2Ball(DIM), projected_dim=2),
    "sketch": dict(backend="sketch", x_domain=L2Ball(DIM), projected_dim=2),
    "iv": dict(backend="iv", instruments=INSTRUMENTS),
}


def _rows(backend, config, n=6):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-0.3, 0.3, size=(n, backend.block_width(DIM, config)))
    return backend.transform(config, xs)


class TestStatisticKinds:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_no_design_statistic_reads_the_outcome(self, name):
        backend, config = BACKENDS[name], CONFIGS[name]
        rows = _rows(backend, config)
        ys = np.random.default_rng(8).uniform(-1.0, 1.0, len(rows))
        other = np.full(len(rows), np.nan)  # any read of it shows in the bytes
        weights = 0.9 ** np.arange(len(rows) - 1, -1, -1.0)
        statistics = {stat.name: stat for stat in backend.statistics(DIM, config)}
        assert set(backend.design) < set(statistics)
        for stat_name in backend.design:
            stat = statistics[stat_name]
            assert stat.values(rows, ys).tobytes() == stat.values(rows, other).tobytes()
            for w in (None, weights):
                assert stat.total(rows, ys, w).tobytes() == stat.total(rows, other, w).tobytes()

    @pytest.mark.parametrize("name", sorted(BACKENDS))
    def test_every_other_statistic_reads_the_outcome(self, name):
        backend, config = BACKENDS[name], CONFIGS[name]
        rows = _rows(backend, config)
        ys = np.random.default_rng(8).uniform(-1.0, 1.0, len(rows))
        for stat in backend.statistics(DIM, config):
            if stat.name not in backend.design:
                assert not np.array_equal(stat.values(rows, ys), stat.values(rows, -ys))


class TestFrontPins:
    @pytest.mark.parametrize("backend", sorted(NAMES))
    def test_entry_names_and_parallel_ledger(self, backend):
        front = ShardedStream(
            L2Ball(DIM), PARAMS, shards=2, horizon=T, rng=0, **FRONT_KNOBS[backend]
        )
        try:
            names = NAMES[backend]
            assert front.bundle_names == names
            pieces = bundle_budgets(PARAMS, (1.0,) * len(names))
            assert [(c.label, c.params, c.count) for c in front.accountant.charges] == [
                (f"shards:{name}-moments(parallel)", piece, 1)
                for name, piece in zip(names, pieces)
            ]
            for shard in front._shards:
                assert shard.bundle.names == names
                assert [shard.bundle.get(n).params for n in names] == list(pieces)
            assert front._models[None].reads == {name: name for name in names}
        finally:
            front.close()

    def test_basic_composition_labels_each_shard(self):
        front = ShardedStream(
            L2Ball(DIM), PARAMS, shards=2, horizon=T, composition="basic",
            router=lambda i, xs, ys: i, rng=0,
        )
        try:
            piece = PARAMS.split_weighted((1.0, 1.0))[0].halve()
            assert [(c.label, c.params) for c in front.accountant.charges] == [
                (f"shard{i}:{name}-moments", piece)
                for i in range(2)
                for name in ("cross", "gram")
            ]
        finally:
            front.close()

    def test_tenant_front_names_ledger_budgets_and_reads(self):
        front = MultiTenantStream(
            L2Ball(DIM), PARAMS, tenants=("a", "b"), shards=2, horizon=T,
            tenant_capacity=3, decays=(1.0, 0.9), tenant_decays=(0.9, 1.0), rng=0,
        )
        try:
            names = ("gram:1.0", "gram:0.9", "cross:a", "cross:b")
            assert front.bundle_names == names
            gram, slots = tenant_budgets(PARAMS, 3)
            assert [(c.label, c.params) for c in front.accountant.charges] == [
                ("tenants:gram-moments(parallel)", gram),
                ("tenant:a:cross-moments", slots[0]),
                ("tenant:b:cross-moments", slots[0]),
            ]
            groups = gram.split(2)
            bundle = front._shards[0].bundle
            assert bundle.names == names
            assert [bundle.get(n).params for n in names] == [*groups, slots[0], slots[0]]
            assert [bundle._decays[n] for n in names] == [None, 0.9, 0.9, None]
            assert front._models["a"].reads == {"cross": "cross:a", "gram": "gram:0.9"}
            assert front._models["b"].reads == {"cross": "cross:b", "gram": "gram:1.0"}
        finally:
            front.close()


class TestLayoutDerivations:
    def test_tenant_keys_root_each_statistic_at_its_child(self):
        layout = BundleLayout(
            BACKENDS["moment"], DIM, {}, PARAMS,
            dict(tenants=("a", "b", "c"), decays=(1.0, 0.9)),
        )
        keys = layout.keys(np.random.default_rng(3).spawn(2))
        assert keys.dtype == np.uint64 and keys.shape == (len(layout.names), 2) == (5, 2)
        # Group 0 and tenant 0 take the keys of the children the anonymous
        # bundle's gram and cross entries take; the rest, spawned siblings'.
        cross, gram = np.random.default_rng(3).spawn(2)
        expected = [gram, *gram.spawn(1), cross, *cross.spawn(2)]
        np.testing.assert_array_equal(keys, [noise_key(rng) for rng in expected])

    def test_anonymous_keys_are_the_childrens(self):
        layout = BundleLayout(BACKENDS["iv"], DIM, CONFIGS["iv"], PARAMS, {})
        keys = layout.keys(np.random.default_rng(3).spawn(3))
        expected = [noise_key(rng) for rng in np.random.default_rng(3).spawn(3)]
        np.testing.assert_array_equal(keys, expected)
        assert layout.config() == {} and layout.models() == (None,)

    @pytest.mark.parametrize("config", [{}, dict(tenants=("a",), tenant_capacity=2)])
    def test_every_spec_builds_a_moment_shard(self, config):
        spec = ShardSpec(
            index=0, dim=DIM, budget=PARAMS,
            keys=np.array([noise_key(r) for r in np.random.default_rng(4).spawn(2)]),
            config=config,
            shard_horizon=T,
        )
        assert type(spec.build()) is MomentShard

    def test_tenant_shard_is_a_name_without_a_body(self):
        assert issubclass(TenantShard, MomentShard)
        assert not [attr for attr in vars(TenantShard) if not attr.startswith("__")]

    def test_the_anonymous_outcome_has_no_tenants(self):
        keys = np.array([noise_key(r) for r in np.random.default_rng(5).spawn(2)])
        shard = MomentShard(0, DIM, PARAMS, keys, shard_horizon=T)
        with pytest.raises(ValidationError, match="anonymous outcome"):
            shard.add_tenant("a", keys[:1])
        with pytest.raises(ValidationError, match="unknown tenant"):
            shard.remove_tenant("a")
        assert shard.bundle.names == ("cross", "gram")
