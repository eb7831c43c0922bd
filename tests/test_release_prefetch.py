"""A front snapshots a shard's releases right after an ingest when the next
refresh reads that shard before its next block (``ShardFront._prefetch``).

Every event that changes what a shard releases between that snapshot and
the refresh — a kill, a restart, a tenant add or remove (a remove and
re-add of one name included), a block the round-robin rule did not
foresee — must make the refresh read the shard again, and a custom router
never prefetches.  In each case every served θ (bytes and version) equals
a standalone solver replaying the front's refreshes over
``merged_moments``, on the thread and the process transports.
"""

import numpy as np
import pytest

from repro import L2Ball, MultiTenantStream, PrivacyParams, PrivIncReg1, ShardedStream
from repro.data import make_dense_stream

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
T = 64
EVERY = 16
TRANSPORTS = ["thread", "process"]


@pytest.fixture(scope="module")
def stream():
    return make_dense_stream(T, DIM, noise_std=0.05, rng=930)


@pytest.fixture(scope="module")
def outcomes():
    """One outcome column per tenant name, |y| ≤ 1."""
    ys = np.random.default_rng(931).normal(scale=0.5, size=(T, 3))
    return dict(zip("abc", np.clip(ys, -1.0, 1.0).T))


def _twin():
    return PrivIncReg1(horizon=T, constraint=L2Ball(DIM), params=PARAMS, iteration_cap=20, rng=0)


def _check(served, twin, cross, gram):
    """``served`` is ``twin``'s refresh over the merged ``(cross, gram)``
    (a model whose cross covers nothing is not refreshed)."""
    if cross.covered_steps == 0:
        assert served.version == twin.estimate_version
        return
    weight, covered = cross.covered_weight, cross.covered_steps
    gram_value = gram.value
    if weight != gram.covered_weight:
        gram_value = gram_value * (weight / gram.covered_weight)
    theta = twin.refresh_from_released(
        weight if weight != covered else covered, gram_value, cross.value
    )
    assert served.version == twin.estimate_version
    assert served.theta.tobytes() == theta.tobytes()


def _run(front, sizes, feed, replay, event=None, prefetch=True):
    """Feed blocks of ``sizes``; run ``event`` right after the third
    block, whose shard the front has just snapshotted (round robin, K = 2:
    12 + 4 points reach the refresh at 16 before that shard's next block),
    and replay every refresh."""
    start = 0
    for i, size in enumerate(sizes):
        before = front.steps_ingested
        feed(start, start + size)
        start += size
        if before // EVERY < front.steps_ingested // EVERY:
            replay()
        if i == 2:
            assert (0 in front._snapshots) == prefetch
            if event is not None:
                event()
    assert start == T
    served = front.flush()
    return served


#: Blocks of 4, or two 1-point blocks after the snapshot: the second goes
#: to the snapshotted shard before the refresh reads it.
EVEN = [4] * 16
UNEVEN = [4, 4, 4, 1, 1, 4, 2] + [4] * 11


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("case", ["none", "kill", "restart", "uneven", "router"])
def test_sharded_refresh_reads_what_the_shards_release(stream, transport, case):
    knobs = {}
    if case == "router":
        knobs = dict(composition="basic", router=lambda i, xs, ys: 0 if i % 3 else 1)
    front = ShardedStream(
        L2Ball(DIM), PARAMS, 2, horizon=T, refresh_every=EVERY, iteration_cap=20,
        transport=transport, rng=5, **knobs,
    )
    twin = _twin()
    events = {
        "kill": lambda: front.kill_shard(0),
        "restart": lambda: (front.kill_shard(0), front.restart_shard(0)),
    }

    def feed(s, e):
        front.observe_batch(stream.xs[s:e], stream.ys[s:e])

    def replay():
        _check(front.current_served(), twin, *front.merged_moments())

    try:
        _run(
            front, UNEVEN if case == "uneven" else EVEN, feed, replay,
            event=events.get(case), prefetch=case != "router",
        )
        if case == "router":
            assert not front._snapshots
    finally:
        front.close()


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("case", ["add", "remove", "re-add"])
def test_tenant_refresh_reads_what_the_shards_release(stream, outcomes, transport, case):
    front = MultiTenantStream(
        L2Ball(DIM), PARAMS, ["a", "b"], 2, horizon=T, tenant_capacity=3,
        refresh_every=EVERY, iteration_cap=20, transport=transport, rng=6,
    )
    twins = {}
    events = {
        "add": lambda: front.add_tenant("c"),
        "remove": lambda: front.remove_tenant("b"),
        # A fresh "b" under the same entry names as the old one.
        "re-add": lambda: (front.remove_tenant("b"), twins.pop("b", None), front.add_tenant("b")),
    }

    def feed(s, e):
        ys = np.column_stack([outcomes[name][s:e] for name in front.tenants()])
        front.observe_batch(stream.xs[s:e], ys)

    def replay():
        for name in front.tenants():
            twin = twins.setdefault(name, _twin())
            _check(front.tenant(name).current_served(), twin, *front.merged_moments(name))

    try:
        _run(front, EVEN, feed, replay, event=events[case])
    finally:
        front.close()
