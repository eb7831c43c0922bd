"""A front reads a shard's releases right after an ingest when the next
refresh reads that shard before its next block (``ShardFront._prefetch``),
and each shard caches its ``released()`` answer until its own state moves.

Every event that changes what a shard releases between that read and the
refresh — a kill, a restart, a tenant add or remove (a remove and re-add
of one name included), a block the round-robin rule did not foresee —
must make the refresh read the shard again, and a custom router never
prefetches.  In each case every served θ (bytes and version) equals a
standalone solver replaying the front's refreshes over
``merged_moments``, on the thread and the process transports.  On the
process transport the test also counts the ``released`` round trips each
block's ingest call sends, per shard: the prefetch sends one, the refresh
after it sends none for an unchanged shard, and a repeat merge with no
ingest in between sends none at all.
"""

import numpy as np
import pytest

from repro import L2Ball, MultiTenantStream, PrivacyParams, PrivIncReg1, ShardedStream
from repro.data import make_dense_stream
from repro.privacy.tree import noise_key
from repro.streaming.serving import MomentShard
from repro.streaming.transport import ShardRpcClient

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


@pytest.fixture
def frames(monkeypatch):
    """The shard index of every ``released`` frame a remote front sends."""
    sent = []
    request = ShardRpcClient._request

    def counting(self, command, payload):
        if command == "released":
            sent.append(self.index)
        return request(self, command, payload)

    monkeypatch.setattr(ShardRpcClient, "_request", counting)
    return sent


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


def _check_covered(front, gram):
    """The merge read every live shard's current state: the shared Gram
    covers every ingested point that was not lost with a killed shard."""
    assert gram.covered_steps + front.lost_steps == front.steps_ingested


def _run(front, sizes, feed, replay, frames, event=None):
    """Feed blocks of ``sizes``; run ``event`` right after the third
    block, whose shard the front has just read (round robin, K = 2:
    12 + 4 points reach the refresh at 16 before that shard's next block),
    and replay every refresh.  Returns, per block, the shards its ingest
    call sent a ``released`` frame to (always empty in-process)."""
    start = 0
    sent = []
    for i, size in enumerate(sizes):
        before = front.steps_ingested
        frames.clear()
        feed(start, start + size)
        start += size
        sent.append(sorted(frames))
        if before // EVERY < front.steps_ingested // EVERY:
            frames.clear()
            replay()
            assert frames == []  # the refresh's answers are still cached
        if i == 2 and event is not None:
            frames.clear()
            event()
            assert frames == []
    assert start == T
    front.flush()
    return sent


#: Blocks of 4, or two 1-point blocks after the prefetch: the second goes
#: to the prefetched shard before the refresh reads it.
EVEN = [4] * 16
UNEVEN = [4, 4, 4, 1, 1, 4, 2] + [4] * 11

#: Per block, the shards sent a ``released`` frame: shard 0 is read right
#: after every block that precedes a refresh in its round; the refresh
#: then reads shard 1 only.
ROUNDS = [[], [], [0], [1]]
#: Each event, or a block past the prefetch, makes the refresh read shard
#: 0 again (a restarted shard 0 is a new worker); a dead shard 0 is never
#: read; a custom router never prefetches.
SENT = {
    "none": ROUNDS * 4,
    "kill": ROUNDS[:3] + [[1]] + [[], [], [], [1]] * 3,
    "restart": ROUNDS[:3] + [[0, 1]] + ROUNDS * 3,
    "uneven": [[], [], [0], [], [], [0, 1], []] + [[], [0], [1], []] * 2 + [[], [0], [1]],
    "router": [[], [], [], [0, 1]] * 4,
    "tenant": ROUNDS[:3] + [[0, 1]] + ROUNDS * 3,
}


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("case", ["none", "kill", "restart", "uneven", "router"])
def test_sharded_refresh_reads_what_the_shards_release(stream, frames, transport, case):
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
        cross, gram = front.merged_moments()
        _check_covered(front, gram)
        _check(front.current_served(), twin, cross, gram)

    try:
        sent = _run(
            front, UNEVEN if case == "uneven" else EVEN, feed, replay, frames,
            event=events.get(case),
        )
    finally:
        front.close()
    assert sent == (SENT[case] if transport == "process" else [[]] * len(sent))


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("case", ["add", "remove", "re-add"])
def test_tenant_refresh_reads_what_the_shards_release(
    stream, outcomes, frames, transport, case
):
    front = MultiTenantStream(
        L2Ball(DIM), PARAMS, ["a", "b"], 2, horizon=T, tenant_capacity=3,
        refresh_every=EVERY, iteration_cap=20, transport=transport, rng=6,
    )
    twins = {}
    events = {
        "add": lambda: front.add_tenant("c"),
        # "a" leads the bundle: removing it moves every later entry.
        "remove": lambda: front.remove_tenant("a"),
        # A fresh "b" under the same entry names as the old one.
        "re-add": lambda: (front.remove_tenant("b"), twins.pop("b", None), front.add_tenant("b")),
    }

    def feed(s, e):
        ys = np.column_stack([outcomes[name][s:e] for name in front.tenants()])
        front.observe_batch(stream.xs[s:e], ys)

    def replay():
        for name in front.tenants():
            twin = twins.setdefault(name, _twin())
            cross, gram = front.merged_moments(name)
            _check_covered(front, gram)
            _check(front.tenant(name).current_served(), twin, cross, gram)

    try:
        sent = _run(front, EVEN, feed, replay, frames, event=events[case])
    finally:
        front.close()
    assert sent == (SENT["tenant"] if transport == "process" else [[]] * len(sent))


def test_a_shard_answers_from_its_cache_until_its_state_moves(stream, outcomes):
    """``MomentShard.released()`` (what every transport's worker answers)
    is cached until an ingest, a tenant add or remove, or a kill; every
    answer is the mechanisms' own records in bundle order."""
    keys = [noise_key(r) for r in np.random.default_rng(3).spawn(3)]
    shard = MomentShard(
        0, DIM, PARAMS, np.array(keys),
        config=dict(tenants=("a", "b"), tenant_capacity=3), shard_horizon=T,
    )

    def records():
        return tuple(shard.bundle.get(name).released_moments() for name in shard.bundle.names)

    def block(s, e):
        return stream.xs[s:e], np.column_stack([outcomes[n][s:e] for n in shard.layout.tenants()])

    shard.ingest(*block(0, 4), False)
    answer = shard.released()
    assert shard.released() is answer and answer == records()
    for move in (
        lambda: shard.ingest(*block(4, 8), False),
        lambda: shard.remove_tenant("a"),  # "a" leads: every later entry moves
        lambda: shard.add_tenant("c", np.array([noise_key(np.random.default_rng(4))])),
    ):
        move()
        assert shard.released() is not answer
        answer = shard.released()
        assert answer == records()
    shard.kill()
    assert shard.released() == (None,) * len(shard.bundle.names)
