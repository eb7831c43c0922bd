"""Print one sha256 per serving configuration over everything it serves.

A served-bit fingerprint for refactors that must not move a bit: run it on
two checkouts and compare the digests line by line.  Each configuration
feeds a fixed stream through one serving front and hashes

* every published estimate (θ bytes, version, timestep, covered steps),
  read through ``subscribe`` plus the initial and the flushed estimate;
* every merged release after every block (values and noise variances,
  coverage and missing shards);
* the routing books (steps ingested and enqueued, blocks routed and
  refunded, lost steps, shard liveness and load);
* ``accountant.summary()`` after every ledger change.

The digest hashes data only, so one configuration must print the same
digest on every transport.

Usage::

    python tools/served_bits.py [--transport thread,process,tcp] [--only SUBSTRING]

Prints ``<configuration> <transport> <sha256>`` per line, then one line
per configuration whose digests differ across transports (none when the
transports agree).  The ``src`` directory beside this script is put first
on ``sys.path``, so each checkout fingerprints its own code.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import (  # noqa: E402
    L2Ball,
    MultiTenantStream,
    PrivacyParams,
    ShardedStream,
)

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 4
INSTRUMENTS = 5
T = 240
BLOCK = 16


def _ball_rows(rng, n, d):
    """``n`` rows drawn inside the unit ball."""
    rows = rng.normal(size=(n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows * rng.uniform(0.2, 1.0, size=(n, 1))


def _data(seed=0, outcomes=1, instruments=0):
    rng = np.random.default_rng(seed)
    xs = _ball_rows(rng, T, DIM)
    if instruments:
        xs = np.hstack([_ball_rows(rng, T, instruments), xs])
    theta = rng.normal(size=(xs.shape[1], outcomes)) * 0.4
    ys = np.clip(xs @ theta + 0.1 * rng.normal(size=(T, outcomes)), -1.0, 1.0)
    return xs, ys[:, 0] if outcomes == 1 else ys


class _Digest:
    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def text(self, *values) -> None:
        self._hash.update(repr(values).encode())

    def array(self, value) -> None:
        value = np.ascontiguousarray(value, dtype=float)
        self.text(value.shape)
        self._hash.update(value.tobytes())

    def served(self, entry) -> None:
        self.text(entry.version, entry.timestep, entry.covered_steps)
        self.array(entry.theta)

    def merged(self, releases) -> None:
        for release in releases:
            self.array(release.value)
            self.text(
                float(release.noise_variance).hex(), release.coverage,
                release.missing, release.weight,
            )

    def books(self, front) -> None:
        self.text(
            front.steps_ingested, front.steps_enqueued, front.blocks_routed,
            front.blocks_refunded, front.lost_steps, front.shard_states(),
        )

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def _sharded(transport, digest, *, group=0, kill=False, **knobs):
    """One ``ShardedStream`` run: blocks one at a time or ``group`` at a time."""
    xs, ys = _data(instruments=knobs.get("instruments") or 0)
    knobs.setdefault("shards", 2)
    knobs.setdefault("horizon", T)
    knobs.setdefault("refresh_every", 2 * BLOCK)
    front = ShardedStream(
        L2Ball(DIM), PARAMS, transport=transport, iteration_cap=30, rng=7,
        **knobs,
    )
    try:
        digest.served(front.current_served())
        front.subscribe(digest.served)
        digest.text(front.accountant.summary())
        blocks = [(xs[s : s + BLOCK], ys[s : s + BLOCK]) for s in range(0, T, BLOCK)]
        step = group or 1
        for start in range(0, len(blocks), step):
            if kill and start == len(blocks) // 2:
                front.kill_shard(1)
                digest.merged(front.merged_moments())
                front.restart_shard(1)
                digest.text(front.accountant.summary())
            if group:
                front.observe_group(blocks[start : start + group])
            else:
                front.observe_batch(*blocks[start])
            digest.merged(front.merged_moments())
            digest.books(front)
        digest.served(front.flush())
        digest.merged(front.merged_moments())
        digest.books(front)
        digest.text(front.accountant.summary())
    finally:
        front.close()


def _tenants(transport, digest, *, group=0, **knobs):
    """A PRIMO run with γ groups, a mid-stream add and a remove."""
    xs, ys = _data(outcomes=4)
    front = MultiTenantStream(
        L2Ball(DIM), PARAMS, tenants=("a", "b", "c"), shards=2, horizon=T,
        tenant_capacity=4, transport=transport, refresh_every=2 * BLOCK,
        iteration_cap=30, rng=11, **knobs,
    )
    columns = {"a": 0, "b": 1, "c": 2, "d": 3}

    def watch(name):
        view = front.tenant(name)
        digest.served(view.current_served())
        view.subscribe(digest.served)

    try:
        for name in front.tenants():
            watch(name)
        digest.text(front.accountant.summary())
        start = 0
        while start < T:
            if start == 4 * BLOCK:
                watch(front.add_tenant("d", decay=0.9).name)
                digest.text(front.accountant.summary())
            if start == 8 * BLOCK:
                front.remove_tenant("b")
                digest.text(front.accountant.summary())
            cols = [columns[name] for name in front.tenants()]
            width = (group or 1) * BLOCK
            block_xs, block_ys = xs[start : start + width], ys[start : start + width, cols]
            if group:
                front.observe_group(
                    [(block_xs[i : i + BLOCK], block_ys[i : i + BLOCK])
                     for i in range(0, len(block_xs), BLOCK)]
                )
            else:
                front.observe_batch(block_xs, block_ys)
            start += len(block_xs)
            for name in front.tenants():
                digest.merged(front.merged_moments(name))
            digest.books(front)
        for name, entry in sorted(front.flush().items()):
            digest.text(name)
            digest.served(entry)
        digest.books(front)
        digest.text(front.accountant.summary())
    finally:
        front.close()


def _configurations():
    projected = dict(backend="projected", x_domain=L2Ball(DIM), projected_dim=3)
    basic = dict(composition="basic", router=lambda i, xs, ys: (3 * i + 1) % 2)
    configs = {
        "moment-exact": dict(),
        "moment-fast": dict(ingest="fast"),
        "moment-k1": dict(shards=1),
        "moment-kill-restart": dict(kill=True),
        "projected-exact": dict(projected),
        "projected-fast": dict(projected, ingest="fast"),
        "sketch": dict(backend="sketch", x_domain=L2Ball(DIM), projected_dim=3),
        "iv": dict(backend="iv", instruments=INSTRUMENTS),
        "iv-kill-restart": dict(backend="iv", instruments=INSTRUMENTS, kill=True),
        "decay-exact": dict(decay=0.9),
        "decay-fast": dict(decay=0.9, ingest="fast"),
        "window-12": dict(window=12),
        "window-inf": dict(window=float("inf")),
        "hybrid": dict(mechanism="hybrid", horizon=None),
        "decayed-hybrid": dict(mechanism="hybrid", horizon=None, decay=0.9),
        "basic-router": basic,
        "fidelity-paper": dict(fidelity="paper"),
    }
    runs = {name: (_sharded, knobs) for name, knobs in configs.items()}
    for shards in (2, 3):
        for size in (2, 5):
            runs[f"group-moment-k{shards}-g{size}"] = (
                _sharded, dict(shards=shards, group=size)
            )
            runs[f"group-projected-k{shards}-g{size}"] = (
                _sharded, dict(projected, shards=shards, group=size, ingest="fast")
            )
    runs["tenants-exact"] = (_tenants, dict(decays=(1.0, 0.9), tenant_decays=(1.0, 0.9, 1.0)))
    runs["tenants-fast"] = (
        _tenants, dict(decays=(1.0, 0.9), tenant_decays=(1.0, 0.9, 1.0), ingest="fast")
    )
    runs["tenants-group"] = (_tenants, dict(group=5))
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transport", default="thread,process,tcp")
    parser.add_argument("--only", default="")
    args = parser.parse_args(argv)
    transports = args.transport.split(",")
    disagree = []
    for name, (run, knobs) in _configurations().items():
        if args.only not in name:
            continue
        digests = set()
        for transport in transports:
            digest = _Digest()
            run(transport, digest, **knobs)
            digests.add(digest.hexdigest())
            print(f"{name} {transport} {digest.hexdigest()}", flush=True)
        if len(digests) > 1:
            disagree.append(name)
    for name in disagree:
        print(f"transports disagree: {name}")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main())
