"""The serving path never imports scipy.

scipy backs only Gaussian-width quadrature, ``Polytope.gauge`` and the LP
lifts, each of which imports it on first use.  Every spawned shard worker
runs ``import repro`` before it can answer its ready handshake, so a
module-level scipy import anywhere in the package is paid on every
process boot (``restart_shard`` and auto-restart included).  These tests
pin the import graph:

* a fresh interpreter in which any scipy import raises can import
  ``repro`` and serve thread fronts — ``ShardedStream`` on both ingest
  tiers and ``MultiTenantStream`` — through ingest, refresh and read,
  and ends with no ``scipy*`` module loaded;
* on Linux, a booted process worker maps no scipy shared library.
"""

import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro import PrivacyParams
from repro.streaming.transport import ProcessShardWorker, ShardSpec

SRC = os.path.dirname(os.path.dirname(repro.__file__))
SCIPY_DIR = re.compile(r"/scipy(\.libs)?/")

SCRIPT = textwrap.dedent(
    """
    import sys

    sys.modules["scipy"] = None  # any scipy import now raises ImportError

    import numpy as np

    from repro import L2Ball, MultiTenantStream, PrivacyParams, ShardedStream
    from repro.data import make_dense_stream

    dim, horizon = 4, 64
    params = PrivacyParams(8.0, 1e-6)
    stream = make_dense_stream(horizon, dim, noise_std=0.05, rng=3)
    for ingest in ("exact", "fast"):
        server = ShardedStream(
            L2Ball(dim), params, shards=2, horizon=horizon, ingest=ingest,
            refresh_every=16, rng=0,
        )
        try:
            for s in range(0, horizon, 16):
                server.observe_batch(stream.xs[s:s + 16], stream.ys[s:s + 16])
            served = server.flush()
            assert served.covered_steps == horizon
            assert np.all(np.isfinite(server.current_estimate()))
        finally:
            server.close()

    outcomes = np.stack([stream.ys, -stream.ys, 0.5 * stream.ys], axis=1)
    front = MultiTenantStream(
        L2Ball(dim), params, tenants=3, shards=2, horizon=horizon,
        refresh_every=16, rng=0,
    )
    try:
        for s in range(0, horizon, 16):
            front.observe_batch(stream.xs[s:s + 16], outcomes[s:s + 16])
        served = front.flush()
        assert sorted(served) == sorted(front.tenants())
        for name in front.tenants():
            assert np.all(np.isfinite(front.tenant(name).current_estimate()))
    finally:
        front.close()

    loaded = sorted(
        name for name, module in sys.modules.items()
        if name.split(".")[0] == "scipy" and module is not None
    )
    print("SCIPY_MODULES", loaded)
    """
)


def test_serving_runs_with_scipy_unimportable():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "SCIPY_MODULES []" in result.stdout, result.stdout


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/maps"
)
def test_booted_process_worker_maps_no_scipy():
    spec = ShardSpec(
        index=0,
        dim=3,
        budget=PrivacyParams(4.0, 1e-6),
        rngs=tuple(np.random.default_rng(0).spawn(2)),
        shard_horizon=16,
    )
    worker = ProcessShardWorker(spec)
    try:
        pid = worker.describe()["pid"]
        with open(f"/proc/{pid}/maps") as maps:
            # Match the scipy package directories only: numpy wheels ship
            # their own BLAS as ``numpy.libs/libscipy_openblas*.so``.
            scipy_maps = [line for line in maps if SCIPY_DIR.search(line)]
    finally:
        worker.shutdown()
    assert scipy_maps == []
