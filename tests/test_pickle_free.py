"""Nothing on the serving path unpickles peer bytes.

Both remote transports speak the typed frames of
:mod:`repro.streaming.wire`, so a peer can send data but never code.  Two
checks pin that down:

* **At runtime** — with ``pickle.loads``, ``pickle.load``,
  ``pickle.Unpickler`` and ``multiprocessing``'s ``ForkingPickler.loads``
  patched to raise, a remote front (the self-hosted tcp front with its
  thread-isolation listener, plus the process front on the CI process
  leg) still boots, ingests blocks and groups, refreshes, adds a tenant,
  kills and restarts a shard, and closes.
* **Statically** — no module under ``src/repro/streaming/`` calls
  ``pickle.load``/``pickle.loads``/``Unpickler`` or a
  ``multiprocessing`` ``Connection``'s ``send()``/``recv()`` (both
  pickle).  This covers the spawned pipe workers, which the runtime patch
  cannot reach.
"""

import ast
import multiprocessing.reduction
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import L2Ball, MultiTenantStream, PrivacyParams, ShardedStream
from repro.data import make_dense_stream

STREAMING = Path(repro.__file__).parent / "streaming"
PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
T = 64

#: The remote transports to cycle: always the self-hosted tcp front, plus
#: the CI leg's own transport when it is another remote one.
TRANSPORTS = sorted({"tcp", os.environ.get("SERVE_TRANSPORT", "tcp")} - {"thread"})


class _Unpickled(AssertionError):
    pass


def _refuse(*args, **kwargs):
    raise _Unpickled("the serving path unpickled bytes")


@pytest.fixture
def no_unpickling(monkeypatch):
    monkeypatch.setattr(pickle, "loads", _refuse)
    monkeypatch.setattr(pickle, "load", _refuse)
    monkeypatch.setattr(pickle, "Unpickler", _refuse)
    monkeypatch.setattr(multiprocessing.reduction.ForkingPickler, "loads", _refuse)
    with pytest.raises(_Unpickled):  # the patch is live
        pickle.loads(pickle.dumps(1))


@pytest.fixture(scope="module")
def stream():
    return make_dense_stream(T, DIM, noise_std=0.05, rng=77)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_sharded_front_serves_a_full_cycle_without_unpickling(
    no_unpickling, stream, transport
):
    server = ShardedStream(
        L2Ball(DIM), PARAMS, shards=2, horizon=T, refresh_every=8,
        iteration_cap=10, transport=transport, rng=5,
    )
    try:
        server.observe_batch(stream.xs[:8], stream.ys[:8])
        server.observe_group(
            [(stream.xs[s:s + 8], stream.ys[s:s + 8]) for s in (8, 16, 24)]
        )
        assert server.flush().covered_steps == 32  # a refresh over the wire
        server.kill_shard(1)
        server.restart_shard(1)
        server.observe_batch(stream.xs[32:40], stream.ys[32:40])
        served = server.flush()
        assert served.covered_steps + server.lost_steps == 40
        assert np.all(np.isfinite(server.current_estimate()))
        assert server.memory_floats() > 0
    finally:
        server.close()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_tenant_front_adds_a_tenant_without_unpickling(no_unpickling, stream, transport):
    front = MultiTenantStream(
        L2Ball(DIM), PARAMS, 2, 2, horizon=T, refresh_every=8,
        iteration_cap=10, tenant_capacity=3, transport=transport, rng=6,
    )
    try:
        ys = np.stack([stream.ys, -stream.ys], axis=1)
        front.observe_batch(stream.xs[:8], ys[:8])
        front.add_tenant("late")
        assert front.tenants() == ("tenant-0", "tenant-1", "late")
        ys = np.stack([stream.ys, -stream.ys, stream.ys], axis=1)
        front.observe_batch(stream.xs[8:16], ys[8:16])
        front.flush()
        assert set(front.estimates()) == {"tenant-0", "tenant-1", "late"}
    finally:
        front.close()


# ----------------------------------------------------------------------
# The static check
# ----------------------------------------------------------------------

#: ``(module, receiver, method)`` calls allowed to look like a pickling
#: Connection call: the raw-bytes socket read under ``recv_frame``.
ALLOWED = {("netserve.py", "sock", "recv")}


def _receiver(node: ast.expr) -> str:
    """The last name of a call's receiver: ``self._conn.send`` → ``_conn``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return type(node).__name__


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    pickle_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pickle_names.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name == "pickle"
            )
        elif isinstance(node, ast.ImportFrom) and node.module in (
            "pickle",
            "multiprocessing.reduction",
        ):
            found.append(f"{path.name}:{node.lineno} imports from {node.module}")
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        method = node.func.attr
        receiver = _receiver(node.func.value)
        where = f"{path.name}:{node.lineno}"
        if method in ("load", "loads", "Unpickler") and receiver in pickle_names:
            found.append(f"{where} calls {receiver}.{method}")
        elif method in ("send", "recv") and (path.name, receiver, method) not in ALLOWED:
            found.append(f"{where} calls {receiver}.{method}() (a pickling Connection call)")
        elif method == "ForkingPickler" or receiver == "ForkingPickler":
            found.append(f"{where} uses ForkingPickler")
    return found


def test_streaming_modules_never_unpickle():
    modules = sorted(STREAMING.rglob("*.py"))
    assert {"wire.py", "transport.py", "netserve.py"} <= {m.name for m in modules}
    violations = [v for module in modules for v in _violations(module)]
    assert not violations, "\n".join(violations)


def test_the_static_check_catches_each_pattern(tmp_path):
    """A module with each forbidden call is flagged (the check is live)."""
    source = tmp_path / "bad.py"
    source.write_text(
        "import pickle as p\n"
        "from pickle import loads\n"
        "def f(conn, frame, fh):\n"
        "    p.loads(frame)\n"
        "    p.load(fh)\n"
        "    p.Unpickler(fh)\n"
        "    conn.send(('ok', 1))\n"
        "    return conn.recv()\n"
    )
    assert len(_violations(source)) == 6
