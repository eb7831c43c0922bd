"""Span tracing for the serving benchmark, installed from outside the library.

`Tracer.install()` wraps the public entry points of each serving layer at
runtime (class attributes and module globals of ``repro``); `Tracer.restore()`
puts the originals back.  Nothing in ``src/`` records time: every span here
is taken around a call into a layer, on whatever thread makes the call.

Spans live in memory as flat integer rows and are aggregated (and written
out) only when the run ends.  A span's parent is the innermost open span of
its own thread; a span opened on a thread with no open span is a child of
the innermost open span of the thread that dispatched the work — the main
thread for the group-ingest pool, the thread that sent the request for a
loopback tcp listener thread (looked up through the socket pair).  A span's self time is
its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import gzip
import json
import pickle
import threading
import time
from array import array
from collections import defaultdict

from repro.core.incremental_regression import PrivIncReg1
from repro.erm.noisy_pgd import NoisyProjectedGradient
from repro.privacy.tree import TreeMechanism
from repro.streaming import netserve, tenancy, transport
from repro.streaming.readers import EstimateHub
from repro.streaming.serving import MomentShard, ShardedStream, TenantShard
from repro.streaming.serving import stream as stream_module

#: Row layout of the flat span store.
_NAME, _START, _END, _PARENT, _THREAD = range(5)
_WIDTH = 5

#: The layers, in report order.
LAYERS = (
    "stream",
    "shards",
    "tree",
    "incremental_regression",
    "noisy_pgd",
    "readers",
    "transport",
    "netserve",
    "tenancy",
)


def _rows_advanced(args, kwargs) -> int:
    return int(args[1].shape[0])


def _rows_summed(args, kwargs) -> int:
    return int(args[2] if len(args) > 2 else kwargs["count"])


def _pgd_iterations(args, kwargs) -> int:
    return int(args[0].iterations)


def _group_blocks(args, kwargs) -> int:
    return len(args[1])


def _one(args, kwargs) -> int:
    return 1


class _CountingPickle:
    """Stands in for ``netserve.pickle`` so frame payload bytes are counted."""

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def dumps(self, obj, *args, **kwargs):
        payload = pickle.dumps(obj, *args, **kwargs)
        self._tracer.add("netserve.bytes", len(payload) + netserve._HEADER.size)
        return payload

    def __getattr__(self, name):
        return getattr(pickle, name)


class Tracer:
    """In-memory span recorder plus the runtime shims that feed it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._stacks: dict[int, list[int]] = {}
        self._threads: dict[int, int] = {}
        #: Client socket name -> ident of the thread sending on it.
        self._peers: dict = {}
        self._main = threading.get_ident()
        self.names: list[tuple[str, str]] = []
        self.spans = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks[threading.get_ident()] = stack
                self._threads[threading.get_ident()] = len(self._threads)
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        ident = threading.get_ident()
        if ident == self._main:
            return -1
        dispatcher = getattr(self._local, "dispatcher", None) or self._main
        try:
            return self._stacks[dispatcher][-1]
        except (KeyError, IndexError):
            return -1

    def enter(self, name_id: int) -> int:
        stack = self._stack()
        parent = self._parent(stack)
        thread = self._threads[threading.get_ident()]
        with self._lock:
            span = len(self.spans) // _WIDTH
            self.spans.extend((name_id, time.perf_counter_ns(), 0, parent, thread))
        stack.append(span)
        return span

    def leave(self, span: int) -> None:
        self.spans[span * _WIDTH + _END] = time.perf_counter_ns()
        self._local.stack.pop()

    def add(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] += amount

    def intern(self, layer: str, name: str) -> int:
        self.names.append((layer, name))
        return len(self.names) - 1

    # -- shims ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, count_key=None, counter=_one):
        name_id = self.intern(layer, name)
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if count_key is not None:
                tracer.add(count_key, counter(args, kwargs))
            span = tracer.enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(span)

        return shim

    def _patch(self, owner, attr: str, layer: str, name: str, **kwargs) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, name, original, **kwargs))

    def _patch_send(self) -> None:
        """``send_frame``: a span, plus the socket-to-thread map for parenting."""
        original = netserve.send_frame
        name_id = self.intern("netserve", "send_frame")
        tracer = self

        @functools.wraps(original)
        def send_frame(sock, obj):
            tracer.add("netserve.frames", 1)
            stack = tracer._stack()
            if stack:
                tracer._peers[sock.getsockname()] = threading.get_ident()
            span = tracer.enter(name_id)
            try:
                return original(sock, obj)
            finally:
                tracer.leave(span)

        self._saved.append((netserve, "send_frame", original))
        netserve.send_frame = send_frame

    def _patch_recv(self) -> None:
        """``recv_frame``: a span when a caller waits for a reply.

        A listener thread parked for its next command (no open span on
        that thread) is idle, not busy: that wait is not recorded; the
        command it receives names the sending thread whose span the
        listener's work then belongs to.
        """
        original = netserve.recv_frame
        name_id = self.intern("netserve", "recv_frame")
        tracer = self

        @functools.wraps(original)
        def recv_frame(sock):
            stack = tracer._stack()
            if not stack and threading.get_ident() != tracer._main:
                frame = original(sock)
                try:
                    peer = sock.getpeername()
                except OSError:
                    peer = None
                tracer._local.dispatcher = tracer._peers.get(peer)
                return frame
            span = tracer.enter(name_id)
            try:
                return original(sock)
            finally:
                tracer.leave(span)

        self._saved.append((netserve, "recv_frame", original))
        netserve.recv_frame = recv_frame

    def install(self) -> None:
        """Wrap every traced entry point; call from the main thread."""
        self._main = threading.get_ident()
        self._stack()
        self._patch(ShardedStream, "observe_batch", "stream", "observe_batch",
                    count_key="stream.blocks")
        self._patch(ShardedStream, "observe_group", "stream", "observe_group",
                    count_key="stream.blocks", counter=_group_blocks)
        self._patch(ShardedStream, "flush", "stream", "flush")
        self._patch(MomentShard, "ingest", "shards", "ingest",
                    count_key="shards.ingests")
        self._patch(TreeMechanism, "advance_batch", "tree", "advance_batch",
                    count_key="tree.rows", counter=_rows_advanced)
        self._patch(TreeMechanism, "advance_sum", "tree", "advance_sum",
                    count_key="tree.rows", counter=_rows_summed)
        self._patch(stream_module, "merge_released", "tree", "merge_released")
        self._patch(tenancy, "merge_released", "tree", "merge_released")
        self._patch(PrivIncReg1, "refresh_from_released", "incremental_regression",
                    "refresh_from_released")
        self._patch(NoisyProjectedGradient, "run", "noisy_pgd", "run",
                    count_key="noisy_pgd.iterations", counter=_pgd_iterations)
        self._patch(EstimateHub, "publish", "readers", "publish")
        self._patch(transport.ShardRpcClient, "ingest", "transport", "ingest")
        self._patch(transport.ShardRpcClient, "released", "transport", "released")
        self._patch(transport.ProcessShardWorker, "shutdown", "transport", "shutdown")
        self._patch(netserve.TcpShardWorker, "shutdown", "transport", "shutdown")
        self._patch(netserve.ShardHostListener, "close", "netserve", "listener_close")
        self._patch_send()
        self._patch_recv()
        self._saved.append((netserve, "pickle", netserve.pickle))
        netserve.pickle = _CountingPickle(self)
        self._patch(tenancy.MultiTenantStream, "observe_batch", "tenancy",
                    "observe_batch", count_key="tenancy.blocks")
        self._patch(TenantShard, "ingest", "tenancy", "shard_ingest")

    def restore(self) -> None:
        """Put back every original callable (reverse order)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------

    def aggregate(self, window: tuple[int, int], close_window: tuple[int, int]) -> dict:
        """Per-layer and per-entry-point totals.

        ``window`` is the serving interval (first ingest to flush end) in
        ``perf_counter_ns`` time; only spans inside it count toward busy and
        self time.  ``close_window`` bounds the teardown spans.
        """
        rows = self.spans
        count = len(rows) // _WIDTH
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for span in range(count):
            base = span * _WIDTH
            parent = rows[base + _PARENT]
            if parent >= 0 and rows[base + _END]:
                children[parent].append((rows[base + _START], rows[base + _END]))
        layer_self: dict[str, int] = defaultdict(int)
        layer_busy: dict[str, int] = defaultdict(int)
        entry_busy: dict[tuple[str, str], int] = defaultdict(int)
        entry_calls: dict[tuple[str, str], int] = defaultdict(int)
        closing: dict[tuple[str, str], int] = defaultdict(int)
        lo, hi = window
        close_lo, close_hi = close_window
        for span in range(count):
            base = span * _WIDTH
            start, end = rows[base + _START], rows[base + _END]
            if not end:
                continue
            key = self.names[rows[base + _NAME]]
            if close_lo <= start and end <= close_hi:
                closing[key] += end - start
                continue
            if not (lo <= start and end <= hi):
                continue
            layer = key[0]
            entry_busy[key] += end - start
            entry_calls[key] += 1
            parent = rows[base + _PARENT]
            if parent < 0 or self.names[rows[parent * _WIDTH + _NAME]][0] != layer:
                layer_busy[layer] += end - start
            layer_self[layer] += (end - start) - _covered(children.get(span, ()), start, end)
        return {
            "layer_self_ns": dict(layer_self),
            "layer_busy_ns": dict(layer_busy),
            "entry_busy_ns": entry_busy,
            "entry_calls": entry_calls,
            "closing_ns": closing,
            "counts": dict(self.counts),
            "spans": count,
        }

    def write(self, path, window: tuple[int, int]) -> None:
        """Write every recorded span, column-wise, gzip-compressed JSON."""
        rows = self.spans
        columns = {
            "name": list(rows[_NAME::_WIDTH]),
            "start_ns": list(rows[_START::_WIDTH]),
            "end_ns": list(rows[_END::_WIDTH]),
            "parent": list(rows[_PARENT::_WIDTH]),
            "thread": list(rows[_THREAD::_WIDTH]),
        }
        document = {
            "names": [f"{layer}.{name}" for layer, name in self.names],
            "window_ns": list(window),
            "columns": columns,
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(document, handle)


def _covered(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
