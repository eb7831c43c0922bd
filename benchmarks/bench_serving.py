"""Serving benchmarks: eight scenarios, one scale knob, one artifact.

Evidence for the serving layer: the paper's Algorithms 2 and 3 behind
``ShardedStream`` and the variants it serves (PRIMO tenants, sketch noise,
private 2SLS, decayed and windowed releases).  Each scenario below is one
test.  It measures its tables, evaluates its named checks (the measured
value, the bound in force at this scale, pass or fail), writes its section
of the JSON artifact, and only then fails, listing every failed check.
The suites under ``tests/`` pin the semantics; this file only measures.

``BENCH_SCALE`` (``full`` by default, or ``smoke``) selects one column of
:data:`SCALES` for every scenario.  A full run writes the committed
``BENCH_serving.json``; a smoke run writes ``out/serving-smoke.json`` and
never touches committed numbers.  Each section records the commit,
``cpu_count`` and its config.  Read throughput next to ``cpu_count``: with
few cores the remote transports and the parallel paths cannot win (the
same work plus serialization), so those rows are recorded and only
sanity-checked.
"""

import json
import math
import operator
import os
import pathlib
import subprocess
import threading
import time

import numpy as np
import pytest

from repro import (L2Ball, MultiTenantStream, PrivacyParams, PrivIncIV, PrivIncReg1, PrivIncReg2,
                   ShardedStream, two_stage_least_squares)
from repro.data import make_dense_stream, make_drift_stream, make_iv_stream
from repro.exceptions import NoEstimateError
from repro.streaming import netserve

from common import BENCH_EPSILON, DELTA, bench_budget, record

HERE = pathlib.Path(__file__).parent
ARTIFACTS = {"full": HERE / "BENCH_serving.json", "smoke": HERE / "out" / "serving-smoke.json"}

#: Per scenario, the sizes and the scale-dependent bounds of each scale.
#: ``smoke`` is the CI scale; ``full`` produces the committed artifact.
SCALES = {
    "sharded": {"full": {"T": 20000, "d": 32}, "smoke": {"T": 2000, "d": 16}},
    "projected": {
        # Smoke scale is tens of ms end to end and timer-noise dominated:
        # its bar only checks that the fast tier is not a regression.
        "full": {"T": 20000, "d": 64, "m": 16, "k4_speedup_bar": 1.5},
        "smoke": {"T": 2000, "d": 16, "m": 8, "k4_speedup_bar": 0.8},
    },
    "transports": {
        "full": {"T": 20000, "d": 32, "shard_counts": [1, 2, 4], "fault_rounds": 10},
        "smoke": {"T": 2000, "d": 16, "shard_counts": [1, 2, 4], "fault_rounds": 4},
    },
    "read_fanout": {
        "full": {"T": 8000, "d": 32, "reads": 200_000, "publishes": 400},
        "smoke": {"T": 2000, "d": 16, "reads": 40_000, "publishes": 100},
    },
    "primo": {
        # Smoke scale dilutes the time win (the per-tenant solve work, equal
        # in both columns, dominates tiny streams), so its bar is softer;
        # the memory ratio is scale-free.
        "full": {"T": 16000, "d": 32, "k8_speedup_bar": 1.5},
        "smoke": {"T": 2000, "d": 16, "k8_speedup_bar": 1.1},
    },
    "sketch": {
        # Smoke scale (tens of ms end to end) only rules out a material
        # regression, at every d; full scale holds the bars at d ≥ 256.
        "full": {"T": 20000, "dims": [64, 256, 512], "m": 64,
                 "exact_bar": 2.0, "fast_bar": 0.9, "bar_min_d": 256},
        "smoke": {"T": 2000, "dims": [16, 32], "m": 8,
                  "exact_bar": 0.5, "fast_bar": 0.5, "bar_min_d": 0},
    },
    "iv": {
        # Tiny T means few naive releases: the structural gap only opens
        # at full scale, so smoke checks finiteness alone.
        "full": {"T": 16384, "d": 4, "p": 6, "check_beats_naive": True},
        "smoke": {"T": 2048, "d": 4, "p": 6, "check_beats_naive": False},
    },
    # Decayed tracking beats static only in the T·ε informative regime:
    # do not shrink T below ~4096 at ε = 128.
    "drift": {"full": {"T": 8192, "d": 8}, "smoke": {"T": 4096, "d": 8}},
}

BATCH = 64
ITERATION_CAP = 40
SHARD_COUNTS = [1, 2, 4, 8]
TRANSPORTS = ["thread", "process", "tcp"]
HEARTBEAT_EVERY = 0.05
REQUEST_TIMEOUT = 0.25
#: How long an injected hang wedges a tcp worker.
WEDGE_SECONDS = 2.0
#: Bound on every wait for a published version (the read-fanout waiter).
WAIT_TIMEOUT = 30.0
#: Interleaved (sequential, parallel) pairs behind each group speedup.
GROUP_PAIRS = 7

_OPS = {"<": operator.lt, ">": operator.gt, ">=": operator.ge, "==": operator.eq}


def check(name: str, value, op: str, bound) -> dict:
    """One named gate: the measured value, the bound in force, pass or fail."""
    passed = value is not None and bool(_OPS[op](value, bound))
    return {"name": name, "value": value, "op": op, "bound": bound, "passed": passed}


def _commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
                              text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


class Report:
    """The session's artifact, one section per scenario."""

    def __init__(self, scale: str) -> None:
        self.scale = scale
        self.path = ARTIFACTS[scale]
        self.stamp = {"commit": _commit(), "cpu_count": os.cpu_count()}

    def finish(self, scenario: str, config: dict, results: dict, checks: list) -> None:
        """Write the scenario's section, then fail naming every failed check.

        ``results`` maps table names to lists of rows, which also feed the
        terminal summary and ``RESULTS.txt``.  Sections written by earlier
        sessions stay, each with its own commit and ``cpu_count``.
        """
        for table, rows in results.items():
            for row in rows:
                record(f"serving {scenario}: {table}", **row)
        sections = json.loads(self.path.read_text())["scenarios"] if self.path.exists() else {}
        sections[scenario] = {**self.stamp, "config": config, "results": results, "checks": checks}
        ordered = {name: sections[name] for name in SCALES if name in sections}
        self.path.parent.mkdir(exist_ok=True)
        document = {"scale": self.scale, "scenarios": ordered}
        self.path.write_text(json.dumps(document, indent=2) + "\n")
        failed = [f"{c['name']} = {c['value']} (needs {c['op']} {c['bound']})"
                  for c in checks if not c["passed"]]
        if failed:
            pytest.fail(f"{scenario}: {len(failed)} of {len(checks)} checks failed: "
                        + "; ".join(failed), pytrace=False)


@pytest.fixture(scope="module")
def report():
    scale = os.environ.get("BENCH_SCALE", "full")
    if scale not in ARTIFACTS:
        raise pytest.UsageError(f"BENCH_SCALE must be one of {sorted(ARTIFACTS)}, got {scale!r}")
    return Report(scale)


def _config(cfg: dict, **fields) -> dict:
    return {**cfg, "batch": BATCH, "iteration_cap": ITERATION_CAP, "epsilon": BENCH_EPSILON,
            "delta": DELTA, **fields}


def _blocks(length: int) -> list[tuple[int, int]]:
    return [(s, min(s + BATCH, length)) for s in range(0, length, BATCH)]


def _feed(estimator, xs, ys) -> None:
    for s, e in _blocks(len(ys)):
        estimator.observe_batch(xs[s:e], ys[s:e])


def _timed_feed(server, xs, ys) -> float:
    """Seconds to ingest the whole stream block by block and flush."""
    start = time.perf_counter()
    _feed(server, xs, ys)
    server.flush()
    return time.perf_counter() - start


def _timed_groups(server, stream, shards: int, workers: int | None) -> float:
    """Seconds to ingest ``shards`` consecutive blocks per ``observe_group``."""
    blocks = _blocks(len(stream.ys))
    start = time.perf_counter()
    for i in range(0, len(blocks), shards):
        group = [(stream.xs[s:e], stream.ys[s:e]) for s, e in blocks[i : i + shards]]
        server.observe_group(group, workers=workers)
    server.flush()
    return time.perf_counter() - start


def _best_seconds(make_server, xs, ys, rounds: int = 3) -> float:
    """Fastest ``_timed_feed`` over ``rounds`` fresh servers."""
    best = math.inf
    for _ in range(rounds):
        server = make_server()
        try:
            best = min(best, _timed_feed(server, xs, ys))
        finally:
            server.close()
    return best


def _rate(length: int, seconds: float) -> dict:
    return {"seconds": seconds, "points_per_second": length / seconds}


def _baseline_seconds(estimator, stream) -> float:
    """Seconds for a single-shard batched estimator to ingest the stream."""
    start = time.perf_counter()
    _feed(estimator, stream.xs, stream.ys)
    return time.perf_counter() - start


def _reg1(length: int, dim: int) -> PrivIncReg1:
    """The single-shard batched path the moment fronts are measured against."""
    return PrivIncReg1(horizon=length, constraint=L2Ball(dim), params=bench_budget(),
                       iteration_cap=ITERATION_CAP, solve_every=BATCH, rng=1)


def _ingest_sweep(make_server, stream, baseline: float, on_fast) -> list[dict]:
    """Both ingest tiers at every shard count against a single-shard
    baseline; ``on_fast(shards, server)`` inspects each fast-tier server."""
    rows = []
    for shards in SHARD_COUNTS:
        for tier in ("exact", "fast"):
            server = make_server(shards, tier)
            seconds = _timed_feed(server, stream.xs, stream.ys)
            rows.append({"shards": shards, "ingest": tier, **_rate(len(stream.ys), seconds),
                         "speedup_vs_batched": baseline / seconds})
            if tier == "fast":
                on_fast(shards, server)
            server.close()
    return rows


def _loop_qps(read_once, reads: int) -> float:
    start = time.perf_counter()
    for _ in range(reads):
        read_once()
    return reads / (time.perf_counter() - start)


def sharded(cfg: dict):
    """K fast-ingest shards against the single-shard batched path
    (``PrivIncReg1.observe_batch``, ``solve_every = batch``), and the
    cached-read QPS of each fast front."""
    T, d, reads = cfg["T"], cfg["d"], 200_000
    stream = make_dense_stream(T, d, noise_std=0.05, rng=0)
    baseline = _baseline_seconds(_reg1(T, d), stream)
    cached = []

    def read_qps(shards, server):
        cached.append({"shards": shards,
                       "cached_read_qps": _loop_qps(server.current_estimate, reads)})

    ingest = _ingest_sweep(
        lambda shards, tier: ShardedStream(
            L2Ball(d), bench_budget(), shards=shards, horizon=T, ingest=tier,
            refresh_every=BATCH, iteration_cap=ITERATION_CAP, rng=1),
        stream, baseline, read_qps)
    k4_fast = next(r for r in ingest if r["shards"] == 4 and r["ingest"] == "fast")
    checks = [
        check("sharded.k4_fast_speedup", k4_fast["speedup_vs_batched"], ">=", 2.0),
        # Cached reads must be orders of magnitude faster than solving:
        # even the smoke scale clears 100k reads/s on a pointer read.
        check("sharded.cached_read_qps_min", min(r["cached_read_qps"] for r in cached), ">",
              50_000),
    ]
    return (_config(cfg, refresh_every=BATCH, shard_counts=SHARD_COUNTS, reads=reads,
                    baseline="PrivIncReg1.observe_batch solve_every=batch"),
            {"baseline": [_rate(T, baseline)], "ingest": ingest, "cached_reads": cached},
            checks)


def projected(cfg: dict):
    """Algorithm 3 shards (``backend="projected"``) against
    ``PrivIncReg2.observe_batch``; group-parallel ingestion against a
    ``workers=1`` control; per-shard memory ``m² log T`` against the
    moment backend's ``d² log T``."""
    T, d, m = cfg["T"], cfg["d"], cfg["m"]
    # Merge + projected PGD + lift is post-processing shared by baseline
    # and serving alike (both solve at the same steps), so a frequent
    # cadence only dilutes the ingest comparison; 4096 keeps several
    # periodic refreshes while letting the tree-ingest difference dominate.
    refresh = 4096
    stream = make_dense_stream(T, d, noise_std=0.05, rng=0)

    def make(shards: int, tier: str) -> ShardedStream:
        return ShardedStream(L2Ball(d), bench_budget(), shards=shards, horizon=T,
                             backend="projected", x_domain=L2Ball(d), projected_dim=m,
                             ingest=tier, refresh_every=refresh, iteration_cap=ITERATION_CAP,
                             rng=1)

    baseline = _baseline_seconds(PrivIncReg2(
        horizon=T, constraint=L2Ball(d), x_domain=L2Ball(d), params=bench_budget(),
        projected_dim=m, iteration_cap=ITERATION_CAP, solve_every=refresh, rng=1), stream)
    memory, groups = [], []

    def measure_memory(shards, server):
        twin = ShardedStream(L2Ball(d), bench_budget(), shards=shards, horizon=T,
                             iteration_cap=ITERATION_CAP, rng=1)
        memory.append({"shards": shards,
                       "projected_per_shard_floats": server._shards[0].memory_floats(),
                       "projected_total_floats": server.memory_floats(),
                       "moment_per_shard_floats": twin._shards[0].memory_floats(),
                       "moment_total_floats": twin.memory_floats()})
        twin.close()

    ingest = _ingest_sweep(make, stream, baseline, measure_memory)
    for shards in SHARD_COUNTS[1:]:
        # One sequential and one parallel pass take tens of ms each, so a
        # single pair is at the mercy of the host's speed changes: time
        # GROUP_PAIRS interleaved (sequential, parallel) pairs on fresh
        # fronts and keep the median of the per-pair ratios.
        timed = {"sequential": [], "parallel": []}
        for _ in range(GROUP_PAIRS):
            for label, workers in (("sequential", 1), ("parallel", None)):
                server = make(shards, "fast")
                timed[label].append(_timed_groups(server, stream, shards, workers))
                server.close()
        ratios = np.divide(timed["sequential"], timed["parallel"])
        groups.append({"shards": shards, "pairs": GROUP_PAIRS,
                       "group_sequential_seconds": float(np.median(timed["sequential"])),
                       "group_parallel_seconds": float(np.median(timed["parallel"])),
                       "parallel_speedup": float(np.median(ratios)),
                       "speedup_pair_min": float(ratios.min()),
                       "speedup_pair_max": float(ratios.max())})
    k4_fast = next(r for r in ingest if r["shards"] == 4 and r["ingest"] == "fast")
    checks = [
        check("projected.k4_fast_speedup", k4_fast["speedup_vs_batched"], ">=",
              cfg["k4_speedup_bar"]),
        # Group-parallel ingestion may at worst cost bounded dispatch
        # overhead: a real speedup needs cores to overlap the GIL-released
        # BLAS on, so it is recorded, not asserted.  Per shard count the
        # value is the median ratio over interleaved pairs.
        check("projected.group_parallel_speedup_min",
              min(r["parallel_speedup"] for r in groups), ">", 0.5),
        # The memory claim: per-shard projected state sits the m²-vs-d²
        # ratio below the moment backend's (the shared Φ is counted once
        # per front, not per shard).
        check("projected.moment_over_projected_memory_min",
              min(r["moment_per_shard_floats"] / r["projected_per_shard_floats"]
                  for r in memory), ">", 1.0),
    ]
    return (_config(cfg, refresh_every=refresh, shard_counts=SHARD_COUNTS,
                    baseline="PrivIncReg2.observe_batch solve_every=refresh_every"),
            {"baseline": [_rate(T, baseline)], "ingest": ingest, "group_ingestion": groups,
             "memory": memory},
            checks)


def _transport_run(stream, cfg: dict, shards: int, transport: str, tier: str) -> dict:
    # Remote transports carry a deadline in steady state, as production
    # remote serving does, so its cost is priced in.
    deadline = {} if transport == "thread" else {"request_timeout": 30.0}
    start = time.perf_counter()
    server = ShardedStream(L2Ball(cfg["d"]), bench_budget(), shards=shards, horizon=cfg["T"],
                           ingest=tier, transport=transport, refresh_every=BATCH * shards,
                           iteration_cap=ITERATION_CAP, rng=1, **deadline)
    boot = time.perf_counter() - start
    try:
        seconds = _timed_groups(server, stream, shards, workers=shards)
    finally:
        server.close()
    return {"shards": shards, "transport": transport, "ingest": tier, "boot_seconds": boot,
            **_rate(cfg["T"], seconds)}


def _detection_latencies(stream, cfg: dict) -> list[float]:
    """Wedge→detection latency of the tcp heartbeat over injected hangs.

    No API traffic flows after a wedge, so only the heartbeat loop can
    notice it: each sample is the real silent-failure detection time
    (tick alignment + the ping's own deadline + kill + booking).  The wait
    is bounded by the wedge itself; a hang still undetected when the wedge
    ends is recorded as a latency ≥ ``WEDGE_SECONDS`` and ends the rounds.

    The hang is injected on the stream's own in-process listener: its
    shard handlers are built through a wrapped ``netserve._build_handler``
    that holds each command while the shard's gate is closed.
    """
    gates = {}  # shard index -> the gate of its current connection
    build = netserve._build_handler

    def gated_build(spec):
        handler = build(spec)
        gate = gates[spec.index] = threading.Event()
        gate.set()

        def gated(command, payload):
            gate.wait(WEDGE_SECONDS)
            return handler(command, payload)

        return gated

    netserve._build_handler = gated_build
    latencies = []
    try:
        server = ShardedStream(L2Ball(cfg["d"]), bench_budget(), shards=2, horizon=cfg["T"],
                               transport="tcp", request_timeout=REQUEST_TIMEOUT,
                               heartbeat_every=HEARTBEAT_EVERY, iteration_cap=ITERATION_CAP,
                               rng=1)
        try:
            _feed(server, stream.xs[: 2 * BATCH], stream.ys[: 2 * BATCH])
            for round_index in range(cfg["fault_rounds"]):
                victim = server._shards[round_index % 2]
                # Wedge the worker behind the server's back: long enough to
                # outlive detection; opened again once detected, so the
                # listener-side handler drains between rounds.
                gate = gates[victim.index]
                gate.clear()
                wedged_at = time.perf_counter()
                while victim.alive and time.perf_counter() - wedged_at < WEDGE_SECONDS:
                    time.sleep(0.002)
                latencies.append(time.perf_counter() - wedged_at)
                gate.set()
                if victim.alive:
                    break
                server.restart_shard(victim.index)
        finally:
            server.close()
    finally:
        netserve._build_handler = build
    return latencies


def transports(cfg: dict):
    """Thread vs process vs tcp (one self-hosted loopback listener, whose
    shards share its GIL: it prices the wire, not extra cores) through
    one group-parallel front, boot timed apart from steady-state ingest;
    then the tcp heartbeat's wedge→detection latency."""
    T, d = cfg["T"], cfg["d"]
    stream = make_dense_stream(T, d, noise_std=0.05, rng=0)
    baseline = _baseline_seconds(_reg1(T, d), stream)
    rows = []
    for shards in cfg["shard_counts"]:
        for transport in TRANSPORTS:
            for tier in ("exact", "fast"):
                row = _transport_run(stream, cfg, shards, transport, tier)
                rows.append({**row, "speedup_vs_batched": baseline / row["seconds"]})
    latencies = sorted(_detection_latencies(stream, cfg))
    detection = {"rounds": len(latencies),
                 "expected_envelope_s": HEARTBEAT_EVERY + REQUEST_TIMEOUT,
                 "p50_s": float(np.median(latencies)),
                 "p90_s": latencies[max(0, int(len(latencies) * 0.9) - 1)],
                 "min_s": latencies[0], "max_s": latencies[-1]}
    swept = {row["transport"] for row in rows}

    def boot_max(kinds):
        return max(r["boot_seconds"] for r in rows if r["transport"] in kinds)

    # Sanity gates, not performance assertions (the cores are unknown):
    # every transport completes the sweep, remote boots stay bounded, and
    # every injected hang is detected within a generous multiple of the
    # analytic envelope (tick + deadline), below the wedge duration.  The
    # multi-core ingest win is read off the rows next to cpu_count.
    checks = [
        check("transports.swept_thread_process", sorted(swept & {"thread", "process"}), "==",
              ["process", "thread"]),
        check("transports.process_boot_max_s", boot_max({"process"}), "<", 30.0),
        check("transports.swept_all", sorted(swept), "==", sorted(TRANSPORTS)),
        check("transports.remote_boot_max_s", boot_max({"process", "tcp"}), "<", 30.0),
        check("transports.heartbeat_rounds", len(latencies), "==", cfg["fault_rounds"]),
        check("transports.heartbeat_detection_max_s", detection["max_s"], "<", WEDGE_SECONDS),
    ]
    return (_config(cfg, refresh_every="batch*shards", transports=TRANSPORTS,
                    remote_request_timeout=30.0, start_method="spawn",
                    heartbeat_every=HEARTBEAT_EVERY, heartbeat_request_timeout=REQUEST_TIMEOUT,
                    ingestion_front="observe_group(workers=K)",
                    baseline="PrivIncReg1.observe_batch solve_every=batch"),
            {"baseline": [_rate(T, baseline)], "ingest": rows, "heartbeat_detection": [detection]},
            checks)


class _LockedReadControl:
    """The locked hot path, reconstructed: a mutex and a shared read
    counter around the same single-slot pointer read."""

    def __init__(self, cache):
        self._cache = cache
        self._lock = threading.Lock()
        self.reads = 0

    def get(self):
        with self._lock:
            self.reads += 1
            entry = self._cache.peek()
            if entry is None:
                raise NoEstimateError("empty control cache")
            return entry


def _multi_thread_qps(make_reader, threads: int, reads_per_thread: int) -> float:
    """Aggregate QPS of ``threads`` concurrent readers (barrier-started).

    ``make_reader`` returns ``(read_once, cleanup)`` per thread; cleanup
    (e.g. ``ReaderHandle.close``) runs after the hammer so per-reader
    counts fold into the hub totals.
    """
    barrier = threading.Barrier(threads + 1)

    def hammer():
        read_once, cleanup = make_reader()
        barrier.wait()
        try:
            for _ in range(reads_per_thread):
                read_once()
        finally:
            cleanup()

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for worker in workers:
        worker.start()
    barrier.wait()
    start = time.perf_counter()
    for worker in workers:
        worker.join()
    return threads * reads_per_thread / (time.perf_counter() - start)


def _publish_latency(server: ShardedStream, cfg: dict) -> dict:
    """Publish-to-visible latency through ``wait_for_version``.

    The publisher bumps versions through the real hub path (waiters and
    subscribers must fire); a waiter thread parks on each next version and
    timestamps visibility.  Every wait is bounded by ``WAIT_TIMEOUT``: a
    waiter that times out or wakes on a stale version stops, records why,
    and the publisher stops with it.
    """
    hub, publishes, base = server.cache, cfg["publishes"], server.estimate_version
    deltas, errors = [], []
    published_at = [0.0] * (publishes + 1)
    ready = threading.Event()

    def waiter():
        ready.set()
        try:
            for i in range(1, publishes + 1):
                entry = hub.wait_for_version(base + i, timeout=WAIT_TIMEOUT)
                seen = time.perf_counter()
                if entry.version < base + i:
                    raise AssertionError(f"woke on version {entry.version} < {base + i}")
                deltas.append(seen - published_at[i])
        except Exception as exc:  # reported through the check, not raised here
            errors.append(repr(exc))

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    ready.wait()
    theta = np.zeros(cfg["d"])
    for i in range(1, publishes + 1):
        published_at[i] = time.perf_counter()
        hub.publish(theta, base + i, timestep=cfg["T"], covered_steps=cfg["T"])
        # Let the waiter drain so every wait is a genuine park-and-wake.
        while len(deltas) < i and thread.is_alive():
            time.sleep(0)
        if len(deltas) < i:
            break
    thread.join(WAIT_TIMEOUT)
    micros = np.asarray(deltas) * 1e6
    summary = {"mean_us": np.mean, "p50_us": np.median, "p99_us": lambda v: np.percentile(v, 99)}
    return {"publishes": publishes, "observed": len(deltas),
            **{key: float(fn(micros)) if deltas else None for key, fn in summary.items()},
            "waiter_error": errors[0] if errors else None}


def read_fanout(cfg: dict):
    """Lock-free anonymous and handle reads against a locked control, on
    one and on many reader threads; publish-to-visible latency."""
    T, d, reads, threads = cfg["T"], cfg["d"], cfg["reads"], 8
    stream = make_dense_stream(T, d, noise_std=0.05, rng=0)
    server = ShardedStream(L2Ball(d), bench_budget(), shards=4, horizon=T, ingest="fast",
                           refresh_every=BATCH, iteration_cap=ITERATION_CAP, rng=1)
    _timed_feed(server, stream.xs, stream.ys)
    control = _LockedReadControl(server.cache)
    single_handle = server.reader()

    def handle_reader():
        handle = server.reader()
        return handle.theta, handle.close

    def shared_reader(read_once):
        return lambda: (read_once, lambda: None)

    paths = {
        "lockfree_anonymous": (server.current_estimate, shared_reader(server.current_estimate)),
        "lockfree_handle": (single_handle.theta, handle_reader),
        "locked_control": (control.get, shared_reader(control.get)),
    }
    fanout = []
    for name, (read_once, make_reader) in paths.items():
        single = _loop_qps(read_once, reads)
        multi = _multi_thread_qps(make_reader, threads, reads // threads)
        fanout.append({"path": name, "single_thread_qps": single, "aggregate_qps": multi,
                       "scaling": multi / single})
    single_handle.close()
    latency = _publish_latency(server, cfg)
    stats = server.read_stats()
    server.close()
    by_path = {row["path"]: row for row in fanout}
    checks = [
        check("read_fanout.versions_observed", latency["observed"], "==", cfg["publishes"]),
        # Lock-free reads are pointer loads: even smoke scale clears 100k/s
        # single-threaded, and the aggregate must not collapse under fan-out.
        check("read_fanout.anonymous_single_qps",
              by_path["lockfree_anonymous"]["single_thread_qps"], ">", 100_000),
        check("read_fanout.handle_single_qps",
              by_path["lockfree_handle"]["single_thread_qps"], ">", 100_000),
        check("read_fanout.anonymous_aggregate_qps",
              by_path["lockfree_anonymous"]["aggregate_qps"], ">", 50_000),
        # Waiters must observe a publish promptly (sub-millisecond p50 even
        # on a loaded 1-core container).
        check("read_fanout.publish_p50_us", latency["p50_us"], "<", 50_000),
    ]
    return (_config(cfg, shards=4, threads=threads,
                    locked_control="mutex + shared counter around the same single-slot read"),
            {"fanout": fanout, "publish_to_visible_latency": [latency],
             "read_stats": [{"reads": stats.reads, "snapshot_hits": stats.snapshot_hits,
                             "hit_rate": stats.hit_rate, "writes": stats.writes}]},
            checks)


def primo(cfg: dict):
    """k tenants through one ``MultiTenantStream`` against k independent
    ``ShardedStream``s at ``(ε/k, δ/k)`` each: the shared Gram tree is
    advanced and stored once per shard instead of k times.  The privacy
    side of the same economy is pinned in ``tests/test_tenancy.py``."""
    T, d, shards, tenant_counts = cfg["T"], cfg["d"], 2, [1, 2, 4, 8]
    # Refreshes are deliberately sparse: the solve tail is not comparable
    # across the two columns (the tenant front solves at full-budget noise,
    # which warrants more PGD steps per solve than the (ε/k, δ/k) solvers
    # take), so it is amortized to expose the per-block ingest economy —
    # the part the shared Gram changes.
    refresh = 2048
    stream = make_dense_stream(T, d, noise_std=0.05, rng=0)
    panel = np.clip(np.random.default_rng(7).normal(size=(T, max(tenant_counts))) * 0.4, -1, 1)
    knobs = dict(shards=shards, horizon=T, ingest="fast", refresh_every=refresh,
                 iteration_cap=ITERATION_CAP)
    rows = []
    for k in tenant_counts:
        ys, budget = panel[:, :k], bench_budget()
        independent = [ShardedStream(L2Ball(d), PrivacyParams(budget.epsilon / k,
                                                              budget.delta / k), rng=j, **knobs)
                       for j in range(k)]
        try:
            start = time.perf_counter()
            for s, e in _blocks(T):
                for j, server in enumerate(independent):
                    server.observe_batch(stream.xs[s:e], ys[s:e, j])
            for server in independent:
                server.flush()
            independent_seconds = time.perf_counter() - start
            independent_memory = float(sum(server.memory_floats() for server in independent))
        finally:
            for server in independent:
                server.close()
        tenant = MultiTenantStream(L2Ball(d), budget, tenants=k, rng=0, **knobs)
        try:
            tenant_seconds = _timed_feed(tenant, stream.xs, ys)
            tenant_memory = float(tenant.memory_floats())
        finally:
            tenant.close()
        rows.append({"tenants": k, "independent_seconds": independent_seconds,
                     "tenant_seconds": tenant_seconds,
                     "ingest_speedup": independent_seconds / tenant_seconds,
                     "independent_memory_floats": independent_memory,
                     "tenant_memory_floats": tenant_memory,
                     "memory_ratio": independent_memory / tenant_memory})
    by_k = {row["tenants"]: row for row in rows}
    checks = [
        # k=1 is overhead parity: the shared-Gram machinery must not cost
        # more than a modest constant over one ShardedStream.
        check("primo.k1_tenant_over_independent_seconds",
              by_k[1]["tenant_seconds"] / by_k[1]["independent_seconds"], "<", 2.0),
        # By k=8 the shared Gram is a clear win in time and memory (each
        # independent stream re-pays d² log T), and the win grows with k.
        check("primo.k8_ingest_speedup", by_k[8]["ingest_speedup"], ">", cfg["k8_speedup_bar"]),
        check("primo.k8_memory_ratio", by_k[8]["memory_ratio"], ">", 2.0),
        check("primo.k8_over_k2_speedup",
              by_k[8]["ingest_speedup"] / by_k[2]["ingest_speedup"], ">", 1.0),
    ]
    return (_config(cfg, refresh_every=refresh, shards=shards, tenant_counts=tenant_counts,
                    baseline="k independent ShardedStreams at (eps/k, delta/k) each"),
            {"sweep": rows}, checks)


def sketch(cfg: dict):
    """The sketch-noise backend (one Gaussian draw per routed block)
    against the dense-Φ projected tier on both ingest tiers; utility per ε
    of the moment, projected and sketch backends at the base dimension
    (the sketch trades Θ(log T) tree-noise variance per release for
    blocks-per-shard · σ²_block, so the rows record the trade)."""
    T, dims, m, shards = cfg["T"], cfg["dims"], cfg["m"], 4
    # Merge + PGD + lift is identical post-processing for every backend,
    # so a sparse cadence keeps the run about ingest, not solving.
    refresh, epsilons = 4096, [0.5, 2.0, 8.0, 32.0]
    streams = {dim: make_dense_stream(T, dim, noise_std=0.05, rng=0) for dim in dims}

    def server(dim, backend, budget=None, tier="fast"):
        knobs = {} if backend == "moment" else dict(
            backend=backend, x_domain=L2Ball(dim), projected_dim=min(m, dim))
        return ShardedStream(L2Ball(dim), budget or bench_budget(), shards=shards, horizon=T,
                             ingest=tier, refresh_every=refresh, iteration_cap=ITERATION_CAP,
                             rng=1, **knobs)

    throughput = []
    for dim in dims:
        stream = streams[dim]
        # The ambient moment backend keeps (d, d) trees: it runs at the
        # base dimension for scale; the large-d sweep is about the two
        # shared-Φ tiers.
        backends = ("moment", "projected", "sketch") if dim == dims[0] else ("projected", "sketch")
        for tier in ("exact", "fast"):
            seconds = {b: _best_seconds(lambda: server(dim, b, tier=tier), stream.xs, stream.ys)
                       for b in backends}
            throughput.extend({"d": dim, "ingest": tier, "backend": b, **_rate(T, seconds[b]),
                               "speedup_vs_projected": seconds["projected"] / seconds[b]}
                              for b in backends)
    utility = []
    base = streams[dims[0]]
    for epsilon in epsilons:
        for backend in ("moment", "projected", "sketch"):
            served = server(dims[0], backend, budget=PrivacyParams(epsilon, DELTA))
            _feed(served, base.xs, base.ys)
            theta = served.flush().theta
            served.close()
            utility.append({"epsilon": epsilon, "backend": backend,
                            "theta_error": float(np.linalg.norm(theta - base.theta_star))})

    def sketch_min(tier):
        return min(r["speedup_vs_projected"] for r in throughput if r["backend"] == "sketch"
                   and r["ingest"] == tier and r["d"] >= cfg["bar_min_d"])

    checks = [
        check("sketch.nonfinite_utility_rows",
              sum(not np.isfinite(r["theta_error"]) for r in utility), "==", 0),
        # Exact tier: the bar is a real multiple because the sketch draws
        # one Gaussian per block at bit-exact fidelity.  Since tree noise
        # became node-addressed the projected exact tier costs about the
        # same, and this check fails at full scale; the bound is kept and
        # the failure recorded (see ROADMAP, carried leads).
        check("sketch.exact_speedup_vs_projected_min", sketch_min("exact"), ">=",
              cfg["exact_bar"]),
        # Fast tier: the tree draws only surviving-node noise, ~once per
        # block, so the two are within timer noise; the bar only rules out
        # a real regression.
        check("sketch.fast_speedup_vs_projected_min", sketch_min("fast"), ">=", cfg["fast_bar"]),
    ]
    return (_config(cfg, shards=shards, refresh_every=refresh, utility_epsilons=epsilons),
            {"throughput": throughput, "utility": utility}, checks)


def _naive_split_error(stream, cfg, epsilon, releases, rng) -> float:
    """Naive split-budget incremental 2SLS, scored at its last release.

    The two stages are privatized independently: stage 1 (X on Z) and
    stage 2 (y on the fitted design) each get ε/2, and each re-releases
    its own two moments with fresh Gaussian noise at every one of the R
    refresh points (basic composition: ``(ε/(4R), δ/(4R))`` per release),
    so the instrument information is paid for twice.  Only the final
    release matters for the final estimate.
    """
    d, p = cfg["d"], cfg["p"]
    eps_release, delta_release = epsilon / (4.0 * releases), DELTA / (4.0 * releases)
    sigma = 2.0 * np.sqrt(2.0 * np.log(2.0 / delta_release)) / eps_release
    z, x, y = stream.zs, stream.xs, stream.ys
    zz = z.T @ z + rng.normal(0.0, sigma, (p, p))
    zx = z.T @ x + rng.normal(0.0, sigma, (p, d))
    first_stage = np.linalg.pinv(zz, hermitian=True) @ zx
    # Stage 2 on the fitted design x̂ = Bᵀz, rows clipped back to the unit
    # ball so the Δ₂ = 2 calibration holds.
    fitted = z @ first_stage
    fitted /= np.maximum(1.0, np.linalg.norm(fitted, axis=1))[:, None]
    gram2 = fitted.T @ fitted + rng.normal(0.0, sigma, (d, d))
    cross2 = y @ fitted + rng.normal(0.0, sigma, d)
    theta = L2Ball(d).project(np.linalg.pinv(gram2, hermitian=True) @ cross2)
    return float(np.linalg.norm(theta - stream.theta_star))


def iv(cfg: dict):
    """Private 2SLS behind ``backend="iv"`` (the three-entry ZᵀZ, ZᵀX, Zᵀy
    bundle over stacked ``[z | x]`` rows): ingest over K on both tiers;
    tree-moment utility against a naive split-budget baseline at the same
    total ``(ε, δ)``, with the non-private 2SLS error as the floor."""
    T, d, p = cfg["T"], cfg["d"], cfg["p"]
    # The throughput rows refresh sparsely (the two-stage solve is the
    # same post-processing for every K).  The utility comparison promises
    # an estimate every 256 steps: the tree's noise does not depend on
    # that cadence, the naive baseline pays per release.
    refresh, naive_refresh, polish, epsilons = 1024, 256, 8, [2.0, 8.0, 32.0]
    stream = make_iv_stream(T, d, p, instrument_strength=0.85, endogeneity=0.6, noise_std=0.02,
                            rng=0)
    stacked, releases = stream.stacked(), max(1, T // naive_refresh)
    throughput = []
    for tier in ("exact", "fast"):
        seconds = {k: _best_seconds(lambda: ShardedStream(
            L2Ball(d), PrivacyParams(8.0, DELTA), k, horizon=T, backend="iv", instruments=p,
            ingest=tier, refresh_every=refresh, iteration_cap=ITERATION_CAP, rng=1),
            stacked, stream.ys) for k in (1, 2, 4)}
        throughput.extend({"shards": k, "ingest": tier, **_rate(T, s),
                           "speedup_vs_k1": seconds[1] / s} for k, s in seconds.items())
    floor = float(np.linalg.norm(
        two_stage_least_squares(stream.zs, stream.xs, stream.ys) - stream.theta_star))
    naive_rng = np.random.default_rng(13)
    utility = []
    for epsilon in epsilons:
        tree = PrivIncIV(horizon=T, constraint=L2Ball(d), instruments=p,
                         params=PrivacyParams(epsilon, DELTA), iteration_cap=ITERATION_CAP, rng=7)
        tree.observe_batch(stream.zs, stream.xs, stream.ys)
        for _ in range(polish):  # post-hoc refreshes are pure post-processing
            theta = tree.refresh()
        # One closed-form solve per draw is cheap, so average five: a
        # single pinv through near-singular noisy moments is too noisy.
        naive = np.mean([_naive_split_error(stream, cfg, epsilon, releases, naive_rng)
                         for _ in range(5)])
        utility.append({"epsilon": epsilon,
                        "tree_error": float(np.linalg.norm(theta - stream.theta_star)),
                        "naive_split_error": float(naive), "non_private_error": floor})
    checks = [check("iv.nonfinite_utility_rows",
                    sum(not np.isfinite([r["tree_error"], r["naive_split_error"]]).all()
                        for r in utility), "==", 0)]
    if cfg["check_beats_naive"]:
        # The structural gap: R fresh-noise releases at ε/(4R) each put a
        # Θ(R/ε) noise scale on the final moments, against the tree's
        # polylog node count; at R = T/256 ≫ log T the tree wins at every ε.
        checks.append(check("iv.naive_over_tree_error_min",
                            min(r["naive_split_error"] / r["tree_error"] for r in utility),
                            ">", 1.0))
    return (_config(cfg, epsilon=8.0, shard_counts=[1, 2, 4], refresh_every=refresh,
                    naive_refresh=naive_refresh, releases=releases, polish_refreshes=polish,
                    utility_epsilons=epsilons),
            {"throughput": throughput, "utility": utility}, checks)


def drift(cfg: dict):
    """Decayed (``decay``) and windowed (``window``) servers against the
    static prefix server on a piecewise-stationary stream: the static
    server converges to a stale average of every segment seen.  Also the
    ingest overhead the knobs add on both tiers."""
    T, d, segments, shards = cfg["T"], cfg["d"], 4, 2
    # The decayed release's signal is capped at 1/(1−γ) per shard while
    # its tree noise still scales with the horizon, so tracking needs an
    # elevated ε and γ close to 1.
    epsilon, decay, window = 128.0, 0.995, max(BATCH, T // 16)
    stream, thetas = make_drift_stream(T, d, n_segments=segments, noise_std=0.05, rng=42)
    bounds = np.linspace(0, T, segments + 1, dtype=int)

    def server(**knobs):
        return ShardedStream(L2Ball(d), PrivacyParams(epsilon, DELTA), shards=shards, horizon=T,
                             refresh_every=BATCH, iteration_cap=ITERATION_CAP, rng=1, **knobs)

    tracking = []
    for label, knobs in (("static", {}), ("decayed", {"decay": decay}),
                         ("windowed", {"window": window})):
        tracked, errors = server(**knobs), []
        try:
            start = time.perf_counter()
            for s, e in _blocks(T):
                tracked.observe_batch(stream.xs[s:e], stream.ys[s:e])
                segment = min(int(np.searchsorted(bounds, e - 1, side="right")) - 1, segments - 1)
                errors.append(float(np.linalg.norm(tracked.current_estimate() - thetas[segment])))
            tracked.flush()
            seconds = time.perf_counter() - start
        finally:
            tracked.close()
        tracking.append({"server": label, "mean_tracking_error": float(np.mean(errors)),
                         "run_seconds": seconds})
    for row in tracking:
        row["vs_static"] = row["mean_tracking_error"] / tracking[0]["mean_tracking_error"]
    # Ingest overhead of the knobs on both tiers.  A finite window cannot
    # run the fast tier (pre-reduced totals cannot split at chunk expiry).
    overhead = []
    for label, tier, knobs in (("plain fast", "fast", {}),
                               ("decayed fast", "fast", {"decay": decay}),
                               ("plain exact", "exact", {}),
                               ("decayed exact", "exact", {"decay": decay}),
                               ("windowed exact", "exact", {"window": window})):
        seconds = _best_seconds(lambda: server(ingest=tier, **knobs), stream.xs, stream.ys, 1)
        plain = next((r["seconds"] for r in overhead if r["config"] == f"plain {tier}"), seconds)
        overhead.append({"config": label, "ingest": tier, **_rate(T, seconds),
                         "overhead_vs_plain": seconds / plain})
    checks = [check("drift.decayed_over_static_error", tracking[1]["vs_static"], "<", 1.0)]
    return (_config(cfg, epsilon=epsilon, segments=segments, shards=shards, refresh_every=BATCH,
                    decay=decay, window=window),
            {"tracking_regret": tracking, "ingest_overhead": overhead}, checks)


SCENARIOS = {fn.__name__: fn for fn in (sharded, projected, transports, read_fanout, primo,
                                          sketch, iv, drift)}


@pytest.mark.parametrize("scenario", list(SCALES))
def test_serving(report, scenario):
    """One scenario: measure, write its section, then fail on any failed check."""
    report.finish(scenario, *SCENARIOS[scenario](dict(SCALES[scenario][report.scale])))
