"""Workload declarations and the closed-loop serving client.

One single-threaded client drives the public serving API: it sends the next
block only after the previous call returns, reads the served estimate
through its own ``ReaderHandle`` after every call, and times everything
with ``perf_counter_ns``.  Inputs are generated from the seed before any
timer starts; the fronts only ever see the generated arrays.
"""

from __future__ import annotations

import gc
import os
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from repro import L2Ball, MultiTenantStream, PrivacyParams, ShardedStream
from repro.data import make_dense_stream

import gate

DIM = 32
BLOCK = 64
PARAMS = PrivacyParams(16.0, 1e-6)
ITERATION_CAP = 40
#: Tree capacity: far more points than any run sends, so a run is bounded
#: by its time budget, not by the horizon.
HORIZON = 1 << 24
#: Points generated per seed; the client cycles through them in blocks.
POOL = 1 << 16
#: Reads in the fixed burst taken after every call.
READ_BURST = 32
#: Untimed reads before each burst, so the burst prices the read path and
#: not the cache misses the preceding call left behind.
WARM_READS = 8
#: Consecutive calls that make one sample of every per-call metric (well
#: under a second of serving), each scaled by the chunk's own calibration.
CHUNK_CALLS = 256
#: Size of the reference work ``calibrate()`` times after every call.
CAL_ROUNDS = 4
#: Calibrations taken before and after each timed set-up and close.
CAL_BURST = 64
#: What one ``ReadProbe.current()`` takes at the speed ``read_ns`` is
#: scaled to (about this host's fast speed).
PROBE_REFERENCE_NS = 100
#: What the reference work takes at the speed every time metric is scaled
#: to (about this host's fast speed).  A time metric is the measured time
#: times ``CAL_REFERENCE_NS`` over the calibration measured beside it, so a
#: host that slows everything by one factor reads the same.
CAL_REFERENCE_NS = 15_000
#: Consecutive failed calls after which the run stops sending.
MAX_FAILURES = 50


@dataclass(frozen=True)
class Workload:
    """One serving configuration (the "why" of each lives in BENCHMARK.json)."""

    name: str
    transport: str
    shards: int
    ingest: str
    refresh_every: int
    #: Blocks per ``observe_group`` call; 1 means ``observe_batch``.
    group: int = 1
    #: Tenants of a ``MultiTenantStream``; 0 means a ``ShardedStream``.
    tenants: int = 0
    #: Fronts set up (and closed) per run for the setup/close statistics.
    setup_reps: int = 5


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-ingest", "thread", 4, "exact", 512, setup_reps=101),
        Workload("fast-refresh", "thread", 4, "fast", BLOCK, setup_reps=101),
        Workload("tcp-group", "tcp", 2, "fast", 1024, group=2, setup_reps=3),
        Workload("tenants-process", "process", 2, "fast", 512, tenants=8, setup_reps=13),
    )
}


@dataclass
class Inputs:
    xs: np.ndarray
    #: ``(POOL,)`` outcomes, or ``(POOL, tenants)`` for a multi-tenant front.
    ys: np.ndarray


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """The seed's unit-norm dense stream; one outcome column per tenant."""
    if not workload.tenants:
        stream = make_dense_stream(POOL, DIM, rng=np.random.default_rng([seed, 0]))
        return Inputs(stream.xs, stream.ys)
    thetas = np.random.default_rng([seed, 1]).normal(size=(workload.tenants, DIM))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    # A fresh generator from the same seed per tenant: identical covariates,
    # one ground truth per outcome column.
    streams = [
        make_dense_stream(POOL, DIM, theta_star=theta, rng=np.random.default_rng([seed, 0]))
        for theta in thetas
    ]
    return Inputs(streams[0].xs, np.stack([s.ys for s in streams], axis=1))


def build_front(workload: Workload, seed: int):
    """Construct the workload's serving front (the timed set-up work)."""
    common = dict(
        horizon=HORIZON,
        refresh_every=workload.refresh_every,
        ingest=workload.ingest,
        transport=workload.transport,
        iteration_cap=ITERATION_CAP,
        rng=np.random.default_rng([seed, 2]),
    )
    if workload.tenants:
        return MultiTenantStream(
            L2Ball(DIM), PARAMS, workload.tenants, workload.shards, **common
        )
    return ShardedStream(L2Ball(DIM), PARAMS, workload.shards, **common)


def open_reader(workload: Workload, front):
    """The client's reader: the front's own, or tenant 0's on a tenant front."""
    if workload.tenants:
        return front.tenant("tenant-0").reader()
    return front.reader()


_CAL_VECTOR = np.full(DIM, DIM**-0.5)


def _reference_work() -> None:
    gram = np.zeros((DIM, DIM))
    for _ in range(CAL_ROUNDS):
        gram += np.outer(_CAL_VECTOR, _CAL_VECTOR)


def calibrate() -> int:
    """Time a fixed piece of reference work: the host's speed right now.

    Rank-one Gram updates at d = 32, the small-array numpy work the serving
    path is made of; of the kernels tried, its cost tracked the workloads'
    per-call cost most closely.  Run once untimed to warm the caches the
    preceding call evicted, then timed.  Returns nanoseconds.
    """
    _reference_work()
    start = time.perf_counter_ns()
    _reference_work()
    return time.perf_counter_ns() - start


class ReadProbe:
    """A reader-shaped pure-Python object: the reference for read costs.

    ``current()`` does what a handle's fast path does (a closed check, a
    counter bump, an attribute chase) and nothing of the library's.  A read
    is slowed by the host and by the interpreter's layout in this process
    (fresh processes read 175 or 255 ns) as much as the probe is: the ratio
    held at 1.83 ± 0.07 over twelve processes.
    """

    __slots__ = ("closed", "source", "reads", "snapshot")

    def __init__(self) -> None:
        self.closed = False
        self.source = self
        self.reads = 0
        self.snapshot = None

    def current(self):
        if self.closed:
            raise RuntimeError("closed probe")
        self.reads += 1
        return self.source.snapshot


def calibrate_burst() -> int:
    """Median of ``CAL_BURST`` calibrations, taken around a set-up or close."""
    return int(np.median([calibrate() for _ in range(CAL_BURST)]))


def idle_ns() -> int:
    """Idle time so far of the CPU this process is pinned to (``/proc/stat``).

    Clock-tick resolution (10 ms at the usual 100 Hz): enough to tell a
    timed-out wait of seconds from work.
    """
    label = f"cpu{min(os.sched_getaffinity(0))}"
    with open("/proc/stat") as stat:
        for line in stat:
            fields = line.split()
            if fields[0] == label:
                ticks = int(fields[4]) + int(fields[5])  # idle + iowait
                return ticks * 1_000_000_000 // os.sysconf("SC_CLK_TCK")
    return 0


def scale(elapsed: float, calibration: float, idle: float = 0) -> float:
    """``elapsed`` nanoseconds at the reference speed.

    The part the pinned CPU sat idle was spent waiting (a timeout, say), not
    computing, so it stays as measured.
    """
    idle = min(max(idle, 0), elapsed)
    return (elapsed - idle) * CAL_REFERENCE_NS / calibration + idle


def set_up(workload: Workload, seed: int):
    """Constructor call until the first estimate is readable (the timed set-up).

    Returns the front and its reader handle.
    """
    front = build_front(workload, seed)
    handle = open_reader(workload, front)
    handle.current()
    return front, handle


@dataclass
class Lifecycle:
    """Set-up and close samples, one per front.

    Each sample is ``(elapsed, calibration, idle)`` in nanoseconds: the
    ``perf_counter_ns`` time, the mean of a calibration burst just before
    and one just after, and the pinned CPU's idle time in between.
    """

    workload: Workload
    seed: int
    setups: list
    closes: list

    def _timed(self, samples: list, action):
        before = calibrate_burst()
        idle = idle_ns()
        start = time.perf_counter_ns()
        result = action()
        end = time.perf_counter_ns()
        idle = idle_ns() - idle
        samples.append((end - start, (before + calibrate_burst()) / 2, idle))
        return result, (start, end)

    def set_up(self):
        """Set up one front, timing it; returns the front and its reader."""
        (front, handle), _ = self._timed(self.setups, lambda: set_up(self.workload, self.seed))
        return front, handle

    def close(self, front):
        """Close one front, timing it; returns its ``(start, end)`` in ns."""
        return self._timed(self.closes, front.close)[1]

    def throwaway(self) -> None:
        """Set up and close one extra front, timing both."""
        front, handle = self.set_up()
        handle.close()
        self.close(front)


@dataclass
class ServeLog:
    """What the closed loop observed."""

    points: int = 0
    calls: int = 0
    failed_calls: int = 0
    #: Crossing calls whose refresh was not visible to the client's reader.
    unseen_refreshes: int = 0
    first_ns: int = 0
    flushed_ns: int = 0
    #: Time spent in lifecycle pauses, excluded from the ingest window.
    paused_ns: int = 0
    #: Per successful call: the call alone, and the whole loop turn (call,
    #: freshness read, warm reads and the timed burst).
    call_ns: array = field(default_factory=lambda: array("q"))
    turn_ns: array = field(default_factory=lambda: array("q"))
    fresh_ns: array = field(default_factory=lambda: array("q"))
    #: Index into ``call_ns`` of the call each ``fresh_ns`` sample belongs to.
    fresh_call: array = field(default_factory=lambda: array("q"))
    burst_ns: array = field(default_factory=lambda: array("q"))
    #: One ``calibrate()`` per successful call, taken after its turn, and
    #: one timed burst of ``ReadProbe`` reads.
    cal_ns: array = field(default_factory=lambda: array("q"))
    probe_ns: array = field(default_factory=lambda: array("q"))

    @property
    def window_s(self) -> float:
        """Serving time from the first ingest call until ``flush()`` returned."""
        return (self.flushed_ns - self.first_ns - self.paused_ns) / 1e9


def serve(
    workload: Workload,
    front,
    handle,
    inputs: Inputs,
    seconds: float,
    pauses: int = 0,
    pause=None,
    calibrated: bool = True,
) -> ServeLog:
    """Drive the front for ``seconds`` of serving time, then ``flush()``.

    ``pause()`` runs ``pauses`` times at even intervals between calls — the
    run's throwaway set-ups, spread over the run so that their median does
    not hang on one stretch of host speed.  Paused time is not serving time.
    With ``calibrated``, every turn ends with one ``calibrate()``.
    """
    per_call = BLOCK * workload.group
    blocks = [
        (inputs.xs[lo : lo + BLOCK], inputs.ys[lo : lo + BLOCK])
        for lo in range(0, len(inputs.xs) - BLOCK + 1, BLOCK)
    ]
    if workload.group > 1:
        calls = [
            ([blocks[(i + j) % len(blocks)] for j in range(workload.group)],)
            for i in range(0, len(blocks), workload.group)
        ]
        call = front.observe_group
    else:
        calls = blocks
        call = front.observe_batch
    max_calls = HORIZON // per_call
    log = ServeLog()
    read = handle.current
    probe = ReadProbe().current
    version = read().version
    clock = time.perf_counter_ns
    streak = 0
    interval = int(seconds * 1e9) // (pauses + 1)
    gc.collect()
    log.first_ns = clock()
    deadline = log.first_ns + int(seconds * 1e9)
    next_pause = log.first_ns + interval
    while log.calls < max_calls:
        args = calls[log.calls % len(calls)]
        start = clock()
        if pauses and start >= next_pause:
            pause()
            pauses -= 1
            resumed = clock()
            log.paused_ns += resumed - start
            deadline += resumed - start
            next_pause = resumed + interval
            start = clock()
        if start >= deadline:
            break
        log.calls += 1
        try:
            call(*args)
        except Exception:
            log.failed_calls += 1
            streak += 1
            if streak >= MAX_FAILURES:
                break
            continue
        done = clock()
        streak = 0
        entry = read()
        seen = clock()
        before = log.points
        log.points += per_call
        log.call_ns.append(done - start)
        if before // workload.refresh_every < log.points // workload.refresh_every:
            if entry.version > version:
                log.fresh_ns.append(seen - start)
                log.fresh_call.append(len(log.call_ns) - 1)
            else:
                log.unseen_refreshes += 1
        version = entry.version
        for _ in range(WARM_READS):
            read()
        burst = clock()
        for _ in range(READ_BURST):
            read()
        end = clock()
        log.burst_ns.append(end - burst)
        log.turn_ns.append(end - start)
        if calibrated:
            log.cal_ns.append(calibrate())
            for _ in range(WARM_READS):
                probe()
            burst = clock()
            for _ in range(READ_BURST):
                probe()
            log.probe_ns.append(clock() - burst)
    front.flush()
    log.flushed_ns = clock()
    return log


def check_outputs(workload: Workload, front, inputs: Inputs, points: int):
    """Run the correctness gate on a flushed front; returns the check list."""
    checks = gate.check_front(front, points, PARAMS)
    radius = front.constraint.radius
    if workload.tenants:
        for j, name in enumerate(front.tenants()):
            entry = front.tenant(name).current_served()
            moments = gate.sent_moments(inputs.xs, inputs.ys[:, j], points)
            checks += gate.check_estimate(name, entry.theta, entry.covered_steps, moments, radius)
    else:
        entry = front.current_served()
        moments = gate.sent_moments(inputs.xs, inputs.ys, points)
        checks += gate.check_estimate("served", entry.theta, entry.covered_steps, moments, radius)
    return checks
