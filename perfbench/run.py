"""Serving benchmark: one closed-loop client against the public serving API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact-ingest --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps each
serving layer's entry points (``spans.py``) and prints the per-layer
metrics instead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a fuller record (the
environment, sample counts, every check) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Pin BLAS threads before numpy loads; spawned shard workers inherit this.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

if not (SOURCE / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no library source at {SOURCE}; run from a full checkout")
sys.path.insert(0, str(SOURCE))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from dataclasses import asdict  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Metrics a process-transport run cannot see: that work runs in the shard
#: worker interpreters.  Reported as -1 ("unmeasured"), never as 0.
CHILD_SIDE = (
    "shards.ingests", "shards.busy_s", "shards.self_s", "shards.share",
    "tree.advances", "tree.rows", "tree.busy_s", "tree.self_s", "tree.share",
    "tenancy.shard_ingest_s", "transport.wire_s",
)
UNMEASURED = -1


def source_digest() -> str:
    """SHA-256 over the library source, the commit stand-in for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def environment(workload, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": asdict(workload),
        "fixed": {
            "dim": workloads.DIM, "block": workloads.BLOCK,
            "epsilon": workloads.PARAMS.epsilon, "delta": workloads.PARAMS.delta,
            "iteration_cap": workloads.ITERATION_CAP, "horizon": workloads.HORIZON,
            "pool": workloads.POOL, "read_burst": workloads.READ_BURST,
            "chunk_calls": workloads.CHUNK_CALLS,
            "cal_rounds": workloads.CAL_ROUNDS,
            "cal_reference_ns": workloads.CAL_REFERENCE_NS,
        },
    }


def largest_child_peak_kib() -> int:
    """Peak RSS (``VmHWM``) of this process's largest live child, in KiB.

    Read from ``/proc`` while the shard workers still run: a reaped child's
    ``ru_maxrss`` counts the image it forked from before ``exec``.
    """
    own = str(os.getpid())
    peak = 0
    for status in Path("/proc").glob("[0-9]*/status"):
        try:
            fields = dict(
                line.split(":", 1) for line in status.read_text().splitlines() if ":" in line
            )
        except OSError:  # exited while we looked
            continue
        if fields.get("PPid", "").strip() == own and "VmHWM" in fields:
            peak = max(peak, int(fields["VmHWM"].split()[0]))
    return peak


def peak_rss_mb(child_kib: int) -> float:
    """Peak RSS of this client plus its largest shard worker (KiB to MiB)."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + child_kib) / 1024.0


def tails(log) -> dict:
    """The p99 latencies: printed and recorded, but not declared metrics.

    On a host that switches speed every few seconds the tail snaps between
    modes from run to run (exact-ingest block p99 3.5-6.3 ms over ten
    seeds), beyond any bound a regression check could hold it to.
    """
    ms = 1e-6
    return {
        "block_ms_p99": (float(np.percentile(log.call_ns, 99)) * ms, "ms"),
        "fresh_ms_p99": (float(np.percentile(log.fresh_ns, 99)) * ms, "ms"),
    }


def chunk_samples(log, per_call: int, scaled: bool = True) -> dict:
    """One sample of each per-call time metric per chunk of consecutive calls.

    With ``scaled``, each sample is scaled to the reference speed: the read
    cost by the chunk's fastest ``ReadProbe`` burst, the rest by the chunk's
    mean calibration.  Otherwise every sample is the raw time.
    """
    calls = np.asarray(log.call_ns, dtype=float)
    turns = np.asarray(log.turn_ns, dtype=float)
    bursts = np.asarray(log.burst_ns, dtype=float) / workloads.READ_BURST
    probes = np.asarray(log.probe_ns, dtype=float) / workloads.READ_BURST
    fresh = np.asarray(log.fresh_ns, dtype=float)
    fresh_chunk = np.asarray(log.fresh_call, dtype=int) // workloads.CHUNK_CALLS
    cal = np.asarray(log.cal_ns, dtype=float)
    # Calls past the last whole chunk fold into it.
    chunks = max(1, len(calls) // workloads.CHUNK_CALLS)
    fresh_chunk = np.minimum(fresh_chunk, chunks - 1)
    samples = {"turn": [], "block": [], "fresh": [], "read": []}
    bounds = np.arange(chunks + 1) * workloads.CHUNK_CALLS
    bounds[-1] = len(calls)
    for i in range(chunks):
        lo, hi = bounds[i], bounds[i + 1]
        scale, read_scale = 1.0, 1.0
        if scaled:
            scale = workloads.CAL_REFERENCE_NS / cal[lo:hi].mean()
            read_scale = workloads.PROBE_REFERENCE_NS / probes[lo:hi].min()
        samples["turn"].append(turns[lo:hi].mean() * scale)
        samples["block"].append(calls[lo:hi].mean() * scale)
        # The burst that the transport's own threads did not preempt.
        samples["read"].append(bursts[lo:hi].min() * read_scale)
        ours = fresh[fresh_chunk == i]
        if len(ours):
            samples["fresh"].append(ours.mean() * scale)
    return samples


def scaled_median(samples) -> float:
    """Median over ``Lifecycle`` samples, scaled, in seconds."""
    return float(np.median([workloads.scale(*sample) for sample in samples])) / 1e9


def end_to_end(workload, log, setups, closes, child_kib) -> dict:
    ms = 1e-6
    per_call = workloads.BLOCK * workload.group
    chunks = chunk_samples(log, per_call)
    return {
        "setup_s": (scaled_median(setups), "s"),
        "ingest_pts_per_s": (per_call / float(np.median(chunks["turn"])) * 1e9, "points/s"),
        "block_ms": (float(np.median(chunks["block"])) * ms, "ms"),
        "fresh_ms": (float(np.median(chunks["fresh"])) * ms, "ms"),
        "read_ns": (float(np.median(chunks["read"])), "ns"),
        "close_s": (scaled_median(closes), "s"),
        "peak_rss_mb": (peak_rss_mb(child_kib), "MB"),
    }


def unscaled(workload, log, setups, closes) -> dict:
    """The same time metrics at the host's own speed: printed, not declared."""
    ms = 1e-6
    per_call = workloads.BLOCK * workload.group
    chunks = chunk_samples(log, per_call, scaled=False)
    return {
        "raw.setup_s": (float(np.median([t for t, *_ in setups])) / 1e9, "s"),
        "raw.ingest_pts_per_s": (per_call / float(np.median(chunks["turn"])) * 1e9, "points/s"),
        "raw.block_ms": (float(np.median(chunks["block"])) * ms, "ms"),
        "raw.fresh_ms": (float(np.median(chunks["fresh"])) * ms, "ms"),
        "raw.read_ns": (float(np.median(chunks["read"])), "ns"),
        "raw.close_s": (float(np.median([t for t, *_ in closes])) / 1e9, "s"),
        "calibration_ns": (float(np.median(log.cal_ns)), "ns"),
    }


def per_layer(workload, agg, log, reader_stats, state_floats) -> dict:
    from spans import LAYERS

    window_s = log.window_s
    counts = agg["counts"]

    def busy(layer, *names):
        return sum(agg["entry_busy_ns"].get((layer, n), 0) for n in names) / 1e9

    def calls(layer, *names):
        return sum(agg["entry_calls"].get((layer, n), 0) for n in names)

    def closing(layer, name):
        return agg["closing_ns"].get((layer, name), 0) / 1e9

    layer_self = {
        layer: agg["layer_self_ns"].get(layer, 0) / 1e9 for layer in LAYERS
    }
    shards_busy = agg["layer_busy_ns"].get("shards", 0) / 1e9
    rpc_s = busy("transport", "ingest", "released")
    if workload.transport == "tcp":
        wire_s = rpc_s - shards_busy
    else:
        wire_s = 0.0
    reads = reader_stats["reads"]
    values = {
        "stream.blocks": (counts.get("stream.blocks", 0), "count"),
        "stream.busy_s": (agg["layer_busy_ns"].get("stream", 0) / 1e9, "s"),
        "stream.self_s": (layer_self["stream"], "s"),
        "shards.ingests": (counts.get("shards.ingests", 0), "count"),
        "shards.busy_s": (shards_busy, "s"),
        "shards.self_s": (layer_self["shards"], "s"),
        "tree.advances": (calls("tree", "advance_batch", "advance_sum"), "count"),
        "tree.rows": (counts.get("tree.rows", 0), "count"),
        "tree.busy_s": (busy("tree", "advance_batch", "advance_sum"), "s"),
        "tree.merges": (calls("tree", "merge_released"), "count"),
        "tree.merge_s": (busy("tree", "merge_released"), "s"),
        "tree.state_floats": (state_floats, "floats"),
        "tree.self_s": (layer_self["tree"], "s"),
        "incremental_regression.refreshes": (
            calls("incremental_regression", "refresh_from_released"), "count"),
        "incremental_regression.refresh_s": (
            busy("incremental_regression", "refresh_from_released"), "s"),
        "incremental_regression.self_s": (layer_self["incremental_regression"], "s"),
        "noisy_pgd.runs": (calls("noisy_pgd", "run"), "count"),
        "noisy_pgd.iterations": (counts.get("noisy_pgd.iterations", 0), "count"),
        "noisy_pgd.busy_s": (busy("noisy_pgd", "run"), "s"),
        "noisy_pgd.self_s": (layer_self["noisy_pgd"], "s"),
        "readers.publishes": (calls("readers", "publish"), "count"),
        "readers.publish_s": (busy("readers", "publish"), "s"),
        "readers.reads": (reads, "count"),
        "readers.snapshot_hit_ratio": (
            reader_stats["snapshot_hits"] / reads if reads else 0.0, "ratio"),
        "readers.self_s": (layer_self["readers"], "s"),
        "transport.rpcs": (calls("transport", "ingest", "released"), "count"),
        "transport.rpc_s": (rpc_s, "s"),
        "transport.wire_s": (wire_s, "s"),
        "transport.shutdown_s": (closing("transport", "shutdown"), "s"),
        "transport.self_s": (layer_self["transport"], "s"),
        "netserve.frames": (calls("netserve", "send_frame"), "count"),
        "netserve.bytes": (counts.get("netserve.bytes", 0), "bytes"),
        "netserve.send_s": (busy("netserve", "send_frame"), "s"),
        "netserve.listener_close_s": (closing("netserve", "listener_close"), "s"),
        "netserve.self_s": (layer_self["netserve"], "s"),
        "tenancy.blocks": (counts.get("tenancy.blocks", 0), "count"),
        "tenancy.self_s": (layer_self["tenancy"], "s"),
        "tenancy.shard_ingest_s": (busy("tenancy", "shard_ingest"), "s"),
    }
    for layer in LAYERS:
        values[f"{layer}.share"] = (layer_self[layer] / window_s, "fraction")
    values["traced.ingest_pts_per_s"] = (log.points / window_s, "points/s")
    values["traced.spans"] = (agg["spans"], "count")
    if workload.transport == "process":
        for name in CHILD_SIDE:
            values[name] = (UNMEASURED, values[name][1])
    return values


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    env = environment(workload, args)
    inputs = workloads.make_inputs(workload, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        lifecycle = workloads.Lifecycle(workload, args.seed, [], [])
        front, handle = lifecycle.set_up()
        try:
            if tracer:
                tracer.counts.clear()
            log = workloads.serve(
                workload, front, handle, inputs, args.seconds,
                pauses=0 if tracer else workload.setup_reps - 1,
                pause=lifecycle.throwaway,
                calibrated=not tracer,
            )
            counts = dict(tracer.counts) if tracer else {}
            checks = workloads.check_outputs(workload, front, inputs, log.points)
            reader_stats = handle.stats()
            state_floats = front.memory_floats() if tracer else 0
            child_kib = largest_child_peak_kib()
        finally:
            handle.close()
            close_start, close_end = lifecycle.close(front)
    finally:
        if tracer:
            tracer.restore()
    failed_checks = [check for check in checks if not check[1]]
    failed = log.failed_calls + log.unseen_refreshes + len(failed_checks)
    attempted = log.calls + len(checks)
    if tracer:
        agg = tracer.aggregate((log.first_ns, log.flushed_ns), (close_start, close_end))
        agg["counts"] = counts
        metrics = per_layer(workload, agg, log, reader_stats, state_floats)
        undeclared = {}
    else:
        metrics = end_to_end(workload, log, lifecycle.setups, lifecycle.closes, child_kib)
        undeclared = {**tails(log),
                      **unscaled(workload, log, lifecycle.setups, lifecycle.closes)}
    record = {
        "environment": env,
        "samples": {
            "calls": len(log.call_ns),
            "refreshes_seen": len(log.fresh_ns),
            "read_bursts": len(log.burst_ns),
            "setups": len(lifecycle.setups),
            "closes": len(lifecycle.closes),
            "points": log.points,
        },
        "checks": [{"check": c, "ok": ok, "detail": d} for c, ok, d in checks],
        "failed_calls": log.failed_calls,
        "unseen_refreshes": log.unseen_refreshes,
        "error_rate": failed / attempted,
        "undeclared": {name: {"value": v, "unit": u} for name, (v, u) in undeclared.items()},
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        tracer.write(OUT / f"{stem}-spans.json.gz", (log.first_ns, log.flushed_ns))
    return record


def stop_children() -> None:
    """End and reap every process this run started, on every path out.

    ``front.close()`` joins the shard workers; this catches any a failed
    run left behind, then stops the resource tracker that the ``spawn``
    start method launches on first use.  The tracker is not a
    ``multiprocessing`` child, so nothing else waits for it, and without
    this it outlives the run as an unreaped process.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for the client and every thread and worker process it starts:
    # thread hand-offs across CPUs made tcp-group's rates bimodal run to run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        record = run(args)
    finally:
        stop_children()
    env = record["environment"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"source {env['source_sha256'][:12]} cpus {env['cpu_count']} "
          f"python {env['python']} numpy {env['numpy']} blas_threads {env['blas_threads']}")
    for name, metric in record["result"]["metrics"].items():
        value = "unmeasured" if metric["value"] == UNMEASURED else f"{metric['value']:.6g}"
        print(f"  {name:36s} {value:>14s} {metric['unit']}")
    for name, metric in record["undeclared"].items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']} (not declared)")
    print(f"  {'error_rate':36s} {record['error_rate']:>14.6g} fraction (not declared)")
    for check in record["checks"]:
        if not check["ok"]:
            print(f"  FAILED {check['check']}: {check['detail']}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
