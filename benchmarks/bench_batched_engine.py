"""Experiment N.batch — throughput of the batched streaming engine.

Claim (ISSUE 1 acceptance criterion): on a ``T = 20k``, ``d = 32``
synthetic stream, ``IncrementalRunner.run`` with ``batch_size = 64`` is at
least **5×** faster than ``batch_size = 1``, while the equivalence suite
(``tests/test_batched_equivalence.py``) proves the batched path matches the
sequential reference.

What is being amortized, layer by layer:

* the moment trees take a block in one commit: the elements fold into
  the clean prefix in order, and the release is read (and keyed node
  noise drawn for the nodes it needs) once, at the block's refresh, not
  once per step;
* ``observe_batch`` updates the risk statistics with one BLAS ``XᵀX``
  per block instead of ``k`` outer products;
* the PGD refresh runs once per block (``solve_every = batch``) instead of
  every timestep — the post-processing amortization whose faithfulness the
  equivalence suite pins down (batched blocks of ``k`` ≡ sequential
  ``solve_every = k``).

The gate times ``PAIRS`` interleaved (sequential, batched) runs and
checks the **median** per-pair ratio, so drift of the host between two
single runs cannot flip it.  Measured wall-clock numbers — every pair and
the medians — are written to ``BENCH_batched_engine.json`` next to this
file so the speedup claim is recorded with the configuration that
produced it (and the commit, whether the tree differed from it, and
``cpu_count``).  ``BENCH_BATCH_T`` / ``BENCH_BATCH_DIM`` shrink the
stream for smoke runs (CI); the committed JSON is produced at full scale.
"""

import functools
import json
import os
import pathlib
import statistics
import time

from repro import FleetRunner, IncrementalRunner, L2Ball, PrivIncReg1, ReplicateSpec
from repro.data import make_dense_stream

from common import bench_budget, provenance, record

T = int(os.environ.get("BENCH_BATCH_T", "20000"))
DIM = int(os.environ.get("BENCH_BATCH_DIM", "32"))
DEFAULT_BATCH = 64
EVAL_EVERY = 2000
ITERATION_CAP = 40
PAIRS = 3
RESULTS_PATH = pathlib.Path(__file__).parent / "BENCH_batched_engine.json"


def _make_estimator(solve_every: int) -> PrivIncReg1:
    return PrivIncReg1(
        horizon=T,
        constraint=L2Ball(DIM),
        params=bench_budget(),
        iteration_cap=ITERATION_CAP,
        solve_every=solve_every,
        rng=1,
    )


def _timed_run(batch_size: int, solve_every: int) -> float:
    runner = IncrementalRunner(L2Ball(DIM), eval_every=EVAL_EVERY, solver_iterations=120)
    stream = make_dense_stream(T, DIM, noise_std=0.05, rng=0)
    estimator = _make_estimator(solve_every)
    start = time.perf_counter()
    runner.run(estimator, stream, batch_size=batch_size)
    return time.perf_counter() - start


def _interleaved_pairs(batch: int) -> list[tuple[float, float]]:
    """``PAIRS`` (sequential, batched) timings, each pair back to back."""
    return [
        (_timed_run(batch_size=1, solve_every=1), _timed_run(batch_size=batch, solve_every=batch))
        for _ in range(PAIRS)
    ]


def _stream_factory(rng, length=T, dim=DIM):
    return make_dense_stream(length, dim, rng=rng)


def _estimator_factory(rng, length=T, dim=DIM):
    return PrivIncReg1(
        horizon=length,
        constraint=L2Ball(dim),
        params=bench_budget(),
        iteration_cap=ITERATION_CAP,
        solve_every=DEFAULT_BATCH,
        rng=rng,
    )


def test_batched_engine_speedup(benchmark, bench_batch_size):
    """batch_size=64 must beat batch_size=1 by ≥5× on T=20k, d=32 (the
    median ratio of ``PAIRS`` interleaved pairs)."""
    batch = bench_batch_size or DEFAULT_BATCH

    pairs = benchmark.pedantic(_interleaved_pairs, args=(batch,), rounds=1, iterations=1)
    sequential_seconds = statistics.median(seq for seq, _ in pairs)
    batched_seconds = statistics.median(bat for _, bat in pairs)
    speedup = statistics.median(seq / bat for seq, bat in pairs)

    record(
        "N.batch engine throughput",
        engine=f"sequential (batch=1, median of {PAIRS})",
        T=T,
        d=DIM,
        seconds=sequential_seconds,
        steps_per_second=T / sequential_seconds,
    )
    record(
        "N.batch engine throughput",
        engine=f"batched (batch={batch}, median of {PAIRS})",
        T=T,
        d=DIM,
        seconds=batched_seconds,
        steps_per_second=T / batched_seconds,
    )
    record(
        "N.batch engine throughput",
        engine=f"speedup (median of {PAIRS} pairs)",
        T=T,
        d=DIM,
        seconds=speedup,
        steps_per_second="x",
    )

    # Smoke runs (env-shrunk T/d) must not clobber the committed
    # full-scale acceptance numbers.
    full_scale = "BENCH_BATCH_T" not in os.environ and "BENCH_BATCH_DIM" not in os.environ
    payload = {
        "experiment": "bench_batched_engine",
        **provenance(),
        "config": {
            "T": T,
            "d": DIM,
            "batch_size": batch,
            "eval_every": EVAL_EVERY,
            "iteration_cap": ITERATION_CAP,
            "pairs": PAIRS,
            "estimator": "PrivIncReg1",
            "epsilon": bench_budget().epsilon,
            "delta": bench_budget().delta,
        },
        "gate": "median speedup over interleaved (sequential, batched) pairs >= 5",
        "pair_runs": [
            {"sequential_seconds": seq, "batched_seconds": bat, "speedup": seq / bat}
            for seq, bat in pairs
        ],
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "speedup": speedup,
        "sequential_steps_per_second": T / sequential_seconds,
        "batched_steps_per_second": T / batched_seconds,
    }
    if full_scale:
        RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    assert speedup >= 5.0, (
        f"batched engine median speedup {speedup:.2f}x below the 5x acceptance bar "
        f"(pairs (sequential s, batched s): {pairs})"
    )


def test_fleet_replicates_smoke(benchmark, bench_workers):
    """The fleet runner sweeps seeds over the batched engine; smoke-sized."""
    workers = 0 if bench_workers is None else bench_workers
    length, dim = max(T // 20, 64), DIM
    specs = [
        ReplicateSpec(
            name="reg1-batched",
            estimator_factory=functools.partial(
                _estimator_factory, length=length, dim=dim
            ),
            stream_factory=functools.partial(_stream_factory, length=length, dim=dim),
            seed=seed,
        )
        for seed in range(3)
    ]
    fleet = FleetRunner(
        L2Ball(dim),
        eval_every=length,
        batch_size=DEFAULT_BATCH,
        workers=workers,
    )
    outcome = benchmark.pedantic(lambda: fleet.run(specs), rounds=1, iterations=1)
    summary = outcome.mean_summary()["reg1-batched"]
    record(
        "N.batch fleet smoke",
        replicates=len(specs),
        workers=workers,
        T=length,
        d=dim,
        mean_excess=summary["mean_excess"],
    )
    assert len(outcome.replicates) == 3
