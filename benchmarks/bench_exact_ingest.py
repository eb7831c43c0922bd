"""Experiment N.ingest — the exact-tier ingest layers, µs per block.

Step 1 of Algorithm 2 feeds the ``x y`` and ``x xᵀ`` streams through
TreeMech, and the exact serving tier does it element by element: a block
is validated at the front, its per-element moment values are built, and
each tree folds them into its clean prefix.  This times two of those
layers at ``d ∈ {32, 256}`` and blocks of ``k ∈ {64, 512}`` unit-norm
rows:

* ``ingest`` — ``MomentBundle.ingest(rows, ys, fast=False)`` on the
  default (cross, gram) bundle over plain trees: the moment build and the
  prefix fold;
* ``validate`` — ``ShardedStream._validate_block`` on a moment front:
  the shape, finiteness and unit-domain checks of one block.

Each case also records the peak of the bytes numpy allocates during one
ingest (``tracemalloc``), which counts the block-sized arrays a call
holds at once, and checks the bundle's releases against per-row
references: every row's values built alone and committed as a
one-element block, byte for byte.

Run as a script in a checkout to measure that checkout's ``src``::

    python benchmarks/bench_exact_ingest.py --column change

which writes (or replaces) the ``change`` column of
``BENCH_exact_ingest.json`` next to this file.  A copy of this file
placed in the parent checkout, run there with ``--column parent --out
<path of this JSON>``, fills the ``parent`` column; ``--append`` adds a
run's samples to its column, so alternating parent/change runs give each
column samples from the same stretch of time.  Each column records its
checkout's provenance (``common.provenance()``: commit, modified tracked
files, ``cpu_count``), the numpy version and, per case, every sample
(µs per call, one per timed batch) with its median and quartiles.

As a pytest module (the CI smoke step, a few seconds) it times each case
briefly with no speed gate — the host is noisy — and asserts the bits
check on every case.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time
import tracemalloc

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
# This checkout's library comes first, so a copy of this file measures the
# checkout it is run in.
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from common import provenance  # noqa: E402
from repro import L2Ball, PrivacyParams, ShardedStream  # noqa: E402
from repro.core.moments import MomentBundle, cross_statistic, gram_statistic  # noqa: E402

DIMS = (32, 256)
BLOCKS = (64, 512)
PARAMS = PrivacyParams(1.0, 1e-6)
#: Capacity of the timed bundles: far more elements than any run commits.
HORIZON = 2**40
RESULTS_PATH = HERE / "BENCH_exact_ingest.json"


def make_block(dim: int, k: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """``k`` rows of norm at most 1 and outcomes in ``[−1, 1]``."""
    rng = np.random.default_rng([seed, dim, k])
    xs = rng.normal(size=(k, dim))
    xs /= np.maximum(np.linalg.norm(xs, axis=1, keepdims=True), 1.0)
    return xs, rng.uniform(-1.0, 1.0, size=k)


def make_bundle(dim: int, horizon: int = HORIZON) -> MomentBundle:
    statistics_ = (cross_statistic(dim), gram_statistic(dim))
    return MomentBundle(statistics_, (PARAMS, PARAMS), (1, 2), horizon=horizon)


def check_bits(dim: int, k: int) -> None:
    """The bundle's exact ingest releases the per-row references' bytes."""
    xs, ys = make_block(dim, k)
    bundle, reference = make_bundle(dim, 2 * k), make_bundle(dim, 2 * k)
    for block in (slice(0, k // 2), slice(k // 2, k)):
        bundle.ingest(xs[block], ys[block], fast=False)
    for stat in reference.statistics:
        mech = reference.get(stat.name)
        for i in range(k):
            mech.advance_batch(stat.values(xs[i:i + 1], ys[i:i + 1]))
    for got, want in zip(bundle.released(), reference.released()):
        assert got.value.tobytes() == want.value.tobytes()
        assert got.noise_variance == want.noise_variance


def peak_alloc_mb(dim: int, k: int) -> float:
    """Peak MB numpy allocates during one ingest of a ``k``-row block."""
    xs, ys = make_block(dim, k)
    bundle = make_bundle(dim)
    bundle.ingest(xs, ys, fast=False)
    tracemalloc.start()
    try:
        bundle.ingest(xs, ys, fast=False)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def time_calls(call, samples: int, calls: int) -> list:
    """µs per call of each of ``samples`` timed batches."""
    call()
    per_call = []
    for _ in range(samples):
        began = time.perf_counter()
        for _ in range(calls):
            call()
        per_call.append((time.perf_counter() - began) / calls * 1e6)
    return per_call


def calls_per_sample(dim: int, k: int, budget: int) -> int:
    """Calls per timed batch: ``budget`` scaled down by the block's size."""
    return max(1, budget * 32 * 64 // (dim * k))


def summarize(samples_us: list) -> dict:
    if len(samples_us) == 1:
        q1 = median = q3 = samples_us[0]
    else:
        q1, median, q3 = statistics.quantiles(samples_us, n=4)
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "samples_us": samples_us}


def measure(samples: int, budget: int, earlier: dict | None = None) -> dict:
    """One column: every case checked and timed in this checkout, with its
    provenance; the samples of an ``earlier`` column come first."""
    cases = {}
    for dim in DIMS:
        front = ShardedStream(L2Ball(dim), PARAMS, shards=1, horizon=HORIZON, rng=0)
        try:
            for k in BLOCKS:
                case = f"d={dim},k={k}"
                check_bits(dim, k)
                xs, ys = make_block(dim, k)
                bundle = make_bundle(dim)
                calls = calls_per_sample(dim, k, budget)
                timings = {
                    "ingest": time_calls(lambda: bundle.ingest(xs, ys, fast=False), samples, calls),
                    "validate": time_calls(
                        lambda: front._validate_block(xs, ys), samples, 20 * calls
                    ),
                }
                kept = earlier["cases"][case] if earlier else {}
                cases[case] = {
                    layer: summarize(kept.get(layer, {}).get("samples_us", []) + new)
                    for layer, new in timings.items()
                }
                cases[case]["ingest_peak_alloc_mb"] = peak_alloc_mb(dim, k)
                cases[case]["bits_match_per_row_reference"] = True
                del bundle
        finally:
            front.close()
    return {**provenance(), "numpy": np.__version__, "call_budget": budget, "cases": cases}


def test_exact_ingest_bits_and_timing():
    """Smoke: every case's releases equal the per-row references byte for
    byte; timed briefly and recorded, with no speed gate."""
    from common import record

    column = measure(samples=1, budget=2)
    for case, timing in column["cases"].items():
        record(
            "N.ingest exact-tier layers (smoke, no gate)",
            case=case,
            ingest_us=timing["ingest"]["median_us"],
            validate_us=timing["validate"]["median_us"],
            ingest_peak_alloc_mb=timing["ingest_peak_alloc_mb"],
        )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--column", required=True, help="column name, e.g. parent or change")
    parser.add_argument("--out", type=pathlib.Path, default=RESULTS_PATH)
    parser.add_argument("--samples", type=int, default=15)
    parser.add_argument("--budget", type=int, default=200,
                        help="ingest calls per timed batch at d=32, k=64 (scaled down "
                        "for bigger blocks; validation runs 20 times as many)")
    parser.add_argument("--append", action="store_true",
                        help="add this run's samples to the column instead of replacing it")
    args = parser.parse_args(argv)
    payload = json.loads(args.out.read_text()) if args.out.exists() else {}
    payload["experiment"] = "bench_exact_ingest"
    payload["config"] = {
        "ingest": "repro.core.moments.MomentBundle.ingest(rows, ys, fast=False), "
                  "default (cross, gram) bundle over plain trees",
        "validate": "repro.streaming.serving.ShardedStream._validate_block, moment backend",
        "dims": list(DIMS),
        "blocks": list(BLOCKS),
        "rows": "unit-norm Gaussian directions, outcomes uniform in [-1, 1]",
        "unit": "µs per call (median and quartiles of every sample); "
                "ingest_peak_alloc_mb: tracemalloc peak of one ingest",
    }
    columns = payload.setdefault("columns", {})
    earlier = columns.get(args.column) if args.append else None
    columns[args.column] = column = measure(args.samples, args.budget, earlier)
    args.out.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
    for case, timing in column["cases"].items():
        print(f"{case:12s} ingest {timing['ingest']['median_us']:10.1f} µs  "
              f"validate {timing['validate']['median_us']:8.1f} µs  "
              f"peak {timing['ingest_peak_alloc_mb']:7.1f} MB")


if __name__ == "__main__":
    main()
