"""Experiment F.tree — Proposition C.1 / Appendix C.

Claims: the Tree Mechanism releases every prefix sum of a ``T``-length
vector stream with error ``O(Δ₂(√d + √log(1/β)) log^{3/2} T / ε)`` —
polylogarithmic in ``T`` — using only ``O(d log T)`` memory.

Regenerated here: (a) measured worst-case prefix-sum error vs the
Proposition C.1 bound across a ``T`` sweep (growth must be polylog, not
polynomial), (b) the memory footprint table, and (c) per-element
throughput (the timed unit).  Every release is read the one way a release
mechanism is read: commit the element with ``advance_batch(v[None])``,
then ``current_sum()``.
"""

import numpy as np

from repro import TreeMechanism
from repro.privacy import tree_error_bound, tree_levels

from common import bench_budget, growth_exponent, record

DIM = 16
HORIZONS = [64, 512, 4096]


def _step(mech, element):
    """Commit one element, then read the release after it."""
    mech.advance_batch(element[None])
    return mech.current_sum()


def _measure_worst_error(horizon: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    mech = TreeMechanism(horizon, (DIM,), 2.0, bench_budget(), rng=seed)
    exact = np.zeros(DIM)
    worst = 0.0
    for _ in range(horizon):
        element = rng.normal(size=DIM)
        element /= max(np.linalg.norm(element), 1.0)
        released = _step(mech, element)
        exact += element
        worst = max(worst, float(np.linalg.norm(released - exact)))
    return worst


def test_tree_error_growth(benchmark):
    measured = {h: _measure_worst_error(h, seed=1) for h in HORIZONS[:-1]}
    measured[HORIZONS[-1]] = benchmark.pedantic(
        lambda: _measure_worst_error(HORIZONS[-1], seed=1), rounds=1, iterations=1
    )
    for horizon in HORIZONS:
        record(
            "F.tree Proposition C.1",
            T=horizon,
            d=DIM,
            measured_worst_error=measured[horizon],
            prop_c1_bound=tree_error_bound(horizon, DIM, 2.0, bench_budget(), beta=0.01),
            memory_floats=2 * tree_levels(horizon) * DIM,
        )
        assert measured[horizon] < tree_error_bound(
            horizon, DIM, 2.0, bench_budget(), beta=0.01
        )
    # Polylog growth: across a 64x horizon increase the error must grow far
    # slower than any polynomial rate (exponent well below 1/2).
    exponent = growth_exponent(HORIZONS, [measured[h] for h in HORIZONS])
    record(
        "F.tree Proposition C.1",
        T="T-exponent",
        d="paper: polylog",
        measured_worst_error=exponent,
        prop_c1_bound=0.0,
        memory_floats="",
    )
    assert exponent < 0.5
    benchmark.extra_info["t_growth_exponent"] = exponent


def test_tree_throughput(benchmark):
    """Timed unit: cost of committing one element and reading its release."""
    mech = TreeMechanism(1 << 20, (DIM,), 2.0, bench_budget(), rng=0)
    element = np.full(DIM, 0.1)

    benchmark.pedantic(
        _step, args=(mech, element), rounds=500, iterations=1, warmup_rounds=10
    )

    record(
        "F.tree throughput",
        T=1 << 20,
        d=DIM,
        memory_floats=mech.memory_floats(),
        note="see pytest-benchmark table for per-element commit+read latency",
    )
