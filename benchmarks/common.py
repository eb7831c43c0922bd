"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one artifact of the paper's evaluation (a Table
1 row or a discussed comparison — the README's "Benchmarks" section and
each module's docstring say which).  Measured numbers are collected into a global registry and printed
as paper-vs-measured tables in the pytest terminal summary
(``benchmarks/conftest.py``), so they survive output capturing.

A note on scale (applies to every experiment here): the paper's bounds are
asymptotic — the tree mechanisms add noise that is *polylogarithmic in T*
while the empirical-risk signal grows *linearly in T*, so what determines
whether a configuration is in the informative regime is roughly the product
``T·ε``.  CI-speed runs force small ``T`` (hundreds to a few thousand), so
the benchmarks elevate ``ε`` to land at the same ``T·ε`` operating point a
production deployment (``T`` in the millions, ``ε ≈ 1``) would occupy.
Bound *shapes* (scaling exponents, orderings, crossovers) are what is being
checked, never absolute constants.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
from collections import defaultdict

import numpy as np

from repro import IncrementalRunner, PrivacyParams
from repro.geometry.base import ConvexSet
from repro.streaming.runner import IncrementalEstimator
from repro.streaming.stream import RegressionStream

#: Global registry of result rows, keyed by experiment id.
EXPERIMENT_ROWS: dict[str, list[dict]] = defaultdict(list)

#: Default privacy failure probability across benchmarks.
DELTA = 1e-6

#: Elevated ε used by CI-scale runs (see the module docstring).
BENCH_EPSILON = 16.0


def bench_budget(epsilon: float = BENCH_EPSILON) -> PrivacyParams:
    """The benchmark-default ``(ε, δ)`` budget."""
    return PrivacyParams(epsilon, DELTA)


def provenance() -> dict:
    """Where a committed ``BENCH_*.json`` was measured: the commit, whether
    tracked files differed from it, and ``cpu_count``."""

    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", *args], cwd=pathlib.Path(__file__).parent, capture_output=True,
                text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    return {
        "commit": git("rev-parse", "HEAD"),
        "tree_modified": bool(git("status", "--porcelain", "--untracked-files=no")),
        "cpu_count": os.cpu_count(),
    }


def record(experiment: str, **row) -> None:
    """Register one paper-vs-measured row for the terminal summary."""
    EXPERIMENT_ROWS[experiment].append(row)


def measure_excess(
    estimator: IncrementalEstimator,
    stream: RegressionStream,
    constraint: ConvexSet,
    eval_every: int = 64,
    batch_size: int = 1,
) -> dict[str, float]:
    """Run the estimator over the stream; return the trace summary.

    ``batch_size > 1`` drives the estimator's ``observe_batch`` fast path
    (the batched engine).  Benchmarks that read the ``bench_batch_size``
    fixture (see ``conftest.py``) let ``--bench-batch-size`` override
    their choice; others keep the sequential protocol their experiment
    specifies.
    """
    runner = IncrementalRunner(constraint, eval_every=eval_every)
    result = runner.run(estimator, stream, batch_size=batch_size)
    return result.trace.summary()


def growth_exponent(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) against log(x).

    Used to check scaling shapes: a measured excess-risk sweep over ``T``
    whose paper bound is ``T^{1/3}`` should produce an exponent well below
    1 (the trivial/linear growth) and in the rough vicinity of 1/3.
    """
    log_x = np.log(np.asarray(xs, dtype=float))
    log_y = np.log(np.maximum(np.asarray(ys, dtype=float), 1e-12))
    slope, _ = np.polyfit(log_x, log_y, 1)
    return float(slope)


def format_table(experiment: str, rows: list[dict]) -> str:
    """Render one experiment's rows as an aligned text table."""
    if not rows:
        return f"[{experiment}] (no rows)"
    columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(_fmt(r.get(c))) for r in rows)) for c in columns
    }
    header = " | ".join(str(c).ljust(widths[c]) for c in columns)
    divider = "-+-".join("-" * widths[c] for c in columns)
    body = "\n".join(
        " | ".join(_fmt(r.get(c)).ljust(widths[c]) for c in columns) for r in rows
    )
    return f"[{experiment}]\n{header}\n{divider}\n{body}"


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)
