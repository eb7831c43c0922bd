"""Experiment N.pgd — the NOISYPROJGRAD kernel, µs per refresh solve.

Every served refresh of a moment model ends in ``solve_released``
(Algorithm 2, Step 3: symmetrize the released Gram, form
``g(θ) = 2(Qθ − q)``, run Appendix B's noisy projected gradient).  This
times it at ``d ∈ {32, 256}`` and ``k ∈ {1, 8}`` with ``r = 40``
iterations over the unit L2 ball: ``k = 1`` is a lone model's 1-D solve,
``k = 8`` one lockstep block of eight models that share a Gram (a
tenant group).  At ``d = 32`` the solve is almost all per-call numpy
overhead, so the number moves with the count of array calls per step.

Run as a script in a checkout to measure that checkout's ``src``::

    python benchmarks/bench_pgd_kernel.py --column change

which writes (or replaces) the ``change`` column of
``BENCH_pgd_kernel.json`` next to this file.  A copy of this file placed
in the parent checkout, run there with ``--column parent --out
<path of this JSON>``, fills the ``parent`` column.  The host's speed
drifts by more than the effect over minutes, so compare columns measured
alternately: ``--append`` adds a run's samples to its column, and a few
alternating parent/change runs give each column samples from the same
stretch of time.  Each column records its checkout's commit,
``cpu_count``, every sample (µs per solve, one per timed batch) and
their median and quartiles per case.

As a pytest module (the CI smoke step, a few seconds) it times each case
briefly with no speed gate — the host is noisy — and asserts that every
solve equals ``tests/test_noisy_pgd.py::reference_run``'s bits, row by
row for a block.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# This checkout's library and its tests' reference loop come first, so a
# copy of this file measures the checkout it is run in.
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from repro import L2Ball, NoisyProjectedGradient, PrivateGradientFunction  # noqa: E402
from repro.core.private_gradient import solve_released  # noqa: E402
from test_noisy_pgd import reference_run  # noqa: E402

DIMS = (32, 256)
MODELS = (1, 8)
ITERATIONS = 40
#: Points behind the released moments of every case.
POINTS = 4096
#: Standard deviation of the Gaussian noise on every released moment entry.
NOISE = 20.0
RESULTS_PATH = HERE / "BENCH_pgd_kernel.json"


def make_problem(dim: int, models: int, seed: int = 0) -> dict:
    """Released moments of ``POINTS`` unit-norm rows plus noise, a warm
    start per model, and the refresh's ``α`` and Lipschitz bound."""
    rng = np.random.default_rng([seed, dim, models])
    xs = rng.normal(size=(POINTS, dim))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    thetas = rng.normal(size=(models, dim))
    thetas /= np.linalg.norm(thetas, axis=1, keepdims=True)
    ys = np.clip(xs @ thetas.T + rng.normal(scale=0.1, size=(POINTS, models)), -1.0, 1.0)
    gram = xs.T @ xs + rng.normal(scale=NOISE, size=(dim, dim))
    crosses = (xs.T @ ys).T + rng.normal(scale=NOISE, size=(models, dim))
    starts = rng.normal(scale=0.5, size=(models, dim))
    if models == 1:
        crosses, starts = crosses[0], starts[0]
    return {
        "constraint": L2Ball(dim),
        "gram": gram,
        "cross": crosses,
        "start": starts,
        "alpha": 2.0 * NOISE * (dim + 1.0),
        "lipschitz": 4.0 * POINTS,
    }


def solve(problem: dict) -> np.ndarray:
    return solve_released(
        problem["constraint"],
        problem["gram"],
        problem["cross"],
        alpha=problem["alpha"],
        lipschitz=problem["lipschitz"],
        iterations=ITERATIONS,
        start=problem["start"],
    )


def reference(problem: dict) -> np.ndarray:
    """``reference_run`` of every model on the symmetrized Gram."""
    gram = problem["gram"]
    gram = 0.5 * (gram + gram.T)
    pgd = NoisyProjectedGradient(
        problem["constraint"], problem["lipschitz"], problem["alpha"], ITERATIONS
    )
    crosses, starts = np.atleast_2d(problem["cross"]), np.atleast_2d(problem["start"])
    rows = [
        reference_run(pgd, PrivateGradientFunction(gram, cross, problem["alpha"]), start)
        for cross, start in zip(crosses, starts)
    ]
    return np.array(rows).reshape(np.shape(problem["start"]))


def time_case(problem: dict, samples: int, solves: int) -> list:
    """µs per solve of each of ``samples`` timed batches."""
    solve(problem)
    per_solve = []
    for _ in range(samples):
        began = time.perf_counter()
        for _ in range(solves):
            solve(problem)
        per_solve.append((time.perf_counter() - began) / solves * 1e6)
    return per_solve


def summarize(samples_us: list) -> dict:
    q1, median, q3 = statistics.quantiles(samples_us, n=4)
    return {"median_us": median, "q1_us": q1, "q3_us": q3, "samples_us": samples_us}


def _git(*args: str) -> str:
    try:
        return subprocess.run(["git", *args], cwd=HERE, capture_output=True, text=True,
                              check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def measure(samples: int, solves: int, earlier: dict | None = None) -> dict:
    """One column: every case timed in this checkout, with its stamp;
    the samples of an ``earlier`` column are kept in front of the new ones."""
    cases = {}
    for dim in DIMS:
        for models in MODELS:
            case = f"d={dim},k={models}"
            problem = make_problem(dim, models)
            np.testing.assert_array_equal(solve(problem), reference(problem))
            kept = earlier["cases"][case]["samples_us"] if earlier else []
            cases[case] = summarize(kept + time_case(problem, samples, solves))
    return {
        "commit": _git("rev-parse", "HEAD"),
        "tree_modified": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "solves_per_sample": solves,
        "cases": cases,
    }


def test_pgd_kernel_bits_and_timing():
    """Smoke: every case equals ``reference_run`` bit for bit; timed
    briefly and recorded, with no speed gate."""
    from common import record

    column = measure(samples=3, solves=20)
    for case, timing in column["cases"].items():
        record("N.pgd kernel (smoke, no gate)", case=case, us_per_solve=timing["median_us"])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--column", required=True, help="column name, e.g. parent or change")
    parser.add_argument("--out", type=pathlib.Path, default=RESULTS_PATH)
    parser.add_argument("--samples", type=int, default=15)
    parser.add_argument("--solves", type=int, default=200)
    parser.add_argument("--append", action="store_true",
                        help="add this run's samples to the column instead of replacing it")
    args = parser.parse_args(argv)
    payload = json.loads(args.out.read_text()) if args.out.exists() else {}
    payload["experiment"] = "bench_pgd_kernel"
    payload["config"] = {
        "function": "repro.core.private_gradient.solve_released",
        "dims": list(DIMS),
        "models": list(MODELS),
        "iterations": ITERATIONS,
        "constraint": "L2Ball(d), radius 1",
        "points": POINTS,
        "noise": NOISE,
        "unit": "µs per solve (median and quartiles of every sample)",
    }
    columns = payload.setdefault("columns", {})
    earlier = columns.get(args.column) if args.append else None
    columns[args.column] = column = measure(args.samples, args.solves, earlier)
    args.out.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
    for case, timing in column["cases"].items():
        print(f"{case:10s} {timing['median_us']:9.1f} µs  (q1 {timing['q1_us']:.1f}, "
              f"q3 {timing['q3_us']:.1f}, n={len(timing['samples_us'])})")


if __name__ == "__main__":
    main()
