"""Benchmark-session plumbing: print paper-vs-measured tables at the end.

pytest captures stdout during tests, so the benchmarks record their result
rows in :mod:`benchmarks.common` and this hook renders them in the terminal
summary (which is never captured).  The same tables are also written to
``benchmarks/RESULTS.txt``.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from common import EXPERIMENT_ROWS, format_table  # noqa: E402


def pytest_addoption(parser):
    group = parser.getgroup("repro-bench", "batched-engine knobs")
    group.addoption(
        "--bench-batch-size",
        type=int,
        default=None,
        help="Override the block size benchmarks feed to IncrementalRunner.run "
        "(default: each benchmark's own choice).",
    )
    group.addoption(
        "--bench-workers",
        type=int,
        default=None,
        help="Override the FleetRunner process-pool width used by benchmarks "
        "(default: each benchmark's own choice; 0 = inline).",
    )


@pytest.fixture
def bench_batch_size(request):
    """The --bench-batch-size override, or None for benchmark defaults."""
    return request.config.getoption("--bench-batch-size")


@pytest.fixture
def bench_workers(request):
    """The --bench-workers override, or None for benchmark defaults."""
    return request.config.getoption("--bench-workers")


def pytest_terminal_summary(terminalreporter):
    if not EXPERIMENT_ROWS:
        return
    lines = ["", "=" * 78, "PAPER-vs-MEASURED EXPERIMENT TABLES (see README.md, Benchmarks)", "=" * 78]
    for experiment in sorted(EXPERIMENT_ROWS):
        lines.append("")
        lines.append(format_table(experiment, EXPERIMENT_ROWS[experiment]))
    report = "\n".join(lines)
    terminalreporter.write_line(report)
    results_path = pathlib.Path(__file__).parent / "RESULTS.txt"
    results_path.write_text(report + "\n")
