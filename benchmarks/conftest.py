"""Benchmark-session plumbing: print paper-vs-measured tables at the end.

pytest captures stdout during tests, so the benchmarks record their result
rows in :mod:`benchmarks.common` and this hook renders them in the terminal
summary (which is never captured).  A full-scale session — every
``bench_*.py`` module, no test deselected and no smoke knob set — also
writes the tables to the committed ``benchmarks/RESULTS.txt``; any other
session writes them to ``benchmarks/out/RESULTS.txt``, which git ignores.
"""

import os
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).parent
sys.path.insert(0, str(HERE))

#: Environment knobs that shrink a benchmark below its full scale.
SMOKE_KNOBS = ("BENCH_HORIZON", "BENCH_BATCH_T", "BENCH_BATCH_DIM")
#: Benchmark modules this session runs, and whether it deselected tests.
SESSION = {"modules": set(), "deselected": False}

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


def pytest_deselected(items):
    SESSION["deselected"] = True


def pytest_collection_finish(session):
    SESSION["modules"] = {item.path.name for item in session.items}


def full_scale_session() -> bool:
    """Whether this session's tables may replace the committed ones."""
    return (
        not any(knob in os.environ for knob in SMOKE_KNOBS)
        and os.environ.get("BENCH_SCALE", "full") == "full"
        and not SESSION["deselected"]
        and SESSION["modules"] >= {path.name for path in HERE.glob("bench_*.py")}
    )


def pytest_terminal_summary(terminalreporter):
    if not EXPERIMENT_ROWS:
        return
    lines = ["", "=" * 78, "PAPER-vs-MEASURED EXPERIMENT TABLES (see README.md, Benchmarks)", "=" * 78]
    for experiment in sorted(EXPERIMENT_ROWS):
        lines.append("")
        lines.append(format_table(experiment, EXPERIMENT_ROWS[experiment]))
    report = "\n".join(lines)
    terminalreporter.write_line(report)
    results_path = HERE / "RESULTS.txt" if full_scale_session() else HERE / "out" / "RESULTS.txt"
    results_path.parent.mkdir(exist_ok=True)
    results_path.write_text(report + "\n")
