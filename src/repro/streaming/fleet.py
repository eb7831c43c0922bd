"""The fleet runner: many replicated incremental runs, executed concurrently.

Every empirical claim in the paper-vs-measured tables is a Monte-Carlo
statement — an excess-risk curve averaged over seeds, an ordering checked
across replicates.  The :class:`~repro.streaming.runner.IncrementalRunner`
measures *one* (estimator, stream, seed) cell; the :class:`FleetRunner`
executes a whole grid of such cells, optionally across a process pool, and
aggregates the traces.

Seed discipline
---------------
Each replicate owns a :class:`numpy.random.SeedSequence` derived from its
integer seed; the sequence is split into one child generator for the stream
factory and one for the estimator factory.  The execution backend is
therefore irrelevant to the results: a replicate produces bit-identical
output whether it runs inline, in a thread of the parent, or in a worker
process — which is also what the fleet tests assert.

Read discipline
---------------
Replicates whose estimator is a serving front (anything exposing
``reader()``, e.g. :class:`~repro.streaming.serving.ShardedStream`) are
read through a per-run
:class:`~repro.streaming.readers.ReaderHandle` acquired by each
replicate's :class:`~repro.streaming.runner.IncrementalRunner` — fleet
measurements therefore exercise the same lock-free snapshot read path a
production reader uses, and the handle is retired when the replicate
finishes.

Pickling
--------
Process-pool execution requires every :class:`ReplicateSpec` field to be
picklable.  Use module-level factory functions or :func:`functools.partial`
over module-level callables (closures and lambdas only work with
``workers=0`` inline execution).  The serving layer's process transport
(:mod:`repro.streaming.transport`) follows the same spec-plumbing pattern:
a frozen recipe (:class:`~repro.streaming.transport.ShardSpec`) crosses
the process boundary and the worker rebuilds its objects from it — never
the live objects themselves — though the shard recipe travels as a typed
:mod:`repro.streaming.wire` frame, not a pickle.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .._validation import check_int
from ..exceptions import FleetExecutionError, ValidationError
from ..geometry.base import ConvexSet
from .runner import IncrementalRunner, RunResult
from .stream import RegressionStream

__all__ = ["FleetRunner", "ReplicateSpec", "ReplicateResult", "FleetResult"]


@dataclass(frozen=True)
class ReplicateSpec:
    """One (estimator, stream, seed) cell of a fleet.

    Attributes
    ----------
    name:
        Label grouping replicates in the aggregate (e.g. the estimator
        name); replicates sharing a name are averaged together.
    estimator_factory:
        ``rng ↦ estimator`` — builds a fresh estimator from the
        replicate's estimator generator.
    stream_factory:
        ``rng ↦ RegressionStream`` — builds the replicate's stream from
        the replicate's stream generator.  Pass a constant function (e.g.
        ``functools.partial`` discarding the rng) to reuse a fixed stream.
    seed:
        Root seed of the replicate's :class:`numpy.random.SeedSequence`.
    """

    name: str
    estimator_factory: Callable[[np.random.Generator], Any]
    stream_factory: Callable[[np.random.Generator], RegressionStream]
    seed: int


@dataclass
class ReplicateResult:
    """Outcome of one replicate: the spec identity plus its scored run."""

    name: str
    seed: int
    result: RunResult

    def summary(self) -> dict[str, float]:
        """The replicate's trace summary (max/final/mean excess, OPT)."""
        return self.result.trace.summary()


@dataclass
class FleetResult:
    """All replicate results of one fleet execution."""

    replicates: list[ReplicateResult] = field(default_factory=list)

    def by_name(self) -> dict[str, list[ReplicateResult]]:
        """Replicates grouped by spec name, preserving submission order."""
        groups: dict[str, list[ReplicateResult]] = {}
        for replicate in self.replicates:
            groups.setdefault(replicate.name, []).append(replicate)
        return groups

    def mean_summary(self) -> dict[str, dict[str, float]]:
        """Per-name mean of every trace-summary statistic across seeds."""
        aggregated: dict[str, dict[str, float]] = {}
        for name, group in self.by_name().items():
            summaries = [replicate.summary() for replicate in group]
            aggregated[name] = {
                key: float(np.mean([s[key] for s in summaries]))
                for key in summaries[0]
            }
        return aggregated


def _replicate_generators(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """The replicate's (stream, estimator) generators — backend-independent."""
    stream_seq, estimator_seq = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(stream_seq), np.random.default_rng(estimator_seq)


def _execute_replicate(
    spec: ReplicateSpec,
    constraint: ConvexSet,
    eval_every: int,
    solver_iterations: int,
    keep_thetas: bool,
    batch_size: int,
) -> ReplicateResult:
    """Run one replicate start to finish (top-level for picklability)."""
    stream_rng, estimator_rng = _replicate_generators(spec.seed)
    stream = spec.stream_factory(stream_rng)
    estimator = spec.estimator_factory(estimator_rng)
    runner = IncrementalRunner(
        constraint,
        eval_every=eval_every,
        solver_iterations=solver_iterations,
        keep_thetas=keep_thetas,
    )
    result = runner.run(estimator, stream, batch_size=batch_size)
    return ReplicateResult(name=spec.name, seed=spec.seed, result=result)


class FleetRunner:
    """Execute a fleet of replicated incremental runs, optionally in parallel.

    Parameters
    ----------
    constraint:
        The constraint set shared by every replicate's measurement.
    eval_every, solver_iterations, keep_thetas:
        Forwarded to each replicate's
        :class:`~repro.streaming.runner.IncrementalRunner`.
    batch_size:
        Block size for each replicate's run (the batched engine); 1 is the
        point-by-point protocol.
    workers:
        Process-pool width.  ``0`` or ``1`` executes inline (no pool, no
        pickling requirements); ``None`` uses ``os.cpu_count()`` capped by
        the number of specs.

    Examples
    --------
    >>> import functools
    >>> from repro import L2Ball, StaticOutput
    >>> from repro.data import make_dense_stream
    >>> ball = L2Ball(3)
    >>> spec = ReplicateSpec(
    ...     name="static",
    ...     estimator_factory=functools.partial(_static_estimator, dim=3),
    ...     stream_factory=functools.partial(_dense_stream, length=8, dim=3),
    ...     seed=0,
    ... )
    >>> fleet = FleetRunner(ball, eval_every=8, workers=0)
    >>> outcome = fleet.run([spec])
    >>> len(outcome.replicates)
    1
    """

    def __init__(
        self,
        constraint: ConvexSet,
        eval_every: int = 1,
        solver_iterations: int = 200,
        keep_thetas: bool = False,
        batch_size: int = 1,
        workers: int | None = None,
    ) -> None:
        self.constraint = constraint
        self.eval_every = check_int("eval_every", eval_every, minimum=1)
        self.solver_iterations = check_int("solver_iterations", solver_iterations, minimum=1)
        self.keep_thetas = bool(keep_thetas)
        self.batch_size = check_int("batch_size", batch_size, minimum=1)
        if workers is not None:
            workers = check_int("workers", workers, minimum=0)
        self.workers = workers

    def run(self, specs: Sequence[ReplicateSpec]) -> FleetResult:
        """Execute every spec; return the results in submission order.

        Raises
        ------
        FleetExecutionError
            If any replicate fails, regardless of backend.  The error
            names the failing cell and carries its spec as ``.spec``, and
            chains the worker's original exception — instead of the bare
            pool traceback a raw ``future.result()`` would surface.
        """
        specs = list(specs)
        if not specs:
            raise ValidationError("fleet must contain at least one replicate spec")
        workers = self.workers
        if workers is None:
            workers = min(os.cpu_count() or 1, len(specs))
        if workers <= 1:
            replicates = [
                self._guarded(spec, lambda s=spec: self._execute(s)) for spec in specs
            ]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(
                        _execute_replicate,
                        spec,
                        self.constraint,
                        self.eval_every,
                        self.solver_iterations,
                        self.keep_thetas,
                        self.batch_size,
                    )
                    for spec in specs
                ]
                replicates = [
                    self._guarded(spec, future.result)
                    for spec, future in zip(specs, futures)
                ]
        return FleetResult(replicates=replicates)

    @staticmethod
    def _guarded(spec: ReplicateSpec, produce: Callable[[], ReplicateResult]) -> ReplicateResult:
        """Run one replicate producer, attaching the spec to any failure."""
        try:
            return produce()
        except FleetExecutionError:
            raise
        except Exception as exc:
            raise FleetExecutionError(
                f"replicate {spec.name!r} (seed {spec.seed}) failed: "
                f"{type(exc).__name__}: {exc}",
                spec=spec,
            ) from exc

    def _execute(self, spec: ReplicateSpec) -> ReplicateResult:
        return _execute_replicate(
            spec,
            self.constraint,
            self.eval_every,
            self.solver_iterations,
            self.keep_thetas,
            self.batch_size,
        )


def _static_estimator(rng: np.random.Generator, dim: int):
    """Docstring-example helper: the trivially private constant estimator."""
    from ..core.baselines import StaticOutput
    from ..geometry import L2Ball

    return StaticOutput(L2Ball(dim))


def _dense_stream(rng: np.random.Generator, length: int, dim: int) -> RegressionStream:
    """Docstring-example helper: a dense synthetic stream from the rng."""
    from ..data.synthetic import make_dense_stream

    return make_dense_stream(length, dim, rng=rng)
