"""The ``SERVE_BACKEND`` serving-matrix axis and its backend helpers.

The serving suites (`test_sharded_equivalence.py`, `test_serving_faults.py`,
`test_readers.py`) honor the CI serving matrix through environment axes:
``SERVE_SHARDS`` / ``SERVE_TRANSPORT`` / ``SERVE_TENANTS`` /
``SERVE_DECAY`` already exist; ``SERVE_BACKEND`` (this module) re-runs
them over every shard backend — ``"moment"`` (Algorithm 2 trees, the
default), ``"projected"`` (Algorithm 3 trees over a shared Gaussian
``Φ``), and ``"sketch"`` (per-block sketch-side noise over a shared
sparse-JL ``Φ``).  The helpers here keep the ported suites
backend-agnostic: one kwargs injector for ``ShardedStream`` and one
replay-twin builder mirroring the front's documented rng discipline.

This lives beside ``conftest.py`` rather than inside it because the suite
imports these names directly (plain functions, not fixtures), and a bare
``conftest`` import would collide with ``benchmarks/conftest.py`` when
the whole repository is collected in one pytest run.
"""

import os

import numpy as np

from repro import L2Ball

#: Shard backend every serving suite runs under (the CI SERVE_BACKEND axis).
SERVE_BACKEND = os.environ.get("SERVE_BACKEND", "moment")


def serve_backend_kwargs(dim):
    """Extra ``ShardedStream`` kwargs selecting the ``SERVE_BACKEND`` axis.

    The projected/sketch backends need an ``x_domain`` for the default
    ``PrivIncReg2`` solver; ``projected_dim=dim`` keeps the moment shapes
    of the ported suites unchanged, so shape-pinned replay twins work
    under every backend.
    """
    if SERVE_BACKEND == "moment":
        return {}
    return {
        "backend": SERVE_BACKEND,
        "x_domain": L2Ball(dim),
        "projected_dim": dim,
    }


def serve_backend_replay(
    k, seed, dim, horizon, params, sensitivity=2.0, mechanism="tree", window=None
):
    """Replay twins of a ``ShardedStream(rng=seed)``'s shard mechanisms.

    Mirrors the front's documented rng discipline: under the projected and
    sketch backends the shared ``Φ`` is drawn from the front generator
    *first* (the plain ``PrivIncReg2`` consumption order), then shard
    ``i``'s (cross, gram) mechanisms take children ``2i`` / ``2i + 1`` of
    ``spawn(2k)`` at half the per-shard budget.  Returns
    ``(cross, gram, transform)`` where ``transform`` maps a raw covariate
    block to the rows the moment streams are built from (identity for the
    moment backend, Step-4 rescaled ``Φx̃`` rows otherwise).  ``mechanism``
    and ``window`` are the front's release knobs (the sketch backend
    ignores ``mechanism``).
    """
    from repro import GaussianProjection, SparseProjection, step4_rescale_block
    from repro.privacy import make_release_mechanism

    front = np.random.default_rng(seed)
    if SERVE_BACKEND == "moment":

        def transform(xs):
            return np.asarray(xs, dtype=float)

    else:
        if SERVE_BACKEND == "sketch":
            projection = SparseProjection(dim, dim, sparsity_factor=3, rng=front)
        else:
            projection = GaussianProjection(dim, dim, rng=front)

        def transform(xs):
            return step4_rescale_block(projection.matrix, np.asarray(xs, dtype=float))

    children = front.spawn(2 * k)
    half = params.halve()
    family = "sketch" if SERVE_BACKEND == "sketch" else mechanism
    cross = [
        make_release_mechanism(
            shape=(dim,),
            l2_sensitivity=sensitivity,
            params=half,
            rng=children[2 * i],
            mechanism=family,
            horizon=horizon,
            window=window,
        )
        for i in range(k)
    ]
    gram = [
        make_release_mechanism(
            shape=(dim, dim),
            l2_sensitivity=sensitivity,
            params=half,
            rng=children[2 * i + 1],
            mechanism=family,
            horizon=horizon,
            window=window,
        )
        for i in range(k)
    ]
    return cross, gram, transform
