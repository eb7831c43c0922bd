"""Serving backends as declarations: one :class:`Backend` per workload.

Everything the serving stack needs to know about a workload lives in its
declaration, and nowhere else:

* which named statistics a shard's moment bundle holds
  (:class:`~repro.core.moments.MomentStatistic` rules), sorted into
  *design* statistics, which read only the rows (``gram``, the projected
  or sketch Gram over ``Φx̃``, iv's ``zz`` and ``zx``), and *outcome*
  statistics, which read ``y`` (``cross``, iv's ``zy``);
* how a routed block's rows are transformed before the statistics see
  them, how wide a block row is, and which unit domain bounds it;
* which release family the statistics run (``None`` defers to the
  front's ``mechanism`` knob);
* which backend knobs it reads, which release knobs it refuses, whether
  it needs tree shards, and how the front turns the knobs into the shard
  config (the spawn payload — plain data, e.g. the shared ``Φ`` as its
  matrix);
* the default solver the front refreshes through.

Both serving fronts, the shard class, and the transports are generic
over declarations: the front validates knobs and configures the backend
through it, :class:`~repro.streaming.transport.ShardSpec` ships the
backend *name* and its config (statistic rules are closures and do not
pickle, so a remote shard looks the declaration up here), and
:class:`~repro.streaming.serving.MomentShard` builds its bundle from it
through one :class:`~repro.streaming.serving.BundleLayout`, which crosses
the statistics with the front's outcomes: the declared statistics
themselves for one anonymous outcome, or one shared entry per design
statistic and γ group plus one entry per outcome statistic and tenant for
named tenants.  Adding a workload is adding one entry to :data:`BACKENDS`
that declares its statistics and which of them are design statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .._validation import check_int, check_unit_iv_domain, check_unit_xy_domain
from ..core.incremental_regression import PrivIncReg1
from ..core.moments import cross_statistic, gram_statistic, iv_statistics
from ..core.priv_inc_iv import PrivIncIV
from ..core.projected_regression import PrivIncReg2, projected_sizing
from ..core.unbounded import UnboundedPrivIncReg
from ..exceptions import ValidationError
from ..sketching.gaussian import GaussianProjection
from ..sketching.projection import Projection, step4_rescale_block
from ..sketching.sparse_jl import SparseProjection

__all__ = ["BACKENDS", "BACKEND_KNOBS", "Backend", "backend_declaration"]

#: Front knobs that belong to some backend; a backend refuses the ones it
#: does not list in :attr:`Backend.knobs`.
BACKEND_KNOBS = (
    "instruments",
    "x_domain",
    "projection",
    "projected_dim",
    "gamma",
    "sparsity_factor",
)


def _no_config(backend, front, knobs) -> dict:
    return {}


def _identity(config, xs):
    return xs


def _same_width(dim, config) -> int:
    return dim


def _check_xy(xs, ys, config) -> None:
    check_unit_xy_domain("ShardedStream", xs, ys)


def _required(config, key: str):
    value = config.get(key)
    if value is None:
        raise ValidationError(
            f"this backend's shards need the {key} in their config (the "
            f"spawn payload)"
        )
    return value


@dataclass(frozen=True)
class Backend:
    """One serving workload, declared.

    Attributes
    ----------
    name:
        The ``backend=`` value that selects it.
    statistics:
        ``(dim, config) -> tuple[MomentStatistic, ...]``: the statistics,
        in advance order — the anonymous outcome's bundle entries (the
        first is the capacity guard).
    design:
        The names of the design statistics: those whose ``values`` and
        ``total`` read only the rows, never ``ys``.  Tenants share them;
        every other statistic is an outcome statistic, one per tenant.
    solver:
        ``(front, config, rng, beta, fidelity, iteration_cap) -> solver``:
        the front's default solver.
    configure:
        ``(name, front, knobs) -> config``: validates the backend knobs
        (the front's knob mapping, read at :data:`BACKEND_KNOBS` and
        ``beta``) and returns the shard config, drawing from
        ``front._rng`` if the backend needs shared randomness.  A
        projected backend also sets ``front.projection``, the ``Φ`` its
        solver shares; its shards get only the matrix (``config["phi"]``).
    transform:
        ``(config, xs) -> rows``: the rows the statistics are built from.
    block_width:
        ``(dim, config) -> int``: the width of an ingested block row.
    check_domain:
        ``(xs, ys, config)``: the unit-domain check every statistic's
        sensitivity calibration assumes.
    release_family:
        Mechanism family the statistics run; ``None`` defers to the
        front's ``mechanism`` knob (the knob and the wire spec keep their
        value either way).
    knobs:
        The :data:`BACKEND_KNOBS` this backend reads.
    refuses:
        Release knobs (``"decay"``, ``"window"``) it cannot serve.
    needs_tree:
        Whether it needs ``mechanism="tree"`` (a known horizon).
    """

    name: str
    statistics: Callable
    design: tuple[str, ...]
    solver: Callable
    configure: Callable = _no_config
    transform: Callable = _identity
    block_width: Callable = _same_width
    check_domain: Callable = _check_xy
    release_family: str | None = None
    knobs: tuple[str, ...] = ()
    refuses: tuple[str, ...] = ()
    needs_tree: bool = False


def _reg1_solver(front, config, rng, beta, fidelity, iteration_cap):
    if front.horizon is None:
        return UnboundedPrivIncReg(
            front.constraint,
            front.params,
            beta=beta,
            iteration_cap=iteration_cap,
            rng=rng,
        )
    return PrivIncReg1(
        horizon=front.horizon,
        constraint=front.constraint,
        params=front.params,
        beta=beta,
        fidelity=fidelity,
        iteration_cap=iteration_cap,
        rng=rng,
    )


def _moment_statistics(dim, config):
    return (cross_statistic(dim), gram_statistic(dim))


def _projection_statistics(dim, config):
    # Checks a Φ that arrived in a spawn payload: a finite (m, d) matrix.
    m = Projection(_required(config, "phi")).projected_dim
    return (cross_statistic(m), gram_statistic(m))


def _projected_rows(config, xs):
    return step4_rescale_block(config["phi"], xs)


def _projected_solver(front, config, rng, beta, fidelity, iteration_cap):
    # Shares the front's Φ, so refresh_from_released receives merged
    # moments living in the solver's own projected space; its two internal
    # trees never ingest (lazy allocation keeps them O(m)).
    return PrivIncReg2(
        horizon=front.horizon,
        constraint=front.constraint,
        x_domain=front.x_domain,
        params=front.params,
        beta=beta,
        gamma=front.gamma,
        fidelity=fidelity,
        iteration_cap=iteration_cap,
        projection=front.projection,
        rng=rng,
    )


def _gaussian(front, m, sparsity):
    return GaussianProjection(front.dim, m, rng=front._rng)


def _sparse(front, m, sparsity):
    s = 3 if sparsity is None else check_int("sparsity_factor", sparsity, minimum=1)
    return SparseProjection(front.dim, m, sparsity_factor=s, rng=front._rng)


def _projection_config(draw):
    """A ``configure`` adopting a pre-built shared ``Φ`` or drawing one.

    ``draw(front, m, sparsity_factor)`` draws from the front's rng BEFORE
    the shard spawn — the same consumption order as a plain
    ``PrivIncReg2``, which keeps the ``K = 1`` shard children identical to
    the plain estimator's two trees.
    """
    return lambda name, front, knobs: _configure_projection(draw, name, front, knobs)


def _configure_projection(draw, name, front, knobs) -> dict:
    x_domain = knobs["x_domain"]
    if front.solver is None and x_domain is None:
        raise ValidationError(
            f"backend={name!r} needs x_domain for the default PrivIncReg2 "
            f"solver (or pass an explicit solver)"
        )
    projection = knobs["projection"]
    sparsity = knobs["sparsity_factor"]
    m = knobs["projected_dim"]
    if projection is not None:
        if sparsity is not None:
            raise ValidationError(
                "sparsity_factor sizes the internally drawn sparse Φ; it "
                "cannot rewire a pre-built projection — pass "
                "SparseProjection(..., sparsity_factor=s) directly"
            )
        if projection.original_dim != front.dim:
            raise ValidationError(
                f"projection maps from dim {projection.original_dim}, "
                f"expected {front.dim}"
            )
        if m is not None and m != projection.projected_dim:
            raise ValidationError(
                f"projected_dim={m!r} contradicts the pre-built projection, "
                f"which maps to dim {projection.projected_dim}; omit "
                f"projected_dim or pass a projection of that size"
            )
        front.projection = projection
        return {"phi": projection.matrix}
    if m is None:
        if x_domain is None:
            raise ValidationError(
                f"backend={name!r} needs x_domain (or an explicit "
                f"projection/projected_dim) to size Φ"
            )
        _, _, m = projected_sizing(
            front.horizon,
            front.constraint,
            x_domain,
            beta=knobs["beta"],
            gamma=knobs["gamma"],
        )
    m = check_int("projected_dim", m, minimum=1)
    front.projection = draw(front, m, sparsity)
    return {"phi": front.projection.matrix}


def _iv_statistics(dim, config):
    return iv_statistics(_required(config, "instruments"), dim)


def _configure_iv(name, front, knobs) -> dict:
    if knobs["instruments"] is None:
        raise ValidationError(
            "backend='iv' needs instruments (the width p of the z prefix "
            "of each stacked [z | x] block)"
        )
    return {"instruments": check_int("instruments", knobs["instruments"], minimum=1)}


def _iv_width(dim, config) -> int:
    return dim + config["instruments"]


def _check_iv(xs, ys, config) -> None:
    p = config["instruments"]
    check_unit_iv_domain("ShardedStream", xs[:, :p], xs[:, p:], ys)


def _iv_solver(front, config, rng, beta, fidelity, iteration_cap):
    # Shares the bundle's (zz, zx, zy) layout; its own trees never ingest —
    # served refreshes go through refresh_from_bundle.
    return PrivIncIV(
        horizon=front.horizon,
        constraint=front.constraint,
        instruments=config["instruments"],
        params=front.params,
        beta=beta,
        fidelity=fidelity,
        iteration_cap=iteration_cap,
        rng=rng,
    )


_PROJECTION_KNOBS = ("x_domain", "projection", "projected_dim", "gamma")

#: Every serving backend, by name.
BACKENDS: dict[str, Backend] = {
    backend.name: backend
    for backend in (
        # Algorithm 2: raw d-dimensional moments, PrivIncReg1 solves.
        Backend("moment", _moment_statistics, ("gram",), _reg1_solver),
        # Algorithm 3: Step-4 rescaled Φx̃ rows through one shared
        # Gordon-sized Gaussian Φ, PrivIncReg2 solves in the same space.
        Backend(
            "projected",
            _projection_statistics,
            ("gram",),
            _projected_solver,
            configure=_projection_config(_gaussian),
            transform=_projected_rows,
            knobs=_PROJECTION_KNOBS,
            needs_tree=True,
        ),
        # Private sketches: the projected geometry over a sparse-JL Φ, with
        # one Gaussian draw per ingested block instead of tree noise.
        Backend(
            "sketch",
            _projection_statistics,
            ("gram",),
            _projected_solver,
            configure=_projection_config(_sparse),
            transform=_projected_rows,
            release_family="sketch",
            knobs=_PROJECTION_KNOBS + ("sparsity_factor",),
            refuses=("decay", "window"),
            needs_tree=True,
        ),
        # Private two-stage least squares over stacked [z | x] rows.
        Backend(
            "iv",
            _iv_statistics,
            ("zz", "zx"),
            _iv_solver,
            configure=_configure_iv,
            block_width=_iv_width,
            check_domain=_check_iv,
            knobs=("instruments",),
            refuses=("decay", "window"),
            needs_tree=True,
        ),
    )
}


def backend_declaration(name: str) -> Backend:
    """The declaration registered under ``name`` (typed error otherwise)."""
    try:
        return BACKENDS[name]
    except (KeyError, TypeError):
        raise ValidationError(
            f"backend must be one of {', '.join(map(repr, BACKENDS))}, got {name!r}"
        ) from None
