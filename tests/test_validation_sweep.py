"""The one-sweep block validation against the two checks it replaced.

Every block entry point (the moment and iv serving fronts,
``MultiTenantStream``, ``PrivIncReg1``/``PrivIncReg2`` and ``PrivIncIV``)
checks a block's shape, finiteness and unit domain in one sweep, and
re-runs the shape-and-finiteness check and the domain check, in that
order, only when the sweep fails.  Here a table of blocks — malformed
shapes, NaN and ±inf entries, norms and outcomes a few ulps either side
of the ``1 + 1e-9`` bound, a finite row whose square overflows — goes
through each entry point and through a copy, kept below, of the two
checks as they were written before the sweep.  Each block must get the
same outcome: accepted by both, or refused by both with the same
exception type and message.
"""

import math

import numpy as np
import pytest

from repro import L2Ball, PrivacyParams, PrivIncIV, PrivIncReg1, PrivIncReg2, ShardedStream
from repro._validation import within_unit_domain
from repro.exceptions import DomainViolationError, ValidationError
from repro.streaming import MultiTenantStream

PARAMS = PrivacyParams(1.0, 1e-6)
DIM = 3
INSTRUMENTS = 4
HORIZON = 100_000


# -- The checks as they were before the sweep (reference copies) ------------


def reference_xy_block(xs, ys, *, dim=None, outcomes=None):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 2:
        raise ValidationError(f"X must be a 2-D (n, d) block, got shape {xs.shape}")
    if dim is not None and xs.shape[1] != dim:
        raise ValidationError(f"X must have dimension {dim}, got {xs.shape[1]}")
    shape = (xs.shape[0],) if outcomes is None else (xs.shape[0], outcomes)
    if outcomes == 1 and ys.ndim == 1:
        ys = ys[:, None]
    if ys.shape != shape:
        raise ValidationError(f"y must have shape {shape}, got {ys.shape}")
    if xs.shape[0] == 0:
        raise ValidationError("batch must contain at least one point")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValidationError("batch must contain only finite entries")
    return xs, ys


def reference_xy_domain(name, xs, ys):
    if np.any(np.linalg.norm(xs, axis=1) > 1.0 + 1e-9) or np.any(np.abs(ys) > 1.0 + 1e-9):
        raise DomainViolationError(
            f"{name} requires ‖x‖ ≤ 1 and |y| ≤ 1 (privacy calibration)"
        )


def reference_iv_domain(name, zs, xs, ys):
    if (
        np.any(np.linalg.norm(zs, axis=1) > 1.0 + 1e-9)
        or np.any(np.linalg.norm(xs, axis=1) > 1.0 + 1e-9)
        or np.any(np.abs(ys) > 1.0 + 1e-9)
    ):
        raise DomainViolationError(
            f"{name} requires ‖z‖ ≤ 1, ‖x‖ ≤ 1 and |y| ≤ 1 (privacy calibration)"
        )


# -- The table ---------------------------------------------------------------

BOUND = 1.0 + 1e-9
#: The bound and three ulps either side of it.
NEAR_BOUND = [BOUND]
for _ in range(3):
    NEAR_BOUND = [np.nextafter(NEAR_BOUND[0], 0.0), *NEAR_BOUND, np.nextafter(NEAR_BOUND[-1], 2.0)]


def _base(parts, n=3):
    """``n`` rows that pass: each part of the row has norm 0.5."""
    row = np.concatenate([np.eye(width)[0] * 0.5 for width in parts])
    return np.tile(row, (n, 1)), np.full(n, 0.25)


def value_blocks(parts):
    """Right-shaped blocks of rows stacked from ``parts`` (column widths),
    one entry or part changed in row 1: ``(id, xs, ys)``."""
    blocks = []
    starts = np.cumsum((0, *parts))
    for j, (lo, width) in enumerate(zip(starts, parts)):
        for v in NEAR_BOUND:
            xs, ys = _base(parts)
            xs[1, lo:lo + width] = 0.0
            xs[1, lo] = v
            blocks.append((f"part{j}-onehot-{float(v)!r}", xs, ys))
            xs, ys = _base(parts)
            xs[1, lo:lo + width] = v / math.sqrt(width)
            blocks.append((f"part{j}-spread-{float(v)!r}", xs, ys))
        for bad in (math.nan, math.inf, -math.inf, 1e200, -1e300):
            xs, ys = _base(parts)
            xs[1, lo + width - 1] = bad
            blocks.append((f"part{j}-{bad!r}", xs, ys))
    for v in [*NEAR_BOUND, *(-v for v in NEAR_BOUND), math.nan, math.inf, -math.inf]:
        xs, ys = _base(parts)
        ys[1] = v
        blocks.append((f"y-{float(v)!r}", xs, ys))
    xs, ys = _base(parts)
    xs[1, 0], ys[2] = math.nan, math.inf
    blocks.append(("nan-x-and-inf-y", xs, ys))
    xs, ys = _base(parts)
    xs[1, 0], ys[2] = 2.0, math.nan
    blocks.append(("outside-x-and-nan-y", xs, ys))
    xs, ys = _base(parts)
    blocks.append(("valid", xs, ys))
    blocks.append(("valid-nested-lists", xs.tolist(), ys.tolist()))
    blocks.append(("valid-ints", np.zeros((3, sum(parts)), dtype=int), np.ones(3, dtype=int)))
    return blocks


def shape_blocks(width):
    """Malformed shapes around a ``(3, width)`` block: ``(id, xs, ys)``."""
    xs, ys = _base((width,))
    return [
        ("x-1d", xs[0], ys[:1]),
        ("x-3d", xs[:, :, None], ys),
        ("x-0d", np.float64(0.5), ys),
        ("x-narrow", xs[:, :-1], ys),
        ("x-wide", np.hstack([xs, xs[:, :1]]), ys),
        ("y-short", xs, ys[:2]),
        ("y-2d", xs, ys[:, None]),
        ("y-scalar", xs, np.float64(0.5)),
        ("empty", xs[:0], ys[:0]),
        ("empty-y-short", xs[:0], ys[:1]),
        ("wrong-shape-and-nan", np.full((3, width + 1), math.nan), ys),
    ]


def _outcome(check, *block):
    """``None`` for an accepted block, else the exception's type and message."""
    try:
        with np.errstate(over="ignore"):
            check(*block)
    except (ValidationError, DomainViolationError) as exc:
        return type(exc), str(exc)
    return None


def _assert_same_outcomes(blocks, check, reference):
    outcomes = {}
    for case, *block in blocks:
        got = _outcome(check, *block)
        assert got == _outcome(reference, *block), case
        outcomes[case] = got
    kinds = {None if got is None else got[0] for got in outcomes.values()}
    assert kinds == {None, ValidationError, DomainViolationError}


@pytest.mark.parametrize("parts", [(DIM,), (INSTRUMENTS, DIM)], ids=["xy", "iv"])
def test_the_sweep_alone_accepts_exactly_the_domain(parts):
    """The fallback hides a sweep that refuses too much (it costs only
    time), so the sweep itself must pass exactly the blocks the domain
    check passes."""

    def reference(xs, ys):
        if len(parts) == 1:
            reference_xy_domain("", xs, ys)
        else:
            reference_iv_domain("", xs[:, :INSTRUMENTS], xs[:, INSTRUMENTS:], ys)

    answers = set()
    for case, xs, ys in value_blocks(parts):
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        split = (xs,) if len(parts) == 1 else (xs[:, :INSTRUMENTS], xs[:, INSTRUMENTS:])
        with np.errstate(over="ignore", invalid="ignore"):
            accepted = within_unit_domain(ys, *split)
            expected = np.isfinite(xs).all() and np.isfinite(ys).all()
            expected = expected and _outcome(reference, xs, ys) is None
        assert accepted == expected, case
        answers.add(accepted)
    assert answers == {True, False}


# -- The entry points --------------------------------------------------------


@pytest.fixture
def moment_front():
    front = ShardedStream(L2Ball(DIM), PARAMS, shards=1, horizon=HORIZON, rng=0)
    yield front
    front.close()


@pytest.fixture
def iv_front():
    front = ShardedStream(
        L2Ball(DIM), PARAMS, shards=1, horizon=HORIZON, backend="iv",
        instruments=INSTRUMENTS, rng=0,
    )
    yield front
    front.close()


@pytest.fixture(params=[1, 2], ids=["k=1", "k=2"])
def tenant_front(request):
    front = MultiTenantStream(
        L2Ball(DIM), PARAMS, tenants=request.param, shards=1, horizon=HORIZON, rng=0
    )
    yield front
    front.close()


def test_moment_front(moment_front):
    def reference(xs, ys):
        xs, ys = reference_xy_block(xs, ys, dim=DIM)
        reference_xy_domain("ShardedStream", xs, ys)

    blocks = value_blocks((DIM,)) + shape_blocks(DIM)
    _assert_same_outcomes(blocks, moment_front._validate_block, reference)


def test_iv_front(iv_front):
    width = INSTRUMENTS + DIM

    def reference(xs, ys):
        xs, ys = reference_xy_block(xs, ys, dim=width)
        reference_iv_domain("ShardedStream", xs[:, :INSTRUMENTS], xs[:, INSTRUMENTS:], ys)

    blocks = value_blocks((INSTRUMENTS, DIM)) + shape_blocks(width)
    _assert_same_outcomes(blocks, iv_front._validate_block, reference)


def test_tenant_front(tenant_front):
    k = len(tenant_front.tenants())

    def reference(xs, ys):
        xs, ys = reference_xy_block(xs, ys, dim=DIM, outcomes=k)
        reference_xy_domain("MultiTenantStream", xs, ys.ravel())

    def columns(ys):
        """One outcome column per tenant: the block's ``ys`` first, then
        columns of 0.25 (a 1-D ``ys`` stays 1-D for one tenant)."""
        ys = np.asarray(ys, dtype=float)
        if k == 1 or ys.ndim != 1:
            return ys
        return np.column_stack([ys] + [np.full(len(ys), 0.25)] * (k - 1))

    blocks = [
        (case, xs, columns(ys)) for case, xs, ys in value_blocks((DIM,)) + shape_blocks(DIM)
    ]
    xs, ys = _base((DIM,))
    blocks += [
        ("y-column", xs, ys[:, None]),
        ("y-too-many-columns", xs, np.tile(ys[:, None], (1, k + 1))),
        ("y-2d-nan", xs, np.full((3, k), math.nan)),
    ]
    _assert_same_outcomes(blocks, tenant_front._validate_block, reference)


@pytest.mark.parametrize("family", [PrivIncReg1, PrivIncReg2])
def test_moment_estimators(family):
    kwargs = dict(x_domain=L2Ball(DIM), projected_dim=2) if family is PrivIncReg2 else {}
    estimator = family(
        horizon=HORIZON, constraint=L2Ball(DIM), params=PARAMS, iteration_cap=2,
        solve_every=10_000, rng=0, **kwargs,
    )

    def reference(xs, ys):
        xs, ys = reference_xy_block(xs, ys, dim=DIM)
        reference_xy_domain(family.__name__, xs, ys)

    blocks = value_blocks((DIM,)) + shape_blocks(DIM)
    _assert_same_outcomes(blocks, estimator.observe_batch, reference)
    accepted = sum(_outcome(reference, *block) is None for _, *block in blocks)
    assert estimator.steps_taken == 3 * accepted


def test_iv_estimator():
    estimator = PrivIncIV(
        horizon=HORIZON, constraint=L2Ball(DIM), instruments=INSTRUMENTS, params=PARAMS,
        iteration_cap=2, solve_every=10_000, rng=0,
    )

    def reference(zs, xs, ys):
        zs, ys = reference_xy_block(zs, ys, dim=INSTRUMENTS)
        xs, ys = reference_xy_block(xs, ys, dim=DIM)
        reference_iv_domain("PrivIncIV", zs, xs, ys)

    blocks = []
    for case, rows, ys in value_blocks((INSTRUMENTS, DIM)):
        rows = np.asarray(rows)
        blocks.append((case, rows[:, :INSTRUMENTS], rows[:, INSTRUMENTS:], ys))
    zs, ys = _base((INSTRUMENTS,))
    xs, _ = _base((DIM,))
    blocks += [
        ("z-1d", zs[0], xs, ys),
        ("x-1d", zs, xs[0], ys),
        ("z-narrow", zs[:, :1], xs, ys),
        ("x-wide", zs, np.hstack([xs, xs[:, :1]]), ys),
        ("z-short", zs[:2], xs, ys),
        ("x-short", zs, xs[:2], ys),
        ("y-short", zs, xs, ys[:2]),
        ("y-2d", zs, xs, ys[:, None]),
        ("empty", zs[:0], xs[:0], ys[:0]),
        ("x-empty", zs, xs[:0], ys),
        ("z-nan-x-narrow", np.full((3, INSTRUMENTS), math.nan), xs[:, :1], ys),
        ("valid-lists", zs.tolist(), xs.tolist(), ys.tolist()),
    ]
    _assert_same_outcomes(blocks, estimator.observe_batch, reference)
    accepted = sum(_outcome(reference, *block) is None for _, *block in blocks)
    assert estimator.steps_taken == 3 * accepted
