"""Property tests (hypothesis): a standalone estimator's block ingest equals
per-row ingest bit for bit.

The moment estimators commit a block to their bundle one piece per
scheduled refresh and read the releases only where they solve.  The
reference here is the per-row path written out on a twin built with the
same seed: every moment row is its own one-element commit to every
mechanism, read at once, and a refresh runs at every multiple of
``solve_every`` (and at the horizon) from the releases read there.
Under random block splits and ``solve_every`` in {1, 3, 64}, the
estimator's θ after every block must equal the twin's θ at the same step,
byte for byte, on plain, decayed and windowed ``PrivIncReg1``,
``UnboundedPrivIncReg``, ``PrivIncReg2`` and ``PrivIncIV``.  A block that
would pass the horizon is refused before anything moves, even when it
holds refresh points.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import L2Ball, PrivacyParams, PrivIncReg1, PrivIncReg2, UnboundedPrivIncReg
from repro.core.priv_inc_iv import PrivIncIV
from repro.exceptions import StreamExhaustedError

from releases import step

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3
INSTRUMENTS = 4
T = 24


def _common(solve_every):
    return dict(constraint=L2Ball(DIM), params=PARAMS, iteration_cap=5,
                solve_every=solve_every, rng=11)


FAMILIES = {
    "reg1": lambda se: PrivIncReg1(horizon=T, **_common(se)),
    "reg1-decay": lambda se: PrivIncReg1(horizon=T, decay=0.9, **_common(se)),
    "reg1-window": lambda se: PrivIncReg1(horizon=T, window=5, **_common(se)),
    "unbounded": lambda se: UnboundedPrivIncReg(**_common(se)),
    "reg2": lambda se: PrivIncReg2(
        horizon=T, x_domain=L2Ball(DIM), projected_dim=2, **_common(se)
    ),
    "iv": lambda se: PrivIncIV(horizon=T, instruments=INSTRUMENTS, **_common(se)),
}
HORIZON_FAMILIES = sorted(name for name in FAMILIES if name != "unbounded")

solve_everys = st.sampled_from([1, 3, 64])
block_sizes = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=T)


def _unit_rows(rng, n, width):
    rows = rng.normal(size=(n, width))
    return rows / np.maximum(np.linalg.norm(rows, axis=1, keepdims=True), 1.0)


def _stream(seed, n):
    """``n`` points in the unit domain: covariates, responses, instruments."""
    rng = np.random.default_rng(seed)
    xs = _unit_rows(rng, n, DIM)
    ys = np.clip(xs @ np.array([0.4, -0.2, 0.3]) + 0.1 * rng.normal(size=n), -1.0, 1.0)
    return xs, ys, _unit_rows(rng, n, INSTRUMENTS)


def _cuts(n, sizes):
    """Consecutive ``(start, stop)`` blocks of ``range(n)`` with the given
    sizes (the rest as one last block)."""
    cuts, start = [], 0
    for size in sizes:
        if start >= n:
            break
        cuts.append((start, min(start + size, n)))
        start += size
    if start < n:
        cuts.append((start, n))
    return cuts


def _feed(est, stream, start, stop):
    """One block through the estimator's public batched entry point."""
    xs, ys, zs = stream
    if isinstance(est, PrivIncIV):
        return est.observe_batch(zs[start:stop], xs[start:stop], ys[start:stop])
    return est.observe_batch(xs[start:stop], ys[start:stop])


def _moment_rows(est, stream, start, stop):
    """The block's moment rows, built the way ``observe_batch`` builds them
    (Algorithm 3's Step 4 is one product per block)."""
    xs, _, zs = stream
    if isinstance(est, PrivIncIV):
        return np.hstack([zs[start:stop], xs[start:stop]])
    return est._transform_block(xs[start:stop])


def _per_row_reference(twin, rows, ys):
    """Feed moment rows to ``twin`` one at a time, refreshing on schedule;
    return θ after the last row."""
    bundle = twin._moments
    mechanisms = [bundle.get(name) for name in bundle.names]
    for row, y in zip(rows, ys):
        releases = [
            step(mech, stat.values(row[None], np.array([y]))[0])
            for stat, mech in zip(bundle.statistics, mechanisms)
        ]
        twin.steps_taken += 1
        t = twin.steps_taken
        if t % twin.solve_every == 0 or t == twin.horizon:
            twin._solve_at(twin._logical_t(t), *releases)
    return twin.current_estimate()


def _state(est):
    """Everything a refused block must leave as it was, as bytes."""
    bundle = est._moments
    mechanisms = [bundle.get(name) for name in bundle.names]
    return (
        est.steps_taken,
        est.estimate_version,
        est.current_estimate().tobytes(),
        tuple(
            (m.steps_taken, m.current_sum().tobytes(), m.release_noise_variance())
            for m in mechanisms
        ),
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(seed=st.integers(0, 2**16), solve_every=solve_everys, sizes=block_sizes)
@settings(max_examples=25, deadline=None)
def test_block_ingest_equals_per_row_reference(family, seed, solve_every, sizes):
    stream = _stream(seed, T)
    est = FAMILIES[family](solve_every)
    twin = FAMILIES[family](solve_every)
    for start, stop in _cuts(T, sizes):
        rows = _moment_rows(est, stream, start, stop)
        theta = _feed(est, stream, start, stop)
        reference = _per_row_reference(twin, rows, stream[1][start:stop])
        assert theta.tobytes() == reference.tobytes()
        assert est.steps_taken == twin.steps_taken == stop
        assert est.estimate_version == twin.estimate_version


@pytest.mark.parametrize("family", HORIZON_FAMILIES)
@given(
    seed=st.integers(0, 2**16),
    solve_every=solve_everys,
    prefix=st.integers(0, T - 1),
    overshoot=st.integers(1, 5),
)
@settings(max_examples=25, deadline=None)
def test_block_past_the_horizon_moves_nothing(family, seed, solve_every, prefix, overshoot):
    """The refused block holds refresh points (the horizon itself always is
    one), yet no counter, mechanism or θ moves, and the stream goes on
    like a twin that never saw the block."""
    stream = _stream(seed, T + overshoot)
    est = FAMILIES[family](solve_every)
    twin = FAMILIES[family](solve_every)
    if prefix:
        _feed(est, stream, 0, prefix)
        _feed(twin, stream, 0, prefix)
    before = _state(est)
    with pytest.raises(StreamExhaustedError):
        _feed(est, stream, prefix, T + overshoot)
    assert _state(est) == before
    assert _feed(est, stream, prefix, T).tobytes() == _feed(twin, stream, prefix, T).tobytes()
