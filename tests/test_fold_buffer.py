"""Property tests (hypothesis) for the in-place fold buffer.

``MomentBundle.ingest(fast=False)`` builds each statistic's values
straight into the rows of a :class:`~repro.privacy.tree.FoldBuffer`, and
every release family folds that buffer where it lies.  These pin what the
hand-over must not change:

* a block committed through a fold buffer releases the bytes of the same
  block committed as the caller's array, and — on every tree family,
  chunk ends and window expiries included — the bytes of one-element
  commits, on streams whose sums depend on the order of the additions;
* the public ``advance_batch`` copies: C- and Fortran-ordered input
  blocks keep their bytes;
* a non-finite block moves no state, in either form, while a finite
  block whose fold overflows is accepted;
* each statistic's ``values(..., out=)`` writes the bytes of its out-less
  form, and a bundle's exact ingest releases the bytes of per-row
  commits of those values.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import HybridMechanism, PrivacyParams, TreeMechanism
from repro.core.moments import MomentBundle
from repro.exceptions import ValidationError
from repro.privacy import DecayedTreeMechanism, SketchNoiseMechanism, SlidingWindowMechanism
from repro.privacy.tree import FoldBuffer
from repro.streaming.backends import BACKENDS
from repro.streaming.serving.shards import _for_outcome

from releases import step

NORMAL = PrivacyParams(1.0, 1e-6)
HORIZON = 64

#: Every release family, keyed alike; the windows' chunk ends and
#: expiries fall inside blocks of a few elements.
FAMILIES = {
    "tree": lambda shape: TreeMechanism(HORIZON, shape, 2.0, NORMAL, rng=5),
    "decayed-0.5": lambda shape: DecayedTreeMechanism(
        HORIZON, shape, 2.0, NORMAL, rng=5, decay=0.5
    ),
    "hybrid": lambda shape: HybridMechanism(shape, 2.0, NORMAL, rng=5),
    "hybrid-0.5": lambda shape: HybridMechanism(shape, 2.0, NORMAL, rng=5, decay=0.5),
    "window-4": lambda shape: SlidingWindowMechanism(4, shape, 2.0, NORMAL, rng=5),
    "window-7": lambda shape: SlidingWindowMechanism(7, shape, 2.0, NORMAL, rng=5, chunk=3),
    "window-inf": lambda shape: SlidingWindowMechanism(
        math.inf, shape, 2.0, NORMAL, rng=5, horizon=HORIZON
    ),
    "sketch": lambda shape: SketchNoiseMechanism(HORIZON, shape, 2.0, NORMAL, rng=5),
}
#: Families whose block commits equal one-element commits (the sketch
#: draws one noise vector per block, so its block split shows).
PER_ELEMENT = sorted(set(FAMILIES) - {"sketch"})
SHAPES = [(), (1,), (3,), (3, 3)]

# Entries whose sums depend on the order of the additions: exact ±0,
# subnormals and magnitudes that cancel.
ORDER_SENSITIVE = [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, -1.0, 1.0, 0.1, 1e16, -1e16]
order_floats = st.one_of(
    st.sampled_from(ORDER_SENSITIVE),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
block_sizes = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=40)


@st.composite
def streams(draw, shape):
    """1–40 elements of ``shape`` built from order-sensitive entries."""
    n = draw(st.integers(min_value=1, max_value=40))
    size = n * math.prod(shape)
    entries = draw(st.lists(order_floats, min_size=size, max_size=size))
    return np.array(entries, dtype=float).reshape((n, *shape))


def _cut(data, sizes):
    """Consecutive blocks of ``data`` with the given sizes (the rest last)."""
    blocks, start = [], 0
    for size in sizes:
        if start >= len(data):
            break
        blocks.append(data[start : start + size])
        start += size
    if start < len(data):
        blocks.append(data[start:])
    return blocks


def _handed_over(block):
    """``block`` copied into a fold buffer, as ``MomentBundle.ingest`` builds one."""
    buffer = FoldBuffer.empty(len(block), block.shape[1:])
    buffer.rows[...] = block
    return buffer


def _state(mech):
    """The bytes of a mechanism's release, variance and step count."""
    return (
        mech.current_sum().tobytes(),
        np.float64(mech.release_noise_variance()).tobytes(),
        mech.steps_taken,
    )


class TestFoldBufferCommits:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(data=st.data(), sizes=block_sizes)
    @settings(max_examples=15, deadline=None)
    def test_block_commits_release_the_bytes_of_the_reference(self, family, shape, data, sizes):
        stream = data.draw(streams(shape))
        make = FAMILIES[family]
        handed, owned, per_row = make(shape), make(shape), make(shape)
        for block in _cut(stream, sizes):
            handed.advance_batch(_handed_over(block))
            owned.advance_batch(block)
            assert _state(handed) == _state(owned)
            if family in PER_ELEMENT:
                for row in block:
                    step(per_row, row)
                assert _state(handed) == _state(per_row)


class TestCallerArrays:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(data=st.data(), sizes=block_sizes)
    @settings(max_examples=10, deadline=None)
    def test_public_advance_batch_never_writes_the_callers_block(self, family, data, sizes):
        stream = data.draw(streams((3, 3)))
        mech = FAMILIES[family]((3, 3))
        for i, block in enumerate(_cut(stream, sizes)):
            block = np.asfortranarray(block) if i % 2 else np.ascontiguousarray(block)
            before = block.tobytes(order="A")
            mech.advance_batch(block)
            assert block.tobytes(order="A") == before


class TestRejectedBlocks:
    @pytest.mark.parametrize("shape", [(), (3,)], ids=str)
    @pytest.mark.parametrize("handed", [False, True], ids=["array", "fold-buffer"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_non_finite_block_moves_no_state(self, family, handed, shape, data):
        stream = data.draw(streams(shape))
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        where = data.draw(st.integers(min_value=0, max_value=stream.size - 1))
        mech = FAMILIES[family](shape)
        mech.advance_batch(np.full((5, *shape), 0.25))
        before = _state(mech)
        block = stream.copy()
        block.flat[where] = bad
        with pytest.raises(ValidationError, match="finite"):
            mech.advance_batch(_handed_over(block) if handed else block)
        assert _state(mech) == before

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("handed", [False, True], ids=["array", "fold-buffer"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_finite_block_whose_fold_overflows_is_accepted(self, family, handed, shape):
        block = np.full((4, *shape), 1.7e308)
        mech = FAMILIES[family](shape)
        with np.errstate(over="ignore", invalid="ignore"):
            mech.advance_batch(_handed_over(block) if handed else block)
            assert mech.steps_taken == 4
            assert not np.isfinite(mech.current_sum()).all()

    def test_fold_buffer_of_the_wrong_shape_is_refused(self):
        mech = TreeMechanism(HORIZON, (3,), 2.0, NORMAL, rng=5)
        with pytest.raises(ValidationError, match="shape"):
            mech.advance_batch(FoldBuffer.empty(2, (4,)))
        with pytest.raises(ValidationError, match="at least one"):
            mech.advance_batch(FoldBuffer.empty(0, (3,)))
        with pytest.raises(ValidationError, match="C-ordered"):
            FoldBuffer(np.asfortranarray(np.zeros((3, 3))))
        assert mech.steps_taken == 0


#: Per backend: its shard config and the width of the rows its statistics
#: read (projected rows are ``m = 4`` wide; iv rows are ``[z | x]``).
INSTRUMENTS = 2
BACKEND_ROWS = {
    "moment": (None, 3),
    "projected": ({"phi": np.zeros((4, 3))}, 4),
    "sketch": ({"phi": np.zeros((4, 3))}, 4),
    "iv": ({"instruments": INSTRUMENTS}, INSTRUMENTS + 3),
}


def _statistics(backend):
    config, width = BACKEND_ROWS[backend]
    return BACKENDS[backend].statistics(3, config), width


@st.composite
def row_blocks(draw, width):
    n = draw(st.integers(min_value=1, max_value=24))
    rows = np.array(draw(st.lists(order_floats, min_size=n * width, max_size=n * width)))
    ys = np.array(draw(st.lists(order_floats, min_size=n, max_size=n)))
    return rows.reshape(n, width), ys


class TestStatisticValues:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_values_out_writes_the_bytes_of_the_out_less_form(self, backend, data):
        statistics, width = _statistics(backend)
        rows, ys = data.draw(row_blocks(width))
        fortran = data.draw(st.booleans())
        rows = np.asfortranarray(rows) if fortran else rows
        tenant_ys = {"a": ys}
        for stat in statistics:
            for rule, outcome in ((stat, ys), (_for_outcome(stat, "a"), tenant_ys)):
                buffer = FoldBuffer.empty(len(rows), stat.shape)
                written = rule.values(rows, outcome, out=buffer.rows)
                assert np.shares_memory(written, buffer.array)
                assert buffer.rows.tobytes() == rule.values(rows, outcome).tobytes()

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @given(data=st.data(), sizes=block_sizes)
    @settings(max_examples=15, deadline=None)
    def test_bundle_exact_ingest_matches_per_row_commits(self, backend, data, sizes):
        statistics, width = _statistics(backend)
        rows, ys = data.draw(row_blocks(width))
        family = BACKENDS[backend].release_family or "tree"
        bundle = MomentBundle(
            statistics, (NORMAL,) * len(statistics), tuple(range(len(statistics))),
            mechanism=family, horizon=HORIZON,
        )
        reference = MomentBundle(
            statistics, (NORMAL,) * len(statistics), tuple(range(len(statistics))),
            mechanism=family, horizon=HORIZON,
        )
        for block in _cut(np.arange(len(rows)), sizes):
            bundle.ingest(rows[block], ys[block], fast=False)
            for stat in statistics:
                mech = reference.get(stat.name)
                values = stat.values(rows[block], ys[block])
                if family == "sketch":
                    mech.advance_batch(values)
                else:
                    for value in values:
                        mech.advance_batch(value[None])
            for got, want in zip(bundle.released(), reference.released()):
                assert got.value.tobytes() == want.value.tobytes()
                assert got.noise_variance == want.noise_variance
