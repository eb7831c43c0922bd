"""The wire codec (:mod:`repro.streaming.wire`): fidelity and a hardened decoder.

Every message the remote transports exchange must survive
``decode(encode(m))`` bit for bit — arrays, snapshots, noise keys, the
boot spec — and every malformed frame must fail as a
:class:`~repro.exceptions.ValidationError`: never ``struct.error``,
``IndexError`` or ``MemoryError``, and never after allocating more than
the frame itself.  Hostile cases covered: truncation, an unknown kind or
tag, a wrong dtype code, negative or overflowing dims, a shape whose
bytes exceed the rest of the frame, trailing bytes, an error class
outside the allow-list and noise keys of the wrong dtype or shape;
hypothesis fuzzes random and mutated frames.
"""

import socket
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GaussianProjection, PrivacyParams, SparseProjection
from repro.exceptions import (
    BundlePartialCommitError,
    ReproError,
    ShardTimeoutError,
    StreamExhaustedError,
    ValidationError,
)
from repro.privacy.tree import ReleasedMoments, noise_key
from repro.streaming import wire
from repro.streaming.netserve import recv_frame
from repro.streaming.transport import ShardSpec, dispatch_command

PARAMS = PrivacyParams(4.0, 1e-6)
DIM = 3

#: Slack for the decoder's own bookkeeping on top of the frame length.
ALLOC_SLACK = 64 << 10


def _keys(seed, count):
    """The noise keys of ``count`` children of one seed, as a front ships them."""
    return np.array([noise_key(rng) for rng in np.random.default_rng(seed).spawn(count)])


def _spec(**overrides):
    fields = dict(
        index=1,
        dim=DIM,
        budget=PARAMS,
        keys=_keys(7, 2),
        shard_horizon=32,
    )
    fields.update(overrides)
    return ShardSpec(**fields)


def _snapshot(shape=(DIM,), weight=None, seed=0):
    value = np.random.default_rng(seed).normal(size=shape)
    return ReleasedMoments(
        value=value, noise_variance=0.25, steps=9, weight=weight
    )


def _ingest(n=4, k=None, fast=False, seed=0):
    rng = np.random.default_rng(seed)
    ys = rng.normal(size=n if k is None else (n, k))
    return ("ingest", (rng.normal(size=(n, DIM)), ys, fast))


def _same(a, b):
    """Structural equality that compares arrays bit for bit."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, (tuple, list)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            _same(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            _same(a[key], b[key])
    else:
        assert type(a) is type(b) and a == b


def _round_trip(message):
    return wire.decode(wire.encode(message))


#: One valid frame of every kind, for truncation and mutation fuzzing.
VALID_MESSAGES = [
    _ingest(),
    _ingest(k=3, fast=True),
    ("released", None),
    ("tenant", ("add", "t1", (_keys(3, 1), 0.9))),
    ("tenant", ("remove", "t1", None)),
    ("memory", None),
    ("ping", None),
    ("close", None),
    ("ok", 17),
    ("ok", (_snapshot(), _snapshot((DIM, DIM), weight=2.0))),
    ("ok", {"steps": 5, "matrix": np.eye(2), "backend": "moment"}),
    ("ok", ("a", "b")),
    ("err", StreamExhaustedError("horizon reached")),
    _spec(),
    _spec(backend="iv", config={"instruments": 2}),
    _spec(backend="projected", config={"phi": GaussianProjection(DIM, 2, rng=1).matrix}),
]
VALID_FRAMES = [wire.encode(message) for message in VALID_MESSAGES]


def _decode_or_refuse(frame):
    """Decode ``frame``; the only exception allowed is ValidationError."""
    try:
        wire.decode(frame)
    except ValidationError:
        pass


def _peak_while(fn) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRoundTrips:
    @pytest.mark.parametrize("k", [None, 1, 4])
    @pytest.mark.parametrize("fast", [False, True])
    def test_ingest_frames_are_bit_identical(self, k, fast):
        message = _ingest(n=5, k=k, fast=fast)
        command, (xs, ys, got_fast) = _round_trip(message)
        assert command == "ingest" and got_fast is fast
        _same(message[1][0], xs)
        _same(message[1][1], ys)

    def test_ingest_keeps_the_memory_layout(self):
        xs = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        ys = np.asfortranarray(np.arange(8.0).reshape(4, 2))
        _, (got_xs, got_ys, _) = _round_trip(("ingest", (xs, ys, False)))
        assert got_xs.flags.f_contiguous and got_ys.flags.f_contiguous
        _same(xs, got_xs)
        _same(ys, got_ys)
        strided = np.arange(40.0).reshape(8, 5)[::2, 1:4]
        _, (got, _, _) = _round_trip(("ingest", (strided, np.zeros(4), True)))
        assert got.flags.c_contiguous
        _same(strided, got)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("k", [None, 3])
    def test_ingest_arrays_decode_aligned(self, order, k):
        """The 32-byte header keeps the decoded arrays 8-byte aligned, so a
        worker's BLAS sums them in the thread transport's order."""
        xs = np.asarray(np.arange(15.0).reshape(5, DIM), order=order)
        ys = np.arange(5.0) if k is None else np.arange(5.0 * k).reshape(5, k)
        _, (got_xs, got_ys, _) = _round_trip(("ingest", (xs, ys, True)))
        assert got_xs.flags.aligned and got_ys.flags.aligned
        _same(xs, got_xs)
        _same(ys, got_ys)

    def test_replies_round_trip(self):
        for reply in (
            ("ok", 0),
            ("ok", -5),
            ("ok", None),
            ("ok", True),
            ("ok", 2.5),
            ("ok", ("tenant-0", "tenant-1")),
            ("ok", {"a": None, "b": {"c": (1, 2.0, "x")}}),
            ("ok", np.arange(6, dtype=np.uint64).reshape(2, 3)),
        ):
            _same(reply, _round_trip(reply))

    def test_released_replies_use_the_hot_layout(self):
        snapshots = (_snapshot(), _snapshot((DIM, DIM), weight=3.0, seed=1))
        frame = wire.encode(("ok", snapshots))
        assert frame[0] == wire.OK_RELEASED
        status, got = wire.decode(frame)
        assert status == "ok" and got == snapshots
        assert got[1].weight == 3.0 and got[0].weight is None
        assert wire.encode(("ok", 3))[0] == wire.OK_INT

    @pytest.mark.parametrize(
        "exc",
        [
            ValidationError("bad block"),
            StreamExhaustedError("full"),
            ShardTimeoutError("late"),
            BundlePartialCommitError("torn"),
            ValueError("v"),
            TypeError("t"),
            KeyError("cross"),
            RuntimeError("r"),
        ],
    )
    def test_allow_listed_errors_keep_their_class(self, exc):
        status, got = _round_trip(("err", exc))
        assert status == "err" and type(got) is type(exc)
        assert got.args == exc.args

    def test_other_errors_arrive_as_repro_errors_naming_the_class(self):
        status, got = _round_trip(("err", ZeroDivisionError("division by zero")))
        assert status == "err" and type(got) is ReproError
        assert str(got) == "ZeroDivisionError: division by zero"

    def test_requests_round_trip(self):
        for request in (
            ("released", None),
            ("tenant", ("remove", "t1", None)),
            ("memory", None),
            ("ping", None),
            ("close", None),
        ):
            _same(request, _round_trip(request))

    def test_keys_round_trip_bit_for_bit(self):
        extremes = np.array([[0, 2**64 - 1], [2**63, 1]], dtype=np.uint64)
        for keys in (_keys(11, 3), extremes):
            _, (action, name, (clone, decay)) = _round_trip(
                ("tenant", ("add", "late", (keys, None)))
            )
            assert (action, name, decay) == ("add", "late", None)
            _same(keys, clone)
            _same(keys, _round_trip(_spec(keys=keys)).keys)

    @pytest.mark.parametrize("backend", ["moment", "projected", "sketch", "iv"])
    def test_specs_round_trip(self, backend):
        config = {
            "moment": {},
            "projected": {"phi": GaussianProjection(DIM, 2, rng=4).matrix},
            "sketch": {"phi": SparseProjection(DIM, 2, sparsity_factor=2, rng=4).matrix},
            "iv": {"instruments": 2},
        }[backend]
        spec = _spec(
            backend=backend, config=config, decay=0.9, window=float("inf")
        )
        clone = _round_trip(spec)
        assert isinstance(clone, ShardSpec)
        for field in ("index", "dim", "budget", "backend", "mechanism",
                      "shard_horizon", "decay", "window"):
            assert getattr(clone, field) == getattr(spec, field)
        _same(clone.keys, spec.keys)
        _same(clone.config, spec.config)  # Φ arrives as its float64 matrix

    def test_tenant_spec_builds_a_tenant_shard_from_its_config(self):
        spec = _spec(
            keys=_keys(2, 3),
            config=dict(
                tenants=("a", "b"), tenant_capacity=3, decays=(1.0,),
                tenant_decays=(1.0, 1.0),
            ),
        )
        clone = _round_trip(spec)
        assert clone.config == spec.config
        shard = clone.build()
        assert shard.layout.tenants() == ("a", "b")
        assert shard.bundle.names == shard.layout.names == ("gram:1.0", "cross:a", "cross:b")


class TestEncoderRefusals:
    def test_unknown_command(self):
        with pytest.raises(ValidationError, match="unknown worker command"):
            wire.encode(("bogus", None))

    def test_unsupported_values(self):
        # Integers beyond int64, uint32 arrays and a snapshot inside a
        # typed value have no encoding: snapshots travel as OK_RELEASED.
        for value in (
            object(), {1: "int key"}, np.zeros(2, dtype=np.int8), [1, 2],
            1 << 80, np.arange(3, dtype=np.uint32), _snapshot(), {"t0": _snapshot()},
        ):
            with pytest.raises(ValidationError):
                wire.encode(("ok", value))


def _ingest_header(n, d, k=1, dtype=1, y_ndim=1, flags=0):
    return struct.pack("<BBBB4xqqq", wire.INGEST, flags, dtype, y_ndim, n, d, k)


class TestHostileFrames:
    @pytest.mark.parametrize("index", range(len(VALID_FRAMES)))
    def test_every_truncation_is_refused(self, index):
        frame = VALID_FRAMES[index]
        for end in range(len(frame)):
            with pytest.raises(ValidationError):
                wire.decode(frame[:end])

    @pytest.mark.parametrize("index", range(len(VALID_FRAMES)))
    def test_trailing_bytes_are_refused(self, index):
        with pytest.raises(ValidationError, match="trailing"):
            wire.decode(VALID_FRAMES[index] + b"\x00")

    def test_nonzero_ingest_pad_is_refused(self):
        frame = bytearray(wire.encode(_ingest(n=4)))
        frame[5] = 1
        with pytest.raises(ValidationError, match="pad"):
            wire.decode(bytes(frame))

    def test_unknown_kind_and_tag(self):
        # "I" (big int) and "r" (a nested snapshot) are no tags any more.
        for frame in (
            b"\x63",
            bytes([wire.OK_VALUE]) + b"Z",
            bytes([wire.OK_VALUE]) + b"I" + struct.pack("<I", 1) + b"\x01",
            bytes([wire.OK_VALUE]) + b"r" + struct.pack("<dqdBB", 0.25, 1, 0.0, 0, 0) + bytes(8),
            bytes([255]) * 9,
        ):
            with pytest.raises(ValidationError):
                wire.decode(frame)

    def test_wrong_dtype_codes(self):
        body = np.zeros(4 * DIM + 4).tobytes()
        with pytest.raises(ValidationError, match="dtype code"):
            wire.decode(_ingest_header(4, DIM, dtype=2) + body)
        array = b"a" + struct.pack("<BBq", 9, 1, 2) + bytes(16)
        with pytest.raises(ValidationError, match="dtype code"):
            wire.decode(bytes([wire.OK_VALUE]) + array)

    @pytest.mark.parametrize(
        "n,d,k", [(-1, DIM, 1), (4, -3, 1), (-2, -2, 1), (4, DIM, -1)]
    )
    def test_negative_dims(self, n, d, k):
        y_ndim = 2 if k != 1 else 1
        with pytest.raises(ValidationError):
            wire.decode(_ingest_header(n, d, k, y_ndim=y_ndim) + bytes(64))
        array = b"a" + struct.pack("<BB2q", 1, 2, n, d)
        with pytest.raises(ValidationError):
            wire.decode(bytes([wire.OK_VALUE]) + array + bytes(64))

    @pytest.mark.parametrize(
        "n,d", [(1 << 62, 1 << 62), ((1 << 63) - 1, 2), (1 << 40, DIM)]
    )
    def test_overflowing_and_oversized_shapes(self, n, d):
        # Refused by the length check itself, before numpy sees the shape.
        frame = _ingest_header(n, d) + bytes(64)
        with pytest.raises(ValidationError, match="the frame has"):
            wire.decode(frame)
        snapshot = struct.pack("<BI", wire.OK_RELEASED, 1) + struct.pack(
            "<dqdBB", 0.0, 1, 0.0, 0, 2
        ) + struct.pack("<2q", n, d) + bytes(64)
        with pytest.raises(ValidationError, match="the frame has"):
            wire.decode(snapshot)
        array = b"a" + struct.pack("<BB2q", 1, 2, n, d) + bytes(64)
        with pytest.raises(ValidationError, match="the frame has"):
            wire.decode(bytes([wire.OK_VALUE]) + array)

    def test_claimed_counts_beyond_the_frame(self):
        for frame in (
            bytes([wire.OK_VALUE]) + b"t" + struct.pack("<I", 0xFFFFFFFF),
            bytes([wire.OK_VALUE]) + b"d" + struct.pack("<I", 1 << 31),
            bytes([wire.OK_VALUE]) + b"s" + struct.pack("<I", 1 << 30) + b"abc",
            struct.pack("<BI", wire.OK_RELEASED, 1 << 30),
        ):
            with pytest.raises(ValidationError):
                wire.decode(frame)

    def test_error_class_outside_the_allow_list(self):
        for name in ("SystemExit", "ZeroDivisionError", "os.system", ""):
            frame = wire._cold(wire.ERR, (name, "boom"))
            with pytest.raises(ValidationError, match="allow-list"):
                wire.decode(frame)

    def test_spec_refusals(self):
        frame = wire.encode(_spec())
        fields = wire._value_of(frame, len(frame))  # the spec's typed field dict
        assert isinstance(wire.decode(wire._cold(wire.SPEC, fields)), ShardSpec)
        keys = fields["keys"]
        for bad in (
            {"index": 0},  # missing fields
            dict(reversed(fields.items())),  # fields out of order
            dict(fields, index="0"),
            dict(fields, backend="evil"),
            dict(fields, shard_type="Popen"),
            dict(fields, config=("not", "a dict")),
            dict(fields, keys=keys.astype(np.float64)),
            dict(fields, keys=keys.ravel()),
            dict(fields, keys=np.zeros((2, 3), dtype=np.uint64)),
            dict(fields, keys=tuple(map(int, keys.ravel()))),
            dict(fields, keys=None),
            dict(fields, epsilon=-1.0),
        ):
            with pytest.raises(ValidationError):
                wire.decode(wire._cold(wire.SPEC, bad))

    def test_tenant_adds_with_bad_keys_admit_nobody(self):
        """A tenant frame decodes as plain data; the shard refuses keys of
        the wrong dtype or shape before its layout or bundle changes."""
        shard = _spec(config=dict(tenants=("a",), tenant_capacity=2)).build()
        good = _keys(5, 1)
        for bad in (
            good.astype(np.float64), good.ravel(), _keys(5, 2), good[:, :1], (1, 2), None,
        ):
            command, payload = _round_trip(("tenant", ("add", "b", (bad, None))))
            with pytest.raises(ValidationError):
                dispatch_command(shard, command, payload)
            assert shard.layout.tenants() == ("a",)
            assert shard.bundle.names == ("gram:1.0", "cross:a")
        dispatch_command(shard, *_round_trip(("tenant", ("add", "b", (good, None)))))
        assert shard.bundle.names == ("gram:1.0", "cross:a", "cross:b")

    def test_deep_nesting_is_refused(self):
        value = None
        for _ in range(40):
            value = (value,)
        with pytest.raises(ValidationError, match="nest"):
            wire.encode(("ok", value))
        frame = bytes([wire.OK_VALUE]) + (b"t\x01\x00\x00\x00" * 40) + b"N"
        with pytest.raises(ValidationError, match="nest"):
            wire.decode(frame)

    def test_hostile_frames_allocate_no_more_than_the_frame(self):
        hostile = [
            _ingest_header(1 << 40, DIM) + bytes(256),
            _ingest_header(1 << 20, 1 << 20, 1 << 20, y_ndim=2) + bytes(256),
            bytes([wire.OK_VALUE]) + b"a" + struct.pack("<BB2q", 1, 2, 1 << 30, 1 << 30),
            bytes([wire.OK_VALUE]) + b"t" + struct.pack("<I", 0xFFFFFFFF) + b"N" * 64,
            bytes([wire.OK_VALUE]) + b"s" + struct.pack("<I", 0xFFFFFFFF) + b"x" * 64,
            struct.pack("<BI", wire.OK_RELEASED, 0xFFFFFFFF) + bytes(64),
            VALID_FRAMES[-1][:-5],
        ]
        for frame in hostile:
            def attempt():
                with pytest.raises(ValidationError):
                    wire.decode(frame)

            assert _peak_while(attempt) <= len(frame) + ALLOC_SLACK

    def test_a_lying_tcp_header_costs_only_the_bytes_sent(self):
        """``_recv_exact`` reads in chunks: a header claiming 4 GiB from a
        peer that sends 16 bytes and hangs up allocates about one chunk."""
        a, b = socket.socketpair()
        try:
            def lie():
                a.sendall(struct.pack(">Q", 4 << 30) + bytes(16))
                a.close()

            sender = threading.Thread(target=lie)

            def attempt():
                sender.start()
                with pytest.raises(ConnectionResetError):
                    recv_frame(b)

            assert _peak_while(attempt) <= (1 << 20) + ALLOC_SLACK
            sender.join(timeout=5.0)
        finally:
            a.close()
            b.close()


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=256))
    def test_random_bytes_decode_or_refuse(self, frame):
        _decode_or_refuse(frame)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(range(len(VALID_FRAMES))),
        st.lists(
            st.tuples(st.integers(min_value=0), st.integers(0, 255)),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=0),
    )
    def test_mutated_frames_decode_or_refuse(self, index, edits, cut):
        frame = bytearray(VALID_FRAMES[index])
        for position, byte in edits:
            frame[position % len(frame)] = byte
        frame = bytes(frame[: len(frame) - cut % 4])
        _decode_or_refuse(frame)

    @settings(max_examples=50, deadline=None)
    @given(
        st.sampled_from(range(len(VALID_FRAMES))),
        st.integers(min_value=0),
        st.integers(0, 255),
    )
    def test_mutated_frames_allocate_no_more_than_the_frame(self, index, position, byte):
        frame = bytearray(VALID_FRAMES[index])
        frame[position % len(frame)] = byte
        frame = bytes(frame)
        assert _peak_while(lambda: _decode_or_refuse(frame)) <= len(frame) + ALLOC_SLACK
