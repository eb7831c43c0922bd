"""The wire codec: one typed frame format for the remote shard transports.

Both remote transports — the ``multiprocessing`` pipe of
:mod:`repro.streaming.transport` and the TCP socket of
:mod:`repro.streaming.netserve` — carry the same messages: a boot
:class:`~repro.streaming.transport.ShardSpec`, ``(command, payload)``
requests and ``("ok" | "err", result)`` replies.  This module turns each
of them into bytes and back, with no pickle anywhere: a frame decodes
into plain values, numpy arrays, :class:`~repro.privacy.tree.ReleasedMoments`
records or an allow-listed exception — never into an arbitrary object,
so a peer can send data but never code.

Frame layout
------------
Every frame starts with one *kind* byte.  All integers and floats are
little-endian; arrays are raw ``float64`` (or ``uint64``) bytes decoded with
``np.frombuffer`` straight off the received buffer.

* **Hot kinds** have a fixed :mod:`struct` layout — per-frame cost is one
  header pack/unpack plus the array bytes:

  - ``INGEST`` — ``<BBBB4xqqq`` (kind, flags, dtype, ys ndim, four zero
    pad bytes, n, d, k), then the ``n·d`` covariates and the ``n`` (or
    ``n·k``) outcomes.  ``flags`` bit 0 is the ``fast`` tier; bits 1 and
    2 mark an F-ordered ``xs`` / ``ys`` (the memory layout travels with
    the data).  The pad makes the header 32 bytes, so the arrays decode
    8-byte aligned: numpy sums an unaligned ``float64`` view in another
    order, and the fast tier's block totals (``Xᵀy``, ``XᵀX``) would then
    differ from the thread transport's in the last bits.
  - ``OK_INT`` — ``<Bq``: the integer replies (``ingest``, ``ping``,
    ``memory``).
  - ``OK_RELEASED`` — ``<BI`` (kind, count), then per record
    ``<dqdBB`` (noise variance, steps, weight, has-weight, ndim), the
    dims as ``<q`` each and the C-ordered values.  A decoded record's
    value is a read-only view of the frame (no copy); the merge only
    adds values elementwise, so their alignment moves no bit.

* **Cold kinds** (``RELEASED`` requests, ``tenant``, ``memory``,
  ``ping``, ``close``, ``OK_VALUE`` replies, ``ERR`` replies and the boot
  ``SPEC``) carry one *typed value*: a tag byte, then the value — ``N``
  None, ``T``/``F`` bools, ``i`` int64, ``f`` float64, ``s`` UTF-8 string
  (``<I`` length), ``t`` tuple and ``d`` str-keyed dict (``<I`` count),
  and ``a`` array (dtype code, ndim, dims, bytes).

No generator crosses the wire: every release mechanism is a pure
function of a two-word Philox key, so a spec's ``keys`` and a tenant
``add``'s keys travel as ``(n, 2)`` ``uint64`` arrays.  A spec's config
is plain data (a backend's shared ``Φ`` is a ``float64`` array in it);
an error travels as its class name plus its message, the class resolved from
:mod:`repro.exceptions` or ``ValueError``/``TypeError``/``KeyError``/
``RuntimeError`` — any other exception is sent as a
:class:`~repro.exceptions.ReproError` naming the original class.

Every malformed frame — truncated, trailing bytes, an unknown kind or
tag, a wrong dtype code, negative or overflowing dims, a shape whose
bytes exceed what is left of the frame, a class outside the allow-list,
spec keys that are not an ``(n, 2)`` ``uint64`` array — raises :class:`~repro.exceptions.ValidationError`.  No length read from a
frame is trusted before it is checked against the bytes actually present,
so decoding never allocates more than the frame it reads.
"""

from __future__ import annotations

import struct
from numbers import Integral

import numpy as np

from .. import exceptions as _exceptions
from ..exceptions import ReproError, ValidationError
from ..privacy.parameters import PrivacyParams
from ..privacy.tree import ReleasedMoments

__all__ = ["decode", "encode"]

# Frame kinds: requests, replies, boot.
INGEST = 1
RELEASED = 2
_COLD_COMMANDS = ("tenant", "memory", "ping", "close")
#: Cold request kinds: 3 ("tenant") … 6 ("close").
_COMMAND_KIND = {name: 3 + i for i, name in enumerate(_COLD_COMMANDS)}
_KIND_COMMAND = {kind: name for name, kind in _COMMAND_KIND.items()}
OK_INT = 16
OK_RELEASED = 17
OK_VALUE = 18
ERR = 19
SPEC = 32

_F8 = np.dtype("<f8")
#: Array dtype codes of the typed-value encoding.
_U8 = np.dtype("<u8")
_DTYPES = {1: _F8, 2: _U8}
_DTYPE_CODE = {dtype: code for code, dtype in _DTYPES.items()}
_MAX_NDIM = 8
_MAX_DEPTH = 16

_KIND = struct.Struct("<B")
_INGEST = struct.Struct("<BBBB4xqqq")
_OK_INT = struct.Struct("<Bq")
_RELEASED_HEAD = struct.Struct("<BI")
_RECORD = struct.Struct("<dqdBB")
_DIMS = tuple(struct.Struct(f"<{n}q") for n in range(_MAX_NDIM + 1))
_I64 = struct.Struct("<q")
_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")
_ARRAY_HEAD = struct.Struct("<BB")
_INT64_RANGE = (-(1 << 63), (1 << 63) - 1)

_FAST, _XS_F, _YS_F = 1, 2, 4

#: Exceptions that cross the wire as themselves.
_BUILTIN_ERRORS = (ValueError, TypeError, KeyError, RuntimeError)
_ERRORS = {
    cls.__name__: cls
    for cls in (
        *_BUILTIN_ERRORS,
        *(
            value
            for value in vars(_exceptions).values()
            if isinstance(value, type)
            and issubclass(value, BaseException)
            and value.__module__ == _exceptions.__name__
        ),
    )
}

#: ShardSpec fields in wire order (the budget travels as ε, δ).
_SPEC_FIELDS = (
    "index",
    "dim",
    "epsilon",
    "delta",
    "keys",
    "backend",
    "config",
    "mechanism",
    "shard_horizon",
    "decay",
    "window",
)


def _malformed(reason: str) -> ValidationError:
    return ValidationError(f"malformed wire frame: {reason}")


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def encode(message) -> bytes:
    """One message as one frame: a ``ShardSpec``, a request or a reply.

    Raises :class:`~repro.exceptions.ValidationError` for a message the
    wire cannot carry (unknown command, unsupported value type).
    """
    if type(message) is not tuple:
        return _encode_spec(message)
    head, body = message
    if head == "ingest":
        return _encode_ingest(body)
    if head == "ok":
        if type(body) is int and _INT64_RANGE[0] <= body <= _INT64_RANGE[1]:
            return _OK_INT.pack(OK_INT, body)
        if type(body) is tuple and body and all(
            type(item) is ReleasedMoments for item in body
        ):
            parts = [_RELEASED_HEAD.pack(OK_RELEASED, len(body))]
            for record in body:
                _pack_record(record, parts)
            return b"".join(parts)
        return _cold(OK_VALUE, body)
    if head == "err":
        return _encode_error(body)
    if head == "released":
        if body is not None:
            raise ValidationError("the released command takes no payload")
        return _KIND.pack(RELEASED)
    kind = _COMMAND_KIND.get(head)
    if kind is None:
        raise ValidationError(f"unknown worker command {head!r}")
    return _cold(kind, body)


def _c_or_f(array: np.ndarray) -> tuple[np.ndarray, bool]:
    """``array`` as float64 in its memory order (C unless F-contiguous)."""
    array = np.asarray(array, dtype=_F8)
    if array.flags.c_contiguous:
        return array, False
    if array.flags.f_contiguous:
        return array.T, True
    return np.ascontiguousarray(array), False


def _encode_ingest(payload) -> bytes:
    xs, ys, fast = payload
    xs, xs_f = _c_or_f(xs)
    ys, ys_f = _c_or_f(ys)
    if xs.ndim != 2 or ys.ndim not in (1, 2):
        raise ValidationError(
            f"an ingest frame carries 2-D xs and 1-D or 2-D ys, got "
            f"{xs.ndim}-D and {ys.ndim}-D"
        )
    # A transposed (F-ordered) array packs its dims in logical order.
    n, d = xs.shape[::-1] if xs_f else xs.shape
    k = 1 if ys.ndim == 1 else (ys.shape[0] if ys_f else ys.shape[1])
    flags = (_FAST if fast else 0) | (_XS_F if xs_f else 0) | (_YS_F if ys_f else 0)
    header = _INGEST.pack(INGEST, flags, 1, ys.ndim, n, d, k)
    return b"".join((header, xs, ys))


def _pack_record(record: ReleasedMoments, parts: list) -> None:
    shape = record.shape
    if len(shape) > _MAX_NDIM:
        raise ValidationError(f"a record has at most {_MAX_NDIM} axes")
    weight = record.weight
    parts.append(
        _RECORD.pack(
            record.noise_variance,
            record.steps,
            0.0 if weight is None else weight,
            weight is not None,
            len(shape),
        )
    )
    parts.append(_DIMS[len(shape)].pack(*shape))
    parts.append(np.ascontiguousarray(record.value, dtype=_F8))


def _cold(kind: int, value) -> bytes:
    parts = [_KIND.pack(kind)]
    _put(value, parts, 0)
    return b"".join(parts)


def _put(value, parts: list, depth: int) -> None:
    """Append the typed encoding of ``value`` to ``parts``."""
    if depth > _MAX_DEPTH:
        raise ValidationError(f"values nest at most {_MAX_DEPTH} deep on the wire")
    if value is None:
        parts.append(b"N")
    elif isinstance(value, (bool, np.bool_)):
        parts.append(b"T" if value else b"F")
    elif isinstance(value, Integral):
        value = int(value)
        if not _INT64_RANGE[0] <= value <= _INT64_RANGE[1]:
            raise ValidationError(f"wire integers are int64, got {value}")
        parts.append(b"i" + _I64.pack(value))
    elif isinstance(value, (float, np.floating)):
        parts.append(b"f" + _F64.pack(value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        parts.append(b"s" + _U32.pack(len(raw)) + raw)
    elif isinstance(value, tuple):
        parts.append(b"t" + _U32.pack(len(value)))
        for item in value:
            _put(item, parts, depth + 1)
    elif isinstance(value, dict):
        parts.append(b"d" + _U32.pack(len(value)))
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValidationError(f"wire dict keys are strings, got {key!r}")
            raw = key.encode("utf-8")
            parts.append(_U32.pack(len(raw)) + raw)
            _put(item, parts, depth + 1)
    elif isinstance(value, np.ndarray):
        code = _DTYPE_CODE.get(value.dtype.newbyteorder("<"))
        if code is None or value.ndim > _MAX_NDIM:
            raise ValidationError(
                f"wire arrays are float64/uint64 with at most "
                f"{_MAX_NDIM} axes, got {value.dtype} with {value.ndim}"
            )
        value = np.ascontiguousarray(value, dtype=_DTYPES[code])
        parts.append(b"a" + _ARRAY_HEAD.pack(code, value.ndim))
        parts.append(_DIMS[value.ndim].pack(*value.shape))
        parts.append(value)
    else:
        raise ValidationError(
            f"the wire cannot carry a {type(value).__name__}"
        )


def _encode_spec(spec) -> bytes:
    from .transport import ShardSpec

    if not isinstance(spec, ShardSpec):
        raise ValidationError(
            f"a frame carries a ShardSpec or a (head, body) tuple, got "
            f"{type(spec).__name__}"
        )
    fields = (
        spec.index,
        spec.dim,
        spec.budget.epsilon,
        spec.budget.delta,
        spec.keys,
        spec.backend,
        spec.config,
        spec.mechanism,
        spec.shard_horizon,
        spec.decay,
        spec.window,
    )
    return _cold(SPEC, dict(zip(_SPEC_FIELDS, fields)))


def _encode_error(exc) -> bytes:
    cls = type(exc)
    args = getattr(exc, "args", ())
    message = args[0] if len(args) == 1 and isinstance(args[0], str) else str(exc)
    name = cls.__name__
    if _ERRORS.get(name) is not cls:
        message = f"{name}: {message}"
        name = ReproError.__name__
    return _cold(ERR, (name, message))


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def decode(frame):
    """The message one frame carries (see the module docstring).

    ``frame`` is any bytes-like buffer; decoded arrays are read-only views
    of it.  Raises :class:`~repro.exceptions.ValidationError` on any
    malformed frame.
    """
    try:
        return _decode(frame)
    except ValidationError:
        raise
    except (
        struct.error,
        IndexError,
        KeyError,
        ValueError,
        TypeError,
        OverflowError,
    ) as exc:
        # A backstop: every read below is bounds-checked first, but a
        # value that decodes cleanly can still be refused by the object
        # it builds (a spec's budget).
        raise _malformed(f"{type(exc).__name__}: {exc}") from None


def _decode(frame):
    size = len(frame)
    if not size:
        raise _malformed("empty frame")
    kind = frame[0]
    if kind == INGEST:
        return "ingest", _decode_ingest(frame, size)
    if kind == OK_INT:
        _check_end(_need(0, _OK_INT.size, size), size)
        return "ok", _OK_INT.unpack_from(frame)[1]
    if kind == OK_RELEASED:
        if size < _RELEASED_HEAD.size:
            raise _malformed("truncated released reply")
        count = _RELEASED_HEAD.unpack_from(frame)[1]
        if count > size:
            raise _malformed(f"released reply claims {count} records")
        offset = _RELEASED_HEAD.size
        records = []
        for _ in range(count):
            record, offset = _record_at(frame, offset, size)
            records.append(record)
        _check_end(offset, size)
        return "ok", tuple(records)
    if kind == RELEASED:
        _check_end(1, size)
        return "released", None
    if kind in _KIND_COMMAND:
        return _KIND_COMMAND[kind], _value_of(frame, size)
    if kind == OK_VALUE:
        return "ok", _value_of(frame, size)
    if kind == ERR:
        return "err", _error_from_wire(_value_of(frame, size))
    if kind == SPEC:
        return _spec_from_wire(_value_of(frame, size))
    raise _malformed(f"unknown frame kind {kind}")


def _check_end(offset: int, size: int) -> None:
    if offset != size:
        raise _malformed(f"{size - offset} trailing bytes")


def _need(offset: int, count: int, size: int) -> int:
    """The offset after ``count`` more bytes, if the frame has them."""
    end = offset + count
    if count < 0 or end > size:
        raise _malformed(
            f"needs {count} bytes at offset {offset}, the frame has {size - offset}"
        )
    return end


def _float_array(frame, offset: int, shape: tuple, fortran: bool, size: int):
    """A read-only float64 view of the frame, if its bytes are all there."""
    count = 1
    for dim in shape:
        if dim < 0:
            raise _malformed(f"negative dimension in shape {shape}")
        count *= dim
    end = _need(offset, count * 8, size)
    array = np.frombuffer(frame, dtype=_F8, count=count, offset=offset)
    if fortran:
        return array.reshape(shape[::-1]).T, end
    return array.reshape(shape), end


def _decode_ingest(frame, size: int):
    if size < _INGEST.size:
        raise _malformed("truncated ingest frame")
    _, flags, dtype, y_ndim, n, d, k = _INGEST.unpack_from(frame)
    if dtype != 1:
        raise _malformed(f"ingest arrays are float64 (code 1), got dtype code {dtype}")
    if y_ndim not in (1, 2) or flags > 7 or (y_ndim == 1 and k != 1):
        raise _malformed(
            f"bad ingest header (flags {flags}, ys ndim {y_ndim}, k {k})"
        )
    if any(frame[4:8]):
        raise _malformed("bad ingest header (nonzero pad bytes)")
    xs, offset = _float_array(frame, _INGEST.size, (n, d), bool(flags & _XS_F), size)
    y_shape = (n,) if y_ndim == 1 else (n, k)
    ys, offset = _float_array(frame, offset, y_shape, bool(flags & _YS_F), size)
    _check_end(offset, size)
    return xs, ys, bool(flags & _FAST)


def _record_at(frame, offset: int, size: int):
    end = _need(offset, _RECORD.size, size)
    noise_variance, steps, weight, has_weight, ndim = _RECORD.unpack_from(frame, offset)
    if ndim > _MAX_NDIM or has_weight > 1:
        raise _malformed(f"bad record header (ndim {ndim}, weight flag {has_weight})")
    offset = end
    end = _need(offset, _DIMS[ndim].size, size)
    shape = _DIMS[ndim].unpack_from(frame, offset)
    value, offset = _float_array(frame, end, shape, False, size)
    record = ReleasedMoments(value, noise_variance, steps, weight if has_weight else None)
    return record, offset


def _value_of(frame, size: int):
    value, offset = _take(frame, 1, size, 0)
    _check_end(offset, size)
    return value


def _take_str(frame, offset: int, size: int):
    end = _need(offset, 4, size)
    (length,) = _U32.unpack_from(frame, offset)
    stop = _need(end, length, size)
    try:
        return bytes(frame[end:stop]).decode("utf-8"), stop
    except UnicodeDecodeError:
        raise _malformed("a string is not valid UTF-8") from None


def _count(frame, offset: int, size: int):
    """An element count; every element takes at least one more byte."""
    end = _need(offset, 4, size)
    (count,) = _U32.unpack_from(frame, offset)
    if count > size - end:
        raise _malformed(f"claims {count} elements in {size - end} bytes")
    return count, end


def _take(frame, offset: int, size: int, depth: int):
    """Decode one typed value at ``offset``; return it and the next offset."""
    if depth > _MAX_DEPTH:
        raise _malformed(f"values nest deeper than {_MAX_DEPTH}")
    end = _need(offset, 1, size)
    tag = frame[offset]
    offset = end
    if tag == 0x4E:  # N
        return None, offset
    if tag == 0x54:  # T
        return True, offset
    if tag == 0x46:  # F
        return False, offset
    if tag == 0x69:  # i
        end = _need(offset, 8, size)
        return _I64.unpack_from(frame, offset)[0], end
    if tag == 0x66:  # f
        end = _need(offset, 8, size)
        return _F64.unpack_from(frame, offset)[0], end
    if tag == 0x73:  # s
        return _take_str(frame, offset, size)
    if tag == 0x74:  # t
        count, offset = _count(frame, offset, size)
        items = []
        for _ in range(count):
            item, offset = _take(frame, offset, size, depth + 1)
            items.append(item)
        return tuple(items), offset
    if tag == 0x64:  # d
        count, offset = _count(frame, offset, size)
        mapping = {}
        for _ in range(count):
            key, offset = _take_str(frame, offset, size)
            mapping[key], offset = _take(frame, offset, size, depth + 1)
        return mapping, offset
    if tag == 0x61:  # a
        end = _need(offset, _ARRAY_HEAD.size, size)
        code, ndim = _ARRAY_HEAD.unpack_from(frame, offset)
        dtype = _DTYPES.get(code)
        if dtype is None or ndim > _MAX_NDIM:
            raise _malformed(f"bad array header (dtype code {code}, ndim {ndim})")
        offset = end
        end = _need(offset, _DIMS[ndim].size, size)
        shape = _DIMS[ndim].unpack_from(frame, offset)
        count = 1
        for dim in shape:
            if dim < 0:
                raise _malformed(f"negative dimension in shape {shape}")
            count *= dim
        stop = _need(end, count * dtype.itemsize, size)
        array = np.frombuffer(frame, dtype=dtype, count=count, offset=end)
        return array.reshape(shape), stop
    raise _malformed(f"unknown value tag {tag}")


def _error_from_wire(value) -> BaseException:
    if type(value) is not tuple or len(value) != 2:
        raise _malformed("an error is (class name, message)")
    name, message = value
    cls = _ERRORS.get(name)
    if cls is None or not isinstance(message, str):
        raise _malformed(f"error class {name!r} is not on the wire allow-list")
    return cls(message)


def _spec_from_wire(value):
    from .backends import BACKENDS
    from .transport import ShardSpec

    if type(value) is not dict or tuple(value) != _SPEC_FIELDS:
        raise _malformed("a spec frame carries the ShardSpec fields in order")
    if not (type(value["index"]) is int and type(value["dim"]) is int):
        raise _malformed("a spec's index and dim are integers")
    if value["backend"] not in BACKENDS:
        raise _malformed(f"unknown backend {value['backend']!r}")
    config, keys = value["config"], value["keys"]
    if type(config) is not dict:
        raise _malformed("a spec's config is a dict")
    if not (type(keys) is np.ndarray and keys.dtype == _U8 and keys.shape[1:] == (2,)):
        raise _malformed("a spec's keys are an (n, 2) uint64 array")
    return ShardSpec(
        index=value["index"],
        dim=value["dim"],
        budget=PrivacyParams(value["epsilon"], value["delta"]),
        keys=keys,
        backend=value["backend"],
        config=config,
        mechanism=value["mechanism"],
        shard_horizon=value["shard_horizon"],
        decay=value["decay"],
        window=value["window"],
    )

