"""Binary codec for call arguments, results, and the request/reply messages.

Values are tagged, big-endian, and self-delimiting: unit, bool, i64, f64,
UTF-8 string, list, labeled value, bytes.  Decoding is strict — unknown
tags, truncation, range violations, or leftover bytes all raise
``DecodeError`` — so a hostile peer can at worst make us say "malformed".
"""

from __future__ import annotations

import struct
from typing import Sequence, Union

from .errors import DecodeError, ErrorCode, IfcViolation, LabelError, Record
from .labels import DCLabel, LabeledValue, can_flow_to, encode_label, read_label

__all__ = [
    "TAG_UNIT",
    "TAG_BOOL",
    "TAG_I64",
    "TAG_F64",
    "TAG_STRING",
    "TAG_LIST",
    "TAG_LABELED",
    "TAG_BYTES",
    "MSG_CALL",
    "MSG_RESULT_OK",
    "MSG_RESULT_ERR",
    "I64_MIN",
    "I64_MAX",
    "MAX_DEPTH",
    "Value",
    "encode_value",
    "decode_value",
    "read_value",
    "read_string",
    "CallMessage",
    "ResultOk",
    "ResultErr",
    "Message",
    "encode_call",
    "encode_call_raw",
    "encode_result_ok",
    "encode_result_err",
    "decode_message",
]

TAG_UNIT = 0x01
TAG_BOOL = 0x02
TAG_I64 = 0x03
TAG_F64 = 0x04
TAG_STRING = 0x05
TAG_LIST = 0x06
TAG_LABELED = 0x07
TAG_BYTES = 0x08

MSG_CALL = 0x01
MSG_RESULT_OK = 0x02
MSG_RESULT_ERR = 0x03

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

# nesting bound: a value sits at depth 0, and the items of a list and the
# value in a labeled value one deeper than it.  Malformed input must fail
# with DecodeError, not blow the stack, and the encoder refuses what the
# decoder would, so nothing encoded here is undecodable.
MAX_DEPTH = 64

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
# a tag byte and what follows it, packed in one step
_TAGGED_U32 = struct.Struct(">BI")
_TAGGED_I64 = struct.Struct(">Bq")
_TAGGED_F64 = struct.Struct(">Bd")
_UNIT = bytes([TAG_UNIT])
_TRUE = bytes([TAG_BOOL, 1])
_FALSE = bytes([TAG_BOOL, 0])
_LABELED = bytes([TAG_LABELED])
# a CALL's header: tag, call id, argument count
_CALL_HEAD = struct.Struct(">BIH")
_RESULT_OK = bytes([MSG_RESULT_OK])

Value = Union[None, bool, int, float, str, bytes, list, LabeledValue]


def encode_value(v: Value, depth: int = 0, gate: DCLabel | None = None) -> bytes:
    """The encoding of ``v`` at nesting ``depth``.  A value nested deeper
    than ``MAX_DEPTH`` raises ValueError.  With ``gate`` this is the output
    gate's walk: a ``LabeledValue`` whose label does not flow to ``gate``
    raises IfcViolation before what it covers is entered, and the first
    refusal met, left to right, is the one raised."""
    if depth > MAX_DEPTH:
        raise ValueError("value nesting too deep")
    # bool first: bool is a subclass of int
    if v is None:
        return _UNIT
    if isinstance(v, bool):
        return _TRUE if v else _FALSE
    if isinstance(v, int):
        if not I64_MIN <= v <= I64_MAX:
            raise OverflowError("integer out of i64 range")
        return _TAGGED_I64.pack(TAG_I64, v)
    if isinstance(v, float):
        return _TAGGED_F64.pack(TAG_F64, v)
    if isinstance(v, str):
        raw = v.encode("utf-8")
        return _TAGGED_U32.pack(TAG_STRING, len(raw)) + raw
    if isinstance(v, bytes):
        return _TAGGED_U32.pack(TAG_BYTES, len(v)) + v
    if isinstance(v, list):
        parts = [_TAGGED_U32.pack(TAG_LIST, len(v))]
        parts.extend(encode_value(item, depth + 1, gate) for item in v)
        return b"".join(parts)
    if isinstance(v, LabeledValue):
        if gate is not None and not can_flow_to(v.label, gate):
            raise IfcViolation()
        return _LABELED + encode_label(v.label) + encode_value(v.value, depth + 1, gate)
    raise TypeError(f"cannot encode value of type {type(v).__name__}")


def read_value(buf: bytes, pos: int, depth: int = 0) -> tuple[Value, int]:
    if depth > MAX_DEPTH:
        raise DecodeError("value nesting too deep")
    if pos >= len(buf):
        raise DecodeError("truncated value")
    tag = buf[pos]
    pos += 1
    if tag == TAG_UNIT:
        return None, pos
    if tag == TAG_BOOL:
        if pos >= len(buf):
            raise DecodeError("truncated bool")
        byte = buf[pos]
        if byte not in (0, 1):
            raise DecodeError("invalid bool byte")
        return byte == 1, pos + 1
    if tag == TAG_I64:
        raw = buf[pos : pos + 8]
        if len(raw) != 8:
            raise DecodeError("truncated i64")
        return _I64.unpack(raw)[0], pos + 8
    if tag == TAG_F64:
        raw = buf[pos : pos + 8]
        if len(raw) != 8:
            raise DecodeError("truncated f64")
        return _F64.unpack(raw)[0], pos + 8
    if tag == TAG_STRING or tag == TAG_BYTES:
        start = pos + 4
        if start > len(buf):
            raise DecodeError("truncated u32")
        end = start + _U32.unpack_from(buf, pos)[0]
        if end > len(buf):
            raise DecodeError("truncated string" if tag == TAG_STRING else "truncated bytes")
        if tag == TAG_BYTES:
            return buf[start:end], end
        try:
            return buf[start:end].decode("utf-8"), end
        except UnicodeDecodeError as e:
            raise DecodeError("string is not valid UTF-8") from e
    if tag == TAG_LIST:
        count, pos = _read_u32(buf, pos)
        if count > len(buf) - pos:  # every element takes at least one byte
            raise DecodeError("list count exceeds remaining bytes")
        items = []
        for _ in range(count):
            item, pos = read_value(buf, pos, depth + 1)
            items.append(item)
        return items, pos
    if tag == TAG_LABELED:
        try:
            label, pos = read_label(buf, pos)
        except LabelError as e:
            raise DecodeError(f"bad label in labeled value: {e}") from e
        value, pos = read_value(buf, pos, depth + 1)
        return LabeledValue(label, value), pos
    raise DecodeError(f"unknown value tag 0x{tag:02x}")


def read_string(buf: bytes, pos: int) -> tuple[str, int]:
    """Read a value that must be a string.  The tag is checked before
    anything is decoded, so a peer cannot make us build a large value only
    to refuse it."""
    if pos >= len(buf) or buf[pos] != TAG_STRING:
        raise DecodeError("value is not a string")
    return read_value(buf, pos)


def decode_value(b: bytes) -> Value:
    value, pos = read_value(b, 0)
    if pos != len(b):
        raise DecodeError("trailing bytes after value")
    return value


# --- messages ---------------------------------------------------------------


class CallMessage(Record):
    __slots__ = ("call_id", "args")

    def __init__(self, call_id: int, args: list) -> None:
        _set_call_id(self, call_id)
        _set_args(self, args)


class ResultOk(Record):
    __slots__ = ("value",)

    def __init__(self, value: Value) -> None:
        _set_value(self, value)


class ResultErr(Record):
    __slots__ = ("code", "message")

    def __init__(self, code: ErrorCode, message: str) -> None:
        _set_code(self, code)
        _set_message(self, message)


Message = Union[CallMessage, ResultOk, ResultErr]

# A message is built for every call and every reply, so its fields are set
# through the slots' own setters: a third cheaper than object.__setattr__,
# which looks each slot up by name.
_set_call_id = CallMessage.call_id.__set__
_set_args = CallMessage.args.__set__
_set_value = ResultOk.value.__set__
_set_code = ResultErr.code.__set__
_set_message = ResultErr.message.__set__


def encode_call(call_id: int, args: Sequence[Value]) -> bytes:
    return encode_call_raw(call_id, [encode_value(a) for a in args])


def encode_call_raw(call_id: int, encoded_args: Sequence[bytes]) -> bytes:
    """Assemble a CALL from already-encoded argument buffers."""
    if not 0 <= call_id <= 0xFFFFFFFF:
        raise OverflowError("call id out of u32 range")
    if len(encoded_args) > 0xFFFF:
        raise OverflowError("too many arguments")
    return b"".join((_CALL_HEAD.pack(MSG_CALL, call_id, len(encoded_args)), *encoded_args))


def encode_result_ok(
    value: Value, max_len: int | None = None, gate: DCLabel | None = None
) -> bytes:
    """The reply carrying ``value``.  With ``max_len``, a reply longer than
    that raises OverflowError: the caller's transport could not carry it.
    ``gate`` is ``encode_value``'s."""
    reply = _RESULT_OK + encode_value(value, 0, gate)
    if max_len is not None and len(reply) > max_len:
        raise OverflowError("reply too long")
    return reply


def encode_result_err(code: ErrorCode, message: str) -> bytes:
    return bytes([MSG_RESULT_ERR]) + _U16.pack(int(code)) + encode_value(message)


def decode_message(b: bytes) -> Message:
    if not b:
        raise DecodeError("empty message")
    tag = b[0]
    pos = 1
    if tag == MSG_CALL:
        if len(b) < 7:  # tag, u32 call id, u16 argument count
            raise DecodeError("truncated u32" if len(b) < 5 else "truncated u16")
        _, call_id, argc = _CALL_HEAD.unpack_from(b)
        pos = 7
        if argc > len(b) - pos:
            raise DecodeError("argument count exceeds remaining bytes")
        args = []
        for _ in range(argc):
            arg, pos = read_value(b, pos)
            args.append(arg)
        _require_consumed(b, pos)
        return CallMessage(call_id, args)
    if tag == MSG_RESULT_OK:
        value, pos = read_value(b, pos)
        _require_consumed(b, pos)
        return ResultOk(value)
    if tag == MSG_RESULT_ERR:
        raw_code, pos = _read_u16(b, pos)
        try:
            code = ErrorCode(raw_code)
        except ValueError as e:
            raise DecodeError(f"unknown error code {raw_code}") from e
        message, pos = read_string(b, pos)
        _require_consumed(b, pos)
        return ResultErr(code, message)
    raise DecodeError(f"unknown message tag 0x{tag:02x}")


def _require_consumed(b: bytes, pos: int) -> None:
    if pos != len(b):
        raise DecodeError("trailing bytes after message")


def _read_u16(buf: bytes, pos: int) -> tuple[int, int]:
    raw = buf[pos : pos + 2]
    if len(raw) != 2:
        raise DecodeError("truncated u16")
    return _U16.unpack(raw)[0], pos + 2


def _read_u32(buf: bytes, pos: int) -> tuple[int, int]:
    if pos + 4 > len(buf):
        raise DecodeError("truncated u32")
    return _U32.unpack_from(buf, pos)[0], pos + 4
