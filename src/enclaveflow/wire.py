"""Binary codec for call arguments, results, and the request/reply messages.

Values are tagged, big-endian, and self-delimiting: unit, bool, i64, f64,
UTF-8 string, list, labeled value, bytes.  Decoding is strict — unknown
tags, truncation, range violations, or leftover bytes all raise
``DecodeError`` — so a hostile peer can at worst make us say "malformed".
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import DecodeError, ErrorCode, LabelError
from .labels import DCLabel, LabeledValue, encode_label, read_label

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
    "Value",
    "encode_value",
    "decode_value",
    "read_value",
    "read_string",
    "make_labeled",
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

# nesting bound: malformed input must fail with DecodeError, not blow the stack
_MAX_DEPTH = 64

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

Value = Union[None, bool, int, float, str, bytes, list, LabeledValue]


def encode_value(v: Value) -> bytes:
    # bool first: bool is a subclass of int
    if v is None:
        return bytes([TAG_UNIT])
    if isinstance(v, bool):
        return bytes([TAG_BOOL, 1 if v else 0])
    if isinstance(v, int):
        if not I64_MIN <= v <= I64_MAX:
            raise OverflowError("integer out of i64 range")
        return bytes([TAG_I64]) + _I64.pack(v)
    if isinstance(v, float):
        return bytes([TAG_F64]) + _F64.pack(v)
    if isinstance(v, str):
        raw = v.encode("utf-8")
        return bytes([TAG_STRING]) + _U32.pack(len(raw)) + raw
    if isinstance(v, bytes):
        return bytes([TAG_BYTES]) + _U32.pack(len(v)) + v
    if isinstance(v, list):
        parts = [bytes([TAG_LIST]), _U32.pack(len(v))]
        parts.extend(encode_value(item) for item in v)
        return b"".join(parts)
    if isinstance(v, LabeledValue):
        return bytes([TAG_LABELED]) + encode_label(v.label) + v.payload
    raise TypeError(f"cannot encode value of type {type(v).__name__}")


def make_labeled(label: DCLabel, v: Value) -> LabeledValue:
    """Attach a label to a value, storing the payload pre-encoded."""
    return LabeledValue(label, encode_value(v))


def read_value(buf: bytes, pos: int, depth: int = 0) -> tuple[Value, int]:
    if depth > _MAX_DEPTH:
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
    if tag == TAG_STRING:
        raw, pos = _read_len_prefixed(buf, pos, "string")
        try:
            return raw.decode("utf-8"), pos
        except UnicodeDecodeError as e:
            raise DecodeError("string is not valid UTF-8") from e
    if tag == TAG_BYTES:
        raw, pos = _read_len_prefixed(buf, pos, "bytes")
        return raw, pos
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
        start = pos
        _, pos = read_value(buf, pos, depth + 1)
        return LabeledValue(label, buf[start:pos]), pos
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


@dataclass(frozen=True)
class CallMessage:
    call_id: int
    args: list


@dataclass(frozen=True)
class ResultOk:
    value: Value


@dataclass(frozen=True)
class ResultErr:
    code: ErrorCode
    message: str


Message = Union[CallMessage, ResultOk, ResultErr]


def encode_call(call_id: int, args: Sequence[Value]) -> bytes:
    return encode_call_raw(call_id, [encode_value(a) for a in args])


def encode_call_raw(call_id: int, encoded_args: Sequence[bytes]) -> bytes:
    """Assemble a CALL from already-encoded argument buffers."""
    if not 0 <= call_id <= 0xFFFFFFFF:
        raise OverflowError("call id out of u32 range")
    if len(encoded_args) > 0xFFFF:
        raise OverflowError("too many arguments")
    parts = [bytes([MSG_CALL]), _U32.pack(call_id), _U16.pack(len(encoded_args))]
    parts.extend(encoded_args)
    return b"".join(parts)


def encode_result_ok(value: Value) -> bytes:
    return bytes([MSG_RESULT_OK]) + encode_value(value)


def encode_result_err(code: ErrorCode, message: str) -> bytes:
    return bytes([MSG_RESULT_ERR]) + _U16.pack(int(code)) + encode_value(message)


def decode_message(b: bytes) -> Message:
    if not b:
        raise DecodeError("empty message")
    tag = b[0]
    pos = 1
    if tag == MSG_CALL:
        call_id, pos = _read_u32(b, pos)
        argc, pos = _read_u16(b, pos)
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
    raw = buf[pos : pos + 4]
    if len(raw) != 4:
        raise DecodeError("truncated u32")
    return _U32.unpack(raw)[0], pos + 4


def _read_len_prefixed(buf: bytes, pos: int, what: str) -> tuple[bytes, int]:
    ln, pos = _read_u32(buf, pos)
    raw = buf[pos : pos + ln]
    if len(raw) != ln:
        raise DecodeError(f"truncated {what}")
    return raw, pos + ln
