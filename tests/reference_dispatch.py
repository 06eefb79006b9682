"""A slow reference for ``App.dispatch``, written from README's rules, with
no cache and no shortcut: the strict label parse (``read_cnf`` twice) on
every decode; ``label_oracle``'s truth tables for every guard and the
output gate, and ``join`` and ``downgrade`` afresh from the CNF algebra; a
walk of the whole result before any byte is encoded, where the first
refusal met decides the reply; and a copy wherever a value moves.
``ReferenceApp`` stages like ``App`` and its ``Context`` has
``IfcContext``'s operations, so a function runs unchanged under either.
"""

from __future__ import annotations

import struct
from types import SimpleNamespace

from label_oracle import oracle_can_flow_to as flows, oracle_implies

from enclaveflow.attest import MAX_MESSAGE
from enclaveflow.errors import IFC_VIOLATION_MESSAGE, DecodeError, ErrorCode, IfcViolation
from enclaveflow.errors import LabelError, NotReady
from enclaveflow.labels import DCLabel, LabeledValue, cnf_and, cnf_or, cnf_reduce
from enclaveflow.labels import encode_cnf, read_cnf

MAX_DEPTH = 64
I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1
UNIT, BOOL, I64, F64, STRING, LIST, LABELED, BYTES = range(1, 9)  # value tags
CALL, RESULT_OK, RESULT_ERR = 1, 2, 3  # message tags


def join(a: DCLabel, b: DCLabel) -> DCLabel:
    return DCLabel(cnf_and(a.secrecy, b.secrecy), cnf_or(a.integrity, b.integrity))


def downgrade(p, l: DCLabel) -> DCLabel:
    """Drop each secrecy clause the privilege speaks for; endorse integrity.
    ``p`` lets ``a`` flow to ``b`` iff ``downgrade(p, a)`` flows to ``b``."""
    kept = [c for c in l.secrecy if not oracle_implies(p.description, frozenset({c}))]
    return DCLabel(cnf_reduce(frozenset(kept)), cnf_and(l.integrity, p.description))


def copy(v, depth: int = 0):
    """A copy sharing no list with ``v``; a labeled value is a leaf."""
    if depth > MAX_DEPTH:
        raise ValueError("value nesting too deep")
    if isinstance(v, list):
        return [copy(item, depth + 1) for item in v]
    if isinstance(v, str):
        v.encode("utf-8")  # a string with no UTF-8 is no wire value
    if v is None or isinstance(v, (bool, float, str, bytes, LabeledValue)):
        return v
    if not isinstance(v, int):
        raise TypeError(f"not a wire value: {type(v).__name__}")
    if not I64_MIN <= v <= I64_MAX:
        raise OverflowError("integer out of i64 range")
    return v


def check(v, gate: DCLabel | None, depth: int = 0) -> None:
    """Raise the encoder's first refusal in ``v``, left to right: too deep,
    no wire value, no UTF-8, or a label the gate or the codec refuses."""
    if depth > MAX_DEPTH:
        raise ValueError("value nesting too deep")
    if isinstance(v, str):
        v.encode("utf-8")
    elif isinstance(v, list):
        for item in v:
            check(item, gate, depth + 1)
    elif isinstance(v, LabeledValue):
        if gate is not None and not flows(v.label, gate):
            raise IfcViolation()
        encode_cnf(v.label.secrecy)  # each raises LabelError past the codec's bounds
        encode_cnf(v.label.integrity)
        check(v.value, gate, depth + 1)
    else:
        copy(v)


def encode(v) -> bytes:
    """The bytes of a value ``check`` passed."""
    if v is None:
        return bytes([UNIT])
    if isinstance(v, bool):
        return bytes([BOOL, v])
    if isinstance(v, (int, float)):
        return struct.pack(">Bq", I64, v) if isinstance(v, int) else struct.pack(">Bd", F64, v)
    if isinstance(v, (str, bytes)):
        tag, raw = (STRING, v.encode("utf-8")) if isinstance(v, str) else (BYTES, v)
        return bytes([tag]) + len(raw).to_bytes(4, "big") + raw
    if isinstance(v, list):
        return bytes([LIST]) + len(v).to_bytes(4, "big") + b"".join(map(encode, v))
    label = encode_cnf(v.label.secrecy) + encode_cnf(v.label.integrity)
    return bytes([LABELED]) + label + encode(v.value)


def _uint(buf: bytes, pos: int, size: int) -> tuple[int, int]:
    if pos + size > len(buf):
        raise DecodeError("truncated")
    return int.from_bytes(buf[pos : pos + size], "big"), pos + size


def _items(buf: bytes, pos: int, size: int, seen: list, depth: int) -> tuple[list, int]:
    """A count, refused if more than the bytes left, then that many values."""
    n, pos = _uint(buf, pos, size)
    if pos + n > len(buf):
        raise DecodeError("count exceeds remaining bytes")
    items = []
    for _ in range(n):
        item, pos = decode(buf, pos, seen, depth)
        items.append(item)
    return items, pos


def decode(buf: bytes, pos: int, seen: list, depth: int = 0):
    """One value at ``pos``; the bytes of each label in it go to ``seen``."""
    if depth > MAX_DEPTH or pos >= len(buf):
        raise DecodeError("too deep or truncated")
    tag, pos = buf[pos], pos + 1
    if tag == UNIT:
        return None, pos
    if tag == BOOL:
        if buf[pos : pos + 1] not in (b"\x00", b"\x01"):
            raise DecodeError("bad or no bool")
        return buf[pos] == 1, pos + 1
    if tag in (I64, F64):
        _uint(buf, pos, 8)
        return struct.unpack_from(">q" if tag == I64 else ">d", buf, pos)[0], pos + 8
    if tag in (STRING, BYTES):
        n, pos = _uint(buf, pos, 4)
        raw = buf[pos : pos + n]
        if len(raw) != n:
            raise DecodeError("truncated")
        try:
            return (raw if tag == BYTES else raw.decode("utf-8")), pos + n
        except UnicodeDecodeError as e:
            raise DecodeError("no UTF-8") from e
    if tag == LIST:
        return _items(buf, pos, 4, seen, depth + 1)
    if tag != LABELED:
        raise DecodeError("unknown tag")
    start = pos
    try:
        secrecy, pos = read_cnf(buf, pos)
        integrity, pos = read_cnf(buf, pos)
    except LabelError as e:
        raise DecodeError("bad label") from e
    seen.append(buf[start:pos])
    value, pos = decode(buf, pos, seen, depth + 1)
    return LabeledValue(DCLabel(secrecy, integrity), value), pos


def decode_request(buf: bytes, seen: list):
    """``(call_id, args)`` for a CALL, None for another well-formed message."""
    call = None
    if buf[:1] == bytes([CALL]):
        call_id, pos = _uint(buf, 1, 4)
        args, pos = _items(buf, pos, 2, seen, 0)
        call = call_id, args
    elif buf[:1] == bytes([RESULT_OK]):
        _, pos = decode(buf, 1, seen)
    elif buf[:1] == bytes([RESULT_ERR]):
        code, pos = _uint(buf, 1, 2)
        if code not in {c.value for c in ErrorCode} or buf[pos : pos + 1] != bytes([STRING]):
            raise DecodeError("bad error")
        _, pos = decode(buf, pos, seen)
    else:
        raise DecodeError("empty or unknown message")
    if pos != len(buf):
        raise DecodeError("trailing bytes")
    return call


def error(code: ErrorCode, message: str) -> bytes:
    return bytes([RESULT_ERR]) + int(code).to_bytes(2, "big") + encode(message)


def error_reply(e: Exception) -> bytes:
    """What a refusal or a raising function answers while the gate is open."""
    if isinstance(e, IfcViolation):
        return error(ErrorCode.IFC_VIOLATION, IFC_VIOLATION_MESSAGE)
    if isinstance(e, DecodeError):
        return error(ErrorCode.DECODE_ERROR, "malformed payload")
    return error(ErrorCode.INTERNAL, "NOT_READY" if isinstance(e, NotReady) else "internal error")


class Context:
    """``IfcContext``'s operations.  With ``enforce`` off no guard refuses,
    but labels still float.  A ref is anything with a label and a cell."""

    def __init__(self, privilege, current, clearance, output, enforce: bool) -> None:
        self.privilege, self.current = privilege, current
        self.clearance, self.output, self.enforce = clearance, output, enforce

    def _guard(self, ok: bool) -> None:
        if self.enforce and not ok:
            raise IfcViolation()

    def _raise_by(self, l: DCLabel) -> None:
        target = join(self.current, l)
        self._guard(flows(target, self.clearance))
        self.current = target

    # labeling and new refs: at or above the current label, within clearance
    def label(self, l, v):
        self._guard(flows(self.current, l) and flows(l, self.clearance))
        return LabeledValue(l, copy(v))

    def label_p(self, p, l, v):
        self._guard(flows(downgrade(p, self.current), l) and flows(l, self.clearance))
        return LabeledValue(l, copy(v))

    def new_ref(self, l, v):
        self._guard(flows(self.current, l) and flows(l, self.clearance))
        return SimpleNamespace(label=l, cell=copy(v))

    # opening and reading: the context rises by what it sees
    def unlabel(self, lv):
        self._raise_by(lv.label)
        return copy(lv.value)

    def unlabel_p(self, p, lv):
        self._raise_by(downgrade(p, lv.label))
        return copy(lv.value)

    def taint(self, l) -> None:
        self._raise_by(l)

    def taint_p(self, p, l) -> None:
        self._raise_by(downgrade(p, l))

    def read_ref(self, r):
        self._raise_by(r.label)
        return copy(r.cell)

    # writing: at or below the ref's label; a cell keeps whether it is a list
    def write_ref(self, r, v) -> None:
        self._guard(flows(self.current, r.label))
        v = copy(v)
        if isinstance(v, list) != isinstance(r.cell, list):
            raise TypeError("a ref keeps whether it holds a list")
        r.cell = v

    def append_ref(self, r, v) -> None:
        self._guard(flows(self.current, r.label))
        if not isinstance(r.cell, list):
            raise TypeError("append_ref needs a list cell")
        r.cell.append(copy(v))

    def get_privilege(self):
        return self.privilege

    def output_gate(self) -> bool:
        return not self.enforce or flows(self.current, self.output)


class ReferenceApp:
    """``App``'s enclave side; ``labels_seen`` holds the last request's labels."""

    def __init__(self, enforce: bool = True) -> None:
        self.enforce, self._fns, self.labels_seen = enforce, [], []

    def enclave_fn(self, template, fn, arg_types, name=None) -> int:
        self._fns.append((name or fn.__name__, tuple(arg_types), template, fn))
        return len(self._fns) - 1

    def labeled_constant(self, l, v) -> LabeledValue:
        return LabeledValue(l, copy(v))

    def labeled_ref(self, l, v):
        return SimpleNamespace(label=l, cell=copy(v))

    def run_client(self, name, body) -> None:
        pass  # this is the enclave: no client body runs here

    def dispatch(self, request: bytes) -> bytes:
        self.labels_seen = []
        try:
            call = decode_request(request, self.labels_seen)
        except DecodeError:
            return error(ErrorCode.DECODE_ERROR, "malformed request")
        if call is None:
            return error(ErrorCode.DECODE_ERROR, "expected a call")
        call_id, args = call
        if call_id >= len(self._fns):
            return error(ErrorCode.UNKNOWN_CALL, f"no function with id {call_id}")
        name, arg_types, tpl, fn = self._fns[call_id]
        if len(args) != len(arg_types):
            return error(ErrorCode.DECODE_ERROR, f"{name} takes {len(arg_types)} argument(s)")
        if any(type(a) is not (type(None) if t is None else t) for a, t in zip(args, arg_types)):
            return error(ErrorCode.DECODE_ERROR, f"argument type mismatch in {name}")
        ctx = Context(tpl.privilege, tpl.current, tpl.clearance, tpl.output, self.enforce)
        try:
            result = fn(ctx, *[copy(a) for a in args])
        except Exception as e:  # noqa: BLE001 - the gate decides what a raise may say
            return error_reply(e if ctx.output_gate() else IfcViolation())
        if not ctx.output_gate():
            return error_reply(IfcViolation())
        try:
            check(result, ctx.output if self.enforce else None)
        except Exception as e:  # noqa: BLE001
            return error_reply(e)
        reply = bytes([RESULT_OK]) + encode(result)
        return reply if len(reply) <= MAX_MESSAGE else error(ErrorCode.INTERNAL, "internal error")
