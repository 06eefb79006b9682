"""Codec tests: exact byte vectors, round-trips, and malformed-input rejection."""

from __future__ import annotations

import math
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from enclaveflow.errors import DecodeError, ErrorCode
from enclaveflow.ifc import make_labeled
from enclaveflow.labels import (
    CNF,
    CNF_FALSE,
    CNF_TRUE,
    DC_PUBLIC,
    Clause,
    DCLabel,
    Principal,
    cnf_from_principal,
    cnf_reduce,
)
from enclaveflow.wire import (
    I64_MAX,
    I64_MIN,
    CallMessage,
    ResultErr,
    ResultOk,
    decode_message,
    decode_value,
    encode_call,
    encode_result_err,
    encode_result_ok,
    encode_value,
)
from value_gen import random_value


# --- pinned byte vectors ------------------------------------------------------


def test_scalar_vectors():
    assert encode_value(None) == b"\x01"
    assert encode_value(True) == b"\x02\x01"
    assert encode_value(False) == b"\x02\x00"
    assert encode_value(1) == b"\x03\x00\x00\x00\x00\x00\x00\x00\x01"
    assert encode_value(-1) == b"\x03" + b"\xff" * 8
    assert encode_value(1.5) == b"\x04\x3f\xf8\x00\x00\x00\x00\x00\x00"
    assert encode_value("hi") == b"\x05\x00\x00\x00\x02hi"
    assert encode_value("") == b"\x05\x00\x00\x00\x00"
    assert encode_value(b"ab") == b"\x08\x00\x00\x00\x02ab"


def test_compound_vectors():
    assert encode_value([]) == b"\x06\x00\x00\x00\x00"
    assert encode_value([None, True]) == b"\x06\x00\x00\x00\x02\x01\x02\x01"
    assert encode_value(make_labeled(DC_PUBLIC, None)) == b"\x07\x00\x00\x00\x00\x01"
    secret = DCLabel(cnf_from_principal("Alice"), CNF_TRUE)
    assert (
        encode_value(make_labeled(secret, True))
        == b"\x07" + b"\x00\x01\x00\x01\x00\x05Alice" + b"\x00\x00" + b"\x02\x01"
    )


def test_bool_int_discrimination():
    # bool is an int subclass in Python but a distinct wire type
    assert encode_value(True)[0] == 0x02
    assert encode_value(1)[0] == 0x03
    assert decode_value(b"\x02\x01") is True
    v = decode_value(encode_value(0))
    assert v == 0 and type(v) is int


def test_i64_bounds():
    hi, lo = (1 << 63) - 1, -(1 << 63)
    assert decode_value(encode_value(hi)) == hi
    assert decode_value(encode_value(lo)) == lo
    with pytest.raises(OverflowError):
        encode_value(1 << 63)
    with pytest.raises(OverflowError):
        encode_value(-(1 << 63) - 1)


def test_float_specials():
    for v in (float("inf"), float("-inf"), 1e308, 5e-324):
        assert decode_value(encode_value(v)) == v
    assert math.isnan(decode_value(encode_value(float("nan"))))
    neg_zero = decode_value(encode_value(-0.0))
    assert neg_zero == 0.0 and math.copysign(1.0, neg_zero) == -1.0


def test_unicode_string_roundtrip():
    s = "héllo ω語 🎉"
    assert decode_value(encode_value(s)) == s


def test_labeled_payload_stays_encoded():
    lv = make_labeled(DC_PUBLIC, [1, "x"])
    assert lv.value == [1, "x"]
    back = decode_value(encode_value(lv))
    assert back == lv


def test_unsupported_types_rejected():
    with pytest.raises(TypeError):
        encode_value({"a": 1})  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        encode_value((1, 2))  # type: ignore[arg-type]


# --- round-trips ----------------------------------------------------------------


def test_random_roundtrips_are_byte_exact():
    rng = random.Random(2024)
    for _ in range(1000):
        v = random_value(rng)
        b = encode_value(v)
        v2 = decode_value(b)
        assert encode_value(v2) == b


# Re-encoding what was decoded must give back the very bytes, so a labeled
# value can hold its decoded value and still leave as it arrived.

_F64 = struct.Struct(">d")
# NaNs with payloads, the quiet NaN, and -0.0
_FLOAT_PATTERNS = ["7ff0000000000001", "fff8000000000abc", "7ff8000000000000", "8000000000000000"]

cnf_st = st.one_of(
    st.just(CNF_FALSE),
    st.frozensets(
        st.frozensets(st.sampled_from(["Alice", "Bob", "P1", "ω"]), min_size=1, max_size=3),
        max_size=3,
    ).map(
        lambda groups: cnf_reduce(
            CNF(frozenset(Clause(frozenset(Principal(n) for n in g)) for g in groups))
        )
    ),
)
label_st = st.builds(DCLabel, cnf_st, cnf_st)
float_st = st.one_of(
    st.binary(min_size=8, max_size=8),
    st.sampled_from([bytes.fromhex(h) for h in _FLOAT_PATTERNS]),
).map(lambda raw: _F64.unpack(raw)[0])
value_st = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(I64_MIN, I64_MAX),
        float_st,
        st.text(max_size=8),
        st.binary(max_size=8),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.builds(make_labeled, label_st, inner)
    ),
    max_leaves=12,
)


def _overwrite(encoded: bytes, at: int, byte: int) -> bytes:
    at %= len(encoded)
    return encoded[:at] + bytes([byte]) + encoded[at + 1 :]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(value_st)
def test_generated_values_reencode_byte_identically(v):
    b = encode_value(v)
    assert encode_value(decode_value(b)) == b


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=32),
        st.builds(_overwrite, value_st.map(encode_value), st.integers(0, 255), st.integers(0, 255)),
    )
)
@example(b"\x04" + bytes.fromhex("7ff0000000000001"))
@example(b"\x07\x00\x00\x00\x00" + b"\x04" + bytes.fromhex("fff8000000000abc"))
def test_accepted_bytes_reencode_byte_identically(b):
    try:
        v = decode_value(b)
    except DecodeError:
        return
    assert encode_value(v) == b


# --- malformed input -------------------------------------------------------------


def test_every_truncation_rejected():
    sample = encode_value(
        [1, "ab", make_labeled(DCLabel(cnf_from_principal("P1"), CNF_TRUE), [b"xy", None]), 2.0, True]
    )
    for cut in range(len(sample)):
        with pytest.raises(DecodeError):
            decode_value(sample[:cut])


def test_unknown_tags_rejected():
    for tag in (0x00, 0x09, 0x7F, 0xFF):
        with pytest.raises(DecodeError):
            decode_value(bytes([tag]))


def test_bad_bool_byte_rejected():
    with pytest.raises(DecodeError):
        decode_value(b"\x02\x02")
    with pytest.raises(DecodeError):
        decode_value(b"\x02\xff")


def test_bad_utf8_rejected():
    with pytest.raises(DecodeError):
        decode_value(b"\x05\x00\x00\x00\x02\xff\xfe")


def test_oversized_list_count_rejected():
    with pytest.raises(DecodeError):
        decode_value(b"\x06\xff\xff\xff\xff")


def test_oversized_string_length_rejected():
    with pytest.raises(DecodeError):
        decode_value(b"\x05\xff\xff\xff\xff" + b"x" * 16)


def test_bad_label_in_labeled_value_rejected():
    bob = b"\x00\x01\x00\x03Bob"
    # duplicate clause in the secrecy CNF
    with pytest.raises(DecodeError):
        decode_value(b"\x07" + b"\x00\x02" + bob + bob + b"\x00\x00" + b"\x01")


def test_deep_nesting_rejected_cleanly():
    bomb = b"\x06\x00\x00\x00\x01" * 100 + b"\x01"
    with pytest.raises(DecodeError):
        decode_value(bomb)


def test_trailing_bytes_rejected():
    with pytest.raises(DecodeError):
        decode_value(encode_value(5) + b"\x00")


def test_random_garbage_never_crashes():
    rng = random.Random(99)
    for _ in range(2000):
        blob = rng.randbytes(rng.randint(0, 64))
        try:
            decode_value(blob)
        except DecodeError:
            pass


def test_mutated_encodings_never_crash():
    rng = random.Random(100)
    for _ in range(500):
        b = bytearray(encode_value(random_value(rng)))
        if b:
            b[rng.randrange(len(b))] ^= 1 << rng.randrange(8)
        try:
            decode_value(bytes(b))
        except DecodeError:
            pass


# --- messages --------------------------------------------------------------------


def test_call_vector_and_roundtrip():
    b = encode_call(3, [5, "x"])
    assert b == b"\x01\x00\x00\x00\x03\x00\x02" + encode_value(5) + encode_value("x")
    msg = decode_message(b)
    assert msg == CallMessage(3, [5, "x"])


def test_call_no_args():
    assert decode_message(encode_call(0, [])) == CallMessage(0, [])


def test_result_vectors_and_roundtrip():
    assert encode_result_ok(None) == b"\x02\x01"
    assert decode_message(encode_result_ok([1])) == ResultOk([1])
    b = encode_result_err(ErrorCode.IFC_VIOLATION, "information flow violation")
    assert b == b"\x03\x00\x01" + b"\x05\x00\x00\x00\x1ainformation flow violation"
    assert decode_message(b) == ResultErr(ErrorCode.IFC_VIOLATION, "information flow violation")


def test_all_error_codes_roundtrip():
    for code in ErrorCode:
        msg = decode_message(encode_result_err(code, "m"))
        assert isinstance(msg, ResultErr) and msg.code == code


def test_unknown_error_code_rejected():
    for raw in (0, 6, 0xFFFF):
        blob = b"\x03" + struct.pack(">H", raw) + encode_value("x")
        with pytest.raises(DecodeError):
            decode_message(blob)


def test_nonstring_error_message_rejected():
    # the list holds an unknown tag: refusing it as a non-string, not as a
    # bad tag, shows the type is checked before anything is decoded
    for message in (encode_value(5), b"\x06" + struct.pack(">I", 1) + b"\xff"):
        with pytest.raises(DecodeError, match="string"):
            decode_message(b"\x03\x00\x01" + message)


def test_unknown_message_tag_rejected():
    with pytest.raises(DecodeError):
        decode_message(b"\x04")
    with pytest.raises(DecodeError):
        decode_message(b"")


def test_call_argc_must_match():
    # claims two args, carries one
    blob = b"\x01\x00\x00\x00\x00\x00\x02" + encode_value(5)
    with pytest.raises(DecodeError):
        decode_message(blob)
    # claims one arg, carries two
    blob = b"\x01\x00\x00\x00\x00\x00\x01" + encode_value(5) + encode_value(6)
    with pytest.raises(DecodeError):
        decode_message(blob)


def test_call_id_bounds():
    assert decode_message(encode_call(0xFFFFFFFF, [])).call_id == 0xFFFFFFFF
    with pytest.raises(OverflowError):
        encode_call(1 << 32, [])
