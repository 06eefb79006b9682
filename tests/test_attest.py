"""Attested-channel tests: measurement, handshake, sealing, and the monitor."""

from __future__ import annotations

import random
import socket
import struct
import threading

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from enclaveflow.attest import (
    MAX_FRAME,
    Monitor,
    PlainChannel,
    compute_measurement,
    connect_channel,
    gen_signing_key,
    handshake_client,
    handshake_server,
    load_exchange_private,
    load_exchange_public,
    load_signing_private,
    load_signing_public,
    private_raw,
    public_raw,
    recv_frame,
    save_key_hex,
    send_frame,
)
from enclaveflow.errors import (
    AttestationFailure,
    AuthFailure,
    CryptoError,
    DecodeError,
    ErrorCode,
    TransportError,
)
from enclaveflow.wire import (
    CallMessage,
    ResultErr,
    decode_message,
    encode_call,
    encode_result_ok,
)

AUTHORITY = gen_signing_key()
AUTHORITY_PUB = AUTHORITY.public_key()
ALICE_KEY = gen_signing_key()
CREDS = {"Alice": ALICE_KEY.public_key()}
TABLE = [(0, "checkpwd"), (1, "other")]
MEASUREMENT = compute_measurement("demo-1.0", TABLE, b"config")


def spair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


def run_server(sock, **kw):
    """handshake_server in a thread; returns a result slot."""
    slot: dict = {}

    def go():
        try:
            slot["session"], slot["name"] = handshake_server(
                sock,
                measurement=kw.get("measurement", MEASUREMENT),
                authority_private=kw.get("authority", AUTHORITY),
                credentials=kw.get("credentials", CREDS),
                verify_client=kw.get("verify_client", True),
            )
        except Exception as e:  # noqa: BLE001 - surfaced via the slot
            slot["error"] = e

    t = threading.Thread(target=go)
    t.start()
    slot["thread"] = t
    return slot


# --- measurement -----------------------------------------------------------------


def test_measurement_is_deterministic():
    a = compute_measurement("demo-1.0", TABLE, b"config")
    b = compute_measurement("demo-1.0", list(TABLE), b"config")
    assert a == b and len(a) == 32


def test_measurement_table_order_is_canonical():
    shuffled = [(1, "other"), (0, "checkpwd")]
    assert compute_measurement("demo-1.0", shuffled, b"config") == MEASUREMENT


def test_measurement_sensitivity():
    assert compute_measurement("demo-1.0", TABLE + [(2, "extra")], b"config") != MEASUREMENT
    assert compute_measurement("demo-1.0", [(0, "checkpwd"), (1, "Other")], b"config") != MEASUREMENT
    assert compute_measurement("demo-1.0", [(0, "other"), (1, "checkpwd")], b"config") != MEASUREMENT
    assert compute_measurement("demo-1.1", TABLE, b"config") != MEASUREMENT
    assert compute_measurement("demo-1.0", TABLE, b"confiG") != MEASUREMENT


# --- handshake -------------------------------------------------------------------


def test_handshake_happy_path():
    c, s = spair()
    slot = run_server(s)
    session = handshake_client(
        c,
        client_name="Alice",
        signing_key=ALICE_KEY,
        expected_measurement=MEASUREMENT,
        authority_public=AUTHORITY_PUB,
    )
    slot["thread"].join()
    assert "error" not in slot
    assert slot["name"] == "Alice"
    server = slot["session"]
    assert server.session_id == session.session_id
    # both directions carry data
    assert server.open(session.seal(b"ping")) == b"ping"
    assert session.open(server.seal(b"pong")) == b"pong"


def test_unknown_client_is_refused():
    c, s = spair()
    mallory = gen_signing_key()
    slot = run_server(s)
    with pytest.raises(AuthFailure):
        handshake_client(
            c,
            client_name="Mallory",
            signing_key=mallory,
            expected_measurement=MEASUREMENT,
            authority_public=AUTHORITY_PUB,
        )
    slot["thread"].join()
    assert isinstance(slot["error"], AuthFailure)


def test_right_name_wrong_key_is_refused():
    c, s = spair()
    imposter = gen_signing_key()  # not the provisioned Alice key
    slot = run_server(s)
    with pytest.raises(AuthFailure):
        handshake_client(
            c,
            client_name="Alice",
            signing_key=imposter,
            expected_measurement=MEASUREMENT,
            authority_public=AUTHORITY_PUB,
        )
    slot["thread"].join()


def test_client_verification_can_be_disabled():
    c, s = spair()
    slot = run_server(s, verify_client=False, credentials={})
    session = handshake_client(
        c,
        client_name="anyone",
        signing_key=None,  # sends an all-zero signature
        expected_measurement=MEASUREMENT,
        authority_public=AUTHORITY_PUB,
    )
    slot["thread"].join()
    assert "error" not in slot
    assert slot["session"].open(session.seal(b"x")) == b"x"


def test_measurement_mismatch_aborts():
    c, s = spair()
    slot = run_server(s)
    wrong = bytearray(MEASUREMENT)
    wrong[0] ^= 1
    with pytest.raises(AttestationFailure) as exc:
        handshake_client(
            c,
            client_name="Alice",
            signing_key=ALICE_KEY,
            expected_measurement=bytes(wrong),
            authority_public=AUTHORITY_PUB,
        )
    assert exc.value.reason == "measurement-mismatch"
    c.close()
    slot["thread"].join()


def test_wrong_authority_is_bad_signature():
    c, s = spair()
    slot = run_server(s)
    other_authority = gen_signing_key()
    with pytest.raises(AttestationFailure) as exc:
        handshake_client(
            c,
            client_name="Alice",
            signing_key=ALICE_KEY,
            expected_measurement=MEASUREMENT,
            authority_public=other_authority.public_key(),
        )
    assert exc.value.reason == "bad-signature"
    c.close()
    slot["thread"].join()


# --- man-in-the-middle harness ------------------------------------------------------


def handshake_via_proxy(mutate, record: list | None = None):
    """Run a full handshake with a frame-level proxy that can rewrite the
    SERVER_ATTEST body.  Returns whatever handshake_client raises/returns."""
    c_client, c_proxy = spair()
    s_proxy, s_server = spair()
    slot = run_server(s_server)

    def proxy():
        try:
            send_frame(s_proxy, recv_frame(c_proxy))  # hello →
            attest = recv_frame(s_proxy)
            if record is not None:
                record.append(attest)
            send_frame(c_proxy, mutate(attest))  # ← attest (possibly rewritten)
            send_frame(s_proxy, recv_frame(c_proxy))  # finish →
        except (TransportError, OSError):
            pass
        finally:
            c_proxy.close()
            s_proxy.close()

    p = threading.Thread(target=proxy)
    p.start()
    try:
        return handshake_client(
            c_client,
            client_name="Alice",
            signing_key=ALICE_KEY,
            expected_measurement=MEASUREMENT,
            authority_public=AUTHORITY_PUB,
        )
    finally:
        c_client.close()
        p.join()
        slot["thread"].join()


def test_attest_bitflips_always_abort():
    rng = random.Random(4242)
    for _ in range(30):
        def flip(body: bytes) -> bytes:
            b = bytearray(body)
            b[rng.randrange(len(b))] ^= 1 << rng.randrange(8)
            return bytes(b)

        with pytest.raises((AttestationFailure, DecodeError, TransportError)):
            handshake_via_proxy(flip)


def test_replayed_attest_is_stale():
    captured: list[bytes] = []
    handshake_via_proxy(lambda b: b, record=captured)  # honest run to record
    assert captured
    with pytest.raises(AttestationFailure) as exc:
        handshake_via_proxy(lambda _: captured[0])
    assert exc.value.reason == "stale-binding"


def test_verification_order_signature_first():
    # wreck both the signature and the measurement: the signature verdict wins
    def wreck(body: bytes) -> bytes:
        b = bytearray(body)
        b[40] ^= 1  # inside measurement
        b[120] ^= 1  # inside signature
        return bytes(b)

    with pytest.raises(AttestationFailure) as exc:
        handshake_via_proxy(wreck)
    assert exc.value.reason == "bad-signature"


# --- sealing ---------------------------------------------------------------------


def make_sessions():
    c, s = spair()
    slot = run_server(s)
    client = handshake_client(
        c,
        client_name="Alice",
        signing_key=ALICE_KEY,
        expected_measurement=MEASUREMENT,
        authority_public=AUTHORITY_PUB,
    )
    slot["thread"].join()
    return client, slot["session"]


def test_seal_open_roundtrip_and_counters():
    client, server = make_sessions()
    for i in range(5):
        assert server.open(client.seal(f"m{i}".encode())) == f"m{i}".encode()
    assert client.send_seq == 5 and server.recv_seq == 5


def test_sealed_record_bitflip_fails():
    rng = random.Random(7)
    for _ in range(20):
        client, server = make_sessions()
        rec = bytearray(client.seal(b"attack at dawn"))
        rec[rng.randrange(1, len(rec))] ^= 1 << rng.randrange(8)
        with pytest.raises(CryptoError):
            server.open(bytes(rec))


def test_replayed_record_fails():
    client, server = make_sessions()
    rec = client.seal(b"once")
    assert server.open(rec) == b"once"
    with pytest.raises(CryptoError):
        server.open(rec)  # counter has moved on


def test_out_of_order_record_fails():
    client, server = make_sessions()
    first, second = client.seal(b"1"), client.seal(b"2")
    with pytest.raises(CryptoError):
        server.open(second)
    del first


def test_record_must_carry_record_tag():
    client, server = make_sessions()
    with pytest.raises(TransportError):
        server.open(b"\x01" + client.seal(b"x")[1:])


# --- framing ---------------------------------------------------------------------


def test_frame_roundtrip():
    a, b = spair()
    send_frame(a, b"hello")
    assert recv_frame(b) == b"hello"
    send_frame(a, b"")
    assert recv_frame(b) == b""


def test_oversized_frame_rejected():
    a, b = spair()
    a.sendall(struct.pack(">I", MAX_FRAME + 1))
    with pytest.raises(TransportError):
        recv_frame(b)


def test_eof_mid_frame():
    a, b = spair()
    a.sendall(struct.pack(">I", 10) + b"abc")
    a.close()
    with pytest.raises(TransportError):
        recv_frame(b)


# --- the monitor loop ---------------------------------------------------------------


def echo_dispatch(request: bytes) -> bytes:
    msg = decode_message(request)
    assert isinstance(msg, CallMessage)
    return encode_result_ok(msg.call_id)


def start_monitor(**kw):
    defaults = dict(
        measurement=MEASUREMENT,
        authority_private=AUTHORITY,
        credentials=CREDS,
        attested=True,
        verify_client=True,
    )
    defaults.update(kw)
    mon = Monitor("127.0.0.1", 0, echo_dispatch, **defaults)
    t = threading.Thread(target=mon.serve_forever, daemon=True)
    t.start()
    return mon, t


def client_channel(mon, **kw):
    defaults = dict(
        attested=True,
        client_name="Alice",
        signing_key=ALICE_KEY,
        expected_measurement=MEASUREMENT,
        authority_public=AUTHORITY_PUB,
    )
    defaults.update(kw)
    return connect_channel("127.0.0.1", mon.port, **defaults)


def test_monitor_serves_calls_and_sequential_connections():
    mon, t = start_monitor()
    try:
        for round_ in range(2):  # two separate connections
            ch = client_channel(mon)
            for call_id in (0, 1, 7):
                ch.send_message(encode_call(call_id, []))
                assert decode_message(ch.recv_message()) == decode_message(
                    encode_result_ok(call_id)
                )
            ch.close()
    finally:
        mon.stop()
        t.join()


def _hello(name_field: bytes) -> bytes:
    # type byte, nonce, name field, ephemeral key, signature
    return b"\x10" + bytes(32) + name_field + bytes(32) + bytes(64)


@pytest.mark.parametrize(
    "garbage",
    [
        b"junk!",
        _hello(b"\x08" + struct.pack(">I", 5) + b"Alice"),  # bytes tag, not string
        _hello(b"\x05" + struct.pack(">I", 6) + b"Alice"),  # length runs into the key
        _hello(b"\x05" + struct.pack(">I", 5) + b"\xffAlic"),  # not UTF-8
    ],
    ids=["junk", "wrong-name-tag", "lying-name-length", "non-utf8-name"],
)
def test_monitor_survives_garbage_then_serves(garbage):
    mon, t = start_monitor()
    try:
        raw = socket.create_connection(("127.0.0.1", mon.port), timeout=5)
        send_frame(raw, garbage)
        assert decode_message(recv_frame(raw)) == ResultErr(
            ErrorCode.DECODE_ERROR, "malformed hello"
        )
        raw.close()
        ch = client_channel(mon)  # still serving
        ch.send_message(encode_call(3, []))
        assert decode_message(ch.recv_message()) == decode_message(encode_result_ok(3))
        ch.close()
    finally:
        mon.stop()
        t.join()


def test_monitor_survives_reset_mid_frame():
    mon, t = start_monitor()
    try:
        raw = socket.create_connection(("127.0.0.1", mon.port), timeout=5)
        raw.sendall(struct.pack(">I", 100) + b"abc")  # a frame cut short
        raw.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        raw.close()  # linger 0: the peer sees a reset, not a clean close
        ch = client_channel(mon)  # still serving
        ch.send_message(encode_call(3, []))
        assert decode_message(ch.recv_message()) == decode_message(encode_result_ok(3))
        ch.close()
    finally:
        mon.stop()
        t.join()


def test_monitor_never_dispatches_unauthenticated():
    calls: list[bytes] = []

    def spy(request: bytes) -> bytes:
        calls.append(request)
        return encode_result_ok(None)

    mon = Monitor(
        "127.0.0.1",
        0,
        spy,
        measurement=MEASUREMENT,
        authority_private=AUTHORITY,
        credentials=CREDS,
    )
    t = threading.Thread(target=mon.serve_forever, daemon=True)
    t.start()
    try:
        with pytest.raises(AuthFailure):
            connect_channel(
                "127.0.0.1",
                mon.port,
                client_name="Mallory",
                signing_key=gen_signing_key(),
                expected_measurement=MEASUREMENT,
                authority_public=AUTHORITY_PUB,
            )
        assert calls == []
    finally:
        mon.stop()
        t.join()


def test_monitor_plain_mode():
    mon, t = start_monitor(attested=False, authority_private=None)
    try:
        ch = connect_channel("127.0.0.1", mon.port, attested=False)
        assert isinstance(ch, PlainChannel)
        ch.send_message(encode_call(9, []))
        assert decode_message(ch.recv_message()) == decode_message(encode_result_ok(9))
        ch.close()
    finally:
        mon.stop()
        t.join()


# --- key files ------------------------------------------------------------------------


def test_key_file_roundtrip(tmp_path):
    sig = Ed25519PrivateKey.generate()
    exch = X25519PrivateKey.generate()
    save_key_hex(tmp_path / "sig.priv", private_raw(sig))
    save_key_hex(tmp_path / "sig.pub", public_raw(sig.public_key()))
    save_key_hex(tmp_path / "exch.priv", private_raw(exch))
    save_key_hex(tmp_path / "exch.pub", public_raw(exch.public_key()))
    assert private_raw(load_signing_private(tmp_path / "sig.priv")) == private_raw(sig)
    assert public_raw(load_signing_public(tmp_path / "sig.pub")) == public_raw(sig.public_key())
    assert private_raw(load_exchange_private(tmp_path / "exch.priv")) == private_raw(exch)
    assert public_raw(load_exchange_public(tmp_path / "exch.pub")) == public_raw(exch.public_key())


def test_key_file_rejects_garbage(tmp_path):
    bad = tmp_path / "key"
    bad.write_text("not hex at all")
    with pytest.raises(CryptoError):
        load_signing_private(bad)
    bad.write_text("abcd")  # valid hex, wrong length
    with pytest.raises(CryptoError):
        load_signing_public(bad)
