"""Attested-channel tests: measurement, handshake, sealing, and the monitor."""

from __future__ import annotations

import errno
import functools
import hashlib
import hmac
import os
import random
import socket
import struct
import sys
import threading
import time

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from hypothesis import given, settings, strategies as st

from enclaveflow import attest
from enclaveflow.attest import (
    MAX_FRAME,
    MSG_CLIENT_FINISH,
    MSG_RECORD,
    MSG_SERVER_ATTEST,
    MSG_SERVER_RESUMED,
    Channel,
    Monitor,
    Session,
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
    save_key_hex,
    _TICKET_LEN,
    _TicketKey,
    _TicketTable,
    _derive_session,
    _parse_hello,
    _ticket_slot,
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
    encode_value,
)

AUTHORITY = gen_signing_key()
AUTHORITY_PUB = AUTHORITY.public_key()
ALICE_KEY = gen_signing_key()
CREDS = {"Alice": ALICE_KEY.public_key()}
TABLE = [(0, "checkpwd"), (1, "other")]
MEASUREMENT = compute_measurement("demo-1.0", TABLE, b"config")
# where a handshake_client called by hand keeps Alice's ticket
SLOT = ("socketpair", 0, "Alice")
# an ATTEST: tag, key share, measurement, report data and quote (161 B), ticket
ATTEST_LEN = 1 + 32 + 32 + 32 + 64 + _TICKET_LEN


@pytest.fixture(autouse=True)
def fresh_tickets(monkeypatch) -> None:
    """A fresh client ticket table: no test resumes on another's ticket."""
    monkeypatch.setattr(attest, "_TICKETS", _TicketTable())


def send_frame(sock, body: bytes) -> None:
    """One plain frame, as a peer with no session sends it."""
    Channel(sock).send_message(body)


def spair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    return a, b


def run_server(sock, **kw):
    """handshake_server in a thread, under a ticket key of its own unless
    ``ticket_key`` names one; returns a result slot."""
    slot: dict = {}
    ticket_key = kw.get("ticket_key") or _TicketKey()

    def go():
        try:
            slot["session"], slot["name"] = handshake_server(
                Channel(sock),
                measurement=kw.get("measurement", MEASUREMENT),
                authority_private=kw.get("authority", AUTHORITY),
                credentials=kw.get("credentials", CREDS),
                verify_client=kw.get("verify_client", True),
                ticket_key=ticket_key,
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
        Channel(c),
        client_name="Alice",
        signing_key=ALICE_KEY,
        expected_measurement=MEASUREMENT,
        authority_public=AUTHORITY_PUB,
        ticket_slot=SLOT,
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
            Channel(c),
            client_name="Mallory",
            signing_key=mallory,
            expected_measurement=MEASUREMENT,
            authority_public=AUTHORITY_PUB,
            ticket_slot=SLOT,
        )
    slot["thread"].join()
    assert isinstance(slot["error"], AuthFailure)


def test_right_name_wrong_key_is_refused():
    c, s = spair()
    imposter = gen_signing_key()  # not the provisioned Alice key
    slot = run_server(s)
    with pytest.raises(AuthFailure):
        handshake_client(
            Channel(c),
            client_name="Alice",
            signing_key=imposter,
            expected_measurement=MEASUREMENT,
            authority_public=AUTHORITY_PUB,
            ticket_slot=SLOT,
        )
    slot["thread"].join()


def test_client_verification_can_be_disabled():
    c, s = spair()
    slot = run_server(s, verify_client=False, credentials={})
    session = handshake_client(
        Channel(c),
        client_name="anyone",
        signing_key=None,  # sends an all-zero signature
        expected_measurement=MEASUREMENT,
        authority_public=AUTHORITY_PUB,
        ticket_slot=SLOT,
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
            Channel(c),
            client_name="Alice",
            signing_key=ALICE_KEY,
            expected_measurement=bytes(wrong),
            authority_public=AUTHORITY_PUB,
            ticket_slot=SLOT,
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
            Channel(c),
            client_name="Alice",
            signing_key=ALICE_KEY,
            expected_measurement=MEASUREMENT,
            authority_public=other_authority.public_key(),
            ticket_slot=SLOT,
        )
    assert exc.value.reason == "bad-signature"
    c.close()
    slot["thread"].join()


# --- man-in-the-middle harness ------------------------------------------------------


def handshake_via_proxy(mutate, record: list | None = None, server: dict | None = None, **kw):
    """Run a handshake with a frame-level proxy that can rewrite the
    enclave's reply.  Returns whatever handshake_client raises/returns;
    ``server`` gets the server's result slot, and ``kw`` goes to
    ``run_server``."""
    c_client, c_proxy = spair()
    s_proxy, s_server = spair()
    slot = run_server(s_server, **kw)

    def proxy():
        from_client, from_server = Channel(c_proxy), Channel(s_proxy)
        try:
            from_server.send_message(from_client.recv_frame())  # hello →
            reply = from_server.recv_frame()
            if record is not None:
                record.append(reply)
            from_client.send_message(mutate(reply))  # ← reply (possibly rewritten)
            from_server.send_message(from_client.recv_frame())  # finish →
            slot["thread"].join(5)  # the server's verdict on FINISH, before we hang up
        except (TransportError, OSError):
            pass
        finally:
            c_proxy.close()
            s_proxy.close()

    p = threading.Thread(target=proxy)
    p.start()
    try:
        return handshake_client(
            Channel(c_client),
            client_name="Alice",
            signing_key=ALICE_KEY,
            expected_measurement=MEASUREMENT,
            authority_public=AUTHORITY_PUB,
            ticket_slot=SLOT,
        )
    finally:
        c_client.close()
        p.join()
        slot["thread"].join()
        s_server.close()
        if server is not None:
            server.update(slot)


def test_attest_bitflips_always_abort(monkeypatch):
    # A flip before the ticket fails one of the client's checks.  A flip in
    # the ticket passes them, but the transcript covers the whole reply, so
    # the enclave refuses the FINISH; and the client's next connection on
    # the slot, which offers the flipped ticket, gets a full handshake and a
    # fresh ticket.
    rng = random.Random(4242)
    ticket_at = ATTEST_LEN - _TICKET_LEN
    positions = rng.sample(range(ticket_at), 20) + rng.sample(range(ticket_at, ATTEST_LEN), 10)
    ticket_key = _TicketKey()  # one enclave: a ticket it issued would open
    for at in positions:
        monkeypatch.setattr(attest, "_TICKETS", _TicketTable())  # each flip meets a full handshake
        bit = 1 << rng.randrange(8)

        def flip(body: bytes) -> bytes:
            assert len(body) == ATTEST_LEN and body[0] == MSG_SERVER_ATTEST
            return body[:at] + bytes([body[at] ^ bit]) + body[at + 1 :]

        server: dict = {}
        if at < ticket_at:
            with pytest.raises((AttestationFailure, DecodeError)):
                handshake_via_proxy(flip, server=server, ticket_key=ticket_key)
            assert attest._TICKETS.get(SLOT) is None
            continue
        handshake_via_proxy(flip, server=server, ticket_key=ticket_key)
        error = server["error"]
        assert isinstance(error, AuthFailure) and str(error) == "key confirmation failed"
        flipped, _ = attest._TICKETS.get(SLOT)

        replies: list[bytes] = []
        server = {}
        handshake_via_proxy(lambda b: b, record=replies, server=server, ticket_key=ticket_key)
        assert "error" not in server and replies[0][0] == MSG_SERVER_ATTEST
        issued, _ = attest._TICKETS.get(SLOT)
        assert issued == replies[0][-_TICKET_LEN:] != flipped


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


def make_sessions(**kw):
    c, s = spair()
    slot = run_server(s, **kw)
    client = handshake_client(
        Channel(c),
        client_name="Alice",
        signing_key=ALICE_KEY,
        expected_measurement=MEASUREMENT,
        authority_public=AUTHORITY_PUB,
        ticket_slot=SLOT,
    )
    slot["thread"].join()
    return client, slot["session"]


def test_each_side_keys_only_its_own_session(monkeypatch):
    keyed: list[bytes] = []

    def counting(key: bytes) -> AESGCM:
        keyed.append(key)
        return AESGCM(key)

    ticket_key = _TicketKey()  # keyed before the count starts
    monkeypatch.setattr("enclaveflow.attest.AESGCM", counting)
    client, server = make_sessions(ticket_key=ticket_key)
    assert (client.send_key, client.recv_key) == (server.recv_key, server.send_key)
    assert client.session_id == server.session_id
    assert sorted(keyed) == sorted([client.send_key, client.recv_key] * 2)


def test_seal_open_roundtrip_and_counters():
    client, server = make_sessions()
    for i in range(5):
        assert server.open(client.seal(f"m{i}".encode())) == f"m{i}".encode()
    assert client.send_seq == 5 and server.recv_seq == 5


def test_sealed_record_bytes_are_pinned():
    # the record format: tag byte, then AES-256-GCM under the direction's
    # key with nonce = 4 zero bytes + big-endian sequence number
    client, server = make_sessions()
    for sender, receiver in ((client, server), (server, client)):
        for seq in range(3):
            pt = f"record {seq}".encode()
            want = bytes([MSG_RECORD]) + AESGCM(sender.send_key).encrypt(
                bytes(4) + seq.to_bytes(8, "big"), pt, None
            )
            record = sender.seal(pt)
            assert record == want
            assert receiver.open(record) == pt


def test_a_send_key_seals_nothing_past_its_block_limit(monkeypatch):
    # a record of n bytes costs its send key ⌈n/16⌉ + 1 blocks
    monkeypatch.setattr("enclaveflow.attest.KEY_BLOCK_LIMIT", 10)
    client, server = make_sessions()
    # the client's key runs out first; the server's key, its own count,
    # still seals its whole allowance after that
    for sender, receiver in ((client, server), (server, client)):
        assert sender.send_blocks == 0
        used = []
        for n in (0, 16, 17, 48):  # 1 + 2 + 3 + 4 blocks: exactly the limit
            assert receiver.open(sender.seal(bytes(n))) == bytes(n)
            used.append(sender.send_blocks)
        assert used == [1, 3, 6, 10]
        for _ in range(2):  # one block more is refused, and stays refused
            with pytest.raises(TransportError, match="session key exhausted"):
                sender.seal(b"")
        assert (sender.send_seq, sender.send_blocks) == (4, 10)


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
    ch = Channel(b)
    send_frame(a, b"hello")
    assert ch.recv_frame() == b"hello"
    send_frame(a, b"")
    assert ch.recv_frame() == b""


def test_oversized_frame_rejected():
    a, b = spair()
    a.sendall(struct.pack(">I", MAX_FRAME + 1))
    with pytest.raises(TransportError):
        Channel(b).recv_frame()


def test_eof_mid_frame():
    a, b = spair()
    a.sendall(struct.pack(">I", 10) + b"abc")
    a.close()
    with pytest.raises(TransportError):
        Channel(b).recv_frame()


# --- channel record reader ----------------------------------------------------------


def frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


class FakeSocket:
    """Hands out ``data`` at most ``step`` bytes per recv, counting recvs."""

    def __init__(self, data: bytes, step: int = 1 << 20):
        self.data, self.step, self.recvs = data, step, 0

    def recv(self, n: int) -> bytes:
        self.recvs += 1
        chunk = self.data[: min(n, self.step)]
        self.data = self.data[len(chunk) :]
        return chunk


def test_two_frames_in_one_write_are_two_messages():
    a, b = spair()
    a.sendall(frame(b"first") + frame(b"") + frame(b"third"))
    ch = Channel(b)
    assert [ch.recv_message() for _ in range(3)] == [b"first", b"", b"third"]
    a.close()
    with pytest.raises(TransportError):
        ch.recv_message()


def test_a_frame_that_arrives_whole_costs_one_recv():
    fake = FakeSocket(frame(b"x" * 200) + frame(b"y"))
    ch = Channel(fake)
    assert ch.recv_message() == b"x" * 200
    assert ch.recv_message() == b"y"  # already buffered
    assert fake.recvs == 1


class CountingSocket:
    """A real socket whose recv calls are counted."""

    def __init__(self, sock: socket.socket):
        self.sock, self.recvs = sock, 0

    def recv(self, n: int) -> bytes:
        self.recvs += 1
        return self.sock.recv(n)

    def __getattr__(self, name: str):
        return getattr(self.sock, name)


def test_each_whole_handshake_frame_costs_one_recv():
    # the handshake reads through the channel's buffer, as records do: the
    # hello and the finish each arrive in one write, so each is one recv,
    # and so is the quote on the client's side
    c, s = spair()
    client_sock, server_sock = CountingSocket(c), CountingSocket(s)
    slot = run_server(server_sock)
    session = handshake_client(
        Channel(client_sock),
        client_name="Alice",
        signing_key=ALICE_KEY,
        expected_measurement=MEASUREMENT,
        authority_public=AUTHORITY_PUB,
        ticket_slot=SLOT,
    )
    slot["thread"].join(5)
    assert slot["session"].session_id == session.session_id
    assert (server_sock.recvs, client_sock.recvs) == (2, 1)
    c.close()
    s.close()


def test_a_frame_sent_one_byte_at_a_time_is_reassembled():
    body = bytes(range(256)) * 3
    fake = FakeSocket(frame(body) + frame(b"next"), step=1)
    ch = Channel(fake)
    assert ch.recv_message() == body
    assert ch.recv_message() == b"next"
    assert fake.recvs == 4 + len(body) + 4 + 4


def test_an_oversized_header_is_refused_before_any_body_byte_is_read():
    fake = FakeSocket(struct.pack(">I", MAX_FRAME + 1) + b"body", step=4)
    with pytest.raises(TransportError, match="oversized"):
        Channel(fake).recv_message()
    assert fake.recvs == 1 and fake.data == b"body"


@pytest.mark.parametrize("sent", [b"\x00\x00", frame(b"abcdef")[:7], frame(b"x" * 9000)[:5000]])
def test_eof_mid_frame_in_a_channel(sent):
    a, b = spair()
    a.sendall(sent)
    a.close()
    with pytest.raises(TransportError):
        Channel(b).recv_message()


def test_a_megabyte_frame_round_trips_sealed():
    client, server = make_sessions()
    a, b = spair()
    body = os.urandom(1 << 20)
    sender = threading.Thread(target=Channel(a, client).send_message, args=(body,))
    sender.start()
    try:
        assert Channel(b, server).recv_message() == body
    finally:
        sender.join(10)
    assert not sender.is_alive()


# three sealed frames from fixed keys: bodies b"", b"ping" and bytes(range(20)),
# the first three records of a send key bytes(range(32))
PINNED_FRAMES = bytes.fromhex(
    "0000001113f05d76ae4ab99fe5a6f69b3148c2363d"
    "000000151365bfd19b045332d18ed612314abeebca6cadce4c"
    "0000002513c9702c7eb04edcd6b104361a7b4ce583960627c3474ed80e74b60b897c3ab813acef276b"
)


def test_every_sent_record_is_sealed_by_session_seal(monkeypatch):
    # a wrapper on the Session.seal class attribute, as a tracer installs
    # one, sees every record a channel sends, and the frames are pinned
    sealed = []
    original = Session.__dict__["seal"]

    @functools.wraps(original)
    def counting(self, plaintext):
        sealed.append(plaintext)
        return original(self, plaintext)

    monkeypatch.setattr(Session, "seal", counting)
    keys = bytes(range(32)), bytes(range(32, 64))
    sender, receiver = Session(bytes(range(16)), *keys), Session(bytes(range(16)), *keys[::-1])
    bodies = [b"", b"ping", bytes(range(20))]
    a, b = spair()
    channel = Channel(a, sender)
    for body in bodies:
        channel.send_message(body)
    a.close()
    assert sealed == bodies
    wire = b""
    while chunk := b.recv(4096):
        wire += chunk
    assert wire == PINNED_FRAMES
    reader = Channel(FakeSocket(wire), receiver)
    assert [reader.recv_message() for _ in bodies] == bodies


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


class HoldFinish:
    """A client socket whose FINISH write is held back, so the test can
    send it together with the first request."""

    def __init__(self, sock: socket.socket):
        self.sock, self.held = sock, b""

    def send(self, data: bytes) -> int:
        if data[4] == MSG_CLIENT_FINISH:
            self.held = data
        else:
            self.sock.sendall(data)
        return len(data)

    def recv(self, n: int) -> bytes:
        return self.sock.recv(n)


def test_finish_and_first_request_in_one_write_are_both_served():
    mon, t = start_monitor()
    try:
        raw = socket.create_connection(("127.0.0.1", mon.port), timeout=5)
        held = HoldFinish(raw)
        session = handshake_client(
            Channel(held),
            client_name="Alice",
            signing_key=ALICE_KEY,
            expected_measurement=MEASUREMENT,
            authority_public=AUTHORITY_PUB,
            ticket_slot=SLOT,
        )
        assert held.held
        raw.sendall(held.held + frame(session.seal(encode_call(5, []))))
        ch = Channel(raw, session)
        assert decode_message(ch.recv_message()) == decode_message(encode_result_ok(5))
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
        assert decode_message(Channel(raw).recv_frame()) == ResultErr(
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


def test_monitor_drops_a_stalled_hello_within_the_deadline(monkeypatch):
    # slowloris: a length prefix and a few hello bytes, then nothing.  The
    # listener accepts in connection order, so the monitor takes this one
    # first; the deadline covers the whole handshake, so the good client
    # queued behind it is served once it passes, not after the 30 s timeout.
    deadline = 0.3
    monkeypatch.setattr("enclaveflow.attest.HANDSHAKE_DEADLINE_S", deadline)
    mon, t = start_monitor()
    stalled = socket.create_connection(("127.0.0.1", mon.port), timeout=5)
    try:
        stalled.sendall(struct.pack(">I", 1 + 32 + 5 + 5 + 32 + 64) + b"\x10" + bytes(8))
        start = time.monotonic()
        ch = client_channel(mon, timeout=deadline + 2.0)
        ch.send_message(encode_call(3, []))
        assert decode_message(ch.recv_message()) == decode_message(encode_result_ok(3))
        ch.close()
        assert time.monotonic() - start < deadline + 2.0
    finally:
        stalled.close()
        mon.stop()
        t.join()


def test_monitor_drops_a_trickled_hello_at_the_deadline(monkeypatch):
    # one hello byte every 0.1 s: every read gets a byte long before any
    # per-read timeout, so only a deadline over all of the handshake's
    # reads drops this peer, and the good client behind it is served
    deadline = 0.3
    monkeypatch.setattr("enclaveflow.attest.HANDSHAKE_DEADLINE_S", deadline)
    mon, t = start_monitor()
    hello = frame(signed_hello(X25519PrivateKey.generate().public_key().public_bytes_raw()))
    trickler = socket.create_connection(("127.0.0.1", mon.port), timeout=5)
    done = threading.Event()

    def trickle() -> None:
        for i in range(len(hello)):
            if done.wait(0.1):
                return
            try:
                trickler.sendall(hello[i : i + 1])
            except OSError:
                return  # dropped

    sender = threading.Thread(target=trickle)
    sender.start()
    try:
        start = time.monotonic()
        ch = client_channel(mon, timeout=deadline + 2.0)
        ch.send_message(encode_call(3, []))
        assert decode_message(ch.recv_message()) == decode_message(encode_result_ok(3))
        ch.close()
        assert time.monotonic() - start < deadline + 1.0
        assert sender.is_alive()  # the hello was far from whole when it was dropped
        try:
            closed = trickler.recv(1) == b""
        except ConnectionResetError:
            closed = True  # a byte sent after the close drew a reset
        assert closed  # the monitor closed the trickler's connection
    finally:
        done.set()
        sender.join(5)
        trickler.close()
        mon.stop()
        t.join()
    assert not sender.is_alive()


def _never_reads(sock: socket.socket, stop: threading.Event) -> None:
    stop.wait(30)


def _reads_1_kb_per_100_ms(sock: socket.socket, stop: threading.Event) -> None:
    while not stop.wait(0.1):
        try:
            if not sock.recv(1024):
                return
        except OSError:
            return


@pytest.mark.parametrize(
    "reader", [_never_reads, _reads_1_kb_per_100_ms], ids=["never-reads", "reads-1-KB-per-100-ms"]
)
def test_a_peer_that_reads_a_big_reply_slowly_gives_way(monkeypatch, reader):
    # The send of a whole frame is bounded by IDLE_TIMEOUT_S in total.  The
    # slow peer's small segments and receive buffer let every KB it reads
    # reopen the window, so each single send() makes progress: a bound on
    # each send() alone would hold the monitor for as long as the peer
    # keeps reading (8 MB at 10 KB/s: over 13 minutes).
    idle = 0.5
    monkeypatch.setattr("enclaveflow.attest.IDLE_TIMEOUT_S", idle)
    big = encode_result_ok(b"x" * (8 << 20))
    mon = Monitor(
        "127.0.0.1",
        0,
        lambda request: big if request == encode_call(8, []) else echo_dispatch(request),
        measurement=MEASUREMENT,
        authority_private=AUTHORITY,
        credentials=CREDS,
    )
    t = threading.Thread(target=mon.serve_forever, daemon=True)
    t.start()
    raw = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_MAXSEG, 536)
    raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    raw.settimeout(5.0)
    stop = threading.Event()
    peer = threading.Thread(target=reader, args=(raw, stop))
    try:
        raw.connect(("127.0.0.1", mon.port))
        slow = Channel(raw)
        slow.session = handshake_client(
            slow,
            client_name="Alice",
            signing_key=ALICE_KEY,
            expected_measurement=MEASUREMENT,
            authority_public=AUTHORITY_PUB,
            ticket_slot=SLOT,
        )
        slow.send_message(encode_call(8, []))
        peer.start()
        start = time.monotonic()
        ch = client_channel(mon, timeout=idle + 5.0)
        ch.send_message(encode_call(3, []))
        assert decode_message(ch.recv_message()) == decode_message(encode_result_ok(3))
        ch.close()
        assert time.monotonic() - start < idle + 1.5
    finally:
        stop.set()
        if peer.is_alive():
            peer.join(5)
        raw.close()
        mon.stop()
        t.join()
    assert not peer.is_alive()


def test_connect_channel_times_out_on_a_silent_listener():
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    accepted: list[socket.socket] = []
    acceptor = threading.Thread(target=lambda: accepted.append(listener.accept()[0]))
    acceptor.start()
    try:
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            connect_channel(
                "127.0.0.1",
                listener.getsockname()[1],
                client_name="Alice",
                signing_key=ALICE_KEY,
                expected_measurement=MEASUREMENT,
                authority_public=AUTHORITY_PUB,
                timeout=0.3,
            )
        assert 0.25 < time.monotonic() - start < 0.3 + 0.5
    finally:
        acceptor.join(5)
        for sock in accepted:
            sock.close()
        listener.close()


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=1e9, exclude_min=True)
    | st.sampled_from([5e-324, 1e-7, 0.3, 30.0])
)
def test_a_positive_timeout_never_becomes_wait_forever(seconds):
    from enclaveflow.attest import _timeval  # the one timeval helper

    sec, usec = struct.unpack("@ll", _timeval(seconds))
    assert (sec, usec) != (0, 0)  # the kernel reads 0 s 0 µs as "wait forever"
    assert 0 <= usec < 1_000_000
    assert abs(sec + usec / 1e6 - seconds) <= 1e-6 + seconds * 1e-12


def test_timeval_helper_maps_none_to_forever_and_refuses_non_positive():
    from enclaveflow.attest import _timeval

    assert struct.unpack("@ll", _timeval(None)) == (0, 0)
    for bad in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError):
            _timeval(bad)


def _timeouts(sock: socket.socket) -> list[float]:
    """The socket's SO_RCVTIMEO and SO_SNDTIMEO, in seconds."""
    size = struct.calcsize("@ll")
    return [
        sec + usec / 1e6
        for sec, usec in (
            struct.unpack("@ll", sock.getsockopt(socket.SOL_SOCKET, option, size))
            for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO)
        )
    ]


def test_connection_sockets_are_blocking_with_kernel_timeouts(monkeypatch):
    # A Python-level timeout makes CPython poll() before every recv and
    # send.  Both ends of a connection keep blocking sockets, and the kernel
    # holds their timeouts: the receive timeout is back at its configured
    # value once the monitor's handshake is done.
    monkeypatch.setattr("enclaveflow.attest.IDLE_TIMEOUT_S", 12.25)
    served: list[socket.socket] = []

    class Recording(Monitor):
        def serve_connection(self, conn: socket.socket) -> None:
            served.append(conn)
            super().serve_connection(conn)

    mon = Recording(
        "127.0.0.1",
        0,
        echo_dispatch,
        measurement=MEASUREMENT,
        authority_private=AUTHORITY,
        credentials=CREDS,
    )
    t = threading.Thread(target=mon.serve_forever, daemon=True)
    t.start()
    try:
        ch = client_channel(mon, timeout=7.5)
        assert ch.sock.gettimeout() is None
        # the kernel keeps a timeout in scheduler ticks, rounded up
        assert _timeouts(ch.sock) == [pytest.approx(7.5, abs=0.011)] * 2
        ch.send_message(encode_call(3, []))  # answered after the handshake
        assert decode_message(ch.recv_message()) == decode_message(encode_result_ok(3))
        (conn,) = served
        assert conn.gettimeout() is None
        assert _timeouts(conn) == [pytest.approx(12.25, abs=0.011)] * 2
        ch.close()
    finally:
        mon.stop()
        t.join()


def test_a_channel_timeout_raises_timeout_error_not_blocking_io_error():
    a, b = socket.socketpair()
    try:
        reader = Channel(a, timeout=0.2)
        start = time.monotonic()
        with pytest.raises(TimeoutError) as caught:
            reader.recv_message()  # nothing is ever sent
        assert not isinstance(caught.value, BlockingIOError)
        writer = Channel(b, timeout=0.2)
        with pytest.raises(TimeoutError) as caught:
            writer.send_message(b"x" * (8 << 20))  # nothing is ever read
        assert not isinstance(caught.value, BlockingIOError)
        assert time.monotonic() - start < 0.4 + 1.0
    finally:
        a.close()
        b.close()


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


# X25519 shares that yield the all-zero secret: u = 0 and u = 1 have low order
LOW_ORDER_SHARES = [bytes(32), b"\x01" + bytes(31)]


def signed_hello(share: bytes, key=ALICE_KEY) -> bytes:
    """Alice's hello as a client builds it, signed over whatever share it chose."""
    nonce = os.urandom(32)
    sig = key.sign(nonce + share + b"Alice") if key is not None else bytes(64)
    return b"\x10" + nonce + encode_value("Alice") + share + sig


def assert_still_serving(mon) -> None:
    ch = client_channel(mon, timeout=5.0)
    ch.send_message(encode_call(3, []))
    assert decode_message(ch.recv_message()) == decode_message(encode_result_ok(3))
    ch.close()


@pytest.mark.parametrize("share", LOW_ORDER_SHARES, ids=["zero", "one"])
@pytest.mark.parametrize("verify_client", [False, True], ids=["unsigned", "signed"])
def test_low_order_share_is_refused_and_the_monitor_serves_on(share, verify_client):
    # RFC 7748 §6.1: such a share makes the shared secret all zeros.  The
    # enclave refuses it before quoting, even from a provisioned client
    # that signed it, and the next client is served.
    mon, t = start_monitor(verify_client=verify_client)
    try:
        raw = socket.create_connection(("127.0.0.1", mon.port), timeout=5)
        send_frame(raw, signed_hello(share, key=ALICE_KEY if verify_client else None))
        assert decode_message(Channel(raw).recv_frame()) == ResultErr(
            ErrorCode.AUTH_FAILURE, "client key share refused"
        )
        raw.close()
        assert_still_serving(mon)
    finally:
        mon.stop()
        t.join(5)
    assert not t.is_alive()


def test_handshake_client_refuses_a_low_order_enclave_share():
    # a quote that verifies, is bound to our nonce, and carries a zero share
    c, s = spair()

    def fake_enclave():
        hello = Channel(s).recv_frame()
        nonce, share = hello[1:33], bytes(32)
        report_data = hashlib.sha256(share + nonce).digest()
        quote = AUTHORITY.sign(MEASUREMENT + report_data)
        send_frame(s, b"\x11" + share + MEASUREMENT + report_data + quote + bytes(_TICKET_LEN))

    t = threading.Thread(target=fake_enclave)
    t.start()
    with pytest.raises(AttestationFailure) as exc:
        handshake_client(
            Channel(c),
            client_name="Alice",
            signing_key=ALICE_KEY,
            expected_measurement=MEASUREMENT,
            authority_public=AUTHORITY_PUB,
            ticket_slot=SLOT,
        )
    assert exc.value.reason == "bad-key-share"
    t.join(5)
    c.close()
    s.close()


def test_monitor_serves_on_after_any_exception_but_stops_on_interrupt():
    def dispatch(request: bytes) -> bytes:
        call_id = decode_message(request).call_id
        if call_id == 1:
            raise RuntimeError("unexpected")
        if call_id == 2:
            raise KeyboardInterrupt
        return encode_result_ok(call_id)

    mon = Monitor(
        "127.0.0.1", 0, dispatch, measurement=MEASUREMENT, authority_private=None, attested=False
    )
    outcomes: list = []

    def client():
        for call_id in (1, 3, 2):
            ch = connect_channel("127.0.0.1", mon.port, attested=False, timeout=5)
            try:
                ch.send_message(encode_call(call_id, []))
                outcomes.append(decode_message(ch.recv_message()))
            except (TransportError, OSError) as e:
                outcomes.append(type(e))
            finally:
                ch.close()

    t = threading.Thread(target=client)
    t.start()
    with pytest.raises(KeyboardInterrupt):
        mon.serve_forever()  # on this thread, as under `enclaveflow enclave`
    t.join(5)
    assert not t.is_alive()
    assert outcomes[0] is TransportError  # its connection ended
    assert outcomes[1] == decode_message(encode_result_ok(3))  # the next was served


_hello_share = st.sampled_from(LOW_ORDER_SHARES) | st.binary(min_size=32, max_size=32)
_hello_edit = st.one_of(
    st.none(),
    st.tuples(st.just("cut"), st.integers(0, 150)),
    st.tuples(st.just("set"), st.integers(0, 150), st.integers(0, 255)),
)


def test_no_hostile_hello_stops_the_monitor(monkeypatch):
    # Each example plays one raw peer: a hello signed by a provisioned key
    # over an arbitrary or low-order share, then possibly cut short or with
    # one byte overwritten, then possibly a garbage finish.  After each, a
    # good client must be served.
    monkeypatch.setattr("enclaveflow.attest.HANDSHAKE_DEADLINE_S", 0.5)
    mon, t = start_monitor()

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(share=_hello_share, edit=_hello_edit, finish=st.binary(max_size=40) | st.none())
    def one_peer(share, edit, finish):
        hello = signed_hello(share)
        if edit is not None and edit[0] == "cut":
            hello = hello[: edit[1]]
        elif edit is not None:
            at = edit[1] % len(hello)
            hello = hello[:at] + bytes([edit[2]]) + hello[at + 1 :]
        raw = socket.create_connection(("127.0.0.1", mon.port), timeout=5)
        try:
            send_frame(raw, hello)
            Channel(raw).recv_frame()  # a refusal or a quote: the monitor answers either way
            if finish is not None:
                send_frame(raw, b"\x12" + finish)
        except (TransportError, OSError):
            pass
        finally:
            raw.close()
        assert_still_serving(mon)

    try:
        one_peer()
    finally:
        mon.stop()
        t.join(5)
    assert not t.is_alive()


def test_no_garbage_record_after_a_good_handshake_stops_the_monitor():
    mon, t = start_monitor()

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(st.lists(st.binary(max_size=40), min_size=1, max_size=3))
    def one_peer(records):
        ch = client_channel(mon, timeout=5.0)
        try:
            for record in records:
                send_frame(ch.sock, record)
        except OSError:
            pass  # the enclave already hung up on an earlier record
        finally:
            ch.close()
        assert_still_serving(mon)

    try:
        one_peer()
    finally:
        mon.stop()
        t.join(5)
    assert not t.is_alive()


def test_monitor_plain_mode():
    mon, t = start_monitor(attested=False, authority_private=None)
    try:
        ch = connect_channel("127.0.0.1", mon.port, attested=False)
        assert ch.session is None
        ch.send_message(encode_call(9, []))
        assert decode_message(ch.recv_message()) == decode_message(encode_result_ok(9))
        ch.close()
    finally:
        mon.stop()
        t.join()


def plain_monitor() -> Monitor:
    return Monitor(
        "127.0.0.1",
        0,
        echo_dispatch,
        measurement=MEASUREMENT,
        authority_private=None,
        attested=False,
    )


class Listener:
    """A monitor's listener whose ``accept`` is replaced, by default with
    the real one: ``entered`` is set as ``serve_forever`` calls it."""

    def __init__(self, sock: socket.socket, accept=None) -> None:
        self.sock = sock
        self.entered = threading.Event()
        self._accept = accept or sock.accept

    def accept(self):
        self.entered.set()
        return self._accept()

    def __getattr__(self, name):  # shutdown and close reach the real socket
        return getattr(self.sock, name)


def test_stop_ends_a_monitor_blocked_in_accept_at_once():
    # twenty stops of a listener that re-checks a flag every 0.2 s take ≈4 s
    start = time.perf_counter()
    for _ in range(20):
        mon = plain_monitor()
        mon.listener = listener = Listener(mon.listener)
        t = threading.Thread(target=mon.serve_forever, daemon=True)
        t.start()
        assert listener.entered.wait(5)
        mon.stop()
        t.join(5)
        assert not t.is_alive()
        assert listener.sock.fileno() == -1
    assert time.perf_counter() - start < 1.0


def test_stop_before_serving_and_a_second_stop_are_harmless():
    mon = plain_monitor()
    mon.stop()
    mon.stop()
    t = threading.Thread(target=mon.serve_forever, daemon=True)
    t.start()
    t.join(5)
    assert not t.is_alive()
    assert mon.listener.fileno() == -1
    mon.stop()  # after serve_forever closed the listener


def test_an_accept_failure_that_is_no_stop_raises_out_of_serve_forever():
    def out_of_descriptors():
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    mon = plain_monitor()
    sock = mon.listener
    mon.listener = Listener(sock, out_of_descriptors)
    with pytest.raises(OSError) as raised:
        mon.serve_forever()
    assert raised.value.errno == errno.EMFILE
    assert sock.fileno() == -1


def test_an_attested_connect_without_the_authority_key_opens_no_socket(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a socket was opened")

    monkeypatch.setattr("enclaveflow.attest.socket.create_connection", refuse)
    with pytest.raises(ValueError, match="authority public key"):
        connect_channel("127.0.0.1", 1, client_name="Alice", signing_key=ALICE_KEY)


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


# --- byte pins: the digests, the key schedule and FINISH, recomputed with the stdlib ---


def hkdf(shared: bytes, transcript: bytes, label: bytes, length: int = 32) -> bytes:
    kdf = HKDF(algorithm=hashes.SHA256(), length=length, salt=transcript, info=label)
    return kdf.derive(shared)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    version=st.text(max_size=20),
    table=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.text(max_size=20)), max_size=6),
    config=st.binary(max_size=200),
)
def test_measurement_equals_a_hashlib_recomputation(version, table, config):
    h = hashlib.sha256()
    raw = version.encode("utf-8")
    h.update(struct.pack(">H", len(raw)) + raw)
    for call_id, name in sorted(table):
        raw = name.encode("utf-8")
        h.update(struct.pack(">I", call_id) + struct.pack(">H", len(raw)) + raw)
    h.update(hashlib.sha256(config).digest())
    assert compute_measurement(version, table, config) == h.digest()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(shared=st.binary(min_size=32, max_size=32), transcript=st.binary(max_size=96))
def test_key_schedule_is_hkdf_per_label(shared, transcript):
    client, client_fin = _derive_session(shared, transcript, client=True)
    server, server_fin = _derive_session(shared, transcript, client=False)
    c2s, s2c = hkdf(shared, transcript, b"c2s"), hkdf(shared, transcript, b"s2c")
    assert (client.send_key, client.recv_key) == (c2s, s2c)
    assert (server.send_key, server.recv_key) == (s2c, c2s)
    assert client_fin == server_fin == hkdf(shared, transcript, b"fin")
    assert client.session_id == server.session_id == hkdf(shared, transcript, b"sid", 16)


def test_client_finish_is_the_stdlib_hmac_of_the_transcript():
    # the enclave is played by hand, so its share, and the secret, are ours
    c, s = spair()
    slot: dict = {}

    def fake_enclave():
        frames = Channel(s)
        hello = frames.recv_frame()
        nonce, share = hello[1:33], hello[-96:-64]
        eph = X25519PrivateKey.generate()
        eph_pub = eph.public_key().public_bytes_raw()
        report_data = hashlib.sha256(eph_pub + nonce).digest()
        quote = AUTHORITY.sign(MEASUREMENT + report_data)
        attest = b"\x11" + eph_pub + MEASUREMENT + report_data + quote + bytes(_TICKET_LEN)
        send_frame(s, attest)
        slot["shared"] = eph.exchange(X25519PublicKey.from_public_bytes(share))
        slot["transcript"] = hashlib.sha256(hello + attest).digest()
        slot["finish"] = frames.recv_frame()

    t = threading.Thread(target=fake_enclave)
    t.start()
    session = handshake_client(
        Channel(c),
        client_name="Alice",
        signing_key=ALICE_KEY,
        expected_measurement=MEASUREMENT,
        authority_public=AUTHORITY_PUB,
        ticket_slot=SLOT,
    )
    t.join(5)
    assert not t.is_alive()
    c.close()
    s.close()
    shared, transcript = slot["shared"], slot["transcript"]
    fin = hkdf(shared, transcript, b"fin")
    assert slot["finish"] == bytes([MSG_CLIENT_FINISH]) + hmac.new(
        fin, transcript, hashlib.sha256
    ).digest()
    assert session.send_key == hkdf(shared, transcript, b"c2s")
    assert session.session_id == hkdf(shared, transcript, b"sid", 16)


@pytest.mark.parametrize("bit", [None, 0, 7, 100, 255], ids=lambda b: f"bit-{b}")
def test_a_finish_with_one_flipped_mac_bit_is_refused(bit):
    # the client is played by hand; bit None is the control, sent intact
    c, s = spair()
    slot = run_server(s)
    eph = X25519PrivateKey.generate()
    hello = signed_hello(eph.public_key().public_bytes_raw())
    send_frame(c, hello)
    frames = Channel(c)
    attest = frames.recv_frame()
    shared = eph.exchange(X25519PublicKey.from_public_bytes(attest[1:33]))
    transcript = hashlib.sha256(hello + attest).digest()
    fin = hkdf(shared, transcript, b"fin")
    mac = bytearray(hmac.new(fin, transcript, hashlib.sha256).digest())
    if bit is not None:
        mac[bit // 8] ^= 1 << (bit % 8)
    send_frame(c, bytes([MSG_CLIENT_FINISH]) + mac)
    if bit is None:
        slot["thread"].join(5)
        assert slot["session"].send_key == hkdf(shared, transcript, b"s2c")
        assert slot["name"] == "Alice"
    else:
        assert decode_message(frames.recv_frame()) == ResultErr(
            ErrorCode.AUTH_FAILURE, "key confirmation failed"
        )
        slot["thread"].join(5)
        assert isinstance(slot["error"], AuthFailure)
    assert not slot["thread"].is_alive()
    c.close()
    s.close()


# --- resumption: a ticket in place of the quote -----------------------------------------

BOB_KEY = gen_signing_key()


class CountingKey:
    """A signing or verifying key whose sign and verify calls are counted."""

    def __init__(self, key):
        self.key, self.calls = key, 0

    def sign(self, data: bytes) -> bytes:
        self.calls += 1
        return self.key.sign(data)

    def verify(self, sig: bytes, data: bytes) -> None:
        self.calls += 1
        self.key.verify(sig, data)

    def __getattr__(self, name: str):
        return getattr(self.key, name)


def slot_of(mon, name: str = "Alice", key=ALICE_KEY) -> tuple:
    """The table slot ``client_channel(mon, ...)`` keeps its ticket in."""
    return _ticket_slot("127.0.0.1", mon.port, name, key, MEASUREMENT, AUTHORITY_PUB)


def call_once(mon, **kw):
    """One call on a fresh connection; returns the connection's session."""
    ch = client_channel(mon, timeout=5.0, **kw)
    try:
        ch.send_message(encode_call(3, []))
        assert decode_message(ch.recv_message()) == decode_message(encode_result_ok(3))
    finally:
        ch.close()
    return ch.session


def stop_all(*served) -> None:
    """Stop each ``(monitor, thread)`` that ``start_monitor`` returned."""
    for mon, thread in served:
        mon.stop()
    for mon, thread in served:
        thread.join(5)
        assert not thread.is_alive()


def test_a_second_connection_resumes_without_a_quote():
    authority, authority_pub = CountingKey(AUTHORITY), CountingKey(AUTHORITY_PUB)
    credential = CountingKey(ALICE_KEY.public_key())
    mon, thread = start_monitor(authority_private=authority, credentials={"Alice": credential})
    try:
        call_once(mon, authority_public=authority_pub)
        assert (authority.calls, authority_pub.calls, credential.calls) == (1, 1, 1)
        call_once(mon, authority_public=authority_pub)
        # no quote signed or verified; the client's signature checked again
        assert (authority.calls, authority_pub.calls, credential.calls) == (1, 1, 2)
    finally:
        stop_all((mon, thread))


def test_two_resumptions_of_one_ticket_get_their_own_keys():
    authority = CountingKey(AUTHORITY)
    mon, thread = start_monitor(authority_private=authority)
    try:
        call_once(mon)
        entry = attest._TICKETS.get(slot_of(mon))
        first, second = call_once(mon), call_once(mon)
        assert authority.calls == 1 and attest._TICKETS.get(slot_of(mon)) is entry
        assert first.session_id != second.session_id
        assert first.send_key != second.send_key and first.recv_key != second.recv_key
    finally:
        stop_all((mon, thread))


def _tampered(entry: tuple[bytes, bytes]) -> tuple[bytes, bytes]:
    ticket, secret = entry
    return ticket[:20] + bytes([ticket[20] ^ 1]) + ticket[21:], secret


@pytest.mark.parametrize("case", ["tampered", "other-monitor", "expired", "other-name"])
def test_a_ticket_the_enclave_cannot_use_costs_a_full_handshake(case, monkeypatch):
    # one authority key, one measurement, two monitors: each has its own ticket key
    authority = CountingKey(AUTHORITY)
    creds = {"Alice": ALICE_KEY.public_key(), "Bob": BOB_KEY.public_key()}
    first = start_monitor(authority_private=authority, credentials=creds)
    other = start_monitor(authority_private=authority, credentials=creds)
    mon = first[0]
    try:
        call_once(mon)  # Alice's full handshake brings her a ticket
        entry = attest._TICKETS.get(slot_of(mon))
        assert entry is not None
        target, name, key = mon, "Alice", ALICE_KEY
        if case == "tampered":
            attest._TICKETS.put(slot_of(mon), _tampered(entry))
        elif case == "other-monitor":
            target = other[0]
            attest._TICKETS.put(slot_of(target), entry)
        elif case == "expired":
            lifetime = attest.TICKET_LIFETIME_S
            monkeypatch.setattr("enclaveflow.attest.TICKET_LIFETIME_S", 0.01)
            time.sleep(0.05)
        else:
            name, key = "Bob", BOB_KEY
            attest._TICKETS.put(slot_of(target, name, key), entry)
        quotes = authority.calls
        call_once(target, client_name=name, signing_key=key)  # served, not refused
        assert authority.calls == quotes + 1
        if case == "expired":
            monkeypatch.setattr("enclaveflow.attest.TICKET_LIFETIME_S", lifetime)
        # the fallback's quote carried a fresh ticket, and it resumes
        assert attest._TICKETS.get(slot_of(target, name, key)) not in (None, entry)
        call_once(target, client_name=name, signing_key=key)
        assert authority.calls == quotes + 1
    finally:
        stop_all(first, other)


def _full_then_resumed_enclave(listener, ticket: bytes, seen: dict, good_proof: bool):
    """Play the enclave by hand for three connections: a full handshake
    whose quote carries ``ticket``, then a RESUMED with a right or wrong
    proof, then only read the third hello.  Records what it saw."""

    def accept():
        conn, _ = listener.accept()
        conn.settimeout(5.0)
        return conn, Channel(conn)

    conn, ch = accept()
    with conn:
        hello = seen["hello1"] = ch.recv_frame()
        nonce, share = hello[1:33], hello[-96:-64]
        eph = X25519PrivateKey.generate()
        eph_pub = eph.public_key().public_bytes_raw()
        report_data = hashlib.sha256(eph_pub + nonce).digest()
        quote = AUTHORITY.sign(MEASUREMENT + report_data)
        ch.send_message(b"\x11" + eph_pub + MEASUREMENT + report_data + quote + ticket)
        shared = eph.exchange(X25519PublicKey.from_public_bytes(share))
        seen["secret"] = hkdf(shared, hashlib.sha256(hello).digest(), b"res")
        ch.recv_frame()  # FINISH

    conn, ch = accept()
    with conn:
        hello = seen["hello2"] = ch.recv_frame()
        eph = X25519PrivateKey.generate()
        head = bytes([MSG_SERVER_RESUMED]) + eph.public_key().public_bytes_raw()
        proof = hmac.new(seen["secret"], hashlib.sha256(hello + head).digest(), hashlib.sha256)
        resumed = head + (proof.digest() if good_proof else os.urandom(32))
        ch.send_message(resumed)
        share = _parse_hello(hello)[2]
        shared = eph.exchange(X25519PublicKey.from_public_bytes(share))
        seen["shared2"], seen["transcript2"] = shared, hashlib.sha256(hello + resumed).digest()
        try:
            seen["finish2"] = ch.recv_frame()
        except TransportError:
            seen["finish2"] = None  # the client hung up

    conn, ch = accept()
    with conn:
        seen["hello3"] = ch.recv_frame()


@pytest.mark.parametrize("good_proof", [True, False], ids=["right-proof", "wrong-proof"])
def test_a_resumption_is_keyed_by_both_secrets_and_a_wrong_proof_forgets_the_ticket(good_proof):
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5.0)  # a client that never comes ends the enclave thread
    ticket, seen = os.urandom(_TICKET_LEN), {}
    enclave = threading.Thread(
        target=_full_then_resumed_enclave, args=(listener, ticket, seen, good_proof), daemon=True
    )
    enclave.start()
    connect = functools.partial(
        connect_channel,
        "127.0.0.1",
        listener.getsockname()[1],
        client_name="Alice",
        signing_key=ALICE_KEY,
        expected_measurement=MEASUREMENT,
        authority_public=AUTHORITY_PUB,
        timeout=5.0,
    )
    try:
        connect().close()
        if good_proof:
            resumed = connect()
            resumed.close()
        else:
            with pytest.raises(AttestationFailure) as exc:
                connect()
            assert exc.value.reason == "bad-resumption"
        with pytest.raises(TransportError):
            connect()  # the third enclave reads the hello and hangs up
    finally:
        enclave.join(5)
        listener.close()
    assert not enclave.is_alive()

    # the resumed hello is a full hello, signature included, then the ticket
    nonce, name, share, sig, carried = _parse_hello(seen["hello2"])
    ALICE_KEY.public_key().verify(sig, nonce + share + b"Alice")
    assert (name, carried) == ("Alice", ticket)
    if good_proof:
        # HKDF over the fresh X25519 secret followed by the ticket's secret
        shared, transcript = seen["shared2"] + seen["secret"], seen["transcript2"]
        fin = hkdf(shared, transcript, b"fin")
        assert seen["finish2"] == bytes([MSG_CLIENT_FINISH]) + hmac.new(
            fin, transcript, hashlib.sha256
        ).digest()
        assert resumed.session.send_key == hkdf(shared, transcript, b"c2s")
        assert seen["hello3"].endswith(ticket)  # still held
    else:
        assert seen["finish2"] is None  # no FINISH after a wrong proof
        assert len(seen["hello3"]) == len(seen["hello1"])  # and the ticket is gone


class RecordingSocket:
    """A real socket whose sent frames are kept."""

    def __init__(self, sock: socket.socket):
        self.sock, self.sent = sock, []

    def send(self, data: bytes) -> int:
        self.sent.append(bytes(data))
        return self.sock.send(data)

    def __getattr__(self, name: str):
        return getattr(self.sock, name)


def test_a_replayed_resumed_hello_is_refused_at_finish():
    mon, thread = start_monitor()
    try:
        call_once(mon)  # a ticket for Alice
        raw = socket.create_connection(("127.0.0.1", mon.port), timeout=5)
        recording = RecordingSocket(raw)
        handshake_client(
            Channel(recording),
            client_name="Alice",
            signing_key=ALICE_KEY,
            expected_measurement=MEASUREMENT,
            authority_public=AUTHORITY_PUB,
            ticket_slot=slot_of(mon),
        )
        raw.close()
        hello, finish = recording.sent
        assert len(hello) - 4 == len(signed_hello(bytes(32))) + _TICKET_LEN

        replayer = socket.create_connection(("127.0.0.1", mon.port), timeout=5)
        replayer.sendall(hello)
        frames = Channel(replayer)
        assert frames.recv_frame()[0] == MSG_SERVER_RESUMED  # the ticket and signature pass
        replayer.sendall(finish)  # but the old FINISH does not
        assert decode_message(frames.recv_frame()) == ResultErr(
            ErrorCode.AUTH_FAILURE, "key confirmation failed"
        )
        replayer.close()
        assert_still_serving(mon)
    finally:
        stop_all((mon, thread))


def test_a_valid_ticket_does_not_stand_in_for_the_client_signature():
    mon, thread = start_monitor(credentials=dict(CREDS))
    try:
        call_once(mon)
        ticket, _ = attest._TICKETS.get(slot_of(mon))
        share = X25519PrivateKey.generate().public_key().public_bytes_raw()
        for key, expected_tag in ((ALICE_KEY, MSG_SERVER_RESUMED), (BOB_KEY, None)):
            raw = socket.create_connection(("127.0.0.1", mon.port), timeout=5)
            send_frame(raw, signed_hello(share, key=key) + ticket)
            reply = Channel(raw).recv_frame()
            raw.close()
            if expected_tag is not None:  # the control: Alice's own signature resumes
                assert reply[0] == expected_tag
            else:  # mis-signed
                assert decode_message(reply) == ResultErr(
                    ErrorCode.AUTH_FAILURE, "client authentication failed"
                )
        mon.credentials.pop("Alice")  # no longer provisioned; her ticket still opens
        assert attest._TICKETS.get(slot_of(mon)) is not None
        with pytest.raises(AuthFailure):
            call_once(mon)
    finally:
        stop_all((mon, thread))


LENGTH_EXTRAS = [0, 1, 32, _TICKET_LEN - 1, _TICKET_LEN, _TICKET_LEN + 1, 2 * _TICKET_LEN]


@pytest.mark.parametrize("extra", LENGTH_EXTRAS)
def test_a_hello_is_one_of_two_lengths(extra):
    mon, thread = start_monitor()
    try:
        raw = socket.create_connection(("127.0.0.1", mon.port), timeout=5)
        share = X25519PrivateKey.generate().public_key().public_bytes_raw()
        send_frame(raw, signed_hello(share) + os.urandom(extra))
        reply = Channel(raw).recv_frame()
        raw.close()
        if extra in (0, _TICKET_LEN):
            assert reply[0] == MSG_SERVER_ATTEST  # a ticket that does not open: a full handshake
        else:
            assert decode_message(reply) == ResultErr(ErrorCode.DECODE_ERROR, "malformed hello")
        assert_still_serving(mon)
    finally:
        stop_all((mon, thread))


# no ticket, a byte or half a ticket, a ticket a byte short, the one right
# length, a byte over, and two tickets
ATTEST_LENGTHS = [161, 162, 193, 224, ATTEST_LEN, 226, 289]


@pytest.mark.parametrize("length", ATTEST_LENGTHS)
def test_an_attest_is_one_length(length):
    c, s = spair()

    def fake_enclave():
        frames = Channel(s)
        hello = frames.recv_frame()
        nonce, share = hello[1:33], hello[-96:-64]
        eph_pub = X25519PrivateKey.generate().public_key().public_bytes_raw()
        report_data = hashlib.sha256(eph_pub + nonce).digest()
        quote = AUTHORITY.sign(MEASUREMENT + report_data)
        head = b"\x11" + eph_pub + MEASUREMENT + report_data + quote
        send_frame(s, head + os.urandom(length - len(head)))
        try:
            frames.recv_frame()  # a FINISH, or the client hanging up
        except TransportError:
            pass

    t = threading.Thread(target=fake_enclave)
    t.start()
    try:
        handshake = functools.partial(
            handshake_client,
            Channel(c),
            client_name="Alice",
            signing_key=ALICE_KEY,
            expected_measurement=MEASUREMENT,
            authority_public=AUTHORITY_PUB,
            ticket_slot=SLOT,
        )
        if length == ATTEST_LEN:
            handshake()
        else:
            with pytest.raises(DecodeError, match="^malformed attestation message$"):
                handshake()
    finally:
        c.close()
        t.join(5)
        s.close()
    assert not t.is_alive()


def test_the_client_ticket_table_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr("enclaveflow.attest.TICKET_CACHE_SIZE", 4)
    mon, thread = start_monitor(verify_client=False, credentials={})
    try:
        for i in range(10):
            call_once(mon, client_name=f"peer-{i}", signing_key=None)
            assert len(attest._TICKETS) <= 4
        assert attest._TICKETS.get(slot_of(mon, "peer-9", None)) is not None
        assert attest._TICKETS.get(slot_of(mon, "peer-0", None)) is None
    finally:
        stop_all((mon, thread))


def test_threads_that_share_a_ticket_table_keep_it_within_its_bound(monkeypatch):
    monkeypatch.setattr("enclaveflow.attest.TICKET_CACHE_SIZE", 4)
    table, threads, rounds = _TicketTable(), 8, 2000
    errors: list[BaseException] = []

    def churn(t: int) -> None:
        try:
            for i in range(rounds):
                slot, entry = (t, i % 7), (b"ticket", bytes([t]))
                table.put(slot, entry)
                assert len(table) <= 4
                if table.get(slot) is entry and i % 3 == 0:
                    table.drop(slot, entry)
        except BaseException as e:  # noqa: BLE001 - surfaced below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=churn, args=(t,)) for t in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert errors == [] and len(table) <= 4
