"""Pinned handshake traces: every frame both peers send, byte for byte.

As RFC 8448 does for TLS 1.3, each trace is written down from fixed
inputs: fixed Ed25519 keys, and the handshake's random draws and clock
replaced through the names ``attest`` looks them up by.  ``os.urandom``
gives the monitor's ticket key and the client's nonce,
``X25519PrivateKey.generate`` both ephemeral shares, and ``time.monotonic``
a ticket's issue time and age.  Any change to a handshake byte, to the key
schedule or to the transcript changes a trace here.
"""

from __future__ import annotations

import itertools
import socket
import threading

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from enclaveflow import attest
from enclaveflow.attest import (
    Channel,
    compute_measurement,
    handshake_client,
    handshake_server,
    sha256,
    _TICKET_LEN,
    _TicketKey,
    _TicketTable,
)
from enclaveflow.errors import AuthFailure
from enclaveflow.wire import encode_call, encode_result_ok

AUTHORITY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
ALICE_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32, 64)))
MALLORY_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(64, 96)))
CREDS = {"Alice": ALICE_KEY.public_key()}
MEASUREMENT = compute_measurement("demo-1.0", [(0, "checkpwd"), (3, "echo")], b"config")
# where the client keeps its ticket: one slot for every connection here
SLOT = ("enclave", 7000, "Alice")


class Draws:
    """The fixed stand-ins for the handshake's randomness and clock.
    ``os.urandom`` returns the SHA-256 of a counter, cut to length; each
    ``X25519PrivateKey.generate`` returns the key whose private bytes are
    the SHA-256 of another counter."""

    def __init__(self) -> None:
        self._bytes = itertools.count()
        self._shares = itertools.count()
        self.now = 1000.0

    def urandom(self, n: int) -> bytes:
        return sha256(b"urandom %d" % next(self._bytes))[:n]

    def generate(self) -> X25519PrivateKey:
        return X25519PrivateKey.from_private_bytes(sha256(b"x25519 %d" % next(self._shares)))

    def monotonic(self) -> float:
        return self.now


@pytest.fixture
def draws(monkeypatch) -> Draws:
    fixed = Draws()
    monkeypatch.setattr("enclaveflow.attest.os.urandom", fixed.urandom)
    monkeypatch.setattr("enclaveflow.attest.time.monotonic", fixed.monotonic)
    monkeypatch.setattr(attest, "X25519PrivateKey", fixed)
    monkeypatch.setattr(attest, "_TICKETS", _TicketTable())
    return fixed


class Recorder:
    """A socket that appends every write to ``trace``, with the writer's
    side, before the peer can read it; so the trace keeps the order in
    which the frames were sent."""

    def __init__(self, sock: socket.socket, side: str, trace: list) -> None:
        self.sock, self.side, self.trace = sock, side, trace

    def send(self, data) -> int:
        self.trace.append((self.side, bytes(data).hex()))
        self.sock.sendall(data)
        return len(data)

    def __getattr__(self, name: str):
        return getattr(self.sock, name)


def connect(ticket_key: _TicketKey, name: str = "Alice", key=ALICE_KEY) -> list:
    """One connection: the handshake, then, once both sides have a
    session, one sealed call and its reply.  Returns the trace."""
    trace: list = []
    a, b = socket.socketpair()
    client = Channel(Recorder(a, "client", trace), timeout=5.0)
    server = Channel(Recorder(b, "server", trace), timeout=5.0)
    served: dict = {}

    def serve() -> None:
        try:
            server.session, served["name"] = handshake_server(
                server,
                measurement=MEASUREMENT,
                authority_private=AUTHORITY,
                credentials=CREDS,
                ticket_key=ticket_key,
            )
            request = server.recv_message()
            server.send_message(encode_result_ok(len(request)))
        except Exception as e:  # noqa: BLE001 - surfaced via the slot
            served["error"] = e
        finally:
            b.close()

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        client.session = handshake_client(
            client,
            client_name=name,
            signing_key=key,
            expected_measurement=MEASUREMENT,
            authority_public=AUTHORITY.public_key(),
            ticket_slot=SLOT,
        )
        client.send_message(encode_call(3, ["ping"]))
        assert client.recv_message() == encode_result_ok(len(encode_call(3, ["ping"])))
    except AuthFailure as e:
        served["client_error"] = e
    finally:
        thread.join(10)
        a.close()
    assert not thread.is_alive()
    if "error" in served:  # a refusal: both sides raise it, with its reason
        assert isinstance(served["error"], AuthFailure)
        assert str(served["client_error"]) == str(served["error"])
    else:
        assert "client_error" not in served and served["name"] == name
    return trace


FULL = [
    # client: HELLO, 139 bytes
    (
        "client",
        "0000008b109028458a94f5b7fa8002d14bf987a93473a638116f3bfab44969c1b0b0079f"
        "360500000005416c696365532f663a1c20d5277e23853df43ec0533551fb6eee19aba1a7"
        "32ea2bd208e8749dc8dfdd46d594822fd25d8d2f0b8621b28ab806b08807de9b9f4e7802"
        "380f25b6d9759f5cd5a0d56f9616917bebdb229a1f4470fb4acfd8e81d200792e09c00",
    ),
    # server: ATTEST, 225 bytes
    (
        "server",
        "000000e1118bb4627d7b85622c7233d3ffbea14a64435acaa35ed733518368a8d06dcc85"
        "6175fa34e922720edac053acaad8e0baf268d5c055d65e802b2166e0a995130d8ac35d64"
        "85341c929275ac7331f3bd182d50b52db4b4e8a2cc1900d0966b66f710b35f1695957dce"
        "9965acb7e0232902512cb721bf75043d89bca5712477694a95f62213e0dd1653bc6d3e67"
        "6c228d535226c36f518bf895595687af6047a14504000000000000000036a8a0989c22de"
        "62388dec277cc32345b77ad0539e5b1f308cc647ad633c189c3dcdff34d6608aa95eb637"
        "5e52ba64f2278b2080c6ba8ed8",
    ),
    # client: FINISH, 33 bytes
    (
        "client",
        "0000002112548227f6873f285943891affda27ec313bad5908a14d0bdaaee77703d26668"
        "16",
    ),
    # client: record, 33 bytes
    (
        "client",
        "0000002113f9463ec720144225b2438ae00f504d56c962fae18b70346e98c2e2b35c9a0d"
        "8e",
    ),
    # server: record, 27 bytes
    (
        "server",
        "0000001b13bba48e1503e8d705a0410384e0e9aa95b01515923a7c86c90f34",
    ),
]

RESUMED = [
    # client: HELLO, 203 bytes
    (
        "client",
        "000000cb10d3b0f89fcc863c40d2d6bbe8201c1c1712a581cb80eee6c583b4f6cf7f1729"
        "320500000005416c696365e94846705bb52a7a806ca2aff53417c9f47828b6e37490da89"
        "5b201e9133206c94e8f080448512b64224b0583f2c2ad04fcae3106a594e019694cc0a4f"
        "77c52e68c9ee20b57fba553210dc2c92db427c3d2d5933eca9b928f398bd35005b3b0f00"
        "0000000000000036a8a0989c22de62388dec277cc32345b77ad0539e5b1f308cc647ad63"
        "3c189c3dcdff34d6608aa95eb6375e52ba64f2278b2080c6ba8ed8",
    ),
    # server: RESUMED, 65 bytes
    (
        "server",
        "0000004114d82ac55b6169a762b6fef9d2b00a6c25b89460fcf474f7ab25992d8c7f57dd"
        "7afde9c23431a767bd0d5b208e3b42860aecf6683780329b7065fb8d6d817eb29a",
    ),
    # client: FINISH, 33 bytes
    (
        "client",
        "00000021124074cbc4f2d17678c73edd1dd60068ee87fd227bbfd26c49eb018f8711e0c6"
        "19",
    ),
    # client: record, 33 bytes
    (
        "client",
        "00000021131c167dfa71a84675eee28ae1330af3f6605c03340157af00941e6520ad9a3f"
        "89",
    ),
    # server: record, 27 bytes
    (
        "server",
        "0000001b13181d94b735ecd11d4a955dea79c176c0adfb16caf54589bf12b2",
    ),
]

REFUSED = [
    # client: HELLO, 141 bytes
    (
        "client",
        "0000008d109028458a94f5b7fa8002d14bf987a93473a638116f3bfab44969c1b0b0079f"
        "3605000000074d616c6c6f7279532f663a1c20d5277e23853df43ec0533551fb6eee19ab"
        "a1a732ea2bd208e87463922fe3a888ed486ef1b6d47ba6c797fef6470dfa1a54febdfebc"
        "9860d29712115d002e0ac9f7bc2a931c10c3e1710ec5c1da665e584fc26970e4d50c618d"
        "0c",
    ),
    # server: AUTH_FAILURE refusal, 36 bytes
    (
        "server",
        "00000024030004050000001c636c69656e742061757468656e7469636174696f6e206661"
        "696c6564",
    ),
]

FOREIGN_TICKET = [
    # client: HELLO, 203 bytes
    (
        "client",
        "000000cb10bdaa034b67c931537cb2330c3e05b912e74dd6179a465c386d57502aa62033"
        "e90500000005416c696365e94846705bb52a7a806ca2aff53417c9f47828b6e37490da89"
        "5b201e9133206cae04bbdfa5ed08ecf4a7558a51a7c95140cdde00f457116a203ece2eb5"
        "fb9aa1b48afc365609970b4a9a516152a9f7053a483209673bca29f4d57f1c9bb6a70d00"
        "0000000000000036a8a0989c22de62388dec277cc32345b77ad0539e5b1f308cc647ad63"
        "3c189c3dcdff34d6608aa95eb6375e52ba64f2278b2080c6ba8ed8",
    ),
    # server: ATTEST, 225 bytes
    (
        "server",
        "000000e111d82ac55b6169a762b6fef9d2b00a6c25b89460fcf474f7ab25992d8c7f57dd"
        "7a75fa34e922720edac053acaad8e0baf268d5c055d65e802b2166e0a995130d8a4d00f3"
        "fd172e0d487664daa3af36ccb3c7e394158b9145c340b74da85dea428bb53d8a8ddabf4a"
        "61b3d710d29bb890f0ffb8c40db5855ac99a421cf32cecb11323760759964baf198bd1fb"
        "e051933f9700c37c474ab852447352bab6a091a901000000000000000030a364ddaa5727"
        "8f09d2c8ab96a05c68b3c26536744b10789755442b75c78658509641d82bd26300c955ed"
        "711066ba0f4377b5395ea22041",
    ),
    # client: FINISH, 33 bytes
    (
        "client",
        "000000211232d2cea62ae778079e35a7e5ae2a3ce4156588fbfb02c2d9be0785ad8dc808"
        "64",
    ),
    # client: record, 33 bytes
    (
        "client",
        "00000021131b390bf33a9c07f92a2934f188592833de806e6358048c2d83a7575e2cd5f5"
        "ab",
    ),
    # server: record, 27 bytes
    (
        "server",
        "0000001b13e5c15206fdbb74c280d20125777d1cdbbd6a6bee5d74247ca3c0",
    ),
]


def issued(trace: list) -> bytes:
    """The ticket that ends the ATTEST frame of ``trace``."""
    return bytes.fromhex(trace[1][1])[-_TICKET_LEN:]


def test_a_full_handshake_and_one_call(draws):
    assert connect(_TicketKey()) == FULL
    assert attest._TICKETS.get(SLOT)[0] == issued(FULL)


def test_a_resumed_handshake_and_one_call(draws):
    key = _TicketKey()
    assert connect(key) == FULL
    draws.now += 60
    assert connect(key) == RESUMED


def test_an_unknown_client_gets_the_auth_failure_frame(draws):
    assert connect(_TicketKey(), name="Mallory", key=MALLORY_KEY) == REFUSED


def test_a_ticket_from_another_ticket_key_falls_back_to_a_fresh_full_handshake(draws):
    assert connect(_TicketKey()) == FULL
    assert connect(_TicketKey()) == FOREIGN_TICKET
    # the hello carried the first key's ticket; the table now holds the second's
    assert bytes.fromhex(FOREIGN_TICKET[0][1]).endswith(issued(FULL))
    assert attest._TICKETS.get(SLOT)[0] == issued(FOREIGN_TICKET) != issued(FULL)
