"""Simulated remote attestation and the encrypted session channel.

The monitor sits in front of the dispatch loop.  A connecting client sends
a signed hello with a fresh nonce; the enclave answers with its measurement
and a quote signed by a provisioning-time authority key (standing in for
the platform's quoting infrastructure).  Both sides derive AEAD session
keys from an ephemeral key agreement bound to the handshake transcript.
Every application byte thereafter rides in sealed, sequence-numbered
records; nothing is dispatched on a connection that has not authenticated.

Every full handshake's attestation also carries a ticket: a resumption
secret sealed under a key that never leaves the enclave process.  A client
that reconnects to the same enclave process appends the ticket to its hello;
the enclave then skips the quote and answers with a fresh key share and a
proof that it opened the ticket, and the session keys come from the fresh
key agreement and the resumption secret together (as TLS 1.3 PSK-DHE
resumption does).  The client's signature is checked on every connection,
resumed or not.  A ticket the enclave cannot use costs a full handshake,
never an error.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import socket
import struct
import threading
import time
from pathlib import Path
from typing import Callable, Sequence

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes, hmac
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import (
    AttestationFailure,
    AuthFailure,
    CryptoError,
    DecodeError,
    ErrorCode,
    TransportError,
    UsageError,
)
from .wire import (
    MSG_RESULT_ERR,
    ResultErr,
    decode_message,
    encode_result_err,
    encode_value,
    read_string,
)

__all__ = [
    "MSG_CLIENT_HELLO",
    "MSG_SERVER_ATTEST",
    "MSG_CLIENT_FINISH",
    "MSG_RECORD",
    "MSG_SERVER_RESUMED",
    "MAX_FRAME",
    "MAX_MESSAGE",
    "KEY_BLOCK_LIMIT",
    "HANDSHAKE_DEADLINE_S",
    "IDLE_TIMEOUT_S",
    "TICKET_LIFETIME_S",
    "TICKET_CACHE_SIZE",
    "sha256",
    "compute_measurement",
    "Session",
    "handshake_client",
    "handshake_server",
    "Channel",
    "connect_channel",
    "Monitor",
    "gen_signing_key",
    "private_raw",
    "public_raw",
    "save_key_hex",
    "load_signing_private",
    "load_signing_public",
    "load_exchange_private",
    "load_exchange_public",
]

MSG_CLIENT_HELLO = 0x10
MSG_SERVER_ATTEST = 0x11
MSG_CLIENT_FINISH = 0x12
MSG_RECORD = 0x13
MSG_SERVER_RESUMED = 0x14

MAX_FRAME = 1 << 24  # 16 MiB; anything bigger is hostile at this scale
# the longest message that still fits one frame once sealed: a record adds
# its tag byte and the 16-byte GCM tag
MAX_MESSAGE = MAX_FRAME - 1 - 16
# the AES blocks one send key may encrypt, tag masks included: RFC 8446
# §5.5 allows AES-GCM 2^24.5 full-size records (about 2^34.5 blocks) per
# key for a 2^-57 authenticated-encryption margin
KEY_BLOCK_LIMIT = 1 << 34
# handshake_server's whole budget, across all of its reads: a peer that
# trickles its hello cannot hold the one-at-a-time monitor for longer
HANDSHAKE_DEADLINE_S = 5.0
# every read after the handshake: an idle peer gives way to the next one
IDLE_TIMEOUT_S = 30.0
# how long a ticket stands in for the quote: past this age the enclave runs
# a full handshake, so a platform revocation is seen within this long
TICKET_LIFETIME_S = 300.0
# the most tickets a client process holds, one per enclave and identity
TICKET_CACHE_SIZE = 256

_U32 = struct.Struct(">I")
# a channel's read size: a warm call's whole frame, header and body, in one recv
_RECV_CHUNK = 4096
_ZERO_SIG = bytes(64)
# Linux's struct timeval, the value of SO_RCVTIMEO and SO_SNDTIMEO
_TIMEVAL = struct.Struct("@ll")


# --- kernel-enforced timeouts -------------------------------------------------------
# A socket with a Python-level timeout is non-blocking underneath, and
# CPython runs poll() before every recv and send on it.  A channel's socket
# stays blocking instead, and the kernel enforces its timeouts: one syscall
# per socket operation.  A timeout then surfaces as EAGAIN, which the
# channel raises as TimeoutError, as a Python-level timeout would.


def _timeval(seconds: float | None) -> bytes:
    """The timeval for a timeout of ``seconds``; None waits forever.  A
    positive time never becomes 0 s 0 µs, which the kernel reads as
    "wait forever": it rounds up to at least 1 µs."""
    if seconds is None:
        return _TIMEVAL.pack(0, 0)
    if not seconds > 0:
        raise ValueError(f"socket timeout must be positive, got {seconds!r}")
    return _TIMEVAL.pack(*divmod(max(1, int(seconds * 1_000_000)), 1_000_000))


def _set_timeout(sock: socket.socket, option: int, seconds: float | None) -> None:
    """Set ``SO_RCVTIMEO`` or ``SO_SNDTIMEO`` on a blocking socket."""
    sock.setsockopt(socket.SOL_SOCKET, option, _timeval(seconds))


# --- framing -----------------------------------------------------------------


class Channel:
    """A socket, its receive buffer, and the session that seals its
    records once a handshake has set one; without a session, messages
    travel as plain frames.  The channel owns the frame, a u32 length and
    then the body: ``_send`` writes it and ``recv_frame`` reads it.  The
    session owns the record inside it.  The handshake and the records
    read through the same buffer, so bytes that follow a handshake frame
    wait for the next message.

    With a ``timeout``, the socket must be blocking, and the kernel bounds
    every read by it, and every frame's whole send too (see ``_send``).
    Without one, the socket is left as it is."""

    def __init__(
        self, sock: socket.socket, session: Session | None = None, timeout: float | None = None
    ):
        self.sock = sock
        self.session = session
        self.timeout = timeout
        self._pending = b""
        if timeout is not None:
            _set_timeout(sock, socket.SO_RCVTIMEO, timeout)
            _set_timeout(sock, socket.SO_SNDTIMEO, timeout)

    def _recv(self, n: int, deadline: float | None) -> bytes:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TransportError("read deadline passed")
            _set_timeout(self.sock, socket.SO_RCVTIMEO, left)
        try:
            chunk = self.sock.recv(n)
        except BlockingIOError:
            raise TimeoutError("timed out") from None
        if not chunk:
            raise TransportError("connection closed mid-frame")
        return chunk

    def recv_frame(self, deadline: float | None = None) -> bytes:
        """One frame.  One ``recv`` of up to ``_RECV_CHUNK`` bytes normally
        holds all of it; the rest of a longer body is read to its exact
        length.  With a ``deadline`` (a ``time.monotonic()`` instant),
        every read waits only for what is left of it, and the receive
        timeout stays at that until the caller puts it back."""
        data = self._pending
        while len(data) < 4:
            data += self._recv(_RECV_CHUNK, deadline)
        (length,) = _U32.unpack_from(data)
        if length > MAX_FRAME:
            raise TransportError("oversized frame")
        end = 4 + length
        if len(data) >= end:
            self._pending = data[end:]
            return data[4:end]
        self._pending = b""
        body = bytearray(data[4:])
        while len(body) < length:
            body += self._recv(length - len(body), deadline)
        return bytes(body)

    def send_message(self, body: bytes) -> None:
        """One frame, holding ``body`` sealed once the channel has a session."""
        if self.session is not None:
            body = self.session.seal(body)
        self._send(body)

    def recv_message(self) -> bytes:
        body = self.recv_frame()
        return body if self.session is None else self.session.open(body)

    def _send(self, body: bytes) -> None:
        """Write ``body`` as one whole frame: its u32 length, then it.  One
        ``send`` normally takes all of it.  After a partial send, the rest
        goes out within what is left of the timeout, counted from the
        frame's start: the kernel bounds each ``send`` on its own, so a peer
        that reads a little at a time could otherwise stretch one frame for
        as long as it keeps reading."""
        if len(body) > MAX_FRAME:
            raise TransportError("frame too large to send")
        frame = _U32.pack(len(body)) + body
        start = time.monotonic()
        try:
            sent = self.sock.send(frame)
            if sent < len(frame):
                self._send_rest(memoryview(frame), sent, start)
        except BlockingIOError:
            raise TimeoutError("timed out") from None

    def _send_rest(self, frame: memoryview, sent: int, start: float) -> None:
        timeout = self.timeout
        while sent < len(frame):
            if timeout is not None:
                left = start + timeout - time.monotonic()
                if left <= 0:
                    raise TimeoutError("timed out")
                _set_timeout(self.sock, socket.SO_SNDTIMEO, left)
            sent += self.sock.send(frame[sent:])
        # only a whole frame keeps the channel usable: put the bound back
        if timeout is not None:
            _set_timeout(self.sock, socket.SO_SNDTIMEO, timeout)

    def close(self) -> None:
        self.sock.close()


# --- digests: every hash and MAC comes from ``cryptography``'s OpenSSL ------------
# (the stdlib's digest modules would load the system libcrypto beside it)


def sha256(*parts: bytes) -> bytes:
    """SHA-256 of the concatenation of ``parts``."""
    h = hashes.Hash(hashes.SHA256())
    for part in parts:
        h.update(part)
    return h.finalize()


def _hmac_sha256(key: bytes, data: bytes) -> bytes:
    mac = hmac.HMAC(key, hashes.SHA256())
    mac.update(data)
    return mac.finalize()


def _hkdf(salt: bytes, secret: bytes, *infos: bytes) -> list[bytes]:
    """HKDF-SHA256 (RFC 5869), one 32-byte key per info: one Extract, then
    a one-block Expand per info, which is all of Expand for an output of at
    most 32 bytes.  Every key the package derives comes from here."""
    prk = _hmac_sha256(salt, secret)
    return [_hmac_sha256(prk, info + b"\x01") for info in infos]


def _measured(what: str, text: str) -> str:
    """``text``, if ``compute_measurement`` can carry it: UTF-8 text whose
    length fits the two bytes it is packed in."""
    try:
        size = len(text.encode("utf-8"))
    except UnicodeEncodeError:
        raise UsageError(f"{what} must be valid UTF-8 text") from None
    if size > 0xFFFF:
        raise UsageError(f"{what} must be at most 65535 UTF-8 bytes")
    return text


def compute_measurement(
    code_version: str, table: Sequence[tuple[int, str]], config_bytes: bytes
) -> bytes:
    """Digest of the enclave identity: code version, the full dispatch
    table (call ids and function names, in id order), and the provisioned
    configuration.  Any drift in any of them changes the digest."""
    version_raw = code_version.encode("utf-8")
    parts = [struct.pack(">H", len(version_raw)), version_raw]
    for call_id, name in sorted(table):
        raw = name.encode("utf-8")
        parts += [struct.pack(">IH", call_id, len(raw)), raw]
    return sha256(*parts, sha256(config_bytes))


# --- sessions ---------------------------------------------------------------------


# a record's nonce: 4 zero bytes, then its big-endian sequence number
_NONCE = struct.Struct(">4xQ")
_RECORD_TAG = bytes([MSG_RECORD])


class Session:
    """AES-256-GCM state for one direction-keyed connection.  It seals and
    opens records, a tag byte and then the ciphertext; ``Channel`` frames
    them.  Sequence counters are implicit nonces: both ends count, so a
    replayed or dropped record shows up as an authentication failure.  A
    record of ``n`` bytes costs its send key ⌈n/16⌉ + 1 AES blocks, and the
    key seals nothing past ``KEY_BLOCK_LIMIT`` of them: the connection must
    end and a new handshake bring new keys."""

    def __init__(self, session_id: bytes, send_key: bytes, recv_key: bytes) -> None:
        self.session_id = session_id
        self.send_key = send_key
        self.recv_key = recv_key
        self.send_seq = 0
        self.recv_seq = 0
        # the AES blocks the send key has encrypted
        self.send_blocks = 0
        # the keys are fixed for the session: key each direction's AEAD once
        self._send_aead = AESGCM(send_key)
        self._recv_aead = AESGCM(recv_key)

    def seal(self, plaintext: bytes) -> bytes:
        """The next record: tag, ciphertext.  Raises TransportError, and
        seals nothing, if the record would take the send key past
        ``KEY_BLOCK_LIMIT``."""
        blocks = self.send_blocks + (len(plaintext) + 31) // 16  # ⌈n/16⌉ + 1
        if blocks > KEY_BLOCK_LIMIT:
            raise TransportError("session key exhausted")
        ct = self._send_aead.encrypt(_NONCE.pack(self.send_seq), plaintext, None)
        self.send_seq += 1
        self.send_blocks = blocks
        return _RECORD_TAG + ct

    def open(self, record: bytes) -> bytes:
        if not record or record[0] != MSG_RECORD:
            raise TransportError("expected a sealed record")
        try:
            pt = self._recv_aead.decrypt(_NONCE.pack(self.recv_seq), record[1:], None)
        except InvalidTag as e:
            raise CryptoError("record failed authentication") from e
        self.recv_seq += 1
        return pt


def _derive_session(
    shared: bytes, transcript: bytes, *, client: bool
) -> tuple[Session, bytes]:
    """Returns (the caller's session, finish_mac_key).  The client sends
    under the c2s key and the server under the s2c key, all of them HKDF
    keys with the transcript as salt and a label as info."""
    c2s, s2c, fin, sid = _hkdf(transcript, shared, b"c2s", b"s2c", b"fin", b"sid")
    send_key, recv_key = (c2s, s2c) if client else (s2c, c2s)
    return Session(session_id=sid[:16], send_key=send_key, recv_key=recv_key), fin


# --- tickets ------------------------------------------------------------------------

# a ticket's plaintext: its issue time, by the enclave process's
# time.monotonic(), and the resumption secret
_TICKET_BODY = struct.Struct(">d32s")
# a ticket on the wire: the last 8 bytes of its nonce (the first 4 are zero,
# as in a record's), then the sealed body with its 16-byte GCM tag
_TICKET_LEN = 8 + _TICKET_BODY.size + 16


class _TicketKey:
    """An enclave process's ticket key: AES-256-GCM under a key drawn at
    construction, which nothing exports.  Each ticket's nonce is the next
    value of a counter, so no two tickets share one.  The measurement and
    the client name are the associated data: a ticket opens only in the
    enclave that issued it and only for the name it was issued to."""

    def __init__(self) -> None:
        self._aead = AESGCM(os.urandom(32))
        self._counter = itertools.count()

    def seal(self, measurement: bytes, name: str, secret: bytes) -> bytes:
        nonce = _NONCE.pack(next(self._counter))
        body = _TICKET_BODY.pack(time.monotonic(), secret)
        return nonce[4:] + self._aead.encrypt(nonce, body, measurement + name.encode("utf-8"))

    def open(self, ticket: bytes, measurement: bytes, name: str) -> bytes | None:
        """The resumption secret in ``ticket``, or None if this key did not
        seal it for ``measurement`` and ``name`` or it is older than
        ``TICKET_LIFETIME_S``."""
        aad = measurement + name.encode("utf-8")
        try:
            body = self._aead.decrypt(bytes(4) + ticket[:8], ticket[8:], aad)
        except InvalidTag:
            return None
        issued, secret = _TICKET_BODY.unpack(body)
        if not 0 <= time.monotonic() - issued <= TICKET_LIFETIME_S:
            return None
        return secret


class _TicketTable:
    """A client process's tickets, each with its resumption secret, one per
    slot (see ``_ticket_slot``).  It holds at most ``TICKET_CACHE_SIZE``
    entries; a new one evicts the oldest."""

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple[bytes, bytes]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, slot: tuple) -> tuple[bytes, bytes] | None:
        return self._entries.get(slot)

    def put(self, slot: tuple, entry: tuple[bytes, bytes]) -> None:
        """Evicts before it inserts: a reader that takes no lock never sees
        the table past its bound."""
        with self._lock:
            self._entries.pop(slot, None)
            while len(self._entries) >= TICKET_CACHE_SIZE:
                del self._entries[next(iter(self._entries))]
            self._entries[slot] = entry

    def drop(self, slot: tuple, entry: tuple[bytes, bytes]) -> None:
        """Forget ``slot``'s ticket if it is still ``entry``: another
        connection may have put a fresh one there since."""
        with self._lock:
            if self._entries.get(slot) is entry:
                del self._entries[slot]


_TICKETS = _TicketTable()


def _ticket_slot(
    host: str,
    port: int,
    client_name: str,
    signing_key: Ed25519PrivateKey | None,
    expected_measurement: bytes,
    authority_public: Ed25519PublicKey,
) -> tuple:
    """Where ``connect_channel`` keeps a ticket: the enclave's address, the
    identity the client presents, and the quote it would demand.  A client
    that pins another measurement or trusts another authority never sends
    the ticket, and gets a full handshake."""
    signer = None if signing_key is None else signing_key.public_key().public_bytes_raw()
    return (
        host,
        port,
        client_name,
        signer,
        expected_measurement,
        authority_public.public_bytes_raw(),
    )


def _resumption_secret(shared: bytes, hello: bytes) -> bytes:
    """The secret a full handshake's ticket carries: HKDF-SHA256 of the key
    agreement, salted with the hello's digest, under the label ``res``.
    The ATTEST message that carries the ticket is no input to it."""
    return _hkdf(sha256(hello), shared, b"res")[0]


# --- handshake --------------------------------------------------------------------


def _hello_signed_bytes(nonce: bytes, eph_pub: bytes, name: str) -> bytes:
    """What the client signs in its hello."""
    return nonce + eph_pub + name.encode("utf-8")


def _parse_hello(body: bytes) -> tuple[bytes, str, bytes, bytes, bytes]:
    """(nonce, name, key share, signature, ticket); the ticket is empty
    unless the hello carries one."""
    if len(body) < 1 + 32 + 5 + 32 + 64 or body[0] != MSG_CLIENT_HELLO:
        raise DecodeError("malformed hello")
    # the peer is not yet authenticated: read_string refuses any other value
    # type before decoding, or one hello could make us build a 16 MiB list
    name, end = read_string(body, 33)
    if len(body) - (end + 32 + 64) not in (0, _TICKET_LEN):
        raise DecodeError("malformed hello length")
    return body[1:33], name, body[end : end + 32], body[end + 32 : end + 96], body[end + 96 :]


# The fixed-size handshake messages, each one layout that writes and reads
# it.  ATTEST: tag, key share, measurement, report data (the SHA-256 of the
# key share and the client's nonce), quote, ticket.
_ATTEST = struct.Struct(f">B32s32s32s64s{_TICKET_LEN}s")
# RESUMED: tag, key share, proof (a MAC of the hello and the tag and share)
_RESUMED = struct.Struct(">B32s32s")
# FINISH: tag, MAC of the transcript
_FINISH = struct.Struct(">B32s")
_RESUMED_TAG = bytes([MSG_SERVER_RESUMED])


def _mac_ok(key: bytes, data: bytes, mac: bytes) -> bool:
    """Whether ``mac`` is the HMAC-SHA256 of ``data`` under ``key``,
    compared in constant time."""
    h = hmac.HMAC(key, hashes.SHA256())
    h.update(data)
    try:
        h.verify(mac)
    except InvalidSignature:
        return False
    return True


def _exchange(priv: X25519PrivateKey, peer_pub: bytes) -> bytes | None:
    """The X25519 shared secret, or None for a peer share that yields the
    all-zero secret (a low-order point), which RFC 7748 §6.1 says to
    refuse and ``cryptography`` refuses with ValueError."""
    try:
        return priv.exchange(X25519PublicKey.from_public_bytes(peer_pub))
    except ValueError:
        return None


def handshake_client(
    channel: Channel,
    *,
    client_name: str,
    signing_key: Ed25519PrivateKey | None,
    expected_measurement: bytes,
    authority_public: Ed25519PublicKey,
    ticket_slot: tuple,
) -> Session:
    """Client side: send signed hello, verify the quote (signature, then
    measurement, then nonce binding), confirm keys.  Aborts before any
    application data if any check fails.

    The ticket held in ``ticket_slot``, if any, rides on the hello.  An
    enclave that takes it answers RESUMED in place of a quote; a proof
    that fails to verify raises AttestationFailure("bad-resumption") and
    forgets the ticket.  A full handshake puts the ticket its quote
    carried in the slot, once the quote has verified."""
    nonce = os.urandom(32)
    eph_priv = X25519PrivateKey.generate()
    eph_pub = eph_priv.public_key().public_bytes_raw()
    to_sign = _hello_signed_bytes(nonce, eph_pub, client_name)
    sig = signing_key.sign(to_sign) if signing_key is not None else _ZERO_SIG
    hello = bytes([MSG_CLIENT_HELLO]) + nonce + encode_value(client_name) + eph_pub + sig
    held = _TICKETS.get(ticket_slot)
    if held is not None:
        hello += held[0]
    channel.send_message(hello)

    reply = channel.recv_frame()
    if reply and reply[0] == MSG_RESULT_ERR:  # pre-session refusal (e.g. auth)
        msg = decode_message(reply)
        assert isinstance(msg, ResultErr)
        if msg.code == ErrorCode.AUTH_FAILURE:
            raise AuthFailure(msg.message)
        raise TransportError(f"handshake refused: {msg.message}")

    resumed = held is not None and reply[:1] == _RESUMED_TAG
    if resumed:
        if len(reply) != _RESUMED.size:
            raise DecodeError("malformed resumption message")
        _, enclave_pub, proof = _RESUMED.unpack(reply)
        if not _mac_ok(held[1], sha256(hello, _RESUMED_TAG, enclave_pub), proof):
            _TICKETS.drop(ticket_slot, held)
            raise AttestationFailure("bad-resumption", "resumption proof invalid")
    else:
        if len(reply) != _ATTEST.size or reply[0] != MSG_SERVER_ATTEST:
            raise DecodeError("malformed attestation message")
        _, enclave_pub, measurement, report_data, quote_sig, issued = _ATTEST.unpack(reply)
        try:
            authority_public.verify(quote_sig, measurement + report_data)
        except InvalidSignature:
            raise AttestationFailure("bad-signature", "quote signature invalid") from None
        if measurement != expected_measurement:
            raise AttestationFailure(
                "measurement-mismatch",
                f"expected {expected_measurement.hex()} got {measurement.hex()}",
            )
        if report_data != sha256(enclave_pub, nonce):
            raise AttestationFailure("stale-binding", "quote not bound to our nonce")

    shared = _exchange(eph_priv, enclave_pub)
    if shared is None:
        raise AttestationFailure("bad-key-share", "enclave key share refused")
    transcript = sha256(hello, reply)
    client_session, fin_key = _derive_session(
        shared + held[1] if resumed else shared, transcript, client=True
    )
    channel.send_message(_FINISH.pack(MSG_CLIENT_FINISH, _hmac_sha256(fin_key, transcript)))
    if not resumed:
        _TICKETS.put(ticket_slot, (issued, _resumption_secret(shared, hello)))
    return client_session


def _refuse(channel: Channel, reason: str) -> AuthFailure:
    """Send the pre-session AUTH_FAILURE refusal and return the error to raise."""
    channel.send_message(encode_result_err(ErrorCode.AUTH_FAILURE, reason))
    return AuthFailure(reason)


def handshake_server(
    channel: Channel,
    *,
    measurement: bytes,
    authority_private: Ed25519PrivateKey,
    credentials: dict[str, Ed25519PublicKey],
    ticket_key: _TicketKey,
    verify_client: bool = True,
) -> tuple[Session, str]:
    """Enclave side: authenticate the hello against provisioned
    credentials, quote our measurement bound to the client's nonce, and
    confirm the derived keys.  Raises AuthFailure (after sending a code-4
    refusal) for unknown or mis-signed clients and for a key share that
    cannot be agreed with.  All of it must finish within
    ``HANDSHAKE_DEADLINE_S``, or the read that would overrun raises
    TransportError or TimeoutError; the channel's own receive timeout is
    put back once the handshake succeeds.

    Every quote carries a ticket sealed under ``ticket_key``, and a hello
    whose ticket opens under it is answered with RESUMED, a fresh key share
    and a MAC under the ticket's secret, in place of a quote.  A ticket
    that does not open costs a full handshake, never a refusal; the
    client's signature is checked either way."""
    deadline = time.monotonic() + HANDSHAKE_DEADLINE_S
    hello = channel.recv_frame(deadline)
    try:
        nonce, name, client_eph, client_sig, ticket = _parse_hello(hello)
    except DecodeError:
        channel.send_message(encode_result_err(ErrorCode.DECODE_ERROR, "malformed hello"))
        raise
    secret = ticket_key.open(ticket, measurement, name) if ticket else None

    if verify_client:
        try:
            credentials[name].verify(client_sig, _hello_signed_bytes(nonce, client_eph, name))
        except (KeyError, InvalidSignature):
            raise _refuse(channel, "client authentication failed") from None

    eph_priv = X25519PrivateKey.generate()
    # agree before quoting: a share we refuse gets a refusal, not a quote
    shared = _exchange(eph_priv, client_eph)
    if shared is None:
        raise _refuse(channel, "client key share refused")
    eph_pub = eph_priv.public_key().public_bytes_raw()
    if secret is None:
        report_data = sha256(eph_pub, nonce)
        quote_sig = authority_private.sign(measurement + report_data)
        issued = ticket_key.seal(measurement, name, _resumption_secret(shared, hello))
        reply = _ATTEST.pack(
            MSG_SERVER_ATTEST, eph_pub, measurement, report_data, quote_sig, issued
        )
    else:
        proof = _hmac_sha256(secret, sha256(hello, _RESUMED_TAG, eph_pub))
        reply = _RESUMED.pack(MSG_SERVER_RESUMED, eph_pub, proof)
        shared += secret
    channel.send_message(reply)

    transcript = sha256(hello, reply)
    server_session, fin_key = _derive_session(shared, transcript, client=False)

    finish = channel.recv_frame(deadline)
    tag, mac = _FINISH.unpack(finish) if len(finish) == _FINISH.size else (None, None)
    if tag != MSG_CLIENT_FINISH or not _mac_ok(fin_key, transcript, mac):
        raise _refuse(channel, "key confirmation failed")
    _set_timeout(channel.sock, socket.SO_RCVTIMEO, channel.timeout)
    return server_session, name


# --- connections --------------------------------------------------------------------


def connect_channel(
    host: str,
    port: int,
    *,
    attested: bool = True,
    client_name: str = "",
    signing_key: Ed25519PrivateKey | None = None,
    expected_measurement: bytes = b"",
    authority_public: Ed25519PublicKey | None = None,
    timeout: float | None = 10.0,
) -> Channel:
    """A channel to an enclave, attested unless ``attested`` is false.
    ``timeout`` bounds the connect, and then every read and every frame's
    send, kernel-enforced on a blocking socket.  An attested channel keeps
    the ticket its first full handshake brings, so later connections with
    the same arguments resume without a quote while the enclave process
    takes the ticket."""
    if attested and authority_public is None:
        raise ValueError("attested connection requires the authority public key")
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.setblocking(True)
        # small frames ping-pong here; Nagle + delayed ACK would add ~40ms each
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        channel = Channel(sock, timeout=timeout)
        if attested:
            assert authority_public is not None
            channel.session = handshake_client(
                channel,
                client_name=client_name,
                signing_key=signing_key,
                expected_measurement=expected_measurement,
                authority_public=authority_public,
                ticket_slot=_ticket_slot(
                    host, port, client_name, signing_key, expected_measurement, authority_public
                ),
            )
    except Exception:
        sock.close()
        raise
    return channel


# --- the monitor loop ----------------------------------------------------------------


class Monitor:
    """Accepts connections in front of a dispatch function.  Connections
    are served one at a time; per-connection failures close just that
    connection.  ``dispatch`` maps raw request message bytes to raw
    response message bytes and never sees unauthenticated traffic.  The
    ticket key is drawn here and never leaves the monitor: a ticket is good
    only against the monitor that issued it."""

    def __init__(
        self,
        host: str,
        port: int,
        dispatch: Callable[[bytes], bytes],
        *,
        measurement: bytes,
        authority_private: Ed25519PrivateKey | None,
        credentials: dict[str, Ed25519PublicKey] | None = None,
        attested: bool = True,
        verify_client: bool = True,
    ):
        if attested and authority_private is None:
            raise ValueError("attested serving requires the authority private key")
        self.dispatch = dispatch
        self.measurement = measurement
        self.authority_private = authority_private
        self.credentials = credentials or {}
        self.attested = attested
        self.verify_client = verify_client
        self._ticket_key = _TicketKey()
        self._stop = threading.Event()
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind((host, port))
        self.listener.listen(8)
        self.host, self.port = self.listener.getsockname()[:2]

    def stop(self) -> None:
        """End ``serve_forever``, whose ``accept`` blocks: on Linux, the
        listener's shutdown fails it at once with ``EINVAL``."""
        self._stop.set()
        with contextlib.suppress(OSError):  # already shut down, or closed
            self.listener.shutdown(socket.SHUT_RDWR)

    def serve_forever(self) -> None:
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self.listener.accept()
                except OSError:
                    if self._stop.is_set():
                        return  # stop() shut the listener down
                    raise
                try:
                    self.serve_connection(conn)
                except Exception:  # noqa: BLE001 - one peer must not stop the loop
                    pass  # that connection is done, whatever ended it; keep accepting
                finally:
                    conn.close()
        finally:
            self.listener.close()

    def serve_connection(self, conn: socket.socket) -> None:
        """Serve one accepted (blocking) connection until the peer hangs
        up; every read waits at most ``IDLE_TIMEOUT_S``."""
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        channel = Channel(conn, timeout=IDLE_TIMEOUT_S)
        if self.attested:
            assert self.authority_private is not None
            channel.session, _name = handshake_server(
                channel,
                measurement=self.measurement,
                authority_private=self.authority_private,
                credentials=self.credentials,
                verify_client=self.verify_client,
                ticket_key=self._ticket_key,
            )
        while True:
            try:
                request = channel.recv_message()
            except TransportError:
                return  # peer hung up
            channel.send_message(self.dispatch(request))


# --- key files: raw key bytes, hex-encoded, one per file ------------------------------


def gen_signing_key() -> Ed25519PrivateKey:
    return Ed25519PrivateKey.generate()


def private_raw(key: Ed25519PrivateKey | X25519PrivateKey) -> bytes:
    return key.private_bytes_raw()


def public_raw(key: Ed25519PublicKey | X25519PublicKey) -> bytes:
    return key.public_bytes_raw()


def save_key_hex(path: str | Path, raw: bytes) -> None:
    Path(path).write_text(raw.hex() + "\n")


def _load_hex(path: str | Path, expected_len: int) -> bytes:
    text = Path(path).read_text().strip()
    try:
        raw = bytes.fromhex(text)
    except ValueError as e:
        raise CryptoError(f"{path}: not a hex-encoded key") from e
    if len(raw) != expected_len:
        raise CryptoError(f"{path}: expected {expected_len} key bytes, got {len(raw)}")
    return raw


def load_signing_private(path: str | Path) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(_load_hex(path, 32))


def load_signing_public(path: str | Path) -> Ed25519PublicKey:
    return Ed25519PublicKey.from_public_bytes(_load_hex(path, 32))


def load_exchange_private(path: str | Path) -> X25519PrivateKey:
    return X25519PrivateKey.from_private_bytes(_load_hex(path, 32))


def load_exchange_public(path: str | Path) -> X25519PublicKey:
    return X25519PublicKey.from_public_bytes(_load_hex(path, 32))
