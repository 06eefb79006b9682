"""Simulated remote attestation and the encrypted session channel.

The monitor sits in front of the dispatch loop.  A connecting client sends
a signed hello with a fresh nonce; the enclave answers with its measurement
and a quote signed by a provisioning-time authority key (standing in for
the platform's quoting infrastructure).  Both sides derive AEAD session
keys from an ephemeral key agreement bound to the handshake transcript.
Every application byte thereafter rides in sealed, sequence-numbered
records; nothing is dispatched on a connection that has not authenticated.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import socket
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    PublicFormat,
)

from .errors import (
    AttestationFailure,
    AuthFailure,
    CryptoError,
    DecodeError,
    ErrorCode,
    TransportError,
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
    "MAX_FRAME",
    "send_frame",
    "recv_frame",
    "compute_measurement",
    "Session",
    "handshake_client",
    "handshake_server",
    "PlainChannel",
    "SealedChannel",
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

MAX_FRAME = 1 << 24  # 16 MiB; anything bigger is hostile at this scale

_U32 = struct.Struct(">I")
_ZERO_SIG = bytes(64)


# --- framing -----------------------------------------------------------------


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise TransportError("connection closed mid-frame")
        buf.extend(chunk)
    return bytes(buf)


def send_frame(sock: socket.socket, body: bytes) -> None:
    if len(body) > MAX_FRAME:
        raise TransportError("frame too large to send")
    sock.sendall(_U32.pack(len(body)) + body)


def recv_frame(sock: socket.socket) -> bytes:
    (length,) = _U32.unpack(_recv_exact(sock, 4))
    if length > MAX_FRAME:
        raise TransportError("oversized frame")
    return _recv_exact(sock, length)


# --- measurement ----------------------------------------------------------------


def compute_measurement(
    code_version: str, table: Sequence[tuple[int, str]], config_bytes: bytes
) -> bytes:
    """Digest of the enclave identity: code version, the full dispatch
    table (call ids and function names, in id order), and the provisioned
    configuration.  Any drift in any of them changes the digest."""
    h = hashlib.sha256()
    version_raw = code_version.encode("utf-8")
    h.update(struct.pack(">H", len(version_raw)))
    h.update(version_raw)
    for call_id, name in sorted(table):
        raw = name.encode("utf-8")
        h.update(struct.pack(">I", call_id))
        h.update(struct.pack(">H", len(raw)))
        h.update(raw)
    h.update(hashlib.sha256(config_bytes).digest())
    return h.digest()


# --- sessions ---------------------------------------------------------------------


def _hkdf(shared: bytes, transcript: bytes, label: bytes, length: int = 32) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(), length=length, salt=transcript, info=label
    ).derive(shared)


def _aead_nonce(seq: int) -> bytes:
    return bytes(4) + struct.pack(">Q", seq)


@dataclass
class Session:
    """AEAD state for one direction-keyed connection.  Sequence counters
    are implicit nonces: both ends count, so a replayed or dropped record
    shows up as an authentication failure."""

    session_id: bytes
    send_key: bytes
    recv_key: bytes
    send_seq: int = 0
    recv_seq: int = 0

    def seal(self, plaintext: bytes) -> bytes:
        ct = ChaCha20Poly1305(self.send_key).encrypt(
            _aead_nonce(self.send_seq), plaintext, None
        )
        self.send_seq += 1
        return bytes([MSG_RECORD]) + ct

    def open(self, record: bytes) -> bytes:
        if not record or record[0] != MSG_RECORD:
            raise TransportError("expected a sealed record")
        try:
            pt = ChaCha20Poly1305(self.recv_key).decrypt(
                _aead_nonce(self.recv_seq), record[1:], None
            )
        except InvalidTag as e:
            raise CryptoError("record failed authentication") from e
        self.recv_seq += 1
        return pt


def _derive_sessions(
    shared: bytes, transcript: bytes
) -> tuple[Session, Session, bytes]:
    """Returns (client_session, server_session, finish_mac_key)."""
    c2s = _hkdf(shared, transcript, b"c2s")
    s2c = _hkdf(shared, transcript, b"s2c")
    fin = _hkdf(shared, transcript, b"fin")
    sid = _hkdf(shared, transcript, b"sid", length=16)
    return (
        Session(session_id=sid, send_key=c2s, recv_key=s2c),
        Session(session_id=sid, send_key=s2c, recv_key=c2s),
        fin,
    )


# --- handshake --------------------------------------------------------------------


def _hello_body(nonce: bytes, name: str, eph_pub: bytes, sig: bytes) -> bytes:
    return bytes([MSG_CLIENT_HELLO]) + nonce + encode_value(name) + eph_pub + sig


def _hello_signed_bytes(nonce: bytes, eph_pub: bytes, name: str) -> bytes:
    """What the client signs in its hello."""
    return nonce + eph_pub + name.encode("utf-8")


def _parse_hello(body: bytes) -> tuple[bytes, str, bytes, bytes]:
    if len(body) < 1 + 32 + 5 + 32 + 64 or body[0] != MSG_CLIENT_HELLO:
        raise DecodeError("malformed hello")
    # the peer is not yet authenticated: read_string refuses any other value
    # type before decoding, or one hello could make us build a 16 MiB list
    name, end = read_string(body, 33)
    if len(body) != end + 32 + 64:
        raise DecodeError("malformed hello length")
    return body[1:33], name, body[end : end + 32], body[end + 32 :]


def _attest_body(eph_pub: bytes, measurement: bytes, report_data: bytes, sig: bytes) -> bytes:
    return bytes([MSG_SERVER_ATTEST]) + eph_pub + measurement + report_data + sig


def _parse_attest(body: bytes) -> tuple[bytes, bytes, bytes, bytes]:
    if len(body) != 1 + 32 + 32 + 32 + 64 or body[0] != MSG_SERVER_ATTEST:
        raise DecodeError("malformed attestation message")
    return body[1:33], body[33:65], body[65:97], body[97:]


def _report_data(eph_pub: bytes, nonce: bytes) -> bytes:
    return hashlib.sha256(eph_pub + nonce).digest()


def handshake_client(
    sock: socket.socket,
    *,
    client_name: str,
    signing_key: Ed25519PrivateKey | None,
    expected_measurement: bytes,
    authority_public: Ed25519PublicKey,
) -> Session:
    """Client side: send signed hello, verify the quote (signature, then
    measurement, then nonce binding), confirm keys.  Aborts before any
    application data if any check fails."""
    nonce = os.urandom(32)
    eph_priv = X25519PrivateKey.generate()
    eph_pub = eph_priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    to_sign = _hello_signed_bytes(nonce, eph_pub, client_name)
    sig = signing_key.sign(to_sign) if signing_key is not None else _ZERO_SIG
    hello = _hello_body(nonce, client_name, eph_pub, sig)
    send_frame(sock, hello)

    reply = recv_frame(sock)
    if reply and reply[0] == MSG_RESULT_ERR:  # pre-session refusal (e.g. auth)
        msg = decode_message(reply)
        assert isinstance(msg, ResultErr)
        if msg.code == ErrorCode.AUTH_FAILURE:
            raise AuthFailure(msg.message)
        raise TransportError(f"handshake refused: {msg.message}")
    enclave_pub, measurement, report_data, quote_sig = _parse_attest(reply)

    try:
        authority_public.verify(quote_sig, measurement + report_data)
    except InvalidSignature:
        raise AttestationFailure("bad-signature", "quote signature invalid") from None
    if measurement != expected_measurement:
        raise AttestationFailure(
            "measurement-mismatch",
            f"expected {expected_measurement.hex()} got {measurement.hex()}",
        )
    if report_data != _report_data(enclave_pub, nonce):
        raise AttestationFailure("stale-binding", "quote not bound to our nonce")

    shared = eph_priv.exchange(X25519PublicKey.from_public_bytes(enclave_pub))
    transcript = hashlib.sha256(hello + reply).digest()
    client_session, _, fin_key = _derive_sessions(shared, transcript)
    mac = hmac.new(fin_key, transcript, hashlib.sha256).digest()
    send_frame(sock, bytes([MSG_CLIENT_FINISH]) + mac)
    return client_session


def handshake_server(
    sock: socket.socket,
    *,
    measurement: bytes,
    authority_private: Ed25519PrivateKey,
    credentials: dict[str, Ed25519PublicKey],
    verify_client: bool = True,
) -> tuple[Session, str]:
    """Enclave side: authenticate the hello against provisioned
    credentials, quote our measurement bound to the client's nonce, and
    confirm the derived keys.  Raises AuthFailure (after sending a code-4
    refusal) for unknown or mis-signed clients."""
    hello = recv_frame(sock)
    try:
        nonce, name, client_eph, client_sig = _parse_hello(hello)
    except DecodeError:
        send_frame(sock, encode_result_err(ErrorCode.DECODE_ERROR, "malformed hello"))
        raise

    if verify_client:
        cred = credentials.get(name)
        ok = False
        if cred is not None:
            try:
                cred.verify(client_sig, _hello_signed_bytes(nonce, client_eph, name))
                ok = True
            except InvalidSignature:
                ok = False
        if not ok:
            send_frame(
                sock,
                encode_result_err(ErrorCode.AUTH_FAILURE, "client authentication failed"),
            )
            raise AuthFailure(f"client {name!r} failed authentication")

    eph_priv = X25519PrivateKey.generate()
    eph_pub = eph_priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    report_data = _report_data(eph_pub, nonce)
    quote_sig = authority_private.sign(measurement + report_data)
    attest = _attest_body(eph_pub, measurement, report_data, quote_sig)
    send_frame(sock, attest)

    shared = eph_priv.exchange(X25519PublicKey.from_public_bytes(client_eph))
    transcript = hashlib.sha256(hello + attest).digest()
    _, server_session, fin_key = _derive_sessions(shared, transcript)

    finish = recv_frame(sock)
    if (
        len(finish) != 33
        or finish[0] != MSG_CLIENT_FINISH
        or not hmac.compare_digest(
            finish[1:], hmac.new(fin_key, transcript, hashlib.sha256).digest()
        )
    ):
        send_frame(
            sock, encode_result_err(ErrorCode.AUTH_FAILURE, "key confirmation failed")
        )
        raise AuthFailure("key confirmation failed")
    return server_session, name


# --- channels: one interface whether sealed or plain --------------------------------


class PlainChannel:
    """Framing only — the attestation-off mode for benchmarking."""

    def __init__(self, sock: socket.socket):
        self.sock = sock

    def send_message(self, body: bytes) -> None:
        send_frame(self.sock, body)

    def recv_message(self) -> bytes:
        return recv_frame(self.sock)

    def close(self) -> None:
        self.sock.close()


class SealedChannel:
    """Frames carrying AEAD records under an established session."""

    def __init__(self, sock: socket.socket, session: Session):
        self.sock = sock
        self.session = session

    def send_message(self, body: bytes) -> None:
        send_frame(self.sock, self.session.seal(body))

    def recv_message(self) -> bytes:
        return self.session.open(recv_frame(self.sock))

    def close(self) -> None:
        self.sock.close()


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
) -> PlainChannel | SealedChannel:
    sock = socket.create_connection((host, port), timeout=timeout)
    # small frames ping-pong here; Nagle + delayed ACK would add ~40ms each
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    if not attested:
        return PlainChannel(sock)
    if authority_public is None:
        raise ValueError("attested connection requires the authority public key")
    try:
        session = handshake_client(
            sock,
            client_name=client_name,
            signing_key=signing_key,
            expected_measurement=expected_measurement,
            authority_public=authority_public,
        )
    except Exception:
        sock.close()
        raise
    return SealedChannel(sock, session)


# --- the monitor loop ----------------------------------------------------------------


class Monitor:
    """Accepts connections in front of a dispatch function.  Connections
    are served one at a time; per-connection failures close just that
    connection.  ``dispatch`` maps raw request message bytes to raw
    response message bytes and never sees unauthenticated traffic."""

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
        self._stop = threading.Event()
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind((host, port))
        self.listener.listen(8)
        self.listener.settimeout(0.2)
        self.host, self.port = self.listener.getsockname()[:2]

    def stop(self) -> None:
        self._stop.set()

    def serve_forever(self) -> None:
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self.listener.accept()
                except socket.timeout:
                    continue
                try:
                    self.serve_connection(conn)
                except (TransportError, CryptoError, DecodeError, AuthFailure, OSError):
                    pass  # that connection is done; keep accepting
                finally:
                    conn.close()
        finally:
            self.listener.close()

    def serve_connection(self, conn: socket.socket) -> None:
        conn.settimeout(30.0)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if self.attested:
            assert self.authority_private is not None
            session, _name = handshake_server(
                conn,
                measurement=self.measurement,
                authority_private=self.authority_private,
                credentials=self.credentials,
                verify_client=self.verify_client,
            )
            channel: PlainChannel | SealedChannel = SealedChannel(conn, session)
        else:
            channel = PlainChannel(conn)
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
    return key.private_bytes(Encoding.Raw, PrivateFormat.Raw, NoEncryption())


def public_raw(key) -> bytes:
    return key.public_bytes(Encoding.Raw, PublicFormat.Raw)


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
