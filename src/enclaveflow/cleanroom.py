"""Data clean room: two providers pool labeled patient rows, one consumer
gets an aggregate — and nothing else leaves.

Providers P1 and P2 upload rows labeled ⟨{{P}},{{P}}⟩ into a public
database ref (the labels travel on the values, not the container).  The
query intersects the strain sets, averages ages over the common strains,
and returns the table encrypted under the consumer's public key.  The
provider privileges live only inside the registered query closure; a row
whose label matches neither provider floats the context up and the output
gate refuses the response.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path
from typing import Callable, TextIO

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .app import App
from .attest import _exchange, _hkdf
from .errors import CryptoError, DecodeError, NotReady, Record, UsageError
from .ifc import IfcContext, make_labeled
from .labels import (
    DC_PUBLIC,
    DCLabel,
    EMPTY_PRIVILEGE,
    LabeledValue,
    Privilege,
    cnf_from_principal,
    sole_principal,
)
from .wire import Value, decode_value, encode_value

__all__ = [
    "Row",
    "row_to_value",
    "row_from_value",
    "provider_label",
    "unlabel_row",
    "psi_mean_age",
    "encrypt_result",
    "decrypt_result",
    "CleanRoomConfig",
    "build_cleanroom_program",
    "load_rows_csv",
    "format_result",
]

MAX_AGE = 150


class Row(Record):
    """One patient record: which strain, how old."""

    __slots__ = ("strain", "age")

    def __init__(self, strain: str, age: int) -> None:
        if not isinstance(strain, str) or not strain:
            raise UsageError("strain must be a non-empty string")
        if not isinstance(age, int) or isinstance(age, bool):
            raise UsageError("age must be an integer")
        if not 0 <= age <= MAX_AGE:
            raise UsageError(f"age must be in 0..{MAX_AGE}")
        object.__setattr__(self, "strain", strain)
        object.__setattr__(self, "age", age)


def row_to_value(row: Row) -> list:
    return [row.strain, row.age]


def row_from_value(v: Value) -> Row:
    """Strict: the wire form is exactly [strain, age]; ``Row`` checks the fields."""
    if not isinstance(v, list) or len(v) != 2:
        raise DecodeError("row must be a [strain, age] pair")
    try:
        return Row(*v)
    except UsageError as e:
        raise DecodeError(str(e)) from e


def provider_label(name: str) -> DCLabel:
    """⟨{{P}},{{P}}⟩ — secret to P, vouched for by P."""
    once = cnf_from_principal(name)
    return DCLabel(once, once)


def unlabel_row(ctx: IfcContext, privilege: Privilege | None, lrow: LabeledValue) -> Row:
    """Open one stored row with its owner's privilege, so the owner's
    clause never taints the context, or plainly when no provider owns it
    (``privilege`` None), so the context floats; then check the row."""
    raw = ctx.unlabel(lrow) if privilege is None else ctx.unlabel_p(privilege, lrow)
    return row_from_value(raw)


def psi_mean_age(
    tagged: list[tuple[str | None, Row]], provider_a: str, provider_b: str
) -> list[tuple[str, float]]:
    """Strains present in BOTH providers' rows, each with the mean age over
    all matching rows from either provider; sorted by strain."""
    strains: dict[str | None, set[str]] = {provider_a: set(), provider_b: set()}
    totals: dict[str, list[int]] = {}  # strain -> [sum of ages, rows]
    for owner, row in tagged:
        if owner in strains:
            strains[owner].add(row.strain)
            total = totals.setdefault(row.strain, [0, 0])
            total[0] += row.age
            total[1] += 1
    common = strains[provider_a] & strains[provider_b]
    return [(strain, s / n) for strain, (s, n) in sorted(totals.items()) if strain in common]


# --- result encryption: the transport's key agreement, HKDF and AEAD --------------


def _envelope_aead(priv: X25519PrivateKey, peer_share: bytes) -> AESGCM:
    """AES-256-GCM under the HKDF key of the X25519 agreement, which
    refuses a low-order share.  The key is one-shot, so the zero nonce is
    safe."""
    shared = _exchange(priv, peer_share)
    if shared is None:
        raise CryptoError("envelope key share refused")
    return AESGCM(_hkdf(b"", shared, b"dcr-result-v2")[0])


def encrypt_result(public_key: X25519PublicKey, plaintext: bytes) -> bytes:
    """Envelope = ephemeral public key (32) ‖ AES-256-GCM ciphertext."""
    eph = X25519PrivateKey.generate()
    aead = _envelope_aead(eph, public_key.public_bytes_raw())
    return eph.public_key().public_bytes_raw() + aead.encrypt(bytes(12), plaintext, None)


def decrypt_result(private_key: X25519PrivateKey, envelope: bytes) -> bytes:
    if len(envelope) < 32 + 16:
        raise CryptoError("envelope too short")
    try:
        return _envelope_aead(private_key, envelope[:32]).decrypt(bytes(12), envelope[32:], None)
    except InvalidTag as e:
        raise CryptoError("envelope failed to decrypt") from e


# --- the application ------------------------------------------------------------------


class CleanRoomConfig:
    """Everything role-dependent: key material for the role being played,
    data files for providers, an output sink for the consumer."""

    def __init__(
        self,
        provider_a: str = "P1",
        provider_b: str = "P2",
        consumer: str = "C1",
        thresholds: dict[str, int] | None = None,  # rows required per provider
        consumer_public: X25519PublicKey | None = None,  # enclave role
        consumer_private: X25519PrivateKey | None = None,  # consumer role
        data_files: dict[str, str] | None = None,  # provider role(s)
        out: TextIO | None = None,  # consumer output; defaults to stdout
        on_result: Callable[[list[tuple[str, float]]], None] | None = None,
    ) -> None:
        self.provider_a = provider_a
        self.provider_b = provider_b
        self.consumer = consumer
        self.thresholds = {} if thresholds is None else thresholds
        self.consumer_public = consumer_public
        self.consumer_private = consumer_private
        self.data_files = {} if data_files is None else data_files
        self.out = out
        self.on_result = on_result


def load_rows_csv(path: str | Path) -> list[Row]:
    """`strain,age` per line, UTF-8, no header."""
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        strain, sep, age = line.partition(",")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected `strain,age`")
        try:
            rows.append(Row(strain.strip(), int(age.strip())))
        except (ValueError, UsageError) as e:
            raise UsageError(f"{path}:{lineno}: {e}") from e
    return rows


def format_result(result: list[tuple[str, float]]) -> str:
    return "".join(f"{strain}\t{mean:.4f}\n" for strain, mean in result)


def build_cleanroom_program(cfg: CleanRoomConfig) -> Callable[[App], None]:
    """The whole clean room as one tierless program: database ref, the two
    enclave entry points, and the three parties' bodies."""

    def program(app: App) -> None:
        db = app.labeled_ref(DC_PUBLIC, [])
        # the providers' privileges, by owner name, live only in the query closure
        privileges = {n: Privilege.for_principal(n) for n in (cfg.provider_a, cfg.provider_b)}
        template = IfcContext(EMPTY_PRIVILEGE)

        def datasend(ctx: IfcContext, lrow: LabeledValue) -> None:
            row_from_value(lrow.value)  # validate, stays labeled
            ctx.append_ref(db, lrow)

        send_ref = app.enclave_fn(template, datasend, (LabeledValue,), name="datasend")

        def runquery(ctx: IfcContext) -> bytes:
            stored = ctx.read_ref(db)
            owners = [sole_principal(lrow.label.secrecy) for lrow in stored]
            counts = Counter(owners)
            for name in (cfg.provider_a, cfg.provider_b):
                if counts[name] < cfg.thresholds.get(name, 1):
                    raise NotReady(f"{name} below threshold")
            tagged = [
                (owner, unlabel_row(ctx, privileges.get(owner), lrow))
                for owner, lrow in zip(owners, stored)
            ]
            result = psi_mean_age(tagged, cfg.provider_a, cfg.provider_b)
            if cfg.consumer_public is None:
                raise UsageError("enclave is missing the consumer public key")
            table = [[strain, mean] for strain, mean in result]
            return encrypt_result(cfg.consumer_public, encode_value(table))

        query_ref = app.enclave_fn(template, runquery, (), name="runquery")

        def provider_body(name: str) -> Callable[[App], None]:
            def body(capp: App) -> None:
                path = cfg.data_files.get(name)
                if path is None:
                    raise UsageError(f"no data file configured for {name}")
                lab = provider_label(name)
                for row in load_rows_csv(path):
                    capp.gateway(send_ref.apply(make_labeled(lab, row_to_value(row))))

            return body

        def consumer_body(capp: App) -> None:
            if cfg.consumer_private is None:
                raise UsageError("consumer is missing its private key")
            envelope = capp.gateway(query_ref)
            if not isinstance(envelope, bytes):
                raise DecodeError("query result must be an encrypted envelope")
            table = decode_value(decrypt_result(cfg.consumer_private, envelope))
            if not isinstance(table, list):
                raise DecodeError("decrypted result must be a table")
            result = [(strain, mean) for strain, mean in table]
            if cfg.on_result is not None:
                cfg.on_result(result)
            stream = cfg.out if cfg.out is not None else sys.stdout
            stream.write(format_result(result))

        app.run_client(cfg.provider_a, provider_body(cfg.provider_a))
        app.run_client(cfg.provider_b, provider_body(cfg.provider_b))
        app.run_client(cfg.consumer, consumer_body)

    return program
