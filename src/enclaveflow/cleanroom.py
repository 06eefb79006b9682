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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TextIO

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .app import App
from .errors import CryptoError, DecodeError, NotReady, UsageError
from .ifc import IfcContext, make_labeled
from .labels import (
    DC_PUBLIC,
    DCLabel,
    EMPTY_PRIVILEGE,
    LabeledValue,
    Privilege,
    cnf_from_principal,
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


@dataclass(frozen=True)
class Row:
    """One patient record: which strain, how old."""

    strain: str
    age: int

    def __post_init__(self) -> None:
        if not isinstance(self.strain, str) or not self.strain:
            raise UsageError("strain must be a non-empty string")
        if not isinstance(self.age, int) or isinstance(self.age, bool):
            raise UsageError("age must be an integer")
        if not 0 <= self.age <= MAX_AGE:
            raise UsageError(f"age must be in 0..{MAX_AGE}")


def row_to_value(row: Row) -> list:
    return [row.strain, row.age]


def row_from_value(v: Value) -> Row:
    """Strict: the wire form is exactly [strain, age]."""
    if not isinstance(v, list) or len(v) != 2:
        raise DecodeError("row must be a [strain, age] pair")
    strain, age = v
    if not isinstance(strain, str) or not isinstance(age, int) or isinstance(age, bool):
        raise DecodeError("row fields have the wrong types")
    try:
        return Row(strain, age)
    except UsageError as e:
        raise DecodeError(str(e)) from e


def provider_label(name: str) -> DCLabel:
    """⟨{{P}},{{P}}⟩ — secret to P, vouched for by P."""
    once = cnf_from_principal(name)
    return DCLabel(once, once)


def unlabel_row(
    ctx: IfcContext, p1: Privilege, p2: Privilege, lrow: LabeledValue
) -> Row:
    """Open one stored row.  Rows owned by either provider are opened with
    that provider's privilege so their clause never taints the context; any
    other label falls through to a plain unlabel and the context floats."""
    owner = lrow.label.secrecy.sole_principal()
    if owner is not None and owner == p1.description.sole_principal():
        raw = ctx.unlabel_p(p1, lrow)
    elif owner is not None and owner == p2.description.sole_principal():
        raw = ctx.unlabel_p(p2, lrow)
    else:
        raw = ctx.unlabel(lrow)
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


# --- result encryption: ephemeral key agreement + AEAD -----------------------------

_ENVELOPE_INFO = b"dcr-result-v1"


def _envelope_key(shared: bytes) -> bytes:
    return HKDF(
        algorithm=hashes.SHA256(), length=32, salt=None, info=_ENVELOPE_INFO
    ).derive(shared)


def encrypt_result(public_key: X25519PublicKey, plaintext: bytes) -> bytes:
    """Envelope = ephemeral public key (32) ‖ AEAD ciphertext.  The key is
    one-shot, so the zero nonce is safe."""
    eph = X25519PrivateKey.generate()
    key = _envelope_key(eph.exchange(public_key))
    ct = ChaCha20Poly1305(key).encrypt(bytes(12), plaintext, None)
    return eph.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw) + ct


def decrypt_result(private_key: X25519PrivateKey, envelope: bytes) -> bytes:
    if len(envelope) < 32 + 16:
        raise CryptoError("envelope too short")
    key = _envelope_key(
        private_key.exchange(X25519PublicKey.from_public_bytes(envelope[:32]))
    )
    try:
        return ChaCha20Poly1305(key).decrypt(bytes(12), envelope[32:], None)
    except InvalidTag as e:
        raise CryptoError("envelope failed to decrypt") from e


# --- the application ------------------------------------------------------------------


@dataclass
class CleanRoomConfig:
    """Everything role-dependent: key material for the role being played,
    data files for providers, an output sink for the consumer."""

    provider_a: str = "P1"
    provider_b: str = "P2"
    consumer: str = "C1"
    thresholds: dict[str, int] = field(default_factory=dict)  # rows required per provider
    consumer_public: X25519PublicKey | None = None  # enclave role
    consumer_private: X25519PrivateKey | None = None  # consumer role
    data_files: dict[str, str] = field(default_factory=dict)  # provider role(s)
    out: TextIO | None = None  # consumer output; defaults to stdout
    on_result: Callable[[list[tuple[str, float]]], None] | None = None


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
        p1 = Privilege.for_principal(cfg.provider_a)
        p2 = Privilege.for_principal(cfg.provider_b)
        template = IfcContext(EMPTY_PRIVILEGE)

        def datasend(ctx: IfcContext, lrow: LabeledValue) -> None:
            row_from_value(lrow.value)  # validate, stays labeled
            ctx.append_ref(db, lrow)

        send_ref = app.enclave_fn(template, datasend, (LabeledValue,), name="datasend")

        def runquery(ctx: IfcContext) -> bytes:
            # the privileges exist only inside this closure
            stored = ctx.read_ref(db)
            owners = [lrow.label.secrecy.sole_principal() for lrow in stored]
            counts = Counter(owners)
            for name in (cfg.provider_a, cfg.provider_b):
                if counts[name] < cfg.thresholds.get(name, 1):
                    raise NotReady(f"{name} below threshold")
            tagged = [
                (owner, unlabel_row(ctx, p1, p2, lrow)) for owner, lrow in zip(owners, stored)
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
