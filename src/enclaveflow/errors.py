"""Exception hierarchy and wire-level error codes."""

from __future__ import annotations

from enum import IntEnum


class ErrorCode(IntEnum):
    """Numeric codes carried by error responses on the wire."""

    IFC_VIOLATION = 1
    UNKNOWN_CALL = 2
    DECODE_ERROR = 3
    AUTH_FAILURE = 4
    INTERNAL = 5


# The one string ever attached to an IFC_VIOLATION response.  Keeping it
# constant means a rejected call reveals nothing about which label tripped.
IFC_VIOLATION_MESSAGE = "information flow violation"


class EnclaveFlowError(Exception):
    """Base class for all errors raised by this package."""


class LabelError(EnclaveFlowError):
    """Malformed label material: empty principal names, bad encodings."""


class DecodeError(EnclaveFlowError):
    """Bytes that do not parse under one of the wire codecs."""


class IfcViolation(EnclaveFlowError):
    """An information-flow guard refused the operation.

    Always carries the fixed message; secrets never ride on the error.
    """

    def __init__(self) -> None:
        super().__init__(IFC_VIOLATION_MESSAGE)


class StagingError(EnclaveFlowError):
    """Registration attempted after the application description was frozen."""


class UsageError(EnclaveFlowError):
    """API misuse: arity overflow, unknown role, bad configuration."""


class TransportError(EnclaveFlowError):
    """Connection setup or framing failure on the client/enclave link."""


class AuthFailure(EnclaveFlowError):
    """Client identity could not be verified against the provisioned keys."""


class AttestationFailure(EnclaveFlowError):
    """Enclave attestation evidence was rejected by the client.

    ``reason`` is one of ``"bad-signature"``, ``"measurement-mismatch"``,
    ``"stale-binding"``, ``"bad-key-share"``.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        super().__init__(f"attestation failed ({reason})" + (f": {detail}" if detail else ""))


class CryptoError(EnclaveFlowError):
    """AEAD authentication or key-agreement failure."""


class NotReady(EnclaveFlowError):
    """Analytics requested before the configured upload thresholds were met."""


class RemoteError(EnclaveFlowError):
    """An error response relayed from the enclave to the calling client."""

    def __init__(self, code: ErrorCode, message: str) -> None:
        self.code = code
        self.message = message
        super().__init__(f"remote error {code.name}: {message}")
