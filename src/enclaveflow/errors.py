"""Exception hierarchy, wire-level error codes, and the immutable record
base every value type of the package builds on."""

from __future__ import annotations

from enum import IntEnum
from operator import attrgetter


class Record:
    """An immutable value with named fields, written out by hand so that
    importing the package generates no code.  The fields are the
    subclass's ``__slots__`` that do not start with ``_``, in order; its
    constructor takes them in that order and sets each through
    ``object.__setattr__``, or, for a record built on every call, through
    the slot's own ``__set__``.  Records compare and hash field by field, only
    within one class; they repr as ``Name(field=value, ...)`` and pickle
    through their constructor; any assignment after construction raises
    ``AttributeError``.  ``DCLabel`` and ``Privilege`` are interned: one
    live object stands for each value, so they compare and hash by
    identity."""

    __slots__ = ()
    _fields: tuple[str, ...]
    _key: attrgetter  # one field's value, or a tuple of the fields' values

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        if cls._fields:  # a base with no public fields has no key
            cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            # in a tuple, a field equals itself even when it is NaN
            return (self._key(self),) == (other._key(other),)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        parts = (f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({', '.join(parts)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


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
    ``"stale-binding"``, ``"bad-key-share"``, ``"bad-resumption"``.
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
