"""Tierless enclave programming with label-based information flow control.

One program describes clients and enclave together; staging splits it by
role, a dispatch core carries calls over an attested channel, and a
floating-label runtime tracks what the results are allowed to reveal.
"""

from .app import ENCLAVE_ROLE, App, DirectChannel, SecureRef, run_app
from .attest import Monitor, compute_measurement, connect_channel
from .errors import (
    AttestationFailure,
    AuthFailure,
    CryptoError,
    DecodeError,
    EnclaveFlowError,
    ErrorCode,
    IfcViolation,
    LabelError,
    NotReady,
    RemoteError,
    StagingError,
    TransportError,
    UsageError,
)
from .ifc import IfcContext, LabeledRef, make_labeled
from .labels import (
    CNF,
    CNF_FALSE,
    CNF_TRUE,
    DC_BOTTOM,
    DC_PUBLIC,
    DC_TOP,
    Clause,
    DCLabel,
    EMPTY_PRIVILEGE,
    LabeledValue,
    Principal,
    Privilege,
    can_flow_to,
    can_flow_to_p,
    cnf,
    downgrade,
    join,
    meet,
)
from .wire import decode_message, decode_value, encode_call, encode_value

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ENCLAVE_ROLE",
    "App",
    "DirectChannel",
    "SecureRef",
    "run_app",
    "Monitor",
    "compute_measurement",
    "connect_channel",
    "AttestationFailure",
    "AuthFailure",
    "CryptoError",
    "DecodeError",
    "EnclaveFlowError",
    "ErrorCode",
    "IfcViolation",
    "LabelError",
    "NotReady",
    "RemoteError",
    "StagingError",
    "TransportError",
    "UsageError",
    "IfcContext",
    "LabeledRef",
    "CNF",
    "CNF_FALSE",
    "CNF_TRUE",
    "DC_BOTTOM",
    "DC_PUBLIC",
    "DC_TOP",
    "Clause",
    "DCLabel",
    "EMPTY_PRIVILEGE",
    "LabeledValue",
    "Principal",
    "Privilege",
    "can_flow_to",
    "can_flow_to_p",
    "cnf",
    "downgrade",
    "join",
    "meet",
    "decode_message",
    "decode_value",
    "encode_call",
    "encode_value",
    "make_labeled",
]
