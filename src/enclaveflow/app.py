"""The tierless substrate: one program, many parties.

An application is a plain function over an ``App``.  Running it is the
staging pass: enclave functions are appended to a dispatch table (integer
call ids, assigned in registration order, so every role derives the same
table), labeled constants and refs come to life enclave-side only, and
each ``run_client`` body executes inline exactly when this process plays
that client.  After staging the enclave serves the table behind the
attestation monitor; clients reach it through gateway calls on
``SecureRef`` handles.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from .attest import Monitor, compute_measurement
from .errors import (
    IFC_VIOLATION_MESSAGE,
    DecodeError,
    ErrorCode,
    IfcViolation,
    NotReady,
    RemoteError,
    StagingError,
    UsageError,
)
from .ifc import IfcContext, LabeledRef, make_labeled
from .labels import DCLabel, LabeledValue
from .wire import (
    CallMessage,
    ResultErr,
    ResultOk,
    Value,
    decode_message,
    encode_call_raw,
    encode_result_err,
    encode_result_ok,
    encode_value,
)

__all__ = [
    "ENCLAVE_ROLE",
    "SecureRef",
    "EnclaveStub",
    "App",
    "DirectChannel",
    "run_app",
]

ENCLAVE_ROLE = "enclave"

_IFC_VIOLATION_RESPONSE = encode_result_err(ErrorCode.IFC_VIOLATION, IFC_VIOLATION_MESSAGE)
# a raising function's answer while its gate is open, by nearest class in the MRO
_ERROR_RESPONSES = {
    IfcViolation: _IFC_VIOLATION_RESPONSE,
    DecodeError: encode_result_err(ErrorCode.DECODE_ERROR, "malformed payload"),
    NotReady: encode_result_err(ErrorCode.INTERNAL, "NOT_READY"),
    Exception: encode_result_err(ErrorCode.INTERNAL, "internal error"),
}


@dataclass(frozen=True)
class SecureRef:
    """Client-side handle to a registered enclave function: the call id,
    the declared arity, and arguments collected so far (already encoded)."""

    call_id: int
    arity: int
    args: tuple[bytes, ...] = ()

    def apply(self, v: Value) -> "SecureRef":
        """Collect the next argument (left to right)."""
        if len(self.args) >= self.arity:
            raise UsageError(
                f"function takes {self.arity} argument(s); all already applied"
            )
        return replace(self, args=self.args + (encode_value(v),))


class EnclaveStub:
    """Placeholder returned to non-enclave roles for enclave-resident
    state.  Touching it is a programming error: that state only exists
    inside the enclave."""

    def __init__(self, what: str):
        self._what = what

    def __getattr__(self, name: str):
        raise UsageError(f"{self._what} is enclave-resident; not available in this role")


@dataclass
class _FnEntry:
    call_id: int
    name: str
    arg_types: tuple
    template: IfcContext
    fn: Callable | None  # None in client roles: the stub knows only the id


def _type_ok(v: Value, spec: Any) -> bool:
    if spec is None:
        return v is None
    if spec is int:  # bool is an int subclass, but a distinct wire type
        return isinstance(v, int) and not isinstance(v, bool)
    if spec in (bool, float, str, bytes, list, LabeledValue):
        return isinstance(v, spec)
    raise UsageError(f"unsupported argument type spec: {spec!r}")


class DirectChannel:
    """In-process loopback: a gateway 'connection' wired straight into a
    dispatch function.  Test and harness plumbing."""

    def __init__(self, dispatch: Callable[[bytes], bytes]):
        self._dispatch = dispatch
        self._reply: bytes | None = None

    def send_message(self, body: bytes) -> None:
        self._reply = self._dispatch(body)

    def recv_message(self) -> bytes:
        if self._reply is None:
            raise UsageError("no request in flight")
        reply, self._reply = self._reply, None
        return reply

    def close(self) -> None:
        pass


class App:
    """Per-process staging area and runtime for one role."""

    def __init__(
        self,
        role: str,
        *,
        code_version: str = "app-0.1",
        gateway_factory: Callable[[], Any] | None = None,
        per_call_channel: bool = False,
        ifc_enforce: bool = True,
    ):
        if not role:
            raise UsageError("role must be non-empty")
        self.role = role
        self.code_version = code_version
        self.ifc_enforce = ifc_enforce
        self._gateway_factory = gateway_factory
        self._per_call_channel = per_call_channel
        self._channel = None
        self._entries: list[_FnEntry] = []
        self._client_names: list[str] = []
        self._frozen = False
        self.monitor: Monitor | None = None

    # --- staging -----------------------------------------------------------

    def _check_staging(self) -> None:
        if self._frozen:
            raise StagingError("registration after staging is frozen")

    def enclave_fn(
        self,
        template: IfcContext,
        fn: Callable,
        arg_types: Sequence[Any],
        name: str | None = None,
    ) -> SecureRef:
        """Register an enclave function; every role assigns it the same
        call id.  Outside the enclave only the id and arity survive."""
        self._check_staging()
        call_id = len(self._entries)
        entry = _FnEntry(
            call_id=call_id,
            name=name or getattr(fn, "__name__", f"fn{call_id}"),
            arg_types=tuple(arg_types),
            template=template,
            fn=fn if self.role == ENCLAVE_ROLE else None,
        )
        self._entries.append(entry)
        return SecureRef(call_id=call_id, arity=len(entry.arg_types))

    def labeled_constant(self, l: DCLabel, v: Value) -> LabeledValue | EnclaveStub:
        """An enclave-resident labeled value fixed at staging time."""
        self._check_staging()
        if self.role != ENCLAVE_ROLE:
            return EnclaveStub("labeled constant")
        return make_labeled(l, v)

    def labeled_ref(self, l: DCLabel, v: Value) -> LabeledRef | EnclaveStub:
        """An enclave-resident labeled mutable cell."""
        self._check_staging()
        if self.role != ENCLAVE_ROLE:
            return EnclaveStub("labeled ref")
        return LabeledRef(l, v)

    def run_client(self, name: str, body: Callable[["App"], None]) -> None:
        """Declare a client; the body runs inline iff this process IS that
        client.  Registration happens in every role so names are known."""
        self._check_staging()
        if not name or name == ENCLAVE_ROLE:
            raise UsageError(f"bad client name {name!r}")
        if name in self._client_names:
            raise StagingError(f"client {name!r} declared twice")
        self._client_names.append(name)
        if self.role == name:
            body(self)

    def freeze(self) -> None:
        self._frozen = True

    # --- identity -----------------------------------------------------------

    @property
    def client_names(self) -> list[str]:
        return list(self._client_names)

    def call_table(self) -> list[tuple[int, str]]:
        return [(e.call_id, e.name) for e in self._entries]

    def measurement(self, config_bytes: bytes) -> bytes:
        return compute_measurement(self.code_version, self.call_table(), config_bytes)

    # --- enclave side: dispatch ------------------------------------------------

    def dispatch(self, request: bytes) -> bytes:
        """One CALL in, one RESULT out.  Runs the function in a fresh
        context cloned from its registration template and consults the
        output gate before any result or error of the function leaves.
        Error responses never carry application data."""
        if self.role != ENCLAVE_ROLE:
            raise UsageError("dispatch is enclave-side only")
        try:
            msg = decode_message(request)
        except DecodeError:
            return encode_result_err(ErrorCode.DECODE_ERROR, "malformed request")
        if not isinstance(msg, CallMessage):
            return encode_result_err(ErrorCode.DECODE_ERROR, "expected a call")
        if msg.call_id >= len(self._entries):
            return encode_result_err(
                ErrorCode.UNKNOWN_CALL, f"no function with id {msg.call_id}"
            )
        entry = self._entries[msg.call_id]
        if len(msg.args) != len(entry.arg_types):
            return encode_result_err(
                ErrorCode.DECODE_ERROR,
                f"{entry.name} takes {len(entry.arg_types)} argument(s)",
            )
        for got, spec in zip(msg.args, entry.arg_types):
            if not _type_ok(got, spec):
                return encode_result_err(
                    ErrorCode.DECODE_ERROR, f"argument type mismatch in {entry.name}"
                )
        ctx = entry.template.clone()
        ctx.enforce = self.ifc_enforce
        assert entry.fn is not None
        try:
            result = entry.fn(ctx, *msg.args)
        except Exception as e:  # noqa: BLE001 - opaque by design: no leakage via errors
            if not ctx.output_gate():
                return _IFC_VIOLATION_RESPONSE
            return next(_ERROR_RESPONSES[t] for t in type(e).__mro__ if t in _ERROR_RESPONSES)
        if not ctx.output_gate():
            return _IFC_VIOLATION_RESPONSE
        try:
            return encode_result_ok(result)
        except (TypeError, OverflowError):
            return _ERROR_RESPONSES[Exception]

    # --- client side: the gateway ------------------------------------------------

    def _open_channel(self):
        if self._gateway_factory is None:
            raise UsageError("this role has no gateway configured")
        return self._gateway_factory()

    def gateway(self, s: SecureRef) -> Value:
        """Invoke a fully-applied SecureRef on the enclave and return the
        decoded result; enclave-side errors surface as RemoteError."""
        if len(s.args) != s.arity:
            raise UsageError(
                f"gateway call needs {s.arity} argument(s), got {len(s.args)}"
            )
        if self._per_call_channel:
            channel = self._open_channel()
            try:
                return self._exchange(channel, s)
            finally:
                channel.close()
        if self._channel is None:
            self._channel = self._open_channel()
        return self._exchange(self._channel, s)

    @staticmethod
    def _exchange(channel, s: SecureRef) -> Value:
        channel.send_message(encode_call_raw(s.call_id, list(s.args)))
        reply = decode_message(channel.recv_message())
        if isinstance(reply, ResultOk):
            return reply.value
        if isinstance(reply, ResultErr):
            raise RemoteError(reply.code, reply.message)
        raise DecodeError("unexpected message in reply")

    def close(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None


def run_app(
    role: str,
    program: Callable[[App], None],
    *,
    code_version: str = "app-0.1",
    config_bytes: bytes = b"",
    host: str = "127.0.0.1",
    port: int = 0,
    authority_private=None,
    credentials=None,
    attested: bool = True,
    verify_client: bool = True,
    ifc_enforce: bool = True,
    gateway_factory: Callable[[], Any] | None = None,
    per_call_channel: bool = False,
    serve: bool = True,
) -> App:
    """Stage ``program`` for ``role`` and run that role's part.

    Enclave role: builds the monitor over the dispatch table and (unless
    ``serve`` is False) serves until stopped.  Client roles: the matching
    ``run_client`` body has already executed inline during staging.
    """
    app = App(
        role,
        code_version=code_version,
        gateway_factory=gateway_factory,
        per_call_channel=per_call_channel,
        ifc_enforce=ifc_enforce,
    )
    try:
        program(app)
    finally:
        app.freeze()
    if role != ENCLAVE_ROLE and role not in app.client_names:
        raise UsageError(f"unknown role {role!r}")
    if role == ENCLAVE_ROLE:
        app.monitor = Monitor(
            host,
            port,
            app.dispatch,
            measurement=app.measurement(config_bytes),
            authority_private=authority_private,
            credentials=credentials,
            attested=attested,
            verify_client=verify_client,
        )
        if serve:
            app.monitor.serve_forever()
    else:
        app.close()
    return app
