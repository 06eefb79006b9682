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

from typing import Any, Callable, Sequence

from .attest import MAX_MESSAGE, _measured, compute_measurement
from .errors import (
    IFC_VIOLATION_MESSAGE,
    DecodeError,
    ErrorCode,
    IfcViolation,
    NotReady,
    Record,
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


class SecureRef(Record):
    """Client-side handle to a registered enclave function: the call id,
    the declared arity, and arguments collected so far (already encoded)."""

    __slots__ = ("call_id", "arity", "args")

    def __init__(self, call_id: int, arity: int, args: tuple[bytes, ...] = ()) -> None:
        _set_ref_call_id(self, call_id)
        _set_ref_arity(self, arity)
        _set_ref_args(self, args)

    def apply(self, v: Value) -> "SecureRef":
        """Collect the next argument (left to right)."""
        if len(self.args) >= self.arity:
            raise UsageError(
                f"function takes {self.arity} argument(s); all already applied"
            )
        return SecureRef(self.call_id, self.arity, self.args + (encode_value(v),))


# built on every apply: set through the slots' own setters, as wire's messages are
_set_ref_call_id = SecureRef.call_id.__set__
_set_ref_arity = SecureRef.arity.__set__
_set_ref_args = SecureRef.args.__set__


class EnclaveStub:
    """Placeholder returned to non-enclave roles for enclave-resident
    state.  Touching it is a programming error: that state only exists
    inside the enclave."""

    def __init__(self, what: str):
        self._what = what

    def __getattr__(self, name: str):
        raise UsageError(f"{self._what} is enclave-resident; not available in this role")


class _FnEntry:
    __slots__ = ("call_id", "name", "arg_types", "template", "fn")

    def __init__(
        self,
        call_id: int,
        name: str,
        arg_types: tuple,
        template: IfcContext,
        fn: Callable | None,  # None in client roles: the stub knows only the id
    ) -> None:
        self.call_id = call_id
        self.name = name
        self.arg_types = arg_types
        self.template = template
        self.fn = fn


_ARG_SPECS = (None, bool, int, float, str, bytes, list, LabeledValue)


def _type_ok(v: Value, spec: Any) -> bool:
    if spec is None:
        return v is None
    if spec is int:  # bool is an int subclass, but a distinct wire type
        return isinstance(v, int) and not isinstance(v, bool)
    return isinstance(v, spec)


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
        self.code_version = _measured("code_version", code_version)
        self.ifc_enforce = ifc_enforce
        self._gateway_factory = gateway_factory
        self._per_call_channel = per_call_channel
        self._channel = None
        self._entries: list[_FnEntry] = []
        self._client_names: list[str] = []
        self._frozen = False

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
        call id.  Outside the enclave only the id and arity survive.  Each
        argument is declared as a wire type or None; any other spec, and a
        name the measurement cannot carry, raises UsageError here,
        before any call."""
        self._check_staging()
        arg_types = tuple(arg_types)
        for spec in arg_types:
            if spec not in _ARG_SPECS:
                raise UsageError(f"unsupported argument type spec: {spec!r}")
        call_id = len(self._entries)
        entry = _FnEntry(
            call_id=call_id,
            name=_measured("function name", name or getattr(fn, "__name__", f"fn{call_id}")),
            arg_types=arg_types,
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

    def call_table(self) -> list[tuple[int, str]]:
        return [(e.call_id, e.name) for e in self._entries]

    def measurement(self, config_bytes: bytes) -> bytes:
        return compute_measurement(self.code_version, self.call_table(), config_bytes)

    # --- enclave side: dispatch ------------------------------------------------

    def dispatch(self, request: bytes) -> bytes:
        """One CALL in, one RESULT out.  Runs the function in a fresh
        context built from its registration template and consults the
        output gate before any result or error of the function leaves; the
        result's encoding checks its labels against the output label.
        Error responses never carry application data.  A result the caller
        could not take (not a wire value, nested too deep, or too long to
        seal into one frame) is an internal error, unless the encoder meets
        a label that may not leave first."""
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
        tpl = entry.template
        ctx = IfcContext(tpl.privilege, tpl.current, tpl.clearance, tpl.output, self.ifc_enforce)
        assert entry.fn is not None
        gate_open = False
        try:
            result = entry.fn(ctx, *msg.args)
            gate_open = ctx.output_gate()
            if gate_open:
                return encode_result_ok(result, MAX_MESSAGE, ctx.output if ctx.enforce else None)
        except Exception as e:  # noqa: BLE001 - opaque by design: no leakage via errors
            # the gate is consulted once: after the function returns, or as it raised
            if gate_open or ctx.output_gate():
                return next(_ERROR_RESPONSES[t] for t in type(e).__mro__ if t in _ERROR_RESPONSES)
        return _IFC_VIOLATION_RESPONSE

    # --- client side: the gateway ------------------------------------------------

    def gateway(self, s: SecureRef) -> Value:
        """Invoke a fully-applied SecureRef on the enclave and return the
        decoded result; enclave-side errors surface as RemoteError.  Any
        other failure drops the held channel and still fails the call:
        nothing is sent twice.  With ``per_call_channel`` the channel is
        closed after every call, so each call handshakes anew."""
        if len(s.args) != s.arity:
            raise UsageError(
                f"gateway call needs {s.arity} argument(s), got {len(s.args)}"
            )
        if self._gateway_factory is None:
            raise UsageError("this role has no gateway configured")
        if self._channel is None:
            self._channel = self._gateway_factory()
        try:
            self._channel.send_message(encode_call_raw(s.call_id, s.args))
            reply = decode_message(self._channel.recv_message())
            if isinstance(reply, ResultOk):
                return reply.value
            if isinstance(reply, ResultErr):
                raise RemoteError(reply.code, reply.message)
            raise DecodeError("unexpected message in reply")
        except RemoteError:
            raise  # the enclave answered: the session is in step
        except BaseException:
            # dead or out of step: drop it, so the next call handshakes anew
            self.close()
            raise
        finally:
            if self._per_call_channel:
                self.close()

    def close(self) -> None:
        if self._channel is not None:
            self._channel.close()
            self._channel = None


def run_app(
    role: str,
    program: Callable[[App], None],
    *,
    code_version: str = "app-0.1",
    ifc_enforce: bool = True,
    gateway_factory: Callable[[], Any] | None = None,
    per_call_channel: bool = False,
) -> App:
    """Stage ``program`` for ``role`` and return the frozen App.

    A client role's ``run_client`` body runs inline during staging; its
    held channel is closed once staging ends, however it ends.  The
    enclave role only stages: whoever serves it builds ``attest.Monitor``
    over ``app.dispatch`` and ``app.measurement(config_bytes)``.
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
        app.close()
    if role != ENCLAVE_ROLE and role not in app._client_names:
        raise UsageError(f"unknown role {role!r}")
    return app
