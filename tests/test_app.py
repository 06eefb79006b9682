"""Tierless-core tests: staging, call-id agreement, dispatch, and the gateway."""

from __future__ import annotations

import threading

import pytest

from enclaveflow.app import (
    ENCLAVE_ROLE,
    App,
    DirectChannel,
    EnclaveStub,
    SecureRef,
    run_app,
)
from enclaveflow.attest import connect_channel, gen_signing_key
from enclaveflow.errors import (
    DecodeError,
    ErrorCode,
    IfcViolation,
    NotReady,
    RemoteError,
    StagingError,
    UsageError,
)
from enclaveflow.ifc import IfcContext, LabeledRef
from enclaveflow.labels import (
    CNF_TRUE,
    DCLabel,
    EMPTY_PRIVILEGE,
    LabeledValue,
    Privilege,
    cnf_from_principal,
)
from enclaveflow.wire import (
    ResultErr,
    ResultOk,
    decode_message,
    encode_call,
    encode_value,
)

ALICE = DCLabel(cnf_from_principal("Alice"), CNF_TRUE)
ALICE_BOTH = DCLabel(cnf_from_principal("Alice"), cnf_from_principal("Alice"))
PLAIN = IfcContext(EMPTY_PRIVILEGE)


def add(ctx, a, b):
    return a + b


def staged(role: str, program) -> App:
    app = App(role)
    program(app)
    app.freeze()
    return app


# --- staging and call ids ---------------------------------------------------------


def test_call_ids_are_sequential():
    def program(app: App):
        refs.append(app.enclave_fn(PLAIN, add, (int, int)))
        refs.append(app.enclave_fn(PLAIN, add, (int, int), name="add2"))
        refs.append(app.enclave_fn(PLAIN, add, (float, float), name="add3"))

    refs: list[SecureRef] = []
    staged(ENCLAVE_ROLE, program)
    assert [r.call_id for r in refs] == [0, 1, 2]
    assert [r.arity for r in refs] == [2, 2, 2]


def test_roles_agree_on_the_table():
    def program(app: App):
        app.enclave_fn(PLAIN, add, (int, int), name="send")
        app.enclave_fn(PLAIN, add, (str,), name="query")
        app.run_client("client1", lambda a: None)
        app.run_client("client2", lambda a: None)

    tables = {
        role: staged(role, program).call_table()
        for role in (ENCLAVE_ROLE, "client1", "client2")
    }
    assert tables[ENCLAVE_ROLE] == [(0, "send"), (1, "query")]
    assert tables["client1"] == tables[ENCLAVE_ROLE]
    assert tables["client2"] == tables[ENCLAVE_ROLE]


def test_measurement_agrees_across_roles():
    def program(app: App):
        app.enclave_fn(PLAIN, add, (int, int))
        app.run_client("c", lambda a: None)

    m_enclave = staged(ENCLAVE_ROLE, program).measurement(b"cfg")
    m_client = staged("c", program).measurement(b"cfg")
    assert m_enclave == m_client


def test_registration_after_freeze_fails():
    app = staged(ENCLAVE_ROLE, lambda a: None)
    with pytest.raises(StagingError):
        app.enclave_fn(PLAIN, add, (int, int))
    with pytest.raises(StagingError):
        app.labeled_constant(ALICE, 1)
    with pytest.raises(StagingError):
        app.run_client("late", lambda a: None)


def test_duplicate_client_name_rejected():
    app = App(ENCLAVE_ROLE)
    app.run_client("c", lambda a: None)
    with pytest.raises(StagingError):
        app.run_client("c", lambda a: None)


def test_client_name_validation():
    app = App(ENCLAVE_ROLE)
    with pytest.raises(UsageError):
        app.run_client("", lambda a: None)
    with pytest.raises(UsageError):
        app.run_client(ENCLAVE_ROLE, lambda a: None)


# --- secure refs --------------------------------------------------------------------


def test_apply_collects_encoded_args_in_order():
    s = SecureRef(call_id=7, arity=2)
    s1 = s.apply(5)
    s2 = s1.apply("x")
    assert s.args == ()  # immutable: originals untouched
    assert s2.args == (encode_value(5), encode_value("x"))


def test_apply_overflow():
    s = SecureRef(call_id=0, arity=1).apply(1)
    with pytest.raises(UsageError):
        s.apply(2)
    with pytest.raises(UsageError):
        SecureRef(call_id=0, arity=0).apply(None)


def test_gateway_requires_full_application():
    app = App("c", gateway_factory=lambda: DirectChannel(lambda b: b))
    with pytest.raises(UsageError):
        app.gateway(SecureRef(call_id=0, arity=2).apply(1))


# --- enclave-resident state --------------------------------------------------------


def test_labeled_state_is_real_only_in_the_enclave():
    got: dict[str, object] = {}

    def program(app: App):
        got["const"] = app.labeled_constant(ALICE, "secret")
        got["ref"] = app.labeled_ref(ALICE, [1])

    staged(ENCLAVE_ROLE, program)
    assert isinstance(got["const"], LabeledValue)
    assert isinstance(got["ref"], LabeledRef)

    def program2(app: App):
        app.run_client("c", lambda a: None)
        got["const"] = app.labeled_constant(ALICE, "secret")
        got["ref"] = app.labeled_ref(ALICE, [1])

    staged("c", program2)
    assert isinstance(got["const"], EnclaveStub)
    assert isinstance(got["ref"], EnclaveStub)
    with pytest.raises(UsageError):
        _ = got["const"].label  # type: ignore[union-attr]


def test_labeled_constant_stores_a_copy():
    v = [[1], 2]
    got: dict[str, object] = {}
    staged(ENCLAVE_ROLE, lambda app: got.setdefault("const", app.labeled_constant(ALICE, v)))
    v[0].append(9)
    v.append(3)
    assert IfcContext(EMPTY_PRIVILEGE).unlabel(got["const"]) == [[1], 2]


# --- exactly one body per process ----------------------------------------------------


def make_traced_program(trace: list[str]):
    def program(app: App):
        def secret_fn(ctx):
            trace.append("enclave-fn")
            return 1

        app.enclave_fn(PLAIN, secret_fn, ())
        app.run_client("alice", lambda a: trace.append("alice"))
        app.run_client("bob", lambda a: trace.append("bob"))

    return program


def test_exactly_one_body_runs():
    for role, expected in ((ENCLAVE_ROLE, []), ("alice", ["alice"]), ("bob", ["bob"])):
        trace: list[str] = []
        staged(role, make_traced_program(trace))
        assert trace == expected  # registration itself runs nothing extra


def test_unknown_role_rejected():
    with pytest.raises(UsageError):
        run_app("nosuch", make_traced_program([]), serve=False)


# --- dispatch -----------------------------------------------------------------------


def enclave_app(program) -> App:
    return staged(ENCLAVE_ROLE, program)


def test_dispatch_happy_path():
    app = enclave_app(lambda a: a.enclave_fn(PLAIN, add, (int, int)))
    reply = decode_message(app.dispatch(encode_call(0, [2, 3])))
    assert reply == ResultOk(5)


def test_dispatch_unknown_call():
    app = enclave_app(lambda a: a.enclave_fn(PLAIN, add, (int, int)))
    reply = decode_message(app.dispatch(encode_call(99, [])))
    assert isinstance(reply, ResultErr) and reply.code == ErrorCode.UNKNOWN_CALL


def test_dispatch_malformed_request():
    app = enclave_app(lambda a: None)
    reply = decode_message(app.dispatch(b"\xff\x00garbage"))
    assert isinstance(reply, ResultErr) and reply.code == ErrorCode.DECODE_ERROR


def test_dispatch_arity_mismatch():
    app = enclave_app(lambda a: a.enclave_fn(PLAIN, add, (int, int)))
    reply = decode_message(app.dispatch(encode_call(0, [1])))
    assert isinstance(reply, ResultErr) and reply.code == ErrorCode.DECODE_ERROR


def test_dispatch_type_mismatch():
    app = enclave_app(lambda a: a.enclave_fn(PLAIN, add, (int, int)))
    for args in ([1, "x"], [True, 2], [1.0, 2]):
        reply = decode_message(app.dispatch(encode_call(0, args)))
        assert isinstance(reply, ResultErr) and reply.code == ErrorCode.DECODE_ERROR, args


def test_dispatch_accepts_declared_labeled_arg():
    def takes_labeled(ctx, lv):
        return ctx.unlabel(lv)

    app = enclave_app(lambda a: a.enclave_fn(PLAIN, takes_labeled, (LabeledValue,)))
    lv = LabeledValue(DCLabel(CNF_TRUE, CNF_TRUE), 9)
    assert decode_message(app.dispatch(encode_call(0, [lv]))) == ResultOk(9)


def test_dispatch_internal_errors_are_opaque():
    def boom(ctx):
        raise RuntimeError("stack details that must not leak")

    def bad_result(ctx):
        return {"not": "encodable"}

    app = enclave_app(
        lambda a: (a.enclave_fn(PLAIN, boom, ()), a.enclave_fn(PLAIN, bad_result, ()))
    )
    for call_id in (0, 1):
        reply = decode_message(app.dispatch(encode_call(call_id, [])))
        assert reply == ResultErr(ErrorCode.INTERNAL, "internal error")


def test_dispatch_ifc_violation_is_byte_identical_across_secrets():
    def leak_alice(ctx):
        return ctx.unlabel(LabeledValue(ALICE, "a"))

    bob = DCLabel(cnf_from_principal("Bob"), CNF_TRUE)

    def leak_bob(ctx):
        return ctx.unlabel(LabeledValue(bob, "b"))

    app = enclave_app(
        lambda a: (a.enclave_fn(PLAIN, leak_alice, ()), a.enclave_fn(PLAIN, leak_bob, ()))
    )
    r0 = app.dispatch(encode_call(0, []))
    r1 = app.dispatch(encode_call(1, []))
    assert r0 == r1  # error opacity: which secret tripped it is invisible
    msg = decode_message(r0)
    assert msg == ResultErr(ErrorCode.IFC_VIOLATION, "information flow violation")


def test_dispatch_gate_blocks_tainted_result():
    def tainted_true(ctx):
        ctx.taint(ALICE)
        return True

    app = enclave_app(lambda a: a.enclave_fn(PLAIN, tainted_true, ()))
    reply = decode_message(app.dispatch(encode_call(0, [])))
    assert reply == ResultErr(ErrorCode.IFC_VIOLATION, "information flow violation")


def test_dispatch_fresh_context_per_call():
    def taint_and_count(ctx):
        ctx.taint_p(ctx.get_privilege(), ALICE)
        return True

    template = IfcContext(Privilege.for_principal("Alice"))
    app = enclave_app(lambda a: a.enclave_fn(template, taint_and_count, ()))
    for _ in range(3):  # no taint accumulates across calls
        assert decode_message(app.dispatch(encode_call(0, []))) == ResultOk(True)


def test_dispatch_labeled_result_keeps_label():
    def seal(ctx, v):
        return ctx.label(ALICE, v)

    app = enclave_app(lambda a: a.enclave_fn(PLAIN, seal, (int,)))
    reply = decode_message(app.dispatch(encode_call(0, [5])))
    assert isinstance(reply, ResultOk)
    assert isinstance(reply.value, LabeledValue) and reply.value.label == ALICE


def test_dispatch_not_ready_mapping():
    from enclaveflow.errors import NotReady

    def gated(ctx):
        raise NotReady("below threshold")

    app = enclave_app(lambda a: a.enclave_fn(PLAIN, gated, ()))
    reply = decode_message(app.dispatch(encode_call(0, [])))
    assert reply == ResultErr(ErrorCode.INTERNAL, "NOT_READY")


# --- errors obey the output gate ----------------------------------------------------------

SVC = DCLabel(cnf_from_principal("svc"), cnf_from_principal("svc"))
IFC_VIOLATION = ResultErr(ErrorCode.IFC_VIOLATION, "information flow violation")


class RowError(DecodeError):
    pass


def probe_program(raised: type[Exception], *, ifc_enforce: bool = True) -> App:
    """A function with no privilege opens the svc secret and raises or not
    on one guessed character.  If the error code escaped the output gate,
    each call would tell a client whether the guess was right."""
    app = App(ENCLAVE_ROLE, ifc_enforce=ifc_enforce)
    stored = app.labeled_constant(SVC, "s3cr3t")

    def probe(ctx: IfcContext, i: int, c: str) -> None:
        if ctx.unlabel(stored)[i] == c:
            raise raised()

    app.enclave_fn(PLAIN, probe, (int, str), name="probe")
    app.freeze()
    return app


@pytest.mark.parametrize("raised", [RuntimeError, DecodeError, RowError, NotReady, IfcViolation])
def test_dispatch_errors_obey_the_output_gate(raised):
    app = probe_program(raised)
    replies = {app.dispatch(encode_call(0, [i, c])) for i in range(6) for c in "s3crtx"}
    assert [decode_message(r) for r in replies] == [IFC_VIOLATION]


@pytest.mark.parametrize(
    "raised, code, message",
    [
        (RuntimeError, ErrorCode.INTERNAL, "internal error"),
        (DecodeError, ErrorCode.DECODE_ERROR, "malformed payload"),
        (RowError, ErrorCode.DECODE_ERROR, "malformed payload"),
        (NotReady, ErrorCode.INTERNAL, "NOT_READY"),
        (IfcViolation, ErrorCode.IFC_VIOLATION, "information flow violation"),
    ],
)
def test_dispatch_errors_unenforced_keep_their_answers(raised, code, message):
    app = probe_program(raised, ifc_enforce=False)
    assert decode_message(app.dispatch(encode_call(0, [0, "s"]))) == ResultErr(code, message)
    assert decode_message(app.dispatch(encode_call(0, [0, "x"]))) == ResultOk(None)


def test_ref_shape_tells_a_public_appender_nothing():
    # A writer tainted by Alice picks the shape of an Alice-labeled list
    # cell from her secret; a public appender then calls.  Both calls must
    # read the same whatever the secret.
    def run(secret: bool) -> list[bytes]:
        app = App(ENCLAVE_ROLE)
        stored = app.labeled_constant(ALICE, secret)
        cell = app.labeled_ref(ALICE, [])

        def write(ctx: IfcContext) -> None:
            ctx.write_ref(cell, [] if ctx.unlabel(stored) else 0)

        def append(ctx: IfcContext) -> None:
            ctx.append_ref(cell, 1)

        app.enclave_fn(PLAIN, write, (), name="write")
        app.enclave_fn(PLAIN, append, (), name="append")
        app.freeze()
        return [app.dispatch(encode_call(call_id, [])) for call_id in (0, 1)]

    assert run(True) == run(False)
    assert [decode_message(r) for r in run(False)] == [IFC_VIOLATION, ResultOk(None)]


def test_dispatch_only_in_enclave_role():
    app = App("c")
    app.run_client("c", lambda a: None)
    app.freeze()
    with pytest.raises(UsageError):
        app.dispatch(encode_call(0, []))


# --- gateway end to end (in-process) ---------------------------------------------------


def password_program(results: dict):
    """The password-checker app: a provisioned secret, one enclave check,
    one client that tries a guess."""

    def program(app: App):
        priv = Privilege.for_principal("Alice")
        template = IfcContext(priv)
        pwd = app.labeled_constant(ALICE_BOTH, "hunter2")

        def checkpwd(ctx: IfcContext, guess: str) -> bool:
            stored = ctx.unlabel_p(ctx.get_privilege(), pwd)
            return guess == stored

        check = app.enclave_fn(template, checkpwd, (str,))

        def body(capp: App):
            results["right"] = capp.gateway(check.apply("hunter2"))
            results["wrong"] = capp.gateway(check.apply("letmein"))

        app.run_client("client", body)

    return program


def test_password_checker_in_process():
    results: dict = {}
    server = staged(ENCLAVE_ROLE, password_program(results))
    run_app(
        "client",
        password_program(results),
        gateway_factory=lambda: DirectChannel(server.dispatch),
        serve=False,
    )
    assert results == {"right": True, "wrong": False}


def test_password_checker_hashes_no_labeled_value(monkeypatch):
    # A LabeledValue holding a list is unhashable, so nothing may hash one.
    def refuse(self):
        raise AssertionError("a LabeledValue was hashed")

    monkeypatch.setattr(LabeledValue, "__hash__", refuse)
    with pytest.raises(AssertionError):
        hash(LabeledValue(ALICE, 1))
    test_password_checker_in_process()


def test_gateway_surfaces_remote_errors():
    def program(app: App):
        secret = app.labeled_constant(ALICE, 42)

        def leaky(ctx: IfcContext):
            return ctx.unlabel(secret)  # no privilege: gate will fail

        ref = app.enclave_fn(PLAIN, leaky, ())

        def body(capp: App):
            capp.gateway(ref)

        app.run_client("client", body)

    server = staged(ENCLAVE_ROLE, program)
    with pytest.raises(RemoteError) as exc:
        run_app(
            "client",
            program,
            gateway_factory=lambda: DirectChannel(server.dispatch),
            serve=False,
        )
    assert exc.value.code == ErrorCode.IFC_VIOLATION
    assert exc.value.message == "information flow violation"


def test_per_call_channel_opens_one_channel_per_call():
    def program(app: App):
        ref = app.enclave_fn(PLAIN, add, (int, int))
        app.run_client("c", lambda capp: [capp.gateway(ref.apply(1).apply(2)) for _ in range(3)])

    server = staged(ENCLAVE_ROLE, program)
    opened: list[int] = []

    def factory():
        opened.append(1)
        return DirectChannel(server.dispatch)

    run_app("c", program, gateway_factory=factory, per_call_channel=True, serve=False)
    assert len(opened) == 3
    opened.clear()
    run_app("c", program, gateway_factory=factory, serve=False)
    assert len(opened) == 1  # session reuse


def test_ifc_enforcement_can_be_disabled_for_bench():
    def program(app: App):
        secret = app.labeled_constant(ALICE, 7)

        def leaky(ctx: IfcContext):
            return ctx.unlabel(secret)

        app.enclave_fn(PLAIN, leaky, ())

    strict = App(ENCLAVE_ROLE)
    program(strict)
    strict.freeze()
    off = App(ENCLAVE_ROLE, ifc_enforce=False)
    program(off)
    off.freeze()
    assert decode_message(strict.dispatch(encode_call(0, []))).code == ErrorCode.IFC_VIOLATION
    assert decode_message(off.dispatch(encode_call(0, []))) == ResultOk(7)


# --- over the real wire ------------------------------------------------------------------


def test_password_checker_over_attested_socket():
    authority = gen_signing_key()
    client_key = gen_signing_key()
    creds = {"client": client_key.public_key()}
    results: dict = {}

    server = run_app(
        ENCLAVE_ROLE,
        password_program({}),
        config_bytes=b"cfg",
        authority_private=authority,
        credentials=creds,
        serve=False,
    )
    assert server.monitor is not None
    t = threading.Thread(target=server.monitor.serve_forever, daemon=True)
    t.start()
    try:
        expected = server.measurement(b"cfg")

        def factory():
            return connect_channel(
                "127.0.0.1",
                server.monitor.port,
                client_name="client",
                signing_key=client_key,
                expected_measurement=expected,
                authority_public=authority.public_key(),
            )

        run_app("client", password_program(results), gateway_factory=factory, serve=False)
        assert results == {"right": True, "wrong": False}
    finally:
        server.monitor.stop()
        t.join()
