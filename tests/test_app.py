"""Tierless-core tests: staging, call-id agreement, dispatch, and the gateway."""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import pytest

from enclaveflow.app import (
    ENCLAVE_ROLE,
    App,
    DirectChannel,
    EnclaveStub,
    SecureRef,
    run_app,
)
from enclaveflow.attest import MAX_FRAME, Monitor, Session, connect_channel, gen_signing_key
from enclaveflow.errors import (
    DecodeError,
    ErrorCode,
    IfcViolation,
    LabelError,
    NotReady,
    RemoteError,
    StagingError,
    TransportError,
    UsageError,
)
from enclaveflow.ifc import IfcContext, LabeledRef
from enclaveflow.labels import (
    CNF_TRUE,
    DC_PUBLIC,
    DCLabel,
    EMPTY_PRIVILEGE,
    LabeledValue,
    Privilege,
    cnf_from_principal,
)
from enclaveflow.wire import (
    TAG_LABELED,
    ResultErr,
    ResultOk,
    decode_message,
    encode_call,
    encode_call_raw,
    encode_result_err,
    encode_value,
)
from value_gen import nested

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
        run_app("nosuch", make_traced_program([]))


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


@pytest.mark.parametrize("role", [ENCLAVE_ROLE, "c"])
def test_an_unsupported_argument_spec_fails_staging(role):
    # refused where it is declared, in every role, not on the first call
    app = App(role)
    with pytest.raises(UsageError, match="unsupported argument type spec"):
        app.enclave_fn(PLAIN, lambda ctx, d: d, (dict,))
    assert app.call_table() == []


@pytest.mark.parametrize("role", [ENCLAVE_ROLE, "c"])
def test_a_function_name_the_measurement_cannot_carry_fails_staging(role):
    # the measurement packs each name's UTF-8 length in two bytes
    app = App(role)
    app.enclave_fn(PLAIN, add, (int, int), name="é" * 0x7FFF)  # 65534 bytes fit
    with pytest.raises(UsageError, match="65535"):
        app.enclave_fn(PLAIN, add, (int, int), name="é" * 0x8000)
    assert len(app.call_table()) == 1
    app.measurement(b"")


def test_a_code_version_the_measurement_cannot_carry_is_refused():
    App(ENCLAVE_ROLE, code_version="v" * 0xFFFF).measurement(b"")
    with pytest.raises(UsageError, match="65535"):
        App(ENCLAVE_ROLE, code_version="v" * 0x10000)


def test_a_code_version_with_no_utf8_encoding_is_refused():
    with pytest.raises(UsageError, match="UTF-8 text"):
        App(ENCLAVE_ROLE, code_version="\ud800")


@pytest.mark.parametrize("role", [ENCLAVE_ROLE, "c"])
def test_a_function_name_with_no_utf8_encoding_fails_staging(role):
    app = App(role)
    with pytest.raises(UsageError, match="UTF-8 text"):
        app.enclave_fn(PLAIN, add, (int, int), name="\ud800")
    assert app.call_table() == []


def test_dispatch_accepts_declared_labeled_arg():
    def takes_labeled(ctx, lv):
        return ctx.unlabel(lv)

    app = enclave_app(lambda a: a.enclave_fn(PLAIN, takes_labeled, (LabeledValue,)))
    lv = LabeledValue(DCLabel(CNF_TRUE, CNF_TRUE), 9)
    assert decode_message(app.dispatch(encode_call(0, [lv]))) == ResultOk(9)


def test_a_result_label_the_decoder_would_refuse_is_an_internal_error():
    # ⟨True, 17 one-principal integrity clauses⟩ flows to the public output,
    # so the gate opens; the encoder then refuses more clauses than any
    # decoder accepts, and the caller reads the opaque error, not bytes it
    # cannot decode
    endorsed = frozenset(frozenset({f"p{i:02}"}) for i in range(17))
    label = DCLabel(CNF_TRUE, endorsed)

    def program(app: App):
        constant = app.labeled_constant(label, 1)
        app.enclave_fn(PLAIN, lambda ctx: constant, (), name="endorsed")

    app = enclave_app(program)
    reply = decode_message(app.dispatch(encode_call(0, [])))
    assert reply == ResultErr(ErrorCode.INTERNAL, "internal error")
    with pytest.raises(LabelError):
        SecureRef(0, 1, ()).apply(LabeledValue(label, 1))


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
        fresh = ctx.current == DC_PUBLIC
        ctx.taint(ALICE)
        return fresh

    template = IfcContext(EMPTY_PRIVILEGE, output=ALICE)
    app = enclave_app(lambda a: a.enclave_fn(template, taint_and_count, ()))
    for _ in range(3):  # no taint accumulates across calls
        assert decode_message(app.dispatch(encode_call(0, []))) == ResultOk(True)
    assert template.current == DC_PUBLIC  # nor in the template


def test_dispatch_labeled_result_keeps_label():
    # the result's label flows to this function's output label, so it leaves
    def seal(ctx, v):
        return ctx.label(ALICE, v)

    template = IfcContext(EMPTY_PRIVILEGE, output=ALICE)
    app = enclave_app(lambda a: a.enclave_fn(template, seal, (int,)))
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


def returning_program(make_result, label: DCLabel = SVC, **app_kwargs) -> App:
    """A function with no privilege that returns what ``make_result`` builds
    from an svc-labeled constant and a public ref holding it, unopened."""
    app = App(ENCLAVE_ROLE, **app_kwargs)
    stored = app.labeled_constant(label, "hunter2")
    table = app.labeled_ref(DC_PUBLIC, [stored])

    def give(ctx: IfcContext):
        return make_result(ctx, stored, table)

    app.enclave_fn(PLAIN, give, (), name="give")
    app.freeze()
    return app


LEAKS = {
    "bare": lambda ctx, c, table: c,
    "in a list": lambda ctx, c, table: [c, 1],
    "deep in lists": lambda ctx, c, table: [[], [0, [c]]],
    "in a labeled value": lambda ctx, c, table: ctx.label(DC_PUBLIC, [c]),
    "read from a public ref": lambda ctx, c, table: ctx.read_ref(table),
}


@pytest.mark.parametrize("leak", list(LEAKS))
def test_a_returned_labeled_value_obeys_the_output_gate(leak):
    app = returning_program(LEAKS[leak])
    assert decode_message(app.dispatch(encode_call(0, []))) == IFC_VIOLATION


def test_a_refused_result_label_consults_the_output_gate_once(monkeypatch):
    app = returning_program(LEAKS["in a list"])
    calls = []
    gate = IfcContext.output_gate
    monkeypatch.setattr(IfcContext, "output_gate", lambda ctx: calls.append(ctx) or gate(ctx))
    assert decode_message(app.dispatch(encode_call(0, []))) == IFC_VIOLATION
    assert len(calls) == 1


@pytest.mark.parametrize("leak", list(LEAKS))
def test_a_returned_labeled_value_leaves_with_ifc_off(leak):
    app = returning_program(LEAKS[leak], ifc_enforce=False)
    reply = decode_message(app.dispatch(encode_call(0, [])))
    assert isinstance(reply, ResultOk)
    assert "hunter2" in repr(reply)


def test_a_result_label_that_flows_to_the_output_leaves():
    # ⟨True, svc⟩: no secrecy, so it flows to a public output whatever it vouches for
    vouched = DCLabel(CNF_TRUE, cnf_from_principal("svc"))
    app = returning_program(lambda ctx, c, table: [c, ctx.label(DC_PUBLIC, 1)], label=vouched)
    reply = decode_message(app.dispatch(encode_call(0, [])))
    assert reply == ResultOk([LabeledValue(vouched, "hunter2"), LabeledValue(DC_PUBLIC, 1)])


INTERNAL_ERROR = ResultErr(ErrorCode.INTERNAL, "internal error")


def returning(value, **app_kwargs) -> App:
    return returning_program(lambda ctx, c, table: value, **app_kwargs)


@pytest.mark.parametrize("enforce", [True, False], ids=["ifc-on", "ifc-off"])
@pytest.mark.parametrize("kind", ["list", "labeled"])
@pytest.mark.parametrize("depth", [63, 64, 65, 66, 5000])
def test_a_result_nested_past_the_codec_bound_is_an_internal_error(depth, kind, enforce):
    # the client refuses nesting past 64; the enclave answers the opaque
    # error instead of a reply its caller must refuse, and a result 5000
    # deep raises no RecursionError, from the output gate's walk (ifc on)
    # or from the encoder (ifc off)
    value = nested(depth, kind)
    reply = decode_message(returning(value, ifc_enforce=enforce).dispatch(encode_call(0, [])))
    assert reply == (ResultOk(value) if depth <= 64 else INTERNAL_ERROR)


@pytest.mark.parametrize(
    "value",
    ["\ud800", [1, "\udfff"], 2**63, {"not": "a value"}],
    ids=["surrogate", "in-list", "i64", "dict"],
)
def test_a_result_the_codec_cannot_carry_is_an_internal_error(value):
    reply = decode_message(returning(value).dispatch(encode_call(0, [])))
    assert reply == INTERNAL_ERROR


def test_a_reply_too_long_to_seal_into_one_frame_is_an_internal_error():
    from enclaveflow.attest import MAX_MESSAGE

    sealer = Session(b"s" * 16, b"k" * 32, b"k" * 32)
    longest = returning(b"x" * (MAX_MESSAGE - 6)).dispatch(encode_call(0, []))  # tag, tag, u32
    assert len(longest) == MAX_MESSAGE and len(sealer.seal(longest)) == MAX_FRAME
    for size in (MAX_MESSAGE - 5, MAX_FRAME + 10):
        assert returning(b"x" * size).dispatch(encode_call(0, [])) == encode_result_err(
            ErrorCode.INTERNAL, "internal error"
        )


VOUCHED = DCLabel(CNF_TRUE, cnf_from_principal("svc"))
# a result and how many nodes it has: each is encoded once, by one walk
# that is also the output gate's
WALKED = {
    "True": (True, 1),
    "False": (False, 1),
    "None": (None, 1),
    "nested labeled": (
        [LabeledValue(DC_PUBLIC, [1, "a"]), [None, LabeledValue(VOUCHED, [b"x"])]], 10
    ),
}


@pytest.mark.parametrize("case", list(WALKED))
def test_a_bool_or_none_result_costs_no_walk(monkeypatch, case):
    value, nodes = WALKED[case]
    calls = []

    def counting(v, *rest):
        calls.append(v)
        return encode_value(v, *rest)  # the original, which recurses through this

    monkeypatch.setattr("enclaveflow.wire.encode_value", counting)
    reply = decode_message(returning(value).dispatch(encode_call(0, [])))
    assert reply == ResultOk(value)
    assert len(calls) == nodes


@pytest.mark.parametrize("depth", [1, 60, 64])
def test_a_label_that_may_not_leave_hides_its_contents_shape(depth):
    # an unprivileged function returns an svc-labeled value 3 lists deep;
    # the value's leaf sits 4 + depth deep in the result, past the codec
    # bound at depth 64, and a lone surrogate is a leaf the encoder refuses
    # (built without make_labeled, whose copy refuses it too).
    # The label is checked before either is met: every reply is the same.
    def reply(leaf) -> bytes:
        app = App(ENCLAVE_ROLE)
        stored = LabeledValue(SVC, nested(depth, leaf=leaf))
        app.enclave_fn(PLAIN, lambda ctx: [[[stored]]], (), name="give")
        app.freeze()
        return app.dispatch(encode_call(0, []))

    replies = {reply("ok"), reply("\ud800")}
    assert [decode_message(r) for r in replies] == [IFC_VIOLATION]


@pytest.mark.parametrize(
    "make_result, expected",
    [
        (lambda ctx, c, table: [2**63, c], INTERNAL_ERROR),
        (lambda ctx, c, table: [c, 2**63], IFC_VIOLATION),
    ],
    ids=["public-part-first", "label-first"],
)
def test_the_first_refusal_met_decides_the_reply(make_result, expected):
    # a result both uncodable and carrying a label that may not leave is
    # answered by what the encoder meets first, left to right; both answers
    # are fixed strings, and which is given depends only on public data
    reply = decode_message(returning_program(make_result).dispatch(encode_call(0, [])))
    assert reply == expected


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
        )
    assert exc.value.code == ErrorCode.IFC_VIOLATION
    assert exc.value.message == "information flow violation"


def refuse(ctx, a, b):
    raise ValueError("refused")


def count_gateway_channels(fn, send_fails: bool, per_call: bool):
    """Run a client that calls ``fn(1, 2)`` three times over counting
    channels: each call's outcome, and the channels opened, channels
    closed and messages sent."""
    outcomes: list = []
    opened: list[int] = []
    closed: list[int] = []
    sent: list[bytes] = []

    def program(app: App):
        ref = app.enclave_fn(PLAIN, fn, (int, int))

        def body(capp: App) -> None:
            for _ in range(3):
                try:
                    outcomes.append(capp.gateway(ref.apply(1).apply(2)))
                except (RemoteError, TransportError) as e:
                    outcomes.append(type(e).__name__)

        app.run_client("c", body)

    server = staged(ENCLAVE_ROLE, program)

    class CountingChannel(DirectChannel):
        def send_message(self, body: bytes) -> None:
            sent.append(body)
            if send_fails:
                raise TransportError("connection reset")
            super().send_message(body)

        def close(self) -> None:
            closed.append(1)

    def factory():
        opened.append(1)
        return CountingChannel(server.dispatch)

    run_app("c", program, gateway_factory=factory, per_call_channel=per_call)
    return outcomes, len(opened), len(closed), len(sent)


def test_per_call_channel_opens_one_channel_per_call():
    # However a call ends (a result, an error reply, a failed send), the
    # per-call path opens one channel for it and closes that one, and
    # nothing is sent twice.
    for fn, send_fails, outcome in (
        (add, False, 3),
        (refuse, False, "RemoteError"),
        (add, True, "TransportError"),
    ):
        assert count_gateway_channels(fn, send_fails, True) == ([outcome] * 3, 3, 3, 3)
    # session reuse; run_app closes the held channel
    assert count_gateway_channels(add, False, False) == ([3] * 3, 1, 1, 3)
    # the enclave answered: the session is kept
    assert count_gateway_channels(refuse, False, False) == (["RemoteError"] * 3, 1, 1, 3)
    # a dead session is dropped, so each call handshakes anew
    assert count_gateway_channels(add, True, False) == (["TransportError"] * 3, 3, 3, 3)


def test_gateway_drops_a_dead_session_and_the_next_call_handshakes_anew():
    def program(app: App):
        secret = app.labeled_constant(ALICE, 7)
        app.enclave_fn(PLAIN, add, (int, int))
        app.enclave_fn(PLAIN, lambda ctx: ctx.unlabel(secret), (), name="leaky")

    server = staged(ENCLAVE_ROLE, program)
    opened: list[int] = []
    closed: list[int] = []

    class TwoCallChannel(DirectChannel):
        """Answers two calls, then fails as a connection the peer closed."""

        answered = 0

        def send_message(self, body: bytes) -> None:
            if self.answered == 2:
                raise TransportError("connection closed mid-frame")
            self.answered += 1
            super().send_message(body)

        def close(self) -> None:
            closed.append(1)

    def factory():
        opened.append(1)
        return TwoCallChannel(server.dispatch)

    client = App("c", gateway_factory=factory)
    add_call = SecureRef(0, 2).apply(1).apply(2)
    assert client.gateway(add_call) == 3
    with pytest.raises(RemoteError):
        client.gateway(SecureRef(1, 0))  # the enclave answered: the session is kept
    assert (len(opened), len(closed)) == (1, 0)
    with pytest.raises(TransportError):
        client.gateway(add_call)  # the failing call still fails: nothing is resent
    assert (len(opened), len(closed)) == (1, 1)
    assert client.gateway(add_call) == 3
    assert client.gateway(add_call) == 3
    assert (len(opened), len(closed)) == (2, 1)
    client.close()
    assert len(closed) == 2


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

    server = run_app(ENCLAVE_ROLE, password_program({}))
    monitor = Monitor(
        "127.0.0.1",
        0,
        server.dispatch,
        measurement=server.measurement(b"cfg"),
        authority_private=authority,
        credentials=creds,
    )
    t = threading.Thread(target=monitor.serve_forever, daemon=True)
    t.start()
    try:
        expected = server.measurement(b"cfg")

        def factory():
            return connect_channel(
                "127.0.0.1",
                monitor.port,
                client_name="client",
                signing_key=client_key,
                expected_measurement=expected,
                authority_public=authority.public_key(),
            )

        run_app("client", password_program(results), gateway_factory=factory)
        assert results == {"right": True, "wrong": False}
    finally:
        monitor.stop()
        t.join()


def test_a_label_padded_with_clauses_is_refused_at_once_and_the_monitor_serves_on():
    # a CNF's canonical check compares every pair of clauses: 4000 of them
    # took seconds to decode, while one frame held the one-at-a-time monitor
    authority = gen_signing_key()
    keys = {name: gen_signing_key() for name in ("hostile", "good")}
    server = staged(
        ENCLAVE_ROLE, lambda app: app.enclave_fn(PLAIN, lambda ctx, lv: 1, (LabeledValue,))
    )
    monitor = Monitor(
        "127.0.0.1",
        0,
        server.dispatch,
        measurement=server.measurement(b""),
        authority_private=authority,
        credentials={name: key.public_key() for name, key in keys.items()},
    )
    t = threading.Thread(target=monitor.serve_forever, daemon=True)
    t.start()

    def connect(name: str):
        return connect_channel(
            "127.0.0.1",
            monitor.port,
            client_name=name,
            signing_key=keys[name],
            expected_measurement=server.measurement(b""),
            authority_public=authority.public_key(),
        )

    # ⟨4000 one-principal clauses, True⟩ by hand, since the encoder refuses
    # it: a u16 clause count, the sorted clauses, then True's empty CNF
    clauses = sorted(b"\x00\x01\x00\x05" + f"p{i:04}".encode() for i in range(4000))
    padded = (4000).to_bytes(2, "big") + b"".join(clauses) + b"\x00\x00"
    try:
        hostile = connect("hostile")
        request = encode_call_raw(0, [bytes([TAG_LABELED]) + padded + encode_value(1)])
        start = time.monotonic()
        hostile.send_message(request)
        reply = decode_message(hostile.recv_message())
        elapsed = time.monotonic() - start
        hostile.close()
        assert isinstance(reply, ResultErr) and reply.code == ErrorCode.DECODE_ERROR
        assert elapsed < 0.05
        good = connect("good")
        good.send_message(encode_call(0, [LabeledValue(ALICE, 1)]))
        assert decode_message(good.recv_message()) == ResultOk(1)
        good.close()
    finally:
        monitor.stop()
        t.join()


def test_an_oversized_reply_is_answered_and_the_session_serves_on():
    # a reply that cannot be sealed into one frame used to close the
    # connection with no error code, and the client's App dropped its session
    authority = gen_signing_key()
    key = gen_signing_key()
    server = staged(
        ENCLAVE_ROLE,
        lambda app: (
            app.enclave_fn(PLAIN, lambda ctx: b"x" * (MAX_FRAME + 10), (), name="huge"),
            app.enclave_fn(PLAIN, add, (int, int)),
        ),
    )
    monitor = Monitor(
        "127.0.0.1",
        0,
        server.dispatch,
        measurement=server.measurement(b""),
        authority_private=authority,
        credentials={"user": key.public_key()},
    )
    t = threading.Thread(target=monitor.serve_forever, daemon=True)
    t.start()
    opened: list[int] = []

    def factory():
        opened.append(1)
        return connect_channel(
            "127.0.0.1",
            monitor.port,
            client_name="user",
            signing_key=key,
            expected_measurement=server.measurement(b""),
            authority_public=authority.public_key(),
        )

    client = App("user", gateway_factory=factory)
    try:
        with pytest.raises(RemoteError) as caught:
            client.gateway(SecureRef(0, 0))
        assert (caught.value.code, caught.value.message) == (ErrorCode.INTERNAL, "internal error")
        assert client.gateway(SecureRef(1, 2).apply(2).apply(3)) == 5
        assert opened == [1]  # one session throughout
    finally:
        client.close()
        monitor.stop()
        t.join()


def blocks_of(message: bytes) -> int:
    """What sealing ``message`` costs its send key: ⌈n/16⌉ + 1 AES blocks."""
    return (len(message) + 31) // 16


@contextmanager
def serve_sized(monkeypatch, limit_in_calls, call: SecureRef, request_or_reply: str):
    """An App over a real Monitor serving ``size`` (0: the length of a bytes
    argument) and ``big`` (1: 200 bytes), with ``KEY_BLOCK_LIMIT`` set so
    that ``call``'s request or reply fits ``limit_in_calls`` times exactly.
    Yields the client, the dispatched requests and the handshakes opened."""
    authority = gen_signing_key()
    key = gen_signing_key()
    server = staged(
        ENCLAVE_ROLE,
        lambda app: (
            app.enclave_fn(PLAIN, lambda ctx, b: len(b), (bytes,), name="size"),
            app.enclave_fn(PLAIN, lambda ctx: bytes(200), (), name="big"),
        ),
    )
    request = encode_call_raw(call.call_id, call.args)
    blocks = blocks_of(request if request_or_reply == "request" else server.dispatch(request))
    monkeypatch.setattr("enclaveflow.attest.KEY_BLOCK_LIMIT", limit_in_calls * blocks)
    dispatched: list[bytes] = []

    def dispatch(req: bytes) -> bytes:
        dispatched.append(req)
        return server.dispatch(req)

    monitor = Monitor(
        "127.0.0.1",
        0,
        dispatch,
        measurement=server.measurement(b""),
        authority_private=authority,
        credentials={"user": key.public_key()},
    )
    t = threading.Thread(target=monitor.serve_forever, daemon=True)
    t.start()
    opened: list[int] = []

    def factory():
        opened.append(1)
        return connect_channel(
            "127.0.0.1",
            monitor.port,
            client_name="user",
            signing_key=key,
            expected_measurement=server.measurement(b""),
            authority_public=authority.public_key(),
        )

    client = App("user", gateway_factory=factory)
    try:
        yield client, dispatched, opened
    finally:
        client.close()
        monitor.stop()
        t.join()


def test_a_request_past_the_key_limit_is_refused_unsent_and_the_next_call_handshakes(
    monkeypatch,
):
    call = SecureRef(0, 1).apply(bytes(100))  # 8 blocks out, 2 back
    with serve_sized(monkeypatch, 2, call, "request") as (client, dispatched, opened):
        assert client.gateway(call) == 100
        assert client.gateway(call) == 100
        with pytest.raises(TransportError, match="session key exhausted"):
            client.gateway(call)
        assert len(dispatched) == 2 and opened == [1]  # nothing reached the enclave
        assert client.gateway(call) == 100
        assert len(dispatched) == 3 and opened == [1, 1]  # on a new handshake


def test_a_reply_past_the_key_limit_closes_the_connection_and_the_next_call_handshakes(
    monkeypatch,
):
    call = SecureRef(1, 0)  # 2 blocks out, 14 back
    with serve_sized(monkeypatch, 1, call, "reply") as (client, dispatched, opened):
        assert client.gateway(call) == bytes(200)
        with pytest.raises((TransportError, OSError)):
            client.gateway(call)  # dispatched, but its reply is never sealed
        assert len(dispatched) == 2 and opened == [1]
        assert client.gateway(call) == bytes(200)
        assert opened == [1, 1]


def test_idle_peer_gives_way_and_its_app_recovers(monkeypatch):
    # The monitor serves one connection at a time.  A held session that goes
    # idle past IDLE_TIMEOUT_S is closed, the client queued behind it is
    # served, and the idle client's next call fails once, after which its
    # App handshakes anew.
    idle_timeout = 0.3
    monkeypatch.setattr("enclaveflow.attest.IDLE_TIMEOUT_S", idle_timeout)
    authority = gen_signing_key()
    keys = {name: gen_signing_key() for name in ("idle", "other")}
    server = staged(ENCLAVE_ROLE, lambda app: app.enclave_fn(PLAIN, add, (int, int)))
    monitor = Monitor(
        "127.0.0.1",
        0,
        server.dispatch,
        measurement=server.measurement(b""),
        authority_private=authority,
        credentials={name: key.public_key() for name, key in keys.items()},
    )
    t = threading.Thread(target=monitor.serve_forever, daemon=True)
    t.start()
    opened: list[str] = []

    def client(name: str) -> App:
        def factory():
            opened.append(name)
            return connect_channel(
                "127.0.0.1",
                monitor.port,
                client_name=name,
                signing_key=keys[name],
                expected_measurement=server.measurement(b""),
                authority_public=authority.public_key(),
                timeout=idle_timeout + 3.0,
            )

        return App(name, gateway_factory=factory)

    call = SecureRef(0, 2).apply(1).apply(2)
    idle, other = client("idle"), client("other")
    try:
        assert idle.gateway(call) == 3
        assert other.gateway(call) == 3  # queued behind the idle session until it times out
        other.close()
        with pytest.raises((TransportError, OSError)):
            idle.gateway(call)  # its session died with the timeout
        assert idle.gateway(call) == 3
        assert idle.gateway(call) == 3
        assert opened == ["idle", "other", "idle"]
    finally:
        idle.close()
        other.close()
        monitor.stop()
        t.join()
