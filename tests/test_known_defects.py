"""The defect ledger: one test per reproduced defect that is not yet fixed.

Each test asserts the correct behaviour and is marked as a strict xfail
naming the ROADMAP item that tracks its defect, so every run shows the
defect as it stands.  A change that fixes one makes its test pass, which
the strict mark turns into a failure: that change drops the marker.
"""

from __future__ import annotations

import threading

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from enclaveflow.app import ENCLAVE_ROLE, App, SecureRef, run_app
from enclaveflow.attest import Monitor, connect_channel, gen_signing_key
from enclaveflow.cleanroom import CleanRoomConfig, build_cleanroom_program, provider_label
from enclaveflow.cli import build_password_program
from enclaveflow.errors import IFC_VIOLATION_MESSAGE, ErrorCode, RemoteError, StagingError
from enclaveflow.ifc import IfcContext, make_labeled
from enclaveflow.labels import EMPTY_PRIVILEGE, DCLabel, Privilege, cnf_from_principal
from enclaveflow.wire import ResultErr, decode_message, encode_call, encode_value

SVC = DCLabel(cnf_from_principal("svc"), cnf_from_principal("svc"))
IFC_REFUSAL = ResultErr(ErrorCode.IFC_VIOLATION, IFC_VIOLATION_MESSAGE)


@pytest.fixture
def serve():
    """``serve(enclave, names)`` runs an attested monitor over ``enclave``
    on a daemon thread, each of ``names`` provisioned with a signing key,
    and returns ``connect(name)``, an attested channel to it as ``name``."""
    monitors = []

    def start(enclave: App, names: list[str]):
        authority = gen_signing_key()
        keys = {name: gen_signing_key() for name in names}
        monitor = Monitor(
            "127.0.0.1",
            0,
            enclave.dispatch,
            measurement=enclave.measurement(b""),
            authority_private=authority,
            credentials={name: key.public_key() for name, key in keys.items()},
        )
        monitors.append(monitor)
        threading.Thread(target=monitor.serve_forever, daemon=True).start()

        def connect(name: str):
            return connect_channel(
                "127.0.0.1",
                monitor.port,
                client_name=name,
                signing_key=keys[name],
                expected_measurement=monitor.measurement,
                authority_public=authority.public_key(),
            )

        return connect

    yield start
    for monitor in monitors:
        monitor.stop()


# --- item 15: enclave code reads a secret without going through IfcContext -------------


def leak_is_refused(read) -> bool:
    """Whether an enclave function that returns ``read(stored, ref)``, for
    an ``svc``-labeled constant and ref holding "s3cr3t", is refused: at
    staging, or by dispatch with the fixed IFC violation."""

    def program(app: App) -> None:
        stored = app.labeled_constant(SVC, "s3cr3t")
        ref = app.labeled_ref(SVC, "s3cr3t")
        app.enclave_fn(IfcContext(EMPTY_PRIVILEGE), lambda ctx: read(stored, ref), (), name="peek")

    try:
        enclave = run_app(ENCLAVE_ROLE, program)
    except StagingError:
        return True
    return decode_message(enclave.dispatch(encode_call(0, []))) == IFC_REFUSAL


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15")
def test_enclave_code_cannot_read_a_labeled_constant_around_the_guards():
    assert leak_is_refused(lambda stored, ref: stored.value)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15")
def test_enclave_code_cannot_read_a_labeled_ref_around_the_guards():
    assert leak_is_refused(lambda stored, ref: ref.cell)


# --- item 6: the measurement binds no function body ------------------------------------


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6")
def test_two_programs_whose_checkpwd_bodies_differ_measure_differently():
    def returns_the_password(app: App) -> None:
        svc = Privilege.for_principal("svc")
        stored = app.labeled_constant(SVC, "password")

        def checkpwd(ctx: IfcContext, guess: str) -> str:
            return ctx.unlabel_p(ctx.get_privilege(), stored)

        app.enclave_fn(IfcContext(svc), checkpwd, (str,), name="checkpwd")
        app.run_client("user", lambda capp: None)

    real = run_app(ENCLAVE_ROLE, build_password_program("password"))
    other = run_app(ENCLAVE_ROLE, returns_the_password)
    assert real.call_table() == other.call_table()
    assert real.measurement(b"") != other.measurement(b"")


# --- item 21: a record's length tells the host the length of what it holds -------------


@pytest.mark.xfail(strict=True, reason="ROADMAP item 21")
def test_checkpwd_calls_with_guesses_of_different_lengths_seal_to_equal_lengths(serve):
    connect = serve(run_app(ENCLAVE_ROLE, build_password_program("password")), ["user"])
    channel = connect("user")
    sent = []  # the length of each record the host sees leave the client
    send = channel._send

    def spy(body: bytes) -> None:
        sent.append(len(body))
        send(body)

    channel._send = spy
    user = App("user", gateway_factory=lambda: channel)
    try:
        for guess in ("p", "password"):
            assert user.gateway(SecureRef(0, 1, (encode_value(guess),))) is (guess == "password")
    finally:
        user.close()
    assert len(sent) == 2 and sent[0] == sent[1], sent


# --- item 5: an uploader can claim another provider's integrity -------------------------


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
def test_a_provider_cannot_upload_a_row_vouched_for_by_the_other(serve):
    program = build_cleanroom_program(
        CleanRoomConfig(consumer_public=X25519PrivateKey.generate().public_key())
    )
    connect = serve(run_app(ENCLAVE_ROLE, program), ["P1", "P2", "C1"])
    forged = make_labeled(provider_label("P2"), ["alpha", 30])
    p1 = App("P1", gateway_factory=lambda: connect("P1"), per_call_channel=True)
    with pytest.raises(RemoteError) as refused:
        p1.gateway(SecureRef(0, 1, (encode_value(forged),)))
    assert (refused.value.code, refused.value.message) == (
        ErrorCode.IFC_VIOLATION,
        IFC_VIOLATION_MESSAGE,
    )
