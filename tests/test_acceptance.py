"""Acceptance gate: nine go/no-go criteria, one test each.

Every test prints a single ``[PASS] criterion N`` line (visible with
``pytest -rA`` or on failure) and asserts the criterion at its stated
tolerance.  Oracles live in label_oracle.py / test_cleanroom.py and are
written independently of the implementation they judge.
"""

from __future__ import annotations

import io
import random
import threading
import time

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from enclaveflow.app import ENCLAVE_ROLE, App, run_app
from enclaveflow.attest import Monitor, connect_channel, gen_signing_key
from enclaveflow.cleanroom import (
    CleanRoomConfig,
    Row,
    build_cleanroom_program,
    decrypt_result,
    provider_label,
)
from enclaveflow.cli import build_password_program, main as cli_main
from enclaveflow.errors import (
    IFC_VIOLATION_MESSAGE,
    AttestationFailure,
    CryptoError,
    DecodeError,
    ErrorCode,
)
from enclaveflow.labels import (
    CNF,
    CNF_FALSE,
    CNF_TRUE,
    DCLabel,
    Privilege,
    can_flow_to,
    can_flow_to_p,
    cnf,
    cnf_implies,
    downgrade,
    join,
    meet,
)
from enclaveflow.wire import (
    ResultErr,
    ResultOk,
    decode_message,
    decode_value,
    encode_call,
    encode_value,
)

from label_oracle import enumerate_canonical_cnfs, oracle_implies
from test_cleanroom import cleanroom_enclave, oracle_psi, query, send_row
from value_gen import random_value


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


# --- 1: implication against the truth-table oracle -----------------------------------


def test_criterion_1_cnf_implication_matches_oracle():
    t0 = time.monotonic()
    three = enumerate_canonical_cnfs(["Alice", "Bob", "Carol"])
    assert len(three) == 20
    checked = 0
    for a in three:
        for b in three:
            assert cnf_implies(a, b) == oracle_implies(a, b), (a, b)
            checked += 1

    rng = random.Random(20260816)
    names = ["A", "B", "C", "D"]

    def random_cnf4() -> CNF:
        if rng.random() < 0.05:
            return CNF_FALSE
        clauses = [
            frozenset(rng.sample(names, rng.randint(1, 4)))
            for _ in range(rng.randint(0, 3))
        ]
        return cnf(*clauses)

    for _ in range(10_000):
        a, b = random_cnf4(), random_cnf4()
        assert cnf_implies(a, b) == oracle_implies(a, b), (a, b)
        assert cnf_implies(b, a) == oracle_implies(b, a), (b, a)
        checked += 2
    elapsed = time.monotonic() - t0
    report(
        1,
        checked == 400 + 20_000 and elapsed < 60.0,
        f"{checked} implication checks match the truth-table oracle in {elapsed:.1f}s",
    )


# --- 2 and 3: lattice laws and the downgrade law ----------------------------------------


def two_principal_labels() -> list[DCLabel]:
    cnfs = enumerate_canonical_cnfs(["Alice", "Bob"])
    assert len(cnfs) == 6
    return [DCLabel(s, i) for s in cnfs for i in cnfs]


def test_criterion_2_lattice_laws_exhaustive():
    labels = two_principal_labels()
    assert len(labels) == 36
    for a in labels:
        assert can_flow_to(a, a)
        for b in labels:
            if can_flow_to(a, b) and can_flow_to(b, a):
                assert a == b, (a, b)
            j, m = join(a, b), meet(a, b)
            assert can_flow_to(a, j) and can_flow_to(b, j)
            assert can_flow_to(m, a) and can_flow_to(m, b)
            for c in labels:
                if can_flow_to(a, c) and can_flow_to(b, c):
                    assert can_flow_to(j, c), (a, b, c)  # least upper bound
                if can_flow_to(c, a) and can_flow_to(c, b):
                    assert can_flow_to(c, m), (a, b, c)  # greatest lower bound
                if can_flow_to(a, b) and can_flow_to(b, c):
                    assert can_flow_to(a, c), (a, b, c)  # transitivity
    report(2, True, "partial order + LUB/GLB over all 36 two-principal labels, 0 counterexamples")


def test_criterion_3_downgrade_law_exhaustive():
    labels = two_principal_labels()
    privileges = [Privilege(description=c) for c in enumerate_canonical_cnfs(["Alice", "Bob"])]
    checked = 0
    for p in privileges:
        for l1 in labels:
            d = downgrade(p, l1)
            for l2 in labels:
                assert can_flow_to_p(p, l1, l2) == can_flow_to(d, l2), (p, l1, l2)
                checked += 1
    report(3, checked == 6 * 36 * 36, f"downgrade law holds for all {checked} (p, l1, l2) triples")


# --- 4: password checker over the attested channel ------------------------------------


def test_criterion_4_password_checker_end_to_end():
    t0 = time.monotonic()
    authority = gen_signing_key()
    user_key = gen_signing_key()
    config_bytes = b"acceptance-pwd"
    enclave = run_app(ENCLAVE_ROLE, build_password_program("password"))
    monitor = Monitor(
        "127.0.0.1",
        0,
        enclave.dispatch,
        measurement=enclave.measurement(config_bytes),
        authority_private=authority,
        credentials={"user": user_key.public_key()},
    )
    dispatched: list[bytes] = []
    inner = monitor.dispatch

    def spy(request: bytes) -> bytes:
        dispatched.append(request)
        return inner(request)

    monitor.dispatch = spy
    threading.Thread(target=monitor.serve_forever, daemon=True).start()
    measurement = enclave.measurement(config_bytes)
    port = monitor.port

    def run_user(guess: str, expected: bytes) -> str:
        out = io.StringIO()
        run_app(
            "user",
            build_password_program(
                "password", out=out, guess_source=io.StringIO(guess + "\n")
            ),
            gateway_factory=lambda: connect_channel(
                "127.0.0.1",
                port,
                client_name="user",
                signing_key=user_key,
                expected_measurement=expected,
                authority_public=authority.public_key(),
            ),
        )
        return out.getvalue()

    try:
        right = run_user("password", measurement)
        wrong = run_user("hunter2", measurement)
        other = run_user("passw0rd", measurement)
        before = len(dispatched)
        with pytest.raises(AttestationFailure):
            run_user("password", bytes(32))  # wrong expected measurement
        quiet = len(dispatched) == before  # nothing reached dispatch
    finally:
        monitor.stop()
    elapsed = time.monotonic() - t0
    report(
        4,
        right == "Login returned True\n"
        and wrong == "Login returned False\n"
        and other == "Login returned False\n"
        and quiet
        and elapsed < 5.0,
        f"attested login True/False correct; wrong measurement aborted with "
        f"0 dispatched calls; {elapsed:.2f}s",
    )


# --- 5: the attack suite ------------------------------------------------------------


def test_criterion_5_attack_suite_blocks_all_four(capsys):
    code = cli_main(["attack"])
    out = capsys.readouterr().out
    names = ("tampered-record", "unknown-client", "leaky-function", "replayed-attest")
    all_pass = all(f"{name}: PASS" in out for name in names)
    fixed_string = f"output gate refused: '{IFC_VIOLATION_MESSAGE}'" in out
    report(
        5,
        code == 0 and "4/4 attacks blocked" in out and all_pass and fixed_string,
        "tampered record, unknown client, leaky function, replayed handshake all "
        "rejected; leak refused with the fixed error string",
    )


# --- 6 and 7: clean room ---------------------------------------------------------------


def test_criterion_6_cleanroom_correctness(tmp_path):
    # pinned 5-row dataset over the real attested channel
    consumer = X25519PrivateKey.generate()
    authority = gen_signing_key()
    keys = {name: gen_signing_key() for name in ("P1", "P2", "C1")}
    credentials = {name: k.public_key() for name, k in keys.items()}
    config_bytes = b"acceptance-dcr"
    (tmp_path / "p1.csv").write_text("alpha,30\ndelta,40\nalpha,50\n")
    (tmp_path / "p2.csv").write_text("alpha,20\nomicron,60\n")

    enclave = run_app(
        ENCLAVE_ROLE,
        build_cleanroom_program(CleanRoomConfig(consumer_public=consumer.public_key())),
    )
    monitor = Monitor(
        "127.0.0.1",
        0,
        enclave.dispatch,
        measurement=enclave.measurement(config_bytes),
        authority_private=authority,
        credentials=credentials,
    )
    threading.Thread(target=monitor.serve_forever, daemon=True).start()
    measurement = enclave.measurement(config_bytes)
    port = monitor.port

    captured: list[list[tuple[str, float]]] = []
    out = io.StringIO()
    try:
        for role in ("P1", "P2", "C1"):
            run_app(
                role,
                build_cleanroom_program(
                    CleanRoomConfig(
                        consumer_private=consumer,
                        data_files={
                            "P1": str(tmp_path / "p1.csv"),
                            "P2": str(tmp_path / "p2.csv"),
                        },
                        out=out,
                        on_result=captured.append,
                    )
                ),
                gateway_factory=lambda role=role: connect_channel(
                    "127.0.0.1",
                    port,
                    client_name=role,
                    signing_key=keys[role],
                    expected_measurement=measurement,
                    authority_public=authority.public_key(),
                ),
            )
    finally:
        monitor.stop()
    pinned_ok = (
        len(captured) == 1
        and len(captured[0]) == 1
        and captured[0][0][0] == "alpha"
        and abs(captured[0][0][1] - 100 / 3) < 1e-9
        and out.getvalue() == "alpha\t33.3333\n"
    )

    # 100 randomized datasets against the independent recomputation oracle
    rng = random.Random(616)
    strains = ["alpha", "beta", "delta", "gamma", "omicron"]
    randomized_ok = True
    for _ in range(100):
        c = X25519PrivateKey.generate()
        box = cleanroom_enclave(c.public_key())
        rows_a = [Row(rng.choice(strains), rng.randint(0, 150)) for _ in range(rng.randint(1, 8))]
        rows_b = [Row(rng.choice(strains), rng.randint(0, 150)) for _ in range(rng.randint(1, 8))]
        for r in rows_a:
            send_row(box, "P1", r.strain, r.age)
        for r in rows_b:
            send_row(box, "P2", r.strain, r.age)
        reply = query(box)
        table = decode_value(decrypt_result(c, reply.value))
        want = oracle_psi(rows_a, rows_b)
        randomized_ok = (
            randomized_ok
            and [s for s, _ in table] == [s for s, _ in want]
            and all(abs(g - w) < 1e-9 for (_, g), (_, w) in zip(table, want))
        )

    # P1 cannot decrypt the consumer's envelope
    p1_key = X25519PrivateKey.generate()
    box = cleanroom_enclave(consumer.public_key())
    send_row(box, "P1", "alpha", 30)
    send_row(box, "P2", "alpha", 40)
    envelope = query(box).value
    with pytest.raises(CryptoError):
        decrypt_result(p1_key, envelope)
    report(
        6,
        pinned_ok and randomized_ok,
        "5-row dataset yields (alpha, 33.3333) within 1e-9 over the attested channel; "
        "100 randomized datasets match the oracle; P1's key cannot open the envelope",
    )


def test_criterion_7_float_up_containment():
    consumer = X25519PrivateKey.generate()
    box = cleanroom_enclave(consumer.public_key())
    send_row(box, "P1", "alpha", 30)
    send_row(box, "P2", "alpha", 40)
    joint = DCLabel(cnf({"P1"}, {"P2"}), CNF_TRUE)
    accepted = send_row(box, "P1", "alpha", 50, label=joint) == ResultOk(None)
    reply = query(box)
    report(
        7,
        accepted and reply == ResultErr(ErrorCode.IFC_VIOLATION, IFC_VIOLATION_MESSAGE),
        "one jointly-labeled row floats the query context; run_query returns IFC_VIOLATION",
    )


# --- 8: benchmark shape ------------------------------------------------------------


def test_criterion_8_benchmark_shape(capsys):
    code = cli_main(["bench"])  # default 50 iterations per configuration
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    header_ok = lines[0] == "config,mean_ms,stddev_ms,samples"
    rows = {}
    shape_ok = len(lines) == 7
    for line in lines[1:]:
        cells = line.split(",")
        shape_ok = shape_ok and len(cells) == 4 and cells[3] == "50"
        rows[cells[0]] = float(cells[1])
    ordering_ok = (
        rows["attestation-on"] > rows["attestation-off"]
        and rows["client-sig-on"] >= rows["client-sig-off"]
    )

    # IFC on/off must produce byte-identical RESULT payloads
    on = App(ENCLAVE_ROLE, ifc_enforce=True)
    build_password_program("password")(on)
    on.freeze()
    off = App(ENCLAVE_ROLE, ifc_enforce=False)
    build_password_program("password")(off)
    off.freeze()
    request = encode_call(0, ["password"])
    payload_ok = on.dispatch(request) == off.dispatch(request)
    report(
        8,
        code == 0 and header_ok and shape_ok and ordering_ok and payload_ok,
        f"CSV 4 cols x 6 configs x 50 samples; RA {rows['attestation-on']:.3f}ms > "
        f"plain {rows['attestation-off']:.3f}ms; client-sig {rows['client-sig-on']:.3f}ms >= "
        f"{rows['client-sig-off']:.3f}ms; IFC on/off payloads identical",
    )


# --- 9: codec round-trips and fuzz ----------------------------------------------------


def test_criterion_9_codec_round_trips_and_fuzz():
    rng = random.Random(909)
    for _ in range(10_000):
        value = random_value(rng)
        encoded = encode_value(value)
        assert encode_value(decode_value(encoded)) == encoded  # byte-for-byte

    # malformed inputs: every strict-decode failure is DecodeError, never a crash,
    # and the dispatcher answers them with a well-formed DECODE_ERROR result
    box = App(ENCLAVE_ROLE)
    build_password_program("password")(box)
    box.freeze()
    corpus = [encode_value(random_value(rng)) for _ in range(50)]
    fuzz_cases = 0
    for encoded in corpus:
        for cut in range(len(encoded)):
            with pytest.raises(DecodeError):
                decode_value(encoded[:cut])
            fuzz_cases += 1
    for _ in range(2_000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 60)))
        try:
            decode_value(blob)
        except DecodeError:
            pass  # the only acceptable failure mode
        fuzz_cases += 1
        reply = decode_message(box.dispatch(blob))
        assert isinstance(reply, ResultErr) and reply.code in (
            ErrorCode.DECODE_ERROR,
            ErrorCode.UNKNOWN_CALL,
        )
    for encoded in corpus:
        for _ in range(20):
            blob = bytearray(encoded)
            blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
            try:
                decode_value(bytes(blob))
            except DecodeError:
                pass
            fuzz_cases += 1
    report(
        9,
        True,
        f"10000 values round-trip byte-for-byte; {fuzz_cases} malformed/mutated "
        "inputs fail only with DecodeError",
    )
