"""Clean-room tests: rows, the PSI-mean query, envelopes, and the full app."""

from __future__ import annotations

import io
import random

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from enclaveflow.app import ENCLAVE_ROLE, App, DirectChannel, run_app
from enclaveflow.cleanroom import (
    CleanRoomConfig,
    Row,
    build_cleanroom_program,
    decrypt_result,
    encrypt_result,
    format_result,
    load_rows_csv,
    provider_label,
    psi_mean_age,
    row_from_value,
    row_to_value,
    unlabel_row,
)
from enclaveflow.errors import (
    CryptoError,
    DecodeError,
    ErrorCode,
    RemoteError,
    UsageError,
)
from enclaveflow.ifc import IfcContext, make_labeled
from enclaveflow.labels import (
    CNF_TRUE,
    DC_PUBLIC,
    DCLabel,
    EMPTY_PRIVILEGE,
    LabeledValue,
    Privilege,
    cnf,
    read_label,
)
from enclaveflow.wire import (
    ResultErr,
    ResultOk,
    decode_message,
    decode_value,
    encode_call,
)

P1 = Privilege.for_principal("P1")
P2 = Privilege.for_principal("P2")


# --- rows -------------------------------------------------------------------------


def test_row_validation():
    assert Row("alpha", 30).age == 30
    assert Row("x", 0).age == 0 and Row("x", 150).age == 150
    for strain, age in (("", 30), ("x", -1), ("x", 151), ("x", True)):
        with pytest.raises(UsageError):
            Row(strain, age)


def test_row_value_roundtrip():
    row = Row("omicron", 60)
    assert row_from_value(row_to_value(row)) == row


def test_row_from_value_rejects_bad_shapes():
    for bad in (["alpha"], ["alpha", 30, 1], "alpha", [30, "alpha"], ["alpha", True], ["alpha", 200], ["", 3]):
        with pytest.raises(DecodeError):
            row_from_value(bad)


def test_csv_loader(tmp_path):
    f = tmp_path / "rows.csv"
    f.write_text("alpha,30\n\n delta , 40 \nalpha,50\n")
    assert load_rows_csv(f) == [Row("alpha", 30), Row("delta", 40), Row("alpha", 50)]


def test_csv_loader_rejects_bad_lines(tmp_path):
    f = tmp_path / "rows.csv"
    for content in ("alpha;30\n", "alpha,thirty\n", "alpha,200\n"):
        f.write_text(content)
        with pytest.raises(UsageError):
            load_rows_csv(f)


# --- labels and provider extraction -----------------------------------------------------


def test_provider_label_shape():
    lab = provider_label("P1")
    assert lab.secrecy == cnf({"P1"}) and lab.integrity == cnf({"P1"})


def test_extract_org_name():
    # The clean room reads a row's owner off its secrecy as CNF.sole_principal.
    assert provider_label("P1").secrecy.sole_principal() == "P1"
    assert DC_PUBLIC.secrecy.sole_principal() is None
    assert DCLabel(cnf({"P1"}, {"P2"}), CNF_TRUE).secrecy.sole_principal() is None  # joint
    assert DCLabel(cnf({"P1", "P2"}), CNF_TRUE).secrecy.sole_principal() is None  # either


def test_unlabel_row_owned_labels_keep_context_public():
    for owner, label in (("P1", provider_label("P1")), ("P2", provider_label("P2"))):
        ctx = IfcContext(EMPTY_PRIVILEGE)
        lrow = make_labeled(label, ["alpha", 30])
        assert unlabel_row(ctx, P1, P2, lrow) == Row("alpha", 30)
        assert ctx.current == DC_PUBLIC, owner
        assert ctx.output_gate()


def test_unlabel_row_foreign_labels_float():
    joint = DCLabel(cnf({"P1"}, {"P2"}), CNF_TRUE)
    stranger = provider_label("P3")
    for label in (joint, stranger):
        ctx = IfcContext(EMPTY_PRIVILEGE)
        unlabel_row(ctx, P1, P2, make_labeled(label, ["alpha", 30]))
        assert not ctx.output_gate(), label


# --- the query function ---------------------------------------------------------------


def oracle_psi(rows_a: list[Row], rows_b: list[Row]) -> list[tuple[str, float]]:
    """Independent recomputation: single-pass sum/count accumulation."""
    common = {r.strain for r in rows_a} & {r.strain for r in rows_b}
    totals: dict[str, list[int]] = {}
    for r in rows_a + rows_b:
        if r.strain in common:
            bucket = totals.setdefault(r.strain, [0, 0])
            bucket[0] += r.age
            bucket[1] += 1
    return [(s, totals[s][0] / totals[s][1]) for s in sorted(common)]


def tag(owner: str, rows: list[Row]) -> list[tuple[str, Row]]:
    return [(owner, r) for r in rows]


def test_psi_pinned_example():
    rows_a = [Row("alpha", 30), Row("delta", 40), Row("alpha", 50)]
    rows_b = [Row("alpha", 20), Row("omicron", 60)]
    got = psi_mean_age(tag("P1", rows_a) + tag("P2", rows_b), "P1", "P2")
    assert len(got) == 1
    strain, mean = got[0]
    assert strain == "alpha"
    assert abs(mean - 100 / 3) < 1e-9


def test_psi_disjoint_is_empty():
    got = psi_mean_age(
        tag("P1", [Row("alpha", 1)]) + tag("P2", [Row("beta", 2)]), "P1", "P2"
    )
    assert got == []


def test_psi_two_point_mean():
    got = psi_mean_age(
        tag("P1", [Row("s", 31)]) + tag("P2", [Row("s", 40)]), "P1", "P2"
    )
    assert got == [("s", 35.5)]


def test_psi_ignores_untagged_rows():
    rows = tag("P1", [Row("s", 10)]) + tag("P2", [Row("s", 20)])
    rows.append((None, Row("s", 140)))  # floated row: never aggregated
    assert psi_mean_age(rows, "P1", "P2") == [("s", 15.0)]


def test_psi_matches_oracle_randomized():
    rng = random.Random(555)
    strains = ["alpha", "beta", "delta", "gamma", "omicron", "sigma"]
    for _ in range(200):
        rows_a = [Row(rng.choice(strains), rng.randint(0, 150)) for _ in range(rng.randint(0, 10))]
        rows_b = [Row(rng.choice(strains), rng.randint(0, 150)) for _ in range(rng.randint(0, 10))]
        got = psi_mean_age(tag("P1", rows_a) + tag("P2", rows_b), "P1", "P2")
        want = oracle_psi(rows_a, rows_b)
        assert [s for s, _ in got] == [s for s, _ in want]
        assert all(abs(g - w) < 1e-9 for (_, g), (_, w) in zip(got, want))
        assert [s for s, _ in got] == sorted({s for s, _ in got})


# --- envelopes ------------------------------------------------------------------------


def test_envelope_roundtrip():
    key = X25519PrivateKey.generate()
    for m in (b"", b"x", b"hello" * 100):
        assert decrypt_result(key, encrypt_result(key.public_key(), m)) == m


def test_envelope_wrong_key_fails():
    right, wrong = X25519PrivateKey.generate(), X25519PrivateKey.generate()
    env = encrypt_result(right.public_key(), b"secret table")
    with pytest.raises(CryptoError):
        decrypt_result(wrong, env)


def test_envelope_tamper_fails():
    key = X25519PrivateKey.generate()
    env = bytearray(encrypt_result(key.public_key(), b"secret table"))
    rng = random.Random(3)
    for _ in range(10):
        tampered = bytearray(env)
        tampered[rng.randrange(len(env))] ^= 1 << rng.randrange(8)
        with pytest.raises(CryptoError):
            decrypt_result(key, bytes(tampered))
    with pytest.raises(CryptoError):
        decrypt_result(key, b"short")


def test_format_result():
    assert format_result([("alpha", 100 / 3), ("z", 2.0)]) == "alpha\t33.3333\nz\t2.0000\n"


# --- the full application -----------------------------------------------------------------


def cleanroom_enclave(consumer_pub, thresholds=None) -> App:
    cfg = CleanRoomConfig(consumer_public=consumer_pub, thresholds=thresholds or {})
    app = App(ENCLAVE_ROLE)
    build_cleanroom_program(cfg)(app)
    app.freeze()
    return app


def send_row(enclave: App, owner: str, strain: str, age: int, label=None):
    lv = make_labeled(label if label is not None else provider_label(owner), [strain, age])
    return decode_message(enclave.dispatch(encode_call(0, [lv])))


def query(enclave: App):
    return decode_message(enclave.dispatch(encode_call(1, [])))


def test_call_table_and_role_agreement():
    cfg = CleanRoomConfig()
    tables = {}
    for role in (ENCLAVE_ROLE, "P1", "P2", "C1"):
        app = App(role, gateway_factory=lambda: None)
        # bodies must not run during this staging check: give clients no files
        if role == ENCLAVE_ROLE:
            build_cleanroom_program(CleanRoomConfig(consumer_public=None))(app)
            tables[role] = app.call_table()
            continue
        try:
            build_cleanroom_program(cfg)(app)
        except UsageError:
            pass  # body ran and found no config: registration already done
        tables[role] = app.call_table()
    expect = [(0, "datasend"), (1, "runquery")]
    assert all(t == expect for t in tables.values()), tables


def test_end_to_end_five_rows(tmp_path):
    consumer = X25519PrivateKey.generate()
    enclave = cleanroom_enclave(consumer.public_key())

    (tmp_path / "p1.csv").write_text("alpha,30\ndelta,40\nalpha,50\n")
    (tmp_path / "p2.csv").write_text("alpha,20\nomicron,60\n")
    captured: list = []
    out = io.StringIO()

    def role_cfg(**kw):
        return CleanRoomConfig(
            data_files={"P1": str(tmp_path / "p1.csv"), "P2": str(tmp_path / "p2.csv")},
            consumer_private=consumer,
            out=out,
            on_result=captured.append,
            **kw,
        )

    for role in ("P1", "P2", "C1"):
        run_app(
            role,
            build_cleanroom_program(role_cfg()),
            gateway_factory=lambda: DirectChannel(enclave.dispatch),
            serve=False,
        )

    assert len(captured) == 1
    (strain, mean), = captured[0]
    assert strain == "alpha" and abs(mean - 100 / 3) < 1e-9
    assert out.getvalue() == "alpha\t33.3333\n"


def test_end_to_end_hashes_no_labeled_value(monkeypatch, tmp_path):
    # A LabeledValue holding a list is unhashable, so nothing may hash one.
    def refuse(self):
        raise AssertionError("a LabeledValue was hashed")

    monkeypatch.setattr(LabeledValue, "__hash__", refuse)
    with pytest.raises(AssertionError):
        hash(make_labeled(DC_PUBLIC, 1))
    test_end_to_end_five_rows(tmp_path)


def test_end_to_end_randomized_against_oracle():
    rng = random.Random(777)
    strains = ["alpha", "beta", "delta", "gamma", "omicron"]
    for _ in range(100):
        consumer = X25519PrivateKey.generate()
        enclave = cleanroom_enclave(consumer.public_key())
        rows_a = [Row(rng.choice(strains), rng.randint(0, 150)) for _ in range(rng.randint(1, 8))]
        rows_b = [Row(rng.choice(strains), rng.randint(0, 150)) for _ in range(rng.randint(1, 8))]
        for r in rows_a:
            assert send_row(enclave, "P1", r.strain, r.age) == ResultOk(None)
        for r in rows_b:
            assert send_row(enclave, "P2", r.strain, r.age) == ResultOk(None)
        reply = query(enclave)
        assert isinstance(reply, ResultOk)
        table = decode_value(decrypt_result(consumer, reply.value))
        got = [(s, m) for s, m in table]
        want = oracle_psi(rows_a, rows_b)
        assert [s for s, _ in got] == [s for s, _ in want]
        assert all(abs(g - w) < 1e-9 for (_, g), (_, w) in zip(got, want))


def test_upload_reads_only_its_own_label(monkeypatch):
    # Counted, not timed: an upload decodes its own frame's label and none
    # of the stored table, so the 200th upload costs what the 1st did.
    calls = 0

    def counting_read_label(buf, pos):
        nonlocal calls
        calls += 1
        return read_label(buf, pos)

    monkeypatch.setattr("enclaveflow.wire.read_label", counting_read_label)
    enclave = cleanroom_enclave(X25519PrivateKey.generate().public_key())
    per_upload = []
    for i in range(200):
        before = calls
        assert send_row(enclave, ("P1", "P2")[i % 2], "alpha", i % 150) == ResultOk(None)
        per_upload.append(calls - before)
    assert per_upload[0] == per_upload[-1] == 1


def test_end_to_end_large_against_oracle():
    rng = random.Random(4242)
    strains = [f"strain{i}" for i in range(40)]
    consumer = X25519PrivateKey.generate()
    enclave = cleanroom_enclave(consumer.public_key())
    rows_a = [Row(rng.choice(strains[:30]), rng.randint(0, 150)) for _ in range(5000)]
    rows_b = [Row(rng.choice(strains[10:]), rng.randint(0, 150)) for _ in range(5000)]
    for owner, rows in (("P1", rows_a), ("P2", rows_b)):
        for r in rows:
            assert send_row(enclave, owner, r.strain, r.age) == ResultOk(None)
    reply = query(enclave)
    assert isinstance(reply, ResultOk)
    got = [(s, m) for s, m in decode_value(decrypt_result(consumer, reply.value))]
    want = oracle_psi(rows_a, rows_b)
    assert len(want) == 20
    assert [s for s, _ in got] == [s for s, _ in want]
    assert all(abs(g - w) < 1e-9 for (_, g), (_, w) in zip(got, want))


def test_float_up_blocks_query():
    consumer = X25519PrivateKey.generate()
    enclave = cleanroom_enclave(consumer.public_key())
    send_row(enclave, "P1", "alpha", 30)
    send_row(enclave, "P2", "alpha", 40)
    joint = DCLabel(cnf({"P1"}, {"P2"}), CNF_TRUE)
    assert send_row(enclave, "P1", "alpha", 50, label=joint) == ResultOk(None)
    reply = query(enclave)
    assert reply == ResultErr(ErrorCode.IFC_VIOLATION, "information flow violation")


def test_stranger_label_blocks_query():
    consumer = X25519PrivateKey.generate()
    enclave = cleanroom_enclave(consumer.public_key())
    send_row(enclave, "P1", "alpha", 30)
    send_row(enclave, "P2", "alpha", 40)
    send_row(enclave, "P3", "alpha", 50)  # P3's clause has no matching privilege
    reply = query(enclave)
    assert isinstance(reply, ResultErr) and reply.code == ErrorCode.IFC_VIOLATION


def test_malformed_row_payload_is_decode_error():
    consumer = X25519PrivateKey.generate()
    enclave = cleanroom_enclave(consumer.public_key())
    bad = make_labeled(provider_label("P1"), ["alpha"])  # missing age
    reply = decode_message(enclave.dispatch(encode_call(0, [bad])))
    assert isinstance(reply, ResultErr) and reply.code == ErrorCode.DECODE_ERROR


def test_readiness_gate():
    consumer = X25519PrivateKey.generate()
    enclave = cleanroom_enclave(consumer.public_key(), thresholds={"P1": 2, "P2": 1})
    assert query(enclave) == ResultErr(ErrorCode.INTERNAL, "NOT_READY")
    send_row(enclave, "P1", "alpha", 30)
    send_row(enclave, "P2", "alpha", 40)
    assert query(enclave) == ResultErr(ErrorCode.INTERNAL, "NOT_READY")  # P1 has 1 < 2
    send_row(enclave, "P1", "alpha", 50)
    assert isinstance(query(enclave), ResultOk)


def test_empty_database_is_not_ready():
    consumer = X25519PrivateKey.generate()
    enclave = cleanroom_enclave(consumer.public_key())
    assert query(enclave) == ResultErr(ErrorCode.INTERNAL, "NOT_READY")


def test_provider_cannot_decrypt_result():
    consumer = X25519PrivateKey.generate()
    p1_exchange_key = X25519PrivateKey.generate()  # P1's own key, not C1's
    enclave = cleanroom_enclave(consumer.public_key())
    send_row(enclave, "P1", "alpha", 30)
    send_row(enclave, "P2", "alpha", 40)
    reply = query(enclave)  # closed world: any registered party may ask
    assert isinstance(reply, ResultOk)
    with pytest.raises(CryptoError):
        decrypt_result(p1_exchange_key, reply.value)
    assert decode_value(decrypt_result(consumer, reply.value)) == [["alpha", 35.0]]


def test_no_plaintext_rows_in_dispatch_outputs():
    consumer = X25519PrivateKey.generate()
    enclave = cleanroom_enclave(consumer.public_key())
    responses: list[bytes] = []

    def sniffed(request: bytes) -> bytes:
        response = enclave.dispatch(request)
        responses.append(response)
        return response

    for owner, strain, age in (("P1", "zanzibarstrain", 31), ("P2", "zanzibarstrain", 44)):
        sniffed(encode_call(0, [make_labeled(provider_label(owner), [strain, age])]))
    reply = decode_message(sniffed(encode_call(1, [])))
    assert isinstance(reply, ResultOk)
    for response in responses:
        assert b"zanzibarstrain" not in response


def test_privileges_live_only_in_the_query_closure():
    consumer = X25519PrivateKey.generate()
    enclave = cleanroom_enclave(consumer.public_key())
    for entry in enclave._entries:  # white-box: templates carry no authority
        assert entry.template.privilege == EMPTY_PRIVILEGE
