"""CLI tests: config parsing, provisioning, exit codes, bench CSV, attacks,
and the two demo apps driven through real subprocesses."""

from __future__ import annotations

import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from enclaveflow.app import ENCLAVE_ROLE, App, DirectChannel
from enclaveflow.attest import load_exchange_private, load_signing_private
from enclaveflow.cli import (
    BENCH_CONFIGS,
    RunConfig,
    build_password_program,
    build_leaky_program,
    main,
    _measurement_config_bytes,
    _probe_measurement,
)
from enclaveflow.errors import UsageError
from enclaveflow.labels import cnf_reduce, downgrade, join
from enclaveflow.wire import ResultOk, decode_message, encode_call

PYTHON = [sys.executable, "-m", "enclaveflow.cli"]


# --- configuration ---------------------------------------------------------------


def test_config_from_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"app": "cleanroom", "port": 7200, "thresholds": {"P1": 2}}))
    cfg = RunConfig.from_file(p)
    assert cfg.app == "cleanroom" and cfg.port == 7200 and cfg.thresholds == {"P1": 2}
    assert cfg.ifc and cfg.attestation and cfg.client_sig  # defaults


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"app": "cleanroom", "pasword": "oops"}))
    with pytest.raises(UsageError):
        RunConfig.from_file(p)


def test_config_rejects_bad_values(tmp_path):
    for raw in (
        {"app": "wordle"},
        {"attestation": False},  # leaves client_sig on
        {"providers": ["P1"]},
    ):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(UsageError):
            RunConfig.from_file(p)


def test_flag_coherence_rejected_at_parse_time(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enclave", "--no-attestation"])
    assert exc.value.code == 2
    assert "--no-client-sig" in capsys.readouterr().err


def test_missing_config_file_is_usage_error(capsys):
    assert main(["enclave", "--config", "/does/not/exist.json"]) == 2


def test_client_requires_concrete_port(tmp_path, capsys):
    assert main(["client", "--role", "user", "--port", "0"]) == 2


def test_measurement_probe_is_config_sensitive():
    a = _probe_measurement(RunConfig(app="password-checker"))
    b = _probe_measurement(RunConfig(app="attack-demo"))
    c = _probe_measurement(RunConfig(app="cleanroom"))
    d = _probe_measurement(RunConfig(app="cleanroom", thresholds={"P1": 3}))
    assert len({a, b, c, d}) == 4
    assert _probe_measurement(RunConfig(app="cleanroom")) == c  # deterministic


def test_measurement_config_bytes_is_canonical():
    one = _measurement_config_bytes(RunConfig(app="cleanroom", thresholds={"P2": 1, "P1": 2}))
    two = _measurement_config_bytes(RunConfig(app="cleanroom", thresholds={"P1": 2, "P2": 1}))
    assert one == two


# --- provisioning -----------------------------------------------------------------


def test_provision_writes_cleanroom_keyset(tmp_path, capsys):
    out = tmp_path / "keys"
    assert main(["provision", "--out", str(out), "--clients", "P1,P2,C1"]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 10
    assert "authority_private.hex" in files and "C1_exchange_public.hex" in files
    printed = capsys.readouterr().out
    assert "authority:" in printed and "C1 exchange:" in printed
    # the written private keys actually load
    key = load_signing_private(out / "P1_signing_private.hex")
    key.public_key().verify(key.sign(b"check"), b"check")
    load_exchange_private(out / "C1_exchange_private.hex")


def test_provision_refuses_overwrite(tmp_path, capsys):
    out = tmp_path / "keys"
    assert main(["provision", "--out", str(out), "--clients", "user", "--exchange", ""]) == 0
    first = (out / "authority_public.hex").read_text()
    assert main(["provision", "--out", str(out), "--clients", "user", "--exchange", ""]) == 2
    assert (out / "authority_public.hex").read_text() == first
    assert (
        main(["provision", "--out", str(out), "--clients", "user", "--exchange", "", "--force"])
        == 0
    )
    assert (out / "authority_public.hex").read_text() != first


# --- the demo programs in-process ---------------------------------------------------


def password_enclave(secret: str = "password") -> App:
    app = App(ENCLAVE_ROLE)
    build_password_program(secret)(app)
    app.freeze()
    return app


def test_password_program_right_and_wrong_guess():
    enclave = password_enclave()
    for guess, verdict in (("password", "True"), ("hunter2", "False")):
        out = io.StringIO()
        app = App("user", gateway_factory=lambda: DirectChannel(enclave.dispatch))
        build_password_program(
            "password", out=out, guess_source=io.StringIO(guess + "\n")
        )(app)
        assert out.getvalue() == f"Login returned {verdict}\n"


def test_warm_checkpwd_reduces_no_cnf(monkeypatch):
    # Counted, not timed: checkpwd's label algebra is the same every call,
    # so once the first call has filled the label caches no call reduces a CNF.
    calls = 0

    def counting_cnf_reduce(a):
        nonlocal calls
        calls += 1
        return cnf_reduce(a)

    monkeypatch.setattr("enclaveflow.labels.cnf_reduce", counting_cnf_reduce)
    join.cache_clear()
    downgrade.cache_clear()
    enclave = password_enclave()
    request = encode_call(0, ["password"])
    per_call = []
    for _ in range(200):
        before = calls
        assert decode_message(enclave.dispatch(request)) == ResultOk(True)
        per_call.append(calls - before)
    assert per_call[0] > 0
    assert per_call[1:] == [0] * 199


def test_leaky_program_is_blocked_in_process():
    from enclaveflow.errors import ErrorCode, RemoteError

    enclave = App(ENCLAVE_ROLE)
    build_leaky_program()(enclave)
    enclave.freeze()
    app = App("user", gateway_factory=lambda: DirectChannel(enclave.dispatch))
    with pytest.raises(RemoteError) as exc:
        build_leaky_program()(app)  # the user body runs inline and calls leak()
    assert exc.value.code == ErrorCode.IFC_VIOLATION


# --- subprocess harness ----------------------------------------------------------------


def write_password_setup(tmp_path: Path) -> Path:
    keys = tmp_path / "keys"
    assert main(["provision", "--out", str(keys), "--clients", "user", "--exchange", ""]) == 0
    cfg = {
        "app": "password-checker",
        "authority_private": str(keys / "authority_private.hex"),
        "authority_public": str(keys / "authority_public.hex"),
        "client_keys": {"user": str(keys / "user_signing_public.hex")},
        "signing_keys": {"user": str(keys / "user_signing_private.hex")},
    }
    path = tmp_path / "pwd.json"
    path.write_text(json.dumps(cfg))
    return path


def spawn_enclave(config: Path, *extra: str) -> tuple[subprocess.Popen, int, str]:
    proc = subprocess.Popen(
        PYTHON + ["enclave", "--config", str(config), "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 15
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline().decode()
        break
    parts = line.split()
    assert len(parts) == 5 and parts[:2] == ["ENCLAVE", "LISTENING"], line
    return proc, int(parts[3]), parts[4]


def run_client(config: Path, role: str, *extra: str, stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        PYTHON + ["client", "--role", role, "--config", str(config), *extra],
        input=stdin.encode(),
        capture_output=True,
        timeout=30,
    )


def test_password_checker_over_the_wire(tmp_path):
    config = write_password_setup(tmp_path)
    proc, port, measurement = spawn_enclave(config)
    try:
        right = run_client(config, "user", "--port", str(port), stdin="password\n")
        assert right.returncode == 0 and right.stdout == b"Login returned True\n"
        wrong = run_client(config, "user", "--port", str(port), stdin="hunter2\n")
        assert wrong.returncode == 0 and wrong.stdout == b"Login returned False\n"

        bad = json.loads(config.read_text())
        bad["expected_measurement"] = "0" * 64
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        aborted = run_client(bad_path, "user", "--port", str(port), stdin="password\n")
        assert aborted.returncode == 3
        assert b"Login returned" not in aborted.stdout
        assert b"measurement-mismatch" in aborted.stderr
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_password_checker_unattested_over_the_wire(tmp_path):
    config = tmp_path / "plain.json"
    config.write_text(json.dumps({"app": "password-checker"}))
    plain = ("--no-attestation", "--no-client-sig")
    proc, port, _ = spawn_enclave(config, "--no-ifc", *plain)
    try:
        result = run_client(config, "user", "--port", str(port), *plain, stdin="password\n")
        assert result.returncode == 0, result.stderr
        assert result.stdout == b"Login returned True\n"
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_client_exit_code_on_dead_enclave(tmp_path):
    config = write_password_setup(tmp_path)
    # port 1 is never listening
    result = run_client(config, "user", "--port", "1", stdin="password\n")
    assert result.returncode == 6


def test_leak_attempt_exit_code_over_the_wire(tmp_path):
    config = write_password_setup(tmp_path)
    leak_cfg = json.loads(config.read_text())
    leak_cfg["app"] = "attack-demo"
    leak_path = tmp_path / "leak.json"
    leak_path.write_text(json.dumps(leak_cfg))
    proc, port, _ = spawn_enclave(leak_path)
    try:
        result = run_client(leak_path, "user", "--port", str(port))
        assert result.returncode == 5
        assert b"information flow violation" in result.stderr
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_cleanroom_over_the_wire(tmp_path):
    keys = tmp_path / "keys"
    assert main(["provision", "--out", str(keys), "--clients", "P1,P2,C1"]) == 0
    (tmp_path / "p1.csv").write_text("alpha,30\ndelta,40\nalpha,50\n")
    (tmp_path / "p2.csv").write_text("alpha,20\nomicron,60\n")
    cfg = {
        "app": "cleanroom",
        "authority_private": str(keys / "authority_private.hex"),
        "authority_public": str(keys / "authority_public.hex"),
        "client_keys": {
            name: str(keys / f"{name}_signing_public.hex") for name in ("P1", "P2", "C1")
        },
        "signing_keys": {
            name: str(keys / f"{name}_signing_private.hex") for name in ("P1", "P2", "C1")
        },
        "consumer_public_key": str(keys / "C1_exchange_public.hex"),
        "consumer_private_key": str(keys / "C1_exchange_private.hex"),
        "data_files": {"P1": str(tmp_path / "p1.csv"), "P2": str(tmp_path / "p2.csv")},
    }
    config = tmp_path / "dcr.json"
    config.write_text(json.dumps(cfg))
    proc, port, _ = spawn_enclave(config)
    try:
        early = run_client(config, "C1", "--port", str(port))
        assert early.returncode == 1  # nothing uploaded yet: NOT_READY
        for role in ("P1", "P2"):
            done = run_client(config, role, "--port", str(port))
            assert done.returncode == 0, done.stderr
        result = run_client(config, "C1", "--port", str(port))
        assert result.returncode == 0, result.stderr
        assert result.stdout == b"alpha\t33.3333\n"
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


# --- bench and attack drivers -----------------------------------------------------------


def test_bench_csv_shape(capsys):
    assert main(["bench", "--iterations", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "config,mean_ms,stddev_ms,samples"
    assert len(lines) == 1 + len(BENCH_CONFIGS)
    labels = []
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        labels.append(cells[0])
        assert float(cells[1]) > 0 and float(cells[2]) >= 0
        assert cells[3] == "3"
    assert labels == [label for label, *_ in BENCH_CONFIGS]


def test_bench_rejects_bad_iterations(capsys):
    assert main(["bench", "--iterations", "0"]) == 2


def test_attack_suite_blocks_everything(capsys):
    assert main(["attack"]) == 0
    out = capsys.readouterr().out
    for name in ("tampered-record", "unknown-client", "leaky-function", "replayed-attest"):
        assert f"{name}: PASS" in out
    assert "4/4 attacks blocked" in out


def test_attack_control_experiment(capsys):
    assert main(["attack", "--no-client-sig"]) == 1
    out = capsys.readouterr().out
    assert "unknown-client: FAIL" in out
    assert "3/4 attacks blocked" in out
