"""CLI tests: config parsing, provisioning, exit codes, bench CSV, attacks,
and the two demo apps driven through real subprocesses."""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from enclaveflow.app import ENCLAVE_ROLE, App, DirectChannel
from enclaveflow.attest import (
    load_exchange_private,
    load_signing_private,
    private_raw,
    save_key_hex,
)
from enclaveflow.cli import (
    RunConfig,
    build_parser,
    build_password_program,
    build_leaky_program,
    main,
    _build_program,
    _code_version,
    _load_config,
    _measurement_config_bytes,
)
from enclaveflow.errors import UsageError
from enclaveflow.labels import can_flow_to, cnf_implies, cnf_reduce, downgrade, join
from enclaveflow.tools import BENCH_CONFIGS, _probe_measurement
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
        {"code_version": "v" * 70_000},  # its length must fit the measurement's u16
        {"port": "7000"},  # bind would raise TypeError
        {"providers": "P1"},  # a string of two characters is no list of two names
        {"ifc": 1},  # a bool field takes no int
        {"port": True},  # nor an int field a bool
        {"thresholds": {"P1": "2"}},
        {"client_keys": {"P1": 7}},
        # a lone surrogate is a JSON string but no UTF-8 text, wherever it sits
        {"code_version": "\ud800"},
        {"providers": ["P\ud800", "P2"]},
        {"client_keys": {"\ud800": "k"}},
    ):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(UsageError):
            RunConfig.from_file(p)


@pytest.mark.parametrize(
    "thresholds", [{"p1": 100}, {"P1": -1}], ids=["not-a-provider", "negative"]
)
def test_a_threshold_no_provider_can_meet_is_a_usage_error(tmp_path, capsys, thresholds):
    # runquery reads a threshold by provider name, so a mistyped key would
    # leave P1 at the default of one row without a word
    with pytest.raises(UsageError, match="^config key thresholds:"):
        RunConfig(app="cleanroom", thresholds=thresholds).validate()
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"app": "cleanroom", "thresholds": thresholds}))
    assert main(["enclave", "--config", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: config key thresholds:")


@pytest.mark.parametrize("name", ["", "P\x00"], ids=["empty", "nul"])
def test_a_provider_name_the_labels_refuse_is_a_usage_error(tmp_path, capsys, name):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"app": "cleanroom", "providers": [name, "P2"]}))
    with pytest.raises(UsageError, match="^config key providers: principal name must"):
        RunConfig.from_file(p)
    assert main(["client", "--role", "P2", "--config", str(p), "--port", "7999"]) == 2
    assert capsys.readouterr().err.startswith("error: config key providers:")


def test_flag_coherence_rejected_by_config_validation(capsys):
    # RunConfig.validate is the one place that requires attestation for
    # client signatures, for flags and config keys alike
    assert main(["enclave", "--no-attestation"]) == 2
    assert "client signatures require attestation" in capsys.readouterr().err


def test_flags_complete_a_config_before_it_is_validated(tmp_path):
    # the file alone is incoherent; with --no-client-sig the run is not
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"attestation": False}))
    cfg = _load_config(build_parser().parse_args(["enclave", "--config", str(p), "--no-client-sig"]))
    assert not cfg.attestation and not cfg.client_sig


def test_a_config_file_that_turns_off_attestation_alone_is_refused(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"attestation": False}))
    assert main(["enclave", "--config", str(p)]) == 2
    assert "client signatures require attestation" in capsys.readouterr().err


def test_a_config_string_with_no_utf8_encoding_is_a_usage_error(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"code_version": "\ud800"}))
    argv = ["enclave", "--config", str(p), "--no-attestation", "--no-client-sig"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_each_run_flag_is_named_for_the_config_field_it_sets():
    fields = vars(RunConfig()).keys()
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for parser in (sub.choices["enclave"], sub.choices["client"]):
        dests = {
            a.dest
            for a in parser._actions
            if a.option_strings and a.dest not in ("help", "config", "role")
        }
        assert dests and dests <= fields, dests


@pytest.mark.parametrize(
    "flags, overridden",
    [
        (["--app", "attack-demo"], {"app": "attack-demo"}),
        (["--port", "0"], {"port": 0}),
        (["--no-ifc"], {"ifc": False}),
        (["--no-attestation", "--no-client-sig"], {"attestation": False, "client_sig": False}),
    ],
)
def test_a_run_flag_overrides_the_config_key_it_names(tmp_path, flags, overridden):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"app": "cleanroom", "port": 7200, "ifc": True, "attestation": True}))
    from_file = vars(RunConfig.from_file(p))
    # a flag not given leaves the file's value
    assert vars(_load_config(build_parser().parse_args(["enclave", "--config", str(p)]))) == from_file
    for command in (["enclave"], ["client", "--role", "user"]):
        args = build_parser().parse_args([*command, "--config", str(p), *flags])
        assert vars(_load_config(args)) == {**from_file, **overridden}


def test_missing_config_file_is_usage_error(capsys):
    assert main(["enclave", "--config", "/does/not/exist.json"]) == 2


def test_client_requires_concrete_port(tmp_path, capsys):
    assert main(["client", "--role", "user", "--port", "0"]) == 2


def test_an_attested_client_without_authority_public_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # no config at all, in an empty directory: nothing names the authority key
    monkeypatch.chdir(tmp_path)
    assert main(["client", "--role", "user", "--port", "7999"]) == 2
    assert "authority_public" in capsys.readouterr().err


def test_measurement_probe_is_config_sensitive():
    a = _probe_measurement(RunConfig(app="password-checker"))
    b = _probe_measurement(RunConfig(app="attack-demo"))
    c = _probe_measurement(RunConfig(app="cleanroom"))
    d = _probe_measurement(RunConfig(app="cleanroom", thresholds={"P1": 3}))
    assert len({a, b, c, d}) == 4
    assert _probe_measurement(RunConfig(app="cleanroom")) == c  # deterministic


def test_code_version_config_key_changes_the_measurement(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"code_version": "pwd-0.2"}))
    assert _probe_measurement(RunConfig.from_file(p)) != _probe_measurement(RunConfig())
    # the default version, named explicitly, attests as the default
    assert _probe_measurement(RunConfig(code_version="pwd-0.1")) == _probe_measurement(RunConfig())


@pytest.mark.parametrize("flag, refused", [([], False), (["--per-call-handshake"], True)])
def test_per_call_handshake_flag_reaches_run_app(monkeypatch, flag, refused):
    # the flag is gone: a client holds one channel, and the flag is refused
    seen = {}

    def fake_run_app(role, program, **kwargs):
        seen.update(kwargs, role=role)

    monkeypatch.setattr("enclaveflow.tools.run_app", fake_run_app)
    argv = ["client", "--role", "user", "--port", "7000", "--no-attestation", "--no-client-sig"]
    if refused:
        with pytest.raises(SystemExit) as exc:
            main(argv + flag)
        assert exc.value.code == 2 and not seen
    else:
        assert main(argv + flag) == 0
        assert seen["role"] == "user" and "per_call_channel" not in seen


@pytest.mark.parametrize("port", ["70000", "65536", "-1"])
def test_a_port_outside_the_u16_range_is_a_usage_error(port, capsys):
    argv = ["enclave", "--port", port, "--no-attestation", "--no-client-sig"]
    assert main(argv) == 2
    assert "port must be in 0-65535" in capsys.readouterr().err


def test_measurement_config_bytes_is_canonical():
    one = _measurement_config_bytes(RunConfig(app="cleanroom", thresholds={"P2": 1, "P1": 2}))
    two = _measurement_config_bytes(RunConfig(app="cleanroom", thresholds={"P1": 2, "P2": 1}))
    assert one == two


@pytest.mark.parametrize("app", ["password-checker", "cleanroom"])
def test_measurement_binds_the_ifc_and_client_sig_guards(app):
    # an enclave serving without a guard must not attest as one that runs it
    base = _probe_measurement(RunConfig(app=app))
    assert _probe_measurement(RunConfig(app=app, ifc=False)) != base
    assert _probe_measurement(RunConfig(app=app, client_sig=False)) != base


# --- provisioning -----------------------------------------------------------------


def test_provision_writes_cleanroom_keyset(tmp_path, capsys):
    out = tmp_path / "keys"
    assert main(["provision", "--out", str(out), "--clients", "P1,P2,C1"]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 10
    assert "authority_private.hex" in files and "C1_exchange_public.hex" in files
    printed = capsys.readouterr().out
    assert "authority:" in printed and "C1 exchange:" in printed
    assert printed.endswith(f"10 key files in {out}\n")
    # the written private keys actually load
    key = load_signing_private(out / "P1_signing_private.hex")
    key.public_key().verify(key.sign(b"check"), b"check")
    load_exchange_private(out / "C1_exchange_private.hex")


def test_provision_prints_the_sha256_fingerprint_of_each_public_key(tmp_path, capsys):
    out = tmp_path / "keys"
    assert main(["provision", "--out", str(out), "--clients", "user", "--exchange", "C1"]) == 0
    printed = capsys.readouterr().out.splitlines()
    for label, stem in (
        ("authority", "authority"),
        ("user signing", "user_signing"),
        ("C1 exchange", "C1_exchange"),
    ):
        pub = bytes.fromhex((out / f"{stem}_public.hex").read_text())
        assert f"{label}: {hashlib.sha256(pub).hexdigest()[:16]}" in printed


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


def test_provision_writes_private_keys_for_their_owner_only(tmp_path, capsys):
    out = tmp_path / "keys"
    argv = ["provision", "--out", str(out), "--clients", "user", "--exchange", "C1"]

    def modes() -> dict[str, int]:
        return {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}

    umask = os.umask(0o022)
    try:
        assert main(argv) == 0
        first = modes()
        for path in out.iterdir():  # as a copy or an older provision left them
            path.chmod(0o644)
        assert main([*argv, "--force"]) == 0
        again = modes()
    finally:
        os.umask(umask)
    for written in (first, again):
        assert len(written) == 6
        for name, mode in written.items():
            assert mode == (0o600 if name.endswith("_private.hex") else 0o644), name


@pytest.mark.parametrize(
    "flag, names",
    [
        ("--clients", "user,user"),
        ("--clients", "user, P1 ,user"),
        ("--exchange", "C1,C1"),
        ("--clients", "../escaped"),
        ("--clients", "a/b"),
        ("--clients", "."),
        ("--exchange", ".."),
        ("--exchange", "C\x00"),
    ],
    ids=["repeated", "repeated-spaced", "repeated-exchange", "parent", "nested", "dot", "dotdot"]
    + ["nul"],
)
def test_provision_refuses_a_repeated_name_or_one_that_is_no_file_name(
    tmp_path, capsys, flag, names
):
    # each name becomes key file names: a repeat overwrote the first key, and
    # a path wrote outside --out or failed after the authority key was written
    out = tmp_path / "keys"
    assert main(["provision", "--out", str(out), flag, names]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}")
    assert list(tmp_path.rglob("*")) == []


# (config key, app, the command that loads it)
KEY_LOADERS = [
    ("authority_private", "password-checker", ["enclave", "--port", "0"]),
    ("client_keys", "password-checker", ["enclave", "--port", "0"]),
    ("authority_public", "password-checker", ["client", "--role", "user", "--port", "7999"]),
    ("signing_keys", "password-checker", ["client", "--role", "user", "--port", "7999"]),
    ("consumer_public_key", "cleanroom", ["enclave", "--port", "0"]),
    ("consumer_private_key", "cleanroom", ["client", "--role", "C1", "--port", "7999"]),
]


@pytest.mark.parametrize("key, app, command", KEY_LOADERS, ids=[k for k, _, _ in KEY_LOADERS])
@pytest.mark.parametrize(
    "content", [None, b"not a hex key\n", b"\xff\xfe\n"], ids=["missing", "not-hex", "not-text"]
)
def test_a_bad_key_file_is_a_usage_error_naming_its_config_key(
    tmp_path, capsys, key, app, command, content
):
    keys = tmp_path / "keys"
    assert main(["provision", "--out", str(keys), "--clients", "user,C1", "--exchange", "C1"]) == 0
    cfg = {
        "app": app,
        "authority_private": str(keys / "authority_private.hex"),
        "authority_public": str(keys / "authority_public.hex"),
        "client_keys": {n: str(keys / f"{n}_signing_public.hex") for n in ("user", "C1")},
        "signing_keys": {n: str(keys / f"{n}_signing_private.hex") for n in ("user", "C1")},
        "consumer_public_key": str(keys / "C1_exchange_public.hex"),
        "consumer_private_key": str(keys / "C1_exchange_private.hex"),
    }
    bad = tmp_path / "bad.hex"
    if content is not None:
        bad.write_bytes(content)
    cfg[key] = {n: str(bad) for n in cfg[key]} if isinstance(cfg[key], dict) else str(bad)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main([*command, "--config", str(path)]) == 2
    assert f"config key {key}: " in capsys.readouterr().err


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


def test_warm_checkpwd_checks_no_implication(monkeypatch):
    # Counted, not timed: once the first call has filled the label caches,
    # every flow check of a call is answered from can_flow_to's cache.
    calls = 0

    def counting_cnf_implies(a, b):
        nonlocal calls
        calls += 1
        return cnf_implies(a, b)

    monkeypatch.setattr("enclaveflow.labels.cnf_implies", counting_cnf_implies)
    for fn in (join, downgrade, can_flow_to):
        fn.cache_clear()
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


# --- enclave-only values stay in the enclave -------------------------------------------

# each bundled app with every client role it declares
CLIENT_ROLES = [
    ("password-checker", "user"),
    ("attack-demo", "user"),
    ("cleanroom", "P1"),
    ("cleanroom", "P2"),
    ("cleanroom", "C1"),
]


class Unreached(Exception):
    """Raised by the staged client's first gateway call, which ends its body."""


def reachable(*roots) -> list:
    """Every object reachable from ``roots`` through ``gc.get_referents``.
    The walk enters the package's own module namespaces, where a cache
    could keep a value, and no other module."""
    modules = [m for m in list(sys.modules.values()) if isinstance(m, type(sys))]
    skip = {id(m) for m in modules} | {
        id(vars(m)) for m in modules if not m.__name__.startswith("enclaveflow")
    }
    seen, todo, found = set(skip), list(roots), []
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        todo.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("app_name, role", CLIENT_ROLES)
def test_a_client_role_holds_no_enclave_only_value(tmp_path, monkeypatch, app_name, role):
    # every enclave-only field holds a unique marker; the client is staged
    # from the config file as `enclaveflow client` stages it, and runs its
    # body up to the first gateway call
    token = os.urandom(8).hex()
    consumer_key = tmp_path / "C1_exchange_private.hex"
    save_key_hex(consumer_key, private_raw(X25519PrivateKey.generate()))
    rows = tmp_path / "rows.csv"
    rows.write_text("alpha,30\n")
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "app": app_name,
                "authority_private": f"authority_private-{token}",
                "client_keys": {f"client_keys-name-{token}": f"client_keys-path-{token}"},
                "consumer_public_key": f"consumer_public_key-{token}",
                "password": f"password-{token}",
                "consumer_private_key": str(consumer_key),
                "data_files": {"P1": str(rows), "P2": str(rows)},
            }
        )
    )
    monkeypatch.setattr("sys.stdin", io.StringIO("guess\n"))

    def unreached():
        raise Unreached

    cfg = _load_config(build_parser().parse_args(["client", "--role", role, "--config", str(config)]))
    program = _build_program(cfg, role)
    app = App(role, code_version=_code_version(cfg), gateway_factory=unreached)
    with pytest.raises(Unreached):
        program(app)
    app.freeze()
    # nor does _build_program give a client role a value from a whole config
    unscrubbed = _build_program(RunConfig.from_file(config), role)
    leaks = [
        obj
        for obj in reachable(app, program, cfg, unscrubbed)
        if isinstance(obj, str) and token in obj
        or isinstance(obj, (bytes, bytearray)) and token.encode() in obj
    ]
    assert leaks == []


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


def spawn_enclave(config: Path, *extra: str, **popen) -> tuple[subprocess.Popen, int, str]:
    proc = subprocess.Popen(
        PYTHON + ["enclave", "--config", str(config), "--port", "0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        **popen,
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


def test_enclave_exits_cleanly_on_sigint(tmp_path):
    config = tmp_path / "plain.json"
    config.write_text(json.dumps({"app": "password-checker"}))
    proc, _, _ = spawn_enclave(config, "--no-attestation", "--no-client-sig")
    try:
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_enclave_exits_cleanly_on_sigint_when_started_with_it_ignored(tmp_path):
    # a non-interactive shell starts its background jobs with SIGINT ignored
    config = tmp_path / "plain.json"
    config.write_text(json.dumps({"app": "password-checker"}))
    proc, _, _ = spawn_enclave(
        config,
        "--no-attestation",
        "--no-client-sig",
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=5) == 0
    finally:
        proc.kill()
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


def test_bench_times_each_sample_as_one_gateway_call(monkeypatch, capsys):
    calls = []
    real = App.gateway

    def counting(self, s):
        calls.append(s)
        return real(self, s)

    monkeypatch.setattr(App, "gateway", counting)
    assert main(["bench", "--iterations", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "config,mean_ms,stddev_ms,samples"
    assert [line.split(",")[0] for line in lines[1:]] == [label for label, *_ in BENCH_CONFIGS]
    assert all(line.endswith(",2") for line in lines[1:])
    assert len(calls) == len(BENCH_CONFIGS) * (3 + 2)  # three warm-up rounds


def test_bench_signs_only_where_the_enclave_verifies(monkeypatch, capsys):
    import enclaveflow.tools as tools

    seen = set()
    real = tools.connect_channel

    def spy(host, port, **kw):
        seen.add((kw["attested"], kw["signing_key"] is not None))
        return real(host, port, **kw)

    monkeypatch.setattr(tools, "connect_channel", spy)
    assert main(["bench", "--iterations", "1"]) == 0
    # plain rows, attested rows without client signatures, the signed row
    assert seen == {(False, False), (True, False), (True, True)}


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


# --- the enclave's image: only the modules it runs ---------------------------------------

# stdlib digests load the system libcrypto beside cryptography's; statistics
# is the bench's; serialization pulls in RSA, EC, DSA and the OID tables
NOT_IN_ANY_ENCLAVE = {
    "_hashlib",
    "hashlib",
    "hmac",
    "statistics",
    "cryptography.hazmat.primitives.serialization",
    "dataclasses",
    "inspect",
    # every key comes from attest's one HKDF helper
    "cryptography.hazmat.primitives.kdf",
    "cryptography.hazmat.primitives.kdf.hkdf",
}

# the enclave command as the bench and the installed script start it, up to
# ENCLAVE LISTENING; then it prints the modules it holds instead of serving
ENCLAVE_MODULES = """
import sys
from enclaveflow import cli
from enclaveflow.attest import Monitor

Monitor.serve_forever = lambda monitor: print("\\n".join(sorted(sys.modules)))
sys.exit(cli.main(["enclave", "--config", sys.argv[1], "--port", "0"]))
"""


@pytest.mark.parametrize("app", ["password-checker", "attack-demo", "cleanroom"])
def test_a_staged_enclave_loads_only_the_modules_it_runs(tmp_path, capsys, app):
    assert main(["provision", "--out", str(tmp_path), "--clients", "", "--exchange", "C1"]) == 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "app": app,
        "authority_private": str(tmp_path / "authority_private.hex"),
        "consumer_public_key": str(tmp_path / "C1_exchange_public.hex"),
    }))
    proc = subprocess.run(
        [sys.executable, "-c", ENCLAVE_MODULES, str(config)],
        capture_output=True,
        timeout=60,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr.decode()
    announcement, *modules = proc.stdout.decode().splitlines()
    assert announcement.startswith("ENCLAVE LISTENING ")
    loaded = set(modules)
    assert {"enclaveflow.attest", "enclaveflow.cli"} <= loaded
    assert loaded & NOT_IN_ANY_ENCLAVE == set()
    # the client tools stay out of every enclave
    assert "enclaveflow.tools" not in loaded
    # a password checker never even compiles the clean room
    assert ("enclaveflow.cleanroom" in loaded) == (app == "cleanroom")
