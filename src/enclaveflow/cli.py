"""Command-line front end: key provisioning, app launchers, a latency
bench, and scripted attack drills.

Subcommands
  provision  generate authority / client-signing / exchange keypairs
  enclave    serve an application's dispatch table behind the monitor
  client     run one client role of an application
  bench      latency table across channel and guard configurations (CSV)
  attack     adversarial scenarios that the stack must block

Exit codes: 0 ok, 1 internal error, 2 usage, 3 attestation failure,
4 authentication failure, 5 information-flow violation, 6 transport.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import socket
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, TextIO

from .app import ENCLAVE_ROLE, App, run_app
from .attest import (
    MSG_RECORD,
    MSG_SERVER_ATTEST,
    Monitor,
    connect_channel,
    gen_signing_key,
    load_exchange_private,
    load_exchange_public,
    load_signing_private,
    load_signing_public,
    private_raw,
    public_raw,
    recv_frame,
    save_key_hex,
    send_frame,
)
from .cleanroom import CleanRoomConfig, build_cleanroom_program
from .errors import (
    IFC_VIOLATION_MESSAGE,
    AttestationFailure,
    AuthFailure,
    CryptoError,
    EnclaveFlowError,
    ErrorCode,
    IfcViolation,
    RemoteError,
    StagingError,
    TransportError,
    UsageError,
)
from .ifc import IfcContext
from .labels import DCLabel, EMPTY_PRIVILEGE, Privilege, cnf_from_principal
from .wire import ResultErr, ResultOk, decode_message, encode_call

SERVICE_PRINCIPAL = "svc"
APPS = ("password-checker", "cleanroom", "attack-demo")

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_ATTESTATION = 3
EXIT_AUTH = 4
EXIT_IFC = 5
EXIT_TRANSPORT = 6


# --- run configuration ------------------------------------------------------------


@dataclass
class RunConfig:
    """Everything a run needs, merged from the JSON config file and flags.

    Key entries are file paths; each role loads only the files it needs,
    so one config can be shared by every party of a demo.
    """

    app: str = "password-checker"
    host: str = "127.0.0.1"
    port: int = 7000
    code_version: str = ""
    authority_private: str = ""
    authority_public: str = ""
    client_keys: dict[str, str] = field(default_factory=dict)  # name -> public key path
    signing_keys: dict[str, str] = field(default_factory=dict)  # name -> private key path
    expected_measurement: str = ""  # hex; computed from the staged program when empty
    providers: list[str] = field(default_factory=lambda: ["P1", "P2"])
    consumer: str = "C1"
    thresholds: dict[str, int] = field(default_factory=dict)
    data_files: dict[str, str] = field(default_factory=dict)
    consumer_public_key: str = ""
    consumer_private_key: str = ""
    password: str = "password"
    ifc: bool = True
    attestation: bool = True
    client_sig: bool = True
    per_call_handshake: bool = False

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            raise UsageError(f"cannot read config {path}: {e}") from e
        if not isinstance(raw, dict):
            raise UsageError(f"{path}: config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise UsageError(f"{path}: unknown config keys {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.app not in APPS:
            raise UsageError(f"app must be one of {', '.join(APPS)}")
        if len(self.providers) != 2:
            raise UsageError("exactly two providers are supported")
        if not self.attestation and self.client_sig:
            raise UsageError(
                "client signatures require attestation; disable both or neither"
            )


def _overlay_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "app", None):
        cfg.app = args.app
    if getattr(args, "port", None) is not None:
        cfg.port = args.port
    if getattr(args, "no_ifc", False):
        cfg.ifc = False
    if getattr(args, "no_attestation", False):
        cfg.attestation = False
    if getattr(args, "no_client_sig", False):
        cfg.client_sig = False
    if getattr(args, "per_call_handshake", False):
        cfg.per_call_handshake = True
    cfg.validate()
    return cfg


def _load_config(args: argparse.Namespace) -> RunConfig:
    base = (
        RunConfig.from_file(args.config)
        if getattr(args, "config", None)
        else RunConfig()
    )
    return _overlay_flags(base, args)


def _code_version(cfg: RunConfig) -> str:
    if cfg.code_version:
        return cfg.code_version
    return {"password-checker": "pwd-0.1", "cleanroom": "dcr-0.1", "attack-demo": "leak-0.1"}[cfg.app]


def _measurement_config_bytes(cfg: RunConfig) -> bytes:
    """The config facts the measurement binds: anything both sides must
    agree on beyond the call table itself."""
    subset: dict = {"app": cfg.app}
    if cfg.app == "cleanroom":
        subset.update(
            providers=cfg.providers, consumer=cfg.consumer, thresholds=cfg.thresholds
        )
    return json.dumps(subset, sort_keys=True, separators=(",", ":")).encode()


# --- bundled applications ------------------------------------------------------------


def build_password_program(
    secret: str, *, out: TextIO | None = None, guess_source: TextIO | None = None
) -> Callable[[App], None]:
    """The login service: the enclave holds the password under the service
    principal's label, and checkpwd declassifies exactly one bit."""

    def program(app: App) -> None:
        svc = Privilege.for_principal(SERVICE_PRINCIPAL)
        once = cnf_from_principal(SERVICE_PRINCIPAL)
        stored = app.labeled_constant(DCLabel(once, once), secret)
        template = IfcContext(svc)

        def checkpwd(ctx: IfcContext, guess: str) -> bool:
            pwd = ctx.unlabel_p(ctx.get_privilege(), stored)
            return pwd == guess

        check_ref = app.enclave_fn(template, checkpwd, (str,), name="checkpwd")

        def user_body(capp: App) -> None:
            src = guess_source if guess_source is not None else sys.stdin
            guess = src.readline().rstrip("\n")
            ok = capp.gateway(check_ref.apply(guess))
            stream = out if out is not None else sys.stdout
            stream.write(f"Login returned {ok}\n")
            stream.flush()

        app.run_client("user", user_body)

    return program


def build_leaky_program(secret: str = "s3cr3t-token") -> Callable[[App], None]:
    """A deliberately buggy service: leak() unlabels the secret WITHOUT the
    owning privilege and returns it.  The context floats up and the output
    gate must refuse the response — this program exists for the attack
    drill, not for use."""

    def program(app: App) -> None:
        once = cnf_from_principal(SERVICE_PRINCIPAL)
        stored = app.labeled_constant(DCLabel(once, once), secret)
        template = IfcContext(EMPTY_PRIVILEGE)

        def leak(ctx: IfcContext) -> str:
            return ctx.unlabel(stored)

        leak_ref = app.enclave_fn(template, leak, (), name="leak")

        def user_body(capp: App) -> None:
            print(capp.gateway(leak_ref))

        app.run_client("user", user_body)

    return program


def _cleanroom_config(cfg: RunConfig, role: str) -> CleanRoomConfig:
    consumer_public = None
    consumer_private = None
    if role == ENCLAVE_ROLE:
        if not cfg.consumer_public_key:
            raise UsageError("cleanroom enclave needs consumer_public_key in the config")
        consumer_public = load_exchange_public(cfg.consumer_public_key)
    if role == cfg.consumer:
        if not cfg.consumer_private_key:
            raise UsageError(f"{role} needs consumer_private_key in the config")
        consumer_private = load_exchange_private(cfg.consumer_private_key)
    return CleanRoomConfig(
        provider_a=cfg.providers[0],
        provider_b=cfg.providers[1],
        consumer=cfg.consumer,
        thresholds=dict(cfg.thresholds),
        consumer_public=consumer_public,
        consumer_private=consumer_private,
        data_files=dict(cfg.data_files),
    )


def _build_program(cfg: RunConfig, role: str) -> Callable[[App], None]:
    if cfg.app == "password-checker":
        return build_password_program(cfg.password)
    if cfg.app == "cleanroom":
        return build_cleanroom_program(_cleanroom_config(cfg, role))
    return build_leaky_program()


def _probe_measurement(cfg: RunConfig) -> bytes:
    """Stage the program under a role that matches nobody: same call table,
    no bodies run, no key material touched."""
    app = App("__probe__", code_version=_code_version(cfg))
    _build_program(cfg, "__probe__")(app)
    app.freeze()
    return app.measurement(_measurement_config_bytes(cfg))


def _expected_measurement(cfg: RunConfig) -> bytes:
    if cfg.expected_measurement:
        try:
            raw = bytes.fromhex(cfg.expected_measurement)
        except ValueError as e:
            raise UsageError("expected_measurement must be hex") from e
        if len(raw) != 32:
            raise UsageError("expected_measurement must be 32 bytes of hex")
        return raw
    return _probe_measurement(cfg)


# --- provision ------------------------------------------------------------------------


def _split_names(spec: str) -> list[str]:
    return [n.strip() for n in spec.split(",") if n.strip()]


def cmd_provision(args: argparse.Namespace) -> int:
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

    def signing_key():
        key = gen_signing_key()
        key.public_key().verify(key.sign(b"self-test"), b"self-test")
        return key

    # (printed label, file stem, key generator), in generation order
    pairs = [("authority", "authority", signing_key)]
    pairs += [(f"{n} signing", f"{n}_signing", signing_key) for n in _split_names(args.clients)]
    pairs += [
        (f"{n} exchange", f"{n}_exchange", X25519PrivateKey.generate)
        for n in _split_names(args.exchange)
    ]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    targets = [
        (out / f"{stem}_private.hex", out / f"{stem}_public.hex") for _, stem, _ in pairs
    ]
    existing = [path for pair in targets for path in pair if path.exists()]
    if existing and not args.force:
        raise UsageError(
            f"refusing to overwrite {existing[0]} (and {len(existing) - 1} more); use --force"
        )

    for (label, _, generate), (priv_path, pub_path) in zip(pairs, targets):
        key = generate()
        save_key_hex(priv_path, private_raw(key))
        pub = public_raw(key.public_key())
        save_key_hex(pub_path, pub)
        print(f"{label}: {hashlib.sha256(pub).hexdigest()[:16]}")
    print(f"{2 * len(targets)} key files in {out}")
    return EXIT_OK


# --- enclave and client launchers ----------------------------------------------------


def _stage_enclave(cfg: RunConfig, authority_private, credentials) -> Monitor:
    """Stage ``cfg``'s enclave and bind its monitor, not yet serving."""
    return run_app(
        ENCLAVE_ROLE,
        _build_program(cfg, ENCLAVE_ROLE),
        code_version=_code_version(cfg),
        config_bytes=_measurement_config_bytes(cfg),
        host=cfg.host,
        port=cfg.port,
        authority_private=authority_private,
        credentials=credentials,
        attested=cfg.attestation,
        verify_client=cfg.client_sig,
        ifc_enforce=cfg.ifc,
        serve=False,
    ).monitor


def cmd_enclave(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    authority_private = None
    credentials = {}
    if cfg.attestation:
        if not cfg.authority_private:
            raise UsageError("attested serving needs authority_private in the config")
        authority_private = load_signing_private(cfg.authority_private)
        credentials = {
            name: load_signing_public(path) for name, path in cfg.client_keys.items()
        }

    monitor = _stage_enclave(cfg, authority_private, credentials)
    print(
        f"ENCLAVE LISTENING {monitor.host} {monitor.port} {monitor.measurement.hex()}",
        flush=True,
    )
    try:
        monitor.serve_forever()
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def _gateway_factory(cfg: RunConfig, role: str) -> Callable[[], object]:
    """A connector to ``cfg``'s enclave as ``role``, with everything bound."""
    expected = _expected_measurement(cfg) if cfg.attestation else b""
    authority_public = (
        load_signing_public(cfg.authority_public) if cfg.attestation else None
    )
    signing_key = None
    if cfg.attestation and cfg.client_sig:
        path = cfg.signing_keys.get(role)
        if not path:
            raise UsageError(f"no signing key configured for role {role!r}")
        signing_key = load_signing_private(path)

    return functools.partial(
        connect_channel,
        cfg.host,
        cfg.port,
        attested=cfg.attestation,
        client_name=role,
        signing_key=signing_key,
        expected_measurement=expected,
        authority_public=authority_public,
    )


def cmd_client(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    if cfg.port == 0:
        raise UsageError("client needs the enclave's concrete port")
    run_app(
        args.role,
        _build_program(cfg, args.role),
        code_version=_code_version(cfg),
        config_bytes=_measurement_config_bytes(cfg),
        gateway_factory=_gateway_factory(cfg, args.role),
        per_call_channel=cfg.per_call_handshake,
        serve=False,
    )
    return EXIT_OK


# --- bench ---------------------------------------------------------------------------

# Three comparison groups: IFC guards over a plain channel, the attested
# channel against the plain baseline, and client signatures within the
# attested group.  Every attested config redoes the handshake per call, so
# the table prices the handshake itself, not a warm session.
BENCH_CONFIGS: list[tuple[str, bool, bool, bool]] = [
    # (label, attested, client_sig, ifc)
    ("ifc-off", False, False, False),
    ("ifc-on", False, False, True),
    ("attestation-off", False, False, True),
    ("attestation-on", True, False, True),
    ("client-sig-off", True, False, True),
    ("client-sig-on", True, True, True),
]


def cmd_bench(args: argparse.Namespace) -> int:
    if args.iterations < 1:
        raise UsageError("iterations must be >= 1")
    cfg = RunConfig(app="password-checker", port=0)
    authority = gen_signing_key()
    user_key = gen_signing_key()
    credentials = {"user": user_key.public_key()}
    request = encode_call(0, [cfg.password])

    def one_call(label: str, connect) -> tuple[float, bytes]:
        t0 = time.perf_counter()
        channel = connect()
        try:
            channel.send_message(request)
            raw = channel.recv_message()
        finally:
            channel.close()
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        if decode_message(raw) != ResultOk(True):
            raise TransportError(f"{label}: unexpected bench reply")
        return elapsed_ms, raw

    monitors = []
    connects = {}
    try:
        for label, attested, client_sig, ifc in BENCH_CONFIGS:
            row = replace(cfg, attestation=attested, client_sig=client_sig, ifc=ifc)
            monitor = _serve_inprocess(row, authority, credentials)
            monitors.append(monitor)
            connects[label] = functools.partial(
                connect_channel,
                row.host,
                monitor.port,
                attested=row.attestation,
                client_name="user",
                signing_key=user_key if row.client_sig else None,
                expected_measurement=monitor.measurement,
                authority_public=authority.public_key(),
            )

        # Round-robin: one call per config per round, so drift in machine
        # speed lands on every config alike.  Each round's order is a seeded
        # shuffle, because a plain call right after an attested one reads
        # slower and a fixed order would charge that to one config.  The
        # first rounds warm the stack.
        warmup = 3
        samples: dict[str, list[float]] = {label: [] for label, *_ in BENCH_CONFIGS}
        payloads: dict[str, bytes] = {}
        for round_no in range(warmup + args.iterations):
            for label in random.Random(round_no).sample(list(connects), len(connects)):
                elapsed_ms, payloads[label] = one_call(label, connects[label])
                if round_no >= warmup:
                    samples[label].append(elapsed_ms)
    finally:
        for monitor in monitors:
            monitor.stop()
    if payloads["ifc-on"] != payloads["ifc-off"]:
        raise TransportError("ifc-on and ifc-off produced different result payloads")

    print("config,mean_ms,stddev_ms,samples")
    for label, *_ in BENCH_CONFIGS:
        runs = samples[label]
        stddev = statistics.stdev(runs) if len(runs) > 1 else 0.0
        print(f"{label},{statistics.fmean(runs):.3f},{stddev:.3f},{len(runs)}")
    return EXIT_OK


# --- attack drills ---------------------------------------------------------------------


def _serve_inprocess(cfg: RunConfig, authority_private, credentials) -> Monitor:
    """Stage and serve ``cfg``'s enclave on a daemon thread of this process."""
    monitor = _stage_enclave(cfg, authority_private, credentials)
    threading.Thread(target=monitor.serve_forever, daemon=True).start()
    return monitor


def _one_shot_proxy(
    host: str, port: int, s2c_transform: Callable[[bytes], bytes]
) -> int:
    """Listen for exactly one client, splice it to host:port, and run the
    server→client frames through ``s2c_transform``.  The adversary in these
    drills owns the network, nothing else."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    proxy_port = listener.getsockname()[1]

    def pump(src: socket.socket, dst: socket.socket, transform) -> None:
        try:
            while True:
                body = recv_frame(src)
                send_frame(dst, transform(body) if transform else body)
        except (TransportError, OSError):
            # shutdown, not just close: it wakes the sibling pump's blocked
            # recv and sends FIN even while that recv holds the socket open
            for s in (src, dst):
                try:
                    s.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    s.close()
                except OSError:
                    pass

    def run() -> None:
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        finally:
            listener.close()
        upstream = socket.create_connection((host, port))
        threading.Thread(target=pump, args=(conn, upstream, None), daemon=True).start()
        threading.Thread(
            target=pump, args=(upstream, conn, s2c_transform), daemon=True
        ).start()

    threading.Thread(target=run, daemon=True).start()
    return proxy_port


# Each drill gets the enclave's port and ``connect(port, **overrides)``, a
# connector bound to the enclave's measurement and the user's credentials.


def _attack_tampered_record(port: int, connect):
    flipped = []

    def flip(body: bytes) -> bytes:
        if body[:1] == bytes([MSG_RECORD]) and not flipped:
            flipped.append(True)
            mangled = bytearray(body)
            mangled[-1] ^= 0x01
            return bytes(mangled)
        return body

    channel = connect(_one_shot_proxy("127.0.0.1", port, flip))
    try:
        channel.send_message(encode_call(0, ["password"]))
        channel.recv_message()
    except (CryptoError, TransportError) as e:
        return ("tampered-record", True, f"session aborted ({e})")
    finally:
        channel.close()
    return ("tampered-record", False, "tampered record was accepted")


def _attack_unknown_client(port: int, connect):
    rogue = gen_signing_key()  # never provisioned with the enclave
    try:
        channel = connect(port, client_name="mallory", signing_key=rogue)
    except AuthFailure:
        return ("unknown-client", True, "handshake refused with AUTH_FAILURE")
    try:
        channel.send_message(encode_call(0, ["password"]))
        reply = decode_message(channel.recv_message())
    finally:
        channel.close()
    return ("unknown-client", False, f"rogue client was answered: {reply}")


def _attack_leaky_function(port: int, connect):
    channel = connect(port)
    try:
        channel.send_message(encode_call(0, []))
        reply = decode_message(channel.recv_message())
    finally:
        channel.close()
    if reply == ResultErr(ErrorCode.IFC_VIOLATION, IFC_VIOLATION_MESSAGE):
        return ("leaky-function", True, f"output gate refused: {reply.message!r}")
    return ("leaky-function", False, f"leak escaped the enclave: {reply}")


def _attack_replayed_attest(port: int, connect):
    captured: dict[str, bytes] = {}

    def record(body: bytes) -> bytes:
        if body[:1] == bytes([MSG_SERVER_ATTEST]):
            captured["attest"] = body
        return body

    connect(_one_shot_proxy("127.0.0.1", port, record)).close()
    if "attest" not in captured:
        return ("replayed-attest", False, "could not capture an attestation")

    def replay(body: bytes) -> bytes:
        if body[:1] == bytes([MSG_SERVER_ATTEST]):
            return captured["attest"]
        return body

    try:
        connect(_one_shot_proxy("127.0.0.1", port, replay)).close()
    except AttestationFailure as e:
        return (
            "replayed-attest",
            e.reason == "stale-binding",
            f"handshake rejected ({e.reason})",
        )
    return ("replayed-attest", False, "replayed quote was accepted")


def cmd_attack(args: argparse.Namespace) -> int:
    authority = gen_signing_key()
    user_key = gen_signing_key()
    credentials = {"user": user_key.public_key()}

    monitors = [
        _serve_inprocess(
            RunConfig(app=app, port=0, client_sig=not args.no_client_sig), authority, credentials
        )
        for app in ("password-checker", "attack-demo")
    ]
    try:
        pwd, leak = (
            (
                monitor.port,
                functools.partial(
                    connect_channel,
                    "127.0.0.1",
                    client_name="user",
                    signing_key=user_key,
                    expected_measurement=monitor.measurement,
                    authority_public=authority.public_key(),
                ),
            )
            for monitor in monitors
        )
        results = [
            _attack_tampered_record(*pwd),
            _attack_unknown_client(*pwd),
            _attack_leaky_function(*leak),
            _attack_replayed_attest(*pwd),
        ]
    finally:
        for monitor in monitors:
            monitor.stop()

    for name, blocked, detail in results:
        print(f"{name}: {'PASS' if blocked else 'FAIL'} ({detail})")
    blocked_count = sum(1 for _, blocked, _ in results if blocked)
    print(f"{blocked_count}/{len(results)} attacks blocked")
    return EXIT_OK if blocked_count == len(results) else EXIT_INTERNAL


# --- entry point -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enclaveflow",
        description="enclave-backed apps: provisioning, launchers, bench, attack drills",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("provision", help="generate key files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--clients",
        default="user,P1,P2,C1",
        help="comma-separated client names needing signing keys",
    )
    p.add_argument(
        "--exchange",
        default="C1",
        help="comma-separated names needing encryption (exchange) keys",
    )
    p.add_argument("--force", action="store_true", help="overwrite existing key files")
    p.set_defaults(func=cmd_provision)

    def common_run_flags(p: argparse.ArgumentParser, with_role: bool) -> None:
        if with_role:
            p.add_argument("--role", required=True, help="which client role to play")
        p.add_argument("--app", choices=APPS, help="override the config's app")
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--port", type=int, help="override the config's port")
        p.add_argument("--no-ifc", action="store_true", help="disable flow guards")
        p.add_argument(
            "--no-attestation", action="store_true", help="plain TCP, no handshake"
        )
        p.add_argument(
            "--no-client-sig",
            action="store_true",
            help="skip client authentication in the handshake",
        )
        p.add_argument(
            "--per-call-handshake",
            action="store_true",
            help="open a fresh channel for every gateway call",
        )

    p = sub.add_parser("enclave", help="serve an application")
    common_run_flags(p, with_role=False)
    p.set_defaults(func=cmd_enclave)

    p = sub.add_parser("client", help="run a client role")
    common_run_flags(p, with_role=True)
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("bench", help="latency table as CSV")
    p.add_argument(
        "--iterations", type=int, default=50, help="samples per configuration (default 50)"
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("attack", help="run the adversarial drills")
    p.add_argument(
        "--no-client-sig",
        action="store_true",
        help="control experiment: serve without client authentication",
    )
    p.set_defaults(func=cmd_attack)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "no_attestation", False) and not getattr(args, "no_client_sig", False):
        parser.error("--no-attestation requires --no-client-sig")
    try:
        return args.func(args)
    except (UsageError, StagingError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except AttestationFailure as e:
        print(f"attestation failure: {e}", file=sys.stderr)
        return EXIT_ATTESTATION
    except AuthFailure as e:
        print(f"authentication failure: {e}", file=sys.stderr)
        return EXIT_AUTH
    except IfcViolation as e:
        print(f"flow violation: {e}", file=sys.stderr)
        return EXIT_IFC
    except RemoteError as e:
        print(f"remote error: {e}", file=sys.stderr)
        if e.code == ErrorCode.IFC_VIOLATION:
            return EXIT_IFC
        if e.code == ErrorCode.AUTH_FAILURE:
            return EXIT_AUTH
        return EXIT_INTERNAL
    except (TransportError, CryptoError, ConnectionError, TimeoutError) as e:
        print(f"transport failure: {e}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (EnclaveFlowError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
