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
import contextlib
import functools
import json
import random
import signal
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterator, TextIO

from .app import ENCLAVE_ROLE, App, SecureRef, run_app
from .attest import (
    MSG_RECORD,
    MSG_SERVER_ATTEST,
    Channel,
    Monitor,
    _measured,
    connect_channel,
    gen_signing_key,
    load_exchange_private,
    load_exchange_public,
    load_signing_private,
    load_signing_public,
    private_raw,
    public_raw,
    save_key_hex,
    sha256,
)
from .errors import (
    IFC_VIOLATION_MESSAGE,
    AttestationFailure,
    AuthFailure,
    CryptoError,
    EnclaveFlowError,
    ErrorCode,
    IfcViolation,
    LabelError,
    RemoteError,
    StagingError,
    TransportError,
    UsageError,
)
from .ifc import IfcContext
from .labels import DCLabel, EMPTY_PRIVILEGE, Privilege, cnf_from_principal
from .wire import Value, encode_value

SERVICE_PRINCIPAL = "svc"
# the bundled apps, each with its default code version
APPS = {"password-checker": "pwd-0.1", "cleanroom": "dcr-0.2", "attack-demo": "leak-0.1"}

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_ATTESTATION = 3
EXIT_AUTH = 4
EXIT_IFC = 5
EXIT_TRANSPORT = 6


# --- run configuration ------------------------------------------------------------


class RunConfig:
    """Everything a run needs, merged from the JSON config file and flags.

    Key entries are file paths; each role loads only the files it needs,
    so one config can be shared by every party of a demo.  Every field is
    an instance attribute set in ``__init__``, so ``vars`` of a config is
    its fields; a ``None`` dict or list field gets a fresh default.
    """

    def __init__(
        self,
        app: str = "password-checker",
        host: str = "127.0.0.1",
        port: int = 7000,
        code_version: str = "",
        authority_private: str = "",
        authority_public: str = "",
        client_keys: dict[str, str] | None = None,  # name -> public key path
        signing_keys: dict[str, str] | None = None,  # name -> private key path
        expected_measurement: str = "",  # hex; computed from the staged program when empty
        providers: list[str] | None = None,  # default ["P1", "P2"]
        consumer: str = "C1",
        thresholds: dict[str, int] | None = None,
        data_files: dict[str, str] | None = None,
        consumer_public_key: str = "",
        consumer_private_key: str = "",
        password: str = "password",
        ifc: bool = True,
        attestation: bool = True,
        client_sig: bool = True,
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self.code_version = code_version
        self.authority_private = authority_private
        self.authority_public = authority_public
        self.client_keys = {} if client_keys is None else client_keys
        self.signing_keys = {} if signing_keys is None else signing_keys
        self.expected_measurement = expected_measurement
        self.providers = ["P1", "P2"] if providers is None else providers
        self.consumer = consumer
        self.thresholds = {} if thresholds is None else thresholds
        self.data_files = {} if data_files is None else data_files
        self.consumer_public_key = consumer_public_key
        self.consumer_private_key = consumer_private_key
        self.password = password
        self.ifc = ifc
        self.attestation = attestation
        self.client_sig = client_sig

    @classmethod
    def from_file(cls, path: str | Path, **flags) -> "RunConfig":
        """The config in ``path``, each of ``flags`` set over it, validated once."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            raise UsageError(f"cannot read config {path}: {e}") from e
        if not isinstance(raw, dict):
            raise UsageError(f"{path}: config must be a JSON object")
        known = vars(cls()).keys()
        unknown = set(raw) - known
        if unknown:
            raise UsageError(f"{path}: unknown config keys {sorted(unknown)}")
        cfg = cls(**{**raw, **flags})
        cfg.validate()
        return cfg

    def validate(self) -> None:
        # each field has exactly its default's type, so a bool is no int, and
        # list items and dict values are strings, but for the row thresholds
        for key, default in vars(RunConfig()).items():
            value = getattr(self, key)
            items = value.values() if isinstance(value, dict) else value
            item = int if key == "thresholds" else str
            if type(value) is not type(default) or (
                isinstance(value, (list, dict)) and any(type(v) is not item for v in items)
            ):
                raise UsageError(f"config key {key} has the wrong type")
            try:  # and each string in it, dict keys too, has a UTF-8 encoding
                json.dumps(value, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise UsageError(f"config key {key} must be valid UTF-8 text") from None
        if self.app not in APPS:
            raise UsageError(f"app must be one of {', '.join(APPS)}")
        if not 0 <= self.port <= 0xFFFF:
            raise UsageError("port must be in 0-65535")
        if len(self.providers) != 2:
            raise UsageError("exactly two providers are supported")
        for name in self.providers:  # each must name a principal
            try:
                cnf_from_principal(name)
            except LabelError as e:
                raise UsageError(f"config key providers: {e}") from None
        _measured("code_version", self.code_version)
        if not self.attestation and self.client_sig:
            raise UsageError(
                "client signatures require attestation; disable both or neither"
            )


# the fields only the enclave reads, as README's Config reference marks them
_ENCLAVE_ONLY = ("authority_private", "client_keys", "consumer_public_key", "password")


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The config file (or the defaults), then each run flag that was given:
    a flag sets the field it is named for.  A client role's config then
    holds the defaults of the enclave-only fields, so no client process
    keeps the enclave's values."""
    defaults = RunConfig()
    flags = {k: v for k, v in vars(args).items() if v is not None and k in vars(defaults)}
    if args.config:
        cfg = RunConfig.from_file(args.config, **flags)
    else:
        cfg = RunConfig(**flags)
        cfg.validate()
    if getattr(args, "role", None) is not None:
        for key in _ENCLAVE_ONLY:
            setattr(cfg, key, getattr(defaults, key))
    return cfg


def _code_version(cfg: RunConfig) -> str:
    return cfg.code_version or APPS[cfg.app]


def _measurement_config_bytes(cfg: RunConfig) -> bytes:
    """The config facts the measurement binds: anything both sides must
    agree on beyond the call table itself, and which guards the enclave
    runs, so one serving without IFC or client signatures attests apart."""
    subset: dict = {"app": cfg.app, "ifc": cfg.ifc, "client_sig": cfg.client_sig}
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


def _load_key(load: Callable[[str], object], key: str, path: str):
    """``load(path)`` for the key file that config key ``key`` names; a
    missing or malformed file is a usage error naming that key."""
    try:
        return load(path)
    except (OSError, ValueError, CryptoError) as e:
        raise UsageError(f"config key {key}: {e}") from e


def _cleanroom_config(cfg: RunConfig, role: str) -> CleanRoomConfig:
    from .cleanroom import CleanRoomConfig

    consumer_public = None
    consumer_private = None
    if role == ENCLAVE_ROLE:
        if not cfg.consumer_public_key:
            raise UsageError("cleanroom enclave needs consumer_public_key in the config")
        consumer_public = _load_key(
            load_exchange_public, "consumer_public_key", cfg.consumer_public_key
        )
    if role == cfg.consumer:
        if not cfg.consumer_private_key:
            raise UsageError(f"{role} needs consumer_private_key in the config")
        consumer_private = _load_key(
            load_exchange_private, "consumer_private_key", cfg.consumer_private_key
        )
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
        # a client stages a stub in the password's place: only the enclave holds it
        return build_password_program(cfg.password if role == ENCLAVE_ROLE else "")
    if cfg.app == "cleanroom":
        # imported only here: no other app's enclave loads the clean room
        from .cleanroom import build_cleanroom_program

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


def _split_names(flag: str, spec: str) -> list[str]:
    """The names a comma-separated ``flag`` lists.  Each name becomes key
    file names, so it must be one file-name component, and none may repeat."""
    names = [n.strip() for n in spec.split(",") if n.strip()]
    for i, name in enumerate(names):
        if "/" in name or "\x00" in name or name in (".", ".."):
            raise UsageError(f"{flag}: {name!r} is not a single file name")
        if name in names[:i]:
            raise UsageError(f"{flag} names {name!r} twice")
    return names


def cmd_provision(args: argparse.Namespace) -> int:
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

    def signing_key():
        key = gen_signing_key()
        key.public_key().verify(key.sign(b"self-test"), b"self-test")
        return key

    # (printed label, file stem, key generator), in generation order
    pairs = [("authority", "authority", signing_key)]
    pairs += [
        (f"{n} signing", f"{n}_signing", signing_key)
        for n in _split_names("--clients", args.clients)
    ]
    pairs += [
        (f"{n} exchange", f"{n}_exchange", X25519PrivateKey.generate)
        for n in _split_names("--exchange", args.exchange)
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
        # readable by its owner only before the key is written, also over an
        # existing file, which would keep its mode
        priv_path.touch()
        priv_path.chmod(0o600)
        save_key_hex(priv_path, private_raw(key))
        pub = public_raw(key.public_key())
        save_key_hex(pub_path, pub)
        print(f"{label}: {sha256(pub).hex()[:16]}")
    print(f"{2 * len(targets)} key files in {out}")
    return EXIT_OK


# --- enclave and client launchers ----------------------------------------------------


def _stage_enclave(cfg: RunConfig, authority_private, credentials) -> Monitor:
    """Stage ``cfg``'s enclave and bind its monitor, not yet serving."""
    app = run_app(
        ENCLAVE_ROLE,
        _build_program(cfg, ENCLAVE_ROLE),
        code_version=_code_version(cfg),
        ifc_enforce=cfg.ifc,
    )
    return Monitor(
        cfg.host,
        cfg.port,
        app.dispatch,
        measurement=app.measurement(_measurement_config_bytes(cfg)),
        authority_private=authority_private,
        credentials=credentials,
        attested=cfg.attestation,
        verify_client=cfg.client_sig,
    )


@contextlib.contextmanager
def _inprocess_enclaves(cfgs: list[RunConfig]) -> Iterator[list[tuple[Monitor, Callable]]]:
    """Serve each config's enclave on a daemon thread of this process, under
    fresh in-memory keys, and yield ``(monitor, connect)`` per config:
    ``connect(port, **overrides)`` reaches it as ``user``, pinned to its
    measurement, signing only where it verifies.  Stops them all on exit."""
    authority = gen_signing_key()
    user_key = gen_signing_key()
    credentials = {"user": user_key.public_key()}
    served = []
    try:
        for cfg in cfgs:
            monitor = _stage_enclave(cfg, authority, credentials)
            threading.Thread(target=monitor.serve_forever, daemon=True).start()
            connect = functools.partial(
                connect_channel,
                cfg.host,
                attested=cfg.attestation,
                client_name="user",
                signing_key=user_key if cfg.client_sig else None,
                expected_measurement=monitor.measurement,
                authority_public=authority.public_key(),
            )
            served.append((monitor, connect))
        yield served
    finally:
        for monitor, _ in served:
            monitor.stop()


def cmd_enclave(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    authority_private = None
    credentials = {}
    if cfg.attestation:
        if not cfg.authority_private:
            raise UsageError("attested serving needs authority_private in the config")
        authority_private = _load_key(
            load_signing_private, "authority_private", cfg.authority_private
        )
        credentials = {
            name: _load_key(load_signing_public, "client_keys", path)
            for name, path in cfg.client_keys.items()
        }

    monitor = _stage_enclave(cfg, authority_private, credentials)
    try:  # from the announcement on, SIGINT is a clean stop
        # even if started with SIGINT ignored, like a non-interactive shell's background job
        signal.signal(signal.SIGINT, signal.default_int_handler)
        print(
            f"ENCLAVE LISTENING {monitor.host} {monitor.port} {monitor.measurement.hex()}",
            flush=True,
        )
        monitor.serve_forever()
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def _gateway_factory(cfg: RunConfig, role: str) -> Callable[[], object]:
    """A connector to ``cfg``'s enclave as ``role``, with everything bound."""
    expected = _expected_measurement(cfg) if cfg.attestation else b""
    authority_public = None
    if cfg.attestation:
        if not cfg.authority_public:
            raise UsageError("an attested client needs authority_public in the config")
        authority_public = _load_key(
            load_signing_public, "authority_public", cfg.authority_public
        )
    signing_key = None
    if cfg.attestation and cfg.client_sig:
        path = cfg.signing_keys.get(role)
        if not path:
            raise UsageError(f"no signing key configured for role {role!r}")
        signing_key = _load_key(load_signing_private, "signing_keys", path)

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
        gateway_factory=_gateway_factory(cfg, args.role),
    )
    return EXIT_OK


# --- bench ---------------------------------------------------------------------------

# Three comparison groups: IFC guards over a plain channel, the attested
# channel against the plain baseline, and client signatures within the
# attested group.  Each sample is one ``App.gateway`` call on a fresh per-call
# channel, so the attested configs price the handshake, not a warm session.
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
    import statistics

    if args.iterations < 1:
        raise UsageError("iterations must be >= 1")
    cfg = RunConfig(app="password-checker", port=0)
    rows = [
        RunConfig(**{**vars(cfg), "attestation": attested, "client_sig": client_sig, "ifc": ifc})
        for _, attested, client_sig, ifc in BENCH_CONFIGS
    ]
    with _inprocess_enclaves(rows) as served:
        targets = {
            label: (connect, monitor.port)
            for (label, *_), (monitor, connect) in zip(BENCH_CONFIGS, served)
        }

        # Round-robin: one call per config per round, so drift in machine
        # speed lands on every config alike.  Each round's order is a seeded
        # shuffle, because a plain call right after an attested one reads
        # slower and a fixed order would charge that to one config.  The
        # first rounds warm the stack.
        warmup = 3
        samples: dict[str, list[float]] = {label: [] for label in targets}
        for round_no in range(warmup + args.iterations):
            for label in random.Random(round_no).sample(list(targets), len(targets)):
                t0 = time.perf_counter()
                reply = _drill_call(*targets[label], [cfg.password])
                elapsed_ms = (time.perf_counter() - t0) * 1e3
                if reply is not True:
                    raise TransportError(f"{label}: unexpected bench reply")
                if round_no >= warmup:
                    samples[label].append(elapsed_ms)

    print("config,mean_ms,stddev_ms,samples")
    for label, *_ in BENCH_CONFIGS:
        runs = samples[label]
        stddev = statistics.stdev(runs) if len(runs) > 1 else 0.0
        print(f"{label},{statistics.fmean(runs):.3f},{stddev:.3f},{len(runs)}")
    return EXIT_OK


# --- attack drills ---------------------------------------------------------------------


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
        frames, out = Channel(src), Channel(dst)
        try:
            while True:
                body = frames.recv_frame()
                out.send_message(transform(body) if transform else body)
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


def _drill_call(connect, port: int, args: list, **overrides) -> Value:
    """Call function 0 as users' clients do: through ``App.gateway``, on a
    channel of its own opened by ``connect(port, **overrides)``."""
    ref = SecureRef(0, len(args), tuple(map(encode_value, args)))
    factory = functools.partial(connect, port, **overrides)
    return App("user", gateway_factory=factory, per_call_channel=True).gateway(ref)


def _attack_tampered_record(port: int, connect):
    flipped = []

    def flip(body: bytes) -> bytes:
        if body[:1] == bytes([MSG_RECORD]) and not flipped:
            flipped.append(True)
            mangled = bytearray(body)
            mangled[-1] ^= 0x01
            return bytes(mangled)
        return body

    try:
        _drill_call(connect, _one_shot_proxy("127.0.0.1", port, flip), ["password"])
    except (CryptoError, TransportError) as e:
        return ("tampered-record", True, f"session aborted ({e})")
    return ("tampered-record", False, "tampered record was accepted")


def _attack_unknown_client(port: int, connect):
    rogue = gen_signing_key()  # never provisioned with the enclave
    try:
        reply = _drill_call(connect, port, ["password"], client_name="mallory", signing_key=rogue)
    except AuthFailure:
        return ("unknown-client", True, "handshake refused with AUTH_FAILURE")
    except RemoteError as e:
        reply = e
    return ("unknown-client", False, f"rogue client was answered: {reply!r}")


def _attack_leaky_function(port: int, connect):
    try:
        reply = _drill_call(connect, port, [])
    except RemoteError as e:
        if (e.code, e.message) == (ErrorCode.IFC_VIOLATION, IFC_VIOLATION_MESSAGE):
            return ("leaky-function", True, f"output gate refused: {e.message!r}")
        reply = e
    return ("leaky-function", False, f"leak escaped the enclave: {reply!r}")


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
    cfgs = [
        RunConfig(app=app, port=0, client_sig=args.client_sig)
        for app in ("password-checker", "attack-demo")
    ]
    with _inprocess_enclaves(cfgs) as served:
        pwd, leak = ((monitor.port, connect) for monitor, connect in served)
        results = [
            _attack_tampered_record(*pwd),
            _attack_unknown_client(*pwd),
            _attack_leaky_function(*leak),
            _attack_replayed_attest(*pwd),
        ]

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
        # but for --role and --config, each flag's dest is the RunConfig field
        # it overrides, and None when the flag is not given
        if with_role:
            p.add_argument("--role", required=True, help="which client role to play")
        p.add_argument("--app", choices=APPS, help="override the config's app")
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--port", type=int, help="override the config's port")
        for flag, field, help_text in (
            ("--no-ifc", "ifc", "disable flow guards"),
            ("--no-attestation", "attestation", "plain TCP, no handshake"),
            ("--no-client-sig", "client_sig", "skip client authentication in the handshake"),
        ):
            p.add_argument(flag, dest=field, action="store_false", default=None, help=help_text)

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
        dest="client_sig",
        action="store_false",
        help="control experiment: serve without client authentication",
    )
    p.set_defaults(func=cmd_attack)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
