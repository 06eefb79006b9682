"""The client tools: key provisioning, the client launcher, a latency bench,
and scripted attack drills.  ``cli.main`` imports this module for every
subcommand but ``enclave``, so no enclave loads or compiles it."""

from __future__ import annotations

import argparse
import contextlib
import functools
import random
import socket
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Iterator

from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from .app import App, SecureRef, run_app
from .attest import (
    MSG_RECORD,
    MSG_SERVER_ATTEST,
    Channel,
    Monitor,
    connect_channel,
    gen_signing_key,
    load_signing_private,
    load_signing_public,
    private_raw,
    public_raw,
    save_key_hex,
    sha256,
)
from .cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    RunConfig,
    _build_program,
    _code_version,
    _load_config,
    _load_key,
    _measurement_config_bytes,
    _stage_enclave,
)
from .errors import (
    IFC_VIOLATION_MESSAGE,
    AttestationFailure,
    AuthFailure,
    CryptoError,
    ErrorCode,
    RemoteError,
    TransportError,
    UsageError,
)
from .wire import Value, encode_value


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


# --- client launchers -----------------------------------------------------------------


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
