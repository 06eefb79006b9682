"""Command-line front end: the run config, the bundled programs, the
``enclave`` command, and the entry point; the client tools are in ``tools``.

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
import json
import signal
import sys
from pathlib import Path
from typing import Callable, TextIO

from .app import ENCLAVE_ROLE, App, run_app
from .attest import (
    Monitor,
    _measured,
    load_exchange_private,
    load_exchange_public,
    load_signing_private,
    load_signing_public,
)
from .errors import (
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
        for name, count in self.thresholds.items():  # a mistyped name would go unread
            if name not in self.providers or count < 0:
                raise UsageError(
                    f"config key thresholds: {name!r} must be a provider, its count >= 0"
                )
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


# --- the enclave command -------------------------------------------------------------


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

    p = sub.add_parser("client", help="run a client role")
    common_run_flags(p, with_role=True)

    p = sub.add_parser("bench", help="latency table as CSV")
    p.add_argument(
        "--iterations", type=int, default=50, help="samples per configuration (default 50)"
    )

    p = sub.add_parser("attack", help="run the adversarial drills")
    p.add_argument(
        "--no-client-sig",
        dest="client_sig",
        action="store_false",
        help="control experiment: serve without client authentication",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "enclave":
            return cmd_enclave(args)
        from . import tools  # the client tools: no enclave imports them

        return getattr(tools, f"cmd_{args.command}")(args)
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
